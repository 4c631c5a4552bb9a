//! Routes through the adaptor stay true across the DDL, rollback and
//! vacuum that change a table: `route` plans every call, and a cached plan
//! dies with the catalog epoch, so neither can outlive what made it. The
//! placement key itself survives a rolled-back `DROP`, a `VACUUM` and a
//! reopen.

use shard::{Route, ShardedEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use vector_engine::exec::hash::hash_value;
use vector_engine::{ColumnVector, EngineConfig, Value};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("idb-route-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: Option<&std::path::Path>) -> EngineConfig {
    EngineConfig {
        vector_size: 4,
        partitions: 4,
        parallelism: 1,
        data_dir: dir.map(|d| d.to_str().unwrap().to_string()),
        buffer_pool_pages: 8,
        wal_fsync: false,
        ..Default::default()
    }
}

/// `id` 0..rows and `k = id * 7 % 13`.
fn load(e: &ShardedEngine, table: &str, rows: i64) {
    let ids: Vec<i64> = (0..rows).collect();
    let ks: Vec<i64> = ids.iter().map(|&x| x * 7 % 13).collect();
    e.insert_columns(table, vec![ColumnVector::Int(ids), ColumnVector::Int(ks)]).unwrap();
}

/// The partition a point query on key value `v` is pinned to.
fn owner(v: i64) -> Route {
    Route::Single((hash_value(&Value::Int(v)) % 4) as usize)
}

fn placement_key(e: &ShardedEngine) -> Option<usize> {
    e.shard(0).table("t").ok().and_then(|t| t.placement_key())
}

#[test]
fn redeclaring_with_a_different_key_never_serves_a_stale_route() {
    let e = ShardedEngine::with_shards(config(None), 4);
    e.execute("CREATE TABLE t (id INT, k INT)").unwrap();
    e.declare_sharded("t", "id").unwrap();
    load(&e, "t", 64);

    const POINT: &str = "SELECT k FROM t WHERE id = 5";
    assert_eq!(e.route(POINT).unwrap(), owner(5), "an id-placed point query pins a partition");
    assert_eq!(e.execute_cached(POINT).unwrap().rows(), vec![vec![Value::Int(5 * 7 % 13)]]);

    // Drop, recreate, and place on the other column. The same SQL text is
    // no longer a key pin: it reads every partition, and the cached plan
    // of the dropped table is not replayed.
    e.execute("DROP TABLE t").unwrap();
    assert_eq!(placement_key(&e), None, "the table is gone");
    e.execute("CREATE TABLE t (id INT, k INT)").unwrap();
    e.declare_sharded("t", "k").unwrap();
    load(&e, "t", 64);
    assert_eq!(e.route(POINT).unwrap(), Route::Scatter, "a k-placed id filter reads everything");
    assert_eq!(e.execute_cached(POINT).unwrap().rows(), vec![vec![Value::Int(5 * 7 % 13)]]);
    assert_eq!(e.route("SELECT id FROM t WHERE k = 9").unwrap(), owner(9));
}

#[test]
fn rollback_of_a_drop_keeps_the_table_sharded_and_routes_fresh() {
    let dir = fresh_dir("rollback");
    let e = ShardedEngine::open(config(Some(&dir))).unwrap();
    e.execute("CREATE TABLE t (id INT, k INT)").unwrap();
    e.declare_sharded("t", "id").unwrap();
    load(&e, "t", 64);

    const POINT: &str = "SELECT k FROM t WHERE id = 9";
    assert_eq!(e.route(POINT).unwrap(), owner(9));

    e.execute("BEGIN").unwrap();
    e.execute("DROP TABLE t").unwrap();
    e.execute("ROLLBACK").unwrap();

    // The table is back, still hash-placed on `id` — after a reopen too:
    // the point query pins and answers exactly as before.
    let check = |e: &ShardedEngine| {
        assert_eq!(placement_key(e), Some(0));
        assert_eq!(e.route(POINT).unwrap(), owner(9));
        assert_eq!(e.execute(POINT).unwrap().rows(), vec![vec![Value::Int(9 * 7 % 13)]]);
        assert_eq!(
            e.execute("SELECT COUNT(*) AS n FROM t").unwrap().rows(),
            vec![vec![Value::Int(64)]]
        );
    };
    check(&e);
    drop(e);
    check(&ShardedEngine::open(config(Some(&dir))).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vacuum_through_the_facade_rebuilds_every_shard_and_queries_stay_correct() {
    let dir = fresh_dir("vacuum");
    let e = ShardedEngine::open(config(Some(&dir))).unwrap();
    e.execute("CREATE TABLE t (id INT, k INT)").unwrap();
    e.declare_sharded("t", "id").unwrap();
    load(&e, "t", 256);
    e.execute("CREATE TABLE dead (id INT, k INT)").unwrap();
    load(&e, "dead", 1024);
    e.execute("DROP TABLE dead").unwrap();

    const POINT: &str = "SELECT k FROM t WHERE id = 11";
    assert_eq!(e.route(POINT).unwrap(), owner(11));
    e.execute("VACUUM").unwrap();

    // Routes and reads come from the rebuilt file, and from the reopened
    // engine.
    let check = |e: &ShardedEngine| {
        assert_eq!(placement_key(e), Some(0));
        assert_eq!(e.route(POINT).unwrap(), owner(11));
        assert_eq!(e.execute(POINT).unwrap().rows(), vec![vec![Value::Int(11 * 7 % 13)]]);
        assert_eq!(
            e.execute("SELECT COUNT(*) AS n FROM t").unwrap().rows(),
            vec![vec![Value::Int(256)]]
        );
    };
    check(&e);
    drop(e);
    check(&ShardedEngine::open(config(Some(&dir))).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
