//! [`ShardedEngine`]: one [`Engine`] behind the multi-engine facade's API.
//! A shard is a partition of a hash-placed table; see the crate docs.

use std::path::Path;
use std::sync::Arc;

use vector_engine::exec::parallel::common_pin;
use vector_engine::{ColumnVector, Engine, EngineConfig, EngineError, QueryResult, Result};

/// Which partitions a `SELECT` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Every scan of a hash-placed table is pinned by `key = literal` to
    /// this partition, so the statement reads that partition's rows of
    /// those tables and no others.
    Single(usize),
    /// Anything else: every partition of every table it scans.
    Scatter,
}

/// One engine, addressed the way the multi-engine facade was.
pub struct ShardedEngine {
    engine: Arc<Engine>,
}

impl ShardedEngine {
    /// [`open`](ShardedEngine::open), panicking on a persistent open or
    /// recovery error. The shard count is unused: a hash-placed table has
    /// `config.partitions` partitions.
    pub fn with_shards(config: EngineConfig, _shards: usize) -> ShardedEngine {
        ShardedEngine::open(config).expect("persistent storage open/recovery failed")
    }

    /// Open the engine, recovering it from `config.data_dir` when set. A
    /// root the multi-engine facade wrote (`shard-N/` directories plus
    /// `sharding.kv`) is refused: opened as one engine it would look
    /// empty.
    pub fn open(config: EngineConfig) -> Result<ShardedEngine> {
        if let Some(root) = config.data_dir.as_deref().map(Path::new) {
            if root.join("sharding.kv").exists() || root.join("shard-0").exists() {
                return Err(EngineError::Io(format!(
                    "{}: a root of the multi-engine shard layout (shard-N/ and sharding.kv), \
                     which is no longer read; load its tables into one engine",
                    root.display()
                )));
            }
        }
        Ok(ShardedEngine { engine: Arc::new(Engine::open(config)?) })
    }

    /// The one engine, as a one-element slice.
    pub fn shards(&self) -> &[Arc<Engine>] {
        std::slice::from_ref(&self.engine)
    }

    /// The one engine, for every `i`.
    pub fn shard(&self, _i: usize) -> &Arc<Engine> {
        &self.engine
    }

    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// Hash-place `table` on `key`
    /// ([`Table::declare_placement_key`](vector_engine::Table::declare_placement_key)).
    pub fn declare_sharded(&self, table: &str, key: &str) -> Result<()> {
        self.engine.table(table)?.declare_placement_key(key)
    }

    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.engine.execute(sql)
    }

    pub fn execute_cached(&self, sql: &str) -> Result<QueryResult> {
        self.engine.execute_cached(sql)
    }

    pub fn insert_columns(&self, table: &str, columns: Vec<ColumnVector>) -> Result<usize> {
        self.engine.insert_columns(table, columns)
    }

    /// Plan `sql` and say which partitions it reads: [`Route::Single`] when
    /// partition pruning pins every hash-placed scan to one partition
    /// ([`common_pin`]).
    pub fn route(&self, sql: &str) -> Result<Route> {
        Ok(common_pin(&self.engine.plan(sql)?, None).map_or(Route::Scatter, Route::Single))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::metrics as om;
    use vector_engine::exec::hash::hash_value;
    use vector_engine::Value;

    const FACTS: &str = "CREATE TABLE facts (id INT, grp INT, v FLOAT)";

    fn config(partitions: usize) -> EngineConfig {
        EngineConfig { vector_size: 8, partitions, parallelism: 2, ..Default::default() }
    }

    /// `id` 0..n, `grp = id % 5`, `v = id * 0.25` (dyadic, exact in binary).
    fn facts(n: i64) -> Vec<ColumnVector> {
        vec![
            ColumnVector::Int((0..n).collect()),
            ColumnVector::Int((0..n).map(|i| i % 5).collect()),
            ColumnVector::Float((0..n).map(|i| i as f64 * 0.25).collect()),
        ]
    }

    /// `facts` hash-placed on `id` behind the adaptor.
    fn sharded(partitions: usize, n: i64) -> ShardedEngine {
        let e = ShardedEngine::with_shards(config(partitions), 4);
        e.execute(FACTS).unwrap();
        e.declare_sharded("facts", "id").unwrap();
        e.insert_columns("facts", facts(n)).unwrap();
        e
    }

    /// The round-robin twin: a plain engine holding the same rows.
    fn oracle(partitions: usize, n: i64) -> Engine {
        let e = Engine::new(config(partitions));
        e.execute(FACTS).unwrap();
        e.insert_columns("facts", facts(n)).unwrap();
        e
    }

    /// Rows sorted, floats by their bits.
    fn sorted_rows(r: &QueryResult) -> Vec<String> {
        let mut rows: Vec<String> = r
            .rows()
            .iter()
            .map(|row| {
                let cell = |v: &Value| match v {
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                };
                row.iter().map(cell).collect::<Vec<_>>().join(",")
            })
            .collect();
        rows.sort();
        rows
    }

    fn assert_matches(e: &ShardedEngine, o: &Engine, sql: &str) {
        let (got, want) = (e.execute(sql).unwrap(), o.execute(sql).unwrap());
        assert!(want.num_rows() > 0, "{sql} returns nothing");
        assert_eq!(sorted_rows(&got), sorted_rows(&want), "{sql}");
    }

    /// The partition `hash(id) % partitions` names.
    fn owner(id: i64, partitions: usize) -> usize {
        (hash_value(&Value::Int(id)) % partitions as u64) as usize
    }

    #[test]
    fn rows_split_across_shards_and_union_is_complete() {
        let e = sharded(3, 100);
        assert_eq!(e.shards().len(), 1, "one engine");
        let per = e.shard(0).table("facts").unwrap().snapshot();
        assert_eq!(per.iter().sum::<usize>(), 100);
        assert!(per.iter().all(|&c| c > 0), "hash placement left a partition empty: {per:?}");
        let r = e.execute("SELECT COUNT(*) AS n FROM facts").unwrap();
        assert_eq!(r.row(0), vec![Value::Int(100)]);
    }

    #[test]
    fn point_query_routes_to_one_shard() {
        let e = sharded(4, 64);
        let sql = "SELECT v FROM facts WHERE id = 17";
        assert_eq!(e.route(sql).unwrap(), Route::Single(owner(17, 4)));
        // The named partition really holds the row.
        let mut held = Vec::new();
        let t = e.shard(3).table("facts").unwrap();
        t.for_each_block(owner(17, 4), &[0], |b| {
            held.extend_from_slice(b.column(0).as_int()?);
            Ok(())
        })
        .unwrap();
        assert!(held.contains(&17));
        assert_eq!(e.execute(sql).unwrap().row(0), vec![Value::Float(17.0 * 0.25)]);
    }

    #[test]
    fn self_join_with_one_unpinned_side_is_not_routed() {
        let (e, o) = (sharded(4, 64), oracle(4, 64));
        // b is unpinned: it reads every partition.
        let sql = "SELECT a.v, b.grp FROM facts AS a, facts AS b WHERE a.id = 5 AND a.id = b.id";
        assert_eq!(e.route(sql).unwrap(), Route::Scatter);
        assert_matches(&e, &o, sql);
    }

    #[test]
    fn group_by_shard_key_scatters_and_matches_oracle() {
        let (e, o) = (sharded(3, 90), oracle(3, 90));
        let before = om::EXEC_SPLIT_KEY_HASH.get();
        assert_matches(&e, &o, "SELECT id, SUM(v) AS s FROM facts GROUP BY id");
        assert!(om::EXEC_SPLIT_KEY_HASH.get() > before, "split on the placement key");
    }

    #[test]
    fn misaligned_group_by_matches_oracle() {
        let (e, o) = (sharded(3, 90), oracle(3, 90));
        assert_matches(
            &e,
            &o,
            "SELECT grp, SUM(v) AS s, AVG(v) AS m, COUNT(*) AS n FROM facts GROUP BY grp",
        );
    }

    #[test]
    fn global_aggregate_over_shards_matches_oracle() {
        let (e, o) = (sharded(8, 200), oracle(8, 200));
        let sql = "SELECT SUM(v) AS s, MIN(id) AS lo, MAX(id) AS hi, COUNT(*) AS n FROM facts";
        assert_eq!(e.execute(sql).unwrap().row(0), o.execute(sql).unwrap().row(0));
    }

    #[test]
    fn misaligned_join_matches_oracle() {
        let (e, o) = (sharded(3, 60), oracle(3, 60));
        assert_matches(
            &e,
            &o,
            "SELECT a.id, b.id FROM facts AS a, facts AS b \
             WHERE a.grp = b.grp AND a.v < 1.0 AND b.v < 1.0",
        );
    }

    #[test]
    fn replicated_join_against_sharded_side_scatters() {
        let (e, o) = (sharded(3, 60), oracle(3, 60));
        let mut statements = vec!["CREATE TABLE dim (grp INT, label FLOAT)".to_string()];
        statements
            .extend((0..5).map(|g| format!("INSERT INTO dim VALUES ({g}, {})", g as f64 * 10.0)));
        for sql in &statements {
            e.execute(sql).unwrap();
            o.execute(sql).unwrap();
        }
        // A round-robin table joined to the hash-placed one: the larger
        // side splits, the other is read whole by every morsel.
        let before = om::EXEC_PLANS_PARTITIONED.get();
        assert_matches(
            &e,
            &o,
            "SELECT f.id, d.label FROM facts AS f, dim AS d WHERE f.grp = d.grp",
        );
        assert!(om::EXEC_PLANS_PARTITIONED.get() > before);
    }

    #[test]
    fn top_level_order_and_limit_apply_after_gather() {
        let (e, o) = (sharded(4, 100), oracle(4, 100));
        let sql = "SELECT id, v FROM facts ORDER BY id DESC LIMIT 7";
        let r = e.execute(sql).unwrap();
        assert_eq!(r.num_rows(), 7);
        assert_eq!(r.rows(), o.execute(sql).unwrap().rows(), "order is fixed");
    }

    #[test]
    fn repeated_sharded_aggregate_runs_are_bit_identical() {
        // Non-dyadic values so any merge-order wobble would flip low bits.
        let e = ShardedEngine::with_shards(config(8), 8);
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.declare_sharded("t", "id").unwrap();
        let n = 500i64;
        let v = ColumnVector::Float((0..n).map(|i| i as f64 * 0.1).collect());
        e.insert_columns("t", vec![ColumnVector::Int((0..n).collect()), v]).unwrap();
        let sql = "SELECT SUM(v) AS s, AVG(v) AS m FROM t";
        let first = sorted_rows(&e.execute(sql).unwrap());
        for _ in 0..10 {
            assert_eq!(sorted_rows(&e.execute(sql).unwrap()), first, "merge order drifted");
        }
    }

    #[test]
    fn sharded_insert_statement_routes_rows() {
        let e = ShardedEngine::with_shards(config(3), 3);
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.declare_sharded("t", "id").unwrap();
        let r = e.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5), (4, 3.5)").unwrap();
        assert_eq!(r.affected, 4);
        // Explicit column lists reorder into schema order before placing.
        e.execute("INSERT INTO t (v, id) VALUES (9.5, 9)").unwrap();
        let t = e.shard(0).table("t").unwrap();
        for p in 0..3 {
            t.for_each_block(p, &[0], |b| {
                for &id in b.column(0).as_int()? {
                    assert_eq!(owner(id, 3), p, "id {id}");
                }
                Ok(())
            })
            .unwrap();
        }
        let r = e.execute("SELECT v FROM t WHERE id = 9").unwrap();
        assert_eq!(r.row(0), vec![Value::Float(9.5)]);
    }

    #[test]
    fn declare_sharded_rejects_loaded_tables_and_unknown_keys() {
        let e = ShardedEngine::with_shards(config(2), 2);
        e.execute("CREATE TABLE t (id INT)").unwrap();
        assert!(e.declare_sharded("t", "nope").is_err());
        assert!(e.declare_sharded("missing", "id").is_err());
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(e.declare_sharded("t", "id").is_err());
    }

    #[test]
    fn cross_join_of_two_sharded_tables_matches_round_robin() {
        let (e, o) = (sharded(2, 10), oracle(2, 10));
        for engine in [&**e.shard(0), &o] {
            engine.execute("CREATE TABLE other (id INT)").unwrap();
        }
        e.declare_sharded("other", "id").unwrap();
        for engine in [&**e.shard(0), &o] {
            engine.execute("INSERT INTO other VALUES (1), (2)").unwrap();
        }
        let sql = "SELECT f.id, o.id FROM facts AS f, other AS o";
        assert_eq!(e.execute(sql).unwrap().num_rows(), 20);
        assert_matches(&e, &o, sql);
    }

    #[test]
    fn single_shard_facade_matches_plain_engine() {
        let (e, o) = (sharded(1, 50), oracle(1, 50));
        for sql in [
            "SELECT SUM(v) AS s FROM facts",
            "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp",
            "SELECT v FROM facts WHERE id = 3",
        ] {
            assert_matches(&e, &o, sql);
        }
        assert_eq!(e.route("SELECT v FROM facts WHERE id = 3").unwrap(), Route::Single(0));
    }

    #[test]
    fn empty_select_has_typed_columns_on_engine_and_facade() {
        let sql = "SELECT id, v FROM facts WHERE id < 0";
        let shape = |r: QueryResult| {
            let types: Vec<_> = r.columns.iter().map(ColumnVector::data_type).collect();
            assert!(r.column("v").is_ok());
            (r.names.clone(), types, r.num_rows())
        };
        let expect = shape(oracle(3, 20).execute(sql).unwrap());
        assert_eq!(expect.1.len(), 2, "the plain engine returned {expect:?}");
        for partitions in [1, 3] {
            let e = sharded(partitions, 20);
            assert_eq!(shape(e.execute(sql).unwrap()), expect, "{partitions} partitions");
        }
    }

    #[test]
    fn short_or_mistyped_columns_get_the_engine_error_not_a_panic() {
        let e = ShardedEngine::with_shards(config(3), 3);
        e.execute("CREATE TABLE t (v FLOAT, id INT)").unwrap();
        e.declare_sharded("t", "id").unwrap();
        let o = Engine::with_defaults();
        o.execute("CREATE TABLE t (v FLOAT, id INT)").unwrap();
        for cols in [
            vec![ColumnVector::Float(vec![1.0])],
            vec![ColumnVector::Int(vec![1]), ColumnVector::Int(vec![1])],
        ] {
            let want = o.insert_columns("t", cols.clone()).unwrap_err().to_string();
            let got = e.insert_columns("t", cols).unwrap_err().to_string();
            assert_eq!(got, want);
        }
        assert_eq!(e.execute("SELECT COUNT(*) AS n FROM t").unwrap().row(0), vec![Value::Int(0)]);
    }

    #[test]
    fn open_refuses_a_root_of_the_multi_engine_layout() {
        let root = std::env::temp_dir().join(format!("idb-shard-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("shard-0")).unwrap();
        std::fs::write(root.join("sharding.kv"), "t=id\n").unwrap();
        let cfg = EngineConfig { data_dir: Some(root.to_str().unwrap().into()), ..config(2) };
        let err = ShardedEngine::open(cfg).err().expect("the old layout must be refused");
        assert!(
            matches!(&err, EngineError::Io(m) if m.contains("multi-engine shard layout")),
            "{err}"
        );
        assert!(!root.join("wal.log").exists(), "nothing was opened or created");
        let _ = std::fs::remove_dir_all(&root);
    }
}
