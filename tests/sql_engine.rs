//! Integration tests of the SQL substrate spanning parser → planner →
//! optimizer → vectorized execution, with the query shapes the ModelJoin
//! workload leans on.

mod common;

use common::assert_matches_unoptimized;
use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

fn engine() -> Engine {
    engine_with(EngineConfig {
        vector_size: 8,
        partitions: 3,
        parallelism: 2,
        ..Default::default()
    })
}

/// An engine holding `facts (id, grp, v)`: 100 rows, `id` declared unique.
fn engine_with(config: EngineConfig) -> Engine {
    let e = Engine::new(config);
    e.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT)").unwrap();
    let n = 100i64;
    e.insert_columns(
        "facts",
        vec![
            ColumnVector::Int((0..n).collect()),
            ColumnVector::Int((0..n).map(|i| i % 10).collect()),
            ColumnVector::Float((0..n).map(|i| i as f64 / 10.0).collect()),
        ],
    )
    .unwrap();
    e.table("facts").unwrap().declare_unique("id").unwrap();
    e
}

#[test]
fn nested_subquery_with_aggregation_and_join() {
    let e = engine();
    // The ML-To-SQL skeleton: cross join + filter + group + nested reuse.
    let q = e
        .execute(
            "SELECT outer_q.grp, outer_q.s FROM \
             (SELECT grp, SUM(v) AS s FROM facts GROUP BY grp) AS outer_q \
             WHERE outer_q.s > 40 ORDER BY outer_q.grp",
        )
        .unwrap();
    // groups 0..9; group g has sum over v = (g + g+10 + ... + g+90)/10.
    assert!(q.num_rows() > 0);
    for row in q.rows() {
        assert!(row[1].as_f64().unwrap() > 40.0);
    }
}

#[test]
fn self_join_windowing_shape() {
    let e = engine();
    let q = e
        .execute(
            "SELECT a.id, a.v, b.v AS nxt FROM facts a, facts b \
             WHERE b.id = a.id + 1 ORDER BY a.id LIMIT 3",
        )
        .unwrap();
    assert_eq!(q.num_rows(), 3);
    let rows = q.rows();
    assert_eq!(rows[0][0], Value::Int(0));
    assert!((rows[0][2].as_f64().unwrap() - 0.1).abs() < 1e-12);
}

#[test]
fn case_when_column_switch() {
    let e = engine();
    let q = e
        .execute(
            "SELECT id, CASE WHEN grp = 0 THEN v WHEN grp = 1 THEN v * 10 ELSE 0.0 END AS x \
             FROM facts WHERE id < 3 ORDER BY id",
        )
        .unwrap();
    let rows = q.rows();
    assert_eq!(rows[0][1].as_f64().unwrap(), 0.0); // grp 0 -> v = 0.0
    assert!((rows[1][1].as_f64().unwrap() - 1.0).abs() < 1e-12); // grp 1 -> 0.1*10
    assert_eq!(rows[2][1].as_f64().unwrap(), 0.0); // grp 2 -> ELSE
}

/// The partition × parallelism layouts the unoptimized-plan oracle runs
/// at: one partition and three, serial and split into morsels.
fn layouts() -> impl Iterator<Item = EngineConfig> {
    [(1, 1), (1, 2), (3, 1), (3, 2)].into_iter().map(|(partitions, parallelism)| EngineConfig {
        vector_size: 8,
        partitions,
        parallelism,
        ..Default::default()
    })
}

/// `facts` as in [`engine_with`], plus `t (k, v)` of 200 rows, a
/// model-shaped `m (node, v)` of 12 rows and `h (k, v)` placed by
/// `hash(k)` with 20 rows per key. Floats step by 0.1, so sums depend on
/// their order.
fn oracle_engine(config: EngineConfig) -> Engine {
    let e = engine_with(config);
    for (table, key, n) in [("t", "k", 200), ("m", "node", 12), ("h", "k", 200)] {
        e.execute(&format!("CREATE TABLE {table} ({key} INT, v FLOAT)")).unwrap();
        if table == "h" {
            e.table("h").unwrap().declare_placement_key("k").unwrap();
        }
        let keys = (0..n).map(|i| if table == "h" { i % 10 } else { i });
        let floats = (0..n).map(|i| i as f64 * 0.1);
        e.insert_columns(
            table,
            vec![ColumnVector::Int(keys.collect()), ColumnVector::Float(floats.collect())],
        )
        .unwrap();
    }
    e
}

#[test]
fn sma_pruning_does_not_change_results() {
    let sql = "SELECT SUM(v) AS s, COUNT(*) AS n FROM t WHERE k >= 50 AND k <= 60";
    for config in layouts() {
        let e = oracle_engine(config);
        assert!(e.plan(sql).unwrap().display_indent().contains("2 pruning predicate(s)"));
        assert_eq!(assert_matches_unoptimized(&e, sql).rows()[0][1], Value::Int(11));
    }
}

#[test]
fn hash_join_extraction_matches_cross_join_semantics() {
    let sql = "SELECT a.id, b.id FROM facts a, facts b \
               WHERE a.id = b.id - 1 AND a.id < 5 ORDER BY 1";
    for config in layouts() {
        let e = oracle_engine(config);
        let plan = e.plan(sql).unwrap().display_indent();
        assert!(plan.contains("HashJoin") && !plan.contains("CrossJoin"), "{plan}");
        assert_eq!(assert_matches_unoptimized(&e, sql).num_rows(), 5);
    }
}

/// Every rewrite against the binder's unoptimized plan, bit for bit, at
/// every layout: (case, statement, rows in the answer).
#[test]
fn rewrites_match_the_unoptimized_plan() {
    let cases = [
        ("pruning range", "SELECT k, v FROM t WHERE k > 180 AND k <= 190 ORDER BY k", 10),
        (
            "key pin on a hash-placed table",
            "SELECT k, SUM(v) AS s FROM h WHERE k = 7 GROUP BY k",
            1,
        ),
        (
            "comma equi-join",
            "SELECT f.id, m.v FROM facts f, m WHERE f.grp = m.node ORDER BY f.id",
            100,
        ),
        ("computed-key join", "SELECT t.k, m.v FROM t, m WHERE t.k = m.node - 3 ORDER BY t.k", 9),
        (
            "filter through a subquery projection",
            "SELECT q.s FROM (SELECT id, v * 2 AS s FROM facts) AS q WHERE q.s > 15 ORDER BY q.s",
            24,
        ),
        (
            "non-key GROUP BY",
            "SELECT grp, SUM(v) AS s, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp",
            10,
        ),
    ];
    for config in layouts() {
        let layout = format!("{} partitions x {}", config.partitions, config.parallelism);
        let e = oracle_engine(config);
        for (case, sql, rows) in cases {
            let got = assert_matches_unoptimized(&e, sql);
            assert_eq!(got.num_rows(), rows, "{case} at {layout}: {sql}");
        }
    }
}

#[test]
fn order_by_limit_across_partitions() {
    let e = engine();
    let q = e.execute("SELECT id FROM facts ORDER BY id DESC LIMIT 4").unwrap();
    let ids: Vec<Value> = q.rows().into_iter().map(|mut r| r.remove(0)).collect();
    assert_eq!(ids, vec![Value::Int(99), Value::Int(98), Value::Int(97), Value::Int(96)]);
}

#[test]
fn arithmetic_and_functions_compose() {
    let e = engine();
    let q = e
        .execute(
            "SELECT ABS(-v) AS a, SQRT(v * v) AS s, POWER(2.0, grp) AS p \
             FROM facts WHERE id = 35",
        )
        .unwrap();
    let row = q.rows().remove(0);
    assert!((row[0].as_f64().unwrap() - 3.5).abs() < 1e-12);
    assert!((row[1].as_f64().unwrap() - 3.5).abs() < 1e-12);
    assert!((row[2].as_f64().unwrap() - 32.0).abs() < 1e-12); // grp = 5
}

#[test]
fn insert_select_round_trip_through_sql_only() {
    let e = Engine::new(EngineConfig::test_small());
    e.execute("CREATE TABLE t (a INT, b VARCHAR, c BOOLEAN)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 'x', TRUE), (2, 'y', FALSE)").unwrap();
    let q = e.execute("SELECT a, b FROM t WHERE c ORDER BY a").unwrap();
    assert_eq!(q.rows(), vec![vec![Value::Int(1), Value::Str("x".into())]]);
}

#[test]
fn error_paths_surface_cleanly() {
    let e = engine();
    assert!(e.execute("SELECT nosuch FROM facts").is_err());
    assert!(e.execute("SELECT * FROM nosuch").is_err());
    assert!(e.execute("SELECT id FROM facts WHERE v").is_err()); // non-bool? v is FLOAT
    assert!(e.execute("SELECT SUM(b) FROM facts").is_err()); // no column b
    assert!(e.execute("CREATE TABLE facts (x INT)").is_err()); // duplicate
    assert!(e.execute("SELEC 1").is_err());
}

#[test]
fn large_multi_batch_aggregation_is_exact() {
    let e = Engine::new(EngineConfig::default());
    e.execute("CREATE TABLE big (id INT, v FLOAT)").unwrap();
    let n = 50_000i64;
    e.insert_columns(
        "big",
        vec![ColumnVector::Int((0..n).collect()), ColumnVector::Float(vec![1.0; n as usize])],
    )
    .unwrap();
    let q = e.execute("SELECT SUM(v) AS s, COUNT(*) AS c FROM big").unwrap();
    assert_eq!(q.rows(), vec![vec![Value::Float(50_000.0), Value::Int(50_000)]]);
}
