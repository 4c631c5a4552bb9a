//! The placement oracle. A table hash-placed on a key — what declaring it
//! "sharded" does — and its round-robin twin must return the same result
//! bits at partitions {1, 4, 12} × parallelism {1, 2}: point lookups,
//! GROUP BY the key and off it, key-aligned and misaligned joins, global
//! aggregates, ORDER BY / LIMIT, a cross join of two hash-placed tables,
//! and `PREDICT`, over skewed keys. Rows are compared sorted unless the
//! statement fixes their order.
//!
//! Float payloads are dyadic (k/64, exact in binary), so sums are exact in
//! f64 whatever order partitions and morsels fold them in, and the
//! comparison is *bitwise*, not approximate.

use vector_engine::exec::hash::hash_value;
use vector_engine::exec::parallel::common_pin;
use vector_engine::{ColumnVector, Engine, EngineConfig, QueryResult, Value};

/// (partitions, parallelism) cells.
const LAYOUTS: [(usize, usize); 6] = [(1, 1), (1, 2), (4, 1), (4, 2), (12, 1), (12, 2)];

fn config(partitions: usize, parallelism: usize) -> EngineConfig {
    EngineConfig { vector_size: 16, partitions, parallelism, ..Default::default() }
}

/// Split-mix style generator so all columns derive from one seed.
fn lcg(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

/// Keys in `0..domain` where a `skew`-percent slice of rows collapses onto
/// the hot key 7.
fn skewed_keys(n: usize, domain: u64, skew: u32, seed: u64) -> Vec<i64> {
    (0..n)
        .map(|i| {
            let r = lcg(seed, i);
            if r % 100 < skew as u64 {
                7
            } else {
                ((r >> 8) % domain) as i64
            }
        })
        .collect()
}

/// Exact dyadic values in [-8, 8).
fn dyadic(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|i| (lcg(seed, i) % 1024) as f64 / 64.0 - 8.0).collect()
}

/// `facts (id, grp, v)`, with skewed ids, and `dims (id, w)` of 5 rows,
/// both hash-placed on `id` when `placed`, round-robin otherwise.
fn engine(layout: (usize, usize), placed: bool, n: usize, skew: u32, seed: u64) -> Engine {
    let e = Engine::new(config(layout.0, layout.1));
    e.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT)").unwrap();
    e.execute("CREATE TABLE dims (id INT, w FLOAT)").unwrap();
    if placed {
        for table in ["facts", "dims"] {
            e.table(table).unwrap().declare_placement_key("id").unwrap();
        }
    }
    let facts = vec![
        ColumnVector::Int(skewed_keys(n, 2 * n as u64 + 1, skew, seed)),
        ColumnVector::Int(skewed_keys(n, 10, 0, seed ^ 0xbeef)),
        ColumnVector::Float(dyadic(n, seed ^ 0xdead)),
    ];
    e.insert_columns("facts", facts).unwrap();
    let dims = vec![ColumnVector::Int(vec![7, 0, 1, 2, 3]), ColumnVector::Float(dyadic(5, seed))];
    e.insert_columns("dims", dims).unwrap();
    e
}

fn encode(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Rows with floats by their bits, in result order.
fn rows(r: &QueryResult) -> Vec<Vec<String>> {
    r.rows().iter().map(|row| row.iter().map(encode).collect()).collect()
}

fn sorted(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

/// Run every statement on the hash-placed engine and its round-robin twin
/// in every layout; `ordered` statements fix their row order.
fn check(statements: &[(&str, bool)], n: usize, skew: u32, seed: u64) -> Result<(), String> {
    for layout in LAYOUTS {
        let placed = engine(layout, true, n, skew, seed);
        let twin = engine(layout, false, n, skew, seed);
        for &(sql, ordered) in statements {
            let (got, want) =
                (rows(&placed.execute(sql).unwrap()), rows(&twin.execute(sql).unwrap()));
            let (got, want) = if ordered { (got, want) } else { (sorted(got), sorted(want)) };
            if got != want {
                return Err(format!(
                    "layout {layout:?}: {sql}\n  placed {got:?}\n  round-robin {want:?}"
                ));
            }
        }
    }
    Ok(())
}

proptest::proptest! {
    /// GROUP BY the placement key (split one morsel per partition), off
    /// it, and the global aggregate.
    #[test]
    fn sharded_aggregates_match_oracle_bitwise(
        n in 1usize..150,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
    ) {
        let statements = [
            ("SELECT id, SUM(v) AS s, COUNT(*) AS c FROM facts GROUP BY id", false),
            ("SELECT grp, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS m FROM facts GROUP BY grp", false),
            ("SELECT SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS c FROM facts", false),
            ("SELECT COUNT(*) AS c, SUM(v) AS s FROM facts WHERE id = 7", false),
        ];
        proptest::prop_assert_eq!(check(&statements, n, skew, seed), Ok(()));
    }

    /// Key-aligned joins (a self-join, and two tables placed on the join
    /// key) and a misaligned one.
    #[test]
    fn sharded_joins_match_oracle_bitwise(
        n in 1usize..120,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
    ) {
        let statements = [
            ("SELECT a.id, a.v, b.grp FROM facts AS a, facts AS b WHERE a.id = b.id", false),
            ("SELECT f.id, f.v, d.w FROM facts AS f, dims AS d WHERE f.id = d.id", false),
            (
                "SELECT a.id, b.id, a.v FROM facts AS a, facts AS b \
                 WHERE a.grp = b.grp AND a.v < b.v",
                false,
            ),
            (
                "SELECT a.grp, SUM(b.v) AS s FROM facts AS a, facts AS b \
                 WHERE a.id = b.id GROUP BY a.grp",
                false,
            ),
        ];
        proptest::prop_assert_eq!(check(&statements, n, skew, seed), Ok(()));
    }

    /// Point queries, present and absent keys alike, pin one partition and
    /// return the round-robin twin's rows.
    #[test]
    fn routed_point_queries_match_oracle(
        n in 1usize..150,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
        probe in 0i64..300,
    ) {
        let sql = format!("SELECT id, grp, v FROM facts WHERE id = {probe}");
        for (partitions, parallelism) in LAYOUTS {
            let placed = engine((partitions, parallelism), true, n, skew, seed);
            let owner = (hash_value(&Value::Int(probe)) % partitions as u64) as usize;
            proptest::prop_assert_eq!(common_pin(&placed.plan(&sql).unwrap(), None), Some(owner));
        }
        proptest::prop_assert_eq!(check(&[(&sql, false)], n, skew, seed), Ok(()));
    }

    /// ORDER BY / LIMIT over every output column (ties are equal rows), and
    /// a cross join of the two hash-placed tables.
    #[test]
    fn ordered_limits_and_cross_joins_match_oracle(
        n in 1usize..100,
        skew in 0u32..100,
        seed in 0u64..1_000_000,
    ) {
        let statements = [
            ("SELECT id, grp, v FROM facts ORDER BY v DESC, id, grp LIMIT 10", true),
            ("SELECT grp, COUNT(*) AS c FROM facts GROUP BY grp ORDER BY grp", true),
            ("SELECT f.id, f.v, d.id, d.w FROM facts AS f, dims AS d", false),
        ];
        proptest::prop_assert_eq!(check(&statements, n, skew, seed), Ok(()));
    }
}

mod model_join {
    use super::*;
    use model_repr::{load_into_engine, Layout};
    use modeljoin::register_model;
    use obs::metrics as om;
    use tensor::Device;

    const PREDICT: &str = "SELECT id, prediction FROM PREDICT(m, facts, c0, c1, c2, c3)";

    /// `facts (id, c0..c3)` with skewed ids, hash-placed on `id` when
    /// `placed`, and the model loaded as `m` and registered as `m`.
    fn engine(
        config: EngineConfig,
        placed: bool,
        n: usize,
        seed: u64,
        model: &nn::Model,
    ) -> Engine {
        let e = Engine::new(config);
        e.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
        if placed {
            e.table("facts").unwrap().declare_placement_key("id").unwrap();
        }
        let mut cols = vec![ColumnVector::Int(skewed_keys(n, n as u64, 30, seed))];
        cols.extend((0..4).map(|c| ColumnVector::Float(dyadic(n, seed ^ (c + 1)))));
        e.insert_columns("facts", cols).unwrap();
        let (_, meta) = load_into_engine(&e, "m", model, Layout::NodeId).unwrap();
        register_model(&e, "m", "m", meta, Layout::NodeId, Device::cpu());
        e
    }

    proptest::proptest! {
        /// `PREDICT` over the hash-placed table — whole, and pinned to one
        /// partition by `WHERE id = k` — gives the round-robin twin's bits,
        /// in fp32 and int8. A repeated statement builds nothing. The build
        /// counter is process-global; no other test in this binary builds
        /// a model.
        #[test]
        fn sharded_model_join_matches_oracle_bitwise(
            n in 1usize..80,
            seed in 0u64..1_000_000,
            model_seed in 1u64..500,
        ) {
            let model = nn::paper::dense_model(4, 2, model_seed);
            let key = (n / 2) as i64;
            let point = format!("{PREDICT} WHERE id = {key}");
            for quantized in [false, true] {
                for (partitions, parallelism) in LAYOUTS {
                    let config = EngineConfig {
                        quantized_inference: quantized,
                        ..super::config(partitions, parallelism)
                    };
                    let case = format!("partitions={partitions} parallelism={parallelism} \
                                        int8={quantized}");
                    let placed = engine(config.clone(), true, n, seed, &model);
                    let twin = engine(config, false, n, seed, &model);
                    for sql in [PREDICT, point.as_str()] {
                        proptest::prop_assert_eq!(
                            sorted(rows(&placed.execute(sql).unwrap())),
                            sorted(rows(&twin.execute(sql).unwrap())),
                            "{}: {}", case, sql
                        );
                    }
                    let owner = (hash_value(&Value::Int(key)) % partitions as u64) as usize;
                    proptest::prop_assert_eq!(
                        common_pin(&placed.plan(&point).unwrap(), None), Some(owner), "{}", case
                    );
                    let builds = om::MODELJOIN_BUILD_COUNT.get();
                    placed.execute(PREDICT).unwrap();
                    proptest::prop_assert_eq!(
                        om::MODELJOIN_BUILD_COUNT.get(), builds, "{}: a repeat builds nothing", case
                    );
                }
            }
        }
    }
}
