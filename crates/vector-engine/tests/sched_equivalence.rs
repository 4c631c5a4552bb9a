//! Equivalence tests pinning the scheduler's morsel execution path to the
//! single-partition serial oracle (`EngineConfig::serial()`, which runs
//! every plan on the calling thread):
//!
//! * a multi-partition engine must agree with the serial engine on every
//!   order-insensitive result (joins, counts, integer sums, grouped rows
//!   after ORDER BY);
//! * tables forced past `MORSEL_ROWS`, so one partition splits into
//!   several morsels, exercise the block-range scan restriction and the
//!   morsel-order partial-aggregation merge.

use vector_engine::column::ColumnVector;
use vector_engine::{Engine, EngineConfig, Value};

/// Split-mix style generator, same idiom as exec_equivalence.
fn lcg(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

/// Load `n` deterministic rows into `facts(id INT, grp INT, v FLOAT, w INT)`.
/// Floats are dyadic so serial sums are exactly reproducible.
fn load_facts(e: &Engine, n: usize, seed: u64) {
    e.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT, w INT)").unwrap();
    let ids: Vec<i64> = (0..n as i64).collect();
    let grps: Vec<i64> = (0..n).map(|i| (lcg(seed, i) % 7) as i64).collect();
    let vs: Vec<f64> = (0..n).map(|i| (lcg(seed ^ 0xabc, i) % 1024) as f64 / 64.0 - 8.0).collect();
    let ws: Vec<i64> = (0..n).map(|i| (lcg(seed ^ 0x55, i) % 2000) as i64 - 1000).collect();
    e.insert_columns(
        "facts",
        vec![
            ColumnVector::Int(ids),
            ColumnVector::Int(grps),
            ColumnVector::Float(vs),
            ColumnVector::Int(ws),
        ],
    )
    .unwrap();
}

fn load_dims(e: &Engine, n: usize, seed: u64) {
    e.execute("CREATE TABLE dims (grp INT, label INT)").unwrap();
    let grps: Vec<i64> = (0..n).map(|i| (lcg(seed ^ 0x31, i) % 9) as i64).collect();
    let labels: Vec<i64> = (0..n as i64).map(|i| i * 100).collect();
    e.insert_columns("dims", vec![ColumnVector::Int(grps), ColumnVector::Int(labels)]).unwrap();
}

/// Canonical row rendering: floats by bit pattern so NaN-free dyadic
/// results compare exactly and rows can be sorted for order-insensitive
/// comparison.
fn canon(rows: Vec<Vec<Value>>) -> Vec<String> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

fn canon_sorted(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut c = canon(rows);
    c.sort();
    c
}

const QUERIES: &[&str] = &[
    "SELECT id, v FROM facts WHERE id % 3 = 0",
    "SELECT grp, COUNT(*) AS n, SUM(w) AS sw, MIN(id) AS lo, MAX(id) AS hi \
     FROM facts GROUP BY grp ORDER BY grp",
    "SELECT grp, SUM(v) AS sv, AVG(v) AS av FROM facts GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) AS n, SUM(w) AS sw FROM facts",
    "SELECT f.id, d.label FROM facts f, dims d WHERE f.grp = d.grp ORDER BY 1, 2",
    "SELECT id FROM facts ORDER BY id DESC LIMIT 10",
];

/// A 4-partition engine agrees with the 1-partition serial oracle.
/// Grouped-float sums may legally reassociate across partition merges, so
/// float queries are restricted to dyadic values (exactly representable;
/// the merge adds partial sums of whole groups in group order on both
/// sides, which for these magnitudes is exact).
#[test]
fn multi_partition_matches_serial_oracle() {
    let parallel = Engine::new(EngineConfig {
        vector_size: 8,
        partitions: 4,
        parallelism: 4,
        ..Default::default()
    });
    let serial = Engine::new(EngineConfig { vector_size: 8, ..EngineConfig::serial() });
    for e in [&parallel, &serial] {
        load_facts(e, 500, 7);
        load_dims(e, 40, 7);
    }
    for q in QUERIES {
        let got = canon_sorted(parallel.execute(q).unwrap().rows());
        let want = canon_sorted(serial.execute(q).unwrap().rows());
        assert_eq!(got, want, "parallel vs serial oracle diverged on {q:?}");
    }
}

/// Push one partition past MORSEL_ROWS (65536) so scans split
/// into block-range morsels within a partition. Integer aggregates are
/// association-free, so the multi-morsel result must equal the serial
/// oracle exactly; the morsel boundaries must not drop, duplicate, or
/// reorder blocks.
#[test]
fn multi_morsel_partitions_match_serial_oracle() {
    const N: usize = 150_000; // 2 partitions × 75k rows → ≥2 morsels each
    let parallel = Engine::new(EngineConfig {
        vector_size: 1024,
        partitions: 2,
        parallelism: 4,
        ..Default::default()
    });
    let serial = Engine::new(EngineConfig::serial());
    for e in [&parallel, &serial] {
        load_facts(e, N, 3);
    }
    let queries = [
        "SELECT COUNT(*) AS n, SUM(w) AS sw, SUM(id) AS si, MIN(id) AS lo, MAX(id) AS hi \
         FROM facts",
        "SELECT grp, COUNT(*) AS n, SUM(w) AS sw FROM facts GROUP BY grp ORDER BY grp",
        "SELECT COUNT(*) AS n FROM facts WHERE id % 10 = 1",
    ];
    for q in &queries {
        let got = parallel.execute(q).unwrap().rows();
        let want = serial.execute(q).unwrap().rows();
        assert_eq!(got, want, "multi-morsel scan diverged from serial oracle on {q:?}");
    }
    // Cross-check the full-count against ground truth, not just the oracle.
    let n = parallel.execute("SELECT COUNT(*) AS n FROM facts").unwrap().rows();
    assert_eq!(n[0][0], Value::Int(N as i64));
}
