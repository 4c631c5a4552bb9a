//! Page accounting for column-pruned scans on a persistent table: a query
//! fetches the pages of exactly the columns it reads, and its answer is
//! bit-identical to the in-memory engine's.
//!
//! The buffer-pool counters are process-global, so this file holds one
//! test: no other test in its binary can move them mid-measurement.

use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

const ROWS: i64 = 1536;
const VECTOR_SIZE: i64 = 64;

fn config(data_dir: Option<String>) -> EngineConfig {
    EngineConfig {
        vector_size: VECTOR_SIZE as usize,
        partitions: 3,
        parallelism: 2,
        data_dir,
        buffer_pool_pages: 64,
        wal_fsync: false,
        ..Default::default()
    }
}

/// Page fetches (pool hits + misses) a query makes, and its rows.
fn fetches(e: &Engine, sql: &str) -> (u64, Vec<Vec<Value>>) {
    let count = || obs::metrics::STORAGE_POOL_HITS.get() + obs::metrics::STORAGE_POOL_MISSES.get();
    let before = count();
    let rows = e.execute(sql).unwrap().rows();
    (count() - before, rows)
}

/// Rows with floats as bit patterns, so equality is bit-identity.
fn bits(rows: &[Vec<Value>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => f.to_bits(),
                    Value::Int(i) => *i as u64,
                    other => panic!("unexpected value {other:?}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn narrowed_scans_fetch_only_their_columns_pages() {
    let dir = std::env::temp_dir().join(format!("idb-scan-pages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paged = Engine::open(config(Some(dir.to_string_lossy().into_owned()))).unwrap();
    let memory = Engine::new(config(None));
    for e in [&paged, &memory] {
        e.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT, c4 FLOAT, c5 FLOAT, c6 FLOAT, c7 FLOAT)")
            .unwrap();
        let mut columns = vec![ColumnVector::Int((0..ROWS).collect())];
        columns.extend((0..8).map(|k| {
            ColumnVector::Float((0..ROWS).map(|i| ((i * 7 + k) % 101) as f64 * 0.1).collect())
        }));
        e.insert_columns("facts", columns).unwrap();
    }
    // Every chunk (64 values of one column) fits one page, so a query
    // reading n columns of every block fetches n pages per block.
    let blocks = paged.table("facts").unwrap().snapshot().iter().sum::<usize>() as u64;
    assert_eq!(blocks, (ROWS / VECTOR_SIZE) as u64);

    // Rows 330..=515 lie in blocks 5..=8; SMA pruning skips the rest.
    let (lo, hi) = (330, 515);
    let range_blocks = (hi / VECTOR_SIZE - lo / VECTOR_SIZE + 1) as u64;
    let cases = [
        ("SELECT COUNT(*), SUM(c0) FROM facts".to_string(), blocks),
        ("SELECT COUNT(*) FROM facts".to_string(), blocks),
        ("SELECT SUM(c3), MAX(c7) FROM facts".to_string(), 2 * blocks),
        (
            format!("SELECT COUNT(*), SUM(c0) FROM facts WHERE id BETWEEN {lo} AND {hi}"),
            2 * range_blocks,
        ),
        ("SELECT * FROM facts".to_string(), 9 * blocks),
    ];
    for (sql, want) in &cases {
        let (pages, rows) = fetches(&paged, sql);
        assert_eq!(pages, *want, "{sql}: page fetches");
        assert_eq!(fetches(&paged, sql).0, pages, "{sql}: the count repeats");
        let oracle = memory.execute(sql).unwrap().rows();
        assert_eq!(bits(&rows), bits(&oracle), "{sql}: paged and in-memory answers differ");
    }
    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);
}
