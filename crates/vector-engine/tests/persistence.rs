//! Persistent-mode integration tests: durability across reopen,
//! checkpointing, snapshot visibility, and equivalence with the
//! in-memory engine.

use vector_engine::{ColumnVector, Engine, EngineConfig, EngineError, Value};

fn tmp_dir(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("idb-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().unwrap().to_string()
}

fn persistent_config(dir: &str) -> EngineConfig {
    EngineConfig {
        vector_size: 8,
        partitions: 3,
        parallelism: 2,
        data_dir: Some(dir.to_string()),
        buffer_pool_pages: 16,
        // Keep unit tests fast; the crash proptests exercise fsync=true.
        wal_fsync: false,
        ..Default::default()
    }
}

/// Every batch of every table, flattened to rows of values — the
/// bit-identity comparison basis.
fn table_rows(e: &Engine, table: &str) -> Vec<Vec<Value>> {
    let t = e.table(table).unwrap();
    let mut rows = Vec::new();
    for batch in t.all_batches().unwrap() {
        for r in 0..batch.num_rows() {
            rows.push((0..batch.num_columns()).map(|c| batch.column(c).value(r)).collect());
        }
    }
    rows
}

#[test]
fn ddl_dml_survive_reopen_via_wal_replay() {
    let dir = tmp_dir("reopen");
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)").unwrap();
        e.execute("CREATE TABLE gone (x INT)").unwrap();
        e.execute("DROP TABLE gone").unwrap();
    }
    let e = Engine::open(persistent_config(&dir)).unwrap();
    let q = e.execute("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(q.num_rows(), 3);
    assert_eq!(q.row(2), vec![Value::Int(3), Value::Float(2.5)]);
    assert!(e.table("gone").is_err(), "dropped table stays dropped after replay");
}

#[test]
fn checkpoint_truncates_wal_and_reopen_reads_directory() {
    let dir = tmp_dir("checkpoint");
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (10), (20), (30)").unwrap();
        assert!(e.wal_size().unwrap() > 0);
        e.checkpoint().unwrap();
        assert_eq!(e.wal_size().unwrap(), 0, "checkpoint truncates the WAL");
        // Post-checkpoint DML lands in the (fresh) WAL.
        e.execute("INSERT INTO t VALUES (40)").unwrap();
        assert!(e.wal_size().unwrap() > 0);
    }
    let e = Engine::open(persistent_config(&dir)).unwrap();
    let q = e.execute("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(q.rows(), vec![vec![Value::Int(4)]], "directory + WAL tail both recovered");
}

#[test]
fn recovered_engine_is_bit_identical_to_in_memory_oracle() {
    let dir = tmp_dir("oracle");
    let statements = [
        "CREATE TABLE t (id INT, name VARCHAR, w FLOAT, ok BOOL)",
        "INSERT INTO t VALUES (1, 'a', 0.25, TRUE), (2, 'b', -1.5, FALSE)",
        "INSERT INTO t VALUES (3, 'c', 2.0, TRUE)",
        "INSERT INTO t VALUES (4, 'd', 3.0, TRUE), (5, 'e', 4.0, FALSE), (6, 'f', 5.0, TRUE)",
    ];
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        for s in &statements {
            e.execute(s).unwrap();
        }
        e.table("t").unwrap().declare_unique("id").unwrap();
    }
    // Recover (WAL replay from scratch) and compare physical layout
    // against an in-memory engine that ran the same statements.
    let recovered = Engine::open(persistent_config(&dir)).unwrap();
    let oracle = Engine::new(EngineConfig { data_dir: None, ..persistent_config(&dir) });
    for s in &statements {
        oracle.execute(s).unwrap();
    }
    oracle.table("t").unwrap().declare_unique("id").unwrap();

    // Same rows in the same block order = same physical layout.
    assert_eq!(table_rows(&recovered, "t"), table_rows(&oracle, "t"));
    let rt = recovered.table("t").unwrap();
    assert!(rt.is_unique_column(0), "unique declaration recovered from the WAL");
    assert_eq!(rt.partition_count(), 3);
}

#[test]
fn layout_from_creation_time_wins_over_changed_config() {
    let dir = tmp_dir("layout");
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2), (3), (4)").unwrap();
    }
    // Reopen with different partitioning knobs: the recovered table must
    // keep its creation-time layout.
    let mut cfg = persistent_config(&dir);
    cfg.partitions = 7;
    cfg.vector_size = 2;
    let e = Engine::open(cfg).unwrap();
    let t = e.table("t").unwrap();
    assert_eq!(t.partition_count(), 3, "creation-time partitions recovered");
    assert_eq!(t.row_count(), 4);
}

#[test]
fn snapshot_pins_scan_against_concurrent_appends() {
    let e = Engine::new(EngineConfig { vector_size: 4, partitions: 2, ..Default::default() });
    e.execute("CREATE TABLE t (id INT)").unwrap();
    e.insert_columns("t", vec![ColumnVector::Int((0..16).collect())]).unwrap();
    let mut scan = e.scan_table("t").unwrap();
    // Read one batch, append more rows, then drain: the scan's snapshot
    // must hide the new blocks.
    let first = scan.next().unwrap().unwrap();
    e.insert_columns("t", vec![ColumnVector::Int((100..132).collect())]).unwrap();
    let mut seen = first.num_rows();
    while let Some(b) = scan.next().unwrap() {
        assert!(b.column(0).as_int().unwrap().iter().all(|&v| v < 100));
        seen += b.num_rows();
    }
    assert_eq!(seen, 16, "exactly the snapshot's rows, none of the appended ones");
    // A new scan sees everything.
    let q = e.execute("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(q.rows(), vec![vec![Value::Int(48)]]);
}

#[test]
fn persistent_queries_match_in_memory_results() {
    let dir = tmp_dir("query-parity");
    let p = Engine::open(persistent_config(&dir)).unwrap();
    let m = Engine::new(EngineConfig { data_dir: None, ..persistent_config(&dir) });
    for e in [&p, &m] {
        e.execute("CREATE TABLE f (g INT, v FLOAT)").unwrap();
        let g: Vec<i64> = (0..200).map(|i| i % 5).collect();
        let v: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        e.insert_columns("f", vec![ColumnVector::Int(g.clone()), ColumnVector::Float(v.clone())])
            .unwrap();
    }
    let sql = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM f WHERE v >= 10 GROUP BY g ORDER BY g";
    assert_eq!(p.execute(sql).unwrap().rows(), m.execute(sql).unwrap().rows());
}

#[test]
fn torn_directory_is_rejected_not_misread() {
    let dir = tmp_dir("torn-dir");
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        e.checkpoint().unwrap();
    }
    // Truncate the directory mid-file: open must fail loudly.
    let path = std::path::Path::new(&dir).join("directory.bin");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(Engine::open(persistent_config(&dir)).is_err());
}

#[test]
fn corrupt_page_fails_only_the_queries_that_read_it() {
    let dir = tmp_dir("corrupt-page");
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        e.execute("CREATE TABLE f (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
        // Column ck holds 1000·k + row, so each column's bytes are distinct.
        let col = |k: f64| ColumnVector::Float((0..64).map(|i| 1000.0 * k + i as f64).collect());
        let id = ColumnVector::Int((0..64).collect());
        e.insert_columns("f", vec![id, col(0.0), col(1.0), col(2.0), col(3.0)]).unwrap();
        e.checkpoint().unwrap();
    }
    // Flip one byte of the value 3000.0, inside a page of column c3.
    let path = std::path::Path::new(&dir).join("data.idb");
    let mut data = std::fs::read(&path).unwrap();
    let needle = 3000.0f64.to_le_bytes();
    let at = data.windows(8).position(|w| w == needle).expect("a c3 page");
    data[at] ^= 0x01;
    std::fs::write(&path, &data).unwrap();

    let e = Engine::open(persistent_config(&dir)).unwrap();
    let sum_c0 = e.execute("SELECT SUM(c0) FROM f").unwrap();
    assert_eq!(sum_c0.rows(), vec![vec![Value::Float(2016.0)]], "c0's pages are intact");
    for sql in ["SELECT SUM(c3) FROM f", "SELECT SUM(c0) FROM f WHERE c3 >= 0"] {
        let r = e.execute(sql);
        assert!(matches!(r, Err(EngineError::Io(ref m)) if m.contains("checksum")), "{sql}: {r:?}");
    }
}

#[test]
fn hand_edited_directory_chunk_is_an_error_not_an_abort() {
    let dir = tmp_dir("edited-dir");
    {
        let e = Engine::open(persistent_config(&dir)).unwrap();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        e.checkpoint().unwrap();
    }
    let path = std::path::Path::new(&dir).join("directory.bin");
    let clean = std::fs::read(&path).unwrap();
    // The table's one chunk as the directory encodes it: first page 0,
    // 1 page, 21 bytes (type tag, length, two INTs), 2 rows.
    let chunk =
        [&0u64.to_le_bytes()[..], &1u32.to_le_bytes(), &21u64.to_le_bytes(), &2u32.to_le_bytes()]
            .concat();
    let at = clean.windows(chunk.len()).position(|w| w == chunk).expect("chunk in directory");
    // Set the top bit of the first page, the page count, the byte count.
    for top_byte in [7, 11, 19] {
        let mut edited = clean.clone();
        edited[at + top_byte] |= 0x80;
        std::fs::write(&path, &edited).unwrap();
        match Engine::open(persistent_config(&dir)) {
            Err(EngineError::Io(_)) => {}
            Ok(e) => {
                let r = e.execute("SELECT SUM(id) FROM t");
                assert!(matches!(r, Err(EngineError::Io(_))), "byte {top_byte}: {r:?}");
            }
            Err(other) => panic!("byte {top_byte}: expected an I/O error, got {other}"),
        }
    }
    std::fs::write(&path, &clean).unwrap();
    let e = Engine::open(persistent_config(&dir)).unwrap();
    assert_eq!(e.execute("SELECT SUM(id) FROM t").unwrap().rows(), vec![vec![Value::Int(3)]]);
}
