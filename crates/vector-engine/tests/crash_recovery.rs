//! Crash-recovery property tests: truncate the WAL at an arbitrary byte
//! offset (a simulated crash mid-write), recover, and require the
//! engine to be bit-identical to an in-memory oracle that executed
//! exactly the committed prefix of the workload's statements.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("idb-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> EngineConfig {
    EngineConfig {
        vector_size: 4,
        partitions: 3,
        parallelism: 1,
        data_dir: Some(dir.to_str().unwrap().to_string()),
        buffer_pool_pages: 8,
        wal_fsync: false, // crash = file truncation here, not power loss
        ..Default::default()
    }
}

/// All rows of `t`, in physical (partition, block) order.
fn physical_rows(e: &Engine) -> Vec<Vec<Value>> {
    let t = e.table("t").unwrap();
    let mut rows = Vec::new();
    for batch in t.all_batches().unwrap() {
        for r in 0..batch.num_rows() {
            rows.push((0..batch.num_columns()).map(|c| batch.column(c).value(r)).collect());
        }
    }
    rows
}

/// Run `sizes` as a statement workload (CREATE, then one multi-row
/// append per entry), checkpointing after statement `ck` when in range.
/// Returns, per statement, the WAL end offset after it ran and whether a
/// later checkpoint made it durable independent of the WAL.
fn run_workload(e: &Engine, sizes: &[usize], ck: usize) -> Vec<(u64, bool)> {
    run_checkpointed_workload(e, sizes, &[ck])
}

/// [`run_workload`] with a checkpoint after each statement in `cks`.
fn run_checkpointed_workload(e: &Engine, sizes: &[usize], cks: &[usize]) -> Vec<(u64, bool)> {
    let mut log = Vec::new();
    e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    log.push((e.wal_size().unwrap(), false));
    let mut next_id = 0i64;
    for (i, &n) in sizes.iter().enumerate() {
        let ids: Vec<i64> = (next_id..next_id + n as i64).collect();
        let vs: Vec<f64> = ids.iter().map(|&x| x as f64 * 0.25).collect();
        next_id += n as i64;
        e.insert_columns("t", vec![ColumnVector::Int(ids), ColumnVector::Float(vs)]).unwrap();
        log.push((e.wal_size().unwrap(), false));
        if cks.contains(&i) {
            e.checkpoint().unwrap();
            // Everything so far is now durable via the directory.
            for entry in log.iter_mut() {
                entry.1 = true;
            }
        }
    }
    log
}

/// The oracle: an in-memory engine that executes exactly the first
/// `committed` statements of the same workload.
fn oracle(sizes: &[usize], committed: usize, base: &EngineConfig) -> Engine {
    let e = Engine::new(EngineConfig { data_dir: None, ..base.clone() });
    if committed == 0 {
        return e;
    }
    e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    let mut next_id = 0i64;
    for &n in sizes.iter().take(committed - 1) {
        let ids: Vec<i64> = (next_id..next_id + n as i64).collect();
        let vs: Vec<f64> = ids.iter().map(|&x| x as f64 * 0.25).collect();
        next_id += n as i64;
        e.insert_columns("t", vec![ColumnVector::Int(ids), ColumnVector::Float(vs)]).unwrap();
    }
    e
}

proptest! {
    // Truncating the WAL anywhere must recover a committed prefix of the
    // statement history, bit-identical (same rows in the same physical
    // block order) to an in-memory engine that ran just that prefix.
    #[test]
    fn wal_truncation_recovers_a_committed_prefix(
        sizes in proptest::collection::vec(1usize..12, 1..8),
        ck in 0usize..20,
        cut_seed in 0u64..1_000_000,
    ) {
        let dir = fresh_dir("prefix");
        let cfg = config(&dir);
        let log = {
            let e = Engine::open(cfg.clone()).unwrap();
            run_workload(&e, &sizes, ck)
        };
        // Crash: truncate the WAL at an arbitrary offset.
        let wal_path = dir.join("wal.log");
        let wal_len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = cut_seed % (wal_len + 1);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..cut as usize]).unwrap();

        // A statement survives if a checkpoint made it durable or its
        // commit marker landed at or before the cut. Durability is
        // prefix-closed, so the survivor count is the committed prefix.
        let committed = log.iter().filter(|(end, ckpt)| *ckpt || *end <= cut).count();

        let recovered = Engine::open(cfg.clone()).unwrap();
        let reference = oracle(&sizes, committed, &cfg);
        if committed == 0 {
            prop_assert!(recovered.table("t").is_err());
        } else {
            prop_assert_eq!(physical_rows(&recovered), physical_rows(&reference));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    // Two checkpoints with appends between and after them: the first
    // pages out short last blocks, the appends top those paged blocks up
    // (the directory still names their pages, which the second checkpoint
    // frees), and the second pages out the new short blocks that the last
    // appends top up again before the cut. Recovery decodes paged short
    // blocks to top them up again, and must still match the oracle.
    #[test]
    fn wal_truncation_after_two_checkpoints_recovers_a_committed_prefix(
        sizes in proptest::collection::vec(1usize..12, 3..10),
        first in 0usize..4,
        gap in 1usize..4,
        cut_seed in 0u64..1_000_000,
    ) {
        let dir = fresh_dir("two-checkpoints");
        let cfg = config(&dir);
        let log = {
            let e = Engine::open(cfg.clone()).unwrap();
            run_checkpointed_workload(&e, &sizes, &[first, first + gap])
        };
        let wal_path = dir.join("wal.log");
        let wal_len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = cut_seed % (wal_len + 1);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..cut as usize]).unwrap();

        let committed = log.iter().filter(|(end, ckpt)| *ckpt || *end <= cut).count();
        let recovered = Engine::open(cfg.clone()).unwrap();
        prop_assert_eq!(physical_rows(&recovered), physical_rows(&oracle(&sizes, committed, &cfg)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    // Group the appends into BEGIN..COMMIT transactions and truncate the
    // WAL at an arbitrary offset — possibly inside an open group, whose
    // records carry no commit marker. Recovery must land exactly on the
    // state as of the last COMMIT whose marker survived the cut:
    // transactions are all-or-nothing across a crash.
    #[test]
    fn wal_cut_inside_a_transaction_recovers_to_the_last_commit(
        groups in proptest::collection::vec(
            proptest::collection::vec(1usize..8, 1..4), 1..5),
        cut_seed in 0u64..1_000_000,
    ) {
        let dir = fresh_dir("txn");
        let cfg = config(&dir);
        // WAL end offset after each durability point (the CREATE's own
        // commit, then each transaction's COMMIT).
        let mut ends = Vec::new();
        {
            let e = Engine::open(cfg.clone()).unwrap();
            e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
            ends.push(e.wal_size().unwrap());
            let mut next_id = 0i64;
            for g in &groups {
                e.execute("BEGIN").unwrap();
                for &n in g {
                    let ids: Vec<i64> = (next_id..next_id + n as i64).collect();
                    let vs: Vec<f64> = ids.iter().map(|&x| x as f64 * 0.25).collect();
                    next_id += n as i64;
                    e.insert_columns(
                        "t",
                        vec![ColumnVector::Int(ids), ColumnVector::Float(vs)],
                    ).unwrap();
                }
                e.execute("COMMIT").unwrap();
                ends.push(e.wal_size().unwrap());
            }
        }
        let wal_path = dir.join("wal.log");
        let wal_len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = cut_seed % (wal_len + 1);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..cut as usize]).unwrap();

        // A whole transaction survives iff its COMMIT marker landed at
        // or before the cut; a cut inside a group drops the entire group.
        let committed = ends.iter().filter(|&&end| end <= cut).count();

        let recovered = Engine::open(cfg.clone()).unwrap();
        let reference = {
            let e = Engine::new(EngineConfig { data_dir: None, ..cfg.clone() });
            if committed >= 1 {
                e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
                let mut next_id = 0i64;
                for g in groups.iter().take(committed - 1) {
                    for &n in g {
                        let ids: Vec<i64> = (next_id..next_id + n as i64).collect();
                        let vs: Vec<f64> = ids.iter().map(|&x| x as f64 * 0.25).collect();
                        next_id += n as i64;
                        e.insert_columns(
                            "t",
                            vec![ColumnVector::Int(ids), ColumnVector::Float(vs)],
                        ).unwrap();
                    }
                }
            }
            e
        };
        if committed == 0 {
            prop_assert!(recovered.table("t").is_err());
        } else {
            prop_assert_eq!(physical_rows(&recovered), physical_rows(&reference));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn rollback_then_crash_recovers_only_the_surrounding_commits() {
    let dir = fresh_dir("rollback-crash");
    let cfg = config(&dir);
    {
        let e = Engine::open(cfg.clone()).unwrap();
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.insert_columns(
            "t",
            vec![ColumnVector::Int(vec![1, 2]), ColumnVector::Float(vec![0.25, 0.5])],
        )
        .unwrap();
        e.execute("BEGIN").unwrap();
        e.insert_columns(
            "t",
            vec![ColumnVector::Int(vec![90, 91]), ColumnVector::Float(vec![9.0, 9.1])],
        )
        .unwrap();
        e.execute("ROLLBACK").unwrap();
        // Autocommit traffic after the rollback reuses the truncated
        // WAL tail; a crash here must see it, and nothing rolled back.
        e.insert_columns("t", vec![ColumnVector::Int(vec![3]), ColumnVector::Float(vec![0.75])])
            .unwrap();
    }
    let recovered = Engine::open(cfg.clone()).unwrap();
    let reference = {
        let e = Engine::new(EngineConfig { data_dir: None, ..cfg });
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.insert_columns(
            "t",
            vec![ColumnVector::Int(vec![1, 2]), ColumnVector::Float(vec![0.25, 0.5])],
        )
        .unwrap();
        e.insert_columns("t", vec![ColumnVector::Int(vec![3]), ColumnVector::Float(vec![0.75])])
            .unwrap();
        e
    };
    assert_eq!(physical_rows(&recovered), physical_rows(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_wal_byte_cuts_recovery_at_the_torn_record() {
    let dir = fresh_dir("torn-wal");
    let cfg = config(&dir);
    let log = {
        let e = Engine::open(cfg.clone()).unwrap();
        run_workload(&e, &[3, 3, 3], usize::MAX)
    };
    // Flip a byte inside the third statement's record (after the second
    // statement's commit end).
    let wal_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let poke = log[2].0 as usize + 8;
    bytes[poke] ^= 0x10;
    std::fs::write(&wal_path, &bytes).unwrap();

    let recovered = Engine::open(cfg.clone()).unwrap();
    let reference = oracle(&[3, 3, 3], 3, &cfg); // CREATE + two appends
    assert_eq!(physical_rows(&recovered), physical_rows(&reference));
}

#[test]
fn torn_data_page_is_rejected_by_checksum_on_scan() {
    let dir = fresh_dir("torn-page");
    let cfg = config(&dir);
    {
        let e = Engine::open(cfg.clone()).unwrap();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.insert_columns("t", vec![ColumnVector::Int((0..64).collect())]).unwrap();
        e.checkpoint().unwrap();
    }
    // Flip a byte early in page 0's payload (just past the 20-byte page
    // header, inside the encoded column) behind the engine's back.
    let data_path = dir.join("data.idb");
    let mut bytes = std::fs::read(&data_path).unwrap();
    bytes[24] ^= 0x01;
    std::fs::write(&data_path, &bytes).unwrap();

    // Open succeeds (reads are lazy); a scan that materializes the
    // column must surface a storage error, never the corrupted values.
    // (COUNT(*) alone is served from block row counts and reads no pages.)
    let e = Engine::open(cfg).unwrap();
    let err = e.execute("SELECT SUM(id) AS s FROM t").unwrap_err();
    assert!(err.to_string().contains("storage"), "unexpected error: {err}");
}
