//! Short last blocks ("tails"): an append tops up its partition's short
//! last block before it starts a new one, so every block of a partition
//! but the last holds `vector_size` rows — in memory and on disk, across
//! checkpoints, reopens and rollbacks. A scan pinned before a top-up reads
//! exactly its snapshot, and the pages a topped-up paged block leaves
//! behind are freed by the next checkpoint.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use vector_engine::exec::physical::Operator;
use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

const VECTOR_SIZE: usize = 4;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("idb-tails-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: Option<&Path>, partitions: usize) -> EngineConfig {
    EngineConfig {
        vector_size: VECTOR_SIZE,
        partitions,
        parallelism: 1,
        data_dir: dir.map(|d| d.to_string_lossy().into_owned()),
        buffer_pool_pages: 8,
        wal_fsync: false,
        ..Default::default()
    }
}

/// `n` rows with ids from `first`: `(id INT, v FLOAT)`, `v` a distinct
/// non-dyadic value per id.
fn rows(first: i64, n: usize) -> Vec<ColumnVector> {
    let ids: Vec<i64> = (first..first + n as i64).collect();
    let vs = ids.iter().map(|&i| i as f64 * 0.1 - 3.0).collect();
    vec![ColumnVector::Int(ids), ColumnVector::Float(vs)]
}

/// Per partition, the rows of each block of `t`.
fn block_shape(e: &Engine) -> Vec<Vec<usize>> {
    let t = e.table("t").unwrap();
    (0..t.partition_count())
        .map(|p| {
            let mut lens = Vec::new();
            t.for_each_block(p, &[0], |b| {
                lens.push(b.num_rows());
                Ok(())
            })
            .unwrap();
            lens
        })
        .collect()
}

/// Every block but a partition's last holds `vector_size` rows, and no
/// block is empty.
fn blocks_are_full(shape: &[Vec<usize>], vector_size: usize) -> bool {
    shape.iter().all(|blocks| match blocks.split_last() {
        Some((last, full)) => {
            full.iter().all(|&n| n == vector_size) && (1..=vector_size).contains(last)
        }
        None => true,
    })
}

/// All rows of `t` in physical (partition, block) order, floats as bits.
fn physical_rows(e: &Engine) -> Vec<(i64, u64)> {
    let mut out = Vec::new();
    for batch in e.table("t").unwrap().all_batches().unwrap() {
        let ids = batch.column(0).as_int().unwrap();
        let vs = batch.column(1).as_float().unwrap();
        out.extend(ids.iter().zip(vs).map(|(&i, v)| (i, v.to_bits())));
    }
    out
}

/// The ids a scan yields from here on.
fn drain_ids(scan: &mut dyn Operator) -> Vec<i64> {
    let mut ids = Vec::new();
    while let Some(batch) = scan.next().unwrap() {
        ids.extend_from_slice(batch.column(0).as_int().unwrap());
    }
    ids
}

/// The three places a short last block can be when an append tops it
/// up: an in-memory table, a persistent table's memory-resident tail, and
/// a tail a checkpoint has paged out.
const CASES: [(&str, bool, bool); 3] = [
    ("in memory", false, false),
    ("persistent", true, false),
    ("persistent, paged tail", true, true),
];

#[test]
fn a_scan_pinned_before_a_top_up_returns_exactly_its_snapshot() {
    for (case, persistent, paged) in CASES {
        let dir = fresh_dir("snapshot");
        let e = Engine::open(config(persistent.then_some(dir.as_path()), 1)).unwrap();
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.insert_columns("t", rows(0, 6)).unwrap();
        if paged {
            e.checkpoint().unwrap();
        }
        assert_eq!(block_shape(&e), vec![vec![4, 2]], "{case}");
        let mut scan = e.scan_table("t").unwrap();
        let first = scan.next().unwrap().unwrap();
        assert_eq!(first.column(0).as_int().unwrap(), &[0, 1, 2, 3], "{case}");
        // The append lands in the block the scan reads next, and fills it.
        e.insert_columns("t", rows(100, 2)).unwrap();
        assert_eq!(block_shape(&e), vec![vec![4, 4]], "{case}: topped up in place");
        assert_eq!(drain_ids(scan.as_mut()), vec![4, 5], "{case}: the snapshot's rows only");
        let all = drain_ids(e.scan_table("t").unwrap().as_mut());
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 100, 101], "{case}: a new scan sees the append");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn rollback_of_a_top_up_restores_the_tail_bit_for_bit() {
    for (case, persistent, paged) in CASES {
        let dir = fresh_dir("rollback");
        let cfg = config(persistent.then_some(dir.as_path()), 1);
        let oracle = Engine::new(config(None, 1));
        let mut e = Engine::open(cfg.clone()).unwrap();
        for engine in [&e, &oracle] {
            engine.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
            engine.insert_columns("t", rows(0, 6)).unwrap();
        }
        if paged {
            e.checkpoint().unwrap();
        }
        let before = (block_shape(&e), physical_rows(&e));
        // Tops up [4, 2] to [4, 4] (a persistent table pages the filled
        // block out) and starts a third block.
        e.execute("BEGIN").unwrap();
        e.insert_columns("t", rows(50, 5)).unwrap();
        assert_eq!(block_shape(&e), vec![vec![4, 4, 3]], "{case}");
        e.execute("ROLLBACK").unwrap();
        assert_eq!((block_shape(&e), physical_rows(&e)), before, "{case}: after ROLLBACK");
        if persistent {
            drop(e);
            e = Engine::open(cfg.clone()).unwrap();
            assert_eq!((block_shape(&e), physical_rows(&e)), before, "{case}: after reopen");
        }
        // The next append lands where it lands on a table that never saw
        // the transaction.
        for engine in [&e, &oracle] {
            engine.insert_columns("t", rows(200, 3)).unwrap();
        }
        assert_eq!(physical_rows(&e), physical_rows(&oracle), "{case}");
        assert_eq!(block_shape(&e), vec![vec![4, 4, 1]], "{case}");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn rollback_reads_no_data_page() {
    // ROLLBACK restores a topped-up tail from the undo log, never from the
    // data file: here the block the transaction filled is evicted and
    // corrupted on disk before ROLLBACK, which still succeeds.
    for paged in [false, true] {
        let case = if paged { "paged tail" } else { "memory-resident tail" };
        let dir = fresh_dir("undo-reads");
        let cfg = config(Some(&dir), 1);
        let mut e = Engine::open(cfg.clone()).unwrap();
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.execute("CREATE TABLE pad (x INT)").unwrap();
        e.insert_columns("t", rows(0, 6)).unwrap();
        e.insert_columns("pad", vec![ColumnVector::Int((0..100).collect())]).unwrap();
        if paged {
            e.checkpoint().unwrap();
        }
        let before = (block_shape(&e), physical_rows(&e));
        e.execute("BEGIN").unwrap();
        // Fills the tail [4, 2]; `marker` is in no other page of the file.
        let marker = 4242.4242f64;
        let filler = vec![ColumnVector::Int(vec![50, 51]), ColumnVector::Float(vec![marker; 2])];
        e.insert_columns("t", filler).unwrap();
        assert_eq!(block_shape(&e), vec![vec![4, 4]], "{case}");
        // `pad`'s 25 pages through the 8-frame pool write the filled
        // block back to the file and evict it.
        e.execute("SELECT SUM(x) FROM pad").unwrap();
        let path = e.storage_env().unwrap().data_path();
        let mut data = std::fs::read(&path).unwrap();
        let at = data.windows(8).position(|w| w == marker.to_le_bytes()).expect("filled block");
        data[at] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        e.execute("ROLLBACK").unwrap();
        assert_eq!((block_shape(&e), physical_rows(&e)), before, "{case}: after ROLLBACK");
        // A restored paged tail keeps its pages: a checkpoint does not free
        // them, so an insert that takes free pages leaves them alone.
        e.checkpoint().unwrap();
        e.insert_columns("pad", vec![ColumnVector::Int((0..40).collect())]).unwrap();
        e.checkpoint().unwrap();
        assert_eq!((block_shape(&e), physical_rows(&e)), before, "{case}: after checkpoints");
        drop(e);
        e = Engine::open(cfg).unwrap();
        assert_eq!((block_shape(&e), physical_rows(&e)), before, "{case}: after reopen");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn superseded_tail_pages_are_freed_by_the_next_checkpoint() {
    // 1024-row blocks over three partitions, 64-row inserts and a
    // checkpoint every 16 of them: every checkpoint finds short tails to
    // page out, and the next inserts top those paged tails up. Each chunk
    // (at most 1024 eight-byte values) fits one page.
    const COLUMNS: usize = 2;
    const PARTITIONS: usize = 3;
    let dir = fresh_dir("space");
    let cfg = EngineConfig {
        vector_size: 1024,
        partitions: PARTITIONS,
        parallelism: 1,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        buffer_pool_pages: 64,
        wal_fsync: false,
        ..Default::default()
    };
    let e = Engine::open(cfg).unwrap();
    e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    let env = e.storage_env().unwrap();
    let mut dead = Vec::new();
    let mut next_id = 0;
    for _ in 0..10 {
        for _ in 0..16 {
            e.insert_columns("t", rows(next_id, 64)).unwrap();
            next_id += 64;
        }
        e.checkpoint().unwrap();
        let shape = block_shape(&e);
        assert!(blocks_are_full(&shape, 1024), "{shape:?}");
        let live = COLUMNS * shape.iter().map(Vec::len).sum::<usize>();
        let file = std::fs::metadata(env.data_path()).unwrap().len() as usize / (16 * 1024);
        // Every page the file holds is live or on the free list.
        assert_eq!(file, live + env.free_page_count(), "{shape:?}");
        dead.push(env.free_page_count());
    }
    // The pages of the tails each checkpoint paged are freed by the one
    // after it, once the inserts have topped those tails up...
    assert!(dead.iter().any(|&free| free > 0), "superseded pages are freed: {dead:?}");
    // ...and reused: dead space never exceeds one set of tails (a page per
    // column per partition), however many inserts and checkpoints ran.
    let one_tail = PARTITIONS * COLUMNS;
    assert!(dead.iter().all(|&free| free <= one_tail), "{dead:?}");
    let sum: i64 = (0..next_id).sum();
    let q = e.execute("SELECT COUNT(*), SUM(id) FROM t").unwrap();
    assert_eq!(q.rows()[0][0], Value::Int(next_id));
    assert_eq!(q.rows()[0][1], Value::Int(sum));
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of the block-shape workload, drawn as one number: an append
/// of `1 + step / 3` rows (1 to `3 * VECTOR_SIZE - 1`), then by `step % 3`
/// nothing, a checkpoint, or a reopen.
const STEPS: usize = 3 * (3 * VECTOR_SIZE - 1);

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    // Random append sizes, with checkpoints and reopens interleaved: every
    // partition's blocks but its last hold `vector_size` rows, and the
    // persistent table's rows, in physical order, equal an in-memory
    // engine's that ran the same appends.
    #[test]
    fn blocks_stay_full_and_match_the_in_memory_oracle(
        steps in proptest::collection::vec(0..STEPS, 1..10),
    ) {
        let dir = fresh_dir("shape");
        let cfg = config(Some(&dir), 3);
        let oracle = Engine::new(config(None, 3));
        let mut e = Engine::open(cfg.clone()).unwrap();
        for engine in [&e, &oracle] {
            engine.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        }
        let mut next_id = 0;
        for (n, then) in steps.into_iter().map(|step| (1 + step / 3, step % 3)) {
            for engine in [&e, &oracle] {
                engine.insert_columns("t", rows(next_id, n)).unwrap();
            }
            next_id += n as i64;
            match then {
                1 => e.checkpoint().unwrap(),
                2 => {
                    drop(e);
                    e = Engine::open(cfg.clone()).unwrap();
                }
                _ => {}
            }
            let shape = block_shape(&e);
            prop_assert!(blocks_are_full(&shape, VECTOR_SIZE), "{:?}", shape);
            prop_assert_eq!(&shape, &block_shape(&oracle));
            prop_assert_eq!(physical_rows(&e), physical_rows(&oracle));
        }
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
