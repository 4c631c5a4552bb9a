//! Crash recovery of a hash-placed table. The engine's one WAL is torn at
//! an arbitrary offset inside the statement after a commit point — an
//! autocommit append, or anywhere in a `BEGIN` … `COMMIT` group — and the
//! recovered engine must be bit-identical, partition by partition, to an
//! in-memory oracle that ran exactly the committed prefix. A shard is a
//! partition of the hash placement: "one shard" runs one partition, "four
//! shards" four.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use vector_engine::{ColumnVector, Engine, EngineConfig, Value};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("idb-shard-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: Option<&std::path::Path>, partitions: usize) -> EngineConfig {
    EngineConfig {
        vector_size: 4,
        partitions,
        parallelism: 1,
        data_dir: dir.map(|d| d.to_str().unwrap().to_string()),
        buffer_pool_pages: 8,
        wal_fsync: false,
        ..Default::default()
    }
}

/// Rows of `t`, per partition in physical (block) order — the bit-identity
/// basis.
fn partition_rows(e: &Engine) -> Vec<Vec<Vec<Value>>> {
    let t = e.table("t").unwrap();
    (0..t.partition_count())
        .map(|p| {
            let mut rows = Vec::new();
            t.for_each_block(p, &[0, 1], |b| {
                rows.extend((0..b.num_rows()).map(|r| b.row(r)));
                Ok(())
            })
            .unwrap();
            rows
        })
        .collect()
}

/// Append `n` rows numbered from `*next`: skewed keys (`row % 11`) and a
/// dyadic payload that tells the rows apart.
fn append(e: &Engine, next: &mut i64, n: usize) {
    let rows: Vec<i64> = (*next..*next + n as i64).collect();
    *next += n as i64;
    let ids = rows.iter().map(|r| r % 11).collect();
    let vs = rows.iter().map(|&r| r as f64 * 0.25).collect();
    e.insert_columns("t", vec![ColumnVector::Int(ids), ColumnVector::Float(vs)]).unwrap();
}

/// Statement 0 creates `t` hash-placed on `id`; group `i >= 1` appends
/// `groups[i-1]`, as one `BEGIN` … `COMMIT` transaction when `txn`.
/// Applies the first `committed` groups and returns the WAL size after
/// each (`None` in memory).
fn apply(e: &Engine, groups: &[Vec<usize>], txn: bool, committed: usize) -> Vec<Option<u64>> {
    let mut after = Vec::new();
    if committed == 0 {
        return after;
    }
    e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    e.table("t").unwrap().declare_placement_key("id").unwrap();
    after.push(e.wal_size());
    let mut next = 0;
    for group in groups.iter().take(committed - 1) {
        if txn {
            e.execute("BEGIN").unwrap();
        }
        for &n in group {
            append(e, &mut next, n);
        }
        if txn {
            e.execute("COMMIT").unwrap();
        }
        after.push(e.wal_size());
    }
    after
}

/// Run every group, crash at commit point `boundary` with the WAL torn
/// `tear` bytes (mod the group's size) into the next group — never keeping
/// its commit marker — and compare the recovered engine with the oracle.
fn run_case(partitions: usize, groups: &[Vec<usize>], txn: bool, boundary: usize, tear: u64) {
    let dir = fresh_dir(&format!("p{partitions}-txn{txn}"));
    let cfg = config(Some(&dir), partitions);
    let after: Vec<u64> = {
        let e = Engine::open(cfg.clone()).unwrap();
        apply(&e, groups, txn, groups.len() + 1).into_iter().map(Option::unwrap).collect()
    };
    let b = boundary % after.len();
    let keep = after[b];
    let cut = match after.get(b + 1) {
        Some(&next) if next > keep => keep + tear % (next - keep),
        _ => keep,
    };
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..cut as usize]).unwrap();

    let recovered = Engine::open(cfg).unwrap();
    let oracle = Engine::new(config(None, partitions));
    apply(&oracle, groups, txn, b + 1);
    assert_eq!(
        partition_rows(&recovered),
        partition_rows(&oracle),
        "{partitions} partitions diverged after a crash at commit point {b} (txn {txn})"
    );
    assert_eq!(recovered.table("t").unwrap().placement_key(), Some(0), "the key is replayed");
    let _ = std::fs::remove_dir_all(&dir);
}

fn singletons(sizes: &[usize]) -> Vec<Vec<usize>> {
    sizes.iter().map(|&n| vec![n]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn torn_wals_recover_the_committed_prefix_on_one_shard(
        sizes in proptest::collection::vec(1usize..10, 1..6),
        boundary in 0usize..7,
        tear in 0u64..1_000_000,
    ) {
        run_case(1, &singletons(&sizes), false, boundary, tear);
    }

    #[test]
    fn torn_wals_recover_the_committed_prefix_on_four_shards(
        sizes in proptest::collection::vec(1usize..10, 1..6),
        boundary in 0usize..7,
        tear in 0u64..1_000_000,
    ) {
        run_case(4, &singletons(&sizes), false, boundary, tear);
    }

    #[test]
    fn torn_wals_inside_a_transaction_recover_its_last_commit_on_one_shard(
        groups in proptest::collection::vec(
            proptest::collection::vec(1usize..8, 1..4), 1..4),
        boundary in 0usize..6,
        tear in 0u64..1_000_000,
    ) {
        run_case(1, &groups, true, boundary, tear);
    }

    #[test]
    fn torn_wals_inside_a_transaction_recover_its_last_commit_on_four_shards(
        groups in proptest::collection::vec(
            proptest::collection::vec(1usize..8, 1..4), 1..4),
        boundary in 0usize..6,
        tear in 0u64..1_000_000,
    ) {
        run_case(4, &groups, true, boundary, tear);
    }
}
