//! Integration test of the Table 3 memory-tracking allocator: registered
//! as the global allocator for this test binary only.

use indb_ml::core::memtrack::{self, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// The peak counter is process-global and the harness runs tests on
/// parallel threads: each test holds this lock from its first
/// `reset_peak` to its last `peak_bytes`, so neither sees the other's
/// allocations.
static PEAK_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive_peak_counter() -> std::sync::MutexGuard<'static, ()> {
    // A failed sibling test poisons the lock but leaves nothing to repair.
    PEAK_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn peak_accounting_tracks_large_allocations() {
    const BIG: usize = 8 * 1024 * 1024;
    // The harness's own threads (spawning the sibling test, capturing
    // output) free a few hundred bytes at any moment, and a free between
    // `reset_peak` and the allocation below lowers the peak by that much.
    const HARNESS_NOISE: usize = 64 * 1024;

    let _exclusive = exclusive_peak_counter();
    memtrack::reset_peak();
    {
        let big = vec![0u8; BIG];
        std::hint::black_box(&big);
        assert!(
            memtrack::peak_bytes() + HARNESS_NOISE >= BIG,
            "peak must include the live 8 MiB buffer"
        );
    }
    // Dropping does not reduce the recorded peak.
    assert!(memtrack::peak_bytes() + HARNESS_NOISE >= BIG);

    // Resetting re-baselines at the current live size.
    memtrack::reset_peak();
    assert!(memtrack::peak_bytes() < 1024 * 1024);
}

#[test]
fn approaches_with_larger_working_sets_report_larger_peaks() {
    use indb_ml::core::{Approach, Experiment, ExperimentConfig, Workload};
    use vector_engine::EngineConfig;

    let _exclusive = exclusive_peak_counter();
    let config = ExperimentConfig {
        engine: EngineConfig {
            vector_size: 256,
            partitions: 2,
            parallelism: 1,
            ..Default::default()
        },
        ..ExperimentConfig::new(Workload::Dense { width: 16, depth: 2 }, 2_000)
    };
    let ex = Experiment::build(config).unwrap();

    let peak_of = |a: Approach| {
        memtrack::reset_peak();
        ex.run(a, false).unwrap();
        memtrack::peak_bytes()
    };
    let modeljoin = peak_of(Approach::ModelJoinCpu);
    let ml2sql = peak_of(Approach::Ml2Sql);
    let python = peak_of(Approach::TfPythonCpu);

    // The Table 3 ordering: the pipelined native operator stays lowest;
    // the generic-operator SQL plan and the row-boxing Python client are
    // substantially larger.
    assert!(modeljoin > 0);
    assert!(ml2sql > modeljoin, "ML-To-SQL ({ml2sql}) should exceed ModelJoin ({modeljoin})");
    assert!(python > modeljoin, "TF(Python) ({python}) should exceed ModelJoin ({modeljoin})");
}

/// Bytes of one `load_into_engine` hand-off of a NodeId model table at
/// `vector_size`: 64 blocks of its 14 eight-byte columns.
fn handoff_bytes(vector_size: usize) -> usize {
    64 * vector_size * 14 * 8
}

#[test]
fn model_load_streams_without_a_full_size_copy() {
    use indb_ml::model_repr::{load_into_engine, Layout};
    use vector_engine::{Engine, EngineConfig};

    let _exclusive = exclusive_peak_counter();
    let model = indb_ml::nn::paper::dense_model(256, 4, 1);
    let engine = Engine::new(EngineConfig::default());
    memtrack::reset_peak();
    let before = memtrack::current_bytes();
    let (table, _) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
    let live = memtrack::current_bytes() - before;
    let peak = memtrack::peak_bytes();
    // 197,892 edges: a whole export is 21 MiB. One append of it peaks at
    // twice that; the stream holds the table plus one 7 MiB slice.
    let bound = live + handoff_bytes(table.vector_size()) + (1 << 20);
    assert!(peak <= bound, "load peaked at {peak} B, table {live} B, bound {bound} B");
}

#[test]
fn model_build_reads_one_block_at_a_time() {
    use indb_ml::model_repr::{load_into_engine, Layout};
    use indb_ml::modeljoin::build_parallel;
    use tensor::Device;
    use vector_engine::{Engine, EngineConfig};

    let _exclusive = exclusive_peak_counter();
    let model = indb_ml::nn::paper::dense_model(256, 4, 1);
    // Two partitions of ~97 blocks: a whole partition of all 14 columns
    // is ~10 MiB, one block of the 4 routed columns 32 KiB.
    let config = EngineConfig { partitions: 2, ..Default::default() };
    let engine = Engine::new(config.clone());
    let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
    let build = || {
        build_parallel(&table, &meta, Layout::NodeId, &Device::cpu(), config.vector_size, 0)
            .unwrap()
    };
    // Warm the scheduler pool and its per-thread state outside the window.
    drop(build());
    memtrack::reset_peak();
    let before = memtrack::current_bytes();
    let built = build();
    let model_bytes = memtrack::current_bytes() - before;
    let peak = memtrack::peak_bytes();
    let blocks = table.partition_count() * config.vector_size * 14 * 8;
    let bound = model_bytes + blocks + (1 << 20);
    assert!(peak <= bound, "build peaked at {peak} B, model {model_bytes} B, bound {bound} B");
    drop(built);
}
