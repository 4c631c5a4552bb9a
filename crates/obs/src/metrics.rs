//! The process-wide metric catalog.
//!
//! Every metric in the system is a `static` here, referenced directly by
//! the instrumented crates — no registration step, no lookup on the hot
//! path, and [`crate::snapshot`] can walk a fixed list. The naming
//! convention is `layer.subject.unit`: `_us` histograms hold
//! microseconds; [`crate::StageMetrics`] entries are listed under their
//! `.rows` name and expand to `.rows` / `.batches` / `.time_us` in
//! snapshots.

use crate::{Counter, Gauge, Histogram, StageMetrics};

// --- tensor: kernel layer ------------------------------------------------

/// `sgemm` invocations (any dispatch path).
pub static TENSOR_GEMM_CALLS: Counter = Counter::new();
/// Floating-point operations issued to `sgemm` (2·m·k·n per call).
pub static TENSOR_GEMM_FLOPS: Counter = Counter::new();
/// GEMM tile tasks a kernel handed to the scheduler pool (the caller's
/// own tile is not counted).
pub static TENSOR_POOL_JOBS: Counter = Counter::new();
/// Wall time of each `sgemm` call, µs (span-gated).
pub static TENSOR_GEMM_US: Histogram = Histogram::new();
/// Time spent packing A/B panels into kernel scratch, µs (span-gated).
pub static TENSOR_PACK_US: Histogram = Histogram::new();
/// Quantized `qgemm_dense` invocations (any dispatch path).
pub static TENSOR_GEMM_I8_CALLS: Counter = Counter::new();
/// Integer multiply-accumulate operations issued to the int8 GEMM
/// (2·m·k·n per call, counted like fp32 FLOPs for comparability).
pub static TENSOR_GEMM_I8_FLOPS: Counter = Counter::new();
/// Wall time of each int8 GEMM call — quantize, multiply, fused
/// dequant epilogue — µs (span-gated).
pub static TENSOR_GEMM_I8_US: Histogram = Histogram::new();

// --- sched: unified work-stealing scheduler -------------------------------

/// Serve-class tasks submitted (latency-sensitive, high-priority injector).
pub static SCHED_TASKS_SERVE: Counter = Counter::new();
/// Query-class tasks submitted (partition/operator morsels).
pub static SCHED_TASKS_QUERY: Counter = Counter::new();
/// Kernel-class tasks submitted (GEMM tile ranges).
pub static SCHED_TASKS_KERNEL: Counter = Counter::new();
/// Tasks a worker claimed from another worker's deque.
pub static SCHED_STEALS: Counter = Counter::new();
/// Times a worker parked on the idle condvar.
pub static SCHED_PARKS: Counter = Counter::new();
/// Times a parked worker was woken.
pub static SCHED_UNPARKS: Counter = Counter::new();
/// Task panics caught by the scheduler's per-task `catch_unwind`.
pub static SCHED_PANICS_CAUGHT: Counter = Counter::new();
/// Worker threads owned by the process-wide scheduler.
pub static SCHED_WORKERS: Gauge = Gauge::new();
/// Tasks currently queued (all deques + both injectors).
pub static SCHED_QUEUE_DEPTH: Gauge = Gauge::new();
/// Submit-to-claim queue wait per task, µs (span-gated).
pub static SCHED_QUEUE_WAIT_US: Histogram = Histogram::new();
/// Run time of serve-class tasks, µs (span-gated).
pub static SCHED_TASK_SERVE_US: Histogram = Histogram::new();
/// Run time of query-class tasks, µs (span-gated).
pub static SCHED_TASK_QUERY_US: Histogram = Histogram::new();
/// Run time of kernel-class tasks, µs (span-gated).
pub static SCHED_TASK_KERNEL_US: Histogram = Histogram::new();

// --- vector-engine: executor + plan cache --------------------------------

/// Plan-cache lookups that returned a cached plan at the current epoch.
pub static EXEC_PLAN_CACHE_HITS: Counter = Counter::new();
/// Plan-cache lookups that found nothing for the SQL text.
pub static EXEC_PLAN_CACHE_MISSES: Counter = Counter::new();
/// Cached plans discarded because the catalog epoch moved.
pub static EXEC_PLAN_CACHE_INVALIDATIONS: Counter = Counter::new();
/// Catalog epoch bumps (CREATE/DROP/append).
pub static EXEC_CATALOG_EPOCH_BUMPS: Counter = Counter::new();
/// Plans `exec::parallel::execute` ran serially on the calling thread.
pub static EXEC_PLANS_SERIAL: Counter = Counter::new();
/// Plans it ran once per morsel of a split table, gathering the outputs.
pub static EXEC_PLANS_PARTITIONED: Counter = Counter::new();
/// Plans it ran as per-morsel partial aggregates merged in morsel order.
pub static EXEC_PLANS_PARTIAL_AGG: Counter = Counter::new();
/// Partition splits admitted with no placement key.
pub static EXEC_SPLIT_KEY_NONE: Counter = Counter::new();
/// Partition splits admitted on a declared-unique key column.
pub static EXEC_SPLIT_KEY_UNIQUE: Counter = Counter::new();
/// Partition splits admitted on a key column whose morsel SMA ranges are
/// pairwise disjoint.
pub static EXEC_SPLIT_KEY_SMA: Counter = Counter::new();

pub static EXEC_SCAN: StageMetrics = StageMetrics::new();
pub static EXEC_FILTER: StageMetrics = StageMetrics::new();
pub static EXEC_PROJECT: StageMetrics = StageMetrics::new();
pub static EXEC_JOIN: StageMetrics = StageMetrics::new();
pub static EXEC_AGG: StageMetrics = StageMetrics::new();
pub static EXEC_SORT: StageMetrics = StageMetrics::new();
pub static EXEC_OTHER: StageMetrics = StageMetrics::new();

// --- modeljoin: model build + probe --------------------------------------

/// Models assembled from relational slabs (`build_parallel` completions).
pub static MODELJOIN_BUILD_COUNT: Counter = Counter::new();
/// Quantized models derived from built fp32 models.
pub static MODELJOIN_QUANT_BUILDS: Counter = Counter::new();
/// ModelCache fp32 lookups served from cache.
pub static MODELJOIN_CACHE_HITS: Counter = Counter::new();
/// ModelCache fp32 lookups that had to build.
pub static MODELJOIN_CACHE_MISSES: Counter = Counter::new();
/// ModelCache int8 lookups served from cache.
pub static MODELJOIN_CACHE_HITS_I8: Counter = Counter::new();
/// ModelCache int8 lookups that had to quantize.
pub static MODELJOIN_CACHE_MISSES_I8: Counter = Counter::new();
/// Wall time of each model build, µs (span-gated).
pub static MODELJOIN_BUILD_US: Histogram = Histogram::new();
/// Inference over built models inside the engine: one batch per
/// `ModelJoinOp` vector and per served predict batch, with their rows and
/// the forward pass's µs. The C-API, UDF and client series are not
/// counted.
pub static MODELJOIN_PROBE: StageMetrics = StageMetrics::new();

// --- shard: sharded scatter-gather facade ---------------------------------

/// Queries routed to exactly one shard (replicated-only plans and
/// shard-key point lookups).
pub static SHARD_QUERIES_SINGLE: Counter = Counter::new();
/// Queries scattered to every shard and gathered without a merge step.
pub static SHARD_QUERIES_SCATTER: Counter = Counter::new();
/// Queries that ran the cross-shard partial-aggregate merge.
pub static SHARD_QUERIES_PARTIAL_AGG: Counter = Counter::new();
/// Queries that ran a hash-partitioned shuffle exchange before joining.
pub static SHARD_QUERIES_SHUFFLE: Counter = Counter::new();
/// Rows repartitioned through the shuffle exchange.
pub static SHARD_SHUFFLE_ROWS: Counter = Counter::new();
/// Batches produced by the shuffle exchange (post-split, non-empty).
pub static SHARD_SHUFFLE_BATCHES: Counter = Counter::new();
/// Estimated bytes moved through the shuffle exchange.
pub static SHARD_SHUFFLE_BYTES: Counter = Counter::new();
/// Shards owned by the most recently constructed `ShardedEngine`.
pub static SHARD_COUNT: Gauge = Gauge::new();
/// Rows contributed by one shard to one gather (or routed to one shard by
/// one bulk load) — the skew signal of the hash partitioning.
pub static SHARD_ROWS_PER_SHARD: Histogram = Histogram::new();
/// Wall time from scatter submission until every shard's result is
/// gathered, µs (span-gated).
pub static SHARD_GATHER_WAIT_US: Histogram = Histogram::new();

// --- storage: buffer pool + WAL + recovery --------------------------------

/// Buffer-pool page requests answered from a resident frame.
pub static STORAGE_POOL_HITS: Counter = Counter::new();
/// Buffer-pool page requests that had to read the data file.
pub static STORAGE_POOL_MISSES: Counter = Counter::new();
/// Frames evicted by the CLOCK replacer to make room.
pub static STORAGE_POOL_EVICTIONS: Counter = Counter::new();
/// Dirty frames written back to the data file (evictions + flushes).
pub static STORAGE_PAGES_WRITTEN: Counter = Counter::new();
/// WAL records appended.
pub static STORAGE_WAL_APPENDS: Counter = Counter::new();
/// WAL `fsync` calls issued (group commit batches concurrent committers
/// behind one, so this counts batches, not commits).
pub static STORAGE_WAL_FSYNCS: Counter = Counter::new();
/// Bytes appended to the WAL.
pub static STORAGE_WAL_BYTES: Counter = Counter::new();
/// Committed WAL records replayed by crash recovery.
pub static STORAGE_RECOVERY_RECORDS_REPLAYED: Counter = Counter::new();
/// Checkpoints completed (pages + directory durable, WAL truncated).
pub static STORAGE_CHECKPOINTS: Counter = Counter::new();
/// Page reads served unbuffered because every frame was pinned — the
/// graceful-degradation path that keeps a scan alive on a tiny pool.
pub static STORAGE_POOL_BYPASS_READS: Counter = Counter::new();
/// Page writes sent straight to the data file because every frame was
/// pinned (same degradation path as bypass reads).
pub static STORAGE_POOL_BYPASS_WRITES: Counter = Counter::new();
/// Pages handed back to the free list (DROP TABLE, rollback, orphan GC).
pub static STORAGE_PAGES_FREED: Counter = Counter::new();
/// Freed pages handed out again by the allocator instead of growing the
/// data file.
pub static STORAGE_PAGES_REUSED: Counter = Counter::new();
/// VACUUM runs completed (live chunks rewritten into a fresh file).
pub static STORAGE_VACUUM_RUNS: Counter = Counter::new();
/// Pages copied into the fresh data file across all VACUUM runs.
pub static STORAGE_VACUUM_PAGES_COPIED: Counter = Counter::new();
/// Bytes reclaimed by VACUUM (old file size minus rebuilt file size).
pub static STORAGE_VACUUM_BYTES_RECLAIMED: Counter = Counter::new();
/// Multi-statement transactions opened with BEGIN.
pub static STORAGE_TXN_BEGINS: Counter = Counter::new();
/// Multi-statement transactions ended with COMMIT.
pub static STORAGE_TXN_COMMITS: Counter = Counter::new();
/// Multi-statement transactions ended with ROLLBACK.
pub static STORAGE_TXN_ROLLBACKS: Counter = Counter::new();
/// Logical undo records applied while rolling back.
pub static STORAGE_TXN_UNDO_RECORDS: Counter = Counter::new();
/// Frames currently resident in the buffer pool (bounded by the
/// `buffer_pool_pages` knob — the scans-in-bounded-memory assertion).
pub static STORAGE_POOL_OCCUPANCY: Gauge = Gauge::new();
/// High-water mark of resident frames since process start.
pub static STORAGE_POOL_OCCUPANCY_PEAK: Gauge = Gauge::new();
/// Pages currently on the free list of the most recently opened
/// storage environment.
pub static STORAGE_FREE_PAGES: Gauge = Gauge::new();

// --- serve: concurrent inference server ----------------------------------

/// Requests rejected at admission (queue full).
pub static SERVE_REJECTED: Counter = Counter::new();
/// Requests completed with `ServeError::Timeout`.
pub static SERVE_TIMEOUTS: Counter = Counter::new();
/// Requests whose deadline had already passed at submit.
pub static SERVE_DEADLINE_MISSED_AT_SUBMIT: Counter = Counter::new();
/// Batches flushed because the flush deadline fired (vs. filling up).
pub static SERVE_FLUSH_DEADLINE_FIRES: Counter = Counter::new();
/// Inference panics caught and converted to `ServeError::Internal`.
pub static SERVE_PANICS_CAUGHT: Counter = Counter::new();
/// Poisoned locks recovered via `into_inner` after a caught panic.
pub static SERVE_LOCKS_RECOVERED: Counter = Counter::new();
/// Current depth of the admission queue.
pub static SERVE_QUEUE_DEPTH: Gauge = Gauge::new();
/// Rows per executed inference batch.
pub static SERVE_BATCH_ROWS: Histogram = Histogram::new();
/// End-to-end request latency, submit → completion, µs.
pub static SERVE_E2E_US: Histogram = Histogram::new();

// --- catalog walked by `crate::snapshot` ---------------------------------

pub static COUNTERS: &[(&str, &Counter)] = &[
    ("sched.tasks.serve", &SCHED_TASKS_SERVE),
    ("sched.tasks.query", &SCHED_TASKS_QUERY),
    ("sched.tasks.kernel", &SCHED_TASKS_KERNEL),
    ("sched.steals", &SCHED_STEALS),
    ("sched.parks", &SCHED_PARKS),
    ("sched.unparks", &SCHED_UNPARKS),
    ("sched.panics_caught", &SCHED_PANICS_CAUGHT),
    ("tensor.gemm.calls", &TENSOR_GEMM_CALLS),
    ("tensor.gemm.flops", &TENSOR_GEMM_FLOPS),
    ("tensor.gemm.i8.calls", &TENSOR_GEMM_I8_CALLS),
    ("tensor.gemm.i8.flops", &TENSOR_GEMM_I8_FLOPS),
    ("tensor.pool.jobs", &TENSOR_POOL_JOBS),
    ("exec.plan_cache.hits", &EXEC_PLAN_CACHE_HITS),
    ("exec.plan_cache.misses", &EXEC_PLAN_CACHE_MISSES),
    ("exec.plan_cache.invalidations", &EXEC_PLAN_CACHE_INVALIDATIONS),
    ("exec.catalog.epoch_bumps", &EXEC_CATALOG_EPOCH_BUMPS),
    ("exec.plans.serial", &EXEC_PLANS_SERIAL),
    ("exec.plans.partitioned", &EXEC_PLANS_PARTITIONED),
    ("exec.plans.partial_agg", &EXEC_PLANS_PARTIAL_AGG),
    ("exec.split_key.none", &EXEC_SPLIT_KEY_NONE),
    ("exec.split_key.unique", &EXEC_SPLIT_KEY_UNIQUE),
    ("exec.split_key.sma", &EXEC_SPLIT_KEY_SMA),
    ("modeljoin.build.count", &MODELJOIN_BUILD_COUNT),
    ("modeljoin.quant.builds", &MODELJOIN_QUANT_BUILDS),
    ("modeljoin.cache.hits", &MODELJOIN_CACHE_HITS),
    ("modeljoin.cache.misses", &MODELJOIN_CACHE_MISSES),
    ("modeljoin.cache.hits_i8", &MODELJOIN_CACHE_HITS_I8),
    ("modeljoin.cache.misses_i8", &MODELJOIN_CACHE_MISSES_I8),
    ("shard.queries.single", &SHARD_QUERIES_SINGLE),
    ("shard.queries.scatter", &SHARD_QUERIES_SCATTER),
    ("shard.queries.partial_agg", &SHARD_QUERIES_PARTIAL_AGG),
    ("shard.queries.shuffle", &SHARD_QUERIES_SHUFFLE),
    ("shard.shuffle.rows", &SHARD_SHUFFLE_ROWS),
    ("shard.shuffle.batches", &SHARD_SHUFFLE_BATCHES),
    ("shard.shuffle.bytes", &SHARD_SHUFFLE_BYTES),
    ("storage.pool.hits", &STORAGE_POOL_HITS),
    ("storage.pool.misses", &STORAGE_POOL_MISSES),
    ("storage.pool.evictions", &STORAGE_POOL_EVICTIONS),
    ("storage.pages.written", &STORAGE_PAGES_WRITTEN),
    ("storage.wal.appends", &STORAGE_WAL_APPENDS),
    ("storage.wal.fsyncs", &STORAGE_WAL_FSYNCS),
    ("storage.wal.bytes", &STORAGE_WAL_BYTES),
    ("storage.recovery.records_replayed", &STORAGE_RECOVERY_RECORDS_REPLAYED),
    ("storage.checkpoints", &STORAGE_CHECKPOINTS),
    ("storage.pool.bypass_reads", &STORAGE_POOL_BYPASS_READS),
    ("storage.pool.bypass_writes", &STORAGE_POOL_BYPASS_WRITES),
    ("storage.pages.freed", &STORAGE_PAGES_FREED),
    ("storage.pages.reused", &STORAGE_PAGES_REUSED),
    ("storage.vacuum.runs", &STORAGE_VACUUM_RUNS),
    ("storage.vacuum.pages_copied", &STORAGE_VACUUM_PAGES_COPIED),
    ("storage.vacuum.bytes_reclaimed", &STORAGE_VACUUM_BYTES_RECLAIMED),
    ("storage.txn.begins", &STORAGE_TXN_BEGINS),
    ("storage.txn.commits", &STORAGE_TXN_COMMITS),
    ("storage.txn.rollbacks", &STORAGE_TXN_ROLLBACKS),
    ("storage.txn.undo_records", &STORAGE_TXN_UNDO_RECORDS),
    ("serve.rejected", &SERVE_REJECTED),
    ("serve.timeouts", &SERVE_TIMEOUTS),
    ("serve.deadline.missed_at_submit", &SERVE_DEADLINE_MISSED_AT_SUBMIT),
    ("serve.flush.deadline_fires", &SERVE_FLUSH_DEADLINE_FIRES),
    ("serve.panics_caught", &SERVE_PANICS_CAUGHT),
    ("serve.locks_recovered", &SERVE_LOCKS_RECOVERED),
];

pub static GAUGES: &[(&str, &Gauge)] = &[
    ("sched.workers", &SCHED_WORKERS),
    ("sched.queue.depth", &SCHED_QUEUE_DEPTH),
    ("serve.queue.depth", &SERVE_QUEUE_DEPTH),
    ("shard.count", &SHARD_COUNT),
    ("storage.pool.occupancy", &STORAGE_POOL_OCCUPANCY),
    ("storage.pool.occupancy_peak", &STORAGE_POOL_OCCUPANCY_PEAK),
    ("storage.free_pages", &STORAGE_FREE_PAGES),
];

pub static HISTOGRAMS: &[(&str, &Histogram)] = &[
    ("sched.queue.wait_us", &SCHED_QUEUE_WAIT_US),
    ("sched.task.serve.us", &SCHED_TASK_SERVE_US),
    ("sched.task.query.us", &SCHED_TASK_QUERY_US),
    ("sched.task.kernel.us", &SCHED_TASK_KERNEL_US),
    ("tensor.gemm.us", &TENSOR_GEMM_US),
    ("tensor.gemm.i8.us", &TENSOR_GEMM_I8_US),
    ("tensor.pack.us", &TENSOR_PACK_US),
    ("modeljoin.build.us", &MODELJOIN_BUILD_US),
    ("serve.batch.rows", &SERVE_BATCH_ROWS),
    ("serve.request.e2e_us", &SERVE_E2E_US),
    ("shard.rows.per_shard", &SHARD_ROWS_PER_SHARD),
    ("shard.gather.wait_us", &SHARD_GATHER_WAIT_US),
];

/// Stage entries are named by their `.rows` counter; snapshots derive the
/// sibling `.batches` and `.time_us` names via [`stage_batches_name`] /
/// [`stage_time_name`].
pub static STAGES: &[(&str, &StageMetrics)] = &[
    ("exec.scan.rows", &EXEC_SCAN),
    ("exec.filter.rows", &EXEC_FILTER),
    ("exec.project.rows", &EXEC_PROJECT),
    ("exec.join.rows", &EXEC_JOIN),
    ("exec.agg.rows", &EXEC_AGG),
    ("exec.sort.rows", &EXEC_SORT),
    ("exec.other.rows", &EXEC_OTHER),
    ("modeljoin.probe.rows", &MODELJOIN_PROBE),
];

/// `.batches` metric name for a stage base name (leaks nothing: the set
/// of bases is fixed, so the interned strings below cover them all).
pub fn stage_batches_name(base: &str) -> &'static str {
    match base {
        "exec.scan" => "exec.scan.batches",
        "exec.filter" => "exec.filter.batches",
        "exec.project" => "exec.project.batches",
        "exec.join" => "exec.join.batches",
        "exec.agg" => "exec.agg.batches",
        "exec.sort" => "exec.sort.batches",
        "exec.other" => "exec.other.batches",
        "modeljoin.probe" => "modeljoin.probe.batches",
        _ => "unknown.batches",
    }
}

/// `.time_us` metric name for a stage base name.
pub fn stage_time_name(base: &str) -> &'static str {
    match base {
        "exec.scan" => "exec.scan.time_us",
        "exec.filter" => "exec.filter.time_us",
        "exec.project" => "exec.project.time_us",
        "exec.join" => "exec.join.time_us",
        "exec.agg" => "exec.agg.time_us",
        "exec.sort" => "exec.sort.time_us",
        "exec.other" => "exec.other.time_us",
        "modeljoin.probe" => "modeljoin.probe.time_us",
        _ => "unknown.time_us",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = COUNTERS.iter().map(|(n, _)| *n).collect();
        names.extend(GAUGES.iter().map(|(n, _)| *n));
        names.extend(HISTOGRAMS.iter().map(|(n, _)| *n));
        for (n, _) in STAGES {
            let base = n.strip_suffix(".rows").expect("stage names end in .rows");
            names.push(n);
            names.push(stage_batches_name(base));
            names.push(stage_time_name(base));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name in catalog");
        assert!(!names.iter().any(|n| n.starts_with("unknown.")));
    }
}
