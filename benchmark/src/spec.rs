//! The names this benchmark defines: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and the frozen load
//! settings. `BENCHMARK.json` at the repository root must say the same
//! (a unit test compares them); later issues use these names.

#[cfg(test)]
use crate::json::Json;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may get worse before
    /// `compare` and the same-code check call it a regression. `Some(0.0)`
    /// is "exact"; `None` is report-only.
    pub bound: Option<f64>,
    /// Set for the metrics every workload measures, which are the ones
    /// `BENCHMARK.json` can list under `end_to_end` (its contract asks
    /// every run for every metric listed there): the share at which the
    /// driver rejects a change outright, sized so that this host's
    /// same-code spread stays inside it. The others go to `per_layer`.
    pub driver_bound: Option<f64>,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// No verdict rests on it: recorded for `BENCHMARK.json` only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Measured seconds of one run (`run_seconds` in `BENCHMARK.json`), all
/// of them the workload's own loop; warm-ups come on top.
pub const RUN_SECONDS: u64 = 15;

/// `--smoke`: one-second windows, for correctness gates and schema only.
pub const SMOKE_SECONDS: u64 = 5;

/// Open-loop request rates of `serve_point` phase B, frozen after one
/// calibration on the reference host: the lowest passes the latency limit
/// with ≥ 2× headroom, the highest fails it. Latency is reported at
/// [`REPORTED_RATE`].
pub const OPEN_LOOP_RATES: [f64; 6] = [5_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0];
pub const REPORTED_RATE: f64 = 20_000.0;

/// The limit a rate must meet on p99, measured from the due time.
pub const LATENCY_LIMIT_US: f64 = 1_000.0;

/// `persist_rw` runs with the WAL fsynced on every commit.
pub const FLUSH_POLICY: &str = "wal_fsync=true (fsync per commit, group-commit batched)";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "modeljoin_batch",
        why: "Figure 8 cell: native ModelJoin, Dense(512,4) over 65,536 in-memory rows; >=90% sgemm 1024x512x512 + pack, SQL/serve/shard/storage idle",
    },
    Workload {
        name: "ml2sql_batch",
        why: "same inference as SQL: Dense(32,2) over 8,192 rows, ~9.7M edge rows through hash join/aggregate, zero GEMM calls; bypass for kernel changes",
    },
    Workload {
        name: "serve_point",
        why: "1-row predicts on serve::Server, closed loop then open loop at six fixed rates: queue, micro-batcher, sched Serve tasks, model cache, small-shape GEMM",
    },
    Workload {
        name: "shard_mixed",
        why: "4 shards, 262,144 shuffled-id rows, 60% predict / 30% Zipf point SELECT / 10% scatter aggregate: route cache, scatter-gather, Query and Serve tasks on one pool",
    },
    Workload {
        name: "persist_rw",
        why: "durable engine, pool = 1/4 of 1,294 data pages, one client: hot range reads, full scans past the pool, fsynced 64-row inserts, checkpoints, crash recovery",
    },
];

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    driver_bound: Option<f64>,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, driver_bound }
}

/// The issue's bounds, raised to its caps (throughput 0.10, tails 0.20)
/// where this host's same-code spread is above half the floor, and to 0.10
/// for memory (`serve_point`'s 12.6 MiB high-water mark moves by 0.05 with
/// how far the overloaded top rate backs up).
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, Some(0.15), Some(0.25)),
    e2e("rows_per_s", "rows/s", Higher, Some(0.10), Some(0.25)),
    e2e("ops_per_s", "ops/s", Higher, Some(0.10), Some(0.25)),
    e2e("predict_p50_us", "us", Lower, Some(0.10), None),
    e2e("predict_p99_us", "us", Lower, Some(0.20), None),
    e2e("sql_p50_us", "us", Lower, Some(0.10), None),
    e2e("sql_p99_us", "us", Lower, Some(0.20), None),
    e2e("insert_p50_us", "us", Lower, Some(0.10), None),
    e2e("insert_p99_us", "us", Lower, Some(0.20), None),
    e2e("rate_at_limit_rps", "req/s", Higher, Some(0.0), None),
    e2e("peak_rss_mb", "MiB", Lower, Some(0.10), Some(0.20)),
    e2e("recovery_s", "s", Lower, Some(0.15), None),
    e2e("disk_bytes_per_user_byte", "ratio", Lower, Some(0.02), None),
    e2e("trace_overhead_share", "ratio", Lower, None, None),
];

pub fn is_rate(name: &str) -> bool {
    matches!(name, "rows_per_s" | "ops_per_s")
}

/// The value a run reports for a metric, from the values it collected: a
/// rate is read over slices of the run that all do the same work (one
/// operation, one block of operations in exact mix, 50 ms of a closed
/// loop) and is their upper quartile; anything else is the median of its
/// windows, set-ups or rounds.
pub fn reported(name: &str, values: &[f64]) -> f64 {
    if is_rate(name) {
        stats::upper_quartile(values)
    } else {
        stats::median(values)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 55] = [
    layer("tensor.sgemm_us.1024x512x512", "us", Lower),
    layer("tensor.sgemm_gflops.1024x512x512", "GFLOP/s", Higher),
    layer("tensor.sgemm_us.32x64x64", "us", Lower),
    layer("tensor.qgemm_us.32x64x64", "us", Lower),
    layer("tensor.qgemm_us.1024x512x512", "us", Lower),
    layer("tensor.gemm_calls_per_op", "count", Lower),
    layer("tensor.gemm_flops_per_op", "count", Lower),
    layer("modeljoin.build_us", "us", Lower),
    layer("modeljoin.infer_us_per_batch", "us", Lower),
    layer("modeljoin.op_residual_share", "ratio", Lower),
    layer("modeljoin.cache_hit_share", "ratio", Higher),
    layer("ml2sql.generate_us", "us", Lower),
    layer("ml2sql.sql_bytes", "bytes", Lower),
    layer("sql.plan_us.ml2sql", "us", Lower),
    layer("sql.plan_us.point", "us", Lower),
    layer("sql.plan_cache_hit_share", "ratio", Higher),
    layer("exec.query_us.ml2sql", "us", Lower),
    layer("exec.scan_rows_per_s.mem", "rows/s", Higher),
    layer("exec.scan_rows_per_s.paged", "rows/s", Higher),
    layer("exec.join_rows_per_result", "ratio", Lower),
    layer("exec.agg_rows_per_result", "ratio", Lower),
    layer("sched.fork_join_us_per_task", "us", Lower),
    layer("sched.spawn_to_run_us.idle", "us", Lower),
    layer("sched.spawn_to_run_us.busy", "us", Lower),
    layer("sched.tasks_per_op", "count", Lower),
    layer("sched.steals_per_op", "count", Lower),
    layer("sched.parks_per_op", "count", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.batch_rows_mean", "rows", Higher),
    layer("serve.flush_deadline_share", "ratio", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.timeouts", "count", Lower),
    layer("shard.route_us.cold", "us", Lower),
    layer("shard.route_us.warm", "us", Lower),
    layer("shard.route_mix.single", "count", Higher),
    layer("shard.route_mix.scatter", "count", Lower),
    layer("shard.route_mix.partial_agg", "count", Lower),
    layer("shard.route_mix.shuffle", "count", Lower),
    layer("shard.facade_overhead_share", "ratio", Lower),
    layer("shard.scatter_overhead_share", "ratio", Lower),
    layer("shard.predict_batch_rows_mean", "rows", Higher),
    layer("storage.pool_hit_share", "ratio", Higher),
    layer("storage.pool_evictions", "count", Lower),
    layer("storage.bypass_reads", "count", Lower),
    layer("storage.fetch_hit_us", "us", Lower),
    layer("storage.fetch_miss_us", "us", Lower),
    layer("storage.wal_append_us", "us", Lower),
    layer("storage.wal_commit_us", "us", Lower),
    layer("storage.wal_bytes_per_user_byte", "ratio", Lower),
    layer("storage.fsyncs_per_insert", "ratio", Lower),
    layer("storage.pages_written_per_user_byte", "ratio", Lower),
    layer("storage.checkpoint_s", "s", Lower),
    layer("storage.checkpoint_stall_us", "us", Lower),
    layer("storage.recovery_records_per_s", "rec/s", Higher),
];

pub fn workload_names() -> String {
    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

/// The contents `BENCHMARK.json` must have, built from the tables above:
/// under `end_to_end` the metrics with a driver bound, under `per_layer`
/// the layer ledger followed by the remaining end-to-end metrics.
#[cfg(test)]
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let entry = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let mut keys = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        keys.extend(bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(keys)
    };
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.driver_bound.is_some())
        .map(|m| entry(m.name, m.unit, m.better, m.driver_bound))
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| entry(m.name, m.unit, m.better, None))
        .chain(
            END_TO_END
                .iter()
                .filter(|m| m.driver_bound.is_none())
                .map(|m| entry(m.name, m.unit, m.better, None)),
        )
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let command = command.into_iter().map(Json::str).collect();
    Json::obj(vec![
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repository_root_says_what_this_file_says() {
        let text = include_str!("../../BENCHMARK.json");
        let want = benchmark_json();
        assert!(
            crate::json::parse(text).expect("BENCHMARK.json parses") == want,
            "BENCHMARK.json must read:\n{}",
            want.pretty()
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn names_units_and_bounds_stay_inside_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let driver: Vec<f64> = END_TO_END.iter().filter_map(|m| m.driver_bound).collect();
        let setup = end_to_end("setup_s").unwrap().driver_bound.expect("setup_s is listed");
        assert!(driver.iter().all(|&b| b > 0.0 && b <= 0.25 && b <= setup), "set-up is widest");
        // The issue's caps: throughputs 0.10, tails 0.20.
        let bound = |name: &str| end_to_end(name).unwrap().bound.unwrap();
        assert!(bound("rows_per_s") <= 0.10 && bound("ops_per_s") <= 0.10);
        assert!(["predict_p99_us", "sql_p99_us", "insert_p99_us"].iter().all(|n| bound(n) <= 0.20));
    }
}
