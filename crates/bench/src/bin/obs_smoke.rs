//! Observability smoke check: asserts the metrics layer works and stays
//! within its overhead budget. Run by CI; exits non-zero on violation.
//!
//! ```text
//! cargo run --release -p bench --bin obs_smoke
//! ```
//!
//! Three assertions:
//! 1. after a small SQL workload, `Engine::metrics_report()` is non-empty
//!    and the counters it aggregates actually moved;
//! 2. a disabled span costs well under 50 ns per call — the always-on
//!    instrumentation must be safe to leave compiled into every operator;
//! 3. enabling spans on a mid-size GROUP BY costs at most 10% (interleaved
//!    min-of-reps; the ml2sql sweep's `--quick` mode checks the < 2%
//!    budget on the full query path, this guards the worst case of a
//!    cheap, span-dense plan).

use std::fmt::Write as _;
use std::time::Instant;
use vector_engine::{Engine, EngineConfig};

const GROUPS: usize = 64;
const ROWS: usize = 20_000;
const AGG_SQL: &str = "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k";

/// An engine with the smoke table loaded.
fn setup() -> Engine {
    let engine = Engine::new(EngineConfig {
        vector_size: 1024,
        partitions: 2,
        parallelism: 2,
        ..Default::default()
    });
    engine.execute("CREATE TABLE t (k INT, v FLOAT)").unwrap();
    let mut values = String::new();
    for chunk in 0..ROWS / 500 {
        values.clear();
        for i in 0..500 {
            let id = chunk * 500 + i;
            if i > 0 {
                values.push_str(", ");
            }
            write!(values, "({}, {}.5)", id % GROUPS, id % 97).unwrap();
        }
        engine.execute(&format!("INSERT INTO t VALUES {values}")).unwrap();
    }
    engine
}

/// Best-of-`reps` wall time of the cached GROUP BY.
fn min_agg_time(engine: &Engine, reps: usize) -> f64 {
    engine.execute_cached(AGG_SQL).unwrap(); // warm plan cache + buffers
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            engine.execute_cached(AGG_SQL).unwrap();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    // 1. The report reflects real work.
    let engine = setup();
    engine.execute_cached(AGG_SQL).unwrap();
    engine.execute_cached(AGG_SQL).unwrap();
    let report = engine.metrics_report();
    assert!(!report.is_empty(), "metrics report must be non-empty");
    let snap = obs::snapshot();
    for name in ["exec.scan.rows", "exec.agg.batches", "exec.plan_cache.misses"] {
        assert!(snap.counter(name) > 0, "{name} must be live after the workload:\n{report}");
    }
    assert!(snap.counter("exec.plan_cache.hits") >= 1, "repeat query must hit the plan cache");
    assert!(
        snap.histogram("exec.agg.time_us").is_some_and(|h| h.count > 0),
        "span-enabled run must record stage timings"
    );
    println!("report: {} metric lines, all live", report.lines().count());

    // 2. Disabled spans are near-free: one relaxed atomic load per call.
    obs::set_spans_enabled(false);
    const CALLS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        let _span = obs::span(&obs::metrics::TENSOR_GEMM_US);
    }
    let ns_per_call = t.elapsed().as_nanos() as f64 / CALLS as f64;
    obs::set_spans_enabled(true);
    println!("disabled span: {ns_per_call:.1} ns/call");
    assert!(ns_per_call < 50.0, "disabled span too expensive: {ns_per_call:.1} ns/call");

    // 3. Enabled spans stay within budget on a span-dense aggregation.
    // The process-wide gate is the only switch; interleaved so scheduler
    // noise hits both sides.
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        obs::set_spans_enabled(false);
        off = off.min(min_agg_time(&engine, 5));
        obs::set_spans_enabled(true);
        on = on.min(min_agg_time(&engine, 5));
    }
    let overhead = (on / off - 1.0) * 100.0;
    println!("enabled spans overhead on GROUP BY: {overhead:+.2}% (on {on:.6}s, off {off:.6}s)");
    assert!(on <= off * 1.10, "span overhead above 10% budget: on {on:.6}s vs off {off:.6}s");

    println!("obs_smoke: all checks passed");
}
