//! The five workloads. Each is a [`Leg`]: a fixture it sets up, a timed
//! loop measured one window at a time, a correctness gate, and a replay
//! that times the public calls an operation is made of. A workload reports
//! the metrics its own loop produces and no others.

pub mod ml2sql_batch;
pub mod modeljoin_batch;
pub mod persist_rw;
pub mod serve_point;
pub mod shard_mixed;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serve::ServeStats;

use crate::spec;
use crate::stats::{self, WINDOWS};
use crate::{probes, trace};

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Sum of all measured windows of the run (warm-ups come on top).
    pub seconds: f64,
    pub trace: bool,
    /// Where trace files go; inside the checkout.
    pub out_dir: PathBuf,
    /// Fixtures' data directories; removed when the run ends.
    pub scratch: PathBuf,
}

/// What one window of a leg produced.
#[derive(Default)]
pub struct LegOut {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Operations and result rows of the window, the divisors of the
    /// per-operation layer counts.
    pub ops: u64,
    pub result_rows: u64,
    /// User bytes durably inserted (0 where the leg never inserts).
    pub inserted_bytes: u64,
    pub inserts: u64,
    /// Serving counters over the window, where the leg runs a server.
    pub serve: Option<ServeStats>,
    /// True when that server is the sharded one.
    pub sharded: bool,
    /// This window's values of each end-to-end metric the leg measures:
    /// for a rate one per slice of the window (`spec::reported`), for any
    /// other metric one.
    pub e2e: Vec<(&'static str, f64)>,
}

impl LegOut {
    pub fn new() -> LegOut {
        LegOut { correct: true, ..LegOut::default() }
    }
}

/// Root time of a replayed operation and the public calls it was split
/// into; the residual (root − children) is reported, not hidden.
pub struct Replay {
    pub op: &'static str,
    pub root_us: f64,
    pub children: Vec<(&'static str, f64)>,
}

impl Replay {
    pub fn residual_share(&self) -> f64 {
        let kids: f64 = self.children.iter().map(|c| c.1).sum();
        1.0 - kids / self.root_us
    }
}

pub trait Leg {
    fn name(&self) -> &'static str;

    /// Warm up (≥ 1 s and ≥ 3 operations) and check the first operation's
    /// outputs against the leg's oracle.
    fn warm_and_check(&mut self) -> bool;

    /// Untimed work before a window, outside its counter deltas: a leg
    /// whose operations change its fixture starts every window afresh.
    fn prepare(&mut self) {}

    /// One window of the timed loop; the values are this window's.
    fn window(&mut self, seconds: f64) -> LegOut;

    /// Work that follows the last window and still belongs to the workload
    /// (the crash image of `persist_rw`).
    fn finish(&mut self, _out: &mut LegOut) {}

    /// Checks that need memory the workload itself never holds (a second
    /// engine as oracle); run after the memory high-water mark is read.
    fn verify(&mut self) -> bool {
        true
    }

    /// Time one operation as a root span, then the public calls it is made
    /// of as children.
    fn replay(&mut self) -> Vec<Replay>;
}

/// Builds a leg's fixture: engines, fact and model tables, servers.
type Setup = fn(u64, &Path) -> Box<dyn Leg>;

/// Seconds since the process started measuring, for the progress lines.
pub fn clock() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Time `f` as a span and return its result with the elapsed µs.
pub fn timed<T>(name: &'static str, request_id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = trace::within(name, request_id, f);
    (v, t.elapsed().as_secs_f64() * 1e6)
}

/// One window of a single-threaded batch loop: `op` runs, back to back,
/// an operation over `rows` fact rows and returns the rows it produced
/// and its time in µs.
pub fn batch_window(
    seconds: f64,
    rows: usize,
    what: &str,
    mut op: impl FnMut() -> (usize, f64),
) -> LegOut {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut out = LegOut::new();
    while start.elapsed().as_secs_f64() < seconds {
        let (produced, us) = op();
        out.attempted += 1;
        out.failed += u64::from(produced != rows);
        out.result_rows += produced as u64;
        times.push(us);
    }
    out.ops = out.attempted;
    println!(
        "    {what} over {rows} rows: median {:.1} ms, n {}",
        stats::median(&times) / 1e3,
        times.len()
    );
    // Every operation is a slice of the run.
    for us in times {
        out.e2e.push(("rows_per_s", rows as f64 / (us / 1e6)));
        out.e2e.push(("ops_per_s", 1e6 / us));
    }
    out
}

/// Push a latency class's median and tail under the two names, and
/// return the printable summary with its sample count. A class too small
/// to carry any percentile fails the run's correctness: a metric must
/// never be invented.
pub fn push_latency(
    out: &mut LegOut,
    samples: &[f64],
    p50: &'static str,
    p99: &'static str,
) -> String {
    match stats::latency(samples) {
        Some(l) => {
            out.e2e.push((p50, l.p50));
            out.e2e.push((p99, l.tail));
            format!("p50 {:.1} us, p{} {:.1} us, n {}", l.p50, l.tail_pct * 100.0, l.tail, l.n)
        }
        None => {
            out.correct = false;
            format!("only {} samples, no percentile is supported", samples.len())
        }
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// What a finished run hands to `main`.
pub struct RunOut {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, with the values it is the median
    /// of (a rate: the upper quartile of, `spec::reported`): one per
    /// slice, window, set-up or recovery round; one for a count.
    pub values: BTreeMap<&'static str, Vec<f64>>,
    /// The names the run's last line lists, in the spec's order.
    pub listed: Vec<&'static str>,
}

pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    let setup: Setup = match ctx.workload.as_str() {
        "modeljoin_batch" => modeljoin_batch::boxed,
        "ml2sql_batch" => ml2sql_batch::boxed,
        "serve_point" => serve_point::boxed,
        "shard_mixed" => shard_mixed::boxed,
        "persist_rw" => persist_rw::boxed,
        other => {
            return Err(format!("unknown workload {other:?}; known: {}", spec::workload_names()))
        }
    };
    clock();
    let dir = ctx.scratch.join("fixture");
    // Set-up is timed at least three times, and for half a second where
    // it is cheap (a sub-millisecond set-up timed for only a moment reads
    // whatever the host did in that moment), and the median reported:
    // work a later change moves into set-up then shows against a steady
    // number.
    let mut setups = Vec::new();
    let mut leg = None;
    let began = Instant::now();
    while setups.len() < 3 || began.elapsed().as_secs_f64() < 0.5 {
        drop(leg.take());
        let t = Instant::now();
        leg = Some(setup(ctx.seed, &dir));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut leg = leg.expect("set up at least three times");
    let gate = leg.warm_and_check();
    println!(
        "[{:6.1} s] {}: first-operation gate {}",
        clock(),
        leg.name(),
        if gate { "passed" } else { "FAILED" }
    );
    let mut run = Run {
        leg,
        correct: gate,
        attempted: 0,
        failed: 0,
        values: BTreeMap::from([("setup_s", setups)]),
    };
    if ctx.trace {
        return run.traced(ctx);
    }

    let window_s = ctx.seconds / WINDOWS as f64;
    for w in 1..=WINDOWS {
        run.leg.prepare();
        println!("[{:6.1} s] window {w} of {WINDOWS}, {window_s:.2} s", clock());
        let out = run.leg.window(window_s);
        run.absorb(&out, true);
    }
    let mut closing = LegOut::new();
    run.leg.finish(&mut closing);
    run.absorb(&closing, true);
    // Read before the oracle of `verify` takes memory of its own.
    run.values.insert("peak_rss_mb", vec![peak_rss_mb()]);
    run.verify();
    // The contract asks every run for every metric `BENCHMARK.json` lists
    // under `end_to_end`, never zero.
    let listed: Vec<_> =
        spec::END_TO_END.iter().filter(|m| m.driver_bound.is_some()).map(|m| m.name).collect();
    for name in &listed {
        let value = run.values.get(name).map(|v| spec::reported(name, v));
        if !value.is_some_and(|v| v.is_finite() && v > 0.0) {
            return Err(format!("metric {name} has no usable value: {value:?}"));
        }
    }
    Ok(run.out(listed))
}

/// A leg being measured.
struct Run {
    leg: Box<dyn Leg>,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Run {
    fn absorb(&mut self, out: &LegOut, keep_values: bool) {
        if keep_values {
            for &(name, value) in &out.e2e {
                self.values.entry(name).or_default().push(value);
            }
        }
        self.correct &= out.correct;
        self.attempted += out.attempted;
        self.failed += out.failed;
    }

    /// The post-run oracle check.
    fn verify(&mut self) {
        let ok = self.leg.verify();
        println!(
            "[{:6.1} s] post-run oracle check {}",
            clock(),
            if ok { "passed" } else { "FAILED" }
        );
        self.correct &= ok;
    }

    fn out(self, listed: Vec<&'static str>) -> RunOut {
        let Run { correct, attempted, failed, values, .. } = self;
        RunOut { correct, attempted, failed, values, listed }
    }

    /// The traced run: the workload's own loop in four windows, span
    /// recorder on–off–off–on, then the replay of one operation of each
    /// class, then the layer probes. Lists every per-layer metric, and the
    /// end-to-end metrics `BENCHMARK.json` has no room for under
    /// `end_to_end`; one this workload does not measure reads 0.
    fn traced(mut self, ctx: &Ctx) -> Result<RunOut, String> {
        // Traced and untraced windows alternate as T U U T, so that a
        // drift over the run cancels out of the overhead instead of
        // passing for it.
        let window_s = ctx.seconds * 0.125;
        let mut counts = None;
        let (mut traced_rate, mut plain_rate) = (0.0, 0.0);
        for traced in [true, false, false, true] {
            let kind = if traced { "traced" } else { "untraced" };
            self.leg.prepare();
            println!("[{:6.1} s] {kind} window, {window_s:.2} s", clock());
            let before = obs::snapshot();
            trace::set_enabled(traced);
            let out = self.leg.window(window_s);
            trace::set_enabled(false);
            let slices: Vec<f64> =
                out.e2e.iter().filter(|m| m.0 == "ops_per_s").map(|m| m.1).collect();
            let rate = spec::reported("ops_per_s", &slices);
            if traced {
                traced_rate += rate;
                // Layer counts are read across the first traced window.
                counts
                    .get_or_insert_with(|| probes::from_counters(&before, &obs::snapshot(), &out));
            } else {
                plain_rate += rate;
            }
            // End-to-end values only ever come from untraced windows.
            self.absorb(&out, !traced);
        }
        let overhead = if plain_rate > 0.0 { 1.0 - traced_rate / plain_rate } else { 0.0 };
        let mut closing = LegOut::new();
        self.leg.finish(&mut closing);
        self.absorb(&closing, true);
        self.values.insert("peak_rss_mb", vec![peak_rss_mb()]);
        self.values.insert("trace_overhead_share", vec![overhead]);

        trace::set_enabled(true);
        let replays = self.leg.replay();
        trace::set_enabled(false);
        for r in &replays {
            let kids: f64 = r.children.iter().map(|c| c.1).sum();
            let parts: Vec<String> =
                r.children.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
            println!(
                "  replay {}: root {:.1} us = children {:.1} us [{}] + residual {:.1} us ({:.1} %)",
                r.op,
                r.root_us,
                kids,
                parts.join(", "),
                r.root_us - kids,
                r.residual_share() * 100.0
            );
        }
        let (spans, dropped) = trace::drain();
        let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
        std::fs::write(&path, trace::to_json(&ctx.workload, &spans, dropped).compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  wrote {} ({} spans, {dropped} past the cap)", path.display(), spans.len());

        self.verify();
        // The workload's fixture goes before the probes' fixtures come.
        let mut out = self.out(Vec::new());
        let mut ledger = counts.expect("a traced window ran");
        ledger.extend(probes::run(ctx)?);
        out.values.extend(ledger.into_iter().map(|(name, v)| (name, vec![v])));
        out.listed = spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .chain(spec::END_TO_END.iter().filter(|m| m.driver_bound.is_none()).map(|m| m.name))
            .collect();
        Ok(out)
    }
}
