//! Lightweight, always-on observability for the in-database ML stack.
//!
//! The paper's argument rests on *measured* per-stage latency breakdowns
//! (build vs. probe vs. pack vs. BLAS, Sec. 5–6); this crate is the
//! substrate every runtime layer reports through. Three primitives, all
//! lock-free and process-global:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics, always on. A counter
//!   increment is one `fetch_add`; there is no way (and no need) to turn
//!   them off.
//! * [`Histogram`] — fixed log2-scale buckets (64 of them, one per power
//!   of two) over `u64` samples, each bucket a relaxed atomic. Recording
//!   is a `leading_zeros` plus two `fetch_add`s; snapshots derive
//!   approximate quantiles from the bucket counts.
//! * [`span`] — a scoped timer recording its elapsed microseconds into a
//!   histogram on drop. Spans are the only primitive with measurable
//!   cost (two `Instant::now` calls), so they are gated by a global flag
//!   ([`set_spans_enabled`], the only switch — no engine config writes
//!   it); the disabled path is one relaxed load and no clock read.
//!
//! Every metric lives in the static catalog of [`metrics`] — plain
//! `static` items referenced directly by the instrumented crates, so
//! there is no registration machinery and no startup cost. [`snapshot`]
//! walks the catalog into a [`MetricsSnapshot`], which renders as a text
//! report ([`MetricsSnapshot::render`]) or as JSON for embedding in the
//! benchmark result files ([`MetricsSnapshot::render_json`]).
//!
//! Metrics are process-wide, not per-engine: tests assert on deltas, and
//! multi-engine processes (the benches) read one merged view — the same
//! trade DBMS-global counters make.

pub mod metrics;

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing event count. All operations are relaxed:
/// counters order nothing, they only tally.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// An instantaneous level (queue depth, pool size). Signed so transient
/// dips below a racy zero don't wrap.
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `b`
/// (1..=63) holds values in `[2^(b-1), 2^b)`, with the top bucket
/// absorbing everything at and above `2^62`.
pub const HIST_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples with fixed log2-scale
/// buckets. Quantiles read from a snapshot are upper bounds of the
/// matching bucket — at most 2x off, which is plenty for latency
/// distributions spanning orders of magnitude.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (the unit of every `*_us` metric).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the bucket state (relaxed reads; exact
    /// under quiescence, approximate under concurrent recording).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Materialized histogram state with derived statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Approximate quantile `q` in [0, 1]: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`, clamped to the
    /// recorded maximum. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let upper = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Global span gate. Defaults to on; [`set_spans_enabled`] is the only
/// writer (the overhead-measuring benches flip it), so constructing an
/// engine never changes it.
static SPANS_ENABLED: AtomicBool = AtomicBool::new(true);

pub fn set_spans_enabled(enabled: bool) {
    SPANS_ENABLED.store(enabled, Ordering::Relaxed);
}

#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// A scoped timer: created by [`span`], records the elapsed microseconds
/// into its histogram when dropped. When spans are disabled the guard is
/// inert — no clock is read on either end.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    hist: &'static Histogram,
    start: Option<Instant>,
}

/// Open a span over `hist`. One relaxed load when disabled.
#[inline]
pub fn span(hist: &'static Histogram) -> Span {
    let start = if spans_enabled() { Some(Instant::now()) } else { None };
    Span { hist, start }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_duration(start.elapsed());
        }
    }
}

/// Per-stage metric bundle used by the executor and the ModelJoin probe
/// path: row and batch throughput plus an (inclusive) time histogram.
#[derive(Debug, Default)]
pub struct StageMetrics {
    pub rows: Counter,
    pub batches: Counter,
    pub time_us: Histogram,
}

impl StageMetrics {
    pub const fn new() -> StageMetrics {
        StageMetrics { rows: Counter::new(), batches: Counter::new(), time_us: Histogram::new() }
    }
}

/// A point-in-time copy of the whole metric catalog.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, i64)>,
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

/// Snapshot every metric in the catalog (see [`metrics`]).
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for &(name, c) in metrics::COUNTERS {
        snap.counters.push((name, c.get()));
    }
    for &(name, g) in metrics::GAUGES {
        snap.gauges.push((name, g.get()));
    }
    for &(name, h) in metrics::HISTOGRAMS {
        snap.histograms.push((name, h.snapshot()));
    }
    for &(name, s) in metrics::STAGES {
        snap.counters.push((name, s.rows.get()));
        // Stage names end in ".rows"; derive the sibling metric names.
        let base = name.strip_suffix(".rows").unwrap_or(name);
        snap.counters.push((metrics::stage_batches_name(base), s.batches.get()));
        snap.histograms.push((metrics::stage_time_name(base), s.time_us.snapshot()));
    }
    snap
}

impl MetricsSnapshot {
    /// Value of a counter by full name; 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// Value of a gauge by full name; 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// Histogram snapshot by full name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Human-readable report: one line per metric, histograms with
    /// count / mean / p50 / p99 / max. Zero-count metrics are included —
    /// an empty line is information too.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name} count={} mean={:.1} p50={} p99={} max={}\n",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            ));
        }
        out
    }

    /// The snapshot as a JSON object (counters, gauges, and summarized
    /// histograms), indented by `indent` for embedding in hand-rolled
    /// benchmark JSON. The repository vendors no serializer, so this is
    /// written by hand like the `BENCH_*.json` emitters.
    pub fn render_json(&self, indent: &str) -> String {
        let mut out = String::new();
        let field = |out: &mut String, items: Vec<String>, name: &str, last: bool| {
            out.push_str(&format!("{indent}  \"{name}\": {{\n"));
            for (i, item) in items.iter().enumerate() {
                let sep = if i + 1 < items.len() { "," } else { "" };
                out.push_str(&format!("{indent}    {item}{sep}\n"));
            }
            out.push_str(&format!("{indent}  }}{}\n", if last { "" } else { "," }));
        };
        out.push_str("{\n");
        field(
            &mut out,
            self.counters.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect(),
            "counters",
            false,
        );
        field(
            &mut out,
            self.gauges.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect(),
            "gauges",
            false,
        );
        field(
            &mut out,
            self.histograms
                .iter()
                .map(|(n, h)| {
                    format!(
                        "\"{n}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \
                         \"max\": {}}}",
                        h.count,
                        h.sum,
                        h.quantile(0.50),
                        h.quantile(0.99),
                        h.max
                    )
                })
                .collect(),
            "histograms",
            true,
        );
        out.push_str(&format!("{indent}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(3);
        c.add(2);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 5, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max, 1000);
        assert_eq!(s.quantile(0.0), 0);
        // p50 falls in the [4, 8) bucket of the three 5s: upper bound 7.
        assert_eq!(s.quantile(0.5), 7);
        // The top quantile is clamped to the true maximum.
        assert_eq!(s.quantile(1.0), 1000);
        assert!((s.mean() - 1116.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.max, s.quantile(0.99)), (0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn span_records_only_when_enabled() {
        static H: Histogram = Histogram::new();
        let was = spans_enabled();
        set_spans_enabled(false);
        {
            let _s = span(&H);
        }
        assert_eq!(H.count(), 0, "disabled span must not record");
        set_spans_enabled(true);
        {
            let _s = span(&H);
        }
        assert_eq!(H.count(), 1);
        set_spans_enabled(was);
    }

    #[test]
    fn snapshot_renders_every_catalog_metric() {
        // Touch one metric of each kind so the report provably carries
        // real values, then check the renderers.
        metrics::TENSOR_GEMM_CALLS.add(1);
        metrics::SERVE_QUEUE_DEPTH.set(3);
        metrics::SERVE_BATCH_ROWS.record(8);
        metrics::EXEC_SCAN.rows.add(10);
        let snap = snapshot();
        assert!(snap.counter("tensor.gemm.calls") >= 1);
        assert!(snap.counter("exec.scan.rows") >= 10);
        assert!(snap.counter("exec.scan.batches") < u64::MAX);
        assert!(snap.histogram("exec.scan.time_us").is_some());
        assert!(snap.histogram("serve.batch.rows").is_some());

        let text = snap.render();
        let json = snap.render_json("");
        for (name, _) in &snap.counters {
            assert!(text.contains(name), "text report must list {name}");
            assert!(json.contains(name), "json report must list {name}");
        }
        assert!(text.contains("serve.queue.depth"));
        assert!(json.ends_with('}'));
    }
}
