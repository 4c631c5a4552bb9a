//! Order statistics and the two rules measured quantities use. A measured
//! phase is cut into [`WINDOWS`] equal windows, each window yields its own
//! value, and the value reported is the median of the window values. A
//! rate is read over many more, shorter slices of the run and is their
//! upper quartile ([`upper_quartile`]). Either is what lets a number
//! repeat on a shared two-core box, where other tenants slow a stretch of
//! a run.

pub const WINDOWS: usize = 5;

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// A tail needs this many samples beyond it to be worth reporting.
const BEYOND: f64 = 10.0;

pub fn sort(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let s = sort(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The rate a run reports from the rates of its slices: their upper
/// quartile, the median of the faster half. Whatever else the host runs
/// can only slow a slice down, so the faster half is the part of the run
/// the host left alone, and its median is what the code did there; a
/// change to the code moves every slice, and this value with them.
pub fn upper_quartile(rates: &[f64]) -> f64 {
    quantile(&sort(rates.to_vec()), 0.75)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads computed here match the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sort(values.to_vec());
    assert!(s.len() >= 2, "quartiles need two samples");
    let (n, m) = (4usize, s.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it; `None` below twenty samples, where not even the median qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|p| n as f64 * (1.0 - p) >= BEYOND)
}

#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at: 0.99 where the window holds
    /// ≥ 1,000 samples, else the highest one with ten samples beyond it.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarise one latency class of one window: its median and its tail,
/// both over all of the window's samples.
pub fn latency(samples: &[f64]) -> Option<Latency> {
    let n = samples.len();
    let tail_pct = supported_tail(n)?.min(0.99);
    let sorted = sort(samples.to_vec());
    Some(Latency { n, p50: quantile(&sorted, 0.5), tail_pct, tail: quantile(&sorted, tail_pct) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reported_value_is_the_median_of_the_window_values() {
        // Five windows; two were slowed by the host and are voted out.
        assert_eq!(median(&[31.4, 41.0, 31.6, 36.2, 31.5]), 31.6);
        assert_eq!(median(&[323e3, 260e3, 325e3, 300e3, 318e3]), 318e3);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_rate_is_the_median_of_the_faster_half_of_the_slices() {
        // Twelve slices at the code's own pace, within 1 %; the host slowed
        // eight more by a tenth to a half. The median follows the host,
        // the upper quartile does not.
        let clean = (0..12).map(|i| 5_000.0 + 4.0 * i as f64);
        let slowed = (0..8).map(|i| 4_500.0 - 250.0 * i as f64);
        let slices: Vec<f64> = slowed.clone().chain(clean.clone()).collect();
        assert_eq!((upper_quartile(&slices), median(&slices)), (5_024.0, 5_006.0));
        let mostly_slowed: Vec<f64> = slowed.clone().chain(slowed).chain(clean).collect();
        assert_eq!((upper_quartile(&mostly_slowed), median(&mostly_slowed)), (5_016.0, 4_375.0));
    }

    #[test]
    fn a_window_s_tail_is_its_own_p99_and_the_run_reports_the_median_window() {
        // 2,000 samples, 30 of them (1.5 %) slowed by a stall: the window's
        // p99 is the stall, as its name says.
        let window = |stalled: usize| -> Vec<f64> {
            (0..2_000usize)
                .map(|i| if i < stalled { 4_000.0 } else { 50.0 + (i % 100) as f64 })
                .collect()
        };
        let l = latency(&window(30)).unwrap();
        assert_eq!((l.n, l.tail_pct, l.p50, l.tail), (2_000, 0.99, 101.0, 4_000.0));
        // Two of five windows stalled: the median window did not.
        let tails: Vec<f64> =
            [30, 0, 0, 30, 0].iter().map(|&s| latency(&window(s)).unwrap().tail).collect();
        assert_eq!(median(&tails), 148.0);
    }

    #[test]
    fn a_small_sample_reports_the_percentile_it_supports() {
        let samples: Vec<f64> = (0..1500).map(|i| if i % 50 == 0 { 9.0 } else { 1.0 }).collect();
        let l = latency(&samples).unwrap();
        assert_eq!((l.tail_pct, l.tail), (0.99, 9.0));
        assert_eq!(latency(&samples[..300]).unwrap().tail_pct, 0.95);
        assert!(latency(&samples[..19]).is_none());
    }
}
