//! `compare A.json B.json`: per workload and metric, both sides' medians
//! and quartiles, the ratio with its base, and a verdict by the
//! choosing-metrics rule. A is the base (the parent); B is the change.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a[i]` and `b[i]` are one pair of runs. A gain needs ≥ 10 pairs, B
/// winning ≥ 9/10 of them (ties count for neither) and medians further
/// apart than A's own quartile spread. A regression is B's median worse
/// than A's by more than the bound, or B losing by the same rule. Where
/// either side's run-to-run spread is wider than the bound, nothing can be
/// said.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 || stats::spread(a) > bound || stats::spread(b) > bound {
        return Verdict::Unresolved;
    }
    let improves = |from: f64, to: f64| match better {
        Better::Lower => to < from,
        Better::Higher => to > from,
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| improves(a[i], b[i])).count();
    let losses = (0..pairs).filter(|&i| improves(b[i], a[i])).count();
    let (q1, med_a, q3) = stats::quartiles(a);
    let med_b = stats::median(b);
    let clear = (med_b - med_a).abs() > q3 - q1;
    let decisive = |count: usize| pairs >= 10 && count * 10 >= pairs * 9 && clear;
    if decisive(wins) {
        Verdict::Better
    } else if decisive(losses)
        || improves(med_b, med_a) && (med_b - med_a).abs() > bound * med_a.abs()
    {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Two runs of the same code, by the same rule with each run's windows
/// (set-ups, recovery rounds) as its samples, asked in both directions:
/// `Worse` if either run is worse than the other, `Unresolved` if either
/// run's own windows disagree by more than the bound. A metric with one
/// value a run is judged on the gap alone.
pub fn same_code(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if let ([a], [b]) = (a, b) {
        let same = (a - b).abs() <= bound * a.abs().min(b.abs());
        return if same { Verdict::Same } else { Verdict::Worse };
    }
    match (verdict(a, b, better, bound), verdict(b, a, better, bound)) {
        (Verdict::Same, Verdict::Same) => Verdict::Same,
        (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
        _ => Verdict::Worse,
    }
}

/// `(workload, metric) → values`, one per set, in file order.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn values_of(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets = doc.get("sets").and_then(Json::as_arr).ok_or(format!("{path}: no \"sets\""))?;
    let mut out = Values::new();
    for set in sets {
        let workloads = set.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
        for (workload, result) in workloads {
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry((workload.clone(), name.clone())).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// The run length a result file was measured at.
fn seconds_of(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("settings")
        .and_then(|s| s.get("measured_seconds_per_run"))
        .and_then(Json::as_f64)
        .ok_or(format!("{path}: no run length in \"settings\""))
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let (sa, sb) = (seconds_of(path_a)?, seconds_of(path_b)?);
    if sa != sb {
        return Err(format!("{path_a} measured {sa} s a run, {path_b} {sb} s: not comparable"));
    }
    let (a, b) = (values_of(path_a)?, values_of(path_b)?);
    println!("A (base) = {path_a}\nB        = {path_b}");
    println!(
        "{:<16} {:<34} {:>13} {:>27} {:>13} {:>27} {:>9}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A"
    );
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else { continue };
        let quart = |v: &[f64]| {
            if v.len() >= 2 {
                let (q1, _, q3) = stats::quartiles(v);
                format!("[{q1:.6}, {q3:.6}]")
            } else {
                "[one run]".to_string()
            }
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        // Per-layer and report-only metrics carry no bound, so no verdict:
        // ratio only.
        let bounded = spec::end_to_end(metric).and_then(|m| Some((m.better, m.bound?)));
        let word = bounded.map_or("-", |(better, bound)| verdict(va, vb, better, bound).as_str());
        println!(
            "{workload:<16} {metric:<34} {ma:>13.6} {:>27} {mb:>13.6} {:>27} {:>9.4}  {word}",
            quart(va),
            quart(vb),
            if ma != 0.0 { mb / ma } else { f64::NAN },
        );
    }
    println!(
        "ratios are B/A with A as the base; {} pair(s) per metric",
        a.values().map(Vec::len).min().unwrap_or(0)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0))).collect()
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_wider_than_the_base_spread() {
        let base = around(100.0, 10);
        assert_eq!(verdict(&base, &around(90.0, 10), Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &around(110.0, 10), Better::Higher, 0.1), Verdict::Better);
        // Nine pairs are not enough to claim a gain.
        assert_eq!(verdict(&base[..9], &around(90.0, 9), Better::Lower, 0.1), Verdict::Same);
        // A gap inside the base's own quartile spread is not a gain.
        assert_eq!(verdict(&base, &around(99.9, 10), Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression_and_wide_spread_is_unresolved() {
        let base = around(100.0, 10);
        assert_eq!(verdict(&base, &around(120.0, 5), Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &around(105.0, 5), Better::Lower, 0.1), Verdict::Same);
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 60.0 } else { 140.0 }).collect();
        assert_eq!(verdict(&noisy, &around(50.0, 10), Better::Lower, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &[50.0], Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn two_runs_of_the_same_code_differ_only_when_their_own_windows_are_steadier_than_the_gap() {
        let run = |center: f64| around(center, 5);
        assert_eq!(same_code(&run(100.0), &run(104.0), Better::Higher, 0.1), Verdict::Same);
        // 15 % apart with windows that agree within 1 %: in either order.
        assert_eq!(same_code(&run(100.0), &run(115.0), Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(same_code(&run(115.0), &run(100.0), Better::Higher, 0.1), Verdict::Worse);
        // The same gap under windows that disagree by more than the bound.
        let noisy = [80.0, 120.0, 100.0, 125.0, 75.0];
        assert_eq!(same_code(&noisy, &run(115.0), Better::Higher, 0.1), Verdict::Unresolved);
        // "Exact": any disagreement among the windows is unresolved.
        let rates = [80e3, 160e3, 80e3, 40e3, 80e3];
        assert_eq!(same_code(&rates, &[80e3; 5], Better::Higher, 0.0), Verdict::Unresolved);
        assert_eq!(same_code(&[80e3; 5], &[40e3; 5], Better::Higher, 0.0), Verdict::Worse);
        // One value a run: the gap alone.
        assert_eq!(same_code(&[12.5], &[13.0], Better::Lower, 0.1), Verdict::Same);
        assert_eq!(same_code(&[12.5], &[14.0], Better::Lower, 0.1), Verdict::Worse);
    }
}
