//! Shared harness for the figure/table binaries and criterion benches.
//!
//! Every binary accepts `--full` to restore the paper's parameter ranges
//! (450k tuples, widths up to 512, depths up to 8). The default ranges are
//! scaled down for a single-core host; the *sweep structure* (who is
//! compared against whom, at which model shapes) is identical. See
//! EXPERIMENTS.md for the recorded paper-vs-measured comparison.

use indbml_core::{Approach, Experiment, ExperimentConfig, Workload};
use nn::Model;
use std::time::Duration;
use vector_engine::EngineConfig;

/// Parameter ranges for a sweep.
#[derive(Clone, Debug)]
pub struct Scale {
    pub fact_sizes: Vec<usize>,
    pub widths: Vec<usize>,
    pub depths: Vec<usize>,
    pub approaches: Vec<Approach>,
    /// Upper bound on `rows * sum(prev_dim * dim)` for running the
    /// ML-To-SQL cell; beyond it the cell is reported as skipped. The
    /// relational formulation materializes one intermediate row per
    /// (tuple, edge) pair, which the paper itself reports as its scaling
    /// wall (Sec. 6.2.1) — on one core a hard budget keeps the harness
    /// finishing.
    pub ml2sql_budget: u64,
    /// Verify every approach against the oracle while sweeping.
    pub verify: bool,
}

impl Scale {
    /// The scaled-down default sweep.
    pub fn default_scale() -> Scale {
        Scale {
            fact_sizes: vec![500, 2_000, 8_000],
            widths: vec![32, 128],
            depths: vec![2, 4],
            approaches: Approach::ALL.to_vec(),
            ml2sql_budget: 60_000_000,
            verify: false,
        }
    }

    /// The paper's full sweep (Sec. 6.1).
    pub fn paper_scale() -> Scale {
        Scale {
            fact_sizes: vec![50_000, 100_000, 200_000, 450_000],
            widths: vec![32, 128, 512],
            depths: vec![2, 4, 8],
            approaches: Approach::ALL.to_vec(),
            ml2sql_budget: 2_000_000_000,
            verify: false,
        }
    }

    /// Parse CLI arguments: `--full`, `--verify`, `--rows n1,n2`,
    /// `--widths w1,w2`, `--depths d1,d2`, `--approaches A,B`,
    /// `--budget N`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = if args.iter().any(|a| a == "--full") {
            Scale::paper_scale()
        } else {
            Scale::default_scale()
        };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--rows" => {
                    scale.fact_sizes = parse_list(args.get(i + 1));
                    i += 1;
                }
                "--widths" => {
                    scale.widths = parse_list(args.get(i + 1));
                    i += 1;
                }
                "--depths" => {
                    scale.depths = parse_list(args.get(i + 1));
                    i += 1;
                }
                "--budget" => {
                    scale.ml2sql_budget =
                        args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(scale.ml2sql_budget);
                    i += 1;
                }
                "--approaches" => {
                    if let Some(list) = args.get(i + 1) {
                        scale.approaches = list.split(',').filter_map(Approach::parse).collect();
                    }
                    i += 1;
                }
                "--verify" => scale.verify = true,
                _ => {}
            }
            i += 1;
        }
        scale
    }
}

fn parse_list(arg: Option<&String>) -> Vec<usize> {
    arg.map(|s| s.split(',').filter_map(|p| p.trim().parse().ok()).collect()).unwrap_or_default()
}

/// The ML-To-SQL work estimate: one intermediate row per (tuple, edge).
/// For LSTM layers the unrolled time-step states are re-evaluated by every
/// later step (nested queries, no CTEs — Sec. 4.2), so state `t` of `T`
/// runs `2^(T-1-t)` times; the sum is `(2^T - 1)` state evaluations of
/// `features*units + units^2` edges each.
pub fn ml2sql_cost(rows: usize, model: &Model) -> u64 {
    let mut edges = 0u64;
    let mut prev = model.input_dim() as u64;
    for layer in model.layers() {
        match layer {
            nn::Layer::Dense(_) => {
                let dim = layer.output_dim() as u64;
                edges += prev * dim;
                prev = dim;
            }
            nn::Layer::Lstm(l) => {
                let n = l.units() as u64;
                let f = l.input_features as u64;
                let evals = (1u64 << l.timesteps.min(20)) - 1;
                edges += evals * (f * n + n * n);
                prev = n;
            }
        }
    }
    rows as u64 * edges
}

/// The footnote of a figure's panels: what the `*` and `~` marks mean.
pub const MARK_LEGEND: &str = "(*) GPU runtime wholly modeled device time, from the calibrated \
     device model (DESIGN.md §2); it repeats exactly.\n(~) GPU runtime mixed: modeled device \
     time plus measured host wall time (e.g. the client's wire path), which varies from run to run.";

/// One measured cell of a figure.
#[derive(Clone, Debug)]
pub struct Cell {
    pub workload: Workload,
    pub fact_rows: usize,
    pub approach: Approach,
    /// `None` when the cell was skipped by the budget (or, outside
    /// `--verify`, failed).
    pub runtime: Option<Duration>,
    /// The modeled device time inside `runtime` (zero on the CPU).
    pub modeled: Duration,
}

impl Cell {
    /// How the runtime was obtained: `measured` (host wall time only),
    /// `modeled` (device-model time only) or `mixed` (both).
    pub fn kind(&self) -> &'static str {
        match self.runtime {
            _ if self.modeled.is_zero() => "measured",
            Some(d) if d == self.modeled => "modeled",
            _ => "mixed",
        }
    }

    /// The panel mark of [`Cell::kind`]: none, `*` or `~`.
    fn mark(&self) -> &'static str {
        match self.kind() {
            "modeled" => "*",
            "mixed" => "~",
            _ => "",
        }
    }

    pub fn csv(&self) -> String {
        let (width, depth) = match self.workload {
            Workload::Dense { width, depth } => (width, depth),
            Workload::Lstm { width } => (width, 0),
        };
        match self.runtime {
            Some(d) => format!(
                "{width},{depth},{rows},{a},{secs:.6},{m}",
                rows = self.fact_rows,
                a = self.approach.label(),
                secs = d.as_secs_f64(),
                m = self.kind()
            ),
            None => format!(
                "{width},{depth},{rows},{a},skipped,-",
                rows = self.fact_rows,
                a = self.approach.label()
            ),
        }
    }
}

/// Run one sweep cell: build the experiment once and measure every
/// requested approach on it.
pub fn run_cell(
    workload: Workload,
    fact_rows: usize,
    scale: &Scale,
    engine: EngineConfig,
) -> Vec<Cell> {
    let config = ExperimentConfig { engine, ..ExperimentConfig::new(workload, fact_rows) };
    let model = workload.model(config.seed);
    let experiment = match Experiment::build(config) {
        Ok(e) => e,
        Err(e) => {
            fail(scale, format!("setup failed for {}: {e}", workload.label()));
            return Vec::new();
        }
    };
    let oracle = scale.verify.then(|| {
        let oracle = experiment.oracle_predictions();
        oracle.unwrap_or_else(|e| panic!("oracle failed on {}: {e}", workload.label()))
    });
    let mut cells = Vec::new();
    let skipped =
        |approach| Cell { workload, fact_rows, approach, runtime: None, modeled: Duration::ZERO };
    for &approach in &scale.approaches {
        if approach == Approach::Ml2Sql && ml2sql_cost(fact_rows, &model) > scale.ml2sql_budget {
            cells.push(skipped(approach));
            continue;
        }
        match experiment.run(approach, scale.verify) {
            Ok(outcome) => {
                if let (Some(oracle), Some(preds)) = (&oracle, &outcome.predictions) {
                    let max_diff = preds
                        .iter()
                        .zip(oracle)
                        .map(|((_, p), (_, o))| (p - o).abs())
                        .fold(0.0f64, f64::max);
                    assert!(max_diff < 1e-3, "{approach} diverges from oracle by {max_diff}");
                }
                cells.push(Cell {
                    runtime: Some(outcome.runtime),
                    modeled: outcome.modeled,
                    ..skipped(approach)
                });
            }
            Err(e) => {
                fail(scale, format!("{approach} failed on {}: {e}", workload.label()));
                cells.push(skipped(approach));
            }
        }
    }
    cells
}

/// Report a failed setup or approach. Under `--verify` it fails the run,
/// as an oracle mismatch does: a failure must not pass as a skipped cell.
/// Otherwise it goes to stderr and the cell reads `skipped`.
fn fail(scale: &Scale, message: String) {
    assert!(!scale.verify, "{message}");
    eprintln!("{message}");
}

/// Print a figure panel: one line per approach, one column per fact size.
/// GPU results carry [`Cell::kind`]'s mark, explained by [`MARK_LEGEND`].
pub fn print_panel(title: &str, cells: &[Cell], fact_sizes: &[usize]) {
    println!("\n== {title} ==");
    print!("{:<16}", "approach");
    for n in fact_sizes {
        print!("{:>16}", format!("{n} tuples"));
    }
    println!();
    let mut approaches: Vec<Approach> = Vec::new();
    for c in cells {
        if !approaches.contains(&c.approach) {
            approaches.push(c.approach);
        }
    }
    for a in approaches {
        print!("{:<16}", a.label());
        for &n in fact_sizes {
            let cell = cells.iter().find(|c| c.approach == a && c.fact_rows == n);
            match cell.and_then(|c| Some((c.runtime?, c.mark()))) {
                Some((d, mark)) => print!("{:>16}", format!("{:.3}s{mark}", d.as_secs_f64())),
                None => print!("{:>16}", "skipped"),
            }
        }
        println!();
    }
}

/// A small-but-not-trivial engine configuration for criterion benches.
pub fn bench_engine_config() -> EngineConfig {
    EngineConfig { vector_size: 1024, partitions: 4, parallelism: 2, ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml2sql_cost_counts_edges_times_rows() {
        let model = nn::paper::dense_model(8, 2, 0);
        // edges: 4*8 + 8*8 + 8*1 = 104
        assert_eq!(ml2sql_cost(10, &model), 1040);
    }

    #[test]
    fn default_scale_is_within_budget_for_small_models() {
        let scale = Scale::default_scale();
        let model = nn::paper::dense_model(32, 2, 0);
        assert!(ml2sql_cost(scale.fact_sizes[0], &model) < scale.ml2sql_budget);
    }

    #[test]
    fn cell_csv_formats() {
        let cell = Cell {
            workload: Workload::Dense { width: 32, depth: 2 },
            fact_rows: 100,
            approach: Approach::Udf,
            runtime: Some(Duration::from_millis(1500)),
            modeled: Duration::ZERO,
        };
        assert_eq!(cell.csv(), "32,2,100,UDF,1.500000,measured");
        let skipped = Cell { runtime: None, ..cell.clone() };
        assert!(skipped.csv().ends_with("skipped,-"));
        let modeled = Cell { modeled: Duration::from_millis(1500), ..cell.clone() };
        assert_eq!((modeled.kind(), modeled.mark()), ("modeled", "*"));
        let mixed = Cell { modeled: Duration::from_millis(1400), ..cell };
        assert_eq!((mixed.kind(), mixed.mark()), ("mixed", "~"));
        assert!(mixed.csv().ends_with(",mixed"));
    }

    #[test]
    #[should_panic(expected = "UDF failed")]
    fn a_failure_under_verify_fails_the_run() {
        let scale = Scale { verify: true, ..Scale::default_scale() };
        fail(&scale, "UDF failed on Dense(4,2): host gone".into());
    }

    #[test]
    fn run_cell_produces_all_requested_approaches() {
        let mut scale = Scale::default_scale();
        scale.approaches = vec![Approach::ModelJoinCpu, Approach::Ml2Sql];
        scale.verify = true;
        let cfg =
            EngineConfig { vector_size: 64, partitions: 2, parallelism: 2, ..Default::default() };
        let cells = run_cell(Workload::Dense { width: 4, depth: 2 }, 60, &scale, cfg);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.runtime.is_some()));
    }
}
