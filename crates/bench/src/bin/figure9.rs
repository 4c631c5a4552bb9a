//! Regenerates **Figure 9**: LSTM network inference runtimes — one panel
//! per LSTM width (single LSTM layer + one output neuron, 3 time steps on
//! a generated sine series), sweeping the fact table size over all eight
//! approaches.
//!
//! Same CLI as `figure8`; `--depths` is ignored (the paper uses a single
//! LSTM layer, Sec. 6.1: "As typically a single LSTM layer is used, we do
//! not use different model_depths in this experiment").

use bench::{print_panel, run_cell, Scale, MARK_LEGEND};
use indbml_core::Workload;
use vector_engine::EngineConfig;

fn main() {
    let scale = Scale::from_args();
    println!("# Figure 9: LSTM network inference runtime (3 time steps)");
    println!("# engine: vector_size=1024, partitions=12, parallelism=12 (paper Sec. 6.1)");
    println!("width,depth,fact_tuples,approach,seconds,kind");

    let engine = EngineConfig::default();
    for &width in &scale.widths {
        let workload = Workload::Lstm { width };
        let mut panel = Vec::new();
        for &rows in &scale.fact_sizes {
            let cells = run_cell(workload, rows, &scale, engine.clone());
            for c in &cells {
                println!("{}", c.csv());
            }
            panel.extend(cells);
        }
        print_panel(&format!("Model width = {width}"), &panel, &scale.fact_sizes);
    }
    println!("\n{MARK_LEGEND}");
}
