//! Regenerates **Figure 8**: model-inference runtimes for dense-layer
//! networks — a (width x depth) grid of panels, each sweeping the fact
//! table size over all eight approaches.
//!
//! ```text
//! cargo run --release -p bench --bin figure8 [--full] [--verify]
//!     [--rows 500,2000] [--widths 32,128] [--depths 2,4]
//!     [--approaches ModelJoin_CPU,ML-To-SQL] [--budget N]
//! ```
//!
//! Output: one CSV line per cell on stdout (`width,depth,rows,approach,
//! seconds,measured|modeled|mixed`) followed by formatted panels. A GPU
//! number is marked `*` when the device model derives all of it
//! (DESIGN.md §2), `~` when it adds measured host time.

use bench::{print_panel, run_cell, Scale, MARK_LEGEND};
use indbml_core::Workload;
use vector_engine::EngineConfig;

fn main() {
    let scale = Scale::from_args();
    println!("# Figure 8: dense-layer network inference runtime");
    println!("# engine: vector_size=1024, partitions=12, parallelism=12 (paper Sec. 6.1)");
    println!("width,depth,fact_tuples,approach,seconds,kind");

    let engine = EngineConfig::default();
    for &width in &scale.widths {
        for &depth in &scale.depths {
            let workload = Workload::Dense { width, depth };
            let mut panel = Vec::new();
            for &rows in &scale.fact_sizes {
                let cells = run_cell(workload, rows, &scale, engine.clone());
                for c in &cells {
                    println!("{}", c.csv());
                }
                panel.extend(cells);
            }
            print_panel(
                &format!("Model width = {width}, depth = {depth}"),
                &panel,
                &scale.fact_sizes,
            );
        }
    }
    println!("\n{MARK_LEGEND}");
}
