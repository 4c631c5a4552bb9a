//! End-to-end ML-To-SQL sweep: the generated ModelJoin SQL (nested joins +
//! per-layer `SUM ... GROUP BY` aggregations, Sec. 4.3–4.4) timed through
//! the vectorized join/agg operators. The committed `BENCH_ml2sql.json` is
//! PR 3's record of the rowwise-vs-vectorized comparison; the rowwise
//! operators are now only a test oracle, so this sweep times vectorized
//! cells alone.
//!
//! ```text
//! cargo run --release -p bench --bin ml2sql_sweep [--quick]
//! ```
//!
//! Widths {32, 128, 512} × depths {2, 4}; fact rows are sized per model so
//! every cell materializes roughly the same number of intermediate
//! (tuple, edge) rows — the quantity that dominates ML-To-SQL runtime (the
//! paper's scaling wall, Sec. 6.2.1). Cells run the paper's engine setup
//! (vector size 1024, 12 partitions, parallelism 12); the ML-To-SQL plan
//! scans the fact table twice, so partition parallelism does not apply and
//! the cells time the join/agg operators. Results go to
//! stdout and `BENCH_ml2sql.json` at the repository root; `--quick` runs
//! one tiny cell as a smoke test and leaves the JSON untouched.

use bench::ml2sql_cost;
use indbml_core::{Approach, Experiment, ExperimentConfig, Workload};

struct SweepRow {
    width: usize,
    depth: usize,
    rows: usize,
    /// Intermediate (tuple, edge) rows the relational plan materializes.
    work: u64,
    vectorized_s: f64,
}

/// Best-of-`reps` ML-To-SQL runtime. The minimum is robust against
/// scheduler interference on the shared single-core host.
fn time_ml2sql(workload: Workload, rows: usize, reps: usize) -> Option<f64> {
    let config = ExperimentConfig::new(workload, rows);
    let experiment = match Experiment::build(config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("setup failed for {}: {e}", workload.label());
            return None;
        }
    };
    let samples: Vec<f64> = (0..reps)
        .filter_map(|_| {
            experiment.run(Approach::Ml2Sql, false).ok().map(|o| o.runtime.as_secs_f64())
        })
        .collect();
    samples.into_iter().min_by(|a, b| a.total_cmp(b))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Per-cell intermediate-row budget: rows are chosen as budget / edges,
    // so wide-deep models run fewer tuples through the same plan shape.
    let (budget, reps, widths, depths): (u64, usize, &[usize], &[usize]) =
        if quick { (200_000, 1, &[32], &[2]) } else { (12_000_000, 5, &[32, 128, 512], &[2, 4]) };

    println!("# ML-To-SQL operator sweep (cores = {cores}, budget = {budget} edge-rows)");
    println!("width,depth,rows,work,vectorized_s,edge_rows_per_s");

    let mut rows_out: Vec<SweepRow> = Vec::new();
    for &depth in depths {
        for &width in widths {
            let workload = Workload::Dense { width, depth };
            let edges = ml2sql_cost(1, &workload.model(0));
            let rows = ((budget / edges.max(1)) as usize).clamp(24, 200_000);
            let work = ml2sql_cost(rows, &workload.model(0));
            let Some(vectorized_s) = time_ml2sql(workload, rows, reps) else {
                continue;
            };
            println!(
                "{width},{depth},{rows},{work},{vectorized_s:.4},{:.0}",
                work as f64 / vectorized_s
            );
            rows_out.push(SweepRow { width, depth, rows, work, vectorized_s });
        }
    }

    // Quick mode is a smoke test; don't clobber recorded full-sweep
    // results. It does measure what full mode cannot isolate: the cost of
    // the always-on observability spans, by re-running the quick cell with
    // spans off vs on. Interleaved min-of-reps so scheduler noise hits
    // both sides equally; budget is < 2% overhead.
    if quick {
        let workload = Workload::Dense { width: widths[0], depth: depths[0] };
        let edges = ml2sql_cost(1, &workload.model(0));
        let rows = ((budget / edges.max(1)) as usize).clamp(24, 200_000);
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            obs::set_spans_enabled(false);
            if let Some(t) = time_ml2sql(workload, rows, 1) {
                off = off.min(t);
            }
            obs::set_spans_enabled(true);
            if let Some(t) = time_ml2sql(workload, rows, 1) {
                on = on.min(t);
            }
        }
        if off.is_finite() && on.is_finite() {
            let overhead = (on / off - 1.0) * 100.0;
            println!("\nobs spans overhead: {overhead:+.2}% (spans on {on:.4}s, off {off:.4}s)");
        }
        return;
    }

    // Hand-rolled JSON: the repository vendors no serializer, and the
    // schema is one flat array.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"edge_row_budget\": {budget},\n"));
    json.push_str("  \"ml2sql\": [\n");
    for (i, r) in rows_out.iter().enumerate() {
        let sep = if i + 1 < rows_out.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"width\": {}, \"depth\": {}, \"rows\": {}, \"work\": {}, \
             \"vectorized_s\": {:.4}}}{sep}\n",
            r.width, r.depth, r.rows, r.work, r.vectorized_s
        ));
    }
    json.push_str("  ],\n");
    // Per-stage observability snapshot of the whole sweep: join/agg rows
    // and wall time, plan-cache traffic, GEMM counts.
    json.push_str(&format!("  \"metrics\": {}\n", obs::snapshot().render_json("  ")));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ml2sql.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
