//! Mixed-workload sweep: concurrent SQL scans + inference serving on the
//! one shared scheduler pool, fp32 against int8 serving.
//!
//! ```text
//! cargo run --release -p bench --bin mixed_sweep [--quick]
//! ```
//!
//! Half the clients hammer an aggregation scan over the fact table, half
//! submit single-row predictions, all closed-loop. Scans run on the
//! scheduler pool and each predict batch on the client thread that leads
//! it, so the headline numbers are total throughput and predict p99 at the
//! highest client count. Results go to stdout and `BENCH_mixed.json`; `--quick` runs one
//! tiny cell per mode as a smoke test and leaves the JSON untouched.

use indbml_core::{drive_mixed_loop, Experiment, ExperimentConfig, MixedLoadConfig, Workload};
use serve::ServeConfig;
use std::time::Duration;
use tensor::Device;
use vector_engine::EngineConfig;

struct Cell {
    mode: &'static str,
    clients: usize,
    sql_completed: usize,
    predict_completed: usize,
    total_rps: f64,
    sql_p50_us: u64,
    sql_p99_us: u64,
    predict_p50_us: u64,
    predict_p99_us: u64,
}

/// One experiment per serving dtype: `quantized` turns the engine's
/// `quantized_inference` on, which is what routes predictions through
/// the int8 model.
fn build_experiment(fact_rows: usize, quantized: bool) -> Experiment {
    // Paper-default partitioning (12); the pool is sized from
    // `worker_threads` (0 = machine cores).
    let config = ExperimentConfig {
        engine: EngineConfig {
            vector_size: 256,
            quantized_inference: quantized,
            ..Default::default()
        },
        ..ExperimentConfig::new(Workload::Dense { width: 64, depth: 4 }, fact_rows)
    };
    Experiment::build(config).expect("experiment setup")
}

fn run_cell(ex: &Experiment, mode: &'static str, clients: usize, window: Duration) -> Cell {
    // The production serving configuration: batching + model cache on.
    let mut cfg = ServeConfig::from_engine(&ex.config().engine);
    cfg.max_batch_rows = cfg.max_batch_rows.min(64);
    let server = ex.serve(cfg, Device::cpu());

    let dim = ex.meta.input_dim;
    let inputs: Vec<Vec<f32>> = (0..256)
        .map(|i| (0..dim).map(|c| ((i * 31 + c * 7) % 100) as f32 / 100.0).collect())
        .collect();
    let load = MixedLoadConfig {
        sql_clients: clients / 2,
        predict_clients: clients - clients / 2,
        duration: window,
        sql: "SELECT COUNT(*) AS n, SUM(c0) AS s0, MIN(c1) AS lo, MAX(c2) AS hi \
              FROM facts WHERE c0 > 0.1"
            .to_string(),
    };
    let stats = drive_mixed_loop(&server, "model", &inputs, &load);
    server.shutdown();
    Cell {
        mode,
        clients,
        sql_completed: stats.sql.completed,
        predict_completed: stats.predict.completed,
        total_rps: stats.total_rps,
        sql_p50_us: stats.sql.p50_us,
        sql_p99_us: stats.sql.p99_us,
        predict_p50_us: stats.predict.p50_us,
        predict_p99_us: stats.predict.p99_us,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let (fact_rows, window, client_counts): (usize, Duration, &[usize]) = if quick {
        (2_000, Duration::from_millis(200), &[2])
    } else {
        (10_000, Duration::from_secs(3), &[2, 4, 8])
    };

    println!("# mixed_sweep (cores = {cores}, fact_rows = {fact_rows}, window = {window:?}/cell)");
    println!("mode,clients,sql_done,predict_done,total_rps,sql_p50,sql_p99,pred_p50,pred_p99");

    let mut cells: Vec<Cell> = Vec::new();
    // The int8 cells swap the serve path to the quantized model — same
    // mixed load, integer GEMM under the predictions.
    for (mode, quantized) in [("unified", false), ("unified-int8", true)] {
        let ex = build_experiment(fact_rows, quantized);
        for &clients in client_counts {
            let cell = run_cell(&ex, mode, clients, window);
            println!(
                "{},{},{},{},{:.1},{},{},{},{}",
                cell.mode,
                cell.clients,
                cell.sql_completed,
                cell.predict_completed,
                cell.total_rps,
                cell.sql_p50_us,
                cell.sql_p99_us,
                cell.predict_p50_us,
                cell.predict_p99_us
            );
            cells.push(cell);
        }
    }

    let max_clients = *client_counts.last().expect("non-empty");
    let find = |mode: &str| {
        cells.iter().find(|c| c.mode == mode && c.clients == max_clients).expect("cell measured")
    };
    let (uni, int8) = (find("unified"), find("unified-int8"));
    let i8_speedup = int8.total_rps / uni.total_rps.max(1e-9);
    println!(
        "\nunified-int8 vs unified at {max_clients} clients: {i8_speedup:.2}x throughput, \
         predict p99 {}us vs {}us",
        int8.predict_p99_us, uni.predict_p99_us
    );

    // Quick mode is a smoke test; don't clobber recorded full-sweep results.
    if quick {
        return;
    }

    let fmt_cell = |c: &Cell, sep: &str| {
        format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"sql_completed\": {}, \
             \"predict_completed\": {}, \"total_rps\": {:.1}, \"sql_p50_us\": {}, \
             \"sql_p99_us\": {}, \"predict_p50_us\": {}, \"predict_p99_us\": {}}}{sep}\n",
            c.mode,
            c.clients,
            c.sql_completed,
            c.predict_completed,
            c.total_rps,
            c.sql_p50_us,
            c.sql_p99_us,
            c.predict_p50_us,
            c.predict_p99_us
        )
    };

    // Hand-rolled JSON: the repository vendors no serializer.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"workload\": \"Dense(w=64,d=4) predicts + agg scan over {fact_rows} rows\",\n"
    ));
    json.push_str(&format!("  \"window_secs\": {},\n", window.as_secs_f64()));
    json.push_str(&format!(
        "  \"speedup_int8_vs_unified_at_{max_clients}_clients\": {i8_speedup:.2},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&fmt_cell(c, if i + 1 < cells.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    // Scheduler observability snapshot of the whole sweep: queue depth,
    // steals, parks, per-class task latency histograms.
    json.push_str(&format!("  \"metrics\": {}\n", obs::snapshot().render_json("  ")));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mixed.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
