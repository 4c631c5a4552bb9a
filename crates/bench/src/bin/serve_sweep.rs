//! Serving-layer sweep: closed-loop clients against the inference server
//! in two modes, isolating what int8 buys.
//!
//! ```text
//! cargo run --release -p bench --bin serve_sweep [--quick]
//! ```
//!
//! Every mode serves the model's catalog registration, whose cache builds
//! it once per model table.
//!
//! Modes:
//! * `batched` — dynamic micro-batching: concurrent requests coalesce into
//!   one vectorized inference (the server-side analogue of the paper's
//!   vector-at-a-time inference, Sec. 5.4).
//! * `quantized` — batched, over an engine with `quantized_inference`
//!   on: the cache serves the int8 model and every coalesced batch runs
//!   through the integer GEMM. The sweep also measures the prediction
//!   accuracy delta this trades for throughput, recorded next to the
//!   throughput numbers.
//!
//! Client counts {1, 2, 4, 8}. Results go to stdout and `BENCH_serve.json`; `--quick` runs one tiny
//! cell per mode as a smoke test and leaves the JSON untouched.

use indbml_core::{drive_closed_loop, Experiment, ExperimentConfig, ServeLoadConfig, Workload};
use serve::ServeConfig;
use tensor::Device;
use vector_engine::EngineConfig;

struct Cell {
    mode: &'static str,
    clients: usize,
    completed: usize,
    retries: usize,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    batches: u64,
    batched_rows: u64,
}

/// One closed-loop cell. `mode` names the experiment: the two modes
/// differ only in their engine's `quantized_inference`.
fn run_cell(
    ex: &Experiment,
    mode: &'static str,
    clients: usize,
    requests_per_client: usize,
) -> Cell {
    let mut cfg = ServeConfig::from_engine(&ex.config().engine);
    cfg.max_batch_rows = cfg.max_batch_rows.min(64);
    let server = ex.serve(cfg, Device::cpu());

    let dim = ex.meta.input_dim;
    let inputs: Vec<Vec<f32>> = (0..256)
        .map(|i| (0..dim).map(|c| ((i * 31 + c * 7) % 100) as f32 / 100.0).collect())
        .collect();
    let load = ServeLoadConfig { clients, requests_per_client, timeout: None };
    let stats = drive_closed_loop(&server, "model", &inputs, &load);
    let sstats = server.stats();
    server.shutdown();
    Cell {
        mode,
        clients,
        completed: stats.completed,
        retries: stats.overload_retries,
        throughput_rps: stats.throughput_rps,
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        batches: sstats.batches,
        batched_rows: sstats.batched_rows,
    }
}

/// Max-abs prediction delta between fp32 and int8 serving over a fixed
/// input set — the accuracy cost the quantized column of the sweep pays
/// for its throughput, recorded alongside it in the JSON.
fn measure_accuracy_delta(ex: &Experiment, ex_i8: &Experiment) -> f32 {
    let dim = ex.meta.input_dim;
    let inputs: Vec<Vec<f32>> = (0..64)
        .map(|i| (0..dim).map(|c| ((i * 31 + c * 7) % 100) as f32 / 100.0).collect())
        .collect();
    let mut predictions: Vec<Vec<Vec<f32>>> = Vec::new();
    for ex in [ex, ex_i8] {
        let server = ex.serve(ServeConfig::from_engine(&ex.config().engine), Device::cpu());
        let rows: Vec<Vec<f32>> = inputs
            .iter()
            .map(|input| {
                match server.submit_predict("model", input.clone()).unwrap().wait().unwrap() {
                    serve::Response::Prediction(row) => row,
                    other => panic!("predict returned {other:?}"),
                }
            })
            .collect();
        server.shutdown();
        predictions.push(rows);
    }
    let mut delta = 0.0f32;
    for (f32_row, i8_row) in predictions[0].iter().zip(&predictions[1]) {
        for (x, y) in f32_row.iter().zip(i8_row) {
            delta = delta.max((x - y).abs());
        }
    }
    delta
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let (requests_per_client, client_counts): (usize, &[usize]) =
        if quick { (10, &[2]) } else { (150, &[1, 2, 4, 8]) };

    // A mid-size dense model (~13k edges through the build phase), small
    // enough that a full sweep runs in minutes on the shared host.
    let config = ExperimentConfig {
        engine: EngineConfig {
            vector_size: 256,
            partitions: 4,
            parallelism: cores.clamp(2, 4),
            ..Default::default()
        },
        ..ExperimentConfig::new(Workload::Dense { width: 64, depth: 4 }, 64)
    };
    let ex = Experiment::build(config.clone()).expect("experiment setup");
    // The int8 legs serve from an engine with `quantized_inference` on:
    // precision is an engine property, not a serving knob.
    let engine_i8 = EngineConfig { quantized_inference: true, ..config.engine.clone() };
    let ex_i8 = Experiment::build(ExperimentConfig { engine: engine_i8, ..config })
        .expect("int8 experiment setup");

    println!("# serve_sweep (cores = {cores}, requests/client = {requests_per_client})");
    println!("mode,clients,completed,retries,throughput_rps,p50_us,p99_us,batches");

    let mut cells: Vec<Cell> = Vec::new();
    for (mode, ex) in [("batched", &ex), ("quantized", &ex_i8)] {
        for &clients in client_counts {
            let cell = run_cell(ex, mode, clients, requests_per_client);
            println!(
                "{},{},{},{},{:.1},{},{},{}",
                cell.mode,
                cell.clients,
                cell.completed,
                cell.retries,
                cell.throughput_rps,
                cell.p50_us,
                cell.p99_us,
                cell.batches
            );
            cells.push(cell);
        }
    }
    let max_clients = *client_counts.last().expect("non-empty");
    let tput = |mode: &str, clients: usize| {
        cells
            .iter()
            .find(|c| c.mode == mode && c.clients == clients)
            .map(|c| c.throughput_rps)
            .unwrap_or(0.0)
    };
    let i8_speedup = tput("quantized", max_clients) / tput("batched", max_clients).max(1e-9);
    let i8_delta = measure_accuracy_delta(&ex, &ex_i8);
    println!(
        "\nquantized vs batched at {max_clients} clients: {i8_speedup:.2}x, \
         max|pred delta| {i8_delta:.2e}"
    );

    // Quick mode is a smoke test; don't clobber recorded full-sweep results.
    if quick {
        return;
    }

    let fmt_cell = |c: &Cell, sep: &str| {
        format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"completed\": {}, \"retries\": {}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"batches\": {}, \
             \"batched_rows\": {}}}{sep}\n",
            c.mode,
            c.clients,
            c.completed,
            c.retries,
            c.throughput_rps,
            c.p50_us,
            c.p99_us,
            c.batches,
            c.batched_rows
        )
    };

    // Hand-rolled JSON: the repository vendors no serializer.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"workload\": \"Dense(w=64,d=4), 1-row requests\",\n");
    json.push_str(&format!("  \"requests_per_client\": {requests_per_client},\n"));
    json.push_str(&format!(
        "  \"speedup_quantized_vs_batched_at_{max_clients}_clients\": {i8_speedup:.2},\n"
    ));
    json.push_str(&format!("  \"i8_max_abs_prediction_delta\": {i8_delta:.3e},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&fmt_cell(c, if i + 1 < cells.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    // Serving-layer observability snapshot of the whole sweep: batch-size
    // histogram, queue depth, failures by reason, end-to-end latency.
    json.push_str(&format!("  \"metrics\": {}\n", obs::snapshot().render_json("  ")));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
