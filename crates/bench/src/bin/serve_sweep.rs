//! Serving-layer sweep: closed-loop clients against the inference server
//! in three modes, isolating what each serving optimization buys.
//!
//! ```text
//! cargo run --release -p bench --bin serve_sweep [--quick]
//! ```
//!
//! Modes:
//! * `naive`   — no model cache, no batching: every request rebuilds the
//!   model from its table and runs a 1-row inference. This is what
//!   query-scoped model state (the paper's per-query ModelJoin build)
//!   costs when clients arrive one request at a time.
//! * `cached`  — model cache on, batching off: the build is amortized
//!   across requests, inference still runs row-at-a-time.
//! * `batched` — model cache + dynamic micro-batching: concurrent requests
//!   coalesce into one vectorized inference (the server-side analogue of
//!   the paper's vector-at-a-time inference, Sec. 5.4).
//! * `quantized` — batched, over an engine with `quantized_inference`
//!   on: the cache serves the int8 model and every coalesced batch runs
//!   through the integer GEMM. The sweep also measures the prediction
//!   accuracy delta this trades for throughput, recorded next to the
//!   throughput numbers.
//!
//! Client counts {1, 2, 4, 8}; at 8 clients a flush-deadline sweep
//! {50, 200, 1000}us shows the latency/throughput trade of the batcher.
//! Results go to stdout and `BENCH_serve.json`; `--quick` runs one tiny
//! cell per mode as a smoke test and leaves the JSON untouched.

use std::sync::Arc;
use std::time::Instant;

use indbml_core::{drive_closed_loop, Experiment, ExperimentConfig, ServeLoadConfig, Workload};
use serve::{ServeConfig, ServeError};
use shard::{ShardedEngine, ShardedServer};
use tensor::Device;
use vector_engine::EngineConfig;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Naive,
    Cached,
    Batched,
    Quantized,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Naive, Mode::Cached, Mode::Batched, Mode::Quantized];

    fn name(self) -> &'static str {
        match self {
            Mode::Naive => "naive",
            Mode::Cached => "cached",
            Mode::Batched => "batched",
            Mode::Quantized => "quantized",
        }
    }

    fn apply(self, cfg: &mut ServeConfig) {
        match self {
            Mode::Naive => {
                cfg.model_cache = false;
                cfg.batching = false;
            }
            Mode::Cached => {
                cfg.model_cache = true;
                cfg.batching = false;
            }
            // Quantized differs from Batched only in its engine.
            Mode::Batched | Mode::Quantized => {
                cfg.model_cache = true;
                cfg.batching = true;
            }
        }
    }
}

struct Cell {
    mode: &'static str,
    clients: usize,
    flush_us: u64,
    completed: usize,
    retries: usize,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    batches: u64,
    batched_rows: u64,
}

fn run_cell(
    ex: &Experiment,
    mode: Mode,
    clients: usize,
    flush_us: u64,
    requests_per_client: usize,
) -> Cell {
    let mut cfg = ServeConfig::from_engine(&ex.config().engine);
    cfg.batch_flush_us = flush_us;
    cfg.max_batch_rows = cfg.max_batch_rows.min(64);
    mode.apply(&mut cfg);
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
        mode: mode.name(),
        clients,
        flush_us,
        completed: stats.completed,
        retries: stats.overload_retries,
        throughput_rps: stats.throughput_rps,
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        batches: sstats.batches,
        batched_rows: sstats.batched_rows,
    }
}

/// A predict cell against a [`ShardedServer`]: the model table is
/// replicated onto every shard and requests round-robin across the
/// per-shard servers, so each shard runs its own cache, batcher, and
/// admission queue. (On a single-core host the shards time-slice one
/// CPU — these cells measure the facade's overhead and fairness, not
/// parallel speedup.)
struct ShardCell {
    mode: &'static str,
    clients: usize,
    shards: usize,
    completed: usize,
    retries: usize,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    batches: u64,
    batched_rows: u64,
}

fn run_sharded_cell(
    ex: &Experiment,
    mode: Mode,
    clients: usize,
    shards: usize,
    flush_us: u64,
    requests_per_client: usize,
) -> ShardCell {
    let layout = ex.config().opt.layout();
    let (model_cols, meta) = model_repr::export_columns(&ex.model, layout);
    let mut ecfg = ex.config().engine.clone();
    ecfg.shards = shards;
    let engine = Arc::new(ShardedEngine::new(ecfg));
    for s in engine.shards() {
        let t = s
            .create_table("model_table", model_repr::model_table_schema(layout))
            .expect("model ddl");
        t.append(model_cols.clone()).expect("model load");
    }
    let mut cfg = ServeConfig::from_engine(&ex.config().engine);
    cfg.batch_flush_us = flush_us;
    cfg.max_batch_rows = cfg.max_batch_rows.min(64);
    mode.apply(&mut cfg);
    let server = ShardedServer::start(Arc::clone(&engine), cfg);
    server.register_model("model", "model_table", meta, layout, &Device::cpu());

    let dim = ex.meta.input_dim;
    let inputs: Vec<Vec<f32>> = (0..256)
        .map(|i| (0..dim).map(|c| ((i * 31 + c * 7) % 100) as f32 / 100.0).collect())
        .collect();

    let start = Instant::now();
    let per_client: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                let inputs = &inputs;
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(requests_per_client);
                    let mut retries = 0usize;
                    for r in 0..requests_per_client {
                        let input = &inputs[(c * 37 + r) % inputs.len()];
                        let t0 = Instant::now();
                        loop {
                            match server.submit_predict("model", input.clone()) {
                                Ok(h) => {
                                    h.wait().expect("predict failed");
                                    break;
                                }
                                Err(ServeError::Overloaded { .. }) => {
                                    retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("submit_predict failed: {e:?}"),
                            }
                        }
                        lats.push(t0.elapsed().as_micros() as u64);
                    }
                    (lats, retries)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut lats: Vec<u64> = per_client.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    let retries = per_client.iter().map(|(_, r)| r).sum();
    lats.sort_unstable();
    let pct = |p: f64| lats[((lats.len() - 1) as f64 * p) as usize];
    let sstats = server.stats();
    let cell = ShardCell {
        mode: mode.name(),
        clients,
        shards,
        completed: lats.len(),
        retries,
        throughput_rps: lats.len() as f64 / wall,
        p50_us: pct(0.5),
        p99_us: pct(0.99),
        batches: sstats.batches,
        batched_rows: sstats.batched_rows,
    };
    server.shutdown();
    cell
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

    let (requests_per_client, client_counts, flushes): (usize, &[usize], &[u64]) =
        if quick { (10, &[2], &[200]) } else { (150, &[1, 2, 4, 8], &[50, 200, 1000]) };

    // A mid-size dense model: big enough that the per-request build the
    // naive mode pays is realistic (~13k edges through the build phase),
    // small enough that a full sweep runs in minutes on the shared host.
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
    let ex_for = |mode: Mode| if mode == Mode::Quantized { &ex_i8 } else { &ex };

    println!("# serve_sweep (cores = {cores}, requests/client = {requests_per_client})");
    println!("mode,clients,flush_us,completed,retries,throughput_rps,p50_us,p99_us,batches");

    // Headline flush deadline: short enough that the closed-loop clients'
    // arrival gaps don't dominate latency, long enough to coalesce a
    // concurrent burst (the flush sweep below shows the trade-off).
    let headline_flush = 50;
    let mut cells: Vec<Cell> = Vec::new();
    for mode in Mode::ALL {
        for &clients in client_counts {
            let flush = headline_flush;
            let cell = run_cell(ex_for(mode), mode, clients, flush, requests_per_client);
            println!(
                "{},{},{},{},{},{:.1},{},{},{}",
                cell.mode,
                cell.clients,
                cell.flush_us,
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
    // Flush-deadline sweep at the highest client count, batched mode.
    let max_clients = *client_counts.last().expect("non-empty");
    let mut flush_cells: Vec<Cell> = Vec::new();
    for &flush in flushes {
        if flush == headline_flush {
            continue; // already measured above
        }
        let cell = run_cell(&ex, Mode::Batched, max_clients, flush, requests_per_client);
        println!(
            "{},{},{},{},{},{:.1},{},{},{}",
            cell.mode,
            cell.clients,
            cell.flush_us,
            cell.completed,
            cell.retries,
            cell.throughput_rps,
            cell.p50_us,
            cell.p99_us,
            cell.batches
        );
        flush_cells.push(cell);
    }

    // Sharded point-serve cells: cached and batched modes at the highest
    // client count across {1, 4, 8} shards (one tiny cell in quick mode).
    let shard_counts: &[usize] = if quick { &[2] } else { &[1, 4, 8] };
    let mut sharded_cells: Vec<ShardCell> = Vec::new();
    println!("\nmode,clients,shards,completed,retries,throughput_rps,p50_us,p99_us,batches");
    for mode in [Mode::Cached, Mode::Batched] {
        for &shards in shard_counts {
            let cell = run_sharded_cell(
                &ex,
                mode,
                max_clients,
                shards,
                headline_flush,
                requests_per_client,
            );
            println!(
                "{},{},{},{},{},{:.1},{},{},{}",
                cell.mode,
                cell.clients,
                cell.shards,
                cell.completed,
                cell.retries,
                cell.throughput_rps,
                cell.p50_us,
                cell.p99_us,
                cell.batches
            );
            sharded_cells.push(cell);
        }
    }

    let tput = |mode: &str, clients: usize| {
        cells
            .iter()
            .find(|c| c.mode == mode && c.clients == clients)
            .map(|c| c.throughput_rps)
            .unwrap_or(0.0)
    };
    let speedup = tput("batched", max_clients) / tput("naive", max_clients).max(1e-9);
    println!("\nbatched vs naive at {max_clients} clients: {speedup:.1}x");
    let i8_speedup = tput("quantized", max_clients) / tput("batched", max_clients).max(1e-9);
    let i8_delta = measure_accuracy_delta(&ex, &ex_i8);
    println!(
        "quantized vs batched at {max_clients} clients: {i8_speedup:.2}x, \
         max|pred delta| {i8_delta:.2e}"
    );

    // Quick mode is a smoke test; don't clobber recorded full-sweep results.
    if quick {
        return;
    }

    let fmt_cell = |c: &Cell, sep: &str| {
        format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"flush_us\": {}, \"completed\": {}, \
             \"retries\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"batches\": {}, \"batched_rows\": {}}}{sep}\n",
            c.mode,
            c.clients,
            c.flush_us,
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
        "  \"speedup_batched_vs_naive_at_{max_clients}_clients\": {speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_quantized_vs_batched_at_{max_clients}_clients\": {i8_speedup:.2},\n"
    ));
    json.push_str(&format!("  \"i8_max_abs_prediction_delta\": {i8_delta:.3e},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&fmt_cell(c, if i + 1 < cells.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    json.push_str("  \"flush_sweep\": [\n");
    for (i, c) in flush_cells.iter().enumerate() {
        json.push_str(&fmt_cell(c, if i + 1 < flush_cells.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    json.push_str("  \"sharded_cells\": [\n");
    for (i, c) in sharded_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"shards\": {}, \"completed\": {}, \
             \"retries\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"batches\": {}, \"batched_rows\": {}}}{}\n",
            c.mode,
            c.clients,
            c.shards,
            c.completed,
            c.retries,
            c.throughput_rps,
            c.p50_us,
            c.p99_us,
            c.batches,
            c.batched_rows,
            if i + 1 < sharded_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Serving-layer observability snapshot of the whole sweep: batch-size
    // histogram, queue depth, flush-deadline fires, end-to-end latency.
    json.push_str(&format!("  \"metrics\": {}\n", obs::snapshot().render_json("  ")));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
