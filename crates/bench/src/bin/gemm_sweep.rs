//! GEMM kernel-layer sweep: the seed scalar `sgemm` against the blocked,
//! packed, register-tiled kernel — in isolation and end-to-end through
//! the dense ModelJoin operator — plus the int8 quantized kernel against
//! the fp32 blocked kernel on the same shapes.
//!
//! ```text
//! cargo run --release -p bench --bin gemm_sweep [--quick]
//! ```
//!
//! For each width `w` in {32, 128, 512} the multiply is the dense-layer
//! shape the operator issues (`vectorsize x w  *  w x w`), plus the
//! acceptance shape `1024 x 512 * 512 x 512`; each is timed for the
//! unblocked seed kernel, the blocked kernel as a built model runs it
//! (weights packed once, `PackedMatrix::gemm`), and the int8 path
//! (`QuantizedWeights::gemm`: per-call activation quantization + integer
//! GEMM + fused dequant epilogue, weights pre-quantized as in serving),
//! each on one thread, as every kernel runs. The int8 cells also record
//! the measured max-abs deviation from the fp32 product alongside the
//! documented bound. End-to-end, a dense ModelJoin over the same widths
//! is timed against the full operator stack. Results go to stdout and to
//! `BENCH_gemm.json` at the repository root, with the host core count.

use indbml_core::{Approach, Experiment, ExperimentConfig, Workload};
use std::time::Instant;
use tensor::blas::sgemm_unblocked;
use tensor::quant::qgemm_error_bound;
use tensor::{Activation, Init, Matrix, PackedMatrix, QuantScratch, QuantizedWeights};
use vector_engine::EngineConfig;

/// One timed GEMM configuration.
struct GemmRow {
    m: usize,
    k: usize,
    n: usize,
    unblocked_s: f64,
    blocked_s: f64,
    i8_s: f64,
    /// Measured max-abs deviation of the int8 result from fp32.
    i8_max_abs_err: f32,
    /// The documented worst-case bound for this shape and input range.
    i8_err_bound: f32,
}

/// One timed end-to-end ModelJoin configuration.
struct JoinRow {
    width: usize,
    rows: usize,
    seconds: f64,
}

fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let x =
            (r as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(c as u64).wrapping_add(seed);
        ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// Median wall time of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: faults in buffers
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn bench_gemm(m: usize, k: usize, n: usize, reps: usize) -> GemmRow {
    let a = fill(m, k, 1);
    let b = fill(k, n, 2);
    let mut c = Matrix::zeros(m, n);

    let unblocked_s = time_median(reps, || sgemm_unblocked(1.0, &a, &b, 0.0, &mut c));
    let packed = PackedMatrix::pack(&b);
    let blocked_s = time_median(reps, || packed.gemm(&a, Init::Zero, Activation::Linear, &mut c));

    // Int8 path, timed the way serving runs it: weights quantized once
    // up front, activations quantized per call, dequant fused into the
    // epilogue. `c` still holds the fp32 product for the accuracy delta.
    let wq = QuantizedWeights::quantize(&b);
    let mut c_i8 = Matrix::zeros(m, n);
    let mut scratch = QuantScratch::default();
    let i8_s =
        time_median(reps, || wq.gemm(&a, Init::Zero, Activation::Linear, &mut c_i8, &mut scratch));
    let i8_max_abs_err = c_i8.max_abs_diff(&c);
    let i8_err_bound = qgemm_error_bound(k, 0.5, 0.5);
    GemmRow { m, k, n, unblocked_s, blocked_s, i8_s, i8_max_abs_err, i8_err_bound }
}

fn bench_join(width: usize, rows: usize) -> Option<JoinRow> {
    let engine =
        EngineConfig { vector_size: 1024, partitions: 4, parallelism: 1, ..Default::default() };
    let workload = Workload::Dense { width, depth: 3 };
    let config = ExperimentConfig { engine, ..ExperimentConfig::new(workload, rows) };
    let experiment = match Experiment::build(config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("setup failed for width {width}: {e}");
            return None;
        }
    };
    // Median of 3: the operator path includes the one-off model build.
    let mut samples: Vec<f64> = (0..3)
        .filter_map(|_| {
            experiment.run(Approach::ModelJoinCpu, false).ok().map(|o| o.runtime.as_secs_f64())
        })
        .collect();
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Some(JoinRow { width, rows, seconds: samples[samples.len() / 2] })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("# GEMM kernel sweep (cores = {cores}, i8 kernel = {})", tensor::i8_kernel_name());
    println!("m,k,n,unblocked_s,blocked_s,i8_s,speedup,i8_vs_f32,i8_err");

    let reps = if quick { 3 } else { 7 };
    let mut gemm_rows = Vec::new();
    for &w in &[32usize, 128, 512] {
        gemm_rows.push(bench_gemm(1024, w, w, reps));
    }
    // The acceptance shape: 1024 x 512 * 512 x 512.
    gemm_rows.push(bench_gemm(1024, 512, 512, reps));

    for r in &gemm_rows {
        let speedup = r.unblocked_s / r.blocked_s;
        let i8_speedup = r.blocked_s / r.i8_s;
        println!(
            "{},{},{},{:.6},{:.6},{:.6},{:.2},{:.2},{:.2e}",
            r.m,
            r.k,
            r.n,
            r.unblocked_s,
            r.blocked_s,
            r.i8_s,
            speedup,
            i8_speedup,
            r.i8_max_abs_err
        );
    }
    let accept = gemm_rows.last().expect("acceptance shape measured");
    println!(
        "\nint8 vs fp32 blocked at {}x{}x{}: {:.2}x, max|err| {:.2e} (bound {:.2e})",
        accept.m,
        accept.k,
        accept.n,
        accept.blocked_s / accept.i8_s,
        accept.i8_max_abs_err,
        accept.i8_err_bound
    );

    println!("\n# End-to-end dense ModelJoin (rows x width, depth 3, serial partitions)");
    println!("width,rows,seconds");
    let join_rows_count = if quick { 4_000 } else { 16_000 };
    let mut join_rows = Vec::new();
    for &w in &[32usize, 128, 512] {
        if let Some(row) = bench_join(w, join_rows_count) {
            println!("{},{},{:.4}", row.width, row.rows, row.seconds);
            join_rows.push(row);
        }
    }

    // Quick mode is a smoke test; don't clobber recorded full-sweep results.
    if quick {
        return;
    }

    // Hand-rolled JSON: the repository vendors no serializer, and the
    // schema is three flat arrays.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"kernel\": \"blocked sgemm (PR 2) + int8 qgemm (PR 7)\",\n");
    json.push_str(&format!("  \"i8_kernel\": \"{}\",\n", tensor::i8_kernel_name()));
    json.push_str(&format!(
        "  \"i8_speedup_vs_f32_at_{}x{}x{}\": {:.2},\n",
        accept.m,
        accept.k,
        accept.n,
        accept.blocked_s / accept.i8_s
    ));
    json.push_str("  \"gemm\": [\n");
    for (i, r) in gemm_rows.iter().enumerate() {
        let sep = if i + 1 < gemm_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"unblocked_s\": {:.6}, \
             \"blocked_s\": {:.6}, \"speedup\": {:.3}, \"i8_s\": {:.6}, \
             \"i8_speedup_vs_f32\": {:.3}, \"i8_max_abs_err\": {:.3e}, \
             \"i8_err_bound\": {:.3e}}}{sep}\n",
            r.m,
            r.k,
            r.n,
            r.unblocked_s,
            r.blocked_s,
            r.unblocked_s / r.blocked_s,
            r.i8_s,
            r.blocked_s / r.i8_s,
            r.i8_max_abs_err,
            r.i8_err_bound
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"modeljoin_dense\": [\n");
    for (i, r) in join_rows.iter().enumerate() {
        let sep = if i + 1 < join_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"width\": {}, \"rows\": {}, \"seconds\": {:.4}}}{sep}\n",
            r.width, r.rows, r.seconds
        ));
    }
    json.push_str("  ],\n");
    // Per-stage observability snapshot of the whole sweep: pack vs gemm
    // time, operator row counts.
    json.push_str(&format!("  \"metrics\": {}\n", obs::snapshot().render_json("  ")));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
