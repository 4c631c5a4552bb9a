//! The LSTM layer keeps the bits and the device charges of paper Listing 5's
//! formulation (Sec. 5.4): per time step, each gate's GEMMs with a linear
//! epilogue, a separate activation pass per gate, then the cell update as
//! separate `vsMul`/`vsAdd`/`tanh` passes through two scratch buffers —
//! ten passes over `rows x units`. The built model runs each gate's
//! activation in its last GEMM's write-back and the update as one fused
//! pass; its output must equal this formulation bit for bit, in fp32 and
//! int8, on the CPU and on the simulated GPU, and the GPU must be charged
//! exactly Listing 5's kernels.
//!
//! Widths 4, 32, 128 and 600 (a recurrent product spanning two `KC = 512`
//! K slices) and a 2-feature LSTM, at 1, 37 and 1,024 rows.

use mlruntime::BuiltModel;
use nn::{paper, Activation, Layer, LstmLayer, Model, ModelBuilder};
use tensor::{Device, GpuModel, Init, Matrix, PackedMatrix, QuantScratch, QuantizedWeights};

const VECTOR_SIZE: usize = 1024;

/// One row, a ragged batch, and a full vector of several row blocks.
const ROWS: [usize; 3] = [1, 37, 1024];

/// One weight matrix as the built model holds it, fp32 or int8.
enum Gemm {
    F32(PackedMatrix),
    I8(QuantizedWeights),
}

impl Gemm {
    fn new(w: &Matrix, int8: bool) -> Gemm {
        if int8 {
            Gemm::I8(QuantizedWeights::quantize(w))
        } else {
            Gemm::F32(PackedMatrix::pack(w))
        }
    }

    /// `out = init + x·W`, linear: the activation is a pass of its own.
    fn run(&self, x: &Matrix, init: Init<'_>, out: &mut Matrix, q: &mut QuantScratch) {
        match self {
            Gemm::F32(w) => w.gemm(x, init, Activation::Linear, out),
            Gemm::I8(w) => w.gemm(x, init, Activation::Linear, out, q),
        }
    }
}

/// MKL `vsMul`: `out[i] := a[i] * b[i]`.
fn vs_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// MKL `vsAdd`: `out[i] := a[i] + b[i]`.
fn vs_add(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// Listing 5's LSTM layer, ten passes per step.
fn lstm_listing5(l: &LstmLayer, x: &Matrix, int8: bool, q: &mut QuantScratch) -> Matrix {
    let (rows, units, feats) = (x.rows(), l.units(), l.input_features);
    let kernel = l.kernel.each_ref().map(|w| Gemm::new(w, int8));
    let recurrent = l.recurrent.each_ref().map(|u| Gemm::new(u, int8));
    let (mut h, mut c) = (Matrix::zeros(rows, units), Matrix::zeros(rows, units));
    let mut z: [Matrix; 4] = std::array::from_fn(|_| Matrix::zeros(rows, units));
    let (mut tmp_a, mut tmp_b) = (vec![0.0; rows * units], vec![0.0; rows * units]);
    let gates = [Activation::Sigmoid, Activation::Sigmoid, Activation::Tanh, Activation::Sigmoid];
    for t in 0..l.timesteps {
        let x_t = Matrix::from_fn(rows, feats, |r, f| x.get(r, t * feats + f));
        for g in 0..4 {
            kernel[g].run(&x_t, Init::Bias(&l.bias[g]), &mut z[g], q);
            if t > 0 {
                recurrent[g].run(&h, Init::Accumulate, &mut z[g], q);
            }
        }
        for (zg, act) in z.iter_mut().zip(gates) {
            act.apply(zg.as_mut_slice());
        }
        // c := f*c + i*c~
        vs_mul(z[1].as_slice(), c.as_slice(), &mut tmp_a);
        vs_mul(z[0].as_slice(), z[2].as_slice(), &mut tmp_b);
        vs_add(&tmp_a, &tmp_b, c.as_mut_slice());
        // h := o * tanh(c)
        tmp_a.copy_from_slice(c.as_slice());
        Activation::Tanh.apply(&mut tmp_a);
        vs_mul(z[3].as_slice(), &tmp_a, h.as_mut_slice());
    }
    h
}

/// The whole model in Listing 5's formulation.
fn listing5(model: &Model, x: &Matrix, int8: bool) -> Matrix {
    let mut q = QuantScratch::default();
    let mut cur = x.clone();
    for layer in model.layers() {
        cur = match layer {
            Layer::Dense(d) => {
                let mut out = Matrix::zeros(cur.rows(), d.weights.cols());
                Gemm::new(&d.weights, int8).run(&cur, Init::Bias(&d.bias), &mut out, &mut q);
                d.activation.apply(out.as_mut_slice());
                out
            }
            Layer::Lstm(l) => lstm_listing5(l, &cur, int8, &mut q),
        };
    }
    cur
}

fn inputs(rows: usize, dim: usize) -> Matrix {
    Matrix::from_fn(rows, dim, |r, c| ((r * dim + c) as f32 * 0.37 + 0.1).sin())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `model`'s output at each of `row_counts`, fp32 and int8, on both
/// devices, against Listing 5's formulation.
fn assert_bits_of_listing5(model: &Model, row_counts: &[usize]) {
    for &rows in row_counts {
        let x = inputs(rows, model.input_dim());
        for int8 in [false, true] {
            let want = bits(&listing5(model, &x, int8));
            for device in [Device::cpu(), Device::gpu()] {
                let built = BuiltModel::from_model(model, &device, VECTOR_SIZE);
                let built = if int8 { built.quantize() } else { built };
                let got = built.infer(&x, &device);
                assert!(bits(&got) == want, "{rows} rows, int8 {int8}, {device:?}");
            }
        }
    }
}

#[test]
fn width_4_has_the_bits_of_listing5() {
    assert_bits_of_listing5(&paper::lstm_model(4, 1), &ROWS);
}

#[test]
fn width_32_has_the_bits_of_listing5() {
    assert_bits_of_listing5(&paper::lstm_model(32, 2), &ROWS);
}

#[test]
fn width_128_has_the_bits_of_listing5() {
    assert_bits_of_listing5(&paper::lstm_model(128, 3), &ROWS);
}

/// An unoptimized build runs 300 rows (still two `MC = 256` row blocks)
/// instead of 1,024: the unoptimized kernels take half a minute for the
/// 1,024-row products, which the release suite runs.
#[test]
fn width_600_has_the_bits_of_listing5() {
    let rows = if cfg!(debug_assertions) { [1, 37, 300] } else { ROWS };
    assert_bits_of_listing5(&paper::lstm_model(600, 4), &rows);
}

#[test]
fn two_features_have_the_bits_of_listing5() {
    let model = ModelBuilder::new(8, 5).lstm(12, 4, 2).dense_biased(3, Activation::Sigmoid).build();
    assert_bits_of_listing5(&model, &ROWS);
}

/// Per step: 4 kernel GEMMs, 4 bias copies, 4 gate activations, 4
/// recurrent GEMMs from the second step on, and the cell update's 5
/// element-wise kernels (3 `vsMul`, 1 `vsAdd`, 1 `tanh`); then the linear
/// output layer's bias copy and GEMM. Every launch is charged its own
/// modeled time, truncated to the nanosecond.
#[test]
fn gpu_charges_listing5_kernels() {
    let g = GpuModel::a100();
    let ns = |seconds: f64| (seconds * 1e9) as u64;
    let transfer = |bytes: usize| ns(g.transfer_latency + bytes as f64 / g.pcie_bandwidth);
    for (width, rows) in [(4, 1), (32, 37), (128, 1024)] {
        let model = paper::lstm_model(width, 7);
        let (steps, inputs_dim) = (paper::LSTM_TIMESTEPS, model.input_dim());
        let gpu = Device::gpu();
        let built = BuiltModel::from_model(&model, &gpu, VECTOR_SIZE);
        gpu.reset();
        built.infer(&inputs(rows, inputs_dim), &gpu);

        let elementwise =
            |bytes: usize| ns(g.kernel_launch + bytes as f64 / g.elementwise_bandwidth);
        let gemm = |k: usize, n: usize| {
            ns(g.kernel_launch + (2 * rows * k * n) as f64 / g.gemm_throughput)
        };
        let cells = rows * width;
        let kernel_gemms = 4 * (gemm(1, width) + elementwise(8 * cells));
        let activations = 4 * elementwise(8 * cells);
        let recurrent = 4 * gemm(width, width);
        let update = 4 * elementwise(12 * cells) + elementwise(8 * cells);
        let output = gemm(width, 1) + elementwise(8 * rows);
        let modeled = steps as u64 * (kernel_gemms + activations + update)
            + (steps as u64 - 1) * recurrent
            + output
            + transfer(4 * rows * inputs_dim)
            + transfer(4 * rows);
        let launches = steps * (4 + 4 + 4 + 5) + (steps - 1) * 4 + 2;
        assert_eq!(launches, 61, "the formula for the paper's 3 steps");
        let r = gpu.report();
        assert_eq!(r.kernel_launches, launches as u64, "width {width}, {rows} rows");
        assert_eq!(r.device_modeled.as_nanos(), modeled as u128, "width {width}, {rows} rows");
    }
}
