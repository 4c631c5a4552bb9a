//! The one batched forward pass (paper Sec. 5.4): a model built into a
//! kernel plan, and one layer loop run over any number of `rows x
//! input_dim` rows. ModelJoin builds it from a model table,
//! [`crate::Session`] from a model file; both run it here, in fp32 or,
//! after [`BuiltModel::quantize`], int8.
//!
//! The plan is fixed when the model is built, never per batch: each fp32
//! weight matrix is packed once into the micro-kernel's panel layout, the
//! bias stays a `units` vector that the GEMM's first K slice adds, and
//! the activation runs in its last slice's write-back. An LSTM gate's
//! activation runs in the write-back of its step's last GEMM, and the
//! cell update is one fused element-wise pass per step.
//!
//! The plan also fixes the row block. The paper's operator pushes a whole
//! 1024-tuple vector through one layer before the next (Sec. 5.4). On the
//! CPU, rows instead run depth first: in blocks of
//! [`BuiltModel::block_rows`] rows, each passing through every layer
//! before the next block starts. A block is as many rows as fit
//! [`BLOCK_BUDGET_BYTES`] at the model's widest layer, so a layer's input
//! and output stay in the core's L2 and the scratch holds one block, not
//! one vector: 256 rows at width 512, a whole vector at width 64 or less.
//! The simulated GPU keeps one pass per vector, because its device model
//! charges one launch per GEMM, as the paper's cuBLAS path pays.
//!
//! Every block, from one row to the vector size, runs the same kernel on
//! the caller's thread, so a row's output is a function of the model and
//! the row alone, whichever block it lands in. Parallelism comes from the
//! callers: each partition morsel runs its own batches.

use nn::Layer;
use tensor::{
    Activation, Device, Init, Matrix, MatrixView, PackedMatrix, QuantScratch, QuantizedWeights, MR,
};

/// The bytes one CPU row block may keep live: half of this host's 2 MiB
/// per-core L2, the other half left to the GEMM's packed `A` block and
/// weight panels. A model's block is this budget over its widest per-row
/// working set, in whole micro-panels of `MR` rows, capped at the vector
/// size (see [`BuiltModel::block_rows`]).
pub const BLOCK_BUDGET_BYTES: usize = 1 << 20;

/// The weights of one GEMM of a built layer, in the kernel's layout.
#[derive(Clone)]
pub enum Weights {
    /// `input_dim x units`, packed once into B panels (the row-major
    /// matrix is not kept). (The paper stores the weight matrices
    /// "already in a transposed way" so cuBLAS's column-major `sgemm`
    /// computes `A^T x^T`; a row-major `input x units` buffer is
    /// byte-identical to that transposed column-major matrix, so the
    /// layout on disk matches.)
    F32(PackedMatrix),
    /// Weights quantized per output channel.
    I8(QuantizedWeights),
}

/// One GEMM of a built layer and its kernel plan, fixed at build time.
#[derive(Clone)]
pub struct GemmPlan {
    pub weights: Weights,
    /// One value per unit, added by the GEMM's epilogue; empty for the
    /// LSTM recurrent matrices, which add none. (Sec. 5.4 replicates it to
    /// a `vectorsize x units` matrix copied into `C`; the epilogue adds
    /// the same value to the same accumulator, bit for bit.)
    pub bias: Vec<f32>,
}

impl GemmPlan {
    fn units(&self) -> usize {
        match &self.weights {
            Weights::F32(w) => w.cols(),
            Weights::I8(w) => w.cols(),
        }
    }

    fn quantize(&self) -> GemmPlan {
        let weights = match &self.weights {
            Weights::F32(w) => Weights::I8(QuantizedWeights::quantize(&w.to_matrix())),
            Weights::I8(_) => self.weights.clone(),
        };
        GemmPlan { weights, bias: self.bias.clone() }
    }

    /// `out = act(x·W + b)` (`init` = [`Init::Bias`], or [`Init::Zero`]
    /// without a bias) or `out = act(out + x·W)` ([`Init::Accumulate`]),
    /// into an `out` already shaped `x.rows() x units`, charged to
    /// `device` as the paper's kernels.
    fn run(
        &self,
        x: MatrixView<'_>,
        accumulate: bool,
        act: Activation,
        device: &Device,
        q: &mut QuantScratch,
        out: &mut Matrix,
    ) {
        let init = match (accumulate, self.bias.is_empty()) {
            (true, _) => Init::Accumulate,
            (false, true) => Init::Zero,
            (false, false) => Init::Bias(&self.bias),
        };
        let (shape, bias) = ((x.rows(), x.cols(), self.units()), matches!(init, Init::Bias(_)));
        match &self.weights {
            Weights::F32(w) => device.dense(shape, bias, act, || w.gemm(x, init, act, out)),
            Weights::I8(w) => w.gemm(x, init, act, out, q),
        }
    }
}

/// A layer of the built (in-memory) model.
#[allow(clippy::large_enum_variant)] // models hold few layers; boxing buys nothing
pub enum BuiltLayer {
    Dense {
        gemm: GemmPlan,
        activation: Activation,
    },
    Lstm {
        features: usize,
        timesteps: usize,
        units: usize,
        /// Gate order i, f, c, o; each with its gate bias.
        kernel: [GemmPlan; 4],
        recurrent: [GemmPlan; 4],
    },
}

impl BuiltLayer {
    /// Output width.
    fn units(&self) -> usize {
        match self {
            BuiltLayer::Dense { gemm, .. } => gemm.units(),
            BuiltLayer::Lstm { units, .. } => *units,
        }
    }
}

/// A built model — fp32, or int8 after [`BuiltModel::quantize`]. Both run
/// through the same layer loop; only the GEMM kernels differ.
pub struct BuiltModel {
    pub layers: Vec<BuiltLayer>,
    pub input_dim: usize,
    pub output_dim: usize,
    vector_size: usize,
    block_rows: usize,
}

/// Per-caller scratch arena for [`BuiltModel::infer_into`]: every buffer
/// inference needs lives here and is reused across batches. It holds one
/// row block's working set, whatever the batch length, plus the stitched
/// output of a batch longer than one block. Capacity is retained when the
/// batch shrinks (the short final vector of a partition), so steady-state
/// inference allocates nothing.
#[derive(Default)]
pub struct InferScratch {
    block: BlockScratch,
    /// The `rows x output_dim` output of a batch of several blocks.
    out: Matrix,
}

/// The buffers one row block runs in (see [`BuiltModel::infer_into`]).
#[derive(Default)]
struct BlockScratch {
    /// Ping-pong layer outputs: layer `l` writes one while reading the other.
    ping: Matrix,
    pong: Matrix,
    /// Quantized activations, row scales and i32 accumulator of the int8 GEMM.
    q: QuantScratch,
    lstm: LstmScratch,
}

/// Working state of one LSTM forward pass (see [`lstm_forward_into`]).
#[derive(Default)]
struct LstmScratch {
    /// Cell state `c`.
    c: Matrix,
    /// The time-step input slice `X_t`.
    x_t: Matrix,
    /// Gate activations `i, f, c~, o`.
    z: [Matrix; 4],
}

impl BuiltModel {
    /// Assemble the fp32 model from its layers' weights and biases, fixing
    /// each GEMM's kernel plan: weights packed once, the bias kept as a
    /// vector for the epilogue. The device is charged one bulk upload of the model as the
    /// paper holds it (Sec. 5.2: "move the model to GPU memory once
    /// building is finished") — weights plus every bias replicated to
    /// `vector_size x units` (Sec. 5.4) — though the host keeps no
    /// replicated copy.
    pub fn from_layers(
        input_dim: usize,
        layers: Vec<Layer>,
        device: &Device,
        vector_size: usize,
    ) -> BuiltModel {
        let output_dim = layers.last().map_or(input_dim, Layer::output_dim);
        let mut bytes = 0;
        let mut plan = |w: Matrix, bias: Vec<f32>| {
            bytes += 4 * (w.rows() * w.cols() + bias.len() * vector_size);
            GemmPlan { weights: Weights::F32(PackedMatrix::pack(&w)), bias }
        };
        let layers = layers
            .into_iter()
            .map(|layer| match layer {
                Layer::Dense(d) => {
                    BuiltLayer::Dense { gemm: plan(d.weights, d.bias), activation: d.activation }
                }
                Layer::Lstm(l) => {
                    let units = l.units();
                    let mut bias = l.bias.into_iter();
                    let kernel = l.kernel.map(|k| plan(k, bias.next().expect("one bias per gate")));
                    BuiltLayer::Lstm {
                        features: l.input_features,
                        timesteps: l.timesteps,
                        units,
                        kernel,
                        recurrent: l.recurrent.map(|u| plan(u, Vec::new())),
                    }
                }
            })
            .collect::<Vec<_>>();
        device.transfer_h2d(bytes);
        let block_rows = block_rows(input_dim, &layers, vector_size);
        BuiltModel { layers, input_dim, output_dim, vector_size, block_rows }
    }

    /// [`BuiltModel::from_layers`] over a model object's layers.
    pub fn from_model(model: &nn::Model, device: &Device, vector_size: usize) -> BuiltModel {
        let layers = model.layers().to_vec();
        BuiltModel::from_layers(model.input_dim(), layers, device, vector_size)
    }

    /// The int8 variant of this model: every GEMM operand quantized per
    /// output channel, biases kept in fp32. Runs on the host CPU only: the
    /// quantized kernels have no device path.
    pub fn quantize(&self) -> BuiltModel {
        let layers = self
            .layers
            .iter()
            .map(|layer| match layer {
                BuiltLayer::Dense { gemm, activation } => {
                    BuiltLayer::Dense { gemm: gemm.quantize(), activation: *activation }
                }
                BuiltLayer::Lstm { features, timesteps, units, kernel, recurrent } => {
                    BuiltLayer::Lstm {
                        features: *features,
                        timesteps: *timesteps,
                        units: *units,
                        kernel: kernel.each_ref().map(GemmPlan::quantize),
                        recurrent: recurrent.each_ref().map(GemmPlan::quantize),
                    }
                }
            })
            .collect();
        BuiltModel {
            layers,
            input_dim: self.input_dim,
            output_dim: self.output_dim,
            vector_size: self.vector_size,
            block_rows: self.block_rows,
        }
    }

    /// The rows of one CPU pass through every layer, fixed at build:
    /// [`BLOCK_BUDGET_BYTES`] over the widest per-row working set of any
    /// layer (a dense layer's input and output; an LSTM step's `x_t`, four
    /// gates, `c` and `h`), rounded down to a multiple of `MR` and capped
    /// at the vector size.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Vectorized inference (paper Sec. 5.4) over a whole `rows x
    /// input_dim` input matrix. Allocating wrapper around
    /// [`BuiltModel::infer_into`] for one-shot callers.
    pub fn infer(&self, input: &Matrix, device: &Device) -> Matrix {
        let mut scratch = InferScratch::default();
        self.infer_into(input, device, &mut scratch).clone()
    }

    /// Inference over one vector (at most the vector size the model was
    /// built for) of `input` rows, writing only into `scratch`; the
    /// returned reference points at the scratch buffer holding the
    /// `rows x output_dim` output. On the CPU the rows run in blocks of
    /// [`BuiltModel::block_rows`], each through every layer before the
    /// next block starts; on the simulated GPU as one pass, charged its
    /// input upload and output download. A vector of one block returns
    /// its last layer's output in place; a longer one is stitched into one
    /// output matrix. Batch-at-a-time callers pass the same scratch every
    /// call and pay zero allocations after the first batch.
    pub fn infer_into<'s>(
        &self,
        input: &Matrix,
        device: &Device,
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        assert!(input.rows() <= self.vector_size, "batch exceeds vector size");
        self.run_blocks(input, device, scratch)
    }

    /// [`BuiltModel::infer_into`] over any number of `input` rows: the
    /// same block loop, on the GPU one pass per vector. Row-major `rows x
    /// output_dim`, borrowed from `scratch`.
    pub fn infer_rows<'s>(
        &self,
        input: &Matrix,
        device: &Device,
        scratch: &'s mut InferScratch,
    ) -> &'s [f32] {
        self.run_blocks(input, device, scratch).as_slice()
    }

    fn run_blocks<'s>(
        &self,
        input: &Matrix,
        device: &Device,
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        assert_eq!(input.cols(), self.input_dim, "input width mismatch");
        let rows = input.rows();
        let block = if device.is_gpu() { self.vector_size } else { self.block_rows }.max(1);
        let InferScratch { block: s, out } = scratch;
        if rows <= block {
            return self.forward_block(input.view(), device, s);
        }
        let width = self.output_dim;
        out.reshape(rows, width);
        for start in (0..rows).step_by(block) {
            let end = (start + block).min(rows);
            let y = self.forward_block(input.row_block(start..end), device, s);
            out.as_mut_slice()[start * width..end * width].copy_from_slice(y.as_slice());
        }
        out
    }

    /// One pass of the rows of `x` (at most one block) through every
    /// layer; returns the scratch matrix holding the last layer's output.
    fn forward_block<'s>(
        &self,
        x: MatrixView<'_>,
        device: &Device,
        scratch: &'s mut BlockScratch,
    ) -> &'s Matrix {
        device.transfer_h2d(x.byte_len());
        let rows = x.rows();
        let BlockScratch { ping, pong, q, lstm } = scratch;
        // Invariant: the current layer input lives in `ping` (or is the
        // caller's rows on the first layer); each layer computes into
        // `pong`, then the two swap — a pointer swap, never a data copy.
        let mut first = true;
        for layer in &self.layers {
            let cur = if first { x } else { ping.view() };
            match layer {
                BuiltLayer::Dense { gemm, activation } => {
                    // The GEMM writes every element: no zeroing.
                    pong.reshape(rows, gemm.units());
                    gemm.run(cur, false, *activation, device, q, pong);
                }
                BuiltLayer::Lstm { features, timesteps, units, kernel, recurrent } => {
                    lstm_forward_into(
                        cur, *features, *timesteps, *units, kernel, recurrent, device, q, lstm,
                        pong,
                    );
                }
            }
            std::mem::swap(ping, pong);
            first = false;
        }
        if first {
            // Zero-layer model: the output is the input, copied so the
            // return value always borrows from the scratch.
            ping.reshape(rows, x.cols());
            ping.as_mut_slice().copy_from_slice(x.as_slice());
        }
        device.transfer_d2h(ping.byte_len());
        &*ping
    }
}

/// [`BuiltModel::block_rows`] of a model whose `layers` take
/// `input_dim`-wide rows (a zero-layer model's working set is its copied
/// input).
fn block_rows(input_dim: usize, layers: &[BuiltLayer], vector_size: usize) -> usize {
    let (mut width, mut floats) = (input_dim, input_dim);
    for layer in layers {
        floats = floats.max(match layer {
            BuiltLayer::Dense { gemm, .. } => width + gemm.units(),
            BuiltLayer::Lstm { features, units, .. } => features + 6 * units,
        });
        width = layer.units();
    }
    let rows = BLOCK_BUDGET_BYTES / (std::mem::size_of::<f32>() * floats.max(1)) / MR * MR;
    rows.max(MR).min(vector_size.max(1))
}

/// The activation of each gate, in the order i, f, c~, o.
const GATE_ACTIVATIONS: [Activation; 4] =
    [Activation::Sigmoid, Activation::Sigmoid, Activation::Tanh, Activation::Sigmoid];

/// Bytes per element of each element-wise kernel of Listing 5's cell
/// update, which the fused pass below stands for: `vsMul` f*c, `vsMul`
/// i*c~ and `vsAdd` (two reads, one write each), `tanh(c)` (one read, one
/// write) and `vsMul` o*tanh(c).
const CELL_KERNEL_BYTES: [usize; 5] = [12, 12, 12, 8, 12];

/// The LSTM layer forward function of paper Listing 5, vectorized over the
/// batch: per time step `z_x := act_x(bias + X_t W_x + H U_x)`, then the
/// cell/hidden update. Each gate's activation runs in the write-back of
/// its last GEMM (the kernel GEMM at `t = 0`, the accumulating recurrent
/// GEMM after that), and the update `c := f*c + i*c~; h := o*tanh(c)` is
/// one pass with the roundings of Listing 5's separate `vsMul`/`vsAdd`
/// calls, which the device charges as such. The hidden state `h` lives
/// directly in `out`, which holds the final `h` when the loop ends; all
/// other working buffers come from `scratch`. In int8 both GEMM inputs
/// are re-quantized row-wise per step (`h` changes every iteration);
/// the gate activations and the cell update stay fp32.
#[allow(clippy::too_many_arguments)]
fn lstm_forward_into(
    input: MatrixView<'_>,
    features: usize,
    timesteps: usize,
    units: usize,
    kernel: &[GemmPlan; 4],
    recurrent: &[GemmPlan; 4],
    device: &Device,
    q: &mut QuantScratch,
    scratch: &mut LstmScratch,
    out: &mut Matrix,
) {
    let rows = input.rows();
    let h = out;
    h.resize_zeroed(rows, units);
    let LstmScratch { c, x_t, z } = scratch;
    c.resize_zeroed(rows, units);
    x_t.resize_zeroed(rows, features);
    for zg in z.iter_mut() {
        zg.resize_zeroed(rows, units);
    }

    for t in 0..timesteps {
        for r in 0..rows {
            x_t.row_mut(r).copy_from_slice(&input.row(r)[t * features..(t + 1) * features]);
        }
        for (g, zg) in z.iter_mut().enumerate() {
            let act = GATE_ACTIVATIONS[g];
            if t == 0 {
                kernel[g].run(x_t.view(), false, act, device, q, zg);
            } else {
                kernel[g].run(x_t.view(), false, Activation::Linear, device, q, zg);
                recurrent[g].run(h.view(), true, act, device, q, zg);
            }
        }
        let [i, f, g, o] = z.each_ref().map(Matrix::as_slice);
        device.elementwise(rows * units, &CELL_KERNEL_BYTES, || {
            let cells = c.as_mut_slice().iter_mut().zip(h.as_mut_slice());
            for (j, (c, h)) in cells.enumerate() {
                // Separate roundings, as the separate kernels round.
                let (fc, ig) = (f[j] * *c, i[j] * g[j]);
                *c = fc + ig;
                *h = o[j] * c.tanh();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::{paper, ModelBuilder};

    const VECTOR_SIZE: usize = 64;

    fn inputs(rows: usize, dim: usize) -> Matrix {
        Matrix::from_fn(rows, dim, |r, c| ((r * dim + c) as f32 * 0.3).sin())
    }

    fn assert_matches_oracle(model: &nn::Model, rows: usize, device: Device) {
        let built = BuiltModel::from_model(model, &device, VECTOR_SIZE);
        let x = inputs(rows, model.input_dim());
        let out = built.infer(&x, &device);
        let expected = model.predict(&x);
        let diff = out.max_abs_diff(&expected);
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn dense_batch_matches_oracle_cpu_and_gpu() {
        let model = paper::dense_model(16, 3, 4);
        assert_matches_oracle(&model, 33, Device::cpu());
        assert_matches_oracle(&model, 33, Device::gpu());
    }

    #[test]
    fn lstm_batch_matches_oracle_cpu_and_gpu() {
        let model = paper::lstm_model(8, 5);
        assert_matches_oracle(&model, 17, Device::cpu());
        assert_matches_oracle(&model, 17, Device::gpu());
    }

    #[test]
    fn multi_feature_lstm_matches_oracle() {
        // 2 features per time step, 4 steps — beyond what ML-To-SQL
        // supports, exercising the general path.
        let model =
            ModelBuilder::new(8, 3).lstm(5, 4, 2).dense_biased(2, Activation::Sigmoid).build();
        assert_matches_oracle(&model, 9, Device::cpu());
    }

    #[test]
    fn gpu_build_charges_weight_and_replicated_bias_upload() {
        let device = Device::gpu();
        let model = paper::dense_model(32, 2, 0);
        let _built = BuiltModel::from_model(&model, &device, VECTOR_SIZE);
        // Weight bytes + replicated bias bytes.
        let weights = (4 * 32 + 32 * 32 + 32) * 4;
        let biases = (32 + 32 + 1) * VECTOR_SIZE * 4;
        assert_eq!(device.report().h2d_bytes as usize, weights + biases);
    }

    #[test]
    fn infer_charges_input_and_output_transfers() {
        let device = Device::gpu();
        let model = paper::dense_model(8, 2, 0);
        let built = BuiltModel::from_model(&model, &device, VECTOR_SIZE);
        device.reset();
        let x = inputs(10, 4);
        let out = built.infer(&x, &device);
        let report = device.report();
        assert_eq!(report.h2d_bytes, x.byte_len() as u64);
        assert_eq!(report.d2h_bytes, out.byte_len() as u64);
        assert!(report.kernel_launches > 0);
    }

    /// The memory claim of the row blocks: after a 1024-row pass of a
    /// width-512 model, every matrix of the arena holds at most one block
    /// of the widest layer (256 × 512 floats), not one vector of it.
    #[test]
    fn scratch_holds_one_block_of_the_widest_layer() {
        let (rows, width) = (1024, 512);
        let built = BuiltModel::from_model(&paper::dense_model(width, 2, 5), &Device::cpu(), rows);
        assert_eq!(built.block_rows(), 256);
        let mut scratch = InferScratch::default();
        let out = built.infer_into(&inputs(rows, 4), &Device::cpu(), &mut scratch);
        assert_eq!((out.rows(), out.cols()), (rows, 1));
        let InferScratch { block: BlockScratch { ping, pong, lstm, .. }, out } = &scratch;
        let bound = built.block_rows() * width;
        for m in [ping, pong, out, &lstm.c, &lstm.x_t].into_iter().chain(&lstm.z) {
            assert!(m.capacity() <= bound, "capacity {} above {bound}", m.capacity());
        }
        assert_eq!(ping.capacity().max(pong.capacity()), bound);
    }

    /// The narrow models of serving run a whole vector as one block (the
    /// wide ones are pinned by `tests/batch_invariance.rs`), and no block
    /// exceeds the vector size.
    #[test]
    fn narrow_models_run_one_block_per_vector() {
        let block = |model: &nn::Model, vector_size| {
            BuiltModel::from_model(model, &Device::cpu(), vector_size).block_rows()
        };
        assert_eq!(block(&paper::dense_model(64, 4, 0), 1024), 1024);
        assert_eq!(block(&paper::dense_model(32, 2, 0), 1024), 1024);
        assert_eq!(block(&paper::dense_model(512, 4, 0), 100), 100);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let model = paper::dense_model(8, 2, 0);
        let built = BuiltModel::from_model(&model, &Device::cpu(), VECTOR_SIZE);
        built.infer(&Matrix::zeros(3, 7), &Device::cpu());
    }
}
