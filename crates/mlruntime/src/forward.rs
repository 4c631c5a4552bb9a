//! The one batched forward pass (paper Sec. 5.4): a model built into dense
//! weight matrices, and one layer loop over a whole `rows x input_dim`
//! batch. ModelJoin builds it from a model table, [`crate::Session`] from
//! a model file; both run it here, in fp32 or, after
//! [`BuiltModel::quantize`], int8.

use nn::Layer;
use tensor::blas::Transpose;
use tensor::{qgemm_dense, Activation, Device, Matrix, QuantScratch, QuantizedWeights};

/// The weights of one GEMM of a built layer and the bias it adds (empty
/// for the LSTM recurrent matrices, which add none).
#[derive(Clone)]
pub enum Weights {
    /// `input_dim x units` row-major. (The paper stores the weight
    /// matrices "already in a transposed way" so cuBLAS's column-major
    /// `sgemm` computes `A^T x^T`; a row-major `input x units` buffer is
    /// byte-identical to that transposed column-major matrix, so the
    /// layout on disk matches.) The bias is replicated to
    /// `vectorsize x units` (Sec. 5.4).
    F32 { w: Matrix, bias_matrix: Matrix },
    /// Weights quantized per output channel. The bias stays fp32 as a
    /// plain per-unit vector: the fused dequantization epilogue adds the
    /// scalar directly, so no replicated matrix is needed.
    I8 { w: QuantizedWeights, bias: Vec<f32> },
}

impl Weights {
    fn units(&self) -> usize {
        match self {
            Weights::F32 { w, .. } => w.cols(),
            Weights::I8 { w, .. } => w.cols(),
        }
    }

    fn quantize(&self) -> Weights {
        match self {
            Weights::F32 { w, bias_matrix } => Weights::I8 {
                w: QuantizedWeights::quantize(w),
                // Row 0 of the replicated bias matrix is the bias itself.
                bias: bias_matrix.row(0).to_vec(),
            },
            Weights::I8 { .. } => self.clone(),
        }
    }
}

/// `out = act(x·W + b)`, into an `out` already shaped `x.rows() x units`.
fn affine(
    x: &Matrix,
    weights: &Weights,
    act: Activation,
    device: &Device,
    q: &mut QuantScratch,
    out: &mut Matrix,
) {
    match weights {
        Weights::F32 { w, bias_matrix } => {
            // C pre-loaded with the replicated bias rows, beta = 1: the
            // bias addition comes for free with the sgemm (Sec. 5.4).
            device.copy(&bias_matrix.as_slice()[..out.len()], out.as_mut_slice());
            device.gemm(Transpose::No, Transpose::No, 1.0, x, w, 1.0, out);
            device.activation(act, out.as_mut_slice());
        }
        Weights::I8 { w, bias } => qgemm_dense(x, w, Some(bias), act, false, out, q),
    }
}

/// `out += h·U` (the LSTM recurrent term).
fn accumulate(
    h: &Matrix,
    weights: &Weights,
    device: &Device,
    q: &mut QuantScratch,
    out: &mut Matrix,
) {
    match weights {
        Weights::F32 { w, .. } => device.gemm(Transpose::No, Transpose::No, 1.0, h, w, 1.0, out),
        Weights::I8 { w, .. } => qgemm_dense(h, w, None, Activation::Linear, true, out, q),
    }
}

/// A layer of the built (in-memory) model.
#[allow(clippy::large_enum_variant)] // models hold few layers; boxing buys nothing
pub enum BuiltLayer {
    Dense {
        weights: Weights,
        activation: Activation,
    },
    Lstm {
        features: usize,
        timesteps: usize,
        units: usize,
        /// Gate order i, f, c, o; each with its gate bias.
        kernel: [Weights; 4],
        recurrent: [Weights; 4],
    },
}

/// A built model — fp32, or int8 after [`BuiltModel::quantize`]. Both run
/// through the same layer loop; only the GEMM calls differ.
pub struct BuiltModel {
    pub layers: Vec<BuiltLayer>,
    pub input_dim: usize,
    pub output_dim: usize,
    vector_size: usize,
}

/// Per-caller scratch arena for [`BuiltModel::infer_into`]: every buffer
/// inference needs — the ping-pong layer output matrices, the int8 GEMM
/// scratch and the LSTM gate and state buffers — lives here and is reused
/// across batches. Capacity is retained when the batch shrinks (the short
/// final vector of a partition), so steady-state inference allocates
/// nothing.
#[derive(Default)]
pub struct InferScratch {
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
    /// Gate pre-activations/activations `z_i, z_f, z_c, z_o`.
    z: [Matrix; 4],
    /// `f * c` (then reused for `tanh(c)`).
    tmp_a: Vec<f32>,
    /// `i * c~`.
    tmp_b: Vec<f32>,
}

impl BuiltModel {
    /// Assemble the fp32 model from its layers' weights and biases: every
    /// bias is replicated to `vector_size x units` (Sec. 5.4), and the
    /// whole model — weights plus replicated biases — is charged to
    /// `device` as one bulk upload (Sec. 5.2: "move the model to GPU
    /// memory once building is finished").
    pub fn from_layers(
        input_dim: usize,
        layers: Vec<Layer>,
        device: &Device,
        vector_size: usize,
    ) -> BuiltModel {
        let output_dim = layers.last().map_or(input_dim, Layer::output_dim);
        let mut bytes = 0;
        let mut weights = |w: Matrix, bias: Option<Vec<f32>>| {
            let bias_matrix = match bias {
                Some(b) => Matrix::from_fn(vector_size, w.cols(), |_, c| b[c]),
                None => Matrix::default(),
            };
            bytes += w.byte_len() + bias_matrix.byte_len();
            Weights::F32 { w, bias_matrix }
        };
        let layers = layers
            .into_iter()
            .map(|layer| match layer {
                Layer::Dense(d) => BuiltLayer::Dense {
                    weights: weights(d.weights, Some(d.bias)),
                    activation: d.activation,
                },
                Layer::Lstm(l) => {
                    let units = l.units();
                    let mut bias = l.bias.into_iter();
                    BuiltLayer::Lstm {
                        features: l.input_features,
                        timesteps: l.timesteps,
                        units,
                        kernel: l.kernel.map(|k| weights(k, bias.next())),
                        recurrent: l.recurrent.map(|u| weights(u, None)),
                    }
                }
            })
            .collect();
        device.transfer_h2d(bytes);
        BuiltModel { layers, input_dim, output_dim, vector_size }
    }

    /// [`BuiltModel::from_layers`] over a model object's layers.
    pub fn from_model(model: &nn::Model, device: &Device, vector_size: usize) -> BuiltModel {
        BuiltModel::from_layers(model.input_dim(), model.layers().to_vec(), device, vector_size)
    }

    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// The int8 variant of this model: every GEMM operand quantized per
    /// output channel, biases kept in fp32. Runs on the host CPU only: the
    /// quantized kernels have no device path.
    pub fn quantize(&self) -> BuiltModel {
        let layers = self
            .layers
            .iter()
            .map(|layer| match layer {
                BuiltLayer::Dense { weights, activation } => {
                    BuiltLayer::Dense { weights: weights.quantize(), activation: *activation }
                }
                BuiltLayer::Lstm { features, timesteps, units, kernel, recurrent } => {
                    BuiltLayer::Lstm {
                        features: *features,
                        timesteps: *timesteps,
                        units: *units,
                        kernel: kernel.each_ref().map(Weights::quantize),
                        recurrent: recurrent.each_ref().map(Weights::quantize),
                    }
                }
            })
            .collect();
        BuiltModel {
            layers,
            input_dim: self.input_dim,
            output_dim: self.output_dim,
            vector_size: self.vector_size,
        }
    }

    /// Vectorized inference (paper Sec. 5.4): one pass over the layer list
    /// for a whole `rows x input_dim` input matrix. Allocating wrapper
    /// around [`BuiltModel::infer_into`] for one-shot callers.
    pub fn infer(&self, input: &Matrix, device: &Device) -> Matrix {
        let mut scratch = InferScratch::default();
        self.infer_into(input, device, &mut scratch).clone()
    }

    /// Inference writing exclusively into `scratch`; the returned reference
    /// points at the scratch buffer holding the final layer's output.
    /// Batch-at-a-time callers pass the same scratch every call and pay
    /// zero allocations after the first batch. Input upload and output
    /// download are charged to the device transfer model.
    pub fn infer_into<'s>(
        &self,
        input: &Matrix,
        device: &Device,
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        assert!(input.rows() <= self.vector_size, "batch exceeds vector size");
        assert_eq!(input.cols(), self.input_dim, "input width mismatch");
        device.transfer_h2d(input.byte_len());
        let rows = input.rows();
        let InferScratch { ping, pong, q, lstm } = scratch;
        // Invariant: the current layer input lives in `ping` (or is the
        // caller's matrix on the first layer); each layer computes into
        // `pong`, then the two swap — a pointer swap, never a data copy.
        let mut first = true;
        for layer in &self.layers {
            let cur: &Matrix = if first { input } else { &*ping };
            match layer {
                BuiltLayer::Dense { weights, activation } => {
                    pong.resize_zeroed(rows, weights.units());
                    affine(cur, weights, *activation, device, q, pong);
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
            ping.resize_zeroed(rows, input.cols());
            ping.as_mut_slice().copy_from_slice(input.as_slice());
        }
        device.transfer_d2h(ping.byte_len());
        &*ping
    }
}

/// The LSTM layer forward function of paper Listing 5, vectorized over the
/// batch: per time step `z_x := bias ; z_x += X_t W_x ; z_x += H U_x`,
/// gate activations, cell/hidden update. The hidden state `h` lives
/// directly in `out`, which holds the final `h` when the loop ends; all
/// other working buffers come from `scratch`. In int8 both GEMM inputs
/// are re-quantized row-wise per step (`h` changes every iteration);
/// the gate activations and elementwise updates stay fp32.
#[allow(clippy::too_many_arguments)]
fn lstm_forward_into(
    input: &Matrix,
    features: usize,
    timesteps: usize,
    units: usize,
    kernel: &[Weights; 4],
    recurrent: &[Weights; 4],
    device: &Device,
    q: &mut QuantScratch,
    scratch: &mut LstmScratch,
    out: &mut Matrix,
) {
    let rows = input.rows();
    let h = out;
    h.resize_zeroed(rows, units);
    scratch.c.resize_zeroed(rows, units);
    scratch.x_t.resize_zeroed(rows, features);
    for zg in &mut scratch.z {
        zg.resize_zeroed(rows, units);
    }
    scratch.tmp_a.clear();
    scratch.tmp_a.resize(rows * units, 0.0);
    scratch.tmp_b.clear();
    scratch.tmp_b.resize(rows * units, 0.0);
    let LstmScratch { c, x_t, z, tmp_a, tmp_b } = scratch;

    for t in 0..timesteps {
        for r in 0..rows {
            x_t.row_mut(r).copy_from_slice(&input.row(r)[t * features..(t + 1) * features]);
        }
        for (g, zg) in z.iter_mut().enumerate() {
            affine(x_t, &kernel[g], Activation::Linear, device, q, zg);
            if t > 0 {
                accumulate(h, &recurrent[g], device, q, zg);
            }
        }
        device.activation(Activation::Sigmoid, z[0].as_mut_slice());
        device.activation(Activation::Sigmoid, z[1].as_mut_slice());
        device.activation(Activation::Tanh, z[2].as_mut_slice());
        device.activation(Activation::Sigmoid, z[3].as_mut_slice());

        // c := f*c + i*c~   (vsMul / vsAdd of Listing 5)
        device.vs_mul(z[1].as_slice(), c.as_slice(), tmp_a);
        device.vs_mul(z[0].as_slice(), z[2].as_slice(), tmp_b);
        device.vs_add(tmp_a, tmp_b, c.as_mut_slice());

        // h := o * tanh(c)
        tmp_a.copy_from_slice(c.as_slice());
        device.activation(Activation::Tanh, tmp_a);
        device.vs_mul(z[3].as_slice(), tmp_a, h.as_mut_slice());
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

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let model = paper::dense_model(8, 2, 0);
        let built = BuiltModel::from_model(&model, &Device::cpu(), VECTOR_SIZE);
        built.infer(&Matrix::zeros(3, 7), &Device::cpu());
    }
}
