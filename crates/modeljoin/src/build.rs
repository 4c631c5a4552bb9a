//! The parallel model build phase (paper Sec. 5.2).

use model_repr::{Layout, ModelMeta, SlotKind};
use std::sync::{Arc, OnceLock};
use tensor::blas::{vs_add, vs_mul, Transpose};
use tensor::{qgemm_dense, Activation, Device, Matrix, QuantScratch, QuantizedWeights};
use vector_engine::{Batch, EngineError, Result, Table};

/// A layer of the built (in-memory) model.
#[allow(clippy::large_enum_variant)] // models hold few layers; boxing buys nothing
pub enum BuiltLayer {
    Dense {
        /// `input_dim x units` row-major. (The paper stores the weight
        /// matrices "already in a transposed way" so cuBLAS's
        /// column-major `sgemm` computes `A^T x^T`; a row-major
        /// `input x units` buffer is byte-identical to that transposed
        /// column-major matrix, so the layout on disk matches.)
        weights: Matrix,
        /// Bias replicated to `vectorsize x units` (Sec. 5.4).
        bias_matrix: Matrix,
        activation: Activation,
    },
    Lstm {
        features: usize,
        timesteps: usize,
        units: usize,
        /// Gate order i, f, c, o.
        kernel: [Matrix; 4],
        recurrent: [Matrix; 4],
        bias_matrix: [Matrix; 4],
    },
}

/// The shared in-memory model produced by the build phase.
pub struct BuiltModel {
    pub layers: Vec<BuiltLayer>,
    pub input_dim: usize,
    pub output_dim: usize,
    vector_size: usize,
}

/// Per-operator scratch arena for [`BuiltModel::infer_into`]: every buffer
/// inference needs — the ping-pong layer output matrices and the LSTM gate
/// and state buffers — lives here and is reused across batches. Capacity is
/// retained when the batch shrinks (the short final vector of a partition),
/// so steady-state inference allocates nothing.
#[derive(Default)]
pub struct InferScratch {
    /// Ping-pong layer outputs: layer `l` writes one while reading the other.
    ping: Matrix,
    pong: Matrix,
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
    pub fn vector_size(&self) -> usize {
        self.vector_size
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
    /// Batch-at-a-time callers (the ModelJoin operator) pass the same
    /// scratch every call and pay zero allocations after the first batch.
    pub fn infer_into<'s>(
        &self,
        input: &Matrix,
        device: &Device,
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        assert!(input.rows() <= self.vector_size, "batch exceeds vector size");
        assert_eq!(input.cols(), self.input_dim, "input width mismatch");
        let probe = &obs::metrics::MODELJOIN_PROBE;
        probe.batches.add(1);
        probe.rows.add(input.rows() as u64);
        let _span = obs::span(&probe.time_us);
        device.transfer_h2d(input.byte_len());
        let rows = input.rows();
        let InferScratch { ping, pong, lstm } = scratch;
        // Invariant: the current layer input lives in `ping` (or is the
        // caller's matrix on the first layer); each layer computes into
        // `pong`, then the two swap — a pointer swap, never a data copy.
        let mut first = true;
        for layer in &self.layers {
            let cur: &Matrix = if first { input } else { &*ping };
            match layer {
                BuiltLayer::Dense { weights, bias_matrix, activation } => {
                    // C pre-loaded with the replicated bias rows, beta = 1:
                    // the bias addition comes for free with the sgemm
                    // (Sec. 5.4).
                    let units = weights.cols();
                    pong.resize_zeroed(rows, units);
                    device.copy(&bias_matrix.as_slice()[..rows * units], pong.as_mut_slice());
                    device.gemm(Transpose::No, Transpose::No, 1.0, cur, weights, 1.0, pong);
                    device.activation(*activation, pong.as_mut_slice());
                }
                BuiltLayer::Lstm { features, timesteps, units, kernel, recurrent, bias_matrix } => {
                    lstm_forward_into(
                        cur,
                        *features,
                        *timesteps,
                        *units,
                        kernel,
                        recurrent,
                        bias_matrix,
                        device,
                        lstm,
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
/// other working buffers come from `scratch`.
#[allow(clippy::too_many_arguments)]
fn lstm_forward_into(
    input: &Matrix,
    features: usize,
    timesteps: usize,
    units: usize,
    kernel: &[Matrix; 4],
    recurrent: &[Matrix; 4],
    bias_matrix: &[Matrix; 4],
    device: &Device,
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
            // COPY(z_x, bias_x) — from the pre-replicated bias matrix.
            device.copy(&bias_matrix[g].as_slice()[..rows * units], zg.as_mut_slice());
            device.gemm(Transpose::No, Transpose::No, 1.0, x_t, &kernel[g], 1.0, zg);
            if t > 0 {
                device.gemm(Transpose::No, Transpose::No, 1.0, h, &recurrent[g], 1.0, zg);
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

/// Description of one flat weight buffer to fill.
struct SlabSpec {
    len: usize,
}

/// Where an edge's weights land: resolved from the edge endpoints.
struct EdgeTarget {
    /// Writes as (buffer index, offset, weight-column index).
    writes: [(usize, usize, usize); 4],
    write_count: usize,
}

/// Routing tables from the model metadata.
struct Router {
    meta: ModelMeta,
    layout: Layout,
    /// Per slot: (first buffer index, kind).
    slot_buffers: Vec<usize>,
    specs: Vec<SlabSpec>,
}

/// Weight-vector column ordinals within the 12 weight columns.
const W0: usize = 0;
const U0: usize = 4;
const B0: usize = 8;

impl Router {
    fn new(meta: &ModelMeta, layout: Layout) -> Router {
        let mut specs = Vec::new();
        let mut slot_buffers = Vec::new();
        let mut prev_dim = meta.input_dim;
        for slot in &meta.slots {
            slot_buffers.push(specs.len());
            match slot.kind {
                SlotKind::Input => {}
                SlotKind::Dense(_) => {
                    specs.push(SlabSpec { len: prev_dim * slot.dim }); // W
                    specs.push(SlabSpec { len: slot.dim }); // bias
                    prev_dim = slot.dim;
                }
                SlotKind::LstmKernel => {
                    for _ in 0..4 {
                        specs.push(SlabSpec { len: slot.features * slot.dim }); // K_g
                    }
                    for _ in 0..4 {
                        specs.push(SlabSpec { len: slot.dim }); // b_g
                    }
                }
                SlotKind::LstmRecurrent => {
                    for _ in 0..4 {
                        specs.push(SlabSpec { len: slot.dim * slot.dim }); // U_g
                    }
                    prev_dim = slot.dim;
                }
            }
        }
        Router { meta: meta.clone(), layout, slot_buffers, specs }
    }

    /// Resolve an edge (by its endpoint columns) to its write targets.
    /// Returns `None` for input-distribution edges (no learnable weights).
    fn route(&self, endpoints: &[i64]) -> Option<EdgeTarget> {
        let (slot_idx, rel_in, rel_out) = match self.layout {
            Layout::LayerNode => {
                let (_, node_in, layer, node) =
                    (endpoints[0], endpoints[1], endpoints[2], endpoints[3]);
                if layer <= 0 {
                    return None; // input distribution edges
                }
                (layer as usize, node_in as usize, node as usize)
            }
            Layout::NodeId => {
                let (node_in, node) = (endpoints[0], endpoints[1]);
                let slot_idx = self
                    .meta
                    .slots
                    .iter()
                    .position(|s| node >= s.node_base && node < s.node_base + s.dim as i64)?;
                if slot_idx == 0 {
                    return None;
                }
                let dst = &self.meta.slots[slot_idx];
                let src_base = match dst.kind {
                    SlotKind::LstmRecurrent => self.meta.slots[slot_idx - 1].node_base,
                    _ => {
                        // Edges into dense / kernel slots come from the slot
                        // the source id falls into.
                        self.meta
                            .slots
                            .iter()
                            .find(|s| {
                                node_in >= s.node_base && node_in < s.node_base + s.dim as i64
                            })?
                            .node_base
                    }
                };
                (slot_idx, (node_in - src_base) as usize, (node - dst.node_base) as usize)
            }
        };
        let slot = &self.meta.slots[slot_idx];
        let base = self.slot_buffers[slot_idx];
        let mut writes = [(0usize, 0usize, 0usize); 4];
        let mut n;
        match slot.kind {
            SlotKind::Input => return None,
            SlotKind::Dense(_) => {
                writes[0] = (base, rel_in * slot.dim + rel_out, W0);
                n = 1;
                if rel_in == 0 {
                    // Bias is replicated on every incoming edge; exactly one
                    // edge (rel_in == 0) writes it so threads never race.
                    writes[1] = (base + 1, rel_out, B0);
                    n = 2;
                }
            }
            SlotKind::LstmKernel => {
                for (g, w) in writes.iter_mut().enumerate().take(4) {
                    *w = (base + g, rel_in * slot.dim + rel_out, W0 + g);
                }
                n = 4;
                // Kernel bias written by the f == 0 edge only, handled via a
                // second target below (see `route_bias`).
            }
            SlotKind::LstmRecurrent => {
                for (g, w) in writes.iter_mut().enumerate().take(4) {
                    *w = (base + g, rel_in * slot.dim + rel_out, U0 + g);
                }
                n = 4;
            }
        }
        Some(EdgeTarget { writes, write_count: n })
    }

    /// Additional bias writes for LSTM kernel edges with `rel_in == 0`.
    fn route_lstm_bias(&self, endpoints: &[i64]) -> Option<EdgeTarget> {
        let (slot_idx, rel_in, rel_out) =
            match self.layout {
                Layout::LayerNode => {
                    let (_, node_in, layer, node) =
                        (endpoints[0], endpoints[1], endpoints[2], endpoints[3]);
                    if layer <= 0 {
                        return None;
                    }
                    (layer as usize, node_in as usize, node as usize)
                }
                Layout::NodeId => {
                    let (node_in, node) = (endpoints[0], endpoints[1]);
                    let slot_idx =
                        self.meta.slots.iter().position(|s| {
                            node >= s.node_base && node < s.node_base + s.dim as i64
                        })?;
                    if slot_idx == 0 {
                        return None;
                    }
                    let src =
                        self.meta.slots.iter().find(|s| {
                            node_in >= s.node_base && node_in < s.node_base + s.dim as i64
                        })?;
                    (
                        slot_idx,
                        (node_in - src.node_base) as usize,
                        (node - self.meta.slots[slot_idx].node_base) as usize,
                    )
                }
            };
        let slot = &self.meta.slots[slot_idx];
        if slot.kind != SlotKind::LstmKernel || rel_in != 0 {
            return None;
        }
        let base = self.slot_buffers[slot_idx];
        let mut writes = [(0usize, 0usize, 0usize); 4];
        for (g, w) in writes.iter_mut().enumerate() {
            *w = (base + 4 + g, rel_out, B0 + g);
        }
        Some(EdgeTarget { writes, write_count: 4 })
    }
}

/// A raw shared view of the slab buffers for the lock-free parallel fill.
///
/// SAFETY ARGUMENT (the paper's own, Sec. 5.2): "As partitioning is
/// arbitrary but distinct, it is guaranteed that there is no concurrent
/// access to memory during this phase, making synchronization obsolete and
/// providing true parallelism." Each edge row maps to a unique set of
/// element offsets (the one exception — the replicated bias — is resolved
/// by letting only the `rel_in == 0` edge write it), and each edge row
/// lives in exactly one partition, so two threads never write the same
/// element.
struct SlabPtrs {
    ptrs: Vec<*mut f32>,
    lens: Vec<usize>,
}

unsafe impl Send for SlabPtrs {}
unsafe impl Sync for SlabPtrs {}

impl SlabPtrs {
    /// Write `value` at `offset` of buffer `buf`.
    ///
    /// # Safety
    /// Caller must guarantee offset is in range and no concurrent write to
    /// the same element occurs (see the struct-level safety argument).
    unsafe fn write(&self, buf: usize, offset: usize, value: f32) {
        debug_assert!(offset < self.lens[buf]);
        unsafe { *self.ptrs[buf].add(offset) = value };
    }
}

fn fill_from_batch(batch: &Batch, router: &Router, slabs: &SlabPtrs) -> Result<()> {
    let nend = router.layout.column_count() - 12;
    let mut endpoints = vec![0i64; nend];
    let weight_cols: Result<Vec<&[f64]>> =
        (nend..nend + 12).map(|i| batch.column(i).as_float()).collect();
    let weight_cols = weight_cols?;
    let end_cols: Result<Vec<&[i64]>> = (0..nend).map(|i| batch.column(i).as_int()).collect();
    let end_cols = end_cols?;
    for row in 0..batch.num_rows() {
        for (e, col) in endpoints.iter_mut().zip(&end_cols) {
            *e = col[row];
        }
        if let Some(target) = router.route(&endpoints) {
            for w in &target.writes[..target.write_count] {
                let (buf, offset, wcol) = *w;
                // SAFETY: see SlabPtrs — disjoint offsets across rows,
                // disjoint rows across threads.
                unsafe { slabs.write(buf, offset, weight_cols[wcol][row] as f32) };
            }
        }
        if let Some(target) = router.route_lstm_bias(&endpoints) {
            for w in &target.writes[..target.write_count] {
                let (buf, offset, wcol) = *w;
                // SAFETY: as above.
                unsafe { slabs.write(buf, offset, weight_cols[wcol][row] as f32) };
            }
        }
    }
    Ok(())
}

/// Run the parallel build phase: allocate shared storage single-threaded,
/// fill it from the model-table partitions in parallel, then assemble the
/// [`BuiltModel`] (bias replication + one-shot GPU upload).
pub fn build_parallel(
    table: &Table,
    meta: &ModelMeta,
    layout: Layout,
    device: &Device,
    vector_size: usize,
    // Unused (the fill runs on the scheduler pool); kept for
    // benchmark/src/workloads/serve_point.rs until the next `benchmark`
    // PR drops the argument.
    _threads: usize,
) -> Result<BuiltModel> {
    if table.schema().len() != layout.column_count() {
        return Err(EngineError::Catalog(format!(
            "model table has {} columns but layout {} needs {}",
            table.schema().len(),
            layout.name(),
            layout.column_count()
        )));
    }
    obs::metrics::MODELJOIN_BUILD_COUNT.add(1);
    let _span = obs::span(&obs::metrics::MODELJOIN_BUILD_US);
    let router = Router::new(meta, layout);
    // Phase 1: single-threaded allocation (paper: "memory allocation ...
    // is performed single-threaded to a shared memory location").
    let mut bufs: Vec<Vec<f32>> = router.specs.iter().map(|s| vec![0.0; s.len]).collect();
    let slabs = SlabPtrs {
        ptrs: bufs.iter_mut().map(|b| b.as_mut_ptr()).collect(),
        lens: bufs.iter().map(Vec::len).collect(),
    };

    // Phase 2: parallel fill over the partitions, one Query-class task
    // each on the shared pool (disjoint slab rows, so fills never
    // conflict). The join is the single synchronization barrier of
    // Sec. 5.2.
    let fill = |p: usize| -> Result<()> {
        for batch in table.partition_batches(p)? {
            fill_from_batch(&batch, &router, &slabs)?;
        }
        Ok(())
    };
    for filled in
        sched::global().fork_join(sched::TaskClass::Query, 0..table.partition_count(), fill)?
    {
        filled?;
    }

    // Phase 3: assemble layers — bias replication to vectorsize x m
    // (Sec. 5.4) and, for the GPU variant, one bulk transfer of the whole
    // model (Sec. 5.2: "always perform the parallel model build phase on
    // the host memory and move the model to GPU memory once building is
    // finished").
    let mut layers = Vec::new();
    let mut prev_dim = meta.input_dim;
    let mut buf_iter = bufs.into_iter();
    let mut total_bytes = 0usize;
    for slot in &meta.slots {
        match slot.kind {
            SlotKind::Input => {}
            SlotKind::Dense(activation) => {
                let w = buf_iter.next().expect("allocated");
                let b = buf_iter.next().expect("allocated");
                total_bytes += (w.len() + b.len() * vector_size) * 4;
                layers.push(BuiltLayer::Dense {
                    weights: Matrix::from_vec(prev_dim, slot.dim, w),
                    bias_matrix: Matrix::from_fn(vector_size, slot.dim, |_, c| b[c]),
                    activation,
                });
                prev_dim = slot.dim;
            }
            SlotKind::LstmKernel => {
                let mut kernel = Vec::with_capacity(4);
                for _ in 0..4 {
                    let k = buf_iter.next().expect("allocated");
                    total_bytes += k.len() * 4;
                    kernel.push(Matrix::from_vec(slot.features, slot.dim, k));
                }
                let mut bias_matrix = Vec::with_capacity(4);
                for _ in 0..4 {
                    let b = buf_iter.next().expect("allocated");
                    total_bytes += b.len() * vector_size * 4;
                    bias_matrix.push(Matrix::from_fn(vector_size, slot.dim, |_, c| b[c]));
                }
                // The recurrent slot follows immediately; consume it here.
                layers.push(BuiltLayer::Lstm {
                    features: slot.features,
                    timesteps: slot.timesteps,
                    units: slot.dim,
                    kernel: kernel
                        .try_into()
                        .map_err(|_| EngineError::Execution("gate count mismatch".into()))?,
                    recurrent: [
                        Matrix::zeros(0, 0),
                        Matrix::zeros(0, 0),
                        Matrix::zeros(0, 0),
                        Matrix::zeros(0, 0),
                    ],
                    bias_matrix: bias_matrix
                        .try_into()
                        .map_err(|_| EngineError::Execution("gate count mismatch".into()))?,
                });
            }
            SlotKind::LstmRecurrent => {
                let mut recurrent = Vec::with_capacity(4);
                for _ in 0..4 {
                    let u = buf_iter.next().expect("allocated");
                    total_bytes += u.len() * 4;
                    recurrent.push(Matrix::from_vec(slot.dim, slot.dim, u));
                }
                let Some(BuiltLayer::Lstm { recurrent: rec_slot, .. }) = layers.last_mut() else {
                    return Err(EngineError::Execution(
                        "recurrent slot without kernel slot".into(),
                    ));
                };
                *rec_slot = recurrent
                    .try_into()
                    .map_err(|_| EngineError::Execution("gate count mismatch".into()))?;
                prev_dim = slot.dim;
            }
        }
    }
    device.transfer_h2d(total_bytes);
    Ok(BuiltModel { layers, input_dim: meta.input_dim, output_dim: meta.output_dim(), vector_size })
}

/// A layer of the int8 quantized model: the same shapes as [`BuiltLayer`]
/// with weights quantized per output channel. Biases stay fp32 as plain
/// per-unit vectors — the fused dequantization epilogue adds the scalar
/// directly, so the replicated `vectorsize x units` bias matrix of the
/// fp32 beta-trick is not needed.
#[allow(clippy::large_enum_variant)] // models hold few layers; boxing buys nothing
pub enum QuantizedLayer {
    Dense {
        weights: QuantizedWeights,
        bias: Vec<f32>,
        activation: Activation,
    },
    Lstm {
        features: usize,
        timesteps: usize,
        units: usize,
        /// Gate order i, f, c, o.
        kernel: [QuantizedWeights; 4],
        recurrent: [QuantizedWeights; 4],
        bias: [Vec<f32>; 4],
    },
}

/// The int8 variant of a [`BuiltModel`]: derived once per model build by
/// [`QuantizedModel::from_built`] (per-layer, per-output-channel scales),
/// then served like any built model. Runs on the host CPU only — the
/// simulated GPU backend keeps the fp32 path.
pub struct QuantizedModel {
    pub layers: Vec<QuantizedLayer>,
    pub input_dim: usize,
    pub output_dim: usize,
    vector_size: usize,
}

/// Per-operator scratch arena for [`QuantizedModel::infer_into`]: the
/// ping-pong output matrices, the shared int8 GEMM scratch (quantized
/// activations, row scales, i32 accumulator) and the LSTM state buffers.
/// Reused across batches, so steady-state quantized inference allocates
/// nothing.
#[derive(Default)]
pub struct QuantInferScratch {
    ping: Matrix,
    pong: Matrix,
    q: QuantScratch,
    lstm: QuantLstmScratch,
}

/// Working state of one quantized LSTM forward pass.
#[derive(Default)]
struct QuantLstmScratch {
    c: Matrix,
    x_t: Matrix,
    z: [Matrix; 4],
    tmp_a: Vec<f32>,
    tmp_b: Vec<f32>,
}

impl QuantizedModel {
    /// Quantize a built fp32 model: per-output-channel weight scales per
    /// layer, biases copied through in fp32.
    pub fn from_built(built: &BuiltModel) -> QuantizedModel {
        obs::metrics::MODELJOIN_QUANT_BUILDS.add(1);
        let layers = built
            .layers
            .iter()
            .map(|layer| match layer {
                BuiltLayer::Dense { weights, bias_matrix, activation } => QuantizedLayer::Dense {
                    weights: QuantizedWeights::quantize(weights),
                    // Row 0 of the replicated bias matrix is the bias itself.
                    bias: bias_matrix.row(0).to_vec(),
                    activation: *activation,
                },
                BuiltLayer::Lstm { features, timesteps, units, kernel, recurrent, bias_matrix } => {
                    QuantizedLayer::Lstm {
                        features: *features,
                        timesteps: *timesteps,
                        units: *units,
                        kernel: std::array::from_fn(|g| QuantizedWeights::quantize(&kernel[g])),
                        recurrent: std::array::from_fn(|g| {
                            QuantizedWeights::quantize(&recurrent[g])
                        }),
                        bias: std::array::from_fn(|g| bias_matrix[g].row(0).to_vec()),
                    }
                }
            })
            .collect();
        QuantizedModel {
            layers,
            input_dim: built.input_dim,
            output_dim: built.output_dim,
            vector_size: built.vector_size(),
        }
    }

    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// Allocating wrapper around [`QuantizedModel::infer_into`] for
    /// one-shot callers (the serving layer's batch executor).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut scratch = QuantInferScratch::default();
        self.infer_into(input, &mut scratch).clone()
    }

    /// Quantized inference writing exclusively into `scratch`; mirrors
    /// [`BuiltModel::infer_into`] with each dense sgemm replaced by the
    /// int8 `qgemm_dense` (activation quantization per batch, dequant +
    /// bias + activation fused into the epilogue).
    pub fn infer_into<'s>(&self, input: &Matrix, scratch: &'s mut QuantInferScratch) -> &'s Matrix {
        assert!(input.rows() <= self.vector_size, "batch exceeds vector size");
        assert_eq!(input.cols(), self.input_dim, "input width mismatch");
        let probe = &obs::metrics::MODELJOIN_PROBE;
        probe.batches.add(1);
        probe.rows.add(input.rows() as u64);
        let _span = obs::span(&probe.time_us);
        let rows = input.rows();
        let QuantInferScratch { ping, pong, q, lstm } = scratch;
        let mut first = true;
        for layer in &self.layers {
            let cur: &Matrix = if first { input } else { &*ping };
            match layer {
                QuantizedLayer::Dense { weights, bias, activation } => {
                    pong.resize_zeroed(rows, weights.cols());
                    qgemm_dense(cur, weights, Some(bias), *activation, false, pong, q);
                }
                QuantizedLayer::Lstm { features, timesteps, units, kernel, recurrent, bias } => {
                    quant_lstm_forward_into(
                        cur, *features, *timesteps, *units, kernel, recurrent, bias, q, lstm, pong,
                    );
                }
            }
            std::mem::swap(ping, pong);
            first = false;
        }
        if first {
            ping.resize_zeroed(rows, input.cols());
            ping.as_mut_slice().copy_from_slice(input.as_slice());
        }
        &*ping
    }
}

/// The quantized LSTM forward pass: per time step each gate pre-activation
/// is one overwriting `qgemm_dense` (bias fused, linear) for `X_t K_g`
/// plus one accumulating call for `H U_g` — both inputs re-quantized
/// row-wise per step, since `h` changes every iteration. Gate activations
/// and the cell/hidden elementwise updates stay fp32.
#[allow(clippy::too_many_arguments)]
fn quant_lstm_forward_into(
    input: &Matrix,
    features: usize,
    timesteps: usize,
    units: usize,
    kernel: &[QuantizedWeights; 4],
    recurrent: &[QuantizedWeights; 4],
    bias: &[Vec<f32>; 4],
    q: &mut QuantScratch,
    scratch: &mut QuantLstmScratch,
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
    let QuantLstmScratch { c, x_t, z, tmp_a, tmp_b } = scratch;

    for t in 0..timesteps {
        for r in 0..rows {
            x_t.row_mut(r).copy_from_slice(&input.row(r)[t * features..(t + 1) * features]);
        }
        for (g, zg) in z.iter_mut().enumerate() {
            qgemm_dense(x_t, &kernel[g], Some(&bias[g]), Activation::Linear, false, zg, q);
            if t > 0 {
                qgemm_dense(h, &recurrent[g], None, Activation::Linear, true, zg, q);
            }
        }
        Activation::Sigmoid.apply(z[0].as_mut_slice());
        Activation::Sigmoid.apply(z[1].as_mut_slice());
        Activation::Tanh.apply(z[2].as_mut_slice());
        Activation::Sigmoid.apply(z[3].as_mut_slice());

        // c := f*c + i*c~
        vs_mul(z[1].as_slice(), c.as_slice(), tmp_a);
        vs_mul(z[0].as_slice(), z[2].as_slice(), tmp_b);
        vs_add(tmp_a, tmp_b, c.as_mut_slice());

        // h := o * tanh(c)
        tmp_a.copy_from_slice(c.as_slice());
        Activation::Tanh.apply(tmp_a);
        vs_mul(z[3].as_slice(), tmp_a, h.as_mut_slice());
    }
}

/// The shared model handle of the parallel ModelJoin: all per-partition
/// operator instances hold the same `SharedModel`; the first `next()` call
/// performs the build, later callers reuse it (paper Sec. 5.2: "all
/// threads build a shared model").
pub struct SharedModel {
    table: Arc<Table>,
    meta: ModelMeta,
    layout: Layout,
    device: Device,
    vector_size: usize,
    built: OnceLock<std::result::Result<Arc<BuiltModel>, EngineError>>,
    /// Int8 variant, derived lazily from `built` on the first quantized
    /// query; both dtypes coexist for the lifetime of the handle.
    quantized: OnceLock<std::result::Result<Arc<QuantizedModel>, EngineError>>,
}

impl SharedModel {
    pub fn new(
        table: Arc<Table>,
        meta: ModelMeta,
        layout: Layout,
        device: Device,
        vector_size: usize,
        // Unused (the build runs on the scheduler pool); kept for
        // benchmark/src/workloads/modeljoin_batch.rs until the next
        // `benchmark` PR drops the argument.
        _build_threads: usize,
    ) -> Arc<SharedModel> {
        Arc::new(SharedModel {
            table,
            meta,
            layout,
            device,
            vector_size,
            built: OnceLock::new(),
            quantized: OnceLock::new(),
        })
    }

    /// A `SharedModel` whose build phase already happened elsewhere — the
    /// constructor the serving layer's model cache uses so a query reuses
    /// the cached `Arc<BuiltModel>` instead of re-running the build on its
    /// first `next()` call.
    pub fn with_built(
        table: Arc<Table>,
        meta: ModelMeta,
        layout: Layout,
        device: Device,
        built: Arc<BuiltModel>,
    ) -> Arc<SharedModel> {
        let vector_size = built.vector_size();
        let shared = SharedModel {
            table,
            meta,
            layout,
            device,
            vector_size,
            built: OnceLock::new(),
            quantized: OnceLock::new(),
        };
        let set = shared.built.set(Ok(built));
        debug_assert!(set.is_ok(), "fresh OnceLock cannot be set already");
        Arc::new(shared)
    }

    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// The built model, if the build phase has run (or was injected via
    /// [`SharedModel::with_built`]) — without triggering a build.
    pub fn built(&self) -> Option<Arc<BuiltModel>> {
        self.built.get().and_then(|r| r.as_ref().ok().cloned())
    }

    /// Get (building on first use) the shared built model.
    pub fn get(&self) -> Result<Arc<BuiltModel>> {
        self.built
            .get_or_init(|| {
                build_parallel(
                    &self.table,
                    &self.meta,
                    self.layout,
                    &self.device,
                    self.vector_size,
                    0,
                )
                .map(Arc::new)
            })
            .clone()
    }

    /// Get (quantizing on first use) the int8 variant of the shared model.
    /// Quantization happens once per handle, from the fp32 model the
    /// regular build phase produced out of the relational representation.
    pub fn get_quantized(&self) -> Result<Arc<QuantizedModel>> {
        self.quantized
            .get_or_init(|| self.get().map(|built| Arc::new(QuantizedModel::from_built(&built))))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model_repr::load_into_engine;
    use nn::paper;
    use vector_engine::{Engine, EngineConfig};

    /// Build from a model table of `partitions` partitions: one fill task
    /// each, so 1 is the serial (caller-only) build.
    fn build_for(model: &nn::Model, layout: Layout, partitions: usize) -> (BuiltModel, nn::Model) {
        let engine = Engine::new(EngineConfig { vector_size: 8, partitions, ..Default::default() });
        let (table, meta) = load_into_engine(&engine, "m", model, layout).unwrap();
        let built = build_parallel(&table, &meta, layout, &Device::cpu(), 16, 0).unwrap();
        (built, model.clone())
    }

    fn assert_infer_matches(model: &nn::Model, built: &BuiltModel, rows: usize) {
        let x = Matrix::from_fn(rows, model.input_dim(), |r, c| ((r * 7 + c) as f32 * 0.21).sin());
        let got = built.infer(&x, &Device::cpu());
        let expected = model.predict(&x);
        let diff = got.max_abs_diff(&expected);
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn dense_build_and_infer_both_layouts() {
        let model = paper::dense_model(8, 3, 21);
        for layout in [Layout::LayerNode, Layout::NodeId] {
            let (built, model) = build_for(&model, layout, 3);
            assert_infer_matches(&model, &built, 16);
        }
    }

    #[test]
    fn lstm_build_and_infer_both_layouts() {
        let model = paper::lstm_model(6, 13);
        for layout in [Layout::LayerNode, Layout::NodeId] {
            let (built, model) = build_for(&model, layout, 4);
            assert_infer_matches(&model, &built, 10);
        }
    }

    #[test]
    fn serial_and_partition_parallel_builds_agree() {
        let model = paper::dense_model(16, 4, 5);
        let (a, _) = build_for(&model, Layout::NodeId, 1);
        let (b, _) = build_for(&model, Layout::NodeId, 4);
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1);
        assert_eq!(a.infer(&x, &Device::cpu()), b.infer(&x, &Device::cpu()));
    }

    #[test]
    fn infer_into_reuses_scratch_across_batch_sizes() {
        // Shrinking then regrowing the batch (a partition's short tail
        // vector) must neither reallocate incorrectly nor leave stale
        // values behind — every batch matches the oracle.
        for model in [paper::dense_model(8, 3, 21), paper::lstm_model(6, 13)] {
            let (built, model) = build_for(&model, Layout::NodeId, 2);
            let mut scratch = InferScratch::default();
            for rows in [16usize, 5, 16, 1, 9] {
                let x = Matrix::from_fn(rows, model.input_dim(), |r, c| {
                    ((r * 11 + c * 3) as f32 * 0.17).sin()
                });
                let got = built.infer_into(&x, &Device::cpu(), &mut scratch).clone();
                let expected = model.predict(&x);
                let diff = got.max_abs_diff(&expected);
                assert!(diff < 1e-4, "rows {rows}: max diff {diff}");
            }
        }
    }

    #[test]
    fn gpu_build_charges_one_bulk_upload() {
        let model = paper::dense_model(8, 2, 3);
        let engine = Engine::new(EngineConfig::test_small());
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
        let gpu = Device::gpu();
        let vector_size = 16;
        let built = build_parallel(&table, &meta, Layout::NodeId, &gpu, vector_size, 2).unwrap();
        let report = gpu.report();
        assert!(report.h2d_bytes > 0);
        // Weight bytes + replicated bias bytes.
        let weights = (4 * 8 + 8 * 8 + 8) * 4;
        let biases = (8 + 8 + 1) * vector_size * 4;
        assert_eq!(report.h2d_bytes as usize, weights + biases);
        let _ = built;
    }

    #[test]
    fn shared_model_builds_once() {
        let model = paper::dense_model(4, 2, 2);
        let engine = Engine::new(EngineConfig::test_small());
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
        let shared = SharedModel::new(table, meta, Layout::NodeId, Device::cpu(), 8, 2);
        let a = shared.get().unwrap();
        let b = shared.get().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn wrong_layout_is_rejected() {
        let model = paper::dense_model(4, 2, 2);
        let engine = Engine::new(EngineConfig::test_small());
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
        assert!(build_parallel(&table, &meta, Layout::LayerNode, &Device::cpu(), 8, 1).is_err());
    }

    #[test]
    fn infer_rejects_oversized_batch() {
        let model = paper::dense_model(4, 2, 2);
        let (built, _) = build_for(&model, Layout::NodeId, 1);
        let x = Matrix::zeros(17, 4); // vector size is 16 in build_for
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            built.infer(&x, &Device::cpu())
        }));
        assert!(result.is_err());
    }
}
