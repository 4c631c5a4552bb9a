//! The parallel model build phase (paper Sec. 5.2): the relational model
//! table's edges routed into weight and bias buffers, which the runtime
//! assembles into a [`BuiltModel`]; plus the shared per-query handle and
//! the one dtype decision.

use crate::cache::ModelCache;
use mlruntime::BuiltModel;
use model_repr::{Layout, ModelMeta, SlotInfo, SlotKind};
use nn::{DenseLayer, Layer, LstmLayer};
use std::sync::{Arc, OnceLock};
use tensor::{Device, Matrix};
use vector_engine::{Batch, EngineConfig, EngineError, Result, Table};

/// The numeric representation a built model runs in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelDtype {
    F32,
    I8,
}

impl ModelDtype {
    /// The one place the dtype is decided: int8 when the engine's
    /// `quantized_inference` knob asks for it and the model is
    /// CPU-resident. The quantized kernels have no device path, so a
    /// GPU-resident model keeps fp32 whatever the knob says.
    pub fn for_engine(config: &EngineConfig, device: &Device) -> ModelDtype {
        if config.quantized_inference && !device.is_gpu() {
            ModelDtype::I8
        } else {
            ModelDtype::F32
        }
    }
}

/// Routing tables from the model metadata.
struct Router {
    meta: ModelMeta,
    layout: Layout,
    /// Per slot: its first buffer index.
    slot_buffers: Vec<usize>,
    /// `(rows, cols)` of each flat row-major weight buffer to fill.
    buffer_shapes: Vec<(usize, usize)>,
    /// The weight columns (ordinals within the 12) the slots read: `w_i`
    /// and `b_i` while every slot is Dense, all 12 once one is LSTM.
    weights: Vec<usize>,
}

/// Weight-vector column ordinals within the 12 weight columns.
const W0: usize = 0;
const U0: usize = 4;
const B0: usize = 8;

impl Router {
    fn new(meta: &ModelMeta, layout: Layout) -> Router {
        let mut buffer_shapes = Vec::new();
        let mut slot_buffers = Vec::new();
        let mut prev_dim = meta.input_dim;
        for slot in &meta.slots {
            slot_buffers.push(buffer_shapes.len());
            match slot.kind {
                SlotKind::Input => {}
                SlotKind::Dense(_) => {
                    buffer_shapes.push((prev_dim, slot.dim)); // W
                    buffer_shapes.push((1, slot.dim)); // bias
                    prev_dim = slot.dim;
                }
                SlotKind::LstmKernel => {
                    buffer_shapes.extend([(slot.features, slot.dim); 4]); // K_g
                    buffer_shapes.extend([(1, slot.dim); 4]); // b_g
                }
                SlotKind::LstmRecurrent => {
                    buffer_shapes.extend([(slot.dim, slot.dim); 4]); // U_g
                    prev_dim = slot.dim;
                }
            }
        }
        let lstm = meta
            .slots
            .iter()
            .any(|s| matches!(s.kind, SlotKind::LstmKernel | SlotKind::LstmRecurrent));
        let weights = if lstm { (0..12).collect() } else { vec![W0, B0] };
        Router { meta: meta.clone(), layout, slot_buffers, buffer_shapes, weights }
    }

    /// Table ordinals of the columns the build reads: the endpoint
    /// columns, then the routed weight columns.
    fn read_columns(&self) -> Vec<usize> {
        let nend = self.layout.column_count() - 12;
        (0..nend).chain(self.weights.iter().map(|w| nend + w)).collect()
    }

    /// Resolve an edge (by its endpoint columns) and call `write` with
    /// every (buffer index, offset, weight-column index) it fills — none
    /// for input-distribution edges (no learnable weights).
    fn route(&self, endpoints: &[i64], mut write: impl FnMut(usize, usize, usize)) {
        let (slot_idx, rel_in, rel_out) = match self.layout {
            Layout::LayerNode => {
                let (_, node_in, layer, node) =
                    (endpoints[0], endpoints[1], endpoints[2], endpoints[3]);
                if layer <= 0 {
                    return; // input distribution edges
                }
                (layer as usize, node_in as usize, node as usize)
            }
            Layout::NodeId => {
                let (node_in, node) = (endpoints[0], endpoints[1]);
                let slots = &self.meta.slots;
                let holds =
                    |s: &SlotInfo, id: i64| id >= s.node_base && id < s.node_base + s.dim as i64;
                let Some(slot_idx) = slots.iter().position(|s| holds(s, node)) else {
                    return;
                };
                if slot_idx == 0 {
                    return;
                }
                let dst = &slots[slot_idx];
                let src_base = match dst.kind {
                    SlotKind::LstmRecurrent => slots[slot_idx - 1].node_base,
                    // Edges into dense / kernel slots come from the slot
                    // the source id falls into.
                    _ => match slots.iter().find(|s| holds(s, node_in)) {
                        Some(src) => src.node_base,
                        None => return,
                    },
                };
                (slot_idx, (node_in - src_base) as usize, (node - dst.node_base) as usize)
            }
        };
        let slot = &self.meta.slots[slot_idx];
        let base = self.slot_buffers[slot_idx];
        let at = rel_in * slot.dim + rel_out;
        // A bias is replicated on every incoming edge; exactly one edge
        // (rel_in == 0) writes it so threads never race.
        match slot.kind {
            SlotKind::Input => {}
            SlotKind::Dense(_) => {
                write(base, at, W0);
                if rel_in == 0 {
                    write(base + 1, rel_out, B0);
                }
            }
            SlotKind::LstmKernel => {
                for g in 0..4 {
                    write(base + g, at, W0 + g);
                }
                if rel_in == 0 {
                    for g in 0..4 {
                        write(base + 4 + g, rel_out, B0 + g);
                    }
                }
            }
            SlotKind::LstmRecurrent => {
                for g in 0..4 {
                    write(base + g, at, U0 + g);
                }
            }
        }
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

/// Fill from one block of [`Router::read_columns`].
fn fill_from_batch(batch: &Batch, router: &Router, slabs: &SlabPtrs) -> Result<()> {
    let nend = router.layout.column_count() - 12;
    let mut endpoints = vec![0i64; nend];
    // Unread weight columns stay empty: routing never names them.
    let mut weight_cols: [&[f64]; 12] = [&[]; 12];
    for (i, &w) in router.weights.iter().enumerate() {
        weight_cols[w] = batch.column(nend + i).as_float()?;
    }
    let end_cols: Result<Vec<&[i64]>> = (0..nend).map(|i| batch.column(i).as_int()).collect();
    let end_cols = end_cols?;
    for row in 0..batch.num_rows() {
        for (e, col) in endpoints.iter_mut().zip(&end_cols) {
            *e = col[row];
        }
        router.route(&endpoints, |buf, offset, wcol| {
            // SAFETY: see SlabPtrs — disjoint offsets across rows,
            // disjoint rows across threads.
            unsafe { slabs.write(buf, offset, weight_cols[wcol][row] as f32) };
        });
    }
    Ok(())
}

/// Run the parallel build phase: allocate shared storage single-threaded,
/// fill it from the model-table partitions in parallel (on the scheduler
/// pool), then assemble the fp32 [`BuiltModel`]: its kernel plan and the
/// one-shot GPU upload.
pub fn build_parallel(
    table: &Table,
    meta: &ModelMeta,
    layout: Layout,
    device: &Device,
    vector_size: usize,
    // Unused (a built model's GEMMs run whole on the caller's thread); kept
    // because the frozen benchmark passes it until its next change (ROADMAP 1(i)).
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
    let mut bufs: Vec<Vec<f32>> =
        router.buffer_shapes.iter().map(|&(rows, cols)| vec![0.0; rows * cols]).collect();
    let slabs = SlabPtrs {
        ptrs: bufs.iter_mut().map(|b| b.as_mut_ptr()).collect(),
        lens: bufs.iter().map(Vec::len).collect(),
    };

    // Phase 2: parallel fill over the partitions, one Query-class task
    // each on the shared pool (disjoint slab rows, so fills never
    // conflict). The join is the single synchronization barrier of
    // Sec. 5.2. A task reads its partition one block at a time, and only
    // the columns the router reads (a Dense model: 4 of 14).
    let columns = router.read_columns();
    let fill = |p: usize| {
        table.for_each_block(p, &columns, |batch| fill_from_batch(&batch, &router, &slabs))
    };
    for filled in
        sched::global().fork_join(sched::TaskClass::Query, 0..table.partition_count(), fill)?
    {
        filled?;
    }

    // Phase 3: the filled buffers become the layers' weights and biases,
    // which the runtime assembles: weights packed into the kernel's panel
    // layout and, for the GPU variant, one bulk transfer of the whole
    // model (Sec. 5.2: "always perform the parallel model build phase on
    // the host memory and move the model to GPU memory once building is
    // finished").
    let mut mats = bufs
        .into_iter()
        .zip(&router.buffer_shapes)
        .map(|(buf, &(rows, cols))| Matrix::from_vec(rows, cols, buf));
    let mut next = || mats.next().expect("one buffer per routed weight vector");
    let mut layers = Vec::new();
    for slot in &meta.slots {
        match slot.kind {
            SlotKind::Input | SlotKind::LstmRecurrent => {}
            SlotKind::Dense(activation) => {
                let weights = next();
                let bias = next().into_vec();
                layers.push(Layer::Dense(DenseLayer { weights, bias, activation }));
            }
            SlotKind::LstmKernel => {
                // Buffer order: this slot's K_i..K_o and b_i..b_o, then the
                // U_i..U_o of the recurrent slot that always follows it.
                let kernel = std::array::from_fn(|_| next());
                let bias = std::array::from_fn(|_| next().into_vec());
                let recurrent = std::array::from_fn(|_| next());
                let (input_features, timesteps) = (slot.features, slot.timesteps);
                layers.push(Layer::Lstm(LstmLayer {
                    input_features,
                    timesteps,
                    kernel,
                    recurrent,
                    bias,
                }));
            }
        }
    }
    Ok(BuiltModel::from_layers(meta.input_dim, layers, device, vector_size))
}

/// The int8 variant of a built fp32 model, counted under
/// `modeljoin.quant.builds`.
pub(crate) fn quantize(built: &BuiltModel) -> BuiltModel {
    obs::metrics::MODELJOIN_QUANT_BUILDS.add(1);
    built.quantize()
}

/// The shared model handle of the parallel ModelJoin: all per-task
/// operator instances of one query hold the same `SharedModel`; the first
/// `next()` call performs the build (or, for a handle of a registered
/// model, the [`ModelCache`] lookup), later callers reuse it (paper Sec.
/// 5.2: "all threads build a shared model").
pub struct SharedModel {
    pub(crate) table: Arc<Table>,
    /// Shared with the registration, so a handle per statement or served
    /// batch copies no metadata.
    meta: Arc<ModelMeta>,
    layout: Layout,
    device: Device,
    vector_size: usize,
    /// Where a registered model's handle looks the model up; `None` builds.
    cache: Option<Arc<ModelCache>>,
    /// The model per dtype, indexed by `ModelDtype as usize`: fp32 from
    /// the build phase, int8 quantized from it on the first int8 query.
    models: [OnceLock<std::result::Result<Arc<BuiltModel>, EngineError>>; 2],
}

impl SharedModel {
    pub fn new(
        table: Arc<Table>,
        meta: ModelMeta,
        layout: Layout,
        device: Device,
        vector_size: usize,
        // Unused, as `build_parallel`'s; kept because the frozen benchmark
        // passes it until its next change (ROADMAP 1(i)).
        _threads: usize,
    ) -> Arc<SharedModel> {
        let (meta, cache, models) = (Arc::new(meta), None, Default::default());
        Arc::new(SharedModel { table, meta, layout, device, vector_size, cache, models })
    }

    /// A handle that takes its model from `cache` instead of building it,
    /// so a query over an unchanged model table reuses an earlier build.
    pub(crate) fn cached(
        cache: Arc<ModelCache>,
        table: Arc<Table>,
        meta: Arc<ModelMeta>,
        layout: Layout,
        device: Device,
        vector_size: usize,
    ) -> Arc<SharedModel> {
        let (cache, models) = (Some(cache), Default::default());
        Arc::new(SharedModel { table, meta, layout, device, vector_size, cache, models })
    }

    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Get (building on first use) the shared fp32 model.
    pub fn get(&self) -> Result<Arc<BuiltModel>> {
        self.get_as(ModelDtype::F32)
    }

    /// Get (building on first use) the shared model in `dtype`. The int8
    /// model is quantized once per handle from the fp32 model the regular
    /// build phase produced out of the relational representation. A
    /// cached handle asks its cache instead, which does the same.
    pub fn get_as(&self, dtype: ModelDtype) -> Result<Arc<BuiltModel>> {
        let (table, meta, layout, device) = (&self.table, &self.meta, self.layout, &self.device);
        let vector_size = self.vector_size;
        self.models[dtype as usize]
            .get_or_init(|| match (&self.cache, dtype) {
                (Some(cache), _) => {
                    cache.get_or_build(table, meta, layout, device, vector_size, dtype)
                }
                (None, ModelDtype::F32) => {
                    build_parallel(table, meta, layout, device, vector_size, 1).map(Arc::new)
                }
                (None, ModelDtype::I8) => self.get().map(|built| Arc::new(quantize(&built))),
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlruntime::forward::{BuiltLayer, GemmPlan, Weights};
    use mlruntime::InferScratch;
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

    /// The table build and the runtime's own build of the same `nn` model
    /// are the same model: bit-identical outputs, equal GPU upload bytes.
    #[test]
    fn table_build_equals_model_object_build() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for model in [paper::dense_model(8, 3, 21), paper::lstm_model(6, 13)] {
            let x =
                Matrix::from_fn(16, model.input_dim(), |r, c| ((r * 3 + c) as f32 * 0.41).sin());
            let direct_gpu = Device::gpu();
            let direct = BuiltModel::from_model(&model, &direct_gpu, 16);
            for layout in [Layout::NodeId, Layout::LayerNode] {
                let engine = Engine::new(EngineConfig {
                    vector_size: 8,
                    partitions: 3,
                    ..Default::default()
                });
                let (table, meta) = load_into_engine(&engine, "m", &model, layout).unwrap();
                let gpu = Device::gpu();
                let built = build_parallel(&table, &meta, layout, &gpu, 16, 0).unwrap();
                assert_eq!(gpu.report().h2d_bytes, direct_gpu.report().h2d_bytes, "{layout:?}");
                let cpu = Device::cpu();
                assert_eq!(
                    bits(&built.infer(&x, &cpu)),
                    bits(&direct.infer(&x, &cpu)),
                    "{layout:?}"
                );
            }
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

    /// The quantized Dense model computes exactly the naive quantized
    /// reference GEMM, layer by layer, over its own `QuantizedWeights`:
    /// int8 inference is pinned bit for bit, not only within tolerance.
    #[test]
    fn quantized_dense_infer_is_bit_exact_to_reference_chain() {
        let (built, model) = build_for(&paper::dense_model(8, 3, 21), Layout::NodeId, 2);
        let quantized = built.quantize();
        let x = Matrix::from_fn(13, model.input_dim(), |r, c| ((r * 5 + c) as f32 * 0.29).cos());
        let mut expected = x.clone();
        for layer in &quantized.layers {
            let BuiltLayer::Dense {
                gemm: GemmPlan { weights: Weights::I8(w), bias, .. },
                activation,
            } = layer
            else {
                panic!("a quantized Dense model holds int8 Dense layers only")
            };
            let mut out = Matrix::zeros(expected.rows(), w.cols());
            tensor::quant::qgemm_dense_reference(
                &expected,
                w,
                Some(bias),
                *activation,
                false,
                &mut out,
            );
            expected = out;
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let got = quantized.infer(&x, &Device::cpu());
        assert_eq!(bits(&got), bits(&expected));
        assert!(got.max_abs_diff(&model.predict(&x)) < 5e-2, "int8 drifted from the fp32 oracle");
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

    /// The simulated GPU times the paper's kernels (Sec. 5.4) while the
    /// host runs the fused one: one build plus one inference charge the
    /// model upload with every bias replicated to the vector size, the
    /// input upload, per dense layer the bias copy, the GEMM and a
    /// non-linear activation pass, and the output download — each charge
    /// by the device model's formula, to the nanosecond.
    #[test]
    fn gpu_report_of_build_plus_infer_follows_the_paper_kernels() {
        use tensor::{Activation, GpuModel};
        let (vector_size, rows) = (16, 10);
        let model = paper::dense_model(8, 2, 3);
        let engine = Engine::new(EngineConfig::test_small());
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
        let gpu = Device::gpu();
        let built = build_parallel(&table, &meta, Layout::NodeId, &gpu, vector_size, 2).unwrap();
        built.infer(&Matrix::from_fn(rows, 4, |r, c| (r + c) as f32 * 0.1), &gpu);

        let g = GpuModel::a100();
        let ns = |seconds: f64| (seconds * 1e9) as u64;
        let transfer = |bytes: usize| ns(g.transfer_latency + bytes as f64 / g.pcie_bandwidth);
        let elementwise = |bytes| ns(g.kernel_launch + bytes as f64 / g.elementwise_bandwidth);
        let gemm = |k, n| ns(g.kernel_launch + (2 * rows * k * n) as f64 / g.gemm_throughput);
        // (inputs, units, activation) per dense layer.
        let layers =
            [(4, 8, Activation::Relu), (8, 8, Activation::Relu), (8, 1, Activation::Sigmoid)];
        let upload: usize = layers.iter().map(|&(k, n, _)| 4 * (k * n + vector_size * n)).sum();
        let (input, output) = (4 * rows * 4, 4 * rows);
        let mut modeled = transfer(upload) + transfer(input) + transfer(output);
        let mut launches = 0;
        for (k, n, act) in layers {
            modeled += elementwise(8 * rows * n) + gemm(k, n);
            launches += 2;
            if act != Activation::Linear {
                modeled += elementwise(8 * rows * n);
                launches += 1;
            }
        }
        let r = gpu.report();
        assert_eq!(r.h2d_bytes as usize, upload + input);
        assert_eq!(r.d2h_bytes as usize, output);
        assert_eq!(r.kernel_launches, launches);
        assert_eq!(r.device_modeled.as_nanos(), modeled as u128);
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
