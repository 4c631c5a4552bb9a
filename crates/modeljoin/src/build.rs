//! The parallel model build phase (paper Sec. 5.2): the relational model
//! table's edges routed by its one reader, [`model_repr::Router`], into
//! weight and bias buffers, which the runtime assembles into a
//! [`BuiltModel`]; plus the shared per-query handle and the one dtype
//! decision.

use crate::cache::ModelCache;
use mlruntime::BuiltModel;
use model_repr::{Layout, ModelMeta, Router};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use tensor::Device;
use vector_engine::{EngineConfig, Result, Table};

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

/// Run the parallel build phase: allocate the weight and bias buffers
/// single-threaded, fill them through the model table's one reader
/// ([`Router`]) from all partitions in parallel (on the scheduler pool),
/// then assemble the fp32 [`BuiltModel`]: its kernel plan and the one-shot
/// GPU upload.
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
    let router = Router::new(meta, layout, table.schema().len())?;
    obs::metrics::MODELJOIN_BUILD_COUNT.add(1);
    let _span = obs::span(&obs::metrics::MODELJOIN_BUILD_US);
    // Phase 1: single-threaded allocation (paper: "memory allocation ...
    // is performed single-threaded to a shared memory location").
    let buffers: Vec<Vec<AtomicU32>> =
        router.buffer_lens().map(|n| (0..n).map(|_| AtomicU32::new(0)).collect()).collect();

    // Phase 2: parallel fill over the partitions, one Query-class task
    // each on the shared pool, with no lock: the reader bounds every
    // write, and the stores are relaxed atomics (plain stores on x86), so
    // even two partitions holding copies of one edge cannot corrupt
    // memory; the write counts they return expose the copy. The join is
    // the single synchronization barrier of Sec. 5.2: `fork_join` returns
    // only after every task's completion is published to this thread,
    // which orders all the relaxed stores before phase 3 reads them. A
    // task reads its partition one block at a time, and only the columns
    // the reader reads (a Dense model: 4 of 14).
    let columns = router.read_columns();
    let fill = |p: usize| -> Result<Vec<usize>> {
        let mut counts = vec![0; buffers.len()];
        table.for_each_block(p, &columns, |batch| {
            router.fill(batch.columns(), &mut counts, |b, at, v| {
                buffers[b][at].store(v.to_bits(), Ordering::Relaxed)
            })
        })?;
        Ok(counts)
    };
    let mut counts = vec![0; buffers.len()];
    for filled in
        sched::global().fork_join(sched::TaskClass::Query, 0..table.partition_count(), fill)?
    {
        counts.iter_mut().zip(filled?).for_each(|(total, n)| *total += n);
    }

    // Phase 3: the filled buffers (each allocation reused as `f32`s)
    // become the layers' weights and biases, which the runtime assembles:
    // weights packed into the kernel's panel layout and, for the GPU
    // variant, one bulk transfer of the whole model (Sec. 5.2: "always
    // perform the parallel model build phase on the host memory and move
    // the model to GPU memory once building is finished").
    let buffers = buffers
        .into_iter()
        .map(|b| b.into_iter().map(|x| f32::from_bits(x.into_inner())).collect())
        .collect();
    let layers = router.assemble(buffers, &counts)?;
    Ok(BuiltModel::from_layers(meta.input_dim, layers, device, vector_size))
}

/// The shared model handle of the parallel ModelJoin: all per-task
/// operator instances of one query hold the same `SharedModel`; the first
/// operator to run a batch looks the model up in the handle's
/// [`ModelCache`], which builds it if cold, and later callers reuse it
/// (paper Sec. 5.2: "all threads build a shared model").
pub struct SharedModel {
    pub(crate) table: Arc<Table>,
    /// Shared with the registration, so a handle per statement or served
    /// batch copies no metadata.
    meta: Arc<ModelMeta>,
    layout: Layout,
    device: Device,
    vector_size: usize,
    /// Where the handle looks its model up: its registration's cache, or
    /// a private one for a handle made by [`SharedModel::new`].
    cache: Arc<ModelCache>,
    /// The model per dtype, indexed by `ModelDtype as usize`: one lookup
    /// per handle and dtype.
    models: [OnceLock<Result<Arc<BuiltModel>>>; 2],
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
        SharedModel::cached(Arc::default(), table, Arc::new(meta), layout, device, vector_size)
    }

    /// A handle that looks its model up in `cache`, so a query over an
    /// unchanged model table reuses an earlier build.
    pub(crate) fn cached(
        cache: Arc<ModelCache>,
        table: Arc<Table>,
        meta: Arc<ModelMeta>,
        layout: Layout,
        device: Device,
        vector_size: usize,
    ) -> Arc<SharedModel> {
        let models = Default::default();
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

    /// Get (building on first use) the shared model in `dtype` from the
    /// handle's cache: fp32 from the build phase over the relational
    /// representation, int8 quantized from that fp32 model.
    pub fn get_as(&self, dtype: ModelDtype) -> Result<Arc<BuiltModel>> {
        let (table, meta, device) = (&self.table, &self.meta, &self.device);
        self.models[dtype as usize]
            .get_or_init(|| {
                self.cache.get_or_build(table, meta, self.layout, device, self.vector_size, dtype)
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
    use tensor::Matrix;
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
