//! The one inference operator and the plan node it runs under: a model
//! built from a model table (the native ModelJoin) or a loaded runtime
//! model (the Raven-like C-API session, the UDF hosts), reached through the
//! same columnar ↔ row-major conversions.

use crate::build::{ModelDtype, SharedModel};
use crate::cache::ModelCache;
use mlruntime::{InferScratch, RowModel};
use model_repr::{Layout, ModelMeta};
use std::borrow::Cow;
use std::sync::Arc;
use tensor::{Device, Matrix};
use vector_engine::exec::parallel;
use vector_engine::exec::physical::Operator;
use vector_engine::expr::Expr;
use vector_engine::plan::{optimize, InferModel, LogicalPlan, PlanSchema};
use vector_engine::{Batch, Catalog, ColumnVector, Engine, EngineConfig, EngineError, Result};

/// The model of a `LogicalPlan::Infer` node. The approaches differ only in
/// the run call (paper Sec. 6.1: "native ≈ C-API"); packing, unpacking and
/// the checks around it are the same for both.
#[derive(Clone)]
pub(crate) enum ModelNode {
    /// A model table's [`SharedModel`] (the native ModelJoin, Sec. 5), run
    /// in the dtype [`ModelDtype::for_engine`] picked. Every task's
    /// operator shares the handle and so one build.
    Table { shared: Arc<SharedModel>, dtype: ModelDtype },
    /// A loaded runtime model: a C-API session or a pool of UDF hosts
    /// ([`crate::register_runtime`]), shared like the real runtime's
    /// session.
    Runtime(Arc<dyn RowModel>),
}

impl ModelNode {
    fn for_engine(config: &EngineConfig, shared: Arc<SharedModel>) -> Arc<dyn InferModel> {
        let dtype = ModelDtype::for_engine(config, shared.device());
        Arc::new(ModelNode::Table { shared, dtype })
    }

    /// The model over the row-major `rows x input_dim` `input`: `rows x
    /// output_dim` row-major predictions, borrowed from `scratch` where the
    /// forward pass leaves them. A table's model is built (or looked up) on
    /// its first run (paper Fig. 5). A result of any other length is an
    /// error naming the model.
    fn run<'s>(&self, input: &Matrix, scratch: &'s mut InferScratch) -> Result<Cow<'s, [f32]>> {
        let rows = input.rows();
        let output = match self {
            ModelNode::Table { shared, dtype } => {
                let built = shared.get_as(*dtype)?;
                let probe = &obs::metrics::MODELJOIN_PROBE;
                probe.batches.add(1);
                probe.rows.add(rows as u64);
                let _span = obs::span(&probe.time_us);
                // `infer_rows`, not `infer_into`: a stored block of a
                // reopened table may be longer than the vector size the
                // model was built for.
                Cow::Borrowed(built.infer_rows(input, shared.device(), scratch))
            }
            ModelNode::Runtime(model) => {
                model.run(input, scratch).map_err(EngineError::Execution)?
            }
        };
        let width = self.output_dim();
        if output.len() != rows * width {
            return Err(EngineError::Execution(format!(
                "model {} returned {} values for {rows} rows of {width} outputs",
                self.name(),
                output.len()
            )));
        }
        Ok(output)
    }
}

impl InferModel for ModelNode {
    fn name(&self) -> &str {
        match self {
            ModelNode::Table { shared, .. } => shared.table.name(),
            ModelNode::Runtime(model) => model.name(),
        }
    }

    fn input_dim(&self) -> usize {
        match self {
            ModelNode::Table { shared, .. } => shared.meta().input_dim,
            ModelNode::Runtime(model) => model.input_dim(),
        }
    }

    fn output_dim(&self) -> usize {
        match self {
            ModelNode::Table { shared, .. } => shared.meta().output_dim(),
            ModelNode::Runtime(model) => model.output_dim(),
        }
    }

    fn operator(&self, input: Box<dyn Operator>, args: &[usize]) -> Box<dyn Operator> {
        Box::new(InferOp {
            input,
            model: self.clone(),
            input_cols: args.to_vec(),
            packed: Matrix::default(),
            scratch: InferScratch::default(),
        })
    }

    fn infer_rows(&self, input: &[f32], rows: usize) -> Result<Vec<f32>> {
        let dim = self.input_dim();
        if input.len() != rows * dim {
            return Err(EngineError::Execution(format!(
                "model {} takes {dim} inputs per row, got {} values for {rows} rows",
                self.name(),
                input.len()
            )));
        }
        let input = Matrix::from_vec(rows, dim, input.to_vec());
        Ok(self.run(&input, &mut InferScratch::default())?.into_owned())
    }
}

/// The inference operator (paper Sec. 5.3/5.4, Fig. 7). One instance runs
/// per execution task over that task's share of the input flow: every
/// `next()` packs one vector of input columns into a row-major matrix,
/// runs the model over it and appends the predictions, unpacked into
/// column vectors, to the input columns, which pass through. Unlike
/// ML-To-SQL it can "leave columns untouched ... introducing no overhead"
/// (Sec. 5.3): a projection above it picks the payload.
struct InferOp {
    input: Box<dyn Operator>,
    model: ModelNode,
    /// Ordinals of the model input columns within the input batch.
    input_cols: Vec<usize>,
    /// Reused input matrix buffer.
    packed: Matrix,
    /// Per-operator inference arena: layer outputs, LSTM gate and state
    /// buffers — reused across every batch this operator processes.
    scratch: InferScratch,
}

impl Operator for InferOp {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        if batch.num_rows() == 0 {
            return Ok(Some(output_batch(batch, &[], self.model.output_dim())));
        }
        pack_rows(&batch, &self.input_cols, &mut self.packed)?;
        let result = self.model.run(&self.packed, &mut self.scratch)?;
        Ok(Some(output_batch(batch, &result, self.model.output_dim())))
    }

    fn close(&mut self) {
        self.packed = Matrix::default();
        self.scratch = InferScratch::default();
        self.input.close();
    }
}

/// Pack the batch's numeric input columns into the `rows x cols.len()`
/// row-major matrix `out` (paper Fig. 7, step 1) — the columnar →
/// row-major conversion every approach but ML-To-SQL pays. Each column
/// vector is touched exactly once. The buffer is capacity-reusing: a
/// shorter batch (the tail vector of a partition) shrinks the matrix in
/// place instead of discarding it, so steady-state packing never
/// allocates.
fn pack_rows(batch: &Batch, cols: &[usize], out: &mut Matrix) -> Result<()> {
    let (rows, n) = (batch.num_rows(), cols.len());
    if out.rows() != rows || out.cols() != n {
        out.resize_zeroed(rows, n);
    }
    let out = out.as_mut_slice();
    for (k, &ci) in cols.iter().enumerate() {
        match batch.column(ci) {
            ColumnVector::Float(vals) => {
                for (r, &v) in vals.iter().enumerate() {
                    out[r * n + k] = v as f32;
                }
            }
            ColumnVector::Int(vals) => {
                for (r, &v) in vals.iter().enumerate() {
                    out[r * n + k] = v as f32;
                }
            }
            other => {
                return Err(EngineError::Type(format!(
                    "model input column must be numeric, found {}",
                    other.data_type().name()
                )))
            }
        }
    }
    Ok(())
}

/// An operator's output batch (Fig. 7, last step): every column of
/// `batch`, shared, then one Float column per model output, unpacked from
/// the row-major `rows x outputs` `result`. An empty batch keeps the full
/// width.
fn output_batch(batch: Batch, result: &[f32], outputs: usize) -> Batch {
    let rows = batch.num_rows();
    let mut columns = batch.into_columns();
    columns.extend((0..outputs).map(|j| {
        let col = (0..rows).map(|r| result[r * outputs + j] as f64).collect();
        Arc::new(ColumnVector::Float(col))
    }));
    Batch::new(columns)
}

/// Register `name` on `engine` for `PREDICT(name, input, args…)` and for
/// `serve::Server`'s predicts: the model stored in `model_table` under
/// `layout`, run on `device`. Every statement or served batch naming it
/// resolves `model_table` when it is bound and gets one [`SharedModel`],
/// which looks the model up in this registration's own [`ModelCache`] on
/// first use: an unchanged model table builds once across statements and
/// served batches. Returns that cache, whose [`ModelCache::stats`] count
/// this model's lookups.
pub fn register_model(
    engine: &Engine,
    name: &str,
    model_table: &str,
    meta: ModelMeta,
    layout: Layout,
    device: Device,
) -> Arc<ModelCache> {
    let (config, model_table, meta) =
        (engine.config().clone(), model_table.to_string(), Arc::new(meta));
    let cache = Arc::new(ModelCache::new());
    let lookups = Arc::clone(&cache);
    let bind = move |catalog: &Catalog| -> Result<Arc<dyn InferModel>> {
        let shared = SharedModel::cached(
            Arc::clone(&lookups),
            catalog.table(&model_table)?,
            Arc::clone(&meta),
            layout,
            device.clone(),
            config.vector_size,
        );
        Ok(ModelNode::for_engine(&config, shared))
    };
    engine.catalog().register_model(name, Arc::new(bind));
    cache
}

/// ModelJoin over every row of `fact_table` as the plan
/// `Project(Infer(Scan))`, optimized and executed by [`parallel::execute`]
/// like any other plan, so the engine's `parallelism` decides the fan-out:
/// the `payload_cols`, then the predictions of `shared` over
/// `input_cols`, in the dtype [`ModelDtype::for_engine`] picks. SQL reaches
/// the same plan through [`register_model`] and `PREDICT`.
pub fn execute_model_join(
    engine: &Engine,
    fact_table: &str,
    input_cols: &[&str],
    payload_cols: &[&str],
    shared: &Arc<SharedModel>,
    // Unused (the plan's fan-out follows `EngineConfig::parallelism`); kept
    // because benchmark/src/workloads/modeljoin_batch.rs still passes it.
    _parallelism: usize,
) -> Result<Vec<Batch>> {
    let model = ModelNode::for_engine(engine.config(), Arc::clone(shared));
    let scan = LogicalPlan::scan(engine.table(fact_table)?, fact_table);
    let ordinals = |names: &[&str]| -> Result<Vec<usize>> {
        names.iter().map(|n| scan.schema().resolve(None, n)).collect()
    };
    let (args, payload) = (ordinals(input_cols)?, ordinals(payload_cols)?);
    let width = scan.schema().len();
    let infer = LogicalPlan::infer(scan, args, model)?;
    let outputs: Vec<usize> = payload.into_iter().chain(width..infer.schema().len()).collect();
    let fields = outputs.iter().map(|&i| infer.schema().fields[i].clone()).collect();
    let plan = LogicalPlan::Project {
        input: Box::new(infer),
        exprs: outputs.into_iter().map(Expr::Column).collect(),
        schema: PlanSchema::new(fields),
    };
    let plan = optimize(plan);
    parallel::execute(&plan, engine.config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use model_repr::{load_into_engine, Layout};
    use nn::paper;
    use tensor::Device;
    use vector_engine::{DataType, EngineConfig};

    fn setup(
        model: &nn::Model,
        n: usize,
        device: Device,
    ) -> (Engine, Arc<SharedModel>, Vec<Vec<f32>>) {
        setup_quant(model, n, device, false)
    }

    fn setup_quant(
        model: &nn::Model,
        n: usize,
        device: Device,
        quantized: bool,
    ) -> (Engine, Arc<SharedModel>, Vec<Vec<f32>>) {
        let config = EngineConfig {
            vector_size: 16,
            partitions: 4,
            parallelism: 4,
            quantized_inference: quantized,
            ..Default::default()
        };
        let engine = Engine::new(config.clone());
        let dim = model.input_dim();
        let mut ddl = vec!["id INT".to_string(), "payload FLOAT".to_string()];
        for i in 0..dim {
            ddl.push(format!("c{i} FLOAT"));
        }
        engine.execute(&format!("CREATE TABLE facts ({})", ddl.join(", "))).unwrap();
        let mut cols = vec![
            ColumnVector::Int((0..n as i64).collect()),
            ColumnVector::Float((0..n).map(|i| i as f64 * 100.0).collect()),
        ];
        let mut data = Vec::new();
        let mut feat: Vec<Vec<f64>> = vec![Vec::new(); dim];
        for r in 0..n {
            let row: Vec<f32> = (0..dim).map(|c| ((r * dim + c) as f32 * 0.13).cos()).collect();
            for (c, v) in row.iter().enumerate() {
                feat[c].push(*v as f64);
            }
            data.push(row);
        }
        cols.extend(feat.into_iter().map(ColumnVector::Float));
        engine.insert_columns("facts", cols).unwrap();
        let (table, meta) =
            load_into_engine(&engine, "model_table", model, Layout::NodeId).unwrap();
        let shared = SharedModel::new(
            table,
            meta,
            Layout::NodeId,
            device,
            config.vector_size,
            config.parallelism,
        );
        (engine, shared, data)
    }

    fn run_and_check(model: &nn::Model, n: usize, device: Device) {
        run_and_check_tol(model, n, device, false, 1e-4);
    }

    fn run_and_check_tol(model: &nn::Model, n: usize, device: Device, quantized: bool, tol: f64) {
        let (engine, shared, data) = setup_quant(model, n, device, quantized);
        let dim = model.input_dim();
        let input_cols: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
        let input_refs: Vec<&str> = input_cols.iter().map(|s| s.as_str()).collect();
        let batches =
            execute_model_join(&engine, "facts", &input_refs, &["id", "payload"], &shared, 4)
                .unwrap();
        // Gather predictions by id (partitioned output is ordered within,
        // not across, partitions).
        let mut by_id: Vec<(i64, f64, f64)> = Vec::new();
        for b in &batches {
            let ids = b.column(0).as_int().unwrap();
            let payloads = b.column(1).as_float().unwrap();
            let preds = b.column(2).as_float().unwrap();
            for i in 0..b.num_rows() {
                by_id.push((ids[i], payloads[i], preds[i]));
            }
        }
        by_id.sort_by_key(|r| r.0);
        assert_eq!(by_id.len(), n);
        for (id, payload, pred) in by_id {
            let expected = model.predict_row(&data[id as usize])[0] as f64;
            assert!((pred - expected).abs() < tol, "id {id}: {pred} vs {expected}");
            assert_eq!(payload, id as f64 * 100.0, "payload carried through");
        }
    }

    #[test]
    fn dense_model_join_cpu_matches_oracle() {
        run_and_check(&paper::dense_model(8, 3, 31), 50, Device::cpu());
    }

    #[test]
    fn dense_model_join_gpu_matches_oracle() {
        run_and_check(&paper::dense_model(8, 3, 31), 50, Device::gpu());
    }

    #[test]
    fn lstm_model_join_matches_oracle() {
        run_and_check(&paper::lstm_model(5, 77), 30, Device::cpu());
        run_and_check(&paper::lstm_model(5, 77), 30, Device::gpu());
    }

    /// The config knob routes inference through the int8 path end to end.
    /// The tolerance is loose relative to the fp32 paths' 1e-4 but tight
    /// enough that a wrong scale, zero point, or column sum would blow it;
    /// the principled per-GEMM bound is exercised in the tensor crate.
    #[test]
    fn quantized_dense_join_tracks_oracle() {
        run_and_check_tol(&paper::dense_model(8, 3, 31), 50, Device::cpu(), true, 5e-2);
    }

    #[test]
    fn quantized_lstm_join_tracks_oracle() {
        run_and_check_tol(&paper::lstm_model(5, 77), 30, Device::cpu(), true, 5e-2);
    }

    /// Int8 is CPU-only: with a GPU-resident model the knob is ignored and
    /// the fp32 device route still meets the exact-path tolerance.
    #[test]
    fn quantized_flag_on_gpu_model_keeps_fp32_route() {
        run_and_check_tol(&paper::dense_model(8, 3, 31), 50, Device::gpu(), true, 1e-4);
    }

    #[test]
    fn input_arity_is_validated() {
        let model = paper::dense_model(4, 2, 1);
        let (engine, shared, _) = setup(&model, 5, Device::cpu());
        let err = execute_model_join(&engine, "facts", &["c0"], &[], &shared, 2).unwrap_err();
        assert!(err.to_string().contains("input columns"));
    }

    #[test]
    fn unknown_column_is_reported() {
        let model = paper::dense_model(4, 2, 1);
        let (engine, shared, _) = setup(&model, 5, Device::cpu());
        let err =
            execute_model_join(&engine, "facts", &["c0", "c1", "c2", "nosuch"], &[], &shared, 2)
                .unwrap_err();
        assert!(err.to_string().contains("nosuch"));
    }

    /// An empty input batch comes out empty at the node's full width, so a
    /// projection above can still pick its columns.
    #[test]
    fn empty_batch_keeps_the_full_width() {
        let model = paper::dense_model(4, 2, 9);
        let (_, shared, _) = setup(&model, 10, Device::cpu());
        let empty = Batch::new((0..6).map(|_| ColumnVector::Float(Vec::new())).collect());
        let input = vector_engine::exec::physical::batches_operator(vec![empty]);
        let node = ModelNode::Table { shared, dtype: ModelDtype::F32 };
        let mut op = node.operator(input, &[2, 3, 4, 5]);
        op.open().unwrap();
        let out = op.next().unwrap().unwrap();
        assert_eq!((out.num_rows(), out.num_columns()), (0, 7));
    }

    #[test]
    fn zero_payload_emits_only_predictions() {
        let model = paper::dense_model(4, 2, 9);
        let (engine, shared, _) = setup(&model, 10, Device::cpu());
        let batches =
            execute_model_join(&engine, "facts", &["c0", "c1", "c2", "c3"], &[], &shared, 2)
                .unwrap();
        assert!(batches.iter().all(|b| b.num_columns() == 1));
        assert!(batches.iter().all(|b| b.column(0).data_type() == DataType::Float));
    }
}
