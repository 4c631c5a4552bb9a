//! The ModelJoin operator, and the partition-parallel fan-out and
//! columnar ↔ row-major conversions it shares with the C-API operator.

use crate::build::{ModelDtype, SharedModel};
use mlruntime::{BuiltModel, InferScratch};
use std::sync::Arc;
use tensor::Matrix;
use vector_engine::exec::physical::{drain, Operator};
use vector_engine::{Batch, ColumnVector, Engine, EngineError, Result};

/// The native ModelJoin operator (paper Sec. 5). One instance runs per
/// execution thread over that thread's partition of the input flow; all
/// instances share one [`SharedModel`] whose build phase runs on the first
/// `next()` call.
pub struct ModelJoinOp {
    input: Box<dyn Operator>,
    shared: Arc<SharedModel>,
    /// Ordinals of the model input columns within the input batch.
    input_cols: Vec<usize>,
    /// Ordinals of pass-through payload columns. Unlike ML-To-SQL, the
    /// native operator can "leave columns untouched ... introducing no
    /// overhead" (Sec. 5.3) — no late-projection join needed.
    payload_cols: Vec<usize>,
    /// The dtype inference runs in (see [`ModelDtype::for_engine`]).
    dtype: ModelDtype,
    built: Option<Arc<BuiltModel>>,
    /// Reused input matrix buffer.
    packed: Matrix,
    /// Per-operator inference arena: layer outputs, LSTM gate and state
    /// buffers — reused across every batch this operator processes.
    scratch: InferScratch,
}

impl ModelJoinOp {
    pub fn new(
        input: Box<dyn Operator>,
        shared: Arc<SharedModel>,
        input_cols: Vec<usize>,
        payload_cols: Vec<usize>,
        dtype: ModelDtype,
    ) -> ModelJoinOp {
        ModelJoinOp {
            input,
            shared,
            input_cols,
            payload_cols,
            dtype,
            built: None,
            packed: Matrix::default(),
            scratch: InferScratch::default(),
        }
    }
}

impl Operator for ModelJoinOp {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        // Build phase on the first call (Fig. 5). The int8 model is
        // quantized from the shared fp32 build, so both dtypes share one
        // partition-parallel weight-load pass.
        if self.built.is_none() {
            self.built = Some(self.shared.get_as(self.dtype)?);
        }
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        if batch.num_rows() == 0 {
            return Ok(Some(Batch::of_rows(0)));
        }
        pack_rows(&batch, &self.input_cols, &mut self.packed)?;
        let built = self.built.as_ref().expect("built above").clone();
        let probe = &obs::metrics::MODELJOIN_PROBE;
        probe.batches.add(1);
        probe.rows.add(batch.num_rows() as u64);
        let result = {
            let _span = obs::span(&probe.time_us);
            built.infer_into(&self.packed, self.shared.device(), &mut self.scratch)
        };
        Ok(Some(output_batch(&batch, &self.payload_cols, result.as_slice(), result.cols())))
    }

    fn close(&mut self) {
        self.built = None;
        self.packed = Matrix::default();
        self.scratch = InferScratch::default();
        self.input.close();
    }
}

/// Pack the batch's numeric input columns into the `rows x cols.len()`
/// row-major matrix `out` (paper Fig. 7, step 1) — the columnar →
/// row-major conversion both inference operators pay. Each column vector
/// is touched exactly once. The buffer is capacity-reusing: a shorter
/// batch (the tail vector of a partition) shrinks the matrix in place
/// instead of discarding it, so steady-state packing never allocates.
pub(crate) fn pack_rows(batch: &Batch, cols: &[usize], out: &mut Matrix) -> Result<()> {
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

/// An operator's output batch (Fig. 7, last step): the untouched payload
/// columns of `batch`, then one Float column per model output, unpacked
/// from the row-major `rows x outputs` `result`.
pub(crate) fn output_batch(
    batch: &Batch,
    payload_cols: &[usize],
    result: &[f32],
    outputs: usize,
) -> Batch {
    let rows = batch.num_rows();
    let mut columns: Vec<ColumnVector> =
        payload_cols.iter().map(|&ci| batch.column(ci).clone()).collect();
    for j in 0..outputs {
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            out.push(result[r * outputs + j] as f64);
        }
        columns.push(ColumnVector::Float(out));
    }
    Batch::new(columns)
}

/// Resolve column names to ordinals for a table.
fn resolve_columns(engine: &Engine, table: &str, names: &[&str]) -> Result<Vec<usize>> {
    let t = engine.table(table)?;
    names
        .iter()
        .map(|n| {
            t.schema()
                .index_of(n)
                .ok_or_else(|| EngineError::Plan(format!("table {table} has no column {n:?}")))
        })
        .collect()
}

/// Output column names produced by [`execute_model_join`]: payload names
/// followed by `prediction` (or `prediction_{j}` for multi-output models).
pub fn output_names(payload: &[&str], output_dim: usize) -> Vec<String> {
    let mut names: Vec<String> = payload.iter().map(|s| s.to_string()).collect();
    if output_dim == 1 {
        names.push("prediction".into());
    } else {
        for j in 0..output_dim {
            names.push(format!("prediction_{j}"));
        }
    }
    names
}

/// The partition-parallel fan-out of both inference operators (paper
/// Sec. 5.2/5.4): resolve the input and payload columns, check them
/// against the model's `input_dim`, then run one operator — built by
/// `make_op` over a partition scan, the input ordinals and the payload
/// ordinals — per fact-table partition, each a Query-class task on the
/// shared scheduler pool. Batches are gathered in partition order.
pub(crate) fn execute_partitioned(
    engine: &Engine,
    fact_table: &str,
    input_cols: &[&str],
    payload_cols: &[&str],
    input_dim: usize,
    make_op: impl Fn(Box<dyn Operator>, Vec<usize>, Vec<usize>) -> Box<dyn Operator> + Sync,
) -> Result<Vec<Batch>> {
    let input_idx = resolve_columns(engine, fact_table, input_cols)?;
    let payload_idx = resolve_columns(engine, fact_table, payload_cols)?;
    if input_idx.len() != input_dim {
        return Err(EngineError::Plan(format!(
            "model expects {input_dim} input columns, got {}",
            input_idx.len()
        )));
    }
    let fact = engine.table(fact_table)?;
    let results =
        sched::global().fork_join(sched::TaskClass::Query, 0..fact.partition_count(), |p| {
            let scan = engine.scan_partition(fact_table, p)?;
            drain(make_op(scan, input_idx.clone(), payload_idx.clone()))
        })?;
    let mut out = Vec::new();
    for batches in results {
        out.extend(batches?);
    }
    Ok(out)
}

/// Partition-parallel ModelJoin execution: one [`ModelJoinOp`] per
/// partition of the fact table, all sharing the model, in the dtype
/// [`ModelDtype::for_engine`] picks for the engine and the model's device.
pub fn execute_model_join(
    engine: &Engine,
    fact_table: &str,
    input_cols: &[&str],
    payload_cols: &[&str],
    shared: &Arc<SharedModel>,
    // Unused (the pool is sized by `EngineConfig::worker_threads`); kept
    // because benchmark/src/workloads/modeljoin_batch.rs still passes it.
    _parallelism: usize,
) -> Result<Vec<Batch>> {
    // Apply the engine's thread budget to the kernel dispatch layer so
    // large per-batch multiplies can fan out over the same worker pool as
    // the partition tasks.
    tensor::parallel::set_kernel_threads(engine.config().effective_worker_threads());
    let dtype = ModelDtype::for_engine(engine.config(), shared.device());
    let input_dim = shared.meta().input_dim;
    execute_partitioned(engine, fact_table, input_cols, payload_cols, input_dim, |scan, i, p| {
        Box::new(ModelJoinOp::new(scan, Arc::clone(shared), i, p, dtype))
    })
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

    #[test]
    fn output_names_shape() {
        assert_eq!(output_names(&["id"], 1), vec!["id", "prediction"]);
        assert_eq!(output_names(&[], 2), vec!["prediction_0", "prediction_1"]);
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
