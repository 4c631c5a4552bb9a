//! The Raven-like operator: ML runtime integration over its C-API
//! (paper Sec. 6.1, "a Raven-like operator that relies on the Tensorflow
//! C-API").
//!
//! Shaped like the ModelJoin, but inference is delegated to an
//! [`mlruntime::RowModel`]: a C-API [`mlruntime::Session`], or the pool of
//! UDF hosts the vectorized UDF runs on. The cost the paper attributes to
//! this approach is explicit here: every vector of columnar data is
//! converted into the runtime's **row-major** tensor layout and the
//! predictions are converted back ("This requires moving data from a
//! columnar format into a row-major matrix, and results back to columnar
//! layout").

use crate::operator::{output_batch, pack_rows};
use mlruntime::RowModel;
use std::sync::Arc;
use tensor::Matrix;
use vector_engine::exec::physical::Operator;
use vector_engine::plan::InferModel;
use vector_engine::{Batch, Catalog, Engine, EngineError, Result};

/// Inference operator backed by a row-major runtime model. It emits every
/// input column, then the predictions.
pub struct CapiInferenceOp {
    input: Box<dyn Operator>,
    model: Arc<dyn RowModel>,
    input_cols: Vec<usize>,
    /// Reused row-major staging buffer.
    staging: Matrix,
}

impl CapiInferenceOp {
    pub fn new(
        input: Box<dyn Operator>,
        model: Arc<dyn RowModel>,
        input_cols: Vec<usize>,
    ) -> CapiInferenceOp {
        CapiInferenceOp { input, model, input_cols, staging: Matrix::default() }
    }
}

impl Operator for CapiInferenceOp {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        let (rows, outputs) = (batch.num_rows(), self.model.output_dim());
        if rows == 0 {
            return Ok(Some(output_batch(batch, &[], outputs)));
        }
        // Columnar → row-major at the C-API boundary, and back.
        pack_rows(&batch, &self.input_cols, &mut self.staging)?;
        let out = self.model.run(self.staging.as_slice(), rows).map_err(EngineError::Execution)?;
        Ok(Some(output_batch(batch, &out, outputs)))
    }

    fn close(&mut self) {
        self.input.close();
    }
}

/// A runtime model as the model of a `LogicalPlan::Infer` node: one
/// [`CapiInferenceOp`] per task, all sharing the model (like the real
/// runtime's session).
struct CapiNode(Arc<dyn RowModel>);

impl InferModel for CapiNode {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.0.output_dim()
    }

    fn operator(&self, input: Box<dyn Operator>, args: &[usize]) -> Box<dyn Operator> {
        Box::new(CapiInferenceOp::new(input, Arc::clone(&self.0), args.to_vec()))
    }

    fn infer_rows(&self, input: &[f32], rows: usize) -> Result<Vec<f32>> {
        self.0.run(input, rows).map_err(EngineError::Execution)
    }
}

/// Register `model` on `engine` as `name` for `PREDICT(name, input,
/// args…)` and for `serve::Server`'s predicts, as [`crate::register_model`]
/// does for a model table. The model is loaded already (a session, or the
/// spawned UDF hosts), so a statement pays no load. Registering a name
/// again drops the old model once no running statement holds it.
pub fn register_runtime(engine: &Engine, name: &str, model: Arc<dyn RowModel>) {
    let bind = move |_: &Catalog| -> Result<Arc<dyn InferModel>> {
        Ok(Arc::new(CapiNode(Arc::clone(&model))))
    };
    engine.catalog().register_model(name, Arc::new(bind));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlruntime::Session;
    use nn::paper;
    use tensor::Device;
    use vector_engine::{ColumnVector, EngineConfig};

    fn setup(model: &nn::Model, n: usize, partitions: usize) -> (Engine, Vec<Vec<f32>>) {
        let engine = Engine::new(EngineConfig {
            vector_size: 16,
            partitions,
            parallelism: partitions,
            ..Default::default()
        });
        let dim = model.input_dim();
        let mut ddl = vec!["id INT".to_string()];
        for i in 0..dim {
            ddl.push(format!("c{i} FLOAT"));
        }
        engine.execute(&format!("CREATE TABLE facts ({})", ddl.join(", "))).unwrap();
        let mut cols = vec![ColumnVector::Int((0..n as i64).collect())];
        let mut data = Vec::new();
        let mut feat: Vec<Vec<f64>> = vec![Vec::new(); dim];
        for r in 0..n {
            let row: Vec<f32> = (0..dim).map(|c| ((r + c) as f32 * 0.37).sin()).collect();
            for (c, v) in row.iter().enumerate() {
                feat[c].push(*v as f64);
            }
            data.push(row);
        }
        cols.extend(feat.into_iter().map(ColumnVector::Float));
        engine.insert_columns("facts", cols).unwrap();
        (engine, data)
    }

    /// `(id, prediction)` pairs of `PREDICT` over a registered session,
    /// sorted by id.
    fn predictions(engine: &Engine, model: &nn::Model, device: Device) -> Vec<(i64, f64)> {
        register_runtime(engine, "capi", Arc::new(Session::from_model("test", model, device)));
        let args: Vec<String> = (0..model.input_dim()).map(|i| format!("c{i}")).collect();
        let sql = format!(
            "SELECT id, prediction FROM PREDICT(capi, facts, {}) ORDER BY id",
            args.join(", ")
        );
        let r = engine.execute(&sql).unwrap();
        let (ids, preds) = (r.column("id").unwrap(), r.column("prediction").unwrap());
        ids.as_int()
            .unwrap()
            .iter()
            .copied()
            .zip(preds.as_float().unwrap().iter().copied())
            .collect()
    }

    fn check(model: &nn::Model, device: Device) {
        let n = 40;
        let (engine, data) = setup(model, n, 3);
        let rows = predictions(&engine, model, device);
        assert_eq!(rows.len(), n);
        for (id, pred) in rows {
            let expected = model.predict_row(&data[id as usize])[0] as f64;
            assert!((pred - expected).abs() < 1e-4, "id {id}");
        }
    }

    #[test]
    fn capi_dense_cpu_and_gpu_match_oracle() {
        let model = paper::dense_model(8, 2, 3);
        check(&model, Device::cpu());
        check(&model, Device::gpu());
    }

    #[test]
    fn capi_lstm_matches_oracle() {
        check(&paper::lstm_model(6, 8), Device::cpu());
    }

    #[test]
    fn four_partition_join_is_bit_identical_to_one_partition() {
        let model = paper::dense_model(8, 2, 3);
        let bits = |partitions| -> Vec<(i64, u64)> {
            let (engine, _) = setup(&model, 100, partitions);
            predictions(&engine, &model, Device::cpu())
                .into_iter()
                .map(|(id, pred)| (id, pred.to_bits()))
                .collect()
        };
        assert_eq!(bits(4), bits(1));
    }

    /// A `PREDICT` over a registered session with the wrong number of
    /// arguments fails in the binder.
    #[test]
    fn capi_validates_input_arity() {
        let model = paper::dense_model(4, 2, 1);
        let (engine, _) = setup(&model, 5, 3);
        register_runtime(
            &engine,
            "capi",
            Arc::new(Session::from_model("t", &model, Device::cpu())),
        );
        let err =
            engine.execute("SELECT id, prediction FROM PREDICT(capi, facts, c0)").unwrap_err();
        assert!(err.to_string().contains("expects 4 input columns, got 1"), "{err}");
    }
}
