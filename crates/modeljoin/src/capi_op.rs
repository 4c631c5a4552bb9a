//! The Raven-like operator: ML runtime integration over its C-API
//! (paper Sec. 6.1, "a Raven-like operator that relies on the Tensorflow
//! C-API").
//!
//! Shaped like the ModelJoin, but inference is delegated to an
//! [`mlruntime::Session`]. The cost the paper attributes to this approach
//! is explicit here: every vector of columnar data is converted into the
//! runtime's **row-major** tensor layout and the predictions are converted
//! back ("This requires moving data from a columnar format into a
//! row-major matrix, and results back to columnar layout").

use crate::operator::{execute_infer, output_batch, pack_rows};
use mlruntime::Session;
use std::sync::Arc;
use tensor::Matrix;
use vector_engine::exec::physical::Operator;
use vector_engine::plan::InferModel;
use vector_engine::{Batch, Engine, EngineError, Result};

/// Inference operator backed by the external runtime's C-API session. It
/// emits every input column, then the predictions.
pub struct CapiInferenceOp {
    input: Box<dyn Operator>,
    session: Arc<Session>,
    input_cols: Vec<usize>,
    /// Reused row-major staging buffer.
    staging: Matrix,
}

impl CapiInferenceOp {
    pub fn new(
        input: Box<dyn Operator>,
        session: Arc<Session>,
        input_cols: Vec<usize>,
    ) -> CapiInferenceOp {
        CapiInferenceOp { input, session, input_cols, staging: Matrix::default() }
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
        let (rows, outputs) = (batch.num_rows(), self.session.output_dim());
        if rows == 0 {
            return Ok(Some(output_batch(batch, &[], outputs)));
        }
        // Columnar → row-major at the C-API boundary, and back.
        pack_rows(&batch, &self.input_cols, &mut self.staging)?;
        let out =
            self.session.run(self.staging.as_slice(), rows).map_err(EngineError::Execution)?;
        Ok(Some(output_batch(batch, &out, outputs)))
    }

    fn close(&mut self) {
        self.input.close();
    }
}

/// A C-API session as the model of a `LogicalPlan::Infer` node: one
/// [`CapiInferenceOp`] per task, all sharing the session (like the real
/// runtime's).
struct CapiNode(Arc<Session>);

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

/// The C-API join over every row of `fact_table`: the same plan as
/// [`crate::operator::execute_model_join`], with inference delegated to
/// `session`.
pub fn execute_capi_join(
    engine: &Engine,
    fact_table: &str,
    input_cols: &[&str],
    payload_cols: &[&str],
    session: &Arc<Session>,
) -> Result<Vec<Batch>> {
    let model = Arc::new(CapiNode(Arc::clone(session)));
    execute_infer(engine, fact_table, input_cols, payload_cols, model)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `(id, prediction)` pairs of a full C-API join, sorted by id.
    fn predictions(engine: &Engine, model: &nn::Model, device: Device) -> Vec<(i64, f64)> {
        let session = Arc::new(Session::from_model("test", model, device));
        let dim = model.input_dim();
        let input_cols: Vec<String> = (0..dim).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = input_cols.iter().map(|s| s.as_str()).collect();
        let batches = execute_capi_join(engine, "facts", &refs, &["id"], &session).unwrap();
        let mut rows: Vec<(i64, f64)> = Vec::new();
        for b in &batches {
            let ids = b.column(0).as_int().unwrap();
            let preds = b.column(1).as_float().unwrap();
            rows.extend(ids.iter().copied().zip(preds.iter().copied()));
        }
        rows.sort_by_key(|r| r.0);
        rows
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

    #[test]
    fn capi_validates_input_arity() {
        let model = paper::dense_model(4, 2, 1);
        let (engine, _) = setup(&model, 5, 3);
        let session = Arc::new(Session::from_model("t", &model, Device::cpu()));
        assert!(execute_capi_join(&engine, "facts", &["c0"], &[], &session).is_err());
    }
}
