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

use mlruntime::Session;
use std::sync::Arc;
use vector_engine::exec::physical::{drain, Operator};
use vector_engine::{Batch, ColumnVector, Engine, EngineError, Result};

/// Inference operator backed by the external runtime's C-API session.
pub struct CapiInferenceOp {
    input: Box<dyn Operator>,
    session: Arc<Session>,
    input_cols: Vec<usize>,
    payload_cols: Vec<usize>,
    /// Reused row-major staging buffer.
    staging: Vec<f32>,
}

impl CapiInferenceOp {
    pub fn new(
        input: Box<dyn Operator>,
        session: Arc<Session>,
        input_cols: Vec<usize>,
        payload_cols: Vec<usize>,
    ) -> CapiInferenceOp {
        CapiInferenceOp { input, session, input_cols, payload_cols, staging: Vec::new() }
    }

    /// Columnar → row-major conversion at the C-API boundary.
    fn stage_row_major(&mut self, batch: &Batch) -> Result<()> {
        let rows = batch.num_rows();
        let n = self.input_cols.len();
        self.staging.clear();
        self.staging.resize(rows * n, 0.0);
        for (k, &ci) in self.input_cols.iter().enumerate() {
            match batch.column(ci) {
                ColumnVector::Float(vals) => {
                    for (r, &v) in vals.iter().enumerate() {
                        self.staging[r * n + k] = v as f32;
                    }
                }
                ColumnVector::Int(vals) => {
                    for (r, &v) in vals.iter().enumerate() {
                        self.staging[r * n + k] = v as f32;
                    }
                }
                other => {
                    return Err(EngineError::Type(format!(
                        "runtime input column must be numeric, found {}",
                        other.data_type().name()
                    )))
                }
            }
        }
        Ok(())
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
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(Some(Batch::of_rows(0)));
        }
        self.stage_row_major(&batch)?;
        let out = self.session.run(&self.staging, rows).map_err(EngineError::Execution)?;
        let p = self.session.output_dim();
        let mut columns: Vec<ColumnVector> =
            self.payload_cols.iter().map(|&ci| batch.column(ci).clone()).collect();
        // Row-major → columnar conversion of the predictions.
        for j in 0..p {
            let mut col = Vec::with_capacity(rows);
            for r in 0..rows {
                col.push(out[r * p + j] as f64);
            }
            columns.push(ColumnVector::Float(col));
        }
        Ok(Some(Batch::new(columns)))
    }

    fn close(&mut self) {
        self.input.close();
    }
}

/// Partition-parallel driver, mirroring
/// [`crate::operator::execute_model_join`]: one Query-class task per
/// partition on the shared scheduler pool; the session (like the real
/// runtime's) is shared by all of them.
pub fn execute_capi_join(
    engine: &Engine,
    fact_table: &str,
    input_cols: &[&str],
    payload_cols: &[&str],
    session: &Arc<Session>,
) -> Result<Vec<Batch>> {
    let input_idx = crate::operator::resolve_columns(engine, fact_table, input_cols)?;
    let payload_idx = crate::operator::resolve_columns(engine, fact_table, payload_cols)?;
    if input_idx.len() != session.input_dim() {
        return Err(EngineError::Plan(format!(
            "session expects {} input columns, got {}",
            session.input_dim(),
            input_idx.len()
        )));
    }
    let fact = engine.table(fact_table)?;
    let results =
        sched::global().fork_join(sched::TaskClass::Query, 0..fact.partition_count(), |p| {
            let scan = engine.scan_partition(fact_table, p)?;
            let op = CapiInferenceOp::new(
                scan,
                Arc::clone(session),
                input_idx.clone(),
                payload_idx.clone(),
            );
            drain(Box::new(op))
        })?;
    let mut out = Vec::new();
    for batches in results {
        out.extend(batches?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;
    use tensor::Device;
    use vector_engine::EngineConfig;

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
