//! The Raven-like approach: ML runtime integration over its C-API
//! (paper Sec. 6.1, "a Raven-like operator that relies on the Tensorflow
//! C-API").
//!
//! A loaded [`mlruntime::RowModel`] — a C-API [`mlruntime::Session`], or
//! the pool of UDF hosts the vectorized UDF runs on — registered for
//! `PREDICT` runs under the same inference operator as the native
//! ModelJoin; only the run call differs. The cost the paper attributes to
//! this approach is explicit: every vector of columnar data is converted
//! into the runtime's **row-major** tensor layout and the predictions are
//! converted back ("This requires moving data from a columnar format into
//! a row-major matrix, and results back to columnar layout").

use crate::operator::ModelNode;
use mlruntime::RowModel;
use std::sync::Arc;
use vector_engine::plan::InferModel;
use vector_engine::{Catalog, Engine, Result};

/// Register `model` on `engine` as `name` for `PREDICT(name, input,
/// args…)` and for `serve::Server`'s predicts, as [`crate::register_model`]
/// does for a model table. The model is loaded already (a session, or the
/// spawned UDF hosts), so a statement pays no load. Registering a name
/// again drops the old model once no running statement holds it.
pub fn register_runtime(engine: &Engine, name: &str, model: Arc<dyn RowModel>) {
    let bind = move |_: &Catalog| -> Result<Arc<dyn InferModel>> {
        Ok(Arc::new(ModelNode::Runtime(Arc::clone(&model))))
    };
    engine.catalog().register_model(name, Arc::new(bind));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlruntime::{InferScratch, Session};
    use nn::paper;
    use std::borrow::Cow;
    use tensor::{Device, Matrix};
    use vector_engine::{ColumnVector, EngineConfig, EngineError};

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

    /// A runtime model whose result is one value short of its rows.
    struct OneShort;

    impl RowModel for OneShort {
        fn name(&self) -> &str {
            "one_short"
        }

        fn input_dim(&self) -> usize {
            4
        }

        fn output_dim(&self) -> usize {
            1
        }

        fn run<'s>(
            &self,
            input: &Matrix,
            _: &'s mut InferScratch,
        ) -> std::result::Result<Cow<'s, [f32]>, String> {
            Ok(Cow::Owned(vec![0.5; input.rows() - 1]))
        }
    }

    /// A runtime's short result fails the statement with an error naming
    /// the model, serially and partition-parallel: it never indexes past
    /// the result.
    #[test]
    fn a_short_runtime_result_is_an_error() {
        for parallelism in [1, 4] {
            let (engine, _) = setup(&paper::dense_model(4, 2, 1), 40, parallelism);
            register_runtime(&engine, "short", Arc::new(OneShort));
            let err = engine
                .execute("SELECT id, prediction FROM PREDICT(short, facts, c0, c1, c2, c3)")
                .unwrap_err();
            assert!(
                matches!(&err, EngineError::Execution(m) if m.contains("one_short")),
                "parallelism {parallelism}: {err:?}"
            );
        }
    }
}
