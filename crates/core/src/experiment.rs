//! The unified experiment runner: one fact table + one model, eight
//! approaches.

use crate::approach::Approach;
use crate::data;
use ml2sql::{ActivationDialect, GenOptions, OptLevel, SqlGenerator};
use mlruntime::Session;
use model_repr::{load_into_engine, ModelMeta};
use modeljoin::build::SharedModel;
use modeljoin::capi_op::execute_capi_join;
use modeljoin::operator::execute_model_join;
use nn::{paper, Model};
use pybridge::client::{run_client_inference, ClientConfig};
use pybridge::UdfHost;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Device;
use vector_engine::{ColumnVector, Engine, EngineConfig, EngineError, Result, Table};

/// The two workload families of the evaluation (Sec. 6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Replicated Iris + dense network of `width` x `depth` (+ output 1).
    Dense { width: usize, depth: usize },
    /// Sine time series + single LSTM layer of `width` (+ output 1).
    Lstm { width: usize },
}

impl Workload {
    pub fn model(&self, seed: u64) -> Model {
        match self {
            Workload::Dense { width, depth } => paper::dense_model(*width, *depth, seed),
            Workload::Lstm { width } => paper::lstm_model(*width, seed),
        }
    }

    pub fn label(&self) -> String {
        match self {
            Workload::Dense { width, depth } => format!("Dense(w={width},d={depth})"),
            Workload::Lstm { width } => format!("LSTM(w={width})"),
        }
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub workload: Workload,
    /// Number of fact tuples.
    pub fact_rows: usize,
    pub engine: EngineConfig,
    /// Model weight seed (same seed → identical model in every approach).
    pub seed: u64,
    /// ML-To-SQL optimization level; also fixes the model-table layout.
    pub opt: OptLevel,
}

impl ExperimentConfig {
    pub fn new(workload: Workload, fact_rows: usize) -> ExperimentConfig {
        ExperimentConfig {
            workload,
            fact_rows,
            engine: EngineConfig::default(),
            seed: 42,
            opt: OptLevel::NodeId,
        }
    }
}

/// The outcome of one approach run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub approach: Approach,
    /// Reported runtime. For GPU approaches the simulated device sections
    /// are replaced by the calibrated device model (DESIGN.md §2).
    pub runtime: Duration,
    /// True when `runtime` contains modeled GPU time.
    pub gpu_modeled: bool,
    /// Tuples inferred.
    pub rows: usize,
    /// `(id, first prediction)` sorted by id, when collection was
    /// requested.
    pub predictions: Option<Vec<(i64, f64)>>,
}

/// A stood-up experiment: engine with loaded fact and model tables. The
/// engine is `Arc`'d so a serving front end ([`Experiment::serve`]) can
/// co-own it with the experiment.
pub struct Experiment {
    pub engine: Arc<Engine>,
    pub model: Model,
    pub meta: ModelMeta,
    config: ExperimentConfig,
    saved_model: String,
    input_cols: Vec<String>,
    #[allow(dead_code)]
    model_table: Arc<Table>,
}

impl Experiment {
    /// Create engine, fact table (`facts`: `id INT` + `c0..` FLOAT inputs)
    /// and model table (`model_table`) for the configured workload.
    pub fn build(config: ExperimentConfig) -> Result<Experiment> {
        let engine = Arc::new(Engine::new(config.engine.clone()));
        let model = config.workload.model(config.seed);
        let dim = model.input_dim();
        let rows: Vec<Vec<f32>> = match config.workload {
            Workload::Dense { .. } => data::replicated_iris(config.fact_rows),
            Workload::Lstm { .. } => data::sine_series(config.fact_rows, dim),
        };

        let mut ddl = vec!["id INT".to_string()];
        for i in 0..dim {
            ddl.push(format!("c{i} FLOAT"));
        }
        engine.execute(&format!("CREATE TABLE facts ({})", ddl.join(", ")))?;
        let mut columns = vec![ColumnVector::Int((0..config.fact_rows as i64).collect())];
        for c in 0..dim {
            columns.push(ColumnVector::Float(rows.iter().map(|r| r[c] as f64).collect()));
        }
        engine.insert_columns("facts", columns)?;
        let fact_table = engine.table("facts")?;
        fact_table.declare_unique("id")?;

        let layout = config.opt.layout();
        let (model_table, meta) = load_into_engine(&engine, "model_table", &model, layout)?;
        let saved_model = nn::serial::to_string(&model);
        let input_cols = (0..dim).map(|i| format!("c{i}")).collect();
        Ok(Experiment { engine, model, meta, config, saved_model, input_cols, model_table })
    }

    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Stand up a serving front end over this experiment's engine, with
    /// `"model"` registered against the loaded model table (so DML to
    /// `model_table` invalidates the server's model cache).
    pub fn serve(&self, cfg: serve::ServeConfig, device: Device) -> serve::Server {
        let server = serve::Server::start(Arc::clone(&self.engine), cfg);
        server.register_model(
            "model",
            "model_table",
            self.meta.clone(),
            self.config.opt.layout(),
            device,
        );
        server
    }

    fn input_refs(&self) -> Vec<&str> {
        self.input_cols.iter().map(|s| s.as_str()).collect()
    }

    /// Run one approach. `collect` gathers the per-tuple predictions for
    /// cross-approach verification (skip it when benchmarking).
    pub fn run(&self, approach: Approach, collect: bool) -> Result<RunOutcome> {
        match approach {
            Approach::ModelJoinCpu => self.run_modeljoin(Device::cpu(), approach, collect),
            Approach::ModelJoinGpu => self.run_modeljoin(Device::gpu(), approach, collect),
            Approach::TfCapiCpu => self.run_capi(Device::cpu(), approach, collect),
            Approach::TfCapiGpu => self.run_capi(Device::gpu(), approach, collect),
            Approach::TfPythonCpu => self.run_client(Device::cpu(), approach, collect),
            Approach::TfPythonGpu => self.run_client(Device::gpu(), approach, collect),
            Approach::Udf => self.run_udf(collect),
            Approach::Ml2Sql => self.run_ml2sql(collect),
        }
    }

    fn run_modeljoin(
        &self,
        device: Device,
        approach: Approach,
        collect: bool,
    ) -> Result<RunOutcome> {
        let layout = self.config.opt.layout();
        let shared = SharedModel::new(
            Arc::clone(&self.model_table),
            self.meta.clone(),
            layout,
            device.clone(),
            self.config.engine.vector_size,
            self.config.engine.parallelism,
        );
        let start = Instant::now();
        let batches = execute_model_join(
            &self.engine,
            "facts",
            &self.input_refs(),
            &["id"],
            &shared,
            self.config.engine.parallelism,
        )?;
        let runtime = device.adjust(start.elapsed());
        let (rows, predictions) = gather_id_pred(&batches, 0, 1, collect)?;
        Ok(RunOutcome { approach, runtime, gpu_modeled: device.is_gpu(), rows, predictions })
    }

    fn run_capi(&self, device: Device, approach: Approach, collect: bool) -> Result<RunOutcome> {
        // Session creation (model load) happens once, outside the measured
        // query, as in the paper's setup.
        let session = Arc::new(Session::from_model("capi", &self.model, device.clone()));
        device.reset();
        let start = Instant::now();
        let batches =
            execute_capi_join(&self.engine, "facts", &self.input_refs(), &["id"], &session)?;
        let runtime = device.adjust(start.elapsed());
        let (rows, predictions) = gather_id_pred(&batches, 0, 1, collect)?;
        Ok(RunOutcome { approach, runtime, gpu_modeled: device.is_gpu(), rows, predictions })
    }

    fn run_client(&self, device: Device, approach: Approach, collect: bool) -> Result<RunOutcome> {
        let session = Arc::new(Session::from_model("client", &self.model, device.clone()));
        device.reset();
        let start = Instant::now();
        // Measured: materializing the result set out of the column store,
        // the ODBC transport, the client-side conversion, the inference.
        let (ids, rows) = self.fact_rows_with_ids()?;
        let dim = self.model.input_dim();
        let (preds, _stats) = run_client_inference(&rows, dim, &session, &ClientConfig::default())
            .map_err(EngineError::Execution)?;
        let runtime = device.adjust(start.elapsed());
        let n = ids.len();
        let predictions = if collect {
            let p = self.model.output_dim();
            let mut out: Vec<(i64, f64)> =
                ids.iter().enumerate().map(|(i, &id)| (id, preds[i * p] as f64)).collect();
            out.sort_by_key(|r| r.0);
            Some(out)
        } else {
            None
        };
        Ok(RunOutcome { approach, runtime, gpu_modeled: device.is_gpu(), rows: n, predictions })
    }

    fn run_udf(&self, collect: bool) -> Result<RunOutcome> {
        // The UDF host loads the saved model once (paper: "we load the
        // saved model"), outside the measured query.
        let host =
            UdfHost::spawn(&self.saved_model, Device::cpu()).map_err(EngineError::Execution)?;
        let dim = self.model.input_dim();
        let p = self.model.output_dim();
        let start = Instant::now();
        let mut scan = self.engine.scan_table("facts")?;
        scan.open()?;
        let mut results: Vec<(i64, f64)> = Vec::new();
        let mut rows = 0usize;
        // One UDF invocation per vector (the paper's vectorized-UDF
        // optimization).
        while let Some(batch) = scan.next()? {
            if batch.num_rows() == 0 {
                continue;
            }
            let ids = batch.column(0).as_int()?.to_vec();
            let mut vec_rows = Vec::with_capacity(batch.num_rows());
            for r in 0..batch.num_rows() {
                let mut row = Vec::with_capacity(dim);
                for c in 0..dim {
                    row.push(batch.column(1 + c).value(r).as_f64()?);
                }
                vec_rows.push(row);
            }
            let preds = host.invoke(&vec_rows).map_err(EngineError::Execution)?;
            rows += vec_rows.len();
            if collect {
                for (i, &id) in ids.iter().enumerate() {
                    results.push((id, preds[i * p]));
                }
            }
        }
        scan.close();
        let runtime = start.elapsed();
        let predictions = if collect {
            results.sort_by_key(|r| r.0);
            Some(results)
        } else {
            None
        };
        Ok(RunOutcome { approach: Approach::Udf, runtime, gpu_modeled: false, rows, predictions })
    }

    fn run_ml2sql(&self, collect: bool) -> Result<RunOutcome> {
        let generator = SqlGenerator::new(
            &self.meta,
            "model_table",
            "facts",
            "id",
            &self.input_refs(),
            &[],
            GenOptions { opt: self.config.opt, dialect: ActivationDialect::Native },
        )
        .map_err(EngineError::Plan)?;
        let sql = generator.generate().map_err(EngineError::Plan)?;
        let start = Instant::now();
        let result = self.engine.execute(&sql)?;
        let runtime = start.elapsed();
        let rows = result.num_rows();
        let predictions = if collect {
            let ids = result.column("id")?.as_int()?;
            let pred_col = if self.model.output_dim() == 1 {
                result.column("prediction")?
            } else {
                result.column("prediction_0")?
            };
            let preds = pred_col.as_float()?;
            let mut out: Vec<(i64, f64)> = ids.iter().copied().zip(preds.iter().copied()).collect();
            out.sort_by_key(|r| r.0);
            Some(out)
        } else {
            None
        };
        Ok(RunOutcome {
            approach: Approach::Ml2Sql,
            runtime,
            gpu_modeled: false,
            rows,
            predictions,
        })
    }

    /// Materialize fact rows (id plus model inputs) out of the column
    /// store — the server-side export the client baseline starts with.
    fn fact_rows_with_ids(&self) -> Result<(Vec<i64>, Vec<Vec<f64>>)> {
        let dim = self.model.input_dim();
        let mut scan = self.engine.scan_table("facts")?;
        scan.open()?;
        let mut ids = Vec::new();
        let mut rows = Vec::new();
        while let Some(batch) = scan.next()? {
            let batch_ids = batch.column(0).as_int()?;
            let cols: Result<Vec<&[f64]>> =
                (0..dim).map(|c| batch.column(1 + c).as_float()).collect();
            let cols = cols?;
            for r in 0..batch.num_rows() {
                ids.push(batch_ids[r]);
                rows.push(cols.iter().map(|c| c[r]).collect());
            }
        }
        scan.close();
        Ok((ids, rows))
    }

    /// Reference predictions `(id, value)` sorted by id, from the oracle.
    pub fn oracle_predictions(&self) -> Result<Vec<(i64, f64)>> {
        let (ids, rows) = self.fact_rows_with_ids()?;
        let mut out = Vec::with_capacity(ids.len());
        for (id, row) in ids.into_iter().zip(rows) {
            let input: Vec<f32> = row.iter().map(|&v| v as f32).collect();
            out.push((id, self.model.predict_row(&input)[0] as f64));
        }
        out.sort_by_key(|r| r.0);
        Ok(out)
    }
}

/// Extract `(id, prediction)` from operator output batches where column
/// `id_col` is the id and `pred_col` the first prediction column.
#[allow(clippy::type_complexity)] // (row count, optional collected (id, pred) pairs)
fn gather_id_pred(
    batches: &[vector_engine::Batch],
    id_col: usize,
    pred_col: usize,
    collect: bool,
) -> Result<(usize, Option<Vec<(i64, f64)>>)> {
    let mut rows = 0usize;
    let mut out = Vec::new();
    for b in batches {
        rows += b.num_rows();
        if collect {
            let ids = b.column(id_col).as_int()?;
            let preds = b.column(pred_col).as_float()?;
            out.extend(ids.iter().copied().zip(preds.iter().copied()));
        }
    }
    if collect {
        out.sort_by_key(|r| r.0);
        Ok((rows, Some(out)))
    } else {
        Ok((rows, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(workload: Workload, rows: usize) -> ExperimentConfig {
        ExperimentConfig {
            engine: EngineConfig {
                vector_size: 32,
                partitions: 3,
                parallelism: 2,
                ..Default::default()
            },
            ..ExperimentConfig::new(workload, rows)
        }
    }

    /// Each of `approaches` matches the `nn` oracle, and every fp32
    /// series — all but ML-To-SQL — equals ModelJoin_CPU bit for bit: they
    /// run one forward pass and differ only in where the model comes from
    /// and how the rows reach it.
    fn assert_approaches_agree(config: ExperimentConfig, approaches: &[Approach]) {
        let rows = config.fact_rows;
        let ex = Experiment::build(config).unwrap();
        let oracle = ex.oracle_predictions().unwrap();
        assert_eq!(oracle.len(), rows);
        let bits =
            |preds: &[(i64, f64)]| preds.iter().map(|(_, p)| p.to_bits()).collect::<Vec<_>>();
        let native = bits(&ex.run(Approach::ModelJoinCpu, true).unwrap().predictions.unwrap());
        for &approach in approaches {
            let outcome = ex.run(approach, true).unwrap();
            assert_eq!(outcome.rows, rows, "{approach}: row count");
            let preds = outcome.predictions.unwrap();
            assert_eq!(preds.len(), rows, "{approach}: prediction count");
            for ((id_a, p), (id_b, o)) in preds.iter().zip(&oracle) {
                assert_eq!(id_a, id_b, "{approach}: id order");
                assert!((p - o).abs() < 1e-4, "{approach} id {id_a}: {p} vs oracle {o}");
            }
            if approach != Approach::Ml2Sql {
                assert!(bits(&preds) == native, "{approach} is not bit-identical to ModelJoin_CPU");
            }
            assert_eq!(outcome.gpu_modeled, approach.uses_gpu());
        }
    }

    #[test]
    fn all_approaches_agree_on_dense_workload() {
        let config = tiny_config(Workload::Dense { width: 8, depth: 2 }, 70);
        assert_approaches_agree(config, &Approach::ALL);
    }

    #[test]
    fn all_approaches_agree_on_lstm_workload() {
        assert_approaches_agree(tiny_config(Workload::Lstm { width: 4 }, 40), &Approach::ALL);
    }

    /// The paper's engine shape (vector size 1024) with models wide enough
    /// that the batches take the blocked GEMM, at 1 and 12 partitions.
    /// ML-To-SQL is left out: at these sizes it is minutes of debug-build
    /// joins, and it is not an fp32 series.
    #[test]
    fn fp32_series_are_bit_identical_at_blocked_gemm_sizes() {
        let fp32: Vec<Approach> =
            Approach::ALL.into_iter().filter(|&a| a != Approach::Ml2Sql).collect();
        let dense = Workload::Dense { width: 128, depth: 4 };
        for (workload, rows) in [(dense, 4_096), (Workload::Lstm { width: 32 }, 2_048)] {
            for partitions in [1, 12] {
                let engine =
                    EngineConfig { partitions, parallelism: partitions, ..Default::default() };
                let config = ExperimentConfig { engine, ..ExperimentConfig::new(workload, rows) };
                assert_approaches_agree(config, &fp32);
            }
        }
    }

    #[test]
    fn basic_opt_level_also_agrees() {
        let mut config = tiny_config(Workload::Dense { width: 4, depth: 2 }, 20);
        config.opt = OptLevel::Basic;
        let ex = Experiment::build(config).unwrap();
        let oracle = ex.oracle_predictions().unwrap();
        for approach in [Approach::Ml2Sql, Approach::ModelJoinCpu] {
            let preds = ex.run(approach, true).unwrap().predictions.unwrap();
            for ((_, p), (_, o)) in preds.iter().zip(&oracle) {
                assert!((p - o).abs() < 1e-4, "{approach}");
            }
        }
    }

    #[test]
    fn workload_labels() {
        assert_eq!(Workload::Dense { width: 32, depth: 4 }.label(), "Dense(w=32,d=4)");
        assert_eq!(Workload::Lstm { width: 128 }.label(), "LSTM(w=128)");
    }
}
