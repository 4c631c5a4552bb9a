//! The unified experiment runner: one fact table + one model, eight
//! approaches.
//!
//! Every in-engine approach but ML-To-SQL is a catalog registration run by
//! one statement: ModelJoin over the model table, the C-API over a runtime
//! session and the UDF over a pool of UDF hosts are each registered under
//! their approach's label and timed as `SELECT id, prediction FROM
//! PREDICT(<label>, facts, c0, …)`. ML-To-SQL is its generated text.

use crate::approach::Approach;
use crate::data;
use ml2sql::{ActivationDialect, GenOptions, OptLevel, SqlGenerator};
use mlruntime::Session;
use model_repr::{load_into_engine, ModelMeta};
use modeljoin::{register_model, register_runtime};
use nn::{paper, Model};
use pybridge::{run_client_inference, UdfPool};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Device;
use vector_engine::{ColumnVector, Engine, EngineConfig, EngineError, QueryResult, Result};

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
    /// The modeled device time inside `runtime` (zero on the CPU); the
    /// rest of `runtime` is measured host wall time.
    pub modeled: Duration,
    /// Tuples inferred.
    pub rows: usize,
    /// `(id, first prediction)` sorted by id, when collection was
    /// requested.
    pub predictions: Option<Vec<(i64, f64)>>,
}

/// A stood-up experiment: engine with loaded fact and model tables.
pub struct Experiment {
    pub engine: Engine,
    pub model: Model,
    pub meta: ModelMeta,
    config: ExperimentConfig,
    input_cols: Vec<String>,
}

impl Experiment {
    /// Create engine, fact table (`facts`: `id INT` + `c0..` FLOAT inputs)
    /// and model table (`model_table`) for the configured workload.
    pub fn build(config: ExperimentConfig) -> Result<Experiment> {
        let model = config.workload.model(config.seed);
        Experiment::with_model(config, model)
    }

    /// [`Experiment::build`] with `model` in place of the workload's own
    /// network. The workload still picks the fact data, so `model` takes
    /// its inputs: the four Iris features for `Dense`.
    pub fn with_model(config: ExperimentConfig, model: Model) -> Result<Experiment> {
        let engine = Engine::new(config.engine.clone());
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
        engine.table("facts")?.declare_unique("id")?;

        let (_, meta) = load_into_engine(&engine, "model_table", &model, config.opt.layout())?;
        let input_cols = (0..dim).map(|i| format!("c{i}")).collect();
        Ok(Experiment { engine, model, meta, config, input_cols })
    }

    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Run one approach. `collect` gathers the per-tuple predictions for
    /// cross-approach verification (skip it when benchmarking).
    ///
    /// An in-engine approach is registered afresh under its label before
    /// the clock starts: the C-API session and the UDF hosts load their
    /// model there, as in the paper's setup, while ModelJoin gets a cold
    /// cache and so counts its build in the run. Replacing the previous
    /// run's registration drops it, which joins its UDF hosts.
    pub fn run(&self, approach: Approach, collect: bool) -> Result<RunOutcome> {
        let device = if approach.uses_gpu() { Device::gpu() } else { Device::cpu() };
        let name = approach.label();
        let sql = match approach {
            Approach::TfPythonCpu | Approach::TfPythonGpu => {
                return self.run_client(device, approach, collect)
            }
            Approach::Ml2Sql => self.ml2sql_text()?,
            Approach::ModelJoinCpu | Approach::ModelJoinGpu => {
                let (meta, layout) = (self.meta.clone(), self.config.opt.layout());
                register_model(&self.engine, name, "model_table", meta, layout, device.clone());
                self.predict_sql(name)
            }
            Approach::TfCapiCpu | Approach::TfCapiGpu => {
                let session = Session::from_model(name, &self.model, device.clone());
                register_runtime(&self.engine, name, Arc::new(session));
                self.predict_sql(name)
            }
            Approach::Udf => {
                let saved = nn::serial::to_string(&self.model);
                let pool = UdfPool::spawn(&saved, device.clone(), self.udf_hosts())
                    .map_err(EngineError::Execution)?;
                register_runtime(&self.engine, name, Arc::new(pool));
                self.predict_sql(name)
            }
        };
        device.reset();
        let start = Instant::now();
        let result = self.engine.execute(&sql)?;
        let runtime = device.adjust(start.elapsed());
        let predictions = if collect { Some(self.id_predictions(&result)?) } else { None };
        let (gpu_modeled, modeled) = (device.is_gpu(), device.report().device_modeled);
        let rows = result.num_rows();
        Ok(RunOutcome { approach, runtime, gpu_modeled, modeled, rows, predictions })
    }

    /// UDF hosts to spawn: one per scheduler thread when the engine runs
    /// plans in parallel (Vector runs one UDF instance per thread), else
    /// one. The process-wide pool (`sched::global()`) has exactly one
    /// worker per `available_parallelism` core.
    fn udf_hosts(&self) -> usize {
        if self.config.engine.parallelism > 1 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        }
    }

    /// The model's first output column, as `PREDICT` and ML-To-SQL name it.
    fn prediction_col(&self) -> &'static str {
        if self.model.output_dim() == 1 {
            "prediction"
        } else {
            "prediction_0"
        }
    }

    fn predict_sql(&self, name: &str) -> String {
        let (pred, args) = (self.prediction_col(), self.input_cols.join(", "));
        format!("SELECT id, {pred} FROM PREDICT({name}, facts, {args})")
    }

    fn ml2sql_text(&self) -> Result<String> {
        let inputs: Vec<&str> = self.input_cols.iter().map(String::as_str).collect();
        let options = GenOptions { opt: self.config.opt, dialect: ActivationDialect::Native };
        let generator =
            SqlGenerator::new(&self.meta, "model_table", "facts", "id", &inputs, &[], options);
        generator.and_then(|g| g.generate()).map_err(EngineError::Plan)
    }

    /// `(id, first prediction)` of every row of `result`, sorted by id.
    fn id_predictions(&self, result: &QueryResult) -> Result<Vec<(i64, f64)>> {
        let ids = result.column("id")?.as_int()?;
        let preds = result.column(self.prediction_col())?.as_float()?;
        let mut out: Vec<(i64, f64)> = ids.iter().copied().zip(preds.iter().copied()).collect();
        out.sort_by_key(|r| r.0);
        Ok(out)
    }

    fn run_client(&self, device: Device, approach: Approach, collect: bool) -> Result<RunOutcome> {
        let session = Arc::new(Session::from_model("client", &self.model, device.clone()));
        device.reset();
        let start = Instant::now();
        // Measured: the export out of the column store, the ODBC
        // transport, the client-side conversion, the inference.
        let (ids, rows) = self.export_facts()?;
        let (preds, _stats) = run_client_inference(&rows, self.model.input_dim(), &session)
            .map_err(EngineError::Execution)?;
        let runtime = device.adjust(start.elapsed());
        let p = self.model.output_dim();
        let predictions = collect.then(|| {
            let mut out: Vec<(i64, f64)> =
                ids.iter().enumerate().map(|(i, &id)| (id, preds[i * p] as f64)).collect();
            out.sort_by_key(|r| r.0);
            out
        });
        let (gpu_modeled, modeled) = (device.is_gpu(), device.report().device_modeled);
        Ok(RunOutcome { approach, runtime, gpu_modeled, modeled, rows: ids.len(), predictions })
    }

    /// `id` and the model inputs of every fact row, as `SELECT id, c0, …
    /// FROM facts` returns them: the export the client baseline starts
    /// with, standing in for ODBC.
    fn export_facts(&self) -> Result<(Vec<i64>, Vec<Vec<f64>>)> {
        let sql = format!("SELECT id, {} FROM facts", self.input_cols.join(", "));
        let result = self.engine.execute(&sql)?;
        let ids = result.columns[0].as_int()?.to_vec();
        let cols: Vec<&[f64]> =
            result.columns[1..].iter().map(|c| c.as_float()).collect::<Result<_>>()?;
        let rows = (0..ids.len()).map(|r| cols.iter().map(|c| c[r]).collect()).collect();
        Ok((ids, rows))
    }

    /// Reference predictions `(id, value)` sorted by id, from the oracle.
    pub fn oracle_predictions(&self) -> Result<Vec<(i64, f64)>> {
        let (ids, rows) = self.export_facts()?;
        let predict = |row: Vec<f64>| {
            let input: Vec<f32> = row.iter().map(|&v| v as f32).collect();
            self.model.predict_row(&input)[0] as f64
        };
        let mut out: Vec<(i64, f64)> = ids.into_iter().zip(rows.into_iter().map(predict)).collect();
        out.sort_by_key(|r| r.0);
        Ok(out)
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
            assert_eq!(outcome.modeled.is_zero(), !approach.uses_gpu(), "{approach}: modeled time");
            assert!(outcome.modeled <= outcome.runtime, "{approach}: modeled above runtime");
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
