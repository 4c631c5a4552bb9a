//! `ml2sql_batch`: the same question as `modeljoin_batch` answered
//! entirely in SQL. One analyst thread executes the ML-To-SQL statement;
//! all time goes to `vector-engine` hash joins, aggregates and
//! projections over ≈ 9.7 M edge rows, with zero GEMM calls. It is the
//! bypass workload for every kernel change and the target for every
//! operator change.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ml2sql::{ActivationDialect, GenOptions, OptLevel, SqlGenerator};
use model_repr::{load_into_engine, Layout, ModelMeta};
use vector_engine::{Engine, EngineConfig, QueryResult};

use super::modeljoin_batch::{inputs_by_id, max_error, reference, INPUTS};
use super::{batch_window, timed, Leg, LegOut, Replay};
use crate::gen::{self, Rng};

pub const WIDTH: usize = 32;
pub const DEPTH: usize = 2;
pub const ROWS: usize = 8_192;

pub struct Ml2sqlLeg {
    pub engine: Arc<Engine>,
    model: nn::Model,
    pub meta: ModelMeta,
    pub sql: String,
    requests: u64,
}

/// The ML-To-SQL statement for `meta` over `fact` (a table name or a
/// parenthesised subquery), node-id layout, native activations.
pub fn statement(meta: &ModelMeta, fact: &str) -> String {
    let options = GenOptions { opt: OptLevel::NodeId, dialect: ActivationDialect::Native };
    SqlGenerator::new(meta, "model", fact, "id", &INPUTS, &[], options)
        .expect("ml2sql generator")
        .generate()
        .expect("ml2sql statement")
}

impl Ml2sqlLeg {
    fn op(&mut self) -> (QueryResult, f64) {
        self.requests += 1;
        let (engine, sql) = (&self.engine, &self.sql);
        timed("sql.Engine.execute", self.requests, || engine.execute(sql).expect("ml2sql query"))
    }
}

pub fn boxed(seed: u64, _dir: &Path) -> Box<dyn Leg> {
    Box::new(Ml2sqlLeg::setup(seed))
}

impl Ml2sqlLeg {
    pub fn setup(seed: u64) -> Self {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        engine.execute(&gen::facts_ddl("facts", INPUTS.len())).expect("facts ddl");
        let cols = gen::fact_columns(&mut Rng::new(seed, 1), 0, ROWS, INPUTS.len(), false);
        engine.insert_columns("facts", cols).expect("facts load");
        let model = nn::paper::dense_model(WIDTH, DEPTH, seed);
        let (_, meta) =
            load_into_engine(&engine, "model", &model, Layout::NodeId).expect("model load");
        let sql = statement(&meta, "facts");
        Ml2sqlLeg { engine, model, meta, sql, requests: 0 }
    }
}

impl Leg for Ml2sqlLeg {
    fn name(&self) -> &'static str {
        "ml2sql_batch"
    }

    fn warm_and_check(&mut self) -> bool {
        let t = Instant::now();
        let (first, _) = self.op();
        let reference = reference(&self.model, &inputs_by_id(&self.engine, ROWS));
        let ids = first.column("id").and_then(|c| c.as_int()).expect("id column");
        let preds = first.column("prediction").and_then(|c| c.as_float()).expect("prediction");
        let worst = max_error(ids.iter().copied().zip(preds.iter().copied()), &reference, ROWS);
        println!("    max |prediction - nn reference| over {ROWS} rows: {worst:?}");
        let mut ops = 1;
        while ops < 3 || t.elapsed().as_secs_f64() < 1.0 {
            self.op();
            ops += 1;
        }
        worst.is_some_and(|w| w <= 1e-3)
    }

    fn window(&mut self, seconds: f64) -> LegOut {
        batch_window(seconds, ROWS, "ml2sql statement", || {
            let (result, us) = self.op();
            (result.num_rows(), us)
        })
    }

    fn replay(&mut self) -> Vec<Replay> {
        let (_, root_us) = self.op();
        let id = self.requests;
        let _replay = crate::trace::span("replay.execute", id);
        let (plan, plan_us) =
            timed("sql.Engine.plan", id, || self.engine.plan(&self.sql).expect("plan"));
        let (_, exec_us) = timed("exec.Engine.execute_plan", id, || {
            self.engine.execute_plan(&plan).expect("execute plan")
        });
        vec![Replay {
            op: "execute(ml2sql)",
            root_us,
            children: vec![("plan", plan_us), ("execute_plan", exec_us)],
        }]
    }
}
