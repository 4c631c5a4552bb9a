//! `modeljoin_batch`: the paper's Figure 8 headline cell. One analyst
//! thread runs the native ModelJoin over a whole in-memory fact table,
//! building the model from its relational form on every query, as the
//! paper counts it. ≥ 90 % of the time is `tensor::sgemm` at
//! 1024×512×512 plus the operator's pack; SQL, serve, shard and storage
//! do nothing, so kernel and pack work shows here and nowhere else this
//! cleanly.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use model_repr::{load_into_engine, Layout, ModelMeta};
use modeljoin::operator::execute_model_join;
use modeljoin::{InferScratch, SharedModel};
use tensor::{Device, Matrix};
use vector_engine::{Batch, Engine, EngineConfig, Table};

use super::{batch_window, timed, Leg, LegOut, Replay};
use crate::gen::{self, Rng};

pub const ROWS: usize = 65_536;
pub const WIDTH: usize = 512;
pub const DEPTH: usize = 4;
pub const INPUTS: [&str; 4] = ["c0", "c1", "c2", "c3"];

pub struct ModelJoinLeg {
    pub engine: Arc<Engine>,
    model: nn::Model,
    pub table: Arc<Table>,
    pub meta: ModelMeta,
    rows: usize,
    requests: u64,
}

/// Drain a scan of `table` and return the rows seen.
pub fn drain_scan(engine: &Engine, table: &str) -> usize {
    let mut scan = engine.scan_table(table).expect("scan operator");
    scan.open().expect("scan open");
    let mut rows = 0;
    while let Some(batch) = scan.next().expect("scan next") {
        rows += batch.num_rows();
    }
    scan.close();
    rows
}

/// The model's inputs, in `id` order, as the reference model wants them.
pub fn inputs_by_id(engine: &Engine, rows: usize) -> Matrix {
    let facts = engine.table("facts").expect("facts table");
    let mut x = Matrix::zeros(rows, INPUTS.len());
    for batch in facts.all_batches().expect("facts batches") {
        let ids = batch.column(0).as_int().expect("id column");
        for (c, _) in INPUTS.iter().enumerate() {
            let col = batch.column(c + 1).as_float().expect("feature column");
            for (r, &id) in ids.iter().enumerate() {
                x.set(id as usize, c, col[r] as f32);
            }
        }
    }
    x
}

/// The `nn` reference model's prediction for every row of `x`. The fact
/// table replicates Iris, so a prediction is computed once per distinct
/// input row and looked up for its replicas: all rows are checked at the
/// cost of ~150 scalar forward passes.
pub fn reference(model: &nn::Model, x: &Matrix) -> Matrix {
    let mut memo: std::collections::HashMap<Vec<u32>, f32> = std::collections::HashMap::new();
    let mut out = Matrix::zeros(x.rows(), 1);
    for r in 0..x.rows() {
        let key: Vec<u32> = x.row(r).iter().map(|v| v.to_bits()).collect();
        let y = *memo.entry(key).or_insert_with(|| model.predict_row(x.row(r))[0]);
        out.set(r, 0, y);
    }
    out
}

/// Largest |prediction − reference| over `(id, prediction)` pairs; `None`
/// unless every id in `0..rows` is predicted exactly once.
pub fn max_error(
    pairs: impl Iterator<Item = (i64, f64)>,
    reference: &Matrix,
    rows: usize,
) -> Option<f32> {
    let mut seen = vec![false; rows];
    let mut worst = 0f32;
    for (id, p) in pairs {
        let slot = seen.get_mut(usize::try_from(id).ok()?)?;
        if std::mem::replace(slot, true) {
            return None;
        }
        worst = worst.max((p as f32 - reference.get(id as usize, 0)).abs());
    }
    seen.iter().all(|&s| s).then_some(worst)
}

impl ModelJoinLeg {
    /// A handle whose build has not run yet.
    pub fn shared(&self) -> Arc<SharedModel> {
        let cfg = self.engine.config();
        SharedModel::new(
            Arc::clone(&self.table),
            self.meta.clone(),
            Layout::NodeId,
            Device::cpu(),
            cfg.vector_size,
            cfg.parallelism,
        )
    }

    /// One operation: a fresh `SharedModel` (so the build is counted) and
    /// the partition-parallel ModelJoin over the whole fact table.
    fn op(&mut self) -> (Vec<Batch>, f64) {
        self.requests += 1;
        let shared = self.shared();
        let engine = &self.engine;
        timed("modeljoin.execute_model_join", self.requests, || {
            execute_model_join(
                engine,
                "facts",
                &INPUTS,
                &["id"],
                &shared,
                engine.config().parallelism,
            )
            .expect("model join")
        })
    }
}

pub fn boxed(seed: u64, _dir: &Path) -> Box<dyn Leg> {
    Box::new(ModelJoinLeg::setup(seed, ROWS))
}

impl ModelJoinLeg {
    pub fn setup(seed: u64, rows: usize) -> Self {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        engine.execute(&gen::facts_ddl("facts", INPUTS.len())).expect("facts ddl");
        let cols = gen::fact_columns(&mut Rng::new(seed, 1), 0, rows, INPUTS.len(), false);
        engine.insert_columns("facts", cols).expect("facts load");
        let model = nn::paper::dense_model(WIDTH, DEPTH, seed);
        let (table, meta) =
            load_into_engine(&engine, "model", &model, Layout::NodeId).expect("model load");
        ModelJoinLeg { engine, model, table, meta, rows, requests: 0 }
    }
}

impl Leg for ModelJoinLeg {
    fn name(&self) -> &'static str {
        "modeljoin_batch"
    }

    fn warm_and_check(&mut self) -> bool {
        let t = Instant::now();
        let (first, _) = self.op();
        let reference = reference(&self.model, &inputs_by_id(&self.engine, self.rows));
        let pairs = first.iter().flat_map(|b| {
            let ids = b.column(0).as_int().expect("id payload");
            let preds = b.column(1).as_float().expect("prediction");
            ids.iter().copied().zip(preds.iter().copied()).collect::<Vec<_>>()
        });
        let worst = max_error(pairs, &reference, self.rows);
        println!("    max |prediction - nn reference| over {} rows: {worst:?}", self.rows);
        let mut ops = 1;
        while ops < 3 || t.elapsed().as_secs_f64() < 1.0 {
            self.op();
            ops += 1;
        }
        worst.is_some_and(|w| w <= 1e-3)
    }

    fn window(&mut self, seconds: f64) -> LegOut {
        batch_window(seconds, self.rows, "model join", || {
            let (batches, us) = self.op();
            (batches.iter().map(Batch::num_rows).sum(), us)
        })
    }

    fn replay(&mut self) -> Vec<Replay> {
        let (_, root_us) = self.op();
        let id = self.requests;
        let _replay = crate::trace::span("replay.execute_model_join", id);
        let (_, scan_us) = timed("exec.scan_table.drain", id, || drain_scan(&self.engine, "facts"));
        let shared = self.shared();
        let (built, build_us) =
            timed("modeljoin.SharedModel.get", id, || shared.get().expect("model build"));
        // Inference the way the operator runs it: one task per partition
        // on the shared scheduler, each pushing its partition's batches
        // (the last one short) through the model with its own scratch.
        let vector = self.engine.config().vector_size;
        let partitions = self.engine.table("facts").expect("facts").partition_count();
        let (full, rest) = (self.rows / partitions / vector, self.rows / partitions % vector);
        let input = |rows| Matrix::from_fn(rows, INPUTS.len(), |r, c| (r + c) as f32 * 0.01);
        let (full_batch, short_batch) = (input(vector), input(rest));
        let infer_all = crate::trace::span("modeljoin.infer.all_partitions", id);
        let parent = infer_all.id();
        let t = Instant::now();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..partitions)
            .map(|_| {
                let (built, full_batch, short_batch) = (&built, &full_batch, &short_batch);
                Box::new(move || {
                    let mut scratch = InferScratch::default();
                    let batches = std::iter::repeat_n(full_batch, full)
                        .chain((rest > 0).then_some(short_batch));
                    for batch in batches {
                        let _s = crate::trace::span_under("modeljoin.BuiltModel.infer", id, parent);
                        std::hint::black_box(built.infer_into(batch, &Device::cpu(), &mut scratch));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        sched::global().run_scoped(sched::TaskClass::Query, tasks);
        let infer_us = t.elapsed().as_secs_f64() * 1e6;
        drop(infer_all);
        vec![Replay {
            op: "execute_model_join",
            root_us,
            children: vec![("scan", scan_us), ("build", build_us), ("infer", infer_us)],
        }]
    }
}
