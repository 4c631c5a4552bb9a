//! `shard_mixed`: an application on the sharded facade. Two closed-loop
//! clients mix one-row predicts, routed point SELECTs with Zipf keys, and
//! partial-aggregate scatters. It is the only workload that runs the
//! route classifier, the route cache, scatter/gather and per-shard
//! servers; it puts Query-class scatter tasks and Serve-class batches on
//! one `sched` pool, and it carries the recorded soft spot (predict
//! throughput falling with shard count).
//!
//! Sizes against the caches: 16,384 distinct point keys against a
//! 4,096-entry route cache and 4 × 128-entry plan caches, so both hit
//! shares sit strictly between 0 and 1. Ids are loaded shuffled, so a
//! block's min/max spans the key domain and pruning cannot skip blocks.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use model_repr::{load_into_engine, Layout};
use serve::{Response, ServeConfig};
use shard::{ShardedEngine, ShardedServer};
use tensor::Device;
use vector_engine::{Engine, EngineConfig, QueryResult, Value};

use super::serve_point::{good_prediction, stats_delta};
use super::{push_latency, timed, Leg, LegOut, Replay};
use crate::gen::{self, Rng, Zipf};
use crate::stats;
use crate::trace;

pub const ROWS: usize = 262_144;
pub const SHARDS: usize = 4;
pub const WIDTH: usize = 32;
pub const DEPTH: usize = 2;
pub const KEYS: usize = 16_384;
pub const CLIENTS: usize = 2;
const MODEL: &str = "dense";
/// `c1` is Iris sepal width (2.0–4.4); eight thresholds keep the scatter
/// statements a small, plan-cacheable set.
const THRESHOLDS: [f64; 8] = [2.3, 2.6, 2.8, 3.0, 3.1, 3.3, 3.5, 3.8];

pub struct ShardLeg {
    server: ShardedServer,
    engine: Arc<ShardedEngine>,
    seed: u64,
    rows: usize,
    /// Point keys by popularity rank.
    keys: Vec<i64>,
    zipf: Zipf,
    pool: Vec<Vec<f32>>,
    passes: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Predict,
    Point,
    Scatter,
}

/// The mix, exact per block of 100 operations; the order inside a block
/// is seeded. A block is the slice the rates are read over: every block
/// does the same work, and is long enough (~0.1 s) that what the other
/// client happened to be doing meanwhile averages out, so block times
/// compare.
const BLOCK: [(Class, usize); 3] = [(Class::Predict, 60), (Class::Point, 30), (Class::Scatter, 10)];
const BLOCK_OPS: usize = 100;

pub fn point_sql(key: i64) -> String {
    format!("SELECT id, c0, c1, c2, c3 FROM facts WHERE id = {key}")
}

pub fn scatter_sql(threshold: f64) -> String {
    format!("SELECT COUNT(*), SUM(c0) FROM facts WHERE c1 > {threshold}")
}

fn rows_of(r: Result<Response, serve::ServeError>) -> Option<QueryResult> {
    match r {
        Ok(Response::Rows(rows)) => Some(rows),
        _ => None,
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// Same rows: exact on integers, 1e-9 relative on floats (the facade
/// folds partial sums in shard order, a single engine in partition order).
fn same_rows(a: &QueryResult, b: &QueryResult) -> bool {
    a.num_rows() == b.num_rows()
        && a.rows().iter().zip(b.rows()).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y.iter()).all(|(p, q)| match (p, q) {
                    (Value::Int(i), Value::Int(j)) => i == j,
                    _ => (as_f64(p) - as_f64(q)).abs() <= 1e-9 * as_f64(q).abs().max(1.0),
                })
        })
}

impl ShardLeg {
    pub fn engine(&self) -> &Arc<ShardedEngine> {
        &self.engine
    }
}

pub fn boxed(seed: u64, _dir: &Path) -> Box<dyn Leg> {
    Box::new(ShardLeg::setup(seed, ROWS))
}

impl ShardLeg {
    pub fn setup(seed: u64, rows: usize) -> Self {
        let engine = Arc::new(ShardedEngine::with_shards(EngineConfig::default(), SHARDS));
        engine.execute(&gen::facts_ddl("facts", 4)).expect("facts ddl");
        engine.declare_sharded("facts", "id").expect("declare sharded");
        let cols = gen::fact_columns(&mut Rng::new(seed, 1), 0, rows, 4, true);
        engine.insert_columns("facts", cols).expect("facts load");
        let model = nn::paper::dense_model(WIDTH, DEPTH, seed);
        let mut meta = None;
        for shard in engine.shards() {
            meta = Some(load_into_engine(shard, "model", &model, Layout::NodeId).expect("model").1);
        }
        let server =
            ShardedServer::start(Arc::clone(&engine), ServeConfig::from_engine(engine.config()));
        server.register_model(
            MODEL,
            "model",
            meta.expect("at least one shard"),
            Layout::NodeId,
            &Device::cpu(),
        );
        // The point keys: a seeded sample of the ids, most popular first.
        let mut ids: Vec<i64> = (0..rows as i64).collect();
        let mut rng = Rng::new(seed, 3);
        rng.shuffle(&mut ids);
        ids.truncate(KEYS.min(rows));
        let zipf = Zipf::new(ids.len(), 1.0);
        let pool = gen::input_pool(&mut Rng::new(seed, 2), 4_096);
        ShardLeg { server, engine, seed, rows, keys: ids, zipf, pool, passes: 0 }
    }

    /// Submit one operation of `class` and wait for it; whether its answer
    /// was acceptable.
    fn operate(&self, class: Class, id: u64, rng: &mut Rng) -> bool {
        let server = &self.server;
        if class == Class::Predict {
            let x = self.pool[rng.below(self.pool.len())].clone();
            let h = timed("shard.ShardedServer.submit_predict", id, || {
                server.submit_predict(MODEL, x).ok()
            })
            .0;
            return trace::within("serve.RequestHandle.wait", id, || {
                h.and_then(|h| good_prediction(h.wait())).is_some()
            });
        }
        let (sql, key) = if class == Class::Point {
            let key = self.keys[self.zipf.sample(rng)];
            (point_sql(key), Some(key))
        } else {
            (scatter_sql(THRESHOLDS[rng.below(THRESHOLDS.len())]), None)
        };
        let h = timed("shard.ShardedServer.submit_sql", id, || server.submit_sql(&sql).ok()).0;
        let rows =
            trace::within("serve.RequestHandle.wait", id, || h.and_then(|h| rows_of(h.wait())));
        rows.is_some_and(|r| r.num_rows() == 1 && key.is_none_or(|k| r.row(0)[0] == Value::Int(k)))
    }
}

impl Leg for ShardLeg {
    fn name(&self) -> &'static str {
        "shard_mixed"
    }

    fn warm_and_check(&mut self) -> bool {
        let t = Instant::now();
        let mut ok = true;
        let mut ops = 0;
        while ops < 3 || t.elapsed().as_secs_f64() < 1.0 {
            let key = self.keys[ops % self.keys.len()];
            let point =
                self.server.submit_sql(&point_sql(key)).ok().and_then(|h| rows_of(h.wait()));
            ok &= point.is_some_and(|r| r.num_rows() == 1 && r.row(0)[0] == Value::Int(key));
            let x = self.pool[ops % self.pool.len()].clone();
            ok &= self
                .server
                .submit_predict(MODEL, x)
                .ok()
                .and_then(|h| good_prediction(h.wait()))
                .is_some();
            ops += 1;
        }
        for x in THRESHOLDS {
            let agg = self.server.submit_sql(&scatter_sql(x)).ok().and_then(|h| rows_of(h.wait()));
            ok &= agg.is_some_and(|r| r.num_rows() == 1);
        }
        ok
    }

    fn window(&mut self, seconds: f64) -> LegOut {
        self.passes += 1;
        let before = self.server.stats();
        let start = Instant::now();
        let (leg, stream) = (&*self, self.seed + self.passes);
        // Each client draws its own seeded operation sequence, block by
        // block. Per block: its time, and the time its scatter aggregates
        // took.
        type Client = (Vec<(Class, f64)>, Vec<(f64, f64)>, u64, u64);
        let clients: Vec<Client> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut rng = Rng::new(stream, 300 + c as u64);
                        let (mut samples, mut blocks) = (Vec::new(), Vec::new());
                        let (mut attempted, mut failed) = (0u64, 0u64);
                        while start.elapsed().as_secs_f64() < seconds {
                            let mut block: Vec<Class> =
                                BLOCK.iter().flat_map(|&(c, n)| vec![c; n]).collect();
                            rng.shuffle(&mut block);
                            let block_start = Instant::now();
                            let mut scatter_us = 0.0;
                            for class in block {
                                let t = Instant::now();
                                let ok = leg.operate(class, (c as u64) << 40 | attempted, &mut rng);
                                let us = t.elapsed().as_secs_f64() * 1e6;
                                attempted += 1;
                                if class == Class::Scatter {
                                    scatter_us += us;
                                }
                                if ok {
                                    samples.push((class, us));
                                } else {
                                    failed += 1;
                                }
                            }
                            blocks.push((block_start.elapsed().as_secs_f64(), scatter_us / 1e6));
                        }
                        (samples, blocks, attempted, failed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });

        let mut out = LegOut { sharded: true, ..LegOut::new() };
        let (mut all, mut blocks) = (Vec::new(), Vec::new());
        for (samples, client_blocks, attempted, failed) in clients {
            all.extend(samples);
            blocks.extend(client_blocks);
            out.attempted += attempted;
            out.failed += failed;
        }
        // Every operation of the mix returns exactly one row.
        out.ops = out.attempted - out.failed;
        out.result_rows = out.ops;
        // A block's rate: what the clients together complete per second
        // while each takes this long over its 100 operations; and the rows
        // its ten scatter aggregates read over the time they took.
        let block_rates: Vec<f64> =
            blocks.iter().map(|b| (CLIENTS * BLOCK_OPS) as f64 / b.0).collect();
        let scatter_rows = (self.rows * BLOCK[2].1) as f64;
        let scatter_rates: Vec<f64> = blocks.iter().map(|b| scatter_rows / b.1).collect();
        let of = |class: Class| -> Vec<f64> {
            all.iter().filter(|(c, _)| *c == class).map(|(_, us)| *us).collect()
        };
        let predict =
            push_latency(&mut out, &of(Class::Predict), "predict_p50_us", "predict_p99_us");
        let point = push_latency(&mut out, &of(Class::Point), "sql_p50_us", "sql_p99_us");
        println!(
            "    closed loop ({CLIENTS} clients, blocks of 60/30/10 predict/point/scatter): {} blocks, \
             upper quartile {:.0} ops/s, median {:.0}; attempted {}, failed {}\n      predict: \
             {predict}\n      point SELECT: {point}\n      scatter aggregates over {} rows, by block: \
             upper quartile {:.0} rows/s, median {:.0}",
            block_rates.len(),
            stats::upper_quartile(&block_rates),
            stats::median(&block_rates),
            out.attempted,
            out.failed,
            self.rows,
            stats::upper_quartile(&scatter_rates),
            stats::median(&scatter_rates)
        );
        out.e2e.extend(block_rates.into_iter().map(|r| ("ops_per_s", r)));
        out.e2e.extend(scatter_rates.into_iter().map(|r| ("rows_per_s", r)));
        out.serve = Some(stats_delta(self.server.stats(), before));
        out
    }

    /// Point and aggregate answers against a single engine loaded with the
    /// same rows.
    fn verify(&mut self) -> bool {
        let oracle = Engine::new(EngineConfig::default());
        oracle.execute(&gen::facts_ddl("facts", 4)).expect("oracle ddl");
        let cols = gen::fact_columns(&mut Rng::new(self.seed, 1), 0, self.rows, 4, true);
        oracle.insert_columns("facts", cols).expect("oracle load");
        let mut statements: Vec<String> = THRESHOLDS.iter().map(|&x| scatter_sql(x)).collect();
        statements.extend(self.keys.iter().step_by(self.keys.len() / 64).map(|&k| point_sql(k)));
        let mut agree = 0;
        for sql in &statements {
            let got = self.server.submit_sql(sql).ok().and_then(|h| rows_of(h.wait()));
            let want = oracle.execute(sql).expect("oracle query");
            agree += usize::from(got.is_some_and(|g| same_rows(&g, &want)));
        }
        println!("    answers equal to the single-engine oracle: {agree} of {}", statements.len());
        agree == statements.len()
    }

    fn replay(&mut self) -> Vec<Replay> {
        let engine = &self.engine;
        let median_of = |f: &mut dyn FnMut(u64) -> f64| {
            stats::median(&(0..64).map(|i| f(2_000_000 + i)).collect::<Vec<_>>())
        };
        // Point SELECT through the facade, then its parts: the route
        // lookup and the same statement on the owning shard.
        let key = self.keys[0];
        let sql = point_sql(key);
        let owner = match engine.route(&sql).expect("route") {
            shard::Route::Single(i) => i,
            other => panic!("point SELECT routed as {other:?}"),
        };
        let root = median_of(&mut |id| {
            timed("shard.ShardedEngine.execute_cached", id, || engine.execute_cached(&sql)).1
        });
        let route =
            median_of(&mut |id| timed("shard.ShardedEngine.route", id, || engine.route(&sql)).1);
        let direct = median_of(&mut |id| {
            timed("sql.Engine.execute_cached", id, || engine.shard(owner).execute_cached(&sql)).1
        });
        // Scatter aggregate through the facade, then the same statement
        // on every shard in turn.
        let agg = scatter_sql(THRESHOLDS[0]);
        let scatter = median_of(&mut |id| {
            timed("shard.ShardedEngine.execute_cached", id, || engine.execute_cached(&agg)).1
        });
        let per_shard = median_of(&mut |id| {
            let _replay = trace::span("replay.scatter", id);
            (0..SHARDS)
                .map(|s| {
                    timed("sql.Engine.execute_cached", id, || engine.shard(s).execute_cached(&agg))
                        .1
                })
                .sum()
        });
        vec![
            Replay {
                op: "point SELECT via facade",
                root_us: root,
                children: vec![("route", route), ("owning shard", direct)],
            },
            Replay {
                op: "scatter aggregate via facade",
                root_us: scatter,
                children: vec![("per-shard execute, summed", per_shard)],
            },
        ]
    }
}
