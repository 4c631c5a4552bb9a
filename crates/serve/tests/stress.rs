//! Stress for leader/follower batching: four clients of two models submit
//! bursts, drop a share of their handles unwaited, and a shutdown races
//! the tail of their submissions, while a churn thread creates and drops
//! an unrelated table so the catalog epoch moves under the submits' lanes
//! and a SQL client runs a `PREDICT` statement through `submit_sql`, so
//! served SQL morsels share the pool and the model cache with the leaders.
//! Every waited answer must be bit-identical to one-row inference (int8
//! one-row inference on a `quantized_inference` engine), every served
//! statement equal to the same statement run directly, every admitted
//! request answered (`submitted == completed`), and nothing may hang (a
//! watchdog fails the round instead).
//!
//! The races only bite with real timings, so CI runs this in the release
//! build too: `cargo test --release -p serve`.

use model_repr::{load_into_engine, Layout};
use modeljoin::{build_parallel, BuiltModel};
use nn::paper;
use serve::{Response, ServeConfig, ServeError, Server};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tensor::{Device, Matrix};
use vector_engine::{Engine, EngineConfig};

const CLIENTS: usize = 4;
const REQUESTS: usize = 300;
const MODELS: [&str; 2] = ["a", "b"];

/// xorshift64: each client draws its own sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The served statement: model `a` over every row of `facts`.
const SQL: &str = "SELECT id, prediction FROM PREDICT(a, facts, c0, c1, c2, c3) ORDER BY id";

/// Register `name` and return its one-row oracle, int8 when the engine
/// serves the quantized model.
fn register(server: &Server, engine: &Engine, name: &str, seed: u64) -> BuiltModel {
    let model = paper::dense_model(8, 3, seed);
    let table_name = format!("{name}_model");
    let (table, meta) = load_into_engine(engine, &table_name, &model, Layout::NodeId).unwrap();
    server.register_model(name, &table_name, meta.clone(), Layout::NodeId, Device::cpu());
    let vector = engine.config().vector_size;
    let built = build_parallel(&table, &meta, Layout::NodeId, &Device::cpu(), vector, 2).unwrap();
    if engine.config().quantized_inference {
        built.quantize()
    } else {
        built
    }
}

/// One round: returns how many answers the clients waited for.
fn round(seed: u64, quantized: bool) -> usize {
    let engine = Arc::new(Engine::new(EngineConfig {
        vector_size: 8,
        partitions: 2,
        parallelism: 2,
        quantized_inference: quantized,
        ..Default::default()
    }));
    let server =
        Server::start(Arc::clone(&engine), ServeConfig { queue_depth: 4096, max_batch_rows: 8 });
    let oracles = [register(&server, &engine, "a", 42), register(&server, &engine, "b", 43)];
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    let rows: Vec<String> = (0..20)
        .map(|i| {
            format!("({i}, {}, {}, {}, {})", i as f32 * 0.1 - 1.0, 0.5, -0.25, i as f32 * 0.05)
        })
        .collect();
    engine.execute(&format!("INSERT INTO facts VALUES {}", rows.join(", "))).unwrap();
    let expected = engine.execute(SQL).unwrap().rows();
    let (submitted, churning) = (AtomicUsize::new(0), AtomicBool::new(true));
    let sql_admitted = AtomicUsize::new(0);
    let waited = std::thread::scope(|scope| {
        let churn = scope.spawn(|| loop {
            engine.execute("CREATE TABLE churn (id INT)").unwrap();
            engine.execute("DROP TABLE churn").unwrap();
            if !churning.load(Ordering::Relaxed) {
                break;
            }
        });
        let sql_client = scope.spawn(|| loop {
            match server.submit_sql(SQL) {
                Ok(h) => {
                    sql_admitted.fetch_add(1, Ordering::Relaxed);
                    let Ok(Response::Rows(got)) = h.wait() else {
                        panic!("an admitted statement failed")
                    };
                    assert_eq!(got.rows(), expected, "served SQL differs from a direct run");
                }
                Err(ServeError::ShuttingDown) => break,
                Err(e) => panic!("SQL submit failed: {e}"),
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (server, oracles, submitted) = (&server, &oracles, &submitted);
                scope.spawn(move || {
                    let mut rng = Rng(seed * 1_000 + c as u64 + 1);
                    let mut waited = 0;
                    'client: while submitted.load(Ordering::Relaxed) < CLIENTS * REQUESTS {
                        let burst = 1 + rng.below(4);
                        let mut handles = Vec::new();
                        for _ in 0..burst {
                            let m = rng.below(2) as usize;
                            let x: Vec<f32> =
                                (0..4).map(|_| rng.below(2001) as f32 / 1000.0 - 1.0).collect();
                            match server.submit_predict(MODELS[m], x.clone()) {
                                Ok(h) => handles.push((m, x, h)),
                                Err(ServeError::ShuttingDown) => break 'client,
                                Err(e) => panic!("client {c}: submit failed: {e}"),
                            }
                            submitted.fetch_add(1, Ordering::Relaxed);
                        }
                        for (m, x, h) in handles {
                            // A fifth of the handles are dropped unwaited.
                            if rng.below(5) == 0 {
                                continue;
                            }
                            let Ok(Response::Prediction(served)) = h.wait() else {
                                panic!("client {c}: an admitted predict failed")
                            };
                            let one = Matrix::from_vec(1, x.len(), x);
                            let oracle = oracles[m].infer(&one, &Device::cpu());
                            let bits =
                                |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&served), bits(oracle.row(0)), "client {c}, model {m}");
                            waited += 1;
                        }
                    }
                    waited
                })
            })
            .collect();
        // Shut down while the clients are still submitting, once a
        // statement is in.
        while submitted.load(Ordering::Relaxed) < CLIENTS * REQUESTS * 3 / 4
            || sql_admitted.load(Ordering::Relaxed) == 0
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        server.shutdown();
        let waited = clients.into_iter().map(|c| c.join().expect("client panicked")).sum();
        sql_client.join().expect("SQL client panicked");
        churning.store(false, Ordering::Relaxed);
        churn.join().expect("churn panicked");
        waited
    });
    let stats = server.stats();
    let statements = sql_admitted.load(Ordering::Relaxed) as u64;
    assert!(statements > 0, "no statement was served");
    assert_eq!(stats.submitted, stats.completed, "an admitted request went unanswered: {stats:?}");
    assert_eq!(
        stats.batched_rows + statements,
        stats.completed,
        "every predict rode a batch: {stats:?}"
    );
    waited
}

/// Run `round` under a watchdog for each seed.
fn rounds(seeds: std::ops::RangeInclusive<u64>, quantized: bool) {
    for seed in seeds {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(round(seed, quantized)));
        let waited = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("round {seed} hung or panicked: {e}"));
        assert!(waited > 0, "round {seed} waited for no answer");
    }
}

#[test]
fn concurrent_clients_dropped_handles_and_a_racing_shutdown() {
    rounds(1..=10, false);
}

/// The same races on an engine that serves the int8 model.
#[test]
fn quantized_clients_match_int8_one_row_inference() {
    rounds(1..=3, true);
}
