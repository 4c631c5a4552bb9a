//! `serve_point`: an application calling `serve::Server` for one-row
//! predictions. Time goes to the serve queue and micro-batcher, `sched`
//! Serve tasks, the model cache and small-shape GEMM (m ≤ 64) — the
//! workload where a kernel tuned on 1024×512×512 costs. Phase A is a
//! closed loop (throughput); phase B is an open loop at fixed rates
//! (latency, and the highest rate that meets the limit), because at
//! saturation a closed loop's latency is only window ÷ throughput.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use model_repr::{load_into_engine, Layout};
use modeljoin::{build_parallel, BuiltModel};
use serve::{RequestHandle, Response, ServeConfig, ServeStats, Server};
use tensor::{Device, Matrix};
use vector_engine::{Engine, EngineConfig};

use super::{push_latency, timed, Leg, LegOut, Replay};
use crate::gen::{self, Rng};
use crate::load::open_loop;
use crate::spec::{LATENCY_LIMIT_US, OPEN_LOOP_RATES, REPORTED_RATE};
use crate::stats;
use crate::trace;

pub const WIDTH: usize = 64;
pub const DEPTH: usize = 4;
pub const POOL: usize = 4_096;
/// Closed-loop clients and the requests each keeps outstanding.
pub const CLIENTS: usize = 2;
pub const OUTSTANDING: usize = 256;
const MODEL: &str = "dense";

pub struct ServeLeg {
    server: Server,
    /// The unbatched oracle: the same model built directly.
    built: BuiltModel,
    pool: Vec<Vec<f32>>,
    seed: u64,
    passes: u64,
}

/// A one-value finite prediction is the only acceptable answer.
pub fn good_prediction(r: Result<Response, serve::ServeError>) -> Option<f32> {
    match r {
        Ok(Response::Prediction(v)) if v.len() == 1 && v[0].is_finite() => Some(v[0]),
        _ => None,
    }
}

pub fn stats_delta(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        rejected: after.rejected - before.rejected,
        timeouts: after.timeouts - before.timeouts,
        batches: after.batches - before.batches,
        batched_rows: after.batched_rows - before.batched_rows,
    }
}

/// Length of a closed-loop slice: the loop's rate is read this often, and
/// the run reports the upper quartile of its slices.
const SLICE: Duration = Duration::from_millis(50);

/// Closed loop: `CLIENTS` threads, each submitting `OUTSTANDING` requests
/// and waiting for all of them before the next round. The calling thread
/// reads the count of good answers every [`SLICE`]. Returns attempted,
/// failed, and the good answers per second of every slice.
pub fn closed_loop(
    seconds: f64,
    seed: u64,
    pool: &[Vec<f32>],
    submit: &(impl Fn(Vec<f32>) -> Option<RequestHandle> + Sync),
) -> (u64, u64, Vec<f64>) {
    let start = Instant::now();
    let good = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (good, stop) = (&good, &stop);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    let (mut attempted, mut failed, mut unpublished) = (0u64, 0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let handles: Vec<_> = (0..OUTSTANDING)
                            .map(|_| submit(pool[rng.below(pool.len())].clone()))
                            .collect();
                        for h in handles {
                            attempted += 1;
                            let ok = h.and_then(|h| good_prediction(h.wait())).is_some();
                            failed += u64::from(!ok);
                            unpublished += u64::from(ok);
                            // Published in steps of 32: a shared counter
                            // bumped per request would be part of what is
                            // measured.
                            if unpublished == 32 {
                                good.fetch_add(unpublished, Ordering::Relaxed);
                                unpublished = 0;
                            }
                        }
                    }
                    (attempted, failed)
                })
            })
            .collect();
        let mut rates = Vec::new();
        let (mut t0, mut n0) = (Instant::now(), good.load(Ordering::Relaxed));
        while start.elapsed().as_secs_f64() < seconds {
            std::thread::sleep(SLICE);
            let (t1, n1) = (Instant::now(), good.load(Ordering::Relaxed));
            rates.push((n1 - n0) as f64 / (t1 - t0).as_secs_f64());
            (t0, n0) = (t1, n1);
        }
        stop.store(true, Ordering::Relaxed);
        let (attempted, failed) = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .fold((0, 0), |sum, c| (sum.0 + c.0, sum.1 + c.1));
        (attempted, failed, rates)
    })
}

pub fn boxed(seed: u64, _dir: &Path) -> Box<dyn Leg> {
    Box::new(ServeLeg::setup(seed))
}

impl ServeLeg {
    pub fn setup(seed: u64) -> Self {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let model = nn::paper::dense_model(WIDTH, DEPTH, seed);
        let (table, meta) =
            load_into_engine(&engine, "model", &model, Layout::NodeId).expect("model load");
        let vector = engine.config().vector_size;
        let built = build_parallel(&table, &meta, Layout::NodeId, &Device::cpu(), vector, 1)
            .expect("oracle build");
        let server = Server::start(Arc::clone(&engine), ServeConfig::from_engine(engine.config()));
        server.register_model(MODEL, "model", meta, Layout::NodeId, Device::cpu());
        let pool = gen::input_pool(&mut Rng::new(seed, 2), POOL);
        ServeLeg { server, built, pool, seed, passes: 0 }
    }

    /// Unbatched inference of one input, straight on the built model.
    fn direct(&self, input: &[f32]) -> f32 {
        let x = Matrix::from_vec(1, input.len(), input.to_vec());
        self.built.infer(&x, &Device::cpu()).get(0, 0)
    }
}

impl Leg for ServeLeg {
    fn name(&self) -> &'static str {
        "serve_point"
    }

    fn warm_and_check(&mut self) -> bool {
        let submit = |x: Vec<f32>| self.server.submit_predict(MODEL, x).ok();
        closed_loop(1.0, self.seed, &self.pool, &submit);
        // Alone in the server a request meets the same kernel as direct
        // inference, so 256 sequential responses must match bit for bit.
        let alone = self.pool[..256]
            .iter()
            .filter(|x| {
                let served = submit((*x).clone()).and_then(|h| good_prediction(h.wait()));
                served.map(f32::to_bits) == Some(self.direct(x).to_bits())
            })
            .count();
        // Coalesced with others (32 in flight) a request may ride a batch
        // large enough for the blocked kernel, whose fused multiply-adds
        // round differently: 1,024 responses must agree within 1e-5, and
        // the bit-identical share is reported.
        let (mut identical, mut worst) = (0, 0f32);
        for chunk in self.pool[..1_024].chunks(32) {
            let handles: Vec<_> = chunk.iter().map(|x| submit(x.clone())).collect();
            for (x, h) in chunk.iter().zip(handles) {
                let served = h.and_then(|h| good_prediction(h.wait())).unwrap_or(f32::NAN);
                let direct = self.direct(x);
                identical += usize::from(served.to_bits() == direct.to_bits());
                worst = worst.max((served - direct).abs());
                if served.is_nan() {
                    worst = f32::INFINITY;
                }
            }
        }
        println!(
            "    against unbatched inference: {alone} of 256 sequential responses bit-identical; \
             of 1024 coalesced responses {identical} bit-identical, max |difference| {worst:e}"
        );
        alone == 256 && worst <= 1e-5
    }

    fn window(&mut self, seconds: f64) -> LegOut {
        self.passes += 1;
        let before = self.server.stats();
        let mut out = LegOut::new();
        // Two fifths of the window for the closed loop. Of the open loop,
        // the bracketing rates only have to pass or fail and get 6.8 % of
        // the window each (1,000 requests at the lowest); the rate whose
        // latency is reported gets the rest.
        let closed_s = seconds * 0.40;
        let bracket_s = seconds * 0.068;
        let reported_s = seconds * 0.60 - bracket_s * (OPEN_LOOP_RATES.len() - 1) as f64;
        let (server, pool) = (&self.server, &self.pool);

        // Phase A: closed loop.
        let submit = |x: Vec<f32>| {
            trace::within("serve.Server.submit_predict", 0, || server.submit_predict(MODEL, x).ok())
        };
        let (attempted, failed, rates) =
            closed_loop(closed_s, self.seed + self.passes, pool, &submit);
        println!(
            "    phase A closed loop ({CLIENTS} clients x {OUTSTANDING} outstanding, {closed_s:.2} s): \
             {} slices, upper quartile {:.0} ops/s, median {:.0}; attempted {attempted}, failed {failed}",
            rates.len(),
            stats::upper_quartile(&rates),
            stats::median(&rates)
        );
        out.attempted += attempted;
        out.failed += failed;
        out.ops += attempted - failed;
        for rate in rates {
            out.e2e.push(("ops_per_s", rate));
            // One fact tuple goes through the model per operation.
            out.e2e.push(("rows_per_s", rate));
        }

        // Phase B: open loop at the frozen rates.
        let mut at_limit = 0.0;
        for (r, &rate) in OPEN_LOOP_RATES.iter().enumerate() {
            let mut rng = Rng::new(self.seed + self.passes, 200 + r as u64);
            let phase_s = if rate == REPORTED_RATE { reported_s } else { bracket_s };
            let run = open_loop(
                rate,
                phase_s,
                |i| {
                    let x = pool[rng.below(pool.len())].clone();
                    timed("serve.Server.submit_predict", i, || server.submit_predict(MODEL, x).ok())
                        .0
                },
                |h: RequestHandle| good_prediction(h.wait()).is_some(),
            );
            // The rates above the reported one exist to find where the
            // limit breaks; what they refuse is printed, not counted
            // against the run.
            if rate <= REPORTED_RATE {
                out.attempted += run.attempted;
                out.failed += run.failed;
            }
            out.ops += run.samples.len() as u64;
            let late = stats::quantile(&stats::sort(run.lateness_us.clone()), 0.99);
            // A growing backlog shows in the last fifth of the phase: its
            // median no longer meets the limit.
            let last_fifth = &run.samples[run.samples.len() * 4 / 5..];
            let backlog = last_fifth.is_empty() || stats::median(last_fifth) > LATENCY_LIMIT_US;
            let mut phase = LegOut::new();
            let text = push_latency(&mut phase, &run.samples, "predict_p50_us", "predict_p99_us");
            // A failed or refused request misses the limit whatever the
            // tail of the others.
            let tail = phase.e2e.last().map_or(f64::INFINITY, |m| m.1);
            let pass = run.failed == 0 && tail <= LATENCY_LIMIT_US && !backlog;
            println!(
                "    phase B open loop at {rate:.0} req/s ({phase_s:.2} s): {text}; attempted {}, \
                 failed {}, generator lateness p99 {late:.1} us; limit {}",
                run.attempted,
                run.failed,
                if pass { "met" } else { "MISSED" }
            );
            if rate == REPORTED_RATE {
                out.correct &= phase.correct;
                out.e2e.append(&mut phase.e2e);
            }
            if pass {
                at_limit = rate;
            }
        }
        if at_limit == 0.0 {
            println!("    no rate met the limit in this window");
        }
        out.e2e.push(("rate_at_limit_rps", at_limit));
        out.result_rows = out.ops;
        out.serve = Some(stats_delta(self.server.stats(), before));
        out
    }

    fn replay(&mut self) -> Vec<Replay> {
        // Sequential requests: nothing to coalesce with, so the root is
        // the bare round trip through queue, batcher and scheduler.
        let (mut root, mut submit, mut infer) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..256u64 {
            let x = self.pool[i as usize].clone();
            let id = 1_000_000 + i;
            let t = Instant::now();
            let _root = trace::span("serve.predict_round_trip", id);
            let (h, submit_us) = timed("serve.Server.submit_predict", id, || {
                self.server.submit_predict(MODEL, x.clone()).expect("submit")
            });
            trace::within("serve.RequestHandle.wait", id, || h.wait().expect("predict"));
            root.push(t.elapsed().as_secs_f64() * 1e6);
            drop(_root);
            submit.push(submit_us);
            let _replay = trace::span("replay.predict", id);
            infer.push(timed("modeljoin.BuiltModel.infer", id, || self.direct(&x)).1);
        }
        vec![Replay {
            op: "submit_predict + wait",
            root_us: stats::median(&root),
            children: vec![("submit", stats::median(&submit)), ("infer", stats::median(&infer))],
        }]
    }
}
