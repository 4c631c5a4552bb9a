//! The per-layer ledger. Counts come from `obs::snapshot()` deltas across
//! the traced phase; times come from probes that call one layer's public
//! functions directly, on small fixtures of their own, the same in every
//! workload's traced run. Every number here is taken from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use modeljoin::InferScratch;
use obs::MetricsSnapshot;
use sched::TaskClass;
use storage::pool::BufferPool;
use storage::wal::Wal;
use tensor::blas::{gemm_flops, sgemm, Transpose};
use tensor::{qgemm_dense, Activation, Device, Matrix, QuantScratch, QuantizedWeights};

use crate::gen::{self, Rng};
use crate::stats;
use crate::workloads::ml2sql_batch::{statement, Ml2sqlLeg};
use crate::workloads::modeljoin_batch::{drain_scan, ModelJoinLeg, INPUTS};
use crate::workloads::persist_rw::{PersistLeg, FLOAT_COLS, INSERT_ROWS};
use crate::workloads::serve_point::ServeLeg;
use crate::workloads::shard_mixed::{point_sql, ShardLeg};
use crate::workloads::{Ctx, Leg, LegOut};

pub type Ledger = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer counts over the traced phase, per operation or as hit shares.
/// A layer the workload never enters reads 0, which is the point: e.g.
/// `tensor.gemm_calls_per_op` must be exactly 0 on `ml2sql_batch`.
pub fn from_counters(before: &MetricsSnapshot, after: &MetricsSnapshot, out: &LegOut) -> Ledger {
    let d = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let ops = out.ops.max(1) as f64;
    let rows = out.result_rows.max(1) as f64;
    let user_bytes = out.inserted_bytes as f64;
    let serve = out.serve.unwrap_or_default();
    let batch_rows = ratio(serve.batched_rows as f64, serve.batches as f64);
    let hits = |hit: &[&str], miss: &[&str]| {
        let h: f64 = hit.iter().map(|n| d(n)).sum();
        let m: f64 = miss.iter().map(|n| d(n)).sum();
        ratio(h, h + m)
    };
    let page_bytes = storage::page::PAGE_SIZE as f64;
    Ledger::from([
        ("tensor.gemm_calls_per_op", (d("tensor.gemm.calls") + d("tensor.gemm.i8.calls")) / ops),
        ("tensor.gemm_flops_per_op", (d("tensor.gemm.flops") + d("tensor.gemm.i8.flops")) / ops),
        (
            "modeljoin.cache_hit_share",
            hits(
                &["modeljoin.cache.hits", "modeljoin.cache.hits_i8"],
                &["modeljoin.cache.misses", "modeljoin.cache.misses_i8"],
            ),
        ),
        ("sql.plan_cache_hit_share", hits(&["exec.plan_cache.hits"], &["exec.plan_cache.misses"])),
        ("exec.join_rows_per_result", d("exec.join.rows") / rows),
        ("exec.agg_rows_per_result", d("exec.agg.rows") / rows),
        (
            "sched.tasks_per_op",
            (d("sched.tasks.serve") + d("sched.tasks.query") + d("sched.tasks.kernel")) / ops,
        ),
        ("sched.steals_per_op", d("sched.steals") / ops),
        ("sched.parks_per_op", d("sched.parks") / ops),
        ("serve.batch_rows_mean", batch_rows),
        (
            "serve.flush_deadline_share",
            ratio(d("serve.flush.deadline_fires"), serve.batches as f64),
        ),
        ("serve.rejected", d("serve.rejected")),
        ("serve.timeouts", d("serve.timeouts")),
        ("shard.route_mix.single", d("shard.queries.single")),
        ("shard.route_mix.scatter", d("shard.queries.scatter")),
        ("shard.route_mix.partial_agg", d("shard.queries.partial_agg")),
        ("shard.route_mix.shuffle", d("shard.queries.shuffle")),
        ("shard.predict_batch_rows_mean", if out.sharded { batch_rows } else { 0.0 }),
        ("storage.pool_hit_share", hits(&["storage.pool.hits"], &["storage.pool.misses"])),
        ("storage.pool_evictions", d("storage.pool.evictions")),
        ("storage.bypass_reads", d("storage.pool.bypass_reads")),
        ("storage.wal_bytes_per_user_byte", ratio(d("storage.wal.bytes"), user_bytes)),
        ("storage.fsyncs_per_insert", ratio(d("storage.wal.fsyncs"), out.inserts as f64)),
        (
            "storage.pages_written_per_user_byte",
            ratio(d("storage.pages.written") * page_bytes, user_bytes),
        ),
    ])
}

/// Median µs of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

fn matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.unit() as f32 - 0.5)
}

fn tensor(ledger: &mut Ledger, seed: u64) {
    // As `execute_model_join` sets them: kernels may fan out over the
    // shared scheduler, up to the machine's parallelism.
    tensor::set_unified_scheduler(true);
    tensor::set_kernel_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut rng = Rng::new(seed, 20);
    for (m, k, n, reps, sgemm_name, qgemm_name) in [
        (1024, 512, 512, 15, "tensor.sgemm_us.1024x512x512", "tensor.qgemm_us.1024x512x512"),
        (32, 64, 64, 2_000, "tensor.sgemm_us.32x64x64", "tensor.qgemm_us.32x64x64"),
    ] {
        let (a, b) = (matrix(m, k, &mut rng), matrix(k, n, &mut rng));
        let mut c = Matrix::zeros(m, n);
        let us = median_us(reps, || {
            sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
            std::hint::black_box(&c);
        });
        ledger.insert(sgemm_name, us);
        if m == 1024 {
            ledger
                .insert("tensor.sgemm_gflops.1024x512x512", gemm_flops(m, k, n) as f64 / us / 1e3);
        }
        let w = QuantizedWeights::quantize(&b);
        let mut scratch = QuantScratch::default();
        let us = median_us(reps, || {
            qgemm_dense(&a, &w, None, Activation::Linear, false, &mut c, &mut scratch);
            std::hint::black_box(&c);
        });
        ledger.insert(qgemm_name, us);
    }
}

fn modeljoin_and_scan(ledger: &mut Ledger, ctx: &Ctx) {
    let mut leg = ModelJoinLeg::setup(ctx.seed, 8_192);
    ledger.insert(
        "modeljoin.build_us",
        median_us(5, || {
            std::hint::black_box(leg.shared().get().expect("cold build"));
        }),
    );
    let built = leg.shared().get().expect("build");
    let vector = leg.engine.config().vector_size;
    let packed = matrix(vector, INPUTS.len(), &mut Rng::new(ctx.seed, 21));
    let mut scratch = InferScratch::default();
    ledger.insert(
        "modeljoin.infer_us_per_batch",
        median_us(15, || {
            std::hint::black_box(built.infer_into(&packed, &Device::cpu(), &mut scratch));
        }),
    );
    let shares: Vec<f64> = (0..3).map(|_| leg.replay()[0].residual_share()).collect();
    ledger.insert("modeljoin.op_residual_share", stats::median(&shares));
    let rows = drain_scan(&leg.engine, "facts");
    let us = median_us(200, || {
        std::hint::black_box(drain_scan(&leg.engine, "facts"));
    });
    ledger.insert("exec.scan_rows_per_s.mem", rows as f64 / (us / 1e6));
}

fn ml2sql_and_plans(ledger: &mut Ledger, ctx: &Ctx) {
    let leg = Ml2sqlLeg::setup(ctx.seed);
    ledger.insert(
        "ml2sql.generate_us",
        median_us(50, || {
            std::hint::black_box(statement(&leg.meta, "facts"));
        }),
    );
    ledger.insert("ml2sql.sql_bytes", leg.sql.len() as f64);
    ledger.insert(
        "sql.plan_us.ml2sql",
        median_us(20, || {
            std::hint::black_box(leg.engine.plan(&leg.sql).expect("plan"));
        }),
    );
    let point = point_sql(17);
    ledger.insert(
        "sql.plan_us.point",
        median_us(200, || {
            std::hint::black_box(leg.engine.plan(&point).expect("plan"));
        }),
    );
    let plan = leg.engine.plan(&leg.sql).expect("plan");
    ledger.insert(
        "exec.query_us.ml2sql",
        median_us(3, || {
            std::hint::black_box(leg.engine.execute_plan(&plan).expect("execute plan"));
        }),
    );
}

fn scheduler(ledger: &mut Ledger) {
    let pool = sched::global();
    let fork_join = median_us(200, || {
        let tasks: Vec<Box<dyn FnOnce() + Send>> =
            (0..64).map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>).collect();
        pool.run_scoped(TaskClass::Query, tasks);
    });
    ledger.insert("sched.fork_join_us_per_task", fork_join / 64.0);

    // An empty Serve task: the time from `spawn` to its first instruction.
    let spawn_to_run = |gap: Duration| {
        let times: Vec<f64> = (0..200)
            .map(|_| {
                std::thread::sleep(gap);
                let (tx, rx) = mpsc::channel();
                let t = Instant::now();
                pool.spawn(TaskClass::Serve, move || {
                    let _ = tx.send(t.elapsed());
                });
                rx.recv().expect("serve task ran").as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&times)
    };
    // Idle: the gap lets every worker park between spawns.
    ledger.insert("sched.spawn_to_run_us.idle", spawn_to_run(Duration::from_micros(300)));
    // Busy: a Query scope of 200 µs morsels keeps every worker occupied.
    let (stop, running) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
                    .map(|_| {
                        Box::new(|| {
                            running.store(true, Ordering::Relaxed);
                            let t = Instant::now();
                            while t.elapsed() < Duration::from_micros(200) {
                                std::hint::spin_loop();
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run_scoped(TaskClass::Query, tasks);
            }
        });
        while !running.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        ledger.insert("sched.spawn_to_run_us.busy", spawn_to_run(Duration::from_micros(300)));
        stop.store(true, Ordering::Relaxed);
    });
}

fn serving(ledger: &mut Ledger, ctx: &Ctx) {
    let mut leg = ServeLeg::setup(ctx.seed);
    let replay = leg.replay().remove(0);
    let (submit, infer) = (replay.children[0].1, replay.children[1].1);
    ledger.insert("serve.submit_us", submit);
    // A sequential round trip minus the same inference done directly:
    // queue, batcher, scheduler hand-off and wake-up.
    ledger.insert("serve.overhead_us", replay.root_us - infer);
}

fn sharding(ledger: &mut Ledger, ctx: &Ctx) {
    let mut leg = ShardLeg::setup(ctx.seed, 16_384);
    let engine = leg.engine();
    let texts: Vec<String> = (0..256).map(|k| point_sql(1_000 + k)).collect();
    let mut next = texts.iter();
    ledger.insert(
        "shard.route_us.cold",
        median_us(texts.len(), || {
            std::hint::black_box(engine.route(next.next().expect("a fresh text")).expect("route"));
        }),
    );
    ledger.insert(
        "shard.route_us.warm",
        median_us(2_000, || {
            std::hint::black_box(engine.route(&texts[0]).expect("route"));
        }),
    );
    let replays = leg.replay();
    let kids = |i: usize| replays[i].children.iter().map(|c| c.1).sum::<f64>();
    // Facade ÷ the owning shard called directly (≥ 1; the excess is the
    // facade), and facade ÷ the shards called one after another (< 1
    // where the scatter overlaps them).
    ledger.insert("shard.facade_overhead_share", replays[0].root_us / replays[0].children[1].1);
    ledger.insert("shard.scatter_overhead_share", replays[1].root_us / kids(1));
}

fn storage_engine(ledger: &mut Ledger, ctx: &Ctx) {
    let dir = ctx.scratch.join("probe-persist");
    let mut leg = PersistLeg::setup(ctx.seed, 32_768, 40, &dir);
    let rows = drain_scan(leg.engine(), "facts");
    let us = median_us(5, || {
        std::hint::black_box(drain_scan(leg.engine(), "facts"));
    });
    ledger.insert("exec.scan_rows_per_s.paged", rows as f64 / (us / 1e6));

    let checkpoints: Vec<f64> = (0..3)
        .map(|_| {
            for _ in 0..64 {
                leg.insert(0);
            }
            leg.checkpoint(0) / 1e6
        })
        .collect();
    ledger.insert("storage.checkpoint_s", stats::median(&checkpoints));

    let (recoveries, replayed, _) = leg.crash_recovery();
    ledger.insert("storage.recovery_records_per_s", replayed as f64 / stats::median(&recoveries));

    // The slowest insert that overlaps a checkpoint: one thread inserts
    // without pause while this one checkpoints.
    let engine = leg.engine();
    let stop = AtomicBool::new(false);
    let stall = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut rng = Rng::new(ctx.seed, 22);
            let mut spans = Vec::new();
            let mut id = 1i64 << 40;
            while !stop.load(Ordering::Relaxed) {
                let cols = gen::fact_columns(&mut rng, id, INSERT_ROWS, FLOAT_COLS, false);
                let t = Instant::now();
                engine.insert_columns("facts", cols).expect("insert beside a checkpoint");
                spans.push((t, Instant::now()));
                id += INSERT_ROWS as i64;
            }
            spans
        });
        let mut windows = Vec::new();
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(30));
            let t = Instant::now();
            engine.checkpoint().expect("checkpoint beside inserts");
            windows.push((t, Instant::now()));
        }
        stop.store(true, Ordering::Relaxed);
        let spans = writer.join().expect("writer thread panicked");
        spans
            .iter()
            .filter(|(s, e)| windows.iter().any(|(cs, ce)| s < ce && e > cs))
            .map(|(s, e)| (*e - *s).as_secs_f64() * 1e6)
            .fold(0.0, f64::max)
    });
    ledger.insert("storage.checkpoint_stall_us", stall);
}

fn storage_files(ledger: &mut Ledger, dir: &Path, seed: u64) -> Result<(), String> {
    let err = |e: storage::StorageError| format!("storage probe: {e}");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (pages, frames) = (256u64, 64usize);
    let path = dir.join("probe-pages.idb");
    let _ = std::fs::remove_file(&path);
    {
        let pool = BufferPool::open(&path, frames).map_err(err)?;
        let payload = vec![0xa5u8; 8 * 1024];
        for p in 0..pages {
            pool.write_page(p, &payload).map_err(err)?;
        }
        pool.flush_all().map_err(err)?;
    }
    // A fresh pool is cold: walking four times its capacity misses every
    // time; re-reading a handful of resident pages hits every time.
    let pool = BufferPool::open(&path, frames).map_err(err)?;
    let mut page = 0u64;
    let miss = median_us(pages as usize * 2, || {
        std::hint::black_box(pool.fetch(page % pages).expect("fetch miss"));
        page += 1;
    });
    let mut rng = Rng::new(seed, 23);
    let resident: Vec<u64> = (0..16).map(|i| (page - 1 - i) % pages).collect();
    let hit = median_us(64, || {
        for _ in 0..64 {
            std::hint::black_box(pool.fetch(resident[rng.below(resident.len())]).expect("hit"));
        }
    }) / 64.0;
    ledger.insert("storage.fetch_miss_us", miss);
    ledger.insert("storage.fetch_hit_us", hit);
    drop(pool);
    let _ = std::fs::remove_file(&path);

    let wal_path = dir.join("probe-wal.log");
    let _ = std::fs::remove_file(&wal_path);
    let (wal, _) = Wal::open(&wal_path, true, 0).map_err(err)?;
    let payload = vec![0x5au8; INSERT_ROWS * 8 * (1 + FLOAT_COLS)];
    let (mut append, mut commit) = (Vec::new(), Vec::new());
    for _ in 0..128 {
        let t = Instant::now();
        let (_, end) = wal.append(1, &payload).map_err(err)?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        wal.commit(end).map_err(err)?;
        commit.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ledger.insert("storage.wal_append_us", stats::median(&append));
    ledger.insert("storage.wal_commit_us", stats::median(&commit));
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);
    Ok(())
}

/// Run every layer probe. The fixtures are small ones of the probes' own,
/// the same in every workload's traced run, so a probe's number is
/// comparable across runs whatever workload ran before it.
pub fn run(ctx: &Ctx) -> Result<Ledger, String> {
    let t = Instant::now();
    let mut ledger = Ledger::new();
    tensor(&mut ledger, ctx.seed);
    modeljoin_and_scan(&mut ledger, ctx);
    ml2sql_and_plans(&mut ledger, ctx);
    scheduler(&mut ledger);
    serving(&mut ledger, ctx);
    sharding(&mut ledger, ctx);
    storage_engine(&mut ledger, ctx);
    storage_files(&mut ledger, &ctx.scratch, ctx.seed)?;
    println!("  layer probes: {} values in {:.1} s", ledger.len(), t.elapsed().as_secs_f64());
    Ok(ledger)
}
