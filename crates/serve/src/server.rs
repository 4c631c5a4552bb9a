//! The inference server.
//!
//! A [`Server`] owns an `Arc<Engine>`, one bounded request queue and **one
//! coordinator thread**; all compute runs on the process-wide pool in
//! `crates/sched`. Callers submit work with [`Server::submit_predict`] /
//! [`Server::submit_sql`] and get back a [`RequestHandle`] — a future-like
//! completion slot they can block on.
//!
//! The coordinator runs the dynamic micro-batcher: it drains the admission
//! queue and coalesces predict requests **per model** (every model
//! accumulates its own batch at once) until a batch reaches
//! `max_batch_rows` or its flush deadline (`batch_flush_us`) passes, then
//! submits it as a high-priority Serve-class task — so inference shares
//! workers with, and preempts, queued scan morsels. The task runs one
//! vectorized inference over the coalesced `rows x input_dim` matrix and
//! distributes the output rows back to the per-request slots.
//!
//! The server holds no models of its own. [`Server::register_model`] is the
//! engine catalog's `PREDICT` registration ([`modeljoin::register_model`]),
//! and a batch runs the model the catalog binds for its name
//! ([`InferModel::infer_rows`]), so SQL and served predicts share one
//! build per model table and dtype. SQL requests never enter the admission
//! queue: each goes straight to the scheduler as a Query-class task that
//! runs it through the engine's plan cache ([`Engine::execute_cached`]).
//!
//! Admission control rejects with [`ServeError::Overloaded`] at submission
//! (never blocking the client and never dropping silently): a predict when
//! `queue_depth` predicts wait in the queue, a SQL statement when
//! `queue_depth` tasks are in flight. Per-request deadlines are enforced
//! both at submission and at execution, and shutdown drains gracefully. An
//! in-flight count tracks submitted tasks; [`Server::shutdown`] first
//! joins the coordinator (which flushes every pending batch) and then
//! waits for the scheduler to finish all of them, so no batch is abandoned
//! mid-pool; anything still queued afterwards (possible only with zero
//! workers) completes with [`ServeError::ShuttingDown`]. Inference panics
//! are caught per batch (`serve.panics_caught`), and a scheduler-side
//! backstop completes a batch's slots with [`ServeError::Internal`] if
//! anything else in the task unwinds.

use crate::config::ServeConfig;
use crate::error::ServeError;
use model_repr::{Layout, ModelMeta};
use modeljoin::ModelCache;
use obs::metrics as om;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::Device;
use vector_engine::plan::InferModel;
use vector_engine::{Engine, QueryResult};

/// Lock a mutex, recovering from poisoning instead of cascading the
/// failure. Every mutex in this module protects state that is valid at
/// each point a panic can unwind through it (queue, in-flight count,
/// completion slots — all updated atomically under the guard), so after a
/// caught inference panic the data is safe to keep using. Each recovery is
/// counted under `serve.locks_recovered`.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| {
        om::SERVE_LOCKS_RECOVERED.add(1);
        e.into_inner()
    })
}

/// `Condvar::wait` with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| {
        om::SERVE_LOCKS_RECOVERED.add(1);
        e.into_inner()
    })
}

/// `Condvar::wait_timeout` with the same poison recovery.
fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(e) => {
            om::SERVE_LOCKS_RECOVERED.add(1);
            e.into_inner().0
        }
    }
}

/// A completed request's payload.
#[derive(Clone, Debug)]
pub enum Response {
    /// One output row of the model (width = the model's output dimension).
    Prediction(Vec<f32>),
    /// Result of a SQL request.
    Rows(QueryResult),
}

/// One-shot completion slot shared by the queued predict (or the SQL
/// task) and the client's [`RequestHandle`].
struct Slot {
    done: Mutex<Option<Result<Response, ServeError>>>,
    cv: Condvar,
    /// When the request entered the server; completion records the
    /// submit-to-completion latency under `serve.request.e2e_us`.
    submitted: Instant,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { done: Mutex::new(None), cv: Condvar::new(), submitted: Instant::now() })
    }

    fn complete(&self, result: Result<Response, ServeError>) {
        let mut guard = lock_recover(&self.done);
        if guard.is_none() {
            *guard = Some(result);
            om::SERVE_E2E_US.record_duration(self.submitted.elapsed());
        }
        self.cv.notify_all();
    }
}

/// The client side of a submitted request. Block on [`RequestHandle::wait`]
/// to retrieve the response (or the explicit serving error).
pub struct RequestHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = lock_recover(&self.slot.done).is_some();
        f.debug_struct("RequestHandle").field("done", &done).finish()
    }
}

impl RequestHandle {
    /// Block until the server completes the request.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut guard = lock_recover(&self.slot.done);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = wait_recover(&self.slot.cv, guard);
        }
    }

    /// Block for at most `timeout`; `None` means the request is still in
    /// flight and the handle remains usable.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock_recover(&self.slot.done);
        loop {
            if let Some(result) = guard.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            guard = wait_timeout_recover(&self.slot.cv, guard, deadline - now);
        }
    }
}

/// A predict request waiting in the admission queue.
struct Queued {
    model: String,
    input: Vec<f32>,
    slot: Arc<Slot>,
    deadline: Option<Instant>,
}

struct QueueState {
    queue: VecDeque<Queued>,
    accepting: bool,
}

/// Monotonic serving counters (all relaxed; read via [`Server::stats`]).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    batches: AtomicU64,
    batched_rows: AtomicU64,
}

/// Snapshot of the serving counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests completed (any outcome other than admission rejection).
    pub completed: u64,
    /// Requests rejected by admission control (`Overloaded`).
    pub rejected: u64,
    /// Requests that missed their deadline before execution.
    pub timeouts: u64,
    /// Inference batches executed.
    pub batches: u64,
    /// Total rows across all inference batches (`batched_rows / batches`
    /// is the effective batch size).
    pub batched_rows: u64,
}

struct Shared {
    engine: Arc<Engine>,
    cfg: ServeConfig,
    state: Mutex<QueueState>,
    /// The coordinator waits here for work; submitters notify.
    work_cv: Condvar,
    counters: Counters,
    /// Batches handed to the scheduler and not yet finished. Shutdown
    /// waits for this to reach zero after the coordinator exits.
    inflight: Mutex<usize>,
    inflight_cv: Condvar,
    /// Set by the coordinator, before its idle check, while it holds
    /// pending batches: only then does the pool going idle need to wake
    /// it ([`release_inflight`]).
    holding: AtomicBool,
}

/// The serving front end. See the module docs for the architecture.
pub struct Server {
    shared: Arc<Shared>,
    coordinator: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Start a server over `engine`. Non-zero `cfg.workers` starts the
    /// coordinator; compute happens on the scheduler pool.
    pub fn start(engine: Arc<Engine>, cfg: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            engine,
            cfg,
            state: Mutex::new(QueueState { queue: VecDeque::new(), accepting: true }),
            work_cv: Condvar::new(),
            counters: Counters::default(),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            holding: AtomicBool::new(false),
        });
        // The scheduler must have at least one thread for detached serving
        // tasks to make progress.
        sched::configure_workers(1);
        // Zero workers leaves the admission queue inert (admission-control
        // tests rely on nothing consuming queued predicts until shutdown).
        let coordinator = (shared.cfg.workers > 0).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || coordinator_loop(&shared))
        });
        Server { shared, coordinator: Mutex::new(coordinator) }
    }

    /// Make `name` servable, and callable as `PREDICT(name, …)`: registers
    /// the model stored in `table` in the engine's catalog
    /// ([`modeljoin::register_model`]). Served batches and statements share
    /// the returned cache, so the build phase runs once until DML to
    /// `table` bumps its version.
    pub fn register_model(
        &self,
        name: &str,
        table: &str,
        meta: ModelMeta,
        layout: Layout,
        device: Device,
    ) -> Arc<ModelCache> {
        modeljoin::register_model(&self.shared.engine, name, table, meta, layout, device)
    }

    /// Submit an inference request for one input row against a registered
    /// model, with no deadline.
    pub fn submit_predict(
        &self,
        model: &str,
        input: Vec<f32>,
    ) -> Result<RequestHandle, ServeError> {
        self.submit_predict_with_timeout(model, input, None)
    }

    /// Submit an inference request with an explicit deadline (`None` means
    /// no deadline).
    pub fn submit_predict_with_timeout(
        &self,
        model: &str,
        input: Vec<f32>,
        timeout: Option<Duration>,
    ) -> Result<RequestHandle, ServeError> {
        // Validate at submission so malformed requests fail fast instead
        // of poisoning a coalesced batch.
        let input_dim = bind(&self.shared.engine, model)?.input_dim();
        if input.len() != input_dim {
            return Err(ServeError::BadRequest(format!(
                "model {model:?} takes {input_dim} inputs, got {}",
                input.len()
            )));
        }
        let slot = Slot::new();
        let deadline = timeout.map(|t| Instant::now() + t);
        // A deadline already in the past completes with `Timeout` here,
        // deterministically, instead of racing whether the coordinator
        // dequeues the request before noticing the expiry.
        if let Some(d) = deadline {
            if Instant::now() >= d {
                self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                self.shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                om::SERVE_TIMEOUTS.add(1);
                om::SERVE_DEADLINE_MISSED_AT_SUBMIT.add(1);
                slot.complete(Err(ServeError::Timeout));
                return Ok(RequestHandle { slot });
            }
        }
        {
            let mut state = lock_recover(&self.shared.state);
            if !state.accepting {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() >= self.shared.cfg.queue_depth {
                return Err(self.overloaded());
            }
            let model = model.to_string();
            state.queue.push_back(Queued { model, input, slot: Arc::clone(&slot), deadline });
            om::SERVE_QUEUE_DEPTH.set(state.queue.len() as i64);
        }
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        // Wakes the coordinator, idle or in a flush-deadline wait.
        self.shared.work_cv.notify_all();
        Ok(RequestHandle { slot })
    }

    /// Submit a SQL statement. It never coalesces, so it skips the
    /// admission queue and the coordinator — the submit → coordinator →
    /// worker double handoff would otherwise dominate small-request
    /// latency — and goes straight to the scheduler as a Query-class task
    /// that runs it through the engine's plan cache. Admission is measured
    /// on the in-flight task count, the scheduler-side analogue of queue
    /// depth. The task is spawned under the state lock, so a concurrent
    /// shutdown either sees `accepting == false` here or observes the
    /// incremented in-flight count in its drain wait.
    pub fn submit_sql(&self, sql: &str) -> Result<RequestHandle, ServeError> {
        let slot = Slot::new();
        {
            let state = lock_recover(&self.shared.state);
            if !state.accepting {
                return Err(ServeError::ShuttingDown);
            }
            if *lock_recover(&self.shared.inflight) >= self.shared.cfg.queue_depth {
                return Err(self.overloaded());
            }
            let (sql, task_slot) = (sql.to_string(), Arc::clone(&slot));
            spawn_task(&self.shared, sched::TaskClass::Query, vec![Arc::clone(&slot)], move |s| {
                s.counters.completed.fetch_add(1, Ordering::Relaxed);
                let result = s.engine.execute_cached(&sql).map(Response::Rows).map_err(Into::into);
                task_slot.complete(result);
            });
        }
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(RequestHandle { slot })
    }

    /// Count an admission rejection and name it.
    fn overloaded(&self) -> ServeError {
        self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        om::SERVE_REJECTED.add(1);
        ServeError::Overloaded { depth: self.shared.cfg.queue_depth }
    }

    /// Stop admitting work, let the coordinator flush the queue, join it,
    /// and wait for every task in flight (flushed batches and SQL
    /// statements). Predicts still queued afterwards
    /// (possible only with zero workers) complete with
    /// [`ServeError::ShuttingDown`] — nothing is ever silently dropped.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = lock_recover(&self.shared.state);
            state.accepting = false;
        }
        self.shared.work_cv.notify_all();
        let coordinator = lock_recover(&self.coordinator).take();
        if let Some(c) = coordinator {
            let _ = c.join();
        }
        // The coordinator has flushed every pending batch to the
        // scheduler; wait for those tasks to finish so no request is
        // abandoned mid-pool.
        {
            let mut inflight = lock_recover(&self.shared.inflight);
            while *inflight > 0 {
                inflight = wait_recover(&self.shared.inflight_cv, inflight);
            }
        }
        let leftovers: Vec<Queued> = {
            let mut state = lock_recover(&self.shared.state);
            om::SERVE_QUEUE_DEPTH.set(0);
            state.queue.drain(..).collect()
        };
        let now = Instant::now();
        for q in leftovers {
            self.shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            match q.deadline {
                Some(d) if now >= d => {
                    self.shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    om::SERVE_TIMEOUTS.add(1);
                    q.slot.complete(Err(ServeError::Timeout));
                }
                _ => q.slot.complete(Err(ServeError::ShuttingDown)),
            }
        }
    }

    /// Text report of the process-wide metric catalog (see the `obs`
    /// crate): serving queue/batch/latency metrics alongside the engine,
    /// kernel, and ModelJoin stage breakdowns.
    pub fn metrics_report(&self) -> String {
        obs::snapshot().render()
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_rows: c.batched_rows.load(Ordering::Relaxed),
        }
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A per-model batch the coordinator is still filling.
struct PendingBatch {
    model: String,
    items: Vec<Queued>,
    flush_at: Instant,
}

/// Hand one unit of serving work to the scheduler as a task of `class`.
/// Coalesced predict batches go out as Serve-class tasks — the
/// high-priority class that jumps morsel backlogs and gets picked up at
/// morsel boundaries by threads running scans — while SQL requests are
/// Query-class like any other analytical work, so a burst of served SQL
/// cannot starve inference latency. The in-flight count covers submit →
/// task end; a panic anywhere in `work` (beyond the per-batch inference
/// `catch_unwind` inside [`execute_predict_batch`]) is caught here, so
/// `slots` still complete and shutdown's in-flight wait still terminates.
///
/// Serve tasks are spawned without a worker wakeup: only the coordinator's
/// flush-then-help loop spawns them, and it runs
/// [`sched::Scheduler::help_one`] once per flushed batch right afterwards —
/// waking a worker too would just lose the claim race and burn a futile
/// park/unpark cycle.
fn spawn_task(
    shared: &Arc<Shared>,
    class: sched::TaskClass,
    slots: Vec<Arc<Slot>>,
    work: impl FnOnce(&Shared) + Send + 'static,
) {
    *lock_recover(&shared.inflight) += 1;
    let shared = Arc::clone(shared);
    let job = move || {
        if catch_unwind(AssertUnwindSafe(|| work(&shared))).is_err() {
            om::SERVE_PANICS_CAUGHT.add(1);
            for slot in &slots {
                slot.complete(Err(ServeError::Internal("serving task panicked".into())));
            }
        }
        release_inflight(&shared);
    };
    match class {
        sched::TaskClass::Serve => sched::global().spawn_quiet(class, job),
        _ => sched::global().spawn(class, job),
    }
}

/// Flush one coalesced predict batch to the scheduler.
fn dispatch_batch(shared: &Arc<Shared>, model: String, batch: Vec<Queued>) {
    let slots = batch.iter().map(|q| Arc::clone(&q.slot)).collect();
    spawn_task(shared, sched::TaskClass::Serve, slots, move |s| {
        execute_predict_batch(s, &model, batch)
    });
}

/// Give back one in-flight slot. The last one wakes shutdown's drain wait
/// and, when it holds pending batches, the coordinator: a partial batch
/// held while the pool was busy flushes now (work-conserving) instead of
/// at its deadline. The state lock is taken for that notify — after
/// `inflight` is released, the coordinator's order being state then
/// inflight — so the wake-up cannot fall between the coordinator's idle
/// check and its wait. `holding` is stored before that check and read
/// after the decrement, both `SeqCst`, with the `inflight` mutex ordering
/// the two: a decrement the check missed sees the flag. Skipping the lock
/// otherwise keeps it off the path of every batch of a busy server.
fn release_inflight(shared: &Shared) {
    let idle = {
        let mut inflight = lock_recover(&shared.inflight);
        *inflight -= 1;
        *inflight == 0
    };
    if idle {
        shared.inflight_cv.notify_all();
        if shared.holding.load(Ordering::SeqCst) {
            let _state = lock_recover(&shared.state);
            shared.work_cv.notify_all();
        }
    }
}

/// The coordinator: drains the admission queue, coalesces
/// per-model batches concurrently, and flushes each one to the scheduler
/// when it fills, when its flush deadline passes, or at shutdown. Exits
/// once the server stops accepting and everything pending is flushed.
fn coordinator_loop(shared: &Arc<Shared>) {
    let mut pending: Vec<PendingBatch> = Vec::new();
    let mut state = lock_recover(&shared.state);
    loop {
        // Drain the whole queue into the models' pending batches.
        while let Some(q) = state.queue.pop_front() {
            om::SERVE_QUEUE_DEPTH.set(state.queue.len() as i64);
            match pending.iter_mut().find(|b| b.model == q.model) {
                Some(b) => b.items.push(q),
                None => pending.push(PendingBatch {
                    model: q.model.clone(),
                    items: vec![q],
                    flush_at: Instant::now() + Duration::from_micros(shared.cfg.batch_flush_us),
                }),
            }
        }
        // Flush what is ready: full batches (oversized ones split at
        // `max_batch_rows`), batches whose deadline fired, and — once the
        // server stops accepting — everything, so shutdown never strands
        // a partial batch.
        let accepting = state.accepting;
        let now = Instant::now();
        // Work-conserving flush: when nothing is in flight, holding a
        // partial batch for the rest of its window buys no overlap — the
        // executor would sit idle exactly that long. Flush it now and let
        // the next batch coalesce while this one runs; under sustained
        // load this self-clocks into pipelined batches (arrivals during
        // execution form the next batch), while the deadline still bounds
        // worst-case batching delay when the pool is busy.
        shared.holding.store(!pending.is_empty(), Ordering::SeqCst);
        let idle = *lock_recover(&shared.inflight) == 0;
        let mut i = 0;
        let mut flushed = 0usize;
        while i < pending.len() {
            if pending[i].items.len() >= shared.cfg.max_batch_rows {
                let batch = &mut pending[i];
                let rest = batch.items.split_off(shared.cfg.max_batch_rows);
                let full = std::mem::replace(&mut batch.items, rest);
                dispatch_batch(shared, batch.model.clone(), full);
                flushed += 1;
                if pending[i].items.is_empty() {
                    pending.remove(i);
                }
                // Re-examine index i: the remainder may itself be ready.
            } else if idle || now >= pending[i].flush_at || !accepting {
                if now >= pending[i].flush_at {
                    om::SERVE_FLUSH_DEADLINE_FIRES.add(1);
                }
                let batch = pending.remove(i);
                dispatch_batch(shared, batch.model, batch.items);
                flushed += 1;
            } else {
                i += 1;
            }
        }
        // Help run what was just flushed instead of sleeping while a pool
        // worker wakes up: the coordinator is already on-CPU, and
        // `help_one` claims Serve-class tasks only, so at worst it runs a
        // sibling batch some other producer flushed. Bounded by the flush
        // count so a deep high-priority backlog cannot capture the
        // coordinator indefinitely. The state lock is released first —
        // submitters keep queueing while the batch executes.
        if flushed > 0 {
            drop(state);
            for _ in 0..flushed {
                if !sched::global().help_one() {
                    break;
                }
            }
            state = lock_recover(&shared.state);
            continue;
        }
        if !state.queue.is_empty() {
            continue;
        }
        if !accepting {
            debug_assert!(pending.is_empty(), "everything flushes once accepting drops");
            return;
        }
        // Sleep until new work arrives or the earliest pending deadline.
        match pending.iter().map(|b| b.flush_at).min() {
            Some(at) => {
                let now = Instant::now();
                if now >= at {
                    continue;
                }
                state = wait_timeout_recover(&shared.work_cv, state, at - now);
            }
            None => state = wait_recover(&shared.work_cv, state),
        }
    }
}

/// Deadline check at dequeue: completes the slot with `Timeout` and
/// returns true if the request's deadline already passed.
fn expired(shared: &Shared, q: &Queued) -> bool {
    match q.deadline {
        Some(d) if Instant::now() >= d => {
            shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            om::SERVE_TIMEOUTS.add(1);
            q.slot.complete(Err(ServeError::Timeout));
            true
        }
        _ => false,
    }
}

/// The catalog's handle of the model registered as `name`. A name nobody
/// registered is [`ServeError::UnknownModel`]; a registered model whose
/// bind fails (its table was dropped) is the engine's error.
fn bind(engine: &Engine, name: &str) -> Result<Arc<dyn InferModel>, ServeError> {
    let catalog = engine.catalog();
    catalog.model(name).map_err(|e| {
        if catalog.has_model(name) {
            e.into()
        } else {
            ServeError::UnknownModel(name.to_string())
        }
    })
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "inference panicked".to_string()
    }
}

fn execute_predict_batch(shared: &Shared, model_name: &str, batch: Vec<Queued>) {
    shared.counters.completed.fetch_add(batch.len() as u64, Ordering::Relaxed);
    let live: Vec<Queued> = batch.into_iter().filter(|q| !expired(shared, q)).collect();
    if live.is_empty() {
        return;
    }
    let fail = |err: ServeError| {
        for q in &live {
            q.slot.complete(Err(err.clone()));
        }
    };

    let model = match bind(&shared.engine, model_name) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let rows = live.len();
    let mut packed = Vec::with_capacity(rows * model.input_dim());
    for q in &live {
        packed.extend_from_slice(&q.input);
    }
    // Catch inference panics per batch: the affected requests complete
    // with `Internal` and the worker (plus every lock it may hold above
    // this frame) survives to serve the next request.
    let output = match catch_unwind(AssertUnwindSafe(|| model.infer_rows(&packed, rows))) {
        Ok(Ok(output)) => output,
        Ok(Err(e)) => return fail(e.into()),
        Err(payload) => {
            om::SERVE_PANICS_CAUGHT.add(1);
            let msg = panic_message(payload.as_ref());
            return fail(ServeError::Internal(msg));
        }
    };
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared.counters.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
    om::SERVE_BATCH_ROWS.record(rows as u64);
    for (q, row) in live.iter().zip(output.chunks_exact(model.output_dim())) {
        q.slot.complete(Ok(Response::Prediction(row.to_vec())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use model_repr::load_into_engine;
    use modeljoin::ModelDtype;
    use nn::paper;
    use vector_engine::{EngineConfig, Value};

    fn e_config() -> EngineConfig {
        EngineConfig { vector_size: 16, partitions: 2, parallelism: 2, ..Default::default() }
    }

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(e_config()))
    }

    fn config() -> ServeConfig {
        ServeConfig { workers: 1, queue_depth: 64, batch_flush_us: 200, max_batch_rows: 16 }
    }

    fn register_dense(server: &Server, e: &Engine, name: &str) -> Arc<ModelCache> {
        let model = paper::dense_model(4, 2, 7);
        let (_, meta) =
            load_into_engine(e, &format!("{name}_table"), &model, Layout::NodeId).unwrap();
        server.register_model(name, &format!("{name}_table"), meta, Layout::NodeId, Device::cpu())
    }

    #[test]
    fn overload_is_rejected_never_dropped() {
        // Zero workers: the queue can only fill, so admission control is
        // exercised deterministically.
        let e = engine();
        let server =
            Server::start(Arc::clone(&e), ServeConfig { workers: 0, queue_depth: 2, ..config() });
        register_dense(&server, &e, "m");

        let h1 = server.submit_predict("m", vec![0.0; 4]).unwrap();
        let h2 = server.submit_predict("m", vec![0.0; 4]).unwrap();
        let err = server.submit_predict("m", vec![0.0; 4]).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { depth: 2 });
        assert_eq!(server.stats().rejected, 1);

        // Graceful drain: the queued requests complete explicitly.
        server.shutdown();
        assert_eq!(h1.wait().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(h2.wait().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(server.submit_sql("SELECT 1 AS x").unwrap_err(), ServeError::ShuttingDown);
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn expired_deadlines_time_out_explicitly() {
        // Zero workers: if submit-time expiry did not complete the slot,
        // the expired request would sit queued indefinitely, completing
        // only at shutdown (the old racy behavior — with workers, whether
        // it timed out depended on who dequeued first). The deadline
        // check at submit makes the Timeout deterministic and immediate.
        let e = engine();
        let server = Server::start(Arc::clone(&e), ServeConfig { workers: 0, ..config() });
        register_dense(&server, &e, "m");
        let timed =
            server.submit_predict_with_timeout("m", vec![0.0; 4], Some(Duration::ZERO)).unwrap();
        match timed.wait_timeout(Duration::ZERO) {
            Some(Err(ServeError::Timeout)) => {} // complete at submit, no waiting
            other => panic!("expected immediate Timeout, got {other:?}"),
        }
        let untimed = server.submit_predict("m", vec![0.0; 4]).unwrap();
        server.shutdown();
        assert_eq!(untimed.wait().unwrap_err(), ServeError::ShuttingDown);
        let stats = server.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    /// A serial engine (`parallelism: 0`) still gets a running coordinator
    /// from `from_engine`: without one, every SQL and batched predict
    /// would queue until shutdown.
    #[test]
    fn from_engine_serves_a_zero_parallelism_engine() {
        let e = Arc::new(Engine::new(EngineConfig {
            vector_size: 16,
            partitions: 2,
            parallelism: 0,
            ..Default::default()
        }));
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let server = Server::start(Arc::clone(&e), ServeConfig::from_engine(e.config()));
        register_dense(&server, &e, "m");
        let patience = Duration::from_secs(30);
        let sql = server.submit_sql("SELECT COUNT(*) AS n FROM t").unwrap();
        let Some(Ok(Response::Rows(q))) = sql.wait_timeout(patience) else {
            panic!("SQL on a parallelism-0 engine never completed")
        };
        assert_eq!(q.row(0)[0], Value::Int(3));
        let predict = server.submit_predict("m", vec![0.1; 4]).unwrap();
        let Some(Ok(Response::Prediction(row))) = predict.wait_timeout(patience) else {
            panic!("batched predict on a parallelism-0 engine never completed")
        };
        assert!(row[0].is_finite());
    }

    #[test]
    fn submission_validates_model_and_arity() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        register_dense(&server, &e, "m");
        assert_eq!(
            server.submit_predict("nope", vec![0.0; 4]).unwrap_err(),
            ServeError::UnknownModel("nope".into())
        );
        assert!(matches!(
            server.submit_predict("m", vec![0.0; 3]).unwrap_err(),
            ServeError::BadRequest(_)
        ));
        // A registered model whose table is gone is the engine's fault,
        // named by its table, not an unknown model.
        e.execute("DROP TABLE m_table").unwrap();
        match server.submit_predict("m", vec![0.0; 4]).unwrap_err() {
            ServeError::Engine(msg) => assert!(msg.contains("m_table"), "{msg}"),
            other => panic!("expected the engine's error, got {other:?}"),
        }
    }

    #[test]
    fn sql_requests_run_through_the_plan_cache() {
        let e = engine();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let server = Server::start(Arc::clone(&e), config());
        for _ in 0..3 {
            let Response::Rows(q) =
                server.submit_sql("SELECT COUNT(*) AS n FROM t").unwrap().wait().unwrap()
            else {
                panic!("SQL must return rows")
            };
            assert_eq!(q.row(0)[0], Value::Int(2));
        }
        assert!(e.plan_cache_stats().hits >= 2, "repeat SQL must hit the plan cache");
    }

    #[test]
    fn a_predict_queued_behind_in_flight_work_flushes_when_the_pool_goes_idle() {
        let e = engine();
        // A deadline far beyond the test: only the idle pool may flush.
        let server = Server::start(
            Arc::clone(&e),
            ServeConfig { batch_flush_us: 10_000_000, max_batch_rows: 64, ..config() },
        );
        register_dense(&server, &e, "m");
        // Stand in for a SQL unit running on the pool.
        *lock_recover(&server.shared.inflight) += 1;
        let h = server.submit_predict("m", vec![0.5; 4]).unwrap();
        assert!(h.wait_timeout(Duration::from_millis(50)).is_none(), "held behind the unit");
        release_inflight(&server.shared);
        let response = h.wait_timeout(Duration::from_secs(5)).expect("flushed once idle");
        assert!(matches!(response, Ok(Response::Prediction(_))), "{response:?}");
    }

    #[test]
    fn same_model_requests_coalesce_into_one_batch() {
        const REQUESTS: usize = 8;
        let e = engine();
        // A generous flush window: all 8 requests are submitted within it,
        // so the coordinator must coalesce them into one full batch.
        let server = Server::start(
            Arc::clone(&e),
            ServeConfig { batch_flush_us: 200_000, max_batch_rows: REQUESTS, ..config() },
        );
        let cache = register_dense(&server, &e, "m");
        // Stand in for a busy pool: with nothing in flight the coordinator
        // flushes partial batches at once (work-conserving), so whether the
        // first request leaves alone would depend on thread timing.
        *lock_recover(&server.shared.inflight) += 1;
        let handles: Vec<RequestHandle> = (0..REQUESTS)
            .map(|i| server.submit_predict("m", vec![i as f32 * 0.1; 4]).unwrap())
            .collect();
        let responses: Vec<_> = handles.into_iter().map(RequestHandle::wait).collect();
        // Released before anything can panic: shutdown waits for zero.
        *lock_recover(&server.shared.inflight) -= 1;
        for response in responses {
            let Response::Prediction(row) = response.unwrap() else { panic!("prediction") };
            assert_eq!(row.len(), 1);
            assert!(row[0].is_finite());
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1, "requests must coalesce: {stats:?}");
        assert_eq!(stats.batched_rows, REQUESTS as u64);
        // One batch, one (cached) model build.
        assert_eq!(cache.stats(ModelDtype::F32).1, 1);
    }

    /// Quantized serving (an engine with `quantized_inference`) tracks the
    /// fp32 oracle within the int8 error budget and populates the I8 side
    /// of the dual-dtype cache: one quantization pass (riding one fp32
    /// build), then i8 hits. The client waits for each answer, so every
    /// request is its own batch and its own cache lookup.
    #[test]
    fn quantized_serving_tracks_oracle_and_caches_per_dtype() {
        let e = Arc::new(Engine::new(EngineConfig { quantized_inference: true, ..e_config() }));
        let server = Server::start(Arc::clone(&e), config());
        let model = paper::dense_model(4, 2, 7);
        let (_, meta) = load_into_engine(&e, "mq_table", &model, Layout::NodeId).unwrap();
        let cache = server.register_model("mq", "mq_table", meta, Layout::NodeId, Device::cpu());
        for i in 0..3 {
            let input = vec![0.1 * (i + 1) as f32; 4];
            let Response::Prediction(row) =
                server.submit_predict("mq", input.clone()).unwrap().wait().unwrap()
            else {
                panic!("prediction")
            };
            let expected = model.predict_row(&input)[0];
            assert!(
                (row[0] - expected).abs() < 5e-2,
                "quantized serving diverged: {} vs {expected}",
                row[0]
            );
        }
        assert_eq!(server.stats().batches, 3, "one batch per awaited request");
        assert_eq!(cache.stats(ModelDtype::I8), (2, 1), "one quantization, then hits");
        assert_eq!(cache.stats(ModelDtype::F32), (0, 1), "fp32 fed the quantizer");
    }

    #[test]
    fn model_cache_survives_requests_but_not_dml() {
        let e = engine();
        // The client waits for each answer: every request is its own
        // batch, so cache hits are observable per request.
        let server = Server::start(Arc::clone(&e), config());
        let cache = register_dense(&server, &e, "m");
        for _ in 0..3 {
            server.submit_predict("m", vec![0.1; 4]).unwrap().wait().unwrap();
        }
        assert_eq!(server.stats().batches, 3, "one batch per awaited request");
        let (hits, misses) = cache.stats(ModelDtype::F32);
        assert_eq!((hits, misses), (2, 1), "one build, then cache hits");

        // DML to the model table invalidates: the next request rebuilds.
        let zeros: Vec<String> = (0..12).map(|_| "0.0".into()).collect();
        e.execute(&format!("INSERT INTO m_table VALUES (0, 0, {})", zeros.join(", "))).unwrap();
        server.submit_predict("m", vec![0.1; 4]).unwrap().wait().unwrap();
        assert_eq!(cache.stats(ModelDtype::F32).1, 2, "DML must force a rebuild");
    }

    /// `DROP TABLE` plus a reload of a different, same-shaped model under
    /// the same table name must serve the new weights. The new table's
    /// data version equals the old one's, so only the table's identity
    /// tells the cached model apart: the model is registered once, so the
    /// reload meets the registration's cache, not a fresh one.
    #[test]
    fn replaced_model_table_serves_the_new_model() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        let input = vec![0.3, -0.2, 0.5, 0.1];
        let predict = || {
            let Response::Prediction(row) =
                server.submit_predict("m", input.clone()).unwrap().wait().unwrap()
            else {
                panic!("prediction")
            };
            row[0]
        };
        let mut cache = None;
        for seed in [7, 8] {
            let model = paper::dense_model(4, 2, seed);
            e.execute("DROP TABLE IF EXISTS m_table").unwrap();
            let (_, meta) = load_into_engine(&e, "m_table", &model, Layout::NodeId).unwrap();
            cache.get_or_insert_with(|| {
                server.register_model("m", "m_table", meta, Layout::NodeId, Device::cpu())
            });
            let expected = model.predict_row(&input)[0];
            let got = predict();
            assert!(
                (got - expected).abs() < 1e-5,
                "seed {seed}: served {got}, model says {expected}"
            );
        }
        let cache = cache.expect("registered in the first round");
        assert_eq!(server.stats().batches, 2, "one batch per awaited request");
        assert_eq!(cache.stats(ModelDtype::F32), (0, 2), "the reload rebuilt");
    }
}
