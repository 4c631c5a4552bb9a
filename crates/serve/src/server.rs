//! The inference server.
//!
//! A [`Server`] owns an `Arc<Engine>` and one bounded queue of predicts,
//! and no thread. Callers submit work with [`Server::submit_predict`] /
//! [`Server::submit_sql`] and get back a [`RequestHandle`], a completion
//! slot they block on with [`RequestHandle::wait`].
//!
//! Predicts batch leader/follower. A client blocked in `wait` whose model
//! has no batch running becomes that model's leader: it takes the model's
//! waiting requests from the front of the queue, up to `max_batch_rows`,
//! runs one vectorized inference over the coalesced `rows x input_dim`
//! matrix on its own thread, completes every slot and wakes the waiters,
//! so one of them leads the model's next batch. Requests that arrive while
//! a batch runs form the next one; that is the whole batching policy, with
//! no flush timer. A model runs one batch at a time, and different models
//! lead in parallel. A predict nobody waits on stays queued until a later
//! leader of its model, or shutdown, takes it.
//!
//! The server holds no models of its own. [`Server::register_model`] is the
//! engine catalog's `PREDICT` registration ([`modeljoin::register_model`]),
//! and a batch runs the model the catalog binds for its name
//! ([`InferModel::infer_rows`]), so SQL and served predicts share one
//! build per model table and dtype. SQL requests never enter the queue:
//! each goes straight to the scheduler as a Query-class task that runs it
//! through the engine's plan cache ([`Engine::execute_cached`]).
//!
//! A submit checks a predict's arity against its model's lane, one per
//! name in any case, which holds the input width bound at a catalog epoch
//! ([`Catalog::version`](vector_engine::Catalog::version)): it binds the
//! model again, outside the state lock, only once the epoch has moved.
//!
//! Admission control rejects with [`ServeError::Overloaded`] at submission
//! (never blocking the client and never dropping silently): a predict when
//! `queue_depth` predicts wait for a leader, a SQL statement when
//! `queue_depth` statements are in flight. Deadlines are checked at
//! submission and when a leader takes the batch. [`Server::shutdown`]
//! stops admitting, a predict whose deadline has passed included, and
//! answers everything admitted. Inference panics are caught per batch and
//! answered with [`ServeError::Internal`]; a leader that unwinds anyway
//! still answers its batch and hands its model on.
//! Every failure is counted under its reason ([`ServeError`]).

use crate::config::ServeConfig;
use crate::error::ServeError;
use model_repr::{Layout, ModelMeta};
use modeljoin::ModelCache;
use obs::metrics as om;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tensor::Device;
use vector_engine::plan::InferModel;
use vector_engine::{Engine, QueryResult};

/// Lock a mutex, recovering from poisoning instead of cascading the
/// failure. Every mutex in this module protects state that is valid at
/// each point a panic can unwind through it (queue, running models,
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
    /// When the request entered the server; completion records the
    /// submit-to-completion latency under `serve.request.e2e_us`.
    submitted: Instant,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { done: Mutex::new(None), submitted: Instant::now() })
    }

    /// Store the request's outcome, counting a failure under its reason.
    /// Every slot is completed exactly once. Waking the client is the
    /// caller's part: it notifies [`Shared::done`] under the state lock.
    fn complete(&self, result: Result<Response, ServeError>) {
        if let Err(e) = &result {
            e.count();
        }
        *lock_recover(&self.done) = Some(result);
        om::SERVE_E2E_US.record_duration(self.submitted.elapsed());
    }
}

/// The client side of a submitted request. Block on [`RequestHandle::wait`]
/// to retrieve the response (or the explicit serving error).
pub struct RequestHandle {
    slot: Arc<Slot>,
    shared: Arc<Shared>,
    /// The lane of a predict, whose batch the waiter may lead; `None` for
    /// SQL.
    lane: Option<usize>,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = lock_recover(&self.slot.done).is_some();
        f.debug_struct("RequestHandle").field("done", &done).finish()
    }
}

impl RequestHandle {
    /// Block until the server completes the request. A predict whose
    /// model has no batch running makes the caller that model's leader:
    /// it runs the model's next batch on this thread — and, when its own
    /// request was behind a full batch, the one after — before it returns.
    pub fn wait(self) -> Result<Response, ServeError> {
        let shared = &*self.shared;
        let mut state = lock_recover(&shared.state);
        loop {
            if let Some(result) = lock_recover(&self.slot.done).take() {
                return result;
            }
            if let Some(lane) = self.lane {
                if let Some((model, items)) = state.take_batch(lane, shared.cfg.max_batch_rows) {
                    drop(state);
                    lead(shared, lane, &model, items);
                    state = lock_recover(&shared.state);
                    continue;
                }
            }
            state = wait_recover(&shared.done, state);
        }
    }
}

/// A predict request waiting for a leader.
struct Queued {
    lane: usize,
    input: Vec<f32>,
    slot: Arc<Slot>,
    deadline: Option<Instant>,
}

/// The requests of one model name; its index in [`State::lanes`] is its id.
struct Lane {
    /// The catalog's spelling; the model's input width as bound at `epoch`.
    name: Arc<str>,
    input_dim: usize,
    epoch: u64,
}

struct State {
    /// Predicts waiting for a leader, oldest first.
    queue: VecDeque<Queued>,
    /// One lane per model name a submit has bound; never removed.
    lanes: Vec<Lane>,
    /// Lanes with a batch running; a model runs one batch at a time.
    running: Vec<usize>,
    /// Served SQL statements submitted and not yet finished.
    sql_in_flight: usize,
    accepting: bool,
}

impl State {
    /// The id of `name`'s lane, matched in any case.
    fn lane(&self, name: &str) -> Option<usize> {
        self.lanes.iter().position(|l| l.name.eq_ignore_ascii_case(name))
    }

    /// Stamp `name`'s lane, opened if need be, with `input_dim` as bound
    /// at `epoch`, and return its id.
    fn stamp(&mut self, name: &str, input_dim: usize, epoch: u64) -> usize {
        let id = self.lane(name).unwrap_or_else(|| {
            self.lanes.push(Lane { name: name.to_ascii_lowercase().into(), input_dim, epoch });
            self.lanes.len() - 1
        });
        (self.lanes[id].input_dim, self.lanes[id].epoch) = (input_dim, epoch);
        id
    }

    /// Make the caller `lane`'s leader: mark the lane running and take its
    /// waiting requests from the front of the queue, up to `max`, keeping
    /// the others in order; with them, the model name to bind. `None`
    /// while a batch of the lane runs or none of its requests waits.
    fn take_batch(&mut self, lane: usize, max: usize) -> Option<(Arc<str>, Vec<Queued>)> {
        if self.running.contains(&lane) {
            return None;
        }
        let mut items = Vec::with_capacity(self.queue.len().min(max));
        for _ in 0..self.queue.len() {
            let q = self.queue.pop_front().expect("one pop per queued request");
            if items.len() < max && q.lane == lane {
                items.push(q);
            } else {
                self.queue.push_back(q);
            }
        }
        if items.is_empty() {
            return None;
        }
        om::SERVE_QUEUE_DEPTH.set(self.queue.len() as i64);
        self.running.push(lane);
        Some((Arc::clone(&self.lanes[lane].name), items))
    }
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
    /// Requests admitted.
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
    state: Mutex<State>,
    /// Every waiter sleeps here. Notified under the state lock whenever a
    /// batch ends or a SQL statement finishes, after their slots complete.
    done: Condvar,
    counters: Counters,
}

/// The serving front end. See the module docs for the architecture.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Start a server over `engine`. It starts no thread: predicts run on
    /// the threads that wait for them, SQL on the scheduler pool.
    pub fn start(engine: Arc<Engine>, cfg: ServeConfig) -> Server {
        let state = State {
            queue: VecDeque::new(),
            lanes: Vec::new(),
            running: Vec::new(),
            sql_in_flight: 0,
            accepting: true,
        };
        let shared = Shared {
            engine,
            cfg,
            state: Mutex::new(state),
            done: Condvar::new(),
            counters: Counters::default(),
        };
        Server { shared: Arc::new(shared) }
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
        self.admit_predict(model, input, timeout).inspect_err(ServeError::count)
    }

    fn admit_predict(
        &self,
        model: &str,
        input: Vec<f32>,
        timeout: Option<Duration>,
    ) -> Result<RequestHandle, ServeError> {
        let shared = &self.shared;
        let slot = Slot::new();
        let deadline = timeout.map(|t| slot.submitted + t);
        // Validate at submission so malformed requests fail fast instead
        // of poisoning a coalesced batch. The epoch is read before a bind,
        // so a DDL racing the bind leaves the lane stale, never fresh.
        let epoch = shared.engine.catalog().version();
        let mut state = lock_recover(&shared.state);
        let lane = match state.lane(model) {
            Some(lane) if state.lanes[lane].epoch == epoch => lane,
            _ => {
                drop(state);
                let input_dim = bind(&shared.engine, model)?.input_dim();
                state = lock_recover(&shared.state);
                state.stamp(model, input_dim, epoch)
            }
        };
        let input_dim = state.lanes[lane].input_dim;
        if input.len() != input_dim {
            return Err(ServeError::BadRequest(format!(
                "model {model:?} takes {input_dim} inputs, got {}",
                input.len()
            )));
        }
        if !state.accepting {
            return Err(ServeError::ShuttingDown);
        }
        // A deadline already in the past completes with `Timeout` here,
        // deterministically, instead of when a leader takes the request.
        let expired = deadline.is_some_and(|d| Instant::now() >= d);
        if !expired {
            if state.queue.len() >= shared.cfg.queue_depth {
                return Err(self.overloaded());
            }
            state.queue.push_back(Queued { lane, input, slot: Arc::clone(&slot), deadline });
            om::SERVE_QUEUE_DEPTH.set(state.queue.len() as i64);
        }
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        if expired {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            om::SERVE_DEADLINE_MISSED_AT_SUBMIT.add(1);
            time_out(shared, &slot);
        }
        Ok(RequestHandle { slot, shared: Arc::clone(shared), lane: Some(lane) })
    }

    /// Submit a SQL statement. It never coalesces, so it skips the queue
    /// and goes straight to the scheduler as a Query-class task that runs
    /// it through the engine's plan cache. Admission is measured on the
    /// statements in flight, counted under the state lock, so a concurrent
    /// shutdown either refuses the statement or waits for it.
    pub fn submit_sql(&self, sql: &str) -> Result<RequestHandle, ServeError> {
        self.admit_sql(sql).inspect_err(ServeError::count)
    }

    fn admit_sql(&self, sql: &str) -> Result<RequestHandle, ServeError> {
        {
            let mut state = lock_recover(&self.shared.state);
            if !state.accepting {
                return Err(ServeError::ShuttingDown);
            }
            if state.sql_in_flight >= self.shared.cfg.queue_depth {
                return Err(self.overloaded());
            }
            state.sql_in_flight += 1;
            self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        }
        let slot = Slot::new();
        let (shared, task_slot, sql) =
            (Arc::clone(&self.shared), Arc::clone(&slot), sql.to_string());
        sched::global().spawn(sched::TaskClass::Query, move || {
            // Caught so that the slot completes and shutdown's wait for
            // statements in flight ends whatever the statement does.
            let run = catch_unwind(AssertUnwindSafe(|| shared.engine.execute_cached(&sql)));
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            task_slot.complete(match run {
                Ok(result) => result.map(Response::Rows).map_err(Into::into),
                Err(payload) => Err(ServeError::Internal(panic_message(payload.as_ref()))),
            });
            let mut state = lock_recover(&shared.state);
            state.sql_in_flight -= 1;
            shared.done.notify_all();
        });
        Ok(RequestHandle { slot, shared: Arc::clone(&self.shared), lane: None })
    }

    /// Count an admission rejection and name it.
    fn overloaded(&self) -> ServeError {
        self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        ServeError::Overloaded { depth: self.shared.cfg.queue_depth }
    }

    /// Stop admitting work, then answer everything admitted: lead every
    /// model's remaining predicts on this thread, and wait for the batches
    /// other leaders run and for served SQL in flight. Every request
    /// admitted before the call is complete when it returns, so
    /// [`ServeError::ShuttingDown`] only ever comes from a submit.
    /// Idempotent.
    pub fn shutdown(&self) {
        let shared = &*self.shared;
        let max = shared.cfg.max_batch_rows;
        let mut state = lock_recover(&shared.state);
        state.accepting = false;
        loop {
            let idle = state.queue.iter().map(|q| q.lane).find(|l| !state.running.contains(l));
            if let Some(lane) = idle {
                let (model, batch) = state.take_batch(lane, max).expect("an idle lane");
                drop(state);
                lead(shared, lane, &model, batch);
                state = lock_recover(&shared.state);
            } else if state.queue.is_empty() && state.running.is_empty() && state.sql_in_flight == 0
            {
                return;
            } else {
                state = wait_recover(&shared.done, state);
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

/// The batch a thread leads for `lane`, which [`State::take_batch`]
/// marked running. Dropping it hands the lane on, on every exit path,
/// unwinding included: requests still unanswered complete with
/// [`ServeError::Internal`], the lane leaves `running`, and the waiters
/// wake, so one of them leads the model's next batch.
struct Lead<'a> {
    shared: &'a Shared,
    lane: usize,
    items: Vec<Queued>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        for q in self.items.drain(..) {
            q.slot.complete(Err(ServeError::Internal("serving batch panicked".into())));
        }
        let mut state = lock_recover(&self.shared.state);
        state.running.retain(|&l| l != self.lane);
        self.shared.done.notify_all();
    }
}

/// Run `lane`'s batch `items` through the model the catalog binds for
/// `model` on the calling thread, then hand the lane on.
fn lead(shared: &Shared, lane: usize, model: &str, items: Vec<Queued>) {
    let mut lead = Lead { shared, lane, items };
    run_batch(shared, model, &mut lead.items);
}

/// Complete `slot` with `Timeout`: its deadline passed before it ran.
fn time_out(shared: &Shared, slot: &Slot) {
    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    slot.complete(Err(ServeError::Timeout));
}

/// The catalog's handle of the model registered as `name`, bound once per
/// batch and by a submit whose lane is stale. A name nobody registered is
/// [`ServeError::UnknownModel`]; a registered model whose bind fails (its
/// table was dropped) is the engine's error.
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
        "serving request panicked".to_string()
    }
}

/// Answer every request of `batch`, draining it: those whose deadline
/// passed with `Timeout`, the rest from one inference over their rows.
fn run_batch(shared: &Shared, model_name: &str, batch: &mut Vec<Queued>) {
    shared.counters.completed.fetch_add(batch.len() as u64, Ordering::Relaxed);
    let now = Instant::now();
    batch.retain(|q| {
        let expired = q.deadline.is_some_and(|d| now >= d);
        if expired {
            time_out(shared, &q.slot);
        }
        !expired
    });
    if batch.is_empty() {
        return;
    }
    let rows = batch.len();
    let inferred = bind(&shared.engine, model_name).and_then(|model| {
        let mut packed = Vec::with_capacity(rows * model.input_dim());
        for q in batch.iter() {
            packed.extend_from_slice(&q.input);
        }
        // Catch inference panics per batch: the affected requests complete
        // with `Internal` and the leader (plus every lock it may hold above
        // this frame) survives to serve its own client.
        let output = match catch_unwind(AssertUnwindSafe(|| model.infer_rows(&packed, rows))) {
            Ok(output) => output?,
            Err(payload) => return Err(ServeError::Internal(panic_message(payload.as_ref()))),
        };
        let width = model.output_dim();
        if output.len() != rows * width {
            let got = output.len();
            return Err(ServeError::Internal(format!("{rows} rows of {width} inferred as {got}")));
        }
        Ok((output, width))
    });
    match inferred {
        Ok((output, width)) => {
            shared.counters.batches.fetch_add(1, Ordering::Relaxed);
            shared.counters.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
            om::SERVE_BATCH_ROWS.record(rows as u64);
            for (q, row) in batch.drain(..).zip(output.chunks_exact(width)) {
                q.slot.complete(Ok(Response::Prediction(row.to_vec())));
            }
        }
        Err(e) => {
            for q in batch.drain(..) {
                q.slot.complete(Err(e.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use model_repr::load_into_engine;
    use modeljoin::{build_parallel, BuiltModel, ModelDtype};
    use nn::paper;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use tensor::Matrix;
    use vector_engine::exec::physical::Operator;
    use vector_engine::{EngineConfig, Value};

    fn e_config() -> EngineConfig {
        EngineConfig { vector_size: 16, partitions: 2, parallelism: 2, ..Default::default() }
    }

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(e_config()))
    }

    fn config() -> ServeConfig {
        ServeConfig { queue_depth: 64, max_batch_rows: 16 }
    }

    /// A dense model of 4 inputs served as `name`: its registration's
    /// cache, and its one-row oracle, the model built straight from its
    /// table.
    struct Dense {
        cache: Arc<ModelCache>,
        oracle: BuiltModel,
    }

    impl Dense {
        fn predict(&self, x: &[f32]) -> Vec<f32> {
            let one = Matrix::from_vec(1, x.len(), x.to_vec());
            self.oracle.infer(&one, &Device::cpu()).row(0).to_vec()
        }
    }

    fn register_dense(server: &Server, e: &Engine, name: &str) -> Dense {
        let model = paper::dense_model(4, 2, 7);
        let table_name = format!("{name}_table");
        let (table, meta) = load_into_engine(e, &table_name, &model, Layout::NodeId).unwrap();
        let cache =
            server.register_model(name, &table_name, meta.clone(), Layout::NodeId, Device::cpu());
        let vector = e.config().vector_size;
        let oracle =
            build_parallel(&table, &meta, Layout::NodeId, &Device::cpu(), vector, 2).unwrap();
        Dense { cache, oracle }
    }

    /// `handle.wait()` on a thread of its own: a test fails instead of
    /// hanging when no answer comes.
    fn wait_within(handle: RequestHandle) -> Result<Response, ServeError> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(handle.wait()));
        rx.recv_timeout(Duration::from_secs(30)).expect("no answer within 30 s")
    }

    fn prediction(response: Result<Response, ServeError>) -> Vec<f32> {
        match response {
            Ok(Response::Prediction(row)) => row,
            other => panic!("expected a prediction, got {other:?}"),
        }
    }

    /// A served-only test model of one input and one output, `y = x`,
    /// whose inference first runs `hook`.
    struct Scripted {
        hook: Box<dyn Fn() + Send + Sync>,
        output_dim: fn() -> usize,
    }

    impl InferModel for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn input_dim(&self) -> usize {
            1
        }
        fn output_dim(&self) -> usize {
            (self.output_dim)()
        }
        fn operator(&self, _: Box<dyn Operator>, _: &[usize]) -> Box<dyn Operator> {
            unimplemented!("served only")
        }
        fn infer_rows(&self, input: &[f32], _: usize) -> vector_engine::Result<Vec<f32>> {
            (self.hook)();
            Ok(input.to_vec())
        }
    }

    /// A served-only test model of `.0` inputs and outputs, `y = x`.
    struct Identity(usize);

    impl InferModel for Identity {
        fn name(&self) -> &str {
            "identity"
        }
        fn input_dim(&self) -> usize {
            self.0
        }
        fn output_dim(&self) -> usize {
            self.0
        }
        fn operator(&self, _: Box<dyn Operator>, _: &[usize]) -> Box<dyn Operator> {
            unimplemented!("served only")
        }
        fn infer_rows(&self, input: &[f32], _: usize) -> vector_engine::Result<Vec<f32>> {
            Ok(input.to_vec())
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn register_scripted(e: &Engine, name: &str, model: Scripted) {
        let model: Arc<dyn InferModel> = Arc::new(model);
        e.catalog().register_model(name, Arc::new(move |_| Ok(Arc::clone(&model))));
    }

    #[test]
    fn overload_is_rejected_never_dropped() {
        // Nobody waits, so nobody leads: the queue can only fill, and
        // admission control is exercised deterministically.
        let e = engine();
        let server = Server::start(Arc::clone(&e), ServeConfig { queue_depth: 2, ..config() });
        let dense = register_dense(&server, &e, "m");

        let (x1, x2) = (vec![0.1, 0.2, 0.3, 0.4], vec![-0.5, 0.0, 0.5, 1.0]);
        let h1 = server.submit_predict("m", x1.clone()).unwrap();
        let h2 = server.submit_predict("m", x2.clone()).unwrap();
        let err = server.submit_predict("m", vec![0.0; 4]).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { depth: 2 });
        assert_eq!(server.stats().rejected, 1);

        // Shutdown answers both queued requests.
        server.shutdown();
        assert_eq!(prediction(h1.wait()), dense.predict(&x1));
        assert_eq!(prediction(h2.wait()), dense.predict(&x2));
        assert_eq!(server.submit_sql("SELECT 1 AS x").unwrap_err(), ServeError::ShuttingDown);
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn expired_deadlines_time_out_explicitly() {
        // A deadline already past at submit completes the request there:
        // had it been queued instead, this wait would lead it and come
        // back with a prediction.
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        register_dense(&server, &e, "m");
        let timed =
            server.submit_predict_with_timeout("m", vec![0.0; 4], Some(Duration::ZERO)).unwrap();
        assert_eq!(timed.wait().unwrap_err(), ServeError::Timeout);
        let untimed = server.submit_predict("m", vec![0.0; 4]).unwrap();
        server.shutdown();
        prediction(untimed.wait());
        let stats = server.stats();
        assert_eq!((stats.timeouts, stats.batches), (1, 1));
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn a_submit_after_shutdown_is_refused_even_past_its_deadline() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        register_dense(&server, &e, "m");
        server.shutdown();
        let submitted = server.stats().submitted;
        let expired = server.submit_predict_with_timeout("m", vec![0.0; 4], Some(Duration::ZERO));
        assert_eq!(expired.unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(server.stats().submitted, submitted, "shutdown admits nothing");
    }

    #[test]
    fn a_deadline_that_passes_in_the_queue_times_out_when_the_leader_takes_it() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        register_dense(&server, &e, "m");
        let h = server
            .submit_predict_with_timeout("m", vec![0.0; 4], Some(Duration::from_millis(20)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(h.wait().unwrap_err(), ServeError::Timeout);
        let stats = server.stats();
        assert_eq!((stats.timeouts, stats.batches, stats.completed), (1, 0, 1));
    }

    /// A serial engine (`parallelism: 0`) serves SQL on the pool and
    /// predicts on the waiting thread like any other.
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
        let sql = server.submit_sql("SELECT COUNT(*) AS n FROM t").unwrap();
        let Ok(Response::Rows(q)) = wait_within(sql) else { panic!("SQL must return rows") };
        assert_eq!(q.row(0)[0], Value::Int(3));
        let predict = server.submit_predict("m", vec![0.1; 4]).unwrap();
        assert!(prediction(wait_within(predict))[0].is_finite());
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

    /// A counting factory registered as `m`: 200 submits over an
    /// unchanged catalog bind once at submit, plus once per batch; a moved
    /// epoch binds again, once; a re-registered model is validated and
    /// served as the new one.
    #[test]
    fn the_lane_follows_the_catalog() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        let binds = Arc::new(AtomicUsize::new(0));
        let register = |dim: usize| {
            let (binds, model) = (Arc::clone(&binds), Arc::new(Identity(dim)));
            e.catalog().register_model(
                "m",
                Arc::new(move |_| {
                    binds.fetch_add(1, Ordering::SeqCst);
                    Ok(Arc::clone(&model) as Arc<dyn InferModel>)
                }),
            );
        };
        let binds_so_far = || binds.load(Ordering::SeqCst) as u64;
        register(4);
        for _ in 0..20 {
            let handles: Vec<RequestHandle> =
                (0..10).map(|i| server.submit_predict("m", vec![i as f32; 4]).unwrap()).collect();
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(prediction(h.wait()), vec![i as f32; 4]);
            }
        }
        let batches = server.stats().batches;
        assert_eq!(batches, 20, "the first waiter of each ten leads them all");
        assert_eq!(binds_so_far(), 1 + batches, "one bind at submit, one per batch");

        e.execute("CREATE TABLE unrelated (id INT)").unwrap();
        let h1 = server.submit_predict("m", vec![1.0; 4]).unwrap();
        assert_eq!(binds_so_far(), 2 + batches, "a moved epoch binds again");
        let h2 = server.submit_predict("m", vec![2.0; 4]).unwrap();
        assert_eq!(binds_so_far(), 2 + batches, "once");
        assert_eq!(prediction(h1.wait()), vec![1.0; 4]);
        assert_eq!(prediction(h2.wait()), vec![2.0; 4]);

        register(3);
        assert!(matches!(
            server.submit_predict("m", vec![0.0; 4]).unwrap_err(),
            ServeError::BadRequest(_)
        ));
        let x = vec![0.5, -0.5, 0.25];
        assert_eq!(prediction(wait_within(server.submit_predict("m", x.clone()).unwrap())), x);
    }

    #[test]
    fn spellings_of_one_model_share_one_lane() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        let dense = register_dense(&server, &e, "m");
        let inputs: Vec<Vec<f32>> =
            (0..8).map(|i| (0..4).map(|c| (i * 4 + c) as f32 * 0.05 - 0.7).collect()).collect();
        let handles: Vec<RequestHandle> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| server.submit_predict(["M", "m"][i / 4], x.clone()).unwrap())
            .collect();
        for (x, h) in inputs.iter().zip(handles) {
            assert_eq!(bits(&prediction(h.wait())), bits(&dense.predict(x)));
        }
        assert_eq!(server.stats().batches, 1, "\"M\" and \"m\" are one lane");
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
    fn same_model_requests_coalesce_into_one_batch() {
        const REQUESTS: usize = 8;
        let e = engine();
        let server =
            Server::start(Arc::clone(&e), ServeConfig { max_batch_rows: REQUESTS, ..config() });
        let dense = register_dense(&server, &e, "m");
        // Submitted before anyone waits: the first waiter leads all 8.
        let inputs: Vec<Vec<f32>> = (0..REQUESTS).map(|i| vec![i as f32 * 0.1; 4]).collect();
        let handles: Vec<RequestHandle> =
            inputs.iter().map(|x| server.submit_predict("m", x.clone()).unwrap()).collect();
        for (x, h) in inputs.iter().zip(handles) {
            assert_eq!(prediction(h.wait()), dense.predict(x));
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1, "requests must coalesce: {stats:?}");
        assert_eq!(stats.batched_rows, REQUESTS as u64);
        // One batch, one (cached) model build.
        assert_eq!(dense.cache.stats(ModelDtype::F32).1, 1);
    }

    #[test]
    fn a_dropped_handle_does_not_strand_a_later_request() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        let dense = register_dense(&server, &e, "m");
        drop(server.submit_predict("m", vec![0.3; 4]).unwrap());
        let x = vec![0.1, 0.2, 0.3, 0.4];
        let h = server.submit_predict("m", x.clone()).unwrap();
        assert_eq!(prediction(wait_within(h)), dense.predict(&x));
        // The leader took the dropped request from the front of the queue.
        let stats = server.stats();
        assert_eq!((stats.batches, stats.batched_rows), (1, 2));
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn a_waiter_behind_full_batches_leads_until_its_request_is_answered() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), ServeConfig { max_batch_rows: 2, ..config() });
        let dense = register_dense(&server, &e, "m");
        let inputs: Vec<Vec<f32>> = (0..5).map(|i| vec![0.2 * i as f32; 4]).collect();
        let mut handles: Vec<RequestHandle> =
            inputs.iter().map(|x| server.submit_predict("m", x.clone()).unwrap()).collect();
        let last = handles.pop().unwrap();
        assert_eq!(prediction(wait_within(last)), dense.predict(&inputs[4]));
        let stats = server.stats();
        assert_eq!((stats.batches, stats.batched_rows), (3, 5), "oldest first, two at a time");
        // The earlier requests rode those batches: answered, nothing left to lead.
        for (x, h) in inputs.iter().zip(handles) {
            assert_eq!(prediction(h.wait()), dense.predict(x));
        }
        assert_eq!(server.stats().batches, 3);
    }

    /// A batch of model `c` blocks inside inference. Models `a` and `b`
    /// are served meanwhile, and a second request of `c` waits for the
    /// first batch instead of running a second one beside it.
    #[test]
    fn one_model_runs_one_batch_at_a_time_while_others_lead_in_parallel() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        let (a, b) = (register_dense(&server, &e, "a"), register_dense(&server, &e, "b"));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let (active, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (act, mst) = (Arc::clone(&active), Arc::clone(&most));
        let hook = move || {
            mst.fetch_max(act.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            entered_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv_timeout(Duration::from_secs(30)).unwrap();
            act.fetch_sub(1, Ordering::SeqCst);
        };
        register_scripted(&e, "c", Scripted { hook: Box::new(hook), output_dim: || 1 });

        let c1 = server.submit_predict("c", vec![1.0]).unwrap();
        let (c1_tx, c1_done) = mpsc::channel();
        std::thread::spawn(move || c1_tx.send(c1.wait()));
        entered.recv_timeout(Duration::from_secs(30)).expect("c's first batch started");
        let c2 = server.submit_predict("c", vec![2.0]).unwrap();
        let (c2_tx, c2_done) = mpsc::channel();
        std::thread::spawn(move || c2_tx.send(c2.wait()));

        let x = vec![0.5, -0.5, 0.25, 1.0];
        let ha = server.submit_predict("a", x.clone()).unwrap();
        assert_eq!(prediction(wait_within(ha)), a.predict(&x));
        let hb = server.submit_predict("b", x.clone()).unwrap();
        assert_eq!(prediction(wait_within(hb)), b.predict(&x));
        std::thread::sleep(Duration::from_millis(20));
        assert!(entered.try_recv().is_err(), "c2 led a second batch of c beside the first");

        release.send(()).unwrap();
        let patience = Duration::from_secs(30);
        assert_eq!(prediction(c1_done.recv_timeout(patience).unwrap()), vec![1.0]);
        entered.recv_timeout(patience).expect("c2 leads once c1's batch ended");
        release.send(()).unwrap();
        assert_eq!(prediction(c2_done.recv_timeout(patience).unwrap()), vec![2.0]);
        assert_eq!(most.load(Ordering::SeqCst), 1, "two batches of c ran at once");
    }

    /// A leader that unwinds outside the caught inference (here the
    /// model's `output_dim` panics) answers its batch with `Internal` and
    /// hands the model on: the model's next request gets a leader.
    #[test]
    fn a_leader_that_unwinds_answers_its_batch_and_hands_the_model_on() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), config());
        let output_dim = || -> usize { panic!("output_dim boom") };
        register_scripted(&e, "boom", Scripted { hook: Box::new(|| {}), output_dim });
        let h1 = server.submit_predict("boom", vec![1.0]).unwrap();
        let h2 = server.submit_predict("boom", vec![2.0]).unwrap();
        assert!(std::thread::spawn(move || h1.wait()).join().is_err(), "the leader unwinds");
        assert!(matches!(wait_within(h2), Err(ServeError::Internal(_))));

        let h3 = server.submit_predict("boom", vec![3.0]).unwrap();
        let (tx, led) = mpsc::channel();
        std::thread::spawn(move || {
            let unwound = catch_unwind(AssertUnwindSafe(|| h3.wait())).is_err();
            tx.send(unwound).unwrap();
        });
        assert!(led.recv_timeout(Duration::from_secs(30)).expect("h3 got a leader"));
        server.shutdown();
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed), (3, 3));
    }

    #[test]
    fn shutdown_answers_unwaited_predicts_bit_identically_to_the_oracle() {
        let e = engine();
        let server = Server::start(Arc::clone(&e), ServeConfig { max_batch_rows: 4, ..config() });
        let models = [register_dense(&server, &e, "a"), register_dense(&server, &e, "b")];
        let inputs: Vec<Vec<f32>> = (0..10)
            .map(|i| (0..4).map(|c| ((i * 7 + c * 3) % 11) as f32 * 0.1).collect())
            .collect();
        let handles: Vec<RequestHandle> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| server.submit_predict(["a", "b"][i % 2], x.clone()).unwrap())
            .collect();
        server.shutdown();
        assert_eq!(server.stats().completed, 10, "answered before shutdown returned");
        for (i, (x, h)) in inputs.iter().zip(handles).enumerate() {
            let served = prediction(h.wait());
            let oracle = models[i % 2].predict(x);
            assert_eq!(bits(&served), bits(&oracle), "request {i}");
        }
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
            let row = prediction(server.submit_predict("mq", input.clone()).unwrap().wait());
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
        let cache = register_dense(&server, &e, "m").cache;
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
