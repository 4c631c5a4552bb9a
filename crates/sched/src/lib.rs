//! The morsel-driven work-stealing scheduler: the **one process-wide
//! pool** that owns every compute thread of the stack and schedules every
//! unit of work — a GEMM tile range (`tensor`), an operator morsel
//! (`vector-engine`, `modeljoin`, `shard`), a coalesced inference batch
//! (`serve`) — from the same queues. No other crate spawns compute
//! threads, so mixed SQL + inference traffic cannot oversubscribe the
//! machine (a 12-way partition fan-out inside each of 12 serve batches is
//! 144 queued tasks, not 144 runnable threads).
//!
//! # Architecture
//!
//! * **Per-worker deques + global injectors.** Work submitted from a
//!   worker thread goes to that worker's own deque (popped LIFO for
//!   locality); work submitted from outside goes to one of two global
//!   injector queues. Idle workers claim from the high-priority injector
//!   first, then their own deque, then the normal injector, then steal
//!   FIFO from a sibling's deque (counted under `sched.steals`).
//! * **Task classes.** [`TaskClass::Serve`] routes through the
//!   high-priority injector so latency-sensitive serve batches run before
//!   queued scan morsels; [`TaskClass::Query`] and [`TaskClass::Kernel`]
//!   share the normal injector. There is no preemption — priority acts at
//!   task boundaries, which is why callers submit *morsels* (bounded work
//!   units), not whole queries.
//! * **Condvar parking.** Workers that find nothing runnable park on a
//!   condvar (`sched.parks`/`sched.unparks`); submission wakes one. The
//!   queued-task count is re-checked under the park lock, so a submission
//!   racing a worker's decision to park can never be lost.
//! * **Cooperative nested parallelism.** [`Scheduler::run_scoped`] is the
//!   fork-join primitive: the caller keeps one task for itself, submits
//!   the rest, and while waiting *helps* by claiming and running tasks
//!   **of its own scope** that no peer has stolen yet. A worker therefore
//!   never blocks while its own sub-tasks sit queued (a partition task
//!   whose GEMM fans out runs the tiles itself if no one else does).
//!   [`Scheduler::fork_join`] is the ordered, value-returning form every
//!   operator fan-out uses. Helping is deliberately
//!   scope-restricted: running *unrelated* tasks on the waiting stack
//!   could re-enter thread-local kernel scratch state mid-borrow and adds
//!   unbounded latency to the blocked scope.
//! * **Panic isolation.** Every task runs under `catch_unwind`
//!   (`sched.panics_caught`); a panicking task marks its scope so
//!   `run_scoped` re-raises at the call site, and a panicking detached
//!   task never takes a worker down.
//!
//! The process-wide instance lives behind [`global`]; the engine sizes it
//! via [`configure_workers`] from `EngineConfig::worker_threads`
//! (grow-only). Independent instances
//! ([`Scheduler::new`]) exist for tests, which also exercise
//! [`Scheduler::shutdown`] — drain semantics guarantee no submitted task
//! is ever lost, even racing shutdown.

use obs::metrics as om;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Priority/accounting class of a scheduled task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskClass {
    /// Latency-sensitive serving work (coalesced inference batches, served
    /// SQL). Routed through the high-priority injector.
    Serve,
    /// Relational operator morsels (partition scans, partial aggregates).
    Query,
    /// Tensor kernel work (GEMM tile ranges).
    Kernel,
}

impl TaskClass {
    fn submitted_counter(self) -> &'static obs::Counter {
        match self {
            TaskClass::Serve => &om::SCHED_TASKS_SERVE,
            TaskClass::Query => &om::SCHED_TASKS_QUERY,
            TaskClass::Kernel => &om::SCHED_TASKS_KERNEL,
        }
    }

    fn run_histogram(self) -> &'static obs::Histogram {
        match self {
            TaskClass::Serve => &om::SCHED_TASK_SERVE_US,
            TaskClass::Query => &om::SCHED_TASK_QUERY_US,
            TaskClass::Kernel => &om::SCHED_TASK_KERNEL_US,
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct TaskEntry {
    job: Job,
    class: TaskClass,
    /// Scope identity for scope-restricted helping (0 = detached).
    scope: usize,
    /// Submission instant, captured only when spans are enabled, feeding
    /// the queue-wait histogram at claim time.
    queued: Option<Instant>,
}

/// Upper bound on workers; deques are pre-allocated so growing the pool
/// never reallocates a structure a running worker might hold a lock into.
const MAX_WORKERS: usize = 64;

struct Inner {
    /// High-priority injector (`TaskClass::Serve`).
    high: Mutex<VecDeque<TaskEntry>>,
    /// Normal injector (`Query` / `Kernel` submitted off-pool).
    normal: Mutex<VecDeque<TaskEntry>>,
    /// Per-worker deques; only `spawned` of them have an owner.
    deques: Vec<Mutex<VecDeque<TaskEntry>>>,
    /// Workers spawned so far (grow-only).
    spawned: AtomicUsize,
    /// Tasks currently queued anywhere. Incremented before the unpark
    /// notification and re-read under the park lock, closing the
    /// submit-vs-park race.
    pending: AtomicUsize,
    /// Workers currently blocked (or about to block) on `unpark`. Lets
    /// `push` skip the park-lock + futex wake entirely while every worker
    /// is busy — the common case under load. SeqCst on both this and
    /// `pending` closes the store-buffer race: a pusher that reads
    /// `parked == 0` is ordered such that the not-yet-parked worker must
    /// observe its `pending` increment and skip the wait.
    parked: AtomicUsize,
    park: Mutex<()>,
    unpark: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    /// (Inner address, worker index) when this thread is a pool worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// Set while a helping loop runs a claimed high-priority task, so that
    /// task's own nested scopes do not recurse into further high-helping
    /// (bounds stack depth to one preemption level per thread).
    static HIGH_HELP: Cell<bool> = const { Cell::new(false) };
}

impl Inner {
    fn new() -> Inner {
        Inner {
            high: Mutex::new(VecDeque::new()),
            normal: Mutex::new(VecDeque::new()),
            deques: (0..MAX_WORKERS).map(|_| Mutex::new(VecDeque::new())).collect(),
            spawned: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            unpark: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn addr(&self) -> usize {
        self as *const Inner as usize
    }

    /// This thread's worker index in *this* pool, if any.
    fn own_index(&self) -> Option<usize> {
        match WORKER.get() {
            Some((addr, idx)) if addr == self.addr() => Some(idx),
            _ => None,
        }
    }

    fn push(&self, entry: TaskEntry, notify: bool) {
        entry.class.submitted_counter().add(1);
        // Count the task *before* it becomes claimable: `claimed()` runs
        // right after a dequeue, so enqueue-then-increment would let a
        // spinning worker drive `pending` below zero.
        let depth = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        om::SCHED_QUEUE_DEPTH.set(depth as i64);
        match self.own_index() {
            // Nested submission from a worker: its own deque, LIFO end.
            Some(idx) => self.deques[idx].lock().unwrap().push_back(entry),
            None => match entry.class {
                TaskClass::Serve => self.high.lock().unwrap().push_back(entry),
                TaskClass::Query | TaskClass::Kernel => {
                    self.normal.lock().unwrap().push_back(entry)
                }
            },
        }
        if notify && self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap();
            self.unpark.notify_one();
        }
    }

    fn claimed(&self) {
        let depth = self.pending.fetch_sub(1, Ordering::SeqCst) - 1;
        om::SCHED_QUEUE_DEPTH.set(depth as i64);
    }

    /// Claim the next task for worker `idx`: high injector → own deque
    /// (LIFO) → normal injector → steal FIFO from a sibling.
    fn claim(&self, idx: usize) -> Option<TaskEntry> {
        if let Some(e) = self.high.lock().unwrap().pop_front() {
            self.claimed();
            return Some(e);
        }
        if let Some(e) = self.deques[idx].lock().unwrap().pop_back() {
            self.claimed();
            return Some(e);
        }
        if let Some(e) = self.normal.lock().unwrap().pop_front() {
            self.claimed();
            return Some(e);
        }
        let n = self.spawned.load(Ordering::Acquire);
        for off in 1..n {
            let victim = (idx + off) % n;
            if let Some(e) = self.deques[victim].lock().unwrap().pop_front() {
                om::SCHED_STEALS.add(1);
                self.claimed();
                return Some(e);
            }
        }
        None
    }

    /// Claim the next high-priority (Serve-class) task, any scope. Used by
    /// non-Kernel helping loops for morsel-boundary preemption: a thread
    /// grinding through scan morsels runs pending serve batches between
    /// them instead of letting them wait out the whole scan.
    fn claim_high(&self) -> Option<TaskEntry> {
        let e = self.high.lock().unwrap().pop_front()?;
        self.claimed();
        Some(e)
    }

    /// Claim a task belonging to `scope`, searching every queue it can
    /// live in. Used by the helping loop of [`Scheduler::run_scoped`]:
    /// scope tasks sit either in the submitting worker's deque or in an
    /// injector, and stealing removes (never relocates) entries, so a miss
    /// here means every scope task is already claimed by a peer.
    fn claim_scope(&self, scope: usize) -> Option<TaskEntry> {
        let mut queues: Vec<&Mutex<VecDeque<TaskEntry>>> = vec![&self.high, &self.normal];
        if let Some(idx) = self.own_index() {
            queues.insert(0, &self.deques[idx]);
        }
        for queue in queues {
            let mut q = queue.lock().unwrap();
            if let Some(pos) = q.iter().position(|e| e.scope == scope) {
                let e = q.remove(pos).expect("position in bounds");
                drop(q);
                self.claimed();
                return Some(e);
            }
        }
        None
    }

    /// Run one claimed task: record queue wait and per-class run time
    /// (span-gated), isolate panics.
    fn run_entry(&self, entry: TaskEntry) {
        if let Some(queued) = entry.queued {
            om::SCHED_QUEUE_WAIT_US.record_duration(queued.elapsed());
        }
        let started = obs::spans_enabled().then(Instant::now);
        if catch_unwind(AssertUnwindSafe(entry.job)).is_err() {
            om::SCHED_PANICS_CAUGHT.add(1);
        }
        if let Some(t0) = started {
            entry.class.run_histogram().record_duration(t0.elapsed());
        }
    }
}

fn worker_loop(inner: Arc<Inner>, idx: usize) {
    WORKER.set(Some((inner.addr(), idx)));
    loop {
        if let Some(entry) = inner.claim(idx) {
            inner.run_entry(entry);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = inner.park.lock().unwrap();
        // Declare intent to park *before* re-reading `pending`: a pusher
        // orders its `pending` increment before its `parked` read, so one
        // side always sees the other (no lost wakeup, no lost skip).
        inner.parked.fetch_add(1, Ordering::SeqCst);
        if inner.pending.load(Ordering::SeqCst) == 0 && !inner.shutdown.load(Ordering::Acquire) {
            om::SCHED_PARKS.add(1);
            let _guard = inner.unpark.wait(guard).unwrap();
            om::SCHED_UNPARKS.add(1);
        }
        inner.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Completion latch of one `run_scoped` fan-out.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap();
        }
    }
}

/// A task of a [`Scheduler::fork_join`] fan-out panicked. Every task of
/// the fan-out had finished by the time this was returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskPanicked;

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("parallel worker panicked")
    }
}

impl std::error::Error for TaskPanicked {}

/// A work-stealing pool. Most callers use the process-wide [`global`]
/// instance; owned instances exist for tests and support [`Scheduler::shutdown`].
pub struct Scheduler {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// A pool with `workers` threads. Zero workers is legal: detached
    /// tasks then only run at [`Scheduler::shutdown`], but `run_scoped`
    /// still completes (the caller runs its whole scope itself).
    pub fn new(workers: usize) -> Scheduler {
        let s = Scheduler { inner: Arc::new(Inner::new()), handles: Mutex::new(Vec::new()) };
        s.ensure_workers(workers);
        s
    }

    /// Grow the pool to at least `n` workers (never shrinks, capped at an
    /// internal maximum). Cheap when already satisfied.
    pub fn ensure_workers(&self, n: usize) {
        let n = n.min(MAX_WORKERS);
        if self.inner.spawned.load(Ordering::Acquire) >= n {
            return;
        }
        let mut handles = self.handles.lock().unwrap();
        let mut spawned = self.inner.spawned.load(Ordering::Acquire);
        while spawned < n {
            let inner = Arc::clone(&self.inner);
            let idx = spawned;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sched-worker-{idx}"))
                    .spawn(move || worker_loop(inner, idx))
                    .expect("spawn sched worker"),
            );
            spawned += 1;
            // Publish after the deque owner exists so stealers only scan
            // live indices.
            self.inner.spawned.store(spawned, Ordering::Release);
        }
        if self.is_global() {
            om::SCHED_WORKERS.set(spawned as i64);
        }
    }

    fn is_global(&self) -> bool {
        GLOBAL.get().is_some_and(|g| std::ptr::eq(g, self))
    }

    /// Current worker-thread count.
    pub fn workers(&self) -> usize {
        self.inner.spawned.load(Ordering::Acquire)
    }

    /// Submit a detached task. Requires at least one worker to make
    /// progress before shutdown; after [`Scheduler::shutdown`] the task
    /// runs inline on the submitting thread (nothing is ever lost).
    pub fn spawn(&self, class: TaskClass, job: impl FnOnce() + Send + 'static) {
        self.spawn_entry(class, Box::new(job), true);
    }

    /// Submit a detached task without waking a parked worker — for the
    /// flush-then-help pattern, where the producer immediately tries to
    /// run the task itself via [`Scheduler::help_one`] and a woken worker
    /// would only lose the claim race and re-park. Safe against stranding:
    /// a worker about to park re-reads the pending-task count under the
    /// park lock and stays awake, so a quiet task can only sit while every
    /// worker is already parked — and then the caller's own `help_one`
    /// (or any later notifying submission) claims it.
    pub fn spawn_quiet(&self, class: TaskClass, job: impl FnOnce() + Send + 'static) {
        self.spawn_entry(class, Box::new(job), false);
    }

    fn spawn_entry(&self, class: TaskClass, job: Box<dyn FnOnce() + Send + 'static>, notify: bool) {
        let entry =
            TaskEntry { job, class, scope: 0, queued: obs::spans_enabled().then(Instant::now) };
        if self.inner.shutdown.load(Ordering::Acquire) {
            self.inner.run_entry(entry);
            return;
        }
        self.inner.push(entry, notify);
        // A submission can race shutdown: the flag may have been set after
        // the check above, with the drain already past our entry. Draining
        // here (claim-based, so exactly-once) closes that window.
        if self.inner.shutdown.load(Ordering::Acquire) {
            self.drain_inline();
        }
    }

    /// Fork-join over borrowed tasks: the caller runs the first task, the
    /// rest are submitted to the pool, and the caller *helps* run its own
    /// scope's unclaimed tasks while waiting. Returns only when every task
    /// has finished, so tasks may borrow from the caller's stack. A panic
    /// in any task is re-raised here after all tasks completed.
    pub fn run_scoped(&self, class: TaskClass, tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        if n == 1 {
            for t in tasks {
                t();
            }
            return;
        }
        let latch = Arc::new(Latch::new(n));
        let scope = Arc::as_ptr(&latch) as usize;
        let mut iter = tasks.into_iter();
        let own = iter.next().expect("n >= 1");
        for task in iter {
            // SAFETY: the job only outlives this function if we return
            // before the latch observed every count_down. We wait
            // unconditionally (including when our own task panics), so the
            // borrowed data outlives every job. The transmute only erases
            // the lifetime; the layout of `Box<dyn FnOnce() + Send>` is
            // lifetime-independent.
            let job: Job = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + '_>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(task)
            };
            let latch = Arc::clone(&latch);
            let wrapped: Job = Box::new(move || {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    latch.panicked.store(true, Ordering::Relaxed);
                }
                latch.count_down();
            });
            self.inner.push(
                TaskEntry {
                    job: wrapped,
                    class,
                    scope,
                    queued: obs::spans_enabled().then(Instant::now),
                },
                true,
            );
        }
        let own_result = catch_unwind(AssertUnwindSafe(own));
        latch.count_down();
        // Help: run own-scope tasks no peer has claimed, preempting at
        // task boundaries for pending Serve-class work (morsel-boundary
        // preemption — a serve batch never waits out a whole scan). Kernel
        // scopes are excluded: sgemm holds its packing scratch RefCell
        // across this loop, and a preempting task could re-enter it. The
        // HIGH_HELP flag keeps a preempting task's own scopes from
        // recursing into further preemption. A claim_scope miss means all
        // scope tasks are claimed (running or done elsewhere) — tasks are
        // never re-queued — so waiting on the latch is then the only
        // option.
        let help_high = class != TaskClass::Kernel && !HIGH_HELP.get();
        while !latch.is_done() {
            if help_high {
                if let Some(entry) = self.inner.claim_high() {
                    HIGH_HELP.set(true);
                    self.inner.run_entry(entry);
                    HIGH_HELP.set(false);
                    continue;
                }
            }
            match self.inner.claim_scope(scope) {
                Some(entry) => self.inner.run_entry(entry),
                None => {
                    latch.wait();
                    break;
                }
            }
        }
        if let Err(payload) = own_result {
            resume_unwind(payload);
        }
        if latch.panicked.load(Ordering::Relaxed) {
            panic!("sched: scoped task panicked");
        }
    }

    /// Ordered fork-join: run `task` once per input on the pool (the
    /// caller takes part, see [`Scheduler::run_scoped`]) and return the
    /// results in input order. Zero or one input runs inline on the
    /// caller. A panicking task yields [`TaskPanicked`] — an error value,
    /// not an unwind — and only after every sibling has finished, so
    /// `task` and the inputs may borrow from the caller's stack.
    pub fn fork_join<I, T, F>(
        &self,
        class: TaskClass,
        inputs: impl IntoIterator<Item = I>,
        task: F,
    ) -> Result<Vec<T>, TaskPanicked>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let inputs: Vec<I> = inputs.into_iter().collect();
        let mut slots: Vec<Option<T>> = inputs.iter().map(|_| None).collect();
        let task = &task;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .zip(inputs)
            .map(|(slot, input)| {
                Box::new(move || *slot = Some(task(input))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        catch_unwind(AssertUnwindSafe(|| self.run_scoped(class, jobs)))
            .map_err(|_| TaskPanicked)?;
        Ok(slots.into_iter().map(|s| s.expect("run_scoped returned, so every task ran")).collect())
    }

    /// Claim and run one queued high-priority (Serve-class) task inline on
    /// the calling thread; returns whether anything ran. Lets a producer
    /// that just spawned a Serve task (the batch coordinator) execute it
    /// immediately instead of paying a park/unpark handoff when every pool
    /// worker is busy or still waking up.
    pub fn help_one(&self) -> bool {
        match self.inner.claim_high() {
            Some(entry) => {
                self.inner.run_entry(entry);
                true
            }
            None => false,
        }
    }

    /// Run every queued task on this thread until the queues are empty.
    fn drain_inline(&self) {
        loop {
            let entry = self
                .inner
                .high
                .lock()
                .unwrap()
                .pop_front()
                .or_else(|| self.inner.normal.lock().unwrap().pop_front())
                .or_else(|| {
                    let n = self.inner.spawned.load(Ordering::Acquire);
                    (0..n).find_map(|i| self.inner.deques[i].lock().unwrap().pop_front())
                });
            match entry {
                Some(e) => {
                    self.inner.claimed();
                    self.inner.run_entry(e);
                }
                None => return,
            }
        }
    }

    /// Stop the pool: workers finish everything queued, exit, and are
    /// joined; whatever was submitted concurrently with the shutdown and
    /// not claimed by a worker runs inline here. After shutdown, `spawn`
    /// runs tasks inline — no task handed to this scheduler is ever lost.
    /// Idempotent. (The [`global`] scheduler is never shut down.)
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.park.lock().unwrap();
            self.inner.unpark.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.drain_inline();
    }
}

static GLOBAL: OnceLock<Scheduler> = OnceLock::new();

/// The process-wide scheduler. Starts with zero workers; size it with
/// [`configure_workers`] (the engine does this from
/// `EngineConfig::worker_threads`).
pub fn global() -> &'static Scheduler {
    GLOBAL.get_or_init(|| Scheduler::new(0))
}

/// Grow the global pool to at least `n` workers (grow-only; the pool is
/// process-wide state shared by every engine in the process).
pub fn configure_workers(n: usize) {
    global().ensure_workers(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_scoped_executes_every_task_with_borrows() {
        let s = Scheduler::new(2);
        let mut out = vec![0usize; 8];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(2)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = i * 10 + j;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            s.run_scoped(TaskClass::Query, tasks);
        }
        assert_eq!(out, vec![0, 1, 10, 11, 20, 21, 30, 31]);
        s.shutdown();
    }

    #[test]
    fn run_scoped_with_zero_workers_is_fully_cooperative() {
        let s = Scheduler::new(0);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        s.run_scoped(TaskClass::Kernel, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scoped_task_panic_is_reraised_after_completion() {
        let s = Scheduler::new(1);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let completed = Arc::clone(&completed);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("scoped boom")),
                Box::new(move || {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            s.run_scoped(TaskClass::Query, tasks);
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 1, "sibling task still ran");
        // The pool survives the panic for later batches.
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        s.run_scoped(TaskClass::Query, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        s.shutdown();
    }

    #[test]
    fn fork_join_results_are_in_index_order_under_stealing() {
        let s = Arc::new(Scheduler::new(3));
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = Arc::clone(&s);
        s.spawn(TaskClass::Query, move || {
            // On a pool worker the fan-out lands in that worker's own
            // deque. It blocks in task 0 until tasks 1 and 2 also reach
            // the barrier, which they only can on siblings that stole them.
            let barrier = std::sync::Barrier::new(3);
            let out = pool.fork_join(TaskClass::Query, 0..64usize, |i| {
                if i < 3 {
                    barrier.wait();
                }
                i * 10
            });
            tx.send(out).unwrap();
        });
        let want: Vec<usize> = (0..64).map(|i| i * 10).collect();
        assert_eq!(rx.recv().unwrap(), Ok(want));
        s.shutdown();
    }

    #[test]
    fn fork_join_reports_a_panic_only_after_every_sibling_ran() {
        let s = Scheduler::new(2);
        // Borrowed by every task: must stay alive until the last one ends,
        // although the caller's own task (index 0) panics first.
        let ran = AtomicUsize::new(0);
        let out = s.fork_join(TaskClass::Query, 0..8usize, |i| {
            if i % 4 == 0 {
                panic!("fork_join boom");
            }
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, Err(TaskPanicked));
        assert_eq!(ran.load(Ordering::Relaxed), 6, "both panics waited for all six siblings");
        s.shutdown();
    }

    #[test]
    fn fork_join_runs_zero_and_one_task_on_the_caller() {
        let s = Scheduler::new(1);
        let me = std::thread::current().id();
        assert_eq!(s.fork_join(TaskClass::Query, Vec::<u8>::new(), |b| b), Ok(Vec::new()));
        let one = s.fork_join(TaskClass::Query, [7], |x| (x, std::thread::current().id()));
        assert_eq!(one, Ok(vec![(7, me)]));
        let solo = s.fork_join(TaskClass::Query, [()], |()| -> u8 { panic!("solo boom") });
        assert_eq!(solo, Err(TaskPanicked), "an inline task's panic is still an error value");
        s.shutdown();
    }

    #[test]
    fn spawned_tasks_complete_and_shutdown_drains() {
        let s = Scheduler::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            s.spawn(TaskClass::Serve, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        // Post-shutdown spawns run inline.
        let counter2 = Arc::clone(&counter);
        s.spawn(TaskClass::Serve, move || {
            counter2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 101);
    }

    #[test]
    fn nested_scopes_complete_on_one_worker() {
        // A scoped task that itself fans out: cooperative helping must
        // resolve both levels even when the pool has a single worker.
        let s = Scheduler::new(1);
        let total = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    let inner_total = AtomicUsize::new(0);
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                inner_total.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    global().run_scoped(TaskClass::Kernel, inner);
                    total.fetch_add(inner_total.load(Ordering::Relaxed), Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        s.run_scoped(TaskClass::Query, tasks);
        assert_eq!(total.load(Ordering::Relaxed), 16);
        s.shutdown();
    }

    #[test]
    fn global_pool_grows_monotonically() {
        let before = global().workers();
        configure_workers(1);
        assert!(global().workers() >= 1);
        configure_workers(0);
        assert!(global().workers() >= before.max(1), "never shrinks");
    }
}
