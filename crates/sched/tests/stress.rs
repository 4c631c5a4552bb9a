//! Scheduler stress tests: no lost tasks under concurrent submit and
//! shutdown; cooperative nested scopes; scope-restricted helping.
//! These are the CI gate for the unified scheduler's liveness and
//! exactly-once guarantees (run in release on CI — they push tens of
//! thousands of tasks).

use sched::{Scheduler, TaskClass};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// 10k detached tasks complete across pool widths, including a pool that
/// has to run everything on the shutdown thread (0 workers).
#[test]
fn fuzz_10k_detached_tasks_across_pool_widths() {
    for workers in [0usize, 1, 2, 8] {
        let s = Scheduler::new(workers);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..10_000 {
            let counter = Arc::clone(&counter);
            let class = if i % 3 == 0 { TaskClass::Serve } else { TaskClass::Query };
            s.spawn(class, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 10_000, "lost tasks with {workers} workers");
    }
}

/// 10k scoped tasks, batched, across pool widths: every task runs, every
/// `run_scoped` returns only after its whole scope finished.
#[test]
fn fuzz_10k_scoped_tasks_across_pool_widths() {
    for workers in [1usize, 2, 8] {
        let s = Scheduler::new(workers);
        let counter = AtomicUsize::new(0);
        let mut submitted = 0usize;
        let mut batch = 1usize;
        while submitted < 10_000 {
            let n = batch.min(10_000 - submitted);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            s.run_scoped(TaskClass::Query, tasks);
            assert!(
                counter.load(Ordering::Relaxed) >= submitted + n,
                "run_scoped returned before its scope completed"
            );
            submitted += n;
            batch = (batch * 2).min(64);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
        s.shutdown();
    }
}

/// Concurrent submitters race a shutdown: every task submitted without an
/// error must run exactly once, whether a worker claimed it, the shutdown
/// drain ran it, or the post-shutdown inline path did.
#[test]
fn no_lost_tasks_under_concurrent_submit_and_shutdown() {
    for round in 0..8 {
        let s = Arc::new(Scheduler::new(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let submitted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let ran = Arc::clone(&ran);
                let submitted = Arc::clone(&submitted);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let ran = Arc::clone(&ran);
                        submitted.fetch_add(1, Ordering::SeqCst);
                        s.spawn(TaskClass::Query, move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        // Let the submitters race for a moment, then shut down under them.
        std::thread::sleep(Duration::from_millis(2 + round));
        s.shutdown();
        stop.store(true, Ordering::Relaxed);
        for h in submitters {
            h.join().unwrap();
        }
        // Post-join, all submissions have returned; spawn() guarantees the
        // task ran (worker, drain, or inline) by the time counting settles.
        assert_eq!(
            ran.load(Ordering::SeqCst),
            submitted.load(Ordering::SeqCst),
            "round {round}: submitted tasks were lost across shutdown"
        );
    }
}

/// Workers and external threads fan out scopes concurrently; nested
/// scopes (a scoped task that itself runs a scope) stay cooperative and
/// everything completes even at width 1.
#[test]
fn concurrent_nested_scopes_complete() {
    for workers in [1usize, 2, 8] {
        let s = Arc::new(Scheduler::new(workers));
        let total = Arc::new(AtomicUsize::new(0));
        let drivers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                            .map(|_| {
                                let s = &s;
                                let total = &total;
                                Box::new(move || {
                                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                                        .map(|_| {
                                            Box::new(|| {
                                                total.fetch_add(1, Ordering::Relaxed);
                                            })
                                                as Box<dyn FnOnce() + Send + '_>
                                        })
                                        .collect();
                                    s.run_scoped(TaskClass::Query, inner);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        s.run_scoped(TaskClass::Query, tasks);
                    }
                })
            })
            .collect();
        for h in drivers {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 4 * 4);
        s.shutdown();
    }
}

/// A panicking detached task neither kills its worker nor blocks others.
#[test]
fn detached_panics_do_not_kill_workers() {
    let s = Scheduler::new(2);
    let counter = Arc::new(AtomicUsize::new(0));
    for i in 0..200 {
        let counter = Arc::clone(&counter);
        if i % 10 == 0 {
            s.spawn(TaskClass::Query, || panic!("task panic"));
        } else {
            s.spawn(TaskClass::Query, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    s.shutdown();
    assert_eq!(counter.load(Ordering::Relaxed), 180);
}

/// Helping stays inside its own scope whatever the class: a pending
/// Serve-class task is not run by a Query scope's helping loop. Zero
/// workers, so the scope completes on the caller alone and the task runs
/// only at the shutdown drain.
#[test]
fn helping_loop_leaves_a_pending_serve_task_queued() {
    let s = Scheduler::new(0);
    let served = Arc::new(AtomicBool::new(false));
    {
        let served = Arc::clone(&served);
        s.spawn(TaskClass::Serve, move || served.store(true, Ordering::SeqCst));
    }
    let ran = AtomicUsize::new(0);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
        .map(|_| {
            Box::new(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    s.run_scoped(TaskClass::Query, tasks);
    assert_eq!(ran.load(Ordering::Relaxed), 4);
    assert!(!served.load(Ordering::SeqCst), "a helping loop ran a task outside its scope");
    s.shutdown();
    assert!(served.load(Ordering::SeqCst), "the shutdown drain runs the queued task");
}

/// The shape a ModelJoin query runs: every morsel of a fan-out asks one
/// `OnceLock` for the shared model, the first to get there builds it
/// through a nested fill fan-out, and its siblings block on the lock
/// meanwhile. Own-scope helping lets the builder run its fills itself
/// when no worker is free, so every round completes, on one and on two
/// workers, whether the fan-out starts off the pool (a query) or inside
/// a pool task (a served statement).
#[test]
fn morsels_blocked_on_a_build_that_fans_out_complete() {
    for workers in [1usize, 2] {
        for from_pool in [false, true] {
            let s = Arc::new(Scheduler::new(workers));
            let (tx, rx) = std::sync::mpsc::channel();
            let pool = Arc::clone(&s);
            let rounds = move || {
                for _ in 0..200 {
                    let model = std::sync::OnceLock::new();
                    let out = pool.fork_join(TaskClass::Query, 0..8usize, |_| {
                        *model.get_or_init(|| {
                            let fills = pool.fork_join(TaskClass::Query, 0..6usize, |p| p * 2);
                            fills.unwrap().iter().sum::<usize>()
                        })
                    });
                    assert_eq!(out, Ok(vec![30; 8]));
                }
                tx.send(()).unwrap();
            };
            if from_pool {
                s.spawn(TaskClass::Query, rounds);
            } else {
                std::thread::spawn(rounds);
            }
            let case = format!("{workers} workers, from the pool {from_pool}");
            rx.recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{case}: a blocked build did not finish"));
            s.shutdown();
        }
    }
}
