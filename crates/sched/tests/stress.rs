//! Scheduler stress tests: no lost tasks under concurrent submit, steal,
//! and shutdown; cooperative nested scopes; scope-restricted helping.
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
            let class = match i % 3 {
                0 => TaskClass::Serve,
                1 => TaskClass::Query,
                _ => TaskClass::Kernel,
            };
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
                                    s.run_scoped(TaskClass::Kernel, inner);
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
