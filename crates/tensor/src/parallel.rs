//! Intra-kernel parallelism: the tensor crate's door to the scheduler.
//!
//! The paper's MKL-backed operator gets its throughput from a kernel layer
//! that can split one large `sgemm` across cores. Here the blocked GEMM
//! hands its M-block ranges to [`run_scoped`], which forwards them to the
//! process-wide work-stealing pool in `crates/sched` as
//! `TaskClass::Kernel` tasks, so GEMM tiles share workers with operator
//! morsels and serve batches. This module owns no threads; it holds only
//! the [`set_kernel_threads`] budget — how many ways one large kernel may
//! split. The default of 1 keeps kernels single-threaded for standalone
//! callers; `execute_model_join` raises it to the engine's pool size.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Requested intra-kernel thread count (including the calling thread).
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// No-op: kernel fan-outs always run on the `sched` pool. Kept only
/// because `benchmark/src/probes.rs` (frozen outside `benchmark` PRs)
/// calls it; the next `benchmark` PR drops the call and this function.
pub fn set_unified_scheduler(_on: bool) {}

/// Set how many threads a single large kernel may use (clamped to ≥ 1).
/// Cheap to call per query. Also grows the shared scheduler (grow-only)
/// so standalone kernel callers (benches, tests) get the parallelism they
/// asked for — `n` includes the calling thread, hence `n - 1` pool
/// workers.
pub fn set_kernel_threads(n: usize) {
    let n = n.max(1);
    KERNEL_THREADS.store(n, Ordering::Relaxed);
    sched::configure_workers(n - 1);
}

/// Current intra-kernel thread budget.
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed)
}

/// Run `tasks` to completion as Kernel-class work on the shared pool: the
/// calling thread runs the first task and helps with the rest of its own
/// scope, so a kernel fan-out nested inside an operator morsel never
/// blocks a scheduler worker on stealable work. Blocks until every task
/// has finished, so tasks may borrow from the caller's stack; a task
/// panic is re-raised here after all tasks have completed.
pub(crate) fn run_scoped(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    obs::metrics::TENSOR_POOL_JOBS.add(tasks.len().saturating_sub(1) as u64);
    sched::global().run_scoped(sched::TaskClass::Kernel, tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scoped_executes_every_task_with_borrows() {
        let mut out = vec![0usize; 8];
        {
            let chunks: Vec<&mut [usize]> = out.chunks_mut(2).collect();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .into_iter()
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = i * 10 + j;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }
        assert_eq!(out, vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn knob_clamps_to_one() {
        let before = kernel_threads();
        set_kernel_threads(0);
        assert_eq!(kernel_threads(), 1);
        set_kernel_threads(before.max(1));
    }

    #[test]
    fn pool_worker_panic_is_propagated() {
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                vec![Box::new(|| {}), Box::new(|| panic!("boom"))];
            run_scoped(tasks);
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_panic_for_later_batches() {
        let _ = std::panic::catch_unwind(|| {
            run_scoped(vec![
                Box::new(|| panic!("first batch dies")) as Box<dyn FnOnce() + Send + '_>,
                Box::new(|| {}),
            ]);
        });
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }
}
