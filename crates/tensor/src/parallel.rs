//! Intra-kernel parallelism: the tensor crate's door to the scheduler.
//!
//! The paper's MKL-backed operator gets its throughput from a kernel layer
//! that can split one large `sgemm` across cores. Here the blocked GEMM
//! hands its M-block ranges to [`run_scoped`], which forwards them to the
//! process-wide work-stealing pool in `crates/sched` as
//! `TaskClass::Kernel` tasks, so GEMM tiles share workers with operator
//! morsels and served SQL. This module owns no threads and no state:
//! how many ways a GEMM splits is an argument — fixed per layer when a
//! model is built ([`split_width`] over the build's parallelism), or the
//! pool's size for the generic `sgemm` entry. The split never changes a
//! bit of the result: every tile runs the same arithmetic whichever
//! thread runs it.

/// Minimum FLOP count before a multiply is split across the worker pool;
/// below this the fork/join latency dominates.
const PARALLEL_MIN_FLOPS: u64 = 1 << 23;

/// No-op: kernel fan-outs always run on the `sched` pool. Kept only
/// because `benchmark/src/probes.rs` (frozen outside `benchmark` PRs)
/// calls it; the next `benchmark` PR drops the call and this function.
pub fn set_unified_scheduler(_on: bool) {}

/// No-op: a built model's GEMMs split as its kernel plan fixed at build
/// time, and the generic `sgemm` up to the scheduler pool's size. Kept
/// only because `benchmark/src/probes.rs` (frozen outside `benchmark`
/// PRs) calls it; the next `benchmark` PR drops the call and this
/// function.
pub fn set_kernel_threads(_n: usize) {}

/// How many ways an `m x k · k x n` multiply splits given up to `threads`:
/// 1 below `PARALLEL_MIN_FLOPS` (2^23), where fork/join latency outweighs the
/// work, else `threads` capped at the scheduler pool's thread count (a
/// wider split only queues more tasks), and always at least 1.
pub fn split_width(threads: usize, m: usize, k: usize, n: usize) -> usize {
    if crate::blas::gemm_flops(m, k, n) >= PARALLEL_MIN_FLOPS {
        threads.clamp(1, pool_threads())
    } else {
        1
    }
}

/// The scheduler pool's worker count, at least 1: the widest useful
/// split, the split budget of the generic `sgemm` and `qgemm_dense`
/// entries, and the UDF host count of a parallel `core::Experiment`.
pub fn pool_threads() -> usize {
    sched::global().workers().max(1)
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
    use std::sync::atomic::Ordering;

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
    fn small_multiplies_do_not_split() {
        assert_eq!(split_width(4, 32, 64, 64), 1);
        assert_eq!(split_width(4, 1024, 512, 512), 4.min(pool_threads()));
        assert_eq!(split_width(0, 1024, 512, 512), 1);
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
