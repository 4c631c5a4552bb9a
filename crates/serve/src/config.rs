//! Serving-layer configuration. The server owns no compute threads —
//! batches run as tasks on the process-wide `sched` pool — so nothing
//! here sizes a thread pool.

use vector_engine::EngineConfig;

/// Knobs of the serving layer — the only home of the queue and flush
/// knobs. [`ServeConfig::from_engine`] takes the batch size from the
/// engine's [`EngineConfig`]. Neither the precision nor the model cache is
/// a serving knob: a served model is the engine's `PREDICT` registration,
/// which runs in the dtype [`modeljoin::ModelDtype::for_engine`] picks from
/// the engine's `quantized_inference` and caches its build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Only zero vs non-zero matters. Non-zero starts the coordinator
    /// thread that drains the admission queue into scheduler tasks
    /// (compute parallelism is the scheduler pool's, not this number).
    /// Zero starts nothing (deterministic admission-control tests):
    /// predicts queue until shutdown drains them; SQL, which never
    /// queues, still runs.
    pub workers: usize,
    /// Admission bound. A predict is rejected with `Overloaded` when this
    /// many predicts wait in the admission queue, a SQL statement when this
    /// many scheduler tasks are in flight. A running coordinator drains the
    /// whole queue into per-model pending batches on every wake-up and
    /// dispatches full batches whatever the in-flight count, so a running
    /// server rejects a predict only when submitters outrun one drain, and
    /// its in-flight predict batches have no bound.
    pub queue_depth: usize,
    /// Max time the coordinator holds a partial batch before flushing it.
    pub batch_flush_us: u64,
    /// Rows per coalesced inference batch (the engine's vector size is the
    /// natural choice: one batch is one vector through the kernels).
    pub max_batch_rows: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::from_engine(&EngineConfig::default())
    }
}

impl ServeConfig {
    /// Serving defaults for an engine: one coordinator, a 1024-deep queue,
    /// a 200 µs flush deadline, and the engine's `vector_size` as the batch
    /// size. `workers` is always 1 — a running
    /// coordinator — whatever the engine's `parallelism` (which may be 0).
    pub fn from_engine(cfg: &EngineConfig) -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_depth: 1024,
            batch_flush_us: 200,
            max_batch_rows: cfg.vector_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_from_engine_config() {
        let e = EngineConfig { vector_size: 256, parallelism: 3, ..Default::default() };
        let s = ServeConfig::from_engine(&e);
        assert_eq!(
            (s.workers, s.queue_depth, s.batch_flush_us, s.max_batch_rows),
            (1, 1024, 200, 256)
        );
    }
}
