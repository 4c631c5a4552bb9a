//! Serving-layer configuration. The server owns no compute threads —
//! batches run as tasks on the process-wide `sched` pool — so nothing
//! here sizes a thread pool.

use vector_engine::EngineConfig;

/// Knobs of the serving layer — the only home of the queue and flush
/// knobs. [`ServeConfig::from_engine`] takes the batch size from the
/// engine's [`EngineConfig`]. The precision is not a serving knob: the
/// server runs each model in the dtype
/// [`modeljoin::ModelDtype::for_engine`] picks from its engine's
/// `quantized_inference`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Only zero vs non-zero matters. Non-zero starts the coordinator
    /// thread that drains the request queue into scheduler tasks (compute
    /// parallelism is the scheduler pool's, not this number). Zero starts
    /// nothing (deterministic admission-control tests): requests queue
    /// until shutdown drains them.
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `Overloaded`.
    pub queue_depth: usize,
    /// Max time the coordinator holds a partial batch before flushing it.
    pub batch_flush_us: u64,
    /// Rows per coalesced inference batch (the engine's vector size is the
    /// natural choice: one batch is one vector through the kernels).
    pub max_batch_rows: usize,
    /// Coalesce same-model requests into one vectorized inference. Off =
    /// one engine call per request (the naive baseline `serve_sweep`
    /// measures against).
    pub batching: bool,
    /// Reuse built models across requests until model-table DML
    /// invalidates them. Off = rebuild per batch.
    pub model_cache: bool,
    /// Default per-request deadline in milliseconds; 0 disables it.
    pub default_timeout_ms: u64,
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
            batching: true,
            model_cache: true,
            default_timeout_ms: 0,
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
        assert!(s.batching && s.model_cache);
        assert_eq!(s.default_timeout_ms, 0);
    }
}
