//! Serving-layer configuration. The server owns no threads — a predict
//! batch runs on the client thread that leads it, served SQL on the
//! process-wide `sched` pool — so nothing here sizes a thread pool or
//! times a flush.

use vector_engine::EngineConfig;

/// Knobs of the serving layer. [`ServeConfig::from_engine`] takes the
/// batch size from the engine's [`EngineConfig`]. Neither the precision
/// nor the model cache is a serving knob: a served model is the engine's
/// `PREDICT` registration, which runs in the dtype
/// [`modeljoin::ModelDtype::for_engine`] picks from the engine's
/// `quantized_inference` and caches its build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission bound. A predict is rejected with `Overloaded` when this
    /// many predicts wait for a leader, a SQL statement when this many
    /// statements are in flight. A batch that is running no longer counts:
    /// at most `queue_depth` predicts wait plus one batch of up to
    /// `max_batch_rows` per model runs.
    pub queue_depth: usize,
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
    /// Serving defaults for an engine: a 1024-deep queue and the engine's
    /// `vector_size` as the batch size.
    pub fn from_engine(cfg: &EngineConfig) -> ServeConfig {
        ServeConfig { queue_depth: 1024, max_batch_rows: cfg.vector_size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_from_engine_config() {
        let e = EngineConfig { vector_size: 256, parallelism: 3, ..Default::default() };
        let s = ServeConfig::from_engine(&e);
        assert_eq!((s.queue_depth, s.max_batch_rows), (1024, 256));
    }
}
