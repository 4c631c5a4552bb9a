//! Engine configuration.

use std::sync::OnceLock;

/// Engine tuning knobs. Defaults reproduce the paper's evaluation setup
/// (Sec. 6.1): "the batch size is equal to the database engine's vector size
/// of 1024. Tables are partitioned into 12 partitions and the engine runs
/// with a parallelism level of 12."
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Rows per column vector / storage block.
    pub vector_size: usize,
    /// Number of table partitions.
    pub partitions: usize,
    /// The engine's parallelism level, read in three places:
    /// - whether queries fan out over table partitions: values above 1
    ///   enable partition-parallel execution on the scheduler pool (whose
    ///   size is [`EngineConfig::worker_threads`]), 1 runs every plan
    ///   serially on the calling thread;
    /// - the GEMM split width of every model a `PREDICT` registration
    ///   builds: a full vector's GEMM splits up to this many ways (fixed
    ///   at build time, capped by the shape and the pool's size);
    /// - whether a UDF approach gets one host per scheduler thread (above
    ///   1) or a single host.
    pub parallelism: usize,
    /// Worker threads owned by the process-wide unified scheduler — the
    /// single pool that runs operator morsels, GEMM tile tasks, and serve
    /// batches. 0 (the default) sizes the pool to the machine
    /// (`std::thread::available_parallelism`).
    pub worker_threads: usize,
    /// Run ModelJoin and serve inference through the int8 quantized path:
    /// weights quantized per output channel to i8, activations per row to
    /// 7-bit, integer GEMM with a fused dequantize epilogue. Off by
    /// default — results then match fp32 bit for bit. CPU-only; a
    /// GPU-resident model keeps the fp32 route regardless of this flag.
    pub quantized_inference: bool,
    /// Root directory of the persistent storage layer. `None` (the
    /// default) keeps the engine purely in-memory with bit-identical
    /// pre-persistence behavior. When set, tables live in a paged
    /// columnar data file read through the buffer pool, DDL and DML are
    /// write-ahead logged, and [`crate::Engine::open`] replays the
    /// committed WAL prefix on startup (crash recovery). Pages freed by
    /// `DROP TABLE` (or orphaned by a crash-torn append) go to a free
    /// list and are re-used by later appends; `VACUUM` rebuilds the data
    /// file to return the space to the filesystem. `BEGIN` / `COMMIT` /
    /// `ROLLBACK` group statements into one atomically-recovered WAL
    /// record group.
    pub data_dir: Option<String>,
    /// Buffer-pool capacity in pages (16 KiB each): the bound on
    /// resident page frames, so scans over tables larger than the pool
    /// run in this much page memory. Ignored in in-memory mode.
    pub buffer_pool_pages: usize,
    /// `fsync` the WAL on commit (group-commit batched). Turning it off
    /// trades power-failure durability for load speed — contents still
    /// reach the OS on every append, so process-crash recovery within a
    /// running system is unaffected. Ignored in in-memory mode.
    pub wal_fsync: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            vector_size: 1024,
            partitions: 12,
            parallelism: 12,
            worker_threads: 0,
            quantized_inference: false,
            data_dir: None,
            buffer_pool_pages: 4096,
            wal_fsync: true,
        }
    }
}

impl EngineConfig {
    /// A configuration for unit tests: tiny vectors force multi-batch paths.
    pub fn test_small() -> Self {
        EngineConfig { vector_size: 4, partitions: 3, parallelism: 2, ..Default::default() }
    }

    /// Serial execution (one partition, one thread) — the baseline for the
    /// parallelism ablation.
    pub fn serial() -> Self {
        EngineConfig { partitions: 1, parallelism: 1, ..Default::default() }
    }

    /// The scheduler pool size this configuration asks for: the explicit
    /// [`EngineConfig::worker_threads`] value, or the machine's available
    /// parallelism when it is 0 (auto). Always ≥ 1. The machine's count is
    /// read once per process: the query costs tens of microseconds (cgroup
    /// files on Linux), and every statement and `PREDICT` bind asks.
    pub fn effective_worker_threads(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        if self.worker_threads == 0 {
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            self.worker_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.vector_size, 1024);
        assert_eq!(c.partitions, 12);
        assert_eq!(c.parallelism, 12);
        assert_eq!(c.worker_threads, 0, "scheduler pool auto-sizes to the machine");
        assert!(c.effective_worker_threads() >= 1);
        assert!(!c.quantized_inference, "inference defaults to exact fp32");
        assert_eq!(c.data_dir, None, "in-memory storage is the default");
        assert_eq!(c.buffer_pool_pages, 4096, "64 MiB pool at 16 KiB pages");
        assert!(c.wal_fsync, "durability on by default");
    }
}
