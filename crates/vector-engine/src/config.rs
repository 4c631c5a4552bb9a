//! Engine configuration.

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
    /// The engine's parallelism level, read in two places:
    /// - whether queries fan out over table partitions: values above 1
    ///   enable partition-parallel execution on the process-wide
    ///   scheduler pool (one worker per core), 1 runs every plan serially
    ///   on the calling thread. A morsel runs its GEMMs whole, so this is
    ///   the stack's one level of parallelism;
    /// - whether a UDF approach gets one host per scheduler thread (above
    ///   1) or a single host.
    pub parallelism: usize,
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
        assert!(!c.quantized_inference, "inference defaults to exact fp32");
        assert_eq!(c.data_dir, None, "in-memory storage is the default");
        assert_eq!(c.buffer_pool_pages, 4096, "64 MiB pool at 16 KiB pages");
        assert!(c.wal_fsync, "durability on by default");
    }
}
