//! Engine configuration.

use crate::error::{EngineError, Result};

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
    /// Whether queries fan out over table partitions: values above 1
    /// enable partition-parallel execution on the scheduler pool (whose
    /// size is [`EngineConfig::worker_threads`]), 1 runs every plan
    /// serially on the calling thread.
    pub parallelism: usize,
    /// Enable min/max (SMA) block pruning in scans — the optimization
    /// ML-To-SQL's layer filters rely on (paper Sec. 4.4).
    pub sma_pruning: bool,
    /// Enable extraction of hash joins from cross join + equality filters.
    pub hash_join: bool,
    /// Enable predicate pushdown through projections and joins.
    pub predicate_pushdown: bool,
    /// Enable column pruning through joins: when a projection or aggregation
    /// reads only part of a join's output, the join's inputs are narrowed so
    /// the per-row gather materializes only live columns. Matters for
    /// ML-To-SQL, whose model-table joins carry many dead weight columns.
    pub column_pruning: bool,
    /// Worker threads owned by the process-wide unified scheduler — the
    /// single pool that runs operator morsels, GEMM tile tasks, and serve
    /// batches. 0 (the default) sizes the pool to the machine
    /// (`std::thread::available_parallelism`).
    pub worker_threads: usize,
    /// Run joins and aggregations through the seed value-at-a-time
    /// operators (`exec::rowwise`) instead of the vectorized ones. Off by
    /// default; exists so benchmarks can measure the pre-vectorization
    /// baseline in-process. Also disables the partial-aggregate parallel
    /// path, which only the vectorized accumulators support.
    pub rowwise_ops: bool,
    /// Capacity of the per-engine prepared-plan cache used by
    /// [`crate::Engine::execute_cached`]: SELECT statements are parsed,
    /// bound and optimized once and replayed until the catalog epoch moves.
    /// 0 disables caching entirely (every call re-plans).
    pub plan_cache_entries: usize,
    /// Depth of the serving layer's admission queue: requests submitted
    /// while this many are already waiting are rejected with an explicit
    /// overload error instead of queuing without bound. (Consumed by the
    /// `serve` crate; carried here so one config describes the stack.)
    pub serve_queue_depth: usize,
    /// Maximum extra latency, in microseconds, the serving layer's dynamic
    /// micro-batcher may add while coalescing point inference requests into
    /// a full vector before flushing a partial batch.
    pub batch_flush_us: u64,
    /// Run ModelJoin and serve inference through the int8 quantized path:
    /// weights quantized per output channel to i8, activations per row to
    /// 7-bit, integer GEMM with a fused dequantize epilogue. Off by
    /// default — results then match fp32 bit for bit. CPU-only; a
    /// GPU-resident model keeps the fp32 route regardless of this flag.
    pub quantized_inference: bool,
    /// Enable the observability span timers (per-operator and kernel wall
    /// clocks in the `obs` crate). Counters and gauges are always on;
    /// spans read the monotonic clock, so this knob exists to measure and
    /// bound their overhead. The flag is process-global — constructing an
    /// engine stores it, and the last engine constructed wins.
    pub obs_spans: bool,
    /// Number of in-process engine shards the sharded facade
    /// (`crates/shard`) stands up: tables declared sharded are
    /// hash-partitioned across this many independent `Engine` instances,
    /// each a stand-in for one node of a distributed deployment. 1 (the
    /// default) means unsharded single-engine execution; the knob is
    /// ignored by a plain `Engine` and consumed only by `ShardedEngine`.
    pub shards: usize,
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
    /// record group. A sharded facade derives per-shard subdirectories
    /// (`shard-0`, `shard-1`, …) under this root.
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
            sma_pruning: true,
            hash_join: true,
            predicate_pushdown: true,
            column_pruning: true,
            worker_threads: 0,
            rowwise_ops: false,
            plan_cache_entries: 128,
            serve_queue_depth: 1024,
            batch_flush_us: 200,
            quantized_inference: false,
            obs_spans: true,
            shards: 1,
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
    /// parallelism when it is 0 (auto). Always ≥ 1.
    pub fn effective_worker_threads(&self) -> usize {
        if self.worker_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.worker_threads
        }
    }

    /// Serialize every knob as `key=value` lines (stable order). The
    /// inverse of [`EngineConfig::from_kv`]; used by benchmark drivers to
    /// record the exact engine setup next to their results.
    pub fn to_kv(&self) -> String {
        format!(
            "vector_size={}\npartitions={}\nparallelism={}\nsma_pruning={}\nhash_join={}\n\
             predicate_pushdown={}\ncolumn_pruning={}\nworker_threads={}\nrowwise_ops={}\n\
             plan_cache_entries={}\nserve_queue_depth={}\nbatch_flush_us={}\n\
             quantized_inference={}\nobs_spans={}\nshards={}\n\
             data_dir={}\nbuffer_pool_pages={}\nwal_fsync={}\n",
            self.vector_size,
            self.partitions,
            self.parallelism,
            self.sma_pruning,
            self.hash_join,
            self.predicate_pushdown,
            self.column_pruning,
            self.worker_threads,
            self.rowwise_ops,
            self.plan_cache_entries,
            self.serve_queue_depth,
            self.batch_flush_us,
            self.quantized_inference,
            self.obs_spans,
            self.shards,
            self.data_dir.as_deref().unwrap_or(""),
            self.buffer_pool_pages,
            self.wal_fsync,
        )
    }

    /// Parse `key=value` lines (blank lines and `#` comments allowed) on
    /// top of the defaults. Unknown keys and malformed values are errors —
    /// a typo in a knob name must not silently run the default.
    pub fn from_kv(text: &str) -> Result<EngineConfig> {
        fn bad(key: &str, value: &str) -> EngineError {
            EngineError::Unsupported(format!("config: bad value {value:?} for {key}"))
        }
        let mut cfg = EngineConfig::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| EngineError::Unsupported(format!("config: no '=' in {line:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "vector_size" => cfg.vector_size = value.parse().map_err(|_| bad(key, value))?,
                "partitions" => cfg.partitions = value.parse().map_err(|_| bad(key, value))?,
                "parallelism" => cfg.parallelism = value.parse().map_err(|_| bad(key, value))?,
                "sma_pruning" => cfg.sma_pruning = value.parse().map_err(|_| bad(key, value))?,
                "hash_join" => cfg.hash_join = value.parse().map_err(|_| bad(key, value))?,
                "predicate_pushdown" => {
                    cfg.predicate_pushdown = value.parse().map_err(|_| bad(key, value))?
                }
                "column_pruning" => {
                    cfg.column_pruning = value.parse().map_err(|_| bad(key, value))?
                }
                "worker_threads" => {
                    cfg.worker_threads = value.parse().map_err(|_| bad(key, value))?
                }
                "rowwise_ops" => cfg.rowwise_ops = value.parse().map_err(|_| bad(key, value))?,
                "plan_cache_entries" => {
                    cfg.plan_cache_entries = value.parse().map_err(|_| bad(key, value))?
                }
                "serve_queue_depth" => {
                    cfg.serve_queue_depth = value.parse().map_err(|_| bad(key, value))?
                }
                "batch_flush_us" => {
                    cfg.batch_flush_us = value.parse().map_err(|_| bad(key, value))?
                }
                "quantized_inference" => {
                    cfg.quantized_inference = value.parse().map_err(|_| bad(key, value))?
                }
                "obs_spans" => cfg.obs_spans = value.parse().map_err(|_| bad(key, value))?,
                "shards" => cfg.shards = value.parse().map_err(|_| bad(key, value))?,
                // The empty string means "in-memory" so the knob always
                // serializes; a path with '=' or '#' would not round-trip
                // through this line format and is rejected up front.
                "data_dir" => {
                    cfg.data_dir = if value.is_empty() {
                        None
                    } else if value.contains(['#', '=']) {
                        return Err(bad(key, value));
                    } else {
                        Some(value.to_string())
                    }
                }
                "buffer_pool_pages" => {
                    cfg.buffer_pool_pages = value.parse().map_err(|_| bad(key, value))?
                }
                "wal_fsync" => cfg.wal_fsync = value.parse().map_err(|_| bad(key, value))?,
                other => {
                    return Err(EngineError::Unsupported(format!("config: unknown knob {other:?}")))
                }
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;

    #[test]
    fn defaults_match_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.vector_size, 1024);
        assert_eq!(c.partitions, 12);
        assert_eq!(c.parallelism, 12);
        assert!(c.sma_pruning && c.hash_join && c.predicate_pushdown && c.column_pruning);
        assert_eq!(c.worker_threads, 0, "scheduler pool auto-sizes to the machine");
        assert!(c.effective_worker_threads() >= 1);
        assert!(!c.rowwise_ops, "vectorized operators are the default");
        assert_eq!(c.plan_cache_entries, 128);
        assert_eq!(c.serve_queue_depth, 1024);
        assert_eq!(c.batch_flush_us, 200);
        assert!(!c.quantized_inference, "inference defaults to exact fp32");
        assert!(c.obs_spans, "span timers default on (counters are unconditional)");
        assert_eq!(c.shards, 1, "single-engine execution is the default");
        assert_eq!(c.data_dir, None, "in-memory storage is the default");
        assert_eq!(c.buffer_pool_pages, 4096, "64 MiB pool at 16 KiB pages");
        assert!(c.wal_fsync, "durability on by default");
    }

    #[test]
    fn kv_round_trips_default_and_modified() {
        let default = EngineConfig::default();
        assert_eq!(EngineConfig::from_kv(&default.to_kv()).unwrap(), default);

        let modified = EngineConfig {
            vector_size: 64,
            worker_threads: 5,
            rowwise_ops: true,
            plan_cache_entries: 0,
            serve_queue_depth: 7,
            batch_flush_us: 12345,
            quantized_inference: true,
            obs_spans: false,
            data_dir: Some("/tmp/idb data".into()),
            buffer_pool_pages: 17,
            wal_fsync: false,
            ..EngineConfig::default()
        };
        assert_eq!(EngineConfig::from_kv(&modified.to_kv()).unwrap(), modified);
    }

    #[test]
    fn kv_rejects_data_dir_that_cannot_round_trip() {
        assert!(EngineConfig::from_kv("data_dir=a=b").is_err());
        assert!(EngineConfig::from_kv("data_dir=a#b").is_err());
        let cfg = EngineConfig::from_kv("data_dir=").unwrap();
        assert_eq!(cfg.data_dir, None, "empty value means in-memory");
    }

    #[test]
    fn kv_rejects_removed_kernel_threads_alias() {
        let err = EngineConfig::from_kv("kernel_threads=3").unwrap_err();
        assert!(err.to_string().contains("unknown knob \"kernel_threads\""), "{err}");
    }

    #[test]
    fn kv_accepts_comments_and_partial_overrides() {
        let cfg = EngineConfig::from_kv("# comment\n\n  batch_flush_us = 9\n").unwrap();
        assert_eq!(cfg.batch_flush_us, 9);
        assert_eq!(cfg.vector_size, 1024, "unset knobs keep defaults");
    }

    #[test]
    fn kv_rejects_unknown_keys_and_bad_values() {
        assert!(EngineConfig::from_kv("no_such_knob=1").is_err());
        assert!(EngineConfig::from_kv("vector_size=banana").is_err());
        assert!(EngineConfig::from_kv("just a line").is_err());
    }

    // Every knob randomized independently; `to_kv` → `from_kv` must be the
    // identity on all of them (a knob missing from either direction, or a
    // typo'd key name, fails here instead of silently running a default).
    proptest::proptest! {
        #[test]
        fn kv_round_trips_every_knob(
            vector_size in 1usize..5000,
            partitions in 1usize..64,
            parallelism in 1usize..64,
            sma_pruning in proptest::prelude::any::<bool>(),
            hash_join in proptest::prelude::any::<bool>(),
            predicate_pushdown in proptest::prelude::any::<bool>(),
            column_pruning in proptest::prelude::any::<bool>(),
            worker_threads in 0usize..64,
            rowwise_ops in proptest::prelude::any::<bool>(),
            plan_cache_entries in 0usize..1000,
            serve_queue_depth in 0usize..10000,
            batch_flush_us in 0u64..1_000_000,
            quantized_inference in proptest::prelude::any::<bool>(),
            obs_spans in proptest::prelude::any::<bool>(),
            shards in 1usize..16,
            // None, or a varied non-empty path (kv cannot represent '='
            // or '#' in the value, and trims surrounding whitespace, so
            // only paths free of those round-trip; see from_kv).
            data_dir in proptest::prelude::prop_oneof![
                proptest::prelude::Just(None),
                (1usize..100_000).prop_map(|n| Some(format!("/tmp/dir {n}/db.d")))
            ],
            buffer_pool_pages in 1usize..100_000,
            wal_fsync in proptest::prelude::any::<bool>(),
        ) {
            let cfg = EngineConfig {
                vector_size,
                partitions,
                parallelism,
                sma_pruning,
                hash_join,
                predicate_pushdown,
                column_pruning,
                worker_threads,
                rowwise_ops,
                plan_cache_entries,
                serve_queue_depth,
                batch_flush_us,
                quantized_inference,
                obs_spans,
                shards,
                data_dir,
                buffer_pool_pages,
                wal_fsync,
            };
            let round = EngineConfig::from_kv(&cfg.to_kv()).unwrap();
            proptest::prop_assert_eq!(round, cfg);
        }
    }
}
