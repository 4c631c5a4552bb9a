//! `ShardedEngine` and `ShardedServer`: thin adaptors that present one
//! [`Engine`](vector_engine::Engine) and one [`Server`](serve::Server) with
//! the API the multi-engine shard facade used to have.
//!
//! Sharding is partitioning inside one engine. A table "declared sharded"
//! on a key is a table hash-placed on that key
//! ([`Table::declare_placement_key`](vector_engine::Table::declare_placement_key)):
//! every row lands in partition `hash(key) % EngineConfig::partitions`, so
//! a shard is a partition. A `key = literal` statement then reads one
//! partition, GROUP BY the key and self-joins on it split with one morsel
//! per partition, and everything else runs as on any table — serially, or
//! through the partial aggregate. One engine also means one catalog (no DDL
//! or model replication), one WAL (an atomic `COMMIT`) and one serve
//! batcher (served predicts coalesce, and the model builds once).
//!
//! The adaptors exist only because the frozen whole-stack benchmark
//! (`benchmark/src/workloads/shard_mixed.rs` and `benchmark/src/probes.rs`)
//! is written against them, so they keep exactly the calls it makes. A
//! `benchmark` change that moves `shard_mixed` onto `Engine` and `Server`
//! deletes this crate; its tests, placement oracles against plain engines,
//! then move to `vector-engine`.

pub mod engine;
pub mod serve;

pub use engine::{Route, ShardedEngine};
pub use serve::ShardedServer;
