//! Sharded scatter-gather execution: hash-partitioned tables across N
//! in-process [`Engine`](vector_engine::Engine) shards behind one
//! [`ShardedEngine`] facade — the "millions of users" scaling shape of
//! ROADMAP item 2, modeled after model inference co-located with
//! partitioned relational data.
//!
//! # Partitioning scheme
//!
//! Every shard runs a full engine with an identical catalog: DDL
//! replicates to all shards. A table becomes *sharded* through
//! [`ShardedEngine::declare_sharded`], which names its shard-key column;
//! from then on inserted rows are routed to shard `hash(key) % N` using
//! the same hash family the engine's hash join and partial-aggregate
//! paths use ([`vector_engine::exec::hash::hash_key_columns`]). Tables
//! never declared sharded are *replicated*: each shard holds a full copy,
//! which is what makes scatter plans closed per shard (the paper's model
//! tables are small and read-mostly — the classic broadcast side).
//!
//! # Shard planner
//!
//! `SELECT` statements are classified (see [`Route`]) into one of four
//! stage shapes, in this order:
//!
//! 1. **Routed single-shard** — every scan of a sharded table is pinned
//!    by a `key = literal` equality, and all pins hash to the same shard:
//!    the whole statement runs on that one shard, touching `1/N` of the
//!    data. This is the point-query fast path serve traffic rides.
//! 2. **Scatter** — the plan is *shard-safe*: per-shard execution over
//!    each shard's slice produces a disjoint partition of the full
//!    answer (joins between sharded subtrees must be equi-joins on the
//!    shard keys, i.e. co-partitioned; aggregations must group on a
//!    shard key or a unique column of a sharded table). Results are
//!    gathered in shard index order.
//! 3. **Partial aggregate** — an aggregation whose *input* is shard-safe
//!    but whose grouping is not: each shard produces a
//!    [`GroupedAggState`](vector_engine::exec::agg::GroupedAggState),
//!    merged at the facade in shard index order (deterministic float
//!    folds) and finalized once.
//! 4. **Shuffle join** — a hash join whose keys do not align with the
//!    sharding: each shard evaluates its side slices, repartitions the
//!    resulting batches by `hash(join key) % N` (the hash-partitioned
//!    exchange), and each target shard joins its bucket; replicated-only
//!    sides are evaluated once to avoid N-fold duplication.
//!
//! Top-level `ORDER BY` / `LIMIT` are peeled off before per-shard
//! execution and applied serially after the gather, so per-shard limits
//! cannot truncate the global answer.
//!
//! Shard safety is the partition-parallel executor's own split rule,
//! [`split_safe`](vector_engine::exec::parallel::split_safe), called with
//! every sharded table and its shard key; lineage tracing, tail peeling
//! and replay, and the partial-aggregate fold and merge come from
//! [`vector_engine::exec::parallel`] too. This crate holds only what is
//! shard-specific: key pins and [`Route`] classification, the shuffle
//! exchange, DDL and transaction replication, and scattered ModelJoin.
//!
//! All scatter work runs as `Query`-class tasks on the global
//! work-stealing pool in [`sched`]; gather waits are recorded under
//! `shard.gather.wait_us`, shuffle volume under `shard.shuffle.*`, and
//! per-shard row counts under `shard.rows.per_shard` (see
//! [`obs::metrics`]).
//!
//! ModelJoin inference scatters with its probe side:
//! [`ShardedEngine::model_join`] runs the partition-parallel ModelJoin
//! operator per shard against that shard's fact slice and a shard-local
//! handle of the replicated model table.
//!
//! The serving layer facade is [`ShardedServer`]: per-shard inner
//! servers, predict traffic round-robined (any shard holds the full
//! replicated model), SQL traffic routed to the owning shard when
//! pinned and scatter-gathered inline otherwise.

pub mod engine;
pub mod serve;

pub use engine::{Route, ShardedEngine};
pub use serve::ShardedServer;
