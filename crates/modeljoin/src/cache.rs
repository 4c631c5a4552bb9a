//! The cross-query model cache.
//!
//! The paper's headline finding — the ModelJoin wins because the model is
//! built once and tuples then stream through it — only survives real
//! traffic if the built model outlives a single query. A cache serves one
//! model table, the one its registration names (or a [`SharedModel`]'s
//! own), and holds one entry per dtype, validated against the table it was
//! built from: the same `Table` allocation at the same [`Table::version`].
//! Any DML to the model table bumps the version, and dropping and
//! re-creating the table yields a new allocation, so either makes the next
//! lookup rebuild (the stale entry is replaced in place). The fp32 and
//! int8 variants of one model coexist in their dtype slots so
//! mixed-precision traffic never evicts the other representation.
//! Unrelated catalog activity does not invalidate entries, so a busy
//! serving engine keeps its models hot.
//!
//! A cold entry is built once: the first lookup builds it, and lookups
//! arriving meanwhile wait for that build instead of starting their own.
//! A failed build is not cached.
//!
//! [`SharedModel`]: crate::SharedModel

use crate::build::{build_parallel, ModelDtype};
use mlruntime::BuiltModel;
use model_repr::{Layout, ModelMeta};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use tensor::Device;
use vector_engine::{Result, Table};

/// One build's outcome, filled in by the thread that runs the build.
type Slot = Arc<OnceLock<Result<Arc<BuiltModel>>>>;

struct CacheEntry {
    /// The model table the entry was built from. Holding the `Weak` keeps
    /// the table's allocation alive, so a table dropped and re-created
    /// under the same name can never reuse its address — and [`Table::version`]
    /// restarts at 0 for every new table, so the version alone cannot
    /// tell the two apart.
    table: Weak<Table>,
    /// [`Table::version`] of the model table at build time.
    version: u64,
    model: Slot,
}

/// A thread-safe cache of one model table's built model, one entry per
/// dtype. There is no eviction policy: a stale entry (or one of another
/// table) is replaced in place.
#[derive(Default)]
pub struct ModelCache {
    /// The entry per dtype, indexed by `ModelDtype as usize`.
    entries: Mutex<[Option<CacheEntry>; 2]>,
    /// Hits and misses per dtype, indexed the same way.
    hits: [AtomicU64; 2],
    misses: [AtomicU64; 2],
}

impl ModelCache {
    pub fn new() -> ModelCache {
        ModelCache::default()
    }

    /// The cached `dtype` model for `table` if it was built from this very
    /// table at its current data version, else build it and cache the
    /// result: fp32 runs the parallel build phase, int8 quantizes the fp32
    /// entry (itself built through this cache if cold).
    ///
    /// The build runs outside the lock: a long build must not block hits
    /// on the other dtype. Lookups racing a cold entry wait for its one
    /// build and count as hits. Waiting cannot deadlock: while a build
    /// waits for its own fan-out, the scheduler's helping loop runs only
    /// that fan-out's tasks, so no lookup re-enters from inside a build.
    pub fn get_or_build(
        &self,
        table: &Arc<Table>,
        meta: &ModelMeta,
        layout: Layout,
        device: &Device,
        vector_size: usize,
        dtype: ModelDtype,
    ) -> Result<Arc<BuiltModel>> {
        let (i, version) = (dtype as usize, table.version());
        let (slot, cold) = {
            let mut entries = self.entries.lock();
            match &entries[i] {
                Some(e)
                    if e.version == version
                        && std::ptr::eq(e.table.as_ptr(), Arc::as_ptr(table)) =>
                {
                    (Arc::clone(&e.model), false)
                }
                _ => {
                    let slot = Slot::default();
                    let entry = CacheEntry {
                        table: Arc::downgrade(table),
                        version,
                        model: Arc::clone(&slot),
                    };
                    entries[i] = Some(entry);
                    (slot, true)
                }
            }
        };
        let (mine, global) = if cold {
            (&self.misses, &obs::metrics::MODELJOIN_CACHE_MISSES)
        } else {
            (&self.hits, &obs::metrics::MODELJOIN_CACHE_HITS)
        };
        mine[i].fetch_add(1, Ordering::Relaxed);
        global.add(1);
        let model = slot
            .get_or_init(|| match dtype {
                ModelDtype::F32 => {
                    build_parallel(table, meta, layout, device, vector_size, 1).map(Arc::new)
                }
                ModelDtype::I8 => self
                    .get_or_build(table, meta, layout, device, vector_size, ModelDtype::F32)
                    .map(|fp32| {
                        obs::metrics::MODELJOIN_QUANT_BUILDS.add(1);
                        Arc::new(fp32.quantize())
                    }),
            })
            .clone();
        if model.is_err() {
            let mut entries = self.entries.lock();
            if entries[i].as_ref().is_some_and(|e| Arc::ptr_eq(&e.model, &slot)) {
                entries[i] = None;
            }
        }
        model
    }

    /// `(hits, misses)` of the `dtype` lookups so far. An int8 miss
    /// quantizes (and looks up the fp32 entry, counted on that side).
    pub fn stats(&self, dtype: ModelDtype) -> (u64, u64) {
        let i = dtype as usize;
        (self.hits[i].load(Ordering::Relaxed), self.misses[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model_repr::load_into_engine;
    use nn::paper;
    use vector_engine::{ColumnVector, Engine, EngineConfig};

    const F32: ModelDtype = ModelDtype::F32;

    fn engine_with_model() -> (Engine, Arc<Table>, ModelMeta) {
        let engine = Engine::new(EngineConfig {
            vector_size: 16,
            partitions: 2,
            parallelism: 2,
            ..Default::default()
        });
        let model = paper::dense_model(4, 2, 11);
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
        (engine, table, meta)
    }

    #[test]
    fn unchanged_table_builds_exactly_once() {
        let (_engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        let a = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
        let b = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the Arc");
        assert_eq!(cache.stats(F32), (1, 1), "one build, one hit");
    }

    #[test]
    fn dml_to_model_table_invalidates() {
        let (_engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        let a = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
        // Append a row that routes nowhere harmful (an input-distribution
        // edge): the version bump alone must force a rebuild.
        let zeros = vec![ColumnVector::Float(vec![0.0]); table.schema().len() - 2];
        let mut cols = vec![ColumnVector::Int(vec![0]), ColumnVector::Int(vec![0])];
        cols.extend(zeros);
        table.append(cols).unwrap();
        let b = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "stale model must be rebuilt after DML");
        assert_eq!(cache.stats(F32).1, 2);
    }

    /// A model table dropped and re-created under the same name starts
    /// again at the same data version; the entry must still not match it.
    #[test]
    fn recreated_table_of_equal_version_rebuilds() {
        let (engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        let a = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
        engine.execute("DROP TABLE m").unwrap();
        let other = paper::dense_model(4, 2, 12);
        let (table2, meta2) = load_into_engine(&engine, "m", &other, Layout::NodeId).unwrap();
        assert_eq!(table2.version(), table.version(), "versions alone cannot tell them apart");
        let b =
            cache.get_or_build(&table2, &meta2, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "the re-created table must be rebuilt");
        assert_eq!(cache.stats(F32), (0, 2));
    }

    /// fp32 and int8 variants of one model coexist in their dtype slots:
    /// the quantized lookup reuses the fp32 build (one build phase total)
    /// and repeat lookups of either dtype hit.
    #[test]
    fn dtypes_coexist_and_share_one_build() {
        let (_engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        let lookup = |dtype| {
            cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, dtype).unwrap()
        };
        let built = lookup(F32);
        let q1 = lookup(ModelDtype::I8);
        let q2 = lookup(ModelDtype::I8);
        assert!(Arc::ptr_eq(&q1, &q2), "second int8 lookup must reuse the Arc");
        assert!(!Arc::ptr_eq(&q1, &built), "int8 is its own entry");
        assert_eq!(q1.input_dim, built.input_dim);
        assert_eq!(
            cache.stats(F32),
            (1, 1),
            "int8 quantizes the cached fp32 build: its miss re-reads the fp32 entry"
        );
        assert_eq!(cache.stats(ModelDtype::I8), (1, 1));
        assert!(Arc::ptr_eq(&lookup(F32), &built), "int8 never evicts fp32");
    }

    /// Racing cold lookups build once: the first builds, the other seven
    /// wait for it and share its `Arc`.
    #[test]
    fn racing_cold_lookups_build_once() {
        let (engine, _, _) = engine_with_model();
        let model = paper::dense_model(512, 4, 11);
        let (table, meta) = load_into_engine(&engine, "wide", &model, Layout::NodeId).unwrap();
        let cache = ModelCache::new();
        let barrier = std::sync::Barrier::new(8);
        let built: Vec<Arc<BuiltModel>> = std::thread::scope(|s| {
            let lookups: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let cpu = Device::cpu();
                        cache.get_or_build(&table, &meta, Layout::NodeId, &cpu, 16, F32).unwrap()
                    })
                })
                .collect();
            lookups.into_iter().map(|l| l.join().unwrap()).collect()
        });
        assert!(built.iter().all(|b| Arc::ptr_eq(b, &built[0])), "one shared Arc");
        assert_eq!(cache.stats(F32), (7, 1), "one miss, seven hits");
    }

    /// Concurrent cold builds started from pool tasks finish: sixteen
    /// tasks look up two cold models at once, each in its own cache (a
    /// cache serves one model table), each build fanned out over four
    /// model-table partitions. A worker inside a build helps only its own
    /// fan-out, so no lookup re-enters a cache from inside a build and
    /// every task either builds or waits for its model's one build.
    #[test]
    fn concurrent_cold_builds_from_pool_tasks_finish() {
        let engine = Engine::new(EngineConfig { partitions: 4, ..Default::default() });
        let models: Vec<(Arc<Table>, ModelMeta, Arc<ModelCache>)> = (0..2)
            .map(|i| {
                let model = paper::dense_model(512, 4, i);
                let (table, meta) =
                    load_into_engine(&engine, &format!("m{i}"), &model, Layout::NodeId).unwrap();
                (table, meta, Arc::default())
            })
            .collect();
        let (done, finished) = std::sync::mpsc::channel();
        let batches = 16;
        for b in 0..batches {
            let (table, meta, cache) = models[b % 2].clone();
            let done = done.clone();
            sched::global().spawn(sched::TaskClass::Serve, move || {
                let cpu = Device::cpu();
                let built = cache.get_or_build(&table, &meta, Layout::NodeId, &cpu, 16, F32);
                done.send(built.is_ok()).unwrap();
            });
        }
        for _ in 0..batches {
            let built = finished.recv_timeout(std::time::Duration::from_secs(60));
            assert_eq!(built, Ok(true), "pool tasks deadlocked on each other's builds");
        }
        for (_, _, cache) in &models {
            assert_eq!(cache.stats(F32), (7, 1), "one build per model");
        }
    }

    /// Two statements against an unchanged model table share one build: a
    /// registered model's statements look it up in the registration's
    /// cache.
    #[test]
    fn two_queries_one_build() {
        let (engine, _, meta) = engine_with_model();
        engine
            .execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)")
            .unwrap();
        engine
            .execute("INSERT INTO facts VALUES (1, 0.1, 0.2, 0.3, 0.4), (2, 0.5, 0.6, 0.7, 0.8)")
            .unwrap();
        let cache = crate::register_model(&engine, "mj", "m", meta, Layout::NodeId, Device::cpu());
        let sql = "SELECT id, prediction FROM PREDICT(mj, facts, c0, c1, c2, c3) ORDER BY id";
        let first = engine.execute(sql).unwrap().rows();
        assert_eq!(first.len(), 2);
        assert_eq!(engine.execute(sql).unwrap().rows(), first, "cached build changes results");
        assert_eq!(cache.stats(F32), (1, 1), "two queries, one build phase");
    }
}
