//! The cross-query model cache.
//!
//! The paper's headline finding — the ModelJoin wins because the model is
//! built once and tuples then stream through it — only survives real
//! traffic if the built model outlives a single query. This cache keys a
//! model by **(model table name, dtype)** and validates each entry against
//! the table it was built from: the same `Table` allocation at the same
//! [`Table::version`]. Any DML to the model table bumps the version, and
//! dropping and re-creating the table yields a new allocation, so either
//! makes the next lookup rebuild (the stale entry is replaced in place).
//! The fp32 and int8 variants of one model coexist under their dtype keys
//! so mixed-precision traffic never evicts the other representation.
//! Unrelated catalog activity does not invalidate entries, so a busy
//! serving engine keeps its models hot.

use crate::build::{build_parallel, quantize, ModelDtype};
use mlruntime::BuiltModel;
use model_repr::{Layout, ModelMeta};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use tensor::Device;
use vector_engine::{Result, Table};

struct CacheEntry {
    /// The model table the entry was built from. Holding the `Weak` keeps
    /// the table's allocation alive, so a table dropped and re-created
    /// under the same name can never reuse its address — and [`Table::version`]
    /// restarts at 0 for every new table, so the version alone cannot
    /// tell the two apart.
    table: Weak<Table>,
    /// [`Table::version`] of the model table at build time.
    version: u64,
    model: Arc<BuiltModel>,
}

/// A thread-safe map from (model table name, dtype) to its built model.
/// Model counts are small (at most two entries per registered model), so
/// there is no eviction policy — stale entries are replaced in place.
#[derive(Default)]
pub struct ModelCache {
    entries: Mutex<HashMap<(String, ModelDtype), CacheEntry>>,
    /// Hits and misses per dtype, indexed by `ModelDtype as usize`.
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
    /// The build runs outside the map lock: a long build must not block
    /// hits on other models. Two threads racing on the same cold entry may
    /// both build (identical results; last writer wins) — the serving
    /// layer's batcher makes this window rare, and correctness never
    /// depends on single construction.
    pub fn get_or_build(
        &self,
        table: &Arc<Table>,
        meta: &ModelMeta,
        layout: Layout,
        device: &Device,
        vector_size: usize,
        dtype: ModelDtype,
    ) -> Result<Arc<BuiltModel>> {
        let key = (table.name().to_string(), dtype);
        let version = table.version();
        let (hits, misses) = match dtype {
            ModelDtype::F32 => {
                (&obs::metrics::MODELJOIN_CACHE_HITS, &obs::metrics::MODELJOIN_CACHE_MISSES)
            }
            ModelDtype::I8 => {
                (&obs::metrics::MODELJOIN_CACHE_HITS_I8, &obs::metrics::MODELJOIN_CACHE_MISSES_I8)
            }
        };
        if let Some(entry) = self.entries.lock().get(&key) {
            if entry.version == version && std::ptr::eq(entry.table.as_ptr(), Arc::as_ptr(table)) {
                self.hits[dtype as usize].fetch_add(1, Ordering::Relaxed);
                hits.add(1);
                return Ok(Arc::clone(&entry.model));
            }
        }
        self.misses[dtype as usize].fetch_add(1, Ordering::Relaxed);
        misses.add(1);
        let model = Arc::new(match dtype {
            ModelDtype::F32 => build_parallel(table, meta, layout, device, vector_size, 0)?,
            ModelDtype::I8 => {
                let fp32 =
                    self.get_or_build(table, meta, layout, device, vector_size, ModelDtype::F32)?;
                quantize(&fp32)
            }
        });
        let entry = CacheEntry { table: Arc::downgrade(table), version, model: Arc::clone(&model) };
        self.entries.lock().insert(key, entry);
        Ok(model)
    }

    /// `(hits, misses)` of the `dtype` lookups so far. An int8 miss
    /// quantizes (and looks up the fp32 entry, counted on that side).
    pub fn stats(&self, dtype: ModelDtype) -> (u64, u64) {
        let i = dtype as usize;
        (self.hits[i].load(Ordering::Relaxed), self.misses[i].load(Ordering::Relaxed))
    }

    /// Resident entries, counting each dtype separately.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::execute_model_join;
    use crate::SharedModel;
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
        assert_eq!((cache.stats(F32), cache.len()), ((1, 1), 1), "one build, one hit");
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

    /// fp32 and int8 variants of one model coexist under their dtype keys:
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
        assert_eq!(cache.len(), 2, "one entry per dtype");
    }

    /// The satellite's end-to-end shape: two *queries* against an
    /// unchanged model table share one build via the cache +
    /// [`SharedModel::with_built`].
    #[test]
    fn two_queries_one_build() {
        let engine = Engine::new(EngineConfig {
            vector_size: 16,
            partitions: 2,
            parallelism: 2,
            ..Default::default()
        });
        let model = paper::dense_model(4, 2, 3);
        engine
            .execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)")
            .unwrap();
        engine
            .execute("INSERT INTO facts VALUES (1, 0.1, 0.2, 0.3, 0.4), (2, 0.5, 0.6, 0.7, 0.8)")
            .unwrap();
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();

        let cache = ModelCache::new();
        let mut first: Option<Vec<f64>> = None;
        for _ in 0..2 {
            let built =
                cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16, F32).unwrap();
            let shared = SharedModel::with_built(
                Arc::clone(&table),
                meta.clone(),
                Layout::NodeId,
                Device::cpu(),
                Arc::clone(&built),
            );
            let batches = execute_model_join(
                &engine,
                "facts",
                &["c0", "c1", "c2", "c3"],
                &["id"],
                &shared,
                2,
            )
            .unwrap();
            assert!(Arc::ptr_eq(&shared.get().unwrap(), &built), "the query ran the cached build");
            let preds: Vec<f64> =
                batches.iter().flat_map(|b| b.column(1).as_float().unwrap().to_vec()).collect();
            match &first {
                None => first = Some(preds),
                Some(expected) => assert_eq!(expected, &preds, "cached build changes results"),
            }
        }
        assert_eq!(cache.stats(F32), (1, 1), "two queries, one build phase");
    }
}
