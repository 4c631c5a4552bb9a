//! The cross-query model cache.
//!
//! The paper's headline finding — the ModelJoin wins because the model is
//! built once and tuples then stream through it — only survives real
//! traffic if the built model outlives a single query. This cache keys a
//! model by **(model table name, table data version, dtype)**: any DML
//! to the model table bumps [`Table::version`] and the next lookup rebuilds
//! (the stale entry is replaced in place), and the fp32 and int8 variants
//! of one model coexist under their dtype keys so mixed-precision traffic
//! never evicts the other representation. Unrelated catalog activity does
//! not invalidate entries, so a busy serving engine keeps its models hot.

use crate::build::{build_parallel, BuiltModel, QuantizedModel};
use model_repr::{Layout, ModelMeta};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tensor::Device;
use vector_engine::{Result, Table};

/// The numeric representation a cached model runs in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelDtype {
    F32,
    I8,
}

enum CachedModel {
    F32(Arc<BuiltModel>),
    I8(Arc<QuantizedModel>),
}

struct CacheEntry {
    /// [`Table::version`] of the model table at build time.
    version: u64,
    model: CachedModel,
}

/// A thread-safe map from (model table name, dtype) to its built model,
/// invalidated by the table's data version. Model counts are small (at
/// most two entries per registered model), so there is no eviction
/// policy — DML replaces entries in place.
#[derive(Default)]
pub struct ModelCache {
    entries: Mutex<HashMap<(String, ModelDtype), CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    hits_i8: AtomicU64,
    misses_i8: AtomicU64,
}

impl ModelCache {
    pub fn new() -> ModelCache {
        ModelCache::default()
    }

    /// The cached fp32 model for `table` if its data version still
    /// matches, else run the parallel build phase and cache the result.
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
    ) -> Result<Arc<BuiltModel>> {
        let version = table.version();
        if let Some(entry) = self.entries.lock().get(&(table.name().to_string(), ModelDtype::F32)) {
            if entry.version == version {
                if let CachedModel::F32(built) = &entry.model {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    obs::metrics::MODELJOIN_CACHE_HITS.add(1);
                    return Ok(Arc::clone(built));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::metrics::MODELJOIN_CACHE_MISSES.add(1);
        let built = Arc::new(build_parallel(table, meta, layout, device, vector_size, 0)?);
        self.entries.lock().insert(
            (table.name().to_string(), ModelDtype::F32),
            CacheEntry { version, model: CachedModel::F32(Arc::clone(&built)) },
        );
        Ok(built)
    }

    /// The cached int8 model for `table` if its data version still
    /// matches, else quantize (from the fp32 entry, itself built through
    /// this cache if cold) and cache the result under the I8 dtype key.
    pub fn get_or_build_quantized(
        &self,
        table: &Arc<Table>,
        meta: &ModelMeta,
        layout: Layout,
        device: &Device,
        vector_size: usize,
    ) -> Result<Arc<QuantizedModel>> {
        let version = table.version();
        if let Some(entry) = self.entries.lock().get(&(table.name().to_string(), ModelDtype::I8)) {
            if entry.version == version {
                if let CachedModel::I8(quantized) = &entry.model {
                    self.hits_i8.fetch_add(1, Ordering::Relaxed);
                    obs::metrics::MODELJOIN_CACHE_HITS_I8.add(1);
                    return Ok(Arc::clone(quantized));
                }
            }
        }
        self.misses_i8.fetch_add(1, Ordering::Relaxed);
        obs::metrics::MODELJOIN_CACHE_MISSES_I8.add(1);
        let built = self.get_or_build(table, meta, layout, device, vector_size)?;
        let quantized = Arc::new(QuantizedModel::from_built(&built));
        self.entries.lock().insert(
            (table.name().to_string(), ModelDtype::I8),
            CacheEntry { version, model: CachedModel::I8(Arc::clone(&quantized)) },
        );
        Ok(quantized)
    }

    /// Drop the entries for a model table, both dtypes (explicit
    /// invalidation; version mismatches already invalidate implicitly).
    pub fn invalidate(&self, table_name: &str) {
        let name = table_name.to_ascii_lowercase();
        let mut entries = self.entries.lock();
        entries.remove(&(name.clone(), ModelDtype::F32));
        entries.remove(&(name, ModelDtype::I8));
    }

    /// fp32 lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// fp32 lookups that ran a build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// int8 lookups answered from the cache.
    pub fn hits_i8(&self) -> u64 {
        self.hits_i8.load(Ordering::Relaxed)
    }

    /// int8 lookups that ran a quantization (and possibly a build).
    pub fn misses_i8(&self) -> u64 {
        self.misses_i8.load(Ordering::Relaxed)
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
        let a = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        let b = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the Arc");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1), "one build, one hit");
    }

    #[test]
    fn dml_to_model_table_invalidates() {
        let (_engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        let a = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        // Append a row that routes nowhere harmful (an input-distribution
        // edge): the version bump alone must force a rebuild.
        let zeros = vec![ColumnVector::Float(vec![0.0]); table.schema().len() - 2];
        let mut cols = vec![ColumnVector::Int(vec![0]), ColumnVector::Int(vec![0])];
        cols.extend(zeros);
        table.append(cols).unwrap();
        let b = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "stale model must be rebuilt after DML");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn explicit_invalidate_drops_entry() {
        let (_engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        assert_eq!(cache.len(), 1);
        cache.invalidate("M");
        assert!(cache.is_empty());
    }

    /// fp32 and int8 variants of one model coexist under their dtype keys:
    /// the quantized lookup reuses the fp32 build (one build phase total),
    /// repeat lookups of either dtype hit, and invalidation drops both.
    #[test]
    fn dtypes_coexist_and_share_one_build() {
        let (_engine, table, meta) = engine_with_model();
        let cache = ModelCache::new();
        let built = cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
        let q1 = cache
            .get_or_build_quantized(&table, &meta, Layout::NodeId, &Device::cpu(), 16)
            .unwrap();
        let q2 = cache
            .get_or_build_quantized(&table, &meta, Layout::NodeId, &Device::cpu(), 16)
            .unwrap();
        assert!(Arc::ptr_eq(&q1, &q2), "second int8 lookup must reuse the Arc");
        assert_eq!(q1.input_dim, built.input_dim);
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 1),
            "int8 quantizes the cached fp32 build: its miss re-reads the fp32 entry"
        );
        assert_eq!((cache.hits_i8(), cache.misses_i8()), (1, 1));
        assert_eq!(cache.len(), 2, "one entry per dtype");
        cache.invalidate("m");
        assert!(cache.is_empty(), "invalidation drops both dtype entries");
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
                cache.get_or_build(&table, &meta, Layout::NodeId, &Device::cpu(), 16).unwrap();
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
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "two queries, one build phase");
    }
}
