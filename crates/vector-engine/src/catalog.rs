//! Table catalog.

use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::persist::{self, OpenTxn, StorageEnv, TxnState, UndoRecord};
use crate::plan::logical::InferModel;
use crate::storage::{Schema, Table};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A model registered for `PREDICT(name, …)`. Binding a statement calls it
/// once, and the handle it returns is shared by every task of that
/// statement's plan, so one execution looks up (or builds) the model once.
pub type ModelFactory = Arc<dyn Fn(&Catalog) -> Result<Arc<dyn InferModel>> + Send + Sync>;

/// A thread-safe registry of tables, and of the models `PREDICT` runs.
/// Table and model names are case-insensitive. Models live in memory
/// only: a reopened engine registers them again.
///
/// The catalog carries a monotonic **epoch** counter ([`Catalog::version`])
/// bumped on every CREATE, DROP, model registration, and — because the
/// counter is threaded into each [`Table`] it creates — every INSERT. The
/// epoch is the invalidation primitive of the engine's plan cache: a cached
/// plan stamped with epoch `v` is replayed only while `version() == v`, so
/// a plan can never outlive a drop (or miss data changes) of any table it
/// references, nor hold a model its name no longer stands for.
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    models: RwLock<HashMap<String, ModelFactory>>,
    epoch: Arc<AtomicU64>,
    /// Persistent environment shared by every table; `None` for the
    /// (default) in-memory catalog.
    env: Option<Arc<StorageEnv>>,
    /// Engine-wide multi-statement transaction state, shared with every
    /// table this catalog creates.
    txn: Arc<TxnState>,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::with_env(None)
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// A catalog whose DDL/DML is write-ahead logged through `env`.
    pub(crate) fn with_env(env: Option<Arc<StorageEnv>>) -> Catalog {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            models: RwLock::new(HashMap::new()),
            epoch: Arc::new(AtomicU64::new(0)),
            env,
            txn: Arc::default(),
        }
    }

    pub(crate) fn env(&self) -> Option<&Arc<StorageEnv>> {
        self.env.as_ref()
    }

    pub(crate) fn txn_state(&self) -> &Arc<TxnState> {
        &self.txn
    }

    /// The shared epoch counter (recovery threads it into rebuilt
    /// tables).
    pub(crate) fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Insert a table rebuilt from the checkpoint directory (recovery
    /// only: no WAL record, but the epoch still moves).
    pub(crate) fn install_restored(&self, table: Arc<Table>) {
        self.tables.write().insert(table.name().to_string(), table);
        self.bump_epoch();
    }

    /// The catalog epoch: monotonic, bumped on CREATE / DROP / INSERT.
    pub fn version(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        obs::metrics::EXEC_CATALOG_EPOCH_BUMPS.add(1);
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        config: &EngineConfig,
    ) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        let _dml = self.txn.dml_lock.read();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(EngineError::Catalog(format!("table {key:?} already exists")));
        }
        // Log before inserting: the tables write lock serializes DDL, so
        // WAL order is catalog order.
        let (partitions, vector_size) = (config.partitions.max(1), config.vector_size.max(1));
        self.txn.log(
            self.env.as_deref(),
            persist::REC_CREATE,
            || persist::encode_create(&key, &schema, partitions, vector_size),
            || UndoRecord::Create { name: key.clone() },
        )?;
        let table = Arc::new(Table::with_storage(
            &key,
            schema,
            config,
            Arc::clone(&self.epoch),
            self.env.clone(),
            Arc::clone(&self.txn),
        ));
        tables.insert(key, Arc::clone(&table));
        self.bump_epoch();
        Ok(table)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        self.tables
            .read()
            .get(&key)
            .cloned()
            .ok_or_else(|| EngineError::Catalog(format!("unknown table {key:?}")))
    }

    /// Drop a table; errors if missing unless `if_exists`. Outside a
    /// transaction (and on replay of a committed DROP) the table's pages
    /// return to the free list at once; inside one they stay reserved (the
    /// undo log retains the table for `ROLLBACK`) and are freed at
    /// `COMMIT`.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let _dml = self.txn.dml_lock.read();
        let mut tables = self.tables.write();
        let Some(table) = tables.get(&key).cloned() else {
            return match if_exists {
                true => Ok(()),
                false => Err(EngineError::Catalog(format!("unknown table {key:?}"))),
            };
        };
        let pages = table.all_pages();
        let in_txn = self.txn.log(
            self.env.as_deref(),
            persist::REC_DROP,
            || persist::encode_drop(&key),
            || UndoRecord::Drop { table, pages: pages.clone() },
        )?;
        if let (false, Some(env)) = (in_txn, &self.env) {
            env.free_pages(pages);
        }
        tables.remove(&key);
        self.bump_epoch();
        Ok(())
    }

    /// Register `model` as `name` for `PREDICT`, replacing any model of that
    /// name, and move the epoch so no cached plan keeps the old one.
    pub fn register_model(&self, name: &str, model: ModelFactory) {
        self.models.write().insert(name.to_ascii_lowercase(), model);
        self.bump_epoch();
    }

    /// A fresh handle of the model registered as `name`, for one statement.
    pub fn model(&self, name: &str) -> Result<Arc<dyn InferModel>> {
        let key = name.to_ascii_lowercase();
        let factory = self.models.read().get(&key).cloned();
        factory.ok_or_else(|| EngineError::Catalog(format!("unknown model {key:?}")))?(self)
    }

    /// Whether a model is registered as `name`: tells an unknown name
    /// from a registered model whose [`Catalog::model`] bind failed.
    pub fn has_model(&self, name: &str) -> bool {
        self.models.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Open a multi-statement transaction. Statements executed while it
    /// is open append WAL records without commit markers (a crash
    /// recovers to the last `COMMIT`) and record logical undo. Nested
    /// `BEGIN` errors. The transaction is engine-global: statements from
    /// any thread join it.
    pub fn begin_transaction(&self) -> Result<()> {
        // Exclusive DML lock: statements hold it shared across their
        // whole log+apply, so BEGIN cannot interleave with an in-flight
        // autocommit statement — whose commit marker would otherwise
        // land inside the open group (sealing its unsealed records) or
        // after the recorded WAL offset (so ROLLBACK's truncation would
        // erase a committed record) or between an append's undo record
        // and its publish. Also excludes checkpoint/vacuum.
        let _dml = self.txn.dml_lock.write();
        let mut guard = self.txn.inner.lock();
        if guard.is_some() {
            return Err(EngineError::Execution("a transaction is already open".into()));
        }
        let wal_offset = self.env.as_ref().map_or(0, |e| e.wal_size());
        *guard = Some(OpenTxn { wal_offset, undo: Vec::new() });
        obs::metrics::STORAGE_TXN_BEGINS.add(1);
        Ok(())
    }

    /// Commit the open transaction: one commit marker seals the whole
    /// record group (group-fsynced), and pages of tables dropped inside
    /// the transaction go to the free list.
    pub fn commit_transaction(&self) -> Result<()> {
        // Exclusive: no statement is mid-flight while the group seals.
        let _dml = self.txn.dml_lock.write();
        let mut guard = self.txn.inner.lock();
        if guard.is_none() {
            return Err(EngineError::Execution("COMMIT without an open transaction".into()));
        }
        // Seal before discarding the undo state: a seal failure leaves
        // the transaction open (COMMIT can be retried, ROLLBACK still
        // has its undo log) instead of an unsealed group that a later
        // autocommit statement's marker would silently commit.
        if let Some(env) = &self.env {
            env.seal_group()?;
        }
        let open = guard.take().expect("checked above");
        drop(guard);
        if let Some(env) = &self.env {
            let mut freed = Vec::new();
            for rec in &open.undo {
                if let UndoRecord::Drop { pages, .. } = rec {
                    freed.extend_from_slice(pages);
                }
            }
            if !freed.is_empty() {
                env.free_pages(freed);
            }
        }
        obs::metrics::STORAGE_TXN_COMMITS.add(1);
        Ok(())
    }

    /// Roll the open transaction back: truncate the WAL to the `BEGIN`
    /// offset, then apply the undo log in reverse (truncate appends,
    /// remove created tables, reinstall dropped ones, retract unique
    /// declarations) so recovery and live state agree.
    pub fn rollback_transaction(&self) -> Result<()> {
        // Exclusive: undo must not race in-flight statements.
        let _dml = self.txn.dml_lock.write();
        let mut guard = self.txn.inner.lock();
        let wal_offset = match guard.as_ref() {
            Some(open) => open.wal_offset,
            None => {
                return Err(EngineError::Execution("ROLLBACK without an open transaction".into()))
            }
        };
        // Erase the group from the WAL before touching in-memory state:
        // if the truncate fails the transaction stays open and ROLLBACK
        // can be retried — otherwise the group's unsealed records would
        // linger and the next autocommit statement's commit marker would
        // seal them, making recovery replay rolled-back statements.
        if let Some(env) = &self.env {
            env.truncate_wal_to(wal_offset)?;
        }
        let open = guard.take().expect("checked above");
        drop(guard);
        for rec in open.undo.into_iter().rev() {
            obs::metrics::STORAGE_TXN_UNDO_RECORDS.add(1);
            match rec {
                UndoRecord::Create { name } => {
                    let removed = self.tables.write().remove(&name);
                    if let (Some(table), Some(env)) = (removed, &self.env) {
                        env.free_pages(table.all_pages());
                    }
                    self.bump_epoch();
                }
                UndoRecord::Drop { table, .. } => {
                    // The deferred page list is discarded: the table
                    // lives again, its pages stay reserved.
                    self.install_restored(table);
                }
                UndoRecord::Append { name, parts, next_partition } => {
                    if let Some(table) = self.tables.read().get(&name).cloned() {
                        let freed = table.truncate_to_prestate(&parts, next_partition);
                        if let Some(env) = &self.env {
                            env.free_pages(freed);
                        }
                    }
                }
                UndoRecord::Unique { name, column } => {
                    if let Some(table) = self.tables.read().get(&name).cloned() {
                        table.undeclare_unique(&column);
                    }
                }
                UndoRecord::Placement { name, key } => {
                    if let Some(table) = self.tables.read().get(&name).cloned() {
                        table.restore_placement_key(key);
                    }
                }
            }
        }
        obs::metrics::STORAGE_TXN_ROLLBACKS.add(1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnVector;
    use crate::storage::ColumnDef;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("x", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::new();
        let cfg = EngineConfig::test_small();
        cat.create_table("Facts", schema(), &cfg).unwrap();
        assert!(cat.table("FACTS").is_ok());
        assert!(cat.create_table("facts", schema(), &cfg).is_err());
        assert_eq!(cat.table_names(), vec!["facts"]);
        cat.drop_table("facts", false).unwrap();
        assert!(cat.table("facts").is_err());
        assert!(cat.drop_table("facts", false).is_err());
        cat.drop_table("facts", true).unwrap();
    }

    #[test]
    fn version_bumps_on_create_drop_insert() {
        let cat = Catalog::new();
        let cfg = EngineConfig::test_small();
        assert_eq!(cat.version(), 0);
        let t = cat.create_table("t", schema(), &cfg).unwrap();
        assert_eq!(cat.version(), 1);
        t.append(vec![ColumnVector::Int(vec![1, 2])]).unwrap();
        assert_eq!(cat.version(), 2, "DML through a catalog table bumps the epoch");
        cat.drop_table("t", false).unwrap();
        assert_eq!(cat.version(), 3);
        // Failed operations leave the epoch untouched.
        assert!(cat.drop_table("t", false).is_err());
        cat.drop_table("t", true).unwrap(); // if_exists no-op
        assert_eq!(cat.version(), 3);
    }
}
