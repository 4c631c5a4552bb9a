//! Columnar block storage with small materialized aggregates.
//!
//! Each table is split into [`EngineConfig::partitions`] horizontal
//! partitions; each partition stores every column as a sequence of blocks of
//! at most `vector_size` values. Every block carries min/max small
//! materialized aggregates (SMAs, a.k.a. MinMax indexes / zone maps —
//! paper Sec. 4.4 and [Moerkotte, VLDB'98]) that scans use to skip whole
//! blocks under range predicates.

use crate::column::{Batch, ColumnVector};
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::persist::{self, PagedChunk, StorageEnv, TxnState, UndoRecord};
use crate::types::{DataType, Value};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// A column definition: name and type.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, dtype: DataType) -> ColumnDef {
        ColumnDef { name: name.into().to_ascii_lowercase(), dtype }
    }
}

/// An ordered list of column definitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Result<Schema> {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                if a.name == b.name {
                    return Err(EngineError::Catalog(format!(
                        "duplicate column name {:?}",
                        a.name
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    pub fn column(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }
}

/// Where a block's values live: resident in memory (the in-memory
/// engine's only variant) or as a paged column chunk read back through
/// the buffer pool on demand.
#[derive(Clone, Debug)]
enum BlockData {
    Mem(ColumnVector),
    Paged(PagedChunk),
}

/// Min/max of a column vector (the block SMA).
fn minmax(data: &ColumnVector) -> (Value, Value) {
    assert!(!data.is_empty(), "blocks are never empty");
    let mut min = data.value(0);
    let mut max = data.value(0);
    for i in 1..data.len() {
        let v = data.value(i);
        if v.total_cmp(&min) == Ordering::Less {
            min = v.clone();
        }
        if v.total_cmp(&max) == Ordering::Greater {
            max = v;
        }
    }
    (min, max)
}

/// One storage block: up to `vector_size` values of one column plus its
/// min/max SMA. SMAs always stay in memory (pruning must not fault
/// pages in); the values themselves may be paged out.
#[derive(Clone, Debug)]
pub struct Block {
    data: BlockData,
    min: Value,
    max: Value,
}

/// Checkpoint-time description of one paged block (chunk location plus
/// its SMA), the unit the page directory stores.
#[derive(Clone, Debug)]
pub(crate) struct BlockMeta {
    pub(crate) chunk: PagedChunk,
    pub(crate) min: Value,
    pub(crate) max: Value,
}

/// Checkpoint-time description of one partition.
pub(crate) struct PartitionMeta {
    pub(crate) rows: usize,
    /// `columns[c]` lists column `c`'s blocks in order.
    pub(crate) columns: Vec<Vec<BlockMeta>>,
}

impl Block {
    fn new(data: ColumnVector) -> Block {
        let (min, max) = minmax(&data);
        Block { data: BlockData::Mem(data), min, max }
    }

    fn paged(chunk: PagedChunk, min: Value, max: Value) -> Block {
        Block { data: BlockData::Paged(chunk), min, max }
    }

    /// Materialize the block's values, reading through the buffer pool
    /// when paged.
    pub fn load(&self, env: Option<&StorageEnv>) -> Result<ColumnVector> {
        match &self.data {
            BlockData::Mem(v) => Ok(v.clone()),
            BlockData::Paged(chunk) => {
                let env = env.ok_or_else(|| {
                    EngineError::Io("paged block read without a storage environment".into())
                })?;
                let bytes = env.read_chunk(chunk)?;
                let mut r = persist::Reader::new(&bytes);
                let col = persist::decode_column(&mut r)?;
                if col.len() != chunk.rows as usize {
                    return Err(EngineError::Io(format!(
                        "chunk at page {} decoded {} rows, directory says {}",
                        chunk.first_page,
                        col.len(),
                        chunk.rows
                    )));
                }
                Ok(col)
            }
        }
    }

    pub fn min(&self) -> &Value {
        &self.min
    }

    pub fn max(&self) -> &Value {
        &self.max
    }

    pub fn len(&self) -> usize {
        match &self.data {
            BlockData::Mem(v) => v.len(),
            BlockData::Paged(chunk) => chunk.rows as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    fn byte_size(&self) -> usize {
        match &self.data {
            BlockData::Mem(v) => v.byte_size(),
            BlockData::Paged(chunk) => chunk.bytes as usize,
        }
    }

    fn meta(&self) -> Result<BlockMeta> {
        match &self.data {
            BlockData::Paged(chunk) => {
                Ok(BlockMeta { chunk: *chunk, min: self.min.clone(), max: self.max.clone() })
            }
            BlockData::Mem(_) => Err(EngineError::Io(
                "checkpoint found a memory-resident block in a persistent table".into(),
            )),
        }
    }

    /// The block's chunk location, if paged (vacuum relocates these).
    pub(crate) fn paged_chunk(&self) -> Option<PagedChunk> {
        match &self.data {
            BlockData::Paged(chunk) => Some(*chunk),
            BlockData::Mem(_) => None,
        }
    }

    /// Point the block at a relocated chunk (vacuum pass 2).
    pub(crate) fn set_paged_chunk(&mut self, chunk: PagedChunk) {
        self.data = BlockData::Paged(chunk);
    }
}

/// One horizontal partition: per column, the list of blocks. Row `i` of the
/// partition spans block `i / vector_size` across all columns.
#[derive(Debug, Default)]
pub struct Partition {
    /// `columns[c]` holds the blocks of column `c`.
    columns: Vec<Vec<Block>>,
    rows: usize,
}

impl Partition {
    fn new(width: usize) -> Partition {
        Partition { columns: vec![Vec::new(); width], rows: 0 }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn block_count(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// The `b`-th block of the given columns (table ordinals, in output
    /// order) as a batch, reading paged blocks through the buffer pool.
    /// Columns not listed are neither read nor decoded.
    pub fn block_batch(
        &self,
        b: usize,
        columns: &[usize],
        env: Option<&StorageEnv>,
    ) -> Result<Batch> {
        let columns: Result<Vec<ColumnVector>> =
            columns.iter().map(|&c| self.columns[c][b].load(env)).collect();
        Ok(Batch::new(columns?))
    }

    /// SMA of column `c` in block `b`.
    pub fn sma(&self, c: usize, b: usize) -> (&Value, &Value) {
        let blk = &self.columns[c][b];
        (&blk.min, &blk.max)
    }

    fn append_chunk(&mut self, chunk: &[ColumnVector]) {
        debug_assert_eq!(chunk.len(), self.columns.len());
        for (col, vec) in self.columns.iter_mut().zip(chunk) {
            col.push(Block::new(vec.clone()));
        }
        self.rows += chunk.first().map_or(0, ColumnVector::len);
    }

    /// Publish one already-paged chunk: one block per column, `rows` new
    /// rows.
    fn append_paged_chunk(&mut self, blocks: Vec<Block>, rows: usize) {
        debug_assert_eq!(blocks.len(), self.columns.len());
        for (col, block) in self.columns.iter_mut().zip(blocks) {
            col.push(block);
        }
        self.rows += rows;
    }

    /// Rebuild a partition from its checkpointed description.
    fn from_meta(meta: PartitionMeta) -> Partition {
        let columns = meta
            .columns
            .into_iter()
            .map(|blocks| blocks.into_iter().map(|m| Block::paged(m.chunk, m.min, m.max)).collect())
            .collect();
        Partition { columns, rows: meta.rows }
    }

    fn meta(&self) -> Result<PartitionMeta> {
        let columns: Result<Vec<Vec<BlockMeta>>> =
            self.columns.iter().map(|blocks| blocks.iter().map(Block::meta).collect()).collect();
        Ok(PartitionMeta { rows: self.rows, columns: columns? })
    }

    /// Per-column block lists (vacuum walks these under the exclusive
    /// partition lock).
    pub(crate) fn columns(&self) -> &[Vec<Block>] {
        &self.columns
    }

    pub(crate) fn columns_mut(&mut self) -> &mut [Vec<Block>] {
        &mut self.columns
    }

    /// Drop every block past `keep` in each column, resetting the row
    /// count to `rows` — rollback's per-partition truncation. Returns the
    /// page ids of the removed paged chunks.
    fn truncate_blocks(&mut self, keep: usize, rows: usize) -> Vec<u64> {
        let mut freed = Vec::new();
        for blocks in &mut self.columns {
            while blocks.len() > keep {
                if let Some(chunk) = blocks.pop().and_then(|b| b.paged_chunk()) {
                    freed.extend(chunk.first_page..chunk.first_page + chunk.pages as u64);
                }
            }
        }
        self.rows = rows;
        freed
    }
}

/// A partitioned, block-organized table.
pub struct Table {
    name: String,
    schema: Schema,
    partitions: RwLock<Vec<Partition>>,
    /// Rows per block, fixed at creation: a restored table keeps its
    /// stored block size whatever the current config says.
    vector_size: usize,
    /// Round-robin cursor so successive bulk loads stay balanced.
    next_partition: AtomicUsize,
    /// Ordinals of columns declared unique by the loader. The
    /// partition-parallel driver relies on this to prove that a GROUP BY
    /// containing such a column, or a self-join on one, never spans
    /// morsels (paper Sec. 4.4: "the grouping key (ID, Node) ... can be
    /// derived from a partitioning based on ID, no repartitioning is
    /// necessary").
    unique_columns: RwLock<Vec<usize>>,
    /// Monotonic data version, bumped on every non-empty append. The
    /// invalidation primitive the serving-layer caches key on: a cache
    /// entry built at version `v` is valid exactly while `version() == v`.
    data_version: AtomicU64,
    /// The owning catalog's epoch counter (shared when the table was
    /// created through a [`crate::catalog::Catalog`]); appends bump it so
    /// epoch-keyed caches — the engine's plan cache — also observe DML.
    catalog_epoch: Arc<AtomicU64>,
    /// Persistent environment (buffer pool + WAL); `None` keeps the
    /// table purely in memory.
    env: Option<Arc<StorageEnv>>,
    /// Engine-wide transaction state (shared with the owning catalog):
    /// appends inside an open transaction defer their commit marker and
    /// record logical undo.
    txn: Arc<TxnState>,
    /// Serializes persistent appends on this table so WAL order equals
    /// publish order — the invariant that makes redo replay
    /// deterministic. Uncontended (and untouched) in in-memory mode.
    append_lock: Mutex<()>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema, config: &EngineConfig) -> Table {
        Table::with_epoch(name, schema, config, Arc::new(AtomicU64::new(0)))
    }

    /// A table whose appends also bump `catalog_epoch` — the constructor
    /// the [`crate::catalog::Catalog`] uses to thread its version counter
    /// through to DML.
    pub fn with_epoch(
        name: impl Into<String>,
        schema: Schema,
        config: &EngineConfig,
        catalog_epoch: Arc<AtomicU64>,
    ) -> Table {
        Table::with_storage(name, schema, config, catalog_epoch, None, Arc::default())
    }

    /// Full constructor: a table backed by a persistent environment when
    /// `env` is set, sharing the owning catalog's transaction state.
    pub(crate) fn with_storage(
        name: impl Into<String>,
        schema: Schema,
        config: &EngineConfig,
        catalog_epoch: Arc<AtomicU64>,
        env: Option<Arc<StorageEnv>>,
        txn: Arc<TxnState>,
    ) -> Table {
        let width = schema.len();
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            partitions: RwLock::new(
                (0..config.partitions.max(1)).map(|_| Partition::new(width)).collect(),
            ),
            vector_size: config.vector_size.max(1),
            next_partition: AtomicUsize::new(0),
            unique_columns: RwLock::new(Vec::new()),
            data_version: AtomicU64::new(0),
            catalog_epoch,
            env,
            txn,
            append_lock: Mutex::new(()),
        }
    }

    /// Rebuild a table from its checkpointed directory entry. The stored
    /// layout (partition count, vector size, round-robin cursor) wins
    /// over the current config so the rebuilt table is bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        name: &str,
        schema: Schema,
        vector_size: usize,
        partitions: Vec<PartitionMeta>,
        next_partition: u64,
        unique_columns: Vec<usize>,
        catalog_epoch: Arc<AtomicU64>,
        env: Arc<StorageEnv>,
        txn: Arc<TxnState>,
    ) -> Table {
        Table {
            name: name.to_ascii_lowercase(),
            schema,
            partitions: RwLock::new(partitions.into_iter().map(Partition::from_meta).collect()),
            vector_size: vector_size.max(1),
            next_partition: AtomicUsize::new(next_partition as usize),
            unique_columns: RwLock::new(unique_columns),
            data_version: AtomicU64::new(0),
            catalog_epoch,
            env: Some(env),
            txn,
            append_lock: Mutex::new(()),
        }
    }

    /// The persistent environment backing this table, if any.
    pub(crate) fn storage_env(&self) -> Option<&StorageEnv> {
        self.env.as_deref()
    }

    pub(crate) fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// Checkpoint description: round-robin cursor, unique columns, and
    /// every partition's paged block layout. Errors if any block is
    /// memory-resident (never the case for a persistent table).
    pub(crate) fn checkpoint_meta(&self) -> Result<(u64, Vec<usize>, Vec<PartitionMeta>)> {
        let parts = self.partitions.read();
        let metas: Result<Vec<PartitionMeta>> = parts.iter().map(Partition::meta).collect();
        Ok((
            self.next_partition.load(AtomicOrdering::Acquire) as u64,
            self.unique_columns.read().clone(),
            metas?,
        ))
    }

    /// Per-partition block counts right now — the snapshot a scan pins
    /// at construction. Blocks are immutable and only ever appended, so
    /// bounding a scan by these counts yields a consistent
    /// prefix-of-the-table view without blocking writers.
    pub fn snapshot(&self) -> Vec<usize> {
        self.partitions.read().iter().map(Partition::block_count).collect()
    }

    /// Monotonic data version: 0 at creation, +1 per non-empty append.
    pub fn version(&self) -> u64 {
        self.data_version.load(AtomicOrdering::Acquire)
    }

    /// Declare a column as unique (a key). This is a loader-supplied hint;
    /// it is not enforced on insert.
    pub fn declare_unique(&self, column: &str) -> Result<()> {
        let idx = self.schema.index_of(column).ok_or_else(|| {
            EngineError::Catalog(format!(
                "table {}: no column {column:?} to declare unique",
                self.name
            ))
        })?;
        let added = {
            let mut cols = self.unique_columns.write();
            if cols.contains(&idx) {
                false
            } else {
                cols.push(idx);
                true
            }
        };
        if added {
            let undo =
                || UndoRecord::Unique { name: self.name.clone(), column: column.to_string() };
            match &self.env {
                Some(env) if !env.is_replaying() => {
                    let _dml = env.dml_lock.read();
                    env.log_statement(
                        &self.txn,
                        persist::REC_UNIQUE,
                        &persist::encode_unique(&self.name, column),
                        undo,
                    )?;
                }
                Some(_) => {}
                None => {
                    self.txn.record(undo);
                }
            }
        }
        Ok(())
    }

    /// Remove a unique-column declaration (rollback of
    /// [`Table::declare_unique`]; never logged).
    pub(crate) fn undeclare_unique(&self, column: &str) {
        if let Some(idx) = self.schema.index_of(column) {
            self.unique_columns.write().retain(|&c| c != idx);
        }
    }

    /// Is column `idx` declared unique?
    pub fn is_unique_column(&self, idx: usize) -> bool {
        self.unique_columns.read().contains(&idx)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn partition_count(&self) -> usize {
        self.partitions.read().len()
    }

    pub fn row_count(&self) -> usize {
        self.partitions.read().iter().map(Partition::rows).sum()
    }

    /// Bulk-append columnar data. Rows are cut into chunks of the table's
    /// block size and dealt round-robin over the partitions, which keeps
    /// them balanced. Placement ignores values: a partition gets every
    /// `partition_count()`-th chunk, so even sequential ids interleave
    /// across partitions once a partition holds two chunks. Only a
    /// declared-unique column, or SMA ranges that happen to be disjoint,
    /// lets the partition-parallel driver treat a column as a key.
    pub fn append(&self, columns: Vec<ColumnVector>) -> Result<()> {
        let rows = self.check_columns(&columns)?;
        if rows == 0 {
            return Ok(());
        }
        match self.env.clone() {
            None => self.append_mem(&columns, rows),
            Some(env) => self.append_persistent(&env, &columns, rows),
        }
    }

    /// Check columnar input against the schema — column count, equal
    /// lengths, column types — and return its row count. [`Table::append`]
    /// runs this first; a caller that splits the columns before appending
    /// runs it before the split.
    pub fn check_columns(&self, columns: &[ColumnVector]) -> Result<usize> {
        if columns.len() != self.schema.len() {
            return Err(EngineError::Catalog(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, ColumnVector::len);
        for (i, (col, def)) in columns.iter().zip(self.schema.columns()).enumerate() {
            if col.len() != rows {
                return Err(EngineError::Catalog(format!(
                    "table {}: ragged input at column {i}",
                    self.name
                )));
            }
            if col.data_type() != def.dtype {
                return Err(EngineError::Type(format!(
                    "table {}: column {:?} expects {}, got {}",
                    self.name,
                    def.name,
                    def.dtype.name(),
                    col.data_type().name()
                )));
            }
        }
        Ok(rows)
    }

    /// Pre-append undo record: per-partition (block count, rows) plus
    /// the round-robin cursor, captured before any block of this append
    /// publishes.
    fn append_undo(&self, parts: &[Partition]) -> UndoRecord {
        UndoRecord::Append {
            name: self.name.clone(),
            parts: parts.iter().map(|p| (p.block_count(), p.rows())).collect(),
            next_partition: self.next_partition.load(AtomicOrdering::Acquire),
        }
    }

    /// The in-memory append path (unchanged pre-persistence behavior).
    fn append_mem(&self, columns: &[ColumnVector], rows: usize) -> Result<()> {
        let mut parts = self.partitions.write();
        let undo = self.append_undo(&parts);
        self.txn.record(|| undo);
        let pcount = parts.len();
        let mut start = 0;
        while start < rows {
            let end = (start + self.vector_size).min(rows);
            let chunk: Vec<ColumnVector> = columns.iter().map(|c| c.slice(start, end)).collect();
            let p = self.next_partition.fetch_add(1, AtomicOrdering::Relaxed) % pcount;
            parts[p].append_chunk(&chunk);
            start = end;
        }
        // Version bumps happen while the partition write lock is still
        // held, so a reader that observes the old version has not yet seen
        // any of the new blocks either.
        self.data_version.fetch_add(1, AtomicOrdering::Release);
        self.catalog_epoch.fetch_add(1, AtomicOrdering::Release);
        obs::metrics::EXEC_CATALOG_EPOCH_BUMPS.add(1);
        Ok(())
    }

    /// WAL-then-page append: log the statement as a committed record
    /// group (durability point), serialize each chunk's columns into
    /// pages through the buffer pool, then publish the blocks under a
    /// short partition write lock. Readers never wait on the fsync. The
    /// per-table append lock keeps WAL order identical to round-robin
    /// cursor order, so redo replay lands every chunk on the same
    /// partition it was on before the crash.
    fn append_persistent(
        &self,
        env: &Arc<StorageEnv>,
        columns: &[ColumnVector],
        rows: usize,
    ) -> Result<()> {
        let _dml = env.dml_lock.read();
        let _order = self.append_lock.lock();
        if !env.is_replaying() {
            // The undo pre-state is captured before any chunk is written
            // or published; the append lock keeps it exact.
            let undo = self.append_undo(&self.partitions.read());
            env.log_statement(
                &self.txn,
                persist::REC_APPEND,
                &persist::encode_append(&self.name, columns),
                || undo,
            )?;
        }
        let pcount = self.partitions.read().len();
        let mut pending: Vec<(usize, Vec<Block>, usize)> = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + self.vector_size).min(rows);
            let p = self.next_partition.fetch_add(1, AtomicOrdering::Relaxed) % pcount;
            let mut blocks = Vec::with_capacity(columns.len());
            for col in columns {
                let chunk_data = col.slice(start, end);
                let (min, max) = minmax(&chunk_data);
                let mut bytes = Vec::new();
                persist::encode_column(&mut bytes, &chunk_data);
                let chunk = env.write_chunk(&bytes, end - start)?;
                blocks.push(Block::paged(chunk, min, max));
            }
            pending.push((p, blocks, end - start));
            start = end;
        }
        let mut parts = self.partitions.write();
        for (p, blocks, chunk_rows) in pending {
            parts[p].append_paged_chunk(blocks, chunk_rows);
        }
        self.data_version.fetch_add(1, AtomicOrdering::Release);
        self.catalog_epoch.fetch_add(1, AtomicOrdering::Release);
        obs::metrics::EXEC_CATALOG_EPOCH_BUMPS.add(1);
        Ok(())
    }

    /// Append row-oriented values (used by SQL `INSERT ... VALUES`).
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<()> {
        let mut columns: Vec<ColumnVector> =
            self.schema.columns().iter().map(|c| ColumnVector::empty(c.dtype)).collect();
        for row in rows {
            if row.len() != self.schema.len() {
                return Err(EngineError::Catalog(format!(
                    "table {}: expected {} values per row, got {}",
                    self.name,
                    self.schema.len(),
                    row.len()
                )));
            }
            for (col, value) in columns.iter_mut().zip(row) {
                col.push(value.clone())?;
            }
        }
        self.append(columns)
    }

    /// Run `f` over every (partition index, partition) pair.
    pub fn with_partitions<R>(&self, f: impl FnOnce(&[Partition]) -> R) -> R {
        f(&self.partitions.read())
    }

    /// Write-lock every partition — the vacuum rebuild holds these
    /// guards (for every table at once) across the copy + pool swap so
    /// no reader pins a page of the file being replaced.
    pub(crate) fn lock_partitions_exclusive(&self) -> RwLockWriteGuard<'_, Vec<Partition>> {
        self.partitions.write()
    }

    /// Every data-file page this table's paged chunks occupy (the pages
    /// DROP TABLE returns to the free list).
    pub(crate) fn all_pages(&self) -> Vec<u64> {
        let parts = self.partitions.read();
        let mut pages = Vec::new();
        for part in parts.iter() {
            for blocks in part.columns() {
                for block in blocks {
                    if let Some(chunk) = block.paged_chunk() {
                        pages.extend(chunk.first_page..chunk.first_page + chunk.pages as u64);
                    }
                }
            }
        }
        pages
    }

    /// Roll an append back: truncate each partition to its pre-append
    /// (block count, rows) and restore the round-robin cursor. Returns
    /// the freed page ids. Versions bump (they are monotonic watermarks,
    /// never restored) so caches built on the rolled-back data die.
    pub(crate) fn truncate_to_prestate(
        &self,
        prestate: &[(usize, usize)],
        next_partition: usize,
    ) -> Vec<u64> {
        let mut parts = self.partitions.write();
        let mut freed = Vec::new();
        for (part, &(keep, rows)) in parts.iter_mut().zip(prestate) {
            freed.extend(part.truncate_blocks(keep, rows));
        }
        self.next_partition.store(next_partition, AtomicOrdering::Release);
        self.data_version.fetch_add(1, AtomicOrdering::Release);
        self.catalog_epoch.fetch_add(1, AtomicOrdering::Release);
        obs::metrics::EXEC_CATALOG_EPOCH_BUMPS.add(1);
        freed
    }

    /// Materialize one partition as a list of batches (one per block row
    /// group).
    pub fn partition_batches(&self, p: usize) -> Result<Vec<Batch>> {
        let parts = self.partitions.read();
        let part = &parts[p];
        let columns: Vec<usize> = (0..self.schema.len()).collect();
        (0..part.block_count()).map(|b| part.block_batch(b, &columns, self.storage_env())).collect()
    }

    /// Materialize the whole table as one batch per block.
    pub fn all_batches(&self) -> Result<Vec<Batch>> {
        let mut out = Vec::new();
        for p in 0..self.partition_count() {
            out.extend(self.partition_batches(p)?);
        }
        Ok(out)
    }

    /// Approximate data footprint in bytes (heap for memory-resident
    /// blocks, on-disk chunk size for paged ones).
    pub fn byte_size(&self) -> usize {
        let parts = self.partitions.read();
        parts
            .iter()
            .map(|p| {
                p.columns
                    .iter()
                    .map(|blocks| blocks.iter().map(Block::byte_size).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Table({}, {} cols, {} rows, {} partitions)",
            self.name,
            self.schema.len(),
            self.row_count(),
            self.partition_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("v", DataType::Float)])
            .unwrap()
    }

    fn config() -> EngineConfig {
        EngineConfig { vector_size: 4, partitions: 3, ..Default::default() }
    }

    #[test]
    fn schema_rejects_duplicates_and_is_case_insensitive() {
        let err = Schema::new(vec![
            ColumnDef::new("A", DataType::Int),
            ColumnDef::new("a", DataType::Int),
        ])
        .unwrap_err();
        assert!(matches!(err, EngineError::Catalog(_)));
        let s = int_schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn append_distributes_blocks_round_robin() {
        let t = Table::new("t", int_schema(), &config());
        let n = 10; // 3 blocks of 4,4,2 over 3 partitions
        t.append(vec![
            ColumnVector::Int((0..n).collect()),
            ColumnVector::Float((0..n).map(|i| i as f64).collect()),
        ])
        .unwrap();
        assert_eq!(t.row_count(), 10);
        t.with_partitions(|parts| {
            assert_eq!(parts.len(), 3);
            assert_eq!(parts[0].rows(), 4);
            assert_eq!(parts[1].rows(), 4);
            assert_eq!(parts[2].rows(), 2);
        });
        // A second load continues the round-robin at partition 0.
        t.append(vec![ColumnVector::Int(vec![100]), ColumnVector::Float(vec![1.0])]).unwrap();
        t.with_partitions(|parts| assert_eq!(parts[0].rows(), 5));
    }

    #[test]
    fn sma_tracks_min_max() {
        let t = Table::new("t", int_schema(), &config());
        t.append(vec![
            ColumnVector::Int(vec![5, 1, 9, 3]),
            ColumnVector::Float(vec![0.5, 0.1, 0.9, 0.3]),
        ])
        .unwrap();
        t.with_partitions(|parts| {
            let (min, max) = parts[0].sma(0, 0);
            assert_eq!(min, &Value::Int(1));
            assert_eq!(max, &Value::Int(9));
            let (min, max) = parts[0].sma(1, 0);
            assert_eq!(min, &Value::Float(0.1));
            assert_eq!(max, &Value::Float(0.9));
        });
    }

    #[test]
    fn append_validates_schema() {
        let t = Table::new("t", int_schema(), &config());
        // Wrong arity.
        assert!(t.append(vec![ColumnVector::Int(vec![1])]).is_err());
        // Wrong type.
        assert!(t
            .append(vec![ColumnVector::Float(vec![1.0]), ColumnVector::Float(vec![1.0])])
            .is_err());
        // Ragged.
        assert!(t
            .append(vec![ColumnVector::Int(vec![1, 2]), ColumnVector::Float(vec![1.0])])
            .is_err());
    }

    #[test]
    fn append_rows_round_trips() {
        let t = Table::new("t", int_schema(), &config());
        t.append_rows(&[
            vec![Value::Int(1), Value::Float(0.1)],
            vec![Value::Int(2), Value::Float(0.2)],
        ])
        .unwrap();
        let batches = t.all_batches().unwrap();
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_append_is_noop() {
        let t = Table::new("t", int_schema(), &config());
        t.append(vec![ColumnVector::Int(vec![]), ColumnVector::Float(vec![])]).unwrap();
        assert_eq!(t.row_count(), 0);
        assert!(t.all_batches().unwrap().is_empty());
    }

    #[test]
    fn version_bumps_on_append_only() {
        let t = Table::new("t", int_schema(), &config());
        assert_eq!(t.version(), 0);
        // Empty and failed appends leave the version untouched.
        t.append(vec![ColumnVector::Int(vec![]), ColumnVector::Float(vec![])]).unwrap();
        assert!(t.append(vec![ColumnVector::Int(vec![1])]).is_err());
        assert_eq!(t.version(), 0);
        t.append(vec![ColumnVector::Int(vec![1]), ColumnVector::Float(vec![0.1])]).unwrap();
        assert_eq!(t.version(), 1);
        t.append_rows(&[vec![Value::Int(2), Value::Float(0.2)]]).unwrap();
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn appends_bump_shared_epoch() {
        let epoch = Arc::new(AtomicU64::new(7));
        let t = Table::with_epoch("t", int_schema(), &config(), Arc::clone(&epoch));
        t.append(vec![ColumnVector::Int(vec![1]), ColumnVector::Float(vec![0.1])]).unwrap();
        assert_eq!(epoch.load(AtomicOrdering::Acquire), 8);
        assert_eq!(t.version(), 1, "table-local version independent of epoch base");
    }
}
