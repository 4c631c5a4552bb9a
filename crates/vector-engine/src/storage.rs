//! Columnar block storage with small materialized aggregates.
//!
//! Each table is split into [`EngineConfig::partitions`] horizontal
//! partitions — rows dealt round-robin, or by the hash of a declared
//! placement key ([`Table::declare_placement_key`]); each partition stores
//! every column as a sequence of blocks,
//! every one but the last holding exactly `vector_size` values: an append
//! tops up its partition's short last block before it starts a new one.
//! Every block carries min/max small materialized aggregates (SMAs, a.k.a.
//! MinMax indexes / zone maps — paper Sec. 4.4 and [Moerkotte, VLDB'98])
//! that scans use to skip whole blocks under range predicates.
//!
//! Both modes write through one path, [`Table::append`]: stage the new
//! blocks outside the partition write lock, log the statement (or record
//! its undo), publish under a short write lock. In a persistent table
//! every full block is paged; a short last block lives in memory (the WAL
//! record of each append makes its rows durable) until a checkpoint pages
//! it out. Without a data directory every block stays in memory. Scans
//! pin rows, not blocks: a snapshot is each partition's row count, so rows
//! an append adds to a block a scan will read stay invisible to it.

use crate::column::{Batch, ColumnVector};
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::exec::hash::hash_key_columns;
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

/// Where a block's values live: resident in memory (shared with every
/// batch a scan hands out), implied by the SMA (every row equals min = max,
/// so only the row count is kept), or as a paged column chunk read back
/// through the buffer pool on demand.
#[derive(Clone, Debug)]
enum BlockData {
    Mem(Arc<ColumnVector>),
    Const(usize),
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
    /// A memory-resident block. When its min and max are equal under
    /// [`Value::total_cmp`] every row is that value (for floats: the same
    /// bits, so `0.0`/`-0.0` or distinct NaN payloads stay `Mem`), and the
    /// block keeps no values — a model table's all-zero gate columns cost
    /// nothing.
    fn new(data: ColumnVector) -> Block {
        let (min, max) = minmax(&data);
        let data = if min.total_cmp(&max) == Ordering::Equal {
            BlockData::Const(data.len())
        } else {
            BlockData::Mem(Arc::new(data))
        };
        Block { data, min, max }
    }

    fn paged(chunk: PagedChunk, min: Value, max: Value) -> Block {
        Block { data: BlockData::Paged(chunk), min, max }
    }

    /// The block's values: a memory-resident block shares its vector (a
    /// pointer copy); a constant block materializes its rows; a paged block
    /// reads through the buffer pool and decodes into a new vector.
    pub fn load(&self, env: Option<&StorageEnv>) -> Result<Arc<ColumnVector>> {
        match &self.data {
            BlockData::Mem(v) => Ok(Arc::clone(v)),
            BlockData::Const(rows) => Ok(Arc::new(ColumnVector::repeat(&self.min, *rows))),
            BlockData::Paged(chunk) => {
                let env = env.ok_or_else(|| {
                    EngineError::Io("paged block read without a storage environment".into())
                })?;
                let col = env.with_chunk(chunk, |bytes| {
                    persist::decode_column(&mut persist::Reader::new(bytes))
                })?;
                if col.len() != chunk.rows as usize {
                    return Err(EngineError::Io(format!(
                        "chunk at page {} decoded {} rows, directory says {}",
                        chunk.first_page,
                        col.len(),
                        chunk.rows
                    )));
                }
                Ok(Arc::new(col))
            }
        }
    }

    /// The block with its values in memory — what [`Block::new`] makes of
    /// its rows. A paged block is read and decoded (a constant one needs
    /// only its SMA); any other is a clone.
    fn resident(&self, env: Option<&StorageEnv>) -> Result<Block> {
        let data = match &self.data {
            BlockData::Paged(chunk) if self.min.total_cmp(&self.max) == Ordering::Equal => {
                BlockData::Const(chunk.rows as usize)
            }
            BlockData::Paged(_) => BlockData::Mem(self.load(env)?),
            data => data.clone(),
        };
        Ok(Block { data, min: self.min.clone(), max: self.max.clone() })
    }

    /// Append `piece` to a memory-resident block — an append topping up
    /// its partition's short last block (a paged one is made
    /// [`Block::resident`] first, so this reads nothing). The result is
    /// what [`Block::new`] makes of the concatenated values (same SMA,
    /// same `Const`/`Mem` choice), but only `piece` is scanned for its
    /// SMA. The vector is copied only while something else shares it: a
    /// scan's batch, the undo log, or the table, whose last block an
    /// append tops up as a staged copy.
    fn extend(&mut self, piece: &ColumnVector) {
        let (lo, hi) = minmax(piece);
        let min = if lo.total_cmp(&self.min) == Ordering::Less { lo } else { self.min.clone() };
        let max = if hi.total_cmp(&self.max) == Ordering::Greater { hi } else { self.max.clone() };
        let constant = min.total_cmp(&max) == Ordering::Equal;
        match &mut self.data {
            // A `Mem` block holds two distinct values, so it stays `Mem`.
            BlockData::Mem(v) => Arc::make_mut(v).append(piece),
            BlockData::Const(rows) if constant => *rows += piece.len(),
            BlockData::Const(rows) => {
                let mut values = ColumnVector::repeat(&self.min, *rows);
                values.append(piece);
                self.data = BlockData::Mem(Arc::new(values));
            }
            BlockData::Paged(_) => unreachable!("a paged block is made resident before a top-up"),
        }
        (self.min, self.max) = (min, max);
    }

    /// Write a memory-resident block to the data file and point the block
    /// at its chunk; a paged block is left as it is.
    fn page_out(&mut self, env: &StorageEnv) -> Result<()> {
        if matches!(self.data, BlockData::Paged(_)) {
            return Ok(());
        }
        let values = self.load(None)?;
        let mut bytes = Vec::new();
        persist::encode_column(&mut bytes, &values);
        self.data = BlockData::Paged(env.write_chunk(&bytes, values.len())?);
        Ok(())
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
            BlockData::Const(rows) => *rows,
            BlockData::Paged(chunk) => chunk.rows as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    fn meta(&self) -> Result<BlockMeta> {
        match &self.data {
            BlockData::Paged(chunk) => {
                Ok(BlockMeta { chunk: *chunk, min: self.min.clone(), max: self.max.clone() })
            }
            BlockData::Mem(_) | BlockData::Const(_) => Err(EngineError::Io(
                "checkpoint found a memory-resident block in a persistent table".into(),
            )),
        }
    }

    /// The block's chunk location, if paged (vacuum relocates these).
    pub(crate) fn paged_chunk(&self) -> Option<PagedChunk> {
        match &self.data {
            BlockData::Paged(chunk) => Some(*chunk),
            BlockData::Mem(_) | BlockData::Const(_) => None,
        }
    }

    /// The page ids of the block's chunk, if paged.
    fn pages(&self) -> impl Iterator<Item = u64> {
        self.paged_chunk()
            .into_iter()
            .flat_map(|chunk| chunk.first_page..chunk.first_page + chunk.pages as u64)
    }

    /// Point the block at a relocated chunk (vacuum pass 2).
    pub(crate) fn set_paged_chunk(&mut self, chunk: PagedChunk) {
        self.data = BlockData::Paged(chunk);
    }
}

/// One piece of an append: rows `rows` of the input go to `partition`,
/// topping up its short last block (`top_up`) or starting a new block.
struct Piece {
    partition: usize,
    rows: std::ops::Range<usize>,
    top_up: bool,
}

impl Piece {
    /// The piece's values of one input column: its rows, or, when a hash
    /// placement regrouped the input ([`Table::placement`]), the input rows
    /// `order` lists there.
    fn of(&self, column: &ColumnVector, order: Option<&[usize]>) -> ColumnVector {
        match order {
            Some(order) => column.take(&order[self.rows.clone()]),
            None => column.slice(self.rows.start, self.rows.end),
        }
    }
}

/// A partition as an append found it, which is what rolling the append
/// back restores: its row and block counts and, when the append tops up
/// its short last block, that block of every column as it was. A rollback
/// therefore never reads the data file.
pub(crate) struct PartitionState {
    rows: usize,
    blocks: usize,
    tail: Vec<Block>,
}

/// One horizontal partition: per column, the list of blocks. Every block
/// but the last holds `vector_size` rows, so row `i` of the partition lies
/// in block `i / vector_size` across all columns.
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

    /// Rows in block `b`.
    pub(crate) fn block_len(&self, b: usize) -> usize {
        self.columns.first().map_or(0, |blocks| blocks[b].len())
    }

    /// The block holding row `row` and the partition row it starts at;
    /// `(block_count(), rows())` when `row` is past the end. Walks block
    /// lengths rather than dividing by `vector_size`: it reads whatever
    /// lengths the blocks (or the directory they came from) describe, and
    /// assumes no block but the last is full.
    pub(crate) fn block_at(&self, row: usize) -> (usize, usize) {
        let mut first = 0;
        for (b, block) in self.columns.first().into_iter().flatten().enumerate() {
            if row < first + block.len() {
                return (b, first);
            }
            first += block.len();
        }
        (self.block_count(), first)
    }

    /// Rows in the last block; 0 when the partition is empty.
    fn tail_len(&self) -> usize {
        self.columns.first().and_then(|blocks| blocks.last()).map_or(0, Block::len)
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
        let columns: Result<Vec<Arc<ColumnVector>>> =
            columns.iter().map(|&c| self.columns[c][b].load(env)).collect();
        Ok(Batch::new(columns?))
    }

    /// SMA of column `c` in block `b`.
    pub fn sma(&self, c: usize, b: usize) -> (&Value, &Value) {
        let blk = &self.columns[c][b];
        (&blk.min, &blk.max)
    }

    /// Publish one staged piece: one block per column, holding `rows` new
    /// rows, replacing the last block when the piece topped it up.
    fn publish(&mut self, blocks: Vec<Block>, top_up: bool, rows: usize) {
        debug_assert_eq!(blocks.len(), self.columns.len());
        for (col, block) in self.columns.iter_mut().zip(blocks) {
            match col.last_mut() {
                Some(tail) if top_up => *tail = block,
                _ => col.push(block),
            }
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

    /// This partition as an append finds it; `top_up` says whether the
    /// append tops up the short last block.
    fn state(&self, top_up: bool) -> PartitionState {
        let tail = match top_up {
            true => self.columns.iter().filter_map(|blocks| blocks.last()).cloned().collect(),
            false => Vec::new(),
        };
        PartitionState { rows: self.rows, blocks: self.block_count(), tail }
    }

    /// Put the partition back as `state` found it — rollback's
    /// per-partition step: the blocks past its block count go, and a
    /// topped-up last block is replaced by its old version. Returns the
    /// page ids of the paged chunks dropped: the rolled-back statements
    /// wrote every one of them, so no directory names them.
    fn restore(&mut self, state: &PartitionState) -> Vec<u64> {
        let mut freed = Vec::new();
        let mut tail = state.tail.iter();
        for blocks in &mut self.columns {
            for block in blocks.drain(state.blocks.min(blocks.len())..) {
                freed.extend(block.pages());
            }
            if let (Some(old), Some(last)) = (tail.next(), blocks.last_mut()) {
                // The same chunk when the append failed before it published.
                if last.paged_chunk() != old.paged_chunk() {
                    freed.extend(last.pages());
                }
                *last = old.clone();
            }
        }
        self.rows = state.rows;
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
    /// The column whose hash places each row
    /// ([`Table::declare_placement_key`]); `None` deals rows round-robin.
    placement_key: RwLock<Option<usize>>,
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
    /// Serializes appends (and placement-key declarations) on this table:
    /// the cursor, the last blocks and the undo pre-state an append reads
    /// stay as it found them until it publishes, and in persistent mode
    /// WAL order equals publish order — the invariant that makes redo
    /// replay deterministic.
    append_lock: Mutex<()>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema, config: &EngineConfig) -> Table {
        Table::with_storage(name, schema, config, Arc::default(), None, Arc::default())
    }

    /// Full constructor: a table whose appends also bump `catalog_epoch`,
    /// backed by a persistent environment when `env` is set, sharing the
    /// owning catalog's transaction state.
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
            placement_key: RwLock::new(None),
            unique_columns: RwLock::new(Vec::new()),
            data_version: AtomicU64::new(0),
            catalog_epoch,
            env,
            txn,
            append_lock: Mutex::new(()),
        }
    }

    /// Rebuild a table from its checkpointed directory entry. The stored
    /// layout (partition count, vector size, round-robin cursor, placement
    /// key) wins over the current config so the rebuilt table is
    /// bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        name: &str,
        schema: Schema,
        vector_size: usize,
        partitions: Vec<PartitionMeta>,
        next_partition: u64,
        placement_key: Option<usize>,
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
            placement_key: RwLock::new(placement_key),
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

    /// Rows per block: every block of a partition but its last holds
    /// exactly this many.
    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// Checkpoint description: round-robin cursor, placement key, unique
    /// columns, and every partition's paged block layout. Errors if any
    /// block is memory-resident ([`Table::page_out_tails`] runs first).
    #[allow(clippy::type_complexity)]
    pub(crate) fn checkpoint_meta(
        &self,
    ) -> Result<(u64, Option<usize>, Vec<usize>, Vec<PartitionMeta>)> {
        let parts = self.partitions.read();
        let metas: Result<Vec<PartitionMeta>> = parts.iter().map(Partition::meta).collect();
        Ok((
            self.next_partition.load(AtomicOrdering::Acquire) as u64,
            self.placement_key(),
            self.unique_columns.read().clone(),
            metas?,
        ))
    }

    /// Per-partition row counts right now — the snapshot a scan pins at
    /// construction. An append only adds rows past these counts (topping
    /// up a short last block, then new blocks), so bounding a scan by them
    /// yields a consistent prefix-of-the-table view without blocking
    /// writers.
    pub fn snapshot(&self) -> Vec<usize> {
        self.partitions.read().iter().map(Partition::rows).collect()
    }

    /// Page out every memory-resident block — only short last blocks are
    /// — so the directory a checkpoint or `VACUUM` writes names paged
    /// blocks only. Callers hold the exclusive DML lock. No-op in memory.
    pub(crate) fn page_out_tails(&self) -> Result<()> {
        let Some(env) = self.storage_env() else {
            return Ok(());
        };
        let mut parts = self.partitions.write();
        for blocks in parts.iter_mut().flat_map(|part| part.columns.iter_mut()) {
            for block in blocks {
                block.page_out(env)?;
            }
        }
        Ok(())
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
        let _dml = self.txn.dml_lock.read();
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
            self.txn.log(
                self.storage_env(),
                persist::REC_UNIQUE,
                || persist::encode_table_column(&self.name, column),
                || UndoRecord::Unique { name: self.name.clone(), column: column.to_string() },
            )?;
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

    /// Place rows by `hash(column) % partition_count()` instead of
    /// round-robin, so every row holding one key value lands in one
    /// partition: a scan pinned by `key = literal` reads that partition
    /// alone ([`crate::exec::scan::pinned_partition`]), and the
    /// partition-parallel driver may split on the key with one morsel per
    /// partition. Rows are placed as they are appended, so only an empty
    /// table takes a (new) key. Logged and rolled back like
    /// [`Table::declare_unique`], and kept in the directory, so replay and
    /// reopen re-derive every row's place.
    pub fn declare_placement_key(&self, column: &str) -> Result<()> {
        let idx = self.schema.index_of(column).ok_or_else(|| {
            EngineError::Catalog(format!(
                "table {}: no column {column:?} to place rows by",
                self.name
            ))
        })?;
        // The locks an append holds while it deals, so none deals between
        // the emptiness check and the new key.
        let _dml = self.txn.dml_lock.read();
        let _order = self.append_lock.lock();
        let parts = self.partitions.read();
        if parts.iter().any(|p| p.rows > 0) {
            return Err(EngineError::Catalog(format!(
                "table {}: a placement key must be declared before rows are loaded",
                self.name
            )));
        }
        let previous = self.placement_key();
        if previous == Some(idx) {
            return Ok(());
        }
        self.txn.log(
            self.storage_env(),
            persist::REC_PLACEMENT,
            || persist::encode_table_column(&self.name, column),
            || UndoRecord::Placement { name: self.name.clone(), key: previous },
        )?;
        *self.placement_key.write() = Some(idx);
        Ok(())
    }

    /// The column rows are hash-placed by, if one was declared.
    pub fn placement_key(&self) -> Option<usize> {
        *self.placement_key.read()
    }

    /// Put back the placement key an undone declaration replaced.
    pub(crate) fn restore_placement_key(&self, key: Option<usize>) {
        *self.placement_key.write() = key;
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

    /// Bulk-append columnar data. Rows are cut into pieces and dealt
    /// round-robin over the partitions, which keeps them balanced, or, on a
    /// hash-placed table, each to the partition its key hashes to: a
    /// partition's piece first tops up its short last block, and is a
    /// whole block (`vector_size` rows) when there is none, so a load into
    /// empty partitions cuts whole blocks. Round-robin placement ignores
    /// values: a partition gets every `partition_count()`-th piece, so even
    /// sequential ids interleave across partitions once a partition holds
    /// two pieces. Only a placement key, a declared-unique column, or SMA
    /// ranges that happen to be disjoint lets the partition-parallel driver
    /// treat a column as a key.
    ///
    /// One write path for both modes. Under the partition read lock the
    /// append deals its pieces, makes every last block it tops up resident
    /// and logs the statement ([`TxnState::log`]: a committed WAL record
    /// group — the durability point — or the undo record of an open
    /// transaction). It then stages each piece's blocks, consuming the
    /// input one column at a time so the load holds at most one input
    /// column beside the table and the staged blocks, and, with an
    /// environment, paging out every block a piece fills (a short one
    /// stays in memory). The blocks and the new cursor publish under a
    /// short partition write lock: readers never wait on the fsync or the
    /// page writes. The shared DML lock keeps `ROLLBACK` and checkpoints
    /// out from the undo record to the publish, and the per-table append
    /// lock keeps the last blocks and the cursor still, so WAL order
    /// equals publish order and redo replay lands every piece where it was
    /// before a crash.
    ///
    /// Topping up a paged short last block (a checkpoint paged it) decodes
    /// it into memory before the statement is logged, so a bad page fails
    /// the append before it is durable. Its pages are not freed here: the
    /// on-disk directory names them and replay decodes them again, so they
    /// wait for the checkpoint whose directory stops naming them.
    pub fn append(&self, columns: Vec<ColumnVector>) -> Result<()> {
        let rows = self.check_columns(&columns)?;
        if rows == 0 {
            return Ok(());
        }
        let env = self.storage_env();
        let _dml = self.txn.dml_lock.read();
        let _order = self.append_lock.lock();
        let cursor = self.next_partition.load(AtomicOrdering::Acquire);
        let placed = self.placement(&columns, self.partition_count());
        let (order, sizes) = placed.as_ref().map(|(o, s)| (o.as_slice(), s.as_slice())).unzip();
        let mut superseded = Vec::new();
        let (pieces, next, mut tails) = {
            let parts = self.partitions.read();
            let (pieces, next) = self.deal(&parts, cursor, sizes, rows);
            // Per piece, the last block of every column it tops up, in
            // memory (none for a piece that starts new blocks).
            let mut tails = Vec::with_capacity(pieces.len());
            for piece in &pieces {
                let mut tail = Vec::new();
                if piece.top_up {
                    for block in parts[piece.partition].columns.iter().filter_map(|b| b.last()) {
                        superseded.extend(block.pages());
                        tail.push(block.resident(env)?);
                    }
                }
                tails.push(tail.into_iter());
            }
            self.txn.log(
                env,
                persist::REC_APPEND,
                || persist::encode_append(&self.name, &columns),
                || self.append_undo(&parts, &pieces, cursor),
            )?;
            (pieces, next, tails)
        };
        let mut staged: Vec<Vec<Block>> =
            pieces.iter().map(|_| Vec::with_capacity(columns.len())).collect();
        for column in columns {
            for ((piece, tail), blocks) in pieces.iter().zip(&mut tails).zip(&mut staged) {
                let data = piece.of(&column, order);
                let mut block = match tail.next() {
                    Some(mut block) => {
                        block.extend(&data);
                        block
                    }
                    None => Block::new(data),
                };
                if let Some(env) = env.filter(|_| block.len() == self.vector_size) {
                    block.page_out(env)?;
                }
                blocks.push(block);
            }
        }
        let mut parts = self.partitions.write();
        for (piece, blocks) in pieces.iter().zip(staged) {
            parts[piece.partition].publish(blocks, piece.top_up, piece.rows.len());
        }
        self.next_partition.store(next, AtomicOrdering::Release);
        if let Some(env) = env {
            env.supersede(superseded);
        }
        // Versions bump while the partition write lock is still held, so a
        // reader that observes the old version has not yet seen any of the
        // new blocks either.
        self.bump_versions();
        Ok(())
    }

    /// Bump the table's data version and the catalog epoch.
    fn bump_versions(&self) {
        self.data_version.fetch_add(1, AtomicOrdering::Release);
        self.catalog_epoch.fetch_add(1, AtomicOrdering::Release);
        obs::metrics::EXEC_CATALOG_EPOCH_BUMPS.add(1);
    }

    /// Check columnar input against the schema — column count, equal
    /// lengths, column types — and return its row count.
    fn check_columns(&self, columns: &[ColumnVector]) -> Result<usize> {
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

    /// Pre-append undo record: every partition's [`PartitionState`] plus
    /// the round-robin cursor, captured before any block of this append
    /// publishes.
    fn append_undo(&self, parts: &[Partition], pieces: &[Piece], cursor: usize) -> UndoRecord {
        let topped = |p: usize| pieces.iter().any(|piece| piece.partition == p && piece.top_up);
        UndoRecord::Append {
            name: self.name.clone(),
            parts: parts.iter().enumerate().map(|(p, part)| part.state(topped(p))).collect(),
            next_partition: cursor,
        }
    }

    /// Cut `rows` new rows into pieces and deal them over the partitions.
    /// Round-robin (`sizes` is `None`): piece `k` goes to partition
    /// `(cursor + k) % partition_count()`. Hash placement: the rows come
    /// grouped by partition ([`Table::placement`]), `sizes[p]` of them for
    /// partition `p`, and each group is cut in turn; the cursor stays. A
    /// piece holds the room left in its partition's last block, or
    /// `vector_size` rows when it is full or missing, so only a
    /// partition's first piece can top up. Replay appends through the same
    /// deal, so WAL replay from a checkpoint re-derives every row's place.
    /// Returns the pieces and the cursor after them.
    fn deal(
        &self,
        parts: &[Partition],
        cursor: usize,
        sizes: Option<&[usize]>,
        rows: usize,
    ) -> (Vec<Piece>, usize) {
        let mut tails: Vec<usize> = parts.iter().map(Partition::tail_len).collect();
        let mut pieces = Vec::new();
        // Cut the next piece of partition `p` off `start..end`; its end.
        let mut cut = |p: usize, start: usize, end: usize| {
            let top_up = tails[p] > 0 && tails[p] < self.vector_size;
            let room = if top_up { self.vector_size - tails[p] } else { self.vector_size };
            let stop = (start + room).min(end);
            tails[p] = if top_up { tails[p] + stop - start } else { stop - start };
            pieces.push(Piece { partition: p, rows: start..stop, top_up });
            stop
        };
        let mut start = 0;
        let next = match sizes {
            None => {
                let mut k = 0;
                while start < rows {
                    start = cut(cursor.wrapping_add(k) % parts.len(), start, rows);
                    k += 1;
                }
                cursor.wrapping_add(k)
            }
            Some(sizes) => {
                for (p, &size) in sizes.iter().enumerate() {
                    let end = start + size;
                    while start < end {
                        start = cut(p, start, end);
                    }
                }
                cursor
            }
        };
        (pieces, next)
    }

    /// A hash-placed table's input rows, grouped by the partition
    /// `hash(key) % partitions` sends them to: the row order listing
    /// partition 0's rows first (input order kept within a partition),
    /// and each partition's row count. `None` for a round-robin table.
    /// Read under the locks an append deals under, so it sees the key a
    /// concurrent [`Table::declare_placement_key`] leaves.
    fn placement(
        &self,
        columns: &[ColumnVector],
        partitions: usize,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let key = &columns[self.placement_key()?];
        let mut targets = Vec::new();
        hash_key_columns(std::slice::from_ref(key), key.len(), &mut targets);
        let mut sizes = vec![0; partitions];
        for t in &mut targets {
            *t %= partitions as u64;
            sizes[*t as usize] += 1;
        }
        let mut next: Vec<usize> = sizes
            .iter()
            .scan(0, |at, &n| {
                *at += n;
                Some(*at - n)
            })
            .collect();
        let mut order = vec![0; targets.len()];
        for (row, &t) in targets.iter().enumerate() {
            order[next[t as usize]] = row;
            next[t as usize] += 1;
        }
        Some((order, sizes))
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
        parts.iter().flat_map(|part| part.columns.iter().flatten().flat_map(Block::pages)).collect()
    }

    /// Roll an append back: restore each partition's pre-append state
    /// (its old short last block, if the append topped one up) and the
    /// round-robin cursor, reading nothing. Returns the freed page ids. A
    /// restored paged block's pages leave the superseded list, since the
    /// table names them again. Versions bump (they are monotonic
    /// watermarks, never restored) so caches built on the rolled-back data
    /// die.
    pub(crate) fn truncate_to_prestate(
        &self,
        prestate: &[PartitionState],
        next_partition: usize,
    ) -> Vec<u64> {
        let mut parts = self.partitions.write();
        let mut freed = Vec::new();
        for (part, state) in parts.iter_mut().zip(prestate) {
            freed.extend(part.restore(state));
        }
        if let Some(env) = self.storage_env() {
            env.unsupersede(prestate.iter().flat_map(|s| s.tail.iter().flat_map(Block::pages)));
        }
        self.next_partition.store(next_partition, AtomicOrdering::Release);
        self.bump_versions();
        freed
    }

    /// Visit partition `p` one block at a time, each as a batch of the
    /// given columns (table ordinals, in output order); columns not listed
    /// are neither read nor decoded. The partition read guard is held for
    /// the whole visit, so a rollback cannot truncate blocks under it; `f`
    /// must therefore not call back into this table.
    pub fn for_each_block(
        &self,
        p: usize,
        columns: &[usize],
        mut f: impl FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        let parts = self.partitions.read();
        let part = &parts[p];
        for b in 0..part.block_count() {
            f(part.block_batch(b, columns, self.storage_env())?)?;
        }
        Ok(())
    }

    /// Materialize the whole table as one batch per block.
    pub fn all_batches(&self) -> Result<Vec<Batch>> {
        let columns: Vec<usize> = (0..self.schema.len()).collect();
        let mut out = Vec::new();
        for p in 0..self.partition_count() {
            self.for_each_block(p, &columns, |batch| {
                out.push(batch);
                Ok(())
            })?;
        }
        Ok(out)
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
    fn hash_placement_puts_each_key_in_its_partition_and_keeps_blocks_full() {
        use crate::exec::hash::hash_value;
        let t = Table::new("t", int_schema(), &config());
        assert!(t.declare_placement_key("nope").is_err(), "unknown column");
        t.declare_placement_key("id").unwrap();
        // Skewed keys: most rows share id 7. Loads of several sizes top up
        // short last blocks.
        for (start, n) in [(0i64, 1usize), (1, 10), (11, 3), (14, 40)] {
            let ids: Vec<i64> =
                (start..start + n as i64).map(|i| if i % 3 == 0 { i } else { 7 }).collect();
            let vs: Vec<f64> = (start..start + n as i64).map(|i| i as f64).collect();
            t.append(vec![ColumnVector::Int(ids), ColumnVector::Float(vs)]).unwrap();
        }
        assert_eq!(t.row_count(), 54);
        t.with_partitions(|parts| {
            for (p, part) in parts.iter().enumerate() {
                for b in 0..part.block_count() {
                    let batch = part.block_batch(b, &[0, 1], None).unwrap();
                    for &id in batch.column(0).as_int().unwrap() {
                        assert_eq!((hash_value(&Value::Int(id)) % 3) as usize, p, "id {id}");
                    }
                    if b + 1 < part.block_count() {
                        assert_eq!(batch.num_rows(), 4, "partition {p} block {b} is full");
                    }
                }
            }
        });
        // Rows of one key keep their input order (v ascends).
        let sevens: Vec<f64> = t
            .all_batches()
            .unwrap()
            .iter()
            .flat_map(|b| {
                let (ids, vs) = (b.column(0).as_int().unwrap(), b.column(1).as_float().unwrap());
                ids.iter().zip(vs).filter(|(&i, _)| i == 7).map(|(_, &v)| v).collect::<Vec<_>>()
            })
            .collect();
        assert!(sevens.windows(2).all(|w| w[0] < w[1]), "{sevens:?}");
        assert!(t.declare_placement_key("v").is_err(), "a loaded table keeps its placement");
    }

    #[test]
    fn a_rolled_back_placement_key_is_forgotten() {
        let engine = crate::session::Engine::new(config());
        engine.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        let t = engine.table("t").unwrap();
        t.declare_placement_key("v").unwrap();
        engine.execute("BEGIN").unwrap();
        t.declare_placement_key("id").unwrap();
        engine
            .insert_columns("t", vec![ColumnVector::Int(vec![1]), ColumnVector::Float(vec![0.5])])
            .unwrap();
        assert_eq!(t.placement_key(), Some(0));
        engine.execute("ROLLBACK").unwrap();
        assert_eq!((t.placement_key(), t.row_count()), (Some(1), 0));
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

    /// Equal values, floats compared by their bits.
    fn same_bits(a: &ColumnVector, b: &ColumnVector) -> bool {
        match (a, b) {
            (ColumnVector::Float(x), ColumnVector::Float(y)) => {
                x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
            }
            _ => a == b,
        }
    }

    /// Every column of the table, concatenated over its blocks in scan
    /// order.
    fn scanned(t: &Table) -> Vec<ColumnVector> {
        let mut out: Vec<ColumnVector> =
            t.schema().columns().iter().map(|c| ColumnVector::empty(c.dtype)).collect();
        for batch in t.all_batches().unwrap() {
            for (dst, src) in out.iter_mut().zip(batch.columns()) {
                dst.append(src);
            }
        }
        out
    }

    /// Per partition, per column, whether each block stores no values.
    fn const_blocks(t: &Table) -> Vec<Vec<Vec<bool>>> {
        t.with_partitions(|parts| {
            parts
                .iter()
                .map(|p| {
                    p.columns
                        .iter()
                        .map(|blocks| {
                            blocks.iter().map(|b| matches!(b.data, BlockData::Const(_))).collect()
                        })
                        .collect()
                })
                .collect()
        })
    }

    fn one_of_each_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("b", DataType::Bool),
            ColumnDef::new("s", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn all_equal_blocks_are_const_and_load_bit_identically() {
        let t = Table::new("t", one_of_each_schema(), &config());
        // Three whole blocks and a one-row tail, every one all-equal; the
        // float blocks are -0.0, a NaN and 0.5.
        let nan = f64::from_bits(f64::NAN.to_bits() | 5);
        let floats = [-0.0, nan, 0.5, 0.5];
        let input = vec![
            ColumnVector::Int([7, -1, 0, 3].iter().flat_map(|&v| vec![v; 4]).take(13).collect()),
            ColumnVector::Float(floats.iter().flat_map(|&v| vec![v; 4]).take(13).collect()),
            ColumnVector::Bool(
                [true, false, true, true].iter().flat_map(|&v| vec![v; 4]).take(13).collect(),
            ),
            ColumnVector::Str(
                ["x", "", "yy", "x"]
                    .iter()
                    .flat_map(|&v| vec![v.to_string(); 4])
                    .take(13)
                    .collect(),
            ),
        ];
        t.append(input.clone()).unwrap();
        assert!(const_blocks(&t).iter().flatten().flatten().all(|&c| c));
        // Round-robin over 3 partitions puts blocks 0 and 3 in partition 0.
        let expect: Vec<ColumnVector> =
            input.iter().map(|c| c.take(&[0, 1, 2, 3, 12, 4, 5, 6, 7, 8, 9, 10, 11])).collect();
        for (got, want) in scanned(&t).iter().zip(&expect) {
            assert!(same_bits(got, want), "{got:?} != {want:?}");
        }
    }

    #[test]
    fn signed_zeros_and_distinct_nan_payloads_stay_mem() {
        let schema = Schema::new(vec![ColumnDef::new("f", DataType::Float)]).unwrap();
        let cfg = EngineConfig { vector_size: 4, partitions: 1, ..Default::default() };
        let t = Table::new("t", schema, &cfg);
        let (nan_a, nan_b) = (f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1));
        let input = ColumnVector::Float(vec![0.0, -0.0, 0.0, -0.0, nan_a, nan_b, nan_b, nan_a]);
        t.append(vec![input.clone()]).unwrap();
        assert_eq!(const_blocks(&t), vec![vec![vec![false, false]]]);
        assert!(same_bits(&scanned(&t)[0], &input));
    }

    #[test]
    fn sma_pruning_skips_and_keeps_const_blocks() {
        use crate::exec::physical::Operator;
        use crate::exec::scan::ScanExec;
        use crate::expr::BinaryOp;
        use crate::plan::logical::PrunePredicate;

        let engine = crate::session::Engine::new(config());
        engine.execute("CREATE TABLE t (c INT)").unwrap();
        let values: Vec<i64> = [5, 5, 5, 5, 9, 9, 9, 9, 5, 5, 5, 5, 1, 2, 3, 4].to_vec();
        engine.insert_columns("t", vec![ColumnVector::Int(values)]).unwrap();
        let t = engine.table("t").unwrap();
        let kinds: Vec<bool> = const_blocks(&t).into_iter().flat_map(|p| p[0].clone()).collect();
        assert_eq!(kinds.iter().filter(|&&c| c).count(), 3, "three of four blocks are constant");
        for (k, rows, read) in [(5, 8, 2), (9, 4, 1), (3, 1, 1), (6, 0, 0)] {
            let q = engine.execute(&format!("SELECT COUNT(*) AS n FROM t WHERE c = {k}")).unwrap();
            assert_eq!(q.rows()[0][0], Value::Int(rows), "c = {k}");
            let pred = PrunePredicate { column: 0, op: BinaryOp::Eq, value: Value::Int(k) };
            let mut scan = ScanExec::new(Arc::clone(&t), vec![pred], None);
            let mut kept = Vec::new();
            while let Some(batch) = scan.next().unwrap() {
                kept.extend_from_slice(batch.column(0).as_int().unwrap());
            }
            assert_eq!((scan.blocks_read, scan.blocks_pruned), (read, 4 - read), "c = {k}");
            assert_eq!(kept.iter().filter(|&&v| v == k).count() as i64, rows, "c = {k}");
        }
    }

    #[test]
    fn rollback_over_const_blocks_restores_the_prestate() {
        let engine = crate::session::Engine::new(config());
        let oracle = crate::session::Engine::new(config());
        let bulk = |base: f64| {
            vec![
                ColumnVector::Int(vec![1, 1, 1, 1, 2, 2, 2, 2, 3]),
                ColumnVector::Float(vec![base, base, base, base, 0.0, 0.0, 0.0, 0.0, 0.5]),
            ]
        };
        for e in [&engine, &oracle] {
            e.execute("CREATE TABLE t (id INT, w FLOAT)").unwrap();
            e.insert_columns("t", bulk(0.0)).unwrap();
        }
        let t = engine.table("t").unwrap();
        let prestate = (t.snapshot(), const_blocks(&t), scanned(&t));
        engine.execute("BEGIN").unwrap();
        engine.execute("INSERT INTO t VALUES (4, 0.0), (4, 0.0)").unwrap();
        engine.insert_columns("t", bulk(-0.0)).unwrap();
        engine.execute("ROLLBACK").unwrap();
        assert_eq!(t.snapshot(), prestate.0);
        assert_eq!(const_blocks(&t), prestate.1);
        for (got, want) in scanned(&t).iter().zip(&prestate.2) {
            assert!(same_bits(got, want));
        }
        // The round-robin cursor is restored too: the next append lands
        // where it lands on a table that never saw the transaction.
        for e in [&engine, &oracle] {
            e.insert_columns("t", bulk(1.0)).unwrap();
        }
        let o = oracle.table("t").unwrap();
        assert_eq!(t.snapshot(), o.snapshot());
        assert_eq!(const_blocks(&t), const_blocks(&o));
        for (got, want) in scanned(&t).iter().zip(&scanned(&o)) {
            assert!(same_bits(got, want));
        }
    }

    #[test]
    fn appends_bump_shared_epoch() {
        let epoch = Arc::new(AtomicU64::new(7));
        let t = Table::with_storage(
            "t",
            int_schema(),
            &config(),
            Arc::clone(&epoch),
            None,
            Arc::default(),
        );
        t.append(vec![ColumnVector::Int(vec![1]), ColumnVector::Float(vec![0.1])]).unwrap();
        assert_eq!(epoch.load(AtomicOrdering::Acquire), 8);
        assert_eq!(t.version(), 1, "table-local version independent of epoch base");
    }
}
