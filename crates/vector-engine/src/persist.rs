//! The engine's persistent storage layer: column-chunk paging, WAL
//! record payloads, the page directory, checkpointing, and ARIES-lite
//! redo recovery.
//!
//! The byte-moving machinery (pages, buffer pool, WAL framing, group
//! commit) lives in the `storage` crate; this module gives those bytes
//! meaning. Persistent mode is enabled by
//! [`crate::config::EngineConfig::data_dir`]; the layout under that root
//! is
//!
//! ```text
//! data.idb        paged column chunks, read through the buffer pool
//! wal.log         committed DDL + DML since the last checkpoint
//! directory.bin   checkpointed table layouts + page allocator + LSN
//! ```
//!
//! **Logging and recovery model.** Tables are append-only (plus CREATE /
//! DROP / unique-column and placement-key declarations), so the WAL is *logical redo
//! only*: each committed statement is one record group, and recovery
//! rebuilds the checkpointed directory and then re-applies every
//! committed record with `lsn > checkpoint_lsn` through the normal
//! (non-logging) engine paths. Pages written after a checkpoint are not
//! referenced by the durable directory, so a crash simply makes them
//! invisible; replay rewrites their contents at freshly allocated page
//! ids. Statement ordering is anchored by per-table append locks — WAL
//! order equals publish order — which makes replay deterministic and the
//! recovered engine bit-identical to an engine that executed exactly the
//! committed statement prefix.
//!
//! **Checkpoint.** Holds the engine-wide DML lock ([`TxnState`], taken in
//! both modes; appends and DDL hold it shared) exclusively, pages out
//! every short last block (they live in memory between checkpoints),
//! flushes every dirty pool frame, writes `directory.bin` atomically (temp
//! file + fsync + rename), then truncates the WAL. LSNs keep counting
//! across resets so a crash between the directory rename and the WAL reset
//! replays nothing twice.
//!
//! **Space reclamation.** Page allocation prefers a persisted free list:
//! `DROP TABLE` returns a table's pages to it (deferred to `COMMIT`
//! inside a transaction so `ROLLBACK` can reinstall the table), and
//! every open recomputes it as "allocated minus live" after replay, which
//! also reclaims orphans left by crash-torn appends. The pages of a paged
//! short block an append has topped up are *superseded*, not free: the
//! on-disk directory still names them and replay decodes them to top the
//! block up again, so they join the free list of the next checkpoint's
//! directory, written atomically with it. `VACUUM` rebuilds
//! the data file: live chunks are copied into a fresh generation file
//! (`data.idb` is generation 0, `data.idb.<n>` after n vacuums) under a
//! full quiesce, the buffer pool is swapped onto it, and the old file is
//! deleted after the directory + WAL reach their post-vacuum state. A
//! crash anywhere inside a vacuum loses nothing: the directory rename is
//! the atomic switch point, and stale generation files are swept on the
//! next open.
//!
//! **Multi-statement transactions.** `BEGIN` records the WAL offset and
//! opens a logical-undo log shared by the catalog and every table.
//! Every statement logs through one helper, [`TxnState::log`]: inside a
//! transaction it records the statement's undo and appends its WAL record
//! *without* the commit marker, so the committed-prefix scan already
//! recovers a crashed transaction to the last `COMMIT` with no new record
//! kinds; without a data directory it only records the undo, and during
//! replay it does nothing. `COMMIT` seals the whole group with one marker
//! (+ group fsync); `ROLLBACK` truncates the WAL back to the `BEGIN`
//! offset and applies the undo log in reverse (truncate appends, drop
//! created tables, reinstall dropped ones, retract declarations).

use crate::catalog::Catalog;
use crate::column::ColumnVector;
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::storage::{BlockMeta, ColumnDef, PartitionMeta, PartitionState, Schema, Table};
use crate::types::{DataType, Value};
use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use storage::file::PageFile;
use storage::page::{encode_page, pages_for, PAGE_SIZE, PAYLOAD_SIZE};
use storage::pool::BufferPool;
use storage::wal::{Wal, WalRecord};

/// WAL record kinds (the storage layer reserves 0xff for commit marks).
pub const REC_CREATE: u8 = 1;
pub const REC_DROP: u8 = 2;
pub const REC_APPEND: u8 = 3;
pub const REC_UNIQUE: u8 = 4;
pub const REC_PLACEMENT: u8 = 5;

const DIRECTORY_MAGIC: &[u8; 4] = b"IDBD";
/// The one format [`decode_directory`] accepts: data-file generation plus
/// the free list run-length encoded as `(start, len)` pairs, so directory
/// size is bounded by fragmentation, not freed-page count, and each
/// table's placement key (version 4). Any other version is rejected by
/// name.
const DIRECTORY_VERSION: u8 = 4;

/// A table entry's placement-key field when rows are dealt round-robin.
const NO_PLACEMENT: u32 = u32::MAX;

/// File name of data generation `gen`: generation 0 keeps the original
/// `data.idb` name, later generations (one per completed vacuum) get a
/// numeric suffix.
fn data_file_name(gen: u64) -> String {
    if gen == 0 {
        "data.idb".to_string()
    } else {
        format!("data.idb.{gen}")
    }
}

/// Parse a root-directory file name back to a data-file generation.
fn parse_data_file_gen(name: &str) -> Option<u64> {
    if name == "data.idb" {
        return Some(0);
    }
    name.strip_prefix("data.idb.")?.parse().ok()
}

/// Total pages covered by a free-run list.
fn run_total(runs: &[(u64, u64)]) -> u64 {
    runs.iter().map(|&(_, len)| len).sum()
}

/// Collapse arbitrary page ids (any order, duplicates tolerated) into
/// sorted disjoint `(start, len)` runs.
fn runs_from_pages(mut pages: Vec<u64>) -> Vec<(u64, u64)> {
    pages.sort_unstable();
    pages.dedup();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for p in pages {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == p => *len += 1,
            _ => runs.push((p, 1)),
        }
    }
    runs
}

/// Union of two sorted disjoint run lists, coalescing overlapping and
/// adjacent runs (re-freeing an already-free page is tolerated).
fn union_runs(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].0);
        let (start, len) = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        match out.last_mut() {
            Some((s, l)) if start <= *s + *l => *l = (*l).max(start + len - *s),
            _ => out.push((start, len)),
        }
    }
    out
}

/// A column chunk's location in the data file: `pages` consecutive pages
/// starting at `first_page`, holding `bytes` of serialized column data
/// covering `rows` rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagedChunk {
    pub first_page: u64,
    pub pages: u32,
    pub bytes: u64,
    pub rows: u32,
}

// ---------------------------------------------------------------------
// Multi-statement transaction state (logical undo).
// ---------------------------------------------------------------------

/// One logical undo action, recorded (in statement order) while a
/// transaction is open and applied in reverse by `ROLLBACK`.
pub(crate) enum UndoRecord {
    /// Undo a CREATE TABLE: remove it (and free any pages it grew).
    Create { name: String },
    /// Undo a DROP TABLE: reinstall the retained table. `pages` is the
    /// table's page footprint at drop time — freed at COMMIT, discarded
    /// (the table lives on) at ROLLBACK.
    Drop { table: Arc<Table>, pages: Vec<u64> },
    /// Undo an append: put each partition back as the append found it
    /// and restore the round-robin cursor.
    Append { name: String, parts: Vec<PartitionState>, next_partition: usize },
    /// Undo a unique-column declaration.
    Unique { name: String, column: String },
    /// Undo a placement-key declaration: put back the key it replaced.
    Placement { name: String, key: Option<usize> },
}

/// An open transaction: where the WAL stood at `BEGIN` (the rollback
/// truncation point) plus the undo log.
pub(crate) struct OpenTxn {
    pub(crate) wal_offset: u64,
    pub(crate) undo: Vec<UndoRecord>,
}

/// Engine-wide transaction state, shared by the catalog and every table
/// it owns, with or without a data directory: the open transaction, and
/// the DML lock every statement holds shared across its whole log+apply.
#[derive(Default)]
pub(crate) struct TxnState {
    pub(crate) inner: Mutex<Option<OpenTxn>>,
    /// Shared by DML and DDL, exclusive for BEGIN / COMMIT / ROLLBACK and
    /// checkpoint / vacuum: the exclusive holders observe no in-flight
    /// statement.
    pub(crate) dml_lock: RwLock<()>,
}

impl TxnState {
    pub(crate) fn is_open(&self) -> bool {
        self.inner.lock().is_some()
    }

    /// Log one statement, the one write-path step between a statement's
    /// checks and its apply. Inside an open transaction `undo` joins the
    /// undo log and, with an environment, the record is appended to the
    /// WAL *without* a commit marker (the group stays open until
    /// `COMMIT`), both under one txn-lock hold so the WAL and the undo log
    /// never disagree. Outside one the record is a committed group of its
    /// own (record, commit marker, group-batched fsync). Replay logs
    /// nothing. `payload` is encoded only for the WAL. Returns whether the
    /// statement joined an open transaction.
    pub(crate) fn log(
        &self,
        env: Option<&StorageEnv>,
        kind: u8,
        payload: impl FnOnce() -> Vec<u8>,
        undo: impl FnOnce() -> UndoRecord,
    ) -> Result<bool> {
        if env.is_some_and(StorageEnv::is_replaying) {
            return Ok(false);
        }
        let mut guard = self.inner.lock();
        match (guard.as_mut(), env) {
            (Some(open), env) => {
                if let Some(env) = env {
                    env.wal.append(kind, &payload())?;
                }
                open.undo.push(undo());
                Ok(true)
            }
            (None, Some(env)) => {
                drop(guard);
                env.wal.append(kind, &payload())?;
                let (_, end) = env.wal.append_commit()?;
                env.wal.commit(end)?;
                Ok(false)
            }
            (None, None) => Ok(false),
        }
    }
}

/// One engine's persistent environment: the buffer pool and WAL over a
/// data directory, the page allocator, and the replay/checkpoint state
/// threaded through every table the catalog owns.
pub struct StorageEnv {
    root: PathBuf,
    pool: BufferPool,
    wal: Wal,
    /// Next never-allocated page id; the allocator prefers `free`.
    next_page: AtomicU64,
    /// Freed page runs `(start, len)`, kept sorted, disjoint, and
    /// coalesced: allocation (first fit) stays deterministic under WAL
    /// replay, and memory/disk cost is bounded by fragmentation rather
    /// than freed-page count.
    free: Mutex<Vec<(u64, u64)>>,
    /// Pages of paged short blocks that appends have topped up since the
    /// last checkpoint. The on-disk directory names them and replay reads
    /// them, so they stay allocated until the next checkpoint writes a
    /// directory that frees them.
    superseded: Mutex<Vec<u64>>,
    /// Data-file generation: 0 until the first vacuum, +1 per vacuum.
    generation: AtomicU64,
    /// Records with `lsn <= checkpoint_lsn` are reflected in the
    /// directory and must not be replayed.
    checkpoint_lsn: AtomicU64,
    /// Set while recovery replays the WAL: DDL/DML skip logging.
    replaying: AtomicBool,
}

impl StorageEnv {
    /// The buffer pool (tests and benchmarks read its occupancy).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn is_replaying(&self) -> bool {
        self.replaying.load(Ordering::Acquire)
    }

    /// Path of the current data file (generation-dependent).
    pub fn data_path(&self) -> PathBuf {
        self.root.join(data_file_name(self.generation.load(Ordering::Acquire)))
    }

    /// Pages currently on the free list (tests assert reclamation).
    pub fn free_page_count(&self) -> usize {
        run_total(&self.free.lock()) as usize
    }

    /// Reserve `n` consecutive pages, preferring the first free run that
    /// fits (so replay re-allocates identically); falls back to growing
    /// the file. Returns the first page id.
    pub(crate) fn allocate_pages(&self, n: usize) -> u64 {
        if n > 0 {
            let mut free = self.free.lock();
            if let Some(i) = free.iter().position(|&(_, len)| len >= n as u64) {
                let (start, len) = free[i];
                if len == n as u64 {
                    free.remove(i);
                } else {
                    free[i] = (start + n as u64, len - n as u64);
                }
                obs::metrics::STORAGE_PAGES_REUSED.add(n as u64);
                obs::metrics::STORAGE_FREE_PAGES.set(run_total(&free) as i64);
                return start;
            }
        }
        self.next_page.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Return pages to the free list (DROP TABLE, rollback truncation).
    /// Duplicates — within the batch or against already-free pages — are
    /// tolerated and collapsed.
    pub(crate) fn free_pages(&self, pages: impl IntoIterator<Item = u64>) {
        let incoming = runs_from_pages(pages.into_iter().collect());
        if incoming.is_empty() {
            return;
        }
        let mut free = self.free.lock();
        let before = run_total(&free);
        *free = union_runs(&free, &incoming);
        let after = run_total(&free);
        obs::metrics::STORAGE_PAGES_FREED.add(after - before);
        obs::metrics::STORAGE_FREE_PAGES.set(after as i64);
    }

    /// Hold the pages of topped-up paged blocks until the next checkpoint
    /// frees them.
    pub(crate) fn supersede(&self, pages: Vec<u64>) {
        self.superseded.lock().extend(pages);
    }

    /// Take pages back off the superseded list: a rollback restored the
    /// blocks they hold.
    pub(crate) fn unsupersede(&self, pages: impl IntoIterator<Item = u64>) {
        let pages: Vec<u64> = pages.into_iter().collect();
        if !pages.is_empty() {
            self.superseded.lock().retain(|p| !pages.contains(p));
        }
    }

    /// Replace the free list wholesale (the open-time orphan GC, which
    /// recomputes it as allocated-minus-live).
    pub(crate) fn set_free_runs(&self, runs: Vec<(u64, u64)>) {
        let total = run_total(&runs);
        let mut free = self.free.lock();
        let before = run_total(&free);
        *free = runs;
        obs::metrics::STORAGE_PAGES_FREED.add(total.saturating_sub(before));
        obs::metrics::STORAGE_FREE_PAGES.set(total as i64);
    }

    /// Seal the current (transaction-spanning) record group with one
    /// commit marker and group-fsync it — the durability point of
    /// `COMMIT`.
    pub(crate) fn seal_group(&self) -> Result<()> {
        let (_, end) = self.wal.append_commit()?;
        self.wal.commit(end)?;
        Ok(())
    }

    /// Truncate the WAL back to `offset` — the `ROLLBACK` erase of the
    /// open transaction's record group.
    pub(crate) fn truncate_wal_to(&self, offset: u64) -> Result<()> {
        self.wal.truncate_to(offset)?;
        Ok(())
    }

    /// End-of-log byte offset — the crash-recovery tests record this
    /// after each statement to build their committed-prefix oracle.
    pub fn wal_size(&self) -> u64 {
        self.wal.size()
    }

    /// Serialize-side of a column chunk: write `bytes` across
    /// consecutive pages through the pool, returning its location.
    pub(crate) fn write_chunk(&self, bytes: &[u8], rows: usize) -> Result<PagedChunk> {
        let pages = pages_for(bytes.len()).max(1);
        let first_page = self.allocate_pages(pages);
        for i in 0..pages {
            let start = i * PAYLOAD_SIZE;
            let end = ((i + 1) * PAYLOAD_SIZE).min(bytes.len());
            self.pool.write_page(first_page + i as u64, &bytes[start..end])?;
        }
        Ok(PagedChunk {
            first_page,
            pages: pages as u32,
            bytes: bytes.len() as u64,
            rows: rows as u32,
        })
    }

    /// Run `f` over a chunk's bytes. A one-page chunk is read in place
    /// from the pinned page; a longer one is concatenated by
    /// [`StorageEnv::read_chunk`].
    pub(crate) fn with_chunk<R>(
        &self,
        chunk: &PagedChunk,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        if chunk.pages != 1 {
            return f(&self.read_chunk(chunk)?);
        }
        let page = self.pool.fetch(chunk.first_page)?;
        if page.payload().len() != chunk.bytes as usize {
            return Err(chunk_size_error(chunk, page.payload().len()));
        }
        f(page.payload())
    }

    /// Read a chunk back through the pool (at most one page pinned at a
    /// time, so scans run in bounded pool memory).
    pub(crate) fn read_chunk(&self, chunk: &PagedChunk) -> Result<Vec<u8>> {
        let mut bytes = Vec::with_capacity(chunk.bytes as usize);
        for i in 0..chunk.pages as u64 {
            let page = self.pool.fetch(chunk.first_page + i)?;
            bytes.extend_from_slice(page.payload());
        }
        if bytes.len() != chunk.bytes as usize {
            return Err(chunk_size_error(chunk, bytes.len()));
        }
        Ok(bytes)
    }
}

fn chunk_size_error(chunk: &PagedChunk, held: usize) -> EngineError {
    EngineError::Io(format!(
        "chunk at page {} expected {} bytes, pages held {held}",
        chunk.first_page, chunk.bytes
    ))
}

// ---------------------------------------------------------------------
// Codec: little-endian, length-prefixed, self-describing value tags.
// ---------------------------------------------------------------------

/// Bounds-checked reader over a decode buffer; every overrun is a
/// corruption error, never a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// A capacity for `count` items read from this buffer, each at least
    /// `item_bytes` long: never more than the bytes left can hold, so a
    /// corrupt count cannot size an allocation.
    fn capacity(&self, count: usize, item_bytes: usize) -> usize {
        count.min((self.buf.len() - self.pos) / item_bytes)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(EngineError::Io(format!(
                "corrupt record: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// `count` little-endian 8-byte values, bounds-checked once for all
    /// of them.
    fn fixed8<T>(&mut self, count: usize, from: impl Fn([u8; 8]) -> T) -> Result<Vec<T>> {
        let bytes = self.take(count.saturating_mul(8))?;
        Ok(bytes.chunks_exact(8).map(|w| from(w.try_into().expect("an 8-byte chunk"))).collect())
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EngineError::Io("corrupt record: non-utf8 string".into()))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Bool => 2,
        DataType::Str => 3,
    }
}

fn tag_dtype(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Bool),
        3 => Ok(DataType::Str),
        other => Err(EngineError::Io(format!("corrupt record: dtype tag {other}"))),
    }
}

pub(crate) fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(x) => {
            out.push(2);
            out.push(*x as u8);
        }
        Value::Str(x) => {
            out.push(3);
            put_str(out, x);
        }
    }
}

pub(crate) fn decode_value(r: &mut Reader) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Float(r.f64()?)),
        2 => Ok(Value::Bool(r.u8()? != 0)),
        3 => Ok(Value::Str(r.str()?)),
        other => Err(EngineError::Io(format!("corrupt record: value tag {other}"))),
    }
}

pub(crate) fn encode_column(out: &mut Vec<u8>, col: &ColumnVector) {
    out.push(dtype_tag(col.data_type()));
    out.extend_from_slice(&(col.len() as u32).to_le_bytes());
    match col {
        ColumnVector::Int(v) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnVector::Float(v) => {
            for x in v {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        ColumnVector::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
        ColumnVector::Str(v) => {
            for s in v {
                put_str(out, s);
            }
        }
    }
}

pub(crate) fn decode_column(r: &mut Reader) -> Result<ColumnVector> {
    let dtype = tag_dtype(r.u8()?)?;
    let len = r.u32()? as usize;
    Ok(match dtype {
        DataType::Int => ColumnVector::Int(r.fixed8(len, i64::from_le_bytes)?),
        DataType::Float => ColumnVector::Float(r.fixed8(len, f64::from_le_bytes)?),
        DataType::Bool => {
            let mut v = Vec::with_capacity(r.capacity(len, 1));
            for _ in 0..len {
                v.push(r.u8()? != 0);
            }
            ColumnVector::Bool(v)
        }
        DataType::Str => {
            let mut v = Vec::with_capacity(r.capacity(len, 4));
            for _ in 0..len {
                v.push(r.str()?);
            }
            ColumnVector::Str(v)
        }
    })
}

fn encode_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for col in schema.columns() {
        put_str(out, &col.name);
        out.push(dtype_tag(col.dtype));
    }
}

fn decode_schema(r: &mut Reader) -> Result<Schema> {
    let n = r.u32()? as usize;
    // Each column is at least a name length and a type tag.
    let mut cols = Vec::with_capacity(r.capacity(n, 5));
    for _ in 0..n {
        let name = r.str()?;
        let dtype = tag_dtype(r.u8()?)?;
        cols.push(ColumnDef::new(name, dtype));
    }
    Schema::new(cols)
}

fn encode_chunk(out: &mut Vec<u8>, chunk: &PagedChunk) {
    out.extend_from_slice(&chunk.first_page.to_le_bytes());
    out.extend_from_slice(&chunk.pages.to_le_bytes());
    out.extend_from_slice(&chunk.bytes.to_le_bytes());
    out.extend_from_slice(&chunk.rows.to_le_bytes());
}

/// Encoded size of one [`PagedChunk`].
const CHUNK_BYTES: usize = 24;

/// Decode a chunk location from the directory, rejecting any that
/// [`StorageEnv::write_chunk`] cannot have written: the page count must be
/// exactly what `bytes` needs, and every page must lie below the
/// allocator's high-water mark `next_page`. A scan then reads at most
/// `bytes` from pages that exist, whatever the directory held.
fn decode_chunk(r: &mut Reader, next_page: u64) -> Result<PagedChunk> {
    let chunk =
        PagedChunk { first_page: r.u64()?, pages: r.u32()?, bytes: r.u64()?, rows: r.u32()? };
    let pages_needed = usize::try_from(chunk.bytes).map(pages_for);
    let end = chunk.first_page.checked_add(u64::from(chunk.pages));
    if pages_needed != Ok(chunk.pages as usize) || end.is_none_or(|end| end > next_page) {
        return Err(EngineError::Io(format!(
            "directory.bin: chunk of {} bytes in {} pages at page {} is invalid \
             (data file holds {next_page} pages)",
            chunk.bytes, chunk.pages, chunk.first_page
        )));
    }
    Ok(chunk)
}

// ---------------------------------------------------------------------
// WAL record payloads.
// ---------------------------------------------------------------------

pub(crate) fn encode_create(
    name: &str,
    schema: &Schema,
    partitions: usize,
    vector_size: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, name);
    encode_schema(&mut out, schema);
    out.extend_from_slice(&(partitions as u32).to_le_bytes());
    out.extend_from_slice(&(vector_size as u32).to_le_bytes());
    out
}

pub(crate) fn encode_drop(name: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, name);
    out
}

pub(crate) fn encode_append(name: &str, columns: &[ColumnVector]) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, name);
    out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for col in columns {
        encode_column(&mut out, col);
    }
    out
}

/// The payload of a unique-column or placement-key declaration.
pub(crate) fn encode_table_column(name: &str, column: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, name);
    put_str(&mut out, column);
    out
}

// ---------------------------------------------------------------------
// Directory (checkpoint image of the catalog + allocator + LSN).
// ---------------------------------------------------------------------

struct DirectoryFile {
    next_page: u64,
    checkpoint_lsn: u64,
    generation: u64,
    free: Vec<(u64, u64)>,
    tables: Vec<TableEntry>,
}

struct TableEntry {
    name: String,
    schema: Schema,
    vector_size: usize,
    next_partition: u64,
    placement_key: Option<usize>,
    unique_columns: Vec<usize>,
    partitions: Vec<PartitionMeta>,
}

fn encode_directory(catalog: &Catalog, env: &StorageEnv, checkpoint_lsn: u64) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(DIRECTORY_MAGIC);
    out.push(DIRECTORY_VERSION);
    out.extend_from_slice(&env.next_page.load(Ordering::Acquire).to_le_bytes());
    out.extend_from_slice(&checkpoint_lsn.to_le_bytes());
    out.extend_from_slice(&env.generation.load(Ordering::Acquire).to_le_bytes());
    {
        // This directory no longer names the superseded pages: they are
        // free from the moment it is the durable one.
        let superseded = runs_from_pages(env.superseded.lock().clone());
        let free = union_runs(&env.free.lock(), &superseded);
        out.extend_from_slice(&(free.len() as u32).to_le_bytes());
        for &(start, len) in free.iter() {
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
    }
    let names = catalog.table_names();
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        let table = catalog.table(&name)?;
        put_str(&mut out, &name);
        encode_schema(&mut out, table.schema());
        out.extend_from_slice(&(table.vector_size() as u32).to_le_bytes());
        let (next_partition, placement, uniques, parts) = table.checkpoint_meta()?;
        out.extend_from_slice(&next_partition.to_le_bytes());
        let placement = placement.map_or(NO_PLACEMENT, |c| c as u32);
        out.extend_from_slice(&placement.to_le_bytes());
        out.extend_from_slice(&(uniques.len() as u32).to_le_bytes());
        for u in &uniques {
            out.extend_from_slice(&(*u as u32).to_le_bytes());
        }
        out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
        for part in &parts {
            out.extend_from_slice(&(part.rows as u64).to_le_bytes());
            out.extend_from_slice(&(part.columns.len() as u32).to_le_bytes());
            for blocks in &part.columns {
                out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for meta in blocks {
                    encode_chunk(&mut out, &meta.chunk);
                    encode_value(&mut out, &meta.min);
                    encode_value(&mut out, &meta.max);
                }
            }
        }
    }
    Ok(out)
}

fn decode_directory(bytes: &[u8]) -> Result<DirectoryFile> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != DIRECTORY_MAGIC {
        return Err(EngineError::Io("directory.bin: bad magic".into()));
    }
    let version = r.u8()?;
    if version != DIRECTORY_VERSION {
        return Err(EngineError::Io(format!(
            "directory.bin: version {version} found, only version {DIRECTORY_VERSION} is supported"
        )));
    }
    let next_page = r.u64()?;
    let checkpoint_lsn = r.u64()?;
    let generation = r.u64()?;
    // Every count below is untrusted, so each capacity is capped by how
    // many items of the smallest encoding the rest of the file can hold.
    let nruns = r.u32()? as usize;
    let mut free = Vec::with_capacity(r.capacity(nruns, 16));
    for _ in 0..nruns {
        let start = r.u64()?;
        let len = r.u64()?;
        free.push((start, len));
    }
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(r.capacity(ntables, 4));
    for _ in 0..ntables {
        let name = r.str()?;
        let schema = decode_schema(&mut r)?;
        let vector_size = r.u32()? as usize;
        let next_partition = r.u64()?;
        let placement_key = match r.u32()? {
            NO_PLACEMENT => None,
            c if (c as usize) < schema.len() => Some(c as usize),
            c => {
                return Err(EngineError::Io(format!(
                    "directory.bin: table {name:?} is placed by column {c} of {}",
                    schema.len()
                )))
            }
        };
        let nunique = r.u32()? as usize;
        let mut unique_columns = Vec::with_capacity(r.capacity(nunique, 4));
        for _ in 0..nunique {
            unique_columns.push(r.u32()? as usize);
        }
        let nparts = r.u32()? as usize;
        let mut partitions = Vec::with_capacity(r.capacity(nparts, 12));
        for _ in 0..nparts {
            let rows = r.u64()? as usize;
            let ncols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(r.capacity(ncols, 4));
            for _ in 0..ncols {
                let nblocks = r.u32()? as usize;
                // A chunk plus two SMA values of at least two bytes each.
                let mut blocks = Vec::with_capacity(r.capacity(nblocks, CHUNK_BYTES + 4));
                for _ in 0..nblocks {
                    let chunk = decode_chunk(&mut r, next_page)?;
                    let min = decode_value(&mut r)?;
                    let max = decode_value(&mut r)?;
                    blocks.push(BlockMeta { chunk, min, max });
                }
                columns.push(blocks);
            }
            // Scans index every column's blocks by one block number.
            let ragged = columns.iter().any(|c| c.len() != columns.first().map_or(0, Vec::len));
            if columns.len() != schema.len() || ragged {
                return Err(EngineError::Io(format!(
                    "directory.bin: table {name:?} has a partition that does not match its \
                     {} columns",
                    schema.len()
                )));
            }
            partitions.push(PartitionMeta { rows, columns });
        }
        tables.push(TableEntry {
            name,
            schema,
            vector_size,
            next_partition,
            placement_key,
            unique_columns,
            partitions,
        });
    }
    if !r.is_empty() {
        return Err(EngineError::Io("directory.bin: trailing garbage".into()));
    }
    Ok(DirectoryFile { next_page, checkpoint_lsn, generation, free, tables })
}

// ---------------------------------------------------------------------
// Open / recovery / checkpoint.
// ---------------------------------------------------------------------

fn io(e: std::io::Error) -> EngineError {
    EngineError::Io(format!("storage io error: {e}"))
}

/// Open (or create) the persistent environment under `root` and return a
/// catalog recovered to the committed statement prefix: the checkpointed
/// directory is rebuilt first, then every committed WAL record with
/// `lsn > checkpoint_lsn` is replayed through the normal engine paths.
pub(crate) fn open_catalog(root: &Path, config: &EngineConfig) -> Result<Arc<Catalog>> {
    std::fs::create_dir_all(root).map_err(io)?;
    let dir_path = root.join("directory.bin");
    let directory = match std::fs::read(&dir_path) {
        Ok(bytes) => Some(decode_directory(&bytes)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(io(e)),
    };
    let (next_page, checkpoint_lsn, generation, free) =
        directory.as_ref().map_or((0, 0, 0, Vec::new()), |d| {
            (d.next_page, d.checkpoint_lsn, d.generation, d.free.clone())
        });

    // Sweep stale data generations: a crash inside a vacuum leaves
    // either a half-written next-generation file (directory still names
    // the old one) or the superseded old file (directory already names
    // the new one). Only the generation the directory names is live.
    for entry in std::fs::read_dir(root).map_err(io)? {
        let entry = entry.map_err(io)?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_data_file_gen) {
            if gen != generation {
                std::fs::remove_file(entry.path()).map_err(io)?;
            }
        }
    }

    let pool = BufferPool::open(&root.join(data_file_name(generation)), config.buffer_pool_pages)?;
    let (wal, records) = Wal::open(&root.join("wal.log"), config.wal_fsync, checkpoint_lsn)?;
    let env = Arc::new(StorageEnv {
        root: root.to_path_buf(),
        pool,
        wal,
        next_page: AtomicU64::new(next_page),
        free: Mutex::new(free),
        superseded: Mutex::new(Vec::new()),
        generation: AtomicU64::new(generation),
        checkpoint_lsn: AtomicU64::new(checkpoint_lsn),
        replaying: AtomicBool::new(true),
    });
    let catalog = Arc::new(Catalog::with_env(Some(Arc::clone(&env))));

    if let Some(dir) = directory {
        for entry in dir.tables {
            let table = Table::restore(
                &entry.name,
                entry.schema,
                entry.vector_size,
                entry.partitions,
                entry.next_partition,
                entry.placement_key,
                entry.unique_columns,
                catalog.epoch_handle(),
                Arc::clone(&env),
                Arc::clone(catalog.txn_state()),
            );
            catalog.install_restored(Arc::new(table));
        }
    }

    for record in &records {
        if record.lsn <= checkpoint_lsn {
            continue;
        }
        apply_record(&catalog, config, record)?;
        obs::metrics::STORAGE_RECOVERY_RECORDS_REPLAYED.add(1);
    }
    env.replaying.store(false, Ordering::Release);

    // Orphan GC: recompute the free list as allocated-minus-live, built
    // as the runs between consecutive live pages so cost is O(live),
    // not O(next_page), even when a huge DROP freed most of the file.
    // This reclaims pages of tables dropped before reclamation existed
    // and of appends torn by a crash, and subsumes the checkpointed
    // list. Pages replay superseded count as live: the directory on disk
    // still names them.
    let mut live: Vec<u64> = env.superseded.lock().clone();
    for name in catalog.table_names() {
        live.extend(catalog.table(&name)?.all_pages());
    }
    live.sort_unstable();
    live.dedup();
    let end = env.next_page.load(Ordering::Acquire);
    let mut orphaned: Vec<(u64, u64)> = Vec::new();
    let mut cursor = 0u64;
    for &p in &live {
        if p >= end {
            break;
        }
        if p > cursor {
            orphaned.push((cursor, p - cursor));
        }
        cursor = p + 1;
    }
    if cursor < end {
        orphaned.push((cursor, end - cursor));
    }
    env.set_free_runs(orphaned);
    Ok(catalog)
}

/// Redo one committed WAL record through the normal engine paths (the
/// environment's `replaying` flag makes [`TxnState::log`] log nothing).
fn apply_record(catalog: &Catalog, config: &EngineConfig, record: &WalRecord) -> Result<()> {
    let mut r = Reader::new(&record.payload);
    match record.kind {
        REC_CREATE => {
            let name = r.str()?;
            let schema = decode_schema(&mut r)?;
            let partitions = r.u32()? as usize;
            let vector_size = r.u32()? as usize;
            // Layout comes from the record, not the current config, so a
            // recovered table is bit-identical to its pre-crash self even
            // if the knobs changed between runs.
            let layout = EngineConfig { partitions, vector_size, ..config.clone() };
            catalog.create_table(&name, schema, &layout)?;
        }
        REC_DROP => {
            catalog.drop_table(&r.str()?, false)?;
        }
        REC_APPEND => {
            let name = r.str()?;
            let ncols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                columns.push(decode_column(&mut r)?);
            }
            catalog.table(&name)?.append(columns)?;
        }
        REC_UNIQUE => {
            let name = r.str()?;
            let column = r.str()?;
            catalog.table(&name)?.declare_unique(&column)?;
        }
        REC_PLACEMENT => {
            let name = r.str()?;
            let column = r.str()?;
            catalog.table(&name)?.declare_placement_key(&column)?;
        }
        other => return Err(EngineError::Io(format!("wal: unknown record kind {other}"))),
    }
    Ok(())
}

/// Atomically replace `directory.bin` with the catalog's current image:
/// temp file + fsync + rename + parent-directory fsync. Every error —
/// including the parent fsync, without which the rename itself may not
/// survive a power failure — propagates to the caller, which must then
/// *not* discard the WAL that could redo the checkpointed state.
fn write_directory(catalog: &Catalog, env: &StorageEnv, checkpoint_lsn: u64) -> Result<()> {
    let bytes = encode_directory(catalog, env, checkpoint_lsn)?;
    let tmp = env.root.join("directory.tmp");
    let final_path = env.root.join("directory.bin");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(&bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, &final_path).map_err(io)?;
    let d = std::fs::File::open(&env.root).map_err(io)?;
    d.sync_all().map_err(io)?;
    Ok(())
}

/// Checkpoint the catalog: page out short last blocks, flush dirty
/// pages, atomically replace the directory (whose free list takes the
/// superseded pages), truncate the WAL. No-op for in-memory catalogs. Errors
/// while a transaction is open — a checkpoint would make uncommitted
/// statements durable and discard the WAL prefix `ROLLBACK` truncates.
pub(crate) fn checkpoint(catalog: &Catalog) -> Result<()> {
    let Some(env) = catalog.env() else {
        return Ok(());
    };
    // Exclusive against every DML/DDL statement: nothing moves between
    // the pool flush, the directory image, and the WAL truncation.
    let _excl = catalog.txn_state().dml_lock.write();
    if catalog.txn_state().is_open() {
        return Err(EngineError::Execution(
            "cannot checkpoint while a transaction is open; COMMIT or ROLLBACK first".into(),
        ));
    }
    // Tails are paged before the superseded pages are freed, so no tail
    // lands on a page the current directory still names.
    page_out_tails(catalog)?;
    let checkpoint_lsn = env.wal.next_lsn().saturating_sub(1);
    env.pool.flush_all()?;
    write_directory(catalog, env, checkpoint_lsn)?;
    env.free_pages(std::mem::take(&mut *env.superseded.lock()));
    env.checkpoint_lsn.store(checkpoint_lsn, Ordering::Release);
    env.wal.reset()?;
    obs::metrics::STORAGE_CHECKPOINTS.add(1);
    Ok(())
}

/// Page out every table's short last blocks (checkpoint and vacuum, under
/// the exclusive DML lock).
fn page_out_tails(catalog: &Catalog) -> Result<()> {
    for name in catalog.table_names() {
        catalog.table(&name)?.page_out_tails()?;
    }
    Ok(())
}

/// Rebuild the data file, reclaiming all dead space: copy every live
/// chunk into a fresh generation file, swap the buffer pool onto it,
/// checkpoint the post-vacuum state, and delete the old file. Runs under
/// the exclusive DML lock *and* every table's partition write lock, so
/// no scan holds a pin into the old file across the swap (block reads
/// happen under the partition read lock). No-op for in-memory catalogs.
///
/// Crash safety: the directory rename inside the final checkpoint is the
/// atomic switch — before it, recovery sees the old directory + old file
/// (the half-built new generation is swept at open); after it, the new
/// directory + new file (the stale old generation is swept at open).
pub(crate) fn vacuum(catalog: &Catalog) -> Result<()> {
    let Some(env) = catalog.env() else {
        return Ok(());
    };
    let _excl = catalog.txn_state().dml_lock.write();
    if catalog.txn_state().is_open() {
        return Err(EngineError::Execution(
            "cannot VACUUM while a transaction is open; COMMIT or ROLLBACK first".into(),
        ));
    }
    page_out_tails(catalog)?;
    let names = catalog.table_names();
    let tables: std::result::Result<Vec<Arc<Table>>, _> =
        names.iter().map(|n| catalog.table(n)).collect();
    let tables = tables?;
    let mut guards: Vec<_> = tables.iter().map(|t| t.lock_partitions_exclusive()).collect();

    let old_path = env.data_path();
    let old_bytes = std::fs::metadata(&old_path).map(|m| m.len()).unwrap_or(0);
    let generation = env.generation.load(Ordering::Acquire) + 1;
    let new_path = env.root.join(data_file_name(generation));
    // A crash-orphaned file of this generation would have been swept at
    // open; anything here is leftover from a failed in-process vacuum.
    let _ = std::fs::remove_file(&new_path);
    let dst = PageFile::open(&new_path)?;

    // Pass 1: copy every live chunk into the new file at sequentially
    // allocated pages, collecting the relocations without touching the
    // in-memory tables — an IO error here aborts with all state intact.
    let mut next_page: u64 = 0;
    let mut moves: Vec<(usize, usize, usize, usize, PagedChunk)> = Vec::new();
    for (ti, guard) in guards.iter().enumerate() {
        for (pi, part) in guard.iter().enumerate() {
            for (ci, blocks) in part.columns().iter().enumerate() {
                for (bi, block) in blocks.iter().enumerate() {
                    let Some(chunk) = block.paged_chunk() else { continue };
                    let bytes = env.read_chunk(&chunk)?;
                    let pages = pages_for(bytes.len()).max(1);
                    for i in 0..pages {
                        let start = i * PAYLOAD_SIZE;
                        let end = ((i + 1) * PAYLOAD_SIZE).min(bytes.len());
                        let page_id = next_page + i as u64;
                        dst.write_page(page_id, &encode_page(page_id, &bytes[start..end]))?;
                    }
                    let moved = PagedChunk {
                        first_page: next_page,
                        pages: pages as u32,
                        bytes: chunk.bytes,
                        rows: chunk.rows,
                    };
                    next_page += pages as u64;
                    moves.push((ti, pi, ci, bi, moved));
                }
            }
        }
    }
    dst.sync()?;
    obs::metrics::STORAGE_VACUUM_PAGES_COPIED.add(next_page);

    // Pass 2: the copy is durable — apply the relocations and swap the
    // pool onto the new file while every reader is still locked out.
    for (ti, pi, ci, bi, moved) in moves {
        guards[ti][pi].columns_mut()[ci][bi].set_paged_chunk(moved);
    }
    env.pool.swap_file(&new_path)?;
    env.next_page.store(next_page, Ordering::Release);
    env.free.lock().clear();
    env.superseded.lock().clear();
    obs::metrics::STORAGE_FREE_PAGES.set(0);
    env.generation.store(generation, Ordering::Release);
    drop(guards);

    // Checkpoint the post-vacuum state (the directory rename is the
    // atomic switch to the new generation), then drop the old file.
    let checkpoint_lsn = env.wal.next_lsn().saturating_sub(1);
    write_directory(catalog, env, checkpoint_lsn)?;
    env.checkpoint_lsn.store(checkpoint_lsn, Ordering::Release);
    env.wal.reset()?;
    std::fs::remove_file(&old_path).map_err(io)?;
    obs::metrics::STORAGE_CHECKPOINTS.add(1);
    obs::metrics::STORAGE_VACUUM_RUNS.add(1);
    obs::metrics::STORAGE_VACUUM_BYTES_RECLAIMED
        .add(old_bytes.saturating_sub(next_page * PAGE_SIZE as u64));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_codec_round_trips_every_type() {
        let cols = [
            ColumnVector::Int(vec![-3, 0, i64::MAX]),
            ColumnVector::Float(vec![0.5, -1.25, f64::MIN_POSITIVE]),
            ColumnVector::Bool(vec![true, false, true]),
            ColumnVector::Str(vec!["".into(), "héllo".into(), "x".repeat(100)]),
        ];
        for col in &cols {
            let mut buf = Vec::new();
            encode_column(&mut buf, col);
            let mut r = Reader::new(&buf);
            assert_eq!(&decode_column(&mut r).unwrap(), col);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn value_codec_round_trips() {
        for v in [Value::Int(-7), Value::Float(2.5), Value::Bool(false), Value::Str("abc".into())] {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            assert_eq!(decode_value(&mut Reader::new(&buf)).unwrap(), v);
        }
    }

    #[test]
    fn truncated_buffers_error_instead_of_panicking() {
        let mut buf = Vec::new();
        encode_column(&mut buf, &ColumnVector::Str(vec!["hello world".into()]));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_column(&mut r).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn free_run_helpers_coalesce_dedup_and_union() {
        assert_eq!(runs_from_pages(vec![5, 3, 4, 9, 3, 11, 10]), vec![(3, 3), (9, 3)]);
        assert_eq!(runs_from_pages(Vec::new()), Vec::<(u64, u64)>::new());
        // Adjacent, overlapping, and duplicate runs all collapse.
        assert_eq!(
            union_runs(&[(0, 2), (10, 2)], &[(2, 3), (10, 2), (20, 1)]),
            vec![(0, 5), (10, 2), (20, 1)]
        );
        assert_eq!(union_runs(&[(0, 10)], &[(2, 3)]), vec![(0, 10)]);
        assert_eq!(run_total(&[(3, 3), (9, 2)]), 5);
    }

    #[test]
    fn directory_versions_other_than_current_are_rejected() {
        // Hand-built headers: v1 (no generation, no free list), v2 (raw
        // page-id free list), v3 (no placement keys) and a future v5, each
        // with zero tables.
        let header = |version: u8, body: &[u64], counts: &[u32]| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(DIRECTORY_MAGIC);
            bytes.push(version);
            for v in body {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            for c in counts {
                bytes.extend_from_slice(&c.to_le_bytes());
            }
            bytes
        };
        let v1 = header(1, &[99, 7], &[0]);
        let v2 = header(2, &[99, 7, 1], &[0, 0]);
        let v3 = header(3, &[99, 7, 1], &[0, 0]);
        let v5 = header(5, &[99, 7, 1], &[0, 0]);
        for (version, bytes) in [(1, v1), (2, v2), (3, v3), (5, v5)] {
            let Err(EngineError::Io(msg)) = decode_directory(&bytes).map(|_| ()) else {
                panic!("directory version {version} must be rejected");
            };
            assert_eq!(
                msg,
                format!("directory.bin: version {version} found, only version 4 is supported")
            );
        }
        // The same shape at the current version decodes.
        let v4 = header(DIRECTORY_VERSION, &[99, 7, 1], &[0, 0]);
        let dir = decode_directory(&v4).unwrap();
        assert_eq!((dir.next_page, dir.checkpoint_lsn, dir.generation), (99, 7, 1));
    }

    #[test]
    fn corrupt_directory_counts_and_chunks_are_errors() {
        // A current header: next_page 4, checkpoint LSN 0, generation 0.
        let mut head = DIRECTORY_MAGIC.to_vec();
        head.push(DIRECTORY_VERSION);
        for v in [4u64, 0, 0] {
            head.extend(v.to_le_bytes());
        }
        // Free-run or table counts of 2^32 - 1 with nothing behind them
        // must not size an allocation.
        for counts in [[u32::MAX, 0], [0, u32::MAX]] {
            let mut bytes = head.clone();
            for c in counts {
                bytes.extend(c.to_le_bytes());
            }
            assert!(matches!(decode_directory(&bytes), Err(EngineError::Io(_))), "{counts:?}");
        }
        // One table `t (id INT)` with one block, whose chunk and placement
        // key vary.
        let table = |chunk: PagedChunk, placement: u32| {
            let mut bytes = head.clone();
            for count in [0u32, 1] {
                bytes.extend(count.to_le_bytes()); // free runs, tables
            }
            put_str(&mut bytes, "t");
            let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap();
            encode_schema(&mut bytes, &schema);
            bytes.extend(8u32.to_le_bytes()); // vector size
            bytes.extend(0u64.to_le_bytes()); // round-robin cursor
            bytes.extend(placement.to_le_bytes()); // placement key
            bytes.extend(0u32.to_le_bytes()); // unique columns
            bytes.extend(1u32.to_le_bytes()); // partitions
            bytes.extend(1u64.to_le_bytes()); // rows
            bytes.extend(1u32.to_le_bytes()); // columns
            bytes.extend(1u32.to_le_bytes()); // blocks
            encode_chunk(&mut bytes, &chunk);
            encode_value(&mut bytes, &Value::Int(7));
            encode_value(&mut bytes, &Value::Int(7));
            decode_directory(&bytes).map(|_| ())
        };
        let one_block = |chunk| table(chunk, NO_PLACEMENT);
        let good = PagedChunk { first_page: 3, pages: 1, bytes: 13, rows: 1 };
        assert_eq!(one_block(good), Ok(()));
        assert_eq!(table(good, 0), Ok(()), "placed by its one column");
        assert!(matches!(table(good, 1), Err(EngineError::Io(_))), "no column 1 to place by");
        for bad in [
            PagedChunk { pages: 0, ..good },
            PagedChunk { pages: 1 << 31 | 1, ..good },
            PagedChunk { bytes: good.bytes | 1 << 62, ..good },
            PagedChunk { bytes: PAYLOAD_SIZE as u64 + 1, ..good },
            PagedChunk { first_page: 4, ..good },
            PagedChunk { first_page: 1 << 63 | 3, ..good },
        ] {
            assert!(matches!(one_block(bad), Err(EngineError::Io(_))), "{bad:?}");
        }
    }

    #[test]
    fn create_record_round_trips_layout() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("w", DataType::Float),
        ])
        .unwrap();
        let payload = encode_create("t", &schema, 12, 1024);
        let mut r = Reader::new(&payload);
        assert_eq!(r.str().unwrap(), "t");
        let schema2 = decode_schema(&mut r).unwrap();
        assert_eq!(schema2, schema);
        assert_eq!(r.u32().unwrap(), 12);
        assert_eq!(r.u32().unwrap(), 1024);
        assert!(r.is_empty());
    }
}
