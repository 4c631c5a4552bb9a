//! The [`ShardedEngine`] facade: N in-process engines, hash-partitioned
//! tables, and the shard planner that classifies every `SELECT` into a
//! routed, scatter, partial-aggregate, or shuffle-join stage shape.
//!
//! See the crate docs for the partitioning scheme and the shuffle
//! boundary rules; the equivalence contract (sharded results == single
//! engine, sorted) is pinned by `tests/equivalence.rs`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use model_repr::{Layout, ModelMeta};
use modeljoin::ModelCache;
use obs::metrics as om;
use tensor::Device;
use vector_engine::exec::hash::hash_key_columns;
use vector_engine::exec::join::HashJoinExec;
use vector_engine::exec::parallel::{self, collect_scan_tables, column_source, split_safe};
use vector_engine::exec::physical::{batches_operator, drain};
use vector_engine::exec::Operator;
use vector_engine::expr::{BinaryOp, Expr};
use vector_engine::plan::logical::LogicalPlan;
use vector_engine::sql::{parse_statement, Statement};
use vector_engine::storage::Table;
use vector_engine::{
    Batch, ColumnVector, Engine, EngineConfig, EngineError, QueryResult, Result, Value,
};

/// How the shard planner decided to run one `SELECT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// No sharded table is scanned; any shard holds the full answer.
    Replicated,
    /// Every scan of a sharded table is pinned by a `key = literal`
    /// equality to this one shard — the point-query fast path that
    /// touches `1/N` of the data.
    Single(usize),
    /// The plan is shard-safe: per-shard execution yields a disjoint
    /// partition of the answer, gathered in shard index order.
    Scatter,
    /// An aggregation whose input is shard-safe but whose grouping is
    /// not: per-shard `GroupedAggState` partials merged at the facade.
    PartialAgg,
    /// A hash join whose keys do not align with the sharding: both
    /// sides repartition by join-key hash (the exchange), each target
    /// shard joins its bucket.
    Shuffle,
}

/// N in-process engines behind one engine-shaped facade.
///
/// DDL replicates to every shard; rows of tables registered through
/// [`declare_sharded`](ShardedEngine::declare_sharded) are routed to
/// shard `hash(key) % N` on insert. `SELECT` statements are classified
/// by the shard planner (see [`Route`]) and executed with scatter-gather
/// over the global work-stealing pool.
pub struct ShardedEngine {
    shards: Vec<Arc<Engine>>,
    /// `data_dir` root when persistent: shard `i` lives under
    /// `root/shard-i`, the sharding map in `root/sharding.kv`.
    root: Option<PathBuf>,
    /// Lowercased table name -> lowercased shard-key column name.
    sharding: RwLock<HashMap<String, String>>,
    /// SQL text -> classified route. Routing depends only on the plan
    /// shape and the sharding map (a pin's owning shard is a pure hash of
    /// its literal), never on table *contents*, so entries stay valid
    /// across DML and are dropped wholesale on DDL or re-sharding.
    route_cache: RwLock<HashMap<String, Route>>,
    /// Sharded tables dropped inside an open transaction: the sharding
    /// map entry is only removed at `COMMIT` — `ROLLBACK` resurrects the
    /// table on every shard, and it must stay sharded.
    pending_unshard: RwLock<Vec<String>>,
}

/// Bound on the route cache; a serve workload cycling more distinct
/// statement texts than this re-plans on the overflow clear, it does not
/// grow without limit.
const ROUTE_CACHE_MAX: usize = 4096;

impl ShardedEngine {
    /// Stand up `config.shards` engine shards (minimum 1), each with the
    /// given per-shard configuration. Panics if a persistent open or
    /// recovery fails; use [`open`](ShardedEngine::open) to handle that.
    pub fn new(config: EngineConfig) -> ShardedEngine {
        ShardedEngine::open(config).expect("sharded persistent storage open/recovery failed")
    }

    /// Like [`new`](ShardedEngine::new), surfacing open/recovery errors.
    ///
    /// When `config.data_dir` is set, shard `i` persists under
    /// `data_dir/shard-i` (each shard recovers its own directory + WAL
    /// independently) and the sharding map is reloaded from
    /// `data_dir/sharding.kv`, so routed and scatter plans survive a
    /// restart without re-declaring anything.
    pub fn open(config: EngineConfig) -> Result<ShardedEngine> {
        let n = config.shards.max(1);
        let root = config.data_dir.as_deref().map(PathBuf::from);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let per_shard = match &root {
                Some(r) => EngineConfig {
                    data_dir: Some(r.join(format!("shard-{i}")).to_string_lossy().into_owned()),
                    ..config.clone()
                },
                None => config.clone(),
            };
            shards.push(Arc::new(Engine::open(per_shard)?));
        }
        om::SHARD_COUNT.set(n as i64);
        let sharding = match &root {
            Some(r) => load_sharding_map(r)?,
            None => HashMap::new(),
        };
        Ok(ShardedEngine {
            shards,
            root,
            sharding: RwLock::new(sharding),
            route_cache: RwLock::new(HashMap::new()),
            pending_unshard: RwLock::new(Vec::new()),
        })
    }

    /// Checkpoint every shard: flush dirty pages, write the page
    /// directories, and truncate the per-shard WALs.
    pub fn checkpoint(&self) -> Result<()> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Convenience: `config` with its `shards` knob overridden.
    pub fn with_shards(mut config: EngineConfig, shards: usize) -> ShardedEngine {
        config.shards = shards.max(1);
        ShardedEngine::new(config)
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> &[Arc<Engine>] {
        &self.shards
    }

    pub fn shard(&self, i: usize) -> &Arc<Engine> {
        &self.shards[i]
    }

    /// The per-shard engine configuration (identical across shards).
    pub fn config(&self) -> &EngineConfig {
        self.shards[0].config()
    }

    /// The shard-key column of `table`, if it was declared sharded.
    pub fn shard_key(&self, table: &str) -> Option<String> {
        self.sharding
            .read()
            .expect("sharding map poisoned")
            .get(&table.to_ascii_lowercase())
            .cloned()
    }

    /// Register `table` as hash-partitioned on `key`. Must happen before
    /// any rows are loaded — re-partitioning in place is not supported.
    pub fn declare_sharded(&self, table: &str, key: &str) -> Result<()> {
        let t0 = self.shards[0].table(table)?;
        if t0.schema().index_of(key).is_none() {
            return Err(EngineError::Catalog(format!(
                "cannot shard {table:?} on unknown column {key:?}"
            )));
        }
        for s in &self.shards {
            if s.table(table)?.row_count() > 0 {
                return Err(EngineError::Catalog(format!(
                    "declare_sharded({table:?}) requires an empty table"
                )));
            }
        }
        {
            let mut map = self.sharding.write().expect("sharding map poisoned");
            map.insert(table.to_ascii_lowercase(), key.to_ascii_lowercase());
            self.persist_sharding_map(&map)?;
        }
        self.invalidate_routes();
        Ok(())
    }

    /// Write the sharding map to `root/sharding.kv` (atomic via rename);
    /// a no-op for in-memory facades.
    fn persist_sharding_map(&self, map: &HashMap<String, String>) -> Result<()> {
        let Some(root) = &self.root else { return Ok(()) };
        let mut lines: Vec<String> = map.iter().map(|(t, k)| format!("{t}={k}\n")).collect();
        lines.sort();
        let tmp = root.join("sharding.kv.tmp");
        let io = |e: std::io::Error| EngineError::Io(format!("sharding map: {e}"));
        std::fs::write(&tmp, lines.concat()).map_err(io)?;
        std::fs::rename(&tmp, root.join("sharding.kv")).map_err(io)?;
        Ok(())
    }

    /// Declare `column` unique on every shard's copy of `table` (the
    /// shard planner's group-on-unique-key rule consults this, exactly
    /// like the partition-parallel layer).
    pub fn declare_unique(&self, table: &str, column: &str) -> Result<()> {
        for s in &self.shards {
            s.table(table)?.declare_unique(column)?;
        }
        Ok(())
    }

    /// Execute one statement. DDL replicates; inserts route; `SELECT`s
    /// go through the shard planner.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, false)
    }

    /// Like [`execute`](ShardedEngine::execute) but `SELECT`s on a single
    /// shard go through that shard's plan cache.
    pub fn execute_cached(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, true)
    }

    fn run(&self, sql: &str, cached: bool) -> Result<QueryResult> {
        // Fast path: every statement in this grammar starts with a
        // keyword, so a leading `SELECT` token identifies a query without
        // paying a facade-side parse (the owning shard parses it anyway).
        let head = sql.trim_start();
        if head.len() >= 6
            && head.as_bytes()[..6].eq_ignore_ascii_case(b"select")
            && !head.as_bytes().get(6).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            return self.select(sql, cached);
        }
        match parse_statement(sql)? {
            Statement::Select(_) => self.select(sql, cached),
            // Evaluated once; replicated tables get the columns on every
            // shard, sharded ones route each row by shard-key hash.
            Statement::Insert { table, columns, rows } => {
                let values = self.shards[0].insert_values(&table, columns.as_deref(), &rows)?;
                Ok(QueryResult::empty(self.insert_columns(&table, values)?))
            }
            Statement::DropTable { name, .. } => {
                let last = self.on_every_shard(sql)?;
                let key = name.to_ascii_lowercase();
                if self.shards[0].catalog().transaction_open() {
                    self.pending_unshard.write().expect("pending unshard poisoned").push(key);
                } else {
                    let mut map = self.sharding.write().expect("sharding map poisoned");
                    if map.remove(&key).is_some() {
                        self.persist_sharding_map(&map)?;
                    }
                }
                self.invalidate_routes();
                Ok(last)
            }
            Statement::CreateTable { .. } => {
                let last = self.on_every_shard(sql)?;
                self.invalidate_routes();
                Ok(last)
            }
            // Transaction control replicates: every shard opens (or
            // seals) its own engine-global transaction, so a cross-shard
            // statement group commits or rolls back on all shards alike.
            // ROLLBACK can resurrect dropped tables and VACUUM relocates
            // chunks, so both invalidate cached routes.
            Statement::Begin => {
                let mut last = QueryResult::empty(0);
                for (i, s) in self.shards.iter().enumerate() {
                    match s.execute(sql) {
                        Ok(r) => last = r,
                        Err(e) => {
                            // Close the transactions already opened so a
                            // failed BEGIN leaves no shard half-started.
                            for t in &self.shards[..i] {
                                let _ = t.execute("ROLLBACK");
                            }
                            return Err(e);
                        }
                    }
                }
                Ok(last)
            }
            // COMMIT seals the shard WALs one at a time — there is no
            // cross-shard atomic commit. A crash mid-loop can therefore
            // land earlier shards committed while later shards' open
            // groups are discarded by their recovery. An *error*
            // mid-loop is contained below: the unsealed shards are
            // force-rolled-back and the divergence is surfaced instead
            // of returning a silent partial commit.
            Statement::Commit => {
                let mut last = QueryResult::empty(0);
                for (i, s) in self.shards.iter().enumerate() {
                    if let Err(e) = s.execute(sql).map(|r| last = r) {
                        // Shards 0..i sealed; shard i's seal failed (its
                        // transaction stays open) and shards i+1.. were
                        // never reached. Roll every still-open shard
                        // back so none is left mid-transaction.
                        for t in &self.shards[i..] {
                            if t.catalog().transaction_open() {
                                let _ = t.execute("ROLLBACK");
                            }
                        }
                        self.pending_unshard.write().expect("pending unshard poisoned").clear();
                        self.invalidate_routes();
                        return Err(EngineError::Execution(format!(
                            "COMMIT diverged across shards: {i} of {} shards committed, \
                             then shard {i} failed ({e}); the remaining shards were \
                             rolled back",
                            self.shards.len()
                        )));
                    }
                }
                let pending: Vec<String> = self
                    .pending_unshard
                    .write()
                    .expect("pending unshard poisoned")
                    .drain(..)
                    .collect();
                if !pending.is_empty() {
                    let mut map = self.sharding.write().expect("sharding map poisoned");
                    let mut changed = false;
                    for name in pending {
                        changed |= map.remove(&name).is_some();
                    }
                    if changed {
                        self.persist_sharding_map(&map)?;
                    }
                }
                Ok(last)
            }
            Statement::Rollback => {
                // Every shard is attempted even if one errors, so a
                // facade ROLLBACK never leaves later shards with open
                // transactions; the first error still surfaces.
                let mut last = QueryResult::empty(0);
                let mut first_err = None;
                for s in &self.shards {
                    match s.execute(sql) {
                        Ok(r) => last = r,
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                self.pending_unshard.write().expect("pending unshard poisoned").clear();
                self.invalidate_routes();
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(last),
                }
            }
            Statement::Vacuum => {
                self.vacuum()?;
                Ok(QueryResult::empty(0))
            }
        }
    }

    /// Run `sql` on every shard in index order, stopping at the first
    /// error; the last shard's result.
    fn on_every_shard(&self, sql: &str) -> Result<QueryResult> {
        let mut last = QueryResult::empty(0);
        for s in &self.shards {
            last = s.execute(sql)?;
        }
        Ok(last)
    }

    /// Rebuild every shard's data file, reclaiming dead pages. Cached
    /// routes are invalidated (chunk relocation moves page ids).
    pub fn vacuum(&self) -> Result<()> {
        for s in &self.shards {
            s.vacuum()?;
        }
        self.invalidate_routes();
        Ok(())
    }

    /// Columnar load, and the path every `INSERT` takes: replicated tables
    /// get the columns on every shard; sharded tables take one hash pass
    /// over the key column and one `take` per target shard.
    pub fn insert_columns(&self, table: &str, columns: Vec<ColumnVector>) -> Result<usize> {
        let Some(key) = self.shard_key(table) else {
            let mut n = 0;
            for s in &self.shards {
                n = s.insert_columns(table, columns.clone())?;
            }
            return Ok(n);
        };
        let t0 = self.shards[0].table(table)?;
        let rows = t0.check_columns(&columns)?;
        let key_idx = t0
            .schema()
            .index_of(&key)
            .ok_or_else(|| EngineError::Catalog(format!("shard key {key:?} vanished")))?;
        let mut hashes = Vec::new();
        hash_key_columns(std::slice::from_ref(&columns[key_idx]), rows, &mut hashes);
        let n = self.shards.len();
        let mut idx: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
        for (r, h) in hashes.iter().enumerate() {
            idx[(h % n as u64) as usize].push(r);
        }
        let batch = Batch::new(columns);
        let mut total = 0;
        for (i, rows_i) in idx.into_iter().enumerate() {
            if rows_i.is_empty() {
                continue;
            }
            om::SHARD_ROWS_PER_SHARD.record(rows_i.len() as u64);
            total +=
                self.shards[i].insert_columns(table, batch.take(&rows_i).into_owned_columns())?;
        }
        Ok(total)
    }

    /// Classify `sql` without executing it (the serving router and tests
    /// use this). Classifications are cached by statement text: routing
    /// depends only on the plan shape and the sharding map, so serve
    /// traffic cycling a working set of point queries classifies each
    /// text once and then routes by lookup.
    pub fn route(&self, sql: &str) -> Result<Route> {
        if self.shards.len() == 1 {
            return Ok(Route::Single(0));
        }
        if let Some(r) = self.route_cache.read().expect("route cache poisoned").get(sql) {
            return Ok(r.clone());
        }
        let plan = self.shards[0].plan(sql)?;
        let route = self.classify(&plan)?;
        let mut cache = self.route_cache.write().expect("route cache poisoned");
        if cache.len() >= ROUTE_CACHE_MAX {
            cache.clear();
        }
        cache.insert(sql.to_string(), route.clone());
        Ok(route)
    }

    fn invalidate_routes(&self) {
        self.route_cache.write().expect("route cache poisoned").clear();
    }

    fn classify(&self, plan: &LogicalPlan) -> Result<Route> {
        let sharded = self.sharded_in(plan)?;
        if sharded.is_empty() {
            return Ok(Route::Replicated);
        }
        if self.shards.len() == 1 {
            return Ok(Route::Single(0));
        }
        let (core, _) = parallel::peel_tail(plan);
        if let Some(t) = self.pinned_shard(core) {
            return Ok(Route::Single(t));
        }
        if split_safe(core, &sharded).is_some() {
            return Ok(Route::Scatter);
        }
        if let Some((_, LogicalPlan::Aggregate { input, .. })) = split_at(core, false) {
            if split_safe(input, &sharded).is_some() {
                return Ok(Route::PartialAgg);
            }
        }
        if let Some((_, LogicalPlan::HashJoin { left, right, .. })) = split_at(core, true) {
            if split_safe(left, &sharded).is_some() && split_safe(right, &sharded).is_some() {
                return Ok(Route::Shuffle);
            }
        }
        Err(EngineError::Unsupported(format!(
            "cannot execute across {} shards: sharded scans are neither pinned, shard-safe, \
             nor sides of a shuffleable hash join",
            self.shards.len()
        )))
    }

    fn select(&self, sql: &str, cached: bool) -> Result<QueryResult> {
        let exec_on = |shard: &Engine| {
            if cached {
                shard.execute_cached(sql)
            } else {
                shard.execute(sql)
            }
        };
        if self.shards.len() == 1 {
            om::SHARD_QUERIES_SINGLE.add(1);
            return exec_on(&self.shards[0]);
        }
        // The cached route skips planning entirely on the single-shard
        // paths; scatter-class routes re-plan because the stage splitter
        // works on the logical plan.
        match self.route(sql)? {
            Route::Replicated => {
                om::SHARD_QUERIES_SINGLE.add(1);
                exec_on(&self.shards[0])
            }
            Route::Single(t) => {
                om::SHARD_QUERIES_SINGLE.add(1);
                exec_on(&self.shards[t])
            }
            Route::Scatter => {
                om::SHARD_QUERIES_SCATTER.add(1);
                self.run_scatter(sql, &self.shards[0].plan(sql)?)
            }
            Route::PartialAgg => {
                om::SHARD_QUERIES_PARTIAL_AGG.add(1);
                self.run_partial_agg(sql, &self.shards[0].plan(sql)?)
            }
            Route::Shuffle => {
                om::SHARD_QUERIES_SHUFFLE.add(1);
                self.run_shuffle(sql, &self.shards[0].plan(sql)?)
            }
        }
    }

    /// The sharded tables `plan` scans, each with its shard-key column:
    /// the split tables [`split_safe`] takes.
    fn sharded_in(&self, plan: &LogicalPlan) -> Result<Vec<(Arc<Table>, Option<usize>)>> {
        let map = self.sharding.read().expect("sharding map poisoned");
        let mut out = Vec::new();
        for t in parallel::scanned_tables(plan) {
            let Some(key) = map.get(&t.name().to_ascii_lowercase()) else { continue };
            let key = t.schema().index_of(key).ok_or_else(|| {
                EngineError::Catalog(format!("shard key {key:?} missing from {}", t.name()))
            })?;
            out.push((t, Some(key)));
        }
        Ok(out)
    }

    /// If every scan of a sharded table is restricted by a `key = literal`
    /// conjunct and all the literals hash to the same shard, return it.
    ///
    /// Pins are attributed to individual scan *instances* (a self-join
    /// needs both sides pinned), the scan ordinal [`column_source`]
    /// traces a pinned column to.
    fn pinned_shard(&self, core: &LogicalPlan) -> Option<usize> {
        let map = self.sharding.read().expect("sharding map poisoned");
        let mut tabs = Vec::new();
        collect_scan_tables(core, &mut tabs);
        // Which global scan ordinals need a pin (their table is sharded)?
        let needs_pin: Vec<bool> = tabs
            .iter()
            .map(|t| {
                map.get(&t.name().to_ascii_lowercase())
                    .is_some_and(|key| t.schema().index_of(key).is_some())
            })
            .collect();
        drop(map);
        if !needs_pin.iter().any(|&b| b) {
            return None;
        }
        let mut pins: Vec<Option<u64>> = vec![None; tabs.len()];
        self.collect_pins(core, 0, &mut pins);
        let n = self.shards.len() as u64;
        let mut target: Option<usize> = None;
        for (ord, need) in needs_pin.iter().enumerate() {
            if !need {
                continue;
            }
            let hash = pins[ord]?;
            let t = (hash % n) as usize;
            if *target.get_or_insert(t) != t {
                return None;
            }
        }
        target
    }

    /// Walk `plan` recording, per global scan ordinal, the hash of a
    /// shard-key equality pin found in some filter above that scan.
    /// `offset` is the number of scans to the left of this subtree; the
    /// return value is the number of scans in it.
    fn collect_pins(
        &self,
        plan: &LogicalPlan,
        offset: usize,
        pins: &mut Vec<Option<u64>>,
    ) -> usize {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                let map = self.sharding.read().expect("sharding map poisoned");
                for c in predicate.split_conjuncts() {
                    let Expr::Binary { op: BinaryOp::Eq, left, right } = &c else { continue };
                    let (i, v) = match (&**left, &**right) {
                        (Expr::Column(i), Expr::Literal(v))
                        | (Expr::Literal(v), Expr::Column(i)) => (*i, v),
                        _ => continue,
                    };
                    let Some((scan, table, col)) = column_source(input, i) else { continue };
                    let is_key = map
                        .get(&table.name().to_ascii_lowercase())
                        .and_then(|key| table.schema().index_of(key))
                        == Some(col);
                    if is_key {
                        pins[offset + scan].get_or_insert(value_hash(v));
                    }
                }
                drop(map);
                self.collect_pins(input, offset, pins)
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Infer { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => self.collect_pins(input, offset, pins),
            LogicalPlan::CrossJoin { left, right, .. }
            | LogicalPlan::HashJoin { left, right, .. } => {
                let l = self.collect_pins(left, offset, pins);
                l + self.collect_pins(right, offset + l, pins)
            }
            LogicalPlan::Scan { .. } => 1,
            LogicalPlan::Values { .. } => 0,
        }
    }

    /// Fork-join over the shards: one `Query`-class task per shard on the
    /// global pool, results gathered in shard index order (the order every
    /// merge below relies on for determinism).
    fn scatter<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &Engine) -> Result<T> + Sync,
    {
        let results = {
            let _span = obs::span(&om::SHARD_GATHER_WAIT_US);
            sched::global().fork_join(
                sched::TaskClass::Query,
                self.shards.iter().enumerate(),
                |(i, shard)| f(i, shard),
            )?
        };
        results.into_iter().collect()
    }

    fn run_scatter(&self, sql: &str, plan0: &LogicalPlan) -> Result<QueryResult> {
        let results = self.scatter(|_i, shard| {
            let plan = shard.plan(sql)?;
            let batches = parallel::execute(parallel::peel_tail(&plan).0, shard.config())?;
            om::SHARD_ROWS_PER_SHARD.record(rows_in(&batches));
            Ok(batches)
        })?;
        let (_, tail) = parallel::peel_tail(plan0);
        self.gather(plan0, &tail, results.into_iter().flatten().collect())
    }

    fn run_partial_agg(&self, sql: &str, plan0: &LogicalPlan) -> Result<QueryResult> {
        let (core0, mut chain) = parallel::peel_tail(plan0);
        let Some((upper0, LogicalPlan::Aggregate { group: group0, aggs: aggs0, schema, .. })) =
            split_at(core0, false)
        else {
            return Err(EngineError::Execution("partial-agg plan shape vanished".into()));
        };
        let output_types = schema.types();
        let agg_types = &output_types[group0.len()..];
        let states = self.scatter(|_i, shard| {
            let plan = shard.plan(sql)?;
            let Some((_, LogicalPlan::Aggregate { input, group, aggs, .. })) =
                split_at(parallel::peel_tail(&plan).0, false)
            else {
                return Err(EngineError::Execution("partial-agg plan diverged".into()));
            };
            let batches = parallel::execute(input, shard.config())?;
            om::SHARD_ROWS_PER_SHARD.record(rows_in(&batches));
            parallel::absorb(batches_operator(batches), group, aggs, agg_types)
        })?;
        // Shard index order: with each shard's own partition-level merge
        // also index-ordered, repeated runs are bit-identical.
        let batch = parallel::merge_partials(states, group0.len(), aggs0, &output_types)?;
        chain.extend(upper0);
        self.gather(plan0, &chain, vec![batch])
    }

    fn run_shuffle(&self, sql: &str, plan0: &LogicalPlan) -> Result<QueryResult> {
        let nshards = self.shards.len();
        let vs = self.config().vector_size;
        let (core0, mut chain) = parallel::peel_tail(plan0);
        let Some((
            upper0,
            LogicalPlan::HashJoin { left: l0, right: r0, left_keys: lk0, right_keys: rk0, .. },
        )) = split_at(core0, true)
        else {
            return Err(EngineError::Execution("shuffle-join plan shape vanished".into()));
        };
        let sharded = self.sharded_in(plan0)?;
        // A side without sharded scans is replicated everywhere: evaluate
        // it once (on shard 0) or the exchange would duplicate it N times.
        let left_sharded = split_safe(l0, &sharded) == Some(true);
        let right_sharded = split_safe(r0, &sharded) == Some(true);
        let parts = self.scatter(|i, shard| {
            let plan = shard.plan(sql)?;
            let Some((_, LogicalPlan::HashJoin { left, right, left_keys, right_keys, .. })) =
                split_at(parallel::peel_tail(&plan).0, true)
            else {
                return Err(EngineError::Execution("shuffle plan diverged".into()));
            };
            let lb = if left_sharded || i == 0 {
                parallel::execute(left, shard.config())?
            } else {
                Vec::new()
            };
            let rb = if right_sharded || i == 0 {
                parallel::execute(right, shard.config())?
            } else {
                Vec::new()
            };
            om::SHARD_ROWS_PER_SHARD.record(rows_in(&lb) + rows_in(&rb));
            Ok((repartition(&lb, left_keys, nshards)?, repartition(&rb, right_keys, nshards)?))
        })?;
        // The exchange: transpose source-shard buckets into per-target
        // inputs, source shards kept in index order.
        let mut left_t: Vec<Vec<Batch>> = (0..nshards).map(|_| Vec::new()).collect();
        let mut right_t: Vec<Vec<Batch>> = (0..nshards).map(|_| Vec::new()).collect();
        for (lparts, rparts) in parts {
            for (t, bs) in lparts.into_iter().enumerate() {
                left_t[t].extend(bs);
            }
            for (t, bs) in rparts.into_iter().enumerate() {
                right_t[t].extend(bs);
            }
        }
        // Join each target's bucket pair on the pool; gather in target order.
        let results = {
            let _span = obs::span(&om::SHARD_GATHER_WAIT_US);
            sched::global().fork_join(
                sched::TaskClass::Query,
                left_t.into_iter().zip(right_t),
                |(lb, rb)| {
                    let op: Box<dyn Operator> = Box::new(HashJoinExec::new(
                        batches_operator(lb),
                        batches_operator(rb),
                        lk0.clone(),
                        rk0.clone(),
                        vs,
                    ));
                    drain(op)
                },
            )?
        };
        let mut joined = Vec::new();
        for batches in results {
            joined.extend(batches?);
        }
        chain.extend(upper0);
        self.gather(plan0, &chain, joined)
    }

    /// Replay `chain` — the peeled tail, then any upper chain above the
    /// split node, outermost first — over the gathered batches at the
    /// facade, and assemble the result of `plan0`.
    fn gather(
        &self,
        plan0: &LogicalPlan,
        chain: &[&LogicalPlan],
        batches: Vec<Batch>,
    ) -> Result<QueryResult> {
        let out = parallel::replay(chain, batches, self.config().vector_size)?;
        Ok(QueryResult::from_batches(plan0, out))
    }

    /// Register `name` for `PREDICT(name, …)` on every shard, each against
    /// its own copy of the replicated `model_table` and with its own model
    /// cache, returned in shard order. A `PREDICT` over a sharded table then
    /// scatters with its probe side like any shard-safe plan, and one
    /// pinned by `key = literal` routes to one shard.
    pub fn register_model(
        &self,
        name: &str,
        model_table: &str,
        meta: ModelMeta,
        layout: Layout,
        device: &Device,
    ) -> Vec<Arc<ModelCache>> {
        let register = |s: &Arc<Engine>| {
            modeljoin::register_model(s, name, model_table, meta.clone(), layout, device.clone())
        };
        self.shards.iter().map(register).collect()
    }
}

/// Total rows of `batches` (the `shard.rows.per_shard` unit).
fn rows_in(batches: &[Batch]) -> u64 {
    batches.iter().map(Batch::num_rows).sum::<usize>() as u64
}

/// Read `root/sharding.kv` (`table=key` per line); absent file means no
/// sharded tables yet. A malformed file is an error, not a silent reset —
/// losing the map would silently turn routed tables into replicated ones.
fn load_sharding_map(root: &Path) -> Result<HashMap<String, String>> {
    let body = match std::fs::read_to_string(root.join("sharding.kv")) {
        Ok(body) => body,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(EngineError::Io(format!("sharding map: {e}"))),
    };
    let mut map = HashMap::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        let (table, key) = line
            .split_once('=')
            .ok_or_else(|| EngineError::Io(format!("sharding map: malformed line {line:?}")))?;
        map.insert(table.to_string(), key.to_string());
    }
    Ok(map)
}

/// Split the unary operator chain above the first aggregate (`want_join ==
/// false`) or hash join (`want_join == true`). Returns the chain outermost
/// first plus the target node; `None` if the walk hits anything else
/// (including an interior `LIMIT`, whose row choice is order-dependent
/// and so cannot be replayed at the facade).
fn split_at(core: &LogicalPlan, want_join: bool) -> Option<(Vec<&LogicalPlan>, &LogicalPlan)> {
    let mut upper = Vec::new();
    let mut node = core;
    loop {
        match node {
            LogicalPlan::Aggregate { .. } if !want_join => return Some((upper, node)),
            LogicalPlan::HashJoin { .. } if want_join => return Some((upper, node)),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Aggregate { input, .. } => {
                upper.push(node);
                node = input;
            }
            _ => return None,
        }
    }
}

/// Hash-partition batches by join-key hash into `nshards` buckets — the
/// columnar exchange. Volume is recorded under `shard.shuffle.*`.
fn repartition(batches: &[Batch], keys: &[Expr], nshards: usize) -> Result<Vec<Vec<Batch>>> {
    let mut out: Vec<Vec<Batch>> = (0..nshards).map(|_| Vec::new()).collect();
    let mut hashes = Vec::new();
    for b in batches {
        if b.num_rows() == 0 {
            continue;
        }
        let key_cols: Vec<Arc<ColumnVector>> =
            keys.iter().map(|e| e.eval(b)).collect::<Result<_>>()?;
        hash_key_columns(&key_cols, b.num_rows(), &mut hashes);
        let mut idx: Vec<Vec<usize>> = (0..nshards).map(|_| Vec::new()).collect();
        for (r, h) in hashes.iter().enumerate() {
            idx[(h % nshards as u64) as usize].push(r);
        }
        for (t, rows) in idx.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let sub = b.take(&rows);
            om::SHARD_SHUFFLE_ROWS.add(sub.num_rows() as u64);
            om::SHARD_SHUFFLE_BATCHES.add(1);
            om::SHARD_SHUFFLE_BYTES.add(batch_bytes(&sub));
            out[t].push(sub);
        }
    }
    Ok(out)
}

/// Approximate wire size of a batch (the obs `shard.shuffle.bytes` unit).
fn batch_bytes(b: &Batch) -> u64 {
    b.columns()
        .iter()
        .map(|c| match c {
            ColumnVector::Int(v) => v.len() * 8,
            ColumnVector::Float(v) => v.len() * 8,
            ColumnVector::Bool(v) => v.len(),
            ColumnVector::Str(v) => v.iter().map(|s| s.len() + 8).sum(),
        } as u64)
        .sum()
}

/// The shard-routing hash of one value — the same hash family rows are
/// split with on insert, so `hash(literal) % N` names the owning shard.
fn value_hash(v: &Value) -> u64 {
    let col = match v {
        Value::Int(i) => ColumnVector::Int(vec![*i]),
        Value::Float(f) => ColumnVector::Float(vec![*f]),
        Value::Bool(b) => ColumnVector::Bool(vec![*b]),
        Value::Str(s) => ColumnVector::Str(vec![s.clone()]),
    };
    let mut hashes = Vec::new();
    hash_key_columns(std::slice::from_ref(&col), 1, &mut hashes);
    hashes[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(shards: usize) -> ShardedEngine {
        let cfg = EngineConfig { partitions: 2, parallelism: 2, ..Default::default() };
        ShardedEngine::with_shards(cfg, shards)
    }

    /// `id` values 0..n, `v = id * 0.25` (dyadic, exact in binary),
    /// `grp = id % 5`.
    fn load_facts(e: &ShardedEngine, n: i64) {
        e.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT)").unwrap();
        e.declare_sharded("facts", "id").unwrap();
        e.declare_unique("facts", "id").unwrap();
        e.insert_columns(
            "facts",
            vec![
                ColumnVector::Int((0..n).collect()),
                ColumnVector::Int((0..n).map(|i| i % 5).collect()),
                ColumnVector::Float((0..n).map(|i| i as f64 * 0.25).collect()),
            ],
        )
        .unwrap();
    }

    fn sorted_rows(r: &QueryResult) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = (0..r.num_rows())
            .map(|i| r.row(i).iter().map(|v| format!("{v:?}")).collect())
            .collect();
        rows.sort();
        rows
    }

    fn oracle(n: i64) -> Engine {
        let e = Engine::with_defaults();
        e.execute("CREATE TABLE facts (id INT, grp INT, v FLOAT)").unwrap();
        e.table("facts").unwrap().declare_unique("id").unwrap();
        e.insert_columns(
            "facts",
            vec![
                ColumnVector::Int((0..n).collect()),
                ColumnVector::Int((0..n).map(|i| i % 5).collect()),
                ColumnVector::Float((0..n).map(|i| i as f64 * 0.25).collect()),
            ],
        )
        .unwrap();
        e
    }

    #[test]
    fn rows_split_across_shards_and_union_is_complete() {
        let e = engine(3);
        load_facts(&e, 100);
        let per: Vec<usize> =
            e.shards().iter().map(|s| s.table("facts").unwrap().row_count()).collect();
        assert_eq!(per.iter().sum::<usize>(), 100);
        assert!(per.iter().all(|&c| c > 0), "hash split left a shard empty: {per:?}");
        let r = e.execute("SELECT COUNT(*) AS n FROM facts").unwrap();
        assert_eq!(r.row(0), vec![Value::Int(100)]);
    }

    #[test]
    fn point_query_routes_to_one_shard() {
        let e = engine(4);
        load_facts(&e, 64);
        let route = e.route("SELECT v FROM facts WHERE id = 17").unwrap();
        let Route::Single(t) = route else { panic!("expected routed point query, got {route:?}") };
        // The owning shard really holds the row, and the facade answer
        // matches the shard-local answer.
        let local = e.shard(t).execute("SELECT v FROM facts WHERE id = 17").unwrap();
        assert_eq!(local.num_rows(), 1);
        let r = e.execute("SELECT v FROM facts WHERE id = 17").unwrap();
        assert_eq!(r.row(0), vec![Value::Float(17.0 * 0.25)]);
    }

    #[test]
    fn self_join_with_one_unpinned_side_is_not_routed() {
        let e = engine(4);
        load_facts(&e, 64);
        // b is unpinned: routing to a's shard would miss b rows on other
        // shards. The co-partitioned self-join is still scatter-safe.
        let route = e
            .route("SELECT a.v FROM facts AS a, facts AS b WHERE a.id = 5 AND a.id = b.id")
            .unwrap();
        assert_eq!(route, Route::Scatter);
    }

    #[test]
    fn group_by_shard_key_scatters_and_matches_oracle() {
        let e = engine(3);
        load_facts(&e, 90);
        let o = oracle(90);
        let sql = "SELECT id, SUM(v) AS s FROM facts GROUP BY id ORDER BY id";
        assert_eq!(e.route(sql).unwrap(), Route::Scatter);
        assert_eq!(sorted_rows(&e.execute(sql).unwrap()), sorted_rows(&o.execute(sql).unwrap()));
    }

    #[test]
    fn misaligned_group_by_uses_partial_aggregate_merge() {
        let e = engine(3);
        load_facts(&e, 90);
        let o = oracle(90);
        let sql = "SELECT grp, SUM(v) AS s, AVG(v) AS m, COUNT(*) AS n \
                   FROM facts GROUP BY grp ORDER BY grp";
        assert_eq!(e.route(sql).unwrap(), Route::PartialAgg);
        assert_eq!(sorted_rows(&e.execute(sql).unwrap()), sorted_rows(&o.execute(sql).unwrap()));
    }

    #[test]
    fn global_aggregate_over_shards_matches_oracle() {
        let e = engine(8);
        load_facts(&e, 200);
        let o = oracle(200);
        let sql = "SELECT SUM(v) AS s, MIN(id) AS lo, MAX(id) AS hi, COUNT(*) AS n FROM facts";
        assert_eq!(e.route(sql).unwrap(), Route::PartialAgg);
        assert_eq!(e.execute(sql).unwrap().row(0), o.execute(sql).unwrap().row(0));
    }

    #[test]
    fn misaligned_join_shuffles_and_matches_oracle() {
        let e = engine(3);
        load_facts(&e, 60);
        let o = oracle(60);
        // Join on grp — not the shard key — forces the exchange.
        let sql = "SELECT a.id, b.id FROM facts AS a, facts AS b \
                   WHERE a.grp = b.grp AND a.v < 1.0 AND b.v < 1.0 ORDER BY 1, 2";
        assert_eq!(e.route(sql).unwrap(), Route::Shuffle);
        assert_eq!(sorted_rows(&e.execute(sql).unwrap()), sorted_rows(&o.execute(sql).unwrap()));
        assert!(om::SHARD_SHUFFLE_ROWS.get() > 0, "exchange recorded no shuffled rows");
    }

    #[test]
    fn replicated_join_against_sharded_side_scatters() {
        let e = engine(3);
        load_facts(&e, 60);
        e.execute("CREATE TABLE dim (grp INT, label FLOAT)").unwrap();
        for g in 0..5 {
            e.execute(&format!("INSERT INTO dim VALUES ({g}, {})", g as f64 * 10.0)).unwrap();
        }
        let o = oracle(60);
        o.execute("CREATE TABLE dim (grp INT, label FLOAT)").unwrap();
        for g in 0..5 {
            o.execute(&format!("INSERT INTO dim VALUES ({g}, {})", g as f64 * 10.0)).unwrap();
        }
        // dim is replicated on every shard: the join is shard-local.
        let sql = "SELECT f.id, d.label FROM facts AS f, dim AS d \
                   WHERE f.grp = d.grp ORDER BY f.id";
        assert_eq!(e.route(sql).unwrap(), Route::Scatter);
        assert_eq!(sorted_rows(&e.execute(sql).unwrap()), sorted_rows(&o.execute(sql).unwrap()));
    }

    #[test]
    fn top_level_order_and_limit_apply_after_gather() {
        let e = engine(4);
        load_facts(&e, 100);
        let o = oracle(100);
        let sql = "SELECT id, v FROM facts ORDER BY id DESC LIMIT 7";
        let r = e.execute(sql).unwrap();
        let expect = o.execute(sql).unwrap();
        assert_eq!(r.num_rows(), 7);
        assert_eq!(
            (0..7).map(|i| r.row(i)).collect::<Vec<_>>(),
            (0..7).map(|i| expect.row(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_sharded_aggregate_runs_are_bit_identical() {
        // Non-dyadic values so any merge-order wobble would flip low bits.
        let e = engine(8);
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.declare_sharded("t", "id").unwrap();
        let n = 500i64;
        e.insert_columns(
            "t",
            vec![
                ColumnVector::Int((0..n).collect()),
                ColumnVector::Float((0..n).map(|i| i as f64 * 0.1).collect()),
            ],
        )
        .unwrap();
        let sql = "SELECT SUM(v) AS s, AVG(v) AS m FROM t";
        let bits = |r: &QueryResult| -> Vec<u64> {
            r.row(0)
                .iter()
                .map(|v| match v {
                    Value::Float(f) => f.to_bits(),
                    Value::Int(i) => *i as u64,
                    other => panic!("unexpected value {other:?}"),
                })
                .collect()
        };
        let first = bits(&e.execute(sql).unwrap());
        for _ in 0..10 {
            assert_eq!(bits(&e.execute(sql).unwrap()), first, "merge order drifted");
        }
    }

    #[test]
    fn sharded_insert_statement_routes_rows() {
        let e = engine(3);
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.declare_sharded("t", "id").unwrap();
        let r = e.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5), (4, 3.5)").unwrap();
        assert_eq!(r.affected, 4);
        let total: usize = e.shards().iter().map(|s| s.table("t").unwrap().row_count()).sum();
        assert_eq!(total, 4);
        // Explicit column lists reorder into schema order before routing.
        e.execute("INSERT INTO t (v, id) VALUES (9.5, 9)").unwrap();
        let r = e.execute("SELECT v FROM t WHERE id = 9").unwrap();
        assert_eq!(r.row(0), vec![Value::Float(9.5)]);
    }

    #[test]
    fn declare_sharded_rejects_loaded_tables_and_unknown_keys() {
        let e = engine(2);
        e.execute("CREATE TABLE t (id INT)").unwrap();
        assert!(e.declare_sharded("t", "nope").is_err());
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(e.declare_sharded("t", "id").is_err());
    }

    #[test]
    fn cross_join_of_two_sharded_tables_is_unsupported() {
        let e = engine(2);
        load_facts(&e, 10);
        e.execute("CREATE TABLE other (id INT)").unwrap();
        e.declare_sharded("other", "id").unwrap();
        e.execute("INSERT INTO other VALUES (1), (2)").unwrap();
        let err = e.route("SELECT f.id FROM facts AS f, other AS o").unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "got {err:?}");
    }

    #[test]
    fn single_shard_facade_matches_plain_engine() {
        let e = engine(1);
        load_facts(&e, 50);
        let o = oracle(50);
        for sql in [
            "SELECT SUM(v) AS s FROM facts",
            "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp",
            "SELECT v FROM facts WHERE id = 3",
        ] {
            assert_eq!(
                sorted_rows(&e.execute(sql).unwrap()),
                sorted_rows(&o.execute(sql).unwrap()),
                "{sql}"
            );
        }
    }

    #[test]
    fn empty_select_has_typed_columns_on_engine_and_facade() {
        let sql = "SELECT id, v FROM facts WHERE id < 0";
        let shape = |r: QueryResult| {
            let types: Vec<_> = r.columns.iter().map(ColumnVector::data_type).collect();
            assert!(r.column("v").is_ok());
            (r.names.clone(), types, r.num_rows())
        };
        let expect = shape(oracle(20).execute(sql).unwrap());
        assert_eq!(expect.1.len(), 2, "the plain engine returned {expect:?}");
        for shards in [1, 3] {
            let e = engine(shards);
            load_facts(&e, 20);
            assert_eq!(shape(e.execute(sql).unwrap()), expect, "{shards} shards");
        }
    }

    #[test]
    fn short_or_mistyped_columns_get_the_engine_error_not_a_panic() {
        let e = engine(3);
        e.execute("CREATE TABLE t (v FLOAT, id INT)").unwrap();
        e.declare_sharded("t", "id").unwrap();
        let o = Engine::with_defaults();
        o.execute("CREATE TABLE t (v FLOAT, id INT)").unwrap();
        for cols in [
            vec![ColumnVector::Float(vec![1.0])],
            vec![ColumnVector::Int(vec![1]), ColumnVector::Int(vec![1])],
        ] {
            let want = o.insert_columns("t", cols.clone()).unwrap_err().to_string();
            let got = e.insert_columns("t", cols).unwrap_err().to_string();
            assert_eq!(got, want);
        }
        assert_eq!(e.execute("SELECT COUNT(*) AS n FROM t").unwrap().row(0), vec![Value::Int(0)]);
    }
}
