//! The engine facade: SQL execution and programmatic table access.

use crate::catalog::Catalog;
use crate::column::{Batch, ColumnVector};
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::exec::parallel;
use crate::exec::physical::{build_operator, ExecContext, Operator};
use crate::exec::scan::ScanExec;
use crate::exec::simple::concat_batches;
use crate::plan::binder::Binder;
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::Optimizer;
use crate::sql::{parse_statement, AstExpr, Statement};
use crate::storage::{ColumnDef, Schema, Table};
use crate::types::{DataType, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A materialized query result.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Output column names.
    pub names: Vec<String>,
    /// Output columns (equal length).
    pub columns: Vec<ColumnVector>,
    /// Rows affected by DML/DDL (0 for queries).
    pub affected: usize,
}

impl QueryResult {
    /// The result of a statement that returns no rows (DDL, DML,
    /// transaction control).
    pub fn empty(affected: usize) -> QueryResult {
        QueryResult { names: Vec::new(), columns: Vec::new(), affected }
    }

    /// The result of `plan` from its output batches. With no batches, each
    /// output field still gets a typed, empty column.
    pub fn from_batches(plan: &LogicalPlan, batches: Vec<Batch>) -> QueryResult {
        let schema = plan.schema();
        let columns = if batches.is_empty() {
            schema.types().into_iter().map(ColumnVector::empty).collect()
        } else {
            concat_batches(&batches).into_columns()
        };
        let names = schema.fields.iter().map(|f| f.name.clone()).collect();
        QueryResult { names, columns, affected: 0 }
    }

    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, ColumnVector::len)
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by output name (case-insensitive); errors if absent.
    pub fn column(&self, name: &str) -> Result<&ColumnVector> {
        let lower = name.to_ascii_lowercase();
        self.names
            .iter()
            .position(|n| *n == lower)
            .map(|i| &self.columns[i])
            .ok_or_else(|| EngineError::Plan(format!("no result column {name:?}")))
    }

    /// Row `i` as values (tests / display).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows (tests).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.num_rows()).map(|i| self.row(i)).collect()
    }
}

/// One cached, fully optimized SELECT plan, stamped with the catalog epoch
/// it was planned under.
struct PlanEntry {
    /// Catalog epoch at planning time; the entry is replayed only while
    /// `catalog.version()` still equals it.
    version: u64,
    plan: Arc<LogicalPlan>,
    /// LRU tick of the last lookup that returned this entry.
    last_used: u64,
}

/// The prepared-statement / plan cache behind [`Engine::execute_cached`]:
/// SQL text → optimized [`LogicalPlan`], invalidated by catalog epoch.
#[derive(Default)]
struct PlanCache {
    entries: HashMap<String, PlanEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Counters of the plan cache (observability / tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch (including never-seen SQL).
    pub misses: u64,
    /// Entries discarded because the catalog epoch had moved.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl PlanCache {
    /// A valid entry for `sql` at catalog epoch `version`, else `None`.
    /// Stale entries are evicted (and counted) on the way.
    fn lookup(&mut self, sql: &str, version: u64) -> Option<Arc<LogicalPlan>> {
        match self.entries.get_mut(sql) {
            Some(entry) if entry.version == version => {
                self.tick += 1;
                entry.last_used = self.tick;
                self.hits += 1;
                obs::metrics::EXEC_PLAN_CACHE_HITS.add(1);
                Some(Arc::clone(&entry.plan))
            }
            Some(_) => {
                self.entries.remove(sql);
                self.invalidations += 1;
                self.misses += 1;
                obs::metrics::EXEC_PLAN_CACHE_INVALIDATIONS.add(1);
                obs::metrics::EXEC_PLAN_CACHE_MISSES.add(1);
                None
            }
            None => {
                self.misses += 1;
                obs::metrics::EXEC_PLAN_CACHE_MISSES.add(1);
                None
            }
        }
    }

    /// Insert a freshly planned entry, evicting the least-recently-used one
    /// when at capacity. Capacity is small (an `EngineConfig` knob), so the
    /// O(n) eviction scan is noise next to planning cost.
    fn store(&mut self, capacity: usize, sql: &str, version: u64, plan: Arc<LogicalPlan>) {
        if capacity == 0 {
            return;
        }
        if self.entries.len() >= capacity && !self.entries.contains_key(sql) {
            if let Some(oldest) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries.insert(sql.to_string(), PlanEntry { version, plan, last_used: self.tick });
    }
}

/// The database engine: a catalog plus a configuration. This is the
/// "Actian Vector" stand-in every approach in the repository runs against.
pub struct Engine {
    catalog: Arc<Catalog>,
    config: EngineConfig,
    plan_cache: Mutex<PlanCache>,
}

impl Engine {
    /// Construct an engine, panicking if persistent-storage open or
    /// crash recovery fails. Kept infallible for the (default) in-memory
    /// mode, where it cannot fail; persistent callers who want to handle
    /// recovery errors use [`Engine::open`].
    pub fn new(config: EngineConfig) -> Engine {
        Engine::open(config).expect("persistent storage open/recovery failed")
    }

    /// Construct an engine. With [`EngineConfig::data_dir`] set, this
    /// opens (or creates) the paged storage under that directory and
    /// runs crash recovery: the checkpointed page directory is loaded
    /// and the WAL's committed prefix replayed, so the returned engine
    /// is bit-identical to one that executed exactly the committed
    /// statement prefix before the crash.
    pub fn open(config: EngineConfig) -> Result<Engine> {
        // Size the process-wide scheduler (grow-only) for this engine's
        // workload; every compute layer shares the pool.
        sched::configure_workers(config.effective_worker_threads());
        let catalog = match &config.data_dir {
            None => Arc::new(Catalog::new()),
            Some(dir) => crate::persist::open_catalog(std::path::Path::new(dir), &config)?,
        };
        Ok(Engine { catalog, config, plan_cache: Mutex::new(PlanCache::default()) })
    }

    /// Checkpoint the persistent storage: flush dirty pool pages, write
    /// the page directory atomically, truncate the WAL. A no-op for
    /// in-memory engines.
    pub fn checkpoint(&self) -> Result<()> {
        crate::persist::checkpoint(&self.catalog)
    }

    /// Rebuild the data file, copying only live chunks and truncating
    /// away dead pages (dropped tables, crash-torn appends). Runs under
    /// the checkpoint lock; errors if a transaction is open. A no-op for
    /// in-memory engines.
    pub fn vacuum(&self) -> Result<()> {
        crate::persist::vacuum(&self.catalog)
    }

    /// Current WAL size in bytes (`None` in in-memory mode). The
    /// crash-recovery tests record this after each statement to build
    /// their committed-prefix oracle.
    pub fn wal_size(&self) -> Option<u64> {
        self.catalog.env().map(|e| e.wal_size())
    }

    /// The persistent storage environment (`None` in in-memory mode) —
    /// tests and benchmarks read buffer-pool occupancy through it.
    pub fn storage_env(&self) -> Option<&Arc<crate::persist::StorageEnv>> {
        self.catalog.env()
    }

    /// Engine with the paper's evaluation configuration.
    pub fn with_defaults() -> Engine {
        Engine::new(EngineConfig::default())
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_statement(parse_statement(sql)?)
    }

    /// Execute one SQL statement through the plan cache: SELECTs are
    /// parsed, bound and optimized once and the resulting plan replayed on
    /// every later call with the same SQL text, until any catalog change
    /// (CREATE / DROP / INSERT) moves the epoch and invalidates the entry.
    /// Non-SELECT statements are never cached and behave exactly like
    /// [`Engine::execute`]. With `plan_cache_entries == 0` this *is*
    /// `execute`.
    pub fn execute_cached(&self, sql: &str) -> Result<QueryResult> {
        if self.config.plan_cache_entries == 0 {
            return self.execute(sql);
        }
        // The epoch is read before planning: if the catalog moves while we
        // plan, the entry is stamped with the older epoch and can never be
        // returned by a later lookup (epochs are monotonic) — a wasted
        // cache slot, never a stale result.
        let version = self.catalog.version();
        if let Some(plan) = self.plan_cache.lock().lookup(sql, version) {
            return self.execute_plan(&plan);
        }
        match parse_statement(sql)? {
            Statement::Select(stmt) => {
                let binder = Binder::new(&self.catalog);
                let plan = binder.bind_select(&stmt)?;
                let plan = Arc::new(Optimizer::new(self.config.clone()).optimize(plan));
                self.plan_cache.lock().store(
                    self.config.plan_cache_entries,
                    sql,
                    version,
                    Arc::clone(&plan),
                );
                self.execute_plan(&plan)
            }
            other => self.execute_statement(other),
        }
    }

    /// Text report of the process-wide metric catalog (see the `obs`
    /// crate): per-operator rows/batches/time, plan-cache and catalog
    /// counters, kernel-layer GEMM/pack stats, and (when a server runs in
    /// this process) the serving metrics.
    pub fn metrics_report(&self) -> String {
        obs::snapshot().render()
    }

    /// Plan cache counters (hits / misses / invalidations / residency).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = self.plan_cache.lock();
        PlanCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            invalidations: cache.invalidations,
            entries: cache.entries.len(),
        }
    }

    fn execute_statement(&self, statement: Statement) -> Result<QueryResult> {
        match statement {
            Statement::Select(stmt) => {
                let binder = Binder::new(&self.catalog);
                let plan = binder.bind_select(&stmt)?;
                let plan = Optimizer::new(self.config.clone()).optimize(plan);
                self.execute_plan(&plan)
            }
            Statement::CreateTable { name, columns, if_not_exists } => {
                if if_not_exists && self.catalog.table(&name).is_ok() {
                    return Ok(QueryResult::empty(0));
                }
                let defs: Result<Vec<ColumnDef>> = columns
                    .iter()
                    .map(|(n, t)| Ok(ColumnDef::new(n.as_str(), DataType::parse_sql(t)?)))
                    .collect();
                self.catalog.create_table(&name, Schema::new(defs?)?, &self.config)?;
                Ok(QueryResult::empty(0))
            }
            Statement::Insert { table, columns, rows } => {
                let values = self.insert_values(&table, columns.as_deref(), &rows)?;
                Ok(QueryResult::empty(self.insert_columns(&table, values)?))
            }
            Statement::DropTable { name, if_exists } => {
                self.catalog.drop_table(&name, if_exists)?;
                Ok(QueryResult::empty(0))
            }
            Statement::Begin => {
                self.catalog.begin_transaction()?;
                Ok(QueryResult::empty(0))
            }
            Statement::Commit => {
                self.catalog.commit_transaction()?;
                Ok(QueryResult::empty(0))
            }
            Statement::Rollback => {
                self.catalog.rollback_transaction()?;
                Ok(QueryResult::empty(0))
            }
            Statement::Vacuum => {
                self.vacuum()?;
                Ok(QueryResult::empty(0))
            }
        }
    }

    /// Plan a SELECT without executing it (inspection / tests).
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        match parse_statement(sql)? {
            Statement::Select(stmt) => {
                let binder = Binder::new(&self.catalog);
                let plan = binder.bind_select(&stmt)?;
                Ok(Optimizer::new(self.config.clone()).optimize(plan))
            }
            other => Err(EngineError::Plan(format!("cannot plan non-SELECT statement {other:?}"))),
        }
    }

    /// Execute an already-optimized logical plan.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<QueryResult> {
        Ok(QueryResult::from_batches(plan, parallel::execute(plan, &self.config)?))
    }

    /// Evaluate the `VALUES` rows of `INSERT INTO table [(columns)]` into
    /// typed columns in the table's schema order. The one INSERT
    /// evaluation: the sharded facade routes these columns to its shards.
    pub fn insert_values(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<AstExpr>],
    ) -> Result<Vec<ColumnVector>> {
        let t = self.catalog.table(table)?;
        let schema = t.schema();
        let positions = match columns {
            Some(cols) => reorder_insert(schema, cols)?,
            None => (0..schema.len()).collect(),
        };
        let binder = Binder::new(&self.catalog);
        let mut out: Vec<ColumnVector> =
            schema.columns().iter().map(|c| ColumnVector::empty(c.dtype)).collect();
        for row in rows {
            if row.len() != positions.len() {
                return Err(EngineError::Catalog(format!(
                    "table {table}: expected {} values per row, got {}",
                    positions.len(),
                    row.len()
                )));
            }
            for (expr, &pos) in row.iter().zip(&positions) {
                out[pos].push(binder.eval_const(expr)?)?;
            }
        }
        Ok(out)
    }

    /// Create a table programmatically.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        self.catalog.create_table(name, schema, &self.config)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog.table(name)
    }

    /// Bulk columnar load (the fast path the experiment loaders use).
    pub fn insert_columns(&self, table: &str, columns: Vec<ColumnVector>) -> Result<usize> {
        let t = self.catalog.table(table)?;
        let n = columns.first().map_or(0, ColumnVector::len);
        t.append(columns)?;
        Ok(n)
    }

    /// A raw scan operator over one partition of a table — the integration
    /// point for native operators like the ModelJoin, which sit on top of a
    /// partition's input flow (paper Fig. 5).
    pub fn scan_partition(&self, table: &str, partition: usize) -> Result<Box<dyn Operator>> {
        let t = self.catalog.table(table)?;
        if partition >= t.partition_count() {
            return Err(EngineError::Execution(format!(
                "partition {partition} out of range for table {table}"
            )));
        }
        Ok(Box::new(ScanExec::new(t, Vec::new(), Some(partition))))
    }

    /// A raw scan operator over a whole table.
    pub fn scan_table(&self, table: &str) -> Result<Box<dyn Operator>> {
        let t = self.catalog.table(table)?;
        Ok(Box::new(ScanExec::new(t, Vec::new(), None)))
    }

    /// Build a physical operator tree for a SELECT, leaving the driver to
    /// the caller (used by approaches that embed the engine).
    pub fn compile(&self, sql: &str) -> Result<Box<dyn Operator>> {
        let plan = self.plan(sql)?;
        build_operator(&plan, &ExecContext::new(self.config.vector_size))
    }
}

/// The schema position of each column an `INSERT (cols...)` list names, in
/// list order. The list must cover every column (no NULL/default support);
/// a column named twice leaves another one short, which the append rejects.
fn reorder_insert(schema: &Schema, cols: &[String]) -> Result<Vec<usize>> {
    if cols.len() != schema.len() {
        return Err(EngineError::Catalog(format!(
            "INSERT column list must cover all {} columns (no NULL/default support)",
            schema.len()
        )));
    }
    cols.iter()
        .map(|c| {
            schema
                .index_of(c)
                .ok_or_else(|| EngineError::Catalog(format!("unknown column {c:?} in INSERT")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            vector_size: 4,
            partitions: 3,
            parallelism: 2,
            ..Default::default()
        })
    }

    #[test]
    fn ddl_dml_query_round_trip() {
        let e = engine();
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        let r = e.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)").unwrap();
        assert_eq!(r.affected, 3);
        let q = e.execute("SELECT id, v * 2 AS dbl FROM t WHERE id >= 2 ORDER BY id").unwrap();
        assert_eq!(q.names, vec!["id", "dbl"]);
        assert_eq!(
            q.rows(),
            vec![vec![Value::Int(2), Value::Float(3.0)], vec![Value::Int(3), Value::Float(5.0)],]
        );
    }

    #[test]
    fn insert_with_column_list_reorders() {
        let e = engine();
        e.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
        e.execute("INSERT INTO t (b, a) VALUES (0.5, 7)").unwrap();
        let q = e.execute("SELECT a, b FROM t").unwrap();
        assert_eq!(q.rows(), vec![vec![Value::Int(7), Value::Float(0.5)]]);
    }

    #[test]
    fn insert_partial_columns_rejected() {
        let e = engine();
        e.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
        assert!(e.execute("INSERT INTO t (a) VALUES (1)").is_err());
    }

    #[test]
    fn create_if_not_exists_and_drop() {
        let e = engine();
        e.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(e.execute("CREATE TABLE t (a INT)").is_err());
        e.execute("CREATE TABLE IF NOT EXISTS t (a INT)").unwrap();
        e.execute("DROP TABLE t").unwrap();
        assert!(e.execute("DROP TABLE t").is_err());
        e.execute("DROP TABLE IF EXISTS t").unwrap();
    }

    #[test]
    fn aggregate_query_end_to_end() {
        let e = engine();
        e.execute("CREATE TABLE t (g INT, v FLOAT)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (1, 3.0)").unwrap();
        let q =
            e.execute("SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g ORDER BY g").unwrap();
        assert_eq!(
            q.rows(),
            vec![
                vec![Value::Int(1), Value::Float(4.0), Value::Int(2)],
                vec![Value::Int(2), Value::Float(2.0), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn join_via_comma_and_where() {
        let e = engine();
        e.execute("CREATE TABLE a (id INT)").unwrap();
        e.execute("CREATE TABLE b (id INT, w FLOAT)").unwrap();
        e.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        e.execute("INSERT INTO b VALUES (2, 0.5), (3, 0.7)").unwrap();
        let q = e.execute("SELECT a.id, b.w FROM a, b WHERE a.id = b.id").unwrap();
        assert_eq!(q.rows(), vec![vec![Value::Int(2), Value::Float(0.5)]]);
    }

    #[test]
    fn case_and_scalar_functions() {
        let e = engine();
        e.execute("CREATE TABLE t (x FLOAT)").unwrap();
        e.execute("INSERT INTO t VALUES (-1.0), (0.0), (1.0)").unwrap();
        let q = e
            .execute(
                "SELECT CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END AS s, \
                 SIGMOID(x) AS sg, RELU(x) AS r FROM t ORDER BY x",
            )
            .unwrap();
        assert_eq!(q.column("s").unwrap().value(0), Value::Str("neg".into()));
        assert_eq!(q.column("s").unwrap().value(1), Value::Str("zero".into()));
        assert_eq!(q.column("r").unwrap().value(2), Value::Float(1.0));
        let sg = q.column("sg").unwrap().as_float().unwrap();
        assert!((sg[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn select_without_from() {
        let e = engine();
        let q = e.execute("SELECT 1 + 1 AS two, 'x' AS s").unwrap();
        assert_eq!(q.rows(), vec![vec![Value::Int(2), Value::Str("x".into())]]);
    }

    #[test]
    fn nested_subqueries_execute() {
        let e = engine();
        e.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)").unwrap();
        let q = e
            .execute(
                "SELECT big.id FROM \
                 (SELECT id, v FROM (SELECT id, v * 10 AS v FROM t) AS x WHERE x.v > 15) AS big \
                 ORDER BY big.id",
            )
            .unwrap();
        assert_eq!(q.rows(), vec![vec![Value::Int(2)], vec![Value::Int(3)], vec![Value::Int(4)]]);
    }

    #[test]
    fn result_column_lookup_errors() {
        let e = engine();
        let q = e.execute("SELECT 1 AS one").unwrap();
        assert!(q.column("one").is_ok());
        assert!(q.column("two").is_err());
    }

    #[test]
    fn scan_partition_bounds_checked() {
        let e = engine();
        e.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(e.scan_partition("t", 99).is_err());
        assert!(e.scan_partition("t", 0).is_ok());
    }

    #[test]
    fn plan_cache_replays_selects() {
        let e = engine();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let sql = "SELECT id FROM t ORDER BY id";
        let a = e.execute_cached(sql).unwrap();
        let b = e.execute_cached(sql).unwrap();
        assert_eq!(a.rows(), b.rows());
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn plan_cache_invalidated_by_insert_and_sees_new_rows() {
        let e = engine();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        let sql = "SELECT COUNT(*) AS n FROM t";
        assert_eq!(e.execute_cached(sql).unwrap().rows(), vec![vec![Value::Int(1)]]);
        e.execute_cached("INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(e.execute_cached(sql).unwrap().rows(), vec![vec![Value::Int(2)]]);
        assert_eq!(e.plan_cache_stats().invalidations, 1);
    }

    #[test]
    fn plan_cache_never_reads_dropped_tables() {
        let e = engine();
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (7)").unwrap();
        let sql = "SELECT id FROM t";
        assert_eq!(e.execute_cached(sql).unwrap().num_rows(), 1);
        e.execute("DROP TABLE t").unwrap();
        // The cached plan still holds the old table alive via Arc; the
        // epoch check must prevent it from ever being replayed.
        assert!(e.execute_cached(sql).is_err());
        // Recreate with different content: the cache must re-plan against
        // the new table, not resurrect the old plan.
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (8), (9)").unwrap();
        let q = e.execute_cached(sql).unwrap();
        assert_eq!(q.num_rows(), 2);
    }

    #[test]
    fn plan_cache_lru_eviction_and_disable() {
        let e = Engine::new(EngineConfig {
            vector_size: 4,
            partitions: 2,
            parallelism: 1,
            plan_cache_entries: 2,
            ..Default::default()
        });
        e.execute("CREATE TABLE t (id INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        for sql in ["SELECT id FROM t", "SELECT id + 1 AS a FROM t", "SELECT id + 2 AS b FROM t"] {
            e.execute_cached(sql).unwrap();
        }
        assert_eq!(e.plan_cache_stats().entries, 2, "capacity bound holds");

        let off = Engine::new(EngineConfig { plan_cache_entries: 0, ..EngineConfig::test_small() });
        off.execute("CREATE TABLE t (id INT)").unwrap();
        off.execute_cached("SELECT id FROM t").unwrap();
        off.execute_cached("SELECT id FROM t").unwrap();
        assert_eq!(off.plan_cache_stats(), PlanCacheStats::default(), "0 disables the cache");
    }
}
