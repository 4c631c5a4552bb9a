//! Partition-parallel plan execution and its split planner.
//!
//! Mirrors the paper's x100 parallelism model (Sec. 4.4 / 5.2): the largest
//! scanned table is the partitioned one; each task runs a private copy of
//! the plan in which every scan of that table reads one morsel of it (so
//! both sides of a self-join read the same morsel), while all other tables
//! (e.g. the model table) are read fully by every task. Parallelism is
//! only used when [`split_safe`] accepts the plan with that table split —
//! among its rules, no `LIMIT` inside the split section — under one
//! placement key, tried in this order:
//!
//! * **none** — the paper's "no repartitioning is necessary" argument in
//!   its plain form: every aggregation over the split rows groups on a
//!   declared-unique column of the table, so no group spans morsels, and
//!   no join combines two subtrees that read the table;
//! * **one column `c` that is a key of the morsel list** — `c` is declared
//!   unique, or the morsels' SMA `[min, max]` ranges for `c` are pairwise
//!   disjoint ([`sma_disjoint`], block metadata only: no data page is
//!   read). All rows with one value of `c` then lie in one morsel, so an
//!   aggregation grouping on `c` and a join of two split subtrees on
//!   `c = c` are morsel-local. This is how ML-To-SQL splits: its
//!   statement scans the fact table twice (input function and late
//!   projection) and joins the two on the id. Each attempt passes one
//!   column: two different key columns do not put matching rows in one
//!   morsel;
//! * **the table's hash placement key** — rows were placed by
//!   `hash(key) % partitions` ([`Table::declare_placement_key`]), so with
//!   one morsel per partition all rows holding one key value share a
//!   morsel: a `GROUP BY` on the key and a self-join on it split with no
//!   repartitioning.
//!
//! The plan check runs first and the proof only for a column it accepts,
//! so a statement that cannot split never reads an SMA. A proof holds for
//! the morsel list it was made on, so execution runs exactly that list.
//! When every scan of the split table is pinned by `key = literal` to one
//! partition of a hash-placed table ([`common_pin`]), the list holds that
//! partition's morsels only.
//!
//! A plan no split admits runs serially on the calling thread. That
//! includes an aggregation whose group key spans morsels: its one hash
//! aggregate then reads every partition.
//!
//! Top-level `ORDER BY` / `LIMIT` are peeled off ([`peel_tail`]) and
//! replayed serially over the gathered morsel results ([`replay`]).
//!
//! The unit of parallelism is the **morsel** — a block range within one
//! partition, at most [`MORSEL_ROWS`] rows, read as the rows those blocks
//! held when the morsel list was built (so rows an append adds to a
//! morsel's last block never reach a split proven without them) —
//! submitted as Query-class tasks to the process-wide pool in
//! `crates/sched`. The driving thread cooperatively runs its own morsels
//! while waiting, so queries never spawn threads, and whichever worker is
//! idle claims the next morsel, which balances skewed partitions.
//! Results are gathered in (partition, block-range) order, so output is
//! deterministic. The path each plan takes (`serial` or `partitioned`)
//! and the proof that admitted its split are counted in `exec.plans.*`
//! and `exec.split_key.*`.

use crate::column::Batch;
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::exec::physical::{batches_operator, build_operator, drain, ExecContext, Operator};
use crate::exec::scan::pinned_partition;
use crate::exec::simple::{LimitExec, SortExec};
use crate::expr::Expr;
use crate::plan::logical::{LogicalPlan, PrunePredicate};
use crate::storage::Table;
use crate::types::Value;
use obs::metrics as om;
use std::cmp::Ordering;
use std::sync::Arc;

/// Target rows per scheduler morsel: large enough that per-task overhead
/// vanishes, small enough that idle workers can balance a skewed partition.
const MORSEL_ROWS: usize = 65536;

/// One scheduler morsel: a partition, a `[start, end)` block range in it,
/// and the `[start, end)` partition rows those blocks held when the list
/// was built — the rows its scans read, and the rows a placement proof
/// over the blocks' SMAs covers.
#[derive(Clone, Copy)]
struct Morsel {
    partition: usize,
    blocks: (usize, usize),
    rows: (usize, usize),
}

/// A table chosen to split, with the morsel list its placement proof was
/// made on.
struct Split {
    table: Arc<Table>,
    morsels: Vec<Morsel>,
}

impl Split {
    /// Run `task` once per morsel on the scheduler pool, each with a
    /// context whose scans of the split table read only that morsel;
    /// results come back in morsel order.
    fn fork_join<T: Send>(
        &self,
        config: &EngineConfig,
        task: impl Fn(&ExecContext) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let results = sched::global().fork_join(
            sched::TaskClass::Query,
            self.morsels.iter().copied(),
            |m| {
                let table = Arc::clone(&self.table);
                task(&ExecContext::for_morsel(config.vector_size, table, m.partition, Some(m.rows)))
            },
        )?;
        results.into_iter().collect()
    }
}

/// Execute a plan to completion, using partition parallelism when safe.
pub fn execute(plan: &LogicalPlan, config: &EngineConfig) -> Result<Vec<Batch>> {
    let (core, tail) = peel_tail(plan);
    let target = if config.parallelism > 1 { choose_partition_table(core) } else { None };

    let batches = match target {
        Some(split) => {
            om::EXEC_PLANS_PARTITIONED.add(1);
            execute_partitioned(core, &split, config)?
        }
        None => {
            om::EXEC_PLANS_SERIAL.add(1);
            drain(build_operator(core, &ExecContext::new(config.vector_size))?)?
        }
    };
    replay(&tail, batches, config.vector_size)
}

/// Split the top-of-plan `ORDER BY` / `LIMIT` chain off `plan`: the core
/// below it, and the peeled nodes outermost first. A split task's `LIMIT`
/// could truncate the global answer and its `ORDER BY` does not survive
/// the gather, so both run once, over the gathered batches ([`replay`]).
fn peel_tail(plan: &LogicalPlan) -> (&LogicalPlan, Vec<&LogicalPlan>) {
    let mut tail = Vec::new();
    let mut core = plan;
    while let LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } = core {
        tail.push(core);
        core = input;
    }
    (core, tail)
}

/// Run a peeled tail (outermost first) serially over gathered batches.
fn replay(tail: &[&LogicalPlan], batches: Vec<Batch>, vector_size: usize) -> Result<Vec<Batch>> {
    let mut op: Box<dyn Operator> = batches_operator(batches);
    for node in tail.iter().rev() {
        op = match node {
            LogicalPlan::Sort { keys, .. } => {
                Box::new(SortExec::new(op, keys.clone(), vector_size))
            }
            LogicalPlan::Limit { n, .. } => Box::new(LimitExec::new(op, *n)),
            _ => return Err(EngineError::Execution("replayed tail holds a non-tail node".into())),
        };
    }
    drain(op)
}

/// The morsel list for `table`, in (partition, block range) order,
/// covering every block and every row there is now exactly once — of
/// partition `only` alone when a pin names one. Empty partitions
/// contribute nothing. A morsel is a whole partition with
/// `whole_partitions` (the hash-placement proof's list), and otherwise at
/// most [`MORSEL_ROWS`] rows, sized by the table's own block size, which
/// a reopened table keeps whatever the engine config says.
fn build_morsels(table: &Table, whole_partitions: bool, only: Option<usize>) -> Vec<Morsel> {
    let blocks_per_morsel =
        if whole_partitions { usize::MAX } else { (MORSEL_ROWS / table.vector_size()).max(1) };
    table.with_partitions(|parts| {
        let mut morsels = Vec::new();
        for (partition, part) in parts.iter().enumerate() {
            if only.is_some_and(|p| p != partition) {
                continue;
            }
            let blocks = part.block_count();
            let (mut start, mut first_row) = (0, 0);
            while start < blocks {
                let end = start.saturating_add(blocks_per_morsel).min(blocks);
                let end_row = first_row + (start..end).map(|b| part.block_len(b)).sum::<usize>();
                morsels.push(Morsel {
                    partition,
                    blocks: (start, end),
                    rows: (first_row, end_row),
                });
                (start, first_row) = (end, end_row);
            }
        }
        morsels
    })
}

/// Partitioned execution: each morsel drains a private plan copy
/// restricted to its block range; results gather in (partition, range)
/// order.
fn execute_partitioned(
    plan: &LogicalPlan,
    split: &Split,
    config: &EngineConfig,
) -> Result<Vec<Batch>> {
    let results = split.fork_join(config, |ctx| build_operator(plan, ctx).and_then(drain))?;
    Ok(results.into_iter().flatten().collect())
}

/// Pick the table to split: the largest multi-partition scanned table that
/// [`split_safe`] accepts with no placement key, or with one column that is
/// a key of the table's morsel list — declared unique, the table's hash
/// placement key (with one morsel per partition), or with pairwise
/// disjoint morsel SMA ranges ([`sma_disjoint`]). A column is proved only
/// after the plan check accepts it, so a plan that cannot split never reads
/// an SMA. A pin on the table ([`common_pin`]) keeps one partition's
/// morsels.
fn choose_partition_table(plan: &LogicalPlan) -> Option<Split> {
    let mut tables = scanned_tables(plan);
    tables.sort_by_key(|t| std::cmp::Reverse(t.row_count()));
    tables.into_iter().filter(|t| t.partition_count() > 1).find_map(|table| {
        let accepts = |key| split_safe(plan, &table, key).is_some();
        let pin = common_pin(plan, Some(&table));
        let morsels = build_morsels(&table, false, pin);
        let (proof, whole_partitions) = if accepts(None) {
            (&om::EXEC_SPLIT_KEY_NONE, false)
        } else {
            (0..table.schema().len()).filter(|&c| accepts(Some(c))).find_map(|c| {
                if table.is_unique_column(c) {
                    Some((&om::EXEC_SPLIT_KEY_UNIQUE, false))
                } else if table.placement_key() == Some(c) {
                    Some((&om::EXEC_SPLIT_KEY_HASH, true))
                } else {
                    sma_disjoint(&table, &morsels, c).then_some((&om::EXEC_SPLIT_KEY_SMA, false))
                }
            })?
        };
        proof.add(1);
        if pin.is_some() {
            om::EXEC_SCAN_PARTITIONS_PRUNED.add(table.partition_count() as u64 - 1);
        }
        let morsels = if whole_partitions { build_morsels(&table, true, pin) } else { morsels };
        Some(Split { table, morsels })
    })
}

/// The partition every scan of a hash-placed table in `plan` — of `only`,
/// when given — is pinned to by `key = literal` ([`pinned_partition`]):
/// `None` unless there is such a scan and all name one partition.
pub fn common_pin(plan: &LogicalPlan, only: Option<&Arc<Table>>) -> Option<usize> {
    let mut all = Vec::new();
    collect_scans(plan, &mut all);
    let mut pins = all
        .into_iter()
        .filter(|(t, _)| t.placement_key().is_some() && only.is_none_or(|o| Arc::ptr_eq(o, t)))
        .map(|(t, pruning)| pinned_partition(t, pruning));
    let first = pins.next()??;
    pins.all(|p| p == Some(first)).then_some(first)
}

/// Are the morsels' SMA `[min, max]` ranges for column `c` pairwise
/// disjoint? Then all rows holding one value of `c` lie in one morsel.
/// Reads block metadata only. Floats compare with IEEE `<`, so ranges
/// meeting at `-0.0`/`0.0` (one key to the hash operators) or holding NaN
/// never count as apart. A morsel past the table's blocks (a concurrent
/// rollback) fails the proof.
fn sma_disjoint(table: &Table, morsels: &[Morsel], c: usize) -> bool {
    let ranges = table.with_partitions(|parts| {
        morsels
            .iter()
            .map(|m| {
                let (start, end) = m.blocks;
                let part = parts.get(m.partition).filter(|part| end <= part.block_count())?;
                let (mut lo, mut hi) = part.sma(c, start);
                for b in start + 1..end {
                    let (min, max) = part.sma(c, b);
                    if min.total_cmp(lo) == Ordering::Less {
                        lo = min;
                    }
                    if max.total_cmp(hi) == Ordering::Greater {
                        hi = max;
                    }
                }
                Some((lo.clone(), hi.clone()))
            })
            .collect::<Option<Vec<(Value, Value)>>>()
    });
    let Some(mut ranges) = ranges else { return false };
    ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranges.windows(2).all(|w| match (&w[0].1, &w[1].0) {
        (Value::Float(hi), Value::Float(lo)) => hi < lo,
        (hi, lo) => hi.total_cmp(lo) == Ordering::Less,
    })
}

/// The distinct tables `plan` scans (by identity), in first-scan order.
fn scanned_tables(plan: &LogicalPlan) -> Vec<Arc<Table>> {
    let mut scans = Vec::new();
    collect_scans(plan, &mut scans);
    let mut tables: Vec<Arc<Table>> = Vec::new();
    for (t, _) in scans {
        if !tables.iter().any(|u| Arc::ptr_eq(u, t)) {
            tables.push(Arc::clone(t));
        }
    }
    tables
}

/// Append every scan of `plan` to `out` with its pruning predicates (one
/// entry per scan, so a table referenced twice appears twice), in
/// left-to-right order — the order that numbers the scan instances of
/// [`column_source`].
fn collect_scans<'p>(plan: &'p LogicalPlan, out: &mut Vec<(&'p Arc<Table>, &'p [PrunePredicate])>) {
    match plan {
        LogicalPlan::Scan { table, pruning, .. } => out.push((table, pruning)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Infer { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => collect_scans(input, out),
        LogicalPlan::CrossJoin { left, right, .. } | LogicalPlan::HashJoin { left, right, .. } => {
            collect_scans(left, out);
            collect_scans(right, out);
        }
        LogicalPlan::Values { .. } => {}
    }
}

/// Does running `plan` once per slice of `table` — every other table
/// read whole by every task — and concatenating the outputs give the rows
/// of one run over all the data? `key` is the split's placement key, a
/// column whose equal values always share a slice: a key of the morsel
/// list (see the module doc). `None` says placement is arbitrary.
///
/// `Some(reads_split)` when safe — `reads_split` says whether `plan` scans
/// `table` at all — and `None` when not:
/// * a `LIMIT` would apply once per slice;
/// * an aggregation over split rows must group on the placement key or a
///   declared-unique column of `table`, so no group spans slices; one over
///   a subtree that does not scan `table` is computed whole by every task;
/// * a join of two split subtrees must carry an equi-key pair that traces
///   to the placement key on both sides, so matching rows share a slice —
///   without keys no join qualifies, and a cross join never does.
fn split_safe(plan: &LogicalPlan, table: &Arc<Table>, key: Option<usize>) -> Option<bool> {
    // Does `expr` over `side` pass through the placement key (or, with
    // `unique`, a declared-unique column) of `table`?
    let traces = |side: &LogicalPlan, expr: &Expr, unique: bool| match expr {
        Expr::Column(i) => matches!(
            column_source(side, *i),
            Some((_, t, c)) if Arc::ptr_eq(table, &t)
                && (key == Some(c) || unique && t.is_unique_column(c))
        ),
        _ => false,
    };
    let safe = |input: &LogicalPlan| split_safe(input, table, key);
    match plan {
        LogicalPlan::Scan { table: t, .. } => Some(Arc::ptr_eq(t, table)),
        LogicalPlan::Values { .. } => Some(false),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Infer { input, .. }
        | LogicalPlan::Sort { input, .. } => safe(input),
        LogicalPlan::Limit { .. } => None,
        LogicalPlan::Aggregate { input, group, .. } => {
            if !safe(input)? {
                return Some(false);
            }
            group.iter().any(|g| traces(input, g, true)).then_some(true)
        }
        LogicalPlan::CrossJoin { left, right, .. } => {
            let (l, r) = (safe(left)?, safe(right)?);
            (!(l && r)).then_some(l || r)
        }
        LogicalPlan::HashJoin { left, right, left_keys, right_keys, .. } => {
            let (l, r) = (safe(left)?, safe(right)?);
            let aligned = || {
                left_keys
                    .iter()
                    .zip(right_keys)
                    .any(|(lk, rk)| traces(left, lk, false) && traces(right, rk, false))
            };
            (!(l && r) || aligned()).then_some(l || r)
        }
    }
}

/// Trace output column `idx` of `plan` back to a base table column, if the
/// lineage is a pure passthrough: `(scan, table, column)`, where `scan`
/// numbers the scan instance within `plan` in [`collect_scan_tables`]
/// order, so the two sides of a self-join stay apart.
fn column_source(plan: &LogicalPlan, idx: usize) -> Option<(usize, Arc<Table>, usize)> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some((0, Arc::clone(table), idx)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => column_source(input, idx),
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(idx)? {
            Expr::Column(i) => column_source(input, *i),
            _ => None,
        },
        LogicalPlan::Infer { input, .. } if idx < input.schema().len() => column_source(input, idx),
        LogicalPlan::Infer { .. } => None,
        LogicalPlan::CrossJoin { left, right, .. } | LogicalPlan::HashJoin { left, right, .. } => {
            let nleft = left.schema().len();
            if idx < nleft {
                column_source(left, idx)
            } else {
                let (s, t, c) = column_source(right, idx - nleft)?;
                let mut left_scans = Vec::new();
                collect_scans(left, &mut left_scans);
                Some((s + left_scans.len(), t, c))
            }
        }
        LogicalPlan::Aggregate { input, group, .. } => match group.get(idx)? {
            Expr::Column(i) => column_source(input, *i),
            _ => None,
        },
        LogicalPlan::Values { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::column::ColumnVector;
    use crate::plan::binder::Binder;
    use crate::plan::optimizer::optimize;
    use crate::sql::{parse_statement, Statement};
    use crate::storage::{ColumnDef, Schema};
    use crate::types::{DataType, Value};

    fn setup(config: &EngineConfig) -> Catalog {
        let cat = Catalog::new();
        let facts = cat
            .create_table(
                "facts",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Float),
                ])
                .unwrap(),
                config,
            )
            .unwrap();
        let n = 50i64;
        facts
            .append(vec![
                ColumnVector::Int((0..n).collect()),
                ColumnVector::Float((0..n).map(|i| i as f64 * 0.5).collect()),
            ])
            .unwrap();
        facts.declare_unique("id").unwrap();
        cat
    }

    fn plan(sql: &str, cat: &Catalog) -> LogicalPlan {
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!("{sql}") };
        optimize(Binder::new(cat).bind_select(&s).unwrap())
    }

    /// Whether no split admits `sql`'s plan, so it runs serially.
    fn runs_serially(sql: &str, cat: &Catalog) -> bool {
        choose_partition_table(peel_tail(&plan(sql, cat)).0).is_none()
    }

    fn run(sql: &str, config: &EngineConfig, cat: &Catalog) -> Vec<Vec<Value>> {
        let batches = execute(&plan(sql, cat), config).unwrap();
        let mut rows = Vec::new();
        for b in batches {
            for r in 0..b.num_rows() {
                rows.push(b.row(r));
            }
        }
        rows
    }

    #[test]
    fn parallel_and_serial_agree_on_grouped_aggregate() {
        let par =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let ser =
            EngineConfig { vector_size: 8, partitions: 1, parallelism: 1, ..Default::default() };
        let sql = "SELECT id, SUM(v) AS s FROM facts GROUP BY id ORDER BY id";
        let a = run(sql, &par, &setup(&par));
        let b = run(sql, &ser, &setup(&ser));
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn order_by_is_applied_after_gather() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let rows = run("SELECT id FROM facts ORDER BY id DESC LIMIT 3", &cfg, &setup(&cfg));
        assert_eq!(rows, vec![vec![Value::Int(49)], vec![Value::Int(48)], vec![Value::Int(47)]]);
    }

    #[test]
    fn a_group_key_spanning_morsels_runs_serially_and_stays_correct() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let cat = setup(&cfg);
        // Group key id % 5 spans partitions: no split is safe, so the one
        // hash aggregate runs over every partition on the calling thread.
        let sql = "SELECT id % 5 AS g, COUNT(*) AS n FROM facts GROUP BY id % 5 ORDER BY 1";
        assert!(runs_serially(sql, &cat));
        let rows = run(sql, &cfg, &cat);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[1] == Value::Int(10)));
    }

    #[test]
    fn a_group_key_spanning_morsels_matches_serial_across_agg_functions() {
        let par =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let ser =
            EngineConfig { vector_size: 8, partitions: 1, parallelism: 1, ..Default::default() };
        // v = 0.5 * id is exact in binary, so even SUM/AVG agree bitwise.
        let sql = "SELECT id % 3 AS g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, \
                   MAX(v) AS hi, AVG(v) AS m FROM facts GROUP BY id % 3 ORDER BY 1";
        let cat = setup(&par);
        assert!(runs_serially(sql, &cat));
        let a = run(sql, &par, &cat);
        let b = run(sql, &ser, &setup(&ser));
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn global_aggregate_runs_serially_and_matches_one_partition() {
        let par =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let ser =
            EngineConfig { vector_size: 8, partitions: 1, parallelism: 1, ..Default::default() };
        let sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM facts";
        let cat = setup(&par);
        assert!(runs_serially(sql, &cat));
        let a = run(sql, &par, &cat);
        let b = run(sql, &ser, &setup(&ser));
        assert_eq!(a, b);
        assert_eq!(a[0][0], Value::Int(50));
    }

    #[test]
    fn self_join_on_a_unique_key_splits_and_matches_serial() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let cat = setup(&cfg);
        // Both sides of the self join read the same morsel, and the one
        // row with a given declared-unique id lies in exactly one morsel.
        let sql =
            "SELECT a.id, b.v FROM facts a, facts b WHERE a.id = b.id AND a.id < 5 ORDER BY 1";
        assert!(!runs_serially(sql, &cat));
        let rows = run(sql, &cfg, &cat);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows, run(sql, &EngineConfig { parallelism: 1, ..cfg }, &cat));
    }

    #[test]
    fn morsels_follow_the_table_block_size_not_the_engine_vector_size() {
        // The table keeps 16-row blocks, as a table reopened under another
        // vector size keeps its stored layout; the query runs at 1024.
        let blocks16 = EngineConfig { vector_size: 16, partitions: 2, ..Default::default() };
        let cat = Catalog::new();
        let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap();
        let t = cat.create_table("t", schema, &blocks16).unwrap();
        let rows = 4 * MORSEL_ROWS as i64;
        t.append(vec![ColumnVector::Int((0..rows).collect())]).unwrap();
        let cfg = EngineConfig { vector_size: 1024, partitions: 2, ..Default::default() };
        let sql = "SELECT id FROM t";
        let split = choose_partition_table(&plan(sql, &cat)).expect("a plain scan splits");
        // 2 partitions x 2 * MORSEL_ROWS rows: two full morsels each.
        assert_eq!(split.morsels.len(), 4);
        t.with_partitions(|parts| {
            for m in &split.morsels {
                let blocks = &parts[m.partition].columns()[0][m.blocks.0..m.blocks.1];
                assert_eq!(blocks.iter().map(|b| b.len()).sum::<usize>(), MORSEL_ROWS);
                assert_eq!(m.rows.1 - m.rows.0, MORSEL_ROWS);
            }
        });
        assert_eq!(run(sql, &cfg, &cat).len(), rows as usize);
    }

    #[test]
    fn a_proven_split_stays_proven_when_an_append_tops_up_a_morsel() {
        // One short 8-row block per partition: c = 0..5 in partition 0 and
        // c = 100..105 in partition 1. The two morsels' SMA ranges on `c`
        // are disjoint, so `GROUP BY c` splits on `c`.
        let cfg =
            EngineConfig { vector_size: 8, partitions: 2, parallelism: 2, ..Default::default() };
        let engine = crate::Engine::new(cfg.clone());
        engine.execute("CREATE TABLE t (c INT)").unwrap();
        for base in [0, 100] {
            engine
                .insert_columns("t", vec![ColumnVector::Int((base..base + 5).collect())])
                .unwrap();
        }
        let t = engine.table("t").unwrap();
        let sorted = |batches: Vec<Batch>| {
            let mut rows: Vec<Vec<Value>> =
                batches.iter().flat_map(|b| (0..b.num_rows()).map(|r| b.row(r))).collect();
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            rows
        };
        let group = engine.plan("SELECT c, COUNT(*) AS n FROM t GROUP BY c").unwrap();
        let scan = engine.plan("SELECT c FROM t").unwrap();
        assert!(!t.is_unique_column(0) && split_safe(&group, &t, None).is_none());
        let split = choose_partition_table(&group).expect("c is SMA-disjoint across the morsels");
        let morsel_rows = |split: &Split| {
            let rows = split.fork_join(&cfg, |ctx| build_operator(&scan, ctx).and_then(drain));
            rows.unwrap().into_iter().map(sorted).collect::<Vec<_>>()
        };
        let captured = morsel_rows(&split);
        let serial =
            sorted(execute(&group, &EngineConfig { parallelism: 1, ..cfg.clone() }).unwrap());
        assert_eq!(serial.len(), 10);

        // The next append tops up partition 0's block with values inside
        // partition 1's range.
        engine.insert_columns("t", vec![ColumnVector::Int(vec![100, 101, 102])]).unwrap();
        t.with_partitions(|parts| {
            assert_eq!((parts[0].block_count(), parts[0].rows()), (1, 8), "topped up in place");
        });
        assert_eq!(morsel_rows(&split), captured, "each morsel reads the rows it was built on");
        assert_eq!(sorted(execute_partitioned(&group, &split, &cfg).unwrap()), serial);
    }

    #[test]
    fn partition_key_rules() {
        // One 8-row block per partition, so one morsel per block. `x` is
        // the row number and `y = x + 8`: each is SMA-disjoint across
        // morsels, but `x = y` matches rows one morsel apart. `z = x % 8`
        // spans 0..=7 in every morsel. `f` is -7..=-0.0 in one morsel and
        // 0.0..=7 in the other: disjoint under `total_cmp`, yet `-0.0`
        // and `0.0` are one join key.
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let engine = crate::Engine::new(cfg.clone());
        engine.execute("CREATE TABLE t (x INT, y INT, z INT)").unwrap();
        engine
            .insert_columns(
                "t",
                vec![
                    ColumnVector::Int((0..32).collect()),
                    ColumnVector::Int((8..40).collect()),
                    ColumnVector::Int((0..32).map(|x| x % 8).collect()),
                ],
            )
            .unwrap();
        engine.execute("CREATE TABLE u (f FLOAT)").unwrap();
        let f =
            (-7..=7).map(f64::from).flat_map(|v| if v == 0.0 { vec![-0.0, 0.0] } else { vec![v] });
        engine.insert_columns("u", vec![ColumnVector::Float(f.collect())]).unwrap();
        // (case, statement, whether it splits, rows in the answer)
        let cases = [
            (
                "self-join on an SMA-disjoint column",
                "SELECT a.z, b.z FROM t a, t b WHERE a.x = b.x",
                true,
                32,
            ),
            (
                "self-join on overlapping morsel ranges",
                "SELECT a.x, b.x FROM t a, t b WHERE a.z = b.z",
                false,
                8 * 4 * 4,
            ),
            (
                "join of two disjoint columns",
                "SELECT a.x, b.x FROM t a, t b WHERE a.x = b.y",
                false,
                24,
            ),
            (
                "ranges meeting at -0.0 and 0.0",
                "SELECT a.f, b.f FROM u a, u b WHERE a.f = b.f",
                false,
                14 + 2 * 2,
            ),
        ];
        let sorted_rows = |batches: Vec<Batch>| {
            let mut rows: Vec<String> = batches
                .iter()
                .flat_map(|b| (0..b.num_rows()).map(move |r| format!("{:?}", b.row(r))))
                .collect();
            rows.sort();
            rows
        };
        let serial = EngineConfig { parallelism: 1, ..cfg.clone() };
        for (case, sql, splits, rows) in cases {
            let plan = engine.plan(sql).unwrap();
            let chosen = choose_partition_table(peel_tail(&plan).0);
            assert_eq!(chosen.is_some(), splits, "{case}: {sql}");
            // A wrong split would drop the matches that cross morsels.
            let want = sorted_rows(execute(&plan, &serial).unwrap());
            assert_eq!(want.len(), rows, "{case}: {sql}");
            assert_eq!(sorted_rows(execute(&plan, &cfg).unwrap()), want, "{case}: {sql}");
        }
    }

    #[test]
    fn hash_placement_splits_on_its_key_one_morsel_per_partition() {
        // `k` is neither unique nor SMA-disjoint (keys interleave in every
        // block), so only the placement proof admits these splits. Each
        // partition holds more than MORSEL_ROWS rows, so a split on the key
        // with the usual morsels would cut a key's rows apart. A pin keeps
        // its partition's morsel.
        let cfg = EngineConfig { partitions: 2, parallelism: 2, ..Default::default() };
        let engine = crate::Engine::new(cfg.clone());
        engine.execute("CREATE TABLE t (k INT, v FLOAT)").unwrap();
        let t = engine.table("t").unwrap();
        t.declare_placement_key("k").unwrap();
        let n = 2 * MORSEL_ROWS as i64 + 8_000;
        let ks: Vec<i64> = (0..n).map(|i| i % 50_000).collect();
        let vs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        engine.insert_columns("t", vec![ColumnVector::Int(ks), ColumnVector::Float(vs)]).unwrap();
        assert!(t.snapshot().iter().all(|&rows| rows > MORSEL_ROWS));
        let sorted = |batches: Vec<Batch>| {
            let mut rows: Vec<String> = batches
                .iter()
                .flat_map(|b| (0..b.num_rows()).map(move |r| format!("{:?}", b.row(r))))
                .collect();
            rows.sort();
            rows
        };
        let serial = EngineConfig { parallelism: 1, ..cfg.clone() };
        let owner = (crate::exec::hash::hash_value(&Value::Int(5)) % 2) as usize;
        for (sql, parts) in [
            ("SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k", vec![0, 1]),
            ("SELECT a.k, a.v, b.v FROM t a, t b WHERE a.k = b.k AND a.k < 500", vec![0, 1]),
            ("SELECT k, SUM(v) AS s FROM t WHERE k = 5 GROUP BY k", vec![owner]),
        ] {
            let plan = engine.plan(sql).unwrap();
            let split = choose_partition_table(&plan).expect("the placement key admits a split");
            let ran: Vec<usize> = split.morsels.iter().map(|m| m.partition).collect();
            assert_eq!(ran, parts, "{sql}: one whole-partition morsel each");
            let want = sorted(execute(&plan, &serial).unwrap());
            assert!(!want.is_empty(), "{sql}");
            assert_eq!(sorted(execute(&plan, &cfg).unwrap()), want, "{sql}");
        }
    }

    // Sums of non-dyadic floats (0.1 steps do not sum associatively in
    // binary) grouped on a key that spans morsels: the serial hash
    // aggregate folds in partition order, so repeated runs of the same
    // query produce bit-identical floats.
    #[test]
    fn repeated_runs_of_an_aggregate_spanning_morsels_are_bit_identical() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let cat = Catalog::new();
        let facts = cat
            .create_table(
                "facts",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Float),
                ])
                .unwrap(),
                &cfg,
            )
            .unwrap();
        let n = 200i64;
        facts
            .append(vec![
                ColumnVector::Int((0..n).collect()),
                ColumnVector::Float((0..n).map(|i| i as f64 * 0.1).collect()),
            ])
            .unwrap();
        facts.declare_unique("id").unwrap();
        let sql = "SELECT id % 7 AS g, SUM(v) AS s, AVG(v) AS m FROM facts \
                   GROUP BY id % 7 ORDER BY 1";
        // Compare raw float bit patterns, not `==` (which would let
        // -0.0 == 0.0 slip through the bit-identity claim).
        let bits = |rows: &Vec<Vec<Value>>| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| {
                    r.iter()
                        .map(|v| match v {
                            Value::Float(f) => f.to_bits(),
                            Value::Int(i) => *i as u64,
                            other => panic!("unexpected value {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        assert!(runs_serially(sql, &cat));
        let first = bits(&run(sql, &cfg, &cat));
        for _ in 0..11 {
            let again = bits(&run(sql, &cfg, &cat));
            assert_eq!(first, again, "the aggregate must fold in partition order");
        }
    }

    #[test]
    fn lineage_through_projection() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let cat = setup(&cfg);
        // id flows through a subquery projection into the GROUP BY: still
        // parallel-safe, and correct either way.
        let rows = run(
            "SELECT key, SUM(val) FROM \
             (SELECT id AS key, v * 2 AS val FROM facts) AS q \
             GROUP BY key ORDER BY key LIMIT 2",
            &cfg,
            &cat,
        );
        assert_eq!(rows[0], vec![Value::Int(0), Value::Float(0.0)]);
        assert_eq!(rows[1], vec![Value::Int(1), Value::Float(1.0)]);
    }

    /// An engine holding `facts` (`id` declared unique) and `dims`, both
    /// `(id INT, grp INT, x FLOAT)` with `grp = id % 5` and `x = id / 4`
    /// (dyadic, so sums are exact in any order), and `rows` rows each.
    fn two_tables(config: EngineConfig, rows: [i64; 2]) -> crate::Engine {
        let engine = crate::Engine::new(config);
        for (table, n) in [("facts", rows[0]), ("dims", rows[1])] {
            engine.execute(&format!("CREATE TABLE {table} (id INT, grp INT, x FLOAT)")).unwrap();
            engine
                .insert_columns(
                    table,
                    vec![
                        ColumnVector::Int((0..n).collect()),
                        ColumnVector::Int((0..n).map(|i| i % 5).collect()),
                        ColumnVector::Float((0..n).map(|i| i as f64 * 0.25).collect()),
                    ],
                )
                .unwrap();
        }
        engine.table("facts").unwrap().declare_unique("id").unwrap();
        engine
    }

    #[test]
    fn split_safety_rules() {
        let engine = two_tables(EngineConfig::default(), [0, 0]);
        let facts = engine.table("facts").unwrap();
        let cat = engine.catalog();
        let plan = |sql: &str| {
            let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!("{sql}") };
            optimize(Binder::new(cat).bind_select(&s).unwrap())
        };
        // facts split with no placement key, or placed by `grp` (column 1).
        let cases = [
            (
                "grouped on a unique column",
                None,
                "SELECT id, SUM(x) AS s FROM facts GROUP BY id",
                true,
            ),
            (
                "grouped on a non-unique column",
                None,
                "SELECT grp, SUM(x) AS s FROM facts GROUP BY grp",
                false,
            ),
            (
                "grouped on the placement key",
                Some(1),
                "SELECT grp, SUM(x) AS s FROM facts GROUP BY grp",
                true,
            ),
            (
                "self-join on the placement key",
                Some(1),
                "SELECT a.x, b.x FROM facts AS a, facts AS b WHERE a.grp = b.grp",
                true,
            ),
            (
                "self-join on a unique column that is not the placement key",
                Some(1),
                "SELECT a.x, b.x FROM facts AS a, facts AS b WHERE a.id = b.id",
                false,
            ),
            ("cross self-join", Some(1), "SELECT a.x, b.x FROM facts AS a, facts AS b", false),
            (
                "interior LIMIT",
                None,
                "SELECT q.id FROM (SELECT id FROM facts LIMIT 3) AS q WHERE q.id > 0",
                false,
            ),
            (
                "aggregate over a subtree that scans no split table",
                None,
                "SELECT f.id, g.n FROM facts AS f, \
                 (SELECT grp, COUNT(*) AS n FROM dims GROUP BY grp) AS g WHERE f.grp = g.grp",
                true,
            ),
        ];
        for (case, key, sql, safe) in cases {
            assert_eq!(split_safe(&plan(sql), &facts, key).is_some(), safe, "{case}: {sql}");
        }
    }

    #[test]
    fn join_to_an_aggregate_over_an_unsplit_table_runs_partitioned_and_matches_serial() {
        let sql = "SELECT f.id, g.n, g.s FROM facts AS f, \
                   (SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM dims GROUP BY grp) AS g \
                   WHERE f.grp = g.grp ORDER BY f.id";
        let par =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let results: Vec<Vec<Vec<Value>>> = [par, EngineConfig::serial()]
            .into_iter()
            .map(|cfg| {
                let engine = two_tables(cfg, [40, 10]);
                if engine.config().parallelism > 1 {
                    let plan = engine.plan(sql).unwrap();
                    let chosen = choose_partition_table(peel_tail(&plan).0);
                    let chosen = chosen.map(|split| split.table.name().to_string());
                    assert_eq!(chosen.as_deref(), Some("facts"));
                }
                engine.execute(sql).unwrap().rows()
            })
            .collect();
        assert_eq!(results[0].len(), 40);
        assert_eq!(results[0], results[1]);
    }
}
