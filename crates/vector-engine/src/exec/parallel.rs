//! Partition-parallel plan execution, and the split planner it shares with
//! the sharded facade (`crates/shard`).
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
//!   morsel.
//!
//! The plan check runs first and the proof only for a column it accepts,
//! so a statement that cannot split never reads an SMA. A proof holds for
//! the morsel list it was made on, so execution runs exactly that list.
//!
//! [`split_safe`] is the one split rule of the workspace. The shard planner
//! calls it one level up, with every sharded table and its shard key as
//! the placement key.
//!
//! When the top-level node is an aggregation whose *group key does not*
//! satisfy the rule but whose input is otherwise partition-safe, the
//! driver falls back to a **partial-aggregate** plan instead of serial
//! execution: each morsel folds into a typed [`GroupedAggState`]
//! ([`absorb`]) and the partials are merged in morsel order
//! ([`merge_partials`]) — the classic local/global aggregation split,
//! enabled by the vectorized accumulators. The shard level's partial
//! aggregate uses the same two helpers. Group order stays deterministic
//! (first seen in morsel order); floating-point sums may differ from
//! serial execution in the last bits because partials reassociate the
//! additions.
//!
//! Top-level `ORDER BY` / `LIMIT` are peeled off ([`peel_tail`]) and
//! replayed serially over the gathered morsel results ([`replay`]).
//!
//! The unit of parallelism is the **morsel** — a block range within one
//! partition, at most [`MORSEL_ROWS`] rows — submitted as Query-class
//! tasks to the process-wide work-stealing pool in `crates/sched`. The
//! driving thread cooperatively runs its own morsels while waiting, so
//! queries never spawn threads, and stealing balances skewed partitions.
//! Results (and partial-aggregate merges) are gathered in (partition,
//! block-range) order, so output is deterministic. The path each plan
//! takes and the proof that admitted its split are counted in
//! `exec.plans.*` and `exec.split_key.*`.

use crate::column::Batch;
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::exec::agg::{GroupedAggState, HashAggExec};
use crate::exec::physical::{batches_operator, build_operator, drain, ExecContext, Operator};
use crate::exec::simple::{FilterExec, LimitExec, ProjectExec, SortExec};
use crate::expr::Expr;
use crate::plan::logical::{AggSpec, LogicalPlan};
use crate::storage::Table;
use crate::types::{DataType, Value};
use obs::metrics as om;
use std::cmp::Ordering;
use std::sync::Arc;

/// Target rows per scheduler morsel: large enough that per-task overhead
/// vanishes, small enough that stealing can balance a skewed partition.
const MORSEL_ROWS: usize = 65536;

/// One scheduler morsel: a partition and a `[start, end)` block range in it.
type Morsel = (usize, (usize, usize));

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
            |(p, range)| {
                let table = Arc::clone(&self.table);
                task(&ExecContext::for_morsel(config.vector_size, table, p, Some(range)))
            },
        )?;
        results.into_iter().collect()
    }
}

/// Execute a plan to completion, using partition parallelism when safe.
pub fn execute(plan: &LogicalPlan, config: &EngineConfig) -> Result<Vec<Batch>> {
    // Grow-only and cheap when already satisfied; direct callers (tests,
    // benches) get a sized pool without an Engine.
    sched::configure_workers(config.effective_worker_threads());
    let (core, tail) = peel_tail(plan);
    let target = if config.parallelism > 1 { choose_partition_table(core) } else { None };

    let batches = match target {
        Some(split) => {
            om::EXEC_PLANS_PARTITIONED.add(1);
            execute_partitioned(core, &split, config)?
        }
        None => match partial_agg_target(core, config) {
            Some((split, input, group, aggs, types)) => {
                om::EXEC_PLANS_PARTIAL_AGG.add(1);
                execute_partial_agg(input, group, aggs, &types, &split, config)?
            }
            None => {
                om::EXEC_PLANS_SERIAL.add(1);
                drain(build_operator(core, &ExecContext::new(config.vector_size))?)?
            }
        },
    };
    replay(&tail, batches, config.vector_size)
}

/// Split the top-of-plan `ORDER BY` / `LIMIT` chain off `plan`: the core
/// below it, and the peeled nodes outermost first. A split task's `LIMIT`
/// could truncate the global answer and its `ORDER BY` does not survive
/// the gather, so both run once, over the gathered batches ([`replay`]).
pub fn peel_tail(plan: &LogicalPlan) -> (&LogicalPlan, Vec<&LogicalPlan>) {
    let mut tail = Vec::new();
    let mut core = plan;
    while let LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } = core {
        tail.push(core);
        core = input;
    }
    (core, tail)
}

/// Run a chain of unary plan nodes (outermost first) serially over
/// gathered batches: a peeled tail, or the shard planner's upper chain.
pub fn replay(
    chain: &[&LogicalPlan],
    batches: Vec<Batch>,
    vector_size: usize,
) -> Result<Vec<Batch>> {
    let mut op: Box<dyn Operator> = batches_operator(batches);
    for node in chain.iter().rev() {
        op = match node {
            LogicalPlan::Filter { predicate, .. } => {
                Box::new(FilterExec::new(op, predicate.clone()))
            }
            LogicalPlan::Project { exprs, .. } => Box::new(ProjectExec::new(op, exprs.clone())),
            LogicalPlan::Sort { keys, .. } => {
                Box::new(SortExec::new(op, keys.clone(), vector_size))
            }
            LogicalPlan::Limit { n, .. } => Box::new(LimitExec::new(op, *n)),
            LogicalPlan::Aggregate { group, aggs, schema, .. } => Box::new(HashAggExec::new(
                op,
                group.clone(),
                aggs.clone(),
                schema.types(),
                vector_size,
            )),
            _ => {
                return Err(EngineError::Execution("replayed chain holds a non-unary node".into()))
            }
        };
    }
    drain(op)
}

/// The morsel list for `table`: `(partition, [start, end) block range)`
/// entries in (partition, range) order, covering every block exactly once.
/// Empty partitions contribute nothing. Sized by the table's own block
/// size, which a reopened table keeps whatever the engine config says.
fn build_morsels(table: &Table) -> Vec<Morsel> {
    let blocks_per_morsel = (MORSEL_ROWS / table.vector_size()).max(1);
    table.with_partitions(|parts| {
        let mut morsels = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let blocks = part.block_count();
            let mut start = 0;
            while start < blocks {
                let end = (start + blocks_per_morsel).min(blocks);
                morsels.push((p, (start, end)));
                start = end;
            }
        }
        morsels
    })
}

/// If `core` is an aggregation that the split rule rejects but whose input
/// alone can split, pick the partial-aggregate plan: the split plus the
/// aggregation pieces.
#[allow(clippy::type_complexity)]
fn partial_agg_target<'p>(
    core: &'p LogicalPlan,
    config: &EngineConfig,
) -> Option<(Split, &'p LogicalPlan, &'p [Expr], &'p [AggSpec], Vec<DataType>)> {
    if config.parallelism <= 1 {
        return None;
    }
    let LogicalPlan::Aggregate { input, group, aggs, schema } = core else {
        return None;
    };
    let split = choose_partition_table(input)?;
    Some((split, input, group, aggs, schema.types()))
}

/// Run `input` once per morsel, folding each morsel into a typed
/// [`GroupedAggState`]; merge the partials in morsel order and finalize.
fn execute_partial_agg(
    input: &LogicalPlan,
    group: &[Expr],
    aggs: &[AggSpec],
    output_types: &[DataType],
    split: &Split,
    config: &EngineConfig,
) -> Result<Vec<Batch>> {
    let agg_types = &output_types[group.len()..];
    let states = split
        .fork_join(config, |ctx| absorb(build_operator(input, ctx)?, group, aggs, agg_types))?;
    let result = merge_partials(states, group.len(), aggs, output_types)?;

    let mut out = Vec::new();
    let (rows, step) = (result.num_rows(), config.vector_size.max(1));
    let mut off = 0;
    while off < rows {
        let end = (off + step).min(rows);
        out.push(result.slice(off, end));
        off = end;
    }
    Ok(out)
}

/// Fold every batch `op` yields into a fresh partial aggregate state: the
/// per-task half of a partial aggregate, over one morsel or one shard.
pub fn absorb(
    mut op: Box<dyn Operator>,
    group: &[Expr],
    aggs: &[AggSpec],
    agg_types: &[DataType],
) -> Result<GroupedAggState> {
    op.open()?;
    let mut state = GroupedAggState::new(aggs, agg_types);
    while let Some(batch) = op.next()? {
        if batch.num_rows() > 0 {
            state.absorb_batch(&batch, group, aggs)?;
        }
    }
    op.close();
    Ok(state)
}

/// Merge partial states in index order and finalize them into one batch
/// of `ngroup` group columns then the aggregates. The fixed order keeps
/// group order and float sums identical from run to run.
pub fn merge_partials(
    states: Vec<GroupedAggState>,
    ngroup: usize,
    aggs: &[AggSpec],
    output_types: &[DataType],
) -> Result<Batch> {
    let mut merged = GroupedAggState::new(aggs, &output_types[ngroup..]);
    for state in states {
        merged.merge(state)?;
    }
    merged.finalize(ngroup, output_types)
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
/// a key of the table's morsel list — declared unique, or with pairwise
/// disjoint morsel SMA ranges ([`sma_disjoint`]). A column is proved only
/// after the plan check accepts it, so a plan that cannot split never reads
/// an SMA.
fn choose_partition_table(plan: &LogicalPlan) -> Option<Split> {
    let mut tables = scanned_tables(plan);
    tables.sort_by_key(|t| std::cmp::Reverse(t.row_count()));
    tables.into_iter().filter(|t| t.partition_count() > 1).find_map(|table| {
        let accepts = |key| split_safe(plan, &[(Arc::clone(&table), key)]).is_some();
        let morsels = build_morsels(&table);
        let proof = if accepts(None) {
            &om::EXEC_SPLIT_KEY_NONE
        } else {
            (0..table.schema().len()).filter(|&c| accepts(Some(c))).find_map(|c| {
                if table.is_unique_column(c) {
                    Some(&om::EXEC_SPLIT_KEY_UNIQUE)
                } else {
                    sma_disjoint(&table, &morsels, c).then_some(&om::EXEC_SPLIT_KEY_SMA)
                }
            })?
        };
        proof.add(1);
        Some(Split { table, morsels })
    })
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
            .map(|&(p, (start, end))| {
                let part = parts.get(p).filter(|part| end <= part.block_count())?;
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
pub fn scanned_tables(plan: &LogicalPlan) -> Vec<Arc<Table>> {
    let mut scans = Vec::new();
    collect_scan_tables(plan, &mut scans);
    let mut tables: Vec<Arc<Table>> = Vec::new();
    for t in scans {
        if !tables.iter().any(|u| Arc::ptr_eq(u, &t)) {
            tables.push(t);
        }
    }
    tables
}

/// Append every base table scanned by `plan` to `out` (one entry per scan,
/// so a table referenced twice appears twice), in left-to-right order —
/// the order that numbers the scan instances of [`column_source`].
pub fn collect_scan_tables(plan: &LogicalPlan, out: &mut Vec<Arc<Table>>) {
    match plan {
        LogicalPlan::Scan { table, .. } => out.push(Arc::clone(table)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => collect_scan_tables(input, out),
        LogicalPlan::CrossJoin { left, right, .. } | LogicalPlan::HashJoin { left, right, .. } => {
            collect_scan_tables(left, out);
            collect_scan_tables(right, out);
        }
        LogicalPlan::Values { .. } => {}
    }
}

/// Does running `plan` once per slice of the split tables — every other
/// table read whole by every task — and concatenating the outputs give
/// the rows of one run over all the data? `split` lists each split table
/// (by identity) with its placement key, a column whose equal values
/// always share a slice: the shard key, whose hash picks a row's shard, or
/// a key of the partition level's morsel list (see the module doc). `None`
/// says placement is arbitrary.
///
/// `Some(reads_split)` when safe — `reads_split` says whether `plan` scans
/// a split table at all — and `None` when not:
/// * a `LIMIT` would apply once per slice;
/// * an aggregation over split rows must group on a placement key or a
///   declared-unique column of a split table, so no group spans slices;
///   one over a subtree that scans no split table is computed whole by
///   every task;
/// * a join of two split subtrees must carry an equi-key pair that traces
///   to placement keys on both sides, so matching rows share a slice —
///   without keys no join qualifies, and a cross join never does. With
///   one split table and one key, both sides trace to the same column.
pub fn split_safe(plan: &LogicalPlan, split: &[(Arc<Table>, Option<usize>)]) -> Option<bool> {
    // Does `expr` over `side` pass through a split table's placement key
    // (or, with `unique`, a declared-unique column of a split table)?
    let traces = |side: &LogicalPlan, expr: &Expr, unique: bool| match expr {
        Expr::Column(i) => matches!(
            column_source(side, *i),
            Some((_, t, c)) if split.iter().any(|(s, key)| Arc::ptr_eq(s, &t)
                && (*key == Some(c) || unique && t.is_unique_column(c)))
        ),
        _ => false,
    };
    match plan {
        LogicalPlan::Scan { table, .. } => Some(split.iter().any(|(s, _)| Arc::ptr_eq(s, table))),
        LogicalPlan::Values { .. } => Some(false),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. } => split_safe(input, split),
        LogicalPlan::Limit { .. } => None,
        LogicalPlan::Aggregate { input, group, .. } => {
            if !split_safe(input, split)? {
                return Some(false);
            }
            group.iter().any(|g| traces(input, g, true)).then_some(true)
        }
        LogicalPlan::CrossJoin { left, right, .. } => {
            let (l, r) = (split_safe(left, split)?, split_safe(right, split)?);
            (!(l && r)).then_some(l || r)
        }
        LogicalPlan::HashJoin { left, right, left_keys, right_keys, .. } => {
            let (l, r) = (split_safe(left, split)?, split_safe(right, split)?);
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
pub fn column_source(plan: &LogicalPlan, idx: usize) -> Option<(usize, Arc<Table>, usize)> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some((0, Arc::clone(table), idx)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => column_source(input, idx),
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(idx)? {
            Expr::Column(i) => column_source(input, *i),
            _ => None,
        },
        LogicalPlan::CrossJoin { left, right, .. } | LogicalPlan::HashJoin { left, right, .. } => {
            let nleft = left.schema().len();
            if idx < nleft {
                column_source(left, idx)
            } else {
                let (s, t, c) = column_source(right, idx - nleft)?;
                let mut left_scans = Vec::new();
                collect_scan_tables(left, &mut left_scans);
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
    use crate::plan::optimizer::Optimizer;
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

    fn plan(sql: &str, config: &EngineConfig, cat: &Catalog) -> LogicalPlan {
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!("{sql}") };
        Optimizer::new(config.clone()).optimize(Binder::new(cat).bind_select(&s).unwrap())
    }

    fn run(sql: &str, config: &EngineConfig, cat: &Catalog) -> Vec<Vec<Value>> {
        let batches = execute(&plan(sql, config, cat), config).unwrap();
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
    fn non_unique_group_key_takes_partial_aggregate_path_and_stays_correct() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let cat = setup(&cfg);
        // Group key id % 5 spans partitions: the gather path is unsafe, so
        // this runs through merged partial aggregates.
        let rows = run(
            "SELECT id % 5 AS g, COUNT(*) AS n FROM facts GROUP BY id % 5 ORDER BY 1",
            &cfg,
            &cat,
        );
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[1] == Value::Int(10)));
    }

    #[test]
    fn partial_aggregates_match_serial_across_agg_functions() {
        let par =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let ser =
            EngineConfig { vector_size: 8, partitions: 1, parallelism: 1, ..Default::default() };
        // v = 0.5 * id is exact in binary, so even SUM/AVG agree bitwise.
        let sql = "SELECT id % 3 AS g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, \
                   MAX(v) AS hi, AVG(v) AS m FROM facts GROUP BY id % 3 ORDER BY 1";
        let a = run(sql, &par, &setup(&par));
        let b = run(sql, &ser, &setup(&ser));
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn global_aggregate_takes_partial_path() {
        let par =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let ser =
            EngineConfig { vector_size: 8, partitions: 1, parallelism: 1, ..Default::default() };
        let sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM facts";
        let a = run(sql, &par, &setup(&par));
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
        assert!(choose_partition_table(peel_tail(&plan(sql, &cfg, &cat)).0).is_some());
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
        let split = choose_partition_table(&plan(sql, &cfg, &cat)).expect("a plain scan splits");
        // 2 partitions x 2 * MORSEL_ROWS rows: two full morsels each.
        assert_eq!(split.morsels.len(), 4);
        t.with_partitions(|parts| {
            for &(p, (start, end)) in &split.morsels {
                let blocks = &parts[p].columns()[0][start..end];
                assert_eq!(blocks.iter().map(|b| b.len()).sum::<usize>(), MORSEL_ROWS);
            }
        });
        assert_eq!(run(sql, &cfg, &cat).len(), rows as usize);
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

    // Regression test for merge-order determinism: partial aggregates over
    // non-dyadic floats (0.1 steps do not sum associatively in binary) must
    // fold in partition/morsel index order, so repeated runs of the same
    // query produce bit-identical floats. The sharded facade (crates/shard)
    // extends the same guarantee to shard index order.
    #[test]
    fn repeated_partial_aggregate_runs_are_bit_identical() {
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
        let first = bits(&run(sql, &cfg, &cat));
        for _ in 0..11 {
            let again = bits(&run(sql, &cfg, &cat));
            assert_eq!(first, again, "partial-aggregate merge must be index-ordered");
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
        let (facts, dims) = (engine.table("facts").unwrap(), engine.table("dims").unwrap());
        let cat = engine.catalog();
        let plan = |sql: &str| {
            let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!("{sql}") };
            Optimizer::new(EngineConfig::default())
                .optimize(Binder::new(cat).bind_select(&s).unwrap())
        };
        // Partitions split facts with no placement key; shards split both
        // tables on `id`.
        let partitions = [(Arc::clone(&facts), None)];
        let shards = [(Arc::clone(&facts), Some(0)), (Arc::clone(&dims), Some(0))];
        let cases = [
            (
                "partition split, grouped on a unique column",
                &partitions[..],
                "SELECT id, SUM(x) AS s FROM facts GROUP BY id",
                true,
            ),
            (
                "partition split, grouped on a non-unique column",
                &partitions[..],
                "SELECT grp, SUM(x) AS s FROM facts GROUP BY grp",
                false,
            ),
            (
                "shard join on the key",
                &shards[..],
                "SELECT f.x, d.x FROM facts AS f, dims AS d WHERE f.id = d.id",
                true,
            ),
            (
                "shard join off the key",
                &shards[..],
                "SELECT f.x, d.x FROM facts AS f, dims AS d WHERE f.grp = d.grp",
                false,
            ),
            (
                "cross join of two sharded tables",
                &shards[..],
                "SELECT f.x, d.x FROM facts AS f, dims AS d",
                false,
            ),
            (
                "interior LIMIT",
                &partitions[..],
                "SELECT q.id FROM (SELECT id FROM facts LIMIT 3) AS q WHERE q.id > 0",
                false,
            ),
            (
                "aggregate over a subtree that scans no split table",
                &partitions[..],
                "SELECT f.id, g.n FROM facts AS f, \
                 (SELECT grp, COUNT(*) AS n FROM dims GROUP BY grp) AS g WHERE f.grp = g.grp",
                true,
            ),
        ];
        for (case, split, sql, safe) in cases {
            assert_eq!(split_safe(&plan(sql), split).is_some(), safe, "{case}: {sql}");
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
