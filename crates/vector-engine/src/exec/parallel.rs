//! Partition-parallel plan execution.
//!
//! Mirrors the paper's x100 parallelism model (Sec. 4.4 / 5.2): the largest
//! scanned table is the partitioned one; each worker thread runs a private
//! copy of the plan restricted to its partitions while all other tables
//! (e.g. the model table) are read fully by every worker. Parallelism is
//! only used when it provably preserves results:
//!
//! * the partitioned table is scanned exactly once in the plan,
//! * every aggregation groups on a column that traces back to a declared
//!   unique column of the partitioned table (so no group spans partitions —
//!   the paper's "no repartitioning is necessary" argument), and
//! * the parallel section contains no `LIMIT`.
//!
//! When the top-level node is an aggregation whose *group key does not*
//! satisfy the unique-column rule but whose input is otherwise partition-
//! safe, the driver falls back to a **partial-aggregate** plan instead of
//! serial execution: each worker folds its partitions into a typed
//! [`GroupedAggState`] and the partials are merged in partition order — the
//! classic local/global aggregation split, enabled by the vectorized
//! accumulators. Group order stays deterministic (first seen in
//! partition order); floating-point sums may differ from serial execution
//! in the last bits because partials reassociate the additions.
//!
//! Top-level `ORDER BY` / `LIMIT` are peeled off and applied serially over
//! the gathered partition results.
//!
//! The unit of parallelism is the **morsel** — a block range within one
//! partition, at most [`MORSEL_ROWS`] rows — submitted as Query-class
//! tasks to the process-wide work-stealing pool in `crates/sched`. The
//! driving thread cooperatively runs its own morsels while waiting, so
//! queries never spawn threads, and stealing balances skewed partitions.
//! Results (and partial-aggregate merges) are gathered in (partition,
//! block-range) order, so output is deterministic.

use crate::column::Batch;
use crate::config::EngineConfig;
use crate::error::Result;
use crate::exec::agg::GroupedAggState;
use crate::exec::physical::{batches_operator, build_operator, drain, ExecContext, Operator};
use crate::exec::simple::{LimitExec, SortExec};
use crate::expr::Expr;
use crate::plan::logical::{AggSpec, LogicalPlan};
use crate::storage::Table;
use crate::types::DataType;
use std::sync::Arc;

/// Target rows per scheduler morsel: large enough that per-task overhead
/// vanishes, small enough that stealing can balance a skewed partition.
const MORSEL_ROWS: usize = 65536;

/// Execute a plan to completion, using partition parallelism when safe.
pub fn execute(plan: &LogicalPlan, config: &EngineConfig) -> Result<Vec<Batch>> {
    // Grow-only and cheap when already satisfied; direct callers (tests,
    // benches) get a sized pool without an Engine.
    sched::configure_workers(config.effective_worker_threads());
    // Peel the serial tail.
    let mut post: Vec<PostOp> = Vec::new();
    let mut core = plan;
    loop {
        match core {
            LogicalPlan::Sort { input, keys } => {
                post.push(PostOp::Sort(keys.clone()));
                core = input;
            }
            LogicalPlan::Limit { input, n } => {
                post.push(PostOp::Limit(*n));
                core = input;
            }
            _ => break,
        }
    }

    let target = if config.parallelism > 1 { choose_partition_table(core) } else { None };

    let batches = match target {
        Some(table) => execute_partitioned(core, &table, config)?,
        None => match partial_agg_target(core, config) {
            Some((table, input, group, aggs, types)) => {
                execute_partial_agg(input, group, aggs, &types, &table, config)?
            }
            None => drain(build_operator(core, &ExecContext::new(config.vector_size))?)?,
        },
    };

    // Apply the peeled tail serially (innermost first).
    let mut op: Box<dyn Operator> = batches_operator(batches);
    for p in post.into_iter().rev() {
        op = match p {
            PostOp::Sort(keys) => Box::new(SortExec::new(op, keys, config.vector_size)),
            PostOp::Limit(n) => Box::new(LimitExec::new(op, n)),
        };
    }
    drain(op)
}

enum PostOp {
    Sort(Vec<(Expr, bool)>),
    Limit(u64),
}

/// The morsel list for `table`: `(partition, [start, end) block range)`
/// entries in (partition, range) order, covering every block exactly once.
/// Empty partitions contribute nothing.
fn build_morsels(table: &Arc<Table>, config: &EngineConfig) -> Vec<(usize, (usize, usize))> {
    let block_counts: Vec<usize> =
        table.with_partitions(|parts| parts.iter().map(|p| p.block_count()).collect());
    let blocks_per_morsel = (MORSEL_ROWS / config.vector_size.max(1)).max(1);
    let mut morsels = Vec::new();
    for (p, &blocks) in block_counts.iter().enumerate() {
        let mut start = 0;
        while start < blocks {
            let end = (start + blocks_per_morsel).min(blocks);
            morsels.push((p, (start, end)));
            start = end;
        }
    }
    morsels
}

/// If `core` is an aggregation that the group-on-unique-key rule rejects
/// but whose input alone is partition-safe, pick the partial-aggregate
/// plan: the partition table plus the aggregation pieces.
#[allow(clippy::type_complexity)]
fn partial_agg_target<'p>(
    core: &'p LogicalPlan,
    config: &EngineConfig,
) -> Option<(Arc<Table>, &'p LogicalPlan, &'p [Expr], &'p [AggSpec], Vec<DataType>)> {
    if config.parallelism <= 1 {
        return None;
    }
    let LogicalPlan::Aggregate { input, group, aggs, schema } = core else {
        return None;
    };
    let table = choose_partition_table(input)?;
    Some((table, input, group, aggs, schema.types()))
}

/// Run `input` once per morsel, folding each morsel into a typed
/// [`GroupedAggState`]; merge the partials in morsel order and finalize.
fn execute_partial_agg(
    input: &LogicalPlan,
    group: &[Expr],
    aggs: &[AggSpec],
    output_types: &[DataType],
    table: &Arc<Table>,
    config: &EngineConfig,
) -> Result<Vec<Batch>> {
    let ngroup = group.len();
    let agg_types = &output_types[ngroup..];

    // One partial state per morsel, merged in (partition, range) order so
    // group order and float sums are deterministic.
    let states = sched::global().fork_join(
        sched::TaskClass::Query,
        build_morsels(table, config),
        |(p, range)| {
            let ctx =
                ExecContext::for_morsel(config.vector_size, Arc::clone(table), p, Some(range));
            partition_state(input, group, aggs, agg_types, &ctx)
        },
    )?;

    let mut merged = GroupedAggState::new(aggs, agg_types);
    for state in states {
        merged.merge(state?)?;
    }
    let result = merged.finalize(ngroup, output_types)?;

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

/// The partial aggregate over one morsel.
fn partition_state(
    input: &LogicalPlan,
    group: &[Expr],
    aggs: &[AggSpec],
    agg_types: &[DataType],
    ctx: &ExecContext,
) -> Result<GroupedAggState> {
    let mut op = build_operator(input, ctx)?;
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

/// Partitioned execution: each morsel drains a private plan copy
/// restricted to its block range; results gather in (partition, range)
/// order.
fn execute_partitioned(
    plan: &LogicalPlan,
    table: &Arc<Table>,
    config: &EngineConfig,
) -> Result<Vec<Batch>> {
    let results = sched::global().fork_join(
        sched::TaskClass::Query,
        build_morsels(table, config),
        |(p, range)| {
            let ctx =
                ExecContext::for_morsel(config.vector_size, Arc::clone(table), p, Some(range));
            build_operator(plan, &ctx).and_then(drain)
        },
    )?;
    let mut out = Vec::new();
    for batches in results {
        out.extend(batches?);
    }
    Ok(out)
}

/// Pick the table to partition: the largest multi-partition scanned table
/// for which partitioned execution is provably safe.
fn choose_partition_table(plan: &LogicalPlan) -> Option<Arc<Table>> {
    let mut tables: Vec<Arc<Table>> = Vec::new();
    collect_scan_tables(plan, &mut tables);
    // Deduplicate by identity, remembering scan counts.
    let mut uniq: Vec<(Arc<Table>, usize)> = Vec::new();
    for t in tables {
        match uniq.iter_mut().find(|(u, _)| Arc::ptr_eq(u, &t)) {
            Some((_, n)) => *n += 1,
            None => uniq.push((t, 1)),
        }
    }
    uniq.sort_by_key(|(t, _)| std::cmp::Reverse(t.row_count()));
    for (table, scans) in uniq {
        if scans == 1 && table.partition_count() > 1 && is_safe(plan, &table) {
            return Some(table);
        }
    }
    None
}

/// Append every base table scanned by `plan` to `out` (one entry per scan,
/// so a table referenced twice appears twice). Public for the shard
/// planner, which applies the same scanned-exactly-once rule at the
/// shard level that [`execute`] applies at the partition level.
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

/// Is partition-parallel execution over `table` result-preserving?
fn is_safe(plan: &LogicalPlan, table: &Arc<Table>) -> bool {
    match plan {
        // A nested LIMIT would multiply across partitions.
        LogicalPlan::Limit { .. } => false,
        LogicalPlan::Aggregate { input, group, .. } => {
            let grouped_on_key = group.iter().any(|g| {
                if let Expr::Column(i) = g {
                    matches!(
                        column_source(input, *i),
                        Some((src, col)) if Arc::ptr_eq(&src, table)
                            && src.is_unique_column(col)
                    )
                } else {
                    false
                }
            });
            grouped_on_key && is_safe(input, table)
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. } => is_safe(input, table),
        LogicalPlan::CrossJoin { left, right, .. } | LogicalPlan::HashJoin { left, right, .. } => {
            is_safe(left, table) && is_safe(right, table)
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => true,
    }
}

/// Trace an output column of `plan` back to a base table column, if the
/// lineage is a pure passthrough. Public for the shard planner, which
/// needs the same lineage argument to decide whether a group key or an
/// equality predicate pins the sharding column.
pub fn column_source(plan: &LogicalPlan, idx: usize) -> Option<(Arc<Table>, usize)> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some((Arc::clone(table), idx)),
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
                column_source(right, idx - nleft)
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

    fn run(sql: &str, config: &EngineConfig, cat: &Catalog) -> Vec<Vec<Value>> {
        let binder = Binder::new(cat);
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!() };
        let plan = Optimizer::new(config.clone()).optimize(binder.bind_select(&s).unwrap());
        let batches = execute(&plan, config).unwrap();
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
    fn choose_rejects_tables_scanned_twice() {
        let cfg =
            EngineConfig { vector_size: 8, partitions: 4, parallelism: 4, ..Default::default() };
        let cat = setup(&cfg);
        // Self join: the table appears twice, so no partition target exists;
        // results must still be correct (serial fallback).
        let rows = run(
            "SELECT a.id FROM facts a, facts b WHERE a.id = b.id AND a.id < 5 ORDER BY 1",
            &cfg,
            &cat,
        );
        assert_eq!(rows.len(), 5);
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
}
