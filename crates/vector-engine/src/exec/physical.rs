//! The Volcano operator interface and the logical→physical translation.

use crate::column::Batch;
use crate::error::Result;
use crate::exec::agg::HashAggExec;
use crate::exec::join::{CrossJoinExec, HashJoinExec};
use crate::exec::scan::ScanExec;
use crate::exec::simple::{BatchesExec, FilterExec, LimitExec, ProjectExec, SortExec, ValuesExec};
use crate::expr::Expr;
use crate::plan::logical::{LogicalPlan, PrunePredicate};
use crate::storage::Table;
use std::sync::Arc;

/// A vectorized physical operator following the Volcano iterator model the
/// paper's ModelJoin plugs into (Sec. 5.1): `open()` allocates, `next()`
/// produces one [`Batch`] of at most `vector_size` rows (or `None` when
/// exhausted), `close()` releases resources.
pub trait Operator: Send {
    /// Prepare for execution. Default: nothing to do.
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// Produce the next batch, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Batch>>;

    /// Release resources. Default: nothing to do.
    fn close(&mut self) {}
}

/// Drain an operator into a vector of batches (open → next* → close).
pub fn drain(mut op: Box<dyn Operator>) -> Result<Vec<Batch>> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(batch) = op.next()? {
        if batch.num_rows() > 0 {
            out.push(batch);
        }
    }
    op.close();
    Ok(out)
}

/// Per-execution parameters for operator construction.
#[derive(Clone)]
pub struct ExecContext {
    /// Maximum rows per produced batch.
    pub vector_size: usize,
    /// When set, scans of exactly this table read only the given partition —
    /// the mechanism of the partition-parallel driver. All other tables are
    /// read fully by every worker (the paper's "model table is shared
    /// between the execution threads", Sec. 4.4).
    pub scan_restrict: Option<(Arc<Table>, usize)>,
    /// When set alongside `scan_restrict`, the restricted scan reads only
    /// this `[start, end)` block range — one morsel of the unified
    /// scheduler, so a skewed partition splits across stealable tasks.
    pub scan_blocks: Option<(usize, usize)>,
}

impl ExecContext {
    pub fn new(vector_size: usize) -> ExecContext {
        ExecContext { vector_size, scan_restrict: None, scan_blocks: None }
    }

    /// Context for one scheduler morsel: a block range within one
    /// partition of the driving table.
    pub fn for_morsel(
        vector_size: usize,
        table: Arc<Table>,
        partition: usize,
        blocks: Option<(usize, usize)>,
    ) -> ExecContext {
        ExecContext { vector_size, scan_restrict: Some((table, partition)), scan_blocks: blocks }
    }
}

/// Instruments an operator with the stage metrics of its plan kind: every
/// `next()` counts the produced batch and rows, and (when the process-wide
/// [`obs::set_spans_enabled`] gate is on) records its wall time. The
/// timing is *inclusive* — an operator's `next()` pulls from its children
/// inside the measured window — so stage
/// times overlap and must be read as "time spent with this stage on top
/// of the iterator stack's call path", not a disjoint breakdown.
struct MeteredOp {
    inner: Box<dyn Operator>,
    stage: &'static obs::StageMetrics,
}

impl Operator for MeteredOp {
    fn open(&mut self) -> Result<()> {
        self.inner.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let result = {
            let _span = obs::span(&self.stage.time_us);
            self.inner.next()
        };
        if let Ok(Some(batch)) = &result {
            self.stage.batches.add(1);
            self.stage.rows.add(batch.num_rows() as u64);
        }
        result
    }

    fn close(&mut self) {
        self.inner.close()
    }
}

/// If `exprs` are plain column references and `input` is a `Scan` — the
/// shape the optimizer's column pruning produces — the projection runs as
/// one [`ScanExec`] that loads only those columns. Returns the table, its
/// SMA pruning predicates, and the table ordinals to load in output order.
pub(crate) fn column_scan<'p>(
    input: &'p LogicalPlan,
    exprs: &[Expr],
) -> Option<(&'p Arc<Table>, &'p [PrunePredicate], Vec<usize>)> {
    let LogicalPlan::Scan { table, pruning, .. } = input else {
        return None;
    };
    let columns = exprs
        .iter()
        .map(|e| match e {
            Expr::Column(i) => Some(*i),
            _ => None,
        })
        .collect::<Option<Vec<usize>>>()?;
    Some((table, pruning, columns))
}

/// The stage-metric bundle a plan node reports under.
fn stage_of(plan: &LogicalPlan) -> &'static obs::StageMetrics {
    match plan {
        LogicalPlan::Scan { .. } => &obs::metrics::EXEC_SCAN,
        LogicalPlan::Project { input, exprs, .. } if column_scan(input, exprs).is_some() => {
            &obs::metrics::EXEC_SCAN
        }
        LogicalPlan::Filter { .. } => &obs::metrics::EXEC_FILTER,
        LogicalPlan::Project { .. } => &obs::metrics::EXEC_PROJECT,
        LogicalPlan::CrossJoin { .. } | LogicalPlan::HashJoin { .. } => &obs::metrics::EXEC_JOIN,
        LogicalPlan::Aggregate { .. } => &obs::metrics::EXEC_AGG,
        LogicalPlan::Sort { .. } => &obs::metrics::EXEC_SORT,
        LogicalPlan::Limit { .. } | LogicalPlan::Values { .. } => &obs::metrics::EXEC_OTHER,
    }
}

/// Translate a logical plan into an operator tree. Every operator is
/// wrapped in a [`MeteredOp`] reporting into its stage's metrics.
pub fn build_operator(plan: &LogicalPlan, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
    let inner = build_operator_inner(plan, ctx)?;
    Ok(Box::new(MeteredOp { inner, stage: stage_of(plan) }))
}

fn build_operator_inner(plan: &LogicalPlan, ctx: &ExecContext) -> Result<Box<dyn Operator>> {
    Ok(match plan {
        LogicalPlan::Scan { table, pruning, schema } => {
            scan_exec(table, pruning, (0..schema.len()).collect(), ctx)
        }
        LogicalPlan::Filter { input, predicate } => {
            Box::new(FilterExec::new(build_operator(input, ctx)?, predicate.clone()))
        }
        LogicalPlan::Project { input, exprs, .. } => match column_scan(input, exprs) {
            Some((table, pruning, columns)) => scan_exec(table, pruning, columns, ctx),
            None => Box::new(ProjectExec::new(build_operator(input, ctx)?, exprs.clone())),
        },
        LogicalPlan::CrossJoin { left, right, .. } => Box::new(CrossJoinExec::new(
            build_operator(left, ctx)?,
            build_operator(right, ctx)?,
            ctx.vector_size,
        )),
        LogicalPlan::HashJoin { left, right, left_keys, right_keys, .. } => {
            Box::new(HashJoinExec::new(
                build_operator(left, ctx)?,
                build_operator(right, ctx)?,
                left_keys.clone(),
                right_keys.clone(),
                ctx.vector_size,
            ))
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => Box::new(HashAggExec::new(
            build_operator(input, ctx)?,
            group.clone(),
            aggs.clone(),
            schema.types(),
            ctx.vector_size,
        )),
        LogicalPlan::Sort { input, keys } => {
            Box::new(SortExec::new(build_operator(input, ctx)?, keys.clone(), ctx.vector_size))
        }
        LogicalPlan::Limit { input, n } => {
            Box::new(LimitExec::new(build_operator(input, ctx)?, *n))
        }
        LogicalPlan::Values { rows, schema } => {
            Box::new(ValuesExec::new(rows.clone(), schema.types()))
        }
    })
}

/// A scan of `columns` of `table`, restricted to the context's partition
/// and block range when `table` is the one the parallel driver splits.
fn scan_exec(
    table: &Arc<Table>,
    pruning: &[PrunePredicate],
    columns: Vec<usize>,
    ctx: &ExecContext,
) -> Box<dyn Operator> {
    let (partition, blocks) = match &ctx.scan_restrict {
        Some((t, p)) if Arc::ptr_eq(t, table) => (Some(*p), ctx.scan_blocks),
        _ => (None, None),
    };
    Box::new(ScanExec::with_blocks(Arc::clone(table), columns, pruning.to_vec(), partition, blocks))
}

/// Wrap pre-computed batches as an operator (used by the parallel driver to
/// apply the serial tail of a plan over gathered partition results).
pub fn batches_operator(batches: Vec<Batch>) -> Box<dyn Operator> {
    Box::new(BatchesExec::new(batches))
}
