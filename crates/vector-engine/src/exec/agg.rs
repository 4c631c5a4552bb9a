//! Vectorized hash aggregation.
//!
//! Grouping runs through the shared columnar key pipeline
//! ([`crate::exec::hash`]): one hash vector per input batch, group lookup
//! against retained key columns, and a dense group id per row. Accumulation
//! is typed: each aggregate owns flat `Vec<i64>`/`Vec<f64>` slot arrays
//! indexed by group id, updated by batch kernels over the typed column
//! slices — no per-row `Value` materialization, no composite keys.
//!
//! [`HashAggExec`] runs every aggregation; a plan whose group key
//! spans morsels runs it serially over every partition (see
//! `exec/parallel.rs`).

use crate::column::{Batch, ColumnVector};
use crate::error::{EngineError, Result};
use crate::exec::hash::{hash_key_columns, keys_equal, KeyTable};
use crate::exec::physical::Operator;
use crate::expr::Expr;
use crate::plan::logical::{AggFunc, AggSpec};
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Largest / smallest f64 under `f64::total_cmp` — the absorbing identities
/// for typed MIN / MAX slots. Every real group receives at least one row
/// (the engine is NULL-free), so sentinels never leak into results.
const TOTAL_ORD_MAX: f64 = f64::from_bits(0x7fff_ffff_ffff_ffff);
const TOTAL_ORD_MIN: f64 = f64::from_bits(0xffff_ffff_ffff_ffff);

/// Which slot each row of a batch folds into.
#[derive(Clone, Copy)]
enum Slots<'a> {
    /// Row `i` folds into slot `gids[i]`.
    Grouped(&'a [u32]),
    /// All of the batch's rows (this many) fold into slot 0: the one group
    /// of a global aggregate, with no group-id vector.
    Global(usize),
}

/// Fold one value per row into `acc` through `f`, in row order — the
/// order the row-at-a-time oracle folds in, so float sums keep their bits.
fn fold<A, T>(
    acc: &mut [A],
    slots: Slots<'_>,
    values: impl Iterator<Item = T>,
    mut f: impl FnMut(&mut A, T) -> Result<()>,
) -> Result<()> {
    match slots {
        Slots::Grouped(gids) => {
            for (&g, x) in gids.iter().zip(values) {
                f(&mut acc[g as usize], x)?;
            }
        }
        Slots::Global(_) => {
            let slot = &mut acc[0];
            for x in values {
                f(slot, x)?;
            }
        }
    }
    Ok(())
}

/// Count the rows per slot: a global aggregate adds the batch's row count.
fn count_rows(n: &mut [i64], slots: Slots<'_>) {
    match slots {
        Slots::Grouped(gids) => {
            for &g in gids {
                n[g as usize] += 1;
            }
        }
        Slots::Global(rows) => n[0] += rows as i64,
    }
}

/// Every row of `col` as a `Value` (the untyped fallback of the kernels).
fn value_iter(col: &ColumnVector) -> impl Iterator<Item = Value> + '_ {
    (0..col.len()).map(|i| col.value(i))
}

/// `SUM` over INT errors on overflow, in debug and release builds alike.
fn checked_sum(slot: &mut i64, x: i64) -> Result<()> {
    *slot = slot
        .checked_add(x)
        .ok_or_else(|| EngineError::Execution("SUM overflowed the INT range".into()))?;
    Ok(())
}

fn add_float(slot: &mut f64, x: f64) -> Result<()> {
    *slot += x;
    Ok(())
}

fn min_int(slot: &mut i64, x: i64) -> Result<()> {
    *slot = (*slot).min(x);
    Ok(())
}

fn max_int(slot: &mut i64, x: i64) -> Result<()> {
    *slot = (*slot).max(x);
    Ok(())
}

fn min_float(slot: &mut f64, x: f64) -> Result<()> {
    if x.total_cmp(slot) == Ordering::Less {
        *slot = x;
    }
    Ok(())
}

fn max_float(slot: &mut f64, x: f64) -> Result<()> {
    if x.total_cmp(slot) == Ordering::Greater {
        *slot = x;
    }
    Ok(())
}

/// Typed per-aggregate slot arrays, indexed by dense group id.
#[derive(Clone, Debug)]
enum Accumulator {
    SumInt(Vec<i64>),
    SumFloat(Vec<f64>),
    Count(Vec<i64>),
    Avg {
        sum: Vec<f64>,
        count: Vec<i64>,
    },
    MinInt(Vec<i64>),
    MaxInt(Vec<i64>),
    MinFloat(Vec<f64>),
    MaxFloat(Vec<f64>),
    /// MIN/MAX over non-numeric columns — one `Value` per *group* (not per
    /// row), ordered by [`Value::total_cmp`].
    MinVal(Vec<Option<Value>>),
    MaxVal(Vec<Option<Value>>),
}

impl Accumulator {
    fn new(spec: &AggSpec, result_type: DataType) -> Accumulator {
        match spec.func {
            AggFunc::Sum => {
                if result_type == DataType::Int {
                    Accumulator::SumInt(Vec::new())
                } else {
                    Accumulator::SumFloat(Vec::new())
                }
            }
            AggFunc::Count => Accumulator::Count(Vec::new()),
            AggFunc::Avg => Accumulator::Avg { sum: Vec::new(), count: Vec::new() },
            AggFunc::Min => match result_type {
                DataType::Int => Accumulator::MinInt(Vec::new()),
                DataType::Float => Accumulator::MinFloat(Vec::new()),
                _ => Accumulator::MinVal(Vec::new()),
            },
            AggFunc::Max => match result_type {
                DataType::Int => Accumulator::MaxInt(Vec::new()),
                DataType::Float => Accumulator::MaxFloat(Vec::new()),
                _ => Accumulator::MaxVal(Vec::new()),
            },
        }
    }

    /// Append the identity slot of a newly discovered group.
    fn push_group(&mut self) {
        match self {
            Accumulator::SumInt(v) => v.push(0),
            Accumulator::SumFloat(v) => v.push(0.0),
            Accumulator::Count(v) => v.push(0),
            Accumulator::Avg { sum, count } => {
                sum.push(0.0);
                count.push(0);
            }
            Accumulator::MinInt(v) => v.push(i64::MAX),
            Accumulator::MaxInt(v) => v.push(i64::MIN),
            Accumulator::MinFloat(v) => v.push(TOTAL_ORD_MAX),
            Accumulator::MaxFloat(v) => v.push(TOTAL_ORD_MIN),
            Accumulator::MinVal(v) | Accumulator::MaxVal(v) => v.push(None),
        }
    }

    /// Fold one batch into the slots `slots` assigns its rows to, in row
    /// order. Each arm is a tight loop over the typed column slice.
    fn update_batch(&mut self, slots: Slots<'_>, arg: Option<&ColumnVector>) -> Result<()> {
        let arg = || arg.expect("every aggregate but COUNT has an argument");
        match self {
            Accumulator::Count(n) => {
                count_rows(n, slots);
                Ok(())
            }
            Accumulator::SumInt(acc) => match arg() {
                ColumnVector::Int(v) => fold(acc, slots, v.iter().copied(), checked_sum),
                ColumnVector::Float(v) => {
                    fold(acc, slots, v.iter().map(|&x| x as i64), checked_sum)
                }
                other => fold(acc, slots, value_iter(other), |s, x| checked_sum(s, x.as_i64()?)),
            },
            Accumulator::SumFloat(acc) => match arg() {
                ColumnVector::Float(v) => fold(acc, slots, v.iter().copied(), add_float),
                ColumnVector::Int(v) => fold(acc, slots, v.iter().map(|&x| x as f64), add_float),
                other => fold(acc, slots, value_iter(other), |s, x| add_float(s, x.as_f64()?)),
            },
            Accumulator::Avg { sum, count } => {
                match arg() {
                    ColumnVector::Float(v) => fold(sum, slots, v.iter().copied(), add_float)?,
                    ColumnVector::Int(v) => {
                        fold(sum, slots, v.iter().map(|&x| x as f64), add_float)?
                    }
                    other => fold(sum, slots, value_iter(other), |s, x| add_float(s, x.as_f64()?))?,
                }
                count_rows(count, slots);
                Ok(())
            }
            Accumulator::MinInt(acc) => match arg() {
                ColumnVector::Int(v) => fold(acc, slots, v.iter().copied(), min_int),
                other => fold(acc, slots, value_iter(other), |s, x| min_int(s, x.as_i64()?)),
            },
            Accumulator::MaxInt(acc) => match arg() {
                ColumnVector::Int(v) => fold(acc, slots, v.iter().copied(), max_int),
                other => fold(acc, slots, value_iter(other), |s, x| max_int(s, x.as_i64()?)),
            },
            Accumulator::MinFloat(acc) => match arg() {
                ColumnVector::Float(v) => fold(acc, slots, v.iter().copied(), min_float),
                ColumnVector::Int(v) => fold(acc, slots, v.iter().map(|&x| x as f64), min_float),
                other => fold(acc, slots, value_iter(other), |s, x| min_float(s, x.as_f64()?)),
            },
            Accumulator::MaxFloat(acc) => match arg() {
                ColumnVector::Float(v) => fold(acc, slots, v.iter().copied(), max_float),
                ColumnVector::Int(v) => fold(acc, slots, v.iter().map(|&x| x as f64), max_float),
                other => fold(acc, slots, value_iter(other), |s, x| max_float(s, x.as_f64()?)),
            },
            Accumulator::MinVal(acc) => fold(acc, slots, value_iter(arg()), |slot, v| {
                if slot.as_ref().is_none_or(|c| v.total_cmp(c) == Ordering::Less) {
                    *slot = Some(v);
                }
                Ok(())
            }),
            Accumulator::MaxVal(acc) => fold(acc, slots, value_iter(arg()), |slot, v| {
                if slot.as_ref().is_none_or(|c| v.total_cmp(c) == Ordering::Greater) {
                    *slot = Some(v);
                }
                Ok(())
            }),
        }
    }

    /// Turn the slot arrays into the output column. `empty_global` marks the
    /// one synthesized group of a global aggregate over empty input, where
    /// MIN/MAX have no value to produce.
    fn finalize_column(self, empty_global: bool) -> Result<ColumnVector> {
        let no_input = |func: &str| {
            EngineError::Execution(format!("{func} over empty input requires NULL support"))
        };
        Ok(match self {
            Accumulator::SumInt(v) | Accumulator::Count(v) => ColumnVector::Int(v),
            Accumulator::SumFloat(v) => ColumnVector::Float(v),
            // SQL's AVG over an empty group is NULL; in the NULL-free engine
            // the global empty case surfaces as 0.0 (documented).
            Accumulator::Avg { sum, count } => ColumnVector::Float(
                sum.iter()
                    .zip(&count)
                    .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect(),
            ),
            Accumulator::MinInt(v) => {
                if empty_global {
                    return Err(no_input("MIN"));
                }
                ColumnVector::Int(v)
            }
            Accumulator::MaxInt(v) => {
                if empty_global {
                    return Err(no_input("MAX"));
                }
                ColumnVector::Int(v)
            }
            Accumulator::MinFloat(v) => {
                if empty_global {
                    return Err(no_input("MIN"));
                }
                ColumnVector::Float(v)
            }
            Accumulator::MaxFloat(v) => {
                if empty_global {
                    return Err(no_input("MAX"));
                }
                ColumnVector::Float(v)
            }
            Accumulator::MinVal(v) => {
                let mut out: Option<ColumnVector> = None;
                for slot in v {
                    let val = slot.ok_or_else(|| no_input("MIN"))?;
                    let col = out.get_or_insert_with(|| ColumnVector::empty(val.data_type()));
                    col.push(val)?;
                }
                // Zero groups: the declared-type cast downstream fixes the
                // placeholder type of the empty column.
                out.unwrap_or_else(|| ColumnVector::empty(DataType::Str))
            }
            Accumulator::MaxVal(v) => {
                let mut out: Option<ColumnVector> = None;
                for slot in v {
                    let val = slot.ok_or_else(|| no_input("MAX"))?;
                    let col = out.get_or_insert_with(|| ColumnVector::empty(val.data_type()));
                    col.push(val)?;
                }
                out.unwrap_or_else(|| ColumnVector::empty(DataType::Str))
            }
        })
    }
}

/// Append the identity slot of a new group to every accumulator and return
/// the group's id.
fn new_group(accs: &mut [Accumulator], groups: &mut usize) -> usize {
    for acc in accs {
        acc.push_group();
    }
    *groups += 1;
    *groups - 1
}

/// The vectorized grouping core: retained typed group-key columns, a
/// [`KeyTable`] mapping key hashes to dense group ids, and one
/// [`Accumulator`] per aggregate. Groups are numbered in first-seen order,
/// which keeps results deterministic.
///
/// A global aggregate (no group keys) has at most one group and uses none
/// of the grouping machinery: no hash vector, no table probe, no group-id
/// vector. `COUNT` adds each batch's row count and the other aggregates
/// fold the argument column into slot 0 in row order.
struct GroupedAggState {
    /// Evaluated group-key columns of every distinct group, in first-seen
    /// order. `None` until the first batch fixes the key column types.
    group_cols: Option<Vec<ColumnVector>>,
    table: KeyTable,
    /// Groups found so far (the table's length, or 0/1 when global).
    groups: usize,
    accs: Vec<Accumulator>,
    /// Reused per-batch scratch: row hashes and dense group ids.
    hashes: Vec<u64>,
    gids: Vec<u32>,
}

impl GroupedAggState {
    fn new(aggs: &[AggSpec], agg_types: &[DataType]) -> GroupedAggState {
        GroupedAggState {
            group_cols: None,
            table: KeyTable::with_capacity(0),
            groups: 0,
            accs: aggs.iter().zip(agg_types).map(|(s, t)| Accumulator::new(s, *t)).collect(),
            hashes: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// Evaluate the group and aggregate expressions over `batch` and fold
    /// its rows in: assign a dense group id per row (creating groups on
    /// first sight), then run each accumulator's batch kernel. With no
    /// group keys every row belongs to the one global group.
    fn absorb_batch(&mut self, batch: &Batch, group: &[Expr], aggs: &[AggSpec]) -> Result<()> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(());
        }
        let key_cols = group.iter().map(|e| e.eval(batch)).collect::<Result<Vec<_>>>()?;
        let arg_cols: Vec<Option<Arc<ColumnVector>>> = aggs
            .iter()
            .map(|s| s.arg.as_ref().map(|a| a.eval(batch)).transpose())
            .collect::<Result<_>>()?;
        if key_cols.is_empty() {
            if self.groups == 0 {
                self.group_cols = Some(Vec::new());
                new_group(&mut self.accs, &mut self.groups);
            }
            for (acc, arg) in self.accs.iter_mut().zip(&arg_cols) {
                acc.update_batch(Slots::Global(rows), arg.as_deref())?;
            }
            return Ok(());
        }
        hash_key_columns(&key_cols, rows, &mut self.hashes);
        let group_cols = self.group_cols.get_or_insert_with(|| {
            key_cols.iter().map(|c| ColumnVector::empty(c.data_type())).collect()
        });
        self.gids.clear();
        self.gids.reserve(rows);
        for (row, &h) in self.hashes.iter().enumerate() {
            let found =
                self.table.candidates(h).find(|&cand| keys_equal(group_cols, cand, &key_cols, row));
            let gid = match found {
                Some(g) => g,
                None => {
                    self.table.insert(h);
                    for (gc, kc) in group_cols.iter_mut().zip(&key_cols) {
                        gc.push_from(kc, row);
                    }
                    new_group(&mut self.accs, &mut self.groups)
                }
            };
            self.gids.push(gid as u32);
        }
        for (acc, arg) in self.accs.iter_mut().zip(&arg_cols) {
            acc.update_batch(Slots::Grouped(&self.gids), arg.as_deref())?;
        }
        Ok(())
    }

    /// Produce the result batch: group columns then aggregate columns, cast
    /// to the declared output types. `ngroup` is the number of group
    /// columns; a global aggregate (`ngroup == 0`) emits exactly one row
    /// even for empty input.
    fn finalize(mut self, ngroup: usize, output_types: &[DataType]) -> Result<Batch> {
        let empty_global = ngroup == 0 && self.groups == 0;
        if empty_global {
            new_group(&mut self.accs, &mut self.groups);
        }
        let mut cols: Vec<ColumnVector> = Vec::with_capacity(output_types.len());
        let group_cols = self.group_cols.take().unwrap_or_default();
        for (i, gc) in group_cols.into_iter().enumerate() {
            // Group values can be INT where the schema says FLOAT
            // (promotion); cast handles the widening.
            cols.push(gc.cast(output_types[i])?);
        }
        // No input batches at all: emit the typed empty columns.
        while cols.len() < ngroup {
            cols.push(ColumnVector::empty(output_types[cols.len()]));
        }
        for (i, acc) in self.accs.into_iter().enumerate() {
            let col = acc.finalize_column(empty_global)?;
            cols.push(col.cast(output_types[ngroup + i])?);
        }
        Ok(Batch::new(cols))
    }
}

/// Hash-based grouping aggregation. Consumes its whole input (the pipeline
/// breaker the paper calls out in Sec. 4.4), then emits `vector_size`
/// batches of group rows in first-seen order (deterministic results).
pub struct HashAggExec {
    input: Box<dyn Operator>,
    group: Vec<Expr>,
    aggs: Vec<AggSpec>,
    /// Output column types: group columns then aggregate columns.
    output_types: Vec<DataType>,
    vector_size: usize,
    /// Result after the build phase.
    result: Option<Batch>,
    offset: usize,
}

impl HashAggExec {
    pub fn new(
        input: Box<dyn Operator>,
        group: Vec<Expr>,
        aggs: Vec<AggSpec>,
        output_types: Vec<DataType>,
        vector_size: usize,
    ) -> HashAggExec {
        HashAggExec {
            input,
            group,
            aggs,
            output_types,
            vector_size: vector_size.max(1),
            result: None,
            offset: 0,
        }
    }

    fn compute(&mut self) -> Result<()> {
        let ngroup = self.group.len();
        let agg_types = &self.output_types[ngroup..];
        let mut state = GroupedAggState::new(&self.aggs, agg_types);
        while let Some(batch) = self.input.next()? {
            state.absorb_batch(&batch, &self.group, &self.aggs)?;
        }
        self.result = Some(state.finalize(ngroup, &self.output_types)?);
        Ok(())
    }
}

impl Operator for HashAggExec {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.result.is_none() {
            self.compute()?;
        }
        let result = self.result.as_ref().expect("computed");
        if self.offset >= result.num_rows() {
            return Ok(None);
        }
        let end = (self.offset + self.vector_size).min(result.num_rows());
        let out = result.slice(self.offset, end);
        self.offset = end;
        Ok(Some(out))
    }

    fn close(&mut self) {
        self.result = None;
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::physical::drain;
    use crate::exec::simple::ValuesExec;
    use crate::expr::BinaryOp;

    fn source(rows: Vec<(i64, f64)>) -> Box<dyn Operator> {
        let rows = rows.into_iter().map(|(a, b)| vec![Value::Int(a), Value::Float(b)]).collect();
        Box::new(ValuesExec::new(rows, vec![DataType::Int, DataType::Float]))
    }

    fn collect_rows(batches: Vec<Batch>) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for b in batches {
            for r in 0..b.num_rows() {
                out.push(b.row(r));
            }
        }
        out
    }

    #[test]
    fn grouped_sum_and_count() {
        let agg = HashAggExec::new(
            source(vec![(1, 1.0), (2, 2.0), (1, 3.0), (2, 4.0), (1, 5.0)]),
            vec![Expr::col(0)],
            vec![
                AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
                AggSpec { func: AggFunc::Count, arg: None },
            ],
            vec![DataType::Int, DataType::Float, DataType::Int],
            1024,
        );
        let rows = collect_rows(drain(Box::new(agg)).unwrap());
        assert_eq!(rows.len(), 2);
        // First-seen order: group 1 then group 2.
        assert_eq!(rows[0], vec![Value::Int(1), Value::Float(9.0), Value::Int(3)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(6.0), Value::Int(2)]);
    }

    #[test]
    fn min_max_avg() {
        let agg = HashAggExec::new(
            source(vec![(1, 4.0), (1, 2.0), (1, 6.0)]),
            vec![Expr::col(0)],
            vec![
                AggSpec { func: AggFunc::Min, arg: Some(Expr::col(1)) },
                AggSpec { func: AggFunc::Max, arg: Some(Expr::col(1)) },
                AggSpec { func: AggFunc::Avg, arg: Some(Expr::col(1)) },
            ],
            vec![DataType::Int, DataType::Float, DataType::Float, DataType::Float],
            1024,
        );
        let rows = collect_rows(drain(Box::new(agg)).unwrap());
        assert_eq!(
            rows[0],
            vec![Value::Int(1), Value::Float(2.0), Value::Float(6.0), Value::Float(4.0)]
        );
    }

    #[test]
    fn integer_sum_stays_integer() {
        let agg = HashAggExec::new(
            source(vec![(1, 0.0), (1, 0.0)]),
            vec![],
            vec![AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(0)) }],
            vec![DataType::Int],
            1024,
        );
        let rows = collect_rows(drain(Box::new(agg)).unwrap());
        assert_eq!(rows[0], vec![Value::Int(2)]);
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_one_row() {
        let agg = HashAggExec::new(
            source(vec![]),
            vec![],
            vec![
                AggSpec { func: AggFunc::Count, arg: None },
                AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
            ],
            vec![DataType::Int, DataType::Float],
            1024,
        );
        let rows = collect_rows(drain(Box::new(agg)).unwrap());
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Float(0.0)]]);
    }

    #[test]
    fn min_over_empty_input_errors() {
        let agg = HashAggExec::new(
            source(vec![]),
            vec![],
            vec![AggSpec { func: AggFunc::Min, arg: Some(Expr::col(1)) }],
            vec![DataType::Float],
            1024,
        );
        assert!(drain(Box::new(agg)).is_err());
    }

    #[test]
    fn grouped_on_empty_input_emits_nothing() {
        let agg = HashAggExec::new(
            source(vec![]),
            vec![Expr::col(0)],
            vec![AggSpec { func: AggFunc::Count, arg: None }],
            vec![DataType::Int, DataType::Int],
            1024,
        );
        assert!(drain(Box::new(agg)).unwrap().is_empty());
    }

    #[test]
    fn computed_group_keys_and_batched_output() {
        // Group by id % 2 with tiny vector size to force multi-batch output.
        let agg = HashAggExec::new(
            source((0..10).map(|i| (i, i as f64)).collect()),
            vec![Expr::binary(BinaryOp::Mod, Expr::col(0), Expr::lit(Value::Int(2)))],
            vec![AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(1)) }],
            vec![DataType::Int, DataType::Float],
            1,
        );
        let batches = drain(Box::new(agg)).unwrap();
        assert_eq!(batches.len(), 2);
        let rows = collect_rows(batches);
        assert_eq!(rows[0], vec![Value::Int(0), Value::Float(20.0)]);
        assert_eq!(rows[1], vec![Value::Int(1), Value::Float(25.0)]);
    }

    #[test]
    fn string_group_keys_and_min_max() {
        let rows: Vec<Vec<Value>> = [("b", 2), ("a", 5), ("b", 1), ("a", 9)]
            .iter()
            .map(|(s, n)| vec![Value::Str((*s).into()), Value::Int(*n)])
            .collect();
        let agg = HashAggExec::new(
            Box::new(ValuesExec::new(rows, vec![DataType::Str, DataType::Int])),
            vec![Expr::col(0)],
            vec![
                AggSpec { func: AggFunc::Min, arg: Some(Expr::col(0)) },
                AggSpec { func: AggFunc::Max, arg: Some(Expr::col(1)) },
            ],
            vec![DataType::Str, DataType::Str, DataType::Int],
            1024,
        );
        let rows = collect_rows(drain(Box::new(agg)).unwrap());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Str("b".into()), Value::Str("b".into()), Value::Int(2)]);
        assert_eq!(rows[1], vec![Value::Str("a".into()), Value::Str("a".into()), Value::Int(9)]);
    }
}
