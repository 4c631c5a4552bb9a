//! Single-input operators: filter, project, sort, limit, values.

use crate::column::{select_into, Batch, ColumnVector};
use crate::error::{EngineError, Result};
use crate::exec::physical::Operator;
use crate::expr::Expr;
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Applies a boolean predicate and compacts the batch.
pub struct FilterExec {
    input: Box<dyn Operator>,
    predicate: Expr,
    /// Reused selection vector of the current batch.
    selection: Vec<usize>,
}

impl FilterExec {
    pub fn new(input: Box<dyn Operator>, predicate: Expr) -> FilterExec {
        FilterExec { input, predicate, selection: Vec::new() }
    }
}

impl Operator for FilterExec {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        while let Some(batch) = self.input.next()? {
            let mask = self.predicate.eval(&batch)?;
            select_into(mask.as_bool()?, &mut self.selection);
            match self.selection.len() {
                0 => continue,
                kept if kept == batch.num_rows() => return Ok(Some(batch)),
                _ => return Ok(Some(batch.take(&self.selection))),
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.input.close()
    }
}

/// Evaluates projection expressions per batch.
pub struct ProjectExec {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
}

impl ProjectExec {
    pub fn new(input: Box<dyn Operator>, exprs: Vec<Expr>) -> ProjectExec {
        ProjectExec { input, exprs }
    }
}

impl Operator for ProjectExec {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        match self.input.next()? {
            None => Ok(None),
            Some(batch) => {
                let cols: Result<Vec<Arc<ColumnVector>>> =
                    self.exprs.iter().map(|e| e.eval(&batch)).collect();
                Ok(Some(Batch::new(cols?)))
            }
        }
    }

    fn close(&mut self) {
        self.input.close()
    }
}

/// Stops after emitting `n` rows.
pub struct LimitExec {
    input: Box<dyn Operator>,
    remaining: u64,
}

impl LimitExec {
    pub fn new(input: Box<dyn Operator>, n: u64) -> LimitExec {
        LimitExec { input, remaining: n }
    }
}

impl Operator for LimitExec {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            None => Ok(None),
            Some(batch) => {
                let take = (self.remaining as usize).min(batch.num_rows());
                self.remaining -= take as u64;
                if take == batch.num_rows() {
                    Ok(Some(batch))
                } else {
                    Ok(Some(batch.slice(0, take)))
                }
            }
        }
    }

    fn close(&mut self) {
        self.input.close()
    }
}

/// Full sort: materializes the input, sorts row indices by the key
/// expressions, emits `vector_size` slices.
pub struct SortExec {
    input: Box<dyn Operator>,
    keys: Vec<(Expr, bool)>,
    vector_size: usize,
    sorted: Option<Batch>,
    offset: usize,
}

impl SortExec {
    pub fn new(input: Box<dyn Operator>, keys: Vec<(Expr, bool)>, vector_size: usize) -> SortExec {
        SortExec { input, keys, vector_size, sorted: None, offset: 0 }
    }

    fn materialize(&mut self) -> Result<()> {
        let mut batches = Vec::new();
        while let Some(b) = self.input.next()? {
            batches.push(b);
        }
        let all = concat_batches(&batches);
        let rows = all.num_rows();
        if rows == 0 {
            self.sorted = Some(all);
            return Ok(());
        }
        let mut key_cols = Vec::with_capacity(self.keys.len());
        for (expr, asc) in &self.keys {
            key_cols.push((expr.eval(&all)?, *asc));
        }
        let mut indices: Vec<usize> = (0..rows).collect();
        indices.sort_by(|&a, &b| {
            for (col, asc) in &key_cols {
                let ord = col.value(a).total_cmp(&col.value(b));
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        self.sorted = Some(all.take(&indices));
        Ok(())
    }
}

impl Operator for SortExec {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.sorted.is_none() {
            self.materialize()?;
        }
        let sorted = self.sorted.as_ref().expect("materialized");
        if self.offset >= sorted.num_rows() {
            return Ok(None);
        }
        let end = (self.offset + self.vector_size).min(sorted.num_rows());
        let out = sorted.slice(self.offset, end);
        self.offset = end;
        Ok(Some(out))
    }

    fn close(&mut self) {
        self.sorted = None;
        self.input.close()
    }
}

/// Emits literal rows (SELECT without FROM, tests).
pub struct ValuesExec {
    rows: Vec<Vec<Value>>,
    types: Vec<DataType>,
    done: bool,
}

impl ValuesExec {
    pub fn new(rows: Vec<Vec<Value>>, types: Vec<DataType>) -> ValuesExec {
        ValuesExec { rows, types, done: false }
    }
}

impl Operator for ValuesExec {
    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        if self.types.is_empty() {
            // Zero-column relation: row count still matters.
            return Ok(Some(Batch::of_rows(self.rows.len())));
        }
        let mut cols: Vec<ColumnVector> =
            self.types.iter().map(|t| ColumnVector::empty(*t)).collect();
        for row in &self.rows {
            if row.len() != cols.len() {
                return Err(EngineError::Execution("ragged VALUES row".into()));
            }
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v.clone())?;
            }
        }
        Ok(Some(Batch::new(cols)))
    }
}

/// Replays pre-computed batches (the parallel driver's gather point).
pub struct BatchesExec {
    batches: std::vec::IntoIter<Batch>,
}

impl BatchesExec {
    pub fn new(batches: Vec<Batch>) -> BatchesExec {
        BatchesExec { batches: batches.into_iter() }
    }
}

impl Operator for BatchesExec {
    fn next(&mut self) -> Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

/// Concatenate batches into one (empty input gives a zero-row, zero-column
/// batch). Output capacity is reserved up front, so each column is filled
/// by one append pass without intermediate reallocation.
pub fn concat_batches(batches: &[Batch]) -> Batch {
    let Some(first) = batches.first() else {
        return Batch::of_rows(0);
    };
    if batches.len() == 1 {
        return first.clone();
    }
    if first.num_columns() == 0 {
        let rows = batches.iter().map(Batch::num_rows).sum();
        return Batch::of_rows(rows);
    }
    let total: usize = batches.iter().map(Batch::num_rows).sum();
    let mut cols: Vec<ColumnVector> =
        first.columns().iter().map(|c| ColumnVector::with_capacity(c.data_type(), total)).collect();
    for b in batches {
        for (c, src) in cols.iter_mut().zip(b.columns()) {
            c.append(src);
        }
    }
    Batch::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::physical::drain;
    use crate::expr::BinaryOp;

    fn source(nums: Vec<i64>) -> Box<dyn Operator> {
        let rows: Vec<Vec<Value>> = nums.into_iter().map(|n| vec![Value::Int(n)]).collect();
        Box::new(ValuesExec::new(rows, vec![DataType::Int]))
    }

    #[test]
    fn filter_compacts_and_skips_empty() {
        let f = FilterExec::new(
            source(vec![1, 2, 3, 4, 5]),
            Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(Value::Int(3))),
        );
        let out = drain(Box::new(f)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].column(0), &ColumnVector::Int(vec![4, 5]));
    }

    #[test]
    fn filter_yielding_nothing() {
        let f = FilterExec::new(
            source(vec![1, 2]),
            Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(Value::Int(10))),
        );
        assert!(drain(Box::new(f)).unwrap().is_empty());
    }

    #[test]
    fn project_computes_expressions() {
        let p = ProjectExec::new(
            source(vec![1, 2, 3]),
            vec![Expr::binary(BinaryOp::Mul, Expr::col(0), Expr::lit(Value::Int(10)))],
        );
        let out = drain(Box::new(p)).unwrap();
        assert_eq!(out[0].column(0), &ColumnVector::Int(vec![10, 20, 30]));
    }

    #[test]
    fn limit_truncates_mid_batch() {
        let l = LimitExec::new(source(vec![1, 2, 3, 4, 5]), 3);
        let out = drain(Box::new(l)).unwrap();
        let total: usize = out.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn sort_orders_and_slices() {
        let s = SortExec::new(source(vec![3, 1, 2, 5, 4]), vec![(Expr::col(0), true)], 2);
        let out = drain(Box::new(s)).unwrap();
        assert_eq!(out.len(), 3); // 2 + 2 + 1
        let all: Vec<i64> =
            out.iter().flat_map(|b| b.column(0).as_int().unwrap().to_vec()).collect();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn sort_descending_with_ties_is_stable_per_keys() {
        let s = SortExec::new(source(vec![1, 3, 2]), vec![(Expr::col(0), false)], 10);
        let out = drain(Box::new(s)).unwrap();
        assert_eq!(out[0].column(0), &ColumnVector::Int(vec![3, 2, 1]));
    }

    #[test]
    fn concat_handles_empty_and_mixed() {
        assert_eq!(concat_batches(&[]).num_rows(), 0);
        let a = Batch::new(vec![ColumnVector::Int(vec![1])]);
        let b = Batch::new(vec![ColumnVector::Int(vec![2, 3])]);
        let c = concat_batches(&[a, b]);
        assert_eq!(c.column(0), &ColumnVector::Int(vec![1, 2, 3]));
    }

    #[test]
    fn values_zero_columns_keeps_row_count() {
        let v = ValuesExec::new(vec![vec![]], vec![]);
        let out = drain(Box::new(v)).unwrap();
        assert_eq!(out[0].num_rows(), 1);
        assert_eq!(out[0].num_columns(), 0);
    }
}
