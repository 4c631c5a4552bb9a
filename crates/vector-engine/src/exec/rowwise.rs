//! The seed value-at-a-time join and aggregation operators, retained
//! verbatim (renamed `Row*`) after the vectorized rewrite of
//! [`crate::exec::join`] / [`crate::exec::agg`].
//!
//! Their one role is the **naive oracle** the property tests pin the
//! vectorized operators against (`tests/exec_equivalence.rs`); no query
//! plan builds them.
//!
//! Their cost profile is exactly what the rewrite removes: a heap-allocated
//! `Vec<KeyPart>` per row (cloning every string key), SipHash over an enum
//! tree, and per-cell `Value` round-trips through the accumulator dispatch.

use crate::column::{Batch, ColumnVector};
use crate::error::{EngineError, Result};
use crate::exec::physical::Operator;
use crate::exec::simple::concat_batches;
use crate::expr::Expr;
use crate::plan::logical::{AggFunc, AggSpec};
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A hashable, type-normalized join/group key component. Numeric values
/// that represent the same number (e.g. `INT 3` and `FLOAT 3.0`) map to the
/// same key, matching SQL equality.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub enum KeyPart {
    Int(i64),
    /// Non-integral float, by bit pattern (`-0.0` normalized to `0.0`).
    FloatBits(u64),
    Bool(bool),
    Str(String),
}

/// Normalize a value into a [`KeyPart`].
pub fn key_part(v: &Value) -> KeyPart {
    match v {
        Value::Int(i) => KeyPart::Int(*i),
        Value::Float(f) => {
            // Exclusive upper bound: `i64::MAX as f64` rounds up to 2^63,
            // so an inclusive check would saturate the float 2^63 onto
            // i64::MAX (see `hash::float_code`, which must stay in sync).
            if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 {
                KeyPart::Int(*f as i64)
            } else {
                KeyPart::FloatBits(f.to_bits())
            }
        }
        Value::Bool(b) => KeyPart::Bool(*b),
        Value::Str(s) => KeyPart::Str(s.clone()),
    }
}

/// Extract the composite key of row `row` from evaluated key columns.
pub fn row_key(cols: &[Arc<ColumnVector>], row: usize) -> Vec<KeyPart> {
    cols.iter().map(|c| key_part(&c.value(row))).collect()
}

fn glue(left: Batch, right: Batch) -> Batch {
    let mut cols = left.into_columns();
    cols.extend(right.into_columns());
    Batch::new(cols)
}

/// The seed inner hash equi-join: build a `HashMap<Vec<KeyPart>, Vec<usize>>`
/// over the right side, probe one row at a time.
pub struct RowHashJoinExec {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    vector_size: usize,
    built: Option<BuildSide>,
    /// Carry-over matches of the current probe batch.
    pending: Option<Pending>,
}

struct BuildSide {
    batch: Batch,
    table: HashMap<Vec<KeyPart>, Vec<usize>>,
}

struct Pending {
    left_batch: Batch,
    pairs: Vec<(usize, usize)>,
    offset: usize,
}

impl RowHashJoinExec {
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        vector_size: usize,
    ) -> RowHashJoinExec {
        assert_eq!(left_keys.len(), right_keys.len(), "key arity mismatch");
        RowHashJoinExec {
            left,
            right,
            left_keys,
            right_keys,
            vector_size: vector_size.max(1),
            built: None,
            pending: None,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut batches = Vec::new();
        while let Some(b) = self.right.next()? {
            batches.push(b);
        }
        let batch = concat_batches(&batches);
        let mut table: HashMap<Vec<KeyPart>, Vec<usize>> = HashMap::new();
        if batch.num_rows() > 0 {
            let key_cols: Result<Vec<Arc<ColumnVector>>> =
                self.right_keys.iter().map(|e| e.eval(&batch)).collect();
            let key_cols = key_cols?;
            for row in 0..batch.num_rows() {
                table.entry(row_key(&key_cols, row)).or_default().push(row);
            }
        }
        self.built = Some(BuildSide { batch, table });
        Ok(())
    }

    fn emit(&mut self) -> Option<Batch> {
        let build = self.built.as_ref().expect("built");
        let pending = self.pending.as_mut()?;
        if pending.offset >= pending.pairs.len() {
            self.pending = None;
            return None;
        }
        let end = (pending.offset + self.vector_size).min(pending.pairs.len());
        let chunk = &pending.pairs[pending.offset..end];
        let li: Vec<usize> = chunk.iter().map(|p| p.0).collect();
        let ri: Vec<usize> = chunk.iter().map(|p| p.1).collect();
        let out = glue(pending.left_batch.take(&li), build.batch.take(&ri));
        pending.offset = end;
        if pending.offset >= pending.pairs.len() {
            self.pending = None;
        }
        Some(out)
    }
}

impl Operator for RowHashJoinExec {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.built.is_none() {
            self.build()?;
        }
        loop {
            if let Some(batch) = self.emit() {
                return Ok(Some(batch));
            }
            let build_empty = self.built.as_ref().expect("built").table.is_empty();
            let Some(left_batch) = self.left.next()? else {
                return Ok(None);
            };
            if build_empty || left_batch.num_rows() == 0 {
                continue;
            }
            let key_cols: Result<Vec<Arc<ColumnVector>>> =
                self.left_keys.iter().map(|e| e.eval(&left_batch)).collect();
            let key_cols = key_cols?;
            let build = self.built.as_ref().expect("built");
            let mut pairs = Vec::new();
            for row in 0..left_batch.num_rows() {
                if let Some(matches) = build.table.get(&row_key(&key_cols, row)) {
                    for &r in matches {
                        pairs.push((row, r));
                    }
                }
            }
            if pairs.is_empty() {
                continue;
            }
            self.pending = Some(Pending { left_batch, pairs, offset: 0 });
        }
    }

    fn close(&mut self) {
        self.built = None;
        self.pending = None;
        self.left.close();
        self.right.close();
    }
}

/// Per-group accumulator of the seed aggregation.
#[derive(Clone, Debug)]
enum AggState {
    SumInt(i64),
    SumFloat(f64),
    Count(i64),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(spec: &AggSpec, result_type: DataType) -> AggState {
        match spec.func {
            AggFunc::Sum => {
                if result_type == DataType::Int {
                    AggState::SumInt(0)
                } else {
                    AggState::SumFloat(0.0)
                }
            }
            AggFunc::Count => AggState::Count(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(acc) => {
                let x = value.expect("SUM has an argument").as_i64()?;
                *acc = acc
                    .checked_add(x)
                    .ok_or_else(|| EngineError::Execution("SUM overflowed the INT range".into()))?;
            }
            AggState::SumFloat(acc) => {
                *acc += value.expect("SUM has an argument").as_f64()?;
            }
            AggState::Avg { sum, count } => {
                *sum += value.expect("AVG has an argument").as_f64()?;
                *count += 1;
            }
            AggState::Min(cur) => {
                let v = value.expect("MIN has an argument");
                if cur.as_ref().is_none_or(|c| v.total_cmp(c) == Ordering::Less) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                let v = value.expect("MAX has an argument");
                if cur.as_ref().is_none_or(|c| v.total_cmp(c) == Ordering::Greater) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finalize(self) -> Result<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt(v) => Value::Int(v),
            AggState::SumFloat(v) => Value::Float(v),
            // SQL's AVG over an empty group is NULL; in the NULL-free engine
            // the global empty case surfaces as 0.0 (documented).
            AggState::Avg { sum, count } => {
                Value::Float(if count == 0 { 0.0 } else { sum / count as f64 })
            }
            AggState::Min(v) => v.ok_or_else(|| {
                EngineError::Execution("MIN over empty input requires NULL support".into())
            })?,
            AggState::Max(v) => v.ok_or_else(|| {
                EngineError::Execution("MAX over empty input requires NULL support".into())
            })?,
        })
    }
}

/// The seed hash-based grouping aggregation: one `Vec<KeyPart>` lookup and
/// one boxed-`Value` accumulator dispatch per input row. Emits groups in
/// first-seen order, like the vectorized operator.
pub struct RowHashAggExec {
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

impl RowHashAggExec {
    pub fn new(
        input: Box<dyn Operator>,
        group: Vec<Expr>,
        aggs: Vec<AggSpec>,
        output_types: Vec<DataType>,
        vector_size: usize,
    ) -> RowHashAggExec {
        RowHashAggExec {
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
        let agg_types: Vec<DataType> = self.output_types[ngroup..].to_vec();

        // group key -> index into `groups`
        let mut index: HashMap<Vec<KeyPart>, usize> = HashMap::new();
        // first-seen group values + accumulator states
        let mut group_rows: Vec<Vec<Value>> = Vec::new();
        let mut states: Vec<Vec<AggState>> = Vec::new();

        while let Some(batch) = self.input.next()? {
            if batch.num_rows() == 0 {
                continue;
            }
            let key_cols: Result<Vec<Arc<ColumnVector>>> =
                self.group.iter().map(|e| e.eval(&batch)).collect();
            let key_cols = key_cols?;
            let arg_cols: Result<Vec<Option<Arc<ColumnVector>>>> = self
                .aggs
                .iter()
                .map(|s| s.arg.as_ref().map(|a| a.eval(&batch)).transpose())
                .collect();
            let arg_cols = arg_cols?;
            for row in 0..batch.num_rows() {
                let key = row_key(&key_cols, row);
                let gi = match index.get(&key) {
                    Some(&gi) => gi,
                    None => {
                        let gi = group_rows.len();
                        index.insert(key, gi);
                        group_rows.push(key_cols.iter().map(|c| c.value(row)).collect());
                        states.push(
                            self.aggs
                                .iter()
                                .zip(&agg_types)
                                .map(|(s, t)| AggState::new(s, *t))
                                .collect(),
                        );
                        gi
                    }
                };
                for (ai, state) in states[gi].iter_mut().enumerate() {
                    let arg = arg_cols[ai].as_ref().map(|c| c.value(row));
                    state.update(arg.as_ref())?;
                }
            }
        }

        // A global aggregate (no GROUP BY) emits exactly one row even for
        // empty input.
        if ngroup == 0 && group_rows.is_empty() {
            group_rows.push(Vec::new());
            states.push(
                self.aggs.iter().zip(&agg_types).map(|(s, t)| AggState::new(s, *t)).collect(),
            );
        }

        let mut cols: Vec<ColumnVector> =
            self.output_types.iter().map(|t| ColumnVector::empty(*t)).collect();
        for (gvals, gstates) in group_rows.into_iter().zip(states) {
            for (c, v) in cols.iter_mut().zip(gvals.iter()) {
                // Group values can be INT where the schema says FLOAT
                // (promotion); push handles the widening.
                c.push(v.clone().cast(c.data_type())?)?;
            }
            for (ai, state) in gstates.into_iter().enumerate() {
                let v = state.finalize()?;
                let col = &mut cols[ngroup + ai];
                col.push(v.cast(col.data_type())?)?;
            }
        }
        self.result = Some(Batch::new(cols));
        Ok(())
    }
}

impl Operator for RowHashAggExec {
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

    #[test]
    fn key_part_normalization() {
        assert_eq!(key_part(&Value::Int(3)), key_part(&Value::Float(3.0)));
        assert_ne!(key_part(&Value::Float(3.5)), key_part(&Value::Int(3)));
        assert_eq!(key_part(&Value::Float(0.0)), key_part(&Value::Float(-0.0)));
        assert_eq!(key_part(&Value::Str("a".into())), KeyPart::Str("a".into()));
    }

    #[test]
    fn key_part_range_boundaries_match_hash_path() {
        // 2^63 (integral, > i64::MAX) must NOT normalize onto Int.
        let two_63 = 9_223_372_036_854_775_808.0_f64;
        assert_eq!(key_part(&Value::Float(two_63)), KeyPart::FloatBits(two_63.to_bits()));
        assert_ne!(key_part(&Value::Float(two_63)), key_part(&Value::Int(i64::MAX)));
        // -2^63 is exactly i64::MIN and keeps unifying.
        assert_eq!(key_part(&Value::Float(i64::MIN as f64)), KeyPart::Int(i64::MIN));
        // NaN and infinities stay bit-pattern keys.
        assert_eq!(key_part(&Value::Float(f64::NAN)), KeyPart::FloatBits(f64::NAN.to_bits()));
        assert_ne!(key_part(&Value::Float(f64::INFINITY)), key_part(&Value::Float(1e300)));
    }

    #[test]
    fn rowwise_join_and_agg_still_run() {
        let ints = |ns: Vec<i64>| -> Box<dyn Operator> {
            let rows = ns.into_iter().map(|n| vec![Value::Int(n)]).collect();
            Box::new(ValuesExec::new(rows, vec![DataType::Int]))
        };
        let j = RowHashJoinExec::new(
            ints(vec![1, 2, 3]),
            ints(vec![2, 2, 5]),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            1024,
        );
        let batches = drain(Box::new(j)).unwrap();
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 2);

        let a = RowHashAggExec::new(
            ints(vec![1, 1, 2]),
            vec![Expr::col(0)],
            vec![AggSpec { func: AggFunc::Count, arg: None }],
            vec![DataType::Int, DataType::Int],
            1024,
        );
        let batches = drain(Box::new(a)).unwrap();
        assert_eq!(batches[0].row(0), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(batches[0].row(1), vec![Value::Int(2), Value::Int(1)]);
    }
}
