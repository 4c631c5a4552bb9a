//! Typed column vectors and batches — the unit of vectorized execution.

use crate::error::{EngineError, Result};
use crate::types::{DataType, Value};
use std::sync::Arc;

/// Fill `out` with the index of every set entry of `mask`, in order — the
/// selection vector behind every filter. Branch-free: each row writes its
/// index and the cursor advances by the mask bit (`idx[k] = i; k += m`), so
/// a mask of random selectivity costs no mispredicted branches. Rows go
/// through a 64-entry stack buffer, so the output never holds more than
/// the kept rows, and a 64-row chunk with no set entry (most of a point
/// lookup's mask) is skipped after one vectorized OR.
pub fn select_into(mask: &[bool], out: &mut Vec<usize>) {
    const CHUNK: usize = 64;
    out.clear();
    let mut idx = [0usize; CHUNK];
    for (c, chunk) in mask.chunks(CHUNK).enumerate() {
        if !chunk.iter().fold(false, |any, &m| any | m) {
            continue;
        }
        let base = c * CHUNK;
        let mut k = 0;
        for (i, &m) in chunk.iter().enumerate() {
            // k <= i < CHUNK at every write; the mask only lets the
            // compiler drop the bounds check.
            idx[k & (CHUNK - 1)] = base + i;
            k += m as usize;
        }
        out.extend_from_slice(&idx[..k]);
    }
}

/// The selection vector of `mask`, built as [`select_into`] builds it.
pub fn selection(mask: &[bool]) -> Vec<usize> {
    let mut out = Vec::new();
    select_into(mask, &mut out);
    out
}

/// A typed vector of column values (one attribute, up to `vector_size`
/// rows). This is the x100 "vector" the whole engine operates on.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnVector {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<String>),
}

impl ColumnVector {
    /// An empty vector of the given type.
    pub fn empty(dtype: DataType) -> ColumnVector {
        match dtype {
            DataType::Int => ColumnVector::Int(Vec::new()),
            DataType::Float => ColumnVector::Float(Vec::new()),
            DataType::Bool => ColumnVector::Bool(Vec::new()),
            DataType::Str => ColumnVector::Str(Vec::new()),
        }
    }

    /// An empty vector of the given type with room for `cap` rows.
    pub fn with_capacity(dtype: DataType, cap: usize) -> ColumnVector {
        match dtype {
            DataType::Int => ColumnVector::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnVector::Float(Vec::with_capacity(cap)),
            DataType::Bool => ColumnVector::Bool(Vec::with_capacity(cap)),
            DataType::Str => ColumnVector::Str(Vec::with_capacity(cap)),
        }
    }

    /// A vector repeating `value` `len` times (literal broadcast).
    pub fn repeat(value: &Value, len: usize) -> ColumnVector {
        match value {
            Value::Int(v) => ColumnVector::Int(vec![*v; len]),
            Value::Float(v) => ColumnVector::Float(vec![*v; len]),
            Value::Bool(v) => ColumnVector::Bool(vec![*v; len]),
            Value::Str(v) => ColumnVector::Str(vec![v.clone(); len]),
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Int(_) => DataType::Int,
            ColumnVector::Float(_) => DataType::Float,
            ColumnVector::Bool(_) => DataType::Bool,
            ColumnVector::Str(_) => DataType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int(v) => v.len(),
            ColumnVector::Float(v) => v.len(),
            ColumnVector::Bool(v) => v.len(),
            ColumnVector::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnVector::Int(v) => Value::Int(v[i]),
            ColumnVector::Float(v) => Value::Float(v[i]),
            ColumnVector::Bool(v) => Value::Bool(v[i]),
            ColumnVector::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// Append a value; errors on type mismatch.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (ColumnVector::Int(v), Value::Int(x)) => v.push(x),
            (ColumnVector::Float(v), Value::Float(x)) => v.push(x),
            (ColumnVector::Float(v), Value::Int(x)) => v.push(x as f64),
            (ColumnVector::Bool(v), Value::Bool(x)) => v.push(x),
            (ColumnVector::Str(v), Value::Str(x)) => v.push(x),
            (col, value) => {
                return Err(EngineError::Type(format!(
                    "cannot append {} to a {} column",
                    value.data_type().name(),
                    col.data_type().name()
                )))
            }
        }
        Ok(())
    }

    /// Append row `i` of `other` to `self` (types must match).
    pub fn push_from(&mut self, other: &ColumnVector, i: usize) {
        match (self, other) {
            (ColumnVector::Int(dst), ColumnVector::Int(src)) => dst.push(src[i]),
            (ColumnVector::Float(dst), ColumnVector::Float(src)) => dst.push(src[i]),
            (ColumnVector::Bool(dst), ColumnVector::Bool(src)) => dst.push(src[i]),
            (ColumnVector::Str(dst), ColumnVector::Str(src)) => dst.push(src[i].clone()),
            _ => panic!("push_from: column type mismatch"),
        }
    }

    /// Append all rows of `other`.
    pub fn append(&mut self, other: &ColumnVector) {
        match (self, other) {
            (ColumnVector::Int(dst), ColumnVector::Int(src)) => dst.extend_from_slice(src),
            (ColumnVector::Float(dst), ColumnVector::Float(src)) => dst.extend_from_slice(src),
            (ColumnVector::Bool(dst), ColumnVector::Bool(src)) => dst.extend_from_slice(src),
            (ColumnVector::Str(dst), ColumnVector::Str(src)) => dst.extend(src.iter().cloned()),
            _ => panic!("append: column type mismatch"),
        }
    }

    /// Keep only the rows at `indices` (gather).
    pub fn take(&self, indices: &[usize]) -> ColumnVector {
        match self {
            ColumnVector::Int(v) => ColumnVector::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnVector::Float(v) => ColumnVector::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnVector::Bool(v) => ColumnVector::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnVector::Str(v) => {
                ColumnVector::Str(indices.iter().map(|&i| v[i].clone()).collect())
            }
        }
    }

    /// Gather like [`ColumnVector::take`], but copies each maximal run of
    /// consecutive indices with one slice copy. Wins when the selection
    /// vector is mostly runs (a hash join probing a build side whose rows
    /// are grouped by key); costs one predictable compare per element
    /// otherwise.
    pub fn take_runs(&self, indices: &[usize]) -> ColumnVector {
        fn gather<T: Clone>(v: &[T], indices: &[usize]) -> Vec<T> {
            let mut out = Vec::with_capacity(indices.len());
            let mut i = 0;
            while i < indices.len() {
                let start = indices[i];
                let mut j = i + 1;
                while j < indices.len() && indices[j] == start + (j - i) {
                    j += 1;
                }
                out.extend_from_slice(&v[start..start + (j - i)]);
                i = j;
            }
            out
        }
        match self {
            ColumnVector::Int(v) => ColumnVector::Int(gather(v, indices)),
            ColumnVector::Float(v) => ColumnVector::Float(gather(v, indices)),
            ColumnVector::Bool(v) => ColumnVector::Bool(gather(v, indices)),
            ColumnVector::Str(v) => ColumnVector::Str(gather(v, indices)),
        }
    }

    /// Keep rows where `mask` is true (filter compaction).
    pub fn filter(&self, mask: &[bool]) -> ColumnVector {
        debug_assert_eq!(mask.len(), self.len());
        self.take(&selection(mask))
    }

    /// Rows `from..to` as a new vector.
    pub fn slice(&self, from: usize, to: usize) -> ColumnVector {
        match self {
            ColumnVector::Int(v) => ColumnVector::Int(v[from..to].to_vec()),
            ColumnVector::Float(v) => ColumnVector::Float(v[from..to].to_vec()),
            ColumnVector::Bool(v) => ColumnVector::Bool(v[from..to].to_vec()),
            ColumnVector::Str(v) => ColumnVector::Str(v[from..to].to_vec()),
        }
    }

    /// Cast every element to `to`.
    pub fn cast(&self, to: DataType) -> Result<ColumnVector> {
        if self.data_type() == to {
            return Ok(self.clone());
        }
        match (self, to) {
            (ColumnVector::Int(v), DataType::Float) => {
                Ok(ColumnVector::Float(v.iter().map(|&x| x as f64).collect()))
            }
            (ColumnVector::Float(v), DataType::Int) => {
                Ok(ColumnVector::Int(v.iter().map(|&x| x as i64).collect()))
            }
            _ => {
                let mut out = ColumnVector::empty(to);
                for i in 0..self.len() {
                    out.push(self.value(i).cast(to)?)?;
                }
                Ok(out)
            }
        }
    }

    /// Borrow as `&[f64]`, available only for Float columns.
    pub fn as_float(&self) -> Result<&[f64]> {
        match self {
            ColumnVector::Float(v) => Ok(v),
            other => Err(EngineError::Type(format!(
                "expected FLOAT column, found {}",
                other.data_type().name()
            ))),
        }
    }

    /// Borrow as `&[i64]`, available only for Int columns.
    pub fn as_int(&self) -> Result<&[i64]> {
        match self {
            ColumnVector::Int(v) => Ok(v),
            other => Err(EngineError::Type(format!(
                "expected INT column, found {}",
                other.data_type().name()
            ))),
        }
    }

    /// Borrow as `&[bool]`, available only for Bool columns.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            ColumnVector::Bool(v) => Ok(v),
            other => Err(EngineError::Type(format!(
                "expected BOOLEAN column, found {}",
                other.data_type().name()
            ))),
        }
    }
}

/// A horizontal slice of a relation: one vector per column, all of equal
/// length. The engine streams batches of at most `vector_size` rows between
/// operators.
///
/// Columns are shared: a scan hands out its blocks' vectors, and a column
/// reference or a column-only projection passes them on, each a pointer
/// copy. Only operators that produce new rows (gather, filter, slice,
/// computed expressions) allocate vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    columns: Vec<Arc<ColumnVector>>,
    rows: usize,
}

impl Batch {
    /// A batch of `columns`, owned (`ColumnVector`) or shared
    /// (`Arc<ColumnVector>`).
    pub fn new<C: Into<Arc<ColumnVector>>>(columns: Vec<C>) -> Batch {
        let columns: Vec<Arc<ColumnVector>> = columns.into_iter().map(Into::into).collect();
        let rows = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), rows, "column {i} length differs from column 0");
        }
        Batch { columns, rows }
    }

    /// A batch with zero columns but `rows` rows (used by `SELECT` without
    /// column references, e.g. `SELECT 1 FROM t`).
    pub fn of_rows(rows: usize) -> Batch {
        Batch { columns: Vec::new(), rows }
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &ColumnVector {
        &self.columns[i]
    }

    /// Column `i` as the shared vector; cloning it is a pointer copy.
    pub fn shared_column(&self, i: usize) -> &Arc<ColumnVector> {
        &self.columns[i]
    }

    /// The columns, borrowed as plain vectors.
    pub fn columns(&self) -> Columns<'_> {
        Columns(&self.columns)
    }

    pub fn into_columns(self) -> Vec<Arc<ColumnVector>> {
        self.columns
    }

    /// The columns as owned vectors: moved out where this batch holds the
    /// only reference, copied where a block or another batch shares them.
    pub fn into_owned_columns(self) -> Vec<ColumnVector> {
        self.columns.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// Row `i` as a vector of values (slow path, for tests and result sets).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Filter all columns by a boolean mask.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        debug_assert_eq!(mask.len(), self.rows);
        self.take(&selection(mask))
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Batch {
        let columns = self.columns.iter().map(|c| Arc::new(c.take(indices))).collect();
        Batch { columns, rows: indices.len() }
    }

    /// Gather rows by index, run-optimized ([`ColumnVector::take_runs`]).
    pub fn take_runs(&self, indices: &[usize]) -> Batch {
        let columns = self.columns.iter().map(|c| Arc::new(c.take_runs(indices))).collect();
        Batch { columns, rows: indices.len() }
    }

    /// Rows `from..to`.
    pub fn slice(&self, from: usize, to: usize) -> Batch {
        let columns = self.columns.iter().map(|c| Arc::new(c.slice(from, to))).collect();
        Batch { columns, rows: to - from }
    }
}

/// A batch's columns borrowed as plain vectors ([`Batch::columns`]).
#[derive(Clone, Copy, Debug)]
pub struct Columns<'a>(&'a [Arc<ColumnVector>]);

impl<'a> Columns<'a> {
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a ColumnVector> {
        self.into_iter()
    }
}

impl<'a> IntoIterator for Columns<'a> {
    type Item = &'a ColumnVector;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, Arc<ColumnVector>>,
        fn(&'a Arc<ColumnVector>) -> &'a ColumnVector,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|c| &**c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_types_with_int_widening() {
        let mut col = ColumnVector::empty(DataType::Float);
        col.push(Value::Float(1.5)).unwrap();
        col.push(Value::Int(2)).unwrap(); // widening allowed
        assert_eq!(col.value(1), Value::Float(2.0));
        assert!(col.push(Value::Str("x".into())).is_err());
    }

    #[test]
    fn take_runs_matches_take() {
        let col = ColumnVector::Int((0..100).collect());
        for indices in [
            vec![],
            vec![7],
            vec![3, 4, 5, 6],
            vec![5, 4, 3],
            vec![0, 1, 2, 50, 51, 9, 9, 9, 80],
            vec![99, 0, 99],
        ] {
            assert_eq!(col.take_runs(&indices), col.take(&indices), "{indices:?}");
        }
        let s = ColumnVector::Str(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(s.take_runs(&[1, 2, 0]), s.take(&[1, 2, 0]));
    }

    #[test]
    fn filter_and_take() {
        let col = ColumnVector::Int(vec![10, 20, 30, 40]);
        assert_eq!(col.filter(&[true, false, true, false]), ColumnVector::Int(vec![10, 30]));
        assert_eq!(col.take(&[3, 0]), ColumnVector::Int(vec![40, 10]));
        assert_eq!(col.slice(1, 3), ColumnVector::Int(vec![20, 30]));
    }

    #[test]
    fn cast_int_to_float_vectorized() {
        let col = ColumnVector::Int(vec![1, 2]);
        assert_eq!(col.cast(DataType::Float).unwrap(), ColumnVector::Float(vec![1.0, 2.0]));
        assert_eq!(col.cast(DataType::Int).unwrap(), col);
        assert_eq!(
            col.cast(DataType::Str).unwrap(),
            ColumnVector::Str(vec!["1".into(), "2".into()])
        );
    }

    #[test]
    fn batch_consistency() {
        let b = Batch::new(vec![
            ColumnVector::Int(vec![1, 2, 3]),
            ColumnVector::Str(vec!["a".into(), "b".into(), "c".into()]),
        ]);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row(1), vec![Value::Int(2), Value::Str("b".into())]);
        let f = b.filter(&[false, true, true]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(0), vec![Value::Int(2), Value::Str("b".into())]);
    }

    #[test]
    #[should_panic(expected = "length differs")]
    fn batch_rejects_ragged_columns() {
        let _ = Batch::new(vec![ColumnVector::Int(vec![1]), ColumnVector::Int(vec![1, 2])]);
    }

    #[test]
    fn repeat_broadcasts_literals() {
        let c = ColumnVector::repeat(&Value::Float(0.5), 3);
        assert_eq!(c, ColumnVector::Float(vec![0.5; 3]));
    }

    #[test]
    fn typed_accessors() {
        let c = ColumnVector::Float(vec![1.0]);
        assert!(c.as_float().is_ok());
        assert!(c.as_int().is_err());
        assert!(c.as_bool().is_err());
    }
}
