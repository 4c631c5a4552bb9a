//! Bound (physical) expressions and their vectorized evaluation.
//!
//! Expressions are bound to column ordinals of their input relation by the
//! planner; evaluation is vector-at-a-time over a [`Batch`].

pub mod scalar;

pub use scalar::ScalarFunc;

use crate::column::{Batch, ColumnVector};
use crate::error::{EngineError, Result};
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Binary operators, in SQL semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }

    /// The comparison that holds for `(b, a)` exactly when `self` holds
    /// for `(a, b)`: `lit < col` is `col > lit`. Non-comparisons map to
    /// themselves.
    fn flip(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }

    pub fn sql_symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// A bound expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Reference to input column by ordinal.
    Column(usize),
    /// A constant.
    Literal(Value),
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    /// Searched CASE: `CASE WHEN cond THEN value ... ELSE value END`.
    /// (The binder desugars simple CASE into this form.)
    Case {
        whens: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Func {
        func: ScalarFunc,
        args: Vec<Expr>,
    },
    Cast {
        expr: Box<Expr>,
        to: DataType,
    },
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// Result type given input column types.
    pub fn data_type(&self, input: &[DataType]) -> Result<DataType> {
        match self {
            Expr::Column(i) => input
                .get(*i)
                .copied()
                .ok_or_else(|| EngineError::Plan(format!("column ordinal {i} out of range"))),
            Expr::Literal(v) => Ok(v.data_type()),
            Expr::Binary { op, left, right } => {
                let l = left.data_type(input)?;
                let r = right.data_type(input)?;
                if op.is_comparison() {
                    if l != r && !(l.is_numeric() && r.is_numeric()) {
                        return Err(EngineError::Type(format!(
                            "cannot compare {} with {}",
                            l.name(),
                            r.name()
                        )));
                    }
                    Ok(DataType::Bool)
                } else if op.is_arithmetic() {
                    l.promote(r)
                } else {
                    // AND / OR
                    if l != DataType::Bool || r != DataType::Bool {
                        return Err(EngineError::Type(format!(
                            "{} requires boolean operands",
                            op.sql_symbol()
                        )));
                    }
                    Ok(DataType::Bool)
                }
            }
            Expr::Unary { op: UnaryOp::Neg, expr } => {
                let t = expr.data_type(input)?;
                if !t.is_numeric() {
                    return Err(EngineError::Type(format!("cannot negate {}", t.name())));
                }
                Ok(t)
            }
            Expr::Unary { op: UnaryOp::Not, expr } => {
                if expr.data_type(input)? != DataType::Bool {
                    return Err(EngineError::Type("NOT requires a boolean operand".into()));
                }
                Ok(DataType::Bool)
            }
            Expr::Case { whens, else_expr } => {
                let mut result: Option<DataType> = None;
                for (cond, value) in whens {
                    if cond.data_type(input)? != DataType::Bool {
                        return Err(EngineError::Type(
                            "CASE WHEN condition must be boolean".into(),
                        ));
                    }
                    let t = value.data_type(input)?;
                    result = Some(match result {
                        None => t,
                        Some(prev) if prev == t => prev,
                        Some(prev) => prev.promote(t)?,
                    });
                }
                if let Some(e) = else_expr {
                    let t = e.data_type(input)?;
                    result = Some(match result {
                        None => t,
                        Some(prev) if prev == t => prev,
                        Some(prev) => prev.promote(t)?,
                    });
                }
                result.ok_or_else(|| EngineError::Plan("CASE with no branches".into()))
            }
            Expr::Func { func, args } => func.return_type(args, input),
            Expr::Cast { to, .. } => Ok(*to),
        }
    }

    /// Vectorized evaluation over a batch. A column reference returns the
    /// batch's own shared vector (a pointer copy); every other node
    /// computes a new one.
    pub fn eval(&self, batch: &Batch) -> Result<Arc<ColumnVector>> {
        match self {
            Expr::Column(i) => Ok(Arc::clone(batch.shared_column(*i))),
            Expr::Literal(v) => Ok(Arc::new(ColumnVector::repeat(v, batch.num_rows()))),
            Expr::Binary { op, left, right } => {
                if op.is_comparison() {
                    // `col <op> literal`, literal on either side, compares
                    // the column against the scalar; no broadcast vector.
                    let literal_side = match (&**left, &**right) {
                        (_, Expr::Literal(v)) => Some((left, v, false)),
                        (Expr::Literal(v), _) => Some((right, v, true)),
                        _ => None,
                    };
                    if let Some((expr, v, flipped)) = literal_side {
                        let col = expr.eval(batch)?;
                        let scalar_op = if flipped { op.flip() } else { *op };
                        if let Some(mask) = compare_scalar(scalar_op, &col, v) {
                            return Ok(Arc::new(mask));
                        }
                        // Mixed types: broadcast the literal and cast.
                        let lit = ColumnVector::repeat(v, batch.num_rows());
                        let (l, r) = if flipped { (&lit, &*col) } else { (&*col, &lit) };
                        return Ok(Arc::new(eval_binary(*op, l, r)?));
                    }
                }
                let l = left.eval(batch)?;
                let r = right.eval(batch)?;
                Ok(Arc::new(eval_binary(*op, &l, &r)?))
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(batch)?;
                let out = match op {
                    UnaryOp::Neg => match &*v {
                        ColumnVector::Int(xs) => ColumnVector::Int(xs.iter().map(|x| -x).collect()),
                        ColumnVector::Float(xs) => {
                            ColumnVector::Float(xs.iter().map(|x| -x).collect())
                        }
                        other => {
                            return Err(EngineError::Type(format!(
                                "cannot negate {}",
                                other.data_type().name()
                            )))
                        }
                    },
                    UnaryOp::Not => {
                        let b = v.as_bool()?;
                        ColumnVector::Bool(b.iter().map(|x| !x).collect())
                    }
                };
                Ok(Arc::new(out))
            }
            Expr::Case { whens, else_expr } => {
                Ok(Arc::new(eval_case(whens, else_expr.as_deref(), batch)?))
            }
            Expr::Func { func, args } => {
                let evaluated: Result<Vec<Arc<ColumnVector>>> =
                    args.iter().map(|a| a.eval(batch)).collect();
                Ok(Arc::new(func.eval(&evaluated?, batch.num_rows())?))
            }
            Expr::Cast { expr, to } => {
                let v = expr.eval(batch)?;
                if v.data_type() == *to {
                    return Ok(v);
                }
                Ok(Arc::new(v.cast(*to)?))
            }
        }
    }

    /// Collect all referenced column ordinals.
    pub fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            Expr::Column(i) => {
                out.insert(*i);
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Case { whens, else_expr } => {
                for (c, v) in whens {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                if let Some(e) = else_expr {
                    e.collect_columns(out);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            Expr::Cast { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Referenced column ordinals as a sorted set.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut s = BTreeSet::new();
        self.collect_columns(&mut s);
        s
    }

    /// Rewrite column ordinals through `f`.
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        self.transform(&|e| match e {
            Expr::Column(i) => Some(Expr::Column(f(*i))),
            _ => None,
        })
    }

    /// Replace every column reference `i` with `replacements[i]` — used to
    /// push predicates through projections.
    pub fn substitute(&self, replacements: &[Expr]) -> Expr {
        self.transform(&|e| match e {
            Expr::Column(i) => Some(replacements[*i].clone()),
            _ => None,
        })
    }

    /// Bottom-up rewriting: `f` returns `Some(replacement)` to rewrite a
    /// node (children already rewritten), `None` to keep it.
    pub fn transform(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = match self {
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: Box::new(expr.transform(f)) },
            Expr::Case { whens, else_expr } => Expr::Case {
                whens: whens.iter().map(|(c, v)| (c.transform(f), v.transform(f))).collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.transform(f))),
            },
            Expr::Func { func, args } => {
                Expr::Func { func: *func, args: args.iter().map(|a| a.transform(f)).collect() }
            }
            Expr::Cast { expr, to } => Expr::Cast { expr: Box::new(expr.transform(f)), to: *to },
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }

    /// Split a conjunction into its AND-ed conjuncts.
    pub fn split_conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::Binary { op: BinaryOp::And, left, right } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            other => vec![other.clone()],
        }
    }

    /// AND together a list of conjuncts (empty list → TRUE).
    pub fn conjoin(conjuncts: Vec<Expr>) -> Expr {
        conjuncts
            .into_iter()
            .reduce(|a, b| Expr::binary(BinaryOp::And, a, b))
            .unwrap_or(Expr::Literal(Value::Bool(true)))
    }
}

fn compare(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// `f64::total_cmp`'s ordering key: comparing two keys as `i64` orders the
/// floats exactly as `total_cmp` does (it is how `total_cmp` is defined).
#[inline]
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// `key(v[i]) <op> x` for every row, the op matched once per batch so each
/// arm is a straight loop over the slice.
fn compare_keys<T: Copy, K: Ord + Copy>(
    v: &[T],
    key: impl Fn(T) -> K,
    x: K,
    op: BinaryOp,
) -> Vec<bool> {
    let keys = v.iter().map(|&a| key(a));
    match op {
        BinaryOp::Eq => keys.map(|k| k == x).collect(),
        BinaryOp::NotEq => keys.map(|k| k != x).collect(),
        BinaryOp::Lt => keys.map(|k| k < x).collect(),
        BinaryOp::LtEq => keys.map(|k| k <= x).collect(),
        BinaryOp::Gt => keys.map(|k| k > x).collect(),
        BinaryOp::GtEq => keys.map(|k| k >= x).collect(),
        _ => unreachable!("not a comparison"),
    }
}

/// `col <op> lit` over a borrowed INT or FLOAT column and a scalar of the
/// same type, with the same result as the vector-vs-vector path (`cmp` for
/// INT, `total_cmp` for FLOAT). `None` for every other pairing, which takes
/// the general path.
fn compare_scalar(op: BinaryOp, col: &ColumnVector, lit: &Value) -> Option<ColumnVector> {
    let mask = match (col, lit) {
        (ColumnVector::Int(v), Value::Int(x)) => compare_keys(v, |a| a, *x, op),
        (ColumnVector::Float(v), Value::Float(x)) => {
            compare_keys(v, total_order_key, total_order_key(*x), op)
        }
        _ => return None,
    };
    Some(ColumnVector::Bool(mask))
}

fn eval_binary(op: BinaryOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    if l.len() != r.len() {
        return Err(EngineError::Execution(format!(
            "operand length mismatch: {} vs {}",
            l.len(),
            r.len()
        )));
    }
    if op.is_arithmetic() {
        return eval_arithmetic(op, l, r);
    }
    if op.is_comparison() {
        // Fast typed paths.
        return match (l, r) {
            (ColumnVector::Int(a), ColumnVector::Int(b)) => Ok(ColumnVector::Bool(
                a.iter().zip(b).map(|(x, y)| compare(op, x.cmp(y))).collect(),
            )),
            (ColumnVector::Float(a), ColumnVector::Float(b)) => Ok(ColumnVector::Bool(
                a.iter().zip(b).map(|(x, y)| compare(op, x.total_cmp(y))).collect(),
            )),
            (ColumnVector::Str(a), ColumnVector::Str(b)) => Ok(ColumnVector::Bool(
                a.iter().zip(b).map(|(x, y)| compare(op, x.cmp(y))).collect(),
            )),
            (ColumnVector::Bool(a), ColumnVector::Bool(b)) => Ok(ColumnVector::Bool(
                a.iter().zip(b).map(|(x, y)| compare(op, x.cmp(y))).collect(),
            )),
            (a, b) if a.data_type().is_numeric() && b.data_type().is_numeric() => {
                let a = a.cast(DataType::Float)?;
                let b = b.cast(DataType::Float)?;
                eval_binary(op, &a, &b)
            }
            (a, b) => Err(EngineError::Type(format!(
                "cannot compare {} with {}",
                a.data_type().name(),
                b.data_type().name()
            ))),
        };
    }
    // AND / OR
    let a = l.as_bool()?;
    let b = r.as_bool()?;
    let out = match op {
        BinaryOp::And => a.iter().zip(b).map(|(x, y)| *x && *y).collect(),
        BinaryOp::Or => a.iter().zip(b).map(|(x, y)| *x || *y).collect(),
        _ => unreachable!(),
    };
    Ok(ColumnVector::Bool(out))
}

fn eval_arithmetic(op: BinaryOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    match (l, r) {
        (ColumnVector::Int(a), ColumnVector::Int(b)) => {
            let mut out = Vec::with_capacity(a.len());
            for (x, y) in a.iter().zip(b) {
                out.push(match op {
                    BinaryOp::Add => x.wrapping_add(*y),
                    BinaryOp::Sub => x.wrapping_sub(*y),
                    BinaryOp::Mul => x.wrapping_mul(*y),
                    BinaryOp::Div => {
                        if *y == 0 {
                            return Err(EngineError::Execution("integer division by zero".into()));
                        }
                        x / y
                    }
                    BinaryOp::Mod => {
                        if *y == 0 {
                            return Err(EngineError::Execution("integer modulo by zero".into()));
                        }
                        x % y
                    }
                    _ => unreachable!(),
                });
            }
            Ok(ColumnVector::Int(out))
        }
        (a, b) if a.data_type().is_numeric() && b.data_type().is_numeric() => {
            let af = a.cast(DataType::Float)?;
            let bf = b.cast(DataType::Float)?;
            let (ColumnVector::Float(xs), ColumnVector::Float(ys)) = (&af, &bf) else {
                unreachable!("cast to float");
            };
            let out = xs
                .iter()
                .zip(ys)
                .map(|(x, y)| match op {
                    BinaryOp::Add => x + y,
                    BinaryOp::Sub => x - y,
                    BinaryOp::Mul => x * y,
                    BinaryOp::Div => x / y,
                    BinaryOp::Mod => x % y,
                    _ => unreachable!(),
                })
                .collect();
            Ok(ColumnVector::Float(out))
        }
        (a, b) => Err(EngineError::Type(format!(
            "cannot apply {} to {} and {}",
            op.sql_symbol(),
            a.data_type().name(),
            b.data_type().name()
        ))),
    }
}

fn eval_case(
    whens: &[(Expr, Expr)],
    else_expr: Option<&Expr>,
    batch: &Batch,
) -> Result<ColumnVector> {
    let rows = batch.num_rows();
    // Evaluate all branch values, then select per row. Branch result types
    // are unified by promotion.
    let mut conds = Vec::with_capacity(whens.len());
    let mut values = Vec::with_capacity(whens.len() + 1);
    for (c, v) in whens {
        conds.push(c.eval(batch)?);
        values.push(v.eval(batch)?);
    }
    if let Some(e) = else_expr {
        values.push(e.eval(batch)?);
    }
    let mut out_type = values
        .first()
        .map(|v| v.data_type())
        .ok_or_else(|| EngineError::Plan("CASE with no branches".into()))?;
    for v in &values {
        if v.data_type() != out_type {
            out_type = out_type.promote(v.data_type())?;
        }
    }
    for v in &mut values {
        if v.data_type() != out_type {
            *v = Arc::new(v.cast(out_type)?);
        }
    }
    // Extract the branch masks once; the row loop then runs over plain
    // `&[bool]` slices instead of re-checking the column type per row.
    let masks: Result<Vec<&[bool]>> = conds.iter().map(|c| c.as_bool()).collect();
    let masks = masks?;
    let mut out = ColumnVector::with_capacity(out_type, rows);
    'rows: for row in 0..rows {
        for (bi, mask) in masks.iter().enumerate() {
            if mask[row] {
                out.push_from(&values[bi], row);
                continue 'rows;
            }
        }
        if else_expr.is_some() {
            out.push_from(&values[values.len() - 1], row);
        } else {
            // SQL says NULL; the engine is NULL-free, so a missing ELSE
            // yields the type's zero value and is documented as such.
            out.push(zero_of(out_type))?;
        }
    }
    Ok(out)
}

fn zero_of(t: DataType) -> Value {
    match t {
        DataType::Int => Value::Int(0),
        DataType::Float => Value::Float(0.0),
        DataType::Bool => Value::Bool(false),
        DataType::Str => Value::Str(String::new()),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql_symbol())
            }
            Expr::Unary { op: UnaryOp::Neg, expr } => write!(f, "(-{expr})"),
            Expr::Unary { op: UnaryOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Case { whens, else_expr } => {
                write!(f, "CASE")?;
                for (c, v) in whens {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Func { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::new(vec![
            ColumnVector::Int(vec![1, 2, 3, 4]),
            ColumnVector::Float(vec![0.5, 1.5, 2.5, 3.5]),
            ColumnVector::Bool(vec![true, false, true, false]),
        ])
    }

    #[test]
    fn arithmetic_promotes_int_to_float() {
        let e = Expr::binary(BinaryOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(e.data_type(&[DataType::Int, DataType::Float]).unwrap(), DataType::Float);
        assert_eq!(*e.eval(&batch()).unwrap(), ColumnVector::Float(vec![1.5, 3.5, 5.5, 7.5]));
    }

    #[test]
    fn int_arithmetic_stays_int() {
        let e = Expr::binary(BinaryOp::Mul, Expr::col(0), Expr::lit(Value::Int(10)));
        assert_eq!(*e.eval(&batch()).unwrap(), ColumnVector::Int(vec![10, 20, 30, 40]));
    }

    #[test]
    fn division_by_zero_errors_for_int_not_float() {
        let e = Expr::binary(BinaryOp::Div, Expr::col(0), Expr::lit(Value::Int(0)));
        assert!(e.eval(&batch()).is_err());
        let e = Expr::binary(BinaryOp::Div, Expr::col(1), Expr::lit(Value::Float(0.0)));
        let out = e.eval(&batch()).unwrap();
        assert!(out.as_float().unwrap().iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn comparisons_and_logic() {
        let e = Expr::binary(
            BinaryOp::And,
            Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(Value::Int(1))),
            Expr::binary(BinaryOp::Lt, Expr::col(1), Expr::lit(Value::Float(3.0))),
        );
        assert_eq!(*e.eval(&batch()).unwrap(), ColumnVector::Bool(vec![false, true, true, false]));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let e = Expr::binary(BinaryOp::GtEq, Expr::col(1), Expr::col(0));
        assert_eq!(
            *e.eval(&batch()).unwrap(),
            ColumnVector::Bool(vec![false, false, false, false])
        );
    }

    #[test]
    fn case_selects_per_row_with_promotion() {
        // CASE WHEN c2 THEN col0 ELSE col1 END — int and float branches
        // promote to float.
        let e = Expr::Case {
            whens: vec![(Expr::col(2), Expr::col(0))],
            else_expr: Some(Box::new(Expr::col(1))),
        };
        assert_eq!(
            e.data_type(&[DataType::Int, DataType::Float, DataType::Bool]).unwrap(),
            DataType::Float
        );
        assert_eq!(*e.eval(&batch()).unwrap(), ColumnVector::Float(vec![1.0, 1.5, 3.0, 3.5]));
    }

    #[test]
    fn case_without_else_yields_zero() {
        let e = Expr::Case { whens: vec![(Expr::col(2), Expr::col(0))], else_expr: None };
        assert_eq!(*e.eval(&batch()).unwrap(), ColumnVector::Int(vec![1, 0, 3, 0]));
    }

    #[test]
    fn unary_ops() {
        let neg = Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::col(0)) };
        assert_eq!(*neg.eval(&batch()).unwrap(), ColumnVector::Int(vec![-1, -2, -3, -4]));
        let not = Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::col(2)) };
        assert_eq!(
            *not.eval(&batch()).unwrap(),
            ColumnVector::Bool(vec![false, true, false, true])
        );
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let a = Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(Value::Int(0)));
        let b = Expr::col(2);
        let c = Expr::binary(BinaryOp::Lt, Expr::col(1), Expr::lit(Value::Float(9.0)));
        let all = Expr::conjoin(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(all.split_conjuncts(), vec![a, b, c]);
        assert_eq!(Expr::conjoin(vec![]), Expr::lit(Value::Bool(true)));
    }

    #[test]
    fn column_collection_and_remapping() {
        let e = Expr::binary(BinaryOp::Add, Expr::col(1), Expr::col(3));
        assert_eq!(e.columns().into_iter().collect::<Vec<_>>(), vec![1, 3]);
        let shifted = e.map_columns(&|i| i + 10);
        assert_eq!(shifted.columns().into_iter().collect::<Vec<_>>(), vec![11, 13]);
    }

    #[test]
    fn substitution_inlines_projection_exprs() {
        // predicate: #0 > 5 where projection #0 = colA + colB
        let pred = Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(Value::Int(5)));
        let proj = vec![Expr::binary(BinaryOp::Add, Expr::col(2), Expr::col(4))];
        let pushed = pred.substitute(&proj);
        assert_eq!(
            pushed,
            Expr::binary(
                BinaryOp::Gt,
                Expr::binary(BinaryOp::Add, Expr::col(2), Expr::col(4)),
                Expr::lit(Value::Int(5))
            )
        );
    }

    #[test]
    fn type_errors_are_reported() {
        let e = Expr::binary(BinaryOp::Add, Expr::col(2), Expr::lit(Value::Int(1)));
        assert!(e.data_type(&[DataType::Int, DataType::Float, DataType::Bool]).is_err());
        assert!(e.eval(&batch()).is_err());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::binary(BinaryOp::Mul, Expr::col(0), Expr::lit(Value::Float(2.0)));
        assert_eq!(e.to_string(), "(#0 * 2)");
    }
}
