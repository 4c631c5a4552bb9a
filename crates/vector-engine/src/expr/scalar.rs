//! Scalar function registry.
//!
//! The set covers everything ML-To-SQL emits — notably the activation
//! functions of paper Sec. 4.3.5 (`SIGMOID`, `TANH`, `RELU`, and `EXP` from
//! which a sigmoid can be spelled in portable SQL) plus the `SIN` used to
//! generate the paper's LSTM time series.

use crate::column::ColumnVector;
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::types::DataType;
use std::borrow::Borrow;

/// Built-in scalar functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarFunc {
    Exp,
    Ln,
    Sqrt,
    Abs,
    Sin,
    Cos,
    Tanh,
    Sigmoid,
    Relu,
    Floor,
    Ceil,
    Power,
    Least,
    Greatest,
}

impl ScalarFunc {
    /// Parse a function name (case-insensitive). Returns `None` for unknown
    /// names so the binder can try aggregates next.
    pub fn parse(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "EXP" => ScalarFunc::Exp,
            "LN" | "LOG" => ScalarFunc::Ln,
            "SQRT" => ScalarFunc::Sqrt,
            "ABS" => ScalarFunc::Abs,
            "SIN" => ScalarFunc::Sin,
            "COS" => ScalarFunc::Cos,
            "TANH" => ScalarFunc::Tanh,
            "SIGMOID" => ScalarFunc::Sigmoid,
            "RELU" => ScalarFunc::Relu,
            "FLOOR" => ScalarFunc::Floor,
            "CEIL" | "CEILING" => ScalarFunc::Ceil,
            "POWER" | "POW" => ScalarFunc::Power,
            "LEAST" => ScalarFunc::Least,
            "GREATEST" => ScalarFunc::Greatest,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Exp => "EXP",
            ScalarFunc::Ln => "LN",
            ScalarFunc::Sqrt => "SQRT",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Sin => "SIN",
            ScalarFunc::Cos => "COS",
            ScalarFunc::Tanh => "TANH",
            ScalarFunc::Sigmoid => "SIGMOID",
            ScalarFunc::Relu => "RELU",
            ScalarFunc::Floor => "FLOOR",
            ScalarFunc::Ceil => "CEIL",
            ScalarFunc::Power => "POWER",
            ScalarFunc::Least => "LEAST",
            ScalarFunc::Greatest => "GREATEST",
        }
    }

    fn arity(self) -> (usize, usize) {
        match self {
            ScalarFunc::Power => (2, 2),
            ScalarFunc::Least | ScalarFunc::Greatest => (2, usize::MAX),
            _ => (1, 1),
        }
    }

    /// Result type; validates arity and argument types.
    pub fn return_type(self, args: &[Expr], input: &[DataType]) -> Result<DataType> {
        let (min, max) = self.arity();
        if args.len() < min || args.len() > max {
            return Err(EngineError::Plan(format!(
                "{} expects {} argument(s), got {}",
                self.name(),
                if min == max { min.to_string() } else { format!("{min}+") },
                args.len()
            )));
        }
        let mut result = DataType::Int;
        for a in args {
            let t = a.data_type(input)?;
            if !t.is_numeric() {
                return Err(EngineError::Type(format!(
                    "{} requires numeric arguments, got {}",
                    self.name(),
                    t.name()
                )));
            }
            if t == DataType::Float {
                result = DataType::Float;
            }
        }
        match self {
            // Transcendentals always produce floats.
            ScalarFunc::Exp
            | ScalarFunc::Ln
            | ScalarFunc::Sqrt
            | ScalarFunc::Sin
            | ScalarFunc::Cos
            | ScalarFunc::Tanh
            | ScalarFunc::Sigmoid
            | ScalarFunc::Power => Ok(DataType::Float),
            // Shape-preserving functions keep the promoted argument type.
            ScalarFunc::Abs
            | ScalarFunc::Relu
            | ScalarFunc::Floor
            | ScalarFunc::Ceil
            | ScalarFunc::Least
            | ScalarFunc::Greatest => Ok(result),
        }
    }

    /// Vectorized evaluation over pre-evaluated argument columns, owned or
    /// shared.
    pub fn eval<C: Borrow<ColumnVector>>(self, args: &[C], rows: usize) -> Result<ColumnVector> {
        let args: Vec<&ColumnVector> = args.iter().map(Borrow::borrow).collect();
        let (min, max) = self.arity();
        if args.len() < min || args.len() > max {
            return Err(EngineError::Execution(format!(
                "{}: wrong argument count {}",
                self.name(),
                args.len()
            )));
        }
        match self {
            ScalarFunc::Power => {
                let a = args[0].cast(DataType::Float)?;
                let b = args[1].cast(DataType::Float)?;
                let (xs, ys) = (a.as_float()?, b.as_float()?);
                Ok(ColumnVector::Float(xs.iter().zip(ys).map(|(x, y)| x.powf(*y)).collect()))
            }
            ScalarFunc::Least | ScalarFunc::Greatest => {
                let all_int = args.iter().all(|a| a.data_type() == DataType::Int);
                if all_int {
                    let cols: Result<Vec<&[i64]>> = args.iter().map(|a| a.as_int()).collect();
                    let cols = cols?;
                    let mut out = Vec::with_capacity(rows);
                    for r in 0..rows {
                        let mut acc = cols[0][r];
                        for c in &cols[1..] {
                            acc = if self == ScalarFunc::Least {
                                acc.min(c[r])
                            } else {
                                acc.max(c[r])
                            };
                        }
                        out.push(acc);
                    }
                    Ok(ColumnVector::Int(out))
                } else {
                    let cast: Result<Vec<ColumnVector>> =
                        args.iter().map(|a| a.cast(DataType::Float)).collect();
                    let cast = cast?;
                    let cols: Result<Vec<&[f64]>> = cast.iter().map(|a| a.as_float()).collect();
                    let cols = cols?;
                    let mut out = Vec::with_capacity(rows);
                    for r in 0..rows {
                        let mut acc = cols[0][r];
                        for c in &cols[1..] {
                            acc = if self == ScalarFunc::Least {
                                acc.min(c[r])
                            } else {
                                acc.max(c[r])
                            };
                        }
                        out.push(acc);
                    }
                    Ok(ColumnVector::Float(out))
                }
            }
            ScalarFunc::Abs | ScalarFunc::Relu if args[0].data_type() == DataType::Int => {
                let xs = args[0].as_int()?;
                let out = xs
                    .iter()
                    .map(|&x| if self == ScalarFunc::Abs { x.abs() } else { x.max(0) })
                    .collect();
                Ok(ColumnVector::Int(out))
            }
            ScalarFunc::Floor | ScalarFunc::Ceil if args[0].data_type() == DataType::Int => {
                Ok(args[0].clone())
            }
            _ => {
                let a = args[0].cast(DataType::Float)?;
                let xs = a.as_float()?;
                let out: Vec<f64> = xs
                    .iter()
                    .map(|&x| match self {
                        ScalarFunc::Exp => x.exp(),
                        ScalarFunc::Ln => x.ln(),
                        ScalarFunc::Sqrt => x.sqrt(),
                        ScalarFunc::Abs => x.abs(),
                        ScalarFunc::Sin => x.sin(),
                        ScalarFunc::Cos => x.cos(),
                        ScalarFunc::Tanh => x.tanh(),
                        ScalarFunc::Sigmoid => 1.0 / (1.0 + (-x).exp()),
                        ScalarFunc::Relu => x.max(0.0),
                        ScalarFunc::Floor => x.floor(),
                        ScalarFunc::Ceil => x.ceil(),
                        _ => unreachable!("handled above"),
                    })
                    .collect();
                Ok(ColumnVector::Float(out))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn floats(v: Vec<f64>) -> ColumnVector {
        ColumnVector::Float(v)
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!(ScalarFunc::parse("sigmoid"), Some(ScalarFunc::Sigmoid));
        assert_eq!(ScalarFunc::parse("TANH"), Some(ScalarFunc::Tanh));
        assert_eq!(ScalarFunc::parse("nosuch"), None);
    }

    #[test]
    fn activations_match_reference() {
        let xs = floats(vec![-2.0, 0.0, 2.0]);
        let sig = ScalarFunc::Sigmoid.eval(std::slice::from_ref(&xs), 3).unwrap();
        let sig = sig.as_float().unwrap();
        assert!((sig[1] - 0.5).abs() < 1e-12);
        assert!((sig[2] - 1.0 / (1.0 + (-2.0f64).exp())).abs() < 1e-12);

        let relu = ScalarFunc::Relu.eval(std::slice::from_ref(&xs), 3).unwrap();
        assert_eq!(relu, floats(vec![0.0, 0.0, 2.0]));

        let tanh = ScalarFunc::Tanh.eval(&[xs], 3).unwrap();
        assert!((tanh.as_float().unwrap()[2] - 2.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn relu_preserves_int_type() {
        let xs = ColumnVector::Int(vec![-3, 0, 3]);
        assert_eq!(ScalarFunc::Relu.eval(&[xs], 3).unwrap(), ColumnVector::Int(vec![0, 0, 3]));
    }

    #[test]
    fn power_and_variadic_extremes() {
        let a = floats(vec![2.0, 3.0]);
        let b = floats(vec![3.0, 2.0]);
        assert_eq!(
            ScalarFunc::Power.eval(&[a.clone(), b.clone()], 2).unwrap(),
            floats(vec![8.0, 9.0])
        );
        let c = floats(vec![10.0, -5.0]);
        assert_eq!(
            ScalarFunc::Least.eval(&[a.clone(), b.clone(), c.clone()], 2).unwrap(),
            floats(vec![2.0, -5.0])
        );
        assert_eq!(ScalarFunc::Greatest.eval(&[a, b, c], 2).unwrap(), floats(vec![10.0, 3.0]));
    }

    #[test]
    fn variadic_int_path() {
        let a = ColumnVector::Int(vec![1, 9]);
        let b = ColumnVector::Int(vec![5, 2]);
        assert_eq!(
            ScalarFunc::Least.eval(&[a.clone(), b.clone()], 2).unwrap(),
            ColumnVector::Int(vec![1, 2])
        );
        assert_eq!(ScalarFunc::Greatest.eval(&[a, b], 2).unwrap(), ColumnVector::Int(vec![5, 9]));
    }

    #[test]
    fn return_types() {
        let col = Expr::col(0);
        let input = [DataType::Int];
        assert_eq!(
            ScalarFunc::Sigmoid.return_type(std::slice::from_ref(&col), &input).unwrap(),
            DataType::Float
        );
        assert_eq!(
            ScalarFunc::Abs.return_type(std::slice::from_ref(&col), &input).unwrap(),
            DataType::Int
        );
        assert!(ScalarFunc::Power.return_type(std::slice::from_ref(&col), &input).is_err());
        let s = Expr::lit(Value::Str("x".into()));
        assert!(ScalarFunc::Exp.return_type(&[s], &input).is_err());
    }

    #[test]
    fn floor_on_ints_is_identity() {
        let xs = ColumnVector::Int(vec![7]);
        assert_eq!(ScalarFunc::Floor.eval(std::slice::from_ref(&xs), 1).unwrap(), xs);
    }
}
