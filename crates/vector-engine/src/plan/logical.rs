//! Logical plan nodes.

use crate::error::{EngineError, Result};
use crate::exec::physical::Operator;
use crate::expr::{BinaryOp, Expr};
use crate::storage::Table;
use crate::types::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// A named, typed output column of a plan node, optionally qualified by a
/// table alias.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanField {
    pub qualifier: Option<String>,
    pub name: String,
    pub dtype: DataType,
}

impl PlanField {
    pub fn new(qualifier: Option<&str>, name: &str, dtype: DataType) -> PlanField {
        PlanField {
            qualifier: qualifier.map(|q| q.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
            dtype,
        }
    }
}

/// The output schema of a plan node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanSchema {
    pub fields: Vec<PlanField>,
}

impl PlanSchema {
    pub fn new(fields: Vec<PlanField>) -> PlanSchema {
        PlanSchema { fields }
    }

    pub fn empty() -> PlanSchema {
        PlanSchema { fields: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Column types in order (used for expression type checking).
    pub fn types(&self) -> Vec<DataType> {
        self.fields.iter().map(|f| f.dtype).collect()
    }

    /// Resolve a possibly-qualified column name to an ordinal. Unqualified
    /// names must be unambiguous.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_lowercase();
        let qualifier = qualifier.map(str::to_ascii_lowercase);
        let mut found: Option<usize> = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.name != name {
                continue;
            }
            if let Some(q) = &qualifier {
                if f.qualifier.as_deref() != Some(q.as_str()) {
                    continue;
                }
            }
            if found.is_some() {
                let shown = qualifier.map(|q| format!("{q}.{name}")).unwrap_or(name);
                return Err(EngineError::Plan(format!("ambiguous column reference {shown:?}")));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            let shown = qualifier.map(|q| format!("{q}.{name}")).unwrap_or(name);
            EngineError::Plan(format!("unknown column {shown:?}"))
        })
    }

    /// Concatenate two schemas (join output).
    pub fn join(left: &PlanSchema, right: &PlanSchema) -> PlanSchema {
        let mut fields = left.fields.clone();
        fields.extend(right.fields.clone());
        PlanSchema { fields }
    }

    /// Replace every field's qualifier (subquery aliasing).
    pub fn requalify(&self, alias: &str) -> PlanSchema {
        let alias = alias.to_ascii_lowercase();
        PlanSchema {
            fields: self
                .fields
                .iter()
                .map(|f| PlanField {
                    qualifier: Some(alias.clone()),
                    name: f.name.clone(),
                    dtype: f.dtype,
                })
                .collect(),
        }
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name; `None` if not an aggregate.
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "SUM" => AggFunc::Sum,
            "COUNT" => AggFunc::Count,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Result type given the (optional) argument type.
    pub fn return_type(self, arg: Option<DataType>) -> Result<DataType> {
        match self {
            AggFunc::Count => Ok(DataType::Int),
            AggFunc::Avg => Ok(DataType::Float),
            AggFunc::Sum => {
                let t = arg.ok_or_else(|| EngineError::Plan("SUM requires an argument".into()))?;
                if !t.is_numeric() {
                    return Err(EngineError::Type("SUM requires a numeric argument".into()));
                }
                Ok(t)
            }
            AggFunc::Min | AggFunc::Max => {
                arg.ok_or_else(|| EngineError::Plan("MIN/MAX require an argument".into()))
            }
        }
    }
}

/// One aggregate computation: function plus bound argument expression
/// (`None` only for `COUNT(*)`).
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

/// A block-pruning predicate attached to a scan: `column op literal`,
/// checked against each block's min/max SMA before the block is read.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunePredicate {
    pub column: usize,
    pub op: BinaryOp,
    pub value: Value,
}

/// The model behind a [`LogicalPlan::Infer`] node. The planner sees only
/// its arity; the crate that implements it (`modeljoin`) builds the
/// physical operator, so this trait object is the one seam between the
/// engine and inference.
pub trait InferModel: Send + Sync {
    /// The name plan renderings show.
    fn name(&self) -> &str;
    /// Model input columns: the arguments a node must pass.
    fn input_dim(&self) -> usize;
    /// Prediction columns appended to every input row.
    fn output_dim(&self) -> usize;
    /// The operator of one task: it emits every column of `input`, then
    /// `output_dim` Float predictions of the model over the `args`
    /// columns. The model itself is built or looked up on the operator's
    /// first `next()` (paper Fig. 5), never here.
    fn operator(&self, input: Box<dyn Operator>, args: &[usize]) -> Box<dyn Operator>;
    /// The model over `rows` row-major input rows of `input_dim` values
    /// each, returning `rows` row-major rows of `output_dim` predictions:
    /// the served-predict path, which has no columnar batch to run an
    /// operator over.
    fn infer_rows(&self, input: &[f32], rows: usize) -> Result<Vec<f32>>;
}

impl fmt::Debug for dyn InferModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InferModel({})", self.name())
    }
}

/// Logical query plan.
#[derive(Clone, Debug)]
pub enum LogicalPlan {
    /// Full-table scan (optionally restricted to one partition at execution
    /// time by the parallel driver).
    Scan {
        table: Arc<Table>,
        schema: PlanSchema,
        /// SMA pruning predicates installed by the optimizer.
        pruning: Vec<PrunePredicate>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        schema: PlanSchema,
    },
    CrossJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        schema: PlanSchema,
    },
    /// Inner equi-join; key expressions are evaluated against the respective
    /// side (supports computed keys like `node - offset`, the ML-To-SQL
    /// node-ID optimization of Sec. 4.4).
    HashJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        schema: PlanSchema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<Expr>,
        aggs: Vec<AggSpec>,
        schema: PlanSchema,
    },
    Sort {
        input: Box<LogicalPlan>,
        /// `(key expression, ascending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: u64,
    },
    /// Literal rows (used for `SELECT` without `FROM`: one empty row).
    Values {
        rows: Vec<Vec<Value>>,
        schema: PlanSchema,
    },
    /// Row-local inference (`PREDICT(model, input, args…)`): every input
    /// column passes through at its ordinal, then one Float column per
    /// model output. Plan walkers treat it as a projection of its input.
    Infer {
        input: Box<LogicalPlan>,
        /// Input ordinals of the model's arguments, in model order.
        args: Vec<usize>,
        model: Arc<dyn InferModel>,
        schema: PlanSchema,
    },
}

impl LogicalPlan {
    /// A scan of every column of `table`, qualified by `qualifier`.
    pub fn scan(table: Arc<Table>, qualifier: &str) -> LogicalPlan {
        let fields = table
            .schema()
            .columns()
            .iter()
            .map(|c| PlanField::new(Some(qualifier), &c.name, c.dtype))
            .collect();
        LogicalPlan::Scan { table, schema: PlanSchema::new(fields), pruning: Vec::new() }
    }

    /// An [`LogicalPlan::Infer`] node of `model` over `input`. The arity
    /// and the numeric type of every argument are checked here, at bind
    /// time; the outputs are named `prediction`, or `prediction_{j}` for a
    /// multi-output model.
    pub fn infer(
        input: LogicalPlan,
        args: Vec<usize>,
        model: Arc<dyn InferModel>,
    ) -> Result<LogicalPlan> {
        if args.len() != model.input_dim() {
            return Err(EngineError::Plan(format!(
                "model {} expects {} input columns, got {}",
                model.name(),
                model.input_dim(),
                args.len()
            )));
        }
        let mut fields = input.schema().fields.clone();
        for &a in &args {
            if !fields[a].dtype.is_numeric() {
                return Err(EngineError::Type(format!(
                    "model input column {} must be numeric, found {}",
                    fields[a].name,
                    fields[a].dtype.name()
                )));
            }
        }
        let outputs = model.output_dim();
        fields.extend((0..outputs).map(|j| {
            let name = if outputs == 1 { "prediction".into() } else { format!("prediction_{j}") };
            PlanField::new(None, &name, DataType::Float)
        }));
        let schema = PlanSchema::new(fields);
        Ok(LogicalPlan::Infer { input: Box::new(input), args, model, schema })
    }

    /// The node's output schema.
    pub fn schema(&self) -> &PlanSchema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Infer { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::CrossJoin { schema, .. }
            | LogicalPlan::HashJoin { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Values { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Indented plan rendering (EXPLAIN-style), for debugging and tests.
    pub fn display_indent(&self) -> String {
        fn walk(plan: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match plan {
                LogicalPlan::Scan { table, pruning, .. } => {
                    out.push_str(&format!("{pad}Scan {}", table.name()));
                    if !pruning.is_empty() {
                        out.push_str(&format!(" [{} pruning predicate(s)]", pruning.len()));
                    }
                    out.push('\n');
                }
                LogicalPlan::Filter { input, predicate } => {
                    out.push_str(&format!("{pad}Filter {predicate}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Project { input, exprs, .. } => {
                    let list: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                    out.push_str(&format!("{pad}Project {}\n", list.join(", ")));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::CrossJoin { left, right, .. } => {
                    out.push_str(&format!("{pad}CrossJoin\n"));
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
                LogicalPlan::HashJoin { left, right, left_keys, right_keys, .. } => {
                    let l: Vec<String> = left_keys.iter().map(|e| e.to_string()).collect();
                    let r: Vec<String> = right_keys.iter().map(|e| e.to_string()).collect();
                    out.push_str(&format!(
                        "{pad}HashJoin [{}] = [{}]\n",
                        l.join(", "),
                        r.join(", ")
                    ));
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
                LogicalPlan::Aggregate { input, group, aggs, .. } => {
                    let g: Vec<String> = group.iter().map(|e| e.to_string()).collect();
                    let a: Vec<String> = aggs
                        .iter()
                        .map(|s| match &s.arg {
                            Some(e) => format!("{}({e})", s.func.name()),
                            None => format!("{}(*)", s.func.name()),
                        })
                        .collect();
                    out.push_str(&format!(
                        "{pad}Aggregate group=[{}] aggs=[{}]\n",
                        g.join(", "),
                        a.join(", ")
                    ));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Sort { input, keys } => {
                    let k: Vec<String> = keys
                        .iter()
                        .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                        .collect();
                    out.push_str(&format!("{pad}Sort {}\n", k.join(", ")));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Limit { input, n } => {
                    out.push_str(&format!("{pad}Limit {n}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Values { rows, .. } => {
                    out.push_str(&format!("{pad}Values ({} row(s))\n", rows.len()));
                }
                LogicalPlan::Infer { input, args, model, .. } => {
                    let a: Vec<String> = args.iter().map(|i| format!("#{i}")).collect();
                    out.push_str(&format!("{pad}Infer {}({})\n", model.name(), a.join(", ")));
                    walk(input, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> PlanSchema {
        PlanSchema::new(vec![
            PlanField::new(Some("t"), "id", DataType::Int),
            PlanField::new(Some("t"), "v", DataType::Float),
            PlanField::new(Some("m"), "id", DataType::Int),
        ])
    }

    #[test]
    fn resolve_qualified_and_unqualified() {
        let s = schema();
        assert_eq!(s.resolve(Some("t"), "id").unwrap(), 0);
        assert_eq!(s.resolve(Some("m"), "ID").unwrap(), 2);
        assert_eq!(s.resolve(None, "v").unwrap(), 1);
        // `id` appears under two qualifiers.
        assert!(s.resolve(None, "id").unwrap_err().to_string().contains("ambiguous"));
        assert!(s.resolve(None, "missing").is_err());
        assert!(s.resolve(Some("x"), "id").is_err());
    }

    #[test]
    fn join_and_requalify() {
        let l = PlanSchema::new(vec![PlanField::new(Some("a"), "x", DataType::Int)]);
        let r = PlanSchema::new(vec![PlanField::new(Some("b"), "y", DataType::Float)]);
        let j = PlanSchema::join(&l, &r);
        assert_eq!(j.len(), 2);
        let rq = j.requalify("sub");
        assert!(rq.fields.iter().all(|f| f.qualifier.as_deref() == Some("sub")));
        assert_eq!(rq.resolve(Some("sub"), "y").unwrap(), 1);
    }

    #[test]
    fn agg_func_parsing_and_types() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("exp"), None);
        assert_eq!(AggFunc::Count.return_type(None).unwrap(), DataType::Int);
        assert_eq!(AggFunc::Sum.return_type(Some(DataType::Float)).unwrap(), DataType::Float);
        assert_eq!(AggFunc::Sum.return_type(Some(DataType::Int)).unwrap(), DataType::Int);
        assert!(AggFunc::Sum.return_type(Some(DataType::Str)).is_err());
        assert!(AggFunc::Sum.return_type(None).is_err());
        assert_eq!(AggFunc::Avg.return_type(Some(DataType::Int)).unwrap(), DataType::Float);
    }
}
