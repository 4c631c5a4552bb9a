//! Name resolution and semantic analysis: AST → logical plan.

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::expr::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::plan::logical::{AggFunc, AggSpec, LogicalPlan, PlanField, PlanSchema};
use crate::sql::ast::{AstExpr, SelectItem, SelectStmt, TableRef};
use crate::types::{DataType, Value};

/// Binds parsed SQL against a catalog, producing a [`LogicalPlan`].
pub struct Binder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Binder<'a> {
    pub fn new(catalog: &'a Catalog) -> Binder<'a> {
        Binder { catalog }
    }

    /// Bind a SELECT statement.
    pub fn bind_select(&self, stmt: &SelectStmt) -> Result<LogicalPlan> {
        // FROM: fold comma-separated references into a cross-join chain.
        let mut plan = if stmt.from.is_empty() {
            LogicalPlan::Values { rows: vec![vec![]], schema: PlanSchema::empty() }
        } else {
            let mut iter = stmt.from.iter();
            let mut p = self.bind_table_ref(iter.next().expect("non-empty"))?;
            for tr in iter {
                let r = self.bind_table_ref(tr)?;
                let schema = PlanSchema::join(p.schema(), r.schema());
                p = LogicalPlan::CrossJoin { left: Box::new(p), right: Box::new(r), schema };
            }
            p
        };

        // WHERE
        if let Some(selection) = &stmt.selection {
            let predicate = self.bind_expr(selection, plan.schema())?;
            if predicate.data_type(&plan.schema().types())? != DataType::Bool {
                return Err(EngineError::Type("WHERE predicate must be boolean".into()));
            }
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
        }

        // Projection (with or without aggregation).
        let has_agg = !stmt.group_by.is_empty()
            || stmt.items.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });
        plan = if has_agg {
            self.bind_aggregate_projection(plan, stmt)?
        } else {
            self.bind_plain_projection(plan, stmt)?
        };

        // ORDER BY: bound against the projected output schema; an integer
        // literal is a 1-based output position, as in standard SQL. A key
        // that only exists in the projection *input* (e.g. `SELECT v FROM t
        // ORDER BY id`) is carried as a hidden sort column and dropped
        // after the sort.
        if !stmt.order_by.is_empty() {
            let visible = plan.schema().len();
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            let mut added_hidden = false;
            for item in &stmt.order_by {
                let out_schema = plan.schema().clone();
                let key = if let AstExpr::Number(n) = &item.expr {
                    let pos: usize = n
                        .parse()
                        .map_err(|_| EngineError::Plan(format!("invalid ORDER BY position {n}")))?;
                    if pos == 0 || pos > visible {
                        return Err(EngineError::Plan(format!(
                            "ORDER BY position {pos} out of range"
                        )));
                    }
                    Expr::Column(pos - 1)
                } else {
                    match self.bind_expr(&item.expr, &out_schema) {
                        Ok(k) => k,
                        Err(outer_err) => {
                            // Try the projection input (not valid for
                            // aggregated queries, where only the output
                            // exists).
                            let LogicalPlan::Project { input, exprs, schema } = &mut plan else {
                                return Err(outer_err);
                            };
                            if matches!(input.as_ref(), LogicalPlan::Aggregate { .. }) {
                                return Err(outer_err);
                            }
                            let Ok(bound) = self.bind_expr(&item.expr, input.schema()) else {
                                return Err(outer_err);
                            };
                            let in_types = input.schema().types();
                            let dtype = bound.data_type(&in_types)?;
                            exprs.push(bound);
                            schema.fields.push(PlanField::new(
                                None,
                                &format!("_sort{}", keys.len()),
                                dtype,
                            ));
                            added_hidden = true;
                            Expr::Column(schema.len() - 1)
                        }
                    }
                };
                keys.push((key, item.asc));
            }
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
            if added_hidden {
                // Drop the hidden sort columns again.
                let fields = plan.schema().fields[..visible].to_vec();
                plan = LogicalPlan::Project {
                    input: Box::new(plan),
                    exprs: (0..visible).map(Expr::Column).collect(),
                    schema: PlanSchema::new(fields),
                };
            }
        }

        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit { input: Box::new(plan), n };
        }
        Ok(plan)
    }

    fn bind_table_ref(&self, tr: &TableRef) -> Result<LogicalPlan> {
        match tr {
            TableRef::Table { name, alias } => {
                let table = self.catalog.table(name)?;
                Ok(LogicalPlan::scan(table, alias.as_deref().unwrap_or(name)))
            }
            TableRef::Predict { model, input, args, alias } => {
                let input = self.bind_table_ref(input)?;
                let args = args
                    .iter()
                    .map(|a| match self.bind_expr(a, input.schema())? {
                        Expr::Column(i) => Ok(i),
                        other => Err(EngineError::Plan(format!(
                            "PREDICT arguments must be columns of its input, found {other}"
                        ))),
                    })
                    .collect::<Result<Vec<usize>>>()?;
                let mut plan = LogicalPlan::infer(input, args, self.catalog.model(model)?)?;
                // An alias requalifies every output column in place: an
                // identity `Project` would sit between `Infer` and the
                // optimizer's pushdowns.
                if let (Some(alias), LogicalPlan::Infer { schema, .. }) = (alias, &mut plan) {
                    *schema = schema.requalify(alias);
                }
                Ok(plan)
            }
            TableRef::Subquery { query, alias } => {
                let inner = self.bind_select(query)?;
                let schema = inner.schema().requalify(alias);
                // A projection that only renames: identity expressions.
                let exprs = (0..schema.len()).map(Expr::Column).collect();
                Ok(LogicalPlan::Project { input: Box::new(inner), exprs, schema })
            }
            TableRef::Join { left, right, on } => {
                let l = self.bind_table_ref(left)?;
                let r = self.bind_table_ref(right)?;
                let schema = PlanSchema::join(l.schema(), r.schema());
                let join = LogicalPlan::CrossJoin { left: Box::new(l), right: Box::new(r), schema };
                match on {
                    None => Ok(join),
                    Some(cond) => {
                        let predicate = self.bind_expr(cond, join.schema())?;
                        if predicate.data_type(&join.schema().types())? != DataType::Bool {
                            return Err(EngineError::Type(
                                "JOIN ... ON condition must be boolean".into(),
                            ));
                        }
                        Ok(LogicalPlan::Filter { input: Box::new(join), predicate })
                    }
                }
            }
        }
    }

    fn bind_plain_projection(&self, input: LogicalPlan, stmt: &SelectStmt) -> Result<LogicalPlan> {
        let in_schema = input.schema().clone();
        let in_types = in_schema.types();
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    if in_schema.is_empty() {
                        return Err(EngineError::Plan("SELECT * without FROM".into()));
                    }
                    for (i, f) in in_schema.fields.iter().enumerate() {
                        exprs.push(Expr::Column(i));
                        fields.push(f.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let q = q.to_ascii_lowercase();
                    let mut any = false;
                    for (i, f) in in_schema.fields.iter().enumerate() {
                        if f.qualifier.as_deref() == Some(q.as_str()) {
                            exprs.push(Expr::Column(i));
                            fields.push(f.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(EngineError::Plan(format!("unknown table alias {q:?}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, &in_schema)?;
                    let dtype = bound.data_type(&in_types)?;
                    let (qualifier, name) = output_field_name(expr, alias, exprs.len());
                    exprs.push(bound);
                    fields.push(PlanField::new(qualifier.as_deref(), &name, dtype));
                }
            }
        }
        Ok(LogicalPlan::Project { input: Box::new(input), exprs, schema: PlanSchema::new(fields) })
    }

    fn bind_aggregate_projection(
        &self,
        input: LogicalPlan,
        stmt: &SelectStmt,
    ) -> Result<LogicalPlan> {
        let in_schema = input.schema().clone();
        let in_types = in_schema.types();

        // 1. Bind the group keys.
        let mut group_bound = Vec::with_capacity(stmt.group_by.len());
        for g in &stmt.group_by {
            group_bound.push(self.bind_expr(g, &in_schema)?);
        }

        // 2. Collect distinct aggregate calls from the projection.
        let mut specs: Vec<AggSpec> = Vec::new();
        for item in &stmt.items {
            let SelectItem::Expr { expr, .. } = item else {
                return Err(EngineError::Plan(
                    "SELECT * cannot be combined with aggregation".into(),
                ));
            };
            self.collect_agg_specs(expr, &in_schema, &mut specs)?;
        }

        // 3. Aggregate output schema: group columns first, then aggregates.
        let mut agg_fields = Vec::new();
        for (k, g) in group_bound.iter().enumerate() {
            let field = if let Expr::Column(i) = g {
                in_schema.fields[*i].clone()
            } else {
                PlanField::new(None, &format!("_group{k}"), g.data_type(&in_types)?)
            };
            agg_fields.push(field);
        }
        for (k, spec) in specs.iter().enumerate() {
            let arg_type = spec.arg.as_ref().map(|a| a.data_type(&in_types)).transpose()?;
            agg_fields.push(PlanField::new(
                None,
                &format!("_agg{k}"),
                spec.func.return_type(arg_type)?,
            ));
        }
        let group_count = group_bound.len();
        let agg_plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: group_bound.clone(),
            aggs: specs.clone(),
            schema: PlanSchema::new(agg_fields),
        };

        // 4. Rewrite the projection over the aggregate output.
        let agg_types = agg_plan.schema().types();
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &stmt.items {
            let SelectItem::Expr { expr, alias } = item else { unreachable!() };
            let rewritten =
                self.rewrite_post_agg(expr, &in_schema, &group_bound, &specs, group_count)?;
            let dtype = rewritten.data_type(&agg_types)?;
            let (qualifier, name) = output_field_name(expr, alias, exprs.len());
            exprs.push(rewritten);
            fields.push(PlanField::new(qualifier.as_deref(), &name, dtype));
        }
        Ok(LogicalPlan::Project {
            input: Box::new(agg_plan),
            exprs,
            schema: PlanSchema::new(fields),
        })
    }

    /// Collect the distinct aggregate calls inside `ast` as bound
    /// [`AggSpec`]s, rejecting nested aggregates.
    fn collect_agg_specs(
        &self,
        ast: &AstExpr,
        in_schema: &PlanSchema,
        specs: &mut Vec<AggSpec>,
    ) -> Result<()> {
        match ast {
            AstExpr::Function { name, args, wildcard_arg } if is_aggregate(name) => {
                let func = AggFunc::parse(name).expect("checked by is_aggregate");
                let arg = if *wildcard_arg {
                    if func != AggFunc::Count {
                        return Err(EngineError::Plan(format!("{}(*) is not valid", func.name())));
                    }
                    None
                } else {
                    if args.len() != 1 {
                        return Err(EngineError::Plan(format!(
                            "{} expects exactly one argument",
                            func.name()
                        )));
                    }
                    if contains_aggregate(&args[0]) {
                        return Err(EngineError::Plan("nested aggregates are not allowed".into()));
                    }
                    Some(self.bind_expr(&args[0], in_schema)?)
                };
                let spec = AggSpec { func, arg };
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
                Ok(())
            }
            AstExpr::Binary { left, right, .. } => {
                self.collect_agg_specs(left, in_schema, specs)?;
                self.collect_agg_specs(right, in_schema, specs)
            }
            AstExpr::Unary { expr, .. } => self.collect_agg_specs(expr, in_schema, specs),
            AstExpr::Case { operand, whens, else_expr } => {
                if let Some(op) = operand {
                    self.collect_agg_specs(op, in_schema, specs)?;
                }
                for (c, v) in whens {
                    self.collect_agg_specs(c, in_schema, specs)?;
                    self.collect_agg_specs(v, in_schema, specs)?;
                }
                if let Some(e) = else_expr {
                    self.collect_agg_specs(e, in_schema, specs)?;
                }
                Ok(())
            }
            AstExpr::Function { args, .. } => {
                for a in args {
                    self.collect_agg_specs(a, in_schema, specs)?;
                }
                Ok(())
            }
            AstExpr::Cast { expr, .. } => self.collect_agg_specs(expr, in_schema, specs),
            AstExpr::Between { expr, low, high, .. } => {
                self.collect_agg_specs(expr, in_schema, specs)?;
                self.collect_agg_specs(low, in_schema, specs)?;
                self.collect_agg_specs(high, in_schema, specs)
            }
            _ => Ok(()),
        }
    }

    /// Rewrite a projection expression so it references the aggregate
    /// output: aggregate calls become agg columns, group expressions become
    /// group columns, and anything else must bottom out in literals.
    fn rewrite_post_agg(
        &self,
        ast: &AstExpr,
        in_schema: &PlanSchema,
        group_bound: &[Expr],
        specs: &[AggSpec],
        group_count: usize,
    ) -> Result<Expr> {
        // Aggregate call → its output column.
        if let AstExpr::Function { name, args, wildcard_arg } = ast {
            if is_aggregate(name) {
                let func = AggFunc::parse(name).expect("checked");
                let arg =
                    if *wildcard_arg { None } else { Some(self.bind_expr(&args[0], in_schema)?) };
                let spec = AggSpec { func, arg };
                let idx =
                    specs.iter().position(|s| *s == spec).expect("collected in collect_agg_specs");
                return Ok(Expr::Column(group_count + idx));
            }
        }
        // A whole subexpression equal to a group key → the group column.
        if let Ok(bound) = self.bind_expr(ast, in_schema) {
            if let Some(i) = group_bound.iter().position(|g| *g == bound) {
                return Ok(Expr::Column(i));
            }
            if bound.columns().is_empty() {
                // Pure constant — valid anywhere.
                return Ok(bound);
            }
        }
        // Otherwise recurse structurally.
        match ast {
            AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
                op: *op,
                left: Box::new(self.rewrite_post_agg(
                    left,
                    in_schema,
                    group_bound,
                    specs,
                    group_count,
                )?),
                right: Box::new(self.rewrite_post_agg(
                    right,
                    in_schema,
                    group_bound,
                    specs,
                    group_count,
                )?),
            }),
            AstExpr::Unary { op, expr } => Ok(Expr::Unary {
                op: *op,
                expr: Box::new(self.rewrite_post_agg(
                    expr,
                    in_schema,
                    group_bound,
                    specs,
                    group_count,
                )?),
            }),
            AstExpr::Function { name, args, .. } => {
                let func = ScalarFunc::parse(name)
                    .ok_or_else(|| EngineError::Plan(format!("unknown function {name:?}")))?;
                let rewritten: Result<Vec<Expr>> = args
                    .iter()
                    .map(|a| self.rewrite_post_agg(a, in_schema, group_bound, specs, group_count))
                    .collect();
                Ok(Expr::Func { func, args: rewritten? })
            }
            AstExpr::Case { operand, whens, else_expr } => {
                let mut new_whens = Vec::with_capacity(whens.len());
                for (c, v) in whens {
                    let cond_ast = desugar_simple_case_cond(operand.as_deref(), c);
                    let cond = self.rewrite_post_agg(
                        &cond_ast,
                        in_schema,
                        group_bound,
                        specs,
                        group_count,
                    )?;
                    let val =
                        self.rewrite_post_agg(v, in_schema, group_bound, specs, group_count)?;
                    new_whens.push((cond, val));
                }
                let else_bound = match else_expr {
                    Some(e) => Some(Box::new(self.rewrite_post_agg(
                        e,
                        in_schema,
                        group_bound,
                        specs,
                        group_count,
                    )?)),
                    None => None,
                };
                Ok(Expr::Case { whens: new_whens, else_expr: else_bound })
            }
            AstExpr::Cast { expr, type_name } => Ok(Expr::Cast {
                expr: Box::new(self.rewrite_post_agg(
                    expr,
                    in_schema,
                    group_bound,
                    specs,
                    group_count,
                )?),
                to: DataType::parse_sql(type_name)?,
            }),
            AstExpr::Column { qualifier, name } => {
                let shown = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                Err(EngineError::Plan(format!(
                    "column {shown:?} must appear in GROUP BY or inside an aggregate"
                )))
            }
            other => self.bind_expr(other, &PlanSchema::empty()).map_err(|_| {
                EngineError::Plan(format!("expression {other:?} is invalid after aggregation"))
            }),
        }
    }

    /// Bind an expression against a schema.
    pub fn bind_expr(&self, ast: &AstExpr, schema: &PlanSchema) -> Result<Expr> {
        match ast {
            AstExpr::Column { qualifier, name } => {
                let i = schema.resolve(qualifier.as_deref(), name)?;
                Ok(Expr::Column(i))
            }
            AstExpr::Number(text) => Ok(Expr::Literal(parse_number(text)?)),
            AstExpr::StringLit(s) => Ok(Expr::Literal(Value::Str(s.clone()))),
            AstExpr::BoolLit(b) => Ok(Expr::Literal(Value::Bool(*b))),
            AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
                op: *op,
                left: Box::new(self.bind_expr(left, schema)?),
                right: Box::new(self.bind_expr(right, schema)?),
            }),
            AstExpr::Unary { op, expr } => {
                let inner = self.bind_expr(expr, schema)?;
                // Fold unary minus on a literal so `-1` is a plain literal
                // (needed for SMA pruning on `layer_in = -1`).
                if let (UnaryOp::Neg, Expr::Literal(v)) = (op, &inner) {
                    match v {
                        Value::Int(x) => return Ok(Expr::Literal(Value::Int(-x))),
                        Value::Float(x) => return Ok(Expr::Literal(Value::Float(-x))),
                        _ => {}
                    }
                }
                Ok(Expr::Unary { op: *op, expr: Box::new(inner) })
            }
            AstExpr::Function { name, args, wildcard_arg } => {
                if *wildcard_arg || is_aggregate(name) {
                    return Err(EngineError::Plan(format!(
                        "aggregate function {name:?} is not allowed here"
                    )));
                }
                let func = ScalarFunc::parse(name)
                    .ok_or_else(|| EngineError::Plan(format!("unknown function {name:?}")))?;
                let bound: Result<Vec<Expr>> =
                    args.iter().map(|a| self.bind_expr(a, schema)).collect();
                Ok(Expr::Func { func, args: bound? })
            }
            AstExpr::Case { operand, whens, else_expr } => {
                let mut bound_whens = Vec::with_capacity(whens.len());
                for (c, v) in whens {
                    let cond_ast = desugar_simple_case_cond(operand.as_deref(), c);
                    bound_whens
                        .push((self.bind_expr(&cond_ast, schema)?, self.bind_expr(v, schema)?));
                }
                let else_bound = match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e, schema)?)),
                    None => None,
                };
                Ok(Expr::Case { whens: bound_whens, else_expr: else_bound })
            }
            AstExpr::Cast { expr, type_name } => Ok(Expr::Cast {
                expr: Box::new(self.bind_expr(expr, schema)?),
                to: DataType::parse_sql(type_name)?,
            }),
            AstExpr::Between { expr, low, high, negated } => {
                let e = self.bind_expr(expr, schema)?;
                let lo = self.bind_expr(low, schema)?;
                let hi = self.bind_expr(high, schema)?;
                let in_range = Expr::binary(
                    BinaryOp::And,
                    Expr::binary(BinaryOp::GtEq, e.clone(), lo),
                    Expr::binary(BinaryOp::LtEq, e, hi),
                );
                Ok(if *negated {
                    Expr::Unary { op: UnaryOp::Not, expr: Box::new(in_range) }
                } else {
                    in_range
                })
            }
        }
    }

    /// Evaluate a constant expression (INSERT values).
    pub fn eval_const(&self, ast: &AstExpr) -> Result<Value> {
        let bound = self.bind_expr(ast, &PlanSchema::empty())?;
        if !bound.columns().is_empty() {
            return Err(EngineError::Plan("INSERT values must be constant expressions".into()));
        }
        let batch = crate::column::Batch::of_rows(1);
        let col = bound.eval(&batch)?;
        Ok(col.value(0))
    }
}

/// Is `name` an aggregate (and not shadowed by a scalar function)?
fn is_aggregate(name: &str) -> bool {
    AggFunc::parse(name).is_some() && ScalarFunc::parse(name).is_none()
}

fn contains_aggregate(ast: &AstExpr) -> bool {
    match ast {
        AstExpr::Function { name, args, .. } => {
            is_aggregate(name) || args.iter().any(contains_aggregate)
        }
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Unary { expr, .. } => contains_aggregate(expr),
        AstExpr::Case { operand, whens, else_expr } => {
            operand.as_deref().is_some_and(contains_aggregate)
                || whens.iter().any(|(c, v)| contains_aggregate(c) || contains_aggregate(v))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        AstExpr::Cast { expr, .. } => contains_aggregate(expr),
        AstExpr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        _ => false,
    }
}

/// `CASE x WHEN v THEN ...` → condition `x = v`; searched CASE keeps the
/// condition as-is.
fn desugar_simple_case_cond(operand: Option<&AstExpr>, cond: &AstExpr) -> AstExpr {
    match operand {
        Some(op) => AstExpr::binary(BinaryOp::Eq, op.clone(), cond.clone()),
        None => cond.clone(),
    }
}

fn parse_number(text: &str) -> Result<Value> {
    if !text.contains('.') && !text.contains('e') && !text.contains('E') {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| EngineError::Parse(format!("invalid numeric literal {text:?}")))
}

/// Derive the output column name (and optional qualifier) of a projection
/// item.
fn output_field_name(
    expr: &AstExpr,
    alias: &Option<String>,
    position: usize,
) -> (Option<String>, String) {
    if let Some(a) = alias {
        return (None, a.clone());
    }
    match expr {
        AstExpr::Column { qualifier, name } => (qualifier.clone(), name.clone()),
        AstExpr::Function { name, .. } => (None, name.clone()),
        _ => (None, format!("_col{position}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::sql::parse_statement;
    use crate::sql::Statement;
    use crate::storage::{ColumnDef, Schema};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let cfg = EngineConfig::test_small();
        cat.create_table(
            "facts",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("a", DataType::Float),
                ColumnDef::new("b", DataType::Float),
            ])
            .unwrap(),
            &cfg,
        )
        .unwrap();
        cat.create_table(
            "model",
            Schema::new(vec![
                ColumnDef::new("layer", DataType::Int),
                ColumnDef::new("node", DataType::Int),
                ColumnDef::new("w_i", DataType::Float),
            ])
            .unwrap(),
            &cfg,
        )
        .unwrap();
        cat
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let cat = catalog();
        let binder = Binder::new(&cat);
        match parse_statement(sql)? {
            Statement::Select(s) => binder.bind_select(&s),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn binds_simple_projection() {
        let plan = bind("SELECT id, a + b AS s FROM facts WHERE id > 1").unwrap();
        let schema = plan.schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.fields[0].name, "id");
        assert_eq!(schema.fields[1].name, "s");
        assert_eq!(schema.fields[1].dtype, DataType::Float);
    }

    #[test]
    fn wildcard_expansion() {
        let plan = bind("SELECT * FROM facts").unwrap();
        assert_eq!(plan.schema().len(), 3);
        let plan = bind("SELECT f.* FROM facts AS f, model AS m").unwrap();
        assert_eq!(plan.schema().len(), 3);
        assert!(bind("SELECT x.* FROM facts").is_err());
    }

    #[test]
    fn cross_join_schema_and_qualified_resolution() {
        let plan = bind("SELECT f.id, m.node FROM facts f, model m WHERE f.id = m.node").unwrap();
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn unknown_names_error() {
        assert!(bind("SELECT nosuch FROM facts").is_err());
        assert!(bind("SELECT id FROM nosuch").is_err());
        assert!(bind("SELECT nosuchfunc(id) FROM facts").is_err());
    }

    #[test]
    fn aggregate_binding() {
        let plan = bind(
            "SELECT id, SUM(a * b) AS s, COUNT(*) AS n, SUM(a*b) / COUNT(*) AS r \
             FROM facts GROUP BY id",
        )
        .unwrap();
        // Project over Aggregate.
        let LogicalPlan::Project { input, exprs, schema } = &plan else {
            panic!("expected project")
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Aggregate { .. }));
        let LogicalPlan::Aggregate { aggs, group, .. } = input.as_ref() else { panic!() };
        assert_eq!(group.len(), 1);
        // SUM(a*b) deduplicated.
        assert_eq!(aggs.len(), 2);
        assert_eq!(exprs.len(), 4);
        assert_eq!(schema.fields[1].name, "s");
        assert_eq!(schema.fields[2].dtype, DataType::Int);
    }

    #[test]
    fn group_expr_reuse_in_projection() {
        let plan = bind("SELECT id + 1, COUNT(*) FROM facts GROUP BY id + 1").unwrap();
        let LogicalPlan::Project { exprs, .. } = &plan else { panic!() };
        // `id + 1` in the projection resolves to group column 0.
        assert_eq!(exprs[0], Expr::Column(0));
    }

    #[test]
    fn non_grouped_column_is_rejected() {
        let err = bind("SELECT a, COUNT(*) FROM facts GROUP BY id").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn nested_aggregates_rejected() {
        assert!(bind("SELECT SUM(SUM(a)) FROM facts").is_err());
    }

    #[test]
    fn aggregate_in_where_rejected() {
        assert!(bind("SELECT id FROM facts WHERE SUM(a) > 1").is_err());
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let plan = bind("SELECT COUNT(*), SUM(a) FROM facts").unwrap();
        let LogicalPlan::Project { input, .. } = &plan else { panic!() };
        let LogicalPlan::Aggregate { group, aggs, .. } = input.as_ref() else { panic!() };
        assert!(group.is_empty());
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn subquery_requalification() {
        let plan =
            bind("SELECT t.s FROM (SELECT id, a + b AS s FROM facts) AS t WHERE t.id > 0").unwrap();
        assert_eq!(plan.schema().fields[0].name, "s");
    }

    #[test]
    fn order_by_position_and_name() {
        let plan = bind("SELECT id, a FROM facts ORDER BY 2 DESC, id").unwrap();
        let LogicalPlan::Sort { keys, .. } = &plan else { panic!("expected sort") };
        assert_eq!(keys[0].0, Expr::Column(1));
        assert!(!keys[0].1);
        assert_eq!(keys[1].0, Expr::Column(0));
        assert!(bind("SELECT id FROM facts ORDER BY 5").is_err());
    }

    #[test]
    fn between_desugars_to_range() {
        let plan = bind("SELECT id FROM facts WHERE id BETWEEN 2 AND 4").unwrap();
        let s = plan.display_indent();
        assert!(s.contains(">= 2") && s.contains("<= 4"), "{s}");
    }

    #[test]
    fn simple_case_desugars_to_equality() {
        let plan = bind("SELECT CASE id WHEN 1 THEN a ELSE b END FROM facts").unwrap();
        let s = plan.display_indent();
        assert!(s.contains("WHEN (#0 = 1)"), "{s}");
    }

    #[test]
    fn negative_literal_folds() {
        let plan = bind("SELECT id FROM facts WHERE id = -1").unwrap();
        let s = plan.display_indent();
        assert!(s.contains("= -1"), "{s}");
    }

    #[test]
    fn select_without_from() {
        let plan = bind("SELECT 1 + 2 AS three").unwrap();
        let LogicalPlan::Project { input, .. } = &plan else { panic!() };
        assert!(matches!(input.as_ref(), LogicalPlan::Values { .. }));
    }

    #[test]
    fn const_eval_for_insert() {
        let cat = catalog();
        let b = Binder::new(&cat);
        assert_eq!(b.eval_const(&AstExpr::Number("3".into())).unwrap(), Value::Int(3));
        let neg =
            AstExpr::Unary { op: UnaryOp::Neg, expr: Box::new(AstExpr::Number("2.5".into())) };
        assert_eq!(b.eval_const(&neg).unwrap(), Value::Float(-2.5));
        assert!(b.eval_const(&AstExpr::col("id")).is_err());
    }
}
