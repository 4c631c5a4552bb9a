//! Rule-based logical optimizer.
//!
//! Implements the rewrites the paper's generated queries depend on
//! (Sec. 4.4): predicate pushdown through projections and cross joins,
//! extraction of hash equi-joins from cross join + equality conjuncts
//! (including computed keys like `node = model.node - offset`), SMA
//! block-pruning predicates on scans, column pruning down to the scans
//! (through filters and joins), and constant folding.

use crate::column::Batch;
use crate::config::EngineConfig;
use crate::expr::{BinaryOp, Expr};
use crate::plan::logical::{LogicalPlan, PlanSchema, PrunePredicate};
use crate::types::Value;
use std::collections::BTreeSet;

/// The optimizer. Predicate pushdown, hash-join extraction and SMA pruning
/// each follow their [`EngineConfig`] flag; column pruning and constant
/// folding always run.
pub struct Optimizer {
    config: EngineConfig,
}

impl Optimizer {
    pub fn new(config: EngineConfig) -> Optimizer {
        Optimizer { config }
    }

    /// Optimize a bound plan.
    pub fn optimize(&self, plan: LogicalPlan) -> LogicalPlan {
        let plan = self.rewrite(plan);
        fold_plan_constants(plan)
    }

    fn rewrite(&self, plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                let input = self.rewrite(*input);
                if self.config.predicate_pushdown {
                    self.push_filter(input, predicate.split_conjuncts())
                } else {
                    LogicalPlan::Filter { input: Box::new(input), predicate }
                }
            }
            LogicalPlan::Project { input, mut exprs, schema } => {
                let (input, map) = prune_input(self.rewrite(*input), cols_of(&exprs));
                if let Some(map) = map {
                    exprs = exprs.into_iter().map(|e| e.map_columns(&|i| map[i])).collect();
                }
                LogicalPlan::Project { input: Box::new(input), exprs, schema }
            }
            LogicalPlan::CrossJoin { left, right, schema } => LogicalPlan::CrossJoin {
                left: Box::new(self.rewrite(*left)),
                right: Box::new(self.rewrite(*right)),
                schema,
            },
            LogicalPlan::HashJoin { left, right, left_keys, right_keys, schema } => {
                LogicalPlan::HashJoin {
                    left: Box::new(self.rewrite(*left)),
                    right: Box::new(self.rewrite(*right)),
                    left_keys,
                    right_keys,
                    schema,
                }
            }
            LogicalPlan::Aggregate { input, mut group, mut aggs, schema } => {
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                let used = group.iter().chain(args).flat_map(|e| e.columns()).collect();
                let (input, map) = prune_input(self.rewrite(*input), used);
                if let Some(map) = map {
                    let remap = |e: Expr| e.map_columns(&|i| map[i]);
                    group = group.into_iter().map(remap).collect();
                    for a in &mut aggs {
                        a.arg = a.arg.take().map(remap);
                    }
                }
                LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema }
            }
            LogicalPlan::Sort { input, keys } => {
                LogicalPlan::Sort { input: Box::new(self.rewrite(*input)), keys }
            }
            LogicalPlan::Limit { input, n } => {
                LogicalPlan::Limit { input: Box::new(self.rewrite(*input)), n }
            }
            leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
        }
    }

    /// Push `conjuncts` as deep as possible into `input` (which is already
    /// rewritten).
    fn push_filter(&self, input: LogicalPlan, mut conjuncts: Vec<Expr>) -> LogicalPlan {
        conjuncts.retain(|c| *c != Expr::Literal(Value::Bool(true)));
        if conjuncts.is_empty() {
            return input;
        }
        match input {
            LogicalPlan::Filter { input: inner, predicate } => {
                let mut all = predicate.split_conjuncts();
                all.extend(conjuncts);
                self.push_filter(*inner, all)
            }
            LogicalPlan::Project { input: inner, exprs, schema } => {
                // Inline the projection expressions into the predicate and
                // push below the projection.
                let substituted: Vec<Expr> =
                    conjuncts.iter().map(|c| c.substitute(&exprs)).collect();
                LogicalPlan::Project {
                    input: Box::new(self.push_filter(*inner, substituted)),
                    exprs,
                    schema,
                }
            }
            LogicalPlan::CrossJoin { left, right, schema } => {
                let nleft = left.schema().len();
                let mut left_only = Vec::new();
                let mut right_only = Vec::new();
                let mut equi: Vec<(Expr, Expr)> = Vec::new();
                let mut residual = Vec::new();
                for c in conjuncts {
                    let cols = c.columns();
                    let all_left = cols.iter().all(|&i| i < nleft);
                    let all_right = cols.iter().all(|&i| i >= nleft);
                    if all_left && !cols.is_empty() {
                        left_only.push(c);
                    } else if all_right && !cols.is_empty() {
                        right_only.push(c.map_columns(&|i| i - nleft));
                    } else if let Some((l, r)) = split_equi(&c, nleft) {
                        if self.config.hash_join {
                            equi.push((l, r.map_columns(&|i| i - nleft)));
                        } else {
                            residual.push(c);
                        }
                    } else {
                        residual.push(c);
                    }
                }
                let left = Box::new(self.push_filter(*left, left_only));
                let right = Box::new(self.push_filter(*right, right_only));
                let joined = if equi.is_empty() {
                    LogicalPlan::CrossJoin { left, right, schema }
                } else {
                    let (left_keys, right_keys) = equi.into_iter().unzip();
                    LogicalPlan::HashJoin { left, right, left_keys, right_keys, schema }
                };
                wrap_filter(joined, residual)
            }
            LogicalPlan::HashJoin { left, right, left_keys, right_keys, schema } => {
                let nleft = left.schema().len();
                let mut left_only = Vec::new();
                let mut right_only = Vec::new();
                let mut residual = Vec::new();
                for c in conjuncts {
                    let cols = c.columns();
                    if !cols.is_empty() && cols.iter().all(|&i| i < nleft) {
                        left_only.push(c);
                    } else if !cols.is_empty() && cols.iter().all(|&i| i >= nleft) {
                        right_only.push(c.map_columns(&|i| i - nleft));
                    } else {
                        residual.push(c);
                    }
                }
                let join = LogicalPlan::HashJoin {
                    left: Box::new(self.push_filter(*left, left_only)),
                    right: Box::new(self.push_filter(*right, right_only)),
                    left_keys,
                    right_keys,
                    schema,
                };
                wrap_filter(join, residual)
            }
            LogicalPlan::Scan { table, schema, mut pruning } => {
                if self.config.sma_pruning {
                    for c in &conjuncts {
                        if let Some(p) = extract_prune_predicate(c) {
                            pruning.push(p);
                        }
                    }
                }
                // SMA pruning is block-granular: the filter must still run.
                wrap_filter(LogicalPlan::Scan { table, schema, pruning }, conjuncts)
            }
            other => wrap_filter(other, conjuncts),
        }
    }
}

/// Union of the columns referenced by `exprs`.
fn cols_of(exprs: &[Expr]) -> BTreeSet<usize> {
    exprs.iter().flat_map(|e| e.columns()).collect()
}

/// Column pruning (late materialization): narrow `plan`, the input of a
/// consumer that reads only its `used` output columns. A scan is narrowed
/// to the referenced columns by a column-only projection, which the
/// physical layer runs as a scan that loads only those columns; a filter
/// adds its own columns and passes the narrowing on below it; each join
/// input is narrowed to its referenced columns plus its key columns, so
/// the join's per-row gather materializes only live data. Returns the
/// rewritten plan — whose output may keep columns beyond `used`: filter
/// columns and join keys — and, if anything changed, the old→new
/// output-column map the consumer must remap its expressions through.
fn prune_input(plan: LogicalPlan, used: BTreeSet<usize>) -> (LogicalPlan, Option<Vec<usize>>) {
    match plan {
        LogicalPlan::Scan { .. } if used.len() < plan.schema().len() => {
            let (scan, map) = project_columns(plan, used);
            (scan, Some(map))
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut keep = used;
            keep.extend(predicate.columns());
            let (input, map) = prune_input(*input, keep);
            let predicate = match &map {
                Some(map) => predicate.map_columns(&|i| map[i]),
                None => predicate,
            };
            (LogicalPlan::Filter { input: Box::new(input), predicate }, map)
        }
        LogicalPlan::HashJoin { left, right, left_keys, right_keys, schema } => {
            let nleft = left.schema().len();
            let mut keep_left: BTreeSet<usize> =
                used.iter().copied().filter(|&c| c < nleft).collect();
            keep_left.extend(left_keys.iter().flat_map(|k| k.columns()));
            let mut keep_right: BTreeSet<usize> =
                used.iter().copied().filter(|&c| c >= nleft).map(|c| c - nleft).collect();
            keep_right.extend(right_keys.iter().flat_map(|k| k.columns()));
            if keep_left.len() == nleft && keep_right.len() == right.schema().len() {
                return (
                    LogicalPlan::HashJoin { left, right, left_keys, right_keys, schema },
                    None,
                );
            }
            let (left, lmap) = narrow(*left, keep_left);
            let (right, rmap) = narrow(*right, keep_right);
            let left_keys: Vec<Expr> =
                left_keys.into_iter().map(|k| k.map_columns(&|i| lmap[i])).collect();
            let right_keys: Vec<Expr> =
                right_keys.into_iter().map(|k| k.map_columns(&|i| rmap[i])).collect();
            let map = join_output_map(&lmap, &rmap, left.schema().len());
            let schema = PlanSchema::join(left.schema(), right.schema());
            let join = LogicalPlan::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                left_keys,
                right_keys,
                schema,
            };
            (join, Some(map))
        }
        LogicalPlan::CrossJoin { left, right, schema } => {
            let nleft = left.schema().len();
            let keep_left: BTreeSet<usize> = used.iter().copied().filter(|&c| c < nleft).collect();
            let keep_right: BTreeSet<usize> =
                used.iter().copied().filter(|&c| c >= nleft).map(|c| c - nleft).collect();
            if keep_left.len() == nleft && keep_right.len() == right.schema().len() {
                return (LogicalPlan::CrossJoin { left, right, schema }, None);
            }
            let (left, lmap) = narrow(*left, keep_left);
            let (right, rmap) = narrow(*right, keep_right);
            let map = join_output_map(&lmap, &rmap, left.schema().len());
            let schema = PlanSchema::join(left.schema(), right.schema());
            let join =
                LogicalPlan::CrossJoin { left: Box::new(left), right: Box::new(right), schema };
            (join, Some(map))
        }
        other => (other, None),
    }
}

/// Narrow `plan` to exactly the `keep` columns (a join input): prune below
/// it, then project away what the pruning kept beyond `keep` — filter-only
/// columns are loaded and filtered on, but not handed to the join. Returns
/// the old→new column map (`usize::MAX` for dropped columns, which the
/// caller never references).
fn narrow(plan: LogicalPlan, keep: BTreeSet<usize>) -> (LogicalPlan, Vec<usize>) {
    let n = plan.schema().len();
    let (plan, inner) = prune_input(plan, keep.clone());
    let inner = inner.unwrap_or_else(|| (0..n).collect());
    let (plan, outer) = project_columns(plan, keep.iter().map(|&c| inner[c]).collect());
    let map = inner.iter().map(|&i| if i == usize::MAX { i } else { outer[i] }).collect();
    (plan, map)
}

/// Project `plan` onto its `keep` columns, in order. Returns the old→new
/// column map (`usize::MAX` for dropped columns). At least one column is
/// always kept: a zero-column projection would lose the row count.
fn project_columns(plan: LogicalPlan, mut keep: BTreeSet<usize>) -> (LogicalPlan, Vec<usize>) {
    let n = plan.schema().len();
    if keep.is_empty() && n > 0 {
        keep.insert(0);
    }
    let mut map = vec![usize::MAX; n];
    for (new, &old) in keep.iter().enumerate() {
        map[old] = new;
    }
    if keep.len() == n {
        return (plan, map);
    }
    let fields = keep.iter().map(|&i| plan.schema().fields[i].clone()).collect();
    let exprs = keep.iter().map(|&i| Expr::col(i)).collect();
    let schema = PlanSchema::new(fields);
    (LogicalPlan::Project { input: Box::new(plan), exprs, schema }, map)
}

/// Old→new map over a join's concatenated output, from the per-side maps.
fn join_output_map(lmap: &[usize], rmap: &[usize], new_nleft: usize) -> Vec<usize> {
    let mut map = vec![usize::MAX; lmap.len() + rmap.len()];
    for (old, &new) in lmap.iter().enumerate() {
        map[old] = new;
    }
    for (old, &new) in rmap.iter().enumerate() {
        if new != usize::MAX {
            map[lmap.len() + old] = new_nleft + new;
        }
    }
    map
}

fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        plan
    } else {
        LogicalPlan::Filter { input: Box::new(plan), predicate: Expr::conjoin(conjuncts) }
    }
}

/// If `c` is `lhs = rhs` with one side touching only left columns
/// (`< nleft`) and the other only right columns (`>= nleft`), return the
/// pair as `(left key, right key)`.
fn split_equi(c: &Expr, nleft: usize) -> Option<(Expr, Expr)> {
    let Expr::Binary { op: BinaryOp::Eq, left, right } = c else {
        return None;
    };
    let lc = left.columns();
    let rc = right.columns();
    if lc.is_empty() || rc.is_empty() {
        return None;
    }
    let l_all_left = lc.iter().all(|&i| i < nleft);
    let l_all_right = lc.iter().all(|&i| i >= nleft);
    let r_all_left = rc.iter().all(|&i| i < nleft);
    let r_all_right = rc.iter().all(|&i| i >= nleft);
    if l_all_left && r_all_right {
        Some((left.as_ref().clone(), right.as_ref().clone()))
    } else if l_all_right && r_all_left {
        Some((right.as_ref().clone(), left.as_ref().clone()))
    } else {
        None
    }
}

/// `column op literal` (or flipped) with a comparison operator becomes an
/// SMA pruning predicate.
fn extract_prune_predicate(c: &Expr) -> Option<PrunePredicate> {
    let Expr::Binary { op, left, right } = c else {
        return None;
    };
    if !op.is_comparison() || *op == BinaryOp::NotEq {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(i), Expr::Literal(v)) => {
            Some(PrunePredicate { column: *i, op: *op, value: v.clone() })
        }
        (Expr::Literal(v), Expr::Column(i)) => {
            let flipped = match op {
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::LtEq => BinaryOp::GtEq,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::GtEq => BinaryOp::LtEq,
                other => *other,
            };
            Some(PrunePredicate { column: *i, op: flipped, value: v.clone() })
        }
        _ => None,
    }
}

/// Fold constant subexpressions in every expression of the plan.
fn fold_plan_constants(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_plan_constants(*input)),
            predicate: fold_expr(predicate),
        },
        LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
            input: Box::new(fold_plan_constants(*input)),
            exprs: exprs.into_iter().map(fold_expr).collect(),
            schema,
        },
        LogicalPlan::CrossJoin { left, right, schema } => LogicalPlan::CrossJoin {
            left: Box::new(fold_plan_constants(*left)),
            right: Box::new(fold_plan_constants(*right)),
            schema,
        },
        LogicalPlan::HashJoin { left, right, left_keys, right_keys, schema } => {
            LogicalPlan::HashJoin {
                left: Box::new(fold_plan_constants(*left)),
                right: Box::new(fold_plan_constants(*right)),
                left_keys: left_keys.into_iter().map(fold_expr).collect(),
                right_keys: right_keys.into_iter().map(fold_expr).collect(),
                schema,
            }
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => LogicalPlan::Aggregate {
            input: Box::new(fold_plan_constants(*input)),
            group: group.into_iter().map(fold_expr).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(fold_expr);
                    a
                })
                .collect(),
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_plan_constants(*input)),
            keys: keys.into_iter().map(|(e, asc)| (fold_expr(e), asc)).collect(),
        },
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(fold_plan_constants(*input)), n }
        }
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    }
}

/// Evaluate constant subtrees (no column references) to literals.
pub fn fold_expr(expr: Expr) -> Expr {
    expr.transform(&|e| {
        if matches!(e, Expr::Literal(_)) || !e.columns().is_empty() {
            return None;
        }
        let batch = Batch::of_rows(1);
        match e.eval(&batch) {
            Ok(col) if col.len() == 1 => Some(Expr::Literal(col.value(0))),
            // Leave erroring constants (e.g. 1/0) in place: they surface at
            // execution time, matching SQL semantics.
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exec::physical::column_scan;
    use crate::plan::binder::Binder;
    use crate::sql::{parse_statement, Statement};
    use crate::storage::{ColumnDef, Schema};
    use crate::types::DataType;

    fn optimize(sql: &str, config: EngineConfig) -> LogicalPlan {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Float),
            ])
            .unwrap(),
            &config,
        )
        .unwrap();
        cat.create_table(
            "m",
            Schema::new(vec![
                ColumnDef::new("node", DataType::Int),
                ColumnDef::new("w", DataType::Float),
            ])
            .unwrap(),
            &config,
        )
        .unwrap();
        cat.create_table(
            "wide",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Float),
                ColumnDef::new("c", DataType::Float),
            ])
            .unwrap(),
            &config,
        )
        .unwrap();
        let binder = Binder::new(&cat);
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!() };
        Optimizer::new(config).optimize(binder.bind_select(&s).unwrap())
    }

    #[test]
    fn extracts_hash_join_from_comma_join() {
        let plan = optimize(
            "SELECT t.id FROM t, m WHERE t.id = m.node AND t.v > 0.5",
            EngineConfig::default(),
        );
        let s = plan.display_indent();
        assert!(s.contains("HashJoin"), "{s}");
        assert!(!s.contains("CrossJoin"), "{s}");
        // The v > 0.5 predicate went to the left scan side.
        assert!(s.contains("Filter (#1 > 0.5)"), "{s}");
    }

    #[test]
    fn computed_key_join_is_extracted() {
        // The node-ID-offset join of ML-To-SQL's optimized queries.
        let plan =
            optimize("SELECT t.id FROM t, m WHERE t.id = m.node - 3", EngineConfig::default());
        let s = plan.display_indent();
        assert!(s.contains("HashJoin [#0] = [(#0 - 3)]"), "{s}");
    }

    #[test]
    fn hash_join_disabled_keeps_cross_join() {
        let cfg = EngineConfig { hash_join: false, ..Default::default() };
        let plan = optimize("SELECT t.id FROM t, m WHERE t.id = m.node", cfg);
        let s = plan.display_indent();
        assert!(s.contains("CrossJoin"), "{s}");
        assert!(!s.contains("HashJoin"), "{s}");
    }

    #[test]
    fn pruning_predicates_reach_the_scan() {
        let plan =
            optimize("SELECT id FROM t WHERE id >= 10 AND id <= 20", EngineConfig::default());
        let s = plan.display_indent();
        assert!(s.contains("[2 pruning predicate(s)]"), "{s}");
        // Filter is still applied above the scan.
        assert!(s.contains("Filter"), "{s}");
    }

    #[test]
    fn pruning_disabled_by_flag() {
        let cfg = EngineConfig { sma_pruning: false, ..Default::default() };
        let plan = optimize("SELECT id FROM t WHERE id >= 10", cfg);
        assert!(!plan.display_indent().contains("pruning"), "{plan}");
    }

    #[test]
    fn filter_pushes_through_projection() {
        let plan = optimize(
            "SELECT s FROM (SELECT id, v * 2 AS s FROM t) AS q WHERE q.s > 1",
            EngineConfig::default(),
        );
        let s = plan.display_indent();
        // The filter must sit below both projections, directly over the scan,
        // with the projection expression inlined: (v*2) > 1.
        let filter_line = s.lines().find(|l| l.contains("Filter")).unwrap();
        assert!(filter_line.contains("((#1 * 2) > 1)"), "{s}");
        let filter_pos = s.find("Filter").unwrap();
        let project_pos = s.find("Project").unwrap();
        assert!(filter_pos > project_pos, "filter should be below projects: {s}");
    }

    #[test]
    fn constant_folding() {
        let plan = optimize("SELECT id + (1 + 2) FROM t", EngineConfig::default());
        let s = plan.display_indent();
        assert!(s.contains("(#0 + 3)"), "{s}");
    }

    #[test]
    fn flipped_literal_comparison_becomes_prune() {
        let p = extract_prune_predicate(&Expr::binary(
            BinaryOp::Lt,
            Expr::Literal(Value::Int(5)),
            Expr::Column(0),
        ))
        .unwrap();
        assert_eq!(p.op, BinaryOp::Gt);
        assert_eq!(p.value, Value::Int(5));
    }

    #[test]
    fn pushdown_disabled_keeps_filter_on_top() {
        let cfg = EngineConfig { predicate_pushdown: false, ..Default::default() };
        let plan = optimize("SELECT t.id FROM t, m WHERE t.id = m.node", cfg);
        let s = plan.display_indent();
        assert!(s.starts_with("Project"), "{s}");
        assert!(s.contains("CrossJoin"), "{s}");
    }

    #[test]
    fn column_pruning_narrows_both_join_inputs() {
        // a(id, x, pad_a) ⋈ b(k, y, pad_b): the pads are never read.
        let e = crate::Engine::new(EngineConfig::test_small());
        e.execute("CREATE TABLE a (id INT, x FLOAT, pad_a FLOAT)").unwrap();
        e.execute("CREATE TABLE b (k INT, y FLOAT, pad_b FLOAT)").unwrap();
        e.execute(
            "INSERT INTO a VALUES (0, 0, -1), (1, 1, -1), (2, 2, -1), (3, 0, -1), (4, 1, -1)",
        )
        .unwrap();
        e.execute(
            "INSERT INTO b VALUES (3, 30, -2), (2, 20, -2), (1, 10, -2), (0, 5, -2), (9, 99, -2)",
        )
        .unwrap();
        let sql = "SELECT a.x, SUM(b.y) AS s FROM a, b WHERE a.id = b.k GROUP BY a.x ORDER BY 1";
        let plan = e.plan(sql).unwrap();
        let mut node = &plan;
        while let LogicalPlan::Sort { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } = node
        {
            node = input;
        }
        let LogicalPlan::HashJoin { left, right, .. } = node else { panic!("{plan}") };
        let names = |p: &LogicalPlan| -> Vec<String> {
            p.schema().fields.iter().map(|f| f.name.clone()).collect()
        };
        assert_eq!(names(left), ["id", "x"], "{plan}");
        assert_eq!(names(right), ["k", "y"], "{plan}");

        // Matches id 0..=3: x = [0, 1, 2, 0], y = [5, 10, 20, 30].
        let f = Value::Float;
        let expected = vec![vec![f(0.0), f(35.0)], vec![f(1.0), f(10.0)], vec![f(2.0), f(20.0)]];
        assert_eq!(e.execute(sql).unwrap().rows(), expected);
    }

    /// `(table, columns loaded)` for every scan in `plan`, left to right:
    /// what the physical layer reads once it fuses column-only projections
    /// into their scans.
    fn loads(plan: &LogicalPlan) -> Vec<(String, Vec<usize>)> {
        fn walk(plan: &LogicalPlan, out: &mut Vec<(String, Vec<usize>)>) {
            match plan {
                LogicalPlan::Scan { table, schema, .. } => {
                    out.push((table.name().to_string(), (0..schema.len()).collect()))
                }
                LogicalPlan::Project { input, exprs, .. } => match column_scan(input, exprs) {
                    Some((table, _, columns)) => out.push((table.name().to_string(), columns)),
                    None => walk(input, out),
                },
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => walk(input, out),
                LogicalPlan::CrossJoin { left, right, .. }
                | LogicalPlan::HashJoin { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                LogicalPlan::Values { .. } => {}
            }
        }
        let mut out = Vec::new();
        walk(plan, &mut out);
        out
    }

    /// The first node under `plan` that is not a Project, Aggregate, Sort
    /// or Filter.
    fn below_unary(plan: &LogicalPlan) -> &LogicalPlan {
        match plan {
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Filter { input, .. } => below_unary(input),
            other => other,
        }
    }

    fn wide(columns: &[usize]) -> Vec<(String, Vec<usize>)> {
        vec![("wide".to_string(), columns.to_vec())]
    }

    #[test]
    fn aggregate_over_scan_is_narrowed() {
        let plan = optimize("SELECT SUM(c), MAX(c) FROM wide", EngineConfig::default());
        assert_eq!(loads(&plan), wide(&[2]), "{plan}");
        let LogicalPlan::Project { input, .. } = &plan else { panic!("{plan}") };
        let LogicalPlan::Aggregate { input, aggs, .. } = input.as_ref() else { panic!("{plan}") };
        assert!(matches!(input.as_ref(), LogicalPlan::Project { .. }), "{plan}");
        assert_eq!(aggs[0].arg, Some(Expr::col(0)), "remapped onto the narrowed input");
    }

    #[test]
    fn filter_only_column_is_loaded_but_not_emitted() {
        // Under an aggregate: the scan loads b and c, the filter reads c.
        let plan = optimize("SELECT SUM(b) FROM wide WHERE c > 0.5", EngineConfig::default());
        assert_eq!(loads(&plan), wide(&[1, 2]), "{plan}");
        // Under a join: c is loaded and filtered on, but the join input
        // carries only a (the key) and b.
        let plan = optimize(
            "SELECT x.b, m.w FROM wide x, m WHERE x.a = m.node AND x.c > 0.5",
            EngineConfig::default(),
        );
        let LogicalPlan::HashJoin { left, .. } = below_unary(&plan) else { panic!("{plan}") };
        let names: Vec<&str> = left.schema().fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "{plan}");
        assert_eq!(loads(left), wide(&[0, 1, 2]), "{plan}");
    }

    #[test]
    fn count_star_alone_keeps_one_column() {
        let plan = optimize("SELECT COUNT(*) FROM wide", EngineConfig::default());
        assert_eq!(loads(&plan), wide(&[0]), "{plan}");
        // With a filter, the filter's column is the one kept.
        let plan = optimize("SELECT COUNT(*) FROM wide WHERE c > 0.5", EngineConfig::default());
        assert_eq!(loads(&plan), wide(&[2]), "{plan}");
    }

    #[test]
    fn self_join_reads_different_columns_on_each_side() {
        let plan = optimize(
            "SELECT x.b, y.c FROM wide x, wide y WHERE x.a = y.a",
            EngineConfig::default(),
        );
        let mut both = wide(&[0, 1]);
        both.extend(wide(&[0, 2]));
        assert_eq!(loads(&plan), both, "{plan}");
    }

    #[test]
    fn join_input_narrowing_sinks_below_the_filter() {
        // The right input is Filter(Scan wide): the projection goes under
        // the filter, and b — read by both — needs none above it.
        let plan = optimize(
            "SELECT wide.b FROM t, wide WHERE t.id = wide.a AND wide.b > 0.5",
            EngineConfig::default(),
        );
        let LogicalPlan::HashJoin { right, .. } = below_unary(&plan) else { panic!("{plan}") };
        let LogicalPlan::Filter { input, .. } = right.as_ref() else { panic!("{plan}") };
        assert_eq!(loads(input), wide(&[0, 1]), "{plan}");
        assert_eq!(right.schema().len(), 2, "{plan}");
    }
}
