//! The unoptimized-plan oracle for the optimizer's rewrites. The binder's
//! plan, run as bound, has no predicate pushdown, no SMA or partition
//! pruning, cross joins under its filters and no column pruning. The
//! engine's optimized plan must give the same rows, bit for bit.

use vector_engine::plan::Binder;
use vector_engine::sql::{parse_statement, Statement};
use vector_engine::{Engine, QueryResult, Value};

/// Rows with floats as bit patterns, so `-0.0` and `0.0` (or two NaNs)
/// compare by their bits.
fn bits(result: &QueryResult) -> Vec<Vec<String>> {
    let cell = |v: Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    result.rows().into_iter().map(|row| row.into_iter().map(cell).collect()).collect()
}

/// Run `sql` through the engine's optimized plan and through the binder's
/// unoptimized plan: the rows must match bit for bit and in order, and a
/// rewrite must have changed the plan. Returns the optimized result.
pub fn assert_matches_unoptimized(engine: &Engine, sql: &str) -> QueryResult {
    let Statement::Select(stmt) = parse_statement(sql).unwrap() else { panic!("{sql}") };
    let bound = Binder::new(engine.catalog()).bind_select(&stmt).unwrap();
    let optimized = engine.plan(sql).unwrap();
    assert_ne!(bound.display_indent(), optimized.display_indent(), "no rewrite fired: {sql}");
    let want = engine.execute_plan(&bound).unwrap();
    let got = engine.execute(sql).unwrap();
    assert_eq!(bits(&got), bits(&want), "{sql}\noptimized:\n{optimized}\nunoptimized:\n{bound}");
    got
}
