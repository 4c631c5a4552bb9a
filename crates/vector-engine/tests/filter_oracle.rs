//! Property tests pinning `FilterExec` on `col <op> literal` to a
//! row-at-a-time oracle that compares with `Value::total_cmp`.
//!
//! The vectorized filter compares a borrowed INT or FLOAT slice against the
//! scalar (literal on either side) and falls back to the cast path for an
//! INT column against a FLOAT literal; the oracle knows none of that. The
//! columns carry the values that break naive comparisons: NaNs of both
//! signs and several payloads (the total order puts them below / above
//! every number), signed zeros (`-0.0 < 0.0` in the total order) and the
//! INT extremes. Kept rows are compared by bit pattern.

use proptest::prelude::*;
use std::cmp::Ordering;
use vector_engine::column::{selection, Batch, ColumnVector};
use vector_engine::exec::physical::{drain, Operator};
use vector_engine::exec::simple::{BatchesExec, FilterExec};
use vector_engine::expr::{BinaryOp, Expr};
use vector_engine::types::Value;

const OPS: [BinaryOp; 6] =
    [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];

const FLOAT_SPECIALS: [f64; 9] = [
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0000),
    f64::from_bits(0x7ff8_0000_0000_0001),
    f64::from_bits(0xffff_ffff_ffff_ffff),
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
];

const INT_SPECIALS: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 1];

/// What the filtered column holds and what the literal is.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Int,
    Float,
    /// An INT column against a FLOAT literal: the cast path.
    IntVsFloat,
}

/// Where the literal comes from, which sets the selectivity: a row's own
/// value (random), a special value, or an end of the type's total order,
/// against which each range op keeps every row or none.
#[derive(Clone, Copy, Debug)]
enum Literal {
    Row(usize),
    Min,
    Max,
    Special(usize),
}

fn lcg(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

/// Small values, so equal pairs are common, with every third row special.
fn column(kind: Kind, n: usize, seed: u64) -> ColumnVector {
    let raw = |i: usize| lcg(seed, i);
    match kind {
        Kind::Int | Kind::IntVsFloat => ColumnVector::Int(
            (0..n)
                .map(|i| match raw(i) % 3 {
                    0 => INT_SPECIALS[(raw(i) / 3) as usize % INT_SPECIALS.len()],
                    _ => (raw(i) % 9) as i64 - 4,
                })
                .collect(),
        ),
        Kind::Float => ColumnVector::Float(
            (0..n)
                .map(|i| match raw(i) % 3 {
                    0 => FLOAT_SPECIALS[(raw(i) / 3) as usize % FLOAT_SPECIALS.len()],
                    _ => ((raw(i) % 9) as f64 - 4.0) * 0.5,
                })
                .collect(),
        ),
    }
}

fn literal(kind: Kind, col: &ColumnVector, which: Literal) -> Value {
    match (kind, which) {
        (Kind::Int, Literal::Row(i)) => col.value(i % col.len()),
        (Kind::Int, Literal::Min) => Value::Int(i64::MIN),
        (Kind::Int, Literal::Max) => Value::Int(i64::MAX),
        (Kind::Int, Literal::Special(k)) => Value::Int(INT_SPECIALS[k % INT_SPECIALS.len()]),
        (Kind::Float, Literal::Row(i)) => col.value(i % col.len()),
        // The smallest and largest floats in the total order: negative and
        // positive NaNs with every payload bit set.
        (_, Literal::Min) => Value::Float(f64::from_bits(u64::MAX)),
        (_, Literal::Max) => Value::Float(f64::from_bits(u64::MAX >> 1)),
        (_, Literal::Special(k)) => Value::Float(FLOAT_SPECIALS[k % FLOAT_SPECIALS.len()]),
        (Kind::IntVsFloat, Literal::Row(i)) => {
            Value::Float(col.value(i % col.len()).as_f64().unwrap())
        }
    }
}

fn holds(op: BinaryOp, ord: Ordering) -> bool {
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

/// A value by bit pattern, so NaN payloads and signed zeros compare.
fn bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Int(x) => (0, *x as u64),
        Value::Float(x) => (1, x.to_bits()),
        other => panic!("unexpected value {other:?}"),
    }
}

fn batch_bits(batches: &[Batch]) -> Vec<Vec<(u8, u64)>> {
    batches
        .iter()
        .flat_map(|b| (0..b.num_rows()).map(move |r| b.row(r).iter().map(bits).collect()))
        .collect()
}

/// The filtered column plus a row-number payload, in `chunk`-row batches.
fn input(col: &ColumnVector, chunk: usize) -> (Batch, Box<dyn Operator>) {
    let payload = ColumnVector::Int((0..col.len() as i64).collect());
    let all = Batch::new(vec![col.clone(), payload]);
    let batches = (0..all.num_rows())
        .step_by(chunk)
        .map(|s| all.slice(s, (s + chunk).min(all.num_rows())))
        .collect();
    (all, Box::new(BatchesExec::new(batches)))
}

fn check_filter(
    kind: Kind,
    n: usize,
    which: Literal,
    op: BinaryOp,
    literal_left: bool,
    chunk: usize,
    seed: u64,
) -> Result<usize, String> {
    let col = column(kind, n, seed);
    let lit = literal(kind, &col, which);
    let predicate = if literal_left {
        Expr::binary(op, Expr::lit(lit.clone()), Expr::col(0))
    } else {
        Expr::binary(op, Expr::col(0), Expr::lit(lit.clone()))
    };
    let (all, source) = input(&col, chunk);
    let got = drain(Box::new(FilterExec::new(source, predicate))).map_err(|e| e.to_string())?;

    let mask: Vec<bool> = (0..n)
        .map(|i| {
            let v = col.value(i);
            let ord = if literal_left { lit.total_cmp(&v) } else { v.total_cmp(&lit) };
            holds(op, ord)
        })
        .collect();
    let kept: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
    let want = all.take(&kept);
    if batch_bits(&got) != batch_bits(std::slice::from_ref(&want)) {
        return Err(format!(
            "{kind:?} {op:?} {lit:?} (literal left: {literal_left}, chunk {chunk}): \
             kept {} rows, oracle {}",
            got.iter().map(Batch::num_rows).sum::<usize>(),
            kept.len()
        ));
    }
    if selection(&mask) != kept {
        return Err(format!("selection of {mask:?} is not {kept:?}"));
    }
    if batch_bits(&[all.filter(&mask)]) != batch_bits(&[want]) {
        return Err("Batch::filter(mask) differs from Batch::take(kept rows)".into());
    }
    Ok(kept.len())
}

fn arb_kind() -> impl Strategy<Value = Kind> {
    prop_oneof![Just(Kind::Int), Just(Kind::Float), Just(Kind::IntVsFloat)]
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (0usize..1000).prop_map(Literal::Row),
        Just(Literal::Min),
        Just(Literal::Max),
        (0usize..16).prop_map(Literal::Special),
    ]
}

fn arb_op() -> impl Strategy<Value = BinaryOp> {
    (0usize..OPS.len()).prop_map(|i| OPS[i])
}

fn arb_chunk() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(7usize), Just(1024usize)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn filter_matches_total_cmp_oracle(
        kind in arb_kind(),
        n in 1usize..300,
        which in arb_literal(),
        op in arb_op(),
        literal_left in any::<bool>(),
        chunk in arb_chunk(),
        seed in 0u64..1_000_000,
    ) {
        check_filter(kind, n, which, op, literal_left, chunk, seed)?;
    }
}

/// Every op, both literal sides, all three column kinds and every chunk
/// size, with the literal at either end of the total order and inside the
/// data: selectivities 0, in between and 1 all occur for each kind.
#[test]
fn every_op_side_and_chunk_at_every_selectivity() {
    const N: usize = 2000;
    for kind in [Kind::Int, Kind::Float, Kind::IntVsFloat] {
        let mut seen = [false; 3];
        for op in OPS {
            for literal_left in [false, true] {
                for chunk in [1, 7, 1024] {
                    for which in [Literal::Min, Literal::Max, Literal::Row(5)] {
                        let kept =
                            check_filter(kind, N, which, op, literal_left, chunk, 7).unwrap();
                        seen[match kept {
                            0 => 0,
                            N => 2,
                            _ => 1,
                        }] = true;
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "{kind:?}: selectivities 0 / between / 1 not all seen");
    }
}

/// The branch-free selection against the obvious one, over masks longer
/// than its 64-row chunk and with every density.
#[test]
fn selection_lists_the_set_rows() {
    for n in [0, 1, 63, 64, 65, 200] {
        for density in [0, 1, 2, 3, 4] {
            let mask: Vec<bool> = (0..n).map(|i| lcg(density, i) % 4 < density).collect();
            let want: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
            assert_eq!(selection(&mask), want, "n={n}, density={density}");
        }
    }
}
