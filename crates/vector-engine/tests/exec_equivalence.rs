//! Property tests pinning the vectorized hash join and hash aggregation to
//! the seed row-at-a-time oracle (`exec::rowwise`), across key types
//! (including the INT 3 / FLOAT 3.0 unification), group counts, batch
//! boundaries, and vector sizes. The engine is NULL-free, so the generated
//! data is too; the serial vectorized operators fold rows in the same order
//! as the oracle, making even floating-point outputs bitwise comparable.

use proptest::prelude::*;
use vector_engine::column::{Batch, ColumnVector};
use vector_engine::exec::agg::HashAggExec;
use vector_engine::exec::join::HashJoinExec;
use vector_engine::exec::physical::{drain, Operator};
use vector_engine::exec::rowwise::{RowHashAggExec, RowHashJoinExec};
use vector_engine::exec::simple::{BatchesExec, FilterExec};
use vector_engine::expr::Expr;
use vector_engine::plan::logical::{AggFunc, AggSpec};
use vector_engine::types::{DataType, Value};
use vector_engine::{Engine, EngineConfig, EngineError};

/// What type the key column is built from. `FloatIntegral` produces whole
/// numbers, so against `Int` keys it exercises SQL's cross-type equality.
#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Int,
    FloatIntegral,
    FloatFractional,
    Str,
    Bool,
}

fn arb_key_kind() -> impl Strategy<Value = KeyKind> {
    prop_oneof![
        Just(KeyKind::Int),
        Just(KeyKind::FloatIntegral),
        Just(KeyKind::FloatFractional),
        Just(KeyKind::Str),
        Just(KeyKind::Bool),
    ]
}

/// Small split-mix style generator so all columns derive from one seed.
fn lcg(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

fn key_column(kind: KeyKind, n: usize, domain: u64, seed: u64) -> ColumnVector {
    let raw = |i: usize| lcg(seed, i) % domain;
    match kind {
        KeyKind::Int => ColumnVector::Int((0..n).map(|i| raw(i) as i64).collect()),
        KeyKind::FloatIntegral => ColumnVector::Float((0..n).map(|i| raw(i) as f64).collect()),
        KeyKind::FloatFractional => {
            ColumnVector::Float((0..n).map(|i| raw(i) as f64 + 0.5).collect())
        }
        KeyKind::Str => ColumnVector::Str((0..n).map(|i| format!("k{}", raw(i))).collect()),
        KeyKind::Bool => ColumnVector::Bool((0..n).map(|i| raw(i) % 2 == 0).collect()),
    }
}

fn float_column(n: usize, seed: u64) -> ColumnVector {
    // Exact dyadic values in [-8, 8): sums are order-sensitive in general,
    // but oracle and vectorized operators add in the same order, so results
    // stay bitwise equal.
    ColumnVector::Float((0..n).map(|i| (lcg(seed, i) % 1024) as f64 / 64.0 - 8.0).collect())
}

fn int_column(n: usize, seed: u64) -> ColumnVector {
    ColumnVector::Int((0..n).map(|i| (lcg(seed, i) % 2000) as i64 - 1000).collect())
}

/// Wrap columns as a multi-batch operator, splitting every `chunk` rows to
/// exercise batch-boundary handling.
fn operator_from(cols: Vec<ColumnVector>, chunk: usize) -> Box<dyn Operator> {
    let all = Batch::new(cols);
    let rows = all.num_rows();
    let chunk = chunk.max(1);
    let mut batches = Vec::new();
    let mut off = 0;
    while off < rows {
        let end = (off + chunk).min(rows);
        batches.push(all.slice(off, end));
        off = end;
    }
    Box::new(BatchesExec::new(batches))
}

fn collect_rows(batches: Vec<Batch>) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for b in batches {
        for r in 0..b.num_rows() {
            out.push(b.row(r));
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn check_join(
    left_kind: KeyKind,
    right_kind: KeyKind,
    n_left: usize,
    n_right: usize,
    domain: u64,
    chunk: usize,
    vector_size: usize,
    seed: u64,
) -> Result<(), String> {
    // Cross-type Str/Bool vs numeric keys never match under SQL equality;
    // that is covered, not excluded — the oracle agrees it yields nothing.
    let build = |kind: KeyKind, n: usize, s: u64| {
        vec![key_column(kind, n, domain, s), float_column(n, s ^ 0xabcdef), int_column(n, s ^ 0x55)]
    };
    let left = build(left_kind, n_left, seed);
    let right = build(right_kind, n_right, seed ^ 0x1234_5678);
    let keys = || (vec![Expr::col(0)], vec![Expr::col(0)]);

    let (lk, rk) = keys();
    let vec_join = HashJoinExec::new(
        operator_from(left.clone(), chunk),
        operator_from(right.clone(), chunk),
        lk,
        rk,
        vector_size,
    );
    let (lk, rk) = keys();
    let row_join = RowHashJoinExec::new(
        operator_from(left, chunk),
        operator_from(right, chunk),
        lk,
        rk,
        vector_size,
    );

    let got = collect_rows(drain(Box::new(vec_join)).map_err(|e| e.to_string())?);
    let want = collect_rows(drain(Box::new(row_join)).map_err(|e| e.to_string())?);
    if got != want {
        return Err(format!(
            "join mismatch ({left_kind:?} vs {right_kind:?}, n_left={n_left}, \
             n_right={n_right}, domain={domain}, chunk={chunk}, vs={vector_size}): \
             {} rows vs oracle {} rows",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

fn check_agg(
    kind: KeyKind,
    n: usize,
    domain: u64,
    chunk: usize,
    vector_size: usize,
    seed: u64,
) -> Result<(), String> {
    let key = key_column(kind, n, domain, seed);
    let key_type = key.data_type();
    let cols = vec![key, float_column(n, seed ^ 0x77), int_column(n, seed ^ 0x99)];
    let group = vec![Expr::col(0)];
    let aggs = vec![
        AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
        AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(2)) },
        AggSpec { func: AggFunc::Count, arg: None },
        AggSpec { func: AggFunc::Avg, arg: Some(Expr::col(1)) },
        AggSpec { func: AggFunc::Min, arg: Some(Expr::col(1)) },
        AggSpec { func: AggFunc::Max, arg: Some(Expr::col(2)) },
        AggSpec { func: AggFunc::Min, arg: Some(Expr::col(0)) },
    ];
    let types = vec![
        key_type,
        DataType::Float,
        DataType::Int,
        DataType::Int,
        DataType::Float,
        DataType::Float,
        DataType::Int,
        key_type,
    ];

    let vec_agg = HashAggExec::new(
        operator_from(cols.clone(), chunk),
        group.clone(),
        aggs.clone(),
        types.clone(),
        vector_size,
    );
    let row_agg = RowHashAggExec::new(operator_from(cols, chunk), group, aggs, types, vector_size);

    let got = collect_rows(drain(Box::new(vec_agg)).map_err(|e| e.to_string())?);
    let want = collect_rows(drain(Box::new(row_agg)).map_err(|e| e.to_string())?);
    if got != want {
        return Err(format!(
            "agg mismatch ({kind:?}, n={n}, domain={domain}, chunk={chunk}, \
             vs={vector_size}): {got:?} vs oracle {want:?}"
        ));
    }
    Ok(())
}

fn check_global_agg(n: usize, chunk: usize, seed: u64) -> Result<(), String> {
    let cols = vec![float_column(n, seed), int_column(n, seed ^ 0x3141)];
    let aggs = vec![
        AggSpec { func: AggFunc::Count, arg: None },
        AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(0)) },
        AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
        AggSpec { func: AggFunc::Avg, arg: Some(Expr::col(0)) },
    ];
    let types = vec![DataType::Int, DataType::Float, DataType::Int, DataType::Float];
    let vec_agg = HashAggExec::new(
        operator_from(cols.clone(), chunk),
        vec![],
        aggs.clone(),
        types.clone(),
        1024,
    );
    let row_agg = RowHashAggExec::new(operator_from(cols, chunk), vec![], aggs, types, 1024);
    let got = collect_rows(drain(Box::new(vec_agg)).map_err(|e| e.to_string())?);
    let want = collect_rows(drain(Box::new(row_agg)).map_err(|e| e.to_string())?);
    if got != want {
        return Err(format!("global agg mismatch (n={n}): {got:?} vs oracle {want:?}"));
    }
    Ok(())
}

/// Floats that stress bitwise agreement: one NaN payload (so a sum's NaN
/// has one possible payload), signed zeros, and values whose sums round.
const SUM_SPECIALS: [f64; 5] = [f64::NAN, 0.0, -0.0, 0.1, 1e300];

/// What MIN/MAX alone see besides: NaNs of both signs and another payload,
/// which the total order puts below / above every number, and infinities.
const ORDER_SPECIALS: [f64; 6] = [
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0000),
    f64::from_bits(0x7ff8_0000_0000_0001),
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
];

/// Tenths, whose float sums depend on the order they are added in, with
/// one row in 2, 8 or 64 (by seed) a special value, or none.
fn special_float_column(n: usize, seed: u64, specials: &[f64]) -> ColumnVector {
    let every = [2, 8, 64, u64::MAX][(seed % 4) as usize];
    ColumnVector::Float(
        (0..n)
            .map(|i| {
                let r = lcg(seed, i);
                if r.is_multiple_of(every) {
                    specials[(r >> 32) as usize % specials.len()]
                } else {
                    (r % 2048) as f64 / 10.0 - 102.4
                }
            })
            .collect(),
    )
}

/// Run one global aggregate through the vectorized operator and the oracle
/// over the same input, keeping only the rows where `keep` holds.
fn run_global(
    cols: &[ColumnVector],
    chunk: usize,
    keep: &Expr,
    aggs: &[AggSpec],
    types: &[DataType],
    vectorized: bool,
) -> Result<Vec<Vec<Value>>, String> {
    let input = Box::new(FilterExec::new(operator_from(cols.to_vec(), chunk), keep.clone()));
    let (aggs, types) = (aggs.to_vec(), types.to_vec());
    let op: Box<dyn Operator> = if vectorized {
        Box::new(HashAggExec::new(input, vec![], aggs, types, 1024))
    } else {
        Box::new(RowHashAggExec::new(input, vec![], aggs, types, 1024))
    };
    drain(op).map(collect_rows).map_err(|e| e.to_string())
}

/// Every aggregate over every column type, bit for bit against the
/// oracle: COUNT/SUM/AVG over floats with NaN and signed zeros, MIN/MAX
/// over INT, FLOAT (NaN payloads of both signs, infinities), VARCHAR and
/// BOOLEAN. With `empty`, a filter removes every row first: the sums give
/// their identities and MIN/MAX fail, the same way on both sides.
fn check_global_agg_bitwise(n: usize, chunk: usize, seed: u64, empty: bool) -> Result<(), String> {
    let cols = vec![
        special_float_column(n, seed, &SUM_SPECIALS),
        special_float_column(n, seed ^ 0x2718, &ORDER_SPECIALS),
        int_column(n, seed ^ 0x3141),
        key_column(KeyKind::Str, n, 64, seed ^ 0x1618),
        key_column(KeyKind::Bool, n, 2, seed ^ 0x1414),
    ];
    let keep = Expr::lit(Value::Bool(!empty));
    let arg = |func, c| AggSpec { func, arg: Some(Expr::col(c)) };
    let sums = [
        AggSpec { func: AggFunc::Count, arg: None },
        arg(AggFunc::Sum, 0),
        arg(AggFunc::Sum, 2),
        arg(AggFunc::Avg, 0),
        arg(AggFunc::Avg, 2),
    ];
    let sum_types =
        [DataType::Int, DataType::Float, DataType::Int, DataType::Float, DataType::Float];
    let mut min_max = Vec::new();
    let mut min_max_types = Vec::new();
    for (c, t) in [
        (0, DataType::Float),
        (1, DataType::Float),
        (2, DataType::Int),
        (3, DataType::Str),
        (4, DataType::Bool),
    ] {
        min_max.extend([arg(AggFunc::Min, c), arg(AggFunc::Max, c)]);
        min_max_types.extend([t, t]);
    }
    for (aggs, types) in [(&sums[..], &sum_types[..]), (&min_max[..], &min_max_types[..])] {
        let got = run_global(&cols, chunk, &keep, aggs, types, true);
        let want = run_global(&cols, chunk, &keep, aggs, types, false);
        let same = match (&got, &want) {
            (Ok(g), Ok(w)) => rows_bitwise_equal(g, w),
            (Err(g), Err(w)) => g == w,
            _ => false,
        };
        if !same {
            return Err(format!(
                "global agg mismatch (n={n}, chunk={chunk}, empty={empty}): \
                 {got:?} vs oracle {want:?}"
            ));
        }
    }
    Ok(())
}

/// `SUM` over INT overflows the same way in debug and release builds, in
/// the vectorized operator and the oracle, and through SQL at 1 and 4
/// partitions: an `Execution` error naming `SUM`.
#[test]
fn int_sum_overflow_is_an_error() {
    let half = i64::MAX / 2 + 1;
    let cols = vec![ColumnVector::Int(vec![half, half])];
    let aggs = vec![AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(0)) }];
    let types = vec![DataType::Int];
    for chunk in [1, 2] {
        let vec_agg = HashAggExec::new(
            operator_from(cols.clone(), chunk),
            vec![],
            aggs.clone(),
            types.clone(),
            1024,
        );
        let row_agg = RowHashAggExec::new(
            operator_from(cols.clone(), chunk),
            vec![],
            aggs.clone(),
            types.clone(),
            1024,
        );
        for op in [Box::new(vec_agg) as Box<dyn Operator>, Box::new(row_agg)] {
            match drain(op) {
                Err(EngineError::Execution(msg)) => assert!(msg.contains("SUM"), "{msg}"),
                other => panic!("expected a SUM overflow error, got {other:?}"),
            }
        }
    }
    for partitions in [1, 4] {
        let engine = Engine::new(EngineConfig { partitions, ..Default::default() });
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        // Two statements: with 4 partitions the rows land in different
        // partitions, so the overflow happens when the aggregate folds in
        // the second partition's row.
        engine.execute(&format!("INSERT INTO t VALUES ({half})")).unwrap();
        engine.execute(&format!("INSERT INTO t VALUES ({half})")).unwrap();
        for sql in ["SELECT SUM(x) FROM t", "SELECT x % 1, SUM(x) FROM t GROUP BY x % 1"] {
            match engine.execute(sql) {
                Err(EngineError::Execution(msg)) => assert!(msg.contains("SUM"), "{msg}"),
                other => panic!("{sql} at {partitions} partitions: got {other:?}"),
            }
        }
    }
}

fn arb_rows() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 1usize..4, 4usize..40, 40usize..160]
}

/// Group/key domains from all-collide to mostly-distinct.
fn arb_domain() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2u64), 3u64..9, Just(64u64)]
}

/// Batch sizes that put boundaries everywhere, including mid-group.
fn arb_chunk() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(3usize), Just(7usize), Just(64usize), Just(1024usize)]
}

fn arb_vector_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(5usize), Just(1024usize)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn hash_join_matches_rowwise_oracle(
        left_kind in arb_key_kind(),
        right_kind in arb_key_kind(),
        n_left in arb_rows(),
        n_right in arb_rows(),
        domain in arb_domain(),
        chunk in arb_chunk(),
        vector_size in arb_vector_size(),
        seed in 0u64..1_000_000,
    ) {
        check_join(left_kind, right_kind, n_left, n_right, domain, chunk, vector_size, seed)?;
    }

    #[test]
    fn hash_agg_matches_rowwise_oracle(
        kind in arb_key_kind(),
        n in arb_rows(),
        domain in arb_domain(),
        chunk in arb_chunk(),
        vector_size in arb_vector_size(),
        seed in 0u64..1_000_000,
    ) {
        check_agg(kind, n, domain, chunk, vector_size, seed)?;
    }

    #[test]
    fn global_agg_matches_rowwise_oracle(
        n in arb_rows(),
        chunk in arb_chunk(),
        seed in 0u64..1_000_000,
        empty in any::<bool>(),
    ) {
        check_global_agg(n, chunk, seed)?;
        check_global_agg_bitwise(n, chunk, seed, empty)?;
    }
}

/// The INT 3 / FLOAT 3.0 unification, pinned explicitly: integral float
/// keys on one side must join and group with integer keys on the other.
#[test]
fn int_float_key_unification_matches_oracle() {
    for seed in 0..16 {
        check_join(KeyKind::Int, KeyKind::FloatIntegral, 50, 30, 5, 7, 1024, seed).unwrap();
        check_join(KeyKind::FloatIntegral, KeyKind::Int, 50, 30, 5, 7, 1024, seed).unwrap();
        check_agg(KeyKind::FloatIntegral, 80, 4, 9, 1024, seed).unwrap();
    }
}

/// The float keys that stressed the normalization bug: NaN, infinities,
/// 2^63 (integral but above i64::MAX), huge finite values, and signed
/// zeros. Before the exclusive-bound fix, FLOAT 2^63 saturated onto INT
/// i64::MAX's code and joined/grouped with it.
const SPECIAL_FLOATS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    9_223_372_036_854_775_808.0, // 2^63 == i64::MAX as f64 after rounding
    -9_223_372_036_854_775_808.0, // -2^63 == i64::MIN exactly
    0.0,
    -0.0,
    3.0,
    3.5,
];

fn special_float_side(n: usize) -> Vec<ColumnVector> {
    let keys: Vec<f64> = (0..n).map(|i| SPECIAL_FLOATS[i % SPECIAL_FLOATS.len()]).collect();
    let payload: Vec<i64> = (0..n as i64).collect();
    vec![ColumnVector::Float(keys), ColumnVector::Int(payload)]
}

fn int_extreme_side(n: usize) -> Vec<ColumnVector> {
    let pool = [i64::MAX, i64::MIN, 0, 3, 7];
    let keys: Vec<i64> = (0..n).map(|i| pool[i % pool.len()]).collect();
    let payload: Vec<i64> = (0..n as i64).map(|i| i + 1000).collect();
    vec![ColumnVector::Int(keys), ColumnVector::Int(payload)]
}

/// Special-float keys against integer extremes: vectorized join must match
/// the row-at-a-time oracle, and the semantics must be right — FLOAT 2^63
/// never meets INT i64::MAX, while FLOAT -2^63 does meet INT i64::MIN.
#[test]
fn special_float_keys_join_matches_oracle_and_semantics() {
    for &(chunk, vs) in &[(1usize, 1usize), (3, 5), (7, 1024), (64, 1024)] {
        let left = special_float_side(20);
        let right = int_extreme_side(15);
        let keys = || (vec![Expr::col(0)], vec![Expr::col(0)]);

        let (lk, rk) = keys();
        let vec_join = HashJoinExec::new(
            operator_from(left.clone(), chunk),
            operator_from(right.clone(), chunk),
            lk,
            rk,
            vs,
        );
        let (lk, rk) = keys();
        let row_join = RowHashJoinExec::new(
            operator_from(left.clone(), chunk),
            operator_from(right.clone(), chunk),
            lk,
            rk,
            vs,
        );
        let got = collect_rows(drain(Box::new(vec_join)).unwrap());
        let want = collect_rows(drain(Box::new(row_join)).unwrap());
        assert_eq!(got, want, "special-float join diverged from oracle (chunk={chunk}, vs={vs})");

        // Direct semantic checks, independent of the (previously wrong)
        // oracle: exactly three float keys have an integer partner, and
        // FLOAT 2^63 / INT i64::MAX is NOT one of the pairings.
        for row in &got {
            let (f, i) = match (&row[0], &row[2]) {
                (Value::Float(f), Value::Int(i)) => (*f, *i),
                other => panic!("unexpected key types {other:?}"),
            };
            assert!(
                (f == i64::MIN as f64 && i == i64::MIN)
                    || (f == 0.0 && i == 0)
                    || (f == 3.0 && i == 3),
                "illegitimate pairing FLOAT {f:?} ~ INT {i} (chunk={chunk}, vs={vs})"
            );
        }
        // -2^63(2x)·MIN(3x) + {0.0,-0.0}(4x)·0(3x) + 3.0(2x)·3(3x) = 24;
        // before the fix, 2^63(2x)·MAX(3x) added 6 bogus rows.
        assert_eq!(got.len(), 24, "wrong match count (chunk={chunk}, vs={vs})");
    }
}

/// Row equality with floats compared by bit pattern (grouping semantics),
/// so NaN keys compare equal to themselves across the two engines.
fn rows_bitwise_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => va == vb,
                })
        })
}

/// GROUP BY over the special floats: every distinct bit pattern is its own
/// group (the two NaN-bit-identical keys collapse; 0.0 and -0.0 collapse),
/// and the vectorized aggregation matches the oracle exactly.
#[test]
fn special_float_keys_group_by_matches_oracle_and_semantics() {
    for &(chunk, vs) in &[(1usize, 1usize), (3, 5), (64, 1024)] {
        let cols = special_float_side(20);
        let group = vec![Expr::col(0)];
        let aggs = vec![
            AggSpec { func: AggFunc::Count, arg: None },
            AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
        ];
        let types = vec![DataType::Float, DataType::Int, DataType::Int];

        let vec_agg = HashAggExec::new(
            operator_from(cols.clone(), chunk),
            group.clone(),
            aggs.clone(),
            types.clone(),
            vs,
        );
        let row_agg =
            RowHashAggExec::new(operator_from(cols.clone(), chunk), group, aggs, types, vs);
        let got = collect_rows(drain(Box::new(vec_agg)).unwrap());
        let want = collect_rows(drain(Box::new(row_agg)).unwrap());
        assert!(
            rows_bitwise_equal(&got, &want),
            "special-float agg diverged from oracle (chunk={chunk}, vs={vs}): \
             {got:?} vs {want:?}"
        );

        // 10 distinct key values, minus {0.0, -0.0} collapsing: 9 groups.
        // NaN/inf/1e300/2^63 each form their own group — none of them
        // lands in the 0.0 or extreme-integer-code groups.
        assert_eq!(got.len(), 9, "expected 9 groups (chunk={chunk}, vs={vs}): {got:?}");
        let zero_group = got.iter().find(|r| matches!(r[0], Value::Float(f) if f == 0.0)).unwrap();
        // Rows 6 and 7 of each 10-row block carry keys 0.0 and -0.0.
        assert_eq!(zero_group[1], Value::Int(4), "0.0/-0.0 group has 4 of 20 rows");
    }
}
