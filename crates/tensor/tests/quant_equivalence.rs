//! Property tests pinning the int8 quantized GEMM to its two contracts:
//!
//! 1. **Accuracy**: `qgemm_dense` tracks the exact fp32 product within the
//!    documented worst-case bound `qgemm_error_bound(k, amax, wmax)` —
//!    half a quantization step per factor plus the cross term, summed over
//!    the k-length dot product (see `tensor::quant`).
//! 2. **Determinism**: the blocked, SIMD-dispatched path is bit-identical
//!    to the naive quantized reference (`qgemm_dense_reference`) —
//!    packing, tiling and kernel choice may never change any element's
//!    arithmetic.
//!
//! Plus the adversarial corners the scheme special-cases: all-zero weight
//! columns (scale fallback), single-row batches, and saturating weights at
//! the ±amax corners.

use proptest::prelude::*;
use tensor::blas::sgemm_reference;
use tensor::quant::{qgemm_dense_reference, qgemm_error_bound};
use tensor::{qgemm_dense, Activation, Init, Matrix, QuantScratch, QuantizedWeights};

/// Shapes that exercise the unblocked/blocked boundary and the tile edges:
/// tiny, prime, around one register tile (MR=8, NR=32), and irregular.
fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=4,
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(31usize),
        Just(33usize),
        13usize..90,
    ]
}

fn arb_activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Linear),
        Just(Activation::Relu),
        Just(Activation::Sigmoid),
        Just(Activation::Tanh),
    ]
}

fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Values in [-0.5, 0.5]: amax = wmax = 0.5 bounds every generated
    // element, so one error budget covers all cases.
    Matrix::from_fn(rows, cols, |r, c| {
        let x = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c as u64)
            .wrapping_add(seed)
            .wrapping_mul(1442695040888963407);
        ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// Accuracy contract: int8 result within the documented bound of the exact
/// fp32 product (activation must be Linear so the bound applies raw).
fn check_error_bound(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let a = fill(m, k, seed);
    let w = fill(k, n, seed ^ 0x9e3779b97f4a7c15);
    let wq = QuantizedWeights::quantize(&w);
    let mut got = Matrix::zeros(m, n);
    let mut scratch = QuantScratch::default();
    qgemm_dense(&a, &wq, None, Activation::Linear, false, &mut got, &mut scratch);
    let mut exact = Matrix::zeros(m, n);
    sgemm_reference(1.0, &a, &w, 0.0, &mut exact);
    let bound = qgemm_error_bound(k, 0.5, 0.5);
    let diff = got.max_abs_diff(&exact);
    if diff > bound {
        return Err(format!("m={m} k={k} n={n}: int8 error {diff} exceeds bound {bound}"));
    }
    Ok(())
}

/// Determinism contract: the production path (packing + SIMD dispatch +
/// blocking + fused epilogue) is bit-identical to the naive
/// i64-accumulated quantized reference.
fn check_bit_identical(
    m: usize,
    k: usize,
    n: usize,
    activation: Activation,
    with_bias: bool,
    seed: u64,
) -> Result<(), String> {
    let a = fill(m, k, seed);
    let w = fill(k, n, seed ^ 0xd1b54a32d192ed03);
    let wq = QuantizedWeights::quantize(&w);
    let bias: Option<Vec<f32>> =
        with_bias.then(|| (0..n).map(|j| (j as f32 * 0.17).sin() * 0.3).collect());
    let mut got = Matrix::zeros(m, n);
    let mut expected = Matrix::zeros(m, n);
    let mut scratch = QuantScratch::default();
    let init = bias.as_deref().map_or(Init::Zero, Init::Bias);
    wq.gemm(&a, init, activation, &mut got, &mut scratch);
    qgemm_dense_reference(&a, &wq, bias.as_deref(), activation, false, &mut expected);
    if got != expected {
        return Err(format!(
            "m={m} k={k} n={n} act={activation:?} bias={with_bias}: \
             blocked path diverged from quantized reference (max diff {})",
            got.max_abs_diff(&expected)
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn int8_gemm_tracks_fp32_within_documented_bound(
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        seed in 0u64..1_000_000,
    ) {
        check_error_bound(m, k, n, seed)?;
    }

    #[test]
    fn blocked_threaded_path_is_bit_identical_to_reference(
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        activation in arb_activation(),
        with_bias in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        check_bit_identical(m, k, n, activation, with_bias, seed)?;
    }
}

proptest! {
    // Large shapes are expensive; a few cases still cross the MC/KC/NC
    // cache-block boundaries.
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn large_shapes_hold_both_contracts(
        m in prop_oneof![Just(257usize), Just(1024usize)],
        k in prop_oneof![Just(3usize), Just(511usize), Just(513usize)],
        n in prop_oneof![Just(1usize), Just(129usize), Just(300usize)],
        seed in 0u64..1_000_000,
    ) {
        check_error_bound(m, k, n, seed)?;
        check_bit_identical(m, k, n, Activation::Relu, true, seed)?;
    }
}

/// All-zero weight columns take the scale fallback (1.0) and must come out
/// exactly zero — no quantization noise is allowed to leak into a column
/// the model never writes.
#[test]
fn all_zero_weight_columns_stay_exactly_zero() {
    let (m, k, n) = (33, 40, 35);
    let a = fill(m, k, 7);
    let mut w = fill(k, n, 8);
    for r in 0..k {
        let row = w.row_mut(r);
        row[0] = 0.0;
        row[n / 2] = 0.0;
        row[n - 1] = 0.0;
    }
    let wq = QuantizedWeights::quantize(&w);
    let mut out = Matrix::zeros(m, n);
    let mut scratch = QuantScratch::default();
    qgemm_dense(&a, &wq, None, Activation::Linear, false, &mut out, &mut scratch);
    for i in 0..m {
        for &j in &[0, n / 2, n - 1] {
            assert_eq!(out.get(i, j), 0.0, "zero column leaked noise at ({i},{j})");
        }
    }
}

/// A single-row batch (the point-serving shape) exercises the MR-padded
/// packing edge: one live row, seven zero rows per A panel.
#[test]
fn single_row_batches_hold_both_contracts() {
    for k in [1usize, 8, 31, 64, 513] {
        check_error_bound(1, k, 37, k as u64).unwrap();
        check_bit_identical(1, k, 37, Activation::Sigmoid, true, k as u64).unwrap();
    }
}

/// Weights sitting exactly at ±amax quantize to ±127 — the saturation
/// corners of the i8 range — and the contracts must still hold there.
#[test]
fn saturating_weights_hold_both_contracts() {
    let (m, k, n) = (17, 24, 33);
    let a = fill(m, k, 11);
    let w = Matrix::from_fn(k, n, |r, c| if (r + c) % 2 == 0 { 0.5 } else { -0.5 });
    let wq = QuantizedWeights::quantize(&w);
    // ±0.5 is exactly representable: every quantized weight is ±127 and
    // round-trips losslessly.
    assert!(wq.scales().iter().all(|&s| s == 0.5 / 127.0));

    let mut got = Matrix::zeros(m, n);
    let mut scratch = QuantScratch::default();
    qgemm_dense(&a, &wq, None, Activation::Linear, false, &mut got, &mut scratch);
    let mut exact = Matrix::zeros(m, n);
    sgemm_reference(1.0, &a, &w, 0.0, &mut exact);
    assert!(got.max_abs_diff(&exact) <= qgemm_error_bound(k, 0.5, 0.5));

    let mut expected = Matrix::zeros(m, n);
    qgemm_dense_reference(&a, &wq, None, Activation::Linear, false, &mut expected);
    assert_eq!(got, expected, "saturated weights broke bit-identity");
}

/// `Init::Accumulate` takes an activation as the other inits do: the call
/// equals the same call with `Linear` followed by `Activation::apply`, bit
/// for bit, and so does the quantized reference; at one shape below and
/// one above the blocked kernel's FLOP threshold (2^17).
#[test]
fn accumulate_then_activation_equals_linear_accumulate_then_apply() {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (m, k, n) in [(4, 16, 8), (70, 130, 75)] {
        let a = fill(m, k, 21);
        let wq = QuantizedWeights::quantize(&fill(k, n, 22));
        let base = fill(m, n, 23);
        let mut scratch = QuantScratch::default();
        for act in [Activation::Sigmoid, Activation::Tanh] {
            let mut want = base.clone();
            wq.gemm(&a, Init::Accumulate, Activation::Linear, &mut want, &mut scratch);
            act.apply(want.as_mut_slice());
            let mut got = base.clone();
            wq.gemm(&a, Init::Accumulate, act, &mut got, &mut scratch);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} {act}");
            let mut reference = base.clone();
            qgemm_dense_reference(&a, &wq, None, act, true, &mut reference);
            assert_eq!(bits(&got), bits(&reference), "{m}x{k}x{n} {act} reference");
        }
    }
}
