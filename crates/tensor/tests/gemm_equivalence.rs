//! Property tests pinning the blocked `sgemm` to the naive
//! reference oracle across the whole parameter space: arbitrary
//! `alpha`/`beta` (including the 0 and 1 special cases), and shapes that
//! straddle every tiling boundary — 1×1, primes, tall-skinny, and
//! non-tile-multiple sizes. Also: the packed-weight GEMM with its fused
//! bias epilogue keeps the bits of the bias-copy + `sgemm` formulation,
//! and no path drops the NaN of `0 × inf`.

use proptest::prelude::*;
use tensor::blas::{sgemm, sgemm_reference, sgemm_unblocked, Transpose};
use tensor::{Activation, Init, Matrix, PackedMatrix};

/// Alpha/beta values biased toward the special-cased constants.
fn arb_scalar() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), Just(1.0f32), Just(-1.0f32), -2.0f32..2.0,]
}

/// Shapes that exercise the small-path/blocked-path boundary and the tile
/// edges: tiny, prime, around one register tile, around one cache block.
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

fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Small deterministic pseudo-random values: keeps the f32 comparison
    // tolerance meaningful at any k.
    Matrix::from_fn(rows, cols, |r, c| {
        let x = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c as u64)
            .wrapping_add(seed)
            .wrapping_mul(1442695040888963407);
        ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

fn check_against_reference(
    alpha: f32,
    beta: f32,
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
) -> Result<(), String> {
    let a = fill(m, k, seed);
    let b = fill(k, n, seed ^ 0x9e3779b97f4a7c15);
    let mut c = fill(m, n, seed ^ 0xd1b54a32d192ed03);
    let mut expected = c.clone();
    sgemm(Transpose::No, Transpose::No, alpha, &a, &b, beta, &mut c);
    sgemm_reference(alpha, &a, &b, beta, &mut expected);
    // Values are in [-0.5, 0.5]; dot products of length k have magnitude
    // O(sqrt(k)/2), so a k-scaled absolute tolerance is stable.
    let tol = 1e-4 * (k as f32 + 1.0);
    let diff = c.max_abs_diff(&expected);
    if diff > tol {
        return Err(format!(
            "sgemm alpha={alpha} beta={beta} m={m} k={k} n={n}: \
             max diff {diff} > {tol}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn sgemm_matches_reference(
        alpha in arb_scalar(),
        beta in arb_scalar(),
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        seed in 0u64..1_000_000,
    ) {
        check_against_reference(alpha, beta, m, k, n, seed)?;
    }
}

proptest! {
    // Large shapes are expensive; fewer cases.
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn blocked_path_matches_reference_on_large_shapes(
        alpha in arb_scalar(),
        beta in arb_scalar(),
        // Tall-skinny through 1024-row: crosses MC, KC, and NC boundaries
        // without being a multiple of any tile size.
        m in prop_oneof![Just(257usize), Just(1024usize), Just(1031usize)],
        k in prop_oneof![Just(3usize), Just(511usize), Just(513usize)],
        n in prop_oneof![Just(1usize), Just(129usize), Just(300usize)],
        seed in 0u64..1_000_000,
    ) {
        check_against_reference(alpha, beta, m, k, n, seed)?;
    }
}

/// The blocked kernel's arithmetic, element by element, as the BLAS
/// formulation of a dense layer runs it: `C` pre-loaded with the bias,
/// then per `KC`-deep K slice `C = C + (Σ a·b over the slice, from 0)`,
/// then the activation. On AVX-512 hosts each product-sum and each slice
/// write-back is one fused multiply-add; the portable kernel multiplies
/// and adds separately.
fn bias_copy_then_sgemm(x: &Matrix, w: &Matrix, bias: &[f32], act: Activation) -> Matrix {
    const KC: usize = 512;
    let fma = tensor::f32_kernel_name() == "avx512";
    Matrix::from_fn(x.rows(), w.cols(), |i, j| {
        let mut c = bias[j];
        for pc in (0..x.cols()).step_by(KC) {
            let mut acc = 0.0f32;
            for kk in pc..x.cols().min(pc + KC) {
                let (a, b) = (x.get(i, kk), w.get(kk, j));
                acc = if fma { a.mul_add(b, acc) } else { acc + a * b };
            }
            c = if fma { 1.0f32.mul_add(acc, c) } else { c + 1.0 * acc };
        }
        act.apply_scalar(c)
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The fused epilogue keeps the bits: on full tiles (shapes multiples of
/// 8 x 32), one K slice (k <= 512) or two (k > 512), the packed GEMM with
/// its bias vector equals `sgemm` with `beta = 1` over a pre-copied bias
/// matrix followed by the activation pass, and the element-wise model of
/// that formulation's arithmetic.
#[test]
fn packed_gemm_keeps_the_bits_of_bias_copy_then_sgemm() {
    for (m, k, n) in [(64, 96, 64), (128, 512, 96), (32, 600, 64), (16, 1100, 32)] {
        let x = fill(m, k, 11);
        let w = fill(k, n, 12);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).sin()).collect();
        for act in Activation::all() {
            let mut got = Matrix::from_fn(m, n, |_, _| f32::NAN);
            PackedMatrix::pack(&w).gemm(&x, Init::Bias(&bias), act, &mut got);
            let mut blas = Matrix::from_fn(m, n, |_, c| bias[c]);
            sgemm(Transpose::No, Transpose::No, 1.0, &x, &w, 1.0, &mut blas);
            act.apply(blas.as_mut_slice());
            let case = format!("{m}x{k}x{n} {act}");
            assert_eq!(bits(&got), bits(&blas), "{case}: against sgemm");
            assert_eq!(bits(&got), bits(&bias_copy_then_sgemm(&x, &w, &bias, act)), "{case}");
        }
    }
}

/// A zero activation against an infinite or NaN weight contributes NaN
/// (`0 × inf = NaN`): no path may skip it. Every GEMM path agrees with
/// the reference on which outputs are NaN and on the finite
/// values, for the row alone and inside a 64-row batch.
#[test]
fn zero_activation_against_inf_or_nan_weight_is_nan_on_every_path() {
    let same =
        |got: f32, want: f32| got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
    for bad in [f32::INFINITY, f32::NAN] {
        // Column 0 meets the bad weight with a zero activation; column 1
        // stays finite.
        let w = Matrix::from_vec(2, 2, vec![bad, 2.0, 2.0, 3.0]);
        for rows in [1, 64] {
            let x = Matrix::from_fn(rows, 2, |r, c| if c == 0 { 0.0 } else { 1.0 + r as f32 });
            let mut want = Matrix::zeros(rows, 2);
            sgemm_reference(1.0, &x, &w, 0.0, &mut want);
            assert!(want.get(0, 0).is_nan(), "the reference itself must see 0 × {bad}");
            let mut sgemm_c = Matrix::zeros(rows, 2);
            sgemm(Transpose::No, Transpose::No, 1.0, &x, &w, 0.0, &mut sgemm_c);
            let mut unblocked = Matrix::zeros(rows, 2);
            sgemm_unblocked(1.0, &x, &w, 0.0, &mut unblocked);
            let mut packed = Matrix::zeros(rows, 2);
            PackedMatrix::pack(&w).gemm(&x, Init::Zero, Activation::Linear, &mut packed);
            let paths = [("sgemm", sgemm_c), ("unblocked", unblocked), ("packed", packed)];
            for (name, got) in &paths {
                for (i, (&g, &e)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert!(
                        same(g, e),
                        "{name}, {bad} weight, {rows} rows, element {i}: {g} vs {e}"
                    );
                }
            }
        }
    }
}
