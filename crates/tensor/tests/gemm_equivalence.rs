//! Property tests pinning the blocked (and threaded) `sgemm` to the naive
//! reference oracle across the whole parameter space: all four transpose
//! combinations, arbitrary `alpha`/`beta` (including the 0 and 1 special
//! cases), and shapes that straddle every dispatch and tiling boundary —
//! 1×1, primes, tall-skinny, and non-tile-multiple sizes.

use proptest::prelude::*;
use tensor::blas::{sgemm, sgemm_reference, Transpose};
use tensor::Matrix;

fn arb_transpose() -> impl Strategy<Value = Transpose> {
    prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
}

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

fn storage_dims(t: Transpose, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Transpose::No => (rows, cols),
        Transpose::Yes => (cols, rows),
    }
}

#[allow(clippy::too_many_arguments)] // the full sgemm parameter space, spelled out
fn check_against_reference(
    ta: Transpose,
    tb: Transpose,
    alpha: f32,
    beta: f32,
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
) -> Result<(), String> {
    let (ar, ac) = storage_dims(ta, m, k);
    let (br, bc) = storage_dims(tb, k, n);
    let a = fill(ar, ac, seed);
    let b = fill(br, bc, seed ^ 0x9e3779b97f4a7c15);
    let mut c = fill(m, n, seed ^ 0xd1b54a32d192ed03);
    let mut expected = c.clone();
    sgemm(ta, tb, alpha, &a, &b, beta, &mut c);
    sgemm_reference(ta, tb, alpha, &a, &b, beta, &mut expected);
    // Values are in [-0.5, 0.5]; dot products of length k have magnitude
    // O(sqrt(k)/2), so a k-scaled absolute tolerance is stable.
    let tol = 1e-4 * (k as f32 + 1.0);
    let diff = c.max_abs_diff(&expected);
    if diff > tol {
        return Err(format!(
            "sgemm({ta:?},{tb:?}) alpha={alpha} beta={beta} m={m} k={k} n={n}: \
             max diff {diff} > {tol}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn sgemm_matches_reference_all_transposes(
        ta in arb_transpose(),
        tb in arb_transpose(),
        alpha in arb_scalar(),
        beta in arb_scalar(),
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        seed in 0u64..1_000_000,
    ) {
        check_against_reference(ta, tb, alpha, beta, m, k, n, seed)?;
    }
}

proptest! {
    // Large shapes are expensive; fewer cases still cover every transpose
    // combination several times.
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn blocked_path_matches_reference_on_large_shapes(
        ta in arb_transpose(),
        tb in arb_transpose(),
        alpha in arb_scalar(),
        beta in arb_scalar(),
        // Tall-skinny through 1024-row: crosses MC, KC, and NC boundaries
        // without being a multiple of any tile size.
        m in prop_oneof![Just(257usize), Just(1024usize), Just(1031usize)],
        k in prop_oneof![Just(3usize), Just(511usize), Just(513usize)],
        n in prop_oneof![Just(1usize), Just(129usize), Just(300usize)],
        seed in 0u64..1_000_000,
    ) {
        check_against_reference(ta, tb, alpha, beta, m, k, n, seed)?;
    }

    #[test]
    fn threaded_sgemm_is_bit_identical_to_single_threaded(
        ta in arb_transpose(),
        tb in arb_transpose(),
        m in prop_oneof![Just(512usize), Just(777usize), Just(1024usize)],
        k in prop_oneof![Just(256usize), Just(300usize)],
        n in prop_oneof![Just(64usize), Just(200usize)],
        seed in 0u64..1_000_000,
    ) {
        let (ar, ac) = storage_dims(ta, m, k);
        let (br, bc) = storage_dims(tb, k, n);
        let a = fill(ar, ac, seed);
        let b = fill(br, bc, seed ^ 0xa076_1d64_78bd_642f);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        tensor::set_kernel_threads(1);
        sgemm(ta, tb, 1.0, &a, &b, 0.0, &mut c1);
        tensor::set_kernel_threads(4);
        sgemm(ta, tb, 1.0, &a, &b, 0.0, &mut c2);
        tensor::set_kernel_threads(1);
        // The thread split never changes any tile's arithmetic, so the
        // results must be bit-identical, not merely close.
        prop_assert_eq!(c1, c2);
    }
}

/// The tile decomposition does not depend on the thread budget — only
/// which scheduler thread runs each tile changes — so a 4-way threaded
/// GEMM must be bit-identical to a single-threaded run, also on shapes
/// whose edges are not tile multiples.
#[test]
fn scheduler_threaded_gemm_bit_identical_to_serial() {
    for (m, k, n, seed) in [(512, 256, 64, 1u64), (777, 300, 200, 2), (1024, 511, 129, 3)] {
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0xa076_1d64_78bd_642f);
        let mut serial = Matrix::zeros(m, n);
        let mut threaded = Matrix::zeros(m, n);

        tensor::set_kernel_threads(1);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut serial);
        tensor::set_kernel_threads(4);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut threaded);
        tensor::set_kernel_threads(1);

        assert_eq!(serial, threaded, "threaded GEMM diverged from serial ({m}x{k}x{n})");
    }
}
