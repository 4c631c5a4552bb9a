//! The subset of BLAS the paper's ModelJoin operator needs (Listing 5).
//! Listing 5's element-wise MKL calls (`vsMul`, `vsAdd`) have no kernel
//! here: the LSTM cell runs them as one fused pass, which
//! [`crate::Device::elementwise`] charges as the separate kernels.
//!
//! `sgemm` follows the BLAS convention `C := alpha * A * B + beta * C`,
//! which is what lets the paper's operator fold the bias addition into the
//! multiplication by pre-copying the replicated bias matrix into `C`
//! (Sec. 5.4). A built model does the same without the matrix:
//! [`crate::PackedMatrix::gemm`] adds a bias vector in the kernel's
//! epilogue, with the same bits. Both operands are row-major as stored:
//! the operator keeps its weights "already in a transposed way" (Sec. 5.4),
//! so no GEMM transposes an operand at run time.
//!
//! The multiply is the cache-blocked kernel of the `packed` module, the
//! same driver a built model's [`crate::PackedMatrix`] runs, for every
//! shape: `sgemm` packs B into this thread's scratch per call, then
//! accumulates `alpha * A · B` onto `beta * C` on the calling thread.
//!
//! [`sgemm_unblocked`] keeps the seed kernel (loop-ordered scalar code)
//! as the baseline the `gemm_sweep` benchmark measures the blocked kernel
//! against, and [`sgemm_reference`] is the deliberately naive oracle that
//! the equivalence tests compare against.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::pack::{pack_b_all, packed_b_all_len};
use crate::packed::{gemm_panels, Init};
use std::cell::RefCell;

/// How an operand takes part in [`sgemm`]: as stored. The one variant
/// keeps the BLAS-shaped signature of its callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    No,
}

thread_local! {
    /// Per-thread buffer for the B operand `sgemm` packs per call.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Panic unless `a: m x k`, `b: k x n` and `c: m x n`; returns `(m, k, n)`.
fn gemm_dims(a: &Matrix, b: &Matrix, c: &Matrix) -> (usize, usize, usize) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "sgemm: inner dimensions differ ({k} vs {})", b.rows());
    assert_eq!(c.rows(), m, "sgemm: C row count mismatch");
    assert_eq!(c.cols(), n, "sgemm: C column count mismatch");
    (m, k, n)
}

/// General matrix multiply: `C := alpha * A * B + beta * C`.
///
/// Shapes must satisfy `A: m x k`, `B: k x n`, `C: m x n`; panics
/// otherwise.
pub fn sgemm(
    _trans_a: Transpose,
    _trans_b: Transpose,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    beta: f32,
    c: &mut Matrix,
) {
    let (m, k, n) = gemm_dims(a, b, c);
    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    obs::metrics::TENSOR_GEMM_CALLS.add(1);
    obs::metrics::TENSOR_GEMM_FLOPS.add(gemm_flops(m, k, n));
    let _span = obs::span(&obs::metrics::TENSOR_GEMM_US);
    B_SCRATCH.with(|scratch| {
        let mut bbuf = scratch.borrow_mut();
        let blen = packed_b_all_len(k, n);
        if bbuf.len() < blen {
            bbuf.resize(blen, 0.0);
        }
        {
            let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
            pack_b_all(b, k, n, &mut bbuf);
        }
        let c = c.as_mut_slice();
        gemm_panels(a.view(), m, k, n, &bbuf, alpha, Init::Accumulate, Activation::Linear, c);
    });
}

/// `C *= beta` with the two BLAS special cases.
fn scale(beta: f32, c: &mut [f32]) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.fill(0.0);
    } else {
        for v in c {
            *v *= beta;
        }
    }
}

/// The seed `sgemm` kernel, `C := alpha * A * B + beta * C`: i-k-j loop
/// order (B and C accesses sequential), no packing, no tiling — the "old"
/// baseline the `gemm_sweep` benchmark measures the blocked kernel
/// against. Not used by inference: its per-row arithmetic differs from
/// the blocked kernel's.
pub fn sgemm_unblocked(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    let (m, k, n) = gemm_dims(a, b, c);
    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (kk, &aik) in a_row.iter().enumerate() {
            // No skip for s == 0: 0 × inf and 0 × NaN are NaN.
            let s = alpha * aik;
            let b_row = b.row(kk);
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += s * bv;
            }
        }
    }
}

/// Deliberately naive j-i-k triple loop of `C := alpha * A * B + beta * C`
/// through element access. The test oracle: slow, but obviously correct.
pub fn sgemm_reference(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    let (m, k, n) = gemm_dims(a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            let v = beta * c.get(i, j) + alpha * acc;
            c.set(i, j, v);
        }
    }
}

/// FLOP count of an `m x k * k x n` multiply, used by the GPU cost model
/// and the kernel dispatch thresholds.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::KC;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        sgemm_reference(1.0, a, b, 0.0, &mut c);
        c
    }

    fn sample(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37 + seed).sin())
    }

    #[test]
    fn sgemm_nn_matches_naive() {
        let a = sample(4, 3, 0.1);
        let b = sample(3, 5, 0.7);
        let mut c = Matrix::zeros(4, 5);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn sgemm_applies_alpha_and_beta() {
        let a = sample(2, 2, 0.0);
        let b = sample(2, 2, 1.0);
        let mut c = Matrix::from_vec(2, 2, vec![1.0; 4]);
        // C := 2*A*B + 3*C
        sgemm(Transpose::No, Transpose::No, 2.0, &a, &b, 3.0, &mut c);
        let mut expected = naive_matmul(&a, &b);
        for v in expected.as_mut_slice() {
            *v = 2.0 * *v + 3.0;
        }
        assert!(c.max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn sgemm_beta_one_accumulates_bias_matrix() {
        // This is exactly how the ModelJoin folds the bias addition into the
        // multiplication (paper Sec. 5.4): pre-copy bias into C, beta = 1.
        let a = sample(3, 2, 0.3);
        let b = sample(2, 4, 0.6);
        let bias = 0.25_f32;
        let mut c = Matrix::from_vec(3, 4, vec![bias; 12]);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 1.0, &mut c);
        let mut expected = naive_matmul(&a, &b);
        for v in expected.as_mut_slice() {
            *v += bias;
        }
        assert!(c.max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn sgemm_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn blocked_path_matches_reference_above_threshold() {
        // 128 x 96 x 112 is not a multiple of any tile size in any
        // dimension.
        let a = sample(128, 96, 0.4);
        let b = sample(96, 112, 0.8);
        let mut c = sample(128, 112, 0.1);
        let mut expected = c.clone();
        sgemm(Transpose::No, Transpose::No, 1.5, &a, &b, 0.5, &mut c);
        sgemm_reference(1.5, &a, &b, 0.5, &mut expected);
        assert!(c.max_abs_diff(&expected) < 1e-3);
    }

    #[test]
    fn blocked_path_spans_multiple_k_slices() {
        // k > KC forces beta-handling across K slice boundaries (beta must
        // be applied exactly once, accumulation afterwards).
        let a = sample(64, 2 * KC + 7, 0.2);
        let b = sample(2 * KC + 7, 40, 0.6);
        let mut c = sample(64, 40, 0.9);
        let mut expected = c.clone();
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 2.0, &mut c);
        sgemm_reference(1.0, &a, &b, 2.0, &mut expected);
        assert!(c.max_abs_diff(&expected) < 1e-2);
    }

    #[test]
    fn unblocked_seed_kernel_still_exposed() {
        let a = sample(8, 8, 0.1);
        let b = sample(8, 8, 0.2);
        let mut c1 = Matrix::zeros(8, 8);
        let mut c2 = Matrix::zeros(8, 8);
        sgemm_unblocked(1.0, &a, &b, 0.0, &mut c1);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-5);
    }

    #[test]
    fn gemm_flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
