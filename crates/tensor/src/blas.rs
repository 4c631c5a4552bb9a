//! The subset of BLAS the paper's ModelJoin operator needs (Listing 5).
//!
//! `sgemm` follows the BLAS convention `C := alpha * op(A) * op(B) +
//! beta * C`, which is what lets the paper's operator fold the bias
//! addition into the multiplication by pre-copying the replicated bias
//! matrix into `C` (Sec. 5.4). A built model does the same without the
//! matrix: [`crate::PackedMatrix::gemm`] adds a bias vector in the
//! kernel's epilogue, with the same bits.
//!
//! The multiply is the cache-blocked kernel of the `packed` module, the
//! same driver a built model's [`crate::PackedMatrix`] runs, for every
//! shape: `sgemm` packs `op(B)` into this thread's scratch per call
//! (absorbing the transpose there, as [`crate::pack`] absorbs A's), then
//! accumulates `alpha * op(A) · op(B)` onto `beta * C`. Large multiplies
//! split their M blocks across the shared scheduler pool
//! ([`crate::parallel`]), up to its size.
//!
//! [`sgemm_unblocked`] keeps the seed kernels (loop-ordered scalar code)
//! as the baseline the `gemm_sweep` benchmark measures the blocked kernel
//! against, and [`sgemm_reference`] is the deliberately naive oracle that
//! the equivalence tests compare against.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::pack::{pack_b_all, packed_b_all_len, MatView};
use crate::packed::{gemm_panels, Init};
use crate::parallel;
use std::cell::RefCell;

/// Whether an operand participates transposed in [`sgemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    No,
    Yes,
}

impl Transpose {
    fn dims(self, m: &Matrix) -> (usize, usize) {
        match self {
            Transpose::No => (m.rows(), m.cols()),
            Transpose::Yes => (m.cols(), m.rows()),
        }
    }
}

thread_local! {
    /// Per-thread buffer for the B operand `sgemm` packs per call. The
    /// calling thread holds it across the M-block fan-out; workers only
    /// read it.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// General matrix multiply: `C := alpha * op(A) * op(B) + beta * C`.
///
/// Shapes after applying the transposes must satisfy
/// `op(A): m x k`, `op(B): k x n`, `C: m x n`; panics otherwise.
pub fn sgemm(
    trans_a: Transpose,
    trans_b: Transpose,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    beta: f32,
    c: &mut Matrix,
) {
    let (m, k) = trans_a.dims(a);
    let (k2, n) = trans_b.dims(b);
    assert_eq!(k, k2, "sgemm: inner dimensions differ ({k} vs {k2})");
    assert_eq!(c.rows(), m, "sgemm: C row count mismatch");
    assert_eq!(c.cols(), n, "sgemm: C column count mismatch");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    let flops = gemm_flops(m, k, n);
    obs::metrics::TENSOR_GEMM_CALLS.add(1);
    obs::metrics::TENSOR_GEMM_FLOPS.add(flops);
    let _span = obs::span(&obs::metrics::TENSOR_GEMM_US);
    let threads = parallel::split_width(parallel::pool_threads(), m, k, n);
    let va = MatView::new(a, trans_a);
    B_SCRATCH.with(|scratch| {
        let mut bbuf = scratch.borrow_mut();
        let blen = packed_b_all_len(k, n);
        if bbuf.len() < blen {
            bbuf.resize(blen, 0.0);
        }
        {
            let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
            pack_b_all(&MatView::new(b, trans_b), k, n, &mut bbuf);
        }
        let c = c.as_mut_slice();
        gemm_panels(&va, m, k, n, &bbuf, alpha, Init::Accumulate, Activation::Linear, c, threads);
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

/// The seed `sgemm` kernels: one loop ordering per transpose combination,
/// no packing, no tiling — the "old" baseline the `gemm_sweep` benchmark
/// measures the blocked kernel against. Not used by inference: its
/// per-row arithmetic differs from the blocked kernel's.
pub fn sgemm_unblocked(
    trans_a: Transpose,
    trans_b: Transpose,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    beta: f32,
    c: &mut Matrix,
) {
    let (m, k) = trans_a.dims(a);
    let (k2, n) = trans_b.dims(b);
    assert_eq!(k, k2, "sgemm: inner dimensions differ ({k} vs {k2})");
    assert_eq!(c.rows(), m, "sgemm: C row count mismatch");
    assert_eq!(c.cols(), n, "sgemm: C column count mismatch");
    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    match (trans_a, trans_b) {
        // A row-major (inputs), B row-major (pre-transposed weights).
        // i-k-j loop order keeps B and C accesses sequential.
        (Transpose::No, Transpose::No) => {
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
        (Transpose::No, Transpose::Yes) => {
            for i in 0..m {
                let a_row = a.row(i);
                for j in 0..n {
                    let b_row = b.row(j);
                    let mut acc = 0.0;
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    let cv = c.row_mut(i);
                    cv[j] += alpha * acc;
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            for kk in 0..a.rows() {
                let a_row = a.row(kk);
                let b_row = b.row(kk);
                for (i, &ai) in a_row.iter().enumerate().take(m) {
                    let s = alpha * ai;
                    let c_row = c.row_mut(i);
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += s * bv;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a.get(kk, i) * b.get(j, kk);
                    }
                    let cv = c.row_mut(i);
                    cv[j] += alpha * acc;
                }
            }
        }
    }
}

/// Deliberately naive j-i-k triple loop through transpose-aware element
/// access. The test oracle: slow, but obviously correct.
pub fn sgemm_reference(
    trans_a: Transpose,
    trans_b: Transpose,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    beta: f32,
    c: &mut Matrix,
) {
    let (m, k) = trans_a.dims(a);
    let (k2, n) = trans_b.dims(b);
    assert_eq!(k, k2, "sgemm: inner dimensions differ ({k} vs {k2})");
    assert_eq!(c.rows(), m, "sgemm: C row count mismatch");
    assert_eq!(c.cols(), n, "sgemm: C column count mismatch");
    let at = |r: usize, q: usize| match trans_a {
        Transpose::No => a.get(r, q),
        Transpose::Yes => a.get(q, r),
    };
    let bt = |q: usize, s: usize| match trans_b {
        Transpose::No => b.get(q, s),
        Transpose::Yes => b.get(s, q),
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += at(i, kk) * bt(kk, j);
            }
            let v = beta * c.get(i, j) + alpha * acc;
            c.set(i, j, v);
        }
    }
}

/// Matrix-vector multiply: `y := alpha * op(A) * x + beta * y`.
pub fn sgemv(trans: Transpose, alpha: f32, a: &Matrix, x: &[f32], beta: f32, y: &mut [f32]) {
    let (m, n) = trans.dims(a);
    assert_eq!(x.len(), n, "sgemv: x length mismatch");
    assert_eq!(y.len(), m, "sgemv: y length mismatch");
    scale(beta, y);
    match trans {
        Transpose::No => {
            for (i, yv) in y.iter_mut().enumerate() {
                let row = a.row(i);
                let mut acc = 0.0;
                for (&av, &xv) in row.iter().zip(x) {
                    acc += av * xv;
                }
                *yv += alpha * acc;
            }
        }
        Transpose::Yes => {
            for (kk, &xv) in x.iter().enumerate() {
                let s = alpha * xv;
                let row = a.row(kk);
                for (yv, &av) in y.iter_mut().zip(row) {
                    *yv += s * av;
                }
            }
        }
    }
}

/// `y := alpha * x + y` over equal-length slices.
pub fn saxpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "saxpy: length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Element-wise multiply: `out[i] := a[i] * b[i]` (MKL `vsMul`, paper Listing 5).
pub fn vs_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "vs_mul: length mismatch");
    assert_eq!(a.len(), out.len(), "vs_mul: output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// Element-wise add: `out[i] := a[i] + b[i]` (MKL `vsAdd`, paper Listing 5).
pub fn vs_add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "vs_add: length mismatch");
    assert_eq!(a.len(), out.len(), "vs_add: output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `dst := src` (BLAS `scopy`).
pub fn scopy(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "scopy: length mismatch");
    dst.copy_from_slice(src);
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
        sgemm_reference(Transpose::No, Transpose::No, 1.0, a, b, 0.0, &mut c);
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
    fn sgemm_all_transpose_combinations_agree() {
        let a = sample(4, 3, 0.2);
        let b = sample(3, 5, 0.9);
        let expected = naive_matmul(&a, &b);

        let at = a.transposed();
        let bt = b.transposed();

        let mut c = Matrix::zeros(4, 5);
        sgemm(Transpose::Yes, Transpose::No, 1.0, &at, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&expected) < 1e-5, "T,N failed");

        let mut c = Matrix::zeros(4, 5);
        sgemm(Transpose::No, Transpose::Yes, 1.0, &a, &bt, 0.0, &mut c);
        assert!(c.max_abs_diff(&expected) < 1e-5, "N,T failed");

        let mut c = Matrix::zeros(4, 5);
        sgemm(Transpose::Yes, Transpose::Yes, 1.0, &at, &bt, 0.0, &mut c);
        assert!(c.max_abs_diff(&expected) < 1e-5, "T,T failed");
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
        sgemm_reference(Transpose::No, Transpose::No, 1.5, &a, &b, 0.5, &mut expected);
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
        sgemm_reference(Transpose::No, Transpose::No, 1.0, &a, &b, 2.0, &mut expected);
        assert!(c.max_abs_diff(&expected) < 1e-2);
    }

    #[test]
    fn threaded_gemm_matches_single_threaded() {
        let a = sample(512, 256, 0.3);
        let b = sample(256, 192, 0.5);
        let packed = crate::PackedMatrix::pack(&b);
        let mut c1 = Matrix::zeros(512, 192);
        let mut c4 = Matrix::zeros(512, 192);
        packed.gemm(&a, Init::Zero, Activation::Linear, &mut c1, 1);
        packed.gemm(&a, Init::Zero, Activation::Linear, &mut c4, 4);
        // Identical arithmetic per tile → bit-identical results, and the
        // generic entry (at the pool's width) runs the same arithmetic.
        assert_eq!(c1, c4);
        let mut c = Matrix::zeros(512, 192);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, c1);
    }

    #[test]
    fn unblocked_seed_kernel_still_exposed() {
        let a = sample(8, 8, 0.1);
        let b = sample(8, 8, 0.2);
        let mut c1 = Matrix::zeros(8, 8);
        let mut c2 = Matrix::zeros(8, 8);
        sgemm_unblocked(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c1);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-5);
    }

    #[test]
    fn sgemv_matches_gemm_on_single_column() {
        let a = sample(4, 3, 0.5);
        let x = vec![0.2, -1.0, 0.7];
        let mut y = vec![0.0; 4];
        sgemv(Transpose::No, 1.0, &a, &x, 0.0, &mut y);
        let xm = Matrix::from_vec(3, 1, x.clone());
        let mut c = Matrix::zeros(4, 1);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &xm, 0.0, &mut c);
        for (i, &v) in y.iter().enumerate() {
            assert!((v - c.get(i, 0)).abs() < 1e-5);
        }
    }

    #[test]
    fn sgemv_transposed() {
        let a = sample(3, 4, 0.8);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 4];
        sgemv(Transpose::Yes, 1.0, &a, &x, 0.0, &mut y);
        for (j, &yj) in y.iter().enumerate() {
            let expected: f32 = (0..3).map(|i| a.get(i, j) * x[i]).sum();
            assert!((yj - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn elementwise_kernels() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let mut out = [0.0; 3];
        vs_mul(&a, &b, &mut out);
        assert_eq!(out, [4.0, 10.0, 18.0]);
        vs_add(&a, &b, &mut out);
        assert_eq!(out, [5.0, 7.0, 9.0]);
        let mut y = b;
        saxpy(2.0, &a, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        let mut d = [0.0; 3];
        scopy(&a, &mut d);
        assert_eq!(d, a);
    }

    #[test]
    fn gemm_flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
