//! The subset of BLAS the paper's ModelJoin operator needs (Listing 5).
//!
//! `sgemm` follows the BLAS convention `C := alpha * op(A) * op(B) +
//! beta * C`, which is what lets the operator fold the bias addition into
//! the multiplication by pre-copying the replicated bias matrix into `C`
//! (paper Sec. 5.4).
//!
//! Since PR 2 the multiply is a real kernel layer rather than a scalar
//! triple loop. Dispatch, by problem size:
//!
//! * degenerate / tiny shapes → [`sgemm_unblocked`], the seed kernels
//!   (loop-ordered scalar code; lowest constant overhead);
//! * everything else → a cache-blocked path: `KC`-deep slices of the K
//!   dimension are repacked by [`crate::pack`] into contiguous zero-padded
//!   micro-panels and multiplied by the register-tiled
//!   [`crate::microkernel`]. All four transpose combinations are absorbed
//!   at packing time and share this single multiplication path;
//! * large multiplies additionally split their M-block grid across the
//!   shared scheduler pool ([`crate::parallel`]) when the kernel thread
//!   budget ([`crate::set_kernel_threads`]) is above 1.
//!
//! [`sgemm_reference`] is the deliberately naive oracle that the
//! equivalence tests and the `gemm_sweep` benchmark compare against.

use crate::matrix::Matrix;
use crate::microkernel::microkernel;
use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len, MatView, KC, MC, MR, NC, NR};
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

/// Below this FLOP count the packed path's copy overhead outweighs its
/// locality gains and the seed kernels win.
const BLOCKED_MIN_FLOPS: u64 = 1 << 17;

/// Minimum FLOP count before a multiply is split across the worker pool;
/// below this the fork/join latency dominates.
const PARALLEL_MIN_FLOPS: u64 = 1 << 23;

thread_local! {
    /// Per-thread A-block packing buffer. Reused across every sgemm call on
    /// this thread (operator threads and pool workers alike), so
    /// steady-state inference does no allocation in the kernel layer.
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread B-panel packing buffer. Separate from [`A_SCRATCH`]
    /// because the calling thread holds the B borrow across the M-block
    /// loop while also packing A blocks.
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
    if m == 1 || n == 1 || flops < BLOCKED_MIN_FLOPS {
        sgemm_unblocked_inner(trans_a, trans_b, alpha, a, b, c, m, n, k);
        return;
    }
    let threads = if flops >= PARALLEL_MIN_FLOPS { parallel::kernel_threads() } else { 1 };
    sgemm_blocked(trans_a, trans_b, alpha, a, b, c, m, n, k, threads);
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
/// no packing, no tiling. Still the best choice for tiny shapes, and the
/// "old" baseline the `gemm_sweep` benchmark measures the blocked kernel
/// against.
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
    sgemm_unblocked_inner(trans_a, trans_b, alpha, a, b, c, m, n, k);
}

#[allow(clippy::too_many_arguments)]
fn sgemm_unblocked_inner(
    trans_a: Transpose,
    trans_b: Transpose,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    m: usize,
    n: usize,
    k: usize,
) {
    match (trans_a, trans_b) {
        // A row-major (inputs), B row-major (pre-transposed weights).
        // i-k-j loop order keeps B and C accesses sequential.
        (Transpose::No, Transpose::No) => {
            for i in 0..m {
                let a_row = a.row(i);
                let c_row = c.row_mut(i);
                for (kk, &aik) in a_row.iter().enumerate() {
                    let s = alpha * aik;
                    if s == 0.0 {
                        continue;
                    }
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
                    if s == 0.0 {
                        continue;
                    }
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

/// Raw C pointer that may cross the pool boundary. Tasks write disjoint
/// row ranges of C (see `sgemm_blocked`), so sharing it is sound.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// The cache-blocked, optionally multi-threaded path. Loop structure is
/// the classic three-level blocking (GotoBLAS/BLIS):
///
/// ```text
/// for jc in 0..n step NC        // B panel: fits shared cache
///   for pc in 0..k step KC      // K slice: pack B once, reuse per M block
///     pack B[pc.., jc..]        // shared, packed on the calling thread
///     for ic in 0..m step MC    // A block: fits private cache  ← parallel
///       pack A[ic.., pc..]      // per-thread scratch
///       for jr, ir micro-tiles: microkernel (MR x NR)
/// ```
///
/// Threads split the `ic` loop, so each task owns disjoint row ranges of C
/// and no synchronization beyond the per-slice join is needed.
#[allow(clippy::too_many_arguments)]
fn sgemm_blocked(
    trans_a: Transpose,
    trans_b: Transpose,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) {
    let va = MatView::new(a, trans_a);
    let vb = MatView::new(b, trans_b);
    let ldc = c.cols();
    let cptr = SendPtr(c.as_mut_slice().as_mut_ptr());

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack the shared B panel once per K slice on this thread,
            // into its scratch; workers only read it.
            B_SCRATCH.with(|scratch| {
                let mut bbuf = scratch.borrow_mut();
                let bbuf = &mut *bbuf;
                let blen = packed_b_len(kc, nc);
                if bbuf.len() < blen {
                    bbuf.resize(blen, 0.0);
                }
                {
                    let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
                    pack_b(&vb, pc, kc, jc, nc, bbuf);
                }
                let bbuf: &[f32] = bbuf;

                let m_blocks = m.div_ceil(MC);
                let workers = threads.clamp(1, m_blocks);
                if workers == 1 {
                    m_block_range(&va, bbuf, cptr, ldc, alpha, m, pc, kc, jc, nc, 0, 1);
                } else {
                    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..workers)
                        .map(|w| {
                            Box::new(move || {
                                m_block_range(
                                    &va, bbuf, cptr, ldc, alpha, m, pc, kc, jc, nc, w, workers,
                                );
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    parallel::run_scoped(tasks);
                }
            });
        }
    }
}

/// Process M blocks `start, start + stride, ...` of one packed K slice:
/// pack each A block into this thread's scratch and run the micro-kernel
/// grid against the shared B panel.
#[allow(clippy::too_many_arguments)]
fn m_block_range(
    va: &MatView<'_>,
    bbuf: &[f32],
    cptr: SendPtr,
    ldc: usize,
    alpha: f32,
    m: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    start: usize,
    stride: usize,
) {
    A_SCRATCH.with(|scratch| {
        let mut abuf = scratch.borrow_mut();
        let abuf = &mut *abuf;
        let alen = packed_a_len(MC, kc);
        if abuf.len() < alen {
            abuf.resize(alen, 0.0);
        }
        let m_blocks = m.div_ceil(MC);
        let mut block = start;
        while block < m_blocks {
            let ic = block * MC;
            let mc = MC.min(m - ic);
            {
                let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
                pack_a(va, ic, mc, pc, kc, abuf);
            }
            for q in 0..nc.div_ceil(NR) {
                let nr_eff = NR.min(nc - q * NR);
                let bp = &bbuf[q * kc * NR..(q + 1) * kc * NR];
                for p in 0..mc.div_ceil(MR) {
                    let mr_eff = MR.min(mc - p * MR);
                    let ap = &abuf[p * kc * MR..(p + 1) * kc * MR];
                    // SAFETY: the tile at rows ic+p*MR.., cols jc+q*NR..
                    // lies inside C (mr_eff/nr_eff clamp to the matrix
                    // edge) and this task is the only writer of rows
                    // [ic, ic+mc) — tasks partition the M blocks.
                    unsafe {
                        let ctile = cptr.0.add((ic + p * MR) * ldc + jc + q * NR);
                        microkernel(kc, alpha, ap, bp, ctile, ldc, mr_eff, nr_eff);
                    }
                }
            }
            block += stride;
        }
    });
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
                if s == 0.0 {
                    continue;
                }
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
        // 128 x 96 x 112 is comfortably above BLOCKED_MIN_FLOPS and not a
        // multiple of any tile size in any dimension.
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
        let mut c1 = Matrix::zeros(512, 192);
        let mut c2 = Matrix::zeros(512, 192);
        crate::parallel::set_kernel_threads(1);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c1);
        crate::parallel::set_kernel_threads(4);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c2);
        crate::parallel::set_kernel_threads(1);
        // Identical arithmetic per tile → bit-identical results.
        assert_eq!(c1, c2);
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
