//! Weights packed once, and the one blocked fp32 GEMM every caller runs.
//!
//! A model's weight matrices are constant, so [`PackedMatrix::pack`]
//! moves each into the micro-kernel's B-panel layout (see [`crate::pack`])
//! once, when the model is built; inference then packs only its
//! activations. [`PackedMatrix::gemm`] fuses the layer's epilogue into the
//! kernel's write-back: the first K slice adds its product to the bias
//! vector ([`Init::Bias`]) instead of to a pre-copied bias matrix, and the
//! last K slice applies the activation: a ReLU in the write-back itself,
//! the others in one pass over the rows it has just written, while they
//! are still in cache.
//! Per output element that is the arithmetic the BLAS formulation of the
//! paper's operator (Sec. 5.4: bias matrix copied into `C`, `sgemm` with
//! `beta = 1`, activation pass) performs — the same FMAs in the same
//! k-order — so every element keeps its bits, without the copy, the
//! replicated matrix or the second pass over `C`.
//!
//! Every shape, from a one-row serve batch to a 1024-row vector and from
//! a one-unit output layer to a 512-wide hidden layer, takes this one
//! path: there is no size dispatch, and edge tiles run the full tile's
//! FMAs with masked loads and stores. A row's output is therefore a
//! function of the weights and the row alone, never of the batch around
//! it. The generic [`crate::blas::sgemm`] runs the same driver over a
//! B operand it packs per call.

use crate::activation::Activation;
use crate::blas::gemm_flops;
use crate::matrix::{Matrix, MatrixView};
use crate::microkernel::microkernel;
use crate::pack::{
    pack_a, pack_b_all, packed_a_len, packed_b_all_len, packed_b_offset, KC, MC, MR, NC, NR,
};
use std::cell::RefCell;

/// What the first K slice of a GEMM adds its product to.
#[derive(Clone, Copy, Debug)]
pub enum Init<'a> {
    /// `out = act(x·W)`.
    Zero,
    /// `out = act(x·W + bias)`, `bias` one value per output column.
    Bias(&'a [f32]),
    /// `out = act(out + x·W)`: accumulate onto what `out` holds.
    Accumulate,
}

/// A `k x n` fp32 matrix packed into the micro-kernel's B-panel layout:
/// for each `NC`-wide column block, for each `KC`-deep K slice, the
/// slice's `NR`-column micro-panels, zero-padded to whole panels. The
/// row-major matrix it was packed from is not kept.
#[derive(Clone, Debug)]
pub struct PackedMatrix {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedMatrix {
    /// Pack `w` (`k x n`, row-major) once.
    pub fn pack(w: &Matrix) -> PackedMatrix {
        let (k, n) = (w.rows(), w.cols());
        let mut panels = vec![0.0; packed_b_all_len(k, n)];
        pack_b_all(w, k, n, &mut panels);
        PackedMatrix { k, n, panels }
    }

    /// Columns (output units).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The row-major matrix this was packed from (for re-quantizing a
    /// built model; inference never unpacks).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.k, self.n, |r, c| {
            let (jc, pc) = (c / NC * NC, r / KC * KC);
            let (nc, kc) = (NC.min(self.n - jc), KC.min(self.k - pc));
            let (q, j) = ((c - jc) / NR, (c - jc) % NR);
            let at = packed_b_offset(self.k, jc, nc, pc) + q * kc * NR + (r - pc) * NR + j;
            self.panels[at]
        })
    }

    /// `out = activation(init + x · self)`, with `init` as [`Init`] says;
    /// `x` is a [`Matrix`] or a [`MatrixView`] of some of its rows.
    /// `out` must be shaped `x.rows() x self.cols()`; with [`Init::Zero`]
    /// or [`Init::Bias`] its prior contents are never read.
    pub fn gemm<'a>(
        &self,
        x: impl Into<MatrixView<'a>>,
        init: Init<'_>,
        activation: Activation,
        out: &mut Matrix,
    ) {
        let x = x.into();
        let (m, k, n) = (x.rows(), self.k, self.n);
        assert_eq!(x.cols(), k, "gemm: inner dimensions differ ({} vs {k})", x.cols());
        assert_eq!((out.rows(), out.cols()), (m, n), "gemm: output shape mismatch");
        if let Init::Bias(bias) = init {
            assert_eq!(bias.len(), n, "gemm: bias length mismatch");
        }
        obs::metrics::TENSOR_GEMM_CALLS.add(1);
        obs::metrics::TENSOR_GEMM_FLOPS.add(gemm_flops(m, k, n));
        let _span = obs::span(&obs::metrics::TENSOR_GEMM_US);
        gemm_panels(x, m, k, n, &self.panels, 1.0, init, activation, out.as_mut_slice());
    }
}

/// The source rows of an [`Init::Zero`] first slice.
static ZEROS: [f32; NR] = [0.0; NR];

thread_local! {
    /// Per-thread A-block packing buffer. Reused across every GEMM on this
    /// thread, so steady-state inference does no allocation in the kernel
    /// layer.
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C = activation(init + alpha * A · B)` over a B packed by
/// [`pack_b_all`] (`bp`), C row-major `m x n`, on the calling thread. The
/// classic three-level blocking (GotoBLAS/BLIS), with the M blocks
/// outermost:
///
/// ```text
/// for ic in 0..m step MC        // A block: fits private cache
///   for jc in 0..n step NC      // B column block
///     for pc in 0..k step KC    // K slice, in order: fixes each element's k-order
///       pack A[ic.., pc..]      // per-thread scratch
///       for jr, ir micro-tiles: microkernel (MR x NR), fused epilogue
/// ```
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_panels(
    a: MatrixView<'_>,
    m: usize,
    k: usize,
    n: usize,
    bp: &[f32],
    alpha: f32,
    init: Init<'_>,
    activation: Activation,
    c: &mut [f32],
) {
    debug_assert!(c.len() == m * n && bp.len() >= packed_b_all_len(k, n));
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No K slice to carry the epilogue: the output is the init alone.
        for row in c.chunks_exact_mut(n) {
            match init {
                Init::Zero => row.fill(0.0),
                Init::Bias(bias) => row.copy_from_slice(bias),
                Init::Accumulate => {}
            }
            activation.apply(row);
        }
        return;
    }
    // Per M block and K slice: pack the A block into this thread's
    // scratch and run the micro-kernel grid against the packed B panels,
    // the epilogue fused into the first and last slice.
    let (cptr, ldc) = (c.as_mut_ptr(), n);
    A_SCRATCH.with(|scratch| {
        let mut abuf = scratch.borrow_mut();
        let abuf = &mut *abuf;
        let alen = packed_a_len(MC, KC.min(k));
        if abuf.len() < alen {
            abuf.resize(alen, 0.0);
        }
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    {
                        let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
                        pack_a(a, ic, mc, pc, kc, abuf);
                    }
                    let panels = &bp[packed_b_offset(k, jc, nc, pc)..];
                    let last = pc + kc == k;
                    // ReLU runs in the kernel's write-back; other
                    // activations in one pass over the block's rows.
                    let relu = last && activation == Activation::Relu;
                    for q in 0..nc.div_ceil(NR) {
                        let (col, nr_eff) = (jc + q * NR, NR.min(nc - q * NR));
                        let bpanel = &panels[q * kc * NR..(q + 1) * kc * NR];
                        for p in 0..mc.div_ceil(MR) {
                            let (row, mr_eff) = (ic + p * MR, MR.min(mc - p * MR));
                            let ap = &abuf[p * kc * MR..(p + 1) * kc * MR];
                            // SAFETY: the tile at (row, col) lies inside C
                            // (mr_eff/nr_eff clamp to its edge). A bias
                            // source holds `n` values (asserted by the
                            // caller), so `col + nr_eff <= n` of them.
                            unsafe {
                                let ctile = cptr.add(row * ldc + col);
                                let (src, lds) = match (pc, init) {
                                    (0, Init::Zero) => (ZEROS.as_ptr(), 0),
                                    (0, Init::Bias(bias)) => (bias.as_ptr().add(col), 0),
                                    _ => (ctile.cast_const(), ldc),
                                };
                                microkernel(
                                    kc, alpha, ap, bpanel, src, lds, ctile, ldc, mr_eff, nr_eff,
                                    relu,
                                );
                            }
                        }
                    }
                    if last && !matches!(activation, Activation::Linear | Activation::Relu) {
                        // One pass over the block's rows while they are
                        // still in cache (a call per tile row costs more).
                        for row in ic..ic + mc {
                            // SAFETY: columns jc..jc+nc of a row of C; no
                            // other reference to C is live.
                            let out = unsafe {
                                std::slice::from_raw_parts_mut(cptr.add(row * ldc + jc), nc)
                            };
                            activation.apply(out);
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{sgemm, sgemm_reference, Transpose};

    fn sample(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37 + seed).sin())
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn unpack_round_trips_across_blocks_and_slices() {
        for (k, n) in [(3, 5), (KC + 7, 40), (9, NC + 33)] {
            let w = sample(k, n, 0.3);
            assert_eq!(PackedMatrix::pack(&w).to_matrix(), w, "{k}x{n}");
        }
    }

    /// The fused epilogue against the BLAS formulation it replaces: bias
    /// rows pre-copied into C, `sgemm` with `beta = 1`, activation pass.
    #[test]
    fn fused_epilogue_matches_bias_copy_then_sgemm() {
        let (m, k, n) = (40, 70, 45);
        let (x, w) = (sample(m, k, 0.1), sample(k, n, 0.7));
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.05 - 1.0).collect();
        for act in Activation::all() {
            let mut want = Matrix::from_fn(m, n, |_, c| bias[c]);
            sgemm(Transpose::No, Transpose::No, 1.0, &x, &w, 1.0, &mut want);
            act.apply(want.as_mut_slice());
            let mut got = Matrix::from_fn(m, n, |_, _| f32::NAN);
            PackedMatrix::pack(&w).gemm(&x, Init::Bias(&bias), act, &mut got);
            assert_eq!(bits(&got), bits(&want), "{act}");
        }
    }

    #[test]
    fn init_modes_zero_and_accumulate() {
        let (m, k, n) = (9, 13, 35);
        let (x, w) = (sample(m, k, 0.2), sample(k, n, 0.9));
        let packed = PackedMatrix::pack(&w);
        let mut zero = Matrix::from_fn(m, n, |_, _| f32::NAN);
        packed.gemm(&x, Init::Zero, Activation::Linear, &mut zero);
        let mut want = Matrix::zeros(m, n);
        sgemm_reference(1.0, &x, &w, 0.0, &mut want);
        assert!(zero.max_abs_diff(&want) < 1e-4);
        let mut acc = zero.clone();
        packed.gemm(&x, Init::Accumulate, Activation::Linear, &mut acc);
        for (a, z) in acc.as_slice().iter().zip(zero.as_slice()) {
            assert!((a - 2.0 * z).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_k_yields_the_init_through_the_activation() {
        let packed = PackedMatrix::pack(&Matrix::zeros(0, 2));
        let mut out = Matrix::zeros(3, 2);
        packed.gemm(&Matrix::zeros(3, 0), Init::Bias(&[0.5, -0.5]), Activation::Relu, &mut out);
        for i in 0..3 {
            assert_eq!(out.row(i), &[0.5, 0.0]);
        }
    }
}
