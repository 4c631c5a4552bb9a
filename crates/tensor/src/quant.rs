//! Int8 quantized GEMM: the second dtype of the kernel layer.
//!
//! Production inference rarely runs fp32 — this module adds an
//! end-to-end int8 path over the same BLIS-style blocking as
//! [`crate::blas::sgemm`], trading a documented, bounded accuracy loss
//! for ~4× denser multiply hardware (`vpdpbusd` retires 64 u8·i8 MACs
//! per instruction vs 16 fp32 FMAs).
//!
//! # Quantization scheme
//!
//! **Weights** (quantized once at model build, [`QuantizedWeights`]):
//! per-output-channel symmetric i8. For column `j` of the `k x n` weight
//! matrix, `scale_w[j] = maxabs(col j) / 127` and
//! `w_q = round(w / scale_w[j]) ∈ [-127, 127]`. Per-channel scales cost
//! `n` floats and remove the single-outlier-channel failure mode of
//! per-tensor scales.
//!
//! **Activations** (quantized per call, row-wise): symmetric **7-bit**
//! with a +64 zero-point offset. For row `i`,
//! `scale_a[i] = maxabs(row i) / 63`, `q = round(a / scale_a[i]) ∈
//! [-63, 63]`, stored as `u8 = q + 64 ∈ [1, 127]`. Seven bits — not
//! eight — is the load-bearing choice: it caps `vpmaddubsw` pair sums at
//! `2·127·127 = 32258 < 32767`, so the widening kernel that emulates
//! `vpdpbusd` on pre-VNNI hosts is *exact* and all three micro-kernels
//! (VNNI, widening, scalar) produce bit-identical i32 accumulators.
//!
//! The offset is algebraic, not stored: `Σ_k (q+64)·w_q = Σ_k q·w_q +
//! 64·col_sums[j]`, with `col_sums[j] = Σ_k w_q[k][j]` precomputed at
//! quantization time. The epilogue subtracts `64·col_sums[j]` while it
//! dequantizes, fused with bias and activation into a single pass:
//!
//! ```text
//! out[i][j] = act( scale_a[i]·scale_w[j]·(acc[i][j] − 64·col_sums[j]) + bias[j] )
//! ```
//!
//! [`Init::Accumulate`] adds onto `out[i][j]` instead of `bias[j]`, and
//! the activation follows as for the other inits: the contract of the
//! fp32 [`crate::PackedMatrix::gemm`].
//!
//! # Error bound
//!
//! Rounding perturbs each activation by at most `scale_a/2` and each
//! weight by at most `scale_w/2`, so one output element differs from the
//! fp32 product by at most [`qgemm_error_bound`]`(k, amax, wmax)` =
//! `k·amax·wmax·(1/126 + 1/254 + 1/(126·254))` ≈ `k·amax·wmax/84`
//! (worst case; typical error is far smaller since rounding errors are
//! signed and largely cancel). The proptest suite asserts this bound and,
//! separately, bit-exactness against [`qgemm_dense_reference`].
//!
//! The i32 accumulator cannot overflow for `k ≤ 2^31/(127·127) ≈
//! 133,000`; [`QuantizedWeights::quantize`] asserts this limit.

use crate::activation::Activation;
use crate::blas::gemm_flops;
use crate::matrix::{Matrix, MatrixView};
use crate::microkernel::microkernel_i8;
use crate::pack::{pack_a_q, pack_b_q, packed_a_q_len, packed_b_q_len, KC, KG, MC, MR, NC, NR};
use crate::packed::Init;
use std::cell::RefCell;

/// Weights quantize to the full signed 8-bit range.
pub const WEIGHT_QMAX: f32 = 127.0;
/// Activations quantize to 7 bits so the widening kernel cannot saturate.
pub const ACT_QMAX: f32 = 63.0;
/// Stored activation bytes are offset by this zero point into `[1, 127]`.
pub const ACT_ZERO_POINT: i32 = 64;

/// Largest inner dimension before the i32 accumulator could overflow.
const MAX_QUANT_K: usize = (i32::MAX / (127 * 127)) as usize;

/// Below this FLOP count the pack overhead outweighs blocking. Integer
/// sums are exact, so this choice never changes a bit.
const BLOCKED_MIN_FLOPS_I8: u64 = 1 << 17;

thread_local! {
    /// Per-thread packed A (quantized activations) scratch.
    static A_SCRATCH_I8: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed B (quantized weights) scratch.
    static B_SCRATCH_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
}

/// A weight matrix quantized once (at model build) to per-output-channel
/// symmetric i8, with the per-channel scales and column sums the fused
/// dequantization epilogue needs.
#[derive(Clone, Debug)]
pub struct QuantizedWeights {
    /// `k x n` row-major quantized values.
    data: Vec<i8>,
    k: usize,
    n: usize,
    /// Per-output-channel dequantization scales (`n` entries).
    scales: Vec<f32>,
    /// `col_sums[j] = Σ_k data[k][j]`, the zero-point correction term.
    col_sums: Vec<i32>,
}

impl QuantizedWeights {
    /// Quantize a `k x n` fp32 weight matrix (layer input dim × units).
    pub fn quantize(w: &Matrix) -> QuantizedWeights {
        let (k, n) = (w.rows(), w.cols());
        assert!(k <= MAX_QUANT_K, "quantized GEMM inner dim {k} risks i32 overflow");
        let mut maxabs = vec![0.0f32; n];
        for r in 0..k {
            for (m, &v) in maxabs.iter_mut().zip(w.row(r)) {
                *m = m.max(v.abs());
            }
        }
        // All-zero (or empty) channels get scale 1.0: every value in the
        // channel quantizes to 0 and dequantizes to exactly 0.0.
        let scales: Vec<f32> =
            maxabs.iter().map(|&m| if m == 0.0 { 1.0 } else { m / WEIGHT_QMAX }).collect();
        let mut data = vec![0i8; k * n];
        let mut col_sums = vec![0i32; n];
        for r in 0..k {
            let row = w.row(r);
            let dst = &mut data[r * n..(r + 1) * n];
            for j in 0..n {
                let q = (row[j] / scales[j]).round().clamp(-WEIGHT_QMAX, WEIGHT_QMAX) as i32;
                dst[j] = q as i8;
                col_sums[j] += q;
            }
        }
        QuantizedWeights { data, k, n, scales, col_sums }
    }

    /// Input dimension (rows of the original weight matrix).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Output channels (columns of the original weight matrix).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Per-output-channel dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes held (quantized values + scales + column sums), for cache
    /// accounting: roughly a quarter of the fp32 weight footprint.
    pub fn byte_len(&self) -> usize {
        self.data.len() + 4 * self.scales.len() + 4 * self.col_sums.len()
    }
}

/// Reusable buffers for [`qgemm_dense`]: quantized activations, per-row
/// scales, and the i32 accumulator. One per operator/serving scratch, so
/// steady-state quantized inference allocates nothing.
#[derive(Default)]
pub struct QuantScratch {
    aq: Vec<u8>,
    row_scales: Vec<f32>,
    acc: Vec<i32>,
}

/// Quantized dense layer forward:
/// `out = activation(dequant(quant(a) · w) + bias)`, or with
/// `accumulate`, `out = activation(out + dequant(quant(a) · w))`.
/// [`QuantizedWeights::gemm`] is the same with the [`Init`] spelled out.
///
/// `a` is the fp32 activation matrix (`m x k`), quantized row-wise per
/// call; `w` the pre-quantized weights (`k x n`); `out` must already be
/// `m x n`. `accumulate` (the LSTM recurrent term) takes no bias.
///
/// Dequantization, zero-point correction, bias and activation are fused
/// into a single epilogue pass — the integer accumulator is walked once.
pub fn qgemm_dense(
    a: &Matrix,
    w: &QuantizedWeights,
    bias: Option<&[f32]>,
    activation: Activation,
    accumulate: bool,
    out: &mut Matrix,
    scratch: &mut QuantScratch,
) {
    assert!(!(accumulate && bias.is_some()), "qgemm accumulate mode takes no bias");
    let init = match (bias, accumulate) {
        (Some(b), _) => Init::Bias(b),
        (None, true) => Init::Accumulate,
        (None, false) => Init::Zero,
    };
    w.gemm(a, init, activation, out, scratch);
}

impl QuantizedWeights {
    /// `out = activation(init + dequant(quant(a) · self))`, the int8
    /// sibling of [`crate::PackedMatrix::gemm`], with the same operand
    /// and [`Init`] contract.
    pub fn gemm<'a>(
        &self,
        a: impl Into<MatrixView<'a>>,
        init: Init<'_>,
        activation: Activation,
        out: &mut Matrix,
        scratch: &mut QuantScratch,
    ) {
        let (w, a) = (self, a.into());
        let (m, k) = (a.rows(), a.cols());
        let n = w.n;
        assert_eq!(k, w.k, "qgemm: inner dimensions differ ({k} vs {})", w.k);
        assert_eq!(out.rows(), m, "qgemm: out row count mismatch");
        assert_eq!(out.cols(), n, "qgemm: out column count mismatch");
        if let Init::Bias(b) = init {
            assert_eq!(b.len(), n, "qgemm: bias length mismatch");
        }
        if m == 0 || n == 0 {
            return;
        }

        let flops = gemm_flops(m, k, n);
        obs::metrics::TENSOR_GEMM_I8_CALLS.add(1);
        obs::metrics::TENSOR_GEMM_I8_FLOPS.add(flops);
        let _span = obs::span(&obs::metrics::TENSOR_GEMM_I8_US);

        // 1. Row-wise 7-bit activation quantization.
        scratch.aq.resize(m * k, 0);
        scratch.row_scales.resize(m, 0.0);
        quantize_activations(a, &mut scratch.aq, &mut scratch.row_scales);

        // 2. Integer GEMM into the i32 accumulator.
        scratch.acc.clear();
        scratch.acc.resize(m * n, 0);
        if k > 0 {
            if flops < BLOCKED_MIN_FLOPS_I8 {
                qgemm_i32_unblocked(&scratch.aq, m, k, w, &mut scratch.acc);
            } else {
                qgemm_i32_blocked(&scratch.aq, m, k, w, &mut scratch.acc);
            }
        }

        // 3. Fused dequantize + zero-point correction + init + activation.
        // The dequant loops are branch-free so they autovectorize; the
        // activation then runs over the same L1-resident row — the
        // accumulator and output matrices are each walked exactly once.
        let (ws, cs) = (&w.scales[..n], &w.col_sums[..n]);
        for i in 0..m {
            let sa = scratch.row_scales[i];
            let acc_row = &scratch.acc[i * n..(i + 1) * n];
            let out_row = out.row_mut(i);
            let dequant = |j: usize| sa * ws[j] * (acc_row[j] - ACT_ZERO_POINT * cs[j]) as f32;
            match init {
                Init::Zero => (0..n).for_each(|j| out_row[j] = dequant(j)),
                Init::Bias(b) => (0..n).for_each(|j| out_row[j] = dequant(j) + b[j]),
                Init::Accumulate => (0..n).for_each(|j| out_row[j] += dequant(j)),
            }
            activation.apply(out_row);
        }
    }
}

/// Quantize each row of `a` to 7-bit symmetric with the +64 offset.
///
/// Rounding is half-up (`⌊x + 0.5⌋`), not ties-to-even: adding the
/// zero point *before* the float→int cast makes every intermediate
/// positive, so the whole loop is one FMA plus a truncating cast and
/// autovectorizes. The error contract only needs |Δ| ≤ scale/2, which
/// any round-to-nearest variant satisfies.
fn quantize_activations(a: MatrixView<'_>, aq: &mut [u8], row_scales: &mut [f32]) {
    let (m, k) = (a.rows(), a.cols());
    for i in 0..m {
        let row = a.row(i);
        let maxabs = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        // Zero rows quantize to the bare zero point with scale 1.0.
        let scale = if maxabs == 0.0 { 1.0 } else { maxabs / ACT_QMAX };
        row_scales[i] = scale;
        let dst = &mut aq[i * k..(i + 1) * k];
        let inv = 1.0 / scale;
        // v*inv ∈ [-63, 63] by construction, so the shifted value sits in
        // [1.5, 127.5) and the cast needs no explicit clamp.
        let offset = ACT_ZERO_POINT as f32 + 0.5;
        for (d, &v) in dst.iter_mut().zip(row) {
            *d = v.mul_add(inv, offset) as u8;
        }
    }
}

/// Small-shape integer GEMM: no packing, i-k-j loop over the row-major
/// operands (weights walked sequentially like `sgemm_unblocked_inner`).
fn qgemm_i32_unblocked(aq: &[u8], m: usize, k: usize, w: &QuantizedWeights, acc: &mut [i32]) {
    let n = w.n;
    for i in 0..m {
        let a_row = &aq[i * k..(i + 1) * k];
        let acc_row = &mut acc[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let s = av as i32;
            let w_row = &w.data[kk * n..(kk + 1) * n];
            for (cv, &wv) in acc_row.iter_mut().zip(w_row) {
                *cv += s * wv as i32;
            }
        }
    }
}

/// The blocked integer GEMM: the same jc/pc/ic loop nest and scratch
/// discipline as the fp32 kernel (`packed::gemm_panels`), over int8
/// panels.
fn qgemm_i32_blocked(aq: &[u8], m: usize, k: usize, w: &QuantizedWeights, acc: &mut [i32]) {
    let (n, ldc) = (w.n, w.n);
    assert_eq!(acc.len(), m * n, "qgemm: accumulator shape");
    let cptr = acc.as_mut_ptr();
    A_SCRATCH_I8.with(|abuf| {
        B_SCRATCH_I8.with(|bbuf| {
            let (abuf, bbuf) = (&mut *abuf.borrow_mut(), &mut *bbuf.borrow_mut());
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let (alen, blen) = (packed_a_q_len(MC, kc), packed_b_q_len(kc, nc));
                    if abuf.len() < alen {
                        abuf.resize(alen, 0);
                    }
                    if bbuf.len() < blen {
                        bbuf.resize(blen, 0);
                    }
                    {
                        let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
                        pack_b_q(&w.data, n, pc, kc, jc, nc, bbuf);
                    }
                    let kg = kc.div_ceil(KG);
                    for ic in (0..m).step_by(MC) {
                        let mc = MC.min(m - ic);
                        {
                            let _pack = obs::span(&obs::metrics::TENSOR_PACK_US);
                            pack_a_q(aq, k, ic, mc, pc, kc, abuf);
                        }
                        for q in 0..nc.div_ceil(NR) {
                            let nr_eff = NR.min(nc - q * NR);
                            let bp = &bbuf[q * kg * NR * KG..(q + 1) * kg * NR * KG];
                            for p in 0..mc.div_ceil(MR) {
                                let mr_eff = MR.min(mc - p * MR);
                                let ap = &abuf[p * kg * MR * KG..(p + 1) * kg * MR * KG];
                                // SAFETY: the tile starts inside the `m x n`
                                // accumulator (row ic + p·MR < m, column
                                // jc + q·NR < n; `acc` holds m·n values) and
                                // mr_eff/nr_eff clamp it to the edge.
                                unsafe {
                                    let ctile = cptr.add((ic + p * MR) * ldc + jc + q * NR);
                                    microkernel_i8(kg, ap, bp, ctile, ldc, mr_eff, nr_eff);
                                }
                            }
                        }
                    }
                }
            }
        })
    });
}

/// Worst-case per-element deviation of [`qgemm_dense`] from the exact
/// fp32 product, for inputs bounded by `amax` (per activation row) and
/// `wmax` (per weight column): the documented error-bound contract the
/// proptest suite asserts.
pub fn qgemm_error_bound(k: usize, amax: f32, wmax: f32) -> f32 {
    let ea = 0.5 / ACT_QMAX; // relative activation rounding error
    let ew = 0.5 / WEIGHT_QMAX; // relative weight rounding error
    k as f32 * amax * wmax * (ea + ew + ea * ew)
}

/// Deliberately naive oracle computing the *same quantized arithmetic*
/// as [`qgemm_dense`] with plain loops. The blocked/SIMD path must match
/// it bit-exactly (integer accumulation is order-independent), which is
/// what pins all three micro-kernels to one shared result.
pub fn qgemm_dense_reference(
    a: &Matrix,
    w: &QuantizedWeights,
    bias: Option<&[f32]>,
    activation: Activation,
    accumulate: bool,
    out: &mut Matrix,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = w.n;
    assert_eq!(k, w.k);
    assert_eq!((out.rows(), out.cols()), (m, n));
    let mut aq = vec![0u8; m * k];
    let mut row_scales = vec![0.0f32; m];
    quantize_activations(a.view(), &mut aq, &mut row_scales);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for kk in 0..k {
                acc += aq[i * k + kk] as i64 * w.data[kk * n + j] as i64;
            }
            let v = (acc - ACT_ZERO_POINT as i64 * w.col_sums[j] as i64) as f32;
            let x = row_scales[i] * w.scales[j] * v;
            let out_row = out.row_mut(i);
            let init = if accumulate { out_row[j] } else { bias.map_or(0.0, |b| b[j]) };
            out_row[j] = activation.apply_scalar(x + init);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{sgemm, Transpose};

    fn fill(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503).wrapping_add(seed.wrapping_mul(97)));
            ((h % 2000) as f32 / 2000.0) - 0.5
        })
    }

    #[test]
    fn weight_quantization_round_trips_within_half_step() {
        let w = fill(17, 9, 3);
        let q = QuantizedWeights::quantize(&w);
        for j in 0..9 {
            let mut maxabs = 0.0f32;
            for r in 0..17 {
                maxabs = maxabs.max(w.get(r, j).abs());
            }
            let scale = q.scales()[j];
            assert!((scale - maxabs / WEIGHT_QMAX).abs() < 1e-7);
            for r in 0..17 {
                let deq = q.data[r * 9 + j] as f32 * scale;
                assert!((deq - w.get(r, j)).abs() <= scale * 0.5 + 1e-6);
            }
        }
    }

    #[test]
    fn zero_weight_columns_dequantize_to_exact_zero() {
        let mut w = fill(8, 4, 5);
        for r in 0..8 {
            w.set(r, 2, 0.0);
        }
        let q = QuantizedWeights::quantize(&w);
        assert_eq!(q.scales()[2], 1.0);
        assert_eq!(q.col_sums[2], 0);
        let a = fill(3, 8, 7);
        let mut out = Matrix::zeros(3, 4);
        let mut scratch = QuantScratch::default();
        qgemm_dense(&a, &q, None, Activation::Linear, false, &mut out, &mut scratch);
        for i in 0..3 {
            assert_eq!(out.get(i, 2), 0.0);
        }
    }

    #[test]
    fn blocked_path_is_bit_identical_to_quantized_reference() {
        // Big enough to cross the blocked threshold, ragged in every dimension to exercise edge tiles.
        let (m, k, n) = (70, 130, 75);
        let a = fill(m, k, 11);
        let w = QuantizedWeights::quantize(&fill(k, n, 13));
        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.01 - 0.3).collect();
        let mut got = Matrix::zeros(m, n);
        let mut want = Matrix::zeros(m, n);
        let mut scratch = QuantScratch::default();
        qgemm_dense(&a, &w, Some(&bias), Activation::Relu, false, &mut got, &mut scratch);
        qgemm_dense_reference(&a, &w, Some(&bias), Activation::Relu, false, &mut want);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn quantized_gemm_tracks_fp32_within_documented_bound() {
        let (m, k, n) = (33, 64, 40);
        let a = fill(m, k, 17);
        let wf = fill(k, n, 19);
        let w = QuantizedWeights::quantize(&wf);
        let mut got = Matrix::zeros(m, n);
        let mut scratch = QuantScratch::default();
        qgemm_dense(&a, &w, None, Activation::Linear, false, &mut got, &mut scratch);
        let mut want = Matrix::zeros(m, n);
        sgemm(Transpose::No, Transpose::No, 1.0, &a, &wf, 0.0, &mut want);
        let bound = qgemm_error_bound(k, 0.5, 0.5);
        let diff = got.max_abs_diff(&want);
        assert!(diff <= bound, "diff {diff} exceeds bound {bound}");
    }

    #[test]
    fn accumulate_mode_adds_on_top_of_existing_output() {
        let (m, k, n) = (4, 6, 5);
        let a = fill(m, k, 23);
        let w = QuantizedWeights::quantize(&fill(k, n, 29));
        let mut base = Matrix::from_fn(m, n, |r, c| (r + c) as f32 * 0.1);
        let mut fresh = Matrix::zeros(m, n);
        let mut scratch = QuantScratch::default();
        qgemm_dense(&a, &w, None, Activation::Linear, false, &mut fresh, &mut scratch);
        qgemm_dense(&a, &w, None, Activation::Linear, true, &mut base, &mut scratch);
        for i in 0..m {
            for j in 0..n {
                let expect = (i + j) as f32 * 0.1 + fresh.get(i, j);
                assert!((base.get(i, j) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn empty_k_yields_bias_through_activation() {
        let a = Matrix::zeros(3, 0);
        let w = QuantizedWeights::quantize(&Matrix::zeros(0, 2));
        let bias = [0.5f32, -0.5];
        let mut out = Matrix::zeros(3, 2);
        let mut scratch = QuantScratch::default();
        qgemm_dense(&a, &w, Some(&bias), Activation::Relu, false, &mut out, &mut scratch);
        for i in 0..3 {
            assert_eq!(out.row(i), &[0.5, 0.0]);
        }
    }
}
