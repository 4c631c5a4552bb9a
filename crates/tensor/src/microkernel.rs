//! The register-tiled MR×NR micro-kernels at the bottom of the blocked
//! GEMMs (fp32 and int8).
//!
//! Operate on panels produced by [`crate::pack`]: an A micro-panel laid
//! out `k`-major with `MR` consecutive rows per step, and a B micro-panel
//! laid out `k`-major with `NR` consecutive columns per step (the int8
//! panels additionally interleave `KG = 4` k steps per row/column, the
//! `vpdpbusd` lane shape).
//!
//! Kernel selection is *runtime* dispatch, cached in [`crate::simd`] —
//! not `cfg(target_feature)`, which silently degraded builds compiled
//! without `-C target-cpu=native` to the scalar path.
//!
//! fp32: one AVX-512 8×32 FMA kernel for **every** tile, full or edge:
//! an edge tile (`mr_eff < MR` or `nr_eff < NR`) runs the same FMAs in the
//! same k-order and only masks its loads and stores, so an output
//! element's bits do not depend on where its row or column falls in the
//! tile grid — the batch size never changes a row's result. Hosts without
//! AVX-512 run a portable scalar kernel (whose fixed-size `MR x NR`
//! accumulator autovectorizes) for every tile instead.
//!
//! int8 (u8 activations × i8 weights → i32): three kernels that are
//! **bit-identical** by construction — activations are quantized to 7 bits
//! (`crate::quant`), so the `vpmaddubsw` i16 intermediates in the widening
//! kernel cannot saturate and all paths compute the same exact integer
//! sums:
//!
//! * AVX-512 VNNI: `vpdpbusd`, 4 u8·i8 MACs per i32 lane per instruction;
//! * AVX-512 BW widening: `vpmaddubsw` + `vpmaddwd` + `vpaddd`, exact
//!   `vpdpbusd` emulation for hosts without VNNI;
//! * portable scalar fallback (also the int8 edge tiles).

use crate::pack::{KG, MR, NR};
use crate::simd;

/// `C[0..mr_eff, 0..nr_eff] = S + alpha * Ap · Bp` (fp32), where `S` is
/// the `mr_eff x nr_eff` tile at `src` with leading dimension `lds`, and
/// with `relu` every stored element `max(x, 0)` (as `f32::max`: a NaN
/// stores 0).
///
/// `src` is what this K slice adds its product to: `c` itself (an
/// accumulating slice), a bias row read by every tile row (`lds = 0`), or
/// zeros. Each element is `fma(alpha, acc, s)` where `acc` sums the `kc`
/// products in k-order from zero.
///
/// `ap` is one packed A micro-panel (`kc * MR` values), `bp` one packed B
/// micro-panel (`kc * NR` values); both are zero-padded so the accumulation
/// loop itself is always the full `MR x NR` shape. `c` points at the first
/// element of the target tile inside a row-major C with leading dimension
/// `ldc`; only the `mr_eff x nr_eff` valid region is read from `src` and
/// written to `c`.
///
/// # Safety
/// `src` must be valid for reads of rows `0..mr_eff` (at stride `lds`)
/// with columns `0..nr_eff`; `c` must be valid for writes of rows
/// `0..mr_eff` with columns `0..nr_eff` at leading dimension `ldc`, and no
/// other thread may access that region of `c` concurrently.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLIS micro-kernel ABI
pub(crate) unsafe fn microkernel(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    src: *const f32,
    lds: usize,
    c: *mut f32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    relu: bool,
) {
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    debug_assert!(mr_eff <= MR && nr_eff <= NR);

    #[cfg(target_arch = "x86_64")]
    if simd::avx512f() {
        let (src, c) = ((src, lds), (c, ldc));
        let args = (kc, alpha, ap, bp, src, c, mr_eff, nr_eff, relu);
        // SAFETY: the caller's contract, forwarded; AVX-512F is present.
        unsafe {
            if nr_eff > NR / 2 {
                microkernel_avx512::<true>(args);
            } else {
                microkernel_avx512::<false>(args);
            }
        }
        return;
    }

    // SAFETY: the caller's contract, forwarded.
    unsafe { microkernel_scalar(kc, alpha, ap, bp, src, lds, c, ldc, mr_eff, nr_eff, relu) };
}

/// The AVX-512 kernel: MR = 8 rows × NR = 32 columns, two zmm
/// accumulators per row. Per `k` step: two B loads, then per row one
/// broadcast of the A element feeding two FMAs — 16 FMAs against 10 loads,
/// so the loop is FMA-throughput-bound, not load-bound. `WIDE = false`
/// (a tile of at most 16 valid columns, such as a one-unit output layer)
/// skips the upper half: the lower 16 lanes run exactly the same FMAs
/// either way, so the choice never changes a bit. The ReLU is
/// `vmaxps(x, 0)`, which returns its second operand for a NaN, as
/// `f32::max(x, 0.0)` does; the two differ only on `-0.0`, which a
/// write-back never produces (an FMA chain from `+0.0` sums to `-0.0`
/// only from `-0.0` addends).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::type_complexity)] // the micro-kernel ABI as one tuple
unsafe fn microkernel_avx512<const WIDE: bool>(
    (kc, alpha, ap, bp, (src, lds), (c, ldc), mr_eff, nr_eff, relu): (
        usize,
        f32,
        &[f32],
        &[f32],
        (*const f32, usize),
        (*mut f32, usize),
        usize,
        usize,
        bool,
    ),
) {
    use std::arch::x86_64::*;
    const _: () = assert!(MR == 8 && NR == 32, "kernel is tiled for 8 x 32");

    // Lane masks of the valid columns in each 16-lane half.
    let mask = |lanes: usize| -> __mmask16 { ((1u32 << lanes.min(16)) - 1) as __mmask16 };
    let (m_lo, m_hi) = (mask(nr_eff), mask(nr_eff.saturating_sub(16)));
    // SAFETY: the panels hold `kc * MR` and `kc * NR` values (asserted by
    // the dispatcher), which bounds every A broadcast and B load; `src`
    // and `c` accesses are masked to the caller's valid region.
    unsafe {
        let mut acc_lo = [_mm512_setzero_ps(); MR];
        let mut acc_hi = [_mm512_setzero_ps(); MR];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for k in 0..kc {
            // A k step of the B panel is two cache lines, and the panel
            // (KC x NR floats) outgrows L1: fetch 8 steps ahead, staying
            // inside the panel (the last steps re-touch their own line).
            let ahead = if k + 8 < kc { b.add(8 * NR) } else { b }.cast::<i8>();
            _mm_prefetch::<_MM_HINT_T0>(ahead);
            _mm_prefetch::<_MM_HINT_T0>(ahead.add(64));
            let b_lo = _mm512_loadu_ps(b);
            let b_hi = if WIDE { _mm512_loadu_ps(b.add(16)) } else { _mm512_setzero_ps() };
            for i in 0..MR {
                let ai = _mm512_set1_ps(*a.add(i));
                acc_lo[i] = _mm512_fmadd_ps(ai, b_lo, acc_lo[i]);
                if WIDE {
                    acc_hi[i] = _mm512_fmadd_ps(ai, b_hi, acc_hi[i]);
                }
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        let va = _mm512_set1_ps(alpha);
        let zero = _mm512_setzero_ps();
        let act = |v| if relu { _mm512_max_ps(v, zero) } else { v };
        // A constant trip count with a guard keeps the accumulators in
        // registers (a variable bound would index them through memory).
        for i in 0..MR {
            if i < mr_eff {
                let (s, crow) = (src.add(i * lds), c.add(i * ldc));
                let lo = _mm512_fmadd_ps(va, acc_lo[i], _mm512_maskz_loadu_ps(m_lo, s));
                _mm512_mask_storeu_ps(crow, m_lo, act(lo));
                if WIDE {
                    let s_hi = _mm512_maskz_loadu_ps(m_hi, s.add(16));
                    let hi = _mm512_fmadd_ps(va, acc_hi[i], s_hi);
                    _mm512_mask_storeu_ps(crow.add(16), m_hi, act(hi));
                }
            }
        }
    }
}

/// Portable scalar fp32 kernel, for every tile on hosts without AVX-512.
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn microkernel_scalar(
    kc: usize,
    alpha: f32,
    ap: &[f32],
    bp: &[f32],
    src: *const f32,
    lds: usize,
    c: *mut f32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    relu: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    // chunks_exact gives the optimizer bound-check-free, fixed-size slices;
    // the rank-1 update body then vectorizes to one FMA per accumulator row.
    for (a, b) in ap[..kc * MR].chunks_exact(MR).zip(bp[..kc * NR].chunks_exact(NR)) {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        // SAFETY: row `i < mr_eff` and columns `j < nr_eff` lie inside the
        // caller's `src` and `c` regions.
        let (s, crow) = unsafe { (src.add(i * lds), c.add(i * ldc)) };
        for (j, &v) in row.iter().enumerate().take(nr_eff) {
            let x = unsafe { *s.add(j) } + alpha * v;
            unsafe { *crow.add(j) = if relu { x.max(0.0) } else { x } };
        }
    }
}

/// `C[0..mr_eff, 0..nr_eff] += Ap · Bp` (u8 × i8 → i32 accumulate).
///
/// `kg` is the number of `KG`-deep k groups in the panels: `ap` holds
/// `kg * MR * KG` u8 activations, `bp` holds `kg * NR * KG` i8 weights,
/// both zero-padded (0·0 contributes nothing). `c` points at the target
/// tile inside a row-major i32 accumulator with leading dimension `ldc`.
///
/// All three implementations produce bit-identical i32 results: the 7-bit
/// activation range guarantees the widening kernel's i16 intermediates
/// stay below saturation (max pair 2·127·127 = 32258 < 32767).
///
/// # Safety
/// Same contract as [`microkernel`], over i32 elements.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn microkernel_i8(
    kg: usize,
    ap: &[u8],
    bp: &[i8],
    c: *mut i32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(ap.len() >= kg * MR * KG);
    debug_assert!(bp.len() >= kg * NR * KG);
    debug_assert!(mr_eff <= MR && nr_eff <= NR);

    #[cfg(target_arch = "x86_64")]
    if mr_eff == MR && nr_eff == NR {
        if simd::avx512vnni() {
            unsafe { microkernel_i8_vnni(kg, ap, bp, c, ldc) };
            return;
        }
        if simd::avx512bw() {
            unsafe { microkernel_i8_widening(kg, ap, bp, c, ldc) };
            return;
        }
    }

    unsafe { microkernel_i8_scalar(kg, ap, bp, c, ldc, mr_eff, nr_eff) };
}

/// Full-tile VNNI kernel: 8 rows × 32 i32 lanes in 16 zmm accumulators.
/// Per k group: two B loads (64 weights each), then per row one u32
/// broadcast of the row's 4 activation bytes feeding two `vpdpbusd` — each
/// instruction retires 64 u8·i8 MACs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn microkernel_i8_vnni(kg: usize, ap: &[u8], bp: &[i8], c: *mut i32, ldc: usize) {
    use std::arch::x86_64::*;
    const _: () = assert!(MR == 8 && NR == 32 && KG == 4, "kernel is tiled for 8 x 32 x 4");

    unsafe {
        let mut acc_lo = [_mm512_setzero_si512(); MR];
        let mut acc_hi = [_mm512_setzero_si512(); MR];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..kg {
            let b_lo = _mm512_loadu_si512(b as *const __m512i);
            let b_hi = _mm512_loadu_si512(b.add(16 * KG) as *const __m512i);
            for i in 0..MR {
                let ai = _mm512_set1_epi32((a.add(i * KG) as *const i32).read_unaligned());
                acc_lo[i] = _mm512_dpbusd_epi32(acc_lo[i], ai, b_lo);
                acc_hi[i] = _mm512_dpbusd_epi32(acc_hi[i], ai, b_hi);
            }
            a = a.add(MR * KG);
            b = b.add(NR * KG);
        }
        for i in 0..MR {
            let crow = c.add(i * ldc);
            let lo = _mm512_add_epi32(_mm512_loadu_si512(crow as *const __m512i), acc_lo[i]);
            let hi =
                _mm512_add_epi32(_mm512_loadu_si512(crow.add(16) as *const __m512i), acc_hi[i]);
            _mm512_storeu_si512(crow as *mut __m512i, lo);
            _mm512_storeu_si512(crow.add(16) as *mut __m512i, hi);
        }
    }
}

/// Full-tile widening kernel for AVX-512 hosts without VNNI: emulates
/// `vpdpbusd` as `vpmaddubsw` (u8·i8 → i16 pairs) + `vpmaddwd` (i16 pairs
/// → i32) + `vpaddd`. Exact, because 7-bit activations keep the i16
/// pair sums below saturation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn microkernel_i8_widening(kg: usize, ap: &[u8], bp: &[i8], c: *mut i32, ldc: usize) {
    use std::arch::x86_64::*;
    const _: () = assert!(MR == 8 && NR == 32 && KG == 4, "kernel is tiled for 8 x 32 x 4");

    unsafe {
        let ones = _mm512_set1_epi16(1);
        let mut acc_lo = [_mm512_setzero_si512(); MR];
        let mut acc_hi = [_mm512_setzero_si512(); MR];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..kg {
            let b_lo = _mm512_loadu_si512(b as *const __m512i);
            let b_hi = _mm512_loadu_si512(b.add(16 * KG) as *const __m512i);
            for i in 0..MR {
                let ai = _mm512_set1_epi32((a.add(i * KG) as *const i32).read_unaligned());
                let t_lo = _mm512_maddubs_epi16(ai, b_lo);
                let t_hi = _mm512_maddubs_epi16(ai, b_hi);
                acc_lo[i] = _mm512_add_epi32(acc_lo[i], _mm512_madd_epi16(t_lo, ones));
                acc_hi[i] = _mm512_add_epi32(acc_hi[i], _mm512_madd_epi16(t_hi, ones));
            }
            a = a.add(MR * KG);
            b = b.add(NR * KG);
        }
        for i in 0..MR {
            let crow = c.add(i * ldc);
            let lo = _mm512_add_epi32(_mm512_loadu_si512(crow as *const __m512i), acc_lo[i]);
            let hi =
                _mm512_add_epi32(_mm512_loadu_si512(crow.add(16) as *const __m512i), acc_hi[i]);
            _mm512_storeu_si512(crow as *mut __m512i, lo);
            _mm512_storeu_si512(crow.add(16) as *mut __m512i, hi);
        }
    }
}

/// Portable scalar int8 kernel; also handles edge tiles for the SIMD paths.
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn microkernel_i8_scalar(
    kg: usize,
    ap: &[u8],
    bp: &[i8],
    c: *mut i32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0i32; NR]; MR];
    for (a, b) in
        ap[..kg * MR * KG].chunks_exact(MR * KG).zip(bp[..kg * NR * KG].chunks_exact(NR * KG))
    {
        for i in 0..MR {
            for j in 0..NR {
                let mut dot = 0i32;
                for t in 0..KG {
                    dot += a[i * KG + t] as i32 * b[j * KG + t] as i32;
                }
                acc[i][j] += dot;
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        let crow = unsafe { c.add(i * ldc) };
        for (j, &v) in row.iter().enumerate().take(nr_eff) {
            unsafe { *crow.add(j) += v };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_tile_matches_scalar_reference() {
        let kc = 5;
        // Ap: value at (k, i) = k*10 + i; Bp: value at (k, j) = k + j * 0.5
        let mut ap = vec![0.0f32; kc * MR];
        let mut bp = vec![0.0f32; kc * NR];
        for k in 0..kc {
            for i in 0..MR {
                ap[k * MR + i] = (k * 10 + i) as f32;
            }
            for j in 0..NR {
                bp[k * NR + j] = k as f32 + j as f32 * 0.5;
            }
        }
        let ldc = NR;
        let mut c = vec![1.0f32; MR * NR];
        let cp = c.as_mut_ptr();
        unsafe { microkernel(kc, 2.0, &ap, &bp, cp, ldc, cp, ldc, MR, NR, false) };
        for i in 0..MR {
            for j in 0..NR {
                let mut expect = 0.0f32;
                for k in 0..kc {
                    expect += ap[k * MR + i] * bp[k * NR + j];
                }
                let got = c[i * ldc + j];
                assert!((got - (1.0 + 2.0 * expect)).abs() < 1e-3, "({i},{j}): {got}");
            }
        }
    }

    #[test]
    fn partial_tile_leaves_outside_untouched() {
        let kc = 3;
        let ap = vec![1.0f32; kc * MR];
        let bp = vec![1.0f32; kc * NR];
        let ldc = NR + 2; // C wider than the tile
        let mut c = vec![0.0f32; MR * ldc];
        let cp = c.as_mut_ptr();
        unsafe { microkernel(kc, 1.0, &ap, &bp, cp, ldc, cp, ldc, 2, 3, false) };
        for i in 0..MR {
            for j in 0..ldc {
                let expected = if i < 2 && j < 3 { kc as f32 } else { 0.0 };
                assert_eq!(c[i * ldc + j], expected, "({i},{j})");
            }
        }
    }

    /// Satellite: the runtime-dispatched fp32 path must agree with the
    /// scalar oracle on whatever host runs the test, SIMD-capable or not.
    #[test]
    fn dispatched_f32_kernel_matches_scalar_oracle() {
        let kc = 37;
        let ap: Vec<f32> = (0..kc * MR).map(|v| ((v * 13 % 97) as f32) * 0.03 - 1.0).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|v| ((v * 7 % 89) as f32) * 0.05 - 2.0).collect();
        let ldc = NR;
        let mut c_dispatch = vec![0.5f32; MR * NR];
        let mut c_scalar = vec![0.5f32; MR * NR];
        let (cd, cs) = (c_dispatch.as_mut_ptr(), c_scalar.as_mut_ptr());
        unsafe {
            microkernel(kc, 1.25, &ap, &bp, cd, ldc, cd, ldc, MR, NR, false);
            microkernel_scalar(kc, 1.25, &ap, &bp, cs, ldc, cs, ldc, MR, NR, false);
        }
        for (i, (s, r)) in c_dispatch.iter().zip(&c_scalar).enumerate() {
            assert!((s - r).abs() < 1e-3, "lane {i}: {s} vs {r} (via {})", simd::f32_kernel_name());
        }
    }

    /// An edge tile runs the full tile's arithmetic and only masks its
    /// loads and stores: each valid element is bit-identical to the same
    /// element of the full tile, for every edge shape, in both the wide
    /// and the narrow (≤ 16 columns) kernel, and nothing outside the edge
    /// region is written.
    #[test]
    fn edge_tiles_are_bit_identical_to_the_full_tile() {
        let kc = 29;
        let ap: Vec<f32> = (0..kc * MR).map(|v| ((v * 13 % 97) as f32) * 0.031 - 1.5).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|v| ((v * 7 % 89) as f32) * 0.047 - 2.0).collect();
        let bias: Vec<f32> = (0..NR).map(|j| j as f32 * 0.013 - 0.2).collect();
        let mut full = vec![0.0f32; MR * NR];
        let fp = full.as_mut_ptr();
        unsafe { microkernel(kc, 1.0, &ap, &bp, bias.as_ptr(), 0, fp, NR, MR, NR, false) };
        for mr_eff in [1, 3, MR] {
            for nr_eff in [1, 5, 16, 17, 31, NR] {
                let mut edge = vec![f32::NAN; MR * NR];
                let ep = edge.as_mut_ptr();
                unsafe {
                    microkernel(kc, 1.0, &ap, &bp, bias.as_ptr(), 0, ep, NR, mr_eff, nr_eff, false)
                };
                for i in 0..MR {
                    for j in 0..NR {
                        let (got, want) = (edge[i * NR + j], full[i * NR + j]);
                        if i < mr_eff && j < nr_eff {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{mr_eff}x{nr_eff} ({i},{j})"
                            );
                        } else {
                            assert!(got.is_nan(), "{mr_eff}x{nr_eff} wrote outside at ({i},{j})");
                        }
                    }
                }
            }
        }
    }

    fn i8_panels(kg: usize) -> (Vec<u8>, Vec<i8>) {
        // Activations span the full post-offset range [1, 127]; weights the
        // full signed range, including the ±127 saturation corners.
        let ap: Vec<u8> = (0..kg * MR * KG).map(|v| (v * 37 % 127 + 1) as u8).collect();
        let bp: Vec<i8> = (0..kg * NR * KG).map(|v| ((v * 53 % 255) as i32 - 127) as i8).collect();
        (ap, bp)
    }

    /// Satellite: the runtime-dispatched int8 path must match the scalar
    /// oracle *exactly* — integer arithmetic, no tolerance.
    #[test]
    fn dispatched_i8_kernel_is_bit_identical_to_scalar_oracle() {
        let kg = 19;
        let (ap, bp) = i8_panels(kg);
        let ldc = NR;
        let mut c_dispatch = vec![7i32; MR * NR];
        let mut c_scalar = vec![7i32; MR * NR];
        unsafe {
            microkernel_i8(kg, &ap, &bp, c_dispatch.as_mut_ptr(), ldc, MR, NR);
            microkernel_i8_scalar(kg, &ap, &bp, c_scalar.as_mut_ptr(), ldc, MR, NR);
        }
        assert_eq!(c_dispatch, c_scalar, "dispatched via {}", simd::i8_kernel_name());
    }

    /// On AVX-512 BW hosts the widening emulation must reproduce the
    /// dispatcher's (possibly VNNI) results exactly — this is the
    /// cross-kernel bit-identity contract that makes quantized inference
    /// reproducible across hosts.
    #[test]
    fn i8_widening_kernel_matches_dispatch_exactly() {
        if !simd::avx512bw() {
            return; // nothing to compare on this host
        }
        #[cfg(target_arch = "x86_64")]
        {
            let kg = 23;
            let (ap, bp) = i8_panels(kg);
            let ldc = NR;
            let mut c_widen = vec![-3i32; MR * NR];
            let mut c_dispatch = vec![-3i32; MR * NR];
            unsafe {
                microkernel_i8_widening(kg, &ap, &bp, c_widen.as_mut_ptr(), ldc);
                microkernel_i8(kg, &ap, &bp, c_dispatch.as_mut_ptr(), ldc, MR, NR);
            }
            assert_eq!(c_widen, c_dispatch);
        }
    }

    #[test]
    fn i8_partial_tile_leaves_outside_untouched() {
        let kg = 2;
        let ap = vec![64u8; kg * MR * KG]; // zero-point activations
        let bp = vec![1i8; kg * NR * KG];
        let ldc = NR + 1;
        let mut c = vec![0i32; MR * ldc];
        unsafe { microkernel_i8(kg, &ap, &bp, c.as_mut_ptr(), ldc, 3, 5) };
        for i in 0..MR {
            for j in 0..ldc {
                let expected = if i < 3 && j < 5 { (kg * KG) as i32 * 64 } else { 0 };
                assert_eq!(c[i * ldc + j], expected, "({i},{j})");
            }
        }
    }
}
