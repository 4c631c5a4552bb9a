//! Panel packing for the blocked GEMM (the "copy kernels" of an MKL-class
//! BLAS, paper Sec. 5.4).
//!
//! The blocked GEMM ([`crate::packed`]) never walks the operand matrices
//! directly. Each `KC`-deep slice of the K dimension is first repacked into
//! contiguous tile buffers — A into `MR`-row micro-panels, B into `NR`-column
//! micro-panels, both `k`-major and zero-padded to full tiles — so the
//! micro-kernel streams purely sequential, aligned memory. Both operands
//! are row-major as stored: a model keeps its weights "already in a
//! transposed way" (paper Sec. 5.4), so no GEMM transposes an operand.
//! A built model's weights are packed once, all slices at a time
//! ([`pack_b_all`]); the activations, per slice, per call.
//!
//! Packed layouts (`kc` = depth of the current K slice):
//!
//! ```text
//! A block (mc x kc):  ⌈mc/MR⌉ micro-panels, panel p holds rows p*MR..,
//!                     element (i, k) of the panel at  p*kc*MR + k*MR + i
//! B panel (kc x nc):  ⌈nc/NR⌉ micro-panels, panel q holds cols q*NR..,
//!                     element (k, j) of the panel at  q*kc*NR + k*NR + j
//! ```

use crate::matrix::{Matrix, MatrixView};

/// Rows per A micro-panel (register tile height).
pub const MR: usize = 8;
/// Columns per B micro-panel (register tile width). The AVX-512 kernels
/// hold two 16-lane accumulator registers per A row (16 zmm total), so the
/// tile is 32 columns wide. The width is fixed rather than gated on
/// `cfg(target_feature)`: kernel selection happens at *runtime* (see
/// [`crate::simd`]), so a build without `-C target-cpu=native` must still
/// pack panels the AVX-512 kernels can consume.
pub(crate) const NR: usize = 32;
/// `k` values per int8 micro-panel group: `vpdpbusd` (and its widening
/// emulation) consumes four consecutive u8·i8 products per i32 lane, so
/// the int8 panels interleave groups of four k steps.
pub(crate) const KG: usize = 4;
/// Rows of A packed per block (with `KC`, sized to sit in L2: `MC*KC`
/// floats = 512 KiB).
pub(crate) const MC: usize = 256;
/// Depth of one packed K slice. A and B micro-panels (`KC*MR`, `KC*NR`
/// floats) stream from L1/L2 while C tiles stay register-resident.
pub(crate) const KC: usize = 512;
/// Columns of B packed per panel (bounds the shared B buffer at ~8 MiB).
pub(crate) const NC: usize = 4096;

/// Number of floats `pack_a` needs for an `mc x kc` block.
pub(crate) fn packed_a_len(mc: usize, kc: usize) -> usize {
    mc.div_ceil(MR) * MR * kc
}

/// Number of floats `pack_b` needs for a `kc x nc` panel.
pub(crate) fn packed_b_len(kc: usize, nc: usize) -> usize {
    nc.div_ceil(NR) * NR * kc
}

/// Pack the `mc x kc` block of `a` starting at `(ic, pc)` into `out`.
pub(crate) fn pack_a(
    a: MatrixView<'_>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
) {
    debug_assert!(out.len() >= packed_a_len(mc, kc));
    let (data, ld) = (a.as_slice(), a.cols());
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let row0 = ic + p * MR;
        let rows = MR.min(ic + mc - row0);
        let panel = &mut out[p * kc * MR..(p + 1) * kc * MR];
        if rows == MR {
            // A full panel: walk the MR source rows in lockstep so the
            // panel is written sequentially, one k step (MR values) at a
            // time, while each row is still read in order.
            let src: [&[f32]; MR] = std::array::from_fn(|i| {
                let base = (row0 + i) * ld + pc;
                &data[base..base + kc]
            });
            for (k, dst) in panel.chunks_exact_mut(MR).enumerate() {
                for (d, row) in dst.iter_mut().zip(&src) {
                    *d = row[k];
                }
            }
        } else {
            // The ragged last panel: zero-pad, then scatter the rows.
            panel.fill(0.0);
            for i in 0..rows {
                let src_base = (row0 + i) * ld + pc;
                let src = &data[src_base..src_base + kc];
                for (k, &v) in src.iter().enumerate() {
                    panel[k * MR + i] = v;
                }
            }
        }
    }
}

/// Number of floats [`pack_b_all`] needs for a whole `k x n` operand.
pub(crate) fn packed_b_all_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Offset, inside a [`pack_b_all`] buffer of a `k`-deep operand, of the
/// panel packed for K slice `pc` of the `nc`-wide column block `jc`. Every
/// block before `jc` is `NC` wide and every slice before `pc` is `KC`
/// deep, so the blocks before take `jc * k` floats and the slices before
/// take `pc` rows of the block's padded width.
pub(crate) fn packed_b_offset(k: usize, jc: usize, nc: usize, pc: usize) -> usize {
    jc * k + pc * nc.div_ceil(NR) * NR
}

/// Pack all of `b` (`k x n`): every `(jc, pc)` panel [`pack_b`]
/// produces, column block by column block and K slice by K slice, at
/// [`packed_b_offset`].
pub(crate) fn pack_b_all(b: &Matrix, k: usize, n: usize, out: &mut [f32]) {
    debug_assert!(out.len() >= packed_b_all_len(k, n));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let at = packed_b_offset(k, jc, nc, pc);
            pack_b(b, pc, kc, jc, nc, &mut out[at..at + packed_b_len(kc, nc)]);
        }
    }
}

/// Pack the `kc x nc` panel of `b` starting at `(pc, jc)` into `out`.
/// Source reads and panel writes are both sequential.
pub(crate) fn pack_b(b: &Matrix, pc: usize, kc: usize, jc: usize, nc: usize, out: &mut [f32]) {
    debug_assert!(out.len() >= packed_b_len(kc, nc));
    let (data, ld) = (b.as_slice(), b.cols());
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let col0 = jc + q * NR;
        let cols = NR.min(jc + nc - col0);
        let panel = &mut out[q * kc * NR..(q + 1) * kc * NR];
        for k in 0..kc {
            let src_base = (pc + k) * ld + col0;
            let dst = &mut panel[k * NR..k * NR + NR];
            dst[..cols].copy_from_slice(&data[src_base..src_base + cols]);
            dst[cols..].fill(0.0);
        }
    }
}

/// Number of bytes `pack_a_q` needs for an `mc x kc` block.
pub(crate) fn packed_a_q_len(mc: usize, kc: usize) -> usize {
    mc.div_ceil(MR) * MR * kc.div_ceil(KG) * KG
}

/// Number of bytes `pack_b_q` needs for a `kc x nc` panel.
pub(crate) fn packed_b_q_len(kc: usize, nc: usize) -> usize {
    nc.div_ceil(NR) * NR * kc.div_ceil(KG) * KG
}

/// Pack the `mc x kc` block of the quantized activation matrix `a`
/// (row-major `m x lda`, u8) starting at `(ic, pc)` into `out`.
///
/// Layout: panel `p` holds rows `p*MR..`; element `(i, k)` with `k = KG*g + t`
/// lives at `p*kcg*MR*KG + g*MR*KG + i*KG + t` (`kcg = ⌈kc/KG⌉`), i.e. each
/// row contributes `KG` consecutive bytes per group so the micro-kernel can
/// broadcast one group as a single u32. Tails (both rows and k) are padded
/// with 0, which multiplies to zero against the 0-padded B panel and so
/// never perturbs real accumulators.
pub(crate) fn pack_a_q(
    a: &[u8],
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut [u8],
) {
    debug_assert!(out.len() >= packed_a_q_len(mc, kc));
    let kcg = kc.div_ceil(KG);
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let row0 = ic + p * MR;
        let rows = MR.min(ic + mc - row0);
        let panel = &mut out[p * kcg * MR * KG..(p + 1) * kcg * MR * KG];
        panel.fill(0);
        for i in 0..rows {
            let src = &a[(row0 + i) * lda + pc..(row0 + i) * lda + pc + kc];
            // Whole k groups move as 4-byte copies; only the k tail goes
            // byte-by-byte into the already-zeroed panel.
            let chunks = src.chunks_exact(KG);
            let tail = chunks.remainder();
            let mut g = 0;
            for ch in chunks {
                let dst = g * MR * KG + i * KG;
                panel[dst..dst + KG].copy_from_slice(ch);
                g += 1;
            }
            if !tail.is_empty() {
                let dst = g * MR * KG + i * KG;
                panel[dst..dst + tail.len()].copy_from_slice(tail);
            }
        }
    }
}

/// Pack the `kc x nc` panel of the quantized weight matrix `w` (row-major
/// `k x ldb`, i8) starting at `(pc, jc)` into `out`.
///
/// Layout: panel `q` holds columns `q*NR..`; element `(k, j)` with
/// `k = KG*g + t` lives at `q*kcg*NR*KG + g*NR*KG + j*KG + t` — each column
/// contributes `KG` consecutive bytes per group, matching one i32 lane of
/// `vpdpbusd`. Tails are zero-padded.
pub(crate) fn pack_b_q(
    w: &[i8],
    ldb: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    out: &mut [i8],
) {
    debug_assert!(out.len() >= packed_b_q_len(kc, nc));
    let kcg = kc.div_ceil(KG);
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let col0 = jc + q * NR;
        let cols = NR.min(jc + nc - col0);
        let panel = &mut out[q * kcg * NR * KG..(q + 1) * kcg * NR * KG];
        panel.fill(0);
        for k in 0..kc {
            let (g, t) = (k / KG, k % KG);
            let src = &w[(pc + k) * ldb + col0..(pc + k) * ldb + col0 + cols];
            let group = &mut panel[g * NR * KG..(g + 1) * NR * KG];
            for (j, &v) in src.iter().enumerate() {
                group[j * KG + t] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * 100 + c) as f32)
    }

    #[test]
    fn pack_a_layout_no_transpose() {
        let a = sample(10, 6);
        let (mc, kc) = (10, 4);
        let mut out = vec![-1.0; packed_a_len(mc, kc)];
        pack_a(a.view(), 0, mc, 1, kc, &mut out);
        for p in 0..mc.div_ceil(MR) {
            for k in 0..kc {
                for i in 0..MR {
                    let got = out[p * kc * MR + k * MR + i];
                    let row = p * MR + i;
                    let expected = if row < mc { a.get(row, 1 + k) } else { 0.0 };
                    assert_eq!(got, expected, "panel {p} k {k} i {i}");
                }
            }
        }
    }

    /// Full 8-row panels take the lockstep loop, the ragged last panel
    /// the zero-padded scatter; a `kc` that is no multiple of 8 included.
    #[test]
    fn pack_a_full_panels_with_a_ragged_k_tail() {
        let a = sample(19, 30);
        let (ic, mc, pc, kc) = (1, 17, 3, 27);
        let mut out = vec![-1.0; packed_a_len(mc, kc)];
        pack_a(a.view(), ic, mc, pc, kc, &mut out);
        for p in 0..mc.div_ceil(MR) {
            for k in 0..kc {
                for i in 0..MR {
                    let r = p * MR + i;
                    let expected = if r < mc { a.get(ic + r, pc + k) } else { 0.0 };
                    assert_eq!(out[p * kc * MR + k * MR + i], expected, "panel {p} k {k} i {i}");
                }
            }
        }
    }

    /// One full micro-panel and a ragged one, zero-padded to `NR`.
    #[test]
    fn pack_b_layout_zero_pads_ragged_panels() {
        let b = sample(5, NR + 12);
        let (pc, kc, jc, nc) = (1, 3, 2, NR + 7);
        let mut out = vec![-1.0; packed_b_len(kc, nc)];
        pack_b(&b, pc, kc, jc, nc, &mut out);
        for q in 0..nc.div_ceil(NR) {
            for k in 0..kc {
                for j in 0..NR {
                    let col = q * NR + j;
                    let expected = if col < nc { b.get(pc + k, jc + col) } else { 0.0 };
                    assert_eq!(out[q * kc * NR + k * NR + j], expected, "panel {q} k {k} j {j}");
                }
            }
        }
    }

    #[test]
    fn blocking_constants_are_tile_aligned() {
        assert_eq!(MC % MR, 0);
        assert_eq!(NC % NR, 0);
        assert_eq!(KC % KG, 0);
    }

    #[test]
    fn pack_a_q_groups_rows_and_zero_pads() {
        let (m, k) = (10, 7); // ragged in both rows and k
        let a: Vec<u8> = (0..m * k).map(|v| (v % 127 + 1) as u8).collect();
        let (ic, mc, pc, kc) = (1, 9, 2, 5);
        let mut out = vec![0xAA; packed_a_q_len(mc, kc)];
        pack_a_q(&a, k, ic, mc, pc, kc, &mut out);
        let kcg = kc.div_ceil(KG);
        for p in 0..mc.div_ceil(MR) {
            for g in 0..kcg {
                for i in 0..MR {
                    for t in 0..KG {
                        let got = out[p * kcg * MR * KG + g * MR * KG + i * KG + t];
                        let (row, kk) = (p * MR + i, g * KG + t);
                        let expected =
                            if row < mc && kk < kc { a[(ic + row) * k + pc + kk] } else { 0 };
                        assert_eq!(got, expected, "panel {p} group {g} row {i} t {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_q_groups_cols_and_zero_pads() {
        let (k, n) = (6, NR + 3); // ragged in both k and columns
        let w: Vec<i8> = (0..k * n).map(|v| (v % 255) as i8).collect();
        let (pc, kc, jc, nc) = (1, 5, 2, n - 2);
        let mut out = vec![-86i8; packed_b_q_len(kc, nc)];
        pack_b_q(&w, n, pc, kc, jc, nc, &mut out);
        let kcg = kc.div_ceil(KG);
        for q in 0..nc.div_ceil(NR) {
            for g in 0..kcg {
                for j in 0..NR {
                    for t in 0..KG {
                        let got = out[q * kcg * NR * KG + g * NR * KG + j * KG + t];
                        let (col, kk) = (q * NR + j, g * KG + t);
                        let expected =
                            if col < nc && kk < kc { w[(pc + kk) * n + jc + col] } else { 0 };
                        assert_eq!(got, expected, "panel {q} group {g} col {j} t {t}");
                    }
                }
            }
        }
    }
}
