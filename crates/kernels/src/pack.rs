//! Cache-blocked packed GEMM microkernels.
//!
//! The BLIS-style formulation of the contribution products: the iteration
//! space is tiled `NC × KC × MC` (columns, depth, rows); within a tile the
//! `B` operand is packed into `NR`-wide column slabs and the `A` operand
//! into `MR`-tall row slabs, so the innermost register microkernel streams
//! both packs contiguously and keeps an `MR × NR` accumulator block entirely
//! in registers for the whole `KC` depth. Compared with the seed's axpy
//! formulation (which re-reads the `C` column every fourth `k` step and the
//! whole `A` panel once per `C` column), the packed loop touches each `C`
//! element once per `KC` slice and each packed element once per tile —
//! `(MR + NR) / (MR · NR)` memory operations per multiply-add instead of
//! `~6/4`.
//!
//! Everything is safe Rust: packing pads partial slabs with zeros (a zero
//! contribution is exact), and the write-back only stores the valid
//! `mr × nr` corner, so padding rows of `C` buffers and the strictly upper
//! triangle of diagonal blocks are never touched.
//!
//! The blocking constants are per-`Scalar` (chosen by element size so an
//! `MC × KC` A-pack sits in L2 and a `KC × NC` B-pack in outer cache) and
//! can be overridden **once** per process by a runtime probe
//! ([`configure_blocking`], driven by `pastix-machine`'s
//! `probe_blocking`).

use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Rows of the register microkernel's accumulator block.
pub const MR: usize = 8;
/// Columns of the register microkernel's accumulator block.
pub const NR: usize = 4;

/// Cache-blocking constants of the packed GEMM path: row tile `mc`
/// (A-pack height), depth tile `kc` (pack depth), column tile `nc`
/// (B-pack width). `mc` is kept a multiple of [`MR`] and `nc` of [`NR`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Row-tile height: one A-pack is `mc × kc` scalars (targets L2).
    pub mc: usize,
    /// Depth tile shared by both packs.
    pub kc: usize,
    /// Column-tile width: one B-pack is `kc × nc` scalars (targets L3).
    pub nc: usize,
}

impl BlockSizes {
    /// Rounds the tile sizes to legal values (multiples of the register
    /// block, nothing zero).
    pub fn sanitized(self) -> Self {
        let up = |x: usize, q: usize| x.max(q).div_ceil(q) * q;
        Self {
            mc: up(self.mc, MR),
            kc: self.kc.max(1),
            nc: up(self.nc, NR),
        }
    }

    /// Default blocking for a scalar of `elem_bytes` bytes: A-pack ≈ 224 KB
    /// (half a typical L2), B-pack a few MB.
    pub fn default_for_elem_size(elem_bytes: usize) -> Self {
        match elem_bytes {
            0..=8 => Self {
                mc: 128,
                kc: 224,
                nc: 2048,
            },
            9..=16 => Self {
                mc: 64,
                kc: 128,
                nc: 1024,
            },
            _ => Self {
                mc: 32,
                kc: 64,
                nc: 512,
            },
        }
    }
}

// One configurable slot per scalar width (generic statics do not exist in
// Rust; the kernels are generic but the cache hierarchy only cares about
// bytes). `OnceLock` makes the runtime calibration one-shot and lock-free
// after initialization.
static BLOCK_8: OnceLock<BlockSizes> = OnceLock::new();
static BLOCK_16: OnceLock<BlockSizes> = OnceLock::new();
static BLOCK_OTHER: OnceLock<BlockSizes> = OnceLock::new();

fn slot_for(elem_bytes: usize) -> &'static OnceLock<BlockSizes> {
    match elem_bytes {
        0..=8 => &BLOCK_8,
        9..=16 => &BLOCK_16,
        _ => &BLOCK_OTHER,
    }
}

/// Installs calibrated blocking constants for scalars of `elem_bytes`
/// bytes. One-shot per process and per width: returns `false` (and keeps
/// the existing value) if a configuration was already installed. Called by
/// `pastix_machine::probe_blocking`.
pub fn configure_blocking(elem_bytes: usize, bs: BlockSizes) -> bool {
    slot_for(elem_bytes).set(bs.sanitized()).is_ok()
}

/// The blocking constants the packed path uses for scalar `T`: the
/// calibrated value if [`configure_blocking`] ran, the per-width default
/// otherwise.
pub fn blocking_for<T: Scalar>() -> BlockSizes {
    let bytes = std::mem::size_of::<T>();
    slot_for(bytes)
        .get()
        .copied()
        .unwrap_or_else(|| BlockSizes::default_for_elem_size(bytes))
}

/// Packing + tile bookkeeping only pays off once the product is a few
/// thousand multiply-adds; below this the axpy reference wins.
const PACKED_MIN_MADDS: usize = 16 * 1024;

/// `true` when the dispatcher should take the packed path for an
/// `m × n × k` product: block shape is the only input.
#[inline]
pub(crate) fn use_packed(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= PACKED_MIN_MADDS
}

/// How `B` is read while packing: `Nt` takes `B` as `n × k` (the `A·Bᵀ`
/// kernels), `Nn` as `k × n` (the `A·B` kernel).
#[derive(Clone, Copy)]
enum BLayout {
    Nt,
    Nn,
}

/// Packs the `mcb × kcb` block of `A` starting at `(ic, pc)` into
/// `MR`-tall row slabs: slab `ir` holds columns `kk` back-to-back, each as
/// `MR` consecutive row entries, zero-padded past `mcb`.
fn pack_a<T: Scalar>(
    pa: &mut Vec<T>,
    a: &[T],
    lda: usize,
    ic: usize,
    pc: usize,
    mcb: usize,
    kcb: usize,
) {
    let slabs = mcb.div_ceil(MR);
    pa.clear();
    pa.resize(slabs * kcb * MR, T::zero());
    for ir in 0..slabs {
        let row0 = ic + ir * MR;
        let rows = MR.min(mcb - ir * MR);
        let dst_base = ir * kcb * MR;
        for kk in 0..kcb {
            let src = &a[row0 + (pc + kk) * lda..row0 + (pc + kk) * lda + rows];
            let dst = &mut pa[dst_base + kk * MR..dst_base + kk * MR + rows];
            dst.copy_from_slice(src);
            // rows..MR stay zero from the resize.
        }
    }
}

/// Packs the `kcb × ncb` block of `Bᵀ` (resp. `B`) starting at
/// `(pc, jc)` into `NR`-wide column slabs, zero-padded past `ncb`.
fn pack_b<T: Scalar>(
    pb: &mut Vec<T>,
    b: &[T],
    ldb: usize,
    layout: BLayout,
    jc: usize,
    pc: usize,
    ncb: usize,
    kcb: usize,
) {
    let slabs = ncb.div_ceil(NR);
    pb.clear();
    pb.resize(slabs * kcb * NR, T::zero());
    for jr in 0..slabs {
        let col0 = jc + jr * NR;
        let cols = NR.min(ncb - jr * NR);
        let dst_base = jr * kcb * NR;
        match layout {
            BLayout::Nt => {
                // B is n × k: element (column j of the product, depth kk)
                // lives at b[j + kk*ldb].
                for kk in 0..kcb {
                    let src = &b[col0 + (pc + kk) * ldb..col0 + (pc + kk) * ldb + cols];
                    pb[dst_base + kk * NR..dst_base + kk * NR + cols].copy_from_slice(src);
                }
            }
            BLayout::Nn => {
                // B is k × n: element (j, kk) lives at b[kk + j*ldb].
                for jj in 0..cols {
                    let src = &b[pc + (col0 + jj) * ldb..pc + (col0 + jj) * ldb + kcb];
                    for (kk, &v) in src.iter().enumerate() {
                        pb[dst_base + kk * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// The register microkernel: `acc[j][i] += Σ_kk pa[kk][i] · pb[kk][j]`
/// over one `MR`-slab of the A-pack and one `NR`-slab of the B-pack. The
/// fixed-size accumulator block stays in registers for the whole depth.
#[inline(always)]
fn microkernel<T: Scalar>(kcb: usize, pa: &[T], pb: &[T], acc: &mut [[T; MR]; NR]) {
    let pa = &pa[..kcb * MR];
    let pb = &pb[..kcb * NR];
    for kk in 0..kcb {
        let av: &[T; MR] = pa[kk * MR..kk * MR + MR].try_into().unwrap();
        let bv: &[T; NR] = pb[kk * NR..kk * NR + NR].try_into().unwrap();
        for jj in 0..NR {
            let s = bv[jj];
            let col = &mut acc[jj];
            for ii in 0..MR {
                col[ii] = av[ii].mul_add(s, col[ii]);
            }
        }
    }
}

/// Shared tiled driver of the packed kernels. `C(m×n) += α · A(m×k) · op(B)`
/// with `op` selected by `layout`.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_driver<T: Scalar>(
    bs: BlockSizes,
    layout: BLayout,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    let bs = bs.sanitized();
    let mut pa: Vec<T> = Vec::new();
    let mut pb: Vec<T> = Vec::new();
    let mut jc = 0;
    while jc < n {
        let ncb = bs.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = bs.kc.min(k - pc);
            pack_b(&mut pb, b, ldb, layout, jc, pc, ncb, kcb);
            let mut ic = 0;
            while ic < m {
                let mcb = bs.mc.min(m - ic);
                pack_a(&mut pa, a, lda, ic, pc, mcb, kcb);
                // Macro kernel over the packed tile.
                let jslabs = ncb.div_ceil(NR);
                let islabs = mcb.div_ceil(MR);
                for jr in 0..jslabs {
                    let nr_cur = NR.min(ncb - jr * NR);
                    let pb_slab = &pb[jr * kcb * NR..(jr + 1) * kcb * NR];
                    for ir in 0..islabs {
                        let mr_cur = MR.min(mcb - ir * MR);
                        let pa_slab = &pa[ir * kcb * MR..(ir + 1) * kcb * MR];
                        let mut acc = [[T::zero(); MR]; NR];
                        microkernel(kcb, pa_slab, pb_slab, &mut acc);
                        // Write back the valid corner only: padding rows of
                        // C and columns past n are never touched.
                        let row0 = ic + ir * MR;
                        let col0 = jc + jr * NR;
                        for jj in 0..nr_cur {
                            let cj = &mut c[row0 + (col0 + jj) * ldc
                                ..row0 + (col0 + jj) * ldc + mr_cur];
                            let accj = &acc[jj];
                            for (ii, cv) in cj.iter_mut().enumerate() {
                                *cv += alpha * accj[ii];
                            }
                        }
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Packed `C ← C + α · A · Bᵀ` with explicit blocking constants (the probe
/// times candidate constants through this entry point).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_packed_with<T: Scalar>(
    bs: BlockSizes,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(lda >= m && ldc >= m, "leading dimensions too small");
    assert!(ldb >= n, "B leading dimension too small");
    assert!(a.len() >= lda * (k - 1) + m, "A buffer too small");
    assert!(b.len() >= ldb * (k - 1) + n, "B buffer too small");
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");
    gemm_packed_driver(bs, BLayout::Nt, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Packed `C ← C + α · A · Bᵀ` under the per-scalar blocking constants.
/// Same contract as [`crate::gemm::gemm_nt_acc`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_packed<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_nt_acc_packed_with(blocking_for::<T>(), m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Packed `C ← C + α · A · B` under the per-scalar blocking constants.
/// Same contract as [`crate::gemm::gemm_nn_acc`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_acc_packed<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(lda >= m && ldc >= m, "leading dimensions too small");
    assert!(ldb >= k, "B leading dimension too small");
    assert!(a.len() >= lda * (k - 1) + m, "A buffer too small");
    assert!(b.len() >= ldb * (n - 1) + k, "B buffer too small");
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");
    gemm_packed_driver(
        blocking_for::<T>(),
        BLayout::Nn,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
    );
}

/// Packed lower-triangle-only `C ← C + α · A · Bᵀ` for square updates on a
/// diagonal block: tiles the columns, runs the small triangular corner of
/// each tile with the scalar loop (so the strictly upper triangle is never
/// touched) and the rectangle below it through the packed kernel. Same
/// contract as [`crate::gemm::gemm_nt_acc_lower`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_lower_packed<T: Scalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if n == 0 || k == 0 {
        return;
    }
    assert!(lda >= n && ldc >= n, "leading dimensions too small");
    assert!(ldb >= n, "B leading dimension too small");
    // Tile width: wide enough that the rectangles below the diagonal
    // dominate, small enough that the scalar triangles stay cheap.
    const TB: usize = 32;
    let mut j0 = 0;
    while j0 < n {
        let w = TB.min(n - j0);
        // Triangular corner rows/cols j0..j0+w: scalar lower loop.
        for j in j0..j0 + w {
            let rows = j0 + w - j;
            let cj = &mut c[j * ldc + j..j * ldc + j + rows];
            for kk in 0..k {
                let s = alpha * b[j + kk * ldb];
                let ak = &a[kk * lda + j..kk * lda + j + rows];
                for (cv, &av) in cj.iter_mut().zip(ak) {
                    *cv += av * s;
                }
            }
        }
        // Rectangle rows j0+w..n of columns j0..j0+w: packed kernel.
        let mrest = n - j0 - w;
        if mrest > 0 {
            gemm_nt_acc_packed(
                mrest,
                w,
                k,
                alpha,
                &a[j0 + w..],
                lda,
                &b[j0..],
                ldb,
                &mut c[(j0 + w) + j0 * ldc..],
                ldc,
            );
        }
        j0 += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_rounds_to_register_block() {
        let bs = BlockSizes {
            mc: 1,
            kc: 0,
            nc: 5,
        }
        .sanitized();
        assert_eq!(bs.mc % MR, 0);
        assert_eq!(bs.nc % NR, 0);
        assert!(bs.kc >= 1);
    }

    #[test]
    fn defaults_are_per_width() {
        let d8 = BlockSizes::default_for_elem_size(8);
        let d16 = BlockSizes::default_for_elem_size(16);
        assert!(d16.mc * 16 <= d8.mc * 16, "wider scalars get smaller tiles");
        assert!(d16.kc < d8.kc);
    }

    #[test]
    fn packed_matches_reference_odd_shapes() {
        // Shapes straddling every register/tile boundary, tiny blocking so
        // all loops iterate more than once.
        let bs = BlockSizes {
            mc: 16,
            kc: 8,
            nc: 8,
        };
        for (m, n, k) in [(1, 1, 1), (7, 3, 5), (8, 4, 8), (9, 5, 9), (23, 11, 17), (40, 13, 26)] {
            let a: Vec<f64> = (0..m * k).map(|i| (i % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..n * k).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
            let mut c1: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.1).collect();
            let mut c2 = c1.clone();
            gemm_nt_acc_packed_with(bs, m, n, k, -1.5, &a, m, &b, n, &mut c1, m);
            crate::gemm::gemm_nt_acc_ref(m, n, k, -1.5, &a, m, &b, n, &mut c2, m);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "({m},{n},{k}): {x} vs {y}");
            }
        }
    }
}
