//! GEMM-style update kernels.
//!
//! The supernodal fan-in solver spends almost all of its flops in
//! `C ← C + α·A·Bᵀ` (BMOD / COMP1D contribution computation, α = −1 when
//! applied directly, +1 when accumulated into an aggregated update block)
//! and a little in `C ← C + α·A·B` (triangular solve sweeps). Both kernels
//! operate on column-major panels with explicit leading dimensions.
//!
//! Two implementations live behind each public entry point:
//!
//! * a register-blocked **axpy reference** (the seed kernel): each column of
//!   `C` is written once per four `k` steps; simple, exact, and fastest for
//!   small tiles;
//! * the **cache-blocked packed path** of [`crate::pack`]: `MC×KC×NC`
//!   tiling with packed operand panels and an `MR×NR` register microkernel,
//!   which the dispatcher selects by block shape alone, for products large
//!   enough to amortize the packing.
//!
//! No `unsafe` is needed anywhere.

use crate::pack;
use crate::scalar::Scalar;

/// `C ← C + α · A · Bᵀ` where `A` is `m×k` (lda ≥ m), `B` is `n×k`
/// (ldb ≥ n) and `C` is `m×n` (ldc ≥ m), all column-major.
///
/// This is the workhorse of the numerical factorization: the contribution of
/// column block `k` to block `(i,j)` is `L_ik · F_jᵀ` (paper, Fig. 1 lines
/// 7 and 15).
pub fn gemm_nt_acc<T: Scalar>(
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
    if pack::use_packed(m, n, k) {
        pack::gemm_nt_acc_packed(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_nt_acc_ref(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The seed axpy formulation of [`gemm_nt_acc`]: the reference
/// implementation every packed kernel is property-tested against, and the
/// "before" side of `bench_hotpath`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_ref<T: Scalar>(
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

    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        let mut kk = 0;
        // Four-way unrolled axpy accumulation into column j of C.
        while kk + 4 <= k {
            let s0 = alpha * b[j + kk * ldb];
            let s1 = alpha * b[j + (kk + 1) * ldb];
            let s2 = alpha * b[j + (kk + 2) * ldb];
            let s3 = alpha * b[j + (kk + 3) * ldb];
            let a0 = &a[kk * lda..kk * lda + m];
            let a1 = &a[(kk + 1) * lda..(kk + 1) * lda + m];
            let a2 = &a[(kk + 2) * lda..(kk + 2) * lda + m];
            let a3 = &a[(kk + 3) * lda..(kk + 3) * lda + m];
            for (i, cv) in cj.iter_mut().enumerate() {
                *cv += a0[i] * s0 + a1[i] * s1 + a2[i] * s2 + a3[i] * s3;
            }
            kk += 4;
        }
        while kk < k {
            let s = alpha * b[j + kk * ldb];
            let ak = &a[kk * lda..kk * lda + m];
            for (cv, &av) in cj.iter_mut().zip(ak) {
                *cv += av * s;
            }
            kk += 1;
        }
    }
}

/// `C ← C + α · A · B` where `A` is `m×k` (lda ≥ m), `B` is `k×n`
/// (ldb ≥ k) and `C` is `m×n` (ldc ≥ m), all column-major.
pub fn gemm_nn_acc<T: Scalar>(
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
    if pack::use_packed(m, n, k) {
        pack::gemm_nn_acc_packed(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_nn_acc_ref(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The seed axpy formulation of [`gemm_nn_acc`] (reference path).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_acc_ref<T: Scalar>(
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

    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        let bj = &b[j * ldb..j * ldb + k];
        let mut kk = 0;
        while kk + 4 <= k {
            let s0 = alpha * bj[kk];
            let s1 = alpha * bj[kk + 1];
            let s2 = alpha * bj[kk + 2];
            let s3 = alpha * bj[kk + 3];
            let a0 = &a[kk * lda..kk * lda + m];
            let a1 = &a[(kk + 1) * lda..(kk + 1) * lda + m];
            let a2 = &a[(kk + 2) * lda..(kk + 2) * lda + m];
            let a3 = &a[(kk + 3) * lda..(kk + 3) * lda + m];
            for (i, cv) in cj.iter_mut().enumerate() {
                *cv += a0[i] * s0 + a1[i] * s1 + a2[i] * s2 + a3[i] * s3;
            }
            kk += 4;
        }
        while kk < k {
            let s = alpha * bj[kk];
            let ak = &a[kk * lda..kk * lda + m];
            for (cv, &av) in cj.iter_mut().zip(ak) {
                *cv += av * s;
            }
            kk += 1;
        }
    }
}

/// Lower-triangle-only variant of [`gemm_nt_acc`] for square updates landing
/// on a diagonal block: only entries with `row ≥ col` of the `n×n` result
/// are touched (the strictly upper triangle of a diagonal block is never
/// stored by the solver).
pub fn gemm_nt_acc_lower<T: Scalar>(
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
    // Roughly half the full product's multiply-adds land in the lower
    // triangle.
    if pack::use_packed(n, n.div_ceil(2), k) {
        pack::gemm_nt_acc_lower_packed(n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_nt_acc_lower_ref(n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The seed axpy formulation of [`gemm_nt_acc_lower`] (reference path).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_lower_ref<T: Scalar>(
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
    for j in 0..n {
        let m = n - j; // rows j..n of column j
        let cj = &mut c[j * ldc + j..j * ldc + n];
        for kk in 0..k {
            let s = alpha * b[j + kk * ldb];
            let ak = &a[kk * lda + j..kk * lda + j + m];
            for (cv, &av) in cj.iter_mut().zip(ak) {
                *cv += av * s;
            }
        }
    }
}

/// `C ← C + α · Aᵀ · B` where `A` is `k×m` (lda ≥ k), `B` is `k×n`
/// (ldb ≥ k) and `C` is `m×n` (ldc ≥ m), all column-major.
///
/// The backward triangular sweep of a multi-RHS panel solve is exactly this
/// shape: the partial `L_bᵀ · X_s` reduces the shared `k` dimension down
/// contiguous columns of both operands, so the inner loop is a pair of
/// unit-stride dot products with no transposed pack needed.
pub fn gemm_tn_acc<T: Scalar>(
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
    assert!(lda >= k && ldb >= k, "operand leading dimensions too small");
    assert!(ldc >= m, "C leading dimension too small");
    assert!(a.len() >= lda * (m - 1) + k, "A buffer too small");
    assert!(b.len() >= ldb * (n - 1) + k, "B buffer too small");
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");
    for j in 0..n {
        let bj = &b[j * ldb..j * ldb + k];
        let cj = &mut c[j * ldc..j * ldc + m];
        for (i, cv) in cj.iter_mut().enumerate() {
            let ai = &a[i * lda..i * lda + k];
            let mut acc = T::zero();
            for (&av, &bv) in ai.iter().zip(bj) {
                acc += av * bv;
            }
            *cv += alpha * acc;
        }
    }
}

/// Flop count of a `gemm_nt`/`gemm_nn` call (`2·m·n·k`), used by the cost
/// model and the Gflop/s reporting.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMat;

    fn naive_nt(a: &DenseMat<f64>, b: &DenseMat<f64>, alpha: f64) -> DenseMat<f64> {
        let bt = b.transposed();
        let mut c = a.matmul(&bt);
        for v in c.as_mut_slice() {
            *v *= alpha;
        }
        c
    }

    #[test]
    fn gemm_nt_matches_naive() {
        for (m, n, k) in [(1, 1, 1), (3, 2, 5), (8, 8, 8), (7, 5, 9), (16, 3, 1)] {
            let a = DenseMat::from_fn(m, k, |i, j| (i * 31 + j * 7 + 1) as f64 * 0.25);
            let b = DenseMat::from_fn(n, k, |i, j| (i as f64) - 0.5 * (j as f64));
            let mut c = DenseMat::from_fn(m, n, |i, j| (i + j) as f64);
            let expect = {
                let mut e = c.clone();
                let upd = naive_nt(&a, &b, -1.0);
                for j in 0..n {
                    for i in 0..m {
                        e[(i, j)] += upd[(i, j)];
                    }
                }
                e
            };
            gemm_nt_acc(m, n, k, -1.0, a.as_slice(), m, b.as_slice(), n, c.as_mut_slice(), m);
            assert!(c.max_diff(&expect) < 1e-12, "mismatch at ({m},{n},{k})");
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        for (m, n, k) in [(4, 4, 4), (5, 3, 7), (2, 9, 6)] {
            let a = DenseMat::from_fn(m, k, |i, j| ((i + 1) * (j + 2)) as f64);
            let b = DenseMat::from_fn(k, n, |i, j| (i as f64 * 0.5) - j as f64);
            let mut c = DenseMat::zeros(m, n);
            gemm_nn_acc(m, n, k, 2.0, a.as_slice(), m, b.as_slice(), k, c.as_mut_slice(), m);
            let mut expect = a.matmul(&b);
            for v in expect.as_mut_slice() {
                *v *= 2.0;
            }
            assert!(c.max_diff(&expect) < 1e-12);
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        for (m, n, k) in [(1, 1, 1), (3, 2, 5), (6, 4, 8), (5, 7, 3)] {
            let a = DenseMat::from_fn(k, m, |i, j| (i * 13 + j * 5 + 1) as f64 * 0.125);
            let b = DenseMat::from_fn(k, n, |i, j| (i as f64) * 0.5 - (j as f64));
            let mut c = DenseMat::from_fn(m, n, |i, j| (i * n + j) as f64);
            let expect = {
                let mut e = c.clone();
                for j in 0..n {
                    for i in 0..m {
                        let mut acc = 0.0;
                        for kk in 0..k {
                            acc += a[(kk, i)] * b[(kk, j)];
                        }
                        e[(i, j)] -= 2.0 * acc;
                    }
                }
                e
            };
            gemm_tn_acc(m, n, k, -2.0, a.as_slice(), k, b.as_slice(), k, c.as_mut_slice(), m);
            assert!(c.max_diff(&expect) < 1e-12, "mismatch at ({m},{n},{k})");
        }
    }

    #[test]
    fn gemm_with_leading_dimension_gap() {
        // Place a 2x2 problem inside larger buffers to exercise lda > m.
        let (m, n, k) = (2, 2, 3);
        let lda = 5;
        let ldb = 4;
        let ldc = 6;
        let mut a = vec![0.0; lda * k];
        let mut b = vec![0.0; ldb * k];
        let mut c = vec![0.0; ldc * n];
        for kk in 0..k {
            for i in 0..m {
                a[i + kk * lda] = (i + kk) as f64;
            }
            for j in 0..n {
                b[j + kk * ldb] = (j * 2 + kk) as f64;
            }
        }
        gemm_nt_acc(m, n, k, 1.0, &a, lda, &b, ldb, &mut c, ldc);
        // c(i,j) = sum_kk (i+kk)(2j+kk)
        for j in 0..n {
            for i in 0..m {
                let want: f64 = (0..k).map(|kk| ((i + kk) * (2 * j + kk)) as f64).sum();
                assert_eq!(c[i + j * ldc], want);
            }
        }
        // Padding untouched.
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn lower_variant_matches_full_on_lower_triangle() {
        let n = 6;
        let k = 5;
        let a = DenseMat::from_fn(n, k, |i, j| (i * 3 + j) as f64 * 0.1);
        let b = DenseMat::from_fn(n, k, |i, j| 1.0 + (i ^ j) as f64);
        let mut full = DenseMat::zeros(n, n);
        let mut low = DenseMat::zeros(n, n);
        gemm_nt_acc(n, n, k, -1.0, a.as_slice(), n, b.as_slice(), n, full.as_mut_slice(), n);
        gemm_nt_acc_lower(n, k, -1.0, a.as_slice(), n, b.as_slice(), n, low.as_mut_slice(), n);
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    assert!((low[(i, j)] - full[(i, j)]).abs() < 1e-13);
                } else {
                    assert_eq!(low[(i, j)], 0.0, "upper triangle must stay untouched");
                }
            }
        }
    }

    #[test]
    fn zero_sized_noop() {
        let mut c = [1.0f64; 4];
        gemm_nt_acc(0, 2, 2, 1.0, &[], 1, &[1.0, 1.0, 1.0, 1.0], 2, &mut c, 1);
        gemm_nn_acc(2, 0, 2, 1.0, &[1.0; 4], 2, &[1.0; 4], 2, &mut c, 2);
        gemm_nt_acc(2, 2, 0, 1.0, &[], 2, &[], 2, &mut c, 2);
        assert_eq!(c, [1.0; 4]);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }
}
