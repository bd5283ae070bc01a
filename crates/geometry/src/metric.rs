//! Euclidean distance kernels.
//!
//! All coordinates in the workspace are `f64` and points of one dataset share
//! a fixed dimensionality, so the kernels take plain slices. The slice
//! lengths are checked with `debug_assert!` only: the callers (stores, seed
//! sets, trees) guarantee consistent dimensionality by construction, and the
//! kernels sit on the innermost loops of every algorithm in the workspace.
//!
//! # The canonical accumulation order
//!
//! Every distance in the workspace flows through the kernels in this module,
//! and they all share one **fixed, platform-independent accumulation order**
//! (DESIGN.md §15): lanes are consumed in blocks of four, each block feeding
//! four *independent* accumulators
//!
//! ```text
//! acc[j] += (a[4k + j] - b[4k + j])²      j ∈ {0, 1, 2, 3}
//! ```
//!
//! with the `d mod 4` remainder lanes feeding `acc[0..r]` in lane order, and
//! the final value produced by the deterministic tree reduction
//! `(acc0 + acc1) + (acc2 + acc3)`. The four accumulators carry independent
//! dependency chains, so the loop autovectorizes (and otherwise pipelines)
//! without `-ffast-math`-style reassociation — the compiler never has to
//! reorder floating-point additions because the source order *is* the fast
//! order. The result is therefore bit-identical across optimization levels
//! and `target-cpu` flags (ci.sh proves this with a guarded
//! `-C target-cpu=native` test pass), which is what keeps engines ×
//! parallelism × shards bit-identical to each other.
//!
//! For `d ≤ 3` the tree reduction degenerates to the plain left-to-right sum
//! (adding `+0.0` is exact), so low-dimensional values match the historical
//! scalar kernel bit for bit; for `d ≥ 4` the values differ in rounding from
//! the pre-PR-8 scalar kernel, which is why the differential suites were
//! re-baselined exactly once when this kernel became canonical (see the
//! re-baseline policy in DESIGN.md §15).
//!
//! # The early-exit kernel
//!
//! [`sq_dist_bounded`] accumulates in the same order and compares the
//! running sum with its bound once per 16 lanes, plus once at the end.
//! Because partial sums of non-negative terms never decrease, its `None`
//! holds exactly when `sq_dist > bound`: the check cadence moves only
//! wall-clock time, never a result or a counted evaluation.
//!
//! The [`scalar`] submodule keeps the historical sequential kernels as an
//! explicit baseline for benchmarks ([`kernel_report`]) and as an independent
//! implementation for the property suite to fuzz against.
//!
//! [`kernel_report`]: ../../idb_bench/index.html

/// Squared Euclidean distance between two points, in the canonical 4-lane
/// accumulation order.
///
/// Preferred over [`dist`] wherever only comparisons are needed (k-d tree
/// descent, compactness accumulation) because it avoids the square root.
///
/// # Examples
/// ```
/// use idb_geometry::metric::sq_dist;
/// assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
/// ```
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    for (k, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let d = x - y;
        match k {
            0 => acc0 += d * d,
            1 => acc1 += d * d,
            _ => acc2 += d * d,
        }
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// Euclidean distance between two points.
///
/// # Examples
/// ```
/// use idb_geometry::metric::dist;
/// assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Blocks of four lanes accumulated between two bound checks of
/// [`sq_dist_bounded`]: one compare per 16 lanes.
const CHECK_BLOCKS: u32 = 4;

/// Early-exit squared Euclidean distance: returns `None` when
/// `sq_dist(a, b) > bound`, otherwise `Some(sq_dist(a, b))`, abandoning the
/// accumulation at the first check that proves the excess.
///
/// The lanes are accumulated in exactly the [`sq_dist`] order. The running
/// sum (the tree reduction of the four accumulators) is compared with
/// `bound` once per 16 lanes — after every fourth 4-lane block — and the
/// total once at the end, so below 16 lanes the kernel is `sq_dist`
/// followed by that one compare. A check costs a reduction and an
/// unpredictable branch, and at small `d` it can save only a few lanes;
/// one per 16 lanes keeps early exit where it pays (`kernel_report`
/// times the kernel at d ∈ {2, 10, 64, 256, 768}).
///
/// The cadence cannot change the answer. The per-lane terms are
/// non-negative and IEEE-754 round-to-nearest addition of non-negative
/// terms is monotone non-decreasing, so for inputs without NaN every
/// intermediate tree reduction is `<=` the final one. A check fires only
/// when the total exceeds `bound`, and the final compare fires whenever
/// it does: `None` holds exactly when `sq_dist(a, b) > bound`, whichever
/// blocks are checked, and a `Some` is bit-identical to the unbounded
/// kernel. The engines' [`SearchStats`] counts therefore depend on the
/// bound alone, never on the cadence.
///
/// This is the innermost kernel of the nearest-seed engines: a candidate
/// seed that cannot beat the current best is rejected, which the caller
/// accounts as a *partial* evaluation in [`SearchStats`].
///
/// [`SearchStats`]: crate::stats::SearchStats
///
/// # Examples
/// ```
/// use idb_geometry::metric::{sq_dist, sq_dist_bounded};
/// let (a, b) = ([0.0, 0.0], [3.0, 4.0]);
/// assert_eq!(sq_dist_bounded(&a, &b, 25.0), Some(sq_dist(&a, &b)));
/// assert_eq!(sq_dist_bounded(&a, &b, 24.9), None);
/// ```
#[inline]
pub fn sq_dist_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut until_check = CHECK_BLOCKS;
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
        until_check -= 1;
        if until_check == 0 {
            if (acc0 + acc1) + (acc2 + acc3) > bound {
                return None;
            }
            until_check = CHECK_BLOCKS;
        }
    }
    for (k, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let d = x - y;
        match k {
            0 => acc0 += d * d,
            1 => acc1 += d * d,
            _ => acc2 += d * d,
        }
    }
    let total = (acc0 + acc1) + (acc2 + acc3);
    if total > bound {
        None
    } else {
        Some(total)
    }
}

/// Squared Euclidean norm of a vector (`|v|²`) in the canonical 4-lane
/// accumulation order, used when deriving a data bubble's extent from its
/// sufficient statistics.
#[inline]
pub fn sq_norm(v: &[f64]) -> f64 {
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut cv = v.chunks_exact(4);
    for xv in cv.by_ref() {
        acc0 += xv[0] * xv[0];
        acc1 += xv[1] * xv[1];
        acc2 += xv[2] * xv[2];
        acc3 += xv[3] * xv[3];
    }
    for (k, &x) in cv.remainder().iter().enumerate() {
        match k {
            0 => acc0 += x * x,
            1 => acc1 += x * x,
            _ => acc2 += x * x,
        }
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// The historical sequential kernels, kept as an explicit baseline.
///
/// These are the pre-PR-8 implementations: one accumulator, one
/// loop-carried dependency chain per value. They are **not** used by any
/// engine — the canonical kernels above are — but the benchmark binary
/// (`kernel_report`) measures against them so the speedup claim stays an
/// honest same-binary comparison, and the property suite uses them as a
/// structurally different implementation to cross-check against (exact
/// equality is only guaranteed for `d ≤ 3`; beyond that the comparison is
/// on relative error).
pub mod scalar {
    /// Sequential single-accumulator squared distance (the pre-PR-8 kernel).
    #[inline]
    #[must_use]
    pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
        let mut acc = 0.0;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let d = x - y;
            acc += d * d;
        }
        acc
    }

    /// Sequential per-lane early-exit squared distance (the pre-PR-8 kernel).
    #[inline]
    #[must_use]
    pub fn sq_dist_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
        let mut acc = 0.0;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let d = x - y;
            acc += d * d;
            if acc > bound {
                return None;
            }
        }
        Some(acc)
    }

    /// Sequential squared norm (the pre-PR-8 kernel).
    #[inline]
    #[must_use]
    pub fn sq_norm(v: &[f64]) -> f64 {
        v.iter().map(|&x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = [1.5, -2.5, 3.25];
        assert_eq!(sq_dist(&p, &p), 0.0);
        assert_eq!(dist(&p, &p), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [-1.0, 0.5, 9.0];
        assert_eq!(dist(&a, &b), dist(&b, &a));
    }

    #[test]
    fn one_dimensional_is_absolute_difference() {
        assert_eq!(dist(&[3.0], &[-4.0]), 7.0);
    }

    #[test]
    fn sq_norm_matches_sq_dist_from_origin() {
        let v = [2.0, -3.0, 6.0];
        assert_eq!(sq_norm(&v), sq_dist(&v, &[0.0, 0.0, 0.0]));
        assert_eq!(sq_norm(&v), 49.0);
    }

    #[test]
    fn empty_points_have_zero_distance() {
        assert_eq!(sq_dist(&[], &[]), 0.0);
    }

    #[test]
    fn low_dimensional_values_match_the_scalar_baseline_exactly() {
        // For d ≤ 3 the tree reduction adds only exact +0.0 terms, so the
        // canonical kernel is bit-identical to the historical scalar one.
        let a = [1.125, -2.75, 3.5];
        let b = [0.25, 4.0, -1.0];
        for d in 0..=3 {
            assert_eq!(sq_dist(&a[..d], &b[..d]), scalar::sq_dist(&a[..d], &b[..d]));
        }
    }

    #[test]
    fn bounded_agrees_with_full_kernel_under_the_bound() {
        let a = [1.0, -2.0, 3.5, 0.25, 9.0];
        let b = [0.5, 4.0, -1.0, 2.0, -3.25];
        let full = sq_dist(&a, &b);
        assert_eq!(sq_dist_bounded(&a, &b, full), Some(full));
        assert_eq!(sq_dist_bounded(&a, &b, full * 2.0), Some(full));
        assert_eq!(sq_dist_bounded(&a, &b, f64::INFINITY), Some(full));
    }

    #[test]
    fn bounded_abandons_above_the_bound() {
        let a = [0.0, 0.0, 0.0];
        let b = [10.0, 10.0, 10.0];
        assert_eq!(sq_dist_bounded(&a, &b, 50.0), None);
        // The exact boundary is inclusive: only *exceeding* aborts.
        assert_eq!(sq_dist_bounded(&a, &b, 300.0), Some(300.0));
    }

    #[test]
    fn bounded_checks_once_per_sixteen_lanes() {
        // The first 16 lanes alone exceed the bound: the check after the
        // fourth block fires and the NaN lanes past it are never read.
        let mut a = [10.0; 20];
        a[16..].fill(f64::NAN);
        let b = [0.0; 20];
        assert_eq!(sq_dist_bounded(&a, &b, 300.0), None);
        // Below 16 lanes nothing is checked before the total, so a NaN lane
        // reaches it even though the first block exceeds the bound.
        let mut c = [10.0; 8];
        c[7] = f64::NAN;
        assert!(sq_dist_bounded(&c, &b[..8], 300.0).is_some_and(f64::is_nan));
    }

    #[test]
    fn bounded_zero_bound_accepts_exact_duplicates() {
        let p = [2.0, 3.0];
        assert_eq!(sq_dist_bounded(&p, &p, 0.0), Some(0.0));
        assert_eq!(sq_dist_bounded(&p, &[2.0, 3.5], 0.0), None);
    }

    #[test]
    fn canonical_order_is_lane_interleaved() {
        // d = 8: acc0 gets lanes {0, 4}, acc1 {1, 5}, etc. Construct values
        // whose rounding detects the interleaved order: the sum of tiny and
        // huge magnitudes differs depending on association.
        let a: Vec<f64> = (0..8).map(|i| if i % 4 == 0 { 1e8 } else { 1.0 }).collect();
        let b = vec![0.0; 8];
        let expect = {
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
            for k in 0..2 {
                a0 += a[4 * k] * a[4 * k];
                a1 += a[4 * k + 1] * a[4 * k + 1];
                a2 += a[4 * k + 2] * a[4 * k + 2];
                a3 += a[4 * k + 3] * a[4 * k + 3];
            }
            (a0 + a1) + (a2 + a3)
        };
        assert_eq!(sq_dist(&a, &b), expect);
        assert_eq!(sq_norm(&a), expect);
        assert_eq!(sq_dist_bounded(&a, &b, f64::INFINITY), Some(expect));
    }
}
