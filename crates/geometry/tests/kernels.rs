//! Property suite pinning the canonical 4-lane distance kernels.
//!
//! Every distance in the workspace flows through `metric::{sq_dist,
//! sq_dist_bounded, sq_norm}`, and their **fixed accumulation order** is
//! what keeps engines × parallelism × shards bit-identical to each other
//! (DESIGN.md §15). This suite pins that order with an independently
//! written four-accumulator reference, proves the early-exit kernel's
//! `None` is a certificate for `> bound` and, for finite inputs, exactly
//! that (at every bound to the ulp), checks non-finite propagation
//! against the reference, and fuzzes the kernels over random subslices of
//! a shared buffer (the SoA layouts hand the kernels interior slices, so
//! alignment must never matter).

use idb_geometry::metric::{scalar, sq_dist, sq_dist_bounded, sq_norm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent reference for the canonical accumulation order: lane `i`
/// feeds accumulator `i mod 4` (the remainder lanes of the kernels land on
/// `acc[0..r]`, which is the same mapping because a remainder lane's global
/// index is `4·blocks + k`), reduced as `(acc0 + acc1) + (acc2 + acc3)`.
fn ref_reduce(terms: impl Iterator<Item = f64>) -> f64 {
    let mut acc = [0.0f64; 4];
    for (i, t) in terms.enumerate() {
        acc[i % 4] += t;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

fn ref_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    ref_reduce(a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)))
}

fn ref_sq_norm(v: &[f64]) -> f64 {
    ref_reduce(v.iter().map(|&x| x * x))
}

/// The neighbouring doubles of a finite, non-negative `t`: one ulp below
/// and one above (`f64::next_down`/`next_up` need a newer toolchain than
/// the workspace's minimum). Below `+0.0` lies the negative subnormal.
fn ulp_neighbours(t: f64) -> [f64; 2] {
    debug_assert!(t.is_finite() && t >= 0.0);
    let bits = t.to_bits();
    let below = if bits == 0 {
        -f64::from_bits(1)
    } else {
        f64::from_bits(bits - 1)
    };
    [below, f64::from_bits(bits + 1)]
}

/// The canonical running sums of `a` and `b` after every 4-lane block:
/// the values the early-exit kernel may compare with its bound.
fn block_sums(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut acc = [0.0f64; 4];
    let mut sums = Vec::new();
    for (xa, xb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        for j in 0..4 {
            acc[j] += (xa[j] - xb[j]) * (xa[j] - xb[j]);
        }
        sums.push((acc[0] + acc[1]) + (acc[2] + acc[3]));
    }
    sums
}

/// For finite inputs the early-exit kernel rejects exactly when the full
/// squared distance exceeds the bound, at every dimensionality up to 300
/// and at every bound that could sit on either side of a check: the total
/// and each block's running sum, each exactly and one ulp either side.
/// Both directions matter — the engines' partial/computed split (and so
/// every Fig. 10/11 count) rests on `None ⇔ sq_dist > bound`, which makes
/// the kernel's check cadence invisible to them.
#[test]
fn bounded_rejects_exactly_above_the_bound() {
    let mut rng = StdRng::seed_from_u64(0x0B0D);
    for d in 0..=300 {
        for pair in 0..8 {
            let scale = [1e-3, 1.0, 1e6][pair % 3];
            let a: Vec<f64> = (0..d).map(|_| rng.gen_range(-scale..scale)).collect();
            let mut b: Vec<f64> = (0..d).map(|_| rng.gen_range(-scale..scale)).collect();
            if pair == 7 {
                // Equal prefixes put zero blocks ahead of the first term.
                let k = rng.gen_range(0..=d);
                b[..k].copy_from_slice(&a[..k]);
            }
            let full = sq_dist(&a, &b);
            let mut bounds = vec![full, 0.0];
            bounds.extend(block_sums(&a, &b));
            for t in bounds.clone() {
                bounds.extend(ulp_neighbours(t));
            }
            for t in bounds {
                let got = sq_dist_bounded(&a, &b, t);
                assert_eq!(
                    got.is_none(),
                    full > t,
                    "d = {d}, bound {t:e}, full {full:e}"
                );
                if let Some(sq) = got {
                    assert_eq!(sq.to_bits(), full.to_bits(), "d = {d}, bound {t:e}");
                }
            }
        }
    }
}

fn coords(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The unrolled kernels equal the four-accumulator reference bit for
    /// bit at every dimensionality — including `d < 4` (no full block) and
    /// every `d mod 4` remainder shape.
    #[test]
    fn kernels_match_reference_bit_for_bit(
        a in coords(0..300),
        b_raw in coords(0..300),
    ) {
        let n = a.len().min(b_raw.len());
        let (a, b) = (&a[..n], &b_raw[..n]);
        prop_assert_eq!(sq_dist(a, b).to_bits(), ref_sq_dist(a, b).to_bits());
        prop_assert_eq!(sq_norm(a).to_bits(), ref_sq_norm(a).to_bits());
        prop_assert_eq!(
            sq_dist_bounded(a, b, f64::INFINITY).map(f64::to_bits),
            Some(ref_sq_dist(a, b).to_bits())
        );
    }

    /// A completed bounded run is bit-identical to the unbounded kernel; a
    /// `None` is a proof that the true squared distance exceeds the bound.
    #[test]
    fn bounded_none_proves_above_bound(
        a in coords(0..300),
        b_raw in coords(0..300),
        factor in 0.0f64..2.0,
    ) {
        let n = a.len().min(b_raw.len());
        let (a, b) = (&a[..n], &b_raw[..n]);
        let full = sq_dist(a, b);
        match sq_dist_bounded(a, b, full * factor) {
            Some(sq) => prop_assert_eq!(sq.to_bits(), full.to_bits()),
            None => prop_assert!(full > full * factor),
        }
        // The exact value is an inclusive bound: the kernel always
        // completes there, bit-identically.
        prop_assert_eq!(sq_dist_bounded(a, b, full), Some(full));
    }

    /// Planting a NaN or an infinity anywhere yields exactly what the
    /// reference yields — non-finite values flow through the lane
    /// accumulators without being masked, reordered or absorbed.
    #[test]
    fn non_finite_propagation_matches_reference(
        a in coords(1..64),
        b_raw in coords(1..64),
        at_raw in 0usize..64,
        poison_raw in 0usize..3,
    ) {
        let n = a.len().min(b_raw.len());
        let mut a = a[..n].to_vec();
        let b = &b_raw[..n];
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison_raw];
        a[at_raw % n] = poison;
        let got = sq_dist(&a, b);
        let want = ref_sq_dist(&a, b);
        prop_assert_eq!(got.to_bits(), want.to_bits());
        prop_assert!(!got.is_finite());
        prop_assert_eq!(sq_norm(&a).to_bits(), ref_sq_norm(&a).to_bits());
        // The bounded kernel completes with the reference bits (a NaN never
        // trips a `>` comparison) or abandons only on a genuine overflow of
        // the bound (a single ±∞ lane drives the total to +∞).
        match sq_dist_bounded(&a, b, 1e300) {
            Some(sq) => prop_assert_eq!(sq.to_bits(), want.to_bits()),
            None => prop_assert_eq!(want, f64::INFINITY),
        }
    }

    /// Random-stride fuzz: the kernels applied to arbitrary interior
    /// subslices of one flat buffer (the SoA block layout) agree with the
    /// reference on those exact subslices — results depend only on the
    /// lane values, never on where the slice starts.
    #[test]
    fn random_stride_subslices_match_reference(
        buf in coords(8..512),
        off_a_raw in 0usize..512,
        off_b_raw in 0usize..512,
        len_raw in 0usize..128,
    ) {
        let off_a = off_a_raw % buf.len();
        let off_b = off_b_raw % buf.len();
        let len = len_raw % (buf.len() - off_a.max(off_b)).max(1);
        let a = &buf[off_a..off_a + len];
        let b = &buf[off_b..off_b + len];
        prop_assert_eq!(sq_dist(a, b).to_bits(), ref_sq_dist(a, b).to_bits());
        prop_assert_eq!(sq_norm(a).to_bits(), ref_sq_norm(a).to_bits());
        let full = sq_dist(a, b);
        prop_assert_eq!(sq_dist_bounded(a, b, full), Some(full));
    }

    /// Cross-check against the structurally different historical scalar
    /// kernels: bit-identical for `d ≤ 3` (the tree reduction degenerates
    /// to the left-to-right sum), within tight relative error beyond.
    #[test]
    fn scalar_baseline_cross_check(
        a in coords(0..128),
        b_raw in coords(0..128),
    ) {
        let n = a.len().min(b_raw.len());
        let (a, b) = (&a[..n], &b_raw[..n]);
        let canon = sq_dist(a, b);
        let base = scalar::sq_dist(a, b);
        if n <= 3 {
            prop_assert_eq!(canon.to_bits(), base.to_bits());
        } else if base != 0.0 {
            prop_assert!(((canon - base) / base).abs() < 1e-12);
        } else {
            prop_assert_eq!(canon, 0.0);
        }
        // The scalar bounded kernel abandons on a per-lane rather than
        // per-block boundary, but a `None` from either is a true `> bound`
        // certificate against its own full kernel.
        let bound = base * 0.5;
        if scalar::sq_dist_bounded(a, b, bound).is_none() {
            prop_assert!(base > bound);
        }
        if sq_dist_bounded(a, b, bound).is_none() {
            prop_assert!(canon > bound);
        }
    }
}
