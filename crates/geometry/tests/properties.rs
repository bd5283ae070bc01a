//! Property-based tests for the geometry substrate.
//!
//! The triangle-inequality search is the paper's Section 3 contribution; its
//! single most important invariant is that pruning never changes the result
//! relative to the brute-force baseline.

use idb_geometry::metric::{sq_dist, sq_dist_bounded};
use idb_geometry::{dist, NearestSeeds, Parallelism, SearchStats, SeedSearch, NO_HINT};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

fn point(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, dim)
}

fn points(dim: usize, max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(point(dim), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruned nearest-seed search returns the same minimum distance as the
    /// brute-force scan, for any seed set, query and hint.
    #[test]
    fn pruned_search_equals_brute_force(
        seeds in points(3, 40),
        q in point(3),
        hint_raw in 0usize..64,
    ) {
        let mut set = NearestSeeds::from_seeds(3, seeds.iter().map(|s| s.as_slice()));
        let hint = Some(hint_raw % set.len());
        let mut bs = SearchStats::new();
        let mut ps = SearchStats::new();
        let (bi, bd) = set.nearest_brute(&q, None, &mut bs).unwrap();
        let (pi, pd) = set.nearest_pruned(&q, None, hint, &mut ps).unwrap();
        prop_assert_eq!(bi, pi);
        prop_assert_eq!(bd.to_bits(), pd.to_bits());
        // The returned index truly attains the minimum distance.
        prop_assert!((dist(&q, set.seed(pi)) - pd).abs() < 1e-12);
        // Work accounting: pruned + computed + partial covers all seeds.
        prop_assert_eq!(ps.total(), set.len() as u64);
    }

    /// Exclusion removes exactly the excluded seed from consideration.
    #[test]
    fn pruned_search_respects_exclusion(
        seeds in points(2, 30),
        q in point(2),
        ex_raw in 0usize..64,
    ) {
        let mut set = NearestSeeds::from_seeds(2, seeds.iter().map(|s| s.as_slice()));
        let ex = ex_raw % set.len();
        let mut bs = SearchStats::new();
        let mut ps = SearchStats::new();
        let brute = set.nearest_brute(&q, Some(ex), &mut bs);
        let pruned = set.nearest_pruned(&q, Some(ex), None, &mut ps);
        match (brute, pruned) {
            (None, None) => prop_assert_eq!(set.len(), 1),
            (Some((_, bd)), Some((pi, pd))) => {
                prop_assert!(pi != ex);
                prop_assert!((bd - pd).abs() < 1e-9);
            }
            _ => prop_assert!(false, "brute and pruned disagree on emptiness"),
        }
    }

    /// Replacing a seed keeps its neighbor row and its entry in every
    /// other row consistent with the actual seed coordinates.
    #[test]
    fn replace_keeps_neighbor_rows_consistent(
        seeds in points(2, 20),
        newseed in point(2),
        idx_raw in 0usize..64,
    ) {
        let mut set = NearestSeeds::from_seeds(2, seeds.iter().map(|s| s.as_slice()));
        let idx = idx_raw % set.len();
        set.replace(idx, &newseed);
        let (order, dists) = set.neighbor_row(idx);
        for (&j, &d) in order.iter().zip(dists.iter()) {
            let expect = dist(set.seed(idx), set.seed(j as usize));
            prop_assert!((d - expect).abs() < 1e-9);
        }
        for j in 0..set.len() {
            let k = set.neighbor_order(j).iter().position(|&x| x as usize == idx).unwrap();
            let expect = dist(set.seed(idx), set.seed(j));
            prop_assert!((set.neighbor_distances(j)[k] - expect).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whenever the true squared distance is within the bound, the
    /// early-exit kernel runs to completion and returns the bit-identical
    /// value of the plain kernel; whenever it abandons, the true value
    /// really exceeds the bound.
    #[test]
    fn bounded_kernel_agrees_with_full_kernel(
        a in prop::collection::vec(-100.0f64..100.0, 1..8),
        b_raw in prop::collection::vec(-100.0f64..100.0, 1..8),
        factor in 0.0f64..2.0,
    ) {
        let n = a.len().min(b_raw.len());
        let (a, b) = (&a[..n], &b_raw[..n]);
        let full = sq_dist(a, b);
        let bound = full * factor;
        match sq_dist_bounded(a, b, bound) {
            Some(sq) => {
                prop_assert_eq!(sq.to_bits(), full.to_bits());
                prop_assert!(full <= bound || full == 0.0);
            }
            None => prop_assert!(full > bound),
        }
        // At or above the exact value the kernel always completes.
        prop_assert_eq!(sq_dist_bounded(a, b, full), Some(full));
        prop_assert_eq!(sq_dist_bounded(a, b, f64::INFINITY), Some(full));
    }

    /// All three engines return identical `(index, distance)` pairs —
    /// including under exclusion, warm-start hints, and degenerate
    /// duplicate-seed sets — and each accounts every eligible seed exactly
    /// once across computed/pruned/partial.
    #[test]
    fn all_engines_identical_with_full_accounting(
        seeds in points(3, 32),
        dup_raw in 0usize..64,
        q in point(3),
        hint_raw in 0usize..64,
        ex_raw in prop::option::of(0usize..64),
    ) {
        // Degenerate case: duplicate one seed so exact ties exist.
        let dup = seeds[dup_raw % seeds.len()].clone();
        let mut set = NearestSeeds::from_seeds(3, seeds.iter().chain([&dup]).map(|s| s.as_slice()));
        let s = set.len();
        let hint = Some(hint_raw % s);
        let ex = ex_raw.map(|e| e % s).filter(|_| s > 1);
        let eligible = (s - usize::from(ex.is_some())) as u64;

        let mut bs = SearchStats::new();
        let (bi, bd) = set.nearest_brute(&q, ex, &mut bs).unwrap();
        prop_assert_eq!(bs.total(), eligible);
        for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            for h in [None, hint] {
                let mut es = SearchStats::new();
                let (ei, ed) = set.nearest(engine, &q, ex, h, &mut es).unwrap();
                prop_assert_eq!(bi, ei, "engine {:?} hint {:?}", engine, h);
                prop_assert_eq!(bd.to_bits(), ed.to_bits(), "engine {:?} hint {:?}", engine, h);
                prop_assert_eq!(es.total(), eligible, "engine {:?} hint {:?}", engine, h);
            }
        }
    }
}

/// A lattice nearest-seed case: seeds (with duplicates appended),
/// queries, one hint per query ([`NO_HINT`] for none) and one exclusion
/// or none.
#[derive(Debug, Clone)]
struct LatticeCase {
    dim: usize,
    seeds: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    hints: Vec<u32>,
    exclude: Option<usize>,
}

/// Lattice cases in d = 1–10: every coordinate `k · step` with `|k| ≤ 4`
/// and a step of 1 or 0.5 — an integer or a half-integer grid, where exact
/// distance ties abound — with up to five seeds duplicated.
struct LatticeCases;

impl Strategy for LatticeCases {
    type Value = LatticeCase;

    fn generate(&self, rng: &mut StdRng) -> LatticeCase {
        let dim = rng.gen_range(1..=10);
        let step = if rng.gen_bool(0.5) { 1.0 } else { 0.5 };
        let point = |rng: &mut StdRng| -> Vec<f64> {
            (0..dim)
                .map(|_| f64::from(rng.gen_range(-4i32..=4)) * step)
                .collect()
        };
        let (s0, k) = (rng.gen_range(1..40), rng.gen_range(1..12));
        let mut seeds: Vec<Vec<f64>> = (0..s0).map(|_| point(rng)).collect();
        let queries: Vec<Vec<f64>> = (0..k).map(|_| point(rng)).collect();
        for _ in 0..rng.gen_range(0..6) {
            let k = rng.gen_range(0..seeds.len());
            seeds.push(seeds[k].clone());
        }
        let s = seeds.len();
        let hints = queries
            .iter()
            .map(|_| {
                if rng.gen_bool(0.25) {
                    NO_HINT
                } else {
                    rng.gen_range(0..s as u32)
                }
            })
            .collect();
        let exclude = (s > 1 && rng.gen_bool(0.5)).then(|| rng.gen_range(0..s));
        LatticeCase {
            dim,
            seeds,
            queries,
            hints,
            exclude,
        }
    }
}

/// `(index, distance bits)` of a search result.
fn exact(r: Option<(usize, f64)>) -> Option<(usize, u64)> {
    r.map(|(i, d)| (i, d.to_bits()))
}

proptest! {
    // Without the prune tests' rounding margin, case 455 fails.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On integer and half-integer lattices in d = 1–10 — exact distance
    /// ties everywhere, duplicate seeds included — the pruned and k-d
    /// searches, one query at a time with and without a hint and in
    /// serial and threaded batches, return brute force's index and
    /// distance bits under an exclusion or none.
    #[test]
    fn lattice_ties_resolve_like_brute_force(case in LatticeCases) {
        let mut set = NearestSeeds::from_seeds(case.dim, case.seeds.iter().map(Vec::as_slice));
        let ex = case.exclude;
        let mut want = Vec::new();
        for (q, &h) in case.queries.iter().zip(&case.hints) {
            let brute = set.nearest_brute(q, ex, &mut SearchStats::new());
            prop_assert!(brute.is_some());
            let hint = (h != NO_HINT).then_some(h as usize);
            for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
                for hint in [None, hint] {
                    let got = set.nearest(engine, q, ex, hint, &mut SearchStats::new());
                    prop_assert_eq!(exact(got), exact(brute), "{:?} hint {:?} query {:?}", engine, hint, q);
                }
            }
            want.push(brute.map(|(i, d)| (i as u32, d.to_bits())).unwrap());
        }
        let flat: Vec<f64> = case.queries.concat();
        for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            for par in [Parallelism::Serial, Parallelism::Threads(2)] {
                let got = set.nearest_batch(&flat, ex, engine, Some(&case.hints), par, &mut SearchStats::new());
                let got: Vec<(u32, u64)> = got.iter().map(|&(i, d)| (i, d.to_bits())).collect();
                prop_assert_eq!(&got, &want, "{:?} batch {:?}", engine, par);
            }
        }
    }
}

/// The exact tie that pruned by one ulp before the prune tests carried a
/// rounding margin: from seed 11, `w − d₀ = √32 − √18` rounds above
/// `best = √2` although the two are equal, which pruned seed 0, which ties
/// seed 22 at `√2` and has the lower index.
#[test]
fn pruned_keeps_an_exact_tie_that_rounding_would_prune() {
    let grid = (-1..=3).flat_map(|x| (-1..=3).flat_map(move |y| (-1..=3).map(move |z| [x, y, z])));
    let mut seeds: Vec<Vec<f64>> = grid.take(28).map(|p| p.map(f64::from).to_vec()).collect();
    seeds[0] = vec![2.0, 3.0, -1.0];
    seeds[11] = vec![2.0, -1.0, 3.0];
    seeds[22] = vec![3.0, 1.0, 0.0];
    let mut set = NearestSeeds::from_seeds(3, seeds.iter().map(Vec::as_slice));
    let q = [2.0, 2.0, 0.0];
    let brute = set.nearest_brute(&q, None, &mut SearchStats::new());
    assert_eq!(exact(brute), Some((0, 2f64.sqrt().to_bits())));
    let pruned = set.nearest_pruned(&q, None, Some(11), &mut SearchStats::new());
    assert_eq!(exact(pruned), exact(brute));
}
