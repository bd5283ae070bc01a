//! Property-based tests for the geometry substrate.
//!
//! The triangle-inequality search is the paper's Section 3 contribution; its
//! single most important invariant is that pruning never changes the result
//! relative to the brute-force baseline. The k-d tree's range/knn results are
//! likewise checked against exhaustive scans on random inputs.

use idb_geometry::metric::{sq_dist, sq_dist_bounded};
use idb_geometry::{dist, KdTree, NearestSeeds, SearchStats, SeedSearch};
use proptest::prelude::*;

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
        let set = NearestSeeds::from_seeds(3, seeds.iter().map(|s| s.as_slice()));
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
        let set = NearestSeeds::from_seeds(2, seeds.iter().map(|s| s.as_slice()));
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
        for (&j, &d) in set.neighbor_order(idx).iter().zip(set.neighbor_distances(idx)) {
            let expect = dist(set.seed(idx), set.seed(j as usize));
            prop_assert!((d - expect).abs() < 1e-9);
        }
        for j in 0..set.len() {
            let k = set.neighbor_order(j).iter().position(|&x| x as usize == idx).unwrap();
            let expect = dist(set.seed(idx), set.seed(j));
            prop_assert!((set.neighbor_distances(j)[k] - expect).abs() < 1e-9);
        }
    }

    /// k-d tree range query equals the brute-force filter.
    #[test]
    fn kdtree_range_equals_scan(
        pts in points(2, 120),
        q in point(2),
        eps in 0.0f64..120.0,
    ) {
        let tree = KdTree::build(2, pts.iter().enumerate().map(|(i, p)| (i as u64, p.as_slice())));
        let mut got: Vec<u64> = tree.range(&q, eps).into_iter().map(|(id, _)| id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| dist(p, &q) <= eps)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// k-d tree knn distances equal the k smallest brute-force distances.
    #[test]
    fn kdtree_knn_equals_scan(
        pts in points(3, 100),
        q in point(3),
        k in 1usize..20,
    ) {
        let tree = KdTree::build(3, pts.iter().enumerate().map(|(i, p)| (i as u64, p.as_slice())));
        let got = tree.knn(&q, k);
        let mut want: Vec<f64> = pts.iter().map(|p| dist(p, &q)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect_len = k.min(pts.len());
        prop_assert_eq!(got.len(), expect_len);
        for (i, (_, d)) in got.iter().enumerate() {
            prop_assert!((d - want[i]).abs() < 1e-9);
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
        let mut set = NearestSeeds::from_seeds(3, seeds.iter().map(|s| s.as_slice()));
        // Degenerate case: duplicate one seed so exact ties exist.
        let dup: Vec<f64> = set.seed(dup_raw % set.len()).to_vec();
        set.push(&dup);
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
