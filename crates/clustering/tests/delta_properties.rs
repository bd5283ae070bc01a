//! Property-based tests for the incremental clustering primitives in
//! isolation: the [`PairCache`] distance matrix and the [`TreeCache`]
//! component-reuse extraction.
//!
//! Two locality/soundness contracts:
//!
//! * random bubble-set edits (stat changes, pushes, swap-removes)
//!   change the refreshed distance matrix **only** inside the predicted
//!   dirty neighborhood (rows and columns of edited slots), and the
//!   matrix — hence the ordering fed from it — is bit-identical to a
//!   from-scratch computation;
//! * random reachability-plot edits leave [`cluster_tree_delta`]
//!   bit-identical to [`cluster_tree`], with the nesting invariants of
//!   the extracted hierarchy holding after every delta.

use idb_clustering::{
    bubble_distance, cluster_tree, cluster_tree_delta, optics_bubbles_with, optics_from_matrix,
    ClusterNode, ExtractParams, PairCache, ReachabilityPlot, TreeCache,
};
use idb_core::DataSummary;
use idb_geometry::Parallelism;
use proptest::prelude::*;

/// A minimal summary for matrix-level tests: a weighted ball.
#[derive(Debug, Clone)]
struct Orb {
    at: Vec<f64>,
    count: u64,
    radius: f64,
}

impl DataSummary for Orb {
    fn dim(&self) -> usize {
        self.at.len()
    }
    fn n(&self) -> u64 {
        self.count
    }
    fn rep(&self) -> Vec<f64> {
        self.at.clone()
    }
    fn extent(&self) -> f64 {
        self.radius
    }
    fn nn_dist(&self, k: usize) -> f64 {
        // Distinct per-k values so orderings exercise real variation.
        self.radius * (k as f64).sqrt() / (self.count as f64).max(1.0).sqrt()
    }
}

/// Raw generator output for one [`Orb`]: center, count, radius. The
/// offline proptest stub has no `prop_map`, so tuples are mapped into
/// `Orb`s inside the test body.
type OrbRaw = (Vec<f64>, u64, f64);

fn orb_strategy() -> impl Strategy<Value = OrbRaw> {
    (
        prop::collection::vec(-50.0f64..50.0, 2),
        1u64..40,
        0.1f64..6.0,
    )
}

fn orb_of((at, count, radius): OrbRaw) -> Orb {
    Orb { at, count, radius }
}

/// Raw generator output for one mutation: an opcode (0 = touch,
/// 1 = push, 2 = swap-remove), a raw slot index (taken modulo the live
/// length), and replacement stats for touch/push.
type EditRaw = (u32, usize, OrbRaw);

fn edit_strategy() -> impl Strategy<Value = EditRaw> {
    (0u32..3, 0usize..1_000_000, orb_strategy())
}

/// The canonical from-scratch matrix: upper triangle in index order,
/// mirrored — the exact orientation `optics_bubbles_with` builds.
fn scratch_matrix(orbs: &[Orb]) -> Vec<f64> {
    let s = orbs.len();
    let mut m = vec![0.0f64; s * s];
    for x in 0..s {
        for y in (x + 1)..s {
            let d = bubble_distance(&orbs[x], &orbs[y]);
            m[x * s + y] = d;
            m[y * s + x] = d;
        }
    }
    m
}

/// The cache's live sub-matrix in a fresh buffer.
fn live_view(cache: &PairCache, order: &[usize]) -> Vec<f64> {
    let mut out = Vec::new();
    cache.live_view(order, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Touch-only edit batches: the refreshed matrix is bit-identical to
    /// scratch, entries outside the dirty rows/columns are untouched
    /// bit-for-bit, and the refresh work equals the dirty-slot count.
    #[test]
    fn touches_only_reach_the_predicted_neighborhood(
        raw_orbs in prop::collection::vec(orb_strategy(), 3..14),
        batches in prop::collection::vec(
            prop::collection::vec((0usize..1_000_000, orb_strategy()), 1..4),
            1..5,
        ),
    ) {
        let mut orbs: Vec<Orb> = raw_orbs.into_iter().map(orb_of).collect();
        let s = orbs.len();
        let mut cache = PairCache::new();
        cache.reset(s);
        prop_assert_eq!(cache.refresh(&orbs, Parallelism::Serial), s);
        let all: Vec<usize> = (0..s).collect();
        let mut prev = live_view(&cache, &all);

        for batch in batches {
            let mut dirty = std::collections::HashSet::new();
            for (i, raw) in batch {
                let slot = i % s;
                orbs[slot] = orb_of(raw);
                cache.touch(slot);
                dirty.insert(slot);
            }
            prop_assert_eq!(cache.refresh(&orbs, Parallelism::Serial), dirty.len());
            let next = live_view(&cache, &all);
            // Bit-identical to scratch over the edited set…
            let scratch = scratch_matrix(&orbs);
            for (got, want) in next.iter().zip(&scratch) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            // …and untouched outside the dirty neighborhood.
            for x in 0..s {
                for y in 0..s {
                    if !dirty.contains(&x) && !dirty.contains(&y) {
                        prop_assert_eq!(
                            next[x * s + y].to_bits(),
                            prev[x * s + y].to_bits(),
                            "clean entry ({}, {}) changed", x, y
                        );
                    }
                }
            }
            prev = next;
        }
    }

    /// Arbitrary edit sequences (touch, push, swap-remove): the cache
    /// matrix stays bit-identical to scratch and the ordering computed
    /// from it equals the from-scratch `optics_bubbles_with` ordering.
    #[test]
    fn any_edit_sequence_stays_bit_identical_to_scratch(
        raw_orbs in prop::collection::vec(orb_strategy(), 3..12),
        edits in prop::collection::vec(edit_strategy(), 1..12),
        min_pts in 1usize..30,
    ) {
        let mut orbs: Vec<Orb> = raw_orbs.into_iter().map(orb_of).collect();
        let mut cache = PairCache::new();
        cache.reset(orbs.len());
        cache.refresh(&orbs, Parallelism::Serial);

        for (op, i, raw) in edits {
            match op {
                0 => {
                    let slot = i % orbs.len();
                    orbs[slot] = orb_of(raw);
                    cache.touch(slot);
                }
                1 => {
                    orbs.push(orb_of(raw));
                    cache.push();
                }
                _ => {
                    if orbs.len() > 3 {
                        let slot = i % orbs.len();
                        orbs.swap_remove(slot);
                        cache.swap_remove(slot);
                    }
                }
            }
            cache.refresh(&orbs, Parallelism::Serial);
            let all: Vec<usize> = (0..orbs.len()).collect();
            let matrix = live_view(&cache, &all);
            let scratch = scratch_matrix(&orbs);
            for (got, want) in matrix.iter().zip(&scratch) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }

            let from_cache = optics_from_matrix(&orbs, &all, &matrix, f64::INFINITY, min_pts);
            let from_scratch =
                optics_bubbles_with(&orbs, f64::INFINITY, min_pts, Parallelism::Serial);
            prop_assert_eq!(&from_cache.order, &from_scratch.order);
            let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(
                bits(&from_cache.reachability),
                bits(&from_scratch.reachability)
            );
            prop_assert_eq!(
                bits(&from_cache.virtual_reachability),
                bits(&from_scratch.virtual_reachability)
            );
        }
    }
}

// --- Tree extraction ----------------------------------------------------

/// Preorder serialization for bit-exact tree comparison.
fn tree_bits(node: &ClusterNode) -> Vec<(usize, usize, u64, usize)> {
    fn walk(n: &ClusterNode, out: &mut Vec<(usize, usize, u64, usize)>) {
        out.push((
            n.range.0,
            n.range.1,
            n.split_value.map_or(u64::MAX, f64::to_bits),
            n.children.len(),
        ));
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(node, &mut out);
    out
}

/// The nesting invariants of an extracted hierarchy: children sit
/// inside their parent's range, in order, each strictly smaller than
/// its parent, every non-root node carrying a split value.
fn assert_nesting(node: &ClusterNode) {
    let (start, end) = node.range;
    assert!(start <= end, "range is well-formed");
    let mut prev_start = start;
    for child in &node.children {
        assert!(child.range.0 >= prev_start, "children are ordered");
        assert!(child.range.0 >= start && child.range.1 <= end, "nested");
        assert!(
            child.range.1 - child.range.0 < end - start,
            "a child is strictly smaller than its parent"
        );
        assert!(child.split_value.is_some(), "non-root nodes carry a split");
        prev_start = child.range.0;
        assert_nesting(child);
    }
}

fn plot_of(entries: &[(u64, f64)]) -> ReachabilityPlot {
    let mut plot = ReachabilityPlot::new();
    for &(id, r) in entries {
        plot.push(id, r);
    }
    plot
}

/// Raw reachability value: a finite draw plus an infinity marker (0
/// means the entry becomes an infinity, i.e. starts a new component).
type ReachRaw = (f64, u32);

fn reach_strategy() -> impl Strategy<Value = ReachRaw> {
    (0.1f64..20.0, 0u32..6)
}

fn reach_of((finite, marker): ReachRaw) -> f64 {
    if marker == 0 {
        f64::INFINITY
    } else {
        finite
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random plots under random edits: the cache-maintained extraction
    /// equals the from-scratch tree bit for bit, and the nesting
    /// invariants hold after every delta.
    #[test]
    fn cached_extraction_is_bit_identical_under_random_edits(
        raw_reaches in prop::collection::vec(reach_strategy(), 6..60),
        edits in prop::collection::vec((0usize..1_000_000, reach_strategy()), 1..10),
        min_size in 1usize..8,
    ) {
        let mut entries: Vec<(u64, f64)> = raw_reaches
            .into_iter()
            .enumerate()
            .map(|(i, raw)| (i as u64, reach_of(raw)))
            .collect();
        entries[0].1 = f64::INFINITY; // every plot starts a component
        let params = ExtractParams::with_min_size(min_size);
        let mut cache = TreeCache::new();

        for round in 0..=edits.len() {
            if round > 0 {
                let (i, raw) = &edits[round - 1];
                let slot = i % entries.len();
                entries[slot].1 = reach_of(*raw);
                entries[0].1 = f64::INFINITY;
            }
            let plot = plot_of(&entries);
            let (tree, stats) = cluster_tree_delta(&plot, &params, &mut cache);
            let scratch = cluster_tree(&plot, &params);
            prop_assert_eq!(tree_bits(&tree), tree_bits(&scratch), "round {}", round);
            assert_nesting(&tree);
            // Noise-sized components can be merged into a neighbouring
            // leaf without an exact-range recursion call, so the two
            // counters need not cover every component — but they can
            // never exceed them.
            prop_assert!(stats.reused + stats.rebuilt <= stats.components);
        }
    }

    /// A parameter change between epochs must not leak stale cached
    /// subtrees (the parameter fingerprint clears the cache).
    #[test]
    fn a_parameter_change_never_reuses_stale_subtrees(
        raw_reaches in prop::collection::vec(reach_strategy(), 8..40),
        sizes in prop::collection::vec(1usize..8, 2..5),
    ) {
        let mut entries: Vec<(u64, f64)> = raw_reaches
            .into_iter()
            .enumerate()
            .map(|(i, raw)| (i as u64, reach_of(raw)))
            .collect();
        entries[0].1 = f64::INFINITY;
        let plot = plot_of(&entries);
        let mut cache = TreeCache::new();
        for min_size in sizes {
            let params = ExtractParams::with_min_size(min_size);
            let (tree, _) = cluster_tree_delta(&plot, &params, &mut cache);
            prop_assert_eq!(tree_bits(&tree), tree_bits(&cluster_tree(&plot, &params)));
            assert_nesting(&tree);
        }
    }
}

/// Deterministic reuse locality: with several well-sized components, an
/// edit inside one of them rebuilds only that component's subtree — the
/// untouched siblings come back from the cache.
#[test]
fn an_edit_to_one_component_reuses_the_untouched_ones() {
    // Four components of twelve entries each, every one large enough to
    // receive its own exact-range recursion call.
    let mut entries: Vec<(u64, f64)> = Vec::new();
    for c in 0..4u64 {
        for (j, r) in [
            f64::INFINITY,
            9.0,
            5.0,
            3.0,
            4.0,
            8.0,
            9.5,
            5.5,
            3.5,
            4.5,
            8.5,
            9.0,
        ]
        .into_iter()
        .enumerate()
        {
            entries.push((c * 12 + j as u64, r + c as f64 * 0.01));
        }
    }
    let params = ExtractParams::with_min_size(3);
    let mut cache = TreeCache::new();

    let plot = plot_of(&entries);
    let (tree, first) = cluster_tree_delta(&plot, &params, &mut cache);
    assert_eq!(tree_bits(&tree), tree_bits(&cluster_tree(&plot, &params)));
    assert_eq!(first.components, 4);
    assert_eq!(first.reused, 0, "a cold cache reuses nothing");

    // Touch one entry in the second component only.
    entries[17].1 = 2.0;
    let plot = plot_of(&entries);
    let (tree, second) = cluster_tree_delta(&plot, &params, &mut cache);
    assert_eq!(tree_bits(&tree), tree_bits(&cluster_tree(&plot, &params)));
    assert_eq!(second.components, 4);
    assert!(
        second.reused >= 2,
        "untouched components must come from the cache: {second:?}"
    );
    assert!(
        second.rebuilt <= 2,
        "only the touched neighborhood rebuilds: {second:?}"
    );

    // A no-op epoch reuses everything that was reusable before.
    let (tree, third) = cluster_tree_delta(&plot, &params, &mut cache);
    assert_eq!(tree_bits(&tree), tree_bits(&cluster_tree(&plot, &params)));
    assert_eq!(third.rebuilt, 0, "nothing changed: {third:?}");
    assert!(third.reused >= second.reused + second.rebuilt);
}
