//! Property-based tests for the clustering substrate.

use idb_clustering::{
    cluster_tree, extract_clusters, extract_clusters_at, optics_points, ClusterNode, ExtractParams,
    ReachabilityPlot,
};
use idb_store::PointStore;
use proptest::prelude::*;

fn points(dim: usize, max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dim), 2..max)
}

fn store_of(pts: &[Vec<f64>]) -> PointStore {
    let mut s = PointStore::new(pts[0].len());
    for p in pts {
        s.insert(p, None);
    }
    s
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random plots with infinite component starts: the extracted tree
    /// covers the whole plot and satisfies the nesting invariants.
    #[test]
    fn cluster_tree_nests(
        raw_reaches in prop::collection::vec(reach_strategy(), 6..60),
        min_size in 1usize..8,
    ) {
        let mut plot = ReachabilityPlot::new();
        for (i, &raw) in raw_reaches.iter().enumerate() {
            // Every plot starts a component.
            let r = if i == 0 { f64::INFINITY } else { reach_of(raw) };
            plot.push(i as u64, r);
        }
        let tree = cluster_tree(&plot, &ExtractParams::with_min_size(min_size));
        prop_assert_eq!(tree.range, (0, plot.len()));
        prop_assert!(tree.split_value.is_none(), "the root carries no split");
        assert_nesting(&tree);
    }

    /// OPTICS emits every point exactly once, for any eps and min_pts.
    #[test]
    fn optics_is_a_permutation(
        pts in points(2, 80),
        eps in prop::sample::select(vec![5.0, 50.0, f64::INFINITY]),
        min_pts in 1usize..8,
    ) {
        let store = store_of(&pts);
        let plot = optics_points(&store, eps, min_pts);
        prop_assert_eq!(plot.len(), store.len());
        let mut got: Vec<u64> = plot.entries().iter().map(|e| e.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = store.ids().map(|id| u64::from(id.0)).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // The first entry of the plot is always an infinity (new component).
        prop_assert!(plot.entries()[0].reachability.is_infinite());
    }

    /// Extracted clusters are disjoint contiguous subsets of the plot.
    #[test]
    fn extraction_yields_disjoint_clusters(
        pts in points(2, 80),
        min_size in 2usize..10,
    ) {
        let store = store_of(&pts);
        let plot = optics_points(&store, f64::INFINITY, 3);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(min_size));
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            prop_assert!(c.len() >= min_size);
            for id in c {
                prop_assert!(seen.insert(*id), "id {id} in two clusters");
            }
        }
        prop_assert!(seen.len() <= plot.len());
    }

    /// Horizontal cuts also yield disjoint clusters covering at most the
    /// whole plot, and a cut above the maximum finite reachability puts
    /// everything into one cluster.
    #[test]
    fn horizontal_cut_properties(pts in points(2, 60)) {
        let store = store_of(&pts);
        let plot = optics_points(&store, f64::INFINITY, 2);
        let max = plot.max_finite_reachability().unwrap_or(1.0);
        let all = extract_clusters_at(&plot, max + 1.0, 1);
        prop_assert_eq!(all.len(), 1);
        prop_assert_eq!(all[0].len(), plot.len());

        let some = extract_clusters_at(&plot, max / 2.0, 2);
        let mut seen = std::collections::HashSet::new();
        for c in &some {
            for id in c {
                prop_assert!(seen.insert(*id));
            }
        }
    }
}
