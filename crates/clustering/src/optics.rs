//! OPTICS over raw database points (Ankerst et al., the paper's \[2\]).
//!
//! The algorithm orders the points such that density-based clusters at all
//! resolutions up to `eps` appear as valleys of the reachability plot:
//!
//! * the *core distance* of `p` is the distance to its `min_pts`-th
//!   neighbour, undefined when fewer than `min_pts` points lie within
//!   `eps`;
//! * the *reachability distance* of `q` from `p` is
//!   `max(core_dist(p), dist(p, q))`;
//! * points are emitted in the order of a best-first expansion that always
//!   processes the not-yet-emitted point with the smallest current
//!   reachability.
//!
//! A point is a data bubble of one: `n = 1`, extent 0 and `nnDist` 0. The
//! bubble distance between two such bubbles is exactly their Euclidean
//! distance, and a bubble of one point counts itself first and then its
//! neighbours towards `min_pts`, which is the point-level core distance.
//! So [`optics_points`] is the walk of [`optics_bubbles`] over one-point
//! summaries, with its `(reachability, index)` pick: `O(n²)` time and
//! `O(n·d)` memory for any `eps`.

use crate::optics_bubbles::optics_bubbles;
use crate::reachability::ReachabilityPlot;
use idb_core::DataSummary;
use idb_store::PointStore;

/// One live point as a summary of one.
struct OnePoint<'a>(&'a [f64]);

impl DataSummary for OnePoint<'_> {
    fn dim(&self) -> usize {
        self.0.len()
    }

    fn n(&self) -> u64 {
        1
    }

    fn rep(&self) -> Vec<f64> {
        self.0.to_vec()
    }

    fn extent(&self) -> f64 {
        0.0
    }

    fn nn_dist(&self, _k: usize) -> f64 {
        0.0
    }
}

/// Runs OPTICS over all live points of the store.
///
/// Returns the reachability plot in processing order; ids are the
/// [`idb_store::PointId`] raw values. `eps` bounds the neighbourhood search
/// (pass `f64::INFINITY` for the complete hierarchy at any density);
/// `min_pts` is the usual density smoothing parameter. Ties in
/// reachability go to the point that comes first in
/// [`PointStore::ids`] order, which also picks each component's start.
///
/// # Examples
/// ```
/// use idb_clustering::optics_points;
/// use idb_store::PointStore;
///
/// // Two tight groups with a wide gap.
/// let mut store = PointStore::new(1);
/// for i in 0..10 {
///     store.insert(&[i as f64 * 0.1], None);
///     store.insert(&[50.0 + i as f64 * 0.1], None);
/// }
/// let plot = optics_points(&store, f64::INFINITY, 3);
/// assert_eq!(plot.len(), 20);
/// // Exactly one reachability spike marks the jump between the groups.
/// let spikes = plot.entries().iter()
///     .filter(|e| e.reachability.is_finite() && e.reachability > 10.0)
///     .count();
/// assert_eq!(spikes, 1);
/// ```
///
/// # Panics
/// Panics if `min_pts == 0`.
#[must_use]
pub fn optics_points(store: &PointStore, eps: f64, min_pts: usize) -> ReachabilityPlot {
    let ids: Vec<u64> = store.ids().map(|id| u64::from(id.0)).collect();
    let points: Vec<OnePoint<'_>> = store.ids().map(|id| OnePoint(store.point(id))).collect();
    optics_bubbles(&points, eps, min_pts).expand(|i| std::iter::once(ids[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idb_store::PointId;

    /// Two 1-d clusters with a wide gap.
    fn two_cluster_store() -> PointStore {
        let mut s = PointStore::new(1);
        for i in 0..20 {
            s.insert(&[i as f64 * 0.1], Some(0));
        }
        for i in 0..20 {
            s.insert(&[100.0 + i as f64 * 0.1], Some(1));
        }
        s
    }

    #[test]
    fn plot_covers_every_point_exactly_once() {
        let store = two_cluster_store();
        let plot = optics_points(&store, f64::INFINITY, 3);
        assert_eq!(plot.len(), store.len());
        let mut seen: Vec<u64> = plot.entries().iter().map(|e| e.id).collect();
        seen.sort_unstable();
        let mut want: Vec<u64> = store.ids().map(|id| u64::from(id.0)).collect();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn gap_appears_as_reachability_spike() {
        let store = two_cluster_store();
        let plot = optics_points(&store, f64::INFINITY, 3);
        // Exactly one entry (the jump across the gap) has reachability near
        // 100 − 1.9 ≈ 98; everything else is tiny or the initial infinity.
        let big: Vec<f64> = plot
            .entries()
            .iter()
            .map(|e| e.reachability)
            .filter(|r| r.is_finite() && *r > 50.0)
            .collect();
        assert_eq!(big.len(), 1, "one inter-cluster jump, got {big:?}");
        assert!(big[0] > 90.0);
        // In-cluster reachability is bounded by the point spacing times
        // min_pts.
        let small = plot
            .entries()
            .iter()
            .filter(|e| e.reachability.is_finite() && e.reachability < 1.0)
            .count();
        assert_eq!(small, store.len() - 2);
    }

    #[test]
    fn bounded_eps_splits_components() {
        let store = two_cluster_store();
        let plot = optics_points(&store, 5.0, 3);
        // With eps = 5 the gap cannot be bridged: two infinite entries.
        let inf = plot
            .entries()
            .iter()
            .filter(|e| e.reachability.is_infinite())
            .count();
        assert_eq!(inf, 2);
    }

    #[test]
    fn cluster_order_is_contiguous() {
        let store = two_cluster_store();
        let plot = optics_points(&store, f64::INFINITY, 3);
        // Once the plot leaves the first cluster it never returns: labels
        // along the order look like A..AB..B.
        let labels: Vec<u32> = plot
            .entries()
            .iter()
            .map(|e| store.label(PointId(e.id as u32)).unwrap())
            .collect();
        let switches = labels.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "order {labels:?}");
    }

    #[test]
    fn empty_store_gives_empty_plot() {
        let store = PointStore::new(2);
        assert!(optics_points(&store, 1.0, 3).is_empty());
    }

    #[test]
    fn min_pts_one_reachability_is_nearest_neighbor_distance() {
        let mut store = PointStore::new(1);
        store.insert(&[0.0], None);
        store.insert(&[1.0], None);
        store.insert(&[3.0], None);
        let plot = optics_points(&store, f64::INFINITY, 1);
        // With min_pts = 1 the core distance is 0 (the point itself), so
        // reachability = plain distance to the predecessor's neighbourhood.
        let finite: Vec<f64> = plot
            .entries()
            .iter()
            .map(|e| e.reachability)
            .filter(|r| r.is_finite())
            .collect();
        assert_eq!(finite, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "min_pts")]
    fn zero_min_pts_panics() {
        let store = PointStore::new(1);
        let _ = optics_points(&store, 1.0, 0);
    }

    #[test]
    fn singleton_store() {
        let mut store = PointStore::new(2);
        store.insert(&[1.0, 2.0], None);
        let plot = optics_points(&store, 1.0, 2);
        assert_eq!(plot.len(), 1);
        assert!(plot.entries()[0].reachability.is_infinite());
    }
}
