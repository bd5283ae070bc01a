//! A k-d tree over a static snapshot of points.
//!
//! The point-level clustering substrate (OPTICS on raw points) needs
//! ε-range queries and k-nearest-neighbour queries over the current
//! database contents. A k-d tree built once per clustering run gives
//! `O(log n)` expected query time in the low dimensionalities the paper
//! evaluates (2–20), replacing the `O(n)` scan a naive implementation would
//! perform per query.
//!
//! The tree copies the coordinates into one contiguous buffer at build time,
//! so it remains valid even if the originating store mutates afterwards —
//! clustering always operates on a consistent snapshot.

use crate::metric::{sq_dist, sq_dist_bounded};
use crate::stats::SearchStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    /// Index into the flat coordinate buffer / external id table.
    point: u32,
    left: u32,
    right: u32,
}

/// A static k-d tree over points carrying opaque `u64` external ids.
///
/// External ids are preserved verbatim in query results, letting callers map
/// hits back to their own identifiers (e.g. a store's `PointId`).
///
/// # Examples
/// ```
/// use idb_geometry::KdTree;
///
/// let points = [(7u64, [0.0, 0.0]), (8, [5.0, 0.0]), (9, [0.0, 5.0])];
/// let tree = KdTree::build(2, points.iter().map(|(id, p)| (*id, p.as_slice())));
/// let near = tree.range(&[1.0, 1.0], 2.0);
/// assert_eq!(near.len(), 1);
/// assert_eq!(near[0].0, 7);
/// let knn = tree.knn(&[4.0, 0.5], 2);
/// assert_eq!(knn[0].0, 8);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    coords: Vec<f64>,
    ids: Vec<u64>,
    nodes: Vec<Node>,
    root: u32,
}

impl KdTree {
    /// Builds a tree from `(external_id, coordinates)` pairs.
    ///
    /// # Panics
    /// Panics if `dim == 0`, or any point's dimensionality differs from
    /// `dim`.
    pub fn build<'a, I>(dim: usize, points: I) -> Self
    where
        I: IntoIterator<Item = (u64, &'a [f64])>,
    {
        assert!(dim > 0, "k-d tree requires dim > 0");
        let mut coords = Vec::new();
        let mut ids = Vec::new();
        for (id, p) in points {
            assert_eq!(p.len(), dim, "point dimensionality mismatch");
            coords.extend_from_slice(p);
            ids.push(id);
        }
        let n = ids.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let root = Self::build_rec(dim, &coords, &mut order, 0, &mut nodes);
        Self {
            dim,
            coords,
            ids,
            nodes,
            root,
        }
    }

    /// Builds a tree over a contiguous dimension-strided coordinate block
    /// (point `i` is `flat[i*dim .. (i+1)*dim]`), with external ids
    /// `0..n` — the layout a [`SeedBlock`](crate::SeedBlock) exposes. One
    /// bulk copy of the block replaces the per-point gather of
    /// [`Self::build`]; the resulting tree is identical to
    /// `build(dim, (0..n).map(|i| (i as u64, point_i)))`.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `flat.len()` is not a multiple of `dim`.
    #[must_use]
    pub fn build_dense(dim: usize, flat: &[f64]) -> Self {
        assert!(dim > 0, "k-d tree requires dim > 0");
        assert_eq!(
            flat.len() % dim,
            0,
            "flat buffer length must be a multiple of dim"
        );
        let n = flat.len() / dim;
        let coords = flat.to_vec();
        let ids: Vec<u64> = (0..n as u64).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let root = Self::build_rec(dim, &coords, &mut order, 0, &mut nodes);
        Self {
            dim,
            coords,
            ids,
            nodes,
            root,
        }
    }

    fn build_rec(
        dim: usize,
        coords: &[f64],
        order: &mut [u32],
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> u32 {
        if order.is_empty() {
            return NONE;
        }
        let axis = depth % dim;
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            let ca = coords[a as usize * dim + axis];
            let cb = coords[b as usize * dim + axis];
            ca.partial_cmp(&cb).unwrap_or(Ordering::Equal)
        });
        let point = order[mid];
        let node_idx = nodes.len() as u32;
        nodes.push(Node {
            point,
            left: NONE,
            right: NONE,
        });
        let (lo, rest) = order.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = Self::build_rec(dim, coords, lo, depth + 1, nodes);
        let right = Self::build_rec(dim, coords, hi, depth + 1, nodes);
        nodes[node_idx as usize].left = left;
        nodes[node_idx as usize].right = right;
        node_idx
    }

    /// Number of points stored in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the tree holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the stored points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn point(&self, i: u32) -> &[f64] {
        let i = i as usize;
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// All points within Euclidean distance `eps` of `center` (inclusive),
    /// returned as `(external_id, distance)` pairs in tree order.
    ///
    /// # Panics
    /// Panics if `center` has the wrong dimensionality.
    #[must_use]
    pub fn range(&self, center: &[f64], eps: f64) -> Vec<(u64, f64)> {
        assert_eq!(center.len(), self.dim, "query dimensionality mismatch");
        let mut out = Vec::new();
        if self.root != NONE {
            self.range_rec(self.root, center, eps, eps * eps, 0, &mut out);
        }
        out
    }

    fn range_rec(
        &self,
        node: u32,
        center: &[f64],
        eps: f64,
        eps_sq: f64,
        depth: usize,
        out: &mut Vec<(u64, f64)>,
    ) {
        let n = &self.nodes[node as usize];
        let p = self.point(n.point);
        let d_sq = sq_dist(center, p);
        if d_sq <= eps_sq {
            out.push((self.ids[n.point as usize], d_sq.sqrt()));
        }
        let axis = depth % self.dim;
        let diff = center[axis] - p[axis];
        let (near, far) = if diff <= 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        if near != NONE {
            self.range_rec(near, center, eps, eps_sq, depth + 1, out);
        }
        if far != NONE && diff.abs() <= eps {
            self.range_rec(far, center, eps, eps_sq, depth + 1, out);
        }
    }

    /// The `k` points nearest to `center`, sorted by ascending distance,
    /// as `(external_id, distance)` pairs. Returns fewer than `k` entries
    /// when the tree holds fewer points.
    ///
    /// # Panics
    /// Panics if `center` has the wrong dimensionality.
    #[must_use]
    pub fn knn(&self, center: &[f64], k: usize) -> Vec<(u64, f64)> {
        assert_eq!(center.len(), self.dim, "query dimensionality mismatch");
        if k == 0 || self.root == NONE {
            return Vec::new();
        }
        // Max-heap on distance so the current worst of the best-k is on top.
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        self.knn_rec(self.root, center, k, 0, &mut heap);
        let mut out: Vec<(u64, f64)> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (self.ids[e.point as usize], e.dist_sq.sqrt()))
            .collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
        out
    }

    /// Single nearest neighbour with brute-force-identical tie-breaking and
    /// [`SearchStats`] accounting — the engine behind the k-d seed-search
    /// mode of [`NearestSeeds`](crate::assign::NearestSeeds).
    ///
    /// Points are addressed by **insertion order** (`0..len() as u32`), not
    /// external id, so a caller that inserted its seeds in index order can
    /// use the returned value directly. Returns `(point, squared distance)`
    /// for the point nearest to `center`, with exact ties broken by the
    /// lowest point index; `None` when the tree is empty or the only point
    /// is excluded.
    ///
    /// * `exclude` removes one point from consideration without charging
    ///   any counter for it.
    /// * `hint`, when valid (in range, not excluded), is evaluated up front
    ///   with a full [`sq_dist`] so the descent starts with a finite bound;
    ///   the hint's node is then skipped during traversal so it is charged
    ///   exactly once.
    ///
    /// Every other reachable point is charged to exactly one of
    /// `stats.computed` (full evaluation via the early-exit kernel that ran
    /// to completion) or `stats.partial` (evaluation abandoned once the
    /// running sum exceeded the current best). Points cut off by a subtree
    /// bound are *not* charged here — the caller knows the eligible count
    /// and derives the pruned tally, keeping this routine oblivious to
    /// subtree sizes.
    ///
    /// The far subtree is visited unless `diff² > best_sq` *strictly*: a
    /// far-side point's squared distance is at least the floating-point
    /// square of its axis gap, which is at least `fl(diff²)`, so a pruned
    /// subtree provably holds no point that could beat *or tie* the best.
    ///
    /// # Panics
    /// Panics if `center` has the wrong dimensionality.
    pub fn nearest_one(
        &self,
        center: &[f64],
        exclude: Option<u32>,
        hint: Option<u32>,
        stats: &mut SearchStats,
    ) -> Option<(u32, f64)> {
        assert_eq!(center.len(), self.dim, "query dimensionality mismatch");
        if self.root == NONE {
            return None;
        }
        let mut best: Option<(u32, f64)> = None;
        let seeded = hint.filter(|&h| (h as usize) < self.len() && Some(h) != exclude);
        if let Some(h) = seeded {
            let sq = sq_dist(center, self.point(h));
            stats.computed += 1;
            best = Some((h, sq));
        }
        self.nearest_one_rec(self.root, center, exclude, seeded, 0, &mut best, stats);
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn nearest_one_rec(
        &self,
        node: u32,
        center: &[f64],
        exclude: Option<u32>,
        seeded: Option<u32>,
        depth: usize,
        best: &mut Option<(u32, f64)>,
        stats: &mut SearchStats,
    ) {
        let n = &self.nodes[node as usize];
        let pt = n.point;
        if Some(pt) != exclude && Some(pt) != seeded {
            let bound = best.map_or(f64::INFINITY, |(_, sq)| sq);
            match sq_dist_bounded(center, self.point(pt), bound) {
                None => stats.partial += 1,
                Some(sq) => {
                    stats.computed += 1;
                    match *best {
                        Some((bi, bsq)) if sq > bsq || (sq == bsq && pt >= bi) => {}
                        _ => *best = Some((pt, sq)),
                    }
                }
            }
        }
        let axis = depth % self.dim;
        let diff = center[axis] - self.point(pt)[axis];
        let (near, far) = if diff <= 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        if near != NONE {
            self.nearest_one_rec(near, center, exclude, seeded, depth + 1, best, stats);
        }
        let bsq = best.map_or(f64::INFINITY, |(_, sq)| sq);
        if far != NONE && diff * diff <= bsq {
            self.nearest_one_rec(far, center, exclude, seeded, depth + 1, best, stats);
        }
    }

    fn knn_rec(
        &self,
        node: u32,
        center: &[f64],
        k: usize,
        depth: usize,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let n = &self.nodes[node as usize];
        let p = self.point(n.point);
        let d_sq = sq_dist(center, p);
        if heap.len() < k {
            heap.push(HeapEntry {
                dist_sq: d_sq,
                point: n.point,
            });
        } else if d_sq < heap.peek().map_or(f64::INFINITY, |e| e.dist_sq) {
            heap.pop();
            heap.push(HeapEntry {
                dist_sq: d_sq,
                point: n.point,
            });
        }
        let axis = depth % self.dim;
        let diff = center[axis] - p[axis];
        let (near, far) = if diff <= 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        if near != NONE {
            self.knn_rec(near, center, k, depth + 1, heap);
        }
        let worst = heap.peek().map_or(f64::INFINITY, |e| e.dist_sq);
        if far != NONE && (heap.len() < k || diff * diff <= worst) {
            self.knn_rec(far, center, k, depth + 1, heap);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist_sq: f64,
    point: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq && self.point == other.point
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .partial_cmp(&other.dist_sq)
            .unwrap_or(Ordering::Equal)
            .then(self.point.cmp(&other.point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::dist;

    fn brute_range(pts: &[(u64, Vec<f64>)], c: &[f64], eps: f64) -> Vec<u64> {
        let mut v: Vec<u64> = pts
            .iter()
            .filter(|(_, p)| dist(p, c) <= eps)
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    fn sample_points() -> Vec<(u64, Vec<f64>)> {
        // Deterministic pseudo-random 2-d points via an LCG.
        let mut state: u64 = 0x1234_5678;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) * 100.0
        };
        (0..200u64).map(|i| (i, vec![next(), next()])).collect()
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = sample_points();
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        assert_eq!(tree.len(), 200);
        for (c, eps) in [
            (vec![50.0, 50.0], 10.0),
            (vec![0.0, 0.0], 30.0),
            (vec![100.0, 100.0], 5.0),
            (vec![25.0, 75.0], 50.0),
        ] {
            let mut got: Vec<u64> = tree.range(&c, eps).into_iter().map(|(id, _)| id).collect();
            got.sort_unstable();
            assert_eq!(got, brute_range(&pts, &c, eps), "center {c:?} eps {eps}");
        }
    }

    #[test]
    fn range_distances_are_correct() {
        let pts = sample_points();
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        let c = [40.0, 60.0];
        for (id, d) in tree.range(&c, 20.0) {
            let p = &pts[id as usize].1;
            assert!((dist(p, &c) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = sample_points();
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        let c = [33.0, 66.0];
        for k in [1usize, 3, 10, 50] {
            let got = tree.knn(&c, k);
            assert_eq!(got.len(), k);
            let mut brute: Vec<(u64, f64)> = pts.iter().map(|(id, p)| (*id, dist(p, &c))).collect();
            brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            for (i, (_, d)) in got.iter().enumerate() {
                assert!((d - brute[i].1).abs() < 1e-9, "k={k} i={i}");
            }
            // Results are sorted ascending.
            for w in got.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn knn_with_k_larger_than_tree() {
        let pts: Vec<(u64, Vec<f64>)> = vec![(7, vec![1.0]), (9, vec![4.0])];
        let tree = KdTree::build(1, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        let got = tree.knn(&[0.0], 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 7);
        assert_eq!(got[1].0, 9);
    }

    #[test]
    fn empty_tree_queries() {
        let tree = KdTree::build(3, std::iter::empty());
        assert!(tree.is_empty());
        assert!(tree.range(&[0.0, 0.0, 0.0], 1.0).is_empty());
        assert!(tree.knn(&[0.0, 0.0, 0.0], 5).is_empty());
    }

    #[test]
    fn duplicate_points_all_reported() {
        let pts: Vec<(u64, Vec<f64>)> = (0..5).map(|i| (i, vec![2.0, 2.0])).collect();
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        let hits = tree.range(&[2.0, 2.0], 0.0);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn nearest_one_matches_brute_force_with_accounting() {
        let pts = sample_points();
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        for c in [[33.0, 66.0], [0.0, 0.0], [99.0, 1.0], [50.0, 50.0]] {
            let mut brute: Vec<(u32, f64)> = pts
                .iter()
                .enumerate()
                .map(|(i, (_, p))| (i as u32, sq_dist(p, &c)))
                .collect();
            brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for hint in [None, Some(0u32), Some(137)] {
                let mut stats = SearchStats::new();
                let (idx, sq) = tree.nearest_one(&c, None, hint, &mut stats).unwrap();
                assert_eq!((idx, sq), brute[0], "center {c:?} hint {hint:?}");
                // Each point charged at most once; subtree cuts charge nothing.
                assert!(stats.computed + stats.partial <= pts.len() as u64);
                assert!(stats.computed >= 1);
            }
        }
    }

    #[test]
    fn nearest_one_respects_exclusion_and_tie_break() {
        // Duplicate points: lowest index must win; excluding it promotes
        // the next-lowest duplicate.
        let pts: Vec<(u64, Vec<f64>)> = vec![
            (0, vec![5.0, 5.0]),
            (1, vec![5.0, 5.0]),
            (2, vec![9.0, 9.0]),
        ];
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        let mut stats = SearchStats::new();
        let (idx, _) = tree
            .nearest_one(&[5.0, 5.1], None, None, &mut stats)
            .unwrap();
        assert_eq!(idx, 0);
        let (idx, _) = tree
            .nearest_one(&[5.0, 5.1], Some(0), None, &mut stats)
            .unwrap();
        assert_eq!(idx, 1);
        // Hinting the higher duplicate must still surface the lower one.
        let (idx, _) = tree
            .nearest_one(&[5.0, 5.1], None, Some(1), &mut stats)
            .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn nearest_one_empty_and_fully_excluded() {
        let empty = KdTree::build(2, std::iter::empty());
        let mut stats = SearchStats::new();
        assert!(empty
            .nearest_one(&[0.0, 0.0], None, None, &mut stats)
            .is_none());

        let one = KdTree::build(1, [(7u64, [4.0].as_slice())]);
        assert!(one.nearest_one(&[0.0], Some(0), None, &mut stats).is_none());
        assert_eq!(stats, SearchStats::new());
    }

    #[test]
    fn knn_k_zero_is_empty() {
        let pts = sample_points();
        let tree = KdTree::build(2, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        assert!(tree.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn build_dense_is_identical_to_the_iterator_build() {
        let flat: Vec<f64> = (0..42)
            .flat_map(|i| {
                let t = f64::from(i);
                [(t * 0.37) % 7.0, (t * 1.13) % 5.0, t % 3.0]
            })
            .collect();
        let dense = KdTree::build_dense(3, &flat);
        let iter = KdTree::build(
            3,
            flat.chunks_exact(3).enumerate().map(|(i, p)| (i as u64, p)),
        );
        // Same tree means bit-identical query results and accounting.
        for q in [[0.0, 0.0, 0.0], [3.5, 2.5, 1.5], [6.9, 4.9, 2.9]] {
            let (mut sa, mut sb) = (SearchStats::new(), SearchStats::new());
            let a = dense.nearest_one(&q, None, None, &mut sa);
            let b = iter.nearest_one(&q, None, None, &mut sb);
            assert_eq!(a, b, "query {q:?}");
            assert_eq!(sa, sb, "accounting for {q:?}");
            assert_eq!(dense.knn(&q, 5), iter.knn(&q, 5));
        }
    }
}
