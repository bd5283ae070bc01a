//! A k-d tree over a static snapshot of points: the engine behind the
//! k-d seed-search mode of [`NearestSeeds`](crate::assign::NearestSeeds).
//!
//! The tree answers one query, [`KdTree::nearest_one`]: the nearest point
//! with brute-force-identical tie-breaking and [`SearchStats`] accounting.
//! It gives `O(log n)` expected query time in the low dimensionalities the
//! paper evaluates (2–20), against the `O(n)` of a scan.
//!
//! The tree copies the coordinates into one contiguous buffer at build time,
//! so it remains valid even if the seed block it came from mutates
//! afterwards.

use crate::metric::{sq_dist, sq_dist_bounded};
use crate::stats::SearchStats;
use std::cmp::Ordering;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    /// Index of the point in the flat coordinate buffer.
    point: u32,
    left: u32,
    right: u32,
}

/// A static k-d tree over points addressed by their position in the
/// block it was built from.
///
/// # Examples
/// ```
/// use idb_geometry::{KdTree, SearchStats};
///
/// // Points 0, 1 and 2, dimension-strided.
/// let tree = KdTree::build_dense(2, &[0.0, 0.0, 5.0, 0.0, 0.0, 5.0]);
/// let mut stats = SearchStats::new();
/// let (point, sq) = tree.nearest_one(&[4.0, 0.5], None, None, &mut stats).unwrap();
/// assert_eq!((point, sq), (1, 1.25));
/// // Excluding the nearest point promotes the next one.
/// let (point, _) = tree.nearest_one(&[4.0, 0.5], Some(1), None, &mut stats).unwrap();
/// assert_eq!(point, 0);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    coords: Vec<f64>,
    nodes: Vec<Node>,
    root: u32,
}

impl KdTree {
    /// Builds a tree over a contiguous dimension-strided coordinate block
    /// (point `i` is `flat[i*dim .. (i+1)*dim]`) — the layout a
    /// [`SeedBlock`](crate::SeedBlock) exposes.
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
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let root = Self::build_rec(dim, &coords, &mut order, 0, &mut nodes);
        Self {
            dim,
            coords,
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
        self.nodes.len()
    }

    /// `true` when the tree holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
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

    /// Single nearest neighbour with brute-force-identical tie-breaking and
    /// [`SearchStats`] accounting — the engine behind the k-d seed-search
    /// mode of [`NearestSeeds`](crate::assign::NearestSeeds).
    ///
    /// Points are addressed by their position in the block the tree was
    /// built from (`0..len() as u32`), so a seed block's indices are used
    /// directly. Returns `(point, squared distance)`
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
    /// `stats.computed` (the early-exit kernel returned the full squared
    /// distance) or `stats.partial` (the kernel rejected it: the squared
    /// distance exceeds the current best). Points cut off by a subtree
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
        // The cut needs no rounding margin: every point of the far subtree
        // lies at least `|diff|` from the query along `axis`, so its
        // rounded difference there is at least the rounded `diff` in
        // magnitude, and its rounded square sum — rounding is monotone,
        // and adding a non-negative term never lowers a rounded sum — at
        // least the rounded `diff * diff`. A cut subtree's squared
        // distances all exceed `bsq`: none can beat or tie the best.
        let bsq = best.map_or(f64::INFINITY, |(_, sq)| sq);
        if far != NONE && diff * diff <= bsq {
            self.nearest_one_rec(far, center, exclude, seeded, depth + 1, best, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 deterministic pseudo-random 2-d points (an LCG), flat.
    fn sample_points() -> Vec<f64> {
        let mut state: u64 = 0x1234_5678;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) * 100.0
        };
        (0..400).map(|_| next()).collect()
    }

    /// The brute-force answer: least `(squared distance, index)`.
    fn brute(dim: usize, flat: &[f64], c: &[f64], exclude: Option<u32>) -> Option<(u32, f64)> {
        flat.chunks_exact(dim)
            .enumerate()
            .map(|(i, p)| (i as u32, sq_dist(p, c)))
            .filter(|&(i, _)| Some(i) != exclude)
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    #[test]
    fn nearest_one_matches_brute_force_with_accounting() {
        let flat = sample_points();
        let tree = KdTree::build_dense(2, &flat);
        assert_eq!(tree.len(), 200);
        for c in [[33.0, 66.0], [0.0, 0.0], [99.0, 1.0], [50.0, 50.0]] {
            for hint in [None, Some(0u32), Some(137)] {
                let mut stats = SearchStats::new();
                let got = tree.nearest_one(&c, None, hint, &mut stats);
                assert_eq!(got, brute(2, &flat, &c, None), "center {c:?} hint {hint:?}");
                // Each point charged at most once; subtree cuts charge nothing.
                assert!(stats.computed + stats.partial <= tree.len() as u64);
                assert!(stats.computed >= 1);
            }
        }
    }

    #[test]
    fn nearest_one_respects_exclusion_and_tie_break() {
        // Duplicate points: lowest index must win; excluding it promotes
        // the next-lowest duplicate.
        let tree = KdTree::build_dense(2, &[5.0, 5.0, 5.0, 5.0, 9.0, 9.0]);
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

    /// All-equal coordinates make every median split a tie; the answer is
    /// still the lowest eligible index, at the query's exact distance.
    #[test]
    fn nearest_one_on_all_equal_coordinates() {
        for n in [1usize, 2, 7, 33] {
            let flat = [1.5; 3].repeat(n);
            let tree = KdTree::build_dense(3, &flat);
            for c in [[1.5, 1.5, 1.5], [0.0, 0.0, 0.0], [9.0, 9.0, 9.0]] {
                for exclude in [None, Some(0), Some(n as u32 - 1)] {
                    for hint in [None, Some(n as u32 / 2)] {
                        let mut stats = SearchStats::new();
                        let got = tree.nearest_one(&c, exclude, hint, &mut stats);
                        assert_eq!(got, brute(3, &flat, &c, exclude), "n {n} c {c:?}");
                        assert!(stats.computed + stats.partial <= n as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_one_empty_and_fully_excluded() {
        let empty = KdTree::build_dense(2, &[]);
        assert!(empty.is_empty());
        let mut stats = SearchStats::new();
        assert!(empty
            .nearest_one(&[0.0, 0.0], None, None, &mut stats)
            .is_none());

        let one = KdTree::build_dense(1, &[4.0]);
        assert!(one.nearest_one(&[0.0], Some(0), None, &mut stats).is_none());
        assert_eq!(stats, SearchStats::new());
    }
}
