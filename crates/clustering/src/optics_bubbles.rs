//! OPTICS over data summaries (the Data Bubbles adaptation the paper
//! applies after every batch of updates).
//!
//! Running OPTICS on `s` summaries instead of `N` points is what makes
//! hierarchical clustering of a large dynamic database cheap; what has to
//! change is how distances are measured:
//!
//! * **Bubble distance** ([`bubble_distance`]): when two bubbles do not
//!   overlap, the distance between their representatives minus both
//!   extents, plus both expected nearest-neighbour distances (the distance
//!   their *border points* would measure); when they overlap, the larger of
//!   the two expected nearest-neighbour distances.
//! * **Core distance**: a bubble holding at least `min_pts` points is a
//!   core object by itself with core distance `nnDist(min_pts)`; a smaller
//!   bubble accumulates neighbouring bubbles by distance until their point
//!   counts reach `min_pts`.
//! * **Virtual reachability**: a bubble appears in the point-level plot as
//!   its first member at the bubble's own reachability followed by its
//!   remaining members at `nnDist(min_pts)` — the reachability its points
//!   would exhibit if processed individually
//!   ([`BubbleOrdering::expand`]).
//!
//! The ordering is OPTICS' best-first order, produced without a priority
//! queue: each step computes the current bubble's distance row and makes
//! one dense pass over it that lowers its neighbours' reachabilities and
//! picks the next bubble by argmin ([`optics_from_matrix`]). An ordering
//! costs `O(s²)` time and `O(s)` memory with no sorting; only a bubble
//! holding fewer than `min_pts` points selects (and sorts) its few
//! nearest neighbours to find its core distance.

use crate::reachability::ReachabilityPlot;
use idb_core::DataSummary;
use idb_geometry::{dist, SeedBlock};
use std::cmp::Ordering;

/// Distance between two non-empty data summaries.
///
/// # Panics
/// Panics (in debug builds) if either summary is empty.
#[must_use]
pub fn bubble_distance<S: DataSummary>(a: &S, b: &S) -> f64 {
    debug_assert!(a.n() > 0 && b.n() > 0, "distance of empty summaries");
    bubble_distance_flat(
        &a.rep(),
        a.extent(),
        a.nn_dist(1),
        &b.rep(),
        b.extent(),
        b.nn_dist(1),
    )
}

/// [`bubble_distance`] over pre-extracted summary parts: representative
/// coordinates, extent and `nnDist(1)` of each side.
///
/// The OPTICS walk extracts each live summary's parts **once** into a
/// flat [`SeedBlock`] and two `Vec<f64>`s, then calls this per pair — the
/// trait's `rep()` allocates a fresh `Vec` per call, which at `s²` pairs
/// per epoch would dominate the walk. Same floating-point
/// operations in the same order as [`bubble_distance`], so the value is
/// bit-identical.
#[inline]
#[must_use]
pub fn bubble_distance_flat(ra: &[f64], ea: f64, na: f64, rb: &[f64], eb: f64, nb: f64) -> f64 {
    let gap = dist(ra, rb) - (ea + eb);
    if gap >= 0.0 {
        gap + na + nb
    } else {
        na.max(nb)
    }
}

/// Extracted parts of the live summaries: dimension-strided representative
/// block plus per-summary extent and `nnDist(1)` arrays, aligned with the
/// `live` index list they were extracted from.
#[derive(Debug, Clone)]
pub struct SummaryParts {
    /// Representative coordinates, one row per live summary.
    pub reps: SeedBlock,
    /// `extent()` per live summary.
    pub extents: Vec<f64>,
    /// `nn_dist(1)` per live summary.
    pub nn1: Vec<f64>,
}

impl SummaryParts {
    /// Extracts the parts of `summaries[live[..]]` (each must be
    /// non-empty) for flat pairwise-distance evaluation.
    pub fn extract<S: DataSummary>(summaries: &[S], live: &[usize]) -> Self {
        let dim = live
            .first()
            .map_or(1, |&i| summaries[i].dim().max(1))
            .max(1);
        let mut parts = Self {
            reps: SeedBlock::with_capacity(dim, live.len()),
            extents: Vec::with_capacity(live.len()),
            nn1: Vec::with_capacity(live.len()),
        };
        for &idx in live {
            let s = &summaries[idx];
            parts.reps.push(&s.rep());
            parts.extents.push(s.extent());
            parts.nn1.push(s.nn_dist(1));
        }
        parts
    }

    /// [`bubble_distance_flat`] between live rows `i` and `j`.
    #[inline]
    #[must_use]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        bubble_distance_flat(
            self.reps.get(i),
            self.extents[i],
            self.nn1[i],
            self.reps.get(j),
            self.extents[j],
            self.nn1[j],
        )
    }
}

/// The OPTICS ordering of a set of summaries.
#[derive(Debug, Clone)]
pub struct BubbleOrdering {
    /// Indices into the input summary slice, in processing order.
    pub order: Vec<usize>,
    /// Reachability of each processed summary, aligned with `order`
    /// (`f64::INFINITY` where undefined).
    pub reachability: Vec<f64>,
    /// `nnDist(min_pts)` of each summary in `order` — its virtual
    /// reachability.
    pub virtual_reachability: Vec<f64>,
}

impl BubbleOrdering {
    /// Number of ordered summaries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no summary was ordered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Expands the bubble-level ordering into a point-level reachability
    /// plot: for the summary at order position `i`, `members(i)` must yield
    /// the ids of its points; the first one is plotted at the bubble's
    /// reachability and the rest at its virtual reachability.
    pub fn expand<F, I>(&self, mut members: F) -> ReachabilityPlot
    where
        F: FnMut(usize) -> I,
        I: IntoIterator<Item = u64>,
    {
        let mut plot = ReachabilityPlot::new();
        for (pos, &summary_idx) in self.order.iter().enumerate() {
            let mut first = true;
            for id in members(summary_idx) {
                let r = if first {
                    self.reachability[pos]
                } else {
                    self.virtual_reachability[pos]
                };
                plot.push(id, r);
                first = false;
            }
        }
        plot
    }
}

/// Runs OPTICS over non-empty summaries in the calling thread.
///
/// Empty summaries (bubbles whose every point was deleted) are skipped —
/// they compress nothing and have no position. `eps` bounds the
/// neighbourhood (pass `f64::INFINITY` for the full hierarchy); `min_pts`
/// counts *points*, not bubbles.
///
/// Each bubble's distance row is computed when the walk reaches it
/// ([`optics_from_matrix`] describes the walk), from [`SummaryParts`]
/// extracted once per call. No `s × s` matrix is materialised, so working
/// memory is `O(s)`.
///
/// # Panics
/// Panics if `min_pts == 0`.
#[must_use]
pub fn optics_bubbles<S: DataSummary>(summaries: &[S], eps: f64, min_pts: usize) -> BubbleOrdering {
    assert!(min_pts > 0, "min_pts must be positive");
    // Dense working set of non-empty summaries.
    let live: Vec<usize> = (0..summaries.len())
        .filter(|&i| summaries[i].n() > 0)
        .collect();
    let parts = SummaryParts::extract(summaries, &live);
    walk(summaries, &live, eps, min_pts, |a, b| parts.distance(a, b))
}

/// The OPTICS walk over a *precomputed* dense pairwise distance matrix.
///
/// `live` lists the indices (into `summaries`) to order — every listed
/// summary must be non-empty — and `pair[a * live.len() + b]` for
/// `a < b` must hold `bubble_distance` between `live[a]` and `live[b]`;
/// only that upper triangle is read. This is the walk
/// [`optics_bubbles`] runs on distances it computes itself, in the
/// same orientation, so a matrix with the same bits gives a bit-identical
/// ordering.
///
/// The walk is a dense Prim-style scan rather than a best-first heap.
/// When it reaches bubble `i` it computes `i`'s distance row into one
/// reusable buffer — over the unprocessed bubbles only when `i` holds at
/// least `min_pts` points, over every other bubble when it holds fewer
/// (its core distance counts processed neighbours too). One pass over the
/// unprocessed bubbles then lowers the reachability of `i`'s
/// `eps`-neighbours and picks the next bubble as the unprocessed one of
/// least finite reachability (ties by index, under `f64::total_cmp`) —
/// exactly the order a lazy-deletion min-heap pops, since each bubble is
/// pushed at most once per step, with a strictly lower reachability than
/// any earlier push. One ordering costs `O(s²)` time, `O(s)` memory and
/// no sorting: a bubble holding at least `min_pts` points has core
/// distance `nnDist(min_pts)` and needs no neighbour list at all; a
/// smaller one selects only its `min_pts − n` nearest neighbours.
///
/// # Panics
/// Panics if `min_pts == 0`, if `pair.len() != live.len()²`, or (in debug
/// builds) if a listed summary is empty.
#[must_use]
pub fn optics_from_matrix<S: DataSummary>(
    summaries: &[S],
    live: &[usize],
    pair: &[f64],
    eps: f64,
    min_pts: usize,
) -> BubbleOrdering {
    assert!(min_pts > 0, "min_pts must be positive");
    let s = live.len();
    assert_eq!(pair.len(), s * s, "matrix must be dense over `live`");
    walk(summaries, live, eps, min_pts, |a, b| pair[a * s + b])
}

/// The walk behind [`optics_bubbles`] and [`optics_from_matrix`]:
/// `distance(a, b)` with `a < b` is the distance between live positions
/// `a` and `b`.
///
/// A pair is always evaluated with the lower position first, whichever
/// bubble the walk is at: `gap + na + nb` rounds differently from
/// `gap + nb + na`, and this is the orientation the upper triangle of a
/// matrix holds.
fn walk<S: DataSummary>(
    summaries: &[S],
    live: &[usize],
    eps: f64,
    min_pts: usize,
    distance: impl Fn(usize, usize) -> f64,
) -> BubbleOrdering {
    debug_assert!(
        live.iter().all(|&i| summaries[i].n() > 0),
        "live summaries must be non-empty"
    );
    let s = live.len();
    let mut ordering = BubbleOrdering {
        order: Vec::with_capacity(s),
        reachability: Vec::with_capacity(s),
        virtual_reachability: Vec::with_capacity(s),
    };

    let mut pending: Vec<usize> = (0..s).collect();
    let mut reach = vec![f64::INFINITY; s];
    let mut row = vec![f64::NAN; s];
    let mut neigh = Vec::new();

    // `pending` holds the unprocessed bubbles in no particular order (a
    // processed one is swap-removed), so every scan visits only those.
    // `next` is the position of the argmin picked by the previous step;
    // when it is `None` the component is exhausted and the lowest
    // unprocessed index starts the next one (at reachability ∞, which
    // `reach` still holds for it).
    let mut next = None;
    while !pending.is_empty() {
        let pos = next.unwrap_or_else(|| {
            (0..pending.len())
                .min_by_key(|&p| pending[p])
                .expect("pending is non-empty")
        });
        let i = pending.swap_remove(pos);
        ordering.order.push(live[i]);
        ordering.reachability.push(reach[i]);
        ordering
            .virtual_reachability
            .push(summaries[live[i]].nn_dist(min_pts));
        // Only the entries the two passes below read are written; the
        // rest of `row` holds earlier bubbles' values.
        let oriented = |j: usize| {
            if j < i {
                distance(j, i)
            } else {
                distance(i, j)
            }
        };
        if (summaries[live[i]].n() as usize) < min_pts {
            for j in (0..s).filter(|&j| j != i) {
                row[j] = oriented(j);
            }
        } else {
            for &j in &pending {
                row[j] = oriented(j);
            }
        }
        let core = core_distance(summaries, live, i, &row, eps, min_pts, &mut neigh);
        next = relax_and_pick(&row, core, eps, &pending, &mut reach);
    }
    ordering
}

/// Core distance of live bubble `i`: `nnDist(min_pts)` when the bubble
/// alone holds `min_pts` points (`row` is not read), otherwise the
/// distance at which its `eps`-neighbours in `row` (read at every
/// `j ≠ i`), taken by ascending `(distance.total_cmp, index)`, bring the
/// point count to `min_pts` (`∞` if they never do).
///
/// Every live bubble holds at least one point, so at most the
/// `min_pts − n` nearest neighbours are ever accumulated: they are
/// selected in `O(s)` and only that prefix is sorted. The order is total
/// (indices are distinct), so the prefix is exactly the full sort's.
fn core_distance<S: DataSummary>(
    summaries: &[S],
    live: &[usize],
    i: usize,
    row: &[f64],
    eps: f64,
    min_pts: usize,
    neigh: &mut Vec<(usize, f64)>,
) -> f64 {
    let own = summaries[live[i]].n() as usize;
    if own >= min_pts {
        return summaries[live[i]].nn_dist(min_pts);
    }
    neigh.clear();
    neigh.extend(
        row.iter()
            .enumerate()
            .filter(|&(j, &d)| j != i && d <= eps)
            .map(|(j, &d)| (j, d)),
    );
    // `total_cmp` with the index tiebreak: a NaN never passes `d <= eps`,
    // and exact distance ties (duplicated representatives) resolve by
    // index, so the selection cannot depend on the algorithm's
    // comparison sequence.
    let by_distance = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    let needed = min_pts - own;
    if neigh.len() > needed {
        neigh.select_nth_unstable_by(needed - 1, by_distance);
        neigh.truncate(needed);
    }
    neigh.sort_unstable_by(by_distance);
    let mut acc = own;
    for &(j, d) in neigh.iter() {
        acc += summaries[live[j]].n() as usize;
        if acc >= min_pts {
            return d;
        }
    }
    f64::INFINITY
}

/// One fused pass over the current bubble's distance row and the
/// unprocessed bubbles `pending`: unless `core` is infinite (the bubble
/// is not a core object), lower `reach[j]` to `max(core, d)` for every
/// pending `j` within `eps`; then return the position in `pending` of the
/// `j` with the least finite `reach[j]` under `(reach.total_cmp, index)`,
/// or `None` when the component is exhausted. The key is total, so the
/// pick does not depend on the order of `pending`.
///
/// A reachability is only ever stored when it is strictly below the
/// previous one, starting from `∞`, so "below `∞`" here means "was ever
/// lowered"; a NaN is never stored, and would never be picked.
fn relax_and_pick(
    row: &[f64],
    core: f64,
    eps: f64,
    pending: &[usize],
    reach: &mut [f64],
) -> Option<usize> {
    let relax = !core.is_infinite();
    let mut best: Option<(usize, usize)> = None;
    let mut best_reach = f64::INFINITY;
    for (pos, &j) in pending.iter().enumerate() {
        let r = &mut reach[j];
        if relax {
            let d = row[j];
            if d <= eps {
                let candidate = core.max(d);
                if candidate < *r {
                    *r = candidate;
                }
            }
        }
        if *r < f64::INFINITY {
            let better = match r.total_cmp(&best_reach) {
                Ordering::Less => true,
                Ordering::Equal => best.is_some_and(|(_, b)| j < b),
                Ordering::Greater => false,
            };
            if better {
                best = Some((pos, j));
                best_reach = *r;
            }
        }
    }
    best.map(|(pos, _)| pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idb_core::SufficientStats;

    /// Minimal summary for tests: a ball of `n` points.
    #[derive(Debug, Clone)]
    struct Ball {
        stats: SufficientStats,
    }

    impl Ball {
        fn new(center: &[f64], radius: f64, n: usize) -> Self {
            // Approximate a ball by pairs symmetric around the center so
            // the mean is exact and the extent ~ radius.
            let dim = center.len();
            let mut stats = SufficientStats::new(dim);
            for i in 0..n {
                let mut p = center.to_vec();
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                p[i % dim] += sign * radius;
                stats.add(&p);
            }
            Self { stats }
        }

        fn empty(dim: usize) -> Self {
            Self {
                stats: SufficientStats::new(dim),
            }
        }
    }

    impl DataSummary for Ball {
        fn dim(&self) -> usize {
            self.stats.dim()
        }
        fn n(&self) -> u64 {
            self.stats.n()
        }
        fn rep(&self) -> Vec<f64> {
            self.stats.rep().unwrap()
        }
        fn extent(&self) -> f64 {
            self.stats.extent()
        }
        fn nn_dist(&self, k: usize) -> f64 {
            self.stats.nn_dist(k)
        }
    }

    #[test]
    fn distance_of_far_bubbles_is_gap_plus_nn() {
        let a = Ball::new(&[0.0, 0.0], 1.0, 20);
        let b = Ball::new(&[50.0, 0.0], 1.0, 20);
        let d = bubble_distance(&a, &b);
        let expect = 50.0 - a.extent() - b.extent() + a.nn_dist(1) + b.nn_dist(1);
        assert!((d - expect).abs() < 1e-9);
        assert!(d < 50.0 && d > 40.0);
    }

    #[test]
    fn distance_of_overlapping_bubbles_is_max_nn() {
        let a = Ball::new(&[0.0, 0.0], 5.0, 10);
        let b = Ball::new(&[1.0, 0.0], 5.0, 40);
        let d = bubble_distance(&a, &b);
        assert!((d - a.nn_dist(1).max(b.nn_dist(1))).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Ball::new(&[3.0, 4.0], 2.0, 15);
        let b = Ball::new(&[30.0, -7.0], 0.5, 8);
        assert_eq!(bubble_distance(&a, &b), bubble_distance(&b, &a));
    }

    /// Drains `reach` through [`relax_and_pick`] with no relaxation (an
    /// infinite core distance), starting from the unprocessed list
    /// `pending`; returns the picked indices in order.
    fn drain_picks(reach: &[f64], mut pending: Vec<usize>) -> Vec<usize> {
        let row = vec![f64::NAN; reach.len()];
        let mut reach = reach.to_vec();
        let mut picks = Vec::new();
        while let Some(pos) = relax_and_pick(&row, f64::INFINITY, 1.0, &pending, &mut reach) {
            picks.push(pending.swap_remove(pos));
        }
        picks
    }

    #[test]
    fn argmin_scan_picks_nan_inf_and_ties_deterministically() {
        // Ascending `total_cmp` (so -0.0 before 0.0), ties by index; ∞ and
        // NaN mean "never reached" and are never picked.
        let values = [f64::NAN, 1.0, -f64::NAN, 0.5, f64::INFINITY, 1.0, 0.0, -0.0];
        let want = vec![7, 6, 3, 1, 5];
        let n = values.len();
        // Whatever order the unprocessed list is in, the picks are the
        // same.
        for shift in 0..n {
            for reversed in [false, true] {
                let mut pending: Vec<usize> = (0..n).collect();
                pending.rotate_left(shift);
                if reversed {
                    pending.reverse();
                }
                assert_eq!(drain_picks(&values, pending.clone()), want, "{pending:?}");
            }
        }
        // Whatever slot each value sits in, the picks are exactly the
        // reached slots sorted by (reach.total_cmp, index).
        for shift in 0..n {
            let mut placed = values.to_vec();
            placed.rotate_left(shift);
            let mut sorted: Vec<usize> = (0..n).filter(|&j| placed[j] < f64::INFINITY).collect();
            sorted.sort_by(|&a, &b| placed[a].total_cmp(&placed[b]).then(a.cmp(&b)));
            assert_eq!(drain_picks(&placed, (0..n).collect()), sorted, "{placed:?}");
        }
    }

    #[test]
    fn nan_pair_distances_are_no_edges() {
        // A NaN bubble distance (conceivable from non-finite summary
        // stats) satisfies no `d <= eps` test, so it must behave as "no
        // edge": the expansion completes, visits every summary, and the
        // NaN never infects a reachability value or panics the
        // neighbour sort.
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 30),
            Ball::new(&[3.0, 0.0], 1.0, 30),
            Ball::new(&[100.0, 0.0], 1.0, 30),
        ];
        let live = [0usize, 1, 2];
        let mut pair = vec![0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    pair[i * 3 + j] = bubble_distance(&summaries[i], &summaries[j]);
                }
            }
        }
        pair[2] = f64::NAN; // poison 0↔2 ...
        pair[6] = f64::NAN; // ... in both directions
        let a = optics_from_matrix(&summaries, &live, &pair, f64::INFINITY, 10);
        assert_eq!(a.order.len(), 3, "every summary is still visited");
        assert!(
            a.reachability.iter().all(|r| !r.is_nan()),
            "NaN never becomes a reachability: {:?}",
            a.reachability
        );
        let b = optics_from_matrix(&summaries, &live, &pair, f64::INFINITY, 10);
        assert_eq!(a.order, b.order);
        assert_eq!(a.reachability, b.reachability);
    }

    #[test]
    fn ordering_visits_all_nonempty_summaries() {
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 30),
            Ball::new(&[3.0, 0.0], 1.0, 30),
            Ball::empty(2),
            Ball::new(&[100.0, 0.0], 1.0, 30),
            Ball::new(&[103.0, 0.0], 1.0, 30),
        ];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 10);
        assert_eq!(ord.len(), 4);
        assert!(!ord.order.contains(&2), "empty summary skipped");
        // Group structure: the two groups are contiguous in the order.
        let group = |i: usize| usize::from(i >= 3);
        let seq: Vec<usize> = ord.order.iter().map(|&i| group(i)).collect();
        let switches = seq.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "order {:?}", ord.order);
    }

    #[test]
    fn gap_shows_as_large_reachability() {
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 30),
            Ball::new(&[3.0, 0.0], 1.0, 30),
            Ball::new(&[100.0, 0.0], 1.0, 30),
            Ball::new(&[103.0, 0.0], 1.0, 30),
        ];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 10);
        let jumps = ord
            .reachability
            .iter()
            .filter(|r| r.is_finite() && **r > 50.0)
            .count();
        assert_eq!(jumps, 1);
    }

    #[test]
    fn expansion_emits_n_entries_per_bubble() {
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 5),
            Ball::new(&[10.0, 0.0], 1.0, 3),
        ];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 2);
        // Bubble i's members are ids 100*i .. 100*i + n.
        let plot = ord.expand(|i| {
            let n = summaries[i].n();
            (0..n).map(move |j| 100 * i as u64 + j)
        });
        assert_eq!(plot.len(), 8);
        // First entry of each bubble is the bubble reachability (the very
        // first is infinite); followers sit at the virtual reachability.
        let inf = plot
            .entries()
            .iter()
            .filter(|e| e.reachability.is_infinite())
            .count();
        assert_eq!(inf, 1);
    }

    #[test]
    fn small_bubbles_accumulate_neighbors_for_core_distance() {
        // Each bubble holds 2 points; min_pts = 5 forces neighbour
        // accumulation. A tight chain is still one cluster.
        let summaries: Vec<Ball> = (0..6)
            .map(|i| Ball::new(&[i as f64, 0.0], 0.2, 2))
            .collect();
        let ord = optics_bubbles(&summaries, f64::INFINITY, 5);
        assert_eq!(ord.len(), 6);
        let finite = ord.reachability.iter().filter(|r| r.is_finite()).count();
        assert_eq!(finite, 5, "single chain after the first seed");
    }

    #[test]
    fn all_empty_summaries_yield_empty_ordering() {
        let summaries = vec![Ball::empty(2), Ball::empty(2)];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 3);
        assert!(ord.is_empty());
        let plot = ord.expand(|_| std::iter::empty());
        assert!(plot.is_empty());
    }
}
