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
//! dense passes over it that lower its neighbours' reachabilities and
//! pick the next bubble by argmin ([`optics_from_matrix`] describes the
//! walk). An ordering costs `O(s²)` time and `O(s·d)` memory with no
//! sorting.
//!
//! **Layout.** The walk extracts the live summaries once into columns —
//! one per coordinate, plus extent, `nnDist(1)`, point count, live index
//! and reachability — and keeps the unprocessed bubbles compacted at
//! positions `[0, m)`: the picked bubble is swapped to position `m − 1`
//! in every column. Every pass is then one contiguous loop over `[0, m)`
//! with no gather through an index list, and the row kernel and the
//! relax pass are branch-free, so LLVM vectorises them without `unsafe`,
//! intrinsics or a target flag.
//!
//! **Order contract.** The row kernel evaluates each pair exactly as
//! [`bubble_distance`] does with the lower live index first, so its bits
//! are the ones a matrix's upper triangle would hold: the squared
//! distance accumulates coordinate `k` into accumulator `k mod 4` and
//! reduces `(a0 + a1) + (a2 + a3)` (the canonical order of
//! [`idb_geometry::metric::sq_dist`]); then come the `sqrt`, the gap
//! (minus the summed extents) and `(gap + n_lo) + n_hi` when it is not
//! negative, else the larger of `n_lo` and `n_hi` with a signed-zero tie
//! resolved to `n_lo`, where `lo` and `hi` are picked by selects on the
//! live indices. Both arms are computed and one is selected. Up to
//! `d = 4` every coordinate is fused into one pass; larger `d`
//! accumulates column by column into four lane buffers per chunk of
//! positions, which is the same order. Every operation is IEEE-754 and
//! Rust neither contracts nor reassociates them, so vector and scalar
//! code give the same bits.

use crate::reachability::ReachabilityPlot;
use idb_core::DataSummary;
use idb_geometry::dist;

/// Distance between two non-empty data summaries.
///
/// # Panics
/// Panics (in debug builds) if either summary is empty.
#[must_use]
pub fn bubble_distance<S: DataSummary>(a: &S, b: &S) -> f64 {
    debug_assert!(a.n() > 0 && b.n() > 0, "distance of empty summaries");
    let gap = dist(&a.rep(), &b.rep()) - (a.extent() + b.extent());
    if gap >= 0.0 {
        gap + a.nn_dist(1) + b.nn_dist(1)
    } else {
        ordered_max(a.nn_dist(1), b.nn_dist(1))
    }
}

/// `a.max(b)` with the sign of a zero pinned: `−0.0` against `+0.0`
/// returns `a`, where `f64::max` may return either (LLVM treats it as
/// commutative, and swaps its operands when vectorising). A NaN yields
/// the other operand, as in `f64::max`.
#[inline(always)]
fn ordered_max(a: f64, b: f64) -> f64 {
    if b > a || a.is_nan() {
        b
    } else {
        a
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
/// Each bubble's distance row is computed by the column kernel when the
/// walk reaches it ([`optics_from_matrix`] describes the walk). No
/// `s × s` matrix is materialised, so working memory is `O(s·d)`.
///
/// # Panics
/// Panics if `min_pts == 0` or if more than `u32::MAX` summaries are
/// non-empty.
#[must_use]
pub fn optics_bubbles<S: DataSummary>(summaries: &[S], eps: f64, min_pts: usize) -> BubbleOrdering {
    assert!(min_pts > 0, "min_pts must be positive");
    // Dense working set of non-empty summaries.
    let live: Vec<usize> = (0..summaries.len())
        .filter(|&i| summaries[i].n() > 0)
        .collect();
    walk(summaries, &live, eps, min_pts, Columns::distance_row)
}

/// The OPTICS walk over a *precomputed* dense pairwise distance matrix.
///
/// `live` lists the indices (into `summaries`) to order — every listed
/// summary must be non-empty — and `pair[a * live.len() + b]` for
/// `a < b` must hold `bubble_distance` between `live[a]` and `live[b]`;
/// only that upper triangle is used. This is the walk [`optics_bubbles`]
/// runs, reading each row from `pair` through the index column instead
/// of computing it, so a matrix with the same bits gives a bit-identical
/// ordering.
///
/// The walk is a dense Prim-style scan rather than a best-first heap.
/// The unprocessed bubbles sit compacted at column positions `[0, m)`;
/// the picked bubble is swapped to position `m − 1` and leaves that
/// range. The walk computes its distance row into one reusable buffer:
/// over the unprocessed bubbles only when it holds at least `min_pts`
/// points (its core distance is `nnDist(min_pts)`), over every other
/// bubble when it holds fewer (its core distance counts processed
/// neighbours too, taken by ascending `(distance.total_cmp, index)`;
/// a bounded insertion keeps only the shortest sorted prefix whose point
/// counts reach `min_pts − n`). Two passes over `[0, m)` follow:
///
/// 1. a branch-free relax lowers `reach[j]` to `max(core, d)` for every
///    `eps`-neighbour `j` (unless `core` is infinite) and tracks the least
///    reachability under `<`;
/// 2. the pick takes the least `(reach.total_cmp, index)` among the
///    entries equal to that minimum.
///
/// The pick is the unprocessed bubble of least finite reachability under
/// `(total_cmp, index)`, as it was for the single fused pass this walk
/// replaced: a reachability is never NaN (a NaN distance fails
/// `d <= eps`), so `<` orders it like `total_cmp` except that `−0.0 ==
/// +0.0`, and the second pass separates those again. That is the order a
/// lazy-deletion min-heap pops, since each bubble is pushed at most once
/// per step with a strictly lower reachability than any earlier push.
/// When no reachability is finite the component is exhausted and the
/// lowest unprocessed index starts the next one. One ordering costs
/// `O(s²)` time and no sorting.
///
/// # Panics
/// Panics if `min_pts == 0`, if `pair.len() != live.len()²`, if
/// `live.len() > u32::MAX`, or (in debug builds) if a listed summary is
/// empty.
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
    walk(summaries, live, eps, min_pts, |cols, cur, row| {
        let a = cols.idx[cur] as usize;
        for (d, &b) in row.iter_mut().zip(&cols.idx) {
            let b = b as usize;
            *d = if a < b {
                pair[a * s + b]
            } else {
                pair[b * s + a]
            };
        }
    })
}

/// The live summaries' parts as columns, indexed by *position*. The walk
/// permutes positions (see [`Columns::swap`]); `idx` maps each position
/// back to its live index, which orients pairs and breaks ties.
#[derive(Debug)]
struct Columns {
    /// Representative coordinates, one column per dimension.
    rep: Vec<Vec<f64>>,
    /// `extent()`.
    ext: Vec<f64>,
    /// `nn_dist(1)`.
    nn1: Vec<f64>,
    /// `n()`.
    count: Vec<u64>,
    /// Live index: the position in `live` the summary was extracted from.
    idx: Vec<u32>,
    /// Reachability, `∞` until lowered.
    reach: Vec<f64>,
}

/// Positions per lane-accumulator chunk of the `d > 4` kernel.
const CHUNK: usize = 64;

impl Columns {
    /// Extracts `summaries[live[..]]` (each must be non-empty) at
    /// positions `0..live.len()`.
    fn extract<S: DataSummary>(summaries: &[S], live: &[usize]) -> Self {
        let s = live.len();
        assert!(u32::try_from(s).is_ok(), "too many summaries");
        let dim = live.first().map_or(0, |&i| summaries[i].dim());
        let mut cols = Self {
            rep: (0..dim).map(|_| Vec::with_capacity(s)).collect(),
            ext: Vec::with_capacity(s),
            nn1: Vec::with_capacity(s),
            count: Vec::with_capacity(s),
            idx: (0..s as u32).collect(),
            reach: vec![f64::INFINITY; s],
        };
        for &i in live {
            let summary = &summaries[i];
            for (col, x) in cols.rep.iter_mut().zip(summary.rep()) {
                col.push(x);
            }
            cols.ext.push(summary.extent());
            cols.nn1.push(summary.nn_dist(1));
            cols.count.push(summary.n());
        }
        cols
    }

    /// Swaps positions `a` and `b` in every column.
    fn swap(&mut self, a: usize, b: usize) {
        for col in &mut self.rep {
            col.swap(a, b);
        }
        self.ext.swap(a, b);
        self.nn1.swap(a, b);
        self.count.swap(a, b);
        self.idx.swap(a, b);
        self.reach.swap(a, b);
    }

    /// Writes the bubble distance between position `cur` and every
    /// position `j < row.len()` into `row[j]` (`row[cur]` is left
    /// meaningless), under the module's order contract.
    fn distance_row(&self, cur: usize, row: &mut [f64]) {
        match self.rep.len() {
            1 => self.fused_row::<1>(cur, row),
            2 => self.fused_row::<2>(cur, row),
            3 => self.fused_row::<3>(cur, row),
            4 => self.fused_row::<4>(cur, row),
            _ => self.lane_row(cur, row),
        }
    }

    /// [`Self::distance_row`] for `d = D ≤ 4`: one pass, every lane in
    /// registers.
    fn fused_row<const D: usize>(&self, cur: usize, row: &mut [f64]) {
        let end = row.len();
        let rep: [&[f64]; D] = std::array::from_fn(|k| &self.rep[k][..end]);
        let x: [f64; D] = std::array::from_fn(|k| self.rep[k][cur]);
        let (ext, nn1, idx) = (&self.ext[..end], &self.nn1[..end], &self.idx[..end]);
        let own = Own::at(self, cur);
        for j in 0..end {
            let mut acc = [0.0f64; 4];
            for k in 0..D {
                let t = x[k] - rep[k][j];
                acc[k % 4] += t * t;
            }
            let sq = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            row[j] = own.distance(sq, ext[j], nn1[j], idx[j]);
        }
    }

    /// [`Self::distance_row`] for any `d`: per chunk of positions, lane
    /// `k` accumulates column by column into lane buffer `k mod 4`.
    fn lane_row(&self, cur: usize, row: &mut [f64]) {
        let own = Own::at(self, cur);
        for (c, out) in row.chunks_mut(CHUNK).enumerate() {
            let span = c * CHUNK..c * CHUNK + out.len();
            let mut acc = [[0.0f64; CHUNK]; 4];
            for (k, col) in self.rep.iter().enumerate() {
                let x = col[cur];
                for (a, &y) in acc[k % 4].iter_mut().zip(&col[span.clone()]) {
                    let t = x - y;
                    *a += t * t;
                }
            }
            let (ext, nn1, idx) = (
                &self.ext[span.clone()],
                &self.nn1[span.clone()],
                &self.idx[span],
            );
            for j in 0..out.len() {
                let sq = (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]);
                out[j] = own.distance(sq, ext[j], nn1[j], idx[j]);
            }
        }
    }
}

/// The non-coordinate parts of the bubble a row is computed for.
#[derive(Clone, Copy)]
struct Own {
    ext: f64,
    nn1: f64,
    idx: u32,
}

impl Own {
    fn at(cols: &Columns, cur: usize) -> Self {
        Self {
            ext: cols.ext[cur],
            nn1: cols.nn1[cur],
            idx: cols.idx[cur],
        }
    }

    /// [`bubble_distance`] to the bubble with extent `ext`, `nnDist(1)`
    /// `nn1` and live index `idx`, from the squared representative
    /// distance `sq`, oriented with the lower live index first. Both arms
    /// are computed and one is selected, so the loop stays branch-free.
    #[inline(always)]
    fn distance(self, sq: f64, ext: f64, nn1: f64, idx: u32) -> f64 {
        let gap = sq.sqrt() - (self.ext + ext);
        let other_lo = idx < self.idx;
        let lo = if other_lo { nn1 } else { self.nn1 };
        let hi = if other_lo { self.nn1 } else { nn1 };
        let apart = (gap + lo) + hi;
        let overlap = ordered_max(lo, hi);
        if gap >= 0.0 {
            apart
        } else {
            overlap
        }
    }
}

/// The walk behind [`optics_bubbles`] and [`optics_from_matrix`] (whose
/// doc describes it) over the column layout of the module doc:
/// `fill(cols, cur, row)` writes the distance between position `cur` and
/// every position `j < row.len()` into `row[j]`, evaluated with the lower
/// live index first (`row[cur]` may hold anything).
fn walk<S: DataSummary>(
    summaries: &[S],
    live: &[usize],
    eps: f64,
    min_pts: usize,
    fill: impl Fn(&Columns, usize, &mut [f64]),
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
    let mut cols = Columns::extract(summaries, live);
    let mut row = vec![f64::NAN; s];
    let mut nearest = Vec::new();

    // `next` is the position of the argmin picked by the previous step;
    // when it is `None` the component is exhausted and the lowest
    // unprocessed index starts the next one (at reachability ∞, which
    // `reach` still holds for it).
    let mut next = None;
    for m in (0..s).rev() {
        let pos = next.unwrap_or_else(|| {
            (0..=m)
                .min_by_key(|&p| cols.idx[p])
                .expect("a bubble is unprocessed")
        });
        // The current bubble leaves the pending range `[0, m)`.
        cols.swap(pos, m);
        let i = live[cols.idx[m] as usize];
        // One `nnDist(min_pts)` per step: the virtual reachability, and
        // the core distance of a bubble holding `min_pts` points.
        let virtual_reach = summaries[i].nn_dist(min_pts);
        ordering.order.push(i);
        ordering.reachability.push(cols.reach[m]);
        ordering.virtual_reachability.push(virtual_reach);
        let core = if cols.count[m] < min_pts as u64 {
            fill(&cols, m, &mut row);
            let needed = min_pts as u64 - cols.count[m];
            core_distance(&cols, m, &row, eps, &mut nearest, needed)
        } else {
            fill(&cols, m, &mut row[..m]);
            virtual_reach
        };
        next = relax_and_pick(&row[..m], core, eps, &cols.idx[..m], &mut cols.reach[..m]);
    }
    ordering
}

/// Positions per skip test of [`core_distance`]'s scan.
const SCAN: usize = 16;

/// Lanes of the running minimum in [`lower_all`].
const LANES: usize = 8;

/// Sets `reach[j] = lower(reach[j], row[j])` for every `j` and returns
/// the least result under `<` (`∞` for none). Each of [`LANES`] lanes
/// keeps its own running minimum, so LLVM vectorises the loop; NaN is
/// never stored, so the least value does not depend on the lane split.
#[inline(always)]
fn lower_all(reach: &mut [f64], row: &[f64], lower: impl Fn(f64, f64) -> f64) -> f64 {
    let min = |a: f64, b: f64| if b < a { b } else { a };
    let mut least = [f64::INFINITY; LANES];
    let mut reach = reach.chunks_exact_mut(LANES);
    let mut row = row.chunks_exact(LANES);
    for (r, d) in reach.by_ref().zip(row.by_ref()) {
        for l in 0..LANES {
            r[l] = lower(r[l], d[l]);
            least[l] = min(least[l], r[l]);
        }
    }
    for (r, &d) in reach.into_remainder().iter_mut().zip(row.remainder()) {
        *r = lower(*r, d);
        least[0] = min(least[0], *r);
    }
    least.into_iter().fold(f64::INFINITY, min)
}

/// Core distance of the bubble at position `cur`, which holds fewer than
/// `min_pts` points: the distance at which its `eps`-neighbours in `row`
/// (every position but `cur`), taken by ascending
/// `(distance.total_cmp, index)`, bring the point count to `min_pts`
/// (`∞` if they never do).
///
/// `nearest` is kept, by bounded insertion, as the shortest sorted
/// prefix of the neighbours seen so far whose counts reach the
/// `min_pts − n` points still needed — at most `min_pts − n` entries,
/// since every bubble holds a point. A neighbour after its last entry
/// cannot join, and the key is total (indices are distinct), so the
/// final prefix is exactly a full sort's.
fn core_distance(
    cols: &Columns,
    cur: usize,
    row: &[f64],
    eps: f64,
    nearest: &mut Vec<(f64, u32, u64)>,
    needed: u64,
) -> f64 {
    let order = |a: &(f64, u32, u64), b: &(f64, u32, u64)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    nearest.clear();
    let mut held = 0;
    // Only `d <= bound` can join: `eps` until `nearest` holds the needed
    // points, then its last distance. A NaN never passes, and a whole
    // chunk of positions is skipped by one vectorised test. The
    // processed bubbles, most recent first, are scanned before the
    // pending ones: the walk moves between neighbours, so `bound`
    // tightens early. The key is total, so the scan order does not
    // change the result.
    let mut bound = eps;
    for span in [cur + 1..row.len(), 0..cur] {
        for (c, chunk) in row[span.clone()].chunks(SCAN).enumerate() {
            if !chunk.iter().fold(false, |any, &d| any | (d <= bound)) {
                continue;
            }
            for (j, &d) in (span.start + c * SCAN..).zip(chunk) {
                let entry = (d, cols.idx[j], cols.count[j]);
                let joins = d <= bound
                    && (held < needed || order(&entry, &nearest[nearest.len() - 1]).is_lt());
                if !joins {
                    continue;
                }
                // Insertion step, then drop the entries the prefix no
                // longer needs.
                nearest.push(entry);
                let mut at = nearest.len() - 1;
                while at > 0 && order(&entry, &nearest[at - 1]).is_lt() {
                    nearest[at] = nearest[at - 1];
                    at -= 1;
                }
                nearest[at] = entry;
                held += entry.2;
                while held - nearest[nearest.len() - 1].2 >= needed {
                    held -= nearest.pop().expect("held > 0").2;
                }
                if held >= needed {
                    bound = nearest[nearest.len() - 1].0;
                }
            }
        }
    }
    if held >= needed {
        nearest[nearest.len() - 1].0
    } else {
        f64::INFINITY
    }
}

/// The two passes over the pending positions `[0, m)` (the slices' common
/// length): unless `core` is infinite (the bubble is not a core object),
/// lower `reach[j]` to `max(core, row[j])` wherever `row[j] <= eps`,
/// tracking the least reachability under `<`; then return the position
/// of the least `(reach.total_cmp, idx)` among the entries equal to it,
/// or `None` when no reachability is finite (the component is
/// exhausted). The key is total, so the pick does not depend on the
/// order of the positions.
///
/// A reachability is only ever stored when it is strictly below the
/// previous one, starting from `∞`, so "below `∞`" here means "was ever
/// lowered"; a NaN is never stored, and would never be picked.
fn relax_and_pick(
    row: &[f64],
    core: f64,
    eps: f64,
    idx: &[u32],
    reach: &mut [f64],
) -> Option<usize> {
    let least = if core.is_infinite() {
        lower_all(reach, row, |r, _| r)
    } else {
        lower_all(reach, row, |r, d| {
            let candidate = core.max(d);
            let lowered = if candidate < r { candidate } else { r };
            if d <= eps {
                lowered
            } else {
                r
            }
        })
    };
    if least == f64::INFINITY {
        return None;
    }
    let mut best: Option<usize> = None;
    for (p, &r) in reach.iter().enumerate() {
        if r == least
            && best.is_none_or(|b| r.total_cmp(&reach[b]).then(idx[p].cmp(&idx[b])).is_lt())
        {
            best = Some(p);
        }
    }
    best
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
    /// infinite core distance), starting with the unprocessed indices
    /// `pending` at positions `0..` (index `j` carries `reach[j]`) and
    /// swapping each pick past the pending range as the walk does;
    /// returns the picked indices in order.
    fn drain_picks(reach: &[f64], pending: Vec<usize>) -> Vec<usize> {
        let mut idx: Vec<u32> = pending.iter().map(|&j| j as u32).collect();
        let mut at: Vec<f64> = pending.iter().map(|&j| reach[j]).collect();
        let row = vec![f64::NAN; idx.len()];
        let mut picks = Vec::new();
        let mut m = idx.len();
        while let Some(pos) = relax_and_pick(&row[..m], f64::INFINITY, 1.0, &idx[..m], &mut at[..m])
        {
            m -= 1;
            idx.swap(pos, m);
            at.swap(pos, m);
            picks.push(idx[m] as usize);
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
