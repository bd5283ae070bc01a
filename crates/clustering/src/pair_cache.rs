//! Incrementally maintained pairwise bubble-distance matrix — the
//! candidate-generation stage of OPTICS, made delta-refreshable.
//!
//! [`optics_bubbles_with`](crate::optics_bubbles::optics_bubbles_with)
//! recomputes all `O(s²)` pairwise distances every epoch. But
//! [`bubble_distance`](crate::optics_bubbles::bubble_distance) is a pure
//! function of the two summaries' sufficient statistics, so a pair whose
//! endpoints are both unchanged since the previous epoch keeps its cached
//! value bit-for-bit.
//! [`PairCache`] exploits that: callers mirror the maintainer's slot
//! mutations ([`PairCache::push`], [`PairCache::swap_remove`] — a moved
//! slot keeps its cached distances, only its index changes) and mark
//! changed slots dirty ([`PairCache::touch`]); [`PairCache::refresh`]
//! then recomputes *only the pairs touching a dirty slot* — one
//! representative distance per unordered pair, composed into both
//! directed entries — leaving clean×clean pairs untouched. The refreshed
//! matrix is bit-identical to a from-scratch computation, so feeding its
//! live sub-matrix ([`PairCache::live_view`], filled into a
//! caller-owned buffer reused across epochs) to
//! [`optics_from_matrix`](crate::optics_bubbles::optics_from_matrix)
//! yields exactly the ordering a full recompute would — the property the
//! delta-clustering equivalence suites assert over every dynamic
//! scenario.

use crate::optics_bubbles::compose_bubble_distance;
use idb_core::DataSummary;
use idb_geometry::parallel::run_chunks;
use idb_geometry::{dist, Parallelism};

/// A dense matrix of bubble distances over a slot space that mutates
/// like the maintainer's bubble vector (push / swap-remove / in-place
/// stat changes). Entries between empty summaries are `NaN`
/// placeholders; the diagonal is `0.0` (matching the from-scratch
/// matrix, whose diagonal is never read).
///
/// The matrix is stored *directed*: `rows[i][j]` is exactly
/// `bubble_distance(summary_i, summary_j)`, which can differ from the
/// opposite orientation in the last bit (the two flanking
/// nearest-neighbour terms are added in argument order). The
/// from-scratch matrix orients every pair by live *position* (lower
/// position first), and swap-removes permute slots across epochs, so
/// only a cache keyed by `(row summary, column summary)` stays correct
/// under remapping; [`PairCache::live_view`] re-orients by position on
/// the way out. Both orientations share one representative distance
/// (`dist` is exactly symmetric), so a refresh computes it once per
/// pair and composes each directed entry from it.
#[derive(Debug, Clone, Default)]
pub struct PairCache {
    /// `rows[i][j]` = cached `bubble_distance` from slot `i` to slot `j`.
    rows: Vec<Vec<f64>>,
    /// Slots whose summary changed since the last refresh.
    dirty: Vec<bool>,
    /// Unordered pairs the last refresh recomputed.
    pair_evals: usize,
    /// Reusable per-refresh working memory (summary parts, dirty list);
    /// never carries state between refreshes.
    scratch: RefreshScratch,
}

/// Reusable buffers for [`PairCache::refresh`]: the per-slot summary parts
/// (representatives in one dimension-strided flat buffer, extents,
/// `nnDist(1)`, emptiness flags) extracted once per refresh — `rep()` is an
/// allocating trait call, so extracting per *slot* instead of per *pair*
/// removes the `O(s²)` allocation churn — plus the dirty-slot list.
#[derive(Debug, Clone, Default)]
struct RefreshScratch {
    reps: Vec<f64>,
    extents: Vec<f64>,
    nn1: Vec<f64>,
    empty: Vec<bool>,
    dirty_rows: Vec<usize>,
}

impl PairCache {
    /// An empty cache over zero slots.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Slots currently marked dirty.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Discards everything and re-sizes to `slots`, all dirty — the
    /// fallback when the change stream was interrupted and nothing can be
    /// trusted.
    pub fn reset(&mut self, slots: usize) {
        self.rows = (0..slots)
            .map(|i| {
                let mut row = vec![f64::NAN; slots];
                row[i] = 0.0;
                row
            })
            .collect();
        self.dirty = vec![true; slots];
    }

    /// Appends a new slot (dirty until refreshed).
    pub fn push(&mut self) {
        let n = self.rows.len();
        for row in &mut self.rows {
            row.push(f64::NAN);
        }
        let mut new_row = vec![f64::NAN; n + 1];
        new_row[n] = 0.0;
        self.rows.push(new_row);
        self.dirty.push(true);
    }

    /// Marks slot `i` dirty: its summary statistics changed, so every
    /// distance involving it must be recomputed.
    pub fn touch(&mut self, i: usize) {
        self.dirty[i] = true;
    }

    /// Removes slot `i` with `Vec::swap_remove` semantics: the former
    /// last slot moves into `i`, carrying its cached distances and dirty
    /// flag with it (a moved bubble is unchanged — only its index is).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn swap_remove(&mut self, i: usize) {
        self.rows.swap_remove(i);
        for row in &mut self.rows {
            row.swap_remove(i);
        }
        self.dirty.swap_remove(i);
    }

    /// Recomputes every dirty slot's row *and* column against all slots
    /// (the *touched neighborhoods* of this epoch), leaving clean×clean
    /// pairs untouched. Returns the number of slots recomputed — the work
    /// metric the delta-vs-full benchmark reports.
    ///
    /// Each touched **unordered** pair costs one representative distance
    /// `dist(rep_i, rep_j)`, from which both directed entries are composed
    /// (see the type docs); a dirty×dirty pair is done once, from the
    /// lower slot's row. With `D` dirty slots out of `s` that is
    /// `D·s − D(D+1)/2` pairs ([`pair_evals`](Self::pair_evals)). The
    /// computations are pure and fan out over contiguous chunks of dirty
    /// slots, so the refreshed matrix is bit-identical under every
    /// [`Parallelism`] mode — and bit-identical to a from-scratch matrix
    /// over the same summaries.
    ///
    /// # Panics
    /// Panics if `summaries.len()` differs from the tracked slot count.
    pub fn refresh<S: DataSummary + Sync>(&mut self, summaries: &[S], par: Parallelism) -> usize {
        let s = self.rows.len();
        assert_eq!(summaries.len(), s, "summary slice must cover every slot");
        let scratch = &mut self.scratch;
        scratch.dirty_rows.clear();
        scratch.dirty_rows.extend((0..s).filter(|&i| self.dirty[i]));
        self.pair_evals = 0;
        if scratch.dirty_rows.is_empty() {
            return 0;
        }
        // Extract every slot's summary parts once (a dirty slot's row
        // touches all slots): rep() allocates per call, so per-slot
        // extraction into the flat scratch replaces O(s · dirty) trait
        // allocations inside the pair loop.
        let dim = summaries.iter().find(|x| x.n() > 0).map_or(1, |x| x.dim());
        scratch.reps.clear();
        scratch.extents.clear();
        scratch.nn1.clear();
        scratch.empty.clear();
        for x in summaries {
            if x.n() == 0 {
                scratch.empty.push(true);
                let pad = scratch.reps.len() + dim;
                scratch.reps.resize(pad, 0.0);
                scratch.extents.push(0.0);
                scratch.nn1.push(0.0);
            } else {
                scratch.empty.push(false);
                scratch.reps.extend_from_slice(&x.rep());
                scratch.extents.push(x.extent());
                scratch.nn1.push(x.nn_dist(1));
            }
        }
        let (reps, extents, nn1, empty, dirty) = (
            &scratch.reps,
            &scratch.extents,
            &scratch.nn1,
            &scratch.empty,
            &self.dirty,
        );
        // Both orientations of pair {a, b} from one rep distance; each is
        // bit-identical to bubble_distance over the original summaries in
        // that orientation (same parts, same operations, same order).
        let directed = |a: usize, b: usize| {
            if empty[a] || empty[b] {
                (f64::NAN, f64::NAN)
            } else {
                let d = dist(&reps[a * dim..(a + 1) * dim], &reps[b * dim..(b + 1) * dim]);
                (
                    compose_bubble_distance(d, extents[a], nn1[a], extents[b], nn1[b]),
                    compose_bubble_distance(d, extents[b], nn1[b], extents[a], nn1[a]),
                )
            }
        };
        // Dirty slot i owns its pairs with every clean slot and with every
        // dirty slot above it.
        let owned = |i: usize| (0..s).filter(move |&j| j != i && !(dirty[j] && j < i));
        if par.effective_threads() == 1 {
            // Serial path: write both entries in place — no per-slot
            // buffers at all.
            for &i in &scratch.dirty_rows {
                for j in owned(i) {
                    let (ij, ji) = directed(i, j);
                    self.rows[i][j] = ij;
                    self.rows[j][i] = ji;
                    self.pair_evals += 1;
                }
            }
        } else {
            let computed = run_chunks(&scratch.dirty_rows, par.effective_threads(), |chunk| {
                chunk
                    .iter()
                    .map(|&i| {
                        owned(i)
                            .map(|j| directed(i, j))
                            .collect::<Vec<(f64, f64)>>()
                    })
                    .collect::<Vec<Vec<(f64, f64)>>>()
            });
            for (&i, pairs) in scratch
                .dirty_rows
                .iter()
                .zip(computed.into_iter().flatten())
            {
                for (j, (ij, ji)) in owned(i).zip(pairs) {
                    self.rows[i][j] = ij;
                    self.rows[j][i] = ji;
                    self.pair_evals += 1;
                }
            }
        }
        for d in &mut self.dirty {
            *d = false;
        }
        scratch.dirty_rows.len()
    }

    /// Unordered pairs the most recent [`refresh`](Self::refresh)
    /// recomputed — one representative distance each, except that a pair
    /// with an empty endpoint is set to the `NaN` placeholder without one.
    #[must_use]
    pub fn pair_evals(&self) -> usize {
        self.pair_evals
    }

    /// Fills `out` with the dense sub-matrix over the slots in `order`,
    /// laid out exactly like the matrix `optics_bubbles_with` builds
    /// internally: row-major over `order` positions, `0.0` diagonal, each
    /// pair oriented lower position first and mirrored — ready for
    /// [`optics_from_matrix`](crate::optics_bubbles::optics_from_matrix).
    /// `out`'s previous contents are discarded and its allocation is
    /// reused, so a caller that views every epoch keeps one buffer.
    ///
    /// Callers must [`refresh`](Self::refresh) first and list only
    /// non-empty slots.
    ///
    /// # Panics
    /// Panics if a listed slot is out of range or (in debug builds) if
    /// any slot is still dirty or a selected entry is `NaN`.
    pub fn live_view(&self, order: &[usize], out: &mut Vec<f64>) {
        debug_assert!(self.dirty.iter().all(|&d| !d), "refresh before viewing");
        let s = order.len();
        out.clear();
        out.resize(s * s, 0.0);
        for (x, &a) in order.iter().enumerate() {
            for (y, &b) in order.iter().enumerate().skip(x + 1) {
                let v = self.rows[a][b];
                debug_assert!(!v.is_nan(), "live pair ({a}, {b}) has no cached distance");
                out[x * s + y] = v;
                out[y * s + x] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optics_bubbles::bubble_distance;
    use idb_core::SufficientStats;

    #[derive(Debug, Clone)]
    struct Ball {
        stats: SufficientStats,
    }

    impl Ball {
        fn new(center: &[f64], radius: f64, n: usize) -> Self {
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

    fn view(cache: &PairCache, order: &[usize]) -> Vec<f64> {
        let mut out = Vec::new();
        cache.live_view(order, &mut out);
        out
    }

    fn scratch_matrix(balls: &[Ball], order: &[usize]) -> Vec<f64> {
        let s = order.len();
        let mut out = vec![0.0f64; s * s];
        for (x, &a) in order.iter().enumerate() {
            for (y, &b) in order.iter().enumerate().skip(x + 1) {
                // Lower-position-first orientation, mirrored — exactly
                // how `optics_bubbles_with` fills its matrix.
                let v = bubble_distance(&balls[a], &balls[b]);
                out[x * s + y] = v;
                out[y * s + x] = v;
            }
        }
        out
    }

    #[test]
    fn reset_refresh_matches_scratch() {
        let balls: Vec<Ball> = (0..5)
            .map(|i| Ball::new(&[f64::from(i) * 3.0, 1.0], 0.5, 4 + i as usize))
            .collect();
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        let touched = cache.refresh(&balls, Parallelism::Serial);
        assert_eq!(touched, 5);
        let order: Vec<usize> = (0..5).collect();
        assert_eq!(view(&cache, &order), scratch_matrix(&balls, &order));
    }

    #[test]
    fn touch_recomputes_only_dirty_rows_yet_stays_exact() {
        let mut balls: Vec<Ball> = (0..6)
            .map(|i| Ball::new(&[f64::from(i), f64::from(i % 2)], 0.3, 5))
            .collect();
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        cache.refresh(&balls, Parallelism::Serial);

        balls[2] = Ball::new(&[40.0, 0.0], 0.3, 9);
        cache.touch(2);
        let touched = cache.refresh(&balls, Parallelism::Serial);
        assert_eq!(touched, 1);
        let order: Vec<usize> = (0..6).collect();
        assert_eq!(view(&cache, &order), scratch_matrix(&balls, &order));
    }

    #[test]
    fn each_touched_unordered_pair_is_evaluated_once() {
        let mut balls: Vec<Ball> = (0..9)
            .map(|i| Ball::new(&[f64::from(i) * 1.5, f64::from(i % 3)], 0.4, 3 + i as usize))
            .collect();
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        cache.refresh(&balls, Parallelism::Serial);
        assert_eq!(
            cache.pair_evals(),
            9 * 8 / 2,
            "a resync evaluates every pair once"
        );
        for (dirty, threads) in [(vec![4], 1), (vec![0, 3, 8], 1), (vec![1, 2, 5, 7], 3)] {
            for &i in &dirty {
                balls[i] = Ball::new(&[f64::from(i as u32) * 1.5, 7.0], 0.6, 2 + i);
                cache.touch(i);
            }
            let touched = cache.refresh(&balls, Parallelism::Threads(threads));
            let (d, s) = (dirty.len(), balls.len());
            assert_eq!(touched, d);
            assert_eq!(
                cache.pair_evals(),
                d * s - d * (d + 1) / 2,
                "dirty {dirty:?}"
            );
            let order: Vec<usize> = (0..s).collect();
            assert_eq!(view(&cache, &order), scratch_matrix(&balls, &order));
        }
        assert_eq!(cache.refresh(&balls, Parallelism::Serial), 0);
        assert_eq!(cache.pair_evals(), 0, "nothing dirty, nothing evaluated");
    }

    #[test]
    fn live_view_reuses_and_resizes_its_buffer() {
        let balls: Vec<Ball> = (0..6)
            .map(|i| Ball::new(&[f64::from(i) * 2.0, 1.0], 0.4, 5))
            .collect();
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        cache.refresh(&balls, Parallelism::Serial);
        let mut out = vec![f64::NAN; 100];
        for order in [vec![0, 1, 2, 3, 4, 5], vec![5, 2], vec![1, 3, 4]] {
            cache.live_view(&order, &mut out);
            assert_eq!(out, scratch_matrix(&balls, &order), "{order:?}");
        }
    }

    #[test]
    fn swap_remove_carries_the_moved_slots_distances() {
        let mut balls: Vec<Ball> = (0..5)
            .map(|i| Ball::new(&[f64::from(i) * 2.0, 0.0], 0.4, 6))
            .collect();
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        cache.refresh(&balls, Parallelism::Serial);

        balls.swap_remove(1);
        cache.swap_remove(1);
        // No refresh needed: the moved slot is unchanged.
        assert_eq!(cache.dirty_count(), 0);
        let order: Vec<usize> = (0..4).collect();
        assert_eq!(view(&cache, &order), scratch_matrix(&balls, &order));
    }

    #[test]
    fn push_then_refresh_adds_one_dirty_row() {
        let mut balls: Vec<Ball> = (0..4)
            .map(|i| Ball::new(&[f64::from(i) * 2.0, 0.0], 0.4, 6))
            .collect();
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        cache.refresh(&balls, Parallelism::Serial);

        balls.push(Ball::new(&[9.0, 9.0], 0.4, 3));
        cache.push();
        assert_eq!(cache.slots(), 5);
        let touched = cache.refresh(&balls, Parallelism::Serial);
        assert_eq!(touched, 1);
        let order: Vec<usize> = (0..5).collect();
        assert_eq!(view(&cache, &order), scratch_matrix(&balls, &order));
    }

    #[test]
    fn empty_slots_are_nan_and_skipped_by_live_order() {
        let balls = vec![
            Ball::new(&[0.0, 0.0], 0.4, 6),
            Ball {
                stats: SufficientStats::new(2),
            },
            Ball::new(&[4.0, 0.0], 0.4, 6),
        ];
        let mut cache = PairCache::new();
        cache.reset(balls.len());
        cache.refresh(&balls, Parallelism::Serial);
        let order = vec![0, 2];
        assert_eq!(view(&cache, &order), scratch_matrix(&balls, &order));
    }

    #[test]
    fn parallel_refresh_is_bit_identical_to_serial() {
        let balls: Vec<Ball> = (0..17)
            .map(|i| {
                Ball::new(
                    &[f64::from(i % 5) * 2.0, f64::from(i / 5)],
                    0.5,
                    3 + i as usize,
                )
            })
            .collect();
        let mut serial = PairCache::new();
        serial.reset(balls.len());
        serial.refresh(&balls, Parallelism::Serial);
        let order: Vec<usize> = (0..17).collect();
        let want = view(&serial, &order);
        for threads in [2, 4, 8] {
            let mut par = PairCache::new();
            par.reset(balls.len());
            par.refresh(&balls, Parallelism::Threads(threads));
            assert_eq!(view(&par, &order), want, "{threads} threads");
        }
    }
}
