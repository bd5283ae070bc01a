//! Nearest-seed search engines (paper, Section 3).
//!
//! Constructing data bubbles assigns every database point to its closest
//! seed. Lemma 1 of the paper lets us skip computing `dist(p, s_j)` whenever
//! the pairwise seed distance to a known-close seed already proves `s_j`
//! cannot win: the pairwise distances are precomputed once in a
//! [`SymMatrix`], and each avoided evaluation is recorded in the caller's
//! [`SearchStats`].
//!
//! [`NearestSeeds`] owns the seed coordinates (flat, contiguous) together
//! with their pairwise distance matrix and offers three interchangeable
//! engines, selected by [`SeedSearch`]:
//!
//! * [`SeedSearch::Brute`] — computes all `s` distances (what a standard
//!   implementation does); the accounting baseline.
//! * [`SeedSearch::Pruned`] — the Figure 2 algorithm, reworked: the search
//!   runs in *squared-distance* space (one `sqrt` per improvement instead
//!   of one per candidate), visits candidates in ascending order of their
//!   matrix-row distance to the start seed (a per-seed order cache kept
//!   fresh by [`push`](NearestSeeds::push)/[`replace`](NearestSeeds::replace)),
//!   prunes the whole remaining tail once the pairwise distance exceeds
//!   `d(p, start) + best` — by the triangle inequality nothing further out
//!   can beat or tie the best — and evaluates survivors with the
//!   early-exit kernel [`sq_dist_bounded`], charging abandoned evaluations
//!   to `stats.partial`.
//! * [`SeedSearch::KdTree`] — a k-d tree over the seeds (lazily built,
//!   invalidated by every mutation), best for low dimensionality and large
//!   seed counts; same accounting, with cut-off subtrees charged to
//!   `stats.pruned`.
//!
//! All three return **bit-identical** `(index, distance)` results: each
//! compares candidates by their squared distance (accumulated in the same
//! axis order), breaks exact ties by the lowest seed index, and takes one
//! final `sqrt` of the same winning value. The differential suites in
//! `tests/` enforce this across engines, hints, exclusions and thread
//! counts.

use crate::block::SeedBlock;
use crate::kdtree::KdTree;
use crate::matrix::{MatrixStats, SymMatrix};
use crate::metric::{dist, sq_dist, sq_dist_bounded};
use crate::parallel::{run_ranges, Parallelism};
use crate::stats::SearchStats;
use std::ops::Range;
use std::sync::OnceLock;

/// Sentinel in a per-query hint buffer meaning "no hint for this query".
pub const NO_HINT: u32 = u32::MAX;

/// Which nearest-seed engine the maintainer and batch drivers use.
///
/// All engines return bit-identical results (see the module docs); the
/// choice only affects how much work the [`SearchStats`] counters record
/// and the wall-clock time. The default is [`SeedSearch::Pruned`] — the
/// paper's own algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedSearch {
    /// Evaluate every seed; the baseline whose cost defines
    /// [`SearchStats::total`].
    Brute,
    /// Triangle-inequality pruning over the pairwise matrix (Figure 2),
    /// with matrix-ordered candidate visits and early-exit kernels.
    #[default]
    Pruned,
    /// A k-d tree over the seeds; subtree cuts replace Lemma 1.
    KdTree,
}

impl SeedSearch {
    /// The canonical engine name: `brute`, `pruned`, or `kdtree`. Used as
    /// the middle segment of the `assign.<engine>.*` metric names.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Brute => "brute",
            Self::Pruned => "pruned",
            Self::KdTree => "kdtree",
        }
    }
}

/// A set of seed points plus their pairwise distance matrix.
///
/// Seeds are identified by dense indices `0..len()`; the incremental
/// maintainer keeps these indices aligned with its bubble ids.
///
/// # Examples
/// ```
/// use idb_geometry::{NearestSeeds, SearchStats};
///
/// let seeds = NearestSeeds::from_seeds(
///     1,
///     [[0.0].as_slice(), [10.0].as_slice(), [20.0].as_slice()],
/// );
/// let mut stats = SearchStats::new();
/// // Start from seed 0 (the hint): its distance is 1, and both other
/// // seeds are more than dist(p, s0) + best away from it, so the triangle
/// // inequality prunes the whole ordered tail without ever measuring
/// // their distance to the query.
/// let (idx, d) = seeds.nearest_pruned(&[1.0], None, Some(0), &mut stats).unwrap();
/// assert_eq!(idx, 0);
/// assert_eq!(d, 1.0);
/// assert_eq!(stats.computed, 1);
/// assert_eq!(stats.pruned, 2);
/// ```
#[derive(Debug, Clone)]
pub struct NearestSeeds {
    dim: usize,
    /// Seed coordinates in one contiguous dimension-strided block, so the
    /// candidate scans walk linear memory.
    block: SeedBlock,
    pairwise: SymMatrix,
    /// `order[i]` holds all seed indices sorted ascending by
    /// `(pairwise(i, j), j)` — the visit order that makes the Lemma 1
    /// bound fire as early as possible when the search starts at seed `i`.
    order: Vec<Vec<u32>>,
    /// Cumulative order-cache repair accounting (DESIGN.md §15).
    repair: RepairStats,
    /// Lazily built k-d tree over the seeds for [`SeedSearch::KdTree`];
    /// cleared by every mutation, rebuilt (deterministically) on demand.
    kd: OnceLock<KdTree>,
}

/// Cumulative accounting of the incremental order-cache repair performed by
/// the seed-set mutators ([`NearestSeeds::push`], [`NearestSeeds::replace`],
/// [`NearestSeeds::swap_remove`]).
///
/// `order_entries` counts order-cache slots actually spliced, repositioned
/// or rebuilt; `order_naive_entries` counts the slots a full re-sort of
/// every row — the pre-PR-8 strategy for `swap_remove` — would have
/// touched (`s²` per mutation). The pairwise-matrix analogue lives in
/// [`MatrixStats`], read through [`NearestSeeds::matrix_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Order-cache slots actually touched by incremental repair.
    pub order_entries: u64,
    /// Slots a full per-mutation rebuild of the cache would have touched.
    pub order_naive_entries: u64,
    /// Structural mutations performed (push + replace + swap_remove).
    pub ops: u64,
}

impl RepairStats {
    /// The accounting accumulated since `before` was captured.
    #[must_use]
    pub fn delta_since(&self, before: &Self) -> Self {
        Self {
            order_entries: self.order_entries - before.order_entries,
            order_naive_entries: self.order_naive_entries - before.order_naive_entries,
            ops: self.ops - before.ops,
        }
    }
}

impl NearestSeeds {
    /// Creates an empty seed set for points of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "NearestSeeds requires dim > 0");
        Self {
            dim,
            block: SeedBlock::new(dim),
            pairwise: SymMatrix::zeros(0),
            order: Vec::new(),
            repair: RepairStats::default(),
            kd: OnceLock::new(),
        }
    }

    /// Builds a seed set from an iterator of seed coordinates.
    ///
    /// # Panics
    /// Panics if any seed's dimensionality differs from `dim`.
    pub fn from_seeds<'a, I>(dim: usize, seeds: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut set = Self::new(dim);
        for s in seeds {
            set.push(s);
        }
        set
    }

    /// Dimensionality of the seeds.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of seeds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairwise.len()
    }

    /// `true` when the set holds no seeds.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinates of seed `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn seed(&self, i: usize) -> &[f64] {
        self.block.get(i)
    }

    /// The seed coordinates as one contiguous dimension-strided block.
    #[inline]
    #[must_use]
    pub fn seed_block(&self) -> &SeedBlock {
        &self.block
    }

    /// Cumulative pairwise-matrix write accounting (DESIGN.md §15).
    #[must_use]
    pub fn matrix_stats(&self) -> MatrixStats {
        self.pairwise.stats()
    }

    /// Cumulative order-cache repair accounting (DESIGN.md §15).
    #[must_use]
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// Pairwise distance between seeds `i` and `j` as stored in the matrix.
    #[inline]
    #[must_use]
    pub fn pair_distance(&self, i: usize, j: usize) -> f64 {
        self.pairwise.get(i, j)
    }

    /// The other seeds of the set in ascending order of their pairwise
    /// distance to seed `i` (ties by index; `i` itself leads its own row).
    /// This is the visit order of [`Self::nearest_pruned`], exposed so the
    /// maintainer can read off a seed's nearest surviving neighbour — e.g.
    /// as a warm-start hint after a merge retires the seed — without any
    /// extra distance computations.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn neighbor_order(&self, i: usize) -> &[u32] {
        &self.order[i]
    }

    fn sorted_row(pairwise: &SymMatrix, i: usize) -> Vec<u32> {
        let row = pairwise.row(i);
        let mut idx: Vec<u32> = (0..pairwise.len() as u32).collect();
        idx.sort_by(|&a, &b| row[a as usize].total_cmp(&row[b as usize]).then(a.cmp(&b)));
        idx
    }

    /// Appends a new seed, filling in its pairwise distance row and
    /// splicing it into every order-cache row, and returns its index.
    ///
    /// # Panics
    /// Panics if the seed's dimensionality differs from the set's.
    pub fn push(&mut self, seed: &[f64]) -> usize {
        assert_eq!(seed.len(), self.dim, "seed dimensionality mismatch");
        self.block.push(seed);
        let idx = self.pairwise.push_row();
        let block = &self.block;
        self.pairwise.refresh_row(idx, |j| dist(seed, block.get(j)));
        let new = idx as u32;
        for (i, row) in self.order.iter_mut().enumerate() {
            let prow = self.pairwise.row(i);
            let pd = prow[idx];
            let pos = row
                .binary_search_by(|&x| prow[x as usize].total_cmp(&pd).then(x.cmp(&new)))
                .unwrap_err();
            row.insert(pos, new);
        }
        self.order.push(Self::sorted_row(&self.pairwise, idx));
        let s = self.len() as u64;
        self.repair.order_entries += (s - 1) + s; // one splice per old row + the new row
        self.repair.order_naive_entries += s * s;
        self.repair.ops += 1;
        self.kd = OnceLock::new();
        idx
    }

    /// Replaces seed `i` with new coordinates, recomputing its pairwise
    /// distance row in O(s) and re-sorting the order cache — the
    /// bookkeeping the paper performs when a bubble is re-seeded during a
    /// merge/split rebuild.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or the dimensionality differs.
    pub fn replace(&mut self, i: usize, seed: &[f64]) {
        assert_eq!(seed.len(), self.dim, "seed dimensionality mismatch");
        assert!(i < self.len(), "seed index out of bounds");
        self.block.set(i, seed);
        let block = &self.block;
        self.pairwise.refresh_row(i, |j| dist(seed, block.get(j)));
        // Reposition entry `i` inside every other row (its key changed);
        // rebuild row `i` outright.
        let iu = i as u32;
        for (j, row) in self.order.iter_mut().enumerate() {
            if j == i {
                continue;
            }
            let prow = self.pairwise.row(j);
            let pd = prow[i];
            let pos = row
                .iter()
                .position(|&x| x == iu)
                .expect("order row lost an index");
            row.remove(pos);
            let ins = row
                .binary_search_by(|&x| prow[x as usize].total_cmp(&pd).then(x.cmp(&iu)))
                .unwrap_err();
            row.insert(ins, iu);
        }
        self.order[i] = Self::sorted_row(&self.pairwise, i);
        let s = self.len() as u64;
        self.repair.order_entries += (s - 1) + s; // one reposition per other row + row i
        self.repair.order_naive_entries += s * s;
        self.repair.ops += 1;
        self.kd = OnceLock::new();
    }

    /// Removes seed `i` with swap-remove semantics: the last seed takes
    /// index `i`. The pairwise matrix follows, and the order cache is
    /// *repaired* rather than rebuilt: every row drops the retired index
    /// and repositions the renamed one among its exact-distance ties —
    /// distances between surviving seeds are unchanged, so the relative
    /// order of all other entries is already correct. O(s) per row with no
    /// re-sort and no allocation, versus the O(s² log s) full rebuild this
    /// replaced; [`Self::repair_stats`] counts both sides.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: usize) {
        let s = self.len();
        assert!(i < s, "seed index out of bounds");
        let last = s - 1;
        self.block.swap_remove(i);
        self.pairwise.swap_remove(i);
        let iu = i as u32;
        let lu = last as u32;
        // Row `i` inherits the moved seed's old row; the retired row drops.
        self.order.swap_remove(i);
        for (j, row) in self.order.iter_mut().enumerate() {
            let pos = row
                .iter()
                .position(|&x| x == iu)
                .expect("order row lost an index");
            row.remove(pos);
            self.repair.order_entries += 1;
            if i != last {
                // The moved seed keeps its distances but changes identity
                // (last → i), which can shift its rank among exact ties:
                // the sort key is (distance, index). Remove and re-splice.
                let pos = row
                    .iter()
                    .position(|&x| x == lu)
                    .expect("order row lost an index");
                row.remove(pos);
                let prow = self.pairwise.row(j);
                let pd = prow[i];
                let ins = row
                    .binary_search_by(|&x| prow[x as usize].total_cmp(&pd).then(x.cmp(&iu)))
                    .unwrap_err();
                row.insert(ins, iu);
                self.repair.order_entries += 1;
            }
        }
        self.repair.order_naive_entries += (last * last) as u64;
        self.repair.ops += 1;
        self.kd = OnceLock::new();
    }

    /// Brute-force nearest seed: computes the squared distance from `p` to
    /// every seed (optionally skipping `exclude`), ties broken by lowest
    /// index, and takes one `sqrt` of the winner. Returns
    /// `(index, distance)`, or `None` when no candidate exists.
    ///
    /// Every evaluated distance is charged to `stats.computed`.
    pub fn nearest_brute(
        &self,
        p: &[f64],
        exclude: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        debug_assert_eq!(p.len(), self.dim, "query dimensionality mismatch");
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.len() {
            if Some(i) == exclude {
                continue;
            }
            let sq = sq_dist(p, self.seed(i));
            stats.computed += 1;
            match best {
                Some((_, bsq)) if bsq <= sq => {}
                _ => best = Some((i, sq)),
            }
        }
        best.map(|(i, sq)| (i, sq.sqrt()))
    }

    /// Nearest seed via the triangle-inequality algorithm of Figure 2,
    /// upgraded to squared-space comparisons, matrix-ordered candidate
    /// visits, wholesale tail pruning and early-exit evaluation.
    ///
    /// `hint`, when given, is used as the start seed — a caller that
    /// suspects a nearby seed (e.g. the bubble a point used to belong to)
    /// seeds the search with it to maximize pruning. `exclude` removes one
    /// seed from consideration (used when releasing the members of a
    /// merged-away donor bubble, which must not re-attract its own points).
    ///
    /// The start's distance `d₀ = d(p, start)` is computed in full. The
    /// remaining candidates are visited in ascending pairwise distance to
    /// the start (the cached order). For candidate `j` at pairwise
    /// distance `w`:
    ///
    /// * `w > d₀ + best` — by the triangle inequality
    ///   `d(p, j) ≥ w − d₀ > best`, and every later candidate is at least
    ///   as far out, so the **entire tail** is pruned at once;
    /// * `|w − d₀| > best` — same bound, this candidate alone is pruned
    ///   (this is Lemma 1's condition, reached before `w` grows past the
    ///   tail cutoff);
    /// * otherwise the squared distance is evaluated with
    ///   [`sq_dist_bounded`] against the best-so-far square: abandoned
    ///   evaluations are charged to `stats.partial`, completed ones to
    ///   `stats.computed`.
    ///
    /// Both prune conditions are strict inequalities on a *lower bound* of
    /// the true distance, so a pruned candidate can neither beat nor tie
    /// the best — exact ties (duplicate seeds included) always survive to
    /// evaluation and resolve to the lowest index, keeping the result
    /// bit-identical to [`Self::nearest_brute`].
    pub fn nearest_pruned(
        &self,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        debug_assert_eq!(p.len(), self.dim, "query dimensionality mismatch");
        let s = self.len();
        let exclude = exclude.filter(|&e| e < s);
        let start = match hint {
            Some(h) if h < s && Some(h) != exclude => h,
            _ => (0..s).find(|&i| Some(i) != exclude)?,
        };
        let mut best_sq = sq_dist(p, self.seed(start));
        stats.computed += 1;
        let mut best_idx = start;
        let d_start = best_sq.sqrt();
        let mut best_d = d_start;

        let order = &self.order[start];
        let prow = self.pairwise.row(start);
        for (pos, &j32) in order.iter().enumerate() {
            let j = j32 as usize;
            if j == start || Some(j) == exclude {
                continue;
            }
            let w = prow[j];
            if w > d_start + best_d {
                // Everything from here on is at least `w` away from the
                // start, hence strictly farther from `p` than the best.
                let tail = order[pos..]
                    .iter()
                    .filter(|&&k| k as usize != start && Some(k as usize) != exclude)
                    .count();
                stats.pruned += tail as u64;
                break;
            }
            if (w - d_start).abs() > best_d {
                stats.pruned += 1;
                continue;
            }
            match sq_dist_bounded(p, self.seed(j), best_sq) {
                None => stats.partial += 1,
                Some(sq) => {
                    stats.computed += 1;
                    if sq < best_sq || (sq == best_sq && j < best_idx) {
                        best_sq = sq;
                        best_idx = j;
                        best_d = best_sq.sqrt();
                    }
                }
            }
        }
        Some((best_idx, best_sq.sqrt()))
    }

    /// Nearest seed via the lazily built k-d tree index. Best for low
    /// dimensionality; same result and accounting contract as the other
    /// engines, with candidates cut off by subtree bounds charged to
    /// `stats.pruned` (derived from the eligible count, since the tree
    /// does not track subtree sizes).
    pub fn nearest_kd(
        &self,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        debug_assert_eq!(p.len(), self.dim, "query dimensionality mismatch");
        let s = self.len();
        let exclude = exclude.filter(|&e| e < s);
        let eligible = s - usize::from(exclude.is_some());
        if eligible == 0 {
            return None;
        }
        let tree = self
            .kd
            .get_or_init(|| KdTree::build_dense(self.dim, self.block.as_flat()));
        let before_computed = stats.computed;
        let before_partial = stats.partial;
        let (idx, sq) =
            tree.nearest_one(p, exclude.map(|e| e as u32), hint.map(|h| h as u32), stats)?;
        let touched = (stats.computed - before_computed) + (stats.partial - before_partial);
        stats.pruned += eligible as u64 - touched;
        Some((idx as usize, sq.sqrt()))
    }

    /// Nearest seed via the engine selected by `engine`. [`SeedSearch::Brute`]
    /// ignores the hint (it evaluates everything regardless).
    pub fn nearest(
        &self,
        engine: SeedSearch,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        match engine {
            SeedSearch::Brute => self.nearest_brute(p, exclude, stats),
            SeedSearch::Pruned => self.nearest_pruned(p, exclude, hint, stats),
            SeedSearch::KdTree => self.nearest_kd(p, exclude, hint, stats),
        }
    }

    /// Nearest seed for every query in a flat `queries` buffer
    /// (`queries.len()` must be a multiple of `dim`), via the selected
    /// engine. Returns `(seed index, distance)` per query, aligned with
    /// query order.
    ///
    /// `hints`, when given, carries one warm-start seed per query
    /// ([`NO_HINT`] for "none"), aligned with the query order — the
    /// maintainer passes each point's previous bubble here so batch
    /// maintenance becomes mostly O(1)-computed confirmations.
    ///
    /// Work is fanned out per [`Parallelism`]: queries are split into
    /// contiguous index ranges, each range runs the identical per-query
    /// search with its own [`SearchStats`] counter, and the per-range
    /// counters are summed into `stats` in range order — so the counts
    /// (and every result) are bit-identical to a serial loop over the same
    /// queries.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim`, if `hints` is
    /// given with a length other than the query count, or if there are
    /// queries but no eligible seed.
    pub fn nearest_batch(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        engine: SeedSearch,
        hints: Option<&[u32]>,
        par: Parallelism,
        stats: &mut SearchStats,
    ) -> Vec<(u32, f64)> {
        let mut results = Vec::new();
        self.nearest_batch_into(queries, exclude, engine, hints, par, stats, &mut results);
        results
    }

    /// Runs the per-query search for one contiguous query index range,
    /// appending `(index, distance)` pairs to `out` — the shared inner loop
    /// of every batch path, serial or fanned out.
    #[allow(clippy::too_many_arguments)]
    fn search_range(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        engine: SeedSearch,
        hints: Option<&[u32]>,
        range: Range<usize>,
        local: &mut SearchStats,
        out: &mut Vec<(u32, f64)>,
    ) {
        for qi in range {
            let q = &queries[qi * self.dim..(qi + 1) * self.dim];
            let hint = hints.and_then(|h| {
                let v = h[qi];
                (v != NO_HINT).then_some(v as usize)
            });
            let (i, d) = self
                .nearest(engine, q, exclude, hint, local)
                .expect("batch assignment requires at least one eligible seed");
            out.push((i as u32, d));
        }
    }

    /// [`Self::nearest_batch`] writing into a caller-owned buffer (cleared
    /// first), so steady-state batch paths reuse one allocation per
    /// maintainer instead of allocating a result vector per call. The
    /// results, their order and the `stats` accounting are bit-identical to
    /// [`Self::nearest_batch`].
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim`, if `hints` is
    /// given with a length other than the query count, or if there are
    /// queries but no eligible seed.
    #[allow(clippy::too_many_arguments)]
    pub fn nearest_batch_into(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        engine: SeedSearch,
        hints: Option<&[u32]>,
        par: Parallelism,
        stats: &mut SearchStats,
        out: &mut Vec<(u32, f64)>,
    ) {
        out.clear();
        assert_eq!(
            queries.len() % self.dim,
            0,
            "query buffer length must be a multiple of dim"
        );
        let k = queries.len() / self.dim;
        if let Some(h) = hints {
            assert_eq!(h.len(), k, "one hint per query");
        }
        if k == 0 {
            return;
        }
        if engine == SeedSearch::KdTree {
            // Build the shared index once in the calling thread instead of
            // having every worker race on the lazy init.
            self.kd
                .get_or_init(|| KdTree::build_dense(self.dim, self.block.as_flat()));
        }
        // Chunk length in *queries*, so hint and query slices stay aligned.
        let chunk_points = k.div_ceil(par.effective_threads());
        out.reserve(k);
        if chunk_points >= k {
            // Single chunk: fill the caller's buffer directly in the
            // calling thread — the steady-state serial path allocates
            // nothing at all.
            let mut local = SearchStats::new();
            self.search_range(queries, exclude, engine, hints, 0..k, &mut local, out);
            *stats += local;
            return;
        }
        let per_chunk = run_ranges(k, chunk_points, |range| {
            let mut local = SearchStats::new();
            let mut chunk_out = Vec::with_capacity(range.len());
            self.search_range(
                queries,
                exclude,
                engine,
                hints,
                range,
                &mut local,
                &mut chunk_out,
            );
            (chunk_out, local)
        });
        for (chunk_results, chunk_stats) in per_chunk {
            out.extend(chunk_results);
            *stats += chunk_stats;
        }
    }

    /// [`Self::nearest_batch`] with [`SeedSearch::Brute`] and no hints.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim`, or if there
    /// are queries but no eligible seed.
    pub fn nearest_batch_brute(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        par: Parallelism,
        stats: &mut SearchStats,
    ) -> Vec<(u32, f64)> {
        self.nearest_batch(queries, exclude, SeedSearch::Brute, None, par, stats)
    }

    /// [`Self::nearest_batch`] with [`SeedSearch::Pruned`] and no hints.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim`, or if there
    /// are queries but no eligible seed.
    pub fn nearest_batch_pruned(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        par: Parallelism,
        stats: &mut SearchStats,
    ) -> Vec<(u32, f64)> {
        self.nearest_batch(queries, exclude, SeedSearch::Pruned, None, par, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];

    fn grid_seeds() -> NearestSeeds {
        // Four seeds on a 2-d grid, well separated.
        NearestSeeds::from_seeds(
            2,
            [
                [0.0, 0.0].as_slice(),
                [10.0, 0.0].as_slice(),
                [0.0, 10.0].as_slice(),
                [10.0, 10.0].as_slice(),
            ],
        )
    }

    fn assert_order_cache_consistent(s: &NearestSeeds) {
        for i in 0..s.len() {
            let row = s.neighbor_order(i);
            assert_eq!(row.len(), s.len(), "row {i} covers all seeds");
            let mut seen: Vec<u32> = row.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..s.len() as u32).collect::<Vec<_>>());
            for w in row.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                let (da, db) = (s.pair_distance(i, a), s.pair_distance(i, b));
                assert!(
                    da < db || (da == db && a < b),
                    "row {i}: {a} (d={da}) before {b} (d={db})"
                );
            }
        }
    }

    #[test]
    fn pairwise_matrix_filled_on_push() {
        let s = grid_seeds();
        assert_eq!(s.len(), 4);
        assert!((s.pair_distance(0, 1) - 10.0).abs() < 1e-12);
        assert!((s.pair_distance(0, 3) - 200f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.pair_distance(2, 2), 0.0);
        assert_order_cache_consistent(&s);
    }

    #[test]
    fn all_engines_agree() {
        let s = grid_seeds();
        let queries = [
            [1.0, 1.0],
            [9.0, 1.0],
            [2.0, 9.0],
            [8.5, 8.5],
            [5.0, 5.0],
            [-3.0, -4.0],
        ];
        for q in &queries {
            let mut b = SearchStats::new();
            let (bi, bd) = s.nearest_brute(q, None, &mut b).unwrap();
            for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
                for hint in [None, Some(0), Some(3)] {
                    let mut t = SearchStats::new();
                    let (ti, td) = s.nearest(engine, q, None, hint, &mut t).unwrap();
                    assert_eq!(bi, ti, "query {q:?} engine {engine:?} hint {hint:?}");
                    assert_eq!(bd.to_bits(), td.to_bits(), "query {q:?} engine {engine:?}");
                    assert_eq!(
                        t.total(),
                        b.computed,
                        "accounting covers every candidate once: {q:?} {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_actually_happens_near_a_seed() {
        let s = grid_seeds();
        let mut stats = SearchStats::new();
        // A point almost on seed 0: every other seed is >= 10 away, i.e.
        // beyond dist(p, s0) + best, so the whole ordered tail is pruned
        // after one distance computation when starting from seed 0.
        let (idx, _) = s
            .nearest_pruned(&[0.1, 0.1], None, Some(0), &mut stats)
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.pruned, 3);
        assert_eq!(stats.partial, 0);
    }

    #[test]
    fn exclusion_is_respected_by_every_engine() {
        let s = grid_seeds();
        let mut b = SearchStats::new();
        let (bidx, bd) = s.nearest_brute(&[0.1, 0.1], Some(0), &mut b).unwrap();
        assert_ne!(bidx, 0);
        // Next closest are seeds 1 and 2, symmetric; distance ~ 9.9.
        assert!(bd > 9.0 && bd < 11.0);
        for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            let mut stats = SearchStats::new();
            let (idx, d) = s
                .nearest(engine, &[0.1, 0.1], Some(0), None, &mut stats)
                .unwrap();
            assert_eq!(idx, bidx, "{engine:?}");
            assert_eq!(d.to_bits(), bd.to_bits(), "{engine:?}");
            assert_eq!(stats.total(), 3, "{engine:?}: excluded seed never charged");
        }
    }

    #[test]
    fn duplicate_seeds_resolve_to_lowest_index() {
        let s = NearestSeeds::from_seeds(
            2,
            [
                [4.0, 4.0].as_slice(),
                [1.0, 1.0].as_slice(),
                [1.0, 1.0].as_slice(),
                [1.0, 1.0].as_slice(),
            ],
        );
        for engine in ENGINES {
            for hint in [None, Some(0), Some(2), Some(3)] {
                let mut stats = SearchStats::new();
                let (idx, _) = s
                    .nearest(engine, &[1.1, 0.9], None, hint, &mut stats)
                    .unwrap();
                assert_eq!(idx, 1, "{engine:?} hint {hint:?}");
                // Excluding the winner promotes the next duplicate.
                let mut stats = SearchStats::new();
                let (idx, _) = s
                    .nearest(engine, &[1.1, 0.9], Some(1), hint, &mut stats)
                    .unwrap();
                assert_eq!(idx, 2, "{engine:?} hint {hint:?}");
            }
        }
    }

    #[test]
    fn empty_set_returns_none() {
        let s = NearestSeeds::new(3);
        let mut stats = SearchStats::new();
        for engine in ENGINES {
            assert!(s
                .nearest(engine, &[0.0, 0.0, 0.0], None, None, &mut stats)
                .is_none());
        }
    }

    #[test]
    fn single_seed_excluded_returns_none() {
        let mut s = NearestSeeds::new(1);
        s.push(&[5.0]);
        let mut stats = SearchStats::new();
        for engine in ENGINES {
            assert!(s
                .nearest(engine, &[0.0], Some(0), None, &mut stats)
                .is_none());
        }
        assert_eq!(stats, SearchStats::new());
    }

    #[test]
    fn replace_updates_matrix_order_and_results() {
        let mut s = grid_seeds();
        // Move seed 3 next to the origin.
        s.replace(3, &[0.5, 0.5]);
        assert!((s.pair_distance(3, 0) - 0.5f64.sqrt()).abs() < 1e-12);
        assert_order_cache_consistent(&s);
        for engine in ENGINES {
            let mut stats = SearchStats::new();
            let (idx, _) = s
                .nearest(engine, &[0.6, 0.6], None, None, &mut stats)
                .unwrap();
            assert_eq!(idx, 3, "{engine:?}");
        }
    }

    #[test]
    fn swap_remove_keeps_matrix_and_order_consistent() {
        let mut s = grid_seeds();
        s.swap_remove(1); // seed (10, 0) removed; (10, 10) takes index 1
        assert_eq!(s.len(), 3);
        assert_eq!(s.seed(1), &[10.0, 10.0]);
        for i in 0..3 {
            for j in 0..3 {
                let expect = dist(s.seed(i), s.seed(j));
                assert!((s.pair_distance(i, j) - expect).abs() < 1e-12, "({i},{j})");
            }
        }
        assert_order_cache_consistent(&s);
        // Searches still agree with brute force.
        let q = [9.0, 9.0];
        let mut b = SearchStats::new();
        let (bi, bd) = s.nearest_brute(&q, None, &mut b).unwrap();
        for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            let mut p = SearchStats::new();
            let (pi, pd) = s.nearest(engine, &q, None, None, &mut p).unwrap();
            assert_eq!(bi, pi, "{engine:?}");
            assert_eq!(bd.to_bits(), pd.to_bits(), "{engine:?}");
        }
    }

    #[test]
    fn swap_remove_last_seed() {
        let mut s = grid_seeds();
        s.swap_remove(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.seed(0), &[0.0, 0.0]);
        assert_order_cache_consistent(&s);
    }

    #[test]
    fn swap_remove_repair_handles_duplicate_distance_ties() {
        // Duplicate seeds create exact distance ties everywhere; the
        // renamed seed (last → i) must re-splice to its (distance, index)
        // position, which the tie-break makes unique.
        let mut s = NearestSeeds::from_seeds(
            2,
            [
                [1.0, 1.0].as_slice(),
                [5.0, 5.0].as_slice(),
                [1.0, 1.0].as_slice(),
                [5.0, 5.0].as_slice(),
                [1.0, 1.0].as_slice(),
            ],
        );
        for removed in [0usize, 2, 1] {
            s.swap_remove(removed);
            assert_order_cache_consistent(&s);
            // The repaired cache must equal a from-scratch rebuild: the
            // sorted order with the (distance, index) tie-break is unique.
            for j in 0..s.len() {
                assert_eq!(
                    s.neighbor_order(j),
                    NearestSeeds::sorted_row(&s.pairwise, j).as_slice(),
                    "row {j} after removing {removed}"
                );
            }
        }
    }

    #[test]
    fn swap_remove_repair_touches_o_s_entries() {
        let n = 60;
        let seeds: Vec<[f64; 2]> = (0..n).map(|i| [f64::from(i), f64::from(i * i)]).collect();
        let mut s = NearestSeeds::from_seeds(2, seeds.iter().map(|p| p.as_slice()));
        let before = s.repair_stats();
        let mbefore = s.matrix_stats();
        s.swap_remove(7);
        let d = s.repair_stats();
        let md = s.matrix_stats();
        // Order cache: one removal + one re-splice per surviving row.
        assert_eq!(d.order_entries - before.order_entries, 2 * (n as u64 - 1));
        assert_eq!(
            d.order_naive_entries - before.order_naive_entries,
            (n as u64 - 1) * (n as u64 - 1)
        );
        assert_eq!(d.ops - before.ops, 1);
        // Matrix: one row copy + one column walk, not a rebuild.
        let written = md.entries_written - mbefore.entries_written;
        assert_eq!(written, (n + n - 1) as u64);
        assert!(written < (n * n) as u64 / 10, "O(s), nowhere near O(s²)");
    }

    #[test]
    fn batch_into_reuses_buffer_and_matches_batch() {
        let s = grid_seeds();
        let queries: Vec<f64> = (0..30)
            .flat_map(|i| {
                let t = f64::from(i);
                [(t * 0.61) % 11.0, (t * 0.23 + 5.0) % 11.0]
            })
            .collect();
        let mut out = vec![(99u32, -1.0f64); 3]; // stale junk must be cleared
        for engine in ENGINES {
            for par in [Parallelism::Serial, Parallelism::Threads(3)] {
                let mut stats = SearchStats::new();
                let want = s.nearest_batch(&queries, None, engine, None, par, &mut stats);
                let mut got_stats = SearchStats::new();
                s.nearest_batch_into(&queries, None, engine, None, par, &mut got_stats, &mut out);
                assert_eq!(out, want, "engine={engine:?} par={par:?}");
                assert_eq!(got_stats, stats, "engine={engine:?} par={par:?}");
            }
        }
    }

    #[test]
    fn order_cache_tracks_incremental_pushes() {
        let mut s = NearestSeeds::new(2);
        let pts = [
            [3.0, 1.0],
            [0.0, 0.0],
            [9.0, 9.0],
            [3.0, 1.0], // duplicate of seed 0
            [-2.0, 5.0],
            [4.0, 4.0],
        ];
        for p in &pts {
            s.push(p);
            assert_order_cache_consistent(&s);
        }
    }

    #[test]
    fn batch_matches_per_query_calls_in_every_mode() {
        let s = grid_seeds();
        let queries: Vec<f64> = (0..40)
            .flat_map(|i| {
                let t = i as f64;
                [t * 0.37 % 11.0, (t * 0.71 + 3.0) % 11.0]
            })
            .collect();
        // Cycle through every seed as a hint, with every fifth query unhinted.
        let hints: Vec<u32> = (0..40u32)
            .map(|i| if i % 5 == 4 { NO_HINT } else { i % 5 })
            .collect();
        for engine in ENGINES {
            for hint_buf in [None, Some(hints.as_slice())] {
                // Serial reference: one call per query.
                let mut want = Vec::new();
                let mut want_stats = SearchStats::new();
                for (qi, q) in queries.chunks_exact(2).enumerate() {
                    let hint = hint_buf.and_then(|h| (h[qi] != NO_HINT).then_some(h[qi] as usize));
                    let r = s.nearest(engine, q, None, hint, &mut want_stats).unwrap();
                    want.push((r.0 as u32, r.1));
                }
                for par in [
                    Parallelism::Serial,
                    Parallelism::Threads(2),
                    Parallelism::Threads(8),
                    Parallelism::Auto,
                ] {
                    let mut stats = SearchStats::new();
                    let got = s.nearest_batch(&queries, None, engine, hint_buf, par, &mut stats);
                    assert_eq!(got, want, "engine={engine:?} par={par:?}");
                    assert_eq!(stats, want_stats, "engine={engine:?} par={par:?}");
                }
            }
        }
    }

    #[test]
    fn batch_respects_exclusion() {
        let s = grid_seeds();
        let queries = [0.1, 0.1, 9.9, 9.9];
        for engine in ENGINES {
            let mut stats = SearchStats::new();
            let got = s.nearest_batch(
                &queries,
                Some(0),
                engine,
                None,
                Parallelism::Threads(2),
                &mut stats,
            );
            assert_eq!(got.len(), 2);
            assert_ne!(got[0].0, 0, "{engine:?}: excluded seed never wins");
        }
    }

    #[test]
    fn batch_empty_queries() {
        let s = grid_seeds();
        let mut stats = SearchStats::new();
        assert!(s
            .nearest_batch_brute(&[], None, Parallelism::Auto, &mut stats)
            .is_empty());
        assert_eq!(stats, SearchStats::new());
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn batch_ragged_buffer_panics() {
        let s = grid_seeds();
        let mut stats = SearchStats::new();
        let _ = s.nearest_batch_brute(&[1.0, 2.0, 3.0], None, Parallelism::Serial, &mut stats);
    }

    #[test]
    #[should_panic(expected = "one hint per query")]
    fn batch_misaligned_hints_panic() {
        let s = grid_seeds();
        let mut stats = SearchStats::new();
        let _ = s.nearest_batch(
            &[1.0, 2.0],
            None,
            SeedSearch::Pruned,
            Some(&[0, 1]),
            Parallelism::Serial,
            &mut stats,
        );
    }

    #[test]
    fn hint_does_not_change_result() {
        let s = grid_seeds();
        for engine in ENGINES {
            for hint in 0..4 {
                let mut stats = SearchStats::new();
                let (idx, d) = s
                    .nearest(engine, &[9.0, 9.5], None, Some(hint), &mut stats)
                    .unwrap();
                assert_eq!(idx, 3, "{engine:?} hint {hint}");
                assert!((d - dist(&[9.0, 9.5], &[10.0, 10.0])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn neighbor_order_starts_with_self_and_ranks_by_distance() {
        let s = grid_seeds();
        let row = s.neighbor_order(0);
        assert_eq!(row[0], 0);
        assert_eq!(row[3], 3, "diagonal neighbor is farthest from seed 0");
    }
}
