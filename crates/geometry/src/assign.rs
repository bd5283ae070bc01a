//! Nearest-seed search engines (paper, Section 3).
//!
//! Constructing data bubbles assigns every database point to its closest
//! seed. Lemma 1 of the paper lets us skip computing `dist(p, s_j)` whenever
//! the pairwise seed distance to a known-close seed already proves `s_j`
//! cannot win: the pairwise distances are precomputed once, as one sorted
//! neighbor row per seed, and each avoided evaluation is recorded in the
//! caller's [`SearchStats`].
//!
//! [`NearestSeeds`] owns the seed coordinates (flat, contiguous) together
//! with their neighbor table and offers three interchangeable engines,
//! selected by [`SeedSearch`]:
//!
//! * [`SeedSearch::Brute`] — computes all `s` distances (what a standard
//!   implementation does); the accounting baseline.
//! * [`SeedSearch::Pruned`] — the Figure 2 algorithm, reworked: the search
//!   runs in *squared-distance* space (one `sqrt` per improvement instead
//!   of one per candidate), visits candidates in ascending order of their
//!   pairwise distance to the start seed (the start's neighbor row, which
//!   stores each distance next to its seed index), prunes the whole
//!   remaining tail once the pairwise distance exceeds `d(p, start) + best`
//!   — by the triangle inequality nothing further out can beat or tie the
//!   best — and evaluates survivors with the early-exit kernel
//!   [`sq_dist_bounded`] against the best square so far, charging rejected
//!   evaluations to `stats.partial`. The kernel checks its bound once per
//!   16 lanes; a rejection is decided by the bound alone, so the counts do
//!   not depend on that cadence.
//! * [`SeedSearch::KdTree`] — a k-d tree over the seeds (built by the first
//!   k-d search after a mutation, dropped by every mutation), best for low
//!   dimensionality and large seed counts; same accounting, with cut-off
//!   subtrees charged to `stats.pruned`.
//!
//! All three return **bit-identical** `(index, distance)` results: each
//! compares candidates by their squared distance (accumulated in the same
//! axis order), breaks exact ties by the lowest seed index, and takes one
//! final `sqrt` of the same winning value. The differential suites in
//! `tests/` enforce this across engines, hints, exclusions and thread
//! counts.
//!
//! # The neighbor table (DESIGN.md §15)
//!
//! Row `i` lists every seed index `j` (itself included) with `dist(i, j)`
//! stored inline, as two parallel arrays sorted by the key
//! `(distance.total_cmp, j)`. The key is unique per row, so a row's content
//! depends only on the seed coordinates, never on the mutation history:
//! [`NearestSeeds::from_seeds`] sorts each row once, and a row equals a
//! fresh sort whenever it is read.
//!
//! Re-seeding seed `i` rebuilds row `i` and appends one record, `i` and its
//! old coordinates, to a shared replace log; the other rows are left alone.
//! Each row keeps a cursor into the log and is *settled* only when it is
//! read: for every seed logged past the cursor, its stale distance is
//! recomputed from its first logged old coordinates (bit-exact, because
//! `dist` is symmetric to the bit), the stale entries are binary-searched,
//! the new keys ranked, and only entries between the outermost old and new
//! positions move, each at most once. A log longer than `s` records is
//! folded into every row and cleared, so it holds `O(s · d)` memory. There
//! is no `s × s` matrix: the table holds `12 · s²` bytes.
//!
//! The table settles its own rows; callers only query it. Every reader that
//! can settle takes `&mut self` and settles, in place, exactly the rows it
//! reads, charging the entries written to [`RepairStats`] at that moment:
//! a pruned search its start row, a batch every distinct start row before
//! its fan-out (the workers then share the table read-only), the row
//! accessors their row, and `push`/`swap_remove`/a log fold every row. The
//! one `&self` reader, [`NearestSeeds::neighbor_row`], settles a transient
//! copy of a stale row that is neither kept nor charged — the audit's view.

use crate::block::SeedBlock;
use crate::kdtree::KdTree;
use crate::metric::{dist, sq_dist, sq_dist_bounded};
use crate::parallel::{run_ranges, Parallelism};
use crate::stats::SearchStats;
use std::borrow::Cow;
use std::ops::Range;

/// Sentinel in a per-query hint buffer meaning "no hint for this query".
pub const NO_HINT: u32 = u32::MAX;

/// "No earlier record" in [`ReplaceLog::prev`].
const NO_RECORD: u32 = u32::MAX;

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
    /// Triangle-inequality pruning over the neighbor rows (Figure 2), with
    /// distance-ordered candidate visits and early-exit kernels.
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

/// A distance as an integer with the order of [`f64::total_cmp`]. A
/// neighbor-row entry's sort key is `(dist_key(distance), index)`.
#[inline]
fn dist_key(d: f64) -> u64 {
    // `total_cmp`'s own transform, shifted from signed to unsigned order.
    let bits = d.to_bits() as i64;
    (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64 ^ (1 << 63)
}

/// One seed's neighbor row: every seed index and its distance to the
/// row's owner, as parallel arrays sorted ascending by
/// `(dist_key(distance), index)`, as of replace-log position `seen`.
#[derive(Debug, Clone)]
struct Row {
    ids: Vec<u32>,
    w: Vec<f64>,
    /// The log records before this position are folded into the row; the
    /// rest are pending.
    seen: usize,
}

/// The re-seeds not yet folded into every row, oldest first: each record
/// holds the re-seeded index and the coordinates it had before the move.
#[derive(Debug, Clone, Default)]
struct ReplaceLog {
    ids: Vec<u32>,
    /// Each record's previous record of the same seed, or [`NO_RECORD`]:
    /// a record is its seed's first past a cursor `c` iff `prev < c`.
    prev: Vec<u32>,
    /// Old coordinates, `dim` per record.
    coords: Vec<f64>,
}

impl ReplaceLog {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, i: u32, old: &[f64]) {
        let prev = self.ids.iter().rposition(|&j| j == i);
        self.prev.push(prev.map_or(NO_RECORD, |k| k as u32));
        self.ids.push(i);
        self.coords.extend_from_slice(old);
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.prev.clear();
        self.coords.clear();
    }
}

/// Working memory of a settle, reused across settles.
#[derive(Debug, Clone, Default)]
struct Splice {
    /// Positions of the stale entries.
    old: Vec<usize>,
    /// The new entries: distance key, index, distance and, once ranked,
    /// final position.
    new: Vec<(u64, u32, f64, usize)>,
    /// Runs of surviving entries to move: start, end and signed shift.
    runs: Vec<(usize, usize, isize)>,
}

impl Row {
    /// The row over `w`, the distances from the owner to each seed in
    /// index order, sorted in place; `keys` is scratch reused across rows.
    ///
    /// Sorts one `u64` per entry: the distance key with its low bits
    /// replaced by the index, an order that agrees with the exact key
    /// wherever the kept bits differ. One insertion pass with the exact
    /// key then orders the rare entries whose kept bits tie.
    fn sorted(mut w: Vec<f64>, keys: &mut Vec<u64>) -> Self {
        let bits = usize::BITS - w.len().leading_zeros();
        let index = |k: u64| (k & ((1 << bits) - 1)) as usize;
        keys.clear();
        keys.extend(
            w.iter()
                .zip(0u64..)
                .map(|(&d, j)| (dist_key(d) >> bits << bits) | j),
        );
        keys.sort_unstable();
        let exact = |k: u64| (dist_key(w[index(k)]), index(k));
        for a in 1..keys.len() {
            let (e, key) = (keys[a], exact(keys[a]));
            let mut b = a;
            while b > 0 && exact(keys[b - 1]) > key {
                keys[b] = keys[b - 1];
                b -= 1;
            }
            keys[b] = e;
        }
        let ids: Vec<u32> = keys.iter().map(|&k| index(k) as u32).collect();
        for (k, &j) in keys.iter_mut().zip(&ids) {
            *k = w[j as usize].to_bits();
        }
        for (d, &k) in w.iter_mut().zip(keys.iter()) {
            *d = f64::from_bits(k);
        }
        Self { ids, w, seen: 0 }
    }

    /// The row's distances scattered back into seed-index order.
    fn scatter(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.ids.len()];
        for (&j, &dj) in self.ids.iter().zip(&self.w) {
            d[j as usize] = dj;
        }
        d
    }

    /// The number of entries ordering before the key `(k, id)`: a binary
    /// search over the distances alone, then a step over the exact
    /// distance ties with a lower index.
    fn rank(&self, k: u64, id: u32) -> usize {
        let mut p = self.w.partition_point(|&x| dist_key(x) < k);
        while p < self.ids.len() && dist_key(self.w[p]) == k && self.ids[p] < id {
            p += 1;
        }
        p
    }

    /// The position of the entry `(k, id)`.
    ///
    /// # Panics
    /// Panics if the row holds no such entry (a corrupted table).
    fn find(&self, k: u64, id: u32) -> usize {
        let p = self.rank(k, id);
        assert!(self.ids.get(p) == Some(&id), "neighbor row lost index {id}");
        p
    }

    /// Moves the entry at `from` to `to` and writes `(d, id)` there,
    /// shifting only the entries in between. Returns the entries moved or
    /// written.
    fn place(&mut self, from: usize, to: usize, d: f64, id: u32) -> u64 {
        if to > from {
            self.ids.copy_within(from + 1..=to, from);
            self.w.copy_within(from + 1..=to, from);
        } else {
            self.ids.copy_within(to..from, to + 1);
            self.w.copy_within(to..from, to + 1);
        }
        self.ids[to] = id;
        self.w[to] = d;
        from.abs_diff(to) as u64 + 1
    }

    /// Removes the entry at `p`; returns the entries moved.
    fn remove(&mut self, p: usize) -> u64 {
        self.ids.remove(p);
        self.w.remove(p);
        (self.ids.len() - p) as u64
    }

    /// Folds the log records past `seen` into this row of seed `owner`
    /// (whose coordinates `block` holds) and returns the entries written.
    ///
    /// Every seed logged past the cursor has one stale entry, keyed by its
    /// distance to its *first* logged old coordinates — the row was sorted
    /// over those — recomputed bit for bit because `dist` is symmetric to
    /// the bit. The stale entries are binary-searched and the new keys
    /// ranked against the unchanged row; between those positions the
    /// surviving entries form runs, each shifted by the new entries before
    /// it less the stale ones. Runs shifting left move first, left to
    /// right, then runs shifting right, right to left, so each survivor
    /// moves at most once and in place; the new entries fill the gaps. One
    /// pending seed costs one shift of [`Self::place`].
    ///
    /// # Panics
    /// Panics if the row holds no stale entry for a logged seed (a
    /// corrupted table).
    fn settle(
        &mut self,
        owner: usize,
        log: &ReplaceLog,
        block: &SeedBlock,
        splice: &mut Splice,
    ) -> u64 {
        let from = self.seen;
        self.seen = log.len();
        let dim = block.dim();
        let x = block.get(owner);
        splice.old.clear();
        splice.new.clear();
        for k in from..log.len() {
            if log.prev[k] != NO_RECORD && log.prev[k] as usize >= from {
                continue; // an earlier record of this seed is pending too
            }
            let j = log.ids[k];
            let old = dist(x, &log.coords[k * dim..(k + 1) * dim]);
            let new = dist(x, block.get(j as usize));
            splice.old.push(self.find(dist_key(old), j));
            splice.new.push((dist_key(new), j, new, 0));
        }
        let m = splice.new.len();
        splice.old.sort_unstable();
        splice.new.sort_unstable_by_key(|e| (e.0, e.1));
        // Walk the events in row order — a new entry lands before the
        // first original entry that orders after it — tracking the shift
        // of the survivors: +1 per new entry, -1 per stale one passed.
        splice.runs.clear();
        let (mut pos, mut shift, mut gone) = (0, 0isize, 0);
        for e in 0..m {
            let (k, j, ..) = splice.new[e];
            let q = self.rank(k, j);
            while gone < m && splice.old[gone] < q {
                let g = splice.old[gone];
                splice.runs.push((pos, g, shift));
                (pos, shift, gone) = (g + 1, shift - 1, gone + 1);
            }
            splice.runs.push((pos, q, shift));
            pos = q;
            splice.new[e].3 = q.wrapping_add_signed(shift);
            shift += 1;
        }
        for &g in &splice.old[gone..] {
            splice.runs.push((pos, g, shift));
            (pos, shift) = (g + 1, shift - 1);
        }
        debug_assert_eq!(shift, 0, "a settle keeps the row length");
        let mut entries = m as u64;
        let moving = splice.runs.iter().filter(|r| r.2 != 0 && r.0 < r.1);
        for &(a, b, d) in moving.clone().filter(|r| r.2 < 0) {
            self.ids.copy_within(a..b, a.wrapping_add_signed(d));
            self.w.copy_within(a..b, a.wrapping_add_signed(d));
            entries += (b - a) as u64;
        }
        for &(a, b, d) in moving.rev().filter(|r| r.2 > 0) {
            self.ids.copy_within(a..b, a.wrapping_add_signed(d));
            self.w.copy_within(a..b, a.wrapping_add_signed(d));
            entries += (b - a) as u64;
        }
        for &(_, j, d, at) in &splice.new {
            self.ids[at] = j;
            self.w[at] = d;
        }
        entries
    }
}

/// A set of seed points plus their neighbor table.
///
/// Seeds are identified by dense indices `0..len()`; the incremental
/// maintainer keeps these indices aligned with its bubble ids.
///
/// # Examples
/// ```
/// use idb_geometry::{NearestSeeds, SearchStats};
///
/// let mut seeds = NearestSeeds::from_seeds(
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
    /// `rows[i]` holds all seed indices with their distance to seed `i`,
    /// sorted ascending by `(distance, index)` — the visit order that makes
    /// the Lemma 1 bound fire as early as possible when the search starts
    /// at seed `i` — once the log records past its cursor are settled.
    rows: Vec<Row>,
    /// The re-seeds some row has not settled yet.
    log: ReplaceLog,
    /// Working memory of in-place settles.
    splice: Splice,
    /// Cumulative neighbor-table repair accounting (DESIGN.md §15).
    repair: RepairStats,
    /// The k-d tree over the seeds for [`SeedSearch::KdTree`]: built by the
    /// first k-d search after a mutation, dropped by every mutation.
    kd: Option<KdTree>,
}

/// Cumulative accounting of the incremental neighbor-table repair performed
/// by the seed-set mutators ([`NearestSeeds::push`],
/// [`NearestSeeds::replace`], [`NearestSeeds::swap_remove`]) and by the
/// settles that fold their re-seeds into the rows read afterwards.
///
/// `entries` counts the row entries (an index and its distance) written by
/// row rebuilds and settle splices, plus the shifts of `push` and
/// `swap_remove`. A settle is charged when it happens, by whichever `&mut`
/// reader settles the row in place (see the module docs); the `&self`
/// reader [`NearestSeeds::neighbor_row`] charges nothing. `naive_entries`
/// counts the entries a re-sort of every row per mutation would write
/// (`s²` per mutation). [`NearestSeeds::from_seeds`] builds the table and
/// charges nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Row entries written by row rebuilds, settles and shifts.
    pub entries: u64,
    /// Entries a full per-mutation rebuild of the table would write.
    pub naive_entries: u64,
    /// Structural mutations performed (push + replace + swap_remove).
    pub ops: u64,
}

impl RepairStats {
    /// The accounting accumulated since `before` was captured.
    #[must_use]
    pub fn delta_since(&self, before: &Self) -> Self {
        Self {
            entries: self.entries - before.entries,
            naive_entries: self.naive_entries - before.naive_entries,
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
            rows: Vec::new(),
            log: ReplaceLog::default(),
            splice: Splice::default(),
            repair: RepairStats::default(),
            kd: None,
        }
    }

    /// Builds a seed set from an iterator of seed coordinates, sorting each
    /// neighbor row once, in place: `O(s² · d)` distances, `O(s² log s)`
    /// comparisons and no memory beyond the table's. The table equals the
    /// one `s` [`push`](Self::push)es would build.
    ///
    /// # Panics
    /// Panics if any seed's dimensionality differs from `dim`.
    pub fn from_seeds<'a, I>(dim: usize, seeds: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut set = Self::new(dim);
        for p in seeds {
            assert_eq!(p.len(), dim, "seed dimensionality mismatch");
            set.block.push(p);
        }
        let s = set.block.len();
        // Distances in index order, each pair computed once as
        // `dist(later, earlier)` — the argument order of `push` — and
        // mirrored, so both rows of a pair hold the same bits.
        let mut w: Vec<Vec<f64>> = (0..s).map(|_| vec![0.0; s]).collect();
        for j in 1..s {
            let (earlier, rest) = w.split_at_mut(j);
            let x = set.block.get(j);
            for (i, wi) in earlier.iter_mut().enumerate() {
                let d = dist(x, set.block.get(i));
                rest[0][i] = d;
                wi[j] = d;
            }
        }
        let mut keys = Vec::with_capacity(s);
        set.rows = w.into_iter().map(|w| Row::sorted(w, &mut keys)).collect();
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
        self.rows.len()
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

    /// Cumulative neighbor-table repair accounting (DESIGN.md §15).
    #[must_use]
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// Settles row `i` in place: folds the re-seeds logged past its cursor
    /// into it and charges the entries written to [`RepairStats`]. A
    /// current row costs nothing. Every `&mut` reader of a row settles it
    /// through here first.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds, or if the row has lost a seed whose
    /// re-seed is pending (a damaged table).
    pub fn settle_row(&mut self, i: usize) {
        if self.rows[i].seen < self.log.len() {
            self.repair.entries += self.rows[i].settle(i, &self.log, &self.block, &mut self.splice);
        }
    }

    /// Settles every row and clears the log.
    fn settle_all(&mut self) {
        if self.log.len() == 0 {
            return;
        }
        for i in 0..self.rows.len() {
            self.settle_row(i);
            self.rows[i].seen = 0;
        }
        self.log.clear();
    }

    /// The seeds in ascending order of their distance to seed `i` (ties by
    /// index; `i` itself leads its own row unless a lower-indexed duplicate
    /// precedes it), with the row settled in place first. This is the visit
    /// order of [`Self::nearest_pruned`], exposed so the maintainer can read
    /// off a seed's nearest surviving neighbour — e.g. as a warm-start hint
    /// after a merge retires the seed — without any extra distance
    /// computations.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn neighbor_order(&mut self, i: usize) -> &[u32] {
        self.settle_row(i);
        &self.rows[i].ids
    }

    /// The distances aligned with [`Self::neighbor_order`]`(i)`: entry `k`
    /// is the distance from seed `i` to seed `neighbor_order(i)[k]`. The row
    /// is settled in place first.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn neighbor_distances(&mut self, i: usize) -> &[f64] {
        self.settle_row(i);
        &self.rows[i].w
    }

    /// Seed `i`'s neighbor row, ids and distances, read without settling
    /// it: the stored row when it is current, else a transient settled copy
    /// that is neither kept nor charged to [`RepairStats`]. The maintainer's
    /// audit reads the table through this, so an audit leaves the rows,
    /// their cursors and the ledger as it found them.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds, or if a stale row has lost a seed
    /// whose re-seed is pending (a damaged table).
    #[must_use]
    pub fn neighbor_row(&self, i: usize) -> (Cow<'_, [u32]>, Cow<'_, [f64]>) {
        let row = &self.rows[i];
        if row.seen == self.log.len() {
            return (Cow::Borrowed(&row.ids), Cow::Borrowed(&row.w));
        }
        let mut copy = row.clone();
        copy.settle(i, &self.log, &self.block, &mut Splice::default());
        (Cow::Owned(copy.ids), Cow::Owned(copy.w))
    }

    /// Mutable access to seed `i`'s neighbor row, settled first (test
    /// sabotage hook: the audit suites damage the table through it).
    #[doc(hidden)]
    pub fn neighbor_row_mut(&mut self, i: usize) -> (&mut [u32], &mut [f64]) {
        self.settle_row(i);
        let row = &mut self.rows[i];
        (&mut row.ids, &mut row.w)
    }

    /// Appends a new seed, settling every row, inserting the seed into each
    /// at its binary-searched position and sorting its own row, and returns
    /// its index.
    ///
    /// # Panics
    /// Panics if the seed's dimensionality differs from the set's.
    pub fn push(&mut self, seed: &[f64]) -> usize {
        assert_eq!(seed.len(), self.dim, "seed dimensionality mismatch");
        self.settle_all();
        let idx = self.block.push(seed);
        let new = idx as u32;
        let mut d: Vec<f64> = (0..idx).map(|j| dist(seed, self.block.get(j))).collect();
        let mut entries = 0;
        for (row, &dj) in self.rows.iter_mut().zip(&d) {
            // The new index is the largest, so it follows its ties.
            let pos = row.rank(dist_key(dj), new);
            row.ids.insert(pos, new);
            row.w.insert(pos, dj);
            entries += (row.ids.len() - pos) as u64;
        }
        d.push(0.0);
        self.rows.push(Row::sorted(d, &mut Vec::new()));
        let s = self.len() as u64;
        self.repair.entries += entries + s;
        self.repair.naive_entries += s * s;
        self.repair.ops += 1;
        self.kd = None;
        idx
    }

    /// Replaces seed `i` with new coordinates — the bookkeeping the paper
    /// performs when a bubble is re-seeded during a merge/split rebuild.
    /// Its `s` new distances are computed once and its row is re-sorted.
    /// The other rows are left stale: the re-seed is logged with the old
    /// coordinates, and each row settles it when next read (see the module
    /// docs). A log longer than `s` records is folded into every row.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or if the dimensionality differs.
    pub fn replace(&mut self, i: usize, seed: &[f64]) {
        assert_eq!(seed.len(), self.dim, "seed dimensionality mismatch");
        let s = self.len();
        assert!(i < s, "seed index out of bounds");
        self.log.push(i as u32, self.block.get(i));
        self.block.set(i, seed);
        let new: Vec<f64> = (0..s)
            .map(|j| {
                if j == i {
                    0.0
                } else {
                    dist(seed, self.block.get(j))
                }
            })
            .collect();
        self.rows[i] = Row::sorted(new, &mut Vec::new());
        self.rows[i].seen = self.log.len();
        let s = s as u64;
        self.repair.entries += s;
        self.repair.naive_entries += s * s;
        self.repair.ops += 1;
        self.kd = None;
        if self.log.len() as u64 > s {
            self.settle_all();
        }
    }

    /// Removes seed `i` with swap-remove semantics: the last seed takes
    /// index `i`, and its row becomes row `i`. Every row is settled, then
    /// drops the retired
    /// index (a tail shift) and re-keys the renamed one, which can only
    /// move left among its exact-distance ties — distances between
    /// surviving seeds are unchanged, so every other entry keeps its
    /// relative order. Both seeds' distances are read from their own rows.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds, or if a neighbor row has lost seed
    /// `i` or the last seed (a damaged table).
    pub fn swap_remove(&mut self, i: usize) {
        let s = self.len();
        assert!(i < s, "seed index out of bounds");
        self.settle_all();
        let last = s - 1;
        let (iu, lu) = (i as u32, last as u32);
        let gone = self.rows[i].scatter();
        let moved = self.rows[last].scatter();
        let mut entries = 0;
        for (j, row) in self.rows.iter_mut().enumerate() {
            if j == i {
                continue; // the retired row itself
            }
            entries += row.remove(row.find(dist_key(gone[j]), iu));
            if i != last {
                let k = dist_key(moved[j]);
                let from = row.find(k, lu);
                entries += row.place(from, row.rank(k, iu), moved[j], iu);
            }
        }
        self.rows.swap_remove(i);
        self.block.swap_remove(i);
        self.repair.entries += entries;
        self.repair.naive_entries += (last * last) as u64;
        self.repair.ops += 1;
        self.kd = None;
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
    /// upgraded to squared-space comparisons, distance-ordered candidate
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
    /// the start, reading the start's neighbor row front to back. For
    /// candidate `j` at pairwise distance `w`:
    ///
    /// * `w > d₀ + best` — by the triangle inequality
    ///   `d(p, j) ≥ w − d₀ > best`, and every later candidate is at least
    ///   as far out, so the **entire tail** is pruned at once;
    /// * `|w − d₀| > best` — same bound, this candidate alone is pruned
    ///   (this is Lemma 1's condition, reached before `w` grows past the
    ///   tail cutoff);
    /// * otherwise the squared distance is evaluated with
    ///   [`sq_dist_bounded`] against the best-so-far square: evaluations it
    ///   rejects (the squared distance exceeds the best) are charged to
    ///   `stats.partial`, completed ones to `stats.computed`. The kernel
    ///   reads all `d` lanes below d = 16 and checks once per 16 lanes
    ///   above; either way a rejection means exactly `sq > best_sq`, so
    ///   the counts are those of a per-lane or per-block check.
    ///
    /// Both prune conditions are strict inequalities on a *lower bound* of
    /// the true distance, so a pruned candidate can neither beat nor tie
    /// the best — exact ties (duplicate seeds included) always survive to
    /// evaluation and resolve to the lowest index, keeping the result
    /// bit-identical to [`Self::nearest_brute`].
    pub fn nearest_pruned(
        &mut self,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        self.nearest(SeedSearch::Pruned, p, exclude, hint, stats)
    }

    /// The body of [`Self::nearest_pruned`], over a start row already
    /// settled.
    fn pruned(
        &self,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        debug_assert_eq!(p.len(), self.dim, "query dimensionality mismatch");
        let exclude = exclude.filter(|&e| e < self.len());
        let start = self.pruned_start(exclude, hint)?;
        let mut best_sq = sq_dist(p, self.seed(start));
        stats.computed += 1;
        let mut best_idx = start;
        let d_start = best_sq.sqrt();
        let mut best_d = d_start;

        let Row {
            ids: order,
            w: dists,
            seen,
        } = &self.rows[start];
        debug_assert_eq!(*seen, self.log.len(), "the start row is settled");
        // The row lists every seed once, so the start and the excluded
        // seed are its only entries never counted; `skipped` of them lie
        // before the current position.
        let uncounted = 1 + usize::from(exclude.is_some());
        let mut skipped = 0;
        for (pos, (&j32, &w)) in order.iter().zip(dists).enumerate() {
            let j = j32 as usize;
            if j == start || Some(j) == exclude {
                skipped += 1;
                continue;
            }
            if w > d_start + best_d {
                // Everything from here on is at least `w` away from the
                // start, hence strictly farther from `p` than the best.
                let tail = (order.len() - pos + skipped).saturating_sub(uncounted);
                debug_assert_eq!(
                    tail,
                    order[pos..]
                        .iter()
                        .filter(|&&k| k as usize != start && Some(k as usize) != exclude)
                        .count(),
                    "a row lists every seed once"
                );
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

    /// The seed [`Self::nearest_pruned`] starts from: the hint when it is
    /// a valid, non-excluded index, else the first non-excluded seed.
    fn pruned_start(&self, exclude: Option<usize>, hint: Option<usize>) -> Option<usize> {
        let s = self.len();
        let exclude = exclude.filter(|&e| e < s);
        match hint {
            Some(h) if h < s && Some(h) != exclude => Some(h),
            _ => (0..s).find(|&i| Some(i) != exclude),
        }
    }

    /// Nearest seed via the k-d tree index ([`SeedSearch::KdTree`]), over a
    /// tree already built. Best for low dimensionality; same result and
    /// accounting contract as the other engines, with candidates cut off by
    /// subtree bounds charged to `stats.pruned` (derived from the eligible
    /// count, since the tree does not track subtree sizes).
    fn kd_search(
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
        let tree = self.kd.as_ref().expect("the k-d tree is built");
        let before_computed = stats.computed;
        let before_partial = stats.partial;
        let (idx, sq) =
            tree.nearest_one(p, exclude.map(|e| e as u32), hint.map(|h| h as u32), stats)?;
        let touched = (stats.computed - before_computed) + (stats.partial - before_partial);
        stats.pruned += eligible as u64 - touched;
        Some((idx as usize, sq.sqrt()))
    }

    /// Readies what a search by `engine` under `exclude` and `hint` reads:
    /// the pruned search's start row, settled in place, or the k-d tree,
    /// built if a mutation dropped it. Brute force reads neither.
    fn prepare(&mut self, engine: SeedSearch, exclude: Option<usize>, hint: Option<usize>) {
        match engine {
            SeedSearch::Brute => {}
            SeedSearch::Pruned => {
                if let Some(start) = self.pruned_start(exclude, hint) {
                    self.settle_row(start);
                }
            }
            SeedSearch::KdTree => {
                if self.kd.is_none() {
                    self.kd = Some(KdTree::build_dense(self.dim, self.block.as_flat()));
                }
            }
        }
    }

    /// The search of `engine` over what [`Self::prepare`] readied.
    fn search(
        &self,
        engine: SeedSearch,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        match engine {
            SeedSearch::Brute => self.nearest_brute(p, exclude, stats),
            SeedSearch::Pruned => self.pruned(p, exclude, hint, stats),
            SeedSearch::KdTree => self.kd_search(p, exclude, hint, stats),
        }
    }

    /// Nearest seed via the engine selected by `engine`, after settling the
    /// pruned search's start row in place or building the k-d tree.
    /// [`SeedSearch::Brute`] ignores the hint (it evaluates everything
    /// regardless).
    pub fn nearest(
        &mut self,
        engine: SeedSearch,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        self.prepare(engine, exclude, hint);
        self.search(engine, p, exclude, hint, stats)
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
    /// Every distinct start row the queries read is settled in place (or
    /// the k-d tree built) first, in the calling thread. The work then fans
    /// out per [`Parallelism`] over the table, read-only: queries are split
    /// into contiguous index ranges, each range runs the identical
    /// per-query search with its own [`SearchStats`] counter, and the
    /// per-range counters are summed into `stats` in range order — so the
    /// counts, every result, the rows and the [`RepairStats`] are
    /// bit-identical to a serial loop over the same queries.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim`, if `hints` is
    /// given with a length other than the query count, or if there are
    /// queries but no eligible seed.
    pub fn nearest_batch(
        &mut self,
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

    /// The warm-start hint of query `qi`, if any.
    fn hint_of(hints: Option<&[u32]>, qi: usize) -> Option<usize> {
        hints.and_then(|h| (h[qi] != NO_HINT).then_some(h[qi] as usize))
    }

    /// Runs the per-query search for one contiguous query index range over
    /// a prepared table, appending `(index, distance)` pairs to `out` — the
    /// shared inner loop of every batch path, serial or fanned out.
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
            let (i, d) = self
                .search(engine, q, exclude, Self::hint_of(hints, qi), local)
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
        &mut self,
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
        for qi in 0..k {
            self.prepare(engine, exclude, Self::hint_of(hints, qi));
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

    /// Distance from seed `i` to seed `j` as stored in row `i`.
    fn pair(s: &NearestSeeds, i: usize, j: usize) -> f64 {
        let (ids, w) = s.neighbor_row(i);
        let k = ids
            .iter()
            .position(|&x| x as usize == j)
            .expect("row covers every seed");
        w[k]
    }

    /// Every row covers all seeds once, is sorted by (distance, index),
    /// stores the true distances bit for bit, and equals the row a fresh
    /// `from_seeds` over the same coordinates sorts.
    fn assert_rows_consistent(s: &NearestSeeds) {
        let fresh = NearestSeeds::from_seeds(s.dim(), (0..s.len()).map(|i| s.seed(i)));
        for i in 0..s.len() {
            let (row, w) = s.neighbor_row(i);
            assert_eq!(row.len(), s.len(), "row {i} covers all seeds");
            assert_eq!(w.len(), s.len(), "row {i} has one distance per seed");
            let mut seen: Vec<u32> = row.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..s.len() as u32).collect::<Vec<_>>());
            for k in 1..row.len() {
                let (a, b) = (row[k - 1], row[k]);
                assert!(
                    w[k - 1] < w[k] || (w[k - 1] == w[k] && a < b),
                    "row {i}: {a} (d={}) before {b} (d={})",
                    w[k - 1],
                    w[k]
                );
            }
            for (&j, &d) in row.iter().zip(w.iter()) {
                let j = j as usize;
                let want = if j == i {
                    0.0
                } else {
                    dist(s.seed(i), s.seed(j))
                };
                assert_eq!(d.to_bits(), want.to_bits(), "row {i} entry {j}");
            }
            assert_eq!(row, fresh.neighbor_row(i).0, "row {i} ids");
            assert_eq!(w, fresh.neighbor_row(i).1, "row {i} distances");
        }
    }

    #[test]
    fn neighbor_rows_filled_on_build() {
        let s = grid_seeds();
        assert_eq!(s.len(), 4);
        assert!((pair(&s, 0, 1) - 10.0).abs() < 1e-12);
        assert!((pair(&s, 0, 3) - 200f64.sqrt()).abs() < 1e-12);
        assert_eq!(pair(&s, 2, 2), 0.0);
        assert_rows_consistent(&s);
    }

    #[test]
    fn dist_key_orders_like_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(dist_key(a).cmp(&dist_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sorted_orders_distances_that_differ_only_in_dropped_bits() {
        // Three entries keep 2 index bits, so these distances share their
        // packed key and only the exact-key pass can order them.
        let e = f64::EPSILON;
        let row = Row::sorted(vec![1.0 + 2.0 * e, 1.0 + e, 1.0], &mut Vec::new());
        assert_eq!(row.ids, [2, 1, 0]);
        assert_eq!(row.w, [1.0, 1.0 + e, 1.0 + 2.0 * e]);
    }

    #[test]
    fn all_engines_agree() {
        let mut s = grid_seeds();
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
        let mut s = grid_seeds();
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
        let mut s = grid_seeds();
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
        let mut s = NearestSeeds::from_seeds(
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
        let mut s = NearestSeeds::new(3);
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
    fn replace_updates_rows_and_results() {
        let mut s = grid_seeds();
        // Move seed 3 next to the origin.
        s.replace(3, &[0.5, 0.5]);
        assert!((pair(&s, 3, 0) - 0.5f64.sqrt()).abs() < 1e-12);
        assert!((pair(&s, 0, 3) - 0.5f64.sqrt()).abs() < 1e-12);
        assert_rows_consistent(&s);
        for engine in ENGINES {
            let mut stats = SearchStats::new();
            let (idx, _) = s
                .nearest(engine, &[0.6, 0.6], None, None, &mut stats)
                .unwrap();
            assert_eq!(idx, 3, "{engine:?}");
        }
    }

    #[test]
    fn swap_remove_keeps_rows_consistent() {
        let mut s = grid_seeds();
        s.swap_remove(1); // seed (10, 0) removed; (10, 10) takes index 1
        assert_eq!(s.len(), 3);
        assert_eq!(s.seed(1), &[10.0, 10.0]);
        for i in 0..3 {
            for j in 0..3 {
                let expect = dist(s.seed(i), s.seed(j));
                assert!((pair(&s, i, j) - expect).abs() < 1e-12, "({i},{j})");
            }
        }
        assert_rows_consistent(&s);
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
        assert_rows_consistent(&s);
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
            assert_rows_consistent(&s);
        }
    }

    /// Settles every row in place and returns the entries it charged.
    fn settle_every_row(s: &mut NearestSeeds) -> u64 {
        let before = s.repair_stats();
        for i in 0..s.len() {
            s.settle_row(i);
        }
        s.repair_stats().delta_since(&before).entries
    }

    #[test]
    fn near_replace_shifts_only_the_span_between() {
        // Seeds on a line at the integers: nudging one seed by 0.1 moves
        // its entry past at most its mirror tie in each other row.
        let n = 60;
        let seeds: Vec<[f64; 1]> = (0..n).map(|i| [f64::from(i)]).collect();
        let mut s = NearestSeeds::from_seeds(1, seeds.iter().map(|p| p.as_slice()));
        assert_eq!(
            s.repair_stats(),
            RepairStats::default(),
            "a build is no repair"
        );
        // A replace rebuilds its own row and leaves the others unread.
        s.replace(30, &[30.1]);
        let replaced = s.repair_stats();
        assert_eq!(replaced.ops, 1);
        assert_eq!(replaced.naive_entries, (n * n) as u64);
        assert_eq!(replaced.entries, n as u64, "only row 30 is written");
        // Reading a row settles it: at most two entries shifted plus the
        // write per row; row 30 itself is already settled.
        let near = settle_every_row(&mut s);
        assert!(near <= 3 * (n as u64 - 1), "{near}");
        assert_eq!(settle_every_row(&mut s), 0, "a settled row costs nothing");
        assert_rows_consistent(&s);
        // A far move shifts the entry across most of each row when read.
        s.replace(30, &[1000.0]);
        assert_eq!(s.repair_stats().entries, replaced.entries + near + n as u64);
        let far = settle_every_row(&mut s);
        assert!(far > 10 * near, "{far} vs {near}");
        assert_rows_consistent(&s);
    }

    #[test]
    fn swap_remove_ledger_counts_the_shifted_tail() {
        let n = 60;
        let seeds: Vec<[f64; 2]> = (0..n).map(|i| [f64::from(i), f64::from(i * i)]).collect();
        let mut s = NearestSeeds::from_seeds(2, seeds.iter().map(|p| p.as_slice()));
        // Leave a re-seed pending: swap_remove settles it first.
        s.replace(7, &[3.5, 1.5]);
        let before = s.repair_stats();
        let mut settled = s.clone();
        let settle = settle_every_row(&mut settled);
        // Removing the last seed only drops one entry per row: the entries
        // shifted are exactly those after it.
        let tail: u64 = (0..n as usize - 1)
            .map(|i| {
                let row = settled.neighbor_order(i);
                let p = row
                    .iter()
                    .position(|&x| x as usize == n as usize - 1)
                    .unwrap();
                (row.len() - 1 - p) as u64
            })
            .sum();
        s.swap_remove(n as usize - 1);
        let d = s.repair_stats().delta_since(&before);
        assert!(settle > 0);
        assert_eq!(d.entries, settle + tail);
        assert_eq!(d.naive_entries, ((n - 1) * (n - 1)) as u64);
        assert_eq!(d.ops, 1);
        assert_rows_consistent(&s);
    }

    #[test]
    #[should_panic(expected = "neighbor row lost index 1")]
    fn settle_panics_when_a_logged_seed_is_missing() {
        let mut s = grid_seeds();
        // Row 0 loses seed 1 (its slot now names seed 2 twice), then seed
        // 1 is re-seeded: reading row 0 must settle that re-seed.
        let p = s.rows[0].ids.iter().position(|&j| j == 1).unwrap();
        s.rows[0].ids[p] = 2;
        s.replace(1, &[5.0, 5.0]);
        let _ = s.neighbor_order(0);
    }

    #[test]
    fn batch_into_reuses_buffer_and_matches_batch() {
        let mut s = grid_seeds();
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
    fn rows_track_incremental_pushes() {
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
            assert_rows_consistent(&s);
        }
    }

    #[test]
    fn batch_matches_per_query_calls_in_every_mode() {
        let mut s = grid_seeds();
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
        let mut s = grid_seeds();
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
        let mut s = grid_seeds();
        let mut stats = SearchStats::new();
        assert!(s
            .nearest_batch(
                &[],
                None,
                SeedSearch::Brute,
                None,
                Parallelism::Auto,
                &mut stats
            )
            .is_empty());
        assert_eq!(stats, SearchStats::new());
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn batch_ragged_buffer_panics() {
        let mut s = grid_seeds();
        let mut stats = SearchStats::new();
        let _ = s.nearest_batch(
            &[1.0, 2.0, 3.0],
            None,
            SeedSearch::Brute,
            None,
            Parallelism::Serial,
            &mut stats,
        );
    }

    #[test]
    #[should_panic(expected = "one hint per query")]
    fn batch_misaligned_hints_panic() {
        let mut s = grid_seeds();
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
        let mut s = grid_seeds();
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
        let mut s = grid_seeds();
        let row = s.neighbor_order(0);
        assert_eq!(row[0], 0);
        assert_eq!(row[3], 3, "diagonal neighbor is farthest from seed 0");
    }
}
