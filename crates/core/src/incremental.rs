//! Incremental maintenance of a set of data bubbles (paper, Section 4).
//!
//! [`IncrementalBubbles`] owns the bubble population over a dynamic
//! database:
//!
//! * **Construction** ([`IncrementalBubbles::build`]): `s` seeds are drawn
//!   uniformly from the database and every point is assigned to its closest
//!   seed — by brute force, with the triangle-inequality pruning of
//!   Section 3, or through a k-d tree over the seeds, per
//!   [`MaintainerConfig::seed_search`]. The *complete rebuild* baseline of
//!   the evaluation is this same function invoked afresh.
//! * **Updates**: deleting a point maps its bubble's statistics to
//!   `(n−1, LS−p, SS−p²)`; inserting assigns the new point to the closest
//!   seed and maps that bubble to `(n+1, LS+p, SS+p²)` (Figure 3).
//!   [`IncrementalBubbles::apply_batch`] performs both for a whole
//!   [`Batch`], mutating the store alongside its own side tables.
//! * **Maintenance** ([`IncrementalBubbles::maintain`]): bubbles are
//!   classified by the configured quality measure (Definition 3); each
//!   over-filled bubble is repaired by *merging away* a donor (an
//!   under-filled bubble when available, otherwise the lowest-quality good
//!   bubble) — its points are released to their next-closest bubbles — and
//!   *splitting* the over-filled bubble between two fresh seeds drawn from
//!   its own members (Figure 6). Only the two bubbles involved are rebuilt;
//!   the rest of the population adapts in place.
//!
//! All point-to-seed distance work is charged to the caller's
//! [`SearchStats`], which is what Figures 10 and 11 measure. The dynamic
//! paths additionally thread *warm-start hints* into the pruned engines
//! (see [`MaintainerConfig::warm_start`]): an insertion starts its search
//! at the previous insertion's bubble, a merged-away donor's points start
//! at the donor's nearest surviving neighbour, and a repair sweep starts
//! each uncovered point at its prior owner. Hints tighten the pruning
//! bound early and never change any result.

use crate::bubble::Bubble;
use crate::config::{MaintainerConfig, SplitSeedPolicy};
use crate::error::{AuditError, AuditIssue, AuditReport, RepairReport, UpdateError};
use crate::quality::{classify, Classification};
use idb_geometry::parallel::run_chunks;
use idb_geometry::{dist, NearestSeeds, RepairMetrics, RepairStats, SearchMetrics, SearchStats};
use idb_obs::{Cause, EventKind, Obs};
use idb_store::{Batch, PointId, PointStore, StorageError};
use rand::Rng;

const NONE: u32 = u32::MAX;

/// What one maintenance round did (feeds Figure 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Bubbles classified as over-filled.
    pub over_filled: usize,
    /// Bubbles classified as under-filled.
    pub under_filled: usize,
    /// Merge/split operations executed.
    pub splits: usize,
    /// Bubbles rebuilt (re-seeded): two per split.
    pub rebuilt_bubbles: usize,
    /// Splits whose donor had to be recruited from the good class because
    /// no under-filled bubble was available.
    pub donors_from_good: usize,
    /// Points released from donors and reassigned to neighbours.
    pub released_points: u64,
    /// Points redistributed between the two halves of splits.
    pub reassigned_points: u64,
}

/// Policy of the adaptive-count extension: keep the average number of
/// points per bubble inside `[min_avg_points, max_avg_points]` by growing
/// or shrinking the population (the paper's Section 6 names this as future
/// work; the fixed-count scheme of Section 4 never changes the population
/// size).
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Shrink while the average points-per-bubble is below this.
    pub min_avg_points: f64,
    /// Grow while the average points-per-bubble is above this.
    pub max_avg_points: f64,
    /// Maximum growth steps and maximum shrink steps per round.
    pub max_adjustments: usize,
}

impl AdaptivePolicy {
    /// A band around a target average: `[target/2, target*2]`, adjusting at
    /// most 16 bubbles per round.
    #[must_use]
    pub fn around(target_avg_points: f64) -> Self {
        Self {
            min_avg_points: target_avg_points / 2.0,
            max_avg_points: target_avg_points * 2.0,
            max_adjustments: 16,
        }
    }

    /// Validates the policy without panicking.
    ///
    /// # Errors
    /// [`UpdateError::InvalidPolicy`] unless
    /// `0 < min_avg_points < max_avg_points` and both bounds are finite.
    pub fn check(&self) -> Result<(), UpdateError> {
        if self.min_avg_points > 0.0
            && self.max_avg_points > self.min_avg_points
            && self.max_avg_points.is_finite()
        {
            Ok(())
        } else {
            Err(UpdateError::InvalidPolicy {
                min_avg_points: self.min_avg_points,
                max_avg_points: self.max_avg_points,
            })
        }
    }
}

/// What one adaptive maintenance round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// The regular merge/split round that ran first.
    pub base: MaintenanceReport,
    /// Bubbles added by splitting heavy ones.
    pub grown: usize,
    /// Bubbles retired by releasing light ones.
    pub retired: usize,
}

/// Reusable per-batch working memory for the dynamic paths (DESIGN.md §15).
///
/// Every buffer is logically empty between operations — only the backing
/// capacity persists, so after the first few batches of a steady-state
/// stream the hot paths (batch application, merge-away drains, splits)
/// allocate nothing. Purely an optimization: the scratch never carries
/// state across calls, is excluded from snapshots, and a `Default` (empty)
/// scratch yields bit-identical results.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Flat coordinate staging for batched nearest-seed queries.
    flat: Vec<f64>,
    /// Warm-start hint per query (one repeated seed for drain batches).
    hints: Vec<u32>,
    /// `(bubble, distance)` results of a batched nearest-seed search.
    targets: Vec<(u32, f64)>,
    /// Single-point coordinate staging (the delete path).
    coords: Vec<f64>,
    /// Per-member half choice of a split redistribution.
    halves: Vec<bool>,
}

/// A maintained population of data bubbles over a [`PointStore`].
#[derive(Debug, Clone)]
pub struct IncrementalBubbles {
    dim: usize,
    config: MaintainerConfig,
    seeds: NearestSeeds,
    bubbles: Vec<Bubble>,
    /// slot -> owning bubble index, `NONE` when unassigned.
    assign: Vec<u32>,
    /// slot -> position inside the owning bubble's member vector.
    member_pos: Vec<u32>,
    total_points: u64,
    /// Bubble that received the most recent insertion — the warm-start
    /// hint for the next one (update streams are typically spatially
    /// correlated). `NONE` until the first insertion; purely an
    /// accounting optimization, never affects results.
    last_insert: u32,
    /// Journal + metrics sinks. Structural events are emitted only from
    /// the single thread driving the maintainer, so the recorded stream is
    /// deterministic under any [`Parallelism`](crate::Parallelism). Disabled
    /// by default.
    obs: Obs,
    /// One flag per bubble slot: whether the slot's snapshot record
    /// changed since the window opened (at the newest full checkpoint) —
    /// what a delta checkpoint persists. `None` while untracked; growing,
    /// retiring and repairing close the window.
    dirty: Option<Vec<bool>>,
    /// Reusable working memory for the dynamic paths. Never semantic.
    scratch: Scratch,
}

impl IncrementalBubbles {
    /// Builds a fresh bubble population over the current store contents:
    /// random seed selection followed by the assignment of every live point
    /// (step 1 and 2 of the construction algorithm in Section 3).
    ///
    /// The assignment scan — the dominant O(N·s·d) cost — runs under
    /// `config.parallelism`: points are chunked across scoped worker
    /// threads, each with its own instrumented distance counter, all
    /// sharing the read-only seed neighbor table; the per-chunk counters are
    /// merged into `search` afterwards. Every mode yields a bit-identical
    /// maintainer and identical counts for the same RNG seed (seed
    /// selection is the only RNG consumer and happens up front).
    ///
    /// # Panics
    /// Panics if the store holds fewer points than `config.num_bubbles`.
    pub fn build<R: Rng + ?Sized>(
        store: &PointStore,
        config: MaintainerConfig,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> Self {
        assert!(
            store.len() >= config.num_bubbles,
            "database smaller than the requested number of bubbles"
        );
        // A full build touches every payload anyway; require them resident
        // and keep the hot path free of per-point fetch fallibility.
        // (Tiered flows build first, then call `enable_tier`.)
        assert!(
            store.all_resident(),
            "build requires a fully resident store; enable the cold tier after building"
        );
        let dim = store.dim();
        let seed_ids = store.sample_distinct(config.num_bubbles, rng);
        let seeds = NearestSeeds::from_seeds(dim, seed_ids.iter().map(|&id| store.point(id)));
        let bubbles = seed_ids
            .iter()
            .map(|&id| Bubble::new(store.point(id).to_vec()))
            .collect();
        let mut this = Self {
            dim,
            config,
            seeds,
            bubbles,
            assign: vec![NONE; store.slots()],
            member_pos: vec![NONE; store.slots()],
            total_points: 0,
            last_insert: NONE,
            // A fresh build journals nothing: callers attach a handle with
            // `set_obs` once the summary exists.
            obs: Obs::disabled(),
            dirty: None,
            scratch: Scratch::default(),
        };
        let mut ids = Vec::with_capacity(store.len());
        let mut flat = Vec::with_capacity(store.len() * dim);
        for (id, p, _) in store.iter() {
            ids.push(id);
            flat.extend_from_slice(p);
        }
        // A fresh build has no assignment history to warm-start from.
        let targets = this.batch_targets(&flat, None, None, search);
        for (&id, &(b, _)) in ids.iter().zip(&targets) {
            this.attach(id, b as usize, store.point(id));
            this.total_points += 1;
        }
        this
    }

    /// Nearest eligible seed for every point in the flat `queries` buffer,
    /// under the configured engine and parallelism. `hints` carries one
    /// warm-start seed per query ([`idb_geometry::NO_HINT`] for none) and
    /// is dropped wholesale when [`MaintainerConfig::warm_start`] is off.
    /// Counter merging keeps `search` bit-identical to a serial scan.
    fn batch_targets(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        hints: Option<&[u32]>,
        search: &mut SearchStats,
    ) -> Vec<(u32, f64)> {
        let hints = if self.config.warm_start { hints } else { None };
        self.seeds.nearest_batch(
            queries,
            exclude,
            self.config.seed_search,
            hints,
            self.config.parallelism,
            search,
        )
    }

    /// [`Self::batch_targets`] writing into a caller-owned buffer — the
    /// allocation-free variant the steady-state paths feed their scratch
    /// arena through. Results and accounting are bit-identical.
    fn batch_targets_into(
        &self,
        queries: &[f64],
        exclude: Option<usize>,
        hints: Option<&[u32]>,
        search: &mut SearchStats,
        out: &mut Vec<(u32, f64)>,
    ) {
        let hints = if self.config.warm_start { hints } else { None };
        self.seeds.nearest_batch_into(
            queries,
            exclude,
            self.config.seed_search,
            hints,
            self.config.parallelism,
            search,
            out,
        );
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &MaintainerConfig {
        &self.config
    }

    /// The observability handle events and metrics flow through.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replaces the observability handle (a built or decoded maintainer
    /// starts with [`Obs::disabled`]). Purely an output channel — never
    /// affects summarization results.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Opens a fresh dirty window with every slot clean: from here on,
    /// each slot whose snapshot record changes is flagged until the window
    /// closes. The durability layer opens one at every full checkpoint.
    pub(crate) fn open_dirty_window(&mut self) {
        self.dirty = Some(vec![false; self.bubbles.len()]);
    }

    /// Closes the dirty window: the next checkpoint must be full.
    pub(crate) fn close_dirty_window(&mut self) {
        self.dirty = None;
    }

    /// The slots changed since the dirty window opened, one flag per slot;
    /// `None` when no window is open.
    pub(crate) fn dirty_slots(&self) -> Option<&[bool]> {
        self.dirty.as_deref()
    }

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(flags) = self.dirty.as_mut() {
            flags[slot] = true;
        }
    }

    /// Folds a search-stats delta into the per-engine
    /// `assign.<engine>.*` metric family, when metrics are on.
    fn observe_search(&self, queries: u64, delta: &SearchStats, us: u64) {
        if !self.obs.metrics_on() {
            return;
        }
        SearchMetrics::register(self.obs.metrics(), self.config.seed_search.as_str())
            .observe(queries, delta, us);
    }

    /// Folds the seed-set structural accounting accumulated since the given
    /// snapshots into the `repair.<engine>.*` metric family, when metrics
    /// are on. Call sites snapshot immediately before the leaf mutations
    /// (seed pushes, replacements, removals) and row settles so nested
    /// phases never double count.
    fn observe_repair(&self, before: RepairStats) {
        if !self.obs.metrics_on() {
            return;
        }
        let repair = self.seeds.repair_stats().delta_since(&before);
        if repair == RepairStats::default() {
            return;
        }
        RepairMetrics::register(self.obs.metrics(), self.config.seed_search.as_str())
            .observe(&repair);
    }

    /// Dimensionality of the summarized points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The seed set's cumulative neighbor-table repair ledger (DESIGN.md
    /// §15): row entries moved or written by the incremental mutators
    /// since the table was built. `kernel_report` reads this after a
    /// dynamic flow to compare it with a per-mutation rebuild.
    #[must_use]
    pub fn seed_repair_stats(&self) -> RepairStats {
        self.seeds.repair_stats()
    }

    /// Number of bubbles (constant over the lifetime of the maintainer —
    /// the scheme maintains a fixed compression rate).
    #[must_use]
    pub fn num_bubbles(&self) -> usize {
        self.bubbles.len()
    }

    /// Number of points currently summarized.
    #[must_use]
    pub fn total_points(&self) -> u64 {
        self.total_points
    }

    /// The bubble population.
    #[must_use]
    pub fn bubbles(&self) -> &[Bubble] {
        &self.bubbles
    }

    /// One bubble.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bubble(&self, i: usize) -> &Bubble {
        &self.bubbles[i]
    }

    /// The bubble a live point is currently assigned to, if any.
    #[must_use]
    pub fn assignment(&self, id: PointId) -> Option<usize> {
        match self.assign.get(id.index()) {
            Some(&b) if b != NONE => Some(b as usize),
            _ => None,
        }
    }

    /// Classifies the current population under the configured quality
    /// measure without modifying anything.
    #[must_use]
    pub fn classify_now(&self) -> Classification {
        classify(
            self.config.quality,
            &self.bubbles,
            self.total_points,
            self.config.probability,
        )
    }

    fn ensure_slots(&mut self, slots: usize) {
        if self.assign.len() < slots {
            self.assign.resize(slots, NONE);
            self.member_pos.resize(slots, NONE);
        }
    }

    /// Finds the closest seed to `p` under the configured engine, starting
    /// the pruned search at `hint` when warm-starting is enabled. The
    /// pruned search's start row is settled in place first.
    fn nearest(
        &mut self,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        search: &mut SearchStats,
    ) -> Option<usize> {
        let hint = if self.config.warm_start { hint } else { None };
        let repair_before = self.seeds.repair_stats();
        self.seeds
            .settle_start(self.config.seed_search, exclude, hint);
        self.observe_repair(repair_before);
        self.seeds
            .nearest(self.config.seed_search, p, exclude, hint, search)
            .map(|(i, _)| i)
    }

    /// Attaches a point to a bubble, maintaining the membership tables.
    fn attach(&mut self, id: PointId, bubble: usize, p: &[f64]) {
        let slot = id.index();
        debug_assert_eq!(self.assign[slot], NONE, "attach of already-assigned point");
        let b = &mut self.bubbles[bubble];
        self.member_pos[slot] = b.members().len() as u32;
        b.members_mut().push(id);
        b.stats_mut().add(p);
        self.assign[slot] = bubble as u32;
        self.mark_dirty(bubble);
    }

    /// Detaches a point from its bubble (O(1) swap-remove), returning the
    /// bubble index. Statistics are *not* touched — callers decide whether
    /// the point's mass leaves the bubble ([`Self::remove_point`]) or the
    /// whole bubble is being rebuilt.
    fn detach(&mut self, id: PointId) -> usize {
        let slot = id.index();
        let bubble = self.assign[slot];
        assert!(bubble != NONE, "detach of unassigned point {id:?}");
        let bubble = bubble as usize;
        let pos = self.member_pos[slot] as usize;
        let members = self.bubbles[bubble].members_mut();
        members.swap_remove(pos);
        if pos < members.len() {
            let moved = members[pos];
            self.member_pos[moved.index()] = pos as u32;
        }
        self.assign[slot] = NONE;
        self.member_pos[slot] = NONE;
        bubble
    }

    /// Handles the insertion of point `id` with coordinates `p`: the point
    /// is assigned to its closest seed and that bubble's statistics are
    /// incremented. The point must already be live in the store.
    ///
    /// The search warm-starts at the bubble the *previous* insertion
    /// landed in — update streams are spatially correlated, so that seed
    /// usually yields a tight pruning bound immediately.
    pub fn insert_point(&mut self, id: PointId, p: &[f64], search: &mut SearchStats) {
        assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        self.ensure_slots(id.index() + 1);
        let hint = match self.last_insert {
            NONE => None,
            b => Some(b as usize),
        };
        let bubble = self
            .nearest(p, None, hint, search)
            .expect("bubble population is never empty");
        self.attach(id, bubble, p);
        self.last_insert = bubble as u32;
        self.total_points += 1;
        self.obs.emit(
            EventKind::Insert {
                bubble: bubble as u32,
            },
            0,
        );
    }

    /// Handles the deletion of point `id` with coordinates `p`: its
    /// bubble's statistics are decremented. Call *before* removing the
    /// point from the store (the coordinates are still needed).
    ///
    /// # Panics
    /// Panics if the point is not currently assigned.
    pub fn remove_point(&mut self, id: PointId, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        let bubble = self.detach(id);
        self.bubbles[bubble].stats_mut().remove(p);
        self.mark_dirty(bubble);
        self.total_points -= 1;
        self.obs.emit(
            EventKind::Delete {
                bubble: bubble as u32,
            },
            0,
        );
    }

    /// Applies a whole update batch: deletions are removed from both the
    /// summary and the store, then insertions are added to the store and
    /// assigned. Returns the ids of the inserted points, in order.
    ///
    /// Thin panicking wrapper around [`Self::try_apply_batch`] for callers
    /// that trust their update stream (the paper's setting).
    ///
    /// # Panics
    /// Panics if the batch fails validation — wrong dimensionality or
    /// non-finite coordinates on an insert, a delete of a non-live point,
    /// or the same point deleted twice.
    pub fn apply_batch(
        &mut self,
        store: &mut PointStore,
        batch: &Batch,
        search: &mut SearchStats,
    ) -> Vec<PointId> {
        match self.try_apply_batch(store, batch, search) {
            Ok(ids) => ids,
            Err(e) => panic!("invalid batch: {e}"),
        }
    }

    /// Pre-validates `batch` against the current state without applying
    /// anything; `Ok(())` guarantees [`Self::try_apply_batch`] will accept
    /// it. The durability layer calls this before logging a batch, so the
    /// WAL only ever contains batches that replay cleanly.
    ///
    /// # Errors
    /// The same typed errors as [`Self::try_apply_batch`].
    pub fn check_batch(&self, store: &PointStore, batch: &Batch) -> Result<(), UpdateError> {
        for (index, (p, _)) in batch.inserts.iter().enumerate() {
            if p.len() != self.dim {
                return Err(UpdateError::DimensionMismatch {
                    index,
                    expected: self.dim,
                    found: p.len(),
                });
            }
            for (axis, &x) in p.iter().enumerate() {
                if !x.is_finite() {
                    return Err(UpdateError::NonFiniteCoordinate {
                        index,
                        axis,
                        value: x,
                    });
                }
            }
        }
        for &id in &batch.deletes {
            if !store.contains(id) || self.assignment(id).is_none() {
                return Err(UpdateError::StaleDelete { id });
            }
        }
        // A pair of deletes naming the same id would double-remove; detect
        // via a sorted copy (no hashing, deterministic).
        if batch.deletes.len() > 1 {
            let mut sorted: Vec<PointId> = batch.deletes.clone();
            sorted.sort_unstable_by_key(|id| id.0);
            for w in sorted.windows(2) {
                if w[0] == w[1] {
                    return Err(UpdateError::ConflictingOps { id: w[0] });
                }
            }
        }
        Ok(())
    }

    /// Transactional batch application: the whole batch is validated
    /// up front and only then applied.
    ///
    /// On `Err`, the maintainer (bubbles, assignment tables, seed table,
    /// point total) and the store are **bit-identical** to their pre-call
    /// state — validation touches nothing, and a validated batch cannot
    /// fail mid-apply.
    ///
    /// # Errors
    /// The first problem found, checking inserts then deletes:
    /// * [`UpdateError::DimensionMismatch`] — an insert with the wrong
    ///   number of coordinates;
    /// * [`UpdateError::NonFiniteCoordinate`] — an insert carrying NaN or
    ///   an infinity;
    /// * [`UpdateError::StaleDelete`] — a delete of a point that is not
    ///   live (or not tracked by this summarization);
    /// * [`UpdateError::ConflictingOps`] — the same point deleted twice in
    ///   one batch;
    /// * [`UpdateError::Storage`] — a tiered store could not read a
    ///   deleted point's cold record. All payloads are staged *before*
    ///   the first mutation, so this rejects the batch with the state
    ///   untouched, exactly like a validation failure.
    pub fn try_apply_batch(
        &mut self,
        store: &mut PointStore,
        batch: &Batch,
        search: &mut SearchStats,
    ) -> Result<Vec<PointId>, UpdateError> {
        self.check_batch(store, batch)?;
        let timer = self.obs.start();
        let before = *search;
        // One scratch buffer carries every deleted point's coordinates —
        // staged up front (a cold-tier read failure must reject the batch
        // before anything mutates), strided by `dim` for the remove loop.
        let mut coords = std::mem::take(&mut self.scratch.coords);
        coords.clear();
        for &id in &batch.deletes {
            if let Err(e) = store.read_point_into(id, &mut coords) {
                self.scratch.coords = coords;
                return Err(UpdateError::Storage(e));
            }
        }
        for (i, &id) in batch.deletes.iter().enumerate() {
            self.remove_point(id, &coords[i * self.dim..(i + 1) * self.dim]);
            store.remove(id);
        }
        self.scratch.coords = coords;
        let mut new_ids = Vec::with_capacity(batch.inserts.len());
        for (p, label) in &batch.inserts {
            let id = store.insert(p, *label);
            self.insert_point(id, p, search);
            new_ids.push(id);
        }
        self.observe_search(
            batch.inserts.len() as u64,
            &search.delta_since(&before),
            timer.us(),
        );
        self.obs.emit(
            EventKind::BatchApplied {
                inserts: batch.inserts.len() as u32,
                deletes: batch.deletes.len() as u32,
            },
            timer.us(),
        );
        Ok(new_ids)
    }

    /// Releases all members of a bubble to their next-closest bubbles
    /// (the *merge* of Figure 6), leaving it empty. Returns the number of
    /// released points.
    ///
    /// The released points' target searches are independent of each other
    /// (the seed set does not change while they run), so they are computed
    /// as one batch under the configured parallelism and then attached in
    /// member order — bit-identical to the serial point-at-a-time loop.
    /// Every search warm-starts at the donor's nearest surviving
    /// neighbour: the donor held these points, so its closest other seed
    /// is almost always at (or very near) the true answer.
    /// # Errors
    /// [`StorageError::ColdIo`] when a member's cold record cannot be
    /// read. Payloads are staged before the first mutation, so on `Err`
    /// the maintainer and store are untouched.
    fn merge_away(
        &mut self,
        donor: usize,
        store: &PointStore,
        search: &mut SearchStats,
        cause: Cause,
    ) -> Result<u64, StorageError> {
        let timer = self.obs.start();
        // Stage the drain through the scratch arena: the coordinate batch,
        // the repeated warm-start hint and the target list all reuse the
        // capacity left by previous drains (`mem::take` sidesteps the
        // borrow of `self` the batched search needs). Staging runs before
        // `take_members` so a cold-tier failure aborts with nothing moved.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.flat.clear();
        for &id in self.bubbles[donor].members() {
            if let Err(e) = store.read_point_into(id, &mut scratch.flat) {
                self.scratch = scratch;
                return Err(e);
            }
        }
        let members = self.bubbles[donor].take_members();
        self.bubbles[donor].stats_mut().clear();
        self.mark_dirty(donor);
        let released = members.len() as u64;
        // Settle the rows about to be read in place — the donor's, and the
        // pruned searches' start — so the fan-out below reads them as is.
        let repair_before = self.seeds.repair_stats();
        self.seeds.settle_row(donor);
        let hint = self
            .seeds
            .neighbor_order(donor)
            .iter()
            .copied()
            .find(|&k| k as usize != donor);
        let start = hint.filter(|_| self.config.warm_start);
        self.seeds.settle_start(
            self.config.seed_search,
            Some(donor),
            start.map(|h| h as usize),
        );
        self.observe_repair(repair_before);
        let hints = match hint {
            Some(h) => {
                scratch.hints.clear();
                scratch.hints.resize(members.len(), h);
                Some(scratch.hints.as_slice())
            }
            None => None,
        };
        // The donor must not re-attract its own points.
        self.batch_targets_into(
            &scratch.flat,
            Some(donor),
            hints,
            search,
            &mut scratch.targets,
        );
        for (i, (&id, &(target, _))) in members.iter().zip(&scratch.targets).enumerate() {
            let slot = id.index();
            self.assign[slot] = NONE;
            self.member_pos[slot] = NONE;
            // `detach` was bypassed (the member list is already drained), so
            // attach directly to the closest bubble other than the donor,
            // reading the staged payload (the store copy may be cold).
            self.attach(
                id,
                target as usize,
                &scratch.flat[i * self.dim..(i + 1) * self.dim],
            );
        }
        self.scratch = scratch;
        self.obs.emit(
            EventKind::MergeAway {
                donor: donor as u32,
                moved: released,
                cause,
            },
            timer.us(),
        );
        Ok(released)
    }

    /// Splits an over-filled bubble between two fresh seeds drawn from its
    /// members: one half keeps the bubble, the other is adopted by the
    /// (now empty) donor. Returns the number of redistributed points.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when a member's cold record cannot be
    /// read. Payloads are staged before the first mutation, so on `Err`
    /// the maintainer and store are untouched.
    fn split<R: Rng + ?Sized>(
        &mut self,
        over: usize,
        donor: usize,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
        cause: Cause,
    ) -> Result<u64, StorageError> {
        let timer = self.obs.start();
        let dim = self.dim;
        // Stage every member payload once, before the first mutation: the
        // seed draws, the spread scan, the half assignment and the attach
        // loop all read the staged batch (the store copies may be cold),
        // and a cold-tier failure aborts with nothing moved.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.flat.clear();
        for &id in self.bubbles[over].members() {
            if let Err(e) = store.read_point_into(id, &mut scratch.flat) {
                self.scratch = scratch;
                return Err(e);
            }
        }
        let members = self.bubbles[over].take_members();
        self.bubbles[over].stats_mut().clear();
        self.mark_dirty(over);
        self.mark_dirty(donor);
        debug_assert!(members.len() >= 2, "split requires at least two members");
        let flat = &scratch.flat;
        let pt = |i: usize| &flat[i * dim..(i + 1) * dim];

        // Seed 1: a random member, repositioning the donor (Figure 6:
        // "select a new seed s1 from the current points in B_overfilled").
        let i1 = rng.gen_range(0..members.len());
        let p1 = pt(i1).to_vec();

        // Seed 2: per policy — another random member, or the member
        // farthest from seed 1.
        let p2 = match self.config.split_seeds {
            SplitSeedPolicy::Random => {
                let mut i2 = rng.gen_range(0..members.len());
                // Distinct index (identical coordinates are tolerated; a
                // degenerate bubble of duplicates splits arbitrarily).
                if members.len() > 1 {
                    while i2 == i1 {
                        i2 = rng.gen_range(0..members.len());
                    }
                }
                pt(i2).to_vec()
            }
            SplitSeedPolicy::Spread => {
                let mut best = (0usize, -1.0f64);
                for i in 0..members.len() {
                    let d = dist(&p1, pt(i));
                    search.computed += 1;
                    if d > best.1 {
                        best = (i, d);
                    }
                }
                pt(best.0).to_vec()
            }
        };

        let repair_before = self.seeds.repair_stats();
        self.seeds.replace(donor, &p1);
        self.seeds.replace(over, &p2);
        self.observe_repair(repair_before);
        *self.bubbles[donor].seed_mut() = p1.clone();
        *self.bubbles[over].seed_mut() = p2.clone();

        // Distribute the members between the two new seeds only (the paper
        // restricts the redistribution to s1 and s2). The two distances per
        // member are independent across members, so the comparison fans out
        // over chunks; ties keep the serial rule (d1 <= d2 → donor half).
        // The per-member half choices land in the scratch arena; the serial
        // path writes them directly, the threaded path drains its per-chunk
        // vectors into the same buffer in chunk order (identical contents).
        let reassigned = members.len() as u64;
        let threads = self.config.parallelism.effective_threads();
        scratch.halves.clear();
        if threads <= 1 {
            for i in 0..members.len() {
                let p = &scratch.flat[i * dim..(i + 1) * dim];
                scratch.halves.push(dist(p, &p1) <= dist(p, &p2));
            }
        } else {
            // The threads read the staged slices by index, so the store is
            // never touched off the apply thread.
            let p1_ref = &p1;
            let p2_ref = &p2;
            let flat_ref = &scratch.flat;
            let indices: Vec<usize> = (0..members.len()).collect();
            let chunked: Vec<Vec<bool>> = run_chunks(&indices, threads, |chunk| {
                chunk
                    .iter()
                    .map(|&i| {
                        let p = &flat_ref[i * dim..(i + 1) * dim];
                        dist(p, p1_ref) <= dist(p, p2_ref)
                    })
                    .collect()
            });
            for chunk in chunked {
                scratch.halves.extend(chunk);
            }
        }
        search.computed += 2 * reassigned;
        for (i, &id) in members.iter().enumerate() {
            let slot = id.index();
            self.assign[slot] = NONE;
            self.member_pos[slot] = NONE;
            let target = if scratch.halves[i] { donor } else { over };
            self.attach(id, target, &scratch.flat[i * dim..(i + 1) * dim]);
        }
        self.scratch = scratch;
        self.obs.emit(
            EventKind::Split {
                over: over as u32,
                donor: donor as u32,
                moved: reassigned,
                cause,
            },
            timer.us(),
        );
        Ok(reassigned)
    }

    /// One maintenance round (run after each applied batch): classify the
    /// population, then repair every over-filled bubble with a synchronized
    /// merge/split. Returns what was done.
    ///
    /// Panics when a cold-tier read fails mid-round; callers running over a
    /// tiered store should use [`Self::try_maintain`] and degrade instead.
    pub fn maintain<R: Rng + ?Sized>(
        &mut self,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> MaintenanceReport {
        self.try_maintain(store, rng, search)
            .expect("cold tier failed during maintenance")
    }

    /// Fallible [`Self::maintain`]: surfaces cold-tier read failures as
    /// [`StorageError`] instead of panicking.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when a member payload could not be fetched.
    /// Each merge/split stages its reads before mutating, so the structure
    /// stays valid on `Err` — but the round stops early, leaving the
    /// remaining over-filled bubbles for a later (healed) round.
    pub fn try_maintain<R: Rng + ?Sized>(
        &mut self,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> Result<MaintenanceReport, StorageError> {
        self.maintain_with_cause(store, rng, search, Cause::Maintain)
    }

    /// [`Self::try_maintain`] journaled under an explicit cause (the
    /// adaptive round tags its base pass [`Cause::Adaptive`]).
    fn maintain_with_cause<R: Rng + ?Sized>(
        &mut self,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
        cause: Cause,
    ) -> Result<MaintenanceReport, StorageError> {
        let timer = self.obs.start();
        let before = *search;
        let classification = self.classify_now();
        let over = classification.over_filled();
        let mut under = classification.under_filled();
        let mut good = classification.good_ascending();
        // Donor recruitment consumes each list front-to-back; reverse so
        // `pop` yields the emptiest/lowest-quality candidates first.
        under.reverse();
        good.reverse();

        let mut report = MaintenanceReport {
            over_filled: over.len(),
            under_filled: under.len(),
            ..MaintenanceReport::default()
        };
        let mut used = vec![false; self.bubbles.len()];
        for &o in &over {
            used[o] = true;
        }

        for &o in &over {
            if self.bubbles[o].members().len() < 2 {
                continue;
            }
            // Donor: emptiest under-filled bubble, else lowest-β good one.
            let mut donor = None;
            let mut from_good = false;
            while let Some(u) = under.pop() {
                if !used[u] {
                    donor = Some(u);
                    break;
                }
            }
            if donor.is_none() {
                while let Some(g) = good.pop() {
                    if !used[g] {
                        donor = Some(g);
                        from_good = true;
                        break;
                    }
                }
            }
            let Some(d) = donor else {
                break; // No donors left; remaining over-filled bubbles wait.
            };
            used[d] = true;

            report.released_points += self.merge_away(d, store, search, cause)?;
            report.reassigned_points += self.split(o, d, store, rng, search, cause)?;
            report.splits += 1;
            report.rebuilt_bubbles += 2;
            if from_good {
                report.donors_from_good += 1;
            }
        }
        self.observe_search(
            report.released_points + report.reassigned_points,
            &search.delta_since(&before),
            timer.us(),
        );
        self.obs.emit(
            EventKind::MaintainRound {
                merges: report.splits as u32,
                splits: report.splits as u32,
                cause,
            },
            timer.us(),
        );
        Ok(report)
    }

    /// Splits the given bubble into two by *adding a brand-new bubble*
    /// (instead of recruiting a donor), increasing the population size by
    /// one. Returns the new bubble's index.
    ///
    /// Part of the adaptive-count extension (the paper's Section 6 future
    /// work: dynamically increasing the number of incremental data
    /// bubbles).
    ///
    /// # Panics
    /// Panics if the bubble has fewer than two members.
    pub fn grow_bubble<R: Rng + ?Sized>(
        &mut self,
        over: usize,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> usize {
        self.try_grow_bubble(over, store, rng, search)
            .expect("cold tier failed during grow")
    }

    /// Fallible [`Self::grow_bubble`].
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when a member payload could not be
    /// fetched for the split. The freshly added bubble then exists but
    /// holds no members — a valid (under-filled) population that a later
    /// healed round repairs.
    ///
    /// # Panics
    /// Panics if the bubble has fewer than two members.
    pub fn try_grow_bubble<R: Rng + ?Sized>(
        &mut self,
        over: usize,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> Result<usize, StorageError> {
        assert!(
            self.bubbles[over].members().len() >= 2,
            "growing requires at least two members to split"
        );
        // A new slot is beyond what the dirty window tracks.
        self.close_dirty_window();
        // Materialize the new bubble at a placeholder position; `split`
        // re-seeds both participants from the over-filled members.
        let placeholder = self.bubbles[over].seed().to_vec();
        let repair_before = self.seeds.repair_stats();
        let new_idx = self.seeds.push(&placeholder);
        self.observe_repair(repair_before);
        self.bubbles.push(Bubble::new(placeholder));
        debug_assert_eq!(new_idx, self.bubbles.len() - 1);
        // Journal the growth *before* the split so the journal checker can
        // pair the split with the event that created its donor slot.
        self.obs.emit(
            EventKind::Grow {
                from: over as u32,
                bubble: new_idx as u32,
            },
            0,
        );
        self.split(over, new_idx, store, rng, search, Cause::Adaptive)?;
        Ok(new_idx)
    }

    /// Retires bubble `i`: releases its members to their next-closest
    /// bubbles and removes it, decreasing the population size by one (the
    /// shrink direction of the adaptive-count extension). The last bubble
    /// takes index `i` (swap-remove semantics).
    ///
    /// # Panics
    /// Panics if fewer than three bubbles exist (the population never
    /// shrinks below two) or `i` is out of bounds.
    pub fn retire_bubble(&mut self, i: usize, store: &PointStore, search: &mut SearchStats) {
        self.try_retire_bubble(i, store, search)
            .expect("cold tier failed during retire");
    }

    /// Fallible [`Self::retire_bubble`].
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when a member payload could not be
    /// fetched; the release stages its reads first, so on `Err` nothing
    /// was retired.
    ///
    /// # Panics
    /// Panics if fewer than three bubbles exist or `i` is out of bounds.
    pub fn try_retire_bubble(
        &mut self,
        i: usize,
        store: &PointStore,
        search: &mut SearchStats,
    ) -> Result<(), StorageError> {
        assert!(
            self.bubbles.len() > 2,
            "the bubble population never shrinks below two"
        );
        assert!(i < self.bubbles.len(), "bubble index out of bounds");
        self.merge_away(i, store, search, Cause::Retire)?;
        self.bubbles.swap_remove(i);
        let repair_before = self.seeds.repair_stats();
        self.seeds.swap_remove(i);
        self.observe_repair(repair_before);
        // The swap-remove renumbers a slot; the dirty window cannot follow.
        self.close_dirty_window();
        // The swap-remove invalidates two indices: `i` itself (retired)
        // and the former last index (now living at `i`). The warm-start
        // hint must follow the same remapping, or a later insert would
        // seed its search from an unrelated — or out-of-range — bubble.
        let moved_from = self.bubbles.len();
        if self.last_insert == i as u32 {
            self.last_insert = NONE;
        } else if self.last_insert == moved_from as u32 {
            self.last_insert = i as u32;
        }
        if i < self.bubbles.len() {
            // The moved bubble's members must point at its new index.
            for &id in self.bubbles[i].members() {
                self.assign[id.index()] = i as u32;
            }
        }
        self.obs.emit(
            EventKind::RetireBubble {
                bubble: i as u32,
                swapped: (i < self.bubbles.len()).then_some(moved_from as u32),
            },
            0,
        );
        Ok(())
    }

    /// Maintenance with a dynamic bubble budget: runs the regular
    /// merge/split round, then grows the population while the average
    /// points-per-bubble exceeds `policy.max_avg_points` (splitting the
    /// heaviest bubbles into new ones) and shrinks it while the average
    /// falls below `policy.min_avg_points` (retiring the lightest
    /// bubbles). At most `policy.max_adjustments` structural changes per
    /// round keep the work bounded.
    ///
    /// Thin panicking wrapper around [`Self::try_maintain_adaptive`].
    ///
    /// # Panics
    /// Panics if `policy` is invalid (see [`AdaptivePolicy::check`]).
    pub fn maintain_adaptive<R: Rng + ?Sized>(
        &mut self,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
        policy: &AdaptivePolicy,
    ) -> AdaptiveReport {
        match self.try_maintain_adaptive(store, rng, search, policy) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::maintain_adaptive`] with the policy validated up front
    /// instead of panicking. On `Err`, nothing was touched — not even the
    /// regular merge/split round.
    ///
    /// # Errors
    /// [`UpdateError::InvalidPolicy`] when the policy's band is empty,
    /// inverted, or non-finite.
    pub fn try_maintain_adaptive<R: Rng + ?Sized>(
        &mut self,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
        policy: &AdaptivePolicy,
    ) -> Result<AdaptiveReport, UpdateError> {
        policy.check()?;
        let base = self.maintain_with_cause(store, rng, search, Cause::Adaptive)?;
        let mut grown = 0usize;
        let mut retired = 0usize;

        while grown < policy.max_adjustments {
            let avg = self.total_points as f64 / self.bubbles.len() as f64;
            if avg <= policy.max_avg_points {
                break;
            }
            let heaviest = (0..self.bubbles.len())
                .max_by_key(|&i| self.bubbles[i].members().len())
                .expect("population is non-empty");
            if self.bubbles[heaviest].members().len() < 2 {
                break;
            }
            self.try_grow_bubble(heaviest, store, rng, search)?;
            grown += 1;
        }

        while retired < policy.max_adjustments && self.bubbles.len() > 2 {
            let avg = self.total_points as f64 / self.bubbles.len() as f64;
            if avg >= policy.min_avg_points {
                break;
            }
            let lightest = (0..self.bubbles.len())
                .min_by_key(|&i| self.bubbles[i].members().len())
                .expect("population is non-empty");
            self.try_retire_bubble(lightest, store, search)?;
            retired += 1;
        }

        Ok(AdaptiveReport {
            base,
            grown,
            retired,
        })
    }

    /// Reassembles a maintainer from its raw parts (snapshot decoding
    /// only; the decoder has validated consistency against the store).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        dim: usize,
        config: MaintainerConfig,
        seeds: NearestSeeds,
        bubbles: Vec<Bubble>,
        assign: Vec<u32>,
        member_pos: Vec<u32>,
        total_points: u64,
    ) -> Self {
        Self {
            dim,
            config,
            seeds,
            bubbles,
            assign,
            member_pos,
            total_points,
            last_insert: NONE,
            // Snapshot decoding starts silent; recovery installs the live
            // handle before replaying the WAL tail.
            obs: Obs::disabled(),
            dirty: None,
            scratch: Scratch::default(),
        }
    }

    /// Exhaustively checks every internal invariant against the store.
    /// Intended for tests; O(N).
    ///
    /// # Panics
    /// Panics (with a description) on the first violated invariant.
    pub fn validate(&self, store: &PointStore) {
        assert_eq!(self.total_points, store.len() as u64, "total point count");
        let mut seen = 0u64;
        let mut buf = Vec::new();
        for (bi, b) in self.bubbles.iter().enumerate() {
            assert_eq!(
                b.stats().n() as usize,
                b.members().len(),
                "bubble {bi}: stats n vs member count"
            );
            let mut ls = vec![0.0; self.dim];
            for (pos, &id) in b.members().iter().enumerate() {
                assert!(store.contains(id), "bubble {bi}: dead member {id:?}");
                assert_eq!(
                    self.assign[id.index()],
                    bi as u32,
                    "bubble {bi}: assign table disagrees for {id:?}"
                );
                assert_eq!(
                    self.member_pos[id.index()] as usize,
                    pos,
                    "bubble {bi}: member_pos disagrees for {id:?}"
                );
                buf.clear();
                store
                    .read_point_into(id, &mut buf)
                    .expect("validate: cold point fetch failed");
                for (l, &x) in ls.iter_mut().zip(&buf) {
                    *l += x;
                }
                seen += 1;
            }
            let tolerance = 1e-6 * (1.0 + b.stats().n() as f64);
            for (got, want) in b.stats().linear_sum().iter().zip(&ls) {
                assert!(
                    (got - want).abs() < tolerance,
                    "bubble {bi}: linear sum drifted ({got} vs {want})"
                );
            }
            // The seed table's copy must match the actual seed coordinates.
            assert_eq!(self.seeds.seed(bi), b.seed(), "bubble {bi}: seed sync");
        }
        assert_eq!(seen, self.total_points, "membership covers all points");
        for id in store.ids() {
            assert!(
                self.assign[id.index()] != NONE,
                "live point {id:?} unassigned"
            );
        }
    }

    /// Drift tolerance for comparing stored sufficient statistics against
    /// values recomputed from the members: an absolute term that grows with
    /// the number of accumulated updates plus a small relative term for
    /// large magnitudes. Honest floating-point drift stays far below it;
    /// corruption is grossly above it.
    fn drift_tolerance(n: u64, magnitude: f64) -> f64 {
        1e-6 * (1.0 + n as f64) + 1e-9 * magnitude.abs()
    }

    /// True when `stored` and `recomputed` differ by more than `tol`.
    /// Deliberately a negated `<=` rather than `>` so a NaN anywhere in the
    /// comparison counts as drift instead of passing silently.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn drifted(stored: f64, recomputed: f64, tol: f64) -> bool {
        !((stored - recomputed).abs() <= tol)
    }

    /// Every invariant violation attributable to bubble `bi` alone, in the
    /// same discovery order the serial auditor used. Read-only, so the
    /// per-bubble sweeps of [`Self::collect_issues`] can fan out across
    /// bubbles.
    fn bubble_issues(&self, bi: usize, store: &PointStore) -> Vec<AuditIssue> {
        let b = &self.bubbles[bi];
        let mut issues = Vec::new();
        let mut buf = Vec::new();
        if b.seed().len() != self.dim || b.seed().iter().any(|x| !x.is_finite()) {
            issues.push(AuditIssue::NonFiniteSeed { bubble: bi });
        }
        if self.seeds.seed(bi) != b.seed() {
            issues.push(AuditIssue::SeedOutOfSync { bubble: bi });
        }
        let stats = b.stats();
        if stats.n() as usize != b.members().len() {
            issues.push(AuditIssue::MemberCountMismatch {
                bubble: bi,
                stats_n: stats.n(),
                members: b.members().len(),
            });
        }
        if !stats.square_sum().is_finite() || stats.linear_sum().iter().any(|x| !x.is_finite()) {
            issues.push(AuditIssue::NonFiniteStats { bubble: bi });
        }

        let mut ls = vec![0.0f64; self.dim];
        let mut ss = 0.0f64;
        let mut members_sound = stats.n() as usize == b.members().len();
        for (pos, &id) in b.members().iter().enumerate() {
            if !store.contains(id) {
                issues.push(AuditIssue::DeadMember { bubble: bi, id });
                members_sound = false;
                continue;
            }
            let slot = id.index();
            let assigned = match self.assign.get(slot) {
                Some(&a) if a != NONE => Some(a as usize),
                _ => None,
            };
            if assigned != Some(bi) {
                issues.push(AuditIssue::AssignMismatch {
                    bubble: bi,
                    id,
                    assigned,
                });
            }
            if self.member_pos.get(slot).copied() != Some(pos as u32) {
                issues.push(AuditIssue::MemberPosMismatch {
                    bubble: bi,
                    id,
                    expected: pos,
                });
            }
            buf.clear();
            store
                .read_point_into(id, &mut buf)
                .expect("audit: cold point fetch failed");
            for (l, &x) in ls.iter_mut().zip(&buf) {
                *l += x;
            }
            ss += buf.iter().map(|&x| x * x).sum::<f64>();
        }
        if members_sound {
            for (axis, (&stored, &recomputed)) in stats.linear_sum().iter().zip(&ls).enumerate() {
                if Self::drifted(
                    stored,
                    recomputed,
                    Self::drift_tolerance(stats.n(), recomputed),
                ) {
                    issues.push(AuditIssue::DriftedLinearSum {
                        bubble: bi,
                        axis,
                        stored,
                        recomputed,
                    });
                    break;
                }
            }
            let stored = stats.square_sum();
            if Self::drifted(stored, ss, Self::drift_tolerance(stats.n(), ss)) {
                issues.push(AuditIssue::DriftedSquareSum {
                    bubble: bi,
                    stored,
                    recomputed: ss,
                });
            }
        }
        issues
    }

    /// Seed `i`'s neighbor row, walked once: it must list every seed
    /// exactly once, be sorted by `(distance, index)` — a misordered row
    /// makes the pruned search's tail cut skip the true nearest seed — and
    /// store distances that match the seed coordinates (`finite[j]` skips
    /// seeds already reported as non-finite). Appends the violations to
    /// `issues` and returns the number of distances checked; `seen` is
    /// scratch.
    fn neighbor_row_issues(
        &self,
        i: usize,
        finite: &[bool],
        seen: &mut Vec<bool>,
        issues: &mut Vec<AuditIssue>,
    ) -> usize {
        let s = self.bubbles.len();
        let ids = self.seeds.neighbor_order(i);
        let w = self.seeds.neighbor_distances(i);
        seen.clear();
        seen.resize(s, false);
        let permutation = ids.len() == s
            && w.len() == s
            && ids.iter().all(|&j| {
                seen.get_mut(j as usize)
                    .is_some_and(|v| !std::mem::replace(v, true))
            });
        if !permutation {
            issues.push(AuditIssue::NeighborRowNotPermutation { row: i });
            return 0;
        }
        if let Some(pos) = (1..s).find(|&k| {
            w[k - 1]
                .total_cmp(&w[k])
                .then(ids[k - 1].cmp(&ids[k]))
                .is_ge()
        }) {
            issues.push(AuditIssue::NeighborRowMisordered { row: i, pos });
        }
        if !finite[i] {
            return 0; // already reported via NonFiniteSeed/SeedOutOfSync
        }
        let mut checked = 0;
        for (&j, &stored) in ids.iter().zip(w) {
            let j = j as usize;
            if !finite[j] {
                continue;
            }
            let recomputed = if j == i {
                0.0
            } else {
                dist(self.seeds.seed(i), self.seeds.seed(j))
            };
            checked += 1;
            if Self::drifted(stored, recomputed, 1e-9 * (1.0 + recomputed.abs())) {
                issues.push(AuditIssue::NeighborDistanceDrift {
                    i,
                    j,
                    stored,
                    recomputed,
                });
            }
        }
        checked
    }

    /// Walks every invariant and returns all violations found (plus the
    /// number of neighbor-table distances checked). Shared by
    /// [`Self::audit`] and [`Self::repair`].
    ///
    /// The two O(N·d) / O(s²·d) sweeps — per-bubble statistics recompute
    /// and neighbor-row verification — fan out over contiguous chunks of
    /// bubbles/rows under the configured parallelism; chunk results are
    /// concatenated in index order, so the issue list (order included) is
    /// identical to a serial walk.
    fn collect_issues(&self, store: &PointStore) -> (Vec<AuditIssue>, usize) {
        let threads = self.config.parallelism.effective_threads();
        let mut issues = Vec::new();
        if self.total_points != store.len() as u64 {
            issues.push(AuditIssue::TotalCountMismatch {
                tracked: self.total_points,
                live: store.len() as u64,
            });
        }

        let bubble_indices: Vec<usize> = (0..self.bubbles.len()).collect();
        let per_bubble = run_chunks(&bubble_indices, threads, |chunk| {
            chunk
                .iter()
                .flat_map(|&bi| self.bubble_issues(bi, store))
                .collect::<Vec<_>>()
        });
        for chunk in per_bubble {
            issues.extend(chunk);
        }

        // Reverse direction: every live point must resolve, through the
        // assignment tables, back to its own member-list slot.
        for id in store.ids() {
            let slot = id.index();
            let covered = match self.assign.get(slot) {
                Some(&a) if a != NONE => {
                    let bi = a as usize;
                    bi < self.bubbles.len()
                        && self.member_pos.get(slot).is_some_and(|&pos| {
                            (pos as usize) < self.bubbles[bi].members().len()
                                && self.bubbles[bi].members()[pos as usize] == id
                        })
                }
                _ => false,
            };
            if !covered {
                issues.push(AuditIssue::UnassignedLivePoint { id });
            }
        }
        // Dead slots must carry no assignment.
        for (slot, &a) in self.assign.iter().enumerate() {
            if a != NONE && !store.contains(PointId(slot as u32)) {
                issues.push(AuditIssue::StaleAssignment {
                    id: PointId(slot as u32),
                    bubble: a as usize,
                });
            }
        }

        // Neighbor table: each row walked once, in chunks of rows.
        let finite: Vec<bool> = (0..self.bubbles.len())
            .map(|i| self.seeds.seed(i).iter().all(|x| x.is_finite()))
            .collect();
        let rows: Vec<usize> = (0..self.bubbles.len()).collect();
        let per_row = run_chunks(&rows, threads, |chunk| {
            let mut seen = Vec::new();
            let mut found = Vec::new();
            let mut checked = 0;
            for &i in chunk {
                checked += self.neighbor_row_issues(i, &finite, &mut seen, &mut found);
            }
            (found, checked)
        });
        let mut checked_pairs = 0usize;
        for (found, checked) in per_row {
            issues.extend(found);
            checked_pairs += checked;
        }
        (issues, checked_pairs)
    }

    /// Audits every internal invariant against the store without modifying
    /// anything: Σ bubble `n` equals the live point count, the assignment
    /// and position tables are mutually consistent with the member lists in
    /// both directions, each bubble's `(n, LS, SS)` matches its recomputed
    /// member statistics within a drift tolerance, and the seed neighbor
    /// table is finite, sorted and in sync with the seeds. O(N·d + s²·d).
    ///
    /// The panicking twin is [`Self::validate`]; production code paths
    /// (e.g. after restoring a snapshot of uncertain provenance) should
    /// prefer this method and hand the `Err` to [`Self::repair`].
    ///
    /// # Errors
    /// [`AuditError`] carrying *every* violated invariant, in discovery
    /// order — not just the first.
    pub fn audit(&self, store: &PointStore) -> Result<AuditReport, AuditError> {
        let timer = self.obs.start();
        let (issues, checked_pairs) = self.collect_issues(store);
        self.obs.emit(
            EventKind::Audit {
                issues: issues.len() as u64,
            },
            timer.us(),
        );
        if issues.is_empty() {
            Ok(AuditReport {
                bubbles: self.bubbles.len(),
                points: self.total_points,
                checked_pairs,
            })
        } else {
            Err(AuditError { issues })
        }
    }

    /// Repairs every invariant violation [`Self::audit`] can detect,
    /// quarantining only the implicated bubbles and rebuilding them locally
    /// (the same release-and-reattach machinery maintenance uses) instead
    /// of rebuilding the whole population:
    ///
    /// 1. stale assignment entries of dead points are cleared;
    /// 2. each quarantined bubble is drained and its statistics reset;
    /// 3. quarantined bubbles with a non-finite seed get it re-drawn from
    ///    a random live point, and the seed neighbor table is rebuilt from
    ///    the bubble seeds (one sort per row), which also heals a damaged
    ///    row;
    /// 4. every live point left uncovered (drained, or inconsistent to
    ///    begin with) is reattached to its nearest seed, exactly like an
    ///    insertion — warm-starting each search at the point's prior
    ///    owner (captured before the drain), which is usually still the
    ///    nearest or second-nearest seed;
    /// 5. the tracked point total is recomputed.
    ///
    /// Healthy bubbles keep their members, statistics and seeds untouched
    /// (except for adopting reattached points). After `repair`,
    /// [`Self::audit`] is green. Returns what was done; a no-op report
    /// when the audit found nothing.
    pub fn repair<R: Rng + ?Sized>(
        &mut self,
        store: &PointStore,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> RepairReport {
        let timer = self.obs.start();
        let (issues, _) = self.collect_issues(store);
        if issues.is_empty() {
            return RepairReport::default();
        }
        // Repair rewrites bubbles wholesale (drains, reseeds, reattaches)
        // and rebuilds the seed table; the next checkpoint must be full.
        self.close_dirty_window();
        let mut report = RepairReport {
            issues_found: issues.len(),
            ..RepairReport::default()
        };

        let mut quarantined = vec![false; self.bubbles.len()];
        for issue in &issues {
            for b in issue.implicated_bubbles() {
                if let Some(q) = quarantined.get_mut(b) {
                    *q = true;
                }
            }
        }

        // 1. Dead slots must not claim a bubble.
        for slot in 0..self.assign.len() {
            if self.assign[slot] != NONE && !store.contains(PointId(slot as u32)) {
                self.assign[slot] = NONE;
                self.member_pos[slot] = NONE;
                report.cleared_stale_assignments += 1;
            }
        }

        // Remember who owned each slot before the drain: step 4 uses the
        // prior owner as the warm-start hint for the reattachment search.
        let prior = self.assign.clone();

        // 2. Drain the quarantined bubbles (members released, stats reset).
        for (bi, q) in quarantined.iter().enumerate() {
            if !*q {
                continue;
            }
            let members = self.bubbles[bi].take_members();
            self.bubbles[bi].stats_mut().clear();
            for id in members {
                let slot = id.index();
                if slot < self.assign.len() && self.assign[slot] == bi as u32 {
                    self.assign[slot] = NONE;
                    self.member_pos[slot] = NONE;
                }
            }
        }

        // 3. Re-draw non-finite seeds, then rebuild the neighbor table.
        for (bi, q) in quarantined.iter().enumerate() {
            if !*q {
                continue;
            }
            let seed_ok = self.bubbles[bi].seed().len() == self.dim
                && self.bubbles[bi].seed().iter().all(|x| x.is_finite());
            if !seed_ok {
                let fresh = if !store.is_empty() {
                    let mut p = Vec::with_capacity(self.dim);
                    store
                        .read_point_into(store.sample_distinct(1, rng)[0], &mut p)
                        .expect("repair: cold point fetch failed");
                    p
                } else {
                    vec![0.0; self.dim]
                };
                *self.bubbles[bi].seed_mut() = fresh;
                report.reseeded += 1;
            }
        }
        if quarantined.contains(&true) {
            self.seeds = NearestSeeds::from_seeds(self.dim, self.bubbles.iter().map(Bubble::seed));
        }

        // 4. Reattach every uncovered live point, like an insertion. The
        // payload is fetched lazily — only uncovered points need it, so a
        // mostly-healthy tiered store stays mostly cold.
        self.ensure_slots(store.slots());
        let mut buf = Vec::new();
        for id in store.ids() {
            let slot = id.index();
            let covered = match self.assign[slot] {
                NONE => false,
                a => {
                    let bi = a as usize;
                    bi < self.bubbles.len()
                        && (self.member_pos[slot] as usize) < self.bubbles[bi].members().len()
                        && self.bubbles[bi].members()[self.member_pos[slot] as usize] == id
                }
            };
            if covered {
                continue;
            }
            self.assign[slot] = NONE;
            self.member_pos[slot] = NONE;
            let hint = match prior.get(slot) {
                Some(&a) if a != NONE && (a as usize) < self.bubbles.len() => Some(a as usize),
                _ => None,
            };
            buf.clear();
            store
                .read_point_into(id, &mut buf)
                .expect("repair: cold point fetch failed");
            let target = self
                .nearest(&buf, None, hint, search)
                .expect("bubble population is never empty");
            self.attach(id, target, &buf);
            report.reassigned_points += 1;
        }

        // 5. After the steps above every live point is covered exactly once.
        self.total_points = store.len() as u64;
        report.quarantined = quarantined.iter().filter(|&&q| q).count();
        self.obs.emit(
            EventKind::Repair {
                found: report.issues_found as u64,
                quarantined: report.quarantined as u32,
                reseeded: report.reseeded as u32,
                reassigned: report.reassigned_points,
            },
            timer.us(),
        );
        report
    }

    // --- Fault-injection hooks ------------------------------------------
    // The fault-injection suite needs to damage the private tables the way
    // a bug or a corrupted restore would. Hidden from docs; not part of
    // the supported API and exempt from its stability.

    /// Overwrites a bubble's sufficient statistics (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_stats(&mut self, bubble: usize, n: u64, ls: Vec<f64>, ss: f64) {
        *self.bubbles[bubble].stats_mut() =
            crate::stats::SufficientStats::from_raw_parts(n, ls, ss);
        self.mark_dirty(bubble);
    }

    /// Overwrites one assignment-table entry (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_assign(&mut self, slot: usize, value: u32) {
        self.assign[slot] = value;
    }

    /// Overwrites one position-table entry (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_member_pos(&mut self, slot: usize, value: u32) {
        self.member_pos[slot] = value;
    }

    /// Overwrites a bubble's seed *without* re-syncing the seed neighbor
    /// table (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_seed(&mut self, bubble: usize, seed: Vec<f64>) {
        *self.bubbles[bubble].seed_mut() = seed;
    }

    /// Mutable access to one seed's neighbor row, its ids and distances
    /// (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_neighbor_row(&mut self, bubble: usize) -> (&mut [u32], &mut [f64]) {
        self.seeds.neighbor_row_mut(bubble)
    }

    /// Overwrites the tracked point total (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_total(&mut self, total: u64) {
        self.total_points = total;
    }

    /// Appends a raw id to a bubble's member list (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_push_member(&mut self, bubble: usize, id: PointId) {
        self.bubbles[bubble].members_mut().push(id);
    }

    /// Pops the last member off a bubble's list (test sabotage hook).
    #[doc(hidden)]
    pub fn corrupt_pop_member(&mut self, bubble: usize) -> Option<PointId> {
        self.bubbles[bubble].members_mut().pop()
    }

    /// The warm-start hint the next insertion would use: the bubble the
    /// previous insertion landed in, if still valid (test observability
    /// hook — the regression suite asserts `retire_bubble` keeps this in
    /// sync with the swap-remove).
    #[doc(hidden)]
    #[must_use]
    pub fn last_insert_hint(&self) -> Option<usize> {
        match self.last_insert {
            NONE => None,
            b => Some(b as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Parallelism, QualityKind, SeedSearch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two tight clusters of 100 points each plus sparse noise.
    fn toy_store(rng: &mut StdRng) -> PointStore {
        let mut store = PointStore::new(2);
        for i in 0..100 {
            let t = i as f64 * 0.063;
            store.insert(&[10.0 + t.sin(), 10.0 + t.cos()], Some(0));
            store.insert(&[90.0 + t.cos(), 90.0 + t.sin()], Some(1));
        }
        for _ in 0..20 {
            store.insert(
                &[rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)],
                None,
            );
        }
        store
    }

    #[test]
    fn build_assigns_every_point() {
        let mut rng = StdRng::seed_from_u64(7);
        let store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        // Pinned to the pruned engine: the assertions below are about its
        // accounting.
        let ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(10).with_seed_search(SeedSearch::Pruned),
            &mut rng,
            &mut search,
        );
        assert_eq!(ib.num_bubbles(), 10);
        assert_eq!(ib.total_points(), store.len() as u64);
        ib.validate(&store);
        // Triangle-inequality pruning did real work on a clustered layout.
        assert!(search.pruned > 0, "pruning occurred");
        assert_eq!(search.total(), store.len() as u64 * 10);
    }

    #[test]
    fn every_engine_builds_the_identical_summary() {
        // Same RNG seed → same bubble seeds → identical assignments; the
        // engines differ only in how many distances they actually compute.
        let store = {
            let mut r = StdRng::seed_from_u64(3);
            toy_store(&mut r)
        };
        let mut brute_rng = StdRng::seed_from_u64(21);
        let mut sb = SearchStats::new();
        let brute = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(8).with_seed_search(SeedSearch::Brute),
            &mut brute_rng,
            &mut sb,
        );
        let nb: Vec<u64> = brute.bubbles().iter().map(|x| x.stats().n()).collect();
        assert_eq!(sb.pruned, 0);
        assert_eq!(sb.partial, 0);
        for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            let mut rng = StdRng::seed_from_u64(21);
            let mut se = SearchStats::new();
            let e = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(8).with_seed_search(engine),
                &mut rng,
                &mut se,
            );
            let ne: Vec<u64> = e.bubbles().iter().map(|x| x.stats().n()).collect();
            assert_eq!(nb, ne, "{engine:?} agrees on the summarization");
            assert!(
                se.computed < sb.computed,
                "{engine:?} computes fewer distances"
            );
            assert_eq!(se.total(), sb.total(), "{engine:?} accounts every seed");
        }
    }

    #[test]
    fn warm_start_never_changes_results_and_saves_work() {
        // The same dynamic history (build, batch, maintenance, retirement)
        // replayed with and without warm-start hints: bit-identical
        // summaries, strictly cheaper accounting with hints.
        let run = |warm: bool| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut store = toy_store(&mut rng);
            let mut search = SearchStats::new();
            let config = MaintainerConfig::new(10)
                .with_seed_search(SeedSearch::Pruned)
                .with_warm_start(warm);
            let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut search);
            let batch = Batch {
                deletes: store.ids().take(20).collect(),
                inserts: (0..120)
                    .map(|i| {
                        let t = i as f64 * 0.05;
                        (vec![150.0 + t.sin() * 3.0, 150.0 + t.cos() * 3.0], Some(4))
                    })
                    .collect(),
            };
            ib.apply_batch(&mut store, &batch, &mut search);
            ib.maintain(&store, &mut rng, &mut search);
            ib.retire_bubble(0, &store, &mut search);
            ib.validate(&store);
            let ns: Vec<u64> = ib.bubbles().iter().map(|b| b.stats().n()).collect();
            (ns, search)
        };
        let (cold_ns, cold) = run(false);
        let (warm_ns, warm) = run(true);
        assert_eq!(cold_ns, warm_ns, "hints never change the summarization");
        assert_eq!(cold.total(), warm.total(), "same candidates accounted");
        assert!(
            warm.computed < cold.computed,
            "warm-start saves distance computations ({} vs {})",
            warm.computed,
            cold.computed
        );
    }

    /// Regression: `retire_bubble` swap-removes a bubble but used to leave
    /// `last_insert` untouched, so the next insertion warm-started from a
    /// stale — possibly out-of-range, possibly wrong-bubble — hint. The
    /// hint must be reset when the retired bubble held it and remapped
    /// when the moved (former last) bubble did.
    #[test]
    fn retire_bubble_remaps_or_resets_the_warm_start_hint() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(6).with_seed_search(SeedSearch::Pruned),
            &mut rng,
            &mut search,
        );

        // Hint on the retired bubble: reset to none.
        let id = store.insert(&[10.0, 10.0], None);
        ib.insert_point(id, &[10.0, 10.0], &mut search);
        let landed = ib.assignment(id).expect("inserted point is assigned");
        assert_eq!(ib.last_insert_hint(), Some(landed));
        ib.retire_bubble(landed, &store, &mut search);
        assert_eq!(
            ib.last_insert_hint(),
            None,
            "hint on the retired bubble must be invalidated"
        );
        ib.validate(&store);

        // Hint on the former last bubble: follows the swap-remove. An
        // insertion exactly at the last seed lands there (distance zero).
        let last_seed = ib.bubbles().last().unwrap().seed().to_vec();
        let id2 = store.insert(&last_seed, None);
        ib.insert_point(id2, &last_seed, &mut search);
        assert_eq!(ib.last_insert_hint(), Some(ib.num_bubbles() - 1));
        ib.retire_bubble(0, &store, &mut search);
        assert_eq!(
            ib.last_insert_hint(),
            Some(0),
            "hint must follow the moved bubble to its new index"
        );
        assert_eq!(ib.assignment(id2), Some(0), "the hinted bubble moved to 0");
        ib.validate(&store);

        // Hint on an unaffected bubble: untouched when the retired bubble
        // is the last one (no swap move happens).
        let seed1 = ib.bubble(1).seed().to_vec();
        let id3 = store.insert(&seed1, None);
        ib.insert_point(id3, &seed1, &mut search);
        assert_eq!(ib.last_insert_hint(), Some(1));
        ib.retire_bubble(ib.num_bubbles() - 1, &store, &mut search);
        assert_eq!(ib.last_insert_hint(), Some(1), "unrelated hint is kept");
        ib.validate(&store);

        // And inserting after all of that works from the remapped hint.
        let id4 = store.insert(&[50.0, 50.0], None);
        ib.insert_point(id4, &[50.0, 50.0], &mut search);
        assert_eq!(ib.last_insert_hint(), ib.assignment(id4));
        ib.validate(&store);
    }

    #[test]
    fn insert_and_remove_roundtrip_preserves_invariants() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(10), &mut rng, &mut search);

        let id = store.insert(&[50.0, 50.0], None);
        ib.insert_point(id, &[50.0, 50.0], &mut search);
        ib.validate(&store);
        assert!(ib.assignment(id).is_some());

        let p = store.point(id).to_vec();
        ib.remove_point(id, &p);
        store.remove(id);
        ib.validate(&store);
        assert!(ib.assignment(id).is_none());
    }

    #[test]
    fn apply_batch_keeps_summary_in_sync() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(10), &mut rng, &mut search);
        let victims: Vec<PointId> = store.ids().take(15).collect();
        let batch = Batch {
            deletes: victims,
            inserts: (0..15)
                .map(|i| (vec![40.0 + i as f64, 42.0], Some(5)))
                .collect(),
        };
        let new_ids = ib.apply_batch(&mut store, &batch, &mut search);
        assert_eq!(new_ids.len(), 15);
        ib.validate(&store);
        assert_eq!(ib.total_points(), store.len() as u64);
    }

    #[test]
    fn dirty_window_flags_exactly_the_touched_slots() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(10), &mut rng, &mut search);
        // Inserts one point and returns the slot of the bubble it joined.
        let insert = |ib: &mut IncrementalBubbles, store: &mut PointStore, x: f64| {
            let id = store.insert(&[x, 50.0], None);
            ib.insert_point(id, &[x, 50.0], &mut SearchStats::new());
            ib.assignment(id).expect("assigned")
        };
        let flagged = |ib: &IncrementalBubbles| -> Option<Vec<usize>> {
            ib.dirty_slots()
                .map(|f| (0..f.len()).filter(|&i| f[i]).collect())
        };

        // Untracked: nothing is flagged, whatever happens.
        insert(&mut ib, &mut store, 50.0);
        assert_eq!(flagged(&ib), None);

        // A window starts clean and flags exactly the slots touched since.
        ib.open_dirty_window();
        assert_eq!(flagged(&ib), Some(vec![]));
        assert_eq!(ib.dirty_slots().map(<[bool]>::len), Some(ib.num_bubbles()));
        let a = insert(&mut ib, &mut store, 51.0);
        assert_eq!(flagged(&ib), Some(vec![a]));
        let victim = store
            .ids()
            .find(|&id| ib.assignment(id).is_some_and(|b| b != a))
            .expect("a point outside bubble a");
        let b = ib.assignment(victim).expect("assigned");
        let p = store.point(victim).to_vec();
        ib.remove_point(victim, &p);
        store.remove(victim);
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(flagged(&ib), Some(want));
        ib.validate(&store);

        // Growing, retiring and repairing each close the window.
        let heaviest = (0..ib.num_bubbles())
            .max_by_key(|&i| ib.bubble(i).members().len())
            .unwrap();
        ib.grow_bubble(heaviest, &store, &mut rng, &mut search);
        assert_eq!(flagged(&ib), None);
        ib.open_dirty_window();
        ib.retire_bubble(0, &store, &mut search);
        assert_eq!(flagged(&ib), None);
        ib.open_dirty_window();
        let wrong_n = ib.bubbles()[0].stats().n() + 7;
        ib.corrupt_stats(0, wrong_n, vec![0.0; 2], 0.0);
        assert_eq!(flagged(&ib), Some(vec![0]));
        let report = ib.repair(&store, &mut rng, &mut search);
        assert!(report.issues_found > 0, "sabotage must be detected");
        assert_eq!(flagged(&ib), None);
        ib.validate(&store);
    }

    #[test]
    fn maintain_splits_an_overfilled_bubble() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        // With only 12 bubbles a single β outlier inflates σ so much that
        // the k = 1/sqrt(1-0.9) ≈ √12 bound is marginal; p = 0.8 (also
        // validated in the paper) is robust at this miniature scale.
        let mut ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(12).with_probability(0.8),
            &mut rng,
            &mut search,
        );

        // Inject a new far-away cluster of 150 points: one bubble absorbs it.
        let batch = Batch {
            deletes: Vec::new(),
            inserts: (0..150)
                .map(|i| {
                    let t = i as f64 * 0.041;
                    (vec![200.0 + t.sin() * 2.0, 200.0 + t.cos() * 2.0], Some(9))
                })
                .collect(),
        };
        ib.apply_batch(&mut store, &batch, &mut search);
        ib.validate(&store);

        let before = ib.classify_now();
        assert!(
            !before.over_filled().is_empty(),
            "absorbing a cluster over-fills a bubble"
        );

        let report = ib.maintain(&store, &mut rng, &mut search);
        assert!(report.splits >= 1);
        assert_eq!(report.rebuilt_bubbles, report.splits * 2);
        ib.validate(&store);

        // One round may leave a split seed in the old region; the scheme
        // converges over repeated rounds (one per batch in production).
        for _ in 0..4 {
            ib.maintain(&store, &mut rng, &mut search);
            ib.validate(&store);
        }

        // After maintenance, the new cluster region is covered by more than
        // one bubble. A split half can also adopt a few far-away stragglers
        // that pull its representative off-center, hence the loose radius.
        let near = ib
            .bubbles()
            .iter()
            .filter(|b| !b.is_empty() && dist(&b.rep_or_seed(), &[200.0, 200.0]) < 30.0)
            .count();
        assert!(near >= 2, "new cluster now covered by {near} bubbles");
    }

    #[test]
    fn maintain_with_uniform_population_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut store = PointStore::new(2);
        for i in 0..400 {
            store.insert(&[(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0], Some(0));
        }
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(16), &mut rng, &mut search);
        let report = ib.maintain(&store, &mut rng, &mut search);
        assert_eq!(report.splits, 0);
        assert_eq!(report.rebuilt_bubbles, 0);
        ib.validate(&store);
    }

    #[test]
    fn extent_quality_measure_is_selectable() {
        let mut rng = StdRng::seed_from_u64(19);
        let store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(10).with_quality(QualityKind::Extent),
            &mut rng,
            &mut search,
        );
        let c = ib.classify_now();
        // Extent values, not β values: they are not bounded by 1/N ratios.
        assert_eq!(c.values.len(), 10);
        assert!(c.values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let store = {
            let mut r = StdRng::seed_from_u64(41);
            toy_store(&mut r)
        };
        let mut seq_rng = StdRng::seed_from_u64(8);
        let mut seq_stats = SearchStats::new();
        let seq = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(10),
            &mut seq_rng,
            &mut seq_stats,
        );
        for threads in [1usize, 2, 4] {
            let mut rng = StdRng::seed_from_u64(8);
            let mut stats = SearchStats::new();
            let par = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(10).with_parallelism(Parallelism::Threads(threads)),
                &mut rng,
                &mut stats,
            );
            par.validate(&store);
            let a: Vec<u64> = seq.bubbles().iter().map(|b| b.stats().n()).collect();
            let b: Vec<u64> = par.bubbles().iter().map(|b| b.stats().n()).collect();
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(stats.total(), seq_stats.total(), "same total work");
        }
    }

    #[test]
    fn grow_bubble_increases_population_and_splits() {
        let mut rng = StdRng::seed_from_u64(29);
        let store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(6), &mut rng, &mut search);
        let heaviest = (0..6)
            .max_by_key(|&i| ib.bubble(i).members().len())
            .unwrap();
        let before = ib.bubble(heaviest).members().len();
        let new_idx = ib.grow_bubble(heaviest, &store, &mut rng, &mut search);
        assert_eq!(ib.num_bubbles(), 7);
        assert_eq!(new_idx, 6);
        ib.validate(&store);
        let after = ib.bubble(heaviest).members().len() + ib.bubble(new_idx).members().len();
        assert_eq!(after, before, "split preserves the member set");
        assert!(!ib.bubble(new_idx).is_empty());
    }

    #[test]
    fn retire_bubble_shrinks_population() {
        let mut rng = StdRng::seed_from_u64(31);
        let store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(8), &mut rng, &mut search);
        let total = ib.total_points();
        ib.retire_bubble(0, &store, &mut search);
        assert_eq!(ib.num_bubbles(), 7);
        assert_eq!(ib.total_points(), total, "no point is lost");
        ib.validate(&store);
        // Retire down to the floor of two bubbles.
        for _ in 0..5 {
            ib.retire_bubble(0, &store, &mut search);
        }
        assert_eq!(ib.num_bubbles(), 2);
        ib.validate(&store);
    }

    #[test]
    #[should_panic(expected = "never shrinks below two")]
    fn retiring_below_two_panics() {
        let mut rng = StdRng::seed_from_u64(33);
        let store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(2), &mut rng, &mut search);
        ib.retire_bubble(0, &store, &mut search);
    }

    #[test]
    fn adaptive_maintenance_tracks_database_growth() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut store = toy_store(&mut rng); // 220 points
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(10), &mut rng, &mut search);
        let policy = AdaptivePolicy::around(22.0); // band [11, 44]

        // The database quadruples: the fixed count would leave ~88 points
        // per bubble; the adaptive round grows the population back into
        // the band.
        let batch = Batch {
            deletes: Vec::new(),
            inserts: (0..660)
                .map(|i| {
                    let t = i as f64 * 0.0095;
                    (vec![40.0 + t.sin() * 30.0, 60.0 + t.cos() * 30.0], Some(7))
                })
                .collect(),
        };
        ib.apply_batch(&mut store, &batch, &mut search);
        let report = ib.maintain_adaptive(&store, &mut rng, &mut search, &policy);
        ib.validate(&store);
        assert!(report.grown > 0, "population grew: {report:?}");
        let avg = ib.total_points() as f64 / ib.num_bubbles() as f64;
        assert!(avg <= 44.0 * 1.5, "avg {avg} moved toward the band");

        // The database shrinks below the band (the growth phase stops at
        // avg == 44, i.e. 20 bubbles; 200 remaining points put the average
        // at 10 < 11): the adaptive round retires bubbles.
        let victims: Vec<PointId> = store.ids().take(680).collect();
        let batch = Batch {
            deletes: victims,
            inserts: Vec::new(),
        };
        ib.apply_batch(&mut store, &batch, &mut search);
        let report = ib.maintain_adaptive(&store, &mut rng, &mut search, &policy);
        ib.validate(&store);
        assert!(report.retired > 0, "population shrank: {report:?}");
    }

    #[test]
    #[should_panic(expected = "adaptive policy")]
    fn invalid_adaptive_policy_panics() {
        let mut rng = StdRng::seed_from_u64(39);
        let store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(4), &mut rng, &mut search);
        let bad = AdaptivePolicy {
            min_avg_points: 10.0,
            max_avg_points: 5.0,
            max_adjustments: 4,
        };
        ib.maintain_adaptive(&store, &mut rng, &mut search, &bad);
    }

    #[test]
    fn spread_split_policy_works() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut store = toy_store(&mut rng);
        let mut search = SearchStats::new();
        let mut ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(12)
                .with_probability(0.8)
                .with_split_seeds(SplitSeedPolicy::Spread),
            &mut rng,
            &mut search,
        );
        let batch = Batch {
            deletes: Vec::new(),
            inserts: (0..150)
                .map(|i| (vec![250.0 + (i % 10) as f64, 250.0], Some(8)))
                .collect(),
        };
        ib.apply_batch(&mut store, &batch, &mut search);
        let report = ib.maintain(&store, &mut rng, &mut search);
        assert!(report.splits >= 1);
        ib.validate(&store);
    }
}
