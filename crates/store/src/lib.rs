//! Dynamic in-memory point database.
//!
//! The paper's setting (Section 1) is an *incremental database*: a large set
//! of d-dimensional points that an application inserts into and deletes from
//! over time, with the full contents available at any moment — unlike a data
//! stream. This crate is that substrate: a slab-backed point store with
//!
//! * O(1) insertion and deletion with stable [`PointId`]s (slots are reused
//!   via a free list, and the dense slot space lets downstream crates keep
//!   per-point side tables as plain vectors instead of hash maps);
//! * optional ground-truth labels per point (the synthetic scenario
//!   generators attach the generating cluster, which the evaluation crate
//!   uses for F-scores — `None` marks noise);
//! * O(1) uniform random sampling of live points (seed selection for bubble
//!   construction, random deletions in the workload generators);
//! * batch update descriptions ([`Batch`]) shared by the workload generators
//!   and the incremental maintainer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;

pub mod medium;
pub mod segment;
pub mod snapshot;
pub mod tier;
pub mod wal;
pub use medium::{FsMedium, Medium, MemMedium};
pub use segment::{
    read_chain, ChainContents, SegmentId, SegmentedSink, StorageBudget, StorageError,
};
pub use snapshot::SnapshotError;
pub use tier::{default_cold_medium, FsCold, TierCounters, COLD_DIR_ENV};
pub use wal::{DurableSink, FileSink, ObjectSink, WalError, WalRecord, WalWriter};

use std::sync::Arc;
use tier::{Spill, Tier, FREE_FRAME, NONE_FRAME};

/// Bytes per staged chunk when [`PointStore::enable_tier`] spills.
const SPILL_CHUNK_BYTES: usize = 64 * 1024;

/// Coordinates a cold demand read decodes per positioned read, through a
/// stack buffer: one read for any `dim` up to this.
const COLD_READ_COORDS: usize = 64;

/// `coords` as little-endian bytes, in `buf` (cleared first).
fn le_bytes<'a>(buf: &'a mut Vec<u8>, coords: &[f64]) -> &'a [u8] {
    buf.clear();
    for x in coords {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf
}

/// Stable identifier of a live point: an index into the store's slot space.
///
/// Ids are only meaningful while the point is live; a deleted slot may be
/// reused by a later insertion. All workloads in this workspace hold ids
/// only for points they know to be live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(pub u32);

impl PointId {
    /// The slot index, for use with dense per-point side tables.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Ground-truth label of a point: the generating cluster, or `None` for
/// noise. Purely evaluation metadata — no algorithm reads it.
pub type Label = Option<u32>;

const NOISE_SENTINEL: u32 = u32::MAX;

/// A batch of updates: the deletions remove currently-live points, the
/// insertions add new points (ids are assigned at application time).
///
/// The paper inspects the clustering structure after batches in which N % of
/// the points have been deleted and M % inserted; the scenario generators in
/// `idb-synth` emit values of this type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Points to delete; must be live when the batch is applied.
    pub deletes: Vec<PointId>,
    /// Points to insert, as `(coordinates, ground-truth label)`.
    pub inserts: Vec<(Vec<f64>, Label)>,
}

impl Batch {
    /// Total number of operations in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len()
    }

    /// `true` when the batch contains no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }
}

/// Slab-backed store of d-dimensional points with labels.
///
/// # Examples
/// ```
/// use idb_store::PointStore;
///
/// let mut store = PointStore::new(2);
/// let a = store.insert(&[1.0, 2.0], Some(0));
/// let b = store.insert(&[3.0, 4.0], None); // noise
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.point(a), &[1.0, 2.0]);
///
/// store.remove(a);
/// assert!(!store.contains(a) || store.point(a) != [1.0, 2.0]);
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.label(b), None);
/// ```
/// # Tiered mode
///
/// [`PointStore::enable_tier`] bounds the resident coordinate slab: at
/// most `hot_cap` points stay in memory, the rest live as fixed-stride
/// records in one [`Medium`] object. In tiered mode `coords` is
/// *frame*-strided (a compact hot arena) instead of slot-strided, and
/// cold points must be read through [`PointStore::read_point_into`] —
/// [`PointStore::point`] and [`PointStore::iter`] panic on them. See
/// [`tier`] for the determinism and failure contracts.
#[derive(Debug, Clone)]
pub struct PointStore {
    dim: usize,
    /// Untiered: slot-strided payloads. Tiered: frame-strided hot arena.
    coords: Vec<f64>,
    labels: Vec<u32>,
    /// slot -> position in `live_list`, or `u32::MAX` when the slot is free.
    live_pos: Vec<u32>,
    /// Dense list of live slots, for O(1) sampling and fast iteration.
    live_list: Vec<u32>,
    free: Vec<u32>,
    /// Cold-tier state; `None` = classic all-resident store.
    tier: Option<Tier>,
}

const FREE: u32 = u32::MAX;

impl PointStore {
    /// Creates an empty store for points of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "PointStore requires dim > 0");
        Self {
            dim,
            coords: Vec::new(),
            labels: Vec::new(),
            live_pos: Vec::new(),
            live_list: Vec::new(),
            free: Vec::new(),
            tier: None,
        }
    }

    /// Creates an empty store pre-sized for `capacity` points.
    #[must_use]
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "PointStore requires dim > 0");
        Self {
            dim,
            coords: Vec::with_capacity(capacity * dim),
            labels: Vec::with_capacity(capacity),
            live_pos: Vec::with_capacity(capacity),
            live_list: Vec::with_capacity(capacity),
            free: Vec::new(),
            tier: None,
        }
    }

    /// Dimensionality of the stored points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live_list.len()
    }

    /// `true` when no live point exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_list.is_empty()
    }

    /// Total number of slots ever allocated (live + free). Dense per-point
    /// side tables should be sized to this value.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.live_pos.len()
    }

    /// Inserts a point, returning its id. Reuses a free slot when available.
    ///
    /// In tiered mode the new point always lands *hot* (its clock
    /// reference bit set), possibly overshooting the hot budget until the
    /// next [`enforce_hot_budget`](Self::enforce_hot_budget) sweep —
    /// insertion itself stays infallible.
    ///
    /// # Panics
    /// Panics if the point's dimensionality differs from the store's.
    pub fn insert(&mut self, point: &[f64], label: Label) -> PointId {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        let label = label.unwrap_or(NOISE_SENTINEL);
        let slot = if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            if self.tier.is_some() {
                self.place_hot(s, point);
            } else {
                self.coords[s * self.dim..(s + 1) * self.dim].copy_from_slice(point);
            }
            self.labels[s] = label;
            slot
        } else {
            let slot = self.live_pos.len() as u32;
            if let Some(tier) = &mut self.tier {
                tier.frame_of.push(NONE_FRAME);
            } else {
                self.coords.extend_from_slice(point);
            }
            self.labels.push(label);
            self.live_pos.push(FREE);
            if self.tier.is_some() {
                self.place_hot(slot as usize, point);
            }
            slot
        };
        self.live_pos[slot as usize] = self.live_list.len() as u32;
        self.live_list.push(slot);
        PointId(slot)
    }

    /// Puts `point` into a hot frame bound to `slot` (tiered mode only).
    fn place_hot(&mut self, slot: usize, point: &[f64]) {
        let dim = self.dim;
        let tier = self.tier.as_mut().expect("tiered mode");
        debug_assert_eq!(tier.frame_of[slot], NONE_FRAME, "slot already hot");
        let f = if let Some(f) = tier.free_frames.pop() {
            f as usize
        } else {
            let f = tier.frame_slot.len();
            tier.frame_slot.push(FREE_FRAME);
            tier.ref_bit.push(false);
            self.coords.resize((f + 1) * dim, 0.0);
            f
        };
        self.coords[f * dim..(f + 1) * dim].copy_from_slice(point);
        tier.frame_slot[f] = slot as u32;
        tier.frame_of[slot] = f as u32;
        tier.ref_bit[f] = true;
    }

    /// Deletes a live point.
    ///
    /// # Panics
    /// Panics if `id` does not refer to a live point (double deletion is a
    /// logic error in the caller and must not be silently absorbed).
    pub fn remove(&mut self, id: PointId) {
        let slot = id.0 as usize;
        assert!(
            slot < self.live_pos.len() && self.live_pos[slot] != FREE,
            "remove of non-live point {id:?}"
        );
        let pos = self.live_pos[slot] as usize;
        self.live_list.swap_remove(pos);
        if pos < self.live_list.len() {
            let moved = self.live_list[pos];
            self.live_pos[moved as usize] = pos as u32;
        }
        self.live_pos[slot] = FREE;
        self.free.push(id.0);
        if let Some(tier) = &mut self.tier {
            // A hot frame is vacated immediately; a cold record simply
            // becomes garbage until the slot is reused (the reusing
            // insert lands hot and a later eviction overwrites it).
            let f = tier.frame_of[slot];
            if f != NONE_FRAME {
                tier.frame_of[slot] = NONE_FRAME;
                tier.frame_slot[f as usize] = FREE_FRAME;
                tier.ref_bit[f as usize] = false;
                tier.free_frames.push(f);
            }
        }
    }

    /// `true` when `id` refers to a live point.
    #[must_use]
    pub fn contains(&self, id: PointId) -> bool {
        let slot = id.0 as usize;
        slot < self.live_pos.len() && self.live_pos[slot] != FREE
    }

    /// Coordinates of a live, *resident* point.
    ///
    /// # Panics
    /// Panics if `id` is not live, or (in tiered mode) if the point is
    /// cold — demand-fetch paths must use
    /// [`read_point_into`](Self::read_point_into) instead.
    #[inline]
    #[must_use]
    pub fn point(&self, id: PointId) -> &[f64] {
        assert!(self.contains(id), "access to non-live point {id:?}");
        self.coords_of(id.index())
    }

    /// Resident coordinates of live slot `s` (tier-aware addressing).
    #[inline]
    fn coords_of(&self, s: usize) -> &[f64] {
        let f = match &self.tier {
            None => s,
            Some(tier) => {
                let f = tier.frame_of[s];
                assert!(
                    f != NONE_FRAME,
                    "point in slot {s} is cold; use read_point_into"
                );
                f as usize
            }
        };
        &self.coords[f * self.dim..(f + 1) * self.dim]
    }

    /// Ground-truth label of a live point (`None` = noise).
    ///
    /// # Panics
    /// Panics if `id` is not live.
    #[must_use]
    pub fn label(&self, id: PointId) -> Label {
        assert!(self.contains(id), "access to non-live point {id:?}");
        match self.labels[id.index()] {
            NOISE_SENTINEL => None,
            l => Some(l),
        }
    }

    /// Iterates over all live points as `(id, coordinates, label)`.
    ///
    /// # Panics
    /// In tiered mode the coordinate slice is computed per item and
    /// panics on a cold point (even if the caller ignores it) — id-only
    /// walks must use [`ids`](Self::ids), payload walks
    /// [`read_point_into`](Self::read_point_into).
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64], Label)> + '_ {
        self.live_list.iter().map(move |&slot| {
            let s = slot as usize;
            let label = match self.labels[s] {
                NOISE_SENTINEL => None,
                l => Some(l),
            };
            (PointId(slot), self.coords_of(s), label)
        })
    }

    /// Ids of all live points, in internal (arbitrary) order.
    pub fn ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.live_list.iter().map(|&s| PointId(s))
    }

    /// Uniformly samples one live point id, or `None` when empty. O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<PointId> {
        if self.live_list.is_empty() {
            None
        } else {
            let i = rng.gen_range(0..self.live_list.len());
            Some(PointId(self.live_list[i]))
        }
    }

    /// Samples `k` *distinct* live point ids uniformly (partial
    /// Fisher–Yates over a copy of the live list). Returns fewer than `k`
    /// when the store holds fewer points.
    pub fn sample_distinct<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<PointId> {
        let n = self.live_list.len();
        let k = k.min(n);
        let mut pool: Vec<u32> = self.live_list.clone();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool.into_iter().map(PointId).collect()
    }

    /// The free slots, in reuse order: the *last* element is the next slot
    /// an insertion recycles. Persisted by snapshots so a restored store
    /// assigns the exact same ids as the original would have.
    #[must_use]
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Reassembles a store from its raw parts (snapshot decoding only; the
    /// caller guarantees internal consistency).
    pub(crate) fn from_raw_parts(
        dim: usize,
        coords: Vec<f64>,
        labels: Vec<u32>,
        live_pos: Vec<u32>,
        live_list: Vec<u32>,
        free: Vec<u32>,
    ) -> Self {
        Self {
            dim,
            coords,
            labels,
            live_pos,
            live_list,
            free,
            tier: None,
        }
    }

    /// Applies a batch of updates, returning the ids assigned to the
    /// inserted points (in insertion order).
    ///
    /// Deletions are applied before insertions, matching the maintenance
    /// scheme of the paper (Figure 3) where the affected bubbles are first
    /// decremented and then incremented.
    pub fn apply(&mut self, batch: &Batch) -> Vec<PointId> {
        for &id in &batch.deletes {
            self.remove(id);
        }
        batch
            .inserts
            .iter()
            .map(|(p, label)| self.insert(p, *label))
            .collect()
    }

    // ------------------------------------------------------------------
    // Cold tier (see the `tier` module for the contracts)
    // ------------------------------------------------------------------

    /// Enables the cold tier: spills **all** current payloads to `cold`
    /// (one atomic rewrite, dead slots padded to keep the stride) and
    /// caps the resident set at `hot_cap` points from here on. The store
    /// starts all-cold; subsequent inserts populate the hot set.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the spill fails; the store is left
    /// untiered and unchanged.
    ///
    /// # Panics
    /// Panics if the tier is already enabled or `hot_cap == 0`.
    pub fn enable_tier(
        &mut self,
        cold: Box<dyn Medium>,
        hot_cap: usize,
    ) -> Result<(), StorageError> {
        assert!(self.tier.is_none(), "cold tier already enabled");
        assert!(hot_cap >= 1, "hot_cap must be at least 1");
        let dim = self.dim;
        let slots = self.live_pos.len();
        // Staged in chunks of whole records, dead slots zero-padded to
        // keep the stride.
        let per_chunk = (SPILL_CHUNK_BYTES / (dim * 8)).max(1);
        let chunks = (0..slots).step_by(per_chunk).map(|first| {
            let mut chunk = Vec::with_capacity(per_chunk * dim * 8);
            for s in first..(first + per_chunk).min(slots) {
                if self.live_pos[s] == FREE {
                    chunk.resize(chunk.len() + dim * 8, 0);
                } else {
                    for x in &self.coords[s * dim..(s + 1) * dim] {
                        chunk.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
            chunk
        });
        let cold = Arc::new(Spill::create(cold, chunks)?);
        self.coords = Vec::new();
        self.tier = Some(Tier {
            cold,
            hot_cap,
            frame_of: vec![NONE_FRAME; slots],
            frame_slot: Vec::new(),
            ref_bit: Vec::new(),
            free_frames: Vec::new(),
            hand: 0,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            cold_reads: std::sync::atomic::AtomicU64::new(0),
            cold_bytes: std::sync::atomic::AtomicU64::new(0),
            evictions: 0,
        });
        Ok(())
    }

    /// `true` when the cold tier is enabled.
    #[must_use]
    pub fn tiered(&self) -> bool {
        self.tier.is_some()
    }

    /// The hot-point budget, when tiered.
    #[must_use]
    pub fn hot_cap(&self) -> Option<usize> {
        self.tier.as_ref().map(|t| t.hot_cap)
    }

    /// Live points currently resident in memory. Untiered stores hold
    /// everything; tiered stores hold at most the hot budget (plus any
    /// not-yet-swept overshoot).
    #[must_use]
    pub fn resident_points(&self) -> usize {
        match &self.tier {
            None => self.len(),
            Some(t) => t.live_frames(),
        }
    }

    /// Bytes held by the resident coordinate slab (the quantity the hot
    /// budget bounds).
    #[must_use]
    pub fn resident_coord_bytes(&self) -> usize {
        self.coords.len() * 8
    }

    /// `true` when every live point is resident (trivially so untiered).
    #[must_use]
    pub fn all_resident(&self) -> bool {
        match &self.tier {
            None => true,
            Some(t) => t.live_frames() == self.len(),
        }
    }

    /// Snapshot of tier traffic counters, when tiered.
    #[must_use]
    pub fn tier_counters(&self) -> Option<TierCounters> {
        self.tier.as_ref().map(Tier::counters)
    }

    /// Reads a live point's coordinates, hot or cold, appending `dim`
    /// values to `out`. This is the demand-fetch path: cold reads copy
    /// the record out **without promoting it** (reads never perturb the
    /// eviction state, which keeps tiering bit-transparent).
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the cold medium fails; `out` is
    /// left as passed in.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn read_point_into(&self, id: PointId, out: &mut Vec<f64>) -> Result<(), StorageError> {
        assert!(self.contains(id), "access to non-live point {id:?}");
        let s = id.index();
        let dim = self.dim;
        use std::sync::atomic::Ordering::Relaxed;
        let Some(tier) = &self.tier else {
            out.extend_from_slice(&self.coords[s * dim..(s + 1) * dim]);
            return Ok(());
        };
        let f = tier.frame_of[s];
        if f != NONE_FRAME {
            tier.hits.fetch_add(1, Relaxed);
            let f = f as usize;
            out.extend_from_slice(&self.coords[f * dim..(f + 1) * dim]);
            return Ok(());
        }
        // Decoded through a stack buffer, one positioned read per
        // `COLD_READ_COORDS` coordinates: no allocation per record.
        let mut bytes = [0u8; COLD_READ_COORDS * 8];
        let start = out.len();
        let record = (s * dim * 8) as u64;
        for first in (0..dim).step_by(COLD_READ_COORDS) {
            let buf = &mut bytes[..(dim - first).min(COLD_READ_COORDS) * 8];
            if let Err(e) = tier.cold.read_at(record + (first * 8) as u64, buf) {
                out.truncate(start);
                return Err(e);
            }
            out.extend(
                buf.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
        }
        tier.misses.fetch_add(1, Relaxed);
        tier.cold_reads.fetch_add(1, Relaxed);
        tier.cold_bytes.fetch_add((dim * 8) as u64, Relaxed);
        Ok(())
    }

    /// Calls `f(id, record)` for every live point in live-list order,
    /// `record` being the point's `dim` coordinates as little-endian
    /// bytes — what a snapshot writes. Hot (and untiered) points are
    /// encoded from the slab. When any live point is cold, the whole
    /// spill is read **once** and each cold record is copied out of it:
    /// the spill already holds those bytes. That transient buffer is the
    /// spill's size, at most `slots · dim · 8` bytes, and is dropped on
    /// return. Reads never promote, and the traffic counters count
    /// records served, exactly as per-record demand reads would.
    ///
    /// # Errors
    /// A failed spill read, or a cold slot whose record lies past the end
    /// of the bytes read, is an [`std::io::Error`] wrapping
    /// [`StorageError::ColdIo`] — never a zero fill. Errors from `f` pass
    /// through.
    pub(crate) fn for_each_record(
        &self,
        mut f: impl FnMut(PointId, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        use std::sync::atomic::Ordering::Relaxed;
        let dim = self.dim;
        let rec = dim * 8;
        let mut hot = Vec::with_capacity(rec);
        let Some(tier) = &self.tier else {
            return self.live_list.iter().try_for_each(|&slot| {
                let s = slot as usize;
                f(
                    PointId(slot),
                    le_bytes(&mut hot, &self.coords[s * dim..(s + 1) * dim]),
                )
            });
        };
        let spill = if self.all_resident() {
            Vec::new()
        } else {
            tier.cold.read_all().map_err(std::io::Error::other)?
        };
        let (mut hits, mut misses) = (0u64, 0u64);
        let result = self.live_list.iter().try_for_each(|&slot| {
            let s = slot as usize;
            let frame = tier.frame_of[s] as usize;
            if frame != NONE_FRAME as usize {
                hits += 1;
                let coords = &self.coords[frame * dim..(frame + 1) * dim];
                return f(PointId(slot), le_bytes(&mut hot, coords));
            }
            let record = spill.get(s * rec..(s + 1) * rec).ok_or_else(|| {
                std::io::Error::other(StorageError::ColdIo {
                    op: "read",
                    detail: format!(
                        "cold slot {s}'s record ends at byte {} but the spill holds {}",
                        (s + 1) * rec,
                        spill.len()
                    ),
                })
            })?;
            misses += 1;
            f(PointId(slot), record)
        });
        tier.hits.fetch_add(hits, Relaxed);
        tier.misses.fetch_add(misses, Relaxed);
        tier.cold_reads.fetch_add(misses, Relaxed);
        tier.cold_bytes.fetch_add(misses * rec as u64, Relaxed);
        result
    }

    /// Verifies that every id in `ids` is readable (hot or cold). The
    /// durable path calls this *before* appending a batch to the WAL so
    /// a cold outage rejects the batch typed instead of failing halfway.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] on the first unreadable point.
    ///
    /// # Panics
    /// Panics if any id is not live.
    pub fn prefetch(&self, ids: &[PointId]) -> Result<(), StorageError> {
        let mut buf = Vec::with_capacity(self.dim);
        for &id in ids {
            buf.clear();
            self.read_point_into(id, &mut buf)?;
        }
        Ok(())
    }

    /// Clock-evicts hot points down to the budget, writing each victim's
    /// record to the cold medium, then returns how many were evicted.
    /// Called at batch boundaries; a no-op untiered or under budget.
    ///
    /// The sweep is deterministic: the hand and reference bits depend
    /// only on the sequence of inserts/removes/sweeps, never on reads.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when a victim's cold write fails. The
    /// slab stays consistent (the victim simply stays hot) and the
    /// resident set may exceed the budget until a later sweep succeeds.
    pub fn enforce_hot_budget(&mut self) -> Result<u64, StorageError> {
        let dim = self.dim;
        let Some(tier) = &mut self.tier else {
            return Ok(0);
        };
        let mut evicted = 0u64;
        let mut buf = Vec::with_capacity(dim * 8);
        while tier.live_frames() > tier.hot_cap {
            let nframes = tier.frame_slot.len();
            loop {
                let f = tier.hand % nframes;
                tier.hand = (f + 1) % nframes;
                if tier.frame_slot[f] == FREE_FRAME {
                    continue;
                }
                if tier.ref_bit[f] {
                    tier.ref_bit[f] = false;
                    continue;
                }
                let slot = tier.frame_slot[f] as usize;
                let record = le_bytes(&mut buf, &self.coords[f * dim..(f + 1) * dim]);
                tier.cold.write_at((slot * dim * 8) as u64, record)?;
                tier.frame_of[slot] = NONE_FRAME;
                tier.frame_slot[f] = FREE_FRAME;
                tier.free_frames.push(f as u32);
                tier.evictions += 1;
                evicted += 1;
                break;
            }
        }
        // Give memory back: drop trailing vacant frames so the arena
        // physically shrinks to the high-water mark of the hot set.
        while tier.frame_slot.last() == Some(&FREE_FRAME) {
            tier.frame_slot.pop();
            tier.ref_bit.pop();
        }
        self.coords.truncate(tier.frame_slot.len() * dim);
        let nframes = tier.frame_slot.len() as u32;
        tier.free_frames.retain(|&f| f < nframes);
        if tier.hand >= tier.frame_slot.len() {
            tier.hand = 0;
        }
        Ok(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn insert_and_read_back() {
        let mut s = PointStore::new(2);
        let a = s.insert(&[1.0, 2.0], Some(0));
        let b = s.insert(&[3.0, 4.0], None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(a), &[1.0, 2.0]);
        assert_eq!(s.point(b), &[3.0, 4.0]);
        assert_eq!(s.label(a), Some(0));
        assert_eq!(s.label(b), None);
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut s = PointStore::new(1);
        let a = s.insert(&[1.0], None);
        let _b = s.insert(&[2.0], None);
        s.remove(a);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(a));
        let c = s.insert(&[9.0], Some(3));
        // The freed slot is reused, so the slot space stays dense.
        assert_eq!(c, a);
        assert_eq!(s.slots(), 2);
        assert_eq!(s.point(c), &[9.0]);
        assert_eq!(s.label(c), Some(3));
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn double_remove_panics() {
        let mut s = PointStore::new(1);
        let a = s.insert(&[1.0], None);
        s.remove(a);
        s.remove(a);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dim_insert_panics() {
        let mut s = PointStore::new(2);
        s.insert(&[1.0], None);
    }

    #[test]
    fn iteration_covers_exactly_live_points() {
        let mut s = PointStore::new(1);
        let ids: Vec<PointId> = (0..10).map(|i| s.insert(&[i as f64], Some(i))).collect();
        s.remove(ids[3]);
        s.remove(ids[7]);
        let mut seen: Vec<u32> = s.iter().map(|(id, _, _)| id.0).collect();
        seen.sort_unstable();
        let mut want: Vec<u32> = ids
            .iter()
            .filter(|id| **id != ids[3] && **id != ids[7])
            .map(|id| id.0)
            .collect();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn sampling_is_uniform_over_live_points() {
        let mut s = PointStore::new(1);
        let ids: Vec<PointId> = (0..4).map(|i| s.insert(&[i as f64], None)).collect();
        s.remove(ids[1]);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 4];
        for _ in 0..3000 {
            let id = s.sample(&mut rng).unwrap();
            assert!(s.contains(id));
            counts[id.index()] += 1;
        }
        assert_eq!(counts[1], 0);
        for &slot in &[0usize, 2, 3] {
            // Expected 1000 each; allow generous slack.
            assert!(counts[slot] > 800 && counts[slot] < 1200, "{counts:?}");
        }
    }

    #[test]
    fn sample_distinct_returns_unique_live_ids() {
        let mut s = PointStore::new(1);
        for i in 0..50 {
            s.insert(&[i as f64], None);
        }
        let mut rng = StdRng::seed_from_u64(7);
        let got = s.sample_distinct(20, &mut rng);
        assert_eq!(got.len(), 20);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "ids must be distinct");
        for id in got {
            assert!(s.contains(id));
        }
    }

    #[test]
    fn sample_distinct_caps_at_population() {
        let mut s = PointStore::new(1);
        s.insert(&[0.0], None);
        s.insert(&[1.0], None);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.sample_distinct(10, &mut rng).len(), 2);
    }

    #[test]
    fn empty_store_sampling() {
        let s = PointStore::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(s.sample(&mut rng).is_none());
        assert!(s.sample_distinct(3, &mut rng).is_empty());
    }

    #[test]
    fn apply_batch_deletes_then_inserts() {
        let mut s = PointStore::new(1);
        let a = s.insert(&[1.0], None);
        let b = s.insert(&[2.0], Some(1));
        let batch = Batch {
            deletes: vec![a],
            inserts: vec![(vec![5.0], Some(2)), (vec![6.0], None)],
        };
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        let new_ids = s.apply(&batch);
        assert_eq!(new_ids.len(), 2);
        assert_eq!(s.len(), 3);
        // The deleted slot is recycled by the first insertion.
        assert_eq!(new_ids[0], a);
        assert!(s.contains(b));
        assert_eq!(s.point(new_ids[0]), &[5.0]);
        assert_eq!(s.label(new_ids[1]), None);
    }

    #[test]
    fn tiered_store_round_trips_hot_and_cold() {
        let mut s = PointStore::new(2);
        let ids: Vec<PointId> = (0..10)
            .map(|i| s.insert(&[f64::from(i), f64::from(i) + 0.5], Some(i)))
            .collect();
        s.enable_tier(Box::new(MemMedium::new()), 3).unwrap();
        assert!(s.tiered());
        assert_eq!(s.hot_cap(), Some(3));
        assert_eq!(s.resident_points(), 0, "enable_tier starts all-cold");
        assert!(!s.all_resident());
        let mut buf = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            buf.clear();
            s.read_point_into(*id, &mut buf).unwrap();
            assert_eq!(buf, vec![i as f64, i as f64 + 0.5]);
            assert_eq!(s.label(*id), Some(i as u32), "labels stay resident");
        }
        let c = s.tier_counters().unwrap();
        assert_eq!(c.misses, 10);
        assert_eq!(c.cold_reads, 10);
        assert_eq!(c.cold_bytes, 10 * 16);
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn wide_cold_records_read_back_in_chunks() {
        let dim = 2 * COLD_READ_COORDS + 22;
        let point = |i: usize| -> Vec<f64> { (0..dim).map(|k| (i * dim + k) as f64).collect() };
        let mut s = PointStore::new(dim);
        let ids: Vec<PointId> = (0..5).map(|i| s.insert(&point(i), None)).collect();
        let cold = MemMedium::new();
        s.enable_tier(Box::new(cold.clone()), 1).unwrap();
        let mut buf = vec![-1.0];
        for (i, id) in ids.iter().enumerate() {
            buf.truncate(1);
            s.read_point_into(*id, &mut buf).unwrap();
            assert_eq!(buf[1..], point(i)[..], "point {i}");
        }
        let c = s.tier_counters().unwrap();
        assert_eq!((c.misses, c.cold_reads), (5, 5), "one record each");
        assert_eq!(c.cold_bytes, 5 * dim as u64 * 8);
        // A spill cut inside the last record's final chunk: the read fails
        // typed and `out` is left as passed in, not half-extended.
        cold.truncate("", (5 * dim * 8 - 8) as u64).unwrap();
        buf.truncate(1);
        let err = s.read_point_into(ids[4], &mut buf).unwrap_err();
        assert!(
            matches!(err, StorageError::ColdIo { op: "read", .. }),
            "{err}"
        );
        assert_eq!(buf, vec![-1.0]);
        assert_eq!(
            s.tier_counters().unwrap(),
            c,
            "a failed read counts nothing"
        );
    }

    #[test]
    fn eviction_enforces_budget_and_preserves_payloads() {
        let mut s = PointStore::new(1);
        s.enable_tier(Box::new(MemMedium::new()), 4).unwrap();
        let ids: Vec<PointId> = (0..32).map(|i| s.insert(&[f64::from(i)], None)).collect();
        assert_eq!(s.resident_points(), 32, "inserts land hot, over budget");
        let evicted = s.enforce_hot_budget().unwrap();
        assert_eq!(evicted, 28);
        assert_eq!(s.resident_points(), 4);
        // Every payload still reads back exactly, hot or cold.
        let mut buf = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            buf.clear();
            s.read_point_into(*id, &mut buf).unwrap();
            assert_eq!(buf, vec![i as f64]);
        }
        let c = s.tier_counters().unwrap();
        assert_eq!(c.evictions, 28);
        assert_eq!(c.hits + c.misses, 32);
        // The arena is bounded by the high-water mark, not the stream.
        assert!(s.resident_coord_bytes() <= 32 * 8);
        // Another big wave reuses vacated frames instead of growing.
        for i in 0..20 {
            s.insert(&[f64::from(100 + i)], None);
        }
        assert!(s.resident_coord_bytes() <= 32 * 8, "frame reuse, no growth");
        s.enforce_hot_budget().unwrap();
        assert_eq!(s.resident_points(), 4);
    }

    #[test]
    fn tiered_eviction_is_deterministic_across_runs() {
        let run = || {
            let mut s = PointStore::new(2);
            s.enable_tier(Box::new(MemMedium::new()), 5).unwrap();
            let mut ids = Vec::new();
            for round in 0..6 {
                for i in 0..8 {
                    ids.push(s.insert(&[f64::from(round * 8 + i), 0.5], None));
                }
                if round % 2 == 1 {
                    // Interleave deletes (and demand reads, which must NOT
                    // perturb eviction) with budget sweeps.
                    let mut buf = Vec::new();
                    s.read_point_into(ids[round as usize], &mut buf).unwrap();
                    let victim = ids.remove(3);
                    s.remove(victim);
                }
                s.enforce_hot_budget().unwrap();
            }
            let snap: Vec<(PointId, Vec<f64>)> = {
                let mut out = Vec::new();
                let mut buf = Vec::new();
                let mut live: Vec<PointId> = s.ids().collect();
                live.sort_unstable();
                for id in live {
                    buf.clear();
                    s.read_point_into(id, &mut buf).unwrap();
                    out.push((id, buf.clone()));
                }
                out
            };
            (snap, s.resident_points(), s.tier_counters().unwrap())
        };
        assert_eq!(run(), run(), "same op stream, same tier state");
    }

    #[test]
    fn cold_point_access_through_point_panics() {
        let mut s = PointStore::new(1);
        let id = s.insert(&[1.0], None);
        s.enable_tier(Box::new(MemMedium::new()), 1).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.point(id)));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("cold"), "{msg}");
    }

    #[test]
    fn slots_grow_only_when_free_list_empty() {
        let mut s = PointStore::new(1);
        let ids: Vec<PointId> = (0..5).map(|i| s.insert(&[i as f64], None)).collect();
        assert_eq!(s.slots(), 5);
        for id in &ids {
            s.remove(*id);
        }
        for i in 0..5 {
            s.insert(&[i as f64], None);
        }
        assert_eq!(s.slots(), 5, "all slots reused");
        s.insert(&[99.0], None);
        assert_eq!(s.slots(), 6);
    }
}
