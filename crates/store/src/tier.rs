//! Cold tier for point payloads: bounded-resident coordinate storage.
//!
//! The paper's premise is that bubbles summarize points well enough that
//! maintenance rarely touches raw payloads; this module makes the memory
//! footprint match that access pattern. A tiered
//! [`PointStore`](crate::PointStore) keeps at most a configured number of
//! *hot* points resident in its slab and spills everything else to one
//! object on a [`Medium`] — fixed-stride coordinate records addressed by
//! slot index (`offset = slot * dim * 8`, little-endian `f64`s), read and
//! written in place and rewritten atomically via a `.tmp` object +
//! rename.
//!
//! # Determinism contract
//!
//! Tiering must never change output bits. Two rules enforce that:
//!
//! 1. **Demand fetches never promote.** Reading a cold point copies its
//!    coordinates out; it does not move the point back into the hot set
//!    or touch any eviction state. Reads go through `&self` and only
//!    bump atomic traffic counters.
//! 2. **Eviction is a pure function of the mutation stream.** The hot
//!    set evolves only on `insert`, `remove`, and
//!    `enforce_hot_budget` — a clock sweep whose hand and reference
//!    bits depend on nothing but the sequence of those calls. Replaying
//!    the same op stream reproduces the same hot set, the same cold
//!    writes, and the same counters.
//!
//! The spill is ephemeral, **not** durability state: recovery rebuilds
//! the store from checkpoints + WAL (always untiered) and re-enables the
//! tier afterwards, so a crash can never lose acknowledged data through
//! the cold path. The last handle to a tiered store removes it (and any
//! abandoned `.tmp`).
//!
//! # Failure ladder
//!
//! Every cold-tier IO failure is a typed
//! [`StorageError::ColdIo`] — mirroring the WAL's ENOSPC ladder, never a
//! panic on the durable path: a failed eviction write leaves the point
//! hot (the resident set temporarily exceeds the budget and the
//! maintainer degrades until a later sweep succeeds); a failed demand
//! read on the batch path rejects the batch before anything mutates.

use crate::medium::{FsMedium, Medium, MemMedium};
use crate::segment::StorageError;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable naming the directory [`default_cold_medium`]
/// creates its spill files in. It is a path, not a behaviour switch:
/// tiering itself is configured only by the caller's hot-point budget.
pub const COLD_DIR_ENV: &str = "IDB_COLD_DIR";

/// A file-backed spill: [`FsMedium::create`] on the spill's path.
pub type FsCold = FsMedium;

/// The medium a tiered durable maintainer spills to: a file with a unique
/// name under `IDB_COLD_DIR` when that variable is set, memory otherwise.
///
/// # Errors
/// The spill file cannot be created under `IDB_COLD_DIR` (a missing
/// directory, a path through a regular file, no permission). A
/// configured directory never silently degrades to memory.
pub fn default_cold_medium() -> io::Result<Box<dyn Medium>> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = std::env::var_os(COLD_DIR_ENV) else {
        return Ok(Box::new(MemMedium::new()));
    };
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = Path::new(&dir).join(format!("cold-{}-{n}.points", std::process::id()));
    let fs =
        FsCold::create(&path).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
    Ok(Box::new(fs))
}

/// The spill object's name on its medium (with [`FsMedium::create`], the
/// spill file itself) and the staging object of a rewrite.
const SPILL: &str = "";
const SPILL_TMP: &str = ".tmp";

fn cold_io(op: &'static str, e: &io::Error) -> StorageError {
    StorageError::ColdIo {
        op,
        detail: e.to_string(),
    }
}

/// The spill every clone of a tiered store shares: positioned record IO
/// on one medium object. Dropping the last handle removes the spill.
#[derive(Debug)]
pub(crate) struct Spill {
    medium: Box<dyn Medium>,
}

impl Spill {
    /// Publishes `chunks` as the whole spill: staged in the `.tmp` object
    /// (discarding any abandoned one), then renamed over the spill. Until
    /// the rename, readers see the old content. The guard exists from the
    /// start, so a failure anywhere removes the spill and the staging
    /// object.
    pub(crate) fn create(
        medium: Box<dyn Medium>,
        chunks: impl Iterator<Item = Vec<u8>>,
    ) -> Result<Self, StorageError> {
        let spill = Self { medium };
        let medium = &spill.medium;
        let staged = (|| {
            medium.remove(SPILL_TMP)?;
            medium.append(SPILL_TMP, &[])?; // Exists even when nothing spills.
            for chunk in chunks {
                medium.append(SPILL_TMP, &chunk)?;
            }
            // Not for durability: written back now, the spill's pages
            // cannot reach the disk later, under the batch path's fsyncs.
            medium.sync(SPILL_TMP)?;
            medium.rename(SPILL_TMP, SPILL)
        })();
        staged.map_err(|e| cold_io("rewrite", &e))?;
        Ok(spill)
    }

    /// The whole spill in one read: a snapshot copies its cold records
    /// out of this instead of fetching them one positioned read each.
    pub(crate) fn read_all(&self) -> Result<Vec<u8>, StorageError> {
        self.medium.read(SPILL).map_err(|e| cold_io("read", &e))
    }

    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.medium
            .read_at(SPILL, offset, buf)
            .map_err(|e| cold_io("read", &e))
    }

    pub(crate) fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.medium
            .write_at(SPILL, offset, data)
            .map_err(|e| cold_io("write", &e))
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        // Best effort: a spill that is already gone (or a directory that
        // was removed under us) leaves nothing to clean up.
        let _ = self.medium.remove(SPILL);
        let _ = self.medium.remove(SPILL_TMP);
    }
}

/// A snapshot of a tiered store's traffic counters (monotonic over the
/// store's life; [`Default`] is all-zero for delta bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Demand reads served from the hot slab.
    pub hits: u64,
    /// Demand reads that had to go to the cold medium.
    pub misses: u64,
    /// Records served from the cold medium (== `misses`). A demand read
    /// fetches its record with one positioned read; a snapshot reads the
    /// whole spill once and counts each cold record it copies out of it,
    /// so the count is of records, not of medium operations.
    pub cold_reads: u64,
    /// Payload bytes of the records counted in `cold_reads`.
    pub cold_bytes: u64,
    /// Hot frames evicted (written) to the cold medium.
    pub evictions: u64,
}

pub(crate) const NONE_FRAME: u32 = u32::MAX;
pub(crate) const FREE_FRAME: u32 = u32::MAX;

/// Per-store tier state: the slot↔frame maps, the clock sweep, the cold
/// handle, and the traffic counters.
///
/// In tiered mode the store's `coords` vector is *frame*-strided (frame
/// `f` occupies `f*dim..(f+1)*dim`) instead of slot-strided; `frame_of`
/// and `frame_slot` translate between the two spaces.
#[derive(Debug)]
pub(crate) struct Tier {
    pub(crate) cold: Arc<Spill>,
    pub(crate) hot_cap: usize,
    /// slot -> hot frame, or [`NONE_FRAME`] when the slot is cold/dead.
    pub(crate) frame_of: Vec<u32>,
    /// frame -> slot, or [`FREE_FRAME`] when the frame is vacant.
    pub(crate) frame_slot: Vec<u32>,
    /// Clock reference bits (set at insert, cleared by the first sweep
    /// pass, evicted on the second).
    pub(crate) ref_bit: Vec<bool>,
    /// Vacant frames in reuse order (the last element is recycled next).
    pub(crate) free_frames: Vec<u32>,
    /// Clock hand: the next frame the sweep inspects.
    pub(crate) hand: usize,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) cold_reads: AtomicU64,
    pub(crate) cold_bytes: AtomicU64,
    pub(crate) evictions: u64,
}

impl Tier {
    pub(crate) fn counters(&self) -> TierCounters {
        TierCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
            cold_bytes: self.cold_bytes.load(Ordering::Relaxed),
            evictions: self.evictions,
        }
    }

    /// Occupied (non-vacant) hot frames.
    pub(crate) fn live_frames(&self) -> usize {
        self.frame_slot.len() - self.free_frames.len()
    }
}

impl Clone for Tier {
    fn clone(&self) -> Self {
        Self {
            cold: Arc::clone(&self.cold),
            hot_cap: self.hot_cap,
            frame_of: self.frame_of.clone(),
            frame_slot: self.frame_slot.clone(),
            ref_bit: self.ref_bit.clone(),
            free_frames: self.free_frames.clone(),
            hand: self.hand,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            cold_reads: AtomicU64::new(self.cold_reads.load(Ordering::Relaxed)),
            cold_bytes: AtomicU64::new(self.cold_bytes.load(Ordering::Relaxed)),
            evictions: self.evictions,
        }
    }
}
