//! Cold tier for point payloads: bounded-resident coordinate storage.
//!
//! The paper's premise is that bubbles summarize points well enough that
//! maintenance rarely touches raw payloads; this module makes the memory
//! footprint match that access pattern. A tiered
//! [`PointStore`](crate::PointStore) keeps at most a configured number of
//! *hot* points resident in its slab and spills everything else to a
//! [`ColdMedium`] — a file of fixed-stride coordinate records addressed
//! by slot index (`offset = slot * dim * 8`, little-endian `f64`s), read
//! with positioned reads and rewritten atomically via tmp + rename.
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
//! The cold file is an ephemeral spill, **not** durability state:
//! recovery rebuilds the store from checkpoints + WAL (always untiered)
//! and re-enables the tier afterwards, so a crash can never lose
//! acknowledged data through the cold path.
//!
//! # Failure ladder
//!
//! Every cold-tier IO failure is a typed
//! [`StorageError::ColdIo`] — mirroring the WAL's ENOSPC ladder, never a
//! panic on the durable path: a failed eviction write leaves the point
//! hot (the resident set temporarily exceeds the budget and the
//! maintainer degrades until a later sweep succeeds); a failed demand
//! read on the batch path rejects the batch before anything mutates.

use crate::segment::StorageError;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable naming the directory [`default_cold_medium`]
/// creates its spill files in. It is a path, not a behaviour switch:
/// tiering itself is configured only by the caller's hot-point budget.
pub const COLD_DIR_ENV: &str = "IDB_COLD_DIR";

/// The cold medium a tiered durable maintainer spills to: an [`FsCold`]
/// file with a unique name under `IDB_COLD_DIR` when that variable is
/// set, an in-memory [`MemCold`] otherwise.
///
/// # Errors
/// The spill file cannot be created under `IDB_COLD_DIR` (a missing
/// directory, a path through a regular file, no permission). A
/// configured directory never silently degrades to memory.
pub fn default_cold_medium() -> io::Result<Box<dyn ColdMedium>> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = std::env::var_os(COLD_DIR_ENV) else {
        return Ok(Box::new(MemCold::new()));
    };
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = Path::new(&dir).join(format!("cold-{}-{n}.points", std::process::id()));
    let fs =
        FsCold::create(&path).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
    Ok(Box::new(fs))
}

fn cold_io(op: &'static str, e: &io::Error) -> StorageError {
    StorageError::ColdIo {
        op,
        detail: e.to_string(),
    }
}

/// Backing storage for spilled point payloads: positioned reads and
/// writes over a flat record space, plus an atomic whole-content
/// rewrite. Implementations share their underlying medium across
/// [`boxed_clone`](ColdMedium::boxed_clone) (like
/// [`MemSegments`](crate::MemSegments)), so a cloned tiered store reads
/// the same cold records.
pub trait ColdMedium: Send + Sync + fmt::Debug {
    /// Fills `buf` from `offset`.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the record cannot be read in full.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Writes `data` at `offset`, extending the medium as needed.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the write cannot complete.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Begins an atomic whole-content rewrite: stream chunks through
    /// [`ColdRewriter::append`], then [`ColdRewriter::commit`]. Until
    /// commit, readers see the old content; a dropped (uncommitted)
    /// rewriter leaves the old content intact — the crash-consistency
    /// contract of tmp + rename.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the staging area cannot be created.
    fn start_rewrite(&self) -> Result<Box<dyn ColdRewriter + '_>, StorageError>;

    /// Clones the handle; the clone shares the same underlying medium.
    fn boxed_clone(&self) -> Box<dyn ColdMedium>;
}

/// An in-progress atomic rewrite of a [`ColdMedium`]'s content.
pub trait ColdRewriter {
    /// Appends a chunk to the staged content.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the chunk cannot be staged.
    fn append(&mut self, chunk: &[u8]) -> Result<(), StorageError>;

    /// Atomically publishes the staged content.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when publication fails; the old content
    /// remains visible.
    fn commit(self: Box<Self>) -> Result<(), StorageError>;
}

/// In-memory cold medium for tests and hermetic runs. Clones share the
/// same backing vector.
#[derive(Debug, Clone, Default)]
pub struct MemCold {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemCold {
    /// An empty in-memory medium.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current content length in bytes (tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.lock().expect("cold lock").len()
    }

    /// `true` when nothing has been spilled yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ColdMedium for MemCold {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let data = self.data.lock().expect("cold lock");
        let start = usize::try_from(offset).map_err(|_| StorageError::ColdIo {
            op: "read",
            detail: format!("offset {offset} exceeds the address space"),
        })?;
        let end = start.checked_add(buf.len()).filter(|&e| e <= data.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&data[start..end]);
                Ok(())
            }
            None => Err(StorageError::ColdIo {
                op: "read",
                detail: format!(
                    "short read: {} bytes at {offset} but medium holds {}",
                    buf.len(),
                    data.len()
                ),
            }),
        }
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let mut vec = self.data.lock().expect("cold lock");
        let start = usize::try_from(offset).map_err(|_| StorageError::ColdIo {
            op: "write",
            detail: format!("offset {offset} exceeds the address space"),
        })?;
        let end = start + data.len();
        if vec.len() < end {
            vec.resize(end, 0);
        }
        vec[start..end].copy_from_slice(data);
        Ok(())
    }

    fn start_rewrite(&self) -> Result<Box<dyn ColdRewriter + '_>, StorageError> {
        Ok(Box::new(MemRewriter {
            staged: Vec::new(),
            target: Arc::clone(&self.data),
        }))
    }

    fn boxed_clone(&self) -> Box<dyn ColdMedium> {
        Box::new(self.clone())
    }
}

struct MemRewriter {
    staged: Vec<u8>,
    target: Arc<Mutex<Vec<u8>>>,
}

impl ColdRewriter for MemRewriter {
    fn append(&mut self, chunk: &[u8]) -> Result<(), StorageError> {
        self.staged.extend_from_slice(chunk);
        Ok(())
    }

    fn commit(self: Box<Self>) -> Result<(), StorageError> {
        *self.target.lock().expect("cold lock") = self.staged;
        Ok(())
    }
}

/// File-backed cold medium: one flat file of fixed-stride records,
/// positioned reads/writes, tmp + rename rewrites. Clones share the same
/// file handle (and therefore see each other's writes).
///
/// The spill file (and any abandoned rewrite staging file) is removed
/// when the **last** clone drops: a spill only ever caches points the WAL
/// and checkpoints already hold, and recovery never reads it.
#[derive(Debug, Clone)]
pub struct FsCold {
    spill: Arc<SpillFile>,
}

/// The handle every [`FsCold`] clone shares; dropping the last one
/// deletes the spill.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    file: Mutex<File>,
}

impl SpillFile {
    fn lock(&self) -> std::sync::MutexGuard<'_, File> {
        self.file.lock().expect("cold lock")
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Best effort: a spill that is already gone (or a directory that
        // was removed under us) leaves nothing to clean up.
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(tmp_path(&self.path));
    }
}

/// The staging path of a rewrite of the spill at `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

impl FsCold {
    /// Creates (truncating) the spill file at `path`.
    ///
    /// # Errors
    /// [`StorageError::ColdIo`] when the file cannot be created.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| cold_io("create", &e))?;
        Ok(Self {
            spill: Arc::new(SpillFile {
                path,
                file: Mutex::new(file),
            }),
        })
    }

    /// The spill file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.spill.path
    }
}

impl ColdMedium for FsCold {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.spill
            .lock()
            .read_exact_at(buf, offset)
            .map_err(|e| cold_io("read", &e))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.spill
            .lock()
            .write_all_at(data, offset)
            .map_err(|e| cold_io("write", &e))
    }

    fn start_rewrite(&self) -> Result<Box<dyn ColdRewriter + '_>, StorageError> {
        let tmp = tmp_path(&self.spill.path);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| cold_io("rewrite", &e))?;
        Ok(Box::new(FsRewriter {
            owner: self,
            tmp,
            file,
        }))
    }

    fn boxed_clone(&self) -> Box<dyn ColdMedium> {
        Box::new(self.clone())
    }
}

struct FsRewriter<'a> {
    owner: &'a FsCold,
    tmp: PathBuf,
    file: File,
}

impl ColdRewriter for FsRewriter<'_> {
    fn append(&mut self, chunk: &[u8]) -> Result<(), StorageError> {
        self.file
            .write_all(chunk)
            .map_err(|e| cold_io("rewrite", &e))
    }

    fn commit(self: Box<Self>) -> Result<(), StorageError> {
        self.file.sync_all().map_err(|e| cold_io("rewrite", &e))?;
        std::fs::rename(&self.tmp, &self.owner.spill.path).map_err(|e| cold_io("rewrite", &e))?;
        // The shared handle still points at the replaced inode; reopen so
        // every clone reads the published content.
        let fresh = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.owner.spill.path)
            .map_err(|e| cold_io("rewrite", &e))?;
        *self.owner.spill.lock() = fresh;
        Ok(())
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
    /// Records read from the cold medium (== `misses`; kept separate so
    /// future prefetching can diverge them).
    pub cold_reads: u64,
    /// Payload bytes read from the cold medium.
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
    pub(crate) cold: Box<dyn ColdMedium>,
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
            cold: self.cold.boxed_clone(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_cold_positioned_io_round_trips() {
        let m = MemCold::new();
        m.write_at(16, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        m.read_at(16, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        // The gap before the record reads as zeros.
        let mut head = [9u8; 16];
        m.read_at(0, &mut head).unwrap();
        assert_eq!(head, [0u8; 16]);
    }

    #[test]
    fn mem_cold_short_read_is_typed() {
        let m = MemCold::new();
        m.write_at(0, &[1, 2]).unwrap();
        let mut buf = [0u8; 8];
        let err = m.read_at(0, &mut buf).unwrap_err();
        assert!(
            matches!(err, StorageError::ColdIo { op: "read", .. }),
            "{err}"
        );
    }

    #[test]
    fn mem_cold_clones_share_content() {
        let a = MemCold::new();
        let b = a.boxed_clone();
        a.write_at(0, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn mem_rewrite_is_atomic_until_commit() {
        let m = MemCold::new();
        m.write_at(0, b"old-content!").unwrap();
        let mut rw = m.start_rewrite().unwrap();
        rw.append(b"new!").unwrap();
        // Not yet committed: readers still see the old content.
        let mut buf = [0u8; 12];
        m.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"old-content!");
        rw.commit().unwrap();
        let mut buf = [0u8; 4];
        m.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"new!");
        assert_eq!(m.len(), 4, "commit replaces, not appends");
    }

    #[test]
    fn fs_cold_round_trips_and_rewrites_via_rename() {
        let dir = std::env::temp_dir().join(format!("idb-tier-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cold.points");
        let fs = FsCold::create(&path).unwrap();
        fs.write_at(8, &[5u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        fs.read_at(8, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 8]);

        // A clone shares the handle.
        let twin = fs.boxed_clone();
        let mut buf = [0u8; 8];
        twin.read_at(8, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 8]);

        // Rewrite publishes atomically and the old handle follows.
        let mut rw = fs.start_rewrite().unwrap();
        rw.append(&[1u8; 4]).unwrap();
        rw.commit().unwrap();
        let mut buf = [0u8; 4];
        twin.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 4]);
        let mut long = [0u8; 16];
        assert!(twin.read_at(0, &mut long).is_err(), "old length is gone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fs_cold_spill_is_removed_when_the_last_handle_drops() {
        let dir = std::env::temp_dir().join(format!("idb-tier-leak-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cold.points");
        let fs = FsCold::create(&path).unwrap();
        fs.write_at(0, &[3u8; 8]).unwrap();
        let twin = fs.boxed_clone();
        drop(fs);
        assert!(path.exists(), "a live clone keeps the spill");
        let mut buf = [0u8; 8];
        twin.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 8]);
        drop(twin);
        assert!(!path.exists(), "the last handle removes the spill");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abandoned_fs_rewrite_leaves_old_content() {
        let dir = std::env::temp_dir().join(format!("idb-tier-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FsCold::create(dir.join("cold.points")).unwrap();
        fs.write_at(0, b"keep").unwrap();
        {
            let mut rw = fs.start_rewrite().unwrap();
            rw.append(b"discarded").unwrap();
            // Dropped without commit: crash-equivalent.
        }
        let mut buf = [0u8; 4];
        fs.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"keep");
        std::fs::remove_dir_all(&dir).ok();
    }
}
