//! Segmented WAL storage: bounded segments, compaction, disk budgets.
//!
//! A single append-only WAL file grows without bound — fatal for the
//! paper's setting of an *unbounded* dynamic stream. This module bounds
//! it: the log becomes a **chain of segments**, each an independently
//! parseable WAL file (same CRC-framed format as [`crate::wal`]), named
//! by `(epoch, seq)`. [`SegmentedSink`] presents the chain to
//! [`crate::wal::WalWriter`] as one logical byte stream, sealing the
//! active segment and rotating to a fresh one once a configurable byte
//! budget is reached, and **compaction** ([`DurableSink::reclaim`])
//! deletes sealed segments whose records are all covered by the newest
//! durable checkpoint — so the live WAL footprint stays proportional to
//! the checkpoint interval, not the stream's lifetime.
//!
//! # Chain layout
//!
//! ```text
//! wal-{epoch:08x}-{seq:08x}.idbw
//! ```
//!
//! Every segment begins with the standard 20-byte WAL header whose `base`
//! is the absolute sequence number of its first record, so each segment
//! is self-describing. [`read_chain`] walks the newest epoch: sequence
//! numbers must be contiguous from the lowest surviving one (compaction
//! only ever deletes a prefix), every *interior* segment must parse clean
//! and agree with its successor's base, and only the **final** segment
//! may carry a torn tail (the crash rule). A hole in the chain is a typed
//! [`WalError::ChainGap`]; interior damage is a typed
//! [`WalError::CorruptSegment`] — never a panic, never silent data loss.
//!
//! # Budgets
//!
//! [`StorageBudget`] caps the chain's live bytes; exceeding it (or an
//! ENOSPC from the medium) surfaces as a typed [`StorageError`] the
//! durability layer turns into its compact-first-then-shed policy
//! (DESIGN.md §16). The segment size is an argument of
//! [`SegmentedSink::fresh`] and [`SegmentedSink::open`]; the budget
//! defaults to unbounded.

use crate::medium::Medium;
use crate::wal::{
    scan_wal, wal_header, DurableSink, ReclaimReport, RollReport, WalError, WalRecord, WalScan,
    WAL_HEADER_LEN,
};
use std::fmt;
use std::io;

/// Name of one segment in a chain: `epoch` increments whenever the
/// logical stream restarts (a resume after recovery), `seq` within an
/// epoch increments on every rotation. Orders by `(epoch, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId {
    /// The logical-stream generation this segment belongs to.
    pub epoch: u64,
    /// Position of the segment within its epoch's chain.
    pub seq: u64,
}

impl SegmentId {
    /// The canonical file name, `wal-{epoch:08x}-{seq:08x}.idbw`.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("wal-{:08x}-{:08x}.idbw", self.epoch, self.seq)
    }

    /// Parses a canonical file name back into an id.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        let rest = name.strip_prefix("wal-")?.strip_suffix(".idbw")?;
        let (epoch, seq) = rest.split_once('-')?;
        Some(Self {
            epoch: u64::from_str_radix(epoch, 16).ok()?,
            seq: u64::from_str_radix(seq, 16).ok()?,
        })
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}-{:08x}", self.epoch, self.seq)
    }
}

/// Bookkeeping for one sealed (no longer written) segment.
#[derive(Debug, Clone, Copy)]
struct SealedSeg {
    id: SegmentId,
    bytes: u64,
    /// Absolute sequence number just past the segment's last record: a
    /// checkpoint covering `end_seq` makes the whole segment reclaimable.
    end_seq: u64,
}

/// A [`DurableSink`] that spreads one logical WAL byte stream across a
/// chain of bounded segments, one [`Medium`] object per segment.
///
/// The `WalWriter` on top is oblivious: appends, syncs and short-write
/// repairs address the logical stream, and the sink maps them onto the
/// active segment. Rotation happens only through [`DurableSink::roll`]
/// at commit boundaries — the sink seals the active segment, starts the
/// next one in the chain, and stamps it with a standard WAL header whose
/// `base` is the absolute sequence number of the next record, keeping
/// every segment independently parseable. [`DurableSink::reclaim`]
/// deletes the sealed prefix a checkpoint has made redundant.
///
/// `truncate(0)` — the resume path destroying a dead epoch — removes
/// every segment on the medium (including a chain adopted by
/// [`SegmentedSink::open`]) and starts a fresh epoch numbered past
/// everything seen, so [`read_chain`] can never confuse a new chain with
/// leftovers.
#[derive(Debug)]
pub struct SegmentedSink<M: Medium> {
    medium: M,
    budget: u64,
    epoch: u64,
    active_id: SegmentId,
    /// `active_id.file_name()`, kept to spare a format per append.
    active_name: String,
    /// Physical bytes in the active segment.
    active_len: u64,
    /// Physical header bytes of the active segment that are *not* part of
    /// the logical stream (0 for an epoch's first segment — its header is
    /// written by the `WalWriter` through the stream — and
    /// [`WAL_HEADER_LEN`] for rotated ones, stamped by the sink itself).
    header_skip: u64,
    /// Logical offset at which the active segment begins.
    logical_start: u64,
    sealed: Vec<SealedSeg>,
}

impl<M: Medium> SegmentedSink<M> {
    /// Starts a fresh chain on `medium` with the given per-segment byte
    /// budget: any leftover segments from an earlier life are removed
    /// (mirroring a single-file WAL's truncation on create), and the new
    /// chain's epoch is numbered past every epoch ever seen. The first
    /// segment appears with the first append.
    ///
    /// # Errors
    /// Whatever the medium reports.
    pub fn fresh(medium: M, segment_bytes: u64) -> io::Result<Self> {
        let sink = Self::open(medium, segment_bytes)?;
        sink.remove_segments()?;
        Ok(sink)
    }

    /// Adopts the chain on `medium` without touching it: the chain a
    /// recovery just read, to resume on. Its segments stay readable until
    /// `truncate(0)` removes them — which `resume` does only once its
    /// anchor checkpoint is durable. Appends before that start a new
    /// epoch, numbered past every epoch seen.
    ///
    /// # Errors
    /// Whatever the medium reports.
    pub fn open(medium: M, segment_bytes: u64) -> io::Result<Self> {
        let epoch = segment_ids(&medium)?
            .iter()
            .map(|id| id.epoch)
            .max()
            .map_or(0, |e| e + 1);
        let active_id = SegmentId { epoch, seq: 0 };
        Ok(Self {
            medium,
            budget: segment_bytes.max(1),
            epoch,
            active_id,
            active_name: active_id.file_name(),
            active_len: 0,
            header_skip: 0,
            logical_start: 0,
            sealed: Vec::new(),
        })
    }

    /// Removes every segment on the medium, oldest first, so a kill
    /// partway leaves a chain that lost only a prefix.
    fn remove_segments(&self) -> io::Result<()> {
        let mut ids = segment_ids(&self.medium)?;
        ids.sort_unstable();
        for id in ids {
            self.medium.remove(&id.file_name())?;
        }
        Ok(())
    }

    /// The segment medium.
    #[must_use]
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// The chain's current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The active (currently appended-to) segment.
    #[must_use]
    pub fn active_id(&self) -> SegmentId {
        self.active_id
    }

    /// Segments currently alive (sealed + active).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    fn switch_to(&mut self, id: SegmentId) {
        self.active_id = id;
        self.active_name = id.file_name();
    }
}

impl<M: Medium> DurableSink for SegmentedSink<M> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.medium.append(&self.active_name, bytes)?;
        self.active_len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.medium.sync(&self.active_name)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if len == 0 {
            // The resume path: the whole logical stream is dead, and so is
            // any chain adopted by `open`. Remove every segment and begin
            // a fresh epoch.
            self.remove_segments()?;
            self.sealed.clear();
            self.epoch += 1;
            self.switch_to(SegmentId {
                epoch: self.epoch,
                seq: 0,
            });
            self.active_len = 0;
            self.header_skip = 0;
            self.logical_start = 0;
            return Ok(());
        }
        if len >= self.logical_start {
            // A short-write repair inside the active segment.
            let phys = self.header_skip + (len - self.logical_start);
            self.medium.truncate(&self.active_name, phys)?;
            self.active_len = phys;
            return Ok(());
        }
        // The WalWriter only truncates to a committed length, and sealing
        // happens exactly at commit boundaries, so a cut into a sealed
        // segment cannot be produced by the writer.
        Err(io::Error::other(
            "segmented wal cannot truncate into a sealed segment",
        ))
    }

    fn roll(&mut self, dim: usize, next_base: u64) -> io::Result<Option<RollReport>> {
        if self.active_len < self.budget {
            return Ok(None);
        }
        let next_id = SegmentId {
            epoch: self.epoch,
            seq: self.active_id.seq + 1,
        };
        // Stamp before switching: if anything here fails, the active
        // segment is untouched and appends keep landing in it (the partial
        // next segment is discarded so a retry starts clean). A crash
        // inside this window leaves at most a stray final segment with a
        // short header, which `read_chain` ignores as torn.
        let next_name = next_id.file_name();
        let stamped = self
            .medium
            .append(&next_name, &wal_header(dim, next_base))
            .and_then(|()| self.medium.sync(&next_name));
        if let Err(e) = stamped {
            let _ = self.medium.remove(&next_name);
            return Err(e);
        }
        let sealed_bytes = self.active_len;
        self.sealed.push(SealedSeg {
            id: self.active_id,
            bytes: sealed_bytes,
            end_seq: next_base,
        });
        self.logical_start += self.active_len - self.header_skip;
        self.switch_to(next_id);
        self.active_len = WAL_HEADER_LEN as u64;
        self.header_skip = WAL_HEADER_LEN as u64;
        Ok(Some(RollReport {
            sealed_bytes,
            new_epoch: next_id.epoch,
            new_seq: next_id.seq,
        }))
    }

    fn reclaim(
        &mut self,
        covered_seq: u64,
        make_covering_durable: &mut dyn FnMut() -> io::Result<()>,
    ) -> io::Result<ReclaimReport> {
        let mut report = ReclaimReport::default();
        while let Some(first) = self.sealed.first().copied() {
            if first.end_seq > covered_seq {
                break;
            }
            if report.segments == 0 {
                make_covering_durable()?;
            }
            let freed = self.medium.remove(&first.id.file_name())?;
            report.segments += 1;
            report.bytes += freed.max(first.bytes);
            self.sealed.remove(0);
        }
        Ok(report)
    }

    fn live_bytes(&self) -> Option<u64> {
        Some(self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active_len)
    }
}

/// The ids of every segment on `medium`, of any epoch, in any order.
fn segment_ids<M: Medium + ?Sized>(medium: &M) -> io::Result<Vec<SegmentId>> {
    Ok(medium
        .list()?
        .iter()
        .filter_map(|name| SegmentId::parse(name))
        .collect())
}

/// The decoded contents of a segment chain: the merged logical view of
/// the newest epoch, plus chain provenance.
#[derive(Debug)]
pub struct ChainContents {
    /// Dimensionality from the chain's headers (0 for an empty chain).
    pub dim: usize,
    /// Absolute sequence number of the first surviving record (the base
    /// of the oldest surviving segment; compaction moves it forward).
    pub base: u64,
    /// Every fully-committed record across the chain, in order.
    pub records: Vec<WalRecord>,
    /// Whether the final segment carried a torn tail.
    pub torn_tail: bool,
    /// The epoch that was read.
    pub epoch: u64,
    /// The chain's segments, oldest first.
    pub segments: Vec<SegmentId>,
    /// Total bytes read across the chain's segments.
    pub bytes: u64,
}

/// The newest epoch's segments as read from a medium, oldest first, with
/// contiguous sequence numbers: the bytes [`ChainBytes::scan`] verifies
/// and its scan borrows.
#[derive(Debug)]
pub struct ChainBytes {
    /// The epoch that was read (0 for an empty medium).
    pub epoch: u64,
    /// The chain's segments, oldest first.
    pub segments: Vec<SegmentId>,
    data: Vec<Vec<u8>>,
}

/// Reads the newest epoch's segment chain from `medium`.
///
/// Older epochs are ignored: a resume wipes its predecessors, so their
/// segments can only be leftovers of an interrupted wipe, and the resume
/// anchor checkpoint already covers everything they held. Within the
/// chain, sequence numbers must be contiguous from the lowest survivor.
///
/// # Errors
/// * [`WalError::ChainGap`] — a hole in the sequence numbers;
/// * [`WalError::Io`] — the medium failed.
pub fn load_chain<M: Medium + ?Sized>(medium: &M) -> Result<ChainBytes, WalError> {
    let mut ids = segment_ids(medium)?;
    let epoch = ids.iter().map(|id| id.epoch).max().unwrap_or(0);
    ids.retain(|id| id.epoch == epoch);
    ids.sort_unstable();
    for pair in ids.windows(2) {
        if pair[1].seq != pair[0].seq + 1 {
            return Err(WalError::ChainGap {
                epoch,
                expected_seq: pair[0].seq + 1,
            });
        }
    }
    let data = ids
        .iter()
        .map(|id| medium.read(&id.file_name()))
        .collect::<io::Result<_>>()?;
    Ok(ChainBytes {
        epoch,
        segments: ids,
        data,
    })
}

impl ChainBytes {
    /// Total bytes read across the chain's segments.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.data.iter().map(|d| d.len() as u64).sum()
    }

    /// Verifies the chain and merges it into one logical record stream:
    /// each segment is walked by [`scan_wal`], every *interior* segment
    /// must be clean, untorn, dimensionally consistent, and hand over
    /// exactly at its successor's base. Only the final segment may be
    /// torn — including a missing or short header (a crash during
    /// rotation), which contributes nothing.
    ///
    /// # Errors
    /// [`WalError::CorruptSegment`] — a torn or damaged interior segment,
    /// a dimensionality flip, a base that disagrees with its predecessor's
    /// record count, or checksum-level damage inside any segment.
    pub fn scan(&self) -> Result<WalScan<'_>, WalError> {
        let epoch = self.epoch;
        let corrupt = |seq: u64, detail: String| WalError::CorruptSegment { epoch, seq, detail };
        let mut chain: Option<WalScan<'_>> = None;
        let last = self.segments.len().saturating_sub(1);
        for (k, (id, bytes)) in self.segments.iter().zip(&self.data).enumerate() {
            let seg = scan_wal(bytes).map_err(|e| match e {
                WalError::Corrupt { offset, detail } => {
                    corrupt(id.seq, format!("at byte {offset}: {detail}"))
                }
                other => other,
            })?;
            if seg.dim == 0 {
                // The header itself is short: legal only as a crash's final
                // stray (nothing in it was ever durable).
                if k < last {
                    return Err(corrupt(
                        id.seq,
                        "interior segment is missing its header".into(),
                    ));
                }
                match chain.as_mut() {
                    Some(chain) => chain.torn_tail = seg.torn_tail,
                    None => chain = Some(seg),
                }
                break;
            }
            if let Some(chain) = &chain {
                if seg.dim != chain.dim {
                    return Err(corrupt(
                        id.seq,
                        format!("segment dim {} vs chain dim {}", seg.dim, chain.dim),
                    ));
                }
                if seg.base != chain.end_seq() {
                    return Err(corrupt(
                        id.seq,
                        format!(
                            "segment base {} but predecessor ends at {}",
                            seg.base,
                            chain.end_seq()
                        ),
                    ));
                }
            }
            if k < last && seg.torn_tail {
                return Err(corrupt(id.seq, "interior segment has a torn tail".into()));
            }
            match chain.as_mut() {
                Some(chain) => chain.extend(seg),
                None => chain = Some(seg),
            }
        }
        Ok(chain.unwrap_or_default())
    }
}

/// Walks the newest epoch's segment chain on `medium` and decodes it
/// into one logical record stream: [`load_chain`], [`ChainBytes::scan`],
/// then every record.
///
/// # Errors
/// * [`WalError::ChainGap`] — a hole in the sequence numbers;
/// * [`WalError::CorruptSegment`] — a torn or damaged interior segment,
///   a dimensionality flip, a base that disagrees with its predecessor's
///   record count, or checksum-level damage inside any segment;
/// * [`WalError::Io`] — the medium failed.
pub fn read_chain<M: Medium + ?Sized>(medium: &M) -> Result<ChainContents, WalError> {
    let chain = load_chain(medium)?;
    let wal = chain.scan()?.decode();
    Ok(ChainContents {
        dim: wal.dim,
        base: wal.base,
        records: wal.records,
        torn_tail: wal.torn_tail,
        bytes: chain.bytes(),
        epoch: chain.epoch,
        segments: chain.segments,
    })
}

/// A cap on the live bytes a durable resource may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageBudget {
    /// Maximum live bytes; `None` is unbounded.
    pub max_live_bytes: Option<u64>,
}

impl StorageBudget {
    /// No cap.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A cap of `bytes` live bytes.
    #[must_use]
    pub fn bytes(bytes: u64) -> Self {
        Self {
            max_live_bytes: Some(bytes),
        }
    }

    /// Checks `live` bytes against the cap.
    ///
    /// # Errors
    /// [`StorageError::BudgetExceeded`] when `live` is over the cap.
    pub fn check(&self, live: u64) -> Result<(), StorageError> {
        match self.max_live_bytes {
            Some(budget) if live > budget => Err(StorageError::BudgetExceeded {
                live_bytes: live,
                budget,
            }),
            _ => Ok(()),
        }
    }
}

/// A typed storage-exhaustion event. Every durable resource is bounded;
/// hitting a bound is a recoverable, reportable condition — never a
/// panic, never silent loss of *acknowledged* data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The live WAL chain exceeds the configured disk budget and
    /// compaction (plus a forced checkpoint) could not shrink it enough.
    BudgetExceeded {
        /// Live bytes currently held.
        live_bytes: u64,
        /// The configured cap.
        budget: u64,
    },
    /// The medium itself is out of space (ENOSPC) and compaction could
    /// not free enough to continue.
    Enospc {
        /// What the medium reported.
        detail: String,
    },
    /// The degraded-mode in-memory buffer reached its hard cap; the
    /// batch was shed instead of growing memory without limit.
    BufferFull {
        /// Records currently buffered.
        buffered: usize,
        /// The configured cap.
        max: usize,
    },
    /// A cold-tier point read or write failed. The point slab stays
    /// consistent; the maintainer degrades typed and retries, exactly
    /// like the ENOSPC ladder above.
    ColdIo {
        /// Which tier operation failed (`"read"`, `"write"`, ...).
        op: &'static str,
        /// What the medium reported.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetExceeded { live_bytes, budget } => {
                write!(
                    f,
                    "disk budget exceeded: {live_bytes} live bytes > {budget}"
                )
            }
            Self::Enospc { detail } => write!(f, "storage full: {detail}"),
            Self::BufferFull { buffered, max } => {
                write!(f, "degraded buffer full: {buffered} records >= cap {max}")
            }
            Self::ColdIo { op, detail } => {
                write!(f, "cold tier {op} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;
    use crate::wal::WalWriter;
    use crate::{Batch, PointId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_records(dim: usize, n: usize, seed: u64) -> Vec<WalRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| WalRecord {
                round_seed: rng.gen(),
                maintain: rng.gen_bool(0.5),
                batch: Batch {
                    deletes: (0..rng.gen_range(0..4))
                        .map(|_| PointId(rng.gen()))
                        .collect(),
                    inserts: (0..rng.gen_range(0..5))
                        .map(|_| {
                            let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-9.0..9.0)).collect();
                            (p, Some(rng.gen_range(0..4)))
                        })
                        .collect(),
                },
            })
            .collect()
    }

    /// Overwrites (or plants) one segment's bytes.
    fn put_segment(medium: &MemMedium, id: SegmentId, bytes: &[u8]) {
        let name = id.file_name();
        medium.remove(&name).unwrap();
        medium.append(&name, bytes).unwrap();
    }

    /// Drives a `WalWriter` over a `SegmentedSink` the way the durable
    /// maintainer does: append, commit, then offer a rotation with the
    /// next absolute sequence number.
    fn write_chain(
        medium: MemMedium,
        budget: u64,
        dim: usize,
        base: u64,
        records: &[WalRecord],
    ) -> WalWriter<SegmentedSink<MemMedium>> {
        let sink = SegmentedSink::fresh(medium, budget).unwrap();
        let mut w = WalWriter::new(sink, dim, base, 1);
        w.commit().unwrap();
        for r in records {
            w.append(r);
            w.commit().unwrap();
            let next = base + w.committed_records();
            w.sink_mut().roll(dim, next).unwrap();
        }
        w
    }

    #[test]
    fn chain_round_trips_across_rotations() {
        let records = sample_records(2, 30, 5);
        let medium = MemMedium::new();
        let w = write_chain(medium.clone(), 256, 2, 7, &records);
        assert!(
            w.sink().segment_count() > 3,
            "tiny budget must force rotations, got {}",
            w.sink().segment_count()
        );
        let chain = read_chain(&medium).unwrap();
        assert_eq!(chain.dim, 2);
        assert_eq!(chain.base, 7);
        assert_eq!(chain.records, records);
        assert!(!chain.torn_tail);
        assert_eq!(chain.segments.len(), w.sink().segment_count());
    }

    #[test]
    fn huge_budget_never_rotates() {
        let records = sample_records(2, 10, 6);
        let medium = MemMedium::new();
        let w = write_chain(medium.clone(), u64::MAX, 2, 0, &records);
        assert_eq!(w.sink().segment_count(), 1);
        let chain = read_chain(&medium).unwrap();
        assert_eq!(chain.records, records);
    }

    #[test]
    fn reclaim_deletes_exactly_the_covered_prefix() {
        let records = sample_records(1, 40, 7);
        let medium = MemMedium::new();
        let mut w = write_chain(medium.clone(), 200, 1, 0, &records);
        let before = w.sink().segment_count();
        assert!(before > 4);
        // A checkpoint covering record 20: everything wholly before it
        // may go; records >= 20 must survive.
        let report = w.sink_mut().reclaim(20, &mut || Ok(())).unwrap();
        assert!(report.segments > 0);
        assert!(report.bytes > 0);
        assert_eq!(w.sink().segment_count(), before - report.segments as usize);
        let chain = read_chain(&medium).unwrap();
        assert!(
            chain.base <= 20,
            "record 20 must survive, base {}",
            chain.base
        );
        assert_eq!(chain.records[..], records[chain.base as usize..]);
        // Reclaiming everything keeps the active segment.
        w.sink_mut().reclaim(u64::MAX, &mut || Ok(())).unwrap();
        assert_eq!(w.sink().segment_count(), 1);
        let chain = read_chain(&medium).unwrap();
        assert_eq!(chain.records[..], records[chain.base as usize..]);
    }

    #[test]
    fn live_bytes_tracks_the_chain_and_shrinks_on_reclaim() {
        let records = sample_records(1, 30, 8);
        let medium = MemMedium::new();
        let mut w = write_chain(medium.clone(), 128, 1, 0, &records);
        let live = w.sink().live_bytes().unwrap();
        assert_eq!(live, medium.total_bytes());
        w.sink_mut().reclaim(u64::MAX, &mut || Ok(())).unwrap();
        let after = w.sink().live_bytes().unwrap();
        assert!(after < live);
        assert_eq!(after, medium.total_bytes());
    }

    #[test]
    fn a_chain_gap_is_a_typed_error() {
        let records = sample_records(1, 30, 9);
        let medium = MemMedium::new();
        let w = write_chain(medium.clone(), 128, 1, 0, &records);
        assert!(w.sink().segment_count() > 3);
        // Delete an interior segment outright.
        let victim = w.sink().sealed[1].id;
        medium.remove(&victim.file_name()).unwrap();
        let err = read_chain(&medium).unwrap_err();
        assert!(
            matches!(err, WalError::ChainGap { expected_seq, .. } if expected_seq == victim.seq),
            "{err}"
        );
    }

    #[test]
    fn interior_bit_damage_is_a_typed_error() {
        let records = sample_records(1, 30, 10);
        let medium = MemMedium::new();
        let w = write_chain(medium.clone(), 128, 1, 0, &records);
        let victim = w.sink().sealed[1].id;
        let mut bytes = medium.read(&victim.file_name()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        put_segment(&medium, victim, &bytes);
        let err = read_chain(&medium).unwrap_err();
        assert!(matches!(err, WalError::CorruptSegment { .. }), "{err}");
    }

    #[test]
    fn interior_truncation_is_corrupt_but_final_truncation_is_torn() {
        let records = sample_records(1, 30, 11);
        let medium = MemMedium::new();
        let w = write_chain(medium.clone(), 128, 1, 0, &records);
        let last_id = w.sink().active_id();
        // Tearing the final segment is the crash rule: fine.
        let full = read_chain(&medium).unwrap();
        let mut bytes = medium.read(&last_id.file_name()).unwrap();
        if bytes.len() > WAL_HEADER_LEN + 3 {
            bytes.truncate(bytes.len() - 3);
            put_segment(&medium, last_id, &bytes);
            let chain = read_chain(&medium).unwrap();
            assert!(chain.torn_tail);
            assert!(chain.records.len() < full.records.len());
        }
        // Tearing an interior segment is damage: typed error.
        let victim = w.sink().sealed[0].id;
        let mut bytes = medium.read(&victim.file_name()).unwrap();
        bytes.truncate(bytes.len() - 3);
        put_segment(&medium, victim, &bytes);
        let err = read_chain(&medium).unwrap_err();
        assert!(
            matches!(err, WalError::CorruptSegment { .. }),
            "expected CorruptSegment, got {err}"
        );
    }

    #[test]
    fn truncate_zero_begins_a_fresh_epoch_and_ignores_leftovers() {
        let records = sample_records(2, 20, 12);
        let medium = MemMedium::new();
        let mut w = write_chain(medium.clone(), 200, 2, 0, &records);
        let old_epoch = w.sink().epoch();
        // The resume path: wipe, then a new writer stamps a new header.
        w.sink_mut().truncate(0).unwrap();
        let sink = w.into_sink();
        let mut w2 = WalWriter::new(sink, 2, 20, 1);
        w2.commit().unwrap();
        let fresh = sample_records(2, 3, 13);
        for r in &fresh {
            w2.append(r);
            w2.commit().unwrap();
        }
        assert_eq!(w2.sink().epoch(), old_epoch + 1);
        let chain = read_chain(&medium).unwrap();
        assert_eq!(chain.epoch, old_epoch + 1);
        assert_eq!(chain.base, 20);
        assert_eq!(chain.records, fresh);
        // Plant a leftover segment from an older epoch: still ignored.
        put_segment(
            &medium,
            SegmentId {
                epoch: old_epoch,
                seq: 0,
            },
            b"garbage from a dead epoch",
        );
        let chain = read_chain(&medium).unwrap();
        assert_eq!(chain.records, fresh);
    }

    #[test]
    fn short_write_repair_works_across_the_segment_header_offset() {
        // A rotated segment's physical layout is offset by the header the
        // sink stamped; the logical truncate must land correctly.
        let records = sample_records(1, 12, 14);
        let medium = MemMedium::new();
        let mut w = write_chain(medium.clone(), 100, 1, 0, &records);
        assert!(
            w.sink().segment_count() > 1,
            "need a rotated active segment"
        );
        let committed = w.committed_len();
        // Simulate a partial append landing past the commit point.
        w.sink_mut().append(b"partial-garbage").unwrap();
        w.sink_mut().truncate(committed).unwrap();
        let chain = read_chain(&medium).unwrap();
        assert_eq!(chain.records, records);
        assert!(!chain.torn_tail);
    }

    #[test]
    fn empty_medium_reads_as_an_empty_chain() {
        let chain = read_chain(&MemMedium::new()).unwrap();
        assert_eq!(chain.records.len(), 0);
        assert_eq!(chain.dim, 0);
        assert!(!chain.torn_tail);
    }

    #[test]
    fn segment_id_file_names_round_trip() {
        let id = SegmentId {
            epoch: 0x1f,
            seq: 0xabcdef,
        };
        assert_eq!(SegmentId::parse(&id.file_name()), Some(id));
        assert_eq!(SegmentId::parse("wal-xyz.idbw"), None);
        assert_eq!(SegmentId::parse("checkpoint-3.idbc"), None);
    }

    #[test]
    fn storage_budget_checks_and_errors_display() {
        assert!(StorageBudget::unbounded().check(u64::MAX).is_ok());
        let b = StorageBudget::bytes(100);
        assert!(b.check(100).is_ok());
        let err = b.check(101).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::BudgetExceeded {
                    live_bytes: 101,
                    budget: 100
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("101"));
        let e = StorageError::Enospc {
            detail: "no space left".into(),
        };
        assert!(e.to_string().contains("storage full"));
        let e = StorageError::BufferFull {
            buffered: 9,
            max: 8,
        };
        assert!(e.to_string().contains("cap 8"));
    }
}
