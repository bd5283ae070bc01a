//! Append-only write-ahead log for crash-consistent maintenance.
//!
//! The paper's maintainer survives arbitrary update streams *in memory*;
//! this module is the durable half of that promise. Every applied batch is
//! first encoded as a CRC32-framed, length-prefixed record and appended to
//! a WAL through an injectable [`DurableSink`], so a crash at any byte
//! loses at most the batches that were never acknowledged as committed.
//! Recovery (in `idb-core`'s `recovery` module) loads the latest valid
//! checkpoint and replays the WAL tail through the bit-deterministic
//! maintenance paths, reaching the exact state an uninterrupted run would
//! have reached.
//!
//! # Layout
//!
//! ```text
//! header:  magic "IDBW" (4) | version u32 | dim u32 | base u64      (20 bytes)
//! record:  payload_len u32 | payload_crc u32 | payload              (repeated)
//! payload: kind u8 | round_seed u64 | maintain u8
//!          | n_deletes u64 | delete ids u32 ×
//!          | n_inserts u64 | lw u8 | tw u8
//!          | (label lw bytes, target tw bytes, coords f64 × dim) ×
//! ```
//!
//! Each insert row carries the bubble the live path assigned the point to
//! (its *target*), so replay attaches it without searching again. The
//! label field holds the stored label plus one, wrapping: a noise label and
//! label `u32::MAX` are both 0, as the point store already aliases them.
//! `lw` and `tw` are the fewest little-endian bytes, 1 to 4, that hold the
//! record's largest label field and largest target; rows keep one length
//! within a record, so a count is checked against the bytes in O(1), and a
//! width outside 1..=4 is damage.
//!
//! `base` is the absolute sequence number of the first record: a restart
//! begins a fresh WAL epoch whose records continue the global batch
//! numbering, so a checkpoint taken in an earlier epoch can never be
//! confused with the tail of a later one.
//!
//! # The torn-tail rule
//!
//! Appends are sequential, so a crash can only shorten the file: the final
//! record may be *torn* (its header or payload cut off, or a zero-filled
//! length from filesystem pre-allocation). [`scan_wal`], the one frame
//! walker (under [`read_wal`] and recovery alike), silently truncates
//! such a tail — those batches were never durable. A record that is fully
//! present but whose checksum fails cannot be produced by a kill; it is
//! bit damage and surfaces as a typed [`WalError::Corrupt`], never a
//! panic. All allocations while decoding are capped by the remaining
//! input, so a hostile length prefix cannot drive the reader out of
//! memory.

use crate::medium::{FsMedium, Medium};
use crate::snapshot::crc32;
use crate::{Batch, PointId};
use idb_obs::{EventKind, Obs};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"IDBW";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 2;
/// Byte length of the WAL file header.
pub const WAL_HEADER_LEN: usize = 20;
const LABEL_NOISE: u32 = u32::MAX;
const RECORD_BATCH: u8 = 0;

/// WAL decoding failure: an I/O error from the underlying medium, or bit
/// damage in a fully-present record (a torn *tail* is not an error — see
/// the module docs).
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A mid-log record (or the header) is structurally damaged.
    Corrupt {
        /// Byte offset of the damaged record's frame.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
    /// A segmented chain is missing an interior segment: the sequence
    /// numbers within the newest epoch are not contiguous. Compaction only
    /// ever removes a *prefix* of the chain, so a hole means a segment was
    /// lost or deleted out from under us — data loss, never silently
    /// tolerated.
    ChainGap {
        /// Epoch of the broken chain.
        epoch: u64,
        /// The sequence number that should exist but does not.
        expected_seq: u64,
    },
    /// A non-final segment of a chain is damaged: torn, checksum-corrupt,
    /// dim-inconsistent, or its record count disagrees with its successor's
    /// base. Only the *final* segment may be torn (the crash rule); damage
    /// anywhere else is bit rot or tampering.
    CorruptSegment {
        /// Epoch of the damaged segment.
        epoch: u64,
        /// Sequence number of the damaged segment within the epoch.
        seq: u64,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Corrupt { offset, detail } => {
                write!(f, "corrupt wal record at byte {offset}: {detail}")
            }
            Self::ChainGap {
                epoch,
                expected_seq,
            } => {
                write!(
                    f,
                    "wal chain gap: epoch {epoch} is missing segment seq {expected_seq}"
                )
            }
            Self::CorruptSegment { epoch, seq, detail } => {
                write!(f, "corrupt wal segment {epoch:08x}-{seq:08x}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Where WAL and checkpoint scratch files go in tests and tools: the
/// `IDB_WAL_DIR` environment variable when set (CI points it at a
/// per-run temp directory so tests stay hermetic), otherwise the system
/// temp directory.
#[must_use]
pub fn scratch_dir() -> PathBuf {
    std::env::var_os("IDB_WAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// The append-only byte stream a [`WalWriter`] commits to.
///
/// Two implementations exist: [`ObjectSink`], one [`Medium`] object (the
/// single-file WAL), and [`crate::SegmentedSink`], a chain of bounded
/// segment objects. Faults (short writes, fsync failures, ENOSPC, kills
/// at any operation) come from the medium underneath.
pub trait DurableSink {
    /// Appends `bytes` at the end of the medium. A failure may leave a
    /// *prefix* of `bytes` written (a short write); the caller repairs
    /// with [`DurableSink::truncate`] before retrying.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Forces everything appended so far onto the durable medium.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn sync(&mut self) -> io::Result<()>;

    /// Cuts the medium back to `len` bytes (repairs a short write before a
    /// retry; never called with a length greater than the current size).
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn truncate(&mut self, len: u64) -> io::Result<()>;

    /// Asks the medium to rotate to a fresh segment whose first record
    /// will carry absolute sequence number `next_base`. Single-extent
    /// media (this default) never rotate and return `Ok(None)`; a
    /// segmented medium seals the active segment once it has reached its
    /// byte budget and reports the rotation. Only ever called at a commit
    /// boundary (no bytes in flight).
    ///
    /// # Errors
    /// Whatever the medium reports. A failed rotation leaves the medium
    /// usable — the caller keeps appending to the over-budget segment.
    fn roll(&mut self, _dim: usize, _next_base: u64) -> io::Result<Option<RollReport>> {
        Ok(None)
    }

    /// Asks the medium to reclaim storage wholly covered by a checkpoint:
    /// every sealed segment whose records all have absolute sequence
    /// numbers below `covered_seq` may be deleted — but only after
    /// `make_covering_durable` (which syncs that checkpoint) succeeded, so
    /// a crash can never find the records gone and their checkpoint
    /// missing. Single-extent media reclaim nothing and never call it.
    ///
    /// # Errors
    /// Whatever the medium or `make_covering_durable` reports.
    fn reclaim(
        &mut self,
        _covered_seq: u64,
        _make_covering_durable: &mut dyn FnMut() -> io::Result<()>,
    ) -> io::Result<ReclaimReport> {
        Ok(ReclaimReport::default())
    }

    /// Live bytes currently held by the medium, when it can tell
    /// (segmented media can; plain sinks return `None`, making a disk
    /// budget unenforceable rather than silently wrong).
    fn live_bytes(&self) -> Option<u64> {
        None
    }
}

/// What a successful [`DurableSink::roll`] rotation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollReport {
    /// Bytes in the segment that was just sealed.
    pub sealed_bytes: u64,
    /// Epoch of the new active segment.
    pub new_epoch: u64,
    /// Sequence number of the new active segment within its epoch.
    pub new_seq: u64,
}

/// What a [`DurableSink::reclaim`] compaction freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReclaimReport {
    /// Sealed segments deleted.
    pub segments: u64,
    /// Bytes those segments held.
    pub bytes: u64,
}

/// A [`DurableSink`] over one [`Medium`] object: the single-file WAL.
///
/// [`FileSink::create`] puts it on a file; over a
/// [`MemMedium`](crate::MemMedium) it is the
/// reference the crash suites slice at arbitrary byte positions.
#[derive(Debug, Clone)]
pub struct ObjectSink<M: Medium> {
    medium: M,
    name: String,
}

/// The single-file WAL on the filesystem.
pub type FileSink = ObjectSink<FsMedium>;

impl<M: Medium> ObjectSink<M> {
    /// Appends to object `name` of `medium`.
    pub fn new(medium: M, name: impl Into<String>) -> Self {
        Self {
            medium,
            name: name.into(),
        }
    }

    /// The medium underneath (fault plans, snapshots).
    #[must_use]
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Everything appended so far — what a recovery would find (empty
    /// before the first append).
    ///
    /// # Panics
    /// Panics when the medium refuses the read (an injected read outage);
    /// this is an inspection helper, not a data path.
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        match self.medium.read(&self.name) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => panic!("wal object {:?} unreadable: {e}", self.name),
        }
    }
}

impl FileSink {
    /// Creates (or truncates) the WAL file at `path`.
    ///
    /// # Errors
    /// Whatever the filesystem reports.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(FsMedium::create(path)?, ""))
    }
}

impl<M: Medium> DurableSink for ObjectSink<M> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.medium.append(&self.name, bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.medium.sync(&self.name)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.medium.truncate(&self.name, len)
    }
}

/// One durable unit of work: the applied batch, whether a maintenance
/// round followed it, and the seed that round's RNG was (re)started from —
/// everything replay needs to reproduce the exact post-batch state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalRecord {
    /// Seed of the maintenance round's RNG; recovery replays the round
    /// with `StdRng::seed_from_u64(round_seed)`, which is also exactly how
    /// the live path runs it.
    pub round_seed: u64,
    /// The maintenance trigger decision: whether a merge/split round ran
    /// after this batch.
    pub maintain: bool,
    /// The applied updates.
    pub batch: Batch,
    /// The bubble each insert was assigned to, in insert order: one per
    /// insert of `batch`, what replay attaches the point to.
    pub targets: Vec<u32>,
}

/// Encodes the 20-byte WAL file header.
#[must_use]
pub fn wal_header(dim: usize, base: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&(dim as u32).to_le_bytes());
    h[12..20].copy_from_slice(&base.to_le_bytes());
    h
}

/// The fewest little-endian bytes, 1 to 4, that hold `max`.
fn width(max: u32) -> usize {
    (4 - max.leading_zeros() as usize / 8).max(1)
}

/// An insert's label field: the stored label plus one, wrapping, so noise
/// (and label `u32::MAX`, which the store aliases with it) is 0.
fn label_field(label: Option<u32>) -> u32 {
    label.unwrap_or(LABEL_NOISE).wrapping_add(1)
}

/// Appends one framed record (length prefix, checksum, payload) to `out`,
/// encoded once from borrowed parts: the payload is written in place and
/// its length and checksum are filled in after it.
///
/// # Panics
/// Panics if an insert's dimensionality differs from `dim`, or if
/// `targets` does not hold one target per insert — the caller validates
/// and assigns the batch before logging it.
fn encode_frame(
    out: &mut Vec<u8>,
    dim: usize,
    round_seed: u64,
    maintain: bool,
    batch: &Batch,
    targets: &[u32],
) {
    assert_eq!(targets.len(), batch.inserts.len(), "one target per insert");
    let mut max_label = 0;
    for (coords, label) in &batch.inserts {
        assert_eq!(coords.len(), dim, "insert dimensionality mismatch");
        max_label = max_label.max(label_field(*label));
    }
    let lw = width(max_label);
    let tw = width(targets.iter().copied().max().unwrap_or(0));
    let start = out.len();
    out.reserve(8 + 20 + batch.deletes.len() * 4 + batch.inserts.len() * (lw + tw + 8 * dim));
    out.extend_from_slice(&[0; 8]);
    out.push(RECORD_BATCH);
    out.extend_from_slice(&round_seed.to_le_bytes());
    out.push(u8::from(maintain));
    out.extend_from_slice(&(batch.deletes.len() as u64).to_le_bytes());
    for id in &batch.deletes {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
    out.extend_from_slice(&(batch.inserts.len() as u64).to_le_bytes());
    out.extend_from_slice(&[lw as u8, tw as u8]);
    for ((coords, label), target) in batch.inserts.iter().zip(targets) {
        out.extend_from_slice(&label_field(*label).to_le_bytes()[..lw]);
        out.extend_from_slice(&target.to_le_bytes()[..tw]);
        for &x in coords {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    let payload = &out[start + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one record (length prefix, checksum, payload).
///
/// # Panics
/// As [`WalWriter::append_parts`].
#[must_use]
pub fn encode_record(dim: usize, rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(
        &mut out,
        dim,
        rec.round_seed,
        rec.maintain,
        &rec.batch,
        &rec.targets,
    );
    out
}

/// Cursor over a record payload; every read is bounds-checked against the
/// remaining input, so hostile counts produce typed errors instead of
/// over-allocation or panics.
struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() - self.pos < n {
            return Err(format!(
                "record payload exhausted ({} bytes left, {n} needed)",
                self.data.len() - self.pos
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// One verified record, left in the log's bytes: its checksum matched and
/// its payload parsed, and its delete ids and insert rows are slices of
/// the payload, decoded only by [`WalScan::decode_into`].
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    round_seed: u64,
    maintain: bool,
    /// `n_deletes` little-endian `u32` ids.
    deletes: &'a [u8],
    /// Byte widths of the label and target fields, each in 1..=4.
    widths: (usize, usize),
    /// `n_inserts` rows of `label | target | coords f64 × dim`.
    inserts: &'a [u8],
    /// Byte offset just past the frame in the stream it was read from.
    end: usize,
}

/// Parses a record payload's structure — its kind, maintain flag and
/// counts against the bytes that back them — without decoding its
/// elements. The one parse of a payload: a [`Frame`] it accepts decodes
/// without further checks.
fn parse_payload(dim: usize, payload: &[u8], end: usize) -> Result<Frame<'_>, String> {
    let mut cur = Cur {
        data: payload,
        pos: 0,
    };
    let kind = cur.u8()?;
    if kind != RECORD_BATCH {
        return Err(format!("unknown record kind {kind}"));
    }
    let round_seed = cur.u64()?;
    let maintain = match cur.u8()? {
        0 => false,
        1 => true,
        other => return Err(format!("invalid maintain flag {other}")),
    };
    let n_del = cur.u64()? as usize;
    if n_del > cur.remaining() / 4 {
        return Err(format!("delete count {n_del} exceeds the record"));
    }
    let deletes = cur.take(n_del * 4)?;
    let n_ins = cur.u64()? as usize;
    let widths = (usize::from(cur.u8()?), usize::from(cur.u8()?));
    for (field, w) in [("label", widths.0), ("target", widths.1)] {
        if !(1..=4).contains(&w) {
            return Err(format!("invalid {field} width {w}"));
        }
    }
    let row = widths.0 + widths.1 + 8 * dim;
    if n_ins > cur.remaining() / row {
        return Err(format!("insert count {n_ins} exceeds the record"));
    }
    let inserts = cur.take(n_ins * row)?;
    if cur.remaining() != 0 {
        return Err(format!("{} trailing bytes in record", cur.remaining()));
    }
    Ok(Frame {
        round_seed,
        maintain,
        deletes,
        widths,
        inserts,
        end,
    })
}

/// A little-endian unsigned integer of 1 to 4 bytes.
fn le_uint(bytes: &[u8]) -> u32 {
    let mut b = [0; 4];
    b[..bytes.len()].copy_from_slice(bytes);
    u32::from_le_bytes(b)
}

/// The decoded contents of a WAL byte stream.
#[derive(Debug)]
pub struct WalContents {
    /// Dimensionality recorded in the header (0 when the header itself was
    /// torn — an empty log).
    pub dim: usize,
    /// Absolute sequence number of the first record (the WAL epoch base).
    pub base: u64,
    /// Every fully-committed record, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past each record (crash-point enumeration).
    pub ends: Vec<usize>,
    /// Length of the valid prefix; everything past it is a torn tail.
    pub valid_len: usize,
    /// Whether a torn tail was dropped.
    pub torn_tail: bool,
}

/// A WAL whose every record has been verified — header, frame checksums
/// and payload structure, under the torn-tail rule — but not decoded:
/// the records stay in the bytes the scan borrows, and
/// [`WalScan::decode_into`] decodes one on demand. [`scan_wal`] scans one
/// stream; [`ChainBytes::scan`](crate::segment::ChainBytes::scan) scans a
/// segment chain into the same type.
#[derive(Debug, Default)]
pub struct WalScan<'a> {
    /// Dimensionality recorded in the header (0 when the header itself was
    /// torn — an empty log).
    pub dim: usize,
    /// Absolute sequence number of the first record (the WAL epoch base).
    pub base: u64,
    frames: Vec<Frame<'a>>,
    /// Whether a torn tail was dropped.
    pub torn_tail: bool,
}

impl<'a> WalScan<'a> {
    /// Records in the log.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the log holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The absolute sequence number just past the last record.
    #[must_use]
    pub fn end_seq(&self) -> u64 {
        self.base + self.frames.len() as u64
    }

    /// Decodes record `i` (in log order) into `rec`, reusing its buffers:
    /// the delete list and every insert's coordinate vector keep their
    /// capacity from one record to the next.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn decode_into(&self, i: usize, rec: &mut WalRecord) {
        let frame = &self.frames[i];
        rec.round_seed = frame.round_seed;
        rec.maintain = frame.maintain;
        let batch = &mut rec.batch;
        batch.deletes.clear();
        batch.deletes.extend(
            frame
                .deletes
                .chunks_exact(4)
                .map(|b| PointId(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))),
        );
        let (lw, tw) = frame.widths;
        let rows = frame.inserts.chunks_exact(lw + tw + 8 * self.dim);
        batch.inserts.truncate(rows.len());
        rec.targets.clear();
        for (k, row) in rows.enumerate() {
            let label = le_uint(&row[..lw]).checked_sub(1);
            rec.targets.push(le_uint(&row[lw..lw + tw]));
            let coords = row[lw + tw..]
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")));
            match batch.inserts.get_mut(k) {
                Some((c, l)) => {
                    c.clear();
                    c.extend(coords);
                    *l = label;
                }
                None => batch.inserts.push((coords.collect(), label)),
            }
        }
    }

    /// Decodes every record.
    #[must_use]
    pub fn decode(&self) -> WalContents {
        let records = (0..self.len())
            .map(|i| {
                let mut rec = WalRecord::default();
                self.decode_into(i, &mut rec);
                rec
            })
            .collect();
        // The valid prefix ends with the last record, or with the header
        // when there is none (nothing at all when the header was torn).
        let header = if self.dim == 0 { 0 } else { WAL_HEADER_LEN };
        WalContents {
            dim: self.dim,
            base: self.base,
            records,
            ends: self.frames.iter().map(|f| f.end).collect(),
            valid_len: self.frames.last().map_or(header, |f| f.end),
            torn_tail: self.torn_tail,
        }
    }

    /// Appends `next`'s records after this scan's and takes its torn-tail
    /// flag: the merge of a chain's segments, which the caller has checked
    /// hand over at `next.base`.
    pub(crate) fn extend(&mut self, next: WalScan<'a>) {
        self.frames.extend(next.frames);
        self.torn_tail = next.torn_tail;
    }
}

/// Walks a WAL byte stream and verifies every record without decoding
/// it: the header, each frame's checksum and each payload's structure,
/// truncating a torn final record (see the module docs for the rule) and
/// rejecting mid-log damage.
///
/// # Errors
/// [`WalError::Corrupt`] when the header is fully present but invalid, a
/// fully-present record fails its checksum, or a record's payload is
/// structurally impossible. Never panics, and never allocates more than
/// the input's own size.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan<'_>, WalError> {
    if bytes.len() < WAL_HEADER_LEN {
        // A crash during the very first commit: nothing was durable.
        return Ok(WalScan {
            dim: 0,
            base: 0,
            frames: Vec::new(),
            torn_tail: !bytes.is_empty(),
        });
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            detail: "bad magic".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
    if version != WAL_VERSION {
        return Err(WalError::Corrupt {
            offset: 4,
            detail: format!("unsupported version {version}"),
        });
    }
    let dim = u32::from_le_bytes(bytes[8..12].try_into().expect("4")) as usize;
    if dim == 0 || dim > 1 << 20 {
        return Err(WalError::Corrupt {
            offset: 8,
            detail: format!("implausible dim {dim}"),
        });
    }
    let base = u64::from_le_bytes(bytes[12..20].try_into().expect("8"));

    let mut frames = Vec::new();
    let mut o = WAL_HEADER_LEN;
    let mut torn = false;
    while o < bytes.len() {
        let rem = bytes.len() - o;
        if rem < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[o + 4..o + 8].try_into().expect("4"));
        if len == 0 && crc == 0 {
            // Zero-filled tail (filesystem pre-allocation): torn.
            torn = true;
            break;
        }
        if len > rem - 8 {
            // The record extends past the end of the log: torn.
            torn = true;
            break;
        }
        let payload = &bytes[o + 8..o + 8 + len];
        if crc32(payload) != crc {
            return Err(WalError::Corrupt {
                offset: o,
                detail: "record checksum mismatch".into(),
            });
        }
        let frame = parse_payload(dim, payload, o + 8 + len)
            .map_err(|detail| WalError::Corrupt { offset: o, detail })?;
        o = frame.end;
        frames.push(frame);
    }
    Ok(WalScan {
        dim,
        base,
        frames,
        torn_tail: torn,
    })
}

/// Decodes a WAL byte stream: [`scan_wal`], then every record.
///
/// # Errors
/// As [`scan_wal`].
pub fn read_wal(bytes: &[u8]) -> Result<WalContents, WalError> {
    Ok(scan_wal(bytes)?.decode())
}

/// Group-committing WAL appender over a [`DurableSink`].
///
/// Records are buffered in memory and pushed to the sink — append then
/// sync — when the group fills or [`WalWriter::commit`] is called. A
/// failed commit leaves the buffer intact and marks the sink *dirty*: the
/// next commit first truncates the medium back to the last durable length
/// (repairing any short write), then re-appends the whole buffer. A batch
/// therefore is either fully durable or not durable at all — the torn-tail
/// rule covers the window in between.
#[derive(Debug)]
pub struct WalWriter<S: DurableSink> {
    sink: S,
    dim: usize,
    pending: Vec<u8>,
    pending_records: usize,
    group_commit: usize,
    committed_len: u64,
    committed_records: u64,
    dirty: bool,
    obs: Obs,
}

impl<S: DurableSink> WalWriter<S> {
    /// Starts a fresh WAL epoch: the header (with `base`) is buffered and
    /// becomes durable with the first commit.
    pub fn new(sink: S, dim: usize, base: u64, group_commit: usize) -> Self {
        let mut pending = Vec::with_capacity(WAL_HEADER_LEN + 64);
        pending.extend_from_slice(&wal_header(dim, base));
        Self {
            sink,
            dim,
            pending,
            pending_records: 0,
            group_commit: group_commit.max(1),
            committed_len: 0,
            committed_records: 0,
            dirty: false,
            obs: Obs::disabled(),
        }
    }

    /// Installs the observability handle the writer journals WAL traffic
    /// through (events `wal_append` / `wal_commit` / `wal_truncate`,
    /// counters `wal.appended_bytes` / `wal.fsyncs`, histograms
    /// `wal.commit_us` / `wal.group_records`).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Buffers one record (never touches the sink).
    ///
    /// # Panics
    /// As [`WalWriter::append_parts`].
    pub fn append(&mut self, rec: &WalRecord) {
        self.append_parts(rec.round_seed, rec.maintain, &rec.batch, &rec.targets);
    }

    /// Buffers the record of `batch`, its maintenance decision and its
    /// inserts' `targets`, encoded once straight into the group buffer
    /// (never touches the sink).
    ///
    /// # Panics
    /// Panics if an insert's dimensionality differs from the log's, or if
    /// `targets` does not hold one target per insert — the caller validates
    /// and assigns the batch before logging it.
    pub fn append_parts(
        &mut self,
        round_seed: u64,
        maintain: bool,
        batch: &Batch,
        targets: &[u32],
    ) {
        let start = self.pending.len();
        encode_frame(
            &mut self.pending,
            self.dim,
            round_seed,
            maintain,
            batch,
            targets,
        );
        self.obs.emit(
            EventKind::WalAppend {
                bytes: (self.pending.len() - start) as u64,
                records: 1,
            },
            0,
        );
        self.pending_records += 1;
    }

    /// `true` when the buffered group is full and should be committed.
    #[must_use]
    pub fn wants_commit(&self) -> bool {
        self.pending_records >= self.group_commit
    }

    /// Records buffered but not yet durable.
    #[must_use]
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Records committed to the sink in this epoch.
    #[must_use]
    pub fn committed_records(&self) -> u64 {
        self.committed_records
    }

    /// Bytes known durable on the sink.
    #[must_use]
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Pushes the whole buffer to the sink (append + sync). On failure the
    /// buffer is kept and the sink is marked dirty; the next attempt
    /// repairs with a truncate before re-appending.
    ///
    /// # Errors
    /// Whatever the sink reports; the writer stays usable.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let timer = self.obs.start();
        if self.dirty {
            self.sink.truncate(self.committed_len)?;
            self.obs.emit(
                EventKind::WalTruncate {
                    len: self.committed_len,
                },
                0,
            );
            self.dirty = false;
        }
        if let Err(e) = self.sink.append(&self.pending) {
            self.dirty = true;
            return Err(e);
        }
        if let Err(e) = self.sink.sync() {
            self.dirty = true;
            return Err(e);
        }
        let bytes = self.pending.len() as u64;
        let records = self.pending_records as u32;
        self.committed_len += bytes;
        self.committed_records += self.pending_records as u64;
        self.pending.clear();
        self.pending_records = 0;
        // A header-only flush (epoch bookkeeping at writer start) is not a
        // record group; the journal invariant "every wal_commit flushes at
        // least one record" holds by construction.
        if records > 0 {
            self.obs
                .emit(EventKind::WalCommit { bytes, records }, timer.us());
            if self.obs.metrics_on() {
                let m = self.obs.metrics();
                m.counter("wal.appended_bytes").add(bytes);
                m.counter("wal.fsyncs").inc();
                m.histogram("wal.commit_us").record(timer.us());
                m.histogram("wal.group_records").record(u64::from(records));
            }
        }
        Ok(())
    }

    /// The underlying sink.
    #[must_use]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The underlying sink, mutably (fault toggling in tests).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the writer, returning the sink.
    #[must_use]
    pub fn into_sink(self) -> S {
        self.sink
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_records(dim: usize, n: usize, seed: u64) -> Vec<WalRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut rec = WalRecord {
                    round_seed: rng.gen(),
                    maintain: rng.gen_bool(0.7),
                    batch: Batch {
                        deletes: (0..rng.gen_range(0..5))
                            .map(|_| PointId(rng.gen()))
                            .collect(),
                        inserts: (0..rng.gen_range(0..6))
                            .map(|_| {
                                let p: Vec<f64> =
                                    (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
                                let label = if rng.gen_bool(0.3) {
                                    None
                                } else {
                                    Some(rng.gen_range(0..9))
                                };
                                (p, label)
                            })
                            .collect(),
                    },
                    targets: Vec::new(),
                };
                rec.targets = (0..rec.batch.inserts.len())
                    .map(|_| rng.gen_range(0..300))
                    .collect();
                rec
            })
            .collect()
    }

    fn mem_sink() -> ObjectSink<MemMedium> {
        ObjectSink::new(MemMedium::new(), "wal")
    }

    fn write_log(dim: usize, base: u64, records: &[WalRecord]) -> Vec<u8> {
        let mut w = WalWriter::new(mem_sink(), dim, base, 1);
        for r in records {
            w.append(r);
            w.commit().unwrap();
        }
        w.into_sink().bytes()
    }

    #[test]
    fn round_trip_preserves_every_record() {
        let records = sample_records(3, 12, 7);
        let bytes = write_log(3, 5, &records);
        let contents = read_wal(&bytes).unwrap();
        assert_eq!(contents.dim, 3);
        assert_eq!(contents.base, 5);
        assert_eq!(contents.records, records);
        assert!(!contents.torn_tail);
        assert_eq!(contents.valid_len, bytes.len());
        assert_eq!(contents.ends.len(), records.len());
    }

    #[test]
    fn every_truncation_point_is_a_clean_torn_tail() {
        let records = sample_records(2, 6, 9);
        let bytes = write_log(2, 0, &records);
        let full = read_wal(&bytes).unwrap();
        for cut in 0..bytes.len() {
            let contents = read_wal(&bytes[..cut]).unwrap();
            // Records are exactly those whose end fits inside the cut.
            let expect = full.ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(contents.records.len(), expect, "cut at {cut}");
            assert_eq!(contents.records[..], records[..expect], "cut at {cut}");
            if cut < bytes.len() {
                // Unless the cut lands exactly on a record boundary (or
                // wipes the whole header), something was torn.
                let on_boundary = full.ends.contains(&cut) || cut == WAL_HEADER_LEN || cut == 0;
                assert_eq!(contents.torn_tail, !on_boundary, "cut at {cut}");
            }
        }
    }

    #[test]
    fn mid_log_bit_damage_is_a_typed_error() {
        let records = sample_records(2, 8, 11);
        let bytes = write_log(2, 0, &records);
        // Flip a byte inside the third record's payload.
        let contents = read_wal(&bytes).unwrap();
        let start = contents.ends[1];
        let mut damaged = bytes.clone();
        damaged[start + 10] ^= 0x40;
        let err = read_wal(&damaged).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn zero_filled_tail_is_torn_not_corrupt() {
        let records = sample_records(1, 3, 13);
        let mut bytes = write_log(1, 0, &records);
        bytes.extend_from_slice(&[0u8; 64]);
        let contents = read_wal(&bytes).unwrap();
        assert_eq!(contents.records.len(), 3);
        assert!(contents.torn_tail);
    }

    #[test]
    fn hostile_counts_inside_a_record_are_rejected_without_overallocation() {
        // Hand-craft a payload claiming 2^60 deletes with a valid CRC: the
        // checksum passes, the structural check must catch it.
        let mut p = Vec::new();
        p.push(RECORD_BATCH);
        p.extend_from_slice(&7u64.to_le_bytes());
        p.push(1);
        p.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let mut bytes = wal_header(2, 0).to_vec();
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&p).to_le_bytes());
        bytes.extend_from_slice(&p);
        let err = read_wal(&bytes).unwrap_err();
        assert!(err.to_string().contains("delete count"), "{err}");
    }

    #[test]
    fn label_and_target_fields_take_the_fewest_bytes_that_hold_them() {
        let log = |labels: &[Option<u32>], targets: &[u32]| {
            let rec = WalRecord {
                round_seed: 3,
                maintain: true,
                batch: Batch {
                    deletes: vec![PointId(9)],
                    inserts: labels.iter().map(|&l| (vec![1.5, -1.5], l)).collect(),
                },
                targets: targets.to_vec(),
            };
            let mut bytes = wal_header(2, 0).to_vec();
            bytes.extend_from_slice(&encode_record(2, &rec));
            (rec, bytes)
        };
        // Past the header: frame 8 | kind 1 | seed 8 | maintain 1 |
        // deletes 8 + 4 | inserts 8, then the widths.
        let at = WAL_HEADER_LEN + 38;
        for (labels, targets, widths) in [
            (vec![None, Some(0), Some(254)], vec![0, 7, 255], [1, 1]),
            (vec![Some(255), None], vec![256, 65_535], [2, 2]),
            (vec![Some(65_535)], vec![1 << 16], [3, 3]),
            (vec![Some(u32::MAX - 1)], vec![u32::MAX], [4, 4]),
            (vec![], vec![], [1, 1]),
        ] {
            let (rec, mut bytes) = log(&labels, &targets);
            assert_eq!(bytes[at..at + 2], widths, "{labels:?} {targets:?}");
            let row = usize::from(widths[0] + widths[1]) + 16;
            assert_eq!(bytes.len(), at + 2 + labels.len() * row);
            assert_eq!(read_wal(&bytes).unwrap().records, [rec]);
            // A width outside 1..=4 under a valid checksum is damage.
            for (field, k, w) in [("label", 0, 0), ("target", 1, 5)] {
                bytes[at + k] = w;
                let crc = crc32(&bytes[WAL_HEADER_LEN + 8..]);
                bytes[WAL_HEADER_LEN + 4..WAL_HEADER_LEN + 8].copy_from_slice(&crc.to_le_bytes());
                let err = read_wal(&bytes).unwrap_err().to_string();
                assert!(
                    err.ends_with(&format!("invalid {field} width {w}")),
                    "{err}"
                );
                bytes[at + k] = widths[k];
            }
        }
        // Label `u32::MAX` shares noise's field, as the store aliases them.
        let (_, bytes) = log(&[Some(u32::MAX)], &[1]);
        assert_eq!(
            read_wal(&bytes).unwrap().records[0].batch.inserts[0].1,
            None
        );
    }

    #[test]
    fn bad_header_magic_is_corrupt_but_short_header_is_torn() {
        let mut bytes = wal_header(2, 0).to_vec();
        bytes[0] = b'X';
        assert!(read_wal(&bytes).is_err());
        // Fewer bytes than a header: a crash before the first commit.
        let contents = read_wal(&bytes[..7]).unwrap();
        assert!(contents.records.is_empty());
        assert!(contents.torn_tail);
        assert_eq!(read_wal(&[]).unwrap().valid_len, 0);
    }

    #[test]
    fn group_commit_buffers_until_the_group_fills() {
        let records = sample_records(2, 5, 17);
        let mut w = WalWriter::new(mem_sink(), 2, 0, 3);
        w.append(&records[0]);
        w.append(&records[1]);
        assert!(!w.wants_commit());
        assert_eq!(w.sink().bytes().len(), 0, "nothing durable yet");
        w.append(&records[2]);
        assert!(w.wants_commit());
        w.commit().unwrap();
        assert_eq!(w.committed_records(), 3);
        let mid = read_wal(&w.sink().bytes()).unwrap();
        assert_eq!(mid.records[..], records[..3]);
        // Explicit commit flushes a partial group.
        w.append(&records[3]);
        w.commit().unwrap();
        assert_eq!(w.committed_records(), 4);
    }

    #[test]
    fn wal_writer_journals_appends_and_commits() {
        use idb_obs::RingRecorder;
        use std::sync::Arc;
        let records = sample_records(2, 3, 23);
        let ring = Arc::new(RingRecorder::new());
        let mut w = WalWriter::new(mem_sink(), 2, 0, 2);
        w.set_obs(Obs::with_recorder(ring.clone()));
        w.append(&records[0]);
        w.append(&records[1]);
        w.commit().unwrap();
        w.append(&records[2]);
        w.commit().unwrap();
        let kinds: Vec<&'static str> = ring.events().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            kinds,
            vec![
                "wal_append",
                "wal_append",
                "wal_commit",
                "wal_append",
                "wal_commit"
            ]
        );
        match ring.events()[2].kind {
            EventKind::WalCommit { bytes, records } => {
                assert_eq!(records, 2);
                assert!(bytes > WAL_HEADER_LEN as u64, "header + two records");
            }
            ref other => panic!("expected WalCommit, got {other:?}"),
        }
        let m = w.obs.metrics();
        assert_eq!(m.counter("wal.fsyncs").get(), 2);
        assert!(m.counter("wal.appended_bytes").get() > 0);
        assert_eq!(m.histogram("wal.group_records").count(), 2);
    }

    /// A sink whose next appends fail after writing only a prefix — the
    /// short-write repair path must truncate and rewrite.
    struct ShortWriteSink {
        inner: ObjectSink<MemMedium>,
        fail_after: Option<usize>,
    }

    impl DurableSink for ShortWriteSink {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            if let Some(keep) = self.fail_after.take() {
                let keep = keep.min(bytes.len());
                self.inner.append(&bytes[..keep])?;
                return Err(io::Error::other("injected short write"));
            }
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.inner.truncate(len)
        }
    }

    #[test]
    fn failed_commit_repairs_the_short_write_on_retry() {
        use idb_obs::RingRecorder;
        use std::sync::Arc;
        let records = sample_records(2, 2, 19);
        let sink = ShortWriteSink {
            inner: mem_sink(),
            fail_after: None,
        };
        let ring = Arc::new(RingRecorder::new());
        let mut w = WalWriter::new(sink, 2, 0, 1);
        w.set_obs(Obs::with_recorder(ring.clone()));
        w.append(&records[0]);
        w.commit().unwrap();
        // Second commit short-writes 5 bytes, then fails.
        w.sink_mut().fail_after = Some(5);
        w.append(&records[1]);
        assert!(w.commit().is_err());
        // The medium now holds record 0 plus 5 garbage-prefix bytes; a
        // recovery here sees a torn tail.
        let mid = read_wal(&w.sink().inner.bytes()).unwrap();
        assert_eq!(mid.records.len(), 1);
        assert!(mid.torn_tail);
        // The retry truncates the partial bytes and lands the record.
        w.commit().unwrap();
        let done = read_wal(&w.sink().inner.bytes()).unwrap();
        assert_eq!(done.records[..], records[..2]);
        assert!(!done.torn_tail);
        // The repair truncation was journaled before the successful commit.
        let tags: Vec<&'static str> = ring.events().iter().map(|e| e.kind.tag()).collect();
        assert!(
            tags.contains(&"wal_truncate"),
            "expected a wal_truncate event, got {tags:?}"
        );
    }
}
