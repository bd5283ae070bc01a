//! Crash-consistent durability: checkpoints, WAL replay, and a durable
//! maintainer wrapper.
//!
//! The paper's maintenance scheme is deliberately deterministic: given the
//! same batch stream, the same RNG seeds and the same engine, every run
//! produces bit-identical bubbles (DESIGN.md §9–10). This module turns
//! that determinism into crash consistency. The write-ahead log
//! ([`idb_store::wal`]) records each applied batch together with its
//! maintenance decision, its RNG seed and the bubble each insert was
//! assigned to; periodic checkpoints capture the store + summarization
//! state in checksummed snapshot frames; and [`recover`] rebuilds the
//! exact in-memory state by loading the newest usable checkpoint and
//! replaying the WAL tail: each batch is validated and staged as live,
//! its inserts are attached to their logged bubbles without a search, and
//! each maintenance round runs the very same code the live path runs.
//!
//! A checkpoint is either *full* (the store and bubble snapshots) or a
//! *delta* against the newest full base: the bubble records of the slots
//! [`IncrementalBubbles`] flagged as changed since that base, plus the
//! WAL span that rolls the base's store forward. The record layout and
//! the splice of a delta's records over its base belong to
//! [`crate::snapshot`]; this module only frames checkpoints and decides
//! which kind to take. It has one writer and one reader: every checkpoint
//! — interval, baseline, resume anchor or disk-budget rebase — is encoded
//! in one place and streamed by one pump, and recovery reads each
//! candidate's frame once.
//!
//! A torn WAL tail (the crash happened mid-commit) is truncated, not an
//! error: those batches were never acknowledged as durable. Everything
//! else that can go wrong — bit damage in a mid-log record, a checkpoint
//! that fails its checksum, a replay that does not apply — surfaces as a
//! typed [`RecoveryError`], never a panic.
//!
//! [`DurableMaintainer`] is the live-side wrapper: validate → log → apply,
//! with group-commit batching, bounded retry-with-backoff on transient
//! sink errors, and graceful degradation (keep running in memory,
//! surface [`Health::Degraded`]) when the sink is persistently down.

use crate::config::MaintainerConfig;
use crate::error::UpdateError;
use crate::incremental::IncrementalBubbles;
use crate::snapshot::{read_dirty_records, DirtyRecords};
use idb_geometry::SearchStats;
use idb_obs::{EventKind, Obs};
use idb_store::segment::load_chain;
use idb_store::snapshot::{read_frame, read_u64, write_frame, write_u64, SnapshotError};
use idb_store::wal::{scan_wal, DurableSink, WalError, WalRecord, WalScan, WalWriter};
use idb_store::{Batch, FsMedium, Medium, PointId, PointStore, StorageBudget, StorageError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io;
use std::time::Duration;

/// Magic prefix of a full checkpoint blob.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"IDBC";

/// Magic prefix of an incremental (delta) checkpoint blob: only the
/// bubbles dirtied since the newest full base are persisted; the store
/// contents are reconstructed by replaying the WAL from the base's
/// coverage.
pub const DELTA_CHECKPOINT_MAGIC: &[u8; 4] = b"IDBD";

/// Recovery failure. Torn WAL tails are *not* errors (they are truncated
/// silently, per the WAL module docs); everything here is real damage or
/// a real I/O fault.
#[derive(Debug)]
pub enum RecoveryError {
    /// Underlying I/O failure while reading or writing durable state.
    Io(io::Error),
    /// The WAL contains a structurally damaged record before its tail.
    CorruptWal {
        /// Byte offset of the damaged record.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
    /// No checkpoint could be loaded, decoded and aligned with the WAL.
    NoUsableCheckpoint {
        /// How many checkpoints were tried.
        tried: usize,
        /// Why the last candidate was rejected.
        detail: String,
    },
    /// A WAL record did not apply cleanly on top of the checkpoint state —
    /// the log and the checkpoint disagree about history.
    Replay {
        /// Absolute sequence number of the failing record.
        record: u64,
        /// The validation error the apply path reported.
        source: UpdateError,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "recovery i/o error: {e}"),
            Self::CorruptWal { offset, detail } => {
                write!(f, "corrupt wal record at byte {offset}: {detail}")
            }
            Self::NoUsableCheckpoint { tried, detail } => {
                write!(f, "no usable checkpoint ({tried} tried): {detail}")
            }
            Self::Replay { record, source } => {
                write!(f, "wal record {record} does not replay: {source}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Replay { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The name of checkpoint `seq`'s blob on its medium.
#[must_use]
pub fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq}.idbc")
}

/// The staging name of checkpoint `seq` while it streams out.
fn staging_name(seq: u64) -> String {
    format!(".checkpoint-{seq}.tmp")
}

/// Checkpoint blobs on a [`Medium`]: one `checkpoint-<seq>.idbc` object
/// per checkpoint, staged as `.checkpoint-<seq>.tmp` and published by
/// rename, so a kill mid-write never leaves a half-written blob under the
/// final name. Implemented once, for every medium.
pub trait CheckpointStore {
    /// Persists the blob for checkpoint `seq` in one go (stage, publish),
    /// replacing any previous blob with the same sequence number.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn save(&self, seq: u64, bytes: &[u8]) -> io::Result<()>;

    /// The sequence numbers of every stored checkpoint, in any order.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn seqs(&self) -> io::Result<Vec<u64>>;

    /// Loads the blob for checkpoint `seq`.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn load(&self, seq: u64) -> io::Result<Vec<u8>>;

    /// Opens a streaming save of checkpoint `seq`, discarding any
    /// abandoned stream for the same sequence. Until
    /// [`CheckpointStore::finish_stream`] returns, the checkpoint is not
    /// visible to [`CheckpointStore::seqs`] / [`CheckpointStore::load`].
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn begin_stream(&self, seq: u64) -> io::Result<()>;

    /// Appends one chunk to the open stream for `seq`.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn stream_chunk(&self, seq: u64, chunk: &[u8]) -> io::Result<()>;

    /// Atomically publishes the staged stream for `seq` as the
    /// checkpoint blob. Publication is not durability: see
    /// [`CheckpointStore::sync_checkpoint`].
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn finish_stream(&self, seq: u64) -> io::Result<()>;

    /// Discards the staged stream for `seq`, if any. Infallible: abort is
    /// best-effort cleanup on an already-failing path.
    fn abort_stream(&self, seq: u64);

    /// Makes published checkpoint `seq` — its bytes and its name —
    /// durable. Required before deleting any WAL the checkpoint covers.
    ///
    /// # Errors
    /// Whatever the medium reports.
    fn sync_checkpoint(&self, seq: u64) -> io::Result<()>;
}

impl<M: Medium + ?Sized> CheckpointStore for M {
    fn save(&self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        self.begin_stream(seq)?;
        self.stream_chunk(seq, bytes)?;
        self.finish_stream(seq)
    }

    fn seqs(&self) -> io::Result<Vec<u64>> {
        Ok(self
            .list()?
            .iter()
            .filter_map(|name| {
                name.strip_prefix("checkpoint-")?
                    .strip_suffix(".idbc")?
                    .parse()
                    .ok()
            })
            .collect())
    }

    fn load(&self, seq: u64) -> io::Result<Vec<u8>> {
        self.read(&checkpoint_name(seq))
    }

    fn begin_stream(&self, seq: u64) -> io::Result<()> {
        self.truncate(&staging_name(seq), 0)
    }

    fn stream_chunk(&self, seq: u64, chunk: &[u8]) -> io::Result<()> {
        self.append(&staging_name(seq), chunk)
    }

    fn finish_stream(&self, seq: u64) -> io::Result<()> {
        // The rename is the publication point: a kill anywhere earlier
        // leaves only the staging object, which `seqs` never lists.
        self.rename(&staging_name(seq), &checkpoint_name(seq))
    }

    fn abort_stream(&self, seq: u64) {
        let _ = self.remove(&staging_name(seq));
    }

    fn sync_checkpoint(&self, seq: u64) -> io::Result<()> {
        self.sync(&checkpoint_name(seq))
    }
}

/// Checkpoints in a directory: [`FsMedium::open`] on it.
pub type FsCheckpoints = FsMedium;

/// Encodes a checkpoint blob: a v2 frame whose payload is
/// `seq u64 | batches_covered u64 | store snapshot | bubbles snapshot`
/// (both snapshots are themselves framed and self-delimiting).
///
/// # Errors
/// Propagates serialization I/O failures (never occurs for the in-memory
/// buffers used here, but the signature keeps the writer honest).
pub fn encode_checkpoint(
    seq: u64,
    covered: u64,
    store: &PointStore,
    bubbles: &IncrementalBubbles,
) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    write_u64(&mut payload, seq)?;
    write_u64(&mut payload, covered)?;
    store.write_snapshot(&mut payload)?;
    bubbles.write_snapshot(&mut payload)?;
    let mut out = Vec::with_capacity(payload.len() + 24);
    write_frame(&mut out, CHECKPOINT_MAGIC, &payload)?;
    Ok(out)
}

/// A decoded checkpoint: `(seq, batches_covered, store, bubbles)`.
type Decoded = (u64, u64, PointStore, IncrementalBubbles);

/// Opens a full checkpoint blob up to its bubble snapshot: the one parse
/// of the `seq | covered | store` prefix, for a full candidate and for a
/// delta's base alike. Returns `(seq, batches_covered, store, bubble
/// snapshot bytes)`.
fn open_full(bytes: &[u8]) -> Result<(u64, u64, PointStore, Vec<u8>), SnapshotError> {
    let mut payload = read_frame(&mut &bytes[..], CHECKPOINT_MAGIC)?;
    let mut cur: &[u8] = &payload;
    let seq = read_u64(&mut cur)?;
    let covered = read_u64(&mut cur)?;
    let store = PointStore::read_snapshot(&mut cur)?;
    let prefix = payload.len() - cur.len();
    payload.drain(..prefix);
    Ok((seq, covered, store, payload))
}

/// Decodes a full checkpoint blob, validating both nested snapshots.
fn decode_checkpoint(bytes: &[u8]) -> Result<Decoded, SnapshotError> {
    let (seq, covered, store, bubbles) = open_full(bytes)?;
    let mut cur: &[u8] = &bubbles;
    let bubbles = IncrementalBubbles::read_snapshot(&mut cur, &store)?;
    if !cur.is_empty() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after checkpoint payload",
            cur.len()
        )));
    }
    Ok((seq, covered, store, bubbles))
}

/// Encodes a delta checkpoint: a frame whose payload is `seq | covered |
/// base_seq | base_covered` followed by the bubble records of the slots
/// flagged in `dirty` (see `IncrementalBubbles::write_dirty_records`) —
/// the slots changed since the full checkpoint `base_seq`, which covered
/// `base_covered` batches. Decoding rebuilds the full state from the base
/// blob plus the WAL records in `[base_covered, covered)`.
fn encode_delta_checkpoint(
    seq: u64,
    covered: u64,
    base: (u64, u64),
    bubbles: &IncrementalBubbles,
    dirty: &[bool],
) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    write_u64(&mut payload, seq)?;
    write_u64(&mut payload, covered)?;
    write_u64(&mut payload, base.0)?;
    write_u64(&mut payload, base.1)?;
    bubbles.write_dirty_records(dirty, &mut payload)?;
    let mut out = Vec::with_capacity(payload.len() + 24);
    write_frame(&mut out, DELTA_CHECKPOINT_MAGIC, &payload)?;
    Ok(out)
}

/// A delta checkpoint's header and dirty bubble records, parsed once
/// from its frame's payload.
struct Delta<'a> {
    seq: u64,
    covered: u64,
    base_seq: u64,
    base_covered: u64,
    dirty: DirtyRecords<'a>,
}

impl<'a> Delta<'a> {
    /// Parses the payload [`encode_delta_checkpoint`] framed.
    fn parse(payload: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut cur = payload;
        let seq = read_u64(&mut cur)?;
        let covered = read_u64(&mut cur)?;
        let base_seq = read_u64(&mut cur)?;
        let base_covered = read_u64(&mut cur)?;
        if covered < base_covered {
            return Err(SnapshotError::Corrupt(format!(
                "delta covers {covered} batches, before its base's {base_covered}"
            )));
        }
        let dirty = read_dirty_records(&mut cur)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the delta payload",
                cur.len()
            )));
        }
        Ok(Self {
            seq,
            covered,
            base_seq,
            base_covered,
            dirty,
        })
    }

    /// Rebuilds the full state from the delta's base blob and the WAL it
    /// was logged into: the base's store is rolled forward by the logged
    /// batches in `[base_covered, covered)` (deletes then inserts per
    /// record, exactly the live path's order, so the free list is
    /// bit-identical), each decoded into one reused record, and the
    /// delta's bubble records are spliced over the base's bubble snapshot,
    /// which the ordinary snapshot reader validates.
    fn decode(&self, base: &[u8], wal: &WalScan<'_>) -> Result<Decoded, SnapshotError> {
        let (bseq, bcov, mut store, bubbles) = open_full(base)?;
        if bseq != self.base_seq || bcov != self.base_covered {
            return Err(SnapshotError::Corrupt(format!(
                "delta claims base {} covering {}, blob is {bseq} covering {bcov}",
                self.base_seq, self.base_covered
            )));
        }
        if wal.base > self.base_covered {
            return Err(SnapshotError::Corrupt(format!(
                "wal base {} is past the delta's store base {}",
                wal.base, self.base_covered
            )));
        }
        let have = wal.end_seq();
        if have < self.covered {
            return Err(SnapshotError::Corrupt(format!(
                "wal holds batches up to {have}, delta needs {}",
                self.covered
            )));
        }
        let index = |abs: u64| usize::try_from(abs - wal.base).expect("record index fits usize");
        let mut rec = WalRecord::default();
        for i in index(self.base_covered)..index(self.covered) {
            wal.decode_into(i, &mut rec);
            store.apply(&rec.batch);
        }
        let bubbles = IncrementalBubbles::read_spliced(&bubbles, &self.dirty, &store)?;
        Ok((self.seq, self.covered, store, bubbles))
    }
}

/// The state [`recover`] rebuilds, plus provenance for observability.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered point database.
    pub store: PointStore,
    /// The recovered summarization, bit-identical to the uninterrupted
    /// run's state after `batches_durable` batches.
    pub bubbles: IncrementalBubbles,
    /// How many batches of the stream are reflected in the state.
    pub batches_durable: u64,
    /// Records found intact in the WAL.
    pub wal_records: usize,
    /// Records actually replayed on top of the checkpoint.
    pub replayed: usize,
    /// Whether a torn final record was truncated.
    pub torn_tail: bool,
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
}

/// Rebuilds the maintainer state from a WAL byte stream plus a checkpoint
/// store: the newest checkpoint that loads, decodes and aligns with the
/// WAL epoch is taken as the base, and every WAL record past its coverage
/// is replayed with the deterministic maintenance path.
///
/// # Errors
/// * [`RecoveryError::CorruptWal`] — bit damage before the WAL tail (a
///   torn tail itself is truncated, not an error);
/// * [`RecoveryError::NoUsableCheckpoint`] — every checkpoint failed to
///   load, decode, or align (corrupt candidates are skipped, not fatal,
///   as long as an older one works);
/// * [`RecoveryError::Replay`] — a WAL record does not apply on top of
///   the checkpoint state;
/// * [`RecoveryError::Io`] — the checkpoint medium failed while listing.
///
/// Recovery journals through `obs`: a `recover_start` event up front, a
/// `recover_checkpoint` event for the checkpoint actually adopted, the
/// recovered maintainer's structural events while the WAL tail replays
/// (the handle is installed *before* replay, so the replayed stream is
/// comparable to the uninterrupted run's), and a closing `recover_done`
/// event. Pass [`Obs::disabled`] to journal nothing.
pub fn recover<C: CheckpointStore>(
    wal_bytes: &[u8],
    checkpoints: &C,
    obs: &Obs,
) -> Result<Recovered, RecoveryError> {
    let timer = obs.start();
    obs.emit(
        EventKind::RecoverStart {
            wal_bytes: wal_bytes.len() as u64,
        },
        0,
    );
    let wal = scan_wal(wal_bytes).map_err(wal_to_recovery)?;
    recover_parsed(&wal, checkpoints, obs, &timer)
}

/// [`recover`] over a segmented WAL chain: reads and verifies the newest
/// epoch on `medium` (see [`load_chain`] and
/// [`ChainBytes::scan`](idb_store::segment::ChainBytes::scan)) and
/// recovers from the merged record stream, journaling through `obs` the
/// same way. Compaction may have reclaimed the chain's oldest segments;
/// checkpoints older than the surviving base are skipped exactly like
/// checkpoints from an earlier epoch.
///
/// # Errors
/// As [`recover`]; chain-level damage ([`WalError::ChainGap`],
/// [`WalError::CorruptSegment`]) surfaces as
/// [`RecoveryError::CorruptWal`].
pub fn recover_chain<M: Medium + ?Sized, C: CheckpointStore>(
    medium: &M,
    checkpoints: &C,
    obs: &Obs,
) -> Result<Recovered, RecoveryError> {
    let timer = obs.start();
    let chain = load_chain(medium).map_err(wal_to_recovery)?;
    let wal = chain.scan().map_err(wal_to_recovery)?;
    obs.emit(
        EventKind::RecoverStart {
            wal_bytes: chain.bytes(),
        },
        0,
    );
    recover_parsed(&wal, checkpoints, obs, &timer)
}

fn wal_to_recovery(e: WalError) -> RecoveryError {
    match e {
        WalError::Io(e) => RecoveryError::Io(e),
        WalError::Corrupt { offset, detail } => RecoveryError::CorruptWal { offset, detail },
        e @ (WalError::ChainGap { .. } | WalError::CorruptSegment { .. }) => {
            RecoveryError::CorruptWal {
                offset: 0,
                detail: e.to_string(),
            }
        }
    }
}

/// The shared checkpoint-candidate loop over a verified WAL: newest
/// first, skipping damaged or misaligned candidates. Full blobs decode
/// directly; delta blobs pull in their full base and the WAL records they
/// sit on. The records a candidate's coverage skips are never decoded;
/// the rest are decoded one at a time, into one reused record, as they
/// are applied.
fn recover_parsed<C: CheckpointStore>(
    wal: &WalScan<'_>,
    checkpoints: &C,
    obs: &Obs,
    timer: &idb_obs::ObsTimer,
) -> Result<Recovered, RecoveryError> {
    let mut seqs = checkpoints.seqs()?;
    seqs.sort_unstable();
    let mut tried = 0;
    let mut detail = String::from("no checkpoints present");
    for &seq in seqs.iter().rev() {
        tried += 1;
        let blob = match checkpoints.load(seq) {
            Ok(b) => b,
            Err(e) => {
                detail = format!("checkpoint {seq}: load failed: {e}");
                continue;
            }
        };
        let decoded = if blob.starts_with(DELTA_CHECKPOINT_MAGIC) {
            decode_delta(&blob, checkpoints, wal)
        } else {
            decode_checkpoint(&blob).map_err(|e| e.to_string())
        };
        let (cseq, covered, store, bubbles) = match decoded {
            Ok(parts) => parts,
            Err(e) => {
                detail = format!("checkpoint {seq}: {e}");
                continue;
            }
        };
        if cseq != seq {
            detail = format!("checkpoint {seq}: blob claims sequence {cseq}");
            continue;
        }
        if covered < wal.base {
            // Taken in an earlier WAL epoch (or before the compaction
            // floor); this log's records would be double-counted on top
            // of it.
            detail = format!(
                "checkpoint {seq} covers {covered} batches, before the wal epoch base {}",
                wal.base
            );
            continue;
        }
        if !wal.is_empty() && store.dim() != wal.dim {
            detail = format!(
                "checkpoint {seq} is {}-dimensional but the wal is {}-dimensional",
                store.dim(),
                wal.dim
            );
            continue;
        }
        obs.emit(EventKind::RecoverCheckpoint { seq, covered }, 0);
        return replay(wal, seq, covered, store, bubbles, obs, timer);
    }
    Err(RecoveryError::NoUsableCheckpoint { tried, detail })
}

/// Decodes a delta candidate: its frame and header are read once, and
/// its `base_seq` names the full blob it is spliced over.
fn decode_delta<C: CheckpointStore>(
    blob: &[u8],
    checkpoints: &C,
    wal: &WalScan<'_>,
) -> Result<Decoded, String> {
    let payload = read_frame(&mut &blob[..], DELTA_CHECKPOINT_MAGIC).map_err(|e| e.to_string())?;
    let delta = Delta::parse(&payload).map_err(|e| e.to_string())?;
    let base = checkpoints
        .load(delta.base_seq)
        .map_err(|e| format!("delta base {}: load failed: {e}", delta.base_seq))?;
    delta.decode(&base, wal).map_err(|e| e.to_string())
}

/// Replays every record past `covered` on top of the adopted checkpoint,
/// decoding each into one reused record. A record's inserts are attached
/// to the targets it logged, range-checked, with no search. That is exact
/// by induction: replay reaches the live state before every record, and a
/// target is a pure function of that state's seed set (the engines agree
/// on ties), so each logged target is what the search would return.
fn replay(
    wal: &WalScan<'_>,
    checkpoint_seq: u64,
    covered: u64,
    mut store: PointStore,
    mut bubbles: IncrementalBubbles,
    obs: &Obs,
    timer: &idb_obs::ObsTimer,
) -> Result<Recovered, RecoveryError> {
    // Install the handle before replaying so the replayed structural
    // events land in the same journal (and in the same order as the
    // uninterrupted run produced them).
    bubbles.set_obs(obs.clone());
    let mut search = SearchStats::new();
    // Records below `covered` are already inside the checkpoint
    // (`covered >= wal.base`, checked by the caller).
    let first = usize::try_from(covered - wal.base).map_or(wal.len(), |i| i.min(wal.len()));
    let mut rec = WalRecord::default();
    for i in first..wal.len() {
        let abs = wal.base + i as u64;
        wal.decode_into(i, &mut rec);
        bubbles
            .stage_batch(&store, &rec.batch)
            .and_then(|()| bubbles.stage_logged_targets(&rec.targets))
            .map_err(|source| RecoveryError::Replay {
                record: abs,
                source,
            })?;
        bubbles.apply_staged(&mut store, &rec.batch);
        if rec.maintain {
            // The live path seeded a fresh StdRng from this value for the
            // round; replay does the identical thing, so the merge/split
            // decisions are bit-identical.
            let mut rng = StdRng::seed_from_u64(rec.round_seed);
            bubbles.maintain(&store, &mut rng, &mut search);
        }
    }
    let replayed = wal.len() - first;
    // A checkpoint may run ahead of the durable WAL (group-commit window):
    // the state then simply reflects the checkpoint.
    let batches_durable = covered.max(wal.end_seq());
    obs.emit(
        EventKind::RecoverDone {
            replayed: replayed as u64,
            batches_durable,
            torn_tail: wal.torn_tail,
        },
        timer.us(),
    );
    Ok(Recovered {
        store,
        bubbles,
        batches_durable,
        wal_records: wal.len(),
        replayed,
        torn_tail: wal.torn_tail,
        checkpoint_seq,
    })
}

/// Tunables of the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// WAL records buffered per group commit (1 = commit every batch; the
    /// crash window grows with this value, trading durability lag for
    /// fsync amortization).
    pub group_commit: usize,
    /// Take a checkpoint every this many applied batches.
    pub checkpoint_interval: u64,
    /// Extra commit attempts after a sink failure before degrading.
    pub max_retries: u32,
    /// Sleep before the first retry, doubling each attempt. Zero (the
    /// default, and what tests use) retries immediately without sleeping.
    pub retry_backoff: Duration,
    /// Hard cap on WAL records buffered in memory while the sink is down.
    /// Past it, new batches are shed with a typed
    /// [`StorageError`] instead of growing memory without bound.
    pub max_buffered: usize,
    /// Bytes of an in-flight checkpoint written per applied batch when the
    /// checkpoint medium streams: chunked writes interleave with batch
    /// application instead of stopping the world.
    pub checkpoint_chunk_bytes: usize,
    /// Every Nth checkpoint is a full rebase; the ones between persist
    /// only the bubbles dirtied since the newest full base (a delta
    /// checkpoint). `1` takes a full checkpoint every time.
    pub full_rebase_interval: u64,
    /// Budget on the live WAL chain's disk footprint. On breach the
    /// maintainer compacts first, then forces a full checkpoint to
    /// advance the compaction floor, and only then sheds the batch with a
    /// typed [`StorageError::BudgetExceeded`].
    pub disk_budget: StorageBudget,
    /// Hot-point budget for the tiered point store: at most this many
    /// payloads stay resident; the rest spill to the cold medium.
    /// `None` (the default) keeps the store untiered — every payload
    /// resident, no cold tier at all.
    pub hot_points: Option<usize>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            group_commit: 1,
            checkpoint_interval: 64,
            max_retries: 3,
            retry_backoff: Duration::ZERO,
            max_buffered: 1024,
            checkpoint_chunk_bytes: 64 * 1024,
            full_rebase_interval: 4,
            disk_budget: StorageBudget::unbounded(),
            hot_points: None,
        }
    }
}

/// Durability health of a [`DurableMaintainer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// The sink and checkpoint store are accepting writes.
    Healthy,
    /// The sink (or checkpoint store) is down, or the disk budget is
    /// breached; the maintainer keeps serving from memory and buffers WAL
    /// records (up to [`DurabilityConfig::max_buffered`]) for when it
    /// heals.
    Degraded {
        /// WAL records buffered in memory, not yet durable.
        buffered_batches: usize,
        /// Batches shed with a typed error over the maintainer's life
        /// (buffer cap or disk budget).
        shed_batches: u64,
    },
}

/// A checkpoint being streamed out across batch applications.
#[derive(Debug)]
struct PendingCheckpoint {
    seq: u64,
    covered: u64,
    blob: Vec<u8>,
    written: usize,
    is_full: bool,
}

/// The live-side durability wrapper: validate → log → apply.
///
/// Every batch is validated first (so the WAL only ever holds batches
/// that replay cleanly), appended to the WAL, group-committed, applied
/// through the ordinary transactional path, and periodically folded into
/// a checkpoint, streamed one chunk per batch; the start-up checkpoint
/// and forced ones take the same path in one chunk. Transient sink
/// failures are retried with bounded exponential backoff; persistent
/// failures degrade the maintainer to in-memory operation
/// ([`Health::Degraded`]) instead of stopping the stream — records stay
/// buffered and flush when the sink heals.
#[derive(Debug)]
pub struct DurableMaintainer<S: DurableSink, C: CheckpointStore> {
    store: PointStore,
    bubbles: IncrementalBubbles,
    wal: WalWriter<S>,
    checkpoints: C,
    dcfg: DurabilityConfig,
    batches_applied: u64,
    next_checkpoint_seq: u64,
    last_checkpoint_at: u64,
    wal_down: bool,
    checkpoint_down: bool,
    obs: Obs,
    /// Whether the last emitted health event said "degraded" — health
    /// events fire on transitions only.
    reported_degraded: bool,
    /// Absolute batch sequence number of this WAL epoch's first record
    /// (what rotation stamps into new segment headers).
    wal_base: u64,
    /// `(seq, covered)` of the newest durable *full* checkpoint: the
    /// delta base and the compaction floor.
    last_full: Option<(u64, u64)>,
    /// Checkpoints taken since the last full rebase.
    checkpoints_since_full: u64,
    /// The checkpoint currently streaming out, one chunk per batch.
    pending_ckpt: Option<PendingCheckpoint>,
    /// Batches shed with a typed error (buffer cap or disk budget).
    shed_batches: u64,
    /// Whether the last sink failure reported `StorageFull` (ENOSPC) —
    /// a shed at the buffer cap then surfaces as
    /// [`StorageError::Enospc`] rather than a plain buffer overflow.
    sink_full: bool,
    /// Whether the disk budget was breached and could not be compacted
    /// back under the cap.
    budget_pressure: bool,
    /// Whether the cold tier last refused IO (outage on the spill medium).
    /// Batches are rejected typed while down; a batch whose payloads all
    /// stage, or a successful budget sweep, heals it.
    tier_down: bool,
    /// Whether a cold failure struck *after* a batch was logged (in its
    /// maintenance round): the in-memory state then diverges from what
    /// replaying the WAL would produce, so every further batch is rejected
    /// until the caller rebuilds via recovery.
    tier_poisoned: bool,
    /// Tier counters at the last mirror, for per-batch deltas.
    tier_seen: idb_store::TierCounters,
}

impl<S: DurableSink, C: CheckpointStore> DurableMaintainer<S, C> {
    /// Builds a fresh summarization over `store` and starts durable
    /// operation: the WAL header and a baseline checkpoint (sequence 0,
    /// covering 0 batches) are written immediately.
    ///
    /// # Errors
    /// [`RecoveryError::Io`] when the initial header commit or baseline
    /// checkpoint cannot be written — durable operation cannot start
    /// without its recovery anchor.
    ///
    /// # Panics
    /// Panics if the store holds fewer points than `config.num_bubbles`
    /// (as [`IncrementalBubbles::build`] does).
    pub fn create<R: Rng + ?Sized>(
        store: PointStore,
        config: MaintainerConfig,
        dcfg: DurabilityConfig,
        sink: S,
        checkpoints: C,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> Result<Self, RecoveryError> {
        let bubbles = IncrementalBubbles::build(&store, config, rng, search);
        Self::start(store, bubbles, dcfg, sink, checkpoints, 0, false)
    }

    /// Starts durable operation over an existing store + summarization
    /// pair at batch sequence 0 (a fresh stream).
    ///
    /// # Errors
    /// As [`DurableMaintainer::create`].
    pub fn adopt(
        store: PointStore,
        bubbles: IncrementalBubbles,
        dcfg: DurabilityConfig,
        sink: S,
        checkpoints: C,
    ) -> Result<Self, RecoveryError> {
        Self::start(store, bubbles, dcfg, sink, checkpoints, 0, false)
    }

    /// Continues a recovered stream on the media it was recovered from:
    /// publishes and syncs an anchor checkpoint covering
    /// `recovered.batches_durable`, only then truncates the sink, and
    /// begins a fresh WAL epoch based there. A crash anywhere in between
    /// recovers to the same state: before the anchor is durable the old
    /// epoch is intact, after it the anchor alone covers every
    /// acknowledged batch. Older checkpoints stay on the medium; recovery
    /// skips those that cover less than the new epoch's base. A segment
    /// chain is resumed through [`SegmentedSink::open`], which adopts the
    /// recovered chain without touching it; `SegmentedSink::fresh` would
    /// remove the old epoch before the anchor exists.
    ///
    /// [`SegmentedSink::open`]: idb_store::SegmentedSink::open
    ///
    /// # Errors
    /// As [`DurableMaintainer::create`].
    pub fn resume(
        recovered: Recovered,
        dcfg: DurabilityConfig,
        sink: S,
        checkpoints: C,
    ) -> Result<Self, RecoveryError> {
        Self::start(
            recovered.store,
            recovered.bubbles,
            dcfg,
            sink,
            checkpoints,
            recovered.batches_durable,
            true,
        )
    }

    /// Starts durable operation at batch sequence `base`. A fresh stream
    /// commits the WAL header, then its baseline checkpoint; a resumed one
    /// anchors first and replaces the old epoch after. Either checkpoint
    /// is encoded from the resident store, before a configured cold tier
    /// spills it, so it reads no point back from the cold medium.
    fn start(
        store: PointStore,
        bubbles: IncrementalBubbles,
        dcfg: DurabilityConfig,
        sink: S,
        checkpoints: C,
        base: u64,
        resuming: bool,
    ) -> Result<Self, RecoveryError> {
        // The wrapper journals into the same stream as the summarization
        // it wraps; the WAL writer gets a clone so commits land there too.
        let obs = bubbles.obs().clone();
        let mut wal = WalWriter::new(sink, store.dim(), base, dcfg.group_commit);
        wal.set_obs(obs.clone());
        if !resuming {
            wal.commit()?; // The header must be durable before any checkpoint.
        }
        let next_checkpoint_seq = checkpoints.seqs()?.iter().max().map_or(0, |m| m + 1);
        let mut this = Self {
            store,
            bubbles,
            wal,
            checkpoints,
            dcfg,
            batches_applied: base,
            next_checkpoint_seq,
            last_checkpoint_at: base,
            wal_down: false,
            checkpoint_down: false,
            obs,
            reported_degraded: false,
            wal_base: base,
            last_full: None,
            checkpoints_since_full: 0,
            pending_ckpt: None,
            shed_batches: 0,
            sink_full: false,
            budget_pressure: false,
            tier_down: false,
            tier_poisoned: false,
            tier_seen: idb_store::TierCounters::default(),
        };
        // The baseline or recovery anchor for this epoch, encoded while
        // the store is still resident.
        this.checkpoint_full()?;
        // Tiering starts *after* the (untiered) build/recovery produced the
        // summarization and its anchor: the store spills everything to the
        // cold medium and serves reads on demand. The cold file is an
        // ephemeral spill, not durability state — recovery always rebuilds
        // untiered and re-tiers here.
        if let Some(hot) = this.dcfg.hot_points {
            if !this.store.tiered() {
                this.store
                    .enable_tier(idb_store::tier::default_cold_medium()?, hot.max(1))
                    .map_err(|e| RecoveryError::Io(io::Error::other(e.to_string())))?;
            }
            this.tier_seen = this.store.tier_counters().unwrap_or_default();
        }
        if resuming {
            // The old epoch may only go once the anchor is durable.
            let anchor = this.next_checkpoint_seq - 1;
            this.checkpoints.sync_checkpoint(anchor)?;
            this.wal.sink_mut().truncate(0)?;
            this.wal.commit()?;
        }
        Ok(this)
    }

    /// Whether any durability flag holds the maintainer degraded: the WAL
    /// sink or checkpoint store down, disk-budget pressure, or the cold
    /// tier down or poisoned.
    fn degraded(&self) -> bool {
        self.wal_down
            || self.checkpoint_down
            || self.budget_pressure
            || self.tier_down
            || self.tier_poisoned
    }

    /// Emits a `health` journal event when the degraded/healthy state has
    /// changed since the last one.
    fn note_health(&mut self) {
        let degraded = self.degraded();
        if degraded != self.reported_degraded {
            self.reported_degraded = degraded;
            self.obs.emit(
                EventKind::Health {
                    degraded,
                    buffered: self.wal.pending_records() as u64,
                },
                0,
            );
        }
    }

    /// Applies one batch durably, drawing the maintenance seed from `rng`
    /// and always running a maintenance round — the common live-path call.
    ///
    /// # Errors
    /// The typed [`UpdateError`] of
    /// [`IncrementalBubbles::try_apply_batch`]; a rejected batch is logged
    /// nowhere and changes nothing.
    pub fn apply<R: Rng + ?Sized>(
        &mut self,
        batch: &Batch,
        rng: &mut R,
        search: &mut SearchStats,
    ) -> Result<Vec<PointId>, UpdateError> {
        let round_seed = rng.gen::<u64>();
        self.apply_with(batch, round_seed, true, search)
    }

    /// Applies one batch durably with an explicit maintenance decision and
    /// RNG seed (what gets logged — and therefore what replay reproduces).
    /// The order is validate and stage ([`IncrementalBubbles`] reads each
    /// deleted point once) → shed checks → search each insert's target →
    /// log the batch with its targets → apply the staged batch, which
    /// cannot fail; only the maintenance round after it can still meet a
    /// cold failure.
    ///
    /// Sink failures do **not** fail the batch: the maintainer retries per
    /// [`DurabilityConfig`], then degrades to in-memory operation and
    /// keeps the record buffered (see [`DurableMaintainer::health`]) — up
    /// to [`DurabilityConfig::max_buffered`] records, past which batches
    /// are shed with a typed error. The disk budget is enforced the same
    /// way: compact first, then force a full checkpoint to advance the
    /// floor, and only shed when the chain still will not fit.
    ///
    /// # Errors
    /// The typed [`UpdateError`] when the batch itself is invalid, or
    /// [`UpdateError::Storage`] when the batch was shed by the bounded
    /// durability layer (the summarization and the store are untouched).
    pub fn apply_with(
        &mut self,
        batch: &Batch,
        round_seed: u64,
        maintain: bool,
        search: &mut SearchStats,
    ) -> Result<Vec<PointId>, UpdateError> {
        // A poisoned tier means the in-memory state diverged from what
        // replaying the WAL would produce (a cold failure struck after a
        // record was logged); nothing further may apply until the caller
        // rebuilds through recovery.
        if self.tier_poisoned {
            return Err(UpdateError::Storage(StorageError::ColdIo {
                op: "apply",
                detail: "cold tier failed mid-round; state diverged from the WAL, \
                         rebuild via recovery"
                    .into(),
            }));
        }
        // Validate and stage before logging: the WAL must only ever contain
        // batches that replay cleanly, and every payload this batch needs
        // is read now — once — so a cold outage rejects the batch typed,
        // logged nowhere and nothing applied, instead of poisoning.
        match self.bubbles.stage_batch(&self.store, batch) {
            Ok(()) => {
                if self.tier_down {
                    self.tier_down = false;
                    self.note_health();
                }
            }
            Err(UpdateError::Storage(e)) => {
                self.tier_down = true;
                return Err(self.shed(e));
            }
            Err(e) => return Err(e),
        }
        // Bounded resources next: shed (typed) before anything is logged
        // or applied.
        self.enforce_disk_budget()?;
        self.enforce_buffer_cap()?;
        // Each record carries its inserts' target bubbles, so replay
        // attaches them without searching and no record depends on the
        // next one.
        self.bubbles.stage_targets(batch, search);
        self.wal
            .append_parts(round_seed, maintain, batch, self.bubbles.staged_targets());
        if self.wal.wants_commit() {
            self.commit_wal();
        }
        let ids = self.bubbles.apply_staged(&mut self.store, batch);
        if maintain {
            let mut rng = StdRng::seed_from_u64(round_seed);
            if let Err(e) = self.bubbles.try_maintain(&self.store, &mut rng, search) {
                self.tier_down = true;
                self.tier_poisoned = true;
                self.note_health();
                return Err(UpdateError::Storage(e));
            }
        }
        self.batches_applied += 1;
        self.drive_checkpoint();
        self.enforce_hot_budget();
        Ok(ids)
    }

    /// Per-batch tier upkeep: evict back down to the hot budget, journal
    /// the tier traffic this batch generated, and mirror the counters into
    /// metrics. Eviction failures degrade ([`Health::Degraded`]) without
    /// failing the batch — the store stays consistent, merely over budget,
    /// and the next batch (or [`DurableMaintainer::sync`]) retries.
    fn enforce_hot_budget(&mut self) {
        if !self.store.tiered() {
            return;
        }
        match self.store.enforce_hot_budget() {
            Ok(evicted) => {
                if self.tier_down {
                    self.tier_down = false;
                }
                if evicted > 0 {
                    self.obs.emit(
                        EventKind::TierEvict {
                            evicted,
                            resident: self.store.resident_points() as u64,
                        },
                        0,
                    );
                }
            }
            Err(_) => {
                self.tier_down = true;
            }
        }
        let now = self.store.tier_counters().unwrap_or_default();
        let fetches = now.cold_reads - self.tier_seen.cold_reads;
        let bytes = now.cold_bytes - self.tier_seen.cold_bytes;
        if fetches > 0 {
            // Zero-traffic windows are elided, never journaled (the
            // journal checker enforces this).
            self.obs.emit(EventKind::TierFetch { fetches, bytes }, 0);
        }
        if self.obs.metrics_on() {
            let m = self.obs.metrics();
            m.counter("tier.hits").add(now.hits - self.tier_seen.hits);
            m.counter("tier.misses")
                .add(now.misses - self.tier_seen.misses);
            m.counter("tier.cold_reads").add(fetches);
            m.counter("tier.cold_bytes").add(bytes);
            m.counter("tier.evictions")
                .add(now.evictions - self.tier_seen.evictions);
        }
        self.tier_seen = now;
        self.note_health();
    }

    /// Commits buffered WAL records with bounded retry; on persistent
    /// failure flags the sink as down and leaves the records buffered.
    /// ENOSPC from the sink triggers a compaction before the retry. After
    /// a successful commit that made new records durable, the segmented
    /// sink is offered a rotation.
    fn commit_wal(&mut self) -> bool {
        let before = self.wal.committed_records();
        let mut backoff = self.dcfg.retry_backoff;
        for attempt in 0..=self.dcfg.max_retries {
            match self.wal.commit() {
                Ok(()) => {
                    self.wal_down = false;
                    self.sink_full = false;
                    self.note_health();
                    if self.wal.committed_records() > before {
                        self.maybe_roll();
                    }
                    return true;
                }
                Err(e) => {
                    self.sink_full = e.kind() == io::ErrorKind::StorageFull;
                    if self.sink_full {
                        // Reclaiming covered segments may free exactly the
                        // space the retry needs.
                        self.compact();
                    }
                    if attempt < self.dcfg.max_retries && !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
            }
        }
        self.wal_down = true;
        self.note_health();
        false
    }

    /// Offers the sink a segment rotation (a no-op for unsegmented sinks
    /// and for segmented ones still under their byte budget). Called only
    /// after a commit that made records durable, so a sealed segment is
    /// never empty.
    fn maybe_roll(&mut self) {
        let next_base = self.wal_base + self.wal.committed_records();
        match self.wal.sink_mut().roll(self.store.dim(), next_base) {
            Ok(None) => {}
            Ok(Some(report)) => {
                self.obs.emit(
                    EventKind::WalRotate {
                        epoch: report.new_epoch,
                        seq: report.new_seq,
                        base: next_base,
                        sealed_bytes: report.sealed_bytes,
                    },
                    0,
                );
                if self.obs.metrics_on() {
                    self.obs.metrics().counter("wal.rotations").inc();
                }
            }
            Err(_) => {
                // Transient: the active segment keeps absorbing appends;
                // rotation is retried after the next commit.
                if self.obs.metrics_on() {
                    self.obs.metrics().counter("wal.roll_failures").inc();
                }
            }
        }
    }

    /// Reclaims WAL segments fully covered by the newest published full
    /// checkpoint, syncing that checkpoint before the first segment goes.
    /// Returns the bytes reclaimed (0 when there is no floor, nothing was
    /// reclaimable, the checkpoint would not sync, or the sink is
    /// unsegmented).
    fn compact(&mut self) -> u64 {
        let Some((seq, floor)) = self.last_full else {
            return 0;
        };
        let checkpoints = &self.checkpoints;
        let reclaimed = self
            .wal
            .sink_mut()
            .reclaim(floor, &mut || checkpoints.sync_checkpoint(seq));
        match reclaimed {
            Ok(report) if report.segments > 0 => {
                self.obs.emit(
                    EventKind::WalCompact {
                        segments: report.segments,
                        bytes: report.bytes,
                        floor,
                    },
                    0,
                );
                if self.obs.metrics_on() {
                    let m = self.obs.metrics();
                    m.counter("wal.compactions").inc();
                    m.counter("wal.reclaimed_bytes").add(report.bytes);
                }
                report.bytes
            }
            _ => 0,
        }
    }

    /// Compact-first-then-shed enforcement of the disk budget, before the
    /// batch is logged.
    fn enforce_disk_budget(&mut self) -> Result<(), UpdateError> {
        let Some(budget) = self.dcfg.disk_budget.max_live_bytes else {
            self.budget_pressure = false;
            return Ok(());
        };
        // An unsegmented sink cannot report (or bound) its footprint.
        let Some(live) = self.wal.sink().live_bytes() else {
            return Ok(());
        };
        if live <= budget {
            self.budget_pressure = false;
            return Ok(());
        }
        // 1) Reclaim what the existing floor already covers.
        self.compact();
        if self.wal.sink().live_bytes().unwrap_or(0) <= budget {
            self.budget_pressure = false;
            return Ok(());
        }
        // 2) Advance the floor with a forced full checkpoint (which
        //    compacts on success) and re-check.
        let _ = self.checkpoint_full();
        let live = self.wal.sink().live_bytes().unwrap_or(0);
        if live <= budget {
            self.budget_pressure = false;
            return Ok(());
        }
        // 3) Shed, typed.
        self.budget_pressure = true;
        Err(self.shed(StorageError::BudgetExceeded {
            live_bytes: live,
            budget,
        }))
    }

    /// Hard cap on the degraded-mode buffer: one more drain attempt, then
    /// a typed shed.
    fn enforce_buffer_cap(&mut self) -> Result<(), UpdateError> {
        if self.wal.pending_records() < self.dcfg.max_buffered {
            return Ok(());
        }
        if self.commit_wal() && self.wal.pending_records() < self.dcfg.max_buffered {
            return Ok(());
        }
        let buffered = self.wal.pending_records();
        let err = if self.sink_full {
            StorageError::Enospc {
                detail: format!(
                    "wal sink out of space with {buffered} records buffered at the cap"
                ),
            }
        } else {
            StorageError::BufferFull {
                buffered,
                max: self.dcfg.max_buffered,
            }
        };
        Err(self.shed(err))
    }

    /// Sheds the incoming batch with `err`: the one path for a cold read
    /// while staging, the disk budget and the buffer cap. Counts the shed, journals
    /// it with the buffered record count, feeds the `storage.shed` metric
    /// and reports health, so the caller sets its degraded flag first.
    fn shed(&mut self, err: StorageError) -> UpdateError {
        self.shed_batches += 1;
        self.obs.emit(
            EventKind::StorageShed {
                buffered: self.wal.pending_records() as u64,
                shed: self.shed_batches,
            },
            0,
        );
        if self.obs.metrics_on() {
            self.obs.metrics().counter("storage.shed").inc();
        }
        self.note_health();
        UpdateError::Storage(err)
    }

    /// Starts a checkpoint when the interval is due and advances the
    /// in-flight one by one chunk — the streaming-checkpoint pump, called
    /// once per applied batch. Failures surface as degraded health.
    fn drive_checkpoint(&mut self) {
        if self.pending_ckpt.is_none()
            && self.batches_applied - self.last_checkpoint_at >= self.dcfg.checkpoint_interval
        {
            let _ = self.begin_checkpoint(false);
        }
        let _ = self.advance_pending(self.dcfg.checkpoint_chunk_bytes);
        self.note_health();
    }

    /// Encodes the next checkpoint — every checkpoint is encoded here —
    /// and stages it for the pump. It is full when `force_full` is set
    /// (the baseline, a resume anchor, a disk-budget rebase) or no delta
    /// can be taken; a delta when a full base exists, the bubbles' dirty
    /// window is open and the rebase cadence allows it.
    ///
    /// # Errors
    /// The encode's failure (a cold read while snapshotting the store);
    /// nothing is staged and the checkpoint store is marked down.
    fn begin_checkpoint(&mut self, force_full: bool) -> io::Result<()> {
        let seq = self.next_checkpoint_seq;
        let covered = self.batches_applied;
        let full_due =
            force_full || self.checkpoints_since_full + 1 >= self.dcfg.full_rebase_interval.max(1);
        let timer = self.obs.start();
        let (is_full, blob) = match (self.last_full, self.bubbles.dirty_slots()) {
            (Some(base), Some(dirty)) if !full_due => (
                false,
                encode_delta_checkpoint(seq, covered, base, &self.bubbles, dirty),
            ),
            _ => (
                true,
                encode_checkpoint(seq, covered, &self.store, &self.bubbles),
            ),
        };
        if self.obs.metrics_on() {
            self.obs
                .metrics()
                .histogram("checkpoint.encode_us")
                .record(timer.us());
        }
        match blob {
            Ok(blob) => {
                if is_full {
                    // The blob captures the state exactly as of `covered`;
                    // the dirty window restarts against it. If the stream
                    // fails, `abandon_pending` closes the window.
                    self.bubbles.open_dirty_window();
                }
                self.pending_ckpt = Some(PendingCheckpoint {
                    seq,
                    covered,
                    blob,
                    written: 0,
                    is_full,
                });
                Ok(())
            }
            Err(e) => {
                if is_full {
                    self.bubbles.close_dirty_window();
                }
                self.checkpoint_down = true;
                Err(e)
            }
        }
    }

    /// Writes the next `limit` bytes of the in-flight checkpoint as one
    /// chunk, opening its stream first and publishing it after the last
    /// byte. The pump passes `checkpoint_chunk_bytes`; a drain passes
    /// `usize::MAX` and writes the whole remainder at once.
    ///
    /// # Errors
    /// The medium's failure; the stream is abandoned and the checkpoint
    /// store marked down.
    fn advance_pending(&mut self, limit: usize) -> io::Result<()> {
        let Some(mut p) = self.pending_ckpt.take() else {
            return Ok(());
        };
        let total = p.blob.len();
        let end = p.written.saturating_add(limit.max(1)).min(total);
        let timer = self.obs.start();
        let step = (|| {
            if p.written == 0 {
                self.checkpoints.begin_stream(p.seq)?;
            }
            self.checkpoints
                .stream_chunk(p.seq, &p.blob[p.written..end])?;
            if end == total {
                self.checkpoints.finish_stream(p.seq)?;
            }
            Ok(())
        })();
        if let Err(e) = step {
            self.abandon_pending(&p);
            self.checkpoint_down = true;
            return Err(e);
        }
        p.written = end;
        self.obs.emit(
            EventKind::CheckpointChunk {
                seq: p.seq,
                written: end as u64,
                total: total as u64,
            },
            timer.us(),
        );
        if end == total {
            self.finish_checkpoint(&p, timer.us());
        } else {
            self.pending_ckpt = Some(p);
        }
        Ok(())
    }

    /// Gives up on a checkpoint stream that will not complete: its staged
    /// object is removed, a full one's dirty window closes (the blob never
    /// became durable, so a delta can no longer lean on it), and its
    /// sequence number is burned, so a fresh attempt never continues an
    /// abandoned chunk stream under the same seq.
    fn abandon_pending(&mut self, p: &PendingCheckpoint) {
        self.checkpoints.abort_stream(p.seq);
        if p.is_full {
            self.bubbles.close_dirty_window();
        }
        self.next_checkpoint_seq = p.seq + 1;
    }

    /// Bookkeeping for a checkpoint that became durable.
    fn finish_checkpoint(&mut self, p: &PendingCheckpoint, us: u64) {
        self.obs.emit(
            EventKind::Checkpoint {
                seq: p.seq,
                covered: p.covered,
                bytes: p.blob.len() as u64,
            },
            us,
        );
        if self.obs.metrics_on() {
            let m = self.obs.metrics();
            m.counter("checkpoint.taken").inc();
            m.counter("checkpoint.bytes").add(p.blob.len() as u64);
            if !p.is_full {
                m.counter("checkpoint.delta").inc();
            }
        }
        self.next_checkpoint_seq = p.seq + 1;
        self.last_checkpoint_at = p.covered;
        if p.is_full {
            self.last_full = Some((p.seq, p.covered));
            self.checkpoints_since_full = 0;
            self.compact();
        } else {
            self.checkpoints_since_full += 1;
        }
        self.checkpoint_down = false;
    }

    /// Writes whatever is left of the in-flight streaming checkpoint as
    /// one chunk and publishes it (orderly shutdown; the live path writes
    /// one chunk per batch instead). A failure degrades the maintainer;
    /// a fresh attempt starts at the next interval.
    pub fn flush_checkpoint(&mut self) {
        let _ = self.advance_pending(usize::MAX);
        self.note_health();
    }

    /// Takes a **full** checkpoint of the current state now — the
    /// baseline, a resume anchor or a disk-budget rebase — through the
    /// pump's own path: any in-flight checkpoint is abandoned, and the new
    /// blob is begun, drained as one chunk and finished. Its medium ops
    /// are `begin_stream`, one `stream_chunk`, `finish_stream`. A success
    /// advances the compaction floor; a failure degrades the maintainer as
    /// a failed interval checkpoint does.
    ///
    /// # Errors
    /// The encode's or the medium's failure.
    fn checkpoint_full(&mut self) -> io::Result<()> {
        if let Some(p) = self.pending_ckpt.take() {
            self.abandon_pending(&p);
        }
        self.begin_checkpoint(true)?;
        self.advance_pending(usize::MAX)
    }

    /// Forces buffered WAL records to the sink (with the configured
    /// retries), retries a failed hot-budget sweep when the cold tier was
    /// down, and reports the resulting health.
    pub fn sync(&mut self) -> Health {
        if self.wal.pending_records() > 0 || self.wal_down {
            self.commit_wal();
        }
        if self.tier_down && !self.tier_poisoned {
            self.enforce_hot_budget();
        }
        self.health()
    }

    /// Current durability health: [`Health::Degraded`] while the WAL sink
    /// or the checkpoint store is rejecting writes, while the disk
    /// budget is forcing sheds, or while the cold tier is down/poisoned.
    #[must_use]
    pub fn health(&self) -> Health {
        if self.degraded() {
            Health::Degraded {
                buffered_batches: self.wal.pending_records(),
                shed_batches: self.shed_batches,
            }
        } else {
            Health::Healthy
        }
    }

    /// Batches shed by the bounded durability layer over this process
    /// epoch (buffer cap, disk budget, or cold-tier outage).
    #[must_use]
    pub fn shed_batches(&self) -> u64 {
        self.shed_batches
    }

    /// Whether a cold-tier failure after a logged record poisoned the
    /// live state (see [`DurableMaintainer::apply_with`]): every further
    /// batch is rejected typed until the caller rebuilds via recovery.
    #[must_use]
    pub fn tier_poisoned(&self) -> bool {
        self.tier_poisoned
    }

    /// Live (unreclaimed) bytes of the WAL chain, when the sink can
    /// report them (`None` for unsegmented sinks).
    #[must_use]
    pub fn live_wal_bytes(&self) -> Option<u64> {
        self.wal.sink().live_bytes()
    }

    /// The live point database.
    #[must_use]
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// The live summarization.
    #[must_use]
    pub fn bubbles(&self) -> &IncrementalBubbles {
        &self.bubbles
    }

    /// Batches applied over the stream's whole life (across epochs).
    #[must_use]
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// The WAL sink (tests read crash-point bytes from it).
    #[must_use]
    pub fn wal_sink(&self) -> &S {
        self.wal.sink()
    }

    /// The WAL sink, mutably (tests toggle faults on it).
    pub fn wal_sink_mut(&mut self) -> &mut S {
        self.wal.sink_mut()
    }

    /// The checkpoint store.
    #[must_use]
    pub fn checkpoints(&self) -> &C {
        &self.checkpoints
    }

    /// Tears the wrapper apart (tests hand the pieces to [`recover`]).
    #[must_use]
    pub fn into_parts(self) -> (PointStore, IncrementalBubbles, S, C) {
        (
            self.store,
            self.bubbles,
            self.wal.into_sink(),
            self.checkpoints,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idb_store::{MemMedium, ObjectSink};
    use rand::Rng;

    fn fixture(n: usize, seed: u64) -> (PointStore, MaintainerConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = PointStore::new(2);
        for _ in 0..n {
            let p = [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)];
            store.insert(&p, Some(0));
        }
        (store, MaintainerConfig::new(8))
    }

    fn random_batch(store: &PointStore, rng: &mut StdRng) -> Batch {
        let deletes = store.sample_distinct(rng.gen_range(0..4), rng);
        let inserts = (0..rng.gen_range(1..6))
            .map(|_| {
                let p = vec![rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)];
                (p, Some(1u32))
            })
            .collect();
        Batch { deletes, inserts }
    }

    /// Serialized store + summarization: equal bytes are bit-identical
    /// state.
    fn fingerprint(store: &PointStore, ib: &IncrementalBubbles) -> Vec<u8> {
        let mut bytes = Vec::new();
        store.write_snapshot(&mut bytes).expect("vec write");
        ib.write_snapshot(&mut bytes).expect("vec write");
        bytes
    }

    #[test]
    fn checkpoint_blob_round_trips() {
        let (store, config) = fixture(120, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut search = SearchStats::new();
        let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut search);
        let blob = encode_checkpoint(3, 17, &store, &ib).unwrap();
        let (seq, covered, rstore, rib) = decode_checkpoint(&blob).unwrap();
        assert_eq!((seq, covered), (3, 17));
        assert_eq!(fingerprint(&store, &ib), fingerprint(&rstore, &rib));
        // Bit damage inside the blob is a typed error.
        let mut bad = blob.clone();
        bad[blob.len() / 2] ^= 0x08;
        assert!(decode_checkpoint(&bad).is_err());
    }

    #[test]
    fn clean_shutdown_recovers_bit_identically() {
        let (store, config) = fixture(150, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut search = SearchStats::new();
        let dcfg = DurabilityConfig {
            checkpoint_interval: 3,
            ..DurabilityConfig::default()
        };
        let mut dm = DurableMaintainer::create(
            store,
            config,
            dcfg,
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
            &mut rng,
            &mut search,
        )
        .unwrap();
        for _ in 0..10 {
            let batch = random_batch(dm.store(), &mut rng);
            dm.apply(&batch, &mut rng, &mut search).unwrap();
        }
        assert_eq!(dm.health(), Health::Healthy);
        let want = fingerprint(dm.store(), dm.bubbles());
        let (_, _, sink, checkpoints) = dm.into_parts();
        let rec = recover(&sink.bytes(), &checkpoints, &Obs::disabled()).unwrap();
        assert_eq!(rec.batches_durable, 10);
        assert!(!rec.torn_tail);
        assert_eq!(fingerprint(&rec.store, &rec.bubbles), want);
    }

    /// A checksum-valid record whose logged target names no bubble fails
    /// recovery typed, at that record, never a panic.
    #[test]
    fn a_logged_target_past_the_population_is_a_typed_replay_error() {
        use idb_store::wal::{encode_record, read_wal};
        let (store, config) = fixture(150, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let mut search = SearchStats::new();
        let dcfg = DurabilityConfig {
            checkpoint_interval: 100,
            ..DurabilityConfig::default()
        };
        let mut dm = DurableMaintainer::create(
            store,
            config,
            dcfg,
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
            &mut rng,
            &mut search,
        )
        .unwrap();
        for _ in 0..4 {
            let batch = random_batch(dm.store(), &mut rng);
            dm.apply(&batch, &mut rng, &mut search).unwrap();
        }
        let s = dm.bubbles().num_bubbles();
        let (_, _, sink, checkpoints) = dm.into_parts();
        let wal = sink.bytes();
        let log = read_wal(&wal).unwrap();
        // Re-frame record 2 with its last insert's target set to `s`,
        // under a valid checksum.
        let mut rec = log.records[2].clone();
        let index = rec.targets.len() - 1;
        rec.targets[index] = s as u32;
        let mut hostile = wal[..log.ends[1]].to_vec();
        hostile.extend_from_slice(&encode_record(2, &rec));
        hostile.extend_from_slice(&wal[log.ends[2]..]);
        assert_eq!(read_wal(&hostile).unwrap().records[2], rec);
        match recover(&hostile, &checkpoints, &Obs::disabled()) {
            Err(RecoveryError::Replay { record, source }) => {
                assert_eq!(record, 2);
                assert_eq!(
                    source,
                    UpdateError::TargetOutOfRange {
                        index,
                        target: s as u32,
                        bubbles: s,
                    }
                );
            }
            other => panic!("expected a typed replay error, got {other:?}"),
        }
        // The intact log recovers.
        recover(&wal, &checkpoints, &Obs::disabled()).unwrap();
    }

    /// Recovery verifies every WAL record even though it decodes only
    /// those it applies: bit damage inside a record the adopted checkpoint
    /// already covers still fails the recovery at that record's offset,
    /// whether the candidate is a full checkpoint or a delta whose base
    /// covers the record.
    #[test]
    fn damage_inside_a_covered_record_still_fails_recovery() {
        use idb_store::wal::read_wal;
        // Every checkpoint full; or a full one every third, so the newest
        // (after 11 batches, at 10) is a delta over the full one at 6.
        for (full_rebase_interval, delta) in [(1, false), (3, true)] {
            let (store, config) = fixture(150, 21);
            let mut rng = StdRng::seed_from_u64(22);
            let mut search = SearchStats::new();
            let dcfg = DurabilityConfig {
                checkpoint_interval: 2,
                full_rebase_interval,
                ..DurabilityConfig::default()
            };
            let mut dm = DurableMaintainer::create(
                store,
                config,
                dcfg,
                ObjectSink::new(MemMedium::new(), "wal"),
                MemMedium::new(),
                &mut rng,
                &mut search,
            )
            .unwrap();
            for _ in 0..11 {
                let batch = random_batch(dm.store(), &mut rng);
                dm.apply(&batch, &mut rng, &mut search).unwrap();
            }
            let (_, _, sink, checkpoints) = dm.into_parts();
            let wal = sink.bytes();
            let newest = checkpoints.seqs().unwrap().into_iter().max().unwrap();
            let blob = checkpoints.load(newest).unwrap();
            assert_eq!(blob.starts_with(DELTA_CHECKPOINT_MAGIC), delta);
            let intact = recover(&wal, &checkpoints, &Obs::disabled()).unwrap();
            assert_eq!(intact.checkpoint_seq, newest);
            assert_eq!(intact.replayed, 1, "the newest checkpoint covers 10 of 11");
            // Record 3: below the delta's base (6) as well as its coverage,
            // so no candidate ever decodes it.
            let ends = read_wal(&wal).unwrap().ends;
            let offset = ends[2];
            let mut damaged = wal.clone();
            damaged[offset + 12] ^= 0x20;
            match recover(&damaged, &checkpoints, &Obs::disabled()) {
                Err(RecoveryError::CorruptWal { offset: at, detail }) => {
                    assert_eq!(at, offset, "delta {delta}");
                    assert!(detail.contains("checksum"), "{detail}");
                }
                other => panic!("delta {delta}: expected CorruptWal, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_checkpoint_begun_records_its_encode_time() {
        let (store, config) = fixture(150, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut search = SearchStats::new();
        let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut search);
        let obs = Obs::metrics_only();
        ib.set_obs(obs.clone());
        let dcfg = DurabilityConfig {
            checkpoint_interval: 2,
            ..DurabilityConfig::default()
        };
        let mut dm = DurableMaintainer::adopt(
            store,
            ib,
            dcfg,
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
        )
        .unwrap();
        for _ in 0..16 {
            let batch = random_batch(dm.store(), &mut rng);
            dm.apply(&batch, &mut rng, &mut search).unwrap();
        }
        dm.flush_checkpoint();
        dm.checkpoint_full().unwrap();
        // Healthy media: every checkpoint begun (the baseline, the
        // interval ones, full and delta, and the forced one) was taken.
        let m = obs.metrics();
        let taken = m.counter("checkpoint.taken").get();
        assert!(taken >= 4, "baseline, interval and forced: {taken}");
        assert!(m.counter("checkpoint.delta").get() > 0);
        assert_eq!(m.histogram("checkpoint.encode_us").count(), taken);
    }

    /// A cold read outage that strikes a full checkpoint's encode (the
    /// snapshot's one spill read) costs only that checkpoint: the batch
    /// applies, the checkpoint goes down and the dirty window closes, and
    /// after the volume heals the next checkpoint is full and
    /// byte-identical to what a resident twin encodes at the same point.
    #[test]
    fn cold_outage_during_a_full_encode_keeps_the_batch_and_heals() {
        use idb_synth::FaultMedium;
        type Durable = DurableMaintainer<ObjectSink<MemMedium>, MemMedium>;
        let (store, config) = fixture(200, 11);
        let dcfg = |hot_points| DurabilityConfig {
            checkpoint_interval: 1,
            full_rebase_interval: 2,
            checkpoint_chunk_bytes: 1 << 30,
            hot_points,
            ..DurabilityConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut SearchStats::new());
        let adopt = |store: PointStore, hot_points| {
            DurableMaintainer::adopt(
                store,
                ib.clone(),
                dcfg(hot_points),
                ObjectSink::new(MemMedium::new(), "wal"),
                MemMedium::new(),
            )
            .unwrap()
        };
        let cold = FaultMedium::new();
        let mut tiered_store = store.clone();
        tiered_store.enable_tier(Box::new(cold.clone()), 8).unwrap();
        let mut dm = adopt(tiered_store, Some(8));
        let mut twin = adopt(store, None);
        let mut rng = StdRng::seed_from_u64(13);
        let mut search = SearchStats::new();
        let mut step = |dm: &mut Durable, twin: &mut Durable, batch: &Batch, seed: u64| {
            let maintain = !batch.deletes.is_empty();
            let ids = dm.apply_with(batch, seed, maintain, &mut search).unwrap();
            let twin_ids = twin.apply_with(batch, seed, maintain, &mut search);
            assert_eq!(twin_ids.unwrap(), ids);
        };
        // Batch 1 takes a delta checkpoint against the baseline.
        let b1 = random_batch(dm.store(), &mut rng);
        step(&mut dm, &mut twin, &b1, 1);
        assert_eq!(
            (dm.checkpoints_since_full, dm.health()),
            (1, Health::Healthy)
        );
        // Batch 2 is due a full rebase, and the spill read fails. An
        // insert-only batch without maintenance reads no cold record, so
        // it still applies.
        cold.set_read_outage(true);
        let b2 = Batch {
            deletes: Vec::new(),
            inserts: vec![(vec![0.5, -0.5], Some(1)), (vec![3.0, 4.0], None)],
        };
        step(&mut dm, &mut twin, &b2, 2);
        assert!(dm.checkpoint_down && dm.pending_ckpt.is_none());
        assert!(
            dm.bubbles.dirty_slots().is_none(),
            "the dirty window closed"
        );
        assert!(matches!(dm.health(), Health::Degraded { .. }));
        assert!(!dm.tier_poisoned());
        let seq = dm.next_checkpoint_seq;
        assert!(dm.checkpoints().load(seq).is_err(), "nothing was published");
        // Healed: the next checkpoint is full, and byte-identical to the
        // resident twin's encoding of the same state.
        cold.heal();
        let b3 = random_batch(dm.store(), &mut rng);
        step(&mut dm, &mut twin, &b3, 3);
        assert_eq!(dm.health(), Health::Healthy);
        assert_eq!(dm.last_full, Some((seq, 3)));
        let want = encode_checkpoint(seq, 3, twin.store(), twin.bubbles()).unwrap();
        assert_eq!(dm.checkpoints().load(seq).unwrap(), want);
    }

    #[test]
    fn rejected_batches_are_never_logged() {
        let (store, config) = fixture(100, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut search = SearchStats::new();
        let mut dm = DurableMaintainer::create(
            store,
            config,
            DurabilityConfig::default(),
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
            &mut rng,
            &mut search,
        )
        .unwrap();
        let wal_before = dm.wal_sink().bytes().len();
        let bad = Batch {
            deletes: vec![],
            inserts: vec![(vec![f64::NAN, 0.0], None)],
        };
        assert!(dm.apply(&bad, &mut rng, &mut search).is_err());
        assert_eq!(dm.wal_sink().bytes().len(), wal_before);
        assert_eq!(dm.batches_applied(), 0);
    }

    #[test]
    fn missing_everything_is_a_typed_error() {
        let checkpoints = MemMedium::new();
        let err = recover(&[], &checkpoints, &Obs::disabled()).unwrap_err();
        assert!(
            matches!(err, RecoveryError::NoUsableCheckpoint { tried: 0, .. }),
            "{err}"
        );
    }
}
