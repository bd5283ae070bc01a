//! Layer-by-layer replay of a traced run.
//!
//! The live loop can only time the router's public calls; everything
//! below `drain` happens inside one call. So after the loop, each
//! partition's WAL — every epoch, captured at each crash and at the end
//! — is replayed from the partition's initial state through the layer
//! APIs the durable path is built from, in the durable path's order,
//! timing each call: `check_batch` (core), `prefetch` of deleted points
//! (store, tiered workloads), `WalWriter::append`/`commit` on a
//! `FileSink` with the same group commit (store), `try_apply_batch`
//! (core + geometry), `try_maintain` with the logged round seed (core),
//! a full `encode_checkpoint` saved to `FsCheckpoints` where the durable
//! path takes its full checkpoints (store; see [`PartitionReplay::step`])
//! and `enforce_hot_budget` (store, tiered workloads).
//!
//! The replay runs in the live loop's order — batch by batch, partition
//! by partition — so each partition's calls run among the others' as
//! they did live. Two more things the live loop does between batches
//! change how fast the next batch runs, so the replay mirrors them
//! untimed: before a batch that followed an epoch or a restart it evicts
//! the CPU caches (an epoch walks megabytes of pair cache, plot and
//! tree), and at each restart a tiered store is rebuilt untiered and
//! spilled to a fresh cold file, as recovery does.
//!
//! The replay must end byte-identical (store and bubble snapshots) to
//! the live partition, which checks the WAL, the recovery path and the
//! replay against each other.

use crate::trace::Tracer;
use crate::workload::Config;
use idb_core::{encode_checkpoint, CheckpointStore, FsCheckpoints, IncrementalBubbles};
use idb_geometry::SearchStats;
use idb_obs::Obs;
use idb_shard::{partition_round_seed, route_point};
use idb_store::wal::{read_wal, wal_header, WAL_HEADER_LEN};
use idb_store::{Batch, FileSink, FsCold, PointStore, WalRecord, WalWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bytes written to evict the CPU caches: several times the reference
/// host's 2 MiB per-core L2.
const EVICT_BYTES: usize = 16 << 20;

/// What the loop saw of one partition, for its replay.
#[derive(Debug, Clone, Default)]
pub struct PartitionLog {
    /// The WAL epoch files, oldest first: one per crash, then the final.
    pub wal_epochs: Vec<PathBuf>,
    /// The client batch each of the partition's WAL records came from.
    pub batches: Vec<u32>,
}

/// Counters summed over every replayed partition.
#[derive(Debug, Default)]
pub struct ReplayTotals {
    pub records: u64,
    /// Point inserts + deletes replayed.
    pub ops: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub search: SearchStats,
    pub splits: u64,
    pub released_points: u64,
    /// Over- plus under-filled bubbles, summed over maintenance rounds.
    pub misfits: u64,
    /// Bubbles classified, summed over maintenance rounds.
    pub classified: u64,
}

/// Reads one partition's WAL epochs record by record, keeping only the
/// current record in memory (an epoch of `ingest_d10` decodes to tens of
/// megabytes per partition).
struct WalCursor {
    epochs: Vec<PathBuf>,
    next_epoch: usize,
    dim: usize,
    open: Option<OpenEpoch>,
}

/// The WAL epoch a cursor is reading.
struct OpenEpoch {
    file: std::fs::File,
    base: u64,
    /// Byte range of each record in the file.
    ranges: Vec<(usize, usize)>,
    next: usize,
}

impl WalCursor {
    fn new(epochs: &[PathBuf], dim: usize) -> Self {
        Self {
            epochs: epochs.to_vec(),
            next_epoch: 0,
            dim,
            open: None,
        }
    }

    /// The next record, with the base of its epoch when it is the
    /// epoch's first; `None` after the last epoch.
    fn next(&mut self) -> Result<Option<(Option<u64>, WalRecord)>, String> {
        let mut first = None;
        loop {
            if let Some(open) = self.open.as_mut() {
                if let Some(&(start, end)) = open.ranges.get(open.next) {
                    open.next += 1;
                    // One record behind a copy of the header parses alone.
                    let mut bytes = wal_header(self.dim, open.base).to_vec();
                    bytes.resize(WAL_HEADER_LEN + end - start, 0);
                    open.file
                        .read_exact_at(&mut bytes[WAL_HEADER_LEN..], start as u64)
                        .map_err(|e| format!("read WAL record: {e}"))?;
                    let mut log =
                        read_wal(&bytes).map_err(|e| format!("decode WAL record: {e}"))?;
                    let rec = log.records.pop().ok_or("a WAL record decoded to nothing")?;
                    return Ok(Some((first, rec)));
                }
            }
            let Some(path) = self.epochs.get(self.next_epoch) else {
                return Ok(None);
            };
            self.next_epoch += 1;
            let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let log = read_wal(&bytes).map_err(|e| format!("decode {}: {e}", path.display()))?;
            if log.torn_tail {
                return Err(format!("{}: torn tail after a sync", path.display()));
            }
            let starts = std::iter::once(WAL_HEADER_LEN).chain(log.ends.iter().copied());
            let file =
                std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
            first = Some(log.base);
            self.open = Some(OpenEpoch {
                file,
                base: log.base,
                ranges: starts.zip(log.ends.iter().copied()).collect(),
                next: 0,
            });
        }
    }
}

/// One partition being replayed.
struct PartitionReplay {
    p: u32,
    store: PointStore,
    bubbles: IncrementalBubbles,
    wal: WalWriter<FileSink>,
    ckpt: FsCheckpoints,
    /// Records applied when the newest checkpoint (or the start of the
    /// WAL epoch, which the durable path anchors with one) was taken.
    ckpt_at: u64,
    search: SearchStats,
    applied: u64,
    epochs: usize,
    cursor: WalCursor,
}

/// Replays every partition's WAL in the live loop's order — client batch
/// by client batch, partition by partition — so each partition's calls
/// run among the others' as they did live, and returns whether every
/// partition ends byte-identical to its live snapshot.
///
/// # Errors
/// A message when a WAL epoch does not decode or continue the previous
/// one, the records and the batch log disagree, or a layer call fails.
pub fn replay(
    cfg: &Config,
    initial: &Batch,
    dir: &Path,
    logs: &[PartitionLog],
    live: &[Vec<u8>],
    tr: &mut Tracer,
    totals: &mut ReplayTotals,
) -> Result<bool, String> {
    let mut parts = (0..cfg.partitions)
        .zip(logs)
        .map(|(p, log)| PartitionReplay::new(cfg, initial, dir, p, log))
        .collect::<Result<Vec<_>, String>>()?;
    let mut next = vec![0usize; logs.len()];
    let mut evict = vec![0u8; EVICT_BYTES];
    for i in 0..cfg.batches as u32 {
        // The live batch ran right after set-up, an epoch or a restart,
        // whose memory traffic left the caches cold.
        if i as usize % cfg.refresh_every == 0 || i as usize % cfg.restart_every == 0 {
            for byte in evict.iter_mut().step_by(64) {
                *byte = byte.wrapping_add(1);
            }
            std::hint::black_box(&evict);
        }
        for ((part, log), at) in parts.iter_mut().zip(logs).zip(&mut next) {
            if log.batches.get(*at) == Some(&i) {
                *at += 1;
                part.step(cfg, dir, tr, totals)?;
            }
        }
    }
    let mut identical = true;
    for (part, snapshot) in parts.into_iter().zip(live) {
        identical &= part.finish(totals, snapshot)?;
    }
    Ok(identical)
}

impl PartitionReplay {
    /// The partition's initial state, exactly as `ShardRouter::create`
    /// builds it: its routed share of the initial batch in batch order,
    /// summarized with the partition's derived round-seed stream.
    fn new(
        cfg: &Config,
        initial: &Batch,
        dir: &Path,
        p: u32,
        log: &PartitionLog,
    ) -> Result<Self, String> {
        let mut store = PointStore::new(cfg.dim);
        for (coords, label) in &initial.inserts {
            if route_point(coords, cfg.partitions) == p {
                store.insert(coords, *label);
            }
        }
        let mut rng = StdRng::seed_from_u64(partition_round_seed(cfg.router_seed(), p));
        let mut bubbles =
            IncrementalBubbles::build(&store, cfg.maintainer(), &mut rng, &mut SearchStats::new());
        bubbles.set_obs(Obs::disabled());
        let sink = FileSink::create(dir.join(format!("wal-{p}.idbw")))
            .map_err(|e| format!("replay WAL: {e}"))?;
        let mut wal = WalWriter::new(sink, cfg.dim, 0, cfg.group_commit);
        wal.commit()
            .map_err(|e| format!("replay WAL header: {e}"))?;
        let ckpt = FsCheckpoints::open(dir.join(format!("ckpt-{p}")))
            .map_err(|e| format!("replay checkpoints: {e}"))?;
        Ok(Self {
            p,
            store,
            bubbles,
            wal,
            ckpt,
            ckpt_at: 0,
            search: SearchStats::new(),
            applied: 0,
            epochs: 0,
            cursor: WalCursor::new(&log.wal_epochs, cfg.dim),
        })
    }

    /// What set-up and each restart leave behind at the start of a WAL
    /// epoch: a tiered store spilled to a fresh cold file (recovery
    /// rebuilds it untiered first) and a checkpoint anchor, taken outside
    /// `drain` and so not replayed.
    fn begin_epoch(&mut self, cfg: &Config, dir: &Path, base: u64) -> Result<(), String> {
        let p = self.p;
        if base != self.applied {
            return Err(format!(
                "partition {p}: a WAL epoch starts at record {base} after {} replayed",
                self.applied
            ));
        }
        if let Some(hot) = cfg.hot_points {
            if self.store.tiered() {
                let mut snap = Vec::new();
                self.store
                    .write_snapshot(&mut snap)
                    .map_err(|e| format!("replay store snapshot: {e}"))?;
                self.store = PointStore::read_snapshot(&mut snap.as_slice())
                    .map_err(|e| format!("replay store snapshot: {e}"))?;
            }
            let cold = FsCold::create(dir.join(format!("cold-{p}-{}.points", self.epochs)))
                .map_err(|e| format!("replay cold tier: {e}"))?;
            self.store
                .enable_tier(Box::new(cold), hot.max(1))
                .map_err(|e| format!("replay cold tier: {e}"))?;
        }
        self.ckpt_at = self.applied;
        self.epochs += 1;
        Ok(())
    }

    /// Replays the partition's next WAL record, timing each layer call.
    fn step(
        &mut self,
        cfg: &Config,
        dir: &Path,
        tr: &mut Tracer,
        totals: &mut ReplayTotals,
    ) -> Result<(), String> {
        let p = self.p;
        let Some((epoch_base, rec)) = self.cursor.next()? else {
            return Err(format!(
                "partition {p}: fewer WAL records than batches routed to it"
            ));
        };
        if let Some(base) = epoch_base {
            self.begin_epoch(cfg, dir, base)?;
        }
        let at = self.applied;
        let id = (u64::from(p) << 32) | at;
        let err = |e: &dyn std::fmt::Display| format!("partition {p} record {at}: {e}");
        let (store, bubbles) = (&mut self.store, &mut self.bubbles);
        let t0 = Instant::now();
        let root = tr.open("replay.record", t0, None, id);
        bubbles
            .check_batch(store, &rec.batch)
            .map_err(|e| err(&e))?;
        let mut t = Instant::now();
        tr.record("core.validate", t0, t, Some(root), id);
        if store.tiered() {
            store.prefetch(&rec.batch.deletes).map_err(|e| err(&e))?;
            let now = Instant::now();
            tr.record("store.prefetch", t, now, Some(root), id);
            t = now;
        }
        // The durable path logs a copy of the batch it was handed.
        self.wal.append(&WalRecord {
            batch: rec.batch.clone(),
            ..rec
        });
        let t1 = Instant::now();
        tr.record("store.wal_append", t, t1, Some(root), id);
        if self.wal.wants_commit() {
            self.wal.commit().map_err(|e| err(&e))?;
            tr.record("store.wal_commit", t1, Instant::now(), Some(root), id);
        }
        let t2 = Instant::now();
        bubbles
            .try_apply_batch(store, &rec.batch, &mut self.search)
            .map_err(|e| err(&e))?;
        tr.record("core.apply", t2, Instant::now(), Some(root), id);
        if rec.maintain {
            let t3 = Instant::now();
            let mut round = StdRng::seed_from_u64(rec.round_seed);
            let report = bubbles
                .try_maintain(store, &mut round, &mut self.search)
                .map_err(|e| err(&e))?;
            tr.record("core.maintain", t3, Instant::now(), Some(root), id);
            totals.splits += report.splits as u64;
            totals.released_points += report.released_points;
            totals.misfits += (report.over_filled + report.under_filled) as u64;
            totals.classified += bubbles.num_bubbles() as u64;
        }
        self.applied += 1;
        // The durable path checkpoints every `checkpoint_interval` records,
        // but only every `full_rebase_interval`-th is a full encode; the
        // others hold just the bubbles dirtied since, and the full ones,
        // which serialize the whole store (reading a tiered store's cold
        // points back), are the bulk of the cost. The replay takes those
        // and leaves the deltas out: encoding a full checkpoint at every
        // interval charged `fsync_tiered` about four times the live
        // path's checkpoint work.
        let full_every = cfg.checkpoint_interval * cfg.durability().full_rebase_interval;
        if self.applied - self.ckpt_at >= full_every {
            let t4 = Instant::now();
            let blob = encode_checkpoint(self.applied, self.applied, store, bubbles)
                .map_err(|e| err(&e))?;
            let t5 = Instant::now();
            tr.record("store.checkpoint_encode", t4, t5, Some(root), id);
            // Each replaces the previous one, so the replay's disk use stays
            // at one checkpoint per partition, as the live path's compaction
            // keeps it bounded.
            self.ckpt.save(0, &blob).map_err(|e| err(&e))?;
            tr.record("store.checkpoint_write", t5, Instant::now(), Some(root), id);
            self.ckpt_at = self.applied;
            totals.checkpoints += 1;
            totals.checkpoint_bytes += blob.len() as u64;
        }
        if store.tiered() {
            let t6 = Instant::now();
            store.enforce_hot_budget().map_err(|e| err(&e))?;
            tr.record("store.evict", t6, Instant::now(), Some(root), id);
        }
        tr.close(root, Instant::now());
        totals.records += 1;
        totals.ops += rec.batch.len() as u64;
        Ok(())
    }

    /// Flushes the WAL, folds the counters in and compares the final
    /// state with the live partition's `snapshot`.
    fn finish(mut self, totals: &mut ReplayTotals, snapshot: &[u8]) -> Result<bool, String> {
        if self.cursor.next()?.is_some() {
            return Err(format!(
                "partition {}: more WAL records than batches routed to it",
                self.p
            ));
        }
        self.wal
            .commit()
            .map_err(|e| format!("replay WAL commit: {e}"))?;
        totals.wal_bytes += self.wal.committed_len();
        totals.search += self.search;
        let mut mine = Vec::with_capacity(snapshot.len());
        self.store
            .write_snapshot(&mut mine)
            .map_err(|e| format!("replay store snapshot: {e}"))?;
        self.bubbles
            .write_snapshot(&mut mine)
            .map_err(|e| format!("replay bubbles snapshot: {e}"))?;
        Ok(mine == snapshot)
    }
}
