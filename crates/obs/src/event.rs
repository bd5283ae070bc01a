//! The structured op journal: typed events with cause, affected bubble
//! ids, and duration.
//!
//! Every structural operation of the maintainer (insert, delete,
//! merge-away, split, retire, grow, maintenance rounds, audit/repair),
//! every durability action (WAL append/commit/truncate, checkpoint) and
//! every recovery step emits one [`Event`]. Events are always emitted from
//! the thread driving the maintainer — never from worker threads — so the
//! journal order is identical under `Parallelism::Serial` and
//! `Parallelism::Threads(n)`. The only wall-clock-dependent field is the
//! duration [`Event::us`]; equivalence suites compare journals through
//! [`Event::masked`], which zeroes it.

use std::fmt;

/// Why a structural operation fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Direct consequence of applying an update batch.
    Batch,
    /// The synchronized merge/split maintenance round (Section 4.2).
    Maintain,
    /// The adaptive grow/retire policy.
    Adaptive,
    /// An explicit `retire_bubble` call.
    Retire,
    /// The invariant repair path.
    Repair,
}

impl Cause {
    fn as_str(self) -> &'static str {
        match self {
            Cause::Batch => "batch",
            Cause::Maintain => "maintain",
            Cause::Adaptive => "adaptive",
            Cause::Retire => "retire",
            Cause::Repair => "repair",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "batch" => Cause::Batch,
            "maintain" => Cause::Maintain,
            "adaptive" => Cause::Adaptive,
            "retire" => Cause::Retire,
            "repair" => Cause::Repair,
            _ => return None,
        })
    }
}

/// Which sink operation a fault injector failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkOp {
    /// An `append` call.
    Append,
    /// A `sync` (fsync) call.
    Sync,
}

impl SinkOp {
    fn as_str(self) -> &'static str {
        match self {
            SinkOp::Append => "append",
            SinkOp::Sync => "sync",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "append" => SinkOp::Append,
            "sync" => SinkOp::Sync,
            _ => return None,
        })
    }
}

/// The typed payload of one journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// One point inserted into a bubble.
    Insert {
        /// The receiving bubble index.
        bubble: u32,
    },
    /// One point deleted from a bubble.
    Delete {
        /// The bubble the point was removed from.
        bubble: u32,
    },
    /// An update batch finished applying.
    BatchApplied {
        /// Points inserted by the batch.
        inserts: u32,
        /// Points deleted by the batch.
        deletes: u32,
    },
    /// A bubble's members were redistributed to its neighbours.
    MergeAway {
        /// The dissolved (donor) bubble index.
        donor: u32,
        /// Points redistributed.
        moved: u64,
        /// Why the merge fired.
        cause: Cause,
    },
    /// An over-filled bubble was split onto a freed seed.
    Split {
        /// The over-filled bubble that was split.
        over: u32,
        /// The bubble whose seed received the far half.
        donor: u32,
        /// Points moved onto the donor seed.
        moved: u64,
        /// Why the split fired.
        cause: Cause,
    },
    /// A bubble was retired (merged away and swap-removed).
    RetireBubble {
        /// The retired bubble's index at call time.
        bubble: u32,
        /// The index the former last bubble moved from, when the
        /// swap-remove relocated one.
        swapped: Option<u32>,
    },
    /// A new bubble was spawned from an over-filled one.
    Grow {
        /// The over-filled source bubble.
        from: u32,
        /// The new bubble's index.
        bubble: u32,
    },
    /// A synchronized maintenance round finished.
    MaintainRound {
        /// Merge-away operations performed.
        merges: u32,
        /// Splits performed.
        splits: u32,
        /// `Maintain` for the plain round, `Adaptive` for grow/retire.
        cause: Cause,
    },
    /// An invariant audit finished.
    Audit {
        /// Issues found (0 = green).
        issues: u64,
    },
    /// An invariant repair finished.
    Repair {
        /// Issues the triggering audit reported.
        found: u64,
        /// Bubbles quarantined and rebuilt.
        quarantined: u32,
        /// Seeds re-anchored.
        reseeded: u32,
        /// Points reassigned.
        reassigned: u64,
    },
    /// Bytes were staged onto the WAL (not yet durable).
    WalAppend {
        /// Encoded record bytes staged.
        bytes: u64,
        /// Records staged (currently always 1).
        records: u32,
    },
    /// A group commit flushed staged records and fsynced.
    WalCommit {
        /// Bytes made durable by this commit.
        bytes: u64,
        /// Records in the commit group.
        records: u32,
    },
    /// The WAL was truncated back to its committed prefix.
    WalTruncate {
        /// The length truncated to.
        len: u64,
    },
    /// The segmented WAL sealed its active segment and rotated to a new
    /// one.
    WalRotate {
        /// Epoch of the new active segment.
        epoch: u64,
        /// Sequence number of the new active segment within its epoch.
        seq: u64,
        /// Absolute batch sequence number the new segment starts at.
        base: u64,
        /// Bytes in the segment that was sealed.
        sealed_bytes: u64,
    },
    /// Compaction reclaimed sealed WAL segments fully covered by a
    /// durable checkpoint.
    WalCompact {
        /// Segments deleted.
        segments: u64,
        /// Bytes those segments held.
        bytes: u64,
        /// The checkpoint coverage (absolute batch sequence number) that
        /// made them reclaimable.
        floor: u64,
    },
    /// A checkpoint was persisted.
    Checkpoint {
        /// Checkpoint sequence number.
        seq: u64,
        /// Batches the checkpoint covers.
        covered: u64,
        /// Encoded checkpoint size.
        bytes: u64,
    },
    /// One chunk of a streaming checkpoint was written (the final chunk
    /// is followed by the `checkpoint` event for the same sequence).
    CheckpointChunk {
        /// The streaming checkpoint's sequence number.
        seq: u64,
        /// Bytes written so far, including this chunk.
        written: u64,
        /// Total encoded checkpoint size.
        total: u64,
    },
    /// The degraded-mode buffer hit its hard cap and a batch was shed
    /// with a typed error instead of growing memory without limit.
    StorageShed {
        /// Records buffered when the shed happened.
        buffered: u64,
        /// Batches shed so far in this degradation episode.
        shed: u64,
    },
    /// A batch's maintenance window read points from the cold tier
    /// (aggregated per batch; absent when everything needed was hot).
    TierFetch {
        /// Cold records demand-fetched during the window.
        fetches: u64,
        /// Payload bytes read from the cold medium.
        bytes: u64,
    },
    /// A hot-budget sweep evicted points to the cold tier.
    TierEvict {
        /// Points written out by this sweep.
        evicted: u64,
        /// Resident points after the sweep.
        resident: u64,
    },
    /// Recovery started over a WAL image.
    RecoverStart {
        /// WAL bytes presented to recovery.
        wal_bytes: u64,
    },
    /// Recovery locked onto a usable checkpoint.
    RecoverCheckpoint {
        /// The checkpoint's sequence number.
        seq: u64,
        /// Batches it covers.
        covered: u64,
    },
    /// Recovery finished.
    RecoverDone {
        /// WAL records replayed on top of the checkpoint.
        replayed: u64,
        /// Total durable batches after recovery.
        batches_durable: u64,
        /// Whether a torn final record was discarded.
        torn_tail: bool,
    },
    /// The durable maintainer changed health.
    Health {
        /// `true` when entering degraded mode, `false` on heal.
        degraded: bool,
        /// Batches buffered in memory while degraded.
        buffered: u64,
    },
    /// A fault injector failed a sink operation (test harnesses only).
    SinkFault {
        /// The operation that failed.
        op: SinkOp,
    },
    /// A shard supervisor quarantined or released a maintainer domain
    /// (the domain itself is carried by the event's shard tag).
    Quarantine {
        /// `true` on entering quarantine, `false` on release.
        entered: bool,
    },
    /// One delta-clustering epoch finished: the bubbles were clustered
    /// and the resulting cluster tree diffed against the previous epoch.
    DeltaEpoch {
        /// Bubble slots whose distances were computed: every epoch
        /// clusters from scratch, so this equals `total`.
        touched: u32,
        /// Total bubble slots clustered.
        total: u32,
        /// Typed cluster deltas emitted to subscribers this epoch.
        deltas: u32,
    },
    /// A client registered a cluster-delta subscription.
    DeltaSubscribe {
        /// The subscription's id.
        id: u64,
    },
    /// A client cancelled a cluster-delta subscription.
    DeltaUnsubscribe {
        /// The subscription's id.
        id: u64,
    },
}

impl EventKind {
    /// The journal tag, as used in the JSONL encoding.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Insert { .. } => "insert",
            EventKind::Delete { .. } => "delete",
            EventKind::BatchApplied { .. } => "batch",
            EventKind::MergeAway { .. } => "merge_away",
            EventKind::Split { .. } => "split",
            EventKind::RetireBubble { .. } => "retire_bubble",
            EventKind::Grow { .. } => "grow",
            EventKind::MaintainRound { .. } => "maintain",
            EventKind::Audit { .. } => "audit",
            EventKind::Repair { .. } => "repair",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::WalCommit { .. } => "wal_commit",
            EventKind::WalTruncate { .. } => "wal_truncate",
            EventKind::WalRotate { .. } => "wal_rotate",
            EventKind::WalCompact { .. } => "wal_compact",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::CheckpointChunk { .. } => "checkpoint_chunk",
            EventKind::StorageShed { .. } => "storage_shed",
            EventKind::TierFetch { .. } => "tier_fetch",
            EventKind::TierEvict { .. } => "tier_evict",
            EventKind::RecoverStart { .. } => "recover_start",
            EventKind::RecoverCheckpoint { .. } => "recover_checkpoint",
            EventKind::RecoverDone { .. } => "recover_done",
            EventKind::Health { .. } => "health",
            EventKind::SinkFault { .. } => "sink_fault",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::DeltaEpoch { .. } => "delta_epoch",
            EventKind::DeltaSubscribe { .. } => "delta_subscribe",
            EventKind::DeltaUnsubscribe { .. } => "delta_unsubscribe",
        }
    }

    /// Whether this is a structural summarization operation (as opposed to
    /// durability, recovery or health bookkeeping). The replay-equivalence
    /// suites compare exactly the structural sub-stream.
    #[must_use]
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            EventKind::Insert { .. }
                | EventKind::Delete { .. }
                | EventKind::BatchApplied { .. }
                | EventKind::MergeAway { .. }
                | EventKind::Split { .. }
                | EventKind::RetireBubble { .. }
                | EventKind::Grow { .. }
                | EventKind::MaintainRound { .. }
        )
    }
}

/// One journal entry: a typed payload plus the operation's duration in
/// microseconds (the only wall-clock-dependent field) and, in sharded
/// deployments, the maintainer-domain (shard) the event came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// How long it took, in microseconds. Zero when timing was off.
    pub us: u64,
    /// Which maintainer domain emitted the event: `None` for the classic
    /// single-maintainer deployment, `Some(shard)` when the emitting
    /// [`Obs`](crate::Obs) handle was tagged via
    /// [`Obs::tagged`](crate::Obs::tagged). Journals from a sharded run
    /// interleave domains; [`check_journal_sharded`](crate::check_journal_sharded)
    /// demultiplexes on this tag before checking the per-maintainer
    /// invariants.
    pub shard: Option<u32>,
}

impl Event {
    /// An untagged event (the classic single-maintainer form).
    #[must_use]
    pub fn new(kind: EventKind, us: u64) -> Event {
        Event {
            kind,
            us,
            shard: None,
        }
    }

    /// The event with its duration zeroed — the canonical form the
    /// bit-identity suites compare, since durations are the only field
    /// that may differ between otherwise identical runs. The shard tag is
    /// kept: it is deterministic.
    #[must_use]
    pub fn masked(&self) -> Event {
        Event {
            kind: self.kind.clone(),
            us: 0,
            shard: self.shard,
        }
    }

    /// Encodes the event as one flat JSON object (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"k\":\"");
        s.push_str(self.kind.tag());
        s.push('"');
        if let Some(shard) = self.shard {
            s.push_str(",\"shard\":");
            s.push_str(&shard.to_string());
        }
        let num = |s: &mut String, key: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        match &self.kind {
            EventKind::Insert { bubble } | EventKind::Delete { bubble } => {
                num(&mut s, "bubble", u64::from(*bubble));
            }
            EventKind::BatchApplied { inserts, deletes } => {
                num(&mut s, "inserts", u64::from(*inserts));
                num(&mut s, "deletes", u64::from(*deletes));
            }
            EventKind::MergeAway {
                donor,
                moved,
                cause,
            } => {
                num(&mut s, "donor", u64::from(*donor));
                num(&mut s, "moved", *moved);
                push_str_field(&mut s, "cause", cause.as_str());
            }
            EventKind::Split {
                over,
                donor,
                moved,
                cause,
            } => {
                num(&mut s, "over", u64::from(*over));
                num(&mut s, "donor", u64::from(*donor));
                num(&mut s, "moved", *moved);
                push_str_field(&mut s, "cause", cause.as_str());
            }
            EventKind::RetireBubble { bubble, swapped } => {
                num(&mut s, "bubble", u64::from(*bubble));
                if let Some(sw) = swapped {
                    num(&mut s, "swapped", u64::from(*sw));
                }
            }
            EventKind::Grow { from, bubble } => {
                num(&mut s, "from", u64::from(*from));
                num(&mut s, "bubble", u64::from(*bubble));
            }
            EventKind::MaintainRound {
                merges,
                splits,
                cause,
            } => {
                num(&mut s, "merges", u64::from(*merges));
                num(&mut s, "splits", u64::from(*splits));
                push_str_field(&mut s, "cause", cause.as_str());
            }
            EventKind::Audit { issues } => num(&mut s, "issues", *issues),
            EventKind::Repair {
                found,
                quarantined,
                reseeded,
                reassigned,
            } => {
                num(&mut s, "found", *found);
                num(&mut s, "quarantined", u64::from(*quarantined));
                num(&mut s, "reseeded", u64::from(*reseeded));
                num(&mut s, "reassigned", *reassigned);
            }
            EventKind::WalAppend { bytes, records } => {
                num(&mut s, "bytes", *bytes);
                num(&mut s, "records", u64::from(*records));
            }
            EventKind::WalCommit { bytes, records } => {
                num(&mut s, "bytes", *bytes);
                num(&mut s, "records", u64::from(*records));
            }
            EventKind::WalTruncate { len } => num(&mut s, "len", *len),
            EventKind::WalRotate {
                epoch,
                seq,
                base,
                sealed_bytes,
            } => {
                num(&mut s, "epoch", *epoch);
                num(&mut s, "seq", *seq);
                num(&mut s, "base", *base);
                num(&mut s, "sealed_bytes", *sealed_bytes);
            }
            EventKind::WalCompact {
                segments,
                bytes,
                floor,
            } => {
                num(&mut s, "segments", *segments);
                num(&mut s, "bytes", *bytes);
                num(&mut s, "floor", *floor);
            }
            EventKind::Checkpoint {
                seq,
                covered,
                bytes,
            } => {
                num(&mut s, "seq", *seq);
                num(&mut s, "covered", *covered);
                num(&mut s, "bytes", *bytes);
            }
            EventKind::CheckpointChunk {
                seq,
                written,
                total,
            } => {
                num(&mut s, "seq", *seq);
                num(&mut s, "written", *written);
                num(&mut s, "total", *total);
            }
            EventKind::StorageShed { buffered, shed } => {
                num(&mut s, "buffered", *buffered);
                num(&mut s, "shed", *shed);
            }
            EventKind::TierFetch { fetches, bytes } => {
                num(&mut s, "fetches", *fetches);
                num(&mut s, "bytes", *bytes);
            }
            EventKind::TierEvict { evicted, resident } => {
                num(&mut s, "evicted", *evicted);
                num(&mut s, "resident", *resident);
            }
            EventKind::RecoverStart { wal_bytes } => num(&mut s, "wal_bytes", *wal_bytes),
            EventKind::RecoverCheckpoint { seq, covered } => {
                num(&mut s, "seq", *seq);
                num(&mut s, "covered", *covered);
            }
            EventKind::RecoverDone {
                replayed,
                batches_durable,
                torn_tail,
            } => {
                num(&mut s, "replayed", *replayed);
                num(&mut s, "batches_durable", *batches_durable);
                s.push_str(",\"torn_tail\":");
                s.push_str(if *torn_tail { "true" } else { "false" });
            }
            EventKind::Health { degraded, buffered } => {
                s.push_str(",\"degraded\":");
                s.push_str(if *degraded { "true" } else { "false" });
                num(&mut s, "buffered", *buffered);
            }
            EventKind::SinkFault { op } => push_str_field(&mut s, "op", op.as_str()),
            EventKind::Quarantine { entered } => {
                s.push_str(",\"entered\":");
                s.push_str(if *entered { "true" } else { "false" });
            }
            EventKind::DeltaEpoch {
                touched,
                total,
                deltas,
            } => {
                num(&mut s, "touched", u64::from(*touched));
                num(&mut s, "total", u64::from(*total));
                num(&mut s, "deltas", u64::from(*deltas));
            }
            EventKind::DeltaSubscribe { id } | EventKind::DeltaUnsubscribe { id } => {
                num(&mut s, "id", *id);
            }
        }
        num(&mut s, "us", self.us);
        s.push('}');
        s
    }

    /// Parses one line of the JSONL encoding back into an event.
    ///
    /// Returns `None` on anything that is not a flat object produced by
    /// [`Event::to_jsonl`] — the journal checker treats that as damage.
    #[must_use]
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| fields.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);
        let get_u64 = |k: &str| get(k).and_then(|v| v.parse::<u64>().ok());
        let get_u32 = |k: &str| get(k).and_then(|v| v.parse::<u32>().ok());
        let get_bool = |k: &str| match get(k) {
            Some("true") => Some(true),
            Some("false") => Some(false),
            _ => None,
        };
        let get_cause = |k: &str| get(k).and_then(Cause::parse);
        let kind = match get("k")? {
            "insert" => EventKind::Insert {
                bubble: get_u32("bubble")?,
            },
            "delete" => EventKind::Delete {
                bubble: get_u32("bubble")?,
            },
            "batch" => EventKind::BatchApplied {
                inserts: get_u32("inserts")?,
                deletes: get_u32("deletes")?,
            },
            "merge_away" => EventKind::MergeAway {
                donor: get_u32("donor")?,
                moved: get_u64("moved")?,
                cause: get_cause("cause")?,
            },
            "split" => EventKind::Split {
                over: get_u32("over")?,
                donor: get_u32("donor")?,
                moved: get_u64("moved")?,
                cause: get_cause("cause")?,
            },
            "retire_bubble" => EventKind::RetireBubble {
                bubble: get_u32("bubble")?,
                swapped: get_u32("swapped"),
            },
            "grow" => EventKind::Grow {
                from: get_u32("from")?,
                bubble: get_u32("bubble")?,
            },
            "maintain" => EventKind::MaintainRound {
                merges: get_u32("merges")?,
                splits: get_u32("splits")?,
                cause: get_cause("cause")?,
            },
            "audit" => EventKind::Audit {
                issues: get_u64("issues")?,
            },
            "repair" => EventKind::Repair {
                found: get_u64("found")?,
                quarantined: get_u32("quarantined")?,
                reseeded: get_u32("reseeded")?,
                reassigned: get_u64("reassigned")?,
            },
            "wal_append" => EventKind::WalAppend {
                bytes: get_u64("bytes")?,
                records: get_u32("records")?,
            },
            "wal_commit" => EventKind::WalCommit {
                bytes: get_u64("bytes")?,
                records: get_u32("records")?,
            },
            "wal_truncate" => EventKind::WalTruncate {
                len: get_u64("len")?,
            },
            "wal_rotate" => EventKind::WalRotate {
                epoch: get_u64("epoch")?,
                seq: get_u64("seq")?,
                base: get_u64("base")?,
                sealed_bytes: get_u64("sealed_bytes")?,
            },
            "wal_compact" => EventKind::WalCompact {
                segments: get_u64("segments")?,
                bytes: get_u64("bytes")?,
                floor: get_u64("floor")?,
            },
            "checkpoint" => EventKind::Checkpoint {
                seq: get_u64("seq")?,
                covered: get_u64("covered")?,
                bytes: get_u64("bytes")?,
            },
            "checkpoint_chunk" => EventKind::CheckpointChunk {
                seq: get_u64("seq")?,
                written: get_u64("written")?,
                total: get_u64("total")?,
            },
            "storage_shed" => EventKind::StorageShed {
                buffered: get_u64("buffered")?,
                shed: get_u64("shed")?,
            },
            "tier_fetch" => EventKind::TierFetch {
                fetches: get_u64("fetches")?,
                bytes: get_u64("bytes")?,
            },
            "tier_evict" => EventKind::TierEvict {
                evicted: get_u64("evicted")?,
                resident: get_u64("resident")?,
            },
            "recover_start" => EventKind::RecoverStart {
                wal_bytes: get_u64("wal_bytes")?,
            },
            "recover_checkpoint" => EventKind::RecoverCheckpoint {
                seq: get_u64("seq")?,
                covered: get_u64("covered")?,
            },
            "recover_done" => EventKind::RecoverDone {
                replayed: get_u64("replayed")?,
                batches_durable: get_u64("batches_durable")?,
                torn_tail: get_bool("torn_tail")?,
            },
            "health" => EventKind::Health {
                degraded: get_bool("degraded")?,
                buffered: get_u64("buffered")?,
            },
            "sink_fault" => EventKind::SinkFault {
                op: get("op").and_then(SinkOp::parse)?,
            },
            "quarantine" => EventKind::Quarantine {
                entered: get_bool("entered")?,
            },
            "delta_epoch" => EventKind::DeltaEpoch {
                touched: get_u32("touched")?,
                total: get_u32("total")?,
                deltas: get_u32("deltas")?,
            },
            "delta_subscribe" => EventKind::DeltaSubscribe { id: get_u64("id")? },
            "delta_unsubscribe" => EventKind::DeltaUnsubscribe { id: get_u64("id")? },
            _ => return None,
        };
        Some(Event {
            kind,
            us: get_u64("us")?,
            shard: get_u32("shard"),
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_jsonl())
    }
}

fn push_str_field(s: &mut String, key: &str, v: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    s.push_str(v);
    s.push('"');
}

/// Splits a flat `{"key":value,...}` object into `(key, raw value)` pairs.
/// Values are either bare tokens (numbers, booleans) or simple quoted
/// strings without escapes — exactly what [`Event::to_jsonl`] produces.
fn parse_flat_object(line: &str) -> Option<Vec<(&str, &str)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    for pair in body.split(',') {
        let (k, v) = pair.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        let v = v.trim();
        let v = if let Some(inner) = v.strip_prefix('"') {
            inner.strip_suffix('"')?
        } else {
            v
        };
        out.push((k, v));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Event> {
        vec![
            Event::new(EventKind::Insert { bubble: 7 }, 3),
            Event::new(EventKind::Delete { bubble: 0 }, 0),
            Event::new(
                EventKind::BatchApplied {
                    inserts: 12,
                    deletes: 9,
                },
                88,
            ),
            Event::new(
                EventKind::MergeAway {
                    donor: 3,
                    moved: 17,
                    cause: Cause::Maintain,
                },
                41,
            ),
            Event::new(
                EventKind::Split {
                    over: 1,
                    donor: 3,
                    moved: 9,
                    cause: Cause::Adaptive,
                },
                52,
            ),
            Event::new(
                EventKind::RetireBubble {
                    bubble: 2,
                    swapped: Some(11),
                },
                60,
            ),
            Event::new(
                EventKind::RetireBubble {
                    bubble: 5,
                    swapped: None,
                },
                61,
            ),
            Event::new(
                EventKind::Grow {
                    from: 4,
                    bubble: 12,
                },
                70,
            ),
            Event::new(
                EventKind::MaintainRound {
                    merges: 2,
                    splits: 2,
                    cause: Cause::Maintain,
                },
                300,
            ),
            Event::new(EventKind::Audit { issues: 0 }, 15),
            Event::new(
                EventKind::Repair {
                    found: 4,
                    quarantined: 2,
                    reseeded: 1,
                    reassigned: 33,
                },
                900,
            ),
            Event::new(
                EventKind::WalAppend {
                    bytes: 256,
                    records: 1,
                },
                2,
            ),
            Event::new(
                EventKind::WalCommit {
                    bytes: 512,
                    records: 2,
                },
                1800,
            ),
            Event::new(EventKind::WalTruncate { len: 20 }, 5),
            Event::new(
                EventKind::WalRotate {
                    epoch: 1,
                    seq: 4,
                    base: 96,
                    sealed_bytes: 4096,
                },
                9,
            ),
            Event::new(
                EventKind::WalCompact {
                    segments: 3,
                    bytes: 12_288,
                    floor: 96,
                },
                14,
            ),
            Event::new(
                EventKind::Checkpoint {
                    seq: 3,
                    covered: 12,
                    bytes: 40_000,
                },
                2500,
            ),
            Event::new(
                EventKind::CheckpointChunk {
                    seq: 3,
                    written: 16_384,
                    total: 40_000,
                },
                30,
            ),
            Event::new(
                EventKind::StorageShed {
                    buffered: 1024,
                    shed: 2,
                },
                0,
            ),
            Event::new(
                EventKind::TierFetch {
                    fetches: 12,
                    bytes: 768,
                },
                4,
            ),
            Event::new(
                EventKind::TierEvict {
                    evicted: 32,
                    resident: 256,
                },
                4,
            ),
            Event::new(EventKind::RecoverStart { wal_bytes: 812 }, 0),
            Event::new(EventKind::RecoverCheckpoint { seq: 2, covered: 8 }, 120),
            Event::new(
                EventKind::RecoverDone {
                    replayed: 4,
                    batches_durable: 12,
                    torn_tail: true,
                },
                4000,
            ),
            Event::new(
                EventKind::Health {
                    degraded: true,
                    buffered: 3,
                },
                0,
            ),
            Event::new(EventKind::SinkFault { op: SinkOp::Sync }, 0),
            Event::new(EventKind::Quarantine { entered: true }, 0),
            Event::new(EventKind::Quarantine { entered: false }, 7),
            Event::new(
                EventKind::DeltaEpoch {
                    touched: 3,
                    total: 40,
                    deltas: 5,
                },
                150,
            ),
            Event::new(EventKind::DeltaSubscribe { id: 2 }, 0),
            Event::new(EventKind::DeltaUnsubscribe { id: 2 }, 1),
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        for ev in corpus() {
            let line = ev.to_jsonl();
            let back =
                Event::parse_jsonl(&line).unwrap_or_else(|| panic!("failed to parse back: {line}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn jsonl_round_trips_the_shard_tag() {
        for mut ev in corpus() {
            ev.shard = Some(3);
            let line = ev.to_jsonl();
            assert!(line.contains("\"shard\":3"), "{line}");
            let back =
                Event::parse_jsonl(&line).unwrap_or_else(|| panic!("failed to parse back: {line}"));
            assert_eq!(back, ev, "{line}");
        }
        // Untagged lines parse back to an untagged event.
        let plain = Event::new(EventKind::Insert { bubble: 1 }, 9);
        assert_eq!(Event::parse_jsonl(&plain.to_jsonl()), Some(plain));
    }

    #[test]
    fn masking_zeroes_only_the_duration() {
        let mut ev = Event::new(EventKind::Insert { bubble: 9 }, 77);
        ev.shard = Some(2);
        let m = ev.masked();
        assert_eq!(m.us, 0);
        assert_eq!(m.kind, ev.kind);
        assert_eq!(m.shard, Some(2));
    }

    #[test]
    fn damaged_lines_parse_to_none() {
        for line in [
            "",
            "{}",
            "not json",
            "{\"k\":\"insert\"}",                        // missing fields
            "{\"k\":\"insert\",\"bubble\":-1,\"us\":0}", // negative
            "{\"k\":\"nope\",\"us\":0}",                 // unknown tag
            "{\"k\":\"split\",\"over\":1,\"donor\":2,\"moved\":3,\"cause\":\"weird\",\"us\":0}",
            "{\"k\":\"build\",\"points\":1000,\"bubbles\":40,\"us\":0}", // retired tag
        ] {
            assert!(Event::parse_jsonl(line).is_none(), "{line:?}");
        }
    }

    #[test]
    fn structural_classification_matches_the_replay_contract() {
        assert!(EventKind::Insert { bubble: 0 }.is_structural());
        assert!(EventKind::MaintainRound {
            merges: 0,
            splits: 0,
            cause: Cause::Maintain
        }
        .is_structural());
        assert!(!EventKind::WalCommit {
            bytes: 0,
            records: 0
        }
        .is_structural());
        assert!(!EventKind::Audit { issues: 0 }.is_structural());
        assert!(!EventKind::Health {
            degraded: false,
            buffered: 0
        }
        .is_structural());
    }
}
