//! The structured op journal: typed events with cause, affected bubble
//! ids, and duration.
//!
//! Every structural operation of the maintainer (insert, delete,
//! merge-away, split, maintenance rounds, audit/repair),
//! every durability action (WAL append/commit/truncate, checkpoint) and
//! every recovery step emits one [`Event`]. Events are always emitted from
//! the thread driving the maintainer — never from worker threads — so the
//! journal order is identical under `Parallelism::Serial` and
//! `Parallelism::Threads(n)`. The only wall-clock-dependent field is the
//! duration [`Event::us`]; equivalence suites compare journals through
//! [`Event::masked`], which zeroes it.
//!
//! Each event kind is declared once, in the `events!` table below: its
//! variant, its journal tag and its fields in encoding order. The enum,
//! [`EventKind::tag`] and the JSONL field encoder and decoder are all
//! generated from that table, so an event's format has one definition.

use std::fmt::{self, Write as _};

/// One JSONL field type: how a value is written after its key and read
/// back from the raw text [`parse_flat_object`] split out.
trait Field: Sized {
    /// Appends `,"key":value` (nothing when there is no value to write).
    fn put(&self, key: &str, out: &mut String);

    /// Reads the value from the field's raw text (`None` when the key is
    /// absent); `None` when the value is missing or malformed.
    fn take(raw: Option<&str>) -> Option<Self>;
}

/// Appends `,"key":`, the part every field shares.
fn put_key(key: &str, out: &mut String) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// Numbers and booleans: bare tokens in their `Display` spelling.
macro_rules! bare_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, key: &str, out: &mut String) {
                put_key(key, out);
                let _ = write!(out, "{self}");
            }

            fn take(raw: Option<&str>) -> Option<Self> {
                raw?.parse().ok()
            }
        }
    )*};
}

bare_fields!(u32, u64, bool);

/// An optional value is written only when present; a malformed one fails
/// the line rather than reading as absent.
impl Field for Option<u32> {
    fn put(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.put(key, out);
        }
    }

    fn take(raw: Option<&str>) -> Option<Self> {
        raw.map_or(Some(None), |v| u32::take(Some(v)).map(Some))
    }
}

/// A fieldless enum journaled as a quoted word, one word per variant.
macro_rules! spelled {
    (
        $(#[$doc:meta])*
        $name:ident { $( $(#[$vdoc:meta])* $variant:ident = $word:literal, )* }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vdoc])* $variant, )*
        }

        impl Field for $name {
            fn put(&self, key: &str, out: &mut String) {
                put_key(key, out);
                out.push('"');
                out.push_str(match self {
                    $( $name::$variant => $word, )*
                });
                out.push('"');
            }

            fn take(raw: Option<&str>) -> Option<Self> {
                match raw? {
                    $( $word => Some($name::$variant), )*
                    _ => None,
                }
            }
        }
    };
}

spelled! {
    /// Why a structural operation fired.
    Cause {
        /// The synchronized merge/split maintenance round (Section 4.2).
        Maintain = "maintain",
    }
}

spelled! {
    /// Which sink operation a fault injector failed.
    SinkOp {
        /// An `append` call.
        Append = "append",
        /// A `sync` (fsync) call.
        Sync = "sync",
    }
}

/// Declares every event kind: `Variant = "tag" { field: Type, .. }`, the
/// fields in encoding order. Generates [`EventKind`], [`EventKind::tag`]
/// and the per-kind field encoder and decoder.
macro_rules! events {
    ($(
        $(#[$vdoc:meta])*
        $variant:ident = $tag:literal {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// The typed payload of one journal entry.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum EventKind {
            $(
                $(#[$vdoc])*
                $variant {
                    $( $(#[$fdoc])* $field: $ty, )*
                },
            )*
        }

        impl EventKind {
            /// The journal tag, as used in the JSONL encoding.
            #[must_use]
            pub fn tag(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $tag, )*
                }
            }

            /// Appends the payload's fields in declaration order.
            fn put_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        $( Field::put($field, stringify!($field), out); )*
                    } )*
                }
            }

            /// Reads the payload of a `tag` event from its line's fields.
            fn take_fields(tag: &str, fields: &[(&str, &str)]) -> Option<EventKind> {
                Some(match tag {
                    $( $tag => EventKind::$variant {
                        // `<$ty as Field>` and not `$ty::take`: `Option`
                        // has an inherent `take` that would win.
                        $( $field: <$ty as Field>::take(lookup(fields, stringify!($field)))?, )*
                    }, )*
                    _ => return None,
                })
            }
        }
    };
}

events! {
    /// One point inserted into a bubble.
    Insert = "insert" {
        /// The receiving bubble index.
        bubble: u32,
    }
    /// One point deleted from a bubble.
    Delete = "delete" {
        /// The bubble the point was removed from.
        bubble: u32,
    }
    /// An update batch finished applying.
    BatchApplied = "batch" {
        /// Points inserted by the batch.
        inserts: u32,
        /// Points deleted by the batch.
        deletes: u32,
    }
    /// A bubble's members were redistributed to its neighbours.
    MergeAway = "merge_away" {
        /// The dissolved (donor) bubble index.
        donor: u32,
        /// Points redistributed.
        moved: u64,
        /// Why the merge fired.
        cause: Cause,
    }
    /// An over-filled bubble was split onto a freed seed.
    Split = "split" {
        /// The over-filled bubble that was split.
        over: u32,
        /// The bubble whose seed received the far half.
        donor: u32,
        /// Points moved onto the donor seed.
        moved: u64,
        /// Why the split fired.
        cause: Cause,
    }
    /// A synchronized maintenance round finished.
    MaintainRound = "maintain" {
        /// Merge-away operations performed.
        merges: u32,
        /// Splits performed.
        splits: u32,
        /// Why the round ran.
        cause: Cause,
    }
    /// An invariant audit finished.
    Audit = "audit" {
        /// Issues found (0 = green).
        issues: u64,
    }
    /// An invariant repair finished.
    Repair = "repair" {
        /// Issues the triggering audit reported.
        found: u64,
        /// Bubbles quarantined and rebuilt.
        quarantined: u32,
        /// Seeds re-anchored.
        reseeded: u32,
        /// Points reassigned.
        reassigned: u64,
    }
    /// Bytes were staged onto the WAL (not yet durable).
    WalAppend = "wal_append" {
        /// Encoded record bytes staged.
        bytes: u64,
        /// Records staged (currently always 1).
        records: u32,
    }
    /// A group commit flushed staged records and fsynced.
    WalCommit = "wal_commit" {
        /// Bytes made durable by this commit.
        bytes: u64,
        /// Records in the commit group.
        records: u32,
    }
    /// The WAL was truncated back to its committed prefix.
    WalTruncate = "wal_truncate" {
        /// The length truncated to.
        len: u64,
    }
    /// The segmented WAL sealed its active segment and rotated to a new
    /// one.
    WalRotate = "wal_rotate" {
        /// Epoch of the new active segment.
        epoch: u64,
        /// Sequence number of the new active segment within its epoch.
        seq: u64,
        /// Absolute batch sequence number the new segment starts at.
        base: u64,
        /// Bytes in the segment that was sealed.
        sealed_bytes: u64,
    }
    /// Compaction reclaimed sealed WAL segments fully covered by a
    /// durable checkpoint.
    WalCompact = "wal_compact" {
        /// Segments deleted.
        segments: u64,
        /// Bytes those segments held.
        bytes: u64,
        /// The checkpoint coverage (absolute batch sequence number) that
        /// made them reclaimable.
        floor: u64,
    }
    /// A checkpoint was persisted.
    Checkpoint = "checkpoint" {
        /// Checkpoint sequence number.
        seq: u64,
        /// Batches the checkpoint covers.
        covered: u64,
        /// Encoded checkpoint size.
        bytes: u64,
    }
    /// One chunk of a streaming checkpoint was written (the final chunk
    /// is followed by the `checkpoint` event for the same sequence).
    CheckpointChunk = "checkpoint_chunk" {
        /// The streaming checkpoint's sequence number.
        seq: u64,
        /// Bytes written so far, including this chunk.
        written: u64,
        /// Total encoded checkpoint size.
        total: u64,
    }
    /// The degraded-mode buffer hit its hard cap and a batch was shed
    /// with a typed error instead of growing memory without limit.
    StorageShed = "storage_shed" {
        /// Records buffered when the shed happened.
        buffered: u64,
        /// Batches shed so far in this degradation episode.
        shed: u64,
    }
    /// A batch's maintenance window read points from the cold tier
    /// (aggregated per batch; absent when everything needed was hot).
    TierFetch = "tier_fetch" {
        /// Cold records demand-fetched during the window.
        fetches: u64,
        /// Payload bytes read from the cold medium.
        bytes: u64,
    }
    /// A hot-budget sweep evicted points to the cold tier.
    TierEvict = "tier_evict" {
        /// Points written out by this sweep.
        evicted: u64,
        /// Resident points after the sweep.
        resident: u64,
    }
    /// Recovery started over a WAL image.
    RecoverStart = "recover_start" {
        /// WAL bytes presented to recovery.
        wal_bytes: u64,
    }
    /// Recovery locked onto a usable checkpoint.
    RecoverCheckpoint = "recover_checkpoint" {
        /// The checkpoint's sequence number.
        seq: u64,
        /// Batches it covers.
        covered: u64,
    }
    /// Recovery finished.
    RecoverDone = "recover_done" {
        /// WAL records replayed on top of the checkpoint.
        replayed: u64,
        /// Total durable batches after recovery.
        batches_durable: u64,
        /// Whether a torn final record was discarded.
        torn_tail: bool,
    }
    /// The durable maintainer changed health.
    Health = "health" {
        /// `true` when entering degraded mode, `false` on heal.
        degraded: bool,
        /// Batches buffered in memory while degraded.
        buffered: u64,
    }
    /// A fault injector failed a sink operation (test harnesses only).
    SinkFault = "sink_fault" {
        /// The operation that failed.
        op: SinkOp,
    }
    /// A shard supervisor quarantined or released a maintainer domain
    /// (the domain itself is carried by the event's shard tag).
    Quarantine = "quarantine" {
        /// `true` on entering quarantine, `false` on release.
        entered: bool,
    }
    /// One delta-clustering epoch finished: the bubbles were clustered
    /// and the resulting cluster tree diffed against the previous epoch.
    DeltaEpoch = "delta_epoch" {
        /// Bubble slots whose distances were computed: every epoch
        /// clusters from scratch, so this equals `total`.
        touched: u32,
        /// Total bubble slots clustered.
        total: u32,
        /// Typed cluster deltas emitted to subscribers this epoch.
        deltas: u32,
    }
    /// A client registered a cluster-delta subscription.
    DeltaSubscribe = "delta_subscribe" {
        /// The subscription's id.
        id: u64,
    }
    /// A client cancelled a cluster-delta subscription.
    DeltaUnsubscribe = "delta_unsubscribe" {
        /// The subscription's id.
        id: u64,
    }
}

impl EventKind {
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

    /// Encodes the event as one flat JSON object (no trailing newline):
    /// the tag, the shard when tagged, the payload fields, the duration.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"k\":\"");
        s.push_str(self.kind.tag());
        s.push('"');
        self.shard.put("shard", &mut s);
        self.kind.put_fields(&mut s);
        self.us.put("us", &mut s);
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
        Some(Event {
            kind: EventKind::take_fields(lookup(&fields, "k")?, &fields)?,
            us: u64::take(lookup(&fields, "us"))?,
            shard: <Option<u32> as Field>::take(lookup(&fields, "shard"))?,
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_jsonl())
    }
}

/// The raw value of the first field named `key`.
fn lookup<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
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
                    cause: Cause::Maintain,
                },
                52,
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

    /// The exact bytes of the encoding, captured before the encoder was
    /// generated from the event table: the corpus untagged, then tagged
    /// with shard 3. Round trips alone pass an encoder and decoder that
    /// are wrong in the same way.
    #[test]
    fn jsonl_matches_the_golden_lines() {
        let golden = include_str!("../testdata/events.jsonl");
        let tagged = corpus().into_iter().map(|mut ev| {
            ev.shard = Some(3);
            ev
        });
        let events: Vec<Event> = corpus().into_iter().chain(tagged).collect();
        assert_eq!(golden.lines().count(), events.len());
        for (line, ev) in golden.lines().zip(&events) {
            assert_eq!(ev.to_jsonl(), line);
            assert_eq!(Event::parse_jsonl(line).as_ref(), Some(ev), "{line}");
        }
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
            "{\"k\":\"grow\",\"from\":4,\"bubble\":12,\"us\":70}",       // retired tag
            "{\"k\":\"insert\",\"shard\":\"x\",\"bubble\":1,\"us\":0}",  // bad shard tag
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
