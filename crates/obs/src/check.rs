//! Journal invariant checking — the contract the fault-injection and
//! crash-consistency suites (and the CI `journal_check` tool) assert
//! against a recorded event stream.
//!
//! Invariants over one maintainer's journal:
//!
//! 1. **Split pairing** — every [`EventKind::Split`] is immediately
//!    preceded (among structural events) by the [`EventKind::MergeAway`]
//!    that freed its donor seed; the donor ids must match.
//! 2. **Batch accounting** — a [`EventKind::BatchApplied`] reports
//!    exactly the per-point [`EventKind::Insert`]/[`EventKind::Delete`]
//!    events emitted since the previous structural boundary.
//! 3. **Commit groups** — every [`EventKind::WalCommit`] flushes at least
//!    one record.
//! 4. **Rotation monotonicity** — the `base` of successive
//!    [`EventKind::WalRotate`] events never decreases: segments are
//!    sealed in batch order.
//! 5. **Compaction monotonicity** — every [`EventKind::WalCompact`]
//!    reclaims at least one segment and its `floor` never decreases:
//!    checkpoint coverage only moves forward.
//! 6. **Chunk streams** — within one streaming checkpoint's
//!    [`EventKind::CheckpointChunk`] events, `written` is strictly
//!    increasing, `total` is constant, and `written <= total`; the
//!    [`EventKind::Checkpoint`] that closes the stream sees
//!    `written == total`. A trailing incomplete stream (crash mid
//!    checkpoint) is tolerated.
//! 7. **Tier traffic** — every [`EventKind::TierFetch`] reports a
//!    nonzero fetch count with nonzero bytes, and every
//!    [`EventKind::TierEvict`] a nonzero eviction count: zero-traffic
//!    windows are elided, never journaled.
//!
//! A sharded deployment interleaves several maintainers' events into one
//! journal; the invariants above only hold *per maintainer domain*, so
//! [`check_journal_sharded`] demultiplexes on [`Event::shard`] first and
//! checks each sub-stream independently.

use crate::event::{Event, EventKind};

/// Aggregate counts over a checked journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Total events checked.
    pub events: u64,
    /// Structural events (see [`EventKind::is_structural`]).
    pub structural: u64,
    /// Per-point inserts.
    pub inserts: u64,
    /// Per-point deletes.
    pub deletes: u64,
    /// Applied batches.
    pub batches: u64,
    /// Merge-away operations.
    pub merges: u64,
    /// Splits.
    pub splits: u64,
    /// WAL commit groups.
    pub wal_commits: u64,
    /// WAL segment rotations.
    pub wal_rotations: u64,
    /// WAL compaction passes that reclaimed at least one segment.
    pub wal_compactions: u64,
    /// Checkpoints persisted.
    pub checkpoints: u64,
    /// Streaming-checkpoint chunks written.
    pub checkpoint_chunks: u64,
    /// Batches shed at the degraded-buffer cap.
    pub sheds: u64,
    /// Cold records demand-fetched across all `tier_fetch` events.
    pub tier_fetches: u64,
    /// Points evicted to the cold tier across all `tier_evict` events.
    pub tier_evictions: u64,
    /// Delta-clustering epochs.
    pub delta_epochs: u64,
}

/// Checks the journal invariants over `events`, returning aggregate
/// counts on success and a description naming the offending event index
/// on violation.
///
/// # Errors
/// Returns `Err` when any invariant is violated.
pub fn check_journal(events: &[Event]) -> Result<JournalSummary, String> {
    let mut summary = JournalSummary::default();
    // The previous *structural* event, for the split-pairing rule.
    let mut prev_structural: Option<(usize, &EventKind)> = None;
    // Per-point ops since the last structural boundary, for batch
    // accounting.
    let mut pending_inserts: u32 = 0;
    let mut pending_deletes: u32 = 0;
    // Monotonicity witnesses for the segmented-WAL events.
    let mut last_rotate_base: Option<u64> = None;
    let mut last_compact_floor: Option<u64> = None;
    // The open streaming-checkpoint chunk stream: (seq, written, total).
    let mut open_chunks: Option<(u64, u64, u64)> = None;

    for (i, ev) in events.iter().enumerate() {
        summary.events += 1;
        if ev.kind.is_structural() {
            summary.structural += 1;
        }
        match &ev.kind {
            EventKind::Insert { .. } => {
                summary.inserts += 1;
                pending_inserts += 1;
            }
            EventKind::Delete { .. } => {
                summary.deletes += 1;
                pending_deletes += 1;
            }
            EventKind::BatchApplied { inserts, deletes } => {
                summary.batches += 1;
                if *inserts != pending_inserts || *deletes != pending_deletes {
                    return Err(format!(
                        "event {i}: batch reports {inserts} inserts / {deletes} deletes \
                         but {pending_inserts} / {pending_deletes} per-point events \
                         were journaled since the last boundary"
                    ));
                }
                pending_inserts = 0;
                pending_deletes = 0;
            }
            EventKind::Split { donor, .. } => {
                summary.splits += 1;
                let paired = matches!(
                    prev_structural,
                    Some((_, EventKind::MergeAway { donor: d, .. })) if d == donor
                );
                if !paired {
                    return Err(format!(
                        "event {i}: split onto donor {donor} is not paired with a \
                         merge_away of that bubble (previous structural event: {:?})",
                        prev_structural.map(|(j, k)| (j, k.tag()))
                    ));
                }
            }
            EventKind::MergeAway { .. } => summary.merges += 1,
            EventKind::WalCommit { records, .. } => {
                summary.wal_commits += 1;
                if *records == 0 {
                    return Err(format!("event {i}: wal_commit with an empty group"));
                }
            }
            EventKind::WalRotate { base, .. } => {
                summary.wal_rotations += 1;
                if let Some(prev) = last_rotate_base {
                    if *base < prev {
                        return Err(format!(
                            "event {i}: wal_rotate base {base} went backwards (previous \
                             rotation sealed at {prev})"
                        ));
                    }
                }
                last_rotate_base = Some(*base);
            }
            EventKind::WalCompact {
                segments, floor, ..
            } => {
                summary.wal_compactions += 1;
                if *segments == 0 {
                    return Err(format!("event {i}: wal_compact reclaimed no segments"));
                }
                if let Some(prev) = last_compact_floor {
                    if *floor < prev {
                        return Err(format!(
                            "event {i}: wal_compact floor {floor} went backwards \
                             (previous floor {prev})"
                        ));
                    }
                }
                last_compact_floor = Some(*floor);
            }
            EventKind::Checkpoint { seq, .. } => {
                summary.checkpoints += 1;
                if let Some((cseq, written, total)) = open_chunks.take() {
                    if cseq == *seq && written != total {
                        return Err(format!(
                            "event {i}: checkpoint {seq} closed a chunk stream at \
                             {written} of {total} bytes"
                        ));
                    }
                }
            }
            EventKind::CheckpointChunk {
                seq,
                written,
                total,
            } => {
                summary.checkpoint_chunks += 1;
                if *written > *total {
                    return Err(format!(
                        "event {i}: checkpoint_chunk wrote {written} of only {total} bytes"
                    ));
                }
                if let Some((cseq, cwritten, ctotal)) = open_chunks {
                    if cseq == *seq {
                        if *written <= cwritten {
                            return Err(format!(
                                "event {i}: checkpoint_chunk for seq {seq} did not \
                                 advance ({written} after {cwritten})"
                            ));
                        }
                        if *total != ctotal {
                            return Err(format!(
                                "event {i}: checkpoint_chunk for seq {seq} changed its \
                                 total ({total} after {ctotal})"
                            ));
                        }
                    }
                    // A new seq abandons the previous stream: crash or
                    // typed abort mid-checkpoint, tolerated.
                }
                open_chunks = Some((*seq, *written, *total));
            }
            EventKind::StorageShed { .. } => summary.sheds += 1,
            EventKind::TierFetch { fetches, bytes } => {
                summary.tier_fetches += fetches;
                if *fetches == 0 {
                    return Err(format!(
                        "event {i}: tier_fetch with zero fetches (must be elided)"
                    ));
                }
                if *bytes == 0 {
                    return Err(format!(
                        "event {i}: tier_fetch of {fetches} records moved no bytes"
                    ));
                }
            }
            EventKind::TierEvict { evicted, .. } => {
                summary.tier_evictions += evicted;
                if *evicted == 0 {
                    return Err(format!(
                        "event {i}: tier_evict with zero evictions (must be elided)"
                    ));
                }
            }
            EventKind::DeltaEpoch { touched, total, .. } => {
                summary.delta_epochs += 1;
                if touched > total {
                    return Err(format!(
                        "event {i}: delta_epoch touched {touched} of only {total} slots"
                    ));
                }
            }
            _ => {}
        }
        if ev.kind.is_structural() {
            if !matches!(ev.kind, EventKind::Insert { .. } | EventKind::Delete { .. }) {
                pending_inserts = 0;
                pending_deletes = 0;
            }
            prev_structural = Some((i, &ev.kind));
        }
    }
    Ok(summary)
}

/// Checks a journal that may interleave events from several maintainer
/// domains (shards): events are grouped by [`Event::shard`] — preserving
/// each group's relative order — and [`check_journal`] runs per group.
///
/// Returns one `(shard, summary)` pair per domain present, untagged events
/// (`None`) first, then tagged domains in ascending shard order. A journal
/// with no shard tags behaves exactly like [`check_journal`]: one `None`
/// group.
///
/// # Errors
/// Returns `Err` naming the offending domain when any group violates an
/// invariant.
pub fn check_journal_sharded(
    events: &[Event],
) -> Result<Vec<(Option<u32>, JournalSummary)>, String> {
    let mut shards: Vec<Option<u32>> = events.iter().map(|e| e.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    let mut out = Vec::with_capacity(shards.len());
    for shard in shards {
        let group: Vec<Event> = events
            .iter()
            .filter(|e| e.shard == shard)
            .cloned()
            .collect();
        let summary = check_journal(&group).map_err(|e| match shard {
            Some(s) => format!("shard {s}: {e}"),
            None => format!("untagged events: {e}"),
        })?;
        out.push((shard, summary));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Cause;

    fn ev(kind: EventKind) -> Event {
        Event::new(kind, 1)
    }

    fn ev_on(shard: u32, kind: EventKind) -> Event {
        let mut e = Event::new(kind, 1);
        e.shard = Some(shard);
        e
    }

    #[test]
    fn a_well_formed_journal_passes() {
        let events = vec![
            ev(EventKind::Delete { bubble: 1 }),
            ev(EventKind::Insert { bubble: 0 }),
            ev(EventKind::Insert { bubble: 2 }),
            ev(EventKind::BatchApplied {
                inserts: 2,
                deletes: 1,
            }),
            ev(EventKind::MergeAway {
                donor: 4,
                moved: 8,
                cause: Cause::Maintain,
            }),
            ev(EventKind::Split {
                over: 1,
                donor: 4,
                moved: 5,
                cause: Cause::Maintain,
            }),
            ev(EventKind::MaintainRound {
                merges: 1,
                splits: 1,
                cause: Cause::Maintain,
            }),
            ev(EventKind::WalAppend {
                bytes: 100,
                records: 1,
            }),
            ev(EventKind::WalCommit {
                bytes: 100,
                records: 1,
            }),
            ev(EventKind::Checkpoint {
                seq: 1,
                covered: 1,
                bytes: 900,
            }),
        ];
        let summary = check_journal(&events).expect("well-formed");
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.splits, 1);
        assert_eq!(summary.merges, 1);
        assert_eq!(summary.inserts, 2);
        assert_eq!(summary.deletes, 1);
        assert_eq!(summary.wal_commits, 1);
        assert_eq!(summary.checkpoints, 1);
    }

    #[test]
    fn an_unpaired_split_is_flagged() {
        let events = vec![
            ev(EventKind::Insert { bubble: 0 }),
            ev(EventKind::Split {
                over: 1,
                donor: 4,
                moved: 5,
                cause: Cause::Maintain,
            }),
        ];
        let err = check_journal(&events).unwrap_err();
        assert!(err.contains("not paired"), "{err}");
    }

    #[test]
    fn a_mismatched_donor_is_flagged() {
        let events = vec![
            ev(EventKind::MergeAway {
                donor: 3,
                moved: 8,
                cause: Cause::Maintain,
            }),
            ev(EventKind::Split {
                over: 1,
                donor: 4,
                moved: 5,
                cause: Cause::Maintain,
            }),
        ];
        assert!(check_journal(&events).is_err());
    }

    #[test]
    fn batch_accounting_mismatch_is_flagged() {
        let events = vec![
            ev(EventKind::Insert { bubble: 0 }),
            ev(EventKind::BatchApplied {
                inserts: 2,
                deletes: 0,
            }),
        ];
        let err = check_journal(&events).unwrap_err();
        assert!(err.contains("per-point events"), "{err}");
    }

    #[test]
    fn empty_commit_groups_are_flagged() {
        let events = vec![ev(EventKind::WalCommit {
            bytes: 0,
            records: 0,
        })];
        assert!(check_journal(&events).is_err());
    }

    #[test]
    fn delta_epochs_are_counted_and_bounded() {
        let events = vec![
            ev(EventKind::DeltaEpoch {
                touched: 2,
                total: 9,
                deltas: 1,
            }),
            ev(EventKind::DeltaEpoch {
                touched: 9,
                total: 9,
                deltas: 0,
            }),
        ];
        let summary = check_journal(&events).expect("well-formed");
        assert_eq!(summary.delta_epochs, 2);

        let bad = vec![ev(EventKind::DeltaEpoch {
            touched: 10,
            total: 9,
            deltas: 0,
        })];
        let err = check_journal(&bad).unwrap_err();
        assert!(err.contains("touched 10 of only 9"), "{err}");
    }

    #[test]
    fn rotation_bases_must_not_go_backwards() {
        let rotate = |base| {
            ev(EventKind::WalRotate {
                epoch: 1,
                seq: 1,
                base,
                sealed_bytes: 100,
            })
        };
        let good = vec![rotate(4), rotate(4), rotate(9)];
        let summary = check_journal(&good).expect("monotone bases");
        assert_eq!(summary.wal_rotations, 3);

        let bad = vec![rotate(9), rotate(4)];
        let err = check_journal(&bad).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn compaction_must_reclaim_and_floors_must_advance() {
        let compact = |segments, floor| {
            ev(EventKind::WalCompact {
                segments,
                bytes: 100,
                floor,
            })
        };
        let good = vec![compact(2, 8), compact(1, 8), compact(3, 20)];
        let summary = check_journal(&good).expect("monotone floors");
        assert_eq!(summary.wal_compactions, 3);

        let empty = vec![compact(0, 8)];
        assert!(check_journal(&empty).unwrap_err().contains("no segments"));

        let backwards = vec![compact(1, 8), compact(1, 4)];
        let err = check_journal(&backwards).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn chunk_streams_advance_and_close_exactly() {
        let chunk = |seq, written, total| {
            ev(EventKind::CheckpointChunk {
                seq,
                written,
                total,
            })
        };
        let close = |seq| {
            ev(EventKind::Checkpoint {
                seq,
                covered: 10,
                bytes: 30,
            })
        };
        let good = vec![
            chunk(2, 10, 30),
            chunk(2, 20, 30),
            chunk(2, 30, 30),
            close(2),
        ];
        let summary = check_journal(&good).expect("well-formed stream");
        assert_eq!(summary.checkpoint_chunks, 3);
        assert_eq!(summary.checkpoints, 1);

        // A trailing incomplete stream is a crash, not a violation.
        let torn = vec![chunk(2, 10, 30), chunk(2, 20, 30)];
        assert!(check_journal(&torn).is_ok());

        // An abandoned stream followed by a fresh seq is tolerated too.
        let abandoned = vec![
            chunk(2, 10, 30),
            chunk(3, 5, 50),
            chunk(3, 50, 50),
            close(3),
        ];
        assert!(check_journal(&abandoned).is_ok());

        let stalled = vec![chunk(2, 10, 30), chunk(2, 10, 30)];
        assert!(check_journal(&stalled).unwrap_err().contains("advance"));

        let resized = vec![chunk(2, 10, 30), chunk(2, 20, 40)];
        assert!(check_journal(&resized).unwrap_err().contains("total"));

        let overflow = vec![chunk(2, 31, 30)];
        assert!(check_journal(&overflow).unwrap_err().contains("of only"));

        let short_close = vec![chunk(2, 10, 30), close(2)];
        let err = check_journal(&short_close).unwrap_err();
        assert!(err.contains("closed a chunk stream"), "{err}");
    }

    #[test]
    fn sheds_are_counted() {
        let events = vec![
            ev(EventKind::StorageShed {
                buffered: 64,
                shed: 1,
            }),
            ev(EventKind::StorageShed {
                buffered: 64,
                shed: 2,
            }),
        ];
        let summary = check_journal(&events).expect("well-formed");
        assert_eq!(summary.sheds, 2);
    }

    #[test]
    fn tier_traffic_is_counted_and_zero_windows_are_flagged() {
        let events = vec![
            ev(EventKind::TierFetch {
                fetches: 3,
                bytes: 96,
            }),
            ev(EventKind::TierEvict {
                evicted: 7,
                resident: 256,
            }),
            ev(EventKind::TierFetch {
                fetches: 2,
                bytes: 64,
            }),
        ];
        let summary = check_journal(&events).expect("well-formed");
        assert_eq!(summary.tier_fetches, 5);
        assert_eq!(summary.tier_evictions, 7);

        let empty_fetch = vec![ev(EventKind::TierFetch {
            fetches: 0,
            bytes: 0,
        })];
        assert!(check_journal(&empty_fetch)
            .unwrap_err()
            .contains("zero fetches"));

        let zero_bytes = vec![ev(EventKind::TierFetch {
            fetches: 2,
            bytes: 0,
        })];
        assert!(check_journal(&zero_bytes).unwrap_err().contains("no bytes"));

        let empty_evict = vec![ev(EventKind::TierEvict {
            evicted: 0,
            resident: 1,
        })];
        assert!(check_journal(&empty_evict)
            .unwrap_err()
            .contains("zero evictions"));
    }

    #[test]
    fn sharded_check_demultiplexes_interleaved_domains() {
        // Shard 1's batch accounting interleaves with shard 0's: a flat
        // check would see 2 inserts before shard 0's batch boundary and
        // flag it, but per-domain streams are both well-formed.
        let events = vec![
            ev_on(0, EventKind::Insert { bubble: 0 }),
            ev_on(1, EventKind::Insert { bubble: 3 }),
            ev_on(
                0,
                EventKind::BatchApplied {
                    inserts: 1,
                    deletes: 0,
                },
            ),
            ev_on(
                1,
                EventKind::BatchApplied {
                    inserts: 1,
                    deletes: 0,
                },
            ),
            ev(EventKind::WalCommit {
                bytes: 10,
                records: 1,
            }),
        ];
        assert!(check_journal(&events).is_err());
        let groups = check_journal_sharded(&events).expect("per-domain streams are well-formed");
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, None);
        assert_eq!(groups[0].1.wal_commits, 1);
        assert_eq!(groups[1].0, Some(0));
        assert_eq!(groups[1].1.batches, 1);
        assert_eq!(groups[2].0, Some(1));
        assert_eq!(groups[2].1.inserts, 1);
    }

    #[test]
    fn sharded_check_names_the_offending_domain() {
        let events = vec![ev_on(
            4,
            EventKind::BatchApplied {
                inserts: 2,
                deletes: 0,
            },
        )];
        let err = check_journal_sharded(&events).unwrap_err();
        assert!(err.starts_with("shard 4:"), "{err}");
    }

    #[test]
    fn untagged_journals_check_like_the_flat_form() {
        let events = vec![
            ev(EventKind::Insert { bubble: 0 }),
            ev(EventKind::BatchApplied {
                inserts: 1,
                deletes: 0,
            }),
        ];
        let flat = check_journal(&events).expect("flat");
        let groups = check_journal_sharded(&events).expect("sharded");
        assert_eq!(groups, vec![(None, flat)]);
    }
}
