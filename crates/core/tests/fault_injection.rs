//! Fault-injection harness for the fault-tolerant maintenance layer.
//!
//! Four fronts, mirroring how a deployment actually fails:
//!
//! 1. **Malformed batches** (NaN/∞ points, wrong dimensionality, stale and
//!    duplicated deletes) must come back as typed [`UpdateError`]s with the
//!    store and the summarization **byte-identical** to their pre-call
//!    state — verified by comparing full snapshots.
//! 2. **Damaged internal state** (every corruption the sabotage hooks can
//!    inflict) must be caught by [`IncrementalBubbles::audit`] and healed
//!    by [`IncrementalBubbles::repair`], after which the audit is green
//!    and normal operation continues.
//! 3. **Damaged snapshots** — every single-bit flip at every byte offset
//!    and every truncation of both snapshot formats must produce a typed
//!    [`SnapshotError`], never a panic; bit flips specifically must be
//!    caught as [`SnapshotError::Corrupt`] by the CRC framing.
//! 4. **A dying WAL sink in a fleet of maintainers** — one maintainer's
//!    sink failing mid-stream must degrade only that maintainer (its
//!    siblings stay [`Health::Healthy`]), buffer its batches, and heal
//!    back to a state **bit-identical** to a never-faulted twin fleet —
//!    the per-maintainer primitive the `idb-shard` supervisor builds its
//!    quarantine/heal cycle on.

use idb_core::{
    recover_chain, AuditIssue, CheckpointStore, DurabilityConfig, DurableMaintainer, Health,
    IncrementalBubbles, MaintainerConfig, UpdateError, DELTA_CHECKPOINT_MAGIC,
};
use idb_geometry::SearchStats;
use idb_obs::{check_journal, Obs, RingRecorder};
use idb_store::segment::SegmentedSink;
use idb_store::wal::read_wal;
use idb_store::{
    Batch, MemMedium, ObjectSink, PointId, PointStore, SnapshotError, StorageBudget, StorageError,
};
use idb_synth::{
    faulty_batch, flip_bit, BatchFault, FaultMedium, ScenarioEngine, ScenarioKind, ScenarioSpec,
    ALL_BATCH_FAULTS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Hot-point budgets the durable scenarios that do not pin their own run
/// under: untiered, and 256 resident points with the rest spilled to the
/// cold tier. Tiering must never change an outcome.
const HOT_POINTS: [Option<usize>; 2] = [None, Some(256)];

/// A single-object WAL on the fault-injecting medium.
type FaultSink = ObjectSink<FaultMedium>;

/// A store + maintainer fixture over a small clustered database.
fn fixture(seed: u64) -> (PointStore, IncrementalBubbles, StdRng, SearchStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = PointStore::new(2);
    for i in 0..240 {
        let t = f64::from(i) * 0.063;
        let c = f64::from(i % 3) * 40.0;
        store.insert(&[c + t.sin(), c + t.cos()], Some((i % 3) as u32));
    }
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(10), &mut rng, &mut search);
    (store, ib, rng, search)
}

/// Serializes the complete observable state of store + summarization.
/// "Transactional" means a rejected batch leaves this bit pattern alone.
fn fingerprint(store: &PointStore, ib: &IncrementalBubbles) -> (Vec<u8>, Vec<u8>) {
    let mut s = Vec::new();
    store.write_snapshot(&mut s).expect("vec write");
    let mut b = Vec::new();
    ib.write_snapshot(&mut b).expect("vec write");
    (s, b)
}

/// A valid batch of `n` inserts packed within 2 units of `(c, c)`. One
/// bubble absorbs them and comes out over-filled, so the next maintenance
/// round splits it, re-seeding two bubbles — under a probability low
/// enough that the population can hold an over-filled bubble at all (see
/// `MaintainerConfig::with_probability`).
fn clustered_burst(c: f64, n: u32) -> Batch {
    Batch {
        deletes: Vec::new(),
        inserts: (0..n)
            .map(|i| {
                let t = f64::from(i) * 0.041;
                (vec![c + t.sin() * 2.0, c + t.cos() * 2.0], None)
            })
            .collect(),
    }
}

#[test]
fn every_batch_fault_is_rejected_with_exact_rollback() {
    for (round, &fault) in ALL_BATCH_FAULTS.iter().enumerate() {
        let (mut store, mut ib, mut rng, mut search) = fixture(100 + round as u64);
        let before = fingerprint(&store, &ib);
        let batch = faulty_batch(&store, fault, &mut rng);
        let err = ib
            .try_apply_batch(&mut store, &batch, &mut search)
            .expect_err("faulty batch must be rejected");
        match fault {
            BatchFault::NanInsert | BatchFault::InfiniteInsert => {
                assert!(
                    matches!(err, UpdateError::NonFiniteCoordinate { .. }),
                    "{fault:?} -> {err}"
                );
            }
            BatchFault::ShortInsert | BatchFault::LongInsert => {
                assert!(
                    matches!(err, UpdateError::DimensionMismatch { .. }),
                    "{fault:?} -> {err}"
                );
            }
            BatchFault::StaleDelete => {
                assert!(
                    matches!(err, UpdateError::StaleDelete { .. }),
                    "{fault:?} -> {err}"
                );
            }
            BatchFault::DuplicateDelete => {
                assert!(
                    matches!(err, UpdateError::ConflictingOps { .. }),
                    "{fault:?} -> {err}"
                );
            }
        }
        assert_eq!(
            before,
            fingerprint(&store, &ib),
            "{fault:?}: rejected batch must leave state byte-identical"
        );
        ib.audit(&store).expect("audit green after rejection");
    }
}

#[test]
fn double_delete_across_valid_batch_is_conflicting() {
    let (mut store, mut ib, _, mut search) = fixture(7);
    let id = store.ids().next().unwrap();
    let batch = idb_store::Batch {
        deletes: vec![id, id],
        inserts: Vec::new(),
    };
    let err = ib
        .try_apply_batch(&mut store, &batch, &mut search)
        .expect_err("duplicate delete");
    assert_eq!(err, UpdateError::ConflictingOps { id });
}

#[test]
fn audit_detects_and_repair_heals_every_sabotage() {
    // Each entry: a name, the sabotage, and a predicate the audit's issue
    // list must satisfy.
    type Sabotage = fn(&mut IncrementalBubbles, &mut PointStore);
    type IssueCheck = fn(&[AuditIssue]) -> bool;
    let cases: Vec<(&str, Sabotage, IssueCheck)> = vec![
        (
            "inflated stats n",
            |ib, _| {
                let n = ib.bubble(0).stats().n();
                let ls = ib.bubble(0).stats().linear_sum().to_vec();
                let ss = ib.bubble(0).stats().square_sum();
                ib.corrupt_stats(0, n + 5, ls, ss);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::MemberCountMismatch { bubble: 0, .. }))
            },
        ),
        (
            "drifted linear sum",
            |ib, _| {
                let n = ib.bubble(1).stats().n();
                let mut ls = ib.bubble(1).stats().linear_sum().to_vec();
                ls[0] += 1000.0;
                let ss = ib.bubble(1).stats().square_sum();
                ib.corrupt_stats(1, n, ls, ss);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::DriftedLinearSum { bubble: 1, .. }))
            },
        ),
        (
            "drifted square sum",
            |ib, _| {
                let n = ib.bubble(1).stats().n();
                let ls = ib.bubble(1).stats().linear_sum().to_vec();
                let ss = ib.bubble(1).stats().square_sum() * 3.0 + 1.0;
                ib.corrupt_stats(1, n, ls, ss);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::DriftedSquareSum { bubble: 1, .. }))
            },
        ),
        (
            "NaN stats",
            |ib, _| {
                let n = ib.bubble(2).stats().n();
                let mut ls = ib.bubble(2).stats().linear_sum().to_vec();
                ls[0] = f64::NAN;
                let ss = ib.bubble(2).stats().square_sum();
                ib.corrupt_stats(2, n, ls, ss);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::NonFiniteStats { bubble: 2 }))
            },
        ),
        (
            "cleared assignment",
            |ib, _| {
                let id = ib.bubble(0).members()[0];
                ib.corrupt_assign(id.index(), u32::MAX);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::AssignMismatch { bubble: 0, .. }))
            },
        ),
        (
            "cross-wired assignment",
            |ib, _| {
                let id = ib.bubble(0).members()[0];
                ib.corrupt_assign(id.index(), 3);
            },
            |issues| {
                issues.iter().any(|i| {
                    matches!(
                        i,
                        AuditIssue::AssignMismatch {
                            bubble: 0,
                            assigned: Some(3),
                            ..
                        }
                    )
                })
            },
        ),
        (
            "scrambled member position",
            |ib, _| {
                let id = ib.bubble(0).members()[0];
                ib.corrupt_member_pos(id.index(), 60_000);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::MemberPosMismatch { bubble: 0, .. }))
            },
        ),
        (
            "NaN seed",
            |ib, _| ib.corrupt_seed(0, vec![f64::NAN, f64::NAN]),
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::NonFiniteSeed { bubble: 0 }))
            },
        ),
        (
            "desynced seed",
            |ib, _| ib.corrupt_seed(0, vec![123.0, -45.0]),
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::SeedOutOfSync { bubble: 0 }))
            },
        ),
        (
            "misordered neighbor row",
            |ib, _| {
                // Adjacent entries always have distinct keys, so a swap
                // breaks the (distance, index) order.
                let (ids, w) = ib.corrupt_neighbor_row(0);
                ids.swap(1, 2);
                w.swap(1, 2);
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::NeighborRowMisordered { row: 0, pos: 2 }))
            },
        ),
        (
            "drifted neighbor distance",
            |ib, _| {
                // Inflating the farthest entry keeps the row sorted.
                let (_, w) = ib.corrupt_neighbor_row(1);
                *w.last_mut().unwrap() += 1.0;
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::NeighborDistanceDrift { i: 1, .. }))
                    && !issues
                        .iter()
                        .any(|i| matches!(i, AuditIssue::NeighborRowMisordered { .. }))
            },
        ),
        (
            "neighbor row lost an index",
            |ib, _| {
                let (ids, _) = ib.corrupt_neighbor_row(2);
                ids[1] = ids[0];
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::NeighborRowNotPermutation { row: 2 }))
            },
        ),
        (
            "drifted neighbor distance under pending re-seeds",
            |ib, store| {
                // A burst of inserts over-fills one bubble. (Among ten
                // bubbles no β lies more than √9 = 3 σ above the mean,
                // short of p = 0.9's k ≈ 3.16, so the population is
                // rebuilt under p = 0.8.) Then a row is damaged, and the
                // re-seeds of the maintenance round that splits the bubble
                // leave it stale: the audit reads it settled, and the
                // damage must survive the settle. Clones probe for a row
                // the round neither re-seeds nor reads, and whose damaged
                // (farthest) entry it does not re-seed.
                let burst = clustered_burst(200.0, 150);
                let config = MaintainerConfig::new(10).with_probability(0.8);
                let mut rng = StdRng::seed_from_u64(5);
                *ib = IncrementalBubbles::build(store, config, &mut rng, &mut SearchStats::new());
                ib.apply_batch(store, &burst, &mut SearchStats::new());
                let store = &*store;
                let damage = |ib: &mut IncrementalBubbles, row: usize| {
                    let (ids, w) = ib.corrupt_neighbor_row(row);
                    *w.last_mut().unwrap() += 1.0;
                    *ids.last().unwrap() as usize
                };
                let round = |ib: &mut IncrementalBubbles| {
                    let mut rng = StdRng::seed_from_u64(5);
                    ib.maintain(store, &mut rng, &mut SearchStats::new()).splits
                };
                let row = (0..ib.num_bubbles())
                    .find(|&row| {
                        let mut probe = ib.clone();
                        let far = damage(&mut probe, row);
                        let seeds: Vec<Vec<f64>> =
                            probe.bubbles().iter().map(|b| b.seed().to_vec()).collect();
                        if round(&mut probe) == 0 {
                            return false;
                        }
                        let kept = |b: usize| probe.bubble(b).seed() == seeds[b];
                        // Reading the row through the hook settles it
                        // first: a stale row charges the entries it moves.
                        let settled = probe.seed_repair_stats().entries;
                        let mut reader = probe.clone();
                        reader.corrupt_neighbor_row(row);
                        kept(row) && kept(far) && reader.seed_repair_stats().entries > settled
                    })
                    .expect("a row the maintenance round leaves stale");
                damage(ib, row);
                round(ib);
            },
            |issues| {
                // The row is chosen at run time, so the check pins the
                // damaged entry by its +1.0 instead: exactly one entry
                // drifts, and by the sabotage's amount.
                let drifts: Vec<f64> = issues
                    .iter()
                    .filter_map(|i| match i {
                        AuditIssue::NeighborDistanceDrift {
                            stored, recomputed, ..
                        } => Some(stored - recomputed),
                        _ => None,
                    })
                    .collect();
                matches!(drifts[..], [d] if (d - 1.0).abs() < 1e-9)
                    && !issues
                        .iter()
                        .any(|i| matches!(i, AuditIssue::NeighborRowMisordered { .. }))
            },
        ),
        (
            "wrong point total",
            |ib, _| ib.corrupt_total(1),
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::TotalCountMismatch { tracked: 1, .. }))
            },
        ),
        (
            "dead member injected",
            |ib, store| {
                ib.corrupt_push_member(0, PointId(store.slots() as u32 + 3));
            },
            |issues| {
                issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::DeadMember { bubble: 0, .. }))
            },
        ),
        (
            "member dropped",
            |ib, _| {
                ib.corrupt_pop_member(0);
            },
            |issues| {
                issues.iter().any(|i| {
                    matches!(
                        i,
                        AuditIssue::MemberCountMismatch { bubble: 0, .. }
                            | AuditIssue::UnassignedLivePoint { .. }
                    )
                })
            },
        ),
    ];

    for (name, sabotage, check) in cases {
        let (mut store, mut ib, mut rng, mut search) = fixture(500);
        ib.audit(&store).expect("fixture starts green");
        sabotage(&mut ib, &mut store);
        let err = ib
            .audit(&store)
            .expect_err(&format!("{name}: audit must detect the corruption"));
        assert!(
            check(&err.issues),
            "{name}: unexpected issues {:?}",
            err.issues
        );

        let report = ib.repair(&store, &mut rng, &mut search);
        assert!(!report.is_noop(), "{name}: repair must act");
        assert_eq!(report.issues_found, err.issues.len(), "{name}");
        ib.audit(&store)
            .unwrap_or_else(|e| panic!("{name}: audit red after repair: {e}"));
        ib.validate(&store);
    }
}

#[test]
fn repair_is_a_noop_on_a_healthy_population() {
    let (store, mut ib, mut rng, mut search) = fixture(11);
    let report = ib.repair(&store, &mut rng, &mut search);
    assert!(report.is_noop());
    assert_eq!(report.quarantined, 0);
}

#[test]
fn repair_restores_a_heavily_corrupted_population() {
    let (mut store, mut ib, mut rng, mut search) = fixture(77);
    // Compound damage across several bubbles at once.
    ib.corrupt_seed(0, vec![f64::INFINITY, 0.0]);
    let n = ib.bubble(1).stats().n();
    ib.corrupt_stats(1, n + 9, vec![f64::NAN, 0.0], -1.0);
    let victim = ib.bubble(2).members()[0];
    ib.corrupt_assign(victim.index(), u32::MAX);
    ib.corrupt_pop_member(3);
    ib.corrupt_total(0);

    let err = ib.audit(&store).expect_err("compound corruption detected");
    assert!(err.issues.len() >= 4, "{:?}", err.issues);

    let report = ib.repair(&store, &mut rng, &mut search);
    assert!(report.quarantined >= 3, "{report:?}");
    assert!(report.reseeded >= 1, "{report:?}");
    assert!(report.reassigned_points > 0, "{report:?}");
    ib.audit(&store).expect("green after repair");
    ib.validate(&store);
    assert_eq!(ib.total_points(), store.len() as u64);

    // The repaired population keeps operating through churn + maintenance.
    let batch = idb_store::Batch {
        deletes: store.ids().take(20).collect(),
        inserts: (0..20)
            .map(|i| (vec![f64::from(i), 1.0], Some(1)))
            .collect(),
    };
    ib.try_apply_batch(&mut store, &batch, &mut search)
        .expect("valid batch applies");
    ib.maintain(&store, &mut rng, &mut search);
    ib.audit(&store).expect("still green after further churn");
}

/// Transactionality extends to the op journal: a rejected batch emits
/// **no events at all** — not a partial per-point trail, not a
/// `batch_applied` — because validation precedes every mutation and every
/// emission.
#[test]
fn rejected_batches_leave_no_journal_trace() {
    for (round, &fault) in ALL_BATCH_FAULTS.iter().enumerate() {
        let (mut store, mut ib, mut rng, mut search) = fixture(900 + round as u64);
        let ring = Arc::new(RingRecorder::new());
        ib.set_obs(Obs::with_recorder(ring.clone()));
        let batch = faulty_batch(&store, fault, &mut rng);
        ib.try_apply_batch(&mut store, &batch, &mut search)
            .expect_err("faulty batch must be rejected");
        assert!(
            ring.is_empty(),
            "{fault:?}: rejected batch journaled {:?}",
            ring.events()
        );
        // A valid batch through the same handle journals normally.
        let id = store.ids().next().unwrap();
        ib.try_apply_batch(
            &mut store,
            &idb_store::Batch {
                deletes: vec![id],
                inserts: vec![(vec![1.0, 2.0], None)],
            },
            &mut search,
        )
        .expect("valid batch applies");
        assert!(!ring.is_empty(), "{fault:?}: valid batch journaled nothing");
    }
}

/// The journal invariants of [`check_journal`] hold over a stream of
/// churn, maintenance, sabotage and repair: split events pair with the
/// merge that freed their donor, and batch accounting matches the
/// per-point trail exactly. A clustered burst makes the stream split (and
/// so re-seed, leaving neighbor rows to settle) under p = 0.8.
#[test]
fn journal_invariants_hold_across_churn_maintenance_and_repair() {
    let mut rng = StdRng::seed_from_u64(0x0B5E_CC01);
    let spec = ScenarioSpec::named(ScenarioKind::Random, 2, 500, 0.08);
    let mut engine = ScenarioEngine::new(spec);
    let mut store = engine.populate(&mut rng);
    let mut search = SearchStats::new();
    let config = MaintainerConfig::new(12).with_probability(0.8);
    let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut search);
    let ring = Arc::new(RingRecorder::new());
    ib.set_obs(Obs::with_recorder(ring.clone()));

    ib.try_apply_batch(&mut store, &clustered_burst(200.0, 150), &mut search)
        .expect("the burst is valid");
    for _ in 0..6 {
        let batch = engine.plan(&mut rng);
        let ids = ib
            .try_apply_batch(&mut store, &batch, &mut search)
            .expect("planned batches are valid");
        engine.confirm(&ids);
        ib.maintain(&store, &mut rng, &mut search);
    }
    // Sabotage + repair mid-stream journals a repair event and keeps the
    // invariants intact.
    ib.corrupt_seed(0, vec![f64::NAN, f64::NAN]);
    ib.repair(&store, &mut rng, &mut search);
    ib.audit(&store).expect("green after repair");
    let batch = engine.plan(&mut rng);
    let ids = ib
        .try_apply_batch(&mut store, &batch, &mut search)
        .expect("planned batches are valid");
    engine.confirm(&ids);
    ib.maintain(&store, &mut rng, &mut search);

    let summary = check_journal(&ring.events()).expect("journal invariants hold");
    assert!(summary.batches >= 7, "{summary:?}");
    assert!(
        summary.inserts + summary.deletes > 0,
        "churn must journal per-point events: {summary:?}"
    );
    assert!(
        summary.splits > 0 && summary.merges > 0,
        "the burst must make maintenance split: {summary:?}"
    );
}

#[test]
fn store_snapshot_survives_exhaustive_bit_flips_and_truncation() {
    let mut store = PointStore::new(2);
    for i in 0..6 {
        store.insert(&[f64::from(i), -f64::from(i)], Some(0));
    }
    let mut buf = Vec::new();
    store.write_snapshot(&mut buf).unwrap();

    for offset in 0..buf.len() {
        for bit in 0..8u32 {
            let mut damaged = buf.clone();
            flip_bit(&mut damaged, offset, bit);
            match PointStore::read_snapshot(&mut damaged.as_slice()) {
                Err(SnapshotError::Corrupt(_)) => {}
                Err(other) => {
                    panic!("offset {offset} bit {bit}: expected Corrupt, got {other}")
                }
                Ok(_) => panic!("offset {offset} bit {bit}: corruption accepted"),
            }
        }
    }
    for len in 0..buf.len() {
        let truncated = &buf[..len];
        assert!(
            PointStore::read_snapshot(&mut &truncated[..]).is_err(),
            "truncation to {len} bytes must fail"
        );
    }
}

#[test]
fn bubble_snapshot_survives_exhaustive_bit_flips_and_truncation() {
    let mut store = PointStore::new(2);
    for i in 0..12 {
        let c = f64::from(i % 2) * 50.0;
        store.insert(&[c + f64::from(i), c], Some(i % 2));
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(3), &mut rng, &mut search);
    let mut buf = Vec::new();
    ib.write_snapshot(&mut buf).unwrap();

    for offset in 0..buf.len() {
        for bit in 0..8u32 {
            let mut damaged = buf.clone();
            flip_bit(&mut damaged, offset, bit);
            match IncrementalBubbles::read_snapshot(&mut damaged.as_slice(), &store) {
                Err(SnapshotError::Corrupt(_)) => {}
                Err(other) => {
                    panic!("offset {offset} bit {bit}: expected Corrupt, got {other}")
                }
                Ok(_) => panic!("offset {offset} bit {bit}: corruption accepted"),
            }
        }
    }
    for len in 0..buf.len() {
        let truncated = &buf[..len];
        assert!(
            IncrementalBubbles::read_snapshot(&mut &truncated[..], &store).is_err(),
            "truncation to {len} bytes must fail"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of valid and invalid batches: invalid ones are
    /// rejected with byte-exact rollback, valid ones apply, maintenance
    /// runs every round, and the audit stays green throughout. Nothing
    /// panics. A clustered burst first makes maintenance split under
    /// p = 0.8, so the audits also read neighbor rows with re-seeds
    /// pending.
    #[test]
    fn fault_interleaving_keeps_the_audit_green(
        seed in 0u64..1_000,
        rounds in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = ScenarioSpec::named(ScenarioKind::Random, 2, 500, 0.05);
        let mut engine = ScenarioEngine::new(spec);
        let mut store = engine.populate(&mut rng);
        let mut search = SearchStats::new();
        let mut ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(12).with_probability(0.8),
            &mut rng,
            &mut search,
        );
        ib.try_apply_batch(&mut store, &clustered_burst(200.0, 150), &mut search)
            .expect("the burst is valid");
        let mut splits = ib.maintain(&store, &mut rng, &mut search).splits;
        prop_assert!(ib.audit(&store).is_ok(), "audit green after the burst");

        for _ in 0..rounds {
            if rng.gen_bool(0.5) {
                let fault = ALL_BATCH_FAULTS[rng.gen_range(0..ALL_BATCH_FAULTS.len())];
                let batch = faulty_batch(&store, fault, &mut rng);
                let before = fingerprint(&store, &ib);
                prop_assert!(
                    ib.try_apply_batch(&mut store, &batch, &mut search).is_err(),
                    "{:?} must be rejected", fault
                );
                prop_assert_eq!(before, fingerprint(&store, &ib));
            } else {
                let batch = engine.plan(&mut rng);
                let ids = ib.try_apply_batch(&mut store, &batch, &mut search)
                    .expect("planned batches are valid");
                engine.confirm(&ids);
            }
            splits += ib.maintain(&store, &mut rng, &mut search).splits;
            prop_assert!(ib.audit(&store).is_ok(), "audit stays green");
        }
        prop_assert!(splits > 0, "the burst must make maintenance split");
    }
}

/// Front 4: one maintainer of a fleet loses its WAL sink mid-stream.
///
/// Drives three fully independent `DurableMaintainer`s (the shape the
/// `idb-shard` router manages) through identical churn twice — once with
/// maintainer 1's sink failing mid-stream and healing later, once
/// without — and demands the faulted fleet end bit-identical to the
/// clean one, with the fault never visible outside maintainer 1.
#[test]
fn sink_death_in_a_fleet_stays_contained_and_heals_bit_identically() {
    const FLEET: usize = 3;
    const SICK: usize = 1;

    let run = |fault: bool, hot_points: Option<usize>| -> Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> {
        let mut fleet: Vec<(DurableMaintainer<FaultSink, MemMedium>, StdRng, SearchStats)> = (0
            ..FLEET)
            .map(|m| {
                let (store, ib, rng, search) = fixture(3000 + m as u64);
                let maintainer = DurableMaintainer::adopt(
                    store,
                    ib,
                    DurabilityConfig {
                        hot_points,
                        ..DurabilityConfig::default()
                    },
                    ObjectSink::new(FaultMedium::new(), "wal"),
                    MemMedium::new(),
                )
                .expect("adopt");
                (maintainer, rng, search)
            })
            .collect();

        let mut brng = StdRng::seed_from_u64(0xF1EE7);
        let churn =
            |fleet: &mut Vec<(DurableMaintainer<FaultSink, MemMedium>, StdRng, SearchStats)>,
             brng: &mut StdRng| {
                for (maintainer, rng, search) in fleet.iter_mut() {
                    let delete = maintainer.store().ids().next().unwrap();
                    let batch = Batch {
                        deletes: vec![delete],
                        inserts: (0..4)
                            .map(|_| {
                                let c = f64::from(brng.gen_range(0u32..3)) * 40.0;
                                (vec![c + brng.gen_range(-1.0..1.0), c], Some(0))
                            })
                            .collect(),
                    };
                    maintainer
                        .apply(&batch, rng, search)
                        .expect("valid batch applies");
                }
            };

        churn(&mut fleet, &mut brng);
        if fault {
            let sink = fleet[SICK].0.wal_sink_mut();
            sink.medium().set_fail_appends(1000);
            sink.medium().set_fail_syncs(1000);
        }
        churn(&mut fleet, &mut brng);
        if fault {
            // Only the sick maintainer degrades; its batches are buffered,
            // not lost, and every sibling stays healthy.
            for (m, (maintainer, _, _)) in fleet.iter_mut().enumerate() {
                match maintainer.sync() {
                    Health::Degraded {
                        buffered_batches, ..
                    } => {
                        assert_eq!(m, SICK, "only the sick maintainer may degrade");
                        assert!(buffered_batches > 0);
                    }
                    Health::Healthy => assert_ne!(m, SICK, "the sick maintainer must degrade"),
                }
            }
            fleet[SICK].0.wal_sink().medium().heal();
        }
        churn(&mut fleet, &mut brng);

        fleet
            .iter_mut()
            .map(|(maintainer, _, _)| {
                assert_eq!(maintainer.sync(), Health::Healthy);
                let mut s = Vec::new();
                maintainer
                    .store()
                    .write_snapshot(&mut s)
                    .expect("vec write");
                let mut b = Vec::new();
                maintainer
                    .bubbles()
                    .write_snapshot(&mut b)
                    .expect("vec write");
                (s, b, maintainer.wal_sink_mut().bytes().to_vec())
            })
            .collect()
    };

    for hot_points in HOT_POINTS {
        assert_eq!(
            run(true, hot_points),
            run(false, hot_points),
            "hot {hot_points:?}: the healed fleet must be bit-identical to the never-faulted fleet"
        );
    }
}

/// The durable path reads each deleted point's cold record once: staging
/// it before the WAL append both proves the tier can serve the batch and
/// carries the coordinates the apply removes. With maintenance off and no
/// checkpoint due, `k` cold deletes raise `cold_reads` by exactly `k`.
#[test]
fn durable_batch_reads_each_cold_delete_once() {
    let (mut store, ib, _, mut search) = fixture(0x0DE1);
    let hot = 8;
    store
        .enable_tier(Box::new(MemMedium::new()), hot)
        .expect("initial spill over a healthy medium");
    let dcfg = DurabilityConfig {
        checkpoint_interval: 1_000,
        hot_points: Some(hot),
        ..DurabilityConfig::default()
    };
    let mut dm = DurableMaintainer::adopt(
        store,
        ib,
        dcfg,
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("MemSink never fails");
    let counters = |dm: &DurableMaintainer<_, _>| dm.store().tier_counters().expect("tiered");
    for (round, k) in [1usize, 3, 7].into_iter().enumerate() {
        // Cold ids, found by a read that misses (reads never promote).
        let mut cold = Vec::new();
        let mut buf = Vec::new();
        for id in dm.store().ids() {
            let misses = counters(&dm).misses;
            dm.store()
                .read_point_into(id, &mut buf)
                .expect("healthy tier");
            if counters(&dm).misses > misses {
                cold.push(id);
            }
            if cold.len() == k {
                break;
            }
        }
        assert_eq!(cold.len(), k, "the store has {k} cold points");
        let before = counters(&dm).cold_reads;
        let batch = Batch {
            deletes: cold,
            inserts: Vec::new(),
        };
        dm.apply_with(&batch, round as u64, false, &mut search)
            .expect("a healthy tier applies");
        assert_eq!(
            counters(&dm).cold_reads - before,
            k as u64,
            "round {round}: one cold read per cold delete"
        );
    }
}

/// A small valid churn batch against the maintainer's current store.
fn churn_batch<R: Rng + ?Sized>(store: &PointStore, brng: &mut R) -> Batch {
    let delete = store.ids().next().unwrap();
    Batch {
        deletes: vec![delete],
        inserts: (0..4)
            .map(|_| {
                let c = f64::from(brng.gen_range(0u32..3)) * 40.0;
                (vec![c + brng.gen_range(-1.0..1.0), c], Some(0))
            })
            .collect(),
    }
}

/// Front 5a: the degraded-mode buffer is hard-capped. While the sink is
/// down, batches buffer up to `max_buffered`; past it they are shed with a
/// typed [`StorageError::BufferFull`], leaving state byte-identical. The
/// shed count surfaces in [`Health::Degraded`], and healing drains the
/// backlog so the shed batch goes through on retry.
#[test]
fn degraded_buffer_cap_sheds_typed_and_heals() {
    for hot_points in HOT_POINTS {
        let (store, ib, mut rng, mut search) = fixture(9001);
        let dcfg = DurabilityConfig {
            checkpoint_interval: u64::MAX,
            max_retries: 0,
            max_buffered: 3,
            hot_points,
            ..DurabilityConfig::default()
        };
        let mut dm = DurableMaintainer::adopt(
            store,
            ib,
            dcfg,
            ObjectSink::new(FaultMedium::new(), "wal"),
            MemMedium::new(),
        )
        .expect("sink starts healthy");
        dm.wal_sink().medium().set_fail_syncs(usize::MAX);

        let mut brng = StdRng::seed_from_u64(0xB0FF);
        for _ in 0..3 {
            let batch = churn_batch(dm.store(), &mut brng);
            dm.apply(&batch, &mut rng, &mut search)
                .expect("batches under the cap buffer, not fail");
        }
        let before = fingerprint(dm.store(), dm.bubbles());
        let doomed = churn_batch(dm.store(), &mut brng);
        match dm.apply(&doomed, &mut rng, &mut search) {
            Err(UpdateError::Storage(StorageError::BufferFull { buffered, max })) => {
                assert_eq!((buffered, max), (3, 3));
            }
            other => panic!("expected a BufferFull shed, got {other:?}"),
        }
        assert_eq!(
            before,
            fingerprint(dm.store(), dm.bubbles()),
            "a shed batch must leave state byte-identical"
        );
        assert_eq!(
            dm.health(),
            Health::Degraded {
                buffered_batches: 3,
                shed_batches: 1
            }
        );
        assert_eq!(dm.shed_batches(), 1);

        // Healing drains the backlog; the shed batch goes through on retry and
        // the full WAL decodes.
        dm.wal_sink().medium().heal();
        assert_eq!(dm.sync(), Health::Healthy);
        dm.apply(&doomed, &mut rng, &mut search)
            .expect("retry after heal");
        assert_eq!(dm.sync(), Health::Healthy);
        let contents = read_wal(&dm.wal_sink().bytes()).expect("wal intact after heal");
        assert_eq!(contents.records.len(), 4);
    }
}

/// Front 5b: a sink reporting `ENOSPC` (partial write included). Batches
/// buffer while the disk is full; at the cap the shed error is the typed
/// [`StorageError::Enospc`]; freeing space heals, the short write is
/// repaired, and the WAL decodes clean.
#[test]
fn enospc_sink_sheds_typed_and_repairs_after_space_frees() {
    for hot_points in HOT_POINTS {
        let (store, ib, mut rng, mut search) = fixture(9002);
        let dcfg = DurabilityConfig {
            checkpoint_interval: u64::MAX,
            max_retries: 0,
            max_buffered: 2,
            hot_points,
            ..DurabilityConfig::default()
        };
        let mut dm = DurableMaintainer::adopt(
            store,
            ib,
            dcfg,
            ObjectSink::new(FaultMedium::new(), "wal"),
            MemMedium::new(),
        )
        .expect("sink starts healthy");
        // The device fills five bytes past what is already durable: the next
        // commit partially writes to the boundary, then fails StorageFull.
        let full_at = dm.wal_sink().bytes().len() as u64 + 5;
        dm.wal_sink().medium().set_enospc_after(full_at);

        let mut brng = StdRng::seed_from_u64(0xE05C);
        for _ in 0..2 {
            let batch = churn_batch(dm.store(), &mut brng);
            dm.apply(&batch, &mut rng, &mut search)
                .expect("batches under the cap buffer, not fail");
        }
        assert!(matches!(
            dm.health(),
            Health::Degraded {
                buffered_batches: 2,
                ..
            }
        ));
        let before = fingerprint(dm.store(), dm.bubbles());
        let doomed = churn_batch(dm.store(), &mut brng);
        match dm.apply(&doomed, &mut rng, &mut search) {
            Err(UpdateError::Storage(StorageError::Enospc { .. })) => {}
            other => panic!("expected an Enospc shed, got {other:?}"),
        }
        assert_eq!(before, fingerprint(dm.store(), dm.bubbles()));

        // Space frees: the torn prefix is repaired, the backlog lands, the
        // shed batch goes through on retry, and the WAL decodes clean.
        dm.wal_sink().medium().heal();
        assert_eq!(dm.sync(), Health::Healthy);
        dm.apply(&doomed, &mut rng, &mut search)
            .expect("retry after space freed");
        assert_eq!(dm.sync(), Health::Healthy);
        let contents = read_wal(&dm.wal_sink().bytes()).expect("wal intact after repair");
        assert_eq!(contents.records.len(), 3);
        assert!(!contents.torn_tail);
    }
}

/// Front 5c: the disk budget on a segmented chain. With a budget a few
/// segments wide, the maintainer holds it by compacting behind its own
/// checkpoints — no batch is ever shed and the footprint stays bounded.
/// With an impossible budget, every batch sheds with the typed
/// [`StorageError::BudgetExceeded`] and state never advances.
#[test]
fn disk_budget_compacts_first_and_sheds_only_when_impossible() {
    for hot_points in HOT_POINTS {
        // Part 1: a holdable budget is held without shedding.
        let (store, ib, mut rng, mut search) = fixture(9003);
        let dcfg = DurabilityConfig {
            checkpoint_interval: 2,
            full_rebase_interval: 2,
            disk_budget: StorageBudget::bytes(2048),
            hot_points,
            ..DurabilityConfig::default()
        };
        let sink = SegmentedSink::fresh(MemMedium::new(), 256).expect("fresh chain");
        let mut dm = DurableMaintainer::adopt(store, ib, dcfg, sink, MemMedium::new())
            .expect("medium starts healthy");
        let mut brng = StdRng::seed_from_u64(0xD15C);
        for round in 0..16 {
            let batch = churn_batch(dm.store(), &mut brng);
            dm.apply(&batch, &mut rng, &mut search)
                .unwrap_or_else(|e| panic!("round {round}: a holdable budget must not shed: {e}"));
            let live = dm.live_wal_bytes().expect("segmented sinks report");
            assert!(
                live <= 2048 + 512,
                "round {round}: live chain {live} bytes despite compaction"
            );
        }
        assert_eq!(dm.shed_batches(), 0);
        assert_eq!(dm.sync(), Health::Healthy);

        // Part 2: a budget no amount of compaction can meet sheds typed, with
        // exact rollback, and surfaces in health.
        let (store, ib, mut rng, mut search) = fixture(9004);
        let dcfg = DurabilityConfig {
            checkpoint_interval: u64::MAX,
            disk_budget: StorageBudget::bytes(8),
            hot_points,
            ..DurabilityConfig::default()
        };
        let sink = SegmentedSink::fresh(MemMedium::new(), 256).expect("fresh chain");
        let mut dm = DurableMaintainer::adopt(store, ib, dcfg, sink, MemMedium::new())
            .expect("medium starts healthy");
        let before = fingerprint(dm.store(), dm.bubbles());
        for round in 0..2 {
            let batch = churn_batch(dm.store(), &mut brng);
            match dm.apply(&batch, &mut rng, &mut search) {
                Err(UpdateError::Storage(StorageError::BudgetExceeded { live_bytes, budget })) => {
                    assert_eq!(budget, 8);
                    assert!(live_bytes > 8);
                }
                other => panic!("round {round}: expected BudgetExceeded, got {other:?}"),
            }
            assert_eq!(
                dm.shed_batches(),
                round + 1,
                "every breach must count one shed"
            );
        }
        assert_eq!(
            before,
            fingerprint(dm.store(), dm.bubbles()),
            "budget-shed batches must leave state byte-identical"
        );
        assert!(matches!(
            dm.health(),
            Health::Degraded {
                shed_batches: 2,
                ..
            }
        ));
    }
}

/// Front 5d: a disk-budget forced checkpoint whose checkpoint medium
/// fails. The batch sheds typed as before, and the failed checkpoint
/// costs what a failed interval one does: the checkpoint store stays
/// down (health degraded even once compaction brings the chain back under
/// the budget), its sequence number is burned, and the next published
/// checkpoint is full. Recovery from the media equals the never-faulted
/// twin.
#[test]
fn a_failed_forced_checkpoint_sheds_degrades_and_rebases_full() {
    const BUDGET: u64 = 1700;
    let (store, ib, _, mut search) = fixture(9005);
    let dcfg = |disk_budget| DurabilityConfig {
        checkpoint_interval: 6,
        full_rebase_interval: 2,
        disk_budget,
        ..DurabilityConfig::default()
    };
    let wal = MemMedium::new();
    let ckpts = FaultMedium::new();
    let mut dm = DurableMaintainer::adopt(
        store.clone(),
        ib.clone(),
        dcfg(StorageBudget::bytes(BUDGET)),
        SegmentedSink::fresh(wal.clone(), 256).expect("fresh chain"),
        ckpts.clone(),
    )
    .expect("healthy media");
    let mut twin = DurableMaintainer::adopt(
        store,
        ib,
        dcfg(StorageBudget::unbounded()),
        SegmentedSink::fresh(MemMedium::new(), 256).expect("fresh chain"),
        MemMedium::new(),
    )
    .expect("healthy media");
    let mut brng = StdRng::seed_from_u64(0xB0D6);
    let mut step =
        |dm: &mut DurableMaintainer<_, _>, twin: &mut DurableMaintainer<_, _>, batch: &Batch| {
            let seed = dm.batches_applied();
            dm.apply_with(batch, seed, true, &mut search)?;
            twin.apply_with(batch, seed, true, &mut search)
                .expect("the twin applies every batch");
            Ok::<_, UpdateError>(())
        };

    // Checkpoint 2, the full one at batch 12, publishes but its compaction
    // cannot sync it, so the segments it covers stay behind until the
    // budget is breached.
    while dm.live_wal_bytes().expect("segmented") <= BUDGET {
        if dm.batches_applied() == 11 {
            ckpts.set_fail_syncs(1);
        }
        let batch = churn_batch(dm.store(), &mut brng);
        step(&mut dm, &mut twin, &batch).expect("under the budget");
    }
    let breached_at = dm.batches_applied();
    assert!(
        (13..17).contains(&breached_at),
        "the breach must fall between checkpoint 2 and the next interval ({breached_at})"
    );

    // The breach: compaction cannot sync, and the forced full checkpoint
    // cannot write, so the batch sheds with exact rollback.
    ckpts.set_fail_syncs(1);
    ckpts.set_write_outage(true);
    let before = fingerprint(dm.store(), dm.bubbles());
    let doomed = churn_batch(dm.store(), &mut brng);
    match step(&mut dm, &mut twin, &doomed) {
        Err(UpdateError::Storage(StorageError::BudgetExceeded { live_bytes, budget })) => {
            assert_eq!(budget, BUDGET);
            assert!(live_bytes > BUDGET);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(before, fingerprint(dm.store(), dm.bubbles()));
    assert_eq!(dm.shed_batches(), 1);
    assert!(matches!(dm.health(), Health::Degraded { .. }));

    // Healed: compaction now reclaims behind checkpoint 2 and the batch
    // applies, but no checkpoint has published since the failed one.
    ckpts.heal();
    step(&mut dm, &mut twin, &doomed).expect("the healed media take the batch");
    assert!(dm.live_wal_bytes().expect("segmented") <= BUDGET);
    assert!(
        matches!(dm.health(), Health::Degraded { .. }),
        "the checkpoint store stays down until a checkpoint publishes"
    );

    // The next interval checkpoint skips the burned sequence number and
    // is full: the failed blob's dirty window closed with it.
    while ckpts.inner().seqs().expect("lists").into_iter().max() == Some(2) {
        let batch = churn_batch(dm.store(), &mut brng);
        step(&mut dm, &mut twin, &batch).expect("under the budget");
    }
    let newest = ckpts.inner().seqs().expect("lists").into_iter().max();
    assert_eq!(newest, Some(4), "the failed checkpoint burned sequence 3");
    let blob = ckpts.inner().load(4).expect("published");
    assert!(
        !blob.starts_with(DELTA_CHECKPOINT_MAGIC),
        "checkpoint 4 must be full"
    );
    assert_eq!(dm.health(), Health::Healthy);

    let rec = recover_chain(&wal, ckpts.inner(), &Obs::disabled()).expect("the media recover");
    assert_eq!(rec.batches_durable, twin.batches_applied());
    assert_eq!(
        fingerprint(&rec.store, &rec.bubbles),
        fingerprint(twin.store(), twin.bubbles())
    );
}

/// The cold tier's degrade → heal ladder (DESIGN.md §17). A read outage
/// on the cold medium is caught while the batch is staged, before the
/// WAL append: the batch is shed with a typed [`StorageError::ColdIo`],
/// no WAL record lands, the state fingerprint is untouched, health
/// degrades but the tier is *not* poisoned — and after the volume heals,
/// the identical batch applies. A write outage strikes only the post-commit eviction sweep:
/// the batch itself succeeds, the maintainer degrades without shedding,
/// and heal + `sync()` re-runs the sweep and restores the resident-set
/// bound.
#[test]
fn cold_tier_outage_degrades_typed_and_heals() {
    use idb_store::{MemMedium, ObjectSink};
    use idb_synth::FaultMedium;

    let (mut store, mut ib, mut rng, mut search) = fixture(0xC01D);
    // Metrics on: every shed must reach the `storage.shed` counter.
    let obs = Obs::metrics_only();
    ib.set_obs(obs.clone());
    let hot = 8;
    let cold = FaultMedium::new();
    store
        .enable_tier(Box::new(cold.clone()), hot)
        .expect("initial spill over a healthy medium");
    let dcfg = DurabilityConfig {
        checkpoint_interval: 2,
        hot_points: Some(hot),
        ..DurabilityConfig::default()
    };
    let mut dm = DurableMaintainer::adopt(
        store,
        ib,
        dcfg,
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("MemSink never fails");

    // Warm-up: a healthy tiered batch applies clean and stays bounded.
    let b0 = churn_batch(dm.store(), &mut rng);
    dm.apply_with(&b0, 1, true, &mut search)
        .expect("healthy tier applies");
    assert_eq!(dm.health(), Health::Healthy);
    assert!(dm.store().resident_points() <= hot);
    let before = fingerprint(dm.store(), dm.bubbles());
    let wal_before = dm.wal_sink().bytes().len();

    // Read outage ("the volume detached"): shed pre-WAL, typed, clean.
    cold.set_read_outage(true);
    let b1 = churn_batch(dm.store(), &mut rng);
    let err = dm
        .apply_with(&b1, 2, true, &mut search)
        .expect_err("a read outage must shed the batch");
    assert!(
        matches!(err, UpdateError::Storage(StorageError::ColdIo { .. })),
        "expected a typed cold-IO shed, got: {err}"
    );
    assert!(
        matches!(dm.health(), Health::Degraded { .. }),
        "a cold outage must surface as degraded health"
    );
    assert!(
        !dm.tier_poisoned(),
        "a pre-WAL shed never poisons: nothing was logged"
    );
    assert_eq!(
        dm.wal_sink().bytes().len(),
        wal_before,
        "the shed happens before the WAL: no record may land"
    );
    assert_eq!(dm.shed_batches(), 1);
    assert_eq!(
        obs.metrics().counter("storage.shed").get(),
        dm.shed_batches(),
        "a cold-tier shed must count in the storage.shed metric"
    );

    // Heal: the state is exactly what it was before the shed, and the
    // *identical* batch now applies.
    cold.heal();
    assert_eq!(
        fingerprint(dm.store(), dm.bubbles()),
        before,
        "the shed batch must leave the state untouched"
    );
    dm.apply_with(&b1, 2, true, &mut search)
        .expect("the healed tier applies the previously shed batch");
    assert_eq!(dm.health(), Health::Healthy);

    // Write outage ("the disk stopped accepting writes"): the eviction
    // sweep runs after the commit, so the batch itself must succeed.
    cold.set_write_outage(true);
    let b2 = churn_batch(dm.store(), &mut rng);
    dm.apply_with(&b2, 3, true, &mut search)
        .expect("a write outage must not fail the committed batch");
    assert!(
        matches!(dm.health(), Health::Degraded { .. }),
        "a failed eviction sweep must degrade"
    );
    assert!(
        !dm.tier_poisoned(),
        "a failed sweep is recoverable in place"
    );

    // Heal + sync: the sweep re-runs and the bound is restored.
    cold.heal();
    assert_eq!(dm.sync(), Health::Healthy);
    assert!(
        dm.store().resident_points() <= hot,
        "post-heal sweep must restore the resident-set bound"
    );
    let counters = dm.store().tier_counters().expect("tiered");
    assert!(counters.cold_reads > 0, "the run must exercise cold reads");
    assert!(counters.evictions > 0, "the run must exercise evictions");
}
