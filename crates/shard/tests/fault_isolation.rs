//! Fault-isolation suites for the sharded service layer.
//!
//! The contract under test: a fault in one partition — a dying WAL sink,
//! a crash — never leaks outside it. Siblings keep serving, the
//! supervisor quarantines and heals the sick partition, a crashed one
//! restarts through ordinary recovery, and once the dust settles the
//! system state is **bit-identical** to a run where the fault never
//! happened.

use idb_core::{recover, DurabilityConfig, MaintainerConfig, UpdateError};
use idb_geometry::Parallelism;
use idb_obs::{check_journal_sharded, Event, EventKind, Obs, RingRecorder};
use idb_shard::{route_point, GlobalId, PartitionStatus, ShardConfig, ShardError, ShardRouter};
use idb_store::segment::SegmentedSink;
use idb_store::{Batch, MemMedium, ObjectSink, PointId, StorageBudget, StorageError};
use idb_synth::FaultMedium;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DIM: usize = 3;
const PARTITIONS: u32 = 4;
const TARGET: u32 = 1;

fn random_point<R: Rng + ?Sized>(rng: &mut R) -> Vec<f64> {
    (0..DIM).map(|_| rng.gen_range(0.0..100.0)).collect()
}

/// A point guaranteed to route — or not — to `target`.
fn point_routing<R: Rng + ?Sized>(rng: &mut R, target: u32, want: bool) -> Vec<f64> {
    loop {
        let p = random_point(rng);
        if (route_point(&p, PARTITIONS) == target) == want {
            return p;
        }
    }
}

fn initial_batch<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Batch {
    Batch {
        deletes: Vec::new(),
        inserts: (0..n).map(|_| (random_point(rng), Some(0))).collect(),
    }
}

/// A mixed update: fresh inserts plus deletes taken from the pool's
/// cursor (each id is consumed at *construction* time, so a shed batch
/// can be re-submitted later without double-deleting).
fn mixed_batch<R: Rng + ?Sized>(
    rng: &mut R,
    live: &[PointId],
    cursor: &mut usize,
    inserts: usize,
    deletes: usize,
) -> Batch {
    let deletes: Vec<PointId> = live[*cursor..*cursor + deletes].to_vec();
    *cursor += deletes.len();
    Batch {
        deletes,
        inserts: (0..inserts).map(|_| (random_point(rng), Some(1))).collect(),
    }
}

/// Serialized state of every partition, in partition order.
fn all_fingerprints<S, C>(router: &ShardRouter<S, C>) -> Vec<Vec<u8>>
where
    S: idb_store::DurableSink,
    C: idb_core::CheckpointStore,
{
    (0..router.config().partitions)
        .map(|p| {
            let m = router.maintainer(p).expect("partition online");
            let mut bytes = Vec::new();
            m.store().write_snapshot(&mut bytes).expect("vec write");
            m.bubbles().write_snapshot(&mut bytes).expect("vec write");
            bytes
        })
        .collect()
}

struct SinkFaultRun {
    fingerprints: Vec<Vec<u8>>,
    wal_bytes: Vec<Vec<u8>>,
    order_bits: (Vec<usize>, Vec<u64>),
    events: Vec<Event>,
}

/// The full sink-fault choreography. With `fault` off, the same batches
/// apply in the same effective order with no faults and no supervision —
/// the bit-identity reference.
fn sink_fault_run(fault: bool) -> SinkFaultRun {
    let ring = Arc::new(RingRecorder::new());
    let obs = Obs::with_recorder(ring.clone());
    let scfg = ShardConfig::new(PARTITIONS)
        .with_shards(2)
        .with_supervision(2, 2);
    let mut brng = StdRng::seed_from_u64(99);
    let (mut router, mut live) = ShardRouter::create(
        DIM,
        &initial_batch(&mut brng, 600),
        &MaintainerConfig::new(10),
        scfg,
        DurabilityConfig::default(),
        4242,
        &obs,
        |_| (ObjectSink::new(FaultMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");
    let mut cursor = 0usize;

    // Two ordinary rounds.
    for _ in 0..2 {
        let batch = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
        live.extend(router.apply(&batch).expect("apply"));
    }

    // The target partition's sink dies.
    if fault {
        let sink = router
            .maintainer_mut(TARGET)
            .expect("online")
            .wal_sink_mut();
        sink.medium().set_fail_appends(1000);
        sink.medium().set_fail_syncs(1000);
    }

    // The next round still *applies* (in memory) but leaves the target
    // degraded; siblings are untouched.
    let b3 = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
    live.extend(router.apply(&b3).expect("apply"));
    if fault {
        assert!(matches!(
            router.status(TARGET),
            PartitionStatus::Degraded { buffered_batches, .. } if buffered_batches > 0
        ));
        // Two degraded polls quarantine the target; every sibling stays
        // healthy through both.
        for (poll, expect) in [
            (
                1,
                PartitionStatus::Degraded {
                    buffered_batches: 1,
                    shed_batches: 0,
                },
            ),
            (2, PartitionStatus::Quarantined),
        ] {
            let statuses = router.poll_health();
            assert_eq!(statuses[TARGET as usize], expect, "poll {poll}");
            for (p, s) in statuses.iter().enumerate() {
                if p != TARGET as usize {
                    assert_eq!(*s, PartitionStatus::Healthy, "poll {poll}, sibling {p}");
                }
            }
        }
    }

    // Two rounds that touch the quarantined partition: shed whole with a
    // typed error, buffered client-side.
    let b4 = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
    let b5 = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
    if fault {
        for b in [&b4, &b5] {
            match router.submit(b) {
                Err(ShardError::Unavailable { partition }) => assert_eq!(partition, TARGET),
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
    }

    // A sibling-only round serves while the target is quarantined.
    let sibling_batch = Batch {
        deletes: Vec::new(),
        inserts: (0..12)
            .map(|_| (point_routing(&mut brng, TARGET, false), Some(2)))
            .collect(),
    };
    live.extend(router.apply(&sibling_batch).expect("siblings must serve"));

    // The sink heals; two healthy polls release the quarantine.
    if fault {
        router
            .maintainer_mut(TARGET)
            .expect("online")
            .wal_sink()
            .medium()
            .heal();
        let statuses = router.poll_health();
        assert_eq!(statuses[TARGET as usize], PartitionStatus::Quarantined);
        let statuses = router.poll_health();
        assert_eq!(statuses[TARGET as usize], PartitionStatus::Healthy);
    }

    // The buffered rounds land, in order, then one more ordinary round.
    live.extend(router.apply(&b4).expect("apply after heal"));
    live.extend(router.apply(&b5).expect("apply after heal"));
    let b6 = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
    live.extend(router.apply(&b6).expect("apply"));

    router.sync_all();
    let fingerprints = all_fingerprints(&router);
    let wal_bytes = (0..PARTITIONS)
        .map(|p| {
            router
                .maintainer_mut(p)
                .unwrap()
                .wal_sink_mut()
                .bytes()
                .to_vec()
        })
        .collect();
    let (_, ordering) = router
        .cluster(25.0, 5, Parallelism::Serial)
        .expect("cluster");
    SinkFaultRun {
        fingerprints,
        wal_bytes,
        order_bits: (
            ordering.order.clone(),
            ordering.reachability.iter().map(|r| r.to_bits()).collect(),
        ),
        events: ring.events(),
    }
}

#[test]
fn sink_fault_quarantines_heals_and_reconverges_bit_identically() {
    let faulted = sink_fault_run(true);
    let clean = sink_fault_run(false);
    assert_eq!(
        faulted.fingerprints, clean.fingerprints,
        "post-heal state must equal the never-faulted run"
    );
    assert_eq!(
        faulted.wal_bytes, clean.wal_bytes,
        "post-heal WAL bytes must equal the never-faulted run"
    );
    assert_eq!(faulted.order_bits, clean.order_bits);

    // The journal tells the story, demultiplexed per partition: the
    // quarantine entry/exit and every sink fault carry the target's tag
    // and no one else's.
    let quarantines: Vec<&Event> = faulted
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Quarantine { .. }))
        .collect();
    assert_eq!(quarantines.len(), 2, "one entry, one exit");
    assert!(matches!(
        quarantines[0].kind,
        EventKind::Quarantine { entered: true }
    ));
    assert!(matches!(
        quarantines[1].kind,
        EventKind::Quarantine { entered: false }
    ));
    for e in &quarantines {
        assert_eq!(e.shard, Some(TARGET));
    }
    for e in &faulted.events {
        if matches!(e.kind, EventKind::SinkFault { .. }) {
            assert_eq!(
                e.shard,
                Some(TARGET),
                "sink faults must carry the target tag"
            );
        }
    }
    check_journal_sharded(&faulted.events).expect("sharded journal invariants");

    // The clean run saw no quarantine and no faults at all.
    assert!(!clean.events.iter().any(|e| matches!(
        e.kind,
        EventKind::Quarantine { .. } | EventKind::SinkFault { .. }
    )));
}

/// The crash choreography. With `crash` off, the same batches apply in
/// the same effective order (the doomed round is still *constructed*, to
/// keep the RNG aligned, but never applied — in the crash run it is shed
/// whole).
fn crash_run(crash: bool) -> Vec<Vec<u8>> {
    let mut brng = StdRng::seed_from_u64(321);
    let (mut router, mut live) = ShardRouter::create(
        DIM,
        &initial_batch(&mut brng, 600),
        &MaintainerConfig::new(10),
        ShardConfig::new(PARTITIONS).with_shards(2),
        DurabilityConfig::default(),
        4242,
        &Obs::disabled(),
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");
    let mut cursor = 0usize;

    for _ in 0..3 {
        let batch = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
        live.extend(router.apply(&batch).expect("apply"));
    }
    router.sync_all();
    let pre_kill = all_fingerprints(&router);

    let doomed = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
    if crash {
        let (sink, checkpoints) = router.kill_partition(TARGET).expect("was online");
        assert_eq!(router.status(TARGET), PartitionStatus::Offline);
        assert!(router.kill_partition(TARGET).is_none(), "already offline");

        // Work touching the dead partition fails typed; so does a
        // clustering pass over the incomplete system.
        match router.submit(&doomed) {
            Err(ShardError::Unavailable { partition }) => assert_eq!(partition, TARGET),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(matches!(
            router.cluster(25.0, 5, Parallelism::Serial),
            Err(ShardError::Unavailable { partition }) if partition == TARGET
        ));

        // Siblings keep serving while the partition is down.
        let sibling_batch = Batch {
            deletes: Vec::new(),
            inserts: (0..12)
                .map(|_| (point_routing(&mut brng, TARGET, false), Some(2)))
                .collect(),
        };
        live.extend(router.apply(&sibling_batch).expect("siblings must serve"));

        // Restart through ordinary recovery: the WAL the sink holds plus
        // the checkpoints rebuild the exact pre-crash state.
        let wal = sink.bytes().to_vec();
        let report = router
            .restart_partition(TARGET, &wal, sink, checkpoints)
            .expect("restart");
        assert!(!report.torn_tail, "the sink was synced before the kill");
        assert_eq!(
            all_fingerprints(&router)[TARGET as usize],
            pre_kill[TARGET as usize],
            "recovery must rebuild the exact pre-crash partition"
        );
    } else {
        // Reference: the doomed round simply never happens; the sibling
        // round does.
        let sibling_batch = Batch {
            deletes: Vec::new(),
            inserts: (0..12)
                .map(|_| (point_routing(&mut brng, TARGET, false), Some(2)))
                .collect(),
        };
        live.extend(router.apply(&sibling_batch).expect("apply"));
    }

    // Normal service resumes across every partition.
    let after = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
    live.extend(router.apply(&after).expect("apply"));
    router
        .cluster(25.0, 5, Parallelism::Serial)
        .expect("cluster");
    router.sync_all();
    all_fingerprints(&router)
}

#[test]
fn crashed_partition_restarts_without_touching_siblings() {
    assert_eq!(
        crash_run(true),
        crash_run(false),
        "post-restart state must equal the never-crashed run"
    );
}

/// `restart_partition` resumes on the very media recovery read, so a kill
/// at any medium operation inside it — recovery's reads, the anchor
/// checkpoint, the WAL truncate, the new header — must leave media that
/// recover every acknowledged batch of the partition, bit-identically.
#[test]
fn a_kill_at_every_medium_op_inside_restart_keeps_every_acknowledged_batch() {
    let mut brng = StdRng::seed_from_u64(0x5EE9);
    let disks: Vec<FaultMedium> = (0..PARTITIONS).map(|_| FaultMedium::new()).collect();
    let dcfg = DurabilityConfig {
        checkpoint_interval: 2,
        ..DurabilityConfig::default()
    };
    let (mut router, mut live) = ShardRouter::create(
        DIM,
        &initial_batch(&mut brng, 600),
        &MaintainerConfig::new(10),
        ShardConfig::new(PARTITIONS).with_shards(2),
        dcfg,
        4242,
        &Obs::disabled(),
        |p| {
            let disk = &disks[p as usize];
            (ObjectSink::new(disk.clone(), "wal"), disk.clone())
        },
    )
    .expect("create");
    let mut cursor = 0usize;
    for _ in 0..5 {
        let batch = mixed_batch(&mut brng, &live, &mut cursor, 20, 5);
        live.extend(router.apply(&batch).expect("apply"));
    }
    router.sync_all();
    let want = all_fingerprints(&router)[TARGET as usize].clone();
    let acked = router.maintainer(TARGET).expect("online").batches_applied();
    let (sink, _) = router.kill_partition(TARGET).expect("was online");
    let crashed = sink.medium().inner().snapshot();

    let mut kills = 0;
    for k in 0.. {
        let disk = FaultMedium::over(crashed.snapshot());
        let sink = ObjectSink::new(disk.clone(), "wal");
        let wal = sink.bytes();
        let start = disk.op_count();
        disk.kill_after(k);
        let restarted = router.restart_partition(TARGET, &wal, sink, disk.clone());
        let finished = restarted.is_ok() && disk.op_count() - start < k;
        // The process dies here; the next one recovers from the medium.
        let image = disk.inner().snapshot();
        let wal = ObjectSink::new(image.clone(), "wal").bytes();
        let rec = recover(&wal, &image, &Obs::disabled())
            .unwrap_or_else(|e| panic!("killed after {k} medium ops of restart: {e}"));
        assert_eq!(rec.batches_durable, acked, "killed after {k} medium ops");
        let mut got = Vec::new();
        rec.store.write_snapshot(&mut got).expect("vec write");
        rec.bubbles.write_snapshot(&mut got).expect("vec write");
        assert_eq!(got, want, "killed after {k} medium ops: state diverged");
        if finished {
            assert_eq!(all_fingerprints(&router)[TARGET as usize], want);
            break;
        }
        if restarted.is_ok() {
            router
                .kill_partition(TARGET)
                .expect("restarted partition is online");
        }
        kills += 1;
    }
    assert!(
        kills >= 6,
        "restart must span recovery, anchor and truncate ({kills} ops)"
    );
}

#[test]
fn queued_work_for_a_crashed_partition_fails_typed() {
    let mut brng = StdRng::seed_from_u64(7);
    let (mut router, _ids) = ShardRouter::create(
        DIM,
        &initial_batch(&mut brng, 400),
        &MaintainerConfig::new(10),
        ShardConfig::new(2).with_shards(2),
        DurabilityConfig::default(),
        1,
        &Obs::disabled(),
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");

    // A batch routed (partly) to partition 1, queued but not drained.
    let batch = Batch {
        deletes: Vec::new(),
        inserts: vec![
            (point_routing(&mut brng, 1, true), None),
            (point_routing(&mut brng, 1, false), None),
        ],
    };
    let ticket = router.submit(&batch).expect("submit");
    let _ = router.kill_partition(1).expect("was online");
    let results = router.drain();
    let (got, result) = &results[0];
    assert_eq!(*got, ticket);
    assert!(
        matches!(result, Err(ShardError::Unavailable { partition: 1 })),
        "queued work for the dead partition must fail typed, got {result:?}"
    );
}

#[test]
fn saturated_queue_sheds_whole_and_recovers_after_drain() {
    let mut brng = StdRng::seed_from_u64(11);
    let (mut router, _ids) = ShardRouter::create(
        DIM,
        &initial_batch(&mut brng, 400),
        &MaintainerConfig::new(10),
        ShardConfig::new(2).with_shards(2).with_queue_capacity(2),
        DurabilityConfig::default(),
        1,
        &Obs::disabled(),
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");

    let to_zero = |rng: &mut StdRng| Batch {
        deletes: Vec::new(),
        inserts: vec![(point_routing(rng, 0, true), None)],
    };
    let t1 = router.submit(&to_zero(&mut brng)).expect("submit 1");
    let t2 = router.submit(&to_zero(&mut brng)).expect("submit 2");
    let third = to_zero(&mut brng);
    match router.submit(&third) {
        Err(ShardError::QueueFull { shard, capacity }) => {
            assert_eq!(shard, 0);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // The sibling shard's queue is unaffected by the saturation.
    let t3 = router
        .submit(&Batch {
            deletes: Vec::new(),
            inserts: vec![(point_routing(&mut brng, 1, true), None)],
        })
        .expect("sibling shard must accept");

    // Draining frees the queue; every accepted ticket resolves and the
    // shed batch goes through on retry.
    let results = router.drain();
    let tickets: Vec<u64> = results.iter().map(|(t, _)| *t).collect();
    assert_eq!(tickets, vec![t1, t2, t3]);
    for (_, r) in &results {
        assert!(r.is_ok());
    }
    router.apply(&third).expect("retry after drain");
}

#[test]
fn unknown_delete_ids_are_rejected_at_the_routing_boundary() {
    for shards in [1, 4] {
        let mut brng = StdRng::seed_from_u64(13);
        let (mut router, ids) = ShardRouter::create(
            DIM,
            &initial_batch(&mut brng, 400),
            &MaintainerConfig::new(10),
            ShardConfig::new(2).with_shards(shards),
            DurabilityConfig::default(),
            1,
            &Obs::disabled(),
            |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
        )
        .expect("create");

        // A client id whose partition field names partition 200: shed
        // before any queue sees it.
        let bogus = GlobalId {
            partition: 200,
            local: PointId(3),
        }
        .client_id();
        let batch = Batch {
            deletes: vec![ids[0], bogus],
            inserts: Vec::new(),
        };
        match router.submit(&batch) {
            Err(ShardError::UnknownId { id }) => assert_eq!(id, bogus),
            other => panic!("N={shards}: expected UnknownId, got {other:?}"),
        }
        // The valid half of the shed batch is still live and deletable.
        router
            .apply(&Batch {
                deletes: vec![ids[0]],
                inserts: Vec::new(),
            })
            .expect("valid delete");
    }
}

/// One partition exhausts its disk budget; its submissions shed with a
/// typed [`StorageError::BudgetExceeded`] and exact rollback, while every
/// sibling keeps serving Healthy throughout.
///
/// Each partition writes a segmented WAL whose segment budget is larger
/// than the disk budget, so the active segment can never seal and
/// compaction cannot reclaim a byte: the bounded-degradation ladder
/// (compact, then checkpoint, then shed) is forced all the way down on
/// the flooded partition only.
#[test]
fn disk_budget_exhaustion_is_partition_local() {
    let obs = Obs::default();
    const BUDGET: u64 = 64 * 1024;
    let scfg = ShardConfig::new(PARTITIONS)
        .with_shards(2)
        .with_disk_budget(StorageBudget::bytes(BUDGET));
    let mut brng = StdRng::seed_from_u64(907);
    let (mut router, _live) = ShardRouter::create(
        DIM,
        &initial_batch(&mut brng, 600),
        &MaintainerConfig::new(10),
        scfg,
        DurabilityConfig::default(),
        907,
        &obs,
        // Segment budget 1 MiB > disk budget: rotation never fires, so the
        // live footprint is exactly the unreclaimable active segment.
        |_| {
            (
                SegmentedSink::fresh(MemMedium::new(), 1 << 20).expect("fresh chain"),
                MemMedium::new(),
            )
        },
    )
    .expect("create");

    // Flood only the target partition until its live WAL crosses the
    // budget and the maintainer sheds.
    let mut sheds = 0u64;
    for round in 0..200 {
        let flood = Batch {
            deletes: Vec::new(),
            inserts: (0..200)
                .map(|_| (point_routing(&mut brng, TARGET, true), Some(3)))
                .collect(),
        };
        let before = all_fingerprints(&router);
        match router.apply(&flood) {
            Ok(_) => {
                let live = router
                    .maintainer(TARGET)
                    .expect("online")
                    .live_wal_bytes()
                    .expect("segmented sink reports live bytes");
                assert!(
                    live <= BUDGET + 64 * 1024,
                    "round {round}: accepted batch left live={live} far over budget"
                );
            }
            Err(ShardError::Rejected { partition, source }) => {
                assert_eq!(partition, TARGET, "only the flooded partition sheds");
                match source {
                    UpdateError::Storage(StorageError::BudgetExceeded { live_bytes, budget }) => {
                        assert_eq!(budget, BUDGET);
                        assert!(live_bytes > budget);
                    }
                    other => panic!("expected BudgetExceeded, got {other:?}"),
                }
                // Shedding is a pure rejection: no partition moved.
                assert_eq!(
                    all_fingerprints(&router),
                    before,
                    "shed batch must roll back exactly"
                );
                sheds += 1;
                if sheds == 2 {
                    break;
                }
            }
            Err(other) => panic!("unexpected shard error: {other:?}"),
        }
    }
    assert_eq!(sheds, 2, "flood never breached the disk budget");

    // The flooded partition reports Degraded with its shed count; every
    // sibling is Healthy.
    match router.status(TARGET) {
        PartitionStatus::Degraded { shed_batches, .. } => assert_eq!(shed_batches, 2),
        other => panic!("expected Degraded target, got {other:?}"),
    }
    for p in 0..PARTITIONS {
        if p != TARGET {
            assert_eq!(
                router.status(p),
                PartitionStatus::Healthy,
                "sibling {p} must stay healthy"
            );
            let live = router
                .maintainer(p)
                .expect("online")
                .live_wal_bytes()
                .expect("live bytes");
            assert!(live <= BUDGET, "sibling {p} is nowhere near its budget");
        }
    }

    // Siblings keep serving: a sibling-only round lands while the target
    // is over budget.
    let sibling_batch = Batch {
        deletes: Vec::new(),
        inserts: (0..20)
            .map(|_| (point_routing(&mut brng, TARGET, false), Some(4)))
            .collect(),
    };
    router.apply(&sibling_batch).expect("siblings must serve");
    for p in 0..PARTITIONS {
        if p != TARGET {
            assert_eq!(router.status(p), PartitionStatus::Healthy);
        }
    }
}
