//! Ordering of the durability layer's destructive medium operations.
//!
//! Two rules keep acknowledged batches alive across a crash at *any*
//! medium operation:
//!
//! * **Anchor before truncate.** `DurableMaintainer::resume` runs on the
//!   very media recovery read. It must publish and sync the anchor
//!   checkpoint of the new epoch before it truncates the old epoch's WAL
//!   (a single object, or a segment chain adopted by
//!   `SegmentedSink::open`). The kill sweeps below stop the medium after
//!   every operation index inside `resume` and recover from what is left.
//! * **Sync before remove.** Compaction deletes WAL segments that a full
//!   checkpoint covers, so that checkpoint (its bytes and its name) must
//!   be synced first. No checkpoint is synced on the per-batch path of an
//!   unsegmented WAL, where nothing is ever removed.
//!
//! The whole op traces of `create`'s baseline and of a resume anchor are
//! pinned too: each checkpoint is staged, written in one append and
//! published by rename, exactly as a one-shot save.

use idb_core::{
    recover, recover_chain, DurabilityConfig, DurableMaintainer, IncrementalBubbles,
    MaintainerConfig, Recovered,
};
use idb_geometry::SearchStats;
use idb_obs::Obs;
use idb_store::segment::{read_chain, SegmentId, SegmentedSink};
use idb_store::{Batch, DurableSink, Medium, ObjectSink, PointId, PointStore};
use idb_synth::FaultMedium;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acknowledged batches before the crash: the stream checkpoints at 0 and
/// 8, so recovery stands on checkpoint 1 and replays 5 records.
const BATCHES: usize = 13;

fn dcfg() -> DurabilityConfig {
    DurabilityConfig {
        group_commit: 1,
        checkpoint_interval: 8,
        ..DurabilityConfig::default()
    }
}

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

fn churn_batch<R: Rng + ?Sized>(store: &PointStore, rng: &mut R) -> Batch {
    let deletes: Vec<PointId> = store.sample_distinct(3, rng);
    let inserts = (0..4)
        .map(|_| {
            let c = f64::from(rng.gen_range(0..3u32)) * 40.0;
            (
                vec![c + rng.gen_range(-1.0..1.0), c + rng.gen_range(-1.0..1.0)],
                Some(0),
            )
        })
        .collect();
    Batch { inserts, deletes }
}

/// Serialized store + summarization: equal bytes are bit-identical state.
fn fingerprint(store: &PointStore, ib: &IncrementalBubbles) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write_snapshot(&mut bytes).expect("vec write");
    ib.write_snapshot(&mut bytes).expect("vec write");
    bytes
}

/// Segment budget of the chained layout: small enough that the stream
/// rotates and compacts before the crash.
const SEGMENT_BYTES: u64 = 512;

/// The single-object WAL `"wal"`, beside its checkpoints.
fn object_wal(disk: FaultMedium) -> ObjectSink<FaultMedium> {
    ObjectSink::new(disk, "wal")
}

/// A segment chain beside its checkpoints, adopted as found: a fresh
/// chain on an empty medium, the recovered chain on a crash image.
fn chain_wal(disk: FaultMedium) -> SegmentedSink<FaultMedium> {
    SegmentedSink::open(disk, SEGMENT_BYTES).expect("the medium lists")
}

/// Recovers from whatever `disk` holds (the WAL — object `"wal"`, or the
/// segment chain when `chained` — plus its checkpoints) with faults off.
fn recover_image(disk: &FaultMedium, chained: bool) -> Recovered {
    let image = disk.inner().snapshot();
    let recovered = if chained {
        recover_chain(&image, &image, &Obs::disabled())
    } else {
        let wal = ObjectSink::new(image.clone(), "wal").bytes();
        recover(&wal, &image, &Obs::disabled())
    };
    recovered.expect("the image must recover")
}

/// Runs [`BATCHES`] acknowledged batches with the WAL and the checkpoints
/// on one fault medium; returns the medium and the final fingerprint.
fn acknowledged_stream<S: DurableSink>(wal: fn(FaultMedium) -> S) -> (FaultMedium, Vec<u8>) {
    let (store, ib, mut rng, mut search) = fixture(0x0A7C);
    let disk = FaultMedium::new();
    let mut dm = DurableMaintainer::adopt(store, ib, dcfg(), wal(disk.clone()), disk.clone())
        .expect("healthy medium");
    for _ in 0..BATCHES {
        let batch = churn_batch(dm.store(), &mut rng);
        dm.apply(&batch, &mut rng, &mut search)
            .expect("valid batch");
    }
    (disk, fingerprint(dm.store(), dm.bubbles()))
}

/// Kills `resume` after every medium-op index on the medium the crashed
/// stream left, and recovers each time; returns the number of kills.
fn kill_sweep_inside_resume<S: DurableSink>(wal: fn(FaultMedium) -> S, chained: bool) -> usize {
    let (crashed, want) = acknowledged_stream(wal);
    let first = recover_image(&crashed, chained);
    assert_eq!(first.batches_durable, BATCHES as u64);
    assert_eq!(first.checkpoint_seq, 1);
    assert_eq!(fingerprint(&first.store, &first.bubbles), want);

    let mut kills = 0;
    for k in 0.. {
        let disk = FaultMedium::over(crashed.inner().snapshot());
        let rec = recover_image(&disk, chained);
        let sink = wal(disk.clone());
        let start = disk.op_count();
        disk.kill_after(k);
        let resumed = DurableMaintainer::resume(rec, dcfg(), sink, disk.clone());
        let finished = resumed.is_ok() && disk.op_count() - start < k;
        // The process dies here; the next one recovers from the medium.
        let after = recover_image(&disk, chained);
        assert_eq!(
            after.batches_durable, BATCHES as u64,
            "killed after {k} medium ops of resume"
        );
        assert_eq!(
            fingerprint(&after.store, &after.bubbles),
            want,
            "killed after {k} medium ops of resume: state diverged"
        );
        if finished {
            break;
        }
        kills += 1;
    }
    kills
}

#[test]
fn a_kill_at_every_medium_op_inside_resume_keeps_every_acknowledged_batch() {
    let (crashed, _) = acknowledged_stream(object_wal);
    assert_eq!(recover_image(&crashed, false).replayed, 5);
    let kills = kill_sweep_inside_resume(object_wal, false);
    assert!(
        kills >= 6,
        "resume must span the anchor and the truncate ({kills} ops)"
    );
}

#[test]
fn a_kill_at_every_medium_op_inside_a_chained_resume_keeps_every_acknowledged_batch() {
    // The chain is resumed on its own medium: `open` adopts it, and the
    // old epoch's segments go only after the anchor is synced.
    let (crashed, _) = acknowledged_stream(chain_wal);
    let segments = crashed
        .inner()
        .list()
        .unwrap()
        .iter()
        .filter(|name| SegmentId::parse(name).is_some())
        .count();
    assert!(segments > 1, "the chain must span segments ({segments})");
    let kills = kill_sweep_inside_resume(chain_wal, true);
    assert!(
        kills >= 6 + segments,
        "resume must span the anchor and every segment removal ({kills} ops)"
    );

    // A completed resume leaves only the new epoch's chain behind.
    let disk = FaultMedium::over(crashed.inner().snapshot());
    let old_epoch = read_chain(disk.inner()).unwrap().epoch;
    let rec = recover_image(&disk, true);
    DurableMaintainer::resume(rec, dcfg(), chain_wal(disk.clone()), disk.clone())
        .expect("healthy medium");
    let epochs: Vec<u64> = disk
        .inner()
        .list()
        .unwrap()
        .iter()
        .filter_map(|name| SegmentId::parse(name))
        .map(|id| id.epoch)
        .collect();
    assert!(
        !epochs.is_empty() && epochs.iter().all(|&e| e > old_epoch),
        "old epoch {old_epoch} left behind: {epochs:?}"
    );
}

#[test]
fn resume_syncs_its_anchor_before_truncating_the_old_epoch() {
    let (crashed, _) = acknowledged_stream(object_wal);
    let disk = FaultMedium::over(crashed.inner().snapshot());
    let rec = recover_image(&disk, false);
    disk.start_trace();
    DurableMaintainer::resume(
        rec,
        dcfg(),
        ObjectSink::new(disk.clone(), "wal"),
        disk.clone(),
    )
    .expect("healthy medium");
    let trace = disk.trace();
    // The anchor is written exactly as a one-shot save: stage, one append,
    // publish, then synced before the old epoch is truncated.
    assert_eq!(
        trace,
        [
            "list *",
            "truncate .checkpoint-2.tmp",
            "append .checkpoint-2.tmp",
            "rename .checkpoint-2.tmp -> checkpoint-2.idbc",
            "sync checkpoint-2.idbc",
            "truncate wal",
            "append wal",
            "sync wal",
        ]
    );
    let at = |op: &str| {
        trace
            .iter()
            .position(|o| o == op)
            .unwrap_or_else(|| panic!("no `{op}` in {trace:?}"))
    };
    let published = at("rename .checkpoint-2.tmp -> checkpoint-2.idbc");
    let synced = at("sync checkpoint-2.idbc");
    let truncated = at("truncate wal");
    assert!(
        published < synced && synced < truncated,
        "publish, sync, then truncate: {trace:?}"
    );
}

/// `create` commits the WAL header, then writes its baseline checkpoint
/// as a one-shot save: stage, one append, publish.
#[test]
fn create_writes_its_baseline_after_the_wal_header_in_one_chunk() {
    let (store, _, mut rng, mut search) = fixture(0x0A7C);
    let disk = FaultMedium::new();
    disk.start_trace();
    DurableMaintainer::create(
        store,
        MaintainerConfig::new(10),
        dcfg(),
        ObjectSink::new(disk.clone(), "wal"),
        disk.clone(),
        &mut rng,
        &mut search,
    )
    .expect("healthy medium");
    assert_eq!(
        disk.trace(),
        [
            "append wal",
            "sync wal",
            "list *",
            "truncate .checkpoint-0.tmp",
            "append .checkpoint-0.tmp",
            "rename .checkpoint-0.tmp -> checkpoint-0.idbc",
        ]
    );
}

#[test]
fn compaction_syncs_the_covering_checkpoint_before_removing_segments() {
    let (store, ib, mut rng, mut search) = fixture(0x5E9C);
    let disk = FaultMedium::new();
    disk.start_trace();
    let dcfg = DurabilityConfig {
        checkpoint_interval: 2,
        full_rebase_interval: 2,
        checkpoint_chunk_bytes: 1024,
        ..DurabilityConfig::default()
    };
    let sink = SegmentedSink::fresh(disk.clone(), 512).expect("fresh chain");
    let mut dm = DurableMaintainer::adopt(store, ib, dcfg, sink, disk.clone()).expect("healthy");
    for _ in 0..30 {
        let batch = churn_batch(dm.store(), &mut rng);
        dm.apply(&batch, &mut rng, &mut search)
            .expect("valid batch");
    }
    let trace = disk.trace();
    let mut compactions = 0;
    for (i, op) in trace.iter().enumerate() {
        if !op.starts_with("remove wal-") || trace[i - 1].starts_with("remove wal-") {
            continue;
        }
        compactions += 1;
        let synced = trace[i - 1]
            .strip_prefix("sync ")
            .filter(|name| name.starts_with("checkpoint-"))
            .unwrap_or_else(|| panic!("`{op}` not preceded by a checkpoint sync: {trace:?}"));
        assert!(
            trace[..i]
                .iter()
                .any(|o| o.ends_with(&format!("-> {synced}"))),
            "the synced checkpoint {synced} was published first"
        );
    }
    assert!(compactions > 0, "the tiny segment budget must compact");
    assert!(dm.wal_sink().live_bytes().is_some());
}

#[test]
fn an_unsegmented_wal_syncs_no_checkpoint_on_the_batch_path() {
    let (store, ib, mut rng, mut search) = fixture(0x5E9D);
    let disk = FaultMedium::new();
    let dcfg = DurabilityConfig {
        checkpoint_interval: 2,
        ..dcfg()
    };
    let mut dm = DurableMaintainer::adopt(
        store,
        ib,
        dcfg,
        ObjectSink::new(disk.clone(), "wal"),
        disk.clone(),
    )
    .expect("healthy medium");
    disk.start_trace();
    for _ in 0..20 {
        let batch = churn_batch(dm.store(), &mut rng);
        dm.apply(&batch, &mut rng, &mut search)
            .expect("valid batch");
    }
    let trace = disk.trace();
    assert!(trace.iter().any(|o| o.ends_with("-> checkpoint-10.idbc")));
    assert_eq!(
        trace.iter().filter(|o| o.as_str() == "sync wal").count(),
        20,
        "one WAL sync per batch at group commit 1"
    );
    assert!(
        !trace.iter().any(|o| o.starts_with("sync checkpoint-")),
        "nothing is reclaimed, so no checkpoint sync: {trace:?}"
    );
}
