//! Crash-consistency differential suite.
//!
//! The durability contract (DESIGN.md §11): killing the process at *any*
//! byte of the WAL and recovering from the latest usable checkpoint plus
//! the WAL tail must yield store, bubble and engine state **bit-identical**
//! to the uninterrupted run at the corresponding batch count — and after
//! finishing the remaining stream, bit-identical final state. Every
//! non-recoverable corruption must surface as a typed [`RecoveryError`],
//! never a panic.
//!
//! The suite sweeps 256+ randomized scenario × crash-point cases: the
//! paper's dynamic scenarios with varied dimensionality, engine, and
//! checkpoint cadence, killed at record boundaries, at random mid-record
//! bytes, across a full byte sweep of the final record, and under
//! fault-injected sinks (short writes, failed fsyncs, dropped and
//! corrupted checkpoints).

use idb_core::{
    checkpoint_name, recover, recover_chain, CheckpointStore, DurabilityConfig, DurableMaintainer,
    FsCheckpoints, Health, IncrementalBubbles, MaintainerConfig, Parallelism, RecoveryError,
    SeedSearch, DELTA_CHECKPOINT_MAGIC,
};
use idb_geometry::SearchStats;
use idb_obs::{check_journal, Event, EventKind, Obs, RingRecorder};
use idb_store::segment::{SegmentId, SegmentedSink};
use idb_store::snapshot::read_frame;
use idb_store::wal::{read_wal, scratch_dir, FileSink, ObjectSink, WAL_VERSION};
use idb_store::{Batch, FsMedium, Medium, MemMedium, PointStore, StorageBudget};
use idb_synth::{flip_bit, FaultMedium, ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];

/// Hot-point budgets every durable scenario that does not pin its own
/// runs under: untiered, and 256 resident points with the rest spilled
/// to the cold tier. Tiering must never change an outcome.
const HOT_POINTS: [Option<usize>; 2] = [None, Some(256)];

/// The durability axes of the segmented scenarios, varied one at a time
/// from the untiered, unbounded baseline: the tiered store, then a 1 MiB
/// disk budget. Neither may change an outcome.
fn segmented_axes() -> [(Option<usize>, StorageBudget); 3] {
    [
        (None, StorageBudget::unbounded()),
        (HOT_POINTS[1], StorageBudget::unbounded()),
        (None, StorageBudget::bytes(1 << 20)),
    ]
}

/// Bit-exact state: live points (id, coordinate bits, label) in live-list
/// order, the free-list reuse stack, and every bubble's seed bits,
/// sufficient statistics bits and member list.
type Fingerprint = (
    Vec<(u32, Vec<u64>, Option<u32>)>,
    Vec<u32>,
    Vec<(Vec<u64>, u64, Vec<u64>, u64, Vec<u32>)>,
);

fn fingerprint(store: &PointStore, ib: &IncrementalBubbles) -> Fingerprint {
    // Payloads go through the demand-fetch path so the fingerprint works
    // over tiered stores too.
    let mut buf = Vec::new();
    let points = store
        .ids()
        .map(|id| {
            buf.clear();
            store
                .read_point_into(id, &mut buf)
                .expect("fingerprint: point fetch failed");
            (
                id.0,
                buf.iter().map(|x| x.to_bits()).collect(),
                store.label(id),
            )
        })
        .collect();
    let free = store.free_slots().to_vec();
    let bubbles = ib
        .bubbles()
        .iter()
        .map(|b| {
            (
                b.seed().iter().map(|x| x.to_bits()).collect(),
                b.stats().n(),
                b.stats().linear_sum().iter().map(|x| x.to_bits()).collect(),
                b.stats().square_sum().to_bits(),
                b.members().iter().map(|id| id.0).collect(),
            )
        })
        .collect();
    (points, free, bubbles)
}

/// One planned step of an update stream: the batch, the maintenance RNG
/// seed, and whether a maintenance round runs — fixed up front so the
/// stream is identical with and without crashes.
struct PlannedStep {
    batch: Batch,
    round_seed: u64,
    maintain: bool,
}

struct Scenario {
    store: PointStore,
    config: MaintainerConfig,
    build_seed: u64,
    steps: Vec<PlannedStep>,
    dcfg: DurabilityConfig,
}

fn plan_scenario(case: usize, rng: &mut StdRng, hot_points: Option<usize>) -> Scenario {
    let kinds = ScenarioKind::all();
    let kind = kinds[case % kinds.len()];
    let dim = rng.gen_range(1..=3);
    let n = rng.gen_range(300..=600);
    let num_bubbles = rng.gen_range(8..=12);
    let engine = ENGINES[rng.gen_range(0..ENGINES.len())];
    let spec = ScenarioSpec::named(kind, dim, n, 0.05);
    let mut eng = ScenarioEngine::new(spec);
    let store = eng.populate(rng);
    // Pre-generate the whole stream against a simulation copy, so the
    // batches (including which ids get deleted) are crash-independent.
    let mut sim = store.clone();
    let steps = (0..rng.gen_range(6..=10))
        .map(|_| {
            let (batch, _) = eng.step_plain(&mut sim, rng);
            PlannedStep {
                batch,
                round_seed: rng.gen(),
                maintain: rng.gen_bool(0.85),
            }
        })
        .collect();
    Scenario {
        store,
        config: MaintainerConfig::new(num_bubbles)
            .with_seed_search(engine)
            .with_parallelism(Parallelism::Serial),
        build_seed: rng.gen(),
        steps,
        dcfg: DurabilityConfig {
            checkpoint_interval: rng.gen_range(1..=4),
            hot_points,
            ..DurabilityConfig::default()
        },
    }
}

/// Runs the uninterrupted reference over an in-memory WAL, recording after
/// every batch the committed WAL length, the checkpoint population, and
/// the state fingerprint. Returns those traces plus the final WAL bytes
/// and checkpoint store.
#[allow(clippy::type_complexity)]
fn reference_run(
    sc: &Scenario,
) -> (
    Vec<usize>,
    Vec<MemMedium>,
    Vec<Fingerprint>,
    Vec<u8>,
    MemMedium,
) {
    let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
    let mut stats = SearchStats::new();
    let store = sc.store.clone();
    let ib = IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
    let mut dm = DurableMaintainer::adopt(
        store,
        ib,
        sc.dcfg.clone(),
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("MemSink never fails");
    let mut wal_lens = vec![dm.wal_sink().bytes().len()];
    let mut ckpts = vec![dm.checkpoints().snapshot()];
    let mut fps = vec![fingerprint(dm.store(), dm.bubbles())];
    for step in &sc.steps {
        dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
            .expect("planned batches are valid");
        wal_lens.push(dm.wal_sink().bytes().len());
        ckpts.push(dm.checkpoints().snapshot());
        fps.push(fingerprint(dm.store(), dm.bubbles()));
    }
    let (_, _, sink, final_ckpts) = dm.into_parts();
    (wal_lens, ckpts, fps, sink.bytes(), final_ckpts)
}

/// Recovers from a crash at WAL byte `cut`, asserts the recovered state is
/// bit-identical to the reference at the durable batch count, finishes the
/// stream on the recovered maintainer, and asserts the final state — plus
/// a second recovery from the post-resume disk — matches the reference
/// end state.
#[allow(clippy::too_many_arguments)]
fn crash_recover_finish(
    sc: &Scenario,
    wal_bytes: &[u8],
    ends: &[usize],
    ckpt_trace: &[MemMedium],
    fps: &[Fingerprint],
    cut: usize,
    drop_newest_checkpoint: bool,
    label: &str,
) {
    let durable = ends.iter().filter(|&&e| e <= cut).count();
    // Checkpoints persisted strictly before the crash moment: the batch
    // whose WAL bytes end at `cut` may have checkpointed, anything later
    // cannot have.
    let ckpts = ckpt_trace[durable].snapshot();
    if drop_newest_checkpoint {
        // Simulate the newest checkpoint being lost: recovery must fall
        // back to an older one and replay a longer WAL tail.
        if let Some(&max) = ckpts.seqs().unwrap().iter().max() {
            if max > 0 {
                ckpts.remove(&checkpoint_name(max)).unwrap();
            }
        }
    }
    let rec = recover(&wal_bytes[..cut], &ckpts, &Obs::disabled())
        .unwrap_or_else(|e| panic!("{label}: recovery failed at byte {cut}: {e}"));
    assert_eq!(rec.batches_durable, durable as u64, "{label} at byte {cut}");
    assert_eq!(
        fingerprint(&rec.store, &rec.bubbles),
        fps[durable],
        "{label}: state after crash at byte {cut} diverged"
    );
    assert_eq!(rec.bubbles.config().seed_search, sc.config.seed_search);

    // Finish the stream from where the durable state left off.
    let mut dm = DurableMaintainer::resume(
        rec,
        sc.dcfg.clone(),
        ObjectSink::new(MemMedium::new(), "wal"),
        ckpts,
    )
    .expect("MemSink never fails");
    let mut stats = SearchStats::new();
    for step in &sc.steps[durable..] {
        dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
            .expect("planned batches are valid");
    }
    assert_eq!(
        fingerprint(dm.store(), dm.bubbles()),
        *fps.last().unwrap(),
        "{label}: finished stream after crash at byte {cut} diverged"
    );
    // And the post-resume disk state (fresh WAL epoch + old checkpoints)
    // must itself recover to the same final state.
    let (_, _, sink, ckpts) = dm.into_parts();
    let rec2 = recover(&sink.bytes(), &ckpts, &Obs::disabled())
        .unwrap_or_else(|e| panic!("{label}: second recovery failed: {e}"));
    assert_eq!(rec2.batches_durable, sc.steps.len() as u64);
    assert_eq!(
        fingerprint(&rec2.store, &rec2.bubbles),
        *fps.last().unwrap(),
        "{label}: second recovery diverged"
    );
}

/// The centerpiece: randomized scenarios × crash points, ≥ 256 cases.
/// Every crash point recovers bit-identically and finishes the stream
/// bit-identically.
#[test]
fn crash_points_recover_bit_identically() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0001);
        let mut cases = 0;
        for case in 0..32 {
            let sc = plan_scenario(case, &mut rng, hot_points);
            let (_wal_lens, ckpt_trace, fps, wal_bytes, _) = reference_run(&sc);
            let contents = read_wal(&wal_bytes).expect("reference wal is intact");
            assert_eq!(contents.records.len(), sc.steps.len());
            assert!(!contents.torn_tail);

            // Record-boundary crash points: after the header, after each batch.
            let mut cuts: Vec<usize> = vec![20];
            cuts.extend_from_slice(&contents.ends);
            // Plus random mid-record bytes (torn tails).
            for _ in 0..4 {
                cuts.push(rng.gen_range(0..wal_bytes.len()));
            }
            for cut in cuts {
                let drop_newest = rng.gen_bool(0.3);
                crash_recover_finish(
                    &sc,
                    &wal_bytes,
                    &contents.ends,
                    &ckpt_trace,
                    &fps,
                    cut,
                    drop_newest,
                    &format!("case {case}, hot {hot_points:?}"),
                );
                cases += 1;
            }
        }
        assert!(
            cases >= 256,
            "only {cases} scenario × crash-point cases ran"
        );
    }
}

/// A full byte sweep across the final record: every truncation point is a
/// torn tail that recovers to the previous batch and finishes identically.
#[test]
fn torn_final_record_full_byte_sweep() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0002);
        let mut sc = plan_scenario(1, &mut rng, hot_points);
        // Baseline checkpoint only, so the sweep exercises pure WAL replay.
        sc.dcfg.checkpoint_interval = u64::MAX;
        let (_, ckpt_trace, fps, wal_bytes, _) = reference_run(&sc);
        let contents = read_wal(&wal_bytes).expect("reference wal is intact");
        let last_start = contents.ends[contents.ends.len() - 2];
        for cut in last_start..wal_bytes.len() {
            let rec = recover(&wal_bytes[..cut], &ckpt_trace[0], &Obs::disabled())
                .unwrap_or_else(|e| panic!("torn tail at byte {cut}: {e}"));
            assert_eq!(rec.torn_tail, cut > last_start, "at byte {cut}");
            assert_eq!(rec.batches_durable, sc.steps.len() as u64 - 1);
            crash_recover_finish(
                &sc,
                &wal_bytes,
                &contents.ends,
                &ckpt_trace,
                &fps,
                cut,
                false,
                "byte sweep",
            );
        }
    }
}

/// Mid-log bit damage: recovery either reports a typed error or — when
/// the flip is indistinguishable from a torn tail (e.g. a length field
/// now pointing past the end) — recovers a clean, shorter prefix whose
/// state matches the reference at that batch count. Never a panic, never
/// a diverged state.
#[test]
fn mid_log_bit_flips_never_panic_and_never_diverge() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0003);
        let mut sc = plan_scenario(2, &mut rng, hot_points);
        sc.dcfg.checkpoint_interval = u64::MAX; // Pure WAL replay.
        let (_, ckpt_trace, fps, wal_bytes, _) = reference_run(&sc);
        for trial in 0..192 {
            let mut damaged = wal_bytes.clone();
            let len = damaged.len();
            flip_bit(&mut damaged, rng.gen_range(0..len), rng.gen());
            if trial % 3 == 0 {
                // Compound damage.
                flip_bit(&mut damaged, rng.gen_range(0..len), rng.gen());
            }
            match recover(&damaged, &ckpt_trace[0], &Obs::disabled()) {
                Err(
                    RecoveryError::CorruptWal { .. }
                    | RecoveryError::NoUsableCheckpoint { .. }
                    | RecoveryError::Replay { .. },
                ) => {}
                Err(e) => panic!("trial {trial}: unexpected error class: {e}"),
                Ok(rec) => {
                    let k = rec.batches_durable as usize;
                    assert!(k <= sc.steps.len(), "trial {trial}");
                    assert_eq!(
                        fingerprint(&rec.store, &rec.bubbles),
                        fps[k],
                        "trial {trial}: damaged log recovered to a diverged state"
                    );
                }
            }
        }
    }
}

/// Sink fault injection: transient fsync failures degrade the maintainer
/// (which keeps serving from memory and buffers records), healing flushes
/// the backlog, and a kill during the outage still recovers and finishes
/// bit-identically from whatever made it to disk.
#[test]
fn faulty_sinks_degrade_heal_and_recover() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0004);
        let sc = plan_scenario(3, &mut rng, hot_points);
        let (_, _, fps, _, _) = reference_run(&sc);

        let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
        let mut stats = SearchStats::new();
        let store = sc.store.clone();
        let ib = IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
        let mut dm = DurableMaintainer::adopt(
            store,
            ib,
            sc.dcfg.clone(),
            ObjectSink::new(FaultMedium::new(), "wal"),
            MemMedium::new(),
        )
        .expect("sink starts healthy");

        // Two healthy batches, then the sink's fsync starts failing.
        let split_at = 2.min(sc.steps.len());
        for step in &sc.steps[..split_at] {
            dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                .unwrap();
        }
        assert_eq!(dm.sync(), Health::Healthy);
        let durable_bytes = dm.wal_sink().bytes().to_vec();
        let ckpts_at_outage = dm.checkpoints().snapshot();

        dm.wal_sink().medium().set_fail_syncs(usize::MAX);
        for step in &sc.steps[split_at..] {
            dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                .unwrap();
        }
        let buffered = sc.steps.len() - split_at;
        assert_eq!(
            dm.health(),
            Health::Degraded {
                buffered_batches: buffered,
                shed_batches: 0
            },
            "outage must surface as Degraded with the backlog size"
        );
        // In-memory state marched on regardless.
        assert_eq!(fingerprint(dm.store(), dm.bubbles()), *fps.last().unwrap());
        // A kill during the outage: only bytes up to the last successful
        // fsync are guaranteed on disk — recovery from that prefix lands on
        // the pre-outage state. (Bytes past it were appended but never
        // synced; if they do survive, they are complete records and recovery
        // from the full view is exercised by the other suites.)
        let rec = recover(
            &dm.wal_sink().bytes()[..durable_bytes.len()],
            &ckpts_at_outage,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(rec.batches_durable, split_at as u64);
        assert_eq!(fingerprint(&rec.store, &rec.bubbles), fps[split_at]);

        // Healing flushes the whole backlog; the full WAL then decodes.
        dm.wal_sink().medium().heal();
        assert_eq!(dm.sync(), Health::Healthy);
        let contents = read_wal(&dm.wal_sink().bytes()).unwrap();
        assert_eq!(contents.records.len(), sc.steps.len());
        let (_, _, sink, ckpts) = dm.into_parts();
        let rec = recover(&sink.bytes(), &ckpts, &Obs::disabled()).unwrap();
        assert_eq!(fingerprint(&rec.store, &rec.bubbles), *fps.last().unwrap());

        // Short-write kill: an append that persists only a prefix leaves a
        // torn tail that recovers to the last durable batch.
        let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
        let mut stats = SearchStats::new();
        let store = sc.store.clone();
        let ib = IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
        let mut dm = DurableMaintainer::adopt(
            store,
            ib,
            DurabilityConfig {
                checkpoint_interval: u64::MAX,
                max_retries: 0,
                ..DurabilityConfig::default()
            },
            ObjectSink::new(FaultMedium::new(), "wal"),
            MemMedium::new(),
        )
        .unwrap();
        for step in &sc.steps[..split_at] {
            dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                .unwrap();
        }
        dm.wal_sink().medium().set_write_cap(7); // Killed seven bytes into the write.
        dm.apply_with(
            &sc.steps[split_at].batch,
            sc.steps[split_at].round_seed,
            sc.steps[split_at].maintain,
            &mut stats,
        )
        .unwrap();
        let rec = recover(&dm.wal_sink().bytes(), dm.checkpoints(), &Obs::disabled()).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.batches_durable, split_at as u64);
        assert_eq!(fingerprint(&rec.store, &rec.bubbles), fps[split_at]);
    }
}

/// Checkpoint damage: a corrupted newest checkpoint falls back to an
/// older one; when every checkpoint is damaged, recovery reports a typed
/// `NoUsableCheckpoint`; pure garbage as a WAL is typed, never a panic.
#[test]
fn damaged_checkpoints_and_garbage_wals_are_typed_errors() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0005);
        let mut sc = plan_scenario(4, &mut rng, hot_points);
        sc.dcfg.checkpoint_interval = 2;
        let (_, _, fps, wal_bytes, final_ckpts) = reference_run(&sc);

        // Corrupt the newest checkpoint: recovery falls back and replays.
        let ckpts = final_ckpts.snapshot();
        let newest = *ckpts.seqs().unwrap().iter().max().unwrap();
        let mut blob = ckpts.load(newest).unwrap();
        let mid = blob.len() / 2;
        flip_bit(&mut blob, mid, 2);
        ckpts.save(newest, &blob).unwrap();
        let rec = recover(&wal_bytes, &ckpts, &Obs::disabled()).unwrap();
        assert_eq!(rec.batches_durable, sc.steps.len() as u64);
        assert!(rec.checkpoint_seq < newest);
        assert_eq!(fingerprint(&rec.store, &rec.bubbles), *fps.last().unwrap());

        // Corrupt every checkpoint: a typed failure naming the attempts.
        let ckpts = final_ckpts.snapshot();
        let seqs = ckpts.seqs().unwrap();
        for &seq in &seqs {
            let mut blob = ckpts.load(seq).unwrap();
            let mid = blob.len() / 2;
            flip_bit(&mut blob, mid, 4);
            ckpts.save(seq, &blob).unwrap();
        }
        match recover(&wal_bytes, &ckpts, &Obs::disabled()) {
            Err(RecoveryError::NoUsableCheckpoint { tried, .. }) => assert_eq!(tried, seqs.len()),
            other => panic!("expected NoUsableCheckpoint, got {other:?}"),
        }

        // Corrupt the full base of the newest delta: every delta on that
        // base is skipped with it, and recovery stands on the newest
        // checkpoint that does not lean on it — or fails typed when none
        // is left. Rebasing every other checkpoint leaves an older full
        // base underneath; in this six-checkpoint stream, rebasing every
        // eighth leaves every delta on the baseline, and nothing standing.
        for rebase in [2, 8] {
            sc.dcfg.full_rebase_interval = rebase;
            let (_, _, fps, wal_bytes, ckpts) = reference_run(&sc);
            let ckpts = ckpts.snapshot();
            let mut seqs = ckpts.seqs().unwrap();
            seqs.sort_unstable();
            let delta_base = |seq: u64| {
                let blob = ckpts.load(seq).unwrap();
                let payload = read_frame(&mut &blob[..], DELTA_CHECKPOINT_MAGIC).ok()?;
                // `seq | covered | base_seq | ..`
                Some(u64::from_le_bytes(payload[16..24].try_into().unwrap()))
            };
            let base = seqs
                .iter()
                .rev()
                .find_map(|&seq| delta_base(seq))
                .expect("the cadence takes deltas");
            let survivor = seqs
                .iter()
                .rev()
                .copied()
                .find(|&seq| seq != base && delta_base(seq) != Some(base));
            let mut blob = ckpts.load(base).unwrap();
            let mid = blob.len() / 2;
            flip_bit(&mut blob, mid, 1);
            ckpts.save(base, &blob).unwrap();
            match (recover(&wal_bytes, &ckpts, &Obs::disabled()), survivor) {
                (Ok(rec), Some(seq)) => {
                    assert_eq!(rec.checkpoint_seq, seq, "rebase {rebase}");
                    assert_eq!(rec.batches_durable, sc.steps.len() as u64);
                    assert_eq!(fingerprint(&rec.store, &rec.bubbles), *fps.last().unwrap());
                }
                (Err(RecoveryError::NoUsableCheckpoint { tried, .. }), None) => {
                    assert_eq!(tried, seqs.len(), "rebase {rebase}");
                }
                (other, _) => {
                    panic!("rebase {rebase}: base {base}, survivor {survivor:?}: {other:?}")
                }
            }
            assert_eq!(
                survivor.is_some(),
                rebase == 2,
                "both outcomes are exercised"
            );
        }

        // Garbage byte streams as a WAL — including hostile length prefixes —
        // produce typed errors or clean empty logs, never panics or OOM.
        for trial in 0..64 {
            let mut garbage: Vec<u8> = (0..rng.gen_range(0..4096))
                .map(|_| rng.gen::<u32>() as u8)
                .collect();
            if trial % 4 == 0 && garbage.len() >= 20 {
                // Make the magic/version valid so decoding reaches the hostile
                // record framing.
                garbage[..4].copy_from_slice(b"IDBW");
                garbage[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
                garbage[8..12].copy_from_slice(&2u32.to_le_bytes());
            }
            match recover(&garbage, &final_ckpts, &Obs::disabled()) {
                Ok(rec) => assert_eq!(rec.replayed, 0, "garbage cannot contain replayable records"),
                Err(
                    RecoveryError::CorruptWal { .. }
                    | RecoveryError::NoUsableCheckpoint { .. }
                    | RecoveryError::Replay { .. }
                    | RecoveryError::Io(_),
                ) => {}
            }
        }
    }
}

/// The structural (state-changing) slice of a journal, wall-clock masked,
/// so event sequences compare bit-exactly across runs.
fn structural(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.kind.is_structural())
        .map(Event::masked)
        .collect()
}

/// Journal/recovery equivalence: replaying the WAL tail after a crash
/// emits exactly the structural event subsequence the uninterrupted run
/// produced for those batches — same kinds, same bubble ids, same counts,
/// same order — bracketed by `recover_start` / `recover_checkpoint` /
/// `recover_done` markers.
#[test]
fn recovery_replays_the_identical_journal_event_sequence() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0006);
        for case in 0..3 {
            let sc = plan_scenario(case, &mut rng, hot_points);

            // Uninterrupted reference with a journal attached after build (so
            // the trace starts exactly at the durable stream).
            let ring = Arc::new(RingRecorder::new());
            let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
            let mut stats = SearchStats::new();
            let store = sc.store.clone();
            let mut ib =
                IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
            ib.set_obs(Obs::with_recorder(ring.clone()));
            let mut dm = DurableMaintainer::adopt(
                store,
                ib,
                sc.dcfg.clone(),
                ObjectSink::new(MemMedium::new(), "wal"),
                MemMedium::new(),
            )
            .expect("MemSink never fails");
            // Structural-event count after each durable batch, and the
            // checkpoint population at each point, as in `reference_run`.
            let mut counts = vec![structural(&ring.events()).len()];
            let mut ckpt_trace = vec![dm.checkpoints().snapshot()];
            for step in &sc.steps {
                dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                    .expect("planned batches are valid");
                counts.push(structural(&ring.events()).len());
                ckpt_trace.push(dm.checkpoints().snapshot());
            }
            let reference = structural(&ring.events());
            assert!(
                !reference.is_empty(),
                "case {case}: the reference stream journaled nothing"
            );
            let (_, _, sink, _) = dm.into_parts();
            let wal_bytes = sink.bytes();
            let contents = read_wal(&wal_bytes).expect("reference wal is intact");

            // Crash at every record boundary (plus right after the header) and
            // recover with a fresh journal.
            let mut cuts = vec![20];
            cuts.extend_from_slice(&contents.ends);
            for cut in cuts {
                let durable = contents.ends.iter().filter(|&&e| e <= cut).count();
                let ring2 = Arc::new(RingRecorder::new());
                let rec = recover(
                    &wal_bytes[..cut],
                    &ckpt_trace[durable],
                    &Obs::with_recorder(ring2.clone()),
                )
                .unwrap_or_else(|e| panic!("case {case}: recovery at byte {cut} failed: {e}"));
                assert_eq!(rec.batches_durable, durable as u64);

                let replay_events = ring2.events();
                // The recovery markers bracket the replay and carry its shape.
                assert!(matches!(
                    replay_events.first().map(|e| &e.kind),
                    Some(EventKind::RecoverStart { wal_bytes }) if *wal_bytes == cut as u64
                ));
                let covered = replay_events
                    .iter()
                    .find_map(|e| match e.kind {
                        EventKind::RecoverCheckpoint { covered, .. } => Some(covered as usize),
                        _ => None,
                    })
                    .expect("recovery always adopts a checkpoint");
                assert!(covered <= durable, "case {case} at byte {cut}");
                assert!(matches!(
                    replay_events.last().map(|e| &e.kind),
                    Some(EventKind::RecoverDone {
                        replayed,
                        batches_durable,
                        torn_tail: false,
                    }) if *replayed == (durable - covered) as u64
                        && *batches_durable == durable as u64
                ));

                // The replayed structural events are exactly the reference's
                // slice for batches `covered..durable` — ids included.
                assert_eq!(
                    structural(&replay_events),
                    reference[counts[covered]..counts[durable]],
                    "case {case}: replay after crash at byte {cut} journaled a different stream"
                );
            }
        }
    }
}

/// File-backed smoke loop for CI: a real `FileSink` WAL and `FsCheckpoints`
/// directory under `IDB_WAL_DIR`, killed at a random crash point chosen
/// from `IDB_CRASH_SEED` (so every CI run exercises a fresh point), then
/// recovered and finished bit-identically.
#[test]
fn kill_at_random_crash_point_smoke() {
    for hot_points in HOT_POINTS {
        let seed = std::env::var("IDB_CRASH_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0xC0FF_EE00);
        let mut rng = StdRng::seed_from_u64(seed);
        let sc = plan_scenario(rng.gen_range(0..6), &mut rng, hot_points);
        let (_, _ckpt_trace, fps, wal_bytes, _) = reference_run(&sc);
        let contents = read_wal(&wal_bytes).unwrap();

        // Replay the reference stream onto real files.
        let dir = scratch_dir().join(format!(
            "idb-crash-smoke-{seed}-{}-{}",
            hot_points.unwrap_or(0),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("stream.wal");
        {
            let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
            let mut stats = SearchStats::new();
            let store = sc.store.clone();
            let ib =
                IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
            let sink = FileSink::create(&wal_path).unwrap();
            let ckpts = FsCheckpoints::open(dir.join("checkpoints")).unwrap();
            let mut dm = DurableMaintainer::adopt(store, ib, sc.dcfg.clone(), sink, ckpts).unwrap();
            for step in &sc.steps {
                dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                    .unwrap();
            }
            assert_eq!(dm.sync(), Health::Healthy);
        }
        let disk = std::fs::read(&wal_path).unwrap();
        assert_eq!(
            disk, wal_bytes,
            "file-backed WAL must match the MemSink run"
        );

        // Kill at a random byte and recover from the file prefix.
        let cut = rng.gen_range(0..disk.len());
        let durable = contents.ends.iter().filter(|&&e| e <= cut).count();
        let ckpts = FsCheckpoints::open(dir.join("checkpoints")).unwrap();
        let rec = recover(&disk[..cut], &ckpts, &Obs::disabled()).unwrap();
        // Fs checkpoints were all written by the full run, so coverage may be
        // ahead of the cut WAL — recovery then stands on the checkpoint alone.
        assert!(rec.batches_durable as usize >= durable);
        let k = rec.batches_durable as usize;
        assert_eq!(fingerprint(&rec.store, &rec.bubbles), fps[k], "seed {seed}");

        // Finish the stream and compare the end state (in-memory sink; the
        // disk artifacts have served their purpose).
        let mut dm = DurableMaintainer::resume(
            rec,
            sc.dcfg.clone(),
            ObjectSink::new(MemMedium::new(), "wal"),
            ckpts,
        )
        .unwrap();
        let mut stats = SearchStats::new();
        for step in &sc.steps[k..] {
            dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                .unwrap();
        }
        assert_eq!(
            fingerprint(dm.store(), dm.bubbles()),
            *fps.last().unwrap(),
            "seed {seed}: finished stream diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Segmented-WAL crash suite: the same bit-identity contract with rotation,
// compaction, and streaming-checkpoint boundaries in the kill sweep.
// ---------------------------------------------------------------------------

/// A crash-point image of a segment chain: every segment's bytes.
type Chain = BTreeMap<SegmentId, Vec<u8>>;

/// The medium the segmented suite keeps its WAL chain on.
#[derive(Debug, Clone, Copy)]
enum ChainMedium {
    Mem,
    /// Real files in a fresh directory under `scratch_dir()`.
    Fs,
}

/// Runs `f` on a fresh directory under `scratch_dir()`, removed after.
fn in_scratch_dir<T>(f: impl FnOnce(&FsMedium) -> T) -> T {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let dir = scratch_dir().join(format!(
        "idb-chain-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = f(&FsMedium::open(&dir).expect("chain directory"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The segments on `medium`.
fn image(medium: &dyn Medium) -> Chain {
    medium
        .list()
        .unwrap()
        .iter()
        .filter_map(|name| {
            let id = SegmentId::parse(name)?;
            Some((id, medium.read(name).unwrap()))
        })
        .collect()
}

/// Runs the reference stream over a tiny-budget [`SegmentedSink`] with
/// streaming checkpoints, snapshotting the entire segment map, the
/// checkpoint store, and the state fingerprint at every batch boundary —
/// each snapshot is one crash point for the sweep. The last element is
/// the chain left at the end.
#[allow(clippy::type_complexity)]
fn segmented_reference_run(
    sc: &Scenario,
    segment_bytes: u64,
    chain: ChainMedium,
) -> (
    Vec<Fingerprint>,
    Vec<Chain>,
    Vec<MemMedium>,
    Vec<Event>,
    Chain,
) {
    match chain {
        ChainMedium::Mem => segmented_reference_run_on(sc, segment_bytes, &MemMedium::new()),
        ChainMedium::Fs => in_scratch_dir(|fs| segmented_reference_run_on(sc, segment_bytes, fs)),
    }
}

#[allow(clippy::type_complexity)]
fn segmented_reference_run_on<M: Medium + Clone>(
    sc: &Scenario,
    segment_bytes: u64,
    medium: &M,
) -> (
    Vec<Fingerprint>,
    Vec<Chain>,
    Vec<MemMedium>,
    Vec<Event>,
    Chain,
) {
    let ring = Arc::new(RingRecorder::new());
    let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
    let mut stats = SearchStats::new();
    let store = sc.store.clone();
    let mut ib = IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
    ib.set_obs(Obs::with_recorder(ring.clone()));
    let sink = SegmentedSink::fresh(medium.clone(), segment_bytes).expect("fresh chain");
    let mut dm = DurableMaintainer::adopt(store, ib, sc.dcfg.clone(), sink, MemMedium::new())
        .expect("MemSegments never fails");
    let mut fps = vec![fingerprint(dm.store(), dm.bubbles())];
    let mut snaps = vec![image(medium)];
    let mut ckpts = vec![dm.checkpoints().snapshot()];
    for step in &sc.steps {
        dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
            .expect("planned batches are valid");
        fps.push(fingerprint(dm.store(), dm.bubbles()));
        snaps.push(image(medium));
        ckpts.push(dm.checkpoints().snapshot());
    }
    dm.flush_checkpoint();
    assert_eq!(dm.health(), Health::Healthy);
    (fps, snaps, ckpts, ring.events(), image(medium))
}

/// Recovers a restored segment-map crash point via [`recover_chain`],
/// checks bit-identity at the recovered batch count, then finishes the
/// stream and checks the end state.
fn chain_crash_recover_finish(
    sc: &Scenario,
    chain: ChainMedium,
    snap: &Chain,
    ckpts: &MemMedium,
    fps: &[Fingerprint],
    label: &str,
) {
    let restore_and_recover = |medium: &dyn Medium| {
        for (id, bytes) in snap {
            medium.append(&id.file_name(), bytes).unwrap();
        }
        recover_chain(medium, ckpts, &Obs::disabled()).unwrap_or_else(|e| panic!("{label}: {e}"))
    };
    let rec = match chain {
        ChainMedium::Mem => restore_and_recover(&MemMedium::new()),
        ChainMedium::Fs => in_scratch_dir(|fs| restore_and_recover(fs)),
    };
    let k = rec.batches_durable as usize;
    assert!(k <= sc.steps.len(), "{label}: durable count out of range");
    assert_eq!(
        fingerprint(&rec.store, &rec.bubbles),
        fps[k],
        "{label}: recovered state diverged at batch {k}"
    );
    let mut dm = DurableMaintainer::resume(
        rec,
        sc.dcfg.clone(),
        ObjectSink::new(MemMedium::new(), "wal"),
        ckpts.snapshot(),
    )
    .expect("MemSink never fails");
    let mut stats = SearchStats::new();
    for step in &sc.steps[k..] {
        dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
            .expect("planned batches are valid");
    }
    assert_eq!(
        fingerprint(dm.store(), dm.bubbles()),
        *fps.last().unwrap(),
        "{label}: finished stream diverged"
    );
}

/// The segmented centerpiece: kills at every batch boundary (which, with a
/// tiny segment budget, a short checkpoint cadence, and a chunk size
/// smaller than one blob, land between rotations, compactions, and
/// checkpoint chunks), plus torn cuts inside the active segment and a
/// crash mid-rotation — every one recovers and finishes bit-identically.
#[test]
fn segmented_chain_kill_points_recover_bit_identically() {
    // Every axis in memory, plus the first one on real files.
    let axes = segmented_axes().map(|axis| (ChainMedium::Mem, axis));
    for (chain, (hot_points, disk_budget)) in axes.into_iter().chain([(ChainMedium::Fs, axes[0].1)])
    {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0007);
        for case in 0..4 {
            let mut sc = plan_scenario(case, &mut rng, hot_points);
            sc.dcfg.disk_budget = disk_budget;
            sc.dcfg.checkpoint_interval = 2;
            sc.dcfg.checkpoint_chunk_bytes = 1024; // Streams span several batches.
            sc.dcfg.full_rebase_interval = 3; // Mix of full and delta blobs.
            let (fps, snaps, ckpt_trace, _, _) = segmented_reference_run(&sc, 512, chain);
            for (k, snap) in snaps.iter().enumerate() {
                // Clean kill exactly at the batch boundary.
                chain_crash_recover_finish(
                    &sc,
                    chain,
                    snap,
                    &ckpt_trace[k],
                    &fps,
                    &format!("case {case} ({hot_points:?}, {disk_budget:?}), boundary {k}"),
                );
                let Some((&last_id, last_bytes)) = snap.iter().next_back() else {
                    continue;
                };
                // Torn cut inside the newest segment (a kill mid-append):
                // everything before it must still recover to *some* earlier
                // boundary, bit-identically.
                if last_bytes.len() > 1 {
                    let cut = rng.gen_range(1..last_bytes.len());
                    let mut torn = snap.clone();
                    torn.insert(last_id, last_bytes[..cut].to_vec());
                    chain_crash_recover_finish(
                        &sc,
                        chain,
                        &torn,
                        &ckpt_trace[k],
                        &fps,
                        &format!("case {case} ({hot_points:?}, {disk_budget:?}), boundary {k}, torn at {cut}"),
                    );
                }
                // Crash mid-rotation: the next segment exists with only a
                // partial header. It contributes nothing and recovery matches
                // the clean boundary.
                let mut mid_roll = snap.clone();
                mid_roll.insert(
                    SegmentId {
                        epoch: last_id.epoch,
                        seq: last_id.seq + 1,
                    },
                    last_bytes[..7.min(last_bytes.len())].to_vec(),
                );
                chain_crash_recover_finish(
                    &sc,
                    chain,
                    &mid_roll,
                    &ckpt_trace[k],
                    &fps,
                    &format!(
                        "case {case} ({hot_points:?}, {disk_budget:?}), boundary {k}, mid-rotation"
                    ),
                );
            }
        }
    }
}

/// The segmented run's journal carries the new storage events — rotations,
/// compactions, checkpoint chunks — and the whole stream satisfies the
/// journal invariants, including the chunk-accounting ones. The live chain
/// stays bounded: compaction reclaims sealed segments as checkpoints
/// advance.
#[test]
fn segmented_run_journal_and_footprint_are_well_formed() {
    for (hot_points, disk_budget) in segmented_axes() {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0008);
        let mut sc = plan_scenario(5, &mut rng, hot_points);
        sc.dcfg.disk_budget = disk_budget;
        sc.dcfg.checkpoint_interval = 2;
        sc.dcfg.checkpoint_chunk_bytes = 1024;
        sc.dcfg.full_rebase_interval = 2;
        let (_, _, _, events, medium) = segmented_reference_run(&sc, 512, ChainMedium::Mem);
        let summary = check_journal(&events).expect("journal invariants");
        assert!(summary.wal_rotations > 0, "tiny budget must rotate");
        assert!(
            summary.wal_compactions > 0,
            "full checkpoints must reclaim sealed segments"
        );
        assert!(
            summary.checkpoint_chunks > summary.checkpoints,
            "a 1 KiB chunk size must split blobs across several chunk events"
        );
        // Bounded footprint: rotations minus compacted segments is what's
        // left; compaction must have removed sealed prefixes, so the live
        // chain is strictly shorter than the rotation count implies.
        let live_segments = medium.len();
        assert!(
            live_segments < summary.wal_rotations as usize,
            "{live_segments} live segments after {} rotations — compaction never ran",
            summary.wal_rotations
        );
    }
}

/// Full-vs-delta equivalence: with a checkpoint every batch and periodic
/// full rebases, standing recovery on **any** checkpoint alone (an empty
/// WAL tail) reproduces the reference state at that batch bit-identically
/// — whether the blob is a full snapshot or a delta over an earlier base.
#[test]
fn delta_checkpoints_decode_bit_identically_to_fulls() {
    for hot_points in HOT_POINTS {
        let mut rng = StdRng::seed_from_u64(0xC4A5_0009);
        let mut sc = plan_scenario(3, &mut rng, hot_points);
        sc.dcfg.checkpoint_interval = 1;
        sc.dcfg.full_rebase_interval = 3;
        sc.dcfg.checkpoint_chunk_bytes = usize::MAX; // One chunk per blob.
        let (_, _, fps, wal_bytes, final_ckpts) = reference_run(&sc);
        let seqs = final_ckpts.seqs().unwrap();
        let deltas = seqs
            .iter()
            .filter(|&&s| {
                final_ckpts
                    .load(s)
                    .is_ok_and(|b| b.starts_with(DELTA_CHECKPOINT_MAGIC))
            })
            .count();
        assert!(deltas > 0, "the cadence must have produced delta blobs");
        assert!(deltas < seqs.len(), "and full blobs too");

        // Keep the full WAL (deltas replay the window between their base's
        // coverage and their own from it) but drop every checkpoint newer
        // than the one under test, so recovery *must* stand on that blob.
        for k in 1..=sc.steps.len() {
            let ckpts = final_ckpts.snapshot();
            for &s in &seqs {
                if s > k as u64 {
                    ckpts.remove(&checkpoint_name(s)).unwrap();
                }
            }
            let rec = recover(&wal_bytes, &ckpts, &Obs::disabled())
                .unwrap_or_else(|e| panic!("at checkpoint {k}: {e}"));
            assert_eq!(rec.batches_durable, sc.steps.len() as u64);
            assert_eq!(
                fingerprint(&rec.store, &rec.bubbles),
                *fps.last().unwrap(),
                "recovery standing on checkpoint {k} diverged"
            );
        }
    }
}

/// Tiered crash consistency (DESIGN.md §17): the cold tier is an
/// ephemeral spill, never durability state. A tiered run writes a WAL
/// byte-identical to the untiered one, so killing it at any byte —
/// record boundaries, mid-record, and in particular right after a
/// commit whose eviction sweep never ran — recovers through the
/// ordinary untiered replay path bit-identically, and the resumed
/// (re-tiered) maintainer finishes the stream bit-identically.
#[test]
fn tiered_crash_points_recover_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x71E2_C4A5);
    for case in 0..6 {
        let mut sc = plan_scenario(case, &mut rng, None);
        let hot = rng.gen_range(2..=16);

        // Untiered reference first: identical WAL bytes let the tiered
        // run reuse the untiered crash-point arithmetic unchanged.
        sc.dcfg.hot_points = None;
        let (lens_untiered, _, _, wal_untiered, _) = reference_run(&sc);
        sc.dcfg.hot_points = Some(hot);
        let (lens, ckpts, fps, wal, _) = reference_run(&sc);
        assert_eq!(
            wal, wal_untiered,
            "case {case} (hot={hot}): tiering changed the WAL bytes"
        );
        assert_eq!(lens, lens_untiered, "case {case}: commit offsets diverged");
        let ends = read_wal(&wal).expect("reference wal is intact").ends;

        // Every record boundary — the boundary immediately after a commit
        // is exactly the kill-mid-eviction moment: the batch is durable
        // but the clock sweep it triggered is lost with the process.
        for &cut in &ends {
            crash_recover_finish(
                &sc,
                &wal,
                &ends,
                &ckpts,
                &fps,
                cut,
                false,
                "tiered boundary",
            );
        }
        for _ in 0..4 {
            let cut = rng.gen_range(0..=wal.len());
            crash_recover_finish(
                &sc,
                &wal,
                &ends,
                &ckpts,
                &fps,
                cut,
                false,
                "tiered mid-record",
            );
        }
    }
}

/// A kill mid-cold-rewrite leaves real filesystem wreckage: a stale
/// spill file with arbitrary stale bytes and an abandoned `.tmp` from
/// the interrupted tmp+rename cycle. Recovery must ignore both —
/// the WAL + checkpoints alone rebuild the state — and resuming over a
/// fresh `FsCold` at the same (polluted) path must truncate the
/// wreckage and finish the stream bit-identically.
#[test]
fn kill_mid_cold_rewrite_leaves_recoverable_wreckage() {
    let mut rng = StdRng::seed_from_u64(0x71E2_F5C0);
    let dir = scratch_dir();
    for case in 0..4 {
        let mut sc = plan_scenario(case, &mut rng, None);
        let hot = rng.gen_range(2..=8);
        sc.dcfg.hot_points = Some(hot);
        let cold_path = dir.join(format!("idb_test_cold_rewrite_{case}_{hot}.bin"));

        // Tiered run over a real FsCold medium. The tier is mounted by
        // hand so the test controls the spill path; `start` sees the
        // store already tiered and leaves it alone.
        let mut build_rng = StdRng::seed_from_u64(sc.build_seed);
        let mut stats = SearchStats::new();
        let mut store = sc.store.clone();
        let ib = IncrementalBubbles::build(&store, sc.config.clone(), &mut build_rng, &mut stats);
        store
            .enable_tier(
                Box::new(idb_store::tier::FsCold::create(&cold_path).expect("create spill")),
                hot,
            )
            .expect("initial spill");
        let mut dm = DurableMaintainer::adopt(
            store,
            ib,
            sc.dcfg.clone(),
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
        )
        .expect("MemSink never fails");
        let mut fps = vec![fingerprint(dm.store(), dm.bubbles())];
        let mut wal_lens = vec![dm.wal_sink().bytes().len()];
        let mut ckpt_trace = vec![dm.checkpoints().snapshot()];
        for step in &sc.steps {
            dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                .expect("planned batches are valid");
            fps.push(fingerprint(dm.store(), dm.bubbles()));
            wal_lens.push(dm.wal_sink().bytes().len());
            ckpt_trace.push(dm.checkpoints().snapshot());
        }
        let final_fp = fps.last().unwrap().clone();
        let (_, _, sink, _) = dm.into_parts();
        let wal = sink.bytes();

        // Crash after a mid-stream batch committed, with the cold
        // rewrite caught halfway: the spill file holds stale garbage and
        // the tmp of the interrupted cycle is still on disk.
        let durable = sc.steps.len() / 2;
        std::fs::write(&cold_path, b"stale spill contents from before the kill").unwrap();
        let tmp_path = {
            let mut os = cold_path.clone().into_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        std::fs::write(&tmp_path, b"half-written rewrite").unwrap();

        // Recovery never opens the spill: WAL + checkpoints suffice, and
        // the recovered store comes back fully resident (untiered). Only
        // checkpoints persisted before the kill exist at recovery time.
        let replay_ckpts = ckpt_trace[durable].snapshot();
        let cut = wal_lens[durable];
        let rec = recover(&wal[..cut], &replay_ckpts, &Obs::disabled())
            .expect("recovery ignores the spill file");
        assert_eq!(rec.batches_durable, durable as u64);
        assert!(
            rec.store.all_resident(),
            "recovery must rebuild an untiered, fully resident store"
        );
        assert_eq!(
            fingerprint(&rec.store, &rec.bubbles),
            fps[durable],
            "case {case}: recovered state diverged from the reference"
        );

        // Resume re-tiers over the same polluted path: FsCold::create
        // truncates the stale spill, the abandoned tmp is inert, and the
        // finished stream is bit-identical to the uninterrupted run.
        let mut recovered = rec;
        recovered
            .store
            .enable_tier(
                Box::new(idb_store::tier::FsCold::create(&cold_path).expect("re-create spill")),
                hot,
            )
            .expect("re-tier spill");
        let mut dm = DurableMaintainer::resume(
            recovered,
            sc.dcfg.clone(),
            ObjectSink::new(MemMedium::new(), "wal"),
            replay_ckpts,
        )
        .expect("MemSink never fails");
        let mut stats = SearchStats::new();
        for step in &sc.steps[durable..] {
            dm.apply_with(&step.batch, step.round_seed, step.maintain, &mut stats)
                .expect("planned batches are valid");
        }
        assert_eq!(
            fingerprint(dm.store(), dm.bubbles()),
            final_fp,
            "case {case}: finished stream diverged after the mid-rewrite kill"
        );
        let _ = std::fs::remove_file(&cold_path);
        let _ = std::fs::remove_file(&tmp_path);
    }
}
