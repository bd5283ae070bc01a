//! Differential suite: every parallel entry point of the incremental
//! maintainer must be *bit-identical* to the serial code — assignments,
//! bubble sufficient statistics, audit reports, and the instrumented
//! distance-computation counters alike — for every thread count.
//!
//! Rationale: the paper's efficiency claims are stated in distance
//! computations (Figures 10/11) and its quality claims in the summary
//! statistics feeding OPTICS, so a parallel mode that drifted in either
//! would silently invalidate both reproductions. The suite drives random
//! stores, random update batches, the six dynamic scenarios, and
//! fault-injected batches through `Serial` vs `Threads(2 | 4 | 8)` flows
//! with identically seeded RNGs and demands exact equality of the full
//! observable state after every step.
//!
//! The same contract holds across the *assignment engines*
//! ([`SeedSearch`]) and the warm-start toggle: every engine, hinted or
//! not, must leave the identical summary — they may only differ in how
//! the per-candidate accounting splits into computed/pruned/partial.

use idb_core::{
    AuditError, AuditReport, IncrementalBubbles, MaintainerConfig, Parallelism, SeedSearch,
};
use idb_geometry::SearchStats;
use idb_obs::{Obs, RingRecorder};
use idb_store::{Batch, PointId, PointStore};
use idb_synth::{faulty_batch, ScenarioEngine, ScenarioKind, ScenarioSpec, ALL_BATCH_FAULTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CASES: usize = 256;
const THREAD_MODES: [Parallelism; 3] = [
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(8),
];

/// The full observable state of one bubble: seed anchor, sufficient
/// statistics `(n, LS, SS)`, and the member list in storage order.
type BubbleState = (Vec<f64>, u64, Vec<f64>, f64, Vec<PointId>);

/// Everything a clustering consumer can observe about the maintainer.
fn fingerprint(ib: &IncrementalBubbles) -> (u64, Vec<BubbleState>) {
    let bubbles = ib
        .bubbles()
        .iter()
        .map(|b| {
            (
                b.seed().to_vec(),
                b.stats().n(),
                b.stats().linear_sum().to_vec(),
                b.stats().square_sum(),
                b.members().to_vec(),
            )
        })
        .collect();
    (ib.total_points(), bubbles)
}

/// Checks the forward assignment table against the member lists.
fn assert_assignments_consistent(ib: &IncrementalBubbles) {
    for (bi, b) in ib.bubbles().iter().enumerate() {
        for &id in b.members() {
            assert_eq!(ib.assignment(id), Some(bi));
        }
    }
}

fn random_store(rng: &mut StdRng, dim: usize, n: usize) -> PointStore {
    let mut store = PointStore::new(dim);
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
        store.insert(&p, None);
    }
    store
}

fn random_config(rng: &mut StdRng, num_bubbles: usize, par: Parallelism) -> MaintainerConfig {
    let engine = match rng.gen_range(0..3) {
        0 => SeedSearch::Brute,
        1 => SeedSearch::Pruned,
        _ => SeedSearch::KdTree,
    };
    MaintainerConfig::new(num_bubbles)
        .with_seed_search(engine)
        .with_warm_start(rng.gen_bool(0.5))
        .with_parallelism(par)
}

/// A plausible random batch against the current store: delete a few live
/// points, insert a few fresh ones.
fn random_batch(store: &PointStore, rng: &mut StdRng) -> Batch {
    let dim = store.dim();
    let deletes = store.sample_distinct(rng.gen_range(0..=store.len().min(8)), rng);
    let inserts = (0..rng.gen_range(0..=12))
        .map(|_| {
            let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-120.0..120.0)).collect();
            (p, None)
        })
        .collect();
    Batch { deletes, inserts }
}

/// Entry point 1: construction. A serial build and a threaded build from
/// the same RNG seed must agree on every bubble, every assignment, and
/// every counter.
#[test]
fn build_is_bit_identical_across_modes() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    for case_no in 0..CASES {
        let dim = rng.gen_range(1..=4);
        let num_bubbles: usize = rng.gen_range(2..=10);
        let n = rng.gen_range(num_bubbles..=num_bubbles + 90);
        let store = random_store(&mut rng, dim, n);
        let config_seed: u64 = rng.gen();
        let build_seed: u64 = rng.gen();

        let serial_config = random_config(
            &mut StdRng::seed_from_u64(config_seed),
            num_bubbles,
            Parallelism::Serial,
        );
        let mut serial_stats = SearchStats::new();
        let serial = IncrementalBubbles::build(
            &store,
            serial_config,
            &mut StdRng::seed_from_u64(build_seed),
            &mut serial_stats,
        );
        assert_assignments_consistent(&serial);

        for par in THREAD_MODES {
            let config = random_config(&mut StdRng::seed_from_u64(config_seed), num_bubbles, par);
            let mut stats = SearchStats::new();
            let parallel = IncrementalBubbles::build(
                &store,
                config,
                &mut StdRng::seed_from_u64(build_seed),
                &mut stats,
            );
            assert_eq!(
                fingerprint(&parallel),
                fingerprint(&serial),
                "case {case_no} ({par:?}): built state diverged"
            );
            assert_eq!(
                stats, serial_stats,
                "case {case_no} ({par:?}): distance accounting diverged"
            );
            assert_assignments_consistent(&parallel);
        }
    }
}

/// Entry point 2: batch application + merge/split maintenance. Whole
/// update flows (build, three batches, a maintenance round after each)
/// replayed per mode from identical seeds must match step for step.
#[test]
fn update_and_maintenance_flows_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    for case_no in 0..CASES {
        let dim = rng.gen_range(1..=3);
        let num_bubbles: usize = rng.gen_range(3..=8);
        let n = rng.gen_range(num_bubbles.max(20)..=120);
        let base_store = random_store(&mut rng, dim, n);
        let config_seed: u64 = rng.gen();
        let flow_seed: u64 = rng.gen();

        // One flow per mode, all from the same seeds; collect the
        // per-round fingerprints and counters.
        let run = |par: Parallelism| {
            let mut store = base_store.clone();
            let config = random_config(&mut StdRng::seed_from_u64(config_seed), num_bubbles, par);
            let mut flow_rng = StdRng::seed_from_u64(flow_seed);
            let mut stats = SearchStats::new();
            let mut ib = IncrementalBubbles::build(&store, config, &mut flow_rng, &mut stats);
            let mut trace = Vec::new();
            for _ in 0..3 {
                let batch = random_batch(&store, &mut flow_rng);
                ib.apply_batch(&mut store, &batch, &mut stats);
                let report = ib.maintain(&store, &mut flow_rng, &mut stats);
                assert_assignments_consistent(&ib);
                trace.push((fingerprint(&ib), report, stats));
            }
            trace
        };

        let serial_trace = run(Parallelism::Serial);
        for par in THREAD_MODES {
            assert_eq!(
                run(par),
                serial_trace,
                "case {case_no} ({par:?}): update flow diverged"
            );
        }
    }
}

/// Entry point 3: the invariant audit. Healthy and corrupted maintainers
/// alike must produce the same report (or the same issue list) in every
/// mode.
#[test]
fn audit_reports_are_bit_identical_across_modes() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    for case_no in 0..CASES {
        let dim = rng.gen_range(1..=3);
        let num_bubbles: usize = rng.gen_range(2..=8);
        let n = rng.gen_range(num_bubbles.max(10)..=80);
        let store = random_store(&mut rng, dim, n);
        let config_seed: u64 = rng.gen();
        let build_seed: u64 = rng.gen();
        // Roughly half the cases are corrupted before auditing.
        let corruption: Option<(u8, u64)> = if rng.gen_bool(0.5) {
            Some((rng.gen_range(0..4), rng.gen()))
        } else {
            None
        };

        let audit = |par: Parallelism| -> Result<AuditReport, AuditError> {
            let config = random_config(&mut StdRng::seed_from_u64(config_seed), num_bubbles, par);
            let mut stats = SearchStats::new();
            let mut ib = IncrementalBubbles::build(
                &store,
                config,
                &mut StdRng::seed_from_u64(build_seed),
                &mut stats,
            );
            if let Some((kind, cseed)) = corruption {
                let mut crng = StdRng::seed_from_u64(cseed);
                let bi = crng.gen_range(0..ib.num_bubbles());
                match kind {
                    0 => ib.corrupt_stats(bi, 999, vec![1.0; dim], -5.0),
                    1 => ib.corrupt_seed(bi, vec![f64::NAN; dim]),
                    2 => ib.corrupt_total(1_000_000),
                    _ => {
                        let slot = crng.gen_range(0..store.slots());
                        ib.corrupt_assign(slot, u32::MAX - 1);
                    }
                }
            }
            ib.audit(&store)
        };

        let serial = audit(Parallelism::Serial);
        if corruption.is_none() {
            assert!(serial.is_ok(), "case {case_no}: healthy state failed audit");
        }
        for par in THREAD_MODES {
            assert_eq!(
                audit(par),
                serial,
                "case {case_no} ({par:?}): audit outcome diverged"
            );
        }
    }
}

/// Entry point 2, adversarial inputs: a fault-injected batch must be
/// rejected with the same typed error in every mode, leaving the
/// maintainer state untouched and identical.
#[test]
fn fault_injected_batches_fail_identically_across_modes() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0004);
    // 6 fault kinds x 43 cases each > 256 cases through the entry point.
    for round in 0..43 {
        for &fault in &ALL_BATCH_FAULTS {
            let dim = rng.gen_range(1..=3);
            let num_bubbles: usize = rng.gen_range(2..=6);
            let n = rng.gen_range(num_bubbles.max(10)..=60);
            let base_store = random_store(&mut rng, dim, n);
            let build_seed: u64 = rng.gen();
            let fault_seed: u64 = rng.gen();

            let run = |par: Parallelism| {
                let mut store = base_store.clone();
                let config = MaintainerConfig::new(num_bubbles).with_parallelism(par);
                let mut stats = SearchStats::new();
                let mut ib = IncrementalBubbles::build(
                    &store,
                    config,
                    &mut StdRng::seed_from_u64(build_seed),
                    &mut stats,
                );
                let before = fingerprint(&ib);
                let batch = faulty_batch(&store, fault, &mut StdRng::seed_from_u64(fault_seed));
                let err = ib
                    .try_apply_batch(&mut store, &batch, &mut stats)
                    .expect_err("fault-injected batch must be rejected");
                assert_eq!(
                    fingerprint(&ib),
                    before,
                    "round {round} ({fault:?}, {par:?}): rejected batch mutated state"
                );
                // Compare errors by their rendering: `NonFiniteCoordinate`
                // carries the NaN itself, and NaN != NaN under PartialEq.
                (format!("{err:?}"), fingerprint(&ib), stats)
            };

            let serial = run(Parallelism::Serial);
            for par in THREAD_MODES {
                assert_eq!(
                    run(par),
                    serial,
                    "round {round} ({fault:?}, {par:?}): fault handling diverged"
                );
            }
        }
    }
}

/// End-to-end over the paper's dynamic scenarios: several batches of each
/// scenario kind, applied and maintained per mode from the same seeds,
/// must leave identical summaries and pass identical audits. An audit
/// reads the seed table's stale rows without settling them: it charges no
/// repair, and a run without audits settles and charges exactly the same.
#[test]
fn dynamic_scenarios_are_bit_identical_across_modes() {
    for (k, kind) in ScenarioKind::all().into_iter().enumerate() {
        let run = |par: Parallelism, audit: bool| {
            let seed = 0x5CEA_0000 + k as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = ScenarioSpec::named(kind, 2, 600, 0.05);
            let mut eng = ScenarioEngine::new(spec);
            let mut store = eng.populate(&mut rng);
            let config = MaintainerConfig::new(12).with_parallelism(par);
            let mut stats = SearchStats::new();
            let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
            let mut trace = Vec::new();
            for _ in 0..4 {
                let batch = eng.plan(&mut rng);
                let inserted = ib.apply_batch(&mut store, &batch, &mut stats);
                eng.confirm(&inserted);
                ib.maintain(&store, &mut rng, &mut stats);
                if audit {
                    let repair = ib.seed_repair_stats();
                    ib.audit(&store).expect("invariants hold after maintenance");
                    assert_eq!(ib.seed_repair_stats(), repair, "an audit settles nothing");
                }
                trace.push((fingerprint(&ib), stats, ib.seed_repair_stats()));
            }
            trace
        };

        let serial = run(Parallelism::Serial, true);
        for par in THREAD_MODES {
            assert_eq!(
                run(par, true),
                serial,
                "{kind:?} ({par:?}): scenario diverged"
            );
        }
        assert_eq!(
            run(Parallelism::Serial, false),
            serial,
            "{kind:?}: audits changed the run"
        );
    }
}

/// Every assignment engine, warm-started or cold, must produce the
/// bit-identical summary through a full dynamic flow — build, update
/// batches and merge/split maintenance (whose released points run the
/// donor-neighbour warm-start path, and whose splits re-seed the table the
/// hints point into). Engines
/// may only differ in how the per-candidate accounting splits into
/// computed/pruned/partial; the per-candidate total itself must match, and
/// the pruned engines must never compute more distances than brute force.
#[test]
fn engines_and_warm_start_are_bit_identical_through_dynamic_flows() {
    const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];
    let mut rng = StdRng::seed_from_u64(0xD1FF_0005);
    for case_no in 0..CASES {
        let dim = rng.gen_range(1..=3);
        let num_bubbles: usize = rng.gen_range(3..=8);
        let n = rng.gen_range(num_bubbles.max(20)..=120);
        let base_store = random_store(&mut rng, dim, n);
        let flow_seed: u64 = rng.gen();

        let run = |engine: SeedSearch, warm: bool| {
            let mut store = base_store.clone();
            let config = MaintainerConfig::new(num_bubbles)
                .with_seed_search(engine)
                .with_warm_start(warm)
                .with_parallelism(Parallelism::Serial);
            let mut flow_rng = StdRng::seed_from_u64(flow_seed);
            let mut stats = SearchStats::new();
            let mut ib = IncrementalBubbles::build(&store, config, &mut flow_rng, &mut stats);
            let mut trace = Vec::new();
            for _ in 0..3 {
                let batch = random_batch(&store, &mut flow_rng);
                ib.apply_batch(&mut store, &batch, &mut stats);
                ib.maintain(&store, &mut flow_rng, &mut stats);
                assert_assignments_consistent(&ib);
                trace.push(fingerprint(&ib));
            }
            (trace, stats)
        };

        let (brute_trace, brute_stats) = run(SeedSearch::Brute, false);
        assert_eq!(brute_stats.pruned, 0, "case {case_no}: brute never prunes");
        assert_eq!(brute_stats.partial, 0, "case {case_no}: brute never aborts");
        for engine in ENGINES {
            for warm in [false, true] {
                let (trace, stats) = run(engine, warm);
                assert_eq!(
                    trace, brute_trace,
                    "case {case_no} ({engine:?}, warm={warm}): summary diverged from brute force"
                );
                assert_eq!(
                    stats.total(),
                    brute_stats.total(),
                    "case {case_no} ({engine:?}, warm={warm}): candidate accounting diverged"
                );
                assert!(
                    stats.computed <= brute_stats.computed,
                    "case {case_no} ({engine:?}, warm={warm}): computed more than brute force"
                );
            }
        }
    }
}

/// The recorded journal is part of the determinism contract: a threaded
/// run must emit the identical event stream (durations masked — they are
/// the only wall-clock field) and the identical metric counters as the
/// serial run, because structural events are emitted from the single
/// driving thread and counter deltas come from the chunk-order-merged
/// search accounting.
#[test]
fn journal_and_counters_are_bit_identical_between_serial_and_threaded_runs() {
    for (k, kind) in ScenarioKind::all().into_iter().enumerate() {
        let run = |par: Parallelism| {
            let seed = 0x0B5E_0000 + k as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = ScenarioSpec::named(kind, 2, 500, 0.05);
            let mut eng = ScenarioEngine::new(spec);
            let mut store = eng.populate(&mut rng);
            let config = MaintainerConfig::new(10).with_parallelism(par);
            let mut stats = SearchStats::new();
            let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
            let ring = Arc::new(RingRecorder::new());
            let obs = Obs::with_recorder(ring.clone());
            ib.set_obs(obs.clone());
            for _ in 0..4 {
                let batch = eng.plan(&mut rng);
                let inserted = ib.apply_batch(&mut store, &batch, &mut stats);
                eng.confirm(&inserted);
                ib.maintain(&store, &mut rng, &mut stats);
            }
            let events: Vec<_> = ring.events().iter().map(|e| e.masked()).collect();
            (events, obs.metrics().counters(), fingerprint(&ib))
        };

        let serial = run(Parallelism::Serial);
        assert!(
            !serial.0.is_empty(),
            "{kind:?}: the flow must journal something"
        );
        for par in THREAD_MODES {
            let threaded = run(par);
            assert_eq!(
                threaded.0, serial.0,
                "{kind:?} ({par:?}): journal event stream diverged"
            );
            assert_eq!(
                threaded.1, serial.1,
                "{kind:?} ({par:?}): metric counters diverged"
            );
            assert_eq!(
                threaded.2, serial.2,
                "{kind:?} ({par:?}): summary fingerprint diverged"
            );
        }
    }
}

/// Entry point 8: the cold tier. A durable stream applied with a tiny
/// hot-point budget must be bit-identical to the same stream applied
/// fully resident — per-step store and summary snapshot bytes, the final
/// WAL byte stream, the search counters, and the journal up to the
/// tier's own traffic events (`tier_fetch`/`tier_evict`, which by design
/// exist only when a tier is mounted) — while the tiered run's resident
/// payload count stays bounded by the hot budget plus one batch of
/// overshoot. Tiering, like threads and engines, is pure physics.
#[test]
fn tiered_runs_are_bit_identical_to_untiered() {
    use idb_core::{DurabilityConfig, DurableMaintainer};
    use idb_obs::EventKind;
    use idb_store::{MemMedium, ObjectSink};

    let mut rng = StdRng::seed_from_u64(0x71E2_0001);
    let mut total_cold_reads = 0u64;
    let mut total_evictions = 0u64;
    for case_no in 0..24 {
        let dim = rng.gen_range(1..=3);
        let num_bubbles: usize = rng.gen_range(3..=8);
        let n = rng.gen_range((num_bubbles + 2).max(30)..=120);
        let base_store = random_store(&mut rng, dim, n);
        let build_seed: u64 = rng.gen();
        let hot = rng.gen_range(2..=8usize);

        // Plan the whole stream against a simulation copy so both runs
        // see byte-identical batches: deletes reference ids that are live
        // at that step, and id assignment is deterministic (same
        // free-list evolution on both sides).
        let mut sim = base_store.clone();
        let steps: Vec<(Batch, u64)> = (0..5)
            .map(|_| {
                let batch = random_batch(&sim, &mut rng);
                for &id in &batch.deletes {
                    sim.remove(id);
                }
                for (p, l) in &batch.inserts {
                    sim.insert(p, *l);
                }
                (batch, rng.gen())
            })
            .collect();

        let run = |hot_points: Option<usize>| {
            let mut stats = SearchStats::new();
            let store = base_store.clone();
            let mut ib = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(num_bubbles),
                &mut StdRng::seed_from_u64(build_seed),
                &mut stats,
            );
            let ring = Arc::new(RingRecorder::new());
            ib.set_obs(Obs::with_recorder(ring.clone()));
            let dcfg = DurabilityConfig {
                checkpoint_interval: 2,
                hot_points,
                ..DurabilityConfig::default()
            };
            let mut dm = DurableMaintainer::adopt(
                store,
                ib,
                dcfg,
                ObjectSink::new(MemMedium::new(), "wal"),
                MemMedium::new(),
            )
            .expect("adopt");
            let mut trace: Vec<Vec<u8>> = Vec::new();
            for (batch, seed) in &steps {
                dm.apply_with(batch, *seed, true, &mut stats)
                    .expect("apply");
                if let Some(hot) = hot_points {
                    let resident = dm.store().resident_points();
                    assert!(
                        resident <= hot + batch.inserts.len(),
                        "case {case_no}: {resident} resident points exceeds the \
                         hot budget {hot} plus one batch of {} inserts",
                        batch.inserts.len()
                    );
                }
                let mut snap = Vec::new();
                dm.store().write_snapshot(&mut snap).expect("vec write");
                dm.bubbles().write_snapshot(&mut snap).expect("vec write");
                trace.push(snap);
            }
            let wal = dm.wal_sink().bytes().to_vec();
            let events: Vec<_> = ring
                .events()
                .iter()
                .map(|e| e.masked())
                .filter(|e| {
                    !matches!(
                        e.kind,
                        EventKind::TierFetch { .. } | EventKind::TierEvict { .. }
                    )
                })
                .collect();
            let counters = dm.store().tier_counters();
            (trace, wal, events, stats, counters)
        };

        let untiered = run(None);
        let tiered = run(Some(hot));
        assert_eq!(
            tiered.0, untiered.0,
            "case {case_no} (hot={hot}): snapshot byte trace diverged"
        );
        assert_eq!(
            tiered.1, untiered.1,
            "case {case_no} (hot={hot}): WAL byte stream diverged"
        );
        assert_eq!(
            tiered.2, untiered.2,
            "case {case_no} (hot={hot}): journal diverged beyond tier traffic"
        );
        assert_eq!(
            tiered.3, untiered.3,
            "case {case_no} (hot={hot}): search counters diverged"
        );
        assert!(
            untiered.4.is_none(),
            "case {case_no}: the untiered run must not mount a tier"
        );
        let c = tiered.4.expect("tiered run must expose tier counters");
        total_cold_reads += c.cold_reads;
        total_evictions += c.evictions;
    }
    // The equivalence must not be vacuous: across the suite the tiered
    // runs have to actually hit the cold medium and run the clock hand.
    assert!(
        total_cold_reads > 0,
        "no case ever read from the cold tier — budgets too generous"
    );
    assert!(
        total_evictions > 0,
        "no case ever evicted — budgets too generous"
    );
}

/// Entry point 9: the JSONL op journal. A durable dynamic run of every
/// scenario journals into a JSONL file under the scratch directory's
/// `idb-journals` folder (the directory CI hands to `journal_check`).
/// Read back from disk, each journal must pass [`check_journal`] and
/// equal — event for event, wall-clock masked — what an in-memory
/// recorder sees on an identical run.
#[test]
fn jsonl_journals_round_trip_and_pass_check_journal() {
    use idb_core::{DurabilityConfig, DurableMaintainer};
    use idb_obs::{check_journal, Event, JsonlRecorder, Recorder};
    use idb_store::wal::scratch_dir;
    use idb_store::{MemMedium, ObjectSink};

    let dir = scratch_dir().join("idb-journals");
    let mut splits = 0;
    for (k, kind) in ScenarioKind::all().into_iter().enumerate() {
        let run = |recorder: Arc<dyn Recorder>| {
            let mut rng = StdRng::seed_from_u64(0x0B5E_1000 + k as u64);
            let spec = ScenarioSpec::named(kind, 2, 800, 0.1);
            let mut eng = ScenarioEngine::new(spec);
            let store = eng.populate(&mut rng);
            let mut stats = SearchStats::new();
            let mut ib =
                IncrementalBubbles::build(&store, MaintainerConfig::new(40), &mut rng, &mut stats);
            ib.set_obs(Obs::with_recorder(recorder.clone()));
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
            .expect("adopt");
            for _ in 0..10 {
                let batch = eng.plan(&mut rng);
                let inserted = dm.apply(&batch, &mut rng, &mut stats).expect("apply");
                eng.confirm(&inserted);
            }
            recorder.flush();
        };

        let path = dir.join(format!("core-differential-{kind:?}.jsonl"));
        let _ = std::fs::remove_file(&path);
        run(Arc::new(JsonlRecorder::create(&path)));
        let ring = Arc::new(RingRecorder::new());
        run(ring.clone());

        let text = std::fs::read_to_string(&path).expect("the run wrote its journal");
        let from_disk: Vec<Event> = text
            .lines()
            .map(|line| Event::parse_jsonl(line).expect("every journal line parses"))
            .collect();
        let summary = check_journal(&from_disk)
            .unwrap_or_else(|e| panic!("{kind:?}: journal invariant violated: {e}"));
        assert!(
            summary.batches > 0 && summary.wal_commits > 0 && summary.checkpoints > 0,
            "{kind:?}: the journal must cover batches, commits and checkpoints"
        );
        splits += summary.splits;
        let masked = |events: &[Event]| events.iter().map(Event::masked).collect::<Vec<_>>();
        assert_eq!(
            masked(&from_disk),
            masked(&ring.events()),
            "{kind:?}: the JSONL journal diverged from the in-memory one"
        );
    }
    assert!(splits > 0, "the journaled runs must split bubbles");
}
