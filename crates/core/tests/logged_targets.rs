//! Logged target ≡ search: every insert target a durable stream writes to
//! its WAL is the bubble the nearest-seed search returns when the record
//! is replayed from the stream's baseline, under every engine.
//!
//! Recovery attaches a replayed insert to its logged target without
//! searching, which is exact only if each logged target is what the
//! search would return at that point of the stream. This suite checks
//! that claim from the outside, through the public API alone: durable
//! streams with deletes, merges and splits, one of them on a cold tier,
//! are written under [`SeedSearch::Pruned`]; their logs are decoded with
//! [`read_wal`]; and each record is replayed on a copy of the baseline
//! through [`IncrementalBubbles::try_apply_batch`], which searches, under
//! all three engines. Every insert must land in its logged bubble, and
//! every replay must end in the live run's state.

use idb_core::{
    DurabilityConfig, DurableMaintainer, Health, IncrementalBubbles, MaintainerConfig, SeedSearch,
};
use idb_geometry::SearchStats;
use idb_obs::{Obs, RingRecorder};
use idb_store::wal::read_wal;
use idb_store::{Batch, MemMedium, ObjectSink, PointId, PointStore};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];

/// Serialized store + summarization: equal bytes are bit-identical state.
fn fingerprint(store: &PointStore, ib: &IncrementalBubbles) -> (Vec<u8>, Vec<u8>) {
    let mut s = Vec::new();
    store.write_snapshot(&mut s).expect("vec write");
    let mut b = Vec::new();
    ib.write_snapshot(&mut b).expect("vec write");
    (s, b)
}

/// Each bubble's seed and members, in slot order: the summary whatever
/// engine searches it.
fn population(ib: &IncrementalBubbles) -> Vec<(Vec<f64>, Vec<PointId>)> {
    ib.bubbles()
        .iter()
        .map(|b| (b.seed().to_vec(), b.members().to_vec()))
        .collect()
}

/// 150 inserts packed within 2 units of `(c, c)`: one bubble absorbs them
/// and the next maintenance round splits it (under p = 0.8).
fn clustered_burst(c: f64) -> Batch {
    Batch {
        deletes: Vec::new(),
        inserts: (0..150)
            .map(|i| {
                let t = f64::from(i) * 0.041;
                (vec![c + t.sin() * 2.0, c + t.cos() * 2.0], None)
            })
            .collect(),
    }
}

#[test]
fn every_logged_target_is_the_search_result_under_every_engine() {
    const BUILD_SEED: u64 = 0x7A26;
    let config = |engine| {
        MaintainerConfig::new(12)
            .with_probability(0.8)
            .with_seed_search(engine)
    };
    for hot_points in [None, Some(64)] {
        let mut rng = StdRng::seed_from_u64(0x7A25);
        let spec = ScenarioSpec::named(ScenarioKind::Random, 2, 500, 0.08);
        let mut scenario = ScenarioEngine::new(spec);
        let baseline = scenario.populate(&mut rng);
        let build = |engine| {
            let mut search = SearchStats::new();
            let mut build_rng = StdRng::seed_from_u64(BUILD_SEED);
            IncrementalBubbles::build(&baseline, config(engine), &mut build_rng, &mut search)
        };

        // The live stream, written under the pruned engine.
        let mut live = build(SeedSearch::Pruned);
        let ring = Arc::new(RingRecorder::new());
        live.set_obs(Obs::with_recorder(ring.clone()));
        let dcfg = DurabilityConfig {
            checkpoint_interval: 5,
            hot_points,
            ..DurabilityConfig::default()
        };
        let mut dm = DurableMaintainer::adopt(
            baseline.clone(),
            live,
            dcfg,
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
        )
        .expect("memory media");
        let mut search = SearchStats::new();
        dm.apply_with(&clustered_burst(200.0), 1, true, &mut search)
            .expect("the burst is valid");
        for round in 2..16 {
            let batch = scenario.plan(&mut rng);
            let ids = dm
                .apply_with(&batch, round, round % 3 != 1, &mut search)
                .expect("planned batches are valid");
            scenario.confirm(&ids);
        }
        assert_eq!(dm.sync(), Health::Healthy);
        let tags: Vec<&str> = ring.events().iter().map(|e| e.kind.tag()).collect();
        for tag in ["delete", "merge_away", "split"] {
            assert!(
                tags.contains(&tag),
                "hot {hot_points:?}: the stream has no {tag}"
            );
        }
        let want = fingerprint(dm.store(), dm.bubbles());
        let want_population = population(dm.bubbles());
        let log = read_wal(&dm.wal_sink().bytes()).expect("an intact log");
        assert_eq!(log.records.len(), 15);

        for engine in ENGINES {
            let what = format!("hot {hot_points:?}, {engine:?}");
            let mut store = baseline.clone();
            let mut ib = build(engine);
            let mut search = SearchStats::new();
            let mut inserts = 0;
            for (k, rec) in log.records.iter().enumerate() {
                assert_eq!(rec.targets.len(), rec.batch.inserts.len(), "{what}");
                let ids = ib
                    .try_apply_batch(&mut store, &rec.batch, &mut search)
                    .expect("a logged batch replays");
                for (i, (&id, &target)) in ids.iter().zip(&rec.targets).enumerate() {
                    assert_eq!(
                        ib.assignment(id),
                        Some(target as usize),
                        "{what}: record {k}, insert {i}"
                    );
                }
                inserts += ids.len();
                if rec.maintain {
                    let mut round = StdRng::seed_from_u64(rec.round_seed);
                    ib.try_maintain(&store, &mut round, &mut search)
                        .expect("an untiered round cannot fail");
                }
            }
            assert!(inserts > 150, "{what}: {inserts} inserts replayed");
            let (store_bytes, bubble_bytes) = fingerprint(&store, &ib);
            assert_eq!(store_bytes, want.0, "{what}: store");
            assert_eq!(population(&ib), want_population, "{what}: bubbles");
            if engine == SeedSearch::Pruned {
                assert_eq!(bubble_bytes, want.1, "{what}: bubble snapshot");
            }
        }
    }
}
