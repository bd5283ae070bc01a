//! Snapshot round-trip property sweep (engine × warm-start × dimension).
//!
//! Persisting a maintainer and reading it back must reproduce the decoded
//! configuration and every bubble's sufficient statistics *exactly* — for
//! each seed-search engine, with warm-start hints on and off, through the
//! checksummed snapshot frames of both the bubbles and the store they sit
//! on.
//!
//! Two knobs are deliberately runtime-only and not persisted: `warm_start`
//! (assignment hints are rebuilt from scratch after a load) and
//! `parallelism` (an execution choice, not state). A decoded maintainer
//! therefore carries their defaults regardless of what the writer used;
//! the sweep asserts exactly that, so any accidental change to what is and
//! is not persisted fails loudly.

use idb_core::{IncrementalBubbles, MaintainerConfig, Parallelism, SeedSearch};
use idb_geometry::SearchStats;
use idb_store::PointStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];

fn churned_store(dim: usize, rng: &mut StdRng) -> PointStore {
    let mut store = PointStore::new(dim);
    let mut ids = Vec::new();
    for i in 0..140 {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        ids.push(store.insert(&p, if i % 6 == 0 { None } else { Some(i % 3) }));
    }
    for i in (0..140).step_by(5) {
        store.remove(ids[i]);
    }
    store
}

/// Per-bubble (seed bits, n, linear-sum bits, square-sum bits, member ids).
type BubbleKey = (Vec<u64>, u64, Vec<u64>, u64, Vec<u32>);

fn assert_bit_identical(a: &IncrementalBubbles, b: &IncrementalBubbles, what: &str) {
    let key = |ib: &IncrementalBubbles| -> Vec<BubbleKey> {
        ib.bubbles()
            .iter()
            .map(|bb| {
                (
                    bb.seed().iter().map(|x| x.to_bits()).collect(),
                    bb.stats().n(),
                    bb.stats()
                        .linear_sum()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect(),
                    bb.stats().square_sum().to_bits(),
                    bb.members().iter().map(|id| id.0).collect(),
                )
            })
            .collect()
    };
    assert_eq!(key(a), key(b), "{what}: bubble state diverged");
}

#[test]
fn engine_by_warm_start_by_format_round_trip_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for &engine in &ENGINES {
        for warm_start in [false, true] {
            for dim in [1usize, 3] {
                let store = churned_store(dim, &mut rng);
                let config = MaintainerConfig::new(7)
                    .with_probability(0.93)
                    .with_seed_search(engine)
                    .with_warm_start(warm_start)
                    .with_parallelism(Parallelism::Serial);
                let mut stats = SearchStats::new();
                let mut build_rng = StdRng::seed_from_u64(rng.gen());
                let ib =
                    IncrementalBubbles::build(&store, config.clone(), &mut build_rng, &mut stats);

                let mut store_bytes = Vec::new();
                store.write_snapshot(&mut store_bytes).unwrap();
                let mut ib_bytes = Vec::new();
                ib.write_snapshot(&mut ib_bytes).unwrap();

                let what = format!("{engine:?}/warm={warm_start}/dim={dim}");
                let rstore = PointStore::read_snapshot(&mut store_bytes.as_slice())
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let rib = IncrementalBubbles::read_snapshot(&mut ib_bytes.as_slice(), &rstore)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));

                // Persisted knobs decode exactly.
                let rc = rib.config();
                assert_eq!(rc.num_bubbles, config.num_bubbles, "{what}");
                assert_eq!(
                    rc.probability.to_bits(),
                    config.probability.to_bits(),
                    "{what}"
                );
                assert_eq!(rc.seed_search, engine, "{what}");
                assert_eq!(rc.quality, config.quality, "{what}");
                assert_eq!(rc.split_seeds, config.split_seeds, "{what}");
                // Runtime-only knobs come back as defaults, never
                // as whatever the writer happened to run with.
                let defaults = MaintainerConfig::new(rc.num_bubbles);
                assert_eq!(rc.warm_start, defaults.warm_start, "{what}");
                assert_eq!(rc.parallelism, defaults.parallelism, "{what}");

                assert_bit_identical(&ib, &rib, &what);

                // The restored maintainer is operational under its
                // engine: one maintenance round must run clean.
                let mut rib = rib;
                let mut round_rng = StdRng::seed_from_u64(17);
                let mut rstats = SearchStats::new();
                rib.maintain(&rstore, &mut round_rng, &mut rstats);
                rib.audit(&rstore).unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
    }
}

#[test]
fn snapshots_of_identical_state_are_byte_identical() {
    // Writer determinism: the same maintainer snapshots to the same bytes
    // every time — a prerequisite for the durability layer's checkpoint
    // comparisons.
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    let store = churned_store(2, &mut rng);
    let config = MaintainerConfig::new(6).with_seed_search(SeedSearch::KdTree);
    let mut stats = SearchStats::new();
    let mut build_rng = StdRng::seed_from_u64(3);
    let ib = IncrementalBubbles::build(&store, config, &mut build_rng, &mut stats);
    let mut a = Vec::new();
    let mut b = Vec::new();
    ib.write_snapshot(&mut a).unwrap();
    ib.write_snapshot(&mut b).unwrap();
    assert_eq!(a, b);
}
