//! Property-based tests for the incremental maintainer.
//!
//! The crucial guarantee of the incremental scheme is *exactness of the
//! bookkeeping*: after any sequence of insertions, deletions and
//! maintenance rounds, every bubble's sufficient statistics equal what a
//! from-scratch computation over its current members would produce, every
//! live point is assigned to exactly one bubble, and the seed distance
//! matrix matches the actual seeds. `IncrementalBubbles::validate` checks
//! all of that in O(N); these tests drive it with randomized workloads,
//! each one under every nearest-seed engine.

use idb_core::{IncrementalBubbles, MaintainerConfig, QualityKind, SeedSearch};
use idb_geometry::SearchStats;
use idb_store::{Batch, PointStore};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every nearest-seed engine; the invariants must hold under each.
const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];

fn scenario_kind(i: u8) -> ScenarioKind {
    ScenarioKind::all()[i as usize % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants hold through an entire dynamic run of any named scenario,
    /// with maintenance after every batch.
    #[test]
    fn maintainer_invariants_hold_across_scenarios(
        seed in 0u64..1_000,
        kind_raw in 0u8..6,
        num_bubbles in 8usize..40,
        batches in 1usize..8,
    ) {
        for search_engine in ENGINES {
            let kind = scenario_kind(kind_raw);
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = ScenarioSpec::named(kind, 2, 800, 0.05);
            let mut engine = ScenarioEngine::new(spec);
            let mut store = engine.populate(&mut rng);
            let mut search = SearchStats::new();
            let mut ib = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(num_bubbles).with_seed_search(search_engine),
                &mut rng,
                &mut search,
            );
            ib.validate(&store);

            for _ in 0..batches {
                let batch = engine.plan(&mut rng);
                let new_ids = ib.apply_batch(&mut store, &batch, &mut search);
                engine.confirm(&new_ids);
                ib.validate(&store);
                ib.maintain(&store, &mut rng, &mut search);
                ib.validate(&store);
                prop_assert_eq!(ib.total_points(), store.len() as u64);
                prop_assert_eq!(ib.num_bubbles(), num_bubbles, "compression rate is fixed");
            }
        }
    }

    /// Every assignment engine produces the same summarization for
    /// identical seeds, on any random database.
    #[test]
    fn engines_agree_on_any_database(
        seed in 0u64..1_000,
        n in 60usize..400,
        num_bubbles in 4usize..30,
    ) {
        prop_assume!(n >= num_bubbles);
        let mut data_rng = StdRng::seed_from_u64(seed);
        let spec = ScenarioSpec::named(ScenarioKind::Random, 3, n, 0.05);
        let mut engine = ScenarioEngine::new(spec);
        let store = engine.populate(&mut data_rng);

        let mut s1 = SearchStats::new();
        let mut rng1 = StdRng::seed_from_u64(seed ^ 0xABCD);
        let brute = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(num_bubbles).with_seed_search(SeedSearch::Brute),
            &mut rng1,
            &mut s1,
        );
        let na: Vec<u64> = brute.bubbles().iter().map(|b| b.stats().n()).collect();
        for search_engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            let mut s2 = SearchStats::new();
            let mut rng2 = StdRng::seed_from_u64(seed ^ 0xABCD);
            let fast = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(num_bubbles).with_seed_search(search_engine),
                &mut rng2,
                &mut s2,
            );
            // Identical seed sampling → per-bubble point counts must agree
            // (individual tie-breaks could differ only for exactly
            // equidistant seeds, which random data does not produce).
            let nb: Vec<u64> = fast.bubbles().iter().map(|b| b.stats().n()).collect();
            prop_assert_eq!(&na, &nb, "{:?}", search_engine);
            // Pruned engines never compute more distances than brute force
            // and still account every candidate.
            prop_assert!(s2.computed <= s1.computed);
            prop_assert_eq!(s2.total(), s1.computed);
        }
    }

    /// Applying a batch and then reversing it restores every bubble's point
    /// count (statistics are exactly decrementable).
    #[test]
    fn batch_then_reverse_restores_counts(
        seed in 0u64..1_000,
        n in 100usize..300,
    ) {
        for search_engine in ENGINES {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = ScenarioSpec::named(ScenarioKind::Random, 2, n, 0.05);
            let mut engine = ScenarioEngine::new(spec);
            let mut store = engine.populate(&mut rng);
            let mut search = SearchStats::new();
            let mut ib = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(8).with_seed_search(search_engine),
                &mut rng,
                &mut search,
            );
            let before: Vec<u64> = ib.bubbles().iter().map(|b| b.stats().n()).collect();

            // Insert a handful of points, then delete exactly those points.
            let inserts: Vec<(Vec<f64>, Option<u32>)> = (0..10)
                .map(|i| (vec![i as f64 * 7.0, 50.0], None))
                .collect();
            let ids = ib.apply_batch(
                &mut store,
                &Batch { deletes: Vec::new(), inserts },
                &mut search,
            );
            let revert = Batch { deletes: ids, inserts: Vec::new() };
            ib.apply_batch(&mut store, &revert, &mut search);
            ib.validate(&store);

            let after: Vec<u64> = ib.bubbles().iter().map(|b| b.stats().n()).collect();
            prop_assert_eq!(before, after, "{:?}", search_engine);
        }
    }

    /// The extent-based quality measure is a drop-in alternative: the full
    /// pipeline also preserves invariants under it (the Figure 7 ablation
    /// path).
    #[test]
    fn extent_measure_pipeline_holds_invariants(
        seed in 0u64..500,
        batches in 1usize..5,
    ) {
        for search_engine in ENGINES {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = ScenarioSpec::named(ScenarioKind::Complex, 2, 600, 0.05);
            let mut engine = ScenarioEngine::new(spec);
            let mut store = engine.populate(&mut rng);
            let mut search = SearchStats::new();
            let mut ib = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(12)
                    .with_quality(QualityKind::Extent)
                    .with_seed_search(search_engine),
                &mut rng,
                &mut search,
            );
            for _ in 0..batches {
                let batch = engine.plan(&mut rng);
                let new_ids = ib.apply_batch(&mut store, &batch, &mut search);
                engine.confirm(&new_ids);
                ib.maintain(&store, &mut rng, &mut search);
                ib.validate(&store);
            }
        }
    }
}

/// Deterministic end-to-end check that the store and maintainer stay in
/// lock-step over a long complex run (a heavier, non-random companion to
/// the proptest above).
#[test]
fn long_complex_run_stays_consistent() {
    let mut rng = StdRng::seed_from_u64(20040613);
    let spec = ScenarioSpec::named(ScenarioKind::Complex, 5, 3_000, 0.04);
    let mut engine = ScenarioEngine::new(spec);
    let mut store = engine.populate(&mut rng);
    let mut search = SearchStats::new();
    // Pinned to the pruned engine: the pruning-fraction assertion below is
    // about its accounting.
    let mut ib = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(60).with_seed_search(SeedSearch::Pruned),
        &mut rng,
        &mut search,
    );
    let mut total_splits = 0usize;
    for _ in 0..25 {
        let batch = engine.plan(&mut rng);
        let new_ids = ib.apply_batch(&mut store, &batch, &mut search);
        engine.confirm(&new_ids);
        let report = ib.maintain(&store, &mut rng, &mut search);
        total_splits += report.splits;
        ib.validate(&store);
    }
    // The complex scenario (appearing + disappearing + moving clusters)
    // must trigger at least some structural repair over 25 batches.
    assert!(total_splits > 0, "complex dynamics caused splits");
    // And pruning must have been substantial overall.
    assert!(
        search.pruned_fraction() > 0.3,
        "triangle inequality pruned {:.1}% of candidates",
        search.pruned_fraction() * 100.0
    );
}

#[test]
fn empty_store_build_panics() {
    let store = PointStore::new(2);
    let mut rng = StdRng::seed_from_u64(0);
    let mut search = SearchStats::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        IncrementalBubbles::build(&store, MaintainerConfig::new(4), &mut rng, &mut search)
    }));
    assert!(result.is_err(), "building over an empty store must panic");
}
