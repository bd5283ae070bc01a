//! Repository-level integration tests: the full paper pipeline across all
//! crates — scenario generation → incremental summarization → OPTICS on
//! bubbles → extraction → F-score — with the complete-rebuild baseline and
//! the paper's efficiency claims checked end to end.

use incremental_data_bubbles::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZE: usize = 8_000;
const BUBBLES: usize = 120;
const MIN_PTS: usize = 10;
const MIN_CLUSTER: usize = 60;

struct RunResult {
    f_incremental: f64,
    f_complete: f64,
    pruned_fraction: f64,
    saving_factor: f64,
    total_splits: usize,
}

fn run_scenario(kind: ScenarioKind, dim: usize, seed: u64) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = ScenarioSpec::named(kind, dim, SIZE, 0.05);
    let mut engine = ScenarioEngine::new(spec);
    let mut store = engine.populate(&mut rng);

    let mut build = SearchStats::new();
    // The incremental scheme runs the pruned (triangle-inequality) engine
    // explicitly: the Figure 10 pruning-fraction claim below is about it.
    let mut ib = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(BUBBLES).with_seed_search(SeedSearch::Pruned),
        &mut rng,
        &mut build,
    );

    let mut batch_stats_total = SearchStats::new();
    let mut saving = Aggregate::new();
    let mut total_splits = 0usize;
    for _ in 0..10 {
        let batch = engine.plan(&mut rng);
        let mut stats = SearchStats::new();
        let ids = ib.apply_batch(&mut store, &batch, &mut stats);
        let report = ib.maintain(&store, &mut rng, &mut stats);
        engine.confirm(&ids);
        ib.validate(&store);
        total_splits += report.splits;
        saving.push(idb_eval::distance_saving_factor(
            store.len() as u64,
            BUBBLES as u64,
            stats,
        ));
        batch_stats_total += stats;
    }

    let inc = pipeline::cluster_bubbles(&ib, MIN_PTS, MIN_CLUSTER);
    let f_incremental = fscore(&store, &inc.clusters).overall;

    let mut rebuild = SearchStats::new();
    let complete = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(BUBBLES).with_seed_search(SeedSearch::Brute),
        &mut rng,
        &mut rebuild,
    );
    let com = pipeline::cluster_bubbles(&complete, MIN_PTS, MIN_CLUSTER);
    let f_complete = fscore(&store, &com.clusters).overall;

    RunResult {
        f_incremental,
        f_complete,
        pruned_fraction: batch_stats_total.pruned_fraction(),
        saving_factor: saving.mean(),
        total_splits,
    }
}

#[test]
fn incremental_matches_complete_rebuild_on_random_churn() {
    let r = run_scenario(ScenarioKind::Random, 2, 100);
    assert!(
        r.f_complete > 0.85,
        "complete baseline sane: {}",
        r.f_complete
    );
    assert!(
        r.f_incremental > r.f_complete - 0.1,
        "incremental within 0.1 F of complete ({} vs {})",
        r.f_incremental,
        r.f_complete
    );
}

#[test]
fn incremental_tracks_appearing_cluster() {
    let r = run_scenario(ScenarioKind::Appear, 2, 200);
    assert!(r.f_incremental > 0.8, "F = {}", r.f_incremental);
    assert!(r.total_splits > 0, "the new cluster forced splits");
}

#[test]
fn incremental_tracks_extreme_appearing_cluster() {
    let r = run_scenario(ScenarioKind::ExtremeAppear, 2, 300);
    assert!(r.f_incremental > 0.8, "F = {}", r.f_incremental);
    assert!(r.total_splits > 0);
}

#[test]
fn incremental_survives_disappearance_and_movement() {
    for (kind, seed) in [
        (ScenarioKind::Disappear, 400),
        (ScenarioKind::GradMove, 500),
    ] {
        let r = run_scenario(kind, 2, seed);
        assert!(
            r.f_incremental > r.f_complete - 0.15,
            "{kind:?}: {} vs {}",
            r.f_incremental,
            r.f_complete
        );
    }
}

#[test]
fn complex_scenario_in_higher_dimensions() {
    for dim in [5usize, 10] {
        let r = run_scenario(ScenarioKind::Complex, dim, 600 + dim as u64);
        assert!(r.f_incremental > 0.7, "dim {dim}: F = {}", r.f_incremental);
    }
}

#[test]
fn efficiency_claims_hold() {
    let r = run_scenario(ScenarioKind::Complex, 2, 700);
    // Figure 10: substantial pruning by the triangle inequality.
    assert!(
        r.pruned_fraction > 0.5,
        "pruned {:.1} %",
        r.pruned_fraction * 100.0
    );
    // Figure 11: an order of magnitude fewer distance computations than
    // rebuild-per-batch at 5 % updates.
    assert!(r.saving_factor > 10.0, "saving factor {}", r.saving_factor);
}
