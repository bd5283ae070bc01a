//! Records four summarization claims in wall-clock form to
//! `BENCH_summary.json`, each a median of `REPS` runs next to the work
//! done (`computed` counts full distance computations, the paper's Figure
//! 10/11 currency). State a measured run mutates is cloned before the
//! clock starts.
//!
//! * one incremental batch (apply + one maintain round) vs. a brute-force
//!   rebuild of the updated database, at 2% and 10% churn (Figure 11);
//! * OPTICS on the raw points vs. on 200 bubbles expanded to a point plot;
//! * building 200 data bubbles vs. inserting the points into a CF-tree;
//! * β classification, and one maintain round per split-seed policy.
//!
//! Usage: `summary_report [output.json]` (default `BENCH_summary.json`).

use idb_bench::{
    complex_fixture, json_list, median_secs, median_secs_with, random_fixture, write_report,
};
use idb_birch::CfTree;
use idb_clustering::{optics_bubbles, optics_points};
use idb_core::{IncrementalBubbles, MaintainerConfig, SeedSearch, SplitSeedPolicy};
use idb_geometry::SearchStats;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const REPS: usize = 5;
const SIZE: usize = 20_000;
const BUBBLES: usize = 200;
/// Classifications per timed run: one takes about a microsecond, too
/// close to the timer's own cost to time alone.
const CLASSIFY_CALLS: usize = 1_000;
const NOTE: &str = "medians, serial mode, pruned engine unless named; state a measured run mutates is cloned before the clock starts; computed counts full distance computations (the paper's Figure 10/11 currency); incremental_vs_rebuild applies one withheld batch to a warmed-up summary (apply + one maintain round) against a brute-force rebuild of the updated database; optics runs OPTICS with unbounded eps and min_pts 10 on the raw points and on the bubble summary expanded to a point-level plot; ingest builds data bubbles against CF-tree insertion (branching 8, leaf capacity 16, threshold 5.0); maintenance times beta classification alone (per call, over 1000 calls per run) and one maintain round under each split-seed policy, four unmaintained batches after the build";

/// Incremental maintenance of one batch against a complete rebuild.
fn incremental_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for update in [0.02f64, 0.10] {
        // A warmed-up dynamic run; the measured runs apply one withheld
        // batch to copies of its state.
        let mut rng = StdRng::seed_from_u64(11);
        let spec = ScenarioSpec::named(ScenarioKind::Complex, 2, SIZE, update);
        let mut engine = ScenarioEngine::new(spec);
        let mut store = engine.populate(&mut rng);
        let mut search = SearchStats::new();
        let mut ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(BUBBLES),
            &mut rng,
            &mut search,
        );
        for _ in 0..3 {
            let batch = engine.plan(&mut rng);
            let ids = ib.apply_batch(&mut store, &batch, &mut search);
            engine.confirm(&ids);
            ib.maintain(&store, &mut rng, &mut search);
        }
        let batch = engine.plan(&mut rng);

        let (inc_secs, (_, _, inc)) = median_secs_with(
            REPS,
            || (ib.clone(), store.clone()),
            |(mut ib, mut store)| {
                let mut stats = SearchStats::new();
                ib.apply_batch(&mut store, &batch, &mut stats);
                ib.maintain(&store, &mut StdRng::seed_from_u64(3), &mut stats);
                (ib, store, stats)
            },
        );
        let (rebuild_secs, (_, _, rebuild)) = median_secs_with(
            REPS,
            || store.clone(),
            |mut store| {
                store.apply(&batch);
                let mut stats = SearchStats::new();
                let config = MaintainerConfig::new(BUBBLES).with_seed_search(SeedSearch::Brute);
                let rebuilt = IncrementalBubbles::build(
                    &store,
                    config,
                    &mut StdRng::seed_from_u64(3),
                    &mut stats,
                );
                (rebuilt, store, stats)
            },
        );
        let pct = update * 100.0;
        eprintln!(
            "update {pct:.0}%: incremental {inc_secs:.5}s ({} computed) vs rebuild {rebuild_secs:.5}s ({} computed)",
            inc.computed, rebuild.computed
        );
        rows.push(format!(
            "{{\"case\": \"complex_d2_n{SIZE}_s{BUBBLES}_update_{pct:.0}pct\", \"incremental_secs\": {inc_secs:.6}, \"rebuild_secs\": {rebuild_secs:.6}, \"speedup\": {:.2}, \"incremental_computed\": {}, \"rebuild_computed\": {}}}",
            rebuild_secs / inc_secs,
            inc.computed,
            rebuild.computed
        ));
    }
    rows
}

/// OPTICS over the raw points against OPTICS over the bubble summary.
fn optics_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for size in [2_000usize, 5_000] {
        let (store, mut rng) = random_fixture(2, size, 5);
        let ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(BUBBLES),
            &mut rng,
            &mut SearchStats::new(),
        );
        let (points_secs, points_plot) =
            median_secs(REPS, || optics_points(&store, f64::INFINITY, 10));
        let (bubbles_secs, bubbles_plot) = median_secs(REPS, || {
            optics_bubbles(ib.bubbles(), f64::INFINITY, 10).expand(|i| {
                ib.bubble(i)
                    .members()
                    .iter()
                    .map(|id| u64::from(id.0))
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(
            points_plot.len(),
            bubbles_plot.len(),
            "both plots cover every point"
        );
        eprintln!("optics n={size}: points {points_secs:.5}s vs bubbles {bubbles_secs:.5}s");
        rows.push(format!(
            "{{\"case\": \"random_d2_n{size}_s{BUBBLES}\", \"points_secs\": {points_secs:.6}, \"bubbles_secs\": {bubbles_secs:.6}, \"speedup\": {:.2}, \"plot_points\": {}}}",
            points_secs / bubbles_secs,
            points_plot.len()
        ));
    }
    rows
}

/// Data-bubble construction against CF-tree insertion of one database.
fn ingest_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for dim in [2usize, 10] {
        let (store, _) = random_fixture(dim, SIZE, 21);
        let (bubble_secs, (bubbles, stats)) = median_secs(REPS, || {
            let mut stats = SearchStats::new();
            let ib = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(BUBBLES),
                &mut StdRng::seed_from_u64(9),
                &mut stats,
            );
            (ib, stats)
        });
        let (cf_secs, tree) = median_secs(REPS, || {
            let mut tree = CfTree::new(dim, 8, 16, 5.0);
            for (_, p, _) in store.iter() {
                tree.insert(p);
            }
            tree
        });
        let leaves = tree.leaf_entries().len();
        eprintln!(
            "ingest d={dim}: bubbles {bubble_secs:.5}s ({} computed) vs cf-tree {cf_secs:.5}s ({leaves} leaf entries)",
            stats.computed
        );
        rows.push(format!(
            "{{\"case\": \"random_d{dim}_n{SIZE}\", \"bubbles_secs\": {bubble_secs:.6}, \"cf_tree_secs\": {cf_secs:.6}, \"bubbles\": {}, \"bubble_computed\": {}, \"cf_leaf_entries\": {leaves}}}",
            bubbles.num_bubbles(),
            stats.computed
        ));
    }
    rows
}

/// β classification and one maintain round per split-seed policy.
fn maintenance_rows() -> Vec<String> {
    // A state right after four disruptive batches with no maintenance, so
    // the measured round has real work.
    let state = |policy: SplitSeedPolicy| {
        let (mut engine, mut store, mut rng) = complex_fixture(2, SIZE, 31);
        let mut search = SearchStats::new();
        let config = MaintainerConfig::new(BUBBLES).with_split_seeds(policy);
        let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut search);
        for _ in 0..4 {
            let batch = engine.plan(&mut rng);
            let ids = ib.apply_batch(&mut store, &batch, &mut search);
            engine.confirm(&ids);
        }
        (ib, store)
    };
    let mut rows = Vec::new();
    let (ib, _) = state(SplitSeedPolicy::Random);
    let (secs, over_filled) = median_secs(REPS, || {
        (0..CLASSIFY_CALLS)
            .map(|_| black_box(ib.classify_now()).over_filled().len())
            .last()
    });
    let secs = secs / CLASSIFY_CALLS as f64;
    let over_filled = over_filled.expect("classified at least once");
    eprintln!("classify: {secs:.9}s per call ({over_filled} over-filled)");
    rows.push(format!(
        "{{\"op\": \"classify\", \"policy\": \"random\", \"median_secs\": {secs:.9}, \"over_filled\": {over_filled}}}"
    ));
    for (name, policy) in [
        ("random", SplitSeedPolicy::Random),
        ("spread", SplitSeedPolicy::Spread),
    ] {
        let (ib, store) = state(policy);
        let (secs, (_, report, stats)) = median_secs_with(
            REPS,
            || ib.clone(),
            |mut ib| {
                let mut stats = SearchStats::new();
                let report = ib.maintain(&store, &mut StdRng::seed_from_u64(2), &mut stats);
                (ib, report, stats)
            },
        );
        eprintln!(
            "maintain {name}: {secs:.5}s ({} splits, {} computed)",
            report.splits, stats.computed
        );
        rows.push(format!(
            "{{\"op\": \"maintain\", \"policy\": \"{name}\", \"median_secs\": {secs:.6}, \"splits\": {}, \"computed\": {}}}",
            report.splits, stats.computed
        ));
    }
    rows
}

fn main() {
    let json = format!(
        "{{\n  \"bench\": \"summary\",\n  \"reps\": {REPS},\n  \"incremental_vs_rebuild\": {},\n  \"optics\": {},\n  \"ingest\": {},\n  \"maintenance\": {},\n  \"note\": \"{NOTE}\"\n}}\n",
        json_list(4, incremental_rows()),
        json_list(4, optics_rows()),
        json_list(4, ingest_rows()),
        json_list(4, maintenance_rows()),
    );
    write_report("BENCH_summary.json", &json);
}
