//! Experiments beyond the paper's figures: scalability of the
//! summarization (the paper claims the scheme "is scalable and well
//! suited for high dimensional data") and the adaptive-bubble-count
//! extension (its Section 6 future work).

use crate::common::{f1, f4, RunConfig};
use idb_core::{AdaptivePolicy, IncrementalBubbles, MaintainerConfig, Parallelism};
use idb_eval::{fscore, write_csv, Table};
use idb_geometry::SearchStats;
use idb_store::Batch;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use incremental_data_bubbles::pipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Scalability: construction and per-batch maintenance cost across
/// dimensionalities and database sizes (wall-clock and pruning fraction).
pub fn run_scaling(cfg: &RunConfig) {
    println!("Scalability: build and per-batch cost vs dimension and size");
    let mut table = Table::new([
        "dim",
        "points",
        "build ms",
        "build ms (4 threads)",
        "batch ms",
        "saved %",
    ]);
    for &dim in &[2usize, 5, 10, 20] {
        for &size in &[cfg.size / 2, cfg.size] {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let spec = ScenarioSpec::named(ScenarioKind::Complex, dim, size, cfg.update_fraction);
            let mut engine = ScenarioEngine::new(spec);
            let mut store = engine.populate(&mut rng);

            let mut search = SearchStats::new();
            let t0 = Instant::now();
            let mut bubbles = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(cfg.num_bubbles),
                &mut rng,
                &mut search,
            );
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;

            let mut rng_par = StdRng::seed_from_u64(cfg.seed);
            let mut par_search = SearchStats::new();
            let t1 = Instant::now();
            let _ = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(cfg.num_bubbles).with_parallelism(Parallelism::Threads(4)),
                &mut rng_par,
                &mut par_search,
            );
            let build_par_ms = t1.elapsed().as_secs_f64() * 1e3;

            let mut batch_search = SearchStats::new();
            let t2 = Instant::now();
            let batches = 3;
            for _ in 0..batches {
                let batch = engine.plan(&mut rng);
                let ids = bubbles.apply_batch(&mut store, &batch, &mut batch_search);
                bubbles.maintain(&store, &mut rng, &mut batch_search);
                engine.confirm(&ids);
            }
            let batch_ms = t2.elapsed().as_secs_f64() * 1e3 / batches as f64;

            table.push_row([
                dim.to_string(),
                size.to_string(),
                f1(build_ms),
                f1(build_par_ms),
                f1(batch_ms),
                f1(batch_search.avoided_fraction() * 100.0),
            ]);
            eprintln!("  finished dim {dim}, size {size}");
        }
    }
    println!("{}", table.render());
    let path = cfg.out_dir.join("scaling.csv");
    write_csv(&table, &path).expect("write scaling.csv");
    println!("(csv written to {})", path.display());
    println!(
        "expected shape: costs grow roughly linearly in size and dimension; \
         pruning stays substantial in high dimensions"
    );
}

/// Adaptive bubble budget: the database doubles through insert-only
/// batches; the fixed-count scheme dilutes (average points per bubble
/// doubles) while the adaptive scheme grows its population and holds the
/// compression rate.
pub fn run_adaptive(cfg: &RunConfig) {
    println!("Adaptive bubble budget under database growth (Section 6 future work)");
    let mut table = Table::new([
        "scheme",
        "batch",
        "points",
        "bubbles",
        "avg pts/bubble",
        "F-score",
    ]);

    for adaptive in [false, true] {
        let scheme = if adaptive { "adaptive" } else { "fixed" };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let spec = ScenarioSpec::named(ScenarioKind::Random, 2, cfg.size, cfg.update_fraction);
        let mut engine = ScenarioEngine::new(spec.clone());
        let mut store = engine.populate(&mut rng);
        let mut search = SearchStats::new();
        let mut bubbles = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(cfg.num_bubbles),
            &mut rng,
            &mut search,
        );
        let target_avg = cfg.size as f64 / cfg.num_bubbles as f64;
        // A ±25 % band: tight enough that doubling the database forces
        // visible growth within a few batches.
        let policy = AdaptivePolicy {
            min_avg_points: target_avg * 0.75,
            max_avg_points: target_avg * 1.25,
            max_adjustments: 64,
        };

        // Insert-only growth: +12.5 % of the initial size per batch, drawn
        // from the standing mixture, until the database has doubled.
        let model = idb_synth::MixtureModel::new(
            2,
            spec.clusters.iter().map(|c| c.model.clone()).collect(),
            spec.noise_fraction,
            spec.bounds,
        );
        for batch_no in 0..8usize {
            let inserts: Vec<_> = (0..cfg.size / 8).map(|_| model.sample(&mut rng)).collect();
            let batch = Batch {
                deletes: Vec::new(),
                inserts,
            };
            bubbles.apply_batch(&mut store, &batch, &mut search);
            if adaptive {
                bubbles.maintain_adaptive(&store, &mut rng, &mut search, &policy);
            } else {
                bubbles.maintain(&store, &mut rng, &mut search);
            }
            if batch_no % 2 == 1 {
                let outcome =
                    pipeline::cluster_bubbles(&bubbles, cfg.min_pts, cfg.min_cluster_size());
                let f = fscore(&store, &outcome.clusters).overall;
                table.push_row([
                    scheme.to_string(),
                    batch_no.to_string(),
                    store.len().to_string(),
                    bubbles.num_bubbles().to_string(),
                    f1(store.len() as f64 / bubbles.num_bubbles() as f64),
                    f4(f),
                ]);
            }
        }
        eprintln!("  finished scheme {scheme}");
    }
    println!("{}", table.render());
    let path = cfg.out_dir.join("adaptive.csv");
    write_csv(&table, &path).expect("write adaptive.csv");
    println!(
        "expected shape: the fixed scheme's avg pts/bubble doubles with the \
         database; the adaptive scheme grows its population and keeps the \
         average inside the policy band"
    );
}
