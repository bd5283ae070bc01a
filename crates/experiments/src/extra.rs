//! An experiment beyond the paper's figures: scalability of the
//! summarization (the paper claims the scheme "is scalable and well
//! suited for high dimensional data").

use crate::common::{f1, RunConfig};
use idb_core::{IncrementalBubbles, MaintainerConfig, Parallelism};
use idb_eval::{write_csv, Table};
use idb_geometry::SearchStats;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
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
