//! Running the pipeline on your own data: CSV in, clusters out.
//!
//! This example writes a small CSV (standing in for an external dataset),
//! loads it back through `idb_synth::io`, summarizes and clusters it. Point
//! it at a real file with
//!
//! ```text
//! cargo run --release --example custom_data -- path/to/points.csv
//! ```
//!
//! Format: one point per row, comma-separated coordinates, optional final
//! label column (integer or `noise`). The example's synthetic file uses
//! labels; pass an unlabeled file and the F-score is simply skipped.

use incremental_data_bubbles::prelude::*;
use incremental_data_bubbles::synth::io::{load_csv, save_csv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);

    let path: PathBuf = match std::env::args().nth(1) {
        Some(p) => p.into(),
        None => {
            // No file given: manufacture one, as documentation of the format.
            let model = MixtureModel::new(
                3,
                vec![
                    ClusterModel::new(vec![10.0, 10.0, 10.0], 1.5),
                    ClusterModel::new(vec![40.0, 40.0, 10.0], 1.5),
                    ClusterModel::new(vec![10.0, 40.0, 40.0], 1.5),
                ],
                0.05,
                (0.0, 50.0),
            );
            let store = model.populate(6_000, &mut rng);
            let path = std::env::temp_dir().join("idb_custom_data_example.csv");
            save_csv(&store, &path).expect("write example csv");
            println!(
                "no input file given; wrote a demo dataset to {}",
                path.display()
            );
            path
        }
    };

    let store = match load_csv(&path, true) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    println!(
        "loaded {} points in {} dimensions from {}",
        store.len(),
        store.dim(),
        path.display()
    );

    if store.len() < 8 {
        eprintln!(
            "need at least 8 points to summarize; {} has {}",
            path.display(),
            store.len()
        );
        std::process::exit(1);
    }
    // One bubble per ~100 points, at least 20 (but never more than half
    // the database — tiny files would otherwise request more seeds than
    // points), at most 500.
    let num_bubbles = (store.len() / 100).clamp(20, 500).min(store.len() / 2);
    let mut search = SearchStats::new();
    let bubbles = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(num_bubbles),
        &mut rng,
        &mut search,
    );
    println!(
        "{} bubbles built; {:.1} % of distance computations pruned",
        bubbles.num_bubbles(),
        search.pruned_fraction() * 100.0
    );

    let min_cluster = (store.len() / 100).max(10);
    let outcome = pipeline::cluster_bubbles(&bubbles, 10, min_cluster);
    println!("\n{} clusters:", outcome.clusters.len());
    for (i, c) in outcome.clusters.iter().enumerate() {
        println!("  cluster {i}: {} points", c.len());
    }

    let labeled = store.iter().any(|(_, _, l)| l.is_some());
    if labeled {
        let f = fscore(&store, &outcome.clusters);
        println!("\nF-score vs. the file's label column: {:.4}", f.overall);
    }
}
