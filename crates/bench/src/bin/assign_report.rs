//! Records the assignment-engine comparison to `BENCH_assign.json`.
//!
//! Two workload families, each measured per [`SeedSearch`] engine:
//!
//! * **Static builds** at dim ∈ {2, 10}, N ∈ {10k, 100k}, s = 200 — the
//!   construction scan of Section 3, reported as median wall-clock plus
//!   the full computed/pruned/partial accounting (the paper's Figure 10
//!   currency).
//! * **A dynamic insert/delete flow** (complex scenario, five batches with
//!   maintenance after each) run twice per engine — warm-start hints on
//!   and off — to quantify what the hint threading buys on exactly the
//!   workloads it was built for. The summaries are bit-identical either
//!   way (see the differential suites); only the accounting moves.
//!
//! The top-level `warm_start_computed_reduction_pruned` field is the
//! headline number: the fraction of full distance computations the warm
//! started pruned engine avoids relative to the cold-started one on the
//! dynamic flow.
//!
//! Usage: `assign_report [output.json]` (default `BENCH_assign.json`).

use idb_bench::{complex_fixture, dynamic_flow, json_list, median_secs, write_report};
use idb_core::{IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_geometry::SearchStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const ENGINES: [(&str, SeedSearch); 3] = [
    ("brute", SeedSearch::Brute),
    ("pruned", SeedSearch::Pruned),
    ("kdtree", SeedSearch::KdTree),
];
const REPS: usize = 5;

/// One result row, also logged to stderr.
fn row(op: &str, case: &str, engine: &str, warm: bool, secs: f64, stats: &SearchStats) -> String {
    eprintln!(
        "{op} {case} {engine} warm={warm}: {secs:.4}s (computed {}, pruned {}, partial {})",
        stats.computed, stats.pruned, stats.partial
    );
    format!(
        "{{\"op\": \"{op}\", \"case\": \"{case}\", \"engine\": \"{engine}\", \"warm_start\": {warm}, \"median_secs\": {secs:.6}, \"computed\": {}, \"pruned\": {}, \"partial\": {}, \"pruned_fraction\": {:.4}, \"avoided_fraction\": {:.4}}}",
        stats.computed,
        stats.pruned,
        stats.partial,
        stats.pruned_fraction(),
        stats.avoided_fraction(),
    )
}

fn main() {
    let mut rows = Vec::new();

    // Static construction scans over the clustered scenario data the
    // paper's figures use (uniform random data is the pruning worst case
    // and is not what Figure 10 measures).
    for &(dim, size) in &[
        (2usize, 10_000usize),
        (2, 100_000),
        (10, 10_000),
        (10, 100_000),
    ] {
        let (_, store, _) = complex_fixture(dim, size, 11);
        let case = format!("complex_d{dim}_n{size}_s200");
        for (name, engine) in ENGINES {
            let (secs, (_, stats)) = median_secs(REPS, || {
                let mut rng = StdRng::seed_from_u64(1);
                let mut stats = SearchStats::new();
                let config = MaintainerConfig::new(200).with_seed_search(engine);
                let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
                (ib.total_points(), stats)
            });
            rows.push(row("build", &case, name, false, secs, &stats));
        }
    }

    // Dynamic insert/delete flows, warm vs. cold.
    let mut pruned_dynamic = [0u64; 2]; // [cold, warm] computed
    for (name, engine) in ENGINES {
        for warm in [false, true] {
            let (secs, (_, stats)) = median_secs(REPS, || dynamic_flow(engine, warm));
            if name == "pruned" {
                pruned_dynamic[usize::from(warm)] = stats.computed;
            }
            let case = "complex_d2_n20000_s200_5batches";
            rows.push(row("dynamic", case, name, warm, secs, &stats));
        }
    }
    let reduction = if pruned_dynamic[0] > 0 {
        1.0 - pruned_dynamic[1] as f64 / pruned_dynamic[0] as f64
    } else {
        0.0
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"assign\",");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(
        json,
        "  \"warm_start_computed_reduction_pruned\": {reduction:.4},"
    );
    json.push_str("  \"note\": \"medians, serial mode; every engine returns bit-identical assignments (see the differential suites), so the engines and the warm-start toggle differ only in wall-clock and in how the per-candidate accounting splits into computed/pruned/partial\",\n");
    let _ = writeln!(json, "  \"results\": {}\n}}", json_list(4, rows));
    write_report("BENCH_assign.json", &json);
}
