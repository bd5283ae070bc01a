//! Records the assignment-engine comparison to `BENCH_assign.json`
//! without the criterion harness (so it runs in offline environments
//! where the criterion dependency is stubbed).
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

use idb_bench::{complex_fixture, median};
use idb_core::{IncrementalBubbles, MaintainerConfig, Parallelism, SeedSearch};
use idb_geometry::SearchStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const ENGINES: [(&str, SeedSearch); 3] = [
    ("brute", SeedSearch::Brute),
    ("pruned", SeedSearch::Pruned),
    ("kdtree", SeedSearch::KdTree),
];
const REPS: usize = 5;

/// Median wall-clock seconds of `REPS` runs of `f`, which returns the
/// run's distance accounting (identical across runs by construction).
fn median_secs<F: FnMut() -> SearchStats>(mut f: F) -> (f64, SearchStats) {
    let mut times = Vec::with_capacity(REPS);
    let mut stats = SearchStats::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        stats = f();
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(times), stats)
}

struct Row {
    op: &'static str,
    label: String,
    engine: &'static str,
    warm_start: bool,
    median_secs: f64,
    stats: SearchStats,
}

/// One dynamic flow: build (uncounted), then five batches with a
/// maintenance round after each; returns the per-batch accounting.
fn dynamic_flow(engine: SeedSearch, warm: bool) -> SearchStats {
    let (mut scenario, mut store, mut rng) = complex_fixture(2, 20_000, 17);
    let config = MaintainerConfig::new(200)
        .with_seed_search(engine)
        .with_warm_start(warm)
        .with_parallelism(Parallelism::Serial);
    let mut build_stats = SearchStats::new();
    let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut build_stats);
    let mut stats = SearchStats::new();
    for _ in 0..5 {
        let batch = scenario.plan(&mut rng);
        let ids = ib.apply_batch(&mut store, &batch, &mut stats);
        scenario.confirm(&ids);
        ib.maintain(&store, &mut rng, &mut stats);
    }
    black_box(ib.total_points());
    stats
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_assign.json".to_string());
    let mut rows: Vec<Row> = Vec::new();

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
        let label = format!("complex_d{dim}_n{size}_s200");
        for (name, engine) in ENGINES {
            let (median, stats) = median_secs(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut stats = SearchStats::new();
                let config = MaintainerConfig::new(200)
                    .with_seed_search(engine)
                    .with_parallelism(Parallelism::Serial);
                let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
                black_box(ib.total_points());
                stats
            });
            eprintln!(
                "build {label} {name}: {median:.4}s (computed {}, pruned {}, partial {})",
                stats.computed, stats.pruned, stats.partial
            );
            rows.push(Row {
                op: "build",
                label: label.clone(),
                engine: name,
                warm_start: false,
                median_secs: median,
                stats,
            });
        }
    }

    // Dynamic insert/delete flows, warm vs. cold.
    let mut pruned_dynamic = [0u64; 2]; // [cold, warm] computed
    for (name, engine) in ENGINES {
        for warm in [false, true] {
            let (median, stats) = median_secs(|| dynamic_flow(engine, warm));
            eprintln!(
                "dynamic complex_d2_n20000 {name} warm={warm}: {median:.4}s (computed {}, pruned {}, partial {})",
                stats.computed, stats.pruned, stats.partial
            );
            if name == "pruned" {
                pruned_dynamic[usize::from(warm)] = stats.computed;
            }
            rows.push(Row {
                op: "dynamic",
                label: "complex_d2_n20000_s200_5batches".to_string(),
                engine: name,
                warm_start: warm,
                median_secs: median,
                stats,
            });
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
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"op\": \"{}\", \"case\": \"{}\", \"engine\": \"{}\", \"warm_start\": {}, \"median_secs\": {:.6}, \"computed\": {}, \"pruned\": {}, \"partial\": {}, \"pruned_fraction\": {:.4}, \"avoided_fraction\": {:.4}}}{}",
            r.op,
            r.label,
            r.engine,
            r.warm_start,
            r.median_secs,
            r.stats.computed,
            r.stats.pruned,
            r.stats.partial,
            r.stats.pruned_fraction(),
            r.stats.avoided_fraction(),
            comma
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
