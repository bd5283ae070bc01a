//! Records the serial-vs-parallel wall-clock comparison to
//! `BENCH_parallel.json`.
//!
//! The measured operation is the construction-scan assignment at dim ∈ {2, 10}, N ∈ {10k, 100k}, under
//! `Serial`, `Threads(2)` and `Threads(4)`. Results are medians of `REPS`
//! runs; distance-computation counts are recorded alongside to document
//! that the modes do identical work. Bubble OPTICS is not measured: its
//! walk is serial.
//!
//! The `work_partition` section replays the threaded batch driver's
//! *exact* chunk boundaries (`⌈k / threads⌉` contiguous queries per
//! worker) with one instrumented serial search per chunk. Because the
//! parallel driver merges per-worker counters in chunk order, these rows
//! are precisely what each worker counts in a threaded run — per-worker
//! points and computed/pruned/partial distances — and their spread is the
//! partition-evenness proxy ROADMAP item 3 asks for (a meaningful
//! speedup measurement needs a multi-core host; the partition evenness
//! does not).
//!
//! Usage: `parallel_report [output.json]` (default `BENCH_parallel.json`).

use idb_bench::{json_list, median_secs, random_fixture, write_report};
use idb_core::{IncrementalBubbles, MaintainerConfig, Parallelism};
use idb_geometry::{NearestSeeds, SearchStats, SeedSearch};
use idb_store::PointStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const MODES: [(&str, Parallelism); 3] = [
    ("serial", Parallelism::Serial),
    ("threads2", Parallelism::Threads(2)),
    ("threads4", Parallelism::Threads(4)),
];
const REPS: usize = 5;

/// One worker's share of a chunked batch search: how many queries the
/// deterministic partition handed it and what its searches counted.
struct WorkerRow {
    worker: usize,
    points: usize,
    stats: SearchStats,
}

struct PartitionRow {
    case: String,
    threads: usize,
    workers: Vec<WorkerRow>,
    /// `min / max` of per-worker candidate totals
    /// (`computed + pruned + partial`) — 1.0 is a perfectly even split.
    candidate_evenness: f64,
    /// `min / max` of per-worker *full* distance computations: even when
    /// the query split is exact, pruning makes this data-dependent.
    computed_evenness: f64,
}

/// Replays the batch driver's deterministic partition (contiguous
/// `⌈k / threads⌉`-query chunks, exactly `run_ranges`'s split) with one
/// instrumented serial search per chunk, yielding the per-worker counters
/// a threaded run accumulates but cannot attribute. The merged replay is
/// asserted bit-identical — results *and* counters — to an actual
/// threaded run of the same workload, so the rows are exact, not a model.
fn partition_replay(store: &PointStore, dim: usize, threads: usize) -> PartitionRow {
    const SEEDS: usize = 200;
    let mut seeds = NearestSeeds::new(dim);
    let mut flat = Vec::with_capacity(store.len() * dim);
    for (i, (_, p, _)) in store.iter().enumerate() {
        if i < SEEDS {
            seeds.push(p);
        }
        flat.extend_from_slice(p);
    }
    let k = flat.len() / dim;
    let chunk_points = k.div_ceil(threads);
    let mut workers = Vec::new();
    let mut merged_stats = SearchStats::new();
    let mut merged_out: Vec<(u32, f64)> = Vec::new();
    let mut start = 0;
    while start < k {
        let end = (start + chunk_points).min(k);
        let mut local = SearchStats::new();
        let part = seeds.nearest_batch(
            &flat[start * dim..end * dim],
            None,
            SeedSearch::Pruned,
            None,
            Parallelism::Serial,
            &mut local,
        );
        merged_out.extend(part);
        merged_stats += local;
        workers.push(WorkerRow {
            worker: workers.len(),
            points: end - start,
            stats: local,
        });
        start = end;
    }
    let mut threaded_stats = SearchStats::new();
    let threaded_out = seeds.nearest_batch(
        &flat,
        None,
        SeedSearch::Pruned,
        None,
        Parallelism::Threads(threads),
        &mut threaded_stats,
    );
    assert_eq!(
        threaded_out, merged_out,
        "chunk replay must reproduce the threaded assignment bit for bit"
    );
    assert_eq!(
        threaded_stats, merged_stats,
        "per-worker counters must sum to the threaded run's counters"
    );
    let evenness = |f: fn(&WorkerRow) -> u64| {
        let max = workers.iter().map(f).max().unwrap_or(0);
        let min = workers.iter().map(f).min().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            min as f64 / max as f64
        }
    };
    PartitionRow {
        case: format!("d{dim}_n{k}_s{SEEDS}"),
        threads,
        candidate_evenness: evenness(|w| w.stats.total()),
        computed_evenness: evenness(|w| w.stats.computed),
        workers,
    }
}

fn main() {
    let mut rows = Vec::new();

    for &(dim, size) in &[
        (2usize, 10_000usize),
        (2, 100_000),
        (10, 10_000),
        (10, 100_000),
    ] {
        let (store, _) = random_fixture(dim, size, 11);
        let label = format!("d{dim}_n{size}_s200");
        for (mode, par) in MODES {
            let (median, (_, work)) = median_secs(REPS, || {
                let mut rng = StdRng::seed_from_u64(1);
                let mut stats = SearchStats::new();
                let ib = IncrementalBubbles::build(
                    &store,
                    MaintainerConfig::new(200).with_parallelism(par),
                    &mut rng,
                    &mut stats,
                );
                (ib.total_points(), stats.computed)
            });
            eprintln!("build {label} {mode}: {median:.4}s ({work} distances)");
            rows.push(format!(
                "{{\"op\": \"build\", \"case\": \"{label}\", \"mode\": \"{mode}\", \"median_secs\": {median:.6}, \"distance_computations\": {work}}}"
            ));
        }
    }

    let mut partitions: Vec<PartitionRow> = Vec::new();
    for &(dim, size) in &[(2usize, 100_000usize), (10, 100_000)] {
        let (store, _) = random_fixture(dim, size, 11);
        for threads in [2usize, 4] {
            let row = partition_replay(&store, dim, threads);
            eprintln!(
                "partition {} threads{}: candidate evenness {:.4}, computed evenness {:.4}",
                row.case, threads, row.candidate_evenness, row.computed_evenness
            );
            partitions.push(row);
        }
    }

    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"parallel\",");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"host_available_parallelism\": {host_threads},");
    json.push_str("  \"note\": \"medians; all modes compute bit-identical results and identical distance counts (see the differential suites); speedup requires host_available_parallelism > 1\",\n");
    let _ = writeln!(json, "  \"results\": {},", json_list(4, rows));
    json.push_str("  \"work_partition_note\": \"exact replay of the batch driver's contiguous chunk split; per-worker counters asserted to sum to the threaded run's counters; evenness = min/max across workers\",\n");
    let partitions = partitions.iter().map(|p| {
        let workers = p.workers.iter().map(|w| {
            format!(
                "{{\"worker\": {}, \"points\": {}, \"computed\": {}, \"pruned\": {}, \"partial\": {}}}",
                w.worker, w.points, w.stats.computed, w.stats.pruned, w.stats.partial
            )
        });
        format!(
            "{{\"case\": \"{}\", \"threads\": {}, \"candidate_evenness\": {:.6}, \"computed_evenness\": {:.6}, \"workers\": {}}}",
            p.case,
            p.threads,
            p.candidate_evenness,
            p.computed_evenness,
            json_list(6, workers)
        )
    });
    let _ = writeln!(
        json,
        "  \"work_partition\": {}\n}}",
        json_list(4, partitions)
    );
    write_report("BENCH_parallel.json", &json);
}
