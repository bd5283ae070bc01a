//! Records the canonical-kernel comparison to `BENCH_kernel.json`
//! (DESIGN.md §15) without the criterion harness.
//!
//! Three measurement families:
//!
//! * **Kernel microbenchmarks** at d ∈ {2, 10, 64, 256, 768}: the
//!   historical sequential kernels (`metric::scalar`, still in-tree
//!   precisely so this stays an honest same-binary comparison) against
//!   the canonical 4-lane kernels, for both the full `sq_dist` and the
//!   early-exit nearest-neighbor scan pattern the assignment engines run.
//! * **End-to-end flows**: the d10/100k construction scan per engine and
//!   the d2/20k dynamic insert/delete flow, compared against the
//!   pre-kernel-pass medians recorded by `assign_report` on this same
//!   host immediately before the switch.
//! * **Incremental-matrix accounting**: a seed-churn microbenchmark and
//!   the dynamic flow's own counters, proving structural seed changes
//!   touch O(s) matrix/order entries instead of the former O(s²) rebuild
//!   (`naive` columns are what the pre-PR-8 strategy would have written).
//!
//! Usage: `kernel_report [output.json]` (default `BENCH_kernel.json`).

use idb_bench::{complex_fixture, median};
use idb_core::{IncrementalBubbles, MaintainerConfig, Parallelism, SeedSearch};
use idb_geometry::metric::{scalar, sq_dist, sq_dist_bounded};
use idb_geometry::{NearestSeeds, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const KERNEL_DIMS: [usize; 5] = [2, 10, 64, 256, 768];
/// Lanes (f64 subtract-square-accumulate steps) per timed kernel pass.
const LANE_BUDGET: usize = 16_000_000;
/// Lanes resident per buffer (≈256 KiB). A seed set is a few hundred
/// seeds and lives in cache, so the microbench holds the working set
/// cache-resident too — otherwise high-d cases measure DRAM bandwidth,
/// which bounds every kernel equally and says nothing about the engines'
/// actual regime.
const WORKSET_LANES: usize = 32_768;

/// Median wall-clock seconds of `REPS` runs of `f` (its `f64` checksum is
/// black-boxed so the measured loops cannot be elided).
fn median_secs<F: FnMut() -> f64>(mut f: F) -> f64 {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    median(times)
}

struct KernelRow {
    d: usize,
    evals: usize,
    scalar_secs: f64,
    unrolled_secs: f64,
    speedup: f64,
    scan_scalar_secs: f64,
    scan_unrolled_secs: f64,
    scan_speedup: f64,
}

/// Full-kernel pass: every pair (a_i, b_i), `iters` sweeps. Generic over
/// the kernel so each instantiation inlines it — exactly how the engines
/// compile it — instead of paying an opaque indirect call per evaluation.
fn full_pass<K: Fn(&[f64], &[f64]) -> f64>(
    a: &[f64],
    b: &[f64],
    d: usize,
    iters: usize,
    kernel: K,
) -> f64 {
    let n = a.len() / d;
    let mut acc = 0.0;
    for _ in 0..iters {
        for i in 0..n {
            acc += kernel(&a[i * d..(i + 1) * d], &b[i * d..(i + 1) * d]);
        }
    }
    acc
}

/// Early-exit nearest-neighbor scan: each sweep keeps a running best and
/// hands it to the bounded kernel as the abandon bound — exactly the
/// innermost loop of the assignment engines.
fn scan_pass<K: Fn(&[f64], &[f64], f64) -> Option<f64>>(
    a: &[f64],
    b: &[f64],
    d: usize,
    iters: usize,
    kernel: K,
) -> f64 {
    let n = a.len() / d;
    let mut acc = 0.0;
    for s in 0..iters {
        let q = &a[(s % n) * d..(s % n + 1) * d];
        let mut best = f64::INFINITY;
        for i in 0..n {
            if let Some(sq) = kernel(q, &b[i * d..(i + 1) * d], best) {
                if sq < best {
                    best = sq;
                }
            }
        }
        acc += best;
    }
    acc
}

fn kernel_rows(rng: &mut StdRng) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for d in KERNEL_DIMS {
        let n = (WORKSET_LANES / d).clamp(4, 4_096);
        let iters = (LANE_BUDGET / (n * d)).max(1);
        let evals = n * iters;
        let a: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let b: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-100.0..100.0)).collect();

        let scalar_secs = median_secs(|| full_pass(&a, &b, d, iters, scalar::sq_dist));
        let unrolled_secs = median_secs(|| full_pass(&a, &b, d, iters, sq_dist));
        let scan_scalar_secs = median_secs(|| scan_pass(&a, &b, d, iters, scalar::sq_dist_bounded));
        let scan_unrolled_secs = median_secs(|| scan_pass(&a, &b, d, iters, sq_dist_bounded));
        let speedup = scalar_secs / unrolled_secs;
        let scan_speedup = scan_scalar_secs / scan_unrolled_secs;
        eprintln!(
            "kernel d={d}: sq_dist {scalar_secs:.4}s -> {unrolled_secs:.4}s ({speedup:.2}x), \
             nn-scan {scan_scalar_secs:.4}s -> {scan_unrolled_secs:.4}s ({scan_speedup:.2}x)"
        );
        rows.push(KernelRow {
            d,
            evals,
            scalar_secs,
            unrolled_secs,
            speedup,
            scan_scalar_secs,
            scan_unrolled_secs,
            scan_speedup,
        });
    }
    rows
}

/// Pre-kernel-pass medians from `assign_report`, recorded on this host at
/// the commit immediately before the canonical-kernel switch (PR 8).
const PRE_BUILD_D10_N100K: [(&str, f64); 3] = [
    ("brute", 0.202_469),
    ("pruned", 0.196_494),
    ("kdtree", 0.212_089),
];
const PRE_DYNAMIC_WARM: [(&str, f64); 2] = [("pruned", 0.028_776), ("kdtree", 0.015_742)];

struct EndToEndRow {
    case: &'static str,
    engine: &'static str,
    median_secs: f64,
    pre_kernel_secs: f64,
}

/// The d2/20k dynamic flow of `assign_report` (five batches, maintenance
/// after each, warm-started); returns the maintainer for counter reads.
fn dynamic_flow(engine: SeedSearch) -> IncrementalBubbles {
    let (mut scenario, mut store, mut rng) = complex_fixture(2, 20_000, 17);
    let config = MaintainerConfig::new(200)
        .with_seed_search(engine)
        .with_warm_start(true)
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
    ib
}

fn end_to_end_rows() -> (Vec<EndToEndRow>, IncrementalBubbles) {
    let mut rows = Vec::new();
    let (_, store, _) = complex_fixture(10, 100_000, 11);
    for (name, engine) in [
        ("brute", SeedSearch::Brute),
        ("pruned", SeedSearch::Pruned),
        ("kdtree", SeedSearch::KdTree),
    ] {
        let median = median_secs(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut stats = SearchStats::new();
            let config = MaintainerConfig::new(200)
                .with_seed_search(engine)
                .with_parallelism(Parallelism::Serial);
            let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
            ib.total_points() as f64
        });
        let pre = PRE_BUILD_D10_N100K
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known engine")
            .1;
        eprintln!("build complex_d10_n100000 {name}: {median:.4}s (pre-kernel {pre:.4}s)");
        rows.push(EndToEndRow {
            case: "build_complex_d10_n100000_s200",
            engine: name,
            median_secs: median,
            pre_kernel_secs: pre,
        });
    }
    let mut last = None;
    for (name, engine) in [
        ("pruned", SeedSearch::Pruned),
        ("kdtree", SeedSearch::KdTree),
    ] {
        let median = median_secs(|| {
            let ib = dynamic_flow(engine);
            let total = ib.total_points() as f64;
            last = Some(ib);
            total
        });
        let pre = PRE_DYNAMIC_WARM
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known engine")
            .1;
        eprintln!("dynamic complex_d2_n20000 {name} warm: {median:.4}s (pre-kernel {pre:.4}s)");
        rows.push(EndToEndRow {
            case: "dynamic_complex_d2_n20000_s200_5batches_warm",
            engine: name,
            median_secs: median,
            pre_kernel_secs: pre,
        });
    }
    (rows, last.expect("dynamic flow ran"))
}

struct MatrixReport {
    ops: u64,
    seeds: usize,
    entries_written: u64,
    naive_entries: u64,
    entries_per_op: f64,
    naive_per_op: f64,
    order_entries: u64,
    order_naive_entries: u64,
    relayouts: u64,
    churn_secs: f64,
}

/// Seed-churn microbenchmark: s pushes, then replace and swap-remove+push
/// cycles — the structural mutations maintenance performs — with the
/// matrix/order ledgers proving each touches O(s), not O(s²), entries.
fn matrix_report(rng: &mut StdRng) -> MatrixReport {
    const S: usize = 512;
    const D: usize = 10;
    const CYCLES: usize = 256;
    let point = |rng: &mut StdRng| -> Vec<f64> {
        (0..D).map(|_| rng.gen_range(-100.0f64..100.0)).collect()
    };
    let t0 = Instant::now();
    let mut seeds = NearestSeeds::new(D);
    for _ in 0..S {
        seeds.push(&point(rng));
    }
    for i in 0..CYCLES {
        seeds.replace(i % seeds.len(), &point(rng));
        seeds.swap_remove(i % seeds.len());
        seeds.push(&point(rng));
    }
    let churn_secs = t0.elapsed().as_secs_f64();
    let m = seeds.matrix_stats();
    let r = seeds.repair_stats();
    let total = (m.entries_written + r.order_entries) as f64;
    let naive = (m.naive_entries + r.order_naive_entries) as f64;
    eprintln!(
        "matrix churn s={S}: {} ops in {churn_secs:.4}s, {:.0} entries/op vs {:.0} naive/op",
        r.ops,
        total / r.ops as f64,
        naive / r.ops as f64
    );
    MatrixReport {
        ops: r.ops,
        seeds: S,
        entries_written: m.entries_written,
        naive_entries: m.naive_entries,
        entries_per_op: total / r.ops as f64,
        naive_per_op: naive / r.ops as f64,
        order_entries: r.order_entries,
        order_naive_entries: r.order_naive_entries,
        relayouts: m.relayouts,
        churn_secs,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());
    let mut rng = StdRng::seed_from_u64(88);

    let kernels = kernel_rows(&mut rng);
    let (end_to_end, dynamic_ib) = end_to_end_rows();
    let matrix = matrix_report(&mut rng);
    let (dyn_matrix, dyn_repair) = dynamic_ib.seed_repair_stats();

    let min_speedup_high_d = kernels
        .iter()
        .filter(|r| r.d >= 64)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernel\",");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(
        json,
        "  \"min_kernel_speedup_d64_plus\": {min_speedup_high_d:.2},"
    );
    json.push_str("  \"note\": \"scalar columns run the historical sequential kernels kept in metric::scalar (same binary, same flags); pre_kernel_secs are assign_report medians recorded on this host at the commit before the canonical-kernel switch; naive columns are what the pre-PR-8 full-rebuild strategy would have written\",\n");
    json.push_str("  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"d\": {}, \"evals\": {}, \"sq_dist_scalar_secs\": {:.6}, \"sq_dist_unrolled_secs\": {:.6}, \"sq_dist_speedup\": {:.2}, \"nn_scan_scalar_secs\": {:.6}, \"nn_scan_unrolled_secs\": {:.6}, \"nn_scan_speedup\": {:.2}}}{}",
            r.d,
            r.evals,
            r.scalar_secs,
            r.unrolled_secs,
            r.speedup,
            r.scan_scalar_secs,
            r.scan_unrolled_secs,
            r.scan_speedup,
            comma
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"end_to_end\": [\n");
    for (i, r) in end_to_end.iter().enumerate() {
        let comma = if i + 1 == end_to_end.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"engine\": \"{}\", \"median_secs\": {:.6}, \"pre_kernel_secs\": {:.6}, \"speedup\": {:.2}}}{}",
            r.case,
            r.engine,
            r.median_secs,
            r.pre_kernel_secs,
            r.pre_kernel_secs / r.median_secs,
            comma
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"matrix_churn\": {{\"seeds\": {}, \"ops\": {}, \"secs\": {:.6}, \"matrix_entries_written\": {}, \"matrix_naive_entries\": {}, \"order_entries\": {}, \"order_naive_entries\": {}, \"relayouts\": {}, \"entries_per_op\": {:.1}, \"naive_entries_per_op\": {:.1}}},",
        matrix.seeds,
        matrix.ops,
        matrix.churn_secs,
        matrix.entries_written,
        matrix.naive_entries,
        matrix.order_entries,
        matrix.order_naive_entries,
        matrix.relayouts,
        matrix.entries_per_op,
        matrix.naive_per_op
    );
    let _ = writeln!(
        json,
        "  \"dynamic_flow_repair\": {{\"ops\": {}, \"matrix_entries_written\": {}, \"matrix_naive_entries\": {}, \"order_entries\": {}, \"order_naive_entries\": {}, \"rows_saved_factor\": {:.1}}}",
        dyn_repair.ops,
        dyn_matrix.entries_written,
        dyn_matrix.naive_entries,
        dyn_repair.order_entries,
        dyn_repair.order_naive_entries,
        (dyn_matrix.naive_entries + dyn_repair.order_naive_entries) as f64
            / (dyn_matrix.entries_written + dyn_repair.order_entries).max(1) as f64
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path} (min d>=64 kernel speedup {min_speedup_high_d:.2}x)");
    // The regression floor ci.sh enforces: the canonical kernels must beat
    // the retained metric::scalar baseline by >= 1.5x at d >= 64. Measured
    // headroom is 1.8-2.8x, so a trip means a real codegen or kernel
    // regression, not timer noise.
    assert!(
        min_speedup_high_d >= 1.5,
        "kernel regression: min d>=64 speedup {min_speedup_high_d:.2}x is below the 1.5x floor"
    );
}
