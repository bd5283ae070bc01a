//! Records the canonical-kernel comparison to `BENCH_kernel.json`
//! (DESIGN.md §15).
//!
//! Three measurement families:
//!
//! * **Kernel microbenchmarks** at d ∈ {2, 10, 64, 256, 768}: the
//!   historical sequential kernels (`metric::scalar`, still in-tree
//!   precisely so this stays an honest same-binary comparison) against
//!   the canonical 4-lane kernels, for both the full `sq_dist` and the
//!   early-exit nearest-neighbor scan pattern the assignment engines run.
//!   Both sides run in interleaved rounds and each keeps its fastest.
//! * **End-to-end flows**: the d10/100k construction scan per engine and
//!   the d2/20k dynamic insert/delete flow, compared against the
//!   pre-kernel-pass medians `assign_report` recorded immediately before
//!   the switch (constants from the host that first ran this report, so
//!   the speedup column holds only on that host).
//! * **Neighbor-table accounting**: the `from_seeds` build at s = 512
//!   (against the same table built by `s` pushes), a seed-churn
//!   microbenchmark, a re-seed loop that reads rows as sparsely as
//!   maintenance does, and the dynamic flow's own repair ledger — row
//!   entries written per structural seed change, next to the `s²` a
//!   per-mutation re-sort of every row would write (`naive`).
//!
//! Usage: `kernel_report [output.json]` (default `BENCH_kernel.json`).

use idb_bench::{complex_fixture, dynamic_flow, json_list, median_secs, write_report};
use idb_core::{IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_geometry::metric::{scalar, sq_dist, sq_dist_bounded};
use idb_geometry::{NearestSeeds, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
/// Interleaved rounds per kernel comparison (see [`kernel_rows`]).
const KERNEL_REPS: usize = 61;
const KERNEL_DIMS: [usize; 5] = [2, 10, 64, 256, 768];
/// Lanes (f64 subtract-square-accumulate steps) per timed kernel pass.
/// Passes of a few milliseconds, many rounds of them: on a shared host a
/// short pass is more likely to fit inside a quiet spell, and the
/// fastest round per side is what the report keeps.
const LANE_BUDGET: usize = 4_000_000;
/// Lanes resident per buffer (≈256 KiB). A seed set is a few hundred
/// seeds and lives in cache, so the microbench holds the working set
/// cache-resident too — otherwise high-d cases measure DRAM bandwidth,
/// which bounds every kernel equally and says nothing about the engines'
/// actual regime.
const WORKSET_LANES: usize = 32_768;

/// Wall-clock seconds of one run of `f` (its `f64` checksum is
/// black-boxed so the measured loops cannot be elided).
fn time<F: FnMut() -> f64>(mut f: F) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// A scalar baseline timed against a canonical kernel in interleaved
/// rounds: each side's seconds, one entry per round.
#[derive(Default)]
struct Paired {
    base: Vec<f64>,
    cand: Vec<f64>,
}

impl Paired {
    /// Times `base` and `cand` back to back, alternating which goes first
    /// from round to round.
    fn round<B: FnMut() -> f64, C: FnMut() -> f64>(&mut self, base: B, cand: C) {
        if self.base.len() % 2 == 0 {
            self.base.push(time(base));
            self.cand.push(time(cand));
        } else {
            self.cand.push(time(cand));
            self.base.push(time(base));
        }
    }

    /// Speedup of the fastest rounds: noise on a shared host only ever
    /// adds time, so each side's minimum is its least disturbed run.
    fn speedup(&self) -> f64 {
        fastest(&self.base) / fastest(&self.cand)
    }

    /// The JSON fields of this comparison, with the spread of the
    /// per-round speedups.
    fn json(&self, name: &str) -> String {
        let ratios = self.base.iter().zip(&self.cand).map(|(b, c)| b / c);
        format!(
            "\"{name}_scalar_secs\": {:.6}, \"{name}_unrolled_secs\": {:.6}, \"{name}_speedup\": {:.2}, \"{name}_speedup_rep_min\": {:.2}, \"{name}_speedup_rep_max\": {:.2}",
            fastest(&self.base),
            fastest(&self.cand),
            self.speedup(),
            ratios.clone().fold(f64::INFINITY, f64::min),
            ratios.fold(0.0, f64::max)
        )
    }
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

struct KernelRow {
    d: usize,
    iters: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    full: Paired,
    scan: Paired,
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

/// Kernel comparisons at every `KERNEL_DIMS` entry. Each of the
/// `KERNEL_REPS` rounds visits every dimension, so one dimension's rounds
/// are spread over the whole measurement rather than packed into a window
/// that a single busy spell on a shared host can cover.
fn kernel_rows(rng: &mut StdRng) -> Vec<KernelRow> {
    let mut rows: Vec<KernelRow> = KERNEL_DIMS
        .iter()
        .map(|&d| {
            let n = (WORKSET_LANES / d).clamp(4, 4_096);
            let mut buf = || (0..n * d).map(|_| rng.gen_range(-100.0..100.0)).collect();
            KernelRow {
                d,
                iters: (LANE_BUDGET / (n * d)).max(1),
                a: buf(),
                b: buf(),
                full: Paired::default(),
                scan: Paired::default(),
            }
        })
        .collect();
    for _ in 0..KERNEL_REPS {
        for row in &mut rows {
            let (d, iters, a, b) = (row.d, row.iters, &row.a, &row.b);
            row.full.round(
                || full_pass(a, b, d, iters, scalar::sq_dist),
                || full_pass(a, b, d, iters, sq_dist),
            );
            row.scan.round(
                || scan_pass(a, b, d, iters, scalar::sq_dist_bounded),
                || scan_pass(a, b, d, iters, sq_dist_bounded),
            );
        }
    }
    for r in &rows {
        eprintln!(
            "kernel d={}: {}, {}",
            r.d,
            r.full.json("sq_dist"),
            r.scan.json("nn_scan")
        );
    }
    rows
}

/// Pre-kernel-pass medians from `assign_report`, recorded on this host at
/// the commit immediately before the canonical-kernel switch (PR 8).
const PRE_BUILD_D10_N100K: [(&str, SeedSearch, f64); 3] = [
    ("brute", SeedSearch::Brute, 0.202_469),
    ("pruned", SeedSearch::Pruned, 0.196_494),
    ("kdtree", SeedSearch::KdTree, 0.212_089),
];
const PRE_DYNAMIC_WARM: [(&str, SeedSearch, f64); 2] = [
    ("pruned", SeedSearch::Pruned, 0.028_776),
    ("kdtree", SeedSearch::KdTree, 0.015_742),
];

struct EndToEndRow {
    case: &'static str,
    engine: &'static str,
    median_secs: f64,
    pre_kernel_secs: f64,
}

fn end_to_end_rows() -> (Vec<EndToEndRow>, IncrementalBubbles) {
    let mut rows = Vec::new();
    let (_, store, _) = complex_fixture(10, 100_000, 11);
    for (name, engine, pre) in PRE_BUILD_D10_N100K {
        let (median, _) = median_secs(REPS, || {
            let mut rng = StdRng::seed_from_u64(1);
            let mut stats = SearchStats::new();
            let config = MaintainerConfig::new(200).with_seed_search(engine);
            let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
            ib.total_points()
        });
        eprintln!("build complex_d10_n100000 {name}: {median:.4}s (pre-kernel {pre:.4}s)");
        rows.push(EndToEndRow {
            case: "build_complex_d10_n100000_s200",
            engine: name,
            median_secs: median,
            pre_kernel_secs: pre,
        });
    }
    let mut last = None;
    for (name, engine, pre) in PRE_DYNAMIC_WARM {
        // The d2/20k dynamic flow of `assign_report`, warm-started; the
        // last maintainer is kept for its repair ledger.
        let (median, (ib, _)) = median_secs(REPS, || dynamic_flow(2, engine, true));
        last = Some(ib);
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

struct TableReport {
    seeds: usize,
    build_secs: f64,
    push_build_secs: f64,
    ops: u64,
    entries: u64,
    naive_entries: u64,
    churn_secs: f64,
    reseeds: u64,
    reseed_entries: u64,
    reseed_secs: f64,
}

/// Rows read between two re-seeds in the re-seed loop: about what the
/// `many_bubbles` workload reads.
const READS_PER_RESEED: usize = 11;

/// The neighbor table at s = 512: the median `from_seeds` build, the same
/// table built by `s` pushes, then replace and swap-remove+push cycles —
/// the structural mutations maintenance performs — with the repair ledger
/// counting the row entries each one (and each settle of a re-seed into
/// the rows) writes; then re-seeds alone, each followed by in-place reads
/// of [`READS_PER_RESEED`] random rows. After each loop every row, read,
/// must equal a fresh `from_seeds` over the final coordinates.
fn table_report(rng: &mut StdRng) -> TableReport {
    const S: usize = 512;
    const D: usize = 10;
    const CYCLES: usize = 256;
    let point = |rng: &mut StdRng| -> Vec<f64> {
        (0..D).map(|_| rng.gen_range(-100.0f64..100.0)).collect()
    };
    let flat: Vec<f64> = (0..S).flat_map(|_| point(rng)).collect();
    let (build_secs, _) = median_secs(REPS, || {
        NearestSeeds::from_seeds(D, flat.chunks_exact(D)).len()
    });
    let t0 = Instant::now();
    let mut pushed = NearestSeeds::new(D);
    for p in flat.chunks_exact(D) {
        pushed.push(p);
    }
    let push_build_secs = t0.elapsed().as_secs_f64();
    let mut seeds = NearestSeeds::from_seeds(D, flat.chunks_exact(D));
    assert!(
        (0..S).all(|i| seeds.neighbor_order(i) == pushed.neighbor_order(i)
            && seeds.neighbor_distances(i) == pushed.neighbor_distances(i)),
        "from_seeds and pushes must build the same table"
    );
    let t0 = Instant::now();
    for i in 0..CYCLES {
        seeds.replace(i % seeds.len(), &point(rng));
        seeds.swap_remove(i % seeds.len());
        seeds.push(&point(rng));
    }
    let churn_secs = t0.elapsed().as_secs_f64();
    let r = seeds.repair_stats();
    let assert_fresh = |seeds: &mut NearestSeeds, after: &str| {
        let mut fresh = NearestSeeds::from_seeds(D, (0..seeds.len()).map(|i| seeds.seed(i)));
        assert!(
            (0..seeds.len()).all(|i| seeds.neighbor_order(i) == fresh.neighbor_order(i)
                && seeds.neighbor_distances(i) == fresh.neighbor_distances(i)),
            "after the {after} every row must equal from_seeds over the final coordinates"
        );
    };
    assert_fresh(&mut seeds, "churn");
    let t0 = Instant::now();
    for _ in 0..3 * CYCLES {
        seeds.replace(rng.gen_range(0..S), &point(rng));
        for _ in 0..READS_PER_RESEED {
            seeds.settle_row(rng.gen_range(0..S));
        }
    }
    let reseed_secs = t0.elapsed().as_secs_f64();
    let reseed = seeds.repair_stats().delta_since(&r);
    assert_fresh(&mut seeds, "re-seeds");
    eprintln!(
        "seed table s={S}: build {build_secs:.4}s ({push_build_secs:.4}s by pushes); {} ops in {churn_secs:.4}s, {:.0} entries/op vs {:.0} naive/op; {} re-seeds in {reseed_secs:.4}s, {:.0} entries/op",
        r.ops,
        r.entries as f64 / r.ops as f64,
        r.naive_entries as f64 / r.ops as f64,
        reseed.ops,
        reseed.entries as f64 / reseed.ops as f64,
    );
    TableReport {
        seeds: S,
        build_secs,
        push_build_secs,
        ops: r.ops,
        entries: r.entries,
        naive_entries: r.naive_entries,
        churn_secs,
        reseeds: reseed.ops,
        reseed_entries: reseed.entries,
        reseed_secs,
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(88);

    let kernels = kernel_rows(&mut rng);
    let (end_to_end, dynamic_ib) = end_to_end_rows();
    let table = table_report(&mut rng);
    let dyn_repair = dynamic_ib.seed_repair_stats();

    let min_speedup_high_d = kernels
        .iter()
        .filter(|r| r.d >= 64)
        .map(|r| r.full.speedup())
        .fold(f64::INFINITY, f64::min);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernel\",");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"kernel_reps\": {KERNEL_REPS},");
    let _ = writeln!(
        json,
        "  \"min_kernel_speedup_d64_plus\": {min_speedup_high_d:.2},"
    );
    json.push_str("  \"note\": \"scalar columns run the historical sequential kernels kept in metric::scalar (same binary, same flags); kernel secs are the fastest of kernel_reps interleaved rounds per side, speedup is their ratio and speedup_rep_min/max the spread of the per-round ratios; end_to_end median_secs are medians of reps runs; pre_kernel_secs are constants: assign_report medians recorded at the commit before the canonical-kernel switch on the host that first ran this report, so they compare only with runs on that host; naive columns are the entries a re-sort of every neighbor row per seed mutation would write; seed_table's churn cycles replace, swap_remove and push, and each removal settles every row first, while its reseed loop replaces alone and settles reads_per_reseed random rows in place after each re-seed\",\n");
    let kernel_rows = kernels.iter().map(|r| {
        format!(
            "{{\"d\": {}, \"evals\": {}, {}, {}}}",
            r.d,
            r.a.len() / r.d * r.iters,
            r.full.json("sq_dist"),
            r.scan.json("nn_scan"),
        )
    });
    let _ = writeln!(json, "  \"kernels\": {},", json_list(4, kernel_rows));
    let end_to_end = end_to_end.iter().map(|r| {
        format!(
            "{{\"case\": \"{}\", \"engine\": \"{}\", \"median_secs\": {:.6}, \"pre_kernel_secs\": {:.6}, \"speedup\": {:.2}}}",
            r.case,
            r.engine,
            r.median_secs,
            r.pre_kernel_secs,
            r.pre_kernel_secs / r.median_secs,
        )
    });
    let _ = writeln!(json, "  \"end_to_end\": {},", json_list(4, end_to_end));
    let _ = writeln!(
        json,
        "  \"seed_table\": {{\"seeds\": {}, \"build_secs\": {:.6}, \"push_build_secs\": {:.6}, \"ops\": {}, \"churn_secs\": {:.6}, \"entries\": {}, \"naive_entries\": {}, \"entries_per_op\": {:.1}, \"naive_entries_per_op\": {:.1}, \"reseeds\": {}, \"reads_per_reseed\": {READS_PER_RESEED}, \"reseed_secs\": {:.6}, \"reseed_entries_per_op\": {:.1}}},",
        table.seeds,
        table.build_secs,
        table.push_build_secs,
        table.ops,
        table.churn_secs,
        table.entries,
        table.naive_entries,
        table.entries as f64 / table.ops as f64,
        table.naive_entries as f64 / table.ops as f64,
        table.reseeds,
        table.reseed_secs,
        table.reseed_entries as f64 / table.reseeds as f64,
    );
    let _ = writeln!(
        json,
        "  \"dynamic_flow_repair\": {{\"ops\": {}, \"entries\": {}, \"naive_entries\": {}, \"rows_saved_factor\": {:.1}}}",
        dyn_repair.ops,
        dyn_repair.entries,
        dyn_repair.naive_entries,
        dyn_repair.naive_entries as f64 / dyn_repair.entries.max(1) as f64
    );
    json.push_str("}\n");
    write_report("BENCH_kernel.json", &json);
    eprintln!("min d>=64 kernel speedup {min_speedup_high_d:.2}x");
    // The regression floor ci.sh enforces: the canonical kernels must beat
    // the retained metric::scalar baseline by >= 1.5x at d >= 64. Thirty
    // consecutive runs on a shared 2-vCPU x86-64 host read 1.65-1.99x at
    // d = 64 (always the minimum); ten of them read 2.34-2.43x at d = 256
    // and 2.50-2.72x at d = 768. Single rounds ranged from 0.4x to 4.9x,
    // which is why the floor applies to the fastest rounds and not to any
    // one of them.
    assert!(
        min_speedup_high_d >= 1.5,
        "kernel regression: min d>=64 speedup {min_speedup_high_d:.2}x is below the 1.5x floor"
    );
}
