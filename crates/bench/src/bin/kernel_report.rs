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
//! * **Neighbor-table accounting**: the `from_seeds` build at s = 512,
//!   two timed re-seed loops that read rows as sparsely as maintenance
//!   does (one re-seed then 11 reads at d = 10; the `many_bubbles`
//!   workload's three re-seeds then 29 reads at d = 2), and the dynamic
//!   flow's own repair ledger — row entries written per re-seed, next to
//!   the `s²` a per-mutation re-sort of every row would write (`naive`).
//!
//! Usage: `kernel_report [output.json] [baseline.json]` (default
//! `BENCH_kernel.json`). A baseline is this report built at an earlier
//! commit and run on the same host: each seed-table flow then records the
//! baseline's `baseline_median_secs`, and the report asserts that every
//! flow's entries per re-seed equal the baseline's.

use idb_bench::{
    complex_fixture, dynamic_flow, json_list, median_secs, median_secs_with, row_number,
    write_report,
};
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

/// One timed re-seed-and-read shape of the neighbor table at s = 512.
struct TableFlow {
    name: &'static str,
    dim: usize,
    reseeds_per_round: usize,
    reads_per_round: usize,
    rounds: usize,
}

/// The two shapes the table is timed in: one re-seed then 11 row reads at
/// d = 10, and the `many_bubbles` workload's rounds — three re-seeds,
/// then 29 row reads, at d = 2.
const TABLE_FLOWS: [TableFlow; 2] = [
    TableFlow {
        name: "d10_reseed1_read11",
        dim: 10,
        reseeds_per_round: 1,
        reads_per_round: 11,
        rounds: 768,
    },
    TableFlow {
        name: "d2_reseed3_read29",
        dim: 2,
        reseeds_per_round: 3,
        reads_per_round: 29,
        rounds: 256,
    },
];
const TABLE_SEEDS: usize = 512;

/// The seed-table rows of a baseline report, if one was given: each
/// flow's name, median seconds and entries per re-seed.
struct Baseline(Vec<(String, f64, f64)>);

impl Baseline {
    fn read(path: &str) -> Self {
        let text = std::fs::read_to_string(path).expect("read baseline report");
        let rows = text
            .lines()
            .filter_map(|line| {
                let start = line.find("{\"flow\": \"")? + 10;
                let name = &line[start..start + line[start..].find('"')?];
                let secs = row_number(line, "median_secs")?;
                Some((name.to_string(), secs, row_number(line, "entries_per_op")?))
            })
            .collect();
        Self(rows)
    }

    /// The baseline's median seconds for flow `name`, after checking that
    /// it wrote the same entries per re-seed.
    fn secs(&self, name: &str, entries_per_op: f64) -> f64 {
        let (_, secs, base) = self
            .0
            .iter()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("the baseline report has no seed-table flow {name}"));
        assert_eq!(
            format!("{entries_per_op:.1}"),
            format!("{base:.1}"),
            "{name}: the entries per re-seed differ from the baseline's"
        );
        *secs
    }
}

/// The neighbor table at s = 512: the median `from_seeds` build at d = 10
/// and, per [`TABLE_FLOWS`] shape, the median time of its rounds of
/// re-seeds — the one structural mutation maintenance performs — each
/// round followed by in-place reads of random rows, with the repair
/// ledger counting the row entries each re-seed (and each settle of a
/// re-seed into the rows) writes. Every run replays the same re-seeds and
/// reads, and after the last one every row, read, must equal a fresh
/// `from_seeds` over the final coordinates. Returns the build seconds and
/// one JSON row per shape.
fn table_report(rng: &mut StdRng, baseline: Option<&Baseline>) -> (f64, Vec<String>) {
    let point = |rng: &mut StdRng, d: usize| -> Vec<f64> {
        (0..d).map(|_| rng.gen_range(-100.0f64..100.0)).collect()
    };
    let flat: Vec<f64> = (0..TABLE_SEEDS).flat_map(|_| point(rng, 10)).collect();
    let (build_secs, _) = median_secs(REPS, || {
        NearestSeeds::from_seeds(10, flat.chunks_exact(10)).len()
    });
    let mut rows = Vec::new();
    for flow in &TABLE_FLOWS {
        let d = flow.dim;
        let seed = rng.gen();
        let flat: Vec<f64> = (0..TABLE_SEEDS).flat_map(|_| point(rng, d)).collect();
        let (secs, seeds) = median_secs_with(
            REPS,
            || {
                let seeds = NearestSeeds::from_seeds(d, flat.chunks_exact(d));
                (seeds, StdRng::seed_from_u64(seed))
            },
            |(mut seeds, mut rng)| {
                for _ in 0..flow.rounds {
                    for _ in 0..flow.reseeds_per_round {
                        seeds.replace(rng.gen_range(0..TABLE_SEEDS), &point(&mut rng, d));
                    }
                    for _ in 0..flow.reads_per_round {
                        seeds.settle_row(rng.gen_range(0..TABLE_SEEDS));
                    }
                }
                seeds
            },
        );
        let repair = seeds.repair_stats();
        let mut seeds = seeds;
        let mut fresh = NearestSeeds::from_seeds(d, (0..TABLE_SEEDS).map(|i| seeds.seed(i)));
        assert!(
            (0..TABLE_SEEDS).all(|i| seeds.neighbor_order(i) == fresh.neighbor_order(i)
                && seeds.neighbor_distances(i) == fresh.neighbor_distances(i)),
            "{}: after the re-seeds every row must equal from_seeds over the final coordinates",
            flow.name
        );
        let entries_per_op = repair.entries as f64 / repair.ops as f64;
        let versus = baseline.map_or(String::new(), |b| {
            format!(
                ", \"baseline_median_secs\": {:.6}",
                b.secs(flow.name, entries_per_op)
            )
        });
        eprintln!(
            "seed table {} s={TABLE_SEEDS}: {} re-seeds in {secs:.4}s{versus}, {entries_per_op:.1} entries/op vs {:.0} naive/op",
            flow.name,
            repair.ops,
            repair.naive_entries as f64 / repair.ops as f64,
        );
        rows.push(format!(
            "{{\"flow\": \"{}\", \"dim\": {d}, \"reseeds_per_round\": {}, \"reads_per_round\": {}, \"rounds\": {}, \"median_secs\": {secs:.6}{versus}, \"entries_per_op\": {entries_per_op:.1}, \"naive_entries_per_op\": {:.1}}}",
            flow.name,
            flow.reseeds_per_round,
            flow.reads_per_round,
            flow.rounds,
            repair.naive_entries as f64 / repair.ops as f64,
        ));
    }
    (build_secs, rows)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(88);

    let kernels = kernel_rows(&mut rng);
    let (end_to_end, dynamic_ib) = end_to_end_rows();
    let baseline = std::env::args().nth(2).map(|path| Baseline::read(&path));
    let (build_secs, table) = table_report(&mut rng, baseline.as_ref());
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
    json.push_str("  \"note\": \"scalar columns run the historical sequential kernels kept in metric::scalar (same binary, same flags); kernel secs are the fastest of kernel_reps interleaved rounds per side, speedup is their ratio and speedup_rep_min/max the spread of the per-round ratios; end_to_end median_secs are medians of reps runs; pre_kernel_secs are constants: assign_report medians recorded at the commit before the canonical-kernel switch on the host that first ran this report, so they compare only with runs on that host; naive columns are the entries a re-sort of every neighbor row per seed mutation would write; each seed_table flow runs rounds of reseeds_per_round random re-seeds, each round followed by reads_per_round random rows settled in place; its median_secs is the median of reps runs replaying the same re-seeds and reads; baseline_median_secs, when present, comes from the same report built at an earlier commit and run on the same host, whose entries_per_op is asserted equal to this run's\",\n");
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
        "  \"seed_table\": {{\"seeds\": {TABLE_SEEDS}, \"build_secs\": {build_secs:.6}, \"flows\": {}}},",
        json_list(4, table)
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
