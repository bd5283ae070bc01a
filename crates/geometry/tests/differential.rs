//! Differential suite: every nearest-seed engine and every parallel batch
//! entry point must be *bit-identical* to the serial brute-force reference
//! — assignments, distances, tie-breaking, and the instrumented
//! [`SearchStats`] counters alike — for every thread count, hint pattern,
//! and post-mutation (merge/split-style) seed set.
//!
//! The paper reports its efficiency results in distance computations
//! (Figures 10 and 11), so the counters are part of the contract, not just
//! the assignments. The suite drives randomized seed sets and query
//! buffers through [`NearestSeeds::nearest_batch`] under all three
//! [`SeedSearch`] engines and `Serial` / `Threads(2 | 4 | 8)` and demands
//! exact equality throughout.

use idb_geometry::{NearestSeeds, Parallelism, SearchStats, SeedSearch, NO_HINT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;
const MODES: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(8),
];
const ENGINES: [SeedSearch; 3] = [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree];

/// One randomized instance: a seed set (sometimes containing exact
/// duplicates), a query buffer, an optional excluded seed, and a per-query
/// warm-start hint pattern mixing valid seeds with [`NO_HINT`].
struct Case {
    seeds: NearestSeeds,
    queries: Vec<f64>,
    exclude: Option<usize>,
    hints: Vec<u32>,
    dim: usize,
}

fn random_case(rng: &mut StdRng) -> Case {
    let dim = rng.gen_range(1..=7);
    let num_seeds = rng.gen_range(1..=24);
    // Query counts straddle the chunking boundaries: empty buffers, fewer
    // queries than threads, and buffers that split unevenly.
    let num_queries = rng.gen_range(0..=65);
    let mut seeds = NearestSeeds::new(dim);
    for i in 0..num_seeds {
        // One seed in four duplicates an earlier one, exercising the exact
        // tie-break (lowest index wins) in every engine.
        if i > 0 && rng.gen_range(0..4) == 0 {
            let dup = rng.gen_range(0..i);
            let copy: Vec<f64> = seeds.seed(dup).to_vec();
            seeds.push(&copy);
        } else {
            let s: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
            seeds.push(&s);
        }
    }
    let queries: Vec<f64> = (0..num_queries * dim)
        .map(|_| rng.gen_range(-60.0..60.0))
        .collect();
    // Exclusion mirrors the merge path (donor seed ineligible); only legal
    // when another seed remains.
    let exclude = if num_seeds > 1 && rng.gen_range(0..3) == 0 {
        Some(rng.gen_range(0..num_seeds))
    } else {
        None
    };
    let hints: Vec<u32> = (0..num_queries)
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                NO_HINT
            } else {
                rng.gen_range(0..num_seeds) as u32
            }
        })
        .collect();
    Case {
        seeds,
        queries,
        exclude,
        hints,
        dim,
    }
}

/// Per-query serial reference for one case under one engine.
fn reference(case: &mut Case, engine: SeedSearch, hinted: bool) -> (Vec<(u32, f64)>, SearchStats) {
    let mut stats = SearchStats::new();
    let out = case
        .queries
        .chunks_exact(case.dim)
        .enumerate()
        .map(|(qi, q)| {
            let hint = if hinted && case.hints[qi] != NO_HINT {
                Some(case.hints[qi] as usize)
            } else {
                None
            };
            let (i, d) = case
                .seeds
                .nearest(engine, q, case.exclude, hint, &mut stats)
                .expect("eligible seed");
            (i as u32, d)
        })
        .collect();
    (out, stats)
}

/// Batch calls match the per-query serial reference bit-for-bit in every
/// engine, every parallelism mode, hinted and unhinted.
#[test]
fn batch_matches_serial_reference_in_every_engine_and_mode() {
    let mut rng = StdRng::seed_from_u64(0xB001);
    for case_no in 0..CASES {
        let mut case = random_case(&mut rng);
        for engine in ENGINES {
            for hinted in [false, true] {
                let (ref_out, ref_stats) = reference(&mut case, engine, hinted);
                let hints = hinted.then_some(case.hints.as_slice());
                for par in MODES {
                    let mut stats = SearchStats::new();
                    let out = case.seeds.nearest_batch(
                        &case.queries,
                        case.exclude,
                        engine,
                        hints,
                        par,
                        &mut stats,
                    );
                    assert_eq!(
                        out, ref_out,
                        "case {case_no} ({engine:?}, hinted={hinted}, {par:?}): assignments diverged"
                    );
                    assert_eq!(
                        stats, ref_stats,
                        "case {case_no} ({engine:?}, hinted={hinted}, {par:?}): accounting diverged"
                    );
                }
            }
        }
    }
}

/// All engines return bit-identical `(index, distance)` pairs to brute
/// force — same index on exact ties (lowest wins), same distance bits —
/// regardless of hints.
#[test]
fn engines_bit_identical_to_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xAB);
    for case_no in 0..CASES {
        let mut case = random_case(&mut rng);
        let (brute, brute_stats) = reference(&mut case, SeedSearch::Brute, false);
        for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
            for hinted in [false, true] {
                let (out, stats) = reference(&mut case, engine, hinted);
                assert_eq!(out.len(), brute.len());
                for (q, (b, o)) in brute.iter().zip(&out).enumerate() {
                    assert_eq!(
                        b.0, o.0,
                        "case {case_no}, query {q} ({engine:?}, hinted={hinted}): index diverged"
                    );
                    assert_eq!(
                        b.1.to_bits(),
                        o.1.to_bits(),
                        "case {case_no}, query {q} ({engine:?}, hinted={hinted}): distance bits diverged"
                    );
                }
                assert!(
                    stats.computed <= brute_stats.computed,
                    "case {case_no} ({engine:?}): engine computed more than brute force"
                );
                assert_eq!(
                    stats.total(),
                    brute_stats.total(),
                    "case {case_no} ({engine:?}): candidate accounting diverged"
                );
            }
        }
    }
}

/// Counter merging is pure u64 addition over per-chunk counters, so a
/// batch split across threads must account each candidate exactly once:
/// computed + pruned + partial = queries x eligible seeds, in every engine
/// and every mode.
#[test]
fn merged_counters_cover_every_candidate_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0xCC);
    for _ in 0..CASES {
        let mut case = random_case(&mut rng);
        let queries = case.queries.len() / case.dim;
        let eligible = case.seeds.len() - usize::from(case.exclude.is_some());
        for engine in ENGINES {
            for par in MODES {
                let mut stats = SearchStats::new();
                case.seeds.nearest_batch(
                    &case.queries,
                    case.exclude,
                    engine,
                    Some(&case.hints),
                    par,
                    &mut stats,
                );
                assert_eq!(
                    stats.total(),
                    (queries * eligible) as u64,
                    "{engine:?} {par:?}"
                );
            }
        }
    }
}

/// Seed-set mutations — the merge/split/retire bookkeeping of the
/// incremental maintainer — keep every engine bit-identical to brute
/// force, including warm-start hints that point at the mutated seeds.
#[test]
fn engines_stay_identical_across_seed_mutations() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case_no in 0..CASES {
        let mut case = random_case(&mut rng);
        // A short mutation script: replace (split/merge re-seeding), push
        // (adaptive growth), swap_remove (adaptive retirement).
        for step in 0..rng.gen_range(1..=4) {
            let s = case.seeds.len();
            match rng.gen_range(0..3) {
                0 => {
                    let i = rng.gen_range(0..s);
                    let p: Vec<f64> = (0..case.dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
                    case.seeds.replace(i, &p);
                }
                1 => {
                    let p: Vec<f64> = (0..case.dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
                    case.seeds.push(&p);
                }
                _ if s > 1 => case.seeds.swap_remove(rng.gen_range(0..s)),
                _ => {}
            }
            let s = case.seeds.len();
            // Refresh exclusion and hints to the surviving index range —
            // exactly what the maintainer does after a merge/split.
            case.exclude = case.exclude.filter(|&e| e < s && s > 1);
            for h in &mut case.hints {
                if *h != NO_HINT && *h as usize >= s {
                    *h = rng.gen_range(0..s) as u32;
                }
            }
            let (brute, _) = reference(&mut case, SeedSearch::Brute, false);
            for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
                let (out, _) = reference(&mut case, engine, true);
                for (q, (b, o)) in brute.iter().zip(&out).enumerate() {
                    assert_eq!(
                        (b.0, b.1.to_bits()),
                        (o.0, o.1.to_bits()),
                        "case {case_no}, step {step}, query {q} ({engine:?}): diverged after mutation"
                    );
                }
            }
        }
    }
}
