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
//! exact equality throughout. A test-only copy of the pruned walk and the
//! k-d search, run with the early-exit kernel's earlier every-block bound
//! check, pins the engines' results and counts across kernel cadences.

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

/// The reference engines: the pruned walk and the k-d search as they ran
/// when the early-exit kernel checked its bound after every 4-lane block,
/// kept here, with that kernel, as a test oracle. The library's kernel
/// checks once per 16 lanes; because a rejection means exactly
/// `sq_dist > bound` under either cadence, every engine must still agree
/// with these copies in index, distance bits and [`SearchStats`].
mod reference {
    use idb_geometry::metric::sq_dist;
    use idb_geometry::{NearestSeeds, SearchStats};
    use std::cmp::Ordering;

    /// The early-exit kernel with a bound check after every 4-lane block.
    pub fn sq_dist_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        let mut acc = [0.0f64; 4];
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
            for j in 0..4 {
                let d = xa[j] - xb[j];
                acc[j] += d * d;
            }
            if (acc[0] + acc[1]) + (acc[2] + acc[3]) > bound {
                return None;
            }
        }
        for (k, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
            let d = x - y;
            acc[k] += d * d;
        }
        let total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        (total <= bound).then_some(total)
    }

    /// The pruned walk (Figure 2 in squared space, tail cut, Lemma 1
    /// prune, bounded evaluation) over the start seed's neighbor row.
    pub fn pruned(
        seeds: &mut NearestSeeds,
        p: &[f64],
        exclude: Option<usize>,
        hint: Option<usize>,
        stats: &mut SearchStats,
    ) -> Option<(usize, f64)> {
        let s = seeds.len();
        let exclude = exclude.filter(|&e| e < s);
        let start = match hint {
            Some(h) if h < s && Some(h) != exclude => h,
            _ => (0..s).find(|&i| Some(i) != exclude)?,
        };
        let order = seeds.neighbor_order(start).to_vec();
        let dists = seeds.neighbor_distances(start).to_vec();
        let mut best_sq = sq_dist(p, seeds.seed(start));
        stats.computed += 1;
        let mut best_idx = start;
        let d_start = best_sq.sqrt();
        let mut best_d = d_start;
        let counted = |k: u32| k as usize != start && Some(k as usize) != exclude;
        for (pos, (&j32, &w)) in order.iter().zip(&dists).enumerate() {
            let j = j32 as usize;
            if !counted(j32) {
                continue;
            }
            if w > d_start + best_d {
                stats.pruned += order[pos..].iter().filter(|&&k| counted(k)).count() as u64;
                break;
            }
            if (w - d_start).abs() > best_d {
                stats.pruned += 1;
                continue;
            }
            match sq_dist_bounded(p, seeds.seed(j), best_sq) {
                None => stats.partial += 1,
                Some(sq) => {
                    stats.computed += 1;
                    if sq < best_sq || (sq == best_sq && j < best_idx) {
                        best_sq = sq;
                        best_idx = j;
                        best_d = best_sq.sqrt();
                    }
                }
            }
        }
        Some((best_idx, best_sq.sqrt()))
    }

    const NONE: u32 = u32::MAX;

    /// The seeds' k-d tree: nodes `(point, left, right)` built by the
    /// library's median split, and the root.
    pub struct Tree {
        dim: usize,
        coords: Vec<f64>,
        nodes: Vec<(u32, u32, u32)>,
        root: u32,
    }

    impl Tree {
        pub fn build(seeds: &NearestSeeds) -> Self {
            let dim = seeds.dim();
            let coords: Vec<f64> = (0..seeds.len())
                .flat_map(|i| seeds.seed(i).to_vec())
                .collect();
            let mut order: Vec<u32> = (0..seeds.len() as u32).collect();
            let mut nodes = Vec::new();
            let root = Self::build_rec(dim, &coords, &mut order, 0, &mut nodes);
            Self {
                dim,
                coords,
                nodes,
                root,
            }
        }

        fn build_rec(
            dim: usize,
            coords: &[f64],
            order: &mut [u32],
            depth: usize,
            nodes: &mut Vec<(u32, u32, u32)>,
        ) -> u32 {
            if order.is_empty() {
                return NONE;
            }
            let axis = depth % dim;
            let mid = order.len() / 2;
            order.select_nth_unstable_by(mid, |&a, &b| {
                let ca = coords[a as usize * dim + axis];
                let cb = coords[b as usize * dim + axis];
                ca.partial_cmp(&cb).unwrap_or(Ordering::Equal)
            });
            let node = nodes.len() as u32;
            nodes.push((order[mid], NONE, NONE));
            let (lo, rest) = order.split_at_mut(mid);
            let left = Self::build_rec(dim, coords, lo, depth + 1, nodes);
            let right = Self::build_rec(dim, coords, &mut rest[1..], depth + 1, nodes);
            nodes[node as usize].1 = left;
            nodes[node as usize].2 = right;
            node
        }

        fn point(&self, i: u32) -> &[f64] {
            &self.coords[i as usize * self.dim..(i as usize + 1) * self.dim]
        }

        /// The k-d engine's search: the hint evaluated in full, then the
        /// descent; candidates cut off by a subtree are charged as pruned.
        pub fn nearest(
            &self,
            p: &[f64],
            exclude: Option<usize>,
            hint: Option<usize>,
            stats: &mut SearchStats,
        ) -> Option<(usize, f64)> {
            let s = self.nodes.len();
            let exclude = exclude.filter(|&e| e < s);
            let eligible = s - usize::from(exclude.is_some());
            if eligible == 0 {
                return None;
            }
            let exclude = exclude.map(|e| e as u32);
            let seeded = hint
                .map(|h| h as u32)
                .filter(|&h| (h as usize) < s && Some(h) != exclude);
            let mut local = SearchStats::new();
            let mut best = seeded.map(|h| {
                local.computed += 1;
                (h, sq_dist(p, self.point(h)))
            });
            self.rec(self.root, p, exclude, seeded, 0, &mut best, &mut local);
            local.pruned = eligible as u64 - local.computed - local.partial;
            *stats += local;
            best.map(|(i, sq)| (i as usize, sq.sqrt()))
        }

        #[allow(clippy::too_many_arguments)]
        fn rec(
            &self,
            node: u32,
            p: &[f64],
            exclude: Option<u32>,
            seeded: Option<u32>,
            depth: usize,
            best: &mut Option<(u32, f64)>,
            stats: &mut SearchStats,
        ) {
            let (pt, left, right) = self.nodes[node as usize];
            if Some(pt) != exclude && Some(pt) != seeded {
                let bound = best.map_or(f64::INFINITY, |(_, sq)| sq);
                match sq_dist_bounded(p, self.point(pt), bound) {
                    None => stats.partial += 1,
                    Some(sq) => {
                        stats.computed += 1;
                        match *best {
                            Some((bi, bsq)) if sq > bsq || (sq == bsq && pt >= bi) => {}
                            _ => *best = Some((pt, sq)),
                        }
                    }
                }
            }
            let axis = depth % self.dim;
            let diff = p[axis] - self.point(pt)[axis];
            let (near, far) = if diff <= 0.0 {
                (left, right)
            } else {
                (right, left)
            };
            if near != NONE {
                self.rec(near, p, exclude, seeded, depth + 1, best, stats);
            }
            let bsq = best.map_or(f64::INFINITY, |(_, sq)| sq);
            if far != NONE && diff * diff <= bsq {
                self.rec(far, p, exclude, seeded, depth + 1, best, stats);
            }
        }
    }
}

/// A seed set and queries at dimension `dim` for the reference-walk test.
/// Lattice cases put seeds on an integer grid and queries on the
/// half-integer one, so squared distances are exact and ties abound; the
/// others are continuous, with duplicate seeds and some queries sitting
/// on a seed.
fn walk_case(rng: &mut StdRng, dim: usize, lattice: bool) -> (NearestSeeds, Vec<f64>) {
    let coord = |rng: &mut StdRng, half: bool| -> f64 {
        if lattice {
            f64::from(rng.gen_range(-3i32..=3)) + if half { 0.5 } else { 0.0 }
        } else {
            rng.gen_range(-50.0..50.0)
        }
    };
    let num_seeds = rng.gen_range(1..=40);
    let mut seeds = NearestSeeds::new(dim);
    for i in 0..num_seeds {
        let s: Vec<f64> = if i > 0 && rng.gen_range(0..4) == 0 {
            seeds.seed(rng.gen_range(0..i)).to_vec()
        } else {
            (0..dim).map(|_| coord(rng, false)).collect()
        };
        seeds.push(&s);
    }
    let mut queries = Vec::new();
    for _ in 0..rng.gen_range(0..=40) {
        if rng.gen_range(0..5) == 0 {
            queries.extend_from_slice(seeds.seed(rng.gen_range(0..num_seeds)));
        } else {
            let half = rng.gen_bool(0.5);
            queries.extend((0..dim).map(|_| coord(rng, half)));
        }
    }
    (seeds, queries)
}

/// The pruned engine (per query and batched, serial and threaded) and
/// the k-d engine (likewise) equal the reference walks — run with the
/// every-block kernel — in index, distance bits and every [`SearchStats`]
/// count, hinted or not, with and without an excluded seed. The
/// dimensionalities straddle the 16-lane check: below it, at it, at the
/// 4-lane remainders around it, and well past it.
#[test]
fn engines_match_the_every_block_reference_walk() {
    let dims = (1..=20).chain([31, 64, 130]);
    let mut rng = StdRng::seed_from_u64(0x16);
    for dim in dims {
        for case_no in 0..24 {
            let lattice = case_no % 2 == 0;
            let (mut seeds, queries) = walk_case(&mut rng, dim, lattice);
            let s = seeds.len();
            let exclude = (s > 1 && rng.gen_range(0..3) == 0).then(|| rng.gen_range(0..s));
            let hints: Vec<u32> = (0..queries.len() / dim)
                .map(|_| {
                    if rng.gen_range(0..3) == 0 {
                        NO_HINT
                    } else {
                        rng.gen_range(0..s) as u32
                    }
                })
                .collect();
            let tree = reference::Tree::build(&seeds);
            for hinted in [false, true] {
                let hint_of =
                    |qi: usize| (hinted && hints[qi] != NO_HINT).then(|| hints[qi] as usize);
                let what = format!("d = {dim}, case {case_no}, hinted = {hinted}");
                for engine in [SeedSearch::Pruned, SeedSearch::KdTree] {
                    let mut want = Vec::new();
                    let mut want_stats = SearchStats::new();
                    let mut got_stats = SearchStats::new();
                    for (qi, q) in queries.chunks_exact(dim).enumerate() {
                        let r = match engine {
                            SeedSearch::Pruned => reference::pruned(
                                &mut seeds,
                                q,
                                exclude,
                                hint_of(qi),
                                &mut want_stats,
                            ),
                            _ => tree.nearest(q, exclude, hint_of(qi), &mut want_stats),
                        };
                        let (i, d) = r.expect("an eligible seed");
                        want.push((i as u32, d.to_bits()));
                        let got = match engine {
                            SeedSearch::Pruned => {
                                seeds.nearest_pruned(q, exclude, hint_of(qi), &mut got_stats)
                            }
                            _ => seeds.nearest(engine, q, exclude, hint_of(qi), &mut got_stats),
                        };
                        assert_eq!(
                            got.map(|(i, d)| (i as u32, d.to_bits())),
                            Some(want[qi]),
                            "{what}, query {qi}, {engine:?}"
                        );
                    }
                    assert_eq!(
                        got_stats, want_stats,
                        "{what}, {engine:?}: per-query accounting"
                    );
                    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
                        let mut stats = SearchStats::new();
                        let hints = hinted.then_some(hints.as_slice());
                        let out =
                            seeds.nearest_batch(&queries, exclude, engine, hints, par, &mut stats);
                        let out: Vec<(u32, u64)> =
                            out.iter().map(|&(i, d)| (i, d.to_bits())).collect();
                        assert_eq!(out, want, "{what}, {engine:?}, {par:?}: batch results");
                        assert_eq!(
                            stats, want_stats,
                            "{what}, {engine:?}, {par:?}: batch accounting"
                        );
                    }
                }
            }
        }
    }
}
