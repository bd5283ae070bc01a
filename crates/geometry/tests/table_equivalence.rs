//! The incrementally repaired neighbor table equals a fresh build.
//!
//! Random scripts of `push`, `replace` and `swap_remove` drive one
//! [`NearestSeeds`]. The moves include near moves (a small jitter, so the
//! entry shifts past few neighbours), far moves (across most of each row),
//! moves onto another seed's exact coordinates (an exact distance tie at
//! the edge of the shifted span, resolved by index) and moves that keep the
//! coordinates. Half the scripts draw from a small integer grid, where
//! exact ties are everywhere.
//!
//! After every step:
//! * every row, ids and distance bits, equals an independent oracle: the
//!   distances recomputed from the coordinates and sorted with
//!   `(f64::total_cmp, index)`;
//! * `from_seeds` over the current coordinates builds the same table, and
//!   so do sequential pushes;
//! * the pruned search on the repaired table returns the same results and
//!   the same `SearchStats` as on the fresh table.
//!
//! Reading every row after every step leaves each row one pending re-seed
//! at most. The sparse-read scripts read one random row with p = 0.1 per
//! step instead, over runs longer than the seed count, so rows settle many
//! pending re-seeds at once (repeated re-seeds of one seed included) and
//! the replace log folds. Each read row equals the oracle bit for bit, and
//! so do clones taken with re-seeds pending; pruned searches from a read
//! row, and threaded batches with per-query hints over stale rows, match a
//! fresh table and the serial call, `SearchStats` included.

use idb_geometry::{dist, NearestSeeds, Parallelism, SearchStats, SeedSearch, NO_HINT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCRIPTS: usize = 60;
const STEPS: usize = 40;
const QUERIES: usize = 12;

/// Row `i` of the oracle: every index sorted by its recomputed distance to
/// seed `i` (0 on the diagonal), ties by index.
fn oracle_row(seeds: &NearestSeeds, i: usize) -> (Vec<u32>, Vec<f64>) {
    let d: Vec<f64> = (0..seeds.len())
        .map(|j| {
            if j == i {
                0.0
            } else {
                dist(seeds.seed(i), seeds.seed(j))
            }
        })
        .collect();
    let mut ids: Vec<u32> = (0..seeds.len() as u32).collect();
    ids.sort_by(|&a, &b| d[a as usize].total_cmp(&d[b as usize]).then(a.cmp(&b)));
    let w = ids.iter().map(|&j| d[j as usize]).collect();
    (ids, w)
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_table(a: &NearestSeeds, b: &NearestSeeds, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: seed count");
    for i in 0..a.len() {
        assert_eq!(
            a.neighbor_order(i),
            b.neighbor_order(i),
            "{what}: row {i} ids"
        );
        assert_eq!(
            bits(a.neighbor_distances(i)),
            bits(b.neighbor_distances(i)),
            "{what}: row {i} distances"
        );
    }
}

struct Script {
    rng: StdRng,
    dim: usize,
    grid: bool,
}

impl Script {
    fn point(&mut self) -> Vec<f64> {
        let (dim, grid) = (self.dim, self.grid);
        (0..dim)
            .map(|_| {
                if grid {
                    f64::from(self.rng.gen_range(-3i32..=3))
                } else {
                    self.rng.gen_range(-50.0..50.0)
                }
            })
            .collect()
    }

    fn near(&mut self, p: &[f64]) -> Vec<f64> {
        p.iter()
            .map(|&x| {
                if self.grid {
                    x + f64::from(self.rng.gen_range(-1i32..=1))
                } else {
                    x + self.rng.gen_range(-1e-3..1e-3)
                }
            })
            .collect()
    }

    /// One mutation; returns its name for failure messages.
    fn step(&mut self, seeds: &mut NearestSeeds) -> &'static str {
        let s = seeds.len();
        let i = self.rng.gen_range(0..s);
        match self.rng.gen_range(0..8) {
            0 => {
                let p = self.point();
                seeds.push(&p);
                "push"
            }
            1 => {
                let p = seeds.seed(i).to_vec();
                seeds.push(&p);
                "push duplicate"
            }
            2 => {
                let p = self.near(seeds.seed(i));
                seeds.replace(i, &p);
                "near move"
            }
            3 => {
                let p: Vec<f64> = self.point().iter().map(|x| x * 40.0).collect();
                seeds.replace(i, &p);
                "far move"
            }
            4 => {
                let k = self.rng.gen_range(0..s);
                let p = seeds.seed(k).to_vec();
                seeds.replace(i, &p);
                "move onto a duplicate"
            }
            5 => {
                let p = seeds.seed(i).to_vec();
                seeds.replace(i, &p);
                "move in place"
            }
            6 if s > 1 => {
                seeds.swap_remove(i);
                "swap_remove"
            }
            7 if s > 1 => {
                seeds.swap_remove(s - 1);
                "swap_remove last"
            }
            _ => {
                let p = self.point();
                seeds.replace(i, &p);
                "move"
            }
        }
    }
}

#[test]
fn repaired_table_equals_a_fresh_build_after_every_step() {
    let mut master = StdRng::seed_from_u64(0x7AB1E);
    for script_no in 0..SCRIPTS {
        let mut script = Script {
            rng: StdRng::seed_from_u64(master.gen()),
            dim: [1, 2, 3, 10][script_no % 4],
            grid: script_no % 2 == 0,
        };
        let n0 = script.rng.gen_range(1..=30);
        let initial: Vec<Vec<f64>> = (0..n0).map(|_| script.point()).collect();
        let mut seeds = NearestSeeds::from_seeds(script.dim, initial.iter().map(Vec::as_slice));
        for step in 0..STEPS {
            let op = script.step(&mut seeds);
            let what = format!("script {script_no} step {step} ({op})");
            let s = seeds.len();

            for i in 0..s {
                let (ids, w) = oracle_row(&seeds, i);
                assert_eq!(
                    seeds.neighbor_order(i),
                    ids.as_slice(),
                    "{what}: row {i} ids"
                );
                assert_eq!(
                    bits(seeds.neighbor_distances(i)),
                    bits(&w),
                    "{what}: row {i} distances"
                );
            }
            let fresh = NearestSeeds::from_seeds(script.dim, (0..s).map(|i| seeds.seed(i)));
            assert_same_table(&seeds, &fresh, &format!("{what}, from_seeds"));
            let mut pushed = NearestSeeds::new(script.dim);
            for i in 0..s {
                pushed.push(seeds.seed(i));
            }
            assert_same_table(&fresh, &pushed, &format!("{what}, pushes"));

            for q in 0..QUERIES {
                let p = if q % 3 == 0 {
                    let k = script.rng.gen_range(0..s);
                    script.near(seeds.seed(k))
                } else {
                    script.point()
                };
                let hint = script.rng.gen_bool(0.7).then(|| script.rng.gen_range(0..s));
                let exclude =
                    (s > 1 && script.rng.gen_bool(0.3)).then(|| script.rng.gen_range(0..s));
                let mut got_stats = SearchStats::new();
                let got = seeds.nearest_pruned(&p, exclude, hint, &mut got_stats);
                let mut want_stats = SearchStats::new();
                let want = fresh.nearest_pruned(&p, exclude, hint, &mut want_stats);
                assert_eq!(
                    got.map(|(i, d)| (i, d.to_bits())),
                    want.map(|(i, d)| (i, d.to_bits())),
                    "{what}: query {q} result"
                );
                assert_eq!(got_stats, want_stats, "{what}: query {q} stats");
            }
        }
    }
}

const SPARSE_SCRIPTS: usize = 16;
const SPARSE_STEPS: usize = 400;

/// One sparse-script mutation: mostly re-seeds — a third of them of one
/// `hot` seed — with a rare push or swap_remove, so that runs between two
/// full settles are longer than the seed count.
fn sparse_step(script: &mut Script, seeds: &mut NearestSeeds, hot: usize) -> &'static str {
    let s = seeds.len();
    match script.rng.gen_range(0..100) {
        0 => {
            let p = script.point();
            seeds.push(&p);
            "push"
        }
        1 if s > 2 => {
            let i = script.rng.gen_range(0..s);
            seeds.swap_remove(i);
            "swap_remove"
        }
        2..=33 => {
            let i = hot % s;
            let p = if script.rng.gen_bool(0.5) {
                script.near(seeds.seed(i))
            } else {
                script.point()
            };
            seeds.replace(i, &p);
            "re-seed the hot seed"
        }
        34..=43 => {
            let (i, k) = (script.rng.gen_range(0..s), script.rng.gen_range(0..s));
            let p = seeds.seed(k).to_vec();
            seeds.replace(i, &p);
            "move onto a duplicate"
        }
        44..=50 => {
            let i = script.rng.gen_range(0..s);
            let p = seeds.seed(i).to_vec();
            seeds.replace(i, &p);
            "move in place"
        }
        _ => script.step(seeds),
    }
}

fn assert_row_is_oracle(seeds: &NearestSeeds, i: usize, what: &str) {
    let (ids, w) = oracle_row(seeds, i);
    assert_eq!(
        seeds.neighbor_order(i),
        ids.as_slice(),
        "{what}: row {i} ids"
    );
    assert_eq!(
        bits(seeds.neighbor_distances(i)),
        bits(&w),
        "{what}: row {i} distances"
    );
}

/// `k` queries around the seeds and across the space, one hint each
/// ([`NO_HINT`] for a fifth of them).
fn queries_with_hints(script: &mut Script, seeds: &NearestSeeds, k: usize) -> (Vec<f64>, Vec<u32>) {
    let s = seeds.len();
    let mut flat = Vec::with_capacity(k * script.dim);
    let mut hints = Vec::with_capacity(k);
    for q in 0..k {
        let p = if q % 2 == 0 {
            let j = script.rng.gen_range(0..s);
            script.near(seeds.seed(j))
        } else {
            script.point()
        };
        flat.extend_from_slice(&p);
        hints.push(if script.rng.gen_bool(0.2) {
            NO_HINT
        } else {
            script.rng.gen_range(0..s as u32)
        });
    }
    (flat, hints)
}

#[test]
fn sparse_reads_settle_many_pending_reseeds() {
    let mut master = StdRng::seed_from_u64(0x5ECD);
    for script_no in 0..SPARSE_SCRIPTS {
        let mut script = Script {
            rng: StdRng::seed_from_u64(master.gen()),
            dim: [1, 2, 3, 10][script_no % 4],
            grid: script_no % 8 < 4,
        };
        let n0 = script.rng.gen_range(4..=24);
        let initial: Vec<Vec<f64>> = (0..n0).map(|_| script.point()).collect();
        let mut seeds = NearestSeeds::from_seeds(script.dim, initial.iter().map(Vec::as_slice));
        let hot = script.rng.gen_range(0..n0);
        for step in 0..SPARSE_STEPS {
            let op = sparse_step(&mut script, &mut seeds, hot);
            let what = format!("sparse script {script_no} step {step} ({op})");
            let s = seeds.len();

            if script.rng.gen_bool(0.1) {
                // Read one row, through a settled copy or settled in place,
                // and search from it.
                let i = script.rng.gen_range(0..s);
                if script.rng.gen_bool(0.5) {
                    seeds.settle_row(i);
                }
                assert_row_is_oracle(&seeds, i, &what);
                let fresh = NearestSeeds::from_seeds(script.dim, (0..s).map(|j| seeds.seed(j)));
                for q in 0..4 {
                    let p = if q % 2 == 0 {
                        script.near(seeds.seed(i))
                    } else {
                        script.point()
                    };
                    let exclude = (s > 1 && script.rng.gen_bool(0.3))
                        .then(|| script.rng.gen_range(0..s))
                        .filter(|&e| e != i);
                    let mut got_stats = SearchStats::new();
                    let got = seeds.nearest_pruned(&p, exclude, Some(i), &mut got_stats);
                    let mut want_stats = SearchStats::new();
                    let want = fresh.nearest_pruned(&p, exclude, Some(i), &mut want_stats);
                    assert_eq!(
                        got.map(|(j, d)| (j, d.to_bits())),
                        want.map(|(j, d)| (j, d.to_bits())),
                        "{what}: query {q} from row {i}"
                    );
                    assert_eq!(got_stats, want_stats, "{what}: query {q} stats");
                }
            }

            if script.rng.gen_bool(0.05) {
                // Threaded and serial batches over the same stale rows,
                // each on its own copy of the table, and on a fresh one.
                let (flat, hints) = queries_with_hints(&mut script, &seeds, 24);
                let serial_seeds = seeds.clone();
                let fresh = NearestSeeds::from_seeds(script.dim, (0..s).map(|j| seeds.seed(j)));
                let mut runs = Vec::new();
                for (table, par) in [
                    (&seeds, Parallelism::Threads(2)),
                    (&serial_seeds, Parallelism::Serial),
                    (&fresh, Parallelism::Serial),
                ] {
                    let mut stats = SearchStats::new();
                    let out = table.nearest_batch(
                        &flat,
                        None,
                        SeedSearch::Pruned,
                        Some(&hints),
                        par,
                        &mut stats,
                    );
                    let out: Vec<(u32, u64)> = out.iter().map(|&(j, d)| (j, d.to_bits())).collect();
                    runs.push((out, stats));
                }
                assert_eq!(runs[0], runs[1], "{what}: threaded vs serial batch");
                assert_eq!(runs[1], runs[2], "{what}: stale vs fresh batch");
            }

            if script.rng.gen_bool(0.02) {
                // A clone with re-seeds pending reads as the original.
                let copy = seeds.clone();
                assert_eq!(copy.len(), s, "{what}: clone size");
                for i in 0..s {
                    assert_eq!(copy.seed(i), seeds.seed(i), "{what}: clone seed {i}");
                    assert_row_is_oracle(&copy, i, &format!("{what}, clone"));
                }
            }
        }
        let s = seeds.len();
        for i in 0..s {
            assert_row_is_oracle(&seeds, i, &format!("sparse script {script_no} end"));
        }
    }
}
