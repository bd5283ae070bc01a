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

use idb_geometry::{dist, NearestSeeds, SearchStats};
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
