//! The incrementally repaired neighbor table equals a fresh build.
//!
//! Random scripts of re-seeds (`replace`, the table's one mutator) drive
//! one [`NearestSeeds`]. The moves include near moves (a small jitter, so
//! the entry shifts past few neighbours), far moves (across most of each row),
//! moves onto another seed's exact coordinates (an exact distance tie at
//! the edge of the shifted span, resolved by index) and moves that keep the
//! coordinates. Half the scripts draw from a small integer grid, where
//! exact ties are everywhere.
//!
//! After every step:
//! * every row, ids and distance bits, equals an independent oracle: the
//!   distances recomputed from the coordinates and sorted with
//!   `(f64::total_cmp, index)`;
//! * `from_seeds` over the current coordinates builds the same table;
//! * the pruned search on the repaired table returns the same results and
//!   the same `SearchStats` as on the fresh table.
//!
//! Reading every row after every step leaves each row a few pending
//! re-seeds at most: one, or up to three in the scripts over 40–160 seeds,
//! whose reads take the in-place settle. The sparse-read scripts read one random row with p = 0.1 per
//! step instead, over runs longer than the seed count, so rows settle many
//! pending re-seeds at once (repeated re-seeds of one seed included) and
//! the replace log folds: every script folds at least once, seen in the
//! repair ledger as a re-seed charging more than its own row. Each read
//! row equals the oracle bit for bit, and so do clones taken with re-seeds
//! pending and the audit's read-only view of a stale table, which settles
//! nothing (ledger and cursors untouched);
//! pruned searches from a read row, and threaded batches with per-query
//! hints over stale rows, match a fresh table and the serial call,
//! `SearchStats`, every row and the repair ledger included.
//!
//! Both families also drive [`SpliceTable`], a model of the settle the
//! table used before (`reference/mod.rs`), with the same re-seeds: after
//! every re-seed (and the fold it may trigger) and every row read, the
//! model's rows equal the table's and both charge the same
//! `RepairStats::entries`.

mod reference;

use idb_geometry::{dist, NearestSeeds, Parallelism, SearchStats, SeedSearch, NO_HINT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::SpliceTable;

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

fn assert_same_table(a: &mut NearestSeeds, b: &mut NearestSeeds, what: &str) {
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

    /// One mutation of `twin`; returns its name for failure messages.
    fn step(&mut self, twin: &mut Twin) -> &'static str {
        let seeds = &twin.seeds;
        let s = seeds.len();
        let i = self.rng.gen_range(0..s);
        let (p, op) = match self.rng.gen_range(0..5) {
            0 => (self.near(seeds.seed(i)), "near move"),
            1 => (self.point().iter().map(|x| x * 40.0).collect(), "far move"),
            2 => {
                let k = self.rng.gen_range(0..s);
                (seeds.seed(k).to_vec(), "move onto a duplicate")
            }
            3 => (seeds.seed(i).to_vec(), "move in place"),
            _ => (self.point(), "move"),
        };
        twin.replace(i, &p, op);
        op
    }
}

/// The table under test beside the splice model of the settle it
/// replaced, re-seeded together. After every re-seed (and the log fold it
/// may trigger) and every row read, both ledgers must agree.
struct Twin {
    seeds: NearestSeeds,
    model: SpliceTable,
}

impl Twin {
    fn new(dim: usize, initial: &[Vec<f64>]) -> Self {
        Self {
            seeds: NearestSeeds::from_seeds(dim, initial.iter().map(Vec::as_slice)),
            model: SpliceTable::from_seeds(dim, initial.iter().map(Vec::as_slice)),
        }
    }

    fn replace(&mut self, i: usize, p: &[f64], what: &str) {
        self.seeds.replace(i, p);
        self.model.replace(i, p);
        self.assert_ledgers(&format!("{what}: re-seed {i}"));
    }

    /// Mirrors, in the model, a read of row `i` the table under test has
    /// made: the charges must agree, and so must the rows.
    fn read(&mut self, i: usize, what: &str) {
        self.reads(&[i], what);
    }

    /// Mirrors reads of `rows`, in order, that the table under test has
    /// made in one call.
    fn reads(&mut self, rows: &[usize], what: &str) {
        for &i in rows {
            self.model.settle_row(i);
        }
        self.assert_ledgers(&format!("{what}: reads of rows {rows:?}"));
        for &i in rows {
            let (ids, w) = self.model.row(i);
            let (ids, w) = (ids.to_vec(), bits(w));
            assert_eq!(
                self.seeds.neighbor_order(i),
                ids,
                "{what}: model row {i} ids"
            );
            assert_eq!(
                bits(self.seeds.neighbor_distances(i)),
                w,
                "{what}: model row {i} distances"
            );
        }
    }

    fn assert_ledgers(&self, what: &str) {
        assert_eq!(
            self.seeds.repair_stats().entries,
            self.model.entries(),
            "{what}: entries charged, table vs splice model"
        );
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
        // Every third script holds 40–160 seeds and re-seeds one to three
        // of them per step, for half the steps, so its reads also take the
        // in-place settle of a few pending re-seeds (at most one per 40
        // row entries).
        let large = script_no % 3 == 2;
        let n0 = if large {
            script.rng.gen_range(40..=160)
        } else {
            script.rng.gen_range(1..=30)
        };
        let initial: Vec<Vec<f64>> = (0..n0).map(|_| script.point()).collect();
        let mut twin = Twin::new(script.dim, &initial);
        for step in 0..if large { STEPS / 2 } else { STEPS } {
            let reseeds = if large { 1 + step % 3 } else { 1 };
            let mut op = "";
            for _ in 0..reseeds {
                op = script.step(&mut twin);
            }
            let what = format!("script {script_no} step {step} ({op})");
            let s = twin.seeds.len();

            for i in 0..s {
                assert_row_is_oracle(&mut twin.seeds, i, &what);
                twin.read(i, &what);
            }
            let seeds = &mut twin.seeds;
            let mut fresh = NearestSeeds::from_seeds(script.dim, (0..s).map(|i| seeds.seed(i)));
            assert_same_table(seeds, &mut fresh, &format!("{what}, from_seeds"));

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
            twin.assert_ledgers(&format!("{what}, queries"));
        }
    }
}

const SPARSE_SCRIPTS: usize = 16;
const SPARSE_STEPS: usize = 400;

/// One sparse-script re-seed of `twin`, a third of them of one `hot`
/// seed. Only the log fold settles every row, after more re-seeds than the
/// seed count.
fn sparse_step(script: &mut Script, twin: &mut Twin, hot: usize) -> &'static str {
    let seeds = &twin.seeds;
    let s = seeds.len();
    let (i, p, op) = match script.rng.gen_range(0..100) {
        0..=33 => {
            let i = hot % s;
            let p = if script.rng.gen_bool(0.5) {
                script.near(seeds.seed(i))
            } else {
                script.point()
            };
            (i, p, "re-seed the hot seed")
        }
        34..=43 => {
            let (i, k) = (script.rng.gen_range(0..s), script.rng.gen_range(0..s));
            (i, seeds.seed(k).to_vec(), "move onto a duplicate")
        }
        44..=50 => {
            let i = script.rng.gen_range(0..s);
            (i, seeds.seed(i).to_vec(), "move in place")
        }
        _ => return script.step(twin),
    };
    twin.replace(i, &p, op);
    op
}

fn assert_row_is_oracle(seeds: &mut NearestSeeds, i: usize, what: &str) {
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

/// Every row and the repair ledger of `a` equal those of `b`, the rows
/// as the `&self` reader sees them; settling every row of a clone of each
/// then charges the same entries, so their cursors agree too.
fn assert_same_settles(a: &NearestSeeds, b: &NearestSeeds, what: &str) {
    assert_eq!(a.repair_stats(), b.repair_stats(), "{what}: repair ledger");
    for i in 0..a.len() {
        assert_eq!(a.neighbor_row(i), b.neighbor_row(i), "{what}: row {i}");
    }
    let (mut a, mut b) = (a.clone(), b.clone());
    for i in 0..a.len() {
        a.settle_row(i);
        b.settle_row(i);
    }
    assert_eq!(
        a.repair_stats(),
        b.repair_stats(),
        "{what}: pending settles"
    );
}

/// The audit's `&self` reader over a table with re-seeds pending: every row
/// it returns is the oracle, and it settles nothing — the table afterwards
/// equals a clone taken before, ledger and cursors included.
fn assert_read_only_view_is_oracle(seeds: &NearestSeeds, what: &str) {
    let before = seeds.clone();
    for i in 0..seeds.len() {
        let (ids, w) = oracle_row(seeds, i);
        let (got_ids, got_w) = seeds.neighbor_row(i);
        assert_eq!(*got_ids, *ids, "{what}: row {i} ids, read-only");
        assert_eq!(
            bits(&got_w),
            bits(&w),
            "{what}: row {i} distances, read-only"
        );
    }
    assert_same_settles(seeds, &before, &format!("{what}, read-only"));
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
        let mut twin = Twin::new(script.dim, &initial);
        let hot = script.rng.gen_range(0..n0);
        let mut folds = 0;
        for step in 0..SPARSE_STEPS {
            let before = twin.seeds.repair_stats().entries;
            let op = sparse_step(&mut script, &mut twin, hot);
            let what = format!("sparse script {script_no} step {step} ({op})");
            let seeds = &mut twin.seeds;
            let s = seeds.len();
            // A re-seed charges its own row's `s` entries; a fold also
            // charges the settles of every stale row.
            if seeds.repair_stats().entries - before > s as u64 {
                folds += 1;
            }

            if script.rng.gen_bool(0.1) {
                // Read one row, settled in place before or by the read, and
                // search from it.
                let i = script.rng.gen_range(0..s);
                if script.rng.gen_bool(0.5) {
                    seeds.settle_row(i);
                } else {
                    assert_read_only_view_is_oracle(seeds, &what);
                }
                assert_row_is_oracle(seeds, i, &what);
                twin.read(i, &what);
                let seeds = &mut twin.seeds;
                let mut fresh = NearestSeeds::from_seeds(script.dim, (0..s).map(|j| seeds.seed(j)));
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
                twin.assert_ledgers(&format!("{what}, queries from row {i}"));
            }

            let seeds = &mut twin.seeds;
            if script.rng.gen_bool(0.05) {
                // Threaded and serial batches over the same stale rows,
                // each on its own copy of the table, and on a fresh one.
                let (flat, hints) = queries_with_hints(&mut script, seeds, 24);
                let mut serial_seeds = seeds.clone();
                let mut fresh = NearestSeeds::from_seeds(script.dim, (0..s).map(|j| seeds.seed(j)));
                let mut runs = Vec::new();
                for (table, par) in [
                    (&mut *seeds, Parallelism::Threads(2)),
                    (&mut serial_seeds, Parallelism::Serial),
                    (&mut fresh, Parallelism::Serial),
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
                // Both batches settled the same start rows in place.
                assert_same_settles(seeds, &serial_seeds, &format!("{what}, batch"));
                // The batch settled each query's start row: its hint, else
                // seed 0.
                let starts: Vec<usize> = hints
                    .iter()
                    .map(|&h| if h == NO_HINT { 0 } else { h as usize })
                    .collect();
                twin.reads(&starts, &format!("{what}, batch"));
            }
            let seeds = &mut twin.seeds;

            if script.rng.gen_bool(0.02) {
                // A clone with re-seeds pending reads as the original.
                let mut copy = seeds.clone();
                assert_eq!(copy.len(), s, "{what}: clone size");
                for i in 0..s {
                    assert_eq!(copy.seed(i), seeds.seed(i), "{what}: clone seed {i}");
                    assert_row_is_oracle(&mut copy, i, &format!("{what}, clone"));
                }
            }
        }
        assert!(
            folds > 0,
            "sparse script {script_no}: the replace log never folded"
        );
        for i in 0..twin.seeds.len() {
            let what = format!("sparse script {script_no} end");
            assert_row_is_oracle(&mut twin.seeds, i, &what);
            twin.read(i, &what);
        }
    }
}
