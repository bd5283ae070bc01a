//! The splice settle the id-keyed settle replaced, kept as a test model of
//! the repair ledger.
//!
//! [`SpliceTable`] holds its own neighbor rows and replays the earlier
//! algorithm: a re-seed logs the seed with its old coordinates; a row
//! settles when read by recomputing each pending seed's stale distance
//! from its first logged old coordinates, binary-searching the stale
//! entries and ranking the new keys, and shifting the surviving entries
//! between those positions as runs, each at most once, in place. A log
//! longer than the seed count folds into every row. Its ledger counts one
//! entry per pending seed plus each survivor the shift moved; the real
//! table must charge the same at every read and every fold.

use idb_geometry::dist;

/// "No earlier record" in [`Log::prev`].
const NO_RECORD: u32 = u32::MAX;

/// A distance as an integer with the order of [`f64::total_cmp`].
fn dist_key(d: f64) -> u64 {
    let bits = d.to_bits() as i64;
    (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64 ^ (1 << 63)
}

/// One row: ids and distances sorted by `(dist_key, id)`, settled up to
/// log position `seen`.
#[derive(Debug, Clone)]
struct Row {
    ids: Vec<u32>,
    w: Vec<f64>,
    seen: usize,
}

/// The replace log: each re-seed's index, its previous record of the same
/// seed, and the coordinates it had before the move.
#[derive(Debug, Clone, Default)]
struct Log {
    ids: Vec<u32>,
    prev: Vec<u32>,
    coords: Vec<f64>,
}

impl Row {
    /// Row `i` over the coordinates `flat`, sorted.
    fn build(flat: &[f64], dim: usize, i: usize) -> Self {
        let x = &flat[i * dim..(i + 1) * dim];
        let mut entries: Vec<(u32, f64)> = flat
            .chunks_exact(dim)
            .enumerate()
            .map(|(j, y)| (j as u32, if j == i { 0.0 } else { dist(x, y) }))
            .collect();
        entries.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Self {
            ids: entries.iter().map(|e| e.0).collect(),
            w: entries.iter().map(|e| e.1).collect(),
            seen: 0,
        }
    }

    /// The number of entries ordering before `(k, id)`.
    fn rank(&self, k: u64, id: u32) -> usize {
        let mut p = self.w.partition_point(|&x| dist_key(x) < k);
        while p < self.ids.len() && dist_key(self.w[p]) == k && self.ids[p] < id {
            p += 1;
        }
        p
    }

    /// The position of the entry `(k, id)`.
    fn find(&self, k: u64, id: u32) -> usize {
        let p = self.rank(k, id);
        assert!(self.ids.get(p) == Some(&id), "neighbor row lost index {id}");
        p
    }

    /// Folds the log past `seen` into this row of the seed at `x`; returns
    /// the entries written.
    fn settle(&mut self, x: &[f64], log: &Log, flat: &[f64], dim: usize) -> u64 {
        let from = self.seen;
        self.seen = log.ids.len();
        let mut old = Vec::new();
        let mut new: Vec<(u64, u32, f64, usize)> = Vec::new();
        for k in from..log.ids.len() {
            if log.prev[k] != NO_RECORD && log.prev[k] as usize >= from {
                continue; // an earlier record of this seed is pending too
            }
            let j = log.ids[k];
            let before = dist(x, &log.coords[k * dim..(k + 1) * dim]);
            let now = dist(x, &flat[j as usize * dim..(j as usize + 1) * dim]);
            old.push(self.find(dist_key(before), j));
            new.push((dist_key(now), j, now, 0));
        }
        let m = new.len();
        old.sort_unstable();
        new.sort_unstable_by_key(|e| (e.0, e.1));
        // Runs of survivors between the events, with their shift: +1 per
        // new entry before them, -1 per stale one.
        let mut runs: Vec<(usize, usize, isize)> = Vec::new();
        let (mut pos, mut shift, mut gone) = (0, 0isize, 0);
        for entry in &mut new {
            let (k, j, ..) = *entry;
            let q = self.rank(k, j);
            while gone < m && old[gone] < q {
                let g = old[gone];
                runs.push((pos, g, shift));
                (pos, shift, gone) = (g + 1, shift - 1, gone + 1);
            }
            runs.push((pos, q, shift));
            pos = q;
            entry.3 = q.wrapping_add_signed(shift);
            shift += 1;
        }
        for &g in &old[gone..] {
            runs.push((pos, g, shift));
            (pos, shift) = (g + 1, shift - 1);
        }
        assert_eq!(shift, 0, "a settle keeps the row length");
        let mut entries = m as u64;
        let moving = runs.iter().filter(|r| r.2 != 0 && r.0 < r.1);
        for &(a, b, d) in moving.clone().filter(|r| r.2 < 0) {
            self.ids.copy_within(a..b, a.wrapping_add_signed(d));
            self.w.copy_within(a..b, a.wrapping_add_signed(d));
            entries += (b - a) as u64;
        }
        for &(a, b, d) in moving.rev().filter(|r| r.2 > 0) {
            self.ids.copy_within(a..b, a.wrapping_add_signed(d));
            self.w.copy_within(a..b, a.wrapping_add_signed(d));
            entries += (b - a) as u64;
        }
        for &(_, j, d, at) in &new {
            self.ids[at] = j;
            self.w[at] = d;
        }
        entries
    }
}

/// The splice-settled seed table: coordinates, rows, log and ledger.
#[derive(Debug, Clone)]
pub struct SpliceTable {
    dim: usize,
    flat: Vec<f64>,
    rows: Vec<Row>,
    log: Log,
    entries: u64,
}

impl SpliceTable {
    /// The table over `seeds`, every row sorted; a build charges nothing.
    pub fn from_seeds<'a>(dim: usize, seeds: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let flat: Vec<f64> = seeds.into_iter().flatten().copied().collect();
        let rows = (0..flat.len() / dim)
            .map(|i| Row::build(&flat, dim, i))
            .collect();
        Self {
            dim,
            flat,
            rows,
            log: Log::default(),
            entries: 0,
        }
    }

    /// Row entries written so far: the real table's
    /// `RepairStats::entries`.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Row `i`, settled in place.
    pub fn row(&mut self, i: usize) -> (&[u32], &[f64]) {
        self.settle_row(i);
        (&self.rows[i].ids, &self.rows[i].w)
    }

    /// Settles row `i` in place, charging the entries it writes.
    pub fn settle_row(&mut self, i: usize) {
        if self.rows[i].seen < self.log.ids.len() {
            let d = self.dim;
            let x = &self.flat[i * d..(i + 1) * d];
            self.entries += self.rows[i].settle(x, &self.log, &self.flat, d);
        }
    }

    /// Re-seeds seed `i`: logs it with its old coordinates, rebuilds its
    /// row (charging `s` entries) and folds a log longer than `s` into
    /// every row.
    pub fn replace(&mut self, i: usize, seed: &[f64]) {
        let (d, s) = (self.dim, self.rows.len());
        let prev = self.log.ids.iter().rposition(|&j| j as usize == i);
        self.log.prev.push(prev.map_or(NO_RECORD, |k| k as u32));
        self.log.ids.push(i as u32);
        self.log
            .coords
            .extend_from_slice(&self.flat[i * d..(i + 1) * d]);
        self.flat[i * d..(i + 1) * d].copy_from_slice(seed);
        self.rows[i] = Row::build(&self.flat, d, i);
        self.rows[i].seen = self.log.ids.len();
        self.entries += s as u64;
        if self.log.ids.len() > s {
            for r in 0..s {
                self.settle_row(r);
                self.rows[r].seen = 0;
            }
            self.log = Log::default();
        }
    }
}
