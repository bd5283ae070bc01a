//! Cross-checks of the clustering pipeline against independent
//! brute-force reference implementations and invariants.
//!
//! Point-level OPTICS is validated against a slow, textbook
//! re-implementation written with none of the production shortcuts —
//! different data structures, different traversal order — so a shared bug
//! is unlikely. The suite is organized in three sections:
//!
//! 1. **Density orderings vs. references** — OPTICS reachability multisets
//!    against an O(n²) reference.
//! 2. **Plot extraction invariants** — cluster-tree clusters over
//!    randomized reachability plots assign each point at most once.
//! 3. **Degenerate inputs** — duplicate-heavy point sets, singleton and
//!    coincident bubbles.

use idb_clustering::extract::{extract_clusters, ExtractParams};
use idb_clustering::optics_bubbles::{bubble_distance, optics_bubbles};
use idb_clustering::optics_points;
use idb_clustering::reachability::{PlotEntry, ReachabilityPlot};
use idb_core::{DataSummary, SufficientStats};
use idb_store::PointStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

fn random_points(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| vec![rng.gen_range(lo..hi), rng.gen_range(lo..hi)])
        .collect()
}

/// Integer-grid points: many exactly-equal pairwise distances (ties).
fn grid_points(rng: &mut StdRng, n: usize, cells: u32) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            vec![
                f64::from(rng.gen_range(0..cells)),
                f64::from(rng.gen_range(0..cells)),
            ]
        })
        .collect()
}

fn store_of(pts: &[Vec<f64>]) -> PointStore {
    let mut store = PointStore::new(2);
    for p in pts {
        store.insert(p, None);
    }
    store
}

fn plot_of(reach: &[f64]) -> ReachabilityPlot {
    ReachabilityPlot::from_entries(
        reach
            .iter()
            .enumerate()
            .map(|(i, &r)| PlotEntry {
                id: i as u64,
                reachability: r,
            })
            .collect(),
    )
}

fn random_plot(rng: &mut StdRng, n: usize) -> ReachabilityPlot {
    let reach: Vec<f64> = (0..n)
        .map(|i| {
            if i == 0 || rng.gen_bool(0.05) {
                f64::INFINITY
            } else {
                rng.gen_range(0.01..10.0)
            }
        })
        .collect();
    plot_of(&reach)
}

// ---------------------------------------------------------------------------
// 1. Density orderings vs. references
// ---------------------------------------------------------------------------

/// Textbook O(n²) OPTICS: seed list instead of a heap, min-scan each step,
/// ties broken by smaller index.
fn optics_reference(points: &[Vec<f64>], eps: f64, min_pts: usize) -> Vec<(usize, f64)> {
    let n = points.len();
    let d = |i: usize, j: usize| idb_geometry::dist(&points[i], &points[j]);
    let mut processed = vec![false; n];
    let mut reach = vec![f64::INFINITY; n];
    let mut out = Vec::new();
    let core_dist = |i: usize| -> f64 {
        let mut ds: Vec<f64> = (0..n).map(|j| d(i, j)).filter(|&x| x <= eps).collect();
        ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if ds.len() < min_pts {
            f64::INFINITY
        } else {
            ds[min_pts - 1]
        }
    };
    for start in 0..n {
        if processed[start] {
            continue;
        }
        processed[start] = true;
        out.push((start, f64::INFINITY));
        let update =
            |i: usize, processed: &[bool], reach: &mut Vec<f64>, seeds: &mut Vec<usize>| {
                let cd = core_dist(i);
                if cd.is_infinite() {
                    return;
                }
                for j in 0..n {
                    if processed[j] || j == i {
                        continue;
                    }
                    let dij = d(i, j);
                    if dij > eps {
                        continue;
                    }
                    let r = cd.max(dij);
                    if r < reach[j] {
                        reach[j] = r;
                        if !seeds.contains(&j) {
                            seeds.push(j);
                        }
                    }
                }
            };
        let mut seeds: Vec<usize> = Vec::new();
        update(start, &processed, &mut reach, &mut seeds);
        while !seeds.is_empty() {
            let mut best = 0usize;
            for k in 1..seeds.len() {
                let (a, b) = (seeds[k], seeds[best]);
                if reach[a] < reach[b] || (reach[a] == reach[b] && a < b) {
                    best = k;
                }
            }
            let i = seeds.swap_remove(best);
            processed[i] = true;
            out.push((i, reach[i]));
            update(i, &processed, &mut reach, &mut seeds);
        }
    }
    out
}

/// The production OPTICS and the reference may order tied points
/// differently, but the multiset of reachability values is an invariant of
/// the input; compare the sorted values.
#[test]
fn optics_reachability_multiset_matches_reference() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points(&mut rng, 60, 0.0, 10.0);
        for (eps, min_pts) in [(f64::INFINITY, 4), (1.5, 3), (0.8, 5), (2.5, 1)] {
            let store = store_of(&pts);
            let plot = optics_points(&store, eps, min_pts);
            let mut got: Vec<f64> = plot.entries().iter().map(|e| e.reachability).collect();
            let mut want: Vec<f64> = optics_reference(&pts, eps, min_pts)
                .iter()
                .map(|&(_, r)| r)
                .collect();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() < 1e-9 || (g.is_infinite() && w.is_infinite()),
                    "seed {seed} eps {eps} min_pts {min_pts}: {g} vs {w}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Plot extraction invariants
// ---------------------------------------------------------------------------

/// Cluster-tree extraction returns clusters of plot ids: every id at most
/// once, all ids drawn from the plot.
#[test]
fn extracted_clusters_assign_each_point_at_most_once() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let n = rng.gen_range(1..100);
        let plot = random_plot(&mut rng, n);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        let mut seen = vec![false; n];
        for c in &clusters {
            for &id in c {
                assert!(!seen[id as usize], "seed {seed}: id {id} in two clusters");
                seen[id as usize] = true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Degenerate inputs
// ---------------------------------------------------------------------------

/// Minimal summary wrapper for bubble-level degenerate cases.
#[derive(Debug, Clone)]
struct RawSummary(SufficientStats);
impl DataSummary for RawSummary {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn n(&self) -> u64 {
        self.0.n()
    }
    fn rep(&self) -> Vec<f64> {
        self.0.rep().unwrap()
    }
    fn extent(&self) -> f64 {
        self.0.extent()
    }
    fn nn_dist(&self, k: usize) -> f64 {
        self.0.nn_dist(k)
    }
}

/// Duplicate-heavy point sets and singleton/coincident bubbles: every
/// stage stays total (no panics, no NaN), plots keep all points, and
/// bubble orderings keep all summaries.
#[test]
fn degenerate_inputs_stay_total() {
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..40);
        let pts = grid_points(&mut rng, n, 3);
        let store = store_of(&pts);
        for (eps, mp) in [(f64::INFINITY, 3), (1.0, 2), (0.5, 7)] {
            let plot = optics_points(&store, eps, mp);
            assert_eq!(plot.len(), n);
            let _ = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        }
        // Singleton and coincident bubbles.
        let summaries: Vec<RawSummary> = (0..rng.gen_range(1..10))
            .map(|_| {
                let mut s = SufficientStats::new(2);
                let c = [f64::from(rng.gen_range(0..2)), 0.0];
                for _ in 0..rng.gen_range(1..5) {
                    s.add(&c);
                }
                RawSummary(s)
            })
            .collect();
        for a in &summaries {
            for b in &summaries {
                let d = bubble_distance(a, b);
                assert!(!d.is_nan(), "NaN bubble distance");
                assert!(d >= 0.0, "negative bubble distance {d}");
            }
        }
        let ord = optics_bubbles(&summaries, f64::INFINITY, 3);
        assert_eq!(ord.len(), summaries.len());
        let ord2 = optics_bubbles(&summaries, 0.5, 3);
        assert_eq!(ord2.len(), summaries.len());
    }
}
