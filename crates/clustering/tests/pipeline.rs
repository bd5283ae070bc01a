//! End-to-end clustering pipeline tests on synthetic data.
//!
//! These exercise the exact pipeline of the paper's evaluation: build data
//! bubbles over a labeled mixture → OPTICS over the bubbles → expand with
//! virtual reachability → extract flat clusters — and cross-check against
//! point-level OPTICS on the same data.

use idb_clustering::{extract_clusters, optics_bubbles, optics_points, ExtractParams};
use idb_core::{IncrementalBubbles, MaintainerConfig};
use idb_geometry::SearchStats;
use idb_store::{PointId, PointStore};
use idb_synth::{ClusterModel, MixtureModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn three_cluster_store(n: usize, seed: u64) -> PointStore {
    let model = MixtureModel::new(
        2,
        vec![
            ClusterModel::new(vec![15.0, 15.0], 2.0),
            ClusterModel::new(vec![50.0, 50.0], 2.0),
            ClusterModel::new(vec![85.0, 15.0], 2.0),
        ],
        0.02,
        (0.0, 100.0),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    model.populate(n, &mut rng)
}

/// Majority ground-truth label of each extracted cluster; the fraction of
/// members carrying it (purity) and coverage of clustered points.
fn purity(store: &PointStore, clusters: &[Vec<u64>]) -> (f64, usize) {
    let mut pure = 0usize;
    let mut total = 0usize;
    for cluster in clusters {
        let mut counts: HashMap<Option<u32>, usize> = HashMap::new();
        for &id in cluster {
            *counts.entry(store.label(PointId(id as u32))).or_default() += 1;
        }
        let best = counts.values().copied().max().unwrap_or(0);
        pure += best;
        total += cluster.len();
    }
    (pure as f64 / total.max(1) as f64, total)
}

#[test]
fn point_level_optics_recovers_generated_clusters() {
    let store = three_cluster_store(1200, 42);
    let plot = optics_points(&store, f64::INFINITY, 8);
    let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(40));
    assert_eq!(clusters.len(), 3, "three generated clusters");
    let (p, covered) = purity(&store, &clusters);
    assert!(p > 0.95, "purity {p}");
    assert!(covered > 1000, "coverage {covered}");
}

#[test]
fn bubble_level_optics_matches_point_level_structure() {
    let store = three_cluster_store(3000, 7);
    let mut rng = StdRng::seed_from_u64(99);
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(60), &mut rng, &mut search);

    let min_pts = 8;
    let ordering = optics_bubbles(ib.bubbles(), f64::INFINITY, min_pts);
    let plot = ordering.expand(|i| {
        ib.bubble(i)
            .members()
            .iter()
            .map(|id| u64::from(id.0))
            .collect::<Vec<_>>()
    });
    assert_eq!(plot.len(), store.len(), "expansion covers every point");

    let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(60));
    assert_eq!(
        clusters.len(),
        3,
        "bubble pipeline finds the three clusters"
    );
    let (p, covered) = purity(&store, &clusters);
    assert!(p > 0.9, "purity {p}");
    assert!(
        covered as f64 > store.len() as f64 * 0.8,
        "coverage {covered}"
    );
}

#[test]
fn expansion_emits_each_member_exactly_once() {
    let store = three_cluster_store(800, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(24), &mut rng, &mut search);
    let ordering = optics_bubbles(ib.bubbles(), f64::INFINITY, 5);
    let plot = ordering.expand(|i| {
        ib.bubble(i)
            .members()
            .iter()
            .map(|id| u64::from(id.0))
            .collect::<Vec<_>>()
    });
    let mut seen: Vec<u64> = plot.entries().iter().map(|e| e.id).collect();
    seen.sort_unstable();
    let mut want: Vec<u64> = store.ids().map(|id| u64::from(id.0)).collect();
    want.sort_unstable();
    assert_eq!(seen, want);
}

#[test]
fn bubble_pipeline_handles_single_cluster() {
    let model = MixtureModel::new(
        2,
        vec![ClusterModel::new(vec![50.0, 50.0], 3.0)],
        0.0,
        (0.0, 100.0),
    );
    let mut rng = StdRng::seed_from_u64(17);
    let store = model.populate(600, &mut rng);
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(12), &mut rng, &mut search);
    let ordering = optics_bubbles(ib.bubbles(), f64::INFINITY, 5);
    let plot = ordering.expand(|i| {
        ib.bubble(i)
            .members()
            .iter()
            .map(|id| u64::from(id.0))
            .collect::<Vec<_>>()
    });
    let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(30));
    assert_eq!(clusters.len(), 1, "one blob, one cluster");
}
