//! Cross-baseline integration: the alternative clustering substrates
//! (point-level OPTICS, BIRCH CF leaves) agree with the data-bubble
//! pipeline about obvious structure.

use incremental_data_bubbles::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn two_blob_store(n: usize, seed: u64) -> PointStore {
    let model = MixtureModel::new(
        2,
        vec![
            ClusterModel::new(vec![20.0, 20.0], 2.0),
            ClusterModel::new(vec![80.0, 80.0], 2.0),
        ],
        0.0,
        (0.0, 100.0),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    model.populate(n, &mut rng)
}

#[test]
fn all_substrates_find_the_two_blobs() {
    let store = two_blob_store(2_000, 4242);
    let mut rng = StdRng::seed_from_u64(1);

    // Data-bubble pipeline.
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(40), &mut rng, &mut search);
    let bubbles = pipeline::cluster_bubbles(&ib, 8, 400);
    assert_eq!(bubbles.clusters.len(), 2, "bubble pipeline");

    // Point-level OPTICS.
    let plot = optics_points(&store, f64::INFINITY, 8);
    let points = extract_clusters(&plot, &ExtractParams::with_min_size(400));
    assert_eq!(points.len(), 2, "point OPTICS");

    // BIRCH CF leaves through the same summary-OPTICS pipeline.
    let mut tree = CfTree::new(2, 8, 16, 4.0);
    for (_, p, _) in store.iter() {
        tree.insert(p);
    }
    let leaves = tree.leaf_entries();
    let cf = pipeline::cluster_summaries(&leaves, 8, 400, |i| {
        let n = leaves[i].n();
        (0..n).map(move |j| (i as u64) << 32 | j)
    });
    assert_eq!(cf.clusters.len(), 2, "BIRCH CF pipeline");
}

#[test]
fn bubble_and_point_optics_agree_on_memberships() {
    let store = two_blob_store(1_500, 777);
    let mut rng = StdRng::seed_from_u64(2);
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(30), &mut rng, &mut search);
    let bubble_clusters = pipeline::cluster_bubbles(&ib, 8, 80).clusters;
    let plot = optics_points(&store, f64::INFINITY, 8);
    let point_clusters = extract_clusters(&plot, &ExtractParams::with_min_size(80));

    // Build id → cluster maps and check the partitions agree on > 95 % of
    // points (up to cluster relabeling).
    let to_map = |clusters: &[Vec<u64>]| -> HashMap<u64, usize> {
        clusters
            .iter()
            .enumerate()
            .flat_map(|(c, ids)| ids.iter().map(move |&id| (id, c)))
            .collect()
    };
    let a = to_map(&bubble_clusters);
    let b = to_map(&point_clusters);
    let mut votes: HashMap<(usize, usize), usize> = HashMap::new();
    let mut common = 0usize;
    for (id, &ca) in &a {
        if let Some(&cb) = b.get(id) {
            *votes.entry((ca, cb)).or_default() += 1;
            common += 1;
        }
    }
    // Majority mapping.
    let mut best: HashMap<usize, (usize, usize)> = HashMap::new();
    for (&(ca, cb), &v) in &votes {
        let e = best.entry(ca).or_insert((cb, 0));
        if v > e.1 {
            *e = (cb, v);
        }
    }
    let agree: usize = best.values().map(|&(_, v)| v).sum();
    assert!(common > 0);
    assert!(
        agree as f64 / common as f64 > 0.95,
        "partitions agree on {:.1} % of shared points",
        agree as f64 / common as f64 * 100.0
    );
}
