//! 64-seed determinism regression for the evaluation pipeline.
//!
//! The ARI once summed pair counts in `HashMap` iteration order, which
//! flips last bits between otherwise identical runs (each map instance
//! hashes with its own random state). The fix sums in sorted key order;
//! this suite pins it — and the rest of the plot → extraction → metric
//! chain — by running every stage twice per seed, across 64 seeds, and
//! demanding bit-identical `f64` results and identical cluster sets.

use idb_clustering::{cluster_tree, extract_clusters, optics_points, ClusterNode, ExtractParams};
use idb_eval::{adjusted_rand_index, fscore};
use idb_store::PointStore;
use idb_synth::{ClusterModel, MixtureModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 64;

fn store_for(seed: u64) -> PointStore {
    let model = MixtureModel::new(
        2,
        vec![
            ClusterModel::new(vec![20.0, 20.0], 2.5),
            ClusterModel::new(vec![55.0, 75.0], 3.0),
            ClusterModel::new(vec![80.0, 25.0], 2.0),
        ],
        0.05,
        (0.0, 100.0),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    model.populate(220, &mut rng)
}

fn tree_bits(node: &ClusterNode) -> Vec<(usize, usize, u64, usize)> {
    fn walk(n: &ClusterNode, out: &mut Vec<(usize, usize, u64, usize)>) {
        out.push((
            n.range.0,
            n.range.1,
            n.split_value.map_or(u64::MAX, f64::to_bits),
            n.children.len(),
        ));
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(node, &mut out);
    out
}

/// Everything one evaluation run produces, with floats as bits.
#[derive(Debug, PartialEq, Eq)]
struct RunBits {
    plot: Vec<(u64, u64)>,
    clusters: Vec<Vec<u64>>,
    tree: Vec<(usize, usize, u64, usize)>,
    ari: u64,
    fscore: u64,
}

fn run_once(store: &PointStore) -> RunBits {
    let plot = optics_points(store, f64::INFINITY, 5);
    let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(10));
    let tree = cluster_tree(&plot, &ExtractParams::with_min_size(10));
    RunBits {
        plot: plot
            .entries()
            .iter()
            .map(|e| (e.id, e.reachability.to_bits()))
            .collect(),
        clusters: clusters.clone(),
        tree: tree_bits(&tree),
        ari: adjusted_rand_index(store, &clusters).to_bits(),
        fscore: fscore(store, &clusters).overall.to_bits(),
    }
}

#[test]
fn the_full_metric_chain_is_bit_deterministic_over_64_seeds() {
    for seed in 0..SEEDS {
        let store = store_for(seed);
        let first = run_once(&store);
        let second = run_once(&store);
        assert_eq!(first, second, "seed {seed}: double run diverged");
    }
}

/// The historic failure mode in isolation: many classes and clusters so
/// the contingency maps have enough entries for iteration order to
/// matter, scored repeatedly — every repetition must agree to the bit.
#[test]
fn the_ari_is_bit_stable_across_repeated_scoring() {
    for seed in 0..SEEDS {
        let mut rng_state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            // xorshift64*: cheap, deterministic, no RNG crate needed here.
            rng_state ^= rng_state >> 12;
            rng_state ^= rng_state << 25;
            rng_state ^= rng_state >> 27;
            rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut store = PointStore::new(1);
        let mut clusters: Vec<Vec<u64>> = vec![Vec::new(); 13];
        for i in 0..400u64 {
            let class = (next() % 11) as u32;
            let id = store.insert(&[i as f64], Some(class));
            clusters[(next() % 13) as usize].push(u64::from(id.0));
        }
        let reference = adjusted_rand_index(&store, &clusters).to_bits();
        for rep in 0..8 {
            let again = adjusted_rand_index(&store, &clusters).to_bits();
            assert_eq!(reference, again, "seed {seed}, repetition {rep}");
        }
    }
}
