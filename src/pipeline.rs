//! High-level convenience pipeline: summary → OPTICS → flat clusters.
//!
//! Wires together the steps the paper's evaluation performs after every
//! batch of updates, so applications (and the experiment harness) don't
//! repeat the plumbing: run OPTICS over the live bubbles, expand the
//! ordering with virtual reachability into a point-level plot, extract
//! clusters with the Sander et al. cluster-tree method.

use idb_clustering::{extract_clusters, optics_bubbles, ExtractParams, ReachabilityPlot};
use idb_core::{DataSummary, IncrementalBubbles};

// (cluster_sample below additionally uses idb_clustering::optics_points and
// idb_store through full paths, to keep the top-level imports minimal.)

/// Everything the clustering step produces.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The expanded, point-level reachability plot.
    pub plot: ReachabilityPlot,
    /// Extracted flat clusters as raw point ids.
    pub clusters: Vec<Vec<u64>>,
}

/// Clusters the current bubble population: OPTICS over the non-empty
/// bubbles (`eps = ∞`, the full hierarchy), virtual-reachability
/// expansion, cluster-tree extraction with `min_cluster_size` — that is,
/// [`cluster_summaries`] over the bubbles with their member ids.
#[must_use]
pub fn cluster_bubbles(
    bubbles: &IncrementalBubbles,
    min_pts: usize,
    min_cluster_size: usize,
) -> ClusterOutcome {
    cluster_summaries(bubbles.bubbles(), min_pts, min_cluster_size, move |i| {
        bubbles.bubble(i).members().iter().map(|id| u64::from(id.0))
    })
}

/// Clusters an arbitrary summary set (e.g. BIRCH CF leaves) the same way.
/// `members(i)` must yield the point ids summarized by summary `i` — when
/// the summarization doesn't track memberships (BIRCH does not), pass
/// synthetic ids and score at the summary level instead.
#[must_use]
pub fn cluster_summaries<S, F, I>(
    summaries: &[S],
    min_pts: usize,
    min_cluster_size: usize,
    members: F,
) -> ClusterOutcome
where
    S: DataSummary + Sync,
    F: FnMut(usize) -> I,
    I: IntoIterator<Item = u64>,
{
    let ordering = optics_bubbles(summaries, f64::INFINITY, min_pts);
    let plot = ordering.expand(members);
    let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(min_cluster_size));
    ClusterOutcome { plot, clusters }
}

/// The random-sampling baseline: cluster a uniform sample of the database
/// directly with point-level OPTICS (the naive compression data bubbles
/// were introduced to beat — a small sample under-represents small
/// clusters and carries no density information about the points it
/// dropped).
///
/// Returns the outcome (cluster ids refer to the *original* store) plus
/// the sample as its own store, so callers can score at sample level.
pub fn cluster_sample<R: rand::Rng + ?Sized>(
    store: &idb_store::PointStore,
    sample_size: usize,
    min_pts: usize,
    min_cluster_size: usize,
    rng: &mut R,
) -> (ClusterOutcome, idb_store::PointStore) {
    let ids = store.sample_distinct(sample_size, rng);
    let mut sample = idb_store::PointStore::with_capacity(store.dim(), ids.len());
    // Fresh stores assign slots sequentially, so slot i of the sample maps
    // back to ids[i].
    for &id in &ids {
        sample.insert(store.point(id), store.label(id));
    }
    let plot = idb_clustering::optics_points(&sample, f64::INFINITY, min_pts);
    let translated = ReachabilityPlot::from_entries(
        plot.entries()
            .iter()
            .map(|e| idb_clustering::PlotEntry {
                id: u64::from(ids[e.id as usize].0),
                reachability: e.reachability,
            })
            .collect(),
    );
    let clusters = extract_clusters(&translated, &ExtractParams::with_min_size(min_cluster_size));
    (
        ClusterOutcome {
            plot: translated,
            clusters,
        },
        sample,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use idb_core::MaintainerConfig;
    use idb_geometry::SearchStats;
    use idb_synth::{ClusterModel, MixtureModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tiny cluster that a 5 % random sample nearly erases but that the
    /// bubble summarization keeps — the motivating contrast for data
    /// bubbles over sampling.
    ///
    /// Asserts the paper-level invariant — a cluster dominated by the 1 %
    /// population survives summarization but not a 400-point sample — not
    /// any exact partition, which depends on the RNG stream. Each stage
    /// draws from its own seeded RNG so a change in one stage's
    /// consumption cannot perturb the others.
    #[test]
    fn small_cluster_survives_bubbles_but_not_tiny_sample() {
        let model = MixtureModel::new(
            2,
            vec![
                ClusterModel::new(vec![20.0, 20.0], 2.0),
                ClusterModel::new(vec![80.0, 80.0], 2.0),
            ],
            0.0,
            (0.0, 100.0),
        );
        let mut store = model.populate(8_000, &mut StdRng::seed_from_u64(1234));
        // A small but real third cluster: 1 % of the data, label 2.
        let small = 80usize;
        for i in 0..small {
            let t = i as f64 * 0.08;
            store.insert(&[60.0 + t.sin(), 10.0 + t.cos()], Some(2));
        }
        // Points of the small cluster held by `cluster`, as
        // (held, cluster size).
        let label2_share = |cluster: &[u64]| -> (usize, usize) {
            let held = cluster
                .iter()
                .filter(|&&id| store.label(idb_store::PointId(id as u32)) == Some(2))
                .count();
            (held, cluster.len())
        };

        // 200 bubbles ≈ 40 points per bubble: enough summarization
        // resolution that the 80-point cluster occupies its own bubbles
        // (the paper sizes its bubble populations the same way).
        let mut search = SearchStats::new();
        let ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(200),
            &mut StdRng::seed_from_u64(1000),
            &mut search,
        );
        let bubble_outcome = cluster_bubbles(&ib, 6, 40);
        // The big clusters are found...
        assert!(
            bubble_outcome.clusters.len() >= 2,
            "expected at least the two big clusters, got {}",
            bubble_outcome.clusters.len()
        );
        // ...and the 1 % cluster survives: some extracted cluster holds the
        // majority of its points and consists mostly of them.
        let survived = bubble_outcome.clusters.iter().any(|c| {
            let (held, size) = label2_share(c);
            held * 2 > small && held * 2 > size
        });
        assert!(
            survived,
            "bubbles lost the 1 % cluster: {:?}",
            bubble_outcome
                .clusters
                .iter()
                .map(|c| label2_share(c))
                .collect::<Vec<_>>()
        );

        let (sample_outcome, sample) =
            cluster_sample(&store, 400, 6, 40, &mut StdRng::seed_from_u64(4321));
        assert_eq!(sample.len(), 400);
        // A 400-point sample holds ~4 of the small cluster's points — far
        // below the extraction minimum, so no extracted cluster can be
        // dominated by it.
        let sample_kept = sample_outcome.clusters.iter().any(|c| {
            let (held, size) = label2_share(c);
            held * 2 > size
        });
        assert!(!sample_kept, "a tiny sample cannot keep the 1 % cluster");
        // Sample cluster ids refer to the original store.
        for c in &sample_outcome.clusters {
            for &id in c {
                assert!(store.contains(idb_store::PointId(id as u32)));
            }
        }
    }

    #[test]
    fn cluster_bubbles_finds_generated_structure() {
        let model = MixtureModel::new(
            2,
            vec![
                ClusterModel::new(vec![10.0, 10.0], 1.5),
                ClusterModel::new(vec![90.0, 90.0], 1.5),
            ],
            0.0,
            (0.0, 100.0),
        );
        let mut rng = StdRng::seed_from_u64(31);
        let store = model.populate(1_000, &mut rng);
        let mut search = SearchStats::new();
        let ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(20), &mut rng, &mut search);
        let outcome = cluster_bubbles(&ib, 6, 40);
        assert_eq!(outcome.clusters.len(), 2);
        assert_eq!(outcome.plot.len(), store.len());
    }
}
