//! Configuration of the incremental maintainer.

pub use idb_geometry::{Parallelism, SeedSearch};

/// Which compression-quality measure classifies the bubbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityKind {
    /// The data summarization index `β = n/N` (Definition 2) — the paper's
    /// proposed measure.
    Beta,
    /// The spatial extent, as implied by BIRCH-style thresholds — the
    /// alternative the paper shows to fail to adapt (Figure 7).
    Extent,
}

/// How the two seeds of a split are chosen from the over-filled bubble's
/// members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitSeedPolicy {
    /// Two distinct members chosen uniformly at random (the paper).
    Random,
    /// First seed random, second seed the member farthest from it — an
    /// ablation that spreads the split more aggressively.
    Spread,
}

/// Tuning knobs of [`IncrementalBubbles`](crate::incremental::IncrementalBubbles).
#[derive(Debug, Clone)]
pub struct MaintainerConfig {
    /// Number of data bubbles (the compression rate `s`).
    pub num_bubbles: usize,
    /// Chebyshev coverage probability `p` of Definition 3 (the paper uses
    /// 0.9 and validates 0.8); determines `k = 1/sqrt(1-p)`.
    pub probability: f64,
    /// Nearest-seed engine for construction, insertion and redistribution:
    /// brute force, triangle-inequality pruning over the seed neighbor
    /// rows (Section 3, Figure 2), or a k-d tree over the seeds. Every
    /// engine returns bit-identical assignments; they differ only in how
    /// many distance computations they spend.
    pub seed_search: SeedSearch,
    /// Whether the maintainer passes warm-start hints (the point's previous
    /// bubble, a merged bubble's nearest surviving neighbour, the last
    /// insertion target) to the pruned engines. Hints never change results
    /// — disabling this is an ablation knob that isolates their effect on
    /// the distance-computation counters.
    pub warm_start: bool,
    /// Quality measure used by [`maintain`](crate::incremental::IncrementalBubbles::maintain).
    pub quality: QualityKind,
    /// Split seed selection policy.
    pub split_seeds: SplitSeedPolicy,
    /// How the bulk hot paths (construction scan, released-point
    /// reassignment, split redistribution, invariant audit) spread over
    /// threads. Every mode produces bit-identical results — including the
    /// distance-computation counts — so this is purely a wall-clock knob.
    pub parallelism: Parallelism,
}

impl MaintainerConfig {
    /// Paper defaults: triangle-inequality (pruned) assignment with
    /// warm-start hints, β quality measure at `p = 0.9`, random split
    /// seeds, serial execution. Every other choice is made explicitly with
    /// the `with_*` builders; nothing is read from the environment.
    #[must_use]
    pub fn new(num_bubbles: usize) -> Self {
        assert!(num_bubbles >= 2, "at least two bubbles are required");
        Self {
            num_bubbles,
            probability: 0.9,
            seed_search: SeedSearch::Pruned,
            warm_start: true,
            quality: QualityKind::Beta,
            split_seeds: SplitSeedPolicy::Random,
            parallelism: Parallelism::Serial,
        }
    }

    /// Sets the Chebyshev probability.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
        self.probability = p;
        self
    }

    /// Sets the nearest-seed search engine.
    #[must_use]
    pub fn with_seed_search(mut self, engine: SeedSearch) -> Self {
        self.seed_search = engine;
        self
    }

    /// Enables or disables warm-start hints on the assignment paths.
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Sets the quality measure.
    #[must_use]
    pub fn with_quality(mut self, quality: QualityKind) -> Self {
        self.quality = quality;
        self
    }

    /// Sets the split seed policy.
    #[must_use]
    pub fn with_split_seeds(mut self, policy: SplitSeedPolicy) -> Self {
        self.split_seeds = policy;
        self
    }

    /// Sets the parallel execution mode for the bulk hot paths.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MaintainerConfig::new(100);
        assert_eq!(c.num_bubbles, 100);
        assert_eq!(c.probability, 0.9);
        assert_eq!(c.seed_search, SeedSearch::Pruned);
        assert!(c.warm_start);
        assert_eq!(c.quality, QualityKind::Beta);
        assert_eq!(c.split_seeds, SplitSeedPolicy::Random);
        assert_eq!(c.parallelism, Parallelism::Serial);
    }

    #[test]
    fn builder_methods_chain() {
        let c = MaintainerConfig::new(50)
            .with_probability(0.8)
            .with_seed_search(SeedSearch::Brute)
            .with_warm_start(false)
            .with_quality(QualityKind::Extent)
            .with_split_seeds(SplitSeedPolicy::Spread)
            .with_parallelism(Parallelism::Threads(3));
        assert_eq!(c.probability, 0.8);
        assert_eq!(c.seed_search, SeedSearch::Brute);
        assert!(!c.warm_start);
        assert_eq!(c.quality, QualityKind::Extent);
        assert_eq!(c.split_seeds, SplitSeedPolicy::Spread);
        assert_eq!(c.parallelism, Parallelism::Threads(3));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_few_bubbles_panics() {
        let _ = MaintainerConfig::new(1);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = MaintainerConfig::new(10).with_probability(1.0);
    }
}
