//! Shared configuration and the core incremental-vs-complete comparison
//! loop used by every experiment.

use idb_core::{IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_eval::{adjusted_rand_index, compactness_per_point, fscore, Aggregate};
use idb_geometry::SearchStats;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use incremental_data_bubbles::pipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Repetitions per configuration (the paper uses 10).
    pub reps: usize,
    /// Initial database size (the paper uses 50k–110k).
    pub size: usize,
    /// Number of data bubbles.
    pub num_bubbles: usize,
    /// Update batches per run.
    pub batches: usize,
    /// Fraction of the database deleted and inserted per batch.
    pub update_fraction: f64,
    /// OPTICS MinPts.
    pub min_pts: usize,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
}

impl RunConfig {
    /// Fast defaults for a laptop sanity run (minutes).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            reps: 3,
            size: 20_000,
            num_bubbles: 200,
            batches: 10,
            update_fraction: 0.05,
            min_pts: 10,
            seed: 20_040_613,
            out_dir: "results".into(),
        }
    }

    /// Paper-scale defaults (50k+ points, 10 repetitions).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            reps: 10,
            size: 60_000,
            num_bubbles: 300,
            ..Self::quick()
        }
    }

    /// Minimum extracted-cluster size: 0.5 % of the database, at least
    /// MinPts (the extraction default the evaluation uses).
    #[must_use]
    pub fn min_cluster_size(&self) -> usize {
        (self.size / 200).max(self.min_pts)
    }
}

/// Per-repetition outcome of the two schemes on one dynamic run.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Mean-over-batches F-score of the incremental scheme.
    pub f_incremental: f64,
    /// Mean-over-batches F-score of complete rebuilds.
    pub f_complete: f64,
    /// Mean-over-batches Adjusted Rand Index of the incremental scheme.
    pub ari_incremental: f64,
    /// Mean-over-batches Adjusted Rand Index of complete rebuilds.
    pub ari_complete: f64,
    /// Mean-over-batches compactness (per point) of the incremental scheme.
    pub compact_incremental: f64,
    /// Mean-over-batches compactness of complete rebuilds.
    pub compact_complete: f64,
    /// Mean-over-batches fraction of bubbles rebuilt per maintenance round.
    pub rebuilt_fraction: f64,
    /// Mean-over-batches fraction of the incremental scheme's per-batch
    /// point-to-seed comparisons that never needed a full distance
    /// computation: Lemma 1 prunes plus bound-rejected partial
    /// evaluations.
    pub avoided_fraction: f64,
    /// Mean-over-batches fraction pruned by Lemma 1 alone — the Figure 10
    /// quantity in the paper's currency.
    pub pruned_fraction: f64,
    /// Mean-over-batches fraction of partial evaluations: started, then
    /// rejected by the early-exit kernel's bound.
    pub partial_fraction: f64,
    /// Mean-over-batches distance saving factor (complete rebuild without
    /// triangle inequality vs. incremental with it), partial evaluations
    /// counted as free.
    pub saving_factor: f64,
    /// The same factor with partial evaluations counted as computed — the
    /// Figure 11 quantity in the paper's currency.
    pub saving_factor_with_partials: f64,
}

/// Runs one repetition of `kind` in `dim` dimensions, evaluating both
/// schemes after every batch.
pub fn run_rep(kind: ScenarioKind, dim: usize, cfg: &RunConfig, rep: usize) -> RepOutcome {
    run_rep_with(kind, dim, cfg, rep, true)
}

/// [`run_rep`] with quality evaluation optional: the distance-accounting
/// figures (9, 10, 11) only need the bookkeeping metrics, and skipping the
/// per-batch complete rebuild + OPTICS + F-score makes their parameter
/// sweeps much cheaper.
pub fn run_rep_with(
    kind: ScenarioKind,
    dim: usize,
    cfg: &RunConfig,
    rep: usize,
    evaluate_quality: bool,
) -> RepOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(rep as u64 * 7919));
    let spec = ScenarioSpec::named(kind, dim, cfg.size, cfg.update_fraction);
    let mut engine = ScenarioEngine::new(spec);
    let mut store = engine.populate(&mut rng);

    let mut build_stats = SearchStats::new();
    let mut incremental = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(cfg.num_bubbles),
        &mut rng,
        &mut build_stats,
    );

    let mcs = cfg.min_cluster_size();
    let mut f_inc = Aggregate::new();
    let mut f_com = Aggregate::new();
    let mut ari_inc = Aggregate::new();
    let mut ari_com = Aggregate::new();
    let mut c_inc = Aggregate::new();
    let mut c_com = Aggregate::new();
    let mut rebuilt = Aggregate::new();
    let mut avoided = Aggregate::new();
    let mut pruned = Aggregate::new();
    let mut partial = Aggregate::new();
    let mut saving = Aggregate::new();
    let mut saving_with_partials = Aggregate::new();

    for _ in 0..cfg.batches {
        let batch = engine.plan(&mut rng);
        let mut batch_stats = SearchStats::new();
        let new_ids = incremental.apply_batch(&mut store, &batch, &mut batch_stats);
        let report = incremental.maintain(&store, &mut rng, &mut batch_stats);
        engine.confirm(&new_ids);

        rebuilt.push(report.rebuilt_bubbles as f64 / cfg.num_bubbles as f64);
        avoided.push(batch_stats.avoided_fraction());
        pruned.push(batch_stats.pruned_fraction());
        partial.push(batch_stats.partial as f64 / batch_stats.total().max(1) as f64);
        let (n, s) = (store.len() as u64, cfg.num_bubbles as u64);
        saving.push(idb_eval::distance_saving_factor(n, s, batch_stats));
        let paid = SearchStats {
            computed: batch_stats.computed + batch_stats.partial,
            partial: 0,
            ..batch_stats
        };
        saving_with_partials.push(idb_eval::distance_saving_factor(n, s, paid));

        if evaluate_quality {
            // Incremental clustering quality.
            let outcome = pipeline::cluster_bubbles(&incremental, cfg.min_pts, mcs);
            f_inc.push(fscore(&store, &outcome.clusters).overall);
            ari_inc.push(adjusted_rand_index(&store, &outcome.clusters));
            c_inc.push(compactness_per_point(&incremental, &store));

            // Complete rebuild baseline on the identical store contents.
            let mut rebuild_stats = SearchStats::new();
            let complete = IncrementalBubbles::build(
                &store,
                MaintainerConfig::new(cfg.num_bubbles).with_seed_search(SeedSearch::Brute),
                &mut rng,
                &mut rebuild_stats,
            );
            let outcome = pipeline::cluster_bubbles(&complete, cfg.min_pts, mcs);
            f_com.push(fscore(&store, &outcome.clusters).overall);
            ari_com.push(adjusted_rand_index(&store, &outcome.clusters));
            c_com.push(compactness_per_point(&complete, &store));
        }
    }

    RepOutcome {
        f_incremental: f_inc.mean(),
        f_complete: f_com.mean(),
        ari_incremental: ari_inc.mean(),
        ari_complete: ari_com.mean(),
        compact_incremental: c_inc.mean(),
        compact_complete: c_com.mean(),
        rebuilt_fraction: rebuilt.mean(),
        avoided_fraction: avoided.mean(),
        pruned_fraction: pruned.mean(),
        partial_fraction: partial.mean(),
        saving_factor: saving.mean(),
        saving_factor_with_partials: saving_with_partials.mean(),
    }
}

/// Formats a float with four decimals (the paper's table precision).
#[must_use]
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with one decimal.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}
