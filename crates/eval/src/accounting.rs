//! Distance-computation accounting (Figures 10 and 11).
//!
//! The paper measures the benefit of its two efficiency contributions in
//! distance computations, the dominant cost of data summarization:
//!
//! * **Figure 10** — the fraction of point-to-seed distance computations
//!   pruned by the triangle inequality, available directly from
//!   [`SearchStats::pruned_fraction`](idb_geometry::SearchStats).
//! * **Figure 11** — the *distance saving factor*: how many distance
//!   computations a complete rebuild **without** triangle inequalities
//!   performs for every computation the incremental scheme **with**
//!   triangle inequalities performs over the same batch.
//!
//! Only fully evaluated distances ([`SearchStats::computed`]) count toward
//! the incremental side of the factor: partial evaluations
//! ([`SearchStats::partial`]), rejected by the early-exit kernel's bound,
//! are deliberately excluded, keeping the factor conservative.

use idb_geometry::SearchStats;

/// Distance computations of one complete rebuild without triangle
/// inequalities: every one of the `n` points is compared against all `s`
/// seeds.
#[must_use]
pub fn rebuild_cost(n: u64, s: u64) -> u64 {
    n * s
}

/// The Figure 11 saving factor: `rebuild_cost / incremental.computed`.
///
/// Returns `f64::INFINITY` when the incremental scheme performed no
/// distance computation at all (e.g. a deletion-only batch with no
/// maintenance).
#[must_use]
pub fn distance_saving_factor(n: u64, s: u64, incremental: SearchStats) -> f64 {
    if incremental.computed == 0 {
        f64::INFINITY
    } else {
        rebuild_cost(n, s) as f64 / incremental.computed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_cost_is_n_times_s() {
        assert_eq!(rebuild_cost(100_000, 200), 20_000_000);
        assert_eq!(rebuild_cost(0, 200), 0);
    }

    #[test]
    fn saving_factor_ratio() {
        let inc = SearchStats {
            computed: 50_000,
            pruned: 150_000,
            partial: 0,
        };
        let f = distance_saving_factor(100_000, 100, inc);
        assert!((f - 200.0).abs() < 1e-12);
    }

    #[test]
    fn partial_evaluations_do_not_shrink_the_factor() {
        // Partials are rejected by the early-exit kernel's bound; only
        // full computations count against the incremental scheme.
        let full_only = SearchStats {
            computed: 50_000,
            pruned: 150_000,
            partial: 0,
        };
        let with_partials = SearchStats {
            computed: 50_000,
            pruned: 100_000,
            partial: 50_000,
        };
        assert_eq!(
            distance_saving_factor(100_000, 100, full_only),
            distance_saving_factor(100_000, 100, with_partials),
        );
    }

    #[test]
    fn zero_incremental_work_is_infinite_saving() {
        let inc = SearchStats::default();
        assert!(distance_saving_factor(1000, 10, inc).is_infinite());
    }

    #[test]
    fn factor_shrinks_with_update_size() {
        // Fixed database, growing batches: the incremental side computes
        // proportionally more, the rebuild stays constant.
        let n = 100_000u64;
        let s = 100u64;
        let small = SearchStats {
            computed: 2_000 * 30,
            pruned: 0,
            partial: 0,
        };
        let large = SearchStats {
            computed: 10_000 * 30,
            pruned: 0,
            partial: 0,
        };
        assert!(distance_saving_factor(n, s, small) > distance_saving_factor(n, s, large));
    }
}
