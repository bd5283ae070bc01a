//! Accounting of distance computations.
//!
//! The paper evaluates the triangle-inequality optimization (Figure 10) and
//! the incremental-vs-rebuild speedup (Figure 11) in terms of *distance
//! computations performed* and *distance computations pruned*. Every search
//! routine in this workspace therefore threads a mutable [`SearchStats`]
//! accumulator through its hot loop, so the experiment harness can report
//! exactly the quantities the paper plots.

use std::ops::AddAssign;

/// Counter of point-to-seed distance computations performed and avoided.
///
/// `computed` counts full Euclidean distance evaluations between a query
/// point and a candidate seed. `pruned` counts candidate seeds that were
/// eliminated — by the triangle inequality (Lemma 1) or a k-d subtree cut —
/// *without* touching their coordinates at all. `partial` counts candidates
/// whose evaluation the bounded kernel
/// ([`sq_dist_bounded`](crate::metric::sq_dist_bounded)) rejected because
/// their squared distance exceeds the current best. Every candidate a search
/// considers lands in exactly one bucket, so
/// `computed + pruned + partial` equals the number of full distance
/// computations a brute-force search would have performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Point–seed distances evaluated to full dimensionality.
    pub computed: u64,
    /// Point–seed distances avoided entirely (triangle inequality or
    /// k-d subtree cut): the candidate's coordinates were never read.
    pub pruned: u64,
    /// Point–seed distance evaluations rejected by the bound of the
    /// early-exit kernel. The count depends on the bound alone; how many
    /// axes a rejection reads is the kernel's check cadence (one check per
    /// 16 lanes plus the final compare, so all of them below d = 16, as
    /// they always were at d ≤ 3).
    pub partial: u64,
}

impl SearchStats {
    /// A fresh, zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total candidates considered (`computed + pruned + partial`); equals
    /// the cost of the brute-force baseline on the same queries.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.computed + self.pruned + self.partial
    }

    /// Fraction of candidate distances that were pruned outright, in
    /// `[0, 1]` — the quantity Figure 10 of the paper plots. Partial
    /// evaluations count toward the denominator but not the numerator, so
    /// the value stays a conservative lower bound on the avoided work.
    ///
    /// Returns `0.0` when no candidate was considered at all, so the value
    /// is always finite.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }

    /// Fraction of candidates whose full-dimensionality evaluation was
    /// avoided (`(pruned + partial) / total`), in `[0, 1]`: the combined
    /// effect of Lemma 1 pruning and the early-exit kernel.
    ///
    /// Returns `0.0` when no candidate was considered at all.
    #[must_use]
    pub fn avoided_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.pruned + self.partial) as f64 / total as f64
        }
    }

    /// Resets all counters to zero, keeping the allocation-free value type
    /// reusable across experiment phases.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The counter deltas accumulated since `before` was snapshotted —
    /// how instrumented phases attribute search work to one operation on
    /// a long-lived accumulator.
    ///
    /// # Panics
    /// Panics (in debug builds) if `before` is not an earlier snapshot of
    /// this accumulator; counters are monotonic.
    #[must_use]
    pub fn delta_since(&self, before: &SearchStats) -> SearchStats {
        debug_assert!(
            self.computed >= before.computed
                && self.pruned >= before.pruned
                && self.partial >= before.partial,
            "delta_since requires an earlier snapshot of the same accumulator"
        );
        SearchStats {
            computed: self.computed - before.computed,
            pruned: self.pruned - before.pruned,
            partial: self.partial - before.partial,
        }
    }
}

impl AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.computed += rhs.computed;
        self.pruned += rhs.pruned;
        self.partial += rhs.partial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = SearchStats::new();
        assert_eq!(s.computed, 0);
        assert_eq!(s.pruned, 0);
        assert_eq!(s.partial, 0);
        assert_eq!(s.total(), 0);
        assert_eq!(s.pruned_fraction(), 0.0);
        assert_eq!(s.avoided_fraction(), 0.0);
    }

    #[test]
    fn pruned_fraction_is_ratio_of_total() {
        let s = SearchStats {
            computed: 15,
            pruned: 75,
            partial: 10,
        };
        assert_eq!(s.total(), 100);
        assert!((s.pruned_fraction() - 0.75).abs() < 1e-12);
        assert!((s.avoided_fraction() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = SearchStats {
            computed: 1,
            pruned: 2,
            partial: 3,
        };
        a += SearchStats {
            computed: 10,
            pruned: 20,
            partial: 30,
        };
        assert_eq!(
            a,
            SearchStats {
                computed: 11,
                pruned: 22,
                partial: 33,
            }
        );
    }

    #[test]
    fn reset_zeroes() {
        let mut s = SearchStats {
            computed: 5,
            pruned: 7,
            partial: 9,
        };
        s.reset();
        assert_eq!(s, SearchStats::default());
    }
}
