//! Bridges the per-query [`SearchStats`] accounting into the shared
//! metrics registry.
//!
//! The assignment engines already produce the paper's Figure 8–10
//! currency — computed / pruned / partially-evaluated candidate counts —
//! through caller-owned [`SearchStats`] accumulators, with per-worker
//! copies merged in chunk order by the parallel batch driver. This module
//! turns those numbers into named registry metrics, one family per
//! engine, so long-running deployments can watch them without threading
//! accumulators around:
//!
//! ```text
//! assign.<engine>.queries    nearest-seed searches answered
//! assign.<engine>.computed   full distance evaluations
//! assign.<engine>.pruned     candidates eliminated without a read
//! assign.<engine>.partial    evaluations rejected by the early-exit kernel
//! assign.<engine>.search_us  latency histogram of instrumented phases
//! ```
//!
//! Counter values inherit the bit-identity guarantee of the underlying
//! accounting: they are identical under `Parallelism::Serial` and
//! `Parallelism::Threads(n)`. The latency histogram is wall-clock and is
//! excluded from that contract.

use crate::assign::RepairStats;
use crate::stats::SearchStats;
use idb_obs::{Counter, Histogram, MetricsRegistry};

/// Registry handles for one assignment engine's search metrics.
#[derive(Debug, Clone)]
pub struct SearchMetrics {
    queries: Counter,
    computed: Counter,
    pruned: Counter,
    partial: Counter,
    latency: Histogram,
}

impl SearchMetrics {
    /// Looks up (creating on first use) the metric family
    /// `assign.<engine>.*` in `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry, engine: &str) -> Self {
        let name = |suffix: &str| format!("assign.{engine}.{suffix}");
        SearchMetrics {
            queries: registry.counter(&name("queries")),
            computed: registry.counter(&name("computed")),
            pruned: registry.counter(&name("pruned")),
            partial: registry.counter(&name("partial")),
            latency: registry.histogram(&name("search_us")),
        }
    }

    /// Folds one instrumented phase into the registry: `queries` searches
    /// whose accounting delta is `delta`, taking `us` microseconds of
    /// wall-clock.
    pub fn observe(&self, queries: u64, delta: &SearchStats, us: u64) {
        self.queries.add(queries);
        self.computed.add(delta.computed);
        self.pruned.add(delta.pruned);
        self.partial.add(delta.partial);
        self.latency.record(us);
    }
}

/// Registry handles for the seed-set structural-repair metrics
/// (DESIGN.md §15): how many neighbor-table entries the incremental repair
/// paths actually moved or wrote versus what a per-mutation re-sort of
/// every row would have written.
///
/// ```text
/// repair.<engine>.ops     structural seed mutations (push/replace/remove)
/// repair.<engine>.writes  neighbor-row entries moved or written
/// repair.<engine>.naive   entries a full per-mutation rebuild would write
/// ```
///
/// Like [`SearchMetrics`], values inherit the bit-identity guarantee: the
/// mutators run on the single thread driving the maintainer, so counts are
/// identical under every [`Parallelism`](crate::Parallelism) mode.
#[derive(Debug, Clone)]
pub struct RepairMetrics {
    ops: Counter,
    writes: Counter,
    naive: Counter,
}

impl RepairMetrics {
    /// Looks up (creating on first use) the metric family
    /// `repair.<engine>.*` in `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry, engine: &str) -> Self {
        let name = |suffix: &str| format!("repair.{engine}.{suffix}");
        RepairMetrics {
            ops: registry.counter(&name("ops")),
            writes: registry.counter(&name("writes")),
            naive: registry.counter(&name("naive")),
        }
    }

    /// Folds one structural phase into the registry: the repair
    /// accounting delta accumulated across its mutations.
    pub fn observe(&self, repair: &RepairStats) {
        self.ops.add(repair.ops);
        self.writes.add(repair.entries);
        self.naive.add(repair.naive_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observes_deltas_into_named_counters() {
        let registry = MetricsRegistry::new();
        let m = SearchMetrics::register(&registry, "pruned");
        let mut acc = SearchStats::new();
        let before = acc;
        acc.computed += 5;
        acc.pruned += 20;
        acc.partial += 3;
        m.observe(7, &acc.delta_since(&before), 42);
        let counters = registry.counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("assign.pruned.queries"), 7);
        assert_eq!(get("assign.pruned.computed"), 5);
        assert_eq!(get("assign.pruned.pruned"), 20);
        assert_eq!(get("assign.pruned.partial"), 3);
        assert_eq!(registry.histogram("assign.pruned.search_us").count(), 1);
    }

    #[test]
    fn registering_twice_shares_the_same_cells() {
        let registry = MetricsRegistry::new();
        let a = SearchMetrics::register(&registry, "brute");
        let b = SearchMetrics::register(&registry, "brute");
        a.observe(1, &SearchStats::new(), 0);
        b.observe(2, &SearchStats::new(), 0);
        let counters = registry.counters();
        let q = counters
            .iter()
            .find(|(n, _)| n == "assign.brute.queries")
            .unwrap();
        assert_eq!(q.1, 3);
    }

    #[test]
    fn repair_metrics_fold_deltas_into_named_counters() {
        let registry = MetricsRegistry::new();
        let m = RepairMetrics::register(&registry, "pruned");
        let repair = RepairStats {
            entries: 9,
            naive_entries: 100,
            ops: 3,
        };
        m.observe(&repair);
        let counters = registry.counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("repair.pruned.ops"), 3);
        assert_eq!(get("repair.pruned.writes"), 9);
        assert_eq!(get("repair.pruned.naive"), 100);
    }
}
