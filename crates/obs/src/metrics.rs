//! Named monotonic counters and fixed-bucket latency histograms.
//!
//! The hot path is lock-free: handles are `Arc`-shared atomics updated
//! with relaxed ordering; the registry's mutex is touched only when a
//! metric is first named. Parallel sections never update shared metrics
//! directly — each worker accumulates into its own shard (for the
//! assignment engines that shard *is* the per-chunk `SearchStats`) and
//! the coordinator folds the shards into the registry **in chunk order**,
//! so `Parallelism::Threads(n)` produces bit-identical counter values to
//! `Parallelism::Serial`. Histogram *latency* observations are wall-clock
//! and therefore excluded from the bit-identity contract; counters and
//! value-distribution histograms (e.g. group-commit sizes) are covered.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram bucket upper bounds for latencies, in microseconds:
/// powers of four from 1µs to ~17s, plus an overflow bucket.
pub const LATENCY_BOUNDS_US: [u64; 13] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// A named monotonic counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the value buckets; one extra overflow bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let core = &*self.0;
        let i = core.bounds.partition_point(|&b| b < value);
        core.buckets[i].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Per-bucket observation counts (one overflow bucket past the last
    /// bound).
    #[must_use]
    pub fn buckets(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named counters and histograms.
///
/// Handles returned by [`MetricsRegistry::counter`] /
/// [`MetricsRegistry::histogram`] are cheap to clone and update the same
/// underlying cells, so hot paths should look a handle up once and hold
/// on to it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The latency histogram named `name` (bounds
    /// [`LATENCY_BOUNDS_US`]), created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &LATENCY_BOUNDS_US)
    }

    /// The histogram named `name` with explicit bucket bounds, created on
    /// first use. An existing histogram keeps its original bounds.
    #[must_use]
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// A name-sorted snapshot of every counter value — the deterministic
    /// slice of the registry (histogram latency observations are
    /// wall-clock).
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Renders every metric as plain text, one per line, sorted by name:
    ///
    /// ```text
    /// counter assign.pruned.computed 123456
    /// hist    wal.commit_us count=12 sum=3456 buckets=[le1:0 le4:1 ... inf:0]
    /// ```
    #[must_use]
    pub fn dump(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let _ = writeln!(out, "counter {name} {}", c.get());
        }
        for (name, h) in &inner.histograms {
            let _ = write!(out, "hist    {name} count={} sum={}", h.count(), h.sum());
            out.push_str(" buckets=[");
            let buckets = h.buckets();
            for (i, n) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                match h.bounds().get(i) {
                    Some(b) => {
                        let _ = write!(out, "le{b}:{n}");
                    }
                    None => {
                        let _ = write!(out, "inf:{n}");
                    }
                }
            }
            out.push_str("]\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_monotonic() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.calls");
        let b = reg.counter("x.calls");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x.calls").get(), 5);
        assert_eq!(reg.counters(), vec![("x.calls".to_string(), 5)]);
    }

    #[test]
    fn histogram_buckets_values_correctly() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("sizes", &[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1045);
        // le1: {0,1}, le4: {2,4}, le16: {5,16}, inf: {17,1000}
        assert_eq!(h.buckets(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn histogram_keeps_first_bounds() {
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram_with("h", &[10, 20]);
        let h2 = reg.histogram_with("h", &[1]);
        assert_eq!(h2.bounds(), &[10, 20]);
        h1.record(15);
        assert_eq!(h2.count(), 1);
    }

    #[test]
    fn dump_renders_sorted_plain_text() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.histogram_with("lat", &[1, 4]).record(3);
        let dump = reg.dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines[0], "counter a.first 1");
        assert_eq!(lines[1], "counter b.second 2");
        assert!(lines[2].starts_with("hist    lat count=1 sum=3"));
        assert!(lines[2].contains("le4:1"));
    }
}
