//! Shared fixtures for the Criterion benchmarks and the `*_report`
//! binaries.
//!
//! Each bench target maps to one of the paper's efficiency claims (see
//! DESIGN.md): the benches re-measure in wall-clock what the experiment
//! harness measures in distance computations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idb_store::PointStore;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic complex-scenario engine and populated store.
#[must_use]
pub fn complex_fixture(dim: usize, size: usize, seed: u64) -> (ScenarioEngine, PointStore, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = ScenarioSpec::named(ScenarioKind::Complex, dim, size, 0.05);
    let mut engine = ScenarioEngine::new(spec);
    let store = engine.populate(&mut rng);
    (engine, store, rng)
}

/// A deterministic random-scenario store (static content).
#[must_use]
pub fn random_fixture(dim: usize, size: usize, seed: u64) -> (PointStore, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = ScenarioSpec::named(ScenarioKind::Random, dim, size, 0.05);
    let mut engine = ScenarioEngine::new(spec);
    let store = engine.populate(&mut rng);
    (store, rng)
}

/// The median of `samples` (the upper median for an even count). Sorts
/// with [`f64::total_cmp`], so a NaN sample — a timer that misbehaved —
/// sorts past every number instead of panicking the report.
///
/// # Panics
/// Panics if `samples` is empty.
#[must_use]
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_survives_a_nan_sample() {
        assert_eq!(median(vec![3.0, f64::NAN, 1.0, 2.0, 0.5]), 2.0);
        assert_eq!(median(vec![2.0, 1.0]), 2.0);
        assert!(median(vec![f64::NAN]).is_nan());
    }
}
