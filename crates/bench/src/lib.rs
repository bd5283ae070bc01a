//! The measurement harness behind the `*_report` binaries.
//!
//! Every wall-clock claim in the repository is a `*_report` binary that
//! writes a committed `BENCH_*.json` through this crate: the shared
//! fixtures, the pre-planned update stream, the 20k-point dynamic flow,
//! median timing, and the report's JSON lists and output file. Each
//! report records the paper's currency (distance computations, Fig.
//! 10/11) next to the seconds wherever the measured operation counts it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idb_core::{IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_geometry::SearchStats;
use idb_store::{Batch, PointStore};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

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

/// The complex-scenario store of [`complex_fixture`] and `batches`
/// pre-planned update steps over it. Each step is a batch and the seed of
/// the maintenance round that follows it. Planning runs against a copy of
/// the store, so every measured variant replays the identical workload
/// from the returned one.
#[must_use]
pub fn planned_stream(
    dim: usize,
    size: usize,
    seed: u64,
    batches: usize,
) -> (PointStore, Vec<(Batch, u64)>) {
    let (mut scenario, store, mut rng) = complex_fixture(dim, size, seed);
    let mut sim = store.clone();
    let steps = (0..batches)
        .map(|_| {
            let (batch, _) = scenario.step_plain(&mut sim, &mut rng);
            (batch, rng.gen::<u64>())
        })
        .collect();
    (store, steps)
}

/// The dynamic insert/delete flow at dimension `dim`: a complex scenario
/// of 20,000 points summarized by 200 bubbles (the build is not counted),
/// then five batches, each replacing 5% of the points, with a maintenance
/// round after each. Returns the maintainer and the five batches' distance
/// accounting.
#[must_use]
pub fn dynamic_flow(
    dim: usize,
    engine: SeedSearch,
    warm_start: bool,
) -> (IncrementalBubbles, SearchStats) {
    let (mut scenario, mut store, mut rng) = complex_fixture(dim, 20_000, 17);
    let config = MaintainerConfig::new(200)
        .with_seed_search(engine)
        .with_warm_start(warm_start);
    let mut ib = IncrementalBubbles::build(&store, config, &mut rng, &mut SearchStats::new());
    let mut stats = SearchStats::new();
    for _ in 0..5 {
        let batch = scenario.plan(&mut rng);
        let ids = ib.apply_batch(&mut store, &batch, &mut stats);
        scenario.confirm(&ids);
        ib.maintain(&store, &mut rng, &mut stats);
    }
    (ib, stats)
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

/// Median wall-clock seconds of `reps` runs of `f`, and the last run's
/// output.
///
/// # Panics
/// Panics if `reps` is zero.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    median_secs_with(reps, || (), |()| f())
}

/// Median wall-clock seconds of `reps` runs of `f`, each on a fresh
/// `setup()`, and the last run's output. Only `f` is timed: each output is
/// black-boxed, so the measured work cannot be elided, and dropped before
/// the next setup, so no run overlaps another's state.
///
/// # Panics
/// Panics if `reps` is zero.
pub fn median_secs_with<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let state = setup();
        let t0 = Instant::now();
        let out = black_box(f(state));
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(times), last.expect("at least one rep"))
}

/// A JSON list of pre-rendered `rows`, one per line at `indent` spaces,
/// with the closing bracket two spaces shallower:
/// `[\n    {..},\n    {..}\n  ]` at indent 4.
#[must_use]
pub fn json_list(indent: usize, rows: impl IntoIterator<Item = String>) -> String {
    let pad = " ".repeat(indent);
    let body: String = rows.into_iter().map(|r| format!(",\n{pad}{r}")).collect();
    let body = body.strip_prefix(',').unwrap_or("");
    format!("[{body}\n{}]", &pad[2.min(indent)..])
}

/// The number after `"key": ` in one JSON row of a report, if present —
/// how a report reads its own earlier output as a baseline.
#[must_use]
pub fn row_number(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Writes a report to its path — the first command-line argument, else
/// `default` — and names the file on stderr.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_report(default: &str, json: &str) {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| default.to_string());
    std::fs::write(&path, json).expect("write report");
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_survives_a_nan_sample() {
        assert_eq!(median(vec![3.0, f64::NAN, 1.0, 2.0, 0.5]), 2.0);
        assert_eq!(median(vec![2.0, 1.0]), 2.0);
        assert!(median(vec![f64::NAN]).is_nan());
    }

    #[test]
    fn json_list_joins_rows_without_a_trailing_comma() {
        let rows = ["{\"a\": 1}", "{\"a\": 2}"].map(String::from);
        assert_eq!(
            json_list(4, rows),
            "[\n    {\"a\": 1},\n    {\"a\": 2}\n  ]"
        );
        assert_eq!(json_list(4, Vec::new()), "[\n  ]");
    }

    /// The reports replay planned streams through
    /// `.expect("planned batches are valid")`; that holds only if the
    /// stream is reproducible and every step applies to the state the
    /// previous steps left.
    #[test]
    fn planned_stream_is_reproducible_and_every_step_applies() {
        let (mut store, steps) = planned_stream(2, 2_000, 31, 200);
        let (again_store, again) = planned_stream(2, 2_000, 31, 200);
        assert!(steps == again, "one seed must plan one stream");
        assert_eq!(store.len(), again_store.len());
        assert_eq!(steps.len(), 200);

        let mut stats = SearchStats::new();
        let mut rng = StdRng::seed_from_u64(8);
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(50), &mut rng, &mut stats);
        for (i, (batch, seed)) in steps.iter().enumerate() {
            ib.try_apply_batch(&mut store, batch, &mut stats)
                .unwrap_or_else(|e| panic!("step {i} does not apply: {e}"));
            ib.try_maintain(&store, &mut StdRng::seed_from_u64(*seed), &mut stats)
                .unwrap_or_else(|e| panic!("step {i} does not maintain: {e}"));
        }
        assert_eq!(ib.total_points(), store.len() as u64);
    }
}
