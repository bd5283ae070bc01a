//! Records the delta-maintained clustering layer's savings profile to
//! `BENCH_delta.json` without the criterion harness (so it runs in
//! offline environments where the criterion dependency is stubbed).
//!
//! For every paper scenario plus a churn-heavy stress variant, the same
//! maintained summary is clustered two ways each epoch:
//!
//! * **full** — the from-scratch pipeline (`optics_bubbles_with` →
//!   `expand` → `cluster_tree`), which recomputes every pair
//!   neighborhood: its touched count per epoch is the slot count;
//! * **delta** — a [`DeltaEngine`] consuming the maintainer's change
//!   log, refreshing only the dirty neighborhoods and re-extracting
//!   only the changed tree components.
//!
//! The differential suite (`crates/delta/tests/equivalence.rs`) proves
//! the two produce bit-identical artifacts; this records what the delta
//! path saves, and where its time goes: the engine's per-stage counters
//! split each epoch into pair-cache refresh, live-matrix view, OPTICS
//! expansion, and extraction plus diff.
//!
//! Two floors are part of the layer's contract, and the run fails if
//! either is missed:
//!
//! * the delta path touches at least 2× fewer neighborhoods than full
//!   recompute overall;
//! * every refresh evaluates each touched unordered pair exactly once:
//!   `|D|·s − |D|(|D|+1)/2` representative distances for `|D|` touched
//!   slots out of `s`.
//!
//! Usage: `delta_report [output.json] [baseline.json]` (default
//! `BENCH_delta.json`). With a baseline — the same report written by an
//! earlier build on the same host — each scenario also records the
//! baseline's `delta_secs` and `full_secs` and the speedup against them.

use idb_clustering::{cluster_tree, optics_bubbles_with, ExtractParams};
use idb_core::{IncrementalBubbles, MaintainerConfig};
use idb_delta::{DeltaEngine, DeltaParams};
use idb_geometry::{Parallelism, SearchStats};
use idb_obs::Obs;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const DIM: usize = 2;
const POINTS: usize = 4_000;
const EPOCHS: usize = 20;
const MIN_PTS: usize = 6;
const MIN_CLUSTER: usize = 8;
const TARGET_BUBBLES: usize = 200;
const SCENARIO_SEED: u64 = 20_260_808;
const MAINT_SEED: u64 = 99;

struct ScenarioResult {
    name: String,
    epochs: usize,
    delta_secs: f64,
    full_secs: f64,
    delta_touched: u64,
    full_touched: u64,
    steady_delta_touched: u64,
    steady_full_touched: u64,
    pair_evals: u64,
    /// Summed microseconds of the engine's `STAGES` counters.
    stage_us: [u64; STAGES.len()],
}

/// The engine's per-stage time counters, in pipeline order, with the
/// names the report gives them.
const STAGES: [(&str, &str); 4] = [
    ("delta.refresh_us", "refresh"),
    ("delta.view_us", "live_view"),
    ("delta.expand_us", "expansion"),
    ("delta.extract_us", "extract_diff"),
];

/// Drives one scenario for [`EPOCHS`] epochs, timing the delta engine
/// against the from-scratch pipeline on identical maintained state.
fn run_scenario(name: &str, kind: ScenarioKind, churn: f64) -> ScenarioResult {
    let spec = ScenarioSpec::named(kind, DIM, POINTS, churn);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
    let mut store = scenario.populate(&mut srng);
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let mut bubbles = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(TARGET_BUBBLES),
        &mut mrng,
        &mut search,
    );
    let mut engine = DeltaEngine::new(DeltaParams {
        eps: f64::INFINITY,
        min_pts: MIN_PTS,
        extract: ExtractParams::with_min_size(MIN_CLUSTER),
        par: Parallelism::Serial,
    });
    let obs = Obs::metrics_only();
    engine.set_obs(obs.clone());
    let stage_counters = STAGES.map(|(counter, _)| obs.metrics().counter(counter));

    let mut out = ScenarioResult {
        name: name.to_string(),
        epochs: EPOCHS,
        delta_secs: 0.0,
        full_secs: 0.0,
        delta_touched: 0,
        full_touched: 0,
        steady_delta_touched: 0,
        steady_full_touched: 0,
        pair_evals: 0,
        stage_us: [0; STAGES.len()],
    };
    for epoch in 0..EPOCHS {
        if epoch > 0 {
            let batch = scenario.plan(&mut srng);
            let got = bubbles.apply_batch(&mut store, &batch, &mut search);
            scenario.confirm(&got);
            bubbles.maintain(&store, &mut mrng, &mut search);
        }

        let t0 = Instant::now();
        let report = engine.maintainer_epoch(&mut bubbles);
        out.delta_secs += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let scratch = optics_bubbles_with(
            bubbles.bubbles(),
            f64::INFINITY,
            MIN_PTS,
            Parallelism::Serial,
        );
        let plot = scratch.expand(|i| {
            bubbles.bubbles()[i]
                .members()
                .iter()
                .map(|id| u64::from(id.0))
                .collect::<Vec<u64>>()
        });
        let tree = cluster_tree(&plot, &ExtractParams::with_min_size(MIN_CLUSTER));
        out.full_secs += t1.elapsed().as_secs_f64();
        assert!(tree.range.1 >= tree.range.0, "scratch tree is well-formed");

        // Each touched unordered pair costs exactly one rep distance.
        let (d, s) = (report.touched, report.total);
        assert_eq!(
            report.pair_evals,
            d * s - d * (d + 1) / 2,
            "{name} epoch {epoch}: {d} touched of {s} slots"
        );
        out.pair_evals += report.pair_evals as u64;

        // A full recompute touches every tracked neighborhood.
        out.delta_touched += report.touched as u64;
        out.full_touched += report.total as u64;
        if epoch > 0 {
            out.steady_delta_touched += report.touched as u64;
            out.steady_full_touched += report.total as u64;
        }
    }
    for (total, counter) in out.stage_us.iter_mut().zip(&stage_counters) {
        *total = counter.get();
    }
    out
}

/// The number after `"key": ` in `line`, if any.
fn field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Per scenario name: the baseline report's `(delta_secs, full_secs)`.
fn read_baseline(path: &str) -> Vec<(String, f64, f64)> {
    let text = std::fs::read_to_string(path).expect("read baseline report");
    text.lines()
        .filter_map(|line| {
            let name = line.split("\"scenario\": \"").nth(1)?.split('"').next()?;
            Some((
                name.to_string(),
                field(line, "delta_secs")?,
                field(line, "full_secs")?,
            ))
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_delta.json".to_string());
    let baseline = args.next().map(|path| read_baseline(&path));

    let mut runs: Vec<(String, ScenarioKind, f64)> = ScenarioKind::all()
        .into_iter()
        .map(|k| (format!("{k:?}").to_lowercase(), k, 0.015))
        .collect();
    runs.push(("churn_heavy".to_string(), ScenarioKind::Complex, 0.08));

    let mut results = Vec::new();
    for (name, kind, churn) in runs {
        let r = run_scenario(&name, kind, churn);
        eprintln!(
            "{:<14} delta {:.4}s touched {:>6}  |  full {:.4}s touched {:>6}  ({:.1}x fewer)",
            r.name,
            r.delta_secs,
            r.delta_touched,
            r.full_secs,
            r.full_touched,
            r.full_touched as f64 / r.delta_touched.max(1) as f64,
        );
        let stages: Vec<String> = STAGES
            .iter()
            .zip(r.stage_us)
            .map(|((_, stage), us)| format!("{stage} {:.3}ms", us as f64 / 1e3 / r.epochs as f64))
            .collect();
        eprintln!("{:<14} per epoch: {}", "", stages.join(", "));
        results.push(r);
    }

    let delta_touched: u64 = results.iter().map(|r| r.delta_touched).sum();
    let full_touched: u64 = results.iter().map(|r| r.full_touched).sum();
    let savings = full_touched as f64 / delta_touched.max(1) as f64;
    eprintln!("overall: {savings:.2}x fewer touched neighborhoods than full recompute");
    assert!(
        full_touched >= 2 * delta_touched,
        "the delta layer's contract is >=2x fewer touched neighborhoods, got {savings:.2}x"
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"delta\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dim\": {DIM}, \"points\": {POINTS}, \"epochs\": {EPOCHS}, \"target_bubbles\": {TARGET_BUBBLES}, \"min_pts\": {MIN_PTS}, \"min_cluster_size\": {MIN_CLUSTER}}},"
    );
    json.push_str("  \"scenarios\": [\n");
    let count = results.len();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == count { "" } else { "," };
        let stages: Vec<String> = STAGES
            .iter()
            .zip(r.stage_us)
            .map(|((_, stage), us)| {
                format!("\"{stage}\": {:.6}", us as f64 / 1e6 / r.epochs as f64)
            })
            .collect();
        let versus = baseline
            .iter()
            .flatten()
            .find(|(name, _, _)| *name == r.name)
            .map_or_else(String::new, |(_, delta, full)| {
                format!(
                    ", \"baseline_delta_secs\": {delta:.6}, \"baseline_full_secs\": {full:.6}, \"delta_speedup\": {:.2}, \"full_speedup\": {:.2}",
                    delta / r.delta_secs,
                    full / r.full_secs
                )
            });
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"epochs\": {}, \"delta_secs\": {:.6}, \"full_secs\": {:.6}, \"delta_touched\": {}, \"full_touched\": {}, \"steady_delta_touched\": {}, \"steady_full_touched\": {}, \"touched_savings\": {:.3}, \"pair_evals\": {}, \"stage_secs_per_epoch\": {{{}}}{versus}}}{comma}",
            r.name,
            r.epochs,
            r.delta_secs,
            r.full_secs,
            r.delta_touched,
            r.full_touched,
            r.steady_delta_touched,
            r.steady_full_touched,
            r.full_touched as f64 / r.delta_touched.max(1) as f64,
            r.pair_evals,
            stages.join(", "),
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"overall_touched_savings\": {savings:.3},\n  \"note\": \"identical maintained state clustered both ways every epoch; outputs are bit-identical (crates/delta/tests/equivalence.rs), this records the work saved; touched counts include each run's first epoch, which resyncs and touches everything; delta_secs additionally covers delta derivation and subscription fanout, which the full pipeline does not provide; pair_evals counts one representative distance per touched unordered pair; stage_secs_per_epoch splits the engine's epoch (engine counters, microsecond resolution); baseline_* columns, when present, come from the same report built at an earlier commit and run on the same host\"\n}}"
    );
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
