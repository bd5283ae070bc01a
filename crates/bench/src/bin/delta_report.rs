//! Records the delta-maintained clustering layer's epoch profile to
//! `BENCH_delta.json` without the criterion harness (so it runs in
//! offline environments where the criterion dependency is stubbed).
//!
//! For every paper scenario at `s` = 200 bubbles, a churn-heavy stress
//! variant, and a `many_bubbles` case at the stackbench workload's scale
//! (`s` = 2,000 bubbles of about 10 points each, where OPTICS dominates
//! the epoch), the same maintained summary is clustered two ways each
//! epoch:
//!
//! * **full** — the from-scratch pipeline (`optics_bubbles` →
//!   `expand` → `cluster_tree`);
//! * **delta** — a [`DeltaEngine`] epoch: the same pipeline plus the
//!   cluster-tree diff into typed deltas with stable ids.
//!
//! The engine's per-stage counters split each epoch into OPTICS (the
//! distance rows and the walk), extraction (plot and tree) and the
//! cross-epoch tree diff; `delta_secs − full_secs` is what identity
//! maintenance costs.
//!
//! Two checks run after every epoch, and the run fails if either is
//! missed:
//!
//! * the engine's provenance, reachability, virtual-reachability, plot
//!   and tree bits equal the full pipeline's;
//! * the delta stream replayed into a [`TreeReplica`] equals the
//!   engine's own `clusters()` view.
//!
//! Usage: `delta_report [output.json] [baseline.json]` (default
//! `BENCH_delta.json`). With a baseline — the same report written by an
//! earlier build on the same host — each scenario also records the
//! baseline's `delta_secs` and `full_secs` and the speedup against them.

use idb_clustering::{
    cluster_tree, optics_bubbles, ClusterNode, ExtractParams, MergedRef, ReachabilityPlot,
};
use idb_core::{IncrementalBubbles, MaintainerConfig};
use idb_delta::{DeltaEngine, DeltaParams, TreeReplica};
use idb_geometry::SearchStats;
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
/// The `many_bubbles` case: stackbench's workload of that name clusters
/// about 2,000 bubbles of about 10 points each.
const MANY_POINTS: usize = 20_000;
const MANY_BUBBLES: usize = 2_000;
const SCENARIO_SEED: u64 = 20_260_808;
const MAINT_SEED: u64 = 99;

struct ScenarioResult {
    name: String,
    points: usize,
    target_bubbles: usize,
    epochs: usize,
    delta_secs: f64,
    full_secs: f64,
    /// Summed microseconds of the engine's `STAGES` counters.
    stage_us: [u64; STAGES.len()],
}

/// The engine's per-stage time counters, in pipeline order, with the
/// names the report gives them.
const STAGES: [(&str, &str); 3] = [
    ("delta.optics_us", "optics"),
    ("delta.extract_us", "extract"),
    ("delta.diff_us", "diff"),
];

/// Preorder tree serialization: range, split-value bits, child count.
fn tree_bits(node: &ClusterNode, out: &mut Vec<(usize, usize, u64, usize)>) {
    out.push((
        node.range.0,
        node.range.1,
        node.split_value.map_or(u64::MAX, f64::to_bits),
        node.children.len(),
    ));
    for c in &node.children {
        tree_bits(c, out);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One scenario: name, generator, churn per batch, points and target
/// bubble count.
type Case = (String, ScenarioKind, f64, usize, usize);

/// Drives one scenario for [`EPOCHS`] epochs, timing the delta engine
/// against the from-scratch pipeline on identical maintained state.
fn run_scenario((name, kind, churn, points, target_bubbles): &Case) -> ScenarioResult {
    let spec = ScenarioSpec::named(*kind, DIM, *points, *churn);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
    let mut store = scenario.populate(&mut srng);
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let mut bubbles = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(*target_bubbles),
        &mut mrng,
        &mut search,
    );
    let mut engine = DeltaEngine::new(DeltaParams::new(MIN_PTS, MIN_CLUSTER));
    let obs = Obs::metrics_only();
    engine.set_obs(obs.clone());
    let stage_counters = STAGES.map(|(counter, _)| obs.metrics().counter(counter));
    let mut replica = TreeReplica::new();

    let mut out = ScenarioResult {
        name: name.clone(),
        points: *points,
        target_bubbles: *target_bubbles,
        epochs: EPOCHS,
        delta_secs: 0.0,
        full_secs: 0.0,
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
        let report = engine.maintainer_epoch(&bubbles);
        out.delta_secs += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let scratch = optics_bubbles(bubbles.bubbles(), f64::INFINITY, MIN_PTS);
        let plot = scratch.expand(|i| {
            bubbles.bubbles()[i]
                .members()
                .iter()
                .map(|id| u64::from(id.0))
                .collect::<Vec<u64>>()
        });
        let tree = cluster_tree(&plot, &ExtractParams::with_min_size(MIN_CLUSTER));
        out.full_secs += t1.elapsed().as_secs_f64();

        // The engine's artifacts are the full pipeline's, bit for bit.
        let (refs, ordering) = engine.ordering().expect("epoch ran");
        let provenance: Vec<MergedRef> = scratch
            .order
            .iter()
            .map(|&index| MergedRef { domain: 0, index })
            .collect();
        let plot_bits = |p: &ReachabilityPlot| -> Vec<(u64, u64)> {
            p.entries()
                .iter()
                .map(|e| (e.id, e.reachability.to_bits()))
                .collect()
        };
        let (mut got_tree, mut want_tree) = (Vec::new(), Vec::new());
        tree_bits(engine.tree().expect("epoch ran"), &mut got_tree);
        tree_bits(&tree, &mut want_tree);
        assert!(
            refs == &provenance[..]
                && bits(&ordering.reachability) == bits(&scratch.reachability)
                && bits(&ordering.virtual_reachability) == bits(&scratch.virtual_reachability)
                && plot_bits(engine.plot().expect("epoch ran")) == plot_bits(&plot)
                && got_tree == want_tree,
            "{name} epoch {epoch}: the engine's epoch differs from the full pipeline"
        );

        for delta in &report.deltas {
            replica.apply(delta);
        }
        assert!(
            replica.snapshot() == engine.clusters(),
            "{name} epoch {epoch}: replayed deltas diverge from the engine's view"
        );
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

    let mut runs: Vec<Case> = ScenarioKind::all()
        .into_iter()
        .map(|k| {
            (
                format!("{k:?}").to_lowercase(),
                k,
                0.015,
                POINTS,
                TARGET_BUBBLES,
            )
        })
        .collect();
    runs.push((
        "churn_heavy".to_string(),
        ScenarioKind::Complex,
        0.08,
        POINTS,
        TARGET_BUBBLES,
    ));
    runs.push((
        "many_bubbles".to_string(),
        ScenarioKind::Random,
        0.01,
        MANY_POINTS,
        MANY_BUBBLES,
    ));

    let mut results = Vec::new();
    for case in &runs {
        let r = run_scenario(case);
        eprintln!(
            "{:<14} delta {:.4}s  |  full {:.4}s",
            r.name, r.delta_secs, r.full_secs,
        );
        let stages: Vec<String> = STAGES
            .iter()
            .zip(r.stage_us)
            .map(|((_, stage), us)| format!("{stage} {:.3}ms", us as f64 / 1e3 / r.epochs as f64))
            .collect();
        eprintln!("{:<14} per epoch: {}", "", stages.join(", "));
        results.push(r);
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"delta\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dim\": {DIM}, \"epochs\": {EPOCHS}, \"min_pts\": {MIN_PTS}, \"min_cluster_size\": {MIN_CLUSTER}}},"
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
            "    {{\"scenario\": \"{}\", \"points\": {}, \"target_bubbles\": {}, \"epochs\": {}, \"delta_secs\": {:.6}, \"full_secs\": {:.6}, \"stage_secs_per_epoch\": {{{}}}{versus}}}{comma}",
            r.name,
            r.points,
            r.target_bubbles,
            r.epochs,
            r.delta_secs,
            r.full_secs,
            stages.join(", "),
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"note\": \"identical maintained state clustered both ways every epoch; the engine's provenance, reachability, plot and tree bits equal the full pipeline's (checked every epoch); delta_secs additionally covers the cluster-tree diff and subscription fanout, which the full pipeline does not provide; stage_secs_per_epoch splits the engine's epoch (engine counters, microsecond resolution); baseline_* columns, when present, come from the same report built at an earlier commit and run on the same host; a 200-bubble run lasts tens of milliseconds, so its speedup columns swing by tens of percent between two runs of one build, and only the multi-second many_bubbles row resolves a change\"\n}}"
    );
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
