//! Records the delta-maintained clustering layer's epoch profile to
//! `BENCH_delta.json`.
//!
//! For every paper scenario at `s` = 200 bubbles, a churn-heavy stress
//! variant, a `many_bubbles` case at the stackbench workload's scale
//! (`s` = 2,000 bubbles of about 10 points each, where OPTICS dominates
//! the epoch) and a `monitor_d2` case shaped like that workload (`n` =
//! 10,000, `s` = 400, 1% churn, 200 epochs, where the diff costs about
//! as much as OPTICS), the same maintained summary is clustered two ways
//! each epoch:
//!
//! * **full** — the from-scratch pipeline (`optics_bubbles` →
//!   `expand` → `cluster_tree`);
//! * **delta** — a [`DeltaEngine`] epoch: the same pipeline plus the
//!   cluster-tree diff into typed deltas with stable ids.
//!
//! The engine's per-stage counters split each epoch into OPTICS (the
//! distance rows and the walk), extraction (plot and tree) and the
//! cross-epoch tree diff; `delta_secs − full_secs` is what identity
//! maintenance costs. `payload_ids_per_epoch` counts the point ids the
//! deltas carry (`Born` members plus `MembershipChanged` added and
//! removed), the first epoch's births included.
//!
//! OPTICS is also reported in the paper's currency, distance
//! evaluations: `optics_pairs_per_epoch` counts the pairs the walk
//! evaluates, derived from the ordering and the point counts (step `t`
//! of an `s`-bubble ordering evaluates `s − 1` pairs when its bubble
//! holds fewer than `min_pts` points and `s − 1 − t` otherwise), and
//! `optics_ns_per_pair` divides the OPTICS stage time by it.
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
//! baseline's `delta_secs` and `full_secs`, the speedup against them, the
//! baseline's `stage_secs_per_epoch` as `baseline_stage_secs_per_epoch`
//! and, when the baseline reports them, its `optics_ns_per_pair` (its
//! pair count must equal this run's, or the run fails) and its
//! `payload_ids_per_epoch`.

use idb_bench::{json_list, row_number, write_report};
use idb_clustering::{
    cluster_tree, optics_bubbles, BubbleOrdering, ClusterNode, ExtractParams, MergedRef,
    ReachabilityPlot,
};
use idb_core::{DataSummary, IncrementalBubbles, MaintainerConfig};
use idb_delta::{ClusterDelta, DeltaEngine, DeltaParams, TreeReplica};
use idb_geometry::SearchStats;
use idb_obs::Obs;
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const DIM: usize = 2;
const POINTS: usize = 4_000;
/// Epochs per case, except `monitor_d2`.
const EPOCHS: usize = 20;
const MIN_PTS: usize = 6;
const MIN_CLUSTER: usize = 8;
const TARGET_BUBBLES: usize = 200;
/// The `many_bubbles` case: stackbench's workload of that name clusters
/// about 2,000 bubbles of about 10 points each.
const MANY_POINTS: usize = 20_000;
const MANY_BUBBLES: usize = 2_000;
/// The `monitor_d2` case: stackbench's workload of that name clusters
/// 10,000 points in 400 bubbles (four partitions of 100) every batch.
/// Each epoch lasts about a millisecond, so the case runs 200 of them.
const MONITOR_POINTS: usize = 10_000;
const MONITOR_BUBBLES: usize = 400;
const MONITOR_EPOCHS: usize = 200;
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
    /// Distance pairs the OPTICS walk evaluated, summed over the epochs.
    pairs: u64,
    /// Point ids carried by the deltas, summed over the epochs.
    payload_ids: u64,
}

impl ScenarioResult {
    fn pairs_per_epoch(&self) -> f64 {
        self.pairs as f64 / self.epochs as f64
    }

    /// OPTICS stage nanoseconds per evaluated pair.
    fn ns_per_pair(&self) -> f64 {
        self.stage_us[0] as f64 * 1e3 / self.pairs as f64
    }

    fn payload_ids_per_epoch(&self) -> f64 {
        self.payload_ids as f64 / self.epochs as f64
    }
}

/// The point ids `delta` carries.
fn payload_ids(delta: &ClusterDelta) -> u64 {
    match delta {
        ClusterDelta::Born { members, .. } => members.len() as u64,
        ClusterDelta::MembershipChanged { added, removed, .. } => {
            (added.len() + removed.len()) as u64
        }
        _ => 0,
    }
}

/// The distance pairs the OPTICS walk evaluates for `ordering`: step `t`
/// computes a row over every other bubble when its bubble holds fewer
/// than `MIN_PTS` points, and over the `s − 1 − t` unprocessed ones
/// otherwise.
fn optics_pairs(ordering: &BubbleOrdering, points: impl Fn(usize) -> u64) -> u64 {
    let s = ordering.len() as u64;
    (0..s)
        .zip(&ordering.order)
        .map(|(t, &i)| {
            if points(i) < MIN_PTS as u64 {
                s - 1
            } else {
                s - 1 - t
            }
        })
        .sum()
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

/// One scenario: name, generator, churn per batch, points, target bubble
/// count and epochs.
type Case = (String, ScenarioKind, f64, usize, usize, usize);

/// Drives one scenario for its epochs, timing the delta engine against
/// the from-scratch pipeline on identical maintained state.
fn run_scenario((name, kind, churn, points, target_bubbles, epochs): &Case) -> ScenarioResult {
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
        epochs: *epochs,
        delta_secs: 0.0,
        full_secs: 0.0,
        stage_us: [0; STAGES.len()],
        pairs: 0,
        payload_ids: 0,
    };
    for epoch in 0..*epochs {
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
        out.pairs += optics_pairs(&scratch, |i| bubbles.bubbles()[i].n());

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
            out.payload_ids += payload_ids(delta);
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

/// One scenario's row of a baseline report.
struct Baseline {
    name: String,
    delta_secs: f64,
    full_secs: f64,
    /// The row's `stage_secs_per_epoch` object, verbatim.
    stages: String,
    /// `optics_pairs_per_epoch` and `optics_ns_per_pair`, when reported.
    pairs: Option<(f64, f64)>,
    /// `payload_ids_per_epoch`, when reported.
    payload_ids: Option<f64>,
}

/// The baseline report's rows, by scenario name.
fn read_baseline(path: &str) -> Vec<Baseline> {
    let text = std::fs::read_to_string(path).expect("read baseline report");
    text.lines()
        .filter_map(|line| {
            let name = line.split("\"scenario\": \"").nth(1)?.split('"').next()?;
            let stages = line.split("\"stage_secs_per_epoch\": ").nth(1)?;
            Some(Baseline {
                name: name.to_string(),
                delta_secs: row_number(line, "delta_secs")?,
                full_secs: row_number(line, "full_secs")?,
                stages: stages[..=stages.find('}')?].to_string(),
                pairs: row_number(line, "optics_pairs_per_epoch")
                    .zip(row_number(line, "optics_ns_per_pair")),
                payload_ids: row_number(line, "payload_ids_per_epoch"),
            })
        })
        .collect()
}

fn main() {
    let baseline = std::env::args().nth(2).map(|path| read_baseline(&path));

    let mut runs: Vec<Case> = ScenarioKind::all()
        .into_iter()
        .map(|k| {
            (
                format!("{k:?}").to_lowercase(),
                k,
                0.015,
                POINTS,
                TARGET_BUBBLES,
                EPOCHS,
            )
        })
        .collect();
    runs.push((
        "churn_heavy".to_string(),
        ScenarioKind::Complex,
        0.08,
        POINTS,
        TARGET_BUBBLES,
        EPOCHS,
    ));
    runs.push((
        "many_bubbles".to_string(),
        ScenarioKind::Random,
        0.01,
        MANY_POINTS,
        MANY_BUBBLES,
        EPOCHS,
    ));
    runs.push((
        "monitor_d2".to_string(),
        ScenarioKind::Complex,
        0.01,
        MONITOR_POINTS,
        MONITOR_BUBBLES,
        MONITOR_EPOCHS,
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
        eprintln!(
            "{:<14} per epoch: {}; optics {:.0} pairs at {:.2} ns/pair; {:.0} payload ids",
            "",
            stages.join(", "),
            r.pairs_per_epoch(),
            r.ns_per_pair(),
            r.payload_ids_per_epoch()
        );
        results.push(r);
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"delta\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dim\": {DIM}, \"epochs\": {EPOCHS}, \"min_pts\": {MIN_PTS}, \"min_cluster_size\": {MIN_CLUSTER}}},"
    );
    let scenarios = results.iter().map(|r| {
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
            .find(|b| b.name == r.name)
            .map_or_else(String::new, |b| {
                let pairs = b.pairs.map_or_else(String::new, |(pairs, ns)| {
                    assert_eq!(
                        format!("{pairs:.2}"),
                        format!("{:.2}", r.pairs_per_epoch()),
                        "{}: the baseline evaluated a different number of pairs",
                        r.name
                    );
                    format!(", \"baseline_optics_ns_per_pair\": {ns:.3}")
                });
                let ids = b.payload_ids.map_or_else(String::new, |ids| {
                    format!(", \"baseline_payload_ids_per_epoch\": {ids:.2}")
                });
                format!(
                    ", \"baseline_delta_secs\": {:.6}, \"baseline_full_secs\": {:.6}, \"delta_speedup\": {:.2}, \"full_speedup\": {:.2}, \"baseline_stage_secs_per_epoch\": {}{pairs}{ids}",
                    b.delta_secs,
                    b.full_secs,
                    b.delta_secs / r.delta_secs,
                    b.full_secs / r.full_secs,
                    b.stages
                )
            });
        format!(
            "{{\"scenario\": \"{}\", \"points\": {}, \"target_bubbles\": {}, \"epochs\": {}, \"delta_secs\": {:.6}, \"full_secs\": {:.6}, \"stage_secs_per_epoch\": {{{}}}, \"optics_pairs_per_epoch\": {:.2}, \"optics_ns_per_pair\": {:.3}, \"payload_ids_per_epoch\": {:.2}{versus}}}",
            r.name,
            r.points,
            r.target_bubbles,
            r.epochs,
            r.delta_secs,
            r.full_secs,
            stages.join(", "),
            r.pairs_per_epoch(),
            r.ns_per_pair(),
            r.payload_ids_per_epoch(),
        )
    });
    let _ = writeln!(json, "  \"scenarios\": {},", json_list(4, scenarios));
    let _ = writeln!(
        json,
        "  \"note\": \"identical maintained state clustered both ways every epoch; the engine's provenance, reachability, plot and tree bits equal the full pipeline's (checked every epoch); delta_secs additionally covers the cluster-tree diff and subscription fanout, which the full pipeline does not provide; stage_secs_per_epoch splits the engine's epoch (engine counters, microsecond resolution); optics_pairs_per_epoch counts the distance pairs the OPTICS walk evaluates (s - 1 at a step whose bubble holds fewer than min_pts points, s - 1 - t at step t otherwise) and optics_ns_per_pair is the optics stage time over it; payload_ids_per_epoch counts the point ids the deltas carry (Born members, MembershipChanged added and removed; the first epoch's births included); baseline_* columns, when present, come from the same report built at an earlier commit and run on the same host; a 200-bubble run lasts tens of milliseconds, so its speedup columns swing by tens of percent between two runs of one build; the many_bubbles and monitor_d2 rows last a few tenths of a second each and resolve a change\"\n}}"
    );
    write_report("BENCH_delta.json", &json);
}
