//! The delta-clustering differential suite.
//!
//! One contract, proven by byte-level comparison on every epoch of
//! every run: the delta engine's epoch produces **bit-identical**
//! artifacts to the from-scratch pipeline (`optics_bubbles` /
//! `optics_merged` → `expand` → `cluster_tree`):
//!
//! * the ordered provenance (which bubble at which position),
//! * the reachability and virtual-reachability bits,
//! * the expanded point-level plot bits,
//! * the extracted cluster tree (ranges and split-value bits).
//!
//! The case matrix spans all six paper scenarios (plus the extended
//! dynamics), every seed-search engine with warm-start on and off,
//! serial and threaded `par` settings (the engine accepts and ignores
//! them: the OPTICS walk is serial),
//! unsharded maintainers and routers
//! at one and four partitions, with fault-injected batches, a
//! crash/restart, an invariant repair and a domain-count change along
//! the way — well over 256 compared epochs in total; each test asserts
//! its own floor. Every run journals into an in-memory recorder and its
//! journal must pass [`check_journal_sharded`] (per epoch, touched never
//! exceeds total).

use idb_clustering::{
    cluster_tree, optics_bubbles, optics_merged, BubbleOrdering, ClusterNode, ExtractParams,
    MergedRef,
};
use idb_core::{DataSummary, DurabilityConfig, IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_delta::{router_epoch, DeltaEngine, DeltaParams, Interest, TreeReplica};
use idb_geometry::{Parallelism, SearchStats};
use idb_obs::{check_journal_sharded, Obs, RingRecorder};
use idb_shard::{GlobalId, ShardConfig, ShardRouter};
use idb_store::{Batch, MemMedium, ObjectSink, PointId, PointStore};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 2;
const SCENARIO_SEED: u64 = 20_260_808;
const MAINT_SEED: u64 = 99;
const MIN_PTS: usize = 6;
const MIN_CLUSTER: usize = 8;

fn params(par: Parallelism) -> DeltaParams {
    DeltaParams {
        eps: f64::INFINITY,
        min_pts: MIN_PTS,
        extract: ExtractParams::with_min_size(MIN_CLUSTER),
        par,
    }
}

/// A journaling handle and the recorder it writes to.
fn journaled() -> (Obs, Arc<RingRecorder>) {
    let ring = Arc::new(RingRecorder::new());
    (Obs::with_recorder(ring.clone()), ring)
}

/// Checks the journal `ring` collected and that it holds one delta epoch
/// per compared epoch.
fn assert_journal_valid(ring: &RingRecorder, epochs: usize, label: &str) {
    let groups = check_journal_sharded(&ring.events())
        .unwrap_or_else(|e| panic!("{label}: journal invariant violated: {e}"));
    let delta_epochs: u64 = groups.iter().map(|(_, s)| s.delta_epochs).sum();
    assert_eq!(
        delta_epochs, epochs as u64,
        "{label}: delta epochs journaled"
    );
}

/// Preorder tree serialization: range, split bits, child count.
fn tree_bits(node: &ClusterNode) -> Vec<(usize, usize, u64, usize)> {
    fn walk(n: &ClusterNode, out: &mut Vec<(usize, usize, u64, usize)>) {
        out.push((
            n.range.0,
            n.range.1,
            n.split_value.map_or(u64::MAX, f64::to_bits),
            n.children.len(),
        ));
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(node, &mut out);
    out
}

/// Asserts every comparable artifact of the engine's last epoch equals
/// the from-scratch reference computed over the same domains.
fn assert_epoch_matches(
    engine: &DeltaEngine,
    scratch_refs: &[MergedRef],
    scratch: &BubbleOrdering,
    scratch_plot_bits: &[(u64, u64)],
    scratch_tree: &ClusterNode,
    label: &str,
) {
    let (refs, ordering) = engine.ordering().expect("epoch ran");
    let scratch_provenance: Vec<MergedRef> =
        scratch.order.iter().map(|&i| scratch_refs[i]).collect();
    assert_eq!(refs, &scratch_provenance[..], "{label}: provenance");
    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&ordering.reachability),
        bits(&scratch.reachability),
        "{label}: reachability bits"
    );
    assert_eq!(
        bits(&ordering.virtual_reachability),
        bits(&scratch.virtual_reachability),
        "{label}: virtual reachability bits"
    );
    let plot_bits: Vec<(u64, u64)> = engine
        .plot()
        .expect("epoch ran")
        .entries()
        .iter()
        .map(|e| (e.id, e.reachability.to_bits()))
        .collect();
    assert_eq!(plot_bits, scratch_plot_bits, "{label}: plot bits");
    assert_eq!(
        tree_bits(engine.tree().expect("epoch ran")),
        tree_bits(scratch_tree),
        "{label}: tree bits"
    );
}

/// Drives one unsharded scenario run, comparing every epoch. Returns
/// the number of compared epochs.
fn run_unsharded(
    kind: ScenarioKind,
    seed_search: SeedSearch,
    warm_start: bool,
    par: Parallelism,
    epochs: usize,
) -> usize {
    let spec = ScenarioSpec::named(kind, DIM, 420, 0.10);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
    let mut store = scenario.populate(&mut srng);
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let mconfig = MaintainerConfig::new(14)
        .with_seed_search(seed_search)
        .with_warm_start(warm_start)
        .with_parallelism(Parallelism::Serial);
    let mut bubbles = IncrementalBubbles::build(&store, mconfig, &mut mrng, &mut search);
    let (obs, ring) = journaled();
    bubbles.set_obs(obs.clone());

    let mut engine = DeltaEngine::new(params(par));
    engine.set_obs(obs);
    let mut cases = 0;
    for round in 0..epochs {
        if round > 0 {
            let batch = scenario.plan(&mut srng);
            let got = bubbles.apply_batch(&mut store, &batch, &mut search);
            scenario.confirm(&got);
            bubbles.maintain(&store, &mut mrng, &mut search);
        }
        engine.maintainer_epoch(&bubbles);

        let scratch = optics_bubbles(bubbles.bubbles(), f64::INFINITY, MIN_PTS);
        let scratch_refs: Vec<MergedRef> = (0..bubbles.bubbles().len())
            .map(|index| MergedRef { domain: 0, index })
            .collect();
        let scratch_plot = scratch.expand(|i| {
            bubbles.bubbles()[i]
                .members()
                .iter()
                .map(|id| u64::from(id.0))
                .collect::<Vec<u64>>()
        });
        let scratch_tree = cluster_tree(&scratch_plot, &ExtractParams::with_min_size(MIN_CLUSTER));
        let scratch_plot_bits: Vec<(u64, u64)> = scratch_plot
            .entries()
            .iter()
            .map(|e| (e.id, e.reachability.to_bits()))
            .collect();
        assert_epoch_matches(
            &engine,
            &scratch_refs,
            &scratch,
            &scratch_plot_bits,
            &scratch_tree,
            &format!("{kind:?}/{seed_search:?}/warm={warm_start}/{par:?} round {round}"),
        );
        cases += 1;
    }
    assert_journal_valid(&ring, cases, &format!("{kind:?}/{seed_search:?}/{par:?}"));
    cases
}

#[test]
fn every_scenario_engine_and_warm_start_is_bit_identical() {
    let mut cases = 0;
    for kind in ScenarioKind::all() {
        for seed_search in [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree] {
            for warm_start in [true, false] {
                cases += run_unsharded(kind, seed_search, warm_start, Parallelism::Serial, 6);
            }
        }
    }
    assert!(cases >= 216, "case floor: got {cases}");
}

#[test]
fn extended_dynamics_and_threaded_refresh_are_bit_identical() {
    let mut cases = 0;
    for kind in [
        ScenarioKind::Merge,
        ScenarioKind::SplitDrift,
        ScenarioKind::Densify,
    ] {
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            cases += run_unsharded(kind, SeedSearch::Pruned, true, par, 5);
        }
    }
    assert!(cases >= 30, "case floor: got {cases}");
}

/// Drives one sharded run at the given partition and shard counts,
/// comparing every epoch against the router's own merged cross-partition
/// pass, with fault-injected batches and (when `crash` is set) a
/// kill/restart of partition 0 in the middle.
fn run_sharded(
    partitions: u32,
    shards: u32,
    par: Parallelism,
    crash: bool,
    rounds: usize,
) -> usize {
    let mconfig = MaintainerConfig::new(10).with_parallelism(Parallelism::Serial);
    let spec = ScenarioSpec::named(ScenarioKind::Complex, DIM, 600, 0.12);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
    let initial = scenario.populate_batch(&mut srng);
    let (obs, ring) = journaled();
    let (mut router, ids) = ShardRouter::create(
        DIM,
        &initial,
        &mconfig,
        ShardConfig::new(partitions).with_shards(shards),
        DurabilityConfig::default(),
        MAINT_SEED,
        &obs,
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");
    scenario.confirm(&ids);

    let mut engine = DeltaEngine::new(params(par));
    engine.set_obs(obs);
    let mut cases = 0;
    let mut faults = 0;
    for round in 0..rounds {
        if round > 0 {
            if round % 4 == 3 {
                // A fault-injected batch: rejected whole, must leave the
                // partitions untouched (the next epoch sees only genuine
                // changes).
                let bad = Batch {
                    deletes: Vec::new(),
                    inserts: vec![(vec![f64::NAN; DIM], None)],
                };
                router.apply(&bad).expect_err("NaN insert must be rejected");
                faults += 1;
            }
            if crash && round == rounds / 2 {
                let wal = router
                    .maintainer_mut(0)
                    .unwrap()
                    .wal_sink_mut()
                    .bytes()
                    .to_vec();
                let (sink, checkpoints) = router.kill_partition(0).expect("online");
                router
                    .restart_partition(0, &wal, sink, checkpoints)
                    .expect("restart");
            }
            let batch = scenario.plan(&mut srng);
            let got = router.apply(&batch).expect("apply");
            scenario.confirm(&got);
        }
        router_epoch(&mut engine, &mut router).expect("online");

        let (scratch_refs, scratch) = router
            .cluster(f64::INFINITY, MIN_PTS, Parallelism::Serial)
            .expect("cluster");
        let scratch_plot = scratch.expand(|i| {
            let r = scratch_refs[i];
            router.partition_bubbles(r.domain).unwrap()[r.index]
                .members()
                .iter()
                .map(|&local| {
                    GlobalId {
                        partition: r.domain,
                        local,
                    }
                    .as_u64()
                })
                .collect::<Vec<u64>>()
        });
        let scratch_tree = cluster_tree(&scratch_plot, &ExtractParams::with_min_size(MIN_CLUSTER));
        let scratch_plot_bits: Vec<(u64, u64)> = scratch_plot
            .entries()
            .iter()
            .map(|e| (e.id, e.reachability.to_bits()))
            .collect();
        assert_epoch_matches(
            &engine,
            &scratch_refs,
            &scratch,
            &scratch_plot_bits,
            &scratch_tree,
            &format!("V={partitions}/N={shards}/{par:?}/crash={crash} round {round}"),
        );
        cases += 1;
    }
    assert!(faults > 0, "the run must exercise fault-injected batches");
    assert_journal_valid(
        &ring,
        cases,
        &format!("V={partitions}/N={shards}/crash={crash}"),
    );
    cases
}

#[test]
fn sharded_delta_matches_the_merged_cross_partition_pass() {
    let mut cases = 0;
    for partitions in [1u32, 4] {
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            cases += run_sharded(partitions, 1, par, false, 8);
        }
    }
    // The shard count is pure grouping: four shards, same contract.
    cases += run_sharded(4, 4, Parallelism::Serial, false, 8);
    assert!(cases >= 40, "case floor: got {cases}");
}

#[test]
fn a_partition_restart_stays_bit_identical() {
    for shards in [1, 4] {
        let cases = run_sharded(4, shards, Parallelism::Serial, true, 10);
        assert!(cases >= 10, "case floor: got {cases}");
    }
}

/// An unsharded maintainer that suffers a repair mid-run: the epoch
/// after it must still match.
#[test]
fn a_repair_mid_run_stays_bit_identical() {
    let spec = ScenarioSpec::named(ScenarioKind::Random, DIM, 400, 0.10);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
    let mut store = scenario.populate(&mut srng);
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let mut bubbles =
        IncrementalBubbles::build(&store, MaintainerConfig::new(12), &mut mrng, &mut search);
    let mut engine = DeltaEngine::new(params(Parallelism::Serial));
    engine.maintainer_epoch(&bubbles);

    for round in 0..4 {
        let batch = scenario.plan(&mut srng);
        let got = bubbles.apply_batch(&mut store, &batch, &mut search);
        scenario.confirm(&got);
        if round == 1 {
            // Sabotage one bubble's statistics, then repair: the rebuild
            // drains and reattaches wholesale.
            let wrong_n = bubbles.bubbles()[0].n() + 7;
            bubbles.corrupt_stats(0, wrong_n, vec![0.0; DIM], 0.0);
            let report = bubbles.repair(&store, &mut mrng, &mut search);
            assert!(report.issues_found > 0, "sabotage must be detected");
        }
        engine.maintainer_epoch(&bubbles);

        let scratch = optics_bubbles(bubbles.bubbles(), f64::INFINITY, MIN_PTS);
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
        let (refs, ordering) = engine.ordering().expect("epoch ran");
        let scratch_provenance: Vec<MergedRef> = scratch
            .order
            .iter()
            .map(|&index| MergedRef { domain: 0, index })
            .collect();
        assert_eq!(refs, &scratch_provenance[..], "round {round}: provenance");
        assert_eq!(
            bits(&ordering.reachability),
            bits(&scratch.reachability),
            "round {round}: reachability bits"
        );
    }
}

/// The delta engine over explicit domains must also survive a domain
/// *count* change (a partition added or dropped between epochs) and
/// domains whose slot counts grow and shrink: the ordering stays
/// bit-identical to the merged pass, and the delta stream replayed into
/// a [`TreeReplica`] stays equal to the engine's view, whose root holds
/// exactly the plotted ids.
#[test]
fn a_domain_count_change_stays_bit_identical() {
    let store_of = |n: u32| {
        let mut store = PointStore::new(DIM);
        for i in 0..n {
            let x = f64::from(i % 2) * 40.0 + f64::from(i % 10);
            store.insert(&[x, f64::from(i / 2)], None);
        }
        store
    };
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let mut build = |store: &PointStore| {
        IncrementalBubbles::build(store, MaintainerConfig::new(6), &mut mrng, &mut search)
    };
    let (large, small) = (store_of(120), store_of(60));
    let a = build(&large);
    let b = build(&large);
    let c = build(&small);
    let map_id = |d: u32, id: PointId| (u64::from(d) << 32) | u64::from(id.0);

    let mut engine = DeltaEngine::new(params(Parallelism::Serial));
    let sub = engine.subscribe(Interest::Tree);
    let mut replica = TreeReplica::new();
    for domains in [
        &[a.bubbles()][..],
        &[a.bubbles(), b.bubbles()],
        &[c.bubbles()],
        &[c.bubbles(), a.bubbles(), c.bubbles()],
        &[b.bubbles()],
    ] {
        engine.epoch(domains, map_id);

        let (scratch_refs, scratch) = optics_merged(domains, f64::INFINITY, MIN_PTS);
        let (refs, ordering) = engine.ordering().expect("epoch ran");
        let scratch_provenance: Vec<MergedRef> =
            scratch.order.iter().map(|&i| scratch_refs[i]).collect();
        assert_eq!(refs, &scratch_provenance[..]);
        assert_eq!(
            ordering
                .reachability
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<u64>>(),
            scratch
                .reachability
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<u64>>(),
        );

        for v in engine.poll(sub) {
            replica.apply(&v.delta);
        }
        let clusters = engine.clusters();
        assert_eq!(replica.snapshot(), clusters);
        let mut plotted: Vec<u64> = engine
            .plot()
            .expect("epoch ran")
            .entries()
            .iter()
            .map(|e| e.id)
            .collect();
        plotted.sort_unstable();
        let root = clusters.iter().find(|(_, parent, _)| parent.is_none());
        assert_eq!(root.map(|(_, _, members)| members), Some(&plotted));
    }
}
