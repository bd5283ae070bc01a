//! The differential **re-baseline audit** for the canonical 4-lane kernel
//! switch (DESIGN.md §15).
//!
//! When the canonical kernels changed their accumulation order (4
//! independent accumulators + tree reduction instead of one sequential
//! chain), every `f64` distance at `d ≥ 4` changed its low bits — a
//! one-time re-baseline. What must hold *after* the switch, and what this
//! suite re-enforces on a `d = 10` dynamic scenario (two full 4-lane
//! blocks plus a 2-lane remainder, so every kernel path runs):
//!
//! * **engines × parallelism**: every seed-search engine under serial and
//!   threaded execution drives the maintainer through the *same* dynamic
//!   flow, producing bit-identical populations and clustering artifacts;
//! * **delta vs scratch**: on every epoch of every configuration, the
//!   delta-maintained pipeline equals the from-scratch pipeline bit for
//!   bit;
//! * **shard counts 1 and 4**: the sharded service layer at both
//!   partition counts keeps its delta pipeline bit-identical to its own
//!   merged cross-partition scratch pass.

use idb_clustering::{cluster_tree, optics_bubbles, ClusterNode, ExtractParams, MergedRef};
use idb_core::{DurabilityConfig, IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_delta::{router_epoch, DeltaEngine, DeltaParams};
use idb_geometry::{Parallelism, SearchStats};
use idb_obs::Obs;
use idb_shard::{GlobalId, ShardConfig, ShardRouter};
use idb_store::{MemMedium, PointId};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// High-dimensional on purpose: two full 4-lane blocks + a 2-lane
/// remainder, the shape at which the canonical kernel's values diverge
/// from the historical scalar kernel.
const DIM: usize = 10;
const SCENARIO_SEED: u64 = 4_177;
const MAINT_SEED: u64 = 23;
const MIN_PTS: usize = 5;
const MIN_CLUSTER: usize = 6;

fn params(par: Parallelism) -> DeltaParams {
    DeltaParams {
        eps: f64::INFINITY,
        min_pts: MIN_PTS,
        extract: ExtractParams::with_min_size(MIN_CLUSTER),
        par,
    }
}

/// Everything comparable about one epoch, in raw bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    provenance: Vec<(u32, usize)>,
    reachability: Vec<u64>,
    virtual_reachability: Vec<u64>,
    plot: Vec<(u64, u64)>,
    tree: Vec<(usize, usize, u64, usize)>,
}

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

fn engine_fingerprint(engine: &DeltaEngine) -> Fingerprint {
    let (refs, ordering) = engine.ordering().expect("epoch ran");
    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
    Fingerprint {
        provenance: refs.iter().map(|r| (r.domain, r.index)).collect(),
        reachability: bits(&ordering.reachability),
        virtual_reachability: bits(&ordering.virtual_reachability),
        plot: engine
            .plot()
            .expect("epoch ran")
            .entries()
            .iter()
            .map(|e| (e.id, e.reachability.to_bits()))
            .collect(),
        tree: tree_bits(engine.tree().expect("epoch ran")),
    }
}

/// One unsharded dynamic run: per-epoch delta-vs-scratch assertion, and
/// the per-epoch fingerprints returned for cross-configuration equality.
fn run_config(seed_search: SeedSearch, par: Parallelism, epochs: usize) -> Vec<Fingerprint> {
    let spec = ScenarioSpec::named(ScenarioKind::Complex, DIM, 380, 0.12);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
    let mut store = scenario.populate(&mut srng);
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let mconfig = MaintainerConfig::new(12)
        .with_seed_search(seed_search)
        .with_parallelism(par);
    let mut bubbles = IncrementalBubbles::build(&store, mconfig, &mut mrng, &mut search);
    let mut engine = DeltaEngine::new(params(par));
    let mut out = Vec::with_capacity(epochs);
    for round in 0..epochs {
        if round > 0 {
            let batch = scenario.plan(&mut srng);
            let got = bubbles.apply_batch(&mut store, &batch, &mut search);
            scenario.confirm(&got);
            bubbles.maintain(&store, &mut mrng, &mut search);
        }
        engine.maintainer_epoch(&bubbles);
        let fp = engine_fingerprint(&engine);

        // Delta vs scratch, every epoch, every artifact, bit for bit.
        let scratch = optics_bubbles(bubbles.bubbles(), f64::INFINITY, MIN_PTS);
        let scratch_plot = scratch.expand(|i| {
            bubbles.bubbles()[i]
                .members()
                .iter()
                .map(|id| u64::from(id.0))
                .collect::<Vec<u64>>()
        });
        let scratch_tree = cluster_tree(&scratch_plot, &ExtractParams::with_min_size(MIN_CLUSTER));
        let label = format!("{seed_search:?}/{par:?} round {round}");
        assert_eq!(
            fp.provenance,
            scratch
                .order
                .iter()
                .map(|&i| (0u32, i))
                .collect::<Vec<(u32, usize)>>(),
            "{label}: provenance"
        );
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            fp.reachability,
            bits(&scratch.reachability),
            "{label}: reachability bits"
        );
        assert_eq!(
            fp.virtual_reachability,
            bits(&scratch.virtual_reachability),
            "{label}: virtual reachability bits"
        );
        assert_eq!(
            fp.plot,
            scratch_plot
                .entries()
                .iter()
                .map(|e| (e.id, e.reachability.to_bits()))
                .collect::<Vec<(u64, u64)>>(),
            "{label}: plot bits"
        );
        assert_eq!(fp.tree, tree_bits(&scratch_tree), "{label}: tree bits");
        out.push(fp);
    }
    out
}

/// The audit's core claim: after the canonical-kernel switch, every
/// engine × parallelism configuration walks the same dynamic flow and
/// produces bit-identical artifacts on every epoch — and each epoch
/// matches its own from-scratch recompute (asserted inside `run_config`).
#[test]
fn engines_and_parallelism_agree_bit_for_bit_at_high_dim() {
    const EPOCHS: usize = 5;
    let reference = run_config(SeedSearch::Brute, Parallelism::Serial, EPOCHS);
    assert_eq!(reference.len(), EPOCHS);
    let mut configs = 1;
    for seed_search in [SeedSearch::Brute, SeedSearch::Pruned, SeedSearch::KdTree] {
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            if seed_search == SeedSearch::Brute && par == Parallelism::Serial {
                continue;
            }
            let got = run_config(seed_search, par, EPOCHS);
            assert_eq!(
                got, reference,
                "{seed_search:?}/{par:?} diverged from Brute/Serial"
            );
            configs += 1;
        }
    }
    assert_eq!(configs, 6, "all six configurations must run");
}

/// The sharded layer at 1 and 4 partitions: the delta pipeline of each
/// must equal its own merged cross-partition scratch pass bit for bit on
/// every epoch of the high-dimensional dynamic flow.
#[test]
fn sharded_delta_matches_scratch_at_high_dim() {
    // Partition counts 1 and 4 in one shard, then four partitions in four
    // shards (the shard count is pure grouping).
    for (partitions, shards) in [(1u32, 1u32), (4, 1), (4, 4)] {
        let mconfig = MaintainerConfig::new(8).with_parallelism(Parallelism::Serial);
        let spec = ScenarioSpec::named(ScenarioKind::Complex, DIM, 480, 0.12);
        let mut scenario = ScenarioEngine::new(spec);
        let mut srng = StdRng::seed_from_u64(SCENARIO_SEED);
        let initial = scenario.populate_batch(&mut srng);
        let (mut router, ids) = ShardRouter::create(
            DIM,
            &initial,
            &mconfig,
            ShardConfig::new(partitions).with_shards(shards),
            DurabilityConfig::default(),
            MAINT_SEED,
            &Obs::disabled(),
            |_| {
                (
                    idb_store::ObjectSink::new(MemMedium::new(), "wal"),
                    MemMedium::new(),
                )
            },
        )
        .expect("create");
        scenario.confirm(&ids);

        let mut engine = DeltaEngine::new(params(Parallelism::Serial));
        for round in 0..6 {
            if round > 0 {
                let batch = scenario.plan(&mut srng);
                let got = router.apply(&batch).expect("apply");
                scenario.confirm(&got);
            }
            router_epoch(&mut engine, &mut router).expect("online");
            let fp = engine_fingerprint(&engine);

            let (scratch_refs, scratch) = router
                .cluster(f64::INFINITY, MIN_PTS, Parallelism::Serial)
                .expect("cluster");
            let scratch_plot = scratch.expand(|i| {
                let r: MergedRef = scratch_refs[i];
                router.partition_bubbles(r.domain).unwrap()[r.index]
                    .members()
                    .iter()
                    .map(|&local: &PointId| {
                        GlobalId {
                            partition: r.domain,
                            local,
                        }
                        .as_u64()
                    })
                    .collect::<Vec<u64>>()
            });
            let scratch_tree =
                cluster_tree(&scratch_plot, &ExtractParams::with_min_size(MIN_CLUSTER));
            let label = format!("V={partitions}/N={shards} round {round}");
            assert_eq!(
                fp.provenance,
                scratch
                    .order
                    .iter()
                    .map(|&i| (scratch_refs[i].domain, scratch_refs[i].index))
                    .collect::<Vec<(u32, usize)>>(),
                "{label}: provenance"
            );
            let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                fp.reachability,
                bits(&scratch.reachability),
                "{label}: reachability bits"
            );
            assert_eq!(
                fp.plot,
                scratch_plot
                    .entries()
                    .iter()
                    .map(|e| (e.id, e.reachability.to_bits()))
                    .collect::<Vec<(u64, u64)>>(),
                "{label}: plot bits"
            );
            assert_eq!(fp.tree, tree_bits(&scratch_tree), "{label}: tree bits");
        }
    }
}
