//! Differential suites for the sharded service layer.
//!
//! Two bit-identity contracts, each proven by byte-level comparison of
//! complete state snapshots:
//!
//! 1. **Transparency** — a one-partition router is the unsharded
//!    [`DurableMaintainer`] verbatim: same client ids, same summary
//!    bytes, same WAL bytes, same cluster ordering, batch for batch.
//! 2. **Shard-count invariance** — over a fixed partition count, every
//!    shard count in {1, 2, 4, 8} (serial or parallel drain) produces
//!    identical per-partition states, client ids and merged cluster
//!    orderings on dynamic multi-stream scenarios, with fault-injected
//!    batches rejected identically along the way.

use idb_clustering::optics_bubbles;
use idb_core::{DurabilityConfig, DurableMaintainer, IncrementalBubbles, MaintainerConfig};
use idb_geometry::{Parallelism, SearchStats};
use idb_obs::Obs;
use idb_shard::{ShardConfig, ShardError, ShardRouter};
use idb_store::{Batch, MemMedium, ObjectSink, PointId, PointStore};
use idb_synth::{MultiStreamEngine, ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 3;
const SCENARIO_SEED: u64 = 777;
const MAINT_SEED: u64 = 42;

/// Serializes the complete observable state of one partition.
fn fingerprint(store: &PointStore, bubbles: &IncrementalBubbles) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write_snapshot(&mut bytes).expect("vec write");
    bubbles.write_snapshot(&mut bytes).expect("vec write");
    bytes
}

/// A clustering ordering reduced to comparable bits.
fn ordering_bits(order: &[usize], reachability: &[f64]) -> (Vec<usize>, Vec<u64>) {
    (
        order.to_vec(),
        reachability.iter().map(|r| r.to_bits()).collect(),
    )
}

#[test]
fn one_partition_router_is_the_plain_maintainer_verbatim() {
    let mconfig = MaintainerConfig::new(12);
    let dcfg = DurabilityConfig::default();
    let spec = ScenarioSpec::named(ScenarioKind::Random, DIM, 600, 0.10);

    // Plain run: store + maintainer driven directly.
    let mut engine_a = ScenarioEngine::new(spec.clone());
    let mut srng_a = StdRng::seed_from_u64(SCENARIO_SEED);
    let initial_a = engine_a.populate_batch(&mut srng_a);
    let mut store = PointStore::new(DIM);
    let ids_a: Vec<PointId> = initial_a
        .inserts
        .iter()
        .map(|(p, l)| store.insert(p, *l))
        .collect();
    engine_a.confirm(&ids_a);
    let mut mrng = StdRng::seed_from_u64(MAINT_SEED);
    let mut search = SearchStats::new();
    let bubbles = IncrementalBubbles::build(&store, mconfig.clone(), &mut mrng, &mut search);
    let mut plain = DurableMaintainer::adopt(
        store,
        bubbles,
        dcfg.clone(),
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("adopt");

    // Router run: identical scenario stream, one partition.
    let mut engine_b = ScenarioEngine::new(spec);
    let mut srng_b = StdRng::seed_from_u64(SCENARIO_SEED);
    let initial_b = engine_b.populate_batch(&mut srng_b);
    let (mut router, ids_b) = ShardRouter::create(
        DIM,
        &initial_b,
        &mconfig,
        ShardConfig::new(1),
        dcfg,
        MAINT_SEED,
        &Obs::disabled(),
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");
    assert_eq!(ids_a, ids_b, "initial client ids must be transparent");
    engine_b.confirm(&ids_b);

    for round in 0..12 {
        let batch_a = engine_a.plan(&mut srng_a);
        let got_a = plain
            .apply(&batch_a, &mut mrng, &mut search)
            .expect("plain apply");
        engine_a.confirm(&got_a);

        let batch_b = engine_b.plan(&mut srng_b);
        assert_eq!(batch_a, batch_b, "round {round}: scenario streams diverged");
        let got_b = router.apply(&batch_b).expect("router apply");
        engine_b.confirm(&got_b);

        assert_eq!(got_a, got_b, "round {round}: client ids diverged");
        assert_eq!(
            fingerprint(plain.store(), plain.bubbles()),
            fingerprint(
                router.maintainer(0).unwrap().store(),
                router.maintainer(0).unwrap().bubbles()
            ),
            "round {round}: state bytes diverged"
        );
    }

    // The durable artifacts are byte-identical too.
    assert_eq!(
        plain.wal_sink_mut().bytes(),
        router.maintainer_mut(0).unwrap().wal_sink_mut().bytes(),
        "WAL bytes diverged"
    );

    // And clustering through the merge path equals flat clustering.
    let flat = optics_bubbles(plain.bubbles().bubbles(), 25.0, 5);
    let (_, merged) = router
        .cluster(25.0, 5, Parallelism::Serial)
        .expect("cluster");
    assert_eq!(
        ordering_bits(&flat.order, &flat.reachability),
        ordering_bits(&merged.order, &merged.reachability),
    );
}

/// Drives one full multi-stream run at a given shard count and returns
/// every comparable artifact.
struct RunArtifacts {
    partition_states: Vec<Vec<u8>>,
    all_ids: Vec<PointId>,
    ordering: (Vec<usize>, Vec<u64>),
    fault_errors: Vec<String>,
}

fn run_multi_stream(partitions: u32, shards: u32, drain: Parallelism) -> RunArtifacts {
    let mconfig = MaintainerConfig::new(8);
    let scfg = ShardConfig::new(partitions).with_shards(shards);
    let mut engine = MultiStreamEngine::named(
        &[
            ScenarioKind::Random,
            ScenarioKind::Appear,
            ScenarioKind::Disappear,
        ],
        DIM,
        500,
        0.12,
        SCENARIO_SEED,
    );

    // One insert-only bootstrap batch: the streams' initial populations
    // concatenated in stream order.
    let stream_batches = engine.populate_batches();
    let mut initial = Batch::default();
    let mut spans = Vec::new();
    for (stream, batch) in &stream_batches {
        let start = initial.inserts.len();
        initial.inserts.extend(batch.inserts.iter().cloned());
        spans.push((*stream, start, initial.inserts.len()));
    }
    let (mut router, ids) = ShardRouter::create(
        DIM,
        &initial,
        &mconfig,
        scfg,
        DurabilityConfig::default(),
        MAINT_SEED,
        &Obs::disabled(),
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create");
    let mut all_ids = ids.clone();
    for &(stream, start, end) in &spans {
        engine.confirm(stream, &ids[start..end]);
    }

    // Interleaved dynamic updates, with malformed batches injected every
    // few rounds — each typed rejection must be identical across runs and
    // must leave no trace in any partition. (Single-fault batches: with
    // per-partition atomicity, only an all-faulty batch is guaranteed to
    // leave every partition untouched.)
    let mut fault_errors = Vec::new();
    for round in 0..18 {
        if round % 6 == 5 {
            let bad = if round % 12 == 5 {
                // A NaN insert: routed, rejected by its partition's
                // validator as a typed UpdateError.
                Batch {
                    deletes: Vec::new(),
                    inserts: vec![(vec![f64::NAN; DIM], None)],
                }
            } else {
                // A delete whose partition field names no partition:
                // shed at the routing boundary before any queue.
                Batch {
                    deletes: vec![PointId(u32::MAX)],
                    inserts: Vec::new(),
                }
            };
            let before: Vec<Vec<u8>> = (0..partitions)
                .map(|p| {
                    let m = router.maintainer(p).unwrap();
                    fingerprint(m.store(), m.bubbles())
                })
                .collect();
            let err = router
                .apply(&bad)
                .expect_err("faulty batch must be rejected");
            assert!(matches!(
                err,
                ShardError::Rejected { .. } | ShardError::UnknownId { .. }
            ));
            fault_errors.push(err.to_string());
            for (p, prior) in before.iter().enumerate() {
                let m = router.maintainer(p as u32).unwrap();
                assert_eq!(
                    *prior,
                    fingerprint(m.store(), m.bubbles()),
                    "round {round}: rejected batch touched partition {p}"
                );
            }
            continue;
        }
        let (stream, batch) = engine.plan_next().expect("live stream");
        let ticket = router.submit(&batch).expect("submit");
        let mut results = router.drain_with(drain);
        assert_eq!(results.len(), 1);
        let (got_ticket, result) = results.pop().unwrap();
        assert_eq!(got_ticket, ticket);
        let got = result.expect("apply");
        engine.confirm(stream, &got);
        all_ids.extend_from_slice(&got);
    }

    let partition_states = (0..partitions)
        .map(|p| {
            let m = router.maintainer(p).unwrap();
            fingerprint(m.store(), m.bubbles())
        })
        .collect();
    let (_, ordering) = router.cluster(25.0, 5, drain).expect("cluster");
    RunArtifacts {
        partition_states,
        all_ids,
        ordering: ordering_bits(&ordering.order, &ordering.reachability),
        fault_errors,
    }
}

#[test]
fn shard_count_is_a_pure_wall_clock_knob() {
    let reference = run_multi_stream(8, 1, Parallelism::Serial);
    assert!(
        !reference.fault_errors.is_empty(),
        "the run must exercise fault-injected batches"
    );
    for shards in [2u32, 4, 8] {
        let run = run_multi_stream(8, shards, Parallelism::Serial);
        assert_eq!(
            reference.partition_states, run.partition_states,
            "{shards} shards: partition state bytes diverged"
        );
        assert_eq!(
            reference.all_ids, run.all_ids,
            "{shards} shards: ids diverged"
        );
        assert_eq!(
            reference.ordering, run.ordering,
            "{shards} shards: cluster ordering diverged"
        );
        assert_eq!(
            reference.fault_errors, run.fault_errors,
            "{shards} shards: fault rejections diverged"
        );
    }
}

#[test]
fn parallel_drain_is_bit_identical_to_serial() {
    let serial = run_multi_stream(8, 4, Parallelism::Serial);
    let threaded = run_multi_stream(8, 4, Parallelism::Threads(4));
    assert_eq!(serial.partition_states, threaded.partition_states);
    assert_eq!(serial.all_ids, threaded.all_ids);
    assert_eq!(serial.ordering, threaded.ordering);
    assert_eq!(serial.fault_errors, threaded.fault_errors);
}

#[test]
fn partition_count_is_the_logical_contract_not_the_shard_count() {
    // Sanity check of the design statement: changing V *does* change
    // ownership (states differ), while the suites above prove changing N
    // never does.
    let v4 = run_multi_stream(4, 1, Parallelism::Serial);
    let v8 = run_multi_stream(8, 1, Parallelism::Serial);
    assert_ne!(v4.partition_states.len(), v8.partition_states.len());
    assert_eq!(v4.all_ids.len(), v8.all_ids.len(), "same update stream");
}
