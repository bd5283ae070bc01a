//! Bench: the durability layer's cost profile — WAL append + group-commit
//! throughput against in-memory and file sinks, and recovery wall time as
//! the WAL tail to replay grows (checkpoint cadence 1 / 16 / 64).
//!
//! `durability_report` (a bin in this crate) records the same comparison
//! to `BENCH_durability.json` without the criterion harness, alongside an
//! undurable baseline of the identical batch stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idb_bench::complex_fixture;
use idb_core::{
    recover, DurabilityConfig, DurableMaintainer, IncrementalBubbles, MaintainerConfig,
    Parallelism, SeedSearch,
};
use idb_geometry::SearchStats;
use idb_obs::Obs;
use idb_store::wal::{read_wal, ObjectSink};
use idb_store::{Batch, MemMedium};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BATCHES: usize = 64;

fn planned_stream() -> (idb_store::PointStore, MaintainerConfig, Vec<(Batch, u64)>) {
    let (mut scenario, store, mut rng) = complex_fixture(2, 20_000, 23);
    let mut sim = store.clone();
    let steps = (0..BATCHES)
        .map(|_| {
            let (batch, _) = scenario.step_plain(&mut sim, &mut rng);
            (batch, rng.gen::<u64>())
        })
        .collect();
    let config = MaintainerConfig::new(200)
        .with_seed_search(SeedSearch::Pruned)
        .with_parallelism(Parallelism::Serial);
    (store, config, steps)
}

fn bench_wal_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_wal");
    group.sample_size(10);
    let (store, config, steps) = planned_stream();
    for group_commit in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("mem_sink", format!("gc{group_commit}")),
            &steps,
            |b, steps| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut stats = SearchStats::new();
                    let ib =
                        IncrementalBubbles::build(&store, config.clone(), &mut rng, &mut stats);
                    let mut dm = DurableMaintainer::adopt(
                        store.clone(),
                        ib,
                        DurabilityConfig {
                            group_commit,
                            checkpoint_interval: u64::MAX,
                            ..DurabilityConfig::default()
                        },
                        ObjectSink::new(MemMedium::new(), "wal"),
                        MemMedium::new(),
                    )
                    .expect("mem sink is healthy");
                    for (batch, seed) in steps {
                        dm.apply_with(batch, *seed, true, &mut stats)
                            .expect("planned batches are valid");
                    }
                    black_box(dm.sync())
                });
            },
        );
    }
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_recover");
    group.sample_size(10);
    let (store, config, steps) = planned_stream();
    // Only the baseline anchor checkpoint (covering batch 0), so a prefix
    // of the WAL with k records means a replay tail of exactly k batches.
    let mut rng = StdRng::seed_from_u64(7);
    let mut stats = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, config, &mut rng, &mut stats);
    let mut dm = DurableMaintainer::adopt(
        store.clone(),
        ib,
        DurabilityConfig {
            checkpoint_interval: u64::MAX,
            ..DurabilityConfig::default()
        },
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("mem sink is healthy");
    for (batch, seed) in &steps {
        dm.apply_with(batch, *seed, true, &mut stats)
            .expect("planned batches are valid");
    }
    let (_, _, sink, ckpts) = dm.into_parts();
    let wal_bytes = sink.bytes();
    let ends = read_wal(&wal_bytes).expect("reference wal is intact").ends;
    for tail in [1usize, 16, 64] {
        let prefix = wal_bytes[..ends[tail - 1]].to_vec();
        group.bench_with_input(
            BenchmarkId::new("replay_tail", format!("{tail}_batches")),
            &prefix,
            |b, prefix| {
                b.iter(|| {
                    let rec = recover(prefix, &ckpts, &Obs::disabled()).expect("clean recovery");
                    black_box(rec.batches_durable)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_wal_throughput, bench_recovery);
criterion_main!(benches);
