//! Bench: serial vs. parallel execution of the construction-scan
//! assignment (chunked across threads with per-worker distance counters).
//! Bubble OPTICS has no parallel stage: its walk is serial.
//!
//! Every mode computes bit-identical results (see the differential
//! suites), so the only question is wall-clock. `parallel_report` (a bin
//! in this crate) records the same comparison to `BENCH_parallel.json`
//! without the criterion harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idb_bench::random_fixture;
use idb_core::{IncrementalBubbles, MaintainerConfig, Parallelism};
use idb_geometry::SearchStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const MODES: [(&str, Parallelism); 3] = [
    ("serial", Parallelism::Serial),
    ("threads2", Parallelism::Threads(2)),
    ("threads4", Parallelism::Threads(4)),
];

fn bench_parallel_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(10);
    for &(dim, size) in &[
        (2usize, 10_000usize),
        (2, 100_000),
        (10, 10_000),
        (10, 100_000),
    ] {
        let (store, _) = random_fixture(dim, size, 11);
        for (name, par) in MODES {
            let label = format!("d{dim}_n{size}");
            group.bench_with_input(BenchmarkId::new(name, &label), &store, |b, store| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut stats = SearchStats::new();
                    let ib = IncrementalBubbles::build(
                        store,
                        MaintainerConfig::new(200).with_parallelism(par),
                        &mut rng,
                        &mut stats,
                    );
                    black_box(ib.total_points())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_build);
criterion_main!(benches);
