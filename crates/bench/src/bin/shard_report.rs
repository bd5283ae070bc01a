//! Records the sharded service layer's scaling profile to
//! `BENCH_shard.json`.
//!
//! Two measurements:
//!
//! * **Throughput vs. shard count** — an identical pre-seeded update
//!   stream (waves of submissions drained with as many threads as
//!   shards) against a fixed 8-partition router at 1, 2, 4 and 8
//!   shards. The outputs are bit-identical by construction (the
//!   differential suite proves it); this measures the wall-clock side
//!   of the knob.
//! * **Single-partition recovery vs. whole-system restart** — median
//!   wall-clock to bring one crashed partition back through
//!   checkpoint + WAL-tail recovery, next to restarting every
//!   partition, quantifying what fault isolation buys.
//!
//! Usage: `shard_report [output.json]` (default `BENCH_shard.json`).

use idb_bench::{json_list, median, write_report};
use idb_core::{DurabilityConfig, MaintainerConfig};
use idb_geometry::Parallelism;
use idb_obs::Obs;
use idb_shard::{ShardConfig, ShardRouter};
use idb_store::{Batch, MemMedium, ObjectSink, PointId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const DIM: usize = 4;
const PARTITIONS: u32 = 8;
const INITIAL: usize = 24_000;
const BATCHES: usize = 32;
const WAVE: usize = 8;
const INSERTS_PER_BATCH: usize = 800;
const DELETES_PER_BATCH: usize = 200;
const REPS: usize = 3;

fn random_point<R: Rng + ?Sized>(rng: &mut R) -> Vec<f64> {
    (0..DIM).map(|_| rng.gen_range(0.0..100.0)).collect()
}

fn make_router(shards: u32) -> (ShardRouter<ObjectSink<MemMedium>, MemMedium>, Vec<PointId>) {
    let mut rng = StdRng::seed_from_u64(17);
    let initial = Batch {
        deletes: Vec::new(),
        inserts: (0..INITIAL)
            .map(|_| (random_point(&mut rng), Some(0)))
            .collect(),
    };
    let (router, ids) = ShardRouter::create(
        DIM,
        &initial,
        &MaintainerConfig::new(160),
        ShardConfig::new(PARTITIONS).with_shards(shards),
        DurabilityConfig::default(),
        2024,
        &Obs::disabled(),
        |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
    )
    .expect("create router");
    (router, ids)
}

/// Batch `i` of the fixed stream: deletes the `i`-th run of
/// `DELETES_PER_BATCH` initial points (the stream never outruns them) and
/// inserts fresh ones.
fn stream_batch(initial: &[PointId], i: usize, rng: &mut StdRng) -> Batch {
    Batch {
        deletes: initial[i * DELETES_PER_BATCH..(i + 1) * DELETES_PER_BATCH].to_vec(),
        inserts: (0..INSERTS_PER_BATCH)
            .map(|_| (random_point(rng), Some(1)))
            .collect(),
    }
}

/// Runs the fixed stream at one shard count: waves of `WAVE` submissions
/// drained with as many threads as shards. Returns (total seconds, drain
/// seconds, points at end) — the drain is the part the shard count
/// parallelizes (routing and queueing stay serial at the client), and
/// the point count doubles as a cheap cross-run equality check.
fn run_stream(shards: u32) -> (f64, f64, u64) {
    let (mut router, initial) = make_router(shards);
    let mut brng = StdRng::seed_from_u64(0x5AD);
    let drain_mode = Parallelism::Threads(shards as usize);

    let t0 = Instant::now();
    let mut drain_secs = 0.0;
    let mut done = 0usize;
    while done < BATCHES {
        let wave = WAVE.min(BATCHES - done);
        for i in done..done + wave {
            let batch = stream_batch(&initial, i, &mut brng);
            router.submit(&batch).expect("queue sized for the wave");
        }
        let td = Instant::now();
        let results = router.drain_with(drain_mode);
        drain_secs += td.elapsed().as_secs_f64();
        for (_, result) in results {
            result.expect("valid batches");
        }
        done += wave;
    }
    (
        t0.elapsed().as_secs_f64(),
        drain_secs,
        router.total_points(),
    )
}

fn main() {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"shard\",\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    // Shard scaling can only show up with cores to run on; record the
    // host so a flat curve on a small box reads as what it is.
    let _ = writeln!(
        json,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dim\": {DIM}, \"partitions\": {PARTITIONS}, \"initial\": {INITIAL}, \"batches\": {BATCHES}, \"inserts_per_batch\": {INSERTS_PER_BATCH}, \"deletes_per_batch\": {DELETES_PER_BATCH}, \"wave\": {WAVE}}},"
    );

    // Throughput vs. shard count.
    let mut reference_points = None;
    let mut throughput = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        let mut times = Vec::new();
        let mut drains = Vec::new();
        let mut points = 0u64;
        for _ in 0..REPS {
            let (secs, drain, pts) = run_stream(shards);
            times.push(secs);
            drains.push(drain);
            points = pts;
        }
        match reference_points {
            None => reference_points = Some(points),
            Some(p) => assert_eq!(p, points, "shard count changed the outcome"),
        }
        let secs = median(times);
        let drain = median(drains);
        eprintln!("{shards} shards: {secs:.4}s total, {drain:.4}s in drain, {BATCHES} batches");
        throughput.push(format!(
            "{{\"shards\": {shards}, \"median_secs\": {secs:.6}, \"median_drain_secs\": {drain:.6}, \"batches_per_sec\": {:.1}}}",
            BATCHES as f64 / secs
        ));
    }
    let _ = writeln!(json, "  \"throughput\": {},", json_list(4, throughput));

    // Single-partition recovery vs. whole-system restart, on the state
    // the stream left behind.
    let (mut router, initial) = make_router(8);
    let mut brng = StdRng::seed_from_u64(0x5AD);
    for i in 0..BATCHES {
        let batch = stream_batch(&initial, i, &mut brng);
        router.apply(&batch).expect("valid batches");
    }
    router.sync_all();

    let restart_one = |router: &mut ShardRouter<ObjectSink<MemMedium>, MemMedium>, p: u32| -> f64 {
        let (sink, checkpoints) = router.kill_partition(p).expect("online");
        let wal = sink.bytes().to_vec();
        let t0 = Instant::now();
        router
            .restart_partition(p, &wal, sink, checkpoints)
            .expect("restart");
        t0.elapsed().as_secs_f64()
    };

    let single: Vec<f64> = (0..REPS).map(|_| restart_one(&mut router, 3)).collect();
    let single = median(single);
    eprintln!("single-partition recovery: {single:.4}s");

    let whole: Vec<f64> = (0..REPS)
        .map(|_| (0..PARTITIONS).map(|p| restart_one(&mut router, p)).sum())
        .collect();
    let whole = median(whole);
    eprintln!("whole-system restart: {whole:.4}s");

    let _ = writeln!(
        json,
        "  \"recovery\": [\n    {{\"scope\": \"single_partition\", \"median_secs\": {single:.6}}},\n    {{\"scope\": \"whole_system\", \"median_secs\": {whole:.6}}}\n  ],"
    );
    json.push_str("  \"note\": \"uniform d4 stream over 8 partitions; shard counts share one bit-identical outcome (see crates/shard/tests/differential.rs); recovery restarts via checkpoint + WAL-tail replay while sibling partitions keep serving\"\n}\n");
    write_report("BENCH_shard.json", &json);
}
