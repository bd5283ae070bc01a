//! Records the durability-layer cost profile to `BENCH_durability.json`
//! without the criterion harness (so it runs in offline environments
//! where the criterion dependency is stubbed).
//!
//! Three measurements over the complex dynamic scenario:
//!
//! * **WAL throughput** — batches/second through the full durable path
//!   (validate → append → group-commit → apply → maintain) against an
//!   in-memory sink and a real file under `IDB_WAL_DIR`, at group-commit
//!   sizes 1 and 8, next to the undurable baseline of the same stream —
//!   so the logging overhead is the difference, not a guess.
//! * **Recovery time vs. WAL tail length** — wall-clock to recover from
//!   the latest checkpoint as the number of batches to replay grows
//!   (checkpoint cadence 1, 16, 64 over a 64-batch stream).
//! * **Checkpoint write cost** — median seconds to serialize and store
//!   one full checkpoint, with its size in bytes.
//!
//! Usage: `durability_report [output.json]` (default
//! `BENCH_durability.json`).

use idb_bench::{complex_fixture, median};
use idb_core::{
    recover, recover_chain, DurabilityConfig, DurableMaintainer, IncrementalBubbles,
    MaintainerConfig, Parallelism, SeedSearch,
};
use idb_geometry::SearchStats;
use idb_obs::{EventKind, Obs, RingRecorder};
use idb_store::segment::SegmentedSink;
use idb_store::wal::{read_wal, scratch_dir, FileSink, ObjectSink};
use idb_store::{Batch, MemMedium};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;
const BATCHES: usize = 64;

struct Stream {
    store: idb_store::PointStore,
    config: MaintainerConfig,
    steps: Vec<(Batch, u64)>,
}

/// Pre-plans a fixed 64-batch stream so every measured variant runs the
/// identical workload.
fn plan_stream() -> Stream {
    let (mut scenario, store, mut rng) = complex_fixture(2, 20_000, 23);
    let mut sim = store.clone();
    let steps = (0..BATCHES)
        .map(|_| {
            let (batch, _) = scenario.step_plain(&mut sim, &mut rng);
            (batch, rng.gen::<u64>())
        })
        .collect();
    Stream {
        store,
        config: MaintainerConfig::new(200)
            .with_seed_search(SeedSearch::Pruned)
            .with_parallelism(Parallelism::Serial),
        steps,
    }
}

fn build(stream: &Stream) -> IncrementalBubbles {
    let mut rng = StdRng::seed_from_u64(7);
    let mut stats = SearchStats::new();
    IncrementalBubbles::build(&stream.store, stream.config.clone(), &mut rng, &mut stats)
}

/// The undurable baseline: the same batches and maintenance, no logging.
fn baseline_secs(stream: &Stream) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let mut store = stream.store.clone();
                let mut ib = build(stream);
                let mut stats = SearchStats::new();
                let t0 = Instant::now();
                for (batch, seed) in &stream.steps {
                    ib.apply_batch(&mut store, batch, &mut stats);
                    let mut rng = StdRng::seed_from_u64(*seed);
                    ib.maintain(&store, &mut rng, &mut stats);
                }
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn durable_secs<S, F>(stream: &Stream, group_commit: usize, mut sink: F) -> f64
where
    S: idb_store::DurableSink,
    F: FnMut() -> S,
{
    median(
        (0..REPS)
            .map(|_| {
                let dcfg = DurabilityConfig {
                    group_commit,
                    checkpoint_interval: u64::MAX,
                    ..DurabilityConfig::default()
                };
                let mut dm = DurableMaintainer::adopt(
                    stream.store.clone(),
                    build(stream),
                    dcfg,
                    sink(),
                    MemMedium::new(),
                )
                .expect("sink is healthy");
                let mut stats = SearchStats::new();
                let t0 = Instant::now();
                for (batch, seed) in &stream.steps {
                    dm.apply_with(batch, *seed, true, &mut stats)
                        .expect("planned batches are valid");
                }
                dm.sync();
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_durability.json".to_string());
    let stream = plan_stream();
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"durability\",\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"batches\": {BATCHES},");

    // WAL throughput.
    let base = baseline_secs(&stream);
    eprintln!("baseline (no durability): {base:.4}s for {BATCHES} batches");
    json.push_str("  \"wal_throughput\": [\n");
    let mut rows = vec![("none", "baseline", 0usize, base)];
    for group_commit in [1usize, 8] {
        let mem = durable_secs(&stream, group_commit, || {
            ObjectSink::new(MemMedium::new(), "wal")
        });
        eprintln!("mem sink, group_commit={group_commit}: {mem:.4}s");
        rows.push(("mem", "durable", group_commit, mem));
        let dir = scratch_dir().join(format!("idb-durability-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench scratch dir");
        let path = dir.join("bench.wal");
        let file = durable_secs(&stream, group_commit, || {
            FileSink::create(&path).expect("create bench wal")
        });
        eprintln!("file sink, group_commit={group_commit}: {file:.4}s");
        rows.push(("file", "durable", group_commit, file));
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (i, (sink, mode, gc, secs)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"sink\": \"{sink}\", \"mode\": \"{mode}\", \"group_commit\": {gc}, \"median_secs\": {secs:.6}, \"batches_per_sec\": {:.1}}}{comma}",
            BATCHES as f64 / secs
        );
    }
    json.push_str("  ],\n");

    // Recovery time vs. WAL tail length: one run with only the baseline
    // anchor checkpoint (covering batch 0), recovered from prefixes of
    // the WAL, so the replay tail is exactly the number of records in
    // the prefix. Plus the cost of writing one full checkpoint.
    json.push_str("  \"recovery\": [\n");
    let mut dm = DurableMaintainer::adopt(
        stream.store.clone(),
        build(&stream),
        DurabilityConfig {
            checkpoint_interval: u64::MAX,
            ..DurabilityConfig::default()
        },
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("mem sink is healthy");
    let mut stats = SearchStats::new();
    for (batch, seed) in &stream.steps {
        dm.apply_with(batch, *seed, true, &mut stats)
            .expect("planned batches are valid");
    }
    let (end_store, ib, sink, ckpts) = dm.into_parts();

    // Checkpoint serialization cost, measured on the final state.
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let blob = idb_core::encode_checkpoint(999, BATCHES as u64, &end_store, &ib)
                .expect("in-memory encode");
            std::hint::black_box(blob.len());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let blob = idb_core::encode_checkpoint(999, BATCHES as u64, &end_store, &ib)
        .expect("in-memory encode");
    let checkpoint_cost = (median(times), blob.len());

    let wal_bytes = sink.bytes();
    let ends = read_wal(&wal_bytes).expect("reference wal is intact").ends;
    let mut recovery_rows = Vec::new();
    for tail in [1usize, 16, 64] {
        let prefix = &wal_bytes[..ends[tail - 1]];
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                let rec = recover(prefix, &ckpts, &Obs::disabled()).expect("clean recovery");
                std::hint::black_box(rec.batches_durable);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let rec = recover(prefix, &ckpts, &Obs::disabled()).expect("clean recovery");
        assert_eq!(rec.replayed as usize, tail);
        let secs = median(times);
        eprintln!(
            "recover: replay tail of {tail} batches ({} WAL bytes): {secs:.4}s",
            prefix.len()
        );
        recovery_rows.push((tail, prefix.len(), secs));
    }
    for (i, (tail, wal_len, secs)) in recovery_rows.iter().enumerate() {
        let comma = if i + 1 == recovery_rows.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"replayed_batches\": {tail}, \"wal_bytes\": {wal_len}, \"median_secs\": {secs:.6}}}{comma}"
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"checkpoint\": {{\"median_encode_secs\": {:.6}, \"blob_bytes\": {}}},",
        checkpoint_cost.0, checkpoint_cost.1
    );

    // Bounded footprint under the segmented WAL: the same stream against
    // a segment chain with streaming checkpoints and compaction, sampling
    // the live footprint after every batch. Disk amplification is total
    // bytes ever appended over the peak live footprint — the compaction
    // win the flat WAL cannot have.
    const SEGMENT_BYTES: u64 = 4096;
    const CKPT_INTERVAL: u64 = 8;
    let ring = Arc::new(RingRecorder::new());
    let medium = MemMedium::new();
    let mut ib = build(&stream);
    ib.set_obs(Obs::with_recorder(ring.clone()));
    let mut dm = DurableMaintainer::adopt(
        stream.store.clone(),
        ib,
        DurabilityConfig {
            checkpoint_interval: CKPT_INTERVAL,
            full_rebase_interval: 3,
            checkpoint_chunk_bytes: 256 * 1024,
            ..DurabilityConfig::default()
        },
        SegmentedSink::fresh(medium.clone(), SEGMENT_BYTES).expect("fresh chain"),
        MemMedium::new(),
    )
    .expect("mem segments are healthy");
    let mut stats = SearchStats::new();
    let mut max_live = 0u64;
    for (batch, seed) in &stream.steps {
        dm.apply_with(batch, *seed, true, &mut stats)
            .expect("planned batches are valid");
        max_live = max_live.max(dm.live_wal_bytes().expect("segmented sink reports live"));
    }
    dm.sync();
    let final_live = dm.live_wal_bytes().expect("segmented sink reports live");
    let (_, _, _, seg_ckpts) = dm.into_parts();
    let (mut rotations, mut compactions, mut reclaimed, mut chunks) = (0u64, 0u64, 0u64, 0u64);
    for e in ring.events() {
        match e.kind {
            EventKind::WalRotate { .. } => rotations += 1,
            EventKind::WalCompact { bytes, .. } => {
                compactions += 1;
                reclaimed += bytes;
            }
            EventKind::CheckpointChunk { .. } => chunks += 1,
            _ => {}
        }
    }
    let total_appended = reclaimed + final_live;
    let amplification = total_appended as f64 / max_live.max(1) as f64;
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let rec =
                recover_chain(&medium, &seg_ckpts, &Obs::disabled()).expect("clean chain recovery");
            std::hint::black_box(rec.batches_durable);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let rec = recover_chain(&medium, &seg_ckpts, &Obs::disabled()).expect("clean chain recovery");
    assert_eq!(rec.batches_durable as usize, BATCHES);
    let chain_secs = median(times);
    eprintln!(
        "segmented (segment={SEGMENT_BYTES}B, ckpt every {CKPT_INTERVAL}): \
         peak live {max_live}B, appended {total_appended}B (x{amplification:.2}), \
         {rotations} rotations, {compactions} compactions; \
         chain recovery (replay {}): {chain_secs:.4}s",
        rec.replayed
    );
    let _ = writeln!(
        json,
        "  \"segmented\": {{\"segment_bytes\": {SEGMENT_BYTES}, \"checkpoint_interval\": {CKPT_INTERVAL}, \
         \"max_live_wal_bytes\": {max_live}, \"final_live_wal_bytes\": {final_live}, \
         \"total_appended_bytes\": {total_appended}, \"disk_amplification\": {amplification:.3}, \
         \"rotations\": {rotations}, \"compactions\": {compactions}, \"reclaimed_bytes\": {reclaimed}, \
         \"checkpoint_chunks\": {chunks}, \
         \"chain_recovery\": {{\"median_secs\": {chain_secs:.6}, \"replayed_batches\": {}}}}},",
        rec.replayed
    );

    // The bound that matters for a forever-stream: a sustained
    // multi-thousand-batch run whose live footprint plateaus while total
    // appended bytes grow linearly. Smaller fixture, one rep — this is a
    // footprint measurement, not a timing one.
    const SUSTAINED_BATCHES: usize = 2500;
    let (mut scenario, small_store, mut srng) = complex_fixture(2, 2_000, 31);
    let mut sim = small_store.clone();
    let sustained_steps: Vec<(Batch, u64)> = (0..SUSTAINED_BATCHES)
        .map(|_| {
            let (batch, _) = scenario.step_plain(&mut sim, &mut srng);
            (batch, srng.gen::<u64>())
        })
        .collect();
    let ring = Arc::new(RingRecorder::new());
    let medium = MemMedium::new();
    let mut srng2 = StdRng::seed_from_u64(8);
    let mut sstats = SearchStats::new();
    let mut ib = IncrementalBubbles::build(
        &small_store,
        MaintainerConfig::new(50)
            .with_seed_search(SeedSearch::Pruned)
            .with_parallelism(Parallelism::Serial),
        &mut srng2,
        &mut sstats,
    );
    ib.set_obs(Obs::with_recorder(ring.clone()));
    let mut dm = DurableMaintainer::adopt(
        small_store,
        ib,
        DurabilityConfig {
            checkpoint_interval: 64,
            full_rebase_interval: 4,
            ..DurabilityConfig::default()
        },
        SegmentedSink::fresh(medium.clone(), 8192).expect("fresh chain"),
        MemMedium::new(),
    )
    .expect("mem segments are healthy");
    let (mut s_max_live, mut half_max_live) = (0u64, 0u64);
    for (i, (batch, seed)) in sustained_steps.iter().enumerate() {
        dm.apply_with(batch, *seed, true, &mut sstats)
            .expect("planned batches are valid");
        let live = dm.live_wal_bytes().expect("segmented sink reports live");
        s_max_live = s_max_live.max(live);
        if i < SUSTAINED_BATCHES / 2 {
            half_max_live = half_max_live.max(live);
        }
    }
    dm.sync();
    let s_final_live = dm.live_wal_bytes().expect("segmented sink reports live");
    let (mut s_rotations, mut s_compactions, mut s_reclaimed) = (0u64, 0u64, 0u64);
    for e in ring.events() {
        match e.kind {
            EventKind::WalRotate { .. } => s_rotations += 1,
            EventKind::WalCompact { bytes, .. } => {
                s_compactions += 1;
                s_reclaimed += bytes;
            }
            _ => {}
        }
    }
    let s_appended = s_reclaimed + s_final_live;
    // Bounded means the peak does not track stream length: the second
    // half of the stream must not push the footprint meaningfully past
    // the first half's peak.
    assert!(
        s_max_live < 2 * half_max_live,
        "live footprint kept growing: peak {s_max_live} vs first-half peak {half_max_live}"
    );
    eprintln!(
        "sustained ({SUSTAINED_BATCHES} batches, segment=8192B, ckpt every 64): \
         appended {s_appended}B, peak live {s_max_live}B (first half {half_max_live}B), \
         {s_rotations} rotations, {s_compactions} compactions"
    );
    let _ = writeln!(
        json,
        "  \"sustained\": {{\"batches\": {SUSTAINED_BATCHES}, \"segment_bytes\": 8192, \
         \"checkpoint_interval\": 64, \"total_appended_bytes\": {s_appended}, \
         \"max_live_wal_bytes\": {s_max_live}, \"first_half_max_live_wal_bytes\": {half_max_live}, \
         \"final_live_wal_bytes\": {s_final_live}, \"rotations\": {s_rotations}, \
         \"compactions\": {s_compactions}, \"reclaimed_bytes\": {s_reclaimed}}},"
    );
    // Tiered point store: the O(bubbles + hot points) resident set. The
    // same pre-planned stream runs once fully resident and once with a
    // 64-point hot budget over the default cold medium; the tiered run's
    // resident payload curve must stay flat while the cumulative stream
    // grows 20× past the hot cap, and the two final states must be
    // byte-identical (snapshot encoding included) — tiering is physics,
    // never semantics.
    const HOT: usize = 64;
    const TIER_BATCHES: usize = 160;
    let (mut scenario, tier_store, mut trng) = complex_fixture(2, 2_000, 47);
    let tier_dim = tier_store.dim();
    let mut sim = tier_store.clone();
    let tier_steps: Vec<(Batch, u64)> = (0..TIER_BATCHES)
        .map(|_| {
            let (batch, _) = scenario.step_plain(&mut sim, &mut trng);
            (batch, trng.gen::<u64>())
        })
        .collect();
    let max_inserts = tier_steps
        .iter()
        .map(|(b, _)| b.inserts.len())
        .max()
        .unwrap_or(0);
    let mut stream_points = 0usize;
    let run_tiered = |hot: Option<usize>, stream_points: &mut usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut stats = SearchStats::new();
        let ib = IncrementalBubbles::build(
            &tier_store,
            MaintainerConfig::new(50)
                .with_seed_search(SeedSearch::Pruned)
                .with_parallelism(Parallelism::Serial),
            &mut rng,
            &mut stats,
        );
        let mut dm = DurableMaintainer::adopt(
            tier_store.clone(),
            ib,
            DurabilityConfig {
                checkpoint_interval: 64,
                hot_points: hot,
                ..DurabilityConfig::default()
            },
            ObjectSink::new(MemMedium::new(), "wal"),
            MemMedium::new(),
        )
        .expect("mem sink is healthy");
        *stream_points = dm.store().len();
        let mut curve = Vec::new();
        for (i, (batch, seed)) in tier_steps.iter().enumerate() {
            dm.apply_with(batch, *seed, true, &mut stats)
                .expect("planned batches are valid");
            *stream_points += batch.inserts.len();
            if i % 16 == 15 {
                curve.push((
                    *stream_points,
                    dm.store().len(),
                    dm.store().resident_points(),
                    dm.store().resident_coord_bytes(),
                ));
            }
        }
        let mut snap = Vec::new();
        dm.store().write_snapshot(&mut snap).expect("vec write");
        dm.bubbles().write_snapshot(&mut snap).expect("vec write");
        (curve, snap, dm.store().tier_counters())
    };
    let (tier_curve, tiered_snap, tier_counters) = run_tiered(Some(HOT), &mut stream_points);
    let mut ignored = 0usize;
    let (_, resident_snap, untiered_counters) = run_tiered(None, &mut ignored);
    assert!(
        untiered_counters.is_none(),
        "the resident run must not mount a tier"
    );
    assert_eq!(
        tiered_snap, resident_snap,
        "tiered and fully resident runs must end byte-identical"
    );
    let tc = tier_counters.expect("tiered run exposes counters");
    let resident_bound = (HOT + max_inserts + 1) * tier_dim * 8;
    for &(stream, _, resident, bytes) in &tier_curve {
        assert!(
            resident <= HOT + max_inserts,
            "resident points {resident} past the bound at stream length {stream}"
        );
        assert!(
            bytes <= resident_bound,
            "resident arena {bytes}B past the {resident_bound}B bound at stream length {stream}"
        );
    }
    let final_stream = tier_curve.last().expect("curve sampled").0;
    assert!(
        final_stream >= 20 * HOT,
        "the stream must outgrow the hot cap 20x: {final_stream} points vs cap {HOT}"
    );
    eprintln!(
        "tier (hot={HOT}, {TIER_BATCHES} batches, {final_stream} cumulative points): \
         resident flat at <= {} points / {resident_bound}B; \
         {} cold reads ({}B), {} evictions; tiered == resident: bit-identical",
        HOT + max_inserts,
        tc.cold_reads,
        tc.cold_bytes,
        tc.evictions
    );
    json.push_str("  \"tier\": {\n");
    let _ = writeln!(
        json,
        "    \"hot_points\": {HOT}, \"batches\": {TIER_BATCHES}, \"dim\": {tier_dim}, \
         \"max_batch_inserts\": {max_inserts}, \"resident_bound_bytes\": {resident_bound}, \
         \"bit_identical_to_resident\": true, \"hits\": {}, \"misses\": {}, \
         \"cold_reads\": {}, \"cold_bytes\": {}, \"evictions\": {},",
        tc.hits, tc.misses, tc.cold_reads, tc.cold_bytes, tc.evictions
    );
    json.push_str("    \"resident_curve\": [\n");
    for (i, (stream, live, resident, bytes)) in tier_curve.iter().enumerate() {
        let comma = if i + 1 == tier_curve.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"stream_points\": {stream}, \"live_points\": {live}, \
             \"resident_points\": {resident}, \"resident_coord_bytes\": {bytes}}}{comma}"
        );
    }
    json.push_str("    ]\n  },\n");

    json.push_str("  \"note\": \"complex d2 n20000 s200 scenario, 64 pre-planned batches with maintenance after each, serial mode; durable runs use validate + WAL append + group commit + apply + checkpoint cadence as configured; recovery replays the WAL tail beyond the newest checkpoint; the segmented section streams the same batches through a segment chain with delta checkpoints and compaction, so the live footprint stays bounded while total appended bytes grow; the tier section replays a pre-planned stream tiered (hot cap 64) and fully resident, proving a flat resident-set curve with bit-identical final snapshots\"\n}\n");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
