//! Records the durability-layer cost profile to `BENCH_durability.json`.
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
//! * **The checkpoint codec** — on the final state of that stream: CRC-32
//!   throughput (the library's sliced CRC beside a byte-at-a-time
//!   reference, values checked equal), and one full checkpoint's encode
//!   with the store resident and tiered (hot budget 64, every point cold
//!   in a file spill under the scratch directory; the two blobs must be
//!   byte-identical) and its decode (which must re-encode to the same
//!   bytes).
//!
//! Usage: `durability_report [output.json] [baseline.json]` (default
//! `BENCH_durability.json`). With a baseline — the same report written
//! by an earlier build on the same host — the codec section also records
//! the baseline's numbers as `baseline_*`.

use idb_bench::{json_list, median_secs, median_secs_with, planned_stream, write_report};
use idb_core::recovery::CHECKPOINT_MAGIC;
use idb_core::{
    encode_checkpoint, recover, recover_chain, DurabilityConfig, DurableMaintainer,
    IncrementalBubbles, MaintainerConfig,
};
use idb_geometry::SearchStats;
use idb_obs::{EventKind, Obs, RingRecorder};
use idb_store::segment::SegmentedSink;
use idb_store::snapshot::{crc32, read_frame, read_u64};
use idb_store::wal::{read_wal, scratch_dir, FileSink, ObjectSink};
use idb_store::{Batch, FsCold, MemMedium, PointStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;

const REPS: usize = 5;
const BATCHES: usize = 64;
/// CRC passes over the checkpoint blob per timed run.
const CRC_PASSES: usize = 16;
/// The codec section's hot budget: the spill leaves every point cold.
const CODEC_HOT: usize = 64;

/// The byte table of the IEEE CRC-32, for the byte-at-a-time reference.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 one byte per step: the reference the sliced
/// [`crc32`] is timed and checked against.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Decodes a full checkpoint blob (frame, sequence numbers, store and
/// bubble snapshots) through the public codec.
fn decode(blob: &[u8]) -> (PointStore, IncrementalBubbles) {
    let payload = read_frame(&mut &blob[..], CHECKPOINT_MAGIC).expect("checkpoint frame");
    let mut cur: &[u8] = &payload;
    read_u64(&mut cur).expect("seq");
    read_u64(&mut cur).expect("covered");
    let store = PointStore::read_snapshot(&mut cur).expect("store snapshot");
    let bubbles = IncrementalBubbles::read_snapshot(&mut cur, &store).expect("bubble snapshot");
    assert!(
        cur.is_empty(),
        "trailing bytes after the checkpoint payload"
    );
    (store, bubbles)
}

/// Seconds per `f()` (median over [`REPS`] runs of `passes` calls each).
fn secs_per_call<T>(passes: usize, mut f: impl FnMut() -> T) -> f64 {
    median_secs(REPS, || {
        for _ in 0..passes {
            black_box(f());
        }
    })
    .0 / passes as f64
}

/// The value of numeric field `key` inside object `section` of a report
/// this binary wrote.
fn report_number(text: &str, section: &str, key: &str) -> Option<f64> {
    let body = &text[text.find(&format!("\"{section}\": {{"))?..];
    let body = &body[..body.find('}')?];
    let value = &body[body.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = value.find([',', '}']).unwrap_or(value.len());
    value[..end].trim().parse().ok()
}

/// The codec section (see the module docs) over one final state, with
/// `baseline`'s numbers as `baseline_*` fields when given.
fn codec_section(store: &PointStore, ib: &IncrementalBubbles, baseline: Option<&str>) -> String {
    let covered = BATCHES as u64;
    let (resident_secs, blob) = median_secs(REPS, || {
        encode_checkpoint(999, covered, store, ib).expect("in-memory encode")
    });
    let mb = blob.len() as f64 / 1e6;
    assert_eq!(
        crc32(&blob),
        crc32_bytewise(&blob),
        "sliced == reference CRC"
    );
    let crc_secs = secs_per_call(CRC_PASSES, || crc32(black_box(&blob)));
    let reference_secs = secs_per_call(CRC_PASSES, || crc32_bytewise(black_box(&blob)));

    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let path = dir.join(format!(
        "idb-durability-codec-{}.points",
        std::process::id()
    ));
    let mut tiered = store.clone();
    tiered
        .enable_tier(
            Box::new(FsCold::create(&path).expect("create spill")),
            CODEC_HOT,
        )
        .expect("spill");
    let (tiered_secs, tiered_blob) = median_secs(REPS, || {
        encode_checkpoint(999, covered, &tiered, ib).expect("tiered encode")
    });
    drop(tiered);
    assert!(
        tiered_blob == blob,
        "tiered and resident checkpoints must be byte-identical"
    );
    let (decode_secs, (rstore, rib)) = median_secs(REPS, || decode(&blob));
    assert!(
        encode_checkpoint(999, covered, &rstore, &rib).expect("re-encode") == blob,
        "a decoded checkpoint must re-encode to the same bytes"
    );
    let crc_mb_s = mb / crc_secs;
    let reference_mb_s = mb / reference_secs;
    eprintln!(
        "codec ({} B blob): crc {crc_mb_s:.0} MB/s (byte loop {reference_mb_s:.0}); \
         encode resident {resident_secs:.6}s, tiered {tiered_secs:.6}s; decode {decode_secs:.6}s",
        blob.len()
    );
    let fields = [
        ("crc_mb_per_s", crc_mb_s, 1),
        ("reference_crc_mb_per_s", reference_mb_s, 1),
        ("resident_encode_secs", resident_secs, 6),
        ("tiered_encode_secs", tiered_secs, 6),
        ("decode_secs", decode_secs, 6),
    ];
    let mut row = format!(
        "{{\"blob_bytes\": {}, \"crc_passes\": {CRC_PASSES}, \"hot_points\": {CODEC_HOT}, \
         \"tiered_equals_resident\": true",
        blob.len()
    );
    for (key, value, digits) in fields {
        let _ = write!(row, ", \"{key}\": {value:.digits$}");
    }
    if let Some(text) = baseline {
        for (key, _, digits) in fields {
            let value = report_number(text, "codec", key).expect("baseline codec field");
            let _ = write!(row, ", \"baseline_{key}\": {value:.digits$}");
        }
    }
    row.push('}');
    row
}

fn build(store: &PointStore) -> IncrementalBubbles {
    let mut rng = StdRng::seed_from_u64(7);
    let mut stats = SearchStats::new();
    IncrementalBubbles::build(store, MaintainerConfig::new(200), &mut rng, &mut stats)
}

/// The undurable baseline: the same batches and maintenance, no logging.
fn baseline_secs(store: &PointStore, steps: &[(Batch, u64)]) -> f64 {
    let replay = |(mut ib, mut store): (IncrementalBubbles, PointStore)| {
        let mut stats = SearchStats::new();
        for (batch, seed) in steps {
            ib.apply_batch(&mut store, batch, &mut stats);
            ib.maintain(&store, &mut StdRng::seed_from_u64(*seed), &mut stats);
        }
        (ib, store)
    };
    median_secs_with(REPS, || (build(store), store.clone()), replay).0
}

fn durable_secs<S, F>(
    store: &PointStore,
    steps: &[(Batch, u64)],
    group_commit: usize,
    mut sink: F,
) -> f64
where
    S: idb_store::DurableSink,
    F: FnMut() -> S,
{
    let adopt = || {
        let dcfg = DurabilityConfig {
            group_commit,
            checkpoint_interval: u64::MAX,
            ..DurabilityConfig::default()
        };
        DurableMaintainer::adopt(store.clone(), build(store), dcfg, sink(), MemMedium::new())
            .expect("sink is healthy")
    };
    let replay = |mut dm: DurableMaintainer<S, MemMedium>| {
        let mut stats = SearchStats::new();
        for (batch, seed) in steps {
            dm.apply_with(batch, *seed, true, &mut stats)
                .expect("planned batches are valid");
        }
        dm.sync();
        dm
    };
    median_secs_with(REPS, adopt, replay).0
}

fn main() {
    let (store, steps) = planned_stream(2, 20_000, 23, BATCHES);
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"durability\",\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"batches\": {BATCHES},");

    // WAL throughput.
    let base = baseline_secs(&store, &steps);
    eprintln!("baseline (no durability): {base:.4}s for {BATCHES} batches");
    let mut rows = vec![("none", "baseline", 0usize, base)];
    for group_commit in [1usize, 8] {
        let mem = durable_secs(&store, &steps, group_commit, || {
            ObjectSink::new(MemMedium::new(), "wal")
        });
        eprintln!("mem sink, group_commit={group_commit}: {mem:.4}s");
        rows.push(("mem", "durable", group_commit, mem));
        let dir = scratch_dir().join(format!("idb-durability-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench scratch dir");
        let path = dir.join("bench.wal");
        let file = durable_secs(&store, &steps, group_commit, || {
            FileSink::create(&path).expect("create bench wal")
        });
        eprintln!("file sink, group_commit={group_commit}: {file:.4}s");
        rows.push(("file", "durable", group_commit, file));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let rows = rows.iter().map(|(sink, mode, gc, secs)| {
        format!(
            "{{\"sink\": \"{sink}\", \"mode\": \"{mode}\", \"group_commit\": {gc}, \"median_secs\": {secs:.6}, \"batches_per_sec\": {:.1}}}",
            BATCHES as f64 / secs
        )
    });
    let _ = writeln!(json, "  \"wal_throughput\": {},", json_list(4, rows));

    // Recovery time vs. WAL tail length: one run with only the baseline
    // anchor checkpoint (covering batch 0), recovered from prefixes of
    // the WAL, so the replay tail is exactly the number of records in
    // the prefix. Plus the cost of writing one full checkpoint.
    let mut dm = DurableMaintainer::adopt(
        store.clone(),
        build(&store),
        DurabilityConfig {
            checkpoint_interval: u64::MAX,
            ..DurabilityConfig::default()
        },
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
    .expect("mem sink is healthy");
    let mut stats = SearchStats::new();
    for (batch, seed) in &steps {
        dm.apply_with(batch, *seed, true, &mut stats)
            .expect("planned batches are valid");
    }
    let (end_store, ib, sink, ckpts) = dm.into_parts();

    let wal_bytes = sink.bytes();
    let ends = read_wal(&wal_bytes).expect("reference wal is intact").ends;
    let mut recovery_rows = Vec::new();
    for tail in [1usize, 16, 64] {
        let prefix = &wal_bytes[..ends[tail - 1]];
        let (secs, rec) = median_secs(REPS, || {
            recover(prefix, &ckpts, &Obs::disabled()).expect("clean recovery")
        });
        assert_eq!(rec.replayed, tail);
        eprintln!(
            "recover: replay tail of {tail} batches ({} WAL bytes): {secs:.4}s",
            prefix.len()
        );
        recovery_rows.push((tail, prefix.len(), secs));
    }
    let recovery_rows = recovery_rows.iter().map(|(tail, wal_len, secs)| {
        format!(
            "{{\"replayed_batches\": {tail}, \"wal_bytes\": {wal_len}, \"median_secs\": {secs:.6}}}"
        )
    });
    let _ = writeln!(json, "  \"recovery\": {},", json_list(4, recovery_rows));
    let baseline = std::env::args()
        .nth(2)
        .map(|path| std::fs::read_to_string(path).expect("read baseline report"));
    let codec = codec_section(&end_store, &ib, baseline.as_deref());
    let _ = writeln!(json, "  \"codec\": {codec},");

    // Bounded footprint under the segmented WAL: the same stream against
    // a segment chain with streaming checkpoints and compaction, sampling
    // the live footprint after every batch. Disk amplification is total
    // bytes ever appended over the peak live footprint — the compaction
    // win the flat WAL cannot have.
    const SEGMENT_BYTES: u64 = 4096;
    const CKPT_INTERVAL: u64 = 8;
    let ring = Arc::new(RingRecorder::new());
    let medium = MemMedium::new();
    let mut ib = build(&store);
    ib.set_obs(Obs::with_recorder(ring.clone()));
    let mut dm = DurableMaintainer::adopt(
        store.clone(),
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
    for (batch, seed) in &steps {
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
    let (chain_secs, rec) = median_secs(REPS, || {
        recover_chain(&medium, &seg_ckpts, &Obs::disabled()).expect("clean chain recovery")
    });
    assert_eq!(rec.batches_durable as usize, BATCHES);
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
    let (small_store, sustained_steps) = planned_stream(2, 2_000, 31, SUSTAINED_BATCHES);
    let ring = Arc::new(RingRecorder::new());
    let medium = MemMedium::new();
    let mut srng2 = StdRng::seed_from_u64(8);
    let mut sstats = SearchStats::new();
    let mut ib = IncrementalBubbles::build(
        &small_store,
        MaintainerConfig::new(50),
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
    let (tier_store, tier_steps) = planned_stream(2, 2_000, 47, TIER_BATCHES);
    let tier_dim = tier_store.dim();
    let max_inserts = tier_steps
        .iter()
        .map(|(b, _)| b.inserts.len())
        .max()
        .unwrap_or(0);
    let mut stream_points = 0usize;
    let run_tiered = |hot: Option<usize>, stream_points: &mut usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut stats = SearchStats::new();
        let ib =
            IncrementalBubbles::build(&tier_store, MaintainerConfig::new(50), &mut rng, &mut stats);
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
    let curve = tier_curve.iter().map(|(stream, live, resident, bytes)| {
        format!(
            "{{\"stream_points\": {stream}, \"live_points\": {live}, \
             \"resident_points\": {resident}, \"resident_coord_bytes\": {bytes}}}"
        )
    });
    let _ = writeln!(
        json,
        "    \"resident_curve\": {}\n  }},",
        json_list(6, curve)
    );

    json.push_str("  \"note\": \"complex d2 n20000 s200 scenario, 64 pre-planned batches with maintenance after each, serial mode; durable runs use validate + WAL append + group commit + apply + checkpoint cadence as configured; recovery replays the WAL tail beyond the newest checkpoint; the segmented section streams the same batches through a segment chain with delta checkpoints and compaction, so the live footprint stays bounded while total appended bytes grow; the tier section replays a pre-planned stream tiered (hot cap 64) and fully resident, proving a flat resident-set curve with bit-identical final snapshots; the codec section times CRC-32 over the final state's checkpoint blob (crc_passes passes a run) and that blob's encode, resident and over a file spill that leaves every point cold (asserted byte-identical), and its decode; baseline_* fields, when present, come from the same report built at an earlier commit and run on the same host\"\n}\n");
    write_report("BENCH_durability.json", &json);
}
