//! Hostile-input hardening corpus for the two decoders that consume
//! untrusted bytes: [`PointStore::read_snapshot`] and [`read_wal`].
//!
//! Contract: garbage, truncated, bit-damaged, and deliberately hostile
//! inputs (length prefixes and element counts claiming gigabytes) must
//! produce a typed error or a clean torn-tail result — never a panic and
//! never an allocation beyond a fixed multiple of the input size.

use idb_store::segment::{read_chain, ChainContents, SegmentId, SegmentedSink};
use idb_store::wal::{read_wal, scratch_dir, WalError, WalRecord, WalWriter, WAL_VERSION};
use idb_store::{
    Batch, DurableSink, FsMedium, Medium, MemMedium, PointId, PointStore, SnapshotError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

fn churned_store() -> PointStore {
    let mut store = PointStore::new(3);
    let mut ids = Vec::new();
    for i in 0..150 {
        ids.push(store.insert(&[i as f64, 0.5 * i as f64, -(i as f64)], Some(i % 5)));
    }
    for i in (0..150).step_by(4) {
        store.remove(ids[i]);
    }
    store
}

fn snapshot_bytes(store: &PointStore) -> Vec<u8> {
    let mut buf = Vec::new();
    store.write_snapshot(&mut buf).unwrap();
    buf
}

/// Builds a syntactically valid v2 frame around an arbitrary payload:
/// correct magic, version, length and both CRCs — so decoding reaches the
/// body parser and its claims.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut body = Vec::new();
    body.extend_from_slice(b"IDBP");
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(&idb_store::snapshot::crc32(payload).to_le_bytes());
    buf.extend_from_slice(&body);
    buf.extend_from_slice(&idb_store::snapshot::crc32(&body).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn random_garbage_never_panics_either_decoder() {
    let mut rng = StdRng::seed_from_u64(0x4A5D_0001);
    for trial in 0..512 {
        let n = rng.gen_range(0..2048);
        let mut bytes: Vec<u8> = (0..n).map(|_| rng.gen::<u32>() as u8).collect();
        // A quarter of the corpus gets a valid magic + version so decoding
        // reaches the interior instead of bouncing off the first check.
        if trial % 4 == 0 && bytes.len() >= 8 {
            let magic: &[u8; 4] = if trial % 8 == 0 { b"IDBP" } else { b"IDBW" };
            bytes[..4].copy_from_slice(magic);
            bytes[4..8]
                .copy_from_slice(&if magic == b"IDBP" { 2u32 } else { WAL_VERSION }.to_le_bytes());
        }
        // Typed results only; unwinding would fail the test.
        let _ = PointStore::read_snapshot(&mut bytes.as_slice()).err();
        let _ = read_wal(&bytes).err();
    }
}

#[test]
fn hostile_frame_length_is_capped_to_the_input() {
    // A frame header claiming a payload just under the 1 TiB ceiling,
    // followed by 16 actual bytes: the reader must not trust the claim
    // with an allocation — it reads what is there and reports truncation.
    let mut buf = Vec::new();
    buf.extend_from_slice(b"IDBP");
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&((1u64 << 40) - 1).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // payload crc (never reached)
    let crc = idb_store::snapshot::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&[0xAB; 16]);
    match PointStore::read_snapshot(&mut buf.as_slice()) {
        Err(SnapshotError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
        }
        other => panic!("expected truncation Io error, got {other:?}"),
    }

    // Claims beyond the ceiling are rejected outright.
    let mut buf = Vec::new();
    buf.extend_from_slice(b"IDBP");
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    let crc = idb_store::snapshot::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        PointStore::read_snapshot(&mut buf.as_slice()),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn hostile_body_counts_fail_typed_without_huge_allocations() {
    let cases: [(u64, u64, u64, &str); 4] = [
        // dim, slots, len — each claims gigabytes from a ~40-byte payload.
        (3, u32::MAX as u64, 0, "4 billion empty slots"),
        (1 << 20, 1 << 20, 0, "maximum dim times a million holes"),
        (2, 1 << 30, 1 << 30, "a billion live points"),
        (u64::MAX, 1, 1, "dim beyond any plausibility"),
    ];
    for (dim, slots, len, what) in cases {
        let mut payload = Vec::new();
        payload.extend_from_slice(&dim.to_le_bytes());
        payload.extend_from_slice(&slots.to_le_bytes());
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]); // a little plausible-looking tail
        match PointStore::read_snapshot(&mut frame(&payload).as_slice()) {
            Err(SnapshotError::Corrupt(_)) | Err(SnapshotError::Io(_)) => {}
            other => panic!("{what}: expected typed rejection, got {other:?}"),
        }
    }

    // The WAL analogue: a record whose u32 length field claims ~4 GiB.
    let mut wal = Vec::new();
    wal.extend_from_slice(b"IDBW");
    wal.extend_from_slice(&WAL_VERSION.to_le_bytes());
    wal.extend_from_slice(&2u32.to_le_bytes());
    wal.extend_from_slice(&0u64.to_le_bytes());
    wal.extend_from_slice(&(u32::MAX - 8).to_le_bytes());
    wal.extend_from_slice(&0u32.to_le_bytes());
    wal.extend_from_slice(&[0u8; 64]);
    let contents = read_wal(&wal).expect("an oversized length claim is a torn tail");
    assert!(contents.torn_tail);
    assert!(contents.records.is_empty());
}

#[test]
fn every_truncation_of_a_valid_snapshot_is_a_typed_error() {
    let buf = snapshot_bytes(&churned_store());
    for cut in 0..buf.len() {
        match PointStore::read_snapshot(&mut &buf[..cut]) {
            Err(SnapshotError::Io(_)) | Err(SnapshotError::Corrupt(_)) => {}
            Ok(_) => panic!("truncation to {cut} of {} bytes decoded", buf.len()),
        }
    }
    assert!(PointStore::read_snapshot(&mut buf.as_slice()).is_ok());
}

#[test]
fn every_single_bit_flip_of_a_valid_snapshot_is_detected() {
    let buf = snapshot_bytes(&churned_store());
    let mut rng = StdRng::seed_from_u64(0x4A5D_0002);
    // Sweep every byte (random bit within it): the two CRCs must catch
    // every flip — in the header, the live section, or the free list.
    for offset in 0..buf.len() {
        let mut damaged = buf.clone();
        damaged[offset] ^= 1u8 << rng.gen_range(0..8);
        assert!(
            PointStore::read_snapshot(&mut damaged.as_slice()).is_err(),
            "flip at byte {offset} went undetected"
        );
    }
}

#[test]
fn wal_decode_errors_carry_offsets_and_details() {
    // Distinguishes the two WAL failure shapes on the same damaged input:
    // structural damage is `Corrupt { offset, .. }` pointing at the record,
    // truncation is a clean torn tail.
    let mut wal = Vec::new();
    wal.extend_from_slice(b"IDBW");
    wal.extend_from_slice(&WAL_VERSION.to_le_bytes());
    wal.extend_from_slice(&2u32.to_le_bytes());
    wal.extend_from_slice(&0u64.to_le_bytes());
    let payload = [7u8; 24]; // unknown record kind
    wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wal.extend_from_slice(&idb_store::snapshot::crc32(&payload).to_le_bytes());
    wal.extend_from_slice(&payload);
    match read_wal(&wal) {
        Err(WalError::Corrupt { offset, detail }) => {
            assert_eq!(offset, 20, "error anchors at the record start");
            assert!(!detail.is_empty());
        }
        other => panic!("expected a corrupt record, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Segment-chain hostile corpus: read_chain over damaged multi-segment WALs.
// ---------------------------------------------------------------------------

/// Every segment's bytes, by id.
type Chain = BTreeMap<SegmentId, Vec<u8>>;

/// Installs `chain` on a fresh medium of each kind — in memory, and as
/// files in a new directory under `scratch_dir()` — and hands what
/// [`read_chain`] makes of it to `check`.
fn read_on_each_medium(chain: &Chain, check: impl Fn(Result<ChainContents, WalError>)) {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let install = |medium: &dyn Medium| {
        for (id, bytes) in chain {
            medium.append(&id.file_name(), bytes).unwrap();
        }
    };
    let mem = MemMedium::new();
    install(&mem);
    check(read_chain(&mem));
    let dir = scratch_dir().join(format!(
        "idb-hardening-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let fs = FsMedium::open(&dir).unwrap();
    install(&fs);
    check(read_chain(&fs));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A valid multi-segment chain (tiny per-segment budget forces several
/// rotations), imaged for sabotage.
fn sample_chain(seed: u64) -> (Chain, Vec<WalRecord>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<WalRecord> = (0..24)
        .map(|_| {
            let mut rec = WalRecord {
                round_seed: rng.gen(),
                maintain: rng.gen_bool(0.5),
                batch: Batch {
                    deletes: (0..rng.gen_range(0..3))
                        .map(|_| PointId(rng.gen()))
                        .collect(),
                    inserts: (0..rng.gen_range(1..4))
                        .map(|_| {
                            (
                                vec![rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0)],
                                None,
                            )
                        })
                        .collect(),
                },
                targets: Vec::new(),
            };
            rec.targets = vec![0; rec.batch.inserts.len()];
            rec
        })
        .collect();
    let medium = MemMedium::new();
    let sink = SegmentedSink::fresh(medium.clone(), 200).unwrap();
    let mut w = WalWriter::new(sink, 2, 0, 1);
    w.commit().unwrap();
    for r in &records {
        w.append(r);
        w.commit().unwrap();
        let next = w.committed_records();
        w.sink_mut().roll(2, next).unwrap();
    }
    assert!(
        w.sink().segment_count() >= 4,
        "the corpus needs a real chain, got {} segments",
        w.sink().segment_count()
    );
    let chain = medium
        .objects()
        .into_iter()
        .map(|(name, bytes)| (SegmentId::parse(&name).unwrap(), bytes))
        .collect();
    (chain, records)
}

#[test]
fn missing_interior_segment_is_a_typed_chain_gap() {
    let (medium, _) = sample_chain(0x5E61);
    let ids: Vec<SegmentId> = medium.clone().into_keys().collect();
    for (victim, id) in ids.iter().enumerate().take(ids.len() - 1).skip(1) {
        let mut m = medium.clone();
        m.remove(id);
        read_on_each_medium(&m, |got| match got {
            Err(WalError::ChainGap {
                epoch,
                expected_seq,
            }) => {
                assert_eq!(epoch, id.epoch);
                assert_eq!(expected_seq, id.seq);
            }
            other => panic!("segment {victim} removed: expected ChainGap, got {other:?}"),
        });
    }
    // Removing the *final* segment leaves a shorter but well-formed chain.
    let mut m = medium.clone();
    m.remove(ids.last().unwrap());
    read_on_each_medium(&m, |got| {
        assert!(got.is_ok(), "a shorter chain is legal");
    });
}

#[test]
fn swapped_segment_contents_fail_the_base_handoff() {
    let (snap, _) = sample_chain(0x5E62);
    let ids: Vec<SegmentId> = snap.keys().copied().collect();
    // Swap two interior segments' bytes: sequence numbers stay contiguous
    // but each segment's base no longer matches its predecessor's end.
    let mut m = snap.clone();
    let (a, b) = (ids[1], ids[2]);
    let (ba, bb) = (m[&a].clone(), m[&b].clone());
    m.insert(a, bb);
    m.insert(b, ba);
    read_on_each_medium(&m, |got| {
        assert!(
            matches!(got, Err(WalError::CorruptSegment { .. })),
            "reordered contents must fail the base handoff"
        );
    });
}

#[test]
fn interior_bit_flips_and_truncations_are_typed_never_panics() {
    let (snap, records) = sample_chain(0x5E63);
    let ids: Vec<SegmentId> = snap.keys().copied().collect();
    let mut rng = StdRng::seed_from_u64(0x5E64);
    for trial in 0..128 {
        let victim = ids[rng.gen_range(0..ids.len())];
        let mut m = snap.clone();
        let bytes = m.get_mut(&victim).unwrap();
        if trial % 2 == 0 {
            let len = bytes.len();
            bytes[rng.gen_range(0..len)] ^= 1u8 << rng.gen_range(0..8);
        } else {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        }
        read_on_each_medium(&m, |got| match got {
            Ok(chain) => {
                // Only damage confined to the final segment may read clean
                // (as a shorter/torn chain); the survivors must be a prefix
                // of the reference stream.
                assert_eq!(
                    chain.records,
                    records[..chain.records.len()],
                    "trial {trial}"
                );
            }
            Err(WalError::ChainGap { .. } | WalError::CorruptSegment { .. } | WalError::Io(_)) => {}
            Err(other) => panic!("trial {trial}: unexpected error class: {other}"),
        });
    }
}

#[test]
fn gigabyte_claiming_segment_headers_fail_typed_without_allocating() {
    let (snap, records) = sample_chain(0x5E65);
    let ids: Vec<SegmentId> = snap.keys().copied().collect();
    // A hostile record framing planted at the start of a segment's record
    // area: a u32 length claiming ~4 GiB. In an interior segment that is
    // typed corruption (interior tails must be clean); as the final
    // segment it is an ordinary torn tail.
    let hostile_tail: Vec<u8> = (u32::MAX - 8)
        .to_le_bytes()
        .into_iter()
        .chain(0u32.to_le_bytes())
        .chain([0u8; 64])
        .collect();
    for (k, &victim) in ids.iter().enumerate() {
        let mut m = snap.clone();
        let bytes = m.get_mut(&victim).unwrap();
        bytes.truncate(20); // Keep only the segment header...
        bytes.extend_from_slice(&hostile_tail); // ...then claim gigabytes.
        read_on_each_medium(&m, |got| match got {
            Ok(chain) if k == ids.len() - 1 => {
                assert!(chain.torn_tail, "an oversized claim is a torn tail");
                assert_eq!(chain.records, records[..chain.records.len()]);
            }
            Err(WalError::CorruptSegment { epoch, seq, .. }) if k < ids.len() - 1 => {
                assert_eq!((epoch, seq), (victim.epoch, victim.seq));
            }
            other => panic!("victim {k}: unexpected outcome: {other:?}"),
        });
    }
}
