//! The decode-everything WAL reader against the frame walker it became.
//!
//! [`ref_read_wal`] is the earlier `read_wal` kept as a test oracle: one
//! loop that checks each frame's checksum and decodes its payload on the
//! spot, element by element, with its own bounds checks. [`ref_read_chain`]
//! is the earlier `read_chain` over it, reading and decoding one segment
//! after another. The production readers — [`scan_wal`] plus a decode of
//! every frame, and `load_chain` plus `ChainBytes::scan` — must agree with
//! them exactly: equal contents (`records`, `ends`, `valid_len`,
//! `torn_tail`, header fields) or an equal typed error, detail string
//! included. The sweeps cover every truncation and every single-bit flip
//! of multi-record logs at d = 1 and d = 10, with deletes, noise labels,
//! and records both below and above the CRC's stream threshold, and the
//! same over each segment of a rotated chain.

use super::*;
use crate::medium::MemMedium;
use crate::segment::{read_chain, ChainContents, SegmentId, SegmentedSink};
use crate::snapshot::CRC_STREAMS_MIN;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The earlier payload cursor: every read bounds-checked as it goes.
struct RefCur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> RefCur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() - self.pos < n {
            return Err(format!(
                "record payload exhausted ({} bytes left, {n} needed)",
                self.data.len() - self.pos
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// The earlier payload decoder.
fn ref_decode_payload(dim: usize, payload: &[u8]) -> Result<WalRecord, String> {
    let mut cur = RefCur {
        data: payload,
        pos: 0,
    };
    let kind = cur.u8()?;
    if kind != RECORD_BATCH {
        return Err(format!("unknown record kind {kind}"));
    }
    let round_seed = cur.u64()?;
    let maintain = match cur.u8()? {
        0 => false,
        1 => true,
        other => return Err(format!("invalid maintain flag {other}")),
    };
    let n_del = cur.u64()? as usize;
    if n_del > cur.remaining() / 4 {
        return Err(format!("delete count {n_del} exceeds the record"));
    }
    let mut deletes = Vec::with_capacity(n_del);
    for _ in 0..n_del {
        deletes.push(PointId(cur.u32()?));
    }
    let n_ins = cur.u64()? as usize;
    if n_ins > cur.remaining() / (4 + 8 * dim) {
        return Err(format!("insert count {n_ins} exceeds the record"));
    }
    let mut inserts = Vec::with_capacity(n_ins);
    for _ in 0..n_ins {
        let raw = cur.u32()?;
        let label = if raw == LABEL_NOISE { None } else { Some(raw) };
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(cur.f64()?);
        }
        inserts.push((coords, label));
    }
    if cur.remaining() != 0 {
        return Err(format!("{} trailing bytes in record", cur.remaining()));
    }
    Ok(WalRecord {
        round_seed,
        maintain,
        batch: Batch { deletes, inserts },
    })
}

/// The earlier `read_wal`: checksum and decode in one loop.
fn ref_read_wal(bytes: &[u8]) -> Result<WalContents, WalError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Ok(WalContents {
            dim: 0,
            base: 0,
            records: Vec::new(),
            ends: Vec::new(),
            valid_len: 0,
            torn_tail: !bytes.is_empty(),
        });
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            detail: "bad magic".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
    if version != WAL_VERSION {
        return Err(WalError::Corrupt {
            offset: 4,
            detail: format!("unsupported version {version}"),
        });
    }
    let dim = u32::from_le_bytes(bytes[8..12].try_into().expect("4")) as usize;
    if dim == 0 || dim > 1 << 20 {
        return Err(WalError::Corrupt {
            offset: 8,
            detail: format!("implausible dim {dim}"),
        });
    }
    let base = u64::from_le_bytes(bytes[12..20].try_into().expect("8"));
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut o = WAL_HEADER_LEN;
    let mut torn = false;
    while o < bytes.len() {
        let rem = bytes.len() - o;
        if rem < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[o + 4..o + 8].try_into().expect("4"));
        if len == 0 && crc == 0 {
            torn = true;
            break;
        }
        if len > rem - 8 {
            torn = true;
            break;
        }
        let payload = &bytes[o + 8..o + 8 + len];
        if crc32(payload) != crc {
            return Err(WalError::Corrupt {
                offset: o,
                detail: "record checksum mismatch".into(),
            });
        }
        let rec = ref_decode_payload(dim, payload)
            .map_err(|detail| WalError::Corrupt { offset: o, detail })?;
        o += 8 + len;
        records.push(rec);
        ends.push(o);
    }
    let valid_len = if torn {
        ends.last().copied().unwrap_or(WAL_HEADER_LEN)
    } else {
        o
    };
    Ok(WalContents {
        dim,
        base,
        records,
        ends,
        valid_len,
        torn_tail: torn,
    })
}

/// The earlier `read_chain`: each segment read and decoded in turn.
fn ref_read_chain(medium: &MemMedium) -> Result<ChainContents, WalError> {
    let mut ids: Vec<SegmentId> = medium
        .list()?
        .iter()
        .filter_map(|name| SegmentId::parse(name))
        .collect();
    let Some(epoch) = ids.iter().map(|id| id.epoch).max() else {
        return Ok(ChainContents {
            dim: 0,
            base: 0,
            records: Vec::new(),
            torn_tail: false,
            epoch: 0,
            segments: Vec::new(),
            bytes: 0,
        });
    };
    ids.retain(|id| id.epoch == epoch);
    ids.sort_unstable();
    for pair in ids.windows(2) {
        if pair[1].seq != pair[0].seq + 1 {
            return Err(WalError::ChainGap {
                epoch,
                expected_seq: pair[0].seq + 1,
            });
        }
    }
    let corrupt = |seq: u64, detail: String| WalError::CorruptSegment { epoch, seq, detail };
    let last = ids.len() - 1;
    let (mut dim, mut base, mut next_base) = (0usize, 0u64, 0u64);
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut total_bytes = 0u64;
    for (k, &id) in ids.iter().enumerate() {
        let bytes = medium.read(&id.file_name())?;
        total_bytes += bytes.len() as u64;
        let parsed = ref_read_wal(&bytes).map_err(|e| match e {
            WalError::Corrupt { offset, detail } => {
                corrupt(id.seq, format!("at byte {offset}: {detail}"))
            }
            other => other,
        })?;
        if parsed.dim == 0 {
            if k < last {
                return Err(corrupt(
                    id.seq,
                    "interior segment is missing its header".into(),
                ));
            }
            torn_tail = parsed.torn_tail;
            break;
        }
        if k == 0 {
            dim = parsed.dim;
            base = parsed.base;
        } else {
            if parsed.dim != dim {
                return Err(corrupt(
                    id.seq,
                    format!("segment dim {} vs chain dim {dim}", parsed.dim),
                ));
            }
            if parsed.base != next_base {
                return Err(corrupt(
                    id.seq,
                    format!(
                        "segment base {} but predecessor ends at {next_base}",
                        parsed.base
                    ),
                ));
            }
        }
        if k < last && parsed.torn_tail {
            return Err(corrupt(id.seq, "interior segment has a torn tail".into()));
        }
        next_base = parsed.base + parsed.records.len() as u64;
        records.extend(parsed.records);
        torn_tail = parsed.torn_tail;
    }
    Ok(ChainContents {
        dim,
        base,
        records,
        torn_tail,
        epoch,
        segments: ids,
        bytes: total_bytes,
    })
}

/// A record of `inserts` rows at `dim`, with up to four deletes and a
/// noise label on about a third of the rows.
fn record(rng: &mut StdRng, dim: usize, inserts: usize) -> WalRecord {
    WalRecord {
        round_seed: rng.gen(),
        maintain: rng.gen_bool(0.5),
        batch: Batch {
            deletes: (0..rng.gen_range(0..5))
                .map(|_| PointId(rng.gen()))
                .collect(),
            inserts: (0..inserts)
                .map(|_| {
                    let p = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
                    let label = if rng.gen_bool(0.3) {
                        None
                    } else {
                        Some(rng.gen_range(0..9))
                    };
                    (p, label)
                })
                .collect(),
        },
    }
}

/// A log of small records with one whose payload is past the CRC's
/// stream threshold in the middle.
fn sample_log(dim: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let row = 4 + 8 * dim;
    let large = CRC_STREAMS_MIN / row + 3;
    let mut w = WalWriter::new(ObjectSink::new(MemMedium::new(), "wal"), dim, 11, 1);
    for inserts in [2, 0, large, 3, 1] {
        w.append(&record(&mut rng, dim, inserts));
        w.commit().expect("memory sink");
    }
    let bytes = w.into_sink().bytes();
    let contents = ref_read_wal(&bytes).expect("a sample log is intact");
    let sizes = contents.ends.windows(2).map(|e| e[1] - e[0] - 8);
    assert!(sizes.clone().any(|s| s >= CRC_STREAMS_MIN));
    assert!(sizes.clone().any(|s| s < CRC_STREAMS_MIN));
    bytes
}

/// `records` as their encoded frames (equal bits, NaN coordinates from a
/// flipped exponent included) and their labels (the encoding writes a
/// noise label and label `u32::MAX` alike).
fn bits(dim: usize, records: &[WalRecord]) -> Vec<(Vec<u8>, Vec<Option<u32>>)> {
    let labels = |r: &WalRecord| r.batch.inserts.iter().map(|(_, l)| *l).collect();
    records
        .iter()
        .map(|r| (encode_record(dim, r), labels(r)))
        .collect()
}

/// Asserts both readers return the same result on `bytes`.
fn assert_same_wal(bytes: &[u8], what: &str) {
    match (read_wal(bytes), ref_read_wal(bytes)) {
        (Ok(a), Ok(b)) => {
            assert_eq!((a.dim, a.base), (b.dim, b.base), "{what}");
            assert_eq!(bits(a.dim, &a.records), bits(b.dim, &b.records), "{what}");
            assert_eq!(a.ends, b.ends, "{what}");
            assert_eq!(a.valid_len, b.valid_len, "{what}");
            assert_eq!(a.torn_tail, b.torn_tail, "{what}");
        }
        (Err(a), Err(b)) => assert_same_error(&a, &b, what),
        (a, b) => panic!("{what}: {a:?} vs the reference's {b:?}"),
    }
}

fn assert_same_error(a: &WalError, b: &WalError, what: &str) {
    match (a, b) {
        (
            WalError::Corrupt { offset, detail },
            WalError::Corrupt {
                offset: ro,
                detail: rd,
            },
        ) => assert_eq!((offset, detail), (ro, rd), "{what}"),
        (
            WalError::CorruptSegment { epoch, seq, detail },
            WalError::CorruptSegment {
                epoch: re,
                seq: rs,
                detail: rd,
            },
        ) => assert_eq!((epoch, seq, detail), (re, rs, rd), "{what}"),
        (
            WalError::ChainGap {
                epoch,
                expected_seq,
            },
            WalError::ChainGap {
                epoch: re,
                expected_seq: rs,
            },
        ) => assert_eq!((epoch, expected_seq), (re, rs), "{what}"),
        _ => panic!("{what}: {a} vs the reference's {b}"),
    }
}

/// Every truncation and every single-bit flip of `bytes`, handed to
/// `check` with a label; then one flipped bit in every byte of each
/// record's payload with that record's checksum recomputed, so the damage
/// reaches the payload's structure checks instead of stopping at the CRC.
fn sweep(bytes: &[u8], mut check: impl FnMut(&[u8], &str)) {
    check(bytes, "intact");
    for cut in 0..bytes.len() {
        check(&bytes[..cut], &format!("cut at {cut}"));
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            damaged[at] ^= 1 << bit;
            check(&damaged, &format!("bit {bit} of byte {at} flipped"));
            damaged[at] ^= 1 << bit;
        }
    }
    let ends = ref_read_wal(bytes).map_or_else(|_| Vec::new(), |c| c.ends);
    let starts = std::iter::once(WAL_HEADER_LEN).chain(ends.iter().copied());
    for (start, end) in starts.zip(ends.iter().copied()) {
        for at in start + 8..end {
            let bit = at % 8;
            damaged[at] ^= 1 << bit;
            let crc = crc32(&damaged[start + 8..end]);
            damaged[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            check(
                &damaged,
                &format!("bit {bit} of byte {at} flipped, re-checksummed"),
            );
            damaged[at] ^= 1 << bit;
        }
        damaged[start + 4..start + 8].copy_from_slice(&bytes[start + 4..start + 8]);
    }
}

#[test]
fn scan_rejects_exactly_what_the_decoder_rejected() {
    for (dim, seed) in [(1, 41), (10, 42)] {
        let bytes = sample_log(dim, seed);
        sweep(&bytes, |b, what| {
            assert_same_wal(b, &format!("d={dim}, {what}"))
        });
    }
}

/// `hardening.rs`'s `sample_chain`: 24 records at d = 2 over 200-byte
/// segments.
fn sample_chain(seed: u64) -> MemMedium {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<WalRecord> = (0..24)
        .map(|_| WalRecord {
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
        })
        .collect();
    let medium = MemMedium::new();
    let sink = SegmentedSink::fresh(medium.clone(), 200).expect("memory chain");
    let mut w = WalWriter::new(sink, 2, 0, 1);
    w.commit().expect("memory chain");
    for r in &records {
        w.append(r);
        w.commit().expect("memory chain");
        let next = w.committed_records();
        w.sink_mut().roll(2, next).expect("memory chain");
    }
    assert!(w.sink().segment_count() >= 4);
    medium
}

#[test]
fn chain_scan_rejects_exactly_what_the_chain_decoder_rejected() {
    let chain = sample_chain(0x5E63).objects();
    for (name, bytes) in &chain {
        sweep(bytes, |b, what| {
            let medium = MemMedium::new();
            for (other, other_bytes) in &chain {
                let bytes = if other == name { b } else { other_bytes };
                medium.append(other, bytes).expect("memory medium");
            }
            let what = format!("segment {name}, {what}");
            match (read_chain(&medium), ref_read_chain(&medium)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!((a.dim, a.base, a.epoch), (b.dim, b.base, b.epoch), "{what}");
                    assert_eq!(bits(a.dim, &a.records), bits(b.dim, &b.records), "{what}");
                    assert_eq!(a.torn_tail, b.torn_tail, "{what}");
                    assert_eq!((a.segments, a.bytes), (b.segments, b.bytes), "{what}");
                }
                (Err(a), Err(b)) => assert_same_error(&a, &b, &what),
                (a, b) => panic!("{what}: {a:?} vs the reference's {b:?}"),
            }
        });
    }
}
