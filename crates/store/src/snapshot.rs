//! Binary snapshots of a point store.
//!
//! A long-running deployment checkpoints its database and its
//! summarization together (see `idb-core`'s snapshot module) so a restart
//! resumes without a full rebuild. The format is a small hand-rolled
//! little-endian codec — versioned, with explicit validation on read —
//! because the only structures crossing the boundary are flat arrays and
//! the workspace deliberately avoids a serialization dependency.
//!
//! Crucially, snapshots preserve **slot numbers**: a restored store hands
//! out the same [`PointId`](crate::PointId)s, so side structures (bubble
//! memberships) survive the round trip. The live-list order is preserved
//! too, keeping post-restore sampling bit-identical.

use crate::PointStore;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"IDBP";
const LABEL_NOISE: u32 = u32::MAX;

/// Snapshot format version: a CRC-framed payload (see [`write_frame`]).
/// Any other version, including the unchecksummed version 1, is rejected.
pub const FRAME_VERSION: u32 = 2;

/// Payloads larger than this are rejected before allocation. Generous —
/// a billion 20-dimensional points fit — but bounds what a hand-crafted
/// header can make the reader allocate.
const MAX_PAYLOAD: u64 = 1 << 40;

/// Snapshot decoding failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic, version, or structurally impossible contents.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
            Self::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Little-endian codec helpers, shared with `idb-core`'s summarization
/// snapshots so both formats stay consistent.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// See [`write_u32`].
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// See [`write_u32`].
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// See [`write_u32`].
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// See [`write_u32`].
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// See [`write_u32`].
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

/// Tables for the IEEE CRC-32 (reflected polynomial `0xEDB88320`), built
/// at compile time for slicing-by-16: `CRC_TABLES[0]` is the classic
/// byte table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so sixteen input bytes fold in with sixteen
/// independent lookups.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 of `data` (the zlib/PNG polynomial), sixteen bytes per
/// step. Hand-rolled — the workspace carries no checksum dependency.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Writes a version-2 checksummed snapshot frame:
///
/// ```text
/// magic (4) | version u32 | payload_len u64 | payload_crc u32 |
/// header_crc u32 | payload
/// ```
///
/// `header_crc` covers the first 20 bytes, so a corrupted length cannot
/// drive the reader into a bogus allocation; `payload_crc` covers the
/// payload, so any bit damage to the body is detected before parsing.
/// Shared between the store snapshot and `idb-core`'s bubble snapshot.
pub fn write_frame<W: Write>(w: &mut W, magic: &[u8; 4], payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 20];
    header[..4].copy_from_slice(magic);
    header[4..8].copy_from_slice(&FRAME_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..20].copy_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&header);
    w.write_all(&header)?;
    w.write_all(&header_crc.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads a snapshot frame written by [`write_frame`] and returns its
/// verified payload.
///
/// # Errors
/// [`SnapshotError::Corrupt`] on a wrong magic, a version other than
/// [`FRAME_VERSION`], an implausible payload length, or a checksum
/// mismatch in either the header or the payload; [`SnapshotError::Io`]
/// when the stream ends early.
pub fn read_frame<R: Read>(r: &mut R, magic: &[u8; 4]) -> Result<Vec<u8>, SnapshotError> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    if &head[..4] != magic {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != FRAME_VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let mut rest = [0u8; 16];
    r.read_exact(&mut rest)?;
    let mut header = [0u8; 20];
    header[..8].copy_from_slice(&head);
    header[8..].copy_from_slice(&rest[..12]);
    let header_crc = u32::from_le_bytes(rest[12..16].try_into().expect("4 bytes"));
    if crc32(&header) != header_crc {
        return Err(SnapshotError::Corrupt("header checksum mismatch".into()));
    }
    let payload_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(SnapshotError::Corrupt(format!(
            "implausible payload length {payload_len}"
        )));
    }
    let payload_crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    // Never allocate more than the input can actually supply: grow while
    // reading (capped pre-allocation) instead of trusting the declared
    // length, so a hostile prefix on a short stream cannot drive the
    // reader out of memory.
    let mut payload = Vec::with_capacity(
        usize::try_from(payload_len.min(1 << 20)).expect("capped length fits usize"),
    );
    let got = r.by_ref().take(payload_len).read_to_end(&mut payload)?;
    if got as u64 != payload_len {
        return Err(SnapshotError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("payload truncated: {got} of {payload_len} bytes"),
        )));
    }
    if crc32(&payload) != payload_crc {
        return Err(SnapshotError::Corrupt("payload checksum mismatch".into()));
    }
    Ok(payload)
}

impl PointStore {
    /// Writes a binary snapshot of the full store state (live points with
    /// their slots and labels, in live-list order), wrapped in the
    /// checksummed version-2 frame of [`write_frame`].
    ///
    /// # Errors
    /// Whatever the underlying writer reports.
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut payload = Vec::new();
        self.write_body(&mut payload)?;
        write_frame(w, MAGIC, &payload)
    }

    fn write_body<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_u64(w, self.dim() as u64)?;
        write_u64(w, self.slots() as u64)?;
        write_u64(w, self.len() as u64)?;
        // Tiered stores read their spill once and copy each cold record
        // out of it; the bytes are identical to the all-resident
        // encoding. A cold-read failure surfaces as an I/O error and feeds
        // the caller's checkpoint failure ladder.
        self.for_each_record(|id, record| {
            write_u32(w, id.0)?;
            w.write_all(record)?;
            write_u32(w, self.label(id).unwrap_or(LABEL_NOISE))
        })?;
        // The free list in reuse order: slot ids are only stable across a
        // restart if a restored store recycles slots in the exact order the
        // original would have, so the stack is persisted verbatim.
        write_u64(w, self.free_slots().len() as u64)?;
        for &slot in self.free_slots() {
            write_u32(w, slot)?;
        }
        Ok(())
    }

    /// Restores a store from a snapshot. Slot numbers, labels and
    /// live-list order are identical to the snapshotted store. The frame
    /// is checksum-verified (header and payload) before any parsing.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] on checksum or structural damage;
    /// [`SnapshotError::Io`] when the stream ends early.
    pub fn read_snapshot<R: Read>(r: &mut R) -> Result<Self, SnapshotError> {
        let payload = read_frame(r, MAGIC)?;
        let mut cur: &[u8] = &payload;
        let store = Self::read_body(&mut cur)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after payload",
                cur.len()
            )));
        }
        Ok(store)
    }

    /// Decodes the snapshot body. Every allocation is capped against the
    /// input bytes that back the header's claims *before* it happens, so
    /// a hostile header cannot force an out-of-memory condition — it fails
    /// with a typed error instead.
    fn read_body(r: &mut &[u8]) -> Result<Self, SnapshotError> {
        let rem = r.len() as u64;
        let dim = read_u64(r)? as usize;
        if dim == 0 || dim > 1 << 20 {
            return Err(SnapshotError::Corrupt(format!("implausible dim {dim}")));
        }
        let slots = read_u64(r)? as usize;
        let len = read_u64(r)? as usize;
        if len > slots || slots > u32::MAX as usize {
            return Err(SnapshotError::Corrupt(format!(
                "len {len} exceeds slots {slots}"
            )));
        }
        // Each live entry occupies 8 + 8·dim input bytes, so `len` (and
        // with it `dim`) is bounded by the input.
        let live_cost = (len as u64).saturating_mul(8 + 8 * dim as u64);
        if live_cost.saturating_add(24) > rem {
            return Err(SnapshotError::Corrupt(format!(
                "live section claims {live_cost} bytes but only {rem} are framed"
            )));
        }
        // Free slots cost 4 input bytes each in the free-list section, so
        // a hostile `slots` cannot inflate the allocation.
        let holes = (slots - len) as u64;
        if holes > rem / 4 + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "{holes} free slots claimed but only {rem} bytes framed"
            )));
        }
        // Cap the big allocation itself at a fixed multiple of the input
        // (every realistic store is far below this; a hostile header fails
        // typed instead of OOMing).
        let coord_count = slots.checked_mul(dim).ok_or_else(|| {
            SnapshotError::Corrupt(format!("coordinate count {slots}×{dim} overflows"))
        })?;
        let cap =
            usize::try_from(rem.saturating_mul(8).saturating_add(1 << 16)).unwrap_or(usize::MAX);
        if coord_count > cap {
            return Err(SnapshotError::Corrupt(format!(
                "{coord_count} coordinates claimed, beyond the allocation cap {cap}"
            )));
        }

        let mut coords = vec![0.0f64; coord_count];
        let mut labels = vec![LABEL_NOISE; slots];
        let mut live_pos = vec![u32::MAX; slots];
        let mut live_list = Vec::with_capacity(len);
        for pos in 0..len {
            let slot = read_u32(r)? as usize;
            if slot >= slots {
                return Err(SnapshotError::Corrupt(format!("slot {slot} out of range")));
            }
            if live_pos[slot] != u32::MAX {
                return Err(SnapshotError::Corrupt(format!("duplicate slot {slot}")));
            }
            for x in coords[slot * dim..(slot + 1) * dim].iter_mut() {
                *x = read_f64(r)?;
            }
            labels[slot] = read_u32(r)?;
            live_pos[slot] = pos as u32;
            live_list.push(slot as u32);
        }
        // The free-slot section: the reuse stack in stack order, so a
        // restored store hands out the same ids the original would have.
        let count = read_u64(r)?;
        let count = usize::try_from(count)
            .map_err(|_| SnapshotError::Corrupt(format!("free count {count} overflows")))?;
        if count != slots - len {
            return Err(SnapshotError::Corrupt(format!(
                "free count {count} != slots {slots} - live {len}"
            )));
        }
        let mut free = Vec::with_capacity(count);
        let mut seen = vec![false; slots];
        for _ in 0..count {
            let slot = read_u32(r)? as usize;
            if slot >= slots {
                return Err(SnapshotError::Corrupt(format!(
                    "free slot {slot} out of range"
                )));
            }
            if live_pos[slot] != u32::MAX {
                return Err(SnapshotError::Corrupt(format!("free slot {slot} is live")));
            }
            if seen[slot] {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate free slot {slot}"
                )));
            }
            seen[slot] = true;
            free.push(slot as u32);
        }

        Ok(Self::from_raw_parts(
            dim, coords, labels, live_pos, live_list, free,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn churned_store() -> PointStore {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = PointStore::new(3);
        let mut ids = Vec::new();
        for i in 0..200 {
            let label = if i % 7 == 0 { None } else { Some(i % 4) };
            ids.push(s.insert(&[i as f64, -(i as f64), rng.gen()], label));
        }
        // Punch holes so the slot space has a free list.
        for i in (0..200).step_by(3) {
            s.remove(ids[i]);
        }
        for i in 0..30 {
            s.insert(&[1000.0 + i as f64, 0.0, 0.0], Some(9));
        }
        s
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        let restored = PointStore::read_snapshot(&mut buf.as_slice()).unwrap();

        assert_eq!(restored.len(), store.len());
        assert_eq!(restored.dim(), store.dim());
        assert_eq!(restored.slots(), store.slots());
        let a: Vec<_> = store.iter().map(|(id, p, l)| (id, p.to_vec(), l)).collect();
        let b: Vec<_> = restored
            .iter()
            .map(|(id, p, l)| (id, p.to_vec(), l))
            .collect();
        assert_eq!(a, b, "live-list order and contents identical");
        assert_eq!(
            restored.free_slots(),
            store.free_slots(),
            "free-list reuse order identical"
        );
    }

    #[test]
    fn restored_store_reuses_slots_in_the_original_order() {
        let mut store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        let mut restored = PointStore::read_snapshot(&mut buf.as_slice()).unwrap();
        // The same future insertions must receive the same ids in both
        // stores — this is what makes WAL replay id-exact after recovery.
        for i in 0..60 {
            let p = [i as f64, 0.0, 0.0];
            assert_eq!(store.insert(&p, None), restored.insert(&p, None), "at {i}");
        }
    }

    #[test]
    fn restored_store_continues_operating() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        let mut restored = PointStore::read_snapshot(&mut buf.as_slice()).unwrap();
        // Ids from the original remain valid in the restored store.
        let some_id = store.ids().next().unwrap();
        assert_eq!(restored.point(some_id), store.point(some_id));
        // Inserts and removes keep working (free list intact).
        let before_slots = restored.slots();
        let id = restored.insert(&[1.0, 2.0, 3.0], None);
        assert!(restored.slots() <= before_slots.max(id.index() + 1));
        restored.remove(id);
    }

    /// Recomputes both checksums of a v2 frame after its payload was
    /// mutated, so structural validation (not the CRC) is exercised.
    fn reframe(buf: &mut [u8]) {
        let payload_crc = crc32(&buf[24..]);
        buf[16..20].copy_from_slice(&payload_crc.to_le_bytes());
        let header_crc = crc32(&buf[..20]);
        buf[20..24].copy_from_slice(&header_crc.to_le_bytes());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = PointStore::read_snapshot(&mut &b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        // Version 1 is the retired unchecksummed format; 99 never existed.
        for version in [1u8, 99] {
            buf[4] = version;
            let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("unsupported version"), "{err}");
        }
    }

    #[test]
    fn truncated_snapshot_is_an_io_error() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    #[test]
    fn duplicate_slot_is_rejected() {
        let mut s = PointStore::new(1);
        s.insert(&[1.0], None);
        s.insert(&[2.0], None);
        let mut buf = Vec::new();
        s.write_snapshot(&mut buf).unwrap();
        // Point the second live entry's slot at the first's.
        // Layout: frame header (24) then payload of dim(8) slots(8) len(8)
        // and entries of (slot u32, coord f64, label u32).
        let first_entry = 24 + 8 + 8 + 8;
        let second_entry = first_entry + 4 + 8 + 4;
        buf[second_entry..second_entry + 4].copy_from_slice(&0u32.to_le_bytes());
        reframe(&mut buf);
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    /// The byte-at-a-time CRC-32 the sliced one must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_byte_loop() {
        let mut rng = StdRng::seed_from_u64(32);
        let buf: Vec<u8> = (0..(1 << 20) + 16).map(|_| rng.gen()).collect();
        // Every length through several 16-byte blocks and remainders, at
        // every alignment of the block loop against the allocation.
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
        // Runs of one byte value exercise every table row at one index.
        for v in [0u8, 0xFF, 0x80] {
            let s = vec![v; 1000];
            assert_eq!(crc32(&s), crc32_bytewise(&s), "byte {v:#x}");
        }
    }

    fn snapshot_bytes(store: &PointStore) -> Vec<u8> {
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).expect("snapshot");
        buf
    }

    /// Live slots of a tiered store that are cold, ascending.
    fn cold_slots(store: &PointStore) -> Vec<usize> {
        let tier = store.tier.as_ref().expect("tiered");
        let mut cold: Vec<usize> = store
            .ids()
            .map(PointId::index)
            .filter(|&s| tier.frame_of[s] == crate::tier::NONE_FRAME)
            .collect();
        cold.sort_unstable();
        cold
    }

    /// Drives a resident store and a tiered twin through the same churn —
    /// dead slots before the spill, slots reused from the free list,
    /// fresh slots past the spill's end that stay hot, evictions — and
    /// checks after every step that both snapshot to the same bytes, with
    /// every record counted once as a hit or a cold read.
    fn tiered_snapshot_matches_resident(dim: usize, cold: Box<dyn crate::Medium>) {
        let mut rng = StdRng::seed_from_u64(dim as u64);
        let point = |rng: &mut StdRng| -> Vec<f64> { (0..dim).map(|_| rng.gen()).collect() };
        let mut resident = PointStore::new(dim);
        let mut ids = Vec::new();
        for i in 0..240 {
            ids.push(resident.insert(&point(&mut rng), Some(i % 5)));
        }
        // Dead slots inside the spill.
        for id in ids.drain(..).step_by(4) {
            resident.remove(id);
        }
        let mut tiered = resident.clone();
        tiered.enable_tier(cold, 16).expect("spill");
        assert_eq!(snapshot_bytes(&tiered), snapshot_bytes(&resident));
        let remove = |resident: &mut PointStore, tiered: &mut PointStore, rng: &mut StdRng| {
            let live: Vec<PointId> = resident.ids().collect();
            for _ in 0..12 {
                let id = live[rng.gen_range(0..live.len())];
                if resident.contains(id) {
                    resident.remove(id);
                    tiered.remove(id);
                }
            }
        };
        let (mut past_end_hot, mut reused) = (false, false);
        for round in 0..12 {
            remove(&mut resident, &mut tiered, &mut rng);
            // Reuses the free list first, then grows past the spill's end.
            for _ in 0..(15 + round * 3) {
                let p = point(&mut rng);
                let label = if rng.gen_bool(0.2) { None } else { Some(1) };
                let slots = resident.slots();
                let id = resident.insert(&p, label);
                assert_eq!(tiered.insert(&p, label), id);
                reused |= id.index() < slots;
            }
            // Dead slots at snapshot time, some of them just inserted.
            remove(&mut resident, &mut tiered, &mut rng);
            if round % 3 != 2 {
                tiered.enforce_hot_budget().expect("evict");
            }
            // A live record past the spill's end can only be hot.
            let spill = tiered.tier.as_ref().expect("tiered").cold.read_all();
            let spill_len = spill.expect("spill").len();
            past_end_hot |= tiered
                .ids()
                .any(|id| (id.index() + 1) * dim * 8 > spill_len);
            let before = tiered.tier_counters().expect("tiered");
            assert_eq!(
                snapshot_bytes(&tiered),
                snapshot_bytes(&resident),
                "d={dim} round {round}"
            );
            let after = tiered.tier_counters().expect("tiered");
            let cold = cold_slots(&tiered).len() as u64;
            assert_eq!(after.misses - before.misses, cold);
            assert_eq!(after.cold_reads - before.cold_reads, cold);
            assert_eq!(after.cold_bytes - before.cold_bytes, cold * dim as u64 * 8);
            assert_eq!(after.hits - before.hits, tiered.len() as u64 - cold);
        }
        assert!(past_end_hot, "no hot slot past the spill's end was covered");
        assert!(reused, "no slot was reused");
        assert!(!cold_slots(&tiered).is_empty() && !tiered.free_slots().is_empty());
    }

    #[test]
    fn tiered_snapshot_bytes_equal_resident_on_memory() {
        for dim in [1, 2, 10] {
            tiered_snapshot_matches_resident(dim, Box::new(crate::MemMedium::new()));
        }
    }

    #[test]
    fn tiered_snapshot_bytes_equal_resident_on_a_file() {
        let dir = crate::wal::scratch_dir();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for dim in [1, 2, 10] {
            let path = dir.join(format!(
                "idb-snapshot-spill-{}-{dim}.points",
                std::process::id()
            ));
            let cold = crate::FsCold::create(&path).expect("spill file");
            tiered_snapshot_matches_resident(dim, Box::new(cold));
            assert!(!path.exists(), "the spill is removed with its store");
        }
    }

    #[test]
    fn spill_truncated_under_a_cold_slot_is_a_typed_error() {
        use crate::{Medium, MemMedium, StorageError};
        let mut store = churned_store();
        let cold = MemMedium::new();
        store.enable_tier(Box::new(cold.clone()), 8).expect("spill");
        store.insert(&[1.0, 2.0, 3.0], None);
        let last_cold = *cold_slots(&store).last().expect("cold slots");
        // Cut the spill halfway into the highest cold record.
        cold.truncate("", (last_cold * 24 + 12) as u64)
            .expect("truncate");
        let err = store.write_snapshot(&mut Vec::new()).unwrap_err();
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<StorageError>());
        assert!(
            matches!(inner, Some(StorageError::ColdIo { op: "read", .. })),
            "{err}"
        );
        assert!(err.to_string().contains("spill holds"), "{err}");
    }

    #[test]
    fn payload_damage_is_caught_by_the_checksum() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        let mid = 24 + (buf.len() - 24) / 2;
        buf[mid] ^= 0x10;
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("payload checksum"), "{err}");
    }

    #[test]
    fn header_damage_is_caught_before_allocation() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        // Claim an absurd payload length; the header CRC rejects it.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_payload_are_rejected() {
        let store = churned_store();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        buf.push(0);
        let len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) + 1;
        buf[8..16].copy_from_slice(&len.to_le_bytes());
        reframe(&mut buf);
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn corrupt_free_section_is_rejected() {
        let store = churned_store();
        let free = store.free_slots().len();
        assert!(free > 1, "fixture must have free slots");
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        // Duplicate free entry.
        let first_free = buf.len() - 4 * free;
        let dup: [u8; 4] = buf[first_free..first_free + 4].try_into().unwrap();
        buf[first_free + 4..first_free + 8].copy_from_slice(&dup);
        reframe(&mut buf);
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("duplicate free slot"), "{err}");
        // Live slot listed as free.
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        let live = store.ids().next().unwrap().0;
        let first_free = buf.len() - 4 * free;
        buf[first_free..first_free + 4].copy_from_slice(&live.to_le_bytes());
        reframe(&mut buf);
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("is live"), "{err}");
        // Wrong count.
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        let count_at = buf.len() - 4 * free - 8;
        buf[count_at..count_at + 8].copy_from_slice(&((free as u64) + 1).to_le_bytes());
        reframe(&mut buf);
        let err = PointStore::read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("free count"), "{err}");
    }
}
