//! Binary snapshots of a maintained bubble population.
//!
//! Pairs with [`idb_store::snapshot`]: a deployment checkpoints its store
//! and its [`IncrementalBubbles`] together and restores both after a
//! restart — *without* re-running the O(N·s) construction. The decoder
//! validates the snapshot against the store it is restored over (every
//! member must be a live point, every live point must be claimed exactly
//! once, counts must match), so a snapshot from a diverged store is
//! rejected instead of silently producing a corrupt summary.
//!
//! This module is the only owner of the bubble-record layout. A snapshot
//! is one checksummed frame ([`idb_store::snapshot::write_frame`]) whose
//! body is a header
//!
//! ```text
//! dim u64 | num_bubbles u64 | probability f64 | engine u8 | quality u8 |
//! split u8 | live_count u64
//! ```
//!
//! followed by one record per bubble slot, in slot order:
//!
//! ```text
//! seed f64×dim | n u64 | ls f64×dim | ss f64 | member_count u64 |
//! member ids u32×member_count
//! ```
//!
//! A delta checkpoint (see [`crate::recovery`]) persists only the records
//! of slots changed since its full base, each tagged with its slot and
//! length. The same record writer produces both, and the splice that lays
//! a delta's records over its base body sits next to the body reader.

use crate::bubble::Bubble;
use crate::config::{MaintainerConfig, QualityKind, SeedSearch, SplitSeedPolicy};
use crate::incremental::IncrementalBubbles;
use crate::stats::SufficientStats;
use idb_geometry::NearestSeeds;
use idb_store::snapshot::{
    read_f64, read_frame, read_u32, read_u64, write_f64, write_frame, write_u32, write_u64,
    SnapshotError,
};
use idb_store::{PointId, PointStore};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"IDBB";

/// Bytes of the body header, up to and including `live_count`.
const HEADER_LEN: usize = 8 + 8 + 8 + 3 + 8;

/// Bytes of one bubble record with `members` member ids.
fn record_len(dim: usize, members: usize) -> usize {
    16 * dim + 24 + 4 * members
}

/// Writes one bubble record — the single writer behind full snapshots
/// and delta checkpoints alike.
fn write_record<W: Write>(w: &mut W, b: &Bubble) -> io::Result<()> {
    for &x in b.seed() {
        write_f64(w, x)?;
    }
    write_u64(w, b.stats().n())?;
    for &l in b.stats().linear_sum() {
        write_f64(w, l)?;
    }
    write_f64(w, b.stats().square_sum())?;
    write_u64(w, b.members().len() as u64)?;
    for id in b.members() {
        write_u32(w, id.0)?;
    }
    Ok(())
}

/// The bubble section of a delta checkpoint, as read back: the live
/// population size and the changed records by slot.
#[derive(Debug)]
pub(crate) struct DirtyRecords<'a> {
    live: usize,
    records: BTreeMap<usize, &'a [u8]>,
}

/// Parses the section [`IncrementalBubbles::write_dirty_records`] wrote,
/// advancing `cur` past it.
pub(crate) fn read_dirty_records<'a>(
    cur: &mut &'a [u8],
) -> Result<DirtyRecords<'a>, SnapshotError> {
    let live = read_u64(cur)? as usize;
    let count = read_u64(cur)?;
    let mut records = BTreeMap::new();
    for _ in 0..count {
        let slot = read_u32(cur)?;
        let len = read_u64(cur)? as usize;
        if len > cur.len() {
            return Err(SnapshotError::Corrupt(format!(
                "dirty record for slot {slot} overruns the payload"
            )));
        }
        let (rec, rest) = cur.split_at(len);
        records.insert(slot as usize, rec);
        *cur = rest;
    }
    Ok(DirtyRecords { live, records })
}

/// Byte span of each record in a snapshot body.
fn record_spans(body: &[u8]) -> Result<Vec<(usize, usize)>, SnapshotError> {
    if body.len() < HEADER_LEN {
        return Err(SnapshotError::Corrupt(
            "bubble snapshot body too short for its header".into(),
        ));
    }
    let dim = read_u64(&mut &body[..8])? as usize;
    if dim == 0 || dim > (1 << 20) {
        return Err(SnapshotError::Corrupt(format!(
            "implausible dimensionality {dim} in bubble snapshot"
        )));
    }
    let live = read_u64(&mut &body[HEADER_LEN - 8..HEADER_LEN])? as usize;
    if live > (1 << 24) {
        return Err(SnapshotError::Corrupt(format!(
            "implausible bubble count {live} in bubble snapshot"
        )));
    }
    let mut spans = Vec::with_capacity(live);
    let mut at = HEADER_LEN;
    for slot in 0..live {
        // The member count is the record's last fixed-width field.
        let mc_at = at + record_len(dim, 0) - 8;
        if mc_at + 8 > body.len() {
            return Err(SnapshotError::Corrupt(format!(
                "bubble record {slot} is truncated"
            )));
        }
        let mc = read_u64(&mut &body[mc_at..mc_at + 8])? as usize;
        if mc > (1 << 32) {
            return Err(SnapshotError::Corrupt(format!(
                "implausible member count {mc} in bubble record {slot}"
            )));
        }
        let end = at + record_len(dim, mc);
        if end > body.len() {
            return Err(SnapshotError::Corrupt(format!(
                "bubble record {slot} overruns the body"
            )));
        }
        spans.push((at, end));
        at = end;
    }
    if at != body.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the bubble records",
            body.len() - at
        )));
    }
    Ok(spans)
}

/// Lays `dirty`'s records over the body of the framed snapshot `base`:
/// the base header with the delta's live count, then per slot the delta's
/// record when it carries one and the base's otherwise. Returns the
/// spliced snapshot body (unframed).
pub(crate) fn splice_records(base: &[u8], dirty: &DirtyRecords) -> Result<Vec<u8>, SnapshotError> {
    let body = read_frame(&mut &base[..], MAGIC)?;
    let spans = record_spans(&body)?;
    let mut out = Vec::with_capacity(body.len());
    out.extend_from_slice(&body[..HEADER_LEN - 8]);
    write_u64(&mut out, dirty.live as u64)?;
    for slot in 0..dirty.live {
        if let Some(rec) = dirty.records.get(&slot) {
            out.extend_from_slice(rec);
        } else if let Some(&(start, end)) = spans.get(slot) {
            out.extend_from_slice(&body[start..end]);
        } else {
            return Err(SnapshotError::Corrupt(format!(
                "slot {slot} grew past the base population but is not in the delta"
            )));
        }
    }
    Ok(out)
}

fn enum_to_u8(config: &MaintainerConfig) -> (u8, u8, u8) {
    // `1` is the historical TriangleInequality encoding, which the pruned
    // engine supersedes; snapshots written before the engine enum existed
    // therefore decode to the equivalent engine. Runtime-only knobs
    // (warm_start, parallelism) are not persisted.
    let engine = match config.seed_search {
        SeedSearch::Brute => 0u8,
        SeedSearch::Pruned => 1,
        SeedSearch::KdTree => 2,
    };
    let quality = match config.quality {
        QualityKind::Beta => 0u8,
        QualityKind::Extent => 1,
    };
    let split = match config.split_seeds {
        SplitSeedPolicy::Random => 0u8,
        SplitSeedPolicy::Spread => 1,
    };
    (engine, quality, split)
}

fn u8_to_enums(
    engine: u8,
    quality: u8,
    split: u8,
) -> Result<(SeedSearch, QualityKind, SplitSeedPolicy), SnapshotError> {
    let engine = match engine {
        0 => SeedSearch::Brute,
        1 => SeedSearch::Pruned,
        2 => SeedSearch::KdTree,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown seed-search engine {other}"
            )))
        }
    };
    let quality = match quality {
        0 => QualityKind::Beta,
        1 => QualityKind::Extent,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown quality kind {other}"
            )))
        }
    };
    let split = match split {
        0 => SplitSeedPolicy::Random,
        1 => SplitSeedPolicy::Spread,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown split policy {other}"
            )))
        }
    };
    Ok((engine, quality, split))
}

impl IncrementalBubbles {
    /// Writes a binary snapshot: configuration, every bubble's seed,
    /// sufficient statistics and member list — wrapped in the checksummed
    /// version-2 frame shared with [`idb_store::snapshot::write_frame`].
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
        let config = self.config();
        write_u64(w, config.num_bubbles as u64)?;
        write_f64(w, config.probability)?;
        let (s, q, p) = enum_to_u8(config);
        w.write_all(&[s, q, p])?;
        write_u64(w, self.bubbles().len() as u64)?;
        for b in self.bubbles() {
            write_record(w, b)?;
        }
        Ok(())
    }

    /// Writes the bubble section of a delta checkpoint:
    /// `live_count u64 | dirty_count u64 | (slot u32 | record_len u64 |
    /// record)×dirty_count` for the slots flagged in `dirty`, ascending.
    pub(crate) fn write_dirty_records(&self, dirty: &[bool], out: &mut Vec<u8>) -> io::Result<()> {
        write_u64(out, self.bubbles().len() as u64)?;
        write_u64(out, dirty.iter().filter(|&&d| d).count() as u64)?;
        for (slot, b) in self.bubbles().iter().enumerate() {
            if dirty[slot] {
                write_u32(out, slot as u32)?;
                write_u64(out, record_len(self.dim(), b.members().len()) as u64)?;
                write_record(out, b)?;
            }
        }
        Ok(())
    }

    /// Restores a population from a snapshot, validating it against the
    /// store it summarizes.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] when the frame is not a version-2 bubble
    /// snapshot, a checksum fails, the header is invalid, a member id is
    /// not live in `store`, a point is claimed by two bubbles, or the
    /// summary does not cover the store exactly.
    pub fn read_snapshot<R: Read>(r: &mut R, store: &PointStore) -> Result<Self, SnapshotError> {
        Self::read_payload(&read_frame(r, MAGIC)?, store)
    }

    /// Restores the population a delta checkpoint describes: `dirty`'s
    /// records spliced over the framed snapshot `base`, validated against
    /// `store` like any snapshot.
    pub(crate) fn read_spliced(
        base: &[u8],
        dirty: &DirtyRecords,
        store: &PointStore,
    ) -> Result<Self, SnapshotError> {
        Self::read_payload(&splice_records(base, dirty)?, store)
    }

    fn read_payload(payload: &[u8], store: &PointStore) -> Result<Self, SnapshotError> {
        let mut cur: &[u8] = payload;
        let this = Self::read_body(&mut cur, store)?;
        if !cur.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after payload",
                cur.len()
            )));
        }
        Ok(this)
    }

    fn read_body<R: Read>(r: &mut R, store: &PointStore) -> Result<Self, SnapshotError> {
        let dim = read_u64(r)? as usize;
        if dim != store.dim() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot dim {dim} vs store dim {}",
                store.dim()
            )));
        }
        let num_bubbles = read_u64(r)? as usize;
        let probability = read_f64(r)?;
        if !(probability > 0.0 && probability < 1.0) {
            return Err(SnapshotError::Corrupt(format!(
                "implausible probability {probability}"
            )));
        }
        let mut enums = [0u8; 3];
        r.read_exact(&mut enums)?;
        let (engine, quality, split) = u8_to_enums(enums[0], enums[1], enums[2])?;
        if num_bubbles < 2 {
            return Err(SnapshotError::Corrupt(format!(
                "implausible bubble count {num_bubbles}"
            )));
        }
        let config = MaintainerConfig::new(num_bubbles)
            .with_probability(probability)
            .with_seed_search(engine)
            .with_quality(quality)
            .with_split_seeds(split);

        let live_count = read_u64(r)? as usize;
        if !(2..=(1usize << 24)).contains(&live_count) {
            return Err(SnapshotError::Corrupt(format!(
                "implausible live bubble count {live_count}"
            )));
        }
        let mut bubbles = Vec::with_capacity(live_count);
        let mut assign = vec![u32::MAX; store.slots()];
        let mut member_pos = vec![u32::MAX; store.slots()];
        let mut total_points: u64 = 0;
        let mut coord = vec![0.0f64; dim];

        for bi in 0..live_count {
            for x in coord.iter_mut() {
                *x = read_f64(r)?;
            }
            let mut bubble = Bubble::new(coord.clone());

            let n = read_u64(r)?;
            let mut ls = vec![0.0f64; dim];
            for l in ls.iter_mut() {
                *l = read_f64(r)?;
            }
            let ss = read_f64(r)?;
            let member_count = read_u64(r)? as usize;
            if member_count as u64 != n {
                return Err(SnapshotError::Corrupt(format!(
                    "bubble {bi}: n = {n} but {member_count} members"
                )));
            }
            for pos in 0..member_count {
                let raw = read_u32(r)?;
                let id = PointId(raw);
                if !store.contains(id) {
                    return Err(SnapshotError::Corrupt(format!(
                        "bubble {bi}: member {raw} is not live in the store"
                    )));
                }
                if assign[id.index()] != u32::MAX {
                    return Err(SnapshotError::Corrupt(format!(
                        "point {raw} claimed by two bubbles"
                    )));
                }
                assign[id.index()] = bi as u32;
                member_pos[id.index()] = pos as u32;
                bubble.members_mut().push(id);
                total_points += 1;
            }
            *bubble.stats_mut() = SufficientStats::from_raw_parts(n, ls, ss);
            bubbles.push(bubble);
        }

        if total_points != store.len() as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "summary covers {total_points} points, store holds {}",
                store.len()
            )));
        }

        // One sort per neighbor row instead of `live_count` pushes.
        let seeds = NearestSeeds::from_seeds(dim, bubbles.iter().map(Bubble::seed));
        Ok(Self::from_raw_parts(
            dim,
            config,
            seeds,
            bubbles,
            assign,
            member_pos,
            total_points,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idb_geometry::SearchStats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture() -> (PointStore, IncrementalBubbles, StdRng) {
        let mut rng = StdRng::seed_from_u64(61);
        let mut store = PointStore::new(2);
        for i in 0..400 {
            let t = i as f64 * 0.031;
            store.insert(
                &[
                    (i % 3) as f64 * 40.0 + t.sin(),
                    (i % 3) as f64 * 40.0 + t.cos(),
                ],
                Some(i % 3),
            );
        }
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(12), &mut rng, &mut search);
        // Some churn so the snapshot captures a non-trivial state.
        let victims: Vec<PointId> = store.ids().take(30).collect();
        let batch = idb_store::Batch {
            deletes: victims,
            inserts: (0..30)
                .map(|_| (vec![rng.gen_range(0.0..80.0), 40.0], None))
                .collect(),
        };
        ib.apply_batch(&mut store, &batch, &mut search);
        ib.maintain(&store, &mut rng, &mut search);
        (store, ib, rng)
    }

    #[test]
    fn round_trip_restores_identical_state() {
        let (store, ib, _) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        let restored = IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store).unwrap();
        restored.validate(&store);
        assert_eq!(restored.num_bubbles(), ib.num_bubbles());
        assert_eq!(restored.total_points(), ib.total_points());
        for (a, b) in ib.bubbles().iter().zip(restored.bubbles()) {
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.members(), b.members());
        }
    }

    #[test]
    fn restored_population_keeps_working() {
        let (mut store, ib, mut rng) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        let mut restored = IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store).unwrap();
        let mut search = SearchStats::new();
        let batch = idb_store::Batch {
            deletes: store.ids().take(10).collect(),
            inserts: (0..10).map(|i| (vec![i as f64, 0.0], None)).collect(),
        };
        restored.apply_batch(&mut store, &batch, &mut search);
        restored.maintain(&store, &mut rng, &mut search);
        restored.validate(&store);
    }

    #[test]
    fn snapshot_rejected_over_diverged_store() {
        let (mut store, ib, _) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        // The store moves on after the checkpoint: a member disappears.
        let victim = ib.bubbles()[0].members()[0];
        store.remove(victim);
        let err = IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store).unwrap_err();
        assert!(err.to_string().contains("not live"), "{err}");
    }

    #[test]
    fn snapshot_rejected_when_store_grew() {
        let (mut store, ib, _) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        store.insert(&[0.0, 0.0], None);
        let err = IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store).unwrap_err();
        assert!(err.to_string().contains("covers"), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        let (store, _, _) = fixture();
        let err =
            IncrementalBubbles::read_snapshot(&mut &b"GARBAGEGARBAGE"[..], &store).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn payload_damage_is_caught_by_the_checksum() {
        let (store, ib, _) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        let mid = 24 + (buf.len() - 24) / 2;
        buf[mid] ^= 0x01;
        let err = IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn version_1_snapshot_is_rejected() {
        let (store, ib, _) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        // The retired v1 layout: magic + version 1 + the unchecksummed body.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"IDBB");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&buf[24..]);
        let err = IncrementalBubbles::read_snapshot(&mut v1.as_slice(), &store).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    /// A population of `bubbles` bubbles over a fresh `dim`-dimensional
    /// store, churned once so member lists are out of insertion order.
    fn population(dim: usize, bubbles: usize, seed: u64) -> IncrementalBubbles {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = PointStore::new(dim);
        for _ in 0..rng.gen_range(150..300) {
            let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-20.0..20.0)).collect();
            store.insert(&p, None);
        }
        let mut search = SearchStats::new();
        let mut ib = IncrementalBubbles::build(
            &store,
            MaintainerConfig::new(bubbles),
            &mut rng,
            &mut search,
        );
        let batch = idb_store::Batch {
            deletes: store.sample_distinct(20, &mut rng),
            inserts: (0..20)
                .map(|_| ((0..dim).map(|_| rng.gen_range(-20.0..20.0)).collect(), None))
                .collect(),
        };
        ib.apply_batch(&mut store, &batch, &mut search);
        ib.maintain(&store, &mut rng, &mut search);
        ib
    }

    /// `ib`'s delta section for the slots flagged in `dirty`.
    fn dirty_section(ib: &IncrementalBubbles, dirty: &[bool]) -> Vec<u8> {
        let mut out = Vec::new();
        ib.write_dirty_records(dirty, &mut out).unwrap();
        out
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, MAGIC, body).unwrap();
        out
    }

    #[test]
    fn splicing_records_over_a_base_reproduces_the_snapshot_bytes() {
        for seed in 0..12u64 {
            let dim = 1 + (seed as usize % 4);
            let bubbles = 3 + (seed as usize % 5);
            let ib = population(dim, bubbles, seed);
            let base = population(dim, bubbles, seed + 100);
            let mut want = Vec::new();
            ib.write_snapshot(&mut want).unwrap();
            let mut base_bytes = Vec::new();
            base.write_snapshot(&mut base_bytes).unwrap();

            // Every record of `ib` over any base of the same size is `ib`.
            let section = dirty_section(&ib, &vec![true; bubbles]);
            let mut cur: &[u8] = &section;
            let dirty = read_dirty_records(&mut cur).unwrap();
            assert!(cur.is_empty(), "seed {seed}: section fully consumed");
            let spliced = splice_records(&base_bytes, &dirty).unwrap();
            assert_eq!(framed(&spliced), want, "seed {seed}: every record");

            // No records over a base is the base.
            let section = dirty_section(&base, &vec![false; bubbles]);
            let dirty = read_dirty_records(&mut section.as_slice()).unwrap();
            let spliced = splice_records(&base_bytes, &dirty).unwrap();
            assert_eq!(framed(&spliced), base_bytes, "seed {seed}: no records");
        }
    }
}
