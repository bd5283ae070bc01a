//! Binary snapshots of a maintained bubble population.
//!
//! Pairs with [`idb_store::snapshot`]: a deployment checkpoints its store
//! and its [`IncrementalBubbles`] together and restores both after a
//! restart — *without* re-running the O(N·s) construction. The decoder
//! validates the snapshot against the store it is restored over (every
//! member must be a live point, every live point must be claimed exactly
//! once, counts must match), so a snapshot from a diverged store is
//! rejected instead of silently producing a corrupt summary.

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
use std::io::{Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"IDBB";

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
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut payload = Vec::new();
        self.write_body(&mut payload)?;
        write_frame(w, MAGIC, &payload)
    }

    fn write_body<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_u64(w, self.dim() as u64)?;
        let config = self.config();
        write_u64(w, config.num_bubbles as u64)?;
        write_f64(w, config.probability)?;
        let (s, q, p) = enum_to_u8(config);
        w.write_all(&[s, q, p])?;
        write_u64(w, self.bubbles().len() as u64)?;
        for b in self.bubbles() {
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
        }
        Ok(())
    }

    /// Restores a population from a snapshot, validating it against the
    /// store it summarizes.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] when a checksum fails, the header is
    /// invalid, a member id is not live in `store`, a point is claimed by
    /// two bubbles, or the summary does not cover the store exactly.
    /// Legacy version-1 snapshots (unchecksummed) are still accepted.
    pub fn read_snapshot<R: Read>(r: &mut R, store: &PointStore) -> Result<Self, SnapshotError> {
        match read_frame(r, MAGIC)? {
            Some(payload) => {
                let mut cur: &[u8] = &payload;
                let this = Self::read_body(&mut cur, store)?;
                if !cur.is_empty() {
                    return Err(SnapshotError::Corrupt(format!(
                        "{} trailing bytes after payload",
                        cur.len()
                    )));
                }
                Ok(this)
            }
            None => Self::read_body(r, store),
        }
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
    fn legacy_v1_snapshot_still_reads() {
        let (store, ib, _) = fixture();
        let mut buf = Vec::new();
        ib.write_snapshot(&mut buf).unwrap();
        // A v1 snapshot is magic + version + the (identical) body.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"IDBB");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&buf[24..]);
        let restored = IncrementalBubbles::read_snapshot(&mut v1.as_slice(), &store).unwrap();
        restored.validate(&store);
        assert_eq!(restored.total_points(), ib.total_points());
    }
}
