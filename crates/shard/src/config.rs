//! Service-layer tunables.
//!
//! Partition count is *logical* configuration — it determines which
//! maintainer owns which region of point space and therefore the
//! summarization content. Shard count is *physical* configuration — how
//! partitions are grouped behind queues and drained — and, like thread
//! count, is guaranteed not to change a single output bit.

use crate::route::MAX_PARTITIONS;
use idb_store::StorageBudget;

/// Tunables of the sharded service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Fixed logical partition count `V` (the bit-identity *contract*:
    /// changing it changes which maintainer owns which points).
    pub partitions: u32,
    /// Shard count `N`: how many queue/supervision groups the partitions
    /// are packed into. Pure grouping — any value yields bit-identical
    /// outputs. Clamped to `1..=partitions` at construction.
    pub shards: u32,
    /// Bounded queue capacity per shard, in sub-batch entries. A
    /// submission that would overflow any target queue is shed whole
    /// with [`ShardError::QueueFull`](crate::ShardError::QueueFull).
    pub queue_capacity: usize,
    /// Consecutive degraded supervisor polls before a partition is
    /// quarantined.
    pub quarantine_after: u32,
    /// Consecutive healthy polls before a quarantined partition is
    /// released.
    pub heal_after: u32,
    /// When set, overrides the *per-partition* WAL disk budget of the
    /// [`DurabilityConfig`](idb_core::DurabilityConfig) handed to
    /// [`ShardRouter::create`](crate::ShardRouter::create) — every
    /// partition gets its own copy, so one partition exhausting its
    /// budget sheds only its own batches while siblings keep serving.
    /// `None` leaves the durability config's budget untouched.
    pub disk_budget: Option<StorageBudget>,
    /// When set, overrides the *per-partition* hot-point budget of the
    /// [`DurabilityConfig`](idb_core::DurabilityConfig) handed to
    /// [`ShardRouter::create`](crate::ShardRouter::create): each
    /// partition gets its own cold tier and keeps at most this many
    /// payloads resident, so the whole service's point residency is
    /// `partitions × hot_points` regardless of stream length. `None`
    /// leaves the durability config's own setting (untiered by default)
    /// untouched.
    pub hot_points: Option<Option<usize>>,
}

impl ShardConfig {
    /// A config with `partitions` logical partitions in one shard, with
    /// supervision thresholds quarantine-after-3 / heal-after-2.
    ///
    /// # Panics
    /// Panics unless `1 <= partitions <= MAX_PARTITIONS`.
    #[must_use]
    pub fn new(partitions: u32) -> Self {
        assert!(
            (1..=MAX_PARTITIONS).contains(&partitions),
            "partitions must be in 1..={MAX_PARTITIONS}"
        );
        Self {
            partitions,
            shards: 1,
            queue_capacity: 1024,
            quarantine_after: 3,
            heal_after: 2,
            disk_budget: None,
            hot_points: None,
        }
    }

    /// Sets the shard count (clamped to `1..=partitions`).
    #[must_use]
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.clamp(1, self.partitions);
        self
    }

    /// Sets the per-shard queue capacity (at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the supervision thresholds (each at least 1).
    #[must_use]
    pub fn with_supervision(mut self, quarantine_after: u32, heal_after: u32) -> Self {
        self.quarantine_after = quarantine_after.max(1);
        self.heal_after = heal_after.max(1);
        self
    }

    /// Sets the per-partition WAL disk budget (see
    /// [`ShardConfig::disk_budget`]).
    #[must_use]
    pub fn with_disk_budget(mut self, budget: StorageBudget) -> Self {
        self.disk_budget = Some(budget);
        self
    }

    /// Sets the per-partition hot-point budget (see
    /// [`ShardConfig::hot_points`]); `None` disables tiering for every
    /// partition regardless of the durability config.
    #[must_use]
    pub fn with_hot_points(mut self, hot_points: Option<usize>) -> Self {
        self.hot_points = Some(hot_points);
        self
    }

    /// The shard owning `partition`: contiguous balanced ranges, so a
    /// shard's partitions sit side by side and the grouping is a pure
    /// function of `(partition, partitions, shards)`.
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn shard_of(&self, partition: u32) -> u32 {
        assert!(partition < self.partitions, "partition out of range");
        ((u64::from(partition) * u64::from(self.shards)) / u64::from(self.partitions)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_contiguous_and_balanced() {
        let cfg = ShardConfig::new(8).with_shards(3);
        let owners: Vec<u32> = (0..8).map(|p| cfg.shard_of(p)).collect();
        // Non-decreasing (contiguous ranges) and covering every shard.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        for s in 0..3 {
            let size = owners.iter().filter(|&&o| o == s).count();
            assert!((2..=3).contains(&size), "shard {s} owns {size} partitions");
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let cfg = ShardConfig::new(5);
        assert_eq!(cfg.shards, 1);
        assert!((0..5).all(|p| cfg.shard_of(p) == 0));
    }

    #[test]
    fn shards_clamp_to_partitions() {
        let cfg = ShardConfig::new(2).with_shards(100);
        assert_eq!(cfg.shards, 2);
        let cfg = ShardConfig::new(4).with_shards(0);
        assert_eq!(cfg.shards, 1);
    }
}
