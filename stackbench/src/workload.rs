//! The workload table, the metric table, and the resolved configuration
//! of one run. Everything the system is configured with is spelled out
//! here field by field — no library `Default` (several read `IDB_*`
//! environment variables) is used.

use crate::json::{num, quote};
use idb_clustering::ExtractParams;
use idb_core::{
    DurabilityConfig, MaintainerConfig, Parallelism, QualityKind, SeedSearch, SplitSeedPolicy,
};
use idb_delta::DeltaParams;
use idb_shard::ShardConfig;
use idb_store::StorageBudget;
use std::time::Duration;

/// Logical partitions `V` of every workload.
pub const PARTITIONS: u32 = 4;
/// Identical repetitions of the loop in an untraced run. Each starts
/// from a fresh generator with the run's seed and a fresh service, so
/// every repetition submits the same batches and ends in the same state;
/// the host's speed is what differs between them.
pub const REPETITIONS: usize = 5;
/// Partition restarts per repetition, evenly spaced over its batches:
/// partition `i` at the `i`-th, so each restarts once.
pub const RESTARTS: usize = PARTITIONS as usize;
/// OPTICS density threshold of the delta engine, in points.
pub const MIN_PTS: usize = 6;
/// Minimum extracted cluster size.
pub const MIN_CLUSTER: usize = 8;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// One workload: the traffic shape and the durability policy it runs
/// under. All four share the `complex` scenario (the paper's Fig. 8
/// mix), `V` = 4 partitions, the pruned engine with warm starts, and
/// file-backed WAL + checkpoints with an fsync at every group commit.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dim: usize,
    pub points: usize,
    pub bubbles_per_partition: usize,
    /// Share of the live points deleted, and the same count inserted,
    /// per batch.
    pub update_fraction: f64,
    /// Batches one second of `--seconds` buys on the reference host
    /// (2-CPU x86-64 VM, ext4) at its usual, not its full, speed. A run is
    /// a fixed amount of work derived from this, so its outputs depend on
    /// the seed and the run length alone.
    pub batches_per_second: f64,
    /// A delta epoch plus a subscriber poll every this many batches.
    pub refresh_every: usize,
    pub group_commit: usize,
    pub checkpoint_interval: u64,
    /// Hot-point budget per partition; `Some` enables the file-backed
    /// cold tier.
    pub hot_points: Option<usize>,
}

/// The workloads, in `BENCHMARK.json` order (README.md says why each).
pub const WORKLOADS: [Workload; 4] = [
    // Write-heavy at d = 10 with rare refresh: `drain` dominates.
    Workload {
        name: "ingest_d10",
        dim: 10,
        points: 40_000,
        bubbles_per_partition: 200,
        update_fraction: 0.05,
        batches_per_second: 80.0,
        refresh_every: 40,
        group_commit: 8,
        checkpoint_interval: 64,
        hot_points: None,
    },
    // A fresh hierarchy after every small batch: n-bound refresh dominates.
    Workload {
        name: "monitor_d2",
        dim: 2,
        points: 10_000,
        bubbles_per_partition: 100,
        update_fraction: 0.01,
        batches_per_second: 50.0,
        refresh_every: 1,
        group_commit: 8,
        checkpoint_interval: 64,
        hot_points: None,
    },
    // s = 2,000 bubbles of ~10 points: s-bound refresh dominates.
    Workload {
        name: "many_bubbles",
        dim: 2,
        points: 20_000,
        bubbles_per_partition: 500,
        update_fraction: 0.01,
        batches_per_second: 30.0,
        refresh_every: 10,
        group_commit: 8,
        checkpoint_interval: 64,
        hot_points: None,
    },
    // An fsync per small batch over a working set ~80x the hot cache:
    // store work dominates `drain`.
    Workload {
        name: "fsync_tiered",
        dim: 2,
        points: 40_000,
        bubbles_per_partition: 200,
        update_fraction: 0.0025,
        batches_per_second: 300.0,
        refresh_every: 120,
        group_commit: 1,
        checkpoint_interval: 16,
        hot_points: Some(128),
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// The benchmark proper: batch count from `--seconds`.
    Full { seconds: f64 },
    /// A two-second pass over every code path, for tests: a tenth of the
    /// points and bubbles, about eight batches per repetition.
    Smoke,
}

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the service sees.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. A timing, memory
/// or quality bound is the smallest multiple of 0.05 that is at least
/// three times the widest spread (interquartile range over median, ten
/// seeds) the metric showed on any workload in two rounds on the
/// reference host, and at most 0.25 (README.md, "Bounds"). `write_amp`
/// and `acked_frac` barely vary, so theirs catch small changes: 2 % more
/// bytes written, any failed batch.
pub const END_TO_END: [Metric; 11] = [
    metric("setup_s", "s", Better::Lower, 0.25),
    metric("throughput_ops_per_s", "ops/s", Better::Higher, 0.25),
    metric("batch_p50_ms", "ms", Better::Lower, 0.25),
    metric("batch_tail_ms", "ms", Better::Lower, 0.25),
    metric("fresh_p50_ms", "ms", Better::Lower, 0.25),
    metric("fresh_tail_ms", "ms", Better::Lower, 0.25),
    metric("recovery_mean_ms", "ms", Better::Lower, 0.25),
    metric("peak_rss_mb", "MiB", Better::Lower, 0.25),
    metric("write_amp", "ratio", Better::Lower, 0.02),
    metric("fscore", "ratio", Better::Higher, 0.10),
    metric("acked_frac", "ratio", Better::Higher, 0.0001),
];

/// The resolved configuration of one run: every knob the stack is built
/// with, written into the run's report.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    pub dim: usize,
    pub points: usize,
    pub partitions: u32,
    pub bubbles_per_partition: usize,
    pub update_fraction: f64,
    /// Batches per repetition.
    pub batches: usize,
    pub refresh_every: usize,
    pub restart_every: usize,
    pub group_commit: usize,
    pub checkpoint_interval: u64,
    pub hot_points: Option<usize>,
}

impl Config {
    /// Resolves `w` at `scale` for `seed`.
    #[must_use]
    pub fn resolve(w: &Workload, scale: Scale, seed: u64) -> Self {
        let (points, bubbles, refresh_every, want, checkpoint_interval) = match scale {
            Scale::Full { seconds } => (
                w.points,
                w.bubbles_per_partition,
                w.refresh_every,
                (w.batches_per_second * seconds / REPETITIONS as f64).ceil() as usize,
                w.checkpoint_interval,
            ),
            Scale::Smoke => (
                w.points / 10,
                w.bubbles_per_partition / 10,
                (w.refresh_every / 20).max(1),
                8,
                (w.checkpoint_interval / 16).max(2),
            ),
        };
        // A repetition ends on an epoch, so the subscriber's hierarchy
        // covers every batch, and on its last restart.
        let period = lcm(refresh_every, RESTARTS);
        let batches = want.div_ceil(period).max(1) * period;
        Self {
            workload: w.name,
            seed,
            dim: w.dim,
            points,
            partitions: PARTITIONS,
            bubbles_per_partition: bubbles,
            update_fraction: w.update_fraction,
            batches,
            refresh_every,
            restart_every: batches / RESTARTS,
            group_commit: w.group_commit,
            checkpoint_interval,
            hot_points: w.hot_points,
        }
    }

    /// Seed of the router's per-partition maintenance streams, derived
    /// from the run seed (the scenario generator uses the seed itself).
    #[must_use]
    pub fn router_seed(&self) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }

    #[must_use]
    pub fn maintainer(&self) -> MaintainerConfig {
        MaintainerConfig {
            num_bubbles: self.bubbles_per_partition,
            probability: 0.9,
            seed_search: SeedSearch::Pruned,
            warm_start: true,
            quality: QualityKind::Beta,
            split_seeds: SplitSeedPolicy::Random,
            parallelism: Parallelism::Serial,
        }
    }

    #[must_use]
    pub fn shard(&self) -> ShardConfig {
        ShardConfig {
            partitions: self.partitions,
            shards: 1,
            queue_capacity: 1024,
            quarantine_after: 3,
            heal_after: 2,
            disk_budget: None,
            hot_points: None,
        }
    }

    #[must_use]
    pub fn durability(&self) -> DurabilityConfig {
        DurabilityConfig {
            group_commit: self.group_commit,
            checkpoint_interval: self.checkpoint_interval,
            max_retries: 3,
            retry_backoff: Duration::ZERO,
            max_buffered: 1024,
            checkpoint_chunk_bytes: 64 * 1024,
            full_rebase_interval: 4,
            disk_budget: StorageBudget::unbounded(),
            hot_points: self.hot_points,
        }
    }

    #[must_use]
    pub fn delta(&self) -> DeltaParams {
        DeltaParams {
            eps: f64::INFINITY,
            min_pts: MIN_PTS,
            extract: ExtractParams::with_min_size(MIN_CLUSTER),
            par: Parallelism::Serial,
        }
    }

    /// The configuration as a JSON object, for the run report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let m = self.maintainer();
        let s = self.shard();
        let d = self.durability();
        let p = self.delta();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"router_seed\": {}, \"scenario\": \"complex\", \
             \"dim\": {}, \"points\": {}, \"update_fraction\": {}, \"batches\": {}, \
             \"refresh_every\": {}, \"restart_every\": {}, \"restarts_per_repetition\": {}, \
             \"maintainer\": {{\"num_bubbles\": {}, \"probability\": {}, \"seed_search\": \"{:?}\", \
             \"warm_start\": {}, \"quality\": \"{:?}\", \"split_seeds\": \"{:?}\", \"parallelism\": \"{:?}\"}}, \
             \"shard\": {{\"partitions\": {}, \"shards\": {}, \"queue_capacity\": {}, \
             \"quarantine_after\": {}, \"heal_after\": {}}}, \
             \"durability\": {{\"group_commit\": {}, \"checkpoint_interval\": {}, \"max_retries\": {}, \
             \"max_buffered\": {}, \"checkpoint_chunk_bytes\": {}, \"full_rebase_interval\": {}, \
             \"disk_budget\": null, \"hot_points\": {}, \"wal\": \"FileSink\", \
             \"checkpoints\": \"FsCheckpoints\", \"cold_tier\": {}}}, \
             \"delta\": {{\"eps\": \"inf\", \"min_pts\": {}, \"min_cluster_size\": {}, \
             \"significance_ratio\": {}, \"parallelism\": \"{:?}\"}}, \"obs\": \"disabled\"}}",
            quote(self.workload),
            self.seed,
            self.router_seed(),
            self.dim,
            self.points,
            num(self.update_fraction),
            self.batches,
            self.refresh_every,
            self.restart_every,
            RESTARTS,
            m.num_bubbles,
            num(m.probability),
            m.seed_search,
            m.warm_start,
            m.quality,
            m.split_seeds,
            m.parallelism,
            s.partitions,
            s.shards,
            s.queue_capacity,
            s.quarantine_after,
            s.heal_after,
            d.group_commit,
            d.checkpoint_interval,
            d.max_retries,
            d.max_buffered,
            d.checkpoint_chunk_bytes,
            d.full_rebase_interval,
            d.hot_points.map_or("null".to_string(), |h| h.to_string()),
            if d.hot_points.is_some() { "\"FsCold\"" } else { "null" },
            p.min_pts,
            p.extract.min_cluster_size,
            num(p.extract.significance_ratio),
            p.par,
        )
    }
}

fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_are_whole_refresh_periods_with_every_restart() {
        // A repetition that ended between epochs would leave the
        // subscriber's hierarchy behind the partitions, failing the delta
        // check; one that ended before its last restart would skip it.
        for w in &WORKLOADS {
            for scale in [Scale::Full { seconds: 3.0 }, Scale::Smoke] {
                let c = Config::resolve(w, scale, 1);
                assert_eq!(c.batches % c.refresh_every, 0, "{} {scale:?}", w.name);
                assert!(c.restart_every >= 1, "{}", w.name);
                assert_eq!(c.restart_every * RESTARTS, c.batches, "{}", w.name);
            }
            let c = Config::resolve(w, Scale::Full { seconds: 3.0 }, 1);
            let run = c.batches * REPETITIONS;
            assert!(run >= (w.batches_per_second * 3.0) as usize, "{}", w.name);
        }
    }

    #[test]
    fn smoke_partitions_hold_their_bubbles() {
        // Routing spreads points evenly; every partition must be able to
        // seed its bubbles with plenty to spare.
        for w in &WORKLOADS {
            let c = Config::resolve(w, Scale::Smoke, 1);
            let per_partition = c.points / c.partitions as usize;
            assert!(per_partition >= 2 * c.bubbles_per_partition, "{}", w.name);
            assert!(c.bubbles_per_partition >= 2);
        }
    }
}
