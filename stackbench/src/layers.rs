//! Per-layer metrics of a traced run, computed from the spans and the
//! replay counters, plus each workload's dominant-layer claim.

use crate::json::{num, quote};
use crate::replay::ReplayTotals;
use crate::run::LoopMeasures;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::Better;
use std::collections::BTreeMap;

/// One per-layer metric (no regression bound: layers explain, the
/// end-to-end metrics judge).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Spans timed per call. Each yields `<span>_us` (per-call p50) and
/// `<span>_us.share` (summed time over the loop's system time).
pub const TIMED: [&str; 18] = [
    "shard.submit",
    "shard.drain",
    "core.validate",
    "store.prefetch",
    "store.wal_append",
    "store.wal_commit",
    "store.checkpoint_encode",
    "store.checkpoint_write",
    "store.evict",
    "core.apply",
    "core.maintain",
    "delta.epoch",
    "delta.poll",
    "clustering.optics",
    "clustering.expand",
    "clustering.extract",
    "recovery.restart",
    "recovery.wal_read",
];

/// The per-layer metrics, in `BENCHMARK.json` order (grouped by layer,
/// outside in).
pub const PER_LAYER: [LayerMetric; 55] = [
    lower("shard.submit_us", "us"),
    lower("shard.submit_us.share", "ratio"),
    lower("shard.entries_per_batch", "count"),
    lower("shard.drain_us", "us"),
    lower("shard.drain_us.share", "ratio"),
    lower("core.validate_us", "us"),
    lower("core.validate_us.share", "ratio"),
    lower("store.prefetch_us", "us"),
    lower("store.prefetch_us.share", "ratio"),
    lower("store.wal_append_us", "us"),
    lower("store.wal_append_us.share", "ratio"),
    lower("store.wal_commit_us", "us"),
    lower("store.wal_commit_us.share", "ratio"),
    lower("store.wal_bytes_per_op", "B"),
    lower("store.checkpoint_bytes", "B"),
    lower("store.checkpoint_encode_us", "us"),
    lower("store.checkpoint_encode_us.share", "ratio"),
    lower("store.checkpoint_write_us", "us"),
    lower("store.checkpoint_write_us.share", "ratio"),
    lower("store.evict_us", "us"),
    lower("store.evict_us.share", "ratio"),
    higher("store.tier_hit_frac", "ratio"),
    lower("store.tier_cold_bytes", "B"),
    lower("store.tier_evictions", "count"),
    lower("core.apply_us", "us"),
    lower("core.apply_us.share", "ratio"),
    lower("geometry.dist_per_op", "count"),
    lower("geometry.partial_per_op", "count"),
    higher("geometry.avoided_frac", "ratio"),
    lower("core.maintain_us", "us"),
    lower("core.maintain_us.share", "ratio"),
    lower("core.splits_per_batch", "count"),
    lower("core.released_points_per_batch", "count"),
    lower("core.misfit_frac", "ratio"),
    lower("delta.epoch_us", "us"),
    lower("delta.epoch_us.share", "ratio"),
    lower("delta.poll_us", "us"),
    lower("delta.poll_us.share", "ratio"),
    lower("delta.deltas_per_epoch", "count"),
    higher("delta.components_reused_frac", "ratio"),
    lower("delta.touched_frac", "ratio"),
    lower("delta.resyncs", "count"),
    lower("clustering.optics_us", "us"),
    lower("clustering.optics_us.share", "ratio"),
    lower("clustering.expand_us", "us"),
    lower("clustering.expand_us.share", "ratio"),
    lower("clustering.extract_us", "us"),
    lower("clustering.extract_us.share", "ratio"),
    lower("recovery.restart_us", "us"),
    lower("recovery.restart_us.share", "ratio"),
    lower("recovery.wal_read_us", "us"),
    lower("recovery.wal_read_us.share", "ratio"),
    lower("recovery.replayed_records", "count"),
    lower("trace.reconcile_pct", "%"),
    lower("trace.overhead_pct", "%"),
];

/// Replayed spans whose sum should reconcile with the live `drain` time.
const REPLAYED: [&str; 9] = [
    "core.validate",
    "store.prefetch",
    "store.wal_append",
    "store.wal_commit",
    "core.apply",
    "core.maintain",
    "store.checkpoint_encode",
    "store.checkpoint_write",
    "store.evict",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every [`PER_LAYER`] metric. `stride` is the sampling stride
/// of the from-scratch reference spans (their share is scaled up by it);
/// `overhead_pct` is the loop's span-recording time as a share of its
/// system time.
#[must_use]
pub fn metrics(
    m: &LoopMeasures,
    tr: &Tracer,
    replay: &ReplayTotals,
    stride: usize,
    overhead_pct: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let system_us = m.system.wall.as_secs_f64() * 1e6;
    let batches = m.attempted as f64;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut total_us = BTreeMap::new();
    for span in TIMED {
        let d = tr.durations_us(span);
        let scale = if span.starts_with("clustering.") {
            stride as f64
        } else {
            1.0
        };
        let sum: f64 = d.iter().sum::<f64>() * scale;
        total_us.insert(span, sum);
        v.insert(format!("{span}_us"), stats::median(&d));
        v.insert(format!("{span}_us.share"), ratio(sum, system_us));
    }
    let depth: usize = m.queue_depth.iter().sum();
    v.insert(
        "shard.entries_per_batch".into(),
        ratio(depth as f64, batches),
    );
    v.insert(
        "store.wal_bytes_per_op".into(),
        ratio(replay.wal_bytes as f64, replay.ops as f64),
    );
    v.insert(
        "store.checkpoint_bytes".into(),
        ratio(replay.checkpoint_bytes as f64, replay.checkpoints as f64),
    );
    let t = m.tier;
    v.insert(
        "store.tier_hit_frac".into(),
        ratio(t.hits as f64, (t.hits + t.misses) as f64),
    );
    v.insert("store.tier_cold_bytes".into(), t.cold_bytes as f64);
    v.insert("store.tier_evictions".into(), t.evictions as f64);
    let ops = replay.ops as f64;
    v.insert(
        "geometry.dist_per_op".into(),
        ratio(replay.search.computed as f64, ops),
    );
    v.insert(
        "geometry.partial_per_op".into(),
        ratio(replay.search.partial as f64, ops),
    );
    v.insert(
        "geometry.avoided_frac".into(),
        replay.search.avoided_fraction(),
    );
    v.insert(
        "core.splits_per_batch".into(),
        ratio(replay.splits as f64, batches),
    );
    v.insert(
        "core.released_points_per_batch".into(),
        ratio(replay.released_points as f64, batches),
    );
    v.insert(
        "core.misfit_frac".into(),
        ratio(replay.misfits as f64, replay.classified as f64),
    );
    let e = &m.epochs;
    let sum = |f: fn(&crate::run::EpochStat) -> usize| e.iter().map(f).sum::<usize>() as f64;
    v.insert(
        "delta.deltas_per_epoch".into(),
        ratio(sum(|s| s.deltas), e.len() as f64),
    );
    v.insert(
        "delta.components_reused_frac".into(),
        ratio(sum(|s| s.reused), sum(|s| s.components)),
    );
    v.insert(
        "delta.touched_frac".into(),
        ratio(sum(|s| s.touched), sum(|s| s.total)),
    );
    v.insert("delta.resyncs".into(), sum(|s| usize::from(s.resynced)));
    let replayed: usize = m.replayed.iter().sum();
    v.insert(
        "recovery.replayed_records".into(),
        ratio(replayed as f64, m.replayed.len() as f64),
    );
    let layer_us: f64 = REPLAYED.iter().map(|s| total_us[s]).sum();
    let drain_us = total_us["shard.drain"];
    v.insert(
        "trace.reconcile_pct".into(),
        ratio(layer_us - drain_us, drain_us) * 100.0,
    );
    v.insert("trace.overhead_pct".into(), overhead_pct);

    PER_LAYER
        .iter()
        .map(|l| {
            let value = v.get(l.name).copied().unwrap_or(f64::NAN);
            (l.name, if value.is_finite() { value } else { 0.0 }, l.unit)
        })
        .collect()
}

/// A workload's claim about where its time goes: the summed shares of
/// `parts`, divided by the share of `of` (or by the whole loop when
/// `None`), must reach `floor`.
struct Dominant {
    workload: &'static str,
    parts: &'static [&'static str],
    of: Option<&'static str>,
    floor: f64,
}

const DOMINANT: [Dominant; 4] = [
    Dominant {
        workload: "ingest_d10",
        parts: &["shard.drain_us.share"],
        of: None,
        floor: 0.6,
    },
    Dominant {
        workload: "monitor_d2",
        parts: &["delta.epoch_us.share", "delta.poll_us.share"],
        of: None,
        floor: 0.8,
    },
    Dominant {
        workload: "many_bubbles",
        parts: &["delta.epoch_us.share"],
        of: None,
        floor: 0.5,
    },
    Dominant {
        workload: "fsync_tiered",
        parts: &[
            "store.prefetch_us.share",
            "store.wal_append_us.share",
            "store.wal_commit_us.share",
            "store.checkpoint_encode_us.share",
            "store.checkpoint_write_us.share",
            "store.evict_us.share",
        ],
        of: Some("shard.drain_us.share"),
        floor: 0.4,
    },
];

/// The dominant-layer claim of `workload`, evaluated on `metrics`, as a
/// JSON object (`null` for an unknown workload).
#[must_use]
pub fn dominant(workload: &str, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let Some(d) = DOMINANT.iter().find(|d| d.workload == workload) else {
        return "null".into();
    };
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let part: f64 = d.parts.iter().map(|n| get(n)).sum();
    let share = d.of.map_or(part, |of| ratio(part, get(of)));
    let claim = format!(
        "{} / {} >= {}",
        d.parts.join(" + "),
        d.of.unwrap_or("loop"),
        d.floor
    );
    format!(
        "{{\"claim\": {}, \"share\": {}, \"holds\": {}}}",
        quote(&claim),
        num(share),
        share >= d.floor
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_timed_span_has_both_metrics_in_the_table() {
        for span in TIMED {
            for suffix in ["_us", "_us.share"] {
                let name = format!("{span}{suffix}");
                assert!(
                    PER_LAYER.iter().any(|l| l.name == name),
                    "{name} missing from PER_LAYER"
                );
            }
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
    }
}
