//! The delta-maintained clustering engine.
//!
//! [`DeltaEngine`] re-clusters the bubbles from scratch every epoch, as
//! the paper does after each batch — only the *bubbles* are maintained
//! incrementally, and the summary keeps their count `s` small — and
//! maintains what the from-scratch pipeline cannot: stable cluster ids
//! and typed deltas.
//!
//! 1. **OPTICS** — [`optics_merged`] over the domains, domain-major: one
//!    `O(s²)` dense walk over the bubbles extracted into columns, which
//!    computes each bubble's distance row when it reaches it with a
//!    vectorised, branch-free kernel and keeps the unprocessed bubbles
//!    compacted so every pass is one contiguous loop;
//! 2. **Extraction** — the ordering is expanded to the point-level plot
//!    straight from the bubbles' member slices (no per-bubble buffer),
//!    and [`cluster_tree`] extracts the cluster tree;
//! 3. **Diff** — the new tree is diffed against the previous epoch's
//!    identity tree into typed [`ClusterDelta`]s with stable cluster
//!    ids, fanned out to registered subscriptions. The diff is
//!    positional: one sort and merge-join of the plot's point ids
//!    against the previous plot's, then linear scans over plot
//!    positions (see the `deltas` module).
//!
//! Stages 1–2 *are* the from-scratch pipeline (`optics_merged` →
//! `expand` → `cluster_tree`), so every epoch's ordering, plot and tree
//! are bit-identical to it by construction; the differential suite in
//! `tests/equivalence.rs` checks it over every dynamic scenario, engine,
//! parallelism mode and partition count.

use crate::deltas::{diff_trees, ClusterDelta, ClusterId, IdTree};
use crate::subscribe::{Interest, Subscriptions, VersionedDelta};
use idb_clustering::merged::MergedRef;
use idb_clustering::{
    cluster_tree, optics_merged, BubbleOrdering, ClusterNode, ExtractParams, ReachabilityPlot,
};
use idb_core::{Bubble, IncrementalBubbles};
use idb_geometry::Parallelism;
use idb_obs::{EventKind, Obs};
use idb_store::PointId;
use std::collections::HashMap;

/// Clustering parameters of a [`DeltaEngine`] — fixed for the engine's
/// lifetime so cluster ids stay comparable across epochs.
#[derive(Debug, Clone)]
pub struct DeltaParams {
    /// OPTICS neighborhood bound (`f64::INFINITY` for the full
    /// hierarchy).
    pub eps: f64,
    /// OPTICS density threshold, counted in points.
    pub min_pts: usize,
    /// Cluster-tree extraction parameters.
    pub extract: ExtractParams,
    /// Accepted and ignored: the OPTICS walk is serial.
    pub par: Parallelism,
}

impl DeltaParams {
    /// The full hierarchy (`eps = ∞`) with the given density threshold
    /// and minimum cluster size, clustered serially.
    #[must_use]
    pub fn new(min_pts: usize, min_cluster_size: usize) -> Self {
        Self {
            eps: f64::INFINITY,
            min_pts,
            extract: ExtractParams::with_min_size(min_cluster_size),
            par: Parallelism::Serial,
        }
    }
}

/// Component counters of one epoch's cluster tree.
///
/// Every epoch extracts the whole tree, so `reused` is always 0 and
/// `rebuilt` equals `components`; the fields keep the report's shape for
/// consumers that read them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeDeltaStats {
    /// Components (maximal segments delimited by infinite reachability
    /// entries) in the plot.
    pub components: usize,
    /// Component subtrees carried over from the previous epoch (always
    /// 0).
    pub reused: usize,
    /// Component subtrees extracted this epoch (all of them).
    pub rebuilt: usize,
}

/// What one [`DeltaEngine::epoch`] did.
///
/// Every epoch recomputes every bubble's distances, so `touched` equals
/// `total` and `resynced` is always `true`; the fields keep the report's
/// shape for consumers that read them.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch number (0 for the engine's first epoch).
    pub epoch: u64,
    /// Bubbles whose distances were computed: all of them.
    pub touched: usize,
    /// Bubbles across all domains, empty ones included.
    pub total: usize,
    /// Whether the epoch recomputed from scratch: always.
    pub resynced: bool,
    /// The epoch's cluster deltas, in emission order.
    pub deltas: Vec<ClusterDelta>,
    /// Cluster-tree component counters.
    pub tree: TreeDeltaStats,
}

/// The artifacts of the engine's most recent epoch.
#[derive(Debug, Clone)]
struct EpochArtifacts {
    refs: Vec<MergedRef>,
    ordering: BubbleOrdering,
    plot: ReachabilityPlot,
    tree: ClusterNode,
}

/// The delta-maintained clustering layer. See the module docs.
#[derive(Debug)]
pub struct DeltaEngine {
    params: DeltaParams,
    /// The previous epoch's identity tree (`None` before the first
    /// epoch).
    id_tree: Option<IdTree>,
    next_cluster_id: u64,
    subs: Subscriptions,
    obs: Obs,
    epochs: u64,
    last: Option<EpochArtifacts>,
}

impl DeltaEngine {
    /// An engine with the given parameters and no epoch yet.
    #[must_use]
    pub fn new(params: DeltaParams) -> Self {
        assert!(params.min_pts > 0, "min_pts must be positive");
        Self {
            params,
            id_tree: None,
            next_cluster_id: 0,
            subs: Subscriptions::new(),
            obs: Obs::disabled(),
            epochs: 0,
            last: None,
        }
    }

    /// The engine's clustering parameters.
    #[must_use]
    pub fn params(&self) -> &DeltaParams {
        &self.params
    }

    /// Routes observability through `obs`: every epoch emits an
    /// [`EventKind::DeltaEpoch`] journal event and bumps `delta.epochs`
    /// and the per-stage time counters `delta.optics_us` (domain merge,
    /// distance rows and walk), `delta.extract_us` (plot expansion plus
    /// tree extraction) and `delta.diff_us` (the id diff plus the parent
    /// maps subtree subscriptions filter by).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Epochs run so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The most recent epoch's ordering with per-position provenance,
    /// `None` before the first epoch. `ordering.order` indexes the
    /// domain-major concatenation of the epoch's domains.
    #[must_use]
    pub fn ordering(&self) -> Option<(&[MergedRef], &BubbleOrdering)> {
        self.last.as_ref().map(|a| (&a.refs[..], &a.ordering))
    }

    /// The most recent epoch's expanded point-level plot, `None` before
    /// the first epoch.
    #[must_use]
    pub fn plot(&self) -> Option<&ReachabilityPlot> {
        self.last.as_ref().map(|a| &a.plot)
    }

    /// The most recent epoch's extracted cluster tree (plot ranges and
    /// split values), `None` before the first epoch.
    #[must_use]
    pub fn tree(&self) -> Option<&ClusterNode> {
        self.last.as_ref().map(|a| &a.tree)
    }

    /// The current hierarchy as `(id, parent, members)` sorted by id —
    /// exactly what replaying the full delta stream into a
    /// [`TreeReplica`](crate::TreeReplica) reconstructs. Empty before the
    /// first epoch.
    #[must_use]
    pub fn clusters(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        self.id_tree
            .as_ref()
            .map_or_else(Vec::new, IdTree::canonical)
    }

    /// Registers a subscription and returns its id. Journals an
    /// [`EventKind::DeltaSubscribe`] event.
    pub fn subscribe(&mut self, interest: Interest) -> crate::SubscriptionId {
        let id = self.subs.subscribe(interest);
        self.obs.emit(EventKind::DeltaSubscribe { id: id.0 }, 0);
        id
    }

    /// Cancels a subscription, dropping any undelivered deltas. Returns
    /// `false` if the id is unknown (already cancelled). Journals an
    /// [`EventKind::DeltaUnsubscribe`] event when it removed something.
    pub fn unsubscribe(&mut self, id: crate::SubscriptionId) -> bool {
        let removed = self.subs.unsubscribe(id);
        if removed {
            self.obs.emit(EventKind::DeltaUnsubscribe { id: id.0 }, 0);
        }
        removed
    }

    /// Drains the deltas queued for a subscription since the last poll
    /// (empty if the id is unknown).
    pub fn poll(&mut self, id: crate::SubscriptionId) -> Vec<VersionedDelta> {
        self.subs.poll(id)
    }

    /// Runs one epoch against a single unsharded maintainer. Point ids in
    /// plots and memberships are the maintainer's own store ids.
    pub fn maintainer_epoch(&mut self, bubbles: &IncrementalBubbles) -> EpochReport {
        self.epoch(&[bubbles.bubbles()], |_, id| u64::from(id.0))
    }

    /// Runs one epoch over `domains` (one slice of bubbles per
    /// maintainer domain, in a fixed domain order), with `map_id`
    /// translating a domain-local point id into the global id space used
    /// in plots and memberships.
    ///
    /// The ordering, plot and tree are the from-scratch `optics_merged`
    /// → `expand` → `cluster_tree` pipeline over the same domains; only
    /// the cluster ids carry over from the previous epoch.
    pub fn epoch(
        &mut self,
        domains: &[&[Bubble]],
        map_id: impl Fn(u32, PointId) -> u64,
    ) -> EpochReport {
        let timer = self.obs.start();

        // --- 1. OPTICS over the union of the domains. ---
        let stage = self.obs.start();
        let (merged, ordering) = optics_merged(domains, self.params.eps, self.params.min_pts);
        let optics_us = stage.us();

        // --- 2. Expand to the point level, reading member ids straight
        // from the bubbles, and extract the tree. ---
        let stage = self.obs.start();
        let refs: Vec<MergedRef> = ordering.order.iter().map(|&i| merged[i]).collect();
        let map_id = &map_id;
        let plot = ordering.expand(|i| {
            let MergedRef { domain, index } = merged[i];
            domains[domain as usize][index]
                .members()
                .iter()
                .map(move |&id| map_id(domain, id))
        });
        let tree = cluster_tree(&plot, &self.params.extract);
        let extract_us = stage.us();

        // --- 3. Diff into typed deltas with stable ids: one id join
        // against the previous plot, then positional scans. ---
        let stage = self.obs.start();
        let (id_tree, deltas) = diff_trees(
            self.id_tree.as_ref(),
            &tree,
            &plot,
            &mut self.next_cluster_id,
        );
        let old_parents = self
            .id_tree
            .as_ref()
            .map(IdTree::parents)
            .unwrap_or_default();
        let new_parents = id_tree.parents();
        self.id_tree = Some(id_tree);
        let diff_us = stage.us();

        // --- 4. Fan out to subscriptions and the observability ledger. ---
        let epoch = self.epochs;
        self.epochs += 1;
        self.subs.fanout(epoch, &deltas, |root, delta| {
            in_subtree(root, delta, &old_parents, &new_parents)
        });
        let total = merged.len();
        if self.obs.enabled() {
            self.obs.emit_timed(
                EventKind::DeltaEpoch {
                    touched: total as u32,
                    total: total as u32,
                    deltas: deltas.len() as u32,
                },
                &timer,
            );
            let metrics = self.obs.metrics();
            metrics.counter("delta.epochs").inc();
            metrics.counter("delta.optics_us").add(optics_us);
            metrics.counter("delta.extract_us").add(extract_us);
            metrics.counter("delta.diff_us").add(diff_us);
        }
        let components = component_count(&plot);
        self.last = Some(EpochArtifacts {
            refs,
            ordering,
            plot,
            tree,
        });

        EpochReport {
            epoch,
            touched: total,
            total,
            resynced: true,
            deltas,
            tree: TreeDeltaStats {
                components,
                reused: 0,
                rebuilt: components,
            },
        }
    }
}

/// Segments of `plot` delimited by infinite reachabilities: every OPTICS
/// ordering starts each connected component with one.
fn component_count(plot: &ReachabilityPlot) -> usize {
    let entries = plot.entries();
    match entries.split_first() {
        None => 0,
        Some((_, rest)) => 1 + rest.iter().filter(|e| e.reachability.is_infinite()).count(),
    }
}

/// Whether `delta`'s subject lies in the subtree rooted at `root`,
/// walking the parent chain of the tree the subject belongs to (the old
/// tree for removals, the new tree otherwise).
fn in_subtree(
    root: ClusterId,
    delta: &ClusterDelta,
    old_parents: &HashMap<ClusterId, Option<ClusterId>>,
    new_parents: &HashMap<ClusterId, Option<ClusterId>>,
) -> bool {
    let parents = match delta {
        ClusterDelta::Absorbed { .. } | ClusterDelta::Retired { .. } => old_parents,
        _ => new_parents,
    };
    let mut at = Some(delta.subject());
    while let Some(id) = at {
        if id == root {
            return true;
        }
        at = parents.get(&id).copied().flatten();
    }
    false
}
