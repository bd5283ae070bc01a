//! The delta-maintained clustering engine.
//!
//! [`DeltaEngine`] consumes the maintainer's structural change stream
//! ([`BubbleChange`]) and keeps the whole bubble-level clustering
//! pipeline incrementally maintained across epochs:
//!
//! 1. **Candidate generation** — a [`PairCache`] mirrors the bubble slot
//!    space of every domain (push / swap-remove / in-place stat changes)
//!    and recomputes only the distance neighborhoods of *touched* slots
//!    (one representative distance per touched unordered pair),
//!    bit-identical to a from-scratch matrix;
//! 2. **Expansion** — the live sub-matrix is viewed into an engine-owned
//!    buffer reused across epochs, and [`optics_from_matrix`] runs the
//!    exact `O(s²)` dense OPTICS stage `optics_bubbles_with` would run
//!    over that matrix;
//! 3. **Extraction** — [`cluster_tree_delta`] re-extracts the cluster
//!    tree, copying components whose reachability bits are unchanged
//!    from the previous epoch's [`TreeCache`];
//! 4. **Diff** — the new tree is diffed against the previous epoch's
//!    identity tree into typed [`ClusterDelta`]s with stable cluster
//!    ids, fanned out to registered subscriptions.
//!
//! Every stage is bit-identical to the from-scratch pipeline
//! (`optics_merged` → `expand` → `cluster_tree`) by construction: the
//! incremental parts only decide *what to recompute*, never *what the
//! values are*. The differential suite in `tests/equivalence.rs` proves
//! it over every dynamic scenario, engine, parallelism mode and
//! partition count.
//!
//! When any domain's change log is unavailable (`take_changes` returned
//! `None`: tracking just enabled, or invalidated by a repair/restart),
//! the engine falls back to a **full resync** — every slot recomputed,
//! same bits, no silent staleness.

use crate::deltas::{diff_trees, ClusterDelta, ClusterId, IdNode};
use crate::subscribe::{Interest, Subscriptions, VersionedDelta};
use idb_clustering::merged::MergedRef;
use idb_clustering::{
    cluster_tree_delta, optics_from_matrix_with_scratch, BubbleOrdering, ClusterNode,
    ExtractParams, OpticsScratch, PairCache, ReachabilityPlot, TreeCache, TreeDeltaStats,
};
use idb_core::{Bubble, BubbleChange, DataSummary, IncrementalBubbles};
use idb_geometry::Parallelism;
use idb_obs::{EventKind, Obs};
use idb_store::PointId;
use std::collections::HashMap;

/// Clustering parameters of a [`DeltaEngine`] — fixed for the engine's
/// lifetime so cached state stays comparable across epochs.
#[derive(Debug, Clone)]
pub struct DeltaParams {
    /// OPTICS neighborhood bound (`f64::INFINITY` for the full
    /// hierarchy).
    pub eps: f64,
    /// OPTICS density threshold, counted in points.
    pub min_pts: usize,
    /// Cluster-tree extraction parameters.
    pub extract: ExtractParams,
    /// Parallelism of the touched-row refresh (a wall-clock knob only —
    /// outputs are bit-identical across modes).
    pub par: Parallelism,
}

impl DeltaParams {
    /// The full hierarchy (`eps = ∞`) with the given density threshold
    /// and minimum cluster size, refreshed serially.
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

/// What one [`DeltaEngine::epoch`] did.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch number (0 for the engine's first epoch).
    pub epoch: u64,
    /// Bubble slots whose distance neighborhood was recomputed.
    pub touched: usize,
    /// Total tracked bubble slots (what a full recompute touches).
    pub total: usize,
    /// Whether the epoch fell back to a full resync (first epoch, a
    /// domain without a valid change log, or a slot-space mismatch).
    pub resynced: bool,
    /// Unordered slot pairs whose distances were recomputed — one
    /// representative distance each: `touched·total − touched(touched+1)/2`.
    pub pair_evals: usize,
    /// The epoch's cluster deltas, in emission order.
    pub deltas: Vec<ClusterDelta>,
    /// Cluster-tree component reuse counters.
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
    cache: PairCache,
    tree_cache: TreeCache,
    /// Per cache slot: the owning `(domain, index within domain)`.
    owners: Vec<(u32, u32)>,
    /// Per domain: domain-local bubble index → cache slot.
    domain_slots: Vec<Vec<usize>>,
    /// The previous epoch's identity tree (`None` before the first
    /// epoch).
    id_tree: Option<IdNode>,
    next_cluster_id: u64,
    subs: Subscriptions,
    obs: Obs,
    epochs: u64,
    last: Option<EpochArtifacts>,
    /// Reusable working memory for the per-epoch OPTICS expansion and the
    /// live distance matrix it reads — after the first epoch neither
    /// stage allocates unless the live count grows. Purely an
    /// optimization; fresh buffers yield bit-identical orderings.
    optics_scratch: OpticsScratch,
    view: Vec<f64>,
}

impl DeltaEngine {
    /// An engine with the given parameters and no tracked state; the
    /// first epoch resyncs against whatever domains it is shown.
    #[must_use]
    pub fn new(params: DeltaParams) -> Self {
        assert!(params.min_pts > 0, "min_pts must be positive");
        Self {
            params,
            cache: PairCache::new(),
            tree_cache: TreeCache::new(),
            owners: Vec::new(),
            domain_slots: Vec::new(),
            id_tree: None,
            next_cluster_id: 0,
            subs: Subscriptions::new(),
            obs: Obs::disabled(),
            epochs: 0,
            last: None,
            optics_scratch: OpticsScratch::default(),
            view: Vec::new(),
        }
    }

    /// The engine's clustering parameters.
    #[must_use]
    pub fn params(&self) -> &DeltaParams {
        &self.params
    }

    /// Routes observability through `obs`: every epoch emits an
    /// [`EventKind::DeltaEpoch`] journal event and bumps the
    /// `delta.rows_touched` / `delta.rows_total` / `delta.rows_saved` /
    /// `delta.pair_evals` counters (the delta-vs-full work ledger) and the
    /// per-stage time counters `delta.refresh_us`, `delta.view_us`,
    /// `delta.expand_us` and `delta.extract_us` (extraction plus diff).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Epochs run so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The most recent epoch's ordering with per-position provenance,
    /// `None` before the first epoch.
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
            .map_or_else(Vec::new, IdNode::canonical)
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

    /// Runs one epoch against a single unsharded maintainer: drains its
    /// change log (enabling tracking on first use — which forces this
    /// epoch to resync, as the log cannot cover what happened before) and
    /// clusters its bubbles. Point ids in plots and memberships are the
    /// maintainer's own store ids.
    pub fn maintainer_epoch(&mut self, bubbles: &mut IncrementalBubbles) -> EpochReport {
        if !bubbles.change_tracking() {
            bubbles.set_change_tracking(true);
        }
        let changes = vec![bubbles.take_changes()];
        let domains = [bubbles.bubbles()];
        self.epoch(&domains, changes, |_, id| u64::from(id.0))
    }

    /// Runs one epoch over `domains` (one slice of bubbles per
    /// maintainer domain, in a fixed domain order), with `changes[d]` the
    /// domain's drained change log (`None` forces a full resync) and
    /// `map_id` translating a domain-local point id into the global id
    /// space used in plots and memberships.
    ///
    /// The resulting ordering, plot and tree are bit-identical to the
    /// from-scratch `optics_merged` → `expand` → `cluster_tree` pipeline
    /// over the same domains.
    ///
    /// # Panics
    /// Panics if `changes.len() != domains.len()`.
    pub fn epoch(
        &mut self,
        domains: &[&[Bubble]],
        changes: Vec<Option<Vec<BubbleChange>>>,
        map_id: impl Fn(u32, PointId) -> u64,
    ) -> EpochReport {
        assert_eq!(
            changes.len(),
            domains.len(),
            "one change log (or None) per domain"
        );
        let timer = self.obs.start();

        // --- 1. Sync the slot space. ---
        let resynced = if self.try_apply_changes(domains, changes) {
            false
        } else {
            self.resync(domains);
            true
        };

        // --- 2. Refresh touched distance neighborhoods. ---
        let stage = self.obs.start();
        let slot_summaries: Vec<&Bubble> = self
            .owners
            .iter()
            .map(|&(d, j)| &domains[d as usize][j as usize])
            .collect();
        let touched = self.cache.refresh(&slot_summaries, self.params.par);
        let pair_evals = self.cache.pair_evals();
        let total = self.owners.len();
        let refresh_us = stage.us();

        // --- 3. Expand over the cached matrix, domain-major like
        // `optics_merged`. ---
        let stage = self.obs.start();
        let live: Vec<usize> = self
            .domain_slots
            .iter()
            .enumerate()
            .flat_map(|(d, slots)| {
                slots
                    .iter()
                    .enumerate()
                    .filter(move |&(j, _)| domains[d][j].n() > 0)
                    .map(|(_, &c)| c)
            })
            .collect();
        self.cache.live_view(&live, &mut self.view);
        let view_us = stage.us();
        let stage = self.obs.start();
        let ordering = optics_from_matrix_with_scratch(
            &slot_summaries,
            &live,
            &self.view,
            self.params.eps,
            self.params.min_pts,
            &mut self.optics_scratch,
        );
        let expand_us = stage.us();
        let stage = self.obs.start();
        let refs: Vec<MergedRef> = ordering
            .order
            .iter()
            .map(|&c| {
                let (domain, index) = self.owners[c];
                MergedRef {
                    domain,
                    index: index as usize,
                }
            })
            .collect();

        // --- 4. Expand to the point level and re-extract the tree. ---
        let plot = ordering.expand(|c| {
            let (d, j) = self.owners[c];
            domains[d as usize][j as usize]
                .members()
                .iter()
                .map(|&id| map_id(d, id))
                .collect::<Vec<u64>>()
        });
        let (tree, tree_stats) =
            cluster_tree_delta(&plot, &self.params.extract, &mut self.tree_cache);

        // --- 5. Diff into typed deltas with stable ids. ---
        let (id_tree, deltas) = diff_trees(
            self.id_tree.as_ref(),
            &tree,
            &plot,
            &mut self.next_cluster_id,
        );
        let old_parents = self
            .id_tree
            .as_ref()
            .map(IdNode::parents)
            .unwrap_or_default();
        let new_parents = id_tree.parents();
        self.id_tree = Some(id_tree);
        let extract_us = stage.us();

        // --- 6. Fan out to subscriptions and the observability ledger. ---
        let epoch = self.epochs;
        self.epochs += 1;
        self.subs.fanout(epoch, &deltas, |root, delta| {
            in_subtree(root, delta, &old_parents, &new_parents)
        });
        if self.obs.enabled() {
            self.obs.emit_timed(
                EventKind::DeltaEpoch {
                    touched: touched as u32,
                    total: total as u32,
                    deltas: deltas.len() as u32,
                },
                &timer,
            );
            let metrics = self.obs.metrics();
            metrics.counter("delta.epochs").inc();
            metrics.counter("delta.rows_touched").add(touched as u64);
            metrics.counter("delta.rows_total").add(total as u64);
            metrics
                .counter("delta.rows_saved")
                .add((total - touched) as u64);
            metrics.counter("delta.pair_evals").add(pair_evals as u64);
            metrics.counter("delta.refresh_us").add(refresh_us);
            metrics.counter("delta.view_us").add(view_us);
            metrics.counter("delta.expand_us").add(expand_us);
            metrics.counter("delta.extract_us").add(extract_us);
            if resynced {
                metrics.counter("delta.resyncs").inc();
            }
        }
        self.last = Some(EpochArtifacts {
            refs,
            ordering,
            plot,
            tree,
        });

        EpochReport {
            epoch,
            touched,
            total,
            resynced,
            pair_evals,
            deltas,
            tree: tree_stats,
        }
    }

    /// Applies per-domain change logs to the slot mapping and the pair
    /// cache. Returns `false` when a full resync is required instead:
    /// domain count changed, a log is missing, or the resulting mapping
    /// does not cover the domains (a defensive cross-check).
    fn try_apply_changes(
        &mut self,
        domains: &[&[Bubble]],
        changes: Vec<Option<Vec<BubbleChange>>>,
    ) -> bool {
        if self.domain_slots.len() != domains.len() {
            return false;
        }
        if changes.iter().any(Option::is_none) {
            return false;
        }
        for (d, log) in changes.into_iter().enumerate() {
            for change in log.expect("checked above") {
                match change {
                    BubbleChange::Touched(i) => {
                        let Some(&c) = self.domain_slots[d].get(i as usize) else {
                            return false;
                        };
                        self.cache.touch(c);
                    }
                    BubbleChange::Pushed => {
                        let c = self.cache.slots();
                        self.cache.push();
                        self.owners
                            .push((d as u32, self.domain_slots[d].len() as u32));
                        self.domain_slots[d].push(c);
                    }
                    BubbleChange::SwapRemoved(i) => {
                        if !self.apply_swap_remove(d, i as usize) {
                            return false;
                        }
                    }
                }
            }
        }
        // The mapping must exactly cover the domains we were shown.
        self.domain_slots.len() == domains.len()
            && self
                .domain_slots
                .iter()
                .zip(domains)
                .all(|(slots, dom)| slots.len() == dom.len())
    }

    /// Mirrors a maintainer-side `swap_remove(i)` in domain `d`: the
    /// domain's last bubble moved to local index `i`, and the cache's
    /// last slot moved into the removed bubble's slot.
    fn apply_swap_remove(&mut self, d: usize, i: usize) -> bool {
        let Some(&c_removed) = self.domain_slots[d].get(i) else {
            return false;
        };
        // Domain-local remap (maintainer Vec::swap_remove semantics).
        let c_last_local = self.domain_slots[d].pop().expect("get() proved non-empty");
        if i < self.domain_slots[d].len() {
            self.domain_slots[d][i] = c_last_local;
            self.owners[c_last_local] = (d as u32, i as u32);
        }
        // Global cache remap (PairCache::swap_remove semantics).
        self.cache.swap_remove(c_removed);
        let moved_owner = self.owners.pop().expect("owners mirror cache slots");
        if c_removed < self.owners.len() {
            self.owners[c_removed] = moved_owner;
            self.domain_slots[moved_owner.0 as usize][moved_owner.1 as usize] = c_removed;
        }
        true
    }

    /// Rebuilds the slot mapping from scratch and marks every slot dirty
    /// — the sound fallback whenever incremental bookkeeping cannot be
    /// trusted.
    fn resync(&mut self, domains: &[&[Bubble]]) {
        self.owners.clear();
        self.domain_slots = domains
            .iter()
            .enumerate()
            .map(|(d, dom)| {
                (0..dom.len())
                    .map(|j| {
                        self.owners.push((d as u32, j as u32));
                        self.owners.len() - 1
                    })
                    .collect()
            })
            .collect();
        self.cache.reset(self.owners.len());
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
