//! Typed cluster deltas and the cross-epoch tree diff that emits them.
//!
//! Every epoch the delta engine re-extracts the cluster tree (reusing
//! unchanged components) and diffs it against the previous epoch's tree
//! to produce a stream of [`ClusterDelta`]s with **stable cluster ids**:
//!
//! * the root always carries id 0, for the lifetime of the engine;
//! * a cluster that persists across epochs keeps its id — "persists" is
//!   decided by *point-overlap voting*: under a matched pair of parents,
//!   each new child is matched to the old child contributing the most of
//!   its points (ties broken toward the smaller old id, then the
//!   leftmost new child), each old child matched at most once;
//! * unmatched new clusters are born with fresh, never-reused ids;
//! * unmatched old clusters are retired — as [`ClusterDelta::Absorbed`]
//!   naming the sibling that received the plurality of their points
//!   (ties toward the smaller id), or as [`ClusterDelta::Retired`] when
//!   none of their points survive under the parent.
//!
//! The diff is a pure function of the two trees and their memberships —
//! no hash-map iteration order, no RNG — so the delta stream is as
//! deterministic as the trees themselves. Replaying a recorded stream
//! into a [`TreeReplica`] reconstructs the engine's final `(id → parent,
//! members)` view byte for byte; that equivalence is the subscription
//! suite's core assertion.
//!
//! # How the diff runs
//!
//! Every cluster is a contiguous range of its epoch's plot, so the
//! identity tree keeps ranges only, next to the epoch's `(point id,
//! position)` pairs sorted by id. **Precondition:** plot ids are unique
//! (they are point ids; debug builds assert it).
//!
//! * **Join.** The new pairs are sorted once and merge-joined against
//!   the previous epoch's, giving every new position its old position
//!   and every old position its new one (or a "gone" sentinel for
//!   inserted and deleted points).
//! * **Unchanged check.** A matched cluster kept its members iff the two
//!   ranges have equal sizes and every point of the new range came from
//!   the old range — the join is one-to-one, so no sets are compared.
//! * **Votes and retirements.** A new child's votes scan its range's old
//!   positions, each located among the old children's sorted, disjoint
//!   ranges by binary search; a dead old cluster scans its old range's
//!   new positions against the new children's ranges the same way.
//! * **Payloads.** Sorted member lists are built only for `Born` and
//!   `MembershipChanged`, all at once after the tree walk, by one pass
//!   over the id-sorted pairs (see `memberships`).
//!
//! One epoch costs `O(n log n)` for the sort plus `O(depth · n)` of
//! linear scans and the size of the emitted payloads — no per-node sort
//! and no point-id hash map. `deltas/reference.rs` keeps the earlier
//! sort-and-hash diff as a test oracle the positional one must match
//! exactly.

use idb_clustering::{ClusterNode, ReachabilityPlot};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, HashMap};

/// A stable cluster identity, valid across epochs for as long as the
/// cluster persists. Ids are never reused; the root is always `ClusterId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u64);

/// One typed change to the cluster hierarchy, emitted by the epoch diff.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterDelta {
    /// A cluster that did not exist in the previous epoch. Carries its
    /// full (sorted) membership; `parent` is `None` only for the root in
    /// the engine's first epoch.
    Born {
        /// The new cluster's id.
        id: ClusterId,
        /// The parent cluster, already known to subscribers.
        parent: Option<ClusterId>,
        /// Sorted point ids in the cluster's plot region.
        members: Vec<u64>,
    },
    /// A surviving cluster that was a leaf and now has sub-clusters.
    /// Advisory: the children are separately announced as
    /// [`ClusterDelta::Born`] events in the same epoch.
    Split {
        /// The cluster that split.
        id: ClusterId,
        /// Its new sub-clusters, left to right.
        children: Vec<ClusterId>,
    },
    /// A cluster that ended, with the plurality of its points surviving
    /// inside a sibling under the same parent.
    Absorbed {
        /// The ended cluster.
        id: ClusterId,
        /// The cluster that received most of its points.
        into: ClusterId,
    },
    /// A cluster that ended with none of its points surviving under its
    /// parent (e.g. the points were deleted).
    Retired {
        /// The ended cluster.
        id: ClusterId,
    },
    /// A surviving cluster whose membership changed. Carries the full new
    /// (sorted) membership.
    MembershipChanged {
        /// The cluster whose membership changed.
        id: ClusterId,
        /// The new sorted membership.
        members: Vec<u64>,
    },
}

impl ClusterDelta {
    /// The cluster this delta is about.
    #[must_use]
    pub fn subject(&self) -> ClusterId {
        match self {
            ClusterDelta::Born { id, .. }
            | ClusterDelta::Split { id, .. }
            | ClusterDelta::Absorbed { id, .. }
            | ClusterDelta::Retired { id }
            | ClusterDelta::MembershipChanged { id, .. } => *id,
        }
    }
}

/// The identity-carrying mirror of one extracted cluster tree: the same
/// shape and plot ranges as the epoch's [`ClusterNode`] tree, plus the
/// stable id of every node. Memberships are not stored; the owning
/// [`IdTree`] derives them from its id-sorted plot pairs on demand.
#[derive(Debug, Clone)]
pub(crate) struct IdNode {
    pub id: ClusterId,
    /// Half-open range `[start, end)` of the epoch's plot.
    pub range: (usize, usize),
    pub children: Vec<IdNode>,
}

/// One epoch's identity tree together with the plot it indexes: the
/// state the next epoch's diff joins against.
#[derive(Debug, Clone)]
pub(crate) struct IdTree {
    pub root: IdNode,
    /// The epoch's `(point id, plot position)` pairs, sorted by id.
    by_id: Vec<(u64, usize)>,
}

impl IdTree {
    /// `(id, parent)` pairs over the whole tree.
    pub fn parents(&self) -> HashMap<ClusterId, Option<ClusterId>> {
        let mut out = HashMap::new();
        self.walk(|node, parent| {
            out.insert(node.id, parent);
        });
        out
    }

    /// The canonical `(id, parent, members)` view, sorted by id — the
    /// representation [`TreeReplica::snapshot`] reconstructs. Builds every
    /// node's membership, `O(depth · n)`; the epoch itself never calls it.
    pub fn canonical(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        let mut nodes = Vec::new();
        let mut ranges = Vec::new();
        self.walk(|node, parent| {
            nodes.push((node.id, parent));
            ranges.push(node.range);
        });
        let mut out: Vec<_> = nodes
            .into_iter()
            .zip(memberships(&self.by_id, &ranges))
            .map(|((id, parent), members)| (id, parent, members))
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Calls `visit(node, parent)` on every node in preorder.
    fn walk(&self, mut visit: impl FnMut(&IdNode, Option<ClusterId>)) {
        fn go(
            node: &IdNode,
            parent: Option<ClusterId>,
            visit: &mut impl FnMut(&IdNode, Option<ClusterId>),
        ) {
            visit(node, parent);
            for c in &node.children {
                go(c, Some(node.id), visit);
            }
        }
        go(&self.root, None, &mut visit);
    }
}

/// "No such position / range" sentinel of the join and membership
/// tables.
const NONE: usize = usize::MAX;

/// Sorted point ids of every plot region in `ranges`, in one pass over
/// the id-sorted `(id, position)` pairs: no per-region sort.
///
/// The regions must be nodes of one cluster tree, so any two are nested
/// or disjoint. Each position is mapped to the innermost region holding
/// it, and each region to the innermost region strictly enclosing it;
/// walking that chain from every pair, in id order, appends the id to
/// each region holding its position. Costs `O(n + Σ |region|)`.
fn memberships(by_id: &[(u64, usize)], ranges: &[(usize, usize)]) -> Vec<Vec<u64>> {
    // Outer regions first (by start, longer first), so inner ones paint
    // over them and find their enclosing region already painted.
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_unstable_by_key(|&k| (ranges[k].0, Reverse(ranges[k].1)));
    let mut innermost = vec![NONE; by_id.len()];
    let mut up = vec![NONE; ranges.len()];
    for k in order {
        let (start, end) = ranges[k];
        if start < end {
            up[k] = innermost[start];
            innermost[start..end].fill(k);
        }
    }
    let mut out: Vec<Vec<u64>> = ranges
        .iter()
        .map(|&(start, end)| Vec::with_capacity(end - start))
        .collect();
    for &(id, pos) in by_id {
        let mut k = innermost[pos];
        while k != NONE {
            out[k].push(id);
            k = up[k];
        }
    }
    out
}

/// Merge-joins two id-sorted `(id, position)` lists into
/// `(old_of_new, new_of_old)`: each plot position's position in the
/// other epoch's plot, or [`NONE`] for a point only one epoch has.
fn join(old: &[(u64, usize)], new: &[(u64, usize)]) -> (Vec<usize>, Vec<usize>) {
    let mut old_of_new = vec![NONE; new.len()];
    let mut new_of_old = vec![NONE; old.len()];
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        let ((old_id, op), (new_id, np)) = (old[i], new[j]);
        match old_id.cmp(&new_id) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                old_of_new[np] = op;
                new_of_old[op] = np;
                i += 1;
                j += 1;
            }
        }
    }
    (old_of_new, new_of_old)
}

/// The index of the node among `nodes` (left to right, disjoint ranges)
/// whose range holds position `pos`; `None` for a gap or [`NONE`].
fn owner(nodes: &[IdNode], pos: usize) -> Option<usize> {
    let i = nodes.partition_point(|n| n.range.1 <= pos);
    (i < nodes.len() && nodes[i].range.0 <= pos).then_some(i)
}

/// The four delta buckets of one epoch, concatenated in emission order:
/// removals (old-tree postorder) → splits → births (new-tree preorder) →
/// membership changes.
#[derive(Debug, Default)]
struct DiffOut {
    removals: Vec<ClusterDelta>,
    splits: Vec<ClusterDelta>,
    born: Vec<ClusterDelta>,
    membership: Vec<ClusterDelta>,
}

/// Diffs the previous epoch's identity tree against the freshly extracted
/// tree. Returns the new identity tree and the epoch's delta stream.
///
/// Plot ids must be unique — they are point ids; debug builds check it.
pub(crate) fn diff_trees(
    prev: Option<&IdTree>,
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    next_id: &mut u64,
) -> (IdTree, Vec<ClusterDelta>) {
    let mut by_id: Vec<(u64, usize)> = plot
        .entries()
        .iter()
        .enumerate()
        .map(|(pos, e)| (e.id, pos))
        .collect();
    by_id.sort_unstable_by_key(|&(id, _)| id);
    debug_assert!(
        by_id.windows(2).all(|w| w[0].0 < w[1].0),
        "plot ids must be unique"
    );
    let (old_of_new, new_of_old) =
        prev.map_or_else(Default::default, |old| join(&old.by_id, &by_id));
    let mut diff = Diff {
        old_of_new,
        new_of_old,
        next_id,
        out: DiffOut::default(),
        born_ranges: Vec::new(),
        changed_ranges: Vec::new(),
    };
    let root = match prev {
        None => diff.fresh(tree, None),
        Some(old) => diff.matched(&old.root, tree),
    };

    // Fill the membership payloads, births then changes, in one pass.
    let Diff {
        mut out,
        born_ranges,
        changed_ranges,
        ..
    } = diff;
    let ranges: Vec<(usize, usize)> = born_ranges.into_iter().chain(changed_ranges).collect();
    let payloads = out.born.iter_mut().chain(&mut out.membership);
    for (delta, list) in payloads.zip(memberships(&by_id, &ranges)) {
        if let ClusterDelta::Born { members, .. }
        | ClusterDelta::MembershipChanged { members, .. } = delta
        {
            *members = list;
        }
    }

    let mut deltas = out.removals;
    deltas.extend(out.splits);
    deltas.extend(out.born);
    deltas.extend(out.membership);
    (IdTree { root, by_id }, deltas)
}

/// One epoch's diff state: the position join against the previous plot,
/// the id counter and the emitted deltas. `Born` and `MembershipChanged`
/// deltas are emitted with empty member lists; their plot ranges are
/// recorded alongside, in emission order, and [`diff_trees`] fills them.
struct Diff<'a> {
    /// Per new plot position: the point's previous-epoch position.
    old_of_new: Vec<usize>,
    /// Per previous-epoch plot position: the point's new position.
    new_of_old: Vec<usize>,
    next_id: &'a mut u64,
    out: DiffOut,
    born_ranges: Vec<(usize, usize)>,
    changed_ranges: Vec<(usize, usize)>,
}

impl Diff<'_> {
    /// Assigns fresh ids to a subtree with no previous-epoch counterpart,
    /// emitting `Born` in preorder (parents before children).
    fn fresh(&mut self, tree: &ClusterNode, parent: Option<ClusterId>) -> IdNode {
        let id = ClusterId(*self.next_id);
        *self.next_id += 1;
        self.out.born.push(ClusterDelta::Born {
            id,
            parent,
            members: Vec::new(),
        });
        self.born_ranges.push(tree.range);
        let children = tree
            .children
            .iter()
            .map(|c| self.fresh(c, Some(id)))
            .collect();
        IdNode {
            id,
            range: tree.range,
            children,
        }
    }

    /// Diffs one matched `(old, new)` pair: carries the old id over,
    /// matches the children by point-overlap voting, recurses into
    /// matched pairs, births unmatched new children and retires unmatched
    /// old ones.
    fn matched(&mut self, old: &IdNode, new: &ClusterNode) -> IdNode {
        // Equal sizes and every new point was inside the old range: the
        // join is one-to-one, so the memberships are equal.
        let (o, n) = (old.range, new.range);
        let unchanged = n.1 - n.0 == o.1 - o.0
            && self.old_of_new[n.0..n.1]
                .iter()
                .all(|&op| o.0 <= op && op < o.1);
        if !unchanged {
            self.out.membership.push(ClusterDelta::MembershipChanged {
                id: old.id,
                members: Vec::new(),
            });
            self.changed_ranges.push(n);
        }

        // Vote: each new child's points, by the old child that held them.
        // Candidate (overlap, old child, new child) triples, strongest
        // first; ties toward the smaller (older) id, then the leftmost new
        // child. Greedy one-to-one assignment.
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        let mut votes = vec![0usize; old.children.len()];
        for (ncp, nc) in new.children.iter().enumerate() {
            votes.fill(0);
            for &op in &self.old_of_new[nc.range.0..nc.range.1] {
                if let Some(ocp) = owner(&old.children, op) {
                    votes[ocp] += 1;
                }
            }
            for (ocp, &v) in votes.iter().enumerate() {
                if v > 0 {
                    candidates.push((v, ocp, ncp));
                }
            }
        }
        candidates.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(old.children[a.1].id.cmp(&old.children[b.1].id))
                .then(a.2.cmp(&b.2))
        });
        let mut old_match: Vec<Option<usize>> = vec![None; old.children.len()]; // ocp -> ncp
        let mut new_match: Vec<Option<usize>> = vec![None; new.children.len()]; // ncp -> ocp
        for (_, ocp, ncp) in candidates {
            if old_match[ocp].is_none() && new_match[ncp].is_none() {
                old_match[ocp] = Some(ncp);
                new_match[ncp] = Some(ocp);
            }
        }

        // Build the new children left to right: matched pairs recurse, the
        // rest are born fresh.
        let id_children: Vec<IdNode> = new
            .children
            .iter()
            .enumerate()
            .map(|(ncp, nc)| match new_match[ncp] {
                Some(ocp) => self.matched(&old.children[ocp], nc),
                None => self.fresh(nc, Some(old.id)),
            })
            .collect();

        // Retire unmatched old children (whole subtrees, postorder) now that
        // every surviving new child id is known.
        for (oc, m) in old.children.iter().zip(&old_match) {
            if m.is_none() {
                self.retire(oc, &id_children);
            }
        }

        // A leaf that grew children split.
        if old.children.is_empty() && !id_children.is_empty() {
            self.out.splits.push(ClusterDelta::Split {
                id: old.id,
                children: id_children.iter().map(|c| c.id).collect(),
            });
        }

        IdNode {
            id: old.id,
            range: n,
            children: id_children,
        }
    }

    /// Emits `Absorbed`/`Retired` for a dead old subtree, children first.
    /// A dead cluster is absorbed into the new sibling (one of `dests`)
    /// now holding the plurality of its points, ties toward the smaller
    /// id, or retired when none of its points is under any of them.
    fn retire(&mut self, node: &IdNode, dests: &[IdNode]) {
        for c in &node.children {
            self.retire(c, dests);
        }
        let mut counts = vec![0usize; dests.len()];
        for &np in &self.new_of_old[node.range.0..node.range.1] {
            if let Some(i) = owner(dests, np) {
                counts[i] += 1;
            }
        }
        let best = dests.iter().zip(counts).filter(|&(_, n)| n > 0).fold(
            None::<(ClusterId, usize)>,
            |acc, (d, n)| match acc {
                Some((id, m)) if m > n || (m == n && id < d.id) => acc,
                _ => Some((d.id, n)),
            },
        );
        self.out.removals.push(match best {
            Some((into, _)) => ClusterDelta::Absorbed { id: node.id, into },
            None => ClusterDelta::Retired { id: node.id },
        });
    }
}

/// A client-side mirror of the cluster hierarchy, driven purely by the
/// delta stream. Applying every delta of every epoch, in order, to an
/// empty replica reconstructs the engine's canonical `(id → parent,
/// members)` view exactly — the replayability contract of the
/// subscription API.
#[derive(Debug, Clone, Default)]
pub struct TreeReplica {
    nodes: BTreeMap<ClusterId, (Option<ClusterId>, Vec<u64>)>,
}

impl TreeReplica {
    /// An empty replica.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one delta.
    pub fn apply(&mut self, delta: &ClusterDelta) {
        match delta {
            ClusterDelta::Born {
                id,
                parent,
                members,
            } => {
                self.nodes.insert(*id, (*parent, members.clone()));
            }
            ClusterDelta::Absorbed { id, .. } | ClusterDelta::Retired { id } => {
                self.nodes.remove(id);
            }
            ClusterDelta::MembershipChanged { id, members } => {
                if let Some((_, m)) = self.nodes.get_mut(id) {
                    *m = members.clone();
                }
            }
            ClusterDelta::Split { .. } => {} // Advisory; births carry the state.
        }
    }

    /// Live clusters as `(id, parent, members)`, sorted by id — directly
    /// comparable to the engine's canonical view.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        self.nodes
            .iter()
            .map(|(&id, (parent, members))| (id, *parent, members.clone()))
            .collect()
    }

    /// Number of live clusters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no cluster is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn plot_of(reach: &[f64]) -> ReachabilityPlot {
        let mut p = ReachabilityPlot::new();
        for (i, &r) in reach.iter().enumerate() {
            p.push(i as u64, r);
        }
        p
    }

    fn leaf(range: (usize, usize)) -> ClusterNode {
        ClusterNode {
            range,
            split_value: None,
            children: Vec::new(),
        }
    }

    fn node(range: (usize, usize), children: Vec<ClusterNode>) -> ClusterNode {
        ClusterNode {
            range,
            split_value: None,
            children,
        }
    }

    #[test]
    fn first_epoch_births_everything_in_preorder() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (id_tree, deltas) = diff_trees(None, &tree, &plot, &mut next);
        assert_eq!(id_tree.root.id, ClusterId(0));
        assert_eq!(
            deltas.iter().map(ClusterDelta::subject).collect::<Vec<_>>(),
            vec![ClusterId(0), ClusterId(1), ClusterId(2)]
        );
        assert!(deltas
            .iter()
            .all(|d| matches!(d, ClusterDelta::Born { .. })));
        let mut replica = TreeReplica::new();
        for d in &deltas {
            replica.apply(d);
        }
        assert_eq!(replica.snapshot(), id_tree.canonical());
    }

    #[test]
    fn stable_ids_survive_an_unchanged_epoch() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, born) = diff_trees(None, &tree, &plot, &mut next);
        assert_eq!(born.len(), 3);
        let (second, deltas) = diff_trees(Some(&first), &tree, &plot, &mut next);
        assert!(deltas.is_empty(), "{deltas:?}");
        assert_eq!(second.canonical(), first.canonical());
    }

    #[test]
    fn a_split_leaf_reports_split_and_births() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let flat = node((0, 6), vec![]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &flat, &plot, &mut next);
        let split = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let (second, deltas) = diff_trees(Some(&first), &split, &plot, &mut next);
        assert_eq!(second.root.id, ClusterId(0));
        let kinds: Vec<&ClusterDelta> = deltas.iter().collect();
        assert!(matches!(
            kinds[0],
            ClusterDelta::Split { id: ClusterId(0), children } if children.len() == 2
        ));
        assert!(matches!(kinds[1], ClusterDelta::Born { .. }));
        assert!(matches!(kinds[2], ClusterDelta::Born { .. }));
    }

    #[test]
    fn overlap_voting_keeps_ids_under_membership_drift() {
        // Two leaves; epoch 2 moves one point between them and keeps both.
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree1 = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &tree1, &plot1, &mut next);

        // Same ids, boundary shifted: point 3 now in the left region.
        let tree2 = node((0, 6), vec![leaf((0, 4)), leaf((4, 6))]);
        let (second, deltas) = diff_trees(Some(&first), &tree2, &plot1, &mut next);
        assert_eq!(second.root.children[0].id, first.root.children[0].id);
        assert_eq!(second.root.children[1].id, first.root.children[1].id);
        // Only membership changes, no births or removals.
        assert!(deltas
            .iter()
            .all(|d| matches!(d, ClusterDelta::MembershipChanged { .. })));
        assert_eq!(deltas.len(), 2);
    }

    #[test]
    fn a_vanished_cluster_is_absorbed_into_the_survivor() {
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree1 = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &tree1, &plot1, &mut next);

        // The right cluster's region merges into the left: one child
        // covering everything. Its points survive inside the survivor.
        let tree2 = node((0, 6), vec![leaf((0, 6))]);
        let (second, deltas) = diff_trees(Some(&first), &tree2, &plot1, &mut next);
        let survivor = second.root.children[0].id;
        assert_eq!(
            survivor, first.root.children[0].id,
            "plurality keeps the left id"
        );
        assert!(deltas.iter().any(|d| matches!(
            d,
            ClusterDelta::Absorbed { id, into } if *id == first.root.children[1].id && *into == survivor
        )));
    }

    #[test]
    fn a_cluster_of_deleted_points_is_retired() {
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree1 = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &tree1, &plot1, &mut next);

        // Points 3..6 are gone entirely.
        let plot2 = plot_of(&[f64::INFINITY, 1.0, 1.0]);
        let tree2 = node((0, 3), vec![leaf((0, 3))]);
        let (_, deltas) = diff_trees(Some(&first), &tree2, &plot2, &mut next);
        assert!(deltas.iter().any(
            |d| matches!(d, ClusterDelta::Retired { id } if *id == first.root.children[1].id)
        ));
    }

    #[test]
    fn replay_reconstructs_across_structural_epochs() {
        let mut next = 0;
        let mut replica = TreeReplica::new();
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let (mut id_tree, deltas) = diff_trees(None, &node((0, 6), vec![]), &plot1, &mut next);
        for d in &deltas {
            replica.apply(d);
        }

        let epochs: Vec<(ReachabilityPlot, ClusterNode)> = vec![
            (
                plot1.clone(),
                node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]),
            ),
            (
                plot1.clone(),
                node(
                    (0, 6),
                    vec![node((0, 3), vec![leaf((0, 1)), leaf((1, 3))]), leaf((3, 6))],
                ),
            ),
            (
                plot_of(&[f64::INFINITY, 1.0, 1.0]),
                node((0, 3), vec![leaf((0, 3))]),
            ),
        ];
        for (plot, tree) in &epochs {
            let (nt, deltas) = diff_trees(Some(&id_tree), tree, plot, &mut next);
            for d in &deltas {
                replica.apply(d);
            }
            id_tree = nt;
            assert_eq!(replica.snapshot(), id_tree.canonical());
        }
    }
}
