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
//! identity tree keeps ranges only, next to the plot's point ids and a
//! [`SlotTable`]: each plotted point's position, keyed by its `(domain,
//! store slot)`. **Precondition:** a point's id is a function of its key
//! that is injective and the same every epoch (debug builds check that
//! ids are unique).
//!
//! * **Join.** The new and previous tables are walked side by side, one
//!   lookup per slot, giving every new position its old position and
//!   every old position its new one (or a "gone" sentinel for inserted
//!   and deleted points). Equal keys are equal ids, so this is the
//!   id-equality join: a slot freed and reused by a new point between
//!   epochs joins as the same point.
//! * **Unchanged check.** A matched cluster kept its members iff the two
//!   ranges have equal sizes and every point of the new range came from
//!   the old range — the join is one-to-one, so no sets are compared.
//! * **Membership changes.** A changed cluster's `added` points are the
//!   positions of its new range whose old position lies outside its old
//!   range; its `removed` points are the positions of its old range whose
//!   new position lies outside its new range.
//! * **Votes and retirements.** A new child's votes scan its range's old
//!   positions, each located among the old children's sorted, disjoint
//!   ranges by binary search; a dead old cluster scans its old range's
//!   new positions against the new children's ranges the same way.
//! * **Payloads.** A set of positions is put in id order without a
//!   comparison sort: its keys are marked in a bitmap over the slot
//!   table, which is read back in key order (see `IdSorter`). Ids
//!   increase with the key under both of the engine's id maps; under any
//!   other map the set is sorted afterwards.
//!
//! One epoch costs `O(slots)` for the join plus `O(depth · n)` of linear
//! scans and `O(k + slots / 64)` per emitted payload of `k` ids — no sort
//! of the plot and no point-id hash map. `deltas/reference.rs` keeps the
//! earlier sort-and-hash diff, with its full-membership payloads, as a
//! test oracle the positional one must match exactly.

use idb_clustering::{ClusterNode, ReachabilityPlot};
use std::cell::Cell;
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
    /// A surviving cluster whose membership changed. Carries the change,
    /// not the new membership: the new membership is the previous one
    /// plus `added`, minus `removed`. At least one of the two is
    /// non-empty.
    MembershipChanged {
        /// The cluster whose membership changed.
        id: ClusterId,
        /// Sorted point ids that joined the cluster; none was a member.
        added: Vec<u64>,
        /// Sorted point ids that left the cluster; each was a member.
        removed: Vec<u64>,
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
/// [`IdTree`] derives them from its plot on demand.
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
    /// The epoch's point ids, by plot position.
    ids: Vec<u64>,
    /// The epoch's plot positions, by `(domain, store slot)`.
    slots: SlotTable,
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
    /// node's membership, `O(depth · n + nodes · slots / 64)`; the epoch
    /// itself never calls it.
    pub fn canonical(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        let mut sorter = IdSorter::new(&self.slots, &self.ids);
        let mut out = Vec::new();
        self.walk(|node, parent| {
            let (start, end) = node.range;
            out.push((node.id, parent, sorter.sorted(start..end)));
        });
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

/// "No such position" sentinel of the join.
const NONE: usize = usize::MAX;

/// One epoch's plot positions, direct-addressed by `(domain, store
/// slot)`: domain `d`'s slots are the keys `starts[d]..starts[d + 1]`,
/// and a key with no point in the plot maps to [`EMPTY`]. Domains may
/// change their slot count, and their number, between epochs. Keys and
/// positions are stored as `u32`, half the memory traffic of `usize`.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable {
    starts: Vec<usize>,
    /// Per key: the plot position, or [`EMPTY`].
    pos: Vec<u32>,
    /// Per plot position: its key.
    keys: Vec<u32>,
}

/// An unused key of a [`SlotTable`].
const EMPTY: u32 = u32::MAX;

impl SlotTable {
    /// An empty table for a plot of `len` points, with room for
    /// `bounds[d]` slots in domain `d`.
    ///
    /// # Panics
    /// Panics if the slots or the points number `u32::MAX` or more.
    pub fn new(bounds: impl IntoIterator<Item = usize>, len: usize) -> Self {
        let mut starts = vec![0];
        let mut end = 0;
        for bound in bounds {
            end += bound;
            starts.push(end);
        }
        assert!(
            end < EMPTY as usize && len < EMPTY as usize,
            "a slot table indexes keys and positions as u32"
        );
        Self {
            starts,
            pos: vec![EMPTY; end],
            keys: vec![EMPTY; len],
        }
    }

    /// A recorder that fills the table while the plot is laid out.
    pub fn recorder(&mut self) -> SlotRecorder<'_> {
        SlotRecorder {
            starts: &self.starts,
            pos: Cell::from_mut(&mut self.pos[..]).as_slice_of_cells(),
            keys: Cell::from_mut(&mut self.keys[..]).as_slice_of_cells(),
            next: Cell::new(0),
        }
    }

    fn domains(&self) -> usize {
        self.starts.len() - 1
    }

    fn domain(&self, d: usize) -> &[u32] {
        &self.pos[self.starts[d]..self.starts[d + 1]]
    }
}

/// Fills a [`SlotTable`] in plot order: the `k`-th call to
/// [`note`](Self::note) records plot position `k` under its key. Shared
/// by reference, so the plot's member iterators can each hold it.
pub(crate) struct SlotRecorder<'a> {
    starts: &'a [usize],
    pos: &'a [Cell<u32>],
    keys: &'a [Cell<u32>],
    next: Cell<u32>,
}

impl SlotRecorder<'_> {
    /// Records the next plot position under `(domain, slot)`.
    pub fn note(&self, domain: u32, slot: u32) {
        let d = domain as usize;
        let key = self.starts[d] + slot as usize;
        debug_assert!(key < self.starts[d + 1], "slot outside its domain's bound");
        let pos = self.next.get();
        self.pos[key].set(pos);
        self.keys[pos as usize].set(key as u32);
        self.next.set(pos + 1);
    }
}

/// Puts sets of one plot's positions in id order without a comparison
/// sort: a set's keys are marked in a bitmap over the slot table, which
/// is read back in key order — `O(k + slots / 64)` for `k` positions.
struct IdSorter<'a> {
    slots: &'a SlotTable,
    ids: &'a [u64],
    /// All zero between calls.
    bits: Vec<u64>,
}

impl<'a> IdSorter<'a> {
    fn new(slots: &'a SlotTable, ids: &'a [u64]) -> Self {
        Self {
            slots,
            ids,
            bits: vec![0; slots.pos.len().div_ceil(64)],
        }
    }

    /// The ids at `positions` (distinct plot positions), sorted.
    fn sorted(&mut self, positions: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let (mut count, mut lo, mut hi) = (0, usize::MAX, 0);
        for p in positions {
            let key = self.slots.keys[p] as usize;
            self.bits[key / 64] |= 1 << (key % 64);
            count += 1;
            lo = lo.min(key / 64);
            hi = hi.max(key / 64 + 1);
        }
        let mut out = Vec::with_capacity(count);
        for w in lo..hi {
            let mut word = std::mem::take(&mut self.bits[w]);
            while word != 0 {
                let key = w * 64 + word.trailing_zeros() as usize;
                out.push(self.ids[self.slots.pos[key] as usize]);
                word &= word - 1;
            }
        }
        if !out.is_sorted() {
            // An id map that does not increase with the key.
            out.sort_unstable();
        }
        out
    }
}

/// Walks two epochs' slot tables side by side into `(old_of_new,
/// new_of_old)`: each plot position's position in the other epoch's
/// plot, or [`NONE`] for a point only one epoch has.
fn join(old: &SlotTable, new: &SlotTable) -> (Vec<usize>, Vec<usize>) {
    let mut old_of_new = vec![NONE; new.keys.len()];
    let mut new_of_old = vec![NONE; old.keys.len()];
    for d in 0..old.domains().min(new.domains()) {
        for (&op, &np) in old.domain(d).iter().zip(new.domain(d)) {
            if op != EMPTY && np != EMPTY {
                old_of_new[np as usize] = op as usize;
                new_of_old[op as usize] = np as usize;
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

/// The positions of `range` outside the sorted, disjoint sub-ranges
/// `holes`.
fn outside(
    range: (usize, usize),
    holes: impl Iterator<Item = (usize, usize)>,
) -> impl Iterator<Item = usize> {
    let mut at = range.0;
    holes
        .chain([(range.1, range.1)])
        .flat_map(move |(start, end)| {
            let gap = at..start;
            at = end;
            gap
        })
}

/// Whether `pos` lies in the half-open `range`; never for [`NONE`].
fn inside(range: (usize, usize), pos: usize) -> bool {
    range.0 <= pos && pos < range.1
}

/// The four delta buckets of one epoch, concatenated in emission order:
/// removals (old-tree postorder) → splits → births (new-tree preorder) →
/// membership changes (preorder; `None` holds the place of a matched
/// cluster whose membership did not change).
#[derive(Debug, Default)]
struct DiffOut {
    removals: Vec<ClusterDelta>,
    splits: Vec<ClusterDelta>,
    born: Vec<ClusterDelta>,
    membership: Vec<Option<ClusterDelta>>,
}

/// Diffs the previous epoch's identity tree against the freshly extracted
/// tree, whose plot positions `slots` holds. Returns the new identity
/// tree and the epoch's delta stream.
///
/// Plot ids must be unique — they are point ids; debug builds check it.
pub(crate) fn diff_trees(
    prev: Option<&IdTree>,
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    slots: SlotTable,
    next_id: &mut u64,
) -> (IdTree, Vec<ClusterDelta>) {
    let ids: Vec<u64> = plot.entries().iter().map(|e| e.id).collect();
    debug_assert!(
        slots.keys.len() == ids.len()
            && slots
                .keys
                .iter()
                .enumerate()
                .all(|(p, &k)| slots.pos.get(k as usize) == Some(&(p as u32))),
        "one slot per plot position"
    );
    debug_assert!(
        {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] < w[1])
        },
        "plot ids must be unique"
    );
    let (old_of_new, new_of_old) =
        prev.map_or_else(Default::default, |old| join(&old.slots, &slots));
    let mut diff = Diff {
        old_of_new,
        new_of_old,
        next_id,
        out: DiffOut::default(),
        new_ids: IdSorter::new(&slots, &ids),
        old_ids: prev.map(|old| IdSorter::new(&old.slots, &old.ids)),
    };
    let root = match prev {
        None => diff.fresh(tree, None),
        Some(old) => diff.matched(&old.root, tree).0,
    };
    let out = diff.out;
    let mut deltas = out.removals;
    deltas.extend(out.splits);
    deltas.extend(out.born);
    deltas.extend(out.membership.into_iter().flatten());
    (IdTree { root, ids, slots }, deltas)
}

/// One epoch's diff state: the position join against the previous plot,
/// the id counter, the emitted deltas, and each plot's [`IdSorter`] for
/// the payloads.
struct Diff<'a> {
    /// Per new plot position: the point's previous-epoch position.
    old_of_new: Vec<usize>,
    /// Per previous-epoch plot position: the point's new position.
    new_of_old: Vec<usize>,
    next_id: &'a mut u64,
    out: DiffOut,
    new_ids: IdSorter<'a>,
    /// `None` in the engine's first epoch.
    old_ids: Option<IdSorter<'a>>,
}

impl Diff<'_> {
    /// Assigns fresh ids to a subtree with no previous-epoch counterpart,
    /// emitting `Born` in preorder (parents before children).
    fn fresh(&mut self, tree: &ClusterNode, parent: Option<ClusterId>) -> IdNode {
        let id = ClusterId(*self.next_id);
        *self.next_id += 1;
        let (start, end) = tree.range;
        self.out.born.push(ClusterDelta::Born {
            id,
            parent,
            members: self.new_ids.sorted(start..end),
        });
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
    /// old ones. Returns the new identity node, the positions the cluster
    /// gained (in the new plot) and the positions it lost (in the old).
    ///
    /// A matched child's old range lies inside `old`'s and its new range
    /// inside `new`'s, so a point this cluster gained or lost inside a
    /// matched child's range was gained or lost by that child too: the
    /// sets are filtered up from the children's, and only positions
    /// outside every matched child are scanned here.
    fn matched(&mut self, old: &IdNode, new: &ClusterNode) -> (IdNode, Vec<usize>, Vec<usize>) {
        // Membership changes are emitted in preorder: hold this cluster's
        // place until its children are diffed.
        let slot = self.out.membership.len();
        self.out.membership.push(None);

        // Vote: each new child's points, by the old child that held them
        // (runs of points mostly share one, so the last is tried first).
        // Candidate (overlap, old child, new child) triples, strongest
        // first; ties toward the smaller (older) id, then the leftmost new
        // child. Greedy one-to-one assignment.
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        let mut votes = vec![0usize; old.children.len()];
        for (ncp, nc) in new.children.iter().enumerate() {
            votes.fill(0);
            // The old child that held the current run of points, its
            // range, and the run's length.
            let (mut last, mut held, mut run) = (0, (0, 0), 0);
            for &op in &self.old_of_new[nc.range.0..nc.range.1] {
                if inside(held, op) {
                    run += 1;
                    continue;
                }
                if run > 0 {
                    votes[last] += run;
                }
                (last, held, run) = match owner(&old.children, op) {
                    Some(ocp) => (ocp, old.children[ocp].range, 1),
                    None => (0, (0, 0), 0),
                };
            }
            if run > 0 {
                votes[last] += run;
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
        let (o, n) = (old.range, new.range);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let mut id_children = Vec::with_capacity(new.children.len());
        for (ncp, nc) in new.children.iter().enumerate() {
            id_children.push(match new_match[ncp] {
                Some(ocp) => {
                    let (child, gained, lost) = self.matched(&old.children[ocp], nc);
                    added.extend(
                        gained
                            .into_iter()
                            .filter(|&p| !inside(o, self.old_of_new[p])),
                    );
                    removed.extend(lost.into_iter().filter(|&p| !inside(n, self.new_of_old[p])));
                    child
                }
                None => self.fresh(nc, Some(old.id)),
            });
        }
        let matched_new = new.children.iter().zip(&new_match);
        let matched_old = old.children.iter().zip(&old_match);
        added.extend(
            outside(
                n,
                matched_new
                    .filter(|(_, m)| m.is_some())
                    .map(|(c, _)| c.range),
            )
            .filter(|&p| !inside(o, self.old_of_new[p])),
        );
        removed.extend(
            outside(
                o,
                matched_old
                    .filter(|(_, m)| m.is_some())
                    .map(|(c, _)| c.range),
            )
            .filter(|&p| !inside(n, self.new_of_old[p])),
        );
        if !added.is_empty() || !removed.is_empty() {
            let old_ids = self.old_ids.as_mut();
            self.out.membership[slot] = Some(ClusterDelta::MembershipChanged {
                id: old.id,
                added: self.new_ids.sorted(added.iter().copied()),
                removed: old_ids
                    .expect("a matched node has a previous epoch")
                    .sorted(removed.iter().copied()),
            });
        }

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

        let node = IdNode {
            id: old.id,
            range: n,
            children: id_children,
        };
        (node, added, removed)
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
            ClusterDelta::MembershipChanged { id, added, removed } => {
                if let Some((_, m)) = self.nodes.get_mut(id) {
                    *m = apply_change(m, added, removed);
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

/// `members` plus `added`, minus `removed`, all three sorted, with
/// `added` disjoint from `members` and `removed` a subset of it: one
/// merge.
fn apply_change(members: &[u64], added: &[u64], removed: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity((members.len() + added.len()).saturating_sub(removed.len()));
    let (mut added, mut removed) = (added.iter().peekable(), removed.iter().peekable());
    for &m in members {
        if removed.next_if_eq(&&m).is_some() {
            continue;
        }
        while let Some(&a) = added.next_if(|&&a| a < m) {
            out.push(a);
        }
        out.push(m);
    }
    out.extend(added);
    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(
        prev: Option<&IdTree>,
        tree: &ClusterNode,
        plot: &ReachabilityPlot,
        next: &mut u64,
    ) -> (IdTree, Vec<ClusterDelta>) {
        diff_trees(prev, tree, plot, SlotTable::of_plot(plot), next)
    }

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
        let (id_tree, deltas) = diff(None, &tree, &plot, &mut next);
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
        let (first, born) = diff(None, &tree, &plot, &mut next);
        assert_eq!(born.len(), 3);
        let (second, deltas) = diff(Some(&first), &tree, &plot, &mut next);
        assert!(deltas.is_empty(), "{deltas:?}");
        assert_eq!(second.canonical(), first.canonical());
    }

    #[test]
    fn a_split_leaf_reports_split_and_births() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let flat = node((0, 6), vec![]);
        let mut next = 0;
        let (first, _) = diff(None, &flat, &plot, &mut next);
        let split = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let (second, deltas) = diff(Some(&first), &split, &plot, &mut next);
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
        let (first, _) = diff(None, &tree1, &plot1, &mut next);

        // Same ids, boundary shifted: point 3 now in the left region.
        let tree2 = node((0, 6), vec![leaf((0, 4)), leaf((4, 6))]);
        let (second, deltas) = diff(Some(&first), &tree2, &plot1, &mut next);
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
        let (first, _) = diff(None, &tree1, &plot1, &mut next);

        // The right cluster's region merges into the left: one child
        // covering everything. Its points survive inside the survivor.
        let tree2 = node((0, 6), vec![leaf((0, 6))]);
        let (second, deltas) = diff(Some(&first), &tree2, &plot1, &mut next);
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
        let (first, _) = diff(None, &tree1, &plot1, &mut next);

        // Points 3..6 are gone entirely.
        let plot2 = plot_of(&[f64::INFINITY, 1.0, 1.0]);
        let tree2 = node((0, 3), vec![leaf((0, 3))]);
        let (_, deltas) = diff(Some(&first), &tree2, &plot2, &mut next);
        assert!(deltas.iter().any(
            |d| matches!(d, ClusterDelta::Retired { id } if *id == first.root.children[1].id)
        ));
    }

    #[test]
    fn replay_reconstructs_across_structural_epochs() {
        let mut next = 0;
        let mut replica = TreeReplica::new();
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let (mut id_tree, deltas) = diff(None, &node((0, 6), vec![]), &plot1, &mut next);
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
            let (nt, deltas) = diff(Some(&id_tree), tree, plot, &mut next);
            for d in &deltas {
                replica.apply(d);
            }
            id_tree = nt;
            assert_eq!(replica.snapshot(), id_tree.canonical());
        }
    }
}
