//! The positional diff against the sort-and-hash diff it replaced.
//!
//! [`ref_diff_trees`] is the earlier implementation kept as a test
//! oracle: every identity node stores its sorted membership, every
//! matched level re-sorts each child's plot region, votes and
//! retirements go through point-id hash maps, points are joined by id
//! equality, and a membership change carries the cluster's full new
//! membership. The production [`diff_trees`] must agree with it exactly
//! — the delta stream in emission order, the id counter and the
//! canonical view — at every epoch of random multi-epoch sequences, up
//! to the membership-change payload: each production change applied to
//! the cluster's previous membership must give the reference's full
//! list. The sequences cover inserts, deletes, moves and reshuffles
//! between plots, store slots freed and reused by new points, domains
//! that grow, shrink, appear and vanish, random nested trees with gaps,
//! single-child chains and root-only trees, and empty plots. Each
//! sequence also runs with slot keys whose order differs from the ids'.

use super::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl SlotTable {
    /// The table of a plot whose ids are `(domain << 32) | slot`, the key
    /// order of the engine's sharded id map.
    pub(crate) fn of_plot(plot: &ReachabilityPlot) -> Self {
        Self::keyed(plot, |id| ((id >> 32) as u32, id as u32))
    }

    /// The table of a plot under the `(domain, slot)` keys `key` gives
    /// its ids.
    pub(crate) fn keyed(plot: &ReachabilityPlot, key: impl Fn(u64) -> (u32, u32)) -> Self {
        let mut bounds: Vec<usize> = Vec::new();
        for e in plot.entries() {
            let (d, slot) = key(e.id);
            if bounds.len() <= d as usize {
                bounds.resize(d as usize + 1, 0);
            }
            bounds[d as usize] = bounds[d as usize].max(slot as usize + 1);
        }
        let mut table = Self::new(bounds, plot.len());
        let recorder = table.recorder();
        for e in plot.entries() {
            let (d, slot) = key(e.id);
            recorder.note(d, slot);
        }
        table
    }
}

/// The reference identity node: id plus sorted membership.
#[derive(Debug, Clone)]
struct RefNode {
    id: ClusterId,
    members: Vec<u64>,
    children: Vec<RefNode>,
}

impl RefNode {
    fn canonical(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        fn walk(
            node: &RefNode,
            parent: Option<ClusterId>,
            out: &mut Vec<(ClusterId, Option<ClusterId>, Vec<u64>)>,
        ) {
            out.push((node.id, parent, node.members.clone()));
            for c in &node.children {
                walk(c, Some(node.id), out);
            }
        }
        let mut out = Vec::new();
        walk(self, None, &mut out);
        out.sort_by_key(|(id, _, _)| *id);
        out
    }
}

fn region_members(plot: &ReachabilityPlot, range: (usize, usize)) -> Vec<u64> {
    let mut ids: Vec<u64> = plot.entries()[range.0..range.1]
        .iter()
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Membership changes as the earlier diff emitted them: each changed
/// cluster's id and full new membership.
type FullChanges = Vec<(ClusterId, Vec<u64>)>;

/// The reference's output buckets: [`DiffOut`]'s, except for the
/// membership changes.
#[derive(Debug, Default)]
struct RefOut {
    removals: Vec<ClusterDelta>,
    splits: Vec<ClusterDelta>,
    born: Vec<ClusterDelta>,
    membership: FullChanges,
}

/// The reference diff: its new tree, the stream's removals, splits and
/// births, and its membership changes (emitted after them).
fn ref_diff_trees(
    prev: Option<&RefNode>,
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    next_id: &mut u64,
) -> (RefNode, Vec<ClusterDelta>, FullChanges) {
    let mut out = RefOut::default();
    let root = match prev {
        None => ref_build_fresh(tree, plot, None, next_id, &mut out),
        Some(old) => ref_diff_node(old, tree, plot, next_id, &mut out),
    };
    let mut deltas = out.removals;
    deltas.extend(out.splits);
    deltas.extend(out.born);
    (root, deltas, out.membership)
}

fn ref_build_fresh(
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    parent: Option<ClusterId>,
    next_id: &mut u64,
    out: &mut RefOut,
) -> RefNode {
    let id = ClusterId(*next_id);
    *next_id += 1;
    let members = region_members(plot, tree.range);
    out.born.push(ClusterDelta::Born {
        id,
        parent,
        members: members.clone(),
    });
    let children = tree
        .children
        .iter()
        .map(|c| ref_build_fresh(c, plot, Some(id), next_id, out))
        .collect();
    RefNode {
        id,
        members,
        children,
    }
}

fn ref_diff_node(
    old: &RefNode,
    new: &ClusterNode,
    plot: &ReachabilityPlot,
    next_id: &mut u64,
    out: &mut RefOut,
) -> RefNode {
    let members = region_members(plot, new.range);
    if members != old.members {
        out.membership.push((old.id, members.clone()));
    }
    let mut point_owner: HashMap<u64, usize> = HashMap::new();
    for (ocp, oc) in old.children.iter().enumerate() {
        for &p in &oc.members {
            point_owner.insert(p, ocp);
        }
    }
    let new_members: Vec<Vec<u64>> = new
        .children
        .iter()
        .map(|c| region_members(plot, c.range))
        .collect();
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (ncp, nm) in new_members.iter().enumerate() {
        let mut votes = vec![0usize; old.children.len()];
        for p in nm {
            if let Some(&ocp) = point_owner.get(p) {
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
    let mut old_match: Vec<Option<usize>> = vec![None; old.children.len()];
    let mut new_match: Vec<Option<usize>> = vec![None; new.children.len()];
    for (_, ocp, ncp) in candidates {
        if old_match[ocp].is_none() && new_match[ncp].is_none() {
            old_match[ocp] = Some(ncp);
            new_match[ncp] = Some(ocp);
        }
    }
    let id_children: Vec<RefNode> = new
        .children
        .iter()
        .enumerate()
        .map(|(ncp, nc)| match new_match[ncp] {
            Some(ocp) => ref_diff_node(&old.children[ocp], nc, plot, next_id, out),
            None => ref_build_fresh(nc, plot, Some(old.id), next_id, out),
        })
        .collect();
    let mut point_dest: HashMap<u64, ClusterId> = HashMap::new();
    for (nm, idc) in new_members.iter().zip(&id_children) {
        for &p in nm {
            point_dest.insert(p, idc.id);
        }
    }
    for (ocp, oc) in old.children.iter().enumerate() {
        if old_match[ocp].is_none() {
            ref_retire_subtree(oc, &point_dest, out);
        }
    }
    if old.children.is_empty() && !id_children.is_empty() {
        out.splits.push(ClusterDelta::Split {
            id: old.id,
            children: id_children.iter().map(|c| c.id).collect(),
        });
    }
    RefNode {
        id: old.id,
        members,
        children: id_children,
    }
}

fn ref_retire_subtree(node: &RefNode, point_dest: &HashMap<u64, ClusterId>, out: &mut RefOut) {
    for c in &node.children {
        ref_retire_subtree(c, point_dest, out);
    }
    let mut counts: BTreeMap<ClusterId, usize> = BTreeMap::new();
    for p in &node.members {
        if let Some(&dest) = point_dest.get(p) {
            *counts.entry(dest).or_default() += 1;
        }
    }
    let best = counts
        .iter()
        .fold(None::<(ClusterId, usize)>, |acc, (&id, &n)| match acc {
            Some((_, m)) if m >= n => acc,
            _ => Some((id, n)),
        });
    out.removals.push(match best {
        Some((into, _)) => ClusterDelta::Absorbed { id: node.id, into },
        None => ClusterDelta::Retired { id: node.id },
    });
}

fn plot_of(ids: &[u64]) -> ReachabilityPlot {
    let mut plot = ReachabilityPlot::new();
    for &id in ids {
        plot.push(id, 1.0);
    }
    plot
}

fn node(range: (usize, usize), children: Vec<ClusterNode>) -> ClusterNode {
    ClusterNode {
        range,
        split_value: None,
        children,
    }
}

/// Store slots per domain, handed out as `PointStore` does: a freed slot
/// is reused, last freed first, before the domain's slot count grows.
/// Point ids are `(domain << 32) | slot`, as the sharded id map makes
/// them.
#[derive(Debug, Default)]
struct Slabs {
    next: Vec<u32>,
    free: Vec<Vec<u32>>,
}

impl Slabs {
    fn alloc(&mut self, domain: usize) -> u64 {
        if self.next.len() <= domain {
            self.next.resize(domain + 1, 0);
            self.free.resize(domain + 1, Vec::new());
        }
        let slot = self.free[domain].pop().unwrap_or_else(|| {
            self.next[domain] += 1;
            self.next[domain] - 1
        });
        ((domain as u64) << 32) | u64::from(slot)
    }

    fn release(&mut self, id: u64) {
        self.free[(id >> 32) as usize].push(id as u32);
    }
}

/// The next plot: deletes, inserts (into freed slots first) and moves
/// applied to `ids`, now and then a change of the domain count (points
/// of a dropped domain are deleted), a full reshuffle or an empty plot.
fn evolve(
    ids: &[u64],
    max_n: usize,
    domains: &mut usize,
    slabs: &mut Slabs,
    rng: &mut StdRng,
) -> Vec<u64> {
    if rng.gen_bool(0.05) {
        ids.iter().for_each(|&id| slabs.release(id));
        return Vec::new();
    }
    if rng.gen_bool(0.2) {
        *domains = rng.gen_range(1..=3);
    }
    let mut out = Vec::new();
    for &id in ids {
        if ((id >> 32) as usize) < *domains && rng.gen_bool(0.85) {
            out.push(id);
        } else {
            slabs.release(id);
        }
    }
    for _ in 0..rng.gen_range(0..=max_n / 3 + 1) {
        if out.len() >= max_n {
            break;
        }
        let id = slabs.alloc(rng.gen_range(0..*domains));
        out.insert(rng.gen_range(0..=out.len()), id);
    }
    for _ in 0..rng.gen_range(0..=out.len() / 4) {
        let p = out.remove(rng.gen_range(0..out.len()));
        out.insert(rng.gen_range(0..=out.len()), p);
    }
    if rng.gen_bool(0.1) {
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
    }
    out
}

/// A random cluster tree over `range`: one to three left-to-right,
/// disjoint, non-empty children with optional gaps between them, a
/// single near-full child (chains), or a leaf.
fn random_tree(range: (usize, usize), depth: usize, rng: &mut StdRng) -> ClusterNode {
    let (start, end) = range;
    let len = end - start;
    if depth == 0 || len < 2 || rng.gen_bool(0.25) {
        return node(range, Vec::new());
    }
    if rng.gen_bool(0.2) {
        let child = if rng.gen_bool(0.5) {
            (start + 1, end)
        } else {
            (start, end - 1)
        };
        return node(range, vec![random_tree(child, depth - 1, rng)]);
    }
    let k = rng.gen_range(1..=3.min(len));
    let mut cuts: Vec<usize> = Vec::new();
    while cuts.len() < k + 1 {
        let c = rng.gen_range(start..=end);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    let mut children = Vec::new();
    for w in cuts.windows(2) {
        if rng.gen_bool(0.85) {
            children.push(random_tree((w[0], w[1]), depth - 1, rng));
        }
    }
    node(range, children)
}

/// Runs the positional diff, under two key layouts, and the reference
/// over the same epoch sequence, asserting equal outputs at every epoch.
/// Returns the positional diff's per-epoch outputs under the engine's
/// layout.
fn assert_same_streams(epochs: &[(Vec<u64>, ClusterNode)]) -> Vec<(IdTree, Vec<ClusterDelta>)> {
    let outputs = positional_run(epochs, SlotTable::of_plot);
    // Keys whose order is not the ids' order: payloads are sorted after
    // the bitmap pass, and the stream must not change.
    let swapped = positional_run(epochs, |plot| {
        SlotTable::keyed(plot, |id| ((id >> 32) as u32, id as u32 ^ 1))
    });
    for (e, (a, b)) in outputs.iter().zip(&swapped).enumerate() {
        assert_eq!(a.1, b.1, "epoch {e}: stream under swapped keys");
    }

    let mut ref_next = 0;
    let mut reference: Option<RefNode> = None;
    for (e, ((ids, clusters), (t, deltas))) in epochs.iter().zip(&outputs).enumerate() {
        let plot = plot_of(ids);
        let (r, ref_deltas, ref_changes) =
            ref_diff_trees(reference.as_ref(), clusters, &plot, &mut ref_next);
        assert!(deltas.len() >= ref_deltas.len(), "epoch {e}: stream length");
        let (rest, changes) = deltas.split_at(ref_deltas.len());
        assert_eq!(rest, &ref_deltas[..], "epoch {e}: delta stream");
        assert_eq!(changes.len(), ref_changes.len(), "epoch {e}: changes");
        let previous: BTreeMap<ClusterId, Vec<u64>> = reference
            .as_ref()
            .map(|r| {
                r.canonical()
                    .into_iter()
                    .map(|(id, _, m)| (id, m))
                    .collect()
            })
            .unwrap_or_default();
        for (change, (ref_id, full)) in changes.iter().zip(&ref_changes) {
            let ClusterDelta::MembershipChanged { id, added, removed } = change else {
                panic!("epoch {e}: {change:?} where a membership change is due");
            };
            assert_eq!(id, ref_id, "epoch {e}: change order");
            let before = &previous[id];
            assert_membership_delta(before, added, removed);
            assert_eq!(
                &apply_change(before, added, removed),
                full,
                "epoch {e}: cluster {id:?} membership"
            );
        }
        assert_eq!(t.canonical(), r.canonical(), "epoch {e}: canonical view");
        reference = Some(r);
    }
    outputs
}

/// The positional diff over `epochs`, each plot's slot table built by
/// `table`; checks the id counter against the reference's.
fn positional_run(
    epochs: &[(Vec<u64>, ClusterNode)],
    table: impl Fn(&ReachabilityPlot) -> SlotTable,
) -> Vec<(IdTree, Vec<ClusterDelta>)> {
    let (mut next, mut ref_next) = (0, 0);
    let mut outputs: Vec<(IdTree, Vec<ClusterDelta>)> = Vec::new();
    let mut reference: Option<RefNode> = None;
    for (e, (ids, clusters)) in epochs.iter().enumerate() {
        let plot = plot_of(ids);
        let prev = outputs.last().map(|(t, _)| t);
        let out = diff_trees(prev, clusters, &plot, table(&plot), &mut next);
        let (r, _, _) = ref_diff_trees(reference.as_ref(), clusters, &plot, &mut ref_next);
        assert_eq!(next, ref_next, "epoch {e}: id counter");
        outputs.push(out);
        reference = Some(r);
    }
    outputs
}

/// A membership change's contract: both sets sorted, not both empty,
/// `added` disjoint from the previous membership and `removed` inside it.
fn assert_membership_delta(before: &[u64], added: &[u64], removed: &[u64]) {
    assert!(!added.is_empty() || !removed.is_empty(), "empty change");
    for set in [added, removed] {
        assert!(set.windows(2).all(|w| w[0] < w[1]), "unsorted set");
    }
    assert!(added.iter().all(|a| before.binary_search(a).is_err()));
    assert!(removed.iter().all(|r| before.binary_search(r).is_ok()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Positional diff ≡ sort-and-hash diff over random epoch sequences.
    #[test]
    fn positional_diff_matches_reference(
        seed in any::<u64>(),
        max_n in 0usize..48,
        depth in 0usize..10,
        epochs in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut domains, mut slabs) = (1, Slabs::default());
        let mut ids: Vec<u64> = Vec::new();
        let mut sequence = Vec::new();
        for _ in 0..epochs {
            ids = evolve(&ids, max_n, &mut domains, &mut slabs, &mut rng);
            let tree = random_tree((0, ids.len()), depth, &mut rng);
            sequence.push((ids.clone(), tree));
        }
        assert_same_streams(&sequence);
    }
}

/// Two old children tie for one new child: it keeps the smaller old id,
/// and the other is absorbed into it.
#[test]
fn equal_overlap_tie_keeps_the_smaller_old_id() {
    let ids: Vec<u64> = (0..6).collect();
    let epochs = vec![
        (
            ids.clone(),
            node((0, 6), vec![node((0, 3), vec![]), node((3, 6), vec![])]),
        ),
        (ids.clone(), node((0, 6), vec![node((0, 6), vec![])])),
    ];
    let [(first, _), (second, deltas)] = &assert_same_streams(&epochs)[..] else {
        unreachable!("two epochs")
    };
    assert_eq!(second.root.children[0].id, first.root.children[0].id);
    assert!(deltas.contains(&ClusterDelta::Absorbed {
        id: first.root.children[1].id,
        into: first.root.children[0].id,
    }));
}

/// One old child splits evenly into two new children: the leftmost new
/// child inherits its id.
#[test]
fn equal_overlap_tie_goes_to_the_leftmost_new_child() {
    let ids: Vec<u64> = (0..8).collect();
    let epochs = vec![
        (ids.clone(), node((0, 8), vec![node((1, 7), vec![])])),
        (
            ids.clone(),
            node((0, 8), vec![node((1, 4), vec![]), node((4, 7), vec![])]),
        ),
    ];
    let [(first, _), (second, _)] = &assert_same_streams(&epochs)[..] else {
        unreachable!("two epochs")
    };
    assert_eq!(second.root.children[0].id, first.root.children[0].id);
}

/// A dead cluster whose surviving points split evenly between a born
/// leftmost sibling and a matched (older, smaller-id) right sibling is
/// absorbed into the smaller id, not the leftmost child.
#[test]
fn equal_count_retire_tie_goes_to_the_smaller_id() {
    // Epoch 1: P = p0..p3, Q = q0..q3, X = x0 x1 (ids 1, 2, 3).
    let (p, q, x) = (0..4u64, 10..14u64, [20u64, 21]);
    let first: Vec<u64> = p.clone().chain(q.clone()).chain(x).collect();
    let three = node(
        (0, 10),
        vec![
            node((0, 4), vec![]),
            node((4, 8), vec![]),
            node((8, 10), vec![]),
        ],
    );
    // Epoch 2: L = Q + x0 keeps Q's id 2, R = P + x1 keeps P's id 1; X
    // dies with one point under each.
    let second: Vec<u64> = q.chain([x[0]]).chain(p).chain([x[1]]).collect();
    let two = node((0, 10), vec![node((0, 5), vec![]), node((5, 10), vec![])]);
    let epochs = vec![(first, three), (second, two)];
    let [(t1, _), (t2, deltas)] = &assert_same_streams(&epochs)[..] else {
        unreachable!("two epochs")
    };
    let (left, right) = (t2.root.children[0].id, t2.root.children[1].id);
    assert!(left > right, "the leftmost survivor carries the larger id");
    assert!(deltas.contains(&ClusterDelta::Absorbed {
        id: t1.root.children[2].id,
        into: right,
    }));
}

/// Deep single-child chains, root-only trees and the empty plot, in and
/// out of one another.
#[test]
fn chains_root_only_and_empty_plots_match_the_reference() {
    fn chain(start: usize, end: usize) -> ClusterNode {
        if end - start < 2 {
            return node((start, end), Vec::new());
        }
        node((start, end), vec![chain(start + 1, end)])
    }
    let ids: Vec<u64> = (0..12).map(|i| 1_000 - 7 * i).collect();
    let fewer: Vec<u64> = ids[3..].to_vec();
    let epochs = vec![
        (Vec::new(), node((0, 0), Vec::new())),
        (ids.clone(), chain(0, 12)),
        (fewer.clone(), chain(0, 9)),
        (fewer.clone(), node((0, 9), Vec::new())),
        (ids.clone(), chain(0, 12)),
        (Vec::new(), node((0, 0), Vec::new())),
        (fewer, chain(0, 9)),
    ];
    assert_same_streams(&epochs);
}

/// A slot freed by a deleted point and reused by a new one between two
/// epochs carries the same id, so the join treats the new point as the
/// old one moved: one cluster gains it and the other loses it, as the
/// id-equality join decides.
#[test]
fn a_reused_slot_joins_as_the_same_point() {
    let two = |split: usize| {
        node(
            (0, 6),
            vec![node((0, split), vec![]), node((split, 6), vec![])],
        )
    };
    let epochs = vec![
        ((0..6).collect::<Vec<u64>>(), two(3)),
        // Slot 4 was freed and refilled by a point in the left cluster.
        (vec![0, 1, 2, 4, 3, 5], two(4)),
    ];
    let [(first, _), (_, deltas)] = &assert_same_streams(&epochs)[..] else {
        unreachable!("two epochs")
    };
    let (left, right) = (first.root.children[0].id, first.root.children[1].id);
    assert_eq!(
        deltas,
        &[
            ClusterDelta::MembershipChanged {
                id: left,
                added: vec![4],
                removed: vec![],
            },
            ClusterDelta::MembershipChanged {
                id: right,
                added: vec![],
                removed: vec![4],
            },
        ]
    );
}

/// Domains whose slot counts grow and shrink, and a domain count that
/// rises, falls and skips a domain: the slot join still pairs exactly
/// the points with equal ids.
#[test]
fn domains_that_grow_shrink_appear_and_vanish_match_the_reference() {
    let key = |domain: u64, slots: std::ops::Range<u64>| slots.map(move |s| (domain << 32) | s);
    let halves = |len: usize| {
        node(
            (0, len),
            vec![node((0, len / 2), vec![]), node((len / 2, len), vec![])],
        )
    };
    let grown: Vec<u64> = key(0, 0..9).chain(key(1, 0..3)).collect();
    let shrunk: Vec<u64> = key(2, 0..2).chain(key(0, 0..4)).collect();
    let epochs = vec![
        (key(0, 0..6).collect(), halves(6)),
        (grown.clone(), halves(grown.len())),
        (shrunk.clone(), halves(shrunk.len())),
        (key(1, 0..5).collect(), halves(5)),
        (grown.clone(), halves(grown.len())),
    ];
    let outputs = assert_same_streams(&epochs);
    // Shrinking from `grown` to `shrunk` keeps exactly domain 0's slots
    // 0..4 and loses the rest: the root's change says so.
    let root = outputs[0].0.root.id;
    assert!(outputs[2].1.contains(&ClusterDelta::MembershipChanged {
        id: root,
        added: key(2, 0..2).collect(),
        removed: key(0, 4..9).chain(key(1, 0..3)).collect(),
    }));
}
