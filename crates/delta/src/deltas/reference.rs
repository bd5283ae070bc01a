//! The positional diff against the sort-and-hash diff it replaced.
//!
//! [`ref_diff_trees`] is the earlier implementation kept as a test
//! oracle: every identity node stores its sorted membership, every
//! matched level re-sorts each child's plot region, and votes and
//! retirements go through point-id hash maps. The production
//! [`diff_trees`] must agree with it exactly — the delta stream in
//! emission order, the id counter and the canonical view — at every
//! epoch of random multi-epoch sequences: inserts, deletes, moves and
//! reshuffles between plots, random nested trees with gaps, single-child
//! chains and root-only trees, and empty plots.

use super::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn ref_diff_trees(
    prev: Option<&RefNode>,
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    next_id: &mut u64,
) -> (RefNode, Vec<ClusterDelta>) {
    let mut out = DiffOut::default();
    let root = match prev {
        None => ref_build_fresh(tree, plot, None, next_id, &mut out),
        Some(old) => ref_diff_node(old, tree, plot, next_id, &mut out),
    };
    let mut deltas = out.removals;
    deltas.extend(out.splits);
    deltas.extend(out.born);
    deltas.extend(out.membership);
    (root, deltas)
}

fn ref_build_fresh(
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    parent: Option<ClusterId>,
    next_id: &mut u64,
    out: &mut DiffOut,
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
    out: &mut DiffOut,
) -> RefNode {
    let members = region_members(plot, new.range);
    if members != old.members {
        out.membership.push(ClusterDelta::MembershipChanged {
            id: old.id,
            members: members.clone(),
        });
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

fn ref_retire_subtree(node: &RefNode, point_dest: &HashMap<u64, ClusterId>, out: &mut DiffOut) {
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

/// The next plot: deletes, inserts and moves applied to `ids`, or now and
/// then a full reshuffle or an empty plot. Fresh ids come from
/// `next_point`, spaced so the id order differs from insertion order.
fn evolve(ids: &[u64], max_n: usize, next_point: &mut u64, rng: &mut StdRng) -> Vec<u64> {
    if rng.gen_bool(0.05) {
        return Vec::new();
    }
    let mut out: Vec<u64> = ids.iter().copied().filter(|_| rng.gen_bool(0.85)).collect();
    for _ in 0..rng.gen_range(0..=max_n / 3 + 1) {
        if out.len() >= max_n {
            break;
        }
        *next_point += 1;
        let id = next_point.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        if !out.contains(&id) {
            out.insert(rng.gen_range(0..=out.len()), id);
        }
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

/// Runs both diffs over the same epoch sequence, asserting equal outputs
/// at every epoch. Returns the positional diff's per-epoch outputs.
fn assert_same_streams(epochs: &[(Vec<u64>, ClusterNode)]) -> Vec<(IdTree, Vec<ClusterDelta>)> {
    let (mut next, mut ref_next) = (0, 0);
    let mut outputs: Vec<(IdTree, Vec<ClusterDelta>)> = Vec::new();
    let mut reference: Option<RefNode> = None;
    for (e, (ids, clusters)) in epochs.iter().enumerate() {
        let plot = plot_of(ids);
        let prev = outputs.last().map(|(t, _)| t);
        let (t, deltas) = diff_trees(prev, clusters, &plot, &mut next);
        let (r, ref_deltas) = ref_diff_trees(reference.as_ref(), clusters, &plot, &mut ref_next);
        assert_eq!(deltas, ref_deltas, "epoch {e}: delta stream");
        assert_eq!(next, ref_next, "epoch {e}: id counter");
        assert_eq!(t.canonical(), r.canonical(), "epoch {e}: canonical view");
        outputs.push((t, deltas));
        reference = Some(r);
    }
    outputs
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
        let mut next_point = 0;
        let mut ids: Vec<u64> = Vec::new();
        let mut sequence = Vec::new();
        for _ in 0..epochs {
            ids = evolve(&ids, max_n, &mut next_point, &mut rng);
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
