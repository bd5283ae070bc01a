//! The dense argmin OPTICS expansion against the best-first reference it
//! replaced.
//!
//! [`reference_expansion`] is the earlier expansion kept verbatim as a
//! test oracle: a lazy-deletion min-heap of `(reachability, index)`
//! seeds and a fully sorted neighbour list per expanded bubble. The
//! production [`optics_from_matrix_with_scratch`] must agree with it bit
//! for bit — `order`, `reachability` and `virtual_reachability` — over
//! inputs built to stress every tie-break: duplicated representatives
//! (exact distance ties), empty summaries, finite `eps` that splits the
//! input into components, `min_pts` from 1 to above every bubble's point
//! count, and NaN pair entries.

use idb_clustering::{
    bubble_distance, optics_bubbles_with, optics_from_matrix_with_scratch, BubbleOrdering,
    OpticsScratch,
};
use idb_core::DataSummary;
use idb_geometry::Parallelism;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A minimal summary: a weighted ball (`count == 0` is an empty one).
#[derive(Debug, Clone)]
struct Orb {
    at: Vec<f64>,
    count: u64,
    radius: f64,
}

impl DataSummary for Orb {
    fn dim(&self) -> usize {
        self.at.len()
    }
    fn n(&self) -> u64 {
        self.count
    }
    fn rep(&self) -> Vec<f64> {
        self.at.clone()
    }
    fn extent(&self) -> f64 {
        self.radius
    }
    fn nn_dist(&self, k: usize) -> f64 {
        self.radius * (k as f64).sqrt() / (self.count as f64).max(1.0).sqrt()
    }
}

/// Min-heap seed with lazy deletion, ordered by `(reach.total_cmp, idx)`.
#[derive(Debug, Clone, Copy)]
struct Seed {
    reach: f64,
    idx: u32,
}
impl PartialEq for Seed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Seed {}
impl PartialOrd for Seed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Seed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed operands turn `BinaryHeap`'s max-heap into a min-heap.
        other
            .reach
            .total_cmp(&self.reach)
            .then(other.idx.cmp(&self.idx))
    }
}

/// The best-first expansion: heap of seeds, full neighbour sort per
/// expanded bubble.
fn reference_expansion<S: DataSummary>(
    summaries: &[S],
    live: &[usize],
    pair: &[f64],
    eps: f64,
    min_pts: usize,
) -> BubbleOrdering {
    let s = live.len();
    let mut ordering = BubbleOrdering {
        order: Vec::new(),
        reachability: Vec::new(),
        virtual_reachability: Vec::new(),
    };
    let core_dist = |i: usize, neigh_sorted: &[(usize, f64)]| -> f64 {
        let own = summaries[live[i]].n() as usize;
        if own >= min_pts {
            return summaries[live[i]].nn_dist(min_pts);
        }
        let mut acc = own;
        for &(j, d) in neigh_sorted {
            if j == i {
                continue;
            }
            acc += summaries[live[j]].n() as usize;
            if acc >= min_pts {
                return d;
            }
        }
        f64::INFINITY
    };
    let mut processed = vec![false; s];
    let mut reach = vec![f64::INFINITY; s];
    let mut heap = BinaryHeap::new();
    let expand = |i: usize, processed: &[bool], reach: &mut [f64], heap: &mut BinaryHeap<Seed>| {
        let mut neigh: Vec<(usize, f64)> = (0..s)
            .filter(|&j| j != i && pair[i * s + j] <= eps)
            .map(|j| (j, pair[i * s + j]))
            .collect();
        neigh.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let core = core_dist(i, &neigh);
        if core.is_infinite() {
            return;
        }
        for &(j, d) in &neigh {
            if processed[j] {
                continue;
            }
            let r = core.max(d);
            if r < reach[j] {
                reach[j] = r;
                heap.push(Seed {
                    reach: r,
                    idx: j as u32,
                });
            }
        }
    };
    for start in 0..s {
        if processed[start] {
            continue;
        }
        processed[start] = true;
        ordering.order.push(live[start]);
        ordering.reachability.push(f64::INFINITY);
        ordering
            .virtual_reachability
            .push(summaries[live[start]].nn_dist(min_pts));
        expand(start, &processed, &mut reach, &mut heap);
        while let Some(Seed { reach: r, idx }) = heap.pop() {
            let i = idx as usize;
            if processed[i] || r > reach[i] {
                continue;
            }
            processed[i] = true;
            ordering.order.push(live[i]);
            ordering.reachability.push(reach[i]);
            ordering
                .virtual_reachability
                .push(summaries[live[i]].nn_dist(min_pts));
            expand(i, &processed, &mut reach, &mut heap);
        }
    }
    ordering
}

/// The from-scratch matrix over `live`: upper triangle in position order,
/// mirrored — the orientation `optics_bubbles_with` builds.
fn live_matrix(orbs: &[Orb], live: &[usize]) -> Vec<f64> {
    let s = live.len();
    let mut m = vec![0.0f64; s * s];
    for x in 0..s {
        for y in (x + 1)..s {
            let d = bubble_distance(&orbs[live[x]], &orbs[live[y]]);
            m[x * s + y] = d;
            m[y * s + x] = d;
        }
    }
    m
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Raw generator output for one [`Orb`]: blob (0..3, far apart so a
/// finite `eps` splits them), grid cell inside the blob (a coarse grid,
/// so representatives repeat exactly), point count (0 = empty) and a
/// radius drawn from a small set (so duplicated orbs tie exactly).
type OrbRaw = (u32, (u32, u32), u64, usize);

const RADII: [f64; 3] = [0.25, 0.5, 1.5];

fn orb_strategy() -> impl Strategy<Value = OrbRaw> {
    (0u32..3, (0u32..4, 0u32..3), 0u64..9, 0usize..RADII.len())
}

fn orb_of((blob, (gx, gy), count, r): OrbRaw) -> Orb {
    Orb {
        at: vec![f64::from(blob) * 200.0 + f64::from(gx), f64::from(gy) * 1.5],
        count,
        radius: RADII[r],
    }
}

/// `eps` choice: `0` is ∞, otherwise the `pick`/4 quantile of the finite
/// off-diagonal distances. Most pairs straddle two blobs, so the lower
/// quartile is usually a within-blob distance and splits the input into
/// several components; the higher picks join neighbouring blobs.
fn eps_of(pair: &[f64], s: usize, pick: usize) -> f64 {
    if pick == 0 {
        return f64::INFINITY;
    }
    let mut finite: Vec<f64> = (0..s)
        .flat_map(|x| (0..s).filter(move |&y| y != x).map(move |y| (x, y)))
        .map(|(x, y)| pair[x * s + y])
        .filter(|d| d.is_finite())
        .collect();
    if finite.is_empty() {
        return f64::INFINITY;
    }
    finite.sort_by(f64::total_cmp);
    finite[(finite.len() - 1) * pick / 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Dense argmin expansion ≡ heap-plus-full-sort expansion, bit for
    /// bit, with one scratch reused across every run of the case.
    #[test]
    fn dense_expansion_matches_heap_reference(
        raw in prop::collection::vec(orb_strategy(), 0..40),
        eps_pick in 0usize..4,
        extra_pts in 0usize..12,
        poison in prop::collection::vec((0usize..1_000, 0usize..1_000), 0..6),
    ) {
        let orbs: Vec<Orb> = raw.into_iter().map(orb_of).collect();
        let live: Vec<usize> = (0..orbs.len()).filter(|&i| orbs[i].count > 0).collect();
        let s = live.len();
        let mut pair = live_matrix(&orbs, &live);
        let eps = eps_of(&pair, s, eps_pick);
        let mut scratch = OpticsScratch::default();

        // Unpoisoned: the whole `optics_bubbles_with` pipeline (empty
        // summaries skipped) agrees too.
        let max_n = orbs.iter().map(|o| o.count as usize).max().unwrap_or(0);
        for min_pts in 1..=(max_n + 2) {
            let want = reference_expansion(&orbs, &live, &pair, eps, min_pts);
            let got = optics_from_matrix_with_scratch(&orbs, &live, &pair, eps, min_pts, &mut scratch);
            prop_assert_eq!(&got.order, &want.order, "min_pts {} eps {}", min_pts, eps);
            prop_assert_eq!(bits(&got.reachability), bits(&want.reachability));
            prop_assert_eq!(bits(&got.virtual_reachability), bits(&want.virtual_reachability));
            if eps.is_infinite() {
                let full = optics_bubbles_with(&orbs, eps, min_pts, Parallelism::Serial);
                prop_assert_eq!(&full.order, &want.order);
                prop_assert_eq!(bits(&full.reachability), bits(&want.reachability));
            }
        }

        // NaN pair entries (both orientations) are no edges in either
        // expansion; `min_pts` runs past every bubble's count.
        if s >= 2 {
            for &(a, b) in &poison {
                let (x, y) = (a % s, b % s);
                if x != y {
                    pair[x * s + y] = f64::NAN;
                    pair[y * s + x] = f64::NAN;
                }
            }
        }
        let min_pts = 1 + extra_pts;
        let want = reference_expansion(&orbs, &live, &pair, eps, min_pts);
        let got = optics_from_matrix_with_scratch(&orbs, &live, &pair, eps, min_pts, &mut scratch);
        prop_assert_eq!(&got.order, &want.order);
        prop_assert_eq!(bits(&got.reachability), bits(&want.reachability));
        prop_assert_eq!(bits(&got.virtual_reachability), bits(&want.virtual_reachability));
    }
}

/// Two blobs under a within-blob `eps`: several components, each started
/// at reachability ∞ by its lowest unprocessed index.
#[test]
fn finite_eps_components_match_the_reference() {
    let orbs: Vec<Orb> = (0..30u32)
        .map(|i| orb_of((i % 2, (i % 4, i % 3), u64::from(i % 5), (i % 3) as usize)))
        .collect();
    let live: Vec<usize> = (0..orbs.len()).filter(|&i| orbs[i].count > 0).collect();
    let pair = live_matrix(&orbs, &live);
    let mut scratch = OpticsScratch::default();
    for eps in [1.0, 2.5, 50.0] {
        for min_pts in [1, 4, 9, 40] {
            let want = reference_expansion(&orbs, &live, &pair, eps, min_pts);
            let got =
                optics_from_matrix_with_scratch(&orbs, &live, &pair, eps, min_pts, &mut scratch);
            assert_eq!(got.order, want.order, "eps {eps} min_pts {min_pts}");
            assert_eq!(bits(&got.reachability), bits(&want.reachability));
            assert_eq!(
                bits(&got.virtual_reachability),
                bits(&want.virtual_reachability)
            );
            if eps < 100.0 {
                let starts = got.reachability.iter().filter(|r| r.is_infinite()).count();
                assert!(starts >= 2, "eps {eps} splits the blobs: {starts} starts");
            }
        }
    }
}

/// Many bubbles on one representative: every pair distance ties exactly,
/// so the whole order is decided by the index tie-break.
#[test]
fn all_duplicates_order_by_index_like_the_reference() {
    let orbs: Vec<Orb> = (0..25)
        .map(|i| Orb {
            at: vec![3.0, 4.0],
            count: 1 + (i % 3),
            radius: 0.5,
        })
        .collect();
    let live: Vec<usize> = (0..orbs.len()).collect();
    let pair = live_matrix(&orbs, &live);
    let mut scratch = OpticsScratch::default();
    for min_pts in [1, 2, 3, 4, 7, 30, 80] {
        let want = reference_expansion(&orbs, &live, &pair, f64::INFINITY, min_pts);
        let got = optics_from_matrix_with_scratch(
            &orbs,
            &live,
            &pair,
            f64::INFINITY,
            min_pts,
            &mut scratch,
        );
        assert_eq!(got.order, want.order, "min_pts {min_pts}");
        assert_eq!(bits(&got.reachability), bits(&want.reachability));
        assert_eq!(
            bits(&got.virtual_reachability),
            bits(&want.virtual_reachability)
        );
    }
}
