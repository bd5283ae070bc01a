//! The dense argmin OPTICS walk against the best-first reference it
//! replaced.
//!
//! [`reference_expansion`] is the earlier expansion kept verbatim as a
//! test oracle: a lazy-deletion min-heap of `(reachability, index)`
//! seeds and a fully sorted neighbour list per expanded bubble, over a
//! materialised matrix. The production walk must agree with it bit for
//! bit (`order`, `reachability` and `virtual_reachability`), both fed a
//! matrix through [`optics_from_matrix`] and computing each distance row
//! on demand in [`optics_bubbles`], over inputs built to stress
//! every tie-break: duplicated representatives (exact distance
//! ties), one-point summaries (the points `optics_points` orders), empty
//! summaries, finite `eps` that splits the input into
//! components, `min_pts` from 1 to above every bubble's point count (so
//! small bubbles compute full rows), NaN pair entries, distances whose
//! bits depend on the pair's orientation, every dimension from 1 to 9
//! (the fused and lane-accumulator kernels, chunk remainders included),
//! and signed-zero `nnDist` values that make `−0.0` and `+0.0`
//! distances and reachabilities tie under `==`.

use idb_clustering::{bubble_distance, optics_bubbles, optics_from_matrix, BubbleOrdering};
use idb_core::DataSummary;
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
/// mirrored — the orientation `optics_bubbles` evaluates.
fn live_matrix<S: DataSummary>(orbs: &[S], live: &[usize]) -> Vec<f64> {
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
    /// bit.
    #[test]
    fn dense_expansion_matches_heap_reference(
        raw in prop::collection::vec(orb_strategy(), 0..40),
        eps_pick in 0usize..4,
        extra_pts in 0usize..12,
        poison in prop::collection::vec((0usize..1_000, 0usize..1_000), 0..6),
    ) {
        let bubbles: Vec<Orb> = raw.iter().copied().map(orb_of).collect();
        // One more input class: one-point summaries (count 1, radius 0, so
        // extent and every nnDist are 0), the points `optics_points` walks.
        // Their bubble distance is the Euclidean one, and the coarse grid
        // repeats representatives, so distances tie exactly.
        let points: Vec<Orb> = raw
            .iter()
            .map(|&r| Orb { count: 1, radius: 0.0, ..orb_of(r) })
            .collect();
        let max_n = bubbles.iter().map(|o| o.count as usize).max().unwrap_or(0);
        for orbs in [bubbles, points] {
            let live: Vec<usize> = (0..orbs.len()).filter(|&i| orbs[i].count > 0).collect();
            let s = live.len();
            let mut pair = live_matrix(&orbs, &live);
            let eps = eps_of(&pair, s, eps_pick);

            // Unpoisoned: the whole `optics_bubbles` pipeline (empty
            // summaries skipped, rows computed on demand) agrees too.
            for min_pts in 1..=(max_n + 2) {
                let want = reference_expansion(&orbs, &live, &pair, eps, min_pts);
                let got = optics_from_matrix(&orbs, &live, &pair, eps, min_pts);
                prop_assert_eq!(&got.order, &want.order, "min_pts {} eps {}", min_pts, eps);
                prop_assert_eq!(bits(&got.reachability), bits(&want.reachability));
                prop_assert_eq!(bits(&got.virtual_reachability), bits(&want.virtual_reachability));
                let full = optics_bubbles(&orbs, eps, min_pts);
                prop_assert_eq!(&full.order, &want.order);
                prop_assert_eq!(bits(&full.reachability), bits(&want.reachability));
                prop_assert_eq!(bits(&full.virtual_reachability), bits(&want.virtual_reachability));
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
            let got = optics_from_matrix(&orbs, &live, &pair, eps, min_pts);
            prop_assert_eq!(&got.order, &want.order);
            prop_assert_eq!(bits(&got.reachability), bits(&want.reachability));
            prop_assert_eq!(bits(&got.virtual_reachability), bits(&want.virtual_reachability));
        }
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
    for eps in [1.0, 2.5, 50.0] {
        for min_pts in [1, 4, 9, 40] {
            let want = reference_expansion(&orbs, &live, &pair, eps, min_pts);
            let got = optics_from_matrix(&orbs, &live, &pair, eps, min_pts);
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
    for min_pts in [1, 2, 3, 4, 7, 30, 80] {
        let want = reference_expansion(&orbs, &live, &pair, f64::INFINITY, min_pts);
        let got = optics_from_matrix(&orbs, &live, &pair, f64::INFINITY, min_pts);
        assert_eq!(got.order, want.order, "min_pts {min_pts}");
        assert_eq!(bits(&got.reachability), bits(&want.reachability));
        assert_eq!(
            bits(&got.virtual_reachability),
            bits(&want.virtual_reachability)
        );
    }
}

/// Bubbles whose distance `gap + na + nb` rounds differently from
/// `gap + nb + na`: the on-demand rows must evaluate every pair with the
/// lower live position first, as the matrix's upper triangle holds it.
#[test]
fn on_demand_rows_keep_the_matrix_orientation() {
    let orbs: Vec<Orb> = (0..40u32)
        .map(|i| Orb {
            at: vec![
                f64::from(i) * 1.37 + f64::from(i % 3) * 0.11,
                f64::from(i % 5) * 0.73,
            ],
            count: u64::from(1 + i % 7),
            radius: 0.05 + f64::from(i % 11) * 0.031,
        })
        .collect();
    let live: Vec<usize> = (0..orbs.len()).collect();
    let oriented = (0..orbs.len())
        .flat_map(|a| ((a + 1)..orbs.len()).map(move |b| (a, b)))
        .filter(|&(a, b)| {
            bubble_distance(&orbs[a], &orbs[b]).to_bits()
                != bubble_distance(&orbs[b], &orbs[a]).to_bits()
        })
        .count();
    assert!(oriented > 0, "no pair's distance depends on orientation");
    let pair = live_matrix(&orbs, &live);
    for eps in [f64::INFINITY, eps_of(&pair, live.len(), 1)] {
        for min_pts in [1, 3, 8, 40] {
            let want = optics_from_matrix(&orbs, &live, &pair, eps, min_pts);
            let got = optics_bubbles(&orbs, eps, min_pts);
            assert_eq!(got.order, want.order, "eps {eps} min_pts {min_pts}");
            assert_eq!(bits(&got.reachability), bits(&want.reachability));
            assert_eq!(
                bits(&got.virtual_reachability),
                bits(&want.virtual_reachability)
            );
        }
    }
}

/// The dimensions the across-dimension cases run at: the fused kernel
/// (`d ≤ 4`) and the lane-accumulator kernel with one, three, four and
/// five lanes in its last block.
const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 9];

/// Checks both entry points against the heap reference at one setting.
fn assert_matches_reference<S: DataSummary>(
    summaries: &[S],
    live: &[usize],
    pair: &[f64],
    eps: f64,
    min_pts: usize,
) {
    let want = reference_expansion(summaries, live, pair, eps, min_pts);
    for got in [
        optics_from_matrix(summaries, live, pair, eps, min_pts),
        optics_bubbles(summaries, eps, min_pts),
    ] {
        assert_eq!(got.order, want.order, "eps {eps} min_pts {min_pts}");
        assert_eq!(bits(&got.reachability), bits(&want.reachability));
        assert_eq!(
            bits(&got.virtual_reachability),
            bits(&want.virtual_reachability)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The column kernel ≡ the heap reference at every dimension, over
    /// inputs long enough to cross the kernel's chunk boundaries.
    #[test]
    fn column_kernel_matches_heap_reference_in_every_dimension(
        raw in prop::collection::vec(
            (0u32..3, prop::collection::vec(0u32..3, 9), 0u64..9, 0usize..RADII.len()),
            0..150,
        ),
        eps_pick in 0usize..4,
    ) {
        for dim in DIMS {
            // Off-grid coordinates, so the squared distances round and
            // their accumulation order shows in the bits; equal cells
            // still give equal representatives.
            let orbs: Vec<Orb> = raw
                .iter()
                .map(|(blob, cell, count, r)| Orb {
                    at: (0..dim)
                        .map(|k| {
                            let c = f64::from(cell[k]);
                            let blob = if k == 0 { f64::from(*blob) * 200.0 } else { 0.0 };
                            blob + c * 1.37 + c * c * 0.071 * (k + 1) as f64
                        })
                        .collect(),
                    count: *count,
                    radius: RADII[*r],
                })
                .collect();
            let live: Vec<usize> = (0..orbs.len()).filter(|&i| orbs[i].count > 0).collect();
            let pair = live_matrix(&orbs, &live);
            let eps = eps_of(&pair, live.len(), eps_pick);
            for min_pts in [1, 2, 5, 9, 12] {
                assert_matches_reference(&orbs, &live, &pair, eps, min_pts);
            }
        }
    }
}

/// A summary whose extent and nearest-neighbour scale are independent,
/// so overlapping bubbles can carry signed-zero `nnDist` values.
#[derive(Debug, Clone)]
struct Patch {
    at: Vec<f64>,
    count: u64,
    extent: f64,
    nn: f64,
}

impl DataSummary for Patch {
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
        self.extent
    }
    fn nn_dist(&self, k: usize) -> f64 {
        self.nn * (k as f64).sqrt()
    }
}

/// About 300 bubbles on 35 representatives (every distance ties with
/// many others exactly), a sixth of them empty, with `nnDist` values of
/// `−0.0`, `+0.0` and positive: overlapping pairs measure `±0.0`, so
/// distances, core distances and reachabilities tie under `==` while
/// differing under `total_cmp`.
#[test]
fn signed_zero_ties_at_scale_match_the_reference() {
    for dim in [2, 6] {
        let patches: Vec<Patch> = (0..320u32)
            .map(|i| Patch {
                at: (0..dim)
                    .map(|k| match k {
                        0 => f64::from(i % 7),
                        1 => f64::from((i / 7) % 5),
                        _ => 0.0,
                    })
                    .collect(),
                count: u64::from(i % 6),
                extent: [0.0, 0.75, 1.5][(i % 3) as usize],
                nn: [-0.0, 0.0, 0.25, -0.0, 0.5][((i / 3) % 5) as usize],
            })
            .collect();
        let live: Vec<usize> = (0..patches.len())
            .filter(|&i| patches[i].count > 0)
            .collect();
        assert!(live.len() > 250, "{} live bubbles", live.len());
        let pair = live_matrix(&patches, &live);
        let mut zeros = [false; 2];
        for eps in [f64::INFINITY, 0.0, 1.0] {
            for min_pts in [1, 2, 3, 6, 12, 40] {
                assert_matches_reference(&patches, &live, &pair, eps, min_pts);
                for r in optics_bubbles(&patches, eps, min_pts).reachability {
                    if r == 0.0 {
                        zeros[usize::from(r.is_sign_negative())] = true;
                    }
                }
            }
        }
        assert_eq!(zeros, [true, true], "both signed zeros are reachabilities");
    }
}
