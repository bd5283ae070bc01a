//! Automatic extraction of flat clusters from a reachability plot.
//!
//! Implements the cluster-tree method of Sander, Qin, Lu, Niu and Kovarsky
//! (*Automatic Extraction of Clusters from Hierarchical Clustering
//! Representations*, 2003) — the paper's reference \[16\], which its
//! evaluation uses (in "a modified version") to turn OPTICS output into the
//! flat clusters scored by the F-measure.
//!
//! The idea: cluster boundaries are *significant local maxima* of the
//! reachability plot. The plot is split recursively at the largest local
//! maximum whose flanking regions are both, on average, sufficiently deeper
//! than the maximum itself (`significance_ratio`, 0.75 in the original);
//! insignificant maxima are skipped, regions smaller than
//! `min_cluster_size` are treated as noise, and the recursion's leaves are
//! the extracted clusters.
//!
//! # Complexity
//!
//! For a plot of `n` entries, [`cluster_tree`] costs `O(n)` for prefix
//! sums and neighbour tests, `O(w)` per entry that rises above a
//! neighbour, one sort of the maxima, and `O(#maxima)` per tree node.
//! Finding the maxima tests each entry against its two neighbours first,
//! so only the entries that rise above one pay for the `2w + 1` window
//! scan (most entries of a bubble plot are followers equal to their
//! neighbours). Each significance test costs `O(1)`: a flank's average is
//! read off prefix sums over the finite reachabilities (see `Flanks`).
//! Only a test that the prefix sums cannot decide — its bar lies within
//! their rounding margin — falls back to the left-to-right fold over the
//! flank, so the tree stays bit for bit the fold's tree.

use crate::reachability::ReachabilityPlot;

/// Parameters of the extraction.
#[derive(Debug, Clone, Copy)]
pub struct ExtractParams {
    /// A split at maximum `m` is significant when the average reachability
    /// of both flanking regions is below `significance_ratio ·
    /// reachability(m)`. The original publication recommends 0.75.
    pub significance_ratio: f64,
    /// Regions smaller than this are considered noise, and maxima are
    /// required to dominate a window of this size on both sides.
    pub min_cluster_size: usize,
}

impl Default for ExtractParams {
    fn default() -> Self {
        Self {
            significance_ratio: 0.75,
            min_cluster_size: 5,
        }
    }
}

impl ExtractParams {
    /// Parameters with the given minimum cluster size and the standard
    /// significance ratio.
    #[must_use]
    pub fn with_min_size(min_cluster_size: usize) -> Self {
        Self {
            min_cluster_size,
            ..Self::default()
        }
    }
}

/// One node of the extracted cluster tree: a contiguous plot region and its
/// sub-clusters.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    /// Half-open entry range `[start, end)` of the plot.
    pub range: (usize, usize),
    /// The reachability value this node was split off at (`None` for the
    /// root).
    pub split_value: Option<f64>,
    /// Nested sub-clusters (empty for leaves).
    pub children: Vec<ClusterNode>,
}

impl ClusterNode {
    /// Leaf ranges below (or at) this node, left to right.
    #[must_use]
    pub fn leaves(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<(usize, usize)>) {
        if self.children.is_empty() {
            out.push(self.range);
        } else {
            for c in &self.children {
                c.collect_leaves(out);
            }
        }
    }
}

/// Indices of the local maxima of the reachability sequence, in descending
/// value order. An index qualifies when its value dominates a window of
/// `w` entries on each side (infinite values always qualify).
fn local_maxima(reach: &[f64], w: usize) -> Vec<usize> {
    let n = reach.len();
    let mut maxima = Vec::new();
    for m in 1..n {
        let v = reach[m];
        if v.is_infinite() {
            maxima.push(m);
            continue;
        }
        // The neighbour test is the cheap half of the condition; entries
        // that equal both neighbours skip the window scan.
        if !(reach[m - 1] < v || (m + 1 < n && reach[m + 1] < v)) {
            continue;
        }
        let lo = m.saturating_sub(w);
        let hi = (m + w + 1).min(n);
        if !(lo..hi).any(|j| reach[j] > v) {
            maxima.push(m);
        }
    }
    maxima.sort_by(|&a, &b| {
        reach[b]
            .partial_cmp(&reach[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    maxima
}

/// Average of the finite reachability values in `reach[range]`; 0 when the
/// range has no finite values (an all-dense region never blocks a split).
fn avg_finite(reach: &[f64], start: usize, end: usize) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &r in &reach[start..end] {
        if r.is_finite() {
            sum += r;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Running totals over `reach[..i]`'s finite entries.
#[derive(Clone, Copy, Default)]
struct Prefix {
    /// Their sum, added left to right.
    sum: f64,
    /// The sum of their magnitudes, added left to right.
    mass: f64,
    /// How many there are.
    count: usize,
}

/// The reachability sequence with prefix sums over its finite entries,
/// answering `avg_finite(reach, s, e) < bar` in `O(1)` except inside the
/// rounding margin.
///
/// **Why a decided answer is the fold's answer.** Let `F` be the fold's
/// sum over the flank's `c` finite entries (so `avg_finite` is
/// `fl(F / c)`), `A = fl(sum[e] − sum[s])`, `T = mass[e]` and
/// `u = EPSILON / 2`. Recursive summation of at most `n` terms errs by at
/// most `γ_n = nu / (1 − nu)` times the magnitudes it added, and every
/// magnitude here is in `T`: so `sum[e]`, `sum[s]` and `F` each err by
/// at most `γ_n·T`, and the subtraction adds at most `u·(1 + 2γ_n)·T`.
/// Hence `|A − F| < (3n + 1)·u·T·(1 + O(nu))`. The slack
/// `4·(n + 1)·EPSILON·T = 8·(n + 1)·u·T` exceeds twice that, which covers
/// the rounding of the slack's own product: one relative `u`, or, if it
/// underflows, half a unit of `2^−1074`, while `A` and `F` are both
/// doubles, so a nonzero `|A − F|` is at least `2^−1074`. Thus
/// `A − slack ≤ F ≤ A + slack` as reals, and rounding is monotone, so
/// `fl(A + slack) ≥ F ≥ fl(A − slack)`. Division by `c > 0` is monotone
/// too: `fl((A + slack) / c) < bar` implies `fl(F / c) < bar`, and
/// `fl((A − slack) / c) >= bar` implies `fl(F / c) >= bar`. The bound
/// needs `A` and the slack finite (an overflowed prefix bounds nothing),
/// so a non-finite one — like a NaN `bar`, which fails both comparisons —
/// leaves the test to the fold.
struct Flanks<'a> {
    reach: &'a [f64],
    /// `prefix[i]` covers `reach[..i]`.
    prefix: Vec<Prefix>,
    /// `4·(n + 1)·EPSILON`, exact in `f64`; times `T` it is the slack.
    margin: f64,
}

impl<'a> Flanks<'a> {
    fn new(reach: &'a [f64]) -> Self {
        let mut prefix = Vec::with_capacity(reach.len() + 1);
        let mut acc = Prefix::default();
        prefix.push(acc);
        for &r in reach {
            if r.is_finite() {
                acc.sum += r;
                acc.mass += r.abs();
                acc.count += 1;
            }
            prefix.push(acc);
        }
        Self {
            reach,
            prefix,
            margin: 4.0 * (reach.len() + 1) as f64 * f64::EPSILON,
        }
    }

    /// `avg_finite(reach, start, end) < bar`, bit for bit.
    fn mean_below(&self, start: usize, end: usize, bar: f64) -> bool {
        let (lo, hi) = (self.prefix[start], self.prefix[end]);
        let c = hi.count - lo.count;
        if c == 0 {
            return 0.0 < bar;
        }
        let approx = hi.sum - lo.sum;
        let slack = self.margin * hi.mass;
        if approx.is_finite() && slack.is_finite() {
            let c = c as f64;
            if (approx + slack) / c < bar {
                return true;
            }
            if (approx - slack) / c >= bar {
                return false;
            }
        }
        avg_finite(self.reach, start, end) < bar
    }
}

fn build_node(
    flanks: &Flanks<'_>,
    start: usize,
    end: usize,
    maxima: &[usize],
    split_value: Option<f64>,
    params: &ExtractParams,
) -> ClusterNode {
    let reach = flanks.reach;
    let mut node = ClusterNode {
        range: (start, end),
        split_value,
        children: Vec::new(),
    };

    // Try the maxima inside (start, end), largest first. Splitting at `m`
    // yields left [start, m) and right [m, end) — the separating entry
    // *starts* the right region (its displayed reachability is the cost of
    // jumping into it).
    for (pos, &m) in maxima.iter().enumerate() {
        if m <= start || m >= end {
            continue;
        }
        let v = reach[m];
        let significant = if v.is_infinite() {
            true
        } else {
            // The right flank is tested only when the left one passes.
            let bar = params.significance_ratio * v;
            flanks.mean_below(start, m, bar) && flanks.mean_below(m + 1, end, bar)
        };
        if !significant {
            continue;
        }
        let rest = &maxima[pos + 1..];
        let left_ok = m - start >= params.min_cluster_size;
        let right_ok = end - m >= params.min_cluster_size;
        if !left_ok && !right_ok {
            // Both flanks are noise-sized; treat the region as a leaf.
            continue;
        }
        if left_ok {
            node.children
                .push(build_node(flanks, start, m, rest, Some(v), params));
        }
        if right_ok {
            node.children
                .push(build_node(flanks, m, end, rest, Some(v), params));
        }
        break;
    }
    node
}

/// Builds the full cluster tree of a reachability plot.
///
/// The root covers the whole plot; leaves are the extracted clusters.
#[must_use]
pub fn cluster_tree(plot: &ReachabilityPlot, params: &ExtractParams) -> ClusterNode {
    let reach: Vec<f64> = plot.entries().iter().map(|e| e.reachability).collect();
    let maxima = local_maxima(&reach, params.min_cluster_size);
    build_node(&Flanks::new(&reach), 0, reach.len(), &maxima, None, params)
}

/// Extracts flat clusters: the leaf regions of the cluster tree, as lists
/// of the entries' opaque ids. Regions smaller than
/// `params.min_cluster_size` (possible only for the root of a tiny plot)
/// are dropped.
#[must_use]
pub fn extract_clusters(plot: &ReachabilityPlot, params: &ExtractParams) -> Vec<Vec<u64>> {
    let tree = cluster_tree(plot, params);
    tree.leaves()
        .into_iter()
        .filter(|(s, e)| e - s >= params.min_cluster_size)
        .map(|(s, e)| plot.entries()[s..e].iter().map(|p| p.id).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::PlotEntry;

    fn plot_of(reach: &[f64]) -> ReachabilityPlot {
        ReachabilityPlot::from_entries(
            reach
                .iter()
                .enumerate()
                .map(|(i, &r)| PlotEntry {
                    id: i as u64,
                    reachability: r,
                })
                .collect(),
        )
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn single_valley_is_one_cluster() {
        let plot = plot_of(&[INF, 0.1, 0.12, 0.1, 0.11, 0.1, 0.12]);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 7);
    }

    #[test]
    fn two_valleys_split_at_the_spike() {
        let reach = [INF, 0.1, 0.1, 0.1, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1];
        let plot = plot_of(&reach);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        assert_eq!(clusters.len(), 2, "{clusters:?}");
        assert_eq!(clusters[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(clusters[1], vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn insignificant_bump_does_not_split() {
        // The bump (0.12) is not 1/0.75 times deeper than its flanks.
        let reach = [INF, 0.1, 0.1, 0.1, 0.12, 0.1, 0.1, 0.1];
        let plot = plot_of(&reach);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn nested_valleys_produce_nested_tree() {
        // Two fine clusters inside one coarse cluster, plus a separate
        // coarse cluster: plot [inf, A..., 1.0, B..., 10.0, C...].
        let mut reach = vec![INF];
        reach.extend(std::iter::repeat_n(0.1, 6));
        reach.push(1.0);
        reach.extend(std::iter::repeat_n(0.1, 6));
        reach.push(10.0);
        reach.extend(std::iter::repeat_n(0.3, 6));
        let plot = plot_of(&reach);
        let params = ExtractParams::with_min_size(4);
        let tree = cluster_tree(&plot, &params);
        // Root splits at 10.0 into [A+B] and [C]; [A+B] splits at 1.0.
        assert_eq!(tree.children.len(), 2);
        let leaves = tree.leaves();
        assert_eq!(leaves.len(), 3, "leaves {leaves:?}");
        let clusters = extract_clusters(&plot, &params);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].len(), 7); // inf + six 0.1 entries
        assert_eq!(clusters[1].len(), 7); // the 1.0 separator + six 0.1
        assert_eq!(clusters[2].len(), 7); // the 10.0 separator + six 0.3
    }

    #[test]
    fn infinite_separator_always_splits() {
        let reach = [INF, 0.5, 0.5, 0.5, 0.5, INF, 0.5, 0.5, 0.5, 0.5];
        let plot = plot_of(&reach);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn noise_sized_flank_is_dropped() {
        // Right flank after the spike has only 2 entries < min size 4.
        let reach = [INF, 0.1, 0.1, 0.1, 0.1, 0.1, 6.0, 0.1];
        let plot = plot_of(&reach);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(4));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 6, "left valley kept, tail dropped");
    }

    #[test]
    fn empty_plot_yields_no_clusters() {
        let plot = ReachabilityPlot::new();
        assert!(extract_clusters(&plot, &ExtractParams::default()).is_empty());
    }

    #[test]
    fn tiny_plot_below_min_size_yields_nothing() {
        let plot = plot_of(&[INF, 0.1]);
        assert!(extract_clusters(&plot, &ExtractParams::with_min_size(5)).is_empty());
    }

    #[test]
    fn plateau_maxima_are_handled() {
        // A flat-topped separator; exactly one split must result.
        let reach = [INF, 0.1, 0.1, 0.1, 3.0, 3.0, 0.1, 0.1, 0.1];
        let plot = plot_of(&reach);
        let clusters = extract_clusters(&plot, &ExtractParams::with_min_size(3));
        assert_eq!(clusters.len(), 2, "{clusters:?}");
    }
}
