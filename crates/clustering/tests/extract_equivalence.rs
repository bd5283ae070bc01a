//! The prefix-sum cluster-tree extraction against the fold-per-test
//! extraction it replaced.
//!
//! [`reference_local_maxima`], [`reference_avg_finite`] and
//! [`reference_build_node`] are the earlier extraction kept verbatim as a
//! test oracle: every significance test folds its flank left to right.
//! [`cluster_tree`] must build the same tree — ranges, `split_value` bits
//! and child counts, node by node — over plots built the way bubble plots
//! look (runs of equal virtual reachability, spikes, `∞` component
//! starts) and over the values that stress the prefix sums: `-0.0`, NaN,
//! magnitudes from 1e-300 to 1e300, overflowing sums, and flanks whose
//! prefix-sum average lands on the wrong side of the bar, so that only
//! the exact fold decides them.

use idb_clustering::{cluster_tree, ClusterNode, ExtractParams, PlotEntry, ReachabilityPlot};
use proptest::prelude::*;

const INF: f64 = f64::INFINITY;
const MIN_SIZES: [usize; 5] = [1, 2, 5, 8, 20];

fn reference_local_maxima(reach: &[f64], w: usize) -> Vec<usize> {
    let n = reach.len();
    let mut maxima = Vec::new();
    for m in 1..n {
        let v = reach[m];
        if v.is_infinite() {
            maxima.push(m);
            continue;
        }
        let lo = m.saturating_sub(w);
        let hi = (m + w + 1).min(n);
        let dominated = (lo..hi).any(|j| reach[j] > v);
        if !dominated && (reach[m - 1] < v || (m + 1 < n && reach[m + 1] < v)) {
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

fn reference_avg_finite(reach: &[f64], start: usize, end: usize) -> f64 {
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

fn reference_build_node(
    reach: &[f64],
    start: usize,
    end: usize,
    maxima: &[usize],
    split_value: Option<f64>,
    params: &ExtractParams,
) -> ClusterNode {
    let mut node = ClusterNode {
        range: (start, end),
        split_value,
        children: Vec::new(),
    };

    for (pos, &m) in maxima.iter().enumerate() {
        if m <= start || m >= end {
            continue;
        }
        let v = reach[m];
        let significant = if v.is_infinite() {
            true
        } else {
            let bar = params.significance_ratio * v;
            reference_avg_finite(reach, start, m) < bar
                && reference_avg_finite(reach, m + 1, end) < bar
        };
        if !significant {
            continue;
        }
        let rest = &maxima[pos + 1..];
        let left_ok = m - start >= params.min_cluster_size;
        let right_ok = end - m >= params.min_cluster_size;
        if !left_ok && !right_ok {
            continue;
        }
        if left_ok {
            node.children
                .push(reference_build_node(reach, start, m, rest, Some(v), params));
        }
        if right_ok {
            node.children
                .push(reference_build_node(reach, m, end, rest, Some(v), params));
        }
        break;
    }
    node
}

fn reference_tree(reach: &[f64], params: &ExtractParams) -> ClusterNode {
    let maxima = reference_local_maxima(reach, params.min_cluster_size);
    reference_build_node(reach, 0, reach.len(), &maxima, None, params)
}

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

/// Panics at the first node where the two trees differ in range,
/// `split_value` bits or child count.
fn assert_same_tree(got: &ClusterNode, want: &ClusterNode, path: &str) {
    assert_eq!(got.range, want.range, "range at {path}");
    assert_eq!(
        got.split_value.map(f64::to_bits),
        want.split_value.map(f64::to_bits),
        "split_value at {path} {:?}",
        got.range
    );
    assert_eq!(
        got.children.len(),
        want.children.len(),
        "child count at {path} {:?}",
        got.range
    );
    for (i, (g, w)) in got.children.iter().zip(&want.children).enumerate() {
        assert_same_tree(g, w, &format!("{path}/{i}"));
    }
}

fn check(reach: &[f64], params: &ExtractParams) -> ClusterNode {
    let got = cluster_tree(&plot_of(reach), params);
    assert_same_tree(&got, &reference_tree(reach, params), "root");
    got
}

/// The average a prefix-sum difference gives for `reach[start..end]`'s
/// finite entries, with no rounding margin.
fn prefix_average(reach: &[f64], start: usize, end: usize) -> f64 {
    let prefix = |i: usize| -> (f64, usize) {
        reach[..i]
            .iter()
            .filter(|r| r.is_finite())
            .fold((0.0, 0), |(s, c), &r| (s + r, c + 1))
    };
    let ((lo, lc), (hi, hc)) = (prefix(start), prefix(end));
    (hi - lo) / (hc - lc) as f64
}

/// `[1e17, 1 ×5, ∞, x ×5, spike, x ×5]`: the leading entry is 2^56.5, so
/// its unit in the last place is 16 and every prefix sum after it rounds
/// each `x` to a multiple of 16 — down to nothing for `x` < 8, up to 16
/// for `x` > 8. The `∞` splits the root unconditionally; the right child
/// `[6, 18)` then tests the spike at index 12 against flanks whose fold
/// average is exactly `x`.
fn absorbed_flanks(x: f64, spike: f64) -> Vec<f64> {
    let mut reach = vec![1e17];
    reach.extend([1.0; 5]);
    reach.push(INF);
    reach.extend([x; 5]);
    reach.push(spike);
    reach.extend([x; 5]);
    reach
}

/// Asserts that a prefix-sum difference without margin decides both of
/// the spike's flanks the other way from the fold.
fn assert_prefix_misjudges(reach: &[f64], bar: f64) {
    for (start, end) in [(6, 12), (13, 18)] {
        let fold = reference_avg_finite(reach, start, end) < bar;
        let prefix = prefix_average(reach, start, end) < bar;
        assert_ne!(fold, prefix, "flank {start}..{end} is not a trap");
    }
}

#[test]
fn fold_decides_a_flank_whose_prefix_average_rounds_below_the_bar() {
    // x = 6 is absorbed: the prefix average is 0, the fold's is 6, and
    // the bar 0.75 · 8 = 6 is exactly the fold's, so the spike must not
    // split.
    let reach = absorbed_flanks(6.0, 8.0);
    assert_prefix_misjudges(&reach, 0.75 * 8.0);
    let tree = check(&reach, &ExtractParams::with_min_size(3));
    assert_eq!(tree.children.len(), 2);
    assert!(tree.children[1].children.is_empty(), "{tree:?}");
}

#[test]
fn fold_decides_a_flank_whose_prefix_average_rounds_above_the_bar() {
    // x = 9 rounds up to 16: the prefix average is 16, the fold's is 9,
    // and the bar 0.75 · 12.5 = 9.375 lies between, so the spike splits.
    let reach = absorbed_flanks(9.0, 12.5);
    assert_prefix_misjudges(&reach, 0.75 * 12.5);
    let tree = check(&reach, &ExtractParams::with_min_size(3));
    assert_eq!(tree.children.len(), 2);
    let right = &tree.children[1];
    assert_eq!(right.children.len(), 2, "{tree:?}");
    assert_eq!(right.children[1].range, (12, 18));
    assert_eq!(right.children[1].split_value, Some(12.5));
}

#[test]
fn overflowing_prefix_sums_fall_back_to_the_fold() {
    // The two leading entries overflow every prefix sum after them to ∞,
    // so each flank difference is NaN; the fold still sees 1.0 < 1.5.
    let mut reach = vec![1.7e308, 1.7e308, INF];
    reach.extend([1.0; 4]);
    reach.push(2.0);
    reach.extend([1.0; 4]);
    let tree = check(&reach, &ExtractParams::with_min_size(3));
    // The left flank of the ∞ is noise-sized, so `[2, 12)` is the only
    // child, and it splits at the 2.0.
    assert_eq!(tree.children.len(), 1, "{tree:?}");
    assert_eq!(tree.children[0].children.len(), 2, "{tree:?}");
}

#[test]
fn hand_built_plots_match_the_reference_at_every_min_size() {
    let mut nested = vec![INF];
    nested.extend([0.1; 6]);
    nested.push(1.0);
    nested.extend([0.1; 6]);
    nested.push(10.0);
    nested.extend([0.3; 6]);
    let plots: Vec<Vec<f64>> = vec![
        vec![],
        vec![INF],
        vec![INF, 0.1],
        vec![INF, 0.1, 0.1, 0.1, 3.0, 3.0, 0.1, 0.1, 0.1],
        vec![INF, 0.5, 0.5, 0.5, 0.5, INF, 0.5, 0.5, 0.5, 0.5],
        vec![INF, -0.0, -0.0, 0.0, 1.0, -0.0, 0.0, -0.0],
        vec![INF, f64::NAN, 0.1, 0.1, 5.0, f64::NAN, 0.1, 0.1],
        vec![INF, 1e-300, 1e-300, 4e-300, 1e-300, 1e-300],
        vec![INF, 1e300, 1e300, 4e300, 1e300, 1e300, 1e-300, 5e299],
        nested,
    ];
    for reach in &plots {
        for min_size in MIN_SIZES {
            check(reach, &ExtractParams::with_min_size(min_size));
        }
    }
}

/// A run of equal reachabilities: `(kind, mantissa, exponent, length)`,
/// decoded by [`run_value`].
type RunRaw = (u32, f64, i32, usize);

fn run_strategy() -> impl Strategy<Value = RunRaw> {
    (0u32..13, 1.0f64..10.0, -300i32..=300, 1usize..12)
}

/// A run's value at the plot's scale `10^exp`: mostly bubble-follower
/// values, then spikes, component starts, signed zeros, NaN, and values at
/// their own magnitude regardless of the scale.
fn run_value((kind, mantissa, own_exp, _): RunRaw, exp: i32) -> f64 {
    let scale = 10f64.powi(exp);
    match kind {
        0..=5 => mantissa * scale,
        6 | 7 => mantissa * 1e3 * scale,
        8 => INF,
        9 => -0.0,
        10 => 0.0,
        11 => f64::NAN,
        _ => mantissa * 10f64.powi(own_exp),
    }
}

fn plot_from_runs(runs: &[RunRaw], exp: i32) -> Vec<f64> {
    let mut reach = vec![INF];
    for &run in runs {
        reach.extend(std::iter::repeat_n(run_value(run, exp), run.3));
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Prefix-sum extraction ≡ fold-per-test extraction, node by node.
    #[test]
    fn cluster_tree_matches_fold_reference(
        runs in prop::collection::vec(run_strategy(), 0..60),
        exp in -300i32..=296,
        ratio in (0u32..4, 0.05f64..1.5),
    ) {
        let reach = plot_from_runs(&runs, exp);
        let significance_ratio = if ratio.0 < 3 { 0.75 } else { ratio.1 };
        for min_cluster_size in MIN_SIZES {
            check(&reach, &ExtractParams { significance_ratio, min_cluster_size });
        }
    }
}
