//! Order statistics over timing samples: percentiles, quartiles and the
//! tail-percentile rule. Every sort uses `f64::total_cmp`, so a NaN can
//! never panic a comparison (it sorts last).

/// The tail percentiles a workload may report, highest first.
pub const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 80];

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_MIN_ABOVE: usize = 10;

/// `values` sorted ascending by `total_cmp`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct * n / 100)` in integer arithmetic, clamped to `1..=n`.
fn rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (`pct` in 1..=100); 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sorted(values)[rank(pct, values.len()) - 1]
}

/// The median (nearest-rank p50); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// The arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest of p99/p95/p90/p80 that leaves at least
/// [`TAIL_MIN_ABOVE`] of `n` samples strictly above its nearest rank.
/// Runs too short for any of them (fewer than 50 samples) report p80.
#[must_use]
pub fn tail_rule(n: usize) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pct| n.saturating_sub(rank(pct, n)) >= TAIL_MIN_ABOVE)
        .unwrap_or(TAIL_CANDIDATES[TAIL_CANDIDATES.len() - 1])
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads here match the ones an outside
/// checker computes. Needs at least two values; a single value is its
/// own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_supported_percentile() {
        // n - ceil(pct * n / 100) >= 10.
        assert_eq!(tail_rule(1000), 99);
        assert_eq!(tail_rule(999), 95, "p99 of 999 leaves only 9 above");
        assert_eq!(tail_rule(200), 95);
        assert_eq!(tail_rule(199), 90);
        assert_eq!(tail_rule(100), 90);
        assert_eq!(tail_rule(99), 80);
        assert_eq!(tail_rule(50), 80);
        assert_eq!(tail_rule(49), 80, "too short for any: falls back to p80");
        assert_eq!(tail_rule(0), 80);
    }

    #[test]
    fn tail_rule_avoids_float_rounding() {
        // 0.99 * 1000 is 990.0000000000001 in f64; a float ceil would
        // put the rank at 991 and leave 9 above, wrongly demoting p99.
        assert_eq!(rank(99, 1000), 990);
        assert_eq!(rank(95, 200), 190);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 1.0, 2.0]), 2.0, "NaN sorts last");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }
}
