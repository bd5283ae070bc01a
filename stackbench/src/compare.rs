//! `stackbench compare <runs A> <runs B>`: the pairwise rule for judging
//! a change against its parent.
//!
//! Each side is a directory holding one file per run: the run's captured
//! standard output. Runs pair up in file-name order (run the sides
//! alternately and name the files so that pair `i` sorts `i`-th on both
//! sides). For every workload × end-to-end metric the verdict is:
//!
//! * **improved** — B wins at least nine tenths of the pairs (ties count
//!   for neither side) and the medians differ by more than A's
//!   interquartile range;
//! * **regressed** — B's median is worse than A's by more than the
//!   metric's bound (a share of A's median);
//! * **unresolved** — otherwise, when either side's interquartile range
//!   is wider than the bound, unless every B run beats every A run;
//! * **within bound** — otherwise.

use crate::json::{self, Json};
use crate::stats::quartiles;
use crate::workload::{Better, END_TO_END};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for parent runs `a` against change runs `b` (paired by
/// index), plus B's win fraction over the pairs.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    // Positive `gain(x, y)` means y is better than x.
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| gain(x, y) > 0.0).count();
    let win_frac = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let median_gain = gain(am, bm);
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let v = if pairs > 0 && win_frac >= 0.9 && median_gain > a3 - a1 {
        Verdict::Improved
    } else if -median_gain > bound * am.abs() {
        Verdict::Regressed
    } else if (spread(a1, a3, am) > bound || spread(b1, b3, bm) > bound)
        && !b.iter().all(|&y| a.iter().all(|&x| gain(x, y) > 0.0))
    {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (v, win_frac)
}

/// Metric values by workload, one map per run, runs in file-name order.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Reads every run file in `dir`. Traced runs (per-layer metrics) are
/// skipped: only end-to-end metrics are compared.
fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let parse_line =
            |line: &str| json::parse(line).map_err(|e| format!("{}: {e}", path.display()));
        let Some(report) = text
            .lines()
            .find(|l| l.starts_with("{\"stackbench\": \"report\""))
        else {
            return Err(format!("{}: no stackbench report line", path.display()));
        };
        let report = parse_line(report)?;
        if report.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = report
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: report names no workload", path.display()))?
            .to_string();
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result = parse_line(last)?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{}: the run's outputs were not correct",
                path.display()
            ));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}: result has no metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload).or_default().push(metrics);
    }
    Ok(runs)
}

/// Compares two run directories and renders one row per workload ×
/// metric. Returns the table and whether any verdict is "regressed".
///
/// # Errors
/// A message when a directory or run file cannot be read.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<(String, bool), String> {
    let a = load_runs(a_dir)?;
    let b = load_runs(b_dir)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<21} {:>31} {:>31} {:>5}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "win"
    );
    let mut regressed = false;
    for (workload, a_runs) in &a {
        let Some(b_runs) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<13} (no B runs)");
            continue;
        };
        for metric in &END_TO_END {
            let col = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(metric.name).copied())
                    .collect()
            };
            let (av, bv) = (col(a_runs), col(b_runs));
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (v, win) = verdict(&av, &bv, metric.better, metric.bound);
            regressed |= v == Verdict::Regressed;
            let side = |vals: &[f64]| {
                let (q1, m, q3) = quartiles(vals);
                format!("{m:.6} [{q1:.6}, {q3:.6}]")
            };
            let _ = writeln!(
                out,
                "{workload:<13} {:<21} {:>31} {:>31} {win:>5.2}  {}",
                metric.name,
                side(&av),
                side(&bv),
                v.name()
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOW: Better = Better::Lower;

    #[test]
    fn a_clear_consistent_win_is_an_improvement() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.1, 9.8, 10.0, 10.2, 9.9];
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &b, LOW, 0.1), (Verdict::Improved, 1.0));
        // The same numbers read as a regression when higher is better.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1).0, Verdict::Regressed);
    }

    #[test]
    fn a_median_shift_past_the_bound_regresses() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(verdict(&a, &b, LOW, 0.1).0, Verdict::Regressed);
        // Within a 20 % bound the same shift is tolerated.
        assert_eq!(verdict(&a, &b, LOW, 0.2).0, Verdict::WithinBound);
    }

    #[test]
    fn identical_sides_are_within_bound() {
        let a = [5.0, 5.1, 4.9, 5.0, 5.05];
        let (v, win) = verdict(&a, &a, LOW, 0.1);
        assert_eq!(v, Verdict::WithinBound);
        assert_eq!(win, 0.0, "ties count for neither side");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 8.0, 3.0, 6.0, 4.0];
        let b = [5.2, 7.0, 3.5, 6.5, 4.0];
        assert_eq!(verdict(&a, &b, LOW, 0.1).0, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let b = [2.0, 2.5, 2.9, 2.1, 2.2];
        assert_eq!(verdict(&a, &b, LOW, 0.1).0, Verdict::WithinBound);
    }

    #[test]
    fn a_small_consistent_win_inside_the_noise_is_not_an_improvement() {
        // B wins every pair, but by less than A's interquartile range.
        let a = [10.0, 10.4, 9.6, 10.2, 9.8];
        let b: Vec<f64> = a.iter().map(|x| x - 0.05).collect();
        assert_eq!(verdict(&a, &b, LOW, 0.1).0, Verdict::WithinBound);
    }
}
