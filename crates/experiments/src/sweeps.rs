//! Figures 9, 10 and 11 — the update-size sweeps on the complex database.
//!
//! All three figures vary the batch size (percentage of the database
//! deleted and inserted per batch) on the complex scenario and plot one
//! bookkeeping metric:
//!
//! * **Figure 9** — average percentage of bubbles rebuilt per maintenance
//!   round (small; grows with update size).
//! * **Figure 10** — percentage of point-to-seed distance computations
//!   the pruned engine saves (the paper: 60–80 %, slowly decreasing), as
//!   Lemma 1 prunes and as bound-rejected partial evaluations, next to
//!   their sum.
//! * **Figure 11** — the distance saving factor of incremental+TI over a
//!   complete rebuild without TI (the paper: ≈200× at 2 % updates down to
//!   ≈40× at 10 %), with partial evaluations counted as free and, in the
//!   paper's currency, as computed.

use crate::common::{f1, run_rep_with, RunConfig};
use idb_eval::{write_csv, Aggregate, Table};
use idb_synth::ScenarioKind;

/// The update sizes the paper sweeps (fractions of the database).
pub const UPDATE_FRACTIONS: [f64; 5] = [0.02, 0.04, 0.06, 0.08, 0.10];

struct SweepPoint {
    update_pct: f64,
    rebuilt_pct: Aggregate,
    avoided_pct: Aggregate,
    pruned_pct: Aggregate,
    partial_pct: Aggregate,
    saving: Aggregate,
    saving_with_partials: Aggregate,
}

fn sweep(cfg: &RunConfig) -> Vec<SweepPoint> {
    UPDATE_FRACTIONS
        .iter()
        .map(|&f| {
            let mut point = SweepPoint {
                update_pct: f * 100.0,
                rebuilt_pct: Aggregate::new(),
                avoided_pct: Aggregate::new(),
                pruned_pct: Aggregate::new(),
                partial_pct: Aggregate::new(),
                saving: Aggregate::new(),
                saving_with_partials: Aggregate::new(),
            };
            let cfg_f = RunConfig {
                update_fraction: f,
                ..cfg.clone()
            };
            for rep in 0..cfg.reps {
                let out = run_rep_with(ScenarioKind::Complex, 2, &cfg_f, rep, false);
                point.rebuilt_pct.push(out.rebuilt_fraction * 100.0);
                point.avoided_pct.push(out.avoided_fraction * 100.0);
                point.pruned_pct.push(out.pruned_fraction * 100.0);
                point.partial_pct.push(out.partial_fraction * 100.0);
                point.saving.push(out.saving_factor);
                point
                    .saving_with_partials
                    .push(out.saving_factor_with_partials);
            }
            eprintln!("  finished update size {:.0} %", f * 100.0);
            point
        })
        .collect()
}

/// Runs all three sweeps in one pass (they share the runs) and emits each
/// figure's series. `which` selects the figures to print: any subset of
/// {9, 10, 11}.
pub fn run(cfg: &RunConfig, which: &[u8]) {
    println!(
        "Figures {:?}: update-size sweeps on the complex database ({} reps, \
         {} points, {} bubbles, {} batches each)",
        which, cfg.reps, cfg.size, cfg.num_bubbles, cfg.batches
    );
    let points = sweep(cfg);

    if which.contains(&9) {
        let mut t = Table::new(["update %", "rebuilt bubbles % (mean)", "std"]);
        for p in &points {
            t.push_row([
                f1(p.update_pct),
                format!("{:.2}", p.rebuilt_pct.mean()),
                format!("{:.2}", p.rebuilt_pct.std_dev()),
            ]);
        }
        println!("\nFigure 9: average % of rebuilt data bubbles vs % of points updated");
        println!("{}", t.render());
        write_csv(&t, &cfg.out_dir.join("fig9.csv")).expect("write fig9.csv");
        println!("expected shape: a small percentage, increasing with update size");
    }

    if which.contains(&10) {
        let mut t = Table::new([
            "update %",
            "saved % = pruned + partial (mean)",
            "std",
            "pruned % by Lemma 1 (mean)",
            "partial % (mean)",
        ]);
        for p in &points {
            t.push_row([
                f1(p.update_pct),
                f1(p.avoided_pct.mean()),
                format!("{:.2}", p.avoided_pct.std_dev()),
                f1(p.pruned_pct.mean()),
                f1(p.partial_pct.mean()),
            ]);
        }
        println!(
            "\nFigure 10: % of full distance computations saved, as Lemma 1 prunes \
             and bound-rejected partial evaluations"
        );
        println!("{}", t.render());
        write_csv(&t, &cfg.out_dir.join("fig10.csv")).expect("write fig10.csv");
        println!("expected shape: Lemma 1 prunes in the paper's 60–80 % band, slowly decreasing");
    }

    if which.contains(&11) {
        let mut t = Table::new([
            "update %",
            "saving factor with partials free (mean)",
            "std",
            "saving factor with partials computed (mean)",
        ]);
        for p in &points {
            t.push_row([
                f1(p.update_pct),
                f1(p.saving.mean()),
                f1(p.saving.std_dev()),
                f1(p.saving_with_partials.mean()),
            ]);
        }
        println!(
            "\nFigure 11: distance saving factor — complete rebuild w/o triangle \
             inequality vs incremental with it"
        );
        println!("{}", t.render());
        write_csv(&t, &cfg.out_dir.join("fig11.csv")).expect("write fig11.csv");
        println!(
            "expected shape: with partials computed, ≈200x at 2 % updates falling to ≈40x at 10 %"
        );
    }
}
