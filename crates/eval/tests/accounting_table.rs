//! Tests for the evaluation-side bookkeeping: distance accounting over
//! merged parallel counters, and the stability of the table renderer the
//! experiment harness prints (golden outputs — downstream scripts parse
//! them).

use idb_eval::accounting::{distance_saving_factor, rebuild_cost};
use idb_eval::table::Table;
use idb_geometry::{NearestSeeds, Parallelism, SearchStats, SeedSearch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// accounting: counter merging
// ---------------------------------------------------------------------------

/// Merging per-worker counters is plain u64 addition, so any chunking of
/// the same work must sum to the same totals — and feed the same Figure 11
/// saving factor.
#[test]
fn merged_counters_sum_like_one_counter() {
    let mut rng = StdRng::seed_from_u64(0xACC0);
    for _ in 0..200 {
        // Arbitrary per-worker shares of a search.
        let workers = rng.gen_range(1..=8);
        let shares: Vec<SearchStats> = (0..workers)
            .map(|_| SearchStats {
                computed: rng.gen_range(0..10_000),
                pruned: rng.gen_range(0..10_000),
                partial: rng.gen_range(0..10_000),
            })
            .collect();
        let mut merged = SearchStats::new();
        for s in &shares {
            merged += *s;
        }
        assert_eq!(
            merged.computed,
            shares.iter().map(|s| s.computed).sum::<u64>()
        );
        assert_eq!(merged.pruned, shares.iter().map(|s| s.pruned).sum::<u64>());
        assert_eq!(
            merged.partial,
            shares.iter().map(|s| s.partial).sum::<u64>()
        );
        // The saving factor only sees the merged totals; chunking must not
        // be observable through it.
        let n = rng.gen_range(1..1_000_000u64);
        let s = rng.gen_range(1..1_000u64);
        let direct = distance_saving_factor(n, s, merged);
        if merged.computed > 0 {
            assert_eq!(direct, rebuild_cost(n, s) as f64 / merged.computed as f64);
        } else {
            assert!(direct.is_infinite());
        }
    }
}

/// End to end: counters produced by the *actual* parallel batch assignment
/// (per-worker counters merged in chunk order) yield the same accounting
/// as a serial run, for every thread count.
#[test]
fn parallel_assignment_counters_yield_identical_accounting() {
    let mut rng = StdRng::seed_from_u64(0xACC1);
    for _ in 0..50 {
        let dim = rng.gen_range(1..=4);
        let mut seeds = NearestSeeds::new(dim);
        for _ in 0..rng.gen_range(2..=20) {
            let s: Vec<f64> = (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
            seeds.push(&s);
        }
        let queries: Vec<f64> = (0..rng.gen_range(1usize..=50) * dim)
            .map(|_| rng.gen_range(-12.0..12.0))
            .collect();
        let mut serial = SearchStats::new();
        seeds.nearest_batch(
            &queries,
            None,
            SeedSearch::Pruned,
            None,
            Parallelism::Serial,
            &mut serial,
        );
        let n = 100_000u64;
        let s = seeds.len() as u64;
        let serial_factor = distance_saving_factor(n, s, serial);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(8),
        ] {
            let mut stats = SearchStats::new();
            seeds.nearest_batch(&queries, None, SeedSearch::Pruned, None, par, &mut stats);
            assert_eq!(stats, serial);
            assert_eq!(distance_saving_factor(n, s, stats), serial_factor);
        }
    }
}

#[test]
fn saving_factor_against_rebuild_baseline() {
    // 2000-point batch against 100 seeds, a third pruned outright and a
    // few early-exited: the rebuild baseline recomputes everything, the
    // incremental side is charged only for full computations.
    let inc = SearchStats {
        computed: 2_000 * 60,
        pruned: 2_000 * 34,
        partial: 2_000 * 6,
    };
    let f = distance_saving_factor(100_000, 100, inc);
    assert!((f - (100_000.0 * 100.0) / (2_000.0 * 60.0)).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// table: formatting stability
// ---------------------------------------------------------------------------

/// The renderer's exact output is a contract: aligned columns, two-space
/// gutters, dashed separator, no trailing padding.
#[test]
fn render_is_stable() {
    let mut t = Table::new(["scenario", "batches", "F"]);
    t.push_row(["random", "10", "0.91"]);
    t.push_row(["disappearing", "4", "0.8"]);
    assert_eq!(
        t.render(),
        "scenario      batches  F\n\
         ------------  -------  ----\n\
         random        10       0.91\n\
         disappearing  4        0.8\n"
    );
}

/// The per-engine accounting table the assignment report prints carries
/// the full computed/pruned/partial split; its rendering is part of the
/// golden-output contract like every other table.
#[test]
fn accounting_table_renders_partial_column() {
    let stats = SearchStats {
        computed: 1_500,
        pruned: 7_900,
        partial: 600,
    };
    let mut t = Table::new(["engine", "computed", "pruned", "partial", "pruned_frac"]);
    t.push_row([
        "pruned",
        stats.computed.to_string().as_str(),
        stats.pruned.to_string().as_str(),
        stats.partial.to_string().as_str(),
        format!("{:.2}", stats.pruned_fraction()).as_str(),
    ]);
    assert_eq!(
        t.render(),
        "engine  computed  pruned  partial  pruned_frac\n\
         ------  --------  ------  -------  -----------\n\
         pruned  1500      7900    600      0.79\n"
    );
}

#[test]
fn csv_is_stable_and_escapes_commas() {
    let mut t = Table::new(["name", "value"]);
    t.push_row(["a,b", "1"]);
    t.push_row(["plain", "2"]);
    assert_eq!(t.to_csv(), "name,value\na;b,1\nplain,2\n");
}

#[test]
fn empty_table_renders_header_and_separator_only() {
    let t = Table::new(["col"]);
    assert!(t.is_empty());
    assert_eq!(t.render(), "col\n---\n");
    assert_eq!(t.to_csv(), "col\n");
}

#[test]
#[should_panic(expected = "row width mismatch")]
fn ragged_row_panics() {
    let mut t = Table::new(["a", "b"]);
    t.push_row(["only one"]);
}
