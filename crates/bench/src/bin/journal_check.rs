//! CI journal validator: parses every `*.jsonl` op journal in a
//! directory and checks the [`check_journal_sharded`] invariants over
//! each one (split pairing, batch accounting, non-empty commit groups),
//! demultiplexing interleaved multi-shard journals by their shard tag
//! so each maintainer domain is validated independently.
//!
//! Exit status is non-zero when the directory holds no journals, a file
//! is empty, a line fails to parse, or any invariant is violated — so a
//! CI run pointed at the directory a journaling test wrote its JSONL
//! into gets a hard gate over that journal.
//!
//! Usage: `journal_check <dir>`.

use idb_obs::{check_journal_sharded, Event, JournalSummary};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(dir) = std::env::args_os().nth(1).map(PathBuf::from) else {
        eprintln!("usage: journal_check <dir>");
        return ExitCode::from(2);
    };
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("journal_check: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("journal_check: no *.jsonl journals under {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut total = JournalSummary::default();
    let mut failures = 0usize;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("journal_check: cannot read {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let mut events: Vec<Event> = Vec::new();
        let mut parse_failed = false;
        for (lineno, line) in text.lines().enumerate() {
            match Event::parse_jsonl(line) {
                Some(ev) => events.push(ev),
                None => {
                    eprintln!(
                        "journal_check: {}:{}: unparseable event: {line}",
                        path.display(),
                        lineno + 1
                    );
                    parse_failed = true;
                    break;
                }
            }
        }
        if parse_failed {
            failures += 1;
            continue;
        }
        if events.is_empty() {
            eprintln!("journal_check: {} is empty", path.display());
            failures += 1;
            continue;
        }
        match check_journal_sharded(&events) {
            Ok(groups) => {
                for (_, summary) in &groups {
                    total.events += summary.events;
                    total.structural += summary.structural;
                    total.inserts += summary.inserts;
                    total.deletes += summary.deletes;
                    total.batches += summary.batches;
                    total.merges += summary.merges;
                    total.splits += summary.splits;
                    total.wal_commits += summary.wal_commits;
                    total.checkpoints += summary.checkpoints;
                    total.delta_epochs += summary.delta_epochs;
                }
            }
            Err(e) => {
                eprintln!("journal_check: {}: {e}", path.display());
                failures += 1;
            }
        }
    }

    println!(
        "journal_check: {} journals, {} events ({} structural): \
         {} inserts, {} deletes, {} batches, {} merges, {} splits, \
         {} wal commits, {} checkpoints, {} delta epochs",
        paths.len(),
        total.events,
        total.structural,
        total.inserts,
        total.deletes,
        total.batches,
        total.merges,
        total.splits,
        total.wal_commits,
        total.checkpoints,
        total.delta_epochs,
    );
    if failures > 0 {
        eprintln!(
            "journal_check: {failures} of {} journals failed",
            paths.len()
        );
        return ExitCode::FAILURE;
    }
    println!("journal_check: all green");
    ExitCode::SUCCESS
}
