#!/usr/bin/env bash
# Full local CI gate: build, the tier-1 tests and the workspace test
# suite, the file-backed crash smoke under extra seeds, observability
# journal validation, the report checks, the paper's figures against
# their committed CSVs, release and native-codegen
# re-runs of the kernel-sensitive suites, lints, rustdoc warnings,
# formatting, and the benchmark's own tests, lints and formatting.
#
# The library reads no behaviour knobs from the environment: every
# configuration axis — assignment engine, thread count, shard count,
# hot-point budget, disk budget, journaling — is an explicit loop inside
# the suite it concerns (DESIGN.md §9–§17), so a single workspace run
# covers them all.
#
# Set CARGOFLAGS to pass extra flags to every cargo invocation (e.g.
# CARGOFLAGS="--config /path/to/offline-overrides.toml" in air-gapped
# environments; the flags go after the subcommand so they reach external
# subcommands like clippy too).
set -euo pipefail
cd "$(dirname "$0")"
CARGOFLAGS=${CARGOFLAGS:-}

# Hermetic scratch space, throwaway paths rather than behaviour switches:
# file-backed tests and the reports write WALs, checkpoints and JSONL
# journals under IDB_WAL_DIR, and tiered runs spill cold points into
# files under IDB_COLD_DIR.
IDB_WAL_DIR="$(mktemp -d)"
IDB_COLD_DIR="$(mktemp -d)"
export IDB_WAL_DIR IDB_COLD_DIR
trap 'rm -rf "$IDB_WAL_DIR" "$IDB_COLD_DIR"' EXIT

# shellcheck disable=SC2086  # CARGOFLAGS is intentionally word-split.
cargo build $CARGOFLAGS --release
cargo test $CARGOFLAGS -q
cargo test $CARGOFLAGS -q --workspace
# The file-backed kill-at-random-crash-point smoke under a few more seeds
# (each seed picks a different scenario and crash byte).
for crash_seed in 11 1986 777216; do
    IDB_CRASH_SEED="$crash_seed" cargo test $CARGOFLAGS -q -p idb-core --test crash_consistency \
        kill_at_random_crash_point_smoke
done
# A tiered store removes its cold spill when its last handle drops
# (DESIGN.md §17), so the test runs above leave nothing under IDB_COLD_DIR.
if [ -n "$(find "$IDB_COLD_DIR" -mindepth 1 -print -quit)" ]; then
    echo "ci: the test runs left files under IDB_COLD_DIR:" >&2
    find "$IDB_COLD_DIR" -mindepth 1 >&2
    exit 1
fi
# Observability (DESIGN.md §12): the JSONL journals the core differential
# suite wrote above, parsed from disk and checked against the seven
# op-journal invariants of crates/obs/src/check.rs (split pairing, batch
# accounting, non-empty commit groups, rotation and compaction
# monotonicity, chunk streams, nonzero tier traffic).
cargo run $CARGOFLAGS --release -q -p idb-bench --bin journal_check -- "$IDB_WAL_DIR/idb-journals"
# Report smoke runs with their checks: the assignment report's
# engine agreement (every engine, warm-started or not, leaves the same
# bubbles and the same candidate total on the last run of each flow; §15),
# the shard report (DESIGN.md §13),
# the delta report's per-epoch bit-identity with the full pipeline and
# delta-stream replay (§14), the kernel report's 1.5x speedup at
# d >= 64, which also times the seed neighbor table's `from_seeds` build,
# checks every row against a fresh `from_seeds` after 768 re-seeds the rows
# settle lazily, and reads its repair ledger off a live maintainer (§15),
# the durability report's bounded WAL footprint over 2,500 batches (§16),
# its tiered ≡ resident snapshot bytes (§17) and its codec checks (sliced
# CRC ≡ the byte loop, a full checkpoint encoded over a file spill ≡ the
# resident blob, decode → re-encode ≡ the blob; §16–§17), the parallel report's
# partition replay ≡ threaded counters (§9), and the summary report's
# point-level and bubble OPTICS plots covering every point.
for report in assign shard delta kernel durability parallel summary; do
    cargo run $CARGOFLAGS --release -q -p idb-bench --bin "${report}_report" -- \
        "$IDB_WAL_DIR/BENCH_${report}_smoke.json"
done
# The paper's figures, pinned: the deterministic experiment runs (Table 1,
# Figs. 7-11 and the ablation at the quick configuration, Figs. 9-11 at the
# paper's scale) must write exactly the committed CSVs in results/.
# scaling.csv holds wall-clock times and is not compared.
figures="$IDB_WAL_DIR/figures"
mkdir -p "$figures/paper"
for figure in table1 sweeps fig7 fig8 ablation; do
    cargo run $CARGOFLAGS --release -q -p idb-experiments --bin experiments -- \
        "$figure" --out "$figures" > /dev/null
done
cargo run $CARGOFLAGS --release -q -p idb-experiments --bin experiments -- \
    sweeps --paper --out "$figures/paper" > /dev/null
for csv in table1 fig7 fig8_points_start fig8_points_mid fig8_points_end fig8_populations \
    fig9 fig10 fig11 ablation paper/fig9 paper/fig10 paper/fig11; do
    cmp "$figures/$csv.csv" "results/$csv.csv"
done
# The column kernel of the bubble OPTICS walk is vectorised only with
# optimisations on, so its equivalence with the heap reference (and that
# of the cluster-tree extraction with the fold reference) also runs on
# release codegen.
cargo test $CARGOFLAGS -q --release -p idb-clustering --test optics_equivalence
cargo test $CARGOFLAGS -q --release -p idb-clustering --test extract_equivalence
# Bit-identity must survive wider codegen: re-run the kernel property
# suite (its early-exit kernel must reject exactly above the bound), the
# engines' differential suite (equal, counts included, to the reference
# walk over the every-block kernel), the equivalence of the
# incrementally repaired seed neighbor table with a fresh build, the
# re-baseline audit, the equivalence of the column-major OPTICS walk with
# the heap reference and that of the prefix-sum cluster-tree extraction
# with the fold reference (its rounding margin must hold under fused or
# reordered arithmetic too) under the host's full instruction set, the
# kernel and differential suites and the last two in debug and in
# release.
# Guarded — skipped with a notice when the toolchain/target rejects the
# flag (e.g. cross-compilation or unsupported CPUs).
if RUSTFLAGS="-C target-cpu=native" cargo check $CARGOFLAGS -q -p idb-geometry 2>/dev/null; then
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-geometry --test kernels
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-geometry --test differential
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-geometry --test table_equivalence
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-delta --test rebaseline_audit
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-clustering --test optics_equivalence
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-clustering --test extract_equivalence
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q --release -p idb-geometry --test kernels
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q --release -p idb-geometry --test differential
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q --release -p idb-clustering --test optics_equivalence
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q --release -p idb-clustering --test extract_equivalence
else
    echo "ci: target-cpu=native unsupported here; skipping native-codegen pass"
fi
# Lint every workspace crate's lib, bins, tests and examples.
cargo clippy $CARGOFLAGS --workspace --lib --bins --tests --examples -- -D warnings
# Rustdoc warnings fail too, so a doc link to a deleted or private item
# cannot linger.
RUSTDOCFLAGS="-D warnings" cargo doc $CARGOFLAGS --workspace --no-deps
cargo fmt --check
# The benchmark is its own package outside the workspace; it refuses to
# run under any IDB_* variable, so its checks run without the scratch
# paths.
(
    unset IDB_WAL_DIR IDB_COLD_DIR
    cargo test $CARGOFLAGS -q --release --manifest-path stackbench/Cargo.toml
    cargo clippy $CARGOFLAGS --manifest-path stackbench/Cargo.toml --all-targets -- -D warnings
    cargo fmt --check --manifest-path stackbench/Cargo.toml
)

echo "ci: all green"
