//! Deterministic fan-out of hot loops over scoped worker threads.
//!
//! The paper's efficiency results are stated in *distance computations*,
//! so any parallel execution of the assignment and maintenance hot paths
//! must leave the instrumented counters — and every other output — exactly
//! as the serial code produces them. The scheme used throughout the
//! workspace guarantees that by construction:
//!
//! * work is split into **contiguous chunks** of the input (never
//!   work-stealing, never interleaving), so each item is processed by
//!   exactly one worker with the same per-item code the serial loop runs;
//! * each worker accumulates into **its own** [`SearchStats`] counter and
//!   result buffer; nothing is shared mutably across threads;
//! * chunk results are collected **in chunk order** and merged by
//!   concatenation (results) and addition (counters). Per-item outputs are
//!   independent of every other item, and `u64` addition is associative
//!   and commutative, so the merged values are bit-identical to the serial
//!   ones regardless of thread count or scheduling.
//!
//! Workers are plain `std::thread::scope` threads — no thread pool, no
//! extra dependencies. Spawning a handful of OS threads costs a few
//! microseconds, which is negligible against the O(N·s·d) scans being
//! fanned out; callers gate tiny inputs to the serial path anyway via
//! [`Parallelism::Serial`].
//!
//! [`SearchStats`]: crate::stats::SearchStats

/// How a bulk operation spreads its work over threads.
///
/// Threaded through [`MaintainerConfig`](../../idb_core/config/index.html)
/// so experiments, benches and tests can pin the execution mode. All modes
/// produce identical results (see the module docs); the choice only
/// affects wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run in the calling thread, exactly like the pre-parallel code.
    #[default]
    Serial,
    /// Fan out over this many worker threads (values are clamped to at
    /// least 1; `Threads(1)` still runs in the calling thread).
    Threads(usize),
    /// Fan out over [`std::thread::available_parallelism`] threads.
    Auto,
}

impl Parallelism {
    /// Number of worker threads this mode resolves to (always ≥ 1).
    #[must_use]
    pub fn effective_threads(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Threads(n) => n.max(1),
            Self::Auto => std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// Splits `items` into chunks of `chunk_len` and runs `f` on every chunk —
/// in the calling thread when a single chunk suffices, otherwise one
/// scoped worker thread per chunk. Returns the chunk results **in chunk
/// order**.
///
/// # Panics
/// Panics if `chunk_len == 0` (with non-empty input), or propagates a
/// worker panic.
pub fn run_chunks_with_len<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    if items.len() <= chunk_len {
        return vec![f(items)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Splits the index range `0..len` into contiguous sub-ranges of
/// `chunk_len` and runs `f` on every sub-range — in the calling thread
/// when a single range suffices, otherwise one scoped worker thread per
/// range. Returns the results **in range order**.
///
/// This is the index-space twin of [`run_chunks_with_len`] for callers
/// that must slice *several* parallel buffers consistently (e.g. a query
/// buffer plus a per-query hint array): the worker receives the index
/// range and slices whatever it needs.
///
/// # Panics
/// Panics if `chunk_len == 0` (with `len > 0`), or propagates a worker
/// panic.
pub fn run_ranges<R, F>(len: usize, chunk_len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    if len <= chunk_len {
        return vec![f(0..len)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..len)
            .step_by(chunk_len)
            .map(|start| {
                let end = (start + chunk_len).min(len);
                scope.spawn(move || f(start..end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// [`run_chunks_with_len`] with the chunk length derived from a worker
/// count: `threads` contiguous chunks of near-equal size (`threads ≤ 1`
/// degenerates to one serial chunk).
pub fn run_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_len = items.len().div_ceil(threads.max(1));
    run_chunks_with_len(items, chunk_len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(Parallelism::Serial.effective_threads(), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(8).effective_threads(), 8);
        assert!(Parallelism::Auto.effective_threads() >= 1);
    }

    #[test]
    fn run_chunks_covers_all_items_in_order() {
        let items: Vec<u32> = (0..103).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let chunks = run_chunks(&items, threads, |c| c.to_vec());
            let flat: Vec<u32> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads = {threads}");
        }
    }

    #[test]
    fn run_chunks_empty_input() {
        let chunks = run_chunks::<u32, Vec<u32>, _>(&[], 4, |c| c.to_vec());
        assert!(chunks.is_empty());
    }

    #[test]
    fn chunked_sums_match_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: u64 = items.iter().sum();
        for threads in [2usize, 4, 7] {
            let total: u64 = run_chunks(&items, threads, |c| c.iter().sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, serial);
        }
    }

    #[test]
    fn run_ranges_covers_every_index_in_order() {
        for (len, chunk) in [(103usize, 10usize), (10, 10), (10, 100), (7, 1)] {
            let ranges = run_ranges(len, chunk, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(flat, (0..len).collect::<Vec<usize>>(), "{len}/{chunk}");
        }
        assert!(run_ranges(0, 4, |r| r.len()).is_empty());
    }

    #[test]
    fn with_len_respects_stride_boundaries() {
        // A stride-3 layout must never be split mid-record.
        let items: Vec<f64> = (0..99).map(|i| i as f64).collect();
        let chunks = run_chunks_with_len(&items, 3 * 4, |c| {
            assert_eq!(c.len() % 3, 0);
            c.len()
        });
        assert_eq!(chunks.iter().sum::<usize>(), 99);
    }
}
