//! The replace log holds `O(s · d)` memory, not a pending list per row.
//!
//! A counting global allocator tracks the peak of live heap bytes while a
//! table at `s = 512`, `d = 10` is built and then re-seeded `4 · s` times
//! with no row read in between. The rows are `12 · s²` bytes; the bound is
//! `13 · s² + 64 · s · d`, which leaves room for the log (at most `s + 1`
//! records of `d` coordinates before it folds into every row) and none for
//! pending re-seeds kept per row (`s` rows × `4 · s` records). This file
//! holds a single test, so no other test allocates while it measures.

use idb_geometry::NearestSeeds;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grow(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrink(size: usize) {
        LIVE.fetch_sub(size, Ordering::SeqCst);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks may both be live while the data moves.
        Self::grow(new_size);
        let out = System.realloc(ptr, layout, new_size);
        Self::shrink(if out.is_null() {
            new_size
        } else {
            layout.size()
        });
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn unread_reseeds_stay_within_the_log_bound() {
    const S: usize = 512;
    const D: usize = 10;
    // Deterministic seeds and re-seed targets, allocated before the
    // measurement starts (no RNG: nothing else may allocate).
    let coord = |k: usize| ((k * 7919) % 1009) as f64 * 0.37 - 150.0;
    let flat: Vec<f64> = (0..S * D).map(coord).collect();
    let moves: Vec<f64> = (0..4 * S * D).map(|k| coord(k + 31 * S * D)).collect();

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let mut seeds = NearestSeeds::from_seeds(D, flat.chunks_exact(D));
    for (k, p) in moves.chunks_exact(D).enumerate() {
        seeds.replace((k * 37) % S, p);
    }
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(seeds.len(), S);
    let bound = 13 * S * S + 64 * S * D;
    assert!(
        peak <= bound,
        "{} unread re-seeds peaked at {peak} heap bytes, above 13·s² + 64·s·d = {bound}",
        4 * S
    );
    drop(seeds);
}
