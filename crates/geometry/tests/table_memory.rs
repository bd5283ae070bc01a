//! The seed neighbor table costs `12 · s²` bytes and no `s × s` matrix.
//!
//! A counting global allocator tracks the peak of live heap bytes while
//! `from_seeds` builds a table at `s = 512`. The rows hold a `u32` id and
//! an `f64` distance per entry, `12 · s²` bytes; the bound is `13 · s²`, so
//! a second `s × s` (or `s × capacity`) buffer of `f64`s cannot come back.
//! This file holds a single test, so no other test allocates while it
//! measures.

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
fn from_seeds_stays_within_thirteen_s_squared_bytes() {
    const S: usize = 512;
    const D: usize = 10;
    // A deterministic spread of seeds (no RNG: nothing else may allocate).
    let flat: Vec<f64> = (0..S * D)
        .map(|k| ((k * 7919) % 1009) as f64 * 0.37 - 150.0)
        .collect();

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let seeds = NearestSeeds::from_seeds(D, flat.chunks_exact(D));
    let peak = PEAK.load(Ordering::SeqCst) - base;
    let kept = LIVE.load(Ordering::SeqCst) - base;

    assert_eq!(seeds.len(), S);
    let table = 12 * S * S;
    let bound = 13 * S * S;
    assert!(
        kept >= table,
        "the rows alone are {table} bytes, kept {kept}"
    );
    assert!(
        peak <= bound,
        "from_seeds peaked at {peak} heap bytes, above 13·s² = {bound}"
    );
    drop(seeds);
}
