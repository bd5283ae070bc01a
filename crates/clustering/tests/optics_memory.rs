//! Bubble OPTICS works in `O(s)` memory: each bubble's distance row is
//! computed when the walk reaches it, so no `s × s` matrix is ever
//! allocated.
//!
//! A counting global allocator tracks the peak of live heap bytes while
//! one ordering runs at `s = 4,000`. A materialised matrix alone would be
//! `s² · 8` = 128 MB; the bound is `64 · s · 8` bytes. This file holds a
//! single test, so no other test allocates while it measures.

use idb_clustering::optics_bubbles;
use idb_core::DataSummary;
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

/// A weighted ball.
struct Orb {
    at: [f64; 2],
    count: u64,
    radius: f64,
}

impl DataSummary for Orb {
    fn dim(&self) -> usize {
        2
    }
    fn n(&self) -> u64 {
        self.count
    }
    fn rep(&self) -> Vec<f64> {
        self.at.to_vec()
    }
    fn extent(&self) -> f64 {
        self.radius
    }
    fn nn_dist(&self, k: usize) -> f64 {
        self.radius * (k as f64).sqrt() / (self.count as f64).sqrt()
    }
}

#[test]
fn ordering_allocates_no_quadratic_buffer() {
    const S: usize = 4_000;
    const MIN_PTS: usize = 10;
    // Counts 1..=20 around `MIN_PTS`, so both the pending-only rows of
    // core bubbles and the full rows of small ones are computed.
    let orbs: Vec<Orb> = (0..S)
        .map(|i| Orb {
            at: [(i % 64) as f64 * 1.5, (i / 64) as f64 * 1.5],
            count: 1 + (i % 20) as u64,
            radius: 0.4 + (i % 7) as f64 * 0.05,
        })
        .collect();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let ordering = optics_bubbles(&orbs, f64::INFINITY, MIN_PTS);
    let peak = PEAK.load(Ordering::SeqCst) - before;

    assert_eq!(ordering.len(), S);
    let bound = 64 * S * std::mem::size_of::<f64>();
    assert!(
        peak < bound,
        "OPTICS over {S} bubbles peaked at {peak} live bytes (bound {bound})"
    );
}
