//! Geometric primitives for the incremental data bubbles pipeline.
//!
//! This crate provides the low-level machinery every other crate builds on:
//!
//! * [`metric`] — Euclidean distance kernels over flat `&[f64]` coordinate
//!   slices, in plain and *instrumented* (distance-counting) flavours. The
//!   paper's Figures 10 and 11 report distance-computation counts, so the
//!   counting is a first-class citizen rather than an afterthought.
//! * [`stats`] — [`SearchStats`], the accumulator for
//!   computed vs. pruned distance calculations.
//! * [`assign`] — [`NearestSeeds`], the Figure 2
//!   algorithm of the paper: nearest-seed search that prunes candidate seeds
//!   with the triangle inequality, plus the brute-force baseline. The
//!   seed–seed distances the pruning lemma needs live in one sorted
//!   neighbor row per seed (ids with their distances inline), repaired in
//!   place when a seed is added, moved or removed.
//! * [`kdtree`] — a k-d tree for point-level range and k-NN queries, used by
//!   the point-level OPTICS and DBSCAN substrates.
//! * [`obs`] — [`SearchMetrics`], the bridge that folds
//!   `SearchStats` deltas into the shared `idb-obs` metrics registry as
//!   per-engine counter families.
//! * [`parallel`] — [`Parallelism`] (the `Serial | Threads(n) | Auto` knob
//!   threaded through every bulk entry point) and the chunked scoped-thread
//!   helpers whose merge discipline keeps parallel results bit-identical
//!   to serial ones, instrumentation included.
//!
//! Points are represented as `&[f64]` slices of a fixed dimensionality; all
//! containers store coordinates contiguously (structure-of-arrays) to keep
//! the hot distance loops cache-friendly and allocation-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod block;
pub mod kdtree;
pub mod metric;
pub mod obs;
pub mod parallel;
pub mod stats;

pub use assign::{NearestSeeds, RepairStats, SeedSearch, NO_HINT};
pub use block::SeedBlock;
pub use kdtree::KdTree;
pub use metric::{dist, sq_dist};
pub use obs::{RepairMetrics, SearchMetrics};
pub use parallel::Parallelism;
pub use stats::SearchStats;
