//! Zero-dependency observability for the incremental data bubbles stack:
//! a metrics registry of named monotonic counters and fixed-bucket
//! latency histograms, and a structured op journal of typed events behind
//! a pluggable [`Recorder`].
//!
//! The paper's evaluation (Figures 8–10) is built on per-operation cost
//! accounting — pruned vs. computed distances, maintenance work per
//! update batch, which structural operations fire. This crate makes that
//! accounting first-class and always-on-capable:
//!
//! * [`MetricsRegistry`] — lock-free counters and histograms; parallel
//!   sections accumulate into per-worker shards folded in chunk order, so
//!   counter values stay bit-identical across `Parallelism` modes;
//! * [`Event`] / [`EventKind`] — one typed journal entry per structural
//!   op (insert, delete, merge-away, split, maintenance round,
//!   audit/repair), durability action (WAL append/commit, checkpoint) and
//!   recovery step, carrying cause, affected bubble ids and duration;
//! * [`Recorder`] — where events go: [`NullRecorder`] (default, free),
//!   [`RingRecorder`] (tests), [`JsonlRecorder`] (files);
//! * [`Obs`] — the cheap cloneable handle instrumented components carry;
//!   callers pick the recorder explicitly, and [`Obs::disabled`] is the
//!   default everywhere;
//! * [`check_journal`] — the journal invariants the robustness suites and
//!   the CI checker assert.
//!
//! Event streams are emitted only from the thread driving the maintainer,
//! so the journal is deterministic; the duration field is the single
//! wall-clock-dependent value and equivalence suites compare through
//! [`Event::masked`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod event;
mod metrics;
mod obs;
mod recorder;

pub use check::{check_journal, check_journal_sharded, JournalSummary};
pub use event::{Cause, Event, EventKind, SinkOp};
pub use metrics::{Counter, Histogram, MetricsRegistry, LATENCY_BOUNDS_US};
pub use obs::{Obs, ObsTimer};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, RingRecorder};
