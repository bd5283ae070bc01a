//! Incremental data bubbles — the primary contribution of
//! *"Incremental and Effective Data Summarization for Dynamic Hierarchical
//! Clustering"* (Nassar, Sander, Cheng; SIGMOD 2004).
//!
//! A *data bubble* compresses a set of points into sufficient statistics
//! `(n, LS, SS)` from which a representative, a spatial extent and expected
//! k-nearest-neighbour distances can be derived — exactly the quantities a
//! hierarchical clustering algorithm such as OPTICS needs to operate on the
//! summary instead of the raw database.
//!
//! This crate provides:
//!
//! * [`stats::SufficientStats`] — the `(n, LS, SS)` triple with its derived
//!   quantities and exact increment/decrement updates;
//! * [`bubble::Bubble`] and the [`bubble::DataSummary`] trait — one
//!   maintained bubble (seed anchor, statistics, member list) and the
//!   abstract summary interface the clustering crate consumes;
//! * [`quality`] — the data summarization index β, Chebyshev-based
//!   classification into *good* / *under-filled* / *over-filled* bubbles
//!   (Definition 3), and the extent-based alternative measure the paper
//!   shows to fail (Figure 7);
//! * [`incremental::IncrementalBubbles`] — construction over a
//!   [`PointStore`](idb_store::PointStore), per-point insertion/deletion
//!   with exact statistics updates, batch application, and the synchronized
//!   merge/split maintenance of Section 4.2;
//! * [`config`] — tuning knobs (number of bubbles, Chebyshev probability,
//!   seed-search engine and warm-start hints, quality measure, split seed
//!   policy);
//! * [`error`] — the typed failure surface of the fault-tolerant entry
//!   points: batch validation errors, the invariant auditor's findings,
//!   and the audit/repair reports.
//!
//! The *complete rebuild* baseline of the paper's evaluation is simply
//! [`incremental::IncrementalBubbles::build`] invoked on the current store
//! contents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bubble;
pub mod config;
pub mod error;
pub mod incremental;
pub mod quality;
pub mod recovery;
pub mod snapshot;
pub mod stats;

pub use bubble::{Bubble, DataSummary};
pub use config::{MaintainerConfig, Parallelism, QualityKind, SeedSearch, SplitSeedPolicy};
pub use error::{AuditError, AuditIssue, AuditReport, RepairReport, UpdateError};
pub use incremental::{IncrementalBubbles, MaintenanceReport};
pub use quality::{chebyshev_k, BubbleClass, Classification};
pub use recovery::{
    checkpoint_name, encode_checkpoint, recover, recover_chain, CheckpointStore, DurabilityConfig,
    DurableMaintainer, FsCheckpoints, Health, Recovered, RecoveryError, DELTA_CHECKPOINT_MAGIC,
};
pub use stats::SufficientStats;
