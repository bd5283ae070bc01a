//! Delta-maintained clustering with typed subscription deltas.
//!
//! The maintainer crates keep the *summarization* incremental: data
//! bubbles absorb inserts and deletes in sub-linear time. Clustering the
//! bubbles is cheap because the summary keeps their count `s` small, so
//! every epoch re-runs the from-scratch pipeline (`optics_merged` →
//! `expand` → `cluster_tree`), exactly as the paper re-runs OPTICS after
//! each batch. Maintaining the clustering incrementally does not pay at
//! this scale: when most bubbles change between epochs it costs as much
//! as the pipeline itself (DESIGN.md §14). What this crate adds is what
//! the from-scratch pipeline cannot provide: cluster identity across
//! epochs.
//!
//! On top of each epoch's tree sits a subscription layer: clients
//! register an [`Interest`] (the whole tree, one subtree, or a
//! predicate) and receive typed [`ClusterDelta`]s — [`ClusterDelta::Born`],
//! [`ClusterDelta::Split`], [`ClusterDelta::Absorbed`],
//! [`ClusterDelta::MembershipChanged`], [`ClusterDelta::Retired`] —
//! with **stable cluster ids**: a cluster that persists across epochs
//! keeps its [`ClusterId`] even as its members drift, so downstream
//! consumers can track "their" cluster through churn. Replaying the
//! full delta stream into a [`TreeReplica`] reconstructs the hierarchy
//! exactly (`tests/subscriptions.rs`).
//!
//! Entry points:
//!
//! * [`DeltaEngine::maintainer_epoch`] — one unsharded
//!   [`idb_core::IncrementalBubbles`];
//! * [`router_epoch`] — every partition of an
//!   [`idb_shard::ShardRouter`], merged in partition order,
//!   bit-identical to the router's own cross-partition pass;
//! * [`DeltaEngine::epoch`] — explicit domains, for anything else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deltas;
mod engine;
mod sharded;
mod subscribe;

pub use deltas::{ClusterDelta, ClusterId, TreeReplica};
pub use engine::{DeltaEngine, DeltaParams, EpochReport, TreeDeltaStats};
pub use sharded::router_epoch;
pub use subscribe::{Interest, SubscriptionId, VersionedDelta};
