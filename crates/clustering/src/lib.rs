//! Hierarchical clustering substrate.
//!
//! The paper evaluates incremental data bubbles by feeding them to OPTICS
//! and extracting flat clusters from the resulting reachability plot. This
//! crate implements that pipeline and nothing else:
//!
//! * [`reachability`](mod@reachability) — reachability plots ([`ReachabilityPlot`]) produced
//!   by any OPTICS variant;
//! * [`optics`](mod@optics) — OPTICS over raw database points, as the bubble walk
//!   over one-point summaries (the expensive path data bubbles exist to
//!   avoid);
//! * [`optics_bubbles`](mod@optics_bubbles) — OPTICS over data summaries: the bubble distance,
//!   weighted core distances and the *virtual reachability* expansion that
//!   turns a bubble-level ordering back into a point-level plot;
//! * [`merged`](mod@merged) — cross-domain OPTICS: one pass over the union of
//!   several independently-maintained bubble sets (the clustering stage of
//!   the sharded service layer), with provenance back to each domain;
//! * [`extract`](mod@extract) — automatic extraction of flat clusters from a
//!   reachability plot via the cluster-tree method of Sander et al. 2003
//!   (the paper's reference \[16\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod merged;
pub mod optics;
pub mod optics_bubbles;
pub mod reachability;

pub use extract::{cluster_tree, extract_clusters, ClusterNode, ExtractParams};
pub use merged::{merge_domains, optics_merged, MergedBubbles, MergedRef};
pub use optics::optics_points;
pub use optics_bubbles::{bubble_distance, optics_bubbles, optics_from_matrix, BubbleOrdering};
pub use reachability::{PlotEntry, ReachabilityPlot};
