//! Hierarchical clustering substrate.
//!
//! The paper evaluates incremental data bubbles by feeding them to OPTICS
//! and extracting flat clusters from the resulting reachability plot. This
//! crate implements that entire pipeline, plus the classic baselines the
//! paper positions itself against:
//!
//! * [`reachability`](mod@reachability) — reachability plots ([`ReachabilityPlot`]) produced
//!   by any OPTICS variant;
//! * [`optics`](mod@optics) — OPTICS over raw database points, backed by the k-d tree
//!   (the expensive path data bubbles exist to avoid);
//! * [`optics_bubbles`](mod@optics_bubbles) — OPTICS over data summaries: the bubble distance,
//!   weighted core distances and the *virtual reachability* expansion that
//!   turns a bubble-level ordering back into a point-level plot;
//! * [`merged`](mod@merged) — cross-domain OPTICS: one pass over the union of
//!   several independently-maintained bubble sets (the clustering stage of
//!   the sharded service layer), with provenance back to each domain;
//! * [`extract`](mod@extract) — automatic extraction of flat clusters from a
//!   reachability plot via the cluster-tree method of Sander et al. 2003
//!   (the paper's reference \[16\]), plus a fixed-threshold horizontal cut;
//! * [`xi`](mod@xi) — the original OPTICS paper's ξ-cluster extraction (steep
//!   areas), yielding the nested cluster hierarchy;
//! * [`slink`](mod@slink) — SLINK, the O(n²)-time / O(n)-space Single-Link method
//!   (the classic hierarchical baseline of the introduction);
//! * [`agglomerative`](mod@agglomerative) — complete/average/Ward linkage via the
//!   nearest-neighbour chain algorithm;
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with k-means++ seeding, plain and
//!   weighted-over-summaries (the macro-clustering of the stream
//!   literature the paper reviews);
//! * [`dbscan`](mod@dbscan) — flat density-based clustering, used as an oracle in
//!   tests and examples;
//! * [`render`](mod@render) — ASCII reachability-plot rendering for terminals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod dbscan;
pub mod extract;
pub mod kmeans;
pub mod merged;
pub mod optics;
pub mod optics_bubbles;
pub mod reachability;
pub mod render;
pub mod slink;
pub mod xi;

pub use agglomerative::{agglomerative, Linkage};
pub use extract::{
    cluster_tree, extract_clusters, extract_clusters_at, ClusterNode, ExtractParams,
};
pub use kmeans::{kmeans_points, kmeans_summaries, kmeans_weighted, KMeansResult};
pub use merged::{merge_domains, optics_merged, MergedBubbles, MergedRef};
pub use optics::optics_points;
pub use optics_bubbles::{bubble_distance, optics_bubbles, optics_from_matrix, BubbleOrdering};
pub use reachability::{PlotEntry, ReachabilityPlot};
pub use render::render_reachability;
pub use slink::{slink, Dendrogram};
pub use xi::{extract_xi, XiCluster, XiParams};
