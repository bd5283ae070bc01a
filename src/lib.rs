//! # Incremental Data Bubbles
//!
//! A complete Rust implementation of *"Incremental and Effective Data
//! Summarization for Dynamic Hierarchical Clustering"* (Nassar, Sander,
//! Cheng — SIGMOD 2004), including every substrate its evaluation depends
//! on: OPTICS on points and on summaries, automatic reachability-plot
//! cluster extraction, a BIRCH CF-tree baseline, dynamic workload
//! generators and the full experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use incremental_data_bubbles::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A labeled synthetic database of three Gaussian clusters.
//! let model = MixtureModel::new(
//!     2,
//!     vec![
//!         ClusterModel::new(vec![20.0, 20.0], 2.0),
//!         ClusterModel::new(vec![50.0, 80.0], 2.0),
//!         ClusterModel::new(vec![80.0, 20.0], 2.0),
//!     ],
//!     0.02,
//!     (0.0, 100.0),
//! );
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut store = model.populate(2_000, &mut rng);
//!
//! // Summarize with 40 data bubbles and cluster the summary.
//! let mut search = SearchStats::new();
//! let mut bubbles =
//!     IncrementalBubbles::build(&store, MaintainerConfig::new(40), &mut rng, &mut search);
//! let outcome = pipeline::cluster_bubbles(&bubbles, 8, 50);
//! assert_eq!(outcome.clusters.len(), 3);
//!
//! // The database changes; the summary follows without a rebuild.
//! let batch = Batch {
//!     deletes: store.ids().take(50).collect(),
//!     inserts: (0..50).map(|i| (vec![50.0, 20.0 + i as f64 * 0.1], None)).collect(),
//! };
//! bubbles.apply_batch(&mut store, &batch, &mut search);
//! bubbles.maintain(&store, &mut rng, &mut search);
//! ```
//!
//! When inputs are untrusted, prefer [`core::IncrementalBubbles::try_apply_batch`]:
//! it validates the whole batch up front and rejects bad ones with a typed
//! [`core::UpdateError`], leaving store and summary untouched.
//! [`core::IncrementalBubbles::audit`] checks every internal invariant and
//! [`core::IncrementalBubbles::repair`] rebuilds whatever it flags.
//!
//! For crash safety, wrap store and summary in a
//! [`core::DurableMaintainer`]: every batch is appended to a CRC-framed
//! write-ahead log *before* it is applied, periodic checkpoints bound
//! replay work, and [`core::recover`] rebuilds the exact pre-crash state
//! from the newest usable checkpoint plus the WAL tail (see the
//! "Durability" section of the README for a quickstart).
//!
//! Durability can run *bounded*: a [`store::segment::SegmentedSink`]
//! rotates the log into segments and compaction reclaims everything
//! covered by the newest full checkpoint, checkpoints stream in chunks
//! (most as dirty-bubble deltas over a periodic full rebase), and a
//! [`store::StorageBudget`] turns disk exhaustion into typed,
//! exactly-rolled-back sheds instead of unbounded buffering
//! ([`core::recover_chain`] walks the segment chain after a crash; see
//! the "Storage" section of the README).
//!
//! Operational visibility comes from the [`obs`] layer: a metrics
//! registry of named counters and latency histograms, plus a structured
//! op journal — every insert, delete, merge, split, WAL commit,
//! checkpoint and recovery step emits a typed [`obs::Event`] through a
//! pluggable [`obs::Recorder`]. Observability is off by default and free
//! when off; install an [`obs::Obs`] handle with a recorder to turn it on
//! (see the "Observability" section of the README).
//!
//! To serve many independent update streams — or to fault-isolate one —
//! the [`shard`] layer runs `V` durable maintainer partitions behind a
//! deterministic router ([`shard::ShardRouter`]): per-shard bounded
//! queues with typed backpressure, a supervisor that quarantines
//! persistently degraded partitions while siblings keep serving, and
//! per-partition crash recovery. The shard count is a pure wall-clock
//! knob (set it with [`shard::ShardConfig::with_shards`]): any value
//! yields bit-identical summaries and cluster orderings (see the
//! "Sharding" section of the README).
//!
//! Like the paper, every epoch re-clusters the bubbles from scratch; the
//! [`delta`] layer adds identity across epochs. A [`delta::DeltaEngine`]
//! runs the from-scratch pipeline, diffs the new cluster tree against
//! the previous one, and emits typed [`delta::ClusterDelta`]s with
//! stable cluster ids to registered subscriptions (see the "Delta
//! clustering" section of the README).
//!
//! The individual layers are re-exported as modules: [`geometry`],
//! [`store`], [`synth`], [`core`], [`clustering`], [`birch`], [`eval`],
//! [`obs`], [`shard`], [`delta`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use idb_birch as birch;
pub use idb_clustering as clustering;
pub use idb_core as core;
pub use idb_delta as delta;
pub use idb_eval as eval;
pub use idb_geometry as geometry;
pub use idb_obs as obs;
pub use idb_shard as shard;
pub use idb_store as store;
pub use idb_synth as synth;

pub mod pipeline;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::pipeline;
    pub use idb_birch::{CfSummary, CfTree};
    pub use idb_clustering::{
        extract_clusters, optics_bubbles, optics_points, ExtractParams, ReachabilityPlot,
    };
    pub use idb_core::{
        recover, recover_chain, AuditError, AuditIssue, AuditReport, Bubble, CheckpointStore,
        DataSummary, DurabilityConfig, DurableMaintainer, FsCheckpoints, Health,
        IncrementalBubbles, MaintainerConfig, QualityKind, Recovered, RecoveryError, RepairReport,
        SeedSearch, SplitSeedPolicy, SufficientStats, UpdateError,
    };
    pub use idb_delta::{
        router_epoch, ClusterDelta, ClusterId, DeltaEngine, DeltaParams, EpochReport, Interest,
        SubscriptionId, TreeReplica, VersionedDelta,
    };
    pub use idb_eval::{compactness_per_point, fscore, Aggregate};
    pub use idb_geometry::SearchStats;
    pub use idb_obs::{
        check_journal, check_journal_sharded, Cause, Event, EventKind, JsonlRecorder,
        MetricsRegistry, NullRecorder, Obs, Recorder, RingRecorder,
    };
    pub use idb_shard::{
        GlobalId, PartitionStatus, RestartReport, ShardConfig, ShardError, ShardRouter,
    };
    pub use idb_store::{
        Batch, DurableSink, FileSink, FsMedium, Label, Medium, MemMedium, ObjectSink, PointId,
        PointStore, SegmentedSink, StorageBudget, StorageError, WalError,
    };
    pub use idb_synth::{
        ClusterModel, MixtureModel, MultiStreamEngine, ScenarioEngine, ScenarioKind, ScenarioSpec,
    };
}
