//! Sharded multi-stream service layer over the incremental data-bubble
//! maintainer.
//!
//! The service splits the point space into `V` fixed logical
//! **partitions** — each a fully independent
//! [`DurableMaintainer`](idb_core::DurableMaintainer) with its own WAL
//! epoch, checkpoint cadence, maintenance RNG and tagged observability
//! handle — and groups the partitions behind `N` **shards**: bounded
//! queues with a supervised drain loop. The split is the key design
//! decision:
//!
//! * **Partitions carry the bit-identity contract.** Routing
//!   ([`route_point`]) hashes exact coordinate bit patterns, so which
//!   maintainer owns a point depends only on the point and `V`.
//! * **Shards are pure physics.** `N` — like the thread count — changes
//!   wall-clock behavior only (queue grouping, drain parallelism,
//!   backpressure onset), never an output bit. The differential suites
//!   prove shards ∈ {1, 2, 4, 8} produce identical merged bubble sets
//!   and cluster orderings.
//!
//! Failures stay typed and local: a saturated queue sheds the
//! submission whole ([`ShardError::QueueFull`]), a persistently degraded
//! partition is quarantined by the supervisor while its siblings keep
//! serving ([`ShardError::Unavailable`]), and a crashed partition
//! restarts through the ordinary recovery path without blocking anyone.
//!
//! ```
//! use idb_core::{DurabilityConfig, MaintainerConfig};
//! use idb_obs::Obs;
//! use idb_shard::{ShardConfig, ShardRouter};
//! use idb_store::{Batch, MemMedium, ObjectSink};
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut initial = Batch::default();
//! for _ in 0..400 {
//!     let p: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
//!     initial.inserts.push((p, Some(0)));
//! }
//! let scfg = ShardConfig::new(4).with_shards(2);
//! let (mut router, ids) = ShardRouter::create(
//!     3,
//!     &initial,
//!     &MaintainerConfig::new(10),
//!     scfg,
//!     DurabilityConfig::default(),
//!     42,
//!     &Obs::disabled(),
//!     |_| (ObjectSink::new(MemMedium::new(), "wal"), MemMedium::new()),
//! )
//! .unwrap();
//! assert_eq!(ids.len(), 400);
//!
//! let mut update = Batch::default();
//! update.deletes.push(ids[0]);
//! update.inserts.push((vec![0.1, 0.2, 0.3], Some(1)));
//! let new_ids = router.apply(&update).unwrap();
//! assert_eq!(new_ids.len(), 1);
//! ```

pub mod config;
pub mod error;
pub mod route;
pub mod router;

pub use config::ShardConfig;
pub use error::ShardError;
pub use route::{
    local_capacity_exceeded, partition_round_seed, route_point, GlobalId, LOCAL_BITS, MAX_LOCAL,
    MAX_PARTITIONS, PARTITION_BITS,
};
pub use router::{PartitionStatus, RestartReport, ShardRouter, TicketResult};
