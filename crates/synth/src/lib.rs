//! Synthetic workloads for the incremental data bubbles evaluation.
//!
//! The paper evaluates on synthetic databases of 50,000–110,000 points in
//! 2, 5, 10 and 20 dimensions, populated from Gaussian clusters plus uniform
//! noise, and subjected to six kinds of dynamics (Section 5):
//!
//! * **random** — points inserted and deleted at random from the standing
//!   distribution;
//! * **appear** — a new cluster grows over time inside the populated region;
//! * **extreme appear** — a new cluster grows in a region that previously
//!   contained no points at all, not even noise;
//! * **disappear** — an existing cluster is deleted away over time;
//! * **gradmove** — one cluster drifts across space via paired
//!   deletions/insertions;
//! * **complex** — all of the above at once (Figure 8).
//!
//! [`dataset`] builds the static initial databases; [`scenario`] turns a
//! [`scenario::ScenarioSpec`] into a [`scenario::ScenarioEngine`] that emits
//! [`idb_store::Batch`]es with maintained ground-truth labels, so the
//! evaluation crate can compute F-scores at any point in the run.
//!
//! All randomness flows through caller-provided [`rand::Rng`]s; experiments
//! seed them explicitly, making every reported number reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod faults;
pub mod gauss;
pub mod io;
pub mod multistream;
pub mod scenario;

pub use dataset::{ClusterModel, MixtureModel};
pub use faults::{faulty_batch, flip_bit, BatchFault, FaultMedium, ALL_BATCH_FAULTS};
pub use io::{load_csv, save_csv, CsvError};
pub use multistream::{stream_seed, MultiStreamEngine};
pub use scenario::{Dynamics, ScenarioEngine, ScenarioKind, ScenarioSpec};
