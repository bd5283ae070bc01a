//! `stackbench`: one whole-stack benchmark of the incremental data bubble
//! service — scenario generator → shard router → durable maintainer
//! (WAL, checkpoints, cold tier) → incremental maintenance → delta
//! clustering → subscriber poll. The binary (`src/main.rs`) is the
//! command line; this library holds the pieces so the tests can reach
//! them. See README.md for the metrics, workloads and trace format.

pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod replay;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;
