//! Delta clustering over a sharded router.
//!
//! [`router_epoch`] is the sharded counterpart of
//! [`DeltaEngine::maintainer_epoch`]: each online partition's bubble set
//! becomes one engine domain, in partition order — the exact domain order
//! of [`ShardRouter::cluster`](idb_shard::ShardRouter::cluster), so the
//! delta engine's ordering is bit-identical to the router's own merged
//! cross-partition pass. Point ids in plots and memberships are
//! [`GlobalId::as_u64`] (partition in the high word).

use crate::engine::{DeltaEngine, EpochReport};
use idb_core::{Bubble, CheckpointStore};
use idb_shard::{GlobalId, ShardError, ShardRouter};
use idb_store::DurableSink;

/// Runs one delta epoch over every partition of `router`.
///
/// # Errors
/// [`ShardError::Unavailable`] naming the first offline partition — like
/// the router's own merged pass, delta clustering needs every domain
/// present.
pub fn router_epoch<S: DurableSink, C: CheckpointStore>(
    engine: &mut DeltaEngine,
    router: &mut ShardRouter<S, C>,
) -> Result<EpochReport, ShardError> {
    let domains = (0..router.config().partitions)
        .map(|p| {
            router
                .partition_bubbles(p)
                .ok_or(ShardError::Unavailable { partition: p })
        })
        .collect::<Result<Vec<&[Bubble]>, ShardError>>()?;
    Ok(engine.epoch(&domains, |partition, local| {
        GlobalId { partition, local }.as_u64()
    }))
}
