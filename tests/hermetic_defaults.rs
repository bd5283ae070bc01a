//! Library defaults are constants: no `IDB_*` environment variable can
//! change what a constructor or `Default` returns.
//!
//! One `#[test]` in its own binary, because the environment is
//! process-global: it sets every variable that once configured library
//! behaviour to a non-default value, then checks each default.

use incremental_data_bubbles::core::{
    DurabilityConfig, IncrementalBubbles, MaintainerConfig, Parallelism, SeedSearch,
};
use incremental_data_bubbles::delta::DeltaParams;
use incremental_data_bubbles::geometry::SearchStats;
use incremental_data_bubbles::shard::ShardConfig;
use incremental_data_bubbles::store::{wal::scratch_dir, PointStore, StorageBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn idb_environment_variables_do_not_change_library_defaults() {
    let journal_dir = scratch_dir().join(format!("idb-hermetic-{}", std::process::id()));
    for (var, value) in [
        ("IDB_SEED_SEARCH", "kdtree"),
        ("IDB_PARALLELISM", "3"),
        ("IDB_SHARDS", "4"),
        ("IDB_WAL_SEGMENT_BYTES", "2048"),
        ("IDB_DISK_BUDGET", "1048576"),
        ("IDB_HOT_POINTS", "256"),
        ("IDB_OBS", "jsonl"),
    ] {
        std::env::set_var(var, value);
    }
    std::env::set_var("IDB_OBS_DIR", &journal_dir);

    assert_eq!(SeedSearch::default(), SeedSearch::Pruned);
    assert_eq!(Parallelism::default(), Parallelism::Serial);

    let mcfg = MaintainerConfig::new(4);
    assert_eq!(mcfg.seed_search, SeedSearch::Pruned);
    assert_eq!(mcfg.parallelism, Parallelism::Serial);

    let dcfg = DurabilityConfig::default();
    assert_eq!(dcfg.disk_budget, StorageBudget::unbounded());
    assert_eq!(dcfg.hot_points, None);

    assert_eq!(ShardConfig::new(8).shards, 1);
    assert_eq!(DeltaParams::new(4, 8).par, Parallelism::Serial);

    let mut store = PointStore::new(2);
    for i in 0..32 {
        store.insert(&[f64::from(i % 4), f64::from(i / 4)], None);
    }
    let ib = IncrementalBubbles::build(
        &store,
        mcfg,
        &mut StdRng::seed_from_u64(1),
        &mut SearchStats::new(),
    );
    assert!(!ib.obs().enabled(), "a fresh build journals nothing");
    assert!(
        !journal_dir.exists(),
        "nothing may be written under IDB_OBS_DIR"
    );
}
