//! A configured cold-tier directory that cannot hold the spill file is a
//! typed start-up error, never a silent spill to memory.
//!
//! The single test lives in its own binary because it sets
//! `IDB_COLD_DIR`, and the environment is process-global.

use idb_core::{
    DurabilityConfig, DurableMaintainer, IncrementalBubbles, MaintainerConfig, RecoveryError,
};
use idb_geometry::SearchStats;
use idb_store::wal::{scratch_dir, ObjectSink};
use idb_store::{default_cold_medium, MemMedium, PointStore, COLD_DIR_ENV};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Starts a durable maintainer over a small store with the given
/// hot-point budget.
fn start(
    hot_points: Option<usize>,
) -> Result<DurableMaintainer<ObjectSink<MemMedium>, MemMedium>, RecoveryError> {
    let mut store = PointStore::new(2);
    for i in 0..64 {
        store.insert(&[f64::from(i % 8), f64::from(i / 8)], None);
    }
    let mut rng = StdRng::seed_from_u64(5);
    let ib = IncrementalBubbles::build(
        &store,
        MaintainerConfig::new(4),
        &mut rng,
        &mut SearchStats::new(),
    );
    let dcfg = DurabilityConfig {
        hot_points,
        ..DurabilityConfig::default()
    };
    DurableMaintainer::adopt(
        store,
        ib,
        dcfg,
        ObjectSink::new(MemMedium::new(), "wal"),
        MemMedium::new(),
    )
}

#[test]
fn an_unusable_cold_dir_fails_start_with_a_typed_io_error() {
    let dir = scratch_dir().join(format!("idb-cold-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("regular-file");
    std::fs::write(&file, b"not a directory").unwrap();

    // A spill directory under a regular file cannot exist.
    std::env::set_var(COLD_DIR_ENV, file.join("spill"));
    assert!(default_cold_medium().is_err());
    match start(Some(8)) {
        Err(RecoveryError::Io(e)) => {
            assert!(e.to_string().contains("regular-file"), "{e}");
        }
        Err(e) => panic!("expected RecoveryError::Io, got {e}"),
        Ok(_) => panic!("a tiered start must not fall back to an in-memory spill"),
    }
    // An untiered maintainer never opens the cold directory.
    start(None).expect("untiered start ignores the cold directory");

    // A usable directory takes the spill file.
    std::env::set_var(COLD_DIR_ENV, &dir);
    let dm = start(Some(8)).expect("tiered start over a usable directory");
    assert!(dm.store().tiered());
    let spills = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.file_name().to_string_lossy().starts_with("cold-"))
        })
        .count();
    assert_eq!(
        spills, 1,
        "the spill file lands in the configured directory"
    );

    std::env::remove_var(COLD_DIR_ENV);
    drop(dm);
    let _ = std::fs::remove_dir_all(&dir);
}
