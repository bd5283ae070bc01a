//! Review audit: snapshot divergence via slot reuse + degenerate fuzz.
use idb_core::{IncrementalBubbles, MaintainerConfig, QualityKind, SplitSeedPolicy};
use idb_geometry::SearchStats;
use idb_store::{Batch, PointId, PointStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn snapshot_accepts_slot_reused_diverged_store() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut store = PointStore::new(2);
    for i in 0..200 {
        store.insert(&[i as f64, (i % 7) as f64], Some(0));
    }
    let mut search = SearchStats::new();
    let ib = IncrementalBubbles::build(&store, MaintainerConfig::new(8), &mut rng, &mut search);
    let mut buf = Vec::new();
    ib.write_snapshot(&mut buf).unwrap();

    // Store diverges after the checkpoint: one point is deleted and a NEW
    // point with totally different coordinates reuses the same slot.
    let victim = store.ids().next().unwrap();
    store.remove(victim);
    let reused = store.insert(&[1e6, 1e6], Some(9));
    assert_eq!(reused, victim, "slot reused");

    // The decoder promises: "a snapshot from a diverged store is rejected
    // instead of silently producing a corrupt summary."
    match IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store) {
        Err(_) => println!("rejected, as documented"),
        Ok(restored) => {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                restored.validate(&store)
            }));
            println!(
                "ACCEPTED diverged store; validate() {}",
                if r.is_err() {
                    "PANICS (corrupt stats)"
                } else {
                    "passes"
                }
            );
        }
    }
}

#[test]
fn degenerate_duplicates_fuzz() {
    for seed in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = PointStore::new(1);
        // Lots of exact duplicates: degenerate splits, zero pairwise seeds.
        for _ in 0..120 {
            let v = rng.gen_range(0..4) as f64;
            store.insert(&[v], None);
        }
        let mut search = SearchStats::new();
        let cfg = MaintainerConfig::new(6)
            .with_quality(if seed % 2 == 0 {
                QualityKind::Beta
            } else {
                QualityKind::Extent
            })
            .with_split_seeds(if seed % 3 == 0 {
                SplitSeedPolicy::Spread
            } else {
                SplitSeedPolicy::Random
            });
        let mut ib = IncrementalBubbles::build(&store, cfg, &mut rng, &mut search);
        for step in 0..30 {
            match rng.gen_range(0..3) {
                0 => {
                    // delete nearly everything
                    let keep = rng.gen_range(2..10);
                    let ids: Vec<PointId> = store.ids().skip(keep).collect();
                    let batch = Batch {
                        deletes: ids,
                        inserts: Vec::new(),
                    };
                    ib.apply_batch(&mut store, &batch, &mut search);
                }
                1 => {
                    let batch = Batch {
                        deletes: Vec::new(),
                        inserts: (0..rng.gen_range(1..80))
                            .map(|_| (vec![2.0], None))
                            .collect(),
                    };
                    ib.apply_batch(&mut store, &batch, &mut search);
                }
                _ => {
                    ib.maintain(&store, &mut rng, &mut search);
                }
            }
            ib.validate(&store);
            assert_eq!(
                ib.total_points(),
                store.len() as u64,
                "seed {seed} step {step}"
            );
        }
    }
}
