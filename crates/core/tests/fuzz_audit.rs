//! Ad-hoc invariant fuzz (review audit).
use idb_core::{IncrementalBubbles, MaintainerConfig};
use idb_geometry::SearchStats;
use idb_store::{Batch, PointId, PointStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn mixed_ops_fuzz() {
    for seed in 0u64..60 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = PointStore::new(2);
        for _ in 0..300 {
            store.insert(
                &[rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)],
                None,
            );
        }
        let mut search = SearchStats::new();
        let mut ib =
            IncrementalBubbles::build(&store, MaintainerConfig::new(10), &mut rng, &mut search);
        ib.validate(&store);
        for step in 0..40 {
            let op = rng.gen_range(0..3);
            match op {
                0 => {
                    // batch: random deletes + inserts (sometimes heavily skewed)
                    let ndel = rng.gen_range(0..(store.len() / 2).max(1));
                    let mut ids: Vec<PointId> = store.ids().collect();
                    // random subset
                    for i in 0..ndel.min(ids.len()) {
                        let j = rng.gen_range(i..ids.len());
                        ids.swap(i, j);
                    }
                    ids.truncate(ndel);
                    let nins = rng.gen_range(0..200);
                    let c = rng.gen_range(0.0..300.0);
                    let batch = Batch {
                        deletes: ids,
                        inserts: (0..nins)
                            .map(|_| {
                                (
                                    vec![
                                        c + rng.gen_range(-3.0..3.0),
                                        c + rng.gen_range(-3.0..3.0),
                                    ],
                                    None,
                                )
                            })
                            .collect(),
                    };
                    ib.apply_batch(&mut store, &batch, &mut search);
                }
                1 => {
                    ib.maintain(&store, &mut rng, &mut search);
                }
                _ => {
                    // snapshot roundtrip
                    let mut buf = Vec::new();
                    ib.write_snapshot(&mut buf).unwrap();
                    ib = IncrementalBubbles::read_snapshot(&mut buf.as_slice(), &store)
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: snapshot {e}"));
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
