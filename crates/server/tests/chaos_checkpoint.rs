//! Satellite property test: `\checkpoint` racing concurrent snapshot
//! readers and an `ANALYZE` writer, all through [`ChaosEnv`] fault
//! schedules. Properties: every reader observes an epoch-consistent
//! catalog (published epochs only, never torn), every failure is typed,
//! and after the weather clears the manifest is never corrupt — reopen
//! always lands on a published epoch.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use decorr_common::{row, ChaosEnv, DataType, Error, FaultPlane, Schema};
use decorr_server::SharedCatalog;
use decorr_storage::{Database, StoreOptions};
use proptest::prelude::*;

fn seed_db() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    for i in 0..3i64 {
        t.insert(row![i]).unwrap();
    }
    db
}

fn table_count(snap: &decorr_server::CatalogVersion) -> usize {
    snap.db().tables().count()
}

fn assert_typed(e: &Error) {
    assert!(
        matches!(e, Error::Io(_) | Error::StorageFull(_)),
        "fault surfaced untyped: {e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Drive DDL + ANALYZE + checkpoints under disk faults while reader
    /// threads continuously snapshot; then clear the faults and reopen
    /// from the surviving bytes.
    #[test]
    fn checkpoint_races_readers_and_analyze_through_disk_faults(
        seed in any::<u64>(),
        writes in 4usize..12,
    ) {
        let dir = PathBuf::from("/chaos/ckpt-race");
        let env = ChaosEnv::new(FaultPlane::chaos(seed));
        env.set_faults(false); // clean open; chaos starts with the load
        let cat = Arc::new(
            SharedCatalog::open_durable(&dir, StoreOptions::on_env(Arc::new(env.clone())), seed_db())
                .unwrap(),
        );

        // `epoch -> table count` for every *published* epoch. Readers
        // check their snapshots against exactly this map.
        let published: Arc<Mutex<BTreeMap<u64, usize>>> =
            Arc::new(Mutex::new(BTreeMap::from([(cat.epoch(), 1)])));
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cat = Arc::clone(&cat);
                let published = Arc::clone(&published);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cat.snapshot();
                        let n = table_count(&snap);
                        let expect = published.lock().unwrap().get(&snap.epoch()).copied();
                        // The snapshot's epoch must be a published one and
                        // its catalog exactly that epoch's — no torn or
                        // half-applied states are ever visible.
                        assert_eq!(
                            Some(n),
                            expect,
                            "reader saw epoch {} with {n} tables",
                            snap.epoch()
                        );
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();

        env.set_faults(true);
        let mut tables_now = 1usize;
        for i in 0..writes {
            let name = format!("w{i}");
            // Publish and record under one hold of the map's lock: a
            // reader that snapshots the new epoch then waits here until
            // the map knows it, instead of racing the insert.
            {
                let mut map = published.lock().unwrap();
                let r = cat.update(|db| {
                    db.create_table(&name, Schema::from_pairs(&[("y", DataType::Int)]))?
                        .insert(row![i as i64])
                });
                match r {
                    Ok(()) => {
                        tables_now += 1;
                        map.insert(cat.epoch(), tables_now);
                    }
                    Err(e) => assert_typed(&e),
                }
            }
            if i % 3 == 0 {
                let mut map = published.lock().unwrap();
                match cat.analyze() {
                    Ok(_) => { map.insert(cat.epoch(), tables_now); }
                    Err(e) => assert_typed(&e),
                }
            }
            if i % 2 == 0 {
                if let Err(e) = cat.checkpoint() {
                    assert_typed(&e);
                }
            }
        }
        env.set_faults(false);
        // The in-memory workload can outrun thread scheduling: give the
        // readers a beat to observe the final state before stopping them.
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let checked = r.join().expect("reader panicked");
            prop_assert!(checked > 0, "reader never got a snapshot in");
        }

        // No corrupt manifest, ever: with faults off, reopening from the
        // same bytes succeeds and lands on a *published* epoch with that
        // epoch's exact catalog shape.
        let last_epoch = cat.epoch();
        drop(cat);
        let reopened =
            SharedCatalog::open_durable(&dir, StoreOptions::on_env(Arc::new(env.clone())), seed_db())
                .unwrap();
        let snap = reopened.snapshot();
        let map = published.lock().unwrap();
        let expect = map.get(&snap.epoch());
        prop_assert!(
            expect.is_some(),
            "recovered epoch {} was never published (last live {})",
            snap.epoch(),
            last_epoch
        );
        prop_assert_eq!(Some(&table_count(&snap)), expect);
    }
}
