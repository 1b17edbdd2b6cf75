//! Shared-catalog unit tests, relocated out of `src/` so the no-panic
//! grep gate covers `crates/server/src`.

use std::sync::Arc;

use decorr_common::{row, ChaosEnv, DataType, Error, FaultPlane, FaultRates, Schema};
use decorr_server::SharedCatalog;
use decorr_storage::{Database, StoreOptions};

fn seed_db() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    t.insert(row![1]).unwrap();
    db
}

#[test]
fn snapshots_survive_later_epochs() {
    let cat = SharedCatalog::new(seed_db());
    let old = cat.snapshot();
    assert_eq!(old.epoch(), 1);
    cat.update(|db| db.table_mut("t")?.insert(row![2])).unwrap();
    assert_eq!(cat.epoch(), 2);
    // The old snapshot still sees exactly one row.
    assert_eq!(old.db().table("t").unwrap().len(), 1);
    assert_eq!(cat.snapshot().db().table("t").unwrap().len(), 2);
}

#[test]
fn failed_update_publishes_nothing() {
    let cat = SharedCatalog::new(seed_db());
    let before = cat.snapshot();
    let r = cat.update(|db| db.drop_table("missing"));
    assert!(r.is_err());
    assert_eq!(cat.epoch(), before.epoch());
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("decorr-catalog-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_catalog_recovers_the_published_epoch() {
    let dir = tmp_dir("recover");
    {
        let cat = SharedCatalog::open_durable(&dir, StoreOptions::default(), seed_db()).unwrap();
        assert!(cat.is_durable());
        assert_eq!(cat.epoch(), 1);
        // Fresh open publishes the segment-backed conversion.
        assert!(cat.snapshot().db().table("t").unwrap().is_paged());
        // DDL and ANALYZE each commit-then-publish.
        cat.update(|db| db.drop_table("t")).unwrap();
        cat.analyze().unwrap();
        assert_eq!(cat.epoch(), 3);
    }
    let cat = SharedCatalog::open_durable(&dir, StoreOptions::default(), seed_db()).unwrap();
    assert_eq!(
        cat.epoch(),
        3,
        "recovery must land on the last published epoch"
    );
    assert!(
        cat.snapshot().db().table("t").is_err(),
        "dropped table must stay dropped"
    );
}

#[test]
fn durable_replace_survives_checkpoint_and_reopen() {
    let dir = tmp_dir("replace");
    {
        let cat = SharedCatalog::open_durable(&dir, StoreOptions::default(), seed_db()).unwrap();
        let mut db = Database::new();
        let t = db
            .create_table("u", Schema::from_pairs(&[("y", DataType::Int)]))
            .unwrap();
        t.insert(row![7]).unwrap();
        t.insert(row![8]).unwrap();
        assert_eq!(cat.replace(db).unwrap(), 2);
        assert_eq!(cat.checkpoint().unwrap().map(|c| c.epoch), Some(2));
    }
    let cat = SharedCatalog::open_durable(&dir, StoreOptions::default(), seed_db()).unwrap();
    assert_eq!(cat.epoch(), 2);
    let snap = cat.snapshot();
    assert!(
        snap.db().table("t").is_err(),
        "replaced catalog must not resurrect the seed"
    );
    assert_eq!(snap.db().table("u").unwrap().len(), 2);
}

#[test]
fn ephemeral_catalog_has_no_durable_handles() {
    let cat = SharedCatalog::new(seed_db());
    assert!(!cat.is_durable());
    assert!(cat.buffer_pool().is_none());
    assert!(cat.spill().is_none());
    assert!(cat.pool_stats().is_none());
    assert!(cat.checkpoint().unwrap().is_none());
}

#[test]
fn analyze_bumps_epoch_and_shares_the_model() {
    let cat = SharedCatalog::new(seed_db());
    let model = cat.analyze().unwrap();
    assert_eq!(cat.epoch(), 2);
    let snap = cat.snapshot();
    assert!(Arc::ptr_eq(&model, &snap.cost_model()));
    // Data unchanged — ANALYZE versions metadata, not rows.
    assert_eq!(snap.db().table("t").unwrap().len(), 1);
}

fn two_table_db() -> Database {
    let mut db = seed_db();
    let u = db
        .create_table("u", Schema::from_pairs(&[("y", DataType::Int)]))
        .unwrap();
    u.insert(row![7]).unwrap();
    u.create_index(&["y"]).unwrap();
    db
}

/// Statistics are per table version and built by the writer. Sharing an
/// untouched table's `TableStats` with the previous epoch proves both
/// halves at once: the entry was carried forward, and the snapshot came
/// with its model (a model built lazily by `cost_model()` would share
/// nothing). The durable catalog adds the segment conversion between
/// analysis and publication, which re-versions the written table.
#[test]
fn a_write_reanalyzes_only_the_tables_it_touched() {
    let dir = tmp_dir("carry");
    let catalogs = [
        SharedCatalog::new(two_table_db()),
        SharedCatalog::open_durable(&dir, StoreOptions::default(), two_table_db()).unwrap(),
    ];
    for cat in catalogs {
        let first = cat.analyze().unwrap();
        cat.update(|db| {
            // Paged tables are immutable: rebuild `t` resident, as a
            // durable writer must.
            let mut t = decorr_storage::Table::new("t", db.table("t")?.schema().clone());
            t.insert_all([row![1], row![2]])?;
            *db.table_mut("t")? = t;
            Ok(())
        })
        .unwrap();
        let after = cat.snapshot().cost_model();
        let shared = |a: &decorr_exec::CostModel, b: &decorr_exec::CostModel, name: &str| {
            Arc::ptr_eq(
                a.stats().shared_table(name).unwrap(),
                b.stats().shared_table(name).unwrap(),
            )
        };
        assert!(shared(&first, &after, "u"), "untouched table re-analyzed");
        assert!(!shared(&first, &after, "t"));
        assert_eq!(after.stats().table("t").unwrap().rows, 2);
        // What the estimator is told about indexes is what the published
        // table has: segment-backed tables carry none.
        let published_indexes = cat.snapshot().db().table("u").unwrap().indexes().len();
        assert_eq!(
            after.stats().table("u").unwrap().indexed.len(),
            published_indexes
        );

        // ANALYZE straight after a write finds every table version known.
        let again = cat.analyze().unwrap();
        assert!(shared(&after, &again, "t") && shared(&after, &again, "u"));
        assert!(Arc::ptr_eq(&again, &cat.snapshot().cost_model()));
    }
}

/// A transient read error is not statistics: the writer fails typed and
/// publishes nothing, a reader prices its statement blind and caches
/// nothing, and once the disk answers the real statistics appear.
#[test]
fn a_failed_read_never_becomes_statistics() {
    let env = ChaosEnv::new(FaultPlane::new(
        7,
        FaultRates { read_eio: 1000, ..FaultRates::QUIET },
    ));
    env.set_faults(false);
    let cat = SharedCatalog::open_durable(
        std::path::Path::new("/chaos/stats-eio"),
        StoreOptions::on_env(Arc::new(env.clone())),
        seed_db(),
    )
    .unwrap();

    env.set_faults(true);
    let err = cat
        .analyze()
        .err()
        .expect("ANALYZE over an unreadable table");
    assert!(matches!(err, Error::Io(_)), "{err}");
    let err = cat
        .update(|db| db.drop_table("missing").or(Ok(())))
        .unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");
    assert_eq!(cat.epoch(), 1, "a failed analysis must publish nothing");
    assert!(cat.snapshot().cost_model().stats().is_empty());

    env.set_faults(false);
    let model = cat.snapshot().cost_model();
    assert_eq!(model.stats().table("t").unwrap().column(0).unwrap().ndv, 1);
    assert!(Arc::ptr_eq(&model, &cat.snapshot().cost_model()));
}
