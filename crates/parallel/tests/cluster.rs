//! Cluster partitioning, replication and recoverable-job tests.
//!
//! These live outside `src/` so the crate's library sources stay free of
//! `unwrap`/`expect` (CI greps for them — production paths must propagate
//! typed errors).

use decorr_common::{row, DataType, Error, FaultPlane, Schema};
use decorr_parallel::{Cluster, MAX_ATTEMPTS};
use decorr_storage::Database;

fn db() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    for i in 0..100 {
        t.insert(row![format!("e{i}"), i % 7]).unwrap();
    }
    t.set_key(&["name"]).unwrap();
    t.create_index(&["building"]).unwrap();
    db
}

#[test]
fn partitioning_preserves_all_rows() {
    let c = Cluster::partition_by_key(&db(), 4).unwrap();
    assert_eq!(c.nodes(), 4);
    assert_eq!(c.total_rows("emp").unwrap(), 100);
    // No node holds everything (hash spread).
    for i in 0..4 {
        assert!(c.node(i).table("emp").unwrap().len() < 100);
    }
}

#[test]
fn indexes_recreated_per_node() {
    let c = Cluster::partition_by_key(&db(), 3).unwrap();
    for i in 0..3 {
        assert_eq!(c.node(i).table("emp").unwrap().indexes().len(), 1);
    }
}

#[test]
fn repartition_colocates_by_column() {
    let mut c = Cluster::partition_by_key(&db(), 4).unwrap();
    let shipped = c.repartition("emp", "building").unwrap();
    assert!(shipped > 0);
    assert_eq!(c.total_rows("emp").unwrap(), 100);
    // After repartitioning, equal buildings live on the same node.
    let mut owner: std::collections::HashMap<i64, usize> = Default::default();
    for i in 0..4 {
        for r in c.node(i).table("emp").unwrap().rows() {
            let b = r[1].as_int().unwrap();
            if let Some(&prev) = owner.get(&b) {
                assert_eq!(prev, i, "building {b} split across nodes");
            } else {
                owner.insert(b, i);
            }
        }
    }
}

#[test]
fn zero_nodes_rejected() {
    assert!(Cluster::partition_by_key(&db(), 0).is_err());
}

/// Regression: a table with zero rows (or whose rows all hash to a few
/// nodes) must still exist — schema, key and indexes — on *every* node,
/// both after initial partitioning and after repartitioning. A skipped
/// empty partition would make later plan fragments fail with "no such
/// table" on the starved nodes.
#[test]
fn empty_table_partitioned_and_repartitioned_everywhere() {
    let mut source = db();
    let t = source
        .create_table(
            "audit",
            Schema::from_pairs(&[("who", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    t.set_key(&["who"]).unwrap();
    t.create_index(&["building"]).unwrap();

    let mut c = Cluster::partition_by_key(&source, 4).unwrap();
    for i in 0..4 {
        let part = c.node(i).table("audit").unwrap();
        assert_eq!(part.len(), 0, "node {i}");
        assert!(part.key().is_some(), "node {i} lost the key");
        assert_eq!(part.indexes().len(), 1, "node {i} lost the index");
    }

    let shipped = c.repartition("audit", "building").unwrap();
    assert_eq!(shipped, 0);
    for i in 0..4 {
        let part = c.node(i).table("audit").unwrap();
        assert_eq!(part.len(), 0, "node {i} after repartition");
        assert!(part.key().is_some(), "node {i} lost the key on repartition");
        assert_eq!(
            part.indexes().len(),
            1,
            "node {i} lost the index on repartition"
        );
    }
}

#[test]
fn replication_is_clamped_and_placement_wraps() {
    let c = Cluster::partition_by_key_replicated(&db(), 4, 2).unwrap();
    assert_eq!(c.replication(), 2);
    assert_eq!(c.placement(3), vec![3, 0]);
    assert_eq!(c.placement(1), vec![1, 2]);

    let c = Cluster::partition_by_key_replicated(&db(), 3, 99).unwrap();
    assert_eq!(c.replication(), 3);

    let c = Cluster::partition_by_key_replicated(&db(), 3, 0).unwrap();
    assert_eq!(c.replication(), 1);
}

#[test]
fn survivability_matches_replication() {
    let unreplicated = Cluster::partition_by_key(&db(), 4).unwrap();
    let replicated = Cluster::partition_by_key_replicated(&db(), 4, 2).unwrap();
    for crashed in 0..4 {
        assert!(!unreplicated.survives_crash_of(crashed));
        assert!(replicated.survives_crash_of(crashed));
    }
}

#[test]
fn recoverable_job_without_faults_runs_on_primary() {
    let c = Cluster::partition_by_key(&db(), 4).unwrap();
    let (len, outcome) = c
        .run_recoverable(2, None, |node| Ok(node.table("emp")?.len()))
        .unwrap();
    assert_eq!(len, c.node(2).table("emp").unwrap().len());
    assert_eq!(outcome.served_by, 2);
    assert_eq!(outcome.retries, 0);
    assert!(!outcome.failed_over);
}

/// Seeded crash windows are finite and shorter than the retry budget, so
/// retry alone recovers every partition even without replicas.
#[test]
fn finite_crash_windows_recover_by_retry_alone() {
    let c = Cluster::partition_by_key(&db(), 4).unwrap();
    for seed in 0..16u64 {
        let plane = FaultPlane::crash_window(seed, 4);
        for p in 0..4 {
            let (len, _) = c
                .run_recoverable(p, Some(&plane), |node| Ok(node.table("emp")?.len()))
                .unwrap_or_else(|e| panic!("seed {seed} partition {p}: {e}"));
            assert_eq!(len, c.node(p).table("emp").unwrap().len());
        }
    }
}

#[test]
fn permanent_crash_fails_over_to_replica() {
    let c = Cluster::partition_by_key_replicated(&db(), 4, 2).unwrap();
    let plane = FaultPlane::single_crash(7, 4);
    let crashed = plane.crashed_node().unwrap();

    let (len, outcome) = c
        .run_recoverable(crashed, Some(&plane), |node| Ok(node.table("emp")?.len()))
        .unwrap();
    // The replica reads the same (single, byte-identical) partition copy.
    assert_eq!(len, c.node(crashed).table("emp").unwrap().len());
    assert!(outcome.failed_over);
    assert_ne!(outcome.served_by, crashed);
    assert!(outcome.retries >= MAX_ATTEMPTS as u64);
    assert!(plane.stats().failovers >= 1);
}

#[test]
fn permanent_crash_without_replica_fails_closed() {
    let c = Cluster::partition_by_key(&db(), 4).unwrap();
    let plane = FaultPlane::single_crash(7, 4);
    let crashed = plane.crashed_node().unwrap();

    let err = c
        .run_recoverable(crashed, Some(&plane), |node| Ok(node.table("emp")?.len()))
        .unwrap_err();
    assert!(matches!(err, Error::NodeFailed(_)), "got {err:?}");
}

/// Genuine job errors (not injected faults) propagate immediately — they
/// must not be retried or converted into `NodeFailed`.
#[test]
fn real_job_errors_are_not_retried() {
    let c = Cluster::partition_by_key(&db(), 4).unwrap();
    let plane = FaultPlane::quiet(0);
    let err = c
        .run_recoverable(1, Some(&plane), |node| {
            node.table("no_such_table").map(|_| ())
        })
        .unwrap_err();
    assert!(!matches!(err, Error::NodeFailed(_)), "got {err:?}");
    assert_eq!(plane.stats().retries, 0);
    assert_eq!(plane.stats().failovers, 0);
}
