//! Chaos properties: under seeded fault injection the cluster either
//! recovers **byte-identically** or fails **closed** — it never returns a
//! wrong answer.
//!
//! * Any permanent single-node crash where every partition keeps a live
//!   replica → the gathered run equals the fault-free run exactly.
//! * Any crash that strands a partition (no replica) → a typed
//!   [`Error::NodeFailed`], not a partial result.
//! * Finite seeded crash windows and transient faults are absorbed by
//!   retry alone, with no replicas at all.

use decorr::prelude::*;
use decorr_common::FaultPlane;
use decorr_parallel::{run_decorrelated_with, run_gathered, Cluster};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

#[derive(Debug, Clone)]
struct World {
    depts: Vec<(i64, Option<i64>)>, // (num_emps, building)
    emps: Vec<Option<i64>>,         // employee buildings (NULLs allowed)
}

fn world() -> impl proptest::strategy::Strategy<Value = World> {
    let dept = (0i64..8, prop::option::weighted(0.9, 0i64..6));
    let emp = prop::option::weighted(0.9, 0i64..6);
    (
        prop::collection::vec(dept, 1..25),
        prop::collection::vec(emp, 0..60),
    )
        .prop_map(|(depts, emps)| World { depts, emps })
}

fn build_db(w: &World) -> Database {
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        )
        .unwrap();
    for (i, (num_emps, building)) in w.depts.iter().enumerate() {
        d.insert(Row::new(vec![
            Value::str(format!("d{i}")),
            Value::Int(*num_emps),
            building.map(Value::Int).unwrap_or(Value::Null),
        ]))
        .unwrap();
    }
    d.set_key(&["name"]).unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    for (i, b) in w.emps.iter().enumerate() {
        e.insert(Row::new(vec![
            Value::str(format!("e{i}")),
            b.map(Value::Int).unwrap_or(Value::Null),
        ]))
        .unwrap();
    }
    e.set_key(&["name"]).unwrap();
    db
}

const QUERY: &str = "SELECT D.name FROM dept D WHERE D.num_emps > \
     (SELECT COUNT(*) FROM emp E WHERE E.building = D.building)";

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

    /// A permanent single-node crash either recovers byte-identically
    /// (every partition has a live replica) or fails closed with
    /// `NodeFailed` (replication 1) — never a divergent answer.
    #[test]
    fn crash_recovers_identically_or_fails_closed(
        w in world(),
        nodes in 2usize..=4,
        replication in 1usize..=2,
        fault_seed in 0u64..64,
    ) {
        let db = build_db(&w);
        let qgm = parse_and_bind(QUERY, &db).unwrap();
        let cluster = Cluster::partition_by_key_replicated(&db, nodes, replication).unwrap();
        let (baseline, _) = run_gathered(&cluster, &qgm, ExecOptions::default(), None).unwrap();

        let plane = FaultPlane::single_crash(fault_seed, nodes);
        let crashed = plane.crashed_node().unwrap();
        let recoverable = cluster.survives_crash_of(crashed);
        match run_gathered(&cluster, &qgm, ExecOptions::default(), Some(&plane)) {
            Ok((rows, _)) => {
                prop_assert!(
                    recoverable,
                    "seed {fault_seed}: answered with partition(s) stranded on node {crashed}"
                );
                prop_assert_eq!(rows, baseline, "recovered answer diverged");
            }
            Err(Error::NodeFailed(_)) => {
                prop_assert!(
                    !recoverable,
                    "seed {fault_seed}: failed although node {crashed} was fully replicated"
                );
            }
            Err(e) => prop_assert!(false, "seed {fault_seed}: unexpected error {e}"),
        }
    }

    /// Seeded fault plans with finite crash windows (plus transient errors
    /// and stragglers) are absorbed by bounded retry alone — byte-identical
    /// recovery even with replication 1.
    #[test]
    fn transient_faults_recover_without_replicas(
        w in world(),
        nodes in 2usize..=4,
        fault_seed in 0u64..64,
    ) {
        let db = build_db(&w);
        let qgm = parse_and_bind(QUERY, &db).unwrap();
        let cluster = Cluster::partition_by_key(&db, nodes).unwrap();
        let (baseline, _) = run_gathered(&cluster, &qgm, ExecOptions::default(), None).unwrap();
        let plane = FaultPlane::crash_window(fault_seed, nodes);
        let (rows, _) = run_gathered(&cluster, &qgm, ExecOptions::default(), Some(&plane))
            .unwrap_or_else(|e| panic!("seed {fault_seed}: {e}"));
        prop_assert_eq!(rows, baseline);
    }

    /// The decorrelated strategy runner recovers through replicas too: a
    /// permanent crash with replication 2 still matches single-node truth.
    #[test]
    fn decorrelated_runner_recovers_with_replicas(
        w in world(),
        nodes in 2usize..=4,
        fault_seed in 0u64..16,
    ) {
        let db = build_db(&w);
        let qgm = parse_and_bind(QUERY, &db).unwrap();
        let (mut truth, _) = execute(&db, &qgm).unwrap();
        truth.sort();

        let mut cluster = Cluster::partition_by_key_replicated(&db, nodes, 2).unwrap();
        let plane = FaultPlane::single_crash(fault_seed, nodes);
        let (mut rows, _) = run_decorrelated_with(
            &mut cluster,
            &qgm,
            &[("dept", "building"), ("emp", "building")],
            &MagicOptions::default(),
            Some(&plane),
        )
        .unwrap_or_else(|e| panic!("seed {fault_seed}: {e}"));
        rows.sort();
        prop_assert_eq!(rows, truth);
    }
}
