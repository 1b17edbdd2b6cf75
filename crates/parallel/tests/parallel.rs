//! Section 6 end-to-end: parallel nested iteration vs the decorrelated
//! plan must agree with single-node execution, with O(n²) vs O(n)
//! computation fragments.

use decorr_common::{Error, FaultPlane};
use decorr_core::magic::MagicOptions;
use decorr_exec::{execute, ExecOptions};
use decorr_parallel::{
    run_decorrelated, run_decorrelated_with, run_gathered, run_nested_iteration,
    run_nested_iteration_with, Cluster,
};
use decorr_sql::parse_and_bind;
use decorr_tpcd::empdept::{generate, EmpDeptConfig};

const QUERY: &str = "Select D.name From Dept D \
    Where D.budget < 10000 and D.num_emps > \
    (Select Count(*) From Emp E Where D.building = E.building)";

fn sorted(mut rows: Vec<decorr_common::Row>) -> Vec<decorr_common::Row> {
    rows.sort();
    rows
}

#[test]
fn parallel_strategies_agree_with_single_node() {
    let db = generate(&EmpDeptConfig {
        departments: 120,
        employees: 800,
        buildings: 12,
        seed: 11,
        with_indexes: true,
    })
    .unwrap();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let (truth, _) = execute(&db, &qgm).unwrap();
    let truth = sorted(truth);
    assert!(!truth.is_empty());

    for n in [1, 2, 4, 8] {
        let cluster = Cluster::partition_by_key(&db, n).unwrap();
        let (ni_rows, ni_stats) = run_nested_iteration(&cluster, &qgm).unwrap();
        assert_eq!(sorted(ni_rows), truth, "NI on {n} nodes");
        assert_eq!(ni_stats.nodes, n);

        let mut cluster2 = Cluster::partition_by_key(&db, n).unwrap();
        let (dc_rows, dc_stats) = run_decorrelated(
            &mut cluster2,
            &qgm,
            &[("dept", "building"), ("emp", "building")],
            &MagicOptions::default(),
        )
        .unwrap();
        assert_eq!(sorted(dc_rows), truth, "decorrelated on {n} nodes");
        assert_eq!(dc_stats.fragments, n as u64);
    }
}

#[test]
fn nested_iteration_fragments_grow_quadratically() {
    let db = generate(&EmpDeptConfig {
        departments: 60,
        employees: 300,
        buildings: 10,
        seed: 3,
        with_indexes: true,
    })
    .unwrap();
    let qgm = parse_and_bind(QUERY, &db).unwrap();

    // Qualifying outer tuples are fixed; NI fragments = candidates × n.
    let mut frag_per_n = Vec::new();
    for n in [1, 2, 4] {
        let cluster = Cluster::partition_by_key(&db, n).unwrap();
        let (_, stats) = run_nested_iteration(&cluster, &qgm).unwrap();
        assert_eq!(stats.fragments, stats.subquery_invocations * n as u64);
        frag_per_n.push(stats.fragments);
        // Broadcast messaging: 2(n-1) messages per binding.
        assert_eq!(
            stats.messages,
            stats.subquery_invocations * 2 * (n as u64 - 1)
        );
    }
    assert_eq!(frag_per_n[1], 2 * frag_per_n[0]);
    assert_eq!(frag_per_n[2], 4 * frag_per_n[0]);
}

#[test]
fn decorrelated_plan_communicates_only_during_repartitioning() {
    let db = generate(&EmpDeptConfig {
        departments: 60,
        employees: 300,
        buildings: 10,
        seed: 3,
        with_indexes: true,
    })
    .unwrap();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let n = 4;
    let mut cluster = Cluster::partition_by_key(&db, n).unwrap();
    let (_, stats) = run_decorrelated(
        &mut cluster,
        &qgm,
        &[("dept", "building"), ("emp", "building")],
        &MagicOptions::default(),
    )
    .unwrap();
    // All messages are shipped tuples plus one result message per node.
    assert_eq!(stats.messages, stats.rows_shipped + n as u64);
    // Repartitioning moves at most all rows.
    assert!(stats.rows_shipped <= 360);
    // Work spreads over the nodes instead of repeating on all of them.
    // (Hash placement of 10 buildings can starve a node, but most nodes
    // must hold work.)
    let busy = stats.per_node_work.iter().filter(|&&w| w > 0).count();
    assert!(busy >= n / 2, "only {busy} of {n} nodes did work");
}

#[test]
fn decorrelated_beats_ni_on_total_work_and_messages() {
    let db = generate(&EmpDeptConfig {
        departments: 400,
        employees: 4000,
        buildings: 25,
        seed: 5,
        with_indexes: true,
    })
    .unwrap();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let n = 8;
    let cluster = Cluster::partition_by_key(&db, n).unwrap();
    let (_, ni) = run_nested_iteration(&cluster, &qgm).unwrap();
    let mut cluster2 = Cluster::partition_by_key(&db, n).unwrap();
    let (_, dc) = run_decorrelated(
        &mut cluster2,
        &qgm,
        &[("dept", "building"), ("emp", "building")],
        &MagicOptions::default(),
    )
    .unwrap();
    assert!(
        dc.total_work() < ni.total_work(),
        "{} vs {}",
        dc.total_work(),
        ni.total_work()
    );
    assert!(dc.fragments < ni.fragments);
}

// ---- fault injection --------------------------------------------------------

fn chaos_db() -> decorr_storage::Database {
    generate(&EmpDeptConfig {
        departments: 80,
        employees: 400,
        buildings: 11,
        seed: 17,
        with_indexes: true,
    })
    .unwrap()
}

/// Run a crash-seed sweep from four threads at once against the one
/// shared cluster, each on its own `Chaos` — recovery under the concurrent
/// load a query service generates. Every thread must hold the contract by
/// itself; a panic in any of them fails the test when the scope closes.
fn replayed_from_four_threads(sweep: impl Fn() + Sync) {
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(&sweep);
        }
    });
}

/// With a replica for every partition, a permanently crashed node must be
/// invisible in the answer: the gathered run under every crash seed is
/// **byte-identical** (same rows, same order) to the fault-free run.
#[test]
fn gathered_chaos_recovers_byte_identically_with_replicas() {
    let db = chaos_db();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let cluster = Cluster::partition_by_key_replicated(&db, 4, 2).unwrap();
    let (baseline, base_stats) =
        run_gathered(&cluster, &qgm, ExecOptions::default(), None).unwrap();
    assert!(!baseline.is_empty());
    assert_eq!(base_stats.retries, 0);

    replayed_from_four_threads(|| {
        for seed in 0..8u64 {
            let chaos = FaultPlane::single_crash(seed, 4);
            let (rows, stats) = run_gathered(&cluster, &qgm, ExecOptions::default(), Some(&chaos))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(rows, baseline, "seed {seed} not byte-identical");
            assert!(stats.failovers >= 1, "seed {seed} never failed over");
            assert!(stats.redriven_rows > 0, "seed {seed} redrove no rows");
        }
    });
}

/// Without replicas the same crash seeds must fail *closed*: a typed
/// `NodeFailed`, never a wrong (partial) answer.
#[test]
fn gathered_chaos_without_replicas_fails_closed() {
    let db = chaos_db();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let cluster = Cluster::partition_by_key(&db, 4).unwrap();
    replayed_from_four_threads(|| {
        for seed in 0..8u64 {
            let chaos = FaultPlane::single_crash(seed, 4);
            let err =
                run_gathered(&cluster, &qgm, ExecOptions::default(), Some(&chaos)).unwrap_err();
            assert!(matches!(err, Error::NodeFailed(_)), "seed {seed}: {err:?}");
        }
    });
}

/// Seeded transient faults and finite crash windows are absorbed by retry
/// alone (no replicas needed), and the answer matches the fault-free run.
#[test]
fn gathered_transient_faults_recover_by_retry() {
    let db = chaos_db();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let cluster = Cluster::partition_by_key(&db, 4).unwrap();
    let (baseline, _) = run_gathered(&cluster, &qgm, ExecOptions::default(), None).unwrap();
    let mut saw_fault = false;
    for seed in 0..8u64 {
        let chaos = FaultPlane::crash_window(seed, 4);
        let (rows, stats) = run_gathered(&cluster, &qgm, ExecOptions::default(), Some(&chaos))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(rows, baseline, "seed {seed} not byte-identical");
        saw_fault |= stats.retries > 0 || stats.injected_delay_ticks > 0;
    }
    assert!(saw_fault, "no seed in 0..8 injected anything");
}

/// The same chaos seed replays to the same counters — CI failures are
/// reproducible from the seed alone.
#[test]
fn chaos_replays_exactly_from_seed() {
    let db = chaos_db();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let cluster = Cluster::partition_by_key_replicated(&db, 4, 2).unwrap();
    let run = |seed: u64| {
        let chaos = FaultPlane::single_crash(seed, 4);
        let (rows, stats) =
            run_gathered(&cluster, &qgm, ExecOptions::default(), Some(&chaos)).unwrap();
        (
            rows,
            stats.retries,
            stats.failovers,
            stats.injected_delay_ticks,
        )
    };
    assert_eq!(run(5), run(5));
}

/// The strategy runners themselves recover through replicas: nested
/// iteration and the decorrelated plan both survive a permanent
/// single-node crash with replication 2 and agree with single-node truth.
#[test]
fn strategy_runners_recover_with_replicas() {
    let db = chaos_db();
    let qgm = parse_and_bind(QUERY, &db).unwrap();
    let (truth, _) = execute(&db, &qgm).unwrap();
    let truth = sorted(truth);
    assert!(!truth.is_empty());
    let seed = 3u64;

    let cluster = Cluster::partition_by_key_replicated(&db, 4, 2).unwrap();
    let chaos = FaultPlane::single_crash(seed, 4);
    let (ni_rows, ni_stats) = run_nested_iteration_with(&cluster, &qgm, Some(&chaos)).unwrap();
    assert_eq!(sorted(ni_rows), truth, "NI under chaos");
    assert!(ni_stats.retries > 0);

    let mut cluster2 = Cluster::partition_by_key_replicated(&db, 4, 2).unwrap();
    let chaos2 = FaultPlane::single_crash(seed, 4);
    let (dc_rows, dc_stats) = run_decorrelated_with(
        &mut cluster2,
        &qgm,
        &[("dept", "building"), ("emp", "building")],
        &MagicOptions::default(),
        Some(&chaos2),
    )
    .unwrap();
    assert_eq!(sorted(dc_rows), truth, "decorrelated under chaos");
    assert!(dc_stats.failovers >= 1);
    assert!(dc_stats.redriven_rows > 0);
}

#[test]
fn parallel_ni_rejects_unsupported_shapes() {
    let db = generate(&EmpDeptConfig::default()).unwrap();
    // Two outer tables: local joins over key-partitioned tables are wrong,
    // so the runner refuses.
    let qgm = parse_and_bind(
        "SELECT D.name FROM dept D, emp E0 WHERE D.building = E0.building AND \
         D.num_emps > (SELECT COUNT(*) FROM emp E WHERE E.building = D.building)",
        &db,
    )
    .unwrap();
    let cluster = Cluster::partition_by_key(&db, 2).unwrap();
    assert!(run_nested_iteration(&cluster, &qgm).is_err());
}
