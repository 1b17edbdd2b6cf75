//! Spill-to-disk equivalence: over-budget hash joins and groupings that
//! partition through the buffer pool must return **byte-identical** rows —
//! same values, same order — as the unlimited in-memory run, while the
//! stats record spills (not degradations). Without a spill device, or with
//! a full one, they run in memory and return those rows all the same.

use std::sync::Arc;

use decorr_common::{row, Budget, ChaosEnv, DataType, FaultPlane, Row, Schema, Value};
use decorr_exec::{execute_traced, ExecOptions, ExecTrace, JoinStrategy};
use decorr_qgm::{AggFunc, BinOp, BoxKind, Expr, Qgm, QuantKind};
use decorr_storage::{BufferPool, Database, SpillManager};

fn spill_mgr() -> Arc<SpillManager> {
    let dir = std::env::temp_dir().join(format!("decorr-exec-spill-{}", std::process::id()));
    Arc::new(
        SpillManager::new(
            dir,
            decorr_common::RealEnv::shared(),
            BufferPool::new(1 << 20),
        )
        .unwrap(),
    )
}

/// A spill manager whose device is full: every write fails with ENOSPC.
fn full_spill_mgr() -> Arc<SpillManager> {
    let env = ChaosEnv::new(FaultPlane::quiet(7));
    let mgr = SpillManager::new("/spill", Arc::new(env.clone()), BufferPool::new(1 << 20));
    env.set_disk_full(true);
    Arc::new(mgr.unwrap())
}

/// l(a): ints 0..60 cycled, plus NULL rows.
/// r(b): doubles over the same key range with dupes, ±0.0, NaN and NULL.
fn join_db() -> Database {
    let mut db = Database::new();
    let l = db
        .create_table("l", Schema::from_pairs(&[("a", DataType::Int)]))
        .unwrap();
    for i in 0..300i64 {
        l.insert(row![i % 60]).unwrap();
    }
    l.insert(row![Value::Null]).unwrap();
    l.insert(row![0]).unwrap();
    let r = db
        .create_table("r", Schema::from_pairs(&[("b", DataType::Double)]))
        .unwrap();
    for i in 0..200i64 {
        r.insert(row![(i % 60) as f64]).unwrap();
    }
    r.insert(row![-0.0]).unwrap();
    r.insert(row![f64::NAN]).unwrap();
    r.insert(row![Value::Null]).unwrap();
    db
}

fn join_qgm(op: BinOp) -> Qgm {
    let mut g = Qgm::new();
    let lt = g.add_base_table("l", Schema::from_pairs(&[("a", DataType::Int)]));
    let rt = g.add_base_table("r", Schema::from_pairs(&[("b", DataType::Double)]));
    let top = g.add_box(BoxKind::Select, "top");
    let ql = g.add_quant(top, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(top, QuantKind::Foreach, rt, "R");
    g.boxmut(top)
        .preds
        .push(Expr::bin(op, Expr::col(ql, 0), Expr::col(qr, 0)));
    g.add_output(top, "a", Expr::col(ql, 0));
    g.add_output(top, "b", Expr::col(qr, 0));
    g.set_top(top);
    g
}

/// x values 0..40 cycled with NULLs sprinkled in, for grouping.
fn group_db() -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .unwrap();
    for i in 0..2000i64 {
        let key = if i % 97 == 0 {
            Value::Null
        } else {
            Value::Int(i % 40)
        };
        t.insert(Row::new(vec![key, Value::Int(i)])).unwrap();
    }
    db
}

fn group_qgm() -> Qgm {
    let mut g = Qgm::new();
    let tt = g.add_base_table(
        "t",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    let grp = g.add_box(BoxKind::Grouping { group_by: vec![] }, "g");
    let qg = g.add_quant(grp, QuantKind::Foreach, tt, "T");
    let BoxKind::Grouping { group_by } = &mut g.boxmut(grp).kind else {
        unreachable!()
    };
    group_by.push(Expr::col(qg, 0));
    g.add_output(grp, "k", Expr::col(qg, 0));
    g.add_output(grp, "n", Expr::count_star());
    g.add_output(grp, "s", Expr::agg(AggFunc::Sum, Expr::col(qg, 1)));
    g.set_top(grp);
    g
}

fn used_grace(trace: &ExecTrace, g: &Qgm) -> bool {
    g.reachable_boxes(g.top())
        .iter()
        .filter_map(|&b| trace.get(b))
        .flat_map(|t| t.joins.iter())
        .any(|j| j.strategy == JoinStrategy::GraceHash)
}

#[test]
fn spilled_hash_join_is_byte_identical_to_in_memory() {
    let db = join_db();
    for op in [BinOp::Eq, BinOp::NullEq] {
        let g = join_qgm(op);
        let (reference, ref_stats, _) = execute_traced(&db, &g, ExecOptions::default()).unwrap();
        assert_eq!(ref_stats.spills, 0);

        // One tick budget for both runs, linear in the input (8 ticks a
        // row; the spilled pass takes 1): enough for one partitioned pass,
        // and for the in-memory hash join the executor runs without a spill
        // manager — the same rows in the same order.
        let ticks = || Some(Budget::ticks(8 * (302 + 203)));
        let opts = ExecOptions {
            mem_budget: Some(50),
            spill: Some(spill_mgr()),
            timeout: ticks(),
            ..Default::default()
        };
        let (spilled, stats, trace) = execute_traced(&db, &g, opts).unwrap();
        let no_spill = ExecOptions { mem_budget: Some(50), timeout: ticks(), ..Default::default() };
        let (in_memory, in_memory_stats, _) = execute_traced(&db, &g, no_spill).unwrap();
        assert_eq!(in_memory, reference, "in-memory join diverged ({op:?})");
        assert_eq!(in_memory_stats.spills, 0);
        assert!(
            used_grace(&trace, &g),
            "expected grace-hash:\n{}",
            trace.render(&g)
        );
        assert!(stats.spills > 0, "spill must be recorded ({op:?})");
        assert_eq!(
            stats.degradations, 0,
            "a spill is not a degradation ({op:?})"
        );
        assert!(stats.pages_read > 0, "spill I/O must flow through the pool");
        // Byte-identical: same rows, same order — no sort before comparing.
        assert_eq!(spilled, reference, "spilled join diverged ({op:?})");
    }
}

#[test]
fn spilled_grouping_is_byte_identical_to_in_memory() {
    let db = group_db();
    let g = group_qgm();
    let (reference, ref_stats, _) = execute_traced(&db, &g, ExecOptions::default()).unwrap();
    assert_eq!(ref_stats.spills, 0);
    assert_eq!(reference.len(), 41, "40 int groups + the NULL group");

    let opts =
        ExecOptions { mem_budget: Some(100), spill: Some(spill_mgr()), ..Default::default() };
    let (spilled, stats, _) = execute_traced(&db, &g, opts).unwrap();
    assert!(stats.spills > 0, "grouping spill must be recorded");
    assert_eq!(stats.degradations, 0, "a spill is not a degradation");
    assert_eq!(
        spilled, reference,
        "spilled grouping diverged (values or order)"
    );
}

#[test]
fn without_a_spill_manager_the_budget_runs_in_memory() {
    // No spill manager: the in-memory hash grouping, the same rows in the
    // same order, recorded as a degradation and NOT as a spill.
    let db = group_db();
    let g = group_qgm();
    let (reference, _, _) = execute_traced(&db, &g, ExecOptions::default()).unwrap();
    let opts = ExecOptions { mem_budget: Some(100), ..Default::default() };
    let (in_memory, stats, _) = execute_traced(&db, &g, opts).unwrap();
    assert!(stats.degradations > 0);
    assert_eq!(stats.spills, 0);
    assert_eq!(in_memory, reference);
}

/// A spill whose device is full (ENOSPC) leaves its operator to run in
/// memory: a join and a GROUP BY over the budget still succeed, with the
/// unbudgeted run's rows in its order, counted as a spill attempted and a
/// degradation taken.
#[test]
fn a_full_spill_device_runs_in_memory_in_the_same_order() {
    let cases = [
        ("join", join_db(), join_qgm(BinOp::Eq), 50),
        ("grouping", group_db(), group_qgm(), 100),
    ];
    for (what, db, g, mem_budget) in cases {
        let (reference, _, _) = execute_traced(&db, &g, ExecOptions::default()).unwrap();
        let spill = Some(full_spill_mgr());
        let opts = ExecOptions { mem_budget: Some(mem_budget), spill, ..Default::default() };
        let (rows, stats, trace) = execute_traced(&db, &g, opts).unwrap();
        let rendered = trace.render(&g);
        assert!(stats.spills >= 1, "{what}: {stats:?}");
        assert!(stats.degradations >= 1, "{what}: {stats:?}");
        assert!(rendered.contains("spill device full"), "{what}: {rendered}");
        assert!(!used_grace(&trace, &g), "{what}: {rendered}");
        assert_eq!(rows, reference, "{what}: rows or order");
    }
}

/// A grand total (no GROUP BY) holds one group whatever its input, so it
/// never spills, even over the budget with a spill manager.
#[test]
fn a_grand_total_never_spills() {
    let db = group_db();
    let g = decorr_sql::parse_and_bind("SELECT COUNT(*), SUM(t.v), MIN(t.k) FROM t", &db).unwrap();
    let (reference, _, _) = execute_traced(&db, &g, ExecOptions::default()).unwrap();
    let opts =
        ExecOptions { mem_budget: Some(100), spill: Some(spill_mgr()), ..Default::default() };
    let (rows, stats, _) = execute_traced(&db, &g, opts).unwrap();
    assert_eq!((stats.spills, stats.degradations), (0, 0));
    assert_eq!(rows, reference);
}

#[test]
fn spill_counters_fold_into_exec_stats() {
    let db = join_db();
    let g = join_qgm(BinOp::Eq);
    let mgr = spill_mgr();
    let opts =
        ExecOptions { mem_budget: Some(50), spill: Some(Arc::clone(&mgr)), ..Default::default() };
    let (_, stats, _) = execute_traced(&db, &g, opts).unwrap();
    // Per-query counters and the process-wide pool agree that I/O happened.
    assert!(stats.pool_misses > 0);
    assert_eq!(
        stats.pages_read,
        stats.pool_hits + stats.pool_misses,
        "pages_read must be hits + misses"
    );
    assert!(mgr.pool().stats().misses > 0);
}
