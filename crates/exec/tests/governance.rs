//! Query-governance tests: cancellation, timeout, and the memory budget
//! without a spill device. Every governed exit must be a typed error —
//! never a panic — and must not leak partial results into the run's
//! counters.

use std::sync::Barrier;

use decorr_common::{row, Budget, CancelToken, DataType, Error, ExecStats, Schema};
use decorr_exec::{execute_traced, execute_with, ExecOptions, Executor};
use decorr_sql::parse_and_bind;
use decorr_storage::Database;

/// dept(name, num_emps, building) × emp(name, building): sized so the
/// correlated-subquery plan below runs for tens of milliseconds — long
/// enough to cancel mid-flight, short enough for a test suite.
fn big_db(depts: usize, emps: usize) -> Database {
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
    for i in 0..depts {
        d.insert(row![format!("d{i}"), (i % 50) as i64, (i % 23) as i64])
            .unwrap();
    }
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    for i in 0..emps {
        e.insert(row![format!("e{i}"), (i % 23) as i64]).unwrap();
    }
    db
}

const CORRELATED: &str = "SELECT d.name FROM dept d \
     WHERE d.num_emps > (SELECT COUNT(*) FROM emp e WHERE e.building = d.building)";

fn opts_with(threads: usize, f: impl FnOnce(&mut ExecOptions)) -> ExecOptions {
    let mut o = ExecOptions { threads, ..ExecOptions::default() };
    f(&mut o);
    o
}

// ---- cancellation ----------------------------------------------------------

#[test]
fn pre_cancelled_query_returns_cancelled_not_rows() {
    let db = big_db(20, 200);
    let qgm = parse_and_bind(CORRELATED, &db).unwrap();
    for threads in [1, 4] {
        let tok = CancelToken::new();
        tok.cancel();
        let opts = opts_with(threads, |o| o.cancel = Some(tok.clone()));
        let mut ex = Executor::new(&db, opts);
        let err = ex.run(&qgm).unwrap_err();
        assert_eq!(err, Error::Cancelled, "threads={threads}");
        assert_eq!(ex.stats().output_rows, 0, "threads={threads}");
    }
}

/// Fire the token from another thread while the query is running: the run
/// must unwind with `Cancelled` at a morsel boundary, and no partial rows
/// may leak into the stats. The killer waits at a barrier the query thread
/// passes just before `run`, so it fires within a thread wake-up of the
/// start, and the world is big enough that the run takes a thousand
/// wake-ups (~50 ms under `--release`): the cancel lands mid-query — or
/// before the first morsel, if the query thread is the one descheduled,
/// which is `Cancelled` too. No sleep decides it.
#[test]
fn mid_query_cancel_from_another_thread() {
    let db = big_db(2000, 20_000);
    let qgm = parse_and_bind(CORRELATED, &db).unwrap();
    for threads in [1, 4] {
        let tok = CancelToken::new();
        // Naive nested iteration keeps the run long (the memoized executor
        // finishes this query in microseconds).
        let opts = opts_with(threads, |o| o.cancel = Some(tok.clone())).naive_ni();
        let mut ex = Executor::new(&db, opts);
        let started = Barrier::new(2);
        let result = std::thread::scope(|scope| {
            scope.spawn(|| {
                started.wait();
                tok.cancel();
            });
            started.wait();
            ex.run(&qgm)
        });
        let err = result.unwrap_err();
        assert_eq!(err, Error::Cancelled, "threads={threads}");
        assert_eq!(ex.stats().output_rows, 0, "threads={threads}");
    }
}

// ---- timeout ---------------------------------------------------------------

/// Tick budgets are charged deterministically (one tick per row touched),
/// so the same budget either always or never times out — no wall clock.
#[test]
fn tick_budget_timeout_is_deterministic() {
    let db = big_db(50, 500);
    let qgm = parse_and_bind(CORRELATED, &db).unwrap();
    for threads in [1, 4] {
        let opts = opts_with(threads, |o| o.timeout = Some(Budget::ticks(100)));
        let err = execute_with(&db, &qgm, opts).unwrap_err();
        assert_eq!(err, Error::Timeout, "threads={threads}");
    }
    // A budget bigger than the whole run's work never fires.
    let opts = opts_with(1, |o| o.timeout = Some(Budget::ticks(u64::MAX / 2)));
    assert!(execute_with(&db, &qgm, opts).is_ok());
}

// ---- memory budget: no spill device ------------------------------------------

/// Over the budget with no spill device, `sql` runs the same hash algorithm
/// in memory: the unbudgeted run's rows in its order and its work, counted
/// as a degradation whose trace entry says why.
fn over_budget_in_memory(db: &Database, sql: &str, mem_budget: usize) {
    let qgm = parse_and_bind(sql, db).unwrap();
    let (unbudgeted, base_stats) = execute_with(db, &qgm, ExecOptions::default()).unwrap();
    assert_eq!(base_stats.degradations, 0);

    let opts = opts_with(1, |o| o.mem_budget = Some(mem_budget));
    let (budgeted, stats, trace) = execute_traced(db, &qgm, opts).unwrap();
    let rendered = trace.render(&qgm);
    assert!(stats.degradations >= 1, "{rendered}");
    assert_eq!(trace.total_degradations(), stats.degradations);
    assert!(rendered.contains("no spill device"), "{rendered}");
    assert_eq!(budgeted, unbudgeted, "same rows, same order");
    assert_eq!(
        ExecStats { degradations: 0, ..stats },
        base_stats,
        "the same work"
    );
}

#[test]
fn hash_join_over_budget_without_a_spill_device_keeps_rows_and_order() {
    let sql = "SELECT d.name, e.name FROM dept d, emp e WHERE d.building = e.building";
    over_budget_in_memory(&big_db(80, 300), sql, 10);
}

#[test]
fn grouping_over_budget_without_a_spill_device_keeps_rows_and_order() {
    let sql = "SELECT building, COUNT(*) AS c FROM emp GROUP BY building";
    over_budget_in_memory(&big_db(10, 200), sql, 16);
}

/// Budget decisions are input-size-based, so a budgeted run is
/// byte-identical (rows *and* counters) across thread counts.
#[test]
fn budgeted_runs_are_thread_invariant() {
    let db = big_db(80, 300);
    for sql in [
        "SELECT d.name, e.name FROM dept d, emp e WHERE d.building = e.building",
        "SELECT building, COUNT(*) AS c FROM emp GROUP BY building",
    ] {
        let qgm = parse_and_bind(sql, &db).unwrap();
        let serial = execute_with(&db, &qgm, opts_with(1, |o| o.mem_budget = Some(10))).unwrap();
        let parallel = execute_with(&db, &qgm, opts_with(4, |o| o.mem_budget = Some(10))).unwrap();
        assert_eq!(serial.0, parallel.0, "{sql}");
        assert_eq!(serial.1, parallel.1, "{sql}");
    }
}

// ---- memory budget: hard ceiling -------------------------------------------

/// No algorithm can bound the *result*: an operator output larger than
/// 1024 × the budget fails closed with `ResourceExhausted`.
#[test]
fn oversized_output_is_resource_exhausted() {
    let db = big_db(60, 60);
    let sql = "SELECT d.name, e.name FROM dept d, emp e";
    let qgm = parse_and_bind(sql, &db).unwrap();
    let err = execute_with(&db, &qgm, opts_with(1, |o| o.mem_budget = Some(1))).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
}

/// A generous budget leaves execution untouched: nothing over it, same
/// rows and stats as an un-governed run.
#[test]
fn generous_budget_changes_nothing() {
    let db = big_db(50, 500);
    let qgm = parse_and_bind(CORRELATED, &db).unwrap();
    let base = execute_with(&db, &qgm, ExecOptions::default()).unwrap();
    let governed = execute_with(
        &db,
        &qgm,
        opts_with(1, |o| {
            o.mem_budget = Some(usize::MAX / 2048);
            o.cancel = Some(CancelToken::new());
        }),
    )
    .unwrap();
    assert_eq!(base.0, governed.0);
    assert_eq!(base.1, governed.1);
}
