//! The nested-iteration memo's own contracts, beyond the rows each lane
//! returns (`tests/exec_lattice.rs` holds those against the reference
//! interpreter): a binding read outside a comparison keeps its exact memo
//! key, repeated bindings execute once per distinct key, and an exhausted
//! memory budget falls back to unmemoized execution.

use decorr_common::{DataType, ExecStats, Row, Schema, Value};
use decorr_exec::{execute_with, ExecOptions, SharedSubplans, SubplanCache, SubplanShape};
use decorr_qgm::{validate::validate, BinOp, BoxId, BoxKind, Expr, Qgm, QuantKind};
use decorr_sql::parse_and_bind;
use decorr_storage::Database;

/// `dept(name, num_emps, building)` and `emp(name, building)`, buildings
/// of type `ty`.
fn db(ty: DataType, depts: Vec<(i64, Value)>, emps: Vec<Value>) -> Database {
    let mut db = Database::new();
    let cols = [
        ("name", DataType::Str),
        ("num_emps", DataType::Int),
        ("building", ty),
    ];
    let name = |i: usize| Value::str(format!("n{i}"));
    let dept = depts.into_iter().enumerate();
    let dept = dept.map(|(i, (n, b))| Row::new(vec![name(i), Value::Int(n), b]));
    let d = db.create_table("dept", Schema::from_pairs(&cols)).unwrap();
    d.insert_all(dept).unwrap();
    let emp = emps.into_iter().enumerate();
    let emp = emp.map(|(i, b)| Row::new(vec![name(i), b]));
    let e = db
        .create_table("emp", Schema::from_pairs(&[cols[0], cols[2]]))
        .unwrap();
    e.insert_all(emp).unwrap();
    db
}

/// `depts` departments in buildings `i % buildings`, `emps` employees in
/// buildings `i % 3`.
fn repeated(depts: i64, buildings: i64, emps: i64) -> Database {
    let depts = (0..depts).map(|i| (i % 4, Value::Int(i % buildings)));
    let emps = (0..emps).map(|i| Value::Int(i % 3)).collect();
    db(DataType::Int, depts.collect(), emps)
}

/// The naive nested-iteration configuration: no correlation-key memo, no
/// correlation probe — the executor as it was before memoization existed,
/// whose invocation counts are the paper's.
fn naive_ni() -> ExecOptions {
    ExecOptions { ni_memo: false, ni_batch: false, ..Default::default() }
}

const COUNT_LT: &str = "SELECT D.name FROM dept D WHERE D.num_emps < \
    (SELECT COUNT(*) FROM emp E WHERE E.building = D.building)";

/// Run `sql` as bound (nested iteration) on one thread, columnar: rows in
/// execution order — order is part of the contract — and (invocations,
/// distinct executions, memo hits).
fn run(db: &Database, sql: &str, opts: ExecOptions) -> (Vec<Row>, (u64, u64, u64)) {
    let opts = ExecOptions { threads: 1, columnar: true, ..opts };
    let (rows, s): (_, ExecStats) =
        execute_with(db, &parse_and_bind(sql, db).unwrap(), opts).unwrap();
    let counts = (s.subquery_invocations, s.subquery_distinct_invocations);
    (rows, (counts.0, counts.1, s.subquery_memo_hits))
}

/// Space-separated DOUBLEs and NULLs.
fn doubles(s: &str) -> Vec<Value> {
    s.split(' ')
        .map(|w| w.parse().map_or(Value::Null, Value::Double))
        .collect()
}

/// A binding observed outside a comparison (COALESCE) must disable the
/// NULL~NaN folding but still memoize correctly under raw keys.
#[test]
fn non_comparison_context_keys_stay_exact() {
    let depts = doubles("NULL NaN 1 -0 0 NaN NULL 1")
        .into_iter()
        .enumerate();
    let depts = depts.map(|(i, b)| (i as i64 % 4, b)).collect();
    let db = db(DataType::Double, depts, doubles("1 NULL -0 1 NaN 0"));
    for cmp in ["<", ">=", "=", "<>"] {
        let sql = format!(
            "SELECT D.name FROM dept D WHERE D.num_emps {cmp} \
             (SELECT COUNT(*) FROM emp E WHERE COALESCE(E.building, D.building) = 1)"
        );
        let (naive, (n, naive_distinct, naive_hits)) = run(&db, &sql, naive_ni());
        let (memo, counts) = run(&db, &sql, ExecOptions::default());
        assert_eq!(memo, naive, "{sql}");
        assert_eq!((naive_distinct, naive_hits), (n, 0));
        // NULL, NaN and 1.0 repeat; -0.0 and 0.0 stay two keys.
        assert_eq!(counts, (n, 5, n - 5), "{sql}");
    }
}

/// With repeated bindings, distinct < invocations, and memo rows are
/// byte-identical.
#[test]
fn repeated_bindings_memoize() {
    let db = repeated(12, 2, 20);
    let (naive, naive_counts) = run(&db, COUNT_LT, naive_ni());
    let (memo, counts) = run(&db, COUNT_LT, ExecOptions::default());
    assert_eq!(memo, naive);
    // Two distinct buildings → two executions, ten hits.
    assert_eq!((naive_counts, counts), ((12, 12, 0), (12, 2, 10)));
}

/// An exhausted memory budget falls back to unmemoized execution instead
/// of failing: same rows, fewer (or zero) hits.
#[test]
fn memo_budget_exhaustion_degrades_gracefully() {
    let db = repeated(12, 3, 30);
    let (naive, _) = run(&db, COUNT_LT, naive_ni());
    // A 2-row budget admits two of the three distinct one-row subquery
    // results into the memo ledger; the third class re-executes on every
    // binding — but the query still runs and agrees.
    let budget = ExecOptions { mem_budget: Some(2), ..ExecOptions::default() };
    let (rows, (n, distinct, hits)) = run(&db, COUNT_LT, budget);
    assert_eq!(rows, naive);
    assert_eq!((n, distinct + hits), (12, 12));
    // Unmemoized fallback shows up as extra "distinct" executions beyond
    // the three key classes.
    assert!(distinct > 3, "{distinct} distinct");
}

/// A memory budget the memo exhausts: two one-row results fill it.
fn exhausted() -> ExecOptions {
    ExecOptions { mem_budget: Some(2), ..ExecOptions::default() }
}

/// A lateral join keeps no result of its own: with the ledger full, a
/// repeated binding re-executes whether or not `ni_batch` is on (its input
/// has no `=` a correlation probe could serve), and the rows are those of
/// the unbudgeted run.
#[test]
fn an_exhausted_memo_keeps_no_lateral_result() {
    let db = repeated(12, 3, 30);
    let sql = "SELECT D.name, c FROM dept D, DT(c) AS \
               (SELECT COUNT(*) FROM emp E WHERE E.building < D.building)";
    let (unbudgeted, (n, distinct, _)) = run(&db, sql, ExecOptions::default());
    assert_eq!((n, distinct), (12, 3));
    let (batched, batched_counts) = run(&db, sql, exhausted());
    let per_row = ExecOptions { ni_batch: false, ..exhausted() };
    let (memo, memo_counts) = run(&db, sql, per_row);
    assert_eq!((&batched, &memo), (&unbudgeted, &unbudgeted));
    assert_eq!(batched_counts, memo_counts);
    // Two buildings' counts are kept; the third executes on each of its
    // four departments.
    assert_eq!(batched_counts, (12, 2 + 4, 6));
}

/// `t(x)` holding 0..100 and a plan joining `shared`, `t`'s rows below 10,
/// with itself: `shared` is a common subexpression referenced twice.
fn shared_twice() -> (Database, Qgm, BoxId) {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    t.insert_all((0..100).map(|i| Row::new(vec![Value::Int(i)])))
        .unwrap();
    let mut g = Qgm::new();
    let bt = g.add_base_table("t", db.table("t").unwrap().schema().clone());
    let shared = g.add_box(BoxKind::Select, "shared");
    let qt = g.add_quant(shared, QuantKind::Foreach, bt, "T");
    let lt = Expr::bin(BinOp::Lt, Expr::col(qt, 0), Expr::lit(10));
    g.boxmut(shared).preds.push(lt);
    g.add_output(shared, "x", Expr::col(qt, 0));
    let top = g.add_box(BoxKind::Select, "top");
    let q1 = g.add_quant(top, QuantKind::Foreach, shared, "A");
    let q2 = g.add_quant(top, QuantKind::Foreach, shared, "B");
    let eq = Expr::eq(Expr::col(q1, 0), Expr::col(q2, 0));
    g.boxmut(top).preds.push(eq);
    g.add_output(top, "x", Expr::col(q1, 0));
    g.set_top(top);
    validate(&g).unwrap();
    (db, g, shared)
}

/// A common subexpression the ledger cannot hold is recomputed per
/// reference, as without `memoize_cse`: 10 shared rows over a 2-row budget.
#[test]
fn a_common_subexpression_over_budget_is_not_kept() {
    let (db, g, _) = shared_twice();
    let (unbudgeted, _) = execute_with(&db, &g, ExecOptions::default()).unwrap();
    let lane = |memoize_cse| {
        let opts = ExecOptions { memoize_cse, ..exhausted() };
        execute_with(&db, &g, opts).unwrap()
    };
    let ((recomputed, recompute), (kept, cse)) = (lane(false), lane(true));
    assert_eq!((&recomputed, &kept), (&unbudgeted, &unbudgeted));
    assert_eq!(cse.rows_scanned, recompute.rows_scanned);
    assert_eq!(cse.rows_scanned, 200, "the shared box is evaluated twice");
}

/// A common subexpression that is also a shared subplan is served from the
/// run memo after its first reference: the run claims the cross-query
/// cache once, and only without `memoize_cse` does its second reference
/// hit there.
#[test]
fn a_kept_common_subexpression_claims_the_shared_cache_once() {
    let (db, g, shared) = shared_twice();
    let (unbudgeted, _) = execute_with(&db, &g, ExecOptions::default()).unwrap();
    let lane = |memoize_cse| {
        let shape = SubplanShape { shape: "shared".into(), tables: vec!["t".into()] };
        let marks = [(shared, shape)].into_iter().collect();
        let cache = SubplanCache::new(1 << 20);
        let shared_subplans = Some(SharedSubplans { cache, marks });
        let opts = ExecOptions { memoize_cse, shared_subplans, ..Default::default() };
        execute_with(&db, &g, opts).unwrap()
    };
    let ((claimed, twice), (kept, once)) = (lane(false), lane(true));
    assert_eq!((&claimed, &kept), (&unbudgeted, &unbudgeted));
    assert_eq!(twice.shared_subplan_hits, 1);
    assert_eq!(once.shared_subplan_hits, 0);
    assert_eq!((once.rows_scanned, twice.rows_scanned), (100, 100));
}

/// Three levels: the innermost subquery reads only the outer block's
/// `D.building`, so it is a constant for each evaluation of the middle
/// block. With the ledger full it executes once per middle evaluation the
/// memo does not serve, and no result outlives that evaluation.
#[test]
fn an_outer_correlated_result_the_ledger_refuses_lives_one_evaluation() {
    let db = repeated(12, 3, 30);
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps < \
               (SELECT COUNT(*) FROM emp E WHERE E.name <> D.name AND E.building < \
                 (SELECT COUNT(*) FROM emp E2 WHERE E2.building = D.building))";
    let (unbudgeted, counts) = run(&db, sql, ExecOptions::default());
    // Twelve middle executions (one per name); the innermost once per
    // building, served from the memo in the other nine.
    assert_eq!(counts, (24, 15, 9));
    let (rows, counts) = run(&db, sql, exhausted());
    assert_eq!(rows, unbudgeted);
    // The ledger keeps building 0's innermost result and the first middle
    // result; buildings 1 and 2 execute in each of their four middle
    // evaluations.
    assert_eq!(counts, (24, 12 + 1 + 4 + 4, 3));
}
