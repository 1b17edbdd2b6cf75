//! The nested-iteration memo's own contracts, beyond the rows each lane
//! returns (`tests/exec_lattice.rs` holds those against the reference
//! interpreter): a binding read outside a comparison keeps its exact memo
//! key, repeated bindings execute once per distinct key, and an exhausted
//! memory budget falls back to unmemoized execution.

use decorr_common::{DataType, ExecStats, Row, Schema, Value};
use decorr_exec::{execute_with, ExecOptions};
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
        let (naive, (n, naive_distinct, naive_hits)) =
            run(&db, &sql, ExecOptions::default().naive_ni());
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
    let (naive, naive_counts) = run(&db, COUNT_LT, ExecOptions::default().naive_ni());
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
    let (naive, _) = run(&db, COUNT_LT, ExecOptions::default().naive_ni());
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
