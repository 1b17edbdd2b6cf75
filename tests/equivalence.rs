//! Cross-crate equivalence tests: every applicable strategy must return
//! the same rows as nested iteration on the same database — except Kim's
//! method on COUNT-bug queries, whose divergence is itself asserted.

use decorr::prelude::*;
use decorr::row;

/// Build the Section 2 example database. Department "ops" sits in an
/// empty building — the COUNT-bug witness.
fn empdept() -> Database {
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        )
        .unwrap();
    d.insert_all(vec![
        row!["toys", 5000.0, 3, 1],
        row!["shoes", 8000.0, 1, 2],
        row!["ops", 500.0, 1, 3],
        row!["golf", 20000.0, 9, 1],
        row!["books", 9000.0, 2, 1],
        row!["mail", 7000.0, 4, 2],
    ])
    .unwrap();
    d.set_key(&["name"]).unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    e.insert_all(vec![
        row!["ann", 1],
        row!["bob", 1],
        row!["cat", 2],
        row!["dan", 2],
        row!["eve", 2],
        row!["fred", 1],
    ])
    .unwrap();
    e.set_key(&["name"]).unwrap();
    db
}

fn run_strategy(db: &Database, sql: &str, s: Strategy) -> Result<Vec<Row>> {
    let qgm = parse_and_bind(sql, db)?;
    let rewritten = apply_strategy(&qgm, s)?;
    validate(&rewritten)?;
    let (mut rows, _) = execute(db, &rewritten)?;
    rows.sort();
    Ok(rows)
}

/// Assert that all given strategies agree with nested iteration. On a
/// mismatch, [`decorr::figures::diff_strategies`] dumps both EXPLAIN plans,
/// both rewrite/execution traces and the first differing row.
fn assert_equivalent(db: &Database, sql: &str, strategies: &[Strategy]) {
    let expected = run_strategy(db, sql, Strategy::NestedIteration).unwrap();
    for &s in strategies {
        let got = run_strategy(db, sql, s)
            .unwrap_or_else(|e| panic!("strategy {} failed on {sql:?}: {e}", s.name()));
        if got != expected {
            let dump = decorr::figures::diff_strategies(
                db,
                sql,
                Strategy::NestedIteration,
                s,
                Default::default(),
                Default::default(),
            )
            .ok()
            .flatten()
            .unwrap_or_else(|| "(mismatch not reproducible under tracing)".into());
            panic!("strategy {} diverges on {sql:?}\n{dump}", s.name());
        }
    }
}

const PAPER_QUERY: &str = "Select D.name From Dept D \
    Where D.budget < 10000 and D.num_emps > \
    (Select Count(*) From Emp E Where D.building = E.building)";

#[test]
fn paper_example_magic_fixes_count_bug_kim_reproduces_it() {
    let db = empdept();
    let ni = run_strategy(&db, PAPER_QUERY, Strategy::NestedIteration).unwrap();
    let mag = run_strategy(&db, PAPER_QUERY, Strategy::Magic).unwrap();
    let dayal = run_strategy(&db, PAPER_QUERY, Strategy::Dayal).unwrap();
    let ganski = run_strategy(&db, PAPER_QUERY, Strategy::GanskiWong).unwrap();
    let kim = run_strategy(&db, PAPER_QUERY, Strategy::Kim).unwrap();

    assert_eq!(mag, ni);
    assert_eq!(dayal, ni);
    assert_eq!(ganski, ni);
    // "ops" (building 3, no employees, 1 > 0) must be an answer ...
    assert!(ni.contains(&row!["ops"]));
    // ... but Kim's method loses it: the COUNT bug.
    assert!(!kim.contains(&row!["ops"]));
    let mut kim_plus_ops = kim.clone();
    kim_plus_ops.push(row!["ops"]);
    kim_plus_ops.sort();
    assert_eq!(kim_plus_ops, ni, "Kim differs from NI only by the lost row");
}

#[test]
fn min_aggregate_all_strategies_agree() {
    let db = empdept();
    // MIN instead of COUNT: empty group yields NULL, every method agrees.
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps > \
               (SELECT MIN(E.building) FROM emp E WHERE E.building = D.building)";
    assert_equivalent(
        &db,
        sql,
        &[
            Strategy::Kim,
            Strategy::Dayal,
            Strategy::Magic,
            Strategy::OptMag,
        ],
    );
}

#[test]
fn avg_with_projection_shell() {
    let db = empdept();
    // The Query 2 shape: arithmetic over the aggregate.
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps > \
               (SELECT 0.5 * COUNT(*) FROM emp E WHERE E.building = D.building)";
    // COUNT through arithmetic: Kim still shows the bug family, so only
    // compare the bug-free methods.
    assert_equivalent(&db, sql, &[Strategy::Dayal, Strategy::Magic]);
}

#[test]
fn duplicates_in_correlation_column() {
    let db = empdept();
    // Three departments share building 1: magic evaluates the subquery
    // once per distinct building.
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps >= \
               (SELECT COUNT(*) FROM emp E WHERE E.building = D.building)";
    let qgm = parse_and_bind(sql, &db).unwrap();
    let (_, ni_stats) = execute(&db, &qgm).unwrap();
    let mag = apply_strategy(&qgm, Strategy::Magic).unwrap();
    let (_, mag_stats) = execute(&db, &mag).unwrap();
    assert_eq!(ni_stats.subquery_invocations, 6); // one per dept
    assert_eq!(mag_stats.subquery_invocations, 0); // fully set-oriented
    assert_equivalent(&db, sql, &[Strategy::Magic, Strategy::GanskiWong]);
}

#[test]
fn union_subquery_only_magic_applies() {
    let db = empdept();
    let sql = "SELECT D.name, t FROM dept D, DT(t) AS \
               (SELECT SUM(b) FROM DDT(b) AS \
                 ((SELECT E.building FROM emp E WHERE E.building = D.building) \
                  UNION ALL \
                  (SELECT E2.building FROM emp E2 WHERE E2.building = D.building)))";
    assert!(run_strategy(&db, sql, Strategy::Kim).is_err());
    assert!(run_strategy(&db, sql, Strategy::Dayal).is_err());
    assert_equivalent(&db, sql, &[Strategy::Magic]);
    // And the NULL-sum row for the empty building survives decorrelation.
    let rows = run_strategy(&db, sql, Strategy::Magic).unwrap();
    assert!(rows
        .iter()
        .any(|r| r[0] == Value::str("ops") && r[1].is_null()));
}

#[test]
fn multi_level_correlation_equivalence() {
    let db = empdept();
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps > \
                 (SELECT COUNT(*) FROM emp E WHERE E.building = D.building AND E.name <> \
                   (SELECT MIN(E2.name) FROM emp E2 WHERE E2.building = D.building))";
    assert_equivalent(&db, sql, &[Strategy::Magic]);
}

#[test]
fn two_subqueries_in_one_block() {
    let db = empdept();
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps > \
                 (SELECT COUNT(*) FROM emp E WHERE E.building = D.building) \
               AND D.budget > \
                 (SELECT 1000 * COUNT(*) FROM emp E2 WHERE E2.building = D.building)";
    assert_equivalent(&db, sql, &[Strategy::Magic]);
}

#[test]
fn correlated_exists_with_knob() {
    let db = empdept();
    let sql = "SELECT D.name FROM dept D WHERE EXISTS \
               (SELECT E.name FROM emp E WHERE E.building = D.building)";
    let qgm = parse_and_bind(sql, &db).unwrap();
    let mut decorr = qgm.clone();
    decorr::core::magic_decorrelate(
        &mut decorr,
        &MagicOptions { decorrelate_quantified: true, ..Default::default() },
    )
    .unwrap();
    validate(&decorr).unwrap();
    let (mut a, _) = execute(&db, &qgm).unwrap();
    let (mut b, _) = execute(&db, &decorr).unwrap();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn not_exists_decorrelates_via_count_desugaring() {
    let db = empdept();
    let sql = "SELECT D.name FROM dept D WHERE NOT EXISTS \
               (SELECT E.name FROM emp E WHERE E.building = D.building)";
    assert_equivalent(&db, sql, &[Strategy::Magic]);
    let rows = run_strategy(&db, sql, Strategy::Magic).unwrap();
    assert_eq!(rows, vec![row!["ops"]]);
}

#[test]
fn optmag_on_key_correlation() {
    let db = empdept();
    let sql = "SELECT D.building FROM dept D WHERE D.num_emps > \
               (SELECT COUNT(*) FROM emp E WHERE E.name = D.name)";
    assert_equivalent(&db, sql, &[Strategy::Magic, Strategy::OptMag]);
}

#[test]
fn lateral_derived_table_equivalence() {
    let db = empdept();
    let sql = "SELECT D.name, c FROM dept D, DT(c) AS \
               (SELECT COUNT(*) FROM emp E WHERE E.building = D.building)";
    assert_equivalent(&db, sql, &[Strategy::Magic]);
    // The lateral COUNT keeps the zero row.
    let rows = run_strategy(&db, sql, Strategy::Magic).unwrap();
    assert!(rows.contains(&row!["ops", 0]));
}

#[test]
fn non_equality_correlation_still_works_under_magic() {
    let db = empdept();
    // `E.building < D.building` — Kim cannot handle this; magic can.
    let sql = "SELECT D.name FROM dept D WHERE D.num_emps > \
               (SELECT COUNT(*) FROM emp E WHERE E.building < D.building)";
    assert!(run_strategy(&db, sql, Strategy::Kim).is_err());
    assert_equivalent(&db, sql, &[Strategy::Magic]);
}

#[test]
fn uncorrelated_subquery_unchanged_by_every_strategy() {
    let db = empdept();
    let sql =
        "SELECT name FROM dept WHERE num_emps > (SELECT COUNT(*) FROM emp WHERE building = 2)";
    assert_equivalent(&db, sql, &[Strategy::Magic, Strategy::OptMag]);
}

#[test]
fn empty_outer_table() {
    let mut db = empdept();
    // Remove all depts: every strategy returns the empty set.
    db.drop_table("dept").unwrap();
    db.create_table(
        "dept",
        Schema::from_pairs(&[
            ("name", DataType::Str),
            ("budget", DataType::Double),
            ("num_emps", DataType::Int),
            ("building", DataType::Int),
        ]),
    )
    .unwrap()
    .set_key(&["name"])
    .unwrap();
    for s in [
        Strategy::NestedIteration,
        Strategy::Magic,
        Strategy::Dayal,
        Strategy::Kim,
    ] {
        let rows = run_strategy(&db, PAPER_QUERY, s).unwrap();
        assert!(rows.is_empty(), "{}", s.name());
    }
}

#[test]
fn empty_inner_table() {
    let mut db = empdept();
    db.drop_table("emp").unwrap();
    db.create_table(
        "emp",
        Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
    )
    .unwrap();
    // Every building is "empty": all low-budget depts with num_emps > 0.
    let ni = run_strategy(&db, PAPER_QUERY, Strategy::NestedIteration).unwrap();
    let mag = run_strategy(&db, PAPER_QUERY, Strategy::Magic).unwrap();
    let dayal = run_strategy(&db, PAPER_QUERY, Strategy::Dayal).unwrap();
    let kim = run_strategy(&db, PAPER_QUERY, Strategy::Kim).unwrap();
    assert_eq!(ni.len(), 5);
    assert_eq!(mag, ni);
    assert_eq!(dayal, ni);
    assert!(kim.is_empty(), "Kim's COUNT bug drops everything");
}

use decorr::core::MagicOptions;
use decorr::prelude::Value;
