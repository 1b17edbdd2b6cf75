//! Columnar vs row-wise executor equivalence: the representation must
//! change the wall time, never anything observable. On random databases
//! (NULL-heavy bindings, mixed Int/Double correlation keys with `-0.0`,
//! NaN measures and empty tables included) and the generated correlated
//! aggregate query family, `columnar: true` must return **byte-identical
//! rows in the same order** as `columnar: false` — not just the same
//! multiset — and the merged [`ExecStats`] counters must be *exactly*
//! equal, at `threads = 1` and `threads = 4`, for every strategy's plan
//! shape. The counters are the contract: the paper's figures are
//! reproduced from deterministic work, so a vectorized kernel that
//! "saves" predicate evaluations would silently change the science.

use decorr_common::{row, DataType, ExecStats, Row, Schema, Value};
use decorr_core::{apply_strategy, Strategy};
use decorr_exec::{execute_with, ExecOptions};
use decorr_sql::parse_and_bind;
use decorr_storage::Database;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

#[derive(Debug, Clone)]
struct Dept {
    budget: i64,
    num_emps: i64,
    building: Option<i64>,
}

#[derive(Debug, Clone)]
struct World {
    depts: Vec<Dept>,
    emps: Vec<Option<i64>>, // employee buildings (NULLs allowed)
}

fn world() -> impl proptest::strategy::Strategy<Value = World> {
    let dept = (0i64..20_000, 0i64..10, prop::option::weighted(0.9, 0i64..6))
        .prop_map(|(budget, num_emps, building)| Dept { budget, num_emps, building });
    let emp = prop::option::weighted(0.9, 0i64..6);
    (
        prop::collection::vec(dept, 0..25),
        prop::collection::vec(emp, 0..60),
    )
        .prop_map(|(depts, emps)| World { depts, emps })
}

/// Half the buildings on both sides are NULL: most correlation probes
/// carry NULL, most groups are empty, and the kernels' NULL-exclusion
/// (bitmap in the filter, `None` hash in the join) is exercised rather
/// than grazed.
fn world_null_heavy() -> impl proptest::strategy::Strategy<Value = World> {
    let dept = (0i64..20_000, 0i64..4, prop::option::weighted(0.5, 0i64..3))
        .prop_map(|(budget, num_emps, building)| Dept { budget, num_emps, building });
    let emp = prop::option::weighted(0.5, 0i64..3);
    (
        prop::collection::vec(dept, 0..15),
        prop::collection::vec(emp, 0..30),
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
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        )
        .unwrap();
    for (i, dept) in w.depts.iter().enumerate() {
        d.insert(Row::new(vec![
            Value::str(format!("d{i}")),
            Value::Double(dept.budget as f64),
            Value::Int(dept.num_emps),
            dept.building.map(Value::Int).unwrap_or(Value::Null),
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

/// Same worlds, but `emp.building` is a Double column with 0 stored as
/// -0.0: correlation keys mix Int with Double and include a signed zero —
/// equal under SQL `=`, distinct under `total_cmp` — so `hash_kernel`'s
/// `eq_key` folding must agree with the row-wise key normalization
/// exactly.
fn build_db_mixed_keys(w: &World) -> Database {
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
    for (i, dept) in w.depts.iter().enumerate() {
        d.insert(Row::new(vec![
            Value::str(format!("d{i}")),
            Value::Double(dept.budget as f64),
            Value::Int(dept.num_emps),
            dept.building.map(Value::Int).unwrap_or(Value::Null),
        ]))
        .unwrap();
    }
    d.set_key(&["name"]).unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Double)]),
        )
        .unwrap();
    for (i, b) in w.emps.iter().enumerate() {
        let building = match b {
            Some(0) => Value::Double(-0.0),
            Some(b) => Value::Double(*b as f64),
            None => Value::Null,
        };
        e.insert(Row::new(vec![Value::str(format!("e{i}")), building]))
            .unwrap();
    }
    e.set_key(&["name"]).unwrap();
    db
}

const AGGS: [&str; 5] = [
    "COUNT(*)",
    "COUNT(E.building)",
    "SUM(E.building)",
    "MIN(E.building)",
    "MAX(E.building)",
];
const CMPS: [&str; 6] = ["<", "<=", ">", ">=", "=", "<>"];

fn query(agg: &str, cmp: &str, with_filter: bool) -> String {
    let filter = if with_filter {
        "D.budget < 10000 AND "
    } else {
        ""
    };
    format!(
        "SELECT D.name FROM dept D WHERE {filter}D.num_emps {cmp} \
         (SELECT {agg} FROM emp E WHERE E.building = D.building)"
    )
}

/// Rewrite with `s`, execute with the given representation and pool
/// width, return the rows **unsorted** (order is part of the contract)
/// and the work counters.
fn run_repr(
    db: &Database,
    sql: &str,
    s: Strategy,
    threads: usize,
    columnar: bool,
) -> (Vec<Row>, ExecStats) {
    let qgm = parse_and_bind(sql, db).unwrap();
    let plan = apply_strategy(&qgm, s).unwrap();
    let opts = ExecOptions { threads, columnar, ..Default::default() };
    execute_with(db, &plan, opts).unwrap()
}

/// Assert the full equivalence contract for one query on one database:
/// identical rows in identical order and identical counters, at both pool
/// widths, for every given strategy.
fn assert_columnar_equivalent(db: &Database, sql: &str, strategies: &[Strategy]) {
    for &s in strategies {
        for threads in [1usize, 4] {
            let (row_rows, row_stats) = run_repr(db, sql, s, threads, false);
            let (col_rows, col_stats) = run_repr(db, sql, s, threads, true);
            assert_eq!(
                col_rows, row_rows,
                "columnar rows or row order diverged for {s:?} (threads={threads}) on {sql}"
            );
            assert_eq!(
                col_stats, row_stats,
                "columnar ExecStats diverged for {s:?} (threads={threads}) on {sql}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

    #[test]
    fn columnar_matches_rowwise_on_generated_queries(
        w in world(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
        with_filter in any::<bool>(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], with_filter);
        assert_columnar_equivalent(
            &db,
            &sql,
            &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
        );
    }

    #[test]
    fn columnar_matches_rowwise_under_null_heavy_bindings(
        w in world_null_heavy(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], false);
        assert_columnar_equivalent(&db, &sql, &[Strategy::NestedIteration, Strategy::Magic]);
    }

    #[test]
    fn columnar_matches_rowwise_on_mixed_key_types(
        w in world(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db_mixed_keys(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], false);
        assert_columnar_equivalent(&db, &sql, &[Strategy::Magic, Strategy::OptMag]);
    }
}

/// Empty tables on either or both sides: the kernels must take their
/// zero-row short-circuits without perturbing a single counter.
#[test]
fn columnar_matches_rowwise_on_empty_tables() {
    let empty = World { depts: vec![], emps: vec![] };
    let no_emps =
        World { depts: vec![Dept { budget: 100, num_emps: 1, building: Some(0) }], emps: vec![] };
    let no_depts = World { depts: vec![], emps: vec![Some(0), None, Some(1)] };
    for w in [&empty, &no_emps, &no_depts] {
        let db = build_db(w);
        for agg in AGGS {
            let sql = query(agg, ">", true);
            assert_columnar_equivalent(
                &db,
                &sql,
                &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
            );
        }
    }
}

/// NaN and ±0.0 in both the filtered column and the join key. NaN never
/// matches `=` (hash excluded, SQL comparison None) and -0.0 equals 0.0 —
/// and the columnar path must agree with the row-wise evaluator on every
/// comparison operator, not just equality.
#[test]
fn columnar_matches_rowwise_on_nan_and_signed_zero() {
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Double),
            ]),
        )
        .unwrap();
    d.insert_all(vec![
        row!["d0", f64::NAN, 1, 0.0],
        row!["d1", -0.0, 0, -0.0],
        row!["d2", 0.0, 2, f64::NAN],
        row!["d3", 42.5, 1, 1.0],
        row!["d4", f64::NAN, 3, Value::Null],
    ])
    .unwrap();
    d.set_key(&["name"]).unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Double)]),
        )
        .unwrap();
    e.insert_all(vec![
        row!["e0", -0.0],
        row!["e1", 0.0],
        row!["e2", f64::NAN],
        row!["e3", 1.0],
        row!["e4", Value::Null],
    ])
    .unwrap();
    e.set_key(&["name"]).unwrap();

    for cmp in CMPS {
        let sql = format!(
            "SELECT D.name FROM dept D WHERE D.budget {cmp} 0.0 AND D.num_emps > \
             (SELECT COUNT(E.building) FROM emp E WHERE E.building = D.building)"
        );
        assert_columnar_equivalent(
            &db,
            &sql,
            &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
        );
    }
}

/// An `IN` list binds to an `OR` of `=` over one column, which compiles to
/// one kernel predicate. It must keep exactly the rows the row-wise `OR`
/// keeps, at one evaluation per live row: a NULL row or a NULL literal
/// never qualifies, NaN matches nothing, `-0.0` equals `0.0`, an Int
/// literal matches a Double column numerically and a repeated literal
/// changes nothing. The correlated list folds the outer binding to a
/// literal — NaN, `-0.0` and NULL among them — on every re-scan.
#[test]
fn columnar_matches_rowwise_on_in_lists() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("x", DataType::Double),
                ("s", DataType::Str),
            ]),
        )
        .unwrap();
    t.insert_all(vec![
        row!["t0", 0.0, "a"],
        row!["t1", -0.0, "b"],
        row!["t2", f64::NAN, Value::Null],
        row!["t3", Value::Null, "a"],
        row!["t4", 2.0, "c"],
        row!["t5", 2.5, "b"],
        row!["t6", 7.0, "a"],
    ])
    .unwrap();
    let o = db
        .create_table("o", Schema::from_pairs(&[("k", DataType::Double)]))
        .unwrap();
    o.insert_all(vec![
        row![-0.0],
        row![f64::NAN],
        row![Value::Null],
        row![2.0],
    ])
    .unwrap();

    let lists = [
        "SELECT t.name FROM t t WHERE t.x IN (0, 2, NULL, 2)",
        "SELECT t.name FROM t t WHERE t.x IN (2.5, 0.0) AND t.s IN ('a', 'b', 'a', NULL)",
        "SELECT t.name FROM t t WHERE t.s IN ('c', 'zz') OR t.s IN ('b')",
        "SELECT o.k FROM o o WHERE 0 < (SELECT COUNT(*) FROM t t WHERE t.x IN (o.k, 7, NULL))",
    ];
    for sql in lists {
        assert_columnar_equivalent(&db, sql, &[Strategy::NestedIteration, Strategy::Magic]);
    }
    let (rows, _) = run_repr(&db, lists[0], Strategy::NestedIteration, 1, true);
    assert_eq!(rows, vec![row!["t0"], row!["t1"], row!["t4"]]);
}

/// A DISTINCT projection exercises the bulk-hash dedup on both paths.
#[test]
fn columnar_matches_rowwise_on_distinct() {
    let w = World {
        depts: (0..12)
            .map(|i| Dept { budget: 100 * (i % 3), num_emps: i % 4, building: Some(i % 3) })
            .collect(),
        emps: (0..20).map(|i| Some(i % 3)).collect(),
    };
    let db = build_db(&w);
    let sql = "SELECT DISTINCT D.num_emps, D.building FROM dept D WHERE D.budget < 10000";
    assert_columnar_equivalent(&db, sql, &[Strategy::NestedIteration, Strategy::Magic]);
}
