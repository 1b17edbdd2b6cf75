//! Operator-level executor tests over hand-built QGM graphs — exercising
//! paths the SQL frontend cannot reach directly (OuterJoin boxes, NullEq
//! keys, the index-nested-loop decision).

use decorr_common::{row, DataType, Row, Schema, Value};
use decorr_exec::{execute, execute_with, ExecOptions};
use decorr_qgm::{validate::validate, BinOp, BoxKind, Expr, Qgm, QuantKind};
use decorr_storage::Database;

fn two_tables() -> Database {
    let mut db = Database::new();
    let l = db
        .create_table(
            "l",
            Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Str)]),
        )
        .unwrap();
    l.insert_all(vec![
        row![1, "x"],
        row![2, "y"],
        Row::new(vec![Value::Null, Value::str("n")]),
    ])
    .unwrap();
    let r = db
        .create_table(
            "r",
            Schema::from_pairs(&[("k", DataType::Int), ("b", DataType::Str)]),
        )
        .unwrap();
    r.insert_all(vec![
        row![1, "p"],
        row![1, "q"],
        Row::new(vec![Value::Null, Value::str("m")]),
    ])
    .unwrap();
    db
}

/// LOJ box: `l LOJ r ON l.k = r.k` — standard SQL semantics (NULL keys
/// never match; unmatched left rows null-extend).
#[test]
fn outer_join_box_plain_eq() {
    let db = two_tables();
    let mut g = Qgm::new();
    let lt = g.add_base_table("l", db.table("l").unwrap().schema().clone());
    let rt = g.add_base_table("r", db.table("r").unwrap().schema().clone());
    let oj = g.add_box(BoxKind::OuterJoin, "loj");
    let ql = g.add_quant(oj, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(oj, QuantKind::Foreach, rt, "R");
    g.boxmut(oj)
        .preds
        .push(Expr::eq(Expr::col(ql, 0), Expr::col(qr, 0)));
    g.add_output(oj, "lk", Expr::col(ql, 0));
    g.add_output(oj, "b", Expr::col(qr, 1));
    g.set_top(oj);
    validate(&g).unwrap();

    let (mut rows, _) = execute(&db, &g).unwrap();
    rows.sort();
    // l.k=1 matches p and q; l.k=2 and l.k=NULL null-extend.
    assert_eq!(rows.len(), 4);
    assert!(rows.contains(&row![1, "p"]));
    assert!(rows.contains(&row![1, "q"]));
    assert!(rows.contains(&Row::new(vec![Value::Int(2), Value::Null])));
    assert!(rows.contains(&Row::new(vec![Value::Null, Value::Null])));
}

/// The same LOJ with a NullEq (`<=>`) key: the NULL left row now *matches*
/// the NULL right row — the BugRemoval join semantics.
#[test]
fn outer_join_box_null_safe_eq() {
    let db = two_tables();
    let mut g = Qgm::new();
    let lt = g.add_base_table("l", db.table("l").unwrap().schema().clone());
    let rt = g.add_base_table("r", db.table("r").unwrap().schema().clone());
    let oj = g.add_box(BoxKind::OuterJoin, "loj");
    let ql = g.add_quant(oj, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(oj, QuantKind::Foreach, rt, "R");
    g.boxmut(oj)
        .preds
        .push(Expr::bin(BinOp::NullEq, Expr::col(ql, 0), Expr::col(qr, 0)));
    g.add_output(oj, "lk", Expr::col(ql, 0));
    g.add_output(oj, "b", Expr::col(qr, 1));
    g.set_top(oj);

    let (mut rows, _) = execute(&db, &g).unwrap();
    rows.sort();
    assert!(rows.contains(&Row::new(vec![Value::Null, Value::str("m")])));
    // and no null-extended NULL row anymore:
    assert!(!rows.contains(&Row::new(vec![Value::Null, Value::Null])));
}

/// An outer join whose ON clause has no equi-key is a nested loop and
/// counts as one: every (left, right) pair is a comparison, nothing is
/// hashed, and a memory budget the right side exceeds degrades nothing —
/// there is no hash table to give up.
#[test]
fn keyless_outer_join_counts_its_nested_loop() {
    let db = two_tables();
    let mut g = Qgm::new();
    let lt = g.add_base_table("l", db.table("l").unwrap().schema().clone());
    let rt = g.add_base_table("r", db.table("r").unwrap().schema().clone());
    let oj = g.add_box(BoxKind::OuterJoin, "loj");
    let ql = g.add_quant(oj, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(oj, QuantKind::Foreach, rt, "R");
    g.boxmut(oj)
        .preds
        .push(Expr::bin(BinOp::Lt, Expr::col(ql, 0), Expr::col(qr, 0)));
    g.add_output(oj, "a", Expr::col(ql, 1));
    g.add_output(oj, "b", Expr::col(qr, 1));
    g.set_top(oj);
    validate(&g).unwrap();

    for mem_budget in [None, Some(1)] {
        let opts = ExecOptions { mem_budget, ..Default::default() };
        let (mut rows, stats) = execute_with(&db, &g, opts).unwrap();
        rows.sort();
        // Nothing is less than 1 (or than NULL): every left row null-extends.
        let null_extended = |a| Row::new(vec![Value::str(a), Value::Null]);
        assert_eq!(rows, ["n", "x", "y"].map(null_extended), "{mem_budget:?}");
        assert_eq!(stats.nl_comparisons, 3 * 3, "{mem_budget:?}");
        assert_eq!(
            (stats.hash_build_rows, stats.hash_probes),
            (0, 0),
            "{mem_budget:?}"
        );
        assert_eq!(stats.degradations, 0, "{mem_budget:?}");
    }
}

/// An outer join whose right input is an indexed table behind a Select
/// that filters and renames it (Dayal's shape) probes the index once per
/// left row and never reads the table whole — and returns what the hash
/// join returns with the index dropped, in the same order: per left row,
/// the right rows in table order.
#[test]
fn outer_join_probes_the_index_in_the_hash_joins_order() {
    let mut db = Database::new();
    let l = db
        .create_table("l", Schema::from_pairs(&[("k", DataType::Int)]))
        .unwrap();
    let keys = [
        Value::Int(3),
        Value::Int(1),
        Value::Null,
        Value::Int(2),
        Value::Int(9),
    ];
    l.insert_all(keys.map(|k| Row::new(vec![k]))).unwrap();
    let r = db
        .create_table(
            "r",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Double)]),
        )
        .unwrap();
    r.insert_all((0..40).map(|i| row![i % 4, i as f64 / 8.0]))
        .unwrap();
    r.create_index(&["k"]).unwrap();

    let mut g = Qgm::new();
    let lt = g.add_base_table("l", db.table("l").unwrap().schema().clone());
    let rt = g.add_base_table("r", db.table("r").unwrap().schema().clone());
    let renamed = g.add_box(BoxKind::Select, "renamed");
    let qt = g.add_quant(renamed, QuantKind::Foreach, rt, "T");
    g.boxmut(renamed)
        .preds
        .push(Expr::bin(BinOp::Gt, Expr::col(qt, 1), Expr::lit(0.5)));
    g.add_output(renamed, "v", Expr::col(qt, 1));
    g.add_output(renamed, "corr", Expr::col(qt, 0));
    let oj = g.add_box(BoxKind::OuterJoin, "loj");
    let ql = g.add_quant(oj, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(oj, QuantKind::Foreach, renamed, "R");
    g.boxmut(oj)
        .preds
        .push(Expr::eq(Expr::col(ql, 0), Expr::col(qr, 1)));
    g.add_output(oj, "k", Expr::col(ql, 0));
    g.add_output(oj, "v", Expr::col(qr, 0));
    g.set_top(oj);
    validate(&g).unwrap();

    let (probed, stats) = execute(&db, &g).unwrap();
    assert_eq!(stats.index_lookups, 5, "one probe per left row");
    assert_eq!(stats.rows_scanned, 5, "the right table is never scanned");
    assert_eq!((stats.hash_build_rows, stats.hash_probes), (0, 0));
    db.table_mut("r").unwrap().drop_index(&["k"]).unwrap();
    let (hashed, stats) = execute(&db, &g).unwrap();
    assert_eq!((stats.index_lookups, stats.rows_scanned), (0, 45));
    // 9 and NULL find nothing; 1, 2 and 3 find the rows past 0.5 in order.
    assert_eq!(probed.len(), 2 + 3 * 9);
    assert_eq!(probed, hashed);
}

/// NullEq as an inner-join hash key through a Select box.
#[test]
fn hash_join_with_null_safe_key() {
    let db = two_tables();
    let mut g = Qgm::new();
    let lt = g.add_base_table("l", db.table("l").unwrap().schema().clone());
    let rt = g.add_base_table("r", db.table("r").unwrap().schema().clone());
    let s = g.add_box(BoxKind::Select, "join");
    let ql = g.add_quant(s, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(s, QuantKind::Foreach, rt, "R");
    g.boxmut(s)
        .preds
        .push(Expr::bin(BinOp::NullEq, Expr::col(ql, 0), Expr::col(qr, 0)));
    g.add_output(s, "a", Expr::col(ql, 1));
    g.add_output(s, "b", Expr::col(qr, 1));
    g.set_top(s);

    let (mut rows, _) = execute(&db, &g).unwrap();
    rows.sort();
    // 1 matches p,q; NULL matches m; 2 matches nothing.
    assert_eq!(rows.len(), 3);
    assert!(rows.contains(&row!["n", "m"]));
}

/// The INL decision: with a small bound side and an indexed big table, the
/// join probes the index instead of scanning; with the index dropped it
/// scans.
#[test]
fn index_nested_loop_decision() {
    let mut db = Database::new();
    let small = db
        .create_table("small", Schema::from_pairs(&[("k", DataType::Int)]))
        .unwrap();
    small.insert_all((0..4).map(|i| row![i])).unwrap();
    let big = db
        .create_table(
            "big",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .unwrap();
    big.insert_all((0..1000).map(|i| row![i % 100, i])).unwrap();
    big.create_index(&["k"]).unwrap();

    let build = |db: &Database| {
        let mut g = Qgm::new();
        let st = g.add_base_table("small", db.table("small").unwrap().schema().clone());
        let bt = g.add_base_table("big", db.table("big").unwrap().schema().clone());
        let s = g.add_box(BoxKind::Select, "join");
        let qs = g.add_quant(s, QuantKind::Foreach, st, "S");
        let qb = g.add_quant(s, QuantKind::Foreach, bt, "B");
        g.boxmut(s)
            .preds
            .push(Expr::eq(Expr::col(qs, 0), Expr::col(qb, 0)));
        g.add_output(s, "v", Expr::col(qb, 1));
        g.set_top(s);
        g
    };

    let g = build(&db);
    let (rows, stats) = execute(&db, &g).unwrap();
    assert_eq!(rows.len(), 40);
    assert_eq!(stats.index_lookups, 4, "one probe per small row");
    assert_eq!(stats.rows_scanned, 4, "big never scanned");

    db.table_mut("big").unwrap().drop_index(&["k"]).unwrap();
    let g = build(&db);
    let (rows, stats) = execute(&db, &g).unwrap();
    assert_eq!(rows.len(), 40);
    assert_eq!(stats.index_lookups, 0);
    assert_eq!(stats.rows_scanned, 1004, "fallback scans the big table");
}

/// Cross-run CSE memoization: a box shared by two quantifiers evaluates
/// once when memoization is on, twice when off.
#[test]
fn shared_box_recompute_vs_memoize() {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    t.insert_all((0..100).map(|i| row![i])).unwrap();

    let mut g = Qgm::new();
    let bt = g.add_base_table("t", db.table("t").unwrap().schema().clone());
    let shared = g.add_box(BoxKind::Select, "shared");
    let qt = g.add_quant(shared, QuantKind::Foreach, bt, "T");
    g.boxmut(shared)
        .preds
        .push(Expr::bin(BinOp::Lt, Expr::col(qt, 0), Expr::lit(10)));
    g.add_output(shared, "x", Expr::col(qt, 0));

    let top = g.add_box(BoxKind::Select, "top");
    let q1 = g.add_quant(top, QuantKind::Foreach, shared, "A");
    let q2 = g.add_quant(top, QuantKind::Foreach, shared, "B");
    g.boxmut(top)
        .preds
        .push(Expr::eq(Expr::col(q1, 0), Expr::col(q2, 0)));
    g.add_output(top, "x", Expr::col(q1, 0));
    g.set_top(top);
    validate(&g).unwrap();

    let (rows, recompute) = execute(&db, &g).unwrap();
    assert_eq!(rows.len(), 10);
    let (rows2, memo) = execute_with(
        &db,
        &g,
        ExecOptions { memoize_cse: true, ..Default::default() },
    )
    .unwrap();
    assert_eq!(rows2.len(), 10);
    assert_eq!(recompute.rows_scanned, 200, "shared box evaluated twice");
    assert_eq!(memo.rows_scanned, 100, "shared box evaluated once");
}

/// A Union box consumed by a Grouping box, with DISTINCT semantics.
#[test]
fn union_distinct_under_grouping() {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    t.insert_all(vec![row![1], row![2], row![2]]).unwrap();

    let mut g = Qgm::new();
    let bt = g.add_base_table("t", db.table("t").unwrap().schema().clone());
    let mk = |g: &mut Qgm| {
        let b = g.add_box(BoxKind::Select, "branch");
        let q = g.add_quant(b, QuantKind::Foreach, bt, "T");
        g.add_output(b, "x", Expr::col(q, 0));
        b
    };
    let b1 = mk(&mut g);
    let b2 = mk(&mut g);
    let u = g.add_box(BoxKind::Union { all: false }, "u");
    let uq1 = g.add_quant(u, QuantKind::Foreach, b1, "B1");
    let _uq2 = g.add_quant(u, QuantKind::Foreach, b2, "B2");
    g.add_output(u, "x", Expr::col(uq1, 0));

    let grp = g.add_box(BoxKind::Grouping { group_by: vec![] }, "g");
    let qg = g.add_quant(grp, QuantKind::Foreach, u, "G");
    let _ = qg;
    g.add_output(grp, "n", Expr::count_star());
    g.set_top(grp);
    validate(&g).unwrap();

    let (rows, _) = execute(&db, &g).unwrap();
    // UNION (distinct) of {1,2,2} with itself = {1,2}: count 2.
    assert_eq!(rows, vec![row![2]]);
}

/// A GROUP BY without an aggregate: the group's columns come from its first
/// row, which the grouping must keep even when no aggregate slot would.
/// (The representative row used to live in the aggregate accumulators, so
/// with none of them every output evaluated over NULLs.) Hash grouping
/// over and under the memory budget and the row-wise evaluator share the
/// answer, in one order.
#[test]
fn group_by_without_an_aggregate_keeps_the_group_columns() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::from_pairs(&[("b", DataType::Str), ("n", DataType::Int)]),
        )
        .unwrap();
    t.insert_all(vec![
        row!["east", 1],
        row!["west", 2],
        row!["east", 3],
        Row::new(vec![Value::Null, Value::Int(4)]),
        row!["west", 5],
    ])
    .unwrap();
    let want = vec![row!["east"], row!["west"], Row::new(vec![Value::Null])];
    let qgm = decorr_sql::parse_and_bind("SELECT t.b FROM t GROUP BY t.b", &db).unwrap();
    for columnar in [true, false] {
        let opts = ExecOptions { columnar, ..ExecOptions::default() };
        let (rows, stats) = execute_with(&db, &qgm, opts.clone()).unwrap();
        assert_eq!(rows, want, "columnar={columnar}");
        assert_eq!((stats.agg_input_rows, stats.agg_groups), (5, 3));
        // Over budget without a spill manager: in memory, in one order.
        let over = ExecOptions { mem_budget: Some(2), ..opts };
        let (rows, stats) = execute_with(&db, &qgm, over).unwrap();
        assert_eq!(stats.degradations, 1);
        assert_eq!(rows, want, "columnar={columnar}, over budget");
    }
    // With an aggregate beside it, as before.
    let qgm = decorr_sql::parse_and_bind("SELECT t.b, COUNT(*) FROM t GROUP BY t.b", &db).unwrap();
    let (rows, _) = execute(&db, &qgm).unwrap();
    assert_eq!(rows[..2], [row!["east", 2], row!["west", 2]]);
}
