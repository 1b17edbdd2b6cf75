//! ExecTrace tests: the per-box operator trace must agree with the
//! ExecStats counters and record the join strategies actually used.

use decorr_common::{row, DataType, Schema};
use decorr_core::{apply_strategy, Strategy};
use decorr_exec::{execute, execute_traced, ExecOptions, JoinStrategy};
use decorr_qgm::BoxKind;
use decorr_sql::parse_and_bind;
use decorr_storage::Database;

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
    ])
    .unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    e.insert_all(vec![
        row!["al", 1],
        row!["bo", 1],
        row!["cy", 2],
        row!["di", 2],
        row!["ed", 2],
    ])
    .unwrap();
    db
}

const PAPER_QUERY: &str = "Select D.name From Dept D \
    Where D.budget < 10000 and D.num_emps > \
    (Select Count(*) From Emp E Where D.building = E.building)";

#[test]
fn trace_counters_are_consistent_with_stats() {
    let db = empdept();
    let g = parse_and_bind(PAPER_QUERY, &db).unwrap();
    for strat in [Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag] {
        let plan = apply_strategy(&g, strat).unwrap();
        let (rows, stats, trace) = execute_traced(&db, &plan, ExecOptions::default()).unwrap();

        // Tracing must not perturb results or work counters.
        let (plain_rows, plain_stats) = execute(&db, &plan).unwrap();
        assert_eq!(rows, plain_rows, "{strat:?}");
        assert_eq!(stats, plain_stats, "{strat:?}");

        // Per-box predicate counters sum to the global one.
        assert_eq!(
            trace.total_predicate_evals(),
            stats.predicate_evals,
            "{strat:?}:\n{}",
            trace.render(&plan)
        );
        // The top box's emitted rows are the query's result rows.
        let top = trace.get(plan.top()).expect("top box traced");
        assert_eq!(top.rows_out, rows.len() as u64, "{strat:?}");
        assert!(top.invocations >= 1);
        assert!(trace.traced_boxes() > 1, "{strat:?}");
    }
}

#[test]
fn nested_iteration_traces_per_candidate_invocations() {
    let db = empdept();
    let plan = parse_and_bind(PAPER_QUERY, &db).unwrap();
    let (_, stats, trace) = execute_traced(&db, &plan, ExecOptions::default()).unwrap();
    assert!(stats.subquery_invocations > 1);
    // Some box under nested iteration ran once per candidate row.
    let max_invocations = plan
        .reachable_boxes(plan.top())
        .iter()
        .filter_map(|&b| trace.get(b))
        .map(|t| t.invocations)
        .max()
        .unwrap();
    assert_eq!(max_invocations, stats.subquery_invocations);
}

#[test]
fn decorrelated_plan_records_hash_joins() {
    let db = empdept();
    let g = parse_and_bind(PAPER_QUERY, &db).unwrap();
    let plan = apply_strategy(&g, Strategy::Magic).unwrap();
    let (_, _, trace) = execute_traced(&db, &plan, ExecOptions::default()).unwrap();
    let rendered = trace.render(&plan);
    assert!(rendered.contains("via hash"), "{rendered}");
    assert!(rendered.contains("rows_in="), "{rendered}");
}

#[test]
fn trace_json_mirrors_the_operator_tree() {
    let db = empdept();
    let g = parse_and_bind(PAPER_QUERY, &db).unwrap();
    let plan = apply_strategy(&g, Strategy::Magic).unwrap();
    let (_, _, trace) = execute_traced(&db, &plan, ExecOptions::default()).unwrap();
    let json = trace.to_json(&plan);
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"box\":",
        "\"kind\":",
        "\"rows_out\":",
        "\"joins\":",
        "\"children\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.contains("\"strategy\":\"hash\""), "{json}");
}

/// The COUNT-bug-repairing outer join says how it ran: one join entry on
/// the OuterJoin box, keyed by its null-producing (right) quantifier —
/// `hash`, also when the build side is over the memory budget and there is
/// no spill device — with the children's row counts on either side.
#[test]
fn outer_join_records_its_join_strategy() {
    let db = empdept();
    let g = parse_and_bind(PAPER_QUERY, &db).unwrap();
    let plan = apply_strategy(&g, Strategy::Magic).unwrap();
    let oj = plan
        .reachable_boxes(plan.top())
        .into_iter()
        .find(|&b| matches!(plan.boxref(b).kind, BoxKind::OuterJoin))
        .expect("magic decorrelation of a COUNT subquery ends in an outer join");
    let (ql, qr) = (plan.boxref(oj).quants[0], plan.boxref(oj).quants[1]);
    for mem_budget in [None, Some(1)] {
        let opts = ExecOptions { mem_budget, ..ExecOptions::default() };
        let (_, stats, trace) = execute_traced(&db, &plan, opts).unwrap();
        let rendered = trace.render(&plan);
        let t = trace.get(oj).expect("outer join traced");
        assert_eq!(t.joins.len(), 1, "{rendered}");
        let j = &t.joins[0];
        assert_eq!(
            (j.quant, j.strategy),
            (qr, JoinStrategy::Hash),
            "{rendered}"
        );
        // Per evaluation: a shared child (the supplementary table) is
        // recomputed per reference and its trace entry sums over them.
        let rows_out = |q| {
            let child = trace.get(plan.quant(q).input).unwrap();
            child.rows_out / child.invocations
        };
        assert_eq!(
            (j.left_rows, j.right_rows),
            (rows_out(ql), rows_out(qr)),
            "{rendered}"
        );
        assert_eq!(j.out_rows, t.rows_out, "{rendered}");
        assert_eq!(stats.degradations > 0, mem_budget.is_some());
        assert!(
            rendered.contains(&format!("join {qr} via hash")),
            "{rendered}"
        );
    }
}
