//! The paper's Section 5 queries, executed end-to-end under every
//! applicable strategy on a scaled TPC-D database: all strategies must
//! produce identical results, and the work counters must show the
//! paper's qualitative behaviour (nested iteration invokes the subquery
//! per candidate row; magic decorrelation invokes it never).

use decorr::prelude::*;
use decorr_tpcd::queries;
use decorr_tpcd::{generate, TpcdConfig};

const SCALE: f64 = 0.25;

/// One shared database for all tests (generation at this scale is the
/// expensive part; the queries are fast).
fn db() -> &'static Database {
    use std::sync::OnceLock;
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| generate(&TpcdConfig { scale: SCALE, seed: 42, with_indexes: true }).unwrap())
}

/// The naive nested-iteration configuration: no correlation-key memo, no
/// correlation probe — the executor as it was before memoization existed,
/// whose invocation counts are the paper's.
fn naive_ni() -> ExecOptions {
    ExecOptions { ni_memo: false, ni_batch: false, ..Default::default() }
}

fn run(db: &Database, sql: &str, s: Strategy, opts: ExecOptions) -> (Vec<Row>, ExecStats) {
    let qgm = parse_and_bind(sql, db).unwrap();
    let rewritten = decorr::core::apply_strategy(&qgm, s).unwrap();
    validate(&rewritten).unwrap();
    let (mut rows, stats) = execute_with(db, &rewritten, opts).unwrap();
    rows.sort();
    (rows, stats)
}

#[test]
fn q1a_all_strategies_agree() {
    let db = db();
    let (ni, ni_stats) = run(
        db,
        queries::Q1A,
        Strategy::NestedIteration,
        ExecOptions::default(),
    );
    let (kim, _) = run(db, queries::Q1A, Strategy::Kim, ExecOptions::default());
    let (dayal, _) = run(db, queries::Q1A, Strategy::Dayal, ExecOptions::default());
    let (mag, mag_stats) = run(db, queries::Q1A, Strategy::Magic, ExecOptions::default());
    // MIN subqueries have no COUNT bug: Kim agrees here.
    assert_eq!(kim, ni);
    assert_eq!(dayal, ni);
    assert_eq!(mag, ni);
    // NI invokes the subquery once per candidate outer row; magic never.
    assert!(ni_stats.subquery_invocations > 0);
    assert_eq!(mag_stats.subquery_invocations, 0);
}

#[test]
fn q1b_more_invocations_with_duplicates() {
    let db = db();
    let (ni, ni_stats) = run(
        db,
        queries::Q1B,
        Strategy::NestedIteration,
        ExecOptions::default(),
    );
    let (mag, mag_stats) = run(db, queries::Q1B, Strategy::Magic, ExecOptions::default());
    let (kim, _) = run(db, queries::Q1B, Strategy::Kim, ExecOptions::default());
    let (dayal, _) = run(db, queries::Q1B, Strategy::Dayal, ExecOptions::default());
    assert_eq!(mag, ni);
    assert_eq!(kim, ni);
    assert_eq!(dayal, ni);
    assert!(
        !ni.is_empty(),
        "variant query should produce rows at this scale"
    );
    // The outer block yields duplicate bindings (several suppliers per
    // part): NI pays one invocation per row.
    assert!(
        ni_stats.subquery_invocations > 20,
        "expected many invocations, got {}",
        ni_stats.subquery_invocations
    );
    assert_eq!(mag_stats.subquery_invocations, 0);
    // Decorrelation does strictly less total work here.
    assert!(mag_stats.total_work() < ni_stats.total_work());
}

#[test]
fn q2_optmag_matches_and_eliminates_cse() {
    let db = db();
    // The paper's NI plan computes the subquery per part, before the join
    // with lineitem.
    let early =
        ExecOptions { scalar_placement: ScalarPlacement::EarliestBinding, ..Default::default() };
    let (ni, ni_stats) = run(db, queries::Q2, Strategy::NestedIteration, early);
    let (mag, _) = run(db, queries::Q2, Strategy::Magic, ExecOptions::default());
    let (opt, opt_stats) = run(db, queries::Q2, Strategy::OptMag, ExecOptions::default());
    let (kim, _) = run(db, queries::Q2, Strategy::Kim, ExecOptions::default());
    let (dayal, _) = run(db, queries::Q2, Strategy::Dayal, ExecOptions::default());
    assert_eq!(mag, ni);
    assert_eq!(opt, ni);
    assert_eq!(kim, ni);
    assert_eq!(dayal, ni);
    // Correlation attribute is the parts key: one invocation per selected
    // part under NI (the paper's 209 at full scale — scaled down here).
    let selected_parts = db
        .table("parts")
        .unwrap()
        .rows()
        .iter()
        .filter(|r| r[4] == Value::str("Brand#23") && r[5] == Value::str("6 PACK"))
        .count() as u64;
    assert_eq!(ni_stats.subquery_invocations, selected_parts);
    assert_eq!(opt_stats.subquery_invocations, 0);
}

#[test]
fn q3_only_magic_applies_and_wins() {
    let db = db();
    // The paper's comparison is against *naive* nested iteration; the
    // correlation-key memo would collapse the redundancy magic removes.
    let (ni, ni_stats) = run(db, queries::Q3, Strategy::NestedIteration, naive_ni());
    let (mag, mag_stats) = run(db, queries::Q3, Strategy::Magic, ExecOptions::default());
    assert_eq!(mag, ni);
    assert!(!ni.is_empty());

    // Kim and Dayal are inapplicable (non-linear query).
    let qgm = parse_and_bind(queries::Q3, db).unwrap();
    assert!(decorr::core::apply_strategy(&qgm, Strategy::Kim).is_err());
    assert!(decorr::core::apply_strategy(&qgm, Strategy::Dayal).is_err());

    // One invocation per European supplier under NI, although only 5
    // distinct nations exist — the redundancy magic removes.
    let europeans = db
        .table("suppliers")
        .unwrap()
        .rows()
        .iter()
        .filter(|r| r[7] == Value::str("EUROPE"))
        .count() as u64;
    assert_eq!(ni_stats.subquery_invocations, europeans);
    assert_eq!(mag_stats.subquery_invocations, 0);
    assert!(mag_stats.total_work() < ni_stats.total_work());

    // The memoized executor removes the same redundancy at run time: one
    // *distinct* execution per nation, every other binding a memo hit,
    // same rows.
    let (memo, memo_stats) = run(
        db,
        queries::Q3,
        Strategy::NestedIteration,
        ExecOptions::default(),
    );
    assert_eq!(memo, ni);
    assert_eq!(memo_stats.subquery_invocations, europeans);
    assert!(memo_stats.subquery_distinct_invocations < europeans);
    assert_eq!(
        memo_stats.subquery_invocations,
        memo_stats.subquery_distinct_invocations + memo_stats.subquery_memo_hits
    );
}

#[test]
fn q1c_index_drop_explodes_nested_iteration() {
    let mut db = db().clone();
    queries::drop_fig7_index(&mut db).unwrap();
    // Naive NI: no memo, no set-oriented probe — every invocation re-scans.
    let (ni, ni_stats) = run(&db, queries::Q1C, Strategy::NestedIteration, naive_ni());
    let (mag, mag_stats) = run(&db, queries::Q1C, Strategy::Magic, ExecOptions::default());
    assert_eq!(mag, ni);
    // Without the index every invocation scans partsupp: NI's scanned-rows
    // count dwarfs magic's.
    assert!(
        ni_stats.rows_scanned > 10 * mag_stats.rows_scanned,
        "NI {} vs Mag {}",
        ni_stats.rows_scanned,
        mag_stats.rows_scanned
    );
    // Set-oriented NI replaces those re-scans with one hash-partition
    // build plus per-binding probes: same rows, scanning collapses.
    let (batched, batched_stats) = run(
        &db,
        queries::Q1C,
        Strategy::NestedIteration,
        ExecOptions::default(),
    );
    assert_eq!(batched, ni);
    assert!(
        batched_stats.rows_scanned < ni_stats.rows_scanned,
        "batched {} vs naive {}",
        batched_stats.rows_scanned,
        ni_stats.rows_scanned
    );
}

#[test]
fn ni_scalar_placement_q2_matches_paper_plan() {
    // PerCandidateRow multiplies invocations by lineitems-per-part; the
    // paper's optimizer avoided that by placing the subquery before the
    // join. Both give the same answer.
    let db = db();
    let late = run(
        db,
        queries::Q2,
        Strategy::NestedIteration,
        ExecOptions::default(),
    );
    let early = run(
        db,
        queries::Q2,
        Strategy::NestedIteration,
        ExecOptions { scalar_placement: ScalarPlacement::EarliestBinding, ..Default::default() },
    );
    assert_eq!(late.0, early.0);
    assert!(late.1.subquery_invocations > early.1.subquery_invocations);
}

#[test]
fn memoizing_the_supplementary_cse_preserves_results() {
    let db = db();
    let (a, a_stats) = run(db, queries::Q1A, Strategy::Magic, ExecOptions::default());
    let (b, b_stats) = run(
        db,
        queries::Q1A,
        Strategy::Magic,
        ExecOptions { memoize_cse: true, ..Default::default() },
    );
    assert_eq!(a, b);
    // Materializing SUPP instead of recomputing it reads strictly less.
    assert!(b_stats.rows_scanned < a_stats.rows_scanned);
}

/// The three nested-iteration lanes on the figure queries: memoising a
/// binding (`memo`) and batching the outer rows on top (`batched`, the
/// default) may change what executes, never what the plan asks for or
/// what it answers — and a memo hit that saves no work is a bug.
#[test]
fn ni_lanes_agree_and_a_memo_hit_always_saves_work() {
    let db = db();
    for (name, sql) in [
        ("fig5", queries::Q1A),
        ("fig6", queries::Q1B),
        ("fig8", queries::Q2),
        ("fig9", queries::Q3),
    ] {
        let qgm = parse_and_bind(sql, db).unwrap();
        let lane = |opts: ExecOptions| execute_with(db, &qgm, opts).unwrap();
        let (naive_rows, naive) = lane(naive_ni());
        assert_eq!(
            naive.subquery_distinct_invocations, naive.subquery_invocations,
            "{name}: the naive lane executes every invocation"
        );
        for (label, opts) in [
            (
                "memo",
                ExecOptions { ni_batch: false, ..Default::default() },
            ),
            ("batched", ExecOptions::default()),
        ] {
            let (rows, s) = lane(opts);
            assert_eq!(rows, naive_rows, "{name} {label}: rows or row order");
            assert_eq!(
                s.subquery_invocations, naive.subquery_invocations,
                "{name} {label}"
            );
            assert_eq!(
                s.subquery_invocations,
                s.subquery_distinct_invocations + s.subquery_memo_hits,
                "{name} {label}"
            );
            let saved = naive.total_work() as i64 - s.total_work() as i64;
            assert!(
                if s.subquery_memo_hits > 0 {
                    saved > 0
                } else {
                    saved >= 0
                },
                "{name} {label}: {} memo hits saved {saved} work units",
                s.subquery_memo_hits
            );
        }
    }
}
