//! Full-scale calibration against the paper's reported numbers.
//!
//! Expensive (generates the 716k-row Table 1 database), so `#[ignore]`d by
//! default; run with:
//!
//! ```text
//! cargo test --release --test paper_calibration -- --ignored
//! ```

use decorr::prelude::*;
use decorr_tpcd::{generate, queries, TpcdConfig};

fn db() -> Database {
    generate(&TpcdConfig { scale: 1.0, seed: 42, with_indexes: true }).unwrap()
}

#[test]
#[ignore = "generates the full 716k-row database"]
fn invocation_counts_are_in_the_papers_ballpark() {
    let db = db();

    // Query 2: the paper reports 209 subquery invocations (one per
    // selected part, the correlation attribute being the parts key).
    let qgm = parse_and_bind(queries::Q2, &db).unwrap();
    let (_, stats) = execute_with(
        &db,
        &qgm,
        ExecOptions { scalar_placement: ScalarPlacement::EarliestBinding, ..Default::default() },
    )
    .unwrap();
    assert!(
        (150..=260).contains(&(stats.subquery_invocations as i64)),
        "Q2 invocations {} outside the paper's ~209 ballpark",
        stats.subquery_invocations
    );

    // Query 3: the paper reports 209 invocations with 5 distinct bindings.
    let qgm = parse_and_bind(queries::Q3, &db).unwrap();
    let (_, stats) = execute(&db, &qgm).unwrap();
    assert_eq!(stats.subquery_invocations, 200, "one per European supplier");
    let nations: std::collections::HashSet<_> = db
        .table("suppliers")
        .unwrap()
        .rows()
        .iter()
        .filter(|r| r[7] == Value::str("EUROPE"))
        .map(|r| r[6].as_str().unwrap().to_string())
        .collect();
    assert_eq!(nations.len(), 5, "exactly 5 distinct correlation values");

    // Query 1(a): the paper reports 6 invocations; our selectivities land
    // in the same single-digit regime.
    let qgm = parse_and_bind(queries::Q1A, &db).unwrap();
    let (_, stats) = execute(&db, &qgm).unwrap();
    assert!(
        (1..=20).contains(&(stats.subquery_invocations as i64)),
        "Q1(a) invocations {} outside the paper's ~6 regime",
        stats.subquery_invocations
    );
}

#[test]
#[ignore = "generates the full 716k-row database"]
fn full_scale_figure_shapes() {
    use decorr::figures::{run_figure, run_strategy, Figure};
    let db = db();
    // Figure 8 at full scale: OptMag within 2x of NI; Kim at least 15x
    // worse (the paper: "orders of magnitude"). The ratio was 31x while a
    // Select cross-joined its first input onto a seed row: the plan starts
    // from the 600 000-row lineitem scan, and that step alone counted
    // 600 174 comparisons + 600 174 outputs (Kim: 2 478 519 - 2 x 600 174 =
    // 1 278 171 against OptMag's 78 106).
    let ms = run_figure(Figure::Fig8, &db).unwrap();
    let stats = |s: Strategy| ms.iter().find(|m| m.strategy == s).unwrap().stats;
    let work = |s: Strategy| stats(s).total_work() as f64;
    assert!(work(Strategy::OptMag) < 2.0 * work(Strategy::NestedIteration));
    assert!(work(Strategy::Kim) > 15.0 * work(Strategy::OptMag));
    // Dayal's cost is the paper's mechanism: it joins before it
    // aggregates, so its grouping folds every (selected part, lineitem)
    // pair where OptMag's folds one part's lineitems (~30x at scale 1.0).
    // Reading all of lineitem, which an index on `l_partkey` now spares
    // its outer join, used to add as much again (1 581 849 work units, 20x
    // OptMag's; 539 197, 6.9x, through the index).
    let agg = |s: Strategy| stats(s).agg_input_rows;
    assert!(agg(Strategy::Dayal) >= 15 * agg(Strategy::OptMag));
    assert!(work(Strategy::Dayal) > 4.0 * work(Strategy::OptMag));

    // Figure 9. The paper's claim — Magic at least 3x cheaper than NI — is
    // about its own executor, which re-ran the subquery on every
    // invocation: hold it against the naive executor (no memo, no batching) (6.8x today).
    let ms = run_figure(Figure::Fig9, &db).unwrap();
    let (ni, mag) = (&ms[0].stats, ms[1].stats.total_work());
    let (_, naive) = run_strategy(
        &db,
        Figure::Fig9.sql(),
        Strategy::NestedIteration,
        ExecOptions { ni_memo: false, ni_batch: false, ..Default::default() },
    )
    .unwrap();
    let naive = naive.stats.total_work();
    assert!(mag * 3 < naive, "fig9: mag {mag} vs naive ni {naive}");
    // Guravannavar's correction beside it: the 200 invocations carry 5
    // distinct bindings, so NI that remembers them undercuts Magic.
    assert_eq!(ni.subquery_invocations, 200);
    assert_eq!(ni.subquery_distinct_invocations, 5);
    assert!(
        ni.total_work() < mag,
        "fig9: memoised ni {} vs mag {mag}",
        ni.total_work()
    );
}
