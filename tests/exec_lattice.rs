//! A tier-1 smoke slice of the executor's configuration lattice.
//!
//! The per-feature differential suites (columnar vs row, threads vs
//! serial, spill vs in-memory, degraded vs unbudgeted) live in
//! `crates/exec/tests` and only run under `cargo test --workspace`; each
//! varies one axis against the default. This suite is reachable from plain
//! `cargo test` and crosses the axes: the paper's figure queries, the
//! EMP/DEPT COUNT-bug query and the single-input Selects whose one input
//! *is* the running row set, under every sound strategy, at every point of
//!
//! `columnar {on, off}` × `threads {1, 4}` × budget lane {none, tiny with a
//! spill manager, tiny without}.
//!
//! For one (query, strategy) every point must return the same rows in the
//! same order — except that the lane without a spill manager degrades
//! grouping to sort-based aggregation, whose *emission order* is documented
//! to differ, so that lane is held to the same multiset and to one order
//! within the lane. Within a lane, `ExecStats` must not depend on
//! `columnar` or `threads` at all. (That the strategies agree with each
//! other is `tests/equivalence.rs`'s job.)

use std::sync::Arc;

use decorr::prelude::*;
use decorr::row;
use decorr_bench::Figure;
use decorr_common::{RealEnv, MORSEL_ROWS};
use decorr_storage::{BufferPool, SpillManager};
use decorr_tpcd::empdept::{self, EmpDeptConfig};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Lane {
    Unbudgeted,
    Spill,
    Degrade,
}

/// Small enough that the hash joins and groupings of the cases below go
/// over budget, large enough that no operator output hits the `1024 ×`
/// ceiling.
const TINY_BUDGET: usize = 16;

fn spill_mgr() -> Arc<SpillManager> {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exec-lattice-spill");
    Arc::new(SpillManager::new(dir, RealEnv::shared(), BufferPool::new(1 << 20)).unwrap())
}

/// Run `sql` under `strategy` at every lattice point and check the
/// contract in the module docs. Returns the spills and degradations seen
/// in the two budgeted lanes, so the caller can tell the lanes were real.
fn check_lattice(
    what: &str,
    db: &Database,
    sql: &str,
    strategy: Strategy,
    base: ExecOptions,
) -> (u64, u64) {
    let qgm = parse_and_bind(sql, db).unwrap();
    let plan = apply_strategy(&qgm, strategy).unwrap();
    check_plan(&format!("{what} {strategy:?}"), db, &plan, base)
}

/// [`check_lattice`] for a plan at hand.
fn check_plan(what: &str, db: &Database, plan: &Qgm, base: ExecOptions) -> (u64, u64) {
    let mut reference: Option<Vec<Row>> = None;
    let (mut spills, mut degradations) = (0, 0);
    for lane in [Lane::Unbudgeted, Lane::Spill, Lane::Degrade] {
        let mut first: Option<(Vec<Row>, ExecStats)> = None;
        for (columnar, threads) in [(true, 1), (false, 1), (true, 4), (false, 4)] {
            let at = format!("{what} {lane:?} columnar={columnar} threads={threads}");
            let opts = ExecOptions {
                columnar,
                threads,
                mem_budget: (lane != Lane::Unbudgeted).then_some(TINY_BUDGET),
                spill: (lane == Lane::Spill).then(spill_mgr),
                ..base.clone()
            };
            let (rows, stats) =
                execute_with(db, plan, opts).unwrap_or_else(|e| panic!("{at}: {e}"));
            // (An outer join has no spill path, so the spill lane may
            // still degrade one.)
            match lane {
                Lane::Unbudgeted => assert_eq!((stats.spills, stats.degradations), (0, 0), "{at}"),
                Lane::Spill => {}
                Lane::Degrade => assert_eq!(stats.spills, 0, "{at}"),
            }
            let reference = reference.get_or_insert_with(|| rows.clone());
            if lane == Lane::Degrade {
                let (mut got, mut want) = (rows.clone(), reference.clone());
                got.sort();
                want.sort();
                assert_eq!(got, want, "{at}: rows differ from the unbudgeted run");
            } else {
                assert_eq!(&rows, reference, "{at}: rows or row order differ");
            }
            match &first {
                None => {
                    spills += stats.spills;
                    degradations += stats.degradations;
                    first = Some((rows, stats));
                }
                Some((first_rows, first_stats)) => {
                    assert_eq!(&rows, first_rows, "{at}: row order differs within the lane");
                    assert_eq!(
                        &stats, first_stats,
                        "{at}: ExecStats differ within the lane"
                    );
                }
            }
        }
    }
    (spills, degradations)
}

#[test]
fn figure_queries_agree_across_the_lattice() {
    // Summed over the figures: at this scale figs 5 and 9 run on index
    // probes alone and never go over budget, figs 6 and 8 do.
    let (mut spills, mut degradations) = (0, 0);
    for fig in [Figure::Fig5, Figure::Fig6, Figure::Fig8, Figure::Fig9] {
        let db = fig.database(0.005, 42).unwrap();
        assert!(
            db.table("lineitem").unwrap().len() > MORSEL_ROWS,
            "the input must cross the morsel threshold or threads=4 never fans out"
        );
        for s in fig.strategies() {
            let (sp, de) = check_lattice(fig.id(), &db, fig.sql(), s, fig.exec_opts(s));
            spills += sp;
            degradations += de;
        }
    }
    assert!(spills > 0 && degradations > 0, "the budget lanes never bit");
}

#[test]
fn count_bug_query_agrees_across_the_lattice() {
    // One building without employees (the generator's COUNT-bug witness)
    // plus a NULL building on either side: the repairing outer join sees
    // unmatched left rows and NULL keys.
    let mut db = empdept::generate(&EmpDeptConfig {
        departments: 300,
        employees: 1500,
        buildings: 40,
        seed: 7,
        with_indexes: true,
    })
    .unwrap();
    let nowhere = row!["nowhere", 700.0, 2, Value::Null];
    db.table_mut("dept").unwrap().insert(nowhere).unwrap();
    let nobody = row!["nobody", Value::Null];
    db.table_mut("emp").unwrap().insert(nobody).unwrap();
    let (mut spills, mut degradations) = (0, 0);
    // Every strategy but Kim, which is unsound on exactly this query.
    for s in Strategy::all().into_iter().filter(|s| *s != Strategy::Kim) {
        let sql = decorr_tpcd::queries::EMPDEPT;
        let (sp, de) = check_lattice("empdept", &db, sql, s, ExecOptions::default());
        spills += sp;
        degradations += de;
    }
    assert!(spills > 0 && degradations > 0, "the budget lanes never bit");
}

#[test]
fn single_input_selects_agree_across_the_lattice() {
    // `t` is indexed, so an unfiltered scan of it is *deferred* with
    // nothing to drive its index; `u` is not; `e` is empty. Both cross
    // the morsel threshold.
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("s", DataType::Str),
    ]);
    let n = 2 * MORSEL_ROWS as i64 + 77;
    for name in ["t", "u", "e"] {
        let table = db.create_table(name, schema.clone()).unwrap();
        if name != "e" {
            table
                .insert_all((0..n).map(|i| row![i, i % 7, format!("s{}", i % 13)]))
                .unwrap();
        }
    }
    db.table_mut("t").unwrap().create_index(&["k"]).unwrap();

    let cases = [
        ("identity", "SELECT a.k, a.v, a.s FROM u a"),
        ("reorder", "SELECT a.s, a.k FROM u a"),
        ("computed", "SELECT a.k + 1, a.v * 2 FROM u a"),
        ("distinct", "SELECT DISTINCT a.v, a.s FROM u a"),
        (
            "scan predicate",
            "SELECT a.k, a.v, a.s FROM u a WHERE a.v > 3",
        ),
        (
            "residual predicate",
            "SELECT a.k FROM u a WHERE a.k < (SELECT COUNT(*) FROM u b WHERE b.v = a.v)",
        ),
        ("constant false", "SELECT a.k FROM u a WHERE 1 = 0"),
        ("deferred", "SELECT a.k, a.v, a.s FROM t a"),
        ("deferred reorder", "SELECT a.s, a.k FROM t a"),
        (
            "lateral",
            "SELECT a.k, c FROM u a, DT(c) AS \
             (SELECT b.k FROM u b WHERE b.v = a.v AND b.k < 3) WHERE a.k < 40",
        ),
        ("empty", "SELECT a.k, a.v, a.s FROM e a"),
        ("empty total", "SELECT COUNT(*), SUM(a.k) FROM e a"),
        ("pass-through total", "SELECT COUNT(*), SUM(a.k) FROM u a"),
    ];
    for (what, sql) in cases {
        // The graph as bound — what the race runs when NI wins, with its
        // pass-through Selects — and each sound rewrite of it.
        let qgm = parse_and_bind(sql, &db).unwrap();
        check_plan(
            &format!("{what} as bound"),
            &db,
            &qgm,
            ExecOptions::default(),
        );
        for s in [Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag] {
            check_lattice(what, &db, sql, s, ExecOptions::default());
        }
    }
}
