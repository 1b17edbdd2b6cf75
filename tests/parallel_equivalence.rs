//! Serial vs parallel executor equivalence: a worker pool must change the
//! wall time, never the answer. On random databases (NULL-heavy and
//! mixed-type correlation keys included) and the generated correlated
//! aggregate query family, `threads = 4` must return exactly the multiset
//! of rows `threads = 1` returns, for every strategy's plan shape; and on
//! inputs large enough to cross the morsel threshold the merged parallel
//! [`ExecStats`] must equal the serial counters exactly (the pool's
//! determinism contract, not just row equality).

use decorr::figures::{run_figure_with, run_strategy, Figure};
use decorr::prelude::Strategy as ExecStrategy;
use decorr::prelude::*;
use decorr_common::MORSEL_ROWS;
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

/// Half the buildings on both sides are NULL: most correlation probes carry
/// NULL, most groups are empty, and the partitioned join's NULL-key
/// short-circuit is exercised rather than grazed.
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
/// equal under SQL `=`, distinct under `total_cmp` — so the partitioned
/// hash join must normalize keys exactly like the serial one does.
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

/// Rewrite with `s`, execute on a pool of `threads` workers, return the
/// sorted rows and the merged work counters.
fn run_threaded(
    db: &Database,
    sql: &str,
    s: ExecStrategy,
    threads: usize,
) -> (Vec<Row>, ExecStats) {
    let qgm = parse_and_bind(sql, db).unwrap();
    let plan = apply_strategy(&qgm, s).unwrap();
    validate(&plan).unwrap();
    let opts = ExecOptions { threads, ..Default::default() };
    let (mut rows, stats) = execute_with(db, &plan, opts).unwrap();
    rows.sort();
    (rows, stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

    #[test]
    fn parallel_matches_serial_on_generated_queries(
        w in world(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
        with_filter in any::<bool>(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], with_filter);
        for s in [ExecStrategy::NestedIteration, ExecStrategy::Magic, ExecStrategy::OptMag] {
            let (serial, _) = run_threaded(&db, &sql, s, 1);
            let (parallel, _) = run_threaded(&db, &sql, s, 4);
            prop_assert_eq!(
                &parallel, &serial,
                "threads=4 diverged from serial for {:?} on {}", s, sql
            );
        }
    }

    #[test]
    fn parallel_matches_serial_under_null_heavy_bindings(
        w in world_null_heavy(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], false);
        for s in [ExecStrategy::NestedIteration, ExecStrategy::Magic] {
            let (serial, _) = run_threaded(&db, &sql, s, 1);
            let (parallel, _) = run_threaded(&db, &sql, s, 4);
            prop_assert_eq!(
                &parallel, &serial,
                "threads=4 diverged from serial for {:?} on {}", s, sql
            );
        }
    }

    #[test]
    fn parallel_matches_serial_on_mixed_key_types(
        w in world(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db_mixed_keys(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], false);
        for s in [ExecStrategy::Magic, ExecStrategy::OptMag] {
            let (serial, _) = run_threaded(&db, &sql, s, 1);
            let (parallel, _) = run_threaded(&db, &sql, s, 4);
            prop_assert_eq!(
                &parallel, &serial,
                "threads=4 diverged from serial for {:?} on {}", s, sql
            );
        }
    }
}

/// The paper's benchmark queries, serial vs parallel, every strategy.
#[test]
fn figure_queries_parallel_equal_serial() {
    for fig in [Figure::Fig5, Figure::Fig8, Figure::Fig9] {
        let db = fig.database(0.02, 42).unwrap();
        for s in fig.strategies() {
            let opts = |threads| ExecOptions { threads, ..fig.exec_opts(s) };
            let (mut srows, _) = run_strategy(&db, fig.sql(), s, opts(1)).unwrap();
            let (mut prows, _) = run_strategy(&db, fig.sql(), s, opts(4)).unwrap();
            srows.sort();
            prows.sort();
            assert_eq!(prows, srows, "{} diverged on {}", s.name(), fig.id());
        }
    }
}

/// `run_figure_with` applies the same cross-strategy agreement check at any
/// pool width.
#[test]
fn run_figure_accepts_thread_count() {
    let fig = Figure::Fig8;
    let db = fig.database(0.02, 42).unwrap();
    let serial = run_figure_with(fig, &db, 1).unwrap();
    let parallel = run_figure_with(fig, &db, 4).unwrap();
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.rows, b.rows, "{} row count changed", a.strategy.name());
    }
}

/// On an input big enough that every morsel gate opens, the parallel run
/// must match the serial run *byte for byte*: same rows in the same order
/// (parallel operators reassemble their output in input/probe order, so
/// even non-associative floating-point sums agree) and identical merged
/// work counters — the paper's figures are reproduced from these counters
/// rather than wall time.
#[test]
fn merged_parallel_stats_equal_serial_stats() {
    use decorr_tpcd::empdept::{self, EmpDeptConfig};

    let db = empdept::generate(&EmpDeptConfig {
        departments: 600,
        employees: 4000,
        buildings: 25,
        seed: 11,
        with_indexes: false,
    })
    .unwrap();
    assert!(
        db.table("emp").unwrap().len() > MORSEL_ROWS,
        "input must cross the morsel threshold for the parallel paths to run"
    );
    for s in [ExecStrategy::NestedIteration, ExecStrategy::Magic] {
        let qgm = parse_and_bind(decorr_tpcd::queries::EMPDEPT, &db).unwrap();
        let plan = apply_strategy(&qgm, s).unwrap();
        let serial = execute_with(&db, &plan, ExecOptions { threads: 1, ..Default::default() });
        let parallel = execute_with(&db, &plan, ExecOptions { threads: 4, ..Default::default() });
        let (serial_rows, serial_stats) = serial.unwrap();
        let (par_rows, par_stats) = parallel.unwrap();
        // Unsorted comparison: order-exact, not just multiset-equal.
        assert_eq!(par_rows, serial_rows, "{s:?} rows or row order diverged");
        assert_eq!(
            par_stats, serial_stats,
            "{s:?} merged parallel ExecStats diverged from serial"
        );
    }
}
