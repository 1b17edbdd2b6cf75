//! A tier-1 smoke slice of the executor's configuration lattice.
//!
//! The per-feature differential suites (columnar vs row, threads vs
//! serial, spill vs in-memory, degraded vs unbudgeted) live in
//! `crates/exec/tests` and only run under `cargo test --workspace`; each
//! varies one axis against the default. This suite is reachable from plain
//! `cargo test` and crosses the axes: the paper's figure queries, the
//! EMP/DEPT COUNT-bug query, the single-input Selects whose one input
//! *is* the running row set, the scan consumers (a Select's first input,
//! the build side of a hash join and of a left outer join, a grand total)
//! and the consumers of a join's candidate tuples (the next join, a
//! residual filter, a Grouping over an outer join, an early scalar
//! subquery), under every sound strategy, at every point of
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
//!
//! The storage axis: every case runs again, at every point, on two durable
//! copies of its database (`SharedCatalog::open_durable`, 512-row stripes;
//! one buffer pool that holds everything and one of 64 KiB that holds a
//! dozen pages). Paged
//! tables carry no index, so those runs are held, rows and row order, to
//! the *un-indexed* resident run — which holds a resident scan's selection
//! (one stripe) and a paged scan's (several) to each other. Inside a paged lane the work counters
//! may not depend on `columnar` or `threads` either, and the page I/O may
//! not depend on `threads`. (It does depend on `columnar`: the row-wise
//! evaluators are handed every column of every stripe the zone maps keep,
//! as rows; the kernels pin a column when something reads it.)

use std::sync::Arc;

use decorr::figures::Figure;
use decorr::prelude::*;
use decorr::row;
use decorr_common::{RealEnv, MORSEL_ROWS};
use decorr_qgm::{validate::validate, AggFunc, BinOp, BoxKind, Expr, QuantId, QuantKind};
use decorr_server::SharedCatalog;
use decorr_storage::{BufferPool, SpillManager, StoreOptions};
use decorr_tpcd::empdept::{self, EmpDeptConfig};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Lane {
    Unbudgeted,
    Spill,
    Degrade,
}

const LANES: [Lane; 3] = [Lane::Unbudgeted, Lane::Spill, Lane::Degrade];
/// `(columnar, threads)`.
const POINTS: [(bool, usize); 4] = [(true, 1), (false, 1), (true, 4), (false, 4)];

/// Small enough that the hash joins and groupings of the cases below go
/// over budget, large enough that no operator output hits the `1024 ×`
/// ceiling.
const TINY_BUDGET: usize = 16;

fn spill_mgr() -> Arc<SpillManager> {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exec-lattice-spill");
    Arc::new(SpillManager::new(dir, RealEnv::shared(), BufferPool::new(1 << 20)).unwrap())
}

fn opts_at(base: &ExecOptions, lane: Lane, columnar: bool, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar,
        threads,
        mem_budget: (lane != Lane::Unbudgeted).then_some(TINY_BUDGET),
        spill: (lane == Lane::Spill).then(spill_mgr),
        ..base.clone()
    }
}

/// One database in every storage tier the lattice crosses.
struct Tiers {
    /// As the case built it, indexes and all.
    resident: Database,
    /// The same rows without an index: what a durable copy — paged tables
    /// carry none — can be held to row for row.
    unindexed: Database,
    /// Durable copies, by buffer pool.
    durable: Vec<(&'static str, SharedCatalog)>,
}

impl Tiers {
    /// `tag` names the data directories; tests run side by side.
    fn of(tag: &str, resident: Database) -> Tiers {
        let mut unindexed = resident.clone();
        let names: Vec<String> = unindexed.tables().map(|t| t.name().to_string()).collect();
        for name in &names {
            unindexed.table_mut(name).unwrap().drop_all_indexes();
        }
        let durable = [("pool fits", 64 << 20), ("64 KiB pool", 64 << 10)]
            .into_iter()
            .map(|(pool, pool_bytes)| {
                let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("exec-lattice-{tag}-{pool_bytes}"));
                let _ = std::fs::remove_dir_all(&dir);
                // Short stripes, so that the small tables here have several.
                let opts = StoreOptions { pool_bytes, page_rows: 512, ..StoreOptions::default() };
                let catalog = SharedCatalog::open_durable(&dir, opts, unindexed.clone()).unwrap();
                (pool, catalog)
            })
            .collect();
        Tiers { resident, unindexed, durable }
    }
}

/// Spills and degradations seen in the budgeted lanes, so a caller can
/// tell the lanes were real: on the resident tier, and on the durable ones.
#[derive(Debug, Default, Clone, Copy)]
struct Bites {
    resident: (u64, u64),
    paged: (u64, u64),
}

impl std::ops::AddAssign for Bites {
    fn add_assign(&mut self, o: Bites) {
        self.resident.0 += o.resident.0;
        self.resident.1 += o.resident.1;
        self.paged.0 += o.paged.0;
        self.paged.1 += o.paged.1;
    }
}

impl Bites {
    fn assert_every_lane_bit(&self) {
        let all = [self.resident.0, self.resident.1, self.paged.0, self.paged.1];
        assert!(
            all.iter().all(|&n| n > 0),
            "a budget lane never bit: {self:?}"
        );
    }
}

/// Run `sql` under `strategy` at every lattice point and check the
/// contract in the module docs.
fn check_lattice(
    what: &str,
    tiers: &Tiers,
    sql: &str,
    strategy: Strategy,
    base: ExecOptions,
) -> Bites {
    let qgm = parse_and_bind(sql, &tiers.resident).unwrap();
    let plan = apply_strategy(&qgm, strategy).unwrap();
    check_plan(&format!("{what} {strategy:?}"), tiers, &plan, base)
}

/// [`check_lattice`] for a plan at hand.
fn check_plan(what: &str, tiers: &Tiers, plan: &Qgm, base: ExecOptions) -> Bites {
    let mut bites =
        Bites { resident: check_resident(what, &tiers.resident, plan, &base), ..Bites::default() };
    let unbudgeted = opts_at(&base, Lane::Unbudgeted, true, 1);
    let (want, _) = execute_with(&tiers.unindexed, plan, unbudgeted).unwrap();
    for (pool, catalog) in &tiers.durable {
        let snapshot = catalog.snapshot();
        let (spills, degradations) = check_paged(
            &format!("{what} [{pool}]"),
            snapshot.db(),
            plan,
            &base,
            &want,
        );
        bites.paged.0 += spills;
        bites.paged.1 += degradations;
    }
    bites
}

/// The resident tier: one answer and, per lane, one `ExecStats`.
fn check_resident(what: &str, db: &Database, plan: &Qgm, base: &ExecOptions) -> (u64, u64) {
    let mut reference: Option<Vec<Row>> = None;
    let (mut spills, mut degradations) = (0, 0);
    for lane in LANES {
        let mut first: Option<(Vec<Row>, ExecStats)> = None;
        for (columnar, threads) in POINTS {
            let at = format!("{what} {lane:?} columnar={columnar} threads={threads}");
            let opts = opts_at(base, lane, columnar, threads);
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
            assert_same_answer(&at, lane, &rows, reference);
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

/// `rows` against the reference answer: the same rows in the same order,
/// except in the degrade lane, whose sort-based grouping emits in key
/// order — there, the same multiset.
fn assert_same_answer(at: &str, lane: Lane, rows: &[Row], reference: &[Row]) {
    if lane == Lane::Degrade {
        let (mut got, mut want) = (rows.to_vec(), reference.to_vec());
        got.sort();
        want.sort();
        assert_eq!(got, want, "{at}: rows differ from the unbudgeted run");
    } else {
        assert_eq!(rows, reference, "{at}: rows or row order differ");
    }
}

/// A durable tier: the un-indexed resident answer `want` at every point;
/// per lane, work counters that know neither `columnar` nor `threads` and
/// page I/O that does not know `threads`.
fn check_paged(
    what: &str,
    db: &Database,
    plan: &Qgm,
    base: &ExecOptions,
    want: &[Row],
) -> (u64, u64) {
    // Which requests hit depends on what earlier runs left in the pool;
    // how many pages a run asks for does not.
    let io_blind = |s: &ExecStats| ExecStats { pool_hits: 0, pool_misses: 0, pages_read: 0, ..*s };
    let (mut spills, mut degradations) = (0, 0);
    for lane in LANES {
        let mut first: Option<(Vec<Row>, ExecStats)> = None;
        let mut pages: [Option<u64>; 2] = [None, None];
        for (columnar, threads) in POINTS {
            let at = format!("{what} {lane:?} columnar={columnar} threads={threads}");
            let opts = opts_at(base, lane, columnar, threads);
            let (rows, stats) =
                execute_with(db, plan, opts).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_same_answer(&at, lane, &rows, want);
            assert_eq!(
                stats.pages_read,
                stats.pool_hits + stats.pool_misses,
                "{at}"
            );
            let seen = pages[usize::from(columnar)].get_or_insert(stats.pages_read);
            assert_eq!(stats.pages_read, *seen, "{at}: page I/O depends on threads");
            match &first {
                None => {
                    spills += stats.spills;
                    degradations += stats.degradations;
                    first = Some((rows, stats));
                }
                Some((first_rows, first_stats)) => {
                    assert_eq!(&rows, first_rows, "{at}: row order differs within the lane");
                    assert_eq!(
                        io_blind(&stats),
                        io_blind(first_stats),
                        "{at}: work counters differ within the lane"
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
    // probes alone on the resident tier and never go over budget there,
    // figs 6 and 8 do.
    let mut bites = Bites::default();
    for fig in [Figure::Fig5, Figure::Fig6, Figure::Fig8, Figure::Fig9] {
        let db = fig.database(0.005, 42).unwrap();
        assert!(
            db.table("lineitem").unwrap().len() > MORSEL_ROWS,
            "the input must cross the morsel threshold or threads=4 never fans out"
        );
        let tiers = Tiers::of(fig.id(), db);
        for s in fig.strategies() {
            bites += check_lattice(fig.id(), &tiers, fig.sql(), s, fig.exec_opts(s));
        }
    }
    bites.assert_every_lane_bit();
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
    let tiers = Tiers::of("empdept", db);
    let mut bites = Bites::default();
    // Every strategy but Kim, which is unsound on exactly this query.
    for s in Strategy::all().into_iter().filter(|s| *s != Strategy::Kim) {
        let sql = decorr_tpcd::queries::EMPDEPT;
        bites += check_lattice("empdept", &tiers, sql, s, ExecOptions::default());
    }
    bites.assert_every_lane_bit();
}

/// `check_plan` for the graph as bound — what the race runs when NI wins,
/// with its pass-through Selects — and for each sound rewrite of it.
fn check_bound_and_rewritten(what: &str, tiers: &Tiers, sql: &str) -> Bites {
    let qgm = parse_and_bind(sql, &tiers.resident).unwrap();
    let as_bound = format!("{what} as bound");
    let mut bites = check_plan(&as_bound, tiers, &qgm, ExecOptions::default());
    for s in [Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag] {
        bites += check_lattice(what, tiers, sql, s, ExecOptions::default());
    }
    bites
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
    let tiers = Tiers::of("single-input", db);

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
        check_bound_and_rewritten(what, &tiers, sql);
    }
}

/// `big` crosses two morsels and four 512-row stripes; `id` is its
/// insertion order, so zone maps prune on it. Its key column is a DOUBLE
/// that also holds `Int`s, NULL, NaN and both zeros; `small` holds one key
/// of each kind — with no, one and many partners in `big` — and is always
/// the smaller side, so `big` is the one hashed. `none` is `big` without a
/// row; `r511`, `r512` and `r513` are its first rows, ending one short of,
/// on and one past the suite's stripe length, each with the key of
/// `small`'s "one" in its last row.
fn scan_arms_db() -> Database {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("k", DataType::Double),
        ("v", DataType::Int),
        ("s", DataType::Str),
    ]);
    let big_row = |i: i64, last: i64| {
        let k = match i % 97 {
            _ if i == last => Value::Double(-1.5),
            0 => Value::Null,
            1 => Value::Double(f64::NAN),
            2 => Value::Double(-0.0),
            3 => Value::Double(0.0),
            4 => Value::Int(7),
            r => Value::Double(r as f64),
        };
        row![i, k, i % 7, format!("s{}", i % 13)]
    };
    let n = 2 * MORSEL_ROWS as i64 + 77;
    let big = db.create_table("big", schema.clone()).unwrap();
    big.insert_all((0..n).map(|i| big_row(i, 1500))).unwrap();
    db.create_table("none", schema.clone()).unwrap();
    for rows in [511, 512, 513] {
        let table = db
            .create_table(&format!("r{rows}"), schema.clone())
            .unwrap();
        table
            .insert_all((0..rows).map(|i| big_row(i, rows - 1)))
            .unwrap();
    }
    let small = db
        .create_table(
            "small",
            Schema::from_pairs(&[("k", DataType::Double), ("tag", DataType::Str)]),
        )
        .unwrap();
    small
        .insert_all([
            row![Value::Null, "null"],
            row![f64::NAN, "nan"],
            row![0.0, "zero"],
            row![-0.0, "minus zero"],
            row![7.0, "many, stored as Int"],
            row![-1.5, "one"],
            row![1234.5, "none"],
        ])
        .unwrap();
    // (Dayal's rewrite asks for a keyed outer table.)
    small.set_key(&["tag"]).unwrap();
    db
}

#[test]
fn paged_scan_arms_agree_across_the_lattice() {
    let tiers = Tiers::of("scan-arms", scan_arms_db());

    let mut bites = Bites::default();
    let cases = [
        // The scan is the Select's first (and only) input.
        (
            "first input",
            "SELECT b.id, b.k, b.s FROM big b WHERE b.v > 3",
        ),
        // The scan is the build side; `=` keys.
        (
            "build side",
            "SELECT s.tag, b.id, b.s FROM small s, big b WHERE s.k = b.k",
        ),
        (
            "filtered build side",
            "SELECT s.tag, b.id FROM small s, big b WHERE s.k = b.k AND b.v < 2 AND b.id > 600",
        ),
        // A computed build key: rows first.
        (
            "computed key",
            "SELECT s.tag, b.id FROM small s, big b WHERE s.k = b.k + 0",
        ),
        // An `IN` list is one kernel predicate; arithmetic compiles to
        // none, so the row-wise evaluator gets rows.
        (
            "in list",
            "SELECT b.id, b.s FROM big b WHERE b.v IN (1, 5) AND b.id > 100",
        ),
        (
            "arithmetic",
            "SELECT s.tag, b.id FROM small s, big b WHERE s.k = b.k AND b.v + 1 > 6",
        ),
        // Zone maps refute every stripe.
        ("all pruned", "SELECT b.id, b.s FROM big b WHERE b.id < -5"),
        (
            "all pruned build side",
            "SELECT s.tag, b.id FROM small s, big b WHERE s.k = b.k AND b.id < -5",
        ),
        // Grand totals straight over the scan; over nothing, the row that
        // the COUNT bug is about must still appear.
        (
            "total",
            "SELECT COUNT(*), COUNT(b.k), SUM(b.v), MIN(b.k), MAX(b.s) FROM big b",
        ),
        (
            "filtered total",
            "SELECT COUNT(*), SUM(b.k), MIN(b.id) FROM big b WHERE b.v = 3 AND b.id >= 1024",
        ),
        (
            "total over nothing",
            "SELECT COUNT(*), SUM(b.v), MAX(b.k) FROM big b WHERE b.id < -5",
        ),
        (
            "total of a subset of columns",
            "SELECT SUM(d.v) FROM (SELECT b.v, b.id FROM big b WHERE b.id > 9) AS d",
        ),
        // Not a kernel total: DISTINCT, a computed argument.
        (
            "distinct total",
            "SELECT COUNT(DISTINCT b.v), SUM(b.v + 1) FROM big b",
        ),
    ];
    for (what, sql) in cases {
        bites += check_bound_and_rewritten(what, &tiers, sql);
    }

    // The decorrelated re-join with the magic table matches NULL to NULL:
    // the build-side join above with `IS NOT DISTINCT FROM` for `=` (which
    // SQL text cannot say).
    let mut plan = parse_and_bind(cases[1].1, &tiers.resident).unwrap();
    let top = plan.top();
    plan.boxmut(top).for_each_expr_mut(|e| {
        if let Expr::Binary { op: op @ BinOp::Eq, .. } = e {
            *op = BinOp::NullEq;
        }
    });
    let null_eq = execute(&tiers.unindexed, &plan).unwrap().0;
    let tagged = |tag: &str| null_eq.iter().filter(|r| r[0] == Value::str(tag)).count();
    assert!(
        tagged("null") > 1 && tagged("nan") > 1,
        "NULL and NaN keys must match"
    );
    assert_eq!(tagged("zero"), tagged("minus zero"), "the zeros stay apart");
    bites += check_plan("NullEq build side", &tiers, &plan, ExecOptions::default());

    bites.assert_every_lane_bit();
}

/// `left LOJ (SELECT r.*, r.k AS corr FROM right r [WHERE scan(r)]) AS R ON
/// left.k <key_op> R.corr [AND residual(left, R)]` — Dayal's shape: the
/// subquery block scans one table and duplicates its correlation column,
/// the correlation predicate sits in the ON clause. The outputs are the
/// left side's last column (`small.tag`), then `id`, `s` and `corr` of the
/// right side; `computed` adds `R.id + 1`.
fn loj_over_scan(
    db: &Database,
    (left, right): (&str, &str),
    key_op: BinOp,
    scan: Option<fn(QuantId) -> Expr>,
    residual: Option<fn(QuantId, QuantId) -> Expr>,
    computed: bool,
) -> Qgm {
    let schema = |t: &str| db.table(t).unwrap().schema().clone();
    let k_of = |t: &str| schema(t).index_of("k").unwrap();
    let mut g = Qgm::new();
    let lt = g.add_base_table(left, schema(left));
    let rt = g.add_base_table(right, schema(right));
    let block = g.add_box(BoxKind::Select, "subquery block");
    let q = g.add_quant(block, QuantKind::Foreach, rt, "r");
    let arity = schema(right).arity();
    for c in 0..arity {
        g.add_output(block, format!("c{c}"), Expr::col(q, c));
    }
    let corr = g.add_output(block, "corr", Expr::col(q, k_of(right)));
    g.boxmut(block).preds.extend(scan.map(|p| p(q)));

    let oj = g.add_box(BoxKind::OuterJoin, "LOJ");
    let ql = g.add_quant(oj, QuantKind::Foreach, lt, "L");
    let qr = g.add_quant(oj, QuantKind::Foreach, block, "R");
    let on = Expr::bin(key_op, Expr::col(ql, k_of(left)), Expr::col(qr, corr));
    g.boxmut(oj).preds.push(on);
    g.boxmut(oj).preds.extend(residual.map(|p| p(ql, qr)));
    g.add_output(oj, "l", Expr::col(ql, schema(left).arity() - 1));
    g.add_output(oj, "id", Expr::col(qr, 0));
    g.add_output(oj, "s", Expr::col(qr, arity - 1));
    g.add_output(oj, "corr", Expr::col(qr, corr));
    if computed {
        let next = Expr::bin(BinOp::Add, Expr::col(qr, 0), Expr::lit(1));
        g.add_output(oj, "next", next);
    }
    g.set_top(oj);
    validate(&g).unwrap();
    g
}

#[test]
fn outer_join_build_sides_agree_across_the_lattice() {
    // The outer join builds on its right child. When that is a scan-only
    // Select the kernels hash the scan's key column and make rows of the
    // matched positions only — of one resident stripe or of several paged
    // ones — and the row-wise reference, the degraded nested-loop walk and
    // a computed output or residual predicate (which need the evaluator's
    // writer) must all see the same join.
    let tiers = Tiers::of("loj", scan_arms_db());
    let db = &tiers.resident;
    let v_above_3: fn(QuantId) -> Expr = |q| Expr::bin(BinOp::Gt, Expr::col(q, 2), Expr::lit(3));
    let early: fn(QuantId, QuantId) -> Expr =
        |_, qr| Expr::bin(BinOp::Lt, Expr::col(qr, 0), Expr::lit(100));
    let plans = [
        (
            "filtered scan build",
            loj_over_scan(
                db,
                ("small", "big"),
                BinOp::Eq,
                Some(v_above_3),
                None,
                false,
            ),
        ),
        (
            "NullEq keys",
            loj_over_scan(db, ("small", "big"), BinOp::NullEq, None, None, false),
        ),
        // Key partners past id 99 fail the residual: "one" (id 1500) goes
        // back to being unmatched.
        (
            "residual predicate",
            loj_over_scan(db, ("small", "big"), BinOp::Eq, None, Some(early), false),
        ),
        (
            "computed output",
            loj_over_scan(db, ("small", "big"), BinOp::Eq, Some(v_above_3), None, true),
        ),
        (
            "empty right",
            loj_over_scan(db, ("small", "none"), BinOp::Eq, None, None, false),
        ),
        // The probe side crosses the morsel threshold; the build side is
        // never over budget.
        (
            "long left",
            loj_over_scan(db, ("big", "small"), BinOp::Eq, None, None, false),
        ),
        (
            "r511",
            loj_over_scan(db, ("small", "r511"), BinOp::Eq, None, None, false),
        ),
        (
            "r512",
            loj_over_scan(db, ("small", "r512"), BinOp::Eq, None, None, false),
        ),
        (
            "r513",
            loj_over_scan(db, ("small", "r513"), BinOp::Eq, None, None, false),
        ),
    ];
    let mut bites = Bites::default();
    for (what, plan) in &plans {
        bites += check_plan(what, &tiers, plan, ExecOptions::default());
    }

    // What the join must say, whichever way it was built: per `small` row,
    // its partners' ids, or one null-extended row.
    let ids = |plan: &Qgm, tag: &str| -> Vec<Value> {
        let rows = execute(&tiers.unindexed, plan).unwrap().0;
        let of_tag = rows.iter().filter(|r| r[0] == Value::str(tag));
        of_tag.map(|r| r[1].clone()).collect()
    };
    let unmatched = vec![Value::Null];
    for (what, plan) in &plans[..5] {
        for tag in ["null", "nan", "none"] {
            let want = match (*what, tag) {
                ("NullEq keys", "null" | "nan") => continue,
                _ => &unmatched,
            };
            assert_eq!(&ids(plan, tag), want, "{what}: {tag}");
        }
    }
    assert_eq!(ids(&plans[1].1, "one"), vec![Value::Int(1500)]);
    // `=` folds the zeros together, `IS NOT DISTINCT FROM` keeps them apart.
    assert_eq!(ids(&plans[0].1, "zero"), ids(&plans[0].1, "minus zero"));
    assert!(ids(&plans[0].1, "zero").len() > 1);
    assert_ne!(ids(&plans[1].1, "zero"), ids(&plans[1].1, "minus zero"));
    assert!(ids(&plans[1].1, "null").len() > 1 && ids(&plans[1].1, "nan").len() > 1);
    assert_eq!(ids(&plans[2].1, "one"), unmatched);
    assert!(ids(&plans[2].1, "many, stored as Int").len() > 1);
    for tag in ["zero", "minus zero", "many, stored as Int", "one"] {
        assert_eq!(ids(&plans[4].1, tag), unmatched, "empty right: {tag}");
    }
    // The last row of each short table is the one partner of "one": at
    // position 510 or 511 of the first stripe, or alone in the second.
    for (at, last) in [(6, 510), (7, 511), (8, 512)] {
        assert_eq!(ids(&plans[at].1, "one"), vec![Value::Int(last)]);
    }

    // The same shape as the Dayal rewrite makes it, its GROUP BY on plain
    // columns included, and a GROUP BY without any aggregate.
    let dayal = "SELECT s.tag FROM small s \
                 WHERE 2 < (SELECT COUNT(*) FROM big b WHERE b.k = s.k AND b.v > 3)";
    bites += check_lattice(
        "dayal",
        &tiers,
        dayal,
        Strategy::Dayal,
        ExecOptions::default(),
    );
    let groups = [
        "SELECT b.v FROM big b GROUP BY b.v",
        "SELECT b.s, b.v FROM big b WHERE b.id > 600 GROUP BY b.s, b.v",
    ];
    for sql in groups {
        bites += check_bound_and_rewritten("group by without aggregate", &tiers, sql);
    }
    // (The lattice holds the executor to itself; the group columns are not
    // NULL — they were, with no aggregate to carry the group's first row.)
    let plan = parse_and_bind(groups[0], &tiers.resident).unwrap();
    let mut rows = execute(&tiers.resident, &plan).unwrap().0;
    rows.sort();
    assert_eq!(rows, (0..7).map(|v| row![v]).collect::<Vec<_>>());
    bites.assert_every_lane_bit();
}

/// `plan`'s top box under a Grouping by its columns `keys`, with COUNT(*),
/// COUNT(c), AVG(c) and MIN(c) of its column `c`: over an outer join, the
/// null-extended candidates count once under COUNT(*) and never under the
/// other three.
fn grouped(mut g: Qgm, keys: &[usize], c: usize) -> Qgm {
    let below = g.top();
    let top = g.add_box(BoxKind::Grouping { group_by: Vec::new() }, "group");
    let q = g.add_quant(top, QuantKind::Foreach, below, "G");
    if let BoxKind::Grouping { group_by } = &mut g.boxmut(top).kind {
        *group_by = keys.iter().map(|&k| Expr::col(q, k)).collect();
    }
    for &k in keys {
        g.add_output(top, format!("k{k}"), Expr::col(q, k));
    }
    g.add_output(top, "rows", Expr::count_star());
    for func in [AggFunc::Count, AggFunc::Avg, AggFunc::Min] {
        g.add_output(top, format!("{func:?}"), Expr::agg(func, Expr::col(q, c)));
    }
    g.set_top(top);
    validate(&g).unwrap();
    g
}

#[test]
fn candidate_tuples_agree_across_the_lattice() {
    // A join hands its consumer positions: a Grouping over an outer join
    // hashes each left row's key once and folds the right side through the
    // pairs, a join's candidates feed the next join, a filter and the
    // evaluator, and an `IN` list is one kernel predicate. Every hand-off
    // must see what rows would have shown it.
    let tiers = Tiers::of("tuples", scan_arms_db());
    let db = &tiers.resident;
    let mut bites = Bites::default();

    // `big LOJ small`, grouped by `big.s`: thirteen groups, each spanning
    // ~160 left rows scattered through the input, most of them
    // null-extended (their `k` has no partner), and a ±0.0 left row paired
    // twice in a row; the aggregates read the right side's `corr`. Then
    // grouped by a right and a left column at once (a key from two inputs,
    // NULL for the null-extended), and `small` over an empty right side.
    let long_left = loj_over_scan(db, ("big", "small"), BinOp::Eq, None, None, false);
    let empty_right = loj_over_scan(db, ("small", "none"), BinOp::Eq, None, None, false);
    let plans = [
        (
            "LOJ grouped by a left column",
            grouped(long_left.clone(), &[0], 3),
        ),
        ("LOJ grouped by both sides", grouped(long_left, &[3, 0], 1)),
        ("LOJ over nothing, grouped", grouped(empty_right, &[0], 3)),
    ];
    for (what, plan) in &plans {
        bites += check_plan(what, &tiers, plan, ExecOptions::default());
    }
    let rows = execute(&tiers.unindexed, &plans[0].1).unwrap().0;
    assert_eq!(rows.len(), 13);
    for r in &rows {
        let (all, matched) = (&r[1], &r[2]);
        assert!(
            all > matched && *matched > Value::Int(0),
            "{r}: null extension counts once"
        );
    }
    let over_nothing = execute(&tiers.unindexed, &plans[2].1).unwrap().0;
    assert!(over_nothing
        .iter()
        .all(|r| r[1] == Value::Int(1) && r[2] == Value::Int(0)));
    assert!(over_nothing
        .iter()
        .all(|r| r[3].is_null() && r[4].is_null()));

    let cases = [
        // Three inputs; the last join keeps a non-equi residual and the
        // output is computed.
        (
            "3-way join, residual, computed output",
            "SELECT s.tag, b.id + c.id, c.s FROM small s, big b, r513 c \
             WHERE s.k = b.k AND c.v = b.v AND c.id < b.id AND c.id < 40",
        ),
        // `IN` lists over a DOUBLE column holding NULL, NaN, ±0.0 and Ints,
        // with a NULL and a repeated literal; over strings; and correlated,
        // the binding folded into the list.
        (
            "in list over odd keys",
            "SELECT b.id FROM big b WHERE b.k IN (0, 7, -1.5, NULL, 7) AND b.v <> 2",
        ),
        (
            "in list of strings",
            "SELECT b.id, b.k FROM big b WHERE b.s IN ('s1', 's5', 's1') AND b.id < 700",
        ),
        (
            "correlated in list",
            "SELECT s.tag FROM small s \
             WHERE 20 < (SELECT COUNT(*) FROM big b WHERE b.k IN (s.k, 2.0) AND b.v < 6)",
        ),
    ];
    for (what, sql) in cases {
        bites += check_bound_and_rewritten(what, &tiers, sql);
    }

    // A scalar subquery placed as soon as its binding is joined: appended
    // to a join's candidates, then filtered on.
    let earliest = ExecOptions {
        scalar_placement: ScalarPlacement::EarliestBinding,
        ..ExecOptions::default()
    };
    let sql = "SELECT s.tag, b.id FROM small s, big b WHERE s.k = b.k \
               AND b.v < (SELECT COUNT(*) FROM r511 r WHERE r.v = b.v AND r.id < 20)";
    let as_bound = parse_and_bind(sql, db).unwrap();
    bites += check_plan(
        "earliest binding as bound",
        &tiers,
        &as_bound,
        earliest.clone(),
    );
    for s in [Strategy::NestedIteration, Strategy::Magic] {
        bites += check_lattice("earliest binding", &tiers, sql, s, earliest.clone());
    }
    bites.assert_every_lane_bit();
}
