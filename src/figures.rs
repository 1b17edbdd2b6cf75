//! The paper's evaluation (Section 5, Figures 5–9) as code: one [`Figure`]
//! per figure — its query, its strategy list, its database and the
//! per-strategy execution options — and the runners the `harness` binary
//! and the root test suites share.

use std::time::{Duration, Instant};

use decorr_common::{Error, ExecStats, JsonWriter, Result, Row};
use decorr_core::magic::MagicOptions;
use decorr_core::{apply_strategy, apply_strategy_traced, RewriteTrace, Strategy};
use decorr_exec::{
    execute_traced, execute_with, CostModel, ExecOptions, ExecTrace, ScalarPlacement,
};
use decorr_parallel::{run_decorrelated, run_nested_iteration, Cluster};
use decorr_qgm::{print, Qgm};
use decorr_sql::parse_and_bind;
use decorr_stats::{q_error, AccuracyReport, Statistics};
use decorr_storage::Database;
use decorr_tpcd::empdept::{self, EmpDeptConfig};
use decorr_tpcd::{generate, queries, TpcdConfig};

use crate::choose::{audit_estimates, choose_strategy_with, PlanChoice};

/// The figures of the paper's Section 5 (plus the Section 6 analysis,
/// which has no numbered figure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Query 1(a): all indexes present.
    Fig5,
    /// Query 1(b): wider predicates, duplicate bindings.
    Fig6,
    /// Query 1(c): partsupp index dropped.
    Fig7,
    /// Query 2: key correlation, cheap indexed subquery.
    Fig8,
    /// Query 3: non-linear (UNION) query.
    Fig9,
}

impl Figure {
    pub fn all() -> [Figure; 5] {
        [
            Figure::Fig5,
            Figure::Fig6,
            Figure::Fig7,
            Figure::Fig8,
            Figure::Fig9,
        ]
    }

    pub fn id(self) -> &'static str {
        match self {
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Fig9 => "fig9",
        }
    }

    pub fn title(self) -> &'static str {
        match self {
            Figure::Fig5 => "Figure 5 - Query 1(a), all indexes",
            Figure::Fig6 => "Figure 6 - Query 1(b), wider predicates (duplicate bindings)",
            Figure::Fig7 => "Figure 7 - Query 1(c), partsupp index dropped",
            Figure::Fig8 => "Figure 8 - Query 2, key correlation",
            Figure::Fig9 => "Figure 9 - Query 3, non-linear (UNION) query",
        }
    }

    pub fn sql(self) -> &'static str {
        match self {
            Figure::Fig5 => queries::Q1A,
            Figure::Fig6 => queries::Q1B,
            Figure::Fig7 => queries::Q1C,
            Figure::Fig8 => queries::Q2,
            Figure::Fig9 => queries::Q3,
        }
    }

    /// The strategies each figure compares, in the paper's order. Kim and
    /// Dayal are absent from Figure 9 (inapplicable); OptMag appears only
    /// in Figure 8, as in the paper.
    pub fn strategies(self) -> Vec<Strategy> {
        match self {
            Figure::Fig5 | Figure::Fig6 | Figure::Fig7 => vec![
                Strategy::NestedIteration,
                Strategy::Kim,
                Strategy::Dayal,
                Strategy::Magic,
            ],
            Figure::Fig8 => vec![
                Strategy::NestedIteration,
                Strategy::Kim,
                Strategy::Dayal,
                Strategy::Magic,
                Strategy::OptMag,
            ],
            Figure::Fig9 => vec![Strategy::NestedIteration, Strategy::Magic],
        }
    }

    /// Per-strategy execution options. Figure 8's NI plan places the
    /// subquery before the join (the paper: "the plan optimizer places the
    /// subquery *before* the join between Parts and Lineitem").
    pub fn exec_opts(self, s: Strategy) -> ExecOptions {
        match (self, s) {
            (Figure::Fig8, Strategy::NestedIteration) => ExecOptions {
                scalar_placement: ScalarPlacement::EarliestBinding,
                ..Default::default()
            },
            _ => ExecOptions::default(),
        }
    }

    /// Build the database this figure runs against.
    pub fn database(self, scale: f64, seed: u64) -> Result<Database> {
        let mut db = generate(&TpcdConfig { scale, seed, with_indexes: true })?;
        if self == Figure::Fig7 {
            queries::drop_fig7_index(&mut db)?;
        }
        Ok(db)
    }
}

/// One measured run of one strategy.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub strategy: Strategy,
    pub elapsed: Duration,
    pub stats: ExecStats,
    pub rows: usize,
}

/// Rewrite (outside the timed section) and execute (timed).
pub fn run_strategy(
    db: &Database,
    sql: &str,
    strategy: Strategy,
    opts: ExecOptions,
) -> Result<(Vec<Row>, Measurement)> {
    let qgm = parse_and_bind(sql, db)?;
    let rewritten = apply_strategy(&qgm, strategy)?;
    let started = Instant::now();
    let (rows, stats) = execute_with(db, &rewritten, opts)?;
    let elapsed = started.elapsed();
    let n = rows.len();
    Ok((rows, Measurement { strategy, elapsed, stats, rows: n }))
}

/// Everything observable about one strategy's run: the rewritten plan,
/// the rewrite step log that produced it, and the per-box execution trace.
#[derive(Debug, Clone)]
pub struct StrategyTrace {
    pub strategy: Strategy,
    pub plan: Qgm,
    pub rewrite: RewriteTrace,
    pub exec: ExecTrace,
}

impl StrategyTrace {
    /// Human-readable dump: EXPLAIN plan, rewrite steps, execution trace.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "== strategy {}", self.strategy.name()).unwrap();
        writeln!(s, "-- plan\n{}", print::explain(&self.plan)).unwrap();
        if self.rewrite.is_empty() {
            writeln!(s, "-- rewrite steps: (none)").unwrap();
        } else {
            writeln!(s, "-- rewrite steps\n{}", self.rewrite.render()).unwrap();
        }
        writeln!(s, "-- execution trace\n{}", self.exec.render(&self.plan)).unwrap();
        s
    }
}

/// [`run_strategy`] with full observability: rewrite trace and per-box
/// execution trace alongside the rows and the measurement.
pub fn run_strategy_traced(
    db: &Database,
    sql: &str,
    strategy: Strategy,
    opts: ExecOptions,
) -> Result<(Vec<Row>, Measurement, StrategyTrace)> {
    let qgm = parse_and_bind(sql, db)?;
    let (plan, rewrite) = apply_strategy_traced(&qgm, strategy)?;
    let started = Instant::now();
    let (rows, stats, exec) = execute_traced(db, &plan, opts)?;
    let elapsed = started.elapsed();
    let n = rows.len();
    Ok((
        rows,
        Measurement { strategy, elapsed, stats, rows: n },
        StrategyTrace { strategy, plan, rewrite, exec },
    ))
}

/// Compare two strategies on the same query. `None` when their (sorted)
/// results agree; otherwise a report with both EXPLAIN plans, both rewrite
/// and execution traces, and the first differing row — the dump the
/// equivalence tests print on failure.
pub fn diff_strategies(
    db: &Database,
    sql: &str,
    reference: Strategy,
    candidate: Strategy,
    ref_opts: ExecOptions,
    cand_opts: ExecOptions,
) -> Result<Option<String>> {
    let (mut rrows, _, rtrace) = run_strategy_traced(db, sql, reference, ref_opts)?;
    let (mut crows, _, ctrace) = run_strategy_traced(db, sql, candidate, cand_opts)?;
    rrows.sort();
    crows.sort();
    if rrows == crows {
        return Ok(None);
    }
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "result mismatch: {} returned {} row(s), {} returned {} row(s)",
        reference.name(),
        rrows.len(),
        candidate.name(),
        crows.len()
    )
    .unwrap();
    let idx = rrows
        .iter()
        .zip(crows.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(rrows.len().min(crows.len()));
    writeln!(s, "first differing row (after sorting) at index {idx}:").unwrap();
    match rrows.get(idx) {
        Some(r) => writeln!(s, "  {:<8} {r}", reference.name()).unwrap(),
        None => writeln!(s, "  {:<8} (exhausted)", reference.name()).unwrap(),
    }
    match crows.get(idx) {
        Some(r) => writeln!(s, "  {:<8} {r}", candidate.name()).unwrap(),
        None => writeln!(s, "  {:<8} (exhausted)", candidate.name()).unwrap(),
    }
    s.push_str(&rtrace.render());
    s.push_str(&ctrace.render());
    Ok(Some(s))
}

/// Run a whole figure: every strategy, with result-equivalence checking
/// against nested iteration (Kim's method is allowed to lose COUNT-bug
/// rows, though the paper's three queries have none).
pub fn run_figure(fig: Figure, db: &Database) -> Result<Vec<Measurement>> {
    run_figure_with(fig, db, 1)
}

/// [`run_figure`] on a worker pool of the given width. The cross-strategy
/// equivalence check compares sorted rows, so it holds at any thread count
/// (parallel runs may emit rows in a different order, never different
/// rows).
pub fn run_figure_with(fig: Figure, db: &Database, threads: usize) -> Result<Vec<Measurement>> {
    run_figure_cfg(fig, db, threads, true)
}

/// [`run_figure_with`] with the execution representation selectable —
/// the harness's `--no-columnar` flag lands here.
pub fn run_figure_cfg(
    fig: Figure,
    db: &Database,
    threads: usize,
    columnar: bool,
) -> Result<Vec<Measurement>> {
    let reference = fig.strategies()[0];
    let mut out = Vec::new();
    let mut ref_rows: Option<Vec<Row>> = None;
    for s in fig.strategies() {
        let opts = ExecOptions { threads, columnar, ..fig.exec_opts(s) };
        let (mut rows, m) = run_strategy(db, fig.sql(), s, opts)?;
        rows.sort();
        match &ref_rows {
            None => ref_rows = Some(rows),
            Some(r) => {
                if &rows != r {
                    // Re-run both sides traced so the failure explains
                    // itself: plans, rewrite logs, traces, first diff.
                    let dump = diff_strategies(
                        db,
                        fig.sql(),
                        reference,
                        s,
                        fig.exec_opts(reference),
                        fig.exec_opts(s),
                    )?
                    .unwrap_or_else(|| "(mismatch not reproducible under tracing)".into());
                    return Err(Error::internal(format!(
                        "strategy {} disagrees with {} on {}\n{}",
                        s.name(),
                        reference.name(),
                        fig.id(),
                        dump
                    )));
                }
            }
        }
        out.push(m);
    }
    Ok(out)
}

/// [`run_figure`], returning the full per-strategy traces as well.
pub fn run_figure_traced(fig: Figure, db: &Database) -> Result<Vec<(Measurement, StrategyTrace)>> {
    let mut out = Vec::new();
    for s in fig.strategies() {
        let (_, m, t) = run_strategy_traced(db, fig.sql(), s, fig.exec_opts(s))?;
        out.push((m, t));
    }
    Ok(out)
}

/// The `harness --trace` JSON document for one figure: per strategy the
/// work counters, the EXPLAIN plan, the rewrite step log and the per-box
/// execution trace.
pub fn figure_trace_json(fig: Figure, runs: &[(Measurement, StrategyTrace)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("figure", fig.id())
        .field_str("title", fig.title());
    w.key("strategies").begin_array();
    for (m, t) in runs {
        w.begin_object()
            .field_str("strategy", m.strategy.name())
            .field_uint("rows", m.rows as u64)
            .field_float("time_ms", m.elapsed.as_secs_f64() * 1e3)
            .field_uint("total_work", m.stats.total_work())
            .field_uint("subquery_invocations", m.stats.subquery_invocations)
            .field_str("plan", &print::explain(&t.plan));
        w.key("rewrite").raw(&t.rewrite.to_json());
        w.key("exec").raw(&t.exec.to_json(&t.plan));
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// The strategies the cost-based race can actually choose from (Kim is
/// raced for its estimate but is unsound; OptMag joins the race in a
/// future PR) — the yardstick for [`ChoiceOutcome::best_work`].
pub const SOUND_STRATEGIES: [Strategy; 4] = [
    Strategy::NestedIteration,
    Strategy::Dayal,
    Strategy::GanskiWong,
    Strategy::Magic,
];

/// One figure's cost-based choice, measured: what the race picked, how
/// much work the chosen plan actually did, how that compares to the best
/// choosable strategy's measured work, and the per-box accuracy audit.
#[derive(Debug, Clone)]
pub struct ChoiceOutcome {
    pub figure: Figure,
    pub choice: PlanChoice,
    /// Measured total work of the chosen plan.
    pub chosen_work: u64,
    /// The choosable strategy with the least measured work…
    pub best_strategy: Strategy,
    /// …and that work, for the "within 2x of best" acceptance bar.
    pub best_work: u64,
    /// Per-box estimated-vs-actual rows with q-error.
    pub report: AccuracyReport,
}

impl ChoiceOutcome {
    /// q-error of the total-cost prediction against measured work — the
    /// number `harness accuracy --qerr-threshold` and
    /// `tests/plan_choice.rs` bound.
    pub fn cost_q_error(&self) -> f64 {
        q_error(self.choice.estimate.cost, self.chosen_work as f64)
    }

    /// Measured work of the chosen plan relative to the best choosable
    /// strategy (1.0 = the race picked the measured winner).
    pub fn work_ratio(&self) -> f64 {
        self.chosen_work.max(1) as f64 / self.best_work.max(1) as f64
    }

    /// Human-readable dump: ranked race, per-box accuracy, summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "{} — strategy race (cheapest first):",
            self.figure.title()
        )
        .unwrap();
        s.push_str(&self.choice.render());
        writeln!(
            s,
            "estimation accuracy ({} plan):",
            self.choice.strategy.name()
        )
        .unwrap();
        s.push_str(&self.report.render());
        writeln!(
            s,
            "chosen {} work {} vs best {} work {}: ratio {:.2}, total-cost q-error {:.2}",
            self.choice.strategy.name(),
            self.chosen_work,
            self.best_strategy.name(),
            self.best_work,
            self.work_ratio(),
            self.cost_q_error()
        )
        .unwrap();
        s
    }
}

/// Race every strategy over one figure's query, execute the winner with a
/// per-box trace, audit the estimates, and measure every sound strategy
/// for comparison.
pub fn race_figure(fig: Figure, db: &Database) -> Result<ChoiceOutcome> {
    let model = CostModel::new(db)?;
    let qgm = parse_and_bind(fig.sql(), db)?;
    let choice = choose_strategy_with(&model, qgm)?;
    let (_, stats, trace) = execute_traced(db, &choice.plan, fig.exec_opts(choice.strategy))?;
    let report = audit_estimates(&choice.plan, &choice.plan_estimate, &trace);
    let chosen_work = stats.total_work();

    let mut best_strategy = choice.strategy;
    let mut best_work = chosen_work;
    for s in SOUND_STRATEGIES {
        let Ok((_, m)) = run_strategy(db, fig.sql(), s, fig.exec_opts(s)) else {
            continue; // strategy inapplicable to this query
        };
        if m.stats.total_work() < best_work {
            best_work = m.stats.total_work();
            best_strategy = s;
        }
    }
    Ok(ChoiceOutcome { figure: fig, choice, chosen_work, best_strategy, best_work, report })
}

/// `ANALYZE` the database a figure runs against and render the result.
pub fn analyze_figure(fig: Figure, scale: f64, seed: u64) -> Result<String> {
    let db = fig.database(scale, seed)?;
    Ok(Statistics::analyze(&db)?.render())
}

/// Render measurements as the harness's text table.
pub fn format_table(fig: Figure, scale: f64, ms: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(s, "{} (scale {scale})", fig.title()).unwrap();
    writeln!(
        s,
        "{:<8} {:>10} {:>14} {:>12} {:>12} {:>12} {:>8}",
        "strategy", "time(ms)", "total work", "subq invoc", "scanned", "idx rows", "rows"
    )
    .unwrap();
    for m in ms {
        writeln!(
            s,
            "{:<8} {:>10.3} {:>14} {:>12} {:>12} {:>12} {:>8}",
            m.strategy.name(),
            m.elapsed.as_secs_f64() * 1e3,
            m.stats.total_work(),
            m.stats.subquery_invocations,
            m.stats.rows_scanned,
            m.stats.index_rows,
            m.rows
        )
        .unwrap();
    }
    s
}

/// The COUNT bug demonstration (Section 2) as text: Kim's rewrite silently
/// loses the departments in employee-less buildings, every other strategy
/// returns nested iteration's rows. What `harness countbug` and
/// `examples/count_bug.rs` print.
pub fn count_bug_table() -> Result<String> {
    use std::fmt::Write as _;
    let db = empdept::generate(&EmpDeptConfig {
        departments: 50,
        employees: 400,
        buildings: 8,
        seed: 7,
        with_indexes: true,
    })?;
    let mut s = String::from("COUNT bug (Section 2) - EMP/DEPT example\n");
    let mut ni_rows: Option<Vec<Row>> = None;
    for strategy in [
        Strategy::NestedIteration,
        Strategy::Kim,
        Strategy::Dayal,
        Strategy::Magic,
    ] {
        let (mut rows, _) = run_strategy(&db, queries::EMPDEPT, strategy, ExecOptions::default())?;
        rows.sort();
        writeln!(s, "{:<8} {:>4} result rows", strategy.name(), rows.len()).unwrap();
        let ni = ni_rows.get_or_insert_with(|| rows.clone());
        let as_expected = if strategy == Strategy::Kim {
            rows.len() < ni.len()
        } else {
            rows == *ni
        };
        if !as_expected {
            return Err(Error::internal(format!(
                "COUNT bug demonstration broke: {} returned {} row(s), NI {}",
                strategy.name(),
                rows.len(),
                ni.len()
            )));
        }
    }
    s.push_str(
        "(Kim's method returns fewer rows: departments in employee-less buildings are lost)\n",
    );
    Ok(s)
}

/// Section 6 as text: broadcast nested iteration against the partitioned
/// decorrelated plan on clusters of the given widths. What `harness
/// parallel` and `examples/parallel_speedup.rs` print; errors if either
/// plan's rows differ from the single-node answer.
pub fn parallel_table(nodes: &[usize], seed: u64) -> Result<String> {
    use std::fmt::Write as _;
    let db = empdept::generate(&EmpDeptConfig {
        departments: 400,
        employees: 4000,
        buildings: 25,
        seed,
        with_indexes: true,
    })?;
    let qgm = parse_and_bind(queries::EMPDEPT, &db)?;
    let (mut truth, _) = execute_with(&db, &qgm, ExecOptions::default())?;
    truth.sort();
    let mut s = String::from(
        "Section 6 - shared-nothing parallel execution (EMP/DEPT, 400 depts x 4000 emps)\n",
    );
    writeln!(
        s,
        "{:<6} {:<14} {:>10} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "nodes", "strategy", "frags", "messages", "shipped", "total work", "time(ms)", "rows"
    )
    .unwrap();
    for &n in nodes {
        let mut cluster = Cluster::partition_by_key(&db, n)?;
        let started = Instant::now();
        let ni = run_nested_iteration(&cluster, &qgm)?;
        let ni_elapsed = started.elapsed();
        let started = Instant::now();
        let magic = run_decorrelated(
            &mut cluster,
            &qgm,
            &[("dept", "building"), ("emp", "building")],
            &MagicOptions::default(),
        )?;
        let magic_elapsed = started.elapsed();
        for (label, (mut rows, st), elapsed) in [
            ("NI-broadcast", ni, ni_elapsed),
            ("Magic", magic, magic_elapsed),
        ] {
            rows.sort();
            if rows != truth {
                return Err(Error::internal(format!(
                    "{label} on {n} node(s) diverges from the single-node answer"
                )));
            }
            writeln!(
                s,
                "{:<6} {:<14} {:>10} {:>12} {:>10} {:>12} {:>12.3} {:>8}",
                n,
                label,
                st.fragments,
                st.messages,
                st.rows_shipped,
                st.total_work(),
                elapsed.as_secs_f64() * 1e3,
                rows.len()
            )
            .unwrap();
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_runs_and_strategies_agree() {
        for fig in Figure::all() {
            let db = fig.database(0.02, 42).unwrap();
            let ms = run_figure(fig, &db).unwrap();
            assert_eq!(ms.len(), fig.strategies().len(), "{}", fig.id());
            let table = format_table(fig, 0.02, &ms);
            assert!(table.contains("Mag"), "{table}");
        }
    }

    #[test]
    fn figure_metadata() {
        assert_eq!(Figure::Fig8.strategies().len(), 5);
        assert!(Figure::Fig9.strategies().len() == 2);
        assert!(Figure::Fig7.title().contains("index dropped"));
    }
}
