//! Shared benchmark plumbing: one [`Figure`] per figure/table of the
//! paper, used both by the Criterion benches (`benches/fig*.rs`) and by
//! the `harness` binary that prints the paper-style result tables for
//! EXPERIMENTS.md.

use std::time::{Duration, Instant};

use decorr::choose::{audit_estimates, choose_strategy_with, PlanChoice};
use decorr_common::{Budget, Chaos, Error, ExecStats, FaultPlan, JsonWriter, Result, Row};
use decorr_core::{apply_strategy, apply_strategy_traced, RewriteTrace, Strategy};
use decorr_exec::{
    execute_traced, execute_with, CostModel, ExecOptions, ExecTrace, ScalarPlacement,
};
use decorr_parallel::{run_gathered, Cluster};
use decorr_qgm::{print, Qgm};
use decorr_sql::parse_and_bind;
use decorr_stats::{q_error, AccuracyReport, Statistics};
use decorr_storage::Database;
use decorr_tpcd::{generate, queries, TpcdConfig};

pub mod chaos;
pub mod serve;
pub mod storage;
pub use chaos::{disk_net_chaos, DiskNetChaosConfig};
pub use serve::{repeat_workload_bench, serve_bench, ServeBenchConfig, SERVE_MIX};
pub use storage::{storage_bench, StorageBenchConfig};

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

    /// [`Figure::exec_opts`] with the executor's worker-pool width set —
    /// how the harness's `--threads` flag reaches each strategy run.
    pub fn exec_opts_threads(self, s: Strategy, threads: usize) -> ExecOptions {
        ExecOptions { threads, ..self.exec_opts(s) }
    }

    /// [`Figure::exec_opts`] with both the pool width and the execution
    /// representation set — the full A/B configuration surface
    /// (`--threads` × `--columnar`/`--no-columnar`).
    pub fn exec_opts_cfg(self, s: Strategy, threads: usize, columnar: bool) -> ExecOptions {
        ExecOptions { threads, columnar, ..self.exec_opts(s) }
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
        let (mut rows, m) =
            run_strategy(db, fig.sql(), s, fig.exec_opts_cfg(s, threads, columnar))?;
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
    /// number the CI `estimator-accuracy` job thresholds.
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

/// The figures recorded by the benchmark baseline (`harness --bench-json`):
/// the expensive scan-heavy query (Fig 5), the indexed key-correlation
/// query (Fig 8) and the non-linear UNION query (Fig 9).
pub const BASELINE_FIGURES: [Figure; 3] = [Figure::Fig5, Figure::Fig8, Figure::Fig9];

/// Run the recorded benchmark baseline: every [`BASELINE_FIGURES`] figure,
/// every strategy, across the full A/B grid — {row-wise, columnar} ×
/// {serial, `threads` workers}. Three contracts are *enforced*, not just
/// recorded (the CI `bench-smoke` and `columnar-smoke` jobs run exactly
/// these checks at tiny scale):
///
/// * At each thread count the columnar run must return **byte-identical
///   rows in the same order** as the row-wise run, with **identical
///   `ExecStats`** — the two representations must be observationally
///   indistinguishable.
/// * The parallel run must return the same multiset of rows as the serial
///   run (order may differ across pool widths, rows may not).
/// * Columnar total deterministic work must never exceed row-wise total
///   work on any figure/strategy/thread-count — vectorization is not
///   allowed to buy wall time with extra work.
///
/// Returns the JSON document recorded as `BENCH_PR5.json`: per
/// figure/strategy/representation/thread-count the wall time, result rows,
/// predicate evaluations and total deterministic work, plus the host CPU
/// count so a reader can judge how much true parallelism the wall times
/// reflect.
pub fn bench_baseline(scale: f64, seed: u64, threads: usize) -> Result<String> {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "columnar-ab-baseline")
        .field_float("scale", scale)
        .field_uint("seed", seed)
        .field_uint("host_cpus", host_cpus as u64)
        .field_uint("threads", threads as u64);
    w.key("figures").begin_array();
    for fig in BASELINE_FIGURES {
        let db = fig.database(scale, seed)?;
        w.begin_object()
            .field_str("figure", fig.id())
            .field_str("title", fig.title());
        w.key("strategies").begin_array();
        for s in fig.strategies() {
            // The grid: representation-major so each (row, col) pair at a
            // thread count is adjacent for the equivalence checks below.
            let mut runs = Vec::new();
            for t in [1, threads] {
                for columnar in [false, true] {
                    let (rows, m) =
                        run_strategy(&db, fig.sql(), s, fig.exec_opts_cfg(s, t, columnar))?;
                    runs.push((t, columnar, rows, m));
                }
            }
            for pair in runs.chunks(2) {
                let (t, _, row_rows, row_m) = &pair[0];
                let (_, _, col_rows, col_m) = &pair[1];
                if row_rows != col_rows {
                    return Err(Error::internal(format!(
                        "columnar run diverges from row-wise for {} on {} (threads={t}): \
                         {} vs {} row(s)",
                        s.name(),
                        fig.id(),
                        row_m.rows,
                        col_m.rows
                    )));
                }
                if row_m.stats != col_m.stats {
                    return Err(Error::internal(format!(
                        "columnar ExecStats diverge from row-wise for {} on {} (threads={t}): \
                         {:?} vs {:?}",
                        s.name(),
                        fig.id(),
                        row_m.stats,
                        col_m.stats
                    )));
                }
                if col_m.stats.total_work() > row_m.stats.total_work() {
                    return Err(Error::internal(format!(
                        "columnar path does more work than row-wise for {} on {} (threads={t}): \
                         {} vs {}",
                        s.name(),
                        fig.id(),
                        col_m.stats.total_work(),
                        row_m.stats.total_work()
                    )));
                }
            }
            let mut srows = runs[0].2.clone();
            let mut prows = runs[2].2.clone();
            srows.sort();
            prows.sort();
            if srows != prows {
                return Err(Error::internal(format!(
                    "parallel run (threads={threads}) diverges from serial for {} on {}: \
                     {} vs {} row(s) after sorting",
                    s.name(),
                    fig.id(),
                    runs[0].3.rows,
                    runs[2].3.rows
                )));
            }
            w.begin_object().field_str("strategy", s.name());
            w.key("runs").begin_array();
            for (t, columnar, _, m) in &runs {
                w.begin_object()
                    .field_uint("threads", *t as u64)
                    .field_bool("columnar", *columnar)
                    .field_float("time_ms", m.elapsed.as_secs_f64() * 1e3)
                    .field_uint("rows", m.rows as u64)
                    .field_uint("predicate_evals", m.stats.predicate_evals)
                    .field_uint("total_work", m.stats.total_work())
                    .end_object();
            }
            w.end_array().end_object();
        }
        w.end_array();
        // The cost-based race's verdict for this figure, so the bench
        // trajectory tracks estimator quality over future PRs.
        let outcome = race_figure(fig, &db)?;
        w.key("choice").begin_object();
        w.field_str("strategy", outcome.choice.strategy.name())
            .field_float("est_cost", outcome.choice.estimate.cost)
            .field_uint("chosen_work", outcome.chosen_work)
            .field_str("best_strategy", outcome.best_strategy.name())
            .field_uint("best_work", outcome.best_work)
            .field_float("work_ratio", outcome.work_ratio())
            .field_float("cost_q_error", outcome.cost_q_error())
            .field_float("max_box_q_error", outcome.report.max_q());
        w.key("boxes");
        outcome.report.write_json(&mut w);
        w.end_object();
        w.end_object();
    }
    w.end_array().end_object();
    Ok(w.finish())
}

/// The figures `harness ni-bench` compares: the [`BASELINE_FIGURES`] plus
/// Figure 6 — Query 1(b) is the paper's duplicate-binding variant (the
/// "3954 invocations of which only 2138 are distinct" analysis), whereas
/// Query 1(a)'s single-nation predicate leaves almost every binding
/// distinct in our generator (4 suppliers per part across 25 nations).
pub const NI_BENCH_FIGURES: [Figure; 4] = [Figure::Fig5, Figure::Fig6, Figure::Fig8, Figure::Fig9];

/// Compare the three nested-iteration lanes over [`NI_BENCH_FIGURES`]:
/// `naive` (the pre-memoization executor, [`ExecOptions::naive_ni`]),
/// `memo` (correlation-key memoization only) and `batched` (memoization
/// plus sorted outer batches and the set-oriented correlation probe — the
/// default executor). Returns `(text table, JSON document)`; the JSON is
/// recorded as `BENCH_PR10.json`.
///
/// Four contracts are *enforced*, not just recorded (the CI
/// `ni-memo-smoke` job runs exactly these checks at tiny scale):
///
/// * memo and batched must return **byte-identical rows in the same
///   order** as the naive lane — memoization may never change an answer;
/// * all three lanes must report the same logical
///   `subquery_invocations` — memoization changes what *executes*, not
///   what the plan *asks for*;
/// * every lane must satisfy `invocations == distinct + memo_hits`;
/// * memo and batched total deterministic work must never exceed naive
///   work, and must be **strictly below** it whenever the memo recorded
///   hits — a hit that doesn't save work is a bug. (At tiny CI scales a
///   figure may have no duplicate bindings; at the recorded scale ≥ 0.2
///   every baseline figure hits, so the recorded run shows all three
///   strictly below naive.)
pub fn ni_bench(scale: f64, seed: u64) -> Result<(String, String)> {
    use std::fmt::Write as _;

    let mut table = String::new();
    writeln!(
        table,
        "Nested-iteration lanes - naive vs memoized vs batched (scale {scale})"
    )
    .unwrap();
    writeln!(
        table,
        "{:<6} {:<8} {:>10} {:>14} {:>12} {:>10} {:>10} {:>8} {:>6}",
        "figure",
        "lane",
        "time(ms)",
        "total work",
        "subq invoc",
        "distinct",
        "hits",
        "hit%",
        "rows"
    )
    .unwrap();

    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "ni-memo-lanes")
        .field_float("scale", scale)
        .field_uint("seed", seed);
    w.key("figures").begin_array();

    for fig in NI_BENCH_FIGURES {
        let db = fig.database(scale, seed)?;
        // Default options, deliberately NOT `fig.exec_opts`: Figure 8's
        // paper NI plan places the subquery at its earliest binding, which
        // already collapses invocations to one per part. Memoization
        // targets the classic per-candidate-row regime, so all three lanes
        // run the same default placement and differ only in the memo knobs.
        let lanes: [(&str, ExecOptions); 3] = [
            ("naive", ExecOptions::default().naive_ni()),
            (
                "memo",
                ExecOptions { ni_batch: false, ..ExecOptions::default() },
            ),
            ("batched", ExecOptions::default()),
        ];
        let mut runs = Vec::new();
        for (lane, opts) in lanes {
            let (rows, m) = run_strategy(&db, fig.sql(), Strategy::NestedIteration, opts)?;
            runs.push((lane, rows, m));
        }
        let (_, naive_rows, naive_m) = &runs[0];
        for (lane, rows, m) in &runs[1..] {
            if rows != naive_rows {
                return Err(Error::internal(format!(
                    "{lane} lane diverges from naive nested iteration on {}: \
                     {} vs {} row(s)",
                    fig.id(),
                    m.rows,
                    naive_m.rows
                )));
            }
            if m.stats.subquery_invocations != naive_m.stats.subquery_invocations {
                return Err(Error::internal(format!(
                    "{lane} lane changed the logical invocation count on {}: \
                     {} vs naive {}",
                    fig.id(),
                    m.stats.subquery_invocations,
                    naive_m.stats.subquery_invocations
                )));
            }
            let strict = m.stats.subquery_memo_hits > 0;
            let worse = if strict {
                m.stats.total_work() >= naive_m.stats.total_work()
            } else {
                m.stats.total_work() > naive_m.stats.total_work()
            };
            if worse {
                return Err(Error::internal(format!(
                    "{lane} lane does not beat naive nested iteration on {} \
                     ({} memo hits): work {} vs {}",
                    fig.id(),
                    m.stats.subquery_memo_hits,
                    m.stats.total_work(),
                    naive_m.stats.total_work()
                )));
            }
        }
        for (lane, _, m) in &runs {
            let s = &m.stats;
            if s.subquery_invocations != s.subquery_distinct_invocations + s.subquery_memo_hits {
                return Err(Error::internal(format!(
                    "{lane} lane broke the memo counter invariant on {}: \
                     {} invocations != {} distinct + {} hits",
                    fig.id(),
                    s.subquery_invocations,
                    s.subquery_distinct_invocations,
                    s.subquery_memo_hits
                )));
            }
        }

        w.begin_object()
            .field_str("figure", fig.id())
            .field_str("title", fig.title());
        w.key("lanes").begin_array();
        for (lane, _, m) in &runs {
            let s = &m.stats;
            let hit_pct = if s.subquery_invocations > 0 {
                100.0 * s.subquery_memo_hits as f64 / s.subquery_invocations as f64
            } else {
                0.0
            };
            writeln!(
                table,
                "{:<6} {:<8} {:>10.3} {:>14} {:>12} {:>10} {:>10} {:>7.1}% {:>6}",
                fig.id(),
                lane,
                m.elapsed.as_secs_f64() * 1e3,
                s.total_work(),
                s.subquery_invocations,
                s.subquery_distinct_invocations,
                s.subquery_memo_hits,
                hit_pct,
                m.rows
            )
            .unwrap();
            w.begin_object()
                .field_str("lane", lane)
                .field_float("time_ms", m.elapsed.as_secs_f64() * 1e3)
                .field_uint("total_work", s.total_work())
                .field_uint("subquery_invocations", s.subquery_invocations)
                .field_uint(
                    "subquery_distinct_invocations",
                    s.subquery_distinct_invocations,
                )
                .field_uint("subquery_memo_hits", s.subquery_memo_hits)
                .field_uint("rows_scanned", s.rows_scanned)
                .field_uint("index_rows", s.index_rows)
                .field_uint("rows", m.rows as u64)
                .end_object();
        }
        w.end_array();
        // What the cost-based race now picks for this figure: with
        // NDV-capped pricing, memoized NI should win wherever it is the
        // measured-best sound strategy.
        let outcome = race_figure(fig, &db)?;
        w.key("choice").begin_object();
        w.field_str("strategy", outcome.choice.strategy.name())
            .field_float("est_cost", outcome.choice.estimate.cost)
            .field_uint("chosen_work", outcome.chosen_work)
            .field_str("best_strategy", outcome.best_strategy.name())
            .field_uint("best_work", outcome.best_work)
            .field_float("work_ratio", outcome.work_ratio())
            .end_object();
        writeln!(
            table,
            "{:<6} race: chose {} (work {}) vs best {} (work {}), ratio {:.2}",
            fig.id(),
            outcome.choice.strategy.name(),
            outcome.chosen_work,
            outcome.best_strategy.name(),
            outcome.best_work,
            outcome.work_ratio()
        )
        .unwrap();
        w.end_object();
    }
    w.end_array().end_object();
    Ok((table, w.finish()))
}

/// Configuration of the `chaos` experiment: the figure queries under a
/// sweep of injected single-node crashes × replication factors.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub scale: f64,
    pub seed: u64,
    /// Cluster width for every sweep point.
    pub nodes: usize,
    /// Fault seeds; each derives one permanently crashed node plus
    /// transient/straggler noise, all replayable from the seed.
    pub fault_seeds: Vec<u64>,
    /// Replication factors to sweep (clamped to `1..=nodes`).
    pub replications: Vec<usize>,
    /// Wall-clock timeout for the coordinator execution, if any.
    pub timeout_ms: Option<u64>,
    /// Executor memory budget (rows), if any.
    pub mem_budget: Option<usize>,
    /// Concurrent gathered runs per sweep point (`1` = the PR 4 serial
    /// sweep). Each worker replays the *same* deterministic fault plan on
    /// its own `Chaos` instance against the shared cluster, so recovery is
    /// exercised under the concurrent load a query service generates —
    /// every worker's answer must independently satisfy the contract.
    pub concurrency: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            scale: 0.05,
            seed: 42,
            nodes: 4,
            fault_seeds: vec![1, 2, 3, 4],
            replications: vec![1, 2],
            timeout_ms: None,
            mem_budget: None,
            concurrency: 1,
        }
    }
}

/// Run the chaos sweep and return `(text table, JSON document)`.
///
/// For every [`BASELINE_FIGURES`] figure (Magic-rewritten plan) and every
/// replication factor, a fault-free gathered run establishes the baseline;
/// then each fault seed injects a permanent single-node crash. The sweep
/// *enforces* the recovery contract and errors on any violation:
///
/// * every partition keeps a live replica → the run must succeed and be
///   **byte-identical** to the fault-free baseline;
/// * the crash strands a partition (replication 1) → the run must fail
///   closed with [`Error::NodeFailed`] — any answer is a wrong answer.
pub fn chaos_sweep(cfg: &ChaosConfig) -> Result<(String, String)> {
    use std::fmt::Write as _;

    let mk_opts = || {
        let mut o = ExecOptions::default();
        if let Some(ms) = cfg.timeout_ms {
            o.timeout = Some(Budget::wall_ms(ms));
        }
        o.mem_budget = cfg.mem_budget;
        o
    };

    let mut table = String::new();
    writeln!(
        table,
        "Chaos sweep - figure queries under injected single-node crashes \
         (scale {}, {} nodes)",
        cfg.scale, cfg.nodes
    )
    .unwrap();
    writeln!(
        table,
        "{:<6} {:>4} {:>6} {:>7} {:<13} {:>9} {:>6} {:>7} {:>9} {:>9} {:>7}",
        "figure",
        "repl",
        "seed",
        "crashed",
        "outcome",
        "identical",
        "rows",
        "retries",
        "failovers",
        "redriven",
        "delay"
    )
    .unwrap();

    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "chaos-sweep")
        .field_float("scale", cfg.scale)
        .field_uint("seed", cfg.seed)
        .field_uint("nodes", cfg.nodes as u64);
    if let Some(ms) = cfg.timeout_ms {
        w.field_uint("timeout_ms", ms);
    }
    if let Some(mb) = cfg.mem_budget {
        w.field_uint("mem_budget", mb as u64);
    }
    w.key("runs").begin_array();

    let mut violations: Vec<String> = Vec::new();
    for fig in BASELINE_FIGURES {
        let db = fig.database(cfg.scale, cfg.seed)?;
        let qgm = parse_and_bind(fig.sql(), &db)?;
        // Magic applies to all three figures and is the cheapest plan to
        // re-run across the sweep; recovery is about *where* fragments
        // run, not which rewrite produced them.
        let plan = apply_strategy(&qgm, Strategy::Magic)?;
        for &repl in &cfg.replications {
            let cluster = Cluster::partition_by_key_replicated(&db, cfg.nodes, repl)?;
            let (baseline, _) = run_gathered(&cluster, &plan, mk_opts(), None)?;
            for &fseed in &cfg.fault_seeds {
                let fault = FaultPlan::single_crash(fseed, cfg.nodes);
                let crashed = fault.crashed_node().unwrap_or(0);
                let recoverable = cluster.survives_crash_of(crashed);
                let label = format!(
                    "{} seed {fseed} replication {} (crashed node {crashed})",
                    fig.id(),
                    cluster.replication()
                );

                // One gathered run under its own deterministic Chaos
                // instance (same fault plan each time). Returns the table
                // fields plus the run's contract violations, so it can run
                // serially or on `cfg.concurrency` worker threads.
                let one_run = |run_label: &str| {
                    let chaos = Chaos::new(FaultPlan::single_crash(fseed, cfg.nodes));
                    let mut local: Vec<String> = Vec::new();
                    let (outcome, identical, rows, stats) =
                        match run_gathered(&cluster, &plan, mk_opts(), Some(&chaos)) {
                            Ok((rows, stats)) => {
                                let identical = rows == baseline;
                                if !recoverable {
                                    local.push(format!(
                                        "{run_label}: produced an answer with a stranded partition"
                                    ));
                                } else if !identical {
                                    local.push(format!(
                                        "{run_label}: recovered answer diverges from fault-free run"
                                    ));
                                }
                                ("recovered", identical, rows.len(), Some(stats))
                            }
                            Err(Error::NodeFailed(_)) if !recoverable => {
                                ("failed-closed", false, 0, None)
                            }
                            Err(e) => {
                                local.push(format!("{run_label}: unexpected error: {e}"));
                                ("error", false, 0, None)
                            }
                        };
                    let counters = stats
                        .as_ref()
                        .map(|s| {
                            (
                                s.retries,
                                s.failovers,
                                s.redriven_rows,
                                s.injected_delay_ticks,
                            )
                        })
                        .unwrap_or((
                            chaos.retries(),
                            chaos.failovers(),
                            0,
                            chaos.injected_delay_ticks(),
                        ));
                    (outcome, identical, rows, counters, local)
                };

                let (outcome, identical, rows, (retries, failovers, redriven, delay)) =
                    if cfg.concurrency <= 1 {
                        let (o, i, r, c, local) = one_run(&label);
                        violations.extend(local);
                        (o, i, r, c)
                    } else {
                        // Concurrent load: every worker replays the same
                        // fault and must independently satisfy the
                        // contract; the table reports worker 0.
                        let results = std::thread::scope(|s| {
                            let handles: Vec<_> = (0..cfg.concurrency)
                                .map(|t| {
                                    let run_label = format!("{label} [worker {t}]");
                                    let one_run = &one_run;
                                    s.spawn(move || one_run(&run_label))
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("chaos worker thread"))
                                .collect::<Vec<_>>()
                        });
                        let mut first = None;
                        for (o, i, r, c, local) in results {
                            violations.extend(local);
                            if first.is_none() {
                                first = Some((o, i, r, c));
                            }
                        }
                        first.expect("concurrency >= 1 yields at least one run")
                    };
                writeln!(
                    table,
                    "{:<6} {:>4} {:>6} {:>7} {:<13} {:>9} {:>6} {:>7} {:>9} {:>9} {:>7}",
                    fig.id(),
                    cluster.replication(),
                    fseed,
                    crashed,
                    outcome,
                    identical,
                    rows,
                    retries,
                    failovers,
                    redriven,
                    delay
                )
                .unwrap();

                w.begin_object()
                    .field_str("figure", fig.id())
                    .field_uint("replication", cluster.replication() as u64)
                    .field_uint("fault_seed", fseed)
                    .field_uint("crashed_node", crashed as u64)
                    .field_str("outcome", outcome);
                w.key("identical").bool(identical);
                w.field_uint("rows", rows as u64)
                    .field_uint("retries", retries)
                    .field_uint("failovers", failovers)
                    .field_uint("redriven_rows", redriven)
                    .field_uint("injected_delay_ticks", delay)
                    .end_object();
            }
        }
    }
    w.end_array();
    w.key("violations").begin_array();
    for v in &violations {
        w.string(v);
    }
    w.end_array().end_object();

    if !violations.is_empty() {
        return Err(Error::internal(format!(
            "chaos sweep violated the recovery contract:\n  {}",
            violations.join("\n  ")
        )));
    }
    Ok((table, w.finish()))
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
