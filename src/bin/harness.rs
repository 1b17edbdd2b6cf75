//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation as text, with wall time beside the
//! machine-independent work counters.
//!
//! ```text
//! harness [table1|fig5|fig6|fig7|fig8|fig9|accuracy|countbug|ablation|parallel|all]
//!         [--scale S] [--seed N] [--nodes N1,N2,...] [--threads N]
//!         [--columnar|--no-columnar] [--trace] [--analyze] [--explain-cost]
//!         [--qerr-threshold Q]
//! ```
//!
//! `--threads N` runs the figure executors on a worker pool of N threads
//! (default 1 = serial) and `--no-columnar` selects the row-wise
//! evaluators; neither may change a row or a counter, so both exist for
//! A/B timing and differential debugging. `--trace` adds, per figure, each
//! strategy's rewrite step log and a single-line JSON document with the
//! EXPLAIN plans, rewrite traces and per-box execution traces. `--analyze`
//! prints the `ANALYZE` statistics of each figure's database.
//! `--explain-cost` prints, per figure, the ranked strategy race and the
//! chosen plan's per-box estimated-vs-actual rows with q-error. The
//! `accuracy` experiment summarizes the race over every figure; with
//! `--qerr-threshold Q` it exits non-zero if any chosen plan's total-cost
//! q-error exceeds Q. `--nodes` sets the cluster widths of `parallel`.
//!
//! Results are checked, not timed, by the test suites; latencies are
//! measured by `bash benchmark/run.sh`.

use std::time::Instant;

use decorr::figures::{
    analyze_figure, count_bug_table, figure_trace_json, format_table, parallel_table, race_figure,
    run_figure_cfg, run_figure_traced, Figure,
};
use decorr_common::Result;
use decorr_core::magic::{magic_decorrelate, MagicOptions, SuppScope};
use decorr_exec::{execute_with, ExecOptions};
use decorr_qgm::Qgm;
use decorr_sql::parse_and_bind;
use decorr_tpcd::{cardinalities, generate, queries, TpcdConfig};

struct Args {
    what: Vec<String>,
    scale: f64,
    seed: u64,
    nodes: Vec<usize>,
    threads: usize,
    columnar: bool,
    trace: bool,
    analyze: bool,
    explain_cost: bool,
    qerr_threshold: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        what: Vec::new(),
        scale: 0.1,
        seed: 42,
        nodes: vec![1, 2, 4, 8],
        threads: 1,
        columnar: true,
        trace: false,
        analyze: false,
        explain_cost: false,
        qerr_threshold: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = value(&mut it, &a),
            "--seed" => args.seed = value(&mut it, &a),
            "--nodes" => {
                let list: String = value(&mut it, &a);
                args.nodes = list.split(',').map(|n| parsed(n, &a)).collect()
            }
            "--threads" => args.threads = value(&mut it, &a),
            "--columnar" => args.columnar = true,
            "--no-columnar" => args.columnar = false,
            "--trace" => args.trace = true,
            "--analyze" => args.analyze = true,
            "--explain-cost" => args.explain_cost = true,
            "--qerr-threshold" => args.qerr_threshold = Some(value(&mut it, &a)),
            other => args.what.push(other.to_string()),
        }
    }
    if args.what.is_empty() {
        args.what.push("all".to_string());
    }
    args
}

/// The operand of `flag`, parsed; a missing or malformed one is a usage
/// error (exit 2), like an unknown experiment.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    parsed(&it.next().unwrap_or_default(), flag)
}

fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a valid value (got '{text}')");
        std::process::exit(2)
    })
}

const EXPERIMENTS: [&str; 11] = [
    "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "accuracy", "countbug", "ablation",
    "parallel", "all",
];

fn main() -> Result<()> {
    let args = parse_args();
    if args.scale <= 0.0 {
        eprintln!("--scale must be positive (got {})", args.scale);
        std::process::exit(2);
    }
    if args.threads == 0 {
        eprintln!("--threads must be at least 1 (got 0)");
        std::process::exit(2);
    }
    for w in &args.what {
        if !EXPERIMENTS.contains(&w.as_str()) {
            eprintln!("unknown experiment '{w}'; expected one of {EXPERIMENTS:?}");
            std::process::exit(2);
        }
    }
    let all = args.what.iter().any(|w| w == "all");
    let wants = |w: &str| all || args.what.iter().any(|x| x == w);

    if wants("table1") {
        table1(args.scale);
    }
    for fig in Figure::all() {
        if wants(fig.id()) {
            figure(fig, &args)?;
        }
    }
    if wants("accuracy") {
        accuracy(&args)?;
    }
    if wants("countbug") {
        println!("{}", count_bug_table()?);
    }
    if wants("ablation") {
        ablation(args.scale)?;
    }
    if wants("parallel") {
        println!("{}", parallel_table(&args.nodes, args.seed)?);
    }
    Ok(())
}

fn table1(scale: f64) {
    let full = cardinalities(1.0);
    let scaled = cardinalities(scale);
    println!("Table 1 - TPC-D database (paper cardinalities at scale 1.0)");
    println!(
        "{:<10} {:>10} {:>14}",
        "table",
        "paper",
        format!("scale {scale}")
    );
    for (name, paper, ours) in [
        ("customers", full.customers, scaled.customers),
        ("parts", full.parts, scaled.parts),
        ("suppliers", full.suppliers, scaled.suppliers),
        ("partsupp", full.partsupp, scaled.partsupp),
        ("lineitem", full.lineitem, scaled.lineitem),
    ] {
        println!("{name:<10} {paper:>10} {ours:>14}");
    }
    println!();
}

fn figure(fig: Figure, args: &Args) -> Result<()> {
    let db = fig.database(args.scale, args.seed)?;
    if args.analyze {
        println!("ANALYZE ({}, scale {}):", fig.id(), args.scale);
        print!("{}", analyze_figure(fig, args.scale, args.seed)?);
        println!();
    }
    let ms = run_figure_cfg(fig, &db, args.threads, args.columnar)?;
    println!("{}", format_table(fig, args.scale, &ms));
    if args.explain_cost {
        println!("{}", race_figure(fig, &db)?.render());
    }
    if args.trace {
        let runs = run_figure_traced(fig, &db)?;
        for (_, t) in &runs {
            if !t.rewrite.is_empty() {
                println!(
                    "rewrite steps [{}]:\n{}",
                    t.strategy.name(),
                    t.rewrite.render()
                );
            }
        }
        println!("{}", figure_trace_json(fig, &runs));
        println!();
    }
    Ok(())
}

/// The estimator-accuracy summary: race every figure, execute the chosen
/// plan, and report how the cost prediction held up. With
/// `--qerr-threshold Q`, exits non-zero when any chosen plan's total-cost
/// q-error exceeds Q.
fn accuracy(args: &Args) -> Result<()> {
    println!(
        "Estimator accuracy — cost-based race over every figure (scale {})",
        args.scale
    );
    println!(
        "{:<6} {:<8} {:>14} {:>14} {:>8} {:>10} {:>8} {:>10}",
        "figure", "chosen", "est cost", "actual work", "cost-q", "max box-q", "best", "work ratio"
    );
    let mut worst: Option<(Figure, f64)> = None;
    for fig in Figure::all() {
        let db = fig.database(args.scale, args.seed)?;
        let o = race_figure(fig, &db)?;
        println!(
            "{:<6} {:<8} {:>14.0} {:>14} {:>8.2} {:>10.2} {:>8} {:>10.2}",
            fig.id(),
            o.choice.strategy.name(),
            o.choice.estimate.cost,
            o.chosen_work,
            o.cost_q_error(),
            o.report.max_q(),
            o.best_strategy.name(),
            o.work_ratio()
        );
        if args.explain_cost {
            println!("{}", o.render());
        }
        if worst.is_none() || o.cost_q_error() > worst.unwrap().1 {
            worst = Some((fig, o.cost_q_error()));
        }
    }
    println!();
    if let (Some(q), Some((fig, got))) = (args.qerr_threshold, worst) {
        if got > q {
            eprintln!(
                "estimator accuracy regression: {} total-cost q-error {got:.2} exceeds \
                 threshold {q:.2}",
                fig.id()
            );
            std::process::exit(1);
        }
        println!(
            "worst total-cost q-error {got:.2} within threshold {q:.2} ({})",
            fig.id()
        );
    }
    Ok(())
}

/// Ablation over the Section 4.4 knobs: supplementary scope, CSE
/// handling, and quantified-subquery decorrelation.
fn ablation(scale: f64) -> Result<()> {
    let db = generate(&TpcdConfig { scale, seed: 42, with_indexes: true })?;
    println!("Ablation - magic decorrelation knobs (scale {scale})");
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "variant", "time(ms)", "total work", "scanned"
    );

    let run = |label: &str, plan: &Qgm, opts: ExecOptions| -> Result<()> {
        let started = Instant::now();
        let (_, stats) = execute_with(&db, plan, opts)?;
        println!(
            "{:<28} {:>10.3} {:>14} {:>12}",
            label,
            started.elapsed().as_secs_f64() * 1e3,
            stats.total_work(),
            stats.rows_scanned
        );
        Ok(())
    };
    let magic = |sql: &str, opts: &MagicOptions| -> Result<Qgm> {
        let mut plan = parse_and_bind(sql, &db)?;
        magic_decorrelate(&mut plan, opts)?;
        Ok(plan)
    };
    let memo = ExecOptions { memoize_cse: true, ..Default::default() };

    // Supplementary scope on Query 1.
    for (label, supp_scope) in [
        ("q1 supp=all-foreach", SuppScope::AllForeach),
        ("q1 supp=minimal-binding", SuppScope::MinimalBinding),
    ] {
        let plan = magic(
            queries::Q1A,
            &MagicOptions { supp_scope, ..Default::default() },
        )?;
        run(label, &plan, ExecOptions::default())?;
    }
    // CSE recompute vs materialize on Query 1.
    let plan = magic(queries::Q1A, &MagicOptions::default())?;
    run("q1 cse=recompute", &plan, ExecOptions::default())?;
    run("q1 cse=materialize", &plan, memo.clone())?;
    // EXISTS decorrelation.
    let sql = "SELECT s.s_name FROM suppliers s WHERE s.s_region = 'EUROPE' \
               AND EXISTS (SELECT c.c_custkey FROM customers c \
                           WHERE c.c_nation = s.s_nation)";
    run(
        "exists ni",
        &parse_and_bind(sql, &db)?,
        ExecOptions::default(),
    )?;
    let plan = magic(
        sql,
        &MagicOptions { decorrelate_quantified: true, ..Default::default() },
    )?;
    run("exists decorrelated+memo", &plan, memo)?;
    println!();
    Ok(())
}
