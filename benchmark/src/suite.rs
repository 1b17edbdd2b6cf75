//! `run` and `calibrate`: loops over child processes, one per workload and
//! tracing mode, so no memory or cache leaks from one workload into the
//! next.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::runner::{home, out_dir};
use crate::util::{obj, Json, Spread};
use crate::workload::{Spec, NAMES};

pub const SCHEMA: &str = "decorr-benchmark/1";

/// Counters that must be bit-identical between the traced and the
/// untraced run of a single-client workload.
const GATED: [&str; 5] = [
    "exec.work_units",
    "exec.rows_scanned",
    "exec.subquery_distinct_invocations",
    "storage.pool_misses",
    "storage.evictions",
];

pub struct SuiteOpts {
    pub seed: u64,
    /// Measured seconds per run; `None` takes `run_seconds` of
    /// `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub smoke: bool,
}

/// The committed contract next to the benchmark's directory.
pub fn contract() -> Result<Json, String> {
    let path = home().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn seconds(opts: &SuiteOpts, contract: &Json) -> f64 {
    match opts.seconds {
        Some(s) => s,
        None if opts.smoke => 0.0,
        None => contract
            .get("run_seconds")
            .and_then(Json::num)
            .unwrap_or(10.0),
    }
}

/// What a child printed last, and the record it wrote.
struct Child {
    result: Json,
    detail: Json,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail_path: PathBuf = out_dir().join(format!(
        "detail-{workload}-{}.json",
        if trace { "traced" } else { "untraced" }
    ));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--detail")
        .arg(&detail_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = read_json(&detail_path)?;
    Ok(Child { result, detail })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::num)
        .unwrap_or(f64::NAN)
}

/// One `name value unit` line per metric of a `{name: {value, unit}}` map.
fn print_metrics(metrics: &Json) {
    for (name, m) in metrics.fields() {
        println!(
            "  {name:<36} {:>14.4} {}",
            metric_value(metrics, name),
            m.get("unit").and_then(Json::str).unwrap_or("")
        );
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(home())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One design expectation of the workload set, checked on every full run.
struct Expectation {
    workload: &'static str,
    what: &'static str,
    holds: fn(&Json, &Json) -> bool,
}

/// The layer shares the six workloads were sized to show (`layers` of the
/// named workload, then of `serve.repeat` for comparisons).
const EXPECTATIONS: [Expectation; 7] = [
    Expectation {
        workload: "plan.cold",
        what: "planning (sql + core + stats + choose) is at least half of a statement",
        holds: |l, _| metric_value(l, "trace.planning_share") >= 0.5,
    },
    Expectation {
        workload: "plan.cold",
        what: "stage spans account for handle_line within 15 %",
        holds: |l, _| metric_value(l, "trace.residual_share").abs() <= 0.15,
    },
    Expectation {
        workload: "exec.resident",
        what: "planning is at most 5 % of a statement",
        holds: |l, _| metric_value(l, "trace.planning_share") <= 0.05,
    },
    Expectation {
        workload: "exec.resident",
        what: "stage spans account for handle_line within 15 %",
        holds: |l, _| metric_value(l, "trace.residual_share").abs() <= 0.15,
    },
    Expectation {
        workload: "paged.fits",
        what: "at least 99 % of page requests hit the pool",
        holds: |l, _| metric_value(l, "storage.pool_hit_share") >= 0.99,
    },
    Expectation {
        workload: "paged.thrash",
        what: "the pool evicts",
        holds: |l, _| metric_value(l, "storage.evictions") > 0.0,
    },
    Expectation {
        workload: "serve.churn",
        what: "plan cache hits at least 90 % on serve.repeat and visibly less under churn",
        holds: |l, repeat| {
            let r = metric_value(repeat, "plan_cache.hit_share");
            r >= 0.9 && metric_value(l, "plan_cache.hit_share") < r - 0.05
        },
    },
];

pub fn run(opts: &SuiteOpts) -> Result<bool, String> {
    let contract = contract()?;
    let secs = seconds(opts, &contract);
    let mut ok = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let spec = Spec::named(name, opts.smoke).ok_or("workload list out of step")?;
        eprintln!("== {name}: untraced run");
        let u = child(name, opts.seed, secs, false, opts.smoke)?;
        eprintln!("== {name}: traced run");
        let t = child(name, opts.seed, secs, true, opts.smoke)?;
        let (um, tm) = (
            u.detail.get("metrics").cloned().unwrap_or(Json::Null),
            t.detail.get("metrics").cloned().unwrap_or(Json::Null),
        );

        println!("\n{name} — {}", spec.why);
        print_metrics(&um);
        let both = |key: &str| -> f64 {
            [&u, &t]
                .iter()
                .filter_map(|c| c.result.get(key).and_then(Json::num))
                .sum()
        };
        let (attempted, failed) = (both("attempted"), both("failed"));
        let failed_share = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        println!(
            "  {:<36} {failed_share:>14.4} ratio ({failed} of {attempted})",
            "failed_share"
        );
        if failed > 0.0 {
            ok = false;
        }
        print_metrics(&tm);
        if let Some(rows) = u.detail.get("rows") {
            println!(
                "  {:<24} {:>7} {:>10} {:>10}",
                "class", "n", "p50_ms", "p90_ms"
            );
            for r in rows.arr() {
                println!(
                    "  {:<24} {:>7} {:>10.4} {:>10.4}",
                    r.get("class").and_then(Json::str).unwrap_or(""),
                    r.get("n").and_then(Json::num).unwrap_or(0.0),
                    r.get("p50_ms").and_then(Json::num).unwrap_or(0.0),
                    r.get("p90_ms").and_then(Json::num).unwrap_or(0.0)
                );
            }
        }

        // What running the traced lanes beside it does to the caller's own
        // latency: its whole-window median in the traced run against the
        // untraced run's.
        let window_p50 = |c: &Child| {
            c.detail
                .get("window_p50_ms")
                .and_then(Json::num)
                .unwrap_or(f64::NAN)
        };
        let overhead = (window_p50(&t) - window_p50(&u)) / window_p50(&u);
        println!(
            "  {:<36} {overhead:>14.4} ratio",
            "trace_overhead_share (vs untraced)"
        );

        // Determinism gate.
        let (uc, tc) = (
            u.detail.get("counters").cloned().unwrap_or(Json::Null),
            t.detail.get("counters").cloned().unwrap_or(Json::Null),
        );
        let single_client = spec.clients() == 1 && !spec.churn;
        let mut counters = Vec::new();
        for c in GATED {
            let (a, b) = (
                uc.get(c).and_then(Json::num).unwrap_or(f64::NAN),
                tc.get(c).and_then(Json::num).unwrap_or(f64::NAN),
            );
            if single_client {
                if a != b {
                    ok = false;
                    println!("  GATE FAILED {c}: untraced {a} != traced {b}");
                }
                counters.push((c, Json::from(a)));
            } else {
                counters.push((c, obj([("min", a.min(b).into()), ("max", a.max(b).into())])));
            }
        }
        if single_client {
            println!(
                "  determinism gate: {} counters identical in both runs",
                GATED.len()
            );
        }

        workloads.push((
            name,
            obj([
                ("why", spec.why.into()),
                ("scale", spec.scale.into()),
                ("clients", spec.clients().into()),
                (
                    "end_to_end",
                    Json::Obj(
                        um.fields()
                            .iter()
                            .cloned()
                            .chain([(
                                "failed_share".to_string(),
                                obj([("value", failed_share.into()), ("unit", "ratio".into())]),
                            )])
                            .collect(),
                    ),
                ),
                ("layers", tm.clone()),
                ("trace_overhead_share", overhead.into()),
                ("counters", obj(counters)),
                ("rows", u.detail.get("rows").cloned().unwrap_or(Json::Null)),
                (
                    "samples",
                    u.detail.get("samples").cloned().unwrap_or(Json::Null),
                ),
                (
                    "spans",
                    t.detail.get("spans").cloned().unwrap_or(Json::Null),
                ),
                (
                    "regret",
                    t.detail.get("regret").cloned().unwrap_or(Json::Null),
                ),
                (
                    "analyze_ms",
                    t.detail.get("analyze_ms").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }

    let layers = |w: &str| {
        workloads
            .iter()
            .find(|(n, _)| *n == w)
            .and_then(|(_, j)| j.get("layers"))
            .cloned()
            .unwrap_or(Json::Null)
    };
    if !opts.smoke {
        println!("\ndesign expectations");
        let repeat = layers("serve.repeat");
        for x in &EXPECTATIONS {
            let holds = (x.holds)(&layers(x.workload), &repeat);
            println!(
                "  [{}] {}: {}",
                if holds { "ok" } else { "FAILED" },
                x.workload,
                x.what
            );
            ok &= holds;
        }
    }

    let record = obj([
        ("schema", Json::from(SCHEMA)),
        ("commit", git_commit().into()),
        ("seed", opts.seed.into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("seconds", secs.into()),
        ("smoke", opts.smoke.into()),
        ("workloads", obj(workloads)),
    ]);
    let path = out_dir().join("record.json");
    std::fs::write(&path, record.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nrecord written to {}", path.display());
    Ok(ok)
}

/// Run every workload untraced `sets` times on different seeds, print
/// median, quartiles and spread of every end-to-end metric as a Markdown
/// table, and say whether each spread leaves the committed bound room.
pub fn calibrate(opts: &SuiteOpts, sets: usize) -> Result<bool, String> {
    let contract = contract()?;
    let secs = seconds(opts, &contract);
    let bounds: Vec<(String, f64)> = contract
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect();
    let mut ok = true;
    println!("| workload | metric | median | q1 | q3 | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    for name in NAMES {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        for set in 0..sets {
            let c = child(name, opts.seed + set as u64, secs, false, opts.smoke)?;
            if c.result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{name}: incorrect run at seed {}",
                    opts.seed + set as u64
                ));
            }
            let metrics = c.result.get("metrics").cloned().unwrap_or(Json::Null);
            for ((metric, _), vs) in bounds.iter().zip(&mut values) {
                vs.push(metric_value(&metrics, metric));
            }
        }
        for ((metric, bound), vs) in bounds.iter().zip(&values) {
            let s = Spread::of(vs);
            // setup_s is gated on its median alone, not on its spread.
            let fits = metric == "setup_s" || 2.0 * s.share() <= *bound;
            ok &= fits;
            println!(
                "| {name} | {metric} | {:.4} | {:.4} | {:.4} | {:.1} % | {:.0} % | {} |",
                s.median,
                s.q1,
                s.q3,
                s.share() * 100.0,
                bound * 100.0,
                if fits { "ok" } else { "TOO NOISY" }
            );
        }
    }
    Ok(ok)
}
