//! From what a run measured to named metrics and the detail record.

use crate::audit::{geomean, Probes};
use crate::runner::Counters;
use crate::staged::{Staged, STATEMENT};
use crate::util::{mean, median, obj, peak_rss_mib, percentile, sorted, Json};

/// A named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = obj([("value", m.value.into()), ("unit", m.unit.into())]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

/// One per-class row of the record.
pub fn row_json(label: &str, samples: &[f64]) -> Json {
    let s = sorted(samples.to_vec());
    obj([
        ("class", label.into()),
        ("n", s.len().into()),
        ("p50_ms", percentile(&s, 0.5).into()),
        ("p90_ms", percentile(&s, 0.9).into()),
        ("mean_ms", mean(&s).into()),
    ])
}

pub fn counters_json(c: &Counters) -> Json {
    obj([
        ("statements", c.statements.into()),
        ("exec.work_units", c.exec.total_work().into()),
        ("exec.rows_scanned", c.exec.rows_scanned.into()),
        (
            "exec.subquery_invocations",
            c.exec.subquery_invocations.into(),
        ),
        (
            "exec.subquery_distinct_invocations",
            c.exec.subquery_distinct_invocations.into(),
        ),
        ("exec.subquery_memo_hits", c.exec.subquery_memo_hits.into()),
        ("exec.spills", c.exec.spills.into()),
        ("storage.pool_hits", c.pool_hits.into()),
        ("storage.pool_misses", c.pool_misses.into()),
        ("storage.evictions", c.evictions.into()),
    ])
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The end-to-end metrics of an untraced window.
///
/// A pass is one fixed statement list, so every pass is one sample of the
/// workload's speed. Other tenants of the box only ever slow a pass down,
/// in bursts, so the quietest quarter of the passes — those with the least
/// wall time — estimates the undisturbed system. All three metrics are
/// taken over that quarter, pooled. `passes` holds `(wall ms, statement
/// latencies in ms)` per pass and is sorted in place.
pub fn end_to_end(clients: usize, passes: &mut [(f64, Vec<f64>)], setup_s: &[f64]) -> Vec<Metric> {
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = &passes[..passes.len().div_ceil(4)];
    let quiet_ms: f64 = quiet.iter().map(|p| p.0).sum();
    let latencies = sorted(quiet.iter().flat_map(|p| p.1.iter().copied()).collect());
    let per_client = latencies.len() as f64 / quiet_ms * 1e3;
    vec![
        metric("ops_per_s", clients as f64 * per_client, "1/s"),
        metric("p50_ms", percentile(&latencies, 0.5), "ms"),
        metric("p90_ms", percentile(&latencies, 0.9), "ms"),
        metric("setup_s", median(setup_s), "s"),
    ]
}

/// What only a traced window has.
pub struct TracedWindow {
    /// The replayed pipeline, with its spans.
    pub staged: Staged,
    /// In-process `handle_line` latency of each statement, ms.
    pub whole_ms: Vec<f64>,
    /// Wire latency minus in-process latency of the same statement, µs.
    pub wire_us: Vec<f64>,
    /// The replayed pipeline's latency of each statement, ms.
    pub staged_ms: Vec<f64>,
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn layers(
    t: &TracedWindow,
    p: &Probes,
    counters: &Counters,
    bytes_out: u64,
    statements: u64,
) -> Vec<Metric> {
    let agg = t.staged.tracer.aggregate();
    let of = |name: &str| agg.get(name).copied().unwrap_or_default();
    let us = |name: &str| of(name).mean_us();
    let stage_ns = t.staged.tracer.stage_ns(STATEMENT, "") as f64;
    // Replayed rewrites and estimates hang off the race span, not the
    // statement, so the race stands for them here.
    let planning_ns: u64 = ["sql.", "core.", "stats.", "choose.", "plan_cache."]
        .iter()
        .map(|layer| t.staged.tracer.stage_ns(STATEMENT, layer))
        .sum();
    let lookups = (t.staged.plan_hits + t.staged.plan_misses) as f64;
    let miss_us = (of("plan_cache.miss").total_ns + of("plan_cache.fill").total_ns) as f64 / 1e3;
    let boxes = |span: &str| match t.staged.boxes_out.get(span) {
        Some(&(sum, n)) => share(sum as f64, n as f64),
        None => 0.0,
    };
    let whole_ns = t.whole_ms.iter().sum::<f64>() * 1e6;
    let whole_p50 = percentile(&sorted(t.whole_ms.clone()), 0.5);
    let staged_p50 = percentile(&sorted(t.staged_ms.clone()), 0.5);

    let mut m = vec![
        metric("sql.lex_us", us("sql.lex"), "us"),
        metric("sql.parse_us", us("sql.parse"), "us"),
        metric("sql.bind_us", us("sql.bind"), "us"),
        metric("sql.parameterize_us", us("sql.parameterize"), "us"),
        metric("core.fingerprint_us", us("core.fingerprint"), "us"),
    ];
    for s in ["kim", "dayal", "ganski", "magic", "optmag"] {
        let span = format!("core.rewrite.{s}");
        m.push(metric(format!("core.rewrite_us.{s}"), us(&span), "us"));
        m.push(metric(format!("core.boxes_out.{s}"), boxes(&span), "count"));
    }
    for s in ["ni", "kim", "dayal", "ganski", "magic"] {
        let span = format!("stats.estimate.{s}");
        m.push(metric(format!("stats.estimate_us.{s}"), us(&span), "us"));
    }
    let analyze_ms = p.analyze_ms.iter().map(|(_, ms)| ms).sum();
    m.extend([
        metric("stats.analyze_ms", analyze_ms, "ms"),
        metric("stats.cost_qerror", p.class.worst_cost_qerror, "ratio"),
        metric("choose.race_us", us("choose.race"), "us"),
        metric(
            "choose.regret_work",
            geomean(p.class.regrets.iter().map(|r| r.2)),
            "ratio",
        ),
        metric(
            "choose.regret_ms",
            geomean(p.class.regrets.iter().map(|r| r.3)),
            "ratio",
        ),
        metric(
            "plan_cache.hit_share",
            share(t.staged.plan_hits as f64, lookups),
            "ratio",
        ),
        metric("plan_cache.hit_us", us("plan_cache.hit"), "us"),
        metric(
            "plan_cache.miss_us",
            share(miss_us, t.staged.plan_misses as f64),
            "us",
        ),
        metric("exec.execute_ms", us("exec.execute") / 1e3, "ms"),
    ]);
    for kind in ["Select", "Grouping", "Union", "OuterJoin", "BaseTable"] {
        m.push(metric(
            format!("exec.box_ms.{}", kind.to_ascii_lowercase()),
            p.class.box_ms.get(kind).copied().unwrap_or(0.0),
            "ms",
        ));
    }
    let pool_requests = (counters.pool_hits + counters.pool_misses) as f64;
    m.extend([
        metric(
            "exec.work_units",
            counters.exec.total_work() as f64,
            "count",
        ),
        metric(
            "exec.rows_scanned",
            counters.exec.rows_scanned as f64,
            "count",
        ),
        metric(
            "exec.subquery_distinct_invocations",
            counters.exec.subquery_distinct_invocations as f64,
            "count",
        ),
        metric(
            "exec.memo_hit_share",
            share(
                counters.exec.subquery_memo_hits as f64,
                counters.exec.subquery_invocations as f64,
            ),
            "ratio",
        ),
        metric("exec.spills", counters.exec.spills as f64, "count"),
        metric(
            "storage.pool_hit_share",
            share(counters.pool_hits as f64, pool_requests),
            "ratio",
        ),
        metric("storage.pool_misses", counters.pool_misses as f64, "count"),
        metric("storage.evictions", counters.evictions as f64, "count"),
        metric(
            "storage.read_rows_warm_ms",
            p.storage.read_rows_warm_ms,
            "ms",
        ),
        metric(
            "storage.read_rows_cold_ms",
            p.storage.read_rows_cold_ms,
            "ms",
        ),
        metric("storage.commit_ms", p.storage.commit_ms, "ms"),
        metric("storage.checkpoint_ms", p.storage.checkpoint_ms, "ms"),
        metric("storage.reopen_ms", p.storage.reopen_ms, "ms"),
        metric(
            "storage.bytes_per_user_byte",
            p.storage.bytes_per_user_byte,
            "ratio",
        ),
        metric("server.render_us", us("server.render"), "us"),
        metric("server.wire_us", median(&t.wire_us), "us"),
        metric("server.admitted", p.admission.admitted as f64, "count"),
        metric("server.shed", p.admission.sheds() as f64, "count"),
        metric(
            "server.bytes_out",
            share(bytes_out as f64, statements as f64),
            "B/stmt",
        ),
        metric("process.peak_rss_mb", peak_rss_mib(), "MiB"),
        metric(
            "trace.residual_share",
            share(whole_ns - stage_ns, whole_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            share(staged_p50 - whole_p50, whole_p50),
            "ratio",
        ),
        metric(
            "trace.planning_share",
            share(planning_ns as f64, stage_ns),
            "ratio",
        ),
    ]);
    m
}

/// The fields a traced run adds to its detail record.
pub fn traced_detail(t: &TracedWindow, p: &Probes) -> Vec<(&'static str, Json)> {
    let spans = t.staged.tracer.aggregate().into_iter().map(|(name, a)| {
        let totals = obj([
            ("calls", a.calls.into()),
            ("total_ms", a.total_ms().into()),
            ("self_ms", (a.self_ns as f64 / 1e6).into()),
        ]);
        (name.to_string(), totals)
    });
    let regret = p.class.regrets.iter().map(|(class, chosen, work, ms)| {
        obj([
            ("class", class.as_str().into()),
            ("chosen", chosen.as_str().into()),
            ("regret_work", (*work).into()),
            ("regret_ms", (*ms).into()),
        ])
    });
    let pool = p.pool.map_or(Json::Null, |pool| {
        obj([
            ("budget_bytes", pool.budget_bytes.into()),
            ("resident_bytes", pool.resident_bytes.into()),
            ("resident_pages", pool.resident_pages.into()),
        ])
    });
    vec![
        (
            "handle_line_p50_ms",
            percentile(&sorted(t.whole_ms.clone()), 0.5).into(),
        ),
        (
            "staged_p50_ms",
            percentile(&sorted(t.staged_ms.clone()), 0.5).into(),
        ),
        ("spans", Json::Obj(spans.collect())),
        (
            "analyze_ms",
            Json::Obj(
                p.analyze_ms
                    .iter()
                    .map(|(table, ms)| (table.clone(), (*ms).into()))
                    .collect(),
            ),
        ),
        ("regret", Json::Arr(regret.collect())),
        ("pool", pool),
    ]
}
