//! The session pipeline, replayed stage by stage through public functions
//! with a span around each call.
//!
//! [`Staged::run`] does what `Session::handle_line` does for a SQL
//! statement — snapshot, parse, parameterize, bind, fingerprint, plan
//! cache, race or pinned rewrite, admission, execute, render — against the
//! same catalog, but with caches of its own (plan, columnar, subplan), so
//! its hits and misses fall where the session's do. It also returns what
//! `handle_line` hides: the statement's `ExecStats`.
//!
//! With `replay` on, every race is followed by one timed call of each
//! rewrite and each estimate the race made internally (spans parented to
//! the race span, outside the statement span), which is how
//! `core.rewrite_us.*` and `stats.estimate_us.*` are attributed without
//! spans inside `choose_strategy_with`.

use std::collections::BTreeMap;
use std::sync::Arc;

use decorr::choose::{choose_strategy_with, PlanChoice, StrategyEstimate};
use decorr::plan_cache::{plan_bytes, CachedPlan, PlanCache};
use decorr_common::{CancelToken, ExecStats, FxHashMap, Result, Value};
use decorr_core::{apply_strategy, canonical_form, fingerprint, shared_subplan_marks, Strategy};
use decorr_exec::{
    execute_with, ColumnarCache, ExecOptions, SharedSubplans, SubplanCache, SubplanShape,
};
use decorr_qgm::Qgm;
use decorr_server::{AdmissionControl, CatalogVersion, Mode, SessionSettings, SharedCatalog};
use decorr_sql::{bind, lexer::tokenize, parameterize, parse};

use crate::trace::Tracer;

/// The root span of one replayed statement.
pub const STATEMENT: &str = "statement";

/// The strategies whose rewrite and estimate are replayed after a race:
/// the four the race runs, then OptMag, which only a pin reaches.
const REPLAYED: [Strategy; 5] = [
    Strategy::Kim,
    Strategy::Dayal,
    Strategy::GanskiWong,
    Strategy::Magic,
    Strategy::OptMag,
];

pub fn rewrite_span(s: Strategy) -> &'static str {
    match s {
        Strategy::NestedIteration => "core.rewrite.ni",
        Strategy::Kim => "core.rewrite.kim",
        Strategy::Dayal => "core.rewrite.dayal",
        Strategy::GanskiWong => "core.rewrite.ganski",
        Strategy::Magic => "core.rewrite.magic",
        Strategy::OptMag => "core.rewrite.optmag",
    }
}

pub fn estimate_span(s: Strategy) -> &'static str {
    match s {
        Strategy::NestedIteration => "stats.estimate.ni",
        Strategy::Kim => "stats.estimate.kim",
        Strategy::Dayal => "stats.estimate.dayal",
        Strategy::GanskiWong => "stats.estimate.ganski",
        Strategy::Magic => "stats.estimate.magic",
        Strategy::OptMag => "stats.estimate.optmag",
    }
}

/// The session mode a `\\strategy <name>` pin selects.
pub fn mode_named(name: &str) -> Result<Mode, String> {
    Ok(match name {
        "auto" => Mode::Auto,
        "ni" => Mode::Fixed(Strategy::NestedIteration),
        "kim" => Mode::Fixed(Strategy::Kim),
        "dayal" => Mode::Fixed(Strategy::Dayal),
        "ganski" => Mode::Fixed(Strategy::GanskiWong),
        "magic" => Mode::Fixed(Strategy::Magic),
        "optmag" => Mode::Fixed(Strategy::OptMag),
        _ => return Err(format!("benchmark names unknown strategy {name:?}")),
    })
}

pub fn box_count(qgm: &Qgm) -> usize {
    qgm.reachable_boxes(qgm.top()).len()
}

/// What one replayed statement produced.
pub struct Outcome {
    /// Rendered rows plus the footer, as a client would receive them.
    pub lines: Vec<String>,
    pub stats: ExecStats,
}

pub struct Staged {
    catalog: Arc<SharedCatalog>,
    admission: Arc<AdmissionControl>,
    settings: SessionSettings,
    mode: Mode,
    plans: PlanCache,
    columnar: ColumnarCache,
    subplans: SubplanCache,
    /// Time the race's internal rewrites and estimates again after it.
    pub replay: bool,
    pub tracer: Tracer,
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// `(sum, n)` of boxes reachable from the top after each rewrite.
    pub boxes_out: BTreeMap<&'static str, (u64, u64)>,
    /// A raced statement's input graph and race span, until it is replayed.
    pending_replay: Option<(Qgm, usize)>,
    next_stmt: u32,
}

impl Staged {
    pub fn new(
        catalog: Arc<SharedCatalog>,
        admission: Arc<AdmissionControl>,
        settings: SessionSettings,
    ) -> Staged {
        Staged {
            catalog,
            admission,
            settings,
            mode: Mode::Auto,
            plans: PlanCache::default(),
            columnar: ColumnarCache::new(),
            subplans: SubplanCache::default(),
            replay: false,
            tracer: Tracer::default(),
            plan_hits: 0,
            plan_misses: 0,
            boxes_out: BTreeMap::new(),
            pending_replay: None,
            next_stmt: 0,
        }
    }

    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    fn mode_key(&self) -> String {
        match self.mode {
            Mode::Auto => "auto".to_string(),
            Mode::Fixed(s) => s.name().to_string(),
        }
    }

    fn note_boxes(&mut self, s: Strategy, plan: &Qgm) {
        let e = self.boxes_out.entry(rewrite_span(s)).or_default();
        e.0 += box_count(plan) as u64;
        e.1 += 1;
    }

    /// `Session::race_or_fixed`, with spans. A race leaves its input behind
    /// for [`Staged::replay_race`] when `replay` is on.
    fn race_or_fixed(
        &mut self,
        snap: &CatalogVersion,
        qgm: Qgm,
        root: usize,
        stmt: u32,
    ) -> Result<PlanChoice> {
        // Statistics are built by whoever first plans on a new epoch; on
        // any later statement this is one `Arc` clone.
        let model = self
            .tracer
            .span("stats.cost_model", Some(root), stmt, || snap.cost_model());
        match self.mode {
            Mode::Auto => {
                let replay_input = self.replay.then(|| qgm.clone());
                let race = self.tracer.begin("choose.race", Some(root), stmt);
                let choice = choose_strategy_with(&model, qgm);
                self.tracer.end(race);
                self.pending_replay = replay_input.map(|input| (input, race));
                choice
            }
            Mode::Fixed(s) => {
                let id = self.tracer.begin(rewrite_span(s), Some(root), stmt);
                let plan = apply_strategy(&qgm, s);
                self.tracer.end(id);
                let plan = plan?;
                self.note_boxes(s, &plan);
                let id = self.tracer.begin(estimate_span(s), Some(root), stmt);
                let plan_estimate = model.estimate_plan(&plan);
                self.tracer.end(id);
                let plan_estimate = plan_estimate?;
                let estimate = plan_estimate.total();
                Ok(PlanChoice {
                    strategy: s,
                    plan,
                    estimate,
                    plan_estimate,
                    ranked: vec![StrategyEstimate {
                        strategy: s,
                        estimate: Some(estimate),
                        unsound: s == Strategy::Kim,
                        note: Some("pinned by \\strategy".into()),
                    }],
                })
            }
        }
    }

    /// Time once more, on their own, the calls the race at span `race`
    /// made internally.
    fn replay_race(
        &mut self,
        snap: &CatalogVersion,
        input: &Qgm,
        race: usize,
        stmt: u32,
    ) -> Result<()> {
        let model = snap.cost_model();
        self.tracer.span(
            estimate_span(Strategy::NestedIteration),
            Some(race),
            stmt,
            || model.estimate_plan(input).map(|_| ()),
        )?;
        for s in REPLAYED {
            // OptMag is not in the race: its replay has no parent, so it
            // is not taken off the race's self time.
            let parent = (s != Strategy::OptMag).then_some(race);
            let id = self.tracer.begin(rewrite_span(s), parent, stmt);
            let plan = apply_strategy(input, s);
            self.tracer.end(id);
            if let Ok(plan) = plan {
                self.note_boxes(s, &plan);
                self.tracer.span(estimate_span(s), parent, stmt, || {
                    model.estimate_plan(&plan).map(|_| ())
                })?;
            }
        }
        Ok(())
    }

    /// `Session::plan_parameterized`, with spans.
    fn plan_parameterized(
        &mut self,
        snap: &CatalogVersion,
        pqgm: Qgm,
        bindings: Vec<Value>,
        root: usize,
        stmt: u32,
    ) -> Result<(PlanChoice, bool)> {
        let mode_key = self.mode_key();
        let fp = self
            .tracer
            .span("core.fingerprint", Some(root), stmt, || fingerprint(&pqgm));

        let lookup = self.tracer.begin("plan_cache.hit", Some(root), stmt);
        let hit = match self.plans.get(&fp, snap.epoch(), &mode_key) {
            Some(hit) if hit.param_count == bindings.len() => {
                let mut choice = hit.choice.clone();
                choice.plan.bind_params(&bindings)?;
                Some(choice)
            }
            _ => None,
        };
        self.tracer.end(lookup);
        if let Some(choice) = hit {
            self.plan_hits += 1;
            return Ok((choice, true));
        }
        // The failed lookup belongs to the miss path.
        self.tracer.spans[lookup].name = "plan_cache.miss";
        self.plan_misses += 1;

        let id = self.tracer.begin("plan_cache.miss", Some(root), stmt);
        let mut concrete = pqgm.clone();
        let bound = concrete.bind_params(&bindings);
        self.tracer.end(id);
        bound?;
        let choice = self.race_or_fixed(snap, concrete, root, stmt)?;

        let id = self.tracer.begin("plan_cache.fill", Some(root), stmt);
        let template = match (self.mode, choice.strategy) {
            (Mode::Auto, Strategy::NestedIteration) => Ok(pqgm.clone()),
            (_, s) => apply_strategy(&pqgm, s),
        };
        if let Ok(template) = template {
            let mut check = template.clone();
            let faithful = check.bind_params(&bindings).is_ok()
                && canonical_form(&check, check.top())
                    == canonical_form(&choice.plan, choice.plan.top());
            if faithful {
                let bytes = plan_bytes(&template) + fp.len() + 64;
                let cached = CachedPlan {
                    choice: PlanChoice {
                        strategy: choice.strategy,
                        plan: template,
                        estimate: choice.estimate,
                        plan_estimate: choice.plan_estimate.clone(),
                        ranked: choice.ranked.clone(),
                    },
                    param_count: bindings.len(),
                    bytes,
                };
                self.plans
                    .insert(&fp, snap.epoch(), &mode_key, Arc::new(cached));
            }
        }
        self.tracer.end(id);
        Ok((choice, false))
    }

    /// One SQL statement through the whole replayed pipeline.
    pub fn run(&mut self, sql: &str) -> Result<Outcome> {
        let stmt = self.next_stmt;
        self.next_stmt += 1;
        let root = self.tracer.begin(STATEMENT, None, stmt);
        self.pending_replay = None;
        let out = self.run_inner(sql, root, stmt);
        // A statement that succeeds ends where rendering ended, before the
        // replayed calls; one that fails ends here.
        if out.is_err() {
            self.tracer.end(root);
        }
        out
    }

    fn run_inner(&mut self, sql: &str, root: usize, stmt: u32) -> Result<Outcome> {
        let snap = self.catalog.snapshot();
        let parse_span = self.tracer.begin("sql.parse", Some(root), stmt);
        let ast = parse(sql);
        self.tracer.end(parse_span);
        let ast = ast?;

        let mut planned = None;
        if self.settings.plan_cache {
            let (pquery, bindings) = self
                .tracer
                .span("sql.parameterize", Some(root), stmt, || parameterize(&ast));
            let bound = self.tracer.span("sql.bind", Some(root), stmt, || {
                bind(&pquery, snap.db()).and_then(|g| decorr_qgm::validate::validate(&g).map(|_| g))
            });
            if let Ok(pqgm) = bound {
                planned = Some(self.plan_parameterized(&snap, pqgm, bindings, root, stmt)?);
            }
        }
        let (choice, cache_hit) = match planned {
            Some(p) => p,
            None => {
                let qgm = self.tracer.span("sql.bind", Some(root), stmt, || {
                    bind(&ast, snap.db())
                        .and_then(|g| decorr_qgm::validate::validate(&g).map(|_| g))
                })?;
                (self.race_or_fixed(&snap, qgm, root, stmt)?, false)
            }
        };

        let id = self.tracer.begin("server.admit", Some(root), stmt);
        let permit = self.admission.admit(0);
        self.tracer.end(id);
        let permit = permit?;

        let id = self.tracer.begin("core.subplan_marks", Some(root), stmt);
        let mut opts = ExecOptions {
            threads: self.settings.threads,
            columnar: self.settings.columnar,
            ni_memo: self.settings.ni_memo,
            ni_batch: self.settings.ni_batch,
            cancel: Some(CancelToken::new()),
            mem_budget: Some(permit.mem_rows()),
            shared_cache: Some(self.columnar.clone()),
            spill: self.catalog.spill(),
            ..Default::default()
        };
        if self.settings.shared_subplans {
            let marks: FxHashMap<_, _> = shared_subplan_marks(&choice.plan)
                .into_iter()
                .map(|m| (m.box_id, SubplanShape { shape: m.shape, tables: m.tables }))
                .collect();
            if !marks.is_empty() {
                opts.shared_subplans = Some(SharedSubplans { cache: self.subplans.clone(), marks });
            }
        }
        self.tracer.end(id);

        let id = self.tracer.begin("exec.execute", Some(root), stmt);
        let result = execute_with(snap.db(), &choice.plan, opts);
        self.tracer.end(id);
        let (rows, stats) = result?;
        drop(permit);

        let id = self.tracer.begin("server.render", Some(root), stmt);
        let mut lines: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        lines.push(format!(
            "-- {} rows via {} (epoch {}, {} subquery invocations ({} distinct, {} memo hits), \
             {} work units, plan cache {})",
            rows.len(),
            choice.strategy.name(),
            snap.epoch(),
            stats.subquery_invocations,
            stats.subquery_distinct_invocations,
            stats.subquery_memo_hits,
            stats.total_work(),
            if cache_hit { "hit" } else { "miss" }
        ));
        self.tracer.end(id);
        self.tracer.end(root);

        if self.replay {
            // The lexer runs inside `parse`; time it again on its own and
            // take it off the parse span's self time.
            self.tracer.span("sql.lex", Some(parse_span), stmt, || {
                tokenize(sql).map(|t| t.len())
            })?;
            if let Some((input, race)) = self.pending_replay.take() {
                self.replay_race(&snap, &input, race, stmt)?;
            }
        }
        Ok(Outcome { lines, stats })
    }
}
