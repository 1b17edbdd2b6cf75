//! The reusable session layer: one tenant's stateful view of the service.
//!
//! A [`Session`] is what `examples/sql_shell.rs` grew into once it had to
//! outlive a single pipe: the command loop is the same (`\strategy`,
//! `\load`, `\explain`, plain SQL through the cost-based race), but state
//! that used to be `main`-local is now per-session and safe to drive from
//! the TCP server, the REPL and tests alike. [`Session::handle_line`]
//! takes one input line and returns the output lines plus a
//! continue/quit signal — no I/O, no printing, no process state.
//!
//! # Per-query cancellation (the sticky-cancel fix)
//!
//! [`CancelToken`] is one-shot: once fired it stays fired (see the
//! contract note in `decorr_common::govern`). The original shell never
//! cancelled, so it never hit this; a service that reuses one token — or
//! one `ExecOptions` holding one — turns a single `\cancel` into a
//! session-wide denial of service where every later query dies instantly
//! with `Cancelled`. The session therefore **mints a fresh token for every
//! query** and publishes it as the *active* token only for that query's
//! duration; [`SessionCanceller::cancel_active`] fires whatever token is
//! current, and a cancel that races with completion simply fires a token
//! nobody will ever check again.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use decorr::choose::{audit_estimates, choose_strategy_with, PlanChoice, StrategyEstimate};
use decorr::plan_cache::{plan_bytes, CachedPlan};
use decorr_common::{Budget, CancelToken, Error, FxHashMap, Result, Value};
use decorr_core::{
    apply_strategy, canonical_form, fingerprint as qgm_fingerprint, shared_subplan_marks, Strategy,
};
use decorr_exec::{execute_traced, execute_with, ExecOptions, SharedSubplans, SubplanShape};
use decorr_qgm::{print as qgm_print, Qgm};
use decorr_sql::lexer::{tokenize, TokenKind};
use decorr_sql::{bind, parameterize, parse};
use decorr_tpcd::{empdept, generate, TpcdConfig};

use crate::admission::AdmissionControl;
use crate::catalog::{CatalogVersion, SharedCatalog};

/// Plan selection mode: the cost-based race, or one pinned strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Auto,
    Fixed(Strategy),
}

/// Per-session execution knobs, adjustable with `\set`.
#[derive(Debug, Clone)]
pub struct SessionSettings {
    /// Worker threads per query (`ExecOptions::threads`).
    pub threads: usize,
    /// Columnar kernels on the hot path (`ExecOptions::columnar`).
    pub columnar: bool,
    /// Per-query logical-tick budget; `None` inherits the service quota
    /// default (which may itself be `None`: no timeout).
    pub timeout_ticks: Option<u64>,
    /// Per-query wall-clock budget in milliseconds.
    pub wall_timeout_ms: Option<u64>,
    /// Truncate result payloads after this many rows (`None`: all rows —
    /// what the TCP protocol and the benches want; the REPL sets 20 to
    /// match the historical shell).
    pub max_display_rows: Option<usize>,
    /// Consult the process-wide plan cache (fingerprint → raced plan
    /// template) before racing strategies. `\set plan_cache off` forces
    /// every statement through the full race.
    pub plan_cache: bool,
    /// Share materialized magic/SUPP subtrees with concurrent queries
    /// through the process-wide subplan cache.
    pub shared_subplans: bool,
    /// Memoize correlated subqueries by correlation key
    /// (`ExecOptions::ni_memo`). `\set ni_memo off` restores the naive
    /// once-per-outer-row executor, for A/B timing.
    pub ni_memo: bool,
    /// Batch outer bindings and probe subquery correlation columns
    /// set-orientedly (`ExecOptions::ni_batch`; only effective with
    /// `ni_memo` on).
    pub ni_batch: bool,
}

impl Default for SessionSettings {
    fn default() -> Self {
        SessionSettings {
            threads: 1,
            columnar: true,
            timeout_ticks: None,
            wall_timeout_ms: None,
            max_display_rows: None,
            plan_cache: true,
            shared_subplans: true,
            ni_memo: true,
            ni_batch: true,
        }
    }
}

/// How a statement's executable plan was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheStatus {
    /// Plan cache hit: the cached template was rebound, no race ran.
    Hit,
    /// Plan cache miss: the race ran and the template was (maybe) cached.
    Miss,
    /// Caching disabled or inapplicable for this statement.
    Off,
}

impl CacheStatus {
    fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Off => "off",
        }
    }
}

/// A planned statement: the concrete (literal-bound) winning plan plus
/// how it was obtained. `choice.plan` is always executable as-is.
struct Planned {
    label: String,
    choice: PlanChoice,
    status: CacheStatus,
}

/// A named statement registered with `PREPARE`: the parameterized AST
/// plus the literals from the original text (the default bindings).
struct Prepared {
    query: decorr_sql::Query,
    defaults: Vec<Value>,
}

/// Whether the driver should keep reading after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Continue,
    Quit,
}

/// One handled input line: payload lines plus the continue/quit signal.
#[derive(Debug)]
pub struct Response {
    pub lines: Vec<String>,
    pub control: Control,
}

impl Response {
    fn lines(lines: Vec<String>) -> Response {
        Response { lines, control: Control::Continue }
    }

    fn line(s: impl Into<String>) -> Response {
        Response::lines(vec![s.into()])
    }

    fn quit() -> Response {
        Response { lines: vec!["bye".into()], control: Control::Quit }
    }
}

/// A cloneable handle that can cancel the session's in-flight query from
/// any thread (the TCP server's out-of-band path, tests, ctrl-C hooks).
#[derive(Clone)]
pub struct SessionCanceller {
    active: Arc<Mutex<Option<CancelToken>>>,
}

impl SessionCanceller {
    /// Fire the session's current query token. Returns `true` if a token
    /// existed (the query may already have completed — firing a settled
    /// token is a harmless no-op, because the next query gets a fresh
    /// one).
    pub fn cancel_active(&self) -> bool {
        match self.active.lock() {
            Ok(g) => match g.as_ref() {
                Some(t) => {
                    t.cancel();
                    true
                }
                None => false,
            },
            Err(_) => false,
        }
    }
}

/// One tenant session over the shared catalog. Not `Sync` on purpose —
/// a session belongs to one driver (connection, REPL, test); concurrency
/// happens *across* sessions, through [`SharedCatalog`] and
/// [`AdmissionControl`].
pub struct Session {
    id: u64,
    catalog: Arc<SharedCatalog>,
    admission: Arc<AdmissionControl>,
    mode: Mode,
    settings: SessionSettings,
    /// The in-flight query's cancel token. Replaced (never reset) on each
    /// query; kept after completion so a racing `\cancel` fires into a
    /// token nobody reads instead of poisoning the next query.
    active: Arc<Mutex<Option<CancelToken>>>,
    queries_run: u64,
    /// `PREPARE`d statements, by lowercased name.
    prepared: FxHashMap<String, Prepared>,
}

impl Session {
    pub fn new(
        id: u64,
        catalog: Arc<SharedCatalog>,
        admission: Arc<AdmissionControl>,
        settings: SessionSettings,
    ) -> Session {
        Session {
            id,
            catalog,
            admission,
            mode: Mode::Auto,
            settings,
            active: Arc::new(Mutex::new(None)),
            queries_run: 0,
            prepared: FxHashMap::default(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The shared catalog this session reads and publishes through.
    pub fn catalog(&self) -> &Arc<SharedCatalog> {
        &self.catalog
    }

    pub fn settings(&self) -> &SessionSettings {
        &self.settings
    }

    /// A handle for out-of-band cancellation of this session's queries.
    pub fn canceller(&self) -> SessionCanceller {
        SessionCanceller { active: Arc::clone(&self.active) }
    }

    /// Handle one input line (a `\command`, `ANALYZE`, `EXPLAIN COST …`
    /// or plain SQL). Errors are typed; the driver decides how to render
    /// them (`error: …` in the REPL, `;err …` on the wire).
    pub fn handle_line(&mut self, line: &str) -> Result<Response> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(Response::lines(Vec::new()));
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.handle_command(rest);
        }
        let stmt = line.strip_suffix(';').unwrap_or(line).trim();
        if stmt.eq_ignore_ascii_case("analyze") {
            let model = self.catalog.analyze()?;
            let mut lines = render_lines(model.render());
            lines.push(format!(
                "-- statistics published as epoch {}",
                self.catalog.epoch()
            ));
            return Ok(Response::lines(lines));
        }
        if let Some(sql) = strip_prefix_ci(stmt, "explain cost ") {
            return self.explain_cost(sql);
        }
        if let Some(rest) = strip_prefix_ci(stmt, "prepare ") {
            return self.handle_prepare(rest);
        }
        if let Some(rest) = strip_prefix_ci(stmt, "execute ") {
            return self.handle_execute(rest);
        }
        if let Some(rest) = strip_prefix_ci(stmt, "deallocate ") {
            let name = rest.trim().to_ascii_lowercase();
            return match self.prepared.remove(&name) {
                Some(_) => Ok(Response::line(format!("deallocated {name}"))),
                None => Err(Error::parse(format!("no prepared statement {name:?}"))),
            };
        }
        self.run_sql(stmt, false)
    }

    fn handle_command(&mut self, cmd: &str) -> Result<Response> {
        let mut parts = cmd.split_whitespace();
        match parts.next().unwrap_or("") {
            "quit" | "q" | "exit" => Ok(Response::quit()),
            "tables" => {
                let snap = self.catalog.snapshot();
                let mut lines = Vec::new();
                for t in snap.db().tables() {
                    lines.push(format!(
                        "{:<12} {:>8} rows  {:>2} indexes  {}",
                        t.name(),
                        t.len(),
                        t.indexes().len(),
                        t.schema()
                    ));
                }
                Ok(Response::lines(lines))
            }
            "load" => match parts.next() {
                Some("tpcd") => {
                    let scale: f64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0.02);
                    // Durable catalogs hold segment-backed tables, which
                    // carry no secondary indexes — don't build throwaways.
                    let with_indexes = !self.catalog.is_durable();
                    let db = generate(&TpcdConfig { scale, seed: 42, with_indexes })?;
                    let epoch = self.catalog.replace(db)?;
                    Ok(Response::line(format!(
                        "TPC-D loaded at scale {scale} (epoch {epoch}{})",
                        self.durable_suffix()
                    )))
                }
                Some("empdept") => {
                    let db = empdept::generate(&empdept::EmpDeptConfig::default())?;
                    let epoch = self.catalog.replace(db)?;
                    Ok(Response::line(format!(
                        "EMP/DEPT example loaded (epoch {epoch}{})",
                        self.durable_suffix()
                    )))
                }
                other => Ok(Response::line(format!(
                    "unknown dataset {other:?}; try tpcd or empdept"
                ))),
            },
            "drop" => match parts.next() {
                Some(name) => {
                    self.catalog.update(|db| db.drop_table(name))?;
                    Ok(Response::line(format!(
                        "dropped {name} (epoch {}{})",
                        self.catalog.epoch(),
                        self.durable_suffix()
                    )))
                }
                None => Ok(Response::line("usage: \\drop <table>")),
            },
            "strategy" => {
                let mut lines = Vec::new();
                self.mode = match parts.next().unwrap_or("") {
                    "auto" => Mode::Auto,
                    "ni" => Mode::Fixed(Strategy::NestedIteration),
                    "kim" => {
                        // The race never picks Kim for a reason; pinning it
                        // is opting into wrong answers, so say so once.
                        lines.push(
                            "warning: kim is unsound (COUNT bug) — \
                             COUNT over empty correlation groups returns \
                             no row instead of 0; results may be wrong"
                                .into(),
                        );
                        Mode::Fixed(Strategy::Kim)
                    }
                    "dayal" => Mode::Fixed(Strategy::Dayal),
                    "ganski" => Mode::Fixed(Strategy::GanskiWong),
                    "magic" => Mode::Fixed(Strategy::Magic),
                    "optmag" => Mode::Fixed(Strategy::OptMag),
                    other => {
                        return Ok(Response::line(format!("unknown strategy {other:?}")));
                    }
                };
                lines.push("ok".into());
                Ok(Response::lines(lines))
            }
            "explain" => {
                let sql = cmd.strip_prefix("explain").unwrap_or("").trim();
                if sql.is_empty() {
                    Ok(Response::line("usage: \\explain <sql>"))
                } else {
                    self.run_sql(sql, true)
                }
            }
            "set" => self.handle_set(parts.next(), parts.next()),
            "session" => {
                let mode = match self.mode {
                    Mode::Auto => "auto".to_string(),
                    Mode::Fixed(s) => s.name().to_string(),
                };
                Ok(Response::lines(vec![
                    format!("session {}", self.id),
                    format!("  epoch       {}", self.catalog.epoch()),
                    format!("  strategy    {mode}"),
                    format!("  queries run {}", self.queries_run),
                    format!(
                        "  storage     {}",
                        if self.catalog.is_durable() {
                            "durable"
                        } else {
                            "ephemeral"
                        }
                    ),
                ]))
            }
            "cancel" => {
                let fired = self.canceller().cancel_active();
                Ok(Response::line(if fired {
                    "cancel requested"
                } else {
                    "no query to cancel"
                }))
            }
            "stats" => {
                let s = self.admission.stats();
                let c = self.catalog.columnar_cache().stats();
                Ok(Response::lines(vec![
                    format!("admitted          {}", s.admitted),
                    format!("shed (queue full) {}", s.shed_queue_full),
                    format!("shed (wait)       {}", s.shed_wait_timeout),
                    format!("quota rejections  {}", s.quota_rejections),
                    format!("running now       {}", self.admission.running()),
                    format!(
                        "columnar cache    {} entries, {} hits / {} misses",
                        c.entries, c.hits, c.misses
                    ),
                ]))
            }
            "cache" => {
                let p = self.catalog.plan_cache().stats();
                let s = self.catalog.subplan_cache().stats();
                Ok(Response::lines(vec![
                    format!(
                        "plan cache      {} entries, {}/{} bytes ({})",
                        p.entries,
                        p.bytes,
                        p.budget,
                        onoff(self.settings.plan_cache)
                    ),
                    format!("  hits          {}", p.hits),
                    format!("  misses        {}", p.misses),
                    format!("  insertions    {}", p.insertions),
                    format!("  evictions     {}", p.evictions),
                    format!(
                        "shared subplans {} entries, {}/{} bytes ({})",
                        s.entries,
                        s.bytes,
                        s.budget,
                        onoff(self.settings.shared_subplans)
                    ),
                    format!("  hits          {}", s.hits),
                    format!("  misses        {}", s.misses),
                    format!("  bypasses      {}", s.bypasses),
                    format!("  evictions     {}", s.evictions),
                    format!("  rows built    {}", s.built),
                    format!("  rows reused   {}", s.reused),
                    format!(
                        "  shared work   {:.1}%",
                        100.0 * s.reused as f64 / (s.built + s.reused).max(1) as f64
                    ),
                ]))
            }
            "pool" => match self.catalog.pool_stats() {
                Some(p) => {
                    let mut lines = vec![
                        format!(
                            "buffer pool     {}/{} bytes",
                            p.resident_bytes, p.budget_bytes
                        ),
                        format!("  resident      {} pages", p.resident_pages),
                        format!("  hits          {}", p.hits),
                        format!("  misses        {}", p.misses),
                        format!("  evictions     {}", p.evictions),
                    ];
                    if let Some(gc) = self.catalog.gc_failures()? {
                        lines.push(format!("  gc failures   {gc}"));
                    }
                    if let Some(e) = self.catalog.env_stats() {
                        if e.disk_faults() > 0 || e.latency_ticks > 0 {
                            lines.push(format!("disk faults     {} injected", e.disk_faults()));
                            lines.push(format!("  enospc        {}", e.enospc));
                            lines.push(format!("  torn writes   {}", e.torn_writes));
                            lines.push(format!("  read eio      {}", e.read_eio));
                            lines.push(format!("  lost syncs    {}", e.lost_syncs));
                            lines.push(format!("  crashes       {}", e.crashes));
                            lines.push(format!("  latency ticks {}", e.latency_ticks));
                        }
                    }
                    Ok(Response::lines(lines))
                }
                None => Ok(Response::line(
                    "ephemeral catalog: no buffer pool (start with a data dir)",
                )),
            },
            "checkpoint" => match self.catalog.checkpoint()? {
                Some(ck) => Ok(Response::line(format!(
                    "checkpointed epoch {}: manifest written, wal truncated, \
                     {} segment(s) collected{}",
                    ck.epoch,
                    ck.gc_removed,
                    if ck.gc_failed > 0 {
                        format!(", {} gc failure(s)", ck.gc_failed)
                    } else {
                        String::new()
                    }
                ))),
                None => Ok(Response::line(
                    "ephemeral catalog: nothing to checkpoint (start with a data dir)",
                )),
            },
            other => Ok(Response::line(format!("unknown command \\{other}"))),
        }
    }

    /// `", durable"` when acknowledgment implies the epoch is on disk.
    fn durable_suffix(&self) -> &'static str {
        if self.catalog.is_durable() {
            ", durable"
        } else {
            ""
        }
    }

    fn handle_set(&mut self, knob: Option<&str>, value: Option<&str>) -> Result<Response> {
        let usage = "usage: \\set <threads|columnar|timeout_ticks|wall_ms|max_rows\
                     |plan_cache|shared_subplans|ni_memo|ni_batch> <value>";
        let Some(knob) = knob else {
            let s = &self.settings;
            return Ok(Response::lines(vec![
                format!("threads         {}", s.threads),
                format!("columnar        {}", s.columnar),
                format!("timeout_ticks   {}", opt(s.timeout_ticks)),
                format!("wall_ms         {}", opt(s.wall_timeout_ms)),
                format!("max_rows        {}", opt(s.max_display_rows)),
                format!("plan_cache      {}", onoff(s.plan_cache)),
                format!("shared_subplans {}", onoff(s.shared_subplans)),
                format!("ni_memo         {}", onoff(s.ni_memo)),
                format!("ni_batch        {}", onoff(s.ni_batch)),
            ]));
        };
        let Some(value) = value else {
            return Ok(Response::line(usage));
        };
        let bad = |k: &str, v: &str| Error::parse(format!("\\set {k}: bad value {v:?}"));
        match knob {
            "threads" => {
                self.settings.threads =
                    value.parse::<usize>().map_err(|_| bad(knob, value))?.max(1);
            }
            "columnar" => {
                self.settings.columnar = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => return Err(bad(knob, value)),
                };
            }
            "ni_memo" => {
                self.settings.ni_memo = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => return Err(bad(knob, value)),
                };
            }
            "ni_batch" => {
                self.settings.ni_batch = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => return Err(bad(knob, value)),
                };
            }
            "timeout_ticks" => {
                self.settings.timeout_ticks = parse_opt(value).ok_or_else(|| bad(knob, value))?;
            }
            "wall_ms" => {
                self.settings.wall_timeout_ms = parse_opt(value).ok_or_else(|| bad(knob, value))?;
            }
            "max_rows" => {
                self.settings.max_display_rows =
                    parse_opt(value).ok_or_else(|| bad(knob, value))?;
            }
            // on/off toggles the knob; a number sets the process-wide
            // byte budget for the cache (and turns the knob on).
            "plan_cache" => match value {
                "on" | "true" | "1" => self.settings.plan_cache = true,
                "off" | "false" | "0" => self.settings.plan_cache = false,
                v => match v.parse::<usize>() {
                    Ok(bytes) => {
                        self.catalog.plan_cache().set_budget(bytes);
                        self.settings.plan_cache = true;
                    }
                    Err(_) => return Err(bad(knob, value)),
                },
            },
            "shared_subplans" => match value {
                "on" | "true" | "1" => self.settings.shared_subplans = true,
                "off" | "false" | "0" => self.settings.shared_subplans = false,
                v => match v.parse::<usize>() {
                    Ok(bytes) => {
                        self.catalog.subplan_cache().set_budget(bytes);
                        self.settings.shared_subplans = true;
                    }
                    Err(_) => return Err(bad(knob, value)),
                },
            },
            _ => return Ok(Response::line(usage)),
        }
        Ok(Response::line("ok"))
    }

    /// `EXPLAIN COST`: report the race *through the plan cache*, so what
    /// is shown is exactly the plan a subsequent execution will run (and
    /// on a hit, the race table is the cached one — no re-race).
    fn explain_cost(&mut self, sql: &str) -> Result<Response> {
        let snap = self.catalog.snapshot();
        let ast = parse(sql)?;
        let planned = self.plan_query(&snap, &ast)?;
        let mut lines = vec![format!(
            "strategy race (cheapest first) [plan cache {}]:",
            planned.status.name()
        )];
        lines.extend(render_lines(planned.choice.render()));
        let (_, _, trace) =
            self.admitted(|opts| execute_traced(snap.db(), &planned.choice.plan, opts))?;
        let report = audit_estimates(&planned.choice.plan, &planned.choice.plan_estimate, &trace);
        lines.push(format!(
            "estimation accuracy ({} plan):",
            planned.choice.strategy.name()
        ));
        lines.extend(render_lines(report.render()));
        Ok(Response::lines(lines))
    }

    /// `PREPARE <name> AS <sql>`: parse once, hoist literals into the
    /// default binding vector, and warm the plan cache for the shape.
    fn handle_prepare(&mut self, rest: &str) -> Result<Response> {
        let usage = || Error::parse("usage: PREPARE <name> AS <sql>".to_string());
        let (name, tail) = rest.split_once(char::is_whitespace).ok_or_else(usage)?;
        let sql = strip_prefix_ci(tail.trim(), "as ").ok_or_else(usage)?;
        let name = valid_name(name)?;
        let query = parse(sql)?;
        let (pquery, defaults) = parameterize(&query);
        // Plan now: surfaces binder errors at PREPARE time and warms the
        // cache so the first EXECUTE is already a hit.
        let snap = self.catalog.snapshot();
        let planned = self.plan_query(&snap, &query)?;
        let n = defaults.len();
        let line = format!(
            "prepared {name} ({n} parameter{}) via {} [plan cache {}]",
            if n == 1 { "" } else { "s" },
            planned.label,
            planned.status.name()
        );
        self.prepared
            .insert(name, Prepared { query: pquery, defaults });
        Ok(Response::line(line))
    }

    /// `EXECUTE <name>[(arg, …)]`: rebind the prepared shape with the
    /// given literals (or the PREPARE-time defaults) and run it through
    /// the plan cache — the race is skipped on every shape hit.
    fn handle_execute(&mut self, rest: &str) -> Result<Response> {
        let rest = rest.trim();
        let (name, args_src) = match rest.find('(') {
            Some(i) => (rest[..i].trim_end(), Some(&rest[i..])),
            None => (rest, None),
        };
        let name = name.to_ascii_lowercase();
        let Some(p) = self.prepared.get(&name) else {
            return Err(Error::parse(format!(
                "no prepared statement {name:?}; PREPARE it first"
            )));
        };
        let bindings = match args_src {
            None => p.defaults.clone(),
            Some(src) => parse_exec_args(src)?,
        };
        if bindings.len() != p.defaults.len() {
            return Err(Error::parse(format!(
                "execute {name}: expected {} argument(s), got {}",
                p.defaults.len(),
                bindings.len()
            )));
        }
        let query = p.query.clone();
        let snap = self.catalog.snapshot();
        let qgm = bind(&query, snap.db())?;
        decorr_qgm::validate::validate(&qgm)?;
        let planned = if self.settings.plan_cache {
            self.plan_parameterized(&snap, qgm, bindings)?
        } else {
            let mut concrete = qgm;
            concrete.bind_params(&bindings)?;
            let choice = self.race_or_fixed(&snap, concrete)?;
            let label = self.label_for(&choice);
            Planned { label, choice, status: CacheStatus::Off }
        };
        self.execute_planned(&snap, planned)
    }

    /// Execute one SQL statement (or just render its plan). The full
    /// service path: snapshot → plan (through the cache) → admission →
    /// fresh cancel token → execute → release (permit dropped).
    fn run_sql(&mut self, sql: &str, explain_only: bool) -> Result<Response> {
        // Snapshot before admission: the query runs against one epoch no
        // matter how long it queues or how many writers publish meanwhile.
        let snap = self.catalog.snapshot();
        let ast = parse(sql)?;
        let planned = self.plan_query(&snap, &ast)?;
        if explain_only {
            let mut lines = vec![format!(
                "-- plan: {} [plan cache {}]",
                planned.label,
                planned.status.name()
            )];
            lines.extend(render_lines(qgm_print::render(&planned.choice.plan)));
            return Ok(Response::lines(lines));
        }
        self.execute_planned(&snap, planned)
    }

    /// Plan a parsed statement, consulting the plan cache when enabled.
    fn plan_query(
        &mut self,
        snap: &Arc<CatalogVersion>,
        ast: &decorr_sql::Query,
    ) -> Result<Planned> {
        if self.settings.plan_cache {
            let (pquery, bindings) = parameterize(ast);
            let bound = bind(&pquery, snap.db());
            if let Ok(pqgm) = bound {
                if decorr_qgm::validate::validate(&pqgm).is_ok() {
                    return self.plan_parameterized(snap, pqgm, bindings);
                }
            }
            // Parameterization produced a graph the binder/validator
            // rejects (a literal in a shape-bearing position): fall back
            // to the uncached path rather than failing the statement.
        }
        let qgm = bind(ast, snap.db())?;
        decorr_qgm::validate::validate(&qgm)?;
        let choice = self.race_or_fixed(snap, qgm)?;
        let label = self.label_for(&choice);
        Ok(Planned { label, choice, status: CacheStatus::Off })
    }

    /// The cached planning path: `pqgm` is the parameterized shape,
    /// `bindings` the literals hoisted out of this statement's text.
    fn plan_parameterized(
        &mut self,
        snap: &Arc<CatalogVersion>,
        pqgm: Qgm,
        bindings: Vec<Value>,
    ) -> Result<Planned> {
        let mode_key = match self.mode {
            Mode::Auto => "auto".to_string(),
            Mode::Fixed(s) => s.name().to_string(),
        };
        let fp = qgm_fingerprint(&pqgm);
        let cache = self.catalog.plan_cache();
        if let Some(hit) = cache.get(&fp, snap.epoch(), &mode_key) {
            if hit.param_count == bindings.len() {
                let mut choice = hit.choice.clone();
                choice.plan.bind_params(&bindings)?;
                let label = self.label_for(&choice);
                return Ok(Planned { label, choice, status: CacheStatus::Hit });
            }
        }
        // Miss: race the *concrete* graph — the estimator must price real
        // literals, not placeholders.
        let mut concrete = pqgm.clone();
        concrete.bind_params(&bindings)?;
        let choice = self.race_or_fixed(snap, concrete)?;
        let label = self.label_for(&choice);

        // Build the cacheable template: the parameterized graph rewritten
        // by the winning strategy. NestedIteration under Auto is special —
        // the race returns the input graph untouched, so the template is
        // `pqgm` as-is (apply_strategy would run the rule optimizer and
        // diverge from what actually won).
        let template = match (self.mode, choice.strategy) {
            (Mode::Auto, Strategy::NestedIteration) => Ok(pqgm.clone()),
            (_, s) => apply_strategy(&pqgm, s),
        };
        if let Ok(template) = template {
            // Cache only if rebinding the template provably reproduces the
            // concrete winner — belt and braces against any rewrite that
            // inspects literal values.
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
                cache.insert(&fp, snap.epoch(), &mode_key, Arc::new(cached));
            }
        }
        Ok(Planned { label, choice, status: CacheStatus::Miss })
    }

    /// Race strategies (Auto) or apply the pinned one (Fixed), producing
    /// a [`PlanChoice`] either way so downstream rendering is uniform.
    fn race_or_fixed(&self, snap: &Arc<CatalogVersion>, qgm: Qgm) -> Result<PlanChoice> {
        match self.mode {
            Mode::Auto => choose_strategy_with(&snap.cost_model(), qgm),
            Mode::Fixed(s) => {
                let plan = apply_strategy(&qgm, s)?;
                let plan_estimate = snap.cost_model().estimate_plan(&plan)?;
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

    fn label_for(&self, choice: &PlanChoice) -> String {
        match self.mode {
            Mode::Auto => format!(
                "{} (est cost {:.0})",
                choice.strategy.name(),
                choice.estimate.cost
            ),
            Mode::Fixed(s) => s.name().to_string(),
        }
    }

    /// Run one execution the way every statement runs: admission → fresh
    /// cancel token, published as the active one → `run` under the
    /// permit's memory budget → release.
    fn admitted<T>(&self, run: impl FnOnce(ExecOptions) -> Result<T>) -> Result<T> {
        let permit = self.admission.admit(self.id)?;
        // Fresh token per query — never reuse (one-shot contract).
        let cancel = CancelToken::new();
        self.set_active(Some(cancel.clone()));
        // The token stays in `active` (settled) until the next query
        // replaces it; see the field docs.
        run(self.exec_opts(cancel, Some(permit.mem_rows())))
    }

    /// Admission → fresh cancel token → execute (with shared subplans
    /// when enabled) → release → render rows + footer.
    fn execute_planned(
        &mut self,
        snap: &Arc<CatalogVersion>,
        planned: Planned,
    ) -> Result<Response> {
        let (rows, mut stats, elapsed) = self.admitted(|mut opts| {
            let started = Instant::now();
            if self.settings.shared_subplans {
                // Marks are computed on the *concrete* plan: the executor
                // appends table snapshot versions, so the key pins both the
                // bindings (via literals in the shape) and the data.
                let marks: FxHashMap<_, _> = shared_subplan_marks(&planned.choice.plan)
                    .into_iter()
                    .map(|m| (m.box_id, SubplanShape { shape: m.shape, tables: m.tables }))
                    .collect();
                if !marks.is_empty() {
                    opts.shared_subplans =
                        Some(SharedSubplans { cache: self.catalog.subplan_cache().clone(), marks });
                }
            }
            let (rows, stats) = execute_with(snap.db(), &planned.choice.plan, opts)?;
            Ok((rows, stats, started.elapsed()))
        })?;
        self.queries_run += 1;
        if planned.status == CacheStatus::Hit {
            stats.plan_cache_hits += 1;
        }

        let shown = self.settings.max_display_rows.unwrap_or(usize::MAX);
        let mut lines: Vec<String> = rows.iter().take(shown).map(|r| r.to_string()).collect();
        if rows.len() > shown {
            lines.push(format!("... ({} rows total)", rows.len()));
        }
        lines.push(format!(
            "-- {} rows via {} in {:.3} ms (epoch {}, {} subquery invocations ({} distinct, {} memo hits), {} work units, plan cache {})",
            rows.len(),
            planned.label,
            elapsed.as_secs_f64() * 1e3,
            snap.epoch(),
            stats.subquery_invocations,
            stats.subquery_distinct_invocations,
            stats.subquery_memo_hits,
            stats.total_work(),
            planned.status.name()
        ));
        Ok(Response::lines(lines))
    }

    fn set_active(&self, token: Option<CancelToken>) {
        if let Ok(mut g) = self.active.lock() {
            *g = token;
        }
    }

    fn exec_opts(&self, cancel: CancelToken, mem_rows: Option<usize>) -> ExecOptions {
        let timeout = match (
            self.settings
                .timeout_ticks
                .or(self.admission.quotas().default_timeout_ticks),
            self.settings.wall_timeout_ms,
        ) {
            (Some(t), _) => Some(Budget::ticks(t)),
            (None, Some(ms)) => Some(Budget::wall_ms(ms)),
            (None, None) => None,
        };
        ExecOptions {
            threads: self.settings.threads,
            columnar: self.settings.columnar,
            ni_memo: self.settings.ni_memo,
            ni_batch: self.settings.ni_batch,
            timeout,
            cancel: Some(cancel),
            mem_budget: mem_rows,
            shared_cache: Some(self.catalog.columnar_cache().clone()),
            // Durable catalogs let over-budget joins/groupings spill
            // through the buffer pool; ephemeral ones run them in memory.
            spill: self.catalog.spill(),
            ..Default::default()
        }
    }
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "none".into())
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// Validate a PREPARE name: identifier-shaped, stored lowercased.
fn valid_name(name: &str) -> Result<String> {
    let ok = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if ok {
        Ok(name.to_ascii_lowercase())
    } else {
        Err(Error::parse(format!("bad statement name {name:?}")))
    }
}

/// Parse an `EXECUTE` argument list — `(lit, lit, …)` — into values,
/// reusing the SQL lexer so quoting and numeric forms match the parser.
pub fn parse_exec_args(src: &str) -> Result<Vec<Value>> {
    let err = |msg: String| Error::parse(format!("execute arguments: {msg}"));
    let toks = tokenize(src)?;
    let mut values = Vec::new();
    let mut i = 0;
    let kind = |j: usize| toks.get(j).map(|t| &t.kind);
    if kind(i) != Some(&TokenKind::LParen) {
        return Err(err("expected '('".into()));
    }
    i += 1;
    if kind(i) == Some(&TokenKind::RParen) {
        i += 1;
    } else {
        loop {
            let mut negate = false;
            if kind(i) == Some(&TokenKind::Minus) {
                negate = true;
                i += 1;
            }
            let v = match kind(i) {
                Some(TokenKind::Number(n)) => parse_number(n, negate)?,
                Some(TokenKind::StringLit(s)) if !negate => Value::Str(s.as_str().into()),
                Some(TokenKind::Keyword(k)) if !negate => match k.as_str() {
                    "NULL" => Value::Null,
                    "TRUE" => Value::Bool(true),
                    "FALSE" => Value::Bool(false),
                    other => return Err(err(format!("unexpected {other}"))),
                },
                other => {
                    return Err(err(format!(
                        "expected a literal, found {}",
                        other.map(|k| k.to_string()).unwrap_or_else(|| "end".into())
                    )))
                }
            };
            values.push(v);
            i += 1;
            match kind(i) {
                Some(TokenKind::Comma) => i += 1,
                Some(TokenKind::RParen) => {
                    i += 1;
                    break;
                }
                _ => return Err(err("expected ',' or ')'".into())),
            }
        }
    }
    match kind(i) {
        Some(TokenKind::Eof) | None => Ok(values),
        Some(k) => Err(err(format!("trailing input after ')': {k}"))),
    }
}

fn parse_number(text: &str, negate: bool) -> Result<Value> {
    let err = || Error::parse(format!("execute arguments: bad number {text:?}"));
    if text.contains(['.', 'e', 'E']) {
        let d: f64 = text.parse().map_err(|_| err())?;
        Ok(Value::Double(if negate { -d } else { d }))
    } else {
        let n: i64 = text.parse().map_err(|_| err())?;
        Ok(Value::Int(if negate { -n } else { n }))
    }
}

/// `"none"` → `Some(None)`, a number → `Some(Some(n))`, junk → `None`.
fn parse_opt<T: std::str::FromStr>(s: &str) -> Option<Option<T>> {
    if s == "none" || s == "off" {
        Some(None)
    } else {
        s.parse().ok().map(Some)
    }
}

fn strip_prefix_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    if s.len() >= prefix.len() && s[..prefix.len()].eq_ignore_ascii_case(prefix) {
        Some(s[prefix.len()..].trim())
    } else {
        None
    }
}

/// Split a multi-line `render()` string into trimmed-right payload lines.
fn render_lines(s: String) -> Vec<String> {
    s.lines().map(|l| l.trim_end().to_string()).collect()
}
