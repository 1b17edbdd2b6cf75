//! One run of one workload: set up, warm up, count, measure, check.
//!
//! This is the benchmark's primitive, and the form the gating pipeline
//! calls: `--workload W --seed N --seconds S --trace 0|1`. `run`,
//! `calibrate` and the smoke test are loops over child processes of it.
//!
//! Order of one run, traced or not:
//!
//! 1. **Set-up**, `setup_reps` times from nothing (generate, open or
//!    persist, `ANALYZE`, boot, connect, one statement per shape); the
//!    last one is kept. `setup_s` is the median.
//! 2. **Counter pass**: one pass through the replayed pipeline
//!    ([`Staged`]), which is where `ExecStats` and buffer-pool deltas come
//!    from. Traced and untraced runs share steps 1–2 exactly, so their
//!    counters must be bit-identical (the determinism gate of `run`).
//! 3. **Measured window**: whole passes until `--seconds` have gone by.
//!    Untraced: `Session::handle_line` / `LineClient::request` only.
//!    Traced: each statement also runs through the replayed pipeline with
//!    spans, and on `serve.*` through an in-process twin session.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use decorr_common::{ExecStats, Row, Value};
use decorr_server::{LineClient, Session, SharedCatalog, Status};
use decorr_storage::{PageIo, PersistentStore, PoolStats, Table};

use crate::audit::Probes;
use crate::digest::{digest_lines, expected_path, Expected};
use crate::report::{self, Metric, TracedWindow};
use crate::setup::{store_options, Env};
use crate::staged::{mode_named, Staged};
use crate::util::{obj, percentile, sorted, Json};
use crate::workload::{
    Check, Pass, Spec, Stmt, Storage, CHURN_COMMITS_PER_CHECKPOINT, CHURN_INSERT_ROWS,
    CHURN_READS_PER_WRITE,
};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// The benchmark's own directory: `out/`, `expected/` live here.
pub fn home() -> PathBuf {
    std::env::var_os("DECORR_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    home().join("out")
}

/// Statements attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// What checking a reply needs to know.
struct Checker<'a> {
    spec: &'a Spec,
    expected: &'a Expected,
    /// `lineitem` rows and catalog epoch when the window opened.
    base_rows: u64,
    base_epoch: u64,
}

/// The `(epoch N,` of a reply footer.
fn footer_epoch(lines: &[String]) -> Option<u64> {
    let footer = lines.last()?;
    let rest = &footer[footer.find("(epoch ")? + "(epoch ".len()..];
    rest[..rest.find(',')?].parse().ok()
}

impl Checker<'_> {
    /// `Err(reason)` when a reply is not the expected answer.
    fn check(&self, stmt: &Stmt, lines: &[String]) -> Result<(), String> {
        let class = self.spec.mix[stmt.mix].class;
        match class.check {
            Check::Digest => {
                let want = self
                    .expected
                    .get(self.spec.scale, stmt.key)
                    .ok_or_else(|| format!("{}: no expected answer; run `bless`", class.name))?;
                let got = digest_lines(lines.iter().map(String::as_str));
                if got == (want.rows, want.digest) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: {} rows digest {:016x}, expected {} rows digest {:016x}: {}",
                        class.name, got.0, got.1, want.rows, want.digest, stmt.sql
                    ))
                }
            }
            Check::LineitemCount => {
                // The writer alone publishes epochs, two per cycle (commit,
                // then ANALYZE), so a reply's epoch says how many inserts
                // its snapshot holds.
                let epoch = footer_epoch(lines).ok_or("count reply has no epoch footer")?;
                let inserts = epoch.saturating_sub(self.base_epoch).div_ceil(2);
                let want = format!("({})", self.base_rows + inserts * CHURN_INSERT_ROWS as u64);
                match lines.first() {
                    Some(got) if *got == want => Ok(()),
                    got => Err(format!(
                        "lineitem count at epoch {epoch}: {got:?}, expected {want}"
                    )),
                }
            }
        }
    }
}

/// Who a client sends its lines to.
enum Caller<'a> {
    Session(&'a mut Session),
    Wire(&'a mut LineClient),
}

impl Caller<'_> {
    /// The reply's payload lines; a typed error, shed or transport failure
    /// is `Err`.
    fn call(&mut self, line: &str) -> Result<Vec<String>, String> {
        match self {
            Caller::Session(s) => s
                .handle_line(line)
                .map(|r| r.lines)
                .map_err(|e| e.to_string()),
            Caller::Wire(c) => {
                let reply = c.request(line).map_err(|e| e.to_string())?;
                match reply.status {
                    Status::Ok => Ok(reply.lines),
                    Status::Err(m) => Err(m),
                    Status::Bye => Err("server said bye".into()),
                }
            }
        }
    }
}

/// What the traced run adds to a client loop.
struct Traced<'a> {
    staged: &'a mut Staged,
    /// The in-process session the wire is compared with (`serve.*`).
    twin: Option<&'a mut Session>,
    /// In-process `handle_line` latency of each statement, ms: what the
    /// stage spans are held against.
    whole_ms: Vec<f64>,
    /// Wire latency minus in-process latency of the same statement, µs.
    wire_us: Vec<f64>,
    staged_ms: Vec<f64>,
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    /// Latency samples in ms, per entry of `Spec::mix`.
    samples: Vec<Vec<f64>>,
    tally: Tally,
    bytes_out: u64,
    /// Wall time in ms and statement latencies in ms of each pass.
    passes: Vec<(f64, Vec<f64>)>,
}

/// Run whole passes until `window` has gone by (at least one pass).
fn client_loop(
    checker: &Checker,
    pass: &Pass,
    window: Duration,
    mut caller: Caller,
    mut traced: Option<&mut Traced>,
    reads_done: &AtomicU64,
) -> Result<ClientLog, String> {
    let mut log =
        ClientLog { samples: vec![Vec::new(); checker.spec.mix.len()], ..Default::default() };
    let started = Instant::now();
    let mut turn = 0usize;
    loop {
        let pass_started = Instant::now();
        let mut pass_latencies = Vec::with_capacity(pass.len());
        for (strategy, stmts) in &pass.blocks {
            let pin = format!("\\strategy {strategy}");
            caller.call(&pin)?;
            if let Some(t) = traced.as_deref_mut() {
                t.staged.set_mode(mode_named(strategy)?);
                if let Some(twin) = t.twin.as_mut() {
                    twin.handle_line(&pin).map_err(|e| e.to_string())?;
                }
            }
            for stmt in stmts {
                // Whoever runs a statement first pays for its cold CPU
                // caches, so the caller, the twin and the replayed pipeline
                // take turns going first.
                let lanes = match &traced {
                    None => 1,
                    Some(t) if t.twin.is_none() => 2,
                    Some(_) => 3,
                };
                let (mut dt, mut inproc) = (Duration::ZERO, None);
                for k in 0..lanes {
                    let lane = (k + turn) % lanes;
                    match (lane, traced.as_deref_mut()) {
                        (0, _) => {
                            let t0 = Instant::now();
                            let reply = caller.call(&stmt.sql);
                            dt = t0.elapsed();
                            log.tally.attempted += 1;
                            log.samples[stmt.mix].push(dt.as_secs_f64() * 1e3);
                            pass_latencies.push(dt.as_secs_f64() * 1e3);
                            match &reply {
                                Ok(lines) => {
                                    log.bytes_out +=
                                        lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
                                    if let Err(why) = checker.check(stmt, lines) {
                                        log.tally.fail(why);
                                    }
                                }
                                Err(e) => log.tally.fail(format!("{e}: {}", stmt.sql)),
                            }
                            reads_done.fetch_add(1, Ordering::Relaxed);
                        }
                        (1, Some(Traced { twin: Some(twin), .. })) => {
                            let t0 = Instant::now();
                            let _ = twin.handle_line(&stmt.sql);
                            inproc = Some(t0.elapsed());
                        }
                        (_, Some(t)) => {
                            let span = t.staged.tracer.spans.len();
                            match t.staged.run(&stmt.sql) {
                                Ok(out) => {
                                    if let Err(why) = checker.check(stmt, &out.lines) {
                                        log.tally.fail(format!("replayed pipeline: {why}"));
                                    }
                                }
                                Err(e) => log
                                    .tally
                                    .fail(format!("replayed pipeline: {e}: {}", stmt.sql)),
                            }
                            t.staged_ms
                                .push(t.staged.tracer.spans[span].ns() as f64 / 1e6);
                        }
                        (_, None) => {}
                    }
                }
                turn += 1;
                if let Some(t) = traced.as_deref_mut() {
                    if let Some(inproc) = inproc {
                        t.wire_us
                            .push((dt.as_secs_f64() - inproc.as_secs_f64()) * 1e6);
                    }
                    t.whole_ms.push(inproc.unwrap_or(dt).as_secs_f64() * 1e3);
                }
            }
        }
        log.passes
            .push((pass_started.elapsed().as_secs_f64() * 1e3, pass_latencies));
        if started.elapsed() >= window {
            break;
        }
    }
    Ok(log)
}

/// `lineitem` plus `CHURN_INSERT_ROWS` rows no part owns (`l_partkey` 0,
/// quantity 0), so every other statement's answer stays what was blessed.
/// Paged tables are immutable: the table is read back and rebuilt
/// resident, and the commit writes it out as a new segment.
fn append_lineitems(db: &mut decorr_storage::Database) -> decorr_common::Result<()> {
    let old = db.table("lineitem")?;
    let mut io = PageIo::default();
    let mut rows = old.read_rows(&mut io)?.into_owned();
    let base = rows.len() as i64;
    rows.extend((0..CHURN_INSERT_ROWS as i64).map(|i| {
        Row::new(vec![
            Value::Int(base + i + 1),
            Value::Int(0),
            Value::Int(0),
            Value::Double(0.0),
        ])
    }));
    let mut fresh = Table::new("lineitem", old.schema().clone());
    fresh.insert_all(rows)?;
    fresh.set_key(&["l_orderkey"])?;
    *db.table_mut("lineitem")? = fresh;
    Ok(())
}

/// What the churn writer did.
#[derive(Default)]
struct WriterLog {
    /// Latency samples in ms per writer operation.
    ops: BTreeMap<&'static str, Vec<f64>>,
    tally: Tally,
    commits: u64,
}

/// The writer beside the reader: after every `CHURN_READS_PER_WRITE`
/// reads, commit an insert through the catalog handle, `ANALYZE` over the
/// wire, and checkpoint every `CHURN_COMMITS_PER_CHECKPOINT` commits.
fn writer_loop(
    catalog: &SharedCatalog,
    mut wire: LineClient,
    reads_done: &AtomicU64,
    stop: &AtomicBool,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut due = CHURN_READS_PER_WRITE;
    while !stop.load(Ordering::Acquire) {
        if reads_done.load(Ordering::Relaxed) < due {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        due += CHURN_READS_PER_WRITE;
        let mut op = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
            let t = Instant::now();
            let r = f();
            log.ops
                .entry(name)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3);
            log.tally.attempted += 1;
            if let Err(e) = r {
                log.tally.fail(format!("writer {name}: {e}"));
            }
        };
        op("writer/commit", &mut || {
            catalog.update(append_lineitems).map_err(|e| e.to_string())
        });
        op("writer/analyze", &mut || match wire.request("ANALYZE") {
            Ok(r) if r.status == Status::Ok => Ok(()),
            Ok(r) => Err(format!("{:?}", r.status)),
            Err(e) => Err(e.to_string()),
        });
        log.commits += 1;
        if log.commits % CHURN_COMMITS_PER_CHECKPOINT == 0 {
            op("writer/checkpoint", &mut || {
                catalog.checkpoint().map(|_| ()).map_err(|e| e.to_string())
            });
        }
    }
    let _ = wire.quit();
    log
}

/// Deterministic work of one pass through the replayed pipeline.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counters {
    pub statements: u64,
    /// The statements' `ExecStats`, summed.
    pub exec: ExecStats,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub evictions: u64,
}

fn counter_pass(
    checker: &Checker,
    env: &Env,
    pass: &Pass,
    tally: &mut Tally,
) -> Result<Counters, String> {
    let catalog = &env.catalog;
    let mut staged = Staged::new(
        Arc::clone(catalog),
        Arc::clone(&env.admission),
        env.session.settings().clone(),
    );
    let pool_before = catalog.pool_stats().unwrap_or_default();
    let mut c = Counters::default();
    for (strategy, stmts) in &pass.blocks {
        staged.set_mode(mode_named(strategy)?);
        for stmt in stmts {
            c.statements += 1;
            tally.attempted += 1;
            match staged.run(&stmt.sql) {
                Ok(out) => {
                    c.exec += out.stats;
                    if let Err(why) = checker.check(stmt, &out.lines) {
                        tally.fail(format!("counter pass: {why}"));
                    }
                }
                Err(e) => tally.fail(format!("counter pass: {e}: {}", stmt.sql)),
            }
        }
    }
    let pool: PoolStats = catalog.pool_stats().unwrap_or_default();
    c.pool_hits = pool.hits - pool_before.hits;
    c.pool_misses = pool.misses - pool_before.misses;
    c.evictions = pool.evictions - pool_before.evictions;
    Ok(c)
}

/// One statement per (class, strategy) shape: fills the plan cache and
/// touches every table before the window opens.
fn warm_up(env: &mut Env, pass: &Pass, spec: &Spec) -> Result<(), String> {
    let mut seen = vec![false; spec.mix.len()];
    for (strategy, stmts) in &pass.blocks {
        let pin = format!("\\strategy {strategy}");
        let shapes: Vec<&Stmt> = stmts
            .iter()
            .filter(|s| !std::mem::replace(&mut seen[s.mix], true))
            .collect();
        let mut callers: Vec<Caller> = match env.clients.is_empty() {
            true => vec![Caller::Session(&mut env.session)],
            false => env.clients.iter_mut().map(Caller::Wire).collect(),
        };
        for caller in &mut callers {
            caller.call(&pin)?;
            for s in &shapes {
                caller.call(&s.sql)?;
            }
        }
    }
    Ok(())
}

/// The result of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The full record of the run (rows, counters, spans), for `--detail`.
    pub detail: Json,
    pub reasons: Vec<String>,
}

/// Set up `setup_reps` times from nothing and keep the last one. Returns
/// the environment and the seconds each set-up took.
fn set_up_repeatedly(
    spec: &Spec,
    pass: &Pass,
    scratch: &dyn Fn(&str) -> PathBuf,
) -> Result<(Env, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..spec.setup_reps {
        if let Some(previous) = kept.take() {
            Env::tear_down(previous);
        }
        let dir = scratch(&format!("data{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let mut env = Env::set_up(spec, &dir).map_err(|e| e.to_string())?;
        warm_up(&mut env, pass, spec)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(env);
    }
    Ok((kept.ok_or("workload has no set-up repetitions")?, setup_s))
}

/// Everything the measured window produced.
struct Window {
    clients: Vec<ClientLog>,
    writer: Option<WriterLog>,
    traced: Option<TracedWindow>,
}

/// Step 3: run the clients (and the churn writer) for `seconds`.
fn measure(
    spec: &Spec,
    checker: &Checker,
    passes: &[Pass],
    env: &mut Env,
    args: &Args,
) -> Result<Window, String> {
    let window = Duration::from_secs_f64(args.seconds);
    let reads_done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(spec.clients());
    // The traced window starts a replica with empty caches, as the
    // session's were when set-up began warming them.
    let mut staged = Staged::new(
        Arc::clone(&env.catalog),
        Arc::clone(&env.admission),
        env.session.settings().clone(),
    );
    staged.replay = true;
    let mut traced = None;
    let (clients, writer) = std::thread::scope(|scope| {
        let writer = match (&env.server, spec.churn) {
            (Some(server), true) => {
                let wire = LineClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
                let (catalog, reads_done, stop) = (&env.catalog, &reads_done, &stop);
                Some(scope.spawn(move || writer_loop(catalog, wire, reads_done, stop)))
            }
            _ => None,
        };
        let clients: Result<Vec<ClientLog>, String> = if args.trace {
            // One client, so spans of one statement never interleave with
            // another's.
            let (caller, twin) = match env.clients.first_mut() {
                Some(c) => (Caller::Wire(c), Some(&mut env.session)),
                None => (Caller::Session(&mut env.session), None),
            };
            let mut t = Traced {
                staged: &mut staged,
                twin,
                whole_ms: Vec::new(),
                wire_us: Vec::new(),
                staged_ms: Vec::new(),
            };
            let log = client_loop(
                checker,
                &passes[0],
                window,
                caller,
                Some(&mut t),
                &reads_done,
            );
            traced = Some((t.whole_ms, t.wire_us, t.staged_ms));
            log.map(|l| vec![l])
        } else if env.clients.is_empty() {
            let caller = Caller::Session(&mut env.session);
            client_loop(checker, &passes[0], window, caller, None, &reads_done).map(|l| vec![l])
        } else {
            let handles: Vec<_> = env
                .clients
                .iter_mut()
                .zip(passes)
                .map(|(c, pass)| {
                    let (barrier, reads_done) = (&barrier, &reads_done);
                    scope.spawn(move || {
                        barrier.wait();
                        client_loop(checker, pass, window, Caller::Wire(c), None, reads_done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect()
        };
        stop.store(true, Ordering::Release);
        let writer = match writer {
            Some(h) => Some(h.join().map_err(|_| "writer thread panicked".to_string())?),
            None => None,
        };
        Ok::<_, String>((clients?, writer))
    })?;
    let traced = traced.map(|(whole_ms, wire_us, staged_ms)| TracedWindow {
        staged,
        whole_ms,
        wire_us,
        staged_ms,
    });
    Ok(Window { clients, writer, traced })
}

/// Tear the environment down. On `serve.churn` the directory outlives the
/// service: it is reopened, and what recovery finds must be the last
/// acknowledged epoch and row count — else every writer operation failed.
fn finish(env: Env, spec: &Spec, checker: &Checker, commits: u64, tally: &mut Tally) {
    let final_epoch = env.catalog.epoch();
    let (Storage::Durable { pool_bytes }, true) = (spec.storage, spec.churn) else {
        return env.tear_down();
    };
    let mut env = env;
    let Some(dir) = env.data_dir.take() else {
        return env.tear_down();
    };
    // With `data_dir` taken, tear-down drops every handle on the store but
    // leaves its files.
    env.tear_down();
    let want_rows = checker.base_rows + commits * CHURN_INSERT_ROWS as u64;
    let recovered = PersistentStore::open(&dir, store_options(pool_bytes))
        .and_then(|r| Ok((r.epoch, r.db.table("lineitem")?.len() as u64)));
    match recovered {
        Ok(found) if found == (final_epoch, want_rows) => {}
        Ok((epoch, rows)) => {
            tally.failed += 2 * commits;
            tally.reasons.push(format!(
                "recovery: epoch {epoch} with {rows} lineitem rows, acknowledged epoch \
                 {final_epoch} with {want_rows}"
            ));
        }
        Err(err) => {
            tally.failed += 2 * commits;
            tally
                .reasons
                .push(format!("recovery: reopen failed: {err}"));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::named(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let expected = Expected::load(&expected_path(&home(), spec.name))?;
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let scratch = |tag: &str| tmp.join(format!("{}-{}-{tag}", spec.name, std::process::id()));
    let passes: Vec<Pass> = (0..spec.clients())
        .map(|c| Pass::generate(&spec, args.seed, c))
        .collect();

    // 1. Set-up, several times; the last one is measured on.
    let (mut env, setup_s) = set_up_repeatedly(&spec, &passes[0], &scratch)?;
    let snap = env.catalog.snapshot();
    let checker = Checker {
        spec: &spec,
        expected: &expected,
        base_rows: snap
            .db()
            .table("lineitem")
            .map_err(|e| e.to_string())?
            .len() as u64,
        base_epoch: snap.epoch(),
    };
    drop(snap);

    // 2. Counter pass, identical in traced and untraced runs.
    let mut tally = Tally::default();
    let counters = counter_pass(&checker, &env, &passes[0], &mut tally)?;

    // 3. The measured window, then the probes that need the catalog alive.
    let Window { clients, writer, traced } = measure(&spec, &checker, &passes, &mut env, args)?;
    let probes = match &traced {
        Some(_) => Some(Probes::take(&spec, &env, &scratch("audit"))?),
        None => None,
    };

    // Fold the clients together.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); spec.mix.len()];
    let mut passes_run = Vec::new();
    let (mut bytes_out, mut statements) = (0u64, 0u64);
    for log in clients {
        statements += log.tally.attempted;
        bytes_out += log.bytes_out;
        tally.absorb(log.tally);
        for (all, mine) in samples.iter_mut().zip(log.samples) {
            all.extend(mine);
        }
        passes_run.extend(log.passes);
    }
    let mut rows: Vec<Json> = spec
        .mix
        .iter()
        .zip(&samples)
        .map(|(m, s)| report::row_json(&m.label(), s))
        .collect();
    let mut commits = 0;
    if let Some(w) = writer {
        rows.extend(w.ops.iter().map(|(name, ms)| report::row_json(name, ms)));
        commits = w.commits;
        tally.absorb(w.tally);
    }
    finish(env, &spec, &checker, commits, &mut tally);

    let latencies = sorted(samples.concat());
    let mut detail = vec![
        ("workload", Json::from(spec.name)),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("traced", args.trace.into()),
        ("scale", spec.scale.into()),
        ("clients", spec.clients().into()),
        ("statements_per_pass", passes[0].len().into()),
        ("samples", latencies.len().into()),
        ("window_p50_ms", percentile(&latencies, 0.5).into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        ("counters", report::counters_json(&counters)),
        ("rows", Json::Arr(rows)),
        (
            "pass_ms",
            Json::Arr(passes_run.iter().map(|p| p.0.into()).collect()),
        ),
    ];
    let metrics = match (&traced, &probes) {
        (Some(t), Some(p)) => {
            let trace_path = out_dir().join(format!("trace-{}.json", spec.name));
            t.staged
                .tracer
                .write(&trace_path, spec.name)
                .map_err(|e| format!("{}: {e}", trace_path.display()))?;
            detail.push(("trace_file", trace_path.display().to_string().into()));
            detail.extend(report::traced_detail(t, p));
            report::layers(t, p, &counters, bytes_out, statements)
        }
        _ => report::end_to_end(spec.clients(), &mut passes_run, &setup_s),
    };
    detail.push(("metrics", report::metrics_json(&metrics)));
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail: obj(detail),
        reasons: tally.reasons,
    })
}
