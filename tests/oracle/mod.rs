//! The one answer to "is this result right": every query of the space
//! ([`space`]) runs once as bound and once under every strategy, each at a
//! seeded point of the execution lattice, and every run must return what
//! the reference interpreter ([`interp`]) returns for the bound graph.
//!
//! A lattice [`Point`] fixes the worker threads {1, 4}, the evaluators
//! (`columnar` on or off), the nested-iteration lane {naive, memo,
//! memo + the `ni_batch` correlation probe}, `memoize_cse`, the scalar placement, the memory budget
//! {none, tiny with a spill manager, tiny without: in memory}, the storage
//! tier {resident indexed, resident un-indexed, durable with a pool that
//! holds everything, durable with a 64 KiB pool} and the shared subplan and
//! columnar caches {off, cold, warm}.
//!
//! Beside the oracle's rows, every run is held to what the executor
//! promises about itself:
//!
//! * a strategy that does not apply says so with a rewrite error;
//! * Kim's method returns the oracle's rows, except that on a COUNT query
//!   it may lose rows — only ones an empty correlated group loses;
//! * magic decorrelation (plain and OptMag) of a query without quantified
//!   subqueries leaves no correlated box and runs no subquery, unless it
//!   reports a child it could only partially decorrelate;
//! * `distinct + memo hits == invocations`, and the logical invocation
//!   count is the same in every nested-iteration lane;
//! * for one strategy per query, a second point that differs only in
//!   `columnar` and/or `threads` returns the same rows in the same order
//!   and equal [`ExecStats`] (on a durable tier, equal work counters, and
//!   page I/O that does not depend on `threads`);
//! * in a sweep, the three budget lanes at one point return the same rows
//!   in the same order: a budget changes where working state lives, never
//!   the result.
//!
//! A failure is shrunk — the query simplified axis by axis, then each
//! table halved and thinned a row at a time, as long as the same check
//! still fails — and reported with the minimal SQL, its tables in corpus
//! form and both plans.

#![allow(dead_code, unused_macros, unused_imports)]

pub mod interp;
pub mod space;

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use decorr::common::{ChaosEnv, Error, ExecStats, FaultPlane, Row, StorageEnv};
use decorr::core::Strategy::{self, Dayal, GanskiWong, Kim, Magic, NestedIteration, OptMag};
use decorr::core::{apply_strategy, apply_strategy_traced, magic_decorrelate_traced};
use decorr::core::{shared_subplan_marks, MagicOptions, RewriteTrace};
use decorr::exec::{execute_traced, execute_with, ColumnarCache, ExecOptions, ExecTrace};
use decorr::exec::{ScalarPlacement, SharedSubplans, SubplanCache, SubplanShape};
use decorr::figures::Figure;
use decorr::prelude::{choose_strategy_with, parse_and_bind, validate, Database, Qgm, Statistics};
use decorr::qgm::{print, AggFunc, BoxKind, Expr, OutputCol, QuantKind, Quantifier, Traversal};
use decorr::storage::{BufferPool, SpillManager, StoreOptions};
use decorr_server::{CatalogVersion, SharedCatalog};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use space::{Case, Query, Text, World};

/// The seed every runner of the tier-1 tests starts from.
pub const SEED: u64 = 28;

// ---- strategies and lattice points ------------------------------------------

/// How a query is planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The graph as bound, pass-through boxes and all.
    AsBound,
    Is(Strategy),
    /// The cost-based race (`choose_strategy_with`).
    Auto,
    /// Magic decorrelation of EXISTS / IN / ANY / ALL too (Section 4.4).
    MagicQuantified,
}

impl Lane {
    pub const ALL: [Lane; 9] = [
        Lane::AsBound,
        Lane::Is(NestedIteration),
        Lane::Is(Dayal),
        Lane::Is(GanskiWong),
        Lane::Is(Magic),
        Lane::Is(OptMag),
        Lane::Is(Kim),
        Lane::Auto,
        Lane::MagicQuantified,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Lane::AsBound => "as bound",
            Lane::Is(s) => s.name(),
            Lane::Auto => "auto",
            Lane::MagicQuantified => "Mag+quantified",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ni {
    Naive,
    Memo,
    Batched,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    Unbounded,
    Spill,
    InMemory,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Indexed,
    Unindexed,
    DurableFits,
    DurableSmall,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caches {
    Off,
    Cold,
    Warm,
}

const TIERS: [Tier; 4] = [
    Tier::Indexed,
    Tier::Unindexed,
    Tier::DurableFits,
    Tier::DurableSmall,
];
const BUDGETS: [Budget; 3] = [Budget::Unbounded, Budget::Spill, Budget::InMemory];
const NI_LANES: [Ni; 3] = [Ni::Naive, Ni::Memo, Ni::Batched];

/// One point of the execution lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub threads: usize,
    pub columnar: bool,
    pub ni: Ni,
    pub memoize_cse: bool,
    pub placement: ScalarPlacement,
    pub budget: Budget,
    pub tier: Tier,
    pub caches: Caches,
}

/// Small enough that the joins and groupings of the worlds go over it.
const TINY_BUDGET: usize = 16;

impl Point {
    fn draw(rng: &mut SmallRng, tier: Option<Tier>, budget: Option<Budget>) -> Point {
        let tier = tier.unwrap_or(TIERS[rng.gen_range(0..4usize)]);
        let budget = budget.unwrap_or(BUDGETS[rng.gen_range(0..3usize)]);
        let placements = [
            ScalarPlacement::PerCandidateRow,
            ScalarPlacement::EarliestBinding,
        ];
        Point {
            threads: if rng.gen_bool(0.5) { 1 } else { 4 },
            columnar: rng.gen_bool(0.5),
            ni: NI_LANES[rng.gen_range(0..3usize)],
            memoize_cse: rng.gen_bool(0.5),
            placement: placements[rng.gen_range(0..2usize)],
            budget,
            tier,
            caches: [Caches::Off, Caches::Cold, Caches::Warm][rng.gen_range(0..3usize)],
        }
    }

    /// This point with `threads` (bit 0) and/or `columnar` (bit 1) flipped.
    fn twin(self, flip: u8) -> Point {
        let threads = if flip & 1 != 0 {
            5 - self.threads
        } else {
            self.threads
        };
        Point { threads, columnar: self.columnar ^ (flip & 2 != 0), ..self }
    }

    fn durable(&self) -> bool {
        matches!(self.tier, Tier::DurableFits | Tier::DurableSmall)
    }

    fn options(&self, plan: &Qgm) -> ExecOptions {
        let caches = self.caches != Caches::Off;
        let marks = shared_subplan_marks(plan).into_iter();
        let marks = marks.map(|m| (m.box_id, SubplanShape { shape: m.shape, tables: m.tables }));
        let subplans =
            SharedSubplans { cache: SubplanCache::new(64 << 20), marks: marks.collect() };
        ExecOptions {
            memoize_cse: self.memoize_cse,
            scalar_placement: self.placement,
            threads: self.threads,
            columnar: self.columnar,
            mem_budget: (self.budget != Budget::Unbounded).then_some(TINY_BUDGET),
            spill: (self.budget == Budget::Spill).then(spill_manager),
            ni_memo: self.ni != Ni::Naive,
            ni_batch: self.ni == Ni::Batched,
            shared_cache: caches.then(ColumnarCache::new),
            shared_subplans: caches.then_some(subplans),
            ..ExecOptions::default()
        }
    }
}

fn memory_env() -> Arc<dyn StorageEnv> {
    Arc::new(ChaosEnv::new(FaultPlane::quiet(0)))
}

fn spill_manager() -> Arc<SpillManager> {
    let mgr = SpillManager::new("/spill", memory_env(), BufferPool::new(1 << 20));
    Arc::new(mgr.expect("an in-memory spill directory"))
}

/// One world in every storage tier, each built on first use.
pub struct Tiers {
    pub world: World,
    unindexed: OnceCell<Database>,
    durable: [OnceCell<(Arc<CatalogVersion>, SharedCatalog)>; 2],
    models: [OnceCell<Statistics>; 4],
}

impl Tiers {
    pub fn new(world: &World) -> Tiers {
        let (unindexed, durable, models) = Default::default();
        Tiers { world: world.clone(), unindexed, durable, models }
    }

    pub fn db(&self, tier: Tier) -> &Database {
        let unindexed = || {
            let mut db = self.world.db.clone();
            let names: Vec<String> = db.tables().map(|t| t.name().to_string()).collect();
            for t in names {
                db.table_mut(&t).expect("a table").drop_all_indexes();
            }
            db
        };
        // Durable tables carry no index; 512-row stripes, so that small
        // tables have several.
        let durable = |i: usize, pool_bytes: usize| {
            let (snapshot, _) = self.durable[i].get_or_init(|| {
                let opts = StoreOptions { pool_bytes, page_rows: 512, env: memory_env() };
                let seed = self.db(Tier::Unindexed).clone();
                let catalog = SharedCatalog::open_durable(Path::new("/oracle"), opts, seed);
                let catalog = catalog.expect("a durable copy");
                (catalog.snapshot(), catalog)
            });
            snapshot.db()
        };
        match tier {
            Tier::Indexed => &self.world.db,
            Tier::Unindexed => self.unindexed.get_or_init(unindexed),
            Tier::DurableFits => durable(0, 64 << 20),
            Tier::DurableSmall => durable(1, 64 << 10),
        }
    }

    fn model(&self, tier: Tier) -> &Statistics {
        let i = TIERS.iter().position(|t| *t == tier).expect("a tier");
        self.models[i].get_or_init(|| Statistics::analyze(self.db(tier)).expect("ANALYZE"))
    }
}

// ---- one case, prepared -----------------------------------------------------------

/// A case bound against its world, with the oracle's answer.
pub struct Prepared<'c> {
    pub case: &'c Case,
    pub bound: Qgm,
    pub want: Vec<Row>,
    /// The oracle's rows when an empty correlated group loses its outer
    /// row (what Kim's method may return).
    kim_want: OnceCell<Vec<Row>>,
    /// An EXISTS / IN / ANY / ALL quantifier somewhere.
    quantified: bool,
    /// A COUNT over a correlated grand total: the COUNT bug can bite.
    counts: bool,
}

/// Bind `case` against the world and ask the oracle. `Err` when either
/// refuses it — a case outside the space.
pub fn prepare<'c>(tiers: &Tiers, case: &'c Case) -> Result<Prepared<'c>, String> {
    let mut bound =
        parse_and_bind(&case.sql(), &tiers.world.db).map_err(|e| format!("binding: {e}"))?;
    space::patch(&mut bound, &case.patch);
    validate(&bound).map_err(|e| format!("an invalid patch: {e}"))?;
    let want = interp::run(&tiers.world.db, &bound).map_err(|e| format!("oracle: {e}"))?;
    let tr = Traversal::new(&bound);
    let quantified = |q: &Quantifier| matches!(q.kind, QuantKind::Existential | QuantKind::All);
    let quantified = bound.live_quants().any(quantified);
    let counts = tr.order().iter().any(|&b| {
        let bx = bound.boxref(b);
        let total = matches!(&bx.kind, BoxKind::Grouping { group_by } if group_by.is_empty());
        let count = |o: &OutputCol| matches!(o.expr, Expr::Agg { func: AggFunc::Count, .. });
        total && bx.outputs.iter().any(count) && tr.is_correlated(b)
    });
    Ok(Prepared { case, bound, want, kim_want: OnceCell::new(), quantified, counts })
}

// ---- coverage ---------------------------------------------------------------------

/// What the bounded space must reach: every join strategy, the keyed arms
/// of the outer join, every quantifier kind, both UNIONs, the magic rewrite
/// rules, and at least one spill, degradation, memo hit and shared-subplan
/// hit. (The keyless outer join, a nested loop, is left to the corpus of
/// `tests/corpus/outer-join`.)
const REQUIRED: &str = "join hash, join index-nested-loop, join lateral, join cross, \
    join grace-hash, outer join hash, \
    outer join index-nested-loop, outer join grace-hash, set UNION, set UNION ALL, rule FEED, \
    rule ABSORB, rule LOJ-repair, rule OptMag-CSE, rule merge-select, rule bypass-identity, \
    spill, degradation, memo hit, shared-subplan hit";

/// What the runs reached.
#[derive(Debug, Default)]
pub struct Coverage {
    /// (case, world) pairs.
    pub cases: u64,
    /// Executor runs checked against the oracle.
    pub runs: u64,
    /// Runs that ended in a typed "over budget" error (budget lanes only).
    pub exhausted: u64,
    /// Lane → (plans, plans refused with a rewrite error).
    pub planned: BTreeMap<&'static str, (u64, u64)>,
    /// Tags of the form of [`REQUIRED`]'s.
    pub reached: BTreeSet<String>,
}

impl Coverage {
    fn note_case(&mut self, prep: &Prepared<'_>) {
        self.cases += 1;
        if let Text::Ast(q) = &prep.case.text {
            let kinds = q.kinds().into_iter();
            self.reached
                .extend(kinds.map(|k| format!("quantifier {}", k)));
        }
        for b in prep.bound.live_boxes() {
            if let BoxKind::Union { all } = b.kind {
                self.reached
                    .insert(format!("set UNION{}", if all { " ALL" } else { "" }));
            }
        }
    }

    fn note_run(&mut self, plan: &Qgm, stats: &ExecStats, trace: &ExecTrace) {
        self.runs += 1;
        let counters = [
            ("spill", stats.spills),
            ("degradation", stats.degradations),
            ("memo hit", stats.subquery_memo_hits),
            ("shared-subplan hit", stats.shared_subplan_hits),
        ];
        let reached = counters.into_iter().filter(|(_, n)| *n > 0);
        self.reached
            .extend(reached.map(|(what, _)| what.to_string()));
        for b in plan.reachable_boxes(plan.top()) {
            let outer =
                ["", "outer "][usize::from(matches!(plan.boxref(b).kind, BoxKind::OuterJoin))];
            for j in trace.get(b).iter().flat_map(|t| &t.joins) {
                let name = j.strategy.name();
                self.reached
                    .extend([format!("join {name}"), format!("{outer}join {name}")]);
            }
        }
    }

    /// Panic unless the runs reached all of [`REQUIRED`].
    pub fn assert_complete(&self) {
        let kinds = space::KINDS.map(|k| format!("quantifier {k}"));
        let required = REQUIRED.split(", ").map(String::from).chain(kinds);
        let missing: Vec<String> = required.filter(|r| !self.reached.contains(r)).collect();
        assert!(
            missing.is_empty(),
            "the runs never reached: {missing:?}\n{}",
            self.report()
        );
    }

    pub fn report(&self) -> String {
        let (cases, runs, exhausted) = (self.cases, self.runs, self.exhausted);
        format!(
            "{cases} cases, {runs} runs ({exhausted} over budget)\n  \
             lane: (planned, refused with a rewrite error) {:?}\n  reached {:?}",
            self.planned, self.reached
        )
    }
}

// ---- the runner -------------------------------------------------------------------

/// Checks beyond the primary run that one (lane, point) carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extra {
    /// Run the twin point (see [`Point::twin`]) too.
    pub twin: Option<u8>,
    /// Run the other two nested-iteration lanes at the same point too.
    pub ni_sweep: bool,
    /// Run the other two budget lanes at the same point too, each held to
    /// this run's rows in this order.
    pub budgets: bool,
}

/// One failed check.
#[derive(Debug, Clone)]
pub struct Failure {
    pub lane: Lane,
    pub point: Point,
    pub extra: Extra,
    /// Which check: `rows`, `twin`, `ni-lanes`, `budgets`, `stats`,
    /// `decorrelation`, `expect`, `error` or `panic`.
    pub tag: &'static str,
    pub detail: String,
}

pub struct Runner {
    rng: SmallRng,
    pub lanes: Vec<Lane>,
    /// Every tier, each at one seeded point run in every budget lane,
    /// instead of one seeded point per (case, lane).
    pub sweep: bool,
    /// A twin point for every lane, not one per case, and always of the
    /// other thread count.
    pub twins: bool,
    pub cov: Coverage,
}

impl Runner {
    pub fn new(seed: u64, lanes: &[Lane]) -> Runner {
        let (rng, lanes) = (SmallRng::seed_from_u64(seed), lanes.to_vec());
        Runner { rng, lanes, sweep: false, twins: false, cov: Coverage::default() }
    }

    /// Check every case in `world`; the first failure is shrunk and
    /// reported (a panic).
    pub fn check_world(&mut self, world: &World, cases: &[Case]) {
        let tiers = Tiers::new(world);
        for case in cases {
            let outside = |e| panic!("{} in {}: outside the space: {e}", case.name, world.name);
            let prep = prepare(&tiers, case).unwrap_or_else(outside);
            self.cov.note_case(&prep);
            let twin_lane = self.rng.gen_range(0..self.lanes.len());
            for (l, lane) in self.lanes.clone().into_iter().enumerate() {
                // Every tier, unbounded and then in the other budget lanes
                // at the same point, with `sweep`; else one point drawn whole.
                let grid = match self.sweep {
                    true => TIERS.map(Some).to_vec(),
                    false => vec![None],
                };
                for (i, tier) in grid.into_iter().enumerate() {
                    let budget = self.sweep.then_some(Budget::Unbounded);
                    let point = Point::draw(&mut self.rng, tier, budget);
                    // With `twins`, every twin flips the thread count.
                    let flip = match self.twins {
                        true => 1 | self.rng.gen_range(0u8..2) << 1,
                        false => self.rng.gen_range(1..4),
                    };
                    let twin = (i == 0 && (self.twins || l == twin_lane)).then_some(flip);
                    let ni_sweep = lane == Lane::AsBound && i == 0;
                    let extra = Extra { twin, ni_sweep, budgets: self.sweep };
                    if let Err(f) = check_lane(&tiers, &prep, lane, point, extra, &mut self.cov) {
                        let (world, case, f) = shrink(world, case, f);
                        panic!("{}", report(&world, &case, &f));
                    }
                }
            }
        }
    }

    /// Check every corpus case of `tests/corpus/<dir>`, the cases that
    /// share a world in it together.
    pub fn check_corpus(&mut self, dir: &str) {
        let mut by_world: Vec<(World, Vec<Case>)> = Vec::new();
        for (world, case) in corpus(dir) {
            match by_world.iter_mut().find(|(w, _)| w.name == world.name) {
                Some((_, cases)) => cases.push(case),
                None => by_world.push((world, vec![case])),
            }
        }
        assert!(!by_world.is_empty(), "no corpus cases in {dir}");
        for (world, cases) in by_world {
            self.check_world(&world, &cases);
        }
    }
}

/// A runner over `lanes` at every tier × budget point.
pub fn sweep(lanes: &[Lane]) -> Runner {
    Runner { sweep: true, ..Runner::new(SEED, lanes) }
}

/// A runner over `lanes` with a twin of the other thread count for each.
pub fn twins(lanes: &[Lane]) -> Runner {
    Runner { twins: true, ..Runner::new(SEED, lanes) }
}

/// The plan `lane` makes of the bound graph, with the rewrite log of the
/// magic lanes. `Ok(None)`: the strategy refused the query.
type Planned = Option<(Qgm, Option<RewriteTrace>)>;

fn plan_for(tiers: &Tiers, prep: &Prepared<'_>, lane: Lane, tier: Tier) -> Result<Planned, String> {
    let bound = &prep.bound;
    let traced = |(p, t)| (p, Some(t));
    let planned = match lane {
        Lane::AsBound => Ok((bound.clone(), None)),
        Lane::Is(s @ (Magic | OptMag)) => apply_strategy_traced(bound, s).map(traced),
        Lane::Is(s) => apply_strategy(bound, s).map(|p| (p, None)),
        Lane::Auto => {
            choose_strategy_with(tiers.model(tier), bound.clone()).map(|c| (c.plan, None))
        }
        Lane::MagicQuantified => {
            let mut g = bound.clone();
            let opts = MagicOptions { decorrelate_quantified: true, ..Default::default() };
            magic_decorrelate_traced(&mut g, &opts).map(|(_, t)| (g, Some(t)))
        }
    };
    let may_refuse =
        lane != Lane::AsBound && lane != Lane::Auto && lane != Lane::Is(NestedIteration);
    match planned {
        Ok((plan, trace)) => {
            validate(&plan).map_err(|e| format!("an invalid plan: {e}"))?;
            Ok(Some((plan, trace)))
        }
        Err(Error::Rewrite(_)) if may_refuse => Ok(None),
        Err(e) => Err(format!("planning failed: {e}")),
    }
}

/// A run's rows, counters and trace, or its typed error (`None`: a panic)
/// and a message.
type Ran = Result<(Vec<Row>, ExecStats, ExecTrace), (Option<Error>, String)>;

/// Execute `plan` at `p` (twice with warm caches).
fn run_at(tiers: &Tiers, plan: &Qgm, p: Point) -> Ran {
    let (db, opts) = (tiers.db(p.tier), p.options(plan));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if p.caches == Caches::Warm {
            execute_with(db, plan, opts.clone())?;
        }
        execute_traced(db, plan, opts)
    }));
    match ran {
        Ok(Ok(done)) => Ok(done),
        Ok(Err(e)) => Err((Some(e.clone()), e.to_string())),
        Err(p) => {
            let msg = p.downcast_ref::<&str>().map(|s| s.to_string());
            let msg = msg
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err((None, format!("a panic: {msg}")))
        }
    }
}

/// Check one lane at one point (plus `extra`).
pub fn check_lane(
    tiers: &Tiers,
    prep: &Prepared<'_>,
    lane: Lane,
    point: Point,
    extra: Extra,
    cov: &mut Coverage,
) -> Result<(), Failure> {
    let fail = |tag: &'static str, detail: String| Failure { lane, point, extra, tag, detail };
    // The detail is built only when the check fails.
    macro_rules! ensure {
        ($ok:expr, $tag:literal, $detail:expr) => {
            if !$ok {
                return Err(fail($tag, $detail));
            }
        };
    }
    let failed =
        |(e, msg): (Option<Error>, String)| fail(if e.is_some() { "error" } else { "panic" }, msg);
    let planned = &mut cov.planned.entry(lane.name()).or_default();
    planned.0 += 1;
    let Some((plan, rewrite)) =
        plan_for(tiers, prep, lane, point.tier).map_err(|e| fail("error", e))?
    else {
        planned.1 += 1;
        return Ok(());
    };
    let expect = &prep.case.expect;
    let refuses = expect.inapplicable.iter().any(|s| s == lane.name());
    ensure!(!refuses, "expect", "applied where it must refuse".into());
    let rules = rewrite.iter().flat_map(|t| &t.steps);
    cov.reached
        .extend(rules.map(|s| format!("rule {}", s.rule)));
    let over_budget = |e: &(Option<Error>, String)| {
        point.budget != Budget::Unbounded && matches!(e.0, Some(Error::ResourceExhausted(_)))
    };
    let (rows, stats, trace) = match run_at(tiers, &plan, point) {
        Ok(done) => done,
        Err(e) if over_budget(&e) => {
            cov.exhausted += 1;
            return Ok(());
        }
        Err(e) => return Err(failed(e)),
    };
    cov.note_run(&plan, &stats, &trace);

    // The rows. Kim's method may drop a row the oracle returns only on a
    // COUNT query, and only one that an empty correlated group drops.
    let want = &prep.want;
    let lost = interp::minus(want, &rows);
    let kim = lane == Lane::Is(Kim);
    let lost_ok = kim && prep.counts && interp::minus(&rows, want).is_empty() && {
        let kim_want = prep.kim_want.get_or_init(|| {
            interp::run_losing_empty_groups(&tiers.world.db, &prep.bound).expect("the oracle ran")
        });
        interp::minus(&lost, &interp::minus(want, kim_want)).is_empty()
    };
    let same = interp::same_multiset(&rows, want) || lost_ok;
    ensure!(same, "rows", diff(want, &rows));
    let bug_shown = !kim || !expect.count_bug || !lost.is_empty();
    ensure!(bug_shown, "expect", "Kim lost no COUNT-bug row".into());

    // The counters: distinct + memo hits are the invocations, and every
    // page read is a pool hit or miss.
    let counted = |s: &ExecStats| {
        let adds_up = s.subquery_distinct_invocations + s.subquery_memo_hits;
        let pages = !point.durable() || s.pages_read == s.pool_hits + s.pool_misses;
        adds_up == s.subquery_invocations && pages
    };
    ensure!(counted(&stats), "stats", format!("{stats:?}"));
    let invocations = stats.subquery_invocations;
    let per_row = point.placement == ScalarPlacement::PerCandidateRow;
    if let (Lane::AsBound, Some(n), true) = (lane, expect.invocations, per_row) {
        ensure!(invocations == n, "expect", format!("invoked {invocations}"));
    }

    // Full decorrelation, unless the rewrite says a child stayed NM.
    let partial = matches!(&rewrite, Some(t) if t.count_rule("FEED-partial") > 0);
    let magic = matches!(lane, Lane::Is(Magic | OptMag));
    if magic && !prep.quantified && !partial {
        let tr = Traversal::new(&plan);
        let left = tr.order().iter().find(|&&b| tr.is_correlated(b));
        ensure!(left.is_none(), "decorrelation", format!("box {left:?}"));
        // (An uncorrelated subquery may stay, and runs once.)
        let none = invocations == 0 || plan.live_quants().any(|q| q.kind != QuantKind::Foreach);
        ensure!(none, "decorrelation", format!("invoked {invocations}"));
    }

    // The twin point: same rows in the same order, same counters.
    if let Some(flip) = extra.twin {
        let twin = point.twin(flip);
        let (twin_rows, twin_stats, _) = run_at(tiers, &plan, twin).map_err(failed)?;
        let ordered = twin_rows == rows;
        ensure!(ordered, "twin", format!("{twin:?}: rows or order"));
        let io_blind =
            |s: &ExecStats| ExecStats { pool_hits: 0, pool_misses: 0, pages_read: 0, ..*s };
        let same_io = twin.columnar != point.columnar || twin_stats.pages_read == stats.pages_read;
        let same = match point.durable() {
            true => io_blind(&twin_stats) == io_blind(&stats) && same_io,
            false => twin_stats == stats,
        };
        ensure!(same, "twin", format!("{twin:?}: {stats:?}\n{twin_stats:?}"));
    }

    // The other nested-iteration lanes: the oracle's rows, the same
    // logical invocations.
    let others = NI_LANES
        .into_iter()
        .filter(|&ni| extra.ni_sweep && ni != point.ni);
    for ni in others {
        match run_at(tiers, &plan, Point { ni, ..point }) {
            Ok((other, other_stats, _)) => {
                let same = interp::same_multiset(&other, want);
                ensure!(same, "ni-lanes", format!("{ni:?}: {}", diff(want, &other)));
                let n = other_stats.subquery_invocations;
                ensure!(n == invocations, "ni-lanes", format!("{ni:?} invoked {n}"));
            }
            Err(e) if over_budget(&e) => {}
            Err(e) => return Err(failed(e)),
        }
    }

    // The other budget lanes: this run's rows in this order, the same
    // logical invocations.
    let budgets = BUDGETS
        .into_iter()
        .filter(|&b| extra.budgets && b != point.budget);
    for budget in budgets {
        match run_at(tiers, &plan, Point { budget, ..point }) {
            Ok((other, other_stats, other_trace)) => {
                cov.note_run(&plan, &other_stats, &other_trace);
                let same = other == rows && other_stats.subquery_invocations == invocations;
                ensure!(
                    same,
                    "budgets",
                    format!("{budget:?}: rows, order or invocations")
                );
                let at = format!("{budget:?}: {other_stats:?}");
                ensure!(counted(&other_stats), "stats", at);
            }
            Err((Some(Error::ResourceExhausted(_)), _)) => cov.exhausted += 1,
            Err(e) => return Err(failed(e)),
        }
    }
    Ok(())
}

/// The first few rows by which `got` differs from `want`.
fn diff(want: &[Row], got: &[Row]) -> String {
    let show = |rows: Vec<Row>| {
        let shown: Vec<String> = rows.iter().take(12).map(Row::to_string).collect();
        shown.join(" ") + if rows.len() > 12 { " …" } else { "" }
    };
    let only_want = show(interp::minus(want, got));
    let only_got = show(interp::minus(got, want));
    let (w, g) = (want.len(), got.len());
    let only = format!("only the oracle's: {only_want}\n  only the engine's: {only_got}");
    format!("the oracle returns {w} rows, the engine {g}\n  {only}")
}

// ---- shrinking and reporting ---------------------------------------------------------

/// Does `case` in `world` still fail the check `f` failed?
fn recheck(world: &World, case: &Case, f: &Failure) -> Option<Failure> {
    let tiers = Tiers::new(world);
    let prep = prepare(&tiers, case).ok()?;
    let cov = &mut Coverage::default();
    let again = check_lane(&tiers, &prep, f.lane, f.point, f.extra, cov).err()?;
    (again.tag == f.tag).then_some(again)
}

/// Shrink greedily: simplify the query one axis at a time, then halve each
/// table and remove its rows one at a time, keeping every step that still
/// fails the same check.
pub fn shrink(world: &World, case: &Case, f: Failure) -> (World, Case, Failure) {
    let (mut world, mut case, mut f) = (world.clone(), case.clone(), f);
    'shrink: loop {
        let simpler = match &case.text {
            Text::Ast(q) => q.simplifications(),
            _ => Vec::new(),
        };
        for q in simpler {
            let candidate = Case { name: q.sql(), text: Text::Ast(q), ..case.clone() };
            if let Some(again) = recheck(&world, &candidate, &f) {
                (case, f) = (candidate, again);
                continue 'shrink;
            }
        }
        // Each table dropped, else halved, else thinned by a row.
        let tables = world
            .db
            .tables()
            .map(|t| (t.name().to_string(), t.rows().to_vec()));
        for (t, rows) in tables.collect::<Vec<_>>() {
            let len = rows.len();
            let halves = [0..len / 2, len / 2..len].into_iter().filter(|_| len >= 2);
            let thinned = (0..len).map(|r| (0..r).chain(r + 1..len).collect::<Vec<_>>());
            let kept = halves.map(|h| h.collect()).chain(thinned);
            let kept = kept.map(|keep: Vec<usize>| {
                Some(keep.iter().map(|&r| rows[r].clone()).collect::<Vec<_>>())
            });
            for rows in [None].into_iter().chain(kept) {
                let candidate = world.with_rows(&t, rows.as_deref());
                if let Some(again) = recheck(&candidate, &case, &f) {
                    (world, f) = (candidate, again);
                    continue 'shrink;
                }
            }
        }
        return (world, case, f);
    }
}

/// The minimal case, its tables, both plans, and which side is wrong.
pub fn report(world: &World, case: &Case, f: &Failure) -> String {
    let (lane, rows) = (f.lane.name(), world.rows());
    let why = format!(
        "{} under {lane} ({rows} rows; shrunk from {})",
        f.tag, world.name
    );
    let mut s = format!(
        "the engine disagrees with the oracle ({}): {}\n  lane {lane} at {:?}, {:?}\n\
         -- the minimal case, as a corpus file:\n{}",
        f.tag,
        f.detail,
        f.point,
        f.extra,
        space::print_case(world, case, &why)
    );
    let tiers = Tiers::new(world);
    let Ok(prep) = prepare(&tiers, case) else {
        return s;
    };
    writeln!(s, "-- the bound plan:\n{}", print::explain(&prep.bound)).unwrap();
    if let Ok(Some((plan, _))) = plan_for(&tiers, &prep, f.lane, f.point.tier) {
        writeln!(s, "-- the {lane} plan:\n{}", print::explain(&plan)).unwrap();
        if let Ok(rows) = interp::run(&world.db, &plan) {
            let (verdict, side) = match interp::same_multiset(&rows, &prep.want) {
                true => ("agrees with", "the executor"),
                false => ("disagrees with", "the rewrite"),
            };
            writeln!(
                s,
                "-- the oracle on the {lane} plan {verdict} the bound plan: {side} is wrong"
            )
            .unwrap();
        }
    }
    s
}

// ---- the corpus and its entry points -------------------------------------------------

/// The cases of `tests/corpus/<dir>`, each with its world, by file name.
pub fn corpus(dir: &str) -> Vec<(World, Case)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(dir);
    let entries = std::fs::read_dir(&root).unwrap_or_else(|e| panic!("{}: {e}", root.display()));
    let mut files: Vec<_> = entries
        .map(|e| e.expect("a directory entry").path())
        .collect();
    files.retain(|p| p.extension().is_some_and(|x| x == "case"));
    files.sort();
    let read = |p: &PathBuf| {
        let (name, text) = (
            p.file_stem().expect("a name").to_string_lossy(),
            std::fs::read_to_string(p),
        );
        space::parse_case(&name, &text.expect("a readable corpus file"), &root)
    };
    files.iter().map(read).collect()
}

/// Run the corpus case `tests/corpus/<dir>/<name>.case` at every tier ×
/// budget point under every lane.
pub fn corpus_case(dir: &str, name: &str) {
    let mut cases = corpus(dir).into_iter();
    let (world, case) = cases.find(|(_, c)| c.name == name).expect("a corpus case");
    sweep(&Lane::ALL).check_world(&world, &[case]);
}

/// One `#[test]` per corpus file of `tests/corpus/<dir>`, named after it.
macro_rules! corpus_tests {
    ($dir:literal: $($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            $crate::oracle::corpus_case($dir, stringify!($name))
        }
    )*};
}
pub(crate) use corpus_tests;

/// One `#[test]` per line `name: lanes, nulls, mixed, keep;`, running
/// [`fuzz`].
macro_rules! fuzz_tests {
    ($($name:ident: $lanes:expr, $nulls:expr, $mixed:expr, $keep:expr;)*) => {$(
        #[test]
        fn $name() {
            $crate::oracle::fuzz(&$lanes, $nulls, $mixed, $keep)
        }
    )*};
}
pub(crate) use fuzz_tests;

/// The queries of size two or less that `keep` selects, under `lanes`,
/// each with a twin of the other thread count, in four seeded random
/// worlds (NULL buildings with probability `nulls`; `mixed` Int/Double
/// keys with NaN and -0.0).
pub fn fuzz(lanes: &[Lane], nulls: f64, mixed: bool, keep: impl Fn(&Query) -> bool) {
    let queries = space::enumerate(2).into_iter().filter(keep);
    let queries: Vec<Case> = queries.map(Case::ast).collect();
    let mut runner = twins(lanes);
    for seed in 0..4 {
        runner.check_world(&space::random_world(seed, nulls, mixed), &queries);
    }
}

/// The figure queries at a scale the oracle's nested loops can afford;
/// `lineitem` still crosses the morsel threshold.
pub fn check_figures(runner: &mut Runner, figs: &[Figure]) {
    for fig in figs {
        let db = fig.database(0.002, 42).expect("a figure database");
        assert!(db.table("lineitem").expect("lineitem").len() > decorr::common::MORSEL_ROWS);
        let strategies = fig.strategies().into_iter().map(Lane::Is);
        runner.lanes = [Lane::AsBound, Lane::Auto]
            .into_iter()
            .chain(strategies)
            .collect();
        let case = Case::new(fig.id(), Text::Sql(fig.sql().into()));
        runner.check_world(&World::new(fig.id(), db), &[case]);
    }
}
