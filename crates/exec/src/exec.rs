//! The QGM interpreter. [`Executor::run`] lowers the graph (`lower`), then
//! the module of each box's operator evaluates it (see the crate docs);
//! this module dispatches, keeps results for reuse and governs.
//!
//! Execution is morsel-driven: per-row operators (filters, projections, the
//! outer-join walk) cut their input into [`MORSEL_ROWS`]-sized ranges and
//! hand them to one driver, `Executor::for_morsels`, which runs them
//! inline or — with `threads > 1` and a large enough input — on a
//! [`WorkerPool`] whose workers claim morsels from a shared counter.
//! Equi-joins go through the one kernel in `joins`; grouping
//! aggregates thread-local tables over contiguous slices. Every parallel
//! path merges its outputs in morsel/partition order and reports the same
//! [`ExecStats`] counters as the serial one, so rows, row order and work
//! counters never depend on the thread count.

use std::sync::Arc;
use std::time::Instant;

use decorr_common::columnar::{ColumnarBatch, SelVec};
use decorr_common::{
    Budget, CancelToken, Claim, Error, ExecStats, FxHashMap, Result, Row, RowBatch, Value,
    WorkerPool, MORSEL_ROWS,
};
use decorr_qgm::{BoxId, BoxKind, Expr, OutputCol, Qgm};
use decorr_storage::{Database, PageIo, SpillManager, Table};

use crate::env::{Env, Layout};
use crate::eval::{eval_expr, qualifies};
use crate::subplan::SharedSubplans;
use crate::trace::ExecTrace;
use crate::tuple::{Src, Tuples};
use crate::vector;

mod apply;
mod grouping;
mod joins;
mod lower;
mod outer;
mod scans;
mod select;
mod union;

use apply::{MemoKey, RunMemo};
use lower::Plan;
use union::dedup_rows;

pub(crate) use scans::ScanSel;

/// When nested iteration evaluates a correlated *scalar* subquery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScalarPlacement {
    /// After the outer block's joins, once per candidate row — the classic
    /// System R behaviour and the common case in the paper's experiments.
    #[default]
    PerCandidateRow,
    /// As soon as the quantifiers carrying its correlation bindings are
    /// joined (the paper's Query 2 plan: "places the subquery before the
    /// join between Parts and Lineitem").
    EarliestBinding,
}

/// Execution knobs; see the crate docs for how each maps to the paper.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Materialize uncorrelated boxes referenced by several quantifiers
    /// once (`true`) or recompute them per reference (`false`, the
    /// Starburst behaviour in the paper's experiments). A materialized box
    /// is kept in the run memo, its rows charged to
    /// [`ExecOptions::mem_budget`]; one the ledger cannot hold is
    /// recomputed per reference, as with `false`.
    pub memoize_cse: bool,
    /// Correlated scalar subquery placement under nested iteration.
    pub scalar_placement: ScalarPlacement,
    /// Worker threads for intra-query parallelism. `1` (the default) runs
    /// everything inline on the calling thread.
    pub threads: usize,
    /// Execution budget: operators charge it one tick per row touched and
    /// unwind with [`Error::Timeout`] at the next morsel boundary once it
    /// is exhausted. `None` (the default) never times out.
    pub timeout: Option<Budget>,
    /// Cooperative cancellation, checked at morsel boundaries; any thread
    /// may fire it and the run unwinds with [`Error::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Memory budget in rows. It is charged by every row the run memo keeps
    /// (correlation-key memo entries and `memoize_cse` results, each row
    /// once, for the run); a result the ledger cannot hold is returned
    /// without being kept. A hash join whose build side — or a GROUP
    /// BY whose input — exceeds it spills through
    /// [`ExecOptions::spill`]; with no spill device, or a full one, it
    /// runs the same in-memory hash algorithm and is recorded in
    /// [`ExecStats::degradations`] and the [`ExecTrace`]. An operator
    /// whose *output* exceeds `1024 ×` the budget fails with
    /// [`Error::ResourceExhausted`] — a spill bounds working state, but
    /// nothing can bound the result itself.
    pub mem_budget: Option<usize>,
    /// Evaluate filters, hash-join keys, final projections and grand-total
    /// aggregates with the columnar kernels in [`decorr_common::columnar`]
    /// (`true`, the default) or with the row-wise expression evaluator
    /// (`false`, which the benchmark's `bless` still runs; results are
    /// checked against the reference interpreter of `tests/oracle`, under
    /// both settings). The option selects *evaluators* only: both settings
    /// run the same morsel driver, the same join kernel and the same
    /// grouping code, and produce byte-identical rows and identical
    /// [`ExecStats`].
    pub columnar: bool,
    /// A cross-query [`ColumnarCache`](crate::ColumnarCache) shared by a
    /// long-lived process (e.g. one per `decorr-server`). Batches are
    /// keyed by table snapshot version, so DDL / reloads / re-`ANALYZE`s
    /// invalidate by construction and a stale snapshot can never be
    /// served. `None` (the default) keeps the transpose cache private to
    /// the run.
    pub shared_cache: Option<crate::cache::ColumnarCache>,
    /// The cross-query shared-subplan cache plus this plan's marked
    /// shareable subtrees (SUPP/MAGIC/DCO/CI and multi-referenced CSEs).
    /// Marked boxes are served from — or materialized into — the cache
    /// keyed by canonical shape + table snapshot versions, so DDL /
    /// reloads / `ANALYZE` invalidate by construction. `None` (the
    /// default) disables cross-query sharing.
    pub shared_subplans: Option<SharedSubplans>,
    /// Spill manager for over-budget operators. With one present, a hash
    /// join whose build side — or a grouping whose input — exceeds
    /// [`ExecOptions::mem_budget`] partitions its working state to disk
    /// through the buffer pool (Grace hash join / partitioned hash
    /// aggregation). Output rows are byte-identical to the in-memory run;
    /// spilled operators are counted in [`ExecStats::spills`]. `None` (the
    /// default, and always on ephemeral servers) runs over-budget
    /// operators in memory, counted in [`ExecStats::degradations`].
    pub spill: Option<Arc<SpillManager>>,
    /// Correlation-key memoization for nested iteration (`true`, the
    /// default). Correlated subtrees are keyed on their *binding tuple* —
    /// the outer values their free references resolve to, normalized like
    /// hash-join keys when every use is a SQL comparison — so repeated
    /// bindings are served from the run memo instead of re-executing
    /// (the paper's "3954 invocations of which only 2138 are distinct"),
    /// for subqueries and lateral inputs alike.
    /// Hits and misses are counted in
    /// [`ExecStats::subquery_memo_hits`] / [`ExecStats::subquery_distinct_invocations`];
    /// each kept row is charged to [`ExecOptions::mem_budget`], and a
    /// result the exhausted ledger refuses re-executes when its binding
    /// repeats. Either way, a child correlated only to blocks outside the
    /// one being evaluated runs once per evaluation of that block.
    /// `false` reproduces the naive once-per-binding executor exactly
    /// (results *and* stats): the paper's invocation counts are read off it.
    pub ni_memo: bool,
    /// The correlation probe (`true`, the default): a correlated equality
    /// scan without an index builds a hash partition over the correlation
    /// column on its second scan and probes it per binding after that (an
    /// executor-level magic-lite). Rows and row order are byte-identical
    /// to the scanning path; only the work counters shrink. Repeated
    /// bindings are the memo's (`ni_memo`), whatever this says.
    pub ni_batch: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            memoize_cse: false,
            scalar_placement: ScalarPlacement::default(),
            threads: 1,
            timeout: None,
            cancel: None,
            mem_budget: None,
            columnar: true,
            shared_cache: None,
            shared_subplans: None,
            spill: None,
            ni_memo: true,
            ni_batch: true,
        }
    }
}

/// Check the governance knobs: cancellation first (a cancelled query should
/// not report `Timeout`), then charge `work` ticks against the budget.
/// Free function so worker closures can call it on a captured `&ExecOptions`
/// without borrowing the whole executor.
fn governor_check(opts: &ExecOptions, work: u64) -> Result<()> {
    if let Some(tok) = &opts.cancel {
        tok.check()?;
    }
    if let Some(budget) = &opts.timeout {
        budget.charge(work)?;
    }
    Ok(())
}

/// The interpreter. One instance accumulates [`ExecStats`] over a run.
pub struct Executor<'a> {
    db: &'a Database,
    opts: ExecOptions,
    stats: ExecStats,
    /// Morsel scheduler for the parallel operator paths; `threads == 1`
    /// runs everything inline.
    pool: WorkerPool,
    /// Per-box operator trace, populated when tracing is enabled.
    trace: Option<ExecTrace>,
    /// The boxes currently being evaluated (innermost last); used to
    /// attribute predicate evaluations and join decisions to a box.
    box_stack: Vec<BoxId>,
    /// Per-run cache of base tables transposed into columnar batches,
    /// keyed by `(snapshot version, columns)` — equal versions hold equal
    /// data, whatever the table's name. The database is
    /// immutable for the duration of a run, and correlated
    /// (nested-iteration) plans re-scan the same table once per outer
    /// binding — the transpose is paid once. The version in the key makes
    /// the entries safe to promote into the cross-query
    /// [`ExecOptions::shared_cache`] of a long-lived process.
    col_cache: FxHashMap<(u64, Vec<usize>), Arc<ColumnarBatch>>,
    /// Box results kept for reuse within the run: the correlation-key
    /// memo, `memoize_cse`'s shared boxes and the Select evaluation's frame.
    memo: RunMemo,
    /// Set-oriented probe indexes: hash partition of one base-table column
    /// by `eq_key` value, keyed `(snapshot version, column)`. A shape
    /// scanned once so far has `None`: the second scan builds the index,
    /// so one-shot scans never pay the build pass.
    corr_index: FxHashMap<(u64, usize), Option<CorrIndex>>,
}

/// A correlation probe's hash partition: column value to table positions.
type CorrIndex = Arc<FxHashMap<Value, Vec<u32>>>;

impl<'a> Executor<'a> {
    pub fn new(db: &'a Database, opts: ExecOptions) -> Self {
        let (pool, memo) = (WorkerPool::new(opts.threads), RunMemo::new(opts.mem_budget));
        Executor {
            db,
            opts,
            stats: ExecStats::new(),
            pool,
            trace: None,
            box_stack: Vec::new(),
            col_cache: FxHashMap::default(),
            memo,
            corr_index: FxHashMap::default(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Start recording a per-box operator trace (see [`ExecTrace`]).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(ExecTrace::new());
    }

    /// Take the recorded trace, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<ExecTrace> {
        self.trace.take()
    }

    /// Lower the graph, then execute its top box.
    pub fn run(&mut self, qgm: &Qgm) -> Result<Vec<Row>> {
        let plan = Plan::lower(qgm, self.db, &self.opts);
        let rows = self.eval_box(&plan, qgm.top(), None)?;
        self.stats.output_rows += rows.len() as u64;
        Ok(rows)
    }

    // ---- box dispatch ----------------------------------------------------

    /// Evaluate a box, recording an operator-trace entry when tracing is
    /// on. Wall time is inclusive of children (the box stack has no
    /// double-counting concern: the QGM is a DAG, a box never recursively
    /// evaluates itself).
    fn eval_box(&mut self, plan: &Plan<'_>, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let eval = |ex: &mut Self| {
            let tuples = ex.eval_box_inner(plan, b, env)?;
            ex.rows_of(tuples)
        };
        self.traced(b, eval, Vec::len)
    }

    /// Evaluate a child for a consumer that reads candidate tuples — a
    /// Grouping, an outer join's build side: a Select's or an outer join's
    /// candidates as they stand (traced as `eval_box` on it would be), and
    /// any other box, or one a cache serves, as rows.
    fn eval_tuples(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let kind = &plan.qgm.boxref(b).kind;
        if plan.get(b).keep.is_some() || !matches!(kind, BoxKind::Select | BoxKind::OuterJoin) {
            let rows = self.eval_child(plan, b, env)?;
            return Ok(Tuples::every(Src::Batch(rows), plan.qgm.output_arity(b)));
        }
        self.traced(b, |ex| ex.eval_box_inner(plan, b, env), Tuples::len)
    }

    /// The candidates as rows, made now.
    fn rows_of(&mut self, mut tuples: Tuples<'_>) -> Result<Vec<Row>> {
        self.settle(&mut tuples)?;
        Ok(tuples.into_rows())
    }

    /// Make rows of the still-paged inputs of `tuples`, for a reader of
    /// rows.
    fn settle(&mut self, tuples: &mut Tuples<'_>) -> Result<()> {
        let mut io = PageIo::default();
        tuples.settle(&mut io)?;
        self.note_io(io);
        Ok(())
    }

    /// `left`'s candidates joined to `right`'s at `pairs` (see
    /// [`Tuples::join`]).
    fn join_tuples(
        &mut self,
        left: Tuples<'a>,
        right: Tuples<'a>,
        pairs: &[(u32, u32)],
    ) -> Result<Tuples<'a>> {
        let mut io = PageIo::default();
        let joined = left.join(right, pairs, &mut io)?;
        self.note_io(io);
        Ok(joined)
    }

    /// Run one evaluation of box `b`, recording its trace entry (with
    /// `rows_out` counting what it returned) when tracing is on.
    fn traced<T>(
        &mut self,
        b: BoxId,
        eval: impl FnOnce(&mut Self) -> Result<T>,
        rows_out: impl Fn(&T) -> usize,
    ) -> Result<T> {
        if self.trace.is_none() {
            return eval(self);
        }
        let started = Instant::now();
        self.box_stack.push(b);
        let result = eval(self);
        self.box_stack.pop();
        let elapsed = started.elapsed();
        if let (Some(trace), Ok(out)) = (&mut self.trace, &result) {
            let e = trace.entry(b);
            e.invocations += 1;
            e.rows_out += rows_out(out) as u64;
            e.wall += elapsed;
        }
        result
    }

    /// Charge `n` predicate evaluations to the stats and (when tracing) to
    /// the box currently on top of the evaluation stack. Operators count
    /// evaluations per morsel and charge the merged total here, so the
    /// counters never depend on how the morsels were scheduled.
    fn note_preds(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.predicate_evals += n;
        if let (Some(trace), Some(&b)) = (&mut self.trace, self.box_stack.last()) {
            trace.entry(b).predicate_evals += n;
        }
    }

    /// Should an operator over `n` input rows fan out? Small inputs stay
    /// serial: a morsel's worth of rows is cheaper to process inline than
    /// to schedule.
    fn parallel_over(&self, n: usize) -> bool {
        self.pool.is_parallel() && n > MORSEL_ROWS
    }

    /// Governance checkpoint: cancellation + budget charge of `work` rows.
    /// Operators call this on entry (charging their input size) and at
    /// morsel boundaries inside long loops (charging 0 — the work was
    /// already charged up front).
    fn checkpoint(&self, work: u64) -> Result<()> {
        governor_check(&self.opts, work)
    }

    /// The morsel driver behind every per-row operator: cut `0..n` into
    /// [`MORSEL_ROWS`]-sized ranges and run `f(lo, hi)` over each — on the
    /// pool when the input is large enough to fan out, inline (stopping at
    /// the first error) otherwise — with a governance checkpoint per
    /// morsel. Results come back in morsel order, so concatenating them
    /// preserves the input order however the morsels were scheduled.
    fn for_morsels<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let opts = &self.opts;
        let morsel = |c: usize| {
            governor_check(opts, 0)?;
            f(c * MORSEL_ROWS, ((c + 1) * MORSEL_ROWS).min(n))
        };
        let morsels = n.div_ceil(MORSEL_ROWS);
        if self.parallel_over(n) {
            self.pool.run_indexed(morsels, morsel).into_iter().collect()
        } else {
            (0..morsels).map(morsel).collect()
        }
    }

    /// Hard memory ceiling: an operator output of `n` rows beyond
    /// `1024 × mem_budget` cannot be absorbed by spilling working state
    /// and fails the query with [`Error::ResourceExhausted`].
    fn check_mem(&self, n: usize, operator: &str) -> Result<()> {
        if let Some(mb) = self.opts.mem_budget {
            let ceiling = mb.saturating_mul(1024);
            if n > ceiling {
                return Err(Error::resource_exhausted(format!(
                    "{operator} output of {n} rows exceeds {ceiling} \
                     (1024 x mem_budget of {mb} rows)"
                )));
            }
        }
        Ok(())
    }

    /// Record an over-budget operator that ran in memory (stats counter +
    /// trace entry on the box currently being evaluated).
    fn note_degradation(&mut self, reason: &str) {
        self.stats.degradations += 1;
        if let (Some(trace), Some(&b)) = (&mut self.trace, self.box_stack.last()) {
            trace.note_degradation(b, reason);
        }
    }

    /// Record an over-budget operator that spilled to disk (stats counter
    /// + trace entry on the current box).
    fn note_spill(&mut self, reason: &str) {
        self.stats.spills += 1;
        if let (Some(trace), Some(&b)) = (&mut self.trace, self.box_stack.last()) {
            trace.note_spill(b, reason);
        }
    }

    /// Fold one scan's / spill pass's page-level I/O into the run stats.
    fn note_io(&mut self, io: PageIo) {
        self.stats.pool_hits += io.hits;
        self.stats.pool_misses += io.misses;
        self.stats.pages_read += io.pages_read;
        self.stats.pages_pruned += io.pages_pruned;
    }

    /// Where an operator keeps working state of `n` rows — `what`, as its
    /// trace entry names it: in memory when that fits the budget; else a
    /// spill manager and enough partitions that each fits it (bounded to
    /// keep partition files and passes sane under extreme budgets), noted
    /// as a spill; else in memory all the same, noted as a degradation.
    fn spill_for(&mut self, n: usize, what: &str) -> Option<(Arc<SpillManager>, usize)> {
        let budget = self.opts.mem_budget.filter(|&mb| n > mb)?;
        let Some(spill) = self.opts.spill.clone() else {
            self.note_degradation(&format!(
                "{what} of {n} rows exceeds mem_budget; no spill device, running in memory"
            ));
            return None;
        };
        let parts = n.div_ceil(budget.max(1)).clamp(2, 256);
        self.note_spill(&format!(
            "{what} of {n} rows exceeds mem_budget; spilling {parts} partitions"
        ));
        Some((spill, parts))
    }

    /// Record a spill that hit a full device (ENOSPC) and left its operator
    /// to run in memory.
    fn note_spill_full(&mut self, what: &str) {
        self.note_degradation(&format!(
            "{what}: spill device full (ENOSPC), running in memory"
        ));
    }

    fn eval_box_inner(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        self.checkpoint(0)?;
        let made = |rows| Tuples::every(Src::Owned(rows), plan.qgm.output_arity(b));
        match &plan.qgm.boxref(b).kind {
            BoxKind::BaseTable { table, .. } => {
                let t = self.db.table(table)?;
                self.checkpoint(t.len() as u64)?;
                self.stats.rows_scanned += t.len() as u64;
                let mut io = PageIo::default();
                let rows = t.read_rows(&mut io)?.into_owned();
                self.note_io(io);
                Ok(made(rows))
            }
            BoxKind::Select => {
                // Each Select evaluation gets a frame of its own, dropped
                // when it returns.
                let saved = std::mem::take(&mut self.memo.frame);
                let r = self.eval_select(plan, b, env);
                self.memo.frame = saved;
                r
            }
            BoxKind::Grouping { group_by } => self.eval_grouping(plan, b, group_by, env).map(made),
            BoxKind::Union { all } => self.eval_union(plan, b, *all, env).map(made),
            BoxKind::OuterJoin => self.eval_outer_join(plan, b, env),
        }
    }

    /// Evaluate a child box, or serve it from where its lowering keeps it:
    /// the run memo, else the cross-query shared-subplan cache. Either way
    /// a hit returns the kept rows, a build evaluates the box and keeps
    /// what it made, and a bypass only evaluates it. The result is a shared
    /// [`RowBatch`]: consumers (and worker threads) share the one
    /// materialization by refcount instead of copying rows.
    fn eval_child(&mut self, plan: &Plan<'_>, b: BoxId, env: Option<&Env<'_>>) -> Result<RowBatch> {
        let Some(keep) = &plan.get(b).keep else {
            return Ok(self.eval_box(plan, b, env)?.into());
        };
        let k = (b, MemoKey::default());
        if keep.run {
            if let Some((rows, _)) = self.memo.get(&k) {
                return Ok(rows);
            }
        }
        // Single-flight across concurrent queries.
        let claim = match (&keep.process, &self.opts.shared_subplans) {
            (Some((shape, versions)), Some(ss)) => ss.cache.claim(shape, versions),
            _ => Claim::Bypass,
        };
        let rows = match claim {
            Claim::Hit(rows) => {
                self.checkpoint(0)?;
                self.stats.shared_subplan_hits += 1;
                self.stats.shared_subplan_rows += rows.len() as u64;
                if let Some(trace) = &mut self.trace {
                    trace.note_shared_hit(b);
                }
                rows
            }
            Claim::Build(guard) => {
                // An error drops the guard, un-claiming the slot so waiters
                // fall through to their local fallback.
                let rows: RowBatch = self.eval_box(plan, b, env)?.into();
                guard.finish(RowBatch::clone(&rows));
                rows
            }
            Claim::Bypass => self.eval_box(plan, b, env)?.into(),
        };
        if keep.run {
            self.memo.keep(k, &rows, 0);
        }
        Ok(rows)
    }

    // ---- the one filter ----------------------------------------------------

    /// The one filter: which candidates satisfy the conjunction `preds`?
    /// Returns their indices, ascending. Under `columnar`, a conjunction
    /// that compiles to kernel form runs [`vector::filter_range`] over a
    /// narrow transpose of the columns it reads (for the candidates of a
    /// base `table`, every row in order, the cached one); anything else
    /// runs the row-wise evaluator. Both evaluators run per morsel under
    /// the same driver and report the same count: one evaluation per
    /// predicate per candidate still alive when the predicate's turn comes.
    /// The caller has already charged the input against the budget.
    fn select_rows(
        &mut self,
        tuples: &Tuples<'_>,
        table: Option<&Table>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<SelVec> {
        let n = tuples.len();
        if preds.is_empty() {
            return Ok((0..n as u32).collect());
        }
        let compiled = if self.opts.columnar {
            vector::compile_preds(preds, layout, env)
        } else {
            None
        };
        let morsels = if let Some(mut compiled) = compiled {
            let cols = vector::pred_columns(&compiled);
            let batch = match table {
                Some(t) => self.table_batch(t, &cols),
                None => {
                    let mut io = PageIo::default();
                    let columns = cols.iter().map(|&c| tuples.column(c, &mut io));
                    let columns = columns.collect::<Result<Vec<_>>>()?;
                    self.note_io(io);
                    Arc::new(ColumnarBatch::from_columns(columns, n))
                }
            };
            vector::remap_preds(&mut compiled, &cols);
            self.for_morsels(n, |lo, hi| {
                let column = |c: usize| batch.column(c);
                Ok(vector::filter_range(
                    &column, &compiled, lo as u32, hi as u32,
                ))
            })?
        } else {
            self.for_morsels(n, |lo, hi| {
                let (mut sel, mut evals, mut scratch) = (Vec::new(), 0u64, Row::empty());
                for i in lo..hi {
                    let env1 = Env::new(layout, tuples.row(i, &mut scratch), env);
                    if qualifies_all(preds, &env1, &mut evals)? {
                        sel.push(i as u32);
                    }
                }
                Ok((sel, evals))
            })?
        };
        let mut sel = Vec::new();
        let mut evals = 0u64;
        for (s, e) in morsels {
            sel.extend(s);
            evals += e;
        }
        self.note_preds(evals);
        Ok(sel)
    }

    /// Keep the candidates that satisfy `preds`, charging them against the
    /// budget first.
    fn filter(
        &mut self,
        tuples: &mut Tuples<'_>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<()> {
        if preds.is_empty() {
            return Ok(());
        }
        self.checkpoint(tuples.len() as u64)?;
        let sel = self.select_rows(tuples, None, layout, preds, env)?;
        self.pick(tuples, &sel)
    }

    /// Keep the candidates `sel` (ascending).
    fn pick(&mut self, tuples: &mut Tuples<'_>, sel: &[u32]) -> Result<()> {
        if sel.len() < tuples.len() {
            let mut io = PageIo::default();
            tuples.pick(sel, &mut io)?;
            self.note_io(io);
        }
        Ok(())
    }
}

/// Short-circuit conjunction: does the row bound by `env` satisfy every
/// predicate? Adds one to `evals` per predicate actually evaluated — the
/// unit [`ExecStats::predicate_evals`] counts in.
fn qualifies_all(preds: &[&Expr], env: &Env<'_>, evals: &mut u64) -> Result<bool> {
    for p in preds {
        *evals += 1;
        if !qualifies(p, env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluate a box's output list for the row bound by `env`.
fn project_row(outputs: &[OutputCol], env: &Env<'_>) -> Result<Row> {
    let mut out = Row(Vec::with_capacity(outputs.len()));
    for o in outputs {
        out.0.push(eval_expr(&o.expr, env)?);
    }
    Ok(out)
}

/// A spilled row that remembers its position in the operator's input.
fn tag_row(i: usize, r: &Row) -> Row {
    let mut tagged = Row(Vec::with_capacity(1 + r.0.len()));
    tagged.0.push(Value::Int(i as i64));
    tagged.0.extend(r.0.iter().cloned());
    tagged
}

/// Split re-read [`tag_row`] rows back into positions and rows.
fn untag_rows(spilled: Vec<Row>) -> Result<(Vec<i64>, Vec<Row>)> {
    let mut origs = Vec::with_capacity(spilled.len());
    let mut rows = Vec::with_capacity(spilled.len());
    for mut r in spilled {
        let Some(&Value::Int(i)) = r.0.first() else {
            return Err(Error::internal("spill: bad row tag"));
        };
        r.0.remove(0);
        origs.push(i);
        rows.push(r);
    }
    Ok((origs, rows))
}
