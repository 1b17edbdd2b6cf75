//! The QGM interpreter.
//!
//! Execution is morsel-driven: per-row operators (filters, projections, the
//! outer-join walk) cut their input into [`MORSEL_ROWS`]-sized ranges and
//! hand them to one driver, `Executor::for_morsels`, which runs them
//! inline or — with `threads > 1` and a large enough input — on a
//! [`WorkerPool`] whose workers claim morsels from a shared counter.
//! Equi-joins go through the one kernel in `join.rs`; grouping
//! aggregates thread-local tables over contiguous slices. Every parallel
//! path merges its outputs in morsel/partition order and reports the same
//! [`ExecStats`] counters as the serial one, so rows, row order and work
//! counters never depend on the thread count.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use decorr_common::columnar::{self, ColumnarBatch, SelVec};
use decorr_common::{
    Budget, CancelToken, Error, ExecStats, FxHashMap, FxHashSet, Result, Row, RowBatch, Value,
    WorkerPool, MORSEL_ROWS,
};
use decorr_qgm::{BinOp, BoxId, BoxKind, Expr, OutputCol, Qgm, QuantId, QuantKind, UnOp};
use decorr_stats::access;
use decorr_storage::{Bound, Database, PageIo, SpillManager, Stripes, Table};

use crate::env::{Env, Layout};
use crate::eval::{eval_expr, qualifies};
use crate::group::{
    build_groups, grand_total_cols, grand_total_groups, merge_groups, AggSlot, Group, GroupKeys,
};
use crate::join::{self, EquiKeys, JoinSide};
use crate::scan::ScanSel;
use crate::subplan::{SharedSubplans, SubplanLookup, SubplanShape};
use crate::trace::{ExecTrace, JoinStrategy};
use crate::tuple::{Src, Tuples};
use crate::vector;

mod outer;

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
    /// Starburst behaviour in the paper's experiments).
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
    /// Memory budget in rows. A hash join whose build side — or a GROUP
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
    /// (`false`, the reference that differential tests and the benchmark's
    /// `bless` compare against). The option selects *evaluators* only:
    /// both settings run the same morsel driver, the same join kernel and
    /// the same grouping code, and produce byte-identical rows and
    /// identical [`ExecStats`].
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
    /// bindings are served from a per-run memo instead of re-executing
    /// (the paper's "3954 invocations of which only 2138 are distinct").
    /// Hits and misses are counted in
    /// [`ExecStats::subquery_memo_hits`] / [`ExecStats::subquery_distinct_invocations`];
    /// memo storage is charged against [`ExecOptions::mem_budget`] and
    /// falls back to unmemoized execution when the ledger is exhausted.
    /// `false` reproduces the naive once-per-binding executor exactly
    /// (results *and* stats) for differential tests and `harness ni-bench`.
    pub ni_memo: bool,
    /// Set-oriented nested iteration (`true`, the default): lateral joins
    /// group their outer batch by correlation key so each distinct binding
    /// evaluates once and results gather back in the original row order,
    /// and correlated equality scans without an index build a hash
    /// partition over the correlation column once and probe per binding
    /// (an executor-level magic-lite). Rows and row order are byte-
    /// identical to the per-row path; only the work counters shrink.
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

impl ExecOptions {
    /// The naive nested-iteration configuration: no correlation-key memo,
    /// no batched/set-oriented invocation — the executor exactly as it was
    /// before memoization existed. `harness ni-bench` and the differential
    /// property tests compare against this.
    pub fn naive_ni(self) -> Self {
        ExecOptions { ni_memo: false, ni_batch: false, ..self }
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
    /// Cross-run memo for uncorrelated shared boxes (only with
    /// `memoize_cse`).
    cse_cache: FxHashMap<BoxId, RowBatch>,
    /// Lazily computed "is this subtree correlated" map.
    corr_cache: FxHashMap<BoxId, bool>,
    /// Per-box operator trace, populated when tracing is enabled.
    trace: Option<ExecTrace>,
    /// The boxes currently being evaluated (innermost last); used to
    /// attribute predicate evaluations and join decisions to a box.
    box_stack: Vec<BoxId>,
    /// Per-run cache of base tables transposed into columnar batches,
    /// keyed by `(table name, snapshot version, columns)`. The database is
    /// immutable for the duration of a run, and correlated
    /// (nested-iteration) plans re-scan the same table once per outer
    /// binding — the transpose is paid once. The version in the key makes
    /// the entries safe to promote into the cross-query
    /// [`ExecOptions::shared_cache`] of a long-lived process.
    col_cache: FxHashMap<(String, u64, Vec<usize>), Arc<ColumnarBatch>>,
    /// The per-run subquery memo, keyed `(box, scope, binding tuple)`.
    ///
    /// With [`ExecOptions::ni_memo`] the scope is always 0 and the binding
    /// tuple is the box's correlation signature resolved under the current
    /// environment: one entry per *distinct* binding for the whole run.
    /// Without it, entries are keyed by the enclosing Select evaluation's
    /// scope id with an empty tuple — exactly the legacy per-`eval_select`
    /// cache for boxes uncorrelated with the block being evaluated.
    ///
    /// Each entry also holds the logical invocations its execution made
    /// of the subqueries nested inside it, which a hit counts again.
    subq_memo: FxHashMap<(BoxId, u64, MemoKey), (RowBatch, u64)>,
    /// `(box, scope)` pairs of children not correlated to the block being
    /// evaluated that were invoked in that scope, so the memo counts them
    /// once per enclosing evaluation, as the naive executor does.
    scope_seen: FxHashSet<(BoxId, u64)>,
    /// Rows held by `subq_memo` entries with scope 0, charged against
    /// [`ExecOptions::mem_budget`]: once the ledger is exhausted new
    /// results are returned unmemoized (graceful fall-back, no error).
    memo_rows: usize,
    /// Plan-time correlation signatures, computed once per box.
    sig_cache: FxHashMap<BoxId, Arc<CorrSig>>,
    /// Scope id of the innermost Select evaluation (legacy memo keying).
    cur_scope: u64,
    /// Scope id allocator; 0 is reserved for run-lifetime memo entries.
    scope_counter: u64,
    /// Set-oriented probe indexes: hash partition of one base-table column
    /// by `eq_key` value, keyed `(table, snapshot version, column)`.
    corr_index: FxHashMap<CorrIndexKey, Arc<FxHashMap<Value, Vec<u32>>>>,
    /// Correlated-equality scan shapes seen once already: the second scan
    /// of the same shape builds the probe index, so one-shot scans never
    /// pay the build pass.
    corr_scan_seen: FxHashSet<CorrIndexKey>,
    /// Per Select box, the references its subquery and lateral children
    /// make to its quantifiers (their free references), computed once.
    below_refs: FxHashMap<BoxId, Arc<[(QuantId, usize)]>>,
}

/// Identity of one probe-indexable scan shape: `(table, snapshot version,
/// probed column)`.
type CorrIndexKey = (String, u64, usize);

/// What index nested loops find: pairs `(candidate, k)` and the table
/// positions the `k` index.
type Probed = (Vec<(u32, u32)>, Vec<u32>);

/// A correlated subtree's plan-time correlation signature: the outer
/// columns it reads (its free references, in the deterministic
/// `Qgm::free_refs` order) plus the binding-key normalization the memo may
/// safely apply.
struct CorrSig {
    refs: Vec<(QuantId, usize)>,
    /// Every free-reference occurrence in the subtree sits under a SQL
    /// comparison operand (`= <> < <= > >=`, reached only through
    /// arithmetic), so binding classes SQL comparison cannot distinguish —
    /// NULL vs NaN (both compare to nothing) and `-0.0` vs `0.0` — provably
    /// produce identical results and the key normalizes `eq_key`-style,
    /// exactly like a hash-join key.
    /// Otherwise the key keeps raw values under [`Value`]'s total
    /// equality, which is always sound: total-equal bindings are
    /// indistinguishable to the interpreter.
    sql_norm: bool,
}

impl CorrSig {
    /// The memo key for one binding: each free reference resolved through
    /// the environment chain, normalized per `sql_norm`. `None` when a
    /// reference is unbound (the caller falls back to direct evaluation).
    fn key_under(&self, env: &Env<'_>) -> Option<MemoKey> {
        let mut key = Vec::with_capacity(self.refs.len());
        for &(q, c) in &self.refs {
            let v = env.lookup(q, c)?;
            key.push(if self.sql_norm {
                // NULL and NaN fold to one class (both match nothing under
                // SQL comparison), -0.0 folds onto 0.0.
                v.eq_key().unwrap_or(Value::Null)
            } else {
                v.clone()
            });
        }
        Some(MemoKey(key))
    }
}

/// Exact binding-tuple key for the subquery memo.
///
/// [`Value`]'s own `Eq`/`Hash` follow the total order, which unifies `Int`
/// and `Double` *numerically through `f64`* — lossy past 2^53, so two
/// distinguishable bindings could share a map slot. A memo may always
/// over-split (a missed hit just re-executes) but may never falsely merge,
/// so keys compare exactly per variant: `Int` by integer, `Double` by
/// bits. `-0.0`/`0.0` and NULL/NaN folding, where provably safe, happens
/// *before* the key is built (see [`CorrSig::sql_norm`]).
#[derive(Clone)]
struct MemoKey(Vec<Value>);

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
                (Value::Null, Value::Null) => true,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => false,
            })
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Null => state.write_u8(0),
                Value::Bool(b) => {
                    state.write_u8(1);
                    state.write_u8(*b as u8);
                }
                Value::Int(i) => {
                    state.write_u8(2);
                    state.write_i64(*i);
                }
                Value::Double(d) => {
                    state.write_u8(3);
                    state.write_u64(d.to_bits());
                }
                Value::Str(s) => {
                    state.write_u8(4);
                    state.write(s.as_bytes());
                    state.write_u8(0xff);
                }
            }
        }
    }
}

impl MemoKey {
    /// The empty binding tuple (uncorrelated / legacy-scoped entries).
    fn empty() -> Self {
        MemoKey(Vec::new())
    }
}

/// Does every free-reference occurrence in `e` sit in a SQL-comparison
/// context? `safe` says the current position is reached only through
/// comparison operands and value-preserving arithmetic (`+ - *` and unary
/// negation — `/` is excluded because `NULL / 0` is NULL while `NaN / 0`
/// errors, so NULL~NaN folding would change behaviour). Everything else —
/// `IS [NOT] NULL`, `<=>`, `COALESCE`, aggregates, boolean structure —
/// observes the raw value and resets the context.
fn cmp_context_only(e: &Expr, is_free: &impl Fn(QuantId) -> bool, safe: bool) -> bool {
    match e {
        Expr::Col { quant, .. } => !is_free(*quant) || safe,
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Binary { op, left, right } => {
            let inner = match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => true,
                BinOp::Add | BinOp::Sub | BinOp::Mul => safe,
                _ => false,
            };
            cmp_context_only(left, is_free, inner) && cmp_context_only(right, is_free, inner)
        }
        Expr::Unary { op, expr } => {
            let inner = matches!(op, UnOp::Neg) && safe;
            cmp_context_only(expr, is_free, inner)
        }
        Expr::Func { args, .. } => args.iter().all(|a| cmp_context_only(a, is_free, false)),
        Expr::Agg { arg, .. } => arg
            .as_ref()
            .is_none_or(|a| cmp_context_only(a, is_free, false)),
    }
}

impl<'a> Executor<'a> {
    pub fn new(db: &'a Database, opts: ExecOptions) -> Self {
        let pool = WorkerPool::new(opts.threads);
        Executor {
            db,
            opts,
            stats: ExecStats::new(),
            pool,
            cse_cache: FxHashMap::default(),
            corr_cache: FxHashMap::default(),
            trace: None,
            box_stack: Vec::new(),
            col_cache: FxHashMap::default(),
            subq_memo: FxHashMap::default(),
            scope_seen: FxHashSet::default(),
            memo_rows: 0,
            sig_cache: FxHashMap::default(),
            cur_scope: 0,
            scope_counter: 0,
            corr_index: FxHashMap::default(),
            corr_scan_seen: FxHashSet::default(),
            below_refs: FxHashMap::default(),
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

    /// Execute the graph's top box.
    pub fn run(&mut self, qgm: &Qgm) -> Result<Vec<Row>> {
        let rows = self.eval_box(qgm, qgm.top(), None)?;
        self.stats.output_rows += rows.len() as u64;
        Ok(rows)
    }

    fn is_correlated(&mut self, qgm: &Qgm, b: BoxId) -> bool {
        if let Some(&c) = self.corr_cache.get(&b) {
            return c;
        }
        let c = !qgm.free_refs(b).is_empty();
        self.corr_cache.insert(b, c);
        c
    }

    /// The plan-time correlation signature of the subtree rooted at `b`,
    /// computed once per box: its free references plus whether every
    /// occurrence sits in a SQL-comparison context (see [`CorrSig`]).
    fn corr_sig(&mut self, qgm: &Qgm, b: BoxId) -> Arc<CorrSig> {
        if let Some(s) = self.sig_cache.get(&b) {
            return Arc::clone(s);
        }
        let refs = qgm.free_refs(b);
        let local = qgm.subtree_quants(b);
        let is_free = |q: QuantId| !local.contains(&q);
        let mut sql_norm = !refs.is_empty();
        if sql_norm {
            for bb in qgm.reachable_boxes(b) {
                qgm.boxref(bb).for_each_expr(|e| {
                    if !cmp_context_only(e, &is_free, false) {
                        sql_norm = false;
                    }
                });
            }
        }
        let sig = Arc::new(CorrSig { refs, sql_norm });
        self.sig_cache.insert(b, Arc::clone(&sig));
        sig
    }

    /// Count one subquery invocation that executed the subtree.
    fn count_subq_exec(&mut self) {
        self.stats.subquery_invocations += 1;
        self.stats.subquery_distinct_invocations += 1;
    }

    /// Count one subquery invocation served from the memo: still a logical
    /// invocation (in stats *and* in the child's trace entry), but no
    /// execution happened — and so were the `nested` invocations the
    /// execution it stands for made of the subqueries inside it.
    fn count_subq_hit(&mut self, child: BoxId, nested: u64) {
        self.stats.subquery_invocations += 1 + nested;
        self.stats.subquery_memo_hits += 1 + nested;
        if let Some(trace) = &mut self.trace {
            trace.note_memo_hit(child);
        }
    }

    /// Evaluate a subquery child for the current binding through the
    /// per-run correlation-key memo.
    ///
    /// `correlated_here` says the child reads columns bound by the block
    /// currently being evaluated — i.e. each candidate row is a *logical*
    /// invocation (always counted in `subquery_invocations`, hit or miss).
    /// Children correlated only to outer blocks are constants for the
    /// whole enclosing evaluation: one logical invocation per enclosing
    /// evaluation, however many of them the run-lifetime memo serves.
    fn memoized_child(
        &mut self,
        qgm: &Qgm,
        child: BoxId,
        env2: &Env<'_>,
        correlated_here: bool,
    ) -> Result<RowBatch> {
        if !self.opts.ni_memo {
            // Naive nested iteration: correlated-here children execute per
            // call; everything else caches per enclosing Select evaluation
            // — the executor exactly as it was before the memo existed.
            if correlated_here {
                self.count_subq_exec();
                return Ok(self.eval_box(qgm, child, Some(env2))?.into());
            }
            let k = (child, self.cur_scope, MemoKey::empty());
            if let Some((hit, _)) = self.subq_memo.get(&k) {
                return Ok(RowBatch::clone(hit));
            }
            self.count_subq_exec();
            let rows: RowBatch = self.eval_box(qgm, child, Some(env2))?.into();
            self.subq_memo.insert(k, (RowBatch::clone(&rows), 0));
            return Ok(rows);
        }
        let sig = self.corr_sig(qgm, child);
        let Some(key) = sig.key_under(env2) else {
            // An unbound free reference leaves nothing sound to key on.
            self.count_subq_exec();
            return Ok(self.eval_box(qgm, child, Some(env2))?.into());
        };
        let k = (child, 0u64, key);
        let first_here = !correlated_here && self.scope_seen.insert((child, self.cur_scope));
        if let Some((hit, nested)) = self.subq_memo.get(&k).cloned() {
            if correlated_here || first_here {
                self.count_subq_hit(child, nested);
            }
            return Ok(hit);
        }
        self.count_subq_exec();
        let before = self.stats.subquery_invocations;
        let rows: RowBatch = self.eval_box(qgm, child, Some(env2))?.into();
        let nested = self.stats.subquery_invocations - before;
        // Charge the memo against the memory budget; once the ledger is
        // exhausted, fall back to unmemoized execution (the query keeps
        // running, later duplicates just re-execute) — except for a child
        // not correlated here, which the naive executor caches for the
        // enclosing evaluation uncharged too.
        let fits = self
            .opts
            .mem_budget
            .is_none_or(|mb| self.memo_rows + rows.len() <= mb);
        if fits {
            self.memo_rows += rows.len();
        }
        if fits || !correlated_here {
            self.subq_memo.insert(k, (RowBatch::clone(&rows), nested));
        }
        Ok(rows)
    }

    // ---- box dispatch ----------------------------------------------------

    /// Evaluate a box, recording an operator-trace entry when tracing is
    /// on. Wall time is inclusive of children (the box stack has no
    /// double-counting concern: the QGM is a DAG, a box never recursively
    /// evaluates itself).
    fn eval_box(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let eval = |ex: &mut Self| {
            let tuples = ex.eval_box_inner(qgm, b, env)?;
            ex.rows_of(tuples)
        };
        self.traced(b, eval, Vec::len)
    }

    /// Evaluate a child for a consumer that reads candidate tuples — a
    /// Grouping, an outer join's build side: a Select's or an outer join's
    /// candidates as they stand (traced as `eval_box` on it would be), and
    /// any other box, or one a cache wants whole, as rows.
    fn eval_tuples(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Tuples<'a>> {
        if self.cached(qgm, b)
            || !matches!(qgm.boxref(b).kind, BoxKind::Select | BoxKind::OuterJoin)
        {
            let rows = self.eval_child(qgm, b, env)?;
            return Ok(Tuples::every(Src::Batch(rows), qgm.output_arity(b)));
        }
        self.traced(b, |ex| ex.eval_box_inner(qgm, b, env), Tuples::len)
    }

    /// Is box `b` served whole from a cache — the CSE memo or the
    /// shared-subplan cache — rather than evaluated?
    fn cached(&mut self, qgm: &Qgm, b: BoxId) -> bool {
        let memo = self.opts.memoize_cse
            && !matches!(qgm.boxref(b).kind, BoxKind::BaseTable { .. })
            && !self.is_correlated(qgm, b);
        memo || (self.opts.shared_subplans.as_ref()).is_some_and(|ss| ss.marks.contains_key(&b))
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
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.entry(b).predicate_evals += n;
            }
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
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.note_degradation(b, reason);
            }
        }
    }

    /// Record an over-budget operator that spilled to disk (stats counter
    /// + trace entry on the current box).
    fn note_spill(&mut self, reason: &str) {
        self.stats.spills += 1;
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.note_spill(b, reason);
            }
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

    fn eval_box_inner(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Tuples<'a>> {
        self.checkpoint(0)?;
        let made = |rows| Tuples::every(Src::Owned(rows), qgm.output_arity(b));
        match &qgm.boxref(b).kind {
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
                // Each Select evaluation gets a fresh scope id; with the
                // correlation-key memo off, outer-correlated subquery
                // results cache per enclosing evaluation (legacy scope).
                self.scope_counter += 1;
                let saved = std::mem::replace(&mut self.cur_scope, self.scope_counter);
                let r = self.eval_select(qgm, b, env);
                self.cur_scope = saved;
                r
            }
            BoxKind::Grouping { .. } => self.eval_grouping(qgm, b, env).map(made),
            BoxKind::Union { all } => self.eval_union(qgm, b, *all, env).map(made),
            BoxKind::OuterJoin => self.eval_outer_join(qgm, b, env),
        }
    }

    /// Evaluate a child box, consulting the cross-run CSE memo for
    /// uncorrelated shared boxes when enabled. The result is a shared
    /// [`RowBatch`]: consumers (and worker threads) share the one
    /// materialization by refcount instead of copying rows.
    fn eval_child(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<RowBatch> {
        let memoizable = self.opts.memoize_cse
            && !matches!(qgm.boxref(b).kind, BoxKind::BaseTable { .. })
            && !self.is_correlated(qgm, b);
        if memoizable {
            if let Some(hit) = self.cse_cache.get(&b) {
                return Ok(RowBatch::clone(hit));
            }
        }
        // Cross-query shared subplans: a marked box (SUPP/MAGIC/DCO/CI or
        // a multi-referenced CSE) is served from — or materialized into —
        // the process-wide cache, single-flight across concurrent queries.
        let shared = self.opts.shared_subplans.as_ref().and_then(|ss| {
            let key = self.subplan_key(ss.marks.get(&b)?)?;
            Some((ss.cache.clone(), key))
        });
        if let Some((cache, key)) = shared {
            match cache.lookup_or_begin(&key) {
                SubplanLookup::Hit(rows) => {
                    self.checkpoint(0)?;
                    self.stats.shared_subplan_hits += 1;
                    self.stats.shared_subplan_rows += rows.len() as u64;
                    if let Some(trace) = &mut self.trace {
                        trace.note_shared_hit(b);
                    }
                    if memoizable {
                        self.cse_cache.insert(b, RowBatch::clone(&rows));
                    }
                    return Ok(rows);
                }
                SubplanLookup::Build(guard) => {
                    // An error drops the guard, un-claiming the slot so
                    // waiters fall through to their local fallback.
                    let rows: RowBatch = self.eval_box(qgm, b, env)?.into();
                    guard.finish(RowBatch::clone(&rows));
                    if memoizable {
                        self.cse_cache.insert(b, RowBatch::clone(&rows));
                    }
                    return Ok(rows);
                }
                SubplanLookup::Bypass => {}
            }
        }
        let rows: RowBatch = self.eval_box(qgm, b, env)?.into();
        if memoizable {
            self.cse_cache.insert(b, RowBatch::clone(&rows));
        }
        Ok(rows)
    }

    /// The full shared-subplan cache key for a marked subtree: canonical
    /// shape plus `table@version` for every base table it reads. `None`
    /// (skip caching) if a table is gone from this snapshot.
    fn subplan_key(&self, m: &SubplanShape) -> Option<String> {
        use std::fmt::Write as _;
        let mut key = m.shape.clone();
        for t in &m.tables {
            let version = self.db.table(t).ok()?.version();
            let _ = write!(key, ";{t}@{version}");
        }
        Some(key)
    }

    // ---- Select boxes ------------------------------------------------------

    fn eval_select(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Tuples<'a>> {
        let bx = qgm.boxref(b);
        let local: FxHashSet<QuantId> = bx.quants.iter().copied().collect();
        let foreach: Vec<QuantId> = bx
            .quants
            .iter()
            .copied()
            .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
            .collect();
        let subquants: Vec<QuantId> = bx
            .quants
            .iter()
            .copied()
            .filter(|&q| qgm.quant(q).kind != QuantKind::Foreach)
            .collect();

        // Classify predicates. `consumed[i]` marks predicates already
        // applied at a scan or join step.
        let preds: &[Expr] = &bx.preds;
        let mut consumed = vec![false; preds.len()];

        let local_refs = |e: &Expr| -> Vec<QuantId> {
            e.referenced_quants()
                .into_iter()
                .filter(|q| local.contains(q))
                .collect()
        };
        let refs_subquery =
            |e: &Expr| -> bool { local_refs(e).iter().any(|q| subquants.contains(q)) };

        // Constant predicates (no local references): check once.
        {
            let empty_layout = Layout::new();
            let empty_row = Row::empty();
            let env0 = Env::new(&empty_layout, &empty_row, env);
            for (i, p) in preds.iter().enumerate() {
                if local_refs(p).is_empty() {
                    consumed[i] = true;
                    self.note_preds(1);
                    if !qualifies(p, &env0)? {
                        return Ok(Tuples::every(Src::Owned(Vec::new()), bx.outputs.len()));
                    }
                }
            }
        }

        // Laterality: a child referencing quantifiers of *this* box must be
        // re-evaluated per row of the quantifiers it references.
        let is_lateral: FxHashMap<QuantId, bool> = foreach
            .iter()
            .map(|&q| {
                let child = qgm.quant(q).input;
                let lateral = qgm
                    .free_refs(child)
                    .iter()
                    .any(|(fq, _)| local.contains(fq));
                (q, lateral)
            })
            .collect();

        // Evaluate non-lateral children up front, applying their
        // single-quantifier predicates (with index assistance on base
        // tables). Unfiltered base tables stay *deferred*: at join time
        // they may be driven through an index (index nested loops) instead
        // of being scanned — the access path Starburst picks when a small
        // binding set joins a large indexed table.
        let mut inputs: FxHashMap<QuantId, Tuples<'a>> = FxHashMap::default();
        let mut deferred: FxHashMap<QuantId, String> = FxHashMap::default();
        for &q in &foreach {
            if is_lateral[&q] {
                continue;
            }
            let mut applicable: Vec<usize> = Vec::new();
            for (i, p) in preds.iter().enumerate() {
                if consumed[i] || refs_subquery(p) {
                    continue;
                }
                let lr = local_refs(p);
                if !lr.is_empty() && lr.iter().all(|&r| r == q) {
                    applicable.push(i);
                }
            }
            if applicable.is_empty() {
                if let BoxKind::BaseTable { table, .. } = &qgm.boxref(qgm.quant(q).input).kind {
                    if !self.db.table(table)?.indexes().is_empty() {
                        deferred.insert(q, table.clone());
                        continue;
                    }
                }
            }
            let input = self.scan_quant(qgm, b, q, &applicable, env)?;
            for i in &applicable {
                consumed[*i] = true;
            }
            inputs.insert(q, input);
        }

        // Greedy join over the Foreach quantifiers. A Select with none
        // ranges over exactly one (empty) candidate.
        let mut layout = Layout::new();
        let mut tuples = Tuples::unit();
        let mut bound: Vec<QuantId> = Vec::new();
        let mut remaining: Vec<QuantId> = foreach.clone();
        // Scalar quantifiers already materialized as row columns.
        let mut scalars_bound: FxHashSet<QuantId> = FxHashSet::default();

        // Estimated input sizes for the greedy order: materialized children
        // by their (filtered) row count, deferred base tables by table size.
        let mut sizes: FxHashMap<QuantId, usize> = FxHashMap::default();
        for (&q, r) in &inputs {
            sizes.insert(q, r.len());
        }
        for (&q, table) in &deferred {
            sizes.insert(q, self.db.table(table)?.len());
        }

        while !remaining.is_empty() {
            let next = self.pick_next_quant(
                qgm,
                &remaining,
                &bound,
                &local,
                &is_lateral,
                &sizes,
                preds,
                &consumed,
                &local_refs,
            )?;
            remaining.retain(|&q| q != next);
            let child_arity = qgm.output_arity(qgm.quant(next).input);

            // Predicates that become applicable once `next` is bound.
            let mut applicable: Vec<usize> = Vec::new();
            for (i, p) in preds.iter().enumerate() {
                if consumed[i] || refs_subquery(p) {
                    continue;
                }
                let lr = local_refs(p);
                let ok = lr
                    .iter()
                    .all(|r| bound.contains(r) || *r == next || scalars_bound.contains(r));
                if ok && lr.contains(&next) {
                    applicable.push(i);
                }
            }

            let running = std::mem::replace(&mut tuples, Tuples::unit());
            tuples = if is_lateral[&next] {
                self.join_lateral(qgm, next, running, &layout, env)?
            } else if bound.is_empty() {
                // The first input in join order is the running candidate
                // set as it stands. A deferred table has no bound row to
                // drive its index: scan it.
                match inputs.remove(&next) {
                    Some(scanned) => scanned,
                    None => self.scan_quant(qgm, b, next, &[], env)?,
                }
            } else if let Some(table) = deferred.get(&next) {
                let applicable = &mut applicable;
                self.join_deferred(qgm, next, table, running, &layout, preds, applicable, env)?
            } else {
                let right = inputs.remove(&next).expect("an input is joined once");
                let applicable = &mut applicable;
                self.join_step(qgm, next, running, &layout, right, preds, applicable, env)?
            };
            layout.push(next, child_arity);
            // Residual applicable predicates (non-equi or not used as keys).
            let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
            self.filter(&mut tuples, &layout, &kept, env)?;
            for i in applicable {
                consumed[i] = true;
            }
            bound.push(next);

            // Early scalar-subquery placement.
            if self.opts.scalar_placement == ScalarPlacement::EarliestBinding {
                for &sq in &subquants {
                    if scalars_bound.contains(&sq) || qgm.quant(sq).kind != QuantKind::Scalar {
                        continue;
                    }
                    let child = qgm.quant(sq).input;
                    let deps: Vec<QuantId> = qgm
                        .free_refs(child)
                        .into_iter()
                        .map(|(fq, _)| fq)
                        .filter(|fq| local.contains(fq))
                        .collect();
                    if deps.iter().all(|d| bound.contains(d)) {
                        tuples = self.append_scalar_column(qgm, sq, tuples, &layout, env)?;
                        layout.push(sq, 1);
                        scalars_bound.insert(sq);
                    }
                }
            }
        }

        // End stage: remaining predicates (those over subquery quantifiers
        // plus anything never consumed) are evaluated per candidate row.
        let remaining_preds: Vec<&Expr> = preds
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed[*i])
            .map(|(_, p)| p)
            .collect();

        // Scalar quantifiers still unbound but referenced by remaining
        // predicates or outputs get appended per candidate row.
        let mut needed_scalars: Vec<QuantId> = Vec::new();
        let note_scalar = |e: &Expr, needed: &mut Vec<QuantId>| {
            for r in e.referenced_quants() {
                if subquants.contains(&r)
                    && qgm.quant(r).kind == QuantKind::Scalar
                    && !scalars_bound.contains(&r)
                    && !needed.contains(&r)
                {
                    needed.push(r);
                }
            }
        };
        for p in &remaining_preds {
            note_scalar(p, &mut needed_scalars);
        }
        for o in &bx.outputs {
            note_scalar(&o.expr, &mut needed_scalars);
        }

        // Existential / All quantifier groups: map quant -> predicate
        // indices among remaining_preds.
        let mut quant_groups: Vec<(QuantId, Vec<&Expr>)> = Vec::new();
        for &sq in &subquants {
            let kind = qgm.quant(sq).kind;
            if kind == QuantKind::Existential || kind == QuantKind::All {
                quant_groups.push((sq, Vec::new()));
            }
        }
        let mut plain_preds: Vec<&Expr> = Vec::new();
        for p in &remaining_preds {
            let quantified: Vec<QuantId> = local_refs(p)
                .into_iter()
                .filter(|q| matches!(qgm.quant(*q).kind, QuantKind::Existential | QuantKind::All))
                .collect();
            match quantified.len() {
                0 => plain_preds.push(p),
                1 => {
                    let g = quant_groups
                        .iter_mut()
                        .find(|(q, _)| *q == quantified[0])
                        .expect("group exists");
                    g.1.push(p);
                }
                _ => {
                    return Err(Error::internal(
                        "predicate references multiple quantified subqueries".to_string(),
                    ))
                }
            }
        }

        // The end stage runs step by step over the whole candidate set.
        // Scalar subqueries still needed become columns first (one logical
        // invocation per candidate); the plain predicates then filter
        // through the same driver as every other filter, quantified groups
        // are checked per surviving candidate, and the survivors project.
        // After decorrelation only the filter and the projection remain.
        for &sq in &needed_scalars {
            tuples = self.append_scalar_column(qgm, sq, tuples, &layout, env)?;
            layout.push(sq, 1);
        }
        if !plain_preds.is_empty() || !quant_groups.is_empty() {
            self.settle(&mut tuples)?;
            let mut sel = self.select_rows(&tuples, None, &layout, &plain_preds, env)?;
            if !quant_groups.is_empty() {
                let mut kept = Vec::with_capacity(sel.len());
                let mut scratch = Row::empty();
                for (n, &i) in sel.iter().enumerate() {
                    if n % MORSEL_ROWS == 0 {
                        self.checkpoint(0)?;
                    }
                    let env2 = Env::new(&layout, tuples.row(i as usize, &mut scratch), env);
                    let mut sat = true;
                    for (sq, group) in &quant_groups {
                        if !self.quantifier_holds(qgm, *sq, group, &env2)? {
                            sat = false;
                            break;
                        }
                    }
                    if sat {
                        kept.push(i);
                    }
                }
                sel = kept;
            }
            self.pick(&mut tuples, &sel)?;
        }
        self.project(tuples, &bx.outputs, bx.distinct, &layout, env)
    }

    /// Does the candidate row bound by `env2` satisfy an Existential / All
    /// quantifier over the predicates `group`? Existential stops at the
    /// first subquery row satisfying all of them (an empty group asks only
    /// for a row to exist); All stops at the first row failing one.
    fn quantifier_holds(
        &mut self,
        qgm: &Qgm,
        sq: QuantId,
        group: &[&Expr],
        env2: &Env<'_>,
    ) -> Result<bool> {
        let sub_rows = self.subquery_rows(qgm, sq, env2)?;
        let mut q_layout = Layout::new();
        q_layout.push(sq, qgm.output_arity(qgm.quant(sq).input));
        let mut sat = qgm.quant(sq).kind == QuantKind::All;
        let mut evals = 0u64;
        for r in sub_rows.iter() {
            let ok = qualifies_all(group, &Env::new(&q_layout, r, Some(env2)), &mut evals)?;
            if ok != sat {
                sat = ok;
                break;
            }
        }
        self.note_preds(evals);
        Ok(sat)
    }

    /// A box's output: its candidates through its output list. Plain
    /// columns under kernels — and the identity, whichever evaluator is on
    /// — stay candidates, re-mapped with nothing copied; anything else, and
    /// DISTINCT, become rows here, in morsels.
    fn project(
        &mut self,
        mut tuples: Tuples<'a>,
        outputs: &[OutputCol],
        distinct: bool,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let offsets = vector::compile_projection(outputs.iter().map(|o| &o.expr), layout);
        let identity = |offs: &Vec<usize>| offs.iter().copied().eq(0..layout.width());
        let offsets = offsets.filter(|offs| self.opts.columnar || identity(offs));
        let rows = match offsets {
            Some(offs) => {
                tuples.project(&offs);
                if !distinct {
                    return Ok(tuples);
                }
                self.rows_of(tuples)?
            }
            None => {
                self.settle(&mut tuples)?;
                let morsels = self.for_morsels(tuples.len(), |lo, hi| {
                    let mut scratch = Row::empty();
                    let row = |i| {
                        project_row(outputs, &Env::new(layout, tuples.row(i, &mut scratch), env))
                    };
                    (lo..hi).map(row).collect::<Result<Vec<Row>>>()
                })?;
                morsels.into_iter().flatten().collect()
            }
        };
        let rows = if distinct { dedup_rows(rows) } else { rows };
        Ok(Tuples::every(Src::Owned(rows), outputs.len()))
    }

    /// Pick the next Foreach quantifier to join: among the candidates whose
    /// lateral dependencies are satisfied, prefer ones connected to the
    /// bound set by an equi-join predicate, breaking ties by smaller input
    /// cardinality (a standard greedy join order; the paper's Section 7
    /// notes magic decorrelation inherits whatever join order the optimizer
    /// picked).
    #[allow(clippy::too_many_arguments)]
    fn pick_next_quant(
        &self,
        qgm: &Qgm,
        remaining: &[QuantId],
        bound: &[QuantId],
        local: &FxHashSet<QuantId>,
        is_lateral: &FxHashMap<QuantId, bool>,
        sizes: &FxHashMap<QuantId, usize>,
        preds: &[Expr],
        consumed: &[bool],
        local_refs: &dyn Fn(&Expr) -> Vec<QuantId>,
    ) -> Result<QuantId> {
        let mut best: Option<(bool, usize, QuantId)> = None; // (connected, size)
        for &q in remaining {
            if is_lateral[&q] {
                let child = qgm.quant(q).input;
                let deps: Vec<QuantId> = qgm
                    .free_refs(child)
                    .into_iter()
                    .map(|(fq, _)| fq)
                    .filter(|fq| local.contains(fq))
                    .collect();
                if !deps.iter().all(|d| bound.contains(d)) {
                    continue;
                }
            }
            let connected = !bound.is_empty()
                && preds.iter().enumerate().any(|(i, p)| {
                    if consumed[i] {
                        return false;
                    }
                    let lr = local_refs(p);
                    lr.contains(&q)
                        && lr.iter().all(|r| *r == q || bound.contains(r))
                        && lr.iter().any(|r| bound.contains(r))
                });
            let size = sizes.get(&q).copied().unwrap_or(0);
            let cand = (connected, size, q);
            best = Some(match best {
                None => cand,
                Some(cur) => {
                    // connected beats unconnected; then smaller size wins.
                    let better = (cand.0 && !cur.0) || (cand.0 == cur.0 && cand.1 < cur.1);
                    if better {
                        cand
                    } else {
                        cur
                    }
                }
            });
        }
        best.map(|(_, _, q)| q).ok_or_else(|| {
            Error::internal("no joinable quantifier (cyclic lateral dependency?)".to_string())
        })
    }

    /// Scan/evaluate a non-lateral Foreach quantifier's input with its
    /// single-quantifier predicates (`applicable`, among those of the
    /// Select `b` that owns `q`), using an index when the input is a base
    /// table and a predicate binds an indexed column to a value computable
    /// before the scan.
    fn scan_quant(
        &mut self,
        qgm: &Qgm,
        b: BoxId,
        q: QuantId,
        applicable: &[usize],
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let preds: &[Expr] = &qgm.boxref(b).preds;
        let child = qgm.quant(q).input;
        if let BoxKind::BaseTable { table, .. } = &qgm.boxref(child).kind {
            let t = self.db.table(table)?;
            let read = match t.is_paged() {
                true => self.cols_read_past_scan(qgm, b, q, applicable),
                false => Vec::new(),
            };
            return self.scan_table(t, q, preds, applicable, read, env);
        }

        // The child's batch, shared: its survivors are positions into it.
        let rows = self.eval_child(qgm, child, env)?;
        let mut input = Tuples::every(Src::Batch(rows), qgm.output_arity(child));
        let mut q_layout = Layout::new();
        q_layout.push(q, qgm.output_arity(child));
        let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
        self.filter(&mut input, &q_layout, &kept, env)?;
        Ok(input)
    }

    /// The columns of quantifier `q` that anything reads once its scan has
    /// applied the predicates `applicable`: the other predicates and the
    /// outputs of the Select `b` that owns it, and the subqueries and
    /// lateral children correlated to it. A reference to `q` can sit
    /// nowhere else, so a paged scan need not fetch any other column.
    fn cols_read_past_scan(
        &mut self,
        qgm: &Qgm,
        b: BoxId,
        q: QuantId,
        applicable: &[usize],
    ) -> Vec<usize> {
        let bx = qgm.boxref(b);
        let below = Arc::clone(self.below_refs.entry(b).or_insert_with(|| {
            let children = bx.quants.iter().map(|&c| qgm.quant(c).input);
            children.flat_map(|c| qgm.free_refs(c)).collect()
        }));
        let mut cols: Vec<usize> = below
            .iter()
            .filter(|(fq, _)| *fq == q)
            .map(|&(_, c)| c)
            .collect();
        let mut note = |fq: QuantId, c: usize| {
            if fq == q {
                cols.push(c);
            }
        };
        for (i, p) in bx.preds.iter().enumerate() {
            if !applicable.contains(&i) {
                p.for_each_col(&mut note);
            }
        }
        for o in &bx.outputs {
            o.expr.for_each_col(&mut note);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Base-table scan with optional index assistance. A resident table's
    /// survivors are positions into its rows; a paged table's, a selection
    /// over its pages (`read`: the columns a row of it will be made at).
    fn scan_table(
        &mut self,
        t: &'a Table,
        q: QuantId,
        preds: &[Expr],
        applicable: &[usize],
        read: Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let arity = t.schema().arity();
        let at = |positions: Vec<u32>| Tuples::of(Src::Table(t.rows()), positions, arity);
        let mut q_layout = Layout::new();
        q_layout.push(q, t.schema().arity());
        let q_layout = &q_layout;
        let empty_layout = Layout::new();
        let empty_row = Row::empty();
        let env0 = Env::new(&empty_layout, &empty_row, env);
        // The applicable predicates a probe on predicate `pi` leaves to run.
        let rest_of = |pi: usize| -> Vec<&Expr> {
            applicable
                .iter()
                .filter(|&&i| i != pi)
                .map(|&i| &preds[i])
                .collect()
        };

        // An equality binding an indexed column to a value computable
        // before the scan: probe the index.
        let ready = || applicable.iter().map(|&i| (i, &preds[i]));
        let indexed = |c: usize, _: &Expr| t.index_on(&[c]).is_some();
        if let Some(probe) = access::eq_probe(ready(), q, indexed) {
            let key = eval_expr(probe.key, &env0)?;
            let idx = t.index_on(&[probe.col]).expect("index checked above");
            let positions = idx.lookup(std::slice::from_ref(&key)).iter().copied();
            return self
                .fetch_probed(t, positions, &rest_of(probe.pred), q_layout, env)
                .map(at);
        }

        let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
        if let Some(stripes) = t.stripes() {
            return self.scan_paged(t.len(), stripes, q, &kept, read, q_layout, env);
        }

        // Set-oriented correlated scan: a correlated equality over a column
        // with no real index — nested iteration's hot inner loop — builds a
        // hash partition over that column on its *second* scan of the run
        // and probes it per binding thereafter (an executor-level
        // magic-lite; one-shot scans never pay the build pass). The probe
        // returns positions in scan order and the remaining predicates run
        // per surviving row, so rows and row order are byte-identical to
        // the full scan.
        let correlated = |_: usize, e: &Expr| !e.referenced_quants().is_empty();
        let probe = if self.opts.ni_batch {
            access::eq_probe(ready(), q, correlated)
        } else {
            None
        };
        if let Some(probe) = probe {
            let key = eval_expr(probe.key, &env0)?;
            let ck = (t.name().to_string(), t.version(), probe.col);
            let idx = if let Some(idx) = self.corr_index.get(&ck) {
                Some(Arc::clone(idx))
            } else if !self.corr_scan_seen.insert(ck.clone()) {
                // Second scan of this shape: pay one build pass over the
                // table, then every scan is a probe.
                self.checkpoint(t.len() as u64)?;
                self.stats.rows_scanned += t.len() as u64;
                self.stats.hash_build_rows += t.len() as u64;
                let built = Arc::new(vector::build_corr_index(t.rows(), probe.col));
                self.corr_index.insert(ck, Arc::clone(&built));
                Some(built)
            } else {
                None
            };
            if let Some(idx) = idx {
                let positions: &[u32] = key
                    .eq_key()
                    .and_then(|k| idx.get(&k))
                    .map_or(&[], |v| v.as_slice());
                let positions = positions.iter().map(|&p| p as usize);
                return self
                    .fetch_probed(t, positions, &rest_of(probe.pred), q_layout, env)
                    .map(at);
            }
        }

        // Full scan. Under `columnar` the filter columns transpose into the
        // per-run batch cache once, and each (re-)scan — notably nested
        // iteration's correlated re-scans, whose outer bindings compile to
        // literals — runs the filter kernels over it. The survivors stay
        // where they are: positions into the table's rows.
        self.stats.rows_scanned += t.len() as u64;
        let every = Tuples::every(Src::Table(t.rows()), arity);
        if kept.is_empty() {
            return Ok(every);
        }
        self.checkpoint(t.len() as u64)?;
        self.select_rows(&every, Some(t), q_layout, &kept, env)
            .map(at)
    }

    /// Scan a paged table through the buffer pool, stripe by stripe. A
    /// stripe whose zone maps refute one of the sargable `col op literal`
    /// bounds is skipped without touching its pages; over the others,
    /// predicates that compile to kernel form run on the pinned predicate
    /// columns alone, charging one evaluation per predicate per row still
    /// alive at its turn, exactly as [`vector::filter_range`] does over a
    /// resident batch. What comes back is the selection: no row has been
    /// made, and when one is, only its columns `read` will be fetched.
    /// Predicates that need the row-wise evaluator get rows — every row,
    /// whole, of every stripe the zone maps kept — and filter those.
    #[allow(clippy::too_many_arguments)]
    fn scan_paged(
        &mut self,
        table_rows: usize,
        stripes: Stripes<'a>,
        q: QuantId,
        kept: &[&Expr],
        read: Vec<usize>,
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        self.checkpoint(table_rows as u64)?;
        let bounds = self.prune_bounds(kept, q, env)?;
        let compiled = if self.opts.columnar {
            vector::compile_preds(kept, q_layout, env)
        } else {
            None
        };
        let row_wise = compiled.is_none() && !kept.is_empty();
        let mut filter = compiled.unwrap_or_default();
        let filter_cols = vector::pred_columns(&filter);
        vector::remap_preds(&mut filter, &filter_cols);

        let live: Vec<usize> = (0..stripes.count())
            .filter(|&page| stripes.may_match(page, &bounds))
            .collect();
        let mut io = PageIo::default();
        io.pages_pruned += (stripes.count() - live.len()) as u64;
        let scanned: u64 = live.iter().map(|&page| stripes.rows(page) as u64).sum();
        self.stats.rows_scanned += scanned;
        if !filter.is_empty() {
            self.checkpoint(scanned)?;
        }
        let read = match row_wise {
            true => (0..q_layout.width()).collect(),
            false => read,
        };
        let mut sel = ScanSel::new(stripes, read);
        let mut evals = 0u64;
        for page in live {
            self.checkpoint(0)?;
            let (mut stripe, n) = (stripes.open(page), stripes.rows(page) as u32);
            let cols = stripe.pin_all(&filter_cols, &mut io)?;
            let (survivors, e) = vector::filter_range(&|c| cols[c], &filter, 0, n);
            evals += e;
            sel.push(page, survivors);
        }
        self.note_io(io);
        self.note_preds(evals);
        let mut scanned = Tuples::every(Src::Paged(sel), q_layout.width());
        if row_wise {
            self.settle(&mut scanned)?;
            self.filter(&mut scanned, q_layout, kept, env)?;
        }
        Ok(scanned)
    }

    /// One index (or correlation-index) lookup: the probed positions of
    /// `t` in order whose rows pass the `rest` of the scan's predicates.
    fn fetch_probed(
        &mut self,
        t: &Table,
        positions: impl ExactSizeIterator<Item = usize>,
        rest: &[&Expr],
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<u32>> {
        self.stats.index_lookups += 1;
        self.stats.index_rows += positions.len() as u64;
        let mut out = Vec::new();
        let mut evals = 0u64;
        for p in positions {
            if qualifies_all(rest, &Env::new(q_layout, &t.rows()[p], env), &mut evals)? {
                out.push(p as u32);
            }
        }
        self.note_preds(evals);
        Ok(out)
    }

    /// Derive sargable zone-map bounds from a scan's predicates: every
    /// `Col(q, c) <op> <expr>` comparison whose other side references no
    /// local column evaluates (under the outer bindings, so correlated
    /// re-scans prune too) to a literal the per-page zone maps can test.
    /// Only a conservative *filter* for whole pages — the surviving rows
    /// still run the full predicates.
    fn prune_bounds(
        &self,
        kept: &[&Expr],
        q: QuantId,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Bound>> {
        let empty_layout = Layout::new();
        let empty_row = Row::empty();
        let env0 = Env::new(&empty_layout, &empty_row, env);
        let mut bounds = Vec::new();
        for p in kept {
            let Expr::Binary { op, left, right } = &**p else {
                continue;
            };
            let Some(cmp) = op.cmp_op() else {
                continue;
            };
            for (a, b, cmp) in [(left, right, cmp), (right, left, cmp.flip())] {
                if let Expr::Col { quant, col } = a.as_ref() {
                    if *quant == q && !b.references(q) {
                        bounds.push((*col, cmp, eval_expr(b, &env0)?));
                        break;
                    }
                }
            }
        }
        Ok(bounds)
    }

    /// The cached transpose of the base-table columns a compiled filter
    /// reads. Keyed per column set so repeated scans of the same table —
    /// notably nested iteration's correlated re-scans — transpose once;
    /// columns the filter never touches are never columnized. With a
    /// [`ExecOptions::shared_cache`] the transpose is further shared
    /// *across* queries, keyed by the table's snapshot version so a
    /// long-lived process never reads a superseded snapshot.
    fn table_batch(&mut self, t: &Table, cols: &[usize]) -> Arc<ColumnarBatch> {
        let key = (t.name().to_string(), t.version(), cols.to_vec());
        if let Some(b) = self.col_cache.get(&key) {
            return Arc::clone(b);
        }
        let b = match &self.opts.shared_cache {
            Some(shared) => shared.get_or_build(t, cols, || vector::narrow_batch(t.rows(), cols)),
            None => Arc::new(vector::narrow_batch(t.rows(), cols)),
        };
        self.col_cache.insert(key, Arc::clone(&b));
        b
    }

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

    /// One join step: combine the running candidates `left` (layout
    /// `layout`) with `right` (the candidates of quantifier `next`).
    /// Equi-join predicates among `applicable` become join keys and are
    /// removed from the list; everything else stays for the caller's
    /// residual filter. The algorithms differ only in how they find the
    /// `(left, right)` pairs; the pairs are the step's candidates.
    #[allow(clippy::too_many_arguments)]
    fn join_step(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        mut left: Tuples<'a>,
        layout: &Layout,
        mut right: Tuples<'a>,
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let mut right_layout = Layout::new();
        right_layout.push(next, qgm.output_arity(qgm.quant(next).input));

        let keys = join::split_equi_keys(applicable.iter().map(|&i| &preds[i]), layout, next);
        *applicable = keys.residual.iter().map(|&at| applicable[at]).collect();

        let (n, m) = (left.len(), right.len());
        let (strategy, pairs) = if keys.left.is_empty() {
            // Cross product (with residual filtering done by the caller).
            // The output size is known up front, so the memory ceiling is
            // enforced before anything is paired.
            let projected = n * m;
            self.check_mem(projected, "cross join")?;
            self.checkpoint(projected as u64)?;
            self.stats.nl_comparisons += projected as u64;
            let mut pairs = Vec::with_capacity(projected);
            for l in 0..n as u32 {
                self.checkpoint(0)?;
                pairs.extend((0..m as u32).map(|r| (l, r)));
            }
            (JoinStrategy::Cross, pairs)
        } else {
            self.equi_join(&mut left, layout, &mut right, &right_layout, &keys, env)?
        };
        self.note_joined(next, strategy, n, m, pairs.len());
        self.join_tuples(left, right, &pairs)
    }

    /// Count a finished join step's output and record its strategy.
    fn note_joined(
        &mut self,
        quant: QuantId,
        strategy: JoinStrategy,
        left_rows: usize,
        right_rows: usize,
        out_rows: usize,
    ) {
        self.stats.join_output_rows += out_rows as u64;
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                let (l, r, out) = (left_rows as u64, right_rows as u64, out_rows as u64);
                trace.note_join(b, quant, strategy, l, r, out);
            }
        }
    }

    /// The matches of an in-memory hash join of `probe_rows` rows hashed
    /// as `ls` against `build_rows` rows hashed as `rs`: build on the right
    /// (the fresh quantifier), probe with the accumulated rows; large
    /// inputs hash-partition across the pool.
    fn hash_pairs(
        &mut self,
        ls: &JoinSide,
        rs: &JoinSide,
        probe_rows: usize,
        build_rows: usize,
    ) -> Result<Vec<(u32, u32)>> {
        self.checkpoint((probe_rows + build_rows) as u64)?;
        self.stats.hash_build_rows += build_rows as u64;
        self.stats.hash_probes += probe_rows as u64;
        let parallel = self.parallel_over(probe_rows.max(build_rows));
        let pairs = join::match_pairs(&self.pool, ls, rs, parallel);
        self.check_mem(pairs.len(), "hash join")?;
        Ok(pairs)
    }

    /// Hash both inputs of an equi-join on `keys` (build side first).
    fn join_sides(
        &mut self,
        left: &mut Tuples<'_>,
        layout: &Layout,
        right: &mut Tuples<'_>,
        right_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<(JoinSide, JoinSide)> {
        let (columnar, mut io) = (self.opts.columnar, PageIo::default());
        let rs = JoinSide::build(
            &self.pool,
            right,
            right_layout,
            &keys.right,
            env,
            columnar,
            &mut io,
        )?;
        let ls = JoinSide::build(&self.pool, left, layout, &keys.left, env, columnar, &mut io)?;
        self.note_io(io);
        Ok((ls, rs))
    }

    /// The pairs of an equi-join of `left` with `right` on `keys` — an
    /// inner join's, or an outer join's before its walk — in serial probe
    /// order (left candidate order, then build order) whichever algorithm
    /// runs: a Grace hash join when the build side is over the memory
    /// budget and there is a spill manager whose device takes the
    /// partitions, the in-memory hash join otherwise.
    fn equi_join(
        &mut self,
        left: &mut Tuples<'_>,
        layout: &Layout,
        right: &mut Tuples<'_>,
        right_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<(JoinStrategy, Vec<(u32, u32)>)> {
        let (ls, rs) = self.join_sides(left, layout, right, right_layout, keys, env)?;
        let build_rows = right.len();
        const WHAT: &str = "hash-join build side";
        if let Some((spill, parts)) = self.spill_for(build_rows, WHAT) {
            self.settle(left)?;
            self.settle(right)?;
            let sides = [(&*left, layout, &ls), (&*right, right_layout, &rs)];
            match self.spilled_hash_join(sides, keys, env, &spill, parts) {
                Ok(pairs) => return Ok((JoinStrategy::GraceHash, pairs)),
                Err(Error::StorageFull(_)) => self.note_spill_full(WHAT),
                Err(e) => return Err(e),
            }
        }
        let pairs = self.hash_pairs(&ls, &rs, left.len(), build_rows)?;
        Ok((JoinStrategy::Hash, pairs))
    }

    /// Grace hash join: the disk-backed path for a build side over the
    /// memory budget. Each side — `(candidates, layout, keys hashed)`,
    /// probe side first — spills as rows tagged with their candidate index,
    /// hash-partitioned by its key hashes, and each partition is read back
    /// and joined by the same kernel as the in-memory join. Equal keys
    /// always land in the same partition and each partition preserves its
    /// side's input order, so stable-sorting the pairs by probe index
    /// reproduces the in-memory join's pairs exactly.
    fn spilled_hash_join(
        &mut self,
        sides: [(&Tuples<'_>, &Layout, &JoinSide); 2],
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<(u32, u32)>> {
        let [(left, layout, ls), (right, right_layout, rs)] = sides;
        self.checkpoint((left.len() + right.len()) as u64)?;

        // Candidates whose key is NULL/NaN match nothing and never spill.
        let mut scratch = Row::empty();
        let mut spill_side = |tuples: &Tuples<'_>, hashed: &JoinSide| {
            let mut set = spill.partition_set(parts)?;
            for i in 0..tuples.len() {
                if let Some(p) = hashed.partition(i, parts) {
                    set.push(p, tag_row(i, tuples.row(i, &mut scratch)))?;
                }
            }
            set.finish()?;
            Ok::<_, Error>(set)
        };
        let (rset, lset) = (spill_side(right, rs)?, spill_side(left, ls)?);
        self.stats.hash_build_rows += right.len() as u64;
        self.stats.hash_probes += left.len() as u64;

        let mut io = PageIo::default();
        let mut tagged: Vec<(i64, i64)> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let (rorig, build) = untag_rows(rset.read_partition(p, &mut io)?)?;
            let (lorig, probe) = untag_rows(lset.read_partition(p, &mut io)?)?;
            let mut build = Tuples::every(Src::Owned(build), right_layout.width());
            let mut probe = Tuples::every(Src::Owned(probe), layout.width());
            let (pls, prs) =
                self.join_sides(&mut probe, layout, &mut build, right_layout, keys, env)?;
            for (li, ri) in join::match_pairs(&self.pool, &pls, &prs, false) {
                tagged.push((lorig[li as usize], rorig[ri as usize]));
            }
            self.check_mem(tagged.len(), "hash join")?;
        }
        self.note_io(io);
        tagged.sort_by_key(|&(l, _)| l);
        Ok(tagged
            .into_iter()
            .map(|(l, r)| (l as u32, r as u32))
            .collect())
    }

    /// Join a *deferred* base table: drive it through an index
    /// (index nested loops) when an equality predicate binds an indexed
    /// column to the already-bound candidates and they are few; otherwise
    /// scan it now and fall back to the hash join.
    #[allow(clippy::too_many_arguments)]
    fn join_deferred(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        table: &str,
        mut left: Tuples<'a>,
        layout: &Layout,
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let t = self.db.table(table)?;
        let arity = t.schema().arity();
        let ready = applicable.iter().map(|&i| (i, &preds[i]));
        let indexed = |c: usize, _: &Expr| t.index_on(&[c]).is_some();
        let probe = access::eq_probe(ready, next, indexed)
            .filter(|_| access::index_nl_pays(left.len() as f64, t.len() as f64));
        let Some(probe) = probe else {
            // (A deferred table carries an index, so it is resident.)
            self.stats.rows_scanned += t.len() as u64;
            let right = Tuples::every(Src::Table(t.rows()), arity);
            return self.join_step(qgm, next, left, layout, right, preds, applicable, env);
        };
        applicable.retain(|&i| i != probe.pred);
        self.settle(&mut left)?;
        let (pairs, probed) = self.index_pairs(&left, layout, t, &probe, None, env)?;
        let strategy = JoinStrategy::IndexNestedLoop;
        self.note_joined(next, strategy, left.len(), t.len(), pairs.len());
        let right = Tuples::of(Src::Table(t.rows()), probed, arity);
        self.join_tuples(left, right, &pairs)
    }

    /// Index nested loops: each of the (settled) candidates `left` probes
    /// `t`'s index on column `probe.col` with `probe.key` evaluated over
    /// it. Returns the pairs `(left, k)`, in left order, and `probed`, the
    /// table positions they name (ascending per candidate, as the index
    /// keeps them) — only those whose row passes the `filter`, which reads
    /// a row of `t` as its own layout.
    fn index_pairs(
        &mut self,
        left: &Tuples<'_>,
        layout: &Layout,
        t: &Table,
        probe: &access::Probe<'_>,
        filter: Option<(&Layout, &[&Expr])>,
        env: Option<&Env<'_>>,
    ) -> Result<Probed> {
        let idx = t
            .index_on(&[probe.col])
            .expect("the access rule checked the index");
        let (mut pairs, mut probed) = (Vec::new(), Vec::new());
        let (mut scratch, mut evals) = (Row::empty(), 0u64);
        for i in 0..left.len() {
            self.checkpoint(1)?;
            let key = eval_expr(probe.key, &Env::new(layout, left.row(i, &mut scratch), env))?;
            // The index normalizes the probe like any Eq key: NULL/NaN
            // find nothing, -0.0 finds 0.0.
            self.stats.index_lookups += 1;
            let positions = idx.lookup(std::slice::from_ref(&key));
            self.stats.index_rows += positions.len() as u64;
            for &p in positions {
                if let Some((t_layout, preds)) = filter {
                    let row = Env::new(t_layout, &t.rows()[p], env);
                    if !qualifies_all(preds, &row, &mut evals)? {
                        continue;
                    }
                }
                pairs.push((i as u32, probed.len() as u32));
                probed.push(p as u32);
            }
        }
        self.note_preds(evals);
        Ok((pairs, probed))
    }

    /// Lateral join: evaluate the child once per bound candidate; its rows
    /// are the right input, one copy per candidate it joins.
    fn join_lateral(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        mut left: Tuples<'a>,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let child = qgm.quant(next).input;
        self.settle(&mut left)?;
        let n = left.len();
        // The child's batch per distinct binding (batched path), with the
        // invocations nested inside it.
        let mut subs: Vec<(RowBatch, u64)> = Vec::new();
        let mut scratch = Row::empty();
        let (mut pairs, mut right) = (Vec::new(), Vec::new());
        let mut emit = |this: &mut Self, l: usize, sub: &RowBatch| {
            for r in sub.iter() {
                pairs.push((l as u32, right.len() as u32));
                right.push(r.clone());
            }
            this.check_mem(pairs.len(), "lateral join")
        };
        if self.opts.ni_memo && self.opts.ni_batch {
            // Batched lateral: group the candidates by correlation key so
            // each distinct binding executes the subquery once per batch,
            // then gather results back in the original order.
            let sig = self.corr_sig(qgm, child);
            let mut slot_of: FxHashMap<MemoKey, usize> = FxHashMap::default();
            let mut assignment: Vec<Option<usize>> = Vec::with_capacity(n);
            for l in 0..n {
                self.checkpoint(1)?;
                let env2 = Env::new(layout, left.row(l, &mut scratch), env);
                let Some(key) = sig.key_under(&env2) else {
                    assignment.push(None);
                    continue;
                };
                match slot_of.get(&key) {
                    Some(&s) => {
                        // Logical invocation, physically shared with the
                        // first candidate of the class.
                        self.count_subq_hit(child, subs[s].1);
                        assignment.push(Some(s));
                    }
                    None => {
                        let before = self.stats.subquery_invocations;
                        let sub = self.memoized_child(qgm, child, &env2, true)?;
                        subs.push((sub, self.stats.subquery_invocations - before - 1));
                        slot_of.insert(key, subs.len() - 1);
                        assignment.push(Some(subs.len() - 1));
                    }
                }
            }
            for (l, slot) in assignment.into_iter().enumerate() {
                let sub = match slot {
                    Some(s) => RowBatch::clone(&subs[s].0),
                    None => {
                        // Unkeyable binding (an unbound free ref): evaluate
                        // this candidate on its own, as the per-row path would.
                        let env2 = Env::new(layout, left.row(l, &mut scratch), env);
                        self.memoized_child(qgm, child, &env2, true)?
                    }
                };
                emit(self, l, &sub)?;
            }
        } else {
            for l in 0..n {
                self.checkpoint(1)?;
                let env2 = Env::new(layout, left.row(l, &mut scratch), env);
                let sub = self.memoized_child(qgm, child, &env2, true)?;
                emit(self, l, &sub)?;
            }
        }
        self.note_joined(next, JoinStrategy::Lateral, n, n, pairs.len());
        let right = Tuples::every(Src::Owned(right), qgm.output_arity(child));
        self.join_tuples(left, right, &pairs)
    }

    /// Compute the rows of a subquery quantifier for the current candidate
    /// row through the correlation-key memo: repeated bindings hit instead
    /// of re-executing; boxes correlated only to outer blocks are served
    /// once per distinct outer binding for the whole run.
    fn subquery_rows(&mut self, qgm: &Qgm, sq: QuantId, env2: &Env<'_>) -> Result<RowBatch> {
        let child = qgm.quant(sq).input;
        // A subquery is a *logical* per-candidate-row invocation only if it
        // references quantifiers of the box being evaluated — i.e. anything
        // bound in the innermost frame.
        let correlated_here = self
            .corr_sig(qgm, child)
            .refs
            .iter()
            .any(|&(fq, _)| env2.layout.contains(fq));
        self.memoized_child(qgm, child, env2, correlated_here)
    }

    fn scalar_subquery_value(&mut self, qgm: &Qgm, sq: QuantId, env2: &Env<'_>) -> Result<Value> {
        let rows = self.subquery_rows(qgm, sq, env2)?;
        match rows.len() {
            0 => Ok(Value::Null),
            1 => Ok(rows[0][0].clone()),
            n => Err(Error::eval(format!("scalar subquery returned {n} rows"))),
        }
    }

    /// Append the scalar subquery's value to every candidate, as a column
    /// of its own.
    fn append_scalar_column(
        &mut self,
        qgm: &Qgm,
        sq: QuantId,
        mut tuples: Tuples<'a>,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        self.settle(&mut tuples)?;
        let mut values = Vec::with_capacity(tuples.len());
        let mut scratch = Row::empty();
        for i in 0..tuples.len() {
            self.checkpoint(0)?;
            let env2 = Env::new(layout, tuples.row(i, &mut scratch), env);
            values.push(Row::new(vec![self.scalar_subquery_value(qgm, sq, &env2)?]));
        }
        let pairs: Vec<(u32, u32)> = (0..tuples.len() as u32).map(|i| (i, i)).collect();
        self.join_tuples(tuples, Tuples::every(Src::Owned(values), 1), &pairs)
    }

    // ---- Grouping boxes ---------------------------------------------------

    fn eval_grouping(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let q = bx.quants[0];
        let child = qgm.quant(q).input;
        let mut layout = Layout::new();
        layout.push(q, qgm.output_arity(child));

        let BoxKind::Grouping { group_by } = &bx.kind else {
            unreachable!()
        };

        // Aggregate output positions and their calls.
        let mut agg_slots: Vec<AggSlot<'_>> = Vec::new();
        for (i, o) in bx.outputs.iter().enumerate() {
            if let Expr::Agg { func, arg, distinct } = &o.expr {
                let arg = arg.as_deref();
                let col = arg.and_then(|a| vector::compile_projection([a].into_iter(), &layout));
                let col = col.filter(|_| self.opts.columnar).map(|c| c[0]);
                let (func, distinct) = (*func, *distinct);
                agg_slots.push(AggSlot { func, arg, col, distinct, out_pos: i });
            }
        }

        // The input: a Select's or an outer join's candidates as they
        // stand — a scan's survivors perhaps still on their pages, a join's
        // pairs never concatenated.
        let mut input = self.eval_tuples(qgm, child, env)?;
        let n = input.len();
        self.checkpoint(n as u64)?;
        self.stats.agg_input_rows += n as u64;

        // Memory governance: the hash table over this input holds one group
        // per row at worst — but a grand total (no GROUP BY) holds one
        // whatever its input, and never spills. Over the budget with a
        // spill manager, the input partitions by group-key hash to disk and
        // each partition aggregates alone; rows, float accumulation order
        // and first-appearance emission order are all those of the
        // in-memory hash path, which runs when there is no spill device or
        // its device is full.
        const WHAT: &str = "grouping input";
        let spilling = match group_by.is_empty() {
            true => None,
            false => self.spill_for(n, WHAT),
        };

        // Grand totals whose aggregates are plain-column COUNT/SUM/MIN/MAX
        // vectorize: the aggregate kernels fold each argument as a column —
        // copied out through the candidates' positions, or off the pages of
        // a scan that is still paged — and reproduce the serial fold
        // exactly (Double accumulation order and Int overflow included).
        // Anything else reads rows.
        let kernel_cols = match group_by.is_empty() && n > 0 {
            true => grand_total_cols(&agg_slots),
            false => None,
        };
        let every_output_aggregates = agg_slots.len() == bx.outputs.len();
        if kernel_cols.is_none() || !every_output_aggregates {
            self.settle(&mut input)?;
        }
        let keys = &GroupKeys::compile(group_by, &layout, self.opts.columnar, &agg_slots);
        let spill = |(mgr, parts): (Arc<SpillManager>, usize)| {
            self.spilled_groups(&input, &layout, env, keys, &agg_slots, &mgr, parts)
        };
        let spilled = match spilling.map(spill) {
            Some(Ok(groups)) => Some(groups),
            Some(Err(Error::StorageFull(_))) => {
                self.note_spill_full(WHAT);
                None
            }
            Some(Err(e)) => return Err(e),
            None => None,
        };

        // One accumulator vector per group (one accumulator per agg slot),
        // in first-appearance order. Large inputs aggregate into
        // thread-local tables over contiguous ranges, merged in range
        // order — the merge replays distinct values in first-seen order,
        // so the result is the one the serial fold produces.
        let mut groups: Vec<Group> = if let Some(groups) = spilled {
            groups
        } else if let Some(cols) = &kernel_cols {
            let mut io = PageIo::default();
            let args = cols
                .iter()
                .map(|c| c.map(|c| input.column(c, &mut io)).transpose())
                .collect::<Result<Vec<_>>>()?;
            self.note_io(io);
            grand_total_groups(n, Some(0), &agg_slots, &args)?
        } else if self.parallel_over(n) {
            let per = n.div_ceil(self.pool.threads());
            let partials = self.pool.run_indexed(n.div_ceil(per), |s| {
                let range = s * per..((s + 1) * per).min(n);
                build_groups(&input, range, &layout, env, keys, &agg_slots, true)
            });
            let mut merged: Vec<Group> = Vec::new();
            let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
            for partial in partials {
                merge_groups(&mut merged, &mut index, partial?, &agg_slots)?;
            }
            merged
        } else {
            build_groups(&input, 0..n, &layout, env, keys, &agg_slots, false)?
        };

        // A grand-total aggregate (no GROUP BY) over empty input still
        // produces one row — the asymmetry behind the COUNT bug.
        if groups.is_empty() && group_by.is_empty() {
            groups.push(Group::new(Vec::new(), None, agg_slots.len()));
        }

        self.stats.agg_groups += groups.len() as u64;
        self.check_mem(groups.len(), "grouping")?;

        // The outputs that are not aggregates read the group's first
        // candidate.
        let mut out = Vec::with_capacity(groups.len());
        let (nulls, mut scratch) = (Row::nulls(layout.width()), Row::empty());
        for group in &groups {
            let rep = match group.rep {
                Some(i) if !every_output_aggregates => input.row(i as usize, &mut scratch),
                _ => &nulls,
            };
            let env1 = Env::new(&layout, rep, env);
            let mut row = Row(Vec::with_capacity(bx.outputs.len()));
            for (i, o) in bx.outputs.iter().enumerate() {
                if let Some(si) = agg_slots.iter().position(|s| s.out_pos == i) {
                    row.0.push(group.accs[si].finish(agg_slots[si].func)?);
                } else {
                    row.0.push(eval_expr(&o.expr, &env1)?);
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    // ---- Union boxes ---------------------------------------------------------

    fn eval_union(
        &mut self,
        qgm: &Qgm,
        b: BoxId,
        all: bool,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let mut out = Vec::new();
        for &q in &bx.quants {
            let child = qgm.quant(q).input;
            let rows = self.eval_child(qgm, child, env)?;
            self.checkpoint(rows.len() as u64)?;
            out.extend(rows.iter().cloned());
            self.check_mem(out.len(), "union")?;
        }
        if !all {
            out = dedup_rows(out);
        }
        Ok(out)
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

// ---- grouping over spilled partitions --------------------------------------

impl Executor<'_> {
    /// Partitioned (spilled) hash aggregation: the disk-backed path for a
    /// grouping input over the memory budget. Candidates partition to disk
    /// as rows, by group-key hash, tagged with their index; each partition
    /// — which holds *every* candidate of each of its groups, in input
    /// order — then hash-aggregates exactly like the in-memory path, and
    /// groups are stable-sorted by their first candidate to restore the
    /// global first-appearance emission order.
    #[allow(clippy::too_many_arguments)]
    fn spilled_groups(
        &mut self,
        input: &Tuples<'_>,
        layout: &Layout,
        env: Option<&Env<'_>>,
        group_by: &GroupKeys<'_>,
        slots: &[AggSlot<'_>],
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<Group>> {
        let mut set = spill.partition_set(parts)?;
        let mut scratch = Row::empty();
        for i in 0..input.len() {
            let env1 = group_by.bind(input, i, layout, &mut scratch, env);
            let part = group_by.of(input, i, env1.as_ref())?.hash() % parts as u64;
            set.push(part as usize, tag_row(i, input.row(i, &mut scratch)))?;
        }
        set.finish()?;

        let mut io = PageIo::default();
        let mut groups: Vec<Group> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let (origs, rows) = untag_rows(set.read_partition(p, &mut io)?)?;
            let rows = Tuples::every(Src::Owned(rows), layout.width());
            for mut g in build_groups(&rows, 0..rows.len(), layout, env, group_by, slots, false)? {
                g.rep = g.rep.map(|r| origs[r as usize] as u32);
                groups.push(g);
            }
        }
        self.note_io(io);
        groups.sort_by_key(|g| g.rep);
        Ok(groups)
    }
}

// ---- partitioning and dedup ------------------------------------------------

/// Order-preserving duplicate elimination (DISTINCT, UNION, the magic
/// table's binding set). Rows are bulk-hashed with total-order semantics
/// (the same equivalence as `Row`'s `Eq`) and a row compares against
/// earlier *kept* rows only on a hash collision — no row is ever cloned
/// into a side set.
fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    if rows.len() <= 1 {
        return rows;
    }
    let hashes = columnar::hash_rows(&rows);
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut keep = vec![false; rows.len()];
    for (i, h) in hashes.iter().enumerate() {
        let kept = buckets.entry(*h).or_default();
        if kept.iter().any(|&j| rows[j as usize] == rows[i]) {
            continue;
        }
        kept.push(i as u32);
        keep[i] = true;
    }
    let mut out = Vec::with_capacity(buckets.values().map(Vec::len).sum());
    for (r, keep) in rows.into_iter().zip(keep) {
        if keep {
            out.push(r);
        }
    }
    out
}
