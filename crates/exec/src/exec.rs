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

use decorr_common::columnar::{self, Column, ColumnarBatch, SelVec};
use decorr_common::{
    Budget, CancelToken, Error, ExecStats, FxHashMap, FxHashSet, Result, Row, RowBatch, Value,
    WorkerPool, MORSEL_ROWS,
};
use decorr_qgm::{BinOp, BoxId, BoxKind, Expr, OutputCol, Qgm, QuantId, QuantKind, UnOp};
use decorr_storage::{Bound, Database, PageIo, SpillManager, Stripes, Table};

use crate::env::{Env, Layout};
use crate::eval::{eval_expr, qualifies};
use crate::group::{
    build_groups, grand_total_cols, grand_total_groups, merge_groups, sort_groups, AggSlot, Group,
    GroupKeys,
};
use crate::join::{self, EquiKeys, JoinSide};
use crate::scan::{ScanSel, Source};
use crate::subplan::{SharedSubplans, SubplanLookup, SubplanShape};
use crate::trace::{ExecTrace, JoinStrategy};
use crate::vector;

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
    /// Memory budget in rows. Hash joins whose build side exceeds it
    /// degrade to a block nested-loop join; grouping whose input exceeds
    /// it degrades to sort-based aggregation (both recorded in
    /// [`ExecStats::degradations`] and the [`ExecTrace`]). An operator
    /// whose *output* exceeds `1024 ×` the budget fails with
    /// [`Error::ResourceExhausted`] — degraded algorithms bound working
    /// state, but no algorithm can bound the result itself.
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
    /// A cross-query [`ColumnarCache`] shared by a long-lived process
    /// (e.g. one per `decorr-server`). Batches are keyed by table snapshot
    /// version, so DDL / reloads / re-`ANALYZE`s invalidate by construction
    /// and a stale snapshot can never be served. `None` (the default)
    /// keeps the transpose cache private to the run.
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
    /// aggregation) instead of degrading to the block nested-loop or
    /// sort-based fallbacks. Output rows are byte-identical either way;
    /// spilled operators are counted in [`ExecStats::spills`], not
    /// [`ExecStats::degradations`]. `None` (the default, and always on
    /// ephemeral servers) keeps the in-memory degradations.
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
    subq_memo: FxHashMap<(BoxId, u64, MemoKey), RowBatch>,
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

/// Rows handed from one step of a Select to the next: a step's own output,
/// or a child's batch that a memo or cache may hold as well.
enum Rows {
    Owned(Vec<Row>),
    Shared(RowBatch),
}

impl std::ops::Deref for Rows {
    type Target = [Row];
    fn deref(&self) -> &[Row] {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(b) => b,
        }
    }
}

impl Rows {
    /// The rows as a vector: moved when owned or when this is the batch's
    /// only reference, cloned otherwise.
    fn into_vec(self) -> Vec<Row> {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(mut b) => match Arc::get_mut(&mut b) {
                Some(rows) => rows.iter_mut().map(std::mem::take).collect(),
                None => b.to_vec(),
            },
        }
    }
}

/// One input of a Select, scanned and filtered but not yet joined: rows, or
/// the survivors of a full scan still in their table. Whichever step
/// consumes it decides how much of it ever becomes rows.
enum Input<'t> {
    Rows(Rows),
    Scan(ScanSel<'t>),
}

impl Input<'_> {
    /// Rows in the input (for a scan, the survivors), so the greedy join
    /// order never depends on where an input lives.
    fn len(&self) -> usize {
        match self {
            Input::Rows(rows) => rows.len(),
            Input::Scan(sel) => sel.len(),
        }
    }
}

/// A Select that only scans a table: its quantifier, the table, and the
/// table column behind each output.
type ScanOnly<'t> = (QuantId, &'t Table, Vec<usize>);

/// What a scan-only Select hands a grand total or an outer join: the
/// scan's survivors and the table column behind each output.
type ScannedOutputs<'t> = (ScanSel<'t>, Vec<usize>);

/// The right-hand (build) side of a join step, borrowed.
#[derive(Clone, Copy)]
enum Build<'r, 't> {
    Rows(&'r [Row]),
    Scan(&'r ScanSel<'t>),
}

impl<'t> Input<'t> {
    fn as_build(&self) -> Build<'_, 't> {
        match self {
            Input::Rows(rows) => Build::Rows(rows),
            Input::Scan(sel) => Build::Scan(sel),
        }
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
    /// execution happened.
    fn count_subq_hit(&mut self, child: BoxId) {
        self.stats.subquery_invocations += 1;
        self.stats.subquery_memo_hits += 1;
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
    /// whole enclosing evaluation; their hits are the legacy
    /// per-evaluation cache promoted to run lifetime and stay uncounted.
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
            if let Some(hit) = self.subq_memo.get(&k) {
                return Ok(RowBatch::clone(hit));
            }
            self.count_subq_exec();
            let rows: RowBatch = self.eval_box(qgm, child, Some(env2))?.into();
            self.subq_memo.insert(k, RowBatch::clone(&rows));
            return Ok(rows);
        }
        let sig = self.corr_sig(qgm, child);
        let Some(key) = sig.key_under(env2) else {
            // An unbound free reference leaves nothing sound to key on.
            self.count_subq_exec();
            return Ok(self.eval_box(qgm, child, Some(env2))?.into());
        };
        let k = (child, 0u64, key);
        if let Some(hit) = self.subq_memo.get(&k).map(RowBatch::clone) {
            if correlated_here {
                self.count_subq_hit(child);
            }
            return Ok(hit);
        }
        self.count_subq_exec();
        let rows: RowBatch = self.eval_box(qgm, child, Some(env2))?.into();
        // Charge the memo against the memory budget; once the ledger is
        // exhausted, fall back to unmemoized execution (the query keeps
        // running, later duplicates just re-execute).
        let fits = self
            .opts
            .mem_budget
            .is_none_or(|mb| self.memo_rows + rows.len() <= mb);
        if fits {
            self.memo_rows += rows.len();
            self.subq_memo.insert(k, RowBatch::clone(&rows));
        }
        Ok(rows)
    }

    // ---- box dispatch ----------------------------------------------------

    /// Evaluate a box, recording an operator-trace entry when tracing is
    /// on. Wall time is inclusive of children (the box stack has no
    /// double-counting concern: the QGM is a DAG, a box never recursively
    /// evaluates itself).
    fn eval_box(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        self.traced(b, |ex| ex.eval_box_inner(qgm, b, env), Vec::len)
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
    /// `1024 × mem_budget` cannot be absorbed by degrading the algorithm
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

    /// Record a graceful degradation (stats counter + trace entry on the
    /// box currently being evaluated).
    fn note_degradation(&mut self, reason: &str) {
        self.stats.degradations += 1;
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.note_degradation(b, reason);
            }
        }
    }

    /// Record an over-budget operator that spilled to disk instead of
    /// degrading (stats counter + trace entry on the current box).
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

    /// Does the memory budget force a fallback for an operator whose
    /// working state would hold `n` rows?
    fn over_mem_budget(&self, n: usize) -> bool {
        self.opts.mem_budget.is_some_and(|mb| n > mb)
    }

    /// Partition count for a spilled operator: enough that each partition's
    /// working state fits the budget, bounded to keep partition files and
    /// passes sane under extreme budgets.
    fn spill_parts(&self, n: usize) -> usize {
        let budget = self.opts.mem_budget.unwrap_or(usize::MAX).max(1);
        n.div_ceil(budget).clamp(2, 256)
    }

    fn eval_box_inner(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        self.checkpoint(0)?;
        match &qgm.boxref(b).kind {
            BoxKind::BaseTable { table, .. } => {
                let t = self.db.table(table)?;
                self.checkpoint(t.len() as u64)?;
                self.stats.rows_scanned += t.len() as u64;
                let mut io = PageIo::default();
                let rows = t.read_rows(&mut io)?.into_owned();
                self.note_io(io);
                Ok(rows)
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
            BoxKind::Grouping { .. } => self.eval_grouping(qgm, b, env),
            BoxKind::Union { all } => self.eval_union(qgm, b, *all, env),
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

    fn eval_select(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
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
                        return Ok(Vec::new());
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
        let mut child_rows: FxHashMap<QuantId, Input<'a>> = FxHashMap::default();
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
            let rows = self.scan_quant(qgm, b, q, &applicable, env)?;
            for i in &applicable {
                consumed[*i] = true;
            }
            child_rows.insert(q, rows);
        }

        // Greedy join over the Foreach quantifiers. A Select with none
        // ranges over exactly one (empty) candidate row.
        let mut layout = Layout::new();
        let mut rows = Rows::Owned(vec![Row::empty(); usize::from(foreach.is_empty())]);
        let mut bound: Vec<QuantId> = Vec::new();
        let mut remaining: Vec<QuantId> = foreach.clone();
        // Scalar quantifiers already materialized as row columns.
        let mut scalars_bound: FxHashSet<QuantId> = FxHashSet::default();

        // Estimated input sizes for the greedy order: materialized children
        // by their (filtered) row count, deferred base tables by table size.
        let mut sizes: FxHashMap<QuantId, usize> = FxHashMap::default();
        for (&q, r) in &child_rows {
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

            rows = if is_lateral[&next] {
                Rows::Owned(self.join_lateral(qgm, next, &rows, &layout, env)?)
            } else if bound.is_empty() {
                // The first input in join order is the running row set as
                // it stands — there is nothing to join it to, so this is
                // where a scan's survivors become rows. A deferred
                // table has no bound row to drive its index: scan it.
                let first = match child_rows.remove(&next) {
                    Some(scanned) => scanned,
                    None => self.scan_quant(qgm, b, next, &[], env)?,
                };
                self.gathered(first)?
            } else if let Some(table) = deferred.get(&next) {
                let applicable = &mut applicable;
                let joined =
                    self.join_deferred(qgm, next, table, &rows, &layout, preds, applicable, env);
                Rows::Owned(joined?)
            } else {
                let (right, applicable) = (child_rows[&next].as_build(), &mut applicable);
                let joined =
                    self.join_step(qgm, next, &rows, &layout, right, preds, applicable, env);
                Rows::Owned(joined?)
            };
            layout.push(next, child_arity);
            // Residual applicable predicates (non-equi or not used as keys).
            if !applicable.is_empty() {
                let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
                rows = Rows::Owned(self.filter_rows(rows.into_vec(), &layout, &kept, env)?);
            }
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
                        rows = Rows::Owned(self.append_scalar_column(
                            qgm,
                            sq,
                            rows.into_vec(),
                            &layout,
                            env,
                        )?);
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
        // Scalar subqueries still needed become row columns first (one
        // logical invocation per candidate row); the plain predicates then
        // filter through the same driver as every other filter, quantified
        // groups are checked per surviving row, and the survivors project.
        // After decorrelation only the filter and the projection remain.
        for &sq in &needed_scalars {
            rows =
                Rows::Owned(self.append_scalar_column(qgm, sq, rows.into_vec(), &layout, env)?);
            layout.push(sq, 1);
        }
        let mut sel = self.select_rows(&rows, None, &layout, &plain_preds, env)?;
        if !quant_groups.is_empty() {
            let mut kept = Vec::with_capacity(sel.len());
            for (n, &i) in sel.iter().enumerate() {
                if n % MORSEL_ROWS == 0 {
                    self.checkpoint(0)?;
                }
                let env2 = Env::new(&layout, &rows[i as usize], env);
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
        let mut out_rows = self.project_rows(rows, &sel, &bx.outputs, &layout, env)?;
        if bx.distinct {
            out_rows = dedup_rows(out_rows);
        }
        Ok(out_rows)
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

    /// Project the rows named by `sel` through a box's output list. The
    /// identity over every row hands the rows on as they are; otherwise,
    /// in morsels, plain column outputs gather by offset under `columnar`
    /// and anything else evaluates through the expression evaluator.
    fn project_rows(
        &self,
        rows: Rows,
        sel: &[u32],
        outputs: &[OutputCol],
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let offsets = vector::compile_projection(outputs.iter().map(|o| &o.expr), layout);
        let identity = |offs: &Vec<usize>| offs.iter().copied().eq(0..layout.width());
        if sel.len() == rows.len() && offsets.as_ref().is_some_and(identity) {
            return Ok(rows.into_vec());
        }
        let offsets = offsets.filter(|_| self.opts.columnar);
        let morsels = self.for_morsels(sel.len(), |lo, hi| {
            let picked = sel[lo..hi].iter().map(|&i| &rows[i as usize]);
            match &offsets {
                Some(offs) => Ok(picked
                    .map(|row| Row::new(offs.iter().map(|&c| row[c].clone()).collect()))
                    .collect::<Vec<Row>>()),
                None => picked
                    .map(|row| project_row(outputs, &Env::new(layout, row, env)))
                    .collect(),
            }
        })?;
        let mut out = Vec::with_capacity(sel.len());
        for m in morsels {
            out.extend(m);
        }
        Ok(out)
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
    ) -> Result<Input<'a>> {
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

        let rows = self.eval_child(qgm, child, env)?;
        if applicable.is_empty() {
            // No predicates to apply: share the child's batch as-is.
            return Ok(Input::Rows(Rows::Shared(rows)));
        }
        let mut q_layout = Layout::new();
        q_layout.push(q, qgm.output_arity(child));
        let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
        let kept = self.filter_rows_ref(&rows, &q_layout, &kept, env)?;
        Ok(Input::Rows(Rows::Owned(kept)))
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

    /// The input as rows: a scan's survivors are gathered, all of them,
    /// now.
    fn gathered(&mut self, input: Input<'_>) -> Result<Rows> {
        match input {
            Input::Rows(rows) => Ok(rows),
            Input::Scan(sel) => {
                let mut io = PageIo::default();
                let rows = sel.gather(&mut io)?;
                self.note_io(io);
                Ok(Rows::Owned(rows))
            }
        }
    }

    /// Base-table scan with optional index assistance.
    fn scan_table(
        &mut self,
        t: &'a Table,
        q: QuantId,
        preds: &[Expr],
        applicable: &[usize],
        read: Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Input<'a>> {
        let owned = |rows: Vec<Row>| Input::Rows(Rows::Owned(rows));
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
        let indexed = |c: usize, _: &Expr| t.index_on(&[c]).is_some();
        if let Some((pi, col, key)) = find_eq_probe(preds, applicable, q, indexed) {
            let key = eval_expr(key, &env0)?;
            let idx = t.index_on(&[col]).expect("index checked above");
            let positions = idx.lookup(std::slice::from_ref(&key)).iter().copied();
            return self
                .fetch_probed(t, positions, &rest_of(pi), q_layout, env)
                .map(owned);
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
            find_eq_probe(preds, applicable, q, correlated)
        } else {
            None
        };
        if let Some((pi, col, key)) = probe {
            let key = eval_expr(key, &env0)?;
            let ck = (t.name().to_string(), t.version(), col);
            let idx = if let Some(idx) = self.corr_index.get(&ck) {
                Some(Arc::clone(idx))
            } else if !self.corr_scan_seen.insert(ck.clone()) {
                // Second scan of this shape: pay one build pass over the
                // table, then every scan is a probe.
                self.checkpoint(t.len() as u64)?;
                self.stats.rows_scanned += t.len() as u64;
                self.stats.hash_build_rows += t.len() as u64;
                let built = Arc::new(vector::build_corr_index(t.rows(), col));
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
                    .fetch_probed(t, positions, &rest_of(pi), q_layout, env)
                    .map(owned);
            }
        }

        // Full scan. Under `columnar` the filter columns transpose into the
        // per-run batch cache once, and each (re-)scan — notably nested
        // iteration's correlated re-scans, whose outer bindings compile to
        // literals — runs the filter kernels over it. The survivors stay
        // where they are: the resident rows are the selection's one stripe.
        self.stats.rows_scanned += t.len() as u64;
        if !kept.is_empty() {
            self.checkpoint(t.len() as u64)?;
        }
        let survivors = self.select_rows(t.rows(), Some(t), q_layout, &kept, env)?;
        let mut sel = ScanSel::new(Source::Rows(t.rows()), read);
        sel.push(0, survivors);
        Ok(Input::Scan(sel))
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
    ) -> Result<Input<'a>> {
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
        let mut sel = ScanSel::new(Source::Stripes(stripes), read);
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
        if !row_wise {
            return Ok(Input::Scan(sel));
        }
        let rows = self.gathered(Input::Scan(sel))?.into_vec();
        let rows = self.filter_rows(rows, q_layout, kept, env)?;
        Ok(Input::Rows(Rows::Owned(rows)))
    }

    /// One index (or correlation-index) lookup: fetch the probed positions
    /// of `t` in order, keeping the rows that pass the `rest` of the scan's
    /// predicates.
    fn fetch_probed(
        &mut self,
        t: &Table,
        positions: impl ExactSizeIterator<Item = usize>,
        rest: &[&Expr],
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        self.stats.index_lookups += 1;
        self.stats.index_rows += positions.len() as u64;
        let mut out = Vec::new();
        let mut evals = 0u64;
        for p in positions {
            let r = &t.rows()[p];
            if qualifies_all(rest, &Env::new(q_layout, r, env), &mut evals)? {
                out.push(r.clone());
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

    /// The one filter: which of `rows` satisfy the conjunction `preds`?
    /// Returns the surviving row indices, ascending. Under `columnar`, a
    /// conjunction that compiles to kernel form runs [`vector::filter_range`]
    /// over a narrow transpose of the columns it reads (for a base `table`,
    /// the cached one); anything else runs the row-wise evaluator. Both
    /// evaluators run per morsel under the same driver and report the same
    /// count: one evaluation per predicate per row still alive when the
    /// predicate's turn comes. The caller has already charged the input
    /// against the budget.
    fn select_rows(
        &mut self,
        rows: &[Row],
        table: Option<&Table>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<SelVec> {
        if preds.is_empty() {
            return Ok((0..rows.len() as u32).collect());
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
                None => Arc::new(vector::narrow_batch(rows, &cols)),
            };
            vector::remap_preds(&mut compiled, &cols);
            self.for_morsels(rows.len(), |lo, hi| {
                let column = |c: usize| batch.column(c);
                Ok(vector::filter_range(
                    &column, &compiled, lo as u32, hi as u32,
                ))
            })?
        } else {
            self.for_morsels(rows.len(), |lo, hi| {
                let mut sel = Vec::new();
                let mut evals = 0u64;
                for (i, r) in rows[lo..hi].iter().enumerate() {
                    if qualifies_all(preds, &Env::new(layout, r, env), &mut evals)? {
                        sel.push((lo + i) as u32);
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

    /// Filter rows the caller owns (a join's output, the rows gathered for
    /// a row-wise predicate): the survivors move out, nothing is cloned.
    /// Reach for this whenever a `Vec<Row>` is at hand.
    fn filter_rows(
        &mut self,
        rows: Vec<Row>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        if preds.is_empty() {
            return Ok(rows);
        }
        self.checkpoint(rows.len() as u64)?;
        let mut sel = self
            .select_rows(&rows, None, layout, preds, env)?
            .into_iter()
            .peekable();
        // `retain` visits the rows once, in order; `sel` is ascending.
        let mut rows = rows;
        let mut i = 0u32;
        rows.retain(|_| {
            let keep = sel.next_if_eq(&i).is_some();
            i += 1;
            keep
        });
        Ok(rows)
    }

    /// Filter rows the caller only borrows (a child's shared batch): the
    /// survivors are cloned, so this is for inputs someone else keeps.
    fn filter_rows_ref(
        &mut self,
        rows: &[Row],
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        if preds.is_empty() {
            return Ok(rows.to_vec());
        }
        self.checkpoint(rows.len() as u64)?;
        let sel = self.select_rows(rows, None, layout, preds, env)?;
        Ok(sel.iter().map(|&i| rows[i as usize].clone()).collect())
    }

    /// One join step: combine `rows` (layout `layout`) with `right`
    /// (the rows of quantifier `next`). Equi-join predicates among
    /// `applicable` become join keys and are removed from the list;
    /// everything else stays for the caller's residual filter.
    ///
    /// A scan on the right becomes rows here, in full, unless the in-memory
    /// hash join can take its key columns straight off the table
    /// ([`Executor::scan_key_cols`]) and make rows of the matches only.
    #[allow(clippy::too_many_arguments)]
    fn join_step(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        rows: &[Row],
        layout: &Layout,
        right: Build<'_, '_>,
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut right_layout = Layout::new();
        right_layout.push(next, qgm.output_arity(qgm.quant(next).input));

        let keys = join::split_equi_keys(applicable.iter().map(|&i| &preds[i]), layout, next);
        *applicable = keys.residual.iter().map(|&at| applicable[at]).collect();

        let gathered;
        let right = match right {
            Build::Rows(right) => right,
            Build::Scan(sel) => match self.scan_key_cols(&keys.right, next, sel.len()) {
                Some(cols) => {
                    let out = self.scan_hash_join(rows, layout, sel, &cols, &keys, env)?;
                    self.note_joined(next, JoinStrategy::Hash, rows.len(), sel.len(), out.len());
                    return Ok(out);
                }
                None => {
                    let mut io = PageIo::default();
                    gathered = sel.gather(&mut io)?;
                    self.note_io(io);
                    &gathered
                }
            },
        };
        let (strategy, out) = if keys.left.is_empty() {
            // Cross product (with residual filtering done by the caller).
            // The output size is known up front, so the memory ceiling is
            // enforced before materializing anything.
            let projected = rows.len() * right.len();
            self.check_mem(projected, "cross join")?;
            self.checkpoint(projected as u64)?;
            let mut out = Vec::with_capacity(projected.max(1));
            self.stats.nl_comparisons += projected as u64;
            for l in rows {
                self.checkpoint(0)?;
                for r in right.iter() {
                    out.push(l.concat(r));
                }
            }
            (JoinStrategy::Cross, out)
        } else {
            self.equi_join(rows, layout, right, &right_layout, &keys, env)?
        };
        self.note_joined(next, strategy, rows.len(), right.len(), out.len());
        Ok(out)
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

    /// The columns keying a scanned build side of `build_rows` rows, when
    /// the in-memory hash join can read them off the table: kernels on,
    /// every build key a plain column of the scanned quantifier, the build
    /// side within the memory budget. Anything else — a computed key, the
    /// row-wise reference configuration, a Grace spill or a block
    /// nested-loop degradation — joins rows.
    fn scan_key_cols(
        &self,
        right_keys: &[join::KeyExpr<'_>],
        next: QuantId,
        build_rows: usize,
    ) -> Option<Vec<usize>> {
        if !self.opts.columnar || right_keys.is_empty() || self.over_mem_budget(build_rows) {
            return None;
        }
        right_keys
            .iter()
            .map(|(k, _)| match k {
                Expr::Col { quant, col } if *quant == next => Some(*col),
                _ => None,
            })
            .collect()
    }

    /// The in-memory hash join with a scan as its build side: hash the key
    /// columns `cols` at the scan's surviving positions (copied out of the
    /// table, so nothing stays pinned while the join runs), match as ever,
    /// then make a row of each build survivor that found a partner — once,
    /// however many partners — and concatenate.
    fn scan_hash_join(
        &mut self,
        rows: &[Row],
        layout: &Layout,
        build: &ScanSel<'_>,
        cols: &[usize],
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut io = PageIo::default();
        let rs = JoinSide::from_scan(build, cols, &keys.right, &mut io)?;
        let ls = JoinSide::build(&self.pool, rows, layout, &keys.left, env, true)?;
        let pairs = self.hash_pairs(&ls, &rs, rows.len(), build.len())?;
        let (matched, slot) = build.gather_matched(pairs.iter().map(|&(_, ri)| ri), &mut io)?;
        self.note_io(io);
        Ok(pairs
            .iter()
            .map(|&(li, ri)| rows[li as usize].concat(&matched[slot[ri as usize] as usize]))
            .collect())
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
        &self,
        rows: &[Row],
        layout: &Layout,
        right: &[Row],
        right_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<(JoinSide, JoinSide)> {
        let columnar = self.opts.columnar;
        let rs = JoinSide::build(&self.pool, right, right_layout, &keys.right, env, columnar)?;
        let ls = JoinSide::build(&self.pool, rows, layout, &keys.left, env, columnar)?;
        Ok((ls, rs))
    }

    /// Inner equi-join of `rows` with `right` on `keys`, in serial probe
    /// order (left row order, then build order) whichever algorithm runs:
    /// the in-memory hash join; or, with a build side over the memory
    /// budget, a Grace hash join when there is a spill manager and a block
    /// nested-loop join when there is none (or its device is full).
    fn equi_join(
        &mut self,
        rows: &[Row],
        layout: &Layout,
        right: &[Row],
        right_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
    ) -> Result<(JoinStrategy, Vec<Row>)> {
        let (ls, rs) = self.join_sides(rows, layout, right, right_layout, keys, env)?;
        if self.over_mem_budget(right.len()) {
            if let Some(spill) = self.opts.spill.clone() {
                let parts = self.spill_parts(right.len());
                self.note_spill(&format!(
                    "hash-join build side of {} rows exceeds mem_budget; \
                     spilling {parts} grace partitions",
                    right.len()
                ));
                let spilled = self.spilled_hash_join(
                    rows,
                    layout,
                    right,
                    right_layout,
                    keys,
                    env,
                    &ls,
                    &rs,
                    &spill,
                    parts,
                );
                match spilled {
                    Ok(out) => return Ok((JoinStrategy::GraceHash, out)),
                    // Fail-closed ENOSPC: the spill file cannot grow, so
                    // fall back to the spill-free degradation path — same
                    // matches, same order, no disk.
                    Err(Error::StorageFull(_)) => self.note_degradation(
                        "spill device full (ENOSPC); falling back to \
                         block nested-loop join",
                    ),
                    Err(e) => return Err(e),
                }
            }
            self.note_degradation(&format!(
                "hash-join build side of {} rows exceeds mem_budget; \
                 using block nested-loop join",
                right.len()
            ));
            let out = self.nested_loop_equi_join(rows, right, &ls, &rs)?;
            return Ok((JoinStrategy::NestedLoop, out));
        }

        let pairs = self.hash_pairs(&ls, &rs, rows.len(), right.len())?;
        let out = pairs
            .iter()
            .map(|&(li, ri)| rows[li as usize].concat(&right[ri as usize]))
            .collect();
        Ok((JoinStrategy::Hash, out))
    }

    /// Memory-degraded equi-join: no hash table, just the two hashed sides
    /// compared pairwise — the hash prefilters, the keys decide. Same
    /// matches and same output order as the hash join, so degrading never
    /// changes the result bytes.
    fn nested_loop_equi_join(
        &mut self,
        rows: &[Row],
        right: &[Row],
        ls: &JoinSide,
        rs: &JoinSide,
    ) -> Result<Vec<Row>> {
        self.checkpoint((rows.len() * right.len()) as u64)?;
        self.stats.nl_comparisons += (rows.len() * right.len()) as u64;
        let mut out = Vec::new();
        for (li, l) in rows.iter().enumerate() {
            self.checkpoint(0)?;
            let Some(lh) = ls.hash(li) else { continue };
            for (ri, r) in right.iter().enumerate() {
                if rs.hash(ri) == Some(lh) && ls.key_eq(li, rs, ri) {
                    out.push(l.concat(r));
                }
            }
            self.check_mem(out.len(), "nested-loop join")?;
        }
        Ok(out)
    }

    /// Grace hash join: the disk-backed path for a build side over the
    /// memory budget. Both sides hash-partition into a [`SpillSet`] by the
    /// key hashes of `ls` / `rs`, and each partition is read back and joined
    /// by the same kernel as the in-memory join. Equal keys always land in
    /// the same partition and each partition preserves its side's input
    /// order, so stable-sorting the matches by original probe index
    /// reproduces the in-memory join's rows byte for byte.
    #[allow(clippy::too_many_arguments)]
    fn spilled_hash_join(
        &mut self,
        rows: &[Row],
        layout: &Layout,
        right: &[Row],
        right_layout: &Layout,
        keys: &EquiKeys<'_>,
        env: Option<&Env<'_>>,
        ls: &JoinSide,
        rs: &JoinSide,
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<Row>> {
        self.checkpoint((rows.len() + right.len()) as u64)?;
        self.stats.hash_build_rows += right.len() as u64;
        self.stats.hash_probes += rows.len() as u64;

        // Rows whose key is NULL/NaN match nothing and are never spilled.
        let mut rset = spill.partition_set(parts)?;
        for (i, r) in right.iter().enumerate() {
            if let Some(p) = rs.partition(i, parts) {
                rset.push(p, r.clone())?;
            }
        }
        rset.finish()?;
        // Probe rows carry their original index for the final
        // order-restoring sort.
        let mut lset = spill.partition_set(parts)?;
        for (i, l) in rows.iter().enumerate() {
            if let Some(p) = ls.partition(i, parts) {
                lset.push(p, tag_row(i, l))?;
            }
        }
        lset.finish()?;

        let mut io = PageIo::default();
        let mut tagged: Vec<(i64, Row)> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let build = rset.read_partition(p, &mut io)?;
            let (origs, probe) = untag_rows(lset.read_partition(p, &mut io)?)?;
            let (pls, prs) = self.join_sides(&probe, layout, &build, right_layout, keys, env)?;
            for (li, ri) in join::match_pairs(&self.pool, &pls, &prs, false) {
                let (li, ri) = (li as usize, ri as usize);
                tagged.push((origs[li], probe[li].concat(&build[ri])));
            }
            self.check_mem(tagged.len(), "hash join")?;
        }
        self.note_io(io);
        tagged.sort_by_key(|&(i, _)| i);
        Ok(tagged.into_iter().map(|(_, r)| r).collect())
    }

    /// Join a *deferred* base table: drive it through an index
    /// (index nested loops) when an equality predicate binds an indexed
    /// column to the already-bound rows and the bound side is small;
    /// otherwise scan it now and fall back to the hash join.
    #[allow(clippy::too_many_arguments)]
    fn join_deferred(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        table: &str,
        rows: &[Row],
        layout: &Layout,
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let t = self.db.table(table)?;
        let indexed = |c: usize, _: &Expr| t.index_on(&[c]).is_some();
        let probe = find_eq_probe(preds, applicable, next, indexed)
            .filter(|_| rows.len() * 2 < t.len().max(1));
        let Some((pi, col, keyexpr)) = probe else {
            // (A deferred table carries an index, so it is resident.)
            self.stats.rows_scanned += t.len() as u64;
            let right = Build::Rows(t.rows());
            return self.join_step(qgm, next, rows, layout, right, preds, applicable, env);
        };
        applicable.retain(|&i| i != pi);
        let idx = t.index_on(&[col]).expect("checked above");
        let mut out = Vec::new();
        for l in rows {
            self.checkpoint(1)?;
            let key = eval_expr(keyexpr, &Env::new(layout, l, env))?;
            // The index normalizes the probe like any Eq key: NULL/NaN
            // find nothing, -0.0 finds 0.0.
            self.stats.index_lookups += 1;
            let positions = idx.lookup(std::slice::from_ref(&key));
            self.stats.index_rows += positions.len() as u64;
            for &p in positions {
                out.push(l.concat(&t.rows()[p]));
            }
        }
        let strategy = JoinStrategy::IndexNestedLoop;
        self.note_joined(next, strategy, rows.len(), t.len(), out.len());
        Ok(out)
    }

    /// Lateral join: evaluate the child once per bound row.
    fn join_lateral(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        rows: &[Row],
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let child = qgm.quant(next).input;
        let mut out = Vec::new();
        if self.opts.ni_memo && self.opts.ni_batch {
            // Batched lateral: group the outer rows by correlation key so
            // each distinct binding executes the subquery once per batch,
            // then gather results back in the original row order.
            let sig = self.corr_sig(qgm, child);
            let mut slot_of: FxHashMap<MemoKey, usize> = FxHashMap::default();
            let mut slot_rows: Vec<Option<RowBatch>> = Vec::new();
            let mut assignment: Vec<Option<usize>> = Vec::with_capacity(rows.len());
            for l in rows {
                self.checkpoint(1)?;
                let env2 = Env::new(layout, l, env);
                let Some(key) = sig.key_under(&env2) else {
                    assignment.push(None);
                    continue;
                };
                match slot_of.get(&key) {
                    Some(&s) => {
                        // Logical invocation, physically shared with the
                        // first row of the group.
                        self.count_subq_hit(child);
                        assignment.push(Some(s));
                    }
                    None => {
                        let sub = self.memoized_child(qgm, child, &env2, true)?;
                        let s = slot_rows.len();
                        slot_rows.push(Some(sub));
                        slot_of.insert(key, s);
                        assignment.push(Some(s));
                    }
                }
            }
            for (l, slot) in rows.iter().zip(assignment) {
                let sub = match &slot {
                    Some(s) => RowBatch::clone(slot_rows[*s].as_ref().expect("slot filled")),
                    None => {
                        // Unkeyable binding (an unbound free ref): evaluate
                        // this row on its own, as the per-row path would.
                        let env2 = Env::new(layout, l, env);
                        self.memoized_child(qgm, child, &env2, true)?
                    }
                };
                for r in sub.iter() {
                    out.push(l.concat(r));
                }
                self.check_mem(out.len(), "lateral join")?;
            }
        } else {
            for l in rows {
                self.checkpoint(1)?;
                let env2 = Env::new(layout, l, env);
                let sub = self.memoized_child(qgm, child, &env2, true)?;
                for r in sub.iter() {
                    out.push(l.concat(r));
                }
                self.check_mem(out.len(), "lateral join")?;
            }
        }
        self.note_joined(
            next,
            JoinStrategy::Lateral,
            rows.len(),
            rows.len(),
            out.len(),
        );
        Ok(out)
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

    /// EarliestBinding: append the scalar subquery's value as an extra
    /// column of every row.
    fn append_scalar_column(
        &mut self,
        qgm: &Qgm,
        sq: QuantId,
        rows: Vec<Row>,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for mut r in rows {
            self.checkpoint(0)?;
            let v = {
                let env2 = Env::new(layout, &r, env);
                self.scalar_subquery_value(qgm, sq, &env2)?
            };
            r.0.push(v);
            out.push(r);
        }
        Ok(out)
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
                agg_slots.push(AggSlot {
                    func: *func,
                    arg: arg.as_deref(),
                    distinct: *distinct,
                    out_pos: i,
                });
            }
        }

        // Grand totals (no GROUP BY) whose aggregates are plain-column
        // COUNT/SUM/MIN/MAX vectorize: the aggregate kernels fold each
        // argument as a column and reproduce the serial fold exactly
        // (Double accumulation order and Int overflow included).
        let kernel_cols = if self.opts.columnar && group_by.is_empty() {
            grand_total_cols(&agg_slots, &layout)
        } else {
            None
        };

        // When such a total, made of aggregates alone, sits right on a
        // Select that only scans a paged table, the scan's survivors never
        // become rows: the arguments come off the pages as columns
        // (`scan`, with the table column behind each of the Select's
        // outputs), in page order — the serial fold order.
        let scan_shape = match &kernel_cols {
            Some(_) if agg_slots.len() == bx.outputs.len() => self.scan_only_select(qgm, child),
            _ => None,
        };
        let (input, scan) = match scan_shape {
            None => (self.eval_child(qgm, child, env)?, None),
            Some(shape) => self.eval_scan_only_select(qgm, child, shape, env)?,
        };
        let input_rows = scan.as_ref().map_or(input.len(), |(sel, _)| sel.len());

        self.checkpoint(input_rows as u64)?;
        self.stats.agg_input_rows += input_rows as u64;

        // Memory governance: a hash-aggregation table over this input
        // could exceed the budget (worst case, one group per row). With a
        // spill manager, partition the input by group-key hash to disk and
        // aggregate one budget-sized partition at a time — rows, float
        // accumulation order and first-appearance emission order are all
        // identical to the in-memory hash path. Without one, degrade to
        // sort-based grouping — the stable sort keeps each group's rows in
        // input order, so per-group accumulation (and floating-point sums)
        // matches the hash path exactly; only the emission order changes
        // (key-sorted instead of first-appearance).
        let over_budget = self.over_mem_budget(input_rows);
        let spilling = if over_budget {
            self.opts.spill.clone()
        } else {
            None
        };
        let degraded = over_budget && spilling.is_none();
        if let Some(_mgr) = &spilling {
            let parts = self.spill_parts(input.len());
            self.note_spill(&format!(
                "grouping input of {} rows exceeds mem_budget; \
                 spilling {parts} hash partitions",
                input.len()
            ));
        } else if degraded {
            self.note_degradation(&format!(
                "grouping input of {} rows exceeds mem_budget; \
                 using sort-based aggregation",
                input.len()
            ));
        }

        let kernel_cols = kernel_cols.filter(|_| !over_budget);
        let keys = &GroupKeys::compile(group_by, &layout, self.opts.columnar);

        // One accumulator vector per group (one accumulator per agg slot),
        // in first-appearance order. Large inputs aggregate into
        // thread-local tables over contiguous slices, merged in slice
        // order — the merge replays distinct values in first-seen order,
        // so the result is the one the serial fold produces.
        let groups: Vec<Group> = if let Some(mgr) = &spilling {
            let parts = self.spill_parts(input.len());
            match self.spilled_groups(&input, &layout, env, keys, &agg_slots, mgr, parts) {
                Ok(groups) => groups,
                // Fail-closed ENOSPC: the spill partitions cannot grow, so
                // degrade to the spill-free sort-based path (key-sorted
                // emission, identical per-group accumulation).
                Err(Error::StorageFull(_)) => {
                    self.note_degradation(
                        "spill device full (ENOSPC); falling back to \
                         sort-based aggregation",
                    );
                    sort_groups(&input, &layout, env, keys, &agg_slots)?
                }
                Err(e) => return Err(e),
            }
        } else if degraded {
            sort_groups(&input, &layout, env, keys, &agg_slots)?
        } else if let Some((sel, out_cols)) = scan.as_ref().filter(|(sel, _)| sel.len() > 0) {
            let cols = kernel_cols
                .as_ref()
                .expect("a scan is only kept for kernels");
            let mut io = PageIo::default();
            let args = cols
                .iter()
                .map(|c| c.map(|c| sel.column(out_cols[c], &mut io)).transpose())
                .collect::<Result<Vec<_>>>()?;
            self.note_io(io);
            grand_total_groups(sel.len(), None, &agg_slots, &args)?
        } else if let (Some(cols), false) = (&kernel_cols, input.is_empty()) {
            let args: Vec<Option<Column>> = cols
                .iter()
                .map(|c| c.map(|c| Column::from_values(input.iter().map(|r| &r[c]), input.len())))
                .collect();
            grand_total_groups(input.len(), Some(input[0].clone()), &agg_slots, &args)?
        } else if self.parallel_over(input.len()) {
            let partials = self.pool.map_worker_slices(&input, |slice| {
                build_groups(slice, &layout, env, keys, &agg_slots, true)
            });
            let mut merged: Vec<Group> = Vec::new();
            let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
            for partial in partials {
                merge_groups(&mut merged, &mut index, partial?.0, &agg_slots)?;
            }
            merged
        } else {
            build_groups(&input, &layout, env, keys, &agg_slots, false)?.0
        };
        let mut groups = groups;

        // A grand-total aggregate (no GROUP BY) over empty input still
        // produces one row — the asymmetry behind the COUNT bug.
        if groups.is_empty() && group_by.is_empty() {
            groups.push(Group::new(Vec::new(), None, agg_slots.len()));
        }

        self.stats.agg_groups += groups.len() as u64;
        self.check_mem(groups.len(), "grouping")?;

        let mut out = Vec::with_capacity(groups.len());
        let nulls = Row::nulls(layout.width());
        for group in &groups {
            let env1 = Env::new(&layout, group.rep.as_ref().unwrap_or(&nulls), env);
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

    /// Evaluate the scan-only Select `b` (of `shape`, as
    /// [`Executor::scan_only_select`] found it) for a consumer that can
    /// work from columns: the scan's survivors, still in their table, with
    /// the table column behind each output — or, when that consumer will
    /// not run on kernels after all (an input over the memory budget, an
    /// index probe or predicates that had to make rows), the Select's
    /// rows. Counts and traces as `eval_box` on `b` does.
    fn eval_scan_only_select(
        &mut self,
        qgm: &Qgm,
        b: BoxId,
        (q, t, out_cols): ScanOnly<'a>,
        env: Option<&Env<'_>>,
    ) -> Result<(RowBatch, Option<ScannedOutputs<'a>>)> {
        let preds: &[Expr] = &qgm.boxref(b).preds;
        let every: Vec<usize> = (0..preds.len()).collect();
        let mut read = out_cols.clone();
        read.sort_unstable();
        read.dedup();
        let scanned = self.traced(
            b,
            |ex| {
                ex.checkpoint(0)?;
                ex.scan_table(t, q, preds, &every, read, env)
            },
            Input::len,
        )?;
        match scanned {
            Input::Scan(sel) if !self.over_mem_budget(sel.len()) => {
                Ok((Vec::new().into(), Some((sel, out_cols))))
            }
            scanned => {
                let rows = self.gathered(scanned)?.into_vec();
                Ok((select_shape(rows, &out_cols), None))
            }
        }
    }

    /// Is box `b` a Select that does nothing but scan a table — one
    /// Foreach quantifier over it, every predicate on that quantifier, the
    /// outputs plain columns of it, no DISTINCT, and no cache that would
    /// want the box's rows? Then: the quantifier, the table, and the table
    /// column behind each output.
    fn scan_only_select(&self, qgm: &Qgm, b: BoxId) -> Option<ScanOnly<'a>> {
        let bx = qgm.boxref(b);
        let &[q] = &bx.quants[..] else { return None };
        let cached = self.opts.memoize_cse
            || (self.opts.shared_subplans.as_ref()).is_some_and(|ss| ss.marks.contains_key(&b));
        if !matches!(bx.kind, BoxKind::Select)
            || bx.distinct
            || cached
            || qgm.quant(q).kind != QuantKind::Foreach
            || !bx.preds.iter().all(|p| p.references(q))
        {
            return None;
        }
        let BoxKind::BaseTable { table, .. } = &qgm.boxref(qgm.quant(q).input).kind else {
            return None;
        };
        let t = self.db.table(table).ok()?;
        let out_cols = bx
            .outputs
            .iter()
            .map(|o| match &o.expr {
                Expr::Col { quant, col } if *quant == q => Some(*col),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some((q, t, out_cols))
    }

    // ---- Union and OuterJoin ------------------------------------------------

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

    /// Left outer join. When the right child is a scan-only Select —
    /// Dayal's subquery block, its correlation predicate lifted into the
    /// ON clause — and the scan's columns can key the hash table, the
    /// child hands on its selection, the keys are hashed off the table and
    /// only the build positions that found a partner become rows.
    fn eval_outer_join(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let (ql, qr) = (bx.quants[0], bx.quants[1]);
        let (lchild, rchild) = (qgm.quant(ql).input, qgm.quant(qr).input);
        let l_arity = qgm.output_arity(lchild);
        let r_arity = qgm.output_arity(rchild);

        let mut layout = Layout::new();
        layout.push(ql, l_arity);
        layout.push(qr, r_arity);
        let mut l_layout = Layout::new();
        l_layout.push(ql, l_arity);
        let mut r_layout = Layout::new();
        r_layout.push(qr, r_arity);
        let keys = join::split_equi_keys(&bx.preds, &l_layout, qr);

        let left = self.eval_child(qgm, lchild, env)?;
        let key_cols = self.scan_key_cols(&keys.right, qr, 0);
        let shape = key_cols
            .as_ref()
            .and_then(|_| self.scan_only_select(qgm, rchild));
        let (right, scan) = match shape {
            None => (self.eval_child(qgm, rchild, env)?, None),
            Some(shape) => self.eval_scan_only_select(qgm, rchild, shape, env)?,
        };
        let right_rows = scan.as_ref().map_or(right.len(), |(sel, _)| sel.len());

        self.checkpoint((left.len() + right_rows) as u64)?;

        // Memory governance: the hash table covers the whole right side,
        // so when that exceeds the budget every ON predicate is treated as
        // residual — the keyless walk below tries every right row per left
        // row (a block nested-loop outer join), identical match semantics.
        let degraded = self.over_mem_budget(right_rows);
        if degraded {
            self.note_degradation(&format!(
                "outer-join build side of {right_rows} rows exceeds mem_budget; \
                 using nested-loop outer join"
            ));
            self.stats.nl_comparisons += (left.len() * right_rows) as u64;
        } else {
            self.stats.hash_build_rows += right_rows as u64;
            self.stats.hash_probes += left.len() as u64;
        }
        let residual: Vec<&Expr> = if degraded {
            bx.preds.iter().collect()
        } else {
            keys.residual.iter().map(|&i| &bx.preds[i]).collect()
        };

        // Key matches in left-row order; a keyless ON clause offers every
        // right row to every left row instead.
        let keyed = !degraded && !keys.left.is_empty();
        debug_assert!(
            scan.is_none() || keyed,
            "a scan is only kept for a hash table"
        );
        let mut io = PageIo::default();
        let mut pairs = if keyed {
            let (ls, rs) = match (&scan, key_cols) {
                (Some((sel, out_cols)), Some(key_cols)) => {
                    let cols: Vec<usize> = key_cols.iter().map(|&c| out_cols[c]).collect();
                    let rs = JoinSide::from_scan(sel, &cols, &keys.right, &mut io)?;
                    let ls = JoinSide::build(&self.pool, &left, &l_layout, &keys.left, env, true)?;
                    (ls, rs)
                }
                _ => self.join_sides(&left, &l_layout, &right, &r_layout, &keys, env)?,
            };
            let parallel = self.parallel_over(left.len().max(right_rows));
            join::match_pairs(&self.pool, &ls, &rs, parallel)
        } else {
            Vec::new()
        };
        // Of a scanned build side, the matched positions alone become rows
        // (in the Select's output shape); the pairs then index those.
        let right = match scan {
            None => right,
            Some((sel, out_cols)) => {
                let (matched, slot) = sel.gather_matched(pairs.iter().map(|p| p.1), &mut io)?;
                for p in &mut pairs {
                    p.1 = slot[p.1 as usize];
                }
                select_shape(matched, &out_cols)
            }
        };
        self.note_io(io);
        let every_right = 0..if keyed { 0 } else { right.len() };

        // Walk the candidates per left row: a candidate passing the
        // residual predicates emits a joined row; a left row nothing
        // matched emits once, null-extended. With plain-column outputs and
        // no residual predicate every cell is copied once, from the left or
        // the build row, through offsets compiled here; otherwise the
        // evaluator reads a combined scratch row.
        let outputs = &bx.outputs;
        let offsets = vector::compile_projection(outputs.iter().map(|o| &o.expr), &layout)
            .filter(|_| self.opts.columnar && residual.is_empty());
        let nulls = Row::nulls(r_arity);
        let morsels = self.for_morsels(left.len(), |lo, hi| {
            let mut evals = 0u64;
            let mut combined = Row::empty();
            let out = join::walk_outer(
                &left,
                lo..hi,
                &pairs,
                &right,
                every_right.clone(),
                |l, r, out| {
                    if let Some(offs) = &offsets {
                        let r = r.unwrap_or(&nulls);
                        let cell = |&o: &usize| match o.checked_sub(l_arity) {
                            None => l[o].clone(),
                            Some(c) => r[c].clone(),
                        };
                        out.push(offs.iter().map(cell).collect());
                        return Ok(true);
                    }
                    l.concat_into(r.unwrap_or(&nulls), &mut combined);
                    let env2 = Env::new(&layout, &combined, env);
                    let ok = r.is_none() || qualifies_all(&residual, &env2, &mut evals)?;
                    if ok {
                        out.push(project_row(outputs, &env2)?);
                    }
                    Ok(ok)
                },
            )?;
            Ok((out, evals))
        })?;
        let mut out = Vec::new();
        let mut evals = 0u64;
        for (o, e) in morsels {
            out.extend(o);
            evals += e;
        }
        self.check_mem(out.len(), "outer join")?;
        self.note_preds(evals);
        let strategy = if keyed {
            JoinStrategy::Hash
        } else {
            JoinStrategy::NestedLoop
        };
        self.note_joined(qr, strategy, left.len(), right_rows, out.len());
        Ok(out)
    }
}

/// Rows of a scanned table as the rows of the scan-only Select whose
/// outputs are the table columns `out_cols`.
fn select_shape(rows: Vec<Row>, out_cols: &[usize]) -> RowBatch {
    match rows.first() {
        Some(r) if !out_cols.iter().copied().eq(0..r.arity()) => {
            rows.iter().map(|r| r.project(out_cols)).collect()
        }
        _ => rows.into(),
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

/// The first applicable predicate of the shape `Col(q, c) = <expr not over
/// q>` that `accept(c, expr)` takes, as `(predicate index, c, expr)` — the
/// search behind the index probe, the correlation probe and the index
/// nested-loop join.
fn find_eq_probe<'e>(
    preds: &'e [Expr],
    applicable: &[usize],
    q: QuantId,
    accept: impl Fn(usize, &Expr) -> bool,
) -> Option<(usize, usize, &'e Expr)> {
    for &i in applicable {
        let Expr::Binary { op: BinOp::Eq, left, right } = &preds[i] else {
            continue;
        };
        for (a, b) in [(left, right), (right, left)] {
            if let Expr::Col { quant, col } = a.as_ref() {
                if *quant == q && !b.references(q) && accept(*col, b) {
                    return Some((i, *col, b));
                }
            }
        }
    }
    None
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
    /// grouping input over the memory budget. Rows partition to disk by
    /// group-key hash tagged with their original index; each partition —
    /// which holds *every* row of each of its groups, in input order —
    /// then hash-aggregates exactly like the in-memory path, and groups
    /// are stable-sorted by the index of their first row to restore the
    /// global first-appearance emission order.
    #[allow(clippy::too_many_arguments)]
    fn spilled_groups(
        &mut self,
        input: &[Row],
        layout: &Layout,
        env: Option<&Env<'_>>,
        group_by: &GroupKeys<'_>,
        slots: &[AggSlot<'_>],
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<Group>> {
        let mut set = spill.partition_set(parts)?;
        for (i, r) in input.iter().enumerate() {
            let key = group_by.of(r, &Env::new(layout, r, env))?;
            set.push((key.hash() % parts as u64) as usize, tag_row(i, r))?;
        }
        set.finish()?;

        let mut io = PageIo::default();
        let mut tagged: Vec<(i64, Group)> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let (origs, rows) = untag_rows(set.read_partition(p, &mut io)?)?;
            let (groups, firsts) = build_groups(&rows, layout, env, group_by, slots, false)?;
            tagged.extend(firsts.into_iter().map(|f| origs[f]).zip(groups));
        }
        self.note_io(io);
        tagged.sort_by_key(|&(i, _)| i);
        Ok(tagged.into_iter().map(|(_, g)| g).collect())
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
