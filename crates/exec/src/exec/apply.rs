//! Nested iteration: a subquery or a lateral input applied per binding,
//! through the run memo.

use decorr_common::{Error, FxHashMap, Result, Row, RowBatch, Value};
use decorr_qgm::{BoxId, QuantId};
use decorr_stats::shape::Input;

use super::lower::Plan;
use super::Executor;
use crate::env::{Env, Layout};
use crate::trace::JoinStrategy;
use crate::tuple::{Src, Tuples};

/// An applied input's correlation signature: the outer columns its subtree
/// reads (its free references, in `Qgm::free_refs` order) plus the
/// binding-key normalization the memo may safely apply.
pub(super) struct CorrSig {
    pub refs: Vec<(QuantId, usize)>,
    /// Every free-reference occurrence in the subtree sits under a SQL
    /// comparison operand (`= <> < <= > >=`, reached only through
    /// arithmetic), so binding classes SQL comparison cannot distinguish —
    /// NULL vs NaN (both compare to nothing) and `-0.0` vs `0.0` — provably
    /// produce identical results and the key normalizes `eq_key`-style,
    /// exactly like a hash-join key.
    /// Otherwise the key keeps raw values under [`Value`]'s total
    /// equality, which is always sound: total-equal bindings are
    /// indistinguishable to the interpreter.
    pub sql_norm: bool,
}

impl CorrSig {
    /// The memo key for one binding: each free reference resolved through
    /// the environment chain, normalized per `sql_norm`. `None` when a
    /// reference is unbound (the caller falls back to direct evaluation).
    fn key_under(&self, env: &Env<'_>) -> Option<MemoKey> {
        let mut key = Vec::with_capacity(9 * self.refs.len());
        for &(q, c) in &self.refs {
            let v = env.lookup(q, c)?;
            // NULL and NaN fold to one class (both match nothing under SQL
            // comparison), -0.0 folds onto 0.0.
            let folded = self.sql_norm.then(|| v.eq_key().unwrap_or(Value::Null));
            match folded.as_ref().unwrap_or(v) {
                Value::Null => key.push(0),
                Value::Bool(b) => key.extend([1, *b as u8]),
                Value::Int(i) => {
                    key.push(2);
                    key.extend(i.to_le_bytes());
                }
                Value::Double(d) => {
                    key.push(3);
                    key.extend(d.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    key.push(4);
                    key.extend((s.len() as u64).to_le_bytes());
                    key.extend(s.as_bytes());
                }
            }
        }
        Some(MemoKey(key))
    }
}

/// Exact binding-tuple key for the subquery memo: per value a tag byte and
/// its exact bits — `Int` by integer, `Double` by bit pattern, a string
/// length-prefixed.
///
/// [`Value`]'s own `Eq`/`Hash` follow the total order, which unifies `Int`
/// and `Double` *numerically through `f64`* — lossy past 2^53, so two
/// distinguishable bindings could share a map slot. A memo may always
/// over-split (a missed hit just re-executes) but may never falsely merge.
/// `-0.0`/`0.0` and NULL/NaN folding, where provably safe, happens *before*
/// the key is built (see [`CorrSig::sql_norm`]).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub(super) struct MemoKey(Vec<u8>);

/// The run memo: every box result kept for reuse within one run.
///
/// Two lifetimes share it. An entry of `kept` lives for the run: keyed by
/// box and binding key (empty for an uncorrelated box), it holds the
/// result and the logical invocations its execution made of the subqueries
/// nested inside it, which a hit counts again. Each of its rows is charged
/// to [`ExecOptions::mem_budget`](super::ExecOptions::mem_budget) once, and
/// a result the ledger refuses is returned without being kept. The
/// `frame` holds, for the innermost Select evaluation, the results of its
/// children not correlated to it — constants for the whole evaluation, as
/// naive iteration treats them — and is dropped when that evaluation
/// returns.
#[derive(Default)]
pub(super) struct RunMemo {
    kept: FxHashMap<(BoxId, MemoKey), (RowBatch, u64)>,
    /// Rows held by `kept`.
    rows: usize,
    /// The most rows `kept` may hold.
    budget: Option<usize>,
    pub frame: FxHashMap<BoxId, RowBatch>,
}

impl RunMemo {
    pub fn new(budget: Option<usize>) -> Self {
        RunMemo { budget, ..Self::default() }
    }

    pub fn get(&self, k: &(BoxId, MemoKey)) -> Option<(RowBatch, u64)> {
        self.kept.get(k).cloned()
    }

    /// Keep `rows` for the run if the ledger has room for them.
    pub fn keep(&mut self, k: (BoxId, MemoKey), rows: &RowBatch, nested: u64) {
        if self.budget.is_none_or(|mb| self.rows + rows.len() <= mb) {
            self.rows += rows.len();
            self.kept.insert(k, (RowBatch::clone(rows), nested));
        }
    }
}

impl<'a> Executor<'a> {
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

    /// Evaluate box `b`, then keep its rows in the run memo under `k`, if
    /// any, with the subquery invocations the evaluation made.
    fn eval_kept(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        env: Option<&Env<'_>>,
        k: Option<(BoxId, MemoKey)>,
    ) -> Result<RowBatch> {
        let before = self.stats.subquery_invocations;
        let rows: RowBatch = self.eval_box(plan, b, env)?.into();
        if let Some(k) = k {
            let nested = self.stats.subquery_invocations - before;
            self.memo.keep(k, &rows, nested);
        }
        Ok(rows)
    }

    /// Evaluate a subquery child for the current binding: from the run
    /// memo under its binding key (`ni_memo`), else executed.
    ///
    /// `correlated_here` says the child reads columns bound by the block
    /// currently being evaluated — i.e. each candidate row is a *logical*
    /// invocation (always counted in `subquery_invocations`, hit or miss).
    /// Children correlated only to outer blocks are constants for the
    /// whole enclosing evaluation: one logical invocation per enclosing
    /// evaluation, after which its frame serves them uncounted.
    fn memoized_child(
        &mut self,
        plan: &Plan<'_>,
        child: BoxId,
        env2: &Env<'_>,
        correlated_here: bool,
    ) -> Result<RowBatch> {
        if !correlated_here {
            if let Some(rows) = self.memo.frame.get(&child) {
                return Ok(RowBatch::clone(rows));
            }
        }
        // Naive iteration keys nothing; nor does an unbound free reference.
        let key = plan.memo.then(|| plan.sig(child).key_under(env2)).flatten();
        let k = key.map(|key| (child, key));
        let rows = match k.as_ref().and_then(|k| self.memo.get(k)) {
            Some((rows, nested)) => {
                self.count_subq_hit(child, nested);
                rows
            }
            None => {
                // An execution: an invocation, and a distinct one.
                self.stats.subquery_invocations += 1;
                self.stats.subquery_distinct_invocations += 1;
                self.eval_kept(plan, child, Some(env2), k)?
            }
        };
        if !correlated_here {
            self.memo.frame.insert(child, RowBatch::clone(&rows));
        }
        Ok(rows)
    }

    /// Lateral join: evaluate the input once per bound candidate; its rows
    /// are the right input, one copy per candidate it joins.
    pub(super) fn join_lateral(
        &mut self,
        plan: &Plan<'_>,
        input: &Input<'_>,
        mut left: Tuples<'a>,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        self.settle(&mut left)?;
        let n = left.len();
        let mut scratch = Row::empty();
        let (mut pairs, mut right) = (Vec::new(), Vec::new());
        for l in 0..n {
            self.checkpoint(1)?;
            let env2 = Env::new(layout, left.row(l, &mut scratch), env);
            let sub = self.memoized_child(plan, input.child, &env2, true)?;
            for r in sub.iter() {
                pairs.push((l as u32, right.len() as u32));
                right.push(r.clone());
            }
            self.check_mem(pairs.len(), "lateral join")?;
        }
        self.note_joined(input.q, JoinStrategy::Lateral, n, n, pairs.len());
        let right = Tuples::every(Src::Owned(right), input.arity);
        self.join_tuples(left, right, &pairs)
    }

    /// The rows of a subquery quantifier for the current candidate row:
    /// a *logical* per-candidate invocation only if the child reads
    /// anything bound in the innermost frame.
    pub(super) fn subquery_rows(
        &mut self,
        plan: &Plan<'_>,
        sq: QuantId,
        env2: &Env<'_>,
    ) -> Result<RowBatch> {
        let child = plan.qgm.quant(sq).input;
        let refs = &plan.sig(child).refs;
        let correlated_here = refs.iter().any(|&(fq, _)| env2.layout.contains(fq));
        self.memoized_child(plan, child, env2, correlated_here)
    }

    /// Append the scalar subquery's value to every candidate, as a column
    /// of its own.
    pub(super) fn append_scalar_column(
        &mut self,
        plan: &Plan<'_>,
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
            let rows = self.subquery_rows(plan, sq, &env2)?;
            let value = match rows.len() {
                0 => Value::Null,
                1 => rows[0][0].clone(),
                n => return Err(Error::eval(format!("scalar subquery returned {n} rows"))),
            };
            values.push(Row::new(vec![value]));
        }
        let pairs: Vec<(u32, u32)> = (0..tuples.len() as u32).map(|i| (i, i)).collect();
        self.join_tuples(tuples, Tuples::every(Src::Owned(values), 1), &pairs)
    }
}
