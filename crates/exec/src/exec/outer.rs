//! The left outer join.
//!
//! Its candidates are the left rows paired with the right input's
//! candidates, or null-extended. How the pairs are found is the access
//! rule's choice (`decorr_stats::access`), and the estimator prices the
//! same one:
//!
//! * **Index nested loops.** The lowering found the arm
//!   (`decorr_stats::shape::outer_arm`): the right input is an indexed
//!   resident table as it stands — the table itself, or a Select that only
//!   filters and renames one (Dayal's `B3`) — and an `=` ON predicate
//!   probes one of its indexed columns. It is taken when the probes pay for
//!   the left rows. Each left row probes the index; the right input is
//!   never evaluated, scanned, copied or hashed.
//! * **The inner join's `equi_join`** on any other equi-key: in-memory
//!   hash, or a Grace spill over the budget.
//! * **Nested loops** over every pair when the ON clause has no key.
//!
//! Each arm yields its pairs in left order and, per left row, in right
//! input order (index positions ascend as a scan's would), so the one walk
//! after them — residual ON predicates, then one null-extended candidate
//! for a left row nothing matched — returns the same candidates in the
//! same order whichever arm ran.

use std::ops::Range;

use decorr_common::{Result, Row};
use decorr_qgm::{BoxId, Expr};
use decorr_stats::access::{self, Probe, TableInput};
use decorr_storage::Table;

use super::joins;
use super::lower::Plan;
use super::{qualifies_all, Executor};
use crate::env::{Env, Layout};
use crate::trace::JoinStrategy;
use crate::tuple::{Src, Tuples};

/// What one arm found: the right candidates, the pairs into them, and the
/// ON predicates (by position) the walk still applies.
struct Matched<'a> {
    strategy: JoinStrategy,
    right: Tuples<'a>,
    /// Rows of the right input, as the trace reports them (the table's,
    /// for the index arm).
    right_rows: usize,
    pairs: Vec<(u32, u32)>,
    /// Right candidates every left row is offered besides its pairs (the
    /// keyless walk: all of them).
    every_right: Range<usize>,
    residual: Vec<usize>,
}

impl<'a> Executor<'a> {
    /// Left outer join of box `b`. Plain-column outputs under kernels
    /// re-map the joined candidates and make no row.
    pub(super) fn eval_outer_join(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let qgm = plan.qgm;
        let bx = qgm.boxref(b);
        let (ql, qr) = (bx.quants[0], bx.quants[1]);
        let (lchild, rchild) = (qgm.quant(ql).input, qgm.quant(qr).input);
        let (l_arity, r_arity) = (qgm.output_arity(lchild), qgm.output_arity(rchild));
        let mut l_layout = Layout::new();
        l_layout.push(ql, l_arity);
        let mut layout = l_layout.clone();
        layout.push(qr, r_arity);

        let left = self.eval_child(plan, lchild, env)?;
        let mut left = Tuples::every(Src::Batch(left), l_arity);
        let left_rows = left.len();
        // The lowered index arm, when the probes pay for the left rows.
        let arm = match &plan.get(b).outer {
            Some(arm @ (input, _)) => {
                let t = self.db.table(input.table)?;
                let pays = access::index_nl_pays(left_rows as f64, t.len() as f64);
                pays.then_some((t, arm))
            }
            None => None,
        };
        let m = match arm {
            Some((t, arm)) => self.probe_right(&left, &l_layout, t, arm, &bx.preds, env)?,
            None => self.match_right(plan, b, &mut left, &l_layout, env)?,
        };
        let Matched { strategy, mut right, right_rows, pairs, every_right, residual } = m;
        let residual: Vec<&Expr> = residual.iter().map(|&i| &bx.preds[i]).collect();

        // Walk the candidates per left row: a candidate passing the
        // residual predicates (read off one combined scratch row) is a
        // pair; a left row nothing matched is paired with nothing, once.
        if !residual.is_empty() {
            self.settle(&mut right)?;
        }
        let morsels = self.for_morsels(left_rows, |lo, hi| {
            let (mut evals, mut combined) = (0u64, Row::empty());
            let out = joins::walk_outer(lo..hi, &pairs, every_right.clone(), |li, ri| {
                if residual.is_empty() {
                    return Ok(true);
                }
                combined.0.clear();
                combined
                    .0
                    .extend((0..l_arity).map(|c| left.value(li, c).clone()));
                combined
                    .0
                    .extend((0..r_arity).map(|c| right.value(ri, c).clone()));
                qualifies_all(&residual, &Env::new(&layout, &combined, env), &mut evals)
            })?;
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
        self.note_joined(qr, strategy, left_rows, right_rows, out.len());
        let joined = self.join_tuples(left, right, &out)?;
        self.project(joined, &bx.outputs, false, &layout, env)
    }

    /// The index arm: every left row probes `t`'s index; the table
    /// positions that pass the input's filter are the right candidates,
    /// read through its renaming. The `on` predicates but the probe's are
    /// residual.
    fn probe_right(
        &mut self,
        left: &Tuples<'_>,
        l_layout: &Layout,
        t: &'a Table,
        (input, probe): &(TableInput<'_>, Probe<'_>),
        on: &[Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Matched<'a>> {
        let mut t_layout = Layout::new();
        if let Some(scan) = input.scan {
            t_layout.push(scan, t.schema().arity());
        }
        let filter: Vec<&Expr> = input.filter.iter().collect();
        let filter = Some((&t_layout, &filter[..])).filter(|(_, f)| !f.is_empty());
        let on_table = Probe { col: input.cols[probe.col], ..*probe };
        let (pairs, probed) = self.index_pairs(left, l_layout, t, &on_table, filter, env)?;
        let mut right = Tuples::of(Src::Table(t.rows()), probed, t.schema().arity());
        right.project(&input.cols);
        Ok(Matched {
            strategy: JoinStrategy::IndexNestedLoop,
            right,
            right_rows: t.len(),
            pairs,
            every_right: 0..0,
            residual: (0..on.len()).filter(|&i| i != probe.pred).collect(),
        })
    }

    /// Every other arm: the right input's candidates as they stand — a
    /// Select that scans or joins hands on positions, a paged scan's
    /// become rows only for the matches — paired by the inner join's
    /// `equi_join` on the ON clause's keys, or, with none, every right
    /// candidate offered to every left row.
    fn match_right(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        left: &mut Tuples<'_>,
        l_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Matched<'a>> {
        let (qgm, bx) = (plan.qgm, plan.qgm.boxref(b));
        let (qr, rchild) = (bx.quants[1], qgm.quant(bx.quants[1]).input);
        let mut right = self.eval_tuples(plan, rchild, env)?;
        let right_rows = right.len();
        let keys = joins::split_equi_keys(&bx.preds, l_layout, qr);
        if keys.left.is_empty() {
            let tries = (left.len() * right_rows) as u64;
            self.checkpoint(tries)?;
            self.stats.nl_comparisons += tries;
            return Ok(Matched {
                strategy: JoinStrategy::NestedLoop,
                right,
                right_rows,
                pairs: Vec::new(),
                every_right: 0..right_rows,
                residual: (0..bx.preds.len()).collect(),
            });
        }
        let mut r_layout = Layout::new();
        r_layout.push(qr, qgm.output_arity(rchild));
        let (strategy, pairs) =
            self.equi_join(left, l_layout, &mut right, &r_layout, &keys, env)?;
        Ok(Matched {
            strategy,
            right,
            right_rows,
            pairs,
            every_right: 0..0,
            residual: keys.residual,
        })
    }
}
