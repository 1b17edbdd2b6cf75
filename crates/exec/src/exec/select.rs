//! The Select box: its lowered inputs joined in greedy order, then the end
//! stage (scalar subqueries, the remaining filter, quantified subqueries)
//! and the projection.

use decorr_common::{Error, Result, Row, MORSEL_ROWS};
use decorr_qgm::{BoxId, Expr, OutputCol, QuantId, QuantKind};
use decorr_stats::shape::{Input, Stage};

use super::joins;
use super::lower::{Access, Plan, SelectOp};
use super::{dedup_rows, project_row, qualifies_all, Executor};
use crate::env::{Env, Layout};
use crate::eval::qualifies;
use crate::trace::JoinStrategy;
use crate::tuple::{Src, Tuples};
use crate::vector;

impl<'a> Executor<'a> {
    pub(super) fn eval_select(
        &mut self,
        plan: &Plan<'_>,
        b: BoxId,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let bx = plan.qgm.boxref(b);
        let op = plan
            .get(b)
            .select
            .as_ref()
            .expect("a reachable Select is lowered");
        let preds: &[Expr] = &bx.preds;
        // `consumed[i]` marks predicates already applied at a scan or join
        // step (or checked up front).
        let mut consumed = vec![false; preds.len()];
        let (shape, access) = (&op.shape, &op.access);
        let stage = |i: usize| shape.preds[i].stage;

        // Constant predicates: check once.
        {
            let (empty_layout, empty_row) = (Layout::new(), Row::empty());
            let env0 = Env::new(&empty_layout, &empty_row, env);
            for (i, p) in preds.iter().enumerate() {
                if stage(i) == Stage::Constant {
                    consumed[i] = true;
                    self.note_preds(1);
                    if !qualifies(p, &env0)? {
                        return Ok(Tuples::every(Src::Owned(Vec::new()), bx.outputs.len()));
                    }
                }
            }
        }

        // Scan the inputs that are neither lateral nor deferred, applying
        // their own predicates. The greedy order sizes them by what the
        // scan kept, a deferred table by its rows, a lateral input as 0.
        let n = shape.inputs.len();
        let mut scanned: Vec<Option<Tuples<'a>>> = (0..n).map(|_| None).collect();
        let mut sizes = vec![0; n];
        for (k, input) in shape.inputs.iter().enumerate() {
            match access[k] {
                _ if !input.deps.is_empty() => {}
                Access::Deferred(table) => sizes[k] = self.db.table(table)?.len(),
                _ => {
                    let input_tuples = self.scan_quant(plan, input, &access[k], preds, env)?;
                    for &i in &input.own {
                        consumed[i] = true;
                    }
                    sizes[k] = input_tuples.len();
                    scanned[k] = Some(input_tuples);
                }
            }
        }

        // Greedy join over the Foreach inputs. A Select with none ranges
        // over exactly one (empty) candidate.
        let mut layout = Layout::new();
        let mut tuples = Tuples::unit();
        let mut bound: Vec<QuantId> = Vec::new();
        let mut remaining: Vec<usize> = (0..n).collect();
        // Scalar quantifiers already materialized as candidate columns.
        let mut scalars_bound: Vec<QuantId> = Vec::new();
        while !remaining.is_empty() {
            let k = pick_next(op, &remaining, &bound, &sizes, &consumed)?;
            remaining.retain(|&r| r != k);
            let input = &shape.inputs[k];
            let next = input.q;

            // Predicates that become applicable once `next` is bound.
            let mut applicable = shape.applicable(next, &bound, &consumed);

            let running = std::mem::replace(&mut tuples, Tuples::unit());
            tuples = if !input.deps.is_empty() {
                self.join_lateral(plan, input, running, &layout, env)?
            } else if bound.is_empty() {
                // The first input in join order is the running candidate
                // set as it stands. A deferred table has no bound row to
                // drive its index: scan it.
                match scanned[k].take() {
                    Some(first) => first,
                    None => self.scan_quant(plan, input, &access[k], preds, env)?,
                }
            } else if let Access::Deferred(table) = access[k] {
                let applicable = &mut applicable;
                self.join_deferred(shape, input, table, running, &layout, applicable, env)?
            } else {
                let right = scanned[k].take().expect("an input is joined once");
                let applicable = &mut applicable;
                self.join_step(input, running, &layout, right, preds, applicable, env)?
            };
            layout.push(next, input.arity);
            // Residual applicable predicates (non-equi or not used as keys).
            let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
            self.filter(&mut tuples, &layout, &kept, env)?;
            for i in applicable {
                consumed[i] = true;
            }
            bound.push(next);

            // Early scalar-subquery placement.
            for (sq, deps) in &op.early {
                if !scalars_bound.contains(sq) && deps.iter().all(|d| bound.contains(d)) {
                    tuples = self.append_scalar_column(plan, *sq, tuples, &layout, env)?;
                    layout.push(*sq, 1);
                    scalars_bound.push(*sq);
                }
            }
        }

        // End stage, step by step over the whole candidate set: scalar
        // subqueries still needed become columns (one logical invocation
        // per candidate); the predicates never consumed filter through the
        // same driver as every other filter, quantified groups are checked
        // per surviving candidate, and the survivors project. After
        // decorrelation only the filter and the projection remain.
        if shape.preds.iter().any(|p| p.stage == Stage::Unsupported) {
            return Err(Error::internal(
                "predicate references multiple quantified subqueries".to_string(),
            ));
        }
        let plain: Vec<&Expr> = (preds.iter().enumerate())
            .filter(|&(i, _)| !consumed[i] && stage(i) != Stage::Quantified)
            .map(|(_, p)| p)
            .collect();
        for &sq in &op.end_scalars {
            if !scalars_bound.contains(&sq) {
                tuples = self.append_scalar_column(plan, sq, tuples, &layout, env)?;
                layout.push(sq, 1);
            }
        }
        if !plain.is_empty() || !op.groups.is_empty() {
            self.settle(&mut tuples)?;
            let mut sel = self.select_rows(&tuples, None, &layout, &plain, env)?;
            if !op.groups.is_empty() {
                let mut kept = Vec::with_capacity(sel.len());
                let mut scratch = Row::empty();
                for (n, &i) in sel.iter().enumerate() {
                    if n % MORSEL_ROWS == 0 {
                        self.checkpoint(0)?;
                    }
                    let env2 = Env::new(&layout, tuples.row(i as usize, &mut scratch), env);
                    if self.quantifiers_hold(plan, &op.groups, &env2)? {
                        kept.push(i);
                    }
                }
                sel = kept;
            }
            self.pick(&mut tuples, &sel)?;
        }
        self.project(tuples, &bx.outputs, bx.distinct, &layout, env)
    }

    /// Does the candidate row bound by `env2` satisfy every Existential /
    /// All quantifier over its predicates in `groups`? Existential stops at
    /// the first subquery row satisfying all of them (an empty group asks
    /// only for a row to exist); All stops at the first row failing one.
    fn quantifiers_hold(
        &mut self,
        plan: &Plan<'_>,
        groups: &[(QuantId, Vec<&Expr>)],
        env2: &Env<'_>,
    ) -> Result<bool> {
        for (sq, group) in groups {
            let sub_rows = self.subquery_rows(plan, *sq, env2)?;
            let quant = plan.qgm.quant(*sq);
            let mut q_layout = Layout::new();
            q_layout.push(*sq, plan.qgm.output_arity(quant.input));
            let mut sat = quant.kind == QuantKind::All;
            let mut evals = 0u64;
            for r in sub_rows.iter() {
                let ok = qualifies_all(group, &Env::new(&q_layout, r, Some(env2)), &mut evals)?;
                if ok != sat {
                    sat = ok;
                    break;
                }
            }
            self.note_preds(evals);
            if !sat {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// A box's output: its candidates through its output list. Plain
    /// columns under kernels — and the identity, whichever evaluator is on
    /// — stay candidates, re-mapped with nothing copied; anything else, and
    /// DISTINCT, become rows here, in morsels.
    pub(super) fn project(
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

    /// One join step: combine the running candidates `left` (layout
    /// `layout`) with `right` (the candidates of `input`). Equi-join
    /// predicates among `applicable` become join keys and are removed from
    /// the list; everything else stays for the caller's residual filter.
    /// The algorithms differ only in how they find the `(left, right)`
    /// pairs; the pairs are the step's candidates.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn join_step(
        &mut self,
        input: &Input<'_>,
        mut left: Tuples<'a>,
        layout: &Layout,
        mut right: Tuples<'a>,
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Tuples<'a>> {
        let mut right_layout = Layout::new();
        right_layout.push(input.q, input.arity);

        let keys = joins::split_equi_keys(applicable.iter().map(|&i| &preds[i]), layout, input.q);
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
        self.note_joined(input.q, strategy, n, m, pairs.len());
        self.join_tuples(left, right, &pairs)
    }

    /// Count a finished join step's output and record its strategy.
    pub(super) fn note_joined(
        &mut self,
        quant: QuantId,
        strategy: JoinStrategy,
        left_rows: usize,
        right_rows: usize,
        out_rows: usize,
    ) {
        self.stats.join_output_rows += out_rows as u64;
        if let (Some(trace), Some(&b)) = (&mut self.trace, self.box_stack.last()) {
            let (l, r, out) = (left_rows as u64, right_rows as u64, out_rows as u64);
            trace.note_join(b, quant, strategy, l, r, out);
        }
    }
}

/// Pick the next Foreach input to join (an index into `op.inputs`): among
/// those whose lateral dependencies are bound, prefer ones connected to the
/// bound set by a predicate not yet applied, breaking ties by smaller input
/// size (a standard greedy join order; the paper's Section 7 notes magic
/// decorrelation inherits whatever join order the optimizer picked).
fn pick_next(
    op: &SelectOp<'_>,
    remaining: &[usize],
    bound: &[QuantId],
    sizes: &[usize],
    consumed: &[bool],
) -> Result<usize> {
    let connected = |q: QuantId| {
        !bound.is_empty()
            && op.shape.preds.iter().zip(consumed).any(|(p, &done)| {
                !done
                    && p.refs.contains(&q)
                    && p.refs.iter().all(|r| *r == q || bound.contains(r))
                    && p.refs.iter().any(|r| bound.contains(r))
            })
    };
    let inputs = &op.shape.inputs;
    let joinable =
        (remaining.iter()).filter(|&&k| inputs[k].deps.iter().all(|d| bound.contains(d)));
    // Connected first, then the smaller input; on a tie, the first.
    let next = joinable.min_by_key(|&&k| (!connected(inputs[k].q), sizes[k]));
    next.copied().ok_or_else(|| {
        Error::internal("no joinable quantifier (cyclic lateral dependency?)".to_string())
    })
}
