//! The shape of a Select, which the executor lowers and the estimator
//! prices: the Section 7 race keeps the cheaper plan, which works only if
//! both read the same plan. Built once per Select from the caller's one
//! [`Traversal`]: per predicate its local quantifiers and [`Stage`]; per
//! Foreach input its local dependencies (any makes it lateral; an input
//! correlated only to enclosing blocks is evaluated once per evaluation of
//! the box), its own predicates and their sargable bounds. [`outer_arm`] is
//! an outer join's index arm, given the caller's "is this column indexed";
//! whether its probes pay is a question for the data.

use decorr_common::CmpOp;
use decorr_qgm::{BoxId, Expr, Qgm, QuantId, QuantKind, Traversal};

use crate::access::{self, Probe, TableInput};

/// One Select box's shape.
pub struct SelectShape<'q> {
    /// The box's predicates, which `preds` describes position by position.
    pub exprs: &'q [Expr],
    pub preds: Vec<Pred>,
    /// The Foreach quantifiers, in the box's order.
    pub inputs: Vec<Input<'q>>,
}

pub struct Pred {
    /// The quantifiers of the box it reads.
    pub refs: Vec<QuantId>,
    pub stage: Stage,
}

/// Where a predicate is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reads no quantifier of the box: checked once, first.
    Constant,
    /// Reads Foreach quantifiers only: at a scan or a join step.
    Join,
    /// Reads a scalar subquery: in the end stage's filter.
    End,
    /// Reads one Existential / All subquery: in its group.
    Quantified,
    /// Reads several quantified subqueries, which nothing evaluates.
    Unsupported,
}

/// One Foreach quantifier of a Select.
pub struct Input<'q> {
    pub q: QuantId,
    pub child: BoxId,
    pub arity: usize,
    /// The quantifiers of the box its input reads; any makes it lateral.
    pub deps: Vec<QuantId>,
    /// Its own predicates (over it alone), applied where it is read.
    pub own: Vec<usize>,
    /// The sargable bounds among `own`: every `Col(q, c) <op> <expr>`,
    /// either way round, whose `<expr>` does not read `q`.
    pub bounds: Vec<(usize, CmpOp, &'q Expr)>,
}

impl<'q> SelectShape<'q> {
    /// The shape of Select `b`, reachable in `tr`.
    pub fn new(qgm: &'q Qgm, tr: &Traversal<'_>, b: BoxId) -> Self {
        let bx = qgm.boxref(b);
        let kind = |q: QuantId| qgm.quant(q).kind;
        let local = |q: &QuantId| bx.quants.contains(q);
        let preds: Vec<Pred> = (bx.preds.iter())
            .map(|p| {
                let refs: Vec<QuantId> = p.referenced_quants().into_iter().filter(local).collect();
                let quantified = refs
                    .iter()
                    .filter(|&&q| matches!(kind(q), QuantKind::Existential | QuantKind::All));
                let stage = match quantified.count() {
                    _ if refs.is_empty() => Stage::Constant,
                    0 if refs.iter().all(|&q| kind(q) == QuantKind::Foreach) => Stage::Join,
                    0 => Stage::End,
                    1 => Stage::Quantified,
                    _ => Stage::Unsupported,
                };
                Pred { refs, stage }
            })
            .collect();
        let foreach = bx.quants.iter().filter(|&&q| kind(q) == QuantKind::Foreach);
        let inputs = foreach
            .map(|&q| {
                let child = qgm.quant(q).input;
                let own: Vec<usize> = (0..preds.len())
                    .filter(|&i| preds[i].stage == Stage::Join && preds[i].refs == [q])
                    .collect();
                let bounds = sargable(own.iter().map(|&i| &bx.preds[i]), q);
                let (arity, deps) = (qgm.output_arity(child), deps(qgm, tr, b, q));
                Input { q, child, arity, deps, own, bounds }
            })
            .collect();
        SelectShape { exprs: &bx.preds, preds, inputs }
    }

    /// The Join predicates, not yet `consumed`, that become applicable
    /// once `q` joins the `bound` quantifiers: they read `q`, and every
    /// other quantifier of the box they read is bound.
    pub fn applicable(&self, q: QuantId, bound: &[QuantId], consumed: &[bool]) -> Vec<usize> {
        let ready = |p: &Pred| p.refs.iter().all(|r| *r == q || bound.contains(r));
        (0..self.preds.len())
            .filter(|&i| {
                let p = &self.preds[i];
                !consumed[i] && p.stage == Stage::Join && p.refs.contains(&q) && ready(p)
            })
            .collect()
    }

    /// The first of the predicates at positions `at` that an index of `q`
    /// can serve ([`access::eq_probe`], `indexed` as its `accept`).
    pub fn probe(
        &self,
        at: &[usize],
        q: QuantId,
        indexed: impl Fn(usize, &Expr) -> bool,
    ) -> Option<Probe<'q>> {
        let exprs = self.exprs;
        access::eq_probe(at.iter().map(|&i| (i, &exprs[i])), q, indexed)
    }
}

/// The quantifiers of Select `b` that the input of its quantifier `q`
/// reads: what must be bound before it can be evaluated.
pub fn deps(qgm: &Qgm, tr: &Traversal<'_>, b: BoxId, q: QuantId) -> Vec<QuantId> {
    let local = &qgm.boxref(b).quants;
    let refs = tr.free_refs(qgm.quant(q).input).map(|(fq, _)| fq);
    refs.filter(|fq| local.contains(fq)).collect()
}

/// The sargable bounds among a scan's predicates `preds` over `q`.
fn sargable<'q>(
    preds: impl Iterator<Item = &'q Expr>,
    q: QuantId,
) -> Vec<(usize, CmpOp, &'q Expr)> {
    let mut bounds = Vec::new();
    for p in preds {
        let Expr::Binary { op, left, right } = p else {
            continue;
        };
        let Some(cmp) = op.cmp_op() else {
            continue;
        };
        for (a, b, cmp) in [(left, right, cmp), (right, left, cmp.flip())] {
            if let Expr::Col { quant, col } = a.as_ref() {
                if *quant == q && !b.references(q) {
                    bounds.push((*col, cmp, b.as_ref()));
                    break;
                }
            }
        }
    }
    bounds
}

/// Outer join `b`'s index arm, each left row probing an index of the right
/// input's table: that input as its table ([`access::table_input`]), and
/// the `=` ON predicate on one of its columns that `indexed(table, column)`
/// says an index keys (the probe's column is the input's: see `cols`).
pub fn outer_arm<'q>(
    qgm: &'q Qgm,
    b: BoxId,
    indexed: impl Fn(&str, usize) -> bool,
) -> Option<(TableInput<'q>, Probe<'q>)> {
    let bx = qgm.boxref(b);
    let qr = bx.quants[1];
    let input = access::table_input(qgm, qgm.quant(qr).input)?;
    let on = bx.preds.iter().enumerate();
    let probe = access::eq_probe(on, qr, |c, _| indexed(input.table, input.cols[c]))?;
    Some((input, probe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Schema};
    use decorr_qgm::{BinOp, BoxKind};

    /// `SELECT .. FROM t a, (SELECT .. FROM t c WHERE c.k = a.k) l, (SELECT
    /// .. FROM t d WHERE d.k = <outer>) o WHERE a.v < 3 AND a.k = l.k`,
    /// under an outer block whose quantifier `o` is correlated to.
    #[test]
    fn an_input_is_lateral_only_to_its_own_block() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut g = Qgm::new();
        let t = g.add_base_table("t", schema);
        let top = g.add_box(BoxKind::Select, "outer");
        let qo = g.add_quant(top, QuantKind::Foreach, t, "x");
        let s = g.add_box(BoxKind::Select, "block");
        let qs = g.add_quant(top, QuantKind::Foreach, s, "s");
        g.add_output(top, "v", Expr::col(qs, 0));
        g.set_top(top);
        let a = g.add_quant(s, QuantKind::Foreach, t, "a");
        let inner = |g: &mut Qgm, over: Expr| {
            let c = g.add_box(BoxKind::Select, "inner");
            let qc = g.add_quant(c, QuantKind::Foreach, t, "c");
            g.boxmut(c).preds.push(Expr::eq(Expr::col(qc, 0), over));
            g.add_output(c, "k", Expr::col(qc, 0));
            c
        };
        let lateral = inner(&mut g, Expr::col(a, 0));
        let outer_only = inner(&mut g, Expr::col(qo, 0));
        let ql = g.add_quant(s, QuantKind::Foreach, lateral, "l");
        let qn = g.add_quant(s, QuantKind::Foreach, outer_only, "o");
        let preds = &mut g.boxmut(s).preds;
        preds.push(Expr::bin(BinOp::Lt, Expr::col(a, 1), Expr::lit(3)));
        preds.push(Expr::eq(Expr::col(a, 0), Expr::col(ql, 0)));
        preds.push(Expr::eq(Expr::col(qo, 1), Expr::lit(1)));
        g.add_output(s, "v", Expr::col(a, 1));

        let tr = Traversal::new(&g);
        let shape = SelectShape::new(&g, &tr, s);
        let deps: Vec<_> = shape.inputs.iter().map(|i| (i.q, i.deps.clone())).collect();
        assert_eq!(deps, [(a, vec![]), (ql, vec![a]), (qn, vec![])]);
        let stages: Vec<_> = shape.preds.iter().map(|p| p.stage).collect();
        assert_eq!(stages, [Stage::Join, Stage::Join, Stage::Constant]);
        assert_eq!(shape.inputs[0].own, [0]);
        assert_eq!(shape.inputs[0].bounds.len(), 1);
        assert!(shape.inputs[1].own.is_empty());
        // `a.k = l.k` applies once both are bound, not before.
        assert_eq!(shape.applicable(ql, &[a], &[true, false, false]), [1]);
        assert!(shape.applicable(ql, &[], &[false; 3]).is_empty());
        let p = shape.probe(&[1], ql, |c, _| c == 0).unwrap();
        assert_eq!((p.pred, p.col), (1, 0));
    }
}
