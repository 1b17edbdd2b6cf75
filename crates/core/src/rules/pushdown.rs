//! Predicate pushdown.
//!
//! One of the classic Starburst rewrite rules \[PHH92\] the paper applies
//! to every strategy ("All Starburst query transformations that were
//! unrelated to decorrelation were applied to all queries"): a conjunct of
//! a Select box that references a single Foreach quantifier moves into the
//! child block, where it restricts computation earlier.
//!
//! Supported children:
//! * **Select** — the predicate is rewritten through the child's output
//!   expressions and appended to its WHERE list;
//! * **Union** — a copy is pushed into every branch;
//! * **Grouping** — only predicates over *grouping* outputs may cross the
//!   aggregation boundary (they restrict whole groups), continuing into
//!   the Grouping box's input.
//!
//! Shared children (SUPP/MAGIC common subexpressions) are left alone: a
//! predicate from one consumer must not filter another consumer's view.

use decorr_qgm::{BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind, Traversal};

/// Push single-quantifier predicates into child blocks until fixpoint.
/// Returns the number of predicates moved (counting each level crossed).
pub fn push_down_predicates(qgm: &mut Qgm) -> usize {
    let mut moved = 0;
    loop {
        let step = push_one_round(qgm);
        if step == 0 {
            break;
        }
        moved += step;
    }
    moved
}

fn push_one_round(qgm: &mut Qgm) -> usize {
    // A round moves predicates, never quantifiers: the visit order and the
    // consumer counts of its start hold to its end.
    let (order, consumers) = Traversal::new(qgm).into_shape();
    let mut moved = 0;
    for b in order {
        if !matches!(qgm.boxref(b).kind, BoxKind::Select) {
            continue;
        }
        let quants = qgm.boxref(b).quants.clone();
        for &q in &quants {
            if qgm.quant(q).kind != QuantKind::Foreach {
                continue;
            }
            let child = qgm.quant(q).input;
            if consumers[child.index()] != 1 {
                continue; // shared: a materialization point
            }
            // Pull out the predicates that reference exactly this
            // quantifier (and possibly outer correlations, which stay
            // valid below).
            let pushable = |p: &Expr| {
                let (mut this, mut other) = (false, false);
                p.for_each_col(&mut |r, _| {
                    this |= r == q;
                    other |= r != q && quants.contains(&r);
                });
                this && !other
            };
            if !qgm.boxref(b).preds.iter().any(&pushable) {
                continue;
            }
            let preds = std::mem::take(&mut qgm.boxmut(b).preds);
            let (push, mut stay): (Vec<Expr>, Vec<Expr>) = preds.into_iter().partition(&pushable);
            for p in push {
                match try_push(qgm, &consumers, q, child, p) {
                    Ok(()) => moved += 1,
                    Err(p) => stay.push(p),
                }
            }
            qgm.boxmut(b).preds = stay;
        }
    }
    moved
}

/// Push one predicate (written in terms of quantifier `q` over `child`)
/// into the child. Returns the predicate on refusal.
fn try_push(
    qgm: &mut Qgm,
    consumers: &[u32],
    q: QuantId,
    child: BoxId,
    pred: Expr,
) -> Result<(), Expr> {
    match &qgm.boxref(child).kind {
        BoxKind::Select => {
            // DISTINCT selects filter fine (filter-then-dedup ≡
            // dedup-then-filter for deterministic predicates).
            let outputs = qgm.boxref(child).outputs.clone();
            let mut p = pred;
            p.substitute(q, &mut |col| outputs[col].expr.clone());
            qgm.boxmut(child).preds.push(p);
            Ok(())
        }
        BoxKind::Union { .. } => {
            let branches = qgm.boxref(child).quants.clone();
            // The union's outputs are positional over branch 0; a branch
            // copy substitutes its own columns positionally.
            for &uq in &branches {
                let branch = qgm.quant(uq).input;
                if consumers[branch.index()] != 1
                    || !matches!(qgm.boxref(branch).kind, BoxKind::Select)
                {
                    return Err(pred);
                }
            }
            for &uq in &branches {
                let branch = qgm.quant(uq).input;
                let outputs = qgm.boxref(branch).outputs.clone();
                let mut p = pred.clone();
                p.substitute(q, &mut |col| outputs[col].expr.clone());
                qgm.boxmut(branch).preds.push(p);
            }
            Ok(())
        }
        BoxKind::Grouping { group_by } => {
            // Only predicates over grouping columns cross the aggregation.
            let outputs = qgm.boxref(child).outputs.clone();
            let mut over_groups = true;
            pred.for_each_col(&mut |rq, rc| {
                if rq == q {
                    let is_group = outputs
                        .get(rc)
                        .map(|o| group_by.contains(&o.expr))
                        .unwrap_or(false);
                    over_groups &= is_group;
                }
            });
            if !over_groups {
                return Err(pred);
            }
            let inner_q = qgm.boxref(child).quants[0];
            let inner = qgm.quant(inner_q).input;
            if consumers[inner.index()] != 1 {
                return Err(pred);
            }
            // Rewrite through the grouping outputs (which are expressions
            // over the inner quantifier) and push into the inner block.
            let mut p = pred;
            p.substitute(q, &mut |col| outputs[col].expr.clone());
            // On refusal the rewritten predicate bubbles back up unchanged:
            // Grouping boxes carry no predicates, so there is nowhere to
            // park it between here and the inner block.
            try_push(qgm, consumers, inner_q, inner, p)
        }
        _ => Err(pred),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Schema};
    use decorr_qgm::validate::validate;
    use decorr_qgm::{BinOp, Expr};

    fn setup_derived() -> (Qgm, BoxId, BoxId) {
        // top: SELECT y FROM (SELECT x + 1 AS y FROM t) d WHERE y > 5
        let mut g = Qgm::new();
        let t = g.add_base_table("t", Schema::from_pairs(&[("x", DataType::Int)]));
        let inner = g.add_box(BoxKind::Select, "inner");
        let qt = g.add_quant(inner, QuantKind::Foreach, t, "T");
        g.add_output(
            inner,
            "y",
            Expr::bin(BinOp::Add, Expr::col(qt, 0), Expr::lit(1)),
        );
        let top = g.add_box(BoxKind::Select, "top");
        let qd = g.add_quant(top, QuantKind::Foreach, inner, "D");
        g.boxmut(top)
            .preds
            .push(Expr::bin(BinOp::Gt, Expr::col(qd, 0), Expr::lit(5)));
        g.add_output(top, "y", Expr::col(qd, 0));
        g.set_top(top);
        (g, top, inner)
    }

    #[test]
    fn pushes_through_select_with_substitution() {
        let (mut g, top, inner) = setup_derived();
        assert_eq!(push_down_predicates(&mut g), 1);
        validate(&g).unwrap();
        assert!(g.boxref(top).preds.is_empty());
        assert_eq!(g.boxref(inner).preds.len(), 1);
        // The predicate was rewritten through the output expression.
        assert!(g.boxref(inner).preds[0].to_string().contains("+ 1"));
    }

    #[test]
    fn does_not_push_into_shared_children() {
        let (mut g, top, inner) = setup_derived();
        let q2 = g.add_quant(top, QuantKind::Foreach, inner, "D2");
        g.add_output(top, "y2", Expr::col(q2, 0));
        assert_eq!(push_down_predicates(&mut g), 0);
    }

    #[test]
    fn pushes_copies_into_union_branches() {
        // top: SELECT v FROM (b1 UNION ALL b2) u WHERE v = 3
        let mut g = Qgm::new();
        let t = g.add_base_table("t", Schema::from_pairs(&[("v", DataType::Int)]));
        let mk_branch = |g: &mut Qgm| {
            let b = g.add_box(BoxKind::Select, "branch");
            let q = g.add_quant(b, QuantKind::Foreach, t, "T");
            g.add_output(b, "v", Expr::col(q, 0));
            b
        };
        let b1 = mk_branch(&mut g);
        let b2 = mk_branch(&mut g);
        let u = g.add_box(BoxKind::Union { all: true }, "u");
        let q1 = g.add_quant(u, QuantKind::Foreach, b1, "B1");
        let _q2 = g.add_quant(u, QuantKind::Foreach, b2, "B2");
        g.add_output(u, "v", Expr::col(q1, 0));
        let top = g.add_box(BoxKind::Select, "top");
        let qu = g.add_quant(top, QuantKind::Foreach, u, "U");
        g.boxmut(top)
            .preds
            .push(Expr::eq(Expr::col(qu, 0), Expr::lit(3)));
        g.add_output(top, "v", Expr::col(qu, 0));
        g.set_top(top);

        assert_eq!(push_down_predicates(&mut g), 1);
        validate(&g).unwrap();
        assert!(g.boxref(top).preds.is_empty());
        assert_eq!(g.boxref(b1).preds.len(), 1);
        assert_eq!(g.boxref(b2).preds.len(), 1);
    }

    #[test]
    fn group_column_predicates_cross_the_aggregation() {
        // top: SELECT k, n FROM (SELECT k, COUNT(*) n FROM t GROUP BY k) g
        //      WHERE k = 7  -- pushes below the grouping
        //      AND n > 2    -- must NOT push (aggregate output)
        let mut g = Qgm::new();
        let t = g.add_base_table("t", Schema::from_pairs(&[("k", DataType::Int)]));
        let spj = g.add_box(BoxKind::Select, "spj");
        let qt = g.add_quant(spj, QuantKind::Foreach, t, "T");
        g.add_output(spj, "k", Expr::col(qt, 0));
        let grp = g.add_box(BoxKind::Grouping { group_by: vec![] }, "grp");
        let qg = g.add_quant(grp, QuantKind::Foreach, spj, "G");
        if let BoxKind::Grouping { group_by } = &mut g.boxmut(grp).kind {
            group_by.push(Expr::col(qg, 0));
        }
        g.add_output(grp, "k", Expr::col(qg, 0));
        g.add_output(grp, "n", Expr::count_star());
        let top = g.add_box(BoxKind::Select, "top");
        let qtop = g.add_quant(top, QuantKind::Foreach, grp, "X");
        g.boxmut(top)
            .preds
            .push(Expr::eq(Expr::col(qtop, 0), Expr::lit(7)));
        g.boxmut(top)
            .preds
            .push(Expr::bin(BinOp::Gt, Expr::col(qtop, 1), Expr::lit(2)));
        g.add_output(top, "k", Expr::col(qtop, 0));
        g.add_output(top, "n", Expr::col(qtop, 1));
        g.set_top(top);

        assert_eq!(push_down_predicates(&mut g), 1);
        validate(&g).unwrap();
        // HAVING-like predicate stays; key predicate reached the SPJ box.
        assert_eq!(g.boxref(top).preds.len(), 1);
        assert_eq!(g.boxref(spj).preds.len(), 1);
    }
}
