//! Dayal's method \[Day87\] — merge the query blocks with a left
//! outer-join and group the result.
//!
//! The paper's sketch:
//!
//! ```sql
//! SELECT D.name
//! FROM DEPT D LOJ EMP E ON (D.building = E.building)
//! WHERE D.budget < 10000
//! GROUP BY D.[key]
//! HAVING D.num_emps > COUNT(E.[key])
//! ```
//!
//! and its weaknesses, all reproduced here:
//!
//! 1. grouping over the *whole* outer row repeats aggregate computation
//!    whenever the correlation column is not a key,
//! 2. the join/outer-join of all involved relations happens *before* the
//!    aggregation, so the grouped set can be much larger than under
//!    magic decorrelation (the paper's Figures 6 and 7),
//! 3. it applies only to linearly structured queries.
//!
//! `COUNT(*)` is rewritten to count a correlation column of the
//! null-producing side, which is exactly how Dayal's method avoids the
//! COUNT bug.

use decorr_common::{Error, Result};
use decorr_qgm::{BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind};

use super::{match_agg_subquery, AggSubquery};
use crate::rules::merge::flatten_columns;

/// Rewrite the graph in place using Dayal's method.
pub fn rewrite(qgm: &mut Qgm) -> Result<()> {
    let pat = check(qgm)?;
    rewrite_checked(qgm, pat)
}

/// The subquery Dayal's method would rewrite, or why it does not apply —
/// decided on a borrowed graph, so a race refuses before cloning it.
pub fn check(qgm: &Qgm) -> Result<AggSubquery> {
    let pat = match_agg_subquery(qgm)?;
    let cur = pat.cur;

    // The outer block must be a plain SPJ block over the scalar subquery —
    // anything else (more subqueries, DISTINCT) is out of scope for the
    // linear method.
    let outer_foreach = outer_foreach(qgm, cur);
    if qgm.boxref(cur).quants.len() != outer_foreach.len() + 1 {
        return Err(Error::rewrite(
            "Dayal's method needs a single correlated aggregate subquery",
        ));
    }
    // The transformed query is "grouped by some key of the [outer]
    // relation"; we group by all outer columns, which is equivalent only
    // when keys make duplicate outer rows impossible. Without declared
    // keys the grouping would collapse duplicates and change the result.
    for &oq in &outer_foreach {
        match &qgm.boxref(qgm.quant(oq).input).kind {
            BoxKind::BaseTable { key: Some(_), .. } => {}
            _ => {
                return Err(Error::rewrite(
                    "Dayal's method requires keyed outer base tables \
                     (GROUP BY key preserves duplicate semantics)",
                ))
            }
        }
    }
    Ok(pat)
}

/// Rewrite what [`check`] found in this graph (or in a clone of it).
pub fn rewrite_checked(qgm: &mut Qgm, pat: AggSubquery) -> Result<()> {
    let cur = pat.cur;
    let outer_foreach = outer_foreach(qgm, cur);

    // ---- left side: the outer block's joins and predicates --------------
    let left = qgm.add_box(BoxKind::Select, "outer-join-input");
    {
        // Predicates referencing the scalar quantifier stay in the outer
        // block (they become HAVING); everything else moves down.
        let preds = std::mem::take(&mut qgm.boxmut(cur).preds);
        let (mut stay, mut go) = (Vec::new(), Vec::new());
        for p in preds {
            if p.references(pat.q) {
                stay.push(p);
            } else {
                go.push(p);
            }
        }
        qgm.boxmut(cur).preds = stay;
        qgm.boxmut(left).preds = go;
    }
    for &oq in &outer_foreach {
        qgm.reparent_quant(oq, left);
    }
    let (left_cols, left_map) = flatten_columns(qgm, &outer_foreach);
    for (mq, c, name) in &left_cols {
        qgm.add_output(left, name.clone(), Expr::col(*mq, *c));
    }
    let left_arity = left_cols.len();

    // ---- right side: the subquery's SPJ block ----------------------------
    // Remove the correlation predicates; expose their local sides as
    // outputs so the LOJ can join on them.
    let inner = pat.inner;
    {
        let mut idxs: Vec<usize> = pat.corr.iter().map(|(i, _, _)| *i).collect();
        idxs.sort_unstable();
        idxs.dedup();
        let ib = qgm.boxmut(inner);
        for &i in idxs.iter().rev() {
            ib.preds.remove(i);
        }
    }
    let inner_old_arity = qgm.output_arity(inner);
    let mut local_positions = Vec::new();
    for (_, local, _) in &pat.corr {
        local_positions.push(qgm.add_output(inner, "corr", local.clone()));
    }

    // ---- the LOJ box ------------------------------------------------------
    let loj = qgm.add_box(BoxKind::OuterJoin, "LOJ");
    let ql = qgm.add_quant(loj, QuantKind::Foreach, left, "L");
    let qr = qgm.add_quant(loj, QuantKind::Foreach, inner, "R");
    for ((_, _, (oq, oc)), &pos) in pat.corr.iter().zip(&local_positions) {
        let lpos = *left_map
            .get(&(*oq, *oc))
            .ok_or_else(|| Error::rewrite("correlation source is not an outer FROM column"))?;
        qgm.boxmut(loj)
            .preds
            .push(Expr::eq(Expr::col(ql, lpos), Expr::col(qr, pos)));
    }
    for (i, (_, _, name)) in left_cols.iter().enumerate() {
        qgm.add_output(loj, name.clone(), Expr::col(ql, i));
    }
    for j in 0..qgm.output_arity(inner) {
        let name = qgm.output_name(inner, j);
        qgm.add_output(loj, name, Expr::col(qr, j));
    }

    // ---- grouping over the joined result ----------------------------------
    // Group by every outer column (with unique outer rows this is the
    // GROUP BY D.[key] of the paper's sketch).
    let grp = qgm.add_box(BoxKind::Grouping { group_by: vec![] }, "dayal-group");
    let qg = qgm.add_quant(grp, QuantKind::Foreach, loj, "G");
    for i in 0..left_arity {
        let col = Expr::col(qg, i);
        if let BoxKind::Grouping { group_by } = &mut qgm.boxmut(grp).kind {
            group_by.push(col.clone());
        }
        let name = qgm.output_name(loj, i);
        qgm.add_output(grp, name, col);
    }
    // Port the aggregates: arguments re-point from the inner block's
    // columns to the LOJ columns; COUNT(*) counts a (non-null iff matched)
    // correlation column of the null-producing side.
    let agg_outputs = qgm.boxref(pat.grouping).outputs.clone();
    let old_gq = qgm.boxref(pat.grouping).quants[0];
    let mut agg_positions = Vec::new();
    for o in &agg_outputs {
        let mut expr = o.expr.clone();
        match &mut expr {
            Expr::Agg { arg, .. } => {
                match arg {
                    Some(a) => {
                        a.map_cols(&mut |q, c| {
                            if q == old_gq {
                                (qg, left_arity + c)
                            } else {
                                (q, c)
                            }
                        });
                    }
                    None => {
                        // COUNT(*) -> COUNT(right correlation column).
                        *arg = Some(Box::new(Expr::col(qg, left_arity + inner_old_arity)));
                    }
                }
            }
            _ => {
                return Err(Error::rewrite(
                    "Dayal's method expects pure aggregate outputs",
                ))
            }
        }
        agg_positions.push(qgm.add_output(grp, o.name.clone(), expr));
    }

    // ---- the outer block becomes HAVING + projection ----------------------
    // Its remaining predicates/outputs reference (a) outer columns — now
    // grouping outputs 0..left_arity — and (b) the scalar value — now the
    // ported aggregate.
    let qt = qgm.add_quant(cur, QuantKind::Foreach, grp, "H");
    let scalar_expr: Expr = match pat.pass {
        None => Expr::col(qt, agg_positions[0]),
        Some(pass) => {
            // Re-create the projection (e.g. 0.2 * AVG) over the ported
            // aggregate columns.
            let mut e = qgm.boxref(pass).outputs[0].expr.clone();
            let pass_q = qgm.boxref(pass).quants[0];
            e.map_cols(&mut |q, c| {
                if q == pass_q {
                    (qt, agg_positions[c])
                } else {
                    (q, c)
                }
            });
            e
        }
    };
    qgm.remove_quant(pat.q);
    let left_remap = |e: &mut Expr| {
        e.substitute(pat.q, &mut |_| scalar_expr.clone());
        e.map_cols(&mut |q2, c2| match left_map.get(&(q2, c2)) {
            Some(&l) => (qt, l),
            None => (q2, c2),
        });
    };
    {
        // NB: preds/outputs cloned to appease the borrow checker; the box
        // is small at this point.
        let mut preds = qgm.boxref(cur).preds.clone();
        let mut outputs = qgm.boxref(cur).outputs.clone();
        for p in &mut preds {
            left_remap(p);
        }
        for o in &mut outputs {
            left_remap(&mut o.expr);
        }
        let b = qgm.boxmut(cur);
        b.preds = preds;
        b.outputs = outputs;
    }
    qgm.gc();
    Ok(())
}

/// The Foreach quantifiers of the outer block `cur`.
fn outer_foreach(qgm: &Qgm, cur: BoxId) -> Vec<QuantId> {
    let quants = qgm.boxref(cur).quants.iter().copied();
    quants
        .filter(|&x| qgm.quant(x).kind == QuantKind::Foreach)
        .collect()
}
