//! Kim's method \[Kim82\] — implemented as published, COUNT bug included.
//!
//! "The subquery is converted into a table expression with a GROUPBY
//! clause, and the correlation predicate is moved to the outer block."
//!
//! The three weaknesses the paper lists are faithfully reproduced:
//!
//! 1. it applies only when the correlation predicates are simple
//!    equalities (everything else is a [`decorr_common::Error::Rewrite`]),
//! 2. the subquery computation is no longer restricted by the correlation
//!    (the aggregate is computed for *every* group — the unnecessary work
//!    visible in Figure 5),
//! 3. **the COUNT bug**: groups with no rows vanish from the table
//!    expression, so outer rows whose subquery would return 0 are silently
//!    dropped. `tests/count_bug.rs` demonstrates this divergence.

use decorr_common::{DataType, Error, Result};
use decorr_qgm::{AggFunc, BoxKind, Expr, OutputCol, Qgm, QuantKind};

use super::match_agg_subquery;

/// Rewrite the graph in place using Kim's method.
pub fn rewrite(qgm: &mut Qgm) -> Result<()> {
    let pat = match_agg_subquery(qgm)?;
    let cur = pat.cur;
    // The COUNT bug drops rows of the outer block. Below the top box —
    // inside another subquery, or under the outer query's aggregation —
    // that changes the values computed from them, not just which rows
    // return.
    let count = |o: &OutputCol| matches!(o.expr, Expr::Agg { func: AggFunc::Count, .. });
    if cur != qgm.top() && qgm.boxref(pat.grouping).outputs.iter().any(count) {
        return Err(Error::rewrite(
            "a COUNT subquery below the top box (the COUNT bug would change values above it)",
        ));
    }
    // GROUP BY tells -0.0 from 0.0 where `=` does not: grouping by a DOUBLE
    // would split one binding's group in two.
    if !pat
        .corr
        .iter()
        .all(|(_, local, _)| exact_column(qgm, local))
    {
        return Err(Error::rewrite(
            "correlation column is not a non-DOUBLE column (GROUP BY would split -0.0 from 0.0)",
        ));
    }

    // Remove the correlation predicates from the inner block and expose
    // their local sides as grouping columns.
    let mut local_positions = Vec::new();
    {
        // Drop predicates by index, descending, after capturing the exprs.
        let mut idxs: Vec<usize> = pat.corr.iter().map(|(i, _, _)| *i).collect();
        idxs.sort_unstable();
        idxs.dedup();
        let inner = qgm.boxmut(pat.inner);
        for &i in idxs.iter().rev() {
            inner.preds.remove(i);
        }
    }
    for (_, local, _) in &pat.corr {
        let pos = qgm.add_output(pat.inner, "corr", local.clone());
        local_positions.push(pos);
    }

    // Group the aggregate by the correlation columns.
    let gq = qgm.boxref(pat.grouping).quants[0];
    let mut group_positions = Vec::new();
    for &pos in &local_positions {
        let col = Expr::col(gq, pos);
        if let BoxKind::Grouping { group_by } = &mut qgm.boxmut(pat.grouping).kind {
            group_by.push(col.clone());
        }
        let gpos = qgm.add_output(pat.grouping, "corr", col);
        group_positions.push(gpos);
    }

    // A projection shell must forward the new columns.
    let mut out_positions = group_positions.clone();
    if let Some(pass) = pat.pass {
        let pq = qgm.boxref(pass).quants[0];
        out_positions.clear();
        for &gpos in &group_positions {
            let p = qgm.add_output(pass, "corr", Expr::col(pq, gpos));
            out_positions.push(p);
        }
    }

    // The outer block joins the table expression on the correlation
    // columns: the Scalar quantifier becomes Foreach and the correlation
    // predicates reappear as equi-joins. (This is where the COUNT bug
    // creeps in: missing groups no longer join.)
    qgm.quant_mut(pat.q).kind = QuantKind::Foreach;
    for ((_, _, (oq, oc)), &pos) in pat.corr.iter().zip(&out_positions) {
        let p = Expr::eq(Expr::col(pat.q, pos), Expr::col(*oq, *oc));
        qgm.boxmut(cur).preds.push(p);
    }
    qgm.gc();
    Ok(())
}

/// Is `e` a column that resolves to a base-table column not of type DOUBLE?
fn exact_column(qgm: &Qgm, e: &Expr) -> bool {
    let Expr::Col { quant, col } = e else {
        return false;
    };
    let b = qgm.boxref(qgm.quant(*quant).input);
    match &b.kind {
        BoxKind::BaseTable { schema, .. } => schema.columns()[*col].ty != DataType::Double,
        BoxKind::Select => exact_column(qgm, &b.outputs[*col].expr),
        _ => false,
    }
}
