//! The decorrelation baselines of the paper's Section 2, with the shared
//! "correlated aggregate subquery" pattern matcher they all require.
//!
//! Kim's and Dayal's methods apply only to *linear* queries whose single
//! correlated aggregate subquery carries simple equality correlation
//! predicates in its immediate SPJ block; [`match_agg_subquery`] extracts
//! that shape or reports why the method does not apply (on the paper's
//! Query 3 they fail because of the UNION).

pub mod dayal;
pub mod ganski;
pub mod kim;

use decorr_common::{Error, Result};
use decorr_qgm::{BoxId, BoxKind, CorrelationMap, Expr, Qgm, QuantId, QuantKind, Traversal};

/// The recognized shape: `cur` has a Scalar quantifier `q` over an
/// (optionally projection-wrapped) Grouping box whose input SPJ block
/// contains equality correlation predicates.
#[derive(Debug, Clone)]
pub struct AggSubquery {
    /// The outer block: the Select box owning the correlated subquery
    /// (the top box, or the SPJ block under an aggregating outer query
    /// such as the paper's Query 2).
    pub cur: BoxId,
    /// The Scalar quantifier in the outer block.
    pub q: QuantId,
    /// Projection shell over the Grouping box, if any (`0.2 * AVG(...)`).
    pub pass: Option<BoxId>,
    /// The aggregate box (empty GROUP BY).
    pub grouping: BoxId,
    /// The SPJ block under the aggregate.
    pub inner: BoxId,
    /// `(index into inner.preds, local side expr, outer column)` for each
    /// correlation predicate `local = outer`.
    pub corr: Vec<(usize, Expr, (QuantId, usize))>,
}

/// Match the correlated-aggregate-subquery pattern rooted at the top box,
/// or explain why the linear methods do not apply.
pub fn match_agg_subquery(qgm: &Qgm) -> Result<AggSubquery> {
    // The outer block is the Select box owning a correlated subquery
    // quantifier — the top box, or (Query 2) the SPJ block under the outer
    // query's own aggregation.
    let tr = Traversal::new(qgm);
    let cur = tr
        .order()
        .iter()
        .copied()
        .find(|&b| {
            matches!(qgm.boxref(b).kind, BoxKind::Select)
                && qgm.boxref(b).quants.iter().any(|&qq| {
                    qgm.quant(qq).kind != QuantKind::Foreach
                        && tr.is_correlated(qgm.quant(qq).input)
                })
        })
        .ok_or_else(|| Error::rewrite("no correlated scalar subquery found"))?;
    let bx = qgm.boxref(cur);

    // Exactly one correlated subquery quantifier, of Scalar kind.
    let mut scalar: Option<QuantId> = None;
    for &qq in &bx.quants {
        let quant = qgm.quant(qq);
        if !tr.is_correlated(quant.input) {
            continue;
        }
        match quant.kind {
            QuantKind::Scalar if scalar.is_none() => scalar = Some(qq),
            QuantKind::Scalar => {
                return Err(Error::rewrite(
                    "query has several correlated subqueries (not linear)",
                ))
            }
            _ => {
                return Err(Error::rewrite(
                    "correlated quantifier is not a scalar aggregate subquery",
                ))
            }
        }
    }
    let q = scalar.ok_or_else(|| Error::rewrite("no correlated scalar subquery found"))?;

    // Walk the child chain: [pass-through Select] -> Grouping -> inner SPJ.
    let child = qgm.quant(q).input;
    let (pass, grouping) = match &qgm.boxref(child).kind {
        BoxKind::Grouping { .. } => (None, child),
        BoxKind::Select => {
            let sb = qgm.boxref(child);
            if sb.quants.len() != 1 || !sb.preds.is_empty() || sb.distinct {
                return Err(Error::rewrite(
                    "subquery shape too complex for the linear methods",
                ));
            }
            let inner = qgm.quant(sb.quants[0]).input;
            if !matches!(qgm.boxref(inner).kind, BoxKind::Grouping { .. }) {
                return Err(Error::rewrite("subquery is not an aggregate subquery"));
            }
            (Some(child), inner)
        }
        _ => return Err(Error::rewrite("subquery is not an aggregate subquery")),
    };
    let gb = qgm.boxref(grouping);
    let BoxKind::Grouping { group_by } = &gb.kind else {
        unreachable!()
    };
    if !group_by.is_empty() {
        return Err(Error::rewrite("subquery already grouped"));
    }
    let inner = qgm.quant(gb.quants[0]).input;
    if !matches!(qgm.boxref(inner).kind, BoxKind::Select) {
        return Err(Error::rewrite(
            "aggregate over a non-SPJ block (the query is not linear)",
        ));
    }

    // All correlation must come from equality conjuncts of the inner block.
    let inner_box = qgm.boxref(inner);
    let inner_local = &inner_box.quants;
    let mut corr = Vec::new();
    for (i, p) in inner_box.preds.iter().enumerate() {
        let mut outer_refs = false;
        p.for_each_col(&mut |r, _| outer_refs |= !inner_local.contains(&r));
        if !outer_refs {
            continue;
        }
        // Must be `local_expr = outer_col` (either orientation).
        let Expr::Binary { op: decorr_qgm::BinOp::Eq, left, right } = p else {
            return Err(Error::rewrite(
                "correlation predicate is not a simple equality",
            ));
        };
        let classify = |e: &Expr| -> Option<bool> {
            // Some(true) = purely local, Some(false) = a single outer col.
            let (mut any, mut local) = (false, true);
            e.for_each_col(&mut |r, _| {
                any = true;
                local &= inner_local.contains(&r);
            });
            if any && local {
                Some(true)
            } else if let Expr::Col { .. } = e {
                Some(false)
            } else {
                None
            }
        };
        let (local, outer) = match (classify(left), classify(right)) {
            (Some(true), Some(false)) => (left.as_ref().clone(), right.as_ref()),
            (Some(false), Some(true)) => (right.as_ref().clone(), left.as_ref()),
            _ => {
                return Err(Error::rewrite(
                    "correlation predicate is not `local = outer-column`",
                ))
            }
        };
        let Expr::Col { quant: oq, col: oc } = outer else {
            unreachable!()
        };
        // The outer side must belong to the outer block directly.
        if qgm.quant(*oq).owner != cur {
            return Err(Error::rewrite(
                "correlation spans several levels (not linear)",
            ));
        }
        corr.push((i, local, (*oq, *oc)));
    }
    if corr.is_empty() {
        return Err(Error::rewrite(
            "correlation is not in the immediate subquery block (the query is not linear)",
        ));
    }
    // Every correlated reference of the subtree must be one of those inner
    // WHERE-clause predicates (destination = the inner block itself).
    let cm = CorrelationMap::analyze(qgm);
    for r in cm.subtree_refs(child) {
        if r.dest != inner {
            return Err(Error::rewrite(
                "subquery contains correlations outside its immediate block \
                 (the query is not linear)",
            ));
        }
    }

    Ok(AggSubquery { cur, q, pass, grouping, inner, corr })
}
