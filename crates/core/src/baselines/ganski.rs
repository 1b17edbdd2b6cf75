//! Ganski/Wong's method \[GW87\].
//!
//! "Ganski and Wong proposed a method that projects a unique collection of
//! correlation values into a temporary relation. The temporary relation is
//! then used to decorrelate the subquery using an outer-join. ... This
//! method is a special case of the magic decorrelation algorithm."
//!
//! We implement it exactly as that special case: magic decorrelation
//! restricted to a **single-table outer block**, with the temporary
//! relation projected from the *raw* outer table — the outer block's own
//! predicates are **not** pushed into the supplementary table ("the
//! important step of generating a supplementary table when the outer block
//! is more complex is not considered"), so the subquery is evaluated for
//! more bindings than magic decorrelation would.

use decorr_common::{Error, Result};
use decorr_qgm::{BoxKind, Qgm, QuantKind};

use crate::magic::{magic_decorrelate, MagicOptions, SuppScope};

/// Rewrite the graph in place using Ganski/Wong's method.
pub fn rewrite(qgm: &mut Qgm) -> Result<()> {
    check(qgm)?;
    rewrite_checked(qgm)
}

/// Why Ganski/Wong's method does not apply, if it does not — decided on a
/// borrowed graph, so a race refuses before cloning it. It applies to a
/// single-table outer block with one correlated (aggregate) subquery.
pub fn check(qgm: &Qgm) -> Result<()> {
    let cur = qgm.top();
    let bx = qgm.boxref(cur);
    if !matches!(bx.kind, BoxKind::Select) {
        return Err(Error::rewrite("outer block is not a Select block"));
    }
    let foreach: Vec<_> = bx
        .quants
        .iter()
        .copied()
        .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
        .collect();
    if foreach.len() != 1 {
        return Err(Error::rewrite(
            "Ganski/Wong's method requires a single-table outer block",
        ));
    }
    if !matches!(
        qgm.boxref(qgm.quant(foreach[0]).input).kind,
        BoxKind::BaseTable { .. }
    ) {
        return Err(Error::rewrite(
            "Ganski/Wong's method requires a base-table outer block",
        ));
    }
    let corr_subqueries = bx
        .quants
        .iter()
        .filter(|&&q| {
            qgm.quant(q).kind == QuantKind::Scalar && !qgm.free_refs(qgm.quant(q).input).is_empty()
        })
        .count();
    if corr_subqueries != 1 {
        return Err(Error::rewrite(
            "Ganski/Wong's method handles exactly one correlated aggregate subquery",
        ));
    }
    Ok(())
}

/// Rewrite a graph [`check`] accepted (or a clone of one).
pub fn rewrite_checked(qgm: &mut Qgm) -> Result<()> {
    let rep = magic_decorrelate(
        qgm,
        &MagicOptions {
            supp_scope: SuppScope::MinimalBinding,
            move_preds: false,
            ..Default::default()
        },
    )?;
    if !rep.changed() {
        return Err(Error::rewrite(
            "Ganski/Wong's method could not decorrelate the subquery",
        ));
    }
    Ok(())
}
