//! The FEED stage (paper Section 4.2) plus the immediate ABSORB and the
//! Decorrelated-Output fix-up.
//!
//! For one correlated child of the current box this builds the paper's four
//! auxiliary structures:
//!
//! * **SUPP** — the supplementary table collecting the outer computation
//!   ahead of the subquery (Figure 2\[b\]);
//! * **MAGIC** — the duplicate-free projection of the correlation bindings
//!   (Figure 2\[c\]);
//! * **DCO** — the Decorrelated Output box combining magic × child
//!   (Figure 2\[d\]), later converted to a left outer-join when the
//!   COUNT-bug repair is needed (Figure 3\[d\], the BugRemoval box of
//!   Section 2.1);
//! * **CI** — the Correlated Input box restoring the per-binding
//!   correspondence for the outer block; the block-merge rule later turns
//!   its correlated predicate into an equi-join.

use decorr_common::{FxHashMap, FxHashSet, Result, Value};
use decorr_qgm::{print, BoxId, BoxKind, Expr, Func, Qgm, QuantId, QuantKind};

use super::absorb::absorb_box;
use super::encapsulator::{absorbability, analyze_uses, Absorbability};
use super::{MagicOptions, MagicReport, SuppScope};
use crate::rules::merge::flatten_columns;
use crate::trace::{RewriteStep, RewriteTrace};

/// What one FEED attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The child cannot be decorrelated from this box (sources not local,
    /// quantified subquery with the knob off, shared child, ...). The graph
    /// is untouched.
    NotApplicable,
    /// FEED ran but the child is NM (cannot absorb): the subquery is
    /// *partially* decorrelated — bindings are computed set-oriented and
    /// de-duplicated through the magic table, but the child keeps a
    /// correlation to the DCO box. Carries the DCO box's child quantifier,
    /// which the driver must never FEED (its correlation is the
    /// decorrelation mechanism itself).
    Partial(QuantId),
    /// Fully decorrelated (FEED + ABSORB).
    Full,
}

/// FEED (and ABSORB) the child of `cur`'s quantifier `q`, an unshared box
/// whose free references are `corr` (non-empty).
pub(super) fn feed_and_absorb(
    qgm: &mut Qgm,
    cur: BoxId,
    q: QuantId,
    corr: Vec<(QuantId, usize)>,
    opts: &MagicOptions,
    rep: &mut MagicReport,
    mut trace: Option<&mut RewriteTrace>,
) -> Result<FeedOutcome> {
    let child = qgm.quant(q).input;
    let snap_entry = trace.as_ref().map(|_| print::render_from(qgm, cur));

    // Every correlation source must be a Foreach quantifier of this box.
    for &(oq, _) in &corr {
        let quant = qgm.quant(oq);
        if quant.owner != cur || quant.kind != QuantKind::Foreach {
            return Ok(FeedOutcome::NotApplicable);
        }
    }
    // Encapsulator knob: quantified subqueries (EXISTS / IN / ANY / ALL)
    // leave a CI box performing repeated correlated selections; systems
    // without temporary-table indexes may prefer not to decorrelate them
    // (Section 4.4).
    let q_kind = qgm.quant(q).kind;
    if matches!(q_kind, QuantKind::Existential | QuantKind::All) && !opts.decorrelate_quantified {
        return Ok(FeedOutcome::NotApplicable);
    }

    // The quantifiers "ahead of" the subquery supply the bindings.
    let cur_quants = qgm.boxref(cur).quants.clone();
    let q_pos = cur_quants.iter().position(|&x| x == q).expect("q in cur");
    let ahead: Vec<QuantId> = cur_quants[..q_pos]
        .iter()
        .copied()
        .filter(|&x| qgm.quant(x).kind == QuantKind::Foreach)
        .collect();
    let needed: Vec<QuantId> = {
        let mut v = Vec::new();
        for &(oq, _) in &corr {
            if !v.contains(&oq) {
                v.push(oq);
            }
        }
        v
    };
    if !needed.iter().all(|n| ahead.contains(n)) {
        return Ok(FeedOutcome::NotApplicable);
    }
    let moved: Vec<QuantId> = match opts.supp_scope {
        SuppScope::AllForeach => ahead,
        SuppScope::MinimalBinding => ahead.into_iter().filter(|x| needed.contains(x)).collect(),
    };
    debug_assert!(!moved.is_empty());
    let moved_set: FxHashSet<QuantId> = moved.iter().copied().collect();

    // Pre-mutation analysis.
    let mut absorb = absorbability(qgm, child);
    let uses = analyze_uses(qgm, cur, q, child);
    let needs_loj = uses.needs_loj(absorb.unique());
    // A filter over the grand total (a HAVING) can drop the empty group's
    // row, and then nested iteration sees no row at all: the repair cannot
    // tell that from a binding with no group, so the child stays NM.
    if needs_loj && filters_total(qgm, child) {
        absorb = Absorbability::NotAbsorbable;
    }

    // OptMag: when the supplementary table is a single base table whose key
    // is contained in the correlation columns, the magic table *is* the
    // supplementary table and the common subexpression disappears
    // (Section 5.1). Requires a fully absorbable child consumed through a
    // Foreach quantifier or a unique-per-binding Scalar one.
    let optmag = opts.eliminate_supp_cse
        && moved.len() == 1
        && absorb.can_absorb()
        && (q_kind == QuantKind::Foreach || (q_kind == QuantKind::Scalar && absorb.unique()))
        && {
            let input = qgm.quant(moved[0]).input;
            match &qgm.boxref(input).kind {
                BoxKind::BaseTable { key: Some(key), .. } => {
                    let corr_cols: Vec<usize> = corr
                        .iter()
                        .filter(|(oq, _)| *oq == moved[0])
                        .map(|&(_, c)| c)
                        .collect();
                    key.iter().all(|k| corr_cols.contains(k))
                }
                _ => false,
            }
        };

    // ---- build SUPP ------------------------------------------------------
    let supp = qgm.add_box(BoxKind::Select, "SUPP");
    let first_moved_pos = cur_quants
        .iter()
        .position(|x| moved_set.contains(x))
        .expect("moved quants exist");

    // Predicates referencing only moved quantifiers move into SUPP
    // (unless reproducing Ganski/Wong's raw temporary relation).
    if opts.move_preds {
        let cur_set: FxHashSet<QuantId> = cur_quants.iter().copied().collect();
        let preds = std::mem::take(&mut qgm.boxmut(cur).preds);
        let (mut stay, mut go) = (Vec::new(), Vec::new());
        for p in preds {
            let refs = p.referenced_quants();
            let local: Vec<QuantId> = refs
                .iter()
                .copied()
                .filter(|r| cur_set.contains(r))
                .collect();
            if !local.is_empty() && local.iter().all(|r| moved_set.contains(r)) {
                go.push(p);
            } else {
                stay.push(p);
            }
        }
        qgm.boxmut(cur).preds = stay;
        qgm.boxmut(supp).preds = go;
    }
    for &mq in &moved {
        qgm.reparent_quant(mq, supp);
    }
    let (supp_cols, supp_map) = flatten_columns(qgm, &moved);
    for (mq, c, name) in &supp_cols {
        qgm.add_output(supp, name.clone(), Expr::col(*mq, *c));
    }

    // ---- build MAGIC -----------------------------------------------------
    // magic_cols[i] = the (original quant, col) whose value binding column i
    // carries.
    let (magic, magic_cols): (BoxId, Vec<(QuantId, usize)>) = if optmag {
        (supp, supp_cols.iter().map(|&(mq, c, _)| (mq, c)).collect())
    } else {
        let m = qgm.add_box(BoxKind::Select, "MAGIC");
        let qm = qgm.add_quant(m, QuantKind::Foreach, supp, "supp");
        for &(oq, c) in &corr {
            let name = supp_cols[supp_map[&(oq, c)]].2.clone();
            qgm.add_output(m, name, Expr::col(qm, supp_map[&(oq, c)]));
        }
        qgm.boxmut(m).distinct = true;
        (m, corr.clone())
    };
    let corr_len = magic_cols.len();
    let magic_idx: FxHashMap<(QuantId, usize), usize> = magic_cols
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();

    // ---- build DCO -------------------------------------------------------
    let dco = qgm.add_box(BoxKind::Select, "DCO");
    let q4 = qgm.add_quant(dco, QuantKind::Foreach, magic, "M");
    let q5 = qgm.add_quant(dco, QuantKind::Foreach, child, "C");
    let child_arity = qgm.output_arity(child);
    for i in 0..corr_len {
        let name = qgm.output_name(magic, i);
        qgm.add_output(dco, name, Expr::col(q4, i));
    }
    for j in 0..child_arity {
        let name = qgm.output_name(child, j);
        qgm.add_output(dco, name, Expr::col(q5, j));
    }

    // Re-point the child subtree's correlated references at the magic
    // quantifier of the DCO box (Figure 2[d]: "the destination of
    // correlation in the descendant is modified so that it gets its
    // bindings from Q4 instead of Q1").
    qgm.map_refs_in_subtree(child, |oq, c| match magic_idx.get(&(oq, c)) {
        Some(&i) => (q4, i),
        None => (oq, c),
    });

    // The outer block now ranges over SUPP instead of the moved
    // quantifiers.
    let q_supp = if optmag {
        None
    } else {
        let qs = qgm.add_quant(cur, QuantKind::Foreach, supp, "supp");
        let b = qgm.boxmut(cur);
        let moved_q = b.quants.pop().expect("just added");
        b.quants
            .insert(first_moved_pos.min(b.quants.len()), moved_q);
        Some(qs)
    };

    // ---- build CI --------------------------------------------------------
    let ci = qgm.add_box(BoxKind::Select, "CI");
    let q6 = qgm.add_quant(ci, QuantKind::Foreach, dco, "dco");
    for j in 0..child_arity {
        let name = qgm.output_name(child, j);
        qgm.add_output(ci, name, Expr::col(q6, corr_len + j));
    }
    if optmag {
        // The outer block reads the supplementary columns through the CI
        // box; no re-join (and hence no correlated predicate) is needed.
        for i in 0..corr_len {
            let name = qgm.output_name(magic, i);
            qgm.add_output(ci, name, Expr::col(q6, i));
        }
        rep.supp_cse_eliminated += 1;
    } else {
        let qs = q_supp.expect("non-optmag has a supp quantifier");
        for (i, &(oq, c)) in corr.iter().enumerate() {
            // Null-tolerant: a NULL binding must re-join its (empty or
            // repaired) subquery result exactly as nested iteration would.
            qgm.boxmut(ci).preds.push(Expr::bin(
                decorr_qgm::BinOp::NullEq,
                Expr::col(q6, i),
                Expr::col(qs, supp_map[&(oq, c)]),
            ));
        }
    }

    // ---- re-point the rest of the graph at SUPP / CI ----------------------
    let mut skip = vec![false; qgm.slots().0];
    qgm.walk(supp, &mut skip, &mut |_| {});
    let mut targets = Vec::new();
    qgm.walk(qgm.top(), &mut skip, &mut |b| targets.push(b));
    for b in targets {
        qgm.boxmut(b).for_each_expr_mut(|e| {
            e.map_cols(&mut |oq, c| {
                if moved_set.contains(&oq) {
                    match q_supp {
                        Some(qs) => (qs, supp_map[&(oq, c)]),
                        None => (q, child_arity + supp_map[&(oq, c)]),
                    }
                } else {
                    (oq, c)
                }
            });
        });
    }

    qgm.set_quant_input(q, ci);
    rep.feeds += 1;

    let snap_feed = trace.as_ref().map(|_| print::render_from(qgm, cur));
    if let Some(t) = trace.as_deref_mut() {
        let mut created = vec![supp];
        if !optmag {
            created.push(magic);
        }
        created.extend([dco, ci]);
        t.record(RewriteStep {
            rule: "FEED".into(),
            target: cur,
            created,
            mutated: vec![cur, child],
            before: snap_entry.unwrap_or_default(),
            after: snap_feed.clone().unwrap_or_default(),
            note: format!(
                "decoupled {q}; moved {} binding quantifier(s) into SUPP",
                moved.len()
            ),
        });
        if optmag {
            t.record(RewriteStep {
                rule: "OptMag-CSE".into(),
                target: supp,
                created: vec![],
                mutated: vec![supp],
                before: snap_feed.clone().unwrap_or_default(),
                after: snap_feed.clone().unwrap_or_default(),
                note: "correlation columns cover the supplementary table's key: \
                       MAGIC = SUPP, common subexpression eliminated"
                    .into(),
            });
        }
    }

    // ---- ABSORB ----------------------------------------------------------
    if !absorb.can_absorb() {
        rep.partial += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.record(RewriteStep {
                rule: "FEED-partial".into(),
                target: child,
                created: vec![],
                mutated: vec![],
                before: snap_feed.clone().unwrap_or_default(),
                after: snap_feed.unwrap_or_default(),
                note: "child is NM (cannot absorb): bindings flow set-oriented \
                       through MAGIC but the child keeps a correlation to DCO"
                    .into(),
            });
        }
        return Ok(FeedOutcome::Partial(q5));
    }
    let poss = absorb_box(qgm, child, magic, q4, corr_len)?;
    debug_assert_eq!(poss.len(), corr_len);
    rep.absorbs += 1;
    let snap_absorb = trace.as_ref().map(|_| print::render_from(qgm, cur));

    // Fix up the DCO box: left outer-join with COALESCE when the COUNT bug
    // (or NULL-observing uses) demand it, otherwise drop the now-redundant
    // magic iterator (Figure 4[c]).
    let mut loj_note = String::new();
    if needs_loj {
        let count_cols = count_output_cols(qgm, child, child_arity);
        if trace.is_some() {
            let cols: Vec<String> = count_cols.iter().map(|c| format!("out[{c}]")).collect();
            loj_note = format!(
                "DCO becomes left outer-join; COALESCE(·, 0) on COUNT columns [{}]",
                cols.join(", ")
            );
        }
        {
            let b = qgm.boxmut(dco);
            b.kind = BoxKind::OuterJoin;
            b.label = "BugRemoval".to_string();
            b.preds.clear();
        }
        for (i, &pos) in poss.iter().enumerate().take(corr_len) {
            let p = Expr::bin(
                decorr_qgm::BinOp::NullEq,
                Expr::col(q4, i),
                Expr::col(q5, pos),
            );
            qgm.boxmut(dco).preds.push(p);
        }
        for j in 0..child_arity {
            let expr = if count_cols.contains(&j) {
                Expr::Func {
                    func: Func::Coalesce,
                    args: vec![Expr::col(q5, j), Expr::Lit(Value::Int(0))],
                }
            } else {
                Expr::col(q5, j)
            };
            qgm.boxmut(dco).outputs[corr_len + j].expr = expr;
        }
        rep.loj_repairs += 1;
    } else {
        for (i, &pos) in poss.iter().enumerate().take(corr_len) {
            qgm.boxmut(dco).outputs[i].expr = Expr::col(q5, pos);
        }
        qgm.remove_quant(q4);
    }

    // A scalar aggregate subquery now yields exactly one row per binding:
    // the Scalar quantifier becomes an ordinary join input.
    if q_kind == QuantKind::Scalar && absorb.unique() {
        qgm.quant_mut(q).kind = QuantKind::Foreach;
        rep.scalar_to_join += 1;
    }

    if let Some(t) = trace {
        let snap_fix = print::render_from(qgm, cur);
        t.record(RewriteStep {
            rule: "ABSORB".into(),
            target: child,
            created: vec![],
            mutated: vec![child],
            before: snap_feed.unwrap_or_default(),
            after: snap_absorb.clone().unwrap_or_default(),
            note: "bindings absorbed into the child (correlation eliminated)".into(),
        });
        if needs_loj {
            t.record(RewriteStep {
                rule: "LOJ-repair".into(),
                target: dco,
                created: vec![],
                mutated: vec![dco],
                before: snap_absorb.unwrap_or_default(),
                after: snap_fix,
                note: loj_note,
            });
        }
    }

    Ok(FeedOutcome::Full)
}

/// Does a pass-through Select on the way down from `b` to its grand total
/// filter rows?
fn filters_total(qgm: &Qgm, b: BoxId) -> bool {
    let bx = qgm.boxref(b);
    matches!(bx.kind, BoxKind::Select)
        && bx.quants.len() == 1
        && (!bx.preds.is_empty() || filters_total(qgm, qgm.quant(bx.quants[0]).input))
}

/// The output positions of `child` that carry COUNT aggregates (walking
/// through pass-through Selects, OuterJoins and Unions), for the COALESCE
/// repair.
fn count_output_cols(qgm: &Qgm, child: BoxId, arity: usize) -> Vec<usize> {
    fn is_count(qgm: &Qgm, b: BoxId, col: usize, depth: usize) -> bool {
        if depth > 16 {
            return false;
        }
        let bx = qgm.boxref(b);
        match &bx.kind {
            BoxKind::Grouping { .. } => matches!(
                bx.outputs.get(col).map(|o| &o.expr),
                Some(Expr::Agg { func: decorr_qgm::AggFunc::Count, .. })
            ),
            // OuterJoin outputs are expressions over the join's quantifiers
            // (possibly already COALESCE-wrapped), exactly like a Select's.
            BoxKind::Select | BoxKind::OuterJoin => {
                let Some(o) = bx.outputs.get(col) else {
                    return false;
                };
                let mut found = false;
                o.expr.for_each_col(&mut |rq, rc| {
                    found |= is_count(qgm, qgm.quant(rq).input, rc, depth + 1);
                });
                found
            }
            // Union branches align positionally; COALESCE(x, 0) is only a
            // correct repair when *every* branch's column is a COUNT (NULL
            // must always mean "zero rows matched").
            BoxKind::Union { .. } => {
                !bx.quants.is_empty()
                    && bx
                        .quants
                        .iter()
                        .all(|&q| is_count(qgm, qgm.quant(q).input, col, depth + 1))
            }
            BoxKind::BaseTable { .. } => false,
        }
    }
    (0..arity).filter(|&j| is_count(qgm, child, j, 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Schema};
    use decorr_qgm::AggFunc;

    fn grouping_over_table(g: &mut Qgm, agg: AggFunc) -> BoxId {
        let t = g.add_base_table("t", Schema::from_pairs(&[("x", DataType::Int)]));
        let grp = g.add_box(BoxKind::Grouping { group_by: vec![] }, "g");
        let q = g.add_quant(grp, QuantKind::Foreach, t, "T");
        let arg = Box::new(Expr::col(q, 0));
        g.add_output(
            grp,
            "a",
            Expr::Agg { func: agg, arg: Some(arg), distinct: false },
        );
        grp
    }

    #[test]
    fn count_cols_walk_through_selects() {
        let mut g = Qgm::new();
        let grp = grouping_over_table(&mut g, AggFunc::Count);
        let sel = g.add_box(BoxKind::Select, "s");
        let q = g.add_quant(sel, QuantKind::Foreach, grp, "G");
        g.add_output(sel, "n", Expr::col(q, 0));
        g.set_top(sel);
        assert_eq!(count_output_cols(&g, sel, 1), vec![0]);

        let mut g2 = Qgm::new();
        let grp2 = grouping_over_table(&mut g2, AggFunc::Sum);
        g2.set_top(grp2);
        assert!(count_output_cols(&g2, grp2, 1).is_empty());
    }

    #[test]
    fn count_cols_walk_through_outer_joins() {
        // OuterJoin forwarding a COUNT column (the shape a nested
        // BugRemoval box leaves behind): previously missed entirely.
        let mut g = Qgm::new();
        let grp = grouping_over_table(&mut g, AggFunc::Count);
        let t2 = g.add_base_table("u", Schema::from_pairs(&[("y", DataType::Int)]));
        let oj = g.add_box(BoxKind::OuterJoin, "oj");
        let ql = g.add_quant(oj, QuantKind::Foreach, t2, "L");
        let qr = g.add_quant(oj, QuantKind::Foreach, grp, "R");
        g.add_output(oj, "y", Expr::col(ql, 0));
        g.add_output(oj, "n", Expr::col(qr, 0));
        g.set_top(oj);
        assert_eq!(count_output_cols(&g, oj, 2), vec![1]);
    }

    #[test]
    fn count_cols_require_all_union_branches_to_count() {
        // Both branches COUNT at col 0 -> repairable; mixed branches are
        // not (COALESCE(x, 0) would rewrite a legitimate NULL).
        let mut g = Qgm::new();
        let b1 = grouping_over_table(&mut g, AggFunc::Count);
        let b2 = grouping_over_table(&mut g, AggFunc::Count);
        let un = g.add_box(BoxKind::Union { all: true }, "union");
        let q1 = g.add_quant(un, QuantKind::Foreach, b1, "U1");
        let _q2 = g.add_quant(un, QuantKind::Foreach, b2, "U2");
        g.add_output(un, "n", Expr::col(q1, 0));
        g.set_top(un);
        assert_eq!(count_output_cols(&g, un, 1), vec![0]);

        let mut g2 = Qgm::new();
        let c1 = grouping_over_table(&mut g2, AggFunc::Count);
        let c2 = grouping_over_table(&mut g2, AggFunc::Sum);
        let un2 = g2.add_box(BoxKind::Union { all: true }, "union");
        let p1 = g2.add_quant(un2, QuantKind::Foreach, c1, "U1");
        let _p2 = g2.add_quant(un2, QuantKind::Foreach, c2, "U2");
        g2.add_output(un2, "n", Expr::col(p1, 0));
        g2.set_top(un2);
        assert!(count_output_cols(&g2, un2, 1).is_empty());
    }
}
