//! Query-block merging and redundant-box elimination.

use decorr_common::FxHashMap;
use decorr_qgm::{print, BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind, Traversal};

use crate::trace::{RewriteStep, RewriteTrace};

/// Merge Select children into Select parents.
///
/// A child Select box `C`, consumed through a single `Foreach` quantifier
/// `q` of a Select parent `P`, with no DISTINCT of its own, can be inlined:
/// `C`'s quantifiers move into `P`, `C`'s predicates join `P`'s, and every
/// reference to `q.i` (in `P` or in correlated descendants) is replaced by
/// `C`'s `i`-th output expression. This is the rule that converts the CI
/// box's correlated predicate into an equi-join predicate of the outer
/// block. Returns the number of merges performed.
pub fn merge_select_children(qgm: &mut Qgm) -> usize {
    let mut merges = 0;
    while merge_one_select_child(qgm).is_some() {
        merges += 1;
    }
    merges
}

/// Perform a single block merge, if any child is mergeable. Returns the
/// parent box and the (now removed) quantifier that consumed the child.
pub fn merge_one_select_child(qgm: &mut Qgm) -> Option<(BoxId, QuantId)> {
    let (parent, quant) = find_mergeable(qgm)?;
    merge_one(qgm, parent, quant);
    Some((parent, quant))
}

fn find_mergeable(qgm: &Qgm) -> Option<(BoxId, QuantId)> {
    let tr = Traversal::new(qgm);
    for &b in tr.order() {
        let bx = qgm.boxref(b);
        if !matches!(bx.kind, BoxKind::Select) {
            continue;
        }
        for &q in &bx.quants {
            if qgm.quant(q).kind != QuantKind::Foreach {
                continue;
            }
            let child = qgm.quant(q).input;
            let cb = qgm.boxref(child);
            if !matches!(cb.kind, BoxKind::Select) || cb.distinct {
                continue;
            }
            // Only merge boxes consumed exactly once (shared boxes — SUPP,
            // MAGIC — are materialization points and must stay).
            if tr.consumers(child) != 1 {
                continue;
            }
            return Some((b, q));
        }
    }
    None
}

fn merge_one(qgm: &mut Qgm, parent: BoxId, q: QuantId) {
    let child = qgm.quant(q).input;
    let child_outputs = qgm.boxref(child).outputs.clone();
    let child_preds = qgm.boxref(child).preds.clone();
    let child_quants = qgm.boxref(child).quants.clone();

    // Move the child's quantifiers into the parent at q's position.
    let pos = qgm
        .boxref(parent)
        .quants
        .iter()
        .position(|&x| x == q)
        .expect("quant in parent");
    for (i, &cq) in child_quants.iter().enumerate() {
        qgm.reparent_quant(cq, parent);
        // keep FROM order readable: splice where q was
        let b = qgm.boxmut(parent);
        let idx = b.quants.len() - 1;
        let moved = b.quants.remove(idx);
        b.quants.insert(pos + i, moved);
    }

    // Substitute references to q everywhere (parent and any correlated
    // descendant).
    let live: Vec<BoxId> = qgm.reachable_boxes(qgm.top());
    for b in live {
        if b == child {
            continue;
        }
        qgm.boxmut(b).for_each_expr_mut(|e| {
            e.substitute(q, &mut |col| child_outputs[col].expr.clone());
        });
    }

    // Adopt the child's predicates and drop the quantifier.
    qgm.boxmut(parent).preds.extend(child_preds);
    qgm.remove_quant(q);
    qgm.gc();
}

/// Bypass identity Select boxes under any parent kind: a Select with a
/// single Foreach quantifier, no predicates, no DISTINCT, and outputs that
/// are exactly its input's columns in order adds nothing — parents can read
/// the input directly. (Covers the degenerate DCO boxes left after an SPJ
/// ABSORB.) Returns the number of boxes bypassed.
pub fn bypass_identity_selects(qgm: &mut Qgm) -> usize {
    let mut bypassed = 0;
    while bypass_one_identity_select(qgm).is_some() {
        bypassed += 1;
    }
    bypassed
}

/// Bypass a single identity Select, if one exists. Returns the quantifier
/// that was re-pointed, the bypassed identity box, and the box it forwarded.
pub fn bypass_one_identity_select(qgm: &mut Qgm) -> Option<(QuantId, BoxId, BoxId)> {
    let (q, identity, inner) = {
        let tr = Traversal::new(qgm);
        tr.order().iter().find_map(|&b| {
            qgm.boxref(b).quants.iter().find_map(|&q| {
                let child = qgm.quant(q).input;
                identity_input(qgm, tr.order(), child).map(|inner| (q, child, inner))
            })
        })
    }?;
    qgm.set_quant_input(q, inner);
    qgm.gc();
    Some((q, identity, inner))
}

/// If `b` is an identity Select, the box it forwards; else None. `order`
/// holds the boxes reachable from the top.
fn identity_input(qgm: &Qgm, order: &[BoxId], b: BoxId) -> Option<BoxId> {
    let bx = qgm.boxref(b);
    if !matches!(bx.kind, BoxKind::Select) || bx.distinct || !bx.preds.is_empty() {
        return None;
    }
    if bx.quants.len() != 1 || qgm.quant(bx.quants[0]).kind != QuantKind::Foreach {
        return None;
    }
    let q = bx.quants[0];
    let input = qgm.quant(q).input;
    if bx.outputs.len() != qgm.output_arity(input) {
        return None;
    }
    for (i, o) in bx.outputs.iter().enumerate() {
        match &o.expr {
            Expr::Col { quant, col } if *quant == q && *col == i => {}
            _ => return None,
        }
    }
    // Nothing else may reference q (it dies with the bypass); q is owned by
    // b, and only descendants could reference it — an identity box has no
    // interesting descendants referencing it, but a correlated subtree
    // below `input` could. Be safe: check globally.
    let referenced_elsewhere = order.iter().any(|&ob| {
        if ob == b {
            return false;
        }
        let mut found = false;
        qgm.boxref(ob).for_each_expr(|e| {
            e.for_each_col(&mut |rq, _| found |= rq == q);
        });
        found
    });
    if referenced_elsewhere {
        return None;
    }
    Some(input)
}

/// The standard post-rewrite cleanup: merge blocks, bypass identities,
/// sweep garbage. Returns (merges, bypasses).
pub fn cleanup(qgm: &mut Qgm) -> (usize, usize) {
    cleanup_traced(qgm, None)
}

/// [`cleanup`] with an optional [`RewriteTrace`]: every individual merge
/// and bypass becomes one [`RewriteStep`] with whole-graph snapshots.
pub fn cleanup_traced(qgm: &mut Qgm, mut trace: Option<&mut RewriteTrace>) -> (usize, usize) {
    let mut merges = 0;
    let mut bypasses = 0;
    loop {
        let mut changed = false;
        loop {
            let before = trace.as_ref().map(|_| print::render(qgm));
            let Some((parent, quant)) = merge_one_select_child(qgm) else {
                break;
            };
            merges += 1;
            changed = true;
            if let Some(t) = trace.as_deref_mut() {
                t.record(RewriteStep {
                    rule: "merge-select".into(),
                    target: parent,
                    created: vec![],
                    mutated: vec![parent],
                    before: before.unwrap_or_default(),
                    after: print::render(qgm),
                    note: format!("inlined child consumed through {quant}"),
                });
            }
        }
        loop {
            let before = trace.as_ref().map(|_| print::render(qgm));
            let Some((quant, identity, inner)) = bypass_one_identity_select(qgm) else {
                break;
            };
            bypasses += 1;
            changed = true;
            if let Some(t) = trace.as_deref_mut() {
                t.record(RewriteStep {
                    rule: "bypass-identity".into(),
                    target: identity,
                    created: vec![],
                    mutated: vec![],
                    before: before.unwrap_or_default(),
                    after: print::render(qgm),
                    note: format!("{quant} now reads {inner} directly"),
                });
            }
        }
        if !changed {
            break;
        }
    }
    qgm.gc();
    (merges, bypasses)
}

/// Flattened concatenation of quantifier outputs: (quant, column, name).
pub type FlatColumns = Vec<(QuantId, usize, String)>;
/// Position of each `(quant, col)` within a [`FlatColumns`] list.
pub type FlatColumnMap = FxHashMap<(QuantId, usize), usize>;

/// Collect a map from `(quant, col)` to the position of that column in a
/// flattened concatenation of the given quantifiers' outputs. Shared by the
/// FEED stage and the baselines when they build supplementary boxes.
pub fn flatten_columns(qgm: &Qgm, quants: &[QuantId]) -> (FlatColumns, FlatColumnMap) {
    let mut cols = Vec::new();
    let mut map = FxHashMap::default();
    for &q in quants {
        let input = qgm.quant(q).input;
        for c in 0..qgm.output_arity(input) {
            map.insert((q, c), cols.len());
            cols.push((q, c, qgm.output_name(input, c)));
        }
    }
    (cols, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Schema};
    use decorr_qgm::validate::validate;
    use decorr_qgm::Expr;

    fn setup() -> (Qgm, BoxId, BoxId) {
        // top: SELECT y FROM (SELECT x+1 AS y FROM t WHERE x > 0) AS d WHERE y < 5
        let mut g = Qgm::new();
        let t = g.add_base_table("t", Schema::from_pairs(&[("x", DataType::Int)]));
        let inner = g.add_box(BoxKind::Select, "inner");
        let qt = g.add_quant(inner, QuantKind::Foreach, t, "T");
        g.boxmut(inner).preds.push(Expr::bin(
            decorr_qgm::BinOp::Gt,
            Expr::col(qt, 0),
            Expr::lit(0),
        ));
        g.add_output(
            inner,
            "y",
            Expr::bin(decorr_qgm::BinOp::Add, Expr::col(qt, 0), Expr::lit(1)),
        );
        let top = g.add_box(BoxKind::Select, "top");
        let qd = g.add_quant(top, QuantKind::Foreach, inner, "D");
        g.boxmut(top).preds.push(Expr::bin(
            decorr_qgm::BinOp::Lt,
            Expr::col(qd, 0),
            Expr::lit(5),
        ));
        g.add_output(top, "y", Expr::col(qd, 0));
        g.set_top(top);
        (g, top, inner)
    }

    #[test]
    fn merges_select_child_with_substitution() {
        let (mut g, top, _inner) = setup();
        assert_eq!(merge_select_children(&mut g), 1);
        assert!(validate(&g).is_ok());
        let tb = g.boxref(top);
        // Both predicates now live in the top box; output is x+1 inline.
        assert_eq!(tb.preds.len(), 2);
        assert_eq!(tb.quants.len(), 1);
        assert_eq!(g.reachable_boxes(top).len(), 2); // top + base table
        assert!(tb.outputs[0].expr.to_string().contains("+"));
    }

    #[test]
    fn does_not_merge_distinct_or_shared() {
        let (mut g, _top, inner) = setup();
        g.boxmut(inner).distinct = true;
        assert_eq!(merge_select_children(&mut g), 0);

        let (mut g2, top2, inner2) = setup();
        // Second quantifier over the same child: shared, must not merge.
        let q2 = g2.add_quant(top2, QuantKind::Foreach, inner2, "D2");
        g2.add_output(top2, "y2", Expr::col(q2, 0));
        assert_eq!(merge_select_children(&mut g2), 0);
    }

    #[test]
    fn bypasses_identity_select() {
        let mut g = Qgm::new();
        let t = g.add_base_table("t", Schema::from_pairs(&[("x", DataType::Int)]));
        let ident = g.add_box(BoxKind::Select, "ident");
        let qi = g.add_quant(ident, QuantKind::Foreach, t, "T");
        g.add_output(ident, "x", Expr::col(qi, 0));
        // Grouping over the identity select (merge rule does not apply to
        // non-Select parents; the bypass rule does).
        let grp = g.add_box(BoxKind::Grouping { group_by: vec![] }, "g");
        let _qg = g.add_quant(grp, QuantKind::Foreach, ident, "G");
        g.add_output(grp, "n", Expr::count_star());
        g.set_top(grp);

        assert_eq!(bypass_identity_selects(&mut g), 1);
        assert!(validate(&g).is_ok());
        let gb = g.boxref(grp);
        assert_eq!(g.quant(gb.quants[0]).input, t);
    }

    #[test]
    fn cleanup_reaches_fixpoint() {
        let (mut g, top, _) = setup();
        let (m, _b) = cleanup(&mut g);
        assert_eq!(m, 1);
        assert!(validate(&g).is_ok());
        assert_eq!(g.reachable_boxes(top).len(), 2);
    }

    #[test]
    fn flatten_columns_maps_positions() {
        let mut g = Qgm::new();
        let t = g.add_base_table(
            "t",
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
        );
        let s = g.add_box(BoxKind::Select, "s");
        let q1 = g.add_quant(s, QuantKind::Foreach, t, "T1");
        let q2 = g.add_quant(s, QuantKind::Foreach, t, "T2");
        let (cols, map) = flatten_columns(&g, &[q1, q2]);
        assert_eq!(cols.len(), 4);
        assert_eq!(map[&(q2, 1)], 3);
        assert_eq!(cols[3].2, "b");
    }
}
