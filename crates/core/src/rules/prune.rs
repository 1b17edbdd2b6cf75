//! Projection pruning (dead column elimination).
//!
//! Another stock Starburst rewrite \[PHH92\]: output columns no consumer
//! ever references are dropped, shrinking every materialized intermediate
//! (the supplementary table in particular carries *all* outer columns
//! after the FEED stage; most are never read above).
//!
//! Rules of engagement:
//! * BaseTable outputs are the schema — never pruned.
//! * DISTINCT Select boxes are skipped (removing a column changes the
//!   duplicate-elimination key).
//! * Union boxes are pruned positionally together with all their branches,
//!   and only when every branch is exclusively theirs.
//! * Grouping boxes may lose output columns but never grouping
//!   expressions (the group structure must not change).

use decorr_qgm::{BoxId, BoxKind, Qgm};

/// Remove dead output columns graph-wide. Returns the number of columns
/// dropped.
pub fn prune_outputs(qgm: &mut Qgm) -> usize {
    let mut dropped = 0;
    loop {
        let step = prune_one_round(qgm);
        if step == 0 {
            break;
        }
        dropped += step;
    }
    dropped
}

fn prune_one_round(qgm: &mut Qgm) -> usize {
    let reachable = qgm.reachable_boxes(qgm.top());
    let top = qgm.top();

    // Which columns of each box (by index) are referenced by anyone?
    let mut used: Vec<Vec<bool>> = vec![Vec::new(); qgm.slots().0];
    for &b in &reachable {
        used[b.index()] = vec![false; qgm.output_arity(b)];
    }
    let mut mark = |b: BoxId, c: usize| {
        if let Some(u) = used[b.index()].get_mut(c) {
            *u = true;
        }
    };
    for &b in &reachable {
        qgm.boxref(b).for_each_expr(|e| {
            e.for_each_col(&mut |q, c| mark(qgm.quant(q).input, c));
        });
    }
    // The top box's outputs are the query result: all used.
    (0..qgm.output_arity(top)).for_each(|c| mark(top, c));
    // Union outputs are positional over *every* branch (its expressions
    // only name branch 0): keep all branch columns so arities stay
    // aligned.
    for &b in &reachable {
        if matches!(qgm.boxref(b).kind, BoxKind::Union { .. }) {
            for &q in &qgm.boxref(b).quants {
                let branch = qgm.quant(q).input;
                (0..qgm.output_arity(branch)).for_each(|c| mark(branch, c));
            }
        }
    }

    // Each pruned box's new position for every column (`None`: dropped).
    let mut remap: Vec<Vec<Option<usize>>> = vec![Vec::new(); used.len()];
    let mut dropped = 0;
    for &b in &reachable {
        let bx = qgm.boxref(b);
        let prunable = match &bx.kind {
            BoxKind::Select => !bx.distinct,
            BoxKind::Grouping { .. } => true,
            // Unions are handled through their own pass below; base tables
            // have no output list.
            BoxKind::Union { .. } | BoxKind::BaseTable { .. } | BoxKind::OuterJoin => false,
        };
        let keep = &mut used[b.index()];
        let kept = keep.iter().filter(|&&k| k).count();
        if !prunable || keep.is_empty() || kept == keep.len() {
            continue;
        }
        // A box must keep at least one output (zero-arity tables would be
        // degenerate); keep the first if everything is dead.
        keep[0] |= kept == 0;
        let mut next = 0;
        remap[b.index()] = keep
            .iter()
            .map(|&k| {
                next += usize::from(k);
                k.then(|| next - 1)
            })
            .collect();
        dropped += keep.len() - next;
    }
    if dropped > 0 {
        apply_keep(qgm, &reachable, &remap);
    }
    dropped
}

/// Restrict each pruned box's outputs to its kept columns and re-point
/// every consumer reference, in one pass over the graph.
fn apply_keep(qgm: &mut Qgm, reachable: &[BoxId], remap: &[Vec<Option<usize>>]) {
    let mut input = vec![usize::MAX; qgm.slots().1];
    for q in qgm.live_quants() {
        input[q.id.index()] = q.input.index();
    }
    for &b in reachable {
        let bx = qgm.boxmut(b);
        let keep = &remap[b.index()];
        if !keep.is_empty() {
            let mut kept = keep.iter().map(Option::is_some);
            bx.outputs.retain(|_| kept.next() == Some(true));
        }
        bx.for_each_expr_mut(|e| {
            e.map_cols(
                &mut |q, c| match remap.get(input[q.index()]).and_then(|m| m.get(c)) {
                    Some(&Some(new)) => (q, new),
                    _ => (q, c),
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Schema};
    use decorr_qgm::validate::validate;
    use decorr_qgm::{BoxKind, Expr, QuantKind};

    fn setup() -> (Qgm, BoxId, BoxId) {
        // top: SELECT b FROM (SELECT a, b, c FROM t) d
        let mut g = Qgm::new();
        let t = g.add_base_table(
            "t",
            Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Int),
            ]),
        );
        let inner = g.add_box(BoxKind::Select, "inner");
        let qt = g.add_quant(inner, QuantKind::Foreach, t, "T");
        for (i, n) in ["a", "b", "c"].iter().enumerate() {
            g.add_output(inner, *n, Expr::col(qt, i));
        }
        let top = g.add_box(BoxKind::Select, "top");
        let qd = g.add_quant(top, QuantKind::Foreach, inner, "D");
        g.add_output(top, "b", Expr::col(qd, 1));
        g.set_top(top);
        (g, top, inner)
    }

    #[test]
    fn drops_dead_columns_and_remaps() {
        let (mut g, top, inner) = setup();
        assert_eq!(prune_outputs(&mut g), 2);
        validate(&g).unwrap();
        assert_eq!(g.output_arity(inner), 1);
        assert_eq!(g.output_name(inner, 0), "b");
        // The consumer reference moved from position 1 to 0.
        let out = &g.boxref(top).outputs[0];
        assert_eq!(
            out.expr.to_string(),
            format!("Q{}.c0", g.boxref(top).quants[0].index())
        );
    }

    #[test]
    fn distinct_boxes_are_not_pruned() {
        let (mut g, _top, inner) = setup();
        g.boxmut(inner).distinct = true;
        assert_eq!(prune_outputs(&mut g), 0);
    }

    #[test]
    fn shared_boxes_prune_to_the_union_of_uses() {
        let (mut g, top, inner) = setup();
        // A second consumer reads column 2 ("c").
        let q2 = g.add_quant(top, QuantKind::Foreach, inner, "D2");
        g.add_output(top, "c", Expr::col(q2, 2));
        assert_eq!(prune_outputs(&mut g), 1); // only "a" dies
        validate(&g).unwrap();
        assert_eq!(g.output_arity(inner), 2);
        assert_eq!(g.output_name(inner, 0), "b");
        assert_eq!(g.output_name(inner, 1), "c");
    }

    #[test]
    fn grouping_outputs_prunable_but_group_by_stays() {
        // top: SELECT n FROM (SELECT k, COUNT(*) n FROM t GROUP BY k) g
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
        let qx = g.add_quant(top, QuantKind::Foreach, grp, "X");
        g.add_output(top, "n", Expr::col(qx, 1));
        g.set_top(top);

        let dropped = prune_outputs(&mut g);
        assert!(dropped >= 1);
        validate(&g).unwrap();
        // The group key output died but the grouping structure survives.
        let BoxKind::Grouping { group_by } = &g.boxref(grp).kind else {
            unreachable!()
        };
        assert_eq!(group_by.len(), 1);
        assert_eq!(g.output_arity(grp), 1);
    }

    #[test]
    fn top_outputs_never_pruned() {
        let (mut g, top, _) = setup();
        prune_outputs(&mut g);
        assert_eq!(g.output_arity(top), 1);
    }
}
