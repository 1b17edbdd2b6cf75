//! The graph questions planning asks — `reachable_boxes`, `subtree_quants`,
//! `free_refs`, `CorrelationMap::analyze` and the per-state `Traversal` —
//! against reference bodies that answer each question with a walk of its
//! own: a hash set plus a vector per visited box, and a subtree walk per box
//! for the correlation map. Results must be equal, order included, on the
//! bound and rewritten graphs of the figure queries, on the bounded query
//! space of `tests/oracle/space.rs`, and on hand-built DAGs.

use decorr::common::{FxHashMap, FxHashSet};
use decorr::core::Strategy;
use decorr::figures::Figure;
use decorr::prelude::*;
use decorr::qgm::correlation::CorrRef;
use decorr::qgm::{BinOp, BoxId, BoxKind, CorrelationMap, Expr, QuantId, QuantKind, Traversal};

#[path = "oracle/space.rs"]
mod space;

/// One walk per question, as planning used to ask them.
mod reference {
    use super::*;

    pub fn reachable_boxes(qgm: &Qgm, from: BoxId) -> Vec<BoxId> {
        let mut seen: FxHashSet<BoxId> = FxHashSet::default();
        let mut order = Vec::new();
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                continue;
            }
            order.push(b);
            // Push children in reverse so they pop in iterator order.
            let children: Vec<BoxId> = qgm
                .boxref(b)
                .quants
                .iter()
                .map(|&q| qgm.quant(q).input)
                .collect();
            for c in children.into_iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    pub fn subtree_quants(qgm: &Qgm, from: BoxId) -> FxHashSet<QuantId> {
        let mut set = FxHashSet::default();
        for b in reachable_boxes(qgm, from) {
            set.extend(qgm.boxref(b).quants.iter().copied());
        }
        set
    }

    pub fn free_refs(qgm: &Qgm, from: BoxId) -> Vec<(QuantId, usize)> {
        let local = subtree_quants(qgm, from);
        let mut seen: FxHashSet<(QuantId, usize)> = FxHashSet::default();
        let mut out = Vec::new();
        for b in reachable_boxes(qgm, from) {
            qgm.boxref(b).for_each_expr(|e| {
                e.for_each_col(&mut |q, c| {
                    if !local.contains(&q) && seen.insert((q, c)) {
                        out.push((q, c));
                    }
                });
            });
        }
        out
    }

    /// `CorrelationMap::analyze`: (direct, subtree) references per box.
    pub type Refs = FxHashMap<BoxId, Vec<CorrRef>>;

    pub fn correlation_map(qgm: &Qgm) -> (Refs, Refs) {
        let mut direct_map: Refs = FxHashMap::default();
        for b in qgm.live_boxes() {
            let own: FxHashSet<QuantId> = b.quants.iter().copied().collect();
            let mut direct = Vec::new();
            let mut seen = FxHashSet::default();
            b.for_each_expr(|e| {
                e.for_each_col(&mut |q, c| {
                    if !own.contains(&q) && seen.insert((q, c)) {
                        direct.push(CorrRef { quant: q, col: c, dest: b.id });
                    }
                });
            });
            if !direct.is_empty() {
                direct_map.insert(b.id, direct);
            }
        }
        let mut subtree_map: Refs = FxHashMap::default();
        for b in qgm.live_boxes() {
            let local = subtree_quants(qgm, b.id);
            let mut list = Vec::new();
            let mut seen = FxHashSet::default();
            for inner in reachable_boxes(qgm, b.id) {
                if let Some(direct) = direct_map.get(&inner) {
                    for r in direct {
                        if !local.contains(&r.quant) && seen.insert((r.quant, r.col, r.dest)) {
                            list.push(*r);
                        }
                    }
                }
            }
            if !list.is_empty() {
                subtree_map.insert(b.id, list);
            }
        }
        (direct_map, subtree_map)
    }
}

/// Every question about every live box, new against reference.
fn assert_same(qgm: &Qgm, what: &str) {
    let (direct, subtree) = reference::correlation_map(qgm);
    let cm = CorrelationMap::analyze(qgm);
    let live: Vec<BoxId> = qgm.live_boxes().map(|b| b.id).collect();
    for &b in &live {
        assert_eq!(
            qgm.reachable_boxes(b),
            reference::reachable_boxes(qgm, b),
            "{what}: reachable_boxes({b})"
        );
        assert_eq!(
            qgm.subtree_quants(b),
            reference::subtree_quants(qgm, b),
            "{what}: subtree_quants({b})"
        );
        assert_eq!(
            qgm.free_refs(b),
            reference::free_refs(qgm, b),
            "{what}: free_refs({b})"
        );
        let none = Vec::new();
        assert_eq!(
            cm.direct_refs(b),
            direct.get(&b).unwrap_or(&none).as_slice(),
            "{what}: direct_refs({b})"
        );
        assert_eq!(
            cm.subtree_refs(b),
            subtree.get(&b).unwrap_or(&none).as_slice(),
            "{what}: subtree_refs({b})"
        );
        assert_eq!(cm.is_correlated(b), subtree.contains_key(&b));
    }
    let tr = Traversal::new(qgm);
    let order = reference::reachable_boxes(qgm, qgm.top());
    assert_eq!(tr.order(), order.as_slice(), "{what}: traversal order");
    for &b in &live {
        assert_eq!(
            tr.consumers(b),
            qgm.quants_over(b).len(),
            "{what}: consumers({b})"
        );
    }
    for &b in &order {
        let free = reference::free_refs(qgm, b);
        assert_eq!(
            tr.free_refs(b).collect::<Vec<_>>(),
            free,
            "{what}: traversal free_refs({b})"
        );
        assert_eq!(tr.is_correlated(b), !free.is_empty());
    }
}

/// The bound graph, every strategy's plan, and the magic rewrite stopped
/// before its cleanup (CI boxes still correlated, SUPP shared).
fn assert_same_for_query(db: &Database, sql: &str, what: &str) {
    let qgm = parse_and_bind(sql, db).unwrap();
    assert_same(&qgm, &format!("{what} bound"));
    for s in Strategy::all() {
        if let Ok(plan) = apply_strategy(&qgm, s) {
            assert_same(&plan, &format!("{what} {}", s.name()));
        }
    }
    for decorrelate_quantified in [false, true] {
        let mut g = qgm.clone();
        let opts = MagicOptions { cleanup: false, decorrelate_quantified, ..Default::default() };
        magic_decorrelate(&mut g, &opts).unwrap();
        assert_same(&g, &format!("{what} magic without cleanup"));
    }
}

#[test]
fn figure_queries_under_every_strategy() {
    let tpcd = decorr_tpcd::generate(&decorr_tpcd::TpcdConfig {
        scale: 0.002,
        seed: 42,
        with_indexes: true,
    })
    .unwrap();
    for fig in Figure::all() {
        assert_same_for_query(&tpcd, fig.sql(), fig.id());
    }
    let empdept = decorr_tpcd::empdept::generate(&Default::default()).unwrap();
    assert_same_for_query(&empdept, decorr_tpcd::queries::EMPDEPT, "empdept");
}

/// The bounded query space of `tests/oracle/space.rs` (size two or less),
/// over its DEPT/EMP world: keys included, as they decide OptMag's rewrite.
#[test]
fn generated_query_family() {
    let db = space::fixed("paper").db;
    for q in space::enumerate(2) {
        let sql = q.sql();
        assert_same_for_query(&db, &sql, &sql);
    }
}

fn table(g: &mut Qgm, name: &str) -> BoxId {
    g.add_base_table(
        name,
        Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
    )
}

#[test]
fn hand_built_dags() {
    // Diamond: top reads a shared box through two quantifiers.
    let mut g = Qgm::new();
    let t = table(&mut g, "t");
    let shared = g.add_box(BoxKind::Select, "shared");
    let qs = g.add_quant(shared, QuantKind::Foreach, t, "T");
    g.add_output(shared, "x", Expr::col(qs, 0));
    let top = g.add_box(BoxKind::Select, "top");
    let qa = g.add_quant(top, QuantKind::Foreach, shared, "A");
    let qb = g.add_quant(top, QuantKind::Foreach, shared, "B");
    g.add_output(top, "x", Expr::col(qa, 0));
    g.add_output(top, "y", Expr::col(qb, 0));
    g.set_top(top);
    assert_same(&g, "diamond");

    // A correlated subquery with two refs in one predicate and one in its
    // output, plus a stranded box and quantifier left for the collector.
    let mut g = Qgm::new();
    let t = table(&mut g, "t");
    let top = g.add_box(BoxKind::Select, "top");
    let qt = g.add_quant(top, QuantKind::Foreach, t, "T");
    let sub = g.add_box(BoxKind::Select, "sub");
    let qs = g.add_quant(sub, QuantKind::Foreach, t, "T2");
    g.boxmut(sub)
        .preds
        .push(Expr::bin(BinOp::Lt, Expr::col(qt, 1), Expr::col(qs, 0)));
    g.add_output(
        sub,
        "o",
        Expr::bin(BinOp::Add, Expr::col(qs, 1), Expr::col(qt, 0)),
    );
    g.add_quant(top, QuantKind::Existential, sub, "S");
    g.add_output(top, "x", Expr::col(qt, 0));
    g.set_top(top);
    let stranded = g.add_box(BoxKind::Select, "stranded");
    let qx = g.add_quant(stranded, QuantKind::Foreach, sub, "X");
    g.add_output(stranded, "o", Expr::col(qx, 0));
    g.boxmut(stranded)
        .preds
        .push(Expr::eq(Expr::col(qt, 0), Expr::col(qx, 0)));
    assert_same(&g, "correlated with garbage");

    // A box shared by two correlated subqueries at different depths, each
    // reading the outer block, and a removed quantifier still referenced
    // (a rewrite's intermediate state).
    let mut g = Qgm::new();
    let t = table(&mut g, "t");
    let u = table(&mut g, "u");
    let top = g.add_box(BoxKind::Select, "top");
    let qt = g.add_quant(top, QuantKind::Foreach, t, "T");
    let leaf = g.add_box(BoxKind::Select, "leaf");
    let qu = g.add_quant(leaf, QuantKind::Foreach, u, "U");
    g.boxmut(leaf)
        .preds
        .push(Expr::eq(Expr::col(qu, 0), Expr::col(qt, 1)));
    g.add_output(leaf, "y", Expr::col(qu, 1));
    let mid = g.add_box(BoxKind::Select, "mid");
    let ql = g.add_quant(mid, QuantKind::Foreach, leaf, "L");
    let qt2 = g.add_quant(mid, QuantKind::Foreach, t, "T2");
    g.boxmut(mid)
        .preds
        .push(Expr::eq(Expr::col(qt2, 0), Expr::col(qt, 0)));
    g.add_output(mid, "y", Expr::col(ql, 0));
    g.add_quant(top, QuantKind::Scalar, mid, "M");
    g.add_quant(top, QuantKind::Existential, leaf, "L2");
    g.add_output(top, "x", Expr::col(qt, 0));
    g.set_top(top);
    assert_same(&g, "shared correlated leaf");
    g.remove_quant(qt2);
    assert_same(&g, "dangling reference");
}
