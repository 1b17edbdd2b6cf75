//! Correlation analysis (paper Section 4.1).
//!
//! "To determine if a child box is correlated, the algorithm utilizes the
//! following information: (1) a list of its ancestors, (2) a list of its
//! descendants, (3) which of its ancestors it is correlated to, and
//! (4) which descendant box caused each correlation. In our implementation,
//! this information is precomputed by a traversal of the graph."
//!
//! [`CorrelationMap::analyze`] is that traversal, one bottom-up pass;
//! [`Traversal`] is the same pass from the top box, for planning.

use crate::graph::{BoxId, Qgm, QuantId};

/// One correlated column reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorrRef {
    /// The correlation column: which ancestor quantifier / column is read.
    pub quant: QuantId,
    pub col: usize,
    /// The *destination of correlation*: the box whose expression contains
    /// the reference.
    pub dest: BoxId,
}

/// One list per arena box, stored back to back.
#[derive(Debug)]
struct PerBox<T> {
    span: Vec<(u32, u32)>,
    items: Vec<T>,
}

impl<T> PerBox<T> {
    fn new(boxes: usize) -> Self {
        PerBox { span: vec![(0, 0); boxes], items: Vec::new() }
    }

    fn get(&self, b: BoxId) -> &[T] {
        let (start, end) = self.span.get(b.index()).copied().unwrap_or_default();
        &self.items[start as usize..end as usize]
    }
}

/// The boxes reachable from `roots` in preorder and, per box, its subtree's
/// references to quantifiers owned outside it: its own references, then its
/// children's lists, less the quantifiers a bitset says its subtree owns.
/// A column is listed once per destination with `by_dest`, else once with
/// its first destination: then the columns are exactly [`Qgm::free_refs`].
fn bottom_up(
    qgm: &Qgm,
    roots: impl Iterator<Item = BoxId>,
    by_dest: bool,
) -> (Vec<BoxId>, PerBox<CorrRef>) {
    struct Pass<'q> {
        qgm: &'q Qgm,
        by_dest: bool,
        words: usize,
        local: Vec<u64>,
        seen: Vec<bool>,
        order: Vec<BoxId>,
        refs: PerBox<CorrRef>,
    }
    impl Pass<'_> {
        fn visit(&mut self, b: BoxId) {
            if std::mem::replace(&mut self.seen[b.index()], true) {
                return;
            }
            self.order.push(b);
            let qgm = self.qgm;
            let bx = qgm.boxref(b);
            for &q in &bx.quants {
                self.visit(qgm.quant(q).input);
            }
            let at = b.index() * self.words;
            for &q in &bx.quants {
                self.local[at + q.index() / 64] |= 1 << (q.index() % 64);
                let child = qgm.quant(q).input.index() * self.words;
                for w in 0..self.words {
                    self.local[at + w] |= self.local[child + w];
                }
            }
            let local = &self.local[at..at + self.words];
            let free =
                |r: &CorrRef| local[r.quant.index() / 64] & (1 << (r.quant.index() % 64)) == 0;
            let items = &mut self.refs.items;
            let start = items.len();
            let by_dest = self.by_dest;
            let add = |items: &mut Vec<CorrRef>, r: CorrRef| {
                let same = |o: &CorrRef| {
                    (o.quant, o.col) == (r.quant, r.col) && (!by_dest || o.dest == r.dest)
                };
                if free(&r) && !items[start..].iter().any(same) {
                    items.push(r);
                }
            };
            bx.for_each_expr(|e| {
                e.for_each_col(&mut |q, c| add(items, CorrRef { quant: q, col: c, dest: b }));
            });
            for &q in &bx.quants {
                let (from, to) = self.refs.span[qgm.quant(q).input.index()];
                for i in from as usize..to as usize {
                    add(items, items[i]);
                }
            }
            self.refs.span[b.index()] = (start as u32, items.len() as u32);
        }
    }
    let (boxes, quants) = qgm.slots();
    let words = quants.div_ceil(64);
    let mut pass = Pass {
        qgm,
        by_dest,
        words,
        local: vec![0; boxes * words],
        seen: vec![false; boxes],
        order: Vec::with_capacity(boxes),
        refs: PerBox::new(boxes),
    };
    for root in roots {
        pass.visit(root);
    }
    (pass.order, pass.refs)
}

/// Precomputed correlation information for every box in a graph.
#[derive(Debug)]
pub struct CorrelationMap {
    /// For each box B: the correlated references appearing in B's own
    /// expressions (B is their destination).
    direct: PerBox<CorrRef>,
    /// For each box B: all correlated references in B's subtree whose
    /// source quantifier is owned *outside* that subtree. This is what the
    /// FEED stage needs: the bindings the subtree consumes from above.
    subtree: PerBox<CorrRef>,
}

impl CorrelationMap {
    /// Run the analysis over the whole graph.
    pub fn analyze(qgm: &Qgm) -> Self {
        // Direct: refs in each box to quantifiers it does not own.
        let mut direct = PerBox::new(qgm.slots().0);
        for b in qgm.live_boxes() {
            let start = direct.items.len();
            b.for_each_expr(|e| {
                e.for_each_col(&mut |q, c| {
                    let r = CorrRef { quant: q, col: c, dest: b.id };
                    if !b.quants.contains(&q) && !direct.items[start..].contains(&r) {
                        direct.items.push(r);
                    }
                });
            });
            direct.span[b.id.index()] = (start as u32, direct.items.len() as u32);
        }
        let (_, subtree) = bottom_up(qgm, qgm.live_boxes().map(|b| b.id), true);
        CorrelationMap { direct, subtree }
    }

    /// Correlated references whose destination is the given box itself.
    pub fn direct_refs(&self, b: BoxId) -> &[CorrRef] {
        self.direct.get(b)
    }

    /// All correlated references of the subtree rooted at `b` (the
    /// bindings the subtree needs from its ancestors).
    pub fn subtree_refs(&self, b: BoxId) -> &[CorrRef] {
        self.subtree.get(b)
    }

    /// Is the subtree rooted at `b` correlated?
    pub fn is_correlated(&self, b: BoxId) -> bool {
        !self.subtree_refs(b).is_empty()
    }

    /// The ancestor boxes the subtree at `b` is correlated to — the
    /// *sources of correlation* (owners of the referenced quantifiers).
    pub fn sources(&self, qgm: &Qgm, b: BoxId) -> Vec<BoxId> {
        let mut out = Vec::new();
        for r in self.subtree_refs(b) {
            let owner = qgm.quant(r.quant).owner;
            if !out.contains(&owner) {
                out.push(owner);
            }
        }
        out
    }

    /// The descendant boxes that caused correlations in `b`'s subtree —
    /// the *destinations of correlation*.
    pub fn destinations(&self, b: BoxId) -> Vec<BoxId> {
        let mut out = Vec::new();
        for r in self.subtree_refs(b) {
            if !out.contains(&r.dest) {
                out.push(r.dest);
            }
        }
        out
    }
}

/// What planning asks of one graph state, from one traversal from the top
/// box: the [`Qgm::reachable_boxes`] order, each box's consumer count and
/// each reachable box's [`Qgm::free_refs`]. It borrows the graph, so it
/// cannot outlive the state it describes.
pub struct Traversal<'a> {
    _state: std::marker::PhantomData<&'a Qgm>,
    order: Vec<BoxId>,
    consumers: Vec<u32>,
    refs: PerBox<CorrRef>,
}

impl<'a> Traversal<'a> {
    pub fn new(qgm: &'a Qgm) -> Self {
        let (order, refs) = bottom_up(qgm, std::iter::once(qgm.top()), false);
        let mut consumers = vec![0; qgm.slots().0];
        for q in qgm.live_quants() {
            consumers[q.input.index()] += 1;
        }
        Traversal { _state: std::marker::PhantomData, order, consumers, refs }
    }

    /// The boxes reachable from the top, in [`Qgm::reachable_boxes`] order.
    pub fn order(&self) -> &[BoxId] {
        &self.order
    }

    /// How many live quantifiers range over `b` (`quants_over(b).len()`).
    pub fn consumers(&self, b: BoxId) -> usize {
        self.consumers[b.index()] as usize
    }

    /// [`Qgm::free_refs`] of a reachable box (none for any other).
    pub fn free_refs(&self, b: BoxId) -> impl Iterator<Item = (QuantId, usize)> + '_ {
        self.refs.get(b).iter().map(|r| (r.quant, r.col))
    }

    /// Is the subtree rooted at reachable box `b` correlated?
    pub fn is_correlated(&self, b: BoxId) -> bool {
        !self.refs.get(b).is_empty()
    }

    /// The order and the consumer counts (by [`BoxId::index`]), owned: still
    /// true after mutations that move predicates, never quantifiers.
    pub fn into_shape(self) -> (Vec<BoxId>, Vec<u32>) {
        (self.order, self.consumers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::graph::{BoxKind, QuantKind};
    use decorr_common::{DataType, Schema};

    /// Two-level correlation: top -> mid -> leaf where the leaf references
    /// a top quantifier column.
    fn two_level() -> (Qgm, BoxId, BoxId, BoxId, QuantId) {
        let mut g = Qgm::new();
        let t1 = g.add_base_table("t1", Schema::from_pairs(&[("a", DataType::Int)]));
        let t2 = g.add_base_table("t2", Schema::from_pairs(&[("b", DataType::Int)]));

        let top = g.add_box(BoxKind::Select, "top");
        let q1 = g.add_quant(top, QuantKind::Foreach, t1, "T1");

        let leaf = g.add_box(BoxKind::Select, "leaf");
        let q2 = g.add_quant(leaf, QuantKind::Foreach, t2, "T2");
        g.boxmut(leaf)
            .preds
            .push(Expr::eq(Expr::col(q2, 0), Expr::col(q1, 0)));
        g.add_output(leaf, "b", Expr::col(q2, 0));

        let mid = g.add_box(BoxKind::Select, "mid");
        let qleaf = g.add_quant(mid, QuantKind::Foreach, leaf, "L");
        g.add_output(mid, "b", Expr::col(qleaf, 0));

        let qmid = g.add_quant(top, QuantKind::Existential, mid, "M");
        g.boxmut(top)
            .preds
            .push(Expr::bin(BinOp::Eq, Expr::col(q1, 0), Expr::col(qmid, 0)));
        g.add_output(top, "a", Expr::col(q1, 0));
        g.set_top(top);
        (g, top, mid, leaf, q1)
    }

    #[test]
    fn direct_vs_subtree() {
        let (g, top, mid, leaf, q1) = two_level();
        let cm = CorrelationMap::analyze(&g);
        // leaf directly references q1.
        assert_eq!(cm.direct_refs(leaf).len(), 1);
        assert_eq!(cm.direct_refs(leaf)[0].quant, q1);
        // mid has no direct correlation but its subtree does.
        assert!(cm.direct_refs(mid).is_empty());
        assert!(cm.is_correlated(mid));
        assert_eq!(cm.subtree_refs(mid)[0].dest, leaf);
        // top's subtree has no free refs (q1 is owned inside).
        assert!(!cm.is_correlated(top));
        // top *does* have direct refs to its own children's quantifiers?
        // No: direct refs are to quantifiers the box does not own, and top
        // owns q1 and qmid.
        assert!(cm.direct_refs(top).is_empty());
    }

    #[test]
    fn sources_and_destinations() {
        let (g, top, mid, leaf, _) = two_level();
        let cm = CorrelationMap::analyze(&g);
        assert_eq!(cm.sources(&g, mid), vec![top]);
        assert_eq!(cm.destinations(mid), vec![leaf]);
        assert_eq!(cm.sources(&g, leaf), vec![top]);
    }
}
