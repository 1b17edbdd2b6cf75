//! The query graph: boxes, quantifiers, and the arena that owns them.

use std::fmt;

use decorr_common::{Error, FxHashSet, Result, Schema, Value};

use crate::expr::Expr;

/// Identifier of a box in a [`Qgm`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId(u32);

impl BoxId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
    pub fn from_index(i: u32) -> Self {
        BoxId(i)
    }
}

impl fmt::Display for BoxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Identifier of a quantifier in a [`Qgm`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuantId(u32);

impl QuantId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
    pub fn from_index(i: u32) -> Self {
        QuantId(i)
    }
}

impl fmt::Display for QuantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// How a box consumes the tuples of a child box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// Ranges over every tuple (FROM-clause item).
    Foreach,
    /// EXISTS / IN / `op ANY`: the row qualifies if *some* tuple satisfies
    /// the predicates mentioning this quantifier.
    Existential,
    /// `op ALL`: the row qualifies if *every* tuple satisfies them.
    All,
    /// Scalar subquery: at most one tuple; empty yields NULL.
    Scalar,
}

impl fmt::Display for QuantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuantKind::Foreach => "F",
            QuantKind::Existential => "E",
            QuantKind::All => "A",
            QuantKind::Scalar => "S",
        };
        f.write_str(s)
    }
}

/// A quantifier: the paper's *iterator* — a handle on the output table of a
/// child box, owned by a parent box.
#[derive(Debug, Clone)]
pub struct Quantifier {
    pub id: QuantId,
    pub kind: QuantKind,
    /// The box whose output this quantifier ranges over.
    pub input: BoxId,
    /// The box whose FROM list this quantifier belongs to.
    pub owner: BoxId,
    /// Display alias ("D", "E", "magic", ...).
    pub alias: String,
}

/// A named output column of a box.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputCol {
    pub name: String,
    pub expr: Expr,
}

impl OutputCol {
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        OutputCol { name: name.into(), expr }
    }
}

/// The operator of a box.
#[derive(Debug, Clone)]
pub enum BoxKind {
    /// Select-Project-Join: any number of quantifiers, conjunctive
    /// predicates, projection outputs, optional DISTINCT.
    Select,
    /// GROUP BY + aggregation over a single Foreach quantifier. Outputs may
    /// contain [`Expr::Agg`] nodes; non-aggregate outputs must be functions
    /// of the grouping expressions.
    Grouping { group_by: Vec<Expr> },
    /// Bag/set union of ≥ 2 same-arity children.
    Union { all: bool },
    /// Left outer join: exactly two quantifiers — `quants[0]` is preserved,
    /// `quants[1]` is null-producing; `preds` is the ON condition.
    OuterJoin,
    /// Leaf: a base table in the catalog. Owns no quantifiers; its outputs
    /// are the table's columns. `key` is the declared primary key (column
    /// positions), when known — it drives the OptMag supplementary-table
    /// elimination.
    BaseTable {
        table: String,
        schema: Schema,
        key: Option<Vec<usize>>,
    },
}

impl BoxKind {
    pub fn name(&self) -> &'static str {
        match self {
            BoxKind::Select => "Select",
            BoxKind::Grouping { .. } => "Grouping",
            BoxKind::Union { .. } => "Union",
            BoxKind::OuterJoin => "OuterJoin",
            BoxKind::BaseTable { .. } => "BaseTable",
        }
    }

    /// The paper distinguishes SPJ boxes from all others ("all non-SPJ
    /// boxes are shaded grey"): the ABSORB stage differs between the two.
    pub fn is_spj(&self) -> bool {
        matches!(self, BoxKind::Select)
    }
}

/// A query block.
#[derive(Debug, Clone)]
pub struct QgmBox {
    pub id: BoxId,
    pub kind: BoxKind,
    /// Owned quantifiers in iterator order (the order magic decorrelation
    /// walks them during FEED — see Section 7 of the paper).
    pub quants: Vec<QuantId>,
    /// Conjunctive predicates (WHERE for Select, ON for OuterJoin).
    pub preds: Vec<Expr>,
    /// Output columns. Empty for BaseTable (implied by the schema).
    pub outputs: Vec<OutputCol>,
    /// SELECT DISTINCT (Select boxes only).
    pub distinct: bool,
    /// Human-readable label for diagrams ("SUPP", "MAGIC", "DCO", ...).
    pub label: String,
}

impl QgmBox {
    /// Apply `f` to every expression of this box (outputs, predicates, and
    /// grouping expressions).
    pub fn for_each_expr_mut<F: FnMut(&mut Expr)>(&mut self, mut f: F) {
        for o in &mut self.outputs {
            f(&mut o.expr);
        }
        for p in &mut self.preds {
            f(p);
        }
        if let BoxKind::Grouping { group_by } = &mut self.kind {
            for g in group_by {
                f(g);
            }
        }
    }

    /// Immutable variant of [`QgmBox::for_each_expr_mut`].
    pub fn for_each_expr<F: FnMut(&Expr)>(&self, mut f: F) {
        for o in &self.outputs {
            f(&o.expr);
        }
        for p in &self.preds {
            f(p);
        }
        if let BoxKind::Grouping { group_by } = &self.kind {
            for g in group_by {
                f(g);
            }
        }
    }
}

/// The Query Graph Model: an arena of boxes and quantifiers plus a
/// designated top box.
///
/// The graph is a DAG: rewrites introduce shared boxes (the supplementary
/// table is read both by the rewritten outer block and by the magic
/// projection). Dead boxes left behind by rewrites are swept by
/// [`Qgm::gc`].
#[derive(Debug, Clone, Default)]
pub struct Qgm {
    boxes: Vec<Option<QgmBox>>,
    quants: Vec<Option<Quantifier>>,
    top: Option<BoxId>,
}

impl Qgm {
    pub fn new() -> Self {
        Self::default()
    }

    /// The top (result) box.
    pub fn top(&self) -> BoxId {
        self.top.expect("QGM has no top box")
    }

    pub fn set_top(&mut self, id: BoxId) {
        self.top = Some(id);
    }

    /// Create a box of the given kind.
    pub fn add_box(&mut self, kind: BoxKind, label: impl Into<String>) -> BoxId {
        let id = BoxId(self.boxes.len() as u32);
        self.boxes.push(Some(QgmBox {
            id,
            kind,
            quants: Vec::new(),
            preds: Vec::new(),
            outputs: Vec::new(),
            distinct: false,
            label: label.into(),
        }));
        id
    }

    /// Create a base-table leaf box (no key metadata).
    pub fn add_base_table(&mut self, table: impl Into<String>, schema: Schema) -> BoxId {
        self.add_base_table_with_key(table, schema, None)
    }

    /// Create a base-table leaf box carrying primary-key metadata.
    pub fn add_base_table_with_key(
        &mut self,
        table: impl Into<String>,
        schema: Schema,
        key: Option<Vec<usize>>,
    ) -> BoxId {
        let table = table.into();
        let label = table.clone();
        self.add_box(BoxKind::BaseTable { table, schema, key }, label)
    }

    /// Create a quantifier of `kind` in `owner` ranging over `input`,
    /// appended to the owner's iterator order.
    pub fn add_quant(
        &mut self,
        owner: BoxId,
        kind: QuantKind,
        input: BoxId,
        alias: impl Into<String>,
    ) -> QuantId {
        let id = QuantId(self.quants.len() as u32);
        self.quants.push(Some(Quantifier {
            id,
            kind,
            input,
            owner,
            alias: alias.into(),
        }));
        self.boxmut(owner).quants.push(id);
        id
    }

    /// Detach a quantifier from its owner and delete it. Expressions still
    /// referencing it will fail validation — callers rewire first.
    pub fn remove_quant(&mut self, id: QuantId) {
        let owner = self.quant(id).owner;
        self.boxmut(owner).quants.retain(|&q| q != id);
        self.quants[id.index()] = None;
    }

    /// Move a quantifier to a new owner box (appended to its order).
    pub fn reparent_quant(&mut self, id: QuantId, new_owner: BoxId) {
        let old_owner = self.quant(id).owner;
        self.boxmut(old_owner).quants.retain(|&q| q != id);
        self.quants[id.index()].as_mut().unwrap().owner = new_owner;
        self.boxmut(new_owner).quants.push(id);
    }

    /// Re-point a quantifier at a different input box.
    pub fn set_quant_input(&mut self, id: QuantId, input: BoxId) {
        self.quants[id.index()].as_mut().unwrap().input = input;
    }

    pub fn boxref(&self, id: BoxId) -> &QgmBox {
        self.boxes[id.index()]
            .as_ref()
            .expect("reference to deleted box")
    }

    pub fn boxmut(&mut self, id: BoxId) -> &mut QgmBox {
        self.boxes[id.index()]
            .as_mut()
            .expect("reference to deleted box")
    }

    pub fn quant(&self, id: QuantId) -> &Quantifier {
        self.quants[id.index()]
            .as_ref()
            .expect("reference to deleted quantifier")
    }

    pub fn quant_mut(&mut self, id: QuantId) -> &mut Quantifier {
        self.quants[id.index()]
            .as_mut()
            .expect("reference to deleted quantifier")
    }

    /// Does this id refer to a live box?
    pub fn is_live(&self, id: BoxId) -> bool {
        self.boxes
            .get(id.index())
            .map(|b| b.is_some())
            .unwrap_or(false)
    }

    /// All live boxes (arena order).
    pub fn live_boxes(&self) -> impl Iterator<Item = &QgmBox> {
        self.boxes.iter().filter_map(Option::as_ref)
    }

    /// All live quantifiers (arena order).
    pub fn live_quants(&self) -> impl Iterator<Item = &Quantifier> {
        self.quants.iter().filter_map(Option::as_ref)
    }

    /// Number of output columns of a box.
    pub fn output_arity(&self, id: BoxId) -> usize {
        let b = self.boxref(id);
        match &b.kind {
            BoxKind::BaseTable { schema, .. } => schema.arity(),
            _ => b.outputs.len(),
        }
    }

    /// Name of the `i`-th output column of a box.
    pub fn output_name(&self, id: BoxId, i: usize) -> String {
        let b = self.boxref(id);
        match &b.kind {
            BoxKind::BaseTable { schema, .. } => schema.column(i).name.clone(),
            _ => b.outputs[i].name.clone(),
        }
    }

    /// Append an output column to a box, returning its position.
    pub fn add_output(&mut self, id: BoxId, name: impl Into<String>, expr: Expr) -> usize {
        let b = self.boxmut(id);
        b.outputs.push(OutputCol::new(name, expr));
        b.outputs.len() - 1
    }

    /// Arena slots, live or deleted: `(boxes, quantifiers)` — the length
    /// of a vector indexed by [`BoxId::index`] / [`QuantId::index`].
    pub fn slots(&self) -> (usize, usize) {
        (self.boxes.len(), self.quants.len())
    }

    /// Depth-first preorder walk from `from` in iterator order: `visit` sees
    /// each box unmarked in `seen` (by [`BoxId::index`]) once and marks it.
    /// Marked boxes are not descended into: a walk over an earlier walk's
    /// marks visits exactly the boxes that one did not reach.
    pub fn walk(&self, from: BoxId, seen: &mut [bool], visit: &mut impl FnMut(BoxId)) {
        if std::mem::replace(&mut seen[from.index()], true) {
            return;
        }
        visit(from);
        for &q in &self.boxref(from).quants {
            self.walk(self.quant(q).input, seen, visit);
        }
    }

    /// Boxes reachable from `from` through quantifiers, including `from`
    /// itself, in a deterministic preorder (DAG-aware: each box once).
    pub fn reachable_boxes(&self, from: BoxId) -> Vec<BoxId> {
        let mut order = Vec::new();
        self.walk(from, &mut vec![false; self.boxes.len()], &mut |b| {
            order.push(b)
        });
        order
    }

    /// The quantifiers owned by boxes in the subtree rooted at `from`.
    pub fn subtree_quants(&self, from: BoxId) -> FxHashSet<QuantId> {
        let mut set = FxHashSet::default();
        self.walk(from, &mut vec![false; self.boxes.len()], &mut |b| {
            set.extend(self.boxref(b).quants.iter().copied())
        });
        set
    }

    /// Free column references of the subtree rooted at `from`: references
    /// to quantifiers *not owned within* the subtree. These are exactly the
    /// subtree's correlations. Deterministic order, deduplicated. A caller
    /// asking about many boxes of one graph state asks a
    /// [`Traversal`](crate::Traversal) instead.
    pub fn free_refs(&self, from: BoxId) -> Vec<(QuantId, usize)> {
        let (mut order, mut local) = (Vec::new(), vec![false; self.quants.len()]);
        self.walk(from, &mut vec![false; self.boxes.len()], &mut |b| {
            order.push(b);
            self.boxref(b)
                .quants
                .iter()
                .for_each(|q| local[q.index()] = true);
        });
        let mut out = Vec::new();
        for &b in &order {
            self.boxref(b).for_each_expr(|e| {
                e.for_each_col(&mut |q, c| {
                    if !local[q.index()] && !out.contains(&(q, c)) {
                        out.push((q, c));
                    }
                });
            });
        }
        out
    }

    /// Does the subtree rooted at `from` contain any correlation?
    pub fn is_correlated(&self, from: BoxId) -> bool {
        !self.free_refs(from).is_empty()
    }

    /// Rewrite column references in every box of the subtree rooted at
    /// `from` using `f`.
    pub fn map_refs_in_subtree<F: FnMut(QuantId, usize) -> (QuantId, usize)>(
        &mut self,
        from: BoxId,
        mut f: F,
    ) {
        for b in self.reachable_boxes(from) {
            self.boxmut(b).for_each_expr_mut(|e| e.map_cols(&mut f));
        }
    }

    /// The boxes that own a quantifier over `id` (its parents). A tree node
    /// has one; shared boxes (SUPP, MAGIC) have several.
    pub fn parents_of(&self, id: BoxId) -> Vec<BoxId> {
        let mut out = Vec::new();
        for q in self.live_quants() {
            if q.input == id && !out.contains(&q.owner) {
                out.push(q.owner);
            }
        }
        out
    }

    /// Quantifiers ranging over box `id`.
    pub fn quants_over(&self, id: BoxId) -> Vec<QuantId> {
        self.live_quants()
            .filter(|q| q.input == id)
            .map(|q| q.id)
            .collect()
    }

    /// Ancestor boxes of `id` (transitive parents, excluding `id`).
    pub fn ancestors_of(&self, id: BoxId) -> Vec<BoxId> {
        let mut seen: FxHashSet<BoxId> = FxHashSet::default();
        let mut stack = self.parents_of(id);
        let mut out = Vec::new();
        while let Some(b) = stack.pop() {
            if seen.insert(b) {
                out.push(b);
                stack.extend(self.parents_of(b));
            }
        }
        out
    }

    /// Delete boxes and quantifiers unreachable from the top box.
    /// Returns the number of boxes swept.
    pub fn gc(&mut self) -> usize {
        let Some(top) = self.top else { return 0 };
        let mut live = vec![false; self.boxes.len()];
        self.walk(top, &mut live, &mut |_| {});
        let mut swept = 0;
        for slot in &mut self.boxes {
            if let Some(b) = slot {
                if !live[b.id.index()] {
                    *slot = None;
                    swept += 1;
                }
            }
        }
        for slot in &mut self.quants {
            if let Some(q) = slot {
                if !live[q.owner.index()] {
                    *slot = None;
                }
            }
        }
        swept
    }

    /// Replace every [`Expr::Param`] placeholder in the graph by the
    /// corresponding literal from `values`. This turns a cached plan
    /// template (produced by binding a parameterized query) back into an
    /// executable plan. Fails if the graph references a parameter index
    /// beyond `values` — a plan-cache keying bug, not a user error.
    pub fn bind_params(&mut self, values: &[Value]) -> Result<()> {
        let mut out_of_range = None;
        for b in self.boxes.iter_mut().flatten() {
            b.for_each_expr_mut(|e| {
                e.substitute_params(&mut |i| match values.get(i) {
                    Some(v) => Expr::Lit(v.clone()),
                    None => {
                        out_of_range = Some(i);
                        Expr::Lit(Value::Null)
                    }
                });
            });
        }
        match out_of_range {
            Some(i) => Err(Error::internal(format!(
                "plan template references parameter ${i} but only {} binding{} given",
                values.len(),
                if values.len() == 1 { " was" } else { "s were" }
            ))),
            None => Ok(()),
        }
    }

    /// Does any live box still contain a [`Expr::Param`] placeholder?
    pub fn contains_params(&self) -> bool {
        let mut found = false;
        for b in self.live_boxes() {
            b.for_each_expr(|e| found |= e.contains_param());
        }
        found
    }

    /// Resolve an output-column name on a box to its position.
    pub fn resolve_output(&self, id: BoxId, name: &str) -> Result<usize> {
        let b = self.boxref(id);
        let arity = self.output_arity(id);
        for i in 0..arity {
            if self.output_name(id, i).eq_ignore_ascii_case(name) {
                return Ok(i);
            }
        }
        Err(Error::binding(format!(
            "box {} ({}) has no output column '{name}'",
            b.id, b.label
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use decorr_common::DataType;

    /// Build the paper's Section 2 example:
    ///   SELECT d.name FROM dept d
    ///   WHERE d.budget < 10000
    ///     AND d.num_emps > (SELECT COUNT(*) FROM emp e
    ///                       WHERE d.building = e.building)
    fn example() -> (Qgm, BoxId, BoxId, QuantId, QuantId) {
        let mut g = Qgm::new();
        let dept = g.add_base_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        );
        let emp = g.add_base_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        );
        let top = g.add_box(BoxKind::Select, "top");
        let qd = g.add_quant(top, QuantKind::Foreach, dept, "D");

        // Inner SPJ over EMP with the correlated predicate.
        let inner = g.add_box(BoxKind::Select, "inner");
        let qe = g.add_quant(inner, QuantKind::Foreach, emp, "E");
        g.boxmut(inner)
            .preds
            .push(Expr::eq(Expr::col(qd, 3), Expr::col(qe, 1)));
        g.add_output(inner, "building", Expr::col(qe, 1));

        // Aggregate box: COUNT(*) over inner.
        let agg = g.add_box(BoxKind::Grouping { group_by: vec![] }, "agg");
        let _qi = g.add_quant(agg, QuantKind::Foreach, inner, "I");
        g.add_output(agg, "count", Expr::count_star());

        // Scalar quantifier over the aggregate in the top box.
        let qs = g.add_quant(top, QuantKind::Scalar, agg, "CNT");
        g.boxmut(top).preds.push(Expr::bin(
            crate::expr::BinOp::Lt,
            Expr::col(qd, 1),
            Expr::lit(10000),
        ));
        g.boxmut(top).preds.push(Expr::bin(
            crate::expr::BinOp::Gt,
            Expr::col(qd, 2),
            Expr::col(qs, 0),
        ));
        g.add_output(top, "name", Expr::col(qd, 0));
        g.set_top(top);
        (g, top, agg, qd, qs)
    }

    #[test]
    fn navigation() {
        let (g, top, agg, _, _) = example();
        let order = g.reachable_boxes(top);
        assert_eq!(order[0], top);
        assert_eq!(order.len(), 5); // top, dept, agg, inner, emp
        assert!(g.parents_of(agg).contains(&top));
        assert!(g.ancestors_of(agg).contains(&top));
    }

    #[test]
    fn correlation_detection() {
        let (g, top, agg, qd, _) = example();
        // The aggregate subtree references D.building — a free ref.
        assert!(g.is_correlated(agg));
        assert_eq!(g.free_refs(agg), vec![(qd, 3)]);
        // The whole query has no free refs.
        assert!(!g.is_correlated(top));
    }

    #[test]
    fn output_arities_and_names() {
        let (g, top, agg, _, _) = example();
        assert_eq!(g.output_arity(top), 1);
        assert_eq!(g.output_name(agg, 0), "count");
        // base table arity comes from the schema
        let dept = g.quant(g.boxref(top).quants[0]).input;
        assert_eq!(g.output_arity(dept), 4);
        assert_eq!(g.output_name(dept, 3), "building");
        assert_eq!(g.resolve_output(dept, "BUDGET").unwrap(), 1);
        assert!(g.resolve_output(dept, "zzz").is_err());
    }

    #[test]
    fn rewiring_refs() {
        let (mut g, _top, agg, qd, _) = example();
        // Introduce a fresh quantifier and rewire the correlation to it.
        let inner = g.quant(g.boxref(agg).quants[0]).input;
        let magic = g.add_box(BoxKind::Select, "magic");
        let qm = g.add_quant(inner, QuantKind::Foreach, magic, "M");
        g.map_refs_in_subtree(agg, |q, c| if q == qd { (qm, 0) } else { (q, c) });
        assert!(g.free_refs(agg).is_empty());
    }

    #[test]
    fn gc_sweeps_unreachable() {
        let (mut g, _, _, _, _) = example();
        let orphan = g.add_box(BoxKind::Select, "orphan");
        let dead_leaf = g.add_base_table("dead", Schema::default());
        g.add_quant(orphan, QuantKind::Foreach, dead_leaf, "X");
        assert_eq!(g.gc(), 2);
        assert!(!g.is_live(orphan));
    }

    #[test]
    fn quant_reparent_and_remove() {
        let (mut g, top, agg, _, qs) = example();
        assert_eq!(g.quant(qs).owner, top);
        g.reparent_quant(qs, agg);
        assert_eq!(g.quant(qs).owner, agg);
        assert!(g.boxref(agg).quants.contains(&qs));
        assert!(!g.boxref(top).quants.contains(&qs));
        g.remove_quant(qs);
        assert!(!g.boxref(agg).quants.contains(&qs));
    }
}
