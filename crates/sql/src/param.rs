//! Literal parameterization for the plan cache.
//!
//! [`parameterize`] rewrites a parsed [`Query`], replacing literal
//! constants with [`AstExpr::Param`] placeholders and collecting the
//! displaced values into a binding vector, in one deterministic
//! left-to-right AST walk. Two queries that differ only in their literals
//! — `WHERE x > 5` vs `WHERE x > 99` — parameterize to the *same* query
//! shape with different bindings, which is exactly the normalization the
//! plan cache keys on: the shape is fingerprinted and planned once, and
//! each request re-binds the cached plan template with its own values
//! (`Qgm::bind_params`).
//!
//! # What is deliberately left unparameterized
//!
//! In an **aggregating** block (GROUP BY / aggregate select items /
//! HAVING) the select list, the group-by list and HAVING stay literal.
//! The binder matches select-list and HAVING subtrees *structurally*
//! against the bound GROUP BY expressions, and a literal that became
//! `$0` in the select list would no longer match the same literal bound
//! as `$1` in GROUP BY. These positions are shape-defining rather than
//! selectivity-carrying, so keeping them literal costs no sharing for
//! realistic workloads (the WHERE clause — where point lookups and range
//! constants live — is always parameterized). Blocks nested *inside*
//! such a block (derived tables, subqueries in WHERE) are parameterized
//! independently on their own aggregation status.

use decorr_common::Value;

use crate::ast::{AstExpr, Query, Select, SelectItem, SetExpr, TableRef};
use crate::parser::Parsed;

/// Replace literals in `q` with parameters; returns the parameterized
/// query and the binding vector (parameter `i` ↔ `bindings[i]`).
pub fn parameterize(q: &Query) -> (Query, Vec<Value>) {
    let (out, p) = run(q);
    (out, p.bindings)
}

/// Where each literal of a [`Parsed`] statement went: for parameter `i`,
/// the token index of the literal it replaced, and the token indexes of
/// the literals left in place (see the module docs). This is the slot map
/// [`crate::shape::Slots`] is built from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Origins {
    pub params: Vec<u32>,
    pub kept: Vec<u32>,
}

/// [`parameterize`] a parsed statement and report where each literal went.
/// `None` if the walk met a different number of literals than the parser
/// recorded — then no slot map can be trusted.
pub fn parameterize_parsed(parsed: &Parsed) -> (Query, Vec<Value>, Option<Origins>) {
    let (out, p) = run(&parsed.query);
    let tokens = |ordinals: &[usize]| -> Option<Vec<u32>> {
        ordinals
            .iter()
            .map(|&n| parsed.literals.get(n).copied())
            .collect()
    };
    let origins = match (
        p.seen == parsed.literals.len(),
        tokens(&p.params),
        tokens(&p.kept),
    ) {
        (true, Some(params), Some(kept)) => Some(Origins { params, kept }),
        _ => None,
    };
    (out, p.bindings, origins)
}

fn run(q: &Query) -> (Query, Parameterizer) {
    let mut p = Parameterizer::default();
    let mut out = q.clone();
    p.query(&mut out);
    (out, p)
}

/// The walk visits a block's select list, FROM, WHERE, GROUP BY and HAVING
/// and every expression's operands in text order, so the `n`-th literal it
/// meets is the `n`-th the parser made: `seen` counts them, and `params` /
/// `kept` record ordinals in that count.
#[derive(Default)]
struct Parameterizer {
    bindings: Vec<Value>,
    seen: usize,
    params: Vec<usize>,
    kept: Vec<usize>,
}

impl Parameterizer {
    /// Count the literal just met, as a parameter or as kept in place.
    fn note(&mut self, param: bool) {
        let ordinals = if param {
            &mut self.params
        } else {
            &mut self.kept
        };
        ordinals.push(self.seen);
        self.seen += 1;
    }

    fn query(&mut self, q: &mut Query) {
        self.set_expr(&mut q.body);
    }

    fn set_expr(&mut self, s: &mut SetExpr) {
        match s {
            SetExpr::Select(sel) => self.select(sel),
            SetExpr::Union { left, right, .. } => {
                self.set_expr(left);
                self.set_expr(right);
            }
        }
    }

    fn select(&mut self, sel: &mut Select) {
        // Mirror the binder's aggregation test: an aggregating block keeps
        // its shape-defining positions literal (see the module docs).
        let has_agg = !sel.group_by.is_empty()
            || sel
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_agg()))
            || sel
                .having
                .as_ref()
                .map(AstExpr::contains_agg)
                .unwrap_or(false);

        if !has_agg {
            for item in &mut sel.items {
                if let SelectItem::Expr { expr, .. } = item {
                    self.expr(expr);
                }
            }
        } else {
            // Still descend into subqueries nested in the select list —
            // only this block's own literals must stay put.
            for item in &mut sel.items {
                if let SelectItem::Expr { expr, .. } = item {
                    self.subqueries_only(expr);
                }
            }
        }
        for t in &mut sel.from {
            if let TableRef::Derived { query, .. } = t {
                self.query(query);
            }
        }
        if let Some(w) = &mut sel.where_clause {
            self.expr(w);
        }
        if has_agg {
            for g in &mut sel.group_by {
                self.subqueries_only(g);
            }
            if let Some(h) = &mut sel.having {
                self.subqueries_only(h);
            }
        }
    }

    /// Full parameterization: literals become params, subqueries recurse.
    fn expr(&mut self, e: &mut AstExpr) {
        match e {
            AstExpr::Literal(v) => {
                let i = self.bindings.len();
                self.bindings.push(v.clone());
                self.note(true);
                *e = AstExpr::Param(i);
            }
            AstExpr::Ident { .. } | AstExpr::Param(_) | AstExpr::CountStar => {}
            AstExpr::Binary { left, right, .. } => {
                self.expr(left);
                self.expr(right);
            }
            AstExpr::Unary { expr, .. } => self.expr(expr),
            AstExpr::Agg { arg, .. } => self.expr(arg),
            AstExpr::Coalesce(args) => {
                for a in args {
                    self.expr(a);
                }
            }
            AstExpr::Subquery(q) | AstExpr::Exists { query: q, .. } => self.query(q),
            AstExpr::InSubquery { expr, query, .. } => {
                self.expr(expr);
                self.query(query);
            }
            AstExpr::InList { expr, list, .. } => {
                self.expr(expr);
                for v in list {
                    self.expr(v);
                }
            }
            AstExpr::Quantified { expr, query, .. } => {
                self.expr(expr);
                self.query(query);
            }
            AstExpr::IsNull { expr, .. } => self.expr(expr),
            AstExpr::Between { expr, lo, hi, .. } => {
                self.expr(expr);
                self.expr(lo);
                self.expr(hi);
            }
        }
    }

    /// Walk an expression of an aggregating block: leave this block's
    /// literals alone but still parameterize nested subqueries, which the
    /// binder binds as blocks of their own.
    fn subqueries_only(&mut self, e: &mut AstExpr) {
        match e {
            AstExpr::Literal(_) => self.note(false),
            AstExpr::Ident { .. } | AstExpr::Param(_) | AstExpr::CountStar => {}
            AstExpr::Binary { left, right, .. } => {
                self.subqueries_only(left);
                self.subqueries_only(right);
            }
            AstExpr::Unary { expr, .. } => self.subqueries_only(expr),
            AstExpr::Agg { arg, .. } => self.subqueries_only(arg),
            AstExpr::Coalesce(args) => {
                for a in args {
                    self.subqueries_only(a);
                }
            }
            AstExpr::Subquery(q) | AstExpr::Exists { query: q, .. } => self.query(q),
            AstExpr::InSubquery { expr, query, .. } => {
                self.subqueries_only(expr);
                self.query(query);
            }
            AstExpr::InList { expr, list, .. } => {
                self.subqueries_only(expr);
                for v in list {
                    self.subqueries_only(v);
                }
            }
            AstExpr::Quantified { expr, query, .. } => {
                self.subqueries_only(expr);
                self.query(query);
            }
            AstExpr::IsNull { expr, .. } => self.subqueries_only(expr),
            AstExpr::Between { expr, lo, hi, .. } => {
                self.subqueries_only(expr);
                self.subqueries_only(lo);
                self.subqueries_only(hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn literal_variants_collapse_to_one_shape() {
        let a = parse("SELECT t.x FROM t WHERE t.x > 5 AND t.y = 'red'").unwrap();
        let b = parse("SELECT t.x FROM t WHERE t.x > 99 AND t.y = 'blue'").unwrap();
        let (pa, ba) = parameterize(&a);
        let (pb, bb) = parameterize(&b);
        assert_eq!(pa, pb, "shapes must collide");
        assert_eq!(ba, vec![Value::Int(5), Value::str("red")]);
        assert_eq!(bb, vec![Value::Int(99), Value::str("blue")]);
    }

    #[test]
    fn binding_order_is_textual() {
        let q = parse("SELECT t.x FROM t WHERE t.a = 1 AND t.b IN (2, 3) AND t.c < 4").unwrap();
        let (_, bind) = parameterize(&q);
        assert_eq!(
            bind,
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn aggregating_block_keeps_group_positions_literal() {
        let q = parse(
            "SELECT t.x + 1, COUNT(*) FROM t WHERE t.y > 7 \
             GROUP BY t.x + 1 HAVING COUNT(*) > 2",
        )
        .unwrap();
        let (p, bind) = parameterize(&q);
        // Only the WHERE literal moves; the GROUP BY/select/HAVING literals
        // must keep matching each other structurally in the binder.
        assert_eq!(bind, vec![Value::Int(7)]);
        let rendered = format!("{p:?}");
        assert!(rendered.contains("Param(0)"));
        assert_eq!(rendered.matches("Param").count(), 1, "{rendered}");
    }

    #[test]
    fn subquery_literals_are_parameterized() {
        let q = parse(
            "SELECT d.name FROM dept d WHERE d.num_emps > \
             (SELECT COUNT(*) FROM emp e WHERE e.building = d.building AND e.age > 40)",
        )
        .unwrap();
        let (_, bind) = parameterize(&q);
        assert_eq!(bind, vec![Value::Int(40)]);
    }
}
