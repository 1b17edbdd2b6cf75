//! Canonical QGM fingerprints for the plan cache and shared subplans.
//!
//! [`fingerprint`] serializes a bound (typically *parameterized*) graph
//! into a canonical string in which arena numbering is normalized away:
//! boxes are renumbered by their position in the deterministic
//! [`Qgm::reachable_boxes`] preorder and quantifiers by `(owner preorder,
//! slot)`. Display-only state — quantifier aliases, box labels, output
//! column *names* — is excluded, so `SELECT d.name FROM dept d` and
//! `SELECT dd.name FROM dept dd` fingerprint identically, as do any two
//! graphs whose arenas happen to be laid out differently. Literals are
//! included verbatim (via `Debug`, which distinguishes `Int(1)` from
//! `Double(1.0)`): the caller decides what is shape and what is binding
//! by parameterizing literals out *before* fingerprinting
//! (`decorr_sql::parameterize`).
//!
//! The canonical string itself is the cache key — exact, collision-free
//! and directly inspectable in tests; [`digest`] condenses it to a short
//! hex tag for display.
//!
//! [`shared_subplan_marks`] reuses the same serialization per subtree to
//! identify the cross-query sharing candidates of multi-query
//! optimization (Roy/Seshadri/Sudarshan): uncorrelated magic/SUPP/DCO/CI
//! boxes produced by decorrelation, plus any box several quantifiers
//! range over (the within-query CSE that OptMag dedups). Marks computed
//! on two executions of the same shape with the same literals come out
//! identical, which is what lets concurrent queries share one
//! materialization.

use std::fmt::Write as _;

use decorr_qgm::{BoxId, BoxKind, Expr, Qgm, Traversal};

/// Canonical serialization of the whole graph (from the top box).
pub fn fingerprint(qgm: &Qgm) -> String {
    canonical_form(qgm, qgm.top())
}

/// A short hex tag of a canonical form, for display (`\cache`, traces).
pub fn digest(canonical: &str) -> String {
    // FNV-1a over the bytes: stable across runs (no RandomState), short
    // enough to read. Collisions are cosmetic — keys are the full string.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Canonical serialization of the subtree rooted at `root`.
///
/// References to quantifiers owned outside the subtree (free refs — the
/// subtree's correlations) serialize by raw arena id, so correlated
/// subtrees still get *a* deterministic form; the cache layers only ever
/// share uncorrelated subtrees, where every reference is canonical.
pub fn canonical_form(qgm: &Qgm, root: BoxId) -> String {
    let order = qgm.reachable_boxes(root);
    // Canonical numbers by arena index; `usize::MAX` is outside the subtree.
    let (boxes, quants) = qgm.slots();
    let mut box_idx = vec![usize::MAX; boxes];
    for (i, b) in order.iter().enumerate() {
        box_idx[b.index()] = i;
    }
    let mut quant_idx = vec![usize::MAX; quants];
    let mut next_q = 0usize;
    for b in &order {
        for q in &qgm.boxref(*b).quants {
            quant_idx[q.index()] = next_q;
            next_q += 1;
        }
    }

    let mut out = String::new();
    for (i, b) in order.iter().enumerate() {
        let bx = qgm.boxref(*b);
        let _ = write!(out, "b{i}:");
        match &bx.kind {
            BoxKind::Select => out.push('S'),
            BoxKind::Grouping { group_by } => {
                out.push_str("G[");
                for (j, g) in group_by.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    expr_form(&mut out, g, &quant_idx);
                }
                out.push(']');
            }
            BoxKind::Union { all } => out.push_str(if *all { "U+" } else { "U-" }),
            BoxKind::OuterJoin => out.push_str("OJ"),
            BoxKind::BaseTable { table, schema, key } => {
                let _ = write!(out, "T({table},{},key={key:?})", schema.arity());
            }
        }
        if bx.distinct {
            out.push_str(";D");
        }
        out.push_str(";q[");
        for (j, q) in bx.quants.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let quant = qgm.quant(*q);
            let _ = write!(out, "{}b{}", quant.kind, box_idx[quant.input.index()]);
        }
        out.push_str("];p[");
        for (j, p) in bx.preds.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            expr_form(&mut out, p, &quant_idx);
        }
        out.push_str("];o[");
        for (j, o) in bx.outputs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            // Output *names* are display-only and excluded; positions are
            // what expressions reference.
            expr_form(&mut out, &o.expr, &quant_idx);
        }
        out.push_str("]\n");
    }
    out
}

fn expr_form(out: &mut String, e: &Expr, quant_idx: &[usize]) {
    match e {
        Expr::Col { quant, col } => match quant_idx[quant.index()] {
            // Free (correlated) reference: outside the canonicalized
            // subtree, keep the raw id for determinism.
            usize::MAX => {
                let _ = write!(out, "Q!{}.{col}", quant.index());
            }
            i => {
                let _ = write!(out, "q{i}.{col}");
            }
        },
        Expr::Lit(v) => {
            let _ = write!(out, "lit({v:?})");
        }
        Expr::Param(i) => {
            let _ = write!(out, "${i}");
        }
        Expr::Binary { op, left, right } => {
            let _ = write!(out, "({op:?} ");
            expr_form(out, left, quant_idx);
            out.push(' ');
            expr_form(out, right, quant_idx);
            out.push(')');
        }
        Expr::Unary { op, expr } => {
            let _ = write!(out, "({op:?} ");
            expr_form(out, expr, quant_idx);
            out.push(')');
        }
        Expr::Func { func, args } => {
            let _ = write!(out, "({func:?}");
            for a in args {
                out.push(' ');
                expr_form(out, a, quant_idx);
            }
            out.push(')');
        }
        Expr::Agg { func, arg, distinct } => {
            let _ = write!(
                out,
                "(agg {func:?}{}",
                if *distinct { " distinct" } else { "" }
            );
            match arg {
                Some(a) => {
                    out.push(' ');
                    expr_form(out, a, quant_idx);
                }
                None => out.push_str(" *"),
            }
            out.push(')');
        }
    }
}

/// A cross-query sharing candidate: one uncorrelated subtree worth
/// materializing once per catalog epoch.
#[derive(Debug, Clone)]
pub struct SubplanMark {
    /// Root of the subtree in this plan's arena.
    pub box_id: BoxId,
    /// Canonical form of the subtree — the version-free part of the
    /// shared-subplan cache key (the executor appends the snapshot
    /// versions of `tables`).
    pub shape: String,
    /// Base tables the subtree reads, sorted and deduplicated.
    pub tables: Vec<String>,
}

/// Identify the shareable subtrees of a plan: uncorrelated, non-leaf,
/// non-top boxes that decorrelation labeled as supplementary structures
/// (SUPP / MAGIC / DCO / CI / BugRemoval) or that several quantifiers range over
/// (within-query CSE — the OptMag candidates). Run on the *concrete*
/// (literal-bound) plan: the same shape with different bindings
/// materializes different rows and must key differently.
pub fn shared_subplan_marks(qgm: &Qgm) -> Vec<SubplanMark> {
    let top = qgm.top();
    let tr = Traversal::new(qgm);
    let mut marks = Vec::new();
    for &b in tr.order() {
        if b == top {
            continue;
        }
        let bx = qgm.boxref(b);
        if matches!(bx.kind, BoxKind::BaseTable { .. }) {
            continue;
        }
        // The magic rewrite's supplementary structures — including the
        // COUNT-bug-repair outer join that survives `rules::optimize` as
        // the root of the decorrelated subquery subtree.
        let labeled = matches!(
            bx.label.as_str(),
            "SUPP" | "MAGIC" | "DCO" | "CI" | "BugRemoval"
        );
        let shared = labeled || tr.consumers(b) >= 2;
        if !shared || tr.is_correlated(b) {
            continue;
        }
        let mut tables = Vec::new();
        qgm.walk(b, &mut vec![false; qgm.slots().0], &mut |c| {
            if let BoxKind::BaseTable { table, .. } = &qgm.boxref(c).kind {
                tables.push(table.clone());
            }
        });
        tables.sort();
        tables.dedup();
        marks.push(SubplanMark { box_id: b, shape: canonical_form(qgm, b), tables });
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{row, DataType, Schema};
    use decorr_storage::Database;

    fn db() -> Database {
        let mut db = Database::new();
        let d = db
            .create_table(
                "dept",
                Schema::from_pairs(&[
                    ("name", DataType::Str),
                    ("budget", DataType::Double),
                    ("num_emps", DataType::Int),
                    ("building", DataType::Int),
                ]),
            )
            .unwrap();
        d.insert(row!["toys", 500.0, 1, 3]).unwrap();
        let e = db
            .create_table(
                "emp",
                Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
            )
            .unwrap();
        e.insert(row!["bob", 3]).unwrap();
        db
    }

    fn fp(sql: &str) -> String {
        let db = db();
        let q = decorr_sql::parse(sql).unwrap();
        let (pq, _) = decorr_sql::parameterize(&q);
        let qgm = decorr_sql::bind(&pq, &db).unwrap();
        fingerprint(&qgm)
    }

    #[test]
    fn alias_variants_collide() {
        let a = fp("SELECT d.name FROM dept d WHERE d.budget < 100");
        let b = fp("SELECT zz.name   FROM dept   zz WHERE zz.budget < 200");
        assert_eq!(a, b);
    }

    #[test]
    fn literal_variants_collide_after_parameterization() {
        let a = fp("SELECT d.name FROM dept d WHERE d.num_emps > 1 AND d.name = 'a'");
        let b = fp("SELECT d.name FROM dept d WHERE d.num_emps > 9 AND d.name = 'b'");
        assert_eq!(a, b);
    }

    #[test]
    fn different_shapes_do_not_collide() {
        let a = fp("SELECT d.name FROM dept d WHERE d.budget < 100");
        let b = fp("SELECT d.name FROM dept d WHERE d.budget > 100");
        assert_ne!(a, b);
        let c = fp("SELECT d.name FROM dept d");
        assert_ne!(a, c);
    }

    #[test]
    fn output_column_aliases_are_display_only() {
        let a = fp("SELECT d.name AS n FROM dept d");
        let b = fp("SELECT d.name AS other FROM dept d");
        assert_eq!(a, b);
    }

    #[test]
    fn digest_is_stable_and_short() {
        let d1 = digest("hello");
        let d2 = digest("hello");
        assert_eq!(d1, d2);
        assert_eq!(d1.len(), 16);
        assert_ne!(digest("hello"), digest("world"));
    }

    #[test]
    fn magic_plan_marks_supp_subtrees() {
        let db = db();
        let qgm = decorr_sql::parse_and_bind(
            "SELECT d.name FROM dept d WHERE d.num_emps > \
             (SELECT COUNT(*) FROM emp e WHERE d.building = e.building)",
            &db,
        )
        .unwrap();
        let plan = crate::apply_strategy(&qgm, crate::Strategy::Magic).unwrap();
        let marks = shared_subplan_marks(&plan);
        assert!(
            !marks.is_empty(),
            "magic plans must expose shareable SUPP/DCO subtrees:\n{}",
            decorr_qgm::print::render(&plan)
        );
        for m in &marks {
            assert!(!plan.is_correlated(m.box_id));
            assert!(!m.tables.is_empty());
        }
        // Same query planned twice → identical shapes (cross-query key).
        let plan2 = crate::apply_strategy(&qgm, crate::Strategy::Magic).unwrap();
        let marks2 = shared_subplan_marks(&plan2);
        assert_eq!(
            marks.iter().map(|m| &m.shape).collect::<Vec<_>>(),
            marks2.iter().map(|m| &m.shape).collect::<Vec<_>>()
        );
    }
}
