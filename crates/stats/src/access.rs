//! The access-path rule the executor takes and the estimator prices.
//!
//! The Section 7 race keeps the cheaper plan, which only works if the
//! estimator prices the access path the executor actually runs. Both ask
//! this module the same three questions:
//!
//! * [`eq_probe`] — which predicate lets an index serve a quantifier, and
//!   on which column? Only `=`: an index keys neither NULL nor NaN, so it
//!   cannot answer `IS NOT DISTINCT FROM`.
//! * [`index_nl_pays`] — do index nested loops pay for `n` driving rows
//!   into an `m`-row table, against scanning and hashing it?
//! * [`table_input`] — is a join's input a base table as it stands, so an
//!   index on the table can serve it (an outer join's right side: the
//!   table, or Dayal's `B3`, a Select that only filters and renames one)?

use decorr_qgm::{BinOp, BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind};

/// An equality an index can serve: predicate `pred` reads `Col(q, col) =
/// key`, with `key` not over `q`.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'e> {
    /// The predicate's position, as the caller numbered it.
    pub pred: usize,
    /// The probed column of the quantifier.
    pub col: usize,
    /// The other operand: a literal, a correlation binding, or an
    /// expression over quantifiers bound before this one.
    pub key: &'e Expr,
}

/// The first of `preds` of the shape `Col(q, c) = key` (either way round)
/// whose `key` does not read `q` and which `accept(c, key)` takes — for an
/// index probe, "column `c` is indexed".
pub fn eq_probe<'e>(
    preds: impl IntoIterator<Item = (usize, &'e Expr)>,
    q: QuantId,
    accept: impl Fn(usize, &Expr) -> bool,
) -> Option<Probe<'e>> {
    for (pred, p) in preds {
        let Expr::Binary { op: BinOp::Eq, left, right } = p else {
            continue;
        };
        for (a, key) in [(left, right), (right, left)] {
            if let Expr::Col { quant, col } = a.as_ref() {
                if *quant == q && !key.references(q) && accept(*col, key) {
                    return Some(Probe { pred, col: *col, key });
                }
            }
        }
    }
    None
}

/// Do `driving` index probes into a `table_rows`-row table pay, against
/// scanning the table and hashing it? A probe costs a lookup plus its
/// matches, a scan-and-hash about two passes over the table: probe while
/// the driving side is under half the table.
pub fn index_nl_pays(driving: f64, table_rows: f64) -> bool {
    2.0 * driving < table_rows.max(1.0)
}

/// A join input that is a base table as it stands.
#[derive(Debug, Clone)]
pub struct TableInput<'q> {
    pub table: &'q str,
    /// The Select's quantifier over the table, when there is a Select.
    pub scan: Option<QuantId>,
    /// The Select's predicates over `scan` (none for the bare table).
    pub filter: &'q [Expr],
    /// Per column of the input, the table column it is.
    pub cols: Vec<usize>,
}

/// Box `b` as a base table read as it stands: the table itself, or a
/// Select over it alone that only filters and renames its columns. `None`
/// for anything that computes, deduplicates or reads another input.
pub fn table_input(qgm: &Qgm, b: BoxId) -> Option<TableInput<'_>> {
    let bx = qgm.boxref(b);
    match &bx.kind {
        BoxKind::BaseTable { table, .. } => Some(TableInput {
            table,
            scan: None,
            filter: &[],
            cols: (0..qgm.output_arity(b)).collect(),
        }),
        BoxKind::Select if !bx.distinct && bx.quants.len() == 1 => {
            let q = bx.quants[0];
            let quant = qgm.quant(q);
            let BoxKind::BaseTable { table, .. } = &qgm.boxref(quant.input).kind else {
                return None;
            };
            let renamed = |e: &Expr| match e {
                Expr::Col { quant, col } if *quant == q => Some(*col),
                _ => None,
            };
            let cols: Option<Vec<usize>> = bx.outputs.iter().map(|o| renamed(&o.expr)).collect();
            (quant.kind == QuantKind::Foreach).then_some(TableInput {
                table,
                scan: Some(q),
                filter: &bx.preds,
                cols: cols?,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Schema};

    fn q(i: u32) -> QuantId {
        QuantId::from_index(i)
    }

    #[test]
    fn only_equality_against_another_side_probes() {
        let (a, b) = (q(0), q(1));
        let preds = [
            // `<=>`: an index keys no NULL.
            Expr::bin(BinOp::NullEq, Expr::col(a, 0), Expr::col(b, 0)),
            // both sides over `a`.
            Expr::eq(Expr::col(a, 1), Expr::col(a, 2)),
            // not indexed.
            Expr::eq(Expr::col(a, 3), Expr::lit(5)),
            // a literal key, flipped.
            Expr::eq(Expr::lit(7), Expr::col(a, 0)),
            Expr::eq(Expr::col(a, 0), Expr::col(b, 0)),
        ];
        let indexed = |c: usize, _: &Expr| c == 0;
        let p = eq_probe(preds.iter().enumerate(), a, indexed).unwrap();
        assert_eq!((p.pred, p.col), (3, 0));
        assert!(matches!(p.key, Expr::Lit(_)));
        let bound = |_: usize, key: &Expr| !key.referenced_quants().is_empty();
        let p = eq_probe(preds.iter().enumerate(), a, bound).unwrap();
        assert_eq!((p.pred, p.col), (4, 0));
        assert!(eq_probe(preds.iter().enumerate(), b, |_, _| false).is_none());
    }

    #[test]
    fn probes_pay_under_half_the_table() {
        assert!(index_nl_pays(569.0, 60_000.0));
        assert!(index_nl_pays(4.0, 9.0));
        assert!(!index_nl_pays(4.0, 8.0));
        // No probe at all always pays.
        assert!(index_nl_pays(0.0, 0.0));
    }

    #[test]
    fn a_select_that_only_filters_and_renames_is_its_table() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut g = Qgm::new();
        let t = g.add_base_table("t", schema);
        let s = g.add_box(BoxKind::Select, "renamed");
        let qt = g.add_quant(s, QuantKind::Foreach, t, "T");
        g.boxmut(s)
            .preds
            .push(Expr::bin(BinOp::Gt, Expr::col(qt, 1), Expr::lit(3)));
        g.add_output(s, "v", Expr::col(qt, 1));
        g.add_output(s, "corr", Expr::col(qt, 0));
        let input = table_input(&g, s).unwrap();
        assert_eq!(
            (input.table, input.scan, input.cols),
            ("t", Some(qt), vec![1, 0])
        );
        assert_eq!(input.filter.len(), 1);
        assert_eq!(table_input(&g, t).unwrap().cols, vec![0, 1]);
        // A computed output is not the table.
        g.add_output(
            s,
            "next",
            Expr::bin(BinOp::Add, Expr::col(qt, 0), Expr::lit(1)),
        );
        assert!(table_input(&g, s).is_none());
    }
}
