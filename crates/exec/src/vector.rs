//! Vectorized operator fragments for the executor's columnar path.
//!
//! This module is the bridge between the plan IR and the kernel layer in
//! [`decorr_common::columnar`]: it *compiles* plan predicates and
//! projections into kernel form and drives the staged filter over a batch.
//! (The bulk-hashed join sides live with the join kernel in [`crate::join`].)
//!
//! `ExecStats` parity is the design constraint throughout. Every fragment
//! reproduces the row-wise path's observable behaviour bit-for-bit:
//!
//! * [`filter_range`] evaluates predicates in plan order over a shrinking
//!   selection and charges one predicate evaluation per *surviving* row at
//!   each stage — exactly the row-wise short-circuit count.
//! * Anything that does not compile — arithmetic in a predicate, an
//!   `IS NULL`, a non-column output — makes the caller fall back to the
//!   row-wise path wholesale, never half-way.
//!
//! Column references that are *not* bound in the operator's local layout
//! are resolved through the enclosing [`Env`] chain, where they are
//! correlation constants for the duration of the operator, and folded into
//! literals. That is what lets the nested-iteration hot path (a correlated
//! scan re-run per outer binding) go columnar: the table's batch is built
//! once, and each re-scan compiles to a fresh `Col cmp Lit` kernel call.

use decorr_common::columnar::{self, ColPredicate, Column, ColumnarBatch, SelVec};
use decorr_common::{FxHashMap, Row, Value};
use decorr_qgm::{BinOp, Expr};

use crate::env::{Env, Layout};

/// A compiled comparison operand: a batch column or a constant.
enum Operand {
    Col(usize),
    Lit(Value),
}

/// Compile one side of a comparison. Local column references become batch
/// offsets; outer references (bound by an ancestor operator) are constants
/// here and fold to literals, mirroring `Env::lookup`'s resolution order.
fn operand(e: &Expr, layout: &Layout, env: Option<&Env<'_>>) -> Option<Operand> {
    match e {
        Expr::Lit(v) => Some(Operand::Lit(v.clone())),
        Expr::Col { quant, col } => match layout.offset_of(*quant) {
            Some(off) => Some(Operand::Col(off + col)),
            None => env
                .and_then(|e| e.lookup(*quant, *col))
                .map(|v| Operand::Lit(v.clone())),
        },
        _ => None,
    }
}

/// Compile a predicate into kernel form, or `None` if it needs the
/// row-wise evaluator. Only `Col/Lit cmp Col/Lit` shapes and `OR`s of
/// `Col = Lit` over one column (an `IN` list) compile, which also
/// guarantees the kernel can never produce an evaluation error the
/// row-wise path would have raised (comparisons are total at runtime).
pub(crate) fn compile_pred(
    e: &Expr,
    layout: &Layout,
    env: Option<&Env<'_>>,
) -> Option<ColPredicate> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    if *op == BinOp::Or {
        let mut lits = Vec::new();
        let col = in_list(e, layout, env, &mut lits)?;
        return Some(ColPredicate::In { col, lits });
    }
    let op = op.cmp_op()?;
    match (operand(left, layout, env)?, operand(right, layout, env)?) {
        (Operand::Col(col), Operand::Lit(lit)) => Some(ColPredicate::ColLit { col, op, lit }),
        (Operand::Lit(lit), Operand::Col(col)) => {
            Some(ColPredicate::ColLit { col, op: op.flip(), lit })
        }
        (Operand::Col(left), Operand::Col(right)) => Some(ColPredicate::ColCol { left, op, right }),
        // Constant-only predicates are consumed before any per-row filter;
        // if one reaches us (degenerate plans), the row path handles it.
        (Operand::Lit(_), Operand::Lit(_)) => None,
    }
}

/// The column of `e` if it is an `OR` tree of `Col = Lit` comparisons that
/// all read that one column, pushing the literals onto `lits`.
fn in_list(
    e: &Expr,
    layout: &Layout,
    env: Option<&Env<'_>>,
    lits: &mut Vec<Value>,
) -> Option<usize> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    match op {
        BinOp::Or => {
            let col = in_list(left, layout, env, lits)?;
            (in_list(right, layout, env, lits)? == col).then_some(col)
        }
        BinOp::Eq => match (operand(left, layout, env)?, operand(right, layout, env)?) {
            (Operand::Col(col), Operand::Lit(lit)) | (Operand::Lit(lit), Operand::Col(col)) => {
                lits.push(lit);
                Some(col)
            }
            _ => None,
        },
        _ => None,
    }
}

/// Compile a conjunction, all-or-nothing: one uncompilable predicate sends
/// the whole filter to the row-wise path so the evaluation-order (and thus
/// error and stats) story stays simple.
pub(crate) fn compile_preds(
    preds: &[&Expr],
    layout: &Layout,
    env: Option<&Env<'_>>,
) -> Option<Vec<ColPredicate>> {
    preds.iter().map(|p| compile_pred(p, layout, env)).collect()
}

/// Compile a projection list to batch offsets — every output must be a
/// plain local column reference.
pub(crate) fn compile_projection<'a>(
    outputs: impl Iterator<Item = &'a Expr>,
    layout: &Layout,
) -> Option<Vec<usize>> {
    outputs
        .map(|e| match e {
            Expr::Col { quant, col } => layout.offset_of(*quant).map(|off| off + col),
            _ => None,
        })
        .collect()
}

/// The distinct column offsets a compiled predicate set reads, ascending.
pub(crate) fn pred_columns(preds: &[ColPredicate]) -> Vec<usize> {
    let mut cols = Vec::with_capacity(preds.len() * 2);
    for p in preds {
        match p {
            ColPredicate::ColLit { col, .. } | ColPredicate::In { col, .. } => cols.push(*col),
            ColPredicate::ColCol { left, right, .. } => {
                cols.push(*left);
                cols.push(*right);
            }
        }
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Rewrite compiled predicates onto a narrow batch holding exactly `cols`
/// (ascending), in that order.
pub(crate) fn remap_preds(preds: &mut [ColPredicate], cols: &[usize]) {
    let pos = |c: usize| {
        cols.binary_search(&c)
            .expect("predicate column is in the narrow batch")
    };
    for p in preds {
        match p {
            ColPredicate::ColLit { col, .. } | ColPredicate::In { col, .. } => *col = pos(*col),
            ColPredicate::ColCol { left, right, .. } => {
                *left = pos(*left);
                *right = pos(*right);
            }
        }
    }
}

/// Transpose only `cols` of `rows` — the batch a compiled filter actually
/// needs. Untouched attributes (in particular wide string columns, whose
/// transpose pays dictionary interning per value) are never columnized.
pub(crate) fn narrow_batch(rows: &[Row], cols: &[usize]) -> ColumnarBatch {
    let columns = cols
        .iter()
        .map(|&c| Column::from_values(rows.iter().map(move |r| &r[c]), rows.len()))
        .collect();
    ColumnarBatch::from_columns(columns, rows.len())
}

/// Run compiled predicates over rows `lo..hi` of the columns `column`
/// finds (a batch's, or the pinned pages of one stripe), narrowing the
/// selection stage by stage in plan order. Returns the survivors and the
/// number of predicate evaluations the row-wise short-circuit loop would
/// have performed: each stage charges one eval per row still alive when it
/// starts (predicates past the first only see prior survivors).
pub(crate) fn filter_range<'a>(
    column: &dyn Fn(usize) -> &'a Column,
    preds: &[ColPredicate],
    lo: u32,
    hi: u32,
) -> (SelVec, u64) {
    let mut sel: SelVec = (lo..hi).collect();
    let mut evals = 0u64;
    for p in preds {
        if sel.is_empty() {
            break;
        }
        evals += sel.len() as u64;
        sel = columnar::filter_columns(column, p, &sel);
    }
    (sel, evals)
}

/// Hash-partition a table's rows by one column for set-oriented nested
/// iteration: `eq_key`-normalized value → ascending row positions. Rows
/// whose value no SQL equality can select (NULL, NaN) are excluded, the
/// same discipline as hash-join build sides; probing with a binding's
/// `eq_key` therefore returns exactly the rows a per-binding scan with the
/// `col = binding` predicate would keep, in scan order.
pub fn build_corr_index(rows: &[Row], col: usize) -> FxHashMap<Value, Vec<u32>> {
    let mut idx: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
    for (i, r) in rows.iter().enumerate() {
        if let Some(k) = r[col].eq_key() {
            idx.entry(k).or_default().push(i as u32);
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_qgm::QuantId;

    #[test]
    fn a_same_column_or_of_equalities_is_an_in_list() {
        let (q, outer) = (QuantId::from_index(0), QuantId::from_index(1));
        let mut layout = Layout::new();
        layout.push(q, 2);
        let eq = |c: usize, v: i64| Expr::eq(Expr::col(q, c), Expr::lit(v));
        let or = |a, b| Expr::bin(BinOp::Or, a, b);
        // Either operand order, nested, a correlation constant folded in.
        let outer_row = Row::new(vec![Value::Int(9)]);
        let mut outer_layout = Layout::new();
        outer_layout.push(outer, 1);
        let env = Env::new(&outer_layout, &outer_row, None);
        let flipped = Expr::eq(Expr::col(outer, 0), Expr::col(q, 1));
        let list = or(or(eq(1, 3), flipped), eq(1, 3));
        let Some(ColPredicate::In { col: 1, lits }) = compile_pred(&list, &layout, Some(&env))
        else {
            panic!("an IN list compiles to one kernel predicate");
        };
        assert_eq!(lits, vec![Value::Int(3), Value::Int(9), Value::Int(3)]);
        // Two columns, or anything but `=`, stays row-wise.
        assert!(compile_pred(&or(eq(0, 1), eq(1, 1)), &layout, None).is_none());
        let ne = Expr::bin(BinOp::Ne, Expr::col(q, 0), Expr::lit(1));
        assert!(compile_pred(&or(eq(0, 1), ne), &layout, None).is_none());
    }
}
