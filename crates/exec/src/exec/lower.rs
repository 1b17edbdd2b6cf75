//! Lowering: what the executor decides about a graph, decided once per run
//! (see the crate docs). One [`Traversal`] from the top box answers the
//! structural questions — a Select's part of them through the
//! [`SelectShape`] the estimator prices — and each reachable box gets a
//! [`Lowered`] entry holding what its operator would otherwise re-derive on
//! every evaluation.

use decorr_qgm::{BinOp, BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind, Traversal, UnOp};
use decorr_stats::access::{Probe, TableInput};
use decorr_stats::shape::{self, SelectShape, Stage};
use decorr_storage::Database;

use super::apply::CorrSig;
use super::grouping::{grand_total_cols, AggSlot, GroupKeys};
use super::{ExecOptions, ScalarPlacement};
use crate::env::Layout;
use crate::vector;

/// The lowered graph: one entry per box.
pub(super) struct Plan<'q> {
    pub qgm: &'q Qgm,
    /// Nested iteration keeps an applied input's results in the run memo
    /// under their binding keys (`ni_memo`).
    pub memo: bool,
    boxes: Vec<Lowered<'q>>,
}

#[derive(Default)]
pub(super) struct Lowered<'q> {
    /// Kept once evaluated, and served whole from where it is kept rather
    /// than evaluated where it is consumed.
    pub keep: Option<Keep>,
    /// A subquery's or a lateral join's input: its correlation signature.
    pub sig: Option<CorrSig>,
    pub select: Option<SelectOp<'q>>,
    pub group: Option<GroupOp<'q>>,
    /// An outer join whose right input an index can serve, no cache
    /// serving it: the arm it takes when the probes pay for the left rows.
    pub outer: Option<(TableInput<'q>, Probe<'q>)>,
}

/// How long a box's result is kept, and where. A box may be kept for
/// both: the run memo is asked first, the shared-subplan cache next.
pub(super) struct Keep {
    /// For the run, in the run memo (`memoize_cse`: uncorrelated, not a
    /// base table).
    pub run: bool,
    /// For the process, in the shared-subplan cache: a marked box under its
    /// canonical shape and the snapshot version of every table it reads.
    pub process: Option<(String, Vec<u64>)>,
}

pub(super) struct SelectOp<'q> {
    /// Where each predicate applies, and the Foreach inputs.
    pub shape: SelectShape<'q>,
    /// Per input of the shape, how it is read.
    pub access: Vec<Access<'q>>,
    /// Under `EarliestBinding`, each scalar subquery with the quantifiers
    /// of the box its input reads: it becomes a column once they are
    /// joined. Empty under `PerCandidateRow`.
    pub early: Vec<(QuantId, Vec<QuantId>)>,
    /// The scalar subqueries the end stage reads, in first-reference order
    /// over its predicates, then the outputs.
    pub end_scalars: Vec<QuantId>,
    /// Each Existential / All subquery with the predicates over it.
    pub groups: Vec<(QuantId, Vec<&'q Expr>)>,
}

/// How a Foreach input is read.
pub(super) enum Access<'q> {
    /// A derived input: evaluated per binding of its `deps` if it has any
    /// (a lateral join), else evaluated or served from a cache, then
    /// filtered.
    Derived,
    /// An indexed resident table with no predicate of its own, left
    /// unscanned: a join step may drive it through its index.
    Deferred(&'q str),
    /// An own `=` on an indexed column, keyed before the scan: one probe.
    Index(&'q str, Probe<'q>),
    /// Stripe by stripe through the buffer pool: values are copied off the
    /// pages only at the columns read past the scan, and stripes whose zone
    /// maps refute one of the input's sargable bounds (evaluated under the
    /// outer bindings) are skipped whole.
    Paged(&'q str, Vec<usize>),
    /// (`ni_batch`) An own `=` on an unindexed column against a correlation
    /// binding: a hash partition of the column, built on the run's second
    /// such scan and probed per binding after it.
    Correlated(&'q str, Probe<'q>),
    /// Every row, filtered.
    Scan(&'q str),
}

/// A Grouping's aggregates and keys over its input's layout.
pub(super) struct GroupOp<'q> {
    pub layout: Layout,
    pub slots: Vec<AggSlot<'q>>,
    pub keys: GroupKeys<'q>,
    /// A grand total's argument columns for the aggregate kernels (`None`
    /// inside: `COUNT(*)`); `None` when it folds rows, or groups.
    pub kernel: Option<Vec<Option<usize>>>,
}

impl<'q> Plan<'q> {
    pub fn lower(qgm: &'q Qgm, db: &Database, opts: &ExecOptions) -> Self {
        let tr = Traversal::new(qgm);
        let slots = qgm.slots().0;
        let mut boxes: Vec<Lowered<'q>> = (0..slots).map(|_| Lowered::default()).collect();
        let marks = opts.shared_subplans.as_ref().map(|ss| &ss.marks);
        let mark = |b: BoxId| marks.and_then(|marks| marks.get(&b));
        let cse = |b: BoxId| {
            opts.memoize_cse
                && !matches!(qgm.boxref(b).kind, BoxKind::BaseTable { .. })
                && !tr.is_correlated(b)
        };
        // A `memoize_cse` box is kept for the run, a marked box whose
        // tables all resolve for the process.
        let keep = |b: BoxId| {
            let run = cse(b);
            let process = mark(b).and_then(|m| Some((m.shape.clone(), m.versions(db)?)));
            (run || process.is_some()).then_some(Keep { run, process })
        };
        for &b in tr.order() {
            let bx = qgm.boxref(b);
            let low = &mut boxes[b.index()];
            low.keep = keep(b);
            match &bx.kind {
                BoxKind::Grouping { group_by } => {
                    low.group = Some(lower_grouping(qgm, opts, b, group_by));
                    continue;
                }
                BoxKind::OuterJoin => {
                    let right = qgm.quant(bx.quants[1]).input;
                    let indexed =
                        |t: &str, c| db.table(t).is_ok_and(|t| t.index_on(&[c]).is_some());
                    low.outer = shape::outer_arm(qgm, b, indexed).filter(|_| keep(right).is_none());
                    continue;
                }
                BoxKind::Select => {}
                _ => continue,
            }
            let op = lower_select(qgm, &tr, db, opts, b);
            let lateral = op.shape.inputs.iter().filter(|i| !i.deps.is_empty());
            let subqueries = bx.quants.iter().map(|&q| qgm.quant(q));
            let subqueries = subqueries.filter(|q| q.kind != QuantKind::Foreach);
            for child in lateral.map(|i| i.child).chain(subqueries.map(|q| q.input)) {
                let refs: Vec<(QuantId, usize)> = tr.free_refs(child).collect();
                // Normalize binding keys only when every free reference of
                // the subtree is read as a SQL comparison operand.
                let is_free = |q: QuantId| refs.iter().any(|&(fq, _)| fq == q);
                let mut sql_norm = !refs.is_empty();
                if sql_norm {
                    qgm.walk(child, &mut vec![false; slots], &mut |bb| {
                        let bx = qgm.boxref(bb);
                        bx.for_each_expr(|e| sql_norm &= cmp_context_only(e, &is_free, false));
                    });
                }
                boxes[child.index()].sig = Some(CorrSig { refs, sql_norm });
            }
            boxes[b.index()].select = Some(op);
        }
        Plan { qgm, memo: opts.ni_memo, boxes }
    }

    pub fn get(&self, b: BoxId) -> &Lowered<'q> {
        &self.boxes[b.index()]
    }

    pub fn sig(&self, b: BoxId) -> &CorrSig {
        let sig = self.get(b).sig.as_ref();
        sig.expect("every applied input is lowered")
    }
}

fn lower_select<'q>(
    qgm: &'q Qgm,
    tr: &Traversal<'_>,
    db: &Database,
    opts: &ExecOptions,
    b: BoxId,
) -> SelectOp<'q> {
    let bx = qgm.boxref(b);
    let kind = |q: QuantId| qgm.quant(q).kind;
    let local = |q: &QuantId| bx.quants.contains(q);
    let shape = SelectShape::new(qgm, tr, b);

    let mut access = Vec::new();
    for input in &shape.inputs {
        let (q, own) = (input.q, &input.own);
        access.push(match &qgm.boxref(input.child).kind {
            BoxKind::BaseTable { table, .. } => match db.table(table) {
                Ok(t) if own.is_empty() && !t.indexes().is_empty() => Access::Deferred(table),
                Ok(t) => {
                    let indexed = |c: usize, _: &Expr| t.index_on(&[c]).is_some();
                    let correlated = |_: usize, e: &Expr| !e.referenced_quants().is_empty();
                    if let Some(probe) = shape.probe(own, q, indexed) {
                        Access::Index(table, probe)
                    } else if t.is_paged() {
                        Access::Paged(table, cols_read_past_scan(qgm, tr, b, q, own))
                    } else {
                        match shape.probe(own, q, correlated) {
                            Some(probe) if opts.ni_batch => Access::Correlated(table, probe),
                            _ => Access::Scan(table),
                        }
                    }
                }
                // A table gone from the snapshot fails where it is read.
                Err(_) => Access::Scan(table),
            },
            _ => Access::Derived,
        });
    }

    let early = match opts.scalar_placement {
        ScalarPlacement::PerCandidateRow => Vec::new(),
        ScalarPlacement::EarliestBinding => (bx.quants.iter())
            .filter(|&&q| kind(q) == QuantKind::Scalar)
            .map(|&q| (q, shape::deps(qgm, tr, b, q)))
            .collect(),
    };
    let staged = |keep: fn(Stage) -> bool| {
        let preds = bx.preds.iter().zip(&shape.preds);
        preds.filter(move |(_, p)| keep(p.stage)).map(|(e, _)| e)
    };
    let mut end_scalars = Vec::new();
    let late = staged(|s| !matches!(s, Stage::Constant | Stage::Join));
    for e in late.chain(bx.outputs.iter().map(|o| &o.expr)) {
        for r in e.referenced_quants() {
            if local(&r) && kind(r) == QuantKind::Scalar && !end_scalars.contains(&r) {
                end_scalars.push(r);
            }
        }
    }
    let groups = (bx.quants.iter())
        .filter(|&&q| matches!(kind(q), QuantKind::Existential | QuantKind::All))
        .map(|&sq| {
            let over = staged(|s| s == Stage::Quantified).filter(|e| e.references(sq));
            (sq, over.collect())
        })
        .collect();
    SelectOp { shape, access, early, end_scalars, groups }
}

/// A Grouping's aggregate calls, GROUP BY keys and grand-total kernel
/// columns over its input `layout`: plain-column arguments and keys are
/// read in place when kernels are on.
fn lower_grouping<'q>(qgm: &'q Qgm, opts: &ExecOptions, b: BoxId, by: &'q [Expr]) -> GroupOp<'q> {
    let bx = qgm.boxref(b);
    let q = bx.quants[0];
    let mut layout = Layout::new();
    layout.push(q, qgm.output_arity(qgm.quant(q).input));
    let mut slots = Vec::new();
    for (i, o) in bx.outputs.iter().enumerate() {
        if let Expr::Agg { func, arg, distinct } = &o.expr {
            let arg = arg.as_deref();
            let col = arg.and_then(|a| vector::compile_projection([a].into_iter(), &layout));
            let col = col.filter(|_| opts.columnar).map(|c| c[0]);
            let (func, distinct) = (*func, *distinct);
            slots.push(AggSlot { func, arg, col, distinct, out_pos: i });
        }
    }
    let keys = GroupKeys::compile(by, &layout, opts.columnar, &slots);
    let kernel = by.is_empty().then(|| grand_total_cols(&slots)).flatten();
    GroupOp { layout, slots, keys, kernel }
}

/// The columns of quantifier `q` of Select `b` that anything reads once
/// its scan has applied its `own` predicates: the box's other predicates
/// and outputs, and the subqueries and lateral inputs correlated to it. A
/// reference to `q` can sit nowhere else.
fn cols_read_past_scan(
    qgm: &Qgm,
    tr: &Traversal<'_>,
    b: BoxId,
    q: QuantId,
    own: &[usize],
) -> Vec<usize> {
    let bx = qgm.boxref(b);
    let below = bx
        .quants
        .iter()
        .flat_map(|&c| tr.free_refs(qgm.quant(c).input));
    let mut cols: Vec<usize> = below.filter(|&(fq, _)| fq == q).map(|(_, c)| c).collect();
    let others = (bx.preds.iter().enumerate()).filter(|(i, _)| !own.contains(i));
    for e in others
        .map(|(_, p)| p)
        .chain(bx.outputs.iter().map(|o| &o.expr))
    {
        e.for_each_col(&mut |fq, c| {
            if fq == q {
                cols.push(c)
            }
        });
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Does every free-reference occurrence in `e` sit in a SQL-comparison
/// context? `safe` says the current position is reached only through
/// comparison operands and value-preserving arithmetic (`+ - *` and unary
/// negation — `/` is excluded because `NULL / 0` is NULL while `NaN / 0`
/// errors, so NULL~NaN folding would change behaviour). Everything else —
/// `IS [NOT] NULL`, `<=>`, `COALESCE`, aggregates, boolean structure —
/// observes the raw value and resets the context.
fn cmp_context_only(e: &Expr, is_free: &impl Fn(QuantId) -> bool, safe: bool) -> bool {
    match e {
        Expr::Col { quant, .. } => !is_free(*quant) || safe,
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Binary { op, left, right } => {
            let inner = match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => true,
                BinOp::Add | BinOp::Sub | BinOp::Mul => safe,
                _ => false,
            };
            cmp_context_only(left, is_free, inner) && cmp_context_only(right, is_free, inner)
        }
        Expr::Unary { op, expr } => {
            let inner = matches!(op, UnOp::Neg) && safe;
            cmp_context_only(expr, is_free, inner)
        }
        Expr::Func { args, .. } => args.iter().all(|a| cmp_context_only(a, is_free, false)),
        Expr::Agg { arg, .. } => arg
            .as_ref()
            .is_none_or(|a| cmp_context_only(a, is_free, false)),
    }
}
