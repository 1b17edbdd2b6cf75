//! Bottom-up cardinality and cost estimation over a QGM box graph.
//!
//! The estimator walks the graph leaves-to-root computing, per box, the
//! expected output rows and the expected work of the box *itself* per
//! evaluation, then walks top-down to count how often each box is
//! evaluated (once for set-oriented boxes — a box shared by several
//! consumers included; once per distinct binding for correlated subquery
//! boxes under nested iteration). The plan's cost is `Σ self cost ×
//! evaluations` over the DAG, so a shared box is paid for exactly as
//! often as it runs. The per-box numbers are kept in a [`PlanEstimate`]
//! so predictions can be audited against an execution trace box by box
//! (see [`crate::qerror`]).
//!
//! Selectivities come from real statistics where the reference can be
//! traced to a base-table column (through pass-through projections):
//! MCV/histogram for literals, distinct counts for equi-joins, NULL
//! fractions for `IS [NOT] NULL` and `<=>`, distinct-count products for
//! GROUP BY and DISTINCT (the magic table), and indexed-probe pricing for
//! correlated bindings — the term that decides NI vs decorrelation.

use decorr_common::{FxHashMap, Result};
use decorr_qgm::{BinOp, BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind, Traversal, UnOp};

use crate::access;
use crate::collect::{ColumnStats, Statistics};
use crate::shape::{self, Input, SelectShape, Stage};

/// Fallback selectivity of an equality when no statistics resolve.
const EQ_SELECTIVITY: f64 = 0.1;
/// Fallback selectivity of a range predicate.
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Assumed cardinality of a table absent from the statistics.
const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Estimated cardinality and cost of a whole plan (its top box).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Estimated result rows.
    pub rows: f64,
    /// Estimated total work (same scale as
    /// [`decorr_common::ExecStats::total_work`], approximately).
    pub cost: f64,
}

/// Per-box estimate: output rows and self cost *per evaluation*, plus
/// how many evaluations the box is expected to see.
#[derive(Debug, Clone, Copy)]
pub struct BoxEstimate {
    /// Rows one evaluation returns.
    pub rows: f64,
    /// Work of one evaluation of the box itself: reading its base-table
    /// inputs, joining, filtering, aggregating. Derived inputs are boxes
    /// of their own and carry their own cost.
    pub cost: f64,
    /// Expected number of evaluations (1 for set-oriented boxes, shared
    /// ones included; the distinct-binding count for correlated
    /// subqueries under NI; 0 for an outer join's right input that an
    /// index serves instead).
    pub invocations: f64,
}

impl BoxEstimate {
    /// Total rows the box is expected to emit over all evaluations —
    /// the number comparable to `ExecTrace`'s `rows_out`.
    pub fn total_rows(&self) -> f64 {
        self.rows * self.invocations
    }
}

/// The estimate of every box of one plan.
#[derive(Debug, Clone, Default)]
pub struct PlanEstimate {
    per_box: FxHashMap<BoxId, BoxEstimate>,
    total: Estimate,
}

impl PlanEstimate {
    /// The whole-plan estimate: the top box's rows, and every box's self
    /// cost times its evaluations.
    pub fn total(&self) -> Estimate {
        self.total
    }

    /// The estimate for one box, if it is part of the plan.
    pub fn box_estimate(&self, b: BoxId) -> Option<&BoxEstimate> {
        self.per_box.get(&b)
    }

    /// All estimated boxes in deterministic (id) order.
    pub fn boxes(&self) -> Vec<(BoxId, BoxEstimate)> {
        let mut v: Vec<_> = self.per_box.iter().map(|(b, e)| (*b, *e)).collect();
        v.sort_by_key(|(b, _)| *b);
        v
    }
}

/// What a consumer pays to read input box `child` of `rows` rows: a scan
/// of a base table, nothing for a derived box (which carries its own cost).
fn scan_cost(qgm: &Qgm, child: BoxId, rows: f64) -> f64 {
    match qgm.boxref(child).kind {
        BoxKind::BaseTable { .. } => rows,
        _ => 0.0,
    }
}

impl Statistics {
    /// Estimate every box of `qgm` against these statistics: what the
    /// strategy race prices each candidate plan with.
    pub fn estimate_plan(&self, qgm: &Qgm) -> Result<PlanEstimate> {
        Estimator::new(self).estimate(qgm)
    }
}

/// The statistics-backed cardinality estimator.
pub struct Estimator<'a> {
    stats: &'a Statistics,
}

/// One plan under estimation: its graph, one traversal of it, and the
/// shape of each reachable Select — the one the executor lowers.
struct Plan<'a, 'q> {
    stats: &'a Statistics,
    qgm: &'q Qgm,
    tr: Traversal<'q>,
    shapes: Vec<Option<SelectShape<'q>>>,
}

/// Bottom-up per-evaluation numbers plus the per-quantifier invocation
/// multipliers needed by the top-down pass (vectors by [`BoxId::index`] /
/// [`QuantId::index`]).
struct BottomUp {
    /// Rows and self cost (the box's own work per evaluation, children
    /// excluded) of each box estimated so far.
    done: Vec<Option<(f64, f64)>>,
    /// Evaluations of each quantifier's input box per evaluation of its
    /// owner (1 except for correlated subqueries, and 0 for an outer
    /// join's right input that an index serves instead).
    multiplier: Vec<f64>,
}

impl<'a> Estimator<'a> {
    pub fn new(stats: &'a Statistics) -> Self {
        Estimator { stats }
    }

    /// Estimate every box of the plan.
    pub fn estimate(&self, qgm: &Qgm) -> Result<PlanEstimate> {
        let top = qgm.top();
        let (boxes, quants) = qgm.slots();
        let tr = Traversal::new(qgm);
        let mut shapes: Vec<Option<SelectShape<'_>>> = (0..boxes).map(|_| None).collect();
        for &b in tr.order() {
            if matches!(qgm.boxref(b).kind, BoxKind::Select) {
                shapes[b.index()] = Some(SelectShape::new(qgm, &tr, b));
            }
        }
        let plan = Plan { stats: self.stats, qgm, tr, shapes };
        let mut bu = BottomUp { done: vec![None; boxes], multiplier: vec![1.0; quants] };
        plan.est_box(top, &mut bu)?;

        // Top-down: count evaluations. Kahn order so every parent is
        // settled before its children (the graph is a DAG). Correlated
        // shared boxes accumulate invocations from every parent edge; an
        // *uncorrelated* derived box shared by several parents (SUPP,
        // OptMag-CSE dedup, run-lifetime subquery memo) is materialized
        // once and served to the others, so summing its parent edges would
        // double-count — it takes the heaviest single edge instead.
        let reachable = plan.tr.order();
        let mut indegree = vec![0usize; boxes];
        for &b in reachable {
            for &q in &qgm.boxref(b).quants {
                indegree[qgm.quant(q).input.index()] += 1;
            }
        }
        let mut dedup_shared = vec![false; boxes];
        for &b in reachable {
            dedup_shared[b.index()] = indegree[b.index()] > 1
                && !matches!(qgm.boxref(b).kind, BoxKind::BaseTable { .. })
                && !plan.tr.is_correlated(b);
        }
        let mut invocations = vec![0.0f64; boxes];
        invocations[top.index()] = 1.0;
        let mut queue: Vec<BoxId> = reachable
            .iter()
            .copied()
            .filter(|b| indegree[b.index()] == 0)
            .collect();
        queue.sort();
        while let Some(b) = queue.pop() {
            let inv = invocations[b.index()];
            for &q in &qgm.boxref(b).quants {
                let child = qgm.quant(q).input.index();
                let mult = bu.multiplier[q.index()];
                let e = &mut invocations[child];
                if dedup_shared[child] {
                    *e = e.max(inv * mult);
                } else {
                    *e += inv * mult;
                }
                indegree[child] -= 1;
                if indegree[child] == 0 {
                    queue.push(qgm.quant(q).input);
                    queue.sort();
                }
            }
        }

        // The plan costs what its boxes cost, each as often as it runs.
        let rows_cost = |b: BoxId| bu.done[b.index()].expect("every reachable box is estimated");
        let mut total = Estimate { rows: rows_cost(top).0, cost: 0.0 };
        let mut per_box = FxHashMap::with_capacity_and_hasher(reachable.len(), Default::default());
        for &b in reachable {
            let (rows, cost) = rows_cost(b);
            let e = BoxEstimate { rows, cost, invocations: invocations[b.index()] };
            total.cost += e.cost * e.invocations;
            per_box.insert(b, e);
        }
        Ok(PlanEstimate { per_box, total })
    }
}

impl Plan<'_, '_> {
    /// Estimate box `b` (memoized): returns its rows per evaluation and
    /// records its self cost.
    fn est_box(&self, b: BoxId, bu: &mut BottomUp) -> Result<f64> {
        let qgm = self.qgm;
        if let Some((rows, _)) = bu.done[b.index()] {
            return Ok(rows);
        }
        let (rows, cost) = match &qgm.boxref(b).kind {
            // The consumer prices the access: a scan or an index probe.
            BoxKind::BaseTable { table, .. } => {
                let rows = self.stats.table(table).map(|t| t.rows as f64);
                (rows.unwrap_or(DEFAULT_TABLE_ROWS), 0.0)
            }
            BoxKind::Select => self.est_select(b, bu)?,
            BoxKind::Grouping { group_by } => {
                let child = qgm.quant(qgm.boxref(b).quants[0]).input;
                let crows = self.est_box(child, bu)?;
                let groups = if group_by.is_empty() {
                    1.0
                } else {
                    self.distinct_estimate(group_by.iter(), crows)
                };
                (groups.max(1.0), scan_cost(qgm, child, crows) + crows)
            }
            BoxKind::Union { all } => {
                let mut rows = 0.0;
                let mut cost = 0.0;
                for &q in &qgm.boxref(b).quants {
                    let child = qgm.quant(q).input;
                    let crows = self.est_box(child, bu)?;
                    rows += crows;
                    cost += scan_cost(qgm, child, crows);
                }
                if !all {
                    cost += rows; // dedup pass
                }
                (rows, cost)
            }
            BoxKind::OuterJoin => {
                let bx = qgm.boxref(b);
                let qr = bx.quants[1];
                let (l, r) = (qgm.quant(bx.quants[0]).input, qgm.quant(qr).input);
                let lrows = self.est_box(l, bu)?;
                let rrows = self.est_box(r, bu)?;
                let sel: f64 = bx.preds.iter().map(|p| self.pred_selectivity(p)).product();
                // LOJ preserves the left side at minimum.
                let joined = (lrows * rrows * sel).max(lrows);
                // The executor's choice: each left row probes an index of
                // the right input's table (which is then never evaluated)
                // when the access rule says so, else both sides hash.
                let indexed = |t: &str, c| self.stats.table(t).is_some_and(|ts| ts.has_index_on(c));
                let probe = shape::outer_arm(qgm, b, indexed).and_then(|(input, probe)| {
                    let rows = self.stats.table(input.table)?.rows as f64;
                    let pays = access::index_nl_pays(lrows, rows);
                    pays.then(|| self.probe_cost(qr, &probe, rows))
                });
                let access = match probe {
                    Some(per_probe) => {
                        bu.multiplier[qr.index()] = 0.0;
                        lrows * per_probe
                    }
                    None => scan_cost(qgm, r, rrows) + lrows + rrows,
                };
                (joined, scan_cost(qgm, l, lrows) + access + joined)
            }
        };
        bu.done[b.index()] = Some((rows, cost));
        Ok(rows)
    }

    fn est_select(&self, b: BoxId, bu: &mut BottomUp) -> Result<(f64, f64)> {
        let qgm = self.qgm;
        let bx = qgm.boxref(b);
        let shape = self.shapes[b.index()].as_ref();
        let shape = shape.expect("every reachable Select has a shape");
        let joined = shape.inputs.iter().filter(|i| i.deps.is_empty());
        let (mut rows, mut cost) = self.est_join(shape, bu)?;

        // Predicates over no quantifier of the box (e.g. purely over
        // correlation bindings) filter what the join keeps.
        for (p, e) in shape.preds.iter().zip(shape.exprs) {
            if p.stage == Stage::Constant {
                rows *= self.pred_selectivity(e);
            }
        }
        rows = rows.max(0.0);
        // The joined result is materialized; a lone input is simply
        // adopted, its scan and filter pass already paid.
        if joined.count() > 1 {
            cost += rows;
        }

        // Correlated quantifiers: under memoized nested iteration a
        // subtree *executes* once per distinct binding of its free
        // references, not once per candidate row — `min(candidates,
        // NDV(correlation key))`, the paper's "3954 invocations of which
        // only 2138 are distinct" priced at plan time — which is the term
        // that makes NI competitive on high-duplication workloads.
        // Uncorrelated non-Foreach subqueries are evaluated once. The
        // subtree's own boxes carry its cost; the multiplier says how often
        // they run.
        for &q in &bx.quants {
            let kind = qgm.quant(q).kind;
            let child_box = qgm.quant(q).input;
            let lateral = shape.inputs.iter().any(|i| i.q == q && !i.deps.is_empty());
            if kind == QuantKind::Foreach && !lateral {
                continue; // joined above
            }
            let correlated = lateral || self.tr.is_correlated(child_box);
            let crows = self.est_box(child_box, bu)?;
            let execs = if correlated {
                let key = self.tr.free_refs(child_box).map(|(q, c)| Expr::col(q, c));
                self.distinct_estimate(key, rows.max(1.0)).max(1.0)
            } else {
                1.0
            };
            bu.multiplier[q.index()] = execs;
            cost += execs * scan_cost(qgm, child_box, crows);
            if kind == QuantKind::Foreach {
                rows *= crows.max(1.0).min(rows.max(1.0));
            } else {
                // Quantified/scalar predicates halve the candidates
                // (coarse, like the classic 1/2 default).
                rows *= 0.5;
            }
        }

        if bx.distinct {
            cost += rows;
            let before = rows;
            rows = self
                .distinct_estimate(bx.outputs.iter().map(|o| &o.expr), before)
                .max(1.0)
                .min(before.max(1.0));
        }
        Ok((rows, cost))
    }

    /// Estimate the join of a Select's inputs that are not lateral, placed
    /// by their cardinality under their own predicates (the executor orders
    /// by connection, then by actual size). Each is *probed* through an
    /// index when the shape's `probe` finds an equality on an indexed
    /// column — and, past the first, the access rule says the probes pay —
    /// or scanned and hash-joined. Returns the joined rows and the access
    /// cost (base-table reads, filter passes and probes; a derived input is
    /// a box with a cost of its own).
    fn est_join(&self, shape: &SelectShape<'_>, bu: &mut BottomUp) -> Result<(f64, f64)> {
        let qgm = self.qgm;
        let mut order = Vec::new();
        for input in shape.inputs.iter().filter(|i| i.deps.is_empty()) {
            let crows = self.est_box(input.child, bu)?;
            // What a scan of the child reads and filters: a base table's
            // rows — for a paged one, those of the stripes its zone maps
            // keep under the scan's own predicates — nothing of a derived
            // box.
            let read = self.rows_in_kept_stripes(input, crows);
            let scan = scan_cost(qgm, input.child, read);
            let mut eff = crows;
            for &i in &input.own {
                eff *= self.pred_selectivity(&shape.exprs[i]);
            }
            order.push((input.q, input.child, crows, scan, read, eff));
        }
        if order.is_empty() {
            return Ok((1.0, 0.0));
        }
        order.sort_by(|a, b| a.5.total_cmp(&b.5).then(a.0.cmp(&b.0)));

        let mut consumed = vec![false; shape.preds.len()];
        let mut placed: Vec<QuantId> = Vec::new();
        let mut rows = 1.0f64;
        let mut cost = 0.0f64;
        for (q, child, crows, scan, read, _) in order {
            let table = match &qgm.boxref(child).kind {
                BoxKind::BaseTable { table, .. } => self.stats.table(table),
                _ => None,
            };
            let indexed = |c: usize, _: &Expr| table.is_some_and(|ts| ts.has_index_on(c));
            // Predicates that become applicable once `q` is placed, and
            // the first of them that probes an index of `q`.
            let applicable = shape.applicable(q, &placed, &consumed);
            let mut sel = 1.0f64;
            for &i in &applicable {
                consumed[i] = true;
                sel *= self.pred_selectivity(&shape.exprs[i]);
            }
            let drv = rows.max(1.0);
            // The first child probes once (1 driving row — the
            // correlated-invocation case); a later one probes per driving
            // row, when the access rule says the probes pay.
            let probe = shape.probe(&applicable, q, indexed);
            let probe = probe.filter(|_| placed.is_empty() || access::index_nl_pays(drv, crows));
            match probe {
                // Index probe: one lookup plus the matching rows, per
                // driving row.
                Some(p) => cost += drv * self.probe_cost(q, &p, crows),
                // Scan (+ one filter pass over what it read when
                // predicated); joining to prior children probes their
                // hash per driving row.
                None => {
                    cost += scan + if applicable.is_empty() { 0.0 } else { read };
                    if !placed.is_empty() {
                        cost += drv;
                    }
                }
            }
            rows *= crows.max(1.0) * sel;
            placed.push(q);
        }
        Ok((rows, cost))
    }

    /// Rows of `input` (`all` in total) in the stripes its scan reads: the
    /// executor skips a paged table's stripe whose zone map refutes one of
    /// the input's sargable bounds, and this asks the same maps about the
    /// bounds against a literal. Anything else is read whole.
    fn rows_in_kept_stripes(&self, input: &Input<'_>, all: f64) -> f64 {
        let BoxKind::BaseTable { table, .. } = &self.qgm.boxref(input.child).kind else {
            return all;
        };
        let zones = match self.stats.table(table) {
            Some(ts) if !ts.zones.is_empty() => &ts.zones,
            _ => return all,
        };
        let bounds: Vec<_> = (input.bounds.iter())
            .filter_map(|&(col, op, e)| match e {
                Expr::Lit(v) => Some((col, op, v)),
                _ => None,
            })
            .collect();
        if bounds.is_empty() {
            return all;
        }
        zones
            .iter()
            .filter(|stripe| {
                bounds
                    .iter()
                    .all(|&(col, op, lit)| stripe.get(col).is_none_or(|z| z.may_match(op, lit)))
            })
            .filter_map(|stripe| stripe.first())
            .map(|z| z.rows as f64)
            .sum()
    }

    /// One index probe `p` on column `p.col` of `q` (over a table of
    /// `table_rows` rows): the lookup plus the rows one key matches.
    fn probe_cost(&self, q: QuantId, p: &access::Probe<'_>, table_rows: f64) -> f64 {
        let matched = match self.col_origin(q, p.col).map(|(_, cs)| cs) {
            Some(cs) if cs.ndv > 0 => 1.0 / cs.ndv as f64,
            Some(_) => 0.0,
            None => EQ_SELECTIVITY,
        };
        1.0 + table_rows * matched
    }

    /// Estimated distinct combinations of `exprs` among `input_rows` rows:
    /// the product of the columns' distinct counts when every expression
    /// resolves to statistics, a sub-linear guess otherwise, always capped
    /// by the input cardinality. A column has no more distinct values than
    /// the quantifier it comes from has rows left after its own predicates
    /// (the magic table of a filtered outer block holds only the surviving
    /// bindings).
    fn distinct_estimate(
        &self,
        exprs: impl Iterator<Item = impl std::borrow::Borrow<Expr>>,
        input_rows: f64,
    ) -> f64 {
        let mut product = 1.0f64;
        let mut resolved_all = true;
        for e in exprs {
            match e.borrow() {
                Expr::Col { quant, col } => match self.col_origin(*quant, *col) {
                    Some((origin, cs)) => {
                        // +1 admits a NULL group alongside the distinct values.
                        let d = cs.ndv as f64 + if cs.null_count > 0 { 1.0 } else { 0.0 };
                        product *= d.min(self.filtered_rows(origin, cs)).max(1.0);
                    }
                    None => resolved_all = false,
                },
                Expr::Lit(_) => {}
                _ => resolved_all = false,
            }
            if product > input_rows {
                return input_rows.max(1.0);
            }
        }
        if resolved_all {
            product.min(input_rows.max(1.0))
        } else {
            input_rows.max(1.0).powf(0.75)
        }
    }

    /// Selectivity of one conjunct.
    fn pred_selectivity(&self, p: &Expr) -> f64 {
        match p {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                self.cmp_selectivity(*op, left, right)
            }
            Expr::Binary { op: BinOp::Or, left, right } => {
                let a = self.pred_selectivity(left);
                let b = self.pred_selectivity(right);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::Binary { op: BinOp::And, left, right } => {
                self.pred_selectivity(left) * self.pred_selectivity(right)
            }
            Expr::Unary { op: UnOp::Not, expr } => 1.0 - self.pred_selectivity(expr),
            Expr::Unary { op: UnOp::IsNull, expr } => match self.stats_of(expr) {
                Some(cs) => cs.null_fraction(),
                None => EQ_SELECTIVITY,
            },
            Expr::Unary { op: UnOp::IsNotNull, expr } => match self.stats_of(expr) {
                Some(cs) => 1.0 - cs.null_fraction(),
                None => 1.0 - EQ_SELECTIVITY,
            },
            _ => 0.5,
        }
    }

    fn cmp_selectivity(&self, op: BinOp, left: &Expr, right: &Expr) -> f64 {
        let lstats = self.stats_of(left);
        let rstats = self.stats_of(right);
        match (left, right) {
            // column-vs-literal (either orientation): histogram / MCV.
            (Expr::Col { .. }, Expr::Lit(v)) if lstats.is_some() => {
                self.col_lit_selectivity(lstats.unwrap(), op, v)
            }
            (Expr::Lit(v), Expr::Col { .. }) if rstats.is_some() => {
                self.col_lit_selectivity(rstats.unwrap(), op.flip(), v)
            }
            // column-vs-column equality: 1 / max distinct count.
            _ => match op {
                BinOp::Eq | BinOp::NullEq => {
                    let d = [lstats, rstats]
                        .into_iter()
                        .flatten()
                        .map(|c| c.ndv as f64)
                        .fold(f64::NAN, f64::max);
                    let eq = if d.is_nan() || d < 1.0 {
                        EQ_SELECTIVITY
                    } else {
                        1.0 / d
                    };
                    if op == BinOp::NullEq {
                        // NULL <=> NULL matches too.
                        let nulls = lstats.map(|c| c.null_fraction()).unwrap_or(0.0)
                            * rstats.map(|c| c.null_fraction()).unwrap_or(0.0);
                        (eq + nulls).clamp(0.0, 1.0)
                    } else {
                        eq
                    }
                }
                BinOp::Ne => 1.0 - EQ_SELECTIVITY,
                _ => RANGE_SELECTIVITY,
            },
        }
    }

    fn col_lit_selectivity(&self, cs: &ColumnStats, op: BinOp, v: &decorr_common::Value) -> f64 {
        match op {
            BinOp::NullEq if v.is_null() => cs.null_fraction(),
            _ => cs.cmp_selectivity(op, v),
        }
    }

    /// Column statistics for a bare column expression, if resolvable.
    fn stats_of(&self, e: &Expr) -> Option<&ColumnStats> {
        let Expr::Col { quant, col } = e else {
            return None;
        };
        self.col_origin(*quant, *col).map(|(_, cs)| cs)
    }

    /// Estimated rows of base-table quantifier `q` (whose column has
    /// statistics `cs`) after the predicates of its owner Select that
    /// read no other quantifier of the box.
    fn filtered_rows(&self, q: QuantId, cs: &ColumnStats) -> f64 {
        let mut rows = cs.row_count as f64;
        if let Some(shape) = &self.shapes[self.qgm.quant(q).owner.index()] {
            for (p, e) in shape.preds.iter().zip(shape.exprs) {
                if p.refs == [q] {
                    rows *= self.pred_selectivity(e);
                }
            }
        }
        rows
    }

    /// Resolve `(quant, col)` to the base-table quantifier it comes from
    /// and that column's statistics, following pass-through projections
    /// (Select/Grouping outputs that are bare column references to the
    /// box's own quantifiers).
    fn col_origin(&self, quant: QuantId, col: usize) -> Option<(QuantId, &ColumnStats)> {
        let qgm = self.qgm;
        let mut q = quant;
        let mut c = col;
        // Bounded by plan depth; the chain is acyclic.
        for _ in 0..64 {
            let input = qgm.quant(q).input;
            let bx = qgm.boxref(input);
            match &bx.kind {
                BoxKind::BaseTable { table, .. } => {
                    return Some((q, self.stats.table(table)?.column(c)?));
                }
                BoxKind::Select | BoxKind::Grouping { .. } => {
                    match bx.outputs.get(c).map(|o| &o.expr) {
                        Some(Expr::Col { quant: iq, col: ic }) if qgm.quant(*iq).owner == input => {
                            q = *iq;
                            c = *ic;
                        }
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{row, DataType, Schema};
    use decorr_storage::Database;

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
            )
            .unwrap();
        for i in 0..1000i64 {
            t.insert(row![i, i % 10]).unwrap();
        }
        t.create_index(&["k"]).unwrap();
        t.create_index(&["v"]).unwrap();
        db
    }

    fn est(db: &Database, sql: &str) -> Estimate {
        let stats = Statistics::analyze(db).unwrap();
        let qgm = decorr_sql::parse_and_bind(sql, db).unwrap();
        Estimator::new(&stats).estimate(&qgm).unwrap().total()
    }

    #[test]
    fn base_table_rows() {
        let db = db();
        let e = est(&db, "SELECT k FROM t");
        assert!((e.rows - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn equality_via_mcv_is_exact() {
        let db = db();
        // v has 10 distinct values, 100 rows each: MCV-exact.
        let e = est(&db, "SELECT k FROM t WHERE v = 3");
        assert!((e.rows - 100.0).abs() < 1.0, "{e:?}");
        // k is unique: one row.
        let e = est(&db, "SELECT k FROM t WHERE k = 3");
        assert!((e.rows - 1.0).abs() < 0.1, "{e:?}");
        // Out of range: nothing.
        let e = est(&db, "SELECT k FROM t WHERE k = 5000");
        assert!(e.rows < 0.5, "{e:?}");
    }

    #[test]
    fn range_via_histogram_beats_magic_constant() {
        let db = db();
        // True selectivity 1%: the histogram should land near 10 rows,
        // far better than the classic 1/3 guess.
        let e = est(&db, "SELECT k FROM t WHERE k < 10");
        assert!(e.rows < 40.0, "{e:?}");
        assert!(e.rows > 1.0, "{e:?}");
    }

    #[test]
    fn join_damped_by_distinct_counts() {
        let db = db();
        let e = est(&db, "SELECT a.k FROM t a, t b WHERE a.k = b.k");
        assert!((e.rows - 1000.0).abs() < 1.0, "{e:?}");
    }

    #[test]
    fn grouping_uses_group_column_ndv() {
        let db = db();
        let grouped = est(&db, "SELECT v, COUNT(*) FROM t GROUP BY v");
        assert!((grouped.rows - 10.0).abs() < 1.0, "{grouped:?}");
        let scalar = est(&db, "SELECT COUNT(*) FROM t");
        assert!((scalar.rows - 1.0).abs() < 1e-6);
    }

    #[test]
    fn correlated_subquery_costs_per_distinct_binding() {
        let db = db();
        // a.v has 10 distinct values: the memoized executor runs the
        // subquery ~10 times (indexed probes, at that), not once per
        // candidate row, and the estimate prices exactly that — correlation
        // costs more than a single uncorrelated evaluation, but nowhere
        // near the old per-candidate-row explosion (~500 × the subquery
        // cost).
        let corr = est(
            &db,
            "SELECT a.k FROM t a WHERE a.v > \
             (SELECT COUNT(*) FROM t b WHERE b.v = a.v)",
        );
        let uncorr = est(
            &db,
            "SELECT a.k FROM t a WHERE a.v > (SELECT COUNT(*) FROM t b)",
        );
        assert!(
            corr.cost > uncorr.cost,
            "correlated {corr:?} vs uncorrelated {uncorr:?}"
        );
        assert!(
            corr.cost < 10.0 * uncorr.cost,
            "correlated {corr:?} vs uncorrelated {uncorr:?}"
        );
    }

    #[test]
    fn per_box_estimates_cover_the_plan() {
        let db = db();
        let stats = Statistics::analyze(&db).unwrap();
        let qgm = decorr_sql::parse_and_bind(
            "SELECT a.k FROM t a WHERE a.v > (SELECT COUNT(*) FROM t b WHERE b.v = a.v)",
            &db,
        )
        .unwrap();
        let plan = Estimator::new(&stats).estimate(&qgm).unwrap();
        assert_eq!(plan.boxes().len(), qgm.reachable_boxes(qgm.top()).len());
        // The correlated aggregate is priced at one execution per distinct
        // binding of a.v (NDV 10) — more than once, far fewer than the
        // ~1000 candidate rows.
        let max_inv = plan
            .boxes()
            .iter()
            .map(|(_, e)| e.invocations)
            .fold(0.0, f64::max);
        assert!(max_inv > 5.0, "{max_inv}");
        assert!(max_inv < 100.0, "{max_inv}");
    }
}
