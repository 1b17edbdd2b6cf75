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

/// The statistics-backed cardinality estimator.
pub struct Estimator<'a> {
    stats: &'a Statistics,
}

/// Bottom-up per-evaluation numbers plus the per-quantifier invocation
/// multipliers needed by the top-down pass, over one traversal of the plan
/// (vectors by [`BoxId::index`] / [`QuantId::index`]).
struct BottomUp<'q> {
    tr: Traversal<'q>,
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
        let mut bu = BottomUp {
            tr: Traversal::new(qgm),
            done: vec![None; boxes],
            multiplier: vec![1.0; quants],
        };
        self.est_box(qgm, top, &mut bu)?;

        // Top-down: count evaluations. Kahn order so every parent is
        // settled before its children (the graph is a DAG). Correlated
        // shared boxes accumulate invocations from every parent edge; an
        // *uncorrelated* derived box shared by several parents (SUPP,
        // OptMag-CSE dedup, run-lifetime subquery memo) is materialized
        // once and served to the others, so summing its parent edges would
        // double-count — it takes the heaviest single edge instead.
        let reachable = bu.tr.order();
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
                && !bu.tr.is_correlated(b);
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

    /// Estimate box `b` (memoized): returns its rows per evaluation and
    /// records its self cost.
    fn est_box(&self, qgm: &Qgm, b: BoxId, bu: &mut BottomUp<'_>) -> Result<f64> {
        if let Some((rows, _)) = bu.done[b.index()] {
            return Ok(rows);
        }
        let (rows, cost) = match &qgm.boxref(b).kind {
            BoxKind::BaseTable { table, .. } => {
                let rows = self
                    .stats
                    .table(table)
                    .map(|t| t.rows as f64)
                    .unwrap_or(DEFAULT_TABLE_ROWS);
                // The consumer prices the access: a scan or an index probe.
                (rows, 0.0)
            }
            BoxKind::Select => self.est_select(qgm, b, bu)?,
            BoxKind::Grouping { group_by } => {
                let child = qgm.quant(qgm.boxref(b).quants[0]).input;
                let crows = self.est_box(qgm, child, bu)?;
                let groups = if group_by.is_empty() {
                    1.0
                } else {
                    self.distinct_estimate(qgm, group_by.iter(), crows)
                };
                (groups.max(1.0), scan_cost(qgm, child, crows) + crows)
            }
            BoxKind::Union { all } => {
                let mut rows = 0.0;
                let mut cost = 0.0;
                for &q in &qgm.boxref(b).quants {
                    let child = qgm.quant(q).input;
                    let crows = self.est_box(qgm, child, bu)?;
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
                let lrows = self.est_box(qgm, l, bu)?;
                let rrows = self.est_box(qgm, r, bu)?;
                let mut sel = 1.0;
                for p in &bx.preds {
                    sel *= self.pred_selectivity(qgm, p);
                }
                // LOJ preserves the left side at minimum.
                let joined = (lrows * rrows * sel).max(lrows);
                // The executor's choice: each left row probes an index of
                // the right input's table (which is then never evaluated)
                // when the access rule says so, else both sides hash.
                let access = match self.outer_probe(qgm, r, qr, &bx.preds, lrows) {
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

    fn est_select(&self, qgm: &Qgm, b: BoxId, bu: &mut BottomUp<'_>) -> Result<(f64, f64)> {
        let bx = qgm.boxref(b);
        let local = &bx.quants;
        let foreach: Vec<QuantId> = bx
            .quants
            .iter()
            .copied()
            .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
            .collect();

        // Split the uncorrelated Foreach children from laterals, and
        // defer predicates that involve a subquery or lateral quantifier.
        let mut laterals = Vec::new();
        let mut join_children = Vec::new();
        for &q in &foreach {
            let child = qgm.quant(q).input;
            if bu.tr.is_correlated(child) {
                laterals.push(q); // correlated (lateral): per candidate row below
            } else {
                join_children.push(q);
            }
        }
        let deferred: Vec<bool> = bx
            .preds
            .iter()
            .map(|p| {
                let mut defer = false;
                p.for_each_col(&mut |r, _| {
                    defer |= (local.contains(&r) && qgm.quant(r).kind != QuantKind::Foreach)
                        || laterals.contains(&r)
                });
                defer
            })
            .collect();

        let (mut rows, mut cost, consumed) =
            self.est_join(qgm, b, local, &join_children, &deferred, bu)?;

        // Predicates never consumed by a join placement (e.g. purely over
        // correlation bindings) are residual filters.
        for (i, p) in bx.preds.iter().enumerate() {
            if !deferred[i] && !consumed[i] {
                rows *= self.pred_selectivity(qgm, p);
            }
        }
        rows = rows.max(0.0);
        // The joined result is materialized; a lone input is simply
        // adopted, its scan and filter pass already paid.
        if join_children.len() > 1 {
            cost += rows;
        }

        // Correlated quantifiers: under memoized nested iteration a
        // subtree *executes* once per distinct correlation binding, not
        // once per candidate row — `min(candidates, NDV(correlation key))`
        // — which is the term that makes NI competitive on
        // high-duplication workloads. Uncorrelated non-Foreach subqueries
        // are evaluated once. The subtree's own boxes carry its cost; the
        // multiplier says how often they run.
        for &q in &bx.quants {
            let kind = qgm.quant(q).kind;
            let child_box = qgm.quant(q).input;
            let correlated = bu.tr.is_correlated(child_box);
            if kind == QuantKind::Foreach && !correlated {
                continue; // joined above
            }
            let crows = self.est_box(qgm, child_box, bu)?;
            let execs = if correlated {
                self.corr_invocations(qgm, bu.tr.free_refs(child_box), rows.max(1.0))
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
                .distinct_estimate(qgm, bx.outputs.iter().map(|o| &o.expr), before)
                .max(1.0)
                .min(before.max(1.0));
        }
        Ok((rows, cost))
    }

    /// Estimate the join of a Select box's uncorrelated Foreach children
    /// the way the executor runs it: children placed in greedy
    /// (effective-cardinality) order, each new child either *probed*
    /// through an index — when an equality binds one of its indexed
    /// columns to a literal, a correlation binding or an already-placed
    /// quantifier (the access rule's `eq_probe`), and past the first child
    /// the rule's gate says the probes pay — or scanned and hash-joined.
    /// Returns the joined rows, the access cost (base-table reads, filter
    /// passes and probes; derived children are boxes with a cost of their
    /// own), and which predicate indices were consumed.
    fn est_join(
        &self,
        qgm: &Qgm,
        b: BoxId,
        local: &[QuantId],
        children: &[QuantId],
        deferred: &[bool],
        bu: &mut BottomUp<'_>,
    ) -> Result<(f64, f64, Vec<bool>)> {
        let bx = qgm.boxref(b);
        let mut consumed = vec![false; bx.preds.len()];
        if children.is_empty() {
            return Ok((1.0, 0.0, consumed));
        }

        // Order children by their effective cardinality after the
        // placement-independent predicates (single-quantifier literals
        // and correlation bindings), mirroring the executor's greedy
        // cardinality order.
        let mut order = Vec::new();
        for &q in children {
            let child = qgm.quant(q).input;
            let crows = self.est_box(qgm, child, bu)?;
            // What a scan of the child reads and filters: a base table's
            // rows — for a paged one, those of the stripes its zone maps
            // keep under the scan's own predicates — nothing of a derived
            // box.
            let own = bx.preds.iter().enumerate().filter_map(|(i, p)| {
                (!deferred[i] && self.pred_ready(p, q, local, &[])).then_some(p)
            });
            let read = self.rows_in_kept_stripes(qgm, q, own.clone(), crows);
            let scan = scan_cost(qgm, child, read);
            let mut eff = crows;
            for p in own {
                eff *= self.pred_selectivity(qgm, p);
            }
            order.push((q, crows, scan, read, eff));
        }
        order.sort_by(|a, b| a.4.total_cmp(&b.4).then(a.0.cmp(&b.0)));

        let mut placed: Vec<QuantId> = Vec::new();
        let mut rows = 1.0f64;
        let mut cost = 0.0f64;
        for (q, crows, scan, read, _) in order {
            let table = match &qgm.boxref(qgm.quant(q).input).kind {
                BoxKind::BaseTable { table, .. } => self.stats.table(table),
                _ => None,
            };
            let indexed = |c: usize, _: &Expr| table.is_some_and(|ts| ts.has_index_on(c));
            // Predicates that become applicable once `q` is placed, and
            // the first of them that probes an index of `q`.
            let mut sel = 1.0f64;
            let mut npreds = 0usize;
            let mut probe = None;
            for (i, p) in bx.preds.iter().enumerate() {
                if deferred[i] || consumed[i] || !self.pred_ready(p, q, local, &placed) {
                    continue;
                }
                consumed[i] = true;
                npreds += 1;
                sel *= self.pred_selectivity(qgm, p);
                probe = probe.or_else(|| access::eq_probe([(i, p)], q, indexed));
            }
            let drv = rows.max(1.0);
            // The first child probes once (1 driving row — the
            // correlated-invocation case); a later one probes per driving
            // row, when the access rule says the probes pay.
            let probe = probe.filter(|_| placed.is_empty() || access::index_nl_pays(drv, crows));
            match probe {
                // Index probe: one lookup plus the matching rows, per
                // driving row.
                Some(p) => cost += drv * self.probe_cost(qgm, q, &p, crows),
                // Scan (+ one filter pass over what it read when
                // predicated); joining to prior children probes their
                // hash per driving row.
                None => {
                    cost += scan + if npreds > 0 { read } else { 0.0 };
                    if !placed.is_empty() {
                        cost += drv;
                    }
                }
            }
            rows *= crows.max(1.0) * sel;
            placed.push(q);
        }
        Ok((rows, cost, consumed))
    }

    /// What an outer join with right input `r` (quantifier `qr`) pays per
    /// left row when it probes an index of `r`'s table — `r` is that
    /// table as it stands, an `=` ON predicate probes one of its indexed
    /// columns and the access rule says `lrows` probes pay — else `None`.
    fn outer_probe(
        &self,
        qgm: &Qgm,
        r: BoxId,
        qr: QuantId,
        on: &[Expr],
        lrows: f64,
    ) -> Option<f64> {
        let input = access::table_input(qgm, r)?;
        let ts = self.stats.table(input.table)?;
        let indexed = |c: usize, _: &Expr| ts.has_index_on(input.cols[c]);
        let p = access::eq_probe(on.iter().enumerate(), qr, indexed)?;
        let rows = ts.rows as f64;
        access::index_nl_pays(lrows, rows).then(|| self.probe_cost(qgm, qr, &p, rows))
    }

    /// Rows of quantifier `q`'s input (`all` in total) in the stripes a
    /// scan under the predicates `own` reads. The executor skips a stripe
    /// of a paged table when a zone map refutes one of the scan's `col op
    /// literal` predicates; this asks the same maps the same question.
    /// A derived input, a resident table, or a scan without such a
    /// predicate is read whole.
    fn rows_in_kept_stripes<'e>(
        &self,
        qgm: &Qgm,
        q: QuantId,
        own: impl Iterator<Item = &'e Expr>,
        all: f64,
    ) -> f64 {
        let BoxKind::BaseTable { table, .. } = &qgm.boxref(qgm.quant(q).input).kind else {
            return all;
        };
        let zones = match self.stats.table(table) {
            Some(ts) if !ts.zones.is_empty() => &ts.zones,
            _ => return all,
        };
        let bounds: Vec<_> = own
            .filter_map(|p| {
                let Expr::Binary { op, left, right } = p else {
                    return None;
                };
                let op = op.cmp_op()?;
                match (&**left, &**right) {
                    (Expr::Col { quant, col }, Expr::Lit(v)) if *quant == q => Some((*col, op, v)),
                    (Expr::Lit(v), Expr::Col { quant, col }) if *quant == q => {
                        Some((*col, op.flip(), v))
                    }
                    _ => None,
                }
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

    /// Expected *executions* of a correlated subtree under memoized nested
    /// iteration: the distinct count of its correlation key (its free
    /// references `key`), capped by the candidate-row count. `candidates`
    /// itself is the naive per-candidate-row invocation count; the memo
    /// collapses repeated bindings, so only distinct ones execute (the
    /// paper's "3954 invocations of which only 2138 are distinct", priced
    /// at plan time).
    fn corr_invocations(
        &self,
        qgm: &Qgm,
        key: impl Iterator<Item = (QuantId, usize)>,
        candidates: f64,
    ) -> f64 {
        let key = key.map(|(q, c)| Expr::col(q, c));
        self.distinct_estimate(qgm, key, candidates.max(1.0))
            .max(1.0)
    }

    /// Whether predicate `p` can be evaluated as soon as `q` is placed:
    /// it references `q`, and every other referenced quantifier is
    /// either already placed or free (a correlation binding, fixed for
    /// the duration of the evaluation).
    fn pred_ready(&self, p: &Expr, q: QuantId, local: &[QuantId], placed: &[QuantId]) -> bool {
        let (mut has_q, mut ready) = (false, true);
        p.for_each_col(&mut |r, _| {
            has_q |= r == q;
            ready &= r == q || placed.contains(&r) || !local.contains(&r);
        });
        has_q && ready
    }

    /// One index probe `p` on column `p.col` of `q` (over a table of
    /// `table_rows` rows): the lookup plus the rows one key matches.
    fn probe_cost(&self, qgm: &Qgm, q: QuantId, p: &access::Probe<'_>, table_rows: f64) -> f64 {
        let matched = match self.col_stats(qgm, q, p.col) {
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
        qgm: &Qgm,
        exprs: impl Iterator<Item = impl std::borrow::Borrow<Expr>>,
        input_rows: f64,
    ) -> f64 {
        let mut product = 1.0f64;
        let mut resolved_all = true;
        for e in exprs {
            match e.borrow() {
                Expr::Col { quant, col } => match self.col_origin(qgm, *quant, *col) {
                    Some((origin, cs)) => {
                        // +1 admits a NULL group alongside the distinct values.
                        let d = cs.ndv as f64 + if cs.null_count > 0 { 1.0 } else { 0.0 };
                        product *= d.min(self.filtered_rows(qgm, origin, cs)).max(1.0);
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
    fn pred_selectivity(&self, qgm: &Qgm, p: &Expr) -> f64 {
        match p {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                self.cmp_selectivity(qgm, *op, left, right)
            }
            Expr::Binary { op: BinOp::Or, left, right } => {
                let a = self.pred_selectivity(qgm, left);
                let b = self.pred_selectivity(qgm, right);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::Binary { op: BinOp::And, left, right } => {
                self.pred_selectivity(qgm, left) * self.pred_selectivity(qgm, right)
            }
            Expr::Unary { op: UnOp::Not, expr } => 1.0 - self.pred_selectivity(qgm, expr),
            Expr::Unary { op: UnOp::IsNull, expr } => match self.stats_of(qgm, expr) {
                Some(cs) => cs.null_fraction(),
                None => EQ_SELECTIVITY,
            },
            Expr::Unary { op: UnOp::IsNotNull, expr } => match self.stats_of(qgm, expr) {
                Some(cs) => 1.0 - cs.null_fraction(),
                None => 1.0 - EQ_SELECTIVITY,
            },
            _ => 0.5,
        }
    }

    fn cmp_selectivity(&self, qgm: &Qgm, op: BinOp, left: &Expr, right: &Expr) -> f64 {
        let lstats = self.stats_of(qgm, left);
        let rstats = self.stats_of(qgm, right);
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
    fn stats_of(&self, qgm: &Qgm, e: &Expr) -> Option<&ColumnStats> {
        let Expr::Col { quant, col } = e else {
            return None;
        };
        self.col_stats(qgm, *quant, *col)
    }

    /// Estimated rows of base-table quantifier `q` (whose column has
    /// statistics `cs`) after the predicates of its owner Select that
    /// involve no other local quantifier.
    fn filtered_rows(&self, qgm: &Qgm, q: QuantId, cs: &ColumnStats) -> f64 {
        let bx = qgm.boxref(qgm.quant(q).owner);
        let mut rows = cs.row_count as f64;
        if matches!(bx.kind, BoxKind::Select) {
            for p in &bx.preds {
                if self.pred_ready(p, q, &bx.quants, &[]) {
                    rows *= self.pred_selectivity(qgm, p);
                }
            }
        }
        rows
    }

    /// Column statistics for `(quant, col)`, if it resolves to a base table.
    fn col_stats(&self, qgm: &Qgm, quant: QuantId, col: usize) -> Option<&ColumnStats> {
        self.col_origin(qgm, quant, col).map(|(_, cs)| cs)
    }

    /// Resolve `(quant, col)` to the base-table quantifier it comes from
    /// and that column's statistics, following pass-through projections
    /// (Select/Grouping outputs that are bare column references to the
    /// box's own quantifiers).
    fn col_origin(&self, qgm: &Qgm, quant: QuantId, col: usize) -> Option<(QuantId, &ColumnStats)> {
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
