//! Per-box execution tracing.
//!
//! When tracing is enabled (see [`crate::execute_traced`] or
//! [`crate::exec::Executor::enable_tracing`]) the executor records, for
//! every QGM box it evaluates, how many times the box ran, the rows it
//! produced, the predicate evaluations charged to it, the wall time spent
//! inside it (inclusive of children), and — for Select boxes — which join
//! strategy each quantifier binding step used (hash, index nested-loop,
//! lateral re-evaluation, or cross product).
//!
//! The trace is *aggregated per box*, not per invocation: a correlated
//! subquery evaluated 4000 times under nested iteration contributes one
//! [`BoxTrace`] with `invocations == 4000`, keeping traces bounded by plan
//! size. The counters are consistent with [`decorr_common::ExecStats`]:
//! summing `predicate_evals` over all boxes yields exactly the run's
//! `ExecStats::predicate_evals` (asserted in this crate's tests).

use std::time::Duration;

use decorr_common::{FxHashMap, FxHashSet, JsonWriter};
use decorr_qgm::{BoxId, Qgm, QuantId};

/// The join strategy the executor chose for one quantifier binding step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Build a hash table on the incoming quantifier, probe with the bound
    /// rows (equi-join keys found).
    Hash,
    /// Drive the bound rows through a base-table index (index nested-loops).
    IndexNestedLoop,
    /// Re-evaluate a correlated (lateral) child once per bound row.
    Lateral,
    /// No usable key: cross product with residual filtering.
    Cross,
    /// An outer join whose ON clause has no equi-key: every right row is
    /// offered to every left row.
    NestedLoop,
    /// Build side over the memory budget with a spill manager available:
    /// Grace hash join — both sides hash-partition to disk and each
    /// partition hash-joins under the budget (recorded in
    /// [`BoxTrace::spills`]).
    GraceHash,
}

impl JoinStrategy {
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::Hash => "hash",
            JoinStrategy::IndexNestedLoop => "index-nested-loop",
            JoinStrategy::Lateral => "lateral",
            JoinStrategy::Cross => "cross",
            JoinStrategy::NestedLoop => "nested-loop",
            JoinStrategy::GraceHash => "grace-hash",
        }
    }
}

/// One aggregated join step inside a Select box: the binding of quantifier
/// `quant`, summed over every invocation of the box.
#[derive(Debug, Clone)]
pub struct JoinChoice {
    pub quant: QuantId,
    pub strategy: JoinStrategy,
    /// How many times this step executed (> 1 under nested iteration).
    pub steps: u64,
    /// Rows on the already-bound side, summed over steps.
    pub left_rows: u64,
    /// Rows on the incoming side (for lateral joins: child evaluations).
    pub right_rows: u64,
    /// Rows the step produced, summed over steps.
    pub out_rows: u64,
}

/// Aggregated observations for one box.
#[derive(Debug, Clone, Default)]
pub struct BoxTrace {
    /// Times the box was evaluated (1 for set-oriented plans; once per
    /// candidate row for boxes under nested iteration).
    pub invocations: u64,
    /// Rows the box returned, summed over invocations.
    pub rows_out: u64,
    /// Predicate evaluations charged to this box.
    pub predicate_evals: u64,
    /// Wall time inside the box, inclusive of children.
    pub wall: Duration,
    /// Join strategy decisions (Select boxes only).
    pub joins: Vec<JoinChoice>,
    /// Over-budget operators that ran in memory — no spill device, or a
    /// full one — as `(reason, count)`; aggregated like everything else,
    /// so such a join under nested iteration stays one entry however
    /// often it re-runs.
    pub degradations: Vec<(String, u64)>,
    /// Over-budget operators that spilled their working state to disk, as
    /// `(reason, count)`. Spilled or not, an operator runs the same hash
    /// algorithm and produces identical rows.
    pub spills: Vec<(String, u64)>,
    /// Times this box was served whole from the cross-query
    /// shared-subplan cache instead of being evaluated.
    pub shared_hits: u64,
    /// Times this box's result was served from the per-run correlation-key
    /// memo instead of being re-evaluated. Memo hits still count in
    /// [`BoxTrace::invocations`] (a hit is a *logical* invocation), so the
    /// `max(invocations) == ExecStats::subquery_invocations` invariant
    /// keeps holding with the memo on.
    pub memo_hits: u64,
}

/// The per-box operator trace of one execution.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    per_box: FxHashMap<BoxId, BoxTrace>,
}

impl ExecTrace {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn entry(&mut self, b: BoxId) -> &mut BoxTrace {
        self.per_box.entry(b).or_default()
    }

    pub(crate) fn note_join(
        &mut self,
        b: BoxId,
        quant: QuantId,
        strategy: JoinStrategy,
        left_rows: u64,
        right_rows: u64,
        out_rows: u64,
    ) {
        let e = self.entry(b);
        match e
            .joins
            .iter_mut()
            .find(|j| j.quant == quant && j.strategy == strategy)
        {
            Some(j) => {
                j.steps += 1;
                j.left_rows += left_rows;
                j.right_rows += right_rows;
                j.out_rows += out_rows;
            }
            None => e.joins.push(JoinChoice {
                quant,
                strategy,
                steps: 1,
                left_rows,
                right_rows,
                out_rows,
            }),
        }
    }

    pub(crate) fn note_degradation(&mut self, b: BoxId, reason: &str) {
        let e = self.entry(b);
        match e.degradations.iter_mut().find(|(r, _)| r == reason) {
            Some((_, n)) => *n += 1,
            None => e.degradations.push((reason.to_string(), 1)),
        }
    }

    pub(crate) fn note_spill(&mut self, b: BoxId, reason: &str) {
        let e = self.entry(b);
        match e.spills.iter_mut().find(|(r, _)| r == reason) {
            Some((_, n)) => *n += 1,
            None => e.spills.push((reason.to_string(), 1)),
        }
    }

    pub(crate) fn note_shared_hit(&mut self, b: BoxId) {
        self.entry(b).shared_hits += 1;
    }

    /// Record a correlation-key memo hit: the box was logically invoked
    /// (counted in `invocations`) but served from the memo.
    pub(crate) fn note_memo_hit(&mut self, b: BoxId) {
        let e = self.entry(b);
        e.invocations += 1;
        e.memo_hits += 1;
    }

    /// Total degradations recorded across all boxes.
    pub fn total_degradations(&self) -> u64 {
        self.per_box
            .values()
            .flat_map(|t| t.degradations.iter())
            .map(|(_, n)| n)
            .sum()
    }

    /// The trace entry for a box, if it was evaluated.
    pub fn get(&self, b: BoxId) -> Option<&BoxTrace> {
        self.per_box.get(&b)
    }

    /// Number of boxes that were actually evaluated.
    pub fn traced_boxes(&self) -> usize {
        self.per_box.len()
    }

    /// Sum of per-box predicate evaluations — must equal the run's
    /// `ExecStats::predicate_evals`.
    pub fn total_predicate_evals(&self) -> u64 {
        self.per_box.values().map(|t| t.predicate_evals).sum()
    }

    /// Rows flowing *into* a box: the rows its children delivered, summed.
    fn rows_in(&self, qgm: &Qgm, b: BoxId) -> u64 {
        qgm.boxref(b)
            .quants
            .iter()
            .filter_map(|&q| self.per_box.get(&qgm.quant(q).input))
            .map(|t| t.rows_out)
            .sum()
    }

    /// Render the trace as an indented operator tree mirroring
    /// [`decorr_qgm::print::explain`].
    pub fn render(&self, qgm: &Qgm) -> String {
        let mut s = String::new();
        let mut seen = FxHashSet::default();
        self.render_box(qgm, qgm.top(), 0, &mut seen, &mut s);
        s
    }

    fn render_box(
        &self,
        qgm: &Qgm,
        b: BoxId,
        depth: usize,
        seen: &mut FxHashSet<BoxId>,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        let bx = qgm.boxref(b);
        if !seen.insert(b) {
            writeln!(out, "{pad}{b} [{}] (shared, traced above)", bx.kind.name()).unwrap();
            return;
        }
        match self.per_box.get(&b) {
            None => {
                writeln!(
                    out,
                    "{pad}{b} [{}] \"{}\" (not evaluated)",
                    bx.kind.name(),
                    bx.label
                )
                .unwrap();
            }
            Some(t) => {
                writeln!(
                    out,
                    "{pad}{b} [{}] \"{}\" invocations={} rows_in={} rows_out={} \
                     predicate_evals={} wall={:.3}ms",
                    bx.kind.name(),
                    bx.label,
                    t.invocations,
                    self.rows_in(qgm, b),
                    t.rows_out,
                    t.predicate_evals,
                    t.wall.as_secs_f64() * 1e3,
                )
                .unwrap();
                for j in &t.joins {
                    writeln!(
                        out,
                        "{pad}  join {} via {} steps={} left={} right={} out={}",
                        j.quant,
                        j.strategy.name(),
                        j.steps,
                        j.left_rows,
                        j.right_rows,
                        j.out_rows,
                    )
                    .unwrap();
                }
                for (reason, n) in &t.degradations {
                    writeln!(out, "{pad}  degraded x{n}: {reason}").unwrap();
                }
                for (reason, n) in &t.spills {
                    writeln!(out, "{pad}  spilled x{n}: {reason}").unwrap();
                }
                if t.shared_hits > 0 {
                    writeln!(out, "{pad}  shared subplan hit x{}", t.shared_hits).unwrap();
                }
                if t.memo_hits > 0 {
                    writeln!(out, "{pad}  correlation memo hit x{}", t.memo_hits).unwrap();
                }
            }
        }
        for &q in &bx.quants {
            self.render_box(qgm, qgm.quant(q).input, depth + 1, seen, out);
        }
    }

    /// The trace as a JSON operator tree (shared boxes are emitted once;
    /// later references carry `"shared": true` and no children).
    pub fn to_json(&self, qgm: &Qgm) -> String {
        let mut w = JsonWriter::new();
        let mut seen = FxHashSet::default();
        self.json_box(qgm, qgm.top(), &mut seen, &mut w);
        w.finish()
    }

    fn json_box(&self, qgm: &Qgm, b: BoxId, seen: &mut FxHashSet<BoxId>, w: &mut JsonWriter) {
        let bx = qgm.boxref(b);
        w.begin_object()
            .field_str("box", &b.to_string())
            .field_str("kind", bx.kind.name())
            .field_str("label", &bx.label);
        if !seen.insert(b) {
            w.key("shared").bool(true);
            w.end_object();
            return;
        }
        match self.per_box.get(&b) {
            None => {
                w.key("evaluated").bool(false);
            }
            Some(t) => {
                w.key("evaluated").bool(true);
                w.field_uint("invocations", t.invocations)
                    .field_uint("rows_in", self.rows_in(qgm, b))
                    .field_uint("rows_out", t.rows_out)
                    .field_uint("predicate_evals", t.predicate_evals)
                    .field_float("wall_ms", t.wall.as_secs_f64() * 1e3);
                w.key("joins").begin_array();
                for j in &t.joins {
                    w.begin_object()
                        .field_str("quant", &j.quant.to_string())
                        .field_str("strategy", j.strategy.name())
                        .field_uint("steps", j.steps)
                        .field_uint("left_rows", j.left_rows)
                        .field_uint("right_rows", j.right_rows)
                        .field_uint("out_rows", j.out_rows)
                        .end_object();
                }
                w.end_array();
                w.key("degradations").begin_array();
                for (reason, n) in &t.degradations {
                    w.begin_object()
                        .field_str("reason", reason)
                        .field_uint("count", *n)
                        .end_object();
                }
                w.end_array();
                w.key("spills").begin_array();
                for (reason, n) in &t.spills {
                    w.begin_object()
                        .field_str("reason", reason)
                        .field_uint("count", *n)
                        .end_object();
                }
                w.end_array();
                w.field_uint("shared_subplan_hits", t.shared_hits);
                w.field_uint("memo_hits", t.memo_hits);
            }
        }
        w.key("children").begin_array();
        for &q in &bx.quants {
            self.json_box(qgm, qgm.quant(q).input, seen, w);
        }
        w.end_array();
        w.end_object();
    }
}
