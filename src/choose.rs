//! Cost-based strategy race over the paper's evaluation strategies.
//!
//! The paper's Section 7: "Our implementation simply optimizes the query
//! once without decorrelation, and using the chosen join orders repeats
//! the optimization with decorrelation. The better of the two optimized
//! plans is chosen." [`choose_strategy`] generalizes that two-way
//! comparison into a race over every sound strategy of Section 5 —
//! nested iteration, Dayal, Ganski/Wong and magic decorrelation — each
//! rewritten (where applicable) and priced by the statistics-backed
//! [`decorr_exec::CostModel`]. The result is a ranked [`PlanChoice`]:
//! only the winning plan is materialized; the losers keep just their
//! [`Estimate`] breakdown.
//!
//! Kim's method is ranked but **not raced**: it carries the COUNT bug
//! (Section 2) and may return wrong answers, no cost advantage buys back
//! correctness, so it is neither rewritten nor priced. `\strategy kim`
//! still pins it.

use decorr_common::Result;
use decorr_core::{apply_strategy, Strategy};
use decorr_exec::{CostModel, Estimate, ExecTrace, PlanEstimate};
use decorr_qgm::{BoxKind, Qgm, Traversal};
use decorr_stats::AccuracyReport;
use decorr_storage::Database;

/// One lane of the race: a strategy and how it fared.
#[derive(Debug, Clone)]
pub struct StrategyEstimate {
    pub strategy: Strategy,
    /// The plan estimate, or `None` when the strategy was not priced: the
    /// rewrite does not apply to this query (e.g. Dayal on a non-linear
    /// UNION query) or is unsound.
    pub estimate: Option<Estimate>,
    /// Excluded from winning, so not raced (Kim: the COUNT bug makes it
    /// unsound).
    pub unsound: bool,
    /// Why the strategy is unsound or inapplicable.
    pub note: Option<String>,
}

impl StrategyEstimate {
    pub fn applicable(&self) -> bool {
        self.estimate.is_some()
    }
}

/// The outcome of the cost-based strategy race.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The winning strategy.
    pub strategy: Strategy,
    /// The winning plan — the only plan the race materializes.
    pub plan: Qgm,
    /// The winner's total estimate.
    pub estimate: Estimate,
    /// The winner's per-box estimates, for q-error auditing against an
    /// execution trace.
    pub plan_estimate: PlanEstimate,
    /// Every strategy of the race, cheapest first (unpriced ones last).
    pub ranked: Vec<StrategyEstimate>,
}

impl PlanChoice {
    /// The ranked entry for one strategy.
    pub fn entry(&self, s: Strategy) -> Option<&StrategyEstimate> {
        self.ranked.iter().find(|e| e.strategy == s)
    }

    /// A fixed-width table of the race, cheapest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<8} {:>14} {:>14}  {}\n",
            "strategy", "est rows", "est cost", "verdict"
        ));
        for e in &self.ranked {
            let verdict = if e.strategy == self.strategy {
                "chosen".to_string()
            } else if let Some(note) = &e.note {
                note.clone()
            } else {
                String::new()
            };
            match e.estimate {
                Some(est) => out.push_str(&format!(
                    "  {:<8} {:>14.1} {:>14.1}  {}\n",
                    e.strategy.name(),
                    est.rows,
                    est.cost,
                    verdict
                )),
                None => out.push_str(&format!(
                    "  {:<8} {:>14} {:>14}  {}\n",
                    e.strategy.name(),
                    "-",
                    "-",
                    verdict
                )),
            }
        }
        out
    }
}

/// The lanes ranked beside nested iteration, in the paper's figure order
/// (Kim is listed, not raced). OptMag is a refinement of Magic rather than
/// an independent algorithm; it joins the race in a future PR once the
/// CSE-elimination estimate is distinguishable.
const LANES: [Strategy; 4] = [
    Strategy::Kim,
    Strategy::Dayal,
    Strategy::GanskiWong,
    Strategy::Magic,
];

/// Race every strategy and return the cheapest sound plan.
///
/// Takes ownership of `qgm`: when nested iteration wins, the input graph
/// *is* the plan, so no copy is ever made of it; rewritten challengers
/// are materialized one at a time and dropped as soon as a cheaper one
/// appears. Ties go to nested iteration (fewer temporary tables).
pub fn choose_strategy(db: &Database, qgm: Qgm) -> Result<PlanChoice> {
    let model = CostModel::new(db)?;
    choose_strategy_with(&model, qgm)
}

/// [`choose_strategy`] against a pre-built cost model (e.g. cached
/// `ANALYZE` statistics).
pub fn choose_strategy_with(model: &CostModel, qgm: Qgm) -> Result<PlanChoice> {
    // Nested iteration: the input graph as-is.
    let ni_plan_estimate = model.estimate_plan(&qgm)?;
    let ni_estimate = ni_plan_estimate.total();
    let mut ranked = vec![StrategyEstimate {
        strategy: Strategy::NestedIteration,
        estimate: Some(ni_estimate),
        unsound: false,
        note: None,
    }];

    let correlated = {
        let tr = Traversal::new(&qgm);
        tr.order().iter().any(|&b| tr.is_correlated(b))
    };

    // Challengers: rewrite, price, and keep at most one plan alive —
    // the cheapest sound one seen so far (beating the NI champion).
    let mut champion_cost = ni_estimate.cost;
    let mut best: Option<(Strategy, Qgm, PlanEstimate)> = None;
    for s in LANES {
        if !correlated {
            // Nothing to decorrelate: rewrites are identity (or error);
            // the paper's choice machinery only engages on correlation.
            ranked.push(StrategyEstimate {
                strategy: s,
                estimate: None,
                unsound: s == Strategy::Kim,
                note: Some("query is not correlated".into()),
            });
            continue;
        }
        if s == Strategy::Kim {
            // A lane that can never win is not worth a rewrite and an
            // estimate.
            ranked.push(StrategyEstimate {
                strategy: s,
                estimate: None,
                unsound: true,
                note: Some("unsound (COUNT bug): not raced".into()),
            });
            continue;
        }
        match apply_strategy(&qgm, s) {
            Ok(plan) => {
                let plan_estimate = model.estimate_plan(&plan)?;
                let estimate = plan_estimate.total();
                ranked.push(StrategyEstimate {
                    strategy: s,
                    estimate: Some(estimate),
                    unsound: false,
                    note: None,
                });
                if estimate.cost < champion_cost {
                    champion_cost = estimate.cost;
                    best = Some((s, plan, plan_estimate)); // previous best dropped here
                }
            }
            Err(e) => ranked.push(StrategyEstimate {
                strategy: s,
                estimate: None,
                unsound: false,
                note: Some(format!("inapplicable: {e}")),
            }),
        }
    }

    // Cheapest first; unpriced lanes sort last, in race order.
    ranked.sort_by(|a, b| match (a.estimate, b.estimate) {
        (Some(x), Some(y)) => x.cost.total_cmp(&y.cost),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });

    Ok(match best {
        Some((strategy, plan, plan_estimate)) => {
            PlanChoice { strategy, plan, estimate: plan_estimate.total(), plan_estimate, ranked }
        }
        None => PlanChoice {
            strategy: Strategy::NestedIteration,
            plan: qgm,
            estimate: ni_estimate,
            plan_estimate: ni_plan_estimate,
            ranked,
        },
    })
}

/// Line a plan's estimates up against an execution trace of the same
/// plan: per-box estimated vs actual rows with q-error.
pub fn audit_estimates(qgm: &Qgm, plan: &PlanEstimate, trace: &ExecTrace) -> AccuracyReport {
    AccuracyReport::build(
        plan,
        qgm.reachable_boxes(qgm.top()).into_iter().filter_map(|b| {
            let t = trace.get(b)?;
            Some((b, box_label(qgm, b), t.rows_out, t.invocations))
        }),
    )
}

fn box_label(qgm: &Qgm, b: decorr_qgm::BoxId) -> String {
    let bx = qgm.boxref(b);
    let kind = match &bx.kind {
        BoxKind::BaseTable { table, .. } => return format!("BaseTable {table}"),
        BoxKind::Select => "Select",
        BoxKind::Grouping { .. } => "Grouping",
        BoxKind::Union { .. } => "Union",
        BoxKind::OuterJoin => "OuterJoin",
    };
    if bx.label.is_empty() {
        kind.to_string()
    } else {
        format!("{kind} {}", bx.label)
    }
}
