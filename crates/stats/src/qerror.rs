//! Estimation-accuracy auditing: q-error per box.
//!
//! The q-error of an estimate is `max(est/actual, actual/est)` — the
//! multiplicative factor by which the estimator missed, symmetric in both
//! directions and never below 1. An [`AccuracyReport`] lines a
//! [`PlanEstimate`] up against the rows-out counters of an execution trace
//! and computes the q-error for every executed box, so estimator
//! regressions show up the same way performance regressions do.

use decorr_qgm::BoxId;

use crate::estimate::PlanEstimate;

/// The classic q-error: `max(est/actual, actual/est)`, with both sides
/// floored at one row so a perfect "zero rows" prediction scores 1.0
/// rather than dividing by zero.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let e = est.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// Estimate-vs-actual for one executed box.
#[derive(Debug, Clone)]
pub struct BoxAccuracy {
    pub box_id: BoxId,
    /// Display label for the box (kind or user label).
    pub label: String,
    /// Estimated total rows out (per-evaluation rows × evaluations).
    pub est_rows: f64,
    /// Estimated evaluations.
    pub est_invocations: f64,
    /// Rows the executor actually produced across all evaluations.
    pub actual_rows: u64,
    /// Evaluations the executor actually performed.
    pub actual_invocations: u64,
    /// `q_error(est_rows, actual_rows)`.
    pub q: f64,
}

/// Per-box q-errors of one executed plan.
#[derive(Debug, Clone, Default)]
pub struct AccuracyReport {
    boxes: Vec<BoxAccuracy>,
}

impl AccuracyReport {
    /// Line a plan estimate up against actual execution counters given as
    /// `(box, label, rows_out, invocations)`. Boxes without an estimate
    /// (or never executed) are skipped — both sides are required.
    pub fn build(
        plan: &PlanEstimate,
        actuals: impl IntoIterator<Item = (BoxId, String, u64, u64)>,
    ) -> AccuracyReport {
        let mut boxes: Vec<BoxAccuracy> = actuals
            .into_iter()
            .filter_map(|(id, label, rows_out, invocations)| {
                let est = plan.box_estimate(id)?;
                Some(BoxAccuracy {
                    box_id: id,
                    label,
                    est_rows: est.total_rows(),
                    est_invocations: est.invocations,
                    actual_rows: rows_out,
                    actual_invocations: invocations,
                    q: q_error(est.total_rows(), rows_out as f64),
                })
            })
            .collect();
        boxes.sort_by_key(|b| b.box_id);
        AccuracyReport { boxes }
    }

    /// Per-box rows, most-audited first is not needed — id order.
    pub fn boxes(&self) -> &[BoxAccuracy] {
        &self.boxes
    }

    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The worst q-error in the report (1.0 when empty).
    pub fn max_q(&self) -> f64 {
        self.boxes.iter().map(|b| b.q).fold(1.0, f64::max)
    }

    /// Geometric mean of the per-box q-errors (1.0 when empty).
    pub fn geomean_q(&self) -> f64 {
        if self.boxes.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.boxes.iter().map(|b| b.q.ln()).sum();
        (sum / self.boxes.len() as f64).exp()
    }

    /// Fixed-width est-vs-actual table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<6} {:<22} {:>12} {:>12} {:>9} {:>9} {:>8}\n",
            "box", "kind", "est rows", "actual", "est inv", "act inv", "q-error"
        ));
        for b in &self.boxes {
            out.push_str(&format!(
                "  {:<6} {:<22} {:>12.1} {:>12} {:>9.1} {:>9} {:>8.2}\n",
                b.box_id.to_string(),
                b.label,
                b.est_rows,
                b.actual_rows,
                b.est_invocations,
                b.actual_invocations,
                b.q
            ));
        }
        out.push_str(&format!(
            "  worst q-error {:.2}, geometric mean {:.2}\n",
            self.max_q(),
            self.geomean_q()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_symmetry_and_floor() {
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(1.0, 1.0), 1.0);
        // Perfect zero-row prediction: floored, not infinite.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(0.2, 0.0), 1.0);
    }

    #[test]
    fn report_skips_unestimated_boxes() {
        let plan = PlanEstimate::default();
        let report = AccuracyReport::build(
            &plan,
            vec![(BoxId::from_index(7), "Select".to_string(), 10, 1)],
        );
        assert!(report.is_empty());
        assert_eq!(report.max_q(), 1.0);
        assert_eq!(report.geomean_q(), 1.0);
    }
}
