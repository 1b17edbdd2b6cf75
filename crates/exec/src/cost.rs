//! Cardinality and cost estimation over query graphs.
//!
//! The paper's Section 7: "It is only fair to note that magic decorrelation
//! is a heuristic optimization that is not based on statistical cost
//! estimates. ... Our implementation simply optimizes the query once
//! without decorrelation, and ... repeats the optimization with
//! decorrelation. The better of the two optimized plans is chosen."
//!
//! [`CostModel`] provides the estimates that comparison needs. It is a
//! thin facade over [`decorr_stats`]: `ANALYZE`-style statistics collected
//! from the catalog (row counts, NULL fractions, distinct counts, MCV
//! lists, equi-depth histograms) feed a bottom-up estimator whose key term
//! is **a correlated subquery costs (outer cardinality) × (one
//! evaluation)** under nested iteration — priced as an indexed probe when
//! an index covers the correlated binding. `decorr::choose_strategy` uses
//! it to race all five evaluation strategies.

use decorr_common::Result;
use decorr_qgm::Qgm;
use decorr_stats::{Estimator, PlanEstimate, Statistics};
use decorr_storage::Database;

pub use decorr_stats::Estimate;

/// A statistics-backed cost model: collected statistics plus the
/// estimator that consumes them.
pub struct CostModel {
    stats: Statistics,
}

impl CostModel {
    /// Analyze every table of `db` and build a model over the result; a
    /// table that cannot be read fails the model instead of pricing plans
    /// from statistics of rows nobody saw.
    pub fn new(db: &Database) -> Result<Self> {
        Ok(CostModel { stats: Statistics::analyze(db)? })
    }

    /// Build a model over pre-collected statistics (e.g. a cached
    /// `ANALYZE` run).
    pub fn from_stats(stats: Statistics) -> Self {
        CostModel { stats }
    }

    /// The statistics backing this model.
    pub fn stats(&self) -> &Statistics {
        &self.stats
    }

    /// Estimate the whole graph (its top box).
    pub fn estimate(&self, qgm: &Qgm) -> Result<Estimate> {
        Ok(self.estimate_plan(qgm)?.total())
    }

    /// Estimate every box of the graph, for per-operator auditing
    /// against an execution trace.
    pub fn estimate_plan(&self, qgm: &Qgm) -> Result<PlanEstimate> {
        Estimator::new(&self.stats).estimate(qgm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{row, DataType, Schema};

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
        let qgm = decorr_sql::parse_and_bind(sql, db).unwrap();
        CostModel::new(db).unwrap().estimate(&qgm).unwrap()
    }

    #[test]
    fn base_table_cardinality() {
        let db = db();
        let e = est(&db, "SELECT k FROM t");
        assert!((e.rows - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn indexed_equality_uses_distinct_count() {
        let db = db();
        // v has 10 distinct values: selectivity 1/10 of 1000 = 100.
        let e = est(&db, "SELECT k FROM t WHERE v = 3");
        assert!((e.rows - 100.0).abs() < 1.0, "{e:?}");
        // k is unique: one row.
        let e = est(&db, "SELECT k FROM t WHERE k = 3");
        assert!((e.rows - 1.0).abs() < 0.1, "{e:?}");
    }

    #[test]
    fn range_selectivity_from_histogram() {
        let db = db();
        // True selectivity is 1%: the equi-depth histogram lands near 10
        // rows, far better than the classic 1/3 magic constant.
        let e = est(&db, "SELECT k FROM t WHERE k < 10");
        assert!(e.rows > 1.0 && e.rows < 40.0, "{e:?}");
    }

    #[test]
    fn join_damped_by_key_distincts() {
        let db = db();
        let e = est(&db, "SELECT a.k FROM t a, t b WHERE a.k = b.k");
        // 1000 * 1000 / 1000 = 1000.
        assert!((e.rows - 1000.0).abs() < 1.0, "{e:?}");
    }

    #[test]
    fn correlated_subquery_priced_per_distinct_binding() {
        let db = db();
        let corr = est(
            &db,
            "SELECT a.k FROM t a WHERE a.v > \
             (SELECT COUNT(*) FROM t b WHERE b.v = a.v)",
        );
        let uncorr = est(
            &db,
            "SELECT a.k FROM t a WHERE a.v > (SELECT COUNT(*) FROM t b)",
        );
        // Memoized nested iteration executes the subquery once per
        // distinct a.v (10 bindings, each an indexed probe): correlation
        // still costs more than the one-shot plan, but no longer the
        // per-candidate-row explosion the naive executor paid.
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
    fn grouping_estimates() {
        let db = db();
        let scalar = est(&db, "SELECT COUNT(*) FROM t");
        assert!((scalar.rows - 1.0).abs() < 1e-6);
        let grouped = est(&db, "SELECT v, COUNT(*) FROM t GROUP BY v");
        // v has 10 distinct values: the NDV-backed estimate is exact.
        assert!((grouped.rows - 10.0).abs() < 1.0, "{grouped:?}");
    }
}
