//! Table statistics and cardinality estimation.
//!
//! The paper's Section 7 resolves "no strategy dominates" by optimizing the
//! query under each applicable strategy and picking the cheaper plan — a
//! decision that is only as good as the cost estimates behind it. This
//! crate supplies those estimates, module by module:
//!
//! * [`collect`] — an `ANALYZE`-style statistics collector over
//!   [`decorr_storage`] tables: per column the row count, NULL fraction,
//!   min/max, number of distinct values, a most-common-values list and an
//!   equi-depth histogram ([`Statistics::analyze`]).
//! * [`estimate`] — a cardinality estimator that walks a QGM box graph
//!   bottom-up ([`Estimator`]): predicate selectivities from histograms and
//!   MCVs (NULL-aware), join cardinalities from distinct counts,
//!   correlated-binding fan-out and magic-table distinct counts from NDVs,
//!   and group counts for GROUP BY boxes. Every box gets an estimate, so a
//!   plan's prediction can be audited operator by operator.
//! * [`qerror`] — the audit itself: the classic q-error
//!   `max(est/actual, actual/est)` per box, comparing a
//!   [`PlanEstimate`] against the executed rows-out counters.
//! * [`shape`] — what a Select is, for the executor's lowering and the
//!   estimator alike: predicate stages, lateral inputs, own predicates and
//!   their sargable bounds, and the outer join's index arm.
//! * [`access`] — the access-path rule under the shape (which equality
//!   probes which index, which input is a table as it stands, and when
//!   index nested loops pay): one definition, two callers.
//!
//! `decorr_exec::CostModel` is built on this crate, and the root crate's
//! `choose_strategy` uses it to race all five evaluation strategies.

pub mod access;
pub mod collect;
pub mod estimate;
pub mod qerror;
pub mod shape;

pub use collect::{ColumnStats, Histogram, Statistics, TableStats};
pub use estimate::{BoxEstimate, Estimate, Estimator, PlanEstimate};
pub use qerror::{q_error, AccuracyReport, BoxAccuracy};
