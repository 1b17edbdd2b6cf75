//! Set-oriented QGM executor with nested-iteration support.
//!
//! One engine runs both sides of the paper's comparison:
//!
//! * **Correlated** graphs execute with System R-style *nested iteration*:
//!   correlated subquery quantifiers (Scalar / Existential / All) and
//!   correlated (lateral) derived tables are evaluated once per candidate
//!   row of the outer block, counting every invocation in
//!   [`decorr_common::ExecStats::subquery_invocations`].
//! * **Decorrelated** graphs (the output of magic decorrelation or the
//!   baseline rewrites) contain only Foreach quantifiers, Grouping, Union
//!   and OuterJoin boxes, and execute fully set-oriented: greedy
//!   cardinality-ordered hash joins, index-assisted selections, hash
//!   aggregation.
//!
//! # Lowered once per run
//!
//! [`Executor::run`] lowers the graph before it evaluates a box. Per
//! Select, one traversal builds the `decorr_stats::shape` the estimator
//! prices too (predicate stages, lateral inputs, own predicates), then
//! decides how each input is read (index probe, correlation probe, deferred
//! indexed table, paged or full scan) and when each scalar subquery is
//! placed; per subquery or lateral input, its correlation signature and
//! how nested iteration reuses it; per Grouping, its aggregates, keys and
//! kernel columns; per outer join, its index arm; per box, whether a cache
//! serves it whole. The plan-shaping options — [`ExecOptions::memoize_cse`]
//! (the paper's Starburst build recomputes common subexpressions, so it is
//! off by default), [`ExecOptions::scalar_placement`] (Query 2's plan
//! places its subquery before the join, [`ScalarPlacement::EarliestBinding`]),
//! `ni_memo`, `ni_batch` and the shared-subplan marks — are read there and
//! nowhere else. Decisions that depend on data stay at run time: the greedy
//! join order by input sizes, whether index nested loops pay, spilling, and
//! the kernels compiled under the current bindings.
//!
//! # Modules
//!
//! * [`exec`]: the [`Executor`], one module per operator — `lower` (the
//!   lowering), `select` (the Select box's join driver and end stage),
//!   `scans`, `joins` (the equi-join kernel, Grace spills, index nested
//!   loops), `apply` (nested iteration and its memo), `grouping`, `outer`
//!   and `union`;
//! * `tuple`: candidate tuples, what scans and joins hand on instead of
//!   rows; `env`, `eval` and `vector`: bindings, the row-wise evaluator and
//!   the columnar kernels;
//! * [`trace`]: the operator trace;
//! * [`cache`] and [`subplan`]: the cross-query transpose and shared-subplan
//!   caches, key adapters over [`decorr_common::Cache`] (family: table and
//!   columns, or canonical subtree; version: the tables' snapshot
//!   versions). Plans are priced by [`decorr_stats::Statistics`] directly.

pub mod cache;
pub mod env;
pub mod eval;
pub mod exec;
pub mod subplan;
pub mod trace;
mod tuple;
mod vector;

pub use cache::ColumnarCache;
pub use decorr_common::{CacheLedger, CacheStats};
pub use decorr_stats::{BoxEstimate, Estimate, PlanEstimate};
pub use env::{Env, Layout};
pub use exec::{ExecOptions, Executor, ScalarPlacement};
pub use subplan::{SharedSubplans, SubplanCache, SubplanShape};
pub use trace::{BoxTrace, ExecTrace, JoinChoice, JoinStrategy};

use decorr_common::{ExecStats, Result, Row};
use decorr_qgm::Qgm;
use decorr_storage::Database;

/// Execute a query graph against a database with default options,
/// returning the result rows and the work counters.
pub fn execute(db: &Database, qgm: &Qgm) -> Result<(Vec<Row>, ExecStats)> {
    execute_with(db, qgm, ExecOptions::default())
}

/// Execute with explicit options.
pub fn execute_with(db: &Database, qgm: &Qgm, opts: ExecOptions) -> Result<(Vec<Row>, ExecStats)> {
    let mut ex = Executor::new(db, opts);
    let rows = ex.run(qgm)?;
    Ok((rows, ex.stats()))
}

/// Execute with a per-box operator trace (rows in/out, join strategies,
/// predicate evaluations, wall time per box) alongside the work counters.
pub fn execute_traced(
    db: &Database,
    qgm: &Qgm,
    opts: ExecOptions,
) -> Result<(Vec<Row>, ExecStats, ExecTrace)> {
    let mut ex = Executor::new(db, opts);
    ex.enable_tracing();
    let rows = ex.run(qgm)?;
    let trace = ex.take_trace().expect("tracing was enabled");
    Ok((rows, ex.stats(), trace))
}
