//! Deterministic execution-work counters.
//!
//! The paper's performance figures were wall-clock seconds on a 1995 IBM
//! RS6000. Wall time on modern hardware will not match, but the *work* each
//! strategy performs — rows scanned, index lookups, hash probes, subquery
//! invocations — is machine-independent and is exactly what drives the
//! paper's analysis ("3954 invocations of which only 2138 are distinct",
//! "Kim's method performs unnecessary subquery computation", ...).
//!
//! Every executor operation increments an [`ExecStats`]; the benchmark
//! harness reports both Criterion wall time and these counters so the
//! reproduced *shape* of each figure can be verified deterministically.

use std::fmt;
use std::ops::AddAssign;

/// Counters of the work performed during one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base-table scans.
    pub rows_scanned: u64,
    /// Point lookups served by an index.
    pub index_lookups: u64,
    /// Rows returned by index lookups.
    pub index_rows: u64,
    /// Rows inserted into hash-join build sides.
    pub hash_build_rows: u64,
    /// Probes of hash-join tables.
    pub hash_probes: u64,
    /// Row pairs compared by nested-loop joins.
    pub nl_comparisons: u64,
    /// Rows produced by join operators (all kinds).
    pub join_output_rows: u64,
    /// Rows fed into aggregation.
    pub agg_input_rows: u64,
    /// Groups produced by aggregation.
    pub agg_groups: u64,
    /// Correlated subquery evaluations (the nested-iteration count the
    /// paper reports per query). A memoized invocation still counts: this
    /// is the *logical* count — how many times a binding needed the
    /// subquery's result — so it is identical whether the memo is on or
    /// off, exactly like the paper's "3954 invocations".
    pub subquery_invocations: u64,
    /// Subquery invocations that actually *executed* the subtree — the
    /// paper's "only 2138 are distinct". Without the correlation-key memo
    /// every invocation executes, so this equals `subquery_invocations`.
    pub subquery_distinct_invocations: u64,
    /// Subquery invocations served from the correlation-key memo instead
    /// of re-executing. `subquery_invocations ==
    /// subquery_distinct_invocations + subquery_memo_hits` holds for every
    /// run.
    pub subquery_memo_hits: u64,
    /// Predicate evaluations applied to candidate rows.
    pub predicate_evals: u64,
    /// Rows emitted as the final query result.
    pub output_rows: u64,
    /// Operators that degraded to a low-memory fallback (nested-loop join,
    /// sort-based grouping) to honor the executor's memory budget.
    pub degradations: u64,
    /// Executions served from a cached plan template (the five-way cost
    /// race was skipped). 0 or 1 per query; sessions accumulate it.
    pub plan_cache_hits: u64,
    /// Subplan subtrees (SUPP/MAGIC/DCO/CI) served from the cross-query
    /// shared-subplan cache instead of being recomputed.
    pub shared_subplan_hits: u64,
    /// Rows those shared-subplan hits would otherwise have materialized.
    pub shared_subplan_rows: u64,
    /// Operators that spilled partitions to disk to honor the memory
    /// budget. Distinct from `degradations`: a spilled operator produces
    /// byte-identical rows in the identical order, it just pages its
    /// working state through the buffer pool.
    pub spills: u64,
    /// Column/row pages this query requested from the buffer pool that
    /// were already resident (decoded) in the pool.
    pub pool_hits: u64,
    /// Pages this query faulted in from disk (decoded on read).
    pub pool_misses: u64,
    /// Pages materialized for this query's scans (hits + misses).
    pub pages_read: u64,
    /// Pages the scan path skipped entirely because a zone map proved no
    /// row could satisfy the pushed-down predicate.
    pub pages_pruned: u64,
}

impl ExecStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// A single scalar summary of total work; used to compare strategies
    /// when plotting figure shapes. Weights are uniform: each counted event
    /// is one unit of work. (The paper compares orders of magnitude, so
    /// fine-grained weighting is unnecessary.)
    pub fn total_work(&self) -> u64 {
        self.rows_scanned
            + self.index_lookups
            + self.index_rows
            + self.hash_build_rows
            + self.hash_probes
            + self.nl_comparisons
            + self.join_output_rows
            + self.agg_input_rows
            + self.predicate_evals
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, o: Self) {
        self.rows_scanned += o.rows_scanned;
        self.index_lookups += o.index_lookups;
        self.index_rows += o.index_rows;
        self.hash_build_rows += o.hash_build_rows;
        self.hash_probes += o.hash_probes;
        self.nl_comparisons += o.nl_comparisons;
        self.join_output_rows += o.join_output_rows;
        self.agg_input_rows += o.agg_input_rows;
        self.agg_groups += o.agg_groups;
        self.subquery_invocations += o.subquery_invocations;
        self.subquery_distinct_invocations += o.subquery_distinct_invocations;
        self.subquery_memo_hits += o.subquery_memo_hits;
        self.predicate_evals += o.predicate_evals;
        self.output_rows += o.output_rows;
        self.degradations += o.degradations;
        self.plan_cache_hits += o.plan_cache_hits;
        self.shared_subplan_hits += o.shared_subplan_hits;
        self.shared_subplan_rows += o.shared_subplan_rows;
        self.spills += o.spills;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.pages_read += o.pages_read;
        self.pages_pruned += o.pages_pruned;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scanned          {:>12}", self.rows_scanned)?;
        writeln!(f, "index lookups    {:>12}", self.index_lookups)?;
        writeln!(f, "index rows       {:>12}", self.index_rows)?;
        writeln!(f, "hash build rows  {:>12}", self.hash_build_rows)?;
        writeln!(f, "hash probes      {:>12}", self.hash_probes)?;
        writeln!(f, "NL comparisons   {:>12}", self.nl_comparisons)?;
        writeln!(f, "join output rows {:>12}", self.join_output_rows)?;
        writeln!(f, "agg input rows   {:>12}", self.agg_input_rows)?;
        writeln!(f, "agg groups       {:>12}", self.agg_groups)?;
        writeln!(f, "subquery invokes {:>12}", self.subquery_invocations)?;
        writeln!(
            f,
            "  distinct       {:>12}",
            self.subquery_distinct_invocations
        )?;
        writeln!(f, "  memo hits      {:>12}", self.subquery_memo_hits)?;
        writeln!(f, "predicate evals  {:>12}", self.predicate_evals)?;
        writeln!(f, "output rows      {:>12}", self.output_rows)?;
        writeln!(f, "degradations     {:>12}", self.degradations)?;
        writeln!(f, "plan cache hits  {:>12}", self.plan_cache_hits)?;
        writeln!(f, "shared subplans  {:>12}", self.shared_subplan_hits)?;
        writeln!(f, "shared rows      {:>12}", self.shared_subplan_rows)?;
        writeln!(f, "spills           {:>12}", self.spills)?;
        writeln!(f, "pool hits        {:>12}", self.pool_hits)?;
        writeln!(f, "pool misses      {:>12}", self.pool_misses)?;
        writeln!(f, "pages read       {:>12}", self.pages_read)?;
        writeln!(f, "pages pruned     {:>12}", self.pages_pruned)?;
        write!(f, "TOTAL WORK       {:>12}", self.total_work())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = ExecStats { rows_scanned: 5, ..Default::default() };
        let b = ExecStats { rows_scanned: 2, subquery_invocations: 3, ..Default::default() };
        a += b;
        assert_eq!(a.rows_scanned, 7);
        assert_eq!(a.subquery_invocations, 3);
    }

    #[test]
    fn total_work_excludes_result_and_group_counts() {
        let s = ExecStats {
            output_rows: 100,
            agg_groups: 50,
            subquery_invocations: 9,
            ..Default::default()
        };
        assert_eq!(s.total_work(), 0);
    }

    #[test]
    fn display_mentions_subquery_invocations() {
        let s = ExecStats { subquery_invocations: 209, ..Default::default() };
        assert!(s.to_string().contains("209"));
    }
}
