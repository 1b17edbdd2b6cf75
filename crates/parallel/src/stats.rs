//! Parallel execution metrics.

use std::fmt;
use std::time::Duration;

use decorr_common::FaultPlane;

/// What one parallel execution cost, beyond the answer itself.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Inter-node messages (binding broadcasts, partial-result returns,
    /// shipped tuples during repartitioning — one message per tuple).
    pub messages: u64,
    /// Tuples moved between nodes during repartitioning.
    pub rows_shipped: u64,
    /// Computation fragments started across the cluster (the paper's
    /// O(n²)-vs-O(n) quantity).
    pub fragments: u64,
    /// Correlated subquery invocations summed over all nodes.
    pub subquery_invocations: u64,
    /// Deterministic work performed by each node
    /// ([`decorr_common::ExecStats::total_work`]).
    pub per_node_work: Vec<u64>,
    /// Result rows produced by each node — the row-level balance of the
    /// partitioning (work skew can hide a row skew behind index use).
    pub per_node_rows: Vec<u64>,
    /// Wall-clock time of the parallel phase.
    pub elapsed: Duration,
    /// Rows in the final result.
    pub result_rows: usize,
    /// Injected faults absorbed by retrying a job on the same replica.
    pub retries: u64,
    /// Jobs that left their primary replica for a standby.
    pub failovers: u64,
    /// Rows re-read from a replica after a failover — the recovery
    /// traffic a real system would re-ship.
    pub redriven_rows: u64,
    /// Logical ticks of injected delay (stragglers plus retry backoff).
    pub injected_delay_ticks: u64,
}

impl ParallelStats {
    /// Copy the recovery counters of the run's fault plane, if any.
    pub(crate) fn absorb_faults(&mut self, faults: Option<&FaultPlane>) {
        if let Some(s) = faults.map(FaultPlane::stats) {
            self.retries = s.retries;
            self.failovers = s.failovers;
            self.injected_delay_ticks = s.delay_ticks;
        }
    }

    /// Total work across the cluster.
    pub fn total_work(&self) -> u64 {
        self.per_node_work.iter().sum()
    }

    /// Max/mean work ratio: 1.0 is a perfectly balanced cluster.
    pub fn skew(&self) -> f64 {
        if self.per_node_work.is_empty() {
            return 1.0;
        }
        let max = self.per_node_work.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.total_work() as f64 / self.per_node_work.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Most result rows any node produced.
    pub fn max_node_rows(&self) -> u64 {
        self.per_node_rows.iter().copied().max().unwrap_or(0)
    }

    /// Fewest result rows any node produced.
    pub fn min_node_rows(&self) -> u64 {
        self.per_node_rows.iter().copied().min().unwrap_or(0)
    }

    /// Max/mean *row* ratio across nodes; 1.0 is perfectly balanced, and
    /// an empty (or all-empty) cluster reports 1.0.
    pub fn row_skew(&self) -> f64 {
        if self.per_node_rows.is_empty() {
            return 1.0;
        }
        let total: u64 = self.per_node_rows.iter().sum();
        let mean = total as f64 / self.per_node_rows.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.max_node_rows() as f64 / mean
        }
    }
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes            {:>12}", self.nodes)?;
        writeln!(f, "fragments        {:>12}", self.fragments)?;
        writeln!(f, "messages         {:>12}", self.messages)?;
        writeln!(f, "rows shipped     {:>12}", self.rows_shipped)?;
        writeln!(f, "subquery invokes {:>12}", self.subquery_invocations)?;
        writeln!(f, "total work       {:>12}", self.total_work())?;
        writeln!(f, "work skew        {:>12.2}", self.skew())?;
        writeln!(
            f,
            "node rows        {:>12}",
            format!("{}..{}", self.min_node_rows(), self.max_node_rows())
        )?;
        writeln!(f, "row skew         {:>12.2}", self.row_skew())?;
        writeln!(f, "retries          {:>12}", self.retries)?;
        writeln!(f, "failovers        {:>12}", self.failovers)?;
        writeln!(f, "redriven rows    {:>12}", self.redriven_rows)?;
        writeln!(f, "injected delay   {:>12}", self.injected_delay_ticks)?;
        write!(f, "result rows      {:>12}", self.result_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_of_balanced_cluster_is_one() {
        let s = ParallelStats { per_node_work: vec![10, 10, 10], ..Default::default() };
        assert!((s.skew() - 1.0).abs() < 1e-9);
        assert_eq!(s.total_work(), 30);
    }

    #[test]
    fn skew_detects_imbalance() {
        let s = ParallelStats { per_node_work: vec![30, 0, 0], ..Default::default() };
        assert!((s.skew() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cluster_skew() {
        assert_eq!(ParallelStats::default().skew(), 1.0);
        assert_eq!(ParallelStats::default().row_skew(), 1.0);
    }

    #[test]
    fn row_skew_and_extremes() {
        let s = ParallelStats { per_node_rows: vec![4, 8, 0, 4], ..Default::default() };
        assert_eq!(s.max_node_rows(), 8);
        assert_eq!(s.min_node_rows(), 0);
        assert!((s.row_skew() - 2.0).abs() < 1e-9);
    }
}
