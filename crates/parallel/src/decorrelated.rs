//! Parallel execution of the magic-decorrelated plan (paper Section 6.2).
//!
//! "The supplementary table is generated and partitioned across the nodes
//! based on the correlation attribute. ... the GroupBy clause of the
//! subquery is again on the correlation attribute; the aggregation can
//! therefore be performed locally. ... each of the joins can be executed
//! in parallel on all nodes without interference from each other."

use std::time::Instant;

use decorr_common::{Error, FaultPlane, Result, Row, WorkerPool};
use decorr_core::magic::{magic_decorrelate, MagicOptions};
use decorr_exec::{ExecOptions, Executor};
use decorr_qgm::Qgm;

use crate::cluster::Cluster;
use crate::stats::ParallelStats;

/// Decorrelate the query, repartition the named tables on the correlation
/// attribute (counting the shipped tuples), and execute the decorrelated
/// plan independently on every node.
///
/// The caller names the `(table, column)` pairs to co-partition — the
/// correlation attribute of each participating table, exactly the
/// partitioning Section 6.2 describes. The decorrelated plan's joins and
/// grouping are all on that attribute, so per-node execution needs no
/// communication and the union of the per-node results is the answer.
pub fn run_decorrelated(
    cluster: &mut Cluster,
    qgm: &Qgm,
    partition_on: &[(&str, &str)],
    magic: &MagicOptions,
) -> Result<(Vec<Row>, ParallelStats)> {
    run_decorrelated_with(cluster, qgm, partition_on, magic, None)
}

/// [`run_decorrelated`] under fault injection: each node's plan fragment is
/// driven through [`Cluster::run_recoverable`], so an injected crash of the
/// node is retried and — when the cluster carries replicas — failed over to
/// a standby that re-runs the fragment over the same partition. With faults
/// active the fragments run serially so the fault plane's per-node job
/// counters replay deterministically from the seed. The repartitioning
/// phase itself is not fault-injected (recovery of in-flight data movement
/// is out of scope; the paper's interest is the execution fragments).
pub fn run_decorrelated_with(
    cluster: &mut Cluster,
    qgm: &Qgm,
    partition_on: &[(&str, &str)],
    magic: &MagicOptions,
    faults: Option<&FaultPlane>,
) -> Result<(Vec<Row>, ParallelStats)> {
    let mut plan = qgm.clone();
    let report = magic_decorrelate(&mut plan, magic)?;
    if !report.changed() {
        return Err(Error::rewrite(
            "query did not decorrelate; run it with nested iteration instead",
        ));
    }
    // Per-node execution is only sound for a *fully* decorrelated plan: a
    // residual correlated subquery would be evaluated against one node's
    // partition instead of the whole table.
    let cm = decorr_qgm::CorrelationMap::analyze(&plan);
    for b in plan.reachable_boxes(plan.top()) {
        if cm.is_correlated(b) {
            return Err(Error::rewrite(
                "plan is only partially decorrelated; local per-node execution \
                 would read single-partition subquery results",
            ));
        }
    }

    let n = cluster.nodes();
    let mut stats = ParallelStats { nodes: n, per_node_work: vec![0; n], ..Default::default() };

    // Repartition phase: ship tuples to hash(correlation attribute) owners.
    for (table, column) in partition_on {
        let shipped = cluster.repartition(table, column)?;
        stats.rows_shipped += shipped;
        stats.messages += shipped;
    }

    // Parallel phase: one plan fragment per node, no cross-talk. The
    // fragments run on the shared worker pool (one job per node); each
    // returns its rows and its deterministic work counter, reassembled in
    // node order. Under fault injection the pool is serial (deterministic
    // fault-counter replay) and every fragment goes through the cluster's
    // retry/failover path.
    let pool = WorkerPool::new(if faults.is_some() { 1 } else { n });
    let started = Instant::now();
    let cluster = &*cluster;
    let results: Vec<Result<(Vec<Row>, u64, bool)>> = pool.run_indexed(n, |i| {
        let ((rows, work), outcome) = cluster.run_recoverable(i, faults, |db| {
            let mut ex = Executor::new(db, ExecOptions::default());
            let rows = ex.run(&plan)?;
            Ok((rows, ex.stats().total_work()))
        })?;
        Ok((rows, work, outcome.failed_over))
    });

    stats.fragments += n as u64;
    // Final result collection: one message per producing node.
    stats.messages += n as u64;

    let mut rows = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        let (node_rows, work, failed_over) = r?;
        stats.per_node_work[i] = work;
        stats.per_node_rows.push(node_rows.len() as u64);
        if failed_over {
            // The standby re-produced this fragment's rows from its copy.
            stats.redriven_rows += node_rows.len() as u64;
        }
        rows.extend(node_rows);
    }
    stats.absorb_faults(faults);
    stats.elapsed = started.elapsed();
    stats.result_rows = rows.len();
    Ok((rows, stats))
}
