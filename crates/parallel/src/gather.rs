//! Fault-tolerant gathered execution.
//!
//! The figure queries join on attributes the cluster is *not* co-partitioned
//! on, so running the whole plan independently per node is unsound (a
//! node-local join would miss cross-partition matches). The chaos harness
//! therefore executes them the way a coordinator without co-partitioning
//! guarantees must: **gather** every partition of every table — each fetch
//! is a fault-injectable fragment with retry and replica failover — then
//! reassemble a coordinator database and run the plan locally.
//!
//! Determinism is the point: partitions are fetched in `(table, partition)`
//! order (tables iterate in creation order), rows are concatenated in
//! partition order, and a failed-over fetch re-reads the replica's
//! byte-identical copy. Whenever every partition keeps a live replica, the
//! gathered database — and thus the query result — is *exactly* the
//! fault-free one; when a partition loses all replicas the run fails closed
//! with [`decorr_common::Error::NodeFailed`] instead of answering from
//! partial data.

use std::time::Instant;

use decorr_common::columnar::ColumnarBatch;
use decorr_common::{FaultPlane, Result, Row};
use decorr_exec::{ExecOptions, Executor};
use decorr_qgm::Qgm;
use decorr_storage::Database;

use crate::cluster::{Cluster, TableMeta};
use crate::stats::ParallelStats;

/// Gather all partitions (with retry/failover under `faults`), reassemble a
/// coordinator database, and execute `qgm` on it with `opts` (which may
/// carry a timeout, a cancel token and a memory budget — the full
/// resource-governance surface applies to the coordinator run).
pub fn run_gathered(
    cluster: &Cluster,
    qgm: &Qgm,
    opts: ExecOptions,
    faults: Option<&FaultPlane>,
) -> Result<(Vec<Row>, ParallelStats)> {
    let n = cluster.nodes();
    let started = Instant::now();
    let mut stats = ParallelStats {
        nodes: n,
        per_node_work: vec![0; n],
        per_node_rows: vec![0; n],
        ..Default::default()
    };

    // Gather phase. Serial on purpose: the fault plane hands out events
    // from per-node job counters, and replaying a seed must consume them
    // in one fixed order.
    let mut coordinator = Database::new();
    let table_names: Vec<String> = cluster
        .node(0)
        .tables()
        .map(|t| t.name().to_string())
        .collect();
    for name in &table_names {
        let meta = TableMeta::of(cluster.node(0).table(name)?);
        let mut gathered: Vec<Row> = Vec::new();
        for p in 0..n {
            // Partitions ship as columnar batches: the fragment transposes
            // its rows once (dictionary-encoding strings, so repeated
            // values cross the wire as codes) and the coordinator
            // re-materializes rows on arrival — `ColumnarBatch`'s
            // round-trip is exact, so the gathered database stays
            // byte-identical to a row-shipped one. The message counters
            // keep counting logical tuples for comparability with the
            // row-shipping model the lib docs describe.
            let (batch, outcome) = cluster.run_recoverable(p, faults, |db| {
                Ok(ColumnarBatch::from_rows(db.table(name)?.rows()))
            })?;
            let rows = batch.to_rows();
            stats.fragments += 1;
            // One request message plus one per shipped tuple.
            stats.messages += 1 + rows.len() as u64;
            stats.rows_shipped += rows.len() as u64;
            stats.per_node_rows[p] += rows.len() as u64;
            if outcome.failed_over {
                stats.redriven_rows += rows.len() as u64;
            }
            gathered.extend(rows);
        }
        coordinator.add_table(meta.build(gathered)?)?;
    }

    // Coordinator phase: the plan runs once over the reassembled database.
    let mut ex = Executor::new(&coordinator, opts);
    let rows = ex.run(qgm)?;
    stats.fragments += 1;

    stats.absorb_faults(faults);
    stats.elapsed = started.elapsed();
    stats.result_rows = rows.len();
    Ok((rows, stats))
}
