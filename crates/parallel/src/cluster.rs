//! Hash-partitioned clusters of databases.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use decorr_common::{Error, FaultEvent, FaultPlane, FxHasher, Result, Row, Schema, WorkerPool};
use decorr_storage::{Database, Table};

/// Retry budget per replica: a transient fault (or a finite crash window)
/// is retried up to this many times, with exponential backoff on the
/// plane's clock, before the job fails over to the next replica. All
/// [`FaultPlane::crash_window`] windows close within this many attempts,
/// so seeded chaos is recoverable by retry alone.
pub const MAX_ATTEMPTS: usize = 8;

/// Backoff cap in logical ticks; the per-replica backoff doubles from one
/// tick up to this ceiling.
const MAX_BACKOFF_TICKS: u64 = 16;

/// A shared-nothing cluster: one [`Database`] per node, each holding a
/// horizontal partition of every table.
///
/// With `replication > 1`, partition `p` is additionally *served* by the
/// next `replication - 1` nodes in ring order (chained declustering). The
/// simulator keeps one physical copy of each partition — replicas would be
/// byte-identical — so failover re-reads exactly the rows the primary held,
/// while fault injection and work accounting are charged to the serving
/// node.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Database>,
    replication: usize,
}

fn hash_value(v: &decorr_common::Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// How one recoverable job was ultimately served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobOutcome {
    /// The node whose service attempt succeeded.
    pub served_by: usize,
    /// Injected faults absorbed by retrying (on any replica).
    pub retries: u64,
    /// Did the job leave its primary replica?
    pub failed_over: bool,
}

/// Physical design of one table, captured once so per-node partitions can
/// be (re)built in parallel worker jobs without touching the source.
pub(crate) struct TableMeta {
    name: String,
    schema: Schema,
    key: Option<Vec<String>>,
    index_cols: Vec<Vec<String>>,
}

impl TableMeta {
    pub(crate) fn of(t: &Table) -> TableMeta {
        let names = |cols: &[usize]| -> Vec<String> {
            cols.iter()
                .map(|&c| t.schema().column(c).name.clone())
                .collect()
        };
        TableMeta {
            name: t.name().to_string(),
            schema: t.schema().clone(),
            key: t.key().map(names),
            index_cols: t.indexes().iter().map(|idx| names(idx.columns())).collect(),
        }
    }

    /// Build one node's partition: same schema, key and indexes as the
    /// source, holding exactly `rows`.
    pub(crate) fn build(&self, rows: Vec<Row>) -> Result<Table> {
        let mut t = Table::new(&self.name, self.schema.clone());
        if let Some(key) = &self.key {
            let refs: Vec<&str> = key.iter().map(String::as_str).collect();
            t.set_key(&refs)?;
        }
        t.insert_all(rows)?;
        for cols in &self.index_cols {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            t.create_index(&refs)?;
        }
        Ok(t)
    }
}

/// Build all `n` node partitions of one table on the worker pool (one job
/// per node: inserts, key enforcement, index builds). Empty buckets still
/// build a partition — every node must hold the table's schema, key and
/// indexes even when the hash routed it no rows.
fn build_partitions(
    pool: &WorkerPool,
    meta: &TableMeta,
    buckets: Vec<Vec<Row>>,
) -> Vec<Result<Table>> {
    let buckets: Vec<Mutex<Vec<Row>>> = buckets.into_iter().map(Mutex::new).collect();
    pool.run_indexed(buckets.len(), |i| {
        let mut bucket = buckets[i]
            .lock()
            .map_err(|_| Error::internal("partition bucket mutex poisoned"))?;
        let rows = std::mem::take(&mut *bucket);
        drop(bucket);
        meta.build(rows)
    })
}

impl Cluster {
    /// Partition every table of `db` over `n` nodes by its primary key
    /// (round-robin for keyless tables) — the paper's starting scenario in
    /// which *neither* table is partitioned on the correlation attribute.
    /// Indexes are re-created per partition. No replication (factor 1).
    pub fn partition_by_key(db: &Database, n: usize) -> Result<Cluster> {
        Self::partition_by_key_replicated(db, n, 1)
    }

    /// Like [`Cluster::partition_by_key`], but each partition is served by
    /// `replication` consecutive nodes in ring order, so any single-node
    /// crash leaves every partition reachable when `replication >= 2`.
    /// `replication` is clamped to `1..=n`.
    pub fn partition_by_key_replicated(
        db: &Database,
        n: usize,
        replication: usize,
    ) -> Result<Cluster> {
        if n == 0 {
            return Err(Error::internal("cluster needs at least one node"));
        }
        let replication = replication.clamp(1, n);
        let pool = WorkerPool::new(n);
        let mut nodes: Vec<Database> = (0..n).map(|_| Database::new()).collect();
        for table in db.tables() {
            // Route rows to nodes (serial: one pass over the source), then
            // build all node partitions — inserts, key enforcement, index
            // builds — in parallel, one worker job per node.
            let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n];
            let mut io = decorr_storage::PageIo::default();
            let source = table.read_rows(&mut io)?;
            for (i, row) in source.iter().enumerate() {
                let node = match table.key() {
                    Some(key) => {
                        let mut h = FxHasher::default();
                        for &c in key {
                            row[c].hash(&mut h);
                        }
                        (h.finish() % n as u64) as usize
                    }
                    None => i % n,
                };
                buckets[node].push(row.clone());
            }
            let meta = TableMeta::of(table);
            for (node_db, part) in nodes
                .iter_mut()
                .zip(build_partitions(&pool, &meta, buckets))
            {
                node_db.add_table(part?)?;
            }
        }
        Ok(Cluster { nodes, replication })
    }

    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The configured replication factor (1 = no replicas).
    pub fn replication(&self) -> usize {
        self.replication
    }

    pub fn node(&self, i: usize) -> &Database {
        &self.nodes[i]
    }

    /// All node databases.
    pub fn node_dbs(&self) -> &[Database] {
        &self.nodes
    }

    /// The nodes that can serve partition `p`, primary first (chained
    /// declustering: the next `replication - 1` nodes in ring order).
    pub fn placement(&self, p: usize) -> Vec<usize> {
        let n = self.nodes.len();
        (0..self.replication).map(|r| (p + r) % n).collect()
    }

    /// Can every partition still be served when `crashed` is permanently
    /// down? True exactly when some replica of each partition is live.
    pub fn survives_crash_of(&self, crashed: usize) -> bool {
        (0..self.nodes.len()).all(|p| self.placement(p).iter().any(|&s| s != crashed))
    }

    /// Run `job` against partition `p` with retry and failover.
    ///
    /// Without a fault plane the job runs once on the primary. With one,
    /// each replica in [`Cluster::placement`] order gets up to
    /// [`MAX_ATTEMPTS`] attempts; every injected fault costs a backoff
    /// delay on the plane's clock (doubling, capped) and is counted as a
    /// retry. A replica that exhausts its attempts triggers a failover to
    /// the next; when all replicas are exhausted the job fails closed with
    /// [`Error::NodeFailed`]. Genuine job errors (missing table, type
    /// error) propagate immediately — only *injected* faults are retried.
    pub fn run_recoverable<T>(
        &self,
        p: usize,
        faults: Option<&FaultPlane>,
        job: impl Fn(&Database) -> Result<T>,
    ) -> Result<(T, JobOutcome)> {
        let part = &self.nodes[p % self.nodes.len()];
        let Some(plane) = faults else {
            let v = job(part)?;
            return Ok((v, JobOutcome { served_by: p, ..Default::default() }));
        };
        let placement = self.placement(p);
        let replicas = placement.len();
        let mut outcome = JobOutcome { served_by: p, ..Default::default() };
        for (ri, &serving) in placement.iter().enumerate() {
            let mut backoff = 1u64;
            for _attempt in 0..MAX_ATTEMPTS {
                match plane.begin_job(serving) {
                    FaultEvent::None => {}
                    FaultEvent::Straggle(d) => plane.delay(d),
                    FaultEvent::Transient | FaultEvent::NodeDown => {
                        plane.count(|s| s.retries += 1);
                        outcome.retries += 1;
                        plane.delay(backoff);
                        backoff = (backoff * 2).min(MAX_BACKOFF_TICKS);
                        continue;
                    }
                }
                // Replicas hold byte-identical copies; the simulator reads
                // the single physical partition and charges `serving`.
                let v = job(part)?;
                outcome.served_by = serving;
                return Ok((v, outcome));
            }
            if ri + 1 < replicas {
                plane.count(|s| s.failovers += 1);
                outcome.failed_over = true;
            }
        }
        Err(Error::node_failed(format!(
            "partition {p}: all {replicas} replica(s) exhausted after {MAX_ATTEMPTS} attempts each"
        )))
    }

    /// Re-partition `table` on `column`: every row moves to the node
    /// `hash(value) % n`. Returns the number of rows that changed nodes —
    /// the tuples a real system would ship over the interconnect. Nodes
    /// that receive zero rows still get a full (empty) partition: schema,
    /// key and indexes are created everywhere, so later fragments never
    /// find the table missing.
    pub fn repartition(&mut self, table: &str, column: &str) -> Result<u64> {
        let n = self.nodes.len();
        let col = self.nodes[0].table(table)?.schema().resolve(column)?;
        // Collect every row with its current node.
        let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n];
        let mut shipped = 0u64;
        for (i, node_db) in self.nodes.iter().enumerate() {
            for row in node_db.table(table)?.rows() {
                let target = if row[col].is_null() {
                    0
                } else {
                    (hash_value(&row[col]) % n as u64) as usize
                };
                if target != i {
                    shipped += 1;
                }
                buckets[target].push(row.clone());
            }
        }
        // Rebuild each node's partition (preserving schema/key/indexes) in
        // parallel — the physical design is identical on every node, so
        // the rebuild jobs share one metadata snapshot.
        let meta = TableMeta::of(self.nodes[0].table(table)?);
        let pool = WorkerPool::new(n);
        for (node_db, part) in self
            .nodes
            .iter_mut()
            .zip(build_partitions(&pool, &meta, buckets))
        {
            node_db.drop_table(table)?;
            node_db.add_table(part?)?;
        }
        Ok(shipped)
    }

    /// Total rows of `table` across the cluster.
    pub fn total_rows(&self, table: &str) -> Result<usize> {
        let mut total = 0;
        for db in &self.nodes {
            total += db.table(table)?.len();
        }
        Ok(total)
    }

    /// Rows of `table` held by each node, in node order — the partition
    /// balance the [`crate::ParallelStats`] row-skew report starts from.
    pub fn rows_per_node(&self, table: &str) -> Result<Vec<u64>> {
        self.nodes
            .iter()
            .map(|db| Ok(db.table(table)?.len() as u64))
            .collect()
    }
}
