//! Shared-nothing parallel execution (paper Section 6).
//!
//! "In shared-nothing parallel database systems, the nested iteration
//! approach results in an added performance penalty, since it inhibits the
//! potential for intra-query parallelism. ... if n is the number of nodes,
//! nested iteration can result in O(n²) computation fragments."
//!
//! This crate reproduces that analysis over real execution:
//!
//! * [`Cluster`] hash-partitions a [`decorr_storage::Database`] over *n*
//!   simulated nodes (initially by primary key — the paper's "these
//!   scenarios do not apply" case where neither table is partitioned on
//!   the correlation attribute);
//! * [`ni::run_nested_iteration`] executes a correlated aggregate query
//!   the way a shared-nothing system must: each node iterates its outer
//!   partition and **broadcasts** every correlation binding to all nodes,
//!   which each run a local subquery fragment — O(n²) fragments and
//!   2·(n−1) messages per binding;
//! * [`decorrelated::run_decorrelated`] first applies magic decorrelation,
//!   **repartitions** the participating tables on the correlation
//!   attribute (counting every shipped row), and then runs the
//!   decorrelated plan *independently on every node* — O(n) fragments and
//!   no execution-time communication, exactly the Section 6.2 plan.
//!
//! Node fragments run on real threads via the shared
//! [`decorr_common::WorkerPool`] (std scoped threads, one job per node);
//! the returned [`ParallelStats`] carries communication counters, per-node
//! work, and per-node result rows (row skew).

//! Fault tolerance (this crate's robustness layer): [`Cluster`] can place
//! every partition on `k` consecutive nodes
//! ([`Cluster::partition_by_key_replicated`]) and drive any per-partition
//! job through [`Cluster::run_recoverable`] — bounded retry with
//! exponential backoff on an injected logical clock, then failover to a
//! replica, then a closed [`decorr_common::Error::NodeFailed`] failure.
//! Faults come from the node sites of a seeded
//! [`decorr_common::FaultPlane`], so every chaos run replays exactly from
//! its `u64` seed; [`gather::run_gathered`] uses
//! this to execute the figure queries under injected crashes with
//! byte-identical recovery whenever a live replica remains.

pub mod cluster;
pub mod decorrelated;
pub mod gather;
pub mod ni;
pub mod stats;

pub use cluster::{Cluster, JobOutcome, MAX_ATTEMPTS};
pub use decorrelated::{run_decorrelated, run_decorrelated_with};
pub use gather::run_gathered;
pub use ni::{run_nested_iteration, run_nested_iteration_with};
pub use stats::ParallelStats;
