//! `decorr-server`: a multi-tenant SQL query service over the
//! decorrelation engine.
//!
//! The interactive shell of the earlier PRs assumed one user, one query at
//! a time, one process lifetime per database. This crate is the long-lived
//! version of that story, built from four layers:
//!
//! * [`catalog`] — a copy-on-write, epoch-versioned [`SharedCatalog`]:
//!   readers snapshot and are never blocked; `\load` / DDL / `ANALYZE`
//!   publish new epochs; each epoch lazily shares one cost model and the
//!   process-wide snapshot-keyed columnar cache.
//! * [`admission`] — [`AdmissionControl`]: execution slots, a bounded wait
//!   queue that sheds with typed [`Overloaded`](decorr_common::Error::Overloaded)
//!   errors, per-session quotas and a global memory pool.
//! * [`session`] — the reusable [`Session`] command loop grown out of
//!   `examples/sql_shell.rs`, with per-query cancel tokens (the
//!   sticky-cancel fix) and per-session settings.
//! * [`server`] / [`client`] / [`repl`] — a TCP line protocol
//!   (`;ok` / `;err` / `;bye` terminators), the matching blocking client,
//!   and a REPL driver that propagates input errors instead of treating
//!   them as EOF.

pub mod admission;
pub mod catalog;
pub mod client;
pub mod repl;
pub mod server;
pub mod session;

pub use admission::{AdmissionControl, AdmissionPermit, AdmissionStats, PoolLedger, Quotas};
pub use catalog::{CatalogVersion, SharedCatalog};
pub use client::{LineClient, Reply, ResilientClient, RetryPolicy, RetryStats, Status};
pub use repl::run_repl;
pub use server::{serve, NetSnapshot, ServerConfig, ServerHandle};
pub use session::{Control, Mode, Response, Session, SessionCanceller, SessionSettings};
