//! # decorr — Complex Query Decorrelation
//!
//! A from-scratch Rust reproduction of *Complex Query Decorrelation*
//! (Seshadri, Pirahesh, Leung — ICDE 1996): the **magic decorrelation**
//! query rewrite over a Starburst-style Query Graph Model, the baseline
//! algorithms it was evaluated against (nested iteration, Kim's method,
//! Dayal's method, Ganski/Wong), a SQL frontend, an in-memory executor,
//! the TPC-D benchmark workload of the paper's Section 5, and a
//! shared-nothing parallel simulator for Section 6.
//!
//! ## Quickstart
//!
//! ```
//! use decorr::prelude::*;
//!
//! // 1. A database with the paper's EMP/DEPT example schema.
//! let mut db = Database::new();
//! db.create_table("dept", Schema::from_pairs(&[
//!     ("name", DataType::Str), ("budget", DataType::Double),
//!     ("num_emps", DataType::Int), ("building", DataType::Int),
//! ])).unwrap();
//! db.create_table("emp", Schema::from_pairs(&[
//!     ("name", DataType::Str), ("building", DataType::Int),
//! ])).unwrap();
//! db.table_mut("dept").unwrap().insert(decorr::row!["toys", 500.0, 1, 3]).unwrap();
//!
//! // 2. Parse + bind the paper's correlated query.
//! let qgm = parse_and_bind(
//!     "SELECT D.name FROM dept D WHERE D.budget < 10000 AND D.num_emps > \
//!      (SELECT COUNT(*) FROM emp E WHERE D.building = E.building)",
//!     &db,
//! ).unwrap();
//!
//! // 3. Decorrelate and execute: building 3 has no employees, yet the
//! //    department is (correctly) an answer — the COUNT bug repaired.
//! let decorrelated = apply_strategy(&qgm, Strategy::Magic).unwrap();
//! let (rows, stats) = execute(&db, &decorrelated).unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(stats.subquery_invocations, 0); // fully set-oriented
//! ```

pub mod choose;
pub mod figures;
pub mod plan_cache;

pub use decorr_common as common;
pub use decorr_core as core;
pub use decorr_exec as exec;
pub use decorr_parallel as parallel;
pub use decorr_qgm as qgm;
pub use decorr_sql as sql;
pub use decorr_stats as stats;
pub use decorr_storage as storage;
pub use decorr_tpcd as tpcd;

pub use decorr_common::row;

/// The most common imports in one place.
pub mod prelude {
    pub use decorr_common::{DataType, Error, ExecStats, Result, Row, Schema, Value};
    pub use decorr_core::{apply_strategy, magic_decorrelate, MagicOptions, Strategy};
    pub use decorr_exec::{execute, execute_with, ExecOptions, ScalarPlacement};
    pub use decorr_qgm::{print as qgm_print, validate::validate, Qgm};
    pub use decorr_sql::parse_and_bind;
    pub use decorr_storage::{Database, Table};

    pub use crate::choose::{
        audit_estimates, choose_strategy, choose_strategy_with, PlanChoice, StrategyEstimate,
    };
    pub use crate::plan_cache::{CachedPlan, PlanCache, PlanCacheStats};
    pub use decorr_exec::CostModel;
    pub use decorr_stats::Statistics;
}
