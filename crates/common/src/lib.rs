//! Common foundation types for the magic-decorrelation workspace.
//!
//! This crate holds everything that more than one layer of the system needs:
//!
//! * [`Value`] — the dynamically typed SQL value with NULL and three-valued
//!   comparison semantics (see [`value`]),
//! * [`Row`] — a tuple of values (see [`row`](mod@row)),
//! * [`Schema`] / [`DataType`] — relation schemas (see [`schema`]),
//! * [`Error`] — the workspace-wide error type (see [`error`]),
//! * [`FxHashMap`] / [`FxHashSet`] — fast non-cryptographic hash containers
//!   used on all hot paths (see [`hash`]),
//! * [`ExecStats`] — deterministic work counters that every executor
//!   operation reports into (see [`stats`]),
//! * [`JsonWriter`] — a dependency-free JSON writer for the observability
//!   traces (see [`json`]),
//! * [`WorkerPool`] — the work-stealing-free morsel scheduler behind
//!   intra-query parallelism and parallel cluster maintenance (see
//!   [`pool`]),
//! * [`ColumnarBatch`] — typed column vectors with null bitmaps,
//!   dictionary-encoded strings and selection vectors, plus the
//!   vectorized filter/hash/gather/aggregate kernels the executor's
//!   columnar path is built from (see [`columnar`]).
//!
//! Nothing in this crate knows about query plans or storage; it is the
//! bottom of the dependency graph.

pub mod columnar;
pub mod env;
pub mod error;
pub mod fault;
pub mod govern;
pub mod hash;
pub mod json;
pub mod pool;
pub mod row;
pub mod schema;
pub mod segcodec;
pub mod stats;
pub mod value;

pub use columnar::{CmpOp, ColPredicate, Column, ColumnarBatch, SelVec};
pub use env::{ChaosEnv, EnvFile, RealEnv, StorageEnv};
pub use error::{Error, Result};
pub use fault::{CrashWindow, FaultEvent, FaultPlane, FaultRates, FaultStats, NetFault};
pub use govern::{Budget, CancelToken, Clock};
pub use hash::{mix64, splitmix64, FxHashMap, FxHashSet, FxHasher};
pub use json::JsonWriter;
pub use pool::{WorkerPool, MORSEL_ROWS};
pub use row::{Row, RowBatch};
pub use schema::{ColumnDef, DataType, Schema};
pub use segcodec::ZoneMap;
pub use stats::ExecStats;
pub use value::Value;
