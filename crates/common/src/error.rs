//! Workspace-wide error type.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// The error type for every fallible operation in the engine.
///
/// Variants correspond to the phase that failed, which keeps error messages
/// actionable ("parse error at line 3" vs "unknown column") without pulling
/// in an external error-derive dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexing / parsing failure (position-annotated message).
    Parse(String),
    /// Name resolution / semantic analysis failure.
    Binding(String),
    /// Schema mismatch (arity, typing).
    Schema(String),
    /// Runtime type error during expression evaluation.
    Type(String),
    /// Runtime evaluation error (division by zero, overflow, ...).
    Eval(String),
    /// Catalog errors (unknown/duplicate table or index).
    Catalog(String),
    /// A rewrite rule was asked to do something it does not support
    /// (e.g. Kim's method on a non-linear query).
    Rewrite(String),
    /// The query's [`crate::CancelToken`] fired; execution stopped at the
    /// next morsel boundary with no result.
    Cancelled,
    /// The query's [`crate::Budget`] was exhausted before the result was
    /// produced.
    Timeout,
    /// An operator's output exceeds the hard ceiling the memory budget
    /// sets: spilling bounds working state, not the result.
    ResourceExhausted(String),
    /// A cluster node was unreachable and no live replica could serve its
    /// partitions — the query fails closed rather than returning a partial
    /// (wrong) answer.
    NodeFailed(String),
    /// The service shed the request under overload (execution slots and the
    /// bounded admission queue were both full, or the global memory pool
    /// could not cover the reservation). The query never started; retrying
    /// later is always safe.
    Overloaded(String),
    /// A per-session quota (concurrent queries, memory reservation size)
    /// was exceeded. Unlike [`Error::Overloaded`] this is attributable to
    /// the session's own demand, not global pressure.
    QuotaExceeded(String),
    /// The storage device is out of space (ENOSPC, real or injected).
    /// Fail-closed contract: no partial epoch is ever published, the store
    /// keeps serving reads, and an over-budget operator whose spill hits it
    /// runs in memory instead.
    StorageFull(String),
    /// A disk or network I/O operation failed (real or injected). Possibly
    /// transient: callers with an idempotent operation may retry.
    Io(String),
    /// Internal invariant violation — indicates a bug in this library.
    Internal(String),
}

impl Error {
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse(msg.into())
    }
    pub fn binding(msg: impl Into<String>) -> Self {
        Error::Binding(msg.into())
    }
    pub fn schema(msg: impl Into<String>) -> Self {
        Error::Schema(msg.into())
    }
    pub fn type_error(msg: impl Into<String>) -> Self {
        Error::Type(msg.into())
    }
    pub fn eval(msg: impl Into<String>) -> Self {
        Error::Eval(msg.into())
    }
    pub fn catalog(msg: impl Into<String>) -> Self {
        Error::Catalog(msg.into())
    }
    pub fn rewrite(msg: impl Into<String>) -> Self {
        Error::Rewrite(msg.into())
    }
    pub fn resource_exhausted(msg: impl Into<String>) -> Self {
        Error::ResourceExhausted(msg.into())
    }
    pub fn node_failed(msg: impl Into<String>) -> Self {
        Error::NodeFailed(msg.into())
    }
    pub fn overloaded(msg: impl Into<String>) -> Self {
        Error::Overloaded(msg.into())
    }
    pub fn quota(msg: impl Into<String>) -> Self {
        Error::QuotaExceeded(msg.into())
    }
    pub fn storage_full(msg: impl Into<String>) -> Self {
        Error::StorageFull(msg.into())
    }
    pub fn io(msg: impl Into<String>) -> Self {
        Error::Io(msg.into())
    }
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Binding(m) => write!(f, "binding error: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Rewrite(m) => write!(f, "rewrite error: {m}"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Timeout => write!(f, "query timeout: execution budget exhausted"),
            Error::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            Error::NodeFailed(m) => write!(f, "node failed: {m}"),
            Error::Overloaded(m) => write!(f, "overloaded: {m}"),
            Error::QuotaExceeded(m) => write!(f, "quota exceeded: {m}"),
            Error::StorageFull(m) => write!(f, "storage full: {m}"),
            Error::Io(m) => write!(f, "i/o error: {m}"),
            Error::Internal(m) => write!(f, "internal error (bug): {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase() {
        assert!(Error::parse("x").to_string().starts_with("parse error"));
        assert!(Error::internal("y").to_string().contains("bug"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::eval("z"));
    }
}
