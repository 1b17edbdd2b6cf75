//! The Query Graph Model (QGM) — the plan intermediate representation of
//! the Starburst extensible DBMS, as used by the paper *Complex Query
//! Decorrelation* (Seshadri, Pirahesh, Leung; ICDE 1996).
//!
//! A query is a graph of **boxes** (query blocks): Select-Project-Join
//! (SPJ), Grouping (GROUP BY + aggregates), Union, left OuterJoin, and
//! BaseTable leaves. Boxes consume their inputs through **quantifiers**
//! (the paper's *iterators*): a quantifier is a handle on the output table
//! of a child box, with one of four bindings —
//!
//! * `Foreach` (`F`) — ranges over every tuple (the FROM clause),
//! * `Existential` (`E`) — EXISTS / IN / `op ANY` subqueries,
//! * `All` (`A`) — `op ALL` subqueries,
//! * `Scalar` — scalar subqueries expected to yield at most one row.
//!
//! Expressions ([`expr::Expr`]) reference columns as
//! `(quantifier, output-position)`. A **correlation** is a column reference
//! inside a box to a quantifier owned by an *ancestor* box — exactly the
//! paper's Section 3.1 definition. [`correlation`] computes the
//! sources/destinations of correlation; [`validate`] checks graph
//! consistency after every rewrite; [`print`](mod@print) renders the graph in a
//! diagram-like text format used to reproduce the paper's Figures 1–4.

pub mod correlation;
pub mod expr;
pub mod graph;
pub mod print;
pub mod validate;

pub use correlation::{CorrelationMap, Traversal};
pub use expr::{AggFunc, BinOp, Expr, Func, UnOp};
pub use graph::{BoxId, BoxKind, OutputCol, Qgm, QgmBox, QuantId, QuantKind, Quantifier};
