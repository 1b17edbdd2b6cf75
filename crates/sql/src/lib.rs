//! SQL frontend: lexer, parser, and binder lowering to QGM.
//!
//! The supported dialect is the subset the paper's queries use:
//!
//! * `SELECT [DISTINCT] items FROM items [WHERE e] [GROUP BY es] [HAVING e]`
//! * table references with aliases, parenthesized derived tables
//!   (`(query) AS dt(cols)` and the paper's `DT(cols) AS (query)` form),
//! * `UNION [ALL]`,
//! * scalar subqueries in expressions, `EXISTS` / `NOT EXISTS`,
//!   `[NOT] IN (subquery | value list)`, `op ANY / SOME / ALL (subquery)`,
//! * correlated references across any number of nesting levels,
//! * aggregates `COUNT(*) / COUNT / SUM / AVG / MIN / MAX`, `COALESCE`,
//!   `IS [NOT] NULL`, `BETWEEN`, arithmetic, `AND/OR/NOT`.
//!
//! [`parse`] yields an AST; [`bind`] lowers the AST into a
//! [`decorr_qgm::Qgm`] graph against a [`decorr_storage::Database`]
//! catalog. `parse_and_bind` is the one-call convenience.
//!
//! # Statement shapes
//!
//! The plan cache plans a statement's *shape* once: [`parameterize`]
//! turns literals into parameters, and statements differing only in
//! literals bind to one graph with one fingerprint. [`shape`] lets a
//! repeated shape skip that front end. Its [`shape::ShapeKey`] is the
//! token stream of [`lexer::tokenize`] with every number and string
//! literal replaced by one placeholder (keywords, `NULL` / `TRUE` /
//! `FALSE` included, identifiers, operators and punctuation verbatim; no
//! whitespace or comments). Its [`shape::Slots`] map each parameter to the
//! token of the literal it replaced, from exact provenance: the parser
//! records every literal's token index ([`parser::parse_tokens`]) and
//! [`param::parameterize_parsed`] reports which literal became which
//! parameter and which it left in place. A caller that has cached a key's
//! fingerprint and slots fills the next statement's bindings straight
//! from its tokens, with no parse, parameterize, bind or fingerprint.

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod param;
pub mod parser;
pub mod shape;

pub use ast::Query;
pub use binder::bind;
pub use param::parameterize;
pub use parser::parse;

use decorr_common::Result;
use decorr_qgm::Qgm;
use decorr_storage::Database;

/// Parse `sql` and bind it against `db`, producing a validated QGM.
pub fn parse_and_bind(sql: &str, db: &Database) -> Result<Qgm> {
    let query = parse(sql)?;
    let qgm = bind(&query, db)?;
    decorr_qgm::validate::validate(&qgm)?;
    Ok(qgm)
}
