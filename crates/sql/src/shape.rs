//! Statement shapes: what the front end computes from a statement's text
//! apart from its literal values.
//!
//! Two statements whose token streams differ only in their number and
//! string literals parse to the same AST up to those literals, so they
//! parameterize ([`crate::parameterize`]) to the same query, bind to the
//! same graph and share one fingerprint. A [`ShapeKey`] is that token
//! stream with every [`TokenKind::Number`] and [`TokenKind::StringLit`]
//! replaced by one placeholder; keywords (`NULL`, `TRUE` and `FALSE`
//! among them), identifiers, operators and punctuation stay verbatim, and
//! whitespace and comments never reach it because the lexer drops them.
//!
//! A key's [`Slots`] say how to rebuild the binding vector from a token
//! stream with that key. They come from exact provenance, not from token
//! order: the parser records each literal's token index
//! ([`crate::parser::Parsed`]) and the parameterizer reports which literal
//! became which parameter and which it left in place
//! ([`crate::param::Origins`]) — in an aggregating block the select list,
//! GROUP BY and HAVING stay literal, so a statement can have more literal
//! tokens than parameters. A kept literal is part of the parameterized
//! query, so its value is part of the shape: [`Slots::fill`] refuses a
//! statement whose kept literal differs, and the caller takes the full
//! path. [`Slots::verified`] builds the map and checks it against the
//! parameterizer's own bindings; any mismatch yields no slots at all.

use decorr_common::Value;

use crate::lexer::{Token, TokenKind};
use crate::param::Origins;

/// A statement's literal-normalised token stream, as bytes: per token a
/// tag, plus for text-carrying tokens the text and a `0xFF` terminator
/// (a byte no UTF-8 text contains).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey(Box<[u8]>);

const KEYWORD: u8 = 1;
const IDENT: u8 = 2;
const LITERAL: u8 = 3;
const OP: u8 = 4;
const END: u8 = 0xFF;

impl ShapeKey {
    pub fn new(tokens: &[Token<'_>]) -> ShapeKey {
        let mut key = Vec::with_capacity(tokens.len() * 6);
        let text = |key: &mut Vec<u8>, tag: u8, s: &str| {
            key.push(tag);
            key.extend_from_slice(s.as_bytes());
            key.push(END);
        };
        for t in tokens {
            match t.kind {
                TokenKind::Keyword(k) => text(&mut key, KEYWORD, k),
                TokenKind::Ident(i) => text(&mut key, IDENT, i),
                TokenKind::Op(o) => text(&mut key, OP, o),
                TokenKind::Number(_) | TokenKind::StringLit(_) => key.push(LITERAL),
                TokenKind::LParen => key.push(b'('),
                TokenKind::RParen => key.push(b')'),
                TokenKind::Comma => key.push(b','),
                TokenKind::Dot => key.push(b'.'),
                TokenKind::Star => key.push(b'*'),
                TokenKind::Plus => key.push(b'+'),
                TokenKind::Minus => key.push(b'-'),
                TokenKind::Slash => key.push(b'/'),
                TokenKind::Eof => {}
            }
        }
        ShapeKey(key.into_boxed_slice())
    }

    /// Retained size, for a cache's byte budget.
    pub fn bytes(&self) -> usize {
        self.0.len()
    }
}

/// How to read a statement's binding vector off its tokens: the token
/// index of each parameter's literal, and the token index and value of
/// each literal the parameterizer left in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Slots {
    params: Box<[u32]>,
    kept: Box<[(u32, Value)]>,
}

impl Slots {
    /// The slots of a statement that parameterized to `bindings`, with
    /// `origins` as its provenance. `None` unless rebuilding the bindings
    /// from `tokens` gives exactly `bindings`.
    pub fn verified(tokens: &[Token<'_>], origins: &Origins, bindings: &[Value]) -> Option<Slots> {
        let kept = origins.kept.iter().map(|&t| Some((t, literal(tokens, t)?)));
        let slots = Slots {
            params: origins.params.clone().into_boxed_slice(),
            kept: kept.collect::<Option<_>>()?,
        };
        let rebuilt = slots.fill(tokens)?;
        let same_all = rebuilt.len() == bindings.len()
            && rebuilt.iter().zip(bindings).all(|(a, b)| same(a, b));
        same_all.then_some(slots)
    }

    /// The binding vector of `tokens`, a stream with this shape's key.
    /// `None` if a kept literal differs from this shape's or a literal does
    /// not convert (an integer over `i64`): the statement then takes the
    /// full path, which gives its own answer or error.
    pub fn fill(&self, tokens: &[Token<'_>]) -> Option<Vec<Value>> {
        for (t, v) in self.kept.iter() {
            if !same(&literal(tokens, *t)?, v) {
                return None;
            }
        }
        self.params.iter().map(|&t| literal(tokens, t)).collect()
    }

    /// Approximate retained size, for a cache's byte budget. A kept string
    /// is a copy of its text, so it weighs its length too.
    pub fn bytes(&self) -> usize {
        let text = |v: &Value| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        };
        4 * self.params.len() + self.kept.iter().map(|(_, v)| 40 + text(v)).sum::<usize>()
    }
}

fn literal(tokens: &[Token<'_>], t: u32) -> Option<Value> {
    tokens.get(t as usize)?.kind.value()
}

/// Same type and same value. `Value`'s own equality makes `Int(1)` equal
/// `Double(1.0)`, but the two literals are different queries.
fn same(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::param::parameterize_parsed;
    use crate::parser::parse_tokens;

    fn key(sql: &str) -> ShapeKey {
        ShapeKey::new(&tokenize(sql).unwrap())
    }

    /// Slots of `sql`, and the bindings they read off `other`.
    fn fill(sql: &str, other: &str) -> Option<Vec<Value>> {
        let tokens = tokenize(sql).unwrap();
        let parsed = parse_tokens(&tokens).unwrap();
        let (_, bindings, origins) = parameterize_parsed(&parsed);
        let slots = Slots::verified(&tokens, &origins.unwrap(), &bindings).unwrap();
        assert_eq!(key(sql), key(other));
        slots.fill(&tokenize(other).unwrap())
    }

    #[test]
    fn literals_whitespace_and_comments_leave_the_key() {
        assert_eq!(
            key("SELECT t.x FROM t WHERE t.x > 5 AND t.y = 'red'"),
            key("select t.x  FROM t -- note\n WHERE t.x > 9.5 AND t.y = 'it''s'")
        );
        assert_ne!(key("SELECT t.x FROM t"), key("SELECT t.y FROM t"));
        assert_ne!(
            key("SELECT t.x FROM t WHERE t.b = TRUE"),
            key("SELECT t.x FROM t WHERE t.b = 1")
        );
        assert_ne!(key("SELECT x FROM t"), key("SELECT \"SELECT\" FROM t"));
    }

    #[test]
    fn slots_follow_provenance_not_token_order() {
        // The select-list literal of an aggregating block stays in place.
        let sql = "SELECT 2 * SUM(t.x) FROM t WHERE t.y > 7 AND t.z = 'a'";
        let got = fill(
            sql,
            "SELECT 2 * SUM(t.x) FROM t WHERE t.y > 8 AND t.z = 'it''s'",
        );
        assert_eq!(got, Some(vec![Value::Int(8), Value::str("it's")]));
        assert_eq!(
            fill(
                sql,
                "SELECT 3 * SUM(t.x) FROM t WHERE t.y > 8 AND t.z = 'b'"
            ),
            None
        );
        // `2.0` parses to another query than `2`.
        assert_eq!(
            fill(
                sql,
                "SELECT 2.0 * SUM(t.x) FROM t WHERE t.y > 8 AND t.z = 'b'"
            ),
            None
        );
    }

    #[test]
    fn keyword_literals_and_overflow() {
        let sql = "SELECT t.x FROM t WHERE t.b = TRUE AND t.x = - 5 AND t.c IS NULL";
        let got = fill(
            sql,
            "SELECT t.x FROM t WHERE t.b = TRUE AND t.x = - 6 AND t.c IS NULL",
        );
        assert_eq!(got, Some(vec![Value::Bool(true), Value::Int(6)]));
        let over =
            "SELECT t.x FROM t WHERE t.b = TRUE AND t.x = - 99999999999999999999 AND t.c IS NULL";
        assert_eq!(fill(sql, over), None);
    }

    #[test]
    fn a_kept_string_weighs_its_length() {
        let long = "x".repeat(4096);
        let sql = format!("SELECT COUNT(*) FROM t GROUP BY t.x HAVING MAX(t.y) > '{long}'");
        let tokens = tokenize(&sql).unwrap();
        let parsed = parse_tokens(&tokens).unwrap();
        let (_, bindings, origins) = parameterize_parsed(&parsed);
        let slots = Slots::verified(&tokens, &origins.unwrap(), &bindings).unwrap();
        assert_eq!(slots.kept.len(), 1);
        assert!(slots.bytes() >= long.len(), "{}", slots.bytes());
    }
}
