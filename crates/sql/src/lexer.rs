//! SQL tokenizer.
//!
//! [`tokenize`] makes one pass over the text and allocates nothing but the
//! token vector: a [`Token`] borrows its identifier, number or string text
//! from the input, and keywords and operators are `&'static str`s from
//! fixed tables (a keyword is recognised case-insensitively and stored as
//! the table's uppercase spelling). Whitespace, `;` and `--` comments never
//! become tokens.
//!
//! The token stream is also what a statement's *shape* is read from
//! ([`crate::shape`]): the same stream with every [`TokenKind::Number`] and
//! [`TokenKind::StringLit`] replaced by one placeholder. A literal's value
//! is read back off its token by [`TokenKind::value`], the one conversion
//! the parser and the shape's slot filler share.

use std::fmt;

use decorr_common::{Error, Result, Value};

/// A lexical token with its source position (for error messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    /// 1-based line and column of the token start.
    pub line: u32,
    pub col: u32,
}

/// Token kinds. Text-carrying kinds borrow from the tokenized input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// A keyword in the uppercase spelling of the keyword table.
    Keyword(&'static str),
    /// An identifier as written, or a delimited identifier's inner text.
    Ident(&'a str),
    /// Digits, optionally with one `.` followed by digits.
    Number(&'a str),
    /// A string literal's text between the quotes, with `''` escapes still
    /// doubled ([`TokenKind::value`] unescapes them).
    StringLit(&'a str),
    /// `= <> < <= > >=` (`!=` is normalized to `<>`).
    Op(&'static str),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Ident(i) => write!(f, "{i}"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::Op(o) => write!(f, "{o}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

impl TokenKind<'_> {
    /// The value of a literal token: a number (`Double` if it has a `.`,
    /// else `Int`), a string with `''` unescaped, `NULL`, `TRUE` or
    /// `FALSE`. `None` for any other token and for an integer that does
    /// not fit an `i64`.
    pub fn value(&self) -> Option<Value> {
        match *self {
            TokenKind::Number(text) if text.contains('.') => text.parse().ok().map(Value::Double),
            TokenKind::Number(text) => text.parse().ok().map(Value::Int),
            TokenKind::StringLit(raw) if raw.contains('\'') => {
                Some(Value::str(raw.replace("''", "'")))
            }
            TokenKind::StringLit(raw) => Some(Value::str(raw)),
            TokenKind::Keyword("NULL") => Some(Value::Null),
            TokenKind::Keyword("TRUE") => Some(Value::Bool(true)),
            TokenKind::Keyword("FALSE") => Some(Value::Bool(false)),
            _ => None,
        }
    }
}

/// The keyword table: a word of at most [`LONGEST_KEYWORD`] bytes is
/// matched against it after ASCII uppercasing into a stack buffer.
fn keyword(upper: &[u8]) -> Option<&'static str> {
    Some(match upper {
        b"SELECT" => "SELECT",
        b"DISTINCT" => "DISTINCT",
        b"FROM" => "FROM",
        b"WHERE" => "WHERE",
        b"GROUP" => "GROUP",
        b"BY" => "BY",
        b"HAVING" => "HAVING",
        b"UNION" => "UNION",
        b"ALL" => "ALL",
        b"AS" => "AS",
        b"AND" => "AND",
        b"OR" => "OR",
        b"NOT" => "NOT",
        b"IN" => "IN",
        b"EXISTS" => "EXISTS",
        b"ANY" => "ANY",
        b"SOME" => "SOME",
        b"IS" => "IS",
        b"NULL" => "NULL",
        b"TRUE" => "TRUE",
        b"FALSE" => "FALSE",
        b"BETWEEN" => "BETWEEN",
        b"COUNT" => "COUNT",
        b"SUM" => "SUM",
        b"AVG" => "AVG",
        b"MIN" => "MIN",
        b"MAX" => "MAX",
        b"COALESCE" => "COALESCE",
        b"ORDER" => "ORDER",
        b"ASC" => "ASC",
        b"DESC" => "DESC",
        _ => return None,
    })
}

/// Length of the longest keyword (`DISTINCT`, `COALESCE`).
const LONGEST_KEYWORD: usize = 8;

/// Tokenize a SQL string. The tokens borrow from `sql`.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>> {
    // Typical SQL has about one token per four bytes: one allocation.
    let mut tokens = Vec::with_capacity(sql.len() / 4 + 2);
    let bytes = sql.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            tokens.push(Token { kind: $kind, line, col });
            col += $len as u32;
            i += $len;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push!(TokenKind::LParen, 1),
            ')' => push!(TokenKind::RParen, 1),
            ',' => push!(TokenKind::Comma, 1),
            '.' => push!(TokenKind::Dot, 1),
            '*' => push!(TokenKind::Star, 1),
            '+' => push!(TokenKind::Plus, 1),
            '-' => push!(TokenKind::Minus, 1),
            '/' => push!(TokenKind::Slash, 1),
            ';' => {
                i += 1;
                col += 1;
            }
            '=' => push!(TokenKind::Op("="), 1),
            '<' | '>' | '!' => {
                // Peek the next byte only (ASCII operators, so byte-level
                // inspection is UTF-8 safe).
                let next = bytes.get(i + 1).copied();
                let (op, len) = match (c, next) {
                    ('<', Some(b'=')) => ("<=", 2),
                    ('>', Some(b'=')) => (">=", 2),
                    ('<', Some(b'>')) => ("<>", 2),
                    ('!', Some(b'=')) => ("<>", 2),
                    ('!', _) => {
                        return Err(Error::parse(format!(
                            "unexpected '!' at line {line}, column {col}"
                        )))
                    }
                    ('<', _) => ("<", 1),
                    (_, _) => (">", 1),
                };
                push!(TokenKind::Op(op), len);
            }
            '\'' => {
                // String literal; '' escapes a quote. The delimiters are
                // ASCII, so scanning bytes and slicing at quote positions
                // is UTF-8 safe and preserves multibyte content.
                let start = i;
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::parse(format!(
                            "unterminated string literal at line {line}, column {col}"
                        )));
                    }
                    if bytes[i] == b'\'' {
                        if bytes.get(i + 1) == Some(&b'\'') {
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                let raw = &sql[start + 1..i - 1];
                tokens.push(Token { kind: TokenKind::StringLit(raw), line, col });
                col += (i - start) as u32;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1].is_ascii_digit()
                {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                tokens.push(Token { kind: TokenKind::Number(&sql[start..i]), line, col });
                col += (i - start) as u32;
            }
            '"' => {
                // delimited identifier (ASCII delimiter: byte scan is
                // UTF-8 safe)
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(Error::parse(format!(
                        "unterminated delimited identifier at line {line}, column {col}"
                    )));
                }
                i += 1;
                let name = &sql[start + 1..i - 1];
                tokens.push(Token { kind: TokenKind::Ident(name), line, col });
                col += (i - start) as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'#')
                {
                    i += 1;
                }
                let word = &sql[start..i];
                let mut upper = [0u8; LONGEST_KEYWORD];
                let kw = (word.len() <= LONGEST_KEYWORD)
                    .then(|| {
                        let upper = &mut upper[..word.len()];
                        upper.copy_from_slice(word.as_bytes());
                        upper.make_ascii_uppercase();
                        keyword(upper)
                    })
                    .flatten();
                let kind = kw.map_or(TokenKind::Ident(word), TokenKind::Keyword);
                tokens.push(Token { kind, line, col });
                col += (i - start) as u32;
            }
            _ => {
                // Decode the full (possibly multibyte) character for the
                // error message.
                let ch = sql[i..].chars().next().unwrap_or('\u{fffd}');
                return Err(Error::parse(format!(
                    "unexpected character '{ch}' at line {line}, column {col}"
                )));
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, line, col });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let ks = kinds("SELECT a.b, 12 FROM t WHERE x >= 1.5");
        assert_eq!(ks[0], TokenKind::Keyword("SELECT"));
        assert!(ks.contains(&TokenKind::Dot));
        assert!(ks.contains(&TokenKind::Number("12")));
        assert!(ks.contains(&TokenKind::Op(">=")));
        assert!(ks.contains(&TokenKind::Number("1.5")));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn string_literals_and_escapes() {
        let ks = kinds("'FRANCE' 'it''s'");
        assert_eq!(ks[0].value(), Some(Value::str("FRANCE")));
        assert_eq!(ks[1], TokenKind::StringLit("it''s"));
        assert_eq!(ks[1].value(), Some(Value::str("it's")));
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn literal_values() {
        let ks = kinds("7 2.5 99999999999999999999 NULL true FALSE x");
        assert!(matches!(ks[0].value(), Some(Value::Int(7))));
        assert!(matches!(ks[1].value(), Some(Value::Double(d)) if d == 2.5));
        assert_eq!(ks[2].value(), None, "i64 overflow");
        assert!(matches!(ks[3].value(), Some(Value::Null)));
        assert!(matches!(ks[4].value(), Some(Value::Bool(true))));
        assert!(matches!(ks[5].value(), Some(Value::Bool(false))));
        assert_eq!(ks[6].value(), None);
    }

    #[test]
    fn keywords_case_insensitive_identifiers_preserved() {
        let ks = kinds("select Foo coalesce coalesced");
        assert_eq!(ks[0], TokenKind::Keyword("SELECT"));
        assert_eq!(ks[1], TokenKind::Ident("Foo"));
        assert_eq!(ks[2], TokenKind::Keyword("COALESCE"));
        assert_eq!(ks[3], TokenKind::Ident("coalesced"));
    }

    #[test]
    fn comments_skipped() {
        let ks = kinds("SELECT -- comment\n 1");
        assert_eq!(ks.len(), 3); // SELECT, 1, EOF
    }

    #[test]
    fn neq_normalized() {
        assert_eq!(kinds("a != b")[1], TokenKind::Op("<>"));
        assert_eq!(kinds("a <> b")[1], TokenKind::Op("<>"));
    }

    #[test]
    fn identifiers_with_hash() {
        // TPC-D brand literals like Brand#23 appear in identifiers/strings.
        let ks = kinds("Brand#23");
        assert_eq!(ks[0], TokenKind::Ident("Brand#23"));
    }

    #[test]
    fn positions_reported() {
        let ts = tokenize("SELECT\n  x").unwrap();
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }
}
