//! Recursive-descent parser.

use decorr_common::{Error, Result};

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a SQL query string into an AST.
pub fn parse(sql: &str) -> Result<Query> {
    Ok(parse_tokens(&tokenize(sql)?)?.query)
}

/// A parsed statement plus where its literals came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub query: Query,
    /// The token index of every [`AstExpr::Literal`], in the order the
    /// parser made them — which is the text order, and the order
    /// [`crate::parameterize`]'s walk visits them in.
    pub literals: Vec<u32>,
}

/// Parse a token stream (ending in [`TokenKind::Eof`], as [`tokenize`]
/// returns it), recording each literal's token index.
pub fn parse_tokens(tokens: &[Token<'_>]) -> Result<Parsed> {
    let mut p = Parser { tokens, pos: 0, literals: Vec::new() };
    let query = p.parse_query()?;
    p.expect_eof()?;
    Ok(Parsed { query, literals: p.literals })
}

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
    literals: Vec<u32>,
}

impl<'a> Parser<'_, 'a> {
    fn peek(&self) -> TokenKind<'a> {
        self.tokens[self.pos].kind
    }

    fn peek_ahead(&self, n: usize) -> TokenKind<'a> {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        self.tokens[i].kind
    }

    fn advance(&mut self) -> TokenKind<'a> {
        let t = self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error_here(&self, msg: &str) -> Error {
        let t = &self.tokens[self.pos];
        Error::parse(format!(
            "{msg}, found '{}' at line {}, column {}",
            t.kind, t.line, t.col
        ))
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(&format!("expected {kw}")))
        }
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error_here(&format!("expected '{kind}'")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error_here("expected end of query"))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name.to_string())
            }
            _ => Err(self.error_here("expected identifier")),
        }
    }

    // ---- queries -------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        let body = self.parse_set_expr()?;
        Ok(Query { body })
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_set_primary()?;
        while self.is_keyword("UNION") {
            self.advance();
            let all = self.eat_keyword("ALL");
            let right = self.parse_set_primary()?;
            left = SetExpr::Union { left: Box::new(left), right: Box::new(right), all };
        }
        Ok(left)
    }

    fn parse_set_primary(&mut self) -> Result<SetExpr> {
        if self.eat(TokenKind::LParen) {
            let inner = self.parse_set_expr()?;
            self.expect(TokenKind::RParen)?;
            Ok(inner)
        } else {
            Ok(SetExpr::Select(Box::new(self.parse_select()?)))
        }
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = vec![self.parse_select_item()?];
        while self.eat(TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = vec![self.parse_table_ref()?];
        while self.eat(TokenKind::Comma) {
            from.push(self.parse_table_ref()?);
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat(TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        if self.is_keyword("ORDER") {
            return Err(self.error_here("ORDER BY is not supported"));
        }
        Ok(Select { distinct, items, from, where_clause, group_by, having })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat(TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let TokenKind::Ident(name) = self.peek() {
            if self.peek_ahead(1) == TokenKind::Dot && self.peek_ahead(2) == TokenKind::Star {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name.to_string()));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let TokenKind::Ident(name) = self.peek() {
            self.advance();
            Some(name.to_string())
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if self.eat(TokenKind::LParen) {
            // (query) [AS] alias [(cols)]
            let query = self.parse_query()?;
            self.expect(TokenKind::RParen)?;
            let _ = self.eat_keyword("AS");
            let alias = self.expect_ident()?;
            let mut columns = Vec::new();
            if self.eat(TokenKind::LParen) {
                columns.push(self.expect_ident()?);
                while self.eat(TokenKind::Comma) {
                    columns.push(self.expect_ident()?);
                }
                self.expect(TokenKind::RParen)?;
            }
            return Ok(TableRef::Derived { query: Box::new(query), alias, columns });
        }
        let name = self.expect_ident()?;
        // Paper-style derived table: alias(cols) AS (query)
        if self.peek() == TokenKind::LParen {
            self.advance();
            let mut columns = vec![self.expect_ident()?];
            while self.eat(TokenKind::Comma) {
                columns.push(self.expect_ident()?);
            }
            self.expect(TokenKind::RParen)?;
            self.expect_keyword("AS")?;
            self.expect(TokenKind::LParen)?;
            let query = self.parse_query()?;
            self.expect(TokenKind::RParen)?;
            return Ok(TableRef::Derived { query: Box::new(query), alias: name, columns });
        }
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let TokenKind::Ident(a) = self.peek() {
            self.advance();
            Some(a.to_string())
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> Result<AstExpr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left =
                AstExpr::Binary { op: AstBinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left =
                AstExpr::Binary { op: AstBinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<AstExpr> {
        if self.eat_keyword("NOT") {
            // NOT EXISTS gets special-cased for a cleaner AST.
            if self.is_keyword("EXISTS") {
                self.advance();
                let query = self.parse_parenthesized_query()?;
                return Ok(AstExpr::Exists { query: Box::new(query), negated: true });
            }
            let inner = self.parse_not()?;
            return Ok(AstExpr::Unary { op: AstUnOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<AstExpr> {
        if self.is_keyword("EXISTS") {
            self.advance();
            let query = self.parse_parenthesized_query()?;
            return Ok(AstExpr::Exists { query: Box::new(query), negated: false });
        }
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(AstExpr::IsNull { expr: Box::new(left), negated });
        }

        // [NOT] BETWEEN / [NOT] IN
        let negated = if self.is_keyword("NOT")
            && matches!(self.peek_ahead(1), TokenKind::Keyword("BETWEEN" | "IN"))
        {
            self.advance();
            true
        } else {
            false
        };

        if self.eat_keyword("BETWEEN") {
            let lo = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let hi = self.parse_additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }

        if self.eat_keyword("IN") {
            self.expect(TokenKind::LParen)?;
            if self.starts_query() {
                let query = self.parse_query()?;
                self.expect(TokenKind::RParen)?;
                return Ok(AstExpr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = vec![self.parse_expr()?];
            while self.eat(TokenKind::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(TokenKind::RParen)?;
            return Ok(AstExpr::InList { expr: Box::new(left), list, negated });
        }

        if negated {
            return Err(self.error_here("expected BETWEEN or IN after NOT"));
        }

        // comparison operator (possibly quantified)
        if let TokenKind::Op(op) = self.peek() {
            self.advance();
            let cmp = match op {
                "=" => CmpOp::Eq,
                "<>" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                other => return Err(self.error_here(&format!("unknown operator '{other}'"))),
            };
            // quantified?
            if self.is_keyword("ANY") || self.is_keyword("SOME") || self.is_keyword("ALL") {
                let all = self.is_keyword("ALL");
                self.advance();
                let query = self.parse_parenthesized_query()?;
                return Ok(AstExpr::Quantified {
                    expr: Box::new(left),
                    op: cmp,
                    all,
                    query: Box::new(query),
                });
            }
            let right = self.parse_additive()?;
            let bin = match cmp {
                CmpOp::Eq => AstBinOp::Eq,
                CmpOp::Ne => AstBinOp::Ne,
                CmpOp::Lt => AstBinOp::Lt,
                CmpOp::Le => AstBinOp::Le,
                CmpOp::Gt => AstBinOp::Gt,
                CmpOp::Ge => AstBinOp::Ge,
            };
            return Ok(AstExpr::Binary { op: bin, left: Box::new(left), right: Box::new(right) });
        }

        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.eat(TokenKind::Plus) {
                AstBinOp::Add
            } else if self.eat(TokenKind::Minus) {
                AstBinOp::Sub
            } else {
                break;
            };
            let right = self.parse_multiplicative()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = if self.eat(TokenKind::Star) {
                AstBinOp::Mul
            } else if self.eat(TokenKind::Slash) {
                AstBinOp::Div
            } else {
                break;
            };
            let right = self.parse_unary()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<AstExpr> {
        if self.eat(TokenKind::Minus) {
            let inner = self.parse_unary()?;
            return Ok(AstExpr::Unary { op: AstUnOp::Neg, expr: Box::new(inner) });
        }
        self.parse_primary()
    }

    /// Does the current position start a query (for disambiguating
    /// parenthesized expressions from subqueries)? The caller has already
    /// consumed the opening parenthesis.
    fn starts_query(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword("SELECT") => true,
            TokenKind::LParen => {
                // Look through nested parens: "((SELECT..." is a query too.
                let mut i = 0usize;
                loop {
                    match self.peek_ahead(i) {
                        TokenKind::LParen => i += 1,
                        TokenKind::Keyword("SELECT") => return true,
                        _ => return false,
                    }
                }
            }
            _ => false,
        }
    }

    fn parse_parenthesized_query(&mut self) -> Result<Query> {
        self.expect(TokenKind::LParen)?;
        let q = self.parse_query()?;
        self.expect(TokenKind::RParen)?;
        Ok(q)
    }

    fn parse_primary(&mut self) -> Result<AstExpr> {
        match self.peek() {
            kind @ (TokenKind::Number(_)
            | TokenKind::StringLit(_)
            | TokenKind::Keyword("NULL" | "TRUE" | "FALSE")) => {
                self.literals.push(self.pos as u32);
                self.advance();
                // Only a number can fail: an integer over `i64`.
                let v = kind.value().ok_or_else(|| self.error_here("bad number"))?;
                Ok(AstExpr::Literal(v))
            }
            TokenKind::Keyword("COUNT") => {
                self.advance();
                self.expect(TokenKind::LParen)?;
                if self.eat(TokenKind::Star) {
                    self.expect(TokenKind::RParen)?;
                    return Ok(AstExpr::CountStar);
                }
                let distinct = self.eat_keyword("DISTINCT");
                let arg = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(AstExpr::Agg { func: AstAggFunc::Count, arg: Box::new(arg), distinct })
            }
            TokenKind::Keyword(k @ ("SUM" | "AVG" | "MIN" | "MAX")) => {
                self.advance();
                let func = match k {
                    "SUM" => AstAggFunc::Sum,
                    "AVG" => AstAggFunc::Avg,
                    "MIN" => AstAggFunc::Min,
                    _ => AstAggFunc::Max,
                };
                self.expect(TokenKind::LParen)?;
                let distinct = self.eat_keyword("DISTINCT");
                let arg = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(AstExpr::Agg { func, arg: Box::new(arg), distinct })
            }
            TokenKind::Keyword("COALESCE") => {
                self.advance();
                self.expect(TokenKind::LParen)?;
                let mut args = vec![self.parse_expr()?];
                while self.eat(TokenKind::Comma) {
                    args.push(self.parse_expr()?);
                }
                self.expect(TokenKind::RParen)?;
                Ok(AstExpr::Coalesce(args))
            }
            TokenKind::LParen => {
                self.advance();
                if self.starts_query() {
                    let q = self.parse_query()?;
                    self.expect(TokenKind::RParen)?;
                    Ok(AstExpr::Subquery(Box::new(q)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(TokenKind::RParen)?;
                    Ok(e)
                }
            }
            TokenKind::Ident(first) => {
                self.advance();
                if self.eat(TokenKind::Dot) {
                    let name = self.expect_ident()?;
                    Ok(AstExpr::Ident { qualifier: Some(first.to_string()), name })
                } else {
                    Ok(AstExpr::Ident { qualifier: None, name: first.to_string() })
                }
            }
            _ => Err(self.error_here("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT a, b AS bb FROM t WHERE a > 1").unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn the_paper_example_parses() {
        let q = parse(
            "Select D.name From Dept D \
             Where D.budget < 10000 and D.num_emps > \
             (Select Count(*) From Emp E Where D.building = E.building)",
        )
        .unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        let w = s.where_clause.unwrap();
        // AND of two predicates; RHS of second is a scalar subquery.
        let AstExpr::Binary { op: AstBinOp::And, right, .. } = w else {
            panic!()
        };
        let AstExpr::Binary { op: AstBinOp::Gt, right: sub, .. } = *right else {
            panic!()
        };
        assert!(matches!(*sub, AstExpr::Subquery(_)));
    }

    #[test]
    fn union_all_and_nesting() {
        let q =
            parse("(SELECT a FROM t) UNION ALL (SELECT b FROM u) UNION SELECT c FROM v").unwrap();
        let SetExpr::Union { all, left, .. } = q.body else {
            panic!()
        };
        assert!(!all); // outermost union is distinct
        assert!(matches!(*left, SetExpr::Union { all: true, .. }));
    }

    #[test]
    fn derived_tables_both_spellings() {
        let q1 = parse("SELECT x FROM (SELECT a AS x FROM t) AS d").unwrap();
        let SetExpr::Select(s1) = q1.body else {
            panic!()
        };
        assert!(matches!(&s1.from[0], TableRef::Derived { alias, .. } if alias == "d"));

        // the paper's "DT(sumbal) AS (SELECT ...)" spelling
        let q2 = parse("SELECT sumbal FROM DT(sumbal) AS (SELECT sum(b) FROM t)").unwrap();
        let SetExpr::Select(s2) = q2.body else {
            panic!()
        };
        match &s2.from[0] {
            TableRef::Derived { alias, columns, .. } => {
                assert_eq!(alias, "DT");
                assert_eq!(columns, &["sumbal"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantified_and_in() {
        let q =
            parse("SELECT a FROM t WHERE a > ALL (SELECT b FROM u) AND a IN (1, 2, 3)").unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        let AstExpr::Binary { op: AstBinOp::And, left, right } = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(
            *left,
            AstExpr::Quantified { all: true, op: CmpOp::Gt, .. }
        ));
        assert!(matches!(*right, AstExpr::InList { negated: false, .. }));
    }

    #[test]
    fn exists_and_not_exists() {
        let q = parse(
            "SELECT a FROM t WHERE EXISTS (SELECT b FROM u) AND NOT EXISTS (SELECT c FROM v)",
        )
        .unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        let AstExpr::Binary { left, right, .. } = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(*left, AstExpr::Exists { negated: false, .. }));
        assert!(matches!(*right, AstExpr::Exists { negated: true, .. }));
    }

    #[test]
    fn not_in_subquery() {
        let q = parse("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)").unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        assert!(matches!(
            s.where_clause.unwrap(),
            AstExpr::InSubquery { negated: true, .. }
        ));
    }

    #[test]
    fn group_by_having() {
        let q = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2").unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT 1 + 2 * 3 FROM t").unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        // Should parse as 1 + (2 * 3)
        let AstExpr::Binary { op: AstBinOp::Add, right, .. } = expr else {
            panic!()
        };
        assert!(matches!(**right, AstExpr::Binary { op: AstBinOp::Mul, .. }));
    }

    #[test]
    fn between_and_is_null() {
        let q = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL").unwrap();
        let SetExpr::Select(s) = q.body else { panic!() };
        let AstExpr::Binary { left, right, .. } = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(*left, AstExpr::Between { negated: false, .. }));
        assert!(matches!(*right, AstExpr::IsNull { negated: true, .. }));
    }

    #[test]
    fn wildcards() {
        let q = parse("SELECT *, s.* FROM s, t").unwrap();
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        assert!(matches!(sel.items[0], SelectItem::Wildcard));
        assert!(matches!(&sel.items[1], SelectItem::QualifiedWildcard(a) if a == "s"));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse("SELECT FROM").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(parse("SELECT a FROM t ORDER BY a").is_err());
        assert!(parse("SELECT a FROM t WHERE a NOT LIKE b").is_err());
    }

    #[test]
    fn union_inside_derived_table_with_double_parens() {
        // Q3's shape: DDT(bal) AS ((SELECT ...) UNION ALL (SELECT ...))
        let q = parse(
            "SELECT sumbal FROM DT(sumbal) AS (SELECT sum(bal) FROM DDT(bal) AS \
             ((SELECT a FROM c1) UNION ALL (SELECT b FROM c2)))",
        )
        .unwrap();
        let SetExpr::Select(_) = q.body else { panic!() };
    }
}
