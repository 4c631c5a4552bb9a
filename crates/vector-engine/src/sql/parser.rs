//! Recursive-descent SQL parser with precedence climbing for expressions.

use crate::error::{EngineError, Result};
use crate::expr::{BinaryOp, UnaryOp};
use crate::sql::ast::{AstExpr, OrderItem, SelectItem, SelectStmt, Statement, TableRef};
use crate::sql::lexer::{tokenize, Keyword, Token};

/// Parse exactly one statement (an optional trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.peek() == &Token::Semicolon {
        p.advance();
    }
    p.expect(Token::Eof)?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Token) -> bool {
        if self.peek() == &t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        self.eat(Token::Keyword(k))
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.peek() == &t {
            self.advance();
            Ok(())
        } else {
            Err(EngineError::Parse(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<()> {
        self.expect(Token::Keyword(k))
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => Err(EngineError::Parse(format!("expected {what}, found {other}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Keyword(Keyword::Select) => Ok(Statement::Select(self.select()?)),
            Token::Keyword(Keyword::Create) => self.create_table(),
            Token::Keyword(Keyword::Insert) => self.insert(),
            Token::Keyword(Keyword::Drop) => self.drop_table(),
            Token::Keyword(Keyword::Begin) => {
                self.advance();
                self.eat_kw(Keyword::Transaction);
                Ok(Statement::Begin)
            }
            Token::Keyword(Keyword::Commit) => {
                self.advance();
                Ok(Statement::Commit)
            }
            Token::Keyword(Keyword::Rollback) => {
                self.advance();
                Ok(Statement::Rollback)
            }
            Token::Keyword(Keyword::Vacuum) => {
                self.advance();
                Ok(Statement::Vacuum)
            }
            other => Err(EngineError::Parse(format!("expected a statement, found {other}"))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        self.expect_kw(Keyword::Table)?;
        let if_not_exists = if self.eat_kw(Keyword::If) {
            self.expect_kw(Keyword::Not)?;
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.expect_ident("table name")?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident("column name")?;
            let ty = self.expect_ident("type name")?;
            columns.push((col, ty));
            if !self.eat(Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        Ok(Statement::CreateTable { name, columns, if_not_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.expect_ident("table name")?;
        let columns = if self.peek() == &Token::LParen {
            self.advance();
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident("column name")?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.eat(Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Drop)?;
        self.expect_kw(Keyword::Table)?;
        let if_exists = if self.eat_kw(Keyword::If) {
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.expect_ident("table name")?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw(Keyword::Select)?;
        if self.eat_kw(Keyword::Distinct) {
            return Err(EngineError::Unsupported("SELECT DISTINCT".into()));
        }
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            loop {
                from.push(self.table_ref()?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw(Keyword::Where) { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw(Keyword::Desc) {
                    false
                } else {
                    self.eat_kw(Keyword::Asc);
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat(Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::Limit) {
            match self.advance() {
                Token::Number(n) => Some(
                    n.parse::<u64>()
                        .map_err(|_| EngineError::Parse(format!("invalid LIMIT value {n}")))?,
                ),
                other => {
                    return Err(EngineError::Parse(format!(
                        "expected a number after LIMIT, found {other}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt { items, from, selection, group_by, order_by, limit })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == &Token::Star {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let (Token::Ident(q), Token::Dot) = (self.peek(), self.peek2()) {
            if self.tokens.get(self.pos + 2) == Some(&Token::Star) {
                let q = q.clone();
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.expect_ident("alias")?)
        } else if let Token::Ident(_) = self.peek() {
            // bare alias
            Some(self.expect_ident("alias")?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut base = self.table_factor()?;
        loop {
            let is_cross = self.peek() == &Token::Keyword(Keyword::Cross);
            let is_inner = self.peek() == &Token::Keyword(Keyword::Inner);
            let is_join = self.peek() == &Token::Keyword(Keyword::Join);
            if !(is_cross || is_inner || is_join) {
                break;
            }
            if is_cross || is_inner {
                self.advance();
            }
            self.expect_kw(Keyword::Join)?;
            let right = self.table_factor()?;
            let on = if is_cross {
                None
            } else {
                self.expect_kw(Keyword::On)?;
                Some(self.expr()?)
            };
            base = TableRef::Join { left: Box::new(base), right: Box::new(right), on };
        }
        Ok(base)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat(Token::LParen) {
            let query = self.select()?;
            self.expect(Token::RParen)?;
            self.eat_kw(Keyword::As);
            let alias = self.expect_ident("subquery alias")?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.expect_ident("table name")?;
        // A table function: an identifier followed by `(`, so `PREDICT`
        // needs no reserved word.
        if self.eat(Token::LParen) {
            if !name.eq_ignore_ascii_case("predict") {
                return Err(EngineError::Parse(format!("unknown table function {name:?}")));
            }
            let model = self.expect_ident("model name")?;
            self.expect(Token::Comma)?;
            let input = Box::new(self.table_factor()?);
            let mut args = Vec::new();
            while self.eat(Token::Comma) {
                args.push(self.expr()?);
            }
            self.expect(Token::RParen)?;
            let alias = self.table_alias()?;
            return Ok(TableRef::Predict { model, input, args, alias });
        }
        let alias = self.table_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    /// An optional `[AS] alias` after a table or table function.
    fn table_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Keyword::As) || matches!(self.peek(), Token::Ident(_)) {
            return self.expect_ident("table alias").map(Some);
        }
        Ok(None)
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw(Keyword::Or) {
            let right = self.and_expr()?;
            left = AstExpr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw(Keyword::And) {
            let right = self.not_expr()?;
            left = AstExpr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw(Keyword::Not) {
            let inner = self.not_expr()?;
            return Ok(AstExpr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        let negated = if self.peek() == &Token::Keyword(Keyword::Not)
            && self.peek2() == &Token::Keyword(Keyword::Between)
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::Between) {
            let low = self.additive()?;
            self.expect_kw(Keyword::And)?;
            let high = self.additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(EngineError::Parse("expected BETWEEN after NOT".into()));
        }
        let op = match self.peek() {
            Token::Eq => BinaryOp::Eq,
            Token::NotEq => BinaryOp::NotEq,
            Token::Lt => BinaryOp::Lt,
            Token::LtEq => BinaryOp::LtEq,
            Token::Gt => BinaryOp::Gt,
            Token::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(AstExpr::binary(op, left, right))
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = AstExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = AstExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.eat(Token::Minus) {
            let inner = self.unary()?;
            return Ok(AstExpr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat(Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.advance() {
            Token::Number(n) => Ok(AstExpr::Number(n)),
            Token::StringLit(s) => Ok(AstExpr::StringLit(s)),
            Token::Keyword(Keyword::True) => Ok(AstExpr::BoolLit(true)),
            Token::Keyword(Keyword::False) => Ok(AstExpr::BoolLit(false)),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(Keyword::Case) => self.case_expr(),
            Token::Keyword(Keyword::Cast) => {
                self.expect(Token::LParen)?;
                let e = self.expr()?;
                self.expect_kw(Keyword::As)?;
                let type_name = self.expect_ident("type name")?;
                self.expect(Token::RParen)?;
                Ok(AstExpr::Cast { expr: Box::new(e), type_name })
            }
            Token::Ident(name) => {
                if self.peek() == &Token::LParen {
                    self.advance();
                    // COUNT(*)
                    if self.peek() == &Token::Star {
                        self.advance();
                        self.expect(Token::RParen)?;
                        return Ok(AstExpr::Function {
                            name,
                            args: Vec::new(),
                            wildcard_arg: true,
                        });
                    }
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Token::RParen)?;
                    return Ok(AstExpr::Function { name, args, wildcard_arg: false });
                }
                if self.eat(Token::Dot) {
                    let col = self.expect_ident("column name")?;
                    return Ok(AstExpr::Column { qualifier: Some(name), name: col });
                }
                Ok(AstExpr::Column { qualifier: None, name })
            }
            other => Err(EngineError::Parse(format!("unexpected {other} in expression"))),
        }
    }

    fn case_expr(&mut self) -> Result<AstExpr> {
        let operand = if self.peek() != &Token::Keyword(Keyword::When) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut whens = Vec::new();
        while self.eat_kw(Keyword::When) {
            let cond = self.expr()?;
            self.expect_kw(Keyword::Then)?;
            let value = self.expr()?;
            whens.push((cond, value));
        }
        if whens.is_empty() {
            return Err(EngineError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_expr =
            if self.eat_kw(Keyword::Else) { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw(Keyword::End)?;
        Ok(AstExpr::Case { operand, whens, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = select("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a DESC LIMIT 5");
        assert_eq!(s.items.len(), 2);
        assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "bee"));
        assert!(s.selection.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].asc);
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn wildcards() {
        let s = select("SELECT *, t.* FROM t");
        assert_eq!(s.items[0], SelectItem::Wildcard);
        assert_eq!(s.items[1], SelectItem::QualifiedWildcard("t".into()));
    }

    #[test]
    fn comma_cross_join_and_aliases() {
        let s = select("SELECT * FROM input_table as data, model_table model");
        assert_eq!(s.from.len(), 2);
        assert!(
            matches!(&s.from[0], TableRef::Table { name, alias: Some(a) } if name == "input_table" && a == "data")
        );
        assert!(matches!(&s.from[1], TableRef::Table { alias: Some(a), .. } if a == "model"));
    }

    #[test]
    fn explicit_joins() {
        let s = select("SELECT * FROM a JOIN b ON a.x = b.y CROSS JOIN c");
        assert_eq!(s.from.len(), 1);
        let TableRef::Join { left, on, .. } = &s.from[0] else { panic!("expected join") };
        assert!(on.is_none()); // outermost is the CROSS JOIN
        let TableRef::Join { on: Some(_), .. } = left.as_ref() else {
            panic!("expected inner join with ON")
        };
    }

    #[test]
    fn nested_subquery_in_from() {
        let s = select("SELECT id FROM (SELECT id FROM t WHERE id > 0) AS sub");
        let TableRef::Subquery { alias, query } = &s.from[0] else { panic!("expected subquery") };
        assert_eq!(alias, "sub");
        assert!(query.selection.is_some());
    }

    #[test]
    fn subquery_requires_alias() {
        assert!(parse_statement("SELECT * FROM (SELECT 1)").is_err());
    }

    #[test]
    fn group_by_and_aggregates() {
        let s = select("SELECT id, SUM(v * w) AS s, COUNT(*) FROM t GROUP BY id, layer");
        assert_eq!(s.group_by.len(), 2);
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr { expr: AstExpr::Function { name, .. }, .. } if name == "sum"
        ));
        assert!(matches!(
            &s.items[2],
            SelectItem::Expr { expr: AstExpr::Function { wildcard_arg: true, .. }, .. }
        ));
    }

    #[test]
    fn case_forms() {
        let searched = select("SELECT CASE WHEN a = 1 THEN x WHEN a = 2 THEN y ELSE z END FROM t");
        let SelectItem::Expr { expr: AstExpr::Case { operand, whens, else_expr }, .. } =
            &searched.items[0]
        else {
            panic!("expected case")
        };
        assert!(operand.is_none());
        assert_eq!(whens.len(), 2);
        assert!(else_expr.is_some());

        let simple = select("SELECT CASE node WHEN 0 THEN c0 END FROM t");
        let SelectItem::Expr { expr: AstExpr::Case { operand, .. }, .. } = &simple.items[0] else {
            panic!("expected case")
        };
        assert!(operand.is_some());
    }

    #[test]
    fn operator_precedence() {
        let s = select("SELECT a + b * c - d FROM t");
        // Expect (a + (b*c)) - d
        let SelectItem::Expr { expr, .. } = &s.items[0] else { panic!() };
        let AstExpr::Binary { op: BinaryOp::Sub, left, .. } = expr else {
            panic!("expected top-level Sub, got {expr:?}")
        };
        let AstExpr::Binary { op: BinaryOp::Add, right, .. } = left.as_ref() else {
            panic!("expected Add on the left")
        };
        assert!(matches!(right.as_ref(), AstExpr::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn between_desugars_later_but_parses_now() {
        let s = select("SELECT * FROM t WHERE node BETWEEN 3 AND 7 AND x NOT BETWEEN 0 AND 1");
        let Some(AstExpr::Binary { op: BinaryOp::And, left, right }) = &s.selection else {
            panic!()
        };
        assert!(matches!(left.as_ref(), AstExpr::Between { negated: false, .. }));
        assert!(matches!(right.as_ref(), AstExpr::Between { negated: true, .. }));
    }

    #[test]
    fn create_insert_drop() {
        let c = parse_statement("CREATE TABLE IF NOT EXISTS m (layer INT, w FLOAT, name VARCHAR)")
            .unwrap();
        assert!(
            matches!(c, Statement::CreateTable { if_not_exists: true, ref columns, .. } if columns.len() == 3)
        );

        let i = parse_statement("INSERT INTO m (layer, w) VALUES (1, 0.5), (2, -0.25)").unwrap();
        let Statement::Insert { columns: Some(cols), rows, .. } = i else { panic!() };
        assert_eq!(cols.len(), 2);
        assert_eq!(rows.len(), 2);

        let d = parse_statement("DROP TABLE IF EXISTS m;").unwrap();
        assert!(matches!(d, Statement::DropTable { if_exists: true, .. }));
    }

    #[test]
    fn negative_literals_via_unary_minus() {
        let s = select("SELECT -1, -x FROM t WHERE layer_in = -1");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { expr: AstExpr::Unary { op: UnaryOp::Neg, .. }, .. }
        ));
    }

    #[test]
    fn rejects_trailing_tokens_and_unknown_statements() {
        assert!(parse_statement("SELECT 1 SELECT 2").is_err());
        assert!(parse_statement("UPDATE t SET x = 1").is_err());
        assert!(parse_statement("SELECT DISTINCT a FROM t").is_err());
    }

    #[test]
    fn deeply_nested_ml2sql_shape_parses() {
        // The structural skeleton of a generated ModelJoin query.
        let sql = "
            SELECT id, node, layer, s + bias AS output FROM
              (SELECT id, model.node AS node, model.layer AS layer,
                      SUM(input.output_activated * model.w_i) AS s,
                      model.b_i AS bias
               FROM (SELECT id, layer, node, CASE
                        WHEN node = 0 THEN c0
                        WHEN node = 1 THEN c1
                     END AS output_activated
                     FROM input_table AS data, model_table AS model
                     WHERE model.node_in = -1) AS input,
                    model_table AS model
               WHERE input.node = model.node_in AND input.layer = model.layer_in
               GROUP BY id, model.node, model.layer, model.b_i) t";
        let s = select(sql);
        assert_eq!(s.items.len(), 4);
    }
}
