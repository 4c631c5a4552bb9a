//! Abstract syntax tree for the supported SQL dialect.

use crate::expr::{BinaryOp, UnaryOp};

/// A parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    CreateTable {
        name: String,
        /// `(column name, SQL type name)` pairs.
        columns: Vec<(String, String)>,
        if_not_exists: bool,
    },
    Insert {
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// One expression list per `VALUES` row.
        rows: Vec<Vec<AstExpr>>,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    /// `BEGIN [TRANSACTION]` — open a multi-statement transaction.
    Begin,
    /// `COMMIT` — seal the open transaction's WAL record group.
    Commit,
    /// `ROLLBACK` — logically undo the open transaction.
    Rollback,
    /// `VACUUM` — rebuild the data file, reclaiming dead pages.
    Vacuum,
}

/// A `SELECT` query.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    /// Comma-separated FROM entries (implicit cross joins, like the
    /// generated ML-To-SQL queries use).
    pub from: Vec<TableRef>,
    pub selection: Option<AstExpr>,
    pub group_by: Vec<AstExpr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

/// One projection item.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// expression with optional alias
    Expr { expr: AstExpr, alias: Option<String> },
}

/// A FROM-clause relation.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    Table {
        name: String,
        alias: Option<String>,
    },
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
    /// `left [INNER] JOIN right ON cond` / `left CROSS JOIN right`.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: Option<AstExpr>,
    },
    /// `PREDICT(model, input, arg, …) [[AS] alias]`: the registered
    /// `model` applied to every row of the `input` table factor.
    Predict {
        model: String,
        input: Box<TableRef>,
        args: Vec<AstExpr>,
        alias: Option<String>,
    },
}

/// One ORDER BY key.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderItem {
    pub expr: AstExpr,
    pub asc: bool,
}

/// An unbound expression.
#[derive(Clone, Debug, PartialEq)]
pub enum AstExpr {
    /// Possibly-qualified column reference.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// Numeric literal (int/float decided at binding).
    Number(String),
    StringLit(String),
    BoolLit(bool),
    Binary {
        op: BinaryOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<AstExpr>,
    },
    /// Function call: scalar or aggregate, resolved at binding.
    /// `COUNT(*)` is represented with `wildcard_arg = true`.
    Function {
        name: String,
        args: Vec<AstExpr>,
        wildcard_arg: bool,
    },
    Case {
        /// Simple CASE operand (`CASE x WHEN v THEN ...`), if present.
        operand: Option<Box<AstExpr>>,
        whens: Vec<(AstExpr, AstExpr)>,
        else_expr: Option<Box<AstExpr>>,
    },
    Cast {
        expr: Box<AstExpr>,
        type_name: String,
    },
    Between {
        expr: Box<AstExpr>,
        low: Box<AstExpr>,
        high: Box<AstExpr>,
        negated: bool,
    },
}

impl AstExpr {
    pub fn col(name: &str) -> AstExpr {
        AstExpr::Column { qualifier: None, name: name.to_string() }
    }

    pub fn binary(op: BinaryOp, left: AstExpr, right: AstExpr) -> AstExpr {
        AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }
}
