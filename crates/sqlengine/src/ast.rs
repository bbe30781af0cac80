//! Abstract syntax tree for the supported SQL subset.
//!
//! Expression nodes carry the byte [`Span`] of the source text they were
//! parsed from so the semantic analyzer can attach precise locations to
//! diagnostics. Spans compare equal to each other unconditionally, so AST
//! equality stays purely structural.

use crate::error::Span;
use crate::value::{DataType, Value};

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT` query (possibly with CTEs and set operations).
    Query(Query),
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    DropTable {
        name: String,
        if_exists: bool,
    },
    /// `CREATE TABLE name AS SELECT ...` — materialize a query result.
    CreateTableAs {
        name: String,
        if_not_exists: bool,
        query: Query,
    },
    Insert(Insert),
    Delete {
        table: String,
        table_span: Span,
        predicate: Option<Expr>,
    },
    Update {
        table: String,
        table_span: Span,
        assignments: Vec<(String, Expr)>,
        predicate: Option<Expr>,
    },
    /// `EXPLAIN [ANALYZE | (CHECK) | (VERIFY) | (TRACE)] query` — render the
    /// physical plan (ANALYZE also executes it and reports per-operator row
    /// counts and timings; CHECK only runs semantic analysis and reports the
    /// typed output schema; VERIFY plans the query and reports the static
    /// plan verifier's per-check results without executing; TRACE executes
    /// once under a forced trace capture and renders the span tree).
    Explain {
        mode: ExplainMode,
        query: Query,
    },
    /// `BEGIN [TRANSACTION]`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
}

/// What `EXPLAIN` should do with the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// Render the physical plan without executing.
    Plan,
    /// Execute and report per-operator statistics.
    Analyze,
    /// Run semantic analysis only and report the typed output schema.
    Check,
    /// Plan the query and run the static plan verifier, reporting one row
    /// per invariant class; nothing executes.
    Verify,
    /// Execute once under a forced trace capture and render the recorded
    /// span tree (names, durations, rows, typed attributes) with plain
    /// indentation.
    Trace,
}

/// A query: optional `WITH` clause plus a set-expression body and an
/// optional trailing `ORDER BY` / `LIMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<Cte>,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

/// A common table expression: `name AS (query)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub query: Query,
}

/// Body of a query: a plain `SELECT` or a set operation between bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    /// `UNION [ALL]`; when `all` is false, duplicate rows are removed.
    Union {
        left: Box<SetExpr>,
        right: Box<SetExpr>,
        all: bool,
    },
}

/// A `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String, Span),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in the FROM clause, possibly chained with joins.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE, with optional alias.
    Named {
        name: String,
        alias: Option<String>,
        span: Span,
    },
    /// Derived table `(query) AS alias`.
    Derived { query: Box<Query>, alias: String },
    /// Explicit join: `left JOIN right ON cond`.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// An `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub descending: bool,
}

/// Scalar expressions. Every variant carries the byte span of the source
/// fragment it was parsed from (empty for synthesized nodes).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value, Span),
    /// Positional parameter (1-based).
    Param(usize, Span),
    /// Possibly-qualified column reference: `[qualifier.]name`.
    Column {
        qualifier: Option<String>,
        name: String,
        span: Span,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
        span: Span,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
        span: Span,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
        span: Span,
    },
    /// `expr [NOT] IN (e1, e2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
        span: Span,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
        span: Span,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards)
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
        span: Span,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
        span: Span,
    },
    /// `CAST(expr AS type)`
    Cast {
        expr: Box<Expr>,
        ty: DataType,
        span: Span,
    },
    /// Scalar function call: `POW(a, b)`, `LN(x)`, ...
    Function {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// Aggregate function call in a projection/HAVING.
    Aggregate {
        func: AggregateFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
        span: Span,
    },
    /// `ROW_NUMBER() / RANK() / DENSE_RANK() OVER (PARTITION BY ... ORDER BY ...)`
    WindowRowNumber {
        func: WindowFunc,
        partition_by: Vec<Expr>,
        order_by: Vec<OrderItem>,
        span: Span,
    },
    /// `(SELECT ...)` used as a scalar. Only uncorrelated subqueries are
    /// supported; they are evaluated once during planning.
    ScalarSubquery(Box<Query>, Span),
    /// `expr [NOT] IN (SELECT ...)` (uncorrelated).
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
        span: Span,
    },
    /// `[NOT] EXISTS (SELECT ...)` (uncorrelated).
    Exists {
        query: Box<Query>,
        negated: bool,
        span: Span,
    },
}

/// Supported ranking window functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFunc {
    RowNumber,
    Rank,
    DenseRank,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggregateFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunc::Count => "COUNT",
            AggregateFunc::Sum => "SUM",
            AggregateFunc::Avg => "AVG",
            AggregateFunc::Min => "MIN",
            AggregateFunc::Max => "MAX",
        }
    }
}

/// `CREATE TABLE` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub if_not_exists: bool,
    pub columns: Vec<ColumnDef>,
    /// Column names of the primary key, if declared (inline or table-level).
    pub primary_key: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
}

/// `CREATE [UNIQUE] INDEX name ON table (cols)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
    pub if_not_exists: bool,
}

/// `INSERT INTO table [(cols)] VALUES ... | SELECT ... [ON CONFLICT ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub table_span: Span,
    pub columns: Vec<String>,
    pub source: InsertSource,
    pub on_conflict: Option<OnConflict>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Query),
}

/// `ON CONFLICT (cols) DO UPDATE SET col = expr, ... | DO NOTHING`.
///
/// In `DO UPDATE` expressions, `excluded.col` refers to the row proposed for
/// insertion and bare/table-qualified columns refer to the existing row.
#[derive(Debug, Clone, PartialEq)]
pub struct OnConflict {
    pub target_columns: Vec<String>,
    pub action: ConflictAction,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ConflictAction {
    DoNothing,
    DoUpdate(Vec<(String, Expr)>),
}

impl Expr {
    /// Convenience constructor for an unqualified column.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
            span: Span::default(),
        }
    }

    /// The source span of this node.
    pub fn span(&self) -> Span {
        match self {
            Expr::Literal(_, span)
            | Expr::Param(_, span)
            | Expr::ScalarSubquery(_, span)
            | Expr::Column { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::IsNull { span, .. }
            | Expr::InList { span, .. }
            | Expr::Between { span, .. }
            | Expr::Like { span, .. }
            | Expr::Case { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Function { span, .. }
            | Expr::Aggregate { span, .. }
            | Expr::WindowRowNumber { span, .. }
            | Expr::InSubquery { span, .. }
            | Expr::Exists { span, .. } => *span,
        }
    }

    /// True when this expression (sub)tree contains an aggregate call.
    /// Window specs are not entered: a window never contains aggregates of
    /// the enclosing query.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::WindowRowNumber { .. } => false,
            _ => {
                let mut found = false;
                self.visit_children(&mut |c| found = found || c.contains_aggregate());
                found
            }
        }
    }

    /// True when `pred` holds for this node or any node below it that
    /// [`Expr::visit_children`] reaches (subquery bodies are not entered).
    pub(crate) fn any(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        let mut found = false;
        self.visit_children(&mut |c| found = found || c.any(pred));
        found
    }

    /// The body of a subquery node (`(SELECT ..)`, `IN (SELECT ..)`,
    /// `EXISTS (SELECT ..)`).
    pub(crate) fn subquery(&self) -> Option<&Query> {
        match self {
            Expr::ScalarSubquery(query, _)
            | Expr::InSubquery { query, .. }
            | Expr::Exists { query, .. } => Some(query),
            _ => None,
        }
    }

    /// Call `f` on each direct child expression, in source order. Subquery
    /// bodies are independent scopes and are not entered; the scalar side
    /// of `IN (subquery)` belongs to this scope and is visited.
    pub(crate) fn visit_children(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Expr::Literal(..) | Expr::Param(..) | Expr::Column { .. } => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                operand.as_deref().into_iter().for_each(&mut *f);
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.as_deref().into_iter().for_each(f);
            }
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Aggregate { arg, .. } => arg.as_deref().into_iter().for_each(f),
            Expr::WindowRowNumber {
                partition_by,
                order_by,
                ..
            } => {
                partition_by.iter().for_each(&mut *f);
                order_by.iter().for_each(|oi| f(&oi.expr));
            }
            Expr::ScalarSubquery(..) | Expr::Exists { .. } => {}
        }
    }

    /// Mutable twin of [`Expr::visit_children`]: same children, same order.
    pub(crate) fn visit_children_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(..) | Expr::Param(..) | Expr::Column { .. } => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                operand.as_deref_mut().into_iter().for_each(&mut *f);
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.as_deref_mut().into_iter().for_each(f);
            }
            Expr::Function { args, .. } => args.iter_mut().for_each(f),
            Expr::Aggregate { arg, .. } => arg.as_deref_mut().into_iter().for_each(f),
            Expr::WindowRowNumber {
                partition_by,
                order_by,
                ..
            } => {
                partition_by.iter_mut().for_each(&mut *f);
                order_by.iter_mut().for_each(|oi| f(&mut oi.expr));
            }
            Expr::ScalarSubquery(..) | Expr::Exists { .. } => {}
        }
    }
}

/// One part of a query level, as [`Query::walk`] / [`Query::walk_mut`]
/// yield it: an expression slot or a nested query body.
pub(crate) enum QueryPart<E, Q> {
    /// Projection, WHERE, GROUP BY, HAVING, JOIN ON or ORDER BY expression.
    Expr(E),
    /// LIMIT or OFFSET expression (folded to a plan constant).
    Limit(E),
    /// A CTE body.
    Cte(Q),
    /// A derived table's query.
    Derived(Q),
}

impl Query {
    /// Call `f` on every expression slot of this query level — in every
    /// `UNION` arm and every `JOIN ... ON` — and on every nested query body
    /// (CTEs and derived tables). Neither the nested bodies nor subqueries
    /// inside expressions are entered; `f` recurses when it needs to.
    pub(crate) fn walk(&self, f: &mut impl FnMut(QueryPart<&Expr, &Query>)) {
        fn tref<'q>(t: &'q TableRef, f: &mut impl FnMut(QueryPart<&'q Expr, &'q Query>)) {
            match t {
                TableRef::Named { .. } => {}
                TableRef::Derived { query, .. } => f(QueryPart::Derived(query)),
                TableRef::Join {
                    left, right, on, ..
                } => {
                    tref(left, f);
                    tref(right, f);
                    on.iter().for_each(|e| f(QueryPart::Expr(e)));
                }
            }
        }
        fn body<'q>(s: &'q SetExpr, f: &mut impl FnMut(QueryPart<&'q Expr, &'q Query>)) {
            match s {
                SetExpr::Union { left, right, .. } => {
                    body(left, f);
                    body(right, f);
                }
                SetExpr::Select(sel) => {
                    for item in &sel.projection {
                        if let SelectItem::Expr { expr, .. } = item {
                            f(QueryPart::Expr(expr));
                        }
                    }
                    sel.from.iter().for_each(|t| tref(t, f));
                    for e in sel.selection.iter().chain(&sel.group_by).chain(&sel.having) {
                        f(QueryPart::Expr(e));
                    }
                }
            }
        }
        for c in &self.ctes {
            f(QueryPart::Cte(&c.query));
        }
        body(&self.body, f);
        for oi in &self.order_by {
            f(QueryPart::Expr(&oi.expr));
        }
        for e in self.limit.iter().chain(&self.offset) {
            f(QueryPart::Limit(e));
        }
    }

    /// Mutable twin of [`Query::walk`]: same parts, same order.
    pub(crate) fn walk_mut(&mut self, f: &mut impl FnMut(QueryPart<&mut Expr, &mut Query>)) {
        fn tref(t: &mut TableRef, f: &mut impl FnMut(QueryPart<&mut Expr, &mut Query>)) {
            match t {
                TableRef::Named { .. } => {}
                TableRef::Derived { query, .. } => f(QueryPart::Derived(query)),
                TableRef::Join {
                    left, right, on, ..
                } => {
                    tref(left, f);
                    tref(right, f);
                    on.iter_mut().for_each(|e| f(QueryPart::Expr(e)));
                }
            }
        }
        fn body(s: &mut SetExpr, f: &mut impl FnMut(QueryPart<&mut Expr, &mut Query>)) {
            match s {
                SetExpr::Union { left, right, .. } => {
                    body(left, f);
                    body(right, f);
                }
                SetExpr::Select(sel) => {
                    for item in &mut sel.projection {
                        if let SelectItem::Expr { expr, .. } = item {
                            f(QueryPart::Expr(expr));
                        }
                    }
                    sel.from.iter_mut().for_each(|t| tref(t, f));
                    let slots = sel.selection.iter_mut().chain(&mut sel.group_by);
                    for e in slots.chain(&mut sel.having) {
                        f(QueryPart::Expr(e));
                    }
                }
            }
        }
        for c in &mut self.ctes {
            f(QueryPart::Cte(&mut c.query));
        }
        body(&mut self.body, f);
        for oi in &mut self.order_by {
            f(QueryPart::Expr(&mut oi.expr));
        }
        for e in self.limit.iter_mut().chain(&mut self.offset) {
            f(QueryPart::Limit(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::mem::discriminant;

    fn children(e: &Expr) -> Vec<String> {
        let mut out = Vec::new();
        e.visit_children(&mut |c| out.push(format!("{c:?}")));
        out
    }

    fn children_mut(e: &mut Expr) -> Vec<String> {
        let mut out = Vec::new();
        e.visit_children_mut(&mut |c| out.push(format!("{c:?}")));
        out
    }

    #[test]
    fn ref_and_mut_visitors_yield_the_same_children() {
        // One projection item per `Expr` variant.
        let sql = "SELECT 1, ?, c, -c, c + 1, c IS NULL, c IN (1, 2), c BETWEEN 1 AND 2, \
                   c LIKE 'a%', CASE c WHEN 1 THEN 2 ELSE 3 END, CAST(c AS TEXT), ABS(c), \
                   SUM(c), ROW_NUMBER() OVER (PARTITION BY c ORDER BY d), (SELECT x FROM u), \
                   c + 2 IN (SELECT x FROM u), EXISTS (SELECT x FROM u) FROM t";
        let Statement::Query(q) = crate::parser::parse_statement(sql).unwrap() else {
            panic!("expected a query")
        };
        let SetExpr::Select(select) = q.body else {
            panic!("expected a SELECT")
        };
        let mut exprs: Vec<Expr> = select
            .projection
            .into_iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => expr,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let variants: HashSet<_> = exprs.iter().map(discriminant).collect();
        assert_eq!(variants.len(), 17, "one expression per Expr variant");

        for e in &mut exprs {
            let by_ref = children(e);
            assert_eq!(by_ref, children_mut(e), "{e:?}");
            match e {
                // Subquery bodies are separate scopes: never entered.
                Expr::ScalarSubquery(..) | Expr::Exists { .. } => assert!(by_ref.is_empty()),
                // The scalar side of IN belongs to the enclosing scope.
                Expr::InSubquery { expr, .. } => assert_eq!(by_ref, [format!("{expr:?}")]),
                _ => {}
            }
        }
    }

    fn describe<E: std::fmt::Debug, Q: std::fmt::Debug>(part: QueryPart<E, Q>) -> String {
        match part {
            QueryPart::Expr(e) => format!("expr {e:?}"),
            QueryPart::Limit(e) => format!("limit {e:?}"),
            QueryPart::Cte(q) => format!("cte {q:?}"),
            QueryPart::Derived(q) => format!("derived {q:?}"),
        }
    }

    #[test]
    fn ref_and_mut_query_walks_yield_the_same_parts() {
        let sql = "WITH c AS (SELECT 1 AS k) \
                   SELECT a.k + ?, COUNT(*) FROM c a JOIN (SELECT 2 AS k) d ON a.k = d.k \
                   WHERE a.k > 0 GROUP BY a.k HAVING COUNT(*) > 0 \
                   UNION ALL SELECT 3, 4 ORDER BY 1 LIMIT 5 OFFSET 1";
        let Statement::Query(mut q) = crate::parser::parse_statement(sql).unwrap() else {
            panic!("expected a query")
        };
        let mut by_ref = Vec::new();
        q.walk(&mut |part| by_ref.push(describe(part)));
        let mut by_mut = Vec::new();
        q.walk_mut(&mut |part| by_mut.push(describe(part)));
        // 2 + 2 projection items, ON, WHERE, GROUP BY, HAVING, ORDER BY,
        // LIMIT, OFFSET, one CTE and one derived table.
        assert_eq!(by_ref.len(), 13);
        assert_eq!(by_ref, by_mut);
    }
}
