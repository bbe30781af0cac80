//! Bound (physical) expressions and their evaluator.
//!
//! The planner resolves AST expressions against a [`Scope`] — the ordered,
//! possibly-qualified column labels of the operator input — producing a
//! [`PhysExpr`] whose column references are plain offsets. Evaluation is a
//! straightforward tree walk over a row slice.

use std::sync::Arc;

use crate::ast::{self, BinaryOp, UnaryOp};
use crate::error::{EngineError, Result};
use crate::value::{DataType, Value};

/// A column label visible in a scope: optional table qualifier plus name,
/// and the statically inferred type of the column (from the catalog for base
/// tables, from type inference for derived columns, `Any` when unknown).
#[derive(Debug, Clone)]
pub struct ColLabel {
    pub qualifier: Option<String>,
    pub name: String,
    pub ty: DataType,
}

impl ColLabel {
    pub fn new(qualifier: Option<&str>, name: &str) -> Self {
        ColLabel {
            qualifier: qualifier.map(|s| s.to_string()),
            name: name.to_string(),
            ty: DataType::Any,
        }
    }

    pub fn bare(name: &str) -> Self {
        ColLabel {
            qualifier: None,
            name: name.to_string(),
            ty: DataType::Any,
        }
    }

    /// Attach a statically known type to this label.
    pub fn with_ty(mut self, ty: DataType) -> Self {
        self.ty = ty;
        self
    }
}

impl PartialEq for ColLabel {
    /// Labels compare by identity (qualifier + name); the inferred type is an
    /// annotation and never participates in equality.
    fn eq(&self, other: &Self) -> bool {
        self.qualifier == other.qualifier && self.name == other.name
    }
}

/// The ordered set of columns an expression may reference.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub labels: Vec<ColLabel>,
}

impl Scope {
    pub fn new(labels: Vec<ColLabel>) -> Self {
        Scope { labels }
    }

    /// Concatenate two scopes (join output).
    pub fn join(&self, other: &Scope) -> Scope {
        let mut labels = self.labels.clone();
        labels.extend(other.labels.iter().cloned());
        Scope { labels }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Resolve `[qualifier.]name` to a column offset.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, label) in self.labels.iter().enumerate() {
            let name_matches = label.name.eq_ignore_ascii_case(name);
            let qual_matches = match (qualifier, &label.qualifier) {
                (None, _) => true,
                (Some(q), Some(lq)) => q.eq_ignore_ascii_case(lq),
                (Some(_), None) => false,
            };
            if name_matches && qual_matches {
                if found.is_some() {
                    return Err(EngineError::plan(format!(
                        "ambiguous column reference '{}{}'",
                        qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                        name
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            EngineError::plan(format!(
                "unknown column '{}{}'",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))
        })
    }
}

/// Scalar functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Pow,
    Ln,
    Log10,
    Exp,
    Abs,
    Sqrt,
    Coalesce,
    NullIf,
    Length,
    Lower,
    Upper,
    Substr,
    Round,
    Floor,
    Ceil,
    Sign,
    Mod,
    Trim,
    Replace,
    Instr,
    Concat,
}

impl ScalarFunc {
    /// Look a function up by (upper-case) SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "POW" | "POWER" => ScalarFunc::Pow,
            "LN" => ScalarFunc::Ln,
            "LOG" | "LOG10" => ScalarFunc::Log10,
            "EXP" => ScalarFunc::Exp,
            "ABS" => ScalarFunc::Abs,
            "SQRT" => ScalarFunc::Sqrt,
            "COALESCE" | "IFNULL" => ScalarFunc::Coalesce,
            "NULLIF" => ScalarFunc::NullIf,
            "LENGTH" => ScalarFunc::Length,
            "LOWER" => ScalarFunc::Lower,
            "UPPER" => ScalarFunc::Upper,
            "SUBSTR" | "SUBSTRING" => ScalarFunc::Substr,
            "ROUND" => ScalarFunc::Round,
            "FLOOR" => ScalarFunc::Floor,
            "CEIL" | "CEILING" => ScalarFunc::Ceil,
            "SIGN" => ScalarFunc::Sign,
            "MOD" => ScalarFunc::Mod,
            "TRIM" => ScalarFunc::Trim,
            "REPLACE" => ScalarFunc::Replace,
            "INSTR" => ScalarFunc::Instr,
            "CONCAT" => ScalarFunc::Concat,
            _ => return None,
        })
    }

    pub(crate) fn arity_ok(&self, n: usize) -> bool {
        match self {
            ScalarFunc::Pow | ScalarFunc::NullIf | ScalarFunc::Mod | ScalarFunc::Instr => n == 2,
            ScalarFunc::Replace => n == 3,
            ScalarFunc::Coalesce | ScalarFunc::Concat => n >= 1,
            ScalarFunc::Substr => n == 2 || n == 3,
            ScalarFunc::Round => n == 1 || n == 2,
            _ => n == 1,
        }
    }
}

/// A bound expression: column references resolved to offsets, parameters
/// substituted (or kept symbolic for cached plan templates), functions
/// resolved.
#[derive(Debug, Clone)]
pub enum PhysExpr {
    Literal(Value),
    /// Unbound positional parameter (1-based). Only present in plan
    /// *templates* produced by symbolic binding ([`bind_expr_symbolic`]);
    /// [`PhysExpr::bind_params`] replaces every occurrence with the bound
    /// value before execution, so the evaluator never sees one.
    Param(usize),
    Column(usize),
    Unary {
        op: UnaryOp,
        expr: Box<PhysExpr>,
    },
    Binary {
        left: Box<PhysExpr>,
        op: BinaryOp,
        right: Box<PhysExpr>,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Between {
        expr: Box<PhysExpr>,
        low: Box<PhysExpr>,
        high: Box<PhysExpr>,
        negated: bool,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: Box<PhysExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<PhysExpr>>,
        branches: Vec<(PhysExpr, PhysExpr)>,
        else_expr: Option<Box<PhysExpr>>,
    },
    Cast {
        expr: Box<PhysExpr>,
        ty: DataType,
    },
    Function {
        func: ScalarFunc,
        args: Vec<PhysExpr>,
    },
}

/// How parameter markers are bound: inlined as literals from the bound
/// value slice (the classic path), or kept symbolic as [`PhysExpr::Param`]
/// nodes so the resulting plan can be cached as a template and re-bound per
/// execution.
#[derive(Clone, Copy)]
pub enum ParamBinding<'a> {
    Inline(&'a [Value]),
    Symbolic,
}

/// Bind an AST expression against `scope`, substituting `params`.
///
/// Aggregate and window expressions must have been rewritten away by the
/// planner before binding; finding one here is a planning bug surfaced as an
/// error.
pub fn bind_expr(expr: &ast::Expr, scope: &Scope, params: &[Value]) -> Result<PhysExpr> {
    bind_expr_with(expr, scope, ParamBinding::Inline(params))
}

/// [`bind_expr`] with parameters kept symbolic (plan-template mode).
pub fn bind_expr_symbolic(expr: &ast::Expr, scope: &Scope) -> Result<PhysExpr> {
    bind_expr_with(expr, scope, ParamBinding::Symbolic)
}

/// Shared binder; `binding` selects how `?` markers are handled.
pub fn bind_expr_with(expr: &ast::Expr, scope: &Scope, binding: ParamBinding) -> Result<PhysExpr> {
    use ast::Expr as E;
    let bind = |e: &ast::Expr| bind_expr_with(e, scope, binding);
    Ok(match expr {
        E::Literal(v, _) => PhysExpr::Literal(v.clone()),
        E::Param(i, _) => match binding {
            ParamBinding::Inline(params) => PhysExpr::Literal(param_value(params, *i)?),
            ParamBinding::Symbolic => PhysExpr::Param(*i),
        },
        E::Column {
            qualifier, name, ..
        } => PhysExpr::Column(scope.resolve(qualifier.as_deref(), name)?),
        E::Unary { op, expr, .. } => PhysExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr)?),
        },
        E::Binary {
            left, op, right, ..
        } => PhysExpr::Binary {
            left: Box::new(bind(left)?),
            op: *op,
            right: Box::new(bind(right)?),
        },
        E::IsNull { expr, negated, .. } => PhysExpr::IsNull {
            expr: Box::new(bind(expr)?),
            negated: *negated,
        },
        E::InList {
            expr,
            list,
            negated,
            ..
        } => PhysExpr::InList {
            expr: Box::new(bind(expr)?),
            list: list.iter().map(bind).collect::<Result<_>>()?,
            negated: *negated,
        },
        E::Between {
            expr,
            low,
            high,
            negated,
            ..
        } => PhysExpr::Between {
            expr: Box::new(bind(expr)?),
            low: Box::new(bind(low)?),
            high: Box::new(bind(high)?),
            negated: *negated,
        },
        E::Like {
            expr,
            pattern,
            negated,
            ..
        } => PhysExpr::Like {
            expr: Box::new(bind(expr)?),
            pattern: Box::new(bind(pattern)?),
            negated: *negated,
        },
        E::Case {
            operand,
            branches,
            else_expr,
            ..
        } => PhysExpr::Case {
            operand: operand.as_deref().map(&bind).transpose()?.map(Box::new),
            branches: branches
                .iter()
                .map(|(w, t)| Ok((bind(w)?, bind(t)?)))
                .collect::<Result<_>>()?,
            else_expr: else_expr.as_deref().map(&bind).transpose()?.map(Box::new),
        },
        E::Cast { expr, ty, .. } => PhysExpr::Cast {
            expr: Box::new(bind(expr)?),
            ty: *ty,
        },
        E::Function { name, args, .. } => {
            let func = ScalarFunc::from_name(name)
                .ok_or_else(|| EngineError::plan(format!("unknown function '{name}'")))?;
            if !func.arity_ok(args.len()) {
                return Err(EngineError::plan(format!(
                    "wrong number of arguments ({}) for {name}",
                    args.len()
                )));
            }
            PhysExpr::Function {
                func,
                args: args.iter().map(bind).collect::<Result<_>>()?,
            }
        }
        E::Aggregate { .. } => {
            return Err(EngineError::plan(
                "aggregate function used outside of an aggregating context",
            ))
        }
        E::WindowRowNumber { .. } => {
            return Err(EngineError::plan(
                "window function used in an unsupported position",
            ))
        }
        E::ScalarSubquery(..) | E::InSubquery { .. } | E::Exists { .. } => {
            return Err(EngineError::plan(
                "subquery used in a position where it cannot be resolved \
                 (only uncorrelated subqueries in SELECT/WHERE/HAVING are supported)",
            ))
        }
    })
}

impl PhysExpr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            PhysExpr::Literal(v) => Ok(v.clone()),
            // Templates are re-bound via `bind_params` before they
            // reach the executor; evaluating a leftover marker is a bug.
            PhysExpr::Param(i) => Err(EngineError::Parameter(format!(
                "parameter ?{i} evaluated without a bound value"
            ))),
            PhysExpr::Column(i) => Ok(row[*i].clone()),
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                eval_unary(*op, v)
            }
            PhysExpr::Binary { left, op, right } => match op {
                BinaryOp::And => {
                    // Three-valued logic with short circuit.
                    let l = left.eval(row)?.as_bool()?;
                    if l == Some(false) {
                        return Ok(Value::Int(0));
                    }
                    let r = right.eval(row)?.as_bool()?;
                    Ok(match (l, r) {
                        (Some(true), Some(true)) => Value::Int(1),
                        (_, Some(false)) => Value::Int(0),
                        _ => Value::Null,
                    })
                }
                BinaryOp::Or => {
                    let l = left.eval(row)?.as_bool()?;
                    if l == Some(true) {
                        return Ok(Value::Int(1));
                    }
                    let r = right.eval(row)?.as_bool()?;
                    Ok(match (l, r) {
                        (Some(false), Some(false)) => Value::Int(0),
                        (_, Some(true)) => Value::Int(1),
                        _ => Value::Null,
                    })
                }
                _ => {
                    let l = left.eval(row)?;
                    let r = right.eval(row)?;
                    eval_binary(l, *op, r)
                }
            },
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Int((v.is_null() != *negated) as i64))
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row)?;
                    match v.sql_eq(&iv) {
                        Some(true) => return Ok(Value::Int(!*negated as i64)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(*negated as i64))
                }
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = v.total_cmp(&lo) != std::cmp::Ordering::Less
                    && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
                Ok(Value::Int((inside != *negated) as i64))
            }
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let text = v.as_str_lossy()?.unwrap().into_owned();
                let pat = p.as_str_lossy()?.unwrap().into_owned();
                let matched = like_match(&text, &pat);
                Ok(Value::Int((matched != *negated) as i64))
            }
            PhysExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                match operand {
                    Some(op_expr) => {
                        let op_val = op_expr.eval(row)?;
                        for (when, then) in branches {
                            let w = when.eval(row)?;
                            if op_val.sql_eq(&w) == Some(true) {
                                return then.eval(row);
                            }
                        }
                    }
                    None => {
                        for (when, then) in branches {
                            if when.eval(row)?.as_bool()? == Some(true) {
                                return then.eval(row);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            PhysExpr::Cast { expr, ty } => expr.eval(row)?.cast_to(*ty),
            PhysExpr::Function { func, args } => eval_function(*func, args, row),
        }
    }

    /// Evaluate an expression that must not reference any columns (LIMIT etc.).
    pub fn eval_const(&self) -> Result<Value> {
        self.eval(&[])
    }

    /// Whether this (sub)tree still carries an unbound parameter marker.
    pub fn contains_param(&self) -> bool {
        let mut found = matches!(self, PhysExpr::Param(_));
        self.visit_children(&mut |c| found = found || c.contains_param());
        found
    }

    /// Replace every [`PhysExpr::Param`] in this (sub)tree with its bound
    /// value, in place. Errors when a marker references past the end of
    /// `params`, with the same message the inline binder produces.
    pub fn bind_params(&mut self, params: &[Value]) -> Result<()> {
        if let PhysExpr::Param(i) = *self {
            *self = PhysExpr::Literal(param_value(params, i)?);
            return Ok(());
        }
        let mut bound = Ok(());
        self.visit_children_mut(&mut |c| {
            if bound.is_ok() {
                bound = c.bind_params(params);
            }
        });
        bound
    }

    /// Call `f` on each direct child expression, in evaluation order.
    pub(crate) fn visit_children(&self, f: &mut impl FnMut(&PhysExpr)) {
        match self {
            PhysExpr::Literal(_) | PhysExpr::Param(_) | PhysExpr::Column(_) => {}
            PhysExpr::Unary { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. } => f(expr),
            PhysExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            PhysExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            PhysExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.as_deref().into_iter().for_each(&mut *f);
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.as_deref().into_iter().for_each(f);
            }
            PhysExpr::Function { args, .. } => args.iter().for_each(f),
        }
    }

    /// Mutable twin of [`PhysExpr::visit_children`]: same children, same
    /// order.
    pub(crate) fn visit_children_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        match self {
            PhysExpr::Literal(_) | PhysExpr::Param(_) | PhysExpr::Column(_) => {}
            PhysExpr::Unary { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. } => f(expr),
            PhysExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            PhysExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            PhysExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.as_deref_mut().into_iter().for_each(&mut *f);
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.as_deref_mut().into_iter().for_each(f);
            }
            PhysExpr::Function { args, .. } => args.iter_mut().for_each(f),
        }
    }
}

/// The value bound to parameter `?i` (1-based).
fn param_value(params: &[Value], i: usize) -> Result<Value> {
    params.get(i - 1).cloned().ok_or_else(|| {
        EngineError::Parameter(format!(
            "parameter ?{i} referenced but only {} bound",
            params.len()
        ))
    })
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Str(s) => Err(EngineError::exec(format!("cannot negate string '{s}'"))),
        },
        UnaryOp::Not => match v.as_bool()? {
            None => Ok(Value::Null),
            Some(b) => Ok(Value::Int(!b as i64)),
        },
    }
}

/// Static outcome of applying a binary operator to a pair of operand types.
///
/// This table is the single source of truth for implicit coercions: the
/// runtime evaluator ([`eval_binary`]) dispatches through it, and the
/// semantic analyzer consults it to predict result types and reject
/// type-shaped runtime errors before execution. `DataType::Any` only occurs
/// on the static side (unknown column types, NULL literals); runtime values
/// that survive NULL propagation always have a concrete type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinCoercion {
    /// Integer arithmetic: `Int op Int → Int` (wrapping; `/` and `%` error
    /// on a zero divisor).
    IntArith,
    /// Float arithmetic: any numeric mix involving a `Real → Real`.
    FloatArith,
    /// Arithmetic over an operand of unknown type: result type unknown.
    AnyArith,
    /// `||` stringifies both sides (numbers render lossily) `→ Text`.
    Concat,
    /// Comparison via the total value order `→ Int` (boolean). Never errors:
    /// a string compares after every number instead of failing (SQLite
    /// type-order semantics) — pinned by the coercion matrix tests.
    Compare,
    /// `AND`/`OR` over boolean-coercible operands `→ Int` (boolean).
    Bool,
    /// Arithmetic over a definitely-`Text` operand: always a type error
    /// ("expected a numeric value").
    ErrTextArith,
    /// `AND`/`OR`/`NOT` over a definitely-`Text` operand: always a type
    /// error ("used in a boolean context").
    ErrTextBool,
}

/// The coercion decision for `l op r`. Shared by the evaluator and sema.
pub(crate) fn coerce(op: BinaryOp, l: DataType, r: DataType) -> BinCoercion {
    use BinaryOp::*;
    use DataType::*;
    match op {
        Add | Sub | Mul | Div | Mod => match (l, r) {
            (Text, _) | (_, Text) => BinCoercion::ErrTextArith,
            (Integer, Integer) => BinCoercion::IntArith,
            (Any, _) | (_, Any) => BinCoercion::AnyArith,
            _ => BinCoercion::FloatArith,
        },
        Concat => BinCoercion::Concat,
        Eq | NotEq | Lt | LtEq | Gt | GtEq => BinCoercion::Compare,
        And | Or => match (l, r) {
            (Text, _) | (_, Text) => BinCoercion::ErrTextBool,
            _ => BinCoercion::Bool,
        },
    }
}

fn eval_binary(l: Value, op: BinaryOp, r: Value) -> Result<Value> {
    use BinaryOp::*;
    // Every operator that reaches here propagates NULL (AND/OR short-circuit
    // in `eval` and never arrive).
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match coerce(op, l.data_type(), r.data_type()) {
        BinCoercion::IntArith => {
            let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                unreachable!("IntArith implies two integers")
            };
            let (a, b) = (*a, *b);
            Ok(match op {
                Add => Value::Int(a.wrapping_add(b)),
                Sub => Value::Int(a.wrapping_sub(b)),
                Mul => Value::Int(a.wrapping_mul(b)),
                Div => {
                    if b == 0 {
                        return Err(EngineError::exec("integer division by zero"));
                    }
                    Value::Int(a / b)
                }
                Mod => {
                    if b == 0 {
                        return Err(EngineError::exec("integer modulo by zero"));
                    }
                    Value::Int(a % b)
                }
                _ => unreachable!(),
            })
        }
        BinCoercion::FloatArith | BinCoercion::AnyArith | BinCoercion::ErrTextArith => {
            // `as_f64` raises the canonical "expected a numeric value" error
            // for text operands (left operand reported first).
            let a = l.as_f64()?.expect("null handled");
            let b = r.as_f64()?.expect("null handled");
            Ok(Value::Float(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a % b,
                _ => unreachable!(),
            }))
        }
        BinCoercion::Concat => {
            let a = l.as_str_lossy()?.unwrap();
            let b = r.as_str_lossy()?.unwrap();
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(&a);
            s.push_str(&b);
            Ok(Value::Str(Arc::from(s.as_str())))
        }
        BinCoercion::Compare => {
            let ord = l.total_cmp(&r);
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(b as i64))
        }
        BinCoercion::Bool | BinCoercion::ErrTextBool => {
            unreachable!("AND/OR handled in eval with short-circuit")
        }
    }
}

fn eval_function(func: ScalarFunc, args: &[PhysExpr], row: &[Value]) -> Result<Value> {
    // COALESCE must not eagerly error on later args; handle it first.
    if func == ScalarFunc::Coalesce {
        for a in args {
            let v = a.eval(row)?;
            if !v.is_null() {
                return Ok(v);
            }
        }
        return Ok(Value::Null);
    }
    let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
    let num1 = |v: &Value| -> Result<Option<f64>> { v.as_f64() };
    match func {
        ScalarFunc::Coalesce => unreachable!(),
        ScalarFunc::Pow => {
            let (Some(a), Some(b)) = (num1(&vals[0])?, num1(&vals[1])?) else {
                return Ok(Value::Null);
            };
            Ok(Value::Float(a.powf(b)))
        }
        ScalarFunc::Ln => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Float(a.ln())),
        },
        ScalarFunc::Log10 => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Float(a.log10())),
        },
        ScalarFunc::Exp => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Float(a.exp())),
        },
        ScalarFunc::Sqrt => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Float(a.sqrt())),
        },
        ScalarFunc::Abs => match &vals[0] {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            Value::Str(s) => Err(EngineError::exec(format!("ABS of string '{s}'"))),
        },
        ScalarFunc::Sign => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Int(if a > 0.0 {
                1
            } else if a < 0.0 {
                -1
            } else {
                0
            })),
        },
        ScalarFunc::NullIf => {
            if vals[0].sql_eq(&vals[1]) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(vals[0].clone())
            }
        }
        ScalarFunc::Length => match &vals[0] {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::Int(v.as_str_lossy()?.unwrap().chars().count() as i64)),
        },
        ScalarFunc::Lower => match &vals[0] {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::text(v.as_str_lossy()?.unwrap().to_lowercase())),
        },
        ScalarFunc::Upper => match &vals[0] {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::text(v.as_str_lossy()?.unwrap().to_uppercase())),
        },
        ScalarFunc::Substr => {
            if vals[0].is_null() {
                return Ok(Value::Null);
            }
            let s = vals[0].as_str_lossy()?.unwrap().into_owned();
            let chars: Vec<char> = s.chars().collect();
            let start = vals[1].as_i64()?.unwrap_or(1).max(1) as usize;
            let len = if vals.len() == 3 {
                vals[2].as_i64()?.unwrap_or(0).max(0) as usize
            } else {
                chars.len()
            };
            let out: String = chars.iter().skip(start - 1).take(len).collect();
            Ok(Value::text(out))
        }
        ScalarFunc::Round => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => {
                let digits = if vals.len() == 2 {
                    vals[1].as_i64()?.unwrap_or(0)
                } else {
                    0
                };
                let factor = 10f64.powi(digits as i32);
                Ok(Value::Float((a * factor).round() / factor))
            }
        },
        ScalarFunc::Floor => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Float(a.floor())),
        },
        ScalarFunc::Ceil => match num1(&vals[0])? {
            None => Ok(Value::Null),
            Some(a) => Ok(Value::Float(a.ceil())),
        },
        ScalarFunc::Mod => {
            let (Some(a), Some(b)) = (vals[0].as_f64()?, vals[1].as_f64()?) else {
                return Ok(Value::Null);
            };
            match (&vals[0], &vals[1]) {
                (Value::Int(x), Value::Int(y)) => {
                    if *y == 0 {
                        return Err(EngineError::exec("integer modulo by zero"));
                    }
                    Ok(Value::Int(x % y))
                }
                _ => Ok(Value::Float(a % b)),
            }
        }
        ScalarFunc::Trim => match &vals[0] {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::text(v.as_str_lossy()?.unwrap().trim())),
        },
        ScalarFunc::Replace => {
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = vals[0].as_str_lossy()?.unwrap().into_owned();
            let from = vals[1].as_str_lossy()?.unwrap().into_owned();
            let to = vals[2].as_str_lossy()?.unwrap().into_owned();
            if from.is_empty() {
                return Ok(Value::text(s));
            }
            Ok(Value::text(s.replace(&from, &to)))
        }
        ScalarFunc::Instr => {
            if vals[0].is_null() || vals[1].is_null() {
                return Ok(Value::Null);
            }
            let hay = vals[0].as_str_lossy()?.unwrap().into_owned();
            let needle = vals[1].as_str_lossy()?.unwrap().into_owned();
            // 1-based character position; 0 when absent (SQLite semantics).
            let pos = match hay.find(&needle) {
                Some(byte_idx) => hay[..byte_idx].chars().count() as i64 + 1,
                None => 0,
            };
            Ok(Value::Int(pos))
        }
        ScalarFunc::Concat => {
            // MySQL-style CONCAT: NULL if any argument is NULL.
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let mut out = String::new();
            for v in &vals {
                out.push_str(&v.as_str_lossy()?.unwrap());
            }
            Ok(Value::text(out))
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (single char), case-sensitive.
fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer with backtracking on the last `%`.
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t): (Option<usize>, usize) = (None, 0);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = Some(pi);
            star_t = ti;
            pi += 1;
        } else if let Some(sp) = star_p {
            pi = sp + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

// Bound expressions are evaluated concurrently by executor workers against
// shared row snapshots; `Value` rides inside rows and aggregation state that
// cross thread boundaries. Neither may grow non-`Send`/`Sync` interior state
// (e.g. `Rc`, `RefCell`) — this assertion turns such a change into a compile
// error at the definition site.
#[allow(dead_code)]
fn _assert_expr_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<PhysExpr>();
    assert::<crate::value::Value>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn bind(sql_expr: &str, scope: &Scope, params: &[Value]) -> PhysExpr {
        let stmt = parse_statement(&format!("SELECT {sql_expr}")).unwrap();
        let crate::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let crate::ast::SetExpr::Select(s) = q.body else {
            panic!()
        };
        let crate::ast::SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        bind_expr(expr, scope, params).unwrap()
    }

    fn eval(sql_expr: &str) -> Value {
        bind(sql_expr, &Scope::default(), &[]).eval(&[]).unwrap()
    }

    #[test]
    fn arithmetic_int_vs_float() {
        assert_eq!(eval("2613 / 100"), Value::Int(26));
        assert_eq!(eval("1 / 2"), Value::Int(0));
        assert_eq!(eval("1.0 / 2"), Value::Float(0.5));
        assert_eq!(eval("7 % 10"), Value::Int(7));
        assert_eq!(eval("2 + 3 * 4"), Value::Int(14));
    }

    #[test]
    fn concat_and_functions() {
        assert_eq!(eval("'a' || 'b' || 3"), Value::text("ab3"));
        assert_eq!(eval("POW(2, 10)"), Value::Float(1024.0));
        assert_eq!(eval("ABS(-3)"), Value::Int(3));
        assert_eq!(eval("COALESCE(NULL, NULL, 5)"), Value::Int(5));
        let Value::Float(l) = eval("LN(EXP(1.0))") else {
            panic!()
        };
        assert!((l - 1.0).abs() < 1e-12);
    }

    #[test]
    fn null_propagation() {
        assert!(eval("NULL + 1").is_null());
        assert!(eval("NULL = NULL").is_null());
        assert_eq!(eval("NULL IS NULL"), Value::Int(1));
        assert_eq!(eval("1 IS NOT NULL"), Value::Int(1));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval("NULL AND 0"), Value::Int(0));
        assert!(eval("NULL AND 1").is_null());
        assert_eq!(eval("NULL OR 1"), Value::Int(1));
        assert!(eval("NULL OR 0").is_null());
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            eval("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END"),
            Value::text("b")
        );
        assert_eq!(
            eval("CASE 3 WHEN 1 THEN 'x' WHEN 3 THEN 'y' END"),
            Value::text("y")
        );
        assert!(eval("CASE WHEN 0 THEN 1 END").is_null());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "a_"));
        assert!(like_match("a%c", "a%c"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("xxabyy", "%ab%"));
    }

    #[test]
    fn column_resolution() {
        let scope = Scope::new(vec![
            ColLabel::new(Some("t"), "a"),
            ColLabel::new(Some("u"), "a"),
            ColLabel::new(Some("t"), "b"),
        ]);
        assert_eq!(scope.resolve(Some("u"), "a").unwrap(), 1);
        assert_eq!(scope.resolve(None, "b").unwrap(), 2);
        assert!(scope.resolve(None, "a").is_err()); // ambiguous
        assert!(scope.resolve(None, "zzz").is_err()); // unknown
    }

    #[test]
    fn params_substitute() {
        let e = bind("? + ?", &Scope::default(), &[Value::Int(2), Value::Int(40)]);
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(42));
    }

    #[test]
    fn division_by_zero_int_errors_float_inf() {
        let scope = Scope::default();
        assert!(bind("1 / 0", &scope, &[]).eval(&[]).is_err());
        assert_eq!(eval("1.0 / 0.0"), Value::Float(f64::INFINITY));
    }

    #[test]
    fn in_and_between() {
        assert_eq!(eval("2 IN (1, 2, 3)"), Value::Int(1));
        assert_eq!(eval("5 NOT IN (1, 2, 3)"), Value::Int(1));
        assert!(eval("5 IN (1, NULL)").is_null());
        assert_eq!(eval("2 BETWEEN 1 AND 3"), Value::Int(1));
        assert_eq!(eval("0 NOT BETWEEN 1 AND 3"), Value::Int(1));
    }

    #[test]
    fn coercion_matrix_arithmetic() {
        use BinaryOp::*;
        use DataType::*;
        // Integer-only arithmetic stays integer.
        assert_eq!(coerce(Add, Integer, Integer), BinCoercion::IntArith);
        assert_eq!(coerce(Div, Integer, Integer), BinCoercion::IntArith);
        // Any Real operand promotes to float.
        assert_eq!(coerce(Add, Integer, Real), BinCoercion::FloatArith);
        assert_eq!(coerce(Mul, Real, Real), BinCoercion::FloatArith);
        // Text in arithmetic is a type error regardless of the other side.
        assert_eq!(coerce(Add, Text, Integer), BinCoercion::ErrTextArith);
        assert_eq!(coerce(Sub, Real, Text), BinCoercion::ErrTextArith);
        assert_eq!(coerce(Mod, Text, Any), BinCoercion::ErrTextArith);
        // Unknown operand type: outcome unknown until runtime.
        assert_eq!(coerce(Add, Any, Integer), BinCoercion::AnyArith);
        assert_eq!(coerce(Div, Any, Any), BinCoercion::AnyArith);
    }

    #[test]
    fn coercion_matrix_compare_concat_bool() {
        use BinaryOp::*;
        use DataType::*;
        // Comparisons never error — strings order after numbers.
        for lt in [Integer, Real, Text, Any] {
            for rt in [Integer, Real, Text, Any] {
                assert_eq!(coerce(Eq, lt, rt), BinCoercion::Compare);
                assert_eq!(coerce(Lt, lt, rt), BinCoercion::Compare);
            }
        }
        // Concat stringifies everything.
        assert_eq!(coerce(Concat, Integer, Text), BinCoercion::Concat);
        assert_eq!(coerce(Concat, Real, Any), BinCoercion::Concat);
        // Logic over text is a type error; over numbers/unknown it is fine.
        assert_eq!(coerce(And, Text, Integer), BinCoercion::ErrTextBool);
        assert_eq!(coerce(Or, Any, Text), BinCoercion::ErrTextBool);
        assert_eq!(coerce(And, Integer, Any), BinCoercion::Bool);
    }

    #[test]
    fn runtime_agrees_with_coercion_table() {
        // IntArith
        assert_eq!(eval("3 + 4"), Value::Int(7));
        // FloatArith
        assert_eq!(eval("3 + 4.5"), Value::Float(7.5));
        // ErrTextArith: text in arithmetic errors with the canonical message.
        let err = bind("'x' + 1", &Scope::default(), &[])
            .eval(&[])
            .unwrap_err();
        assert!(err.to_string().contains("expected a numeric value"));
        // Compare never errors: a string sorts after every number.
        assert_eq!(eval("'x' > 999"), Value::Int(1));
        assert_eq!(eval("'1' = 1"), Value::Int(0));
        // Concat stringifies numbers.
        assert_eq!(eval("1 || 2.5"), Value::text("12.5"));
        // ErrTextBool
        let err = bind("'x' AND 1", &Scope::default(), &[])
            .eval(&[])
            .unwrap_err();
        assert!(err.to_string().contains("used in a boolean context"));
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval("LOWER('AbC')"), Value::text("abc"));
        assert_eq!(eval("UPPER('AbC')"), Value::text("ABC"));
        assert_eq!(eval("LENGTH('héllo')"), Value::Int(5));
        assert_eq!(eval("SUBSTR('hello', 2, 3)"), Value::text("ell"));
        assert_eq!(eval("NULLIF(3, 3)"), Value::Null);
        assert_eq!(eval("NULLIF(3, 4)"), Value::Int(3));
    }
}
