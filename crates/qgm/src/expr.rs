//! Scalar and aggregate expressions over quantifier columns.

use std::fmt;

use decorr_common::{CmpOp, Value};

use crate::graph::QuantId;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    /// Null-tolerant equality (`IS NOT DISTINCT FROM`): NULL matches NULL.
    /// Magic decorrelation uses it for the re-join with the magic table so
    /// NULL correlation bindings behave exactly as under nested iteration.
    NullEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NullEq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The kernel-layer operator of a comparison; logical and arithmetic
    /// operators have none.
    pub fn cmp_op(self) -> Option<CmpOp> {
        match self {
            BinOp::Eq => Some(CmpOp::Eq),
            BinOp::NullEq => Some(CmpOp::NullEq),
            BinOp::Ne => Some(CmpOp::Ne),
            BinOp::Lt => Some(CmpOp::Lt),
            BinOp::Le => Some(CmpOp::Le),
            BinOp::Gt => Some(CmpOp::Gt),
            BinOp::Ge => Some(CmpOp::Ge),
            _ => None,
        }
    }

    /// The comparison with swapped operands (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NullEq => "<=>",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "NOT",
            UnOp::Neg => "-",
            UnOp::IsNull => "IS NULL",
            UnOp::IsNotNull => "IS NOT NULL",
        };
        f.write_str(s)
    }
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// `COALESCE(a, b, ...)` — first non-NULL argument. This is the function
    /// the paper's *BugRemoval* box uses to repair the COUNT bug.
    Coalesce,
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Func::Coalesce => f.write_str("COALESCE"),
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` when the argument is `None`, `COUNT(expr)` otherwise.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// The value an aggregate takes on an empty input: 0 for `COUNT`,
    /// NULL for the rest. This asymmetry is the root of the COUNT bug.
    pub fn empty_value(self) -> Value {
        match self {
            AggFunc::Count => Value::Int(0),
            _ => Value::Null,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// An expression tree.
///
/// Column references are `(quantifier, output position)` pairs. A reference
/// to a quantifier owned by an ancestor box is a *correlation*.
/// `Agg` nodes may appear only in the outputs of a Grouping box.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to output column `col` of quantifier `quant`.
    Col {
        quant: QuantId,
        col: usize,
    },
    /// Literal value.
    Lit(Value),
    /// Placeholder for the `i`-th entry of a binding vector. Produced by
    /// the plan-cache parameterization pass (`decorr_sql::parameterize`):
    /// two queries differing only in literals bind to the same
    /// parameterized graph, which is what gets fingerprinted and cached.
    /// A plan containing `Param` nodes is a *template* — it must go
    /// through [`crate::Qgm::bind_params`] before execution.
    Param(usize),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Func {
        func: Func,
        args: Vec<Expr>,
    },
    /// Aggregate call (Grouping-box outputs only). `arg = None` is COUNT(*).
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

impl Expr {
    /// Column reference helper.
    pub fn col(quant: QuantId, col: usize) -> Expr {
        Expr::Col { quant, col }
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `left op right` helper.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `a = b` helper.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Eq, left, right)
    }

    /// `COUNT(*)` helper.
    pub fn count_star() -> Expr {
        Expr::Agg { func: AggFunc::Count, arg: None, distinct: false }
    }

    /// Aggregate helper.
    pub fn agg(func: AggFunc, arg: Expr) -> Expr {
        Expr::Agg { func, arg: Some(Box::new(arg)), distinct: false }
    }

    /// Visit every column reference in the tree.
    pub fn for_each_col<F: FnMut(QuantId, usize)>(&self, f: &mut F) {
        match self {
            Expr::Col { quant, col } => f(*quant, *col),
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.for_each_col(f);
                right.for_each_col(f);
            }
            Expr::Unary { expr, .. } => expr.for_each_col(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.for_each_col(f);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.for_each_col(f);
                }
            }
        }
    }

    /// Rewrite every column reference in place.
    pub fn map_cols<F: FnMut(QuantId, usize) -> (QuantId, usize)>(&mut self, f: &mut F) {
        match self {
            Expr::Col { quant, col } => {
                let (q, c) = f(*quant, *col);
                *quant = q;
                *col = c;
            }
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.map_cols(f);
                right.map_cols(f);
            }
            Expr::Unary { expr, .. } => expr.map_cols(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.map_cols(f);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.map_cols(f);
                }
            }
        }
    }

    /// The set of quantifiers referenced by this expression.
    pub fn referenced_quants(&self) -> Vec<QuantId> {
        let mut out = Vec::new();
        self.for_each_col(&mut |q, _| {
            if !out.contains(&q) {
                out.push(q);
            }
        });
        out
    }

    /// Does this expression reference the given quantifier?
    pub fn references(&self, quant: QuantId) -> bool {
        let mut found = false;
        self.for_each_col(&mut |q, _| found |= q == quant);
        found
    }

    /// Does the tree contain an aggregate call?
    pub fn contains_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Col { .. } | Expr::Lit(_) | Expr::Param(_) => false,
            Expr::Binary { left, right, .. } => left.contains_agg() || right.contains_agg(),
            Expr::Unary { expr, .. } => expr.contains_agg(),
            Expr::Func { args, .. } => args.iter().any(Expr::contains_agg),
        }
    }

    /// If this is a conjunction, split it into its conjuncts; otherwise a
    /// singleton. Rewrites operate on predicate *lists*, so WHERE clauses
    /// are normalized through this.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary { op: BinOp::And, left, right } => {
                let mut v = left.split_conjuncts();
                v.extend(right.split_conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Replace every reference to quantifier `quant` by the expression the
    /// substitution returns for its column index (used when merging a child
    /// box into its parent: parent references become the child's output
    /// expressions).
    pub fn substitute<F: FnMut(usize) -> Expr>(&mut self, quant: QuantId, subst: &mut F) {
        match self {
            Expr::Col { quant: q, col } if *q == quant => {
                *self = subst(*col);
            }
            Expr::Col { .. } | Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.substitute(quant, subst);
                right.substitute(quant, subst);
            }
            Expr::Unary { expr, .. } => expr.substitute(quant, subst),
            Expr::Func { args, .. } => {
                for a in args {
                    a.substitute(quant, subst);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.substitute(quant, subst);
                }
            }
        }
    }

    /// Replace every [`Expr::Param`] node by whatever `subst` returns for
    /// its index (typically a literal from a binding vector).
    pub fn substitute_params<F: FnMut(usize) -> Expr>(&mut self, subst: &mut F) {
        match self {
            Expr::Param(i) => *self = subst(*i),
            Expr::Col { .. } | Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.substitute_params(subst);
                right.substitute_params(subst);
            }
            Expr::Unary { expr, .. } => expr.substitute_params(subst),
            Expr::Func { args, .. } => {
                for a in args {
                    a.substitute_params(subst);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.substitute_params(subst);
                }
            }
        }
    }

    /// If this is `lhs = rhs` where each side is a bare column, return the
    /// two references. Used to recognize correlation/join predicates.
    pub fn as_col_eq_col(&self) -> Option<((QuantId, usize), (QuantId, usize))> {
        if let Expr::Binary { op: BinOp::Eq, left, right } = self {
            if let (Expr::Col { quant: q1, col: c1 }, Expr::Col { quant: q2, col: c2 }) =
                (left.as_ref(), right.as_ref())
            {
                return Some(((*q1, *c1), (*q2, *c2)));
            }
        }
        None
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col { quant, col } => write!(f, "Q{}.c{}", quant.index(), col),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "${i}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op: UnOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Unary { op: UnOp::Neg, expr } => write!(f, "(-{expr})"),
            Expr::Unary { op, expr } => write!(f, "({expr} {op})"),
            Expr::Func { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Agg { func, arg, distinct } => {
                write!(f, "{func}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    Some(a) => write!(f, "{a}")?,
                    None => write!(f, "*")?,
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QuantId {
        QuantId::from_index(i)
    }

    #[test]
    fn split_conjuncts_flattens() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::And, Expr::lit(1), Expr::lit(2)),
            Expr::lit(3),
        );
        assert_eq!(e.split_conjuncts().len(), 3);
        assert_eq!(Expr::lit(1).split_conjuncts().len(), 1);
    }

    #[test]
    fn col_visiting_and_mapping() {
        let mut e = Expr::bin(
            BinOp::Lt,
            Expr::col(q(0), 1),
            Expr::bin(BinOp::Add, Expr::col(q(1), 0), Expr::lit(5)),
        );
        assert_eq!(e.referenced_quants(), vec![q(0), q(1)]);
        assert!(e.references(q(1)));
        assert!(!e.references(q(9)));
        e.map_cols(&mut |qq, c| if qq == q(0) { (q(7), c + 1) } else { (qq, c) });
        assert!(e.references(q(7)));
        assert!(!e.references(q(0)));
    }

    #[test]
    fn as_col_eq_col_recognizes_join_predicates() {
        let e = Expr::eq(Expr::col(q(0), 2), Expr::col(q(1), 3));
        assert_eq!(e.as_col_eq_col(), Some(((q(0), 2), (q(1), 3))));
        let not_eq = Expr::bin(BinOp::Lt, Expr::col(q(0), 2), Expr::col(q(1), 3));
        assert_eq!(not_eq.as_col_eq_col(), None);
    }

    #[test]
    fn contains_agg() {
        assert!(Expr::count_star().contains_agg());
        let e = Expr::bin(
            BinOp::Mul,
            Expr::lit(0.2),
            Expr::agg(AggFunc::Avg, Expr::col(q(0), 0)),
        );
        assert!(e.contains_agg());
        assert!(!Expr::col(q(0), 0).contains_agg());
    }

    #[test]
    fn empty_aggregate_values() {
        assert_eq!(AggFunc::Count.empty_value(), Value::Int(0));
        assert!(AggFunc::Sum.empty_value().is_null());
    }

    #[test]
    fn flip_comparisons() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
    }

    #[test]
    fn display() {
        let e = Expr::bin(BinOp::Gt, Expr::col(q(2), 0), Expr::lit(10));
        assert_eq!(e.to_string(), "(Q2.c0 > 10)");
        assert_eq!(Expr::count_star().to_string(), "COUNT(*)");
    }
}
