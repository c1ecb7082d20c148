//! Unary integer and boolean expressions (`E` and `B` in Fig. 1).
//!
//! Expressions reference values from a single execution only. Beyond the
//! paper's grammar we add one-dimensional array reads `x[e]` and an array
//! length operator `len(x)` (per the paper's footnote 2, arrays are a
//! straightforward extension used by the §5 case studies).

use crate::ident::Var;
use std::fmt;

/// Binary integer operators (`iop` in Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum IntBinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Truncated division `/` (division by zero is an evaluation error).
    Div,
    /// Truncated remainder `%` (modulus zero is an evaluation error).
    Mod,
}

impl IntBinOp {
    /// Concrete-syntax symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            IntBinOp::Add => "+",
            IntBinOp::Sub => "-",
            IntBinOp::Mul => "*",
            IntBinOp::Div => "/",
            IntBinOp::Mod => "%",
        }
    }

    /// Applies the operator with checked arithmetic.
    ///
    /// Returns `None` on division/remainder by zero and on `i64` overflow;
    /// the evaluator maps `None` to an evaluation error (and the dynamic
    /// semantics, in turn, to the `wr` configuration).
    pub fn apply(self, lhs: i64, rhs: i64) -> Option<i64> {
        match self {
            IntBinOp::Add => lhs.checked_add(rhs),
            IntBinOp::Sub => lhs.checked_sub(rhs),
            IntBinOp::Mul => lhs.checked_mul(rhs),
            IntBinOp::Div => lhs.checked_div(rhs),
            IntBinOp::Mod => lhs.checked_rem(rhs),
        }
    }
}

impl fmt::Display for IntBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Comparison operators (`cmp` in Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Concrete-syntax symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Applies the comparison.
    pub fn apply(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The comparison satisfied exactly when `self` is not: `¬(a op b)`.
    #[must_use]
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// The comparison with its arguments swapped: `a op b ⟺ b op.swapped() a`.
    #[must_use]
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Binary boolean operators (`lop` in Fig. 1, plus implication and iff).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum BoolBinOp {
    /// Conjunction `&&`.
    And,
    /// Disjunction `||`.
    Or,
    /// Implication `==>`.
    Implies,
    /// Bi-implication `<==>`.
    Iff,
}

impl BoolBinOp {
    /// Concrete-syntax symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BoolBinOp::And => "&&",
            BoolBinOp::Or => "||",
            BoolBinOp::Implies => "==>",
            BoolBinOp::Iff => "<==>",
        }
    }

    /// Applies the operator.
    pub fn apply(self, lhs: bool, rhs: bool) -> bool {
        match self {
            BoolBinOp::And => lhs && rhs,
            BoolBinOp::Or => lhs || rhs,
            BoolBinOp::Implies => !lhs || rhs,
            BoolBinOp::Iff => lhs == rhs,
        }
    }
}

impl fmt::Display for BoolBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Integer expressions (`E` in Fig. 1, extended with array reads).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum IntExpr {
    /// An integer literal `n`.
    Const(i64),
    /// A variable reference `x`.
    Var(Var),
    /// A binary operation `E iop E`.
    Bin(IntBinOp, Box<IntExpr>, Box<IntExpr>),
    /// An array read `x[e]`.
    Select(Var, Box<IntExpr>),
    /// The length of an array variable `len(x)`.
    Len(Var),
}

impl IntExpr {
    /// An integer literal.
    pub fn constant(n: i64) -> IntExpr {
        IntExpr::Const(n)
    }

    /// A variable reference.
    pub fn var(v: impl Into<Var>) -> IntExpr {
        IntExpr::Var(v.into())
    }

    /// Builds a binary operation.
    pub fn bin(op: IntBinOp, lhs: IntExpr, rhs: IntExpr) -> IntExpr {
        IntExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// An array read `x[index]`.
    pub fn select(array: impl Into<Var>, index: IntExpr) -> IntExpr {
        IntExpr::Select(array.into(), Box::new(index))
    }

    /// Builds the comparison `self op other`.
    pub fn cmp(self, op: CmpOp, other: IntExpr) -> BoolExpr {
        BoolExpr::Cmp(op, self, other)
    }

    /// `self < other`
    pub fn lt(self, other: IntExpr) -> BoolExpr {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self <= other`
    pub fn le(self, other: IntExpr) -> BoolExpr {
        self.cmp(CmpOp::Le, other)
    }

    /// `self > other`
    pub fn gt(self, other: IntExpr) -> BoolExpr {
        self.cmp(CmpOp::Gt, other)
    }

    /// `self >= other`
    pub fn ge(self, other: IntExpr) -> BoolExpr {
        self.cmp(CmpOp::Ge, other)
    }

    /// `self == other`
    pub fn eq_expr(self, other: IntExpr) -> BoolExpr {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self != other`
    pub fn ne_expr(self, other: IntExpr) -> BoolExpr {
        self.cmp(CmpOp::Ne, other)
    }

    /// Whether the expression contains any `Select`/`Len` node.
    pub fn mentions_arrays(&self) -> bool {
        match self {
            IntExpr::Const(_) | IntExpr::Var(_) => false,
            IntExpr::Bin(_, lhs, rhs) => lhs.mentions_arrays() || rhs.mentions_arrays(),
            IntExpr::Select(_, _) | IntExpr::Len(_) => true,
        }
    }

    /// The number of nodes in the expression's tree.
    pub fn node_count(&self) -> usize {
        match self {
            IntExpr::Bin(_, lhs, rhs) => 1 + lhs.node_count() + rhs.node_count(),
            IntExpr::Select(_, index) => 1 + index.node_count(),
            IntExpr::Const(_) | IntExpr::Var(_) | IntExpr::Len(_) => 1,
        }
    }
}

impl From<i64> for IntExpr {
    fn from(n: i64) -> Self {
        IntExpr::Const(n)
    }
}

impl From<Var> for IntExpr {
    fn from(v: Var) -> Self {
        IntExpr::Var(v)
    }
}

impl std::ops::Add for IntExpr {
    type Output = IntExpr;
    fn add(self, rhs: IntExpr) -> IntExpr {
        IntExpr::bin(IntBinOp::Add, self, rhs)
    }
}

impl std::ops::Sub for IntExpr {
    type Output = IntExpr;
    fn sub(self, rhs: IntExpr) -> IntExpr {
        IntExpr::bin(IntBinOp::Sub, self, rhs)
    }
}

impl std::ops::Mul for IntExpr {
    type Output = IntExpr;
    fn mul(self, rhs: IntExpr) -> IntExpr {
        IntExpr::bin(IntBinOp::Mul, self, rhs)
    }
}

impl std::ops::Div for IntExpr {
    type Output = IntExpr;
    fn div(self, rhs: IntExpr) -> IntExpr {
        IntExpr::bin(IntBinOp::Div, self, rhs)
    }
}

impl std::ops::Rem for IntExpr {
    type Output = IntExpr;
    fn rem(self, rhs: IntExpr) -> IntExpr {
        IntExpr::bin(IntBinOp::Mod, self, rhs)
    }
}

impl std::ops::Neg for IntExpr {
    type Output = IntExpr;
    fn neg(self) -> IntExpr {
        IntExpr::bin(IntBinOp::Sub, IntExpr::Const(0), self)
    }
}

/// Boolean expressions (`B` in Fig. 1).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum BoolExpr {
    /// `true` or `false`.
    Const(bool),
    /// A comparison `E cmp E`.
    Cmp(CmpOp, IntExpr, IntExpr),
    /// A binary boolean operation `B lop B`.
    Bin(BoolBinOp, Box<BoolExpr>, Box<BoolExpr>),
    /// Negation `!B`.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// The literal `true`.
    pub fn truth() -> BoolExpr {
        BoolExpr::Const(true)
    }

    /// The literal `false`.
    pub fn falsity() -> BoolExpr {
        BoolExpr::Const(false)
    }

    /// Builds a binary boolean operation.
    pub fn bin(op: BoolBinOp, lhs: BoolExpr, rhs: BoolExpr) -> BoolExpr {
        BoolExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Conjunction, simplifying trivial `true` operands.
    pub fn and(self, other: BoolExpr) -> BoolExpr {
        match (self, other) {
            (BoolExpr::Const(true), rhs) => rhs,
            (lhs, BoolExpr::Const(true)) => lhs,
            (lhs, rhs) => BoolExpr::bin(BoolBinOp::And, lhs, rhs),
        }
    }

    /// Disjunction, simplifying trivial `false` operands.
    pub fn or(self, other: BoolExpr) -> BoolExpr {
        match (self, other) {
            (BoolExpr::Const(false), rhs) => rhs,
            (lhs, BoolExpr::Const(false)) => lhs,
            (lhs, rhs) => BoolExpr::bin(BoolBinOp::Or, lhs, rhs),
        }
    }

    /// Implication `self ==> other`.
    pub fn implies(self, other: BoolExpr) -> BoolExpr {
        BoolExpr::bin(BoolBinOp::Implies, self, other)
    }

    /// Logical negation. Double negations are collapsed.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> BoolExpr {
        match self {
            BoolExpr::Not(inner) => *inner,
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            other => BoolExpr::Not(Box::new(other)),
        }
    }

    /// Conjunction of a sequence of expressions (`true` when empty).
    pub fn conj(exprs: impl IntoIterator<Item = BoolExpr>) -> BoolExpr {
        exprs
            .into_iter()
            .fold(BoolExpr::truth(), |acc, e| acc.and(e))
    }

    /// Whether the expression contains any array read or `len`.
    pub fn mentions_arrays(&self) -> bool {
        match self {
            BoolExpr::Const(_) => false,
            BoolExpr::Cmp(_, lhs, rhs) => lhs.mentions_arrays() || rhs.mentions_arrays(),
            BoolExpr::Bin(_, lhs, rhs) => lhs.mentions_arrays() || rhs.mentions_arrays(),
            BoolExpr::Not(inner) => inner.mentions_arrays(),
        }
    }
}

impl From<bool> for BoolExpr {
    fn from(b: bool) -> Self {
        BoolExpr::Const(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> IntExpr {
        IntExpr::var("x")
    }

    #[test]
    fn checked_arithmetic_catches_overflow_and_div_zero() {
        assert_eq!(IntBinOp::Add.apply(1, 2), Some(3));
        assert_eq!(IntBinOp::Add.apply(i64::MAX, 1), None);
        assert_eq!(IntBinOp::Div.apply(7, 2), Some(3));
        assert_eq!(IntBinOp::Div.apply(7, 0), None);
        assert_eq!(IntBinOp::Mod.apply(7, 0), None);
        assert_eq!(IntBinOp::Mod.apply(-7, 2), Some(-1));
    }

    #[test]
    fn cmp_negation_is_complementary() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            for a in -2..=2 {
                for b in -2..=2 {
                    assert_eq!(op.apply(a, b), !op.negated().apply(a, b));
                    assert_eq!(op.apply(a, b), op.swapped().apply(b, a));
                }
            }
        }
    }

    #[test]
    fn operator_overloads_build_ast() {
        let e = x() + IntExpr::from(1);
        assert_eq!(
            e,
            IntExpr::Bin(
                IntBinOp::Add,
                Box::new(IntExpr::var("x")),
                Box::new(IntExpr::Const(1))
            )
        );
    }

    #[test]
    fn and_or_simplify_units() {
        let b = x().lt(IntExpr::from(3));
        assert_eq!(BoolExpr::truth().and(b.clone()), b);
        assert_eq!(b.clone().and(BoolExpr::truth()), b);
        assert_eq!(BoolExpr::falsity().or(b.clone()), b);
        assert_eq!(BoolExpr::conj(std::iter::empty()), BoolExpr::truth());
    }

    #[test]
    fn double_negation_collapses() {
        let b = x().lt(IntExpr::from(3));
        assert_eq!(b.clone().not().not(), b);
        assert_eq!(BoolExpr::truth().not(), BoolExpr::falsity());
    }

    #[test]
    fn mentions_arrays_detects_select() {
        assert!(!x().mentions_arrays());
        assert!(IntExpr::select("a", x()).mentions_arrays());
        assert!(IntExpr::Len(crate::Var::new("a")).mentions_arrays());
        assert!((IntExpr::select("a", x()) + IntExpr::from(1))
            .le(IntExpr::from(0))
            .mentions_arrays());
    }
}
