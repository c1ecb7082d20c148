//! Relational integer and boolean expressions (`E*` and `B*` in Fig. 1).
//!
//! Relational expressions may reference values from *both* executions of the
//! lockstep pair: `x<o>` reads the original execution's state and `x<r>`
//! reads the relaxed execution's state. They appear in `relate` statements
//! and throughout the relational assertion logic (Fig. 5).

use crate::expr::{BoolBinOp, BoolExpr, CmpOp, IntBinOp, IntExpr};
use crate::ident::{Side, Var};
use std::fmt;

/// Relational integer expressions (`E*` in Fig. 1, extended with arrays).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum RelIntExpr {
    /// An integer literal `n`.
    Const(i64),
    /// A side-tagged variable reference `x<o>` or `x<r>`.
    Var(Var, Side),
    /// A binary operation `E* iop E*`.
    Bin(IntBinOp, Box<RelIntExpr>, Box<RelIntExpr>),
    /// A side-tagged array read `x<o>[e*]` / `x<r>[e*]`.
    Select(Var, Side, Box<RelIntExpr>),
    /// A side-tagged array length `len(x<o>)` / `len(x<r>)`.
    Len(Var, Side),
}

impl RelIntExpr {
    /// A side-tagged variable reference.
    pub fn var(v: impl Into<Var>, side: Side) -> RelIntExpr {
        RelIntExpr::Var(v.into(), side)
    }

    /// `x<o>` — the variable's value in the original execution.
    pub fn orig(v: impl Into<Var>) -> RelIntExpr {
        RelIntExpr::var(v, Side::Original)
    }

    /// `x<r>` — the variable's value in the relaxed execution.
    pub fn relaxed(v: impl Into<Var>) -> RelIntExpr {
        RelIntExpr::var(v, Side::Relaxed)
    }

    /// Builds a binary operation.
    pub fn bin(op: IntBinOp, lhs: RelIntExpr, rhs: RelIntExpr) -> RelIntExpr {
        RelIntExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Builds the comparison `self op other`.
    pub fn cmp(self, op: CmpOp, other: RelIntExpr) -> RelBoolExpr {
        RelBoolExpr::Cmp(op, self, other)
    }

    /// `self <= other`
    pub fn le(self, other: RelIntExpr) -> RelBoolExpr {
        self.cmp(CmpOp::Le, other)
    }

    /// `self < other`
    pub fn lt(self, other: RelIntExpr) -> RelBoolExpr {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self >= other`
    pub fn ge(self, other: RelIntExpr) -> RelBoolExpr {
        self.cmp(CmpOp::Ge, other)
    }

    /// `self == other`
    pub fn eq_expr(self, other: RelIntExpr) -> RelBoolExpr {
        self.cmp(CmpOp::Eq, other)
    }

    /// Injects a unary expression, tagging every variable with `side`.
    ///
    /// This is the expression-level core of the paper's `inj_o`/`inj_r`
    /// functions: `inject(E, Original)` replaces each `x` with `x<o>`.
    pub fn inject(expr: &IntExpr, side: Side) -> RelIntExpr {
        match expr {
            IntExpr::Const(n) => RelIntExpr::Const(*n),
            IntExpr::Var(v) => RelIntExpr::Var(v.clone(), side),
            IntExpr::Bin(op, lhs, rhs) => RelIntExpr::bin(
                *op,
                RelIntExpr::inject(lhs, side),
                RelIntExpr::inject(rhs, side),
            ),
            IntExpr::Select(v, index) => {
                RelIntExpr::Select(v.clone(), side, Box::new(RelIntExpr::inject(index, side)))
            }
            IntExpr::Len(v) => RelIntExpr::Len(v.clone(), side),
        }
    }

    /// Attempts the inverse of [`RelIntExpr::inject`]: if every variable in
    /// the expression is tagged with `side`, returns the unary expression
    /// obtained by dropping the tags.
    pub fn try_project(&self, side: Side) -> Option<IntExpr> {
        match self {
            RelIntExpr::Const(n) => Some(IntExpr::Const(*n)),
            RelIntExpr::Var(v, s) => (*s == side).then(|| IntExpr::Var(v.clone())),
            RelIntExpr::Bin(op, lhs, rhs) => Some(IntExpr::bin(
                *op,
                lhs.try_project(side)?,
                rhs.try_project(side)?,
            )),
            RelIntExpr::Select(v, s, index) => (*s == side)
                .then(|| index.try_project(side))
                .flatten()
                .map(|index| IntExpr::select(v.clone(), index)),
            RelIntExpr::Len(v, s) => (*s == side).then(|| IntExpr::Len(v.clone())),
        }
    }

    /// Whether the expression contains any array read or `len`.
    pub fn mentions_arrays(&self) -> bool {
        match self {
            RelIntExpr::Const(_) | RelIntExpr::Var(_, _) => false,
            RelIntExpr::Bin(_, lhs, rhs) => lhs.mentions_arrays() || rhs.mentions_arrays(),
            RelIntExpr::Select(_, _, _) | RelIntExpr::Len(_, _) => true,
        }
    }

    /// The number of nodes in the expression's tree.
    pub fn node_count(&self) -> usize {
        match self {
            RelIntExpr::Bin(_, lhs, rhs) => 1 + lhs.node_count() + rhs.node_count(),
            RelIntExpr::Select(_, _, index) => 1 + index.node_count(),
            RelIntExpr::Const(_) | RelIntExpr::Var(..) | RelIntExpr::Len(..) => 1,
        }
    }
}

impl From<i64> for RelIntExpr {
    fn from(n: i64) -> Self {
        RelIntExpr::Const(n)
    }
}

impl std::ops::Add for RelIntExpr {
    type Output = RelIntExpr;
    fn add(self, rhs: RelIntExpr) -> RelIntExpr {
        RelIntExpr::bin(IntBinOp::Add, self, rhs)
    }
}

impl std::ops::Sub for RelIntExpr {
    type Output = RelIntExpr;
    fn sub(self, rhs: RelIntExpr) -> RelIntExpr {
        RelIntExpr::bin(IntBinOp::Sub, self, rhs)
    }
}

impl std::ops::Mul for RelIntExpr {
    type Output = RelIntExpr;
    fn mul(self, rhs: RelIntExpr) -> RelIntExpr {
        RelIntExpr::bin(IntBinOp::Mul, self, rhs)
    }
}

/// Relational boolean expressions (`B*` in Fig. 1).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum RelBoolExpr {
    /// `true` or `false`.
    Const(bool),
    /// A comparison `E* cmp E*`.
    Cmp(CmpOp, RelIntExpr, RelIntExpr),
    /// A binary boolean operation `B* lop B*`.
    Bin(BoolBinOp, Box<RelBoolExpr>, Box<RelBoolExpr>),
    /// Negation `!B*`.
    Not(Box<RelBoolExpr>),
}

impl RelBoolExpr {
    /// The literal `true`.
    pub fn truth() -> RelBoolExpr {
        RelBoolExpr::Const(true)
    }

    /// The literal `false`.
    pub fn falsity() -> RelBoolExpr {
        RelBoolExpr::Const(false)
    }

    /// Builds a binary boolean operation.
    pub fn bin(op: BoolBinOp, lhs: RelBoolExpr, rhs: RelBoolExpr) -> RelBoolExpr {
        RelBoolExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Conjunction, simplifying trivial `true` operands.
    pub fn and(self, other: RelBoolExpr) -> RelBoolExpr {
        match (self, other) {
            (RelBoolExpr::Const(true), rhs) => rhs,
            (lhs, RelBoolExpr::Const(true)) => lhs,
            (lhs, rhs) => RelBoolExpr::bin(BoolBinOp::And, lhs, rhs),
        }
    }

    /// Disjunction, simplifying trivial `false` operands.
    pub fn or(self, other: RelBoolExpr) -> RelBoolExpr {
        match (self, other) {
            (RelBoolExpr::Const(false), rhs) => rhs,
            (lhs, RelBoolExpr::Const(false)) => lhs,
            (lhs, rhs) => RelBoolExpr::bin(BoolBinOp::Or, lhs, rhs),
        }
    }

    /// Implication `self ==> other`.
    pub fn implies(self, other: RelBoolExpr) -> RelBoolExpr {
        RelBoolExpr::bin(BoolBinOp::Implies, self, other)
    }

    /// Logical negation. Double negations are collapsed.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> RelBoolExpr {
        match self {
            RelBoolExpr::Not(inner) => *inner,
            RelBoolExpr::Const(b) => RelBoolExpr::Const(!b),
            other => RelBoolExpr::Not(Box::new(other)),
        }
    }

    /// Injects a unary boolean expression, tagging every variable with `side`.
    pub fn inject(expr: &BoolExpr, side: Side) -> RelBoolExpr {
        match expr {
            BoolExpr::Const(b) => RelBoolExpr::Const(*b),
            BoolExpr::Cmp(op, lhs, rhs) => RelBoolExpr::Cmp(
                *op,
                RelIntExpr::inject(lhs, side),
                RelIntExpr::inject(rhs, side),
            ),
            BoolExpr::Bin(op, lhs, rhs) => RelBoolExpr::bin(
                *op,
                RelBoolExpr::inject(lhs, side),
                RelBoolExpr::inject(rhs, side),
            ),
            BoolExpr::Not(inner) => RelBoolExpr::Not(Box::new(RelBoolExpr::inject(inner, side))),
        }
    }

    /// The paper's `⟨b · b⟩` pairing on boolean expressions:
    /// `inj_o(lhs) && inj_r(rhs)`.
    pub fn pair(lhs: &BoolExpr, rhs: &BoolExpr) -> RelBoolExpr {
        RelBoolExpr::inject(lhs, Side::Original).and(RelBoolExpr::inject(rhs, Side::Relaxed))
    }

    /// `x<o> == x<r>` for one variable — the noninterference atom.
    pub fn var_sync(v: impl Into<Var>) -> RelBoolExpr {
        let v = v.into();
        RelIntExpr::orig(v.clone()).eq_expr(RelIntExpr::relaxed(v))
    }

    /// Attempts to strip side tags: if every variable is tagged with `side`,
    /// returns the unary expression.
    pub fn try_project(&self, side: Side) -> Option<BoolExpr> {
        match self {
            RelBoolExpr::Const(b) => Some(BoolExpr::Const(*b)),
            RelBoolExpr::Cmp(op, lhs, rhs) => Some(BoolExpr::Cmp(
                *op,
                lhs.try_project(side)?,
                rhs.try_project(side)?,
            )),
            RelBoolExpr::Bin(op, lhs, rhs) => Some(BoolExpr::bin(
                *op,
                lhs.try_project(side)?,
                rhs.try_project(side)?,
            )),
            RelBoolExpr::Not(inner) => Some(inner.try_project(side)?.not()),
        }
    }

    /// Whether the expression contains any array read or `len`.
    pub fn mentions_arrays(&self) -> bool {
        match self {
            RelBoolExpr::Const(_) => false,
            RelBoolExpr::Cmp(_, lhs, rhs) => lhs.mentions_arrays() || rhs.mentions_arrays(),
            RelBoolExpr::Bin(_, lhs, rhs) => lhs.mentions_arrays() || rhs.mentions_arrays(),
            RelBoolExpr::Not(inner) => inner.mentions_arrays(),
        }
    }
}

impl From<bool> for RelBoolExpr {
    fn from(b: bool) -> Self {
        RelBoolExpr::Const(b)
    }
}

impl fmt::Display for RelIntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_rel_int_expr(self, f)
    }
}

impl fmt::Display for RelBoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_rel_bool_expr(self, f)
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_int_expr(self, f)
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_bool_expr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_tags_every_variable() {
        let e = IntExpr::var("x") + IntExpr::var("y");
        let rel = RelIntExpr::inject(&e, Side::Original);
        assert_eq!(rel, RelIntExpr::orig("x") + RelIntExpr::orig("y"));
    }

    #[test]
    fn inject_project_roundtrip() {
        let b = (IntExpr::var("x") + IntExpr::from(1)).le(IntExpr::var("y"));
        for side in [Side::Original, Side::Relaxed] {
            let rel = RelBoolExpr::inject(&b, side);
            assert_eq!(rel.try_project(side), Some(b.clone()));
            assert_eq!(rel.try_project(side.flipped()), None);
        }
    }

    #[test]
    fn project_mixed_sides_fails() {
        let rel = RelIntExpr::orig("x") + RelIntExpr::relaxed("x");
        assert_eq!(rel.try_project(Side::Original), None);
        assert_eq!(rel.try_project(Side::Relaxed), None);
    }

    #[test]
    fn constants_project_to_either_side() {
        let rel = RelIntExpr::from(4) + RelIntExpr::from(5);
        assert!(rel.try_project(Side::Original).is_some());
        assert!(rel.try_project(Side::Relaxed).is_some());
    }

    #[test]
    fn pair_builds_conjunction_of_injections() {
        let b = IntExpr::var("x").lt(IntExpr::from(3));
        let paired = RelBoolExpr::pair(&b, &b);
        assert_eq!(
            paired,
            RelBoolExpr::inject(&b, Side::Original).and(RelBoolExpr::inject(&b, Side::Relaxed))
        );
    }

    #[test]
    fn var_sync_is_equality_across_sides() {
        assert_eq!(
            RelBoolExpr::var_sync("k"),
            RelIntExpr::orig("k").eq_expr(RelIntExpr::relaxed("k"))
        );
    }

    #[test]
    fn inject_select_tags_array_and_index() {
        let e = IntExpr::select("a", IntExpr::var("i"));
        let rel = RelIntExpr::inject(&e, Side::Relaxed);
        assert_eq!(
            rel,
            RelIntExpr::Select(
                Var::new("a"),
                Side::Relaxed,
                Box::new(RelIntExpr::relaxed("i"))
            )
        );
        assert!(rel.mentions_arrays());
    }
}
