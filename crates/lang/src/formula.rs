//! The assertion logic: unary formulas `P` and relational formulas `P*`
//! (Fig. 5), with the injection/pairing operations of §3.1.2.
//!
//! The paper's logic provides existential quantification only (`∃x · P`,
//! `∃x<o> · P*`, `∃x<r> · P*`); universal quantification is definable as
//! `¬∃¬`. We provide `Forall` as a first-class constructor because the
//! weakest-precondition calculus in `relaxed-core` produces universals
//! directly — semantically it is exactly the defined form.

use crate::expr::{BoolBinOp, BoolExpr, CmpOp, IntExpr};
use crate::ident::{Side, Var};
use crate::rel::{RelBoolExpr, RelIntExpr};
use std::fmt;

/// Unary formulas `P` (Fig. 5): first-order logic over integer expressions.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Formula {
    /// `true`
    True,
    /// `false`
    False,
    /// A comparison atom `E cmp E`.
    Cmp(CmpOp, IntExpr, IntExpr),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Existential quantification `∃x · P` over the integers.
    Exists(Var, Box<Formula>),
    /// Universal quantification `∀x · P` (definable as `¬∃x·¬P`).
    Forall(Var, Box<Formula>),
}

impl Formula {
    /// Conjunction, simplifying `true`/`false` units.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, rhs) => rhs,
            (lhs, Formula::True) => lhs,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (lhs, rhs) => Formula::And(Box::new(lhs), Box::new(rhs)),
        }
    }

    /// Disjunction, simplifying `true`/`false` units.
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, rhs) => rhs,
            (lhs, Formula::False) => lhs,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (lhs, rhs) => Formula::Or(Box::new(lhs), Box::new(rhs)),
        }
    }

    /// Implication, simplifying trivial antecedents/consequents.
    pub fn implies(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, rhs) => rhs,
            (Formula::False, _) => Formula::True,
            (_, Formula::True) => Formula::True,
            (lhs, rhs) => Formula::Implies(Box::new(lhs), Box::new(rhs)),
        }
    }

    /// Negation, collapsing double negations and constants.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// `∃x · self`
    pub fn exists(self, var: impl Into<Var>) -> Formula {
        Formula::Exists(var.into(), Box::new(self))
    }

    /// `∀x · self`
    pub fn forall(self, var: impl Into<Var>) -> Formula {
        Formula::Forall(var.into(), Box::new(self))
    }

    /// `∃x1 · ∃x2 · … · self` (innermost-first over the iterator).
    pub fn exists_many(self, vars: impl IntoIterator<Item = Var>) -> Formula {
        vars.into_iter().fold(self, Formula::exists)
    }

    /// `∀x1 · ∀x2 · … · self`.
    pub fn forall_many(self, vars: impl IntoIterator<Item = Var>) -> Formula {
        vars.into_iter().fold(self, Formula::forall)
    }

    /// Conjunction of a sequence (`true` when empty).
    pub fn conj(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::True, Formula::and)
    }

    /// Embeds a boolean program expression as a (quantifier-free) formula.
    pub fn from_bool_expr(b: &BoolExpr) -> Formula {
        match b {
            BoolExpr::Const(true) => Formula::True,
            BoolExpr::Const(false) => Formula::False,
            BoolExpr::Cmp(op, lhs, rhs) => Formula::Cmp(*op, lhs.clone(), rhs.clone()),
            BoolExpr::Bin(BoolBinOp::And, lhs, rhs) => Formula::And(
                Box::new(Formula::from_bool_expr(lhs)),
                Box::new(Formula::from_bool_expr(rhs)),
            ),
            BoolExpr::Bin(BoolBinOp::Or, lhs, rhs) => Formula::Or(
                Box::new(Formula::from_bool_expr(lhs)),
                Box::new(Formula::from_bool_expr(rhs)),
            ),
            BoolExpr::Bin(BoolBinOp::Implies, lhs, rhs) => Formula::Implies(
                Box::new(Formula::from_bool_expr(lhs)),
                Box::new(Formula::from_bool_expr(rhs)),
            ),
            BoolExpr::Bin(BoolBinOp::Iff, lhs, rhs) => {
                let l = Formula::from_bool_expr(lhs);
                let r = Formula::from_bool_expr(rhs);
                Formula::And(
                    Box::new(Formula::Implies(Box::new(l.clone()), Box::new(r.clone()))),
                    Box::new(Formula::Implies(Box::new(r), Box::new(l))),
                )
            }
            BoolExpr::Not(inner) => Formula::Not(Box::new(Formula::from_bool_expr(inner))),
        }
    }

    /// Whether the formula is quantifier-free.
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Cmp(_, _, _) => true,
            Formula::And(lhs, rhs) | Formula::Or(lhs, rhs) | Formula::Implies(lhs, rhs) => {
                lhs.is_quantifier_free() && rhs.is_quantifier_free()
            }
            Formula::Not(inner) => inner.is_quantifier_free(),
            Formula::Exists(_, _) | Formula::Forall(_, _) => false,
        }
    }

    /// The number of nodes in the formula's tree, its terms included.
    pub fn node_count(&self) -> usize {
        match self {
            Formula::And(lhs, rhs) | Formula::Or(lhs, rhs) | Formula::Implies(lhs, rhs) => {
                1 + lhs.node_count() + rhs.node_count()
            }
            Formula::Not(inner) | Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
                1 + inner.node_count()
            }
            Formula::Cmp(_, lhs, rhs) => 1 + lhs.node_count() + rhs.node_count(),
            Formula::True | Formula::False => 1,
        }
    }
}

impl From<BoolExpr> for Formula {
    fn from(b: BoolExpr) -> Self {
        Formula::from_bool_expr(&b)
    }
}

impl From<bool> for Formula {
    fn from(b: bool) -> Self {
        if b {
            Formula::True
        } else {
            Formula::False
        }
    }
}

/// Relational formulas `P*` (Fig. 5): first-order logic over relational
/// integer expressions, with side-tagged quantifiers `∃x<o>` and `∃x<r>`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum RelFormula {
    /// `true`
    True,
    /// `false`
    False,
    /// A comparison atom `E* cmp E*`.
    Cmp(CmpOp, RelIntExpr, RelIntExpr),
    /// Conjunction.
    And(Box<RelFormula>, Box<RelFormula>),
    /// Disjunction.
    Or(Box<RelFormula>, Box<RelFormula>),
    /// Implication.
    Implies(Box<RelFormula>, Box<RelFormula>),
    /// Negation.
    Not(Box<RelFormula>),
    /// Existential quantification `∃x<o> · P*` / `∃x<r> · P*`.
    Exists(Var, Side, Box<RelFormula>),
    /// Universal quantification (definable as `¬∃¬`).
    Forall(Var, Side, Box<RelFormula>),
}

impl RelFormula {
    /// Conjunction, simplifying `true`/`false` units.
    pub fn and(self, other: RelFormula) -> RelFormula {
        match (self, other) {
            (RelFormula::True, rhs) => rhs,
            (lhs, RelFormula::True) => lhs,
            (RelFormula::False, _) | (_, RelFormula::False) => RelFormula::False,
            (lhs, rhs) => RelFormula::And(Box::new(lhs), Box::new(rhs)),
        }
    }

    /// Disjunction, simplifying `true`/`false` units.
    pub fn or(self, other: RelFormula) -> RelFormula {
        match (self, other) {
            (RelFormula::False, rhs) => rhs,
            (lhs, RelFormula::False) => lhs,
            (RelFormula::True, _) | (_, RelFormula::True) => RelFormula::True,
            (lhs, rhs) => RelFormula::Or(Box::new(lhs), Box::new(rhs)),
        }
    }

    /// Implication, simplifying trivial antecedents/consequents.
    pub fn implies(self, other: RelFormula) -> RelFormula {
        match (self, other) {
            (RelFormula::True, rhs) => rhs,
            (RelFormula::False, _) => RelFormula::True,
            (_, RelFormula::True) => RelFormula::True,
            (lhs, rhs) => RelFormula::Implies(Box::new(lhs), Box::new(rhs)),
        }
    }

    /// Negation, collapsing double negations and constants.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> RelFormula {
        match self {
            RelFormula::True => RelFormula::False,
            RelFormula::False => RelFormula::True,
            RelFormula::Not(inner) => *inner,
            other => RelFormula::Not(Box::new(other)),
        }
    }

    /// `∃x<side> · self`
    pub fn exists(self, var: impl Into<Var>, side: Side) -> RelFormula {
        RelFormula::Exists(var.into(), side, Box::new(self))
    }

    /// `∀x<side> · self`
    pub fn forall(self, var: impl Into<Var>, side: Side) -> RelFormula {
        RelFormula::Forall(var.into(), side, Box::new(self))
    }

    /// Conjunction of a sequence (`true` when empty).
    pub fn conj(fs: impl IntoIterator<Item = RelFormula>) -> RelFormula {
        fs.into_iter().fold(RelFormula::True, RelFormula::and)
    }

    /// The paper's injection `inj_o(P)` / `inj_r(P)` (§3.1.2): builds the
    /// relational formula in which `P` holds of the given side's state,
    /// i.e. `[[inj_o(P)]] = {(σ1, σ2) | σ1 ∈ [[P]]}`.
    pub fn inject(p: &Formula, side: Side) -> RelFormula {
        match p {
            Formula::True => RelFormula::True,
            Formula::False => RelFormula::False,
            Formula::Cmp(op, lhs, rhs) => RelFormula::Cmp(
                *op,
                RelIntExpr::inject(lhs, side),
                RelIntExpr::inject(rhs, side),
            ),
            Formula::And(lhs, rhs) => RelFormula::And(
                Box::new(RelFormula::inject(lhs, side)),
                Box::new(RelFormula::inject(rhs, side)),
            ),
            Formula::Or(lhs, rhs) => RelFormula::Or(
                Box::new(RelFormula::inject(lhs, side)),
                Box::new(RelFormula::inject(rhs, side)),
            ),
            Formula::Implies(lhs, rhs) => RelFormula::Implies(
                Box::new(RelFormula::inject(lhs, side)),
                Box::new(RelFormula::inject(rhs, side)),
            ),
            Formula::Not(inner) => RelFormula::Not(Box::new(RelFormula::inject(inner, side))),
            Formula::Exists(v, body) => RelFormula::inject(body, side).exists(v.clone(), side),
            Formula::Forall(v, body) => RelFormula::inject(body, side).forall(v.clone(), side),
        }
    }

    /// The paper's `⟨P1 · P2⟩ ≡ inj_o(P1) ∧ inj_r(P2)` notation.
    ///
    /// Structure-preserving (no simplification), like [`RelFormula::inject`].
    pub fn pair(p1: &Formula, p2: &Formula) -> RelFormula {
        RelFormula::And(
            Box::new(RelFormula::inject(p1, Side::Original)),
            Box::new(RelFormula::inject(p2, Side::Relaxed)),
        )
    }

    /// Embeds a relational boolean expression as a formula.
    pub fn from_rel_bool_expr(b: &RelBoolExpr) -> RelFormula {
        match b {
            RelBoolExpr::Const(true) => RelFormula::True,
            RelBoolExpr::Const(false) => RelFormula::False,
            RelBoolExpr::Cmp(op, lhs, rhs) => RelFormula::Cmp(*op, lhs.clone(), rhs.clone()),
            RelBoolExpr::Bin(BoolBinOp::And, lhs, rhs) => RelFormula::And(
                Box::new(RelFormula::from_rel_bool_expr(lhs)),
                Box::new(RelFormula::from_rel_bool_expr(rhs)),
            ),
            RelBoolExpr::Bin(BoolBinOp::Or, lhs, rhs) => RelFormula::Or(
                Box::new(RelFormula::from_rel_bool_expr(lhs)),
                Box::new(RelFormula::from_rel_bool_expr(rhs)),
            ),
            RelBoolExpr::Bin(BoolBinOp::Implies, lhs, rhs) => RelFormula::Implies(
                Box::new(RelFormula::from_rel_bool_expr(lhs)),
                Box::new(RelFormula::from_rel_bool_expr(rhs)),
            ),
            RelBoolExpr::Bin(BoolBinOp::Iff, lhs, rhs) => {
                let l = RelFormula::from_rel_bool_expr(lhs);
                let r = RelFormula::from_rel_bool_expr(rhs);
                RelFormula::And(
                    Box::new(RelFormula::Implies(
                        Box::new(l.clone()),
                        Box::new(r.clone()),
                    )),
                    Box::new(RelFormula::Implies(Box::new(r), Box::new(l))),
                )
            }
            RelBoolExpr::Not(inner) => {
                RelFormula::Not(Box::new(RelFormula::from_rel_bool_expr(inner)))
            }
        }
    }

    /// Syntactic projection: if every atom of the formula mentions only
    /// `side`-tagged variables, returns the unary formula with tags dropped.
    ///
    /// This under-approximates the paper's semantic projection `prj_side`:
    /// when it succeeds the result denotes exactly the projected state set
    /// for formulas built from one-sided atoms. The `diverge` rule in
    /// `relaxed-core` uses it to derive default unary contracts.
    pub fn try_project(&self, side: Side) -> Option<Formula> {
        match self {
            RelFormula::True => Some(Formula::True),
            RelFormula::False => Some(Formula::False),
            RelFormula::Cmp(op, lhs, rhs) => Some(Formula::Cmp(
                *op,
                lhs.try_project(side)?,
                rhs.try_project(side)?,
            )),
            RelFormula::And(lhs, rhs) => Some(lhs.try_project(side)?.and(rhs.try_project(side)?)),
            RelFormula::Or(lhs, rhs) => Some(lhs.try_project(side)?.or(rhs.try_project(side)?)),
            RelFormula::Implies(lhs, rhs) => {
                Some(lhs.try_project(side)?.implies(rhs.try_project(side)?))
            }
            RelFormula::Not(inner) => Some(inner.try_project(side)?.not()),
            RelFormula::Exists(v, s, body) => {
                (*s == side).then(|| body.try_project(side).map(|b| b.exists(v.clone())))?
            }
            RelFormula::Forall(v, s, body) => {
                (*s == side).then(|| body.try_project(side).map(|b| b.forall(v.clone())))?
            }
        }
    }

    /// Extracts the conjuncts of the formula that mention only `side`-tagged
    /// variables, as a unary formula (dropping the rest).
    ///
    /// Unlike [`RelFormula::try_project`], this never fails: it walks the
    /// top-level conjunction structure and keeps the one-sided pieces. The
    /// result is a sound *weakening* restricted to one side: any state pair
    /// satisfying `self` has its `side` component satisfying the result.
    pub fn project_conjuncts(&self, side: Side) -> Formula {
        match self {
            RelFormula::And(lhs, rhs) => {
                lhs.project_conjuncts(side).and(rhs.project_conjuncts(side))
            }
            other => other.try_project(side).unwrap_or(Formula::True),
        }
    }

    /// Whether the formula is quantifier-free.
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            RelFormula::True | RelFormula::False | RelFormula::Cmp(_, _, _) => true,
            RelFormula::And(lhs, rhs)
            | RelFormula::Or(lhs, rhs)
            | RelFormula::Implies(lhs, rhs) => lhs.is_quantifier_free() && rhs.is_quantifier_free(),
            RelFormula::Not(inner) => inner.is_quantifier_free(),
            RelFormula::Exists(_, _, _) | RelFormula::Forall(_, _, _) => false,
        }
    }

    /// The number of nodes in the formula's tree, its terms included.
    pub fn node_count(&self) -> usize {
        match self {
            RelFormula::And(lhs, rhs)
            | RelFormula::Or(lhs, rhs)
            | RelFormula::Implies(lhs, rhs) => 1 + lhs.node_count() + rhs.node_count(),
            RelFormula::Not(inner)
            | RelFormula::Exists(_, _, inner)
            | RelFormula::Forall(_, _, inner) => 1 + inner.node_count(),
            RelFormula::Cmp(_, lhs, rhs) => 1 + lhs.node_count() + rhs.node_count(),
            RelFormula::True | RelFormula::False => 1,
        }
    }
}

impl From<RelBoolExpr> for RelFormula {
    fn from(b: RelBoolExpr) -> Self {
        RelFormula::from_rel_bool_expr(&b)
    }
}

impl From<bool> for RelFormula {
    fn from(b: bool) -> Self {
        if b {
            RelFormula::True
        } else {
            RelFormula::False
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_formula(self, f)
    }
}

impl fmt::Display for RelFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_rel_formula(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_lt_3() -> Formula {
        Formula::Cmp(CmpOp::Lt, IntExpr::var("x"), IntExpr::from(3))
    }

    #[test]
    fn smart_constructors_simplify_units() {
        assert_eq!(Formula::True.and(x_lt_3()), x_lt_3());
        assert_eq!(x_lt_3().and(Formula::False), Formula::False);
        assert_eq!(Formula::False.or(x_lt_3()), x_lt_3());
        assert_eq!(Formula::False.implies(x_lt_3()), Formula::True);
        assert_eq!(x_lt_3().implies(Formula::True), Formula::True);
        assert_eq!(Formula::True.not(), Formula::False);
        assert_eq!(x_lt_3().not().not(), x_lt_3());
    }

    #[test]
    fn from_bool_expr_preserves_structure() {
        let b = IntExpr::var("x")
            .lt(IntExpr::from(3))
            .and(IntExpr::var("y").ge(IntExpr::from(0)));
        let f = Formula::from_bool_expr(&b);
        assert_eq!(
            f,
            Formula::Cmp(CmpOp::Lt, IntExpr::var("x"), IntExpr::from(3)).and(Formula::Cmp(
                CmpOp::Ge,
                IntExpr::var("y"),
                IntExpr::from(0)
            ))
        );
    }

    #[test]
    fn inject_then_project_roundtrips() {
        let p = x_lt_3().and(Formula::Cmp(CmpOp::Eq, IntExpr::var("y"), IntExpr::from(0)));
        for side in [Side::Original, Side::Relaxed] {
            let rel = RelFormula::inject(&p, side);
            assert_eq!(rel.try_project(side), Some(p.clone()));
            assert_eq!(rel.try_project(side.flipped()), None);
        }
    }

    #[test]
    fn pair_composes_injections() {
        let p = x_lt_3();
        let q = Formula::Cmp(CmpOp::Eq, IntExpr::var("y"), IntExpr::from(0));
        assert_eq!(
            RelFormula::pair(&p, &q),
            RelFormula::inject(&p, Side::Original).and(RelFormula::inject(&q, Side::Relaxed))
        );
    }

    #[test]
    fn project_conjuncts_keeps_one_sided_pieces() {
        let rel = RelFormula::inject(&x_lt_3(), Side::Original)
            .and(RelBoolExpr::var_sync("x").into())
            .and(RelFormula::inject(&x_lt_3(), Side::Relaxed));
        // The sync conjunct mentions both sides so it is dropped; each
        // injection survives on its own side.
        assert_eq!(rel.project_conjuncts(Side::Original), x_lt_3());
        assert_eq!(rel.project_conjuncts(Side::Relaxed), x_lt_3());
    }

    #[test]
    fn quantifier_free_detection() {
        assert!(x_lt_3().is_quantifier_free());
        assert!(!x_lt_3().exists("x").is_quantifier_free());
        let rel = RelFormula::inject(&x_lt_3(), Side::Original);
        assert!(rel.is_quantifier_free());
        assert!(!rel.exists("x", Side::Relaxed).is_quantifier_free());
    }

    #[test]
    fn inject_maps_quantifiers_to_side_tagged_quantifiers() {
        let p = x_lt_3().exists("x");
        let rel = RelFormula::inject(&p, Side::Relaxed);
        match rel {
            RelFormula::Exists(v, Side::Relaxed, _) => assert_eq!(v.name(), "x"),
            other => panic!("expected side-tagged exists, got {other:?}"),
        }
    }
}
