//! Lowering assertion-logic formulas into the SMT solver's language.
//!
//! Unary formulas map variables directly by name. Relational formulas map
//! the side-tagged variable `x<o>` to the solver name `x!o` and `x<r>` to
//! `x!r` — `!` cannot occur in source identifiers, so the two state spaces
//! and the original namespace never collide. Bound variables are
//! α-renamed to fresh solver names during encoding, so shadowing in the
//! source logic cannot confuse the solver's name-based substitution.

use relaxed_lang::{CmpOp, Formula, IntBinOp, IntExpr, RelFormula, RelIntExpr, Side, Var};
use relaxed_smt::ast::{BTerm, ITerm, Rel};
use std::collections::HashMap;

/// Version of the formula→solver lowering implemented by this module.
///
/// The on-disk verdict cache ([`crate::cache`]) folds this into its
/// [fingerprint](crate::cache::fingerprint): any change to the encoding —
/// name mangling, α-renaming, simplification — must bump this constant so
/// that verdicts keyed by the old encoding are invalidated instead of
/// replayed against goals they no longer describe.
///
/// Version 2: goal keys switched from the `Debug` rendering of the
/// encoded term to the interned canonical s-expression
/// ([`relaxed_smt::intern`]) — every key changed, so every pre-existing
/// cache entry must be invalidated.
pub const ENCODER_VERSION: u32 = 2;

/// Allocates fresh bound-variable names during encoding.
#[derive(Debug, Default)]
pub struct EncodeCtx {
    counter: u64,
}

impl EncodeCtx {
    /// Creates a fresh context.
    pub fn new() -> Self {
        EncodeCtx::default()
    }

    fn bound_name(&mut self, base: &Var) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{}!b{n}", base.name())
    }
}

/// The solver-level name of a unary program variable.
pub fn unary_name(v: &Var) -> String {
    v.name().to_string()
}

/// The solver-level name of a side-tagged program variable.
pub fn side_name(v: &Var, side: Side) -> String {
    match side {
        Side::Original => format!("{}!o", v.name()),
        Side::Relaxed => format!("{}!r", v.name()),
    }
}

fn cmp_rel(op: CmpOp) -> Rel {
    match op {
        CmpOp::Lt => Rel::Lt,
        CmpOp::Le => Rel::Le,
        CmpOp::Gt => Rel::Gt,
        CmpOp::Ge => Rel::Ge,
        CmpOp::Eq => Rel::Eq,
        CmpOp::Ne => Rel::Ne,
    }
}

fn int_bin(op: IntBinOp, l: ITerm, r: ITerm) -> ITerm {
    match op {
        IntBinOp::Add => l.add(r),
        IntBinOp::Sub => l.sub(r),
        IntBinOp::Mul => l.mul(r),
        IntBinOp::Div => ITerm::Div(Box::new(l), Box::new(r)),
        IntBinOp::Mod => ITerm::Mod(Box::new(l), Box::new(r)),
    }
}

type Env = HashMap<Var, String>;

fn encode_int(e: &IntExpr, env: &Env) -> ITerm {
    match e {
        IntExpr::Const(n) => ITerm::Const(*n),
        IntExpr::Var(v) => ITerm::Var(env.get(v).cloned().unwrap_or_else(|| unary_name(v))),
        IntExpr::Bin(op, lhs, rhs) => int_bin(*op, encode_int(lhs, env), encode_int(rhs, env)),
        IntExpr::Select(v, index) => ITerm::Select(
            env.get(v).cloned().unwrap_or_else(|| unary_name(v)),
            Box::new(encode_int(index, env)),
        ),
        IntExpr::Len(v) => ITerm::Len(env.get(v).cloned().unwrap_or_else(|| unary_name(v))),
    }
}

fn encode_formula_env(p: &Formula, env: &Env, ctx: &mut EncodeCtx) -> BTerm {
    match p {
        Formula::True => BTerm::True,
        Formula::False => BTerm::False,
        Formula::Cmp(op, lhs, rhs) => {
            BTerm::Atom(cmp_rel(*op), encode_int(lhs, env), encode_int(rhs, env))
        }
        Formula::And(l, r) => BTerm::And(
            Box::new(encode_formula_env(l, env, ctx)),
            Box::new(encode_formula_env(r, env, ctx)),
        ),
        Formula::Or(l, r) => BTerm::Or(
            Box::new(encode_formula_env(l, env, ctx)),
            Box::new(encode_formula_env(r, env, ctx)),
        ),
        Formula::Implies(l, r) => BTerm::Implies(
            Box::new(encode_formula_env(l, env, ctx)),
            Box::new(encode_formula_env(r, env, ctx)),
        ),
        Formula::Not(inner) => BTerm::Not(Box::new(encode_formula_env(inner, env, ctx))),
        Formula::Exists(v, body) => {
            let name = ctx.bound_name(v);
            let mut env2 = env.clone();
            env2.insert(v.clone(), name.clone());
            BTerm::Exists(name, Box::new(encode_formula_env(body, &env2, ctx)))
        }
        Formula::Forall(v, body) => {
            let name = ctx.bound_name(v);
            let mut env2 = env.clone();
            env2.insert(v.clone(), name.clone());
            BTerm::Forall(name, Box::new(encode_formula_env(body, &env2, ctx)))
        }
    }
}

/// Encodes a unary formula over the plain variable namespace.
pub fn encode_formula(p: &Formula, ctx: &mut EncodeCtx) -> BTerm {
    encode_formula_env(p, &Env::new(), ctx)
}

type RelEnv = HashMap<(Var, Side), String>;

fn encode_rel_int(e: &RelIntExpr, env: &RelEnv) -> ITerm {
    match e {
        RelIntExpr::Const(n) => ITerm::Const(*n),
        RelIntExpr::Var(v, side) => ITerm::Var(
            env.get(&(v.clone(), *side))
                .cloned()
                .unwrap_or_else(|| side_name(v, *side)),
        ),
        RelIntExpr::Bin(op, lhs, rhs) => {
            int_bin(*op, encode_rel_int(lhs, env), encode_rel_int(rhs, env))
        }
        RelIntExpr::Select(v, side, index) => ITerm::Select(
            env.get(&(v.clone(), *side))
                .cloned()
                .unwrap_or_else(|| side_name(v, *side)),
            Box::new(encode_rel_int(index, env)),
        ),
        RelIntExpr::Len(v, side) => ITerm::Len(
            env.get(&(v.clone(), *side))
                .cloned()
                .unwrap_or_else(|| side_name(v, *side)),
        ),
    }
}

fn encode_rel_formula_env(p: &RelFormula, env: &RelEnv, ctx: &mut EncodeCtx) -> BTerm {
    match p {
        RelFormula::True => BTerm::True,
        RelFormula::False => BTerm::False,
        RelFormula::Cmp(op, lhs, rhs) => BTerm::Atom(
            cmp_rel(*op),
            encode_rel_int(lhs, env),
            encode_rel_int(rhs, env),
        ),
        RelFormula::And(l, r) => BTerm::And(
            Box::new(encode_rel_formula_env(l, env, ctx)),
            Box::new(encode_rel_formula_env(r, env, ctx)),
        ),
        RelFormula::Or(l, r) => BTerm::Or(
            Box::new(encode_rel_formula_env(l, env, ctx)),
            Box::new(encode_rel_formula_env(r, env, ctx)),
        ),
        RelFormula::Implies(l, r) => BTerm::Implies(
            Box::new(encode_rel_formula_env(l, env, ctx)),
            Box::new(encode_rel_formula_env(r, env, ctx)),
        ),
        RelFormula::Not(inner) => BTerm::Not(Box::new(encode_rel_formula_env(inner, env, ctx))),
        RelFormula::Exists(v, side, body) => {
            let name = ctx.bound_name(v);
            let mut env2 = env.clone();
            env2.insert((v.clone(), *side), name.clone());
            BTerm::Exists(name, Box::new(encode_rel_formula_env(body, &env2, ctx)))
        }
        RelFormula::Forall(v, side, body) => {
            let name = ctx.bound_name(v);
            let mut env2 = env.clone();
            env2.insert((v.clone(), *side), name.clone());
            BTerm::Forall(name, Box::new(encode_rel_formula_env(body, &env2, ctx)))
        }
    }
}

/// Encodes a relational formula over the `x!o` / `x!r` namespaces.
pub fn encode_rel_formula(p: &RelFormula, ctx: &mut EncodeCtx) -> BTerm {
    encode_rel_formula_env(p, &RelEnv::new(), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_lang::builder::{c, v, vo, vr};
    use relaxed_lang::RelBoolExpr;
    use relaxed_smt::{Solver, Validity};

    #[test]
    fn unary_encoding_solves() {
        // x ≤ y ∧ y ≤ x ⇒ x == y
        let p = Formula::from(v("x").le(v("y")).and(v("y").le(v("x"))))
            .implies(Formula::from(v("x").eq_expr(v("y"))));
        let mut ctx = EncodeCtx::new();
        let encoded = encode_formula(&p, &mut ctx);
        assert_eq!(Solver::new().check_valid(&encoded), Validity::Valid);
    }

    #[test]
    fn sides_are_distinct_namespaces() {
        // x<o> == 1 ∧ x<r> == 2 is satisfiable: the sides are separate.
        let p: RelFormula = vo("x")
            .eq_expr(relaxed_lang::RelIntExpr::Const(1))
            .and(vr("x").eq_expr(relaxed_lang::RelIntExpr::Const(2)))
            .into();
        let mut ctx = EncodeCtx::new();
        let encoded = encode_rel_formula(&p, &mut ctx);
        assert!(matches!(
            Solver::new().check_sat(&encoded),
            relaxed_smt::SmtResult::Sat(_)
        ));
    }

    #[test]
    fn relational_entailment_solves() {
        // x<o> == x<r> ∧ x<o> ≥ 0 ⇒ x<r> ≥ 0 (the noninterference transfer).
        let p: RelFormula = RelFormula::from(RelBoolExpr::var_sync("x"))
            .and(vo("x").ge(relaxed_lang::RelIntExpr::Const(0)).into())
            .implies(vr("x").ge(relaxed_lang::RelIntExpr::Const(0)).into());
        let mut ctx = EncodeCtx::new();
        let encoded = encode_rel_formula(&p, &mut ctx);
        assert_eq!(Solver::new().check_valid(&encoded), Validity::Valid);
    }

    #[test]
    fn bound_variables_are_alpha_renamed() {
        // ∃x. x == y — the bound x must not clash with the free x below.
        let inner = Formula::from(v("x").eq_expr(v("y"))).exists("x");
        let outer = Formula::from(v("x").eq_expr(c(5))).and(inner);
        let mut ctx = EncodeCtx::new();
        let encoded = encode_formula(&outer, &mut ctx);
        // Satisfiable with x = 5 regardless of y.
        assert!(matches!(
            Solver::new().check_sat(&encoded),
            relaxed_smt::SmtResult::Sat(_)
        ));
    }

    #[test]
    fn quantified_rel_formula_encodes() {
        // ∀d<r> . x<r> == x<o> + d<r> ⇒ x<r> ≥ x<o> is not valid (d may be
        // negative): encoder + solver must agree.
        let p = RelFormula::from(vr("x").eq_expr(vo("x") + vr("d")))
            .implies(vr("x").ge(vo("x")).into())
            .forall("d", Side::Relaxed);
        let mut ctx = EncodeCtx::new();
        let encoded = encode_rel_formula(&p, &mut ctx);
        assert!(matches!(
            Solver::new().check_valid(&encoded),
            Validity::Invalid(_)
        ));
    }
}
