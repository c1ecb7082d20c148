//! Select-abstraction: the array machinery behind the `wp` rules for
//! stores, array havocs, and diverge framing.
//!
//! A postcondition `Q` that reads a mutated array `x` is rewritten by
//! replacing each distinct read `x[j]` with a fresh integer variable; the
//! caller then either constrains those variables (store: read-over-write
//! case split) or universally quantifies them (havoc/diverge: contents
//! forgotten). Reads whose index mentions a bound variable cannot be
//! lifted out of their binder and are rejected.

use super::vc::VcgenError;
use relaxed_lang::free::int_expr_vars;
use relaxed_lang::subst::FreshVars;
use relaxed_lang::{Formula, IntExpr, RelFormula, RelIntExpr, Side, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Collects the distinct index expressions of reads `target[...]` in a
/// unary formula.
///
/// # Errors
///
/// Rejects nested reads of `target` and indices that mention a variable
/// bound inside the formula.
pub fn collect_selects(
    p: &Formula,
    target: &Var,
    context: &str,
) -> Result<Vec<IntExpr>, VcgenError> {
    let mut out = Vec::new();
    let mut bound = BTreeSet::new();
    walk_formula(p, target, &mut bound, &mut out, context)?;
    Ok(out)
}

fn note_index(
    target: &Var,
    index: &IntExpr,
    bound: &BTreeSet<Var>,
    out: &mut Vec<IntExpr>,
    context: &str,
) -> Result<(), VcgenError> {
    let vars = int_expr_vars(index);
    if vars.contains(target) {
        return Err(VcgenError::NestedSelect {
            array: target.name().to_string(),
            context: context.to_string(),
        });
    }
    if vars.iter().any(|v| bound.contains(v)) {
        return Err(VcgenError::BoundIndex {
            array: target.name().to_string(),
            context: context.to_string(),
        });
    }
    if !out.contains(index) {
        out.push(index.clone());
    }
    Ok(())
}

fn walk_int(
    e: &IntExpr,
    target: &Var,
    bound: &BTreeSet<Var>,
    out: &mut Vec<IntExpr>,
    context: &str,
) -> Result<(), VcgenError> {
    match e {
        IntExpr::Const(_) | IntExpr::Var(_) | IntExpr::Len(_) => Ok(()),
        IntExpr::Bin(_, lhs, rhs) => {
            walk_int(lhs, target, bound, out, context)?;
            walk_int(rhs, target, bound, out, context)
        }
        IntExpr::Select(v, index) => {
            walk_int(index, target, bound, out, context)?;
            if v == target {
                note_index(target, index, bound, out, context)?;
            }
            Ok(())
        }
    }
}

fn walk_formula(
    p: &Formula,
    target: &Var,
    bound: &mut BTreeSet<Var>,
    out: &mut Vec<IntExpr>,
    context: &str,
) -> Result<(), VcgenError> {
    match p {
        Formula::True | Formula::False => Ok(()),
        Formula::Cmp(_, lhs, rhs) => {
            walk_int(lhs, target, bound, out, context)?;
            walk_int(rhs, target, bound, out, context)
        }
        Formula::And(l, r) | Formula::Or(l, r) | Formula::Implies(l, r) => {
            walk_formula(l, target, bound, out, context)?;
            walk_formula(r, target, bound, out, context)
        }
        Formula::Not(inner) => walk_formula(inner, target, bound, out, context),
        Formula::Exists(v, body) | Formula::Forall(v, body) => {
            let fresh_here = bound.insert(v.clone());
            let r = walk_formula(body, target, bound, out, context);
            if fresh_here {
                bound.remove(v);
            }
            r
        }
    }
}

/// Replaces reads `target[j]` with the mapped variables.
pub fn replace_selects(p: &Formula, target: &Var, map: &BTreeMap<IntExpr, Var>) -> Formula {
    fn go_int(e: &IntExpr, target: &Var, map: &BTreeMap<IntExpr, Var>) -> IntExpr {
        match e {
            IntExpr::Const(_) | IntExpr::Var(_) | IntExpr::Len(_) => e.clone(),
            IntExpr::Bin(op, lhs, rhs) => {
                IntExpr::bin(*op, go_int(lhs, target, map), go_int(rhs, target, map))
            }
            IntExpr::Select(v, index) => {
                let index2 = go_int(index, target, map);
                if v == target {
                    if let Some(fresh) = map.get(&index2) {
                        return IntExpr::Var(fresh.clone());
                    }
                }
                IntExpr::Select(v.clone(), Box::new(index2))
            }
        }
    }
    fn go(p: &Formula, target: &Var, map: &BTreeMap<IntExpr, Var>) -> Formula {
        match p {
            Formula::True | Formula::False => p.clone(),
            Formula::Cmp(op, lhs, rhs) => {
                Formula::Cmp(*op, go_int(lhs, target, map), go_int(rhs, target, map))
            }
            Formula::And(l, r) => {
                Formula::And(Box::new(go(l, target, map)), Box::new(go(r, target, map)))
            }
            Formula::Or(l, r) => {
                Formula::Or(Box::new(go(l, target, map)), Box::new(go(r, target, map)))
            }
            Formula::Implies(l, r) => {
                Formula::Implies(Box::new(go(l, target, map)), Box::new(go(r, target, map)))
            }
            Formula::Not(inner) => Formula::Not(Box::new(go(inner, target, map))),
            Formula::Exists(v, body) => Formula::Exists(v.clone(), Box::new(go(body, target, map))),
            Formula::Forall(v, body) => Formula::Forall(v.clone(), Box::new(go(body, target, map))),
        }
    }
    go(p, target, map)
}

/// Abstracts all reads of `target` in `q` into fresh variables.
///
/// Returns the rewritten formula and the `(index, fresh var)` pairs; the
/// caller decides how to constrain/quantify the fresh variables.
pub fn abstract_selects(
    q: &Formula,
    target: &Var,
    fresh: &mut FreshVars,
    context: &str,
) -> Result<(Formula, Vec<(IntExpr, Var)>), VcgenError> {
    let indices = collect_selects(q, target, context)?;
    let mut map = BTreeMap::new();
    let mut pairs = Vec::new();
    for index in indices {
        let v = fresh.fresh(&Var::new(format!("{}_cell", target.name())));
        map.insert(index.clone(), v.clone());
        pairs.push((index, v));
    }
    Ok((replace_selects(q, target, &map), pairs))
}

// ------------------------- relational versions -------------------------

/// Collects reads `target<side>[...]` in a relational formula.
///
/// # Errors
///
/// Same conditions as [`collect_selects`].
pub fn collect_rel_selects(
    p: &RelFormula,
    target: &Var,
    side: Side,
    context: &str,
) -> Result<Vec<RelIntExpr>, VcgenError> {
    let mut out = Vec::new();
    let mut bound = BTreeSet::new();
    rel_walk_formula(p, target, side, &mut bound, &mut out, context)?;
    Ok(out)
}

fn rel_note_index(
    target: &Var,
    side: Side,
    index: &RelIntExpr,
    bound: &BTreeSet<(Var, Side)>,
    out: &mut Vec<RelIntExpr>,
    context: &str,
) -> Result<(), VcgenError> {
    let vars = relaxed_lang::free::rel_int_expr_vars(index);
    if vars.contains(&(target.clone(), side)) {
        return Err(VcgenError::NestedSelect {
            array: format!("{}{}", target.name(), side.marker()),
            context: context.to_string(),
        });
    }
    if vars.iter().any(|v| bound.contains(v)) {
        return Err(VcgenError::BoundIndex {
            array: format!("{}{}", target.name(), side.marker()),
            context: context.to_string(),
        });
    }
    if !out.contains(index) {
        out.push(index.clone());
    }
    Ok(())
}

fn rel_walk_int(
    e: &RelIntExpr,
    target: &Var,
    side: Side,
    bound: &BTreeSet<(Var, Side)>,
    out: &mut Vec<RelIntExpr>,
    context: &str,
) -> Result<(), VcgenError> {
    match e {
        RelIntExpr::Const(_) | RelIntExpr::Var(_, _) | RelIntExpr::Len(_, _) => Ok(()),
        RelIntExpr::Bin(_, lhs, rhs) => {
            rel_walk_int(lhs, target, side, bound, out, context)?;
            rel_walk_int(rhs, target, side, bound, out, context)
        }
        RelIntExpr::Select(v, s, index) => {
            rel_walk_int(index, target, side, bound, out, context)?;
            if v == target && *s == side {
                rel_note_index(target, side, index, bound, out, context)?;
            }
            Ok(())
        }
    }
}

fn rel_walk_formula(
    p: &RelFormula,
    target: &Var,
    side: Side,
    bound: &mut BTreeSet<(Var, Side)>,
    out: &mut Vec<RelIntExpr>,
    context: &str,
) -> Result<(), VcgenError> {
    match p {
        RelFormula::True | RelFormula::False => Ok(()),
        RelFormula::Cmp(_, lhs, rhs) => {
            rel_walk_int(lhs, target, side, bound, out, context)?;
            rel_walk_int(rhs, target, side, bound, out, context)
        }
        RelFormula::And(l, r) | RelFormula::Or(l, r) | RelFormula::Implies(l, r) => {
            rel_walk_formula(l, target, side, bound, out, context)?;
            rel_walk_formula(r, target, side, bound, out, context)
        }
        RelFormula::Not(inner) => rel_walk_formula(inner, target, side, bound, out, context),
        RelFormula::Exists(v, s, body) | RelFormula::Forall(v, s, body) => {
            let fresh_here = bound.insert((v.clone(), *s));
            let r = rel_walk_formula(body, target, side, bound, out, context);
            if fresh_here {
                bound.remove(&(v.clone(), *s));
            }
            r
        }
    }
}

/// Replaces reads `target<side>[j]` with the mapped (side-tagged fresh)
/// variables.
pub fn replace_rel_selects(
    p: &RelFormula,
    target: &Var,
    side: Side,
    map: &BTreeMap<RelIntExpr, Var>,
) -> RelFormula {
    fn go_int(
        e: &RelIntExpr,
        target: &Var,
        side: Side,
        map: &BTreeMap<RelIntExpr, Var>,
    ) -> RelIntExpr {
        match e {
            RelIntExpr::Const(_) | RelIntExpr::Var(_, _) | RelIntExpr::Len(_, _) => e.clone(),
            RelIntExpr::Bin(op, lhs, rhs) => RelIntExpr::bin(
                *op,
                go_int(lhs, target, side, map),
                go_int(rhs, target, side, map),
            ),
            RelIntExpr::Select(v, s, index) => {
                let index2 = go_int(index, target, side, map);
                if v == target && *s == side {
                    if let Some(fresh) = map.get(&index2) {
                        return RelIntExpr::Var(fresh.clone(), side);
                    }
                }
                RelIntExpr::Select(v.clone(), *s, Box::new(index2))
            }
        }
    }
    fn go(p: &RelFormula, target: &Var, side: Side, map: &BTreeMap<RelIntExpr, Var>) -> RelFormula {
        match p {
            RelFormula::True | RelFormula::False => p.clone(),
            RelFormula::Cmp(op, lhs, rhs) => RelFormula::Cmp(
                *op,
                go_int(lhs, target, side, map),
                go_int(rhs, target, side, map),
            ),
            RelFormula::And(l, r) => RelFormula::And(
                Box::new(go(l, target, side, map)),
                Box::new(go(r, target, side, map)),
            ),
            RelFormula::Or(l, r) => RelFormula::Or(
                Box::new(go(l, target, side, map)),
                Box::new(go(r, target, side, map)),
            ),
            RelFormula::Implies(l, r) => RelFormula::Implies(
                Box::new(go(l, target, side, map)),
                Box::new(go(r, target, side, map)),
            ),
            RelFormula::Not(inner) => RelFormula::Not(Box::new(go(inner, target, side, map))),
            RelFormula::Exists(v, s, body) => {
                RelFormula::Exists(v.clone(), *s, Box::new(go(body, target, side, map)))
            }
            RelFormula::Forall(v, s, body) => {
                RelFormula::Forall(v.clone(), *s, Box::new(go(body, target, side, map)))
            }
        }
    }
    go(p, target, side, map)
}

/// Abstracts all reads of `target<side>` in `q` into fresh side-tagged
/// variables, returning the rewritten formula and the fresh binders.
pub fn abstract_rel_selects(
    q: &RelFormula,
    target: &Var,
    side: Side,
    fresh: &mut FreshVars,
    context: &str,
) -> Result<(RelFormula, Vec<(RelIntExpr, Var)>), VcgenError> {
    let indices = collect_rel_selects(q, target, side, context)?;
    let mut map = BTreeMap::new();
    let mut pairs = Vec::new();
    for index in indices {
        let v = fresh.fresh(&Var::new(format!(
            "{}_cell_{}",
            target.name(),
            match side {
                Side::Original => "o",
                Side::Relaxed => "r",
            }
        )));
        map.insert(index.clone(), v.clone());
        pairs.push((index, v));
    }
    Ok((replace_rel_selects(q, target, side, &map), pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_lang::builder::{c, sel, v};
    use relaxed_lang::CmpOp;

    fn a() -> Var {
        Var::new("a")
    }

    #[test]
    fn collect_distinct_indices() {
        // a[i] ≥ 0 ∧ a[i+1] ≥ a[i]
        let q = Formula::from(sel("a", v("i")).ge(c(0)))
            .and(sel("a", v("i") + c(1)).ge(sel("a", v("i"))).into());
        let idx = collect_selects(&q, &a(), "t").unwrap();
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn nested_select_rejected() {
        let q = Formula::from(sel("a", sel("a", c(0))).ge(c(0)));
        assert!(matches!(
            collect_selects(&q, &a(), "t"),
            Err(VcgenError::NestedSelect { .. })
        ));
    }

    #[test]
    fn bound_index_rejected() {
        let q = Formula::from(sel("a", v("k")).ge(c(0))).forall("k");
        assert!(matches!(
            collect_selects(&q, &a(), "t"),
            Err(VcgenError::BoundIndex { .. })
        ));
    }

    #[test]
    fn other_arrays_are_ignored() {
        let q = Formula::from(sel("b", v("i")).ge(c(0)));
        assert_eq!(collect_selects(&q, &a(), "t").unwrap().len(), 0);
    }

    #[test]
    fn abstraction_replaces_and_reports() {
        let mut fresh = FreshVars::new();
        let q = Formula::from(sel("a", v("i")).ge(c(0)));
        let (q2, pairs) = abstract_selects(&q, &a(), &mut fresh, "t").unwrap();
        assert_eq!(pairs.len(), 1);
        match q2 {
            Formula::Cmp(CmpOp::Ge, IntExpr::Var(fresh_var), _) => {
                assert_eq!(fresh_var, pairs[0].1);
            }
            other => panic!("expected rewritten atom, got {other:?}"),
        }
    }

    #[test]
    fn rel_abstraction_is_per_side() {
        use relaxed_lang::builder::{rsel, vo, vr};
        // a<o>[i<o>] ≤ a<r>[i<r>]
        let q: RelFormula = rsel("a", Side::Original, vo("i"))
            .le(rsel("a", Side::Relaxed, vr("i")))
            .into();
        let mut fresh = FreshVars::new();
        let (q2, pairs) = abstract_rel_selects(&q, &a(), Side::Relaxed, &mut fresh, "t").unwrap();
        assert_eq!(pairs.len(), 1);
        // The original-side read must survive.
        let remaining = collect_rel_selects(&q2, &a(), Side::Original, "t").unwrap();
        assert_eq!(remaining.len(), 1);
        let gone = collect_rel_selects(&q2, &a(), Side::Relaxed, "t").unwrap();
        assert_eq!(gone.len(), 0);
    }
}
