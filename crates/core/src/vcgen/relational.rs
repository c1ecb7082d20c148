//! Weakest-precondition VC generation for the axiomatic *relaxed*
//! semantics `⊢r` (Fig. 8) — the relational Hoare logic relating relaxed
//! executions to original executions in lockstep.
//!
//! Rule-by-rule correspondence (`Q*` is the relational postcondition):
//!
//! | statement | `wp` |
//! |---|---|
//! | `x = e` | `Q*[inj_o(e)/x<o>, inj_r(e)/x<r>]` (lockstep) |
//! | `relax (X) st e` | `inj_o(e) ⇒ (∃X′<r>. inj_r(e)′) ∧ (∀X′<r>. inj_r(e)′ ⇒ Q*′)` — only the relaxed side moves; the original side's `assert e` is assumed, having been discharged by `⊢o` |
//! | `assert e` / `assume e` | `inj_o(e) ⇒ inj_r(e) ∧ Q*` — relational transfer (the Fig. 8 premise `P* ∧ inj_o(e) ⇒ inj_r(e)`) |
//! | `relate l : e*` | `e* ∧ Q*` |
//! | `havoc (X) st e` | both sides move independently |
//! | convergent `if`/`while` | lockstep branching plus the convergence premise `inj_o(b) ⟺ inj_r(b)` |
//! | diverge-annotated `if`/`while` | the Fig. 8 **diverge** rule: unary `⊢o`/`⊢i` sub-proofs against the contract, `no_rel(s)`, and a relational frame over the modified variables |
//!
//! The diverge encoding quantifies fresh values for every variable either
//! side may modify and assumes only `⟨Qo · Qr⟩` about them — exactly the
//! paper's "all relationships between the two semantics are lost and must
//! be reestablished", while unmodified variables keep their relational
//! facts (the relational frame rule the paper appeals to).

use super::arrays::abstract_rel_selects;
use super::unary::{vcs_unary, UnaryLogic};
use super::vc::{within_budget, Vc, VcBody, VcgenError};
use relaxed_lang::subst::{FreshVars, RelSubst};
use relaxed_lang::{
    BoolExpr, DivergeContract, Formula, IntExpr, RelFormula, RelIntExpr, Side, Stmt, Var,
};
use std::collections::BTreeSet;

/// The relational WP engine.
#[derive(Debug)]
pub struct RelVcgen {
    fresh: FreshVars,
    array_vars: BTreeSet<Var>,
    vcs: Vec<Vc>,
}

fn inj(p: &Formula, side: Side) -> RelFormula {
    RelFormula::inject(p, side)
}

fn inj_bool(b: &BoolExpr, side: Side) -> RelFormula {
    RelFormula::inject(&Formula::from_bool_expr(b), side)
}

impl RelVcgen {
    /// Creates an engine; `array_vars` routes array targets, `reserved`
    /// seeds the fresh-name allocator.
    pub fn new(array_vars: BTreeSet<Var>, reserved: BTreeSet<Var>) -> Self {
        let mut fresh = FreshVars::new();
        fresh.reserve(reserved);
        RelVcgen {
            fresh,
            array_vars,
            vcs: Vec::new(),
        }
    }

    /// The side conditions accumulated so far.
    pub fn into_vcs(self) -> Vec<Vc> {
        self.vcs
    }

    fn push_vc(&mut self, name: &str, context: &str, body: RelFormula) {
        self.vcs.push(Vc {
            name: name.to_string(),
            context: context.to_string(),
            body: VcBody::Rel(body),
        });
    }

    /// `wp_r(s, q)` plus accumulated side conditions.
    ///
    /// # Errors
    ///
    /// See [`VcgenError`]. Convergent loops need `rinvariant`; diverging
    /// statements need a `diverge` contract and must satisfy `no_rel`; a
    /// result past [`MAX_WP_NODES`](super::MAX_WP_NODES) nodes is refused.
    pub fn wp(&mut self, s: &Stmt, q: RelFormula, context: &str) -> Result<RelFormula, VcgenError> {
        let wp = self.wp_rule(s, q, context)?;
        within_budget(s, || wp.node_count(), context)?;
        Ok(wp)
    }

    /// One rule of [`wp`](RelVcgen::wp), before the size check.
    fn wp_rule(
        &mut self,
        s: &Stmt,
        q: RelFormula,
        context: &str,
    ) -> Result<RelFormula, VcgenError> {
        match s {
            Stmt::Skip => Ok(q),
            Stmt::Assign(x, e) => {
                let mut subst = RelSubst::new();
                subst.insert(
                    x.clone(),
                    Side::Original,
                    RelIntExpr::inject(e, Side::Original),
                );
                subst.insert(
                    x.clone(),
                    Side::Relaxed,
                    RelIntExpr::inject(e, Side::Relaxed),
                );
                Ok(subst.apply(&q))
            }
            Stmt::Store(x, index, value) => {
                let q = self.wp_rel_store(x, index, value, q, Side::Original, context)?;
                self.wp_rel_store(x, index, value, q, Side::Relaxed, context)
            }
            Stmt::Havoc(targets, pred) => {
                // Both executions choose independently.
                let q = self.wp_side_choice(targets, pred, q, Side::Original, context)?;
                self.wp_side_choice(targets, pred, q, Side::Relaxed, context)
            }
            Stmt::Relax(targets, pred) => {
                // Fig. 8 relax: only the relaxed side is reassigned. The
                // original side's `assert e` outcome is assumed (it is an
                // obligation of the ⊢o proof, and ⊨r only speaks about
                // pairs of successful executions).
                let inner = self.wp_side_choice(targets, pred, q, Side::Relaxed, context)?;
                Ok(inj_bool(pred, Side::Original).implies(inner))
            }
            Stmt::Assume(pred) | Stmt::Assert(pred) => {
                // Relational transfer: if the original execution passed the
                // predicate, the relaxed execution must too.
                Ok(inj_bool(pred, Side::Original).implies(inj_bool(pred, Side::Relaxed).and(q)))
            }
            Stmt::Relate(_, pred) => Ok(RelFormula::from_rel_bool_expr(pred).and(q)),
            Stmt::If(i) => match &i.diverge {
                Some(contract) => self.wp_diverge(s, contract, q, context),
                // Straight-line, relate-free branches admit the *product*
                // rule (full relational case analysis over the four branch
                // combinations, as in Benton's RHL); it subsumes the
                // convergent-if rule and needs no convergence premise.
                None if straight_line(&i.then_branch) && straight_line(&i.else_branch) => {
                    let bo = inj_bool(&i.cond, Side::Original);
                    let br = inj_bool(&i.cond, Side::Relaxed);
                    let mut out = RelFormula::True;
                    for (go, so) in [(true, &i.then_branch), (false, &i.else_branch)] {
                        for (gr, sr) in [(true, &i.then_branch), (false, &i.else_branch)] {
                            let guard_o = if go { bo.clone() } else { bo.clone().not() };
                            let guard_r = if gr { br.clone() } else { br.clone().not() };
                            let ctx = format!("{context}/product-{go}{gr}");
                            let inner = self.wp_one_side(sr, Side::Relaxed, q.clone(), &ctx)?;
                            let both = self.wp_one_side(so, Side::Original, inner, &ctx)?;
                            out = out.and(guard_o.and(guard_r).implies(both));
                        }
                    }
                    Ok(out)
                }
                None => {
                    let then_ctx = format!("{context}/if-then");
                    let else_ctx = format!("{context}/if-else");
                    let wp_then = self.wp(&i.then_branch, q.clone(), &then_ctx)?;
                    let wp_else = self.wp(&i.else_branch, q, &else_ctx)?;
                    let bo = inj_bool(&i.cond, Side::Original);
                    let br = inj_bool(&i.cond, Side::Relaxed);
                    // Convergence: both executions take the same branch.
                    let conv = bo
                        .clone()
                        .implies(br.clone())
                        .and(br.clone().implies(bo.clone()));
                    let both_true = bo.clone().and(br.clone());
                    let both_false = bo.not().and(br.not());
                    Ok(conv
                        .and(both_true.implies(wp_then))
                        .and(both_false.implies(wp_else)))
                }
            },
            Stmt::While(w) => match &w.diverge {
                Some(contract) => self.wp_diverge(s, contract, q, context),
                None => {
                    let inv = w
                        .rel_invariant
                        .clone()
                        .ok_or(VcgenError::MissingInvariant {
                            kind: "rinvariant",
                            context: context.to_string(),
                        })?;
                    let body_ctx = format!("{context}/while-body");
                    let body_wp = self.wp(&w.body, inv.clone(), &body_ctx)?;
                    let bo = inj_bool(&w.cond, Side::Original);
                    let br = inj_bool(&w.cond, Side::Relaxed);
                    let conv = bo
                        .clone()
                        .implies(br.clone())
                        .and(br.clone().implies(bo.clone()));
                    let both_true = bo.clone().and(br.clone());
                    let both_false = bo.not().and(br.not());
                    self.push_vc("loop-convergence", context, inv.clone().implies(conv));
                    self.push_vc(
                        "rinvariant-preserved",
                        context,
                        inv.clone().and(both_true).implies(body_wp),
                    );
                    // Exit, framed over the modified variables of each side.
                    let mut exit = inv.clone().and(both_false).implies(q);
                    let modified_o = w.body.modified_vars_original();
                    let modified_r = w.body.modified_vars();
                    let mut subst = RelSubst::new();
                    let mut binders: Vec<(Var, Side)> = Vec::new();
                    let mut touched_arrays: Vec<(Var, Side)> = Vec::new();
                    for (vars, side) in
                        [(&modified_o, Side::Original), (&modified_r, Side::Relaxed)]
                    {
                        for v in vars.iter() {
                            if self.array_vars.contains(v) {
                                touched_arrays.push((v.clone(), side));
                            } else {
                                let v2 = self.fresh.fresh(v);
                                subst.insert(v.clone(), side, RelIntExpr::Var(v2.clone(), side));
                                binders.push((v2, side));
                            }
                        }
                    }
                    exit = subst.apply(&exit);
                    for (a, side) in touched_arrays {
                        let (exit2, cells) =
                            abstract_rel_selects(&exit, &a, side, &mut self.fresh, context)?;
                        exit = exit2;
                        binders.extend(cells.into_iter().map(|(_, v)| (v, side)));
                    }
                    for (v, side) in binders {
                        exit = exit.forall(v, side);
                    }
                    Ok(inv.and(exit))
                }
            },
            Stmt::Seq(stmts) => {
                let mut q = q;
                for (i, s) in stmts.iter().enumerate().rev() {
                    let ctx = format!("{context}/{i}");
                    q = self.wp(s, q, &ctx)?;
                }
                Ok(q)
            }
        }
    }

    /// One-sided weakest precondition: `side`'s execution runs `s` while
    /// the other side stands still — the building block of the product
    /// rule for diverged branches.
    ///
    /// `assert`/`assume` on the original side are assumptions (their
    /// obligations belong to `⊢o`); on the relaxed side they are proof
    /// obligations, exactly as in the intermediate semantics `⊢i`. Like
    /// [`wp`](RelVcgen::wp), it refuses a result past the node budget.
    fn wp_one_side(
        &mut self,
        s: &Stmt,
        side: Side,
        q: RelFormula,
        context: &str,
    ) -> Result<RelFormula, VcgenError> {
        let wp = self.wp_one_side_rule(s, side, q, context)?;
        within_budget(s, || wp.node_count(), context)?;
        Ok(wp)
    }

    /// One rule of [`wp_one_side`](RelVcgen::wp_one_side), before the
    /// size check.
    fn wp_one_side_rule(
        &mut self,
        s: &Stmt,
        side: Side,
        q: RelFormula,
        context: &str,
    ) -> Result<RelFormula, VcgenError> {
        match s {
            Stmt::Skip => Ok(q),
            Stmt::Assign(x, e) => {
                let subst = RelSubst::single(x.clone(), side, RelIntExpr::inject(e, side));
                Ok(subst.apply(&q))
            }
            Stmt::Store(x, index, value) => self.wp_rel_store(x, index, value, q, side, context),
            Stmt::Havoc(targets, pred) => self.wp_side_choice(targets, pred, q, side, context),
            Stmt::Relax(targets, pred) => match side {
                Side::Original => Ok(inj_bool(pred, Side::Original).implies(q)),
                Side::Relaxed => self.wp_side_choice(targets, pred, q, side, context),
            },
            Stmt::Assume(pred) | Stmt::Assert(pred) => match side {
                Side::Original => Ok(inj_bool(pred, Side::Original).implies(q)),
                Side::Relaxed => Ok(inj_bool(pred, Side::Relaxed).and(q)),
            },
            Stmt::Relate(_, _) => Err(VcgenError::RelateNotAllowed {
                context: format!("{context} (inside a product branch)"),
            }),
            Stmt::If(i) => {
                let b = inj_bool(&i.cond, side);
                let wp_then = self.wp_one_side(&i.then_branch, side, q.clone(), context)?;
                let wp_else = self.wp_one_side(&i.else_branch, side, q, context)?;
                Ok(b.clone().implies(wp_then).and(b.not().implies(wp_else)))
            }
            Stmt::While(_) => Err(VcgenError::MissingInvariant {
                kind: "diverge contract (loop inside a product branch)",
                context: context.to_string(),
            }),
            Stmt::Seq(stmts) => {
                let mut q = q;
                for s in stmts.iter().rev() {
                    q = self.wp_one_side(s, side, q, context)?;
                }
                Ok(q)
            }
        }
    }

    /// One-sided choice: the `side` execution reassigns `targets` subject
    /// to `pred` (used by `relax` on the relaxed side and by `havoc` on
    /// each side in turn).
    fn wp_side_choice(
        &mut self,
        targets: &[Var],
        pred: &BoolExpr,
        q: RelFormula,
        side: Side,
        context: &str,
    ) -> Result<RelFormula, VcgenError> {
        let (ints, arrays): (Vec<_>, Vec<_>) =
            targets.iter().partition(|t| !self.array_vars.contains(*t));
        if !arrays.is_empty() && *pred != BoolExpr::Const(true) {
            return Err(VcgenError::ArrayChoiceWithPredicate {
                context: context.to_string(),
            });
        }
        let mut q = q;
        for a in arrays {
            let (q2, cells) = abstract_rel_selects(&q, a, side, &mut self.fresh, context)?;
            let mut q3 = q2;
            for (_, cell) in cells {
                q3 = q3.forall(cell, side);
            }
            q = q3;
        }
        if ints.is_empty() {
            return Ok(q);
        }
        let mut subst = RelSubst::new();
        let mut fresh_names = Vec::new();
        for t in &ints {
            let t2 = self.fresh.fresh(t);
            subst.insert((*t).clone(), side, RelIntExpr::Var(t2.clone(), side));
            fresh_names.push(t2);
        }
        let pred2 = subst.apply(&inj_bool(pred, side));
        let q2 = subst.apply(&q);
        let mut feasible = pred2.clone();
        let mut all = pred2.implies(q2);
        for name in fresh_names {
            feasible = feasible.exists(name.clone(), side);
            all = all.forall(name, side);
        }
        Ok(feasible.and(all))
    }

    /// Lockstep store on one side of the pair.
    fn wp_rel_store(
        &mut self,
        x: &Var,
        index: &IntExpr,
        value: &IntExpr,
        q: RelFormula,
        side: Side,
        context: &str,
    ) -> Result<RelFormula, VcgenError> {
        let index_s = RelIntExpr::inject(index, side);
        let value_s = RelIntExpr::inject(value, side);
        let in_bounds: RelFormula = RelIntExpr::Const(0)
            .le(index_s.clone())
            .and(index_s.clone().lt(RelIntExpr::Len(x.clone(), side)))
            .into();
        let (q2, cells) = abstract_rel_selects(&q, x, side, &mut self.fresh, context)?;
        if cells.is_empty() {
            return Ok(in_bounds.and(q2));
        }
        let mut defs = RelFormula::True;
        let mut binders = Vec::new();
        for (j, v) in cells {
            let cell = RelIntExpr::Var(v.clone(), side);
            let hit: RelFormula = j
                .clone()
                .eq_expr(index_s.clone())
                .and(cell.clone().eq_expr(value_s.clone()))
                .into();
            let miss: RelFormula = j
                .clone()
                .cmp(relaxed_lang::CmpOp::Ne, index_s.clone())
                .and(cell.eq_expr(RelIntExpr::Select(x.clone(), side, Box::new(j.clone()))))
                .into();
            defs = defs.and(hit.or(miss));
            binders.push(v);
        }
        let mut framed = defs.implies(q2);
        for v in binders {
            framed = framed.forall(v, side);
        }
        Ok(in_bounds.and(framed))
    }

    /// The Fig. 8 **diverge** rule.
    fn wp_diverge(
        &mut self,
        s: &Stmt,
        contract: &DivergeContract,
        q: RelFormula,
        context: &str,
    ) -> Result<RelFormula, VcgenError> {
        if !s.no_rel() {
            return Err(VcgenError::RelateNotAllowed {
                context: format!("{context} (inside a diverge statement)"),
            });
        }
        let po = contract.pre_o.clone().unwrap_or(Formula::True);
        let pr = contract.pre_r.clone().unwrap_or(Formula::True);
        // ⊢o {Po} s {Qo} — the original side alone.
        for mut vc in vcs_unary(
            UnaryLogic::Original,
            s,
            &po,
            &contract.post_o,
            &self.array_vars,
        )? {
            vc.context = format!("{context}/diverge-original/{}", vc.context);
            self.vcs.push(vc);
        }
        // ⊢i {Pr} s {Qr} — the relaxed side alone, via the intermediate
        // semantics.
        for mut vc in vcs_unary(
            UnaryLogic::Intermediate,
            s,
            &pr,
            &contract.post_r,
            &self.array_vars,
        )? {
            vc.context = format!("{context}/diverge-intermediate/{}", vc.context);
            self.vcs.push(vc);
        }
        // Relational frame: quantify fresh values for everything either
        // side may modify; assume only ⟨Qo · Qr⟩ about them.
        let modified_o = s.modified_vars_original();
        let modified_r = s.modified_vars();
        let mut f = inj(&contract.post_o, Side::Original)
            .and(inj(&contract.post_r, Side::Relaxed))
            .implies(q);
        let mut subst = RelSubst::new();
        let mut binders: Vec<(Var, Side)> = Vec::new();
        let mut arrays_to_forget: Vec<(Var, Side)> = Vec::new();
        for (vars, side) in [(&modified_o, Side::Original), (&modified_r, Side::Relaxed)] {
            for v in vars.iter() {
                if self.array_vars.contains(v) {
                    arrays_to_forget.push((v.clone(), side));
                } else {
                    let v2 = self.fresh.fresh(v);
                    subst.insert(v.clone(), side, RelIntExpr::Var(v2.clone(), side));
                    binders.push((v2, side));
                }
            }
        }
        f = subst.apply(&f);
        for (a, side) in arrays_to_forget {
            let (f2, cells) = abstract_rel_selects(&f, &a, side, &mut self.fresh, context)?;
            f = f2;
            binders.extend(cells.into_iter().map(|(_, v)| (v, side)));
        }
        for (v, side) in binders {
            f = f.forall(v, side);
        }
        Ok(inj(&po, Side::Original).and(inj(&pr, Side::Relaxed)).and(f))
    }
}

/// Whether a statement is loop-free and relate-free (product-rule
/// eligible).
fn straight_line(s: &Stmt) -> bool {
    match s {
        Stmt::Skip
        | Stmt::Assign(_, _)
        | Stmt::Store(_, _, _)
        | Stmt::Havoc(_, _)
        | Stmt::Relax(_, _)
        | Stmt::Assume(_)
        | Stmt::Assert(_) => true,
        Stmt::Relate(_, _) | Stmt::While(_) => false,
        Stmt::If(i) => straight_line(&i.then_branch) && straight_line(&i.else_branch),
        Stmt::Seq(ss) => ss.iter().all(straight_line),
    }
}

/// Generates the full VC set for `⊢r {rel_pre} s {rel_post}`.
///
/// # Errors
///
/// Propagates [`VcgenError`] from the calculus.
pub fn vcs_relaxed(
    s: &Stmt,
    rel_pre: &RelFormula,
    rel_post: &RelFormula,
    array_vars: &BTreeSet<Var>,
) -> Result<Vec<Vc>, VcgenError> {
    let mut reserved: BTreeSet<Var> = s.all_vars();
    reserved.extend(relaxed_lang::free::rel_formula_var_names(rel_pre));
    reserved.extend(relaxed_lang::free::rel_formula_var_names(rel_post));
    let mut generator = RelVcgen::new(array_vars.clone(), reserved);
    let wp = generator.wp(s, rel_post.clone(), "body")?;
    let mut vcs = generator.into_vcs();
    vcs.insert(
        0,
        Vc {
            name: "precondition-establishes-wp".to_string(),
            context: "entry".to_string(),
            body: VcBody::Rel(rel_pre.clone().implies(wp)),
        },
    );
    Ok(vcs)
}

/// `⋀_{v ∈ vars} v<o> == v<r>` — the standard "identical initial states"
/// relational precondition (with array variables synchronized pointwise
/// via lengths and universally-quantified indices).
pub fn sync_vars<'a>(
    vars: impl IntoIterator<Item = &'a Var>,
    array_vars: &BTreeSet<Var>,
) -> RelFormula {
    let mut out = RelFormula::True;
    for v in vars {
        if array_vars.contains(v) {
            out = out.and(sync_array(v));
        } else {
            out = out.and(relaxed_lang::RelBoolExpr::var_sync(v.clone()).into());
        }
    }
    out
}

/// Pointwise synchronization of one array variable:
/// `len(a<o>) == len(a<r>) ∧ ∀i. a<o>[i] == a<r>[i]`.
pub fn sync_array(v: &Var) -> RelFormula {
    let i = Var::new(format!("{}_sync_i", v.name()));
    let lens: RelFormula = RelIntExpr::Len(v.clone(), Side::Original)
        .eq_expr(RelIntExpr::Len(v.clone(), Side::Relaxed))
        .into();
    let cells: RelFormula = RelIntExpr::Select(
        v.clone(),
        Side::Original,
        Box::new(RelIntExpr::Var(i.clone(), Side::Original)),
    )
    .eq_expr(RelIntExpr::Select(
        v.clone(),
        Side::Relaxed,
        Box::new(RelIntExpr::Var(i.clone(), Side::Original)),
    ))
    .into();
    lens.and(cells.forall(i, Side::Original))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::array_vars;
    use crate::encode::{encode_rel_formula, EncodeCtx};
    use crate::vcgen::MAX_WP_NODES;
    use relaxed_lang::{parse_rel_formula, parse_stmt};
    use relaxed_smt::Solver;

    // Test-harness diagnostic: deliberately unconditional (not diag::warn,
    // which DISCHARGE_QUIET would swallow in a failing CI run).
    #[allow(clippy::print_stderr)]
    fn prove(vcs: &[Vc]) -> bool {
        let mut solver = Solver::new();
        vcs.iter().all(|vc| {
            let valid = match &vc.body {
                VcBody::Rel(p) => {
                    let encoded = encode_rel_formula(p, &mut EncodeCtx::new());
                    solver.check_valid(&encoded)
                }
                VcBody::Unary(p) => {
                    let encoded = crate::encode::encode_formula(p, &mut EncodeCtx::new());
                    solver.check_valid(&encoded)
                }
            };
            if !valid.is_valid() {
                eprintln!("failed VC {vc}: {valid:?}");
            }
            valid.is_valid()
        })
    }

    fn check(src: &str, pre: &str, post: &str) -> bool {
        let s = parse_stmt(src).unwrap();
        let pre = parse_rel_formula(pre).unwrap();
        let post = parse_rel_formula(post).unwrap();
        let mut arrays = array_vars(&s);
        arrays.extend(crate::analysis::rel_formula_array_vars(&pre));
        arrays.extend(crate::analysis::rel_formula_array_vars(&post));
        let vcs = vcs_relaxed(&s, &pre, &post, &arrays).unwrap();
        prove(&vcs)
    }

    #[test]
    fn exponentially_growing_obligations_are_refused() {
        // Each sequential `if` copies the postcondition four times under
        // the product rule, and each `x = x + x;` doubles every `x`: eight
        // ifs made a 5.5 M-node obligation, twenty doublings a 4.2 M-node
        // one.
        let ifs = |n: usize| -> String {
            (0..n)
                .map(|i| format!("if (x > {i}) {{ x = x + 1; }} else {{ x = x - 1; }}\n"))
                .collect()
        };
        let doublings = |n: usize| "x = x + x;\n".repeat(n);
        let sync = parse_rel_formula("x<o> == x<r>").unwrap();
        let vcgen = |src: &str| {
            let s = parse_stmt(src).unwrap();
            vcs_relaxed(&s, &sync, &sync, &BTreeSet::new())
        };
        // Refused as soon as a result passes the budget: at the sixth if
        // from the end, or at the seventeenth doubling.
        for (src, context) in [(ifs(8), "body/2"), (doublings(20), "body/3")] {
            let err = vcgen(&src).unwrap_err();
            assert_eq!(
                err,
                VcgenError::TooLarge {
                    limit: MAX_WP_NODES,
                    context: context.to_string()
                }
            );
            assert_eq!(
                err.to_string(),
                format!("{context}: obligation grows past 262144 nodes")
            );
        }
        // The largest of each shape that fits.
        assert!(vcgen(&ifs(5)).is_ok());
        assert!(vcgen(&doublings(16)).is_ok());
    }

    #[test]
    fn lockstep_assignment_preserves_sync() {
        assert!(check("y = x + 1;", "x<o> == x<r>", "y<o> == y<r>"));
    }

    #[test]
    fn relax_bounds_difference() {
        // After relax (x) st (x0 - 1 <= x <= x0 + 1) with saved x0:
        // |x<o> - x<r>| ≤ 1 (the original side keeps x == x0).
        assert!(check(
            "x0 = x; relax (x) st (x0 - 1 <= x && x <= x0 + 1);",
            "x<o> == x<r>",
            "x<o> - x<r> <= 1 && x<r> - x<o> <= 1"
        ));
        // But not a zero bound.
        assert!(!check(
            "x0 = x; relax (x) st (x0 - 1 <= x && x <= x0 + 1);",
            "x<o> == x<r>",
            "x<o> == x<r>"
        ));
    }

    #[test]
    fn assert_transfers_via_noninterference() {
        // x is never relaxed, so x<o> == x<r> carries the assert across.
        assert!(check(
            "relax (y) st (0 <= y && y <= 5); assert x >= 0;",
            "x<o> == x<r>",
            "true"
        ));
        // If x itself is relaxed the transfer must fail.
        assert!(!check(
            "relax (x) st (x - 1 <= x || true); assert x >= 0;",
            "x<o> == x<r>",
            "true"
        ));
    }

    #[test]
    fn relate_requires_proof() {
        assert!(check(
            "x0 = x; relax (x) st (x0 <= x && x <= x0 + 2);
             relate l1 : x<o> <= x<r>;",
            "x<o> == x<r>",
            "true"
        ));
        assert!(!check(
            "x0 = x; relax (x) st (x0 <= x && x <= x0 + 2);
             relate l1 : x<r> <= x<o>;",
            "x<o> == x<r>",
            "true"
        ));
    }

    #[test]
    fn convergent_if_requires_equal_branching() {
        // Condition on an unsynchronized variable: convergence unprovable.
        assert!(!check(
            "relax (x) st (true); if (x > 0) { y = 1; } else { y = 2; }",
            "x<o> == x<r> && y<o> == y<r>",
            "y<o> == y<r>"
        ));
        // Condition on a synchronized variable: fine.
        assert!(check(
            "if (z > 0) { y = 1; } else { y = 2; }",
            "z<o> == z<r>",
            "y<o> == y<r>"
        ));
    }

    #[test]
    fn convergent_while_with_rinvariant() {
        assert!(check(
            "i = 0;
             while (i < n) rinvariant (i<o> == i<r> && n<o> == n<r>) {
               i = i + 1;
             }",
            "n<o> == n<r>",
            "i<o> == i<r>"
        ));
    }

    #[test]
    fn missing_rinvariant_is_an_error() {
        let s = parse_stmt("while (i < n) { i = i + 1; }").unwrap();
        let err =
            vcs_relaxed(&s, &RelFormula::True, &RelFormula::True, &BTreeSet::new()).unwrap_err();
        assert!(matches!(
            err,
            VcgenError::MissingInvariant {
                kind: "rinvariant",
                ..
            }
        ));
    }

    #[test]
    fn diverge_rule_reestablishes_via_contracts() {
        // A loop whose iteration count depends on the relaxed variable:
        // the diverge rule with unary contracts proves a bound on i.
        let src = "
            relax (m) st (5 <= m && m <= 10);
            i = 0;
            while (i < m)
              invariant (i <= m && 5 <= m && m <= 10)
              diverge pre_o (i == 0 && 5 <= m && m <= 10)
                      pre_r (i == 0 && 5 <= m && m <= 10)
                      post_o (i == m && 5 <= m && m <= 10)
                      post_r (i == m && 5 <= m && m <= 10)
            {
              i = i + 1;
            }";
        assert!(check(
            src,
            "m<o> == m<r> && i<o> == i<r> && 5 <= m<o> && m<o> <= 10",
            "5 <= i<o> && i<o> <= 10 && 5 <= i<r> && i<r> <= 10"
        ));
        // The relational claim i<o> == i<r> is NOT derivable (the two runs
        // loop different numbers of times).
        assert!(!check(
            src,
            "m<o> == m<r> && i<o> == i<r> && 5 <= m<o> && m<o> <= 10",
            "i<o> == i<r>"
        ));
    }

    #[test]
    fn diverge_frames_untouched_variables() {
        let src = "
            relax (m) st (0 <= m && m <= 3);
            i = 0;
            while (i < m)
              invariant (true)
              diverge post_o (true) post_r (true)
            {
              i = i + 1;
            }";
        // z is untouched by the loop: its synchronization survives.
        assert!(check(src, "z<o> == z<r>", "z<o> == z<r>"));
        // i is modified: its synchronization must NOT survive.
        assert!(!check(src, "z<o> == z<r> && i<o> == i<r>", "i<o> == i<r>"));
    }

    #[test]
    fn relate_inside_diverge_is_rejected() {
        let src = "
            while (i < m)
              invariant (true)
              diverge post_o (true) post_r (true)
            {
              relate l : i<o> == i<r>;
              i = i + 1;
            }";
        let s = parse_stmt(src).unwrap();
        let err =
            vcs_relaxed(&s, &RelFormula::True, &RelFormula::True, &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, VcgenError::RelateNotAllowed { .. }));
    }

    #[test]
    fn havoc_moves_both_sides() {
        // havoc picks independently on each side; only the predicate holds.
        assert!(check(
            "havoc (x) st (0 <= x && x <= 3);",
            "true",
            "0 <= x<o> && x<o> <= 3 && 0 <= x<r> && x<r> <= 3"
        ));
        assert!(!check(
            "havoc (x) st (0 <= x && x <= 3);",
            "true",
            "x<o> == x<r>"
        ));
    }
}
