//! Weakest-precondition VC generation for the unary logics: the axiomatic
//! *original* semantics `⊢o` (Fig. 7) and the axiomatic *intermediate*
//! semantics `⊢i` (Fig. 9).
//!
//! The two logics differ in exactly two rules, mirroring the paper:
//!
//! * `relax (X) st (e)` — in `⊢o` it is `assert e` over an unchanged state
//!   (the original execution must be a legal relaxed execution); in `⊢i`
//!   it is `havoc (X) st (e)`.
//! * `assume e` — in `⊢o` it may be assumed (`e ⇒ Q`); in `⊢i` it must be
//!   *proved* (`e ∧ Q`), because intermediate executions must not fail at
//!   all (Lemma 4).
//!
//! ### On the havoc rule
//!
//! The paper's `havoc` rule carries the satisfiability premise
//! `⟦(∃X'·P[X'/X]) ∧ e⟧ ≠ ∅` guarding the `wr` of `havoc-f`. Our
//! backwards calculus uses the per-state-precise equivalent
//! `wp(havoc (X) st e, Q) = (∃X'·e[X'/X]) ∧ (∀X'·e[X'/X] ⇒ Q[X'/X])`,
//! which both guards `havoc-f` from every reachable state and propagates
//! `Q` across all choices.
//!
//! ### Deviations
//!
//! Like the paper's ideal semantics, VCs do not model machine-level
//! partiality (overflow, division by zero): `assert`/`assume` guards are
//! the developer's tool for those, and the interpreters surface them as
//! `wr` dynamically.

use super::arrays::abstract_selects;
use super::vc::{within_budget, Vc, VcBody, VcgenError};
use relaxed_lang::subst::{FreshVars, Subst};
use relaxed_lang::{BoolExpr, Formula, IntExpr, Stmt, Var};
use std::collections::BTreeSet;

/// Which unary logic to generate VCs for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnaryLogic {
    /// The axiomatic original semantics `⊢o` (Fig. 7).
    Original,
    /// The axiomatic intermediate semantics `⊢i` (Fig. 9).
    Intermediate,
}

/// The unary WP engine.
#[derive(Debug)]
pub struct UnaryVcgen {
    logic: UnaryLogic,
    fresh: FreshVars,
    array_vars: BTreeSet<Var>,
    vcs: Vec<Vc>,
}

impl UnaryVcgen {
    /// Creates an engine for `logic`; `array_vars` routes choice targets
    /// and stores to the array rules (see [`crate::analysis::array_vars`]).
    pub fn new(logic: UnaryLogic, array_vars: BTreeSet<Var>, reserved: BTreeSet<Var>) -> Self {
        let mut fresh = FreshVars::new();
        fresh.reserve(reserved);
        UnaryVcgen {
            logic,
            fresh,
            array_vars,
            vcs: Vec::new(),
        }
    }

    /// The side conditions accumulated so far.
    pub fn into_vcs(self) -> Vec<Vc> {
        self.vcs
    }

    fn push_vc(&mut self, name: &str, context: &str, body: Formula) {
        self.vcs.push(Vc {
            name: name.to_string(),
            context: context.to_string(),
            body: VcBody::Unary(body),
        });
    }

    /// `wp(s, q)` plus accumulated side conditions.
    ///
    /// # Errors
    ///
    /// See [`VcgenError`]; notably loops must carry `invariant`
    /// annotations, `relate` is rejected in the intermediate logic, and a
    /// result past [`MAX_WP_NODES`](super::MAX_WP_NODES) nodes is refused.
    pub fn wp(&mut self, s: &Stmt, q: Formula, context: &str) -> Result<Formula, VcgenError> {
        let wp = self.wp_rule(s, q, context)?;
        within_budget(s, || wp.node_count(), context)?;
        Ok(wp)
    }

    /// One rule of [`wp`](UnaryVcgen::wp), before the size check.
    fn wp_rule(&mut self, s: &Stmt, q: Formula, context: &str) -> Result<Formula, VcgenError> {
        match s {
            Stmt::Skip => Ok(q),
            Stmt::Assign(x, e) => Ok(Subst::single(x.clone(), e.clone()).apply(&q)),
            Stmt::Store(x, index, value) => self.wp_store(x, index, value, q, context),
            Stmt::Havoc(targets, pred) => self.wp_choice(targets, pred, q, context),
            Stmt::Assert(pred) => Ok(Formula::from_bool_expr(pred).and(q)),
            Stmt::Relax(targets, pred) => match self.logic {
                // ⊢o: relax is `assert e` over an unchanged state — the
                // target list never enters the formula, so editing it
                // changes ⊢r goals but no ⊢o goal.
                UnaryLogic::Original => Ok(Formula::from_bool_expr(pred).and(q)),
                // ⊢i: relax is havoc.
                UnaryLogic::Intermediate => self.wp_choice(targets, pred, q, context),
            },
            Stmt::Assume(pred) => match self.logic {
                UnaryLogic::Original => Ok(Formula::from_bool_expr(pred).implies(q)),
                // ⊢i: assumptions must be proved, like assertions.
                UnaryLogic::Intermediate => Ok(Formula::from_bool_expr(pred).and(q)),
            },
            Stmt::Relate(_, _) => match self.logic {
                // ⊢o: relate behaves as skip (Fig. 7).
                UnaryLogic::Original => Ok(q),
                // ⊢i: no_rel(s) must hold wherever ⊢i applies.
                UnaryLogic::Intermediate => Err(VcgenError::RelateNotAllowed {
                    context: context.to_string(),
                }),
            },
            Stmt::If(i) => {
                let then_ctx = format!("{context}/if-then");
                let else_ctx = format!("{context}/if-else");
                let wp_then = self.wp(&i.then_branch, q.clone(), &then_ctx)?;
                let wp_else = self.wp(&i.else_branch, q, &else_ctx)?;
                let b = Formula::from_bool_expr(&i.cond);
                Ok(b.clone().implies(wp_then).and(b.not().implies(wp_else)))
            }
            Stmt::While(w) => {
                let inv = w.invariant.clone().ok_or(VcgenError::MissingInvariant {
                    kind: "invariant",
                    context: context.to_string(),
                })?;
                let body_ctx = format!("{context}/while-body");
                let body_wp = self.wp(&w.body, inv.clone(), &body_ctx)?;
                let b = Formula::from_bool_expr(&w.cond);
                self.push_vc(
                    "invariant-preserved",
                    context,
                    inv.clone().and(b.clone()).implies(body_wp),
                );
                // Exit, with framing: only the variables the body modifies
                // are quantified, so facts about everything else flow
                // through the loop untouched.
                let modified = match self.logic {
                    UnaryLogic::Original => w.body.modified_vars_original(),
                    UnaryLogic::Intermediate => w.body.modified_vars(),
                };
                let mut exit = inv.clone().and(b.not()).implies(q);
                let mut subst = Subst::new();
                let mut binders = Vec::new();
                let mut touched_arrays = Vec::new();
                for v in &modified {
                    if self.array_vars.contains(v) {
                        touched_arrays.push(v.clone());
                    } else {
                        let v2 = self.fresh.fresh(v);
                        subst.insert(v.clone(), IntExpr::Var(v2.clone()));
                        binders.push(v2);
                    }
                }
                exit = subst.apply(&exit);
                for a in touched_arrays {
                    let (exit2, cells) = abstract_selects(&exit, &a, &mut self.fresh, context)?;
                    exit = exit2;
                    binders.extend(cells.into_iter().map(|(_, v)| v));
                }
                Ok(inv.and(exit.forall_many(binders)))
            }
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

    /// WP of `havoc`/`relax` over a mix of integer and array targets.
    fn wp_choice(
        &mut self,
        targets: &[Var],
        pred: &BoolExpr,
        q: Formula,
        context: &str,
    ) -> Result<Formula, VcgenError> {
        let (ints, arrays): (Vec<_>, Vec<_>) =
            targets.iter().partition(|t| !self.array_vars.contains(*t));
        if !arrays.is_empty() && *pred != BoolExpr::Const(true) {
            return Err(VcgenError::ArrayChoiceWithPredicate {
                context: context.to_string(),
            });
        }
        // Arrays: forget contents (lengths are preserved).
        let mut q = q;
        for a in arrays {
            let (q2, cells) = abstract_selects(&q, a, &mut self.fresh, context)?;
            q = q2.forall_many(cells.into_iter().map(|(_, v)| v));
        }
        if ints.is_empty() {
            return Ok(q);
        }
        // Integers: (∃X'. e') ∧ (∀X'. e' ⇒ Q'), with X' fresh.
        let mut subst = Subst::new();
        let mut fresh_names = Vec::new();
        for t in &ints {
            let t2 = self.fresh.fresh(t);
            subst.insert((*t).clone(), IntExpr::Var(t2.clone()));
            fresh_names.push(t2);
        }
        let pred2 = Formula::from_bool_expr(&subst.apply_bool(pred));
        let q2 = subst.apply(&q);
        let feasible = pred2.clone().exists_many(fresh_names.iter().cloned());
        let all = pred2.implies(q2).forall_many(fresh_names);
        Ok(feasible.and(all))
    }

    /// WP of `x[index] = value`:
    /// `in_bounds(index) ∧ ∀cells. (read-over-write defs ⇒ Q′)`.
    fn wp_store(
        &mut self,
        x: &Var,
        index: &IntExpr,
        value: &IntExpr,
        q: Formula,
        context: &str,
    ) -> Result<Formula, VcgenError> {
        let in_bounds = Formula::from_bool_expr(
            &IntExpr::from(0)
                .le(index.clone())
                .and(index.clone().lt(IntExpr::Len(x.clone()))),
        );
        let (q2, cells) = abstract_selects(&q, x, &mut self.fresh, context)?;
        if cells.is_empty() {
            return Ok(in_bounds.and(q2));
        }
        // For each abstracted read x[j] (as cell v):
        //   (j == index ∧ v == value) ∨ (j != index ∧ v == x[j])
        let mut defs = Formula::True;
        let mut binders = Vec::new();
        for (j, v) in cells {
            let hit = Formula::from_bool_expr(
                &j.clone()
                    .eq_expr(index.clone())
                    .and(IntExpr::Var(v.clone()).eq_expr(value.clone())),
            );
            let miss = Formula::from_bool_expr(
                &j.clone()
                    .ne_expr(index.clone())
                    .and(IntExpr::Var(v.clone()).eq_expr(IntExpr::select(x.clone(), j.clone()))),
            );
            defs = defs.and(hit.or(miss));
            binders.push(v);
        }
        Ok(in_bounds.and(defs.implies(q2).forall_many(binders)))
    }
}

/// Generates the full VC set for `⊢logic {pre} s {post}`.
///
/// The returned obligations include the entry condition `pre ⇒ wp(s, post)`
/// plus every loop side condition.
///
/// # Errors
///
/// Propagates [`VcgenError`] from the calculus.
pub fn vcs_unary(
    logic: UnaryLogic,
    s: &Stmt,
    pre: &Formula,
    post: &Formula,
    array_vars: &BTreeSet<Var>,
) -> Result<Vec<Vc>, VcgenError> {
    let mut reserved: BTreeSet<Var> = s.all_vars();
    reserved.extend(relaxed_lang::free::formula_vars(pre));
    reserved.extend(relaxed_lang::free::formula_vars(post));
    let mut generator = UnaryVcgen::new(logic, array_vars.clone(), reserved);
    let wp = generator.wp(s, post.clone(), "body")?;
    let mut vcs = generator.into_vcs();
    vcs.insert(
        0,
        Vc {
            name: "precondition-establishes-wp".to_string(),
            context: "entry".to_string(),
            body: VcBody::Unary(pre.clone().implies(wp)),
        },
    );
    Ok(vcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::array_vars;
    use crate::encode::{encode_formula, EncodeCtx};
    use relaxed_lang::parse_stmt;
    use relaxed_smt::Solver;

    // Test-harness diagnostic: deliberately unconditional (not diag::warn,
    // which DISCHARGE_QUIET would swallow in a failing CI run).
    #[allow(clippy::print_stderr)]
    fn prove(vcs: &[Vc]) -> bool {
        let mut solver = Solver::new();
        vcs.iter().all(|vc| match &vc.body {
            VcBody::Unary(p) => {
                let encoded = encode_formula(p, &mut EncodeCtx::new());
                let verdict = solver.check_valid(&encoded);
                if !verdict.is_valid() {
                    eprintln!("failed VC {vc}: {verdict:?}");
                }
                verdict.is_valid()
            }
            VcBody::Rel(_) => unreachable!("unary generator emits unary bodies"),
        })
    }

    fn check(logic: UnaryLogic, src: &str, pre: &str, post: &str) -> bool {
        let s = parse_stmt(src).unwrap();
        let pre = relaxed_lang::parse_formula(pre).unwrap();
        let post = relaxed_lang::parse_formula(post).unwrap();
        let mut arrays = array_vars(&s);
        arrays.extend(crate::analysis::formula_array_vars(&pre));
        arrays.extend(crate::analysis::formula_array_vars(&post));
        let vcs = vcs_unary(logic, &s, &pre, &post, &arrays).unwrap();
        prove(&vcs)
    }

    #[test]
    fn doubling_obligations_are_refused() {
        // Each `x = x + x;` doubles every `x` of the formula after it.
        let vcgen = |n: usize| {
            let s = parse_stmt(&"x = x + x;\n".repeat(n)).unwrap();
            let post = relaxed_lang::parse_formula("x >= 0").unwrap();
            vcs_unary(
                UnaryLogic::Original,
                &s,
                &Formula::True,
                &post,
                &BTreeSet::new(),
            )
        };
        assert!(vcgen(16).is_ok());
        assert_eq!(
            vcgen(20).unwrap_err().to_string(),
            "body/3: obligation grows past 262144 nodes"
        );
    }

    #[test]
    fn straight_line_assignment() {
        assert!(check(
            UnaryLogic::Original,
            "y = x + 1;",
            "x >= 0",
            "y >= 1"
        ));
        assert!(!check(
            UnaryLogic::Original,
            "y = x + 1;",
            "x >= 0",
            "y >= 2"
        ));
    }

    #[test]
    fn assert_requires_proof_in_both_logics() {
        for logic in [UnaryLogic::Original, UnaryLogic::Intermediate] {
            assert!(check(logic, "assert x >= 0;", "x >= 1", "true"));
            assert!(!check(logic, "assert x >= 0;", "true", "true"));
        }
    }

    #[test]
    fn assume_differs_between_logics() {
        // ⊢o: the assumption is free.
        assert!(check(
            UnaryLogic::Original,
            "assume x >= 0; assert x >= 0;",
            "true",
            "true"
        ));
        // ⊢i: the assumption must be proved.
        assert!(!check(
            UnaryLogic::Intermediate,
            "assume x >= 0; assert x >= 0;",
            "true",
            "true"
        ));
        assert!(check(
            UnaryLogic::Intermediate,
            "assume x >= 0; assert x >= 0;",
            "x >= 0",
            "true"
        ));
    }

    #[test]
    fn relax_differs_between_logics() {
        // ⊢o: relax keeps the state; x stays 5.
        assert!(check(
            UnaryLogic::Original,
            "x = 5; relax (x) st (0 <= x && x <= 10);",
            "true",
            "x == 5"
        ));
        // ⊢i: relax havocs; only the predicate bound survives.
        assert!(!check(
            UnaryLogic::Intermediate,
            "x = 5; relax (x) st (0 <= x && x <= 10);",
            "true",
            "x == 5"
        ));
        assert!(check(
            UnaryLogic::Intermediate,
            "x = 5; relax (x) st (0 <= x && x <= 10);",
            "true",
            "0 <= x && x <= 10"
        ));
    }

    #[test]
    fn relax_asserts_predicate_in_original_logic() {
        // The original execution must satisfy the relaxation predicate.
        assert!(!check(
            UnaryLogic::Original,
            "x = 5; relax (x) st (x == 7);",
            "true",
            "true"
        ));
    }

    #[test]
    fn havoc_feasibility_is_demanded() {
        // havoc with an unsatisfiable predicate cannot verify (havoc-f / wr).
        assert!(!check(
            UnaryLogic::Original,
            "havoc (x) st (x < x);",
            "true",
            "true"
        ));
        assert!(check(
            UnaryLogic::Original,
            "havoc (x) st (0 <= x && x <= y);",
            "y >= 0",
            "0 <= x && x <= y"
        ));
    }

    #[test]
    fn if_both_branches() {
        assert!(check(
            UnaryLogic::Original,
            "if (x < 0) { y = 0 - x; } else { y = x; }",
            "true",
            "y >= 0"
        ));
    }

    #[test]
    fn while_with_invariant() {
        assert!(check(
            UnaryLogic::Original,
            "i = 0; s = 0;
             while (i < n) invariant (s >= 0 && 0 <= i && (i <= n || n < 0)) { s = s + i + 1; i = i + 1; }",
            "true",
            "n >= 0 ==> s >= 0"
        ));
    }

    #[test]
    fn missing_invariant_is_an_error() {
        let s = parse_stmt("while (x < 3) { x = x + 1; }").unwrap();
        let err = vcs_unary(
            UnaryLogic::Original,
            &s,
            &Formula::True,
            &Formula::True,
            &BTreeSet::new(),
        )
        .unwrap_err();
        assert!(matches!(err, VcgenError::MissingInvariant { .. }));
    }

    #[test]
    fn broken_invariant_fails() {
        assert!(!check(
            UnaryLogic::Original,
            "i = 0; while (i < n) invariant (i == 0) { i = i + 1; }",
            "true",
            "true"
        ));
    }

    #[test]
    fn store_bounds_and_read_over_write() {
        // Write then read back.
        assert!(check(
            UnaryLogic::Original,
            "a[i] = 7; x = a[i];",
            "0 <= i && i < len(a)",
            "x == 7"
        ));
        // Unproven bounds must fail.
        assert!(!check(UnaryLogic::Original, "a[i] = 7;", "true", "true"));
        // A different cell keeps its old value.
        assert!(check(
            UnaryLogic::Original,
            "a[i] = 7;",
            "0 <= i && i < len(a) && 0 <= j && j < len(a) && j != i && a[j] == 3",
            "a[j] == 3"
        ));
    }

    #[test]
    fn array_havoc_forgets_contents_but_keeps_length() {
        assert!(check(
            UnaryLogic::Intermediate,
            "relax (a) st (true);",
            "len(a) == 8",
            "len(a) == 8"
        ));
        assert!(!check(
            UnaryLogic::Intermediate,
            "relax (a) st (true); x = a[0];",
            "len(a) == 8 && a[0] == 1",
            "x == 1"
        ));
    }

    #[test]
    fn array_choice_with_predicate_rejected() {
        let s = parse_stmt("relax (a) st (a[0] > 0);").unwrap();
        let arrays = array_vars(&s);
        let err = vcs_unary(
            UnaryLogic::Intermediate,
            &s,
            &Formula::True,
            &Formula::True,
            &arrays,
        )
        .unwrap_err();
        assert!(matches!(err, VcgenError::ArrayChoiceWithPredicate { .. }));
    }

    #[test]
    fn relate_skips_in_original_errors_in_intermediate() {
        let s = parse_stmt("relate l : x<o> == x<r>;").unwrap();
        assert!(vcs_unary(
            UnaryLogic::Original,
            &s,
            &Formula::True,
            &Formula::True,
            &BTreeSet::new()
        )
        .is_ok());
        assert!(matches!(
            vcs_unary(
                UnaryLogic::Intermediate,
                &s,
                &Formula::True,
                &Formula::True,
                &BTreeSet::new()
            ),
            Err(VcgenError::RelateNotAllowed { .. })
        ));
    }
}
