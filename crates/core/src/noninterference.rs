//! Automated noninterference reasoning (§1.4, §5.2 of the paper).
//!
//! "Relational assertions that establish the equality of values of
//! variables in the original and relaxed executions (i.e.,
//! noninterference) often form the bridge" that transfers reasoning from
//! the original program to the relaxed program. This module makes the
//! bridge automatic:
//!
//! * [`sync_invariant`] — the conjunction `⋀ v<o> == v<r>` over every
//!   variable the taint analysis proves *unaffected* by relaxation;
//! * [`initial_sync`] — the same over *all* variables, the canonical
//!   relational precondition "both executions start from the same state";
//! * [`augment_rel_invariants`] — fills every missing `rinvariant` with
//!   `⟨I · I⟩ ∧ sync(untainted)`, turning a program annotated only for the
//!   original semantics into one the relational generator can process.

use crate::analysis::{array_vars, relaxation_tainted};
use crate::vcgen::sync_vars;
use crate::verify::Spec;
use relaxed_lang::free::rel_formula_var_names;
use relaxed_lang::{Formula, Program, RelFormula, Stmt, Var};
use std::collections::BTreeSet;

/// The noninterference invariant: synchronization of every variable not
/// tainted by relaxation.
pub fn sync_invariant(program: &Program) -> RelFormula {
    let body = program.body();
    let tainted = relaxation_tainted(body);
    let arrays = array_vars(body);
    let vars: Vec<Var> = body
        .all_vars()
        .into_iter()
        .filter(|v| !tainted.contains(v))
        .collect();
    sync_vars(vars.iter(), &arrays)
}

/// `⋀ v<o> == v<r>` over every variable of the program — the canonical
/// "identical initial states" relational precondition.
pub fn initial_sync(program: &Program) -> RelFormula {
    let body = program.body();
    let arrays = array_vars(body);
    let vars: Vec<Var> = body.all_vars().into_iter().collect();
    sync_vars(vars.iter(), &arrays)
}

/// Rewrites the program, filling in every missing `rinvariant` on a
/// convergent loop with `⟨I · I⟩ ∧ sync(untainted)` (where `I` is the
/// loop's unary invariant, `true` if absent).
///
/// Loops carrying a `diverge` contract are left untouched — the diverge
/// rule does not use relational invariants.
pub fn augment_rel_invariants(program: &Program) -> Program {
    let body = program.body();
    let tainted = relaxation_tainted(body);
    let arrays = array_vars(body);
    let untainted: Vec<Var> = body
        .all_vars()
        .into_iter()
        .filter(|v| !tainted.contains(v))
        .collect();
    let sync = sync_vars(untainted.iter(), &arrays);
    let new_body = rewrite(body, &sync);
    Program::new(new_body).expect("rewriting preserves well-formedness")
}

fn rewrite(s: &Stmt, sync: &RelFormula) -> Stmt {
    match s {
        Stmt::While(w) => {
            let mut w = w.clone();
            w.body = Box::new(rewrite(&w.body, sync));
            if w.rel_invariant.is_none() && w.diverge.is_none() {
                let unary = w.invariant.clone().unwrap_or(Formula::True);
                w.rel_invariant = Some(RelFormula::pair(&unary, &unary).and(sync.clone()));
            }
            Stmt::While(w)
        }
        Stmt::If(i) => {
            let mut i = i.clone();
            i.then_branch = Box::new(rewrite(&i.then_branch, sync));
            i.else_branch = Box::new(rewrite(&i.else_branch, sync));
            Stmt::If(i)
        }
        Stmt::Seq(ss) => Stmt::Seq(ss.iter().map(|s| rewrite(s, sync)).collect()),
        other => other.clone(),
    }
}

/// The variables some acceptability predicate constrains: free variables
/// of the relational postcondition, of every `relate` assertion, and of
/// every explicit `rinvariant` in the program.
///
/// A tainted variable *outside* this set has no bridge from original to
/// relaxed reasoning — the spec-coverage lint ([`crate::analysis::lint`])
/// flags it when the postcondition depends on it.
pub fn acceptability_constrained(program: &Program, spec: &Spec) -> BTreeSet<Var> {
    let mut out = rel_formula_var_names(&spec.rel_post);
    collect_rel_constraints(program.body(), &mut out);
    out
}

fn collect_rel_constraints(s: &Stmt, out: &mut BTreeSet<Var>) {
    match s {
        Stmt::Relate(_, b) => {
            out.extend(rel_formula_var_names(&RelFormula::from_rel_bool_expr(b)));
        }
        Stmt::While(w) => {
            if let Some(rinv) = &w.rel_invariant {
                out.extend(rel_formula_var_names(rinv));
            }
            collect_rel_constraints(&w.body, out);
        }
        Stmt::If(i) => {
            collect_rel_constraints(&i.then_branch, out);
            collect_rel_constraints(&i.else_branch, out);
        }
        Stmt::Seq(ss) => {
            for s in ss {
                collect_rel_constraints(s, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_lang::parse_program;

    #[test]
    fn sync_invariant_excludes_tainted() {
        let p = parse_program("relax (x) st (true); y = x; z = 1;").unwrap();
        let sync = sync_invariant(&p);
        let names: Vec<String> = relaxed_lang::free::rel_formula_var_names(&sync)
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        assert!(names.contains(&"z".to_string()));
        assert!(!names.contains(&"x".to_string()));
        assert!(!names.contains(&"y".to_string()));
    }

    #[test]
    fn augment_fills_missing_rinvariants() {
        let p = parse_program(
            "relax (e) st (true);
             i = 0;
             while (i < n) invariant (i <= n || n < 0) { i = i + 1; }",
        )
        .unwrap();
        let p2 = augment_rel_invariants(&p);
        match p2.body() {
            Stmt::Seq(ss) => match &ss[2] {
                Stmt::While(w) => assert!(w.rel_invariant.is_some()),
                other => panic!("expected while, got {other:?}"),
            },
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn augment_leaves_diverge_loops_alone() {
        let p = parse_program(
            "relax (m) st (true);
             while (i < m) invariant (true) diverge post_o (true) post_r (true) { i = i + 1; }",
        )
        .unwrap();
        let p2 = augment_rel_invariants(&p);
        match p2.body() {
            Stmt::Seq(ss) => match &ss[1] {
                Stmt::While(w) => assert!(w.rel_invariant.is_none()),
                other => panic!("expected while, got {other:?}"),
            },
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn initial_sync_covers_all_variables() {
        let p = parse_program("relax (x) st (true); y = x;").unwrap();
        let sync = initial_sync(&p);
        let names: BTreeSet<String> = relaxed_lang::free::rel_formula_var_names(&sync)
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        assert!(names.contains("x"));
        assert!(names.contains("y"));
    }
}
