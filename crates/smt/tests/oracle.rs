//! Differential tests: the DPLL(T) pipeline against brute-force
//! enumeration on random quantifier-free linear formulas and on boxed
//! quantified ones, and the CDCL core against truth-table enumeration on
//! random CNFs.
//!
//! These are the soundness anchors for the whole verification stack: if
//! the solver ever disagrees with exhaustive enumeration on a bounded
//! domain, everything built on top of it is suspect.

use relaxed_interp::rng::SplitMix64;
use relaxed_smt::ast::{BTerm, ITerm, Rel};
use relaxed_smt::preprocess::{eliminate_quantifiers, formula_vars, FreshNames};
use relaxed_smt::sat::{Lit, SatOutcome, SatSolver};
use relaxed_smt::{SmtResult, Solver};
use std::collections::BTreeSet;

const NAMES: &[&str] = &["x", "y", "z"];
const DOMAIN: std::ops::RangeInclusive<i64> = -4..=4;

fn gen_rel(rng: &mut SplitMix64) -> Rel {
    match rng.gen_u32_below(6) {
        0 => Rel::Lt,
        1 => Rel::Le,
        2 => Rel::Gt,
        3 => Rel::Ge,
        4 => Rel::Eq,
        _ => Rel::Ne,
    }
}

/// Linear terms: c0 + c1*x + c2*y + c3*z with small coefficients.
fn gen_linear_term(rng: &mut SplitMix64) -> ITerm {
    let mut acc = ITerm::Const(rng.gen_range(-4..=4));
    for _ in 0..rng.gen_u32_below(3) {
        let c = rng.gen_range(-3..=3);
        let vi = rng.gen_u32_below(NAMES.len() as u32) as usize;
        acc = acc.add(ITerm::Const(c).mul(ITerm::var(NAMES[vi])));
    }
    acc
}

/// Random quantifier-free formulas over And/Or/Implies/Not, depth ≤ 3.
fn gen_qf_formula(rng: &mut SplitMix64, depth: u32) -> BTerm {
    if depth == 0 || rng.gen_u32_below(3) == 0 {
        return BTerm::Atom(gen_rel(rng), gen_linear_term(rng), gen_linear_term(rng));
    }
    match rng.gen_u32_below(4) {
        0 => BTerm::And(
            Box::new(gen_qf_formula(rng, depth - 1)),
            Box::new(gen_qf_formula(rng, depth - 1)),
        ),
        1 => BTerm::Or(
            Box::new(gen_qf_formula(rng, depth - 1)),
            Box::new(gen_qf_formula(rng, depth - 1)),
        ),
        2 => BTerm::Implies(
            Box::new(gen_qf_formula(rng, depth - 1)),
            Box::new(gen_qf_formula(rng, depth - 1)),
        ),
        _ => BTerm::Not(Box::new(gen_qf_formula(rng, depth - 1))),
    }
}

fn eval_term(t: &ITerm, env: &dyn Fn(&str) -> i128) -> i128 {
    match t {
        ITerm::Const(n) => i128::from(*n),
        ITerm::Var(v) => env(v),
        ITerm::Add(a, b) => eval_term(a, env) + eval_term(b, env),
        ITerm::Sub(a, b) => eval_term(a, env) - eval_term(b, env),
        ITerm::Neg(a) => -eval_term(a, env),
        ITerm::Mul(a, b) => eval_term(a, env) * eval_term(b, env),
        other => panic!("unexpected term in oracle: {other:?}"),
    }
}

fn eval_formula(b: &BTerm, env: &dyn Fn(&str) -> i128) -> bool {
    match b {
        BTerm::True => true,
        BTerm::False => false,
        BTerm::Atom(rel, lhs, rhs) => {
            let l = eval_term(lhs, env);
            let r = eval_term(rhs, env);
            match rel {
                Rel::Lt => l < r,
                Rel::Le => l <= r,
                Rel::Gt => l > r,
                Rel::Ge => l >= r,
                Rel::Eq => l == r,
                Rel::Ne => l != r,
            }
        }
        BTerm::And(a, c) => eval_formula(a, env) && eval_formula(c, env),
        BTerm::Or(a, c) => eval_formula(a, env) || eval_formula(c, env),
        BTerm::Implies(a, c) => !eval_formula(a, env) || eval_formula(c, env),
        BTerm::Not(a) => !eval_formula(a, env),
        other => panic!("unexpected formula in oracle: {other:?}"),
    }
}

/// Brute-force satisfiability over the bounded domain.
fn brute_force_sat(b: &BTerm) -> bool {
    for x in DOMAIN {
        for y in DOMAIN {
            for z in DOMAIN {
                let env = move |name: &str| match name {
                    "x" => i128::from(x),
                    "y" => i128::from(y),
                    "z" => i128::from(z),
                    other => panic!("unknown variable {other}"),
                };
                if eval_formula(b, &env) {
                    return true;
                }
            }
        }
    }
    false
}

/// Constrains all three variables into the brute-force domain, so the
/// solver and the oracle quantify over the same space.
fn boxed(b: &BTerm) -> BTerm {
    let mut out = b.clone();
    for name in NAMES {
        out = out
            .and(ITerm::var(*name).ge(ITerm::Const(*DOMAIN.start())))
            .and(ITerm::var(*name).le(ITerm::Const(*DOMAIN.end())));
    }
    out
}

/// The solver and brute-force enumeration agree on bounded problems.
#[test]
fn solver_matches_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0001);
    for case in 0..192 {
        let b = gen_qf_formula(&mut rng, 3);
        let problem = boxed(&b);
        let expected = brute_force_sat(&b);
        let mut solver = Solver::new();
        match solver.check_sat(&problem) {
            SmtResult::Sat(model) => {
                assert!(
                    expected,
                    "case {case}: solver says sat, brute force says unsat: {b:?}"
                );
                // The model must actually satisfy the formula.
                let env = |name: &str| model.get(name).unwrap_or(0);
                assert!(
                    eval_formula(&b, &env),
                    "case {case}: model {model} does not satisfy {b:?}"
                );
            }
            SmtResult::Unsat => {
                assert!(
                    !expected,
                    "case {case}: solver says unsat, brute force found a model: {b:?}"
                );
            }
            SmtResult::Unknown(reason) => {
                panic!("case {case}: solver returned unknown on a linear problem: {reason}");
            }
        }
    }
}

/// Random session scripts: each step asserts a new formula, asserts one
/// of the script's earlier formulas again, or checks. Every check is
/// compared against brute force over the conjunction asserted so far
/// (every `Sat` model is evaluated against each assertion), so learnt
/// clauses, theory bounds or root-level implications that a later check
/// misreads would show up as a wrong verdict, and so would gates, atoms
/// or bound axioms that a re-asserted formula found stale.
#[test]
fn session_scripts_match_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0003);
    let mut reasserted = 0;
    for script in 0..300 {
        let mut solver = Solver::new();
        let mut session = solver.session();
        session.assert(&boxed(&BTerm::True));
        let mut asserted: Vec<BTerm> = Vec::new();
        for step in 0..12 {
            match rng.gen_u32_below(6) {
                0 | 1 => {
                    let b = gen_qf_formula(&mut rng, 2);
                    session.assert(&b);
                    asserted.push(b);
                }
                2 if !asserted.is_empty() => {
                    let b = asserted[rng.gen_u32_below(asserted.len() as u32) as usize].clone();
                    session.assert(&b);
                    asserted.push(b);
                    reasserted += 1;
                }
                _ => {
                    let conjunction = asserted
                        .iter()
                        .fold(BTerm::True, |acc, b| acc.and(b.clone()));
                    let expected = brute_force_sat(&conjunction);
                    match session.check_sat() {
                        SmtResult::Sat(model) => {
                            assert!(expected, "script {script} step {step}: spurious sat");
                            let env = |name: &str| model.get(name).unwrap_or(0);
                            for b in &asserted {
                                assert!(
                                    eval_formula(b, &env),
                                    "script {script} step {step}: model {model} violates {b:?}"
                                );
                            }
                        }
                        SmtResult::Unsat => {
                            assert!(!expected, "script {script} step {step}: spurious unsat");
                        }
                        SmtResult::Unknown(reason) => {
                            panic!("script {script} step {step}: unknown: {reason}");
                        }
                    }
                }
            }
        }
    }
    assert!(reasserted > 50, "{reasserted} re-assertions");
}

/// Validity of `b ∨ ¬b` style combinations: `check_valid(φ ∨ ¬φ)` must
/// always be valid and `check_valid(φ ∧ ¬φ)` never.
#[test]
fn excluded_middle() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0002);
    for case in 0..192 {
        let b = gen_qf_formula(&mut rng, 3);
        let mut solver = Solver::new();
        let lem = b.clone().or(BTerm::Not(Box::new(b.clone())));
        assert_eq!(
            solver.check_valid(&lem),
            relaxed_smt::Validity::Valid,
            "case {case}: {b:?}"
        );
        let contradiction = b.clone().and(BTerm::Not(Box::new(b.clone())));
        assert!(
            !solver.check_valid(&contradiction).is_valid(),
            "case {case}: {b:?}"
        );
    }
}

/// Random 3-CNF against truth-table enumeration.
#[test]
fn cdcl_matches_truth_table_on_random_cnfs() {
    let mut rng = SplitMix64::seed_from_u64(0xDEADBEEF);
    for round in 0..200 {
        let nvars = 3 + (round % 5) as u32; // 3..=7 variables
        let nclauses = 2 + rng.gen_u32_below(4 * nvars) as usize;
        let mut clauses: Vec<Vec<(u32, bool)>> = Vec::new();
        for _ in 0..nclauses {
            let len = 1 + rng.gen_u32_below(3) as usize;
            let mut clause = Vec::new();
            for _ in 0..len {
                clause.push((rng.gen_u32_below(nvars), rng.gen_u32_below(2) == 0));
            }
            clauses.push(clause);
        }
        // Truth table.
        let mut expected = false;
        'outer: for bits in 0..(1u32 << nvars) {
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos);
                if !sat {
                    continue 'outer;
                }
            }
            expected = true;
            break;
        }
        // CDCL.
        let mut solver = SatSolver::new();
        for _ in 0..nvars {
            solver.new_var();
        }
        let mut ok = true;
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| Lit::new(v, pos)).collect();
            ok &= solver.add_clause(lits);
        }
        let outcome = if ok {
            solver.solve()
        } else {
            SatOutcome::Unsat
        };
        match outcome {
            SatOutcome::Sat(model) => {
                assert!(expected, "round {round}: solver sat, table unsat");
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&(v, pos)| model[v as usize] == pos),
                        "round {round}: model does not satisfy clause"
                    );
                }
            }
            SatOutcome::Unsat => assert!(!expected, "round {round}: solver unsat, table sat"),
            SatOutcome::Unknown => panic!("round {round}: unexpected unknown"),
        }
    }
}

/// The box every variable of a quantified oracle formula ranges over.
const QBOX: std::ops::RangeInclusive<i64> = -3..=3;
/// Free variables of the quantified oracle formulas.
const FREE: &[&str] = &["f", "g"];
/// Quantified variables, one name per quantifier.
const BOUND: &[&str] = &["p", "q", "r"];

/// `lo ≤ v ≤ hi` over [`QBOX`].
fn in_box(v: &str) -> BTerm {
    ITerm::var(v)
        .ge(ITerm::Const(*QBOX.start()))
        .and(ITerm::var(v).le(ITerm::Const(*QBOX.end())))
}

/// An atom over the variables in `scope`, with coefficients up to ±3.
fn gen_scoped_atom(rng: &mut SplitMix64, scope: &[&str]) -> BTerm {
    let side = |rng: &mut SplitMix64| {
        let mut acc = ITerm::Const(rng.gen_range(-3..=3));
        for _ in 0..1 + rng.gen_u32_below(2) {
            let v = scope[rng.gen_u32_below(scope.len() as u32) as usize];
            acc = acc.add(ITerm::Const(rng.gen_range(-3..=3)).mul(ITerm::var(v)));
        }
        acc
    };
    let lhs = side(rng);
    let rhs = side(rng);
    BTerm::Atom(gen_rel(rng), lhs, rhs)
}

/// `∀v. v ∈ box ⇒ body` or `∃v. v ∈ box ∧ body`.
fn boxed_quantifier(forall: bool, v: &str, body: BTerm) -> BTerm {
    if forall {
        in_box(v).implies(body).forall(v)
    } else {
        in_box(v).and(body).exists(v)
    }
}

/// `a·v ≥ ±u + c ∧ a·v ≤ ±u + c + d` with `|a| ∈ {2, 3}` and
/// `d ≥ |a| − 1`: over ℤ every `u` has a witness `v`, which moves with
/// `u` in steps that no unit-coefficient elimination can follow.
fn gen_window(rng: &mut SplitMix64, u: &str, v: &str) -> BTerm {
    let sign = |rng: &mut SplitMix64| if rng.gen_bool() { 1 } else { -1 };
    let a = rng.gen_range(2..=3);
    let d = rng.gen_range(a - 1..=3);
    let (a, b, c) = (a * sign(rng), sign(rng), rng.gen_range(-2..=2));
    let av = || ITerm::Const(a).mul(ITerm::var(v));
    let bu = ITerm::Const(b).mul(ITerm::var(u)).add(ITerm::Const(c));
    av().ge(bu.clone()).and(av().le(bu.add(ITerm::Const(d))))
}

/// A random formula over [`FREE`] with at most three boxed quantifiers,
/// in one of three shapes:
/// - quantifiers nested anywhere under `∧`, `∨`, `⇒` and `¬`;
/// - a quantifier prefix over a random quantifier-free matrix;
/// - a prefix of two or three quantifiers over windows ([`gen_window`])
///   that tie each quantified variable to the one bound before it, so
///   `∀∃` formulas that hold only because each `∀` value has its own `∃`
///   witness are common.
fn gen_quantified(rng: &mut SplitMix64) -> BTerm {
    fn nested(rng: &mut SplitMix64, depth: u32, scope: &mut Vec<&'static str>) -> BTerm {
        if depth == 0 || rng.gen_u32_below(4) == 0 {
            return gen_scoped_atom(rng, scope);
        }
        let next = scope.len() - FREE.len();
        match rng.gen_u32_below(6) {
            0 | 1 if next < BOUND.len() => {
                let v = BOUND[next];
                scope.push(v);
                let body = nested(rng, depth - 1, scope);
                scope.pop();
                boxed_quantifier(rng.gen_bool(), v, body)
            }
            2 => nested(rng, depth - 1, scope).and(nested(rng, depth - 1, scope)),
            3 => nested(rng, depth - 1, scope).or(nested(rng, depth - 1, scope)),
            4 => nested(rng, depth - 1, scope).implies(nested(rng, depth - 1, scope)),
            _ => nested(rng, depth - 1, scope).not(),
        }
    }
    let mut scope: Vec<&'static str> = FREE.to_vec();
    let shape = rng.gen_u32_below(3);
    if shape == 0 {
        return nested(rng, 4, &mut scope);
    }
    let prefix = if shape == 1 {
        1 + rng.gen_u32_below(3) as usize
    } else {
        2 + rng.gen_u32_below(2) as usize
    };
    scope.extend_from_slice(&BOUND[..prefix]);
    let matrix = if shape == 1 {
        (0..rng.gen_u32_below(3)).fold(gen_scoped_atom(rng, &scope), |matrix, _| {
            let atom = gen_scoped_atom(rng, &scope);
            if rng.gen_bool() {
                matrix.and(atom)
            } else {
                matrix.or(atom)
            }
        })
    } else {
        BTerm::conj(
            BOUND[..prefix]
                .windows(2)
                .map(|pair| gen_window(rng, pair[0], pair[1]))
                .collect::<Vec<_>>(),
        )
    };
    BOUND[..prefix]
        .iter()
        .rev()
        .fold(matrix, |body, v| boxed_quantifier(rng.gen_bool(), v, body))
}

/// Evaluates a formula whose quantifiers are boxed: each quantifier
/// ranges over [`QBOX`], which is exact because its guard confines it
/// there. `env` holds the variables in scope, innermost last.
fn eval_boxed(b: &BTerm, env: &mut Vec<(String, i128)>) -> bool {
    let lookup = |env: &[(String, i128)], name: &str| {
        env.iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("unbound variable {name}"))
    };
    match b {
        BTerm::Atom(..) => {
            let snapshot: &[(String, i128)] = env;
            eval_formula(b, &|name| lookup(snapshot, name))
        }
        BTerm::True => true,
        BTerm::False => false,
        BTerm::And(a, c) => eval_boxed(a, env) && eval_boxed(c, env),
        BTerm::Or(a, c) => eval_boxed(a, env) || eval_boxed(c, env),
        BTerm::Implies(a, c) => !eval_boxed(a, env) || eval_boxed(c, env),
        BTerm::Not(a) => !eval_boxed(a, env),
        BTerm::Exists(v, body) | BTerm::Forall(v, body) => {
            let forall = matches!(b, BTerm::Forall(..));
            let mut holds = forall;
            for value in QBOX {
                env.push((v.clone(), i128::from(value)));
                let inner = eval_boxed(body, env);
                env.pop();
                if inner != forall {
                    holds = !forall;
                    break;
                }
            }
            holds
        }
    }
}

/// Whether some assignment of `vars` within [`QBOX`] satisfies `b`.
fn boxed_sat(b: &BTerm, vars: &[String]) -> bool {
    fn go(b: &BTerm, vars: &[String], env: &mut Vec<(String, i128)>) -> bool {
        let Some((v, rest)) = vars.split_first() else {
            return eval_boxed(b, env);
        };
        QBOX.into_iter().any(|value| {
            env.push((v.clone(), i128::from(value)));
            let sat = go(b, rest, env);
            env.pop();
            sat
        })
    }
    go(b, vars, &mut Vec::new())
}

/// The solver and quantifier elimination against brute force over a box,
/// on formulas with `∀` and `∃` in both nesting orders and non-unit
/// coefficients. Every variable, quantified or free, is confined to
/// [`QBOX`], so enumerating the box decides each formula:
/// - the solver may answer `Unsat` only when the box has no model, and
///   every `Sat` model must make the formula true;
/// - a QE output reported complete (`incomplete = false`) must be
///   satisfiable within the box exactly when the formula is.
#[test]
fn quantified_formulas_match_the_box() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0004);
    let free: Vec<String> = FREE.iter().map(|v| v.to_string()).collect();
    let (mut sat, mut unsat, mut unknown, mut exact_qe) = (0, 0, 0, 0);
    for case in 0..160 {
        let phi = gen_quantified(&mut rng);
        let problem = FREE.iter().fold(phi.clone(), |acc, v| acc.and(in_box(v)));
        let expected = boxed_sat(&problem, &free);
        match Solver::new().check_sat(&problem) {
            SmtResult::Sat(model) => {
                sat += 1;
                let mut env: Vec<(String, i128)> = free
                    .iter()
                    .map(|v| (v.clone(), model.get(v).unwrap_or(0)))
                    .collect();
                assert!(
                    eval_boxed(&problem, &mut env),
                    "case {case}: model {model} falsifies {phi:?}"
                );
            }
            SmtResult::Unsat => {
                unsat += 1;
                assert!(
                    !expected,
                    "case {case}: unsat, but the box has a model: {phi:?}"
                );
            }
            SmtResult::Unknown(_) => unknown += 1,
        }
        let qe = eliminate_quantifiers(&problem, &mut FreshNames::new());
        if !qe.incomplete {
            exact_qe += 1;
            let mut vars = BTreeSet::new();
            formula_vars(&qe.formula, &mut vars);
            let vars: Vec<String> = vars.into_iter().collect();
            assert_eq!(
                boxed_sat(&qe.formula, &vars),
                expected,
                "case {case}: exact QE disagrees with the box: {phi:?} became {:?}",
                qe.formula
            );
        }
    }
    assert!(
        sat > 10 && unsat > 10 && unknown > 10 && exact_qe > 40,
        "sat {sat}, unsat {unsat}, unknown {unknown}, exact QE {exact_qe}"
    );
}
