//! Cross-crate pipeline tests: transformations feeding the verifier,
//! automatic noninterference annotation, and source round-trips of the
//! full case-study programs.

use relaxed_programs::casestudies;
use relaxed_programs::core::noninterference::augment_rel_invariants;
use relaxed_programs::lang::{
    parse_formula, parse_program, parse_rel_formula, Formula, Program, RelFormula, Stmt,
};
use relaxed_programs::transforms::{bounded_perturbation, insert_before, task_skipping};
use relaxed_programs::{Spec, Stage, Verifier};

/// A unary-only spec for the per-stage checks below.
fn unary_spec(pre: Formula, post: Formula) -> Spec {
    Spec {
        pre,
        post,
        rel_pre: RelFormula::True,
        rel_post: RelFormula::True,
    }
}

/// A relational-only spec for the per-stage checks below.
fn rel_spec(rel_pre: RelFormula) -> Spec {
    Spec {
        pre: Formula::True,
        post: Formula::True,
        rel_pre,
        rel_post: RelFormula::True,
    }
}

/// A transformation-produced program (approximate memoization pattern)
/// verifies out of the box: build with `relaxed-transforms`, specify with
/// a relate, prove with `relaxed-core`.
#[test]
fn transform_then_verify_bounded_perturbation() {
    let relaxation = bounded_perturbation("out", "tol");
    let program = Program::new(Stmt::seq([
        parse_program("out = signal + bias;").unwrap().into_body(),
        relaxation,
        parse_program("relate memo : out<o> - out<r> <= tol<o> && out<r> - out<o> <= tol<o>;")
            .unwrap()
            .into_body(),
    ]))
    .unwrap();
    let spec = Spec {
        pre: parse_formula("tol >= 0").unwrap(),
        post: Formula::True,
        rel_pre: parse_rel_formula(
            "signal<o> == signal<r> && bias<o> == bias<r> && tol<o> == tol<r> && tol<o> >= 0",
        )
        .unwrap(),
        rel_post: RelFormula::True,
    };
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(report.relaxed_progress(), "{report}");
}

/// Task skipping composed via `insert_before`, verified through a diverge
/// contract added around the guarded task.
#[test]
fn transform_then_verify_task_skipping() {
    let task = parse_program("count = count + 1;").unwrap().into_body();
    let skipping = task_skipping("go", task);
    // Wrap: count starts at 0; afterwards count ∈ {0, 1} on both sides.
    let program_src_check = Program::new(Stmt::seq([
        parse_program("count = 0;").unwrap().into_body(),
        skipping,
    ]))
    .unwrap();
    // The if produced by the transform diverges (go is relaxed); verify the
    // weaker unary consequence through ⊢o and ⊢i separately.
    let pre = Formula::True;
    let post = parse_formula("count == 0 || count == 1").unwrap();
    let verifier = Verifier::new();
    let spec = unary_spec(pre, post);
    let o = verifier
        .stage(Stage::Original)
        .check(&program_src_check, &spec)
        .unwrap();
    assert!(o.verified(), "{o}");
    let i = verifier
        .stage(Stage::Intermediate)
        .check(&program_src_check, &spec)
        .unwrap();
    assert!(i.verified(), "{i}");
}

/// `insert_before` splices a relaxation into an existing program and the
/// result still parses/verifies.
#[test]
fn insert_before_preserves_wellformedness() {
    let base = parse_program("a = 1; b = a + 1;").unwrap();
    let spliced = insert_before(base.body(), 1, bounded_perturbation("a", "eps"));
    let program = Program::new(spliced).unwrap();
    let report = Verifier::new()
        .stage(Stage::Original)
        .check(
            &program,
            &unary_spec(
                parse_formula("eps >= 0").unwrap(),
                parse_formula("b == a + 1").unwrap(),
            ),
        )
        .unwrap();
    assert!(report.verified(), "{report}");
}

/// Automatic noninterference annotation: a program with an unannotated
/// convergent loop verifies after `augment_rel_invariants` fills in
/// `⟨I · I⟩ ∧ sync(untainted)`.
#[test]
fn auto_annotation_makes_unannotated_loops_verify() {
    let program = parse_program(
        "relax (fuzz) st (0 <= fuzz && fuzz <= 9);
         i = 0;
         while (i < n) invariant (0 <= i) {
           i = i + 1;
         }
         assert i >= 0;
         relate sync : i<o> == i<r>;",
    )
    .unwrap();
    // Without augmentation the relational stage cannot process the loop.
    let rel_pre = parse_rel_formula("i<o> == i<r> && n<o> == n<r> && fuzz<o> == fuzz<r>").unwrap();
    let verifier = Verifier::new();
    let spec = rel_spec(rel_pre);
    assert!(verifier
        .stage(Stage::Relaxed)
        .check(&program, &spec)
        .is_err());
    // With augmentation it verifies end to end.
    let augmented = augment_rel_invariants(&program);
    let report = verifier
        .stage(Stage::Relaxed)
        .check(&augmented, &spec)
        .unwrap();
    assert!(report.verified(), "{report}");
}

/// The case-study programs survive a pretty-print → parse round-trip with
/// all annotations intact.
#[test]
fn case_studies_roundtrip_through_concrete_syntax() {
    for (name, (program, _)) in [
        ("swish", casestudies::swish()),
        ("water", casestudies::water()),
        ("lu", casestudies::lu()),
    ] {
        let text = program.to_string();
        let reparsed = relaxed_programs::lang::parse_program(&text)
            .unwrap_or_else(|e| panic!("{name}: pretty output must parse: {e}\n{text}"));
        assert_eq!(&reparsed, &program, "{name} round-trip");
    }
}

/// The relate labels of each case study are registered in Γ with the
/// right predicates.
#[test]
fn case_study_gammas() {
    let (swish, _) = casestudies::swish();
    assert_eq!(swish.gamma().len(), 1);
    let (water, _) = casestudies::water();
    assert_eq!(
        water.gamma().len(),
        0,
        "water's property is an assume, not a relate"
    );
    let (lu, _) = casestudies::lu();
    assert!(lu.gamma().keys().any(|l| l.name() == "lipschitz"));
}

/// Verification failures carry usable diagnostics: context, rule name,
/// and a counterexample when the solver finds one.
#[test]
fn failure_diagnostics_are_actionable() {
    let program = parse_program("x = 1; assert x == 2;").unwrap();
    let report = Verifier::new()
        .stage(Stage::Original)
        .check(&program, &unary_spec(Formula::True, Formula::True))
        .unwrap();
    let failure = report.failures().next().expect("one failure");
    assert_eq!(failure.vc.name, "precondition-establishes-wp");
    match &failure.verdict {
        relaxed_programs::smt::Validity::Invalid(model) => {
            // The counterexample is the reachable state violating the assert.
            assert!(model.to_string().contains("x") || model.is_empty());
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

/// A precondition that is true over ℤ, `∀x. ∃y. 2y = x ∨ 2y = x + 1`,
/// cannot make a false `assert` hold. Quantifier elimination used to
/// skolemize `∃y` once for every `x`, which refuted the precondition and
/// proved the program.
#[test]
fn exists_under_forall_precondition_does_not_prove_a_false_assert() {
    let program = parse_program("assert (0 == 1);").unwrap();
    let pre = parse_formula("forall x . exists y . (2 * y == x || 2 * y == x + 1)").unwrap();
    let report = Verifier::new()
        .check(&program, &unary_spec(pre, Formula::True))
        .unwrap();
    assert!(!report.verified(), "{report}");
    assert!(!report.original_progress(), "{report}");
    let control = Verifier::new()
        .check(&program, &unary_spec(Formula::True, Formula::True))
        .unwrap();
    assert!(!control.verified(), "{control}");
}
