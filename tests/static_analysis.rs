//! Integration tests for the goal-level static analysis layer: the
//! prefilter's soundness against a fresh solver on the real corpus,
//! static-hit accounting, and the spec-coverage lint's precision on the
//! paper's case studies.

use relaxed_programs::core::engine::encode_goal;
use relaxed_programs::core::Prefilter;
use relaxed_programs::smt::Solver;
use relaxed_programs::{casestudies, LintCode, Verifier};

/// Prefilter soundness on the real workload: every encoded goal of the
/// six-program corpus that the static prefilter proves, a fresh solver
/// proves too.
#[test]
fn prefilter_proofs_hold_on_a_fresh_solver() {
    let verifier = Verifier::new();
    let mut prefilter = Prefilter::new();
    let mut proved = 0;
    for (name, program, spec) in &casestudies::corpus() {
        for vc in verifier
            .vcs(program, spec)
            .expect("case studies generate VCs")
        {
            let goal = encode_goal(&vc);
            if prefilter.proves(&goal) {
                proved += 1;
                assert!(
                    Solver::new().check_valid(&goal).is_valid(),
                    "{name}: the prefilter proved {vc}, a fresh solver did not"
                );
            }
        }
    }
    assert!(proved >= 1, "the corpus has statically provable goals");
}

/// `static_hits` rides the corpus JSON at both granularities, and a
/// cold single-worker corpus run splits its fresh goals exactly into
/// static hits and solver queries.
#[test]
fn static_hits_appear_in_corpus_json() {
    let corpus = casestudies::corpus();
    let report = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&corpus);
    let json = report.to_json();
    // One per successful entry plus one aggregate.
    assert_eq!(json.matches("\"static_hits\"").count(), 7, "{json}");
    assert_eq!(report.engine.cache_misses, 22);
    assert_eq!(report.engine.static_hits, 3);
    assert_eq!(report.stats.queries, 19);
}

/// Lint precision golden: the paper's case studies — verified *and*
/// broken variants — are all clean specifications (the mutations are
/// semantic, not structural), so the spec-coverage lint must stay quiet
/// on every one of them. Recall is covered by the `analysis` unit tests
/// on crafted programs.
#[test]
fn lint_is_quiet_on_all_case_studies() {
    let verifier = Verifier::new();
    for (name, program, spec) in casestudies::corpus() {
        let warnings = verifier.lint(&program, &spec);
        assert!(
            warnings.is_empty(),
            "{name}: unexpected lint warnings: {warnings:?}"
        );
    }
    let report = verifier.check_corpus_named(&casestudies::all_broken());
    for entry in &report.entries {
        assert!(entry.lint.is_empty(), "{}: {:?}", entry.name, entry.lint);
    }
    // Clean entries omit the "lint" field entirely.
    assert!(!report.to_json().contains("\"lint\""));
}

/// Lint recall end to end: a deliberately sloppy spec produces all three
/// warning categories through `Verifier::lint`, and the rendered
/// warnings ride the corpus JSON.
#[test]
fn lint_warnings_ride_the_corpus_report() {
    use relaxed_programs::lang;
    let program = lang::parse_program(
        "relax (x) st (0 <= seed);
         y = x + 1;
         while (i < n) invariant (i <= n && ghost == 0) { i = i + 1; }",
    )
    .unwrap();
    let spec = relaxed_programs::Spec {
        pre: lang::Formula::True,
        post: lang::parse_formula("y >= 0").unwrap(),
        rel_pre: lang::parse_rel_formula("x<o> == x<r>").unwrap(),
        rel_post: lang::RelFormula::True,
    };
    let verifier = Verifier::new();
    let warnings = verifier.lint(&program, &spec);
    let codes: Vec<LintCode> = warnings.iter().map(|w| w.code).collect();
    assert!(
        codes.contains(&LintCode::UnconstrainedTaint),
        "{warnings:?}"
    );
    assert!(codes.contains(&LintCode::VacuousRelax), "{warnings:?}");
    assert!(codes.contains(&LintCode::InertInvariant), "{warnings:?}");

    let report = verifier.check_corpus_named(&[("sloppy", program, spec)]);
    assert_eq!(report.entries[0].lint.len(), warnings.len());
    let json = report.to_json();
    assert!(json.contains("\"lint\""), "{json}");
    assert!(json.contains("vacuous-relax"), "{json}");
}
