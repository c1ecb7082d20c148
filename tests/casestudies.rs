//! Integration tests for the paper's §5 case studies: each verifies
//! statically, each mutated variant fails, and the verified programs
//! behave as proved when executed under adversarial oracles.

use relaxed_programs::casestudies;
use relaxed_programs::interp::oracle::{ExtremalOracle, IdentityOracle, RandomOracle};
use relaxed_programs::interp::{check_compat, run_original, run_relaxed, Oracle, Outcome};
use relaxed_programs::lang::{State, Var};
use relaxed_programs::smt::Validity;
use relaxed_programs::Verifier;

const FUEL: u64 = 10_000_000;

#[test]
fn swish_verifies() {
    let (program, spec) = casestudies::swish();
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(report.relaxed_progress(), "{report}");
}

#[test]
fn swish_broken_fails_relational_stage() {
    let (program, spec) = casestudies::swish_broken();
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(
        report.original_progress(),
        "the broken knob still verifies under ⊢o"
    );
    assert!(
        !report.relative_relaxed_progress(),
        "the relate property must fail for the floor-5 knob"
    );
}

#[test]
fn water_verifies() {
    let (program, spec) = casestudies::water();
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(report.relaxed_progress(), "{report}");
}

#[test]
fn water_broken_fails() {
    let (program, spec) = casestudies::water_broken();
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(
        !report.relative_relaxed_progress(),
        "relaxing K must break the noninterference bridge"
    );
}

#[test]
fn lu_verifies() {
    let (program, spec) = casestudies::lu();
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(report.relaxed_progress(), "{report}");
}

#[test]
fn lu_broken_fails() {
    let (program, spec) = casestudies::lu_broken();
    let report = Verifier::new().check(&program, &spec).unwrap();
    assert!(
        !report.relative_relaxed_progress(),
        "a 2e relaxation cannot satisfy an e-Lipschitz relate"
    );
}

/// The status of every VC of the six-program corpus, in generation order:
/// `V` valid, `I` invalid, `U` unknown. Witnesses are left out, because
/// they depend on the search order. A solver change that flips a status
/// (say, lu_broken's `Unknown` into `Invalid`) fails here.
#[test]
fn corpus_vc_statuses_are_pinned() {
    let report = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&casestudies::corpus());
    let statuses: Vec<(String, String)> = report
        .entries
        .iter()
        .map(|entry| {
            let outcome = entry.outcome.as_ref().expect("the corpus verifies");
            let letters = outcome
                .combined()
                .results
                .iter()
                .map(|r| match r.verdict {
                    Validity::Valid => 'V',
                    Validity::Invalid(_) => 'I',
                    Validity::Unknown(_) => 'U',
                })
                .collect();
            (entry.name.clone(), letters)
        })
        .collect();
    let expected = [
        ("swish", "VVVVVVV"),
        ("water", "VVVVVVV"),
        ("lu", "VVVVV"),
        ("swish_broken", "VVIVVVV"),
        ("water_broken", "VVIVVVV"),
        ("lu_broken", "VVVVU"),
    ];
    let expected: Vec<(String, String)> = expected
        .iter()
        .map(|&(name, letters)| (name.to_string(), letters.to_string()))
        .collect();
    assert_eq!(statuses, expected);
    let vcs: usize = statuses.iter().map(|(_, letters)| letters.len()).sum();
    assert_eq!(vcs, 38);
}

/// Dynamic counterpart of Theorem 6 for Swish++: across knob/N settings
/// and oracles, paired runs have compatible observations.
#[test]
fn swish_dynamic_compatibility() {
    let (program, _) = casestudies::swish();
    for (max_r, n) in [
        (0, 0),
        (3, 7),
        (9, 100),
        (10, 10),
        (11, 5),
        (40, 12),
        (100, 100),
    ] {
        let sigma = State::from_ints([("max_r", max_r), ("N", n), ("num_r", 0)]);
        let original = run_original(program.body(), sigma.clone(), &mut IdentityOracle, FUEL);
        assert!(original.is_terminated(), "{original}");
        let oracles: Vec<Box<dyn Oracle>> = vec![
            Box::new(IdentityOracle),
            Box::new(ExtremalOracle::minimizing()),
            Box::new(ExtremalOracle::maximizing()),
            Box::new(RandomOracle::new(max_r as u64 * 31 + n as u64, 0, 128)),
        ];
        for mut oracle in oracles {
            let relaxed = run_relaxed(program.body(), sigma.clone(), oracle.as_mut(), FUEL);
            assert!(relaxed.is_terminated(), "{relaxed}");
            check_compat(
                &program.gamma(),
                original.observations().unwrap(),
                relaxed.observations().unwrap(),
            )
            .unwrap_or_else(|e| panic!("max_r={max_r} N={n}: {e}"));
        }
    }
}

/// Dynamic counterpart of Theorem 8 for Water: no relaxed execution
/// violates the assumption, whatever the race does.
#[test]
fn water_dynamic_progress() {
    let (program, _) = casestudies::water();
    for n in [0i64, 1, 5, 32] {
        let rs: Vec<i64> = (0..n.max(1)).map(|i| (i * 13) % 40).collect();
        let mut sigma = State::from_ints([("N", n), ("K", 0), ("gCUT2", 20), ("len_FF", n)]);
        sigma.set("RS", rs.clone());
        sigma.set("FF", vec![0; n.max(1) as usize]);
        // len_FF == len(FF) and len_FF <= len(RS) must hold initially (the
        // verified precondition).
        if n == 0 {
            sigma.set("len_FF", 1);
        }
        let original = run_original(program.body(), sigma.clone(), &mut IdentityOracle, FUEL);
        assert!(!original.is_err(), "{original}");
        for seed in 0..5u64 {
            let mut scheduler = RandomOracle::new(seed.wrapping_mul(0x9E3779B9), 0, 39);
            let relaxed = run_relaxed(program.body(), sigma.clone(), &mut scheduler, FUEL);
            assert!(
                !relaxed.is_err(),
                "Theorem 8 violated dynamically (n={n}, seed={seed}): {relaxed}"
            );
        }
    }
}

/// Dynamic counterpart of Theorem 6 for LU: the measured pivot error never
/// exceeds the verified Lipschitz bound.
#[test]
fn lu_dynamic_lipschitz() {
    let (program, _) = casestudies::lu();
    for n in [1i64, 3, 10, 40] {
        for e in [0i64, 1, 5] {
            let col: Vec<i64> = (0..n).map(|i| ((i * 97 + 3) % 60) - 30).collect();
            let mut sigma = State::from_ints([("N", n), ("e", e), ("i", 0)]);
            sigma.set("col", col);
            let original = run_original(program.body(), sigma.clone(), &mut IdentityOracle, FUEL);
            let max_o = original.state().unwrap().get_int(&Var::new("max")).unwrap();
            for seed in 0..4u64 {
                let mut memory = RandomOracle::new(seed * 7919, -60, 60);
                let relaxed = run_relaxed(program.body(), sigma.clone(), &mut memory, FUEL);
                let max_r = relaxed.state().unwrap().get_int(&Var::new("max")).unwrap();
                assert!(
                    (max_o - max_r).abs() <= e,
                    "n={n} e={e} seed={seed}: |{max_o} - {max_r}| > {e}"
                );
                check_compat(
                    &program.gamma(),
                    original.observations().unwrap(),
                    relaxed.observations().unwrap(),
                )
                .unwrap();
            }
        }
    }
}

/// The broken Swish++ program is not just unverifiable — an adversarial
/// schedule actually violates its relate statement dynamically, which is
/// exactly what the failed VC predicts.
#[test]
fn swish_broken_dynamic_counterexample() {
    let (program, _) = casestudies::swish_broken();
    let sigma = State::from_ints([("max_r", 40), ("N", 100), ("num_r", 0)]);
    let original = run_original(program.body(), sigma.clone(), &mut IdentityOracle, FUEL);
    let mut adversary = ExtremalOracle::minimizing();
    let relaxed = run_relaxed(program.body(), sigma, &mut adversary, FUEL);
    assert!(matches!(relaxed, Outcome::Terminated { .. }));
    let err = check_compat(
        &program.gamma(),
        original.observations().unwrap(),
        relaxed.observations().unwrap(),
    )
    .expect_err("the floor-5 knob must violate the relate dynamically");
    let text = err.to_string();
    assert!(text.contains("presented"), "{text}");
}
