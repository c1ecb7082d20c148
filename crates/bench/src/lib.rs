//! # relaxed-bench
//!
//! Benchmarks and report generation reproducing the evaluation artifacts
//! of Carbin et al. (PLDI 2012). See `benches/paper.rs` for the Criterion
//! benchmarks (E1, E2, E3, E5, E6 plus solver microbenchmarks) and
//! `src/bin/paper_report.rs` for the paper-vs-measured tables recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod harness;

use relaxed_core::Spec;
use relaxed_interp::oracle::{IdentityOracle, RandomOracle};
use relaxed_interp::{run_original, run_relaxed, Outcome};
use relaxed_lang::{parse_formula, Program, State, Var};

/// Builds a `variants`-revision spec corpus from the verified §5 case
/// studies: variant `k` of each program strengthens its precondition
/// with a distinct tautological conjunct, making it a distinct revision
/// (distinct `pre` fragment, distinct program hash) with identical
/// verdicts. This is the edit→re-verify workload shape (`edit_reverify`
/// bench group, `paper_report` §E14): one spec edit in a corpus this
/// size leaves every other revision textually untouched, so an
/// incremental re-verification replays all of them from the persistent
/// store while a full warm rerun regenerates and re-encodes every
/// obligation.
pub fn spec_variant_corpus(variants: usize) -> Vec<(String, Program, Spec)> {
    let mut corpus = Vec::new();
    for k in 0..variants {
        for (name, program, spec) in relaxed_programs::casestudies::all() {
            let mut spec = spec;
            spec.pre = parse_formula(&format!("({}) && v{k} == v{k}", spec.pre))
                .expect("variant precondition parses");
            corpus.push((format!("{name}_v{k}"), program, spec));
        }
    }
    corpus
}

/// The borrowed view [`Verifier::check_corpus_named`] takes, from an
/// owned-name corpus such as [`spec_variant_corpus`]'s.
///
/// [`Verifier::check_corpus_named`]: relaxed_core::Verifier::check_corpus_named
pub fn corpus_view(corpus: &[(String, Program, Spec)]) -> Vec<(&str, Program, Spec)> {
    corpus
        .iter()
        .map(|(name, program, spec)| (name.as_str(), program.clone(), spec.clone()))
        .collect()
}

/// Builds the Water workload state for `n` molecules.
pub fn water_state(n: i64) -> State {
    let rs: Vec<i64> = (0..n).map(|i| (i * 37) % 100).collect();
    let mut sigma = State::from_ints([("N", n), ("K", 0), ("gCUT2", 50), ("len_FF", n)]);
    sigma.set("RS", rs);
    sigma.set("FF", vec![0; n as usize]);
    sigma
}

/// Builds the LU workload state for a column of length `n` and bound `e`.
pub fn lu_state(n: i64, e: i64) -> State {
    let col: Vec<i64> = (0..n).map(|i| ((i * 73 + 11) % 200) - 100).collect();
    let mut sigma = State::from_ints([("N", n), ("e", e), ("i", 0)]);
    sigma.set("col", col);
    sigma
}

/// Runs a program under both semantics and returns `(value_o, value_r)`
/// for `var` (panics on error outcomes — these are verified programs).
pub fn run_pair(
    program: &Program,
    sigma: State,
    seed: u64,
    lo: i64,
    hi: i64,
    var: &str,
) -> (i64, i64) {
    let fuel = 100_000_000;
    let o = run_original(program.body(), sigma.clone(), &mut IdentityOracle, fuel);
    let mut oracle = RandomOracle::new(seed, lo, hi);
    let r = run_relaxed(program.body(), sigma, &mut oracle, fuel);
    let get = |out: &Outcome| {
        out.state()
            .unwrap_or_else(|| panic!("verified program errored: {out}"))
            .get_int(&Var::new(var))
            .expect("variable bound")
    };
    (get(&o), get(&r))
}
