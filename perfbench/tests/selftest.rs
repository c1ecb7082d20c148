//! Self-tests of the benchmark: the known-answer gate, the exactness of
//! the solver counters the traced run reports, and the contract between
//! the binary's metrics and `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds solve the corpus about ten times slower).

use relaxed_core::Verifier;
use relaxed_perfbench::corpus::{check, Corpus, EditCorpus, Rng};
use relaxed_perfbench::layers::{Layers, METRICS};
use relaxed_perfbench::workloads::{run_ops, Bench, Workload, EDIT_VARIANTS, END_TO_END};
use std::path::Path;
use std::time::Duration;

fn cold_bench(seed: u64) -> Bench {
    Bench::setup(
        Workload::ColdCorpus,
        seed,
        Path::new("."),
        Path::new("."),
        None,
    )
    .expect("cold_corpus needs no files")
}

#[test]
fn a_flipped_known_answer_counts_the_op_as_failed() {
    let mut bench = cold_bench(7);
    let ops = run_ops(&mut bench, None, Duration::ZERO);
    assert_eq!((ops.latencies_ms.len(), ops.failed), (1, 0));

    let Bench::Cold { six, .. } = &mut bench else {
        unreachable!()
    };
    six.expected[0].verifies = !six.expected[0].verifies;
    let ops = run_ops(&mut bench, None, Duration::ZERO);
    assert_eq!((ops.latencies_ms.len(), ops.failed), (1, 1));
}

#[test]
fn an_unexpected_unknown_fails_the_gate() {
    let six = Corpus::six();
    let report = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&six.entries);
    check(&report, &six).expect("the six programs meet their known answers");
    let mut expected_none = six.clone();
    for answer in &mut expected_none.expected {
        answer.unknowns = 0;
    }
    let err = check(&report, &expected_none).unwrap_err();
    assert!(err.starts_with("lu_broken:"), "{err}");
}

/// The `smt.*` and `engine.solver_runs` numbers of a traced `cold_corpus`
/// op, which must repeat exactly.
fn counters(bench: &mut Bench) -> Vec<(&'static str, f64)> {
    let mut layers = Layers::default();
    let ops = run_ops(bench, Some(&mut layers), Duration::ZERO);
    assert_eq!(ops.failed, 0);
    layers
        .finish(1, 0.0)
        .into_iter()
        .filter(|(name, unit, _)| {
            (name.starts_with("smt.") && *unit != "us") || *name == "engine.solver_runs"
        })
        .map(|(name, _, value)| (name, value))
        .collect()
}

#[test]
fn cold_solver_counters_repeat_exactly_across_ops_and_runs() {
    let mut run = cold_bench(3);
    let first = counters(&mut run);
    assert_eq!(counters(&mut run), first, "two ops of one run");
    assert_eq!(
        counters(&mut cold_bench(3)),
        first,
        "two runs with one seed"
    );
    assert_eq!(counters(&mut cold_bench(4)), first, "another seed's order");
    let decisions = first.iter().find(|(name, _)| *name == "smt.decisions");
    assert!(
        decisions.is_some_and(|&(_, value)| value > 0.0),
        "{first:?}"
    );
}

#[test]
fn another_seed_makes_other_inputs_with_the_same_answers() {
    let orders = |seed| {
        let mut rng = Rng::new(seed);
        (0..4).map(|_| rng.permutation(6)).collect::<Vec<_>>()
    };
    assert_eq!(orders(1), orders(1));
    assert_ne!(orders(1), orders(2));

    let (one, two) = (
        EditCorpus::generate(1, EDIT_VARIANTS),
        EditCorpus::generate(2, EDIT_VARIANTS),
    );
    assert_eq!(one.corpus.expected, two.corpus.expected);
    let pre = |edits: &EditCorpus| -> Vec<String> {
        edits
            .corpus
            .entries
            .iter()
            .map(|(_, _, spec)| spec.pre.to_string())
            .collect()
    };
    assert_ne!(pre(&one), pre(&two));
    assert_eq!(pre(&one), pre(&EditCorpus::generate(1, EDIT_VARIANTS)));
    for edits in [one, two] {
        let report = Verifier::builder()
            .workers(1)
            .build()
            .check_corpus_named(&edits.corpus.entries);
        check(&report, &edits.corpus).expect("every revision keeps its known answer");
    }
}

#[test]
fn benchmark_json_lists_every_metric_the_binary_prints() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(METRICS) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
