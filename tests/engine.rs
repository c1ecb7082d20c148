//! End-to-end regression tests for the parallel deduplicating discharge
//! engine, driven through the `Verifier` session API: scheduling
//! independence, cross-stage verdict reuse, and faithful statistics
//! aggregation on the paper's §5 case studies.

use relaxed_programs::casestudies;
use relaxed_programs::core::EngineStats;
use relaxed_programs::smt::SolverStats;
use relaxed_programs::{AcceptabilityReport, Stage, Verifier};

/// Verdicts must be identical under 1 and N workers — the engine's
/// deterministic-result-ordering guarantee, on the real workload.
#[test]
fn parallel_matches_sequential_on_case_studies() {
    for (name, program, spec) in casestudies::corpus() {
        let seq = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        let par = Verifier::builder()
            .workers(4)
            .build()
            .check(&program, &spec)
            .unwrap();
        assert_eq!(
            seq.relaxed_progress(),
            par.relaxed_progress(),
            "{name}: overall verdict differs under parallelism"
        );
        let flatten = |r: &AcceptabilityReport| {
            r.combined()
                .results
                .iter()
                .map(|x| (x.vc.name.clone(), x.verdict.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            flatten(&seq),
            flatten(&par),
            "{name}: per-VC verdicts differ"
        );
    }
}

/// The broken variants must still fail under the engine (no cached
/// verdict may leak a `Valid` onto a different obligation).
#[test]
fn broken_case_studies_still_fail_under_engine() {
    for (name, program, spec) in casestudies::all_broken() {
        let report = Verifier::from_env().check(&program, &spec).unwrap();
        assert!(!report.relaxed_progress(), "{name} must fail verification");
    }
}

/// Sharing one session across the ⊢o and ⊢r stages reuses verdicts: the
/// ⊢r diverge sub-proofs of at least one case study re-prove ⊢o goals.
#[test]
fn cross_stage_cache_hits_are_nonzero() {
    let mut cross_stage = 0;
    for (_, program, spec) in casestudies::all() {
        let shared = Verifier::builder().workers(1).build();
        let report = shared.check(&program, &spec).unwrap();
        let isolated = Verifier::builder()
            .workers(1)
            .build()
            .stage(Stage::Relaxed)
            .check(&program, &spec)
            .unwrap();
        cross_stage += report.relaxed.engine.cache_hits - isolated.engine.cache_hits;
    }
    assert!(cross_stage > 0, "expected ⊢o verdicts to be reused by ⊢r");
}

/// A second verification on a warm session is answered entirely from
/// cache, with identical verdicts.
#[test]
fn warm_engine_revalidates_without_solving() {
    let (swish, spec) = casestudies::swish();
    let verifier = Verifier::new();
    let first = verifier
        .stage(Stage::Original)
        .check(&swish, &spec)
        .unwrap();
    let second = verifier
        .stage(Stage::Original)
        .check(&swish, &spec)
        .unwrap();
    assert_eq!(second.engine.cache_misses, 0);
    assert!(second.results.iter().all(|r| r.cached));
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.verdict, b.verdict);
    }
}

/// `AcceptabilityReport.engine` reports this verification's activity,
/// not the shared session's lifetime totals.
#[test]
fn acceptability_engine_stats_are_per_verification_deltas() {
    let (swish, spec) = casestudies::swish();
    let verifier = Verifier::builder().workers(1).build();
    let first = verifier.check(&swish, &spec).unwrap();
    let second = verifier.check(&swish, &spec).unwrap();
    let total = first.combined().len() as u64;
    assert_eq!(first.engine.cache_hits + first.engine.cache_misses, total);
    // The rerun is answered entirely from cache, and its stats must not
    // include the first verification's solver work.
    assert_eq!(second.engine.cache_misses, 0);
    assert_eq!(second.engine.cache_hits, total);
    assert_eq!(second.engine.unique_goals, 0);
}

/// Regression for the stats-aggregation bugs: over a multi-VC report the
/// aggregate must equal the field-by-field fold of the per-VC statistics
/// (`restarts` used to be dropped, `atoms` overwritten).
#[test]
fn report_stats_equal_per_vc_fold() {
    for (name, program, spec) in casestudies::all() {
        let verifier = Verifier::builder().workers(1).build();
        let vcs = verifier.vcs(&program, &spec).unwrap();
        let report = verifier.engine().discharge(vcs);
        let mut folded = SolverStats::default();
        for r in &report.results {
            folded.absorb(&r.stats);
        }
        assert_eq!(report.stats, folded, "{name}: aggregate != per-VC fold");
        assert_eq!(
            report.stats.queries + report.engine.static_hits,
            report.engine.cache_misses,
            "{name}: every freshly solved goal is exactly one solver query or one static hit"
        );
        assert!(report.stats.max_atoms <= report.stats.atoms);
        assert!(
            report.stats.max_atoms > 0,
            "{name}: case studies have atoms"
        );
    }
}

/// The combined case-study VC set contains structural duplicates, and the
/// engine solves each unique goal exactly once.
#[test]
fn case_study_vcs_deduplicate() {
    let verifier = Verifier::builder().workers(1).build();
    let vcs: Vec<_> = casestudies::all()
        .into_iter()
        .flat_map(|(_, program, spec)| verifier.vcs(&program, &spec).unwrap())
        .collect();
    let total = vcs.len() as u64;
    let report = verifier.engine().discharge(vcs);
    assert!(report.verified());
    assert!(
        report.engine.cache_hits > 0,
        "the §5 obligations share identical subgoals"
    );
    assert_eq!(report.engine.cache_hits + report.engine.cache_misses, total);
    assert!(report.engine.unique_goals < total);
}

/// `stats` without its two gauges (`unique_goals`, the cache size, and
/// `workers`, the configured parallelism), which no report folds.
fn without_gauges(stats: EngineStats) -> EngineStats {
    EngineStats {
        unique_goals: 0,
        workers: 0,
        ..stats
    }
}

/// Two corpus runs and one `check` on `verifier`, and the fold of the
/// `engine` stats of the reports they returned.
fn fold_of_reports(verifier: &Verifier) -> EngineStats {
    let corpus = casestudies::corpus();
    let (swish, spec) = casestudies::swish();
    let mut folded = EngineStats::default();
    for _ in 0..2 {
        folded.absorb(&verifier.check_corpus_named(&corpus).engine);
    }
    folded.absorb(&verifier.check(&swish, &spec).unwrap().engine);
    folded
}

/// A session's lifetime totals are exactly the fold of the reports it
/// returned, phase clocks included: one set of counters.
#[test]
fn session_stats_are_the_fold_of_its_reports() {
    for workers in [1, 2] {
        let verifier = Verifier::builder().workers(workers).build();
        let folded = fold_of_reports(&verifier);
        assert!(folded.elapsed_vcgen_us > 0 && folded.elapsed_solve_us > 0);
        assert_eq!(
            without_gauges(verifier.stats()),
            without_gauges(folded),
            "workers({workers})"
        );
    }
}

/// On a persistent store the totals add only the store's own work to
/// the fold: the verdicts it loaded, and the load's cache time.
#[test]
fn persistent_session_stats_add_only_store_io_to_the_fold() {
    let path = std::env::temp_dir().join(format!(
        "relaxed-engine-fold-{}.verdicts.jsonl",
        std::process::id()
    ));
    let seeder = Verifier::builder().workers(1).cache_file(&path).build();
    seeder.check_corpus_named(&casestudies::corpus());
    let persisted = seeder.persist().unwrap();
    drop(seeder);
    for workers in [1, 2] {
        let verifier = Verifier::builder()
            .workers(workers)
            .cache_file(&path)
            .build();
        let folded = fold_of_reports(&verifier);
        let stats = verifier.stats();
        assert_eq!(stats.loaded, persisted, "workers({workers})");
        assert!(stats.elapsed_cache_us >= folded.elapsed_cache_us);
        let io = EngineStats {
            loaded: stats.loaded,
            elapsed_cache_us: stats.elapsed_cache_us - folded.elapsed_cache_us,
            ..EngineStats::default()
        };
        let mut expected = folded;
        expected.absorb(&io);
        assert_eq!(
            without_gauges(stats),
            without_gauges(expected),
            "workers({workers})"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(relaxed_programs::core::depmap::depmap_path(&path));
}
