//! Robustness and correctness tests for the persistent on-disk verdict
//! cache (`relaxed_core::cache` + `CachePolicy::Persistent`): warm/cold
//! equivalence on the full §5 corpus, fingerprint invalidation,
//! corruption tolerance, and concurrent-session safety.
//!
//! The warm/cold test matrix these tests pin down is documented in
//! `tests/README.md`.

use relaxed_programs::{casestudies, CachePolicy, Config, Verifier};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A per-test, per-process cache path under the OS temp dir (the suite
/// may run concurrently with other test binaries on the same host).
fn temp_cache(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "relaxed-cache-it-{}-{tag}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn persistent(path: &PathBuf) -> Verifier {
    // workers(1) keeps cache statistics deterministic; verdicts are
    // scheduling-independent either way.
    Verifier::builder().workers(1).cache_file(path).build()
}

/// The acceptance-criterion scenario: a warm re-verification of the full
/// corpus from a persisted cache discharges with ≥1 disk hit and zero
/// solver invocations for previously-proved goals, verdict-identical to
/// the cold run.
#[test]
fn warm_corpus_rerun_is_verdict_identical_with_zero_solver_runs() {
    let path = temp_cache("warm-corpus");
    let corpus = casestudies::corpus();

    let cold_session = persistent(&path);
    assert!(cold_session.cache_warnings().is_empty());
    assert_eq!(cold_session.stats().loaded, 0, "first run starts cold");
    let cold = cold_session.check_corpus_named(&corpus);
    assert_eq!(cold.engine.disk_hits, 0, "nothing on disk yet");
    let persisted = cold_session.persist().unwrap();
    assert!(persisted > 0);
    drop(cold_session);

    let warm_session = persistent(&path);
    assert!(warm_session.cache_warnings().is_empty());
    assert_eq!(warm_session.stats().loaded, persisted);
    let warm = warm_session.check_corpus_named(&corpus);
    assert_eq!(warm.engine.cache_misses, 0, "zero solver invocations");
    assert!(warm.engine.disk_hits >= 1, "served from disk");
    assert_eq!(
        warm.engine.disk_hits, warm.engine.cache_hits,
        "every warm verdict came from the persisted store"
    );

    // Verdict-identical, per program and per VC.
    assert_eq!(cold.len(), warm.len());
    for (a, b) in cold.entries.iter().zip(&warm.entries) {
        assert_eq!(a.verified(), b.verified(), "{}", a.name);
        let (a, b) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        let flat = |r: &relaxed_programs::core::Report| {
            r.results
                .iter()
                .map(|x| (x.vc.name.clone(), x.verdict.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&a.original), flat(&b.original));
        assert_eq!(flat(&a.relaxed), flat(&b.relaxed));
    }

    // The warm numbers surface in the CorpusReport JSON for CI consumers.
    let json = warm.to_json();
    assert!(json.contains("\"disk_hits\""), "{json}");
    // Drop before cleanup: a live session would re-persist on drop and
    // resurrect the file the test just removed (same in every test
    // below).
    drop(warm_session);
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(relaxed_programs::core::depmap::depmap_path(&path)).unwrap();
}

/// A changed solver budget changes the fingerprint: the persisted file
/// loads as an empty cache (with a warning) and contributes zero disk
/// hits.
#[test]
fn fingerprint_mismatch_yields_cold_cache_and_zero_disk_hits() {
    let path = temp_cache("fingerprint");
    let (program, spec) = casestudies::swish();

    let cold = persistent(&path);
    cold.check(&program, &spec).unwrap();
    assert!(cold.persist().unwrap() > 0);
    drop(cold);

    let other_budget = Verifier::builder()
        .workers(1)
        .max_conflicts(Config::default().max_conflicts + 1)
        .cache_file(&path)
        .build();
    assert_eq!(other_budget.stats().loaded, 0, "fingerprint must not match");
    assert_eq!(other_budget.cache_warnings().len(), 1);
    assert!(
        other_budget.cache_warnings()[0]
            .to_string()
            .contains("fingerprint mismatch"),
        "{}",
        other_budget.cache_warnings()[0]
    );
    let report = other_budget.check(&program, &spec).unwrap();
    assert_eq!(report.engine.disk_hits, 0);
    assert!(report.engine.cache_misses > 0, "everything re-solved");
    drop(other_budget);
    std::fs::remove_file(&path).unwrap();
}

/// Truncated and garbage lines load with warnings and no panic, and the
/// well-formed remainder still produces disk hits.
#[test]
fn corrupt_cache_file_degrades_gracefully() {
    let path = temp_cache("corrupt");
    let (program, spec) = casestudies::swish();

    let cold = persistent(&path);
    cold.check(&program, &spec).unwrap();
    cold.persist().unwrap();
    drop(cold);

    // Corrupt the middle and tear the tail, as a crashed writer might,
    // and add a line nested far deeper than any stack allows.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "expected header + several entries");
    lines.insert(2, "}} definitely not json {{");
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    lines.insert(3, &deep);
    let mut mangled = lines.join("\n");
    mangled.push_str("\n{\"goal\":\"torn-off mid-write");
    std::fs::write(&path, mangled).unwrap();

    let warm = persistent(&path);
    assert_eq!(
        warm.cache_warnings().len(),
        3,
        "{:?}",
        warm.cache_warnings()
    );
    assert!(warm.stats().loaded > 0, "good lines still load");
    let report = warm.check(&program, &spec).unwrap();
    assert!(report.engine.disk_hits > 0);
    assert!(report.verified());
    drop(warm);
    std::fs::remove_file(&path).unwrap();
}

/// A cache file that is pure garbage (bad header) yields a cold, working
/// session — and persisting repairs the file.
#[test]
fn garbage_header_starts_cold_and_persist_repairs() {
    let path = temp_cache("garbage");
    std::fs::write(&path, "\u{1}\u{2}not a cache at all\n").unwrap();
    let (program, spec) = casestudies::lu();

    let session = persistent(&path);
    assert_eq!(session.stats().loaded, 0);
    assert_eq!(session.cache_warnings().len(), 1);
    let report = session.check(&program, &spec).unwrap();
    assert!(report.verified());
    session.persist().unwrap();
    drop(session);

    let repaired = persistent(&path);
    assert!(
        repaired.cache_warnings().is_empty(),
        "persist rewrote cleanly"
    );
    assert!(repaired.stats().loaded > 0);
    drop(repaired);
    std::fs::remove_file(&path).unwrap();
}

/// Concurrent sessions persisting to the same path interleave without
/// corrupting the file: every flush runs under an exclusive lock on the
/// file, and every load under a shared one.
#[test]
fn concurrent_sessions_on_one_path_never_corrupt_it() {
    let path = temp_cache("concurrent");
    let cases = casestudies::all();
    std::thread::scope(|scope| {
        for (_, program, spec) in &cases {
            for _ in 0..2 {
                let path = &path;
                scope.spawn(move || {
                    let session = persistent(path);
                    let report = session.check(program, spec).unwrap();
                    assert!(report.verified());
                    session.persist().unwrap();
                    // Dropping persists again — more interleaving.
                });
            }
        }
    });
    let survivor = persistent(&path);
    assert!(
        survivor.cache_warnings().is_empty(),
        "file must parse cleanly after concurrent writes: {:?}",
        survivor.cache_warnings()
    );
    assert!(survivor.stats().loaded > 0);
    drop(survivor);
    std::fs::remove_file(&path).unwrap();
}

/// Two sessions on one path that each check half the corpus and persist
/// keep each other's verdicts: the first flush creates the store, the
/// second appends under its header, and a third session loads the union
/// and re-solves nothing. A whole-file rewrite from each session's own
/// snapshot used to keep only the last writer's verdicts.
#[test]
fn two_persisting_sessions_keep_each_others_verdicts() {
    let path = temp_cache("two-sessions");
    let corpus = casestudies::corpus();
    let (first, second) = corpus.split_at(corpus.len() / 2);
    let a = persistent(&path);
    let b = persistent(&path);
    a.check_corpus_named(first);
    b.check_corpus_named(second);
    assert!(a.persist().unwrap() > 0);
    assert!(b.persist().unwrap() > 0);
    drop(a);
    drop(b);

    let union = persistent(&path);
    assert!(
        union.cache_warnings().is_empty(),
        "{:?}",
        union.cache_warnings()
    );
    let report = union.check_corpus_named(&corpus);
    assert_eq!(report.engine.cache_misses, 0, "{:?}", report.engine);
    drop(union);
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(relaxed_programs::core::depmap::depmap_path(&path));
}

/// Non-`Valid` verdicts round-trip exactly through the store: a broken
/// case study's counterexamples are identical warm and cold, and warm
/// discharge of the failing goals still performs zero solver runs.
#[test]
fn failing_verdicts_round_trip_exactly() {
    let path = temp_cache("failing");
    let (program, spec) = casestudies::swish_broken();

    let cold_session = persistent(&path);
    let cold = cold_session.check(&program, &spec).unwrap();
    assert!(!cold.relaxed_progress());
    cold_session.persist().unwrap();
    drop(cold_session);

    let warm_session = persistent(&path);
    let warm = warm_session.check(&program, &spec).unwrap();
    assert_eq!(warm.engine.cache_misses, 0);
    assert!(warm.engine.disk_hits > 0);
    for (a, b) in cold.combined().results.iter().zip(&warm.combined().results) {
        assert_eq!(a.verdict, b.verdict, "{}", a.vc);
    }
    drop(warm_session);
    std::fs::remove_file(&path).unwrap();
}

/// Goals discharged straight through a persistent session's engine (no
/// corpus or staged pipeline in the way) are persisted by the session's
/// drop, and a session without a store persists nothing.
#[test]
fn engine_level_persistence_and_no_store_noop() {
    let path = temp_cache("engine");
    let verifier = Verifier::builder().workers(1).build();
    let (program, spec) = casestudies::water();
    let vcs = verifier.vcs(&program, &spec).unwrap();

    let cold = persistent(&path);
    let report = cold.engine().discharge(vcs.clone());
    let solved = report.engine.cache_misses;
    assert!(solved > 0);
    drop(cold); // drop persists

    let warm = persistent(&path);
    assert_eq!(warm.stats().loaded, solved);
    let rerun = warm.engine().discharge(vcs.clone());
    assert_eq!(rerun.engine.cache_misses, 0);
    assert_eq!(rerun.engine.disk_hits, rerun.engine.cache_hits);

    // `verifier` solved the same goals in memory.
    assert!(verifier.engine().discharge(vcs).engine.cache_misses > 0);
    assert_eq!(verifier.persist().unwrap(), 0);
    assert!(verifier.cache_warnings().is_empty());
    drop(warm);
    std::fs::remove_file(&path).unwrap();
}

/// `DISCHARGE_CACHE` selects the persistent policy through the env
/// layer, and an empty value is reported instead of silently ignored.
#[test]
fn discharge_cache_env_knob_selects_persistent_policy() {
    let path = temp_cache("env-knob");
    let (config, warnings) = Config::from_lookup(|name| match name {
        "DISCHARGE_CACHE" => Some(path.to_string_lossy().into_owned()),
        _ => None,
    });
    assert!(warnings.is_empty());
    assert_eq!(config.cache, CachePolicy::Persistent { path: path.clone() });

    let (config, warnings) = Config::from_lookup(|name| match name {
        "DISCHARGE_CACHE" => Some("   ".to_string()),
        _ => None,
    });
    assert_eq!(config.cache, CachePolicy::Shared);
    assert_eq!(warnings.len(), 1);
    assert_eq!(warnings[0].var, "DISCHARGE_CACHE");
    assert!(warnings[0].to_string().contains("file path"));
}
