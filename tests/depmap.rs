//! Edge-case tests for the goal→fragment dependency map
//! (`relaxed_core::depmap`) driving incremental re-verification: edits
//! that must *not* force re-proofs (corpus reorders), edits whose blast
//! radius is stage-bounded (a `relax` target-list edit invalidates `⊢r`
//! goals but no `⊢o` goal), and staleness guards (a fingerprint change
//! must discard the sidecar — a stale map must never drive a replay).
//!
//! The end-to-end edit→re-verify scenario these pin down is the CI
//! `edit-reverify` job (`verify_corpus --edit-reverify`); the rows are
//! documented in `tests/README.md`.

use relaxed_programs::core::cache::fingerprint;
use relaxed_programs::core::depmap::{
    depmap_path, dirty_goals, goal_deps, load, program_hash, ProgramDeps,
};
use relaxed_programs::core::vcgen::Vc;
use relaxed_programs::lang::{parse_formula, parse_program, parse_rel_formula, Program};
use relaxed_programs::{casestudies, Config, CorpusPolicy, Spec, Stage, Verifier};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A per-test, per-process cache path under the OS temp dir.
fn temp_cache(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "relaxed-depmap-it-{}-{tag}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A deterministic persistent session (which always records and
/// replays its depmap).
fn persistent(path: &PathBuf) -> Verifier {
    Verifier::builder()
        .workers(1)
        .corpus(CorpusPolicy::InProcess)
        .cache_file(path)
        .build()
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(depmap_path(path));
}

/// The staged obligations of one program under `session`'s stage
/// selection, in the shape `depmap::goal_deps` consumes.
fn staged(session: &Verifier, program: &Program, spec: &Spec) -> Vec<(Stage, Vec<Vc>)> {
    session
        .config()
        .stages
        .iter()
        .map(|stage| {
            let vcs = session
                .stage(stage)
                .vcs(program, spec)
                .expect("test program generates VCs");
            (stage, vcs)
        })
        .collect()
}

/// Checks what a corpus run left in the sidecar at `path`: every
/// program's record equals the one a fresh vcgen pass builds for its
/// current revision, and a fresh session replays the whole corpus from
/// it. A live run answered from the store counts each disk hit as a
/// cross-owner hit, so `cross_hits == 0` is what shows a replay.
fn assert_records_replay(path: &PathBuf, corpus: &[(&str, Program, Spec)]) {
    let session = persistent(path);
    let fingerprint = fingerprint(&session.config().discharge_config());
    let (map, warnings) = load(&depmap_path(path), &fingerprint);
    assert!(warnings.is_empty(), "{warnings:?}");
    for (name, program, spec) in corpus {
        let fresh = ProgramDeps {
            hash: program_hash(program, spec),
            goals: goal_deps(&staged(&session, program, spec)),
        };
        assert_eq!(map.program(name), Some(&fresh), "{name}");
    }
    let replay = session.check_corpus_named(corpus);
    assert_eq!(replay.engine.cache_misses, 0, "{:?}", replay.engine);
    assert_eq!(replay.engine.cross_hits, 0, "{:?}", replay.engine);
}

/// A live run records each program's revision from the obligations its
/// own report carries, with no second vcgen pass: the record must equal
/// the one fresh obligations give, or the next session cannot replay.
#[test]
fn cold_run_records_every_revision_from_its_live_report() {
    let path = temp_cache("record");
    let corpus = casestudies::corpus();
    let cold_session = persistent(&path);
    let cold = cold_session.check_corpus_named(&corpus);
    assert!(cold.engine.cache_misses > 0, "the run was live");
    cold_session.persist().unwrap();
    drop(cold_session);
    assert_records_replay(&path, &corpus);
    cleanup(&path);
}

/// Reordering the corpus is not an edit: every program's hash still
/// matches its stored revision, so the whole re-verification replays
/// from the store with zero solver runs.
#[test]
fn corpus_reorder_replays_without_any_reproof() {
    let path = temp_cache("reorder");
    let corpus = casestudies::corpus();

    let cold_session = persistent(&path);
    let cold = cold_session.check_corpus_named(&corpus);
    cold_session.persist().unwrap();
    drop(cold_session);

    let mut reordered = casestudies::corpus();
    reordered.reverse();
    let warm_session = persistent(&path);
    let warm = warm_session.check_corpus_named(&reordered);
    assert_eq!(warm.engine.cache_misses, 0, "a reorder must not re-prove");
    assert!(warm.engine.disk_hits >= 1, "served from the store");

    // Same verdicts program-for-program, modulo the reorder.
    for entry in &warm.entries {
        let counterpart = cold
            .entries
            .iter()
            .find(|e| e.name == entry.name)
            .expect("same program set");
        assert_eq!(entry.verified(), counterpart.verified(), "{}", entry.name);
    }
    cleanup(&path);
}

/// The paper's stage asymmetry for `relax (X) st e` (Fig. 7): under `⊢o`
/// the statement is `assert e` over an unchanged state — the target list
/// `X` is semantically invisible — while under `⊢r` the relaxed side
/// havocs `X`. Editing only the target list must therefore dirty `⊢r`
/// goals and leave every `⊢o` goal replayable.
#[test]
fn relax_target_edit_dirties_relaxed_goals_but_no_original_goal() {
    let v1 = parse_program(
        "x = 0; y = 0;
         relax (x) st (0 <= x && x <= 2);
         relate l1 : x<o> <= x<r>;",
    )
    .unwrap();
    // The edit: `y` joins the target list; the predicate is untouched.
    let v2 = parse_program(
        "x = 0; y = 0;
         relax (x, y) st (0 <= x && x <= 2);
         relate l1 : x<o> <= x<r>;",
    )
    .unwrap();
    let spec = Spec {
        pre: parse_formula("true").unwrap(),
        post: parse_formula("true").unwrap(),
        rel_pre: parse_rel_formula("x<o> == x<r> && y<o> == y<r>").unwrap(),
        rel_post: parse_rel_formula("true").unwrap(),
    };

    let path = temp_cache("relax-edit");
    let session = persistent(&path);

    // Depmap-level blame: the dirty set is nonempty and entirely `⊢r`.
    let old = ProgramDeps {
        hash: program_hash(&v1, &spec),
        goals: goal_deps(&staged(&session, &v1, &spec)),
    };
    let fresh = goal_deps(&staged(&session, &v2, &spec));
    let dirty = dirty_goals(&old, &fresh);
    assert!(!dirty.is_empty(), "the target edit must dirty some goal");
    for &i in &dirty {
        assert_ne!(
            fresh[i].stage,
            Stage::Original,
            "`⊢o` goal {} must not depend on the relax target list",
            fresh[i].name
        );
    }
    assert!(
        dirty.iter().any(|&i| fresh[i].stage == Stage::Relaxed),
        "the relaxed stage must see the havoc-set change"
    );

    // End-to-end: re-verifying the edit answers every `⊢o` goal from the
    // cache and re-proves in the relaxed stage only.
    let corpus_v1 = vec![("knob", v1, spec.clone())];
    let cold = session.check_corpus_named(&corpus_v1);
    assert!(cold.verified(), "v1 verifies");
    session.persist().unwrap();
    drop(session);

    let corpus_v2 = vec![("knob", v2, spec)];
    let warm_session = persistent(&path);
    let warm = warm_session.check_corpus_named(&corpus_v2);
    assert!(warm.verified(), "v2 still verifies");
    let report = warm.entries[0].outcome.as_ref().unwrap();
    assert!(
        report.original.results.iter().all(|r| r.cached),
        "every `⊢o` verdict must be reused"
    );
    assert!(
        report.relaxed.results.iter().any(|r| !r.cached),
        "the `⊢r` stage must re-prove the havoc-set change"
    );
    cleanup(&path);
}

/// A fingerprint change (here: a different solver budget) must discard
/// the sidecar along with the verdict store: replaying stored goal keys
/// against a differently-configured engine would certify verdicts the
/// session never proved. The re-verification is a full cold start.
#[test]
fn fingerprint_mismatch_discards_the_depmap_and_starts_cold() {
    let path = temp_cache("stale-fingerprint");
    let corpus = casestudies::corpus();

    let cold_session = persistent(&path);
    let cold = cold_session.check_corpus_named(&corpus);
    assert!(cold.engine.cache_misses > 0);
    cold_session.persist().unwrap();
    drop(cold_session);
    assert!(
        depmap_path(&path).exists(),
        "the sidecar must be persisted next to the store"
    );

    let other_budget = Verifier::builder()
        .workers(1)
        .corpus(CorpusPolicy::InProcess)
        .max_conflicts(Config::default().max_conflicts + 1)
        .cache_file(&path)
        .build();
    assert_eq!(other_budget.stats().loaded, 0, "store must not load");
    let warm = other_budget.check_corpus_named(&corpus);
    assert_eq!(warm.engine.disk_hits, 0, "no stale replay, ever");
    assert_eq!(
        warm.engine.cache_misses, cold.engine.cache_misses,
        "everything re-solved from scratch"
    );
    for (a, b) in warm.entries.iter().zip(&cold.entries) {
        assert_eq!(a.verified(), b.verified(), "{}", a.name);
    }
    cleanup(&path);
}

/// A corrupted (truncated mid-line) sidecar with a valid store must
/// degrade to per-goal cache hits — wrong replays are impossible, lost
/// verdicts are not.
#[test]
fn corrupt_depmap_lines_degrade_to_goal_level_hits() {
    let path = temp_cache("corrupt-sidecar");
    let corpus = casestudies::corpus();

    let cold_session = persistent(&path);
    let cold = cold_session.check_corpus_named(&corpus);
    cold_session.persist().unwrap();
    drop(cold_session);

    // Chop every program line of the sidecar in half (keep the header).
    let sidecar = depmap_path(&path);
    let text = std::fs::read_to_string(&sidecar).unwrap();
    let mut lines = text.lines();
    let mut mangled = lines.next().unwrap().to_string();
    mangled.push('\n');
    for line in lines {
        mangled.push_str(&line[..line.len() / 2]);
        mangled.push('\n');
    }
    std::fs::write(&sidecar, mangled).unwrap();

    let warm_session = persistent(&path);
    let warm = warm_session.check_corpus_named(&corpus);
    assert_eq!(
        warm.engine.cache_misses, 0,
        "verdicts still answered from the store"
    );
    assert!(warm.engine.disk_hits >= 1);
    for (a, b) in warm.entries.iter().zip(&cold.entries) {
        assert_eq!(a.verified(), b.verified(), "{}", a.name);
    }
    cleanup(&path);
}

/// A session dropped without `persist()` writes its sidecar even when
/// the store's directory does not exist yet: the sidecar is written
/// before the store, so its writer must create the directory too.
#[test]
fn dropped_session_writes_its_sidecar_into_a_new_directory() {
    let dir = temp_cache("new-dir").with_extension("");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("sub").join("verdicts.jsonl");
    let corpus = casestudies::corpus();

    let session = persistent(&path);
    let fingerprint = fingerprint(&session.config().discharge_config());
    session.check_corpus_named(&corpus);
    drop(session);

    let (map, warnings) = load(&depmap_path(&path), &fingerprint);
    assert!(warnings.is_empty(), "{warnings:?}");
    let stored: Vec<&str> = map.programs.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = corpus.iter().map(|(name, _, _)| *name).collect();
    expected.sort_unstable();
    assert_eq!(stored, expected, "every program's record reached disk");
    let _ = std::fs::remove_dir_all(&dir);
}
