//! Edge-case tests for the per-program revision records
//! (`relaxed_core::depmap`) driving incremental re-verification: edits
//! that must *not* force re-proofs (corpus reorders), edits whose blast
//! radius is stage-bounded (a `relax` target-list edit invalidates `⊢r`
//! goals but no `⊢o` goal), and staleness guards (a fingerprint change
//! must discard the sidecar — a stale map must never drive a replay).
//!
//! The end-to-end edit→re-verify scenario these pin down is the CI
//! `edit-reverify` job (`verify_corpus --edit-reverify`); the rows are
//! documented in `tests/README.md`.

use relaxed_programs::core::cache::{fingerprint, json_string};
use relaxed_programs::core::depmap::{
    depmap_path, dirty_goals, goal_deps, load, program_hash, ProgramDeps, DEPMAP_FORMAT,
};
use relaxed_programs::core::vcgen::Vc;
use relaxed_programs::lang::{parse_formula, parse_program, parse_rel_formula, Program};
use relaxed_programs::{casestudies, Config, CorpusPolicy, CorpusReport, Spec, Stage, Verifier};
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

/// Removes a store and its sidecar. Drop the sessions on `path` first:
/// a live session's drop flush would write both files again.
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

/// Two persistent sessions on one store each flush the programs they
/// recorded: the second flush appends under the first one's header, so
/// the sidecar keeps both halves of the corpus and a third session
/// replays all of it.
#[test]
fn two_persisting_sessions_keep_each_others_revisions() {
    let path = temp_cache("two-sessions");
    let corpus = casestudies::corpus();
    let (first, second) = corpus.split_at(3);
    let a = persistent(&path);
    let b = persistent(&path);
    a.check_corpus_named(first);
    b.check_corpus_named(second);
    a.persist().unwrap();
    b.persist().unwrap();
    drop(a);
    drop(b);
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
    drop(warm_session);
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
    drop(other_budget);
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
    drop(warm_session);
    cleanup(&path);
}

/// A session dropped without `persist()` writes its sidecar even when
/// the store's directory does not exist yet: the one writer of both
/// files creates the directory.
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

/// The printed form of `spec`, parsed back: what a fleet worker reads
/// from a job frame.
fn reparsed(spec: &Spec) -> Spec {
    Spec {
        pre: parse_formula(&spec.pre.to_string()).unwrap(),
        post: parse_formula(&spec.post.to_string()).unwrap(),
        rel_pre: parse_rel_formula(&spec.rel_pre.to_string()).unwrap(),
        rel_post: parse_rel_formula(&spec.rel_post.to_string()).unwrap(),
    }
}

/// A fleet worker hashes the parse of the printed program and spec its
/// job frame carries, so it replays a client's record only if the
/// revision hash survives printing and parsing: for each case study,
/// under its own spec, its `Spec::synced` spec, and a one-conjunct edit
/// of its precondition.
#[test]
fn revision_hash_survives_printing_and_parsing() {
    for (name, program, spec) in casestudies::corpus() {
        let synced = Spec::synced(&program);
        let mut edited = spec.clone();
        edited.pre = parse_formula(&format!("({}) && edit_1 >= 0", spec.pre)).unwrap();
        let wire_program = parse_program(&program.to_string()).unwrap();
        for spec in [spec, synced, edited] {
            assert_eq!(
                program_hash(&wire_program, &reparsed(&spec)),
                program_hash(&program, &spec),
                "{name} under {spec:?}"
            );
        }
    }
}

/// The revision hash covers which formula a conjunct sits in, not only
/// the conjuncts: each edit below changes it.
#[test]
fn revision_hash_separates_what_it_covers() {
    let source = "x = n; relax (x) st (0 <= x && x <= 2); relate l1 : x<o> <= x<r> + 2;";
    let spec = |pre: &str, post: &str, rel_pre: &str, rel_post: &str| Spec {
        pre: parse_formula(pre).unwrap(),
        post: parse_formula(post).unwrap(),
        rel_pre: parse_rel_formula(rel_pre).unwrap(),
        rel_post: parse_rel_formula(rel_post).unwrap(),
    };
    let program = parse_program(source).unwrap();
    let base = spec(
        "n >= 0 && m >= 0",
        "x >= 0",
        "n<o> == n<r> && m<o> == m<r>",
        "x<o> <= x<r> + 2",
    );
    let renamed = parse_program(&source.replace('n', "k")).unwrap();
    let edits = [
        (
            "a conjunct moved from pre to post",
            program.clone(),
            spec(
                "n >= 0",
                "m >= 0 && x >= 0",
                "n<o> == n<r> && m<o> == m<r>",
                "x<o> <= x<r> + 2",
            ),
        ),
        (
            "a conjunct moved from rel_pre to rel_post",
            program.clone(),
            spec(
                "n >= 0 && m >= 0",
                "x >= 0",
                "n<o> == n<r>",
                "m<o> == m<r> && x<o> <= x<r> + 2",
            ),
        ),
        (
            "pre and post swapped",
            program.clone(),
            spec(
                "x >= 0",
                "n >= 0 && m >= 0",
                "n<o> == n<r> && m<o> == m<r>",
                "x<o> <= x<r> + 2",
            ),
        ),
        (
            "a variable renamed",
            renamed,
            spec(
                "k >= 0 && m >= 0",
                "x >= 0",
                "k<o> == k<r> && m<o> == m<r>",
                "x<o> <= x<r> + 2",
            ),
        ),
        (
            "a constant changed",
            parse_program(&source.replace("x <= 2", "x <= 3")).unwrap(),
            base.clone(),
        ),
    ];
    let hash = program_hash(&program, &base);
    for (edit, program, spec) in edits {
        assert_ne!(program_hash(&program, &spec), hash, "{edit}");
    }
}

/// Each program's per-entry engine statistics, in corpus order.
fn entry_engines(report: &CorpusReport) -> Vec<relaxed_programs::core::EngineStats> {
    report
        .entries
        .iter()
        .map(|entry| entry.outcome.as_ref().expect("a staged report").engine)
        .collect()
}

/// One sidecar record in the shape the previous format wrote: each goal
/// also carries a `deps` array of fragment ids.
fn previous_format_record(name: &str, record: &ProgramDeps) -> String {
    let goals: Vec<String> = record
        .goals
        .iter()
        .map(|goal| {
            format!(
                "{{\"stage\":\"{}\",\"name\":{},\"context\":{},\"key\":{},\"deps\":[\"stmt:09ec2fd6beffb728\"]}}",
                goal.stage.name(),
                json_string(&goal.name),
                json_string(&goal.context),
                json_string(goal.key.as_str())
            )
        })
        .collect();
    format!(
        "{{\"program\":{},\"hash\":{},\"goals\":[{}]}}\n",
        json_string(name),
        json_string(&record.hash),
        goals.join(",")
    )
}

/// A sidecar of the previous format, whose records also carry fragment
/// ids, means nothing to this build: a session on it and a warm store
/// starts the sidecar cold once, answers every goal from the store, and
/// its flush rewrites the sidecar whole.
#[test]
fn a_previous_format_sidecar_starts_cold_once_beside_a_warm_store() {
    let path = temp_cache("previous-format");
    let corpus = casestudies::corpus();
    let seeder = persistent(&path);
    let fingerprint = fingerprint(&seeder.config().discharge_config());
    seeder.check_corpus_named(&corpus);
    seeder.persist().unwrap();
    drop(seeder);

    // The sidecar a previous-format session writes. Its records keep this
    // build's revision hashes and goal keys, so they would replay if the
    // header passed.
    let sidecar = depmap_path(&path);
    let current = std::fs::read_to_string(&sidecar).unwrap();
    let (stored, warnings) = load(&sidecar, &fingerprint);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(stored.programs.len(), corpus.len());
    let mut previous = format!(
        "{{\"format\":{},\"kind\":\"depmap\",\"fingerprint\":{}}}\n",
        DEPMAP_FORMAT - 1,
        json_string(&fingerprint)
    );
    for (name, record) in &stored.programs {
        previous.push_str(&previous_format_record(name, record));
    }
    std::fs::write(&sidecar, &previous).unwrap();

    // The session prints exactly the warnings its sidecar load returns.
    let (map, warnings) = load(&sidecar, &fingerprint);
    assert!(map.programs.is_empty());
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].ends_with("starting cold"), "{warnings:?}");
    let upgraded = persistent(&path);
    assert!(
        upgraded.cache_warnings().is_empty(),
        "{:?}",
        upgraded.cache_warnings()
    );
    let report = upgraded.check_corpus_named(&corpus);
    assert_eq!(report.engine.cache_misses, 0, "{:?}", report.engine);
    assert_eq!(report.engine.disk_hits, 38, "{:?}", report.engine);
    for (engine, (name, _, _)) in entry_engines(&report).iter().zip(&corpus) {
        assert!(engine.elapsed_vcgen_us > 0, "{name} runs live: {engine:?}");
    }
    upgraded.persist().unwrap();
    drop(upgraded);
    assert_eq!(
        std::fs::read_to_string(&sidecar).unwrap(),
        current,
        "the flush rewrites the whole sidecar under format {DEPMAP_FORMAT}"
    );

    let next = persistent(&path);
    let report = next.check_corpus_named(&corpus);
    for (engine, (name, _, _)) in entry_engines(&report).iter().zip(&corpus) {
        assert_eq!(engine.elapsed_vcgen_us, 0, "{name} replays: {engine:?}");
    }
    assert!(load(&sidecar, &fingerprint).1.is_empty());
    drop(next);
    cleanup(&path);
}
