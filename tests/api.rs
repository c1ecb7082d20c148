//! Integration tests for the unified `Verifier` session API: typed
//! configuration precedence (builder > env > default), environment-layer
//! parse diagnostics, stage selection, corpus-scale batch verification
//! with cross-program cache reuse, and the offline JSON rendering.

use relaxed_programs::core::cache::{parse_json, Json};
use relaxed_programs::core::engine::DischargeConfig;
use relaxed_programs::{
    casestudies, CachePolicy, Config, CorpusPolicy, Spec, Stage, StageSet, Verifier,
};

// ---- typed configuration ----

#[test]
fn config_defaults_match_engine_defaults() {
    let config = Config::default();
    assert_eq!(config.discharge_config(), DischargeConfig::default());
    assert_eq!(config.cache, CachePolicy::Shared);
    assert!(config.stages.contains(Stage::Original));
    assert!(config.stages.contains(Stage::Relaxed));
    assert!(!config.stages.contains(Stage::Intermediate));
}

/// Builder > env > default, exercised over an injected variable source
/// so the test is deterministic regardless of the process environment.
#[test]
fn builder_beats_env_beats_default() {
    let lookup = |name: &str| match name {
        "DISCHARGE_WORKERS" => Some("7".to_string()),
        "DISCHARGE_CONFLICTS" => Some("1234".to_string()),
        _ => None,
    };
    let (env_config, warnings) = Config::from_lookup(lookup);
    assert!(warnings.is_empty());
    // env > default:
    assert_eq!(env_config.workers, 7);
    assert_eq!(env_config.max_conflicts, 1234);
    assert_eq!(
        env_config.branch_budget,
        Config::default().branch_budget,
        "unset variables keep defaults"
    );
    // builder > env:
    let verifier = Verifier::builder().config(env_config).workers(2).build();
    assert_eq!(verifier.config().workers, 2);
    assert_eq!(verifier.config().max_conflicts, 1234);
    assert_eq!(verifier.engine().config().max_conflicts, 1234);
}

// The real process environment is deliberately not mutated here:
// `std::env::set_var` races with the `std::env::var` reads other tests
// in this binary perform through `Verifier::from_env`. The env layer's
// parsing is covered via `Config::from_lookup`, and the real-env path is
// exercised end to end by the CI leg that runs the whole suite under
// `DISCHARGE_WORKERS=1`.

/// Malformed variables keep their defaults and are reported — one
/// warning per bad variable, none for well-formed ones.
#[test]
fn from_env_warns_on_malformed_values() {
    let (config, warnings) = Config::from_lookup(|name| match name {
        "DISCHARGE_WORKERS" => Some("abc".to_string()),
        "DISCHARGE_CONFLICTS" => Some(" 4096 ".to_string()),
        "DISCHARGE_BRANCH_BUDGET" => Some("-3".to_string()),
        _ => None,
    });
    assert_eq!(config.workers, Config::default().workers);
    assert_eq!(config.max_conflicts, 4096, "whitespace is trimmed");
    assert_eq!(config.branch_budget, Config::default().branch_budget);
    let vars: Vec<&str> = warnings.iter().map(|w| w.var).collect();
    assert_eq!(vars, ["DISCHARGE_WORKERS", "DISCHARGE_BRANCH_BUDGET"]);
    assert!(warnings[0].to_string().contains("abc"));
}

/// The sharding and cache knobs ride the same env layer:
/// `DISCHARGE_SHARDS` selects the corpus policy (0 = in-process),
/// `DISCHARGE_CACHE` selects the persistent store, and `RELAXED_SHARDD`
/// pins the worker binary.
#[test]
fn shard_and_cache_knobs_parse_from_the_env() {
    let (config, warnings) = Config::from_lookup(|name| match name {
        "DISCHARGE_SHARDS" => Some("3".to_string()),
        "DISCHARGE_CACHE" => Some(" corpus.verdicts.jsonl ".to_string()),
        "RELAXED_SHARDD" => Some("/opt/bin/relaxed-shardd".to_string()),
        _ => None,
    });
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(config.corpus, CorpusPolicy::Sharded { shards: 3 });
    assert_eq!(
        config.cache,
        CachePolicy::Persistent {
            path: "corpus.verdicts.jsonl".into()
        }
    );
    assert_eq!(
        config.shard_worker.as_deref(),
        Some(std::path::Path::new("/opt/bin/relaxed-shardd"))
    );

    let (config, warnings) =
        Config::from_lookup(|name| (name == "DISCHARGE_SHARDS").then(|| "0".to_string()));
    assert!(warnings.is_empty());
    assert_eq!(config.corpus, CorpusPolicy::InProcess);

    let (config, warnings) = Config::from_lookup(|name| match name {
        "DISCHARGE_SHARDS" => Some("many".to_string()),
        "RELAXED_SHARDD" => Some("  ".to_string()),
        _ => None,
    });
    assert_eq!(
        config.corpus,
        CorpusPolicy::InProcess,
        "malformed keeps default"
    );
    assert_eq!(config.shard_worker, None);
    let vars: Vec<&str> = warnings.iter().map(|w| w.var).collect();
    assert_eq!(vars, ["DISCHARGE_SHARDS", "RELAXED_SHARDD"]);

    // Builder precedence holds for the new fields too.
    let verifier = Verifier::builder()
        .config(Config {
            corpus: CorpusPolicy::Sharded { shards: 9 },
            ..Config::default()
        })
        .shards(2)
        .build();
    assert_eq!(
        verifier.config().corpus,
        CorpusPolicy::Sharded { shards: 2 }
    );
}

/// The service knob rides the same env layer: `RELAXED_SERVICE` selects
/// `CorpusPolicy::Service`, winning over `DISCHARGE_SHARDS` when both
/// are set.
#[test]
fn service_and_timeout_knobs_parse_from_the_env() {
    let (config, warnings) = Config::from_lookup(|name| match name {
        "RELAXED_SERVICE" => Some(" 127.0.0.1:7459 ".to_string()),
        "DISCHARGE_SHARDS" => Some("3".to_string()),
        _ => None,
    });
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(
        config.corpus,
        CorpusPolicy::Service {
            addr: "127.0.0.1:7459".to_string()
        },
        "the service address wins over the shard count and is trimmed"
    );

    // A malformed value keeps its default and is reported.
    let (config, warnings) =
        Config::from_lookup(|name| (name == "RELAXED_SERVICE").then(|| "  ".to_string()));
    assert_eq!(config.corpus, CorpusPolicy::InProcess);
    let vars: Vec<&str> = warnings.iter().map(|w| w.var).collect();
    assert_eq!(vars, ["RELAXED_SERVICE"]);

    // Builder precedence holds: `.service(addr)` overrides whatever the
    // config layer chose.
    let verifier = Verifier::builder().shards(4).service("10.0.0.1:80").build();
    assert_eq!(
        verifier.config().corpus,
        CorpusPolicy::Service {
            addr: "10.0.0.1:80".to_string()
        }
    );
}

// ---- stage selection ----

#[test]
fn stage_selection_controls_the_pipeline() {
    let (program, spec) = casestudies::swish();
    let original_only = Verifier::builder()
        .stages(StageSet::only(Stage::Original))
        .build();
    let report = original_only.check(&program, &spec).unwrap();
    assert!(!report.original.is_empty());
    assert!(report.relaxed.is_empty());
    assert!(report.intermediate.is_none());
    assert!(report.verified(), "the ran stage proved its obligations");
    assert_eq!(report.combined().len(), report.original.len());
    // Soundness of the theorem-level accessors: a skipped ⊢r stage is
    // never reported as Relaxed Progress, even for a program whose
    // relational stage would in fact fail.
    assert!(!report.relaxed_progress());
    let (broken, broken_spec) = casestudies::swish_broken();
    let unsound_if_vacuous = original_only.check(&broken, &broken_spec).unwrap();
    assert!(
        unsound_if_vacuous.verified(),
        "⊢o alone passes for swish_broken"
    );
    assert!(
        !unsound_if_vacuous.relaxed_progress(),
        "Theorem 8 was not proved"
    );
    let json = original_only
        .check_corpus(&[(broken.clone(), broken_spec.clone())])
        .to_json();
    assert!(!json.contains("relaxed_verified"), "{json}");
    assert!(json.contains("\"stages\": [\"original\"]"), "{json}");
    // A standalone ⊢i stage rejects programs with relate statements.
    assert!(Verifier::new()
        .stage(Stage::Intermediate)
        .check(&program, &spec)
        .is_err());
}

// ---- corpus-scale batch verification ----

/// The same case study twice in one corpus: the second copy is answered
/// from the first copy's verdicts — cross-program cache hits > 0.
#[test]
fn corpus_hits_cache_across_programs() {
    let (program, spec) = casestudies::swish();
    let corpus = vec![
        (program.clone(), spec.clone()),
        (program.clone(), spec.clone()),
    ];
    // workers(1): sequential corpus order makes the cache statistics
    // deterministic (on a multi-core host, concurrently checked
    // duplicates may each solve a shared goal before the other
    // publishes it).
    let verifier = Verifier::builder().workers(1).build();
    let report = verifier.check_corpus(&corpus);
    assert_eq!(report.len(), 2);
    assert!(report.verified());
    assert!(
        report.cross_program_hits() > 0,
        "duplicate programs must share verdicts: {:?}",
        report.engine
    );
    let second = report.entries[1].outcome.as_ref().unwrap();
    assert_eq!(second.engine.cache_misses, 0, "fully served by program_0");
}

/// Re-verifying a corpus on a warm session is answered entirely from
/// cache, and — because owner tags are session-unique — every hit counts
/// as cross-program reuse. Unlike the cold-cache statistics, this is
/// deterministic under any corpus fan-out, so it runs with the default
/// (auto) worker count.
#[test]
fn corpus_warm_rerun_is_all_cross_hits() {
    let corpus = casestudies::corpus();
    let verifier = Verifier::new();
    let cold = verifier.check_corpus_named(&corpus);
    let warm = verifier.check_corpus_named(&corpus);
    assert_eq!(warm.engine.cache_misses, 0, "fully warm");
    assert!(warm.engine.cache_hits > 0);
    assert_eq!(
        warm.cross_program_hits(),
        warm.engine.cache_hits,
        "every warm verdict was inserted by a different (cold) owner"
    );
    // Verdicts are scheduling-independent: cold and warm agree.
    for (a, b) in cold.entries.iter().zip(&warm.entries) {
        assert_eq!(a.verified(), b.verified(), "{}", a.name);
    }
}

/// A per-program `VcgenError` is recorded without aborting the corpus.
#[test]
fn corpus_records_errors_per_program() {
    let unannotated = relaxed_programs::lang::parse_program(
        "relax (x) st (x == 0);
         while (x < 10) { x = x + 1; }",
    )
    .unwrap();
    let (good, good_spec) = casestudies::lu();
    let corpus = vec![
        (unannotated.clone(), Spec::synced(&unannotated)),
        (good, good_spec),
    ];
    let report = Verifier::new().check_corpus(&corpus);
    assert_eq!(report.len(), 2);
    assert!(report.entries[0].outcome.is_err());
    assert!(!report.entries[0].verified());
    assert!(report.entries[1].verified());
    let json = report.to_json();
    assert!(json.contains("\"status\": \"error\""), "{json}");
    assert!(json.contains("\"status\": \"verified\""), "{json}");
}

/// The full six-program corpus: paper case studies verify, mutations
/// fail, verdicts are reused across programs, and the aggregate JSON is
/// well-formed enough for a service to consume.
#[test]
fn case_study_corpus_end_to_end() {
    let corpus = casestudies::corpus();
    // workers(1) keeps the cross-program hit count deterministic; the
    // parallel schedule is covered by `corpus_warm_rerun_is_all_cross_hits`
    // and the `check_corpus` bench.
    let verifier = Verifier::builder().workers(1).build();
    let report = verifier.check_corpus_named(&corpus);
    assert_eq!(report.len(), 6);
    for entry in &report.entries {
        assert_eq!(
            entry.verified(),
            !entry.name.ends_with("_broken"),
            "{}",
            entry.name
        );
    }
    assert!(!report.verified(), "the broken half must fail");
    assert!(report.cross_program_hits() > 0);
    // Session stats cover the whole corpus run.
    let stats = verifier.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        report.engine.cache_hits + report.engine.cache_misses
    );
    let json = report.to_json();
    assert!(json.contains("\"name\": \"swish\""), "{json}");
    assert!(json.contains("\"cross_program_hits\""), "{json}");
    assert!(json.contains("\"disk_hits\": 0"), "{json}");
    assert!(json.contains("\"aggregate\""), "{json}");
    assert_eq!(json.matches("\"status\"").count(), 6);
    // Per-program and aggregate wall time ride the JSON, so sharded vs
    // in-process speedups are measurable from reports alone.
    assert_eq!(json.matches("\"elapsed_ms\"").count(), 7);
    assert!(json.ends_with("}\n"));
}

/// The corpus JSON's phase clocks count microseconds: a cold run's vcgen
/// and encode phases take well under a millisecond per program, so only
/// microsecond clocks show them.
#[test]
fn cold_corpus_phase_clocks_count_microseconds() {
    let report = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&casestudies::corpus());
    let json = report.to_json();
    let aggregate = &json[json.find("\"aggregate\"").expect("an aggregate")..];
    let phase = &aggregate[aggregate.find("\"phase_us\": ").expect("phase_us") + 12..];
    let phase = parse_json(&phase[..=phase.find('}').unwrap()]).expect("an object");
    let phase = phase.as_object().unwrap();
    for (key, us) in [
        ("vcgen", report.engine.elapsed_vcgen_us),
        ("encode", report.engine.elapsed_encode_us),
        ("solve", report.engine.elapsed_solve_us),
        ("cache", report.engine.elapsed_cache_us),
    ] {
        let printed = match phase.iter().find(|(k, _)| k == key) {
            Some((_, Json::Int(n))) => *n,
            other => panic!("`{key}` is {other:?}"),
        };
        assert_eq!(u64::try_from(printed), Ok(us), "{key}");
    }
    assert!(report.engine.elapsed_vcgen_us > 0, "{:?}", report.engine);
    assert!(report.engine.elapsed_encode_us > 0, "{:?}", report.engine);
}
