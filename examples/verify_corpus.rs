//! Corpus-scale batch verification: every §5 case study (and its
//! mutated must-fail variant) checked in one `Verifier::check_corpus`
//! call, fanned across the session's worker pool with the
//! structural-hash verdict cache shared *across programs*.
//!
//! Prints the `CorpusReport` JSON rendering — the shape a verification
//! service or CI gate would consume.
//!
//! Run with: `cargo run --example verify_corpus`
//!
//! With `DISCHARGE_CACHE=<path>` the session persists its verdict cache
//! to disk and reloads it on the next run, so a rerun discharges
//! previously-proved goals with zero solver invocations. The final
//! `persistent cache: loaded=.. disk_hits=.. persisted=..` line is the
//! machine-readable warm/cold signal the CI `cache-persistence` job
//! gates on.
//!
//! With `--service <addr>` (or `RELAXED_SERVICE=<addr>`) the corpus is
//! submitted to a running `relaxed-serviced` daemon from **two
//! concurrent client threads**, each asserted verdict-identical to the
//! in-process baseline — the CI `service-corpus` job's equivalence gate.
//! The final `service: clients=.. disk_hits=.. solver_runs=..
//! cross_program_hits=..` line is its machine-readable signal. Under
//! `DISCHARGE_CACHE` the baseline persists first, so the fleet must
//! answer with `solver_runs=0` and cross-client disk hits, and replay
//! every program from the sidecar the baseline wrote
//! (`cross_program_hits=0`).
//!
//! With `--trace <out.json>` the in-process run records telemetry spans
//! and writes a Chrome trace-event file (load it in Perfetto /
//! `about://tracing`), then validates it with the crate's own JSON
//! parser and prints the machine-readable
//! `trace: path=.. events=.. solve_spans=..` line the CI `trace-smoke`
//! job gates on. `--slow <N>` additionally prints the N slowest solve
//! spans as a goal table.
//!
//! With `--edit-reverify` the example becomes the goal-dependency-map
//! gate: verify the corpus cold into a scratch persistent store, patch
//! one case-study spec, re-verify, and assert the solver ran **exactly
//! once per goal the edit dirtied** — with an untouched sibling program
//! replayed from the store without any solver work, and every untouched
//! program replayed from the dependency map without vcgen or encoding —
//! before checking the incremental report verdict-identical to a full
//! in-process run.
//! The final `edit-reverify: ..` line is the CI `edit-reverify` job's
//! machine-readable signal.

use relaxed_programs::core::depmap::depmap_path;
use relaxed_programs::{casestudies, CachePolicy, CorpusPolicy, Verifier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|arg| arg == "--edit-reverify") {
        return edit_reverify_main();
    }
    let service_flag = args.iter().position(|arg| arg == "--service");
    let trace_path = args
        .iter()
        .position(|arg| arg == "--trace")
        .map(|at| match args.get(at + 1) {
            Some(path) => Ok(path.clone()),
            None => Err("--trace needs an output file path"),
        })
        .transpose()?;
    let slow_n: usize = args
        .iter()
        .position(|arg| arg == "--slow")
        .map(|at| match args.get(at + 1).map(|raw| raw.parse()) {
            Some(Ok(n)) => Ok(n),
            _ => Err("--slow needs an unsigned integer"),
        })
        .transpose()?
        .unwrap_or(0);
    let verifier = {
        // `Verifier::from_env()` plus the trace flag (which wins over
        // `DISCHARGE_TRACE`).
        let mut builder = Verifier::builder().env();
        if let Some(path) = &trace_path {
            builder = builder.trace_file(path);
        }
        builder.build()
    };
    for warning in verifier.env_warnings() {
        eprintln!("verify_corpus: {warning}");
    }
    for warning in verifier.cache_warnings() {
        eprintln!("verify_corpus: {warning}");
    }
    if service_flag.is_some() || matches!(verifier.config().corpus, CorpusPolicy::Service { .. }) {
        // `--service <addr>` wins over the env knob.
        let addr = match service_flag.and_then(|at| args.get(at + 1).cloned()) {
            Some(addr) => addr,
            None => match &verifier.config().corpus {
                CorpusPolicy::Service { addr } => addr.clone(),
                _ => {
                    return Err("--service needs an address (or set RELAXED_SERVICE)".into());
                }
            },
        };
        drop(verifier);
        return service_main(addr);
    }

    let corpus = casestudies::corpus();
    let started = std::time::Instant::now();
    let report = verifier.check_corpus_named(&corpus);
    let elapsed = started.elapsed();

    println!("{report}");
    println!("{}", report.to_json());
    println!(
        "verified {} programs in {elapsed:.1?} on {} workers",
        report.len(),
        report.engine.workers
    );

    // The three paper case studies verify; their mutations must not.
    for entry in &report.entries {
        let expected = !entry.name.ends_with("_broken");
        assert_eq!(
            entry.verified(),
            expected,
            "{}: expected verified={expected}",
            entry.name
        );
    }
    // The corpus-scale payoff: programs share verdicts through the
    // session cache (each broken variant re-proves most of its
    // counterpart's obligations). With concurrent fan-out the cold-cache
    // hit count is scheduling-dependent, so the deterministic assertion
    // is on a warm revalidation pass: every verdict is reused, and all
    // reuse crosses program (owner) boundaries.
    println!(
        "cold pass: {} of {} verdicts reused across programs",
        report.cross_program_hits(),
        report.engine.cache_hits + report.engine.cache_misses
    );
    let warm = verifier.check_corpus_named(&corpus);
    assert_eq!(warm.engine.cache_misses, 0, "warm pass must not re-solve");
    if std::env::var_os("DISCHARGE_CACHE").is_some() {
        // Under a persistent store the goal dependency map replays whole
        // unchanged programs without regenerating their VCs, so reuse
        // surfaces as per-goal replay hits rather than cross-program
        // hits (the `--edit-reverify` mode gates that path precisely).
        assert!(
            warm.engine.cache_hits > 0,
            "expected replayed verdicts, got stats {:?}",
            warm.engine
        );
        println!(
            "warm revalidation: {} verdicts replayed through the goal dependency map",
            warm.engine.cache_hits
        );
    } else {
        assert!(
            warm.cross_program_hits() > 0,
            "expected cross-program cache hits, got stats {:?}",
            warm.engine
        );
        println!(
            "warm revalidation: {} verdicts, all served across programs from the session cache",
            warm.engine.cache_hits
        );
    }

    // With DISCHARGE_CACHE set, the session cache outlives the process:
    // report the disk-level numbers (and flush explicitly so an I/O
    // error fails the run instead of being swallowed by the drop path).
    if std::env::var_os("DISCHARGE_CACHE").is_some() {
        let persisted = verifier.persist()?;
        let stats = verifier.stats();
        // No hard assert on loaded ⇒ disk hits here: a store restored
        // from an older revision can be fingerprint-compatible yet keyed
        // by goals a VC-generation change renamed, which is a legitimate
        // cold start. CI's warm leg — same binary, same store — gates on
        // this line instead (see the cache-persistence job).
        println!(
            "persistent cache: loaded={} disk_hits={} persisted={persisted}",
            stats.loaded, stats.disk_hits
        );
    }

    if trace_path.is_some() {
        // A cold run must have produced at least one real solve span; a
        // store-warmed run legitimately answers everything from cache.
        let expect_solves = report.engine.cache_misses > 0;
        report_trace(expect_solves, slow_n)?;
    }
    Ok(())
}

/// Flushes the session's telemetry to its trace file, validates the
/// trace with the crate's own JSON parser (the file is Chrome
/// trace-event JSON restricted to integers and strings for exactly this
/// reason), prints the machine-readable `trace:` line, and — with
/// `--slow N` — the N slowest solve spans.
fn report_trace(expect_solves: bool, slow_n: usize) -> Result<(), Box<dyn std::error::Error>> {
    use relaxed_programs::core::cache::{parse_json, Json};
    use relaxed_programs::core::telemetry;

    let path = telemetry::flush()?.ok_or("--trace was given but no trace file is configured")?;
    let text = std::fs::read_to_string(&path)?;
    let record = parse_json(&text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let fields = record
        .as_object()
        .map_err(|e| format!("trace is not a JSON object: {e}"))?;
    let events = fields
        .iter()
        .find(|(key, _)| key == "traceEvents")
        .ok_or("trace has no traceEvents array")?
        .1
        .as_array()
        .map_err(|e| format!("traceEvents is not an array: {e}"))?;
    let field = |item: &[(String, Json)], key: &str| -> Option<String> {
        item.iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
    };
    let mut spans = 0usize;
    let mut solve_spans = 0usize;
    for item in events {
        let item = item
            .as_object()
            .map_err(|e| format!("trace event is not an object: {e}"))?;
        if field(item, "ph").as_deref() != Some("X") {
            continue; // metadata records (process/thread names)
        }
        spans += 1;
        if field(item, "name").as_deref() == Some("solve") {
            solve_spans += 1;
        }
    }
    if expect_solves {
        assert!(
            solve_spans >= 1,
            "a cold traced run must record at least one solve span"
        );
    }
    // The machine-readable line the CI trace-smoke job gates on.
    println!(
        "trace: path={} events={spans} solve_spans={solve_spans}",
        path.display()
    );

    if slow_n > 0 {
        let mut solves: Vec<telemetry::Event> = telemetry::snapshot()
            .into_iter()
            .filter(|event| event.name == "solve")
            .collect();
        solves.sort_by_key(|span| std::cmp::Reverse(span.dur_us));
        println!("slowest goals:");
        println!("{:>12}  {:>4}  goal", "solve_ms", "lane");
        for event in solves.iter().take(slow_n) {
            let goal = event
                .args
                .iter()
                .find_map(|(key, value)| match (key.as_ref(), value) {
                    ("goal", telemetry::ArgValue::Str(s)) => Some(s.as_str()),
                    _ => None,
                })
                .unwrap_or("<unlabelled>");
            println!(
                "{:>12.3}  {:>4}  {goal}",
                event.dur_us as f64 / 1e3,
                event.tid
            );
        }
    }
    Ok(())
}

/// The service mode (`--service <addr>` / `RELAXED_SERVICE`): verify the
/// corpus in-process first (the baseline, which also seeds the persistent
/// store when `DISCHARGE_CACHE` is set), then submit it to the running
/// `relaxed-serviced` daemon from two concurrent client threads, and
/// assert every client report verdict-identical to the baseline — the CI
/// `service-corpus` equivalence gate.
fn service_main(addr: String) -> Result<(), Box<dyn std::error::Error>> {
    const CLIENTS: usize = 2;
    let corpus = casestudies::corpus();

    // In-process baseline under the same budgets and cache policy.
    let baseline_session = Verifier::builder()
        .env()
        .corpus(CorpusPolicy::InProcess)
        .build();
    let baseline = baseline_session.check_corpus_named(&corpus);
    let persistent = matches!(
        baseline_session.config().cache,
        CachePolicy::Persistent { .. }
    );
    if persistent {
        // Flush before the clients submit, so the daemon's fleet can
        // answer every verdict from the shared store, and replay every
        // program from its sidecar — the deterministic guarantees
        // asserted below.
        baseline_session.persist()?;
    }

    let started = std::time::Instant::now();
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let corpus = &corpus;
                scope.spawn(move || {
                    // An in-memory client: one on the persistent store
                    // would replay the baseline's depmap locally and never
                    // contact the daemon, whose fleet reads that store
                    // itself.
                    let session = Verifier::builder()
                        .env()
                        .service(addr)
                        .cache(CachePolicy::Shared)
                        .build();
                    session.check_corpus_named(corpus)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("service client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let report = &reports[0];
    println!("{report}");
    println!("{}", report.to_json());
    let requests = (CLIENTS * corpus.len()) as f64;
    println!(
        "service: {} programs x {CLIENTS} concurrent clients against {addr} \
         (fleet={}) in {elapsed:.1?} ({:.1} requests/sec; in-process baseline {}ms)",
        corpus.len(),
        report.engine.workers,
        requests / elapsed.as_secs_f64(),
        baseline.elapsed_ms,
    );

    // The equivalence gate: every concurrent client must agree with the
    // in-process baseline, verdict for verdict.
    for (client, report) in reports.iter().enumerate() {
        report.verdicts_match(&baseline).unwrap_or_else(|e| {
            panic!("client {client} must be verdict-identical to the in-process baseline: {e}")
        });
    }
    println!("all {CLIENTS} client reports are verdict-identical to the in-process baseline");

    let disk_hits: u64 = reports.iter().map(|r| r.engine.disk_hits).sum();
    let solver_runs: u64 = reports.iter().map(|r| r.engine.cache_misses).sum();
    let cross_program_hits: u64 = reports.iter().map(|r| r.cross_program_hits()).sum();
    if persistent {
        assert_eq!(
            solver_runs, 0,
            "with a pre-seeded store the service fleet must not re-solve"
        );
        assert!(
            disk_hits >= 1,
            "the fleet must serve the baseline's verdicts across clients: {:?}",
            report.engine
        );
        // A program a worker runs live answers its goals from the store
        // as cross-program hits; one it replays from the sidecar the
        // baseline just wrote counts none.
        for (client, report) in reports.iter().enumerate() {
            assert_eq!(
                report.cross_program_hits(),
                0,
                "client {client}: every program must replay on the fleet: {:?}",
                report.engine
            );
        }
    }
    // The machine-readable line the CI service-corpus job gates on.
    println!(
        "service: clients={CLIENTS} disk_hits={disk_hits} solver_runs={solver_runs} \
         cross_program_hits={cross_program_hits}"
    );
    Ok(())
}

/// The edit→re-verify mode (`--edit-reverify`): the CI gate for the goal
/// dependency map. Always runs against its own scratch store (ignoring
/// `DISCHARGE_CACHE`) so reruns start from a known-cold state.
fn edit_reverify_main() -> Result<(), Box<dyn std::error::Error>> {
    use relaxed_programs::core::depmap::{dirty_goals, goal_deps, program_hash, ProgramDeps};
    use relaxed_programs::core::vcgen::Vc;
    use relaxed_programs::core::EngineStats;
    use relaxed_programs::lang::{parse_formula, Program};
    use relaxed_programs::{CorpusReport, Spec, Stage};

    // A scratch persistent store (the depmap is its sidecar). Recreated
    // from scratch on every run: the assertions below count the solver
    // work of one specific edit, so a store warmed by a *previous*
    // edit-reverify run would make them vacuous.
    let dir = std::env::temp_dir().join(format!("edit-reverify-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let cache_path = dir.join("corpus.verdicts.jsonl");
    let session = || {
        Verifier::builder()
            .env()
            .corpus(CorpusPolicy::InProcess)
            .cache_file(&cache_path)
            .build()
    };

    // Cold pass: prove the whole corpus, persist verdicts + depmap.
    let corpus = casestudies::corpus();
    let cold_session = session();
    let cold = cold_session.check_corpus_named(&corpus);
    cold_session.persist()?;
    println!(
        "cold pass: {} programs, {} solver runs in {}ms",
        cold.len(),
        cold.engine.cache_misses,
        cold.elapsed_ms
    );

    // The edit: strengthen swish's precondition. Every goal whose
    // formula embeds the precondition text changes key; everything else
    // — including the five other programs — is textually untouched.
    const EDITED: &str = "swish";
    const SIBLING: &str = "water";
    let mut edited = corpus.clone();
    let slot = edited
        .iter()
        .position(|(name, _, _)| *name == EDITED)
        .expect("edited program is in the corpus");
    edited[slot].2.pre = parse_formula("max_r >= 1 && N >= 0").expect("edited pre parses");

    // Expected re-proof count, from the dependency map's own arithmetic:
    // goals of the edited revision whose keys the stored revision does
    // not already hold (everything else replays from the verdict cache).
    let staged = |program: &Program, spec: &Spec| -> Vec<(Stage, Vec<Vc>)> {
        cold_session
            .config()
            .stages
            .iter()
            .map(|stage| {
                let vcs = cold_session
                    .stage(stage)
                    .vcs(program, spec)
                    .expect("case study generates VCs");
                (stage, vcs)
            })
            .collect()
    };
    let old = ProgramDeps {
        hash: program_hash(&corpus[slot].1, &corpus[slot].2),
        goals: goal_deps(&staged(&corpus[slot].1, &corpus[slot].2)),
    };
    let fresh = goal_deps(&staged(&edited[slot].1, &edited[slot].2));
    let dirty = dirty_goals(&old, &fresh).len() as u64;
    assert!(dirty > 0, "the spec edit must dirty at least one goal");

    // Re-verify the edited corpus in a fresh session — a new process in
    // CI terms: everything it knows comes from the store and its
    // sidecar.
    let reverify_session = session();
    let started = std::time::Instant::now();
    let report = reverify_session.check_corpus_named(&edited);
    let reverify_ms = started.elapsed().as_secs_f64() * 1e3;
    reverify_session.persist()?;

    let entry_stats = |report: &CorpusReport, name: &str| -> EngineStats {
        report
            .entries
            .iter()
            .find(|entry| entry.name == name)
            .and_then(|entry| entry.outcome.as_ref().ok())
            .unwrap_or_else(|| panic!("{name} must have a staged report"))
            .engine
    };
    let edited_stats = entry_stats(&report, EDITED);
    assert_eq!(
        edited_stats.cache_misses, dirty,
        "solver runs for {EDITED} must equal the goals the edit dirtied"
    );
    let sibling_stats = entry_stats(&report, SIBLING);
    assert_eq!(
        sibling_stats.cache_misses, 0,
        "untouched sibling {SIBLING} must replay without solver work"
    );
    assert_eq!(
        report.engine.cache_misses, dirty,
        "corpus-wide solver work must be exactly the dirtied goals"
    );
    // No solver work alone would also hold if the untouched programs ran
    // vcgen again and hit the store goal by goal: each must replay its
    // stored goal set, with no vcgen and no encoding at all.
    let replayed = edited
        .iter()
        .filter(|(name, _, _)| *name != EDITED)
        .filter(|(name, _, _)| {
            let stats = entry_stats(&report, name);
            stats.elapsed_vcgen_us == 0 && stats.elapsed_encode_us == 0
        })
        .count();
    assert_eq!(
        replayed,
        edited.len() - 1,
        "every untouched program must replay from the dependency map"
    );

    // The equivalence gate: the incremental report must agree verdict
    // for verdict with a full in-process run that regenerates and checks
    // every goal (no sidecar to replay from; the warm store still answers
    // verdicts).
    let _ = std::fs::remove_file(depmap_path(&cache_path));
    let full_session = session();
    let started = std::time::Instant::now();
    let full = full_session.check_corpus_named(&edited);
    let full_warm_ms = started.elapsed().as_secs_f64() * 1e3;
    report
        .verdicts_match(&full)
        .expect("incremental report must be verdict-identical to the full in-process run");
    println!("incremental report is verdict-identical to the full in-process run");

    // The machine-readable line the CI edit-reverify job gates on.
    println!(
        "edit-reverify: edited={EDITED} dirty_goals={dirty} of {} solver_runs={} \
         sibling={SIBLING} sibling_solver_runs={} replayed={replayed} \
         reverify_ms={reverify_ms:.1} full_warm_ms={full_warm_ms:.1}",
        fresh.len(),
        edited_stats.cache_misses,
        sibling_stats.cache_misses
    );
    // Every session writes its dirty depmap on drop, so drop them all
    // before the scratch directory goes.
    drop((cold_session, reverify_session, full_session));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
