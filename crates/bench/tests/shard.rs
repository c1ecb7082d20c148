//! Integration tests for the `relaxed-serviced` daemon and its fleet of
//! real worker processes (`relaxed-shardd`, resolved via Cargo's
//! `CARGO_BIN_EXE` guarantee so the binary is always built first). Each
//! test binds its own in-process daemon (`Service::bind` on an ephemeral
//! port) and drives it with real TCP clients.
//!
//! The fleet's fault tolerance runs on real faults (the
//! `RELAXED_SHARDD_FAULT` hook): a worker killed mid-request loses no
//! program, and workers that corrupt every response make every program a
//! recorded per-program error, never a hang. Workers share verdicts
//! through the persistent store, across a drain and a fresh daemon, and
//! warm a store another configuration left. Concurrent clients must get
//! verdict-identical reports served from the shared store, the workers
//! that run programs live must record them in the sidecar (no client
//! does), a vcgen failure on a worker must reach the client as the
//! in-process error, the client must send its largest frames first, a
//! worker must replay programs from a sidecar written after it spawned, a
//! saturated daemon must answer `busy` and the client retry until every
//! job is served, a fleet of one must answer a connection's pipelined
//! jobs in the order it sent them, neither a client vanishing mid-job nor a job frame
//! without an id may wedge the fleet, and an over-long or deeply nested
//! frame, a `<==>` chain past the parser's budget, or a program whose
//! obligation passes vcgen's node budget is refused while the daemon
//! keeps serving.
//! A `relaxed-serviced` started with a malformed `--fleet` exits without
//! serving, and a daemon whose worker binary is missing refuses to bind.
//!
//! Every test that spawns workers or enables tracing holds the
//! `temp_env` lock, so the traced runs and the check that no worker
//! outlives its run see only their own fleet.

use relaxed_core::cache::{fingerprint, json_string, parse_json, Json};
use relaxed_core::depmap::{depmap_path, goal_deps, load, program_hash, ProgramDeps};
use relaxed_core::service::{service_status, shutdown_service};
use relaxed_core::shard::{MAX_ATTEMPTS, PROTOCOL_VERSION};
use relaxed_core::vcgen::{VcgenError, MAX_WP_NODES};
use relaxed_core::{
    Config, CorpusError, CorpusReport, Service, ServiceOptions, Spec, Verifier, VerifierBuilder,
};
use relaxed_lang::parser::MAX_IFF_GROWTH;
use relaxed_lang::{parse_program, Program};
use relaxed_programs::casestudies;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_relaxed-shardd");

fn temp_file(tag: &str, extension: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "relaxed-shard-test-{}-{tag}-{}.{extension}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn temp_cache(tag: &str) -> PathBuf {
    temp_file(tag, "jsonl")
}

/// The session a test daemon's fleet runs under, against the freshly
/// built worker binary. Budgets are builder-pinned, so suite-level
/// `DISCHARGE_*` schedules cannot skew the fleet/client fingerprint
/// agreement.
fn daemon_session() -> VerifierBuilder {
    Verifier::builder().workers(2).shard_worker(WORKER)
}

/// An in-memory service client of the daemon at `addr`.
fn client(addr: &str) -> Verifier {
    Verifier::builder().workers(2).service(addr).build()
}

/// The shared verdict-for-verdict gate (`CorpusReport::verdicts_match`),
/// as a panicking assertion for test ergonomics.
fn assert_verdicts_match(report: &CorpusReport, baseline: &CorpusReport) {
    report
        .verdicts_match(baseline)
        .expect("report drifted from its baseline");
}

#[test]
fn malformed_frames_become_recorded_errors_not_hangs() {
    // Every fleet worker corrupts its first response, including the
    // replacements spawned after each kill — so every job exhausts its
    // retries and must surface as a per-program service error (and the
    // corpus still terminates promptly with full coverage).
    let corpus = casestudies::corpus();
    let exhausted = format!("failed after {MAX_ATTEMPTS} attempts");
    temp_env::with_var("RELAXED_SHARDD_FAULT", Some("garbage:1"), || {
        let report = with_daemon(daemon_session(), 2, |addr| {
            client(addr).check_corpus_named(&corpus)
        });
        assert_eq!(report.len(), corpus.len(), "no program may be lost");
        for entry in &report.entries {
            match &entry.outcome {
                Err(CorpusError::Service(reason)) => {
                    assert!(reason.contains(&exhausted), "{reason}");
                }
                other => panic!("{}: expected a service error, got {other:?}", entry.name),
            }
        }
        let json = report.to_json();
        assert_eq!(json.matches("\"status\": \"error\"").count(), corpus.len());
    });
}

/// Counts the `solve` spans of a written Chrome trace that sit on worker
/// lanes (pid ≥ 1000, one lane per `relaxed-shardd` process).
fn worker_solve_spans(trace: &Path) -> usize {
    let text = std::fs::read_to_string(trace).expect("the trace was written");
    let record = parse_json(&text).expect("the trace is valid JSON");
    fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        fields
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
    }
    let root = record.as_object().expect("the trace is an object");
    let events = field(root, "traceEvents").expect("the trace has traceEvents");
    events
        .as_array()
        .expect("traceEvents is an array")
        .iter()
        .filter(|event| {
            let event = event.as_object().expect("every event is an object");
            let solve = matches!(field(event, "name"), Some(Json::Str(name)) if name == "solve");
            let on_worker = matches!(field(event, "pid"), Some(Json::Int(pid)) if *pid >= 1000);
            solve && on_worker
        })
        .count()
}

#[test]
fn workers_share_verdicts_through_the_cache_file() {
    let path = temp_cache("sharing");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        // A cold daemon on a fresh store: its workers persist each job's
        // verdicts.
        let cold = with_daemon(daemon_session().cache_file(&path), 2, |addr| {
            client(addr).check_corpus_named(&corpus)
        });
        assert!(cold.engine.cache_misses > 0, "{:?}", cold.engine);
        assert!(path.is_file(), "the workers must have persisted the store");

        // A fresh daemon's workers load those verdicts, so an in-memory
        // client's whole corpus discharges with zero solver work — every
        // hit crossing a process boundary through the store.
        with_daemon(daemon_session().cache_file(&path), 2, |addr| {
            let warm = client(addr).check_corpus_named(&corpus);
            assert_eq!(warm.engine.cache_misses, 0, "warm run must not re-solve");
            assert!(
                warm.engine.disk_hits > 0,
                "cross-process reuse must be visible as disk hits: {:?}",
                warm.engine
            );
            assert_verdicts_match(&warm, &cold);

            // A persistent client on the same store is answered warm, and
            // a follow-up in-process check needs no solver either.
            let persistent = Verifier::builder()
                .workers(2)
                .service(addr)
                .cache_file(&path)
                .build();
            let report = persistent.check_corpus_named(&corpus);
            assert_eq!(report.engine.cache_misses, 0, "{:?}", report.engine);
            let (program, spec) = casestudies::swish();
            let follow_up = persistent.check(&program, &spec).unwrap();
            assert_eq!(follow_up.engine.cache_misses, 0);
        });
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(depmap_path(&path));
}

#[test]
fn fleet_warms_a_store_headed_by_another_configuration() {
    let path = temp_cache("foreign");
    let corpus = casestudies::corpus();
    // A store persisted under another conflict budget: no session of the
    // default budget can use it.
    let seeder = Verifier::builder()
        .workers(1)
        .max_conflicts(Config::default().max_conflicts + 1)
        .cache_file(&path)
        .build();
    seeder.check_corpus_named(&corpus);
    assert!(seeder.persist().expect("seed the store") > 0);
    drop(seeder);

    // The first daemon's fleet solves cold and replaces the foreign store
    // with its own; a fresh daemon's fleet is answered from it.
    let runs: Vec<CorpusReport> = (0..2)
        .map(|_| {
            temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
                with_daemon(daemon_session().cache_file(&path), 2, |addr| {
                    client(addr).check_corpus_named(&corpus)
                })
            })
        })
        .collect();
    assert!(runs[0].engine.cache_misses > 0, "{:?}", runs[0].engine);
    assert_eq!(runs[1].engine.cache_misses, 0, "{:?}", runs[1].engine);
    assert!(runs[1].engine.disk_hits > 0, "{:?}", runs[1].engine);
    assert_verdicts_match(&runs[1], &runs[0]);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(depmap_path(&path));
}

/// Checks what a persistent corpus run left in the sidecar at `path`:
/// every program's record equals the one a fresh vcgen pass builds for
/// its current revision, and a fresh in-process session replays the
/// whole corpus from it (`cross_hits == 0`: a live run answered from the
/// store would count each disk hit as a cross-owner hit).
fn assert_records_replay(path: &Path, corpus: &[(&str, Program, Spec)]) {
    let session = Verifier::builder().workers(2).cache_file(path).build();
    let fingerprint = fingerprint(&session.config().discharge_config());
    let (map, warnings) = load(&depmap_path(path), &fingerprint);
    assert!(warnings.is_empty(), "{warnings:?}");
    for (name, program, spec) in corpus {
        let staged: Vec<_> = session
            .config()
            .stages
            .iter()
            .map(|stage| (stage, session.stage(stage).vcs(program, spec).unwrap()))
            .collect();
        let fresh = ProgramDeps {
            hash: program_hash(program, spec),
            goals: goal_deps(&staged),
        };
        assert_eq!(map.program(name), Some(&fresh), "{name}");
    }
    let replay = session.check_corpus_named(corpus);
    assert_eq!(replay.engine.cache_misses, 0, "{:?}", replay.engine);
    assert_eq!(replay.engine.cross_hits, 0, "{:?}", replay.engine);
}

/// Binds an in-process service daemon (ephemeral port, fleet of real
/// `relaxed-shardd` workers) and serves it on a background thread.
/// Returns the bound address and the serve thread (which yields the
/// lifetime served-count once a `shutdown` frame drains the daemon).
fn start_service(builder: VerifierBuilder, fleet: usize) -> (String, std::thread::JoinHandle<u64>) {
    let config = builder.build().config().clone();
    let service = Service::bind(ServiceOptions {
        fleet,
        config,
        ..ServiceOptions::default()
    })
    .expect("failed to bind the in-process service daemon");
    let addr = service.local_addr();
    (addr, std::thread::spawn(move || service.run()))
}

/// Runs `body` against a fresh daemon of `fleet` workers, then drains the
/// daemon and joins its serve thread.
fn with_daemon<R>(builder: VerifierBuilder, fleet: usize, body: impl FnOnce(&str) -> R) -> R {
    let (addr, daemon) = start_service(builder, fleet);
    let result = body(&addr);
    shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
    daemon.join().expect("daemon thread");
    result
}

#[test]
fn concurrent_service_clients_get_identical_reports_from_the_shared_store() {
    let path = temp_cache("service");
    let corpus = casestudies::corpus();

    // Seed the store with an in-process baseline, exactly like the CI
    // service-corpus job: every service verdict can then be answered
    // from disk, making the cross-client reuse assertion deterministic.
    let baseline_session = Verifier::builder().workers(2).cache_file(&path).build();
    let baseline = baseline_session.check_corpus_named(&corpus);
    baseline_session.persist().expect("seed the store");
    drop(baseline_session);

    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session().cache_file(&path), 2);

        // Two concurrent clients over real TCP connections.
        let reports: Vec<CorpusReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let addr = addr.clone();
                    let corpus = &corpus;
                    scope.spawn(move || {
                        Verifier::builder()
                            .workers(2)
                            .service(addr)
                            .build()
                            .check_corpus_named(corpus)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("service client thread"))
                .collect()
        });
        for report in &reports {
            assert_verdicts_match(report, &baseline);
            // Every program reports a measured wall time, and so does the
            // corpus (`elapsed_ms` may round to 0 on a fast machine, so
            // presence is asserted via the JSON).
            let json = report.to_json();
            assert_eq!(json.matches("\"elapsed_ms\"").count(), corpus.len() + 1);
            assert_eq!(
                report.engine.workers, 2,
                "corpus parallelism is the daemon's fleet"
            );
            assert_eq!(
                report.engine.cache_misses, 0,
                "a pre-seeded store must serve every verdict"
            );
            assert!(
                report.engine.disk_hits > 0,
                "cross-client reuse must be visible as disk hits: {:?}",
                report.engine
            );
        }

        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(status.fleet, 2);
        assert_eq!(status.alive, 2, "no worker may have been lost");
        assert_eq!(status.active, 0, "all jobs must have drained");
        assert_eq!(status.served, (2 * corpus.len()) as u64);

        let served = shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        assert_eq!(served, (2 * corpus.len()) as u64);
        assert_eq!(daemon.join().expect("daemon thread"), served);
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(depmap_path(&path));
}

/// The length and modification time of the file at `path`.
fn stamp(path: &Path) -> (u64, std::time::SystemTime) {
    let meta = std::fs::metadata(path).expect("the file exists");
    (meta.len(), meta.modified().expect("a modification time"))
}

/// The worker that runs a program live records its revision; no client
/// writes the sidecar. A fleet of two on a fresh store answers an
/// in-memory client, and after the drain the sidecar replays the whole
/// corpus in process. A second, warm run writes nothing to it, and a
/// persistent client on another store records no remote program, whose
/// verdicts that store never held.
#[test]
fn persistent_service_client_records_every_revision() {
    let path = temp_cache("record-service");
    let elsewhere = temp_cache("record-elsewhere");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let cold = with_daemon(daemon_session().cache_file(&path), 2, |addr| {
            client(addr).check_corpus_named(&corpus)
        });
        assert!(cold.engine.cache_misses > 0, "the run was live");
    });
    // Checked after the drain, which flushes nothing new: each worker
    // flushed its record after the job.
    assert_records_replay(&path, &corpus);
    let sidecar = depmap_path(&path);
    let before = stamp(&sidecar);
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        with_daemon(daemon_session().cache_file(&path), 2, |addr| {
            let warm = client(addr).check_corpus_named(&corpus);
            assert_eq!(warm.engine.cache_misses, 0, "{:?}", warm.engine);
            let other = Verifier::builder()
                .workers(2)
                .service(addr)
                .cache_file(&elsewhere)
                .build();
            assert_eq!(other.check_corpus_named(&corpus).len(), corpus.len());
            other.persist().expect("persist the other client");
        });
    });
    assert_eq!(stamp(&sidecar), before, "a warm run records nothing");
    let fingerprint = fingerprint(&Verifier::new().config().discharge_config());
    let (records, warnings) = load(&depmap_path(&elsewhere), &fingerprint);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert!(records.programs.is_empty(), "{:?}", records.programs.keys());
    for file in [&path, &elsewhere] {
        let _ = std::fs::remove_file(file);
        let _ = std::fs::remove_file(depmap_path(file));
    }
}

/// Vcgen runs only on the worker: through a daemon, a program whose loop
/// lacks its `invariant` gets the `CorpusError::Vcgen` an in-process run
/// records, and the other programs their in-process verdicts. The worker
/// answers the failure once: no worker is replaced, and every program
/// counts as served.
#[test]
fn a_vcgen_failure_on_the_worker_is_the_in_process_error() {
    let mut corpus = casestudies::corpus();
    let unannotated = parse_program(
        "i = 0; while (i < n) rinvariant (i<o> == i<r> && n<o> == n<r>) { i = i + 1; }",
    )
    .expect("the program parses");
    let spec = Spec::synced(&unannotated);
    corpus.push(("unannotated", unannotated, spec));
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    let expected = in_process
        .entries
        .last()
        .expect("an entry")
        .outcome
        .as_ref();
    assert!(
        matches!(
            expected,
            Err(CorpusError::Vcgen(VcgenError::MissingInvariant {
                kind: "invariant",
                ..
            }))
        ),
        "{expected:?}"
    );
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 2);
        let report = client(&addr).check_corpus_named(&corpus);
        assert_verdicts_match(&report, &in_process);
        let remote = report.entries.last().expect("an entry").outcome.as_ref();
        assert_eq!(remote.err(), expected.err());
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(status.alive, status.fleet, "{status:?}");
        assert_eq!(status.served, corpus.len() as u64, "{status:?}");
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

/// The client sends its jobs largest frame first, ties in corpus order:
/// on the paper's corpus `lu_broken` and `lu` lead, the two slowest
/// proofs, although they have the fewest obligations. A stand-in daemon
/// records the frames as they arrive and fails every job.
#[test]
fn jobs_go_largest_frame_first() {
    let corpus = casestudies::corpus();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let jobs = corpus.len();
    let stand_in = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the client");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut config = String::new();
        reader
            .read_line(&mut config)
            .expect("read the config frame");
        writeln!(
            &stream,
            "{{\"type\":\"ready\",\"proto\":{PROTOCOL_VERSION},\"fleet\":1}}"
        )
        .expect("send ready");
        let mut sent = Vec::new();
        for _ in 0..jobs {
            let mut frame = String::new();
            reader.read_line(&mut frame).expect("read a job frame");
            let record = parse_json(frame.trim_end()).expect("a job frame");
            let fields = record.as_object().expect("an object");
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let (Some(Json::Int(id)), Some(Json::Str(name))) = (field("id"), field("name")) else {
                panic!("a job frame without an id or a name: {frame}");
            };
            writeln!(
                &stream,
                "{{\"type\":\"result\",\"id\":{id},\"error\":\"stand-in\"}}"
            )
            .expect("send a result");
            sent.push((name.clone(), frame.trim_end().len(), *id));
        }
        sent
    });
    let report = client(&addr).check_corpus_named(&corpus);
    let sent = stand_in.join().expect("stand-in daemon");
    assert!(
        report
            .entries
            .iter()
            .all(|entry| matches!(&entry.outcome, Err(CorpusError::Service(r)) if r == "stand-in")),
        "every job reached the stand-in"
    );
    let names: Vec<&str> = sent.iter().map(|(name, _, _)| name.as_str()).collect();
    assert_eq!(names[..2], ["lu_broken", "lu"], "{sent:?}");
    for pair in sent.windows(2) {
        let ((_, len_a, id_a), (_, len_b, id_b)) = (&pair[0], &pair[1]);
        assert!(len_a > len_b || (len_a == len_b && id_a < id_b), "{sent:?}");
    }
}

/// A fleet worker reads the store and its sidecar again before every
/// job, so the records a session persisted after the worker spawned
/// replay whole programs on it: no vcgen, no encoding and no solver run.
#[test]
fn fleet_rereads_a_sidecar_written_after_it_spawned() {
    let path = temp_cache("fleet-reread");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        // The worker spawns, and reads both files, before they exist.
        let (addr, daemon) = start_service(daemon_session().cache_file(&path), 1);
        let seeder = Verifier::builder().workers(2).cache_file(&path).build();
        seeder.check_corpus_named(&corpus);
        seeder.persist().expect("seed the store and its sidecar");
        drop(seeder);
        let report = Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        for entry in &report.entries {
            let stats = entry.outcome.as_ref().expect("a staged report").engine;
            assert_eq!(
                (stats.cache_misses, stats.cross_hits, stats.elapsed_vcgen_us),
                (0, 0, 0),
                "{} must replay on the worker: {stats:?}",
                entry.name
            );
        }
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(depmap_path(&path));
}

/// A fleet of one admits four jobs at a time: a client pipelining 18
/// gets `busy` frames for the rest, retries them after the daemon's
/// hint, and ends with every program served and verdict-identical.
#[test]
fn saturated_daemon_answers_busy_and_the_client_retries() {
    let programs: Vec<(String, Program, Spec)> = (0..3)
        .flat_map(|round| {
            casestudies::corpus()
                .into_iter()
                .map(move |(name, program, spec)| (format!("{name}_{round}"), program, spec))
        })
        .collect();
    let corpus: Vec<(&str, Program, Spec)> = programs
        .iter()
        .map(|(name, program, spec)| (name.as_str(), program.clone(), spec.clone()))
        .collect();
    assert_eq!(corpus.len(), 18);
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 1);
        let report = Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        assert_verdicts_match(&report, &in_process);
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert!(status.rejected >= 1, "no job was turned away: {status:?}");
        assert_eq!(
            (status.served, status.active, status.alive),
            (18, 0, 1),
            "{status:?}"
        );
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

#[test]
fn killed_service_worker_loses_no_programs() {
    // Every fleet worker crashes when its second job arrives: the daemon
    // must kill the carcass, spawn a replacement, and retry the job —
    // the client's merged report still covers every program with
    // verdicts identical to the in-process run.
    let corpus = casestudies::corpus();
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    temp_env::with_var("RELAXED_SHARDD_FAULT", Some("crash:2"), || {
        let (addr, daemon) = start_service(daemon_session(), 2);
        let report = Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        assert_verdicts_match(&report, &in_process);
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

/// Opens a raw client connection to the daemon at `addr` and completes
/// the config/`ready` handshake under the default session budgets.
fn raw_session(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = &stream;
    let session = Config::default();
    writeln!(
        writer,
        "{{\"type\":\"config\",\"proto\":{PROTOCOL_VERSION},\"max_conflicts\":{},\
         \"branch_budget\":{},\"workers\":1,\
         \"stages\":\"original,relaxed\",\"cache\":\"\"}}",
        session.max_conflicts, session.branch_budget
    )
    .expect("send config");
    let mut ready = String::new();
    reader.read_line(&mut ready).expect("read ready");
    assert!(ready.contains("\"ready\""), "unexpected handshake: {ready}");
    (reader, stream)
}

#[test]
fn client_disconnect_mid_job_does_not_wedge_the_fleet() {
    let corpus = casestudies::corpus();
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 2);

        // A rude client: handshake, submit a job, vanish without reading
        // the result. The daemon's write fails on the dead socket; the
        // admission slot and the worker must still be released.
        {
            let (_reader, stream) = raw_session(&addr);
            writeln!(&stream, "{{\"type\":\"job\",\"id\":7}}").expect("send job");
            // Drop both halves mid-job.
        }

        // The fleet must still serve a full corpus for a polite client.
        let report = Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        assert_verdicts_match(&report, &in_process);

        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(status.alive, 2, "the fleet must survive the rude client");
        // The graceful drain would hang forever on a wedged admission
        // slot; completing is the real assertion here.
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

/// A fleet of one relays a connection's pipelined jobs in the order they
/// were admitted: four jobs sent in one write come back in send order,
/// all four admitted at once and none refused.
#[test]
fn a_fleet_of_one_answers_pipelined_jobs_in_send_order() {
    let corpus = casestudies::corpus();
    let frames: String = corpus[..4]
        .iter()
        .enumerate()
        .map(|(id, (name, program, spec))| {
            format!(
                "{{\"type\":\"job\",\"id\":{id},\"name\":{},\"program\":{},\"pre\":{},\
                 \"post\":{},\"rel_pre\":{},\"rel_post\":{}}}\n",
                json_string(name),
                json_string(&program.to_string()),
                json_string(&spec.pre.to_string()),
                json_string(&spec.post.to_string()),
                json_string(&spec.rel_pre.to_string()),
                json_string(&spec.rel_post.to_string()),
            )
        })
        .collect();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 1);
        {
            let (mut reader, mut stream) = raw_session(&addr);
            stream.write_all(frames.as_bytes()).expect("send four jobs");
            let ids: Vec<i128> = (0..4)
                .map(|_| {
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("read a result");
                    let record = parse_json(reply.trim_end()).expect("a result frame");
                    let fields = record.as_object().expect("an object");
                    let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    assert!(
                        matches!(field("type"), Some(Json::Str(t)) if t == "result"),
                        "{reply}"
                    );
                    assert!(field("error").is_none(), "{reply}");
                    match field("id") {
                        Some(Json::Int(id)) => *id,
                        _ => panic!("a result frame without an id: {reply}"),
                    }
                })
                .collect();
            assert_eq!(ids, [0, 1, 2, 3]);
        }
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(
            (status.served, status.peak_active, status.rejected),
            (4, 4, 0),
            "{status:?}"
        );
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

#[test]
fn job_frame_without_an_id_is_refused_before_any_worker() {
    let corpus = casestudies::corpus();
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 2);

        // A job the client could never match a result to: a worker would
        // die on it, so the daemon must refuse it itself.
        {
            let (mut reader, stream) = raw_session(&addr);
            writeln!(&stream, "{{\"type\":\"job\"}}").expect("send job");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read the refusal");
            assert!(reply.contains("\"type\":\"error\""), "{reply}");
            assert!(reply.contains("missing `id`"), "{reply}");
        }
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(status.served, 0, "the id-less job must never be admitted");

        // The fleet still serves a full corpus for a polite client.
        let report = Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        assert_verdicts_match(&report, &in_process);
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

#[test]
fn deeply_nested_frame_is_refused_and_the_daemon_keeps_serving() {
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 1);

        // 40 KB of brackets: a parser recursing once per level would
        // overflow the connection thread's stack and abort the daemon.
        {
            let stream = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let depth = 20_000;
            writeln!(&stream, "{}{}", "[".repeat(depth), "]".repeat(depth)).expect("send frame");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read the refusal");
            assert_eq!(
                reply.trim_end(),
                "{\"type\":\"error\",\"reason\":\"malformed frame\"}"
            );
        }
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!((status.served, status.alive), (0, 1), "{status:?}");
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

#[test]
fn endless_line_is_refused_and_the_daemon_keeps_serving() {
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 1);

        // 64 MiB of brackets and no newline: a daemon that buffers the
        // whole line, rescanning it after every read, spends minutes of
        // CPU and the line's size in memory before it could answer.
        {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("set the read timeout");
            let mut feeder = stream.try_clone().expect("clone");
            let feed = std::thread::spawn(move || {
                let chunk = vec![b'['; 1 << 20];
                // The daemon hangs up mid-line, which ends the feed.
                for _ in 0..64 {
                    if feeder.write_all(&chunk).is_err() {
                        break;
                    }
                }
            });
            let mut reply = String::new();
            BufReader::new(&stream)
                .read_line(&mut reply)
                .expect("read the refusal");
            assert!(
                reply.starts_with("{\"type\":\"error\",\"reason\":\"frame from ")
                    && reply.contains("exceeds"),
                "{reply}"
            );
            drop(stream);
            feed.join().expect("feeder thread");
        }
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!((status.served, status.alive), (0, 1), "{status:?}");
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

/// Sends a daemon one job frame whose program, under `rel_spec` as both
/// relational pre- and postcondition, the worker must refuse; checks that
/// the result frame's error satisfies `refused` and that no worker was
/// lost.
fn assert_job_refused_and_fleet_intact(
    program: &str,
    rel_spec: &str,
    refused: impl Fn(&str) -> bool,
) {
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 1);
        {
            let (mut reader, stream) = raw_session(&addr);
            writeln!(
                &stream,
                "{{\"type\":\"job\",\"id\":3,\"name\":\"refused\",\"program\":{},\
                 \"pre\":\"true\",\"post\":\"true\",\"rel_pre\":{rel},\"rel_post\":{rel}}}",
                json_string(program),
                rel = json_string(rel_spec)
            )
            .expect("send job");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read the result");
            let record = parse_json(&reply).expect("a result frame");
            let fields = record.as_object().expect("an object");
            let error = fields
                .iter()
                .find(|(key, _)| key == "error")
                .map(|(_, value)| value);
            assert!(matches!(error, Some(Json::Str(e)) if refused(e)), "{reply}");
        }
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(status.alive, status.fleet, "{status:?}");
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

#[test]
fn deeply_nested_program_fails_its_job_and_the_fleet_keeps_serving() {
    // 200 KB of parentheses in one program: a parser recursing once per
    // level, or a vcgen walking the tree it built, would overflow the
    // worker's stack on every retry and empty the fleet.
    let depth = 100_000;
    let program = format!("x = {}1{};", "(".repeat(depth), ")".repeat(depth));
    assert_job_refused_and_fleet_intact(&program, "true", |e| {
        e.starts_with("program: parse error") && e.contains("nesting deeper than 256 levels")
    });
}

#[test]
fn iff_chain_past_the_budget_fails_its_job_and_the_fleet_keeps_serving() {
    // A 13-link `<==>` chain in 170 bytes: one link past the parser's
    // growth budget, where every further link doubles the desugared
    // obligation until a worker runs out of memory.
    let program = format!("assert {};", vec!["x >= 0"; 14].join(" <==> "));
    let limit = format!("more than {MAX_IFF_GROWTH} nodes once desugared");
    assert_job_refused_and_fleet_intact(&program, "true", |e| {
        e.starts_with("program: parse error") && e.contains(&limit)
    });
}

#[test]
fn sequential_ifs_past_the_wp_budget_fail_their_job_and_the_fleet_keeps_serving() {
    // Eight sequential ifs in 368 bytes: the relational product rule
    // copies the postcondition four times per if, so the obligation grows
    // past vcgen's node budget (it used to reach 5.5 M nodes, and each
    // further if multiplies it by about 4.5).
    let program: String = (0..8)
        .map(|i| format!("if (x > {i}) {{ x = x + 1; }} else {{ x = x - 1; }}\n"))
        .collect();
    let limit = format!("obligation grows past {MAX_WP_NODES} nodes");
    assert_job_refused_and_fleet_intact(&program, "x<o> == x<r>", |e| e.contains(&limit));
}

#[test]
fn malformed_fleet_flag_exits_without_starting_a_daemon() {
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_relaxed-serviced"))
            .args(["--fleet", "x", "--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn relaxed-serviced");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = daemon.try_wait().expect("poll the daemon") {
                break Some(status);
            }
            if std::time::Instant::now() > deadline {
                let _ = daemon.kill();
                let _ = daemon.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let (mut stdout, mut stderr) = (String::new(), String::new());
        let out = daemon.stdout.take().expect("piped stdout");
        BufReader::new(out)
            .read_to_string(&mut stdout)
            .expect("read stdout");
        let err = daemon.stderr.take().expect("piped stderr");
        BufReader::new(err)
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(!stdout.contains("listening"), "{stdout}");
        let status = status.expect("the daemon must exit on its own");
        assert!(!status.success(), "{status:?}");
        assert_eq!(stderr.lines().count(), 1, "one usage line: {stderr}");
        assert!(
            stderr.contains("--fleet needs an unsigned integer"),
            "{stderr}"
        );
    });
}

#[test]
fn traced_service_records_worker_spans() {
    let trace = temp_file("service-trace", "json");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session().trace_file(&trace), 2);
        let report = Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        assert!(report.verified_count() >= 3);
        // The drain writes the daemon's trace before it answers `bye`.
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
    let spans = worker_solve_spans(&trace);
    let _ = std::fs::remove_file(&trace);
    assert!(spans >= 1, "no solve span landed on a shard-worker lane");
}

/// The `relaxed-shardd` children of this test process. A child is listed
/// under the thread that spawned it, so every task's list is read.
#[cfg(target_os = "linux")]
fn worker_children() -> Vec<String> {
    let mut workers = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list this process's tasks") {
        let children = task.expect("task entry").path().join("children");
        // A task that exited since the listing has no children left.
        let Ok(children) = std::fs::read_to_string(children) else {
            continue;
        };
        for pid in children.split_whitespace() {
            let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
            if comm.trim() == "relaxed-shardd" {
                workers.push(pid.to_string());
            }
        }
    }
    workers
}

#[cfg(target_os = "linux")]
#[test]
fn no_worker_outlives_its_run() {
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", Some("crash:2"), || {
        with_daemon(daemon_session(), 2, |addr| {
            client(addr).check_corpus_named(&corpus)
        });
        assert_eq!(
            worker_children(),
            Vec::<String>::new(),
            "after a daemon whose workers crash"
        );
    });
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(daemon_session(), 2);
        Verifier::builder()
            .workers(2)
            .service(&addr)
            .build()
            .check_corpus_named(&corpus);
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
        assert_eq!(
            worker_children(),
            Vec::<String>::new(),
            "after a daemon's shutdown"
        );
    });
}

#[test]
fn daemon_without_its_worker_binary_refuses_to_bind() {
    let missing = "/nonexistent/relaxed-shardd";
    let config = Verifier::builder()
        .shard_worker(missing)
        .build()
        .config()
        .clone();
    let refused = Service::bind(ServiceOptions {
        fleet: 2,
        config,
        ..ServiceOptions::default()
    })
    .err()
    .expect("a daemon without its worker binary must not bind");
    assert!(refused.contains(missing), "{refused}");
}

/// Minimal stand-in for the `temp-env` crate (offline build): sets a
/// process environment variable for the duration of a closure, restoring
/// the previous value after. Fleet fault tests are the only env-mutating
/// tests in this binary, and each runs the whole closure under the lock
/// (`ENV_LOCK`), as does every test that spawns workers or traces.
mod temp_env {
    use std::sync::Mutex;

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    pub fn with_var<R>(key: &str, value: Option<&str>, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let previous = std::env::var_os(key);
        match value {
            Some(value) => std::env::set_var(key, value),
            None => std::env::remove_var(key),
        }
        let result = body();
        match previous {
            Some(previous) => std::env::set_var(key, previous),
            None => std::env::remove_var(key),
        }
        result
    }
}
