//! Integration tests for the sharded multi-process corpus verifier:
//! real worker processes (`relaxed-shardd`, resolved via Cargo's
//! `CARGO_BIN_EXE` guarantee so the binary is always built first),
//! exercising verdict equivalence against the in-process driver, the
//! crash/corruption fault-tolerance path (via the `RELAXED_SHARDD_FAULT`
//! hook), and cache-mediated verdict sharing between worker processes.
//!
//! The service tests at the bottom run the same fleet behind an
//! in-process `relaxed-serviced` daemon (`Service::bind` on an ephemeral
//! port) and drive it with real TCP clients: concurrent clients must get
//! verdict-identical reports served from the shared store, a worker
//! killed mid-request must lose no programs, neither a client vanishing
//! mid-job nor a job frame without an id may wedge the fleet, and an
//! over-long or deeply nested frame is refused while the daemon keeps
//! serving.
//!
//! Every test that spawns workers or enables tracing holds the
//! `temp_env` lock, so the traced runs and the check that no worker
//! outlives its run see only their own fleet.

use relaxed_core::cache::{fingerprint, json_string, parse_json, Json};
use relaxed_core::depmap::{depmap_path, goal_deps, load, program_hash, ProgramDeps};
use relaxed_core::service::{service_status, shutdown_service};
use relaxed_core::{
    Config, CorpusError, CorpusReport, Service, ServiceOptions, Spec, Verifier, VerifierBuilder,
};
use relaxed_lang::Program;
use relaxed_programs::casestudies;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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

/// A sharded session against the freshly built worker binary. Budgets are
/// builder-pinned, so suite-level `DISCHARGE_*` schedules cannot skew the
/// worker/coordinator fingerprint agreement.
fn sharded(shards: usize) -> VerifierBuilder {
    Verifier::builder()
        .workers(2)
        .shards(shards)
        .shard_worker(WORKER)
}

/// The shared verdict-for-verdict gate (`CorpusReport::verdicts_match`),
/// as a panicking assertion for test ergonomics.
fn assert_verdicts_match(sharded: &CorpusReport, in_process: &CorpusReport) {
    sharded
        .verdicts_match(in_process)
        .expect("sharded report drifted from the in-process baseline");
}

#[test]
fn sharded_corpus_matches_in_process_verdicts() {
    let corpus = casestudies::corpus();
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    // Hold the fault var unset while workers spawn, so a concurrently
    // running fault test cannot leak its hook into this run.
    let report = temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        sharded(2).build().check_corpus_named(&corpus)
    });
    assert_verdicts_match(&report, &in_process);
    assert_eq!(
        report.engine.workers, 2,
        "corpus parallelism is the shard count"
    );
    // Every program reports a measured wall time (entries that verified
    // real obligations took nonzero solver work; `elapsed_ms` may round
    // to 0 on a fast machine, so assert presence via the JSON instead).
    let json = report.to_json();
    assert_eq!(json.matches("\"elapsed_ms\"").count(), corpus.len() + 1);
}

#[test]
fn killed_worker_loses_no_programs() {
    // Every worker process crashes when its second job arrives (before
    // responding): each crash requeues the job, the handler spawns a
    // replacement, and the replacement completes it as its own first job.
    // The merged report must still cover every program with verdicts
    // identical to the in-process run.
    let corpus = casestudies::corpus();
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    temp_env::with_var("RELAXED_SHARDD_FAULT", Some("crash:2"), || {
        let report = sharded(2).build().check_corpus_named(&corpus);
        assert_verdicts_match(&report, &in_process);
    });
}

#[test]
fn malformed_frames_become_recorded_errors_not_hangs() {
    // Every worker corrupts its first response, including the replacements
    // spawned after each kill — so every job exhausts its retries and must
    // surface as a per-program shard error (and the corpus still
    // terminates promptly with full coverage).
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", Some("garbage:1"), || {
        let report = sharded(2).build().check_corpus_named(&corpus);
        assert_eq!(report.len(), corpus.len(), "no program may be lost");
        for entry in &report.entries {
            match &entry.outcome {
                Err(CorpusError::Shard(reason)) => {
                    assert!(reason.contains("attempts"), "{reason}");
                }
                other => panic!("{}: expected a shard error, got {other:?}", entry.name),
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
fn traced_sharded_run_records_worker_spans() {
    let trace = temp_file("sharded-trace", "json");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let verifier = sharded(2).trace_file(&trace).build();
        let report = verifier.check_corpus_named(&corpus);
        assert!(report.verified_count() >= 3);
        // The last tracing session's drop writes the trace.
        drop(verifier);
    });
    let spans = worker_solve_spans(&trace);
    let _ = std::fs::remove_file(&trace);
    assert!(spans >= 1, "no solve span landed on a shard-worker lane");
}

#[test]
fn workers_share_verdicts_through_the_cache_file() {
    let path = temp_cache("sharing");
    let corpus = casestudies::corpus();

    // Cold sharded run: workers persist incrementally into one store.
    let cold = sharded(2).cache_file(&path).build();
    let cold_report = temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        cold.check_corpus_named(&corpus)
    });
    assert!(cold_report.verified_count() >= 3);
    drop(cold);
    assert!(path.is_file(), "workers must have persisted the store");

    // Warm sharded run: fresh worker processes load the previous run's
    // verdicts, so the whole corpus discharges with zero solver work —
    // every hit crossing a process boundary through the store.
    let warm = sharded(2).cache_file(&path).build();
    let warm_report = temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        warm.check_corpus_named(&corpus)
    });
    assert_eq!(
        warm_report.engine.cache_misses, 0,
        "warm run must not re-solve"
    );
    assert!(
        warm_report.engine.disk_hits > 0,
        "cross-process reuse must be visible as disk hits: {:?}",
        warm_report.engine
    );
    assert_verdicts_match(&warm_report, &cold_report);

    // The coordinator session itself warmed up from the store the workers
    // wrote: a follow-up in-process check is answered without solving.
    let (program, spec) = casestudies::swish();
    let follow_up = warm.check(&program, &spec).unwrap();
    assert_eq!(follow_up.engine.cache_misses, 0);
    drop(warm);
    let _ = std::fs::remove_file(&path);
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

#[test]
fn sharded_persistent_run_records_every_revision() {
    let path = temp_cache("record-sharded");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let coordinator = sharded(2).cache_file(&path).build();
        let report = coordinator.check_corpus_named(&corpus);
        assert!(report.engine.cache_misses > 0, "the run was live");
        coordinator
            .persist()
            .expect("persist the coordinator session");
    });
    assert_records_replay(&path, &corpus);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(depmap_path(&path));
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
        let (addr, daemon) = start_service(sharded(2).cache_file(&path), 2);

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
}

#[test]
fn persistent_service_client_records_every_revision() {
    let path = temp_cache("record-service");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(sharded(2).cache_file(&path), 2);
        let client = Verifier::builder()
            .workers(2)
            .service(&addr)
            .cache_file(&path)
            .build();
        let report = client.check_corpus_named(&corpus);
        assert!(report.engine.cache_misses > 0, "the run was live");
        client.persist().expect("persist the client session");
        drop(client);
        // Checked before the drain: each draining worker rewrites the
        // sidecar from its own view.
        assert_records_replay(&path, &corpus);
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(depmap_path(&path));
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
        let (addr, daemon) = start_service(sharded(2), 2);
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
        "{{\"type\":\"config\",\"proto\":1,\"max_conflicts\":{},\
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
        let (addr, daemon) = start_service(sharded(2), 2);

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

#[test]
fn job_frame_without_an_id_is_refused_before_any_worker() {
    let corpus = casestudies::corpus();
    let in_process = Verifier::builder()
        .workers(2)
        .build()
        .check_corpus_named(&corpus);
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(sharded(2), 2);

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
        let (addr, daemon) = start_service(sharded(1), 1);

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
        let (addr, daemon) = start_service(sharded(1), 1);

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

#[test]
fn deeply_nested_program_fails_its_job_and_the_fleet_keeps_serving() {
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(sharded(1), 1);

        // 200 KB of parentheses in one program: a parser recursing once
        // per level, or a vcgen walking the tree it built, would overflow
        // the worker's stack on every retry and empty the fleet.
        {
            let (mut reader, stream) = raw_session(&addr);
            let depth = 100_000;
            let program = format!("x = {}1{};", "(".repeat(depth), ")".repeat(depth));
            writeln!(
                &stream,
                "{{\"type\":\"job\",\"id\":3,\"name\":\"deep\",\"program\":{},\
                 \"pre\":\"true\",\"post\":\"true\",\"rel_pre\":\"true\",\"rel_post\":\"true\"}}",
                json_string(&program)
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
            assert!(
                matches!(error, Some(Json::Str(e))
                    if e.starts_with("program: parse error")
                        && e.contains("nesting deeper than 256 levels")),
                "{reply}"
            );
        }
        let status = service_status(&addr, Duration::from_secs(10)).expect("status");
        assert_eq!(status.alive, status.fleet, "{status:?}");
        shutdown_service(&addr, Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    });
}

#[test]
fn traced_service_records_worker_spans() {
    let trace = temp_file("service-trace", "json");
    let corpus = casestudies::corpus();
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(sharded(2).trace_file(&trace), 2);
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
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        sharded(2).build().check_corpus_named(&corpus);
        assert_eq!(
            worker_children(),
            Vec::<String>::new(),
            "after a sharded run"
        );
    });
    temp_env::with_var("RELAXED_SHARDD_FAULT", Some("crash:2"), || {
        sharded(2).build().check_corpus_named(&corpus);
        assert_eq!(
            worker_children(),
            Vec::<String>::new(),
            "after a sharded run whose workers crash"
        );
    });
    temp_env::with_var("RELAXED_SHARDD_FAULT", None, || {
        let (addr, daemon) = start_service(sharded(2), 2);
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

/// Minimal stand-in for the `temp-env` crate (offline build): sets a
/// process environment variable for the duration of a closure, restoring
/// the previous value after. Shard fault tests are the only env-mutating
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
