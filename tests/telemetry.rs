//! Telemetry integration tests: the Chrome trace file a session writes
//! is schema-valid and deterministically shaped under one worker, spans
//! nest properly, a persistent session's drop-time flush lands in its
//! trace, the service `metrics` control frame round-trips over a real
//! socket, and the disabled path records nothing while leaving every
//! verdict unchanged.
//!
//! Tracing toggles a process-global flag, so every test that enables it
//! serializes on [`TRACE_LOCK`] — the suite still runs under the default
//! parallel test harness.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use relaxed_programs::core::cache::{json_string, parse_json, Json};
use relaxed_programs::core::depmap::depmap_path;
use relaxed_programs::core::service::service_metrics;
use relaxed_programs::core::shard::PROTOCOL_VERSION;
use relaxed_programs::core::telemetry;
use relaxed_programs::lang::{parse_program, parse_rel_formula, Formula, Program, RelFormula};
use relaxed_programs::{Spec, Verifier};

/// Serializes the tests that flip the process-global tracing flag.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A fresh path under the system temp dir (unique per test invocation,
/// so parallel `cargo test` processes never collide).
fn temp_trace_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "relaxed-telemetry-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

/// A small mixed corpus: enough goals to exercise vcgen, encoding, the
/// prefilter, and the solver on every run.
fn corpus() -> Vec<(Program, Spec)> {
    let mut entries = Vec::new();
    let drift = parse_program(
        "x0 = x;
         relax (x) st (x0 <= x && x <= x0 + 2);
         relate l1 : x<o> <= x<r> && x<r> - x<o> <= 2;",
    )
    .unwrap();
    let mut drift_spec = Spec::synced(&drift);
    drift_spec.rel_pre = parse_rel_formula("x<o> == x<r>").unwrap();
    entries.push((drift, drift_spec));

    let sum = parse_program(
        "total = a + b;
         t0 = total;
         relax (total) st (t0 <= total && total <= t0 + 1);
         relate s : total<o> <= total<r> && total<r> - total<o> <= 1;",
    )
    .unwrap();
    let mut sum_spec = Spec::synced(&sum);
    sum_spec.rel_pre = parse_rel_formula("a<o> == a<r> && b<o> == b<r>").unwrap();
    entries.push((sum, sum_spec));

    entries
}

/// One span pulled out of the trace file, with just the fields the
/// assertions below consult.
#[derive(Clone, Debug)]
struct TraceSpan {
    name: String,
    cat: String,
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
}

fn field_str(fields: &[(String, Json)], key: &str) -> Option<String> {
    fields.iter().find_map(|(k, v)| match v {
        Json::Str(s) if k == key => Some(s.clone()),
        _ => None,
    })
}

fn field_u64(fields: &[(String, Json)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Json::Int(n) if k == key => u64::try_from(*n).ok(),
        _ => None,
    })
}

/// Parses a trace file with the crate's own JSON parser and validates
/// the schema every consumer relies on: a top-level object holding a
/// `traceEvents` array and an integer `dropped` counter; every event an
/// object with string `ph`/`name` where `ph` is `"X"` (complete span,
/// with non-negative integer ts/dur/pid/tid and a string `cat`) or
/// `"M"` (metadata record naming a process or thread lane).
fn load_trace(path: &std::path::Path) -> (Vec<TraceSpan>, u64) {
    let raw = std::fs::read_to_string(path).expect("trace file readable");
    let record = parse_json(&raw).expect("trace file is valid JSON");
    let fields = record.as_object().expect("trace root is an object");
    let dropped = field_u64(fields, "dropped").expect("trace has an integer `dropped`");
    let events = fields
        .iter()
        .find_map(|(k, v)| match v {
            Json::Arr(items) if k == "traceEvents" => Some(items),
            _ => None,
        })
        .expect("trace has a `traceEvents` array");
    let mut spans = Vec::new();
    for event in events {
        let event = event.as_object().expect("every trace event is an object");
        let ph = field_str(event, "ph").expect("every trace event has a string `ph`");
        let name = field_str(event, "name").expect("every trace event has a string `name`");
        match ph.as_str() {
            "M" => {
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata record {name:?}"
                );
            }
            "X" => spans.push(TraceSpan {
                cat: field_str(event, "cat").expect("X event has a string `cat`"),
                pid: field_u64(event, "pid").expect("X event has an integer `pid`"),
                tid: field_u64(event, "tid").expect("X event has an integer `tid`"),
                ts: field_u64(event, "ts").expect("X event has an integer `ts`"),
                dur: field_u64(event, "dur").expect("X event has an integer `dur`"),
                name,
            }),
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    (spans, dropped)
}

/// Runs the corpus single-worker with a trace file and returns the
/// parsed spans. The verifier is dropped before reading so the trace is
/// written by the session's own release path, not an explicit flush.
fn traced_run(tag: &str) -> (Vec<TraceSpan>, u64) {
    let path = temp_trace_path(tag);
    let verifier = Verifier::builder().workers(1).trace_file(&path).build();
    let report = verifier.check_corpus(&corpus());
    assert!(report.verified(), "corpus must verify while traced");
    drop(verifier);
    let parsed = load_trace(&path);
    let _ = std::fs::remove_file(&path);
    parsed
}

/// The trace a single-worker session writes is schema-valid, loses no
/// events, and has a deterministic shape: two identical runs produce
/// the same multiset of `(cat, name)` spans.
#[test]
fn trace_schema_valid_and_deterministic_under_one_worker() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (first, dropped_first) = traced_run("det-a");
    let (second, dropped_second) = traced_run("det-b");
    assert_eq!(dropped_first, 0);
    assert_eq!(dropped_second, 0);
    assert!(
        first.iter().any(|s| s.name == "solve"),
        "trace must contain solve spans"
    );
    assert!(
        first.iter().any(|s| s.name == "vcgen"),
        "trace must contain vcgen spans"
    );
    let shape = |spans: &[TraceSpan]| {
        let mut names: Vec<(String, String)> = spans
            .iter()
            .map(|s| (s.cat.clone(), s.name.clone()))
            .collect();
        names.sort();
        names
    };
    assert_eq!(
        shape(&first),
        shape(&second),
        "single-worker traces must have identical span shape"
    );
}

/// Spans nest: every solver `check` sits inside an engine `solve` span
/// on the same lane, and every `solve` inside a `discharge`.
#[test]
fn spans_nest_within_their_parents() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (spans, _) = traced_run("nest");
    let contains = |outer: &TraceSpan, inner: &TraceSpan| {
        outer.pid == inner.pid
            && outer.tid == inner.tid
            && outer.ts <= inner.ts
            && inner.ts + inner.dur <= outer.ts + outer.dur
    };
    let parents_of = |child_name: &str, parent_name: &str| {
        let children: Vec<&TraceSpan> = spans.iter().filter(|s| s.name == child_name).collect();
        assert!(!children.is_empty(), "trace has no {child_name} spans");
        for child in children {
            assert!(
                spans
                    .iter()
                    .filter(|s| s.name == parent_name)
                    .any(|parent| contains(parent, child)),
                "{child_name} span at ts={} (tid {}) is not inside any {parent_name} span",
                child.ts,
                child.tid
            );
        }
    };
    parents_of("check", "solve");
    parents_of("solve", "discharge");
}

/// The `metrics` control frame round-trips over a real socket: a
/// listener replies with the exact frame shape the daemon renders (its
/// Prometheus text JSON-escaped into one line), and [`service_metrics`]
/// recovers the text byte-for-byte.
#[test]
fn service_metrics_frame_round_trips() {
    let text = "\
# TYPE relaxed_requests_rejected_total counter
relaxed_requests_rejected_total 1
# TYPE relaxed_requests_served_total counter
relaxed_requests_served_total 3
# TYPE relaxed_fleet_alive gauge
relaxed_fleet_alive 4
# TYPE relaxed_fleet_busy gauge
relaxed_fleet_busy 0
# TYPE relaxed_queue_depth gauge
relaxed_queue_depth 2
# TYPE relaxed_queue_depth_peak gauge
relaxed_queue_depth_peak 2
# TYPE relaxed_request_latency_ms histogram
relaxed_request_latency_ms_bucket{le=\"1\"} 0
relaxed_request_latency_ms_bucket{le=\"2\"} 0
relaxed_request_latency_ms_bucket{le=\"5\"} 1
relaxed_request_latency_ms_bucket{le=\"10\"} 1
relaxed_request_latency_ms_bucket{le=\"25\"} 1
relaxed_request_latency_ms_bucket{le=\"50\"} 2
relaxed_request_latency_ms_bucket{le=\"100\"} 2
relaxed_request_latency_ms_bucket{le=\"250\"} 2
relaxed_request_latency_ms_bucket{le=\"1000\"} 2
relaxed_request_latency_ms_bucket{le=\"5000\"} 2
relaxed_request_latency_ms_bucket{le=\"+Inf\"} 2
relaxed_request_latency_ms_sum 43
relaxed_request_latency_ms_count 2
"
    .to_string();
    let frame = format!(
        "{{\"type\":\"metrics\",\"proto\":{PROTOCOL_VERSION},\"text\":{}}}",
        json_string(&text)
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept metrics probe");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("read request line");
        assert!(
            request.contains("\"metrics\""),
            "client must send a metrics frame, got {request:?}"
        );
        let mut stream = stream;
        writeln!(stream, "{frame}").expect("write metrics frame");
    });

    let fetched = service_metrics(&addr, Duration::from_secs(5)).expect("metrics round-trip");
    server.join().expect("listener thread");

    assert_eq!(fetched, text, "Prometheus text must survive the frame");
    assert!(fetched.contains("relaxed_requests_served_total 3"));
    assert!(fetched.contains("relaxed_queue_depth 2"));
    assert!(fetched.contains("# TYPE relaxed_request_latency_ms histogram"));
    assert!(fetched.contains("relaxed_request_latency_ms_bucket{le=\"5\"} 1"));
    assert!(fetched.contains("relaxed_request_latency_ms_bucket{le=\"+Inf\"} 2"));
    assert!(fetched.contains("relaxed_request_latency_ms_count 2"));
}

/// A traced persistent session dropped without `persist()` flushes its
/// store before it releases the trace, so the trace holds that flush.
#[test]
fn dropped_persistent_session_traces_its_flush() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace = temp_trace_path("drop-flush");
    let store = trace.with_extension("verdicts.jsonl");
    let verifier = Verifier::builder()
        .workers(1)
        .cache_file(&store)
        .trace_file(&trace)
        .build();
    assert!(verifier.check_corpus(&corpus()).verified());
    drop(verifier);
    let (spans, _) = load_trace(&trace);
    let flushes = spans.iter().filter(|s| s.name == "cache_persist").count();
    assert_eq!(flushes, 1, "the drop-time flush is traced");
    assert!(store.exists() && depmap_path(&store).exists());
    for path in [&trace, &store, &depmap_path(&store)] {
        let _ = std::fs::remove_file(path);
    }
}

/// With no trace file configured, the telemetry layer stays disabled,
/// records nothing, and verdicts are identical to a traced session's.
#[test]
fn disabled_path_records_nothing_and_verdicts_match() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let entries = corpus();

    assert!(!telemetry::enabled(), "tracing must default off");
    let before = telemetry::snapshot().len();
    let untraced = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus(&entries);
    assert!(!telemetry::enabled());
    assert_eq!(
        telemetry::snapshot().len(),
        before,
        "a session without a trace file must record no events"
    );

    let path = temp_trace_path("verdicts");
    let verifier = Verifier::builder().workers(1).trace_file(&path).build();
    let traced = verifier.check_corpus(&entries);
    drop(verifier);
    let _ = std::fs::remove_file(&path);

    let digest = |report: &relaxed_programs::CorpusReport| -> Vec<(bool, usize, usize)> {
        report
            .entries
            .iter()
            .map(|entry| match &entry.outcome {
                Ok(acceptability) => (
                    acceptability.verified(),
                    acceptability.total_vcs(),
                    acceptability.proved_vcs(),
                ),
                Err(_) => (false, 0, 0),
            })
            .collect()
    };
    assert_eq!(
        digest(&untraced),
        digest(&traced),
        "tracing must not change any verdict"
    );

    // A formula-level spec exercised both ways too, so the single-check
    // path (not just the corpus path) is covered by the equivalence.
    let (program, spec) = &entries[0];
    assert_eq!(spec.pre, Formula::True);
    assert_eq!(spec.rel_post, RelFormula::True);
    let solo = Verifier::new().check(program, spec).unwrap();
    assert!(solo.verified());
}
