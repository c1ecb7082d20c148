//! Zero-dependency tracing for the whole pipeline.
//!
//! A std-only span/event subsystem threaded from vcgen to the service
//! fleet. Spans are RAII guards ([`span`]) timed against one
//! process-wide monotonic epoch, buffered in per-thread vectors, and
//! drained into a process-global sink. The sink renders to Chrome
//! trace-event JSON (loadable in `about://tracing` / Perfetto) with one
//! lane per worker thread and — for sharded runs and traced service
//! daemons — one process group per shard worker, whose spans ride back
//! over the result frame as relative timestamps and are re-anchored in
//! the coordinator timeline.
//!
//! Tracing is **default-off**: the disabled path is a single relaxed
//! atomic load ([`enabled`]), so instrumented hot loops cost nothing
//! measurable (bench-gated by the `telemetry_overhead` group). Enable
//! with `DISCHARGE_TRACE=path.json`, or
//! [`Verifier::builder().trace_file(..)`](crate::api::VerifierBuilder::trace_file);
//! the trace file is written when the last owning session drops, or on
//! an explicit [`flush`].
//!
//! Spans carry no counters of their own: the `discharge` and `solve`
//! spans' arguments are the call's
//! [`EngineStats::counters`](crate::engine::EngineStats::counters) and the
//! goal's [`SolverStats::counters`](relaxed_smt::SolverStats::counters).

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::cache::json_string;

// ---- global state ----

/// The one flag the disabled path reads. Everything else hides behind
/// it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide monotonic epoch: every timestamp is µs since the first
/// telemetry call in the process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic thread-lane allocator (Chrome trace `tid`s).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The default process lane for locally recorded events. Re-anchored
/// shard-worker events get their own lanes (see [`inject`]).
const LOCAL_PID: u64 = 1;

/// Sink capacity bound: traces beyond this drop events (counted in the
/// `dropped` metadata arg) instead of growing without bound.
const MAX_EVENTS: usize = 1_000_000;

/// Per-thread buffer flush threshold.
const LOCAL_FLUSH: usize = 256;

struct Sink {
    /// Owner refcount from [`acquire_file`] / [`release`]. The last
    /// release writes the trace file and disables collection.
    owners: usize,
    /// Trace output path (`None` in capture mode).
    path: Option<PathBuf>,
    /// Worker-process capture mode: collect without a file, drained by
    /// [`capture_take`] into the shard result frame.
    capture: bool,
    events: Vec<Event>,
    dropped: u64,
    /// Process-lane labels beyond the local one (shard workers).
    process_names: BTreeMap<u64, String>,
    /// Thread-lane labels, recorded at first event per thread.
    thread_names: BTreeMap<u64, String>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            owners: 0,
            path: None,
            capture: false,
            events: Vec::new(),
            dropped: 0,
            process_names: BTreeMap::new(),
            thread_names: BTreeMap::new(),
        })
    })
}

/// Whether span collection is live. **One relaxed atomic load** — this
/// is the entire cost of the disabled path, so instrumentation sites
/// can call it (or [`span`], which starts with it) unconditionally.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process-wide telemetry epoch.
pub fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---- events ----

/// One completed span in the Chrome trace-event model (`ph:"X"`).
#[derive(Clone, Debug)]
pub struct Event {
    /// Span name (e.g. `solve`, `vcgen`).
    pub name: Cow<'static, str>,
    /// Category lane (e.g. `engine`, `cache`, `shard`, `service`).
    pub cat: Cow<'static, str>,
    /// Start, µs since the recording process's epoch.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Process lane (the local coordinator pid unless re-anchored from
    /// a worker).
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Span arguments (goal keys, solver-stats deltas, …). Keys are
    /// `Cow` so wire-parsed shard-worker spans (owned keys) share the
    /// type with locally recorded ones (`&'static` keys).
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

/// A span argument value: integers render as JSON numbers, everything
/// else as strings.
#[derive(Clone, Debug)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// String argument.
    Str(String),
}

impl ArgValue {
    /// Renders the value as a JSON scalar (numbers bare, strings
    /// escaped) — shared by the trace writer and the shard result-frame
    /// encoder.
    pub(crate) fn render(&self) -> String {
        match self {
            ArgValue::U64(n) => n.to_string(),
            ArgValue::I64(n) => n.to_string(),
            ArgValue::Str(s) => json_string(s),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(n: u64) -> Self {
        ArgValue::U64(n)
    }
}

impl From<i64> for ArgValue {
    fn from(n: i64) -> Self {
        ArgValue::I64(n)
    }
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(s)
    }
}

// ---- per-thread buffering ----

struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // Worker threads (`std::thread::scope` pools) exit long before
        // the trace is written: their buffers drain here.
        if !self.events.is_empty() {
            push_to_sink(std::mem::take(&mut self.events));
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

fn local_record(event: Event) {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), ToString::to_string);
            let mut sink = sink().lock().expect("telemetry sink lock");
            sink.thread_names.insert(tid, name);
            drop(sink);
            LocalBuf {
                tid,
                events: Vec::new(),
            }
        });
        let tid = buf.tid;
        let mut event = event;
        event.tid = tid;
        buf.events.push(event);
        if buf.events.len() >= LOCAL_FLUSH {
            push_to_sink(std::mem::take(&mut buf.events));
        }
    });
}

fn push_to_sink(events: Vec<Event>) {
    let mut sink = sink().lock().expect("telemetry sink lock");
    let room = MAX_EVENTS.saturating_sub(sink.events.len());
    if events.len() > room {
        sink.dropped += (events.len() - room) as u64;
    }
    sink.events.extend(events.into_iter().take(room));
}

/// Drains the current thread's buffer into the sink (the other
/// flush paths — thread exit, buffer overflow — handle everything
/// else). Called before snapshots and file writes.
fn drain_current_thread() {
    LOCAL.with(|cell| {
        if let Some(buf) = cell.borrow_mut().as_mut() {
            if !buf.events.is_empty() {
                push_to_sink(std::mem::take(&mut buf.events));
            }
        }
    });
}

/// Drains the calling thread's span buffer into the global sink.
///
/// Thread exit drains automatically, but [`std::thread::scope`] signals
/// completion when a spawned closure *returns* — before the thread's
/// thread-local destructors run — so a trace written right after a
/// scope join can race a pool lane's final drain. Every instrumented
/// pool closure therefore calls this as its last statement.
pub fn drain_thread() {
    drain_current_thread();
}

// ---- spans ----

/// An in-flight span, recorded when the guard drops. Inert (and free)
/// when tracing is disabled.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: Cow<'static, str>,
    cat: Cow<'static, str>,
    started_us: u64,
    args: Vec<(Cow<'static, str>, ArgValue)>,
}

impl SpanGuard {
    /// Attaches an argument (no-op when the span is inert). Use for
    /// values only known mid-span, e.g. `SolverStats` deltas.
    pub fn arg(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<ArgValue>) {
        if let Some(active) = &mut self.active {
            active.args.push((key.into(), value.into()));
        }
    }

    /// Whether the guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = now_us();
        local_record(Event {
            name: active.name,
            cat: active.cat,
            ts_us: active.started_us,
            dur_us: end.saturating_sub(active.started_us),
            pid: LOCAL_PID,
            tid: 0, // assigned by `local_record`
            args: active.args,
        });
    }
}

/// Opens a span: records a timed event for the guard's scope when
/// tracing is enabled, does nothing (one atomic load) otherwise.
#[inline]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(ActiveSpan {
            name: name.into(),
            cat: Cow::Borrowed(cat),
            started_us: now_us(),
            args: Vec::new(),
        }),
    }
}

// ---- trace ownership & output ----

/// Registers a trace-file owner (a [`Verifier`](crate::api::Verifier)
/// built with tracing): enables collection, remembers `path`. The first
/// owner's path wins — one trace per process.
pub fn acquire_file(path: &Path) {
    let mut sink = sink().lock().expect("telemetry sink lock");
    sink.owners += 1;
    if sink.path.is_none() {
        sink.path = Some(path.to_path_buf());
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Releases one trace-file owner. The last release writes the trace
/// (best-effort — errors go to the `diag` stderr channel), clears the
/// buffer, and disables collection.
pub fn release() {
    drain_current_thread();
    let mut sink = sink().lock().expect("telemetry sink lock");
    sink.owners = sink.owners.saturating_sub(1);
    if sink.owners > 0 || sink.capture {
        return;
    }
    if let Some(path) = sink.path.take() {
        if let Err(error) = write_trace(&path, &sink) {
            crate::diag::warn(format_args!(
                "failed to write trace {}: {error}",
                path.display()
            ));
        }
    }
    sink.events.clear();
    sink.dropped = 0;
    sink.process_names.clear();
    sink.thread_names.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Writes the trace file now, without releasing ownership or clearing
/// the buffer — for consumers that validate or tabulate the trace while
/// the session is still alive (`verify_corpus --trace`).
///
/// Returns the path written, or `None` when no trace file is
/// configured.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    drain_current_thread();
    let sink = sink().lock().expect("telemetry sink lock");
    let Some(path) = sink.path.clone() else {
        return Ok(None);
    };
    write_trace(&path, &sink)?;
    Ok(Some(path))
}

/// A copy of every event recorded so far (current thread drained
/// first) — the basis of the example's slow-goal table and the
/// overhead bench's span-count gauge.
pub fn snapshot() -> Vec<Event> {
    drain_current_thread();
    sink().lock().expect("telemetry sink lock").events.clone()
}

/// Starts worker-process capture mode: events collect in memory with no
/// output file, to be drained by [`capture_take`] into shard result
/// frames. Used by `relaxed-shardd` workers when the coordinator's
/// config frame requests tracing.
pub fn capture_start() {
    let mut sink = sink().lock().expect("telemetry sink lock");
    sink.capture = true;
    ENABLED.store(true, Ordering::Relaxed);
}

/// Drains every captured event (worker side). Successive calls return
/// disjoint batches, so per-job drains naturally scope to the job when
/// the worker drains after each solve.
pub fn capture_take() -> Vec<Event> {
    drain_current_thread();
    let mut sink = sink().lock().expect("telemetry sink lock");
    std::mem::take(&mut sink.events)
}

/// Re-anchors externally recorded events (a shard worker's, shipped as
/// relative timestamps) into this process's timeline: the caller has
/// already rebased `ts_us` and assigned a worker `pid`; `label` names
/// that process lane in the trace.
pub fn inject(label: &str, pid: u64, events: Vec<Event>) {
    if !enabled() {
        return;
    }
    let mut sink = sink().lock().expect("telemetry sink lock");
    sink.process_names
        .entry(pid)
        .or_insert_with(|| label.to_string());
    for (tid, name) in events
        .iter()
        .map(|e| (e.tid, format!("worker-thread-{}", e.tid)))
    {
        // Worker tids live in the worker pid's namespace, so the
        // coordinator's own thread labels (same numeric tids under
        // LOCAL_PID) are unaffected.
        sink.thread_names.entry(pid * 100_000 + tid).or_insert(name);
    }
    let room = MAX_EVENTS.saturating_sub(sink.events.len());
    if events.len() > room {
        sink.dropped += (events.len() - room) as u64;
    }
    sink.events.extend(events.into_iter().take(room));
}

/// Renders the Chrome trace-event JSON. Integers and strings only, so
/// the crate's own [`crate::cache::parse_json`] can validate it.
fn render_trace(sink: &Sink) -> String {
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let mut meta = |out: &mut String, name: &str, pid: u64, tid: u64, label: &str| {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            out,
            "{sep}{{\"ph\":\"M\",\"name\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json_string(name),
            json_string(label)
        );
    };
    meta(
        &mut out,
        "process_name",
        LOCAL_PID,
        0,
        "relaxed (coordinator)",
    );
    for (pid, label) in &sink.process_names {
        meta(&mut out, "process_name", *pid, 0, label);
    }
    let names: Vec<(u64, u64, String)> = sink
        .thread_names
        .iter()
        .map(|(key, name)| {
            // Keys ≥ 100_000 encode worker lanes as pid*100_000+tid
            // (see `inject`); everything below is a local thread.
            if *key >= 100_000 {
                (*key / 100_000, *key % 100_000, name.clone())
            } else {
                (LOCAL_PID, *key, name.clone())
            }
        })
        .collect();
    for (pid, tid, label) in names {
        meta(&mut out, "thread_name", pid, tid, &label);
    }
    for event in &sink.events {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            out,
            "{sep}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
            json_string(&event.name),
            json_string(&event.cat),
            event.ts_us,
            event.dur_us,
            event.pid,
            event.tid
        );
        if !event.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in event.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(key), value.render());
            }
            out.push('}');
        }
        out.push('}');
    }
    let _ = write!(out, "\n],\n\"dropped\": {}\n}}\n", sink.dropped);
    out
}

fn write_trace(path: &Path, sink: &Sink) -> std::io::Result<()> {
    std::fs::write(path, render_trace(sink))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        assert!(!enabled());
        let mut guard = span("engine", "solve");
        guard.arg("goal", "g0");
        assert!(!guard.is_active());
        drop(guard);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn argvalue_renders_json_scalars() {
        assert_eq!(ArgValue::from(7u64).render(), "7");
        assert_eq!(ArgValue::from(-7i64).render(), "-7");
        assert_eq!(ArgValue::from("a\"b").render(), "\"a\\\"b\"");
    }
}
