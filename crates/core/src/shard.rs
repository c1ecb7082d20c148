//! The worker fleet behind the networked verification service.
//!
//! The paper's acceptability proofs decompose into independent per-program
//! obligations (one staged `⊢o`/`⊢i`/`⊢r` check each), so a corpus is
//! embarrassingly parallel beyond one process. This module is the
//! process-level execution layer behind the [`crate::service`] daemon:
//! the worker **fleet** (`Fleet`) of **worker processes** (the
//! `relaxed-shardd` binary, whose entire logic is [`worker_main`] in this
//! module), the framed protocol both ends speak, one job per program, and
//! the result-to-entry code that turns the answers into the same corpus
//! entries an in-process run produces. Like every corpus driver, the
//! service client returns only its programs' entries, in input order and
//! without lint, plus its fan-out: [`Verifier::check_corpus`] alone
//! replays unchanged programs, attaches lint and folds the statistics
//! into the [`CorpusReport`]. The worker that runs a program is the only
//! process that generates its obligations, and the only one that records
//! its depmap revision.
//!
//! # Protocol
//!
//! Frames are newline-delimited JSON objects — the same hand-rolled,
//! dependency-free conventions as the [`crate::cache`] store (whose
//! reader this module reuses). One frame per line; JSON string escaping
//! guarantees a frame never spans lines. The framing is
//! transport-agnostic: the fleet speaks it to its workers over
//! child-process stdio pipes, and the service client speaks the identical
//! frames to the daemon ([`crate::service`]) over TCP, both behind this
//! module's `Transport` trait.
//!
//! ```text
//! fleet → worker              worker → fleet
//! ---------------------       ---------------------
//! {"type":"config",...}       {"type":"ready","proto":3}
//! {"type":"job","id":0,...}   {"type":"result","id":0,...}
//! {"type":"job","id":3,...}   {"type":"result","id":3,...}
//! <EOF>                       (the session's drop flushes, exit 0)
//! ```
//!
//! The `config` frame carries the session's typed configuration (solver
//! budgets, stage selection, per-worker thread budget, cache path); each
//! `job` frame carries one serialized program + spec (the pretty-printed
//! source, which round-trips through the parser); each
//! `result` frame carries, stage by stage, every obligation's name,
//! context and verdict, plus the job's [`EngineStats::counters`], each
//! stage's [`SolverStats::counters`](relaxed_smt::SolverStats::counters),
//! and wall time. A job that produced no report carries its `error`
//! instead; a vcgen failure also rides typed (`vcgen`), so the client's
//! entry is the [`CorpusError::Vcgen`] an in-process run records. The
//! client runs no vcgen: it builds each row from the frame alone, through
//! the placeholder-row builder replay uses (no formula body, no fragment
//! deps; an `Invalid` verdict keeps its witness), and checks only that
//! the frame's stage list is its session's selection.
//!
//! # The fleet
//!
//! A `Fleet` has `size` worker slots. The daemon starts one relay thread
//! per slot, and that thread is the only owner of the slot's worker: it
//! relays each job it takes from the daemon's queue to the worker and
//! reads the result back. A worker crash, a malformed or mismatched
//! response frame, or a response timeout kills that worker and retries
//! the job on a replacement spawned into the same slot (a new process, so
//! accumulated worker state can never fail the same job twice); a failed
//! spawn is a failed attempt too. After [`MAX_ATTEMPTS`] failed attempts
//! the job fails, the slot stays empty until its next job spawns a
//! worker, and the client records the job as a per-program
//! [`CorpusError::Service`] — never a lost program, never a hung daemon.
//! The relay is the one place where worker spans are re-anchored into
//! this process's trace.
//!
//! A worker keeps the parse of each program name's last job: a job whose
//! five source strings are byte-equal to it replays without parsing
//! again. The daemon spawns its whole fleet up front and drains it on
//! `shutdown`, after its last admitted job: each relay thread then shuts
//! its own worker down. The client sends its jobs largest frame first, so
//! one slow program cannot serialize the tail of the corpus: frame size
//! tracks proof cost better than obligation count does (see
//! `prepare_jobs`).
//!
//! # Cache-mediated verdict sharing
//!
//! Under [`CachePolicy::Persistent`]
//! every worker's session opens the same fingerprint-gated verdict store
//! and its depmap sidecar. Before each job it reads both files again
//! where they changed (a `stat` of length and modification time skips an
//! unchanged file): verdicts sibling workers published answer shared
//! goals, counted as [`EngineStats::disk_hits`], and the sidecar's
//! records replay whole programs, even ones this worker never ran. After
//! each job it flushes its fresh verdicts and, when it ran the program
//! live, the program's depmap record ([`Verifier::persist`]). A flush
//! appends under the file's own header, so one worker's flush never drops
//! a sibling's entries; a file under another configuration's header is
//! written whole once, and appended to after that. A persistent client on
//! the same store reads both files again after its run, so its later
//! checks replay the programs the fleet ran. A client on another store
//! records nothing for them: its store never held their verdicts, so such
//! a record could not replay.
//!
//! [`Verifier::check_corpus`]: crate::api::Verifier::check_corpus
//! [`Verifier::persist`]: crate::api::Verifier::persist
//! [`CorpusReport`]: crate::api::CorpusReport
//! [`CorpusError::Service`]: crate::api::CorpusError::Service
//! [`EngineStats::disk_hits`]: crate::engine::EngineStats::disk_hits
//! [`EngineStats::counters`]: crate::engine::EngineStats::counters

use crate::api::{
    elapsed_ms_since, CachePolicy, Config, CorpusEntry, CorpusError, Stage, StageSet, Verifier,
};
use crate::cache::{
    field_str, field_u64, get, json_string, parse_json, parse_verdict, render_verdict, Json,
};
use crate::engine::EngineStats;
use crate::vcgen::VcgenError;
use crate::verify::{AcceptabilityReport, Report, Spec, VcResult};
use relaxed_lang::{parse_formula, parse_program, parse_rel_formula, Program};
use relaxed_smt::SolverStats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the coordinator/worker wire protocol. The worker echoes it
/// in its `ready` frame; a mismatch fails the handshake (and the job is
/// retried elsewhere, ultimately surfacing as a per-program error rather
/// than silently mixing protocol revisions).
pub const PROTOCOL_VERSION: u32 = 3;

/// File name of the worker binary (`relaxed-shardd`, plus the platform
/// executable suffix), used by [`locate_worker`].
pub const WORKER_BINARY: &str = "relaxed-shardd";

/// File name of the service daemon binary (`relaxed-serviced`, plus the
/// platform executable suffix), used by [`locate_service`]. See
/// [`crate::service`].
pub const SERVICE_BINARY: &str = "relaxed-serviced";

/// Attempts a job may consume before it is recorded as a per-program
/// error: the first run plus two retries on other workers.
pub const MAX_ATTEMPTS: u32 = 3;

/// How long the fleet and the service client wait for a freshly spawned
/// or connected peer to answer the config handshake with `ready`.
pub(crate) const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the fleet waits for a worker to answer one job frame before
/// it kills the worker and retries, and how long the service client
/// waits for any frame from the daemon before it fails the jobs still
/// pending.
pub(crate) const JOB_TIMEOUT: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------
// Worker-binary discovery
// ---------------------------------------------------------------------

/// Probes every ancestor directory of `std::env::current_exe()` for
/// `name` (plus the platform executable suffix). Finds Cargo's
/// `target/<profile>/<name>` from test binaries (`…/deps/…`), examples
/// (`…/examples/…`), and sibling binaries alike. `Err` carries the full
/// list of probed candidate paths, for actionable discovery-failure
/// diagnostics.
pub(crate) fn locate_binary(name: &str) -> Result<PathBuf, Vec<PathBuf>> {
    let mut searched = Vec::new();
    let Ok(exe) = std::env::current_exe() else {
        return Err(searched);
    };
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    for dir in exe.ancestors().skip(1) {
        let candidate = dir.join(&file);
        if candidate.is_file() {
            return Ok(candidate);
        }
        searched.push(candidate);
    }
    Err(searched)
}

/// Locates the `relaxed-shardd` worker binary by walking the ancestor
/// directories of the current executable. Explicit configuration
/// (`Verifier::builder().shard_worker(..)` or the `RELAXED_SHARDD`
/// environment knob under the env layer) takes precedence over discovery
/// and is handled by the caller.
pub fn locate_worker() -> Option<PathBuf> {
    locate_binary(WORKER_BINARY).ok()
}

/// Locates the `relaxed-serviced` daemon binary next to the current
/// executable — the service-side analogue of
/// [`locate_worker`], used by benches and `paper_report` to start a
/// daemon without a hardcoded path.
pub fn locate_service() -> Option<PathBuf> {
    locate_binary(SERVICE_BINARY).ok()
}

fn render_searched(searched: &[PathBuf]) -> String {
    if searched.is_empty() {
        "(no current-executable path to search from)".to_string()
    } else {
        searched
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

pub(crate) fn resolve_worker(config: &Config) -> Result<PathBuf, String> {
    if let Some(path) = &config.shard_worker {
        return Ok(path.clone());
    }
    locate_binary(WORKER_BINARY).map_err(|searched| {
        format!(
            "{WORKER_BINARY} worker binary not found near the current executable \
             (searched: {}); build it (`cargo build -p relaxed-bench`), set \
             RELAXED_SHARDD, or use `Verifier::builder().shard_worker(..)`",
            render_searched(&searched)
        )
    })
}

// ---------------------------------------------------------------------
// Frame rendering (shared by both sides)
// ---------------------------------------------------------------------

fn render_stages(stages: StageSet) -> String {
    stages.iter().map(Stage::name).collect::<Vec<_>>().join(",")
}

fn parse_stages(text: &str) -> Result<StageSet, String> {
    let mut stages = StageSet::none();
    for name in text.split(',').filter(|s| !s.is_empty()) {
        stages = stages.with(Stage::from_name(name)?);
    }
    Ok(stages)
}

pub(crate) fn render_config_frame(config: &Config, per_worker: usize) -> String {
    let cache = match &config.cache {
        CachePolicy::Persistent { path } => path.display().to_string(),
        CachePolicy::Shared => String::new(),
    };
    // Coordinator-side tracing travels with the session: workers capture
    // spans in memory and ship them back inside result frames.
    let trace = u8::from(crate::telemetry::enabled());
    format!(
        "{{\"type\":\"config\",\"proto\":{PROTOCOL_VERSION},\"max_conflicts\":{},\
         \"branch_budget\":{},\"workers\":{per_worker},\"trace\":{trace},\
         \"stages\":{},\"cache\":{}}}",
        config.max_conflicts,
        config.branch_budget,
        json_string(&render_stages(config.stages)),
        json_string(&cache),
    )
}

fn render_job_frame(id: usize, name: &str, program: &Program, spec: &Spec) -> String {
    format!(
        "{{\"type\":\"job\",\"id\":{id},\"name\":{},\
         \"program\":{},\"pre\":{},\
         \"post\":{},\"rel_pre\":{},\"rel_post\":{}}}",
        json_string(name),
        json_string(&program.to_string()),
        json_string(&spec.pre.to_string()),
        json_string(&spec.post.to_string()),
        json_string(&spec.rel_pre.to_string()),
        json_string(&spec.rel_post.to_string()),
    )
}

/// Writes `counters` as comma-separated `"name":value` pairs: the wire
/// form of [`EngineStats::counters`] and [`SolverStats::counters`].
fn push_counters(out: &mut String, counters: &[(&str, u64)]) {
    for (i, (name, value)) in counters.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{value}");
    }
}

/// Span budget per result frame: a worker ships at most this many spans
/// back, so a pathological job cannot balloon the frame (the dropped
/// tail is the deepest-nested spans; the coarse phase picture survives).
const MAX_FRAME_SPANS: usize = 4096;

/// The longest frame a [`TcpTransport`] buffers before it fails the
/// channel, so one peer that never sends a newline cannot make this
/// process buffer without bound. It sits far above any frame the crate
/// writes: the largest is a traced result frame, and that carries at
/// most [`MAX_FRAME_SPANS`] spans whose goal labels are cut at 96
/// characters, a few MiB at worst.
const MAX_FRAME_BYTES: usize = 16 << 20;

pub(crate) fn render_result_frame(
    id: usize,
    report: &AcceptabilityReport,
    elapsed_ms: u64,
    spans: &[crate::telemetry::Event],
    mark_us: u64,
) -> String {
    let mut out = format!("{{\"type\":\"result\",\"id\":{id},\"elapsed_ms\":{elapsed_ms},");
    push_counters(&mut out, &report.engine.counters());
    out.push_str(",\"stages\":[");
    for (i, (stage, stage_report)) in report.stage_reports().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"stage\":\"{}\",\"stats\":{{", stage.name()));
        push_counters(&mut out, &stage_report.stats.counters());
        out.push_str("},\"verdicts\":[");
        for (j, result) in stage_report.results.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"context\":{},",
                json_string(&result.vc.name),
                json_string(&result.vc.context)
            );
            render_verdict(&mut out, &result.verdict);
            let _ = write!(out, ",\"cached\":{}}}", u8::from(result.cached));
        }
        out.push_str("]}");
    }
    out.push(']');
    if !spans.is_empty() {
        // Worker spans ride back as timestamps *relative to the job
        // dispatch mark*: the coordinator re-anchors them into its own
        // timeline (see `Fleet::relay`), so the two processes never
        // need a shared clock.
        out.push_str(",\"spans\":[");
        for (i, event) in spans.iter().take(MAX_FRAME_SPANS).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"rel_ts_us\":{},\"dur_us\":{},\"tid\":{}",
                json_string(&event.name),
                json_string(&event.cat),
                event.ts_us.saturating_sub(mark_us),
                event.dur_us,
                event.tid,
            ));
            if !event.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in event.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{}", json_string(key), value.render()));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
    out
}

pub(crate) fn render_error_frame(id: usize, error: &str) -> String {
    format!(
        "{{\"type\":\"result\",\"id\":{id},\"error\":{}}}",
        json_string(error)
    )
}

/// The result frame of a job that produced no report: its `error`, and a
/// vcgen failure also typed in `vcgen`, so the client's entry keeps
/// [`CorpusError::Vcgen`].
fn render_failure_frame(id: usize, failure: &CorpusError) -> String {
    let e = match failure {
        CorpusError::Service(reason) => return render_error_frame(id, reason),
        CorpusError::Vcgen(e) => e,
    };
    let (variant, context, detail) = e.to_parts();
    let mut out = render_error_frame(id, &e.to_string());
    out.pop();
    let _ = write!(
        out,
        ",\"vcgen\":{{\"variant\":\"{variant}\",\"context\":{},\"detail\":{}}}}}",
        json_string(context),
        json_string(&detail)
    );
    out
}

// ---------------------------------------------------------------------
// Frame parsing (coordinator side, plus the worker's request reader)
// ---------------------------------------------------------------------

/// A parsed result frame.
pub(crate) struct WireResult {
    pub(crate) id: usize,
    pub(crate) elapsed_ms: u64,
    /// Worker-side telemetry spans, `ts_us` still *relative* to the job
    /// dispatch mark (`pid` is a placeholder until the coordinator
    /// re-anchors them into its timeline).
    pub(crate) spans: Vec<crate::telemetry::Event>,
    /// The worker's report, or why the job produced none: a vcgen failure
    /// as [`CorpusError::Vcgen`], any other `error` as
    /// [`CorpusError::Service`].
    pub(crate) outcome: Result<WireReport, CorpusError>,
}

/// The report of a result frame: each stage's placeholder rows and
/// solver counters, in frame order, and the job's engine counters.
pub(crate) struct WireReport {
    stages: Vec<(Stage, Report)>,
    engine: EngineStats,
}

impl WireReport {
    /// The program's report, once the frame's stage list is the session's
    /// `selection`: the one check the client makes, since it has no
    /// obligations of its own to compare with.
    fn into_report(self, selection: StageSet) -> Result<AcceptabilityReport, CorpusError> {
        if !self
            .stages
            .iter()
            .map(|(stage, _)| *stage)
            .eq(selection.iter())
        {
            let sent: Vec<&str> = self.stages.iter().map(|(stage, _)| stage.name()).collect();
            return Err(CorpusError::Service(format!(
                "result frame carries stages [{}], the session selected [{}]",
                sent.join(","),
                render_stages(selection)
            )));
        }
        let mut report = AcceptabilityReport::from_stages(self.stages);
        report.engine = self.engine;
        Ok(report)
    }
}

pub(crate) fn parse_result_frame(line: &str) -> Result<WireResult, String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    if field_str(fields, "type")? != "result" {
        return Err("expected a result frame".to_string());
    }
    let id = field_u64(fields, "id")? as usize;
    if let Some(Json::Str(error)) = get(fields, "error") {
        let failure = match get(fields, "vcgen") {
            Some(vcgen) => {
                let e = vcgen.as_object()?;
                let part = |key| field_str(e, key);
                let (variant, context, detail) =
                    (part("variant")?, part("context")?, part("detail")?);
                CorpusError::Vcgen(VcgenError::from_parts(variant, context, detail)?)
            }
            None => CorpusError::Service(error.clone()),
        };
        return Ok(WireResult {
            id,
            elapsed_ms: 0,
            spans: Vec::new(),
            outcome: Err(failure),
        });
    }
    let engine = EngineStats::from_counters(|name| field_u64(fields, name))?;
    // Rows read off the wire carry no fragment deps: they are never
    // recorded, so they all share one empty list.
    let no_deps: Arc<[String]> = Vec::new().into();
    let mut stages = Vec::new();
    let stage_items = get(fields, "stages")
        .ok_or("missing `stages`")?
        .as_array()?;
    for item in stage_items {
        let stage_fields = item.as_object()?;
        let stage = Stage::from_name(field_str(stage_fields, "stage")?)?;
        let stats_fields = get(stage_fields, "stats")
            .ok_or("missing `stats`")?
            .as_object()?;
        let stats = SolverStats::from_counters(|name| field_u64(stats_fields, name))?;
        let mut results = Vec::new();
        for row in get(stage_fields, "verdicts")
            .ok_or("missing `verdicts`")?
            .as_array()?
        {
            let row = row.as_object()?;
            results.push(VcResult::placeholder(
                field_str(row, "name")?.to_string(),
                field_str(row, "context")?.to_string(),
                Arc::clone(&no_deps),
                parse_verdict(row)?,
                field_u64(row, "cached")? != 0,
            ));
        }
        let report = Report {
            results,
            stats,
            ..Report::default()
        };
        stages.push((stage, report));
    }
    // Optional: only present when the coordinator asked for tracing. A
    // malformed span argument degrades to skipping that argument, never
    // the frame — telemetry must not fail a verdict-bearing result.
    let mut spans = Vec::new();
    if let Some(items) = get(fields, "spans") {
        for item in items.as_array()? {
            let span_fields = item.as_object()?;
            let mut args = Vec::new();
            if let Some(arg_items) = get(span_fields, "args") {
                for (key, value) in arg_items.as_object()? {
                    let value = match value {
                        Json::Int(n) => {
                            if let Ok(unsigned) = u64::try_from(*n) {
                                crate::telemetry::ArgValue::U64(unsigned)
                            } else if let Ok(signed) = i64::try_from(*n) {
                                crate::telemetry::ArgValue::I64(signed)
                            } else {
                                crate::telemetry::ArgValue::Str(n.to_string())
                            }
                        }
                        Json::Str(s) => crate::telemetry::ArgValue::Str(s.clone()),
                        _ => continue,
                    };
                    args.push((std::borrow::Cow::Owned(key.clone()), value));
                }
            }
            spans.push(crate::telemetry::Event {
                name: std::borrow::Cow::Owned(field_str(span_fields, "name")?.to_string()),
                cat: std::borrow::Cow::Owned(field_str(span_fields, "cat")?.to_string()),
                ts_us: field_u64(span_fields, "rel_ts_us")?,
                dur_us: field_u64(span_fields, "dur_us")?,
                pid: 0, // assigned when the coordinator re-anchors
                tid: field_u64(span_fields, "tid")?,
                args,
            });
        }
    }
    Ok(WireResult {
        id,
        elapsed_ms: field_u64(fields, "elapsed_ms")?,
        spans,
        outcome: Ok(WireReport { stages, engine }),
    })
}

// ---------------------------------------------------------------------
// The worker (the entire logic of the `relaxed-shardd` binary)
// ---------------------------------------------------------------------

/// A fault injected into the worker for shard fault-tolerance tests, read
/// from `RELAXED_SHARDD_FAULT`:
///
/// * `crash:<n>` — exit abruptly (code 101) when the n-th job of this
///   process arrives, before responding;
/// * `garbage:<n>` — answer the n-th job with a malformed frame instead
///   of a result.
///
/// Unset or unparsable values inject nothing. Production corpora never
/// set this; it exists so the fleet's requeue/retry path is
/// testable against real process crashes and real protocol corruption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fault {
    /// No fault injected (the default).
    #[default]
    None,
    /// Exit without responding when job number `n` (1-based) arrives.
    Crash(u64),
    /// Emit a malformed frame for job number `n` (1-based).
    Garbage(u64),
}

impl Fault {
    /// Reads the fault hook from `RELAXED_SHARDD_FAULT`.
    pub fn from_env() -> Fault {
        match std::env::var("RELAXED_SHARDD_FAULT") {
            Ok(value) => Fault::parse(&value),
            Err(_) => Fault::None,
        }
    }

    fn parse(value: &str) -> Fault {
        let Some((kind, n)) = value.split_once(':') else {
            return Fault::None;
        };
        let Ok(n) = n.trim().parse::<u64>() else {
            return Fault::None;
        };
        match kind.trim() {
            "crash" => Fault::Crash(n),
            "garbage" => Fault::Garbage(n),
            _ => Fault::None,
        }
    }
}

/// The `relaxed-shardd` entry point: runs [`worker_loop`] over the
/// process's stdin/stdout with the [`Fault`] hook from the environment.
/// The worker binary is a one-line `main` calling this, so the entire
/// protocol implementation lives (and is unit-tested) in this module.
// Bin entry point: stderr is the process's own surface, not a library's.
#[allow(clippy::print_stderr)]
pub fn worker_main() -> std::process::ExitCode {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match worker_loop(stdin, stdout, Fault::from_env()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{WORKER_BINARY}: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// The worker side of the shard protocol: reads a `config` frame, then
/// `job` frames, verifying each program through one [`Verifier`] session
/// and writing a `result` frame per job; EOF is the shutdown signal (the
/// loop returns, and dropping the session flushes whatever a failed
/// per-job flush left). See the
/// [module docs](self) for the frame shapes.
///
/// # Errors
///
/// Returns an error on I/O failure or a malformed request frame — the
/// fleet treats a dead worker as a crash and requeues its job.
pub fn worker_loop(
    input: impl BufRead,
    mut output: impl Write,
    fault: Fault,
) -> std::io::Result<()> {
    let violation = |reason: String| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let mut verifier: Option<Verifier> = None;
    let mut parsed = ParsedJobs::default();
    let mut handled = 0u64;
    let mut send = |frame: &str| write_frame(&mut output, frame).and_then(|()| output.flush());
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_json(&line).map_err(&violation)?;
        let fields = record.as_object().map_err(&violation)?;
        match field_str(fields, "type").map_err(&violation)? {
            "config" => {
                let config = parse_config_frame(fields).map_err(&violation)?;
                verifier = Some(Verifier::with_config(config));
                // Capture is enabled here — NOT in `parse_config_frame`,
                // which the service daemon shares for validating *client*
                // sessions (a client frame must never switch the daemon
                // into capture mode).
                if field_u64(fields, "trace").unwrap_or(0) != 0 {
                    crate::telemetry::capture_start();
                }
                send(&format!(
                    "{{\"type\":\"ready\",\"proto\":{PROTOCOL_VERSION}}}"
                ))?;
            }
            "job" => {
                let id = field_u64(fields, "id").map_err(&violation)? as usize;
                handled += 1;
                match fault {
                    Fault::Crash(n) if handled == n => std::process::exit(101),
                    Fault::Garbage(n) if handled == n => {
                        send(&format!(
                            "@@ corrupt frame (injected by {WORKER_BINARY}) @@"
                        ))?;
                        continue;
                    }
                    _ => {}
                }
                let Some(session) = &verifier else {
                    send(&render_error_frame(id, "job before config"))?;
                    continue;
                };
                // Everything captured after this mark belongs to this
                // job: span timestamps ship relative to it.
                let mark_us = crate::telemetry::now_us();
                let frame = match run_job(session, &mut parsed, fields) {
                    Ok((report, elapsed_ms)) => {
                        let spans = crate::telemetry::capture_take();
                        render_result_frame(id, &report, elapsed_ms, &spans, mark_us)
                    }
                    Err(failure) => {
                        // Discard the failed job's partial capture so it
                        // cannot bleed into the next job's frame.
                        drop(crate::telemetry::capture_take());
                        render_failure_frame(id, &failure)
                    }
                };
                send(&frame)?;
            }
            other => return Err(violation(format!("unknown frame type {other:?}"))),
        }
    }
    Ok(())
}

/// Writes `frame` and its newline with one `write_all`, so a frame never
/// leaves as two writes: a second write is one more pipe wake-up or
/// 1-byte TCP segment, and a line-buffered stdout splits any frame longer
/// than its buffer that way.
pub(crate) fn write_frame(out: &mut impl Write, frame: &str) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(frame.len() + 1);
    line.extend_from_slice(frame.as_bytes());
    line.push(b'\n');
    out.write_all(&line)
}

/// Parses the session [`Config`] out of a `config` frame's fields — the
/// worker side of the handshake, shared with the service daemon (which
/// validates client sessions against its fleet's configuration).
pub(crate) fn parse_config_frame(fields: &[(String, Json)]) -> Result<Config, String> {
    let proto = field_u64(fields, "proto")?;
    if proto != u64::from(PROTOCOL_VERSION) {
        return Err(format!(
            "protocol mismatch: coordinator speaks {proto}, this worker {PROTOCOL_VERSION}"
        ));
    }
    let mut config = Config {
        max_conflicts: field_u64(fields, "max_conflicts")?,
        branch_budget: field_u64(fields, "branch_budget")?,
        workers: field_u64(fields, "workers")? as usize,
        stages: parse_stages(field_str(fields, "stages")?)?,
        ..Config::default()
    };
    let cache = field_str(fields, "cache")?;
    if !cache.is_empty() {
        config.cache = CachePolicy::Persistent {
            path: PathBuf::from(cache),
        };
    }
    Ok(config)
}

/// The job-frame fields a program and its spec parse from, in the order
/// [`ParsedJob::sources`] keeps them.
const SOURCE_FIELDS: [&str; 5] = ["program", "pre", "post", "rel_pre", "rel_post"];

/// How many program names a worker keeps the parse of. A job under a new
/// name past this many forgets them all, so a long-lived worker's memory
/// stays bounded whatever names its clients send.
const MAX_PARSED_NAMES: usize = 1024;

/// A worker's parse of each program name's last job, so an unchanged job
/// costs only its replay: one entry per name, reused only when all five
/// source strings are byte-equal to the job's. The text itself is
/// compared, never a hash of it.
#[derive(Default)]
struct ParsedJobs {
    by_name: HashMap<String, ParsedJob>,
    /// How many jobs were parsed rather than reused.
    parses: u64,
}

/// The five source strings of one job and what they parsed to.
struct ParsedJob {
    /// The job's [`SOURCE_FIELDS`], as sent.
    sources: [String; 5],
    program: Program,
    spec: Spec,
}

impl ParsedJobs {
    /// The name, program and spec of a `job` frame: the name's entry when
    /// its five sources are unchanged, else a fresh parse, which replaces
    /// the entry. A text that fails to parse is never stored.
    fn parse<'a>(
        &'a mut self,
        fields: &'a [(String, Json)],
    ) -> Result<(&'a str, &'a Program, &'a Spec), String> {
        let name = field_str(fields, "name")?;
        let source = |key| field_str(fields, key);
        let unchanged = self.by_name.get(name).is_some_and(|job| {
            job.sources
                .iter()
                .zip(SOURCE_FIELDS)
                .all(|(text, key)| source(key) == Ok(text.as_str()))
        });
        if !unchanged {
            let program = parse_program(source("program")?).map_err(|e| format!("program: {e}"))?;
            let spec = Spec {
                pre: parse_formula(source("pre")?).map_err(|e| format!("pre: {e}"))?,
                post: parse_formula(source("post")?).map_err(|e| format!("post: {e}"))?,
                rel_pre: parse_rel_formula(source("rel_pre")?)
                    .map_err(|e| format!("rel_pre: {e}"))?,
                rel_post: parse_rel_formula(source("rel_post")?)
                    .map_err(|e| format!("rel_post: {e}"))?,
            };
            self.parses += 1;
            if self.by_name.len() >= MAX_PARSED_NAMES && !self.by_name.contains_key(name) {
                self.by_name.clear();
            }
            let sources = SOURCE_FIELDS.map(|key| source(key).unwrap_or_default().to_string());
            let job = ParsedJob {
                sources,
                program,
                spec,
            };
            self.by_name.insert(name.to_string(), job);
        }
        let job = &self.by_name[name];
        Ok((name, &job.program, &job.spec))
    }
}

/// Verifies one job through the worker's session, reading the session's
/// files again before the check and flushing both after, so sibling
/// workers can reuse the verdicts and replay the program. The program and
/// spec come from `parsed`, which parses only a job whose source changed.
/// `Err` is the program's [`CorpusError`]: a frame that did not parse is
/// a [`CorpusError::Service`], a vcgen failure its own.
fn run_job(
    session: &Verifier,
    parsed: &mut ParsedJobs,
    fields: &[(String, Json)],
) -> Result<(AcceptabilityReport, u64), CorpusError> {
    let (name, program, spec) = parsed.parse(fields).map_err(CorpusError::Service)?;
    // Pick up what was persisted since the last job: sibling workers'
    // verdicts answer shared goals as disk hits, the cross-process
    // payoff, and the sidecar's records replay whole programs.
    session.refresh();
    let started = Instant::now();
    let entry = session
        .run_corpus(vec![(name.to_string(), program, spec)])
        .entries
        .remove(0);
    let elapsed_ms = elapsed_ms_since(started);
    // Publish this job's fresh verdicts and, when the program ran live,
    // its depmap record: each appended under its file's own header, so a
    // sibling's records are never dropped.
    if let Err(e) = session.persist() {
        crate::diag::warn(format_args!(
            "{WORKER_BINARY}: failed to persist the verdict cache: {e}"
        ));
    }
    Ok((entry.outcome?, elapsed_ms))
}

// ---------------------------------------------------------------------
// The fleet and the client's jobs
// ---------------------------------------------------------------------

/// One program's job for a daemon's fleet (see [`crate::service`]): the
/// client sends its frame and never generates its obligations.
pub(crate) struct ShardJob {
    /// Index of the program in corpus input order: the result slot this
    /// job's entry fills, and its wire job id.
    pub(crate) id: usize,
    pub(crate) name: String,
    pub(crate) frame: String,
}

/// Renders every program's job, largest frame first (ties in corpus
/// order), so the slowest proofs start at once and the corpus tail is
/// short jobs. A frame's size tracks its proof's cost better than the
/// program's obligation count: on the paper's corpus the two largest
/// frames, `lu_broken`'s and `lu`'s, are its two slowest proofs, yet they
/// have the fewest obligations.
pub(crate) fn prepare_jobs(programs: &[(String, &Program, &Spec)]) -> Vec<ShardJob> {
    let mut jobs: Vec<ShardJob> = programs
        .iter()
        .enumerate()
        .map(|(id, (name, program, spec))| ShardJob {
            id,
            name: name.clone(),
            frame: render_job_frame(id, name, program, spec),
        })
        .collect();
    jobs.sort_by_key(|job| (std::cmp::Reverse(job.frame.len()), job.id));
    jobs
}

/// A framed newline-JSON channel to a protocol peer. One frame per
/// [`send`](Transport::send); [`recv_opt`](Transport::recv_opt) waits at
/// most a timeout for the next frame, distinguishing "still quiet"
/// (`Ok(None)`) from a dead channel (`Err`). The fleet speaks it to its
/// workers over child-process pipes ([`PipeTransport`]); the networked
/// service layer ([`crate::service`]) speaks the identical protocol over
/// TCP ([`TcpTransport`]). `Send` so a handle can migrate across handler
/// threads.
pub(crate) trait Transport: Send {
    /// Writes one frame (the newline is appended here) and flushes.
    fn send(&mut self, frame: &str) -> Result<(), String>;

    /// Reads the next frame, waiting at most `timeout`. `Ok(None)` means
    /// the timeout elapsed with the channel still healthy (a later call
    /// may still deliver the frame — nothing is lost).
    fn recv_opt(&mut self, timeout: Duration) -> Result<Option<String>, String>;

    /// Hard stop: tear the channel down without ceremony (kill the
    /// process / drop the socket).
    fn abort(&mut self);

    /// Graceful stop: signal end-of-jobs (stdin EOF / TCP write-half
    /// shutdown, the peer's cue to run its final flush) and wait for
    /// the peer to wind down.
    fn finish(&mut self);
}

/// [`Transport`] over a spawned worker process's stdio. Stdout is drained
/// by a detached reader thread into an mpsc channel so the fleet can
/// time out on a hung worker instead of blocking forever.
pub(crate) struct PipeTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<std::io::Result<String>>,
}

impl PipeTransport {
    pub(crate) fn spawn(binary: &std::path::Path) -> Result<PipeTransport, String> {
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("failed to spawn {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(PipeTransport {
            child,
            stdin: Some(stdin),
            lines: rx,
        })
    }
}

impl Transport for PipeTransport {
    fn send(&mut self, frame: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("worker stdin open");
        write_frame(stdin, frame)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("worker stdin closed: {e}"))
    }

    fn recv_opt(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(Ok(line)) => Ok(Some(line)),
            Ok(Err(e)) => Err(format!("worker stdout read failed: {e}")),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(match self.child.try_wait() {
                Ok(Some(status)) => format!("worker exited unexpectedly ({status})"),
                _ => "worker exited unexpectedly".to_string(),
            }),
        }
    }

    fn abort(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn finish(&mut self) {
        // Dropping stdin is the worker's EOF signal (its cue for the
        // final flush); then reap the process.
        self.stdin.take();
        let _ = self.child.wait();
    }
}

/// [`Transport`] over a TCP stream, speaking to a `relaxed-serviced`
/// daemon (or any peer of the same framed protocol). Reads are
/// deadline-bounded via `set_read_timeout`; a partially received line
/// survives in the buffer across timeouts, so slow frames are delayed,
/// never torn. A line longer than [`MAX_FRAME_BYTES`] fails the channel.
pub(crate) struct TcpTransport {
    stream: std::net::TcpStream,
    peer: String,
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are known to hold no newline, so
    /// each read scans only the bytes it added.
    scanned: usize,
}

impl TcpTransport {
    /// Connects to `addr` (`host:port`), bounding the connection attempt
    /// by `timeout` per resolved address.
    pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<TcpTransport, String> {
        use std::net::ToSocketAddrs;
        let resolved: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .collect();
        let mut last = format!("{addr} did not resolve to any address");
        for sock in resolved {
            match std::net::TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => return Ok(TcpTransport::from_stream(stream, addr.to_string())),
                Err(e) => last = format!("cannot connect to {addr}: {e}"),
            }
        }
        Err(last)
    }

    /// Wraps an already-connected stream (the daemon side of an accepted
    /// connection uses this).
    pub(crate) fn from_stream(stream: std::net::TcpStream, peer: String) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            peer,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    fn take_line(&mut self) -> Option<Result<String, String>> {
        let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        let end = newline.map_or(self.buf.len(), |at| self.scanned + at);
        if end > MAX_FRAME_BYTES {
            return Some(Err(format!(
                "frame from {} exceeds {MAX_FRAME_BYTES} bytes",
                self.peer
            )));
        }
        if newline.is_none() {
            self.scanned = end;
            return None;
        }
        self.scanned = 0;
        let mut line: Vec<u8> = self.buf.drain(..=end).collect();
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8(line).map_err(|_| format!("non-UTF-8 frame from {}", self.peer)))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &str) -> Result<(), String> {
        write_frame(&mut self.stream, frame)
            .map_err(|e| format!("connection to {} lost: {e}", self.peer))
    }

    fn recv_opt(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        use std::io::Read;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(line) = self.take_line() {
                return line.map(Some);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(deadline - now))
                .map_err(|e| format!("connection to {} unusable: {e}", self.peer))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(format!("connection to {} closed", self.peer)),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read from {} failed: {e}", self.peer)),
            }
        }
    }

    fn abort(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn finish(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// A live protocol peer (a spawned worker process or a TCP service
/// connection) that has completed the config/`ready` handshake, behind a
/// boxed [`Transport`].
pub(crate) struct WorkerHandle {
    transport: Box<dyn Transport>,
    /// Coordinator-assigned peer lane (1-based, process-global): names
    /// this worker's process group when its spans are re-anchored into
    /// the coordinator's trace.
    pub(crate) lane: u64,
    /// Fleet size advertised in the peer's `ready` frame — present when
    /// the peer is a `relaxed-serviced` daemon fronting a worker fleet,
    /// absent for a plain `relaxed-shardd` worker.
    pub(crate) fleet: Option<usize>,
}

impl WorkerHandle {
    /// Spawns a `relaxed-shardd` worker process and performs the config
    /// handshake over its stdio pipes.
    pub(crate) fn spawn(
        binary: &std::path::Path,
        config_frame: &str,
    ) -> Result<WorkerHandle, String> {
        let transport = PipeTransport::spawn(binary)?;
        WorkerHandle::with_transport(Box::new(transport), config_frame)
    }

    /// Connects to a `relaxed-serviced` daemon at `addr` and performs the
    /// same config handshake over TCP.
    pub(crate) fn connect(addr: &str, config_frame: &str) -> Result<WorkerHandle, String> {
        let transport = TcpTransport::connect(addr, READY_TIMEOUT)?;
        WorkerHandle::with_transport(Box::new(transport), config_frame)
    }

    fn with_transport(
        transport: Box<dyn Transport>,
        config_frame: &str,
    ) -> Result<WorkerHandle, String> {
        static NEXT_LANE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let mut handle = WorkerHandle {
            transport,
            lane: NEXT_LANE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            fleet: None,
        };
        match handle.handshake(config_frame) {
            Ok(()) => Ok(handle),
            Err(e) => {
                handle.transport.abort();
                Err(e)
            }
        }
    }

    fn handshake(&mut self, config_frame: &str) -> Result<(), String> {
        self.send(config_frame)?;
        let line = self.recv(READY_TIMEOUT)?;
        let ready = parse_json(&line).map_err(|e| format!("bad ready frame: {e}"))?;
        let fields = ready
            .as_object()
            .map_err(|e| format!("bad ready frame: {e}"))?;
        match field_str(fields, "type") {
            Ok("ready") => {}
            // A service daemon refuses incompatible sessions with a typed
            // error frame instead of dying; surface its reason verbatim.
            Ok("error") => {
                let reason = field_str(fields, "reason").unwrap_or("unspecified");
                return Err(format!("peer refused the session: {reason}"));
            }
            _ => return Err(format!("expected ready frame, got {line:?}")),
        }
        let proto = field_u64(fields, "proto").map_err(|e| format!("bad ready frame: {e}"))?;
        if proto != u64::from(PROTOCOL_VERSION) {
            return Err(format!(
                "protocol mismatch: worker speaks {proto}, coordinator {PROTOCOL_VERSION}"
            ));
        }
        if let Ok(fleet) = field_u64(fields, "fleet") {
            self.fleet = Some(fleet as usize);
        }
        Ok(())
    }

    pub(crate) fn send(&mut self, frame: &str) -> Result<(), String> {
        self.transport.send(frame)
    }

    pub(crate) fn recv(&mut self, timeout: Duration) -> Result<String, String> {
        match self.transport.recv_opt(timeout)? {
            Some(line) => Ok(line),
            None => Err(format!("worker unresponsive for {}s", timeout.as_secs())),
        }
    }

    /// [`Transport::recv_opt`] on the underlying channel — `Ok(None)` is
    /// a clean timeout the caller may retry.
    pub(crate) fn recv_opt(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        self.transport.recv_opt(timeout)
    }

    pub(crate) fn kill(mut self) {
        self.transport.abort();
    }

    /// Graceful shutdown: signal end-of-jobs (which triggers the peer's
    /// final persist) and wait for it to wind down.
    pub(crate) fn shutdown(mut self) {
        self.transport.finish();
    }
}

/// A fleet of `size` worker slots, each holding at most one
/// `relaxed-shardd` process — the worker manager behind the
/// [`crate::service`] daemon, whose relay threads own the slots. See the
/// [module docs](self#the-fleet).
pub(crate) struct Fleet {
    binary: PathBuf,
    config_frame: String,
    size: usize,
    /// Slots whose worker is alive.
    alive: AtomicUsize,
}

impl Fleet {
    /// A fleet of `size` empty slots whose workers run under `config`;
    /// [`spawn_all`](Fleet::spawn_all) fills them.
    pub(crate) fn new(config: &Config, binary: PathBuf, size: usize) -> Fleet {
        // Per-worker thread budget: the leftover parallelism once jobs
        // fan out across processes (mirrors the in-process corpus driver).
        let per_worker = (config.discharge_config().effective_parallelism() / size).max(1);
        Fleet {
            binary,
            // Rendered now, so a traced session's workers capture spans.
            config_frame: render_config_frame(config, per_worker),
            size,
            alive: AtomicUsize::new(0),
        }
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// How many slots hold a live worker, for status and metrics frames.
    pub(crate) fn alive(&self) -> usize {
        self.alive.load(Ordering::Relaxed)
    }

    fn spawn(&self) -> Result<WorkerHandle, String> {
        let worker = WorkerHandle::spawn(&self.binary, &self.config_frame)?;
        self.alive.fetch_add(1, Ordering::Relaxed);
        Ok(worker)
    }

    fn kill(&self, worker: WorkerHandle) {
        worker.kill();
        self.alive.fetch_sub(1, Ordering::Relaxed);
    }

    /// Shuts a slot's worker down at the drain: its EOF triggers its
    /// final flush.
    pub(crate) fn shutdown(&self, worker: WorkerHandle) {
        worker.shutdown();
        self.alive.fetch_sub(1, Ordering::Relaxed);
    }

    /// Spawns one worker per slot up front, concurrently. When any spawn
    /// fails, the others are killed and its error returned.
    pub(crate) fn spawn_all(&self) -> Result<Vec<WorkerHandle>, String> {
        let spawned: Vec<Result<WorkerHandle, String>> = std::thread::scope(|scope| {
            let spawns: Vec<_> = (0..self.size)
                .map(|_| scope.spawn(|| self.spawn()))
                .collect();
            spawns
                .into_iter()
                .map(|spawn| spawn.join().expect("fleet spawn thread"))
                .collect()
        });
        let mut workers = Vec::with_capacity(self.size);
        let mut failure = None;
        for worker in spawned {
            match worker {
                Ok(worker) => workers.push(worker),
                Err(e) => failure = Some(e),
            }
        }
        if let Some(e) = failure {
            for worker in workers {
                self.kill(worker);
            }
            return Err(e);
        }
        Ok(workers)
    }

    /// Runs one job frame on a slot's worker and returns the worker's raw
    /// result line. An empty slot spawns its worker first. A failed
    /// attempt — a failed spawn, a crash, a malformed or mismatched frame,
    /// a timeout — kills the worker, and the next attempt runs on a
    /// replacement spawned into the slot, never on a worker that may carry
    /// the same fault; after [`MAX_ATTEMPTS`] failed attempts the job
    /// fails and the slot stays empty until its next job.
    pub(crate) fn run(
        &self,
        slot: &mut Option<WorkerHandle>,
        id: usize,
        name: &str,
        frame: &str,
    ) -> Result<String, String> {
        let mut last_error = String::new();
        for _ in 0..MAX_ATTEMPTS {
            let mut worker = match slot.take().map_or_else(|| self.spawn(), Ok) {
                Ok(worker) => worker,
                Err(e) => {
                    last_error = e;
                    continue;
                }
            };
            match self.relay(&mut worker, id, name, frame) {
                Ok(result) => {
                    *slot = Some(worker);
                    return Ok(result);
                }
                Err(e) => {
                    last_error = e;
                    self.kill(worker);
                }
            }
        }
        Err(format!(
            "job failed after {MAX_ATTEMPTS} attempts; last error: {last_error}"
        ))
    }

    /// Sends one job frame to `worker` and reads back its id-validated
    /// result line, re-anchoring any worker spans into this process's
    /// trace: one process lane per worker (pids ≥ 1000 stay clear of the
    /// local pid), worker tids inside it.
    fn relay(
        &self,
        worker: &mut WorkerHandle,
        id: usize,
        name: &str,
        frame: &str,
    ) -> Result<String, String> {
        let mut job_span = crate::telemetry::span("shard", "job");
        if job_span.is_active() {
            job_span.arg("id", id as u64);
            job_span.arg("name", name);
            job_span.arg("worker", worker.lane);
        }
        // The dispatch mark anchors the worker's job-relative timestamps:
        // its clock starts (to within channel latency) when the job frame
        // leaves this process.
        let dispatch_us = crate::telemetry::now_us();
        worker.send(frame)?;
        let line = worker.recv(JOB_TIMEOUT)?;
        let mut wire =
            parse_result_frame(&line).map_err(|e| format!("malformed result frame: {e}"))?;
        if wire.id != id {
            return Err(format!(
                "result frame for job {} while awaiting job {id}",
                wire.id
            ));
        }
        if !wire.spans.is_empty() {
            let pid = 1000 + worker.lane;
            let events: Vec<crate::telemetry::Event> = std::mem::take(&mut wire.spans)
                .into_iter()
                .map(|mut event| {
                    event.ts_us = dispatch_us.saturating_add(event.ts_us);
                    event.pid = pid;
                    event
                })
                .collect();
            crate::telemetry::inject(&format!("shard-worker-{}", worker.lane), pid, events);
        }
        Ok(line)
    }
}

/// Turns one job's outcome into its [`CorpusEntry`], the service client's
/// result-to-entry step. `Err` is a job that produced no result frame. A
/// frame's failure is the entry's: a vcgen failure stays a
/// [`CorpusError::Vcgen`], any other (e.g. a program that did not
/// re-parse) is a [`CorpusError::Service`], as is a report whose stage
/// list is not the session's `selection`. The entry carries no lint: the
/// corpus pipeline attaches it (warnings never cross a wire).
pub(crate) fn entry_from_result(
    name: String,
    selection: StageSet,
    result: Result<WireResult, String>,
) -> CorpusEntry {
    let (elapsed_ms, outcome) = match result {
        Ok(wire) => (
            wire.elapsed_ms,
            wire.outcome
                .and_then(|report| report.into_report(selection)),
        ),
        Err(reason) => (0, Err(CorpusError::Service(reason))),
    };
    CorpusEntry {
        name,
        elapsed_ms,
        lint: Vec::new(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcgen::VcBody;
    use relaxed_lang::parse_program;

    fn toy() -> (Program, Spec) {
        let program = parse_program(
            "x0 = x;
             relax (x) st (x0 <= x && x <= x0 + 2);
             relate l1 : x<o> <= x<r> && x<r> - x<o> <= 2;",
        )
        .unwrap();
        let mut spec = Spec::synced(&program);
        spec.rel_pre = parse_rel_formula("x<o> == x<r>").unwrap();
        (program, spec)
    }

    /// The vcgen failure of a loop program with only the annotations
    /// `annotations`, under the default stages.
    fn vcgen_failure(annotations: &str) -> VcgenError {
        let source = format!("i = 0; while (i < n) {annotations} {{ i = i + 1; }}");
        let program = parse_program(&source).unwrap();
        let spec = Spec::synced(&program);
        Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap_err()
    }

    /// The report a result frame carries, checked against `selection`.
    fn report_of(frame: &str, selection: StageSet) -> Result<AcceptabilityReport, CorpusError> {
        let wire = parse_result_frame(frame).unwrap();
        entry_from_result("toy".to_string(), selection, Ok(wire)).outcome
    }

    /// Drives the worker loop in-process over string pipes.
    fn drive_worker(frames: &str, fault: Fault) -> (std::io::Result<()>, String) {
        let mut output = Vec::new();
        let result = worker_loop(frames.as_bytes(), &mut output, fault);
        (result, String::from_utf8(output).unwrap())
    }

    fn toy_frames() -> String {
        let (program, spec) = toy();
        let config = Config {
            workers: 1,
            ..Config::default()
        };
        format!(
            "{}\n{}\n",
            render_config_frame(&config, 1),
            render_job_frame(0, "toy", &program, &spec)
        )
    }

    /// A job frame of `sources` (program, pre, post, rel_pre, rel_post)
    /// under `name`.
    fn job_frame(id: usize, name: &str, sources: [&str; 5]) -> String {
        let mut frame = format!(
            "{{\"type\":\"job\",\"id\":{id},\"name\":{}",
            json_string(name)
        );
        for (key, text) in SOURCE_FIELDS.iter().zip(sources) {
            let _ = write!(frame, ",\"{key}\":{}", json_string(text));
        }
        frame.push('}');
        frame
    }

    /// `y = x;` proves `y > 0` from `x > 0`; the relational stage has
    /// nothing to prove.
    const COPY: [&str; 5] = ["y = x;", "x > 0", "y > 0", "x<o> == x<r>", "true"];

    /// Parses `frame` through `memo`, returning the parsed program.
    fn parse_through(memo: &mut ParsedJobs, frame: &str) -> Result<Program, String> {
        let record = parse_json(frame).unwrap();
        let fields = record.as_object().unwrap();
        memo.parse(fields).map(|(_, program, _)| program.clone())
    }

    #[test]
    fn an_unchanged_job_is_parsed_once() {
        let mut memo = ParsedJobs::default();
        let first = parse_through(&mut memo, &job_frame(0, "copy", COPY)).unwrap();
        let again = parse_through(&mut memo, &job_frame(1, "copy", COPY)).unwrap();
        assert_eq!(memo.parses, 1);
        assert_eq!(first, again);
    }

    /// Each of the five sources is compared: a change to any one parses
    /// the job again and replaces the name's entry.
    #[test]
    fn a_change_to_any_source_parses_again() {
        let changed = ["y = x + 0;", "x > 1", "y > -1", "true", "y<o> == y<r>"];
        for (i, text) in changed.into_iter().enumerate() {
            let mut sources = COPY;
            sources[i] = text;
            let mut memo = ParsedJobs::default();
            parse_through(&mut memo, &job_frame(0, "copy", COPY)).unwrap();
            parse_through(&mut memo, &job_frame(1, "copy", sources)).unwrap();
            assert_eq!(memo.parses, 2, "{}", SOURCE_FIELDS[i]);
            parse_through(&mut memo, &job_frame(2, "copy", sources)).unwrap();
            assert_eq!(memo.parses, 2, "{}", SOURCE_FIELDS[i]);
            assert_eq!(memo.by_name["copy"].sources[i], text);
        }
    }

    #[test]
    fn one_text_under_two_names_is_two_entries() {
        let mut memo = ParsedJobs::default();
        for name in ["a", "b", "a", "b"] {
            parse_through(&mut memo, &job_frame(0, name, COPY)).unwrap();
        }
        assert_eq!(memo.parses, 2);
        assert_eq!(memo.by_name.len(), 2);
    }

    /// A new name past the memo's bound forgets every kept parse first.
    #[test]
    fn the_memo_keeps_a_bounded_number_of_names() {
        let mut memo = ParsedJobs::default();
        for i in 0..=MAX_PARSED_NAMES {
            parse_through(&mut memo, &job_frame(i, &format!("p{i}"), COPY)).unwrap();
        }
        assert_eq!(memo.by_name.len(), 1);
        assert!(memo.by_name.contains_key(&format!("p{MAX_PARSED_NAMES}")));
    }

    /// The memo is keyed by the text, not by the name: the same name with
    /// a weaker `pre` is parsed again and gets its own, failing, verdict.
    #[test]
    fn a_changed_pre_under_the_same_name_gets_its_new_verdict() {
        let mut weaker = COPY;
        weaker[1] = "x >= 0";
        let frames = format!(
            "{}\n{}\n{}\n",
            render_config_frame(&Config::default(), 1),
            job_frame(0, "copy", COPY),
            job_frame(1, "copy", weaker)
        );
        let (result, output) = drive_worker(&frames, Fault::None);
        result.unwrap();
        let verdicts: Vec<bool> = output
            .lines()
            .skip(1)
            .map(|line| report_of(line, StageSet::default()).unwrap().verified())
            .collect();
        assert_eq!(verdicts, [true, false]);
        let weak = report_of(output.lines().nth(2).unwrap(), StageSet::default()).unwrap();
        assert!(
            weak.original
                .results
                .iter()
                .any(|row| matches!(row.verdict, relaxed_smt::Validity::Invalid(_))),
            "{output}"
        );
    }

    /// A program that fails to parse is never kept: sent twice, it is
    /// parsed twice and answered with two error frames.
    #[test]
    fn a_bad_program_sent_twice_gets_two_error_frames() {
        let mut bad = COPY;
        bad[0] = "while (";
        let frames = format!(
            "{}\n{}\n{}\n",
            render_config_frame(&Config::default(), 1),
            job_frame(4, "bad", bad),
            job_frame(5, "bad", bad)
        );
        let (result, output) = drive_worker(&frames, Fault::None);
        result.unwrap();
        let ids: Vec<usize> = output
            .lines()
            .skip(1)
            .map(|line| {
                let wire = parse_result_frame(line).unwrap();
                assert!(
                    matches!(&wire.outcome, Err(CorpusError::Service(e)) if e.contains("program:")),
                    "{line}"
                );
                wire.id
            })
            .collect();
        assert_eq!(ids, [4, 5]);
        let mut memo = ParsedJobs::default();
        for _ in 0..2 {
            assert!(parse_through(&mut memo, &job_frame(4, "bad", bad)).is_err());
        }
        assert!(memo.by_name.is_empty());
    }

    /// A `Write` that keeps every write call it receives.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every frame the worker writes, a result frame longer than stdout's
    /// 1 KiB line buffer among them, reaches the output as exactly one
    /// write that ends in its newline, through a line-buffered writer as
    /// through a plain one.
    #[test]
    fn the_worker_writes_each_frame_with_one_write() {
        let corpus = crate::test_corpus();
        let (_, program, spec) = corpus.iter().find(|(name, ..)| *name == "swish").unwrap();
        let frames = format!(
            "{}\n{}\n{}\n{}\n",
            job_frame(0, "early", COPY),
            render_config_frame(&Config::default(), 1),
            render_job_frame(1, "swish", program, spec),
            render_job_frame(2, "swish", program, spec),
        );
        for line_buffered in [false, true] {
            let mut writes = Writes::default();
            let result = if line_buffered {
                let output = std::io::LineWriter::new(&mut writes);
                worker_loop(frames.as_bytes(), output, Fault::Garbage(2))
            } else {
                worker_loop(frames.as_bytes(), &mut writes, Fault::Garbage(2))
            };
            result.unwrap();
            // The early job's error, `ready`, the injected garbage and
            // the last job's result.
            assert_eq!(writes.0.len(), 4, "line buffered: {line_buffered}");
            for write in &writes.0 {
                assert_eq!(write.iter().filter(|&&b| b == b'\n').count(), 1);
                assert_eq!(write.last(), Some(&b'\n'));
            }
            let result = std::str::from_utf8(&writes.0[3]).unwrap();
            assert!(result.len() > 1024, "{} bytes", result.len());
            assert_eq!(parse_result_frame(result.trim_end()).unwrap().id, 2);
        }
    }

    #[test]
    fn stage_set_round_trips_through_the_wire() {
        for stages in [
            StageSet::default(),
            StageSet::all(),
            StageSet::none(),
            StageSet::only(Stage::Intermediate),
        ] {
            assert_eq!(parse_stages(&render_stages(stages)).unwrap(), stages);
        }
        assert!(parse_stages("original,bogus").is_err());
    }

    /// A coordinator built before the discharge toggles were removed
    /// still sends `"incremental"` and `"prefilter"`; the worker ignores
    /// them like any other unknown key.
    #[test]
    fn config_frame_with_retired_discharge_toggles_parses() {
        let config = Config {
            workers: 1,
            max_conflicts: 123,
            ..Config::default()
        };
        let frame = render_config_frame(&config, 1);
        let legacy = frame.replacen(
            "\"workers\":",
            "\"incremental\":0,\"prefilter\":0,\"workers\":",
            1,
        );
        assert_ne!(legacy, frame, "the frame carries a workers field");
        let record = parse_json(&legacy).unwrap();
        let parsed = parse_config_frame(record.as_object().unwrap()).unwrap();
        let expected =
            parse_config_frame(parse_json(&frame).unwrap().as_object().unwrap()).unwrap();
        assert_eq!(parsed, expected);
        assert_eq!(parsed.max_conflicts, 123);
    }

    #[test]
    fn worker_answers_a_job_with_matching_verdicts() {
        let (result, output) = drive_worker(&toy_frames(), Fault::None);
        result.unwrap();
        let mut lines = output.lines();
        let ready = lines.next().unwrap();
        assert!(ready.contains("\"type\":\"ready\""), "{ready}");
        let line = lines.next().unwrap();
        assert_eq!(parse_result_frame(line).unwrap().id, 0);
        let wire = report_of(line, StageSet::default()).unwrap();
        // The wire rows match a direct in-process check.
        let (program, spec) = toy();
        let direct = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        assert_eq!(wire.stages, direct.stages);
        for ((_, wire_stage), (_, direct_stage)) in wire.stage_reports().zip(direct.stage_reports())
        {
            assert_eq!(wire_stage.len(), direct_stage.len());
            for (row, expected) in wire_stage.results.iter().zip(&direct_stage.results) {
                assert_eq!(row.vc.name, expected.vc.name);
                assert_eq!(row.verdict, expected.verdict);
            }
        }
    }

    #[test]
    fn worker_reports_unparsable_programs_as_job_errors() {
        let config = Config::default();
        let frames = format!(
            "{}\n{{\"type\":\"job\",\"id\":7,\"name\":\"bad\",\"program\":\"while (\",\
             \"pre\":\"true\",\"post\":\"true\",\"rel_pre\":\"true\",\"rel_post\":\"true\"}}\n",
            render_config_frame(&config, 1)
        );
        let (result, output) = drive_worker(&frames, Fault::None);
        result.unwrap();
        let wire = parse_result_frame(output.lines().nth(1).unwrap()).unwrap();
        assert_eq!(wire.id, 7);
        match wire.outcome {
            Err(CorpusError::Service(reason)) => assert!(reason.contains("program:"), "{reason}"),
            _ => panic!("an unparsable program is a job error"),
        }
    }

    #[test]
    fn worker_rejects_jobs_before_config() {
        let frames = "{\"type\":\"job\",\"id\":1,\"name\":\"x\",\"program\":\"skip;\",\
                      \"pre\":\"true\",\"post\":\"true\",\"rel_pre\":\"true\",\"rel_post\":\"true\"}\n";
        let (result, output) = drive_worker(frames, Fault::None);
        result.unwrap();
        let wire = parse_result_frame(output.lines().next().unwrap()).unwrap();
        let failure = wire.outcome.err().map(|e| e.to_string());
        assert!(failure.unwrap().contains("job before config"));
    }

    #[test]
    fn worker_dies_on_malformed_request_frames() {
        let (result, _) = drive_worker("not a frame\n", Fault::None);
        assert!(result.is_err());
        let (result, _) = drive_worker("{\"type\":\"mystery\"}\n", Fault::None);
        assert!(result.is_err());
    }

    #[test]
    fn garbage_fault_corrupts_exactly_the_chosen_job() {
        let (result, output) = drive_worker(&toy_frames(), Fault::Garbage(1));
        result.unwrap();
        let corrupted = output.lines().nth(1).unwrap();
        assert!(parse_result_frame(corrupted).is_err(), "{corrupted}");
    }

    #[test]
    fn fault_hook_parses_env_values() {
        assert_eq!(Fault::parse("crash:2"), Fault::Crash(2));
        assert_eq!(Fault::parse("garbage:1"), Fault::Garbage(1));
        assert_eq!(Fault::parse(""), Fault::None);
        assert_eq!(Fault::parse("crash"), Fault::None);
        assert_eq!(Fault::parse("crash:x"), Fault::None);
        assert_eq!(Fault::parse("meltdown:3"), Fault::None);
    }

    #[test]
    fn result_frames_round_trip_every_counter_and_verdict() {
        let (program, spec) = toy();
        let mut report = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        // Distinct values, so a counter read into the wrong field shows.
        let mut values = 1..;
        let mut distinct = |_: &str| values.next().ok_or(());
        report.engine = EngineStats::from_counters(&mut distinct).unwrap();
        report.original.stats = SolverStats::from_counters(&mut distinct).unwrap();
        let frame = render_result_frame(9, &report, 123, &[], 0);
        let wire = parse_result_frame(&frame).unwrap();
        assert_eq!(wire.id, 9);
        assert_eq!(wire.elapsed_ms, 123);
        let wire = report_of(&frame, report.stages).unwrap();
        assert_eq!(wire.engine, report.engine);
        assert_eq!(wire.original.stats, report.original.stats);
        assert_eq!(wire.relaxed.stats, report.relaxed.stats);
        // Every row keeps its obligation's name and context, its verdict
        // and whether it was cached; its body is the placeholder, and it
        // carries no deps and no key.
        assert_eq!(wire.total_vcs(), report.total_vcs());
        for ((_, wire_stage), (_, direct_stage)) in wire.stage_reports().zip(report.stage_reports())
        {
            assert!(wire_stage.keys.is_empty());
            for (row, expected) in wire_stage.results.iter().zip(&direct_stage.results) {
                assert_eq!(row.vc.name, expected.vc.name);
                assert_eq!(row.vc.context, expected.vc.context);
                assert_eq!(row.verdict, expected.verdict);
                assert_eq!(row.cached, expected.cached);
                assert_eq!(row.vc.body, VcBody::Unary(relaxed_lang::Formula::True));
                assert!(row.vc.deps.is_empty());
            }
        }
        // Both ends come from one build, so every counter is required:
        // renaming any one key (its first occurrence; solver counters
        // first occur in the first stage) refuses the frame.
        let names = report
            .engine
            .counters()
            .into_iter()
            .chain(report.original.stats.counters())
            .map(|(name, _)| name);
        for name in names {
            let key = format!("\"{name}\":");
            let without = frame.replacen(&key, &format!("\"retired_{name}\":"), 1);
            assert_ne!(without, frame, "the frame carries {name}");
            let err = parse_result_frame(&without).err();
            assert_eq!(err, Some(format!("missing `{name}`")), "{name}");
        }
    }

    /// A worker's vcgen failure crosses the wire as the same typed error,
    /// whichever of the six it is.
    #[test]
    fn vcgen_errors_round_trip_through_a_result_frame() {
        let context = || "body/2".to_string();
        let array = || "a".to_string();
        let errors = [
            vcgen_failure("rinvariant (i<o> == i<r> && n<o> == n<r>)"),
            vcgen_failure("invariant (0 <= i)"),
            VcgenError::MissingInvariant {
                kind: "diverge contract (loop inside a product branch)",
                context: context(),
            },
            VcgenError::RelateNotAllowed { context: context() },
            VcgenError::ArrayChoiceWithPredicate { context: context() },
            VcgenError::NestedSelect {
                array: array(),
                context: context(),
            },
            VcgenError::BoundIndex {
                array: array(),
                context: context(),
            },
            VcgenError::TooLarge {
                limit: crate::vcgen::MAX_WP_NODES,
                context: context(),
            },
        ];
        assert!(matches!(
            errors[0],
            VcgenError::MissingInvariant {
                kind: "invariant",
                ..
            }
        ));
        assert!(matches!(
            errors[1],
            VcgenError::MissingInvariant {
                kind: "rinvariant",
                ..
            }
        ));
        for error in errors {
            let frame = render_failure_frame(4, &CorpusError::Vcgen(error.clone()));
            // A reader that knows only `error` still sees the failure.
            assert!(frame.contains(&json_string(&error.to_string())), "{frame}");
            let wire = parse_result_frame(&frame).unwrap();
            assert_eq!(wire.id, 4);
            assert_eq!(wire.outcome.err(), Some(CorpusError::Vcgen(error)));
        }
        let unknown = render_failure_frame(
            4,
            &CorpusError::Vcgen(VcgenError::MissingInvariant {
                kind: "invariant",
                context: context(),
            }),
        )
        .replace("\"detail\":\"invariant\"", "\"detail\":\"ghost\"");
        let err = parse_result_frame(&unknown).err();
        assert_eq!(err, Some("unknown annotation kind \"ghost\"".to_string()));
    }

    /// The client's one check on a report: its stage list is the
    /// session's selection. A report of other stages is a service error
    /// that names both lists.
    #[test]
    fn a_result_frame_of_other_stages_is_a_service_error() {
        let (program, spec) = toy();
        let report = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        let frame = render_result_frame(2, &report, 1, &[], 0);
        assert!(report_of(&frame, StageSet::default()).is_ok());
        for selection in [StageSet::only(Stage::Relaxed), StageSet::all()] {
            let err = report_of(&frame, selection).unwrap_err();
            let CorpusError::Service(reason) = &err else {
                panic!("expected a service error, got {err:?}");
            };
            assert!(
                reason.contains("[original,relaxed]")
                    && reason.contains(&format!("[{}]", render_stages(selection))),
                "{reason}"
            );
        }
    }

    #[test]
    fn programs_and_specs_survive_the_wire_rendering() {
        // The job frame ships pretty-printed source; it must re-parse to
        // the identical program (the roundtrip property the protocol
        // rests on).
        let (program, spec) = toy();
        let reparsed = parse_program(&program.to_string()).unwrap();
        assert_eq!(program, reparsed);
        assert_eq!(
            spec.rel_pre,
            parse_rel_formula(&spec.rel_pre.to_string()).unwrap()
        );
    }
}
