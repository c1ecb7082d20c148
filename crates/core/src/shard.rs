//! Sharded multi-process corpus verification.
//!
//! The paper's acceptability proofs decompose into independent per-program
//! obligations (one staged `⊢o`/`⊢i`/`⊢r` check each), so a corpus is
//! embarrassingly parallel beyond one process. This module is the
//! process-level execution layer behind
//! [`CorpusPolicy::Sharded`](crate::api::CorpusPolicy::Sharded) and the
//! [`crate::service`] daemon: one worker **fleet** (`Fleet`) of **worker
//! processes** (the `relaxed-shardd` binary, whose entire logic is
//! [`worker_main`] in this module), one job per program, and the
//! result-to-entry code that turns the answers into the same corpus
//! entries an in-process run produces. Like every corpus driver, the
//! sharded one returns only its programs' entries, in input order and
//! without lint, plus its fan-out: [`Verifier::check_corpus`] alone
//! replays unchanged programs, attaches lint, folds the statistics into
//! the [`CorpusReport`] and records each program's depmap revision.
//!
//! # Protocol
//!
//! Frames are newline-delimited JSON objects — the same hand-rolled,
//! dependency-free conventions as the [`crate::cache`] store (whose
//! reader this module reuses). One frame per line; JSON string escaping
//! guarantees a frame never spans lines. The framing is
//! transport-agnostic: the coordinator speaks it over child-process
//! stdio pipes here, and the networked service layer ([`crate::service`])
//! speaks the identical frames over TCP, both behind this module's
//! `Transport` trait.
//!
//! ```text
//! coordinator → worker        worker → coordinator
//! ---------------------       ---------------------
//! {"type":"config",...}       {"type":"ready","proto":2}
//! {"type":"job","id":0,...}   {"type":"result","id":0,...}
//! {"type":"job","id":3,...}   {"type":"result","id":3,...}
//! <EOF>                       (the session's drop flushes, exit 0)
//! ```
//!
//! The `config` frame carries the session's typed configuration (solver
//! budgets, stage selection, per-worker thread budget, cache path); each
//! `job` frame carries one serialized program + spec (the pretty-printed
//! source, which round-trips through the parser); each
//! `result` frame carries the per-stage verdict lists, the job's
//! [`EngineStats::counters`], each stage's
//! [`SolverStats::counters`](relaxed_smt::SolverStats::counters), and
//! wall time. The coordinator re-generates the VCs locally (generation
//! is deterministic and cheap — solving is the expensive part) and zips them with the returned verdicts, so each
//! rebuilt report is structurally identical to an in-process run's, and
//! its obligations serve the coordinator's depmap record as they are.
//!
//! # The fleet
//!
//! A `Fleet` owns up to `size` worker processes. A job checks a worker
//! out — an idle one, else a fresh spawn while fewer than `size` exist,
//! else the next one checked in — relays its frame, and checks the worker
//! back in. A worker crash, a malformed or mismatched response frame, or
//! a response timeout kills that worker and retries the job on a
//! replacement spawned into its slot (a new process, so accumulated
//! worker state can never fail the same job twice); a failed spawn is a
//! failed attempt too. After [`MAX_ATTEMPTS`] failed attempts the job is
//! recorded as a per-program error ([`CorpusError::Shard`] here,
//! `CorpusError::Service` behind the daemon) — never a lost program,
//! never a hung coordinator. The relay is the one place where worker
//! spans are re-anchored into this process's trace.
//!
//! A sharded run opens a private fleet of `shards` workers, spawned on
//! demand, and `shards` lanes of the engine's one scoped pool claim a
//! job list ordered longest-first by VC count, so one slow program
//! cannot serialize the tail of the corpus. Once the last job is handed
//! out the fleet retires: a worker checked in while no job waits is
//! shut down at once, and the run ends by draining the rest. The
//! service daemon instead spawns its whole fleet up front and drains it
//! on `shutdown`.
//!
//! # Cache-mediated verdict sharing
//!
//! Under [`CachePolicy::Persistent`]
//! every worker's session opens the same fingerprint-gated verdict store
//! and its depmap sidecar. Before each job it reads both files again
//! where they changed (a `stat` of length and modification time skips an
//! unchanged file): verdicts sibling workers published answer shared
//! goals, counted as [`EngineStats::disk_hits`], and the records a
//! coordinator or client persisted replay whole programs, even ones this
//! worker never ran. After each job it flushes its fresh verdicts
//! ([`Verifier::persist`]). A flush appends under the store's own
//! header, so one worker's flush never drops a sibling's entries; a
//! store under another configuration's header is written whole once, and
//! appended to after that. The coordinator reads the files again after
//! the run, so subsequent in-process checks start warm. A worker replays
//! from the depmap sidecar but never writes it: the coordinator or a
//! persistent client records the same revisions, so a worker's flush
//! would only add an fsync per job.
//!
//! [`Verifier::check_corpus`]: crate::api::Verifier::check_corpus
//! [`Verifier::persist`]: crate::api::Verifier::persist
//! [`CorpusReport`]: crate::api::CorpusReport
//! [`CorpusError::Shard`]: crate::api::CorpusError::Shard
//! [`EngineStats::disk_hits`]: crate::engine::EngineStats::disk_hits
//! [`EngineStats::counters`]: crate::engine::EngineStats::counters

use crate::api::{
    elapsed_ms_since, CachePolicy, Config, CorpusEntry, CorpusError, Stage, StageSet, Verifier,
};
use crate::cache::{
    field_str, field_u64, get, json_string, parse_json, parse_verdict, render_verdict, Json,
};
use crate::engine::{fan_out, EngineStats};
use crate::vcgen::{Vc, VcgenError};
use crate::verify::{AcceptabilityReport, Report, Spec, VcResult};
use relaxed_lang::{parse_formula, parse_program, parse_rel_formula, Program};
use relaxed_smt::{SolverStats, Validity};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Version of the coordinator/worker wire protocol. The worker echoes it
/// in its `ready` frame; a mismatch fails the handshake (and the job is
/// retried elsewhere, ultimately surfacing as a per-program error rather
/// than silently mixing protocol revisions).
pub const PROTOCOL_VERSION: u32 = 2;

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

fn render_result_frame(
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
            out.push('{');
            render_verdict(&mut out, &result.verdict);
            out.push_str(&format!(",\"cached\":{}", u8::from(result.cached)));
            out.push('}');
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

// ---------------------------------------------------------------------
// Frame parsing (coordinator side, plus the worker's request reader)
// ---------------------------------------------------------------------

/// One stage's slice of a result frame.
pub(crate) struct WireStage {
    stage: Stage,
    stats: SolverStats,
    verdicts: Vec<(Validity, bool)>,
}

/// A parsed result frame.
pub(crate) struct WireResult {
    pub(crate) id: usize,
    pub(crate) elapsed_ms: u64,
    pub(crate) engine: EngineStats,
    pub(crate) stages: Vec<WireStage>,
    /// Worker-side telemetry spans, `ts_us` still *relative* to the job
    /// dispatch mark (`pid` is a placeholder until the coordinator
    /// re-anchors them into its timeline).
    pub(crate) spans: Vec<crate::telemetry::Event>,
    pub(crate) error: Option<String>,
}

pub(crate) fn parse_result_frame(line: &str) -> Result<WireResult, String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    if field_str(fields, "type")? != "result" {
        return Err("expected a result frame".to_string());
    }
    let id = field_u64(fields, "id")? as usize;
    if let Some(Json::Str(error)) = get(fields, "error") {
        return Ok(WireResult {
            id,
            elapsed_ms: 0,
            engine: EngineStats::default(),
            stages: Vec::new(),
            spans: Vec::new(),
            error: Some(error.clone()),
        });
    }
    let engine = EngineStats::from_counters(|name| field_u64(fields, name))?;
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
        let mut verdicts = Vec::new();
        for verdict_item in get(stage_fields, "verdicts")
            .ok_or("missing `verdicts`")?
            .as_array()?
        {
            let verdict_fields = verdict_item.as_object()?;
            let verdict = parse_verdict(verdict_fields)?;
            let cached = field_u64(verdict_fields, "cached")? != 0;
            verdicts.push((verdict, cached));
        }
        stages.push(WireStage {
            stage,
            stats,
            verdicts,
        });
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
        engine,
        stages,
        spans,
        error: None,
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
/// set this; it exists so the coordinator's requeue/retry path is
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
/// coordinator treats a dead worker as a crash and requeues its job.
pub fn worker_loop(
    input: impl BufRead,
    mut output: impl Write,
    fault: Fault,
) -> std::io::Result<()> {
    let violation = |reason: String| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let mut verifier: Option<Verifier> = None;
    let mut handled = 0u64;
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
                writeln!(
                    output,
                    "{{\"type\":\"ready\",\"proto\":{PROTOCOL_VERSION}}}"
                )?;
                output.flush()?;
            }
            "job" => {
                let id = field_u64(fields, "id").map_err(&violation)? as usize;
                handled += 1;
                match fault {
                    Fault::Crash(n) if handled == n => std::process::exit(101),
                    Fault::Garbage(n) if handled == n => {
                        writeln!(output, "@@ corrupt frame (injected by {WORKER_BINARY}) @@")?;
                        output.flush()?;
                        continue;
                    }
                    _ => {}
                }
                let Some(session) = &verifier else {
                    writeln!(output, "{}", render_error_frame(id, "job before config"))?;
                    output.flush()?;
                    continue;
                };
                // Everything captured after this mark belongs to this
                // job: span timestamps ship relative to it.
                let mark_us = crate::telemetry::now_us();
                let frame = match run_job(session, fields) {
                    Ok((report, elapsed_ms)) => {
                        let spans = crate::telemetry::capture_take();
                        render_result_frame(id, &report, elapsed_ms, &spans, mark_us)
                    }
                    Err(reason) => {
                        // Discard the failed job's partial capture so it
                        // cannot bleed into the next job's frame.
                        drop(crate::telemetry::capture_take());
                        render_error_frame(id, &reason)
                    }
                };
                writeln!(output, "{frame}")?;
                output.flush()?;
            }
            other => return Err(violation(format!("unknown frame type {other:?}"))),
        }
    }
    Ok(())
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

/// Parses and verifies one job through the worker's session, reading the
/// session's files again before the check and flushing the store after,
/// so sibling workers can reuse the verdicts.
fn run_job(
    session: &Verifier,
    fields: &[(String, Json)],
) -> Result<(AcceptabilityReport, u64), String> {
    let name = field_str(fields, "name")?;
    let program =
        parse_program(field_str(fields, "program")?).map_err(|e| format!("program: {e}"))?;
    let spec = Spec {
        pre: parse_formula(field_str(fields, "pre")?).map_err(|e| format!("pre: {e}"))?,
        post: parse_formula(field_str(fields, "post")?).map_err(|e| format!("post: {e}"))?,
        rel_pre: parse_rel_formula(field_str(fields, "rel_pre")?)
            .map_err(|e| format!("rel_pre: {e}"))?,
        rel_post: parse_rel_formula(field_str(fields, "rel_post")?)
            .map_err(|e| format!("rel_post: {e}"))?,
    };
    // Pick up what was persisted since the last job: sibling workers'
    // verdicts answer shared goals as disk hits, the cross-process
    // payoff, and the records coordinators and clients wrote to the
    // sidecar replay whole programs.
    session.refresh();
    let started = Instant::now();
    let report = session
        .check_corpus_named(&[(name, program, spec)])
        .entries
        .remove(0);
    // The worker replays from its depmap but leaves the sidecar to the
    // coordinator or client, which records the same revision.
    session.forget_depmap_changes();
    let outcome = report.outcome.map_err(|e| e.to_string())?;
    let elapsed_ms = elapsed_ms_since(started);
    // Publish this job's fresh verdicts: appended under the store's own
    // header, so a sibling's verdicts are never dropped. The sidecar
    // records were forgotten above, so only the store is written.
    if let Err(e) = session.persist() {
        crate::diag::warn(format_args!(
            "{WORKER_BINARY}: failed to persist the verdict cache: {e}"
        ));
    }
    Ok((outcome, elapsed_ms))
}

// ---------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------

/// One program prepared for distribution, to a sharded run's fleet or,
/// via [`crate::service`], to a daemon's.
pub(crate) struct ShardJob {
    /// Index of the program in corpus input order: the result slot this
    /// job's entry fills, and its wire job id.
    pub(crate) id: usize,
    pub(crate) name: String,
    pub(crate) frame: String,
    /// The locally generated obligations of every selected stage, in
    /// pipeline order — zipped with the worker's verdicts to rebuild the
    /// program's report.
    pub(crate) stage_vcs: Vec<(Stage, Vec<Vc>)>,
    pub(crate) vc_count: usize,
}

/// Generates every program's obligations locally, up front: `VcgenError`s
/// are recorded into `slots` exactly as the in-process driver records
/// them (never shipped over a wire), every other program becomes one
/// job, and the returned job list is ordered longest-first by VC count
/// (id-tie-broken for determinism).
pub(crate) fn prepare_jobs(
    stages: StageSet,
    programs: &[(String, &Program, &Spec)],
    slots: &mut [Option<CorpusEntry>],
) -> Vec<ShardJob> {
    let mut jobs: Vec<ShardJob> = Vec::new();
    for (id, (name, program, spec)) in programs.iter().enumerate() {
        let staged: Result<Vec<(Stage, Vec<Vc>)>, VcgenError> = stages
            .iter()
            .map(|stage| Ok((stage, crate::verify::stage_vcs(stage, program, spec)?)))
            .collect();
        match staged {
            Ok(stage_vcs) => jobs.push(ShardJob {
                id,
                name: name.clone(),
                frame: render_job_frame(id, name, program, spec),
                vc_count: stage_vcs.iter().map(|(_, vcs)| vcs.len()).sum(),
                stage_vcs,
            }),
            Err(e) => {
                slots[id] = Some(CorpusEntry {
                    name: name.clone(),
                    elapsed_ms: 0,
                    lint: Vec::new(),
                    outcome: Err(CorpusError::Vcgen(e)),
                });
            }
        }
    }
    // Longest first: the most expensive proofs start immediately, so the
    // corpus tail is short jobs instead of one straggler.
    jobs.sort_by_key(|job| (std::cmp::Reverse(job.vc_count), job.id));
    jobs
}

/// A framed newline-JSON channel to a protocol peer. One frame per
/// [`send`](Transport::send); [`recv_opt`](Transport::recv_opt) waits at
/// most a timeout for the next frame, distinguishing "still quiet"
/// (`Ok(None)`) from a dead channel (`Err`). The shard coordinator speaks
/// it over child-process pipes ([`PipeTransport`]); the networked service
/// layer ([`crate::service`]) speaks the identical protocol over TCP
/// ([`TcpTransport`]). `Send` so a handle can migrate across handler
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
/// by a detached reader thread into an mpsc channel so the coordinator
/// can time out on a hung worker instead of blocking forever.
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
        stdin
            .write_all(frame.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
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
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
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

/// Fleet state behind one lock, condvar-signalled.
struct FleetState {
    idle: Vec<WorkerHandle>,
    /// Worker slots in use: idle, checked out, or being spawned. A slot
    /// frees when its worker is shut down or its spawn fails.
    alive: usize,
    /// Checkouts waiting for a worker to come back.
    waiting: usize,
    /// Set once no further job will arrive: a worker checked in while no
    /// job waits is shut down at once instead of idling.
    retiring: bool,
}

/// A fleet of up to `size` `relaxed-shardd` worker processes — the one
/// worker manager behind both the sharded corpus driver and the
/// [`crate::service`] daemon. See the [module docs](self#the-fleet).
pub(crate) struct Fleet {
    binary: PathBuf,
    config_frame: String,
    size: usize,
    state: Mutex<FleetState>,
    signal: Condvar,
}

impl Fleet {
    /// An empty fleet of up to `size` workers running under `config`;
    /// workers spawn on demand (or all at once via
    /// [`spawn_all`](Fleet::spawn_all)).
    pub(crate) fn new(config: &Config, binary: PathBuf, size: usize) -> Fleet {
        // Per-worker thread budget: the leftover parallelism once jobs
        // fan out across processes (mirrors the in-process corpus driver).
        let per_worker = (config.discharge_config().effective_parallelism() / size).max(1);
        Fleet {
            binary,
            // Rendered now, so a traced session's workers capture spans.
            config_frame: render_config_frame(config, per_worker),
            size,
            state: Mutex::new(FleetState {
                idle: Vec::new(),
                alive: 0,
                waiting: 0,
                retiring: false,
            }),
            signal: Condvar::new(),
        }
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// `(alive, idle)` worker counts, for status and metrics frames.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let state = self.state.lock().expect("fleet state");
        (state.alive, state.idle.len())
    }

    fn spawn(&self) -> Result<WorkerHandle, String> {
        WorkerHandle::spawn(&self.binary, &self.config_frame)
    }

    /// Spawns all `size` workers up front, concurrently. When any spawn
    /// fails, the others are killed and its error returned.
    pub(crate) fn spawn_all(&self) -> Result<(), String> {
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
                worker.kill();
            }
            return Err(e);
        }
        let mut state = self.state.lock().expect("fleet state");
        state.alive += workers.len();
        state.idle.extend(workers);
        Ok(())
    }

    /// Checks a worker out: an idle one, else a fresh spawn while fewer
    /// than `size` workers exist, else the next one checked in. `Err` is
    /// a failed spawn.
    fn checkout(&self) -> Result<WorkerHandle, String> {
        // How long the job waited for a worker (the service's
        // admission-queue wait, a sharded run's spawn).
        let mut wait_span = crate::telemetry::span("fleet", "checkout");
        let mut state = self.state.lock().expect("fleet state");
        loop {
            if let Some(worker) = state.idle.pop() {
                if wait_span.is_active() {
                    wait_span.arg("worker", worker.lane);
                }
                return Ok(worker);
            }
            if state.alive < self.size {
                state.alive += 1;
                drop(state);
                let spawned = self.spawn();
                if spawned.is_err() {
                    self.release_slot();
                }
                return spawned;
            }
            state.waiting += 1;
            state = self.signal.wait(state).expect("fleet state");
            state.waiting -= 1;
        }
    }

    /// Returns a worker to the fleet — or, once the fleet is retiring and
    /// no job waits, shuts it down (its EOF triggers the final flush).
    fn checkin(&self, worker: WorkerHandle) {
        let mut state = self.state.lock().expect("fleet state");
        if state.retiring && state.waiting == 0 {
            state.alive -= 1;
            drop(state);
            worker.shutdown();
            return;
        }
        state.idle.push(worker);
        drop(state);
        self.signal.notify_one();
    }

    fn release_slot(&self) {
        self.state.lock().expect("fleet state").alive -= 1;
        self.signal.notify_one();
    }

    /// Kills a worker whose channel is desynchronized and spawns its
    /// replacement into the same slot, freeing the slot if that fails.
    fn respawn(&self, worker: WorkerHandle) -> Result<WorkerHandle, String> {
        worker.kill();
        let spawned = self.spawn();
        if spawned.is_err() {
            self.release_slot();
        }
        spawned
    }

    /// Runs one job frame on the fleet and returns the worker's raw
    /// result line with its parsed form. A failed attempt — a failed
    /// spawn, a crash, a malformed or mismatched frame, a timeout — kills
    /// the worker and retries on its fresh replacement, never on an idle
    /// worker that may carry the same fault; after [`MAX_ATTEMPTS`]
    /// failed attempts the job fails.
    pub(crate) fn run(
        &self,
        id: usize,
        name: &str,
        frame: &str,
    ) -> Result<(String, WireResult), String> {
        let mut last_error = String::new();
        let mut replacement = None;
        for attempt in 1..=MAX_ATTEMPTS {
            let worker = match replacement.take() {
                Some(spawned) => spawned,
                None => self.checkout(),
            };
            let mut worker = match worker {
                Ok(worker) => worker,
                Err(e) => {
                    last_error = e;
                    continue;
                }
            };
            match self.relay(&mut worker, id, name, frame) {
                Ok(result) => {
                    self.checkin(worker);
                    return Ok(result);
                }
                Err(e) => {
                    last_error = e;
                    if attempt < MAX_ATTEMPTS {
                        replacement = Some(self.respawn(worker));
                    } else {
                        worker.kill();
                        self.release_slot();
                    }
                }
            }
        }
        Err(format!(
            "job failed after {MAX_ATTEMPTS} attempts; last error: {last_error}"
        ))
    }

    /// Sends one job frame to `worker` and reads back its id-validated
    /// result, re-anchoring any worker spans into this process's trace:
    /// one process lane per worker (pids ≥ 1000 stay clear of the local
    /// pid), worker tids inside it.
    fn relay(
        &self,
        worker: &mut WorkerHandle,
        id: usize,
        name: &str,
        frame: &str,
    ) -> Result<(String, WireResult), String> {
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
        Ok((line, wire))
    }

    /// Marks the fleet as retiring: from now on a worker checked in while
    /// no job waits is shut down at once.
    pub(crate) fn retire(&self) {
        self.state.lock().expect("fleet state").retiring = true;
    }

    /// Retires the fleet and shuts its idle workers down concurrently.
    /// Call once no job is in flight.
    pub(crate) fn drain(&self) {
        let idle = {
            let mut state = self.state.lock().expect("fleet state");
            state.retiring = true;
            state.alive -= state.idle.len();
            std::mem::take(&mut state.idle)
        };
        std::thread::scope(|scope| {
            for worker in idle {
                scope.spawn(move || worker.shutdown());
            }
        });
    }
}

/// Zips the worker's per-stage verdicts with the locally generated
/// obligations, reconstructing the [`AcceptabilityReport`] an in-process
/// check would have produced (identical verdicts; per-VC solver timings
/// stay with the process that measured them, so per-VC stats are zeroed
/// and per-stage aggregates come off the wire).
pub(crate) fn rebuild_report(
    job: &ShardJob,
    wire_stages: Vec<WireStage>,
    engine: EngineStats,
) -> Result<AcceptabilityReport, String> {
    if wire_stages.len() != job.stage_vcs.len() {
        return Err(format!(
            "result frame carries {} stages, expected {}",
            wire_stages.len(),
            job.stage_vcs.len()
        ));
    }
    let mut staged = Vec::with_capacity(wire_stages.len());
    for (wire, (stage, vcs)) in wire_stages.into_iter().zip(&job.stage_vcs) {
        if wire.stage != *stage {
            return Err(format!(
                "result frame stage {:?} does not match scheduled {:?}",
                wire.stage.name(),
                stage.name()
            ));
        }
        if wire.verdicts.len() != vcs.len() {
            return Err(format!(
                "stage {} carries {} verdicts for {} obligations",
                stage.name(),
                wire.verdicts.len(),
                vcs.len()
            ));
        }
        let results = vcs
            .iter()
            .zip(wire.verdicts)
            .map(|(vc, (verdict, cached))| VcResult {
                vc: vc.clone(),
                verdict,
                stats: SolverStats::default(),
                cached,
            })
            .collect();
        let report = Report {
            results,
            stats: wire.stats,
            ..Report::default()
        };
        staged.push((*stage, report));
    }
    let mut report = AcceptabilityReport::from_stages(staged);
    report.engine = engine;
    Ok(report)
}

/// Turns one job's outcome into its [`CorpusEntry`] — the result-to-entry
/// step shared by the sharded driver and the service client. `Err` is a
/// job that produced no result frame; a worker-reported error (e.g. a
/// program that did not re-parse) fails the program too. `error` picks
/// the [`CorpusError`] variant. The entry carries no lint: the corpus
/// pipeline attaches it (warnings never cross a wire).
pub(crate) fn entry_from_result(
    job: &ShardJob,
    result: Result<WireResult, String>,
    error: fn(String) -> CorpusError,
) -> CorpusEntry {
    let (elapsed_ms, outcome) = match result {
        Ok(wire) => (
            wire.elapsed_ms,
            match wire.error {
                Some(reason) => Err(reason),
                None => rebuild_report(job, wire.stages, wire.engine),
            },
        ),
        Err(reason) => (0, Err(reason)),
    };
    CorpusEntry {
        name: job.name.clone(),
        elapsed_ms,
        lint: Vec::new(),
        outcome: outcome.map_err(error),
    }
}

/// The driver behind
/// [`CorpusPolicy::Sharded`](crate::api::CorpusPolicy::Sharded): a
/// private [`Fleet`] of `shards` workers and `shards` lanes claiming the
/// longest-first job list. Returns the programs' entries, without lint,
/// in input order, plus the process fan-out. See the
/// [module docs](self).
pub(crate) fn run_corpus_sharded(
    verifier: &Verifier,
    programs: &[(String, &Program, &Spec)],
    shards: usize,
) -> (Vec<CorpusEntry>, usize) {
    let config = verifier.config();
    let mut slots: Vec<Option<CorpusEntry>> = (0..programs.len()).map(|_| None).collect();
    let jobs = prepare_jobs(config.stages, programs, &mut slots);
    let shards = shards.clamp(1, jobs.len().max(1));
    let ran = match resolve_worker(config) {
        Ok(binary) => {
            let fleet = Fleet::new(config, binary, shards);
            let handed_out = AtomicUsize::new(0);
            let ran = fan_out(&jobs, shards, |job| {
                // Once the last job is handed out, a worker checked in
                // while no job waits retires at once.
                if handed_out.fetch_add(1, Ordering::Relaxed) + 1 == jobs.len() {
                    fleet.retire();
                }
                let result = fleet
                    .run(job.id, &job.name, &job.frame)
                    .map(|(_, wire)| wire);
                entry_from_result(job, result, CorpusError::Shard)
            });
            fleet.drain();
            ran
        }
        // No worker binary: every distributable program errs with the
        // same actionable message (no silent in-process fallback — a
        // sharded run that was not sharded would corrupt benchmark
        // conclusions).
        Err(reason) => jobs
            .iter()
            .map(|job| entry_from_result(job, Err(reason.clone()), CorpusError::Shard))
            .collect(),
    };
    for (job, entry) in jobs.iter().zip(ran) {
        slots[job.id] = Some(entry);
    }
    // Warm the coordinator's own session cache from the store the workers
    // populated, so later in-process checks (or the next wave) reuse the
    // corpus verdicts.
    verifier.refresh();
    (filled(slots), shards)
}

/// The entries of a driver's slots, every one of which a job or a
/// vcgen error filled.
pub(crate) fn filled(slots: Vec<Option<CorpusEntry>>) -> Vec<CorpusEntry> {
    slots
        .into_iter()
        .map(|slot| slot.expect("every program fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A loop program: more obligations than [`toy`].
    fn looping() -> (Program, Spec) {
        let program = parse_program(
            "i = 0;
             while (i < n)
               invariant (0 <= i)
               rinvariant (i<o> == i<r> && n<o> == n<r>)
             { i = i + 1; }",
        )
        .unwrap();
        let spec = Spec::synced(&program);
        (program, spec)
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
        let wire = parse_result_frame(lines.next().unwrap()).unwrap();
        assert_eq!(wire.id, 0);
        assert!(wire.error.is_none());
        // The wire verdicts match a direct in-process check.
        let (program, spec) = toy();
        let direct = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        let direct_stages = [&direct.original, &direct.relaxed];
        assert_eq!(wire.stages.len(), 2);
        for (wire_stage, direct_report) in wire.stages.iter().zip(direct_stages) {
            assert_eq!(wire_stage.verdicts.len(), direct_report.results.len());
            for ((verdict, _), expected) in wire_stage.verdicts.iter().zip(&direct_report.results) {
                assert_eq!(verdict, &expected.verdict);
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
        assert!(wire.error.unwrap().contains("program:"));
    }

    #[test]
    fn worker_rejects_jobs_before_config() {
        let frames = "{\"type\":\"job\",\"id\":1,\"name\":\"x\",\"program\":\"skip;\",\
                      \"pre\":\"true\",\"post\":\"true\",\"rel_pre\":\"true\",\"rel_post\":\"true\"}\n";
        let (result, output) = drive_worker(frames, Fault::None);
        result.unwrap();
        let wire = parse_result_frame(output.lines().next().unwrap()).unwrap();
        assert!(wire.error.unwrap().contains("job before config"));
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
        assert_eq!(wire.engine, report.engine);
        assert_eq!(wire.stages[0].stats, report.original.stats);
        assert_eq!(wire.stages[1].stats, report.relaxed.stats);
        let cached_on_wire: usize = wire.stages[1]
            .verdicts
            .iter()
            .filter(|(_, cached)| *cached)
            .count();
        let cached_direct = report.relaxed.results.iter().filter(|r| r.cached).count();
        assert_eq!(cached_on_wire, cached_direct);
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

    #[test]
    fn prepare_jobs_orders_longest_first_by_vc_count() {
        let (small, small_spec) = toy();
        let (large, large_spec) = looping();
        let entries = vec![
            ("small".to_string(), &small, &small_spec),
            ("large".to_string(), &large, &large_spec),
            ("small_again".to_string(), &small, &small_spec),
        ];
        let mut slots: Vec<Option<CorpusEntry>> = vec![None, None, None];
        let jobs = prepare_jobs(StageSet::default(), &entries, &mut slots);
        let order: Vec<(&str, usize)> = jobs
            .iter()
            .map(|job| (job.name.as_str(), job.vc_count))
            .collect();
        assert!(
            jobs[0].vc_count > jobs[1].vc_count,
            "the programs differ in VC count: {order:?}"
        );
        let names: Vec<&str> = order.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            ["large", "small", "small_again"],
            "longest first, ties in corpus order"
        );
    }

    #[test]
    fn missing_worker_binary_yields_per_program_errors() {
        let (program, spec) = toy();
        let verifier = Verifier::builder()
            .shards(2)
            .shard_worker("/nonexistent/relaxed-shardd")
            .workers(1)
            .build();
        let report = verifier.check_corpus(&[(program, spec)]);
        assert_eq!(report.len(), 1);
        let err = report.entries[0].outcome.as_ref().unwrap_err();
        assert!(matches!(err, CorpusError::Shard(_)), "{err}");
        assert!(err.to_string().contains("failed after"), "{err}");
    }

    #[test]
    fn empty_sharded_corpus_is_a_clean_empty_report() {
        let verifier = Verifier::builder().shards(2).build();
        let report = verifier.check_corpus(&[]);
        assert!(report.is_empty());
        assert!(report.verified());
    }
}
