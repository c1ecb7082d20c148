//! Sharded multi-process corpus verification.
//!
//! The paper's acceptability proofs decompose into independent per-program
//! obligations (one staged `⊢o`/`⊢i`/`⊢r` check each), so a corpus is
//! embarrassingly parallel beyond one process. This module is the
//! process-level execution layer behind
//! [`CorpusPolicy::Sharded`](crate::api::CorpusPolicy::Sharded): a
//! **coordinator** (the `ShardPool` driving this module's
//! `run_corpus_sharded`) that distributes programs across N
//! **worker processes** (the `relaxed-shardd` binary, whose entire logic
//! is [`worker_main`] in this module) and merges their results into the
//! same deterministic [`CorpusReport`] an in-process
//! [`Verifier::check_corpus`] run produces.
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
//! {"type":"config",...}       {"type":"ready","proto":1}
//! {"type":"job","id":0,...}   {"type":"result","id":0,...}
//! {"type":"job","id":3,...}   {"type":"result","id":3,...}
//! <EOF>                       (final incremental persist, exit 0)
//! ```
//!
//! The `config` frame carries the session's typed configuration (solver
//! budgets, stage selection, per-worker thread budget, cache path and
//! cap); each `job` frame carries one serialized program + spec (the
//! pretty-printed source, which round-trips through the parser); each
//! `result` frame carries the per-stage verdict lists, per-job engine and
//! solver statistics, and wall time. The coordinator re-generates the VCs
//! locally (generation is deterministic and cheap — solving is the
//! expensive part) and zips them with the returned verdicts, so the
//! merged report is structurally identical to an in-process run's.
//!
//! # Work units: goal batches
//!
//! The unit of distribution is a **goal batch**, not a whole program.
//! Under [`Config::goal_shards`] > 1 each program's concatenated
//! obligation list (every selected stage, pipeline order) is split into
//! up to that many balanced contiguous batches, each shipped as its own
//! job frame (`"batch":k,"batches":n`); the worker re-generates the
//! stage VCs (generation is deterministic and cheap), computes the same
//! split, and discharges only its slice. The coordinator merges the
//! batch partials back into one per-program entry, so a corpus of one
//! huge program still saturates the whole fleet. The default
//! (`goal_shards = 1`) keeps whole-program jobs, and a frame without
//! batch fields means `batches = 1` — older coordinators and workers
//! interoperate unchanged.
//!
//! # Scheduling and fault tolerance
//!
//! Jobs are distributed by **work-stealing**: a shared queue ordered
//! longest-first that idle workers pull from, so one slow program cannot
//! serialize the tail of the corpus. "Longest" is *measured* when
//! possible: once the session's observed-cost history (per-program
//! `elapsed_ms` from earlier [`CorpusReport`]s, see
//! [`Verifier::observe_costs`](crate::api::Verifier::observe_costs))
//! covers every scheduled program, jobs are ordered by observed
//! milliseconds (divided across a program's batches) instead of the
//! VC-count estimate. A worker crash, a malformed response frame, or a
//! response timeout kills that worker and requeues the job onto a
//! freshly spawned replacement worker (a new process, so accumulated
//! worker state can never fail the same job twice); after
//! [`MAX_ATTEMPTS`] failed attempts the job is recorded as a per-program
//! [`CorpusError::Shard`] — never a lost program, never a hung
//! coordinator.
//!
//! [`Config::goal_shards`]: crate::api::Config::goal_shards
//!
//! # Cache-mediated verdict sharing
//!
//! Under [`CachePolicy::Persistent`]
//! every worker opens the same fingerprint-gated verdict store: it
//! refreshes from disk before each job (picking up verdicts sibling
//! workers published, counted as [`EngineStats::disk_hits`]; a cheap
//! `stat` guard skips unchanged files) and **appends** its fresh verdicts
//! after each job
//! ([`DischargeEngine::append_pending`](crate::engine::DischargeEngine::append_pending))
//! — appends never rewrite the file, so one worker's flush can never drop
//! a sibling's concurrently published entries. The coordinator refreshes
//! its own session cache after the run, so subsequent in-process checks
//! start warm.
//!
//! [`Verifier::check_corpus`]: crate::api::Verifier::check_corpus
//! [`CorpusReport`]: crate::api::CorpusReport
//! [`CorpusError::Shard`]: crate::api::CorpusError::Shard
//! [`EngineStats::disk_hits`]: crate::engine::EngineStats::disk_hits

use crate::api::{
    elapsed_ms_since, CachePolicy, Config, CorpusEntry, CorpusError, CorpusReport, Stage, StageSet,
    Verifier,
};
use crate::cache::{get, json_string, parse_json, parse_verdict, render_verdict, Json};
use crate::engine::EngineStats;
use crate::vcgen::Vc;
use crate::verify::{stage_vcs, AcceptabilityReport, Report, Spec, VcResult};
use relaxed_lang::{parse_formula, parse_program, parse_rel_formula, Program};
use relaxed_smt::sat::SatStats;
use relaxed_smt::{SolverStats, Validity};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version of the coordinator/worker wire protocol. The worker echoes it
/// in its `ready` frame; a mismatch fails the handshake (and the job is
/// retried elsewhere, ultimately surfacing as a per-program error rather
/// than silently mixing protocol revisions).
pub const PROTOCOL_VERSION: u32 = 1;

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
    let mut names = Vec::new();
    for stage in [Stage::Original, Stage::Intermediate, Stage::Relaxed] {
        if stages.contains(stage) {
            names.push(stage_name(stage));
        }
    }
    names.join(",")
}

fn parse_stages(text: &str) -> Result<StageSet, String> {
    let mut stages = StageSet::none();
    for name in text.split(',').filter(|s| !s.is_empty()) {
        stages = stages.with(stage_by_name(name)?);
    }
    Ok(stages)
}

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Original => "original",
        Stage::Intermediate => "intermediate",
        Stage::Relaxed => "relaxed",
    }
}

fn stage_by_name(name: &str) -> Result<Stage, String> {
    match name {
        "original" => Ok(Stage::Original),
        "intermediate" => Ok(Stage::Intermediate),
        "relaxed" => Ok(Stage::Relaxed),
        other => Err(format!("unknown stage {other:?}")),
    }
}

pub(crate) fn render_config_frame(config: &Config, per_worker: usize) -> String {
    let cache = match &config.cache {
        CachePolicy::Persistent { path } => path.display().to_string(),
        CachePolicy::Shared | CachePolicy::PerProgram => String::new(),
    };
    let per_program = u8::from(matches!(config.cache, CachePolicy::PerProgram));
    // Coordinator-side tracing travels with the session: workers capture
    // spans in memory and ship them back inside result frames.
    let trace = u8::from(crate::telemetry::enabled());
    format!(
        "{{\"type\":\"config\",\"proto\":{PROTOCOL_VERSION},\"max_conflicts\":{},\
         \"branch_budget\":{},\"workers\":{per_worker},\"trace\":{trace},\
         \"stages\":{},\"cache\":{},\
         \"cache_max\":{},\"per_program\":{per_program}}}",
        config.max_conflicts,
        config.branch_budget,
        json_string(&render_stages(config.stages)),
        json_string(&cache),
        config.cache_max,
    )
}

fn render_job_frame(
    id: usize,
    name: &str,
    program: &Program,
    spec: &Spec,
    batch: usize,
    batches: usize,
) -> String {
    format!(
        "{{\"type\":\"job\",\"id\":{id},\"name\":{},\"batch\":{batch},\"batches\":{batches},\
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

fn render_solver_stats(out: &mut String, stats: &SolverStats) {
    out.push_str(&format!(
        "{{\"queries\":{},\"pivots\":{},\"branch_nodes\":{},\"atoms\":{},\"max_atoms\":{},\
         \"decisions\":{},\"conflicts\":{},\"propagations\":{},\"restarts\":{},\
         \"theory_checks\":{}}}",
        stats.queries,
        stats.pivots,
        stats.branch_nodes,
        stats.atoms,
        stats.max_atoms,
        stats.sat.decisions,
        stats.sat.conflicts,
        stats.sat.propagations,
        stats.sat.restarts,
        stats.sat.theory_checks,
    ));
}

/// Span budget per result frame: a worker ships at most this many spans
/// back, so a pathological job cannot balloon the frame (the dropped
/// tail is the deepest-nested spans; the coarse phase picture survives).
const MAX_FRAME_SPANS: usize = 4096;

fn render_result_frame(
    id: usize,
    report: &AcceptabilityReport,
    elapsed_ms: u64,
    spans: &[crate::telemetry::Event],
    mark_us: u64,
) -> String {
    let engine = &report.engine;
    let mut out = format!(
        "{{\"type\":\"result\",\"id\":{id},\"elapsed_ms\":{elapsed_ms},\
         \"cache_hits\":{},\"cache_misses\":{},\"cross_hits\":{},\"disk_hits\":{},\
         \"static_hits\":{},\
         \"vcgen_ms\":{},\"encode_ms\":{},\"solve_ms\":{},\"cache_ms\":{},\
         \"stages\":[",
        engine.cache_hits,
        engine.cache_misses,
        engine.cross_hits,
        engine.disk_hits,
        engine.static_hits,
        engine.elapsed_vcgen_ms,
        engine.elapsed_encode_ms,
        engine.elapsed_solve_ms,
        engine.elapsed_cache_ms,
    );
    let mut first = true;
    let mut stage_out = |stage: Stage, stage_report: &Report| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{{\"stage\":\"{}\",\"stats\":", stage_name(stage)));
        render_solver_stats(&mut out, &stage_report.stats);
        out.push_str(",\"verdicts\":[");
        for (i, result) in stage_report.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            render_verdict(&mut out, &result.verdict);
            out.push_str(&format!(",\"cached\":{}", u8::from(result.cached)));
            out.push('}');
        }
        out.push_str("]}");
    };
    if report.stages.original {
        stage_out(Stage::Original, &report.original);
    }
    if let Some(intermediate) = &report.intermediate {
        stage_out(Stage::Intermediate, intermediate);
    }
    if report.stages.relaxed {
        stage_out(Stage::Relaxed, &report.relaxed);
    }
    out.push(']');
    if !spans.is_empty() {
        // Worker spans ride back as timestamps *relative to the job
        // dispatch mark*: the coordinator re-anchors them into its own
        // timeline (see `run_job_on_worker`), so the two processes never
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

pub(crate) fn field_str<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    match get(fields, key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("non-string `{key}`")),
        None => Err(format!("missing `{key}`")),
    }
}

pub(crate) fn field_u64(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    match get(fields, key) {
        Some(Json::Int(n)) => u64::try_from(*n).map_err(|_| format!("`{key}` out of range")),
        Some(_) => Err(format!("non-integer `{key}`")),
        None => Err(format!("missing `{key}`")),
    }
}

fn parse_solver_stats(value: &Json) -> Result<SolverStats, String> {
    let fields = value.as_object()?;
    Ok(SolverStats {
        queries: field_u64(fields, "queries")?,
        pivots: field_u64(fields, "pivots")?,
        branch_nodes: field_u64(fields, "branch_nodes")?,
        atoms: field_u64(fields, "atoms")?,
        max_atoms: field_u64(fields, "max_atoms")?,
        sat: SatStats {
            decisions: field_u64(fields, "decisions")?,
            conflicts: field_u64(fields, "conflicts")?,
            propagations: field_u64(fields, "propagations")?,
            restarts: field_u64(fields, "restarts")?,
            theory_checks: field_u64(fields, "theory_checks")?,
        },
    })
}

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
    let engine = EngineStats {
        cache_hits: field_u64(fields, "cache_hits")?,
        cache_misses: field_u64(fields, "cache_misses")?,
        cross_hits: field_u64(fields, "cross_hits")?,
        disk_hits: field_u64(fields, "disk_hits")?,
        // Optional: a worker predating the static analysis layer simply
        // reports no static hits.
        static_hits: field_u64(fields, "static_hits").unwrap_or(0),
        // Optional: phase timings from a worker predating the telemetry
        // layer default to zero.
        elapsed_vcgen_ms: field_u64(fields, "vcgen_ms").unwrap_or(0),
        elapsed_encode_ms: field_u64(fields, "encode_ms").unwrap_or(0),
        elapsed_solve_ms: field_u64(fields, "solve_ms").unwrap_or(0),
        elapsed_cache_ms: field_u64(fields, "cache_ms").unwrap_or(0),
        ..EngineStats::default()
    };
    let mut stages = Vec::new();
    let stage_items = get(fields, "stages")
        .ok_or("missing `stages`")?
        .as_array()?;
    for item in stage_items {
        let stage_fields = item.as_object()?;
        let stage = stage_by_name(field_str(stage_fields, "stage")?)?;
        let stats = parse_solver_stats(get(stage_fields, "stats").ok_or("missing `stats`")?)?;
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
/// and writing a `result` frame per job; EOF is the shutdown signal (a
/// final incremental persist runs, then the loop returns). See the
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
    // EOF: flush anything a failed per-job append left behind. This is an
    // append, never a rewrite — a worker's shutdown can never clobber
    // verdicts a still-running sibling just published.
    if let Some(session) = &verifier {
        let _ = session.engine().append_pending();
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
        cache_max: field_u64(fields, "cache_max")? as usize,
        stages: parse_stages(field_str(fields, "stages")?)?,
        ..Config::default()
    };
    let cache = field_str(fields, "cache")?;
    if !cache.is_empty() {
        config.cache = CachePolicy::Persistent {
            path: PathBuf::from(cache),
        };
    } else if field_u64(fields, "per_program")? != 0 {
        // The session's per-program isolation travels with the job: each
        // program gets a fresh verdict cache inside the worker too.
        config.cache = CachePolicy::PerProgram;
    }
    Ok(config)
}

/// Parses and verifies one job through the worker's session, persisting
/// incrementally around the check so sibling workers can reuse the
/// verdicts. A whole-program job (`batches <= 1`, the default for frames
/// without batch fields) runs the full staged check; a goal-batch job
/// re-generates the stage VCs, computes the same balanced contiguous
/// split as the coordinator, and discharges only its slice.
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
    // Optional with a permissive default: a coordinator that predates
    // goal batching simply ships whole programs.
    let batch = field_u64(fields, "batch").unwrap_or(0) as usize;
    let batches = (field_u64(fields, "batches").unwrap_or(1) as usize).max(1);
    // Pick up verdicts sibling workers persisted since the last job: they
    // answer shared goals as disk hits, the cross-process payoff.
    session.engine().refresh_from_disk();
    let started = Instant::now();
    let outcome = if batches <= 1 {
        let report = session
            .check_corpus_named(&[(name, program, spec)])
            .entries
            .remove(0);
        match report.outcome {
            Ok(outcome) => outcome,
            Err(e) => return Err(e.to_string()),
        }
    } else {
        run_batch_job(session, &program, &spec, batch, batches)?
    };
    let elapsed_ms = elapsed_ms_since(started);
    // Publish this job's fresh verdicts incrementally, by *appending* to
    // the shared store: an append can never drop entries a sibling worker
    // persisted concurrently (duplicate keys resolve later-wins at load).
    if let Err(e) = session.engine().append_pending() {
        crate::diag::warn(format_args!(
            "{WORKER_BINARY}: failed to append to the verdict cache: {e}"
        ));
    }
    Ok((outcome, elapsed_ms))
}

/// Discharges one goal batch of `program`: the same VC generation and
/// the same [`batch_bounds`] split as the coordinator, so the returned
/// per-stage verdict lists zip exactly with the coordinator's
/// [`ShardJob::stage_vcs`] slice. Every selected stage appears in the
/// report (possibly with an empty slice), keeping the result frame's
/// stage spectrum identical to the scheduled one.
fn run_batch_job(
    session: &Verifier,
    program: &Program,
    spec: &Spec,
    batch: usize,
    batches: usize,
) -> Result<AcceptabilityReport, String> {
    let stages = session.config().stages;
    let mut prepared = Vec::new();
    for stage in [Stage::Original, Stage::Intermediate, Stage::Relaxed] {
        if !stages.contains(stage) {
            continue;
        }
        prepared.push((
            stage,
            stage_vcs(stage, program, spec).map_err(|e| e.to_string())?,
        ));
    }
    let total: usize = prepared.iter().map(|(_, vcs)| vcs.len()).sum();
    if batch >= batches || batches > total.max(1) {
        return Err(format!(
            "batch {batch}/{batches} is inconsistent with {total} obligations"
        ));
    }
    let (start, end) = batch_bounds(total, batches, batch);
    let mut report_stages = StageSet::none();
    let mut original = Report::default();
    let mut intermediate = None;
    let mut relaxed = Report::default();
    let mut engine = EngineStats::default();
    for (stage, vcs) in batch_stage_slice(&prepared, start, end) {
        let stage_report = session.engine().discharge(vcs);
        engine.absorb(&stage_report.engine);
        report_stages = report_stages.with(stage);
        match stage {
            Stage::Original => original = stage_report,
            Stage::Intermediate => intermediate = Some(stage_report),
            Stage::Relaxed => relaxed = stage_report,
        }
    }
    Ok(AcceptabilityReport {
        stages: report_stages,
        original,
        intermediate,
        relaxed,
        engine,
    })
}

// ---------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------

/// One goal batch prepared for distribution (to a shard worker or, via
/// [`crate::service`], to a daemon's fleet). Under the default
/// `goal_shards = 1` a job is a whole program; otherwise a program fans
/// out into up to `goal_shards` jobs over contiguous slices of its
/// concatenated obligation list.
pub(crate) struct ShardJob {
    /// Corpus-unique wire job id (one per batch, not per program).
    pub(crate) id: usize,
    /// Index of the program in corpus input order — the result slot this
    /// job's (partial) entry merges into.
    pub(crate) slot: usize,
    /// This job's batch index within the program's split.
    pub(crate) batch: usize,
    /// Total batches the program was split into (1 = whole program).
    pub(crate) batches: usize,
    pub(crate) name: String,
    pub(crate) frame: String,
    /// The locally generated obligations of every selected stage, in
    /// pipeline order, restricted to this batch's contiguous slice —
    /// zipped with the worker's verdicts to rebuild the batch's partial
    /// report. Stages whose goals fall entirely outside the slice stay
    /// present with an empty list, so the stage spectrum is stable.
    pub(crate) stage_vcs: Vec<(Stage, Vec<Vc>)>,
    pub(crate) vc_count: usize,
    /// Measured scheduling cost: the program's observed `elapsed_ms`
    /// divided across its batches, when the session has an observation.
    pub(crate) cost: u64,
    pub(crate) attempts: u32,
    pub(crate) last_error: String,
}

/// The balanced contiguous split: half-open bounds of batch `batch` of
/// `batches` over a `total`-element sequence. Batches differ in size by
/// at most one, cover the sequence exactly, and are computed identically
/// by the coordinator and the worker (the protocol ships only
/// `batch`/`batches`, never the bounds).
pub(crate) fn batch_bounds(total: usize, batches: usize, batch: usize) -> (usize, usize) {
    let base = total / batches;
    let rem = total % batches;
    let start = batch * base + batch.min(rem);
    (start, start + base + usize::from(batch < rem))
}

/// Restricts per-stage obligation lists to the global goal range
/// `[start, end)` over their concatenation. Every stage stays present
/// (possibly empty), so both protocol sides agree on the stage spectrum
/// of every batch.
pub(crate) fn batch_stage_slice(
    prepared: &[(Stage, Vec<Vc>)],
    start: usize,
    end: usize,
) -> Vec<(Stage, Vec<Vc>)> {
    let mut out = Vec::with_capacity(prepared.len());
    let mut offset = 0usize;
    for (stage, vcs) in prepared {
        let lo = start.clamp(offset, offset + vcs.len()) - offset;
        let hi = end.clamp(offset, offset + vcs.len()) - offset;
        out.push((*stage, vcs[lo..hi].to_vec()));
        offset += vcs.len();
    }
    out
}

/// Generates every program's obligations locally, up front: `VcgenError`s
/// are recorded into `slots` exactly as the in-process driver records
/// them (never shipped over a wire), each program fans out into up to
/// `goal_shards` goal-batch jobs, and the returned job list is ordered
/// longest-first (id-tie-broken for determinism) — by *observed* cost
/// when the session's cost history covers every scheduled program, by VC
/// count otherwise.
pub(crate) fn prepare_jobs(
    stages: StageSet,
    entries: &[(String, &Program, &Spec)],
    slots: &mut [Option<CorpusEntry>],
    goal_shards: usize,
    costs: &std::collections::HashMap<String, u64>,
) -> Vec<ShardJob> {
    let mut jobs: Vec<ShardJob> = Vec::new();
    let mut next_id = 0usize;
    let mut all_observed = true;
    for (slot, (name, program, spec)) in entries.iter().enumerate() {
        let mut prepared = Vec::new();
        let mut failed = None;
        for stage in [Stage::Original, Stage::Intermediate, Stage::Relaxed] {
            if !stages.contains(stage) {
                continue;
            }
            match stage_vcs(stage, program, spec) {
                Ok(vcs) => prepared.push((stage, vcs)),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failed {
            slots[slot] = Some(CorpusEntry {
                name: name.clone(),
                elapsed_ms: 0,
                lint: Vec::new(),
                outcome: Err(CorpusError::Vcgen(e)),
            });
            continue;
        }
        let total: usize = prepared.iter().map(|(_, vcs)| vcs.len()).sum();
        let batches = goal_shards.max(1).min(total.max(1));
        let observed = costs.get(name.as_str()).copied();
        all_observed &= observed.is_some();
        for batch in 0..batches {
            let (start, end) = batch_bounds(total, batches, batch);
            jobs.push(ShardJob {
                id: next_id,
                slot,
                batch,
                batches,
                name: name.clone(),
                frame: render_job_frame(next_id, name, program, spec, batch, batches),
                stage_vcs: batch_stage_slice(&prepared, start, end),
                vc_count: end - start,
                cost: observed.unwrap_or(0) / batches as u64,
                attempts: 0,
                last_error: String::new(),
            });
            next_id += 1;
        }
    }
    // Longest first: the most expensive proofs start immediately, so the
    // corpus tail is short jobs instead of one straggler. Measured wall
    // time beats the VC-count estimate, but only once every program has
    // an observation — a mixed ordering would starve the unmeasured.
    if all_observed {
        jobs.sort_by_key(|job| (std::cmp::Reverse(job.cost), job.id));
    } else {
        jobs.sort_by_key(|job| (std::cmp::Reverse(job.vc_count), job.id));
    }
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
    /// shutdown, the peer's cue to run its final persist) and wait for
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
        // final incremental persist); then reap the process.
        self.stdin.take();
        let _ = self.child.wait();
    }
}

/// [`Transport`] over a TCP stream, speaking to a `relaxed-serviced`
/// daemon (or any peer of the same framed protocol). Reads are
/// deadline-bounded via `set_read_timeout`; a partially received line
/// survives in the buffer across timeouts, so slow frames are delayed,
/// never torn.
pub(crate) struct TcpTransport {
    stream: std::net::TcpStream,
    peer: String,
    buf: Vec<u8>,
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
        }
    }

    fn take_line(&mut self) -> Option<Result<String, String>> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
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
        ready_timeout: Duration,
    ) -> Result<WorkerHandle, String> {
        let transport = PipeTransport::spawn(binary)?;
        WorkerHandle::with_transport(Box::new(transport), config_frame, ready_timeout)
    }

    /// Connects to a `relaxed-serviced` daemon at `addr` and performs the
    /// same config handshake over TCP.
    pub(crate) fn connect(
        addr: &str,
        config_frame: &str,
        ready_timeout: Duration,
    ) -> Result<WorkerHandle, String> {
        let transport = TcpTransport::connect(addr, ready_timeout)?;
        WorkerHandle::with_transport(Box::new(transport), config_frame, ready_timeout)
    }

    fn with_transport(
        transport: Box<dyn Transport>,
        config_frame: &str,
        ready_timeout: Duration,
    ) -> Result<WorkerHandle, String> {
        static NEXT_LANE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let mut handle = WorkerHandle {
            transport,
            lane: NEXT_LANE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            fleet: None,
        };
        match handle.handshake(config_frame, ready_timeout) {
            Ok(()) => Ok(handle),
            Err(e) => {
                handle.transport.abort();
                Err(e)
            }
        }
    }

    fn handshake(&mut self, config_frame: &str, ready_timeout: Duration) -> Result<(), String> {
        self.send(config_frame)?;
        let line = self.recv(ready_timeout)?;
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

/// The coordinator of a sharded corpus run: owns the job queue, the
/// result slots, and the per-worker handler loops. Constructed and driven
/// by [`Verifier::check_corpus`](crate::api::Verifier::check_corpus) when
/// the session's policy is
/// [`CorpusPolicy::Sharded`](crate::api::CorpusPolicy::Sharded).
struct ShardPool {
    binary: PathBuf,
    config_frame: String,
    /// Handshake patience ([`Config::ready_timeout`]).
    ready_timeout: Duration,
    /// Per-job patience ([`Config::job_timeout`]).
    job_timeout: Duration,
    /// Pending jobs, longest-first; idle handlers steal from the front.
    queue: Mutex<VecDeque<ShardJob>>,
    /// Completed (partial) entries, keyed by corpus slot and batch index;
    /// the coordinator merges a slot's batches after the run.
    done: Mutex<Vec<(usize, usize, CorpusEntry)>>,
}

impl ShardPool {
    fn pop(&self) -> Option<ShardJob> {
        self.queue.lock().expect("shard queue").pop_front()
    }

    fn complete(&self, slot: usize, batch: usize, entry: CorpusEntry) {
        self.done
            .lock()
            .expect("shard results")
            .push((slot, batch, entry));
    }

    /// Charges one failed attempt against `job`. Returns `true` once the
    /// job's attempts are exhausted, in which case it has been recorded
    /// as a per-program error; `false` means the caller should retry it
    /// on a fresh worker.
    fn record_failure(&self, job: &mut ShardJob, error: String) -> bool {
        job.attempts += 1;
        job.last_error = error;
        if job.attempts < MAX_ATTEMPTS {
            return false;
        }
        let entry = CorpusEntry {
            name: job.name.clone(),
            elapsed_ms: 0,
            lint: Vec::new(),
            outcome: Err(CorpusError::Shard(format!(
                "job failed after {} attempts; last error: {}",
                job.attempts, job.last_error
            ))),
        };
        self.complete(job.slot, job.batch, entry);
        true
    }

    /// One handler loop: owns (at most) one worker process at a time and
    /// steals jobs from the shared queue. A failed attempt (crash,
    /// malformed frame, timeout, spawn error) kills the worker and
    /// retries the job on a freshly spawned replacement — a *different*
    /// process, so a worker whose lifetime-accumulated state was the
    /// problem cannot fail the same job twice — until the job's bounded
    /// attempts run out and it is recorded as a per-program error.
    fn handler(&self) {
        let mut worker: Option<WorkerHandle> = None;
        'jobs: while let Some(mut job) = self.pop() {
            loop {
                if worker.is_none() {
                    match WorkerHandle::spawn(&self.binary, &self.config_frame, self.ready_timeout)
                    {
                        Ok(handle) => worker = Some(handle),
                        Err(e) => {
                            if self.record_failure(&mut job, e) {
                                continue 'jobs;
                            }
                            continue;
                        }
                    }
                }
                let handle = worker.as_mut().expect("worker spawned");
                match run_job_on_worker(handle, &job, self.job_timeout) {
                    Ok(entry) => {
                        self.complete(job.slot, job.batch, entry);
                        continue 'jobs;
                    }
                    Err(e) => {
                        // The channel is desynchronized (crash, corruption,
                        // or timeout): this worker cannot be trusted with
                        // another frame. Kill it; the retry (or the next
                        // job) spawns a replacement.
                        worker.take().expect("worker present").kill();
                        if self.record_failure(&mut job, e) {
                            continue 'jobs;
                        }
                    }
                }
            }
        }
        if let Some(handle) = worker {
            handle.shutdown();
        }
        // Scoped threads signal completion before their thread-local
        // destructors run: flush this handler's spans (the `shard`/`job`
        // dispatch spans) before the pool's scope joins.
        crate::telemetry::drain_thread();
    }
}

/// Sends one job to a worker and rebuilds its [`CorpusEntry`] from the
/// result frame. Any error here means the worker/channel is unusable and
/// the job must be retried elsewhere.
fn run_job_on_worker(
    worker: &mut WorkerHandle,
    job: &ShardJob,
    job_timeout: Duration,
) -> Result<CorpusEntry, String> {
    let mut job_span = crate::telemetry::span("shard", "job");
    if job_span.is_active() {
        job_span.arg("id", job.id as u64);
        job_span.arg("name", job.name.as_str());
        job_span.arg("worker", worker.lane);
    }
    // The dispatch mark anchors the worker's job-relative timestamps:
    // its clock starts (to within channel latency) when the job frame
    // leaves the coordinator.
    let dispatch_us = crate::telemetry::now_us();
    worker.send(&job.frame)?;
    let line = worker.recv(job_timeout)?;
    let wire = parse_result_frame(&line).map_err(|e| format!("malformed result frame: {e}"))?;
    if wire.id != job.id {
        return Err(format!(
            "result frame for job {} while awaiting job {}",
            wire.id, job.id
        ));
    }
    if !wire.spans.is_empty() {
        // Re-anchor the worker's spans into the coordinator timeline:
        // one process lane per worker (pids ≥ 1000 stay clear of the
        // coordinator's LOCAL_PID), worker tids inside it.
        let pid = 1000 + worker.lane;
        let events: Vec<crate::telemetry::Event> = wire
            .spans
            .into_iter()
            .map(|mut event| {
                event.ts_us = dispatch_us.saturating_add(event.ts_us);
                event.pid = pid;
                event
            })
            .collect();
        crate::telemetry::inject(&format!("shard-worker-{}", worker.lane), pid, events);
    }
    if let Some(error) = wire.error {
        // A worker-side deterministic failure (e.g. the program did not
        // re-parse): retrying elsewhere cannot help, so record it.
        return Ok(CorpusEntry {
            name: job.name.clone(),
            elapsed_ms: wire.elapsed_ms,
            lint: Vec::new(),
            outcome: Err(CorpusError::Shard(format!("worker reported: {error}"))),
        });
    }
    let report = rebuild_report(job, wire.stages, wire.engine)?;
    // Lint is filled by the coordinator after the merge (it holds the
    // programs; warnings never cross the worker wire).
    Ok(CorpusEntry {
        name: job.name.clone(),
        elapsed_ms: wire.elapsed_ms,
        lint: Vec::new(),
        outcome: Ok(report),
    })
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
    let mut stages = StageSet::none();
    let mut original = Report::default();
    let mut intermediate = None;
    let mut relaxed = Report::default();
    for (wire, (stage, vcs)) in wire_stages.into_iter().zip(&job.stage_vcs) {
        if wire.stage != *stage {
            return Err(format!(
                "result frame stage {:?} does not match scheduled {:?}",
                stage_name(wire.stage),
                stage_name(*stage)
            ));
        }
        if wire.verdicts.len() != vcs.len() {
            return Err(format!(
                "stage {} carries {} verdicts for {} obligations",
                stage_name(*stage),
                wire.verdicts.len(),
                vcs.len()
            ));
        }
        let mut report = Report {
            stats: wire.stats,
            ..Report::default()
        };
        for (vc, (verdict, cached)) in vcs.iter().zip(wire.verdicts) {
            report.results.push(VcResult {
                vc: vc.clone(),
                verdict,
                stats: SolverStats::default(),
                cached,
            });
        }
        stages = stages.with(*stage);
        match stage {
            Stage::Original => original = report,
            Stage::Intermediate => intermediate = Some(report),
            Stage::Relaxed => relaxed = report,
        }
    }
    Ok(AcceptabilityReport {
        stages,
        original,
        intermediate,
        relaxed,
        engine,
    })
}

/// Merges a program's completed batch partials (in any arrival order)
/// into the single [`CorpusEntry`] a whole-program job would have
/// produced: per-stage results concatenate in batch order (batches are
/// contiguous slices of the generation order), statistics sum, and
/// `elapsed_ms` is the *maximum* across batches (they ran in parallel).
/// Any failed batch fails the program with that batch's error. Shared by
/// the shard coordinator and the service client.
pub(crate) fn merge_batch_entries(mut parts: Vec<(usize, CorpusEntry)>) -> CorpusEntry {
    parts.sort_by_key(|(batch, _)| *batch);
    if parts.len() == 1 {
        return parts.pop().expect("one part").1;
    }
    if let Some(pos) = parts.iter().position(|(_, part)| part.outcome.is_err()) {
        return parts.swap_remove(pos).1;
    }
    let name = parts[0].1.name.clone();
    let mut elapsed_ms = 0u64;
    let mut stages = StageSet::none();
    let mut original = Report::default();
    let mut intermediate: Option<Report> = None;
    let mut relaxed = Report::default();
    let mut engine = EngineStats::default();
    for (_, part) in parts {
        elapsed_ms = elapsed_ms.max(part.elapsed_ms);
        let report = part.outcome.expect("errors handled above");
        engine.absorb(&report.engine);
        if report.stages.original {
            stages = stages.with(Stage::Original);
        }
        if report.stages.relaxed {
            stages = stages.with(Stage::Relaxed);
        }
        original.merge(report.original);
        if let Some(part_intermediate) = report.intermediate {
            stages = stages.with(Stage::Intermediate);
            intermediate
                .get_or_insert_with(Report::default)
                .merge(part_intermediate);
        }
        relaxed.merge(report.relaxed);
    }
    CorpusEntry {
        name,
        elapsed_ms,
        lint: Vec::new(),
        outcome: Ok(AcceptabilityReport {
            stages,
            original,
            intermediate,
            relaxed,
            engine,
        }),
    }
}

/// Runs a corpus across worker processes — the implementation behind
/// [`CorpusPolicy::Sharded`](crate::api::CorpusPolicy::Sharded). See the
/// [module docs](self) for the architecture.
pub(crate) fn run_corpus_sharded(
    verifier: &Verifier,
    entries: Vec<(String, &Program, &Spec)>,
    shards: usize,
) -> CorpusReport {
    let started = Instant::now();
    let config = verifier.config();
    let stages = config.stages;
    let count = entries.len();

    let mut report = CorpusReport {
        stages,
        ..CorpusReport::default()
    };

    let mut slots: Vec<Option<CorpusEntry>> = (0..count).map(|_| None).collect();
    let jobs = prepare_jobs(
        stages,
        &entries,
        &mut slots,
        config.goal_shards,
        &verifier.cost_snapshot(),
    );
    // Goal batching can yield more jobs than programs, so the process
    // fan-out clamps to the *job* count: one huge program split into
    // batches still saturates every worker.
    let shards = shards.clamp(1, jobs.len().max(1));

    // Per-worker thread budget: the leftover parallelism once jobs fan
    // out across processes (mirrors the in-process corpus driver).
    let budget = config.discharge_config().effective_parallelism();
    let per_worker = (budget / shards).max(1);

    if !jobs.is_empty() {
        match resolve_worker(config) {
            Ok(binary) => {
                let job_count = jobs.len();
                // Batches scheduled per slot, to verify merge completeness.
                let mut expected = vec![0usize; count];
                for job in &jobs {
                    expected[job.slot] = job.batches;
                }
                let pool = ShardPool {
                    binary,
                    config_frame: render_config_frame(config, per_worker),
                    ready_timeout: config.ready_timeout,
                    job_timeout: config.job_timeout,
                    queue: Mutex::new(jobs.into()),
                    done: Mutex::new(Vec::with_capacity(job_count)),
                };
                std::thread::scope(|scope| {
                    for _ in 0..shards {
                        scope.spawn(|| pool.handler());
                    }
                });
                let mut parts: Vec<Vec<(usize, CorpusEntry)>> =
                    (0..count).map(|_| Vec::new()).collect();
                for (slot, batch, entry) in pool.done.into_inner().expect("shard results") {
                    parts[slot].push((batch, entry));
                }
                for (slot, list) in parts.into_iter().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    if list.len() != expected[slot] {
                        // Unreachable by construction (every queued job
                        // completes or errors); degrade loudly rather
                        // than merge a partial program.
                        slots[slot] = Some(CorpusEntry {
                            name: list[0].1.name.clone(),
                            elapsed_ms: 0,
                            lint: Vec::new(),
                            outcome: Err(CorpusError::Shard(format!(
                                "{} of {} goal batches were lost by the pool",
                                expected[slot] - list.len().min(expected[slot]),
                                expected[slot]
                            ))),
                        });
                        continue;
                    }
                    slots[slot] = Some(merge_batch_entries(list));
                }
            }
            Err(reason) => {
                // No worker binary: every distributable program errs with
                // the same actionable message (no silent in-process
                // fallback — a sharded run that was not sharded would
                // corrupt benchmark conclusions).
                for job in jobs {
                    slots[job.slot] = Some(CorpusEntry {
                        name: job.name,
                        elapsed_ms: 0,
                        lint: Vec::new(),
                        outcome: Err(CorpusError::Shard(reason.clone())),
                    });
                }
            }
        }
    }

    finalize_corpus_report(&mut report, slots, &entries, &|_| {
        CorpusError::Shard("job was lost by the pool".to_string())
    });
    // Corpus-level parallelism is the process fan-out.
    report.engine.workers = shards;
    report.elapsed_ms = elapsed_ms_since(started);
    // Warm the coordinator's own session cache from the store the workers
    // populated, so later in-process checks (or the next wave) reuse the
    // corpus verdicts.
    verifier.engine().refresh_from_disk();
    report
}

/// Fills the report from the completed `slots`, attaching
/// coordinator-side lint (warnings never cross a wire) and absorbing
/// per-program engine/solver statistics — the merge tail shared by the
/// sharded and service corpus drivers. `lost` names the error for a slot
/// no job ever filled (unreachable by construction; degrade loudly rather
/// than panic the whole corpus if a future refactor breaks that
/// invariant).
pub(crate) fn finalize_corpus_report(
    report: &mut CorpusReport,
    slots: Vec<Option<CorpusEntry>>,
    entries: &[(String, &Program, &Spec)],
    lost: &dyn Fn(usize) -> CorpusError,
) {
    for (index, slot) in slots.into_iter().enumerate() {
        let mut entry = slot.unwrap_or_else(|| CorpusEntry {
            name: format!("program_{index}"),
            elapsed_ms: 0,
            lint: Vec::new(),
            outcome: Err(lost(index)),
        });
        if let Some((_, program, spec)) = entries.get(index) {
            entry.lint = crate::api::rendered_lint(program, spec);
        }
        if let Ok(program_report) = &entry.outcome {
            report.engine.absorb(&program_report.engine);
            report.stats.absorb(&program_report.original.stats);
            if let Some(intermediate) = &program_report.intermediate {
                report.stats.absorb(&intermediate.stats);
            }
            report.stats.absorb(&program_report.relaxed.stats);
        }
        report.entries.push(entry);
    }
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
            render_job_frame(0, "toy", &program, &spec, 0, 1)
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
    fn per_program_policy_travels_to_the_worker() {
        // Two identical jobs. Under the default Shared policy the second
        // is answered entirely from the worker's session cache; under
        // PerProgram the worker must isolate the programs and re-solve.
        let (program, spec) = toy();
        let frames = |config: &Config| {
            format!(
                "{}\n{}\n{}\n",
                render_config_frame(config, 1),
                render_job_frame(0, "first", &program, &spec, 0, 1),
                render_job_frame(1, "second", &program, &spec, 0, 1)
            )
        };
        let shared = Config {
            workers: 1,
            ..Config::default()
        };
        let isolated = Config {
            cache: CachePolicy::PerProgram,
            ..shared.clone()
        };
        let second_result = |config: &Config| {
            let (result, output) = drive_worker(&frames(config), Fault::None);
            result.unwrap();
            parse_result_frame(output.lines().nth(2).unwrap()).unwrap()
        };
        let shared_second = second_result(&shared);
        assert_eq!(shared_second.engine.cache_misses, 0, "shared cache reuses");
        let isolated_second = second_result(&isolated);
        assert!(
            isolated_second.engine.cache_misses > 0,
            "PerProgram must not reuse verdicts across programs: {:?}",
            isolated_second.engine
        );
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
    fn result_frames_round_trip_solver_stats_and_verdicts() {
        let (program, spec) = toy();
        let report = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        let frame = render_result_frame(9, &report, 123, &[], 0);
        let wire = parse_result_frame(&frame).unwrap();
        assert_eq!(wire.id, 9);
        assert_eq!(wire.elapsed_ms, 123);
        assert_eq!(wire.engine.cache_hits, report.engine.cache_hits);
        assert_eq!(wire.stages[0].stats, report.original.stats);
        assert_eq!(wire.stages[1].stats, report.relaxed.stats);
        let cached_on_wire: usize = wire.stages[1]
            .verdicts
            .iter()
            .filter(|(_, cached)| *cached)
            .count();
        let cached_direct = report.relaxed.results.iter().filter(|r| r.cached).count();
        assert_eq!(cached_on_wire, cached_direct);
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
    fn batch_bounds_are_balanced_contiguous_and_covering() {
        for total in [0usize, 1, 5, 7, 16, 100] {
            for batches in [1usize, 2, 3, 5, 16] {
                let batches = batches.min(total.max(1));
                let mut cursor = 0;
                let mut sizes = Vec::new();
                for batch in 0..batches {
                    let (start, end) = batch_bounds(total, batches, batch);
                    assert_eq!(start, cursor, "total={total} batches={batches}");
                    assert!(end >= start);
                    sizes.push(end - start);
                    cursor = end;
                }
                assert_eq!(cursor, total, "batches must cover the sequence");
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn batch_stage_slice_partitions_every_stage() {
        let (program, spec) = toy();
        let mut prepared = Vec::new();
        for stage in [Stage::Original, Stage::Relaxed] {
            prepared.push((stage, stage_vcs(stage, &program, &spec).unwrap()));
        }
        let total: usize = prepared.iter().map(|(_, vcs)| vcs.len()).sum();
        assert!(total >= 2, "toy program should have several obligations");
        let batches = 2.min(total);
        let mut rebuilt: Vec<Vec<Vc>> = vec![Vec::new(); prepared.len()];
        for batch in 0..batches {
            let (start, end) = batch_bounds(total, batches, batch);
            let slices = batch_stage_slice(&prepared, start, end);
            // Every stage stays present, even when its slice is empty.
            assert_eq!(slices.len(), prepared.len());
            for (i, (stage, vcs)) in slices.into_iter().enumerate() {
                assert_eq!(stage, prepared[i].0);
                rebuilt[i].extend(vcs);
            }
        }
        for (rebuilt_stage, (_, vcs)) in rebuilt.iter().zip(&prepared) {
            assert_eq!(rebuilt_stage.len(), vcs.len());
            for (got, want) in rebuilt_stage.iter().zip(vcs) {
                assert_eq!(got.name, want.name);
            }
        }
    }

    #[test]
    fn worker_batch_jobs_reassemble_to_the_whole_program_verdicts() {
        let (program, spec) = toy();
        let config = Config {
            workers: 1,
            ..Config::default()
        };
        let direct = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        let total = direct.original.results.len() + direct.relaxed.results.len();
        assert!(total >= 2);
        let batches = 2;
        let frames = format!(
            "{}\n{}\n{}\n",
            render_config_frame(&config, 1),
            render_job_frame(0, "toy", &program, &spec, 0, batches),
            render_job_frame(1, "toy", &program, &spec, 1, batches),
        );
        let (result, output) = drive_worker(&frames, Fault::None);
        result.unwrap();
        let mut wire_verdicts: Vec<Vec<(Validity, bool)>> = Vec::new();
        for line in output.lines().skip(1) {
            let wire = parse_result_frame(line).unwrap();
            assert!(wire.error.is_none(), "{:?}", wire.error);
            // Both batches report the full stage spectrum.
            assert_eq!(wire.stages.len(), 2);
            for (i, stage) in wire.stages.into_iter().enumerate() {
                if wire_verdicts.len() <= i {
                    wire_verdicts.push(Vec::new());
                }
                wire_verdicts[i].extend(stage.verdicts);
            }
        }
        let direct_stages = [&direct.original, &direct.relaxed];
        for (rebuilt, direct_report) in wire_verdicts.iter().zip(direct_stages) {
            assert_eq!(rebuilt.len(), direct_report.results.len());
            for ((verdict, _), expected) in rebuilt.iter().zip(&direct_report.results) {
                assert_eq!(verdict, &expected.verdict);
            }
        }
    }

    #[test]
    fn worker_rejects_inconsistent_batch_coordinates() {
        let (program, spec) = toy();
        let config = Config {
            workers: 1,
            ..Config::default()
        };
        // Far more batches than the toy program has obligations.
        let frames = format!(
            "{}\n{}\n",
            render_config_frame(&config, 1),
            render_job_frame(0, "toy", &program, &spec, 0, 10_000),
        );
        let (result, output) = drive_worker(&frames, Fault::None);
        result.unwrap();
        let wire = parse_result_frame(output.lines().nth(1).unwrap()).unwrap();
        assert!(wire.error.unwrap().contains("inconsistent"));
    }

    #[test]
    fn prepare_jobs_splits_programs_into_goal_batches() {
        let (program, spec) = toy();
        let entries = vec![("toy".to_string(), &program, &spec)];
        let mut slots: Vec<Option<CorpusEntry>> = vec![None];
        let costs = std::collections::HashMap::new();
        let whole = prepare_jobs(StageSet::default(), &entries, &mut slots, 1, &costs);
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].batch, whole[0].batches), (0, 1));
        let total = whole[0].vc_count;
        assert!(total >= 2);

        let mut slots: Vec<Option<CorpusEntry>> = vec![None];
        let split = prepare_jobs(StageSet::default(), &entries, &mut slots, 2, &costs);
        assert_eq!(split.len(), 2, "one program fans out into two jobs");
        let mut ids: Vec<usize> = split.iter().map(|job| job.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1], "wire ids are corpus-unique");
        assert!(split.iter().all(|job| job.slot == 0));
        assert_eq!(split.iter().map(|job| job.vc_count).sum::<usize>(), total);

        // More shards than goals clamps to one goal per batch.
        let mut slots: Vec<Option<CorpusEntry>> = vec![None];
        let fine = prepare_jobs(StageSet::default(), &entries, &mut slots, 10_000, &costs);
        assert_eq!(fine.len(), total);
        assert!(fine.iter().all(|job| job.vc_count == 1));
    }

    #[test]
    fn prepare_jobs_orders_by_observed_cost_once_history_is_complete() {
        let (program, spec) = toy();
        // Two copies of the same program: identical VC counts, so the
        // estimate cannot distinguish them — the measured history must.
        let entries = vec![
            ("fast".to_string(), &program, &spec),
            ("slow".to_string(), &program, &spec),
        ];
        let mut slots: Vec<Option<CorpusEntry>> = vec![None, None];
        let mut costs = std::collections::HashMap::new();
        costs.insert("fast".to_string(), 5u64);
        costs.insert("slow".to_string(), 500u64);
        let jobs = prepare_jobs(StageSet::default(), &entries, &mut slots, 1, &costs);
        assert_eq!(jobs[0].name, "slow", "measured longest-first");
        assert_eq!(jobs[1].name, "fast");

        // Incomplete history falls back to the VC-count estimate with
        // id (corpus-order) tie-breaking.
        costs.remove("fast");
        let mut slots: Vec<Option<CorpusEntry>> = vec![None, None];
        let jobs = prepare_jobs(StageSet::default(), &entries, &mut slots, 1, &costs);
        assert_eq!(jobs[0].name, "fast", "estimate ties break by id");
    }

    #[test]
    fn merge_batch_entries_reassembles_partial_reports() {
        let (program, spec) = toy();
        let entries = vec![("toy".to_string(), &program, &spec)];
        let mut slots: Vec<Option<CorpusEntry>> = vec![None];
        let costs = std::collections::HashMap::new();
        let jobs = prepare_jobs(StageSet::default(), &entries, &mut slots, 2, &costs);
        assert_eq!(jobs.len(), 2);
        let session = Verifier::builder().workers(1).build();
        // Simulate each batch worker-side and rebuild the partial
        // entries exactly as the coordinator does, deliberately merging
        // in reverse arrival order.
        let mut parts = Vec::new();
        for job in jobs.iter().rev() {
            let report = run_batch_job(&session, &program, &spec, job.batch, job.batches).unwrap();
            let frame = render_result_frame(job.id, &report, 7, &[], 0);
            let wire = parse_result_frame(&frame).unwrap();
            let rebuilt = rebuild_report(job, wire.stages, wire.engine).unwrap();
            parts.push((
                job.batch,
                CorpusEntry {
                    name: job.name.clone(),
                    elapsed_ms: wire.elapsed_ms,
                    lint: Vec::new(),
                    outcome: Ok(rebuilt),
                },
            ));
        }
        let merged = merge_batch_entries(parts);
        let direct = Verifier::builder()
            .workers(1)
            .build()
            .check(&program, &spec)
            .unwrap();
        let report = merged.outcome.unwrap();
        assert_eq!(merged.elapsed_ms, 7, "elapsed is the max across batches");
        assert_eq!(report.original.results.len(), direct.original.results.len());
        assert_eq!(report.relaxed.results.len(), direct.relaxed.results.len());
        for (got, want) in report
            .original
            .results
            .iter()
            .chain(&report.relaxed.results)
            .zip(
                direct
                    .original
                    .results
                    .iter()
                    .chain(&direct.relaxed.results),
            )
        {
            assert_eq!(got.vc.name, want.vc.name, "generation order survives");
            assert_eq!(got.verdict, want.verdict);
        }
    }

    #[test]
    fn merge_batch_entries_fails_the_program_on_a_failed_batch() {
        let ok = CorpusEntry {
            name: "p".to_string(),
            elapsed_ms: 3,
            lint: Vec::new(),
            outcome: Ok(AcceptabilityReport {
                stages: StageSet::default(),
                original: Report::default(),
                intermediate: None,
                relaxed: Report::default(),
                engine: EngineStats::default(),
            }),
        };
        let failed = CorpusEntry {
            name: "p".to_string(),
            elapsed_ms: 0,
            lint: Vec::new(),
            outcome: Err(CorpusError::Shard("batch 1 died".to_string())),
        };
        let merged = merge_batch_entries(vec![(0, ok), (1, failed)]);
        let err = merged.outcome.unwrap_err();
        assert!(err.to_string().contains("batch 1 died"), "{err}");
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
