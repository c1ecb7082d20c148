//! The networked verification service: `relaxed-serviced`.
//!
//! The one way to verify a corpus beyond this process. This module puts
//! the transport-agnostic framed-JSON protocol of [`crate::shard`] behind
//! a **long-running service**, so no run pays process startup or a cold
//! verdict cache, and any number of clients share one warm fleet:
//!
//! * a **daemon** ([`Service`] / [`service_main`], shipped as the
//!   `relaxed-serviced` binary) that spawns a warm `relaxed-shardd`
//!   worker fleet up front (concurrently, through the shard module's
//!   `Fleet`) and serves **concurrent** verify requests over
//!   TCP — thread-per-connection, with a bounded admission queue and
//!   backpressure (`busy` reject-with-retry-after frames when saturated)
//!   and a graceful drain on the `shutdown` control frame. Each worker
//!   opens the fingerprint-gated persistent verdict store and its depmap
//!   sidecar itself, and reads both again before every job where they
//!   changed; the daemon holds no verdicts;
//! * a **client** ([`CorpusPolicy::Service`], selected by
//!   `Verifier::builder().service(addr)` or `RELAXED_SERVICE=<host:port>`)
//!   that submits a corpus over one connection, rides out `busy`
//!   backpressure, and hands back its programs' entries — in input
//!   order, without lint, plus the daemon's fleet size as the fan-out —
//!   for `check_corpus` to merge into a [`CorpusReport`]
//!   **verdict-identical** to an in-process run. The client runs no
//!   vcgen: each result frame names every obligation it answers, and the
//!   worker that ran a program live records its depmap revision.
//!
//! # Wire protocol
//!
//! The worker protocol of [`crate::shard`] plus four service frames:
//!
//! ```text
//! client → daemon               daemon → client
//! ---------------------------   ---------------------------
//! {"type":"config",...}         {"type":"ready","proto":3,"fleet":N}
//!                               {"type":"error","reason":...}   (refused)
//! {"type":"job","id":7,...}     {"type":"result","id":7,...}
//!                               {"type":"busy","id":7,"retry_after_ms":1}
//! {"type":"status"}             {"type":"status","fleet":N,...}
//! {"type":"metrics"}            {"type":"metrics","text":"…Prometheus…"}
//! {"type":"shutdown"}           {"type":"bye","served":S}
//! ```
//!
//! The `status`, `metrics` and `bye` frames read one set of counters
//! (active and peak jobs, served, rejected, and the latency histogram,
//! which counts microseconds), and the Prometheus text shows every series
//! from startup, at 0. A `busy` frame's `retry_after_ms` is the mean
//! latency of the jobs served so far, rounded up to whole milliseconds
//! (at least 1; 25 before the first job is served), so a client retries
//! about when a slot frees.
//!
//! The daemon validates each session's `config` frame against its own
//! fleet configuration: the verdict-relevant knobs (solver budgets and
//! stage selection) must match, so a service answer is always the answer
//! the client's own configuration would have produced. Verdict-neutral
//! knobs (worker counts, cache paths) are the daemon's own business and
//! are not compared.
//!
//! Results may interleave across a connection's pipelined jobs and across
//! connections; every frame carries the job id, and the client collects
//! out-of-order. A job frame without a numeric id is refused with an
//! `error` frame and never reaches a worker.
//!
//! The daemon is the TCP-facing half — admission cap, `busy` frames,
//! control frames and metrics — on top of the shard module's `Fleet`,
//! which owns the workers: a worker crash mid-job is retried on a
//! freshly spawned replacement (bounded by [`MAX_ATTEMPTS`]), and worker
//! spans are re-anchored into the daemon's own trace, so a traced daemon
//! (`DISCHARGE_TRACE`) gets one `shard-worker-N` lane per worker,
//! written at the drain, before the `bye` frame. Once the drain has
//! begun every arriving job is refused with an error frame; the drain
//! waits out the jobs admitted before it, then shuts the fleet down. A
//! client disconnect mid-job merely discards that job's result write —
//! the worker is returned to the fleet and the admission slot is
//! released, so one flaky client can never wedge the fleet. A frame that fails to read —
//! over-long or not UTF-8 — is answered with an `error` frame and
//! closes its connection.
//!
//! [`CorpusPolicy::Service`]: crate::api::CorpusPolicy::Service
//! [`CorpusReport`]: crate::api::CorpusReport
//! [`MAX_ATTEMPTS`]: crate::shard::MAX_ATTEMPTS

use crate::api::{Config, CorpusEntry, StageSet, Verifier};
use crate::cache::{field_str, field_u64, parse_json, Json};
use crate::engine::elapsed_us;
use crate::shard::{
    entry_from_result, parse_config_frame, parse_result_frame, prepare_jobs, render_config_frame,
    render_error_frame, resolve_worker, Fleet, ShardJob, TcpTransport, Transport, WorkerHandle,
    JOB_TIMEOUT, PROTOCOL_VERSION, SERVICE_BINARY,
};
use crate::verify::Spec;
use relaxed_lang::Program;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Startup options for a [`Service`] daemon.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Listen address. Port `0` binds an ephemeral port (read it back
    /// from [`Service::local_addr`]; the binary prints it on startup).
    pub addr: String,
    /// Warm worker fleet size; `0` sizes it to the config's effective
    /// parallelism.
    pub fleet: usize,
    /// The verification session configuration the fleet runs under
    /// (solver budgets, stages, the persistent cache path every worker
    /// opens, the worker-binary override, the trace path). The binary
    /// takes it from the `DISCHARGE_*` environment.
    pub config: Config,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            addr: "127.0.0.1:0".to_string(),
            fleet: 0,
            config: Config::default(),
        }
    }
}

/// Jobs admitted per fleet worker (running + waiting for a worker),
/// across all connections, before the daemon answers `busy`.
const ADMITTED_PER_WORKER: usize = 4;

/// The `retry_after_ms` hint of a `busy` frame until the daemon has
/// served a job to measure, and the client's wait when a `busy` frame
/// carries no hint.
const RETRY_AFTER_MS: u64 = 25;

/// Upper bounds of the request-latency histogram's buckets, in
/// milliseconds. Fixed, so scrapes from different daemons line up.
const LATENCY_BUCKETS_MS: [u64; 10] = [1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000];

/// The daemon's one set of counters, condvar-signalled for the drain:
/// the `status`, `metrics` and `bye` frames and [`Service::run`] read it.
/// Admission reads the drain flag under the same lock.
#[derive(Debug, Default)]
struct Counters {
    /// Set by the drain: from then on no job is admitted.
    draining: bool,
    /// Jobs admitted and not yet finished, across all connections.
    active: usize,
    /// High-water mark of `active` — the queue-depth gauge.
    peak_active: usize,
    /// Jobs served since startup: also the latency histogram's count.
    served: u64,
    /// Jobs rejected with `busy` since startup.
    rejected: u64,
    /// Served jobs at or under each [`LATENCY_BUCKETS_MS`] bound.
    latency_buckets: [u64; LATENCY_BUCKETS_MS.len()],
    /// Summed latency of the served jobs, in microseconds: a warm job
    /// takes well under a millisecond.
    latency_sum_us: u64,
}

/// Why [`Counters::admit`] turned a job away.
#[derive(Debug, PartialEq, Eq)]
enum Refusal {
    /// The drain has begun.
    Draining,
    /// The admission cap is reached: the client may retry after the hint.
    Busy {
        /// [`Counters::retry_after_ms`] at the refusal.
        retry_after_ms: u64,
    },
}

impl Counters {
    /// Admits one job unless the drain has begun or `cap` jobs are active
    /// (counted as a rejection). The drain sets its flag under this lock
    /// and waits under it for `active == 0`, so every job is either
    /// refused or waited for.
    fn admit(&mut self, cap: usize) -> Result<(), Refusal> {
        if self.draining {
            return Err(Refusal::Draining);
        }
        if self.active >= cap {
            self.rejected += 1;
            return Err(Refusal::Busy {
                retry_after_ms: self.retry_after_ms(),
            });
        }
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        Ok(())
    }

    /// The `busy` hint: the mean latency of the jobs served so far,
    /// rounded up to whole milliseconds and at least 1, or
    /// [`RETRY_AFTER_MS`] before the first.
    fn retry_after_ms(&self) -> u64 {
        if self.served == 0 {
            return RETRY_AFTER_MS;
        }
        let served_ms = self.served.saturating_mul(1000);
        self.latency_sum_us.div_ceil(served_ms).max(1)
    }

    /// Counts one served job that took `latency_us`.
    fn serve(&mut self, latency_us: u64) {
        self.served += 1;
        self.latency_sum_us = self.latency_sum_us.saturating_add(latency_us);
        for (bound, count) in LATENCY_BUCKETS_MS.iter().zip(&mut self.latency_buckets) {
            *count += u64::from(latency_us <= bound * 1000);
        }
    }

    fn status_frame(&self, fleet: usize, alive: usize) -> String {
        format!(
            "{{\"type\":\"status\",\"proto\":{PROTOCOL_VERSION},\"fleet\":{fleet},\"alive\":{alive},\
             \"active\":{},\"peak_active\":{},\"served\":{},\"rejected\":{}}}",
            self.active, self.peak_active, self.served, self.rejected,
        )
    }

    /// The Prometheus text of the counters and of the fleet's `alive`
    /// and `idle` worker counts: counters, gauges, then the latency
    /// histogram with cumulative buckets, every series from startup.
    fn prometheus(&self, alive: usize, idle: usize) -> String {
        let mut out = String::new();
        let busy = alive.saturating_sub(idle);
        for (name, kind, value) in [
            ("relaxed_requests_rejected_total", "counter", self.rejected),
            ("relaxed_requests_served_total", "counter", self.served),
            ("relaxed_fleet_alive", "gauge", alive as u64),
            ("relaxed_fleet_busy", "gauge", busy as u64),
            ("relaxed_queue_depth", "gauge", self.active as u64),
            ("relaxed_queue_depth_peak", "gauge", self.peak_active as u64),
        ] {
            let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
        }
        let name = "relaxed_request_latency_ms";
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (bound, count) in LATENCY_BUCKETS_MS.iter().zip(&self.latency_buckets) {
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {count}");
        }
        let (sum_us, count) = (self.latency_sum_us, self.served);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let (ms, frac) = (sum_us / 1000, sum_us % 1000);
        let _ = writeln!(out, "{name}_sum {ms}.{frac:03}\n{name}_count {count}");
        out
    }
}

/// The TCP-facing half of the daemon on top of its [`Fleet`]: admission,
/// control frames, and metrics.
struct Daemon {
    config: Config,
    fleet: Fleet,
    counters: Mutex<Counters>,
    signal: Condvar,
    /// Whether this daemon still holds its trace-file ownership: taken
    /// in [`Service::bind`], released once, at the drain or on drop.
    owns_trace: AtomicBool,
}

impl Drop for Daemon {
    /// A daemon that was never drained still writes its trace.
    fn drop(&mut self) {
        self.release_trace();
    }
}

impl Daemon {
    fn release(&self) {
        self.counters().active -= 1;
        self.signal.notify_all();
    }

    fn counters(&self) -> std::sync::MutexGuard<'_, Counters> {
        self.counters.lock().expect("service counters")
    }

    fn draining(&self) -> bool {
        self.counters().draining
    }

    /// Runs one raw job line on the fleet, returning the raw response
    /// line to forward (a result frame, or an error frame when the
    /// attempts are exhausted).
    fn run_job_line(&self, id: usize, name: &str, line: &str) -> String {
        let job_started = Instant::now();
        match self.fleet.run(id, name, line) {
            Ok(response) => {
                self.counters().serve(elapsed_us(job_started));
                response
            }
            Err(e) => render_error_frame(id, &e),
        }
    }

    fn status_frame(&self) -> String {
        let (alive, _) = self.fleet.counts();
        self.counters().status_frame(self.fleet.size(), alive)
    }

    /// The `metrics` control frame: the counters and the fleet's worker
    /// counts as Prometheus text inside one JSON frame.
    fn metrics_frame(&self) -> String {
        let (alive, idle) = self.fleet.counts();
        format!(
            "{{\"type\":\"metrics\",\"proto\":{PROTOCOL_VERSION},\"text\":{}}}",
            crate::cache::json_string(&self.counters().prometheus(alive, idle))
        )
    }

    /// The graceful drain: stop admitting, wait out the in-flight jobs,
    /// shut the fleet down (each worker's EOF triggers its final
    /// persist), and write a traced daemon's trace.
    fn drain(&self) {
        let mut counters = self.counters();
        counters.draining = true;
        while counters.active > 0 {
            counters = self.signal.wait(counters).expect("service counters");
        }
        drop(counters);
        self.fleet.drain();
        self.release_trace();
    }

    /// Releases the trace-file ownership if this daemon still holds it;
    /// the last release writes the trace.
    fn release_trace(&self) {
        if self.owns_trace.swap(false, Ordering::SeqCst) {
            crate::telemetry::release();
        }
    }
}

/// A bound-but-not-yet-running service daemon: the listener exists (so
/// [`Service::local_addr`] is real even for port `0`) and the fleet is
/// warm; [`Service::run`] serves until a `shutdown` frame drains it.
pub struct Service {
    daemon: Arc<Daemon>,
    listener: TcpListener,
}

impl Service {
    /// Binds the listen socket and pre-spawns the warm worker fleet.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the worker binary cannot
    /// be resolved (the error lists the searched paths), or not a single
    /// fleet worker could be spawned.
    pub fn bind(options: ServiceOptions) -> Result<Service, String> {
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
        let config = options.config;
        let binary = resolve_worker(&config)?;
        let fleet_size = if options.fleet == 0 {
            config.discharge_config().effective_parallelism()
        } else {
            options.fleet
        };
        // A traced daemon takes its trace before the fleet renders its
        // config frame: the frame's trace flag is what makes workers ship
        // spans. A failed spawn below drops the daemon, which releases it.
        if let Some(path) = &config.trace {
            crate::telemetry::acquire_file(path);
        }
        let daemon = Arc::new(Daemon {
            fleet: Fleet::new(&config, binary, fleet_size),
            counters: Mutex::default(),
            signal: Condvar::new(),
            owns_trace: AtomicBool::new(config.trace.is_some()),
            config,
        });
        daemon
            .fleet
            .spawn_all()
            .map_err(|e| format!("failed to pre-spawn the worker fleet: {e}"))?;
        Ok(Service { daemon, listener })
    }

    /// The actually bound listen address (resolves port `0`).
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string())
    }

    /// The warm fleet size.
    pub fn fleet(&self) -> usize {
        self.daemon.fleet.size()
    }

    /// Serves connections until a `shutdown` frame arrives and the drain
    /// completes. Returns the total job count served.
    pub fn run(self) -> u64 {
        let local = self.local_addr();
        for stream in self.listener.incoming() {
            if self.daemon.draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let daemon = Arc::clone(&self.daemon);
            let local = local.clone();
            std::thread::spawn(move || handle_connection(&daemon, stream, &local));
        }
        self.daemon.counters().served
    }
}

/// One client connection: reads frames until EOF (a vanished client) or
/// the daemon-wide shutdown. Jobs fan out onto detached threads so one
/// connection's pipelined corpus saturates the whole fleet.
fn handle_connection(daemon: &Arc<Daemon>, stream: TcpStream, local_addr: &str) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<client>".to_string());
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = TcpTransport::from_stream(stream, peer);
    let reply = |frame: &str| {
        let mut w = writer.lock().expect("connection writer");
        use std::io::Write;
        let _ = w
            .write_all(frame.as_bytes())
            .and_then(|()| w.write_all(b"\n"));
    };
    let refuse = |reason: &str| {
        reply(&format!(
            "{{\"type\":\"error\",\"reason\":{}}}",
            crate::cache::json_string(reason)
        ));
    };
    // The server side has no frame deadline of its own: an idle client
    // costs one parked thread, and EOF/shutdown are the exits.
    const READ_SLICE: Duration = Duration::from_millis(500);
    let mut configured = false;
    loop {
        let line = match reader.recv_opt(READ_SLICE) {
            Ok(Some(line)) => line,
            Ok(None) => {
                if daemon.draining() {
                    return;
                }
                continue;
            }
            // A client that hung up (mid-job is fine — see below) never
            // reads this; an over-long or non-UTF-8 frame is refused.
            Err(e) => {
                refuse(&e);
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(record) = parse_json(&line) else {
            refuse("malformed frame");
            return;
        };
        let Ok(fields) = record.as_object() else {
            refuse("malformed frame");
            return;
        };
        match field_str(fields, "type") {
            Ok("config") => match validate_session(&daemon.config, fields) {
                Ok(()) => {
                    configured = true;
                    reply(&format!(
                        "{{\"type\":\"ready\",\"proto\":{PROTOCOL_VERSION},\"fleet\":{}}}",
                        daemon.fleet.size()
                    ));
                }
                Err(reason) => {
                    refuse(&reason);
                    return;
                }
            },
            Ok("job") => {
                // A job the client could never match a result to: refuse
                // it before it reaches a worker, which would die on it.
                let id = match field_u64(fields, "id") {
                    Ok(id) => id as usize,
                    Err(e) => {
                        refuse(&format!("bad job frame: {e}"));
                        continue;
                    }
                };
                if !configured {
                    reply(&render_error_frame(id, "job before config"));
                    continue;
                }
                // An admitted job must later `release` its slot.
                let admission = daemon
                    .counters()
                    .admit(ADMITTED_PER_WORKER * daemon.fleet.size());
                if let Err(refusal) = admission {
                    reply(&match refusal {
                        Refusal::Draining => render_error_frame(id, "service is shutting down"),
                        Refusal::Busy { retry_after_ms } => format!(
                            "{{\"type\":\"busy\",\"id\":{id},\"retry_after_ms\":{retry_after_ms}}}"
                        ),
                    });
                    continue;
                }
                let name = field_str(fields, "name").unwrap_or_default().to_string();
                let daemon = Arc::clone(daemon);
                let writer = Arc::clone(&writer);
                std::thread::spawn(move || {
                    let response = daemon.run_job_line(id, &name, &line);
                    // A vanished client makes this write fail; the job
                    // slot and the worker are released either way, so the
                    // fleet never wedges on a dropped connection.
                    {
                        let mut w = writer.lock().expect("connection writer");
                        use std::io::Write;
                        let _ = w
                            .write_all(response.as_bytes())
                            .and_then(|()| w.write_all(b"\n"));
                    }
                    // Detached job threads may outlive a trace write: flush
                    // this thread's spans before the drain can see the job
                    // finished.
                    crate::telemetry::drain_thread();
                    daemon.release();
                });
            }
            Ok("status") => reply(&daemon.status_frame()),
            Ok("metrics") => reply(&daemon.metrics_frame()),
            Ok("shutdown") => {
                daemon.drain();
                let served = daemon.counters().served;
                reply(&format!("{{\"type\":\"bye\",\"served\":{served}}}"));
                // Wake the accept loop so Service::run observes the drain.
                let _ = TcpStream::connect(local_addr);
                return;
            }
            _ => {
                refuse("unknown frame type");
                return;
            }
        }
    }
}

/// Validates a client session's `config` frame against the fleet's
/// configuration: the verdict-relevant knobs (solver budgets, stage
/// selection) must match exactly; verdict-neutral knobs (workers, cache
/// scoping) are the daemon's own business.
fn validate_session(fleet: &Config, fields: &[(String, Json)]) -> Result<(), String> {
    let client = parse_config_frame(fields)?;
    if client.max_conflicts != fleet.max_conflicts || client.branch_budget != fleet.branch_budget {
        return Err(format!(
            "solver budget mismatch: client max_conflicts={}/branch_budget={}, \
             fleet max_conflicts={}/branch_budget={}",
            client.max_conflicts, client.branch_budget, fleet.max_conflicts, fleet.branch_budget
        ));
    }
    if client.stages != fleet.stages {
        return Err("stage selection mismatch between client and fleet".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------

/// The driver behind
/// [`CorpusPolicy::Service`](crate::api::CorpusPolicy::Service): submits
/// the programs (at least one) to a `relaxed-serviced` daemon over one
/// connection and returns their entries, without lint, in input order,
/// plus the daemon's fleet size as the fan-out. Failures (unreachable
/// daemon, dead connection, saturation past the patience window) become
/// per-program [`CorpusError::Service`](crate::api::CorpusError::Service)
/// entries. See the [module docs](self) for the architecture.
pub(crate) fn run_corpus_service(
    verifier: &Verifier,
    programs: &[(String, &Program, &Spec)],
    addr: &str,
) -> (Vec<CorpusEntry>, usize) {
    let config = verifier.config();
    let jobs = prepare_jobs(programs);
    let order: Vec<usize> = jobs.iter().map(|job| job.id).collect();
    let mut pending: HashMap<usize, ShardJob> = jobs.into_iter().map(|job| (job.id, job)).collect();
    let mut slots: Vec<Option<CorpusEntry>> = (0..programs.len()).map(|_| None).collect();
    let config_frame = render_config_frame(config, config.workers);
    let stages = config.stages;
    let (fleet, outcome) = match WorkerHandle::connect(addr, &config_frame) {
        Ok(mut handle) => {
            let fleet = handle.fleet.unwrap_or(1);
            let outcome =
                collect_results(addr, stages, &mut handle, &order, &mut pending, &mut slots);
            if outcome.is_ok() {
                handle.shutdown();
            }
            (fleet, outcome)
        }
        Err(e) => (1, Err(format!("cannot reach the service at {addr}: {e}"))),
    };
    if let Err(reason) = outcome {
        for job in pending.into_values() {
            slots[job.id] = Some(entry_from_result(job.name, stages, Err(reason.clone())));
        }
    }
    // Warm the client's own session from the files the fleet populated
    // (a no-op unless both share a persistent path).
    verifier.refresh();
    let entries = slots
        .into_iter()
        .map(|slot| slot.expect("every program fills its slot"))
        .collect();
    (entries, fleet)
}

/// Pipelines the jobs (in `order`, already largest first) and collects
/// their out-of-order results into `slots`, each checked against the
/// session's `stages`, riding out `busy` backpressure with the daemon's
/// retry-after hint. A job the daemon refuses for a whole patience window
/// fails alone; `Err` (a dead connection, a stalled daemon, an unexpected
/// frame) leaves every job still in `pending` to fail.
fn collect_results(
    addr: &str,
    stages: StageSet,
    handle: &mut WorkerHandle,
    order: &[usize],
    pending: &mut HashMap<usize, ShardJob>,
    slots: &mut [Option<CorpusEntry>],
) -> Result<(), String> {
    let lost = |e: String| format!("connection to {addr} failed: {e}");
    for id in order {
        handle.send(&pending[id].frame).map_err(lost)?;
    }
    // The patience window is *progress-based*: any frame from the daemon
    // (result or busy) resets it, so a large pipelined corpus is never
    // timed out merely for being longer than one job's budget.
    let mut retries: Vec<(Instant, usize)> = Vec::new();
    let mut busy_since: HashMap<usize, Instant> = HashMap::new();
    let mut last_progress = Instant::now();
    while !pending.is_empty() {
        let now = Instant::now();
        let mut i = 0;
        while i < retries.len() {
            if retries[i].0 <= now {
                let (_, id) = retries.swap_remove(i);
                if let Some(job) = pending.get(&id) {
                    handle.send(&job.frame).map_err(lost)?;
                }
            } else {
                i += 1;
            }
        }
        let window = JOB_TIMEOUT.saturating_sub(now.duration_since(last_progress));
        if window.is_zero() {
            return Err(format!(
                "service at {addr} made no progress for {}s",
                JOB_TIMEOUT.as_secs()
            ));
        }
        let mut wait = window;
        if let Some(next) = retries.iter().map(|(due, _)| *due).min() {
            let until = next
                .saturating_duration_since(now)
                .max(Duration::from_millis(1));
            wait = wait.min(until);
        }
        let Some(line) = handle.recv_opt(wait).map_err(lost)? else {
            continue; // a retry came due or the window shrank
        };
        last_progress = Instant::now();
        let (kind, id, retry_after_ms) = parse_json(&line)
            .and_then(|record| {
                let fields = record.as_object()?;
                Ok((
                    field_str(fields, "type")?.to_string(),
                    field_u64(fields, "id")? as usize,
                    field_u64(fields, "retry_after_ms").unwrap_or(RETRY_AFTER_MS),
                ))
            })
            .map_err(|e| format!("malformed frame from {addr}: {e}"))?;
        match kind.as_str() {
            "result" => {
                let Some(job) = pending.remove(&id) else {
                    continue; // duplicate/stale result; ignore
                };
                busy_since.remove(&id);
                let wire =
                    parse_result_frame(&line).map_err(|e| format!("malformed result frame: {e}"));
                slots[id] = Some(entry_from_result(job.name, stages, wire));
            }
            "busy" => {
                // Give up on a job the daemon has refused for a whole
                // patience window.
                let first = *busy_since.entry(id).or_insert_with(Instant::now);
                if first.elapsed() < JOB_TIMEOUT {
                    retries.push((Instant::now() + Duration::from_millis(retry_after_ms), id));
                } else if let Some(job) = pending.remove(&id) {
                    let reason = format!(
                        "service at {addr} stayed saturated for {}s",
                        JOB_TIMEOUT.as_secs()
                    );
                    slots[id] = Some(entry_from_result(job.name, stages, Err(reason)));
                }
            }
            other => return Err(format!("unexpected frame type {other:?} from {addr}")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Control-plane helpers (status / shutdown)
// ---------------------------------------------------------------------

/// A `status` frame's counters, for benches, CI gates, and operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Configured warm fleet size.
    pub fleet: u64,
    /// Workers currently alive. It shrinks when a replacement spawn
    /// fails, and when a job exhausts its attempts: the last failed
    /// worker's slot is freed without a respawn. A later job spawns on
    /// demand again. It drops to 0 at the drain.
    pub alive: u64,
    /// Jobs admitted and in flight right now.
    pub active: u64,
    /// High-water mark of `active` — the queue-depth gauge.
    pub peak_active: u64,
    /// Jobs served since startup.
    pub served: u64,
    /// Jobs rejected with `busy` since startup.
    pub rejected: u64,
}

/// Sends the control frame of type `request` to the daemon at `addr` and
/// reads its reply's fields with `read`, once the reply parses as an
/// object of type `reply`.
fn control_request<T>(
    addr: &str,
    request: &str,
    reply: &str,
    timeout: Duration,
    read: impl FnOnce(&[(String, Json)]) -> Result<T, String>,
) -> Result<T, String> {
    let mut transport = TcpTransport::connect(addr, timeout)?;
    transport.send(&format!("{{\"type\":\"{request}\"}}"))?;
    let Some(line) = transport.recv_opt(timeout)? else {
        return Err(format!(
            "no reply from {addr} within {}s",
            timeout.as_secs()
        ));
    };
    let bad = |e: String| format!("bad {reply} frame: {e}");
    let record = parse_json(&line).map_err(bad)?;
    let fields = record.as_object().map_err(bad)?;
    if field_str(fields, "type") != Ok(reply) {
        return Err(format!("expected a {reply} frame, got {line:?}"));
    }
    read(fields)
}

/// Queries a running daemon's [`ServiceStatus`].
///
/// # Errors
///
/// Fails when the daemon is unreachable or replies with something other
/// than a status frame.
pub fn service_status(addr: &str, timeout: Duration) -> Result<ServiceStatus, String> {
    control_request(addr, "status", "status", timeout, |fields| {
        Ok(ServiceStatus {
            fleet: field_u64(fields, "fleet")?,
            alive: field_u64(fields, "alive")?,
            active: field_u64(fields, "active")?,
            peak_active: field_u64(fields, "peak_active")?,
            served: field_u64(fields, "served")?,
            rejected: field_u64(fields, "rejected")?,
        })
    })
}

/// Fetches a running daemon's metrics as Prometheus text exposition
/// (the payload of its `metrics` control frame): request counters,
/// queue-depth / fleet-busy gauges, and the fixed-bucket request-latency
/// histogram.
///
/// # Errors
///
/// Fails when the daemon is unreachable or replies with something other
/// than a metrics frame.
pub fn service_metrics(addr: &str, timeout: Duration) -> Result<String, String> {
    control_request(addr, "metrics", "metrics", timeout, |fields| {
        field_str(fields, "text").map(ToString::to_string)
    })
}

/// Asks a running daemon to drain and exit gracefully (in-flight jobs
/// finish, the fleet persists its verdicts, then the daemon stops
/// accepting). Returns the total jobs served over the daemon's lifetime.
///
/// # Errors
///
/// Fails when the daemon is unreachable or the drain outlasts `timeout`.
pub fn shutdown_service(addr: &str, timeout: Duration) -> Result<u64, String> {
    control_request(addr, "shutdown", "bye", timeout, |fields| {
        field_u64(fields, "served")
    })
}

// ---------------------------------------------------------------------
// The binary entry point
// ---------------------------------------------------------------------

/// The `relaxed-serviced` entry point: options from the command line
/// (`--addr`, `--fleet`) and the session config from the `DISCHARGE_*`
/// environment, then serve until a `shutdown` frame drains the daemon.
// Bin entry point: stdout/stderr are the process's own surface.
#[allow(clippy::print_stderr)]
pub fn service_main() -> std::process::ExitCode {
    let mut options = ServiceOptions::default();
    let (config, warnings) = Config::from_env();
    for warning in &warnings {
        eprintln!("{SERVICE_BINARY}: {warning}");
    }
    options.config = config;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next();
        let problem = match (arg.as_str(), value) {
            ("--addr", Some(addr)) => {
                options.addr = addr;
                continue;
            }
            ("--fleet", Some(fleet)) => match fleet.parse() {
                Ok(fleet) => {
                    options.fleet = fleet;
                    continue;
                }
                Err(_) => format!("--fleet needs an unsigned integer, not {fleet:?}"),
            },
            ("--addr" | "--fleet", None) => format!("{arg} needs a value"),
            _ => format!("unknown argument {arg:?}"),
        };
        eprintln!(
            "{SERVICE_BINARY}: {problem} (usage: {SERVICE_BINARY} [--addr host:port] [--fleet n])"
        );
        return std::process::ExitCode::FAILURE;
    }
    let service = match Service::bind(options) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("{SERVICE_BINARY}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    // The machine-readable startup line: tests, CI, and xtask parse the
    // bound address (and fleet size) out of it. Writes after this point
    // must tolerate a closed pipe — a supervisor may read the startup
    // line and then drop our stdout without that being our problem.
    use std::io::Write;
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "{SERVICE_BINARY}: listening on {} fleet={}",
        service.local_addr(),
        service.fleet()
    );
    let _ = stdout.flush();
    let served = service.run();
    let _ = writeln!(
        stdout,
        "{SERVICE_BINARY}: drained after serving {served} jobs"
    );
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CorpusError;

    #[test]
    fn default_options_bind_ephemeral_localhost() {
        let options = ServiceOptions::default();
        assert_eq!(options.addr, "127.0.0.1:0");
        assert_eq!(options.fleet, 0);
    }

    /// The value of the Prometheus series `name` in `text`.
    fn sample(text: &str, name: &str) -> f64 {
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")));
        line.and_then(|value| value.parse().ok()).expect(name)
    }

    #[test]
    fn daemon_metrics_come_from_one_counter_set() {
        let mut counters = Counters::default();
        // A fresh daemon shows all seven families, in their fixed order, at 0.
        let fresh = counters.prometheus(2, 2);
        let families: Vec<&str> = fresh
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        let expected = "relaxed_requests_rejected_total counter,relaxed_requests_served_total counter,\
                        relaxed_fleet_alive gauge,relaxed_fleet_busy gauge,relaxed_queue_depth gauge,\
                        relaxed_queue_depth_peak gauge,relaxed_request_latency_ms histogram";
        assert_eq!(families.join(","), expected);
        assert_eq!(sample(&fresh, "relaxed_requests_rejected_total"), 0.0);
        assert_eq!(sample(&fresh, "relaxed_request_latency_ms_count"), 0.0);

        let admitted = [counters.admit(2), counters.admit(2), counters.admit(2)];
        let busy = Refusal::Busy {
            retry_after_ms: RETRY_AFTER_MS,
        };
        assert_eq!(admitted, [Ok(()), Ok(()), Err(busy)]);
        counters.serve(3_000);
        counters.serve(7_000_000);
        counters.active -= 1;
        let text = counters.prometheus(2, 1);
        // 3 ms lands in every bucket from le="5" up; 7000 ms only in +Inf.
        for (le, count) in [("2", 0.0), ("5", 1.0), ("5000", 1.0), ("+Inf", 2.0)] {
            let bucket = format!("relaxed_request_latency_ms_bucket{{le=\"{le}\"}}");
            assert_eq!(sample(&text, &bucket), count, "{bucket}");
        }
        assert_eq!(sample(&text, "relaxed_request_latency_ms_sum"), 7003.0);
        assert_eq!(sample(&text, "relaxed_request_latency_ms_count"), 2.0);
        // `status` reads the same counters.
        let status = parse_json(&counters.status_frame(2, 2)).unwrap();
        for (field, metric, value) in [
            ("served", "relaxed_requests_served_total", 2),
            ("rejected", "relaxed_requests_rejected_total", 1),
            ("active", "relaxed_queue_depth", 1),
            ("peak_active", "relaxed_queue_depth_peak", 2),
        ] {
            assert_eq!(field_u64(status.as_object().unwrap(), field), Ok(value));
            assert_eq!(sample(&text, metric), value as f64, "{metric}");
        }
    }

    /// Sub-millisecond jobs add what they took: two 500 µs jobs sum to
    /// one millisecond, and both land in the first bucket.
    #[test]
    fn latency_histogram_counts_microseconds() {
        let mut counters = Counters::default();
        counters.serve(500);
        counters.serve(500);
        let text = counters.prometheus(1, 1);
        assert!(
            text.contains("\nrelaxed_request_latency_ms_sum 1.000\n"),
            "{text}"
        );
        assert_eq!(
            sample(&text, "relaxed_request_latency_ms_bucket{le=\"1\"}"),
            2.0
        );
    }

    /// The `busy` hint is the mean latency served so far, rounded up to
    /// whole milliseconds and at least 1; before any job it is the fixed
    /// default.
    #[test]
    fn busy_hint_is_the_mean_served_latency() {
        let mut counters = Counters::default();
        assert_eq!(counters.retry_after_ms(), RETRY_AFTER_MS);
        counters.serve(300);
        counters.serve(500);
        assert_eq!(
            counters.retry_after_ms(),
            1,
            "a 400 µs mean rounds up to 1 ms"
        );
        counters.serve(2_300);
        assert_eq!(
            counters.retry_after_ms(),
            2,
            "a 1,033 µs mean rounds up to 2 ms"
        );
        counters.serve(7_000_000);
        assert_eq!(counters.retry_after_ms(), 1_751);
        // The hint rides the refusal that `admit` returns.
        assert_eq!(counters.admit(1), Ok(()));
        assert_eq!(
            counters.admit(1),
            Err(Refusal::Busy {
                retry_after_ms: 1_751
            })
        );
        assert_eq!(counters.rejected, 1);
    }

    /// A job that arrives once the drain has begun is refused with an
    /// error frame and never admitted.
    #[test]
    fn a_job_arriving_after_the_drain_began_is_refused_and_never_admitted() {
        let config = Config::default();
        let daemon = Arc::new(Daemon {
            fleet: Fleet::new(&config, "/nonexistent/relaxed-shardd".into(), 1),
            counters: Mutex::default(),
            signal: Condvar::new(),
            owns_trace: AtomicBool::new(false),
            config,
        });
        daemon.drain();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let server = {
            let daemon = Arc::clone(&daemon);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept the client");
                handle_connection(&daemon, stream, &addr);
            })
        };
        let patience = Duration::from_secs(10);
        let mut client = TcpTransport::connect(&addr, patience).expect("connect");
        client
            .send(&render_config_frame(&Config::default(), 1))
            .expect("send config");
        let ready = client.recv_opt(patience).expect("read").expect("ready");
        assert!(ready.contains("\"type\":\"ready\""), "{ready}");
        client
            .send("{\"type\":\"job\",\"id\":5,\"name\":\"late\"}")
            .expect("send job");
        let reply = client.recv_opt(patience).expect("read").expect("reply");
        assert_eq!(reply, render_error_frame(5, "service is shutting down"));
        client.finish();
        server.join().expect("connection thread");
        let counters = daemon.counters();
        assert_eq!(
            (counters.active, counters.peak_active, counters.served),
            (0, 0, 0),
            "{counters:?}"
        );
    }

    #[test]
    fn session_validation_accepts_matching_and_refuses_mismatched_budgets() {
        let fleet = Config::default();
        let frame = render_config_frame(&fleet, 1);
        let record = parse_json(&frame).unwrap();
        assert!(validate_session(&fleet, record.as_object().unwrap()).is_ok());

        let mismatched = Config {
            max_conflicts: fleet.max_conflicts + 1,
            ..Config::default()
        };
        let frame = render_config_frame(&mismatched, 1);
        let record = parse_json(&frame).unwrap();
        let err = validate_session(&fleet, record.as_object().unwrap()).unwrap_err();
        assert!(err.contains("budget mismatch"), "{err}");

        let restaged = Config {
            stages: crate::api::StageSet::only(crate::api::Stage::Original),
            ..Config::default()
        };
        let frame = render_config_frame(&restaged, 1);
        let record = parse_json(&frame).unwrap();
        let err = validate_session(&fleet, record.as_object().unwrap()).unwrap_err();
        assert!(err.contains("stage selection"), "{err}");
    }

    #[test]
    fn session_validation_ignores_verdict_neutral_knobs() {
        let fleet = Config::default();
        let client = Config {
            workers: 7,
            cache: crate::api::CachePolicy::Persistent {
                path: std::path::PathBuf::from("/elsewhere/verdicts.jsonl"),
            },
            ..Config::default()
        };
        let frame = render_config_frame(&client, 3);
        let record = parse_json(&frame).unwrap();
        assert!(validate_session(&fleet, record.as_object().unwrap()).is_ok());
    }

    #[test]
    fn unreachable_service_yields_per_program_errors_not_hangs() {
        use relaxed_lang::parse_program;
        let program = parse_program(
            "x0 = x;
             relax (x) st (x0 <= x && x <= x0 + 2);
             relate l1 : x<o> <= x<r> && x<r> - x<o> <= 2;",
        )
        .unwrap();
        let mut spec = Spec::synced(&program);
        spec.rel_pre = relaxed_lang::parse_rel_formula("x<o> == x<r>").unwrap();
        // A bound-then-dropped listener guarantees a refused port.
        let refused = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let verifier = Verifier::builder().service(&refused).workers(1).build();
        let report = verifier.check_corpus(&[(program, spec)]);
        assert_eq!(report.len(), 1);
        let err = report.entries[0].outcome.as_ref().unwrap_err();
        assert!(matches!(err, CorpusError::Service(_)), "{err}");
        assert!(err.to_string().contains("cannot reach"), "{err}");
    }

    #[test]
    fn empty_service_corpus_never_touches_the_network() {
        let verifier = Verifier::builder().service("127.0.0.1:1").build();
        let report = verifier.check_corpus(&[]);
        assert!(report.is_empty());
        assert!(report.verified());
    }
}
