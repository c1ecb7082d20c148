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
//!   TCP — thread-per-connection, with a bounded admission queue drained
//!   by one relay thread per fleet slot, backpressure (`busy`
//!   reject-with-retry-after frames when saturated) and a graceful drain
//!   on the `shutdown` control frame. Each worker
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
//! control frames and metrics — on top of the shard module's `Fleet`.
//! An admitted job waits in one FIFO queue, under the lock admission
//! takes, until one of the relay threads takes it; there is one relay
//! thread per fleet slot, and it owns the slot's worker for the daemon's
//! lifetime. No thread is spawned per job. A job's served latency counts
//! from its admission to its worker's result line, so it includes the
//! wait in the queue. The relay parses each result frame whole before it
//! forwards it: a worker crash or a malformed frame mid-job is retried on
//! a freshly spawned replacement in the same slot (bounded by
//! [`MAX_ATTEMPTS`]), and worker spans are re-anchored into the daemon's
//! own trace, so a traced daemon (`DISCHARGE_TRACE`) gets one
//! `shard-worker-N` lane per worker, written at the drain, before the
//! `bye` frame. Once the drain has begun every arriving job is refused
//! with an error frame; the drain waits out the jobs admitted before it,
//! then closes the queue, and each relay thread shuts its worker down. A
//! client disconnect mid-job merely discards that job's result write —
//! the job still finishes and releases its admission slot, so one flaky
//! client can never wedge the fleet. A frame that fails to read —
//! over-long or not UTF-8 — is answered with an `error` frame and closes
//! its connection.
//!
//! [`CorpusPolicy::Service`]: crate::api::CorpusPolicy::Service
//! [`CorpusReport`]: crate::api::CorpusReport
//! [`MAX_ATTEMPTS`]: crate::shard::MAX_ATTEMPTS

use crate::api::{Config, CorpusEntry, StageSet, Verifier};
use crate::cache::{field_str, field_u64, parse_json, Json};
use crate::engine::elapsed_us;
use crate::shard::{
    entry_from_result, parse_config_frame, parse_result_frame, prepare_jobs, render_config_frame,
    render_error_frame, resolve_worker, write_frame, Fleet, ShardJob, TcpTransport, Transport,
    WorkerHandle, JOB_TIMEOUT, PROTOCOL_VERSION, SERVICE_BINARY,
};
use crate::verify::Spec;
use relaxed_lang::Program;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
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

/// The daemon's one set of counters and its job queue, behind one lock:
/// the `status`, `metrics` and `bye` frames and [`Service::run`] read
/// it, admission reads the drain flag and queues the job under it, and
/// the relay slots take jobs from it.
#[derive(Debug, Default)]
struct Counters {
    /// Set by the drain: from then on no job is admitted.
    draining: bool,
    /// Admitted jobs no relay slot has taken yet, oldest first.
    queue: VecDeque<QueuedJob>,
    /// Relay slots waiting for a job.
    idle: usize,
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

/// An admitted job, waiting in the queue for a relay slot.
#[derive(Debug)]
struct QueuedJob {
    id: usize,
    name: String,
    /// The job frame as the client sent it, relayed to a worker verbatim.
    line: String,
    /// The connection its response goes back on.
    writer: Arc<Mutex<TcpStream>>,
    /// Its served latency counts from here, so it includes the wait for a
    /// slot.
    admitted: Instant,
    /// The `fleet/checkout` span of that wait.
    wait: crate::telemetry::SpanGuard,
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

impl Refusal {
    /// The frame that answers the refused job `id`.
    fn frame(&self, id: usize) -> String {
        match self {
            Refusal::Draining => render_error_frame(id, "service is shutting down"),
            Refusal::Busy { retry_after_ms } => {
                format!("{{\"type\":\"busy\",\"id\":{id},\"retry_after_ms\":{retry_after_ms}}}")
            }
        }
    }
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
/// the job queue, one relay thread per fleet slot, control frames, and
/// metrics.
struct Daemon {
    config: Config,
    fleet: Fleet,
    counters: Mutex<Counters>,
    /// Wakes the drain when the last admitted job has finished.
    signal: Condvar,
    /// Wakes an idle relay slot when a job is queued, and every slot at
    /// the drain.
    queued: Condvar,
    /// The relay threads, one per fleet slot, joined at the drain.
    relays: Mutex<Vec<JoinHandle<()>>>,
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
    /// A daemon over `fleet` with no relay slot started yet.
    fn new(config: Config, fleet: Fleet) -> Daemon {
        Daemon {
            owns_trace: AtomicBool::new(config.trace.is_some()),
            config,
            fleet,
            counters: Mutex::default(),
            signal: Condvar::new(),
            queued: Condvar::new(),
            relays: Mutex::default(),
        }
    }

    fn counters(&self) -> MutexGuard<'_, Counters> {
        self.counters.lock().expect("service counters")
    }

    fn draining(&self) -> bool {
        self.counters().draining
    }

    /// Admits one job frame and queues it for the next free relay slot,
    /// unless the drain has begun or the admission cap is reached.
    fn submit(
        &self,
        id: usize,
        name: String,
        line: String,
        writer: &Arc<Mutex<TcpStream>>,
    ) -> Result<(), Refusal> {
        let admitted = Instant::now();
        let mut counters = self.counters();
        counters.admit(ADMITTED_PER_WORKER * self.fleet.size())?;
        counters.queue.push_back(QueuedJob {
            id,
            name,
            line,
            writer: Arc::clone(writer),
            admitted,
            wait: crate::telemetry::span("fleet", "checkout"),
        });
        let wake = counters.idle > 0;
        drop(counters);
        if wake {
            self.queued.notify_one();
        }
        Ok(())
    }

    /// One fleet slot's relay thread, the only owner of the slot's
    /// worker: it takes queued jobs in order, runs each on the worker and
    /// writes the response back to the job's connection, until the drain
    /// leaves the queue empty; then it shuts the worker down.
    fn relay(&self, mut worker: Option<WorkerHandle>) {
        let mut counters = self.counters();
        loop {
            let Some(job) = counters.queue.pop_front() else {
                if counters.draining {
                    break;
                }
                counters.idle += 1;
                counters = self.queued.wait(counters).expect("service counters");
                counters.idle -= 1;
                continue;
            };
            drop(counters);
            self.run_job(&mut worker, job);
            // The job is finished only after its response was written (or
            // its client found gone), so the drain never cuts a response.
            counters = self.counters();
            counters.active -= 1;
            if counters.draining && counters.active == 0 {
                self.signal.notify_all();
            }
        }
        drop(counters);
        if let Some(worker) = worker {
            self.fleet.shutdown(worker);
        }
        // The trace is written once every relay thread has ended: flush
        // this one's spans first.
        crate::telemetry::drain_thread();
    }

    /// Runs one queued job on the slot's worker and writes the response
    /// (a result frame, or an error frame when the attempts are
    /// exhausted) back to its connection.
    fn run_job(&self, worker: &mut Option<WorkerHandle>, job: QueuedJob) {
        let QueuedJob {
            id,
            name,
            line,
            writer,
            admitted,
            mut wait,
        } = job;
        if let Some(worker) = worker.as_ref() {
            wait.arg("worker", worker.lane);
        }
        drop(wait);
        let response = match self.fleet.run(worker, id, &name, &line) {
            Ok(response) => {
                self.counters().serve(elapsed_us(admitted));
                response
            }
            Err(e) => render_error_frame(id, &e),
        };
        // A vanished client makes this write fail; the job finishes
        // either way, so the fleet never wedges on a dropped connection.
        let _ = write_frame(&mut *writer.lock().expect("connection writer"), &response);
    }

    fn status_frame(&self) -> String {
        let alive = self.fleet.alive();
        self.counters().status_frame(self.fleet.size(), alive)
    }

    /// The `metrics` control frame: the counters, the fleet's live
    /// workers and its idle slots as Prometheus text inside one JSON
    /// frame.
    fn metrics_frame(&self) -> String {
        let alive = self.fleet.alive();
        let counters = self.counters();
        render_metrics_frame(&counters.prometheus(alive, counters.idle))
    }

    /// The graceful drain: stop admitting, wait out the admitted jobs,
    /// then close the queue: each relay thread shuts its worker down
    /// (the worker's EOF triggers its final persist) and ends. Once all
    /// have ended, a traced daemon writes its trace. A second drain
    /// returns once the first has.
    fn drain(&self) {
        let mut counters = self.counters();
        counters.draining = true;
        while counters.active > 0 {
            counters = self.signal.wait(counters).expect("service counters");
        }
        drop(counters);
        self.queued.notify_all();
        let mut relays = self.relays.lock().expect("relay threads");
        for relay in relays.drain(..) {
            let _ = relay.join();
        }
        drop(relays);
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
    /// Binds the listen socket, pre-spawns the warm worker fleet and
    /// starts one relay thread per fleet slot.
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
        let fleet = Fleet::new(&config, binary, fleet_size);
        let daemon = Arc::new(Daemon::new(config, fleet));
        let workers = daemon
            .fleet
            .spawn_all()
            .map_err(|e| format!("failed to pre-spawn the worker fleet: {e}"))?;
        // One relay thread per slot, the owner of its worker.
        let relays = workers
            .into_iter()
            .map(|worker| {
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || daemon.relay(Some(worker)))
            })
            .collect();
        *daemon.relays.lock().expect("relay threads") = relays;
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

impl Drop for Service {
    /// A service that was never drained stops its relay threads and
    /// shuts its workers down; after a drain this does nothing.
    fn drop(&mut self) {
        self.daemon.drain();
    }
}

/// One client connection: reads frames until EOF (a vanished client) or
/// the daemon-wide shutdown. Each job is admitted into the daemon's
/// queue, so one connection's pipelined corpus keeps every relay slot,
/// and so the whole fleet, busy; its response is written back by the slot
/// that ran it.
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
        let _ = write_frame(&mut *writer.lock().expect("connection writer"), frame);
    };
    let refuse = |reason: &str| reply(&render_refusal(reason));
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
                let name = field_str(fields, "name").unwrap_or_default().to_string();
                if let Err(refusal) = daemon.submit(id, name, line, &writer) {
                    reply(&refusal.frame(id));
                }
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

/// The `error` frame that refuses a session or a frame.
fn render_refusal(reason: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"reason\":{}}}",
        crate::cache::json_string(reason)
    )
}

/// The `metrics` frame: the Prometheus `text` inside one JSON frame.
fn render_metrics_frame(text: &str) -> String {
    format!(
        "{{\"type\":\"metrics\",\"proto\":{PROTOCOL_VERSION},\"text\":{}}}",
        crate::cache::json_string(text)
    )
}

/// The daemon's own `error`, `busy`, `status` and `metrics` frames, from
/// sample counters: inputs of the JSON reader's differential test.
#[cfg(test)]
pub(crate) fn sample_frames() -> Vec<String> {
    let mut counters = Counters::default();
    let _ = counters.admit(1);
    counters.serve(1_234);
    let busy = counters.admit(1).unwrap_err();
    vec![
        render_refusal("solver budget mismatch: client max_conflicts=1/branch_budget=2"),
        render_refusal("frame from 127.0.0.1:5 exceeds 16777216 bytes"),
        Refusal::Draining.frame(3),
        busy.frame(7),
        counters.status_frame(2, 1),
        render_metrics_frame(&counters.prometheus(2, 1)),
    ]
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
    /// Fleet slots with a live worker. A slot is empty between a failed
    /// attempt's kill and its replacement's spawn, after a failed spawn,
    /// and after a job exhausts its attempts, until the slot's next job
    /// spawns a worker. It drops to 0 at the drain.
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
        let fleet = Fleet::new(&config, "/nonexistent/relaxed-shardd".into(), 1);
        let daemon = Arc::new(Daemon::new(config, fleet));
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
