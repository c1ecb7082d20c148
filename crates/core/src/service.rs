//! The networked verification service: `relaxed-serviced`.
//!
//! The sharded corpus driver ([`crate::shard`]) spawns a fresh worker
//! fleet per run — every corpus pays process startup and a cold verdict
//! cache, and only one coordinator can use the fleet at a time. This
//! module turns the same transport-agnostic framed-JSON protocol into a
//! **long-running service**:
//!
//! * a **daemon** ([`Service`] / [`service_main`], shipped as the
//!   `relaxed-serviced` binary) that pre-spawns a warm `relaxed-shardd`
//!   worker fleet, keeps the fingerprint-gated persistent verdict cache
//!   resident (refreshed through the existing
//!   [`refresh_from_disk`](crate::engine::DischargeEngine::refresh_from_disk)
//!   machinery), and serves **concurrent** verify requests over TCP —
//!   thread-per-connection, with a bounded admission queue and
//!   backpressure (`busy` reject-with-retry-after frames when saturated)
//!   and a graceful drain on the `shutdown` control frame;
//! * a **client** ([`CorpusPolicy::Service`], selected by
//!   `Verifier::builder().service(addr)` or `RELAXED_SERVICE=<host:port>`)
//!   that submits a corpus over one connection, rides out `busy`
//!   backpressure, and receives a merged [`CorpusReport`]
//!   **verdict-identical** to an in-process `check_corpus` run (the
//!   client regenerates VCs locally and zips them with the wire verdicts,
//!   exactly like the shard coordinator).
//!
//! # Wire protocol
//!
//! The worker protocol of [`crate::shard`] plus four service frames:
//!
//! ```text
//! client → daemon               daemon → client
//! ---------------------------   ---------------------------
//! {"type":"config",...}         {"type":"ready","proto":1,"fleet":N}
//!                               {"type":"error","reason":...}   (refused)
//! {"type":"job","id":7,...}     {"type":"result","id":7,...}
//!                               {"type":"busy","id":7,"retry_after_ms":25}
//! {"type":"status"}             {"type":"status","fleet":N,...}
//! {"type":"metrics"}            {"type":"metrics","text":"…Prometheus…"}
//! {"type":"shutdown"}           {"type":"bye","served":S}
//! ```
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
//! out-of-order. A worker crash mid-job is retried daemon-side on a
//! freshly spawned replacement (bounded by [`MAX_ATTEMPTS`], exactly like
//! the shard coordinator); a client disconnect mid-job merely discards
//! that job's result write — the worker is returned to the fleet and the
//! admission slot is released, so one flaky client can never wedge the
//! fleet.
//!
//! [`CorpusPolicy::Service`]: crate::api::CorpusPolicy::Service
//! [`CorpusReport`]: crate::api::CorpusReport
//! [`MAX_ATTEMPTS`]: crate::shard::MAX_ATTEMPTS

use crate::api::{elapsed_ms_since, Config, CorpusEntry, CorpusError, CorpusReport, Verifier};
use crate::cache::{parse_json, Json};
use crate::shard::{
    field_str, field_u64, merge_batch_entries, parse_config_frame, parse_result_frame,
    prepare_jobs, rebuild_report, render_config_frame, render_error_frame, resolve_worker,
    ShardJob, TcpTransport, Transport, WorkerHandle, MAX_ATTEMPTS, PROTOCOL_VERSION,
    SERVICE_BINARY,
};
use crate::verify::Spec;
use relaxed_lang::Program;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Startup options for a [`Service`] daemon.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Listen address. Port `0` binds an ephemeral port (read it back
    /// from [`Service::local_addr`]; the binary prints it on startup).
    pub addr: String,
    /// Warm worker fleet size; `0` sizes it to the config's effective
    /// parallelism. Settable via `RELAXED_SERVICE_FLEET` for the binary.
    pub fleet: usize,
    /// Admission cap: jobs admitted (running + waiting for a worker)
    /// across all connections before the daemon answers `busy`. `0`
    /// means `4 × fleet`. Settable via `RELAXED_SERVICE_QUEUE` for the
    /// binary.
    pub queue: usize,
    /// The `retry_after_ms` hint sent with `busy` rejections.
    pub retry_after_ms: u64,
    /// The verification session configuration the fleet runs under
    /// (solver budgets, stages, the resident persistent cache path, the
    /// worker-binary override). The binary takes it from the
    /// `DISCHARGE_*` environment.
    pub config: Config,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            addr: "127.0.0.1:0".to_string(),
            fleet: 0,
            queue: 0,
            retry_after_ms: 25,
            config: Config::default(),
        }
    }
}

/// Mutable daemon state behind one lock: the idle fleet, the admission
/// counter, and the live-worker count (all condvar-signalled together).
struct DaemonState {
    idle: Vec<WorkerHandle>,
    /// Workers that exist at all (idle + checked out). Shrinks only when
    /// a replacement spawn fails; `0` fails new checkouts instead of
    /// deadlocking them.
    alive: usize,
    /// Jobs admitted and not yet finished, across all connections.
    active: usize,
    /// High-water mark of `active` — the queue-depth gauge.
    peak_active: usize,
}

struct Daemon {
    config: Config,
    config_frame: String,
    binary: PathBuf,
    fleet_size: usize,
    queue_cap: usize,
    retry_after_ms: u64,
    state: Mutex<DaemonState>,
    signal: Condvar,
    served: AtomicU64,
    rejected: AtomicU64,
    draining: AtomicBool,
    /// Session-resident metrics, served as Prometheus text over the
    /// `metrics` control frame: request counters, queue/fleet gauges
    /// (set at scrape time), and the request-latency histogram.
    metrics: crate::telemetry::MetricsRegistry,
    /// The resident session: holds the persistent verdict cache warm in
    /// daemon memory (loaded at startup, refreshed after every job) so
    /// status introspection and post-drain persistence never wait on a
    /// cold load.
    resident: Verifier,
}

impl Daemon {
    /// Admits one job if below the cap. `true` = admitted (the caller
    /// must later call [`Daemon::release`]).
    fn admit(&self) -> bool {
        let mut state = self.state.lock().expect("service state");
        if state.active >= self.queue_cap {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .counter_add("relaxed_requests_rejected_total", 1);
            return false;
        }
        state.active += 1;
        state.peak_active = state.peak_active.max(state.active);
        true
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("service state");
        state.active -= 1;
        drop(state);
        self.signal.notify_all();
    }

    /// Checks a worker out of the idle fleet, waiting while all workers
    /// are busy elsewhere. Fails only when the whole fleet is dead.
    fn checkout(&self) -> Result<WorkerHandle, String> {
        // The admission-queue wait: how long an admitted job sat between
        // its `admit` and a worker becoming free.
        let mut wait_span = crate::telemetry::span("service", "admit_wait");
        let mut state = self.state.lock().expect("service state");
        loop {
            if let Some(worker) = state.idle.pop() {
                if wait_span.is_active() {
                    wait_span.arg("worker", worker.lane);
                }
                return Ok(worker);
            }
            if state.alive == 0 {
                return Err("no live workers in the fleet".to_string());
            }
            state = self.signal.wait(state).expect("service state");
        }
    }

    fn checkin(&self, worker: WorkerHandle) {
        let mut state = self.state.lock().expect("service state");
        state.idle.push(worker);
        drop(state);
        self.signal.notify_all();
    }

    /// Spawns the replacement for a killed worker, shrinking the fleet
    /// (loudly) when the spawn fails.
    fn respawn(&self) -> Option<WorkerHandle> {
        match WorkerHandle::spawn(&self.binary, &self.config_frame, self.config.ready_timeout) {
            Ok(worker) => Some(worker),
            Err(e) => {
                let mut state = self.state.lock().expect("service state");
                state.alive -= 1;
                let alive = state.alive;
                drop(state);
                self.signal.notify_all();
                crate::diag::warn(format_args!(
                    "{SERVICE_BINARY}: failed to respawn a fleet worker ({alive} left): {e}"
                ));
                None
            }
        }
    }

    /// Runs one raw job line on the fleet with bounded retries, returning
    /// the raw response line to forward (a result frame, or an error
    /// frame when the attempts are exhausted).
    fn run_job_line(&self, id: usize, line: &str) -> String {
        let job_started = Instant::now();
        let mut attempts = 0u32;
        let mut last_error = String::new();
        let mut replacement = None;
        while attempts < MAX_ATTEMPTS {
            let mut worker = match replacement.take() {
                Some(worker) => worker,
                None => match self.checkout() {
                    Ok(worker) => worker,
                    Err(e) => return render_error_frame(id, &e),
                },
            };
            attempts += 1;
            match relay_job(&mut worker, id, line, self.config.job_timeout) {
                Ok(response) => {
                    self.checkin(worker);
                    self.served.fetch_add(1, Ordering::Relaxed);
                    self.metrics.counter_add("relaxed_requests_served_total", 1);
                    self.metrics
                        .observe_ms("relaxed_request_latency_ms", elapsed_ms_since(job_started));
                    // Keep the resident cache warm with whatever verdicts
                    // the worker just appended to the shared store.
                    self.resident.engine().refresh_from_disk();
                    return response;
                }
                Err(e) => {
                    // The channel is desynchronized: kill this worker and
                    // retry on its freshly spawned replacement, exactly
                    // like the shard coordinator. Handing the replacement
                    // back to the idle fleet instead would let another job
                    // take it, and this one retry on a worker that may
                    // carry the same fault.
                    last_error = e;
                    worker.kill();
                    replacement = self.respawn();
                }
            }
        }
        if let Some(worker) = replacement {
            self.checkin(worker);
        }
        render_error_frame(
            id,
            &format!("job failed after {attempts} attempts; last error: {last_error}"),
        )
    }

    fn status_frame(&self) -> String {
        let state = self.state.lock().expect("service state");
        format!(
            "{{\"type\":\"status\",\"proto\":{PROTOCOL_VERSION},\"fleet\":{},\"alive\":{},\
             \"active\":{},\"peak_active\":{},\"served\":{},\"rejected\":{},\
             \"resident_loaded\":{}}}",
            self.fleet_size,
            state.alive,
            state.active,
            state.peak_active,
            self.served.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.resident.stats().loaded,
        )
    }

    /// The `metrics` control frame: queue/fleet gauges stamped at scrape
    /// time, then the registry as Prometheus text inside one JSON frame.
    fn metrics_frame(&self) -> String {
        {
            let state = self.state.lock().expect("service state");
            self.metrics
                .gauge_set("relaxed_queue_depth", state.active as i64);
            self.metrics
                .gauge_set("relaxed_queue_depth_peak", state.peak_active as i64);
            self.metrics.gauge_set(
                "relaxed_fleet_busy",
                state.alive.saturating_sub(state.idle.len()) as i64,
            );
            self.metrics
                .gauge_set("relaxed_fleet_alive", state.alive as i64);
        }
        format!(
            "{{\"type\":\"metrics\",\"proto\":{PROTOCOL_VERSION},\"text\":{}}}",
            crate::cache::json_string(&self.metrics.render_prometheus())
        )
    }

    /// The graceful drain: stop admitting, wait out the in-flight jobs,
    /// shut the fleet down (each worker's EOF triggers its final
    /// persist), and refresh the resident cache one last time.
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut state = self.state.lock().expect("service state");
        while state.active > 0 {
            state = self.signal.wait(state).expect("service state");
        }
        for worker in state.idle.drain(..) {
            worker.shutdown();
        }
        state.alive = 0;
        drop(state);
        self.signal.notify_all();
        self.resident.engine().refresh_from_disk();
    }
}

/// Sends one raw job line to a worker and reads back its (id-validated)
/// response line.
fn relay_job(
    worker: &mut WorkerHandle,
    id: usize,
    line: &str,
    job_timeout: Duration,
) -> Result<String, String> {
    worker.send(line)?;
    let response = worker.recv(job_timeout)?;
    let wire = parse_result_frame(&response).map_err(|e| format!("malformed result frame: {e}"))?;
    if wire.id != id {
        return Err(format!(
            "result frame for job {} while awaiting job {id}",
            wire.id
        ));
    }
    Ok(response)
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
        let per_worker = (config.discharge_config().effective_parallelism() / fleet_size).max(1);
        let config_frame = render_config_frame(&config, per_worker);
        let mut idle = Vec::with_capacity(fleet_size);
        for _ in 0..fleet_size {
            match WorkerHandle::spawn(&binary, &config_frame, config.ready_timeout) {
                Ok(worker) => idle.push(worker),
                Err(e) => {
                    for worker in idle.drain(..) {
                        worker.kill();
                    }
                    return Err(format!("failed to pre-spawn the worker fleet: {e}"));
                }
            }
        }
        let queue_cap = if options.queue == 0 {
            fleet_size * 4
        } else {
            options.queue
        };
        // The resident session loads the persistent store (if configured)
        // into daemon memory up front.
        let resident = Verifier::with_config(config.clone());
        let daemon = Arc::new(Daemon {
            config_frame,
            binary,
            fleet_size,
            queue_cap,
            retry_after_ms: options.retry_after_ms,
            state: Mutex::new(DaemonState {
                alive: idle.len(),
                idle,
                active: 0,
                peak_active: 0,
            }),
            signal: Condvar::new(),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            metrics: crate::telemetry::MetricsRegistry::new(),
            resident,
            config,
        });
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
        self.daemon.fleet_size
    }

    /// Verdicts the resident cache loaded from the persistent store at
    /// startup.
    pub fn resident_loaded(&self) -> u64 {
        self.daemon.resident.stats().loaded
    }

    /// Serves connections until a `shutdown` frame arrives and the drain
    /// completes. Returns the total job count served.
    pub fn run(self) -> u64 {
        let local = self.local_addr();
        for stream in self.listener.incoming() {
            if self.daemon.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let daemon = Arc::clone(&self.daemon);
            let local = local.clone();
            std::thread::spawn(move || handle_connection(&daemon, stream, &local));
        }
        self.daemon.served.load(Ordering::Relaxed)
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
    // The server side has no frame deadline of its own: an idle client
    // costs one parked thread, and EOF/shutdown are the exits.
    const READ_SLICE: Duration = Duration::from_millis(500);
    let mut configured = false;
    loop {
        let line = match reader.recv_opt(READ_SLICE) {
            Ok(Some(line)) => line,
            Ok(None) => {
                if daemon.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return, // client hung up (mid-job is fine — see below)
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = |frame: &str| {
            let mut w = writer.lock().expect("connection writer");
            use std::io::Write;
            let _ = w
                .write_all(frame.as_bytes())
                .and_then(|()| w.write_all(b"\n"));
        };
        let Ok(record) = parse_json(&line) else {
            reply("{\"type\":\"error\",\"reason\":\"malformed frame\"}");
            return;
        };
        let Ok(fields) = record.as_object() else {
            reply("{\"type\":\"error\",\"reason\":\"malformed frame\"}");
            return;
        };
        match field_str(fields, "type") {
            Ok("config") => match validate_session(&daemon.config, fields) {
                Ok(()) => {
                    configured = true;
                    reply(&format!(
                        "{{\"type\":\"ready\",\"proto\":{PROTOCOL_VERSION},\"fleet\":{}}}",
                        daemon.fleet_size
                    ));
                }
                Err(reason) => {
                    reply(&format!(
                        "{{\"type\":\"error\",\"reason\":{}}}",
                        crate::cache::json_string(&reason)
                    ));
                    return;
                }
            },
            Ok("job") => {
                let id = field_u64(fields, "id").unwrap_or(0) as usize;
                if !configured {
                    reply(&render_error_frame(id, "job before config"));
                    continue;
                }
                if daemon.draining.load(Ordering::SeqCst) {
                    reply(&render_error_frame(id, "service is shutting down"));
                    continue;
                }
                if !daemon.admit() {
                    reply(&format!(
                        "{{\"type\":\"busy\",\"id\":{id},\"retry_after_ms\":{}}}",
                        daemon.retry_after_ms
                    ));
                    continue;
                }
                let daemon = Arc::clone(daemon);
                let writer = Arc::clone(&writer);
                std::thread::spawn(move || {
                    let response = daemon.run_job_line(id, &line);
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
                    daemon.release();
                    // Detached job threads may outlive a trace write:
                    // flush this thread's spans while the job is hot.
                    crate::telemetry::drain_thread();
                });
            }
            Ok("status") => reply(&daemon.status_frame()),
            Ok("metrics") => reply(&daemon.metrics_frame()),
            Ok("shutdown") => {
                daemon.drain();
                reply(&format!(
                    "{{\"type\":\"bye\",\"served\":{}}}",
                    daemon.served.load(Ordering::Relaxed)
                ));
                // Wake the accept loop so Service::run observes the drain.
                let _ = TcpStream::connect(local_addr);
                return;
            }
            _ => {
                reply("{\"type\":\"error\",\"reason\":\"unknown frame type\"}");
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

/// Runs a corpus through a `relaxed-serviced` daemon — the implementation
/// behind [`CorpusPolicy::Service`](crate::api::CorpusPolicy::Service).
/// See the [module docs](self) for the architecture.
pub(crate) fn run_corpus_service(
    verifier: &Verifier,
    entries: Vec<(String, &Program, &Spec)>,
    addr: &str,
) -> CorpusReport {
    let started = Instant::now();
    let config = verifier.config();
    let count = entries.len();
    let mut report = CorpusReport {
        stages: config.stages,
        ..CorpusReport::default()
    };
    let mut slots: Vec<Option<CorpusEntry>> = (0..count).map(|_| None).collect();
    let jobs = prepare_jobs(
        config.stages,
        &entries,
        &mut slots,
        config.goal_shards,
        &verifier.cost_snapshot(),
    );
    let fleet = if jobs.is_empty() {
        1
    } else {
        run_jobs_over_service(config, addr, jobs, &mut slots)
    };
    crate::shard::finalize_corpus_report(&mut report, slots, &entries, &|_| {
        CorpusError::Service("job was lost by the client".to_string())
    });
    // Corpus-level parallelism is the daemon's fleet.
    report.engine.workers = fleet;
    report.elapsed_ms = elapsed_ms_since(started);
    // Warm the client's own session cache from the store the fleet
    // populated (a no-op unless both share a persistent path).
    verifier.engine().refresh_from_disk();
    report
}

/// Submits the prepared jobs over one connection and fills `slots`;
/// failures (unreachable daemon, dead connection, saturation past the
/// patience window) become per-program [`CorpusError::Service`] entries.
/// Returns the daemon's advertised fleet size.
fn run_jobs_over_service(
    config: &Config,
    addr: &str,
    jobs: Vec<ShardJob>,
    slots: &mut [Option<CorpusEntry>],
) -> usize {
    // Results (and per-job failures) accumulate as batch partials; the
    // merge resolves each program's batches into one entry — a failed
    // batch fails its program, exactly like the shard coordinator.
    let mut done: Vec<(usize, usize, CorpusEntry)> = Vec::new();
    let fleet = drive_service_jobs(config, addr, jobs, &mut done);
    let mut parts: HashMap<usize, Vec<(usize, CorpusEntry)>> = HashMap::new();
    for (slot, batch, entry) in done {
        parts.entry(slot).or_default().push((batch, entry));
    }
    for (slot, list) in parts {
        slots[slot] = Some(merge_batch_entries(list));
    }
    fleet
}

/// The connection-driving half of [`run_jobs_over_service`]: pipelines
/// the jobs, rides out `busy` backpressure, and pushes one completed (or
/// failed) partial per job into `done`.
fn drive_service_jobs(
    config: &Config,
    addr: &str,
    jobs: Vec<ShardJob>,
    done: &mut Vec<(usize, usize, CorpusEntry)>,
) -> usize {
    let fail_all =
        |done: &mut Vec<(usize, usize, CorpusEntry)>, pending: Vec<ShardJob>, reason: &str| {
            for job in pending {
                done.push((
                    job.slot,
                    job.batch,
                    CorpusEntry {
                        name: job.name,
                        elapsed_ms: 0,
                        lint: Vec::new(),
                        outcome: Err(CorpusError::Service(reason.to_string())),
                    },
                ));
            }
        };
    let config_frame = render_config_frame(config, config.workers);
    let mut handle = match WorkerHandle::connect(addr, &config_frame, config.ready_timeout) {
        Ok(handle) => handle,
        Err(e) => {
            let reason = format!("cannot reach the service at {addr}: {e}");
            fail_all(done, jobs, &reason);
            return 1;
        }
    };
    let fleet = handle.fleet.unwrap_or(1);

    // Pipeline every job up front (the list is already longest-first);
    // the daemon interleaves results and answers `busy` past its
    // admission cap.
    let mut pending: HashMap<usize, ShardJob> = HashMap::with_capacity(jobs.len());
    for job in jobs {
        if let Err(e) = handle.send(&job.frame) {
            let mut lost: Vec<ShardJob> = pending.into_values().collect();
            lost.push(job);
            fail_all(done, lost, &format!("connection to {addr} failed: {e}"));
            return fleet;
        }
        pending.insert(job.id, job);
    }

    // Collect out-of-order results, riding out `busy` backpressure. The
    // patience window is *progress-based*: any frame from the daemon
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
                    if let Err(e) = handle.send(&job.frame) {
                        let lost: Vec<ShardJob> = pending.into_values().collect();
                        fail_all(done, lost, &format!("connection to {addr} failed: {e}"));
                        return fleet;
                    }
                }
            } else {
                i += 1;
            }
        }
        let window = config
            .job_timeout
            .saturating_sub(now.duration_since(last_progress));
        if window.is_zero() {
            let lost: Vec<ShardJob> = pending.into_values().collect();
            fail_all(
                done,
                lost,
                &format!(
                    "service at {addr} made no progress for {}s",
                    config.job_timeout.as_secs()
                ),
            );
            return fleet;
        }
        let mut wait = window;
        if let Some(next) = retries.iter().map(|(due, _)| *due).min() {
            let until = next
                .saturating_duration_since(now)
                .max(Duration::from_millis(1));
            wait = wait.min(until);
        }
        let line = match handle.recv_opt(wait) {
            Ok(Some(line)) => line,
            Ok(None) => continue, // a retry came due or the window shrank
            Err(e) => {
                let lost: Vec<ShardJob> = pending.into_values().collect();
                fail_all(done, lost, &format!("connection to {addr} failed: {e}"));
                return fleet;
            }
        };
        last_progress = Instant::now();
        let kind = parse_json(&line)
            .and_then(|record| {
                record.as_object().and_then(|fields| {
                    Ok((
                        field_str(fields, "type")?.to_string(),
                        field_u64(fields, "id")?,
                    ))
                })
            })
            .map_err(|e| format!("malformed frame from {addr}: {e}"));
        let (kind, id) = match kind {
            Ok(parsed) => parsed,
            Err(reason) => {
                let lost: Vec<ShardJob> = pending.into_values().collect();
                fail_all(done, lost, &reason);
                return fleet;
            }
        };
        let id = id as usize;
        match kind.as_str() {
            "result" => {
                let Some(job) = pending.remove(&id) else {
                    continue; // duplicate/stale result; ignore
                };
                busy_since.remove(&id);
                done.push((job.slot, job.batch, entry_from_result(&job, &line)));
            }
            "busy" => {
                // Saturation backpressure: honor the daemon's
                // retry-after hint, but give up on a job the daemon has
                // refused for a whole patience window.
                let first = *busy_since.entry(id).or_insert_with(Instant::now);
                if first.elapsed() >= config.job_timeout {
                    if let Some(job) = pending.remove(&id) {
                        done.push((
                            job.slot,
                            job.batch,
                            CorpusEntry {
                                name: job.name,
                                elapsed_ms: 0,
                                lint: Vec::new(),
                                outcome: Err(CorpusError::Service(format!(
                                    "service at {addr} stayed saturated for {}s",
                                    config.job_timeout.as_secs()
                                ))),
                            },
                        ));
                    }
                    continue;
                }
                let after = field_u64(
                    parse_json(&line)
                        .expect("frame parsed above")
                        .as_object()
                        .expect("object parsed above"),
                    "retry_after_ms",
                )
                .unwrap_or(25);
                retries.push((Instant::now() + Duration::from_millis(after), id));
            }
            other => {
                let lost: Vec<ShardJob> = pending.into_values().collect();
                fail_all(
                    done,
                    lost,
                    &format!("unexpected frame type {other:?} from {addr}"),
                );
                return fleet;
            }
        }
    }
    handle.shutdown();
    fleet
}

/// Rebuilds one [`CorpusEntry`] from a raw result line, zipping the wire
/// verdicts with the locally generated obligations (identical to the
/// shard coordinator's merge).
fn entry_from_result(job: &ShardJob, line: &str) -> CorpusEntry {
    let fallible = || -> Result<CorpusEntry, String> {
        let wire = parse_result_frame(line)?;
        if let Some(error) = wire.error {
            return Ok(CorpusEntry {
                name: job.name.clone(),
                elapsed_ms: wire.elapsed_ms,
                lint: Vec::new(),
                outcome: Err(CorpusError::Service(format!("service reported: {error}"))),
            });
        }
        let report = rebuild_report(job, wire.stages, wire.engine)?;
        Ok(CorpusEntry {
            name: job.name.clone(),
            elapsed_ms: wire.elapsed_ms,
            lint: Vec::new(),
            outcome: Ok(report),
        })
    };
    fallible().unwrap_or_else(|reason| CorpusEntry {
        name: job.name.clone(),
        elapsed_ms: 0,
        lint: Vec::new(),
        outcome: Err(CorpusError::Service(format!(
            "malformed service result: {reason}"
        ))),
    })
}

// ---------------------------------------------------------------------
// Control-plane helpers (status / shutdown)
// ---------------------------------------------------------------------

/// A `status` frame's counters, for benches, CI gates, and operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Configured warm fleet size.
    pub fleet: u64,
    /// Workers currently alive (shrinks only on respawn failures).
    pub alive: u64,
    /// Jobs admitted and in flight right now.
    pub active: u64,
    /// High-water mark of `active` — the queue-depth gauge.
    pub peak_active: u64,
    /// Jobs served since startup.
    pub served: u64,
    /// Jobs rejected with `busy` since startup.
    pub rejected: u64,
    /// Verdicts the resident cache holds from the persistent store.
    pub resident_loaded: u64,
}

fn control_frame(addr: &str, frame: &str, timeout: Duration) -> Result<String, String> {
    let mut transport = TcpTransport::connect(addr, timeout)?;
    transport.send(frame)?;
    match transport.recv_opt(timeout)? {
        Some(line) => Ok(line),
        None => Err(format!(
            "no reply from {addr} within {}s",
            timeout.as_secs()
        )),
    }
}

/// Queries a running daemon's [`ServiceStatus`].
///
/// # Errors
///
/// Fails when the daemon is unreachable or replies with something other
/// than a status frame.
pub fn service_status(addr: &str, timeout: Duration) -> Result<ServiceStatus, String> {
    let line = control_frame(addr, "{\"type\":\"status\"}", timeout)?;
    let record = parse_json(&line).map_err(|e| format!("bad status frame: {e}"))?;
    let fields = record
        .as_object()
        .map_err(|e| format!("bad status frame: {e}"))?;
    if field_str(fields, "type") != Ok("status") {
        return Err(format!("expected a status frame, got {line:?}"));
    }
    Ok(ServiceStatus {
        fleet: field_u64(fields, "fleet")?,
        alive: field_u64(fields, "alive")?,
        active: field_u64(fields, "active")?,
        peak_active: field_u64(fields, "peak_active")?,
        served: field_u64(fields, "served")?,
        rejected: field_u64(fields, "rejected")?,
        resident_loaded: field_u64(fields, "resident_loaded")?,
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
    let line = control_frame(addr, "{\"type\":\"metrics\"}", timeout)?;
    let record = parse_json(&line).map_err(|e| format!("bad metrics frame: {e}"))?;
    let fields = record
        .as_object()
        .map_err(|e| format!("bad metrics frame: {e}"))?;
    if field_str(fields, "type") != Ok("metrics") {
        return Err(format!("expected a metrics frame, got {line:?}"));
    }
    field_str(fields, "text").map(ToString::to_string)
}

/// Asks a running daemon to drain and exit gracefully (in-flight jobs
/// finish, the fleet persists its verdicts, then the daemon stops
/// accepting). Returns the total jobs served over the daemon's lifetime.
///
/// # Errors
///
/// Fails when the daemon is unreachable or the drain outlasts `timeout`.
pub fn shutdown_service(addr: &str, timeout: Duration) -> Result<u64, String> {
    let line = control_frame(addr, "{\"type\":\"shutdown\"}", timeout)?;
    let record = parse_json(&line).map_err(|e| format!("bad bye frame: {e}"))?;
    let fields = record
        .as_object()
        .map_err(|e| format!("bad bye frame: {e}"))?;
    if field_str(fields, "type") != Ok("bye") {
        return Err(format!("expected a bye frame, got {line:?}"));
    }
    field_u64(fields, "served")
}

// ---------------------------------------------------------------------
// The binary entry point
// ---------------------------------------------------------------------

// Bin-only helper: stderr here is `relaxed-serviced`'s own surface.
#[allow(clippy::print_stderr)]
fn env_usize(var: &str) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    match raw.trim().parse() {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!("{SERVICE_BINARY}: ignoring {var}={raw:?}: expected an unsigned integer");
            None
        }
    }
}

/// The `relaxed-serviced` entry point: options from the command line
/// (`--addr`, `--fleet`, `--queue`) and the environment
/// (`DISCHARGE_*` for the session config, `RELAXED_SERVICE_FLEET` /
/// `RELAXED_SERVICE_QUEUE` as flag fallbacks), then serve until a
/// `shutdown` frame drains the daemon.
// Bin entry point: stdout/stderr are the process's own surface.
#[allow(clippy::print_stderr)]
pub fn service_main() -> std::process::ExitCode {
    let mut options = ServiceOptions::default();
    let (config, warnings) = Config::from_env();
    for warning in &warnings {
        eprintln!("{SERVICE_BINARY}: {warning}");
    }
    options.config = config;
    if let Some(fleet) = env_usize("RELAXED_SERVICE_FLEET") {
        options.fleet = fleet;
    }
    if let Some(queue) = env_usize("RELAXED_SERVICE_QUEUE") {
        options.queue = queue;
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag = |name: &str| -> Option<String> {
            if arg == name {
                let value = args.next();
                if value.is_none() {
                    eprintln!("{SERVICE_BINARY}: {name} needs a value");
                }
                value
            } else {
                None
            }
        };
        if let Some(addr) = flag("--addr") {
            options.addr = addr;
        } else if let Some(fleet) = flag("--fleet") {
            match fleet.parse() {
                Ok(fleet) => options.fleet = fleet,
                Err(_) => eprintln!("{SERVICE_BINARY}: --fleet needs an unsigned integer"),
            }
        } else if let Some(queue) = flag("--queue") {
            match queue.parse() {
                Ok(queue) => options.queue = queue,
                Err(_) => eprintln!("{SERVICE_BINARY}: --queue needs an unsigned integer"),
            }
        } else {
            eprintln!(
                "{SERVICE_BINARY}: unknown argument {arg:?} \
                 (usage: {SERVICE_BINARY} [--addr host:port] [--fleet n] [--queue n])"
            );
            return std::process::ExitCode::FAILURE;
        }
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
        "{SERVICE_BINARY}: listening on {} fleet={} resident_loaded={}",
        service.local_addr(),
        service.fleet(),
        service.resident_loaded()
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

    #[test]
    fn default_options_bind_ephemeral_localhost() {
        let options = ServiceOptions::default();
        assert_eq!(options.addr, "127.0.0.1:0");
        assert_eq!(options.fleet, 0);
        assert_eq!(options.queue, 0);
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
        let verifier = Verifier::builder()
            .service(&refused)
            .ready_timeout(Duration::from_secs(2))
            .workers(1)
            .build();
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
