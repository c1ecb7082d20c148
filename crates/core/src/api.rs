//! The unified [`Verifier`] session API.
//!
//! The paper's workflow is one coherent pipeline — relate the original
//! and relaxed programs, generate the `⊢o`/`⊢i`/`⊢r` obligations,
//! discharge them — and this module is its one public entry point. A
//! `Verifier` is a builder-configured session that owns a
//! [`DischargeEngine`] (and with it a structural-hash verdict cache) and
//! exposes three granularities of work:
//!
//! * [`Verifier::check`] — the full staged acceptability pipeline for one
//!   program, yielding an [`AcceptabilityReport`];
//! * [`Verifier::stage`] — one judgment at a time
//!   (`verifier.stage(Stage::Original).vcs(..)/check(..)`);
//! * [`Verifier::check_corpus`] — many programs at once, fanned across
//!   the worker pool with the verdict cache shared *across programs*,
//!   yielding a [`CorpusReport`] with per-program verdicts, aggregate
//!   statistics, and an offline JSON rendering for service/CI consumers.
//!
//! Configuration is typed ([`Config`]) and layered with builder >
//! environment > default precedence; the environment is an explicit
//! opt-in ([`VerifierBuilder::env`] / [`Config::from_env`]) that reports
//! malformed variables as [`EnvWarning`]s instead of silently dropping
//! them. No knob selects how a goal is discharged: the engine always
//! runs the static prefilter, then one fresh solver per remaining goal
//! (see [`crate::engine`]).
//!
//! The session's verdict cache can outlive the process: a
//! [`CachePolicy::Persistent`] session ([`VerifierBuilder::cache_file`]
//! or `DISCHARGE_CACHE=<path>`) owns two files, the verdict store
//! ([`crate::cache`]) and its depmap sidecar ([`crate::depmap`]). It
//! loads both at build time, and writes what is new in each on
//! [`Verifier::persist`] or drop, making re-verification across runs
//! incremental. The session is their only owner: the engine it wraps
//! never touches a file. Fleet workers before every job, and service
//! clients after their jobs, read both files again where they changed,
//! so verdicts and program records other processes persisted reach the
//! session.
//!
//! ```
//! use relaxed_core::{Stage, Verifier};
//! use relaxed_core::verify::Spec;
//! use relaxed_lang::parse_program;
//!
//! let program = parse_program(
//!     "x0 = x;
//!      relax (x) st (x0 <= x && x <= x0 + 2);
//!      relate l1 : x<o> <= x<r> && x<r> - x<o> <= 2;",
//! )?;
//! let mut spec = Spec::synced(&program);
//! spec.rel_pre = relaxed_lang::parse_rel_formula("x<o> == x<r>")?;
//!
//! let verifier = Verifier::builder().workers(2).build();
//! let report = verifier.check(&program, &spec)?;
//! assert!(report.relaxed_progress());
//!
//! // Per-stage access to the same session (and its verdict cache):
//! let original = verifier.stage(Stage::Original).check(&program, &spec)?;
//! assert!(original.verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{json_string, CacheWarning, FileStamp};
use crate::depmap::{DepMap, ProgramDeps};
use crate::engine::{elapsed_us, DischargeConfig, DischargeEngine, DischargeOptions, EngineStats};
use crate::vcgen::{Vc, VcgenError};
use crate::verify::{stage_vcs, staged_check, AcceptabilityReport, Report, Spec, VcResult};
use relaxed_lang::Program;
use relaxed_smt::SolverStats;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One judgment of the paper's staged methodology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// `⊢o` — the axiomatic original semantics (Fig. 7; Lemma 2).
    Original,
    /// `⊢i` — the axiomatic intermediate semantics (Fig. 9; Lemma 4).
    Intermediate,
    /// `⊢r` — the axiomatic relaxed (relational) semantics (Fig. 8;
    /// Theorems 6 and 7).
    Relaxed,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Original, Stage::Intermediate, Stage::Relaxed];

    /// The turnstile notation of the stage's judgment.
    pub fn judgment(self) -> &'static str {
        match self {
            Stage::Original => "⊢o",
            Stage::Intermediate => "⊢i",
            Stage::Relaxed => "⊢r",
        }
    }

    /// The stage's name in wire frames, depmap sidecar lines and the
    /// corpus JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Original => "original",
            Stage::Intermediate => "intermediate",
            Stage::Relaxed => "relaxed",
        }
    }

    /// The stage called `name` (the inverse of [`Stage::name`]).
    ///
    /// # Errors
    ///
    /// Returns a description when no stage has that name.
    pub fn from_name(name: &str) -> Result<Stage, String> {
        Stage::ALL
            .into_iter()
            .find(|stage| stage.name() == name)
            .ok_or_else(|| format!("unknown stage {name:?}"))
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.judgment())
    }
}

/// The stages [`Verifier::check`] runs, in pipeline order.
///
/// The default is the paper's acceptability pipeline — `⊢o` then `⊢r` —
/// with no standalone `⊢i` pass (the `⊢r` diverge rule invokes `⊢i`
/// internally where control flow desynchronizes). Note that a standalone
/// `⊢i` pass rejects programs containing `relate` statements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSet {
    /// Run the `⊢o` stage.
    pub original: bool,
    /// Run a standalone `⊢i` stage.
    pub intermediate: bool,
    /// Run the `⊢r` stage.
    pub relaxed: bool,
}

impl Default for StageSet {
    fn default() -> Self {
        StageSet {
            original: true,
            intermediate: false,
            relaxed: true,
        }
    }
}

impl StageSet {
    /// No stages selected.
    pub fn none() -> Self {
        StageSet {
            original: false,
            intermediate: false,
            relaxed: false,
        }
    }

    /// Exactly one stage selected.
    pub fn only(stage: Stage) -> Self {
        StageSet::none().with(stage)
    }

    /// All three stages.
    pub fn all() -> Self {
        StageSet {
            original: true,
            intermediate: true,
            relaxed: true,
        }
    }

    /// This selection plus `stage`.
    pub fn with(mut self, stage: Stage) -> Self {
        match stage {
            Stage::Original => self.original = true,
            Stage::Intermediate => self.intermediate = true,
            Stage::Relaxed => self.relaxed = true,
        }
        self
    }

    /// Whether `stage` is selected.
    pub fn contains(&self, stage: Stage) -> bool {
        match stage {
            Stage::Original => self.original,
            Stage::Intermediate => self.intermediate,
            Stage::Relaxed => self.relaxed,
        }
    }

    /// The selected stages, in pipeline order.
    pub fn iter(self) -> impl Iterator<Item = Stage> {
        Stage::ALL
            .into_iter()
            .filter(move |stage| self.contains(*stage))
    }
}

/// How a session's verdict cache is scoped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// One cache for the whole session, shared across stages, repeated
    /// [`Verifier::check`] calls, and every program of a corpus — the
    /// default, and the source of cross-stage and cross-program hits.
    #[default]
    Shared,
    /// [`Shared`](CachePolicy::Shared) scoping backed by the on-disk
    /// verdict store at `path` (see [`crate::cache`]): verdicts recorded
    /// under the session's configuration fingerprint are loaded at build
    /// time and written back on [`Verifier::persist`] / session drop, so
    /// the cache survives *across processes*. The session also records
    /// the goal→fragment dependency map in a sidecar beside the store
    /// and replays unchanged programs from it (see [`crate::depmap`]).
    /// Selected by [`VerifierBuilder::cache_file`] or the
    /// `DISCHARGE_CACHE` environment knob.
    Persistent {
        /// The cache file (created on first persist; parent directories
        /// are created as needed).
        path: PathBuf,
    },
}

/// How [`Verifier::check_corpus`] executes a corpus.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CorpusPolicy {
    /// Fan programs across scoped threads of this process — the default.
    #[default]
    InProcess,
    /// Submit the corpus to a running `relaxed-serviced` daemon over TCP
    /// (see [`crate::service`]): the daemon's warm worker fleet verifies
    /// the programs and the client receives a merged [`CorpusReport`]
    /// verdict-identical to an in-process run. Selected by
    /// [`VerifierBuilder::service`] or `RELAXED_SERVICE=<host:port>`.
    Service {
        /// The daemon's listen address (`host:port`).
        addr: String,
    },
}

/// Why a [`CorpusEntry`] carries no [`AcceptabilityReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// VC generation failed (missing annotations, standalone-`⊢i`
    /// restrictions, …).
    Vcgen(VcgenError),
    /// The networked service layer gave up on the program: the daemon
    /// could not be reached, the connection died mid-corpus, or the
    /// daemon reported a per-job failure (among them a job that exhausted
    /// its bounded retries across worker crashes and malformed response
    /// frames). Only produced under [`CorpusPolicy::Service`].
    Service(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Vcgen(e) => e.fmt(f),
            CorpusError::Service(reason) => write!(f, "service verification failed: {reason}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Vcgen(e) => Some(e),
            CorpusError::Service(_) => None,
        }
    }
}

impl From<VcgenError> for CorpusError {
    fn from(e: VcgenError) -> Self {
        CorpusError::Vcgen(e)
    }
}

/// Typed session configuration, layered with **builder > environment >
/// default** precedence by [`VerifierBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Worker threads (`0` = one per available core). The corpus driver
    /// fans *programs* across this budget; single-program checks fan
    /// *goals* across it.
    pub workers: usize,
    /// CDCL conflict budget per goal (see
    /// [`Solver::max_conflicts`](relaxed_smt::Solver::max_conflicts)).
    pub max_conflicts: u64,
    /// Branch-and-bound node budget per theory check (see
    /// [`Solver::branch_budget`](relaxed_smt::Solver::branch_budget)).
    pub branch_budget: u64,
    /// Verdict-cache scoping.
    pub cache: CachePolicy,
    /// Stage selection for [`Verifier::check`].
    pub stages: StageSet,
    /// Corpus execution policy for [`Verifier::check_corpus`].
    pub corpus: CorpusPolicy,
    /// Explicit path to the `relaxed-shardd` worker binary a service
    /// daemon's fleet runs (see [`crate::service`]); `None` resolves it
    /// next to the current executable (see
    /// [`crate::shard::locate_worker`]). A deployment setting: sessions
    /// that are not a daemon's never read it.
    pub shard_worker: Option<PathBuf>,
    /// Chrome trace-event output path (see [`crate::telemetry`]):
    /// `Some(path)` enables span collection for the session's lifetime
    /// and writes the trace when the last tracing session drops. `None`
    /// (the default) keeps telemetry off — the instrumented hot paths
    /// cost one atomic load. Settable via `DISCHARGE_TRACE=<path>`.
    pub trace: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        let discharge = DischargeConfig::default();
        Config {
            workers: discharge.workers,
            max_conflicts: discharge.max_conflicts,
            branch_budget: discharge.branch_budget,
            cache: CachePolicy::default(),
            stages: StageSet::default(),
            corpus: CorpusPolicy::default(),
            shard_worker: None,
            trace: None,
        }
    }
}

/// A malformed environment override reported by [`Config::from_env`]:
/// the variable kept its default instead of silently swallowing the bad
/// value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvWarning {
    /// The environment variable.
    pub var: &'static str,
    /// Its (unparsable) value.
    pub value: String,
    /// What a well-formed value would have looked like.
    pub expected: &'static str,
}

impl fmt::Display for EnvWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ignoring {}={:?}: expected {}, keeping the default",
            self.var, self.value, self.expected
        )
    }
}

impl Config {
    /// The default configuration with the environment opt-in layer
    /// applied: `DISCHARGE_WORKERS` (`0` = auto), `DISCHARGE_CONFLICTS`,
    /// `DISCHARGE_BRANCH_BUDGET`, `DISCHARGE_CACHE` (a file path
    /// selecting [`CachePolicy::Persistent`]), `DISCHARGE_TRACE` (a file
    /// path enabling telemetry and selecting the Chrome trace-event
    /// output, see [`crate::telemetry`]), `RELAXED_SHARDD` (the path of
    /// the worker binary a service daemon's fleet runs), and
    /// `RELAXED_SERVICE` (a `host:port` address selecting
    /// [`CorpusPolicy::Service`]).
    ///
    /// This is the **only** place the verifier reads `DISCHARGE_*`
    /// configuration variables (the orthogonal `DISCHARGE_QUIET=1`
    /// stderr silencer is read at warning-emission time). Unset variables
    /// keep their defaults; set-but-malformed variables keep their
    /// defaults *and* are reported in the returned warning list, one per
    /// bad variable.
    pub fn from_env() -> (Config, Vec<EnvWarning>) {
        Config::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`Config::from_env`] against an arbitrary variable source, for
    /// deterministic tests and embedders with their own configuration
    /// plumbing. Returning `None` means "unset" (non-unicode process
    /// values are treated as unset).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> (Config, Vec<EnvWarning>) {
        let mut config = Config::default();
        let mut warnings = Vec::new();
        let mut parse = |var: &'static str| -> Option<u64> {
            let raw = lookup(var)?;
            match raw.trim().parse() {
                Ok(value) => Some(value),
                Err(_) => {
                    warnings.push(EnvWarning {
                        var,
                        value: raw,
                        expected: "an unsigned integer",
                    });
                    None
                }
            }
        };
        if let Some(workers) = parse("DISCHARGE_WORKERS") {
            config.workers = workers as usize;
        }
        if let Some(conflicts) = parse("DISCHARGE_CONFLICTS") {
            config.max_conflicts = conflicts;
        }
        if let Some(budget) = parse("DISCHARGE_BRANCH_BUDGET") {
            config.branch_budget = budget;
        }
        // A path or address: trimmed, and reported when nothing is left.
        let mut non_empty = |var: &'static str, expected: &'static str| -> Option<String> {
            let raw = lookup(var)?;
            let value = raw.trim();
            if value.is_empty() {
                warnings.push(EnvWarning {
                    var,
                    value: raw,
                    expected,
                });
                return None;
            }
            Some(value.to_string())
        };
        if let Some(path) = non_empty("DISCHARGE_CACHE", "a non-empty file path") {
            config.cache = CachePolicy::Persistent { path: path.into() };
        }
        if let Some(path) = non_empty("DISCHARGE_TRACE", "a non-empty trace-output file path") {
            config.trace = Some(path.into());
        }
        if let Some(path) = non_empty(
            "RELAXED_SHARDD",
            "a non-empty path to the relaxed-shardd binary",
        ) {
            config.shard_worker = Some(path.into());
        }
        if let Some(addr) = non_empty(
            "RELAXED_SERVICE",
            "a non-empty host:port address of a relaxed-serviced daemon",
        ) {
            config.corpus = CorpusPolicy::Service { addr };
        }
        (config, warnings)
    }

    /// The engine-level slice of this configuration.
    pub fn discharge_config(&self) -> DischargeConfig {
        DischargeConfig {
            workers: self.workers,
            max_conflicts: self.max_conflicts,
            branch_budget: self.branch_budget,
        }
    }
}

/// Builds a [`Verifier`] with **builder > environment > default**
/// precedence: fields set on the builder always win; fields left unset
/// fall back to the environment layer when [`env`](VerifierBuilder::env)
/// was called, and to [`Config::default`] otherwise.
#[derive(Clone, Debug, Default)]
pub struct VerifierBuilder {
    use_env: bool,
    workers: Option<usize>,
    max_conflicts: Option<u64>,
    branch_budget: Option<u64>,
    cache: Option<CachePolicy>,
    stages: Option<StageSet>,
    corpus: Option<CorpusPolicy>,
    shard_worker: Option<PathBuf>,
    trace: Option<PathBuf>,
}

impl VerifierBuilder {
    /// Opts in to the environment layer (`DISCHARGE_*`); parse warnings
    /// are retained on the built session (see
    /// [`Verifier::env_warnings`]).
    pub fn env(mut self) -> Self {
        self.use_env = true;
        self
    }

    /// Worker threads (`0` = one per available core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// CDCL conflict budget per goal.
    pub fn max_conflicts(mut self, max_conflicts: u64) -> Self {
        self.max_conflicts = Some(max_conflicts);
        self
    }

    /// Branch-and-bound node budget per theory check.
    pub fn branch_budget(mut self, branch_budget: u64) -> Self {
        self.branch_budget = Some(branch_budget);
        self
    }

    /// Verdict-cache scoping.
    pub fn cache(mut self, cache: CachePolicy) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Backs the session's verdict cache with the on-disk store at
    /// `path` — shorthand for
    /// `.cache(CachePolicy::Persistent { path })`. Verdicts persisted by
    /// earlier sessions under the same configuration fingerprint are
    /// loaded at build time; see [`crate::cache`].
    pub fn cache_file(self, path: impl Into<PathBuf>) -> Self {
        self.cache(CachePolicy::Persistent { path: path.into() })
    }

    /// Stage selection for [`Verifier::check`].
    pub fn stages(mut self, stages: StageSet) -> Self {
        self.stages = Some(stages);
        self
    }

    /// Corpus execution policy for [`Verifier::check_corpus`].
    pub fn corpus(mut self, corpus: CorpusPolicy) -> Self {
        self.corpus = Some(corpus);
        self
    }

    /// Submits corpora to the `relaxed-serviced` daemon at `addr` —
    /// shorthand for `.corpus(CorpusPolicy::Service { addr })`. See
    /// [`crate::service`] for the daemon architecture.
    pub fn service(self, addr: impl Into<String>) -> Self {
        self.corpus(CorpusPolicy::Service { addr: addr.into() })
    }

    /// Explicit path to the `relaxed-shardd` worker binary a service
    /// daemon's fleet runs (otherwise resolved from `RELAXED_SHARDD`
    /// under the env layer, or located next to the current executable).
    pub fn shard_worker(mut self, path: impl Into<PathBuf>) -> Self {
        self.shard_worker = Some(path.into());
        self
    }

    /// Enables telemetry for the built session and writes the Chrome
    /// trace-event JSON to `path` when the last tracing session drops
    /// (see [`crate::telemetry`]; `DISCHARGE_TRACE=<path>` under the env
    /// layer). Spans cover vcgen, encoding, cache traffic, per-goal
    /// solves (with solver-stats deltas), shard jobs, and the wait for a
    /// fleet worker — load the file in `about://tracing` or Perfetto.
    pub fn trace_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Sets every field at once from a [`Config`] (each counts as
    /// builder-set for precedence; later per-field calls still override).
    pub fn config(mut self, config: Config) -> Self {
        self.workers = Some(config.workers);
        self.max_conflicts = Some(config.max_conflicts);
        self.branch_budget = Some(config.branch_budget);
        self.cache = Some(config.cache);
        self.stages = Some(config.stages);
        self.corpus = Some(config.corpus);
        self.shard_worker = config.shard_worker;
        self.trace = config.trace;
        self
    }

    /// Resolves the layers and builds the session.
    pub fn build(self) -> Verifier {
        let (base, env_warnings) = if self.use_env {
            Config::from_env()
        } else {
            (Config::default(), Vec::new())
        };
        let config = Config {
            workers: self.workers.unwrap_or(base.workers),
            max_conflicts: self.max_conflicts.unwrap_or(base.max_conflicts),
            branch_budget: self.branch_budget.unwrap_or(base.branch_budget),
            cache: self.cache.unwrap_or(base.cache),
            stages: self.stages.unwrap_or(base.stages),
            corpus: self.corpus.unwrap_or(base.corpus),
            shard_worker: self.shard_worker.or(base.shard_worker),
            trace: self.trace.or(base.trace),
        };
        // Acquire the trace before the store is opened so the cache-load
        // span of a persistent session lands in the timeline.
        let owns_trace = config.trace.is_some();
        if let Some(path) = &config.trace {
            crate::telemetry::acquire_file(path);
        }
        // A persistent session reads both of its files at build: that is
        // where it pays its disk reads, keeping the first corpus check as
        // fast as later ones.
        let discharge = config.discharge_config();
        let (engine, store) = match &config.cache {
            CachePolicy::Persistent { path } => {
                let engine = DischargeEngine::keeping_batch(discharge);
                let store = Store::open(path, &engine);
                (engine, Some(store))
            }
            CachePolicy::Shared => (DischargeEngine::with_config(discharge), None),
        };
        Verifier {
            engine,
            config,
            env_warnings,
            next_owner: AtomicU64::new(1),
            store,
            owns_trace,
        }
    }
}

/// The two files a persistent session keeps, the verdict store and its
/// depmap sidecar, with the sidecar's resident map: the session's only
/// link to the disk. It is opened at build, read again by
/// [`Verifier::refresh`], and flushed by [`Verifier::persist`] and drop.
#[derive(Debug)]
struct Store {
    /// The verdict store.
    path: PathBuf,
    /// Its depmap sidecar (`<path>.depmap`).
    sidecar: PathBuf,
    /// The engine-configuration fingerprint that gates both files' loads
    /// and heads their flushes (see [`crate::cache::fingerprint`]).
    fingerprint: String,
    /// What the store's load at build skipped.
    warnings: Vec<CacheWarning>,
    /// The stamps of the store and of the sidecar as last read, each
    /// taken **before** its read, so a flush that lands during a read
    /// changes the stamp and is read next time.
    seen: Mutex<[Option<FileStamp>; 2]>,
    depmap: Mutex<ResidentDepmap>,
}

impl Store {
    /// Opens the files of the store at `path` under the fingerprint of
    /// `engine`'s configuration, reading both into the session, and
    /// warns about whatever the sidecar's load skipped.
    fn open(path: &Path, engine: &DischargeEngine) -> Store {
        let mut store = Store {
            path: path.to_path_buf(),
            sidecar: crate::depmap::depmap_path(path),
            fingerprint: crate::cache::fingerprint(engine.config()),
            warnings: Vec::new(),
            seen: Mutex::default(),
            depmap: Mutex::default(),
        };
        let (warnings, sidecar_warnings) = store.read(engine, "cache_load");
        for warning in &sidecar_warnings {
            crate::diag::warn(format_args!("{warning}"));
        }
        store.warnings = warnings;
        store
    }

    /// Reads each file whose stamp changed since its last read (a missing
    /// file is never read), under the span `name`. Verdicts the
    /// engine's cache lacks merge in as disk-backed, tallied as
    /// [`EngineStats::loaded`] with the store's I/O time; sidecar records
    /// replace resident ones, except those of programs recorded since the
    /// last flush. Returns what the store's and the sidecar's loads
    /// skipped.
    fn read(
        &self,
        engine: &DischargeEngine,
        name: &'static str,
    ) -> (Vec<CacheWarning>, Vec<String>) {
        let started = std::time::Instant::now();
        let mut span = crate::telemetry::span("cache", name);
        let mut seen = self.seen.lock().expect("store stamps lock");
        let mut skipped = (Vec::new(), Vec::new());
        let mut merged = 0;
        let stamp = FileStamp::of(&self.path);
        if seen[0] != stamp {
            seen[0] = stamp;
            let loaded = crate::cache::load(&self.path, &self.fingerprint);
            merged = engine.merge_from_disk(loaded.entries);
            skipped.0 = loaded.warnings;
        }
        span.arg("loaded", merged);
        engine.tally(&EngineStats {
            loaded: merged,
            elapsed_cache_us: elapsed_us(started),
            ..EngineStats::default()
        });
        let stamp = FileStamp::of(&self.sidecar);
        if seen[1] != stamp {
            seen[1] = stamp;
            let (map, warnings) = crate::depmap::load(&self.sidecar, &self.fingerprint);
            let mut resident = self.depmap.lock().expect("depmap lock");
            for (name, deps) in map.programs {
                if !resident.unflushed.contains(&name) {
                    resident.map.record(&name, deps);
                }
            }
            skipped.1 = warnings;
        }
        skipped
    }

    /// Writes the verdicts `engine` solved since the last flush, then the
    /// sidecar records of the programs recorded since then, each through
    /// its file's writer ([`crate::cache::flush`],
    /// [`crate::depmap::persist`]): appended under the file's own header,
    /// or written whole over a file headed by anything else. Returns the
    /// number of verdict records written: `Ok(0)`, with no I/O at all,
    /// when nothing is new.
    ///
    /// # Errors
    ///
    /// Propagates the first filesystem error. A failed verdict batch goes
    /// back to the engine, and unwritten records stay unflushed, for the
    /// next flush.
    fn flush(&self, engine: &DischargeEngine) -> std::io::Result<u64> {
        let batch = engine.take_batch();
        let mut resident = self.depmap.lock().expect("depmap lock");
        if batch.is_empty() && resident.unflushed.is_empty() {
            return Ok(0);
        }
        let _span = crate::telemetry::span("cache", "cache_persist");
        let mut written = 0;
        if !batch.is_empty() {
            let started = std::time::Instant::now();
            let all = || engine.snapshot();
            let flushed = crate::cache::flush(&self.path, &self.fingerprint, &batch, all);
            engine.tally(&EngineStats {
                elapsed_cache_us: elapsed_us(started),
                ..EngineStats::default()
            });
            written = flushed.inspect_err(|_| engine.restore_batch(batch))?;
        }
        if !resident.unflushed.is_empty() {
            crate::depmap::persist(
                &self.sidecar,
                &self.fingerprint,
                &resident.map,
                resident.unflushed.iter().map(String::as_str),
            )?;
            resident.unflushed.clear();
        }
        Ok(written)
    }
}

/// The resident goal→fragment dependency map of a persistent session:
/// read from the sidecar at build and wherever it changed since, mutated
/// in memory after every live run, and flushed with the verdict store, so
/// an incremental re-verification pays no sidecar I/O per call.
#[derive(Debug, Default)]
struct ResidentDepmap {
    map: DepMap,
    /// The programs recorded since the last flush: the records the next
    /// flush appends, and the ones a read of the sidecar leaves alone.
    unflushed: BTreeSet<String>,
    /// Per program, the revision hash of its last replay and that
    /// revision's rendered lint (see [`ResidentDepmap::lint`]).
    lints: HashMap<String, (String, Vec<String>)>,
}

impl ResidentDepmap {
    /// The rendered lint of program `name` at revision `hash`, memoized
    /// per program: replay is only reached when the revision is
    /// unchanged, so its lint — a whole-program static analysis — is
    /// too. A new revision replaces its program's entry.
    fn lint(&mut self, name: &str, hash: &str, program: &Program, spec: &Spec) -> Vec<String> {
        match self.lints.get(name) {
            Some((memo_hash, lint)) if memo_hash == hash => lint.clone(),
            _ => {
                let lint = rendered_lint(program, spec);
                let memo = (hash.to_string(), lint.clone());
                self.lints.insert(name.to_string(), memo);
                lint
            }
        }
    }
}

/// A verification session: typed configuration plus an owned
/// [`DischargeEngine`] whose verdict cache persists across everything
/// the session checks.
///
/// The session is [`Sync`]; `&Verifier` can be shared across threads
/// (that is how [`check_corpus`](Verifier::check_corpus) fans out).
#[derive(Debug)]
pub struct Verifier {
    config: Config,
    engine: DischargeEngine,
    env_warnings: Vec<EnvWarning>,
    /// The next [`DischargeOptions::owner`] tag for corpus entries;
    /// session-unique so cross-program accounting survives repeated
    /// `check_corpus` calls.
    next_owner: AtomicU64,
    /// The files of a persistent session (`None` otherwise).
    store: Option<Store>,
    /// Whether this session holds a telemetry trace-file ownership
    /// (released on drop; the last release writes the trace).
    owns_trace: bool,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::builder().build()
    }
}

impl Drop for Verifier {
    /// The session's one drop-time flush: what is new in a persistent
    /// session's files is written best-effort, warning on failure
    /// (nothing is new after [`Verifier::persist`], so that costs no
    /// I/O). Then the session's telemetry trace ownership is released
    /// (the last tracing session's release writes the trace file), so the
    /// flush lands in the trace.
    fn drop(&mut self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.flush(&self.engine) {
                crate::diag::warn(format_args!(
                    "failed to persist verdict cache {}: {e}",
                    store.path.display()
                ));
            }
        }
        if self.owns_trace {
            crate::telemetry::release();
        }
    }
}

impl Verifier {
    /// A session with default configuration (no environment layer).
    pub fn new() -> Self {
        Verifier::default()
    }

    /// A session with defaults plus the environment opt-in layer —
    /// shorthand for `Verifier::builder().env().build()`.
    pub fn from_env() -> Self {
        Verifier::builder().env().build()
    }

    /// Starts a [`VerifierBuilder`].
    pub fn builder() -> VerifierBuilder {
        VerifierBuilder::default()
    }

    /// A session with every field taken from `config`.
    pub fn with_config(config: Config) -> Self {
        Verifier::builder().config(config).build()
    }

    /// The session's resolved configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The session's discharge engine, for direct VC-list discharge or
    /// cache-level introspection.
    pub fn engine(&self) -> &DischargeEngine {
        &self.engine
    }

    /// Environment-layer parse warnings collected at build time (empty
    /// unless [`VerifierBuilder::env`] was used and a `DISCHARGE_*`
    /// variable was malformed).
    pub fn env_warnings(&self) -> &[EnvWarning] {
        &self.env_warnings
    }

    /// Non-fatal problems encountered while loading the session's
    /// on-disk verdict cache (empty for in-memory sessions and clean
    /// loads).
    pub fn cache_warnings(&self) -> &[CacheWarning] {
        self.store.as_ref().map_or(&[], |store| &store.warnings)
    }

    /// Flushes the verdicts the session solved since its last flush to
    /// its on-disk store (appended under the store's own header, or
    /// written whole over a store headed by anything else), then the
    /// revisions recorded since then to the goal→fragment dependency map
    /// sidecar, under the same rule. Returns the number of verdict records
    /// written: `Ok(0)`, with no I/O, when nothing is new or the session
    /// is not [`CachePolicy::Persistent`]. Dropping the session also
    /// flushes, best-effort; call this to observe I/O errors and the
    /// record count.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error; what was not written
    /// is kept for the next flush.
    pub fn persist(&self) -> std::io::Result<u64> {
        self.store
            .as_ref()
            .map_or(Ok(0), |store| store.flush(&self.engine))
    }

    /// Reads a persistent session's files again where they changed since
    /// the last read, ignoring file warnings (see [`Store::read`]). Fleet
    /// workers call it before every job, to pick up what their siblings
    /// and other sessions flushed. Service clients call it after their
    /// jobs: a client on the daemon's store thus reads the verdicts and
    /// the depmap records the workers flushed for its programs, and
    /// replays those programs locally next time.
    pub(crate) fn refresh(&self) {
        if let Some(store) = &self.store {
            store.read(&self.engine, "cache_refresh");
        }
    }

    /// Cumulative engine statistics over everything this session's own
    /// engine checked: the fold of those reports' `engine` stats, as
    /// [`DischargeEngine::stats`] describes (a service run's entries
    /// carry their workers' stats instead).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Runs the staged acceptability pipeline (the session's selected
    /// stages) on one program.
    ///
    /// # Errors
    ///
    /// Returns [`VcgenError`] when the program lacks required
    /// annotations.
    pub fn check(&self, program: &Program, spec: &Spec) -> Result<AcceptabilityReport, VcgenError> {
        staged_check(
            &self.engine,
            program,
            spec,
            self.config.stages,
            DischargeOptions::default(),
        )
    }

    /// Runs the spec-coverage lint on one program: purely static review
    /// aids (unconstrained taint, vacuous `relax` predicates, inert
    /// invariant conjuncts — see [`crate::analysis::lint`]) that never
    /// touch the solver and never affect verdicts. The corpus driver
    /// attaches the rendered warnings to every [`CorpusEntry`].
    pub fn lint(&self, program: &Program, spec: &Spec) -> Vec<crate::analysis::AnalysisWarning> {
        crate::analysis::lint(program, spec)
    }

    /// The combined obligations of every selected stage, in pipeline
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`VcgenError`] when the program lacks required
    /// annotations.
    pub fn vcs(&self, program: &Program, spec: &Spec) -> Result<Vec<Vc>, VcgenError> {
        let mut vcs = Vec::new();
        for stage in self.config.stages.iter() {
            vcs.extend(stage_vcs(stage, program, spec)?);
        }
        Ok(vcs)
    }

    /// A handle on one stage of the pipeline:
    /// `verifier.stage(Stage::Original).vcs(..)/check(..)`.
    pub fn stage(&self, stage: Stage) -> StageRunner<'_> {
        StageRunner {
            verifier: self,
            stage,
        }
    }

    /// Verifies a corpus of programs, fanning them across the session's
    /// worker budget. Under the default [`CachePolicy::Shared`] the
    /// structural-hash verdict cache is shared across programs, and
    /// verdicts one program reuses from another are counted in
    /// [`EngineStats::cross_hits`]. Owner tags are unique across the
    /// whole session, so a repeated `check_corpus` call also counts its
    /// reuse of an earlier call's verdicts as cross-program hits.
    ///
    /// Programs verify concurrently, so whether two *simultaneously
    /// checked* programs share work is scheduling-dependent (each may
    /// solve a shared goal before the other publishes it); verdicts are
    /// unaffected. Pin `workers(1)` for deterministic cache statistics.
    ///
    /// A per-program [`VcgenError`] is recorded in that program's
    /// [`CorpusEntry`] instead of aborting the rest of the corpus.
    /// Entries are named `program_0`, `program_1`, … in input order; use
    /// [`check_corpus_named`](Verifier::check_corpus_named) to supply
    /// names.
    pub fn check_corpus(&self, corpus: &[(Program, Spec)]) -> CorpusReport {
        let entries: Vec<(String, &Program, &Spec)> = corpus
            .iter()
            .enumerate()
            .map(|(i, (program, spec))| (format!("program_{i}"), program, spec))
            .collect();
        self.run_corpus(entries)
    }

    /// [`check_corpus`](Verifier::check_corpus) with caller-supplied
    /// program names for the report and its JSON rendering.
    pub fn check_corpus_named(&self, corpus: &[(&str, Program, Spec)]) -> CorpusReport {
        let entries: Vec<(String, &Program, &Spec)> = corpus
            .iter()
            .map(|(name, program, spec)| (name.to_string(), program, spec))
            .collect();
        self.run_corpus(entries)
    }

    /// The one corpus pipeline: replays unchanged programs from the
    /// depmap, hands the rest — the *live* programs — to the session's
    /// [`CorpusPolicy`] driver, then attaches lint, folds every entry's
    /// statistics once, and records each live program's revision. A fleet
    /// worker enters here directly, with the program and spec it kept
    /// from the job's last parse.
    pub(crate) fn run_corpus(&self, programs: Vec<(String, &Program, &Spec)>) -> CorpusReport {
        let started = std::time::Instant::now();

        // Incremental fast path (see `crate::depmap`): under a persistent
        // cache, a program whose revision hash matches its stored record
        // has no changed fragment — every stored goal key is current, and
        // the whole program replays from the verdict cache without vcgen,
        // encoding, or solver work. One hash per program serves both this
        // decision and the record of a live run.
        let depmap = self.store.as_ref().map(|store| &store.depmap);
        let hashes: Vec<String> = match depmap {
            Some(_) => programs
                .iter()
                .map(|(_, program, spec)| crate::depmap::program_hash(program, spec))
                .collect(),
            None => Vec::new(),
        };
        let mut slots: Vec<Option<CorpusEntry>> = Vec::with_capacity(programs.len());
        let mut live: Vec<usize> = Vec::new();
        {
            let mut resident = depmap.map(|resident| resident.lock().expect("depmap lock"));
            for (i, (name, program, spec)) in programs.iter().enumerate() {
                let replayed = resident.as_mut().and_then(|resident| {
                    let mut span = crate::telemetry::span("depmap", "replay_decision");
                    if span.is_active() {
                        span.arg("program", name.as_str());
                    }
                    let entry = resident
                        .map
                        .program(name)
                        .filter(|stored| stored.hash == hashes[i])
                        .and_then(|stored| self.replay_entry(name, stored))
                        .map(|mut entry| {
                            entry.lint = resident.lint(name, &hashes[i], program, spec);
                            entry
                        });
                    span.arg("replayed", u64::from(entry.is_some()));
                    entry
                });
                if replayed.is_none() {
                    live.push(i);
                }
                slots.push(replayed);
            }
        }

        // Everything else runs through the session's driver, which returns
        // the live entries in input order, without lint, and its fan-out.
        let mut workers = 0;
        if !live.is_empty() {
            let live_programs: Vec<(String, &Program, &Spec)> =
                live.iter().map(|&i| programs[i].clone()).collect();
            let (ran, fanout) = match &self.config.corpus {
                CorpusPolicy::InProcess => self.run_in_process(&live_programs),
                CorpusPolicy::Service { addr } => {
                    crate::service::run_corpus_service(self, &live_programs, addr)
                }
            };
            workers = fanout;
            for ((&i, (_, program, spec)), mut entry) in live.iter().zip(&live_programs).zip(ran) {
                // Lint is static and never crosses a wire: every driver's
                // entries get it here, errored programs included.
                entry.lint = rendered_lint(program, spec);
                slots[i] = Some(entry);
            }
        }
        let mut report = CorpusReport {
            entries: slots
                .into_iter()
                .map(|slot| slot.expect("every program either replays or runs live"))
                .collect(),
            stages: self.config.stages,
            ..CorpusReport::default()
        };

        // Record the fresh revision of everything that ran live in this
        // process, from the obligations and goal keys its report carries.
        // A failed program leaves the resident map, so this session never
        // replays it; its older record on disk only matches the revision
        // it was recorded for. A service run records nothing: the worker
        // that ran each program flushed its record, which a client on
        // the daemon's store has just read. The sidecar itself is flushed
        // on [`Verifier::persist`] or drop — per-call fsyncs here would
        // dominate an incremental re-verification.
        let in_process = matches!(self.config.corpus, CorpusPolicy::InProcess);
        if let Some(resident) = depmap.filter(|_| in_process && !live.is_empty()) {
            let mut resident = resident.lock().expect("depmap lock");
            for &i in &live {
                let name = programs[i].0.as_str();
                let outcome = report.entries[i].outcome.as_ref().ok();
                match outcome.and_then(|r| ProgramDeps::of_report(hashes[i].clone(), r)) {
                    Some(deps) => {
                        resident.map.record(name, deps);
                        resident.unflushed.insert(name.to_string());
                    }
                    None => {
                        resident.map.programs.remove(name);
                        resident.unflushed.remove(name);
                    }
                }
            }
        }

        for entry in &report.entries {
            if let Ok(program_report) = &entry.outcome {
                report.engine.absorb(&program_report.engine);
                for (_, stage_report) in program_report.stage_reports() {
                    report.stats.absorb(&stage_report.stats);
                }
            }
        }
        // Corpus-level parallelism is the driver's fan-out, not per-goal
        // workers; a fully replayed run fanned nothing out.
        report.engine.workers = workers;
        report.elapsed_ms = elapsed_ms_since(started);
        report
    }

    /// Replays one program's stored goal set from the verdict cache:
    /// `None` (fall back to a live run) when the stored stage spectrum
    /// does not match the session's selection or any goal key is not
    /// resident. The rebuilt entry carries placeholder rows
    /// ([`VcResult::placeholder`]: the stored provenance — stage, name,
    /// context, deps — is real; the formulas were never rebuilt, which is
    /// the point) and no lint.
    fn replay_entry(&self, name: &str, stored: &ProgramDeps) -> Option<CorpusEntry> {
        let stages = self.config.stages;
        // Every selected stage generates at least an entry obligation, so
        // a stage-spectrum mismatch means the record predates a stage
        // reconfiguration and cannot stand in for this run.
        let recorded = stored
            .goals
            .iter()
            .fold(StageSet::none(), |set, goal| set.with(goal.stage));
        if recorded != stages {
            return None;
        }
        let program_started = std::time::Instant::now();
        let (verdicts, engine) = self.engine.replay(stored.goals.iter().map(|g| &g.key))?;
        let mut staged: Vec<(Stage, Report)> = stages
            .iter()
            .map(|stage| (stage, Report::default()))
            .collect();
        for (goal, verdict) in stored.goals.iter().zip(verdicts) {
            let (_, report) = staged.iter_mut().find(|(stage, _)| *stage == goal.stage)?;
            report.results.push(VcResult::placeholder(
                goal.name.clone(),
                goal.context.clone(),
                goal.deps.clone(),
                verdict,
                true,
            ));
        }
        let mut report = AcceptabilityReport::from_stages(staged);
        report.engine = engine;
        Some(CorpusEntry {
            name: name.to_string(),
            elapsed_ms: elapsed_ms_since(program_started),
            lint: Vec::new(),
            outcome: Ok(report),
        })
    }

    /// The in-process driver: fans programs (not goals) across the
    /// worker budget and returns their entries, without lint, in input
    /// order, plus the fan-out. Program-level parallelism scales better
    /// than goal-level on corpus workloads, and the leftover budget
    /// parallelizes each program's discharge.
    fn run_in_process(&self, programs: &[(String, &Program, &Spec)]) -> (Vec<CorpusEntry>, usize) {
        let budget = self.config.discharge_config().effective_parallelism();
        let fanout = budget.min(programs.len()).max(1);
        let per_program = (budget / fanout).max(1);
        let entries = crate::engine::fan_out(programs, fanout, |(name, program, spec)| {
            let opts = DischargeOptions {
                workers: Some(per_program),
                // Session-unique 1-based owner tags: corpus programs are
                // distinguished both from untagged session history
                // (owner 0) and from every other program this session
                // ever batch-verified, so warm re-verification counts as
                // cross-program reuse.
                owner: self.next_owner.fetch_add(1, Ordering::Relaxed),
            };
            let program_started = std::time::Instant::now();
            let outcome = staged_check(&self.engine, program, spec, self.config.stages, opts);
            CorpusEntry {
                name: name.clone(),
                elapsed_ms: elapsed_ms_since(program_started),
                lint: Vec::new(),
                outcome: outcome.map_err(CorpusError::from),
            }
        });
        (entries, fanout)
    }
}

/// Whole milliseconds since `started`, saturated into `u64` — the
/// wall-time unit `CorpusReport` carries, so service and in-process
/// runs compare from the report JSON alone.
pub(crate) fn elapsed_ms_since(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Appends the five engine counters of `stats`, each after a `, ` —
/// the same keys in the same order for every corpus-report entry and
/// for the aggregate.
fn push_engine_counters(out: &mut String, stats: &EngineStats) {
    for (key, value) in [
        ("cache_hits", stats.cache_hits),
        ("cross_program_hits", stats.cross_hits),
        ("disk_hits", stats.disk_hits),
        ("solver_runs", stats.cache_misses),
        ("static_hits", stats.static_hits),
    ] {
        out.push_str(", ");
        json_field(out, key, &value.to_string());
    }
}

/// Renders the phase wall-time breakdown of `stats`, in microseconds, as
/// a JSON object — the `phase_us` field of corpus-report entries and
/// aggregates, so "where did the time go" survives in the report even
/// with telemetry off.
fn render_phase_us(stats: &EngineStats) -> String {
    format!(
        "{{\"vcgen\": {}, \"encode\": {}, \"solve\": {}, \"cache\": {}}}",
        stats.elapsed_vcgen_us,
        stats.elapsed_encode_us,
        stats.elapsed_solve_us,
        stats.elapsed_cache_us
    )
}

/// [`crate::analysis::lint`] rendered to the strings a [`CorpusEntry`]
/// carries.
fn rendered_lint(program: &Program, spec: &Spec) -> Vec<String> {
    crate::analysis::lint(program, spec)
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// A handle on one stage of a [`Verifier`] session (see
/// [`Verifier::stage`]).
#[derive(Clone, Copy, Debug)]
pub struct StageRunner<'v> {
    verifier: &'v Verifier,
    stage: Stage,
}

impl StageRunner<'_> {
    /// The stage this handle runs.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The stage's obligations for `program` under `spec` (the unary
    /// stages read `spec.pre`/`spec.post`, the relational stage
    /// `spec.rel_pre`/`spec.rel_post`).
    ///
    /// # Errors
    ///
    /// Returns [`VcgenError`] when the program lacks required
    /// annotations (or, for a standalone `⊢i` run, contains `relate`
    /// statements).
    pub fn vcs(&self, program: &Program, spec: &Spec) -> Result<Vec<Vc>, VcgenError> {
        stage_vcs(self.stage, program, spec)
    }

    /// Generates and discharges the stage's obligations through the
    /// session's engine (sharing its verdict cache).
    ///
    /// # Errors
    ///
    /// Returns [`VcgenError`] when the program lacks required
    /// annotations (or, for a standalone `⊢i` run, contains `relate`
    /// statements).
    pub fn check(&self, program: &Program, spec: &Spec) -> Result<Report, VcgenError> {
        let vcs = self.vcs(program, spec)?;
        Ok(self.verifier.engine.discharge(vcs))
    }
}

/// The result of [`Verifier::check_corpus`]: per-program verdicts plus
/// aggregate engine and solver statistics.
#[derive(Debug, Default)]
pub struct CorpusReport {
    /// Per-program outcomes, in input order.
    pub entries: Vec<CorpusEntry>,
    /// The stages the session ran for each program — consult this when
    /// interpreting `verified` statuses: a `StageSet` without the `⊢r`
    /// stage never proved any acceptability property.
    pub stages: StageSet,
    /// Engine activity folded over the whole corpus run.
    /// `engine.cross_hits` counts verdicts reused across programs — the
    /// corpus-scale payoff of the shared cache.
    pub engine: EngineStats,
    /// Solver work folded over the whole corpus run.
    pub stats: SolverStats,
    /// Wall time of the whole corpus run, in milliseconds. Under
    /// [`CorpusPolicy::Service`] this is the client's wall time, round
    /// trips included.
    pub elapsed_ms: u64,
}

/// One program's outcome within a [`CorpusReport`].
#[derive(Debug)]
pub struct CorpusEntry {
    /// The program's name (caller-supplied, or `program_<index>`).
    pub name: String,
    /// Wall time spent verifying this program, in milliseconds (as
    /// measured by whichever process ran the check).
    pub elapsed_ms: u64,
    /// Rendered spec-coverage lint warnings (see
    /// [`crate::analysis::lint`]): purely static review aids, computed
    /// for every program — including ones whose verification errored —
    /// and independent of the verdict.
    pub lint: Vec<String>,
    /// The staged report, or the [`CorpusError`] that prevented it.
    pub outcome: Result<AcceptabilityReport, CorpusError>,
}

impl CorpusEntry {
    /// Whether every obligation of every stage the session ran was
    /// proved. Under the default pipeline this is exactly the program's
    /// acceptability proof (Theorem 8); under a narrower
    /// [`StageSet`] it certifies only the stages in
    /// [`CorpusReport::stages`].
    pub fn verified(&self) -> bool {
        matches!(&self.outcome, Ok(report) if report.verified())
    }

    fn status(&self) -> &'static str {
        match &self.outcome {
            Ok(report) if report.verified() => "verified",
            Ok(_) => "failed",
            Err(_) => "error",
        }
    }
}

impl CorpusReport {
    /// Number of programs in the corpus.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every program verified.
    pub fn verified(&self) -> bool {
        self.entries.iter().all(CorpusEntry::verified)
    }

    /// Number of programs that verified.
    pub fn verified_count(&self) -> usize {
        self.entries.iter().filter(|e| e.verified()).count()
    }

    /// Verdicts reused across programs through the shared cache.
    pub fn cross_program_hits(&self) -> u64 {
        self.engine.cross_hits
    }

    /// Checks that this report and `other` agree verdict for verdict:
    /// same programs in the same order, same per-program status, and —
    /// for programs both reports checked — the same obligations with the
    /// same verdicts in every stage. Statistics, timings, and cache
    /// counters are deliberately **not** compared (they legitimately
    /// differ between schedules and between in-process and service
    /// execution).
    ///
    /// This is the one equivalence gate behind the service-vs-in-process
    /// assertions in the `verify_corpus --service` example, the service
    /// integration tests, and `paper_report` §E13 — one implementation,
    /// so the gates cannot drift apart.
    ///
    /// # Errors
    ///
    /// Returns a description of the first disagreement.
    pub fn verdicts_match(&self, other: &CorpusReport) -> Result<(), String> {
        if self.len() != other.len() {
            return Err(format!(
                "program counts differ: {} vs {}",
                self.len(),
                other.len()
            ));
        }
        for (a, b) in self.entries.iter().zip(&other.entries) {
            if a.name != b.name {
                return Err(format!(
                    "program order differs: {:?} vs {:?}",
                    a.name, b.name
                ));
            }
            if a.status() != b.status() {
                return Err(format!(
                    "{}: status differs: {} vs {}",
                    a.name,
                    a.status(),
                    b.status()
                ));
            }
            let (Ok(ra), Ok(rb)) = (&a.outcome, &b.outcome) else {
                continue; // both errored (same status): nothing verdict-level to compare
            };
            for stage in Stage::ALL {
                let (sa, sb) = match (ra.stage_report(stage), rb.stage_report(stage)) {
                    (Some(sa), Some(sb)) => (sa, sb),
                    (None, None) => continue,
                    _ => return Err(format!("{}: {stage} ran in only one report", a.name)),
                };
                if sa.len() != sb.len() {
                    return Err(format!(
                        "{}: {stage} obligation counts differ: {} vs {}",
                        a.name,
                        sa.len(),
                        sb.len()
                    ));
                }
                for (va, vb) in sa.results.iter().zip(&sb.results) {
                    if va.vc.name != vb.vc.name {
                        return Err(format!(
                            "{}: {stage} obligation order differs: {:?} vs {:?}",
                            a.name, va.vc.name, vb.vc.name
                        ));
                    }
                    if va.verdict != vb.verdict {
                        return Err(format!(
                            "{}: {stage} verdict differs on {}: {:?} vs {:?}",
                            a.name, va.vc, va.verdict, vb.verdict
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the report as JSON (hand-rolled — offline, no serde) for
    /// service and CI consumers: one object per program with its status,
    /// VC counts, and cache statistics, plus corpus-level aggregates.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"corpus\": [\n");
        for (i, entry) in self.entries.iter().enumerate() {
            let sep = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str("    {");
            json_field(&mut out, "name", &json_string(&entry.name));
            out.push_str(", ");
            json_field(&mut out, "status", &json_string(entry.status()));
            out.push_str(", ");
            json_field(&mut out, "elapsed_ms", &entry.elapsed_ms.to_string());
            match &entry.outcome {
                Ok(report) => {
                    out.push_str(", ");
                    json_field(&mut out, "vcs", &report.total_vcs().to_string());
                    out.push_str(", ");
                    json_field(&mut out, "proved", &report.proved_vcs().to_string());
                    // Per-stage verdicts only for stages that ran: a
                    // skipped stage must not read as a green light.
                    for (stage, stage_report) in report.stage_reports() {
                        out.push_str(", ");
                        json_field(
                            &mut out,
                            &format!("{}_verified", stage.name()),
                            &stage_report.verified().to_string(),
                        );
                    }
                    push_engine_counters(&mut out, &report.engine);
                    out.push_str(", ");
                    json_field(&mut out, "phase_us", &render_phase_us(&report.engine));
                }
                Err(error) => {
                    out.push_str(", ");
                    json_field(&mut out, "error", &json_string(&error.to_string()));
                }
            }
            // Lint warnings are static, so they appear for errored
            // programs too; omitted when clean to keep entries compact.
            if !entry.lint.is_empty() {
                out.push_str(", ");
                json_field(
                    &mut out,
                    "lint",
                    &format!(
                        "[{}]",
                        entry
                            .lint
                            .iter()
                            .map(|w| json_string(w))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                );
            }
            out.push('}');
            out.push_str(sep);
            out.push('\n');
        }
        out.push_str("  ],\n  \"aggregate\": {");
        let verified = self.verified_count();
        let errors = self.entries.iter().filter(|e| e.outcome.is_err()).count();
        json_field(
            &mut out,
            "stages",
            &format!(
                "[{}]",
                self.stages
                    .iter()
                    .map(|stage| json_string(stage.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        out.push_str(", ");
        json_field(&mut out, "programs", &self.len().to_string());
        out.push_str(", ");
        json_field(&mut out, "verified", &verified.to_string());
        out.push_str(", ");
        json_field(
            &mut out,
            "failed",
            &(self.len() - verified - errors).to_string(),
        );
        out.push_str(", ");
        json_field(&mut out, "errors", &errors.to_string());
        push_engine_counters(&mut out, &self.engine);
        out.push_str(", ");
        json_field(&mut out, "workers", &self.engine.workers.to_string());
        out.push_str(", ");
        json_field(&mut out, "phase_us", &render_phase_us(&self.engine));
        out.push_str(", ");
        json_field(&mut out, "elapsed_ms", &self.elapsed_ms.to_string());
        out.push_str(", ");
        json_field(&mut out, "solver_queries", &self.stats.queries.to_string());
        out.push_str(", ");
        json_field(&mut out, "simplex_pivots", &self.stats.pivots.to_string());
        out.push_str("}\n}\n");
        out
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verified = self.verified_count();
        writeln!(
            f,
            "{verified}/{} programs verified ({} cache hits, {} cross-program)",
            self.len(),
            self.engine.cache_hits,
            self.engine.cross_hits
        )?;
        for entry in &self.entries {
            writeln!(f, "  {:>10}  {}", entry.status(), entry.name)?;
        }
        Ok(())
    }
}

fn json_field(out: &mut String, key: &str, rendered_value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    out.push_str(rendered_value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_lang::{parse_program, parse_rel_formula};

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

    #[test]
    fn default_config_matches_engine_defaults() {
        let config = Config::default();
        let discharge = DischargeConfig::default();
        assert_eq!(config.discharge_config(), discharge);
        assert_eq!(config.cache, CachePolicy::Shared);
        assert_eq!(config.stages, StageSet::default());
    }

    #[test]
    fn from_lookup_applies_overrides_and_reports_bad_values() {
        let (config, warnings) = Config::from_lookup(|name| match name {
            "DISCHARGE_WORKERS" => Some("3".to_string()),
            "DISCHARGE_CONFLICTS" => Some("bogus".to_string()),
            _ => None,
        });
        assert_eq!(config.workers, 3);
        assert_eq!(config.max_conflicts, Config::default().max_conflicts);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].var, "DISCHARGE_CONFLICTS");
        assert!(warnings[0].to_string().contains("bogus"));
    }

    #[test]
    fn builder_fields_beat_config_base() {
        let base = Config {
            workers: 7,
            max_conflicts: 123,
            ..Config::default()
        };
        let verifier = Verifier::builder().config(base).workers(2).build();
        assert_eq!(verifier.config().workers, 2);
        assert_eq!(verifier.config().max_conflicts, 123);
    }

    #[test]
    fn stage_set_selection() {
        let set = StageSet::only(Stage::Intermediate);
        assert!(set.contains(Stage::Intermediate));
        assert!(!set.contains(Stage::Original));
        assert!(StageSet::all().contains(Stage::Relaxed));
        assert!(!StageSet::default().contains(Stage::Intermediate));
    }

    #[test]
    fn stage_names_round_trip_and_sets_iterate_in_pipeline_order() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Ok(stage));
        }
        let err = Stage::from_name("bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        let order: Vec<Stage> = StageSet::none()
            .with(Stage::Relaxed)
            .with(Stage::Original)
            .with(Stage::Intermediate)
            .iter()
            .collect();
        assert_eq!(order, Stage::ALL);
        let default: Vec<Stage> = StageSet::default().iter().collect();
        assert_eq!(default, [Stage::Original, Stage::Relaxed]);
    }

    #[test]
    fn check_runs_selected_stages_only() {
        let (program, spec) = toy();
        let original_only = Verifier::builder()
            .stages(StageSet::only(Stage::Original))
            .build();
        let report = original_only.check(&program, &spec).unwrap();
        assert!(!report.original.is_empty());
        assert!(report.relaxed.is_empty());
        assert!(report.intermediate.is_none());
        // The ran stage verified, but a skipped ⊢r stage must never be
        // reported as a proved theorem.
        assert!(report.verified());
        assert!(report.original_progress());
        assert!(!report.relative_relaxed_progress());
        assert!(!report.relaxed_progress());
    }

    #[test]
    fn stage_runner_matches_pipeline_stage() {
        let (program, spec) = toy();
        let verifier = Verifier::new();
        let full = verifier.check(&program, &spec).unwrap();
        let fresh = Verifier::new();
        let original = fresh.stage(Stage::Original).check(&program, &spec).unwrap();
        assert_eq!(original.len(), full.original.len());
        for (a, b) in original.results.iter().zip(&full.original.results) {
            assert_eq!(a.verdict, b.verdict);
        }
    }

    #[test]
    fn corpus_of_duplicates_hits_across_programs() {
        let (program, spec) = toy();
        let corpus = vec![(program.clone(), spec.clone()), (program, spec)];
        // workers(1): sequential corpus order makes the cache statistics
        // deterministic (concurrent duplicates may each solve a shared
        // goal before the other publishes it).
        let verifier = Verifier::builder().workers(1).build();
        let report = verifier.check_corpus(&corpus);
        assert_eq!(report.len(), 2);
        assert!(report.verified());
        assert!(
            report.cross_program_hits() > 0,
            "identical programs must share verdicts: {report}"
        );
        assert_eq!(report.entries[0].name, "program_0");
    }

    #[test]
    fn verdicts_match_accepts_reruns_and_detects_drift() {
        let (program, spec) = toy();
        let corpus = vec![(program, spec)];
        let a = Verifier::builder().workers(1).build().check_corpus(&corpus);
        let b = Verifier::builder().workers(4).build().check_corpus(&corpus);
        a.verdicts_match(&b).unwrap();
        a.verdicts_match(&a).unwrap();

        let empty = Verifier::new().check_corpus(&[]);
        let err = a.verdicts_match(&empty).unwrap_err();
        assert!(err.contains("program counts"), "{err}");

        let broken = parse_program("assert false;").unwrap();
        let broken_spec = Spec::synced(&broken);
        let c = Verifier::builder()
            .workers(1)
            .build()
            .check_corpus(&[(broken, broken_spec)]);
        let err = a.verdicts_match(&c).unwrap_err();
        assert!(err.contains("status differs"), "{err}");

        // The same program checked under another stage selection.
        let (program, spec) = toy();
        let original_only = Verifier::builder()
            .workers(1)
            .stages(StageSet::only(Stage::Original))
            .build()
            .check_corpus(&[(program, spec)]);
        let err = a.verdicts_match(&original_only).unwrap_err();
        assert!(err.contains("⊢r ran in only one report"), "{err}");
    }

    #[test]
    fn lint_memo_keeps_one_revision_per_program() {
        let path = std::env::temp_dir().join(format!(
            "relaxed-api-lint-memo-{}.jsonl",
            std::process::id()
        ));
        let sidecar = crate::depmap::depmap_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
        let session = Verifier::builder().workers(1).cache_file(&path).build();
        let (program, spec) = toy();
        let mut revisions = Vec::new();
        for bound in 0..3 {
            // A one-conjunct edit: each spec is a new revision.
            let spec = Spec {
                pre: relaxed_lang::parse_formula(&format!("n >= {bound}")).unwrap(),
                ..spec.clone()
            };
            let corpus = [("toy", program.clone(), spec)];
            // The first check runs live; the second replays.
            session.check_corpus_named(&corpus);
            let replayed = session.check_corpus_named(&corpus).engine;
            assert_eq!((replayed.cache_misses, replayed.cross_hits), (0, 0));
            revisions.push(corpus);
        }
        let last = &revisions[2][0];
        {
            let mut resident = session.store.as_ref().unwrap().depmap.lock().unwrap();
            let lints = &mut resident.lints;
            assert_eq!(lints.len(), 1, "one entry per program: {lints:?}");
            let memo = lints.get_mut("toy").unwrap();
            assert_eq!(memo.0, crate::depmap::program_hash(&last.1, &last.2));
            // A replay of the unchanged revision must read the memo
            // instead of running the analysis again.
            memo.1 = vec!["memoized".to_string()];
        }
        let replayed = session.check_corpus_named(&revisions[2]);
        assert_eq!(replayed.entries[0].lint, ["memoized"]);
        drop(session);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
    }

    /// A new store path for `tag`, with no store or sidecar at it.
    fn temp_store(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "relaxed-api-store-{tag}-{}.jsonl",
            std::process::id()
        ));
        remove_store(&path);
        path
    }

    fn remove_store(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(crate::depmap::depmap_path(path));
    }

    fn persistent(path: &Path) -> Verifier {
        Verifier::builder().workers(1).cache_file(path).build()
    }

    fn unary_vc(name: &str, source: &str) -> Vc {
        Vc {
            name: name.to_string(),
            context: "test".to_string(),
            body: crate::vcgen::VcBody::Unary(relaxed_lang::parse_formula(source).unwrap()),
            deps: Vec::new().into(),
        }
    }

    #[test]
    fn persist_writes_one_record_per_key() {
        let path = temp_store("persist");
        let session = persistent(&path);
        let engine = session.engine();
        engine.discharge(vec![unary_vc("a", "x <= x"), unary_vc("b", "x <= x + 1")]);
        engine.discharge(vec![unary_vc("a", "x <= x")]);
        assert_eq!(session.persist().unwrap(), 2);
        drop(session);
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<&str> = text.lines().skip(1).collect();
        let mut sorted = records.clone();
        sorted.sort_unstable();
        assert_eq!(records.len(), 2);
        assert_eq!(records, sorted, "records are written in key order");
        remove_store(&path);
    }

    #[test]
    fn failed_flush_keeps_what_it_did_not_write() {
        let path = temp_store("failed-flush");
        let sidecar = crate::depmap::depmap_path(&path);
        // A directory where a file should be fails that file's writes.
        std::fs::create_dir(&path).unwrap();
        std::fs::create_dir(&sidecar).unwrap();
        let (program, spec) = toy();
        let corpus = [("toy", program, spec)];
        let session = persistent(&path);
        let solved = session.check_corpus_named(&corpus).engine.cache_misses;
        assert!(solved > 0);
        assert!(session.persist().is_err(), "the store cannot be written");
        std::fs::remove_dir(&path).unwrap();
        assert!(session.persist().is_err(), "the sidecar cannot be written");
        std::fs::remove_dir(&sidecar).unwrap();
        assert_eq!(session.persist().unwrap(), 0, "only the sidecar was left");
        drop(session);
        let reread = persistent(&path);
        assert_eq!(reread.stats().loaded, solved, "the kept batch was written");
        let replayed = reread.check_corpus_named(&corpus).engine;
        assert_eq!((replayed.cache_misses, replayed.cross_hits), (0, 0));
        drop(reread);
        remove_store(&path);
    }

    #[test]
    fn refresh_merges_concurrent_writers() {
        let path = temp_store("refresh");
        // Session A starts against an empty store.
        let a = persistent(&path);
        a.refresh();
        assert_eq!(a.stats().loaded, 0, "nothing to merge yet");
        // Session B (a sibling fleet worker) persists a verdict.
        let b = persistent(&path);
        b.engine().discharge(vec![unary_vc("g", "y + 1 >= y")]);
        b.persist().unwrap();
        // A merges it and answers the goal with zero solver work, as a
        // disk hit.
        a.refresh();
        assert_eq!(a.stats().loaded, 1);
        a.refresh();
        assert_eq!(a.stats().loaded, 1, "idempotent once merged");
        let report = a.engine().discharge(vec![unary_vc("g", "y + 1 >= y")]);
        assert_eq!(report.engine.cache_misses, 0);
        assert_eq!(report.engine.disk_hits, 1);
        let memory = Verifier::builder().workers(1).build();
        memory.refresh();
        assert_eq!(
            memory.stats().loaded,
            0,
            "in-memory sessions have nothing to refresh"
        );
        drop(a);
        drop(b);
        remove_store(&path);
    }

    #[test]
    fn persist_publishes_increments_without_rewrites() {
        let path = temp_store("append");
        // Two sessions on one store, as two fleet workers would be. The
        // first flush creates the store; after that each appends only its
        // own fresh verdicts, so neither flush can drop the other's, even
        // though neither ever read the file again.
        let a = persistent(&path);
        let b = persistent(&path);
        a.engine().discharge(vec![unary_vc("a", "x <= x")]);
        assert_eq!(a.persist().unwrap(), 1);
        assert_eq!(a.persist().unwrap(), 0, "batch drains");
        b.engine().discharge(vec![unary_vc("b", "y <= y + 1")]);
        assert_eq!(b.persist().unwrap(), 1);
        drop(a);
        drop(b);
        let merged = persistent(&path);
        assert_eq!(merged.stats().loaded, 2, "union of both writers");
        let report = merged
            .engine()
            .discharge(vec![unary_vc("a", "x <= x"), unary_vc("b", "y <= y + 1")]);
        assert_eq!(report.engine.cache_misses, 0);
        assert_eq!(report.engine.disk_hits, 2);
        let memory = Verifier::builder().workers(1).build();
        memory.engine().discharge(vec![unary_vc("a", "x <= x")]);
        assert_eq!(
            memory.persist().unwrap(),
            0,
            "in-memory sessions have nothing to flush"
        );
        drop(merged);
        remove_store(&path);
    }

    #[test]
    fn flushed_session_skips_drop_write() {
        let path = temp_store("append-clean");
        let session = persistent(&path);
        session.engine().discharge(vec![unary_vc("a", "x <= x")]);
        session.persist().unwrap();
        let flushed_at = std::fs::metadata(&path).unwrap().modified().unwrap();
        let flushed_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(session.persist().unwrap(), 0, "nothing new: no I/O");
        drop(session); // everything already on disk: no drop-time write
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(meta.len(), flushed_len);
        assert_eq!(meta.modified().unwrap(), flushed_at);
        remove_store(&path);
    }

    #[test]
    fn refresh_skips_unchanged_files() {
        let path = temp_store("refresh-guard");
        let a = persistent(&path);
        // Missing file: polling costs a stat, merges nothing.
        a.refresh();
        assert_eq!(a.stats().loaded, 0);
        let b = persistent(&path);
        b.engine().discharge(vec![unary_vc("g", "z >= z")]);
        b.persist().unwrap();
        a.refresh();
        assert_eq!(a.stats().loaded, 1, "file changed: reload and merge");
        // Another verdict under the same length and modification time:
        // the stamp is unchanged, so the file is not read.
        let stamp = std::fs::metadata(&path).unwrap().modified().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let other = text.replace("|z|", "|w|");
        assert_eq!(other.len(), text.len());
        std::fs::write(&path, other).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(stamp).unwrap();
        drop(file);
        a.refresh();
        assert_eq!(a.stats().loaded, 1, "file unchanged: stat-only skip");
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(stamp + std::time::Duration::from_secs(1))
            .unwrap();
        drop(file);
        a.refresh();
        assert_eq!(a.stats().loaded, 2, "stamp changed: reload and merge");
        drop(a);
        drop(b);
        remove_store(&path);
    }

    #[test]
    fn refresh_reads_a_sidecar_written_after_build_but_keeps_unflushed_records() {
        let path = temp_store("refresh-sidecar");
        let (program, spec) = toy();
        let revision = |bound: i64| {
            let pre = relaxed_lang::parse_formula(&format!("n >= {bound}")).unwrap();
            [(
                "toy",
                program.clone(),
                Spec {
                    pre,
                    ..spec.clone()
                },
            )]
        };
        let a = persistent(&path);
        let b = persistent(&path);
        b.check_corpus_named(&revision(0));
        b.persist().unwrap();
        // Session A read the sidecar before B wrote it: the refresh
        // brings B's record in, and the program replays.
        a.refresh();
        let replayed = a.check_corpus_named(&revision(0)).engine;
        assert_eq!(
            (
                replayed.cache_misses,
                replayed.cross_hits,
                replayed.elapsed_vcgen_us
            ),
            (0, 0, 0),
            "{replayed:?}"
        );
        // A records revision 1 and has not flushed it. B then persists
        // revision 2 of the same program, which the refresh must not put
        // in place of A's unflushed record.
        a.check_corpus_named(&revision(1));
        b.check_corpus_named(&revision(2));
        b.persist().unwrap();
        a.refresh();
        let replayed = a.check_corpus_named(&revision(1)).engine;
        assert_eq!(
            (replayed.cache_misses, replayed.cross_hits),
            (0, 0),
            "{replayed:?}"
        );
        drop(a);
        drop(b);
        remove_store(&path);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
