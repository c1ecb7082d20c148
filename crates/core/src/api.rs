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
//! or `DISCHARGE_CACHE=<path>`) loads previously persisted verdicts at
//! build time and writes the cache back on [`Verifier::persist`] or
//! drop, making re-verification across runs incremental (see
//! [`crate::cache`]).
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

use crate::cache::{json_string, CacheWarning};
use crate::engine::{DischargeConfig, DischargeEngine, DischargeOptions, EngineStats};
use crate::vcgen::{Vc, VcgenError};
use crate::verify::{stage_vcs, staged_check, AcceptabilityReport, Report, Spec};
use relaxed_lang::Program;
use relaxed_smt::SolverStats;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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
    /// Fan programs across `shards` worker **processes** (the
    /// `relaxed-shardd` binary) coordinated by [`crate::shard`]:
    /// longest-first distribution over a fleet spawned on demand,
    /// crash/corruption tolerance with bounded retries, and — under
    /// [`CachePolicy::Persistent`] — verdict sharing between workers
    /// through the fingerprint-gated on-disk store. Selected by
    /// [`VerifierBuilder::shards`] or `DISCHARGE_SHARDS=<n>`.
    Sharded {
        /// Worker processes to spawn (at least 1).
        shards: usize,
    },
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
    /// The sharded execution layer gave up on the program: its job
    /// exhausted the bounded retries across worker crashes / malformed
    /// response frames, or no worker binary could be found. Only
    /// produced under [`CorpusPolicy::Sharded`].
    Shard(String),
    /// The networked service layer gave up on the program: the daemon
    /// could not be reached, the connection died mid-corpus, or the
    /// daemon reported a per-job failure. Only produced under
    /// [`CorpusPolicy::Service`].
    Service(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Vcgen(e) => e.fmt(f),
            CorpusError::Shard(reason) => write!(f, "sharded verification failed: {reason}"),
            CorpusError::Service(reason) => write!(f, "service verification failed: {reason}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Vcgen(e) => Some(e),
            CorpusError::Shard(_) | CorpusError::Service(_) => None,
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
    /// Explicit path to the `relaxed-shardd` worker binary for
    /// [`CorpusPolicy::Sharded`]; `None` resolves it next to the current
    /// executable (see [`crate::shard::locate_worker`]).
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
    /// selecting [`CachePolicy::Persistent`]), `DISCHARGE_SHARDS`
    /// (`0` = in-process, `n ≥ 1` = [`CorpusPolicy::Sharded`] across `n`
    /// worker processes), `DISCHARGE_TRACE` (a file path enabling
    /// telemetry and selecting the Chrome trace-event output, see
    /// [`crate::telemetry`]), `RELAXED_SHARDD` (explicit worker-binary
    /// path), and
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
        if let Some(shards) = parse("DISCHARGE_SHARDS") {
            config.corpus = match shards {
                0 => CorpusPolicy::InProcess,
                n => CorpusPolicy::Sharded { shards: n as usize },
            };
        }
        if let Some(raw) = lookup("DISCHARGE_CACHE") {
            let path = raw.trim();
            if path.is_empty() {
                warnings.push(EnvWarning {
                    var: "DISCHARGE_CACHE",
                    value: raw,
                    expected: "a non-empty file path",
                });
            } else {
                config.cache = CachePolicy::Persistent {
                    path: PathBuf::from(path),
                };
            }
        }
        if let Some(raw) = lookup("DISCHARGE_TRACE") {
            let path = raw.trim();
            if path.is_empty() {
                warnings.push(EnvWarning {
                    var: "DISCHARGE_TRACE",
                    value: raw,
                    expected: "a non-empty trace-output file path",
                });
            } else {
                config.trace = Some(PathBuf::from(path));
            }
        }
        if let Some(raw) = lookup("RELAXED_SHARDD") {
            let path = raw.trim();
            if path.is_empty() {
                warnings.push(EnvWarning {
                    var: "RELAXED_SHARDD",
                    value: raw,
                    expected: "a non-empty path to the relaxed-shardd binary",
                });
            } else {
                config.shard_worker = Some(PathBuf::from(path));
            }
        }
        // Processed after DISCHARGE_SHARDS on purpose: when both are set,
        // the service address wins (the daemon's fleet already *is* the
        // shard layer).
        if let Some(raw) = lookup("RELAXED_SERVICE") {
            let addr = raw.trim();
            if addr.is_empty() {
                warnings.push(EnvWarning {
                    var: "RELAXED_SERVICE",
                    value: raw,
                    expected: "a non-empty host:port address of a relaxed-serviced daemon",
                });
            } else {
                config.corpus = CorpusPolicy::Service {
                    addr: addr.to_string(),
                };
            }
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

    /// Verifies corpora across `shards` worker processes — shorthand for
    /// `.corpus(CorpusPolicy::Sharded { shards })`. See [`crate::shard`]
    /// for the coordinator/worker architecture.
    pub fn shards(self, shards: usize) -> Self {
        self.corpus(CorpusPolicy::Sharded { shards })
    }

    /// Submits corpora to the `relaxed-serviced` daemon at `addr` —
    /// shorthand for `.corpus(CorpusPolicy::Service { addr })`. See
    /// [`crate::service`] for the daemon architecture.
    pub fn service(self, addr: impl Into<String>) -> Self {
        self.corpus(CorpusPolicy::Service { addr: addr.into() })
    }

    /// Explicit path to the `relaxed-shardd` worker binary (otherwise
    /// resolved from `RELAXED_SHARDD` under the env layer, or located
    /// next to the current executable).
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
        // Acquire the trace before the engine exists so the cache-load
        // span of a persistent session lands in the timeline.
        let owns_trace = config.trace.is_some();
        if let Some(path) = &config.trace {
            crate::telemetry::acquire_file(path);
        }
        let engine = match &config.cache {
            CachePolicy::Persistent { path } => {
                DischargeEngine::with_cache_file(config.discharge_config(), path.clone())
            }
            CachePolicy::Shared => DischargeEngine::with_config(config.discharge_config()),
        };
        let verifier = Verifier {
            engine,
            config,
            env_warnings,
            next_owner: AtomicU64::new(1),
            depmap: OnceLock::new(),
            lint_memo: Mutex::new(std::collections::HashMap::new()),
            owns_trace,
        };
        // Load the dependency-map sidecar alongside the verdict store:
        // session build is where a persistent session pays its disk
        // reads, keeping the first corpus check as fast as later ones.
        let _ = verifier.depmap_resident();
        verifier
    }
}

/// The session-resident goal→fragment dependency map: loaded from the
/// sidecar once (first corpus run), mutated in memory after every live
/// run, written back on [`Verifier::persist`] or drop — the same
/// lifecycle as the verdict store it rides along with, so an
/// incremental re-verification pays no sidecar I/O per call.
#[derive(Debug)]
struct ResidentDepmap {
    /// The sidecar path (`<cache path>.depmap`).
    path: PathBuf,
    /// The engine-configuration fingerprint gating loads and stamping
    /// persists (see [`crate::depmap`]).
    fingerprint: String,
    map: crate::depmap::DepMap,
    /// Whether the in-memory map has diverged from the sidecar on disk.
    dirty: bool,
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
    /// Lazily-loaded resident dependency map (`None` once initialized
    /// means the session is not persistent).
    depmap: OnceLock<Option<Mutex<ResidentDepmap>>>,
    /// Rendered lint memoized by revision hash: a replayed corpus entry
    /// reuses the lint of its (unchanged) revision instead of re-running
    /// the static analysis on every incremental re-verification.
    lint_memo: Mutex<std::collections::HashMap<String, Vec<String>>>,
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
    /// Best-effort write-back of the dependency-map sidecar (the engine
    /// persists the verdict store in its own drop) and release of the
    /// session's telemetry trace ownership (the last tracing session's
    /// release writes the trace file).
    fn drop(&mut self) {
        if let Err(e) = self.persist_depmap() {
            crate::diag::warn(format_args!("could not persist depmap: {e}"));
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
        self.engine.cache_warnings()
    }

    /// Writes the session's verdict cache back to its on-disk store,
    /// along with the goal→fragment dependency map sidecar when the
    /// resident map has new revisions (a no-op returning `Ok(0)` unless
    /// the session uses [`CachePolicy::Persistent`]). Dropping the
    /// session also persists, best-effort; call this to observe I/O
    /// errors and the entry count.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn persist(&self) -> std::io::Result<u64> {
        let written = self.engine.persist()?;
        self.persist_depmap()?;
        Ok(written)
    }

    /// Cumulative engine statistics over everything this session has
    /// checked.
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
    /// statistics once, and records each live program's revision.
    fn run_corpus(&self, programs: Vec<(String, &Program, &Spec)>) -> CorpusReport {
        let started = std::time::Instant::now();

        // Incremental fast path (see `crate::depmap`): under a persistent
        // cache, a program whose revision hash matches its stored record
        // has no changed fragment — every stored goal key is current, and
        // the whole program replays from the verdict cache without vcgen,
        // encoding, or solver work. One hash per program serves both this
        // decision and the record of a live run.
        let depmap = self.depmap_resident();
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
            let resident = depmap.map(|resident| resident.lock().expect("depmap lock"));
            for (i, (name, program, spec)) in programs.iter().enumerate() {
                let replayed = resident.as_ref().and_then(|resident| {
                    let mut span = crate::telemetry::span("depmap", "replay_decision");
                    if span.is_active() {
                        span.arg("program", name.as_str());
                    }
                    let entry = resident
                        .map
                        .program(name)
                        .filter(|stored| stored.hash == hashes[i])
                        .and_then(|stored| self.replay_entry(name, program, spec, stored));
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
                CorpusPolicy::Sharded { shards } => {
                    crate::shard::run_corpus_sharded(self, &live_programs, *shards)
                }
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

        // Record the fresh revision of everything that ran live, from the
        // obligations its report carries (a failed program drops its
        // record: a stale map must never replay a now-broken program).
        // The sidecar itself is written back on [`Verifier::persist`] or
        // drop — per-call fsyncs here would dominate an incremental
        // re-verification.
        if let Some(resident) = depmap.filter(|_| !live.is_empty()) {
            let mut resident = resident.lock().expect("depmap lock");
            for &i in &live {
                let name = programs[i].0.as_str();
                match &report.entries[i].outcome {
                    Ok(program_report) => resident.map.record(
                        name,
                        crate::depmap::ProgramDeps::of_report(hashes[i].clone(), program_report),
                    ),
                    Err(_) => {
                        resident.map.programs.remove(name);
                    }
                }
            }
            resident.dirty = true;
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
    /// resident. The rebuilt entry carries placeholder formula bodies
    /// (the stored provenance — stage, name, context, deps — is real;
    /// the formulas were never rebuilt, which is the point).
    fn replay_entry(
        &self,
        name: &str,
        program: &Program,
        spec: &Spec,
        stored: &crate::depmap::ProgramDeps,
    ) -> Option<CorpusEntry> {
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
        let keys: Vec<crate::cache::GoalKey> = stored.goals.iter().map(|g| g.key.clone()).collect();
        let (verdicts, disk_hits) = self.engine.replay(&keys)?;
        let mut staged: Vec<(Stage, Report)> = stages
            .iter()
            .map(|stage| (stage, Report::default()))
            .collect();
        for (goal, verdict) in stored.goals.iter().zip(verdicts) {
            let (_, report) = staged.iter_mut().find(|(stage, _)| *stage == goal.stage)?;
            report.results.push(crate::verify::VcResult {
                vc: Vc {
                    name: goal.name.clone(),
                    context: goal.context.clone(),
                    body: crate::vcgen::VcBody::Unary(relaxed_lang::Formula::True),
                    deps: goal.deps.clone(),
                },
                verdict,
                stats: SolverStats::default(),
                cached: true,
            });
        }
        let mut report = AcceptabilityReport::from_stages(staged);
        report.engine = EngineStats {
            cache_hits: stored.goals.len() as u64,
            disk_hits,
            ..EngineStats::default()
        };
        Some(CorpusEntry {
            name: name.to_string(),
            elapsed_ms: elapsed_ms_since(program_started),
            lint: self.memoized_lint(&stored.hash, program, spec),
            outcome: Ok(report),
        })
    }

    /// The rendered lint of a revision, memoized by its hash: replay is
    /// only reached when the revision is unchanged, so its lint — a
    /// whole-program static analysis — is too.
    fn memoized_lint(&self, hash: &str, program: &Program, spec: &Spec) -> Vec<String> {
        let mut memo = self.lint_memo.lock().expect("lint-memo lock");
        if let Some(lint) = memo.get(hash) {
            return lint.clone();
        }
        let lint = rendered_lint(program, spec);
        memo.insert(hash.to_string(), lint.clone());
        lint
    }

    /// The session-resident dependency map, loading the sidecar on
    /// first use. `None` unless the session is persistent.
    fn depmap_resident(&self) -> Option<&Mutex<ResidentDepmap>> {
        self.depmap
            .get_or_init(|| {
                let CachePolicy::Persistent { path } = &self.config.cache else {
                    return None;
                };
                let sidecar = crate::depmap::depmap_path(path);
                let fingerprint = crate::cache::fingerprint(&self.config.discharge_config());
                let (map, warnings) = crate::depmap::load(&sidecar, &fingerprint);
                for warning in &warnings {
                    crate::diag::warn(format_args!("{warning}"));
                }
                Some(Mutex::new(ResidentDepmap {
                    path: sidecar,
                    fingerprint,
                    map,
                    dirty: false,
                }))
            })
            .as_ref()
    }

    /// Writes the resident dependency map back to its sidecar if it has
    /// diverged from disk (a no-op otherwise).
    fn persist_depmap(&self) -> std::io::Result<()> {
        let Some(Some(resident)) = self.depmap.get() else {
            return Ok(());
        };
        let mut resident = resident.lock().expect("depmap lock");
        if !resident.dirty {
            return Ok(());
        }
        crate::depmap::persist(&resident.path, &resident.fingerprint, &resident.map)?;
        resident.dirty = false;
        Ok(())
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
/// wall-time unit `CorpusReport` carries so sharded-vs-in-process
/// speedups are measurable from the report JSON alone.
pub(crate) fn elapsed_ms_since(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Renders the phase wall-time breakdown of `stats` as a JSON object —
/// the `phase_ms` field of corpus-report entries and aggregates, so
/// "where did the time go" survives in the report even with telemetry
/// off.
fn render_phase_ms(stats: &EngineStats) -> String {
    format!(
        "{{\"vcgen\": {}, \"encode\": {}, \"solve\": {}, \"cache\": {}}}",
        stats.elapsed_vcgen_ms,
        stats.elapsed_encode_ms,
        stats.elapsed_solve_ms,
        stats.elapsed_cache_ms
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
    /// [`CorpusPolicy::Sharded`] this is coordinator wall time, so
    /// comparing it against an in-process run's value measures the
    /// multi-process speedup from the report alone.
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
    /// differ between schedules and between in-process and sharded
    /// execution).
    ///
    /// This is the one equivalence gate behind the sharded-vs-in-process
    /// assertions in the `verify_corpus --sharded` example, the shard
    /// integration tests, and `paper_report` §E10 — one implementation,
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
                    out.push_str(", ");
                    json_field(
                        &mut out,
                        "cache_hits",
                        &report.engine.cache_hits.to_string(),
                    );
                    out.push_str(", ");
                    json_field(
                        &mut out,
                        "cross_program_hits",
                        &report.engine.cross_hits.to_string(),
                    );
                    out.push_str(", ");
                    json_field(&mut out, "disk_hits", &report.engine.disk_hits.to_string());
                    out.push_str(", ");
                    json_field(
                        &mut out,
                        "solver_runs",
                        &report.engine.cache_misses.to_string(),
                    );
                    out.push_str(", ");
                    json_field(
                        &mut out,
                        "static_hits",
                        &report.engine.static_hits.to_string(),
                    );
                    out.push_str(", ");
                    json_field(&mut out, "phase_ms", &render_phase_ms(&report.engine));
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
        out.push_str(", ");
        json_field(&mut out, "cache_hits", &self.engine.cache_hits.to_string());
        out.push_str(", ");
        json_field(
            &mut out,
            "cross_program_hits",
            &self.engine.cross_hits.to_string(),
        );
        out.push_str(", ");
        json_field(&mut out, "disk_hits", &self.engine.disk_hits.to_string());
        out.push_str(", ");
        json_field(
            &mut out,
            "solver_runs",
            &self.engine.cache_misses.to_string(),
        );
        out.push_str(", ");
        json_field(
            &mut out,
            "static_hits",
            &self.engine.static_hits.to_string(),
        );
        out.push_str(", ");
        json_field(&mut out, "workers", &self.engine.workers.to_string());
        out.push_str(", ");
        json_field(&mut out, "phase_ms", &render_phase_ms(&self.engine));
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
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
