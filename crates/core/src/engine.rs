//! The parallel, deduplicating VC discharge engine.
//!
//! The paper's staged methodology (`⊢o`, then `⊢i`, then `⊢r`) generates
//! many verification conditions per program, and the obligations are
//! mutually independent: each is a closed validity query. The engine
//! exploits that independence twice over:
//!
//! 1. **Structural deduplication.** Every obligation is encoded with a
//!    fresh [`EncodeCtx`], so the per-goal bound-variable numbering
//!    restarts at zero and two occurrences of the same obligation encode
//!    to structurally identical [`BTerm`]s. (Bound names keep their
//!    source identifier — `x!b0` — so goals that differ only by binder
//!    *names* are not identified; the duplicates the VC generator emits
//!    are verbatim re-proofs, which this canonical form catches.) The
//!    encoded goal is the key of a verdict cache shared
//!    across every discharge call made through one engine — in particular
//!    across the `⊢o` and `⊢r` stages of
//!    [`Verifier::check`](crate::api::Verifier::check), whose diverge
//!    sub-proofs re-prove many of the `⊢o` stage's unary goals verbatim,
//!    and across the programs of a
//!    [`Verifier::check_corpus`](crate::api::Verifier::check_corpus)
//!    batch.
//! 2. **Static pre-discharge analysis.** Before any solver is built,
//!    the abstract-interpretation prefilter ([`crate::prefilter`])
//!    proves trivially-valid goals by interval/constant evaluation over
//!    the interned term DAG — zero SAT/simplex work, counted in
//!    [`EngineStats::static_hits`].
//! 3. **Parallel discharge.** Every remaining unique, uncached goal is
//!    solved on its own fresh [`Solver`] on the crate's one scoped,
//!    work-claiming pool (`fan_out`, which the corpus drivers share).
//!    Goals are the unit of scheduling, and results are reassembled in
//!    generation order, so a [`Report`] is byte-for-byte identical
//!    regardless of worker count.
//!
//! Worker count and solver budgets come from [`DischargeConfig`]. The
//! engine itself never reads the process environment; the
//! `DISCHARGE_WORKERS`, `DISCHARGE_CONFLICTS` and
//! `DISCHARGE_BRANCH_BUDGET` variables are applied only through the
//! explicit opt-in layer
//! [`Config::from_env`](crate::api::Config::from_env).

use crate::cache::{self, CacheWarning, GoalKey};
use crate::encode::{encode_formula, encode_rel_formula, EncodeCtx};
use crate::prefilter::Prefilter;
use crate::vcgen::{Vc, VcBody};
use crate::verify::{Report, VcResult};
use relaxed_smt::ast::BTerm;
use relaxed_smt::{Solver, SolverStats, Validity};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tuning knobs for a [`DischargeEngine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DischargeConfig {
    /// Worker threads for parallel discharge; `0` means one per
    /// available core.
    pub workers: usize,
    /// CDCL conflict budget per goal (see [`Solver::max_conflicts`]).
    pub max_conflicts: u64,
    /// Branch-and-bound node budget per theory check (see
    /// [`Solver::branch_budget`]).
    pub branch_budget: u64,
}

impl Default for DischargeConfig {
    fn default() -> Self {
        let defaults = Solver::default();
        DischargeConfig {
            workers: 0,
            max_conflicts: defaults.max_conflicts(),
            branch_budget: defaults.branch_budget(),
        }
    }
}

impl DischargeConfig {
    /// A single-worker (fully sequential) configuration.
    pub fn sequential() -> Self {
        DischargeConfig {
            workers: 1,
            ..DischargeConfig::default()
        }
    }

    /// The default configuration pinned to `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        DischargeConfig {
            workers,
            ..DischargeConfig::default()
        }
    }

    /// The configured worker count with `0` (auto) resolved to the number
    /// of available cores.
    pub fn effective_parallelism(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// The thread count a discharge of `goals` unsolved goals will use.
    fn effective_workers(&self, goals: usize) -> usize {
        self.effective_parallelism().min(goals).max(1)
    }
}

/// Cache and throughput counters for a [`DischargeEngine`] (or, on a
/// [`Report`], for one discharge call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Obligations answered from the verdict cache (including duplicates
    /// deduplicated within a single discharge call).
    pub cache_hits: u64,
    /// Obligations that required a solver run.
    pub cache_misses: u64,
    /// Cache hits whose verdict was first inserted under a different
    /// [`DischargeOptions::owner`] tag. The corpus driver
    /// ([`Verifier::check_corpus`](crate::api::Verifier::check_corpus))
    /// tags each program with its own owner, so this counts verdicts
    /// reused *across programs*; untagged discharge calls all share owner
    /// `0` and report `0` here.
    pub cross_hits: u64,
    /// Cache hits answered by a verdict loaded from the on-disk store
    /// (a subset of `cache_hits`) — the across-run payoff of
    /// [`CachePolicy::Persistent`](crate::api::CachePolicy::Persistent).
    pub disk_hits: u64,
    /// Verdicts loaded from the on-disk store at session start. Always
    /// `0` on per-call (report-level) statistics; engine-level only.
    pub loaded: u64,
    /// Verdicts written by the most recent
    /// [`persist`](DischargeEngine::persist) (explicit or on drop).
    /// Always `0` on per-call statistics; engine-level only.
    pub persisted: u64,
    /// Goals proved by the static prefilter alone — no SAT or simplex
    /// work at all (a subset of `cache_misses`: a static hit still
    /// counts as "solved this call" and publishes to the cache like any
    /// fresh verdict).
    pub static_hits: u64,
    /// Distinct goals seen: cache entries for engine-level stats, goals
    /// newly added to the cache for report-level stats.
    pub unique_goals: u64,
    /// Worker threads: the effective configured parallelism for
    /// engine-level stats, the thread count actually used for
    /// report-level stats (capped by the number of unsolved goals).
    pub workers: usize,
    /// Wall milliseconds spent generating obligations (vcgen), folded
    /// in by the staged pipeline — the engine itself never runs vcgen.
    pub elapsed_vcgen_ms: u64,
    /// Wall milliseconds spent lowering goals to solver terms.
    pub elapsed_encode_ms: u64,
    /// Wall milliseconds spent in solver runs (including prefilter work
    /// that avoided them), summed across worker threads.
    pub elapsed_solve_ms: u64,
    /// Wall milliseconds spent probing, loading, refreshing, and
    /// persisting the verdict cache.
    pub elapsed_cache_ms: u64,
}

impl EngineStats {
    /// Merges `other` into `self`: counters accumulate, `workers` takes
    /// the maximum. Like
    /// [`SolverStats::absorb`](relaxed_smt::SolverStats::absorb), this is
    /// the one place that knows how to fold engine statistics, so callers
    /// aggregating per-stage or per-program counters cannot silently drop
    /// a field.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cross_hits += other.cross_hits;
        self.disk_hits += other.disk_hits;
        self.static_hits += other.static_hits;
        self.loaded += other.loaded;
        self.persisted += other.persisted;
        self.unique_goals += other.unique_goals;
        self.workers = self.workers.max(other.workers);
        self.elapsed_vcgen_ms += other.elapsed_vcgen_ms;
        self.elapsed_encode_ms += other.elapsed_encode_ms;
        self.elapsed_solve_ms += other.elapsed_solve_ms;
        self.elapsed_cache_ms += other.elapsed_cache_ms;
    }
}

/// Per-call overrides for [`DischargeEngine::discharge_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DischargeOptions {
    /// Worker-count override for this call (`Some(0)` = one per core);
    /// `None` uses the engine's configured count. The corpus driver uses
    /// this to run each program's discharge sequentially while fanning
    /// programs out across the pool.
    pub workers: Option<usize>,
    /// Owner tag recorded with every verdict this call inserts into the
    /// cache; hits on verdicts inserted under a *different* tag count as
    /// [`EngineStats::cross_hits`]. `0` is the shared untagged owner.
    pub owner: u64,
}

/// The parallel, deduplicating discharge engine.
///
/// One engine holds one verdict cache; share an engine across stages (as
/// [`Verifier::check`](crate::api::Verifier::check) does) to reuse
/// verdicts between them. The engine is [`Sync`]: `&DischargeEngine` can
/// be shared freely.
#[derive(Debug, Default)]
pub struct DischargeEngine {
    config: DischargeConfig,
    cache: Mutex<HashMap<GoalKey, CachedVerdict>>,
    hits: AtomicU64,
    misses: AtomicU64,
    cross: AtomicU64,
    disk: AtomicU64,
    statics: AtomicU64,
    /// Whether the cache holds verdicts not yet written to the on-disk
    /// store (drop-time persistence skips clean caches; explicit
    /// [`persist`](DischargeEngine::persist) always writes).
    dirty: std::sync::atomic::AtomicBool,
    /// Keys of verdicts solved since the last flush, in insertion order —
    /// the batch [`append_pending`](DischargeEngine::append_pending)
    /// appends to the store. Only populated for persistent engines.
    pending: Mutex<Vec<GoalKey>>,
    store: Option<DiskStore>,
    /// Cumulative phase clocks, in µs (reported in ms via
    /// [`EngineStats`]): vcgen (folded in by the staged pipeline),
    /// goal encoding, solver runs, and cache I/O.
    vcgen_us: AtomicU64,
    encode_us: AtomicU64,
    solve_us: AtomicU64,
    cache_us: AtomicU64,
}

/// The on-disk backing of a persistent engine (see
/// [`DischargeEngine::with_cache_file`]).
#[derive(Debug)]
struct DiskStore {
    path: PathBuf,
    fingerprint: String,
    warnings: Vec<CacheWarning>,
    loaded: AtomicU64,
    persisted: AtomicU64,
    /// The file state this engine has fully merged, recorded from a
    /// `stat` taken **before** the corresponding read — so records a
    /// sibling appends while we read land beyond the recorded length and
    /// are picked up by the next refresh, never silently skipped.
    /// [`DischargeEngine::refresh_from_disk`] uses it to skip unchanged
    /// files (one `stat`) and to parse only the appended tail of grown
    /// ones.
    last_seen: Mutex<Option<FileStamp>>,
    /// Whether the last full load of the current file generation found a
    /// header matching this session's fingerprint — the precondition for
    /// trusting an appended tail without re-checking the header.
    tail_ok: std::sync::atomic::AtomicBool,
}

/// One generation-and-length observation of the store file: `id` is the
/// inode on Unix (`None` where unavailable), so an atomic-rename rewrite
/// — which swaps the inode — is distinguished from append-only growth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FileStamp {
    id: Option<u64>,
    len: u64,
}

impl FileStamp {
    fn of(path: &std::path::Path) -> Option<FileStamp> {
        let meta = std::fs::metadata(path).ok()?;
        #[cfg(unix)]
        let id = {
            use std::os::unix::fs::MetadataExt;
            Some(meta.ino())
        };
        #[cfg(not(unix))]
        let id = None;
        Some(FileStamp {
            id,
            len: meta.len(),
        })
    }

    /// Whether a store observed at `now` can be caught up from `self` by
    /// parsing only the bytes past `self.len`: same (known) file
    /// generation, strictly grown. Anything else — rewrite, shrink,
    /// unknown identity — requires a full fingerprint-checked reload.
    fn tail_of(self, now: FileStamp) -> bool {
        self.id.is_some() && self.id == now.id && now.len > self.len && self.len > 0
    }
}

/// A cached verdict plus the owner tag of the discharge call that first
/// solved it (see [`DischargeOptions::owner`]) and whether it was loaded
/// from the on-disk store.
#[derive(Clone, Debug)]
struct CachedVerdict {
    verdict: Validity,
    owner: u64,
    from_disk: bool,
}

// The engine is shared by reference across its own worker threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<DischargeEngine>();
};

/// Whole microseconds since `started`, saturated into `u64`.
fn elapsed_us(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// RAII phase clock: adds the guarded scope's wall time (µs) to a
/// cumulative counter on drop, so early returns are counted too.
struct PhaseTimer<'a> {
    clock: &'a AtomicU64,
    started: std::time::Instant,
}

fn phase(clock: &AtomicU64) -> PhaseTimer<'_> {
    PhaseTimer {
        clock,
        started: std::time::Instant::now(),
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.clock
            .fetch_add(elapsed_us(self.started), Ordering::Relaxed);
    }
}

impl DischargeEngine {
    /// An engine with default configuration and an empty cache.
    pub fn new() -> Self {
        DischargeEngine::default()
    }

    /// An engine with the given configuration and an empty cache.
    pub fn with_config(config: DischargeConfig) -> Self {
        DischargeEngine {
            config,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cross: AtomicU64::new(0),
            disk: AtomicU64::new(0),
            statics: AtomicU64::new(0),
            dirty: std::sync::atomic::AtomicBool::new(false),
            pending: Mutex::new(Vec::new()),
            store: None,
            vcgen_us: AtomicU64::new(0),
            encode_us: AtomicU64::new(0),
            solve_us: AtomicU64::new(0),
            cache_us: AtomicU64::new(0),
        }
    }

    /// An engine whose verdict cache is backed by the on-disk store at
    /// `path` (see [`crate::cache`] for the file format and invalidation
    /// rules).
    ///
    /// Entries recorded under this configuration's
    /// [fingerprint](crate::cache::fingerprint) are loaded immediately; a
    /// missing file is a clean cold start, and a corrupt or mismatched
    /// file degrades to a cold start with
    /// [`cache_warnings`](DischargeEngine::cache_warnings). The cache is
    /// written back by [`persist`](DischargeEngine::persist) and,
    /// best-effort, when the engine is dropped.
    pub fn with_cache_file(config: DischargeConfig, path: impl Into<PathBuf>) -> Self {
        let started = std::time::Instant::now();
        let mut load_span = crate::telemetry::span("cache", "cache_load");
        let path = path.into();
        let fingerprint = cache::fingerprint(&config);
        // Stat before reading: records appended concurrently with the
        // load land past this stamp and are merged by the next refresh.
        let stamp = FileStamp::of(&path);
        let loaded = cache::load(&path, &fingerprint);
        let entries: HashMap<GoalKey, CachedVerdict> = loaded
            .entries
            .into_iter()
            .map(|(key, verdict)| {
                (
                    key,
                    CachedVerdict {
                        verdict,
                        // Disk entries carry the shared untagged owner, so
                        // an owner-tagged (corpus) hit on one counts as
                        // cross-owner reuse — which it is: the verdict
                        // came from an earlier session.
                        owner: 0,
                        from_disk: true,
                    },
                )
            })
            .collect();
        let mut engine = DischargeEngine::with_config(config);
        engine.store = Some(DiskStore {
            path,
            fingerprint,
            warnings: loaded.warnings,
            loaded: AtomicU64::new(entries.len() as u64),
            persisted: AtomicU64::new(0),
            last_seen: Mutex::new(stamp),
            tail_ok: std::sync::atomic::AtomicBool::new(loaded.compatible),
        });
        load_span.arg(
            "loaded",
            engine
                .store
                .as_ref()
                .map_or(0u64, |s| s.loaded.load(Ordering::Relaxed)),
        );
        engine.cache = Mutex::new(entries);
        engine.cache_us = AtomicU64::new(elapsed_us(started));
        engine
    }

    /// Merges verdicts other processes have persisted to this engine's
    /// on-disk store since it was loaded: entries in the file (under the
    /// session fingerprint) that the in-memory cache does not yet hold
    /// are inserted as disk-backed verdicts. Returns the number of newly
    /// merged entries; `0` for in-memory engines.
    ///
    /// This is the read half of the sharded corpus driver's
    /// cross-process transport ([`crate::shard`]): workers refresh before
    /// each job, picking up their siblings' verdicts as
    /// [`EngineStats::disk_hits`] (the write half is the append-only
    /// [`append_pending`](DischargeEngine::append_pending)). Refreshes
    /// are incremental: the file is `stat`ed first; an unchanged file
    /// costs nothing more, a grown file of the same generation (same
    /// inode, header already validated) has only its appended tail
    /// parsed, and anything else — a compacting rewrite swaps the inode —
    /// triggers a full fingerprint-checked reload. Stamps are taken
    /// *before* reading, so records appended concurrently with a reload
    /// are merged by the next refresh, never silently skipped. File
    /// warnings are ignored here — a torn concurrent append simply
    /// yields fewer mergeable entries; the next refresh catches up.
    pub fn refresh_from_disk(&self) -> u64 {
        let Some(store) = &self.store else {
            return 0;
        };
        let _clock = phase(&self.cache_us);
        let _span = crate::telemetry::span("cache", "cache_refresh");
        let now = FileStamp::of(&store.path);
        let seen = *store.last_seen.lock().expect("store stamp lock");
        let loaded = match (now, seen) {
            (None, None) => return 0, // still no file
            (Some(now), Some(seen)) if now == seen => return 0,
            (Some(now), Some(seen))
                if seen.tail_of(now)
                    && store.tail_ok.load(std::sync::atomic::Ordering::Relaxed) =>
            {
                cache::load_tail(&store.path, seen.len)
            }
            _ => {
                let loaded = cache::load(&store.path, &store.fingerprint);
                store
                    .tail_ok
                    .store(loaded.compatible, std::sync::atomic::Ordering::Relaxed);
                loaded
            }
        };
        *store.last_seen.lock().expect("store stamp lock") = now;
        if loaded.entries.is_empty() {
            return 0;
        }
        let mut merged = 0u64;
        let mut cache = self.cache.lock().expect("cache lock");
        for (key, verdict) in loaded.entries {
            cache.entry(key).or_insert_with(|| {
                merged += 1;
                CachedVerdict {
                    verdict,
                    owner: 0,
                    from_disk: true,
                }
            });
        }
        drop(cache);
        store.loaded.fetch_add(merged, Ordering::Relaxed);
        merged
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DischargeConfig {
        &self.config
    }

    /// The on-disk cache path, when this engine is persistent.
    pub fn cache_path(&self) -> Option<&std::path::Path> {
        self.store.as_ref().map(|s| s.path.as_path())
    }

    /// Non-fatal problems encountered while loading the on-disk store
    /// (empty for in-memory engines and clean loads).
    pub fn cache_warnings(&self) -> &[CacheWarning] {
        self.store.as_ref().map_or(&[], |s| &s.warnings)
    }

    /// Writes the current verdict cache back to the on-disk store:
    /// header plus one record per key, in key order, via an atomic
    /// temp-file rename. Returns the number of entries written — `Ok(0)`
    /// for engines without a store.
    ///
    /// Dropping a persistent engine also persists, best-effort, but only
    /// when the cache gained verdicts since the last load/persist (a
    /// fully warm session costs no drop-time I/O; an I/O failure there
    /// is reported to stderr unless `DISCHARGE_QUIET=1`). An explicit
    /// call always writes.
    pub fn persist(&self) -> std::io::Result<u64> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let _clock = phase(&self.cache_us);
        let _span = crate::telemetry::span("cache", "cache_persist");
        // Snapshot under the lock, write without it: the rendering, the
        // file write, and the fsync must not stall concurrent discharge
        // threads waiting on cache lookups. The dirty flag is cleared
        // *inside* the lock, before the snapshot — a verdict inserted
        // concurrently with the file I/O re-dirties the cache and is
        // picked up by the next (or drop-time) persist instead of being
        // silently marked clean.
        let mut snapshot: Vec<(GoalKey, Validity)> = {
            let cache = self.cache.lock().expect("cache lock");
            self.dirty
                .store(false, std::sync::atomic::Ordering::Relaxed);
            cache
                .iter()
                .map(|(key, slot)| (key.clone(), slot.verdict.clone()))
                .collect()
        };
        // Key order keeps the file deterministic for a given cache.
        snapshot.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // The rewrite covers every pending verdict, so the append batch
        // is settled too (cleared before the write under the same
        // reasoning as the dirty flag: a failure re-instates retry via
        // `dirty`, and duplicated appends are harmless later-wins
        // records).
        self.pending.lock().expect("pending lock").clear();
        let written = cache::persist(
            &store.path,
            &store.fingerprint,
            snapshot.iter().map(|(key, verdict)| (key, verdict)),
        )
        .inspect_err(|_| {
            // The snapshot never reached disk; leave the cache dirty so
            // a later persist retries.
            self.dirty.store(true, std::sync::atomic::Ordering::Relaxed);
        })?;
        // The rewrite replaced the file generation; a sibling may already
        // have appended to either generation. Clearing the stamp makes
        // the next refresh a full (cheap-to-reason-about) reload.
        *store.last_seen.lock().expect("store stamp lock") = None;
        store.persisted.store(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Appends the verdicts solved since the last flush to the on-disk
    /// store, without rewriting it — the write half of the sharded corpus
    /// driver's cross-process transport. Unlike
    /// [`persist`](DischargeEngine::persist) (a whole-file rewrite whose
    /// concurrent last-writer-wins race can drop entries a sibling
    /// process just published), an append can never lose another
    /// writer's records: duplicate keys are resolved later-wins at load
    /// time. Returns the number of entries appended — `Ok(0)` for
    /// engines without a store or with nothing new.
    ///
    /// Appenders only grow the file; a later
    /// [`persist`](DischargeEngine::persist) rewrites it with one record
    /// per key.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error; the batch is retained
    /// for the next flush attempt.
    pub fn append_pending(&self) -> std::io::Result<u64> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let _clock = phase(&self.cache_us);
        let _span = crate::telemetry::span("cache", "cache_append");
        let batch: Vec<GoalKey> = std::mem::take(&mut *self.pending.lock().expect("pending lock"));
        if batch.is_empty() {
            return Ok(0);
        }
        let entries: Vec<(GoalKey, Validity)> = {
            let cache = self.cache.lock().expect("cache lock");
            batch
                .iter()
                .filter_map(|key| {
                    cache
                        .get(key)
                        .map(|slot| (key.clone(), slot.verdict.clone()))
                })
                .collect()
        };
        let appended = cache::append(
            &store.path,
            &store.fingerprint,
            entries.iter().map(|(key, verdict)| (key, verdict)),
        )
        .inspect_err(|_| {
            // Nothing reached disk; put the batch back for a retry (the
            // dirty flag already guarantees a drop-time rewrite as the
            // last resort).
            let mut pending = self.pending.lock().expect("pending lock");
            let mut retained = batch.clone();
            retained.extend(pending.drain(..));
            *pending = retained;
        })?;
        // Deliberately no stamp update: the next refresh tail-parses from
        // the last *read* position — re-scanning our own appended records
        // is cheap (merge no-ops), whereas stamping here could mask a
        // sibling's append that landed between our write and the stat.
        // Everything the cache gained since the last flush is now on
        // disk; a clean engine skips the drop-time rewrite.
        if self.pending.lock().expect("pending lock").is_empty() {
            self.dirty
                .store(false, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(appended)
    }

    /// Cumulative statistics across every discharge call so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cross_hits: self.cross.load(Ordering::Relaxed),
            disk_hits: self.disk.load(Ordering::Relaxed),
            static_hits: self.statics.load(Ordering::Relaxed),
            loaded: self
                .store
                .as_ref()
                .map_or(0, |s| s.loaded.load(Ordering::Relaxed)),
            persisted: self
                .store
                .as_ref()
                .map_or(0, |s| s.persisted.load(Ordering::Relaxed)),
            unique_goals: self.cache.lock().expect("cache lock").len() as u64,
            workers: self.config.effective_parallelism(),
            elapsed_vcgen_ms: self.vcgen_us.load(Ordering::Relaxed) / 1000,
            elapsed_encode_ms: self.encode_us.load(Ordering::Relaxed) / 1000,
            elapsed_solve_ms: self.solve_us.load(Ordering::Relaxed) / 1000,
            elapsed_cache_ms: self.cache_us.load(Ordering::Relaxed) / 1000,
        }
    }

    /// Folds vcgen wall time into the engine's phase clocks — called by
    /// the staged pipeline ([`crate::verify`]), which runs vcgen before
    /// handing the obligations to the engine.
    pub(crate) fn note_vcgen_us(&self, us: u64) {
        self.vcgen_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Replays a set of goals from the verdict cache without encoding or
    /// solving anything: all-or-none under one cache lock. Returns the
    /// verdicts in `keys` order iff *every* key is resident; a single
    /// miss returns `None` and leaves the counters untouched, so callers
    /// fall back to a full [`discharge`](DischargeEngine::discharge).
    ///
    /// This is the incremental re-verification fast path (see
    /// [`crate::depmap`]): a program none of whose goal keys changed is
    /// re-verified by replaying its stored keys. Each replayed goal
    /// counts as a cache hit (and a disk hit when the resident verdict
    /// was loaded from the store), keeping the stats truthful about
    /// where the verdicts came from.
    pub(crate) fn replay(&self, keys: &[GoalKey]) -> Option<(Vec<Validity>, u64)> {
        let cache = self.cache.lock().expect("cache lock");
        let mut verdicts = Vec::with_capacity(keys.len());
        let mut disk = 0u64;
        for key in keys {
            // A miss anywhere returns before any counter moves.
            let slot = cache.get(key)?;
            if slot.from_disk {
                disk += 1;
            }
            verdicts.push(slot.verdict.clone());
        }
        self.hits.fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.disk.fetch_add(disk, Ordering::Relaxed);
        Some((verdicts, disk))
    }

    /// Discharges `vcs`, reusing cached verdicts and solving the rest in
    /// parallel. Results are reported in generation order with per-VC
    /// solver statistics; the aggregate [`Report::stats`] counts only the
    /// solver work actually performed by this call.
    pub fn discharge(&self, vcs: Vec<Vc>) -> Report {
        self.discharge_with(vcs, DischargeOptions::default())
    }

    /// [`discharge`](DischargeEngine::discharge) with per-call overrides:
    /// a worker-count override and an owner tag for cross-owner hit
    /// accounting (see [`DischargeOptions`]).
    pub fn discharge_with(&self, vcs: Vec<Vc>, opts: DischargeOptions) -> Report {
        let mut call_span = crate::telemetry::span("engine", "discharge");
        call_span.arg("vcs", vcs.len());
        let encode_started = std::time::Instant::now();
        let mut encode_span = crate::telemetry::span("engine", "encode");
        // Encode with a fresh context per VC: bound-variable numbering
        // restarts per goal, so the encoded BTerm is a canonical key.
        let goals: Vec<BTerm> = vcs.iter().map(encode_goal).collect();

        // Group structurally identical goals, preserving first-occurrence
        // order.
        let mut uniq: HashMap<&BTerm, usize> = HashMap::new();
        let mut unique_goals: Vec<&BTerm> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(goals.len());
        for goal in &goals {
            let next = unique_goals.len();
            let gi = *uniq.entry(goal).or_insert(next);
            if gi == next {
                unique_goals.push(goal);
            }
            group_of.push(gi);
        }

        // Resolve each unique goal from the cross-call cache, or queue it.
        // The rendered key doubles as the on-disk identity, so one
        // rendering per unique goal serves both the in-memory map and the
        // persistent store.
        let keys: Vec<GoalKey> = unique_goals.iter().map(|goal| GoalKey::of(goal)).collect();
        encode_span.arg("unique_goals", unique_goals.len());
        drop(encode_span);
        let call_encode_us = elapsed_us(encode_started);
        self.encode_us.fetch_add(call_encode_us, Ordering::Relaxed);

        let cache_started = std::time::Instant::now();
        let mut probe_span = crate::telemetry::span("engine", "cache_probe");
        let mut verdicts: Vec<Option<Validity>> = vec![None; unique_goals.len()];
        let mut from_cache: Vec<bool> = vec![false; unique_goals.len()];
        let mut cross_owner: Vec<bool> = vec![false; unique_goals.len()];
        let mut from_disk: Vec<bool> = vec![false; unique_goals.len()];
        let mut work: Vec<usize> = Vec::new();
        {
            let cache = self.cache.lock().expect("cache lock");
            for (gi, key) in keys.iter().enumerate() {
                if let Some(slot) = cache.get(key) {
                    verdicts[gi] = Some(slot.verdict.clone());
                    from_cache[gi] = true;
                    cross_owner[gi] = slot.owner != opts.owner;
                    from_disk[gi] = slot.from_disk;
                } else {
                    work.push(gi);
                }
            }
        }
        probe_span.arg("hits", unique_goals.len() - work.len());
        probe_span.arg("misses", work.len());
        drop(probe_span);
        let mut call_cache_us = elapsed_us(cache_started);

        let solve_started = std::time::Instant::now();
        // Static prefilter: before any solver is built, an interval /
        // constant-propagation evaluation over the interned goal DAG
        // discharges trivially-valid goals — tautologies, conclusions
        // that are conjuncts of their hypothesis, bound-implied
        // comparisons, contradictory hypotheses — with zero SAT/simplex
        // work. A statically proved goal enters `solved` with zeroed
        // solver statistics and flows through verdict publication and
        // reassembly exactly like a solver-proved one (so it counts as a
        // cache miss with a `static_hits` marker, and its verdict lands
        // in the cache under the same key).
        let mut solved: Vec<(usize, Validity, SolverStats)> = Vec::new();
        if !work.is_empty() {
            let mut prefilter_span = crate::telemetry::span("engine", "prefilter");
            let mut pre = Prefilter::new();
            work.retain(|&gi| {
                let proved = pre.proves(unique_goals[gi]);
                if proved {
                    solved.push((gi, Validity::Valid, SolverStats::default()));
                }
                !proved
            });
            self.statics
                .fetch_add(solved.len() as u64, Ordering::Relaxed);
            prefilter_span.arg("static_hits", solved.len());
        }
        let call_statics = solved.len() as u64;

        // Solve every remaining goal on its own fresh solver on the
        // worker pool. Each goal's verdict and statistics depend on the
        // goal alone, so they are deterministic regardless of worker
        // count.
        let workers = match opts.workers {
            Some(w) => DischargeConfig {
                workers: w,
                ..self.config.clone()
            }
            .effective_workers(work.len()),
            None => self.config.effective_workers(work.len()),
        };
        // Solve-span labels: the goal's cache key, bounded so one huge
        // formula cannot bloat the trace.
        let goal_label = |gi: usize| -> String {
            let key = keys[gi].render();
            if key.len() > 96 {
                key.chars().take(96).collect()
            } else {
                key
            }
        };
        let solve_fresh = |gi: usize| {
            let mut span = crate::telemetry::span("engine", "solve");
            if span.is_active() {
                span.arg("goal", goal_label(gi));
            }
            let mut solver =
                Solver::with_budgets(self.config.max_conflicts, self.config.branch_budget);
            let verdict = {
                let _check = crate::telemetry::span("solver", "check");
                solver.check_valid(unique_goals[gi])
            };
            let stats = solver.stats();
            if span.is_active() {
                span.arg("decisions", stats.sat.decisions);
                span.arg("propagations", stats.sat.propagations);
                span.arg("conflicts", stats.sat.conflicts);
                span.arg("theory_checks", stats.sat.theory_checks);
                span.arg("pivots", stats.pivots);
                span.arg("branch_nodes", stats.branch_nodes);
                span.arg("restarts", stats.sat.restarts);
            }
            (gi, verdict, stats)
        };
        solved.extend(fan_out(&work, workers, |&gi| solve_fresh(gi)));
        solved.sort_unstable_by_key(|(gi, _, _)| *gi);
        let call_solve_us = elapsed_us(solve_started);
        self.solve_us.fetch_add(call_solve_us, Ordering::Relaxed);

        // Publish the new verdicts to the cross-call cache under this
        // call's owner tag.
        let publish_started = std::time::Instant::now();
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (gi, verdict, _) in &solved {
                cache.insert(
                    keys[*gi].clone(),
                    CachedVerdict {
                        verdict: verdict.clone(),
                        owner: opts.owner,
                        from_disk: false,
                    },
                );
            }
            if !solved.is_empty() {
                // Pending before dirty: a concurrent `append_pending`
                // clears `dirty` only when it observes an empty batch,
                // so the batch must be visible first.
                if self.store.is_some() {
                    self.pending
                        .lock()
                        .expect("pending lock")
                        .extend(solved.iter().map(|(gi, _, _)| keys[*gi].clone()));
                }
                self.dirty.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        call_cache_us += elapsed_us(publish_started);
        self.cache_us.fetch_add(call_cache_us, Ordering::Relaxed);
        let mut solved_stats: Vec<Option<SolverStats>> = vec![None; unique_goals.len()];
        for (gi, verdict, stats) in solved {
            verdicts[gi] = Some(verdict);
            solved_stats[gi] = Some(stats);
        }

        // Reassemble in generation order. The solver statistics of each
        // freshly solved goal are attached to its first occurrence; later
        // duplicates and cache hits carry zeroed stats and `cached: true`.
        let total = vcs.len() as u64;
        let mut report = Report::default();
        let mut first_seen: Vec<bool> = vec![false; unique_goals.len()];
        let mut call_cross = 0u64;
        let mut call_disk = 0u64;
        for (vc, gi) in vcs.into_iter().zip(&group_of) {
            let verdict = verdicts[*gi].clone().expect("every goal resolved");
            let fresh = !first_seen[*gi] && !from_cache[*gi];
            first_seen[*gi] = true;
            if !fresh && cross_owner[*gi] {
                call_cross += 1;
            }
            if !fresh && from_disk[*gi] {
                call_disk += 1;
            }
            let stats = if fresh {
                solved_stats[*gi].expect("solved goal has stats")
            } else {
                SolverStats::default()
            };
            if fresh {
                report.stats.absorb(&stats);
            }
            report.results.push(VcResult {
                vc,
                verdict,
                stats,
                cached: !fresh,
            });
        }

        let call_misses = solved_stats.iter().flatten().count() as u64;
        let call_hits = total - call_misses;
        self.hits.fetch_add(call_hits, Ordering::Relaxed);
        self.misses.fetch_add(call_misses, Ordering::Relaxed);
        self.cross.fetch_add(call_cross, Ordering::Relaxed);
        self.disk.fetch_add(call_disk, Ordering::Relaxed);
        report.engine = EngineStats {
            cache_hits: call_hits,
            cache_misses: call_misses,
            cross_hits: call_cross,
            disk_hits: call_disk,
            static_hits: call_statics,
            loaded: 0,
            persisted: 0,
            unique_goals: call_misses,
            workers,
            // Vcgen happens upstream of the engine; the staged pipeline
            // fills this in on the stage report.
            elapsed_vcgen_ms: 0,
            elapsed_encode_ms: call_encode_us / 1000,
            elapsed_solve_ms: call_solve_us / 1000,
            elapsed_cache_ms: call_cache_us / 1000,
        };
        call_span.arg("solved", call_misses);
        drop(call_span);
        report
    }
}

impl Drop for DischargeEngine {
    fn drop(&mut self) {
        // Skip the rewrite when nothing changed since the last
        // load/persist: a fully warm session (or one already flushed
        // explicitly) costs no drop-time I/O.
        if !self.dirty.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        if let Some(path) = self.cache_path().map(std::path::Path::to_path_buf) {
            if let Err(e) = self.persist() {
                crate::diag::warn(format_args!(
                    "failed to persist verdict cache {}: {e}",
                    path.display()
                ));
            }
        }
    }
}

/// Maps `f` over `items` on up to `threads` scoped threads and returns
/// the results in item order — the one work-claiming pool behind goal
/// discharge and the corpus drivers. Each lane claims the next unclaimed
/// item until none is left, so one slow item never idles the other
/// lanes. With one thread or none (or at most one item), everything runs
/// on the caller's thread.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let lanes = threads.min(items.len());
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    // Scoped threads signal completion before their
                    // thread-local destructors run: flush this lane's
                    // spans before the scope joins, not after.
                    crate::telemetry::drain_thread();
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|lane| lane.join().expect("fan-out lane"))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Encodes one obligation with a fresh bound-name context, yielding the
/// goal term the engine deduplicates, prefilters, and solves (and whose
/// canonical rendering is its cache key). Public so external tooling —
/// per-layer profilers, prefilter soundness checks — can work on the
/// very goals the engine sees.
pub fn encode_goal(vc: &Vc) -> BTerm {
    let mut ctx = EncodeCtx::new();
    match &vc.body {
        VcBody::Unary(p) => encode_formula(p, &mut ctx),
        VcBody::Rel(p) => encode_rel_formula(p, &mut ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcgen::Vc;
    use relaxed_lang::parse_formula;

    fn unary_vc(name: &str, source: &str) -> Vc {
        Vc {
            name: name.to_string(),
            context: "test".to_string(),
            body: VcBody::Unary(parse_formula(source).unwrap()),
            deps: Vec::new(),
        }
    }

    #[test]
    fn duplicate_goals_are_solved_once() {
        let engine = DischargeEngine::with_config(DischargeConfig::sequential());
        let vcs = vec![
            unary_vc("a", "x <= x"),
            unary_vc("b", "x <= x"),
            unary_vc("c", "x <= x + 1"),
        ];
        let report = engine.discharge(vcs);
        assert!(report.verified());
        assert_eq!(report.engine.unique_goals, 2);
        assert_eq!(report.engine.cache_misses, 2);
        assert_eq!(report.engine.cache_hits, 1);
        assert!(!report.results[0].cached);
        assert!(report.results[1].cached);
        assert_eq!(report.results[1].stats, SolverStats::default());
    }

    #[test]
    fn cache_persists_across_discharge_calls() {
        let engine = DischargeEngine::with_config(DischargeConfig::sequential());
        let vc = || unary_vc("a", "x + 1 >= x");
        let first = engine.discharge(vec![vc()]);
        assert_eq!(first.engine.cache_hits, 0);
        let second = engine.discharge(vec![vc()]);
        assert_eq!(second.engine.cache_hits, 1);
        assert_eq!(second.engine.cache_misses, 0);
        assert!(second.results[0].cached);
        assert_eq!(second.results[0].verdict, first.results[0].verdict);
        let totals = engine.stats();
        assert_eq!(totals.cache_hits, 1);
        assert_eq!(totals.cache_misses, 1);
        assert_eq!(totals.unique_goals, 1);
    }

    #[test]
    fn parallel_and_sequential_reports_agree() {
        let vcs: Vec<Vc> = (0..12)
            .map(|i| {
                // A mix of valid and invalid goals with some duplicates.
                let f = match i % 3 {
                    0 => format!("x + {i} >= x"),
                    1 => format!("x >= {i}"),
                    _ => "y <= y".to_string(),
                };
                unary_vc(&format!("vc{i}"), &f)
            })
            .collect();
        let seq =
            DischargeEngine::with_config(DischargeConfig::sequential()).discharge(vcs.clone());
        let par = DischargeEngine::with_config(DischargeConfig::with_workers(4)).discharge(vcs);
        assert_eq!(seq.results.len(), par.results.len());
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.verdict, b.verdict, "verdict mismatch on {}", a.vc);
            assert_eq!(a.cached, b.cached);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.engine.cache_hits, par.engine.cache_hits);
        assert_eq!(seq.engine.unique_goals, par.engine.unique_goals);
    }

    #[test]
    fn aggregate_stats_equal_per_vc_fold() {
        let vcs = vec![
            unary_vc("a", "x <= x"),
            unary_vc("b", "x >= 5"),
            unary_vc("c", "x <= x"),
        ];
        let report = DischargeEngine::with_config(DischargeConfig::sequential()).discharge(vcs);
        let mut folded = SolverStats::default();
        for r in &report.results {
            folded.absorb(&r.stats);
        }
        assert_eq!(report.stats, folded);
        // `x <= x` is statically proved (zero solver queries); `x >= 5`
        // still reaches the solver.
        assert!(report.stats.queries >= 1);
        assert_eq!(report.engine.static_hits, 1);
        assert!(report.results[0].verdict.is_valid());
        assert_eq!(report.results[0].stats, SolverStats::default());
    }

    #[test]
    fn fan_out_keeps_item_order() {
        let items: Vec<u64> = (0..7).collect();
        let squares: Vec<u64> = items.iter().map(|n| n * n).collect();
        for threads in [0, 1, 3, 16] {
            assert_eq!(fan_out(&items, threads, |n| n * n), squares, "{threads}");
        }
        assert!(fan_out(&[] as &[u64], 3, |n| *n).is_empty());
    }

    #[test]
    fn empty_vc_list_discharges_cleanly() {
        let report = DischargeEngine::new().discharge(Vec::new());
        assert!(report.is_empty());
        assert!(report.verified());
        assert_eq!(report.engine.unique_goals, 0);
    }

    #[test]
    fn persist_writes_one_record_per_key() {
        let path = std::env::temp_dir().join(format!(
            "relaxed-engine-persist-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let engine = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        engine.discharge(vec![unary_vc("a", "x <= x"), unary_vc("b", "x <= x + 1")]);
        engine.discharge(vec![unary_vc("a", "x <= x")]);
        assert_eq!(engine.persist().unwrap(), 2);
        drop(engine);
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<&str> = text.lines().skip(1).collect();
        let mut sorted = records.clone();
        sorted.sort_unstable();
        assert_eq!(records, sorted, "records are written in key order");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refresh_from_disk_merges_concurrent_writers() {
        let path = std::env::temp_dir().join(format!(
            "relaxed-engine-refresh-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // Session A starts against an empty store.
        let a = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        assert_eq!(a.refresh_from_disk(), 0, "nothing to merge yet");
        // Session B (a sibling process in shard terms) persists a verdict.
        let b = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        b.discharge(vec![unary_vc("g", "y + 1 >= y")]);
        b.persist().unwrap();
        // A merges it and answers the goal with zero solver work, as a
        // disk hit.
        assert_eq!(a.refresh_from_disk(), 1);
        assert_eq!(a.refresh_from_disk(), 0, "idempotent once merged");
        let report = a.discharge(vec![unary_vc("g", "y + 1 >= y")]);
        assert_eq!(report.engine.cache_misses, 0);
        assert_eq!(report.engine.disk_hits, 1);
        assert_eq!(a.stats().loaded, 1);
        assert_eq!(
            DischargeEngine::new().refresh_from_disk(),
            0,
            "in-memory engines have nothing to refresh"
        );
        drop(a);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_pending_publishes_increments_without_rewrites() {
        let path = std::env::temp_dir().join(format!(
            "relaxed-engine-append-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // Two engines on one store, as two shard workers would be. Each
        // appends only its own fresh verdicts; neither flush can drop the
        // other's, even though neither ever reloaded the file.
        let a = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        let b = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        a.discharge(vec![unary_vc("a", "x <= x")]);
        assert_eq!(a.append_pending().unwrap(), 1);
        assert_eq!(a.append_pending().unwrap(), 0, "batch drains");
        b.discharge(vec![unary_vc("b", "y <= y + 1")]);
        assert_eq!(b.append_pending().unwrap(), 1);
        drop(a);
        drop(b);
        let merged = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        assert_eq!(merged.stats().loaded, 2, "union of both writers");
        let report = merged.discharge(vec![unary_vc("a", "x <= x"), unary_vc("b", "y <= y + 1")]);
        assert_eq!(report.engine.cache_misses, 0);
        assert_eq!(report.engine.disk_hits, 2);
        assert_eq!(
            DischargeEngine::new().append_pending().unwrap(),
            0,
            "in-memory engines have nothing to append"
        );
        drop(merged);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clean_appended_engine_skips_drop_rewrite() {
        let path = std::env::temp_dir().join(format!(
            "relaxed-engine-append-clean-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let engine = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        engine.discharge(vec![unary_vc("a", "x <= x")]);
        engine.append_pending().unwrap();
        let flushed_at = std::fs::metadata(&path).unwrap().modified().unwrap();
        let flushed_len = std::fs::metadata(&path).unwrap().len();
        drop(engine); // everything already on disk: no drop-time rewrite
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(meta.len(), flushed_len);
        assert_eq!(meta.modified().unwrap(), flushed_at);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refresh_skips_unchanged_files() {
        let path = std::env::temp_dir().join(format!(
            "relaxed-engine-refresh-guard-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let a = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        // Missing file: polling costs a stat, merges nothing.
        assert_eq!(a.refresh_from_disk(), 0);
        let b = DischargeEngine::with_cache_file(DischargeConfig::sequential(), path.clone());
        b.discharge(vec![unary_vc("g", "z >= z")]);
        b.append_pending().unwrap();
        assert_eq!(a.refresh_from_disk(), 1, "file changed: reload and merge");
        assert_eq!(a.refresh_from_disk(), 0, "file unchanged: stat-only skip");
        drop(a);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_injection_reaches_the_solver() {
        // This goal is invalid (x=10, y=11, z=0 gives a sum of 21): under
        // starvation budgets the solver may answer Invalid or give up with
        // Unknown, but a budget-starved engine must never claim Valid.
        let config = DischargeConfig {
            workers: 1,
            max_conflicts: 1,
            branch_budget: 1,
        };
        let engine = DischargeEngine::with_config(config);
        assert_eq!(engine.config().max_conflicts, 1);
        let vcs = vec![unary_vc(
            "hard",
            "(x <= 0 || x >= 10) && (y <= 0 || y >= 10) && (z <= 0 || z >= 10)
             ==> x + y + z >= 30 || x + y + z <= 20",
        )];
        let report = engine.discharge(vcs);
        assert!(!report.results[0].verdict.is_valid());
    }
}
