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
//! Every call reports its own [`EngineStats`] on its [`Report`], with
//! phase clocks in microseconds. The engine keeps no second set of
//! counters: its lifetime [`stats`](DischargeEngine::stats) are the fold
//! of every per-call stat it produced, plus the store I/O its session
//! tallied into it, so they equal the sum of the reports a session
//! returned plus that I/O.
//!
//! The engine lives in memory only: it never opens, reads or writes a
//! file. A [`CachePolicy::Persistent`](crate::api::CachePolicy::Persistent)
//! session owns the verdict store and its depmap sidecar, merges the
//! verdicts it reads into the engine's cache as disk-backed, and flushes
//! the batch of verdicts the engine solved since the last flush.
//!
//! Worker count and solver budgets come from [`DischargeConfig`]. The
//! engine itself never reads the process environment; the
//! `DISCHARGE_WORKERS`, `DISCHARGE_CONFLICTS` and
//! `DISCHARGE_BRANCH_BUDGET` variables are applied only through the
//! explicit opt-in layer
//! [`Config::from_env`](crate::api::Config::from_env).

use crate::cache::GoalKey;
use crate::encode::{encode_formula, encode_rel_formula, EncodeCtx};
use crate::prefilter::Prefilter;
use crate::vcgen::{Vc, VcBody};
use crate::verify::{Report, VcResult};
use relaxed_smt::ast::BTerm;
use relaxed_smt::{Solver, SolverStats, Validity};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Cache and throughput counters for one discharge call (on a
/// [`Report`]), or folded over many: a stage, a program, a corpus run,
/// or a whole engine's lifetime ([`DischargeEngine::stats`]).
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
    /// Verdicts merged from the on-disk store: by a persistent session's
    /// build, and by every later read of a store that changed (fleet
    /// workers read before each job). Always `0` on per-call
    /// (report-level) statistics; engine-level only.
    pub loaded: u64,
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
    /// Wall microseconds spent generating obligations (vcgen), added by
    /// the staged pipeline — the engine itself never runs vcgen.
    pub elapsed_vcgen_us: u64,
    /// Wall microseconds spent lowering goals to solver terms.
    pub elapsed_encode_us: u64,
    /// Wall microseconds spent in solver runs (including prefilter work
    /// that avoided them), summed across worker threads.
    pub elapsed_solve_us: u64,
    /// Wall microseconds spent probing, loading, refreshing, and
    /// persisting the verdict cache.
    pub elapsed_cache_us: u64,
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
        self.unique_goals += other.unique_goals;
        self.workers = self.workers.max(other.workers);
        self.elapsed_vcgen_us += other.elapsed_vcgen_us;
        self.elapsed_encode_us += other.elapsed_encode_us;
        self.elapsed_solve_us += other.elapsed_solve_us;
        self.elapsed_cache_us += other.elapsed_cache_us;
    }

    /// The nine per-call counters with their names, in one fixed order:
    /// the one list the result frame and the `discharge` span render.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cross_hits", self.cross_hits),
            ("disk_hits", self.disk_hits),
            ("static_hits", self.static_hits),
            ("vcgen_us", self.elapsed_vcgen_us),
            ("encode_us", self.elapsed_encode_us),
            ("solve_us", self.elapsed_solve_us),
            ("cache_us", self.elapsed_cache_us),
        ]
    }

    /// The inverse of [`counters`](EngineStats::counters): the stats whose
    /// counter `name` is `value(name)`, every other field zero, or the
    /// first error `value` returns.
    pub fn from_counters<E>(mut value: impl FnMut(&str) -> Result<u64, E>) -> Result<Self, E> {
        Ok(EngineStats {
            cache_hits: value("cache_hits")?,
            cache_misses: value("cache_misses")?,
            cross_hits: value("cross_hits")?,
            disk_hits: value("disk_hits")?,
            static_hits: value("static_hits")?,
            elapsed_vcgen_us: value("vcgen_us")?,
            elapsed_encode_us: value("encode_us")?,
            elapsed_solve_us: value("solve_us")?,
            elapsed_cache_us: value("cache_us")?,
            ..EngineStats::default()
        })
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
    /// The fold of every per-call [`EngineStats`] this engine produced,
    /// plus the store I/O its session tallied: what
    /// [`stats`](DischargeEngine::stats) reads. `tally` is the only way
    /// in.
    totals: Mutex<EngineStats>,
    /// Verdicts solved since the last flush, in insertion order: the
    /// batch a persistent session's flush writes. `None` unless the
    /// session is persistent.
    pending: Option<Mutex<Vec<(GoalKey, Validity)>>>,
}

/// A cached verdict plus the owner tag of the discharge call that first
/// solved it (see [`DischargeOptions::owner`]) and whether its session
/// read it from the on-disk store.
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
pub(crate) fn elapsed_us(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
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
            cache: Mutex::default(),
            totals: Mutex::default(),
            pending: None,
        }
    }

    /// An engine that also keeps the batch of verdicts it solved since
    /// the last [`take_batch`](DischargeEngine::take_batch): the engine of
    /// a persistent session, whose flush writes that batch.
    pub(crate) fn keeping_batch(config: DischargeConfig) -> Self {
        DischargeEngine {
            pending: Some(Mutex::default()),
            ..DischargeEngine::with_config(config)
        }
    }

    /// Merges verdicts read from the on-disk store: each key the cache
    /// lacks is inserted as a disk-backed verdict. Returns the number
    /// merged.
    pub(crate) fn merge_from_disk(&self, entries: HashMap<GoalKey, Validity>) -> u64 {
        let mut merged = 0u64;
        let mut cache = self.cache.lock().expect("cache lock");
        for (key, verdict) in entries {
            cache.entry(key).or_insert_with(|| {
                merged += 1;
                CachedVerdict {
                    verdict,
                    // Disk entries carry the shared untagged owner, so an
                    // owner-tagged (corpus) hit on one counts as
                    // cross-owner reuse — which it is: the verdict came
                    // from another session.
                    owner: 0,
                    from_disk: true,
                }
            });
        }
        merged
    }

    /// Takes the batch of verdicts solved since the last take, in
    /// insertion order (always empty for an engine that keeps none).
    pub(crate) fn take_batch(&self) -> Vec<(GoalKey, Validity)> {
        self.pending.as_ref().map_or_else(Vec::new, |pending| {
            std::mem::take(&mut *pending.lock().expect("pending lock"))
        })
    }

    /// Puts back a batch whose flush failed, ahead of anything solved
    /// since, for the next flush.
    pub(crate) fn restore_batch(&self, batch: Vec<(GoalKey, Validity)>) {
        if let Some(pending) = &self.pending {
            pending.lock().expect("pending lock").splice(0..0, batch);
        }
    }

    /// Every cached verdict, for a whole write of the store. The copy is
    /// taken under the cache lock and written without it, so rendering,
    /// the write and the fsync never stall discharge threads.
    pub(crate) fn snapshot(&self) -> Vec<(GoalKey, Validity)> {
        let cache = self.cache.lock().expect("cache lock");
        cache
            .iter()
            .map(|(key, slot)| (key.clone(), slot.verdict.clone()))
            .collect()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DischargeConfig {
        &self.config
    }

    /// Cumulative statistics: the fold of every per-call [`EngineStats`]
    /// (a program that errors in a later stage adds its earlier stages
    /// but returns no report) plus the store I/O a persistent session
    /// tallied, with two gauges: `unique_goals`, the cache size, and
    /// `workers`, the parallelism.
    pub fn stats(&self) -> EngineStats {
        let unique_goals = self.cache.lock().expect("cache lock").len() as u64;
        EngineStats {
            unique_goals,
            workers: self.config.effective_parallelism(),
            ..*self.totals.lock().expect("engine totals lock")
        }
    }

    /// Folds one call's statistics, or one store read or flush, into the
    /// engine's lifetime totals: the only way into them. Never called
    /// under the cache lock.
    pub(crate) fn tally(&self, stats: &EngineStats) {
        self.totals
            .lock()
            .expect("engine totals lock")
            .absorb(stats);
    }

    /// Replays a set of goals from the verdict cache without encoding or
    /// solving anything: all-or-none under one cache lock. The keys are
    /// borrowed from the caller's stored record, so a replay copies none.
    /// Returns the verdicts in `keys` order iff *every* key is resident; a
    /// single miss returns `None` and tallies nothing, so callers fall back
    /// to a full [`discharge`](DischargeEngine::discharge).
    ///
    /// This is the incremental re-verification fast path (see
    /// [`crate::depmap`]): a program none of whose goal keys changed is
    /// re-verified by replaying its stored keys. Each replayed goal
    /// counts as a cache hit (and a disk hit when the resident verdict
    /// was loaded from the store), keeping the stats truthful about
    /// where the verdicts came from; the call's statistics come back
    /// with the verdicts and are tallied like a discharge call's.
    pub(crate) fn replay<'k, I: ExactSizeIterator<Item = &'k GoalKey>>(
        &self,
        keys: I,
    ) -> Option<(Vec<Validity>, EngineStats)> {
        let started = std::time::Instant::now();
        let cache = self.cache.lock().expect("cache lock");
        let mut verdicts = Vec::with_capacity(keys.len());
        let mut disk = 0u64;
        for key in keys {
            // A miss anywhere returns before anything is tallied.
            let slot = cache.get(key)?;
            if slot.from_disk {
                disk += 1;
            }
            verdicts.push(slot.verdict.clone());
        }
        drop(cache);
        let stats = EngineStats {
            cache_hits: verdicts.len() as u64,
            disk_hits: disk,
            elapsed_cache_us: elapsed_us(started),
            ..EngineStats::default()
        };
        self.tally(&stats);
        Some((verdicts, stats))
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
        let encode_started = std::time::Instant::now();
        let encode_span = crate::telemetry::span("engine", "encode");
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
        drop(encode_span);
        let call_encode_us = elapsed_us(encode_started);

        let cache_started = std::time::Instant::now();
        let probe_span = crate::telemetry::span("engine", "cache_probe");
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
            let _prefilter_span = crate::telemetry::span("engine", "prefilter");
            let mut pre = Prefilter::new();
            work.retain(|&gi| {
                let proved = pre.proves(unique_goals[gi]);
                if proved {
                    solved.push((gi, Validity::Valid, SolverStats::default()));
                }
                !proved
            });
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
                for (name, value) in stats.counters() {
                    span.arg(name, value);
                }
            }
            (gi, verdict, stats)
        };
        solved.extend(fan_out(&work, workers, |&gi| solve_fresh(gi)));
        solved.sort_unstable_by_key(|(gi, _, _)| *gi);
        let call_solve_us = elapsed_us(solve_started);

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
            if let Some(pending) = &self.pending {
                pending.lock().expect("pending lock").extend(
                    solved
                        .iter()
                        .map(|(gi, verdict, _)| (keys[*gi].clone(), verdict.clone())),
                );
            }
        }
        call_cache_us += elapsed_us(publish_started);
        let mut solved_stats: Vec<Option<SolverStats>> = vec![None; unique_goals.len()];
        for (gi, verdict, stats) in solved {
            verdicts[gi] = Some(verdict);
            solved_stats[gi] = Some(stats);
        }

        // Reassemble in generation order. The solver statistics of each
        // freshly solved goal are attached to its first occurrence; later
        // duplicates and cache hits carry zeroed stats and `cached: true`.
        // Each row keeps its goal's key, so recording the program needs no
        // second encoding.
        let total = vcs.len() as u64;
        let mut report = Report {
            keys: group_of.iter().map(|gi| keys[*gi].clone()).collect(),
            ..Report::default()
        };
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
        report.engine = EngineStats {
            cache_hits: total - call_misses,
            cache_misses: call_misses,
            cross_hits: call_cross,
            disk_hits: call_disk,
            static_hits: call_statics,
            loaded: 0,
            unique_goals: call_misses,
            workers,
            // Vcgen happens upstream of the engine; the staged pipeline
            // tallies it on the stage report.
            elapsed_vcgen_us: 0,
            elapsed_encode_us: call_encode_us,
            elapsed_solve_us: call_solve_us,
            elapsed_cache_us: call_cache_us,
        };
        self.tally(&report.engine);
        for (name, value) in report.engine.counters() {
            call_span.arg(name, value);
        }
        report
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
