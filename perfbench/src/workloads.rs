//! The three workloads: set-up, one op, teardown.
//!
//! All three are closed loops with one caller: the next op starts when
//! the previous one has returned its verdict-checked report. Sessions set
//! only deployment settings (worker count, fleet size, store path and
//! service address), so removing a verdict-neutral knob never has to
//! touch the benchmark.

use crate::corpus::{check, Corpus, EditCorpus, Rng};
use crate::layers::Layers;
use crate::measure::{peak_rss_kib, RefClock};
use crate::service::{Daemon, Relay};
use relaxed_core::Verifier;
use std::path::Path;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports, with their units.
/// Times are reference-normalized (see [`crate::measure`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50", "ms"),
    ("latency_tail", "ms"),
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Revisions per program in the `edit_stream` corpus (6 × 12 = 72).
pub const EDIT_VARIANTS: usize = 12;

/// Warm worker processes behind the `service_warm` daemon.
pub const FLEET: usize = 2;

/// A workload, by its `--workload` name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A fresh session verifies the six programs per op.
    ColdCorpus,
    /// A resident session re-verifies 72 revisions after one edit per op.
    EditStream,
    /// A client submits the six programs to a warm daemon per op.
    ServiceWarm,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCorpus,
        Workload::EditStream,
        Workload::ServiceWarm,
    ];

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCorpus => "cold_corpus",
            Workload::EditStream => "edit_stream",
            Workload::ServiceWarm => "service_warm",
        }
    }

    /// Idle time before each reference sample (see
    /// [`crate::measure::settled_sample`]). The daemon and its fleet
    /// finish an op's trailing work within a few milliseconds; the
    /// in-process workloads leave none behind.
    pub fn settle(self) -> Duration {
        match self {
            Workload::ServiceWarm => Duration::from_millis(5),
            Workload::ColdCorpus | Workload::EditStream => Duration::ZERO,
        }
    }

    /// How often the reference is re-sampled between timed ops (see
    /// [`crate::measure::RefClock`]). The host slows the benchmark in
    /// bursts shorter than a second, and an op is divided only by the
    /// samples either side of it. A `cold_corpus` op takes about 75 ms and
    /// a sample about 4, so it is sampled before every op: between runs of
    /// identical code its p90 then moved by 4–6%, against 16% with one
    /// sample a second. The 2–4 ms ops of the others are sampled every
    /// 100 ms, at a cost of 4–10% of the run (`service_warm` idles before
    /// each sample); with one sample a second, its p90 moved by 11%.
    pub fn refresh(self) -> Duration {
        match self {
            Workload::ColdCorpus => Duration::ZERO,
            Workload::EditStream | Workload::ServiceWarm => Duration::from_millis(100),
        }
    }
}

/// Set-ups per run; `setup_s` is their median. With 9, the `service_warm`
/// median moved by 28% between ten runs of identical code; with 15, by 4%
/// over five.
pub const SETUP_REPS: usize = 15;

/// A set-up workload, ready for timed ops.
pub enum Bench {
    /// `cold_corpus`.
    Cold {
        /// The six programs.
        six: Corpus,
        /// Draws each op's check order.
        rng: Rng,
    },
    /// `edit_stream`.
    Edit {
        /// The resident session on the seeded store.
        session: Verifier,
        /// The revisions, edited in place op by op.
        edits: EditCorpus,
        /// Draws each op's edited revision.
        rng: Rng,
        /// The number of the next edit conjunct (`edit_<n> >= 0`).
        next_edit: u64,
        /// Per-layer replay state, present in traced runs.
        trace: Option<crate::layers::EditTrace>,
    },
    /// `service_warm`.
    Service {
        /// The daemon serving the ops.
        daemon: Daemon,
        /// The client session, pointed at the daemon (or, traced, at a
        /// byte-counting relay in front of it).
        client: Verifier,
        /// The six programs.
        six: Corpus,
        /// Draws each op's submission order.
        rng: Rng,
        /// The relay, present in traced runs.
        relay: Option<Relay>,
    },
}

impl Bench {
    /// Sets `workload` up for `seed` in the empty directory `dir`.
    /// `layers` is given in traced runs and receives the set-up's
    /// per-layer numbers (cache load and persist).
    ///
    /// # Errors
    ///
    /// Fails when the seeded store does not verify to its known answers
    /// or the daemon does not start.
    pub fn setup(
        workload: Workload,
        seed: u64,
        dir: &Path,
        serviced: &Path,
        layers: Option<&mut Layers>,
    ) -> Result<Bench, String> {
        match workload {
            // Only input generation: a user's first verification pays no
            // solver work before it starts.
            Workload::ColdCorpus => Ok(Bench::Cold {
                six: Corpus::six(),
                rng: Rng::new(seed),
            }),
            Workload::EditStream => {
                let edits = EditCorpus::generate(seed, EDIT_VARIANTS);
                let store = dir.join("verdicts.jsonl");
                let traced = layers.is_some();
                seed_store(&store, &edits.corpus, layers)?;
                let mut bench = Bench::Edit {
                    session: session(&store),
                    edits,
                    rng: Rng::new(seed),
                    next_edit: 0,
                    trace: None,
                };
                // The first op on a fresh session fills its lint memo for
                // all 71 replayed revisions: lazy set-up, paid once.
                bench.op()?;
                if let Bench::Edit {
                    session,
                    edits,
                    trace,
                    ..
                } = &mut bench
                {
                    if traced {
                        *trace = Some(crate::layers::EditTrace::new(session, &store, edits));
                    }
                }
                Ok(bench)
            }
            Workload::ServiceWarm => {
                let six = Corpus::six();
                let store = dir.join("verdicts.jsonl");
                let traced = layers.is_some();
                seed_store(&store, &six, layers)?;
                let daemon = Daemon::start(serviced, &store, FLEET)?;
                let relay = if traced {
                    Some(Relay::start(&daemon.addr)?)
                } else {
                    None
                };
                let addr = relay.as_ref().map_or(&daemon.addr, |relay| &relay.addr);
                let client = Verifier::builder().workers(1).service(addr).build();
                let mut bench = Bench::Service {
                    daemon,
                    client,
                    six,
                    rng: Rng::new(seed),
                    relay,
                };
                // The first request opens the fleet workers' sessions.
                bench.op()?;
                if let Bench::Service {
                    relay: Some(relay), ..
                } = &bench
                {
                    relay.take();
                }
                Ok(bench)
            }
        }
    }

    /// One untraced op: its verdicts are checked against the known
    /// answers.
    ///
    /// # Errors
    ///
    /// Describes why the op failed.
    pub fn op(&mut self) -> Result<(), String> {
        match self {
            Bench::Cold { six, rng } => {
                let corpus = six.reordered(&rng.permutation(six.len()));
                let verifier = Verifier::builder().workers(1).build();
                check(&verifier.check_corpus_named(&corpus.entries), &corpus)
            }
            Bench::Edit {
                session,
                edits,
                rng,
                next_edit,
                ..
            } => {
                edits.edit(rng.below(edits.corpus.len()), *next_edit);
                *next_edit += 1;
                check(
                    &session.check_corpus_named(&edits.corpus.entries),
                    &edits.corpus,
                )
            }
            Bench::Service {
                client, six, rng, ..
            } => {
                let corpus = six.reordered(&rng.permutation(six.len()));
                check(&client.check_corpus_named(&corpus.entries), &corpus)
            }
        }
    }

    /// The workload this bench runs.
    pub fn workload(&self) -> Workload {
        match self {
            Bench::Cold { .. } => Workload::ColdCorpus,
            Bench::Edit { .. } => Workload::EditStream,
            Bench::Service { .. } => Workload::ServiceWarm,
        }
    }

    /// `VmHWM` summed over this process and the children serving its ops
    /// (the daemon and its fleet), in KiB, with the number of processes.
    pub fn peak_rss_kib(&self) -> (u64, usize) {
        let mut pids = vec![std::process::id()];
        if let Bench::Service { daemon, .. } = self {
            pids.extend(daemon.pids());
        }
        let kib = pids.iter().filter_map(|&pid| peak_rss_kib(pid)).sum();
        (kib, pids.len())
    }

    /// Stops everything the set-up started.
    ///
    /// # Errors
    ///
    /// Reports a daemon that did not drain cleanly.
    pub fn teardown(self) -> Result<(), String> {
        match self {
            Bench::Service {
                daemon,
                client,
                relay,
                ..
            } => {
                drop(client);
                if let Some(relay) = relay {
                    relay.stop();
                }
                daemon.stop()
            }
            Bench::Cold { .. } | Bench::Edit { .. } => Ok(()),
        }
    }
}

/// What a timed window of ops did.
#[derive(Debug, Default)]
pub struct Ops {
    /// Reference-normalized time of every attempted op, in milliseconds
    /// (see [`crate::measure`]), in order.
    pub latencies_ms: Vec<f64>,
    /// Wall time of every attempted op, in milliseconds, in order.
    pub wall_ms: Vec<f64>,
    /// Ops that failed their known-answer check.
    pub failed: usize,
    /// Wall time of the whole window, in seconds.
    pub elapsed_s: f64,
    /// [`Bench::peak_rss_kib`] after [`RSS_AFTER_OPS`] ops, or after the
    /// last op of a window with fewer.
    pub peak_rss_kib: (u64, usize),
}

/// The op count after which the window reads `peak_rss_mb`. The
/// `edit_stream` session caches every edit's new goals, so its memory
/// grows with each op and steps up as its tables double; read at the end
/// of a timed window, it followed the host's speed (15.2 to 19.2 MB
/// between runs of identical code). Every workload but `cold_corpus`,
/// whose memory does not grow, gets this far in a 30-second run.
pub const RSS_AFTER_OPS: usize = 2000;

/// Runs closed-loop ops on `bench` until `window` has passed (at least
/// one op), traced when `layers` is given. A failed op is counted and
/// the loop goes on. The reference is sampled and the memory read
/// between ops.
pub fn run_ops(bench: &mut Bench, mut layers: Option<&mut Layers>, window: Duration) -> Ops {
    let mut ops = Ops::default();
    let mut clock = RefClock::new(bench.workload().settle(), bench.workload().refresh());
    let started = Instant::now();
    loop {
        clock.refresh();
        let op_started = Instant::now();
        let outcome = match layers.as_deref_mut() {
            Some(layers) => crate::layers::traced_op(bench, layers),
            None => bench.op(),
        };
        let wall_ms = op_started.elapsed().as_secs_f64() * 1e3;
        ops.wall_ms.push(wall_ms);
        clock.record(wall_ms);
        if let Err(e) = outcome {
            ops.failed += 1;
            if ops.failed <= 3 {
                eprintln!("op {} failed: {e}", ops.wall_ms.len());
            }
        }
        let done = started.elapsed() >= window;
        if ops.wall_ms.len() == RSS_AFTER_OPS || (done && ops.wall_ms.len() < RSS_AFTER_OPS) {
            ops.peak_rss_kib = bench.peak_rss_kib();
        }
        if done {
            break;
        }
    }
    ops.elapsed_s = started.elapsed().as_secs_f64();
    ops.latencies_ms = clock.finish();
    ops
}

/// A one-worker session on the store at `store`.
fn session(store: &Path) -> Verifier {
    Verifier::builder().workers(1).cache_file(store).build()
}

/// Verifies `corpus` cold into a fresh store at `store` and persists it
/// (with its depmap sidecar).
fn seed_store(store: &Path, corpus: &Corpus, layers: Option<&mut Layers>) -> Result<(), String> {
    let seeder = session(store);
    check(&seeder.check_corpus_named(&corpus.entries), corpus)
        .map_err(|e| format!("seeding the store: {e}"))?;
    let started = Instant::now();
    seeder
        .persist()
        .map_err(|e| format!("persisting the store: {e}"))?;
    if let Some(layers) = layers {
        layers.set("cache.persist_us", started.elapsed().as_secs_f64() * 1e6);
        let fingerprint = relaxed_core::cache::fingerprint(&seeder.config().discharge_config());
        layers.time_set("cache.load_us", || {
            relaxed_core::cache::load(store, &fingerprint)
        });
        let bytes = std::fs::metadata(store).map_err(|e| e.to_string())?.len();
        layers.set("cache.store_bytes", bytes as f64);
    }
    Ok(())
}
