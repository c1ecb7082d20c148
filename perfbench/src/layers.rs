//! The traced run: per-layer numbers timed from outside the program.
//!
//! A traced op has two halves. The first replays the op stage by stage
//! through each layer's public entry points (parse, vcgen, encode, goal
//! keys, prefilter, quantifier elimination, grounding, CNF, solver,
//! discharge, depmap hashing and diffing) and times each call. The second
//! runs the op itself, as the untraced run does, and reads the engine and
//! solver counters off its report. Nothing inside the program is
//! instrumented, so the untraced ops run the same code as the program's
//! users do.

use crate::corpus::{check, unknowns, Corpus, EditCorpus, Rng};
use crate::service::Relay;
use crate::workloads::Bench;
use relaxed_core::depmap::{depmap_path, dirty_goals, goal_deps, program_hash, DepMap};
use relaxed_core::engine::encode_goal;
use relaxed_core::vcgen::Vc;
use relaxed_core::{group_keys, CorpusReport, GoalKey, Prefilter, Stage, StageSet, Verifier};
use relaxed_lang::parse_program;
use relaxed_smt::cnf::CnfBuilder;
use relaxed_smt::ground::groundify;
use relaxed_smt::preprocess::{eliminate_quantifiers, FreshNames};
use relaxed_smt::{BTerm, Solver};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit, in output order. Values are
/// per-op averages over the traced run unless [`Layers::set`] fixes them
/// once per run (the set-up's cache load/persist and store size, and the
/// daemon's gauges).
pub const METRICS: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("vcgen.us", "us"),
    ("vcgen.goals", "count"),
    ("encode.us", "us"),
    ("encode.goal_bytes", "B"),
    ("analysis.lint_us", "us"),
    ("prefilter.us", "us"),
    ("prefilter.attempts", "count"),
    ("prefilter.proved", "count"),
    ("engine.discharge_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.unique_goals", "count"),
    ("engine.cross_hits", "count"),
    ("engine.solver_runs", "count"),
    ("smt.qe_us", "us"),
    ("smt.qe_growth", "ratio"),
    ("smt.ground_us", "us"),
    ("smt.cnf_us", "us"),
    ("smt.cnf_vars", "count"),
    ("smt.atoms", "count"),
    ("smt.search_us", "us"),
    ("smt.decisions", "count"),
    ("smt.propagations", "count"),
    ("smt.conflicts", "count"),
    ("smt.theory_checks", "count"),
    ("smt.pivots", "count"),
    ("smt.bb_nodes", "count"),
    ("smt.unknowns", "count"),
    ("depmap.hash_us", "us"),
    ("depmap.diff_us", "us"),
    ("depmap.live", "count"),
    ("depmap.replayed", "count"),
    ("depmap.dirty_goals", "count"),
    ("cache.key_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.load_us", "us"),
    ("cache.persist_us", "us"),
    ("cache.store_bytes", "B"),
    ("api.overhead_us", "us"),
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    ("service.server_us", "us"),
    ("service.client_us", "us"),
    ("service.peak_active", "count"),
    ("service.rejected", "count"),
    ("trace.latency_p50", "ms"),
];

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    fixed: BTreeMap<&'static str, f64>,
    /// Rendered sizes of solver goals before and after quantifier
    /// elimination, for `smt.qe_growth`.
    qe_chars: (f64, f64),
}

impl Layers {
    /// Adds `value` to the per-op metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Runs `f`, adding its wall time in microseconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, us) = timed(f);
        self.add(name, us);
        out
    }

    /// Fixes the run-level metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.fixed.insert(name, value);
    }

    /// Runs `f`, fixing its wall time in microseconds as `name`.
    pub fn time_set<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, us) = timed(f);
        self.set(name, us);
        out
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// What `names` together gained since `before`, a copy of the sums.
    fn spent(&self, before: &BTreeMap<&'static str, f64>, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|name| self.sum(name) - before.get(name).copied().unwrap_or(0.0))
            .sum()
    }

    /// Every metric of [`METRICS`] as `(name, unit, value)`, given the
    /// run's traced op count and median traced-op latency.
    pub fn finish(
        &self,
        ops: usize,
        latency_p50_ms: f64,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let ops = ops.max(1) as f64;
        METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.latency_p50" => latency_p50_ms,
                    "smt.qe_growth" => ratio(self.qe_chars.1, self.qe_chars.0),
                    "cache.hit_ratio" => ratio(
                        self.sum("cache.hits"),
                        self.sum("cache.hits") + self.sum("cache.misses"),
                    ),
                    _ => match self.fixed.get(name) {
                        Some(&value) => value,
                        None => self.sum(name) / ops,
                    },
                };
                (name, unit, value)
            })
            .collect()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// Per-layer state of a traced `edit_stream` run: what the session's
/// dependency map holds, mirrored from outside.
pub struct EditTrace {
    /// The sidecar as seeded: each revision's goal keys before any edit.
    /// An edit dirties the same precondition goals relative to this
    /// record as relative to the previous edit.
    seeded: DepMap,
    /// Each revision's hash as the session last recorded it.
    recorded: Vec<String>,
}

impl EditTrace {
    /// Mirrors the session's dependency map after set-up.
    pub fn new(session: &Verifier, store: &Path, edits: &EditCorpus) -> EditTrace {
        let fingerprint = relaxed_core::cache::fingerprint(&session.config().discharge_config());
        let (seeded, _) = relaxed_core::depmap::load(&depmap_path(store), &fingerprint);
        EditTrace {
            seeded,
            recorded: hashes(&edits.corpus),
        }
    }
}

fn hashes(corpus: &Corpus) -> Vec<String> {
    corpus
        .entries
        .iter()
        .map(|(_, program, spec)| program_hash(program, spec))
        .collect()
}

/// One traced op of `bench`, accumulated into `layers`.
///
/// # Errors
///
/// Describes why the op failed its known-answer check.
pub fn traced_op(bench: &mut Bench, layers: &mut Layers) -> Result<(), String> {
    match bench {
        Bench::Cold { six, rng } => cold(six, rng, layers),
        Bench::Edit {
            session,
            edits,
            rng,
            next_edit,
            trace,
        } => {
            let trace = trace.as_mut().expect("traced edit_stream set-up");
            edit(session, edits, rng, next_edit, trace, layers)
        }
        Bench::Service {
            client,
            six,
            rng,
            relay,
            daemon,
        } => {
            let relay = relay.as_ref().expect("traced service_warm set-up");
            service(client, six, rng, relay, layers)?;
            let status = relaxed_core::service::service_status(
                &daemon.addr,
                std::time::Duration::from_secs(30),
            )?;
            layers.set("service.peak_active", status.peak_active as f64);
            layers.set("service.rejected", status.rejected as f64);
            Ok(())
        }
    }
}

/// `cold_corpus`: the staged op on one fresh session, then the op itself
/// on another.
fn cold(six: &Corpus, rng: &mut Rng, l: &mut Layers) -> Result<(), String> {
    let corpus = six.reordered(&rng.permutation(six.len()));
    let staged_session = Verifier::builder().workers(1).build();
    let before = l.sums.clone();
    let mut seen = HashSet::new();
    let mut solve_us = 0.0;
    for (_, program, spec) in &corpus.entries {
        parse(l, program);
        let staged = front(l, &staged_session, program, spec)?;
        let mut prefilter = Prefilter::new();
        for (key, goal) in encode(l, &staged) {
            if seen.insert(key) && !prefiltered(l, &mut prefilter, &goal) {
                solve_us += solve(l, &goal);
            }
        }
        for (_, vcs) in staged {
            l.time("engine.discharge_us", || {
                staged_session.engine().discharge(vcs)
            });
        }
    }
    let discharge_us = l.spent(&before, &["engine.discharge_us"]);
    l.add("engine.overhead_us", discharge_us - solve_us);
    let front_us = l.spent(&before, &["analysis.lint_us", "vcgen.us"]);

    let session = Verifier::builder().workers(1).build();
    let (report, wall_us) = timed(|| session.check_corpus_named(&corpus.entries));
    check(&report, &corpus)?;
    counters(l, &report);
    l.add("api.overhead_us", wall_us - front_us - discharge_us);
    Ok(())
}

/// `edit_stream`: one edit replayed stage by stage through the resident
/// session, then a second edit of the same revision as the op itself.
fn edit(
    session: &Verifier,
    edits: &mut EditCorpus,
    rng: &mut Rng,
    next_edit: &mut u64,
    trace: &mut EditTrace,
    l: &mut Layers,
) -> Result<(), String> {
    let index = rng.below(edits.corpus.len());
    let before = l.sums.clone();
    l.time("lang.parse_us", || edits.edit(index, *next_edit));
    *next_edit += 1;
    let current = l.time("depmap.hash_us", || hashes(&edits.corpus));
    let live = current
        .iter()
        .zip(&trace.recorded)
        .filter(|(now, recorded)| now != recorded)
        .count();
    l.add("depmap.live", live as f64);
    l.add("depmap.replayed", (current.len() - live) as f64);

    let (name, program, spec) = &edits.corpus.entries[index];
    let staged = front(l, session, program, spec)?;
    let goals = encode(l, &staged);
    let fresh = l.time("depmap.diff_us", || goal_deps(&staged));
    let dirty = match trace.seeded.program(name) {
        Some(old) => l.time("depmap.diff_us", || dirty_goals(old, &fresh)),
        None => (0..fresh.len()).collect(),
    };
    l.add("depmap.dirty_goals", dirty.len() as f64);
    let mut prefilter = Prefilter::new();
    let mut solved = Vec::new();
    for &i in &dirty {
        if !prefiltered(l, &mut prefilter, &goals[i].1) {
            solved.push(goals[i].1.clone());
        }
    }
    for (_, vcs) in staged {
        l.time("engine.discharge_us", || session.engine().discharge(vcs));
    }
    let solve_us: f64 = solved.iter().map(|goal| solve(l, goal)).sum();
    let discharge_us = l.spent(&before, &["engine.discharge_us"]);
    l.add("engine.overhead_us", discharge_us - solve_us);
    let layer_us = l.spent(
        &before,
        &[
            "depmap.hash_us",
            "depmap.diff_us",
            "analysis.lint_us",
            "vcgen.us",
        ],
    ) + discharge_us;

    edits.edit(index, *next_edit);
    *next_edit += 1;
    let (report, wall_us) = timed(|| session.check_corpus_named(&edits.corpus.entries));
    check(&report, &edits.corpus)?;
    let (_, program, spec) = &edits.corpus.entries[index];
    trace.recorded[index] = program_hash(program, spec);
    counters(l, &report);
    l.add("api.overhead_us", wall_us - layer_us);
    Ok(())
}

/// `service_warm`: the client-side front end of every job replayed (the
/// daemon's workers run the same parse, vcgen and encode per job), then
/// the op itself through the byte-counting relay.
fn service(
    client: &Verifier,
    six: &Corpus,
    rng: &mut Rng,
    relay: &Relay,
    l: &mut Layers,
) -> Result<(), String> {
    let corpus = six.reordered(&rng.permutation(six.len()));
    let before = l.sums.clone();
    for (_, program, spec) in &corpus.entries {
        parse(l, program);
        let staged = front(l, client, program, spec)?;
        encode(l, &staged);
    }
    let front_us = l.spent(&before, &["analysis.lint_us", "vcgen.us"]);

    relay.take();
    let (report, wall_us) = timed(|| client.check_corpus_named(&corpus.entries));
    check(&report, &corpus)?;
    let traffic = relay.take();
    let server_us = traffic.server.as_secs_f64() * 1e6;
    l.add("wire.request_bytes", traffic.request_bytes as f64);
    l.add("wire.response_bytes", traffic.response_bytes as f64);
    l.add("service.server_us", server_us);
    l.add("service.client_us", wall_us - server_us);
    counters(l, &report);
    l.add("api.overhead_us", wall_us - server_us - front_us);
    Ok(())
}

/// Times parsing the program's source, as a daemon worker parses a job.
fn parse(l: &mut Layers, program: &relaxed_lang::Program) {
    let source = program.to_string();
    l.time("lang.parse_us", || parse_program(&source))
        .expect("a pretty-printed program parses");
}

/// Times the lint and each default stage's vcgen of one program.
fn front(
    l: &mut Layers,
    session: &Verifier,
    program: &relaxed_lang::Program,
    spec: &relaxed_core::Spec,
) -> Result<Vec<(Stage, Vec<Vc>)>, String> {
    l.time("analysis.lint_us", || session.lint(program, spec));
    let mut staged = Vec::new();
    for stage in [Stage::Original, Stage::Intermediate, Stage::Relaxed] {
        if StageSet::default().contains(stage) {
            let vcs = l
                .time("vcgen.us", || session.stage(stage).vcs(program, spec))
                .map_err(|e| format!("vcgen: {e}"))?;
            l.add("vcgen.goals", vcs.len() as f64);
            staged.push((stage, vcs));
        }
    }
    Ok(staged)
}

/// Times encoding every obligation to its solver goal and cache key.
fn encode(l: &mut Layers, staged: &[(Stage, Vec<Vc>)]) -> Vec<(GoalKey, BTerm)> {
    let mut goals = Vec::new();
    for vc in staged.iter().flat_map(|(_, vcs)| vcs) {
        let goal = l.time("encode.us", || encode_goal(vc));
        let key = l.time("cache.key_us", || GoalKey::of(&goal));
        l.add("encode.goal_bytes", key.as_str().len() as f64);
        goals.push((key, goal));
    }
    goals
}

/// Times the prefilter and the grouping classification on one goal;
/// returns whether the prefilter proved it.
fn prefiltered(l: &mut Layers, prefilter: &mut Prefilter, goal: &BTerm) -> bool {
    let proved = l.time("prefilter.us", || prefilter.proves(goal));
    l.time("prefilter.us", || group_keys(goal));
    l.add("prefilter.attempts", 1.0);
    l.add("prefilter.proved", f64::from(u8::from(proved)));
    proved
}

/// Replays the solver's pipeline on one goal: quantifier elimination,
/// grounding and CNF of its negation, timed one by one, then the whole
/// validity check. Search time is the check's time beyond the three
/// front stages. Returns the check's wall time in microseconds.
fn solve(l: &mut Layers, goal: &BTerm) -> f64 {
    let mut fresh = FreshNames::new();
    let negated = goal.clone().not();
    let (qf, qe_us) = timed(|| eliminate_quantifiers(&negated, &mut fresh));
    l.qe_chars.0 += GoalKey::of(&negated).as_str().len() as f64;
    l.qe_chars.1 += GoalKey::of(&qf.formula).as_str().len() as f64;
    let (grounding, ground_us) = timed(|| groundify(&qf.formula, &mut fresh));
    let full = grounding.formula.and(grounding.defs);
    let mut cnf = CnfBuilder::new();
    let (root, cnf_us) = timed(|| cnf.encode(&full));
    // Tseitin variables are numbered in creation order and the root gate
    // is created last, so its index counts the CNF's variables.
    if let Ok(root) = root {
        l.add("smt.cnf_vars", f64::from(root.var() + 1));
    }
    let (_, check_us) = timed(|| Solver::new().check_valid(goal));
    l.add("smt.qe_us", qe_us);
    l.add("smt.ground_us", ground_us);
    l.add("smt.cnf_us", cnf_us);
    l.add("smt.search_us", check_us - qe_us - ground_us - cnf_us);
    check_us
}

/// The engine, cache and solver counters the op's report carries.
fn counters(l: &mut Layers, report: &CorpusReport) {
    let engine = &report.engine;
    let solver = &report.stats;
    l.add("engine.unique_goals", engine.unique_goals as f64);
    l.add("engine.cross_hits", engine.cross_hits as f64);
    l.add(
        "engine.solver_runs",
        engine.cache_misses.saturating_sub(engine.static_hits) as f64,
    );
    l.add("cache.hits", engine.cache_hits as f64);
    l.add("cache.misses", engine.cache_misses as f64);
    l.add("smt.decisions", solver.sat.decisions as f64);
    l.add("smt.propagations", solver.sat.propagations as f64);
    l.add("smt.conflicts", solver.sat.conflicts as f64);
    l.add("smt.theory_checks", solver.sat.theory_checks as f64);
    l.add("smt.pivots", solver.pivots as f64);
    l.add("smt.bb_nodes", solver.branch_nodes as f64);
    l.add("smt.atoms", solver.atoms as f64);
    let unknown: usize = report
        .entries
        .iter()
        .filter_map(|entry| entry.outcome.as_ref().ok())
        .map(unknowns)
        .sum();
    l.add("smt.unknowns", unknown as f64);
}
