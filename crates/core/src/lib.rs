//! # relaxed-core
//!
//! The verification framework of Carbin, Kim, Misailovic & Rinard,
//! *“Proving Acceptability Properties of Relaxed Nondeterministic
//! Approximate Programs”* (PLDI 2012), reproduced in Rust.
//!
//! A **relaxed program** extends an ordinary imperative program with
//! `relax (X) st (B)` statements — no-ops in the *original* semantics,
//! nondeterministic reassignments in the *relaxed* semantics. The paper's
//! contribution is a staged, relational verification methodology for the
//! *acceptability properties* (integrity + accuracy) of such programs:
//!
//! 1. **`⊢o` — axiomatic original semantics** (Fig. 7): a standard Hoare
//!    logic for the original program. Verifying it gives *Original
//!    Progress Modulo Assumptions* (Lemma 2): no original execution goes
//!    `wr`.
//! 2. **`⊢r` — axiomatic relaxed semantics** (Fig. 8): a relational Hoare
//!    logic over lockstep pairs of original/relaxed executions, with
//!    `relate` assertions, relational transfer for `assert`/`assume`, and
//!    the **diverge** rule for control flow the relaxation desynchronizes.
//!    Verifying it gives *Soundness of Relational Assertions* (Theorem 6)
//!    and *Relative Relaxed Progress* (Theorem 7).
//! 3. **`⊢i` — axiomatic intermediate semantics** (Fig. 9): the unary
//!    logic the diverge rule uses for the relaxed execution on its own
//!    (Lemma 4).
//!
//! Together the stages give *Relaxed Progress* (Theorem 8) and its
//! debuggability corollary (Corollary 9): an error in the relaxed program
//! implies a violated assumption reproducible in the original program.
//!
//! ## Crate layout
//!
//! * [`api`] — the unified [`Verifier`] session API: typed configuration,
//!   staged pipelines, and corpus-scale batch verification;
//! * [`vcgen`] — weakest-precondition VC generation for all three logics,
//!   driven by in-program annotations (`invariant`, `rinvariant`,
//!   `diverge` contracts);
//! * [`rules`] — the paper's proof rules as explicit derivation trees with
//!   a rule-by-rule checker (the analogue of the paper's Coq artifact);
//! * [`cache`] — the persistent on-disk verdict store (structural goal
//!   keys, config fingerprinting, corruption-tolerant JSON-lines log);
//! * [`depmap`] — the goal→program-fragment dependency map recorded at
//!   vcgen time, the basis of incremental re-verification: after an
//!   edit, only goals whose supporting fragments changed are re-proved;
//! * [`shard`] — the transport-agnostic worker protocol and the worker
//!   fleet (spawn, kill-and-retry, span re-anchoring, shutdown) behind
//!   the service daemon, with verdict sharing between worker processes
//!   through the on-disk store;
//! * [`service`] — the networked verification service
//!   (`relaxed-serviced`): a long-running daemon that keeps that fleet
//!   warm, adds admission control, control frames and metrics, and
//!   serves concurrent corpus requests over TCP behind
//!   [`CorpusPolicy::Service`], the one way to verify a corpus beyond
//!   this process;
//! * [`telemetry`] — zero-dependency tracing: RAII spans drained to
//!   Chrome trace-event JSON (`DISCHARGE_TRACE=path.json`), whose
//!   counters are the per-call [`EngineStats`] and the per-goal
//!   `SolverStats`;
//! * [`encode`] — lowering of assertion-logic formulas to the
//!   `relaxed-smt` solver;
//! * [`analysis`] — array detection, relaxation-dependence (taint)
//!   analysis, and the spec-coverage lint pass;
//! * [`noninterference`] — automatic `x<o> == x<r>` bridging invariants;
//! * [`prefilter`] — the goal-level static analysis layer: the
//!   abstract-interpretation prefilter that runs in front of the solver,
//!   and sound hypothesis normalization/slicing;
//! * [`engine`] — the parallel, deduplicating VC discharge engine;
//! * [`verify`] — the theorem-level report types.
//!
//! ## Example
//!
//! ```
//! use relaxed_core::{Spec, Verifier};
//! use relaxed_lang::parse_program;
//!
//! // LU-pivot-style bounded-error relaxation (paper §5.3, simplified):
//! let program = parse_program(
//!     "original_a = a;
//!      relax (a) st (original_a - e <= a && a <= original_a + e);
//!      relate l1 : a<o> - a<r> <= e<o> && a<r> - a<o> <= e<o>;",
//! )?;
//! let spec = Spec {
//!     pre: relaxed_lang::parse_formula("e >= 0")?,
//!     post: relaxed_lang::Formula::True,
//!     rel_pre: relaxed_lang::parse_rel_formula("a<o> == a<r> && e<o> == e<r> && e<o> >= 0")?,
//!     rel_post: relaxed_lang::RelFormula::True,
//! };
//! let verifier = Verifier::new();
//! let report = verifier.check(&program, &spec)?;
//! assert!(report.relaxed_progress());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Library code must not print: route diagnostics through `relaxed_core::diag`
// (see README "Observability"). Bin entry points opt out locally.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod analysis;
pub mod api;
pub mod cache;
pub mod depmap;
mod diag;
pub mod encode;
pub mod engine;
pub mod noninterference;
pub mod prefilter;
pub mod rules;
pub mod service;
pub mod shard;
pub mod telemetry;
pub mod vcgen;
pub mod verify;

/// The paper's six-program corpus for this crate's unit tests.
#[cfg(test)]
pub(crate) fn test_corpus() -> Vec<(&'static str, relaxed_lang::Program, Spec)> {
    // The corpus crate builds its specs with its own build of this
    // crate, so each spec is rebuilt from its four formulas.
    relaxed_programs::casestudies::corpus()
        .into_iter()
        .map(|(name, program, spec)| {
            let spec = Spec {
                pre: spec.pre,
                post: spec.post,
                rel_pre: spec.rel_pre,
                rel_post: spec.rel_post,
            };
            (name, program, spec)
        })
        .collect()
}

pub use analysis::{lint, AnalysisWarning, LintCode};
pub use api::{
    CachePolicy, Config, CorpusEntry, CorpusError, CorpusPolicy, CorpusReport, EnvWarning, Stage,
    StageRunner, StageSet, Verifier, VerifierBuilder,
};
pub use cache::{CacheWarning, GoalKey};
pub use engine::{DischargeConfig, DischargeEngine, DischargeOptions, EngineStats};
pub use prefilter::{group_keys, normalize, GroupKeys, NormalizedHypothesis, Prefilter};
pub use service::{Service, ServiceOptions, ServiceStatus};
pub use verify::{AcceptabilityReport, Report, Spec, VcResult};
