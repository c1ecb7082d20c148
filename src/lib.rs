//! # relaxed-programs
//!
//! A Rust reproduction of Carbin, Kim, Misailovic & Rinard, *“Proving
//! Acceptability Properties of Relaxed Nondeterministic Approximate
//! Programs”* (PLDI 2012): language, dynamic semantics, relational proof
//! system, decision procedures, relaxation transformations, and the
//! paper's three verified case studies.
//!
//! This crate is the umbrella façade: it re-exports the workspace crates
//! and hosts the [`casestudies`] module used by the examples, integration
//! tests, and benchmarks.
//!
//! | crate | contents |
//! |---|---|
//! | [`lang`] | syntax, assertion logic, parser, substitution (Figs. 1, 2, 5, 6) |
//! | [`interp`] | dynamic `⇓o`/`⇓r` semantics, oracles, observational compatibility (Figs. 3, 4; Thm. 6) |
//! | [`core`] | axiomatic `⊢o`/`⊢i`/`⊢r` semantics, VC generation, verification drivers (Figs. 7–9; §4) |
//! | [`smt`] | the from-scratch SMT solver discharging the VCs |
//! | [`transforms`] | the relaxation-mechanism zoo (§1) |
//!
//! ## Quickstart
//!
//! ```
//! use relaxed_programs::{casestudies, Verifier};
//!
//! let verifier = Verifier::new();
//! let (program, spec) = casestudies::swish();
//! let report = verifier.check(&program, &spec)?;
//! assert!(report.relaxed_progress());
//!
//! // Corpus-scale: every §5 case study in one batch, sharing the
//! // session's verdict cache across programs.
//! let corpus = casestudies::corpus();
//! let batch = verifier.check_corpus_named(&corpus);
//! assert!(batch.entries.iter().take(3).all(|e| e.verified()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Library code must not print: route diagnostics through `relaxed_core::diag`
// (see README "Observability"). Bin entry points opt out locally.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use relaxed_core as core;
pub use relaxed_interp as interp;
pub use relaxed_lang as lang;
pub use relaxed_smt as smt;
pub use relaxed_transforms as transforms;

pub use relaxed_core::{
    AcceptabilityReport, AnalysisWarning, CachePolicy, CacheWarning, Config, CorpusEntry,
    CorpusError, CorpusPolicy, CorpusReport, EnvWarning, GoalKey, LintCode, Spec, Stage, StageSet,
    Verifier, VerifierBuilder,
};

pub mod casestudies;
