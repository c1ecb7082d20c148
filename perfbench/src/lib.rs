//! The repository's end-to-end benchmark: three closed-loop workloads
//! over the verifier, each giving one group of layers most of the work.
//!
//! * `cold_corpus` — a fresh one-worker session verifies the six §5
//!   programs per op: the first-verification path, dominated by the
//!   solver (`relaxed_smt`).
//! * `edit_stream` — one resident session on a persistent store re-verifies
//!   a 72-revision corpus after a one-conjunct spec edit per op: depmap
//!   replay, cache probes/inserts and one revision's vcgen/encode.
//! * `service_warm` — one client submits the six programs to a running
//!   `relaxed-serviced` daemon per op: framing, relay and per-job front-end
//!   work on both sides of the wire, no solver work.
//!
//! Every op checks each program's verdict against its known answer
//! ([`corpus::check`]). Inputs come from the `--seed` argument only
//! ([`corpus::Rng`]). The library surface is what `src/main.rs` drives
//! and what the self-tests in `tests/` exercise.

pub mod corpus;
pub mod layers;
pub mod measure;
pub mod service;
pub mod workloads;
