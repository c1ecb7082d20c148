//! `relaxed-shardd` — a fleet worker of the `relaxed-serviced` daemon.
//!
//! Spawned by the daemon's fleet (see `relaxed_core::shard` and
//! `relaxed_core::service`): reads framed JSON job requests on stdin,
//! verifies each program through a `Verifier` session, and writes framed
//! JSON results on stdout. Under a persistent verdict cache it persists
//! incrementally after each job, sharing verdicts with sibling workers
//! through the fingerprint-gated store.
//!
//! The entire protocol implementation lives in `relaxed_core::shard` —
//! this binary is only its process shell. `RELAXED_SHARDD_FAULT`
//! (`crash:<n>` / `garbage:<n>`) injects test-only faults; see
//! `relaxed_core::shard::Fault`.

fn main() -> std::process::ExitCode {
    relaxed_core::shard::worker_main()
}
