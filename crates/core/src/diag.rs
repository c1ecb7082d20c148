//! Internal stderr diagnostics.
//!
//! Library code paths must not spam consumer (or CI) logs: every warning
//! a library path emits goes through [`warn`], which prefixes the crate
//! name and is silenced entirely when `DISCHARGE_QUIET=1`. Structured
//! surfaces ([`Verifier::env_warnings`](crate::api::Verifier::env_warnings),
//! [`Verifier::cache_warnings`](crate::api::Verifier::cache_warnings))
//! are unaffected by the quiet flag — only the stderr side channel is.

use std::fmt;

/// Whether `DISCHARGE_QUIET=1` silences library stderr diagnostics.
pub(crate) fn quiet() -> bool {
    std::env::var_os("DISCHARGE_QUIET").is_some_and(|v| v == "1")
}

/// Writes one `relaxed-core:`-prefixed warning to stderr unless quieted.
// The one sanctioned library print site: every other module routes here.
#[allow(clippy::print_stderr)]
pub(crate) fn warn(message: fmt::Arguments<'_>) {
    if !quiet() {
        eprintln!("relaxed-core: {message}");
    }
}
