//! Automated verification-condition generation for the three axiomatic
//! semantics of the paper: `⊢o` (Fig. 7), `⊢i` (Fig. 9) — both in
//! [`unary`] — and `⊢r` (Fig. 8) in [`relational`].
//!
//! The generators are weakest-precondition calculi over annotated
//! programs: loop invariants (`invariant`, `rinvariant`) and divergence
//! contracts (`diverge pre_o/pre_r/post_o/post_r`) play the role the Coq
//! proof scripts play in the paper's artifact. Every emitted [`Vc`] is a
//! formula whose validity the `relaxed-smt` solver decides.

pub mod arrays;
pub mod relational;
pub mod unary;
mod vc;

pub use relational::{sync_array, sync_vars, vcs_relaxed, RelVcgen};
pub use unary::{vcs_unary, UnaryLogic, UnaryVcgen};
pub use vc::{formula_conjuncts, Vc, VcBody, VcgenError, MAX_WP_NODES};
