//! Verification conditions and generator errors.

use relaxed_lang::{Formula, RelFormula, Stmt};
use std::fmt;

/// The logical content of a verification condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VcBody {
    /// A unary formula that must be valid.
    Unary(Formula),
    /// A relational formula that must be valid.
    Rel(RelFormula),
}

/// One proof obligation with provenance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Vc {
    /// A short name, e.g. `invariant-preserved`.
    pub name: String,
    /// Where in the program the obligation arose.
    pub context: String,
    /// The formula to prove valid. A result row that was replayed from
    /// its program's revision record (see [`crate::depmap`]), or read
    /// from a service worker's result frame, carries the placeholder
    /// `true` instead: its formula was never rebuilt, and its verdict (an
    /// `Invalid` witness included) is the recorded one.
    pub body: VcBody,
}

/// Splits a formula into its top-level conjuncts, flattening nested
/// `&&` left-to-right. A non-conjunction is its own single conjunct.
///
/// This is the shared notion of "invariant conjunct" between the VC
/// generators (which conjoin invariants wholesale) and the spec-coverage
/// lint (which inspects each conjunct individually).
pub fn formula_conjuncts(p: &Formula) -> Vec<&Formula> {
    fn walk<'a>(p: &'a Formula, out: &mut Vec<&'a Formula>) {
        match p {
            Formula::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(p, &mut out);
    out
}

impl fmt::Display for Vc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: ", self.context, self.name)?;
        match &self.body {
            VcBody::Unary(p) => write!(f, "{p}"),
            VcBody::Rel(p) => write!(f, "{p}"),
        }
    }
}

/// How many nodes one weakest precondition may have before vcgen refuses
/// the program. Each sequential `if` copies the formula after it into both
/// branches (four times under the relational product rule), and each
/// `x = x + x;` doubles every occurrence of `x`, so a few hundred bytes of
/// program can make one obligation of many megabytes. The corpus's
/// largest result has 345 nodes.
pub const MAX_WP_NODES: usize = 1 << 18;

/// Refuses the weakest precondition that the rule of `s` built at
/// `context` when its `nodes` pass [`MAX_WP_NODES`]. Only rules that
/// rebuild or copy the formula after them are counted: they alone can grow
/// it by more than their own text, and their cost is already linear in
/// it, so counting adds a constant factor. Counting after `skip`,
/// `assert`, `assume`, `relate` or a sequence would make vcgen quadratic
/// on a long run of `assert`s.
pub(crate) fn within_budget(
    s: &Stmt,
    nodes: impl FnOnce() -> usize,
    context: &str,
) -> Result<(), VcgenError> {
    let rebuilds = !matches!(
        s,
        Stmt::Skip | Stmt::Assert(_) | Stmt::Assume(_) | Stmt::Relate(..) | Stmt::Seq(_)
    );
    if rebuilds && nodes() > MAX_WP_NODES {
        return Err(VcgenError::TooLarge {
            limit: MAX_WP_NODES,
            context: context.to_string(),
        });
    }
    Ok(())
}

/// Every annotation a [`VcgenError::MissingInvariant`] names in its
/// `kind`, so [`VcgenError::from_parts`] maps its text back to the same
/// `&'static str`.
const MISSING_INVARIANT_KINDS: [&str; 3] = [
    "invariant",
    "rinvariant",
    "diverge contract (loop inside a product branch)",
];

/// Why VC generation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VcgenError {
    /// A `while` loop lacks the invariant annotation the calculus needs.
    MissingInvariant {
        /// `invariant`, `rinvariant`, or a diverge contract.
        kind: &'static str,
        /// Where the loop is.
        context: String,
    },
    /// A `relate` statement appeared where the logic does not permit one —
    /// in the intermediate semantics or under a diverge contract
    /// (the paper's `no_rel(s)` side condition).
    RelateNotAllowed {
        /// Where the relate is.
        context: String,
    },
    /// A `havoc`/`relax` targets an array with a predicate other than
    /// `true` (unsupported; see the crate docs).
    ArrayChoiceWithPredicate {
        /// Where the statement is.
        context: String,
    },
    /// An array read nested inside another read of the same array blocks
    /// the store/havoc rewriting.
    NestedSelect {
        /// The array variable.
        array: String,
        /// Where it was found.
        context: String,
    },
    /// A select index mentions a bound variable, which the select
    /// abstraction cannot lift.
    BoundIndex {
        /// The array variable.
        array: String,
        /// Where it was found.
        context: String,
    },
    /// A weakest precondition grew past the node budget
    /// ([`MAX_WP_NODES`]).
    TooLarge {
        /// The node budget.
        limit: usize,
        /// Where the formula passed it.
        context: String,
    },
}

impl fmt::Display for VcgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcgenError::MissingInvariant { kind, context } => {
                write!(f, "{context}: while loop needs a {kind} annotation")
            }
            VcgenError::RelateNotAllowed { context } => {
                write!(f, "{context}: relate statement not allowed here (no_rel)")
            }
            VcgenError::ArrayChoiceWithPredicate { context } => write!(
                f,
                "{context}: havoc/relax over an array requires the predicate `true`"
            ),
            VcgenError::NestedSelect { array, context } => write!(
                f,
                "{context}: nested read of array {array} blocks store rewriting"
            ),
            VcgenError::BoundIndex { array, context } => write!(
                f,
                "{context}: index of a read of {array} mentions a bound variable"
            ),
            VcgenError::TooLarge { limit, context } => {
                write!(f, "{context}: obligation grows past {limit} nodes")
            }
        }
    }
}

impl std::error::Error for VcgenError {}

impl VcgenError {
    /// The error as its variant, its context and its one other field
    /// (`""` when it has none): the form a service result frame carries.
    pub(crate) fn to_parts(&self) -> (&'static str, &str, String) {
        match self {
            VcgenError::MissingInvariant { kind, context } => {
                ("missing_invariant", context, kind.to_string())
            }
            VcgenError::RelateNotAllowed { context } => {
                ("relate_not_allowed", context, String::new())
            }
            VcgenError::ArrayChoiceWithPredicate { context } => {
                ("array_choice_with_predicate", context, String::new())
            }
            VcgenError::NestedSelect { array, context } => {
                ("nested_select", context, array.clone())
            }
            VcgenError::BoundIndex { array, context } => ("bound_index", context, array.clone()),
            VcgenError::TooLarge { limit, context } => ("too_large", context, limit.to_string()),
        }
    }

    /// The inverse of [`VcgenError::to_parts`].
    pub(crate) fn from_parts(variant: &str, context: &str, detail: &str) -> Result<Self, String> {
        let context = context.to_string();
        Ok(match variant {
            "missing_invariant" => VcgenError::MissingInvariant {
                kind: MISSING_INVARIANT_KINDS
                    .into_iter()
                    .find(|kind| *kind == detail)
                    .ok_or_else(|| format!("unknown annotation kind {detail:?}"))?,
                context,
            },
            "relate_not_allowed" => VcgenError::RelateNotAllowed { context },
            "array_choice_with_predicate" => VcgenError::ArrayChoiceWithPredicate { context },
            "nested_select" => VcgenError::NestedSelect {
                array: detail.to_string(),
                context,
            },
            "bound_index" => VcgenError::BoundIndex {
                array: detail.to_string(),
                context,
            },
            "too_large" => VcgenError::TooLarge {
                limit: detail
                    .parse()
                    .map_err(|_| format!("bad limit {detail:?}"))?,
                context,
            },
            other => return Err(format!("unknown vcgen error {other:?}")),
        })
    }
}
