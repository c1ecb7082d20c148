//! Goal-level static analysis in front of the solver.
//!
//! Two passes over the hash-consed [`relaxed_smt::intern`] term DAG:
//!
//! 1. **Abstract-interpretation prefilter** ([`Prefilter`]): an
//!    interval + constant-propagation evaluator over interned terms that
//!    proves trivially-valid goals — tautologies (`x <= x`),
//!    implications whose conclusion is a conjunct of the hypothesis,
//!    bound-implied comparisons (`x >= 0 && x <= 9 ==> x <= 20`), and
//!    goals with contradictory hypotheses — with zero SAT/simplex work.
//!    The discharge engine runs it on every uncached goal, between
//!    encoding and the solver. Proved goals are reported as
//!    `static_hits` in [`EngineStats`](crate::EngineStats) and enter the
//!    verdict cache under the same `GoalKey` a solver run would have
//!    used. The prefilter never answers anything but `Valid`, so
//!    verdicts are the solver's on every goal it cannot prove.
//! 2. **Sound hypothesis normalization + slicing** ([`normalize`],
//!    [`group_keys`]): a hypothesis conjunction is split, sliced to the
//!    conjuncts whose free-variable cone reaches the conclusion,
//!    deduplicated, and canonically sorted. Slicing only ever *weakens*
//!    the hypothesis, so `Valid` on the sliced goal soundly transfers to
//!    the original. The engine no longer groups goals by hypothesis — it
//!    solves each remaining goal on a fresh solver — so these functions
//!    are analysis tools for callers that classify goals themselves.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use relaxed_smt::ast::{BTerm, ITerm, Rel};
use relaxed_smt::intern::{canonical_key, NodeId, TermArena, TermView};

/// Whether a boolean term lies in the quantifier-free linear fragment:
/// no quantifiers, array reads, division or remainder, and
/// multiplication only by a literal constant. Array *lengths* are
/// allowed.
///
/// The solver's preprocessing (quantifier elimination, grounding) is
/// context-free on this fragment: linear atoms pass through untouched,
/// and `len(a)` always grounds to the same name-deterministic variable
/// (`len!a`) with the same non-negativity axiom, regardless of what else
/// is asserted. Asserting a conjunction into a solver session one
/// conjunct at a time is therefore exactly equivalent to asserting the
/// conjunction into a fresh solver — no fresh counters, no Ackermann
/// congruence instances whose scope spans conjuncts. [`group_keys`]
/// classifies goals by it.
fn linear_bool(b: &BTerm) -> bool {
    match b {
        BTerm::True | BTerm::False => true,
        BTerm::Atom(_, l, r) => linear_int(l) && linear_int(r),
        BTerm::And(l, r) | BTerm::Or(l, r) | BTerm::Implies(l, r) => {
            linear_bool(l) && linear_bool(r)
        }
        BTerm::Not(inner) => linear_bool(inner),
        BTerm::Exists(..) | BTerm::Forall(..) => false,
    }
}

/// The integer-term half of [`linear_bool`].
fn linear_int(t: &ITerm) -> bool {
    match t {
        ITerm::Const(_) | ITerm::Var(_) | ITerm::Len(..) => true,
        ITerm::Add(l, r) | ITerm::Sub(l, r) => linear_int(l) && linear_int(r),
        ITerm::Neg(inner) => linear_int(inner),
        ITerm::Mul(l, r) => {
            (matches!(**l, ITerm::Const(_)) || matches!(**r, ITerm::Const(_)))
                && linear_int(l)
                && linear_int(r)
        }
        ITerm::Div(..) | ITerm::Mod(..) | ITerm::Select(..) => false,
    }
}

/// A linear combination of opaque atoms: `konst + Σ coeffs[id] · id`.
///
/// Atoms are interned node ids of the sub-terms the abstraction cannot
/// see through — free variables, bound variables, array reads, lengths,
/// division, remainder, non-constant products. Because atoms are hash-
/// consed ids, syntactically shared sub-terms cancel exactly: `x - x`
/// normalizes to the constant `0` even when `x` is an arbitrary opaque
/// term. All arithmetic is checked `i128`; overflow abandons the form
/// (returns `None`), never wraps.
#[derive(Clone, Debug, Default)]
struct LinForm {
    coeffs: BTreeMap<NodeId, i128>,
    konst: i128,
}

impl LinForm {
    fn constant(n: i128) -> LinForm {
        LinForm {
            coeffs: BTreeMap::new(),
            konst: n,
        }
    }

    fn atom(id: NodeId) -> LinForm {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(id, 1);
        LinForm { coeffs, konst: 0 }
    }

    fn as_const(&self) -> Option<i128> {
        self.coeffs.is_empty().then_some(self.konst)
    }

    fn add(mut self, other: &LinForm) -> Option<LinForm> {
        self.konst = self.konst.checked_add(other.konst)?;
        for (&id, &c) in &other.coeffs {
            let entry = self.coeffs.entry(id).or_insert(0);
            *entry = entry.checked_add(c)?;
            if *entry == 0 {
                self.coeffs.remove(&id);
            }
        }
        Some(self)
    }

    fn scale(mut self, k: i128) -> Option<LinForm> {
        if k == 0 {
            return Some(LinForm::constant(0));
        }
        self.konst = self.konst.checked_mul(k)?;
        for c in self.coeffs.values_mut() {
            *c = c.checked_mul(k)?;
        }
        Some(self)
    }

    fn negate(self) -> Option<LinForm> {
        self.scale(-1)
    }
}

/// A (possibly half-open) integer interval. `None` bounds are ±∞.
#[derive(Clone, Copy, Debug, Default)]
struct Interval {
    lo: Option<i128>,
    hi: Option<i128>,
}

impl Interval {
    fn point(n: i128) -> Interval {
        Interval {
            lo: Some(n),
            hi: Some(n),
        }
    }

    fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(lo), Some(hi)) if lo > hi)
    }

    /// Intersection (meet) of two intervals.
    fn meet(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Interval sum, `None` on overflow of a finite bound.
    fn add(&self, other: &Interval) -> Option<Interval> {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.checked_add(b)?),
            _ => None,
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.checked_add(b)?),
            _ => None,
        };
        Some(Interval { lo, hi })
    }

    /// Interval scaled by a non-zero constant (bounds swap when `k < 0`).
    fn scale(&self, k: i128) -> Option<Interval> {
        // An unbounded side stays unbounded; a finite side that overflows
        // aborts the whole scaling (outer `None`).
        let mul = |b: Option<i128>| match b {
            Some(v) => v.checked_mul(k).map(Some),
            None => Some(None),
        };
        let (lo, hi) = if k >= 0 {
            (mul(self.lo)?, mul(self.hi)?)
        } else {
            (mul(self.hi)?, mul(self.lo)?)
        };
        Some(Interval { lo, hi })
    }
}

/// The hypothesis environment the prefilter evaluates conclusions under:
/// interval bounds per opaque atom, plus *difference bounds* — intervals
/// on whole coefficient vectors (`Σ cᵢ·atomᵢ ∈ I`). The latter decide
/// relational step obligations like `num_r < N ==> num_r + 1 <= N`,
/// where neither variable alone has a finite bound but the linear form
/// `num_r − N` does.
#[derive(Default)]
struct Env {
    atoms: HashMap<NodeId, Interval>,
    forms: HashMap<BTreeMap<NodeId, i128>, Interval>,
}

impl Env {
    /// Whether any recorded bound is unsatisfiable (the hypothesis
    /// admits no state, so the implication holds vacuously).
    fn contradictory(&self) -> bool {
        self.atoms.values().any(Interval::is_empty) || self.forms.values().any(Interval::is_empty)
    }
}

/// The abstract-interpretation prefilter: proves trivially-valid goals
/// with zero solver work. One instance holds one interning arena, so
/// discharging a batch of goals through the same instance shares every
/// common sub-term.
#[derive(Default)]
pub struct Prefilter {
    arena: TermArena,
}

impl Prefilter {
    /// An empty prefilter.
    pub fn new() -> Prefilter {
        Prefilter::default()
    }

    /// Attempts to statically prove `goal` valid. `true` means the goal
    /// holds in every state — the caller may record `Valid` without
    /// consulting the solver. `false` means *unknown*, never invalid.
    pub fn proves(&mut self, goal: &BTerm) -> bool {
        let root = self.arena.intern_bool(goal);
        match self.arena.view(root) {
            TermView::Implies(h, c) => {
                let hyp = self.arena.conjuncts(h);
                let mut env = Env::default();
                for &conjunct in &hyp {
                    if self.constrain(conjunct, &mut env) == Some(true) {
                        return true; // contradictory hypothesis
                    }
                }
                if env.contradictory() {
                    // Two hypothesis bounds exclude each other (e.g.
                    // `x >= 5 && x <= 3`): the hypothesis is unsatisfiable
                    // and the implication holds vacuously.
                    return true;
                }
                let hyp: HashSet<NodeId> = hyp.into_iter().collect();
                self.arena
                    .conjuncts(c)
                    .into_iter()
                    .all(|part| hyp.contains(&part) || self.eval(part, &env) == Some(true))
            }
            _ => {
                let env = Env::default();
                self.arena
                    .conjuncts(root)
                    .into_iter()
                    .all(|part| self.eval(part, &env) == Some(true))
            }
        }
    }

    /// Folds one hypothesis conjunct into the environment. Returns
    /// `Some(true)` when the conjunct is itself unsatisfiable (the
    /// hypothesis is contradictory), `Some(false)` when a bound was
    /// recorded, `None` when the conjunct taught us nothing.
    fn constrain(&self, conjunct: NodeId, env: &mut Env) -> Option<bool> {
        match self.arena.view(conjunct) {
            TermView::False => Some(true),
            TermView::Atom(rel, a, b) => {
                // Normalize to `d rel 0` with `d = a - b`.
                let d = self.linform(a)?.add(&self.linform(b)?.negate()?)?;
                if let Some(k) = d.as_const() {
                    // A constant-false conjunct makes the hypothesis
                    // contradictory; a constant-true one teaches nothing.
                    return if holds(rel, k) { None } else { Some(true) };
                }
                // Whole-form difference bound: the coefficient part `S`
                // of `d = S + konst` satisfies `S rel −konst`
                // (`bound_for` with coefficient 1). Record it and its
                // reflection (`−S` under the mirrored interval) so
                // conclusion lookups never need to negate.
                if let Some(bound) = bound_for(rel, 1, d.konst) {
                    let slot = env.forms.entry(d.coeffs.clone()).or_default();
                    *slot = slot.meet(&bound);
                    if let (Some(neg), Some(reflected)) = (d.clone().negate(), bound.scale(-1)) {
                        let slot = env.forms.entry(neg.coeffs).or_default();
                        *slot = slot.meet(&reflected);
                    }
                }
                // Per-atom interval, when the form is a single ±1 atom.
                if d.coeffs.len() == 1 {
                    let (&id, &coeff) = d.coeffs.iter().next().expect("single atom");
                    if coeff.abs() == 1 {
                        // `coeff · id + konst rel 0`; solve for `id`.
                        if let Some(bound) = bound_for(rel, coeff, d.konst) {
                            let slot = env.atoms.entry(id).or_default();
                            *slot = slot.meet(&bound);
                        }
                    }
                }
                Some(false)
            }
            _ => None,
        }
    }

    /// Three-valued (Kleene) evaluation of a boolean node under the
    /// interval environment: `Some(true)`/`Some(false)` only when the
    /// abstraction decides the node in every state the environment
    /// admits, `None` otherwise.
    fn eval(&self, id: NodeId, env: &Env) -> Option<bool> {
        match self.arena.view(id) {
            TermView::True => Some(true),
            TermView::False => Some(false),
            TermView::Not(a) => self.eval(a, env).map(|v| !v),
            TermView::And(a, b) => kleene_and(self.eval(a, env), self.eval(b, env)),
            TermView::Or(a, b) => {
                kleene_and(self.eval(a, env).map(|v| !v), self.eval(b, env).map(|v| !v)).map(|v| !v)
            }
            TermView::Implies(a, b) => {
                kleene_and(self.eval(a, env), self.eval(b, env).map(|v| !v)).map(|v| !v)
            }
            TermView::Exists(_) | TermView::Forall(_) => None,
            TermView::Atom(rel, a, b) => {
                let d = self.linform(a)?.add(&self.linform(b)?.negate()?)?;
                let range = self.range(&d, env)?;
                decide(rel, &range)
            }
            // Integer nodes are never evaluated as booleans.
            _ => None,
        }
    }

    /// The interval a linear form ranges over under the environment:
    /// the sum of the per-atom intervals, refined by a whole-form
    /// difference bound when the hypothesis recorded one for exactly
    /// this coefficient vector.
    fn range(&self, d: &LinForm, env: &Env) -> Option<Interval> {
        let mut range = Interval::point(d.konst);
        for (id, &coeff) in &d.coeffs {
            let atom = env.atoms.get(id).copied().unwrap_or_default();
            range = range.add(&atom.scale(coeff)?)?;
        }
        if let Some(whole) = env.forms.get(&d.coeffs) {
            if let Some(shifted) = whole.add(&Interval::point(d.konst)) {
                range = range.meet(&shifted);
            }
        }
        Some(range)
    }

    /// The linear form of an integer node, or `None` on arithmetic
    /// overflow. Non-affine nodes become opaque atoms of themselves.
    fn linform(&self, id: NodeId) -> Option<LinForm> {
        match self.arena.view(id) {
            TermView::Const(n) => Some(LinForm::constant(i128::from(n))),
            TermView::Add(a, b) => self.linform(a)?.add(&self.linform(b)?),
            TermView::Sub(a, b) => self.linform(a)?.add(&self.linform(b)?.negate()?),
            TermView::Neg(a) => self.linform(a)?.negate(),
            TermView::Mul(a, b) => {
                let fa = self.linform(a)?;
                let fb = self.linform(b)?;
                match (fa.as_const(), fb.as_const()) {
                    (Some(k), _) => fb.scale(k),
                    (_, Some(k)) => fa.scale(k),
                    _ => Some(LinForm::atom(id)),
                }
            }
            TermView::Free(_)
            | TermView::Bound(_)
            | TermView::Div(..)
            | TermView::Mod(..)
            | TermView::Select(..)
            | TermView::Len(_) => Some(LinForm::atom(id)),
            // Boolean nodes are never evaluated as integers.
            _ => None,
        }
    }
}

/// Whether the constant comparison `k rel 0` holds.
fn holds(rel: Rel, k: i128) -> bool {
    match rel {
        Rel::Lt => k < 0,
        Rel::Le => k <= 0,
        Rel::Gt => k > 0,
        Rel::Ge => k >= 0,
        Rel::Eq => k == 0,
        Rel::Ne => k != 0,
    }
}

/// The interval `coeff · x + konst rel 0` (with `coeff ∈ {1, -1}`)
/// admits for `x`, or `None` when the relation yields no contiguous
/// bound (`!=`) or the bound overflows.
fn bound_for(rel: Rel, coeff: i128, konst: i128) -> Option<Interval> {
    // coeff = 1:  x rel -konst.   coeff = -1:  x rel' konst with the
    // relation mirrored (Lt ↔ Gt, Le ↔ Ge).
    let (rel, pivot) = if coeff == 1 {
        (rel, konst.checked_neg()?)
    } else {
        let mirrored = match rel {
            Rel::Lt => Rel::Gt,
            Rel::Le => Rel::Ge,
            Rel::Gt => Rel::Lt,
            Rel::Ge => Rel::Le,
            eq => eq,
        };
        (mirrored, konst)
    };
    Some(match rel {
        Rel::Lt => Interval {
            lo: None,
            hi: Some(pivot.checked_sub(1)?),
        },
        Rel::Le => Interval {
            lo: None,
            hi: Some(pivot),
        },
        Rel::Gt => Interval {
            lo: Some(pivot.checked_add(1)?),
            hi: None,
        },
        Rel::Ge => Interval {
            lo: Some(pivot),
            hi: None,
        },
        Rel::Eq => Interval::point(pivot),
        Rel::Ne => return None,
    })
}

/// Whether `d rel 0` is decided by `d`'s range.
fn decide(rel: Rel, range: &Interval) -> Option<bool> {
    let below = |k: i128| range.hi.is_some_and(|hi| hi <= k);
    let above = |k: i128| range.lo.is_some_and(|lo| lo >= k);
    match rel {
        Rel::Le => below(0)
            .then_some(true)
            .or_else(|| above(1).then_some(false)),
        Rel::Lt => below(-1)
            .then_some(true)
            .or_else(|| above(0).then_some(false)),
        Rel::Ge => above(0)
            .then_some(true)
            .or_else(|| below(-1).then_some(false)),
        Rel::Gt => above(1)
            .then_some(true)
            .or_else(|| below(0).then_some(false)),
        Rel::Eq => (above(0) && below(0))
            .then_some(true)
            .or_else(|| (below(-1) || above(1)).then_some(false)),
        Rel::Ne => (below(-1) || above(1))
            .then_some(true)
            .or_else(|| (above(0) && below(0)).then_some(false)),
    }
}

/// Kleene conjunction.
fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// The normalized form of an implication goal's hypothesis: conjuncts
/// sliced to the conclusion's free-variable cone, deduplicated, and
/// sorted by canonical key.
#[derive(Clone, Debug)]
pub struct NormalizedHypothesis {
    /// The surviving conjuncts, in canonical (sorted) order; their
    /// conjunction is the normalized hypothesis.
    pub conjuncts: Vec<BTerm>,
    /// The grouping key: the newline-joined canonical keys of
    /// [`conjuncts`](NormalizedHypothesis::conjuncts). Two goals with
    /// equal keys share a normalized hypothesis exactly.
    pub key: String,
    /// Whether the normalized hypothesis is logically *equivalent* to
    /// the original (`true`: only reordered/deduplicated) or strictly
    /// weaker (`false`: slicing dropped conjuncts outside the
    /// conclusion's cone). A weaker hypothesis soundly transfers only
    /// `Valid` verdicts; anything else must re-prove the full goal.
    pub exact: bool,
}

/// Normalizes the hypothesis `h` of the goal `h ⇒ c`: splits the
/// conjunction, slices it to the conjuncts whose free-variable cone
/// (transitively) reaches `c`'s free variables, deduplicates, and sorts
/// by canonical key.
///
/// Slicing only ever weakens the hypothesis, so a `Valid` verdict for
/// the normalized goal soundly implies the original goal. The cone is
/// computed to a fixpoint: a conjunct linking `y` to `z` keeps a
/// conjunct over `z` relevant even when `c` mentions only `y`.
pub fn normalize(h: &BTerm, c: &BTerm) -> NormalizedHypothesis {
    let mut parts: Vec<&BTerm> = Vec::new();
    split_bterm(h, &mut parts);

    let mut arena = TermArena::new();
    let conclusion = arena.intern_bool(c);
    let mut cone: BTreeSet<String> = arena.free_vars(conclusion);
    // (node id for dedup, free vars, source term) per conjunct.
    let conjuncts: Vec<(NodeId, BTreeSet<String>, &BTerm)> = parts
        .into_iter()
        .map(|part| {
            let id = arena.intern_bool(part);
            (id, arena.free_vars(id), part)
        })
        .collect();

    let mut kept = vec![false; conjuncts.len()];
    loop {
        let mut grew = false;
        for (slot, (_, vars, _)) in kept.iter_mut().zip(&conjuncts) {
            if !*slot && !cone.is_disjoint(vars) {
                *slot = true;
                let before = cone.len();
                cone.extend(vars.iter().cloned());
                grew |= cone.len() > before;
            }
        }
        if !grew {
            break;
        }
    }

    let exact = kept.iter().all(|&k| k);
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut survivors: Vec<(String, &BTerm)> = conjuncts
        .iter()
        .zip(&kept)
        .filter(|(_, &keep)| keep)
        .filter(|((id, _, _), _)| seen.insert(*id))
        .map(|((id, _, part), _)| (arena.render(*id), *part))
        .collect();
    survivors.sort_by(|(a, _), (b, _)| a.cmp(b));

    let key = survivors
        .iter()
        .map(|(key, _)| key.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    NormalizedHypothesis {
        conjuncts: survivors
            .into_iter()
            .map(|(_, part)| part.clone())
            .collect(),
        key,
        exact,
    }
}

/// Splits a `BTerm` into its top-level conjuncts, in source order.
fn split_bterm<'a>(t: &'a BTerm, out: &mut Vec<&'a BTerm>) {
    match t {
        BTerm::And(a, b) => {
            split_bterm(a, out);
            split_bterm(b, out);
        }
        _ => out.push(t),
    }
}

/// An encoded goal's hypothesis keys under two grouping schemes.
#[derive(Clone, Debug)]
pub struct GroupKeys {
    /// The verbatim scheme: the structural key of the full hypothesis,
    /// present only when hypothesis *and* conclusion lie in the linear
    /// fragment.
    pub verbatim: Option<String>,
    /// The normalized scheme: the normalized (split, sliced to the
    /// conclusion's cone, deduplicated, sorted) hypothesis key. Present
    /// whenever the hypothesis is linear — the conclusion may be
    /// arbitrary.
    pub normalized: String,
}

/// Classifies an encoded goal by its hypothesis: for an implication
/// `h ⇒ c` whose hypothesis lies in the quantifier-free linear fragment,
/// returns its keys under both schemes; `None` otherwise. Two goals with
/// equal keys share a hypothesis, so one solver session could assert it
/// once for both. The discharge engine does not group goals — it solves
/// each goal the prefilter leaves on a fresh solver — so this is a
/// classification for external tooling, such as per-layer profilers.
pub fn group_keys(goal: &BTerm) -> Option<GroupKeys> {
    let BTerm::Implies(h, c) = goal else {
        return None;
    };
    if !linear_bool(h) {
        return None;
    }
    Some(GroupKeys {
        verbatim: linear_bool(c).then(|| canonical_key(h)),
        normalized: normalize(h, c).key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_formula, EncodeCtx};
    use relaxed_lang::parse_formula;

    fn goal(source: &str) -> BTerm {
        let formula = parse_formula(source).expect("test formula parses");
        encode_formula(&formula, &mut EncodeCtx::new())
    }

    fn proves(source: &str) -> bool {
        Prefilter::new().proves(&goal(source))
    }

    #[test]
    fn proves_reflexive_and_offset_tautologies() {
        assert!(proves("x <= x"));
        assert!(proves("x + 1 >= x"));
        assert!(proves("x - x == 0"));
        assert!(proves("true"));
        // Near-misses must stay unknown.
        assert!(!proves("x <= y"));
        assert!(!proves("x + 1 <= x || x >= 0"));
    }

    #[test]
    fn proves_conclusion_conjunct_of_hypothesis() {
        assert!(proves("x >= 0 && y <= 7 ==> y <= 7"));
        assert!(proves("x >= 0 && y <= 7 ==> x >= 0 && y <= 7"));
        // A conjunct that is *not* in the hypothesis is unknown.
        assert!(!proves("x >= 0 && y <= 7 ==> y <= 6"));
    }

    #[test]
    fn proves_bound_implied_comparisons() {
        assert!(proves("x >= 0 && x <= 9 ==> x <= 20"));
        assert!(proves("x >= 0 && x <= 9 ==> x + 1 >= 1"));
        assert!(proves("x == 3 ==> x >= 2 && x <= 4"));
        // The exact boundary holds; one past it must not.
        assert!(proves("x >= 0 && x <= 9 ==> x <= 9"));
        assert!(!proves("x >= 1 && x <= 9 ==> x >= 2"));
    }

    #[test]
    fn proves_vacuous_goals_with_contradictory_hypotheses() {
        assert!(proves("x >= 5 && x <= 3 ==> y == 12"));
        assert!(proves("false ==> y == 12"));
        assert!(proves("x == 1 && x == 2 ==> y == 12"));
        // A satisfiable hypothesis proves nothing about an unrelated goal.
        assert!(!proves("x >= 3 && x <= 5 ==> y == 12"));
    }

    #[test]
    fn quantifiers_and_nonlinear_terms_stay_unknown() {
        assert!(!proves("forall k. k >= x ==> k + 1 > x"));
        assert!(!proves("x * x >= 0"));
        // ... but shared opaque sub-terms still cancel.
        assert!(proves("x * x <= x * x"));
        assert!(proves("a[i] == a[i]"));
    }

    #[test]
    fn interval_decisions_respect_negative_coefficients() {
        assert!(proves("x >= 2 ==> 10 - x <= 8"));
        assert!(proves("x <= 2 ==> 0 - x >= 0 - 2"));
        assert!(!proves("x >= 2 ==> 10 - x <= 7"));
    }

    #[test]
    fn normalization_slices_sorts_and_deduplicates() {
        let (h, c) = (goal("y >= 2 && x >= 0 && x >= 0"), goal("x >= 0"));
        let norm = normalize(&h, &c);
        assert_eq!(norm.conjuncts, vec![goal("x >= 0")]);
        assert!(!norm.exact, "the y-conjunct was sliced away");

        // Conjunct order does not affect the key.
        let (ab, ba) = (goal("x >= 0 && x <= y"), goal("x <= y && x >= 0"));
        let c = goal("x + y >= 0");
        assert_eq!(normalize(&ab, &c).key, normalize(&ba, &c).key);
        assert!(normalize(&ab, &c).exact);
    }

    #[test]
    fn slicing_cone_is_transitive() {
        // c mentions only x; x links to y, y links to z — all three
        // conjuncts are in the cone, only the w-conjunct is sliced.
        let h = goal("x <= y && y <= z && w >= 9");
        let norm = normalize(&h, &goal("x >= 0"));
        assert_eq!(norm.conjuncts.len(), 2);
        assert!(!norm.exact);

        let h = goal("x <= y && y <= z");
        let norm = normalize(&h, &goal("x >= 0"));
        assert_eq!(norm.conjuncts.len(), 2);
        assert!(norm.exact);
    }

    #[test]
    fn group_keys_align_verbatim_different_hypotheses() {
        // Different verbatim hypotheses, same normalized core once the
        // irrelevant conjunct is sliced.
        let a = goal("x >= 0 && y >= 2 ==> x + 1 >= 0");
        let b = goal("u <= 5 && x >= 0 ==> x + 2 >= 0");
        let ka = group_keys(&a).expect("linear implication");
        let kb = group_keys(&b).expect("linear implication");
        assert_ne!(ka.verbatim, kb.verbatim, "verbatim keys differ");
        assert_eq!(ka.normalized, kb.normalized, "normalized keys agree");
        // An array read in the *hypothesis* blocks grouping entirely; in
        // the conclusion it only blocks the verbatim baseline (the
        // normalized scheme refutes the conclusion in its own scope).
        assert!(group_keys(&goal("a[i] >= 0 ==> a[i] >= 0")).is_none());
        let mixed = group_keys(&goal("x >= 0 ==> a[x] >= 0")).expect("assertable hypothesis");
        assert!(mixed.verbatim.is_none());
        assert!(!mixed.normalized.is_empty());
    }
}
