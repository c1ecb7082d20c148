//! Quantifier preprocessing: negation normal form, the one-point rule,
//! exact elimination for unit-coefficient quantifiers, skolemization, and
//! sound finite instantiation as a last resort.
//!
//! The pipeline's contract is *soundness for UNSAT*: every rewrite either
//! preserves satisfiability exactly, or weakens the formula (admits more
//! models) and sets the `incomplete` flag. An `Unsat` verdict on the
//! processed formula is therefore always trustworthy; a `Sat` verdict is
//! only reported when no weakening rewrite fired.

use crate::ast::{BTerm, ITerm, Rel};
use std::collections::{BTreeMap, BTreeSet};

/// Caps on the exact-elimination expansions, beyond which the preprocessor
/// falls back to instantiation.
const MAX_CUBES: usize = 128;
const MAX_CUBE_LITERALS: usize = 128;
const MAX_INSTANTIATION_CANDIDATES: usize = 12;

/// Allocates fresh solver-internal names. The `!` separator cannot appear
/// in source-language identifiers, so fresh names never collide.
#[derive(Debug, Default)]
pub struct FreshNames {
    counter: u64,
}

impl FreshNames {
    /// Creates an allocator.
    pub fn new() -> Self {
        FreshNames::default()
    }

    /// Returns a fresh name with the given diagnostic prefix.
    pub fn fresh(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}!{n}")
    }
}

/// Free variables of an integer term.
pub fn term_vars(t: &ITerm, out: &mut BTreeSet<String>) {
    match t {
        ITerm::Const(_) => {}
        ITerm::Var(v) => {
            out.insert(v.clone());
        }
        ITerm::Add(a, b)
        | ITerm::Sub(a, b)
        | ITerm::Mul(a, b)
        | ITerm::Div(a, b)
        | ITerm::Mod(a, b) => {
            term_vars(a, out);
            term_vars(b, out);
        }
        ITerm::Neg(a) => term_vars(a, out),
        ITerm::Select(arr, idx) => {
            out.insert(arr.clone());
            term_vars(idx, out);
        }
        ITerm::Len(arr) => {
            out.insert(arr.clone());
        }
    }
}

/// Free variables of a formula (bound variables excluded).
pub fn formula_vars(b: &BTerm, out: &mut BTreeSet<String>) {
    match b {
        BTerm::True | BTerm::False => {}
        BTerm::Atom(_, lhs, rhs) => {
            term_vars(lhs, out);
            term_vars(rhs, out);
        }
        BTerm::And(a, b2) | BTerm::Or(a, b2) | BTerm::Implies(a, b2) => {
            formula_vars(a, out);
            formula_vars(b2, out);
        }
        BTerm::Not(a) => formula_vars(a, out),
        BTerm::Exists(x, body) | BTerm::Forall(x, body) => {
            let mut inner = BTreeSet::new();
            formula_vars(body, &mut inner);
            inner.remove(x);
            out.extend(inner);
        }
    }
}

/// Substitutes `t` for free occurrences of the *integer* variable `x`.
///
/// Solver-level substitution does not avoid capture. Its callers
/// substitute fresh constants, one-point bounds with the eliminated
/// variable removed, and instantiation candidates, which
/// `instantiation_candidates` keeps free of every variable bound
/// inside the body they are substituted into.
pub fn subst_term(t: &ITerm, x: &str, r: &ITerm) -> ITerm {
    match t {
        ITerm::Const(_) | ITerm::Len(_) => t.clone(),
        ITerm::Var(v) => {
            if v == x {
                r.clone()
            } else {
                t.clone()
            }
        }
        ITerm::Add(a, b) => {
            ITerm::Add(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Sub(a, b) => {
            ITerm::Sub(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Mul(a, b) => {
            ITerm::Mul(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Div(a, b) => {
            ITerm::Div(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Mod(a, b) => {
            ITerm::Mod(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Neg(a) => ITerm::Neg(Box::new(subst_term(a, x, r))),
        ITerm::Select(arr, idx) => ITerm::Select(arr.clone(), Box::new(subst_term(idx, x, r))),
    }
}

/// Substitutes in a formula (stopping at binders of `x`).
pub fn subst_formula(b: &BTerm, x: &str, r: &ITerm) -> BTerm {
    match b {
        BTerm::True | BTerm::False => b.clone(),
        BTerm::Atom(rel, lhs, rhs) => {
            BTerm::Atom(*rel, subst_term(lhs, x, r), subst_term(rhs, x, r))
        }
        BTerm::And(a, c) => BTerm::And(
            Box::new(subst_formula(a, x, r)),
            Box::new(subst_formula(c, x, r)),
        ),
        BTerm::Or(a, c) => BTerm::Or(
            Box::new(subst_formula(a, x, r)),
            Box::new(subst_formula(c, x, r)),
        ),
        BTerm::Implies(a, c) => BTerm::Implies(
            Box::new(subst_formula(a, x, r)),
            Box::new(subst_formula(c, x, r)),
        ),
        BTerm::Not(a) => BTerm::Not(Box::new(subst_formula(a, x, r))),
        BTerm::Exists(y, body) => {
            if y == x {
                b.clone()
            } else {
                BTerm::Exists(y.clone(), Box::new(subst_formula(body, x, r)))
            }
        }
        BTerm::Forall(y, body) => {
            if y == x {
                b.clone()
            } else {
                BTerm::Forall(y.clone(), Box::new(subst_formula(body, x, r)))
            }
        }
    }
}

fn flip(rel: Rel) -> Rel {
    match rel {
        Rel::Lt => Rel::Ge,
        Rel::Le => Rel::Gt,
        Rel::Gt => Rel::Le,
        Rel::Ge => Rel::Lt,
        Rel::Eq => Rel::Ne,
        Rel::Ne => Rel::Eq,
    }
}

/// Negation normal form: no `Not`/`Implies` nodes remain; negation is
/// absorbed into atom relations.
pub fn nnf(b: &BTerm, negate: bool) -> BTerm {
    match b {
        BTerm::True => {
            if negate {
                BTerm::False
            } else {
                BTerm::True
            }
        }
        BTerm::False => {
            if negate {
                BTerm::True
            } else {
                BTerm::False
            }
        }
        BTerm::Atom(rel, lhs, rhs) => {
            let rel = if negate { flip(*rel) } else { *rel };
            BTerm::Atom(rel, lhs.clone(), rhs.clone())
        }
        BTerm::And(a, c) => {
            let (l, r) = (nnf(a, negate), nnf(c, negate));
            if negate {
                l.or(r)
            } else {
                l.and(r)
            }
        }
        BTerm::Or(a, c) => {
            let (l, r) = (nnf(a, negate), nnf(c, negate));
            if negate {
                l.and(r)
            } else {
                l.or(r)
            }
        }
        BTerm::Implies(a, c) => {
            // a ⇒ c ≡ ¬a ∨ c
            let (l, r) = (nnf(a, !negate), nnf(c, negate));
            if negate {
                // ¬(a ⇒ c) ≡ a ∧ ¬c; note nnf(a, !negate) with negate=true is nnf(a,false).
                l.and(r)
            } else {
                l.or(r)
            }
        }
        BTerm::Not(a) => nnf(a, !negate),
        BTerm::Exists(x, body) => {
            let inner = nnf(body, negate);
            if negate {
                BTerm::Forall(x.clone(), Box::new(inner))
            } else {
                BTerm::Exists(x.clone(), Box::new(inner))
            }
        }
        BTerm::Forall(x, body) => {
            let inner = nnf(body, negate);
            if negate {
                BTerm::Exists(x.clone(), Box::new(inner))
            } else {
                BTerm::Forall(x.clone(), Box::new(inner))
            }
        }
    }
}

/// Whether `x` occurs in `t`, as a variable or as an array name.
fn mentions(t: &ITerm, x: &str) -> bool {
    match t {
        ITerm::Const(_) => false,
        ITerm::Var(v) | ITerm::Len(v) => v == x,
        ITerm::Add(a, b)
        | ITerm::Sub(a, b)
        | ITerm::Mul(a, b)
        | ITerm::Div(a, b)
        | ITerm::Mod(a, b) => mentions(a, x) || mentions(b, x),
        ITerm::Neg(a) => mentions(a, x),
        ITerm::Select(arr, idx) => arr == x || mentions(idx, x),
    }
}

/// A linear view over *base terms*: plain variables stay variables, while
/// opaque subterms (array reads, divisions, non-linear products, lengths)
/// become pseudo-variables keyed by their own syntax. This lets the
/// unit-coefficient quantifier elimination see through atoms like
/// `a ≤ col[i] + e`. The terms are borrowed, sorted, distinct and
/// nonzero.
type BaseView<'t> = Vec<(&'t ITerm, i128)>;

/// The base-term view of `lhs - rhs` and its constant.
fn base_view<'t>(lhs: &'t ITerm, rhs: &'t ITerm) -> (BaseView<'t>, i128) {
    let mut terms = Vec::new();
    let mut k = 0;
    walk_base(lhs, 1, &mut terms, &mut k);
    walk_base(rhs, -1, &mut terms, &mut k);
    normalize_from(&mut terms, 0);
    (terms, k)
}

/// Adds `sign · t` to `terms` and `k`, over base terms. A product
/// neither side of which cancels to a constant is one opaque base term.
fn walk_base<'t>(t: &'t ITerm, sign: i128, terms: &mut BaseView<'t>, k: &mut i128) {
    match t {
        ITerm::Const(n) => *k += sign * i128::from(*n),
        ITerm::Var(_)
        | ITerm::Select(_, _)
        | ITerm::Len(_)
        | ITerm::Div(_, _)
        | ITerm::Mod(_, _) => terms.push((t, sign)),
        ITerm::Add(a, b) => {
            walk_base(a, sign, terms, k);
            walk_base(b, sign, terms, k);
        }
        ITerm::Sub(a, b) => {
            walk_base(a, sign, terms, k);
            walk_base(b, -sign, terms, k);
        }
        ITerm::Neg(a) => walk_base(a, -sign, terms, k),
        ITerm::Mul(a, b) => match (&**a, &**b) {
            (ITerm::Const(c), _) => walk_base(b, sign * i128::from(*c), terms, k),
            (_, ITerm::Const(c)) => walk_base(a, sign * i128::from(*c), terms, k),
            _ => {
                let start = terms.len();
                let mut ka = 0;
                walk_base(a, 1, terms, &mut ka);
                normalize_from(terms, start);
                if terms.len() == start {
                    return walk_base(b, sign * ka, terms, k);
                }
                let mid = terms.len();
                let mut kb = 0;
                walk_base(b, 1, terms, &mut kb);
                normalize_from(terms, mid);
                if terms.len() > mid {
                    // Non-linear product: one opaque base term.
                    terms.truncate(start);
                    terms.push((t, sign));
                    return;
                }
                for (_, c) in &mut terms[start..] {
                    *c *= sign * kb;
                }
                *k += sign * ka * kb;
            }
        },
    }
}

/// Sorts the `(key, coefficient)` terms in `terms[start..]` by key, merges
/// equal keys and drops zero coefficients.
pub(crate) fn normalize_from<K: Ord + Copy>(terms: &mut Vec<(K, i128)>, start: usize) {
    terms[start..].sort_unstable_by_key(|&(key, _)| key);
    let mut out = start;
    let mut i = start;
    while i < terms.len() {
        let (key, mut c) = terms[i];
        i += 1;
        while i < terms.len() && terms[i].0 == key {
            c += terms[i].1;
            i += 1;
        }
        if c != 0 {
            terms[out] = (key, c);
            out += 1;
        }
    }
    terms.truncate(out);
}

/// Removes the plain variable `x` from a view, returning its coefficient.
fn take_var(terms: &mut BaseView<'_>, x: &str) -> Option<i128> {
    let i = terms
        .iter()
        .position(|(t, _)| matches!(t, ITerm::Var(v) if v == x))?;
    Some(terms.remove(i).1)
}

/// Rebuilds an [`ITerm`] for `sign · (view + k)`.
fn unpoly_terms(terms: &[(&ITerm, i128)], sign: i128, k: i128) -> ITerm {
    let k = sign * k;
    let mut acc: Option<ITerm> = if k != 0 {
        Some(ITerm::Const(k as i64))
    } else {
        None
    };
    for &(base, c) in terms {
        let piece = match sign * c {
            1 => base.clone(),
            -1 => ITerm::Neg(Box::new(base.clone())),
            c => ITerm::Mul(Box::new(ITerm::Const(c as i64)), Box::new(base.clone())),
        };
        acc = Some(match acc {
            None => piece,
            Some(prev) => prev.add(piece),
        });
    }
    acc.unwrap_or(ITerm::Const(0))
}

/// A linear view of a term: coefficients per name plus a constant.
/// `None` when the term is not linear in its variables.
pub(crate) fn poly(t: &ITerm) -> Option<(BTreeMap<String, i128>, i128)> {
    match t {
        ITerm::Const(n) => Some((BTreeMap::new(), *n as i128)),
        ITerm::Var(v) => {
            let mut m = BTreeMap::new();
            m.insert(v.clone(), 1);
            Some((m, 0))
        }
        ITerm::Add(a, b) => {
            let (ma, ka) = poly(a)?;
            let (mb, kb) = poly(b)?;
            Some((merge(ma, mb, 1), ka + kb))
        }
        ITerm::Sub(a, b) => {
            let (ma, ka) = poly(a)?;
            let (mb, kb) = poly(b)?;
            Some((merge(ma, mb, -1), ka - kb))
        }
        ITerm::Neg(a) => {
            let (ma, ka) = poly(a)?;
            Some((scale(ma, -1), -ka))
        }
        ITerm::Mul(a, b) => {
            let pa = poly(a)?;
            let pb = poly(b)?;
            if pa.0.is_empty() {
                Some((scale(pb.0, pa.1), pa.1 * pb.1))
            } else if pb.0.is_empty() {
                Some((scale(pa.0, pb.1), pa.1 * pb.1))
            } else {
                None
            }
        }
        ITerm::Div(_, _) | ITerm::Mod(_, _) | ITerm::Select(_, _) | ITerm::Len(_) => None,
    }
}

fn merge(
    mut a: BTreeMap<String, i128>,
    b: BTreeMap<String, i128>,
    sign: i128,
) -> BTreeMap<String, i128> {
    for (k, v) in b {
        let e = a.entry(k).or_insert(0);
        *e += sign * v;
    }
    a.retain(|_, v| *v != 0);
    a
}

fn scale(mut a: BTreeMap<String, i128>, s: i128) -> BTreeMap<String, i128> {
    if s == 0 {
        return BTreeMap::new();
    }
    for v in a.values_mut() {
        *v *= s;
    }
    a
}

/// One atom of a DNF over `x`, borrowed from the formula.
struct CubeAtom<'b> {
    rel: Rel,
    lhs: &'b ITerm,
    rhs: &'b ITerm,
    /// For an atom mentioning `x`: the coefficient of `x` (0 when it
    /// cancels), and the rest of the base-term view of `lhs - rhs` with
    /// its constant.
    x_part: Option<(i128, BaseView<'b>, i128)>,
}

/// What one cube atom says about `x`.
enum XView {
    /// The atom does not mention `x`.
    Free,
    /// `x ≤ t`.
    Upper(ITerm),
    /// `x ≥ t`.
    Lower(ITerm),
    /// `x = t`: the one-point rule applies.
    Point(ITerm),
    /// Not a unit-coefficient bound on `x`.
    Fail,
}

impl CubeAtom<'_> {
    fn x_view(&self) -> XView {
        let Some((c, view, k)) = &self.x_part else {
            return XView::Free;
        };
        if c.abs() != 1 {
            return XView::Fail;
        }
        // c·x + R + k  rel  0, with R the view: if c = 1, x rel -(R + k);
        // if c = -1, x flip(rel) (R + k).
        let bound = unpoly_terms(view, -c, *k);
        let rel = if *c == 1 {
            self.rel
        } else {
            flipped_by_sign(self.rel)
        };
        match rel {
            Rel::Le => XView::Upper(bound),
            Rel::Lt => XView::Upper(bound.sub(ITerm::Const(1))),
            Rel::Ge => XView::Lower(bound),
            Rel::Gt => XView::Lower(bound.add(ITerm::Const(1))),
            Rel::Eq => XView::Point(bound),
            Rel::Ne => XView::Fail, // dnf_cubes splits every `≠` on x
        }
    }
}

/// Converts an NNF formula into DNF cubes of indices into `table`, which
/// receives the formula's atoms, splitting `Ne` atoms that mention `x`
/// into `< ∨ >`. Returns `None` on blowup or when `x` occurs in a
/// non-linear position.
fn dnf_cubes<'b>(x: &str, b: &'b BTerm, table: &mut Vec<CubeAtom<'b>>) -> Option<Vec<Vec<u32>>> {
    match b {
        BTerm::True => Some(vec![vec![]]),
        BTerm::False => Some(vec![]),
        BTerm::Atom(rel, lhs, rhs) => {
            let index = table.len() as u32;
            if !(mentions(lhs, x) || mentions(rhs, x)) {
                table.push(CubeAtom {
                    rel: *rel,
                    lhs,
                    rhs,
                    x_part: None,
                });
                return Some(vec![vec![index]]);
            }
            // x must appear linearly (over base terms) to be eliminable,
            // and must not hide inside an opaque base term.
            let (mut view, k) = base_view(lhs, rhs);
            let c = take_var(&mut view, x).unwrap_or(0);
            if view.iter().any(|(t, _)| mentions(t, x)) {
                return None;
            }
            if *rel == Rel::Ne {
                for rel in [Rel::Lt, Rel::Gt] {
                    table.push(CubeAtom {
                        rel,
                        lhs,
                        rhs,
                        x_part: Some((c, view.clone(), k)),
                    });
                }
                return Some(vec![vec![index], vec![index + 1]]);
            }
            table.push(CubeAtom {
                rel: *rel,
                lhs,
                rhs,
                x_part: Some((c, view, k)),
            });
            Some(vec![vec![index]])
        }
        BTerm::Or(a, c) => {
            let mut cubes = dnf_cubes(x, a, table)?;
            cubes.extend(dnf_cubes(x, c, table)?);
            if cubes.len() > MAX_CUBES {
                None
            } else {
                Some(cubes)
            }
        }
        BTerm::And(a, c) => {
            let left = dnf_cubes(x, a, table)?;
            let right = dnf_cubes(x, c, table)?;
            let mut cubes = Vec::new();
            for l in &left {
                for r in &right {
                    if l.len() + r.len() > MAX_CUBE_LITERALS {
                        return None;
                    }
                    let mut cube = Vec::with_capacity(l.len() + r.len());
                    cube.extend_from_slice(l);
                    cube.extend_from_slice(r);
                    cubes.push(cube);
                }
            }
            if cubes.len() > MAX_CUBES {
                None
            } else {
                Some(cubes)
            }
        }
        // Quantifiers inside (nested) and residual Not/Implies block DNF.
        _ => None,
    }
}

/// Exact elimination of `∃x` from a single cube whose `x`-coefficients are
/// all `±1`. Returns `None` when a coefficient is not `±1`. `views`
/// caches each table atom's [`XView`] across the cubes of one
/// elimination; the cube's atoms are checked in order, so the first
/// failing or one-point atom decides.
fn elim_cube(
    x: &str,
    cube: &[u32],
    table: &[CubeAtom<'_>],
    views: &mut [Option<XView>],
) -> Option<BTerm> {
    let mut lowers: Vec<usize> = Vec::new(); // x ≥ t
    let mut uppers: Vec<usize> = Vec::new(); // x ≤ t
    let mut rest: Vec<usize> = Vec::new();
    for (pos, &i) in cube.iter().enumerate() {
        let i = i as usize;
        let view = views[i].get_or_insert_with(|| table[i].x_view());
        match view {
            XView::Free => rest.push(i),
            XView::Upper(_) => uppers.push(i),
            XView::Lower(_) => lowers.push(i),
            XView::Fail => return None,
            XView::Point(bound) => {
                // One-point within the cube: x = bound. Substituting into
                // every *other* atom removes x from the whole cube (bound is
                // x-free because its linear view had x removed).
                let conj = BTerm::conj(cube.iter().enumerate().filter(|(j, _)| *j != pos).map(
                    |(_, &j)| {
                        let atom = &table[j as usize];
                        BTerm::Atom(
                            atom.rel,
                            subst_term(atom.lhs, x, bound),
                            subst_term(atom.rhs, x, bound),
                        )
                    },
                ));
                return Some(conj);
            }
        }
    }
    let bound = |i: usize| match &views[i] {
        Some(XView::Upper(t) | XView::Lower(t)) => t.clone(),
        _ => unreachable!("only bounds are collected"),
    };
    // ∃x over ℤ with unit bounds: all lower ≤ all upper.
    let mut out = BTerm::conj(rest.into_iter().map(|i| {
        let atom = &table[i];
        BTerm::Atom(atom.rel, atom.lhs.clone(), atom.rhs.clone())
    }));
    for &lo in &lowers {
        for &hi in &uppers {
            out = out.and(BTerm::Atom(Rel::Le, bound(lo), bound(hi)));
        }
    }
    Some(out)
}

/// Adjusts a relation when the variable coefficient is −1 (multiply the
/// atom by −1): `-x + R rel 0 ⟺ x flip_by_sign(rel) R`.
fn flipped_by_sign(rel: Rel) -> Rel {
    match rel {
        Rel::Lt => Rel::Gt,
        Rel::Le => Rel::Ge,
        Rel::Gt => Rel::Lt,
        Rel::Ge => Rel::Le,
        Rel::Eq => Rel::Eq,
        Rel::Ne => Rel::Ne,
    }
}

/// Tries exact elimination of `∃x. body` (body in NNF, quantifier-free).
fn try_exact_exists(x: &str, body: &BTerm) -> Option<BTerm> {
    let mut table = Vec::new();
    let cubes = dnf_cubes(x, body, &mut table)?;
    let mut views: Vec<Option<XView>> = table.iter().map(|_| None).collect();
    let mut out = BTerm::False;
    for cube in &cubes {
        out = out.or(elim_cube(x, cube, &table, &mut views)?);
    }
    Some(out)
}

/// Candidate ground terms for instantiating `∀x. body`: bound terms solved
/// out of atoms that mention `x` with coefficient `±1` (each ±1), ground
/// indices of arrays that `body` reads at `x` (drawn from the whole
/// problem's `pool`), plus 0. A candidate that mentions a variable bound
/// inside `body` is dropped: [`subst_formula`] does not avoid capture.
fn instantiation_candidates(
    x: &str,
    body: &BTerm,
    pool: &BTreeMap<String, Vec<ITerm>>,
) -> Vec<ITerm> {
    let mut atoms = Vec::new();
    collect_atoms(body, &mut atoms);
    let mut inner = BTreeSet::new();
    binders(body, &mut inner);
    let capturable = |t: &ITerm| inner.iter().any(|v| mentions(t, v));
    let mut candidates: Vec<ITerm> = Vec::new();
    for (lhs, rhs) in atoms {
        if !(mentions(lhs, x) || mentions(rhs, x)) {
            continue;
        }
        let (mut view, k) = base_view(lhs, rhs);
        if let Some(c) = take_var(&mut view, x) {
            if c.abs() == 1 && !view.iter().any(|(t, _)| mentions(t, x) || capturable(t)) {
                let bound = unpoly_terms(&view, -c, k);
                candidates.push(bound.clone().sub(ITerm::Const(1)));
                candidates.push(bound.clone());
                candidates.push(bound.add(ITerm::Const(1)));
            }
        }
        if candidates.len() >= MAX_INSTANTIATION_CANDIDATES {
            break;
        }
    }
    let mut arrays = BTreeSet::new();
    arrays_indexed_by(body, x, &mut arrays);
    for arr in arrays {
        if let Some(terms) = pool.get(&arr) {
            for t in terms {
                if !mentions(t, x) && !capturable(t) {
                    candidates.push(t.clone());
                }
            }
        }
    }
    candidates.push(ITerm::Const(0));
    candidates.truncate(2 * MAX_INSTANTIATION_CANDIDATES);
    candidates.dedup();
    candidates
}

/// Ground select-index terms per array, collected from the whole problem
/// (the candidate pool for array-driven ∀-instantiation, an E-matching
/// light).
fn collect_select_pool(
    b: &BTerm,
    bound: &mut BTreeSet<String>,
    pool: &mut BTreeMap<String, Vec<ITerm>>,
) {
    fn term(t: &ITerm, bound: &BTreeSet<String>, pool: &mut BTreeMap<String, Vec<ITerm>>) {
        match t {
            ITerm::Const(_) | ITerm::Var(_) | ITerm::Len(_) => {}
            ITerm::Add(a, b)
            | ITerm::Sub(a, b)
            | ITerm::Mul(a, b)
            | ITerm::Div(a, b)
            | ITerm::Mod(a, b) => {
                term(a, bound, pool);
                term(b, bound, pool);
            }
            ITerm::Neg(a) => term(a, bound, pool),
            ITerm::Select(arr, idx) => {
                term(idx, bound, pool);
                let mut vars = BTreeSet::new();
                term_vars(idx, &mut vars);
                if vars.is_disjoint(bound) {
                    let entry = pool.entry(arr.clone()).or_default();
                    if !entry.contains(idx) && entry.len() < 16 {
                        entry.push((**idx).clone());
                    }
                }
            }
        }
    }
    match b {
        BTerm::True | BTerm::False => {}
        BTerm::Atom(_, lhs, rhs) => {
            term(lhs, bound, pool);
            term(rhs, bound, pool);
        }
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            collect_select_pool(a, bound, pool);
            collect_select_pool(c, bound, pool);
        }
        BTerm::Not(a) => collect_select_pool(a, bound, pool),
        BTerm::Exists(x, body) | BTerm::Forall(x, body) => {
            let fresh = bound.insert(x.clone());
            collect_select_pool(body, bound, pool);
            if fresh {
                bound.remove(x);
            }
        }
    }
}

/// Arrays read at exactly the variable `x` inside `b`.
fn arrays_indexed_by(b: &BTerm, x: &str, out: &mut BTreeSet<String>) {
    fn term(t: &ITerm, x: &str, out: &mut BTreeSet<String>) {
        match t {
            ITerm::Const(_) | ITerm::Var(_) | ITerm::Len(_) => {}
            ITerm::Add(a, b)
            | ITerm::Sub(a, b)
            | ITerm::Mul(a, b)
            | ITerm::Div(a, b)
            | ITerm::Mod(a, b) => {
                term(a, x, out);
                term(b, x, out);
            }
            ITerm::Neg(a) => term(a, x, out),
            ITerm::Select(arr, idx) => {
                if mentions(idx, x) {
                    out.insert(arr.clone());
                }
                term(idx, x, out);
            }
        }
    }
    match b {
        BTerm::True | BTerm::False => {}
        BTerm::Atom(_, lhs, rhs) => {
            term(lhs, x, out);
            term(rhs, x, out);
        }
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            arrays_indexed_by(a, x, out);
            arrays_indexed_by(c, x, out);
        }
        BTerm::Not(a) => arrays_indexed_by(a, x, out),
        BTerm::Exists(y, body) | BTerm::Forall(y, body) => {
            if y != x {
                arrays_indexed_by(body, x, out);
            }
        }
    }
}

/// The variables that quantifiers inside `b` bind.
fn binders(b: &BTerm, out: &mut BTreeSet<String>) {
    match b {
        BTerm::True | BTerm::False | BTerm::Atom(_, _, _) => {}
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            binders(a, out);
            binders(c, out);
        }
        BTerm::Not(a) => binders(a, out),
        BTerm::Exists(x, a) | BTerm::Forall(x, a) => {
            out.insert(x.clone());
            binders(a, out);
        }
    }
}

/// The `(lhs, rhs)` sides of every atom in `b`.
fn collect_atoms<'b>(b: &'b BTerm, out: &mut Vec<(&'b ITerm, &'b ITerm)>) {
    match b {
        BTerm::Atom(_, lhs, rhs) => out.push((lhs, rhs)),
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            collect_atoms(a, out);
            collect_atoms(c, out);
        }
        BTerm::Not(a) => collect_atoms(a, out),
        BTerm::Exists(_, a) | BTerm::Forall(_, a) => collect_atoms(a, out),
        BTerm::True | BTerm::False => {}
    }
}

/// The result of quantifier elimination.
#[derive(Clone, Debug)]
pub struct QfResult {
    /// The quantifier-free formula.
    pub formula: BTerm,
    /// True when a weakening rewrite fired (finite ∀-instantiation): a
    /// `Sat` verdict downstream must be reported as unknown.
    pub incomplete: bool,
}

/// Eliminates all quantifiers from `b` (assumed a *satisfiability* query:
/// top-level free variables are implicitly existential).
///
/// Strategy, on the NNF:
/// 1. `∃x`: try exact unit-coefficient elimination (via DNF); otherwise
///    skolemize `x` to a fresh constant. Skolemizing is exact only where
///    the `∃` sits under ∧/∨ alone, so an `∃` inside the body of a `∀`
///    that is not yet instantiated stays an `∃`: one constant would stand
///    for every value of the `∀`'s variable. Each instance of that `∀`
///    then skolemizes it afresh.
/// 2. `∀x`: `∀x.B ≡ ¬∃x.¬B`; try exact elimination of the dual; otherwise
///    instantiate finitely (weakening, sets `incomplete`).
pub fn eliminate_quantifiers(b: &BTerm, fresh: &mut FreshNames) -> QfResult {
    let normal = nnf(b, false);
    let mut incomplete = false;
    // Phase 1: exact eliminations and skolemization only — pending ∀s are
    // left in place so phase 2 can see the skolem constants they must be
    // instantiated with.
    let phase1 = elim(&normal, fresh, &mut incomplete, 0, None, false);
    if is_quantifier_free(&phase1) {
        return QfResult {
            formula: phase1,
            incomplete,
        };
    }
    // Phase 2: instantiate remaining ∀s against the problem-wide pool of
    // ground select indices (array-driven triggers) and atom bounds.
    let mut pool = BTreeMap::new();
    collect_select_pool(&phase1, &mut BTreeSet::new(), &mut pool);
    let formula = elim(&phase1, fresh, &mut incomplete, 0, Some(&pool), false);
    QfResult {
        formula,
        incomplete,
    }
}

fn is_quantifier_free(b: &BTerm) -> bool {
    match b {
        BTerm::True | BTerm::False | BTerm::Atom(_, _, _) => true,
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            is_quantifier_free(a) && is_quantifier_free(c)
        }
        BTerm::Not(a) => is_quantifier_free(a),
        BTerm::Exists(_, _) | BTerm::Forall(_, _) => false,
    }
}

const MAX_DEPTH: usize = 64;

/// Eliminates the quantifiers of `b` as far as `pool` allows: phase 1
/// (`None`) leaves an inexact `∀` in place, phase 2 instantiates it.
/// `in_forall` is set inside the body of a `∀` that is not yet
/// instantiated, where an inexact `∃` must stay an `∃`.
fn elim(
    b: &BTerm,
    fresh: &mut FreshNames,
    incomplete: &mut bool,
    depth: usize,
    pool: Option<&BTreeMap<String, Vec<ITerm>>>,
    in_forall: bool,
) -> BTerm {
    if depth > MAX_DEPTH {
        // Give up: replace with True (weakening) and flag incompleteness.
        *incomplete = true;
        return BTerm::True;
    }
    let mut go =
        |b: &BTerm, in_forall: bool| elim(b, fresh, incomplete, depth + 1, pool, in_forall);
    match b {
        BTerm::True | BTerm::False | BTerm::Atom(_, _, _) => b.clone(),
        BTerm::And(x, y) => go(x, in_forall).and(go(y, in_forall)),
        BTerm::Or(x, y) => go(x, in_forall).or(go(y, in_forall)),
        BTerm::Not(inner) => go(&nnf(inner, true), in_forall),
        BTerm::Implies(x, y) => go(&nnf(x, true), in_forall).or(go(y, in_forall)),
        BTerm::Exists(x, body) => {
            let body = go(body, in_forall);
            if let Some(result) = try_exact_exists(x, &body) {
                return result;
            }
            if in_forall {
                return BTerm::Exists(x.clone(), Box::new(body));
            }
            // Skolemize.
            let sk = fresh.fresh(&format!("sk_{x}"));
            subst_formula(&body, x, &ITerm::Var(sk))
        }
        BTerm::Forall(x, body) => {
            let body = go(body, true);
            // ∀x.B ≡ ¬∃x.¬B — try the exact dual elimination.
            let dual = nnf(&body, true);
            if let Some(result) = try_exact_exists(x, &dual) {
                return nnf(&result, true);
            }
            match pool {
                // Phase 1: leave the ∀ pending for the pooled phase.
                None => BTerm::Forall(x.clone(), Box::new(body)),
                // Phase 2: weakening finite instantiation.
                Some(pool) => {
                    *incomplete = true;
                    let candidates = instantiation_candidates(x, &body, pool);
                    BTerm::conj(candidates.into_iter().map(|t| {
                        let inst = subst_formula(&body, x, &t);
                        elim(&inst, fresh, incomplete, depth + 1, Some(pool), in_forall)
                    }))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> ITerm {
        ITerm::var("x")
    }
    fn y() -> ITerm {
        ITerm::var("y")
    }

    #[test]
    fn nnf_pushes_negation_into_atoms() {
        let b = x().le(ITerm::Const(3)).and(y().ge(ITerm::Const(0))).not();
        let n = nnf(&b, false);
        assert_eq!(
            n,
            x().rel(Rel::Gt, ITerm::Const(3))
                .or(y().rel(Rel::Lt, ITerm::Const(0)))
        );
    }

    #[test]
    fn nnf_implication() {
        let b = x().le(ITerm::Const(3)).implies(y().ge(ITerm::Const(0)));
        let n = nnf(&b, false);
        assert_eq!(
            n,
            x().rel(Rel::Gt, ITerm::Const(3))
                .or(y().ge(ITerm::Const(0)))
        );
        let neg = nnf(&b, true);
        assert_eq!(
            neg,
            x().le(ITerm::Const(3))
                .and(y().rel(Rel::Lt, ITerm::Const(0)))
        );
    }

    #[test]
    fn nnf_swaps_quantifiers_under_negation() {
        let b = x().le(y()).exists("x").not();
        match nnf(&b, false) {
            BTerm::Forall(v, body) => {
                assert_eq!(v, "x");
                assert_eq!(*body, x().rel(Rel::Gt, y()));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn exists_bounds_eliminate_exactly() {
        // ∃x. y ≤ x ∧ x ≤ z  ⟺  y ≤ z
        let body = y().le(x()).and(x().le(ITerm::var("z")));
        let result = try_exact_exists("x", &body).expect("unit coefficients");
        assert_eq!(result, y().le(ITerm::var("z")));
    }

    #[test]
    fn exists_equality_uses_one_point() {
        // ∃x. x == y + 1 ∧ x ≤ 5  ⟺  y + 1 ≤ 5
        let body = x()
            .eq_term(y().add(ITerm::Const(1)))
            .and(x().le(ITerm::Const(5)));
        let result = try_exact_exists("x", &body).expect("unit coefficients");
        // The result must not mention x and must be equivalent to y + 1 ≤ 5.
        let mut vars = BTreeSet::new();
        formula_vars(&result, &mut vars);
        assert!(!vars.contains("x"));
        assert!(vars.contains("y"));
    }

    #[test]
    fn exists_unbounded_side_is_true() {
        // ∃x. x ≥ y (no upper bounds) ⟺ true (over ℤ).
        let body = x().ge(y());
        let result = try_exact_exists("x", &body).expect("unit coefficients");
        assert_eq!(result, BTerm::True);
    }

    #[test]
    fn exists_nonunit_coefficient_falls_back() {
        // ∃x. 2x == y has no unit-coefficient elimination.
        let body = ITerm::Const(2).mul(x()).eq_term(y());
        assert_eq!(try_exact_exists("x", &body), None);
    }

    #[test]
    fn full_pipeline_skolemizes_nonunit_exists() {
        let mut fresh = FreshNames::new();
        let b = ITerm::Const(2).mul(x()).eq_term(y()).exists("x");
        let out = eliminate_quantifiers(&b, &mut fresh);
        assert!(!out.incomplete, "skolemization is exact");
        let mut vars = BTreeSet::new();
        formula_vars(&out.formula, &mut vars);
        assert!(vars.iter().any(|v| v.starts_with("sk_x!")));
    }

    #[test]
    fn forall_dual_elimination_is_exact() {
        // ∀x. (x ≥ y ⇒ x ≥ z) with exact elimination: ¬∃x. x ≥ y ∧ x < z
        // ⟺ ¬(y ≤ z - 1) ⟺ y > z - 1 ⟺ y ≥ z.
        let b = x().ge(y()).implies(x().ge(ITerm::var("z"))).forall("x");
        let mut fresh = FreshNames::new();
        let out = eliminate_quantifiers(&b, &mut fresh);
        assert!(!out.incomplete, "unit-coefficient forall must be exact");
        let mut vars = BTreeSet::new();
        formula_vars(&out.formula, &mut vars);
        assert!(!vars.contains("x"));
    }

    #[test]
    fn forall_nonunit_instantiates_and_flags() {
        let b = ITerm::Const(2)
            .mul(x())
            .rel(Rel::Ne, ITerm::Const(1))
            .forall("x");
        let mut fresh = FreshNames::new();
        let out = eliminate_quantifiers(&b, &mut fresh);
        assert!(out.incomplete, "instantiation must flag incompleteness");
    }

    #[test]
    fn exists_under_pending_forall_is_skolemized_per_instance() {
        // ∀x. ∃y. 2y = x: phase 1 must keep ∃y, so each instance of ∀x
        // gets its own skolem constant.
        let b = ITerm::Const(2)
            .mul(y())
            .eq_term(x())
            .exists("y")
            .forall("x");
        let mut incomplete = false;
        let phase1 = elim(&b, &mut FreshNames::new(), &mut incomplete, 0, None, false);
        assert_eq!(phase1, b);
        let out = eliminate_quantifiers(&b, &mut FreshNames::new());
        assert!(out.incomplete);
        assert!(is_quantifier_free(&out.formula));
    }

    #[test]
    fn candidates_that_a_binder_would_capture_are_dropped() {
        // x = y + 1 offers x := y + 1, but y is bound inside the body.
        let body = x().eq_term(y().add(ITerm::Const(1))).exists("y");
        let pool = BTreeMap::new();
        assert_eq!(
            instantiation_candidates("x", &body, &pool),
            vec![ITerm::Const(0)]
        );
        let open = x().eq_term(y().add(ITerm::Const(1)));
        assert_eq!(instantiation_candidates("x", &open, &pool).len(), 4);
    }

    #[test]
    fn substitution_stops_at_binders() {
        let b = x().le(y()).exists("x");
        let s = subst_formula(&b, "x", &ITerm::Const(7));
        assert_eq!(s, b);
        let s2 = subst_formula(&b, "y", &ITerm::Const(7));
        assert_eq!(s2, x().le(ITerm::Const(7)).exists("x"));
    }

    #[test]
    fn ne_atoms_split_in_dnf() {
        let body = x().rel(Rel::Ne, y());
        let mut table = Vec::new();
        let cubes = dnf_cubes("x", &body, &mut table).unwrap();
        assert_eq!(cubes, vec![vec![0], vec![1]]);
        assert_eq!((table[0].rel, table[1].rel), (Rel::Lt, Rel::Gt));
        let elim = try_exact_exists("x", &body).unwrap();
        // ∃x. x ≠ y is true over ℤ.
        assert_eq!(elim, BTerm::True);
    }
}
