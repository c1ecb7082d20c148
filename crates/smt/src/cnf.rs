//! Atom canonicalization and Tseitin CNF encoding.
//!
//! Each distinct canonical linear atom maps to one SAT variable;
//! syntactically complementary atoms (`f ≤ b` vs `f ≥ b+1`) map to the two
//! polarities of the *same* variable, so propositional reasoning sees the
//! complement structure for free.
//!
//! Three rules keep the CNF small and give the SAT core the bound order:
//! - **Root units.** [`CnfBuilder::assert_formula`] walks the top-level
//!   `∧`, `¬∨`, `¬⇒` and `¬¬` spine of an asserted formula and asserts
//!   each leaf as a unit as soon as the leaf is encoded. The spine gets no
//!   gates, and the gates of later leaves meet the earlier leaves as
//!   level-0 facts, which [`SatSolver::add_clause`] uses to drop satisfied
//!   clauses and false literals.
//! - **A gate table.** An `∧` or `∨` gate is keyed on its connective and
//!   its two child literals, smaller first, so equal subformulas and
//!   repeated `=` atoms share one gate.
//! - **Bound axioms.** The atoms of each linear form sit in one list
//!   sorted by bound. A new atom `f ≤ b` is linked to its nearest
//!   neighbours `b′ < b < b″` by `f ≤ b′ ⇒ f ≤ b` and `f ≤ b ⇒ f ≤ b″`.
//!   These are valid over ℤ, so satisfiability does not change, but unit
//!   propagation now follows the bound order without the simplex
//!   (Dutertre & de Moura, CAV 2006).
//!
//! The tables only grow: a session asserts formula after formula into
//! one builder, and a later formula reuses the atoms, gates and bound
//! entries of the earlier ones.

use crate::ast::{BTerm, ITerm, Rel};
use crate::linear::{canon_ineq, BoundKind, CanonAtom, IneqAtom, LinForm, VarPool};
use crate::preprocess::normalize_from;
use crate::sat::{BVar, Lit, SatSolver};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound;

/// Encoding failure: an atom was not linear after grounding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodeError {
    /// Description of the offending atom.
    pub message: String,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "encoding error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

/// Builds CNF from a grounded quantifier-free formula.
#[derive(Debug)]
pub struct CnfBuilder {
    /// The underlying SAT solver being populated.
    pub sat: SatSolver,
    /// Interned theory (integer) variables.
    pub pool: VarPool,
    /// Per SAT variable: the theory atom it stands for (upper-bound
    /// canonical), or `None` for pure propositional (Tseitin) variables.
    pub atoms: Vec<Option<IneqAtom>>,
    /// The atoms of each linear form: bound `b` of `f ≤ b` → its variable.
    bounds: HashMap<LinForm, BTreeMap<i128, BVar>>,
    /// Tseitin gates by connective and children, smaller child first, so
    /// equal subformulas share one gate.
    gates: HashMap<(Gate, Lit, Lit), Lit>,
    true_var: Option<BVar>,
}

/// The connective a Tseitin gate defines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Gate {
    And,
    Or,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        CnfBuilder::new()
    }
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CnfBuilder {
            sat: SatSolver::new(),
            pool: VarPool::new(),
            atoms: Vec::new(),
            bounds: HashMap::new(),
            gates: HashMap::new(),
            true_var: None,
        }
    }

    fn new_bool_var(&mut self) -> BVar {
        let v = self.sat.new_var();
        self.atoms.push(None);
        v
    }

    fn true_lit(&mut self) -> Lit {
        match self.true_var {
            Some(v) => Lit::new(v, true),
            None => {
                let v = self.new_bool_var();
                self.true_var = Some(v);
                let l = Lit::new(v, true);
                self.sat.add_clause(vec![l]);
                l
            }
        }
    }

    /// The literal for a canonical inequality atom. Complementary atoms
    /// share a variable with opposite polarity. A new atom `f ≤ b` is
    /// linked to its nearest neighbours `b′ < b < b″` on the same form by
    /// the bound axioms `f ≤ b′ ⇒ f ≤ b` and `f ≤ b ⇒ f ≤ b″`.
    fn atom_lit(&mut self, atom: IneqAtom) -> Lit {
        // Canonical key: the Upper representative.
        let (bound, positive) = match atom.kind {
            BoundKind::Upper => (atom.bound, true),
            // f ≥ b ⟺ ¬(f ≤ b−1)
            BoundKind::Lower => (atom.bound - 1, false),
        };
        let (form, ladder) = match self.bounds.entry(atom.form) {
            Entry::Occupied(e) => {
                if let Some(&v) = e.get().get(&bound) {
                    return Lit::new(v, positive);
                }
                (e.key().clone(), e.into_mut())
            }
            Entry::Vacant(e) => (e.key().clone(), e.insert(BTreeMap::new())),
        };
        let v = self.sat.new_var();
        let below = ladder.range(..bound).next_back().map(|(_, &w)| w);
        let above = ladder
            .range((Bound::Excluded(bound), Bound::Unbounded))
            .next()
            .map(|(_, &w)| w);
        ladder.insert(bound, v);
        self.atoms.push(Some(IneqAtom {
            form,
            kind: BoundKind::Upper,
            bound,
        }));
        let le = Lit::new(v, true);
        if let Some(w) = below {
            self.sat.add_clause(vec![Lit::new(w, false), le]);
        }
        if let Some(w) = above {
            self.sat.add_clause(vec![le.negated(), Lit::new(w, true)]);
        }
        Lit::new(v, positive)
    }

    /// The literal for `form + k rel 0` (`rel` neither `=` nor `≠`).
    fn ineq_lit(&mut self, form: LinForm, k: i128, rel: Rel) -> Lit {
        match canon_ineq(form, k, rel) {
            CanonAtom::True => self.true_lit(),
            CanonAtom::False => self.true_lit().negated(),
            CanonAtom::Ineq(atom) => self.atom_lit(atom),
        }
    }

    /// The linear form and constant of `lhs - rhs`. Names are interned in
    /// sorted order, after equal names merge and zero coefficients drop:
    /// pool ids fix the simplex columns, whose order breaks Bland's ties.
    fn linearize(&mut self, lhs: &ITerm, rhs: &ITerm) -> Result<(LinForm, i128), EncodeError> {
        let mut terms = Vec::new();
        let mut k = 0;
        if !(walk(lhs, 1, &mut terms, &mut k) && walk(rhs, -1, &mut terms, &mut k)) {
            return Err(EncodeError {
                message: format!("non-linear atom after grounding: Sub({lhs:?}, {rhs:?})"),
            });
        }
        normalize_from(&mut terms, 0);
        let mut form = LinForm::zero();
        for (name, c) in terms {
            form.add_term(self.pool.intern(name), c);
        }
        Ok((form, k))
    }

    /// The gate `g ⟺ lx op ly`: the existing one for these children, or a
    /// fresh variable with its three defining clauses.
    fn gate(&mut self, op: Gate, lx: Lit, ly: Lit) -> Lit {
        let vacant = match self.gates.entry((op, lx.min(ly), lx.max(ly))) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => e,
        };
        // `new_bool_var`, inlined: `vacant` still borrows the table.
        let g = Lit::new(self.sat.new_var(), true);
        self.atoms.push(None);
        vacant.insert(g);
        let (ng, nx, ny) = (g.negated(), lx.negated(), ly.negated());
        let clauses = match op {
            Gate::And => [vec![ng, lx], vec![ng, ly], vec![nx, ny, g]],
            Gate::Or => [vec![ng, lx, ly], vec![nx, g], vec![ny, g]],
        };
        for clause in clauses {
            self.sat.add_clause(clause);
        }
        g
    }

    /// Tseitin-encodes a formula, returning its literal.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a non-linear atom survives grounding or
    /// a quantifier is present.
    pub fn encode(&mut self, b: &BTerm) -> Result<Lit, EncodeError> {
        match b {
            BTerm::True => Ok(self.true_lit()),
            BTerm::False => Ok(self.true_lit().negated()),
            BTerm::Atom(rel, lhs, rhs) => {
                let (form, k) = self.linearize(lhs, rhs)?;
                Ok(match rel {
                    // `=` is `≤ ∧ ≥` and `≠` is `< ∨ >` over one form.
                    Rel::Eq => {
                        let le = self.ineq_lit(form.clone(), k, Rel::Le);
                        let ge = self.ineq_lit(form, k, Rel::Ge);
                        self.gate(Gate::And, le, ge)
                    }
                    Rel::Ne => {
                        let lt = self.ineq_lit(form.clone(), k, Rel::Lt);
                        let gt = self.ineq_lit(form, k, Rel::Gt);
                        self.gate(Gate::Or, lt, gt)
                    }
                    _ => self.ineq_lit(form, k, *rel),
                })
            }
            BTerm::And(x, y) => {
                let lx = self.encode(x)?;
                let ly = self.encode(y)?;
                Ok(self.gate(Gate::And, lx, ly))
            }
            BTerm::Or(x, y) => {
                let lx = self.encode(x)?;
                let ly = self.encode(y)?;
                Ok(self.gate(Gate::Or, lx, ly))
            }
            BTerm::Implies(x, y) => {
                // x ⇒ y is ¬x ∨ y.
                let lx = self.encode(x)?.negated();
                let ly = self.encode(y)?;
                Ok(self.gate(Gate::Or, lx, ly))
            }
            BTerm::Not(x) => Ok(self.encode(x)?.negated()),
            BTerm::Exists(_, _) | BTerm::Forall(_, _) => Err(EncodeError {
                message: "quantifier reached the CNF encoder".to_string(),
            }),
        }
    }

    /// Asserts a literal as a root constraint.
    pub fn assert_root(&mut self, lit: Lit) {
        self.sat.add_clause(vec![lit]);
    }

    /// Asserts `b` at the root. The top-level `∧`, `¬∨`, `¬⇒` and `¬¬`
    /// spine gets no gates: each leaf's literal is asserted as a unit as
    /// soon as the leaf is encoded, so the gates of later leaves meet it
    /// as a level-0 fact in [`SatSolver::add_clause`].
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] as [`CnfBuilder::encode`] does. The leaves
    /// before the failing one stay asserted.
    pub fn assert_formula(&mut self, b: &BTerm) -> Result<(), EncodeError> {
        self.assert_spine(b, true)
    }

    /// Asserts `b` (`positive`) or `¬b` (otherwise) at the root.
    fn assert_spine(&mut self, b: &BTerm, positive: bool) -> Result<(), EncodeError> {
        match (b, positive) {
            (BTerm::And(x, y), true) | (BTerm::Or(x, y), false) => {
                self.assert_spine(x, positive)?;
                self.assert_spine(y, positive)
            }
            (BTerm::Implies(x, y), false) => {
                self.assert_spine(x, true)?;
                self.assert_spine(y, false)
            }
            (BTerm::Not(x), _) => self.assert_spine(x, !positive),
            _ => {
                let lit = self.encode(b)?;
                self.assert_root(if positive { lit } else { lit.negated() });
                Ok(())
            }
        }
    }
}

/// The `(name, coefficient)` terms of a linear view, borrowed from the
/// term they come from; unsorted and possibly repeated until
/// [`normalize_from`] runs.
type Terms<'t> = Vec<(&'t str, i128)>;

/// Adds `sign · t` to `terms` and `k`. Returns `false` on exactly the
/// terms [`poly`](crate::preprocess::poly) rejects: `div`, `mod`,
/// `select`, `len`, and a product neither side of which cancels to a
/// constant.
fn walk<'t>(t: &'t ITerm, sign: i128, terms: &mut Terms<'t>, k: &mut i128) -> bool {
    match t {
        ITerm::Const(n) => {
            *k += sign * i128::from(*n);
            true
        }
        ITerm::Var(v) => {
            terms.push((v, sign));
            true
        }
        ITerm::Add(a, b) => walk(a, sign, terms, k) && walk(b, sign, terms, k),
        ITerm::Sub(a, b) => walk(a, sign, terms, k) && walk(b, -sign, terms, k),
        ITerm::Neg(a) => walk(a, -sign, terms, k),
        ITerm::Mul(a, b) => match (&**a, &**b) {
            (ITerm::Const(c), _) => walk(b, sign * i128::from(*c), terms, k),
            (_, ITerm::Const(c)) => walk(a, sign * i128::from(*c), terms, k),
            _ => {
                // Linear when one side cancels to a constant: walk each
                // side apart and look.
                let start = terms.len();
                let mut ka = 0;
                if !walk(a, 1, terms, &mut ka) {
                    return false;
                }
                normalize_from(terms, start);
                if terms.len() == start {
                    return walk(b, sign * ka, terms, k);
                }
                let mid = terms.len();
                let mut kb = 0;
                if !walk(b, 1, terms, &mut kb) {
                    return false;
                }
                normalize_from(terms, mid);
                if terms.len() > mid {
                    return false;
                }
                for (_, c) in &mut terms[start..] {
                    *c *= sign * kb;
                }
                *k += sign * ka * kb;
                true
            }
        },
        ITerm::Div(_, _) | ITerm::Mod(_, _) | ITerm::Select(_, _) | ITerm::Len(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::poly;
    use crate::sat::SatOutcome;
    use relaxed_interp::rng::SplitMix64;

    fn x() -> ITerm {
        ITerm::var("x")
    }

    #[test]
    fn complementary_atoms_share_a_variable() {
        let mut cnf = CnfBuilder::new();
        // x ≤ 3 and x ≥ 4 are complementary.
        let a = cnf.encode(&x().le(ITerm::Const(3))).unwrap();
        let b = cnf.encode(&x().ge(ITerm::Const(4))).unwrap();
        assert_eq!(a.var(), b.var());
        assert_ne!(a.is_positive(), b.is_positive());
    }

    #[test]
    fn distinct_bounds_get_distinct_variables() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.encode(&x().le(ITerm::Const(3))).unwrap();
        let b = cnf.encode(&x().le(ITerm::Const(5))).unwrap();
        assert_ne!(a.var(), b.var());
    }

    #[test]
    fn trivial_atoms_fold_to_constants() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.encode(&ITerm::Const(1).le(ITerm::Const(2))).unwrap();
        let f = cnf.encode(&ITerm::Const(2).le(ITerm::Const(1))).unwrap();
        assert_eq!(t, f.negated());
    }

    #[test]
    fn propositional_structure_solves() {
        // (x ≤ 3 ∨ x ≥ 10) ∧ ¬(x ≤ 3): boolean-satisfiable.
        let mut cnf = CnfBuilder::new();
        let phi = x()
            .le(ITerm::Const(3))
            .or(x().ge(ITerm::Const(10)))
            .and(BTerm::Not(Box::new(x().le(ITerm::Const(3)))));
        let root = cnf.encode(&phi).unwrap();
        cnf.assert_root(root);
        assert!(matches!(cnf.sat.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn boolean_contradiction_is_unsat_without_theory() {
        let mut cnf = CnfBuilder::new();
        let a = x().le(ITerm::Const(3));
        let phi = a.clone().and(BTerm::Not(Box::new(a)));
        let root = cnf.encode(&phi).unwrap();
        cnf.assert_root(root);
        assert_eq!(cnf.sat.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn equality_splits_into_two_bounds() {
        let mut cnf = CnfBuilder::new();
        let root = cnf.encode(&x().eq_term(ITerm::Const(5))).unwrap();
        cnf.assert_root(root);
        // Two theory atoms: x ≤ 5 and x ≤ 4 (for x ≥ 5).
        let natoms = cnf.atoms.iter().flatten().count();
        assert_eq!(natoms, 2);
    }

    fn y() -> ITerm {
        ITerm::var("y")
    }

    fn le(v: &str, b: i64) -> BTerm {
        ITerm::var(v).le(ITerm::Const(b))
    }

    /// `a ⇒ b` as the stored clause, literals sorted.
    fn implication(a: Lit, b: Lit) -> Vec<Lit> {
        let mut clause = vec![a.negated(), b];
        clause.sort_unstable();
        clause
    }

    #[test]
    fn bound_axioms_link_each_new_atom_to_its_neighbours() {
        let mut cnf = CnfBuilder::new();
        let three = cnf.encode(&le("x", 3)).unwrap();
        let seven = cnf.encode(&le("x", 7)).unwrap();
        let five = cnf.encode(&le("x", 5)).unwrap();
        // x ≤ 7 meets x ≤ 3 below it; x ≤ 5 then meets x ≤ 3 below and
        // x ≤ 7 above. Another form, or a bound the form already has,
        // adds nothing.
        cnf.encode(&le("y", 5)).unwrap();
        assert_eq!(
            cnf.encode(&x().ge(ITerm::Const(6))).unwrap(),
            five.negated()
        );
        assert_eq!(
            cnf.sat.clauses(),
            [
                implication(three, seven),
                implication(three, five),
                implication(five, seven)
            ]
        );
    }

    #[test]
    fn equal_subformulas_share_one_gate() {
        let mut cnf = CnfBuilder::new();
        let phi = le("x", 3).or(y().ge(ITerm::Const(2)));
        let g = cnf.encode(&phi).unwrap();
        let (vars, clauses) = (cnf.sat.num_vars(), cnf.sat.clauses().len());
        assert_eq!(cnf.encode(&phi).unwrap(), g);
        assert_eq!(
            cnf.encode(&y().ge(ITerm::Const(2)).or(le("x", 3))).unwrap(),
            g
        );
        assert_eq!(
            (cnf.sat.num_vars(), cnf.sat.clauses().len()),
            (vars, clauses)
        );
        // The same children under ∧ are another gate.
        assert_ne!(
            cnf.encode(&le("x", 3).and(y().ge(ITerm::Const(2))))
                .unwrap(),
            g
        );
        // A repeated `=` atom reuses its ∧ gate.
        let eq = cnf.encode(&x().eq_term(y())).unwrap();
        assert_eq!(cnf.encode(&x().eq_term(y())).unwrap(), eq);
    }

    #[test]
    fn root_conjunction_asserts_its_leaves_without_gates() {
        // x ≤ 3 ∧ ¬(y ≤ 0 ∨ z ≥ 6) ∧ ¬(w ≤ 1 ⇒ ¬¬(v ≤ 2)): five leaves on
        // five forms, so five atoms and no gate.
        let phi = le("x", 3)
            .and(BTerm::Not(Box::new(BTerm::Or(
                Box::new(le("y", 0)),
                Box::new(ITerm::var("z").ge(ITerm::Const(6))),
            ))))
            .and(BTerm::Not(Box::new(BTerm::Implies(
                Box::new(le("w", 1)),
                Box::new(BTerm::Not(Box::new(BTerm::Not(Box::new(le("v", 2)))))),
            ))));
        let mut cnf = CnfBuilder::new();
        cnf.assert_formula(&phi).unwrap();
        assert_eq!(cnf.sat.num_vars(), 5);
        assert!(cnf.atoms.iter().all(Option::is_some));
        assert!(cnf.sat.clauses().is_empty());
        let mut probe = CnfBuilder::new();
        for (leaf, holds) in [
            (le("x", 3), true),
            (le("y", 0), false),
            (le("z", 5), true),
            (le("w", 1), true),
            (le("v", 2), false),
        ] {
            let lit = probe.encode(&leaf).unwrap();
            assert_eq!(cnf.sat.value(lit), Some(holds), "{leaf:?}");
        }
    }

    #[test]
    fn quantifier_is_an_encoding_error() {
        let mut cnf = CnfBuilder::new();
        let q = x().le(ITerm::Const(3)).exists("x");
        assert!(cnf.encode(&q).is_err());
    }

    /// A random integer term over five names. Besides linear shapes it
    /// makes products whose side cancels to a constant, sums that cancel
    /// to zero, non-linear products, and (rarely) `select`, `div`, `mod`
    /// and `len`, which linearization rejects.
    fn random_term(rng: &mut SplitMix64, depth: u32) -> ITerm {
        let leaf = depth == 0 || rng.gen_u32_below(4) == 0;
        match if leaf {
            rng.gen_u32_below(2)
        } else {
            2 + rng.gen_u32_below(10)
        } {
            0 => ITerm::Const(rng.gen_range(-3..=3)),
            1 => ITerm::var(["c", "a!1", "b", "a", "a!0"][rng.gen_u32_below(5) as usize]),
            2 => random_term(rng, depth - 1).add(random_term(rng, depth - 1)),
            3 => random_term(rng, depth - 1).sub(random_term(rng, depth - 1)),
            4 => ITerm::Neg(Box::new(random_term(rng, depth - 1))),
            5 => ITerm::Const(rng.gen_range(-3..=3)).mul(random_term(rng, depth - 1)),
            6 => random_term(rng, depth - 1).mul(ITerm::Const(rng.gen_range(-3..=3))),
            7 => random_term(rng, depth - 1).mul(random_term(rng, depth - 1)),
            8 => {
                // t - t + c: cancels to a constant.
                let t = random_term(rng, depth - 1);
                let c = ITerm::Const(rng.gen_range(-2..=2));
                let constant = t.clone().sub(t).add(c);
                if rng.gen_bool() {
                    constant.mul(random_term(rng, depth - 1))
                } else {
                    random_term(rng, depth - 1).mul(constant)
                }
            }
            9 => {
                // t + -t: cancels to zero.
                let t = random_term(rng, depth - 1);
                t.clone().add(ITerm::Neg(Box::new(t)))
            }
            _ => match rng.gen_u32_below(8) {
                0 => ITerm::Select("arr".to_string(), Box::new(random_term(rng, depth - 1))),
                1 => ITerm::Div(
                    Box::new(random_term(rng, depth - 1)),
                    Box::new(ITerm::Const(2)),
                ),
                2 => ITerm::Mod(
                    Box::new(random_term(rng, depth - 1)),
                    Box::new(ITerm::Const(3)),
                ),
                3 => ITerm::Len("arr".to_string()),
                _ => random_term(rng, depth - 1),
            },
        }
    }

    /// The clone-free walker linearizes `lhs - rhs` exactly as
    /// `preprocess::poly` does: the same accepted terms, coefficients and
    /// constant, the same names interned in the same order, and the same
    /// error text for a rejected atom.
    #[test]
    fn linearization_matches_poly() {
        let mut rng = SplitMix64::seed_from_u64(0x11_4EA2);
        let (mut accepted, mut rejected, mut cancelled) = (0, 0, 0);
        for round in 0..2_000 {
            let lhs = random_term(&mut rng, 4);
            let rhs = random_term(&mut rng, 3);
            let diff = lhs.clone().sub(rhs.clone());
            let mut cnf = CnfBuilder::new();
            let mut reference = VarPool::new();
            let expected = poly(&diff).map(|(coeffs, k)| {
                let mut form = LinForm::zero();
                for (name, c) in coeffs {
                    form.add_term(reference.intern(&name), c);
                }
                (form, k)
            });
            match (cnf.linearize(&lhs, &rhs), expected) {
                (Ok(got), Some(want)) => {
                    accepted += 1;
                    cancelled += usize::from(got.0.is_zero());
                    assert_eq!(got, want, "round {round}: {diff:?}");
                }
                (Err(e), None) => {
                    rejected += 1;
                    let want = format!("non-linear atom after grounding: {diff:?}");
                    assert_eq!(e.message, want, "round {round}");
                }
                (got, want) => panic!("round {round}: {diff:?}: {got:?} vs {want:?}"),
            }
            let names =
                |pool: &VarPool| pool.iter().map(|(_, n)| n.to_string()).collect::<Vec<_>>();
            assert_eq!(names(&cnf.pool), names(&reference), "round {round}");
        }
        assert!(
            accepted > 300 && rejected > 300 && cancelled > 50,
            "{accepted} {rejected} {cancelled}"
        );
    }
}
