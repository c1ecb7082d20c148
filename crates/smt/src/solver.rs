//! The DPLL(T) driver and public solving API.
//!
//! [`Solver::check_sat`] runs the full pipeline — quantifier elimination,
//! grounding, CNF encoding, CDCL search with the linear-integer-arithmetic
//! theory — and [`Solver::check_valid`] decides validity by refuting the
//! negation. Every "weakening" preprocessing step is tracked so that the
//! solver never claims `Sat`/`Invalid` from an under-constrained
//! approximation: such outcomes are reported as [`SmtResult::Unknown`].

use crate::ast::BTerm;
use crate::cnf::CnfBuilder;

/// Version of the decision procedure implemented by this crate.
///
/// The persistent verdict cache in `relaxed-core` folds this into its
/// configuration fingerprint: any behavioral change to the solver
/// pipeline — preprocessing, grounding, CNF encoding, CDCL search, the
/// simplex/branch-and-bound theory — must bump this constant so that
/// verdicts produced by the old solver are invalidated instead of
/// replayed (a source-only solver fix does not change `Cargo.lock`, so
/// nothing else distinguishes the two solvers on disk).
///
/// Version 2: the incremental session core ([`Solver::session`]) — the
/// one-shot pipeline now runs through a single-scope session, and the
/// theory keeps a persistent simplex tableau across checks.
///
/// Version 3: the CDCL(T) core decides from an activity heap, learns
/// theory conflicts by backjumping instead of restarting from level 0,
/// and asserts simplex bounds as the trail grows. The search order
/// changed, so `Invalid` witnesses differ from version 2's.
///
/// Version 4: the CNF asserts root conjuncts as units, shares one
/// Tseitin gate between equal subformulas, and links the atoms of each
/// linear form by bound axioms, so the search moved. Quantifier
/// elimination also stopped skolemizing an `∃` inside a `∀` that is not
/// yet instantiated: one constant stood for every value of the `∀`'s
/// variable, which refuted true formulas, so a version-3 store may hold
/// a wrong `Valid`.
pub const SOLVER_VERSION: u32 = 4;
use crate::ground::groundify;
use crate::linear::{BoundKind, IneqAtom, LinForm, VarId};
use crate::preprocess::{eliminate_quantifiers, FreshNames};
use crate::rational::Rat;
use crate::sat::{BVar, Lit, SatOutcome, SatStats, Theory, TheoryVerdict};
use crate::simplex::{IntCheck, Simplex};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An integer model: values for the named integer variables.
///
/// Values are `i128`: the simplex core computes over `i128`, and a
/// counterexample witness outside the `i64` range must be reported
/// exactly rather than coerced (a bogus narrowed value would point the
/// user at a state that does not violate the obligation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<String, i128>,
}

impl Model {
    /// The value of `name`, if assigned.
    pub fn get(&self, name: &str) -> Option<i128> {
        self.values.get(name).copied()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i128)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model assigns no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {value}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, i128)> for Model {
    fn from_iter<I: IntoIterator<Item = (String, i128)>>(iter: I) -> Self {
        Model {
            values: iter.into_iter().collect(),
        }
    }
}

impl FromIterator<(String, i64)> for Model {
    fn from_iter<I: IntoIterator<Item = (String, i64)>>(iter: I) -> Self {
        iter.into_iter().map(|(n, v)| (n, i128::from(v))).collect()
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable, with an integer model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Could not decide (reason attached).
    Unknown(String),
}

/// Result of a validity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The formula holds in every integer interpretation.
    Valid,
    /// A counterexample was found.
    Invalid(Model),
    /// Could not decide (reason attached).
    Unknown(String),
}

impl Validity {
    /// Whether the verdict is [`Validity::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid)
    }
}

/// Cumulative statistics across checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// SAT-engine statistics.
    pub sat: SatStats,
    /// Simplex pivot operations.
    pub pivots: u64,
    /// Branch-and-bound nodes.
    pub branch_nodes: u64,
    /// Distinct theory atoms, accumulated across checks.
    pub atoms: u64,
    /// Largest number of distinct theory atoms in any single check.
    pub max_atoms: u64,
    /// Number of `check_sat`/`check_valid` calls.
    pub queries: u64,
}

impl SolverStats {
    /// Merges `other` into `self`: counters accumulate, gauges take the
    /// maximum. This is the one place that knows how to aggregate stats,
    /// so callers summing per-query or per-VC statistics cannot silently
    /// drop a field.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.sat.absorb(&other.sat);
        self.pivots += other.pivots;
        self.branch_nodes += other.branch_nodes;
        self.atoms += other.atoms;
        self.max_atoms = self.max_atoms.max(other.max_atoms);
        self.queries += other.queries;
    }

    /// Every counter with its name, in one fixed order: the one list wire
    /// frames and trace spans render, so no caller spells the names out.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("queries", self.queries),
            ("pivots", self.pivots),
            ("branch_nodes", self.branch_nodes),
            ("atoms", self.atoms),
            ("max_atoms", self.max_atoms),
            ("decisions", self.sat.decisions),
            ("conflicts", self.sat.conflicts),
            ("propagations", self.sat.propagations),
            ("restarts", self.sat.restarts),
            ("theory_checks", self.sat.theory_checks),
        ]
    }

    /// The inverse of [`counters`](SolverStats::counters): the stats whose
    /// counter `name` is `value(name)`, or the first error `value` returns.
    pub fn from_counters<E>(mut value: impl FnMut(&str) -> Result<u64, E>) -> Result<Self, E> {
        Ok(SolverStats {
            queries: value("queries")?,
            pivots: value("pivots")?,
            branch_nodes: value("branch_nodes")?,
            atoms: value("atoms")?,
            max_atoms: value("max_atoms")?,
            sat: SatStats {
                decisions: value("decisions")?,
                conflicts: value("conflicts")?,
                propagations: value("propagations")?,
                restarts: value("restarts")?,
                theory_checks: value("theory_checks")?,
            },
        })
    }
}

/// The SMT solver facade.
///
/// # Examples
///
/// ```
/// use relaxed_smt::{Solver, ast::ITerm};
/// let mut solver = Solver::new();
/// // x + 1 ≤ y ∧ y ≤ x is unsatisfiable over ℤ.
/// let phi = ITerm::var("x").add(ITerm::Const(1)).le(ITerm::var("y"))
///     .and(ITerm::var("y").le(ITerm::var("x")));
/// assert_eq!(solver.check_sat(&phi), relaxed_smt::SmtResult::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    /// Conflict budget for the CDCL engine (per check).
    max_conflicts: u64,
    /// Node budget for branch-and-bound integrality search (per theory
    /// check).
    branch_budget: u64,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            max_conflicts: 200_000,
            branch_budget: 20_000,
            stats: SolverStats::default(),
        }
    }
}

// Parallel discharge engines move solvers and their verdicts across
// worker threads; keep these types `Send` (no interior `Rc`/`RefCell`).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Solver>();
    assert_send::<Model>();
    assert_send::<SmtResult>();
    assert_send::<Validity>();
};

impl Solver {
    /// Creates a solver with default budgets.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with explicit search budgets.
    ///
    /// `max_conflicts` bounds the CDCL search; `branch_budget` bounds
    /// branch-and-bound integrality search per theory check. Exhausting
    /// either yields [`SmtResult::Unknown`], never a wrong verdict.
    pub fn with_budgets(max_conflicts: u64, branch_budget: u64) -> Self {
        Solver {
            max_conflicts,
            branch_budget,
            stats: SolverStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The CDCL conflict budget per check.
    pub fn max_conflicts(&self) -> u64 {
        self.max_conflicts
    }

    /// The branch-and-bound node budget per theory check.
    pub fn branch_budget(&self) -> u64 {
        self.branch_budget
    }

    /// Opens an incremental session: a [`ScopedSolver`] whose
    /// assertions accumulate and whose `check_sat` can run after each
    /// one, keeping the CNF pool, learned clauses, and the simplex
    /// tableau alive across checks. Statistics fold into this solver's
    /// [`Solver::stats`] per check, exactly as the one-shot API reports
    /// them.
    pub fn session(&mut self) -> ScopedSolver<'_> {
        let branch_budget = self.branch_budget;
        ScopedSolver {
            solver: self,
            cnf: CnfBuilder::new(),
            fresh: FreshNames::new(),
            theory: SessionTheory::new(branch_budget),
            incomplete: false,
            encode_error: None,
        }
    }

    /// Decides satisfiability of `b` over the integers.
    ///
    /// A thin wrapper over a fresh [`Solver::session`] with one
    /// assertion; the verdict and statistics are those of the session's
    /// one check.
    pub fn check_sat(&mut self, b: &BTerm) -> SmtResult {
        let mut session = self.session();
        session.assert(b);
        session.check_sat()
    }

    /// Decides validity of `b` over the integers (refutation of `¬b`).
    pub fn check_valid(&mut self, b: &BTerm) -> Validity {
        match self.check_sat(&b.clone().not()) {
            SmtResult::Unsat => Validity::Valid,
            SmtResult::Sat(model) => Validity::Invalid(model),
            SmtResult::Unknown(reason) => Validity::Unknown(reason),
        }
    }
}

/// An incremental solving session over a borrowed [`Solver`].
///
/// Created by [`Solver::session`]. Assertions only accumulate: each
/// [`ScopedSolver::check_sat`] decides the conjunction of everything
/// asserted so far, reusing the CNF pool, interned atoms, learned
/// clauses and the persistent simplex tableau of the earlier checks.
/// Statistics for every check fold into the owning solver's
/// [`Solver::stats`] with one-shot-equivalent semantics (one `queries`
/// tick and one `atoms`/`max_atoms` contribution per check).
///
/// # Examples
///
/// ```
/// use relaxed_smt::{SmtResult, Solver, ast::ITerm};
/// let mut solver = Solver::new();
/// let mut session = solver.session();
/// session.assert(&ITerm::var("x").ge(ITerm::Const(3)));
/// assert!(matches!(session.check_sat(), SmtResult::Sat(_)));
/// session.assert(&ITerm::var("x").le(ITerm::Const(2)));
/// assert_eq!(session.check_sat(), SmtResult::Unsat);
/// ```
pub struct ScopedSolver<'a> {
    solver: &'a mut Solver,
    cnf: CnfBuilder,
    fresh: FreshNames,
    theory: SessionTheory,
    incomplete: bool,
    encode_error: Option<String>,
}

impl ScopedSolver<'_> {
    /// Asserts `b`. An encoding failure (a non-linear atom surviving
    /// grounding) taints the session: every later check reports
    /// [`SmtResult::Unknown`], never a wrong verdict.
    pub fn assert(&mut self, b: &BTerm) {
        // A previous check may have left the search trail in place.
        self.cnf.sat.reset_to_root();
        let qf = eliminate_quantifiers(b, &mut self.fresh);
        let grounding = groundify(&qf.formula, &mut self.fresh);
        self.incomplete |= qf.incomplete || grounding.incomplete;
        let full = grounding.formula.and(grounding.defs);
        if let Err(e) = self.cnf.assert_formula(&full) {
            if self.encode_error.is_none() {
                self.encode_error = Some(e.to_string());
            }
        }
    }

    /// The owning solver's statistics, including this session's checks
    /// (folded per check as they complete).
    pub fn stats(&self) -> SolverStats {
        self.solver.stats
    }

    /// Decides satisfiability of the conjunction of every assertion so
    /// far.
    pub fn check_sat(&mut self) -> SmtResult {
        self.solver.stats.queries += 1;
        if let Some(e) = &self.encode_error {
            return SmtResult::Unknown(e.clone());
        }
        let atoms = self.cnf.atoms.iter().flatten().count() as u64;
        self.solver.stats.atoms += atoms;
        self.solver.stats.max_atoms = self.solver.stats.max_atoms.max(atoms);

        // The CDCL conflict counter is cumulative across the session;
        // grant this check its own budget on top of what is already
        // spent.
        self.cnf.sat.max_conflicts = Some(self.cnf.sat.stats.conflicts + self.solver.max_conflicts);
        let sat_before = self.cnf.sat.stats;
        let spx = &self.theory.spx;
        let (pivots_before, branch_before) = (spx.pivots, spx.branch_nodes);
        let mut check = SessionCheck::open(&self.cnf.atoms, self.cnf.pool.len(), &mut self.theory);
        let outcome = self.cnf.sat.solve_with(&mut check);
        check.close();
        self.solver
            .stats
            .sat
            .absorb(&self.cnf.sat.stats.delta_since(&sat_before));
        let spx = &self.theory.spx;
        self.solver.stats.pivots += spx.pivots - pivots_before;
        self.solver.stats.branch_nodes += spx.branch_nodes - branch_before;

        match outcome {
            SatOutcome::Unsat => SmtResult::Unsat,
            SatOutcome::Unknown => SmtResult::Unknown("search budget exhausted".to_string()),
            SatOutcome::Sat(_) => {
                if self.incomplete {
                    return SmtResult::Unknown(
                        "satisfiable only under incomplete approximation".to_string(),
                    );
                }
                let values = self.theory.last_model.clone().unwrap_or_default();
                let model = self
                    .cnf
                    .pool
                    .iter()
                    .map(|(id, name)| {
                        let v = values.get(id as usize).copied().unwrap_or(0);
                        (name.to_string(), v)
                    })
                    .collect::<Model>();
                SmtResult::Sat(model)
            }
        }
    }
}

/// The persistent theory state of a session: one simplex tableau whose
/// columns (pool variables and cached slack definitions) live for the
/// whole session. Each check asserts its bounds inside the tableau's own
/// push/pop, so no bound outlives the check that asserted it.
struct SessionTheory {
    spx: Simplex,
    /// Pool id → simplex column (slack columns interleave, so the two id
    /// spaces diverge as soon as a non-trivial linear form is asserted).
    pool_to_spx: Vec<VarId>,
    /// Slack column for each non-trivial linear form, keyed by the
    /// pool-id form; reused across checks (definitional rows are always
    /// satisfiable, so keeping them is sound).
    slack_cache: HashMap<LinForm, VarId>,
    branch_budget: u64,
    /// Last feasible model, indexed by pool id.
    last_model: Option<Vec<i128>>,
}

impl SessionTheory {
    fn new(branch_budget: u64) -> Self {
        SessionTheory {
            spx: Simplex::new(),
            pool_to_spx: Vec::new(),
            slack_cache: HashMap::new(),
            branch_budget,
            last_model: None,
        }
    }

    /// The simplex column an atom's linear form bounds: the pool column
    /// of a single variable with coefficient 1, otherwise a cached slack
    /// column defined as the form.
    fn column(&mut self, form: &LinForm) -> VarId {
        let mut terms = form.iter();
        if let (Some((x, 1)), None) = (terms.next(), terms.next()) {
            return self.pool_to_spx[x as usize];
        }
        if let Some(&s) = self.slack_cache.get(form) {
            return s;
        }
        let mut spx_form = LinForm::zero();
        for (pool_id, c) in form.iter() {
            spx_form.add_term(self.pool_to_spx[pool_id as usize], c);
        }
        let s = self.spx.def_var(&spx_form);
        self.slack_cache.insert(form.clone(), s);
        s
    }
}

/// One check's view of the session theory: the current atom table plus
/// the persistent [`SessionTheory`] (split so the SAT engine can borrow
/// the atom table immutably while driving the theory mutably).
///
/// Bounds follow the SAT trail: each atom literal is asserted as a
/// simplex bound when it arrives, every decision level is one simplex
/// scope, and the whole check runs inside one more scope, so no bound
/// outlives the check ([`SessionCheck::close`]). The rational simplex
/// runs at each propagation fixpoint that brought a new bound;
/// branch-and-bound runs on complete assignments only.
struct SessionCheck<'a> {
    atoms: &'a [Option<IneqAtom>],
    st: &'a mut SessionTheory,
    /// The simplex column of each atom's form, indexed by SAT variable and
    /// filled on first use.
    columns: Vec<Option<VarId>>,
    /// The trail literal behind each bound tag.
    tag_lits: Vec<Lit>,
    /// `tag_lits.len()` when each open decision level began.
    levels: Vec<usize>,
    /// Whether a bound arrived since the last rational check. Popping a
    /// level leaves a bound set an earlier fixpoint found feasible, so it
    /// clears the flag.
    unchecked: bool,
}

impl<'a> SessionCheck<'a> {
    fn open(atoms: &'a [Option<IneqAtom>], pool_len: usize, st: &'a mut SessionTheory) -> Self {
        // Columns for pool variables interned since the last check.
        while st.pool_to_spx.len() < pool_len {
            st.pool_to_spx.push(st.spx.new_var());
        }
        st.spx.push();
        SessionCheck {
            atoms,
            st,
            columns: vec![None; atoms.len()],
            tag_lits: Vec::new(),
            levels: Vec::new(),
            unchecked: false,
        }
    }

    /// Retracts every bound this check asserted.
    fn close(self) {
        for _ in 0..=self.levels.len() {
            self.st.spx.pop();
        }
    }

    /// The clause that refutes the bounds a simplex conflict names (all
    /// asserted literals, should the conflict name none).
    fn explain(&self, c: &crate::simplex::Conflict) -> Vec<Lit> {
        if c.tags.is_empty() {
            self.tag_lits.iter().map(|l| l.negated()).collect()
        } else {
            c.tags
                .iter()
                .map(|&t| self.tag_lits[t as usize].negated())
                .collect()
        }
    }
}

impl Theory for SessionCheck<'_> {
    fn push_level(&mut self) {
        self.levels.push(self.tag_lits.len());
        self.st.spx.push();
    }

    fn pop_level(&mut self) {
        let len = self.levels.pop().expect("pop_level without push_level");
        self.tag_lits.truncate(len);
        self.st.spx.pop();
        self.unchecked = false;
    }

    fn assert_lit(&mut self, lit: Lit) -> Result<(), Vec<Lit>> {
        let v = lit.var() as usize;
        let Some(atom) = &self.atoms[v] else {
            return Ok(());
        };
        // Atoms are upper-bound canonical: `f ≤ b`, negated `f ≥ b + 1`.
        debug_assert!(matches!(atom.kind, BoundKind::Upper));
        let column = match self.columns[v] {
            Some(c) => c,
            None => {
                let c = self.st.column(&atom.form);
                self.columns[v] = Some(c);
                c
            }
        };
        let tag = Some(self.tag_lits.len() as u32);
        self.tag_lits.push(lit);
        let asserted = if lit.is_positive() {
            self.st.spx.assert_upper(column, Rat::int(atom.bound), tag)
        } else {
            self.st
                .spx
                .assert_lower(column, Rat::int(atom.bound + 1), tag)
        };
        self.unchecked = true;
        asserted.map_err(|c| self.explain(&c))
    }

    fn partial_check(&mut self) -> TheoryVerdict {
        if !std::mem::take(&mut self.unchecked) {
            return TheoryVerdict::Consistent;
        }
        match self.st.spx.check() {
            Ok(()) => TheoryVerdict::Consistent,
            Err(c) => TheoryVerdict::Conflict(self.explain(&c)),
        }
    }

    fn final_check(&mut self, _value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
        let st = &mut *self.st;
        let mut budget = st.branch_budget;
        match st.spx.check_int(&mut budget) {
            IntCheck::Feasible(values) => {
                st.last_model = Some(
                    st.pool_to_spx
                        .iter()
                        .map(|&col| values.get(col as usize).copied().unwrap_or(0))
                        .collect(),
                );
                TheoryVerdict::Consistent
            }
            IntCheck::Unknown => TheoryVerdict::Unknown,
            IntCheck::Infeasible(c) => TheoryVerdict::Conflict(self.explain(&c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ITerm, Rel};

    fn x() -> ITerm {
        ITerm::var("x")
    }
    fn y() -> ITerm {
        ITerm::var("y")
    }

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn simple_sat_with_model() {
        let phi = x().ge(ITerm::Const(3)).and(x().le(ITerm::Const(5)));
        match solver().check_sat(&phi) {
            SmtResult::Sat(m) => {
                let v = m.get("x").unwrap();
                assert!((3..=5).contains(&v));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let phi = x().ge(ITerm::Const(3)).and(x().le(ITerm::Const(2)));
        assert_eq!(solver().check_sat(&phi), SmtResult::Unsat);
    }

    #[test]
    fn integer_cut_unsat() {
        // 2x == 1 over ℤ.
        let phi = ITerm::Const(2).mul(x()).eq_term(ITerm::Const(1));
        assert_eq!(solver().check_sat(&phi), SmtResult::Unsat);
    }

    #[test]
    fn disjunction_picks_feasible_branch() {
        // (x ≤ 0 ∨ x ≥ 10) ∧ x ≥ 5 → x ≥ 10.
        let phi = x()
            .le(ITerm::Const(0))
            .or(x().ge(ITerm::Const(10)))
            .and(x().ge(ITerm::Const(5)));
        match solver().check_sat(&phi) {
            SmtResult::Sat(m) => assert!(m.get("x").unwrap() >= 10),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn valid_transitivity() {
        // x ≤ y ∧ y ≤ z ⇒ x ≤ z
        let phi = x()
            .le(y())
            .and(y().le(ITerm::var("z")))
            .implies(x().le(ITerm::var("z")));
        assert_eq!(solver().check_valid(&phi), Validity::Valid);
    }

    #[test]
    fn invalid_with_counterexample() {
        // x ≤ y ⇒ x == y is invalid.
        let phi = x().le(y()).implies(x().eq_term(y()));
        match solver().check_valid(&phi) {
            Validity::Invalid(m) => {
                let vx = m.get("x").unwrap();
                let vy = m.get("y").unwrap();
                assert!(vx < vy);
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn quantified_validity_via_elimination() {
        // ∀x. x ≥ y ⇒ x + 1 > y
        let phi = x()
            .ge(y())
            .implies(x().add(ITerm::Const(1)).rel(Rel::Gt, y()))
            .forall("x");
        assert_eq!(solver().check_valid(&phi), Validity::Valid);
    }

    #[test]
    fn exists_witness_validity() {
        // ∃x. x ≥ y — valid over ℤ (unbounded).
        let phi = x().ge(y()).exists("x");
        assert_eq!(solver().check_valid(&phi), Validity::Valid);
    }

    /// φ = ∀x. ∃y. (2y = x ∨ 2y = x + 1) is true over ℤ, and so is its
    /// form boxed to [0, 3]. Skolemizing `∃y` before `∀x` was instantiated
    /// used to give every `x` the same `y`, which refuted both.
    #[test]
    fn exists_under_forall_is_not_refuted() {
        let two_y = || ITerm::Const(2).mul(y());
        let halves = two_y()
            .eq_term(x())
            .or(two_y().eq_term(x().add(ITerm::Const(1))));
        let phi = halves.clone().exists("y").forall("x");
        assert!(matches!(solver().check_sat(&phi), SmtResult::Unknown(_)));
        assert!(!solver().check_valid(&phi.clone().not()).is_valid());
        let qe = eliminate_quantifiers(&phi, &mut FreshNames::new());
        assert!(qe.incomplete, "{:?}", qe.formula);
        let within = |v: ITerm| ITerm::Const(0).le(v.clone()).and(v.le(ITerm::Const(3)));
        let boxed = within(x())
            .implies(within(y()).and(halves).exists("y"))
            .forall("x");
        assert_ne!(solver().check_sat(&boxed), SmtResult::Unsat);
    }

    #[test]
    fn havoc_style_vc_is_valid() {
        // (∃v. lo ≤ v ∧ v ≤ hi) ∧ (∀v. lo ≤ v ∧ v ≤ hi ⇒ v ≥ lo) — the shape
        // the WP calculus emits for `havoc (v) st (lo ≤ v ≤ hi); assert v ≥ lo`.
        let v = ITerm::var("v");
        let lo = ITerm::var("lo");
        let hi = ITerm::var("hi");
        let pred = lo.clone().le(v.clone()).and(v.clone().le(hi.clone()));
        let vc = pred.clone().implies(v.clone().ge(lo.clone())).forall("v");
        // Valid regardless of satisfiability of the range.
        assert_eq!(solver().check_valid(&vc), Validity::Valid);
    }

    #[test]
    fn div_axioms_work() {
        // x == 7 ⇒ x / 2 == 3
        let q = ITerm::Div(Box::new(x()), Box::new(ITerm::Const(2)));
        let phi = x()
            .eq_term(ITerm::Const(7))
            .implies(q.eq_term(ITerm::Const(3)));
        assert_eq!(solver().check_valid(&phi), Validity::Valid);
        // And for negative operands (truncation): x == -7 ⇒ x / 2 == -3.
        let q2 = ITerm::Div(Box::new(x()), Box::new(ITerm::Const(2)));
        let phi2 = x()
            .eq_term(ITerm::Const(-7))
            .implies(q2.eq_term(ITerm::Const(-3)));
        assert_eq!(solver().check_valid(&phi2), Validity::Valid);
    }

    #[test]
    fn select_congruence_validity() {
        // i == j ⇒ a[i] == a[j]
        let ai = ITerm::Select("a".into(), Box::new(ITerm::var("i")));
        let aj = ITerm::Select("a".into(), Box::new(ITerm::var("j")));
        let phi = ITerm::var("i")
            .eq_term(ITerm::var("j"))
            .implies(ai.eq_term(aj));
        assert_eq!(solver().check_valid(&phi), Validity::Valid);
    }

    #[test]
    fn select_without_equal_indices_is_not_valid() {
        // a[i] == a[j] without i == j is invalid.
        let ai = ITerm::Select("a".into(), Box::new(ITerm::var("i")));
        let aj = ITerm::Select("a".into(), Box::new(ITerm::var("j")));
        let phi = ai.eq_term(aj);
        assert!(matches!(solver().check_valid(&phi), Validity::Invalid(_)));
    }

    #[test]
    fn nonlinear_sat_is_unknown_not_wrong() {
        // x*y == 6 is satisfiable, but multiplication is uninterpreted: the
        // solver must answer Unknown rather than claim a spurious model.
        let phi = x().mul(y()).eq_term(ITerm::Const(6));
        match solver().check_sat(&phi) {
            SmtResult::Unknown(_) => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn nonlinear_unsat_still_sound() {
        // x*y ≤ 5 ∧ x*y ≥ 7 is UNSAT even with uninterpreted products
        // (same product term on both sides).
        let phi = x()
            .mul(y())
            .le(ITerm::Const(5))
            .and(x().mul(y()).ge(ITerm::Const(7)));
        assert_eq!(solver().check_sat(&phi), SmtResult::Unsat);
    }

    #[test]
    fn pure_boolean_formula() {
        // true ∧ ¬false
        let phi = BTerm::True.and(BTerm::Not(Box::new(BTerm::False)));
        assert!(matches!(solver().check_sat(&phi), SmtResult::Sat(_)));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver();
        let phi = x().ge(ITerm::Const(3)).and(x().le(ITerm::Const(5)));
        let _ = s.check_sat(&phi);
        assert_eq!(s.stats().queries, 1);
        assert!(s.stats().sat.theory_checks >= 1);
    }

    #[test]
    fn atoms_accumulate_across_queries_with_max_gauge() {
        // Regression: `atoms` used to be overwritten per query, so
        // multi-query stats reported only the last query's atom count.
        let mut s = solver();
        let one_atom = x().ge(ITerm::Const(0));
        let two_atoms = x().ge(ITerm::Const(0)).and(x().le(ITerm::Const(9)));
        let _ = s.check_sat(&two_atoms);
        let after_first = s.stats().atoms;
        assert!(after_first >= 2);
        let _ = s.check_sat(&one_atom);
        assert!(s.stats().atoms > after_first, "atoms must accumulate");
        assert_eq!(s.stats().max_atoms, after_first, "gauge keeps the peak");
    }

    #[test]
    fn absorb_accumulates_every_counter() {
        // Regression: per-VC aggregation dropped `sat.restarts`.
        let mut a = SolverStats {
            pivots: 1,
            branch_nodes: 2,
            atoms: 3,
            max_atoms: 3,
            queries: 1,
            ..SolverStats::default()
        };
        a.sat.restarts = 2;
        a.sat.decisions = 5;
        let mut b = SolverStats {
            pivots: 10,
            branch_nodes: 20,
            atoms: 30,
            max_atoms: 7,
            queries: 2,
            ..SolverStats::default()
        };
        b.sat.restarts = 3;
        b.sat.conflicts = 4;
        a.absorb(&b);
        assert_eq!(a.sat.restarts, 5);
        assert_eq!(a.sat.decisions, 5);
        assert_eq!(a.sat.conflicts, 4);
        assert_eq!(a.pivots, 11);
        assert_eq!(a.branch_nodes, 22);
        assert_eq!(a.atoms, 33);
        assert_eq!(a.max_atoms, 7);
        assert_eq!(a.queries, 3);
    }

    #[test]
    fn from_counters_inverts_counters() {
        let mut values = 1..;
        let stats = SolverStats::from_counters(|_| values.next().ok_or(())).unwrap();
        let named = stats.counters();
        let values: Vec<u64> = named.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, Vec::from_iter(1..=10), "one field per counter");
        let lookup = |name: &str| named.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let rebuilt = SolverStats::from_counters(|n| lookup(n).ok_or(()));
        assert_eq!(rebuilt, Ok(stats));
    }

    #[test]
    fn wide_coefficient_counterexample_is_exact() {
        // x == y + y with y pinned at 6e18 forces x = 1.2e19 > i64::MAX.
        // Regression: the model used to coerce such witnesses to 0 via
        // `i64::try_from(v).unwrap_or(0)`.
        let big = 6_000_000_000_000_000_000i64;
        let phi = x()
            .eq_term(y().add(y()))
            .and(y().ge(ITerm::Const(big)))
            .and(y().le(ITerm::Const(big)));
        match solver().check_sat(&phi) {
            SmtResult::Sat(m) => {
                assert_eq!(m.get("y"), Some(i128::from(big)));
                assert_eq!(m.get("x"), Some(2 * i128::from(big)));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn injected_budgets_are_respected() {
        let s = Solver::with_budgets(123, 45);
        assert_eq!(s.max_conflicts(), 123);
        assert_eq!(s.branch_budget(), 45);
    }

    #[test]
    fn session_rechecks_after_each_assertion() {
        let mut solver = Solver::new();
        let mut session = solver.session();
        session.assert(&x().ge(ITerm::Const(3)));
        match session.check_sat() {
            SmtResult::Sat(m) => assert!(m.get("x").unwrap() >= 3),
            other => panic!("expected sat, got {other:?}"),
        }
        session.assert(&x().le(ITerm::Const(2)));
        assert_eq!(session.check_sat(), SmtResult::Unsat);
        assert_eq!(session.check_sat(), SmtResult::Unsat, "a recheck agrees");
        drop(session);
        assert_eq!(solver.stats().queries, 3);
    }

    #[test]
    fn session_stats_fold_per_check() {
        // Regression (queries/atoms/max_atoms used to assume one query
        // per solver): a session must fold one `queries` tick and one
        // `atoms`/`max_atoms` contribution per check.
        let mut solver = Solver::new();
        let mut session = solver.session();
        session.assert(&x().ge(ITerm::Const(0)).and(y().ge(x())));
        assert!(matches!(session.check_sat(), SmtResult::Sat(_)));
        let first = session.stats();
        assert_eq!(first.queries, 1);
        assert!(first.atoms > 0);
        assert_eq!(first.max_atoms, first.atoms, "single check: gauge == sum");
        session.assert(&y().le(ITerm::Const(-6)));
        assert_eq!(session.check_sat(), SmtResult::Unsat);
        let total = session.stats();
        drop(session);
        assert_eq!(solver.stats(), total);
        assert_eq!(total.queries, 2, "one query per check");
        // y ≤ -6 contradicts x ≥ 0 ∧ y ≥ x as soon as the root bounds are
        // asserted. The three atoms bound three different forms, so no
        // bound axiom links them and the simplex refutes them: a theory
        // conflict, counted as a conflict, with no final check of a
        // complete assignment.
        assert!(total.sat.conflicts > first.sat.conflicts);
        assert_eq!(total.sat.theory_checks, first.sat.theory_checks);
        assert!(
            total.atoms > first.atoms,
            "each check contributes its problem's atom count"
        );
        assert!(total.max_atoms >= first.max_atoms);
        assert!(
            total.max_atoms < total.atoms,
            "gauge is per-check, not the sum"
        );
    }

    #[test]
    fn session_encode_error_taints_later_checks() {
        let mut solver = Solver::new();
        let mut session = solver.session();
        session.assert(&x().ge(ITerm::Const(0)));
        assert!(matches!(session.check_sat(), SmtResult::Sat(_)));
        // A genuinely non-linear atom cannot be encoded.
        session.assert(&x().mul(y()).eq_term(ITerm::Const(6)));
        assert!(matches!(session.check_sat(), SmtResult::Unknown(_)));
        // Nor can the session decide anything after it, however plain.
        session.assert(&x().le(ITerm::Const(5)));
        match session.check_sat() {
            SmtResult::Unknown(_) => {}
            other => panic!("expected unknown in a tainted session, got {other:?}"),
        }
    }

    #[test]
    fn one_shot_wrappers_match_session_stats() {
        // The one-shot API is a thin wrapper over a one-check session;
        // its stats semantics are pinned by `stats_accumulate` and
        // `atoms_accumulate_across_queries_with_max_gauge` above. Verify
        // verdict equality against an explicit session here.
        let phi = x().ge(ITerm::Const(3)).and(x().le(ITerm::Const(5)));
        let mut one_shot = Solver::new();
        let r1 = one_shot.check_sat(&phi);
        let mut sessioned = Solver::new();
        let r2 = {
            let mut s = sessioned.session();
            s.assert(&phi);
            s.check_sat()
        };
        assert_eq!(r1, r2);
        assert_eq!(one_shot.stats(), sessioned.stats());
    }

    /// `x = 2y + 1 ∧ x = 2z` is rationally feasible, has no integer
    /// point and is unbounded, so branch-and-bound spends its whole
    /// budget: 20,000 branchings, 40,001 nodes. The search must fit the
    /// default 2 MiB stack of a spawned worker thread in every build.
    #[test]
    fn branch_and_bound_budget_runs_out_on_a_small_stack() {
        let goal = x()
            .eq_term(ITerm::Const(2).mul(y()).add(ITerm::Const(1)))
            .and(x().eq_term(ITerm::Const(2).mul(ITerm::var("z"))));
        let (result, stats) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut solver = Solver::new();
                let result = solver.check_sat(&goal);
                (result, solver.stats())
            })
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("the search fits the stack");
        assert_eq!(
            result,
            SmtResult::Unknown("search budget exhausted".to_string())
        );
        assert_eq!(stats.branch_nodes, 40_001);
    }
}
