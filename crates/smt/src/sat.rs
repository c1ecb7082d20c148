//! A CDCL SAT solver with two-watched-literal propagation, VSIDS-style
//! activity decisions from an order heap, first-UIP clause learning,
//! phase saving, and geometric restarts.
//!
//! The solver doubles as the propositional engine of the DPLL(T) driver in
//! [`crate::solver`]. A [`Theory`] follows the trail incrementally: it is
//! sent each literal as the trail grows, checked at every propagation
//! fixpoint, retracted level by level on backjumps, and given a final
//! check on each complete assignment. A theory conflict is learnt like a
//! boolean one: first-UIP analysis from the clause's highest level, then
//! a backjump to the learnt clause's assertion level.
//!
//! [`SatSolver::add_clause`] simplifies each clause against the level-0
//! assignment in place, which the CNF encoder relies on: it asserts root
//! conjuncts as units before it encodes the rest of a formula.

use std::fmt;

/// A propositional variable index.
pub type BVar = u32;

/// A literal: a variable with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var` with the given polarity.
    pub fn new(var: BVar, positive: bool) -> Lit {
        Lit(var * 2 + u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        self.0 / 2
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "b{}", self.var())
        } else {
            write!(f, "!b{}", self.var())
        }
    }
}

/// The verdict a theory returns for a complete propositional assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The assignment is theory-consistent.
    Consistent,
    /// Theory-inconsistent; the clause (over existing literals) must be
    /// added. It should be falsified by the current assignment.
    Conflict(Vec<Lit>),
    /// The theory could not decide (e.g. branch budget exhausted).
    Unknown,
}

/// A theory plugged into the CDCL search.
///
/// The search keeps an incremental theory in step with its trail: at each
/// propagation fixpoint it hands over every trail literal the theory has
/// not seen yet through [`Theory::assert_lit`], opening one
/// [`Theory::push_level`] per decision level first, and then runs
/// [`Theory::partial_check`]. Backjumping closes the levels above the
/// target with [`Theory::pop_level`]. [`Theory::final_check`] runs once
/// every variable is assigned (and every literal asserted). The level
/// hooks default to no-ops, so a theory that only implements
/// `final_check` sees complete assignments only.
pub trait Theory {
    /// Opens a decision level: what is asserted from now on is retracted
    /// by the matching [`Theory::pop_level`].
    fn push_level(&mut self) {}

    /// Retracts everything asserted since the matching
    /// [`Theory::push_level`].
    fn pop_level(&mut self) {}

    /// Asserts a literal that just became true on the trail.
    ///
    /// # Errors
    ///
    /// Returns a conflict clause (over existing literals, falsified by the
    /// current assignment) when the literal contradicts what is asserted.
    fn assert_lit(&mut self, _lit: Lit) -> Result<(), Vec<Lit>> {
        Ok(())
    }

    /// Checks the literals asserted so far, at a propagation fixpoint.
    fn partial_check(&mut self) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }

    /// Checks a complete assignment; `value(v)` is the assignment.
    fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict;
}

/// A trivial theory that accepts every assignment (pure SAT solving).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTheory;

impl Theory for NoTheory {
    fn final_check(&mut self, _value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }
}

/// Result of a SAT search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the vector assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Resource limit reached or theory returned unknown.
    Unknown,
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts: falsified clauses and theory conflicts alike.
    /// Both count toward restarts and the `max_conflicts` budget.
    pub conflicts: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of [`Theory::final_check`] calls, one per complete
    /// assignment the incremental checks did not already refute. Bound
    /// assertions and partial checks at propagation fixpoints are not
    /// counted.
    pub theory_checks: u64,
}

impl SatStats {
    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &SatStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.theory_checks += other.theory_checks;
    }

    /// The per-field difference `self - before`, for folding one check's
    /// contribution out of a long-lived (session) solver whose counters
    /// keep accumulating. `before` must be an earlier snapshot of the
    /// same counters.
    #[must_use]
    pub fn delta_since(&self, before: &SatStats) -> SatStats {
        SatStats {
            decisions: self.decisions - before.decisions,
            conflicts: self.conflicts - before.conflicts,
            propagations: self.propagations - before.propagations,
            restarts: self.restarts - before.restarts,
            theory_checks: self.theory_checks - before.theory_checks,
        }
    }
}

const UNDEF: i8 = 0;

/// A conflict found by the search: a falsified clause of the database, or
/// a theory conflict clause not yet added to it.
enum Conflict {
    Clause(u32),
    Theory(Vec<Lit>),
}

/// `VarHeap::pos` entry of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// The decision order: a binary max-heap of variables keyed by activity,
/// ties broken toward the lower index (MiniSat's order heap; Eén &
/// Sörensson, SAT 2003). The heap may hold assigned variables, which
/// [`SatSolver::decide`] skips, but every unassigned variable is in it, so
/// its best unassigned entry is the first highest-activity unassigned
/// variable.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<BVar>,
    /// Each variable's index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    /// Whether `a` comes before `b` in the decision order.
    fn before(activity: &[f64], a: BVar, b: BVar) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn contains(&self, v: BVar) -> bool {
        self.pos.get(v as usize).is_some_and(|&p| p != ABSENT)
    }

    fn insert(&mut self, v: BVar, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        if self.pos.len() <= v as usize {
            self.pos.resize(v as usize + 1, ABSENT);
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the order after `v`'s activity grew.
    fn increased(&mut self, v: BVar, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, activity);
        }
    }

    /// Removes and returns the first variable in the order.
    fn pop(&mut self, activity: &[f64]) -> Option<BVar> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap non-empty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Rebuilds the heap over its current entries (after a rescale may
    /// have turned distinct activities into ties).
    fn heapify(&mut self, activity: &[f64]) {
        for (i, &v) in self.heap.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    assigns: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    /// Scratch marks for [`SatSolver::analyze`]; all `false` between calls.
    seen: Vec<bool>,
    /// Trail prefix the theory of the running `solve_with` has been sent.
    theory_head: usize,
    /// Decision levels open in that theory.
    theory_levels: u32,
    ok: bool,
    /// Maximum conflicts before giving up (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Statistics for the last / current solve.
    pub stats: SatStats,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            var_inc: 1.0,
            ok: true,
            ..SatSolver::default()
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BVar {
        let v = self.assigns.len() as BVar;
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    fn value_lit(&self, l: Lit) -> i8 {
        let a = self.assigns[l.var() as usize];
        if l.is_positive() {
            a
        } else {
            -a
        }
    }

    fn decision_level(&self) -> u32 {
        self.lim.len() as u32
    }

    /// Adds a clause. Must be called at decision level 0.
    ///
    /// The clause is simplified against the level-0 assignment in place: a
    /// tautology or a clause a level-0 literal satisfies is dropped, false
    /// literals are removed, and a clause left with one literal is
    /// asserted and propagated at once. What remains is stored in `lits`
    /// itself, so a clause costs no allocation beyond the caller's.
    ///
    /// Returns `false` when the clause system became unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics when called above decision level 0 or with an out-of-range
    /// variable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-0 simplification, compacting in place: `kept`
        // trails `i`, so `lits[i + 1]` is still unread input.
        let mut kept = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            assert!((l.var() as usize) < self.assigns.len(), "unknown variable");
            if i + 1 < lits.len() && lits[i + 1] == l.negated() {
                return true; // tautology
            }
            match self.value_lit(l) {
                1 => return true, // already satisfied at level 0
                -1 => {}          // drop falsified literal
                _ => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
        }
        lits.truncate(kept);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[lits[0].index()].push(idx);
                self.watches[lits[1].index()].push(idx);
                self.clauses.push(lits);
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value_lit(l), UNDEF);
        let v = l.var() as usize;
        self.assigns[v] = if l.is_positive() { 1 } else { -1 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            // The watch list is compacted in place: `kept` trails `i`, and
            // a watch that moves to another literal is simply not kept. A
            // replacement watch is never `false_lit` itself (it is not
            // false), so taking the list out of `self` is safe.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = None;
            while i < watchers.len() {
                let ci = watchers[i];
                i += 1;
                let clause = &mut self.clauses[ci as usize];
                // Normalize: the falsified literal goes to position 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                // Satisfied by the other watch?
                let first = clause[0];
                if self.assigns[first.var() as usize] != UNDEF
                    && (self.assigns[first.var() as usize] == 1) == first.is_positive()
                {
                    watchers[kept] = ci;
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut moved = false;
                for k in 2..clause.len() {
                    let cand = clause[k];
                    let val = {
                        let a = self.assigns[cand.var() as usize];
                        if cand.is_positive() {
                            a
                        } else {
                            -a
                        }
                    };
                    if val != -1 {
                        clause.swap(1, k);
                        self.watches[cand.index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                watchers[kept] = ci;
                kept += 1;
                // Unit or conflict.
                match self.value_lit(first) {
                    -1 => {
                        conflict = Some(ci);
                        break;
                    }
                    UNDEF => self.enqueue(first, Some(ci)),
                    _ => {}
                }
            }
            // Keep the unvisited tail after a conflict.
            watchers.copy_within(i.., kept);
            watchers.truncate(kept + (watchers.len() - i));
            self.watches[false_lit.index()] = watchers;
            if let Some(ci) = conflict {
                self.qhead = self.trail.len();
                return Some(ci);
            }
        }
        None
    }

    fn bump(&mut self, v: BVar) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.heapify(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    /// First-UIP conflict analysis.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        // Slot 0 is filled with the asserting literal once it is found.
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);
        let current = self.decision_level();
        loop {
            let ci = confl.expect("reason must exist on the conflict path") as usize;
            for k in 0..self.clauses[ci].len() {
                let q = self.clauses[ci][k];
                if Some(q) == p {
                    continue;
                }
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = pl.negated();
                break;
            }
            confl = self.reason[pl.var() as usize];
            p = Some(pl);
        }
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Put a maximum-level literal at index 1 (the second watch).
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
        }
        (learnt, backjump)
    }

    /// Returns to decision level 0, keeping level-0 assignments. Needed
    /// before adding clauses after a `solve_with` that ended in `Sat` or
    /// `Unknown` (those outcomes leave the search trail in place).
    pub(crate) fn reset_to_root(&mut self) {
        self.backtrack_to(0);
    }

    fn backtrack_to(&mut self, target: u32) {
        while self.decision_level() > target {
            let mark = self.lim.pop().expect("level > 0");
            while self.trail.len() > mark {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var() as usize;
                self.assigns[v] = UNDEF;
                self.reason[v] = None;
                self.order.insert(l.var(), &self.activity);
            }
        }
        self.qhead = self.trail.len();
        // Clamp here, not after the caller enqueues an asserting literal:
        // that literal must still reach the theory.
        self.theory_head = self.theory_head.min(self.trail.len());
    }

    /// Backtracks to `target` and closes the theory's levels above it.
    fn backjump(&mut self, target: u32, theory: &mut dyn Theory) {
        self.backtrack_to(target);
        while self.theory_levels > target {
            theory.pop_level();
            self.theory_levels -= 1;
        }
    }

    /// Sends the theory every trail literal it has not seen, opening its
    /// decision levels as the literals require, then runs its partial
    /// check. Called at propagation fixpoints, where every unsent literal
    /// sits at the current decision level.
    fn sync_theory(&mut self, theory: &mut dyn Theory) -> TheoryVerdict {
        while let Some(&lit) = self.trail.get(self.theory_head) {
            let level = self.level[lit.var() as usize];
            while self.theory_levels < level {
                theory.push_level();
                self.theory_levels += 1;
            }
            if let Err(clause) = theory.assert_lit(lit) {
                return TheoryVerdict::Conflict(clause);
            }
            self.theory_head += 1;
        }
        theory.partial_check()
    }

    /// Opens a decision level on the first highest-activity unassigned
    /// variable, at its saved phase. Returns `false` when every variable
    /// is assigned.
    fn decide(&mut self) -> bool {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == UNDEF {
                self.stats.decisions += 1;
                self.lim.push(self.trail.len());
                let lit = Lit::new(v, self.phase[v as usize]);
                self.enqueue(lit, None);
                return true;
            }
        }
        false
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) -> bool {
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            if self.value_lit(learnt[0]) == -1 {
                self.ok = false;
                return false;
            }
            if self.value_lit(learnt[0]) == UNDEF {
                self.enqueue(learnt[0], None);
            }
            true
        } else {
            let idx = self.clauses.len() as u32;
            self.watches[learnt[0].index()].push(idx);
            self.watches[learnt[1].index()].push(idx);
            let first = learnt[0];
            self.clauses.push(learnt);
            debug_assert_eq!(self.value_lit(first), UNDEF);
            self.enqueue(first, Some(idx));
            true
        }
    }

    /// Learns from the falsified clause `ci` by first-UIP analysis and
    /// backjumps to the learnt clause's assertion level, where it asserts
    /// the clause's first literal. Returns `false` when the conflict holds
    /// at level 0 (unsatisfiable).
    fn learn(&mut self, ci: u32, theory: &mut dyn Theory) -> bool {
        if self.decision_level() == 0 {
            self.ok = false;
            return false;
        }
        let (learnt, backjump) = self.analyze(ci);
        self.backjump(backjump, theory);
        self.var_inc *= 1.05;
        self.record_learnt(learnt)
    }

    /// Learns from a theory conflict: a clause the current assignment
    /// falsifies. The search backtracks to the clause's highest level and
    /// stores it with watches on its two highest-level literals, so
    /// [`SatSolver::learn`] backjumps from there exactly as for a boolean
    /// conflict. A unit clause is asserted at level 0 instead. Returns
    /// `false` when the conflict holds at level 0 (unsatisfiable).
    fn theory_conflict(&mut self, mut clause: Vec<Lit>, theory: &mut dyn Theory) -> bool {
        clause.sort_unstable();
        clause.dedup();
        debug_assert!(
            clause.iter().all(|&l| self.value_lit(l) == -1),
            "a theory conflict clause must be falsified"
        );
        clause.sort_by_key(|l| std::cmp::Reverse(self.level[l.var() as usize]));
        let top = clause.first().map_or(0, |l| self.level[l.var() as usize]);
        if top == 0 {
            self.ok = false;
            return false;
        }
        if clause.len() == 1 {
            self.backjump(0, theory);
            self.enqueue(clause[0], None);
            return true;
        }
        self.backjump(top, theory);
        let idx = self.clauses.len() as u32;
        self.watches[clause[0].index()].push(idx);
        self.watches[clause[1].index()].push(idx);
        self.clauses.push(clause);
        self.learn(idx, theory)
    }

    /// Solves with a theory hook.
    pub fn solve_with(&mut self, theory: &mut dyn Theory) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        // The theory starts empty: it is sent the whole trail, root
        // literals included.
        self.backtrack_to(0);
        self.theory_head = 0;
        self.theory_levels = 0;
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            let conflict = match self.propagate() {
                Some(ci) => Conflict::Clause(ci),
                None => match self.sync_theory(theory) {
                    TheoryVerdict::Conflict(clause) => Conflict::Theory(clause),
                    TheoryVerdict::Unknown => return SatOutcome::Unknown,
                    TheoryVerdict::Consistent if self.trail.len() == self.num_vars() => {
                        self.stats.theory_checks += 1;
                        let assigns = &self.assigns;
                        match theory.final_check(&|v: BVar| assigns[v as usize] == 1) {
                            TheoryVerdict::Consistent => {
                                return SatOutcome::Sat(
                                    self.assigns.iter().map(|&a| a == 1).collect(),
                                );
                            }
                            TheoryVerdict::Unknown => return SatOutcome::Unknown,
                            TheoryVerdict::Conflict(clause) => Conflict::Theory(clause),
                        }
                    }
                    TheoryVerdict::Consistent => {
                        if conflicts_since_restart >= restart_limit {
                            self.stats.restarts += 1;
                            conflicts_since_restart = 0;
                            restart_limit = restart_limit * 3 / 2;
                            self.backjump(0, theory);
                        }
                        if !self.decide() {
                            unreachable!("decide fails only when all variables are assigned");
                        }
                        continue;
                    }
                },
            };
            self.stats.conflicts += 1;
            conflicts_since_restart += 1;
            if let Some(max) = self.max_conflicts {
                if self.stats.conflicts > max {
                    return SatOutcome::Unknown;
                }
            }
            let learned = match conflict {
                Conflict::Clause(ci) => self.learn(ci, theory),
                Conflict::Theory(clause) => self.theory_conflict(clause, theory),
            };
            if !learned {
                return SatOutcome::Unsat;
            }
        }
    }

    /// Solves as a pure SAT problem.
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_with(&mut NoTheory)
    }
}

#[cfg(test)]
impl SatSolver {
    /// The stored clauses, original and learnt, in the order they came.
    pub(crate) fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// The value of `l` under the current assignment, if it has one.
    pub(crate) fn value(&self, l: Lit) -> Option<bool> {
        match self.value_lit(l) {
            UNDEF => None,
            v => Some(v == 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_interp::rng::SplitMix64;

    fn lit(v: BVar, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    fn solver_with_vars(n: usize) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    /// The first highest-activity unassigned variable, found by scanning
    /// every variable: the decision rule the order heap implements.
    fn scan_decision(s: &SatSolver) -> Option<BVar> {
        let mut best: Option<BVar> = None;
        for v in 0..s.num_vars() {
            if s.assigns[v] == UNDEF && best.is_none_or(|b| s.activity[v] > s.activity[b as usize])
            {
                best = Some(v as BVar);
            }
        }
        best
    }

    #[test]
    fn order_heap_decides_like_a_linear_scan() {
        let mut rng = SplitMix64::seed_from_u64(0x0DE5_1DE5);
        let mut s = solver_with_vars(30);
        for round in 0..2000 {
            for _ in 0..rng.gen_u32_below(6) {
                // Few distinct increments keep activity ties common.
                s.var_inc = f64::from(1 + rng.gen_u32_below(3));
                s.bump(rng.gen_u32_below(s.num_vars() as u32));
            }
            if rng.gen_u32_below(10) == 0 {
                s.backtrack_to(rng.gen_u32_below(s.decision_level() + 1));
            }
            let expected = scan_decision(&s);
            assert_eq!(s.decide(), expected.is_some(), "round {round}");
            match expected {
                Some(v) => assert_eq!(s.trail.last().map(|l| l.var()), Some(v), "round {round}"),
                None => s.backtrack_to(0),
            }
        }
    }

    #[test]
    fn lit_encoding() {
        let l = lit(3, true);
        assert_eq!(l.var(), 3);
        assert!(l.is_positive());
        assert_eq!(l.negated().var(), 3);
        assert!(!l.negated().is_positive());
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with_vars(2);
        s.add_clause(vec![lit(0, true), lit(1, true)]);
        match s.solve() {
            SatOutcome::Sat(m) => assert!(m[0] || m[1]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(0, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(vec![]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause(vec![lit(0, true), lit(0, false)]));
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn chain_implication_unsat() {
        // x0, x0→x1, x1→x2, ¬x2
        let mut s = solver_with_vars(3);
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(0, false), lit(1, true)]);
        s.add_clause(vec![lit(1, false), lit(2, true)]);
        s.add_clause(vec![lit(2, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = solver_with_vars(6);
        let p = |i: u32, j: u32| i * 2 + j;
        for i in 0..3 {
            s.add_clause(vec![lit(p(i, 0), true), lit(p(i, 1), true)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(vec![lit(p(a, j), false), lit(p(b, j), false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // A small structured instance; verify the returned model.
        let mut s = solver_with_vars(4);
        let clauses = vec![
            vec![lit(0, true), lit(1, false)],
            vec![lit(1, true), lit(2, true), lit(3, false)],
            vec![lit(0, false), lit(3, true)],
            vec![lit(2, false), lit(3, false)],
        ];
        for c in &clauses {
            s.add_clause(c.clone());
        }
        match s.solve() {
            SatOutcome::Sat(m) => {
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| m[l.var() as usize] == l.is_positive()),
                        "model must satisfy every clause"
                    );
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    struct ParityTheory;
    impl Theory for ParityTheory {
        // Require an even number of true variables among b0..b2.
        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            let count = (0..3).filter(|&v| value(v)).count();
            if count % 2 == 0 {
                TheoryVerdict::Consistent
            } else {
                let clause = (0..3).map(|v| Lit::new(v, !value(v))).collect::<Vec<_>>();
                TheoryVerdict::Conflict(clause)
            }
        }
    }

    #[test]
    fn theory_hook_vetoes_assignments() {
        let mut s = solver_with_vars(3);
        // At least one variable true.
        s.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        let mut theory = ParityTheory;
        match s.solve_with(&mut theory) {
            SatOutcome::Sat(m) => {
                let count = m.iter().filter(|&&b| b).count();
                assert!(count % 2 == 0 && count > 0);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    struct RejectAll;
    impl Theory for RejectAll {
        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            let clause = (0..2).map(|v| Lit::new(v, !value(v))).collect();
            TheoryVerdict::Conflict(clause)
        }
    }

    #[test]
    fn theory_rejecting_everything_gives_unsat() {
        let mut s = solver_with_vars(2);
        let mut theory = RejectAll;
        assert_eq!(s.solve_with(&mut theory), SatOutcome::Unsat);
    }

    #[test]
    fn theory_conflict_resumes_at_its_top_level_not_at_root() {
        // With equal activities the search decides ¬b0, ¬b1, ¬b2, ¬b3 in
        // turn (levels 1–4). The theory clause b0 ∨ b1 has its top literal
        // at level 2, so the search learns from level 2 and backjumps to
        // level 1, asserting b1 there and keeping ¬b0.
        let mut s = solver_with_vars(4);
        for _ in 0..4 {
            assert!(s.decide());
        }
        assert_eq!(s.decision_level(), 4);
        assert!(s.theory_conflict(vec![lit(1, true), lit(0, true)], &mut NoTheory));
        assert_eq!(s.decision_level(), 1);
        assert_eq!(s.value_lit(lit(0, false)), 1);
        assert_eq!(s.value_lit(lit(1, true)), 1);
        assert_eq!(s.level[1], 1);
        assert_eq!(s.value_lit(lit(2, true)), UNDEF);
    }

    /// Mirrors the literals the search sends it, level by level, and
    /// checks at each final check that the mirror is exactly the
    /// assignment. Like [`ParityTheory`], it requires an even number of
    /// true variables among b0..b2, but refutes an odd count as soon as
    /// all three are asserted.
    struct MirrorParity {
        nvars: usize,
        /// Asserted literals per open level; `levels[0]` is the root.
        levels: Vec<Vec<Lit>>,
    }

    impl MirrorParity {
        fn parity_conflict(&self) -> TheoryVerdict {
            let parity: Vec<Lit> = self
                .levels
                .iter()
                .flatten()
                .copied()
                .filter(|l| l.var() < 3)
                .collect();
            if parity.len() == 3 && parity.iter().filter(|l| l.is_positive()).count() % 2 == 1 {
                TheoryVerdict::Conflict(parity.iter().map(|l| l.negated()).collect())
            } else {
                TheoryVerdict::Consistent
            }
        }
    }

    impl Theory for MirrorParity {
        fn push_level(&mut self) {
            self.levels.push(Vec::new());
        }

        fn pop_level(&mut self) {
            assert!(self.levels.len() > 1, "the root level is never popped");
            self.levels.pop();
        }

        fn assert_lit(&mut self, lit: Lit) -> Result<(), Vec<Lit>> {
            self.levels.last_mut().expect("root level").push(lit);
            Ok(())
        }

        fn partial_check(&mut self) -> TheoryVerdict {
            self.parity_conflict()
        }

        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            let mut mirror: Vec<Lit> = self.levels.iter().flatten().copied().collect();
            mirror.sort_unstable();
            for l in &mirror {
                assert_eq!(value(l.var()), l.is_positive(), "stale literal {l}");
            }
            mirror.dedup_by_key(|l| l.var());
            assert_eq!(mirror.len(), self.nvars, "every variable asserted once");
            self.parity_conflict()
        }
    }

    #[test]
    fn incremental_theory_follows_the_trail_on_random_cnfs() {
        let mut rng = SplitMix64::seed_from_u64(0x7EA1_0DD5);
        for round in 0..300 {
            let nvars = 3 + rng.gen_u32_below(6);
            let clauses: Vec<Vec<Lit>> = (0..rng.gen_u32_below(3 * nvars))
                .map(|_| {
                    (0..1 + rng.gen_u32_below(3))
                        .map(|_| lit(rng.gen_u32_below(nvars), rng.gen_u32_below(2) == 0))
                        .collect()
                })
                .collect();
            let expected = (0..1u32 << nvars).any(|bits| {
                (bits & 0b111).count_ones() % 2 == 0
                    && clauses.iter().all(|c| {
                        c.iter()
                            .any(|l| ((bits >> l.var()) & 1 == 1) == l.is_positive())
                    })
            });
            let mut s = solver_with_vars(nvars as usize);
            let mut ok = true;
            for c in &clauses {
                ok &= s.add_clause(c.clone());
            }
            let mut theory = MirrorParity {
                nvars: nvars as usize,
                levels: vec![Vec::new()],
            };
            let outcome = if ok {
                s.solve_with(&mut theory)
            } else {
                SatOutcome::Unsat
            };
            match outcome {
                SatOutcome::Sat(m) => {
                    assert!(expected, "round {round}: sat, table unsat");
                    assert_eq!(m[..3].iter().filter(|&&b| b).count() % 2, 0);
                    for c in &clauses {
                        assert!(c.iter().any(|l| m[l.var() as usize] == l.is_positive()));
                    }
                }
                SatOutcome::Unsat => assert!(!expected, "round {round}: unsat, table sat"),
                SatOutcome::Unknown => panic!("round {round}: unexpected unknown"),
            }
        }
    }
}
