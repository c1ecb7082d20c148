//! A general simplex solver for linear arithmetic over ℚ with
//! branch-and-bound for integrality, in the style of Dutertre & de Moura
//! (“A fast linear-arithmetic solver for DPLL(T)”, CAV 2006).
//!
//! * Every *bound assertion* carries an optional external `Tag` (the DPLL(T)
//!   driver passes SAT literal indices); rational conflicts report the set
//!   of tags whose bounds participate in the infeasibility (a Farkas-style
//!   explanation read off the failing row).
//! * `push`/`pop` snapshot only the bound state — the tableau and the
//!   current β assignment carry over, which is what makes branch-and-bound
//!   and CDCL backtracking cheap.
//! * The tableau stores each basic variable's row sorted by column, and
//!   each column's list of the rows that mention it, so a nonbasic update
//!   or a pivot visits only the rows it changes.
//! * A *violated-basic list* holds every basic variable that may be out of
//!   bounds. A variable joins it when a bound is asserted on it or when
//!   its value moves (a nonbasic update, or a pivot, which also lists the
//!   entering variable), and leaves it once a check finds it within
//!   bounds. `pop` only loosens bounds, so every basic variable off the
//!   list is within its bounds, and [`Simplex::check`] takes Bland's pick
//!   (the smallest violated variable) from the list instead of scanning
//!   every row. A variable still violated after a conflict stays listed.
//! * All variables are integer-sorted; `check_int` layers branch-and-bound
//!   over the rational `check`, with a node budget to bound divergence on
//!   pathological unbounded problems (exceeding it yields
//!   [`IntCheck::Unknown`], which callers must treat as "not proved"). The
//!   search keeps its open branchings on an explicit stack, so a deep
//!   search cannot overflow the calling thread's stack.

use crate::linear::{LinForm, VarId};
use crate::rational::Rat;
use std::collections::BTreeMap;

/// External reason attached to a bound (a SAT literal index in DPLL(T)).
pub type Tag = u32;

/// An infeasibility explanation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Conflict {
    /// External tags of the participating bounds.
    pub tags: Vec<Tag>,
    /// Whether any internal (untagged, branch-and-bound) bound participated.
    pub used_internal: bool,
}

impl Conflict {
    fn merge(mut self, other: Conflict) -> Conflict {
        self.tags.extend(other.tags);
        self.tags.sort_unstable();
        self.tags.dedup();
        self.used_internal |= other.used_internal;
        self
    }
}

/// Result of an integer feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntCheck {
    /// Integer-feasible; the model assigns every variable an integer.
    Feasible(Vec<i128>),
    /// Integer-infeasible with an explanation.
    Infeasible(Conflict),
    /// The branch budget ran out before a verdict.
    Unknown,
}

#[derive(Clone, Debug)]
struct Bound {
    val: Rat,
    tag: Option<Tag>,
}

#[derive(Clone, Copy, Debug)]
enum Dir {
    Lower,
    Upper,
}

#[derive(Debug)]
struct UndoBound {
    var: VarId,
    dir: Dir,
    prev: Option<Bound>,
}

/// A basic variable's row `Σ coeff · nonbasic`: sorted by column, with no
/// zero coefficient.
type Row = Vec<(VarId, Rat)>;

/// The coefficient of `x` in `row`, if it occurs.
fn coeff(row: &Row, x: VarId) -> Option<Rat> {
    row.binary_search_by_key(&x, |&(y, _)| y)
        .ok()
        .map(|i| row[i].1)
}

/// Removes the basic variable `b` from a column's list of rows.
fn unlink(rows_of_column: &mut Vec<VarId>, b: VarId) {
    let i = rows_of_column
        .iter()
        .position(|&r| r == b)
        .expect("a row is listed in each of its columns");
    rows_of_column.swap_remove(i);
}

/// The violated-basic list: the basic variables that may be out of
/// bounds, each listed once.
#[derive(Debug, Default)]
struct Suspects {
    vars: Vec<VarId>,
    listed: Vec<bool>,
}

impl Suspects {
    fn insert(&mut self, x: VarId) {
        let listed = &mut self.listed[x as usize];
        if !*listed {
            *listed = true;
            self.vars.push(x);
        }
    }
}

/// One node's outcome in branch-and-bound.
enum Node {
    /// The node is decided.
    Leaf(IntCheck),
    /// Branch on the variable, whose value is the fraction.
    Branch(VarId, Rat),
}

/// A branching whose subtrees are not both explored yet.
struct Branching {
    var: VarId,
    beta: Rat,
    /// The `x ≤ ⌊β⌋` subtree's result, once known.
    down: Option<IntCheck>,
}

/// The simplex state.
#[derive(Debug, Default)]
pub struct Simplex {
    /// Per variable: its row while basic (`basic = Σ coeff · nonbasic`),
    /// `None` while nonbasic.
    rows: Vec<Option<Row>>,
    /// Per variable: the basic variables whose rows mention it.
    cols: Vec<Vec<VarId>>,
    values: Vec<Rat>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    trail: Vec<UndoBound>,
    scopes: Vec<usize>,
    /// Every basic variable off this list is within its bounds.
    suspects: Suspects,
    /// Statistics: pivot operations performed.
    pub pivots: u64,
    /// Statistics: branch-and-bound nodes explored.
    pub branch_nodes: u64,
}

impl Simplex {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Simplex::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Allocates a fresh unbounded variable with value 0.
    pub fn new_var(&mut self) -> VarId {
        let id = self.values.len() as VarId;
        self.rows.push(None);
        self.cols.push(Vec::new());
        self.values.push(Rat::ZERO);
        self.lower.push(None);
        self.upper.push(None);
        self.suspects.listed.push(false);
        id
    }

    /// Allocates a variable defined as the linear form `f` over existing
    /// variables. The new variable becomes basic with that defining row.
    ///
    /// # Panics
    ///
    /// Panics if `f` references an unknown variable.
    pub fn def_var(&mut self, f: &LinForm) -> VarId {
        let id = self.new_var();
        let mut row: BTreeMap<VarId, Rat> = BTreeMap::new();
        for (x, c) in f.iter() {
            assert!(
                (x as usize) < self.values.len() - 1,
                "unknown variable in def"
            );
            let c = Rat::int(c);
            match &self.rows[x as usize] {
                // x is basic: substitute its row.
                Some(xrow) => {
                    for &(y, a) in xrow {
                        *row.entry(y).or_insert(Rat::ZERO) += c * a;
                    }
                }
                None => *row.entry(x).or_insert(Rat::ZERO) += c,
            }
        }
        let row: Row = row.into_iter().filter(|(_, c)| !c.is_zero()).collect();
        self.values[id as usize] = row
            .iter()
            .map(|&(y, a)| a * self.values[y as usize])
            .fold(Rat::ZERO, |acc, v| acc + v);
        for &(y, _) in &row {
            self.cols[y as usize].push(id);
        }
        self.rows[id as usize] = Some(row);
        id
    }

    /// The current value β(x).
    pub fn value(&self, x: VarId) -> Rat {
        self.values[x as usize]
    }

    /// Opens a backtracking scope.
    pub fn push(&mut self) {
        self.scopes.push(self.trail.len());
    }

    /// Restores bounds to the last [`Simplex::push`].
    ///
    /// # Panics
    ///
    /// Panics when no scope is open.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without push");
        while self.trail.len() > mark {
            let undo = self.trail.pop().expect("trail length checked");
            match undo.dir {
                Dir::Lower => self.lower[undo.var as usize] = undo.prev,
                Dir::Upper => self.upper[undo.var as usize] = undo.prev,
            }
        }
    }

    fn is_basic(&self, x: VarId) -> bool {
        self.rows[x as usize].is_some()
    }

    /// Asserts `x ≤ val`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting pair of bounds when `val` is below the
    /// current lower bound of `x`.
    pub fn assert_upper(&mut self, x: VarId, val: Rat, tag: Option<Tag>) -> Result<(), Conflict> {
        let xi = x as usize;
        if let Some(u) = &self.upper[xi] {
            if u.val <= val {
                return Ok(());
            }
        }
        if let Some(l) = &self.lower[xi] {
            if val < l.val {
                let mut tags: Vec<Tag> = tag.into_iter().collect();
                let mut used_internal = tag.is_none();
                match l.tag {
                    Some(t) => tags.push(t),
                    None => used_internal = true,
                }
                return Err(Conflict {
                    tags,
                    used_internal,
                });
            }
        }
        self.trail.push(UndoBound {
            var: x,
            dir: Dir::Upper,
            prev: self.upper[xi].clone(),
        });
        self.upper[xi] = Some(Bound { val, tag });
        if self.is_basic(x) {
            self.suspects.insert(x);
        } else if self.values[xi] > val {
            self.update_nonbasic(x, val);
        }
        Ok(())
    }

    /// Asserts `x ≥ val`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting pair of bounds when `val` is above the
    /// current upper bound of `x`.
    pub fn assert_lower(&mut self, x: VarId, val: Rat, tag: Option<Tag>) -> Result<(), Conflict> {
        let xi = x as usize;
        if let Some(l) = &self.lower[xi] {
            if l.val >= val {
                return Ok(());
            }
        }
        if let Some(u) = &self.upper[xi] {
            if val > u.val {
                let mut tags: Vec<Tag> = tag.into_iter().collect();
                let mut used_internal = tag.is_none();
                match u.tag {
                    Some(t) => tags.push(t),
                    None => used_internal = true,
                }
                return Err(Conflict {
                    tags,
                    used_internal,
                });
            }
        }
        self.trail.push(UndoBound {
            var: x,
            dir: Dir::Lower,
            prev: self.lower[xi].clone(),
        });
        self.lower[xi] = Some(Bound { val, tag });
        if self.is_basic(x) {
            self.suspects.insert(x);
        } else if self.values[xi] < val {
            self.update_nonbasic(x, val);
        }
        Ok(())
    }

    /// Sets a nonbasic variable to `val`, updating dependent basics.
    fn update_nonbasic(&mut self, x: VarId, val: Rat) {
        let delta = val - self.values[x as usize];
        if delta.is_zero() {
            return;
        }
        for &b in &self.cols[x as usize] {
            let row = self.rows[b as usize]
                .as_ref()
                .expect("column rows are basic");
            let a = coeff(row, x).expect("a column's rows mention it");
            self.values[b as usize] += a * delta;
            self.suspects.insert(b);
        }
        self.values[x as usize] = val;
    }

    /// Bland's rule over the violated-basic list: the smallest basic
    /// variable out of its bounds, and whether it is below its lower
    /// bound. Listed variables found within bounds, or no longer basic,
    /// leave the list.
    fn violated_basic(&mut self) -> Option<(VarId, bool)> {
        let mut best: Option<(VarId, bool)> = None;
        let Suspects { vars, listed } = &mut self.suspects;
        vars.retain(|&b| {
            let bi = b as usize;
            let beta = self.values[bi];
            let below = self.lower[bi].as_ref().is_some_and(|l| beta < l.val);
            let above = self.upper[bi].as_ref().is_some_and(|u| beta > u.val);
            let violated = self.rows[bi].is_some() && (below || above);
            if !violated {
                listed[bi] = false;
            } else if best.is_none_or(|(v, _)| b < v) {
                best = Some((b, below));
            }
            violated
        });
        #[cfg(debug_assertions)]
        assert_eq!(
            best,
            self.oob_basic(),
            "the violated-basic list must yield a full scan's pick"
        );
        best
    }

    /// Bland's pick by a full scan of the basic variables; checks the
    /// violated-basic list in debug builds.
    #[cfg(debug_assertions)]
    fn oob_basic(&self) -> Option<(VarId, bool)> {
        (0..self.values.len()).find_map(|bi| {
            self.rows[bi].as_ref()?;
            let beta = self.values[bi];
            if self.lower[bi].as_ref().is_some_and(|l| beta < l.val) {
                Some((bi as VarId, true))
            } else if self.upper[bi].as_ref().is_some_and(|u| beta > u.val) {
                Some((bi as VarId, false))
            } else {
                None
            }
        })
    }

    /// Rational feasibility check.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] naming the bounds responsible when the
    /// asserted bounds are infeasible over ℚ.
    pub fn check(&mut self) -> Result<(), Conflict> {
        while let Some((xi, below)) = self.violated_basic() {
            let own = if below {
                self.lower[xi as usize].as_ref()
            } else {
                self.upper[xi as usize].as_ref()
            }
            .expect("a violated variable has the bound it violates");
            let row = self.rows[xi as usize].as_ref().expect("oob var is basic");
            // Find an entering variable (Bland: smallest index) that moves
            // β(xi) toward its bound: when xi is violated below, positive
            // coefficients must increase and negative ones decrease; dually
            // above.
            let entering = row.iter().find_map(|&(y, a)| {
                let yi = y as usize;
                let ok = if below == (a.signum() > 0) {
                    self.can_increase(yi)
                } else {
                    self.can_decrease(yi)
                };
                ok.then_some(y)
            });
            match entering {
                Some(xj) => {
                    let target = own.val;
                    self.pivot_and_update(xi, target, xj);
                }
                None => {
                    // Infeasible: every nonbasic is at its limiting bound.
                    let mut conflict = Conflict::default();
                    match own.tag {
                        Some(t) => conflict.tags.push(t),
                        None => conflict.used_internal = true,
                    }
                    for &(y, a) in row {
                        let yi = y as usize;
                        // When xi is violated below, positive coefficients are
                        // stuck at their upper bound and negative ones at
                        // their lower bound; dually above.
                        let bound = if below == (a.signum() > 0) {
                            self.upper[yi].as_ref()
                        } else {
                            self.lower[yi].as_ref()
                        };
                        match bound.map(|b| b.tag) {
                            Some(Some(t)) => conflict.tags.push(t),
                            _ => conflict.used_internal = true,
                        }
                    }
                    conflict.tags.sort_unstable();
                    conflict.tags.dedup();
                    return Err(conflict);
                }
            }
        }
        Ok(())
    }

    fn can_increase(&self, yi: usize) -> bool {
        match &self.upper[yi] {
            None => true,
            Some(u) => self.values[yi] < u.val,
        }
    }

    fn can_decrease(&self, yi: usize) -> bool {
        match &self.lower[yi] {
            None => true,
            Some(l) => self.values[yi] > l.val,
        }
    }

    /// Pivots basic `xi` out (setting β(xi) = v) and nonbasic `xj` in.
    fn pivot_and_update(&mut self, xi: VarId, v: Rat, xj: VarId) {
        self.pivots += 1;
        let row = self.rows[xi as usize].take().expect("xi must be basic");
        for &(k, _) in &row {
            unlink(&mut self.cols[k as usize], xi);
        }
        let a_ij = coeff(&row, xj).expect("xj must appear in row");
        let theta = (v - self.values[xi as usize]) / a_ij;
        self.values[xi as usize] = v;
        self.values[xj as usize] += theta;
        self.suspects.insert(xj);
        // New row for xj: xj = (xi - Σ_{k≠j} a_k x_k) / a_ij. No row
        // mentions the basic xi, so it enters every row below as new.
        let mut new_row: Row = Vec::with_capacity(row.len());
        let at = row.partition_point(|&(k, _)| k < xi);
        for (i, &(k, a)) in row.iter().enumerate() {
            if i == at {
                new_row.push((xi, a_ij.recip()));
            }
            if k != xj {
                new_row.push((k, -a / a_ij));
            }
        }
        if at == row.len() {
            new_row.push((xi, a_ij.recip()));
        }
        // Every other row mentioning xj moves with it; substitute the new
        // row for xj there.
        for b in std::mem::take(&mut self.cols[xj as usize]) {
            let bi = b as usize;
            let brow = self.rows[bi].take().expect("column rows are basic");
            let coef = coeff(&brow, xj).expect("a column's rows mention it");
            self.values[bi] += coef * theta;
            self.suspects.insert(b);
            let mut merged: Row = Vec::with_capacity(brow.len() + new_row.len());
            let mut old = brow.into_iter().filter(|&(y, _)| y != xj).peekable();
            for &(k, a) in &new_row {
                while let Some(entry) = old.next_if(|&(y, _)| y < k) {
                    merged.push(entry);
                }
                let add = coef * a;
                match old.next_if(|&(y, _)| y == k) {
                    Some((_, c)) => {
                        let sum = c + add;
                        if sum.is_zero() {
                            unlink(&mut self.cols[k as usize], b);
                        } else {
                            merged.push((k, sum));
                        }
                    }
                    None => {
                        merged.push((k, add));
                        self.cols[k as usize].push(b);
                    }
                }
            }
            merged.extend(old);
            self.rows[bi] = Some(merged);
        }
        for &(k, _) in &new_row {
            self.cols[k as usize].push(xj);
        }
        self.rows[xj as usize] = Some(new_row);
    }

    /// Counts one branch-and-bound node and runs the rational check on
    /// it: the node's verdict, or the first fractional variable to branch
    /// on, which spends one unit of `budget`.
    fn node(&mut self, budget: &mut u64) -> Node {
        self.branch_nodes += 1;
        if let Err(c) = self.check() {
            return Node::Leaf(IntCheck::Infeasible(c));
        }
        let frac = (0..self.values.len()).find(|&x| !self.values[x].is_integer());
        let Some(x) = frac else {
            return Node::Leaf(IntCheck::Feasible(
                self.values.iter().map(Rat::numer).collect(),
            ));
        };
        if *budget == 0 {
            return Node::Leaf(IntCheck::Unknown);
        }
        *budget -= 1;
        Node::Branch(x as VarId, self.values[x])
    }

    /// Integer feasibility via branch-and-bound with a node `budget`.
    ///
    /// A depth-first search over an explicit stack of open branchings. A
    /// node branching on `x = β` explores `x ≤ ⌊β⌋` first and `x ≥ ⌈β⌉`
    /// only when the first is not feasible; each subtree runs in its own
    /// scope, and a node whose branch bound conflicts outright is not
    /// counted. Two infeasible subtrees merge their conflicts, which then
    /// count as internal: the branch bounds took part.
    pub fn check_int(&mut self, budget: &mut u64) -> IntCheck {
        let mut open: Vec<Branching> = Vec::new();
        'node: loop {
            let mut result = match self.node(budget) {
                Node::Leaf(verdict) => verdict,
                Node::Branch(var, beta) => {
                    open.push(Branching {
                        var,
                        beta,
                        down: None,
                    });
                    self.push();
                    match self.assert_upper(var, Rat::int(beta.floor()), None) {
                        Ok(()) => continue 'node,
                        Err(c) => IntCheck::Infeasible(c),
                    }
                }
            };
            // Hand the subtree's result to its branching: after the ⌊β⌋
            // subtree that opens the ⌈β⌉ one; after both, the branching is
            // decided and its result goes one level up.
            loop {
                let Some(top) = open.last_mut() else {
                    return result;
                };
                self.pop();
                match top.down.take() {
                    None => {
                        if let IntCheck::Feasible(_) = result {
                            open.pop();
                            continue;
                        }
                        top.down = Some(result);
                        let (var, beta) = (top.var, top.beta);
                        self.push();
                        match self.assert_lower(var, Rat::int(beta.ceil()), None) {
                            Ok(()) => continue 'node,
                            Err(c) => result = IntCheck::Infeasible(c),
                        }
                    }
                    Some(down) => {
                        open.pop();
                        result = match (down, result) {
                            (IntCheck::Infeasible(a), IntCheck::Infeasible(b)) => {
                                let mut merged = a.merge(b);
                                // Branch bounds are internal by construction.
                                merged.used_internal = true;
                                IntCheck::Infeasible(merged)
                            }
                            (_, IntCheck::Feasible(m)) => IntCheck::Feasible(m),
                            _ => IntCheck::Unknown,
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(pairs: &[(VarId, i128)]) -> LinForm {
        let mut f = LinForm::zero();
        for &(x, c) in pairs {
            f.add_term(x, c);
        }
        f
    }

    #[test]
    fn feasible_box() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        // x + y with 1 ≤ x+y ≤ 3, 0 ≤ x ≤ 1, 0 ≤ y ≤ 5.
        let sum = s.def_var(&lin(&[(x, 1), (y, 1)]));
        s.assert_lower(sum, Rat::int(1), Some(0)).unwrap();
        s.assert_upper(sum, Rat::int(3), Some(1)).unwrap();
        s.assert_lower(x, Rat::int(0), Some(2)).unwrap();
        s.assert_upper(x, Rat::int(1), Some(3)).unwrap();
        s.assert_lower(y, Rat::int(0), Some(4)).unwrap();
        s.assert_upper(y, Rat::int(5), Some(5)).unwrap();
        assert!(s.check().is_ok());
        let vx = s.value(x);
        let vy = s.value(y);
        assert!(vx + vy >= Rat::int(1) && vx + vy <= Rat::int(3));
    }

    #[test]
    fn direct_bound_conflict() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, Rat::int(5), Some(7)).unwrap();
        let err = s.assert_upper(x, Rat::int(3), Some(9)).unwrap_err();
        assert_eq!(err.tags, vec![9, 7]);
        assert!(!err.used_internal);
    }

    #[test]
    fn row_conflict_reports_participating_tags() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.def_var(&lin(&[(x, 1), (y, 1)]));
        // x ≤ 1 (tag 10), y ≤ 1 (tag 11), x + y ≥ 3 (tag 12): infeasible.
        s.assert_upper(x, Rat::int(1), Some(10)).unwrap();
        s.assert_upper(y, Rat::int(1), Some(11)).unwrap();
        s.assert_lower(sum, Rat::int(3), Some(12)).unwrap();
        let err = s.check().unwrap_err();
        assert!(!err.used_internal);
        let mut tags = err.tags.clone();
        tags.sort_unstable();
        assert_eq!(tags, vec![10, 11, 12]);
    }

    #[test]
    fn push_pop_restores_feasibility() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, Rat::int(0), Some(0)).unwrap();
        s.assert_upper(x, Rat::int(10), Some(1)).unwrap();
        assert!(s.check().is_ok());
        s.push();
        s.assert_lower(x, Rat::int(20), None).unwrap_err();
        s.pop();
        assert!(s.check().is_ok());
        // The tighter bound must be gone: x = 15 is now assertable.
        s.push();
        assert!(s.assert_lower(x, Rat::int(5), None).is_ok());
        s.pop();
    }

    #[test]
    fn integer_branching_finds_integral_point() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        // 2x + 2y = 5 has rational but no integer solutions in a box.
        let f = s.def_var(&lin(&[(x, 2), (y, 2)]));
        s.assert_lower(f, Rat::int(5), Some(0)).unwrap();
        s.assert_upper(f, Rat::int(5), Some(1)).unwrap();
        s.assert_lower(x, Rat::int(0), Some(2)).unwrap();
        s.assert_upper(x, Rat::int(5), Some(3)).unwrap();
        s.assert_lower(y, Rat::int(0), Some(4)).unwrap();
        s.assert_upper(y, Rat::int(5), Some(5)).unwrap();
        let mut budget = 1000;
        match s.check_int(&mut budget) {
            IntCheck::Infeasible(c) => assert!(c.used_internal),
            other => panic!("expected integer infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn integer_feasible_model_is_integral() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        // 2x + 3y = 7, 0 ≤ x,y ≤ 5 → (2,1) works.
        let f = s.def_var(&lin(&[(x, 2), (y, 3)]));
        s.assert_lower(f, Rat::int(7), Some(0)).unwrap();
        s.assert_upper(f, Rat::int(7), Some(1)).unwrap();
        for (v, t) in [(x, 2u32), (y, 4u32)] {
            s.assert_lower(v, Rat::int(0), Some(t)).unwrap();
            s.assert_upper(v, Rat::int(5), Some(t + 1)).unwrap();
        }
        let mut budget = 1000;
        match s.check_int(&mut budget) {
            IntCheck::Feasible(m) => {
                let vx = m[x as usize];
                let vy = m[y as usize];
                assert_eq!(2 * vx + 3 * vy, 7);
                assert!((0..=5).contains(&vx) && (0..=5).contains(&vy));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_problem_is_feasible() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let f = s.def_var(&lin(&[(x, 1), (y, -1)]));
        s.assert_lower(f, Rat::int(100), Some(0)).unwrap();
        let mut budget = 100;
        assert!(matches!(s.check_int(&mut budget), IntCheck::Feasible(_)));
    }

    /// A bound of a random script: the variable, whether it is an upper
    /// bound, and its value. A bound's tag is its index in the script.
    type ScriptBound = (VarId, bool, i128);

    /// Whether `point` (one value per column) meets every bound in `tags`;
    /// `defs` gives each variable as a form over the columns.
    fn meets(defs: &[Vec<i128>], bounds: &[ScriptBound], tags: &[Tag], point: &[i128]) -> bool {
        tags.iter().all(|&t| {
            let (v, upper, val) = bounds[t as usize];
            let x: i128 = defs[v as usize].iter().zip(point).map(|(c, p)| c * p).sum();
            if upper {
                x <= val
            } else {
                x >= val
            }
        })
    }

    /// Whether some integer point of `[-w, w]ⁿ` meets every bound in `tags`.
    fn has_point(defs: &[Vec<i128>], bounds: &[ScriptBound], tags: &[Tag], w: i128) -> bool {
        let n = defs[0].len();
        let mut point = vec![-w; n];
        loop {
            if meets(defs, bounds, tags, &point) {
                return true;
            }
            let Some(i) = point.iter().position(|&p| p < w) else {
                return false;
            };
            point[i] += 1;
            point[..i].fill(-w);
        }
    }

    /// Fourier–Motzkin elimination: whether the bounds in `tags` have a
    /// rational solution.
    fn rationally_feasible(defs: &[Vec<i128>], bounds: &[ScriptBound], tags: &[Tag]) -> bool {
        // Each constraint is `Σ a·x ≤ b`.
        let mut rows: Vec<(Vec<Rat>, Rat)> = tags
            .iter()
            .map(|&t| {
                let (v, upper, val) = bounds[t as usize];
                let s = if upper { 1 } else { -1 };
                let a = defs[v as usize].iter().map(|&c| Rat::int(s * c)).collect();
                (a, Rat::int(s * val))
            })
            .collect();
        for j in 0..defs[0].len() {
            let (mut pos, mut neg, mut rest) = (Vec::new(), Vec::new(), Vec::new());
            for row in rows {
                match row.0[j].signum() {
                    1 => pos.push(row),
                    -1 => neg.push(row),
                    _ => rest.push(row),
                }
            }
            for (a, b) in &pos {
                for (c, d) in &neg {
                    let (p, q) = (-c[j], a[j]);
                    let sum = a.iter().zip(c).map(|(&x, &y)| p * x + q * y).collect();
                    rest.push((sum, p * *b + q * *d));
                }
            }
            rows = rest;
        }
        rows.iter().all(|(_, b)| *b >= Rat::ZERO)
    }

    /// Seeded random scripts of `def_var`, bound assertions, `push`,
    /// `pop`, `check` and `check_int` over at most four columns, each
    /// boxed to [−3, 3] at the root. Every verdict agrees with the live
    /// bounds: a rational model meets them, `check_int` agrees with
    /// enumerating the box, and every conflict's tag set is infeasible on
    /// its own — rationally (by Fourier–Motzkin) for a rational conflict,
    /// with no integer point in [−6, 6]ⁿ for a branch-and-bound one. In
    /// debug builds every `check` also compares the violated-basic list's
    /// pick with a full scan.
    #[test]
    fn random_scripts_agree_with_enumeration() {
        use relaxed_interp::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0x51A9_1E70);
        let (mut conflicts, mut int_verdicts, mut branched) = (0, [0; 2], 0);
        for script in 0..300 {
            let mut s = Simplex::new();
            let ncols = 1 + rng.gen_u32_below(4) as usize;
            let mut defs: Vec<Vec<i128>> = Vec::new();
            let mut bounds: Vec<ScriptBound> = Vec::new();
            let mut live: Vec<Tag> = Vec::new();
            let mut scopes: Vec<usize> = Vec::new();
            for col in 0..ncols {
                let v = s.new_var();
                defs.push((0..ncols).map(|j| i128::from(j == col)).collect());
                for (upper, val) in [(false, -3), (true, 3)] {
                    let tag = bounds.len() as Tag;
                    bounds.push((v, upper, val));
                    let asserted = if upper {
                        s.assert_upper(v, Rat::int(val), Some(tag))
                    } else {
                        s.assert_lower(v, Rat::int(val), Some(tag))
                    };
                    asserted.expect("a column's box is consistent");
                    live.push(tag);
                }
            }
            for step in 0..40 {
                let at = format!("script {script}, step {step}");
                match rng.gen_u32_below(9) {
                    0 if defs.len() < ncols + 4 => {
                        let mut form = LinForm::zero();
                        let mut def = vec![0; ncols];
                        for _ in 0..1 + rng.gen_u32_below(3) {
                            let y = rng.gen_u32_below(defs.len() as u32);
                            let c = [-3, -2, -1, 1, 2, 3][rng.gen_u32_below(6) as usize];
                            form.add_term(y, c);
                            for (d, e) in def.iter_mut().zip(&defs[y as usize]) {
                                *d += c * e;
                            }
                        }
                        s.def_var(&form);
                        defs.push(def);
                    }
                    0..=3 => {
                        // An upper bound, a lower bound, or both at once.
                        let v = rng.gen_u32_below(defs.len() as u32);
                        let val = i128::from(rng.gen_range(-6..=6));
                        let sides: &[bool] = match rng.gen_u32_below(3) {
                            0 => &[true],
                            1 => &[false],
                            _ => &[false, true],
                        };
                        for &upper in sides {
                            let tag = bounds.len() as Tag;
                            bounds.push((v, upper, val));
                            let asserted = if upper {
                                s.assert_upper(v, Rat::int(val), Some(tag))
                            } else {
                                s.assert_lower(v, Rat::int(val), Some(tag))
                            };
                            match asserted {
                                Ok(()) => live.push(tag),
                                Err(c) => {
                                    conflicts += 1;
                                    assert!(!c.used_internal, "{at}");
                                    assert!(!rationally_feasible(&defs, &bounds, &c.tags), "{at}");
                                }
                            }
                        }
                    }
                    4 => {
                        s.push();
                        scopes.push(live.len());
                    }
                    5 => {
                        if let Some(mark) = scopes.pop() {
                            s.pop();
                            live.truncate(mark);
                        }
                    }
                    6 | 7 => match s.check() {
                        Ok(()) => {
                            for &t in &live {
                                let (v, upper, val) = bounds[t as usize];
                                let x = s.value(v);
                                assert!(
                                    if upper {
                                        x <= Rat::int(val)
                                    } else {
                                        x >= Rat::int(val)
                                    },
                                    "{at}"
                                );
                            }
                            for (v, def) in defs.iter().enumerate() {
                                let x = (0..ncols)
                                    .map(|j| Rat::int(def[j]) * s.value(j as VarId))
                                    .fold(Rat::ZERO, |acc, t| acc + t);
                                assert_eq!(s.value(v as VarId), x, "{at}");
                            }
                        }
                        Err(c) => {
                            conflicts += 1;
                            assert!(!c.used_internal, "{at}");
                            assert!(!rationally_feasible(&defs, &bounds, &c.tags), "{at}");
                            assert!(!has_point(&defs, &bounds, &live, 3), "{at}");
                        }
                    },
                    _ => {
                        let mut budget = 10_000;
                        let nodes = s.branch_nodes;
                        let expected = has_point(&defs, &bounds, &live, 3);
                        match s.check_int(&mut budget) {
                            IntCheck::Feasible(model) => {
                                int_verdicts[0] += 1;
                                assert!(expected, "{at}: feasible, but the box has no point");
                                assert!(meets(&defs, &bounds, &live, &model[..ncols]), "{at}");
                                for (v, def) in defs.iter().enumerate() {
                                    let x: i128 = def.iter().zip(&model).map(|(c, m)| c * m).sum();
                                    assert_eq!(model[v], x, "{at}");
                                }
                            }
                            IntCheck::Infeasible(c) => {
                                int_verdicts[1] += 1;
                                assert!(!expected, "{at}: infeasible, but the box has a point");
                                assert!(!has_point(&defs, &bounds, &c.tags, 6), "{at}");
                            }
                            IntCheck::Unknown => {
                                panic!("{at}: a boxed problem exhausted the budget")
                            }
                        }
                        branched += usize::from(s.branch_nodes - nodes > 1);
                    }
                }
            }
        }
        // The scripts reach every kind of verdict, and branch.
        assert!(
            conflicts > 100 && int_verdicts.iter().all(|&n| n > 100) && branched > 50,
            "{conflicts} conflicts, {int_verdicts:?} integer verdicts, {branched} branched"
        );
    }
}
