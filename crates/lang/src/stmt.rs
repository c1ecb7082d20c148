//! Statements `S` (Fig. 1), programs, verification annotations, and
//! well-formedness.
//!
//! Beyond the paper's grammar, `while` and `if` nodes carry optional
//! *annotations* — loop invariants (unary and relational) and divergence
//! contracts — that drive the automated VC generator in `relaxed-core`.
//! Annotations are semantically transparent: the dynamic semantics ignores
//! them entirely, exactly as Coq proof scripts sit outside the paper's
//! program text.

use crate::expr::{BoolExpr, IntExpr};
use crate::formula::{Formula, RelFormula};
use crate::free::{bool_expr_vars, int_expr_vars};
use crate::ident::{Label, Var};
use crate::rel::RelBoolExpr;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The contract for the paper's `diverge` rule (Fig. 8).
///
/// When the original and relaxed executions may branch differently at a
/// control-flow construct, relational reasoning stops: the rule requires
/// unary pre/postconditions for each side (`P* ⊨o Po`, `P* ⊨r Pr`,
/// `⊢o {Po} s {Qo}`, `⊢i {Pr} s {Qr}`) and yields `⟨Qo · Qr⟩`.
///
/// `pre_o`/`pre_r` default to the syntactic projection of the relational
/// precondition when omitted.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DivergeContract {
    /// Unary precondition for the original side (`Po`); defaults to the
    /// projection of the relational precondition.
    pub pre_o: Option<Formula>,
    /// Unary precondition for the relaxed side (`Pr`); defaults likewise.
    pub pre_r: Option<Formula>,
    /// Unary postcondition established by `⊢o` (`Qo`).
    pub post_o: Formula,
    /// Unary postcondition established by `⊢i` (`Qr`).
    pub post_r: Formula,
}

/// A `while` loop with its verification annotations.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WhileStmt {
    /// The loop condition `b`.
    pub cond: BoolExpr,
    /// Unary loop invariant for `⊢o` / `⊢i` proofs.
    pub invariant: Option<Formula>,
    /// Relational loop invariant for lockstep `⊢r` proofs.
    pub rel_invariant: Option<RelFormula>,
    /// Divergence contract; present when the original and relaxed
    /// executions may make different numbers of iterations.
    pub diverge: Option<DivergeContract>,
    /// The loop body.
    pub body: Box<Stmt>,
}

/// An `if` statement with its verification annotations.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IfStmt {
    /// The branch condition `b`.
    pub cond: BoolExpr,
    /// The then branch `s1`.
    pub then_branch: Box<Stmt>,
    /// The else branch `s2`.
    pub else_branch: Box<Stmt>,
    /// Divergence contract; present when the two executions may branch in
    /// different directions.
    pub diverge: Option<DivergeContract>,
}

/// Statements (`S` in Fig. 1, plus array stores).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// `skip`
    Skip,
    /// `x = e`
    Assign(Var, IntExpr),
    /// `x[e1] = e2` — array store (paper footnote 2 extension).
    Store(Var, IntExpr, IntExpr),
    /// `havoc (X) st (e)` — nondeterministic assignment in *both* semantics.
    Havoc(Vec<Var>, BoolExpr),
    /// `relax (X) st (e)` — no-op in the original semantics,
    /// nondeterministic assignment in the relaxed semantics.
    Relax(Vec<Var>, BoolExpr),
    /// `assume e`
    Assume(BoolExpr),
    /// `assert e`
    Assert(BoolExpr),
    /// `relate l : e*`
    Relate(Label, RelBoolExpr),
    /// `if (b) {s1} else {s2}`
    If(IfStmt),
    /// `while (b) {s}`
    While(WhileStmt),
    /// `s1 ; s2 ; …` — sequential composition, flattened.
    Seq(Vec<Stmt>),
}

impl Stmt {
    /// Builds an `if` with no annotations.
    pub fn if_then_else(cond: BoolExpr, then_branch: Stmt, else_branch: Stmt) -> Stmt {
        Stmt::If(IfStmt {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
            diverge: None,
        })
    }

    /// Builds a `while` with no annotations.
    pub fn while_loop(cond: BoolExpr, body: Stmt) -> Stmt {
        Stmt::While(WhileStmt {
            cond,
            invariant: None,
            rel_invariant: None,
            diverge: None,
            body: Box::new(body),
        })
    }

    /// Builds a sequence, flattening nested `Seq` nodes and dropping `skip`s
    /// (`skip` is the unit of `;` in the paper's semantics).
    pub fn seq(stmts: impl IntoIterator<Item = Stmt>) -> Stmt {
        let mut flat = Vec::new();
        for s in stmts {
            match s {
                Stmt::Seq(inner) => flat.extend(inner),
                Stmt::Skip => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Stmt::Skip,
            1 => flat.pop().expect("len checked"),
            _ => Stmt::Seq(flat),
        }
    }

    /// The paper's `no_rel(s)` predicate: true iff no `relate` statement
    /// appears anywhere in `s`. The `diverge` rule requires it.
    pub fn no_rel(&self) -> bool {
        match self {
            Stmt::Relate(_, _) => false,
            Stmt::Skip
            | Stmt::Assign(_, _)
            | Stmt::Store(_, _, _)
            | Stmt::Havoc(_, _)
            | Stmt::Relax(_, _)
            | Stmt::Assume(_)
            | Stmt::Assert(_) => true,
            Stmt::If(s) => s.then_branch.no_rel() && s.else_branch.no_rel(),
            Stmt::While(s) => s.body.no_rel(),
            Stmt::Seq(ss) => ss.iter().all(Stmt::no_rel),
        }
    }

    /// Whether any `relax` statement appears in `s`.
    pub fn has_relax(&self) -> bool {
        match self {
            Stmt::Relax(_, _) => true,
            Stmt::Skip
            | Stmt::Assign(_, _)
            | Stmt::Store(_, _, _)
            | Stmt::Havoc(_, _)
            | Stmt::Assume(_)
            | Stmt::Assert(_)
            | Stmt::Relate(_, _) => false,
            Stmt::If(s) => s.then_branch.has_relax() || s.else_branch.has_relax(),
            Stmt::While(s) => s.body.has_relax(),
            Stmt::Seq(ss) => ss.iter().any(Stmt::has_relax),
        }
    }

    /// Variables the statement may modify in the *relaxed* semantics (the
    /// superset: assignment/store targets plus `havoc` and `relax` sets).
    pub fn modified_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_modified(true, &mut out);
        out
    }

    /// Variables the statement may modify in the *original* semantics
    /// (where `relax` is a no-op).
    pub fn modified_vars_original(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_modified(false, &mut out);
        out
    }

    fn collect_modified(&self, include_relax: bool, out: &mut BTreeSet<Var>) {
        match self {
            Stmt::Skip | Stmt::Assume(_) | Stmt::Assert(_) | Stmt::Relate(_, _) => {}
            Stmt::Assign(v, _) | Stmt::Store(v, _, _) => {
                out.insert(v.clone());
            }
            Stmt::Havoc(vs, _) => out.extend(vs.iter().cloned()),
            Stmt::Relax(vs, _) => {
                if include_relax {
                    out.extend(vs.iter().cloned());
                }
            }
            Stmt::If(s) => {
                s.then_branch.collect_modified(include_relax, out);
                s.else_branch.collect_modified(include_relax, out);
            }
            Stmt::While(s) => s.body.collect_modified(include_relax, out),
            Stmt::Seq(ss) => {
                for s in ss {
                    s.collect_modified(include_relax, out);
                }
            }
        }
    }

    /// All variables referenced anywhere in the statement (read or written).
    pub fn all_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_all_vars(&mut out);
        out
    }

    fn collect_all_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Stmt::Skip => {}
            Stmt::Assign(v, e) => {
                out.insert(v.clone());
                out.extend(int_expr_vars(e));
            }
            Stmt::Store(v, index, value) => {
                out.insert(v.clone());
                out.extend(int_expr_vars(index));
                out.extend(int_expr_vars(value));
            }
            Stmt::Havoc(vs, b) | Stmt::Relax(vs, b) => {
                out.extend(vs.iter().cloned());
                out.extend(bool_expr_vars(b));
            }
            Stmt::Assume(b) | Stmt::Assert(b) => out.extend(bool_expr_vars(b)),
            Stmt::Relate(_, b) => {
                out.extend(
                    crate::free::rel_bool_expr_vars(b)
                        .into_iter()
                        .map(|(v, _)| v),
                );
            }
            Stmt::If(s) => {
                out.extend(bool_expr_vars(&s.cond));
                s.then_branch.collect_all_vars(out);
                s.else_branch.collect_all_vars(out);
            }
            Stmt::While(s) => {
                out.extend(bool_expr_vars(&s.cond));
                s.body.collect_all_vars(out);
            }
            Stmt::Seq(ss) => {
                for s in ss {
                    s.collect_all_vars(out);
                }
            }
        }
    }

    /// Collects `(label, predicate)` pairs of every `relate` statement, in
    /// program order.
    pub fn relates(&self) -> Vec<(Label, RelBoolExpr)> {
        let mut out = Vec::new();
        self.collect_relates(&mut out);
        out
    }

    fn collect_relates(&self, out: &mut Vec<(Label, RelBoolExpr)>) {
        match self {
            Stmt::Relate(l, b) => out.push((l.clone(), b.clone())),
            Stmt::Skip
            | Stmt::Assign(_, _)
            | Stmt::Store(_, _, _)
            | Stmt::Havoc(_, _)
            | Stmt::Relax(_, _)
            | Stmt::Assume(_)
            | Stmt::Assert(_) => {}
            Stmt::If(s) => {
                s.then_branch.collect_relates(out);
                s.else_branch.collect_relates(out);
            }
            Stmt::While(s) => s.body.collect_relates(out),
            Stmt::Seq(ss) => {
                for s in ss {
                    s.collect_relates(out);
                }
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::pretty_stmt(self))
    }
}

/// A well-formedness violation detected by [`Program::check`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WellFormedError {
    /// Two `relate` statements share a label (the observational
    /// compatibility relation requires unique labels).
    DuplicateLabel(Label),
    /// A `havoc` or `relax` statement with an empty variable set.
    EmptyTargetSet,
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::DuplicateLabel(l) => {
                write!(f, "duplicate relate label {l}")
            }
            WellFormedError::EmptyTargetSet => {
                write!(f, "havoc/relax statement with empty variable set")
            }
        }
    }
}

impl std::error::Error for WellFormedError {}

/// A complete relaxed program: a statement plus derived metadata.
///
/// # Examples
///
/// ```
/// use relaxed_lang::parse_program;
/// let program = parse_program(
///     "x = 0; relax (x) st (0 <= x && x <= 2); relate l1 : x<o> <= x<r>;",
/// ).unwrap();
/// assert_eq!(program.gamma().len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Program {
    body: Stmt,
}

impl Program {
    /// Wraps a statement as a program, checking well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`WellFormedError`] when `relate` labels are not unique or a
    /// `havoc`/`relax` has an empty target set.
    pub fn new(body: Stmt) -> Result<Self, WellFormedError> {
        let program = Program { body };
        program.check()?;
        Ok(program)
    }

    /// The program body.
    pub fn body(&self) -> &Stmt {
        &self.body
    }

    /// Consumes the program, returning its body.
    pub fn into_body(self) -> Stmt {
        self.body
    }

    /// The map `Γ : L → B*` from relate labels to relational predicates
    /// (§4, Theorem 6), built by structural induction on the program.
    pub fn gamma(&self) -> BTreeMap<Label, RelBoolExpr> {
        self.body.relates().into_iter().collect()
    }

    /// Re-checks well-formedness.
    pub fn check(&self) -> Result<(), WellFormedError> {
        let mut seen = BTreeSet::new();
        for (label, _) in self.body.relates() {
            if !seen.insert(label.clone()) {
                return Err(WellFormedError::DuplicateLabel(label));
            }
        }
        check_target_sets(&self.body)?;
        Ok(())
    }
}

fn check_target_sets(s: &Stmt) -> Result<(), WellFormedError> {
    match s {
        Stmt::Havoc(vs, _) | Stmt::Relax(vs, _) => {
            if vs.is_empty() {
                return Err(WellFormedError::EmptyTargetSet);
            }
            Ok(())
        }
        Stmt::If(i) => {
            check_target_sets(&i.then_branch)?;
            check_target_sets(&i.else_branch)
        }
        Stmt::While(w) => check_target_sets(&w.body),
        Stmt::Seq(ss) => ss.iter().try_for_each(check_target_sets),
        _ => Ok(()),
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> IntExpr {
        IntExpr::var("x")
    }

    #[test]
    fn seq_flattens_and_drops_skip() {
        let s = Stmt::seq([
            Stmt::Skip,
            Stmt::seq([Stmt::Assign(Var::new("x"), x())]),
            Stmt::Skip,
        ]);
        assert_eq!(s, Stmt::Assign(Var::new("x"), x()));
        assert_eq!(Stmt::seq([]), Stmt::Skip);
    }

    #[test]
    fn no_rel_descends_into_control_flow() {
        let relate = Stmt::Relate(Label::new("l"), RelBoolExpr::truth());
        assert!(!relate.no_rel());
        let s = Stmt::while_loop(BoolExpr::truth(), relate);
        assert!(!s.no_rel());
        assert!(Stmt::Skip.no_rel());
    }

    #[test]
    fn modified_vars_distinguish_semantics() {
        let s = Stmt::seq([
            Stmt::Assign(Var::new("x"), IntExpr::from(1)),
            Stmt::Relax(vec![Var::new("y")], BoolExpr::truth()),
            Stmt::Havoc(vec![Var::new("z")], BoolExpr::truth()),
        ]);
        let relaxed: Vec<_> = s.modified_vars().into_iter().collect();
        assert_eq!(relaxed, vec![Var::new("x"), Var::new("y"), Var::new("z")]);
        let original: Vec<_> = s.modified_vars_original().into_iter().collect();
        assert_eq!(original, vec![Var::new("x"), Var::new("z")]);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let body = Stmt::seq([
            Stmt::Relate(Label::new("l"), RelBoolExpr::truth()),
            Stmt::Relate(Label::new("l"), RelBoolExpr::truth()),
        ]);
        assert_eq!(
            Program::new(body).unwrap_err(),
            WellFormedError::DuplicateLabel(Label::new("l"))
        );
    }

    #[test]
    fn empty_relax_target_rejected() {
        let body = Stmt::Relax(vec![], BoolExpr::truth());
        assert_eq!(
            Program::new(body).unwrap_err(),
            WellFormedError::EmptyTargetSet
        );
    }

    #[test]
    fn gamma_collects_labels_in_order() {
        let body = Stmt::seq([
            Stmt::Relate(Label::new("a"), RelBoolExpr::truth()),
            Stmt::if_then_else(
                BoolExpr::truth(),
                Stmt::Relate(Label::new("b"), RelBoolExpr::falsity()),
                Stmt::Skip,
            ),
        ]);
        let program = Program::new(body).unwrap();
        let gamma = program.gamma();
        assert_eq!(gamma.len(), 2);
        assert_eq!(gamma[&Label::new("b")], RelBoolExpr::falsity());
    }

    #[test]
    fn has_relax_detects_nesting() {
        let s = Stmt::while_loop(
            BoolExpr::truth(),
            Stmt::Relax(vec![Var::new("x")], BoolExpr::truth()),
        );
        assert!(s.has_relax());
        assert!(!Stmt::Skip.has_relax());
    }
}
