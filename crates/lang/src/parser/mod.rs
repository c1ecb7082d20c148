//! Recursive-descent parser for the relaxed-program concrete syntax.
//!
//! The grammar follows Fig. 1 of the paper plus the verification
//! annotations described in [`crate::stmt`]:
//!
//! ```text
//! program  := stmt* EOF
//! stmt     := "skip" ";"
//!           | ident "=" iexpr ";"
//!           | ident "[" iexpr "]" "=" iexpr ";"
//!           | "havoc" "(" ident ("," ident)* ")" "st" "(" bexpr ")" ";"
//!           | "relax" "(" ident ("," ident)* ")" "st" "(" bexpr ")" ";"
//!           | "assume" bexpr ";"
//!           | "assert" bexpr ";"
//!           | "relate" ident ":" rbexpr ";"
//!           | "if" "(" bexpr ")" diverge? block "else" block
//!           | "while" "(" bexpr ")" annots block
//! annots   := ("invariant" "(" formula ")")?
//!             ("rinvariant" "(" rformula ")")? diverge?
//! diverge  := "diverge" ("pre_o" "(" formula ")")? ("pre_r" "(" formula ")")?
//!             "post_o" "(" formula ")" "post_r" "(" formula ")"
//! ```
//!
//! Expression and formula grammars use conventional precedence
//! (`! > * / % > + - > cmp > && > || > ==> > <==>`), right-associative
//! implication, and `exists x . P` / `forall x<r> . P` binding as far right
//! as possible.

mod lexer;

pub use lexer::{lex, LexError, Spanned, Tok};

use crate::expr::{BoolBinOp, BoolExpr, CmpOp, IntBinOp, IntExpr};
use crate::formula::{Formula, RelFormula};
use crate::ident::{Label, Side, Var};
use crate::rel::{RelBoolExpr, RelIntExpr};
use crate::stmt::{DivergeContract, IfStmt, Program, Stmt, WhileStmt};
use std::fmt;

/// A parse error with a byte offset into the source.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// How deep the parser lets a program, expression or formula nest. Each
/// parenthesis or index bracket, unary operator, operand a binary chain
/// adds and quantifier counts one level; a nested block counts
/// [`BLOCK_LEVELS`]. Vcgen, encoding and printing recurse through the
/// tree, so without a limit one hostile input (a job frame, say)
/// overflows the stack of the thread that handles it; a program at the
/// limit verifies on a 2 MiB thread.
pub const MAX_NESTING: usize = 256;

/// How many nodes desugaring every `<==>` of one parse to
/// `(p ==> q) && (q ==> p)` may add. The formula parsers copy both sides
/// at parse time, and vcgen does the same for boolean expressions, so
/// each link of a chain doubles the tree. The parser refuses the `<==>`
/// that would pass this budget before anything is copied; a 12-link
/// chain of `x >= 0` fits, a 13-link one does not. Nodes, not tokens,
/// so a printed tree parses under the same budget as its source.
pub const MAX_IFF_GROWTH: usize = 1 << 16;

/// The levels a nested block counts toward [`MAX_NESTING`], so at most
/// 64 blocks nest. A statement level costs every recursive pass several
/// expression levels of stack, most of all in unoptimized builds: there
/// 128 nested loops overflow a 2 MiB thread in vcgen, where 256 nested
/// parentheses verify.
pub const BLOCK_LEVELS: usize = 4;

const KEYWORDS: &[&str] = &[
    "skip",
    "if",
    "else",
    "while",
    "havoc",
    "relax",
    "st",
    "assume",
    "assert",
    "relate",
    "true",
    "false",
    "invariant",
    "rinvariant",
    "diverge",
    "pre_o",
    "pre_r",
    "post_o",
    "post_r",
    "exists",
    "forall",
    "len",
];

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    src_len: usize,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
    /// Nodes the desugaring of every `<==>` parsed so far adds (see
    /// [`MAX_IFF_GROWTH`]).
    iff_growth: usize,
}

impl Parser {
    fn new(src: &str) -> PResult<Self> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            src_len: src.len(),
            depth: 0,
            iff_growth: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            offset: self.offset(),
        })
    }

    /// Enters `levels` more nesting levels, refusing past [`MAX_NESTING`].
    /// The caller restores `depth` when the construct ends; an error
    /// either ends the parse or is backtracked past, which restores it
    /// too.
    fn descend(&mut self, levels: usize) -> PResult<()> {
        if self.depth + levels > MAX_NESTING {
            return self.error(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += levels;
        Ok(())
    }

    /// Accounts for a `<==>` whose operands have `lhs` and `rhs` nodes
    /// once desugared, refusing it past [`MAX_IFF_GROWTH`]: desugaring
    /// copies both once more and adds two nodes. Each node is measured
    /// once per `<==>` around it, and at most 16 can nest within the
    /// budget, so the check stays linear in the input.
    fn grow_iff(&mut self, lhs: usize, rhs: usize) -> PResult<()> {
        self.iff_growth = self.iff_growth.saturating_add(lhs + rhs + 2);
        if self.iff_growth > MAX_IFF_GROWTH {
            return self.error(format!(
                "`<==>` would add more than {MAX_IFF_GROWTH} nodes once desugared"
            ));
        }
        Ok(())
    }

    /// Parses one construct a nesting level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.descend(1)?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn expect(&mut self, tok: &Tok) -> PResult<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!(
                "expected `{tok}`, found {}",
                self.peek()
                    .map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn expect_keyword(&mut self, kw: &str) -> PResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.error(format!("expected keyword `{kw}`"))
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek() {
            Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(Tok::Ident(s)) => self.error(format!("`{s}` is a keyword")),
            _ => self.error("expected identifier"),
        }
    }

    fn side(&mut self) -> PResult<Side> {
        match self.bump() {
            Some(Tok::SideO) => Ok(Side::Original),
            Some(Tok::SideR) => Ok(Side::Relaxed),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.error("expected side marker `<o>` or `<r>`")
            }
        }
    }

    // ---------------- integer expressions ----------------

    fn int_expr(&mut self) -> PResult<IntExpr> {
        self.int_additive()
    }

    fn int_additive(&mut self) -> PResult<IntExpr> {
        let depth = self.depth;
        let mut lhs = self.int_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => IntBinOp::Add,
                Some(Tok::Minus) => IntBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.int_multiplicative()?;
            lhs = IntExpr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn int_multiplicative(&mut self) -> PResult<IntExpr> {
        let depth = self.depth;
        let mut lhs = self.int_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => IntBinOp::Mul,
                Some(Tok::Slash) => IntBinOp::Div,
                Some(Tok::Percent) => IntBinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.int_unary()?;
            lhs = IntExpr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn int_unary(&mut self) -> PResult<IntExpr> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            let inner = self.nested(Self::int_unary)?;
            return Ok(match inner {
                IntExpr::Const(n) => IntExpr::Const(-n),
                other => IntExpr::bin(IntBinOp::Sub, IntExpr::Const(0), other),
            });
        }
        self.int_primary()
    }

    fn int_primary(&mut self) -> PResult<IntExpr> {
        match self.peek() {
            Some(Tok::Int(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(IntExpr::Const(n))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::int_expr)?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(s)) if s == "len" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let v = Var::new(self.ident()?);
                self.expect(&Tok::RParen)?;
                Ok(IntExpr::Len(v))
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                if self.peek() == Some(&Tok::LBracket) {
                    self.pos += 1;
                    let index = self.nested(Self::int_expr)?;
                    self.expect(&Tok::RBracket)?;
                    Ok(IntExpr::select(name, index))
                } else {
                    Ok(IntExpr::var(name))
                }
            }
            _ => self.error("expected integer expression"),
        }
    }

    // ---------------- boolean expressions ----------------

    fn bool_expr(&mut self) -> PResult<BoolExpr> {
        let lhs = self.bool_implies()?;
        if self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            let rhs = self.nested(Self::bool_expr)?;
            self.grow_iff(bool_size(&lhs), bool_size(&rhs))?;
            return Ok(BoolExpr::bin(BoolBinOp::Iff, lhs, rhs));
        }
        Ok(lhs)
    }

    fn bool_implies(&mut self) -> PResult<BoolExpr> {
        let lhs = self.bool_or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.pos += 1;
            let rhs = self.nested(Self::bool_implies)?;
            return Ok(BoolExpr::bin(BoolBinOp::Implies, lhs, rhs));
        }
        Ok(lhs)
    }

    fn bool_or(&mut self) -> PResult<BoolExpr> {
        let depth = self.depth;
        let mut lhs = self.bool_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.bool_and()?;
            lhs = BoolExpr::bin(BoolBinOp::Or, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn bool_and(&mut self) -> PResult<BoolExpr> {
        let depth = self.depth;
        let mut lhs = self.bool_unary()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.bool_unary()?;
            lhs = BoolExpr::bin(BoolBinOp::And, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn bool_unary(&mut self) -> PResult<BoolExpr> {
        if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            let inner = self.nested(Self::bool_unary)?;
            return Ok(BoolExpr::Not(Box::new(inner)));
        }
        self.bool_primary()
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek()? {
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            Tok::EqEq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            _ => return None,
        };
        self.pos += 1;
        Some(op)
    }

    fn bool_primary(&mut self) -> PResult<BoolExpr> {
        if self.eat_keyword("true") {
            return Ok(BoolExpr::Const(true));
        }
        if self.eat_keyword("false") {
            return Ok(BoolExpr::Const(false));
        }
        // `(` may open a parenthesized boolean expression or the left
        // operand of a comparison; try the comparison first and backtrack.
        let checkpoint = (self.pos, self.depth);
        match self.try_comparison() {
            Ok(b) => return Ok(b),
            Err(_) => (self.pos, self.depth) = checkpoint,
        }
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let b = self.nested(Self::bool_expr)?;
            self.expect(&Tok::RParen)?;
            return Ok(b);
        }
        self.error("expected boolean expression")
    }

    fn try_comparison(&mut self) -> PResult<BoolExpr> {
        let lhs = self.int_expr()?;
        match self.cmp_op() {
            Some(op) => {
                let rhs = self.int_expr()?;
                Ok(BoolExpr::Cmp(op, lhs, rhs))
            }
            None => self.error("expected comparison operator"),
        }
    }

    // ---------------- relational expressions ----------------

    fn rel_int_expr(&mut self) -> PResult<RelIntExpr> {
        let depth = self.depth;
        let mut lhs = self.rel_int_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => IntBinOp::Add,
                Some(Tok::Minus) => IntBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.rel_int_multiplicative()?;
            lhs = RelIntExpr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_int_multiplicative(&mut self) -> PResult<RelIntExpr> {
        let depth = self.depth;
        let mut lhs = self.rel_int_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => IntBinOp::Mul,
                Some(Tok::Slash) => IntBinOp::Div,
                Some(Tok::Percent) => IntBinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.rel_int_unary()?;
            lhs = RelIntExpr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_int_unary(&mut self) -> PResult<RelIntExpr> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            let inner = self.nested(Self::rel_int_unary)?;
            return Ok(match inner {
                RelIntExpr::Const(n) => RelIntExpr::Const(-n),
                other => RelIntExpr::bin(IntBinOp::Sub, RelIntExpr::Const(0), other),
            });
        }
        self.rel_int_primary()
    }

    fn rel_int_primary(&mut self) -> PResult<RelIntExpr> {
        match self.peek() {
            Some(Tok::Int(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(RelIntExpr::Const(n))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::rel_int_expr)?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(s)) if s == "len" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let v = Var::new(self.ident()?);
                let side = self.side()?;
                self.expect(&Tok::RParen)?;
                Ok(RelIntExpr::Len(v, side))
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                let side = self.side()?;
                if self.peek() == Some(&Tok::LBracket) {
                    self.pos += 1;
                    let index = self.nested(Self::rel_int_expr)?;
                    self.expect(&Tok::RBracket)?;
                    Ok(RelIntExpr::Select(Var::new(name), side, Box::new(index)))
                } else {
                    Ok(RelIntExpr::var(name, side))
                }
            }
            _ => self.error("expected relational integer expression"),
        }
    }

    fn rel_bool_expr(&mut self) -> PResult<RelBoolExpr> {
        let lhs = self.rel_bool_implies()?;
        if self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            let rhs = self.nested(Self::rel_bool_expr)?;
            self.grow_iff(rel_bool_size(&lhs), rel_bool_size(&rhs))?;
            return Ok(RelBoolExpr::bin(BoolBinOp::Iff, lhs, rhs));
        }
        Ok(lhs)
    }

    fn rel_bool_implies(&mut self) -> PResult<RelBoolExpr> {
        let lhs = self.rel_bool_or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.pos += 1;
            let rhs = self.nested(Self::rel_bool_implies)?;
            return Ok(RelBoolExpr::bin(BoolBinOp::Implies, lhs, rhs));
        }
        Ok(lhs)
    }

    fn rel_bool_or(&mut self) -> PResult<RelBoolExpr> {
        let depth = self.depth;
        let mut lhs = self.rel_bool_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.rel_bool_and()?;
            lhs = RelBoolExpr::bin(BoolBinOp::Or, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_bool_and(&mut self) -> PResult<RelBoolExpr> {
        let depth = self.depth;
        let mut lhs = self.rel_bool_unary()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.rel_bool_unary()?;
            lhs = RelBoolExpr::bin(BoolBinOp::And, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_bool_unary(&mut self) -> PResult<RelBoolExpr> {
        if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            let inner = self.nested(Self::rel_bool_unary)?;
            return Ok(RelBoolExpr::Not(Box::new(inner)));
        }
        self.rel_bool_primary()
    }

    fn rel_bool_primary(&mut self) -> PResult<RelBoolExpr> {
        if self.eat_keyword("true") {
            return Ok(RelBoolExpr::Const(true));
        }
        if self.eat_keyword("false") {
            return Ok(RelBoolExpr::Const(false));
        }
        let checkpoint = (self.pos, self.depth);
        match self.try_rel_comparison() {
            Ok(b) => return Ok(b),
            Err(_) => (self.pos, self.depth) = checkpoint,
        }
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let b = self.nested(Self::rel_bool_expr)?;
            self.expect(&Tok::RParen)?;
            return Ok(b);
        }
        self.error("expected relational boolean expression")
    }

    fn try_rel_comparison(&mut self) -> PResult<RelBoolExpr> {
        let lhs = self.rel_int_expr()?;
        match self.cmp_op() {
            Some(op) => {
                let rhs = self.rel_int_expr()?;
                Ok(RelBoolExpr::Cmp(op, lhs, rhs))
            }
            None => self.error("expected comparison operator"),
        }
    }

    // ---------------- formulas ----------------

    fn formula(&mut self) -> PResult<Formula> {
        if self.at_keyword("exists") || self.at_keyword("forall") {
            return self.quantified_formula();
        }
        let lhs = self.formula_implies()?;
        if self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            let rhs = self.nested(Self::formula)?;
            self.grow_iff(lhs.node_count(), rhs.node_count())?;
            // The Formula type has no Iff constructor; desugar.
            return Ok(lhs.clone().implies(rhs.clone()).and(rhs.implies(lhs)));
        }
        Ok(lhs)
    }

    fn quantified_formula(&mut self) -> PResult<Formula> {
        let forall = self.eat_keyword("forall");
        if !forall {
            self.expect_keyword("exists")?;
        }
        let v = Var::new(self.ident()?);
        self.expect(&Tok::Dot)?;
        let body = self.nested(Self::formula)?;
        Ok(if forall {
            body.forall(v)
        } else {
            body.exists(v)
        })
    }

    fn formula_implies(&mut self) -> PResult<Formula> {
        let lhs = self.formula_or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.pos += 1;
            let rhs = self.nested(|p| {
                if p.at_keyword("exists") || p.at_keyword("forall") {
                    p.quantified_formula()
                } else {
                    p.formula_implies()
                }
            })?;
            return Ok(Formula::Implies(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn formula_or(&mut self) -> PResult<Formula> {
        let depth = self.depth;
        let mut lhs = self.formula_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.formula_and()?;
            lhs = Formula::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn formula_and(&mut self) -> PResult<Formula> {
        let depth = self.depth;
        let mut lhs = self.formula_unary()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.formula_unary()?;
            lhs = Formula::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn formula_unary(&mut self) -> PResult<Formula> {
        if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            let inner = self.nested(Self::formula_unary)?;
            return Ok(Formula::Not(Box::new(inner)));
        }
        self.formula_primary()
    }

    fn formula_primary(&mut self) -> PResult<Formula> {
        if self.eat_keyword("true") {
            return Ok(Formula::True);
        }
        if self.eat_keyword("false") {
            return Ok(Formula::False);
        }
        if self.at_keyword("exists") || self.at_keyword("forall") {
            return self.quantified_formula();
        }
        let checkpoint = (self.pos, self.depth);
        {
            let attempt = (|| -> PResult<Formula> {
                let lhs = self.int_expr()?;
                match self.cmp_op() {
                    Some(op) => {
                        let rhs = self.int_expr()?;
                        Ok(Formula::Cmp(op, lhs, rhs))
                    }
                    None => self.error("expected comparison operator"),
                }
            })();
            match attempt {
                Ok(f) => return Ok(f),
                Err(_) => (self.pos, self.depth) = checkpoint,
            }
        }
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let p = self.nested(Self::formula)?;
            self.expect(&Tok::RParen)?;
            return Ok(p);
        }
        self.error("expected formula")
    }

    fn rel_formula(&mut self) -> PResult<RelFormula> {
        if self.at_keyword("exists") || self.at_keyword("forall") {
            return self.quantified_rel_formula();
        }
        let lhs = self.rel_formula_implies()?;
        if self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            let rhs = self.nested(Self::rel_formula)?;
            self.grow_iff(lhs.node_count(), rhs.node_count())?;
            return Ok(lhs.clone().implies(rhs.clone()).and(rhs.implies(lhs)));
        }
        Ok(lhs)
    }

    fn quantified_rel_formula(&mut self) -> PResult<RelFormula> {
        let forall = self.eat_keyword("forall");
        if !forall {
            self.expect_keyword("exists")?;
        }
        let v = Var::new(self.ident()?);
        let side = self.side()?;
        self.expect(&Tok::Dot)?;
        let body = self.nested(Self::rel_formula)?;
        Ok(if forall {
            body.forall(v, side)
        } else {
            body.exists(v, side)
        })
    }

    fn rel_formula_implies(&mut self) -> PResult<RelFormula> {
        let lhs = self.rel_formula_or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.pos += 1;
            let rhs = self.nested(|p| {
                if p.at_keyword("exists") || p.at_keyword("forall") {
                    p.quantified_rel_formula()
                } else {
                    p.rel_formula_implies()
                }
            })?;
            return Ok(RelFormula::Implies(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn rel_formula_or(&mut self) -> PResult<RelFormula> {
        let depth = self.depth;
        let mut lhs = self.rel_formula_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.rel_formula_and()?;
            lhs = RelFormula::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_formula_and(&mut self) -> PResult<RelFormula> {
        let depth = self.depth;
        let mut lhs = self.rel_formula_unary()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            self.descend(1)?;
            let rhs = self.rel_formula_unary()?;
            lhs = RelFormula::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_formula_unary(&mut self) -> PResult<RelFormula> {
        if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            let inner = self.nested(Self::rel_formula_unary)?;
            return Ok(RelFormula::Not(Box::new(inner)));
        }
        self.rel_formula_primary()
    }

    fn rel_formula_primary(&mut self) -> PResult<RelFormula> {
        if self.eat_keyword("true") {
            return Ok(RelFormula::True);
        }
        if self.eat_keyword("false") {
            return Ok(RelFormula::False);
        }
        if self.at_keyword("exists") || self.at_keyword("forall") {
            return self.quantified_rel_formula();
        }
        let checkpoint = (self.pos, self.depth);
        {
            let attempt = (|| -> PResult<RelFormula> {
                let lhs = self.rel_int_expr()?;
                match self.cmp_op() {
                    Some(op) => {
                        let rhs = self.rel_int_expr()?;
                        Ok(RelFormula::Cmp(op, lhs, rhs))
                    }
                    None => self.error("expected comparison operator"),
                }
            })();
            match attempt {
                Ok(f) => return Ok(f),
                Err(_) => (self.pos, self.depth) = checkpoint,
            }
        }
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let p = self.nested(Self::rel_formula)?;
            self.expect(&Tok::RParen)?;
            return Ok(p);
        }
        self.error("expected relational formula")
    }

    // ---------------- statements ----------------

    fn var_list(&mut self) -> PResult<Vec<Var>> {
        let mut vars = vec![Var::new(self.ident()?)];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            vars.push(Var::new(self.ident()?));
        }
        Ok(vars)
    }

    fn diverge_contract(&mut self) -> PResult<Option<DivergeContract>> {
        if !self.eat_keyword("diverge") {
            return Ok(None);
        }
        let mut pre_o = None;
        let mut pre_r = None;
        if self.eat_keyword("pre_o") {
            self.expect(&Tok::LParen)?;
            pre_o = Some(self.formula()?);
            self.expect(&Tok::RParen)?;
        }
        if self.eat_keyword("pre_r") {
            self.expect(&Tok::LParen)?;
            pre_r = Some(self.formula()?);
            self.expect(&Tok::RParen)?;
        }
        self.expect_keyword("post_o")?;
        self.expect(&Tok::LParen)?;
        let post_o = self.formula()?;
        self.expect(&Tok::RParen)?;
        self.expect_keyword("post_r")?;
        self.expect(&Tok::LParen)?;
        let post_r = self.formula()?;
        self.expect(&Tok::RParen)?;
        Ok(Some(DivergeContract {
            pre_o,
            pre_r,
            post_o,
            post_r,
        }))
    }

    fn havoc_like(&mut self, build: fn(Vec<Var>, BoolExpr) -> Stmt) -> PResult<Stmt> {
        self.expect(&Tok::LParen)?;
        let vars = self.var_list()?;
        self.expect(&Tok::RParen)?;
        self.expect_keyword("st")?;
        self.expect(&Tok::LParen)?;
        let pred = self.bool_expr()?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Semi)?;
        Ok(build(vars, pred))
    }

    fn block(&mut self) -> PResult<Stmt> {
        self.expect(&Tok::LBrace)?;
        self.descend(BLOCK_LEVELS)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return self.error("unterminated block");
            }
            stmts.push(self.stmt()?);
        }
        self.depth -= BLOCK_LEVELS;
        self.expect(&Tok::RBrace)?;
        Ok(Stmt::seq(stmts))
    }

    /// One statement. Compound statements nest blocks, so their parsers
    /// stay out of this frame: every nesting level pays for the frames
    /// on its recursive path, and in unoptimized builds a frame holds
    /// every temporary of every branch.
    fn stmt(&mut self) -> PResult<Stmt> {
        if self.eat_keyword("if") {
            return self.if_stmt();
        }
        if self.eat_keyword("while") {
            return self.while_stmt();
        }
        self.simple_stmt()
    }

    fn simple_stmt(&mut self) -> PResult<Stmt> {
        if self.eat_keyword("skip") {
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Skip);
        }
        if self.eat_keyword("havoc") {
            return self.havoc_like(Stmt::Havoc);
        }
        if self.eat_keyword("relax") {
            return self.havoc_like(Stmt::Relax);
        }
        if self.eat_keyword("assume") {
            let b = self.bool_expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Assume(b));
        }
        if self.eat_keyword("assert") {
            let b = self.bool_expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Assert(b));
        }
        if self.eat_keyword("relate") {
            let label = Label::new(self.ident()?);
            self.expect(&Tok::Colon)?;
            let b = self.rel_bool_expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Relate(label, b));
        }
        // Assignment or store.
        let name = self.ident()?;
        if self.peek() == Some(&Tok::LBracket) && self.peek2() != Some(&Tok::RBracket) {
            self.pos += 1;
            let index = self.int_expr()?;
            self.expect(&Tok::RBracket)?;
            self.expect(&Tok::Assign)?;
            let value = self.int_expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Store(Var::new(name), index, value));
        }
        self.expect(&Tok::Assign)?;
        let value = self.int_expr()?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Assign(Var::new(name), value))
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        self.expect(&Tok::LParen)?;
        let cond = self.bool_expr()?;
        self.expect(&Tok::RParen)?;
        let diverge = self.diverge_contract()?;
        let then_branch = Box::new(self.block()?);
        self.expect_keyword("else")?;
        let else_branch = Box::new(self.block()?);
        Ok(Stmt::If(IfStmt {
            cond,
            then_branch,
            else_branch,
            diverge,
        }))
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        self.expect(&Tok::LParen)?;
        let cond = self.bool_expr()?;
        self.expect(&Tok::RParen)?;
        let mut invariant = None;
        let mut rel_invariant = None;
        if self.eat_keyword("invariant") {
            self.expect(&Tok::LParen)?;
            invariant = Some(self.formula()?);
            self.expect(&Tok::RParen)?;
        }
        if self.eat_keyword("rinvariant") {
            self.expect(&Tok::LParen)?;
            rel_invariant = Some(self.rel_formula()?);
            self.expect(&Tok::RParen)?;
        }
        let diverge = self.diverge_contract()?;
        let body = Box::new(self.block()?);
        Ok(Stmt::While(WhileStmt {
            cond,
            invariant,
            rel_invariant,
            diverge,
            body,
        }))
    }

    fn program(&mut self) -> PResult<Stmt> {
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::seq(stmts))
    }

    fn finish<T>(&self, value: T) -> PResult<T> {
        if self.pos == self.toks.len() {
            Ok(value)
        } else {
            self.error("unexpected trailing input")
        }
    }
}

/// Node counts of parsed trees, every `<==>` counted at its desugared
/// size `2 (p + q) + 3` (see [`MAX_IFF_GROWTH`]).
fn iff_size(lhs: usize, rhs: usize) -> usize {
    lhs.saturating_add(rhs).saturating_mul(2).saturating_add(3)
}

fn bool_size(e: &BoolExpr) -> usize {
    match e {
        BoolExpr::Bin(BoolBinOp::Iff, a, b) => iff_size(bool_size(a), bool_size(b)),
        BoolExpr::Bin(_, a, b) => 1 + bool_size(a) + bool_size(b),
        BoolExpr::Not(a) => 1 + bool_size(a),
        BoolExpr::Cmp(_, a, b) => 1 + a.node_count() + b.node_count(),
        BoolExpr::Const(_) => 1,
    }
}

fn rel_bool_size(e: &RelBoolExpr) -> usize {
    match e {
        RelBoolExpr::Bin(BoolBinOp::Iff, a, b) => iff_size(rel_bool_size(a), rel_bool_size(b)),
        RelBoolExpr::Bin(_, a, b) => 1 + rel_bool_size(a) + rel_bool_size(b),
        RelBoolExpr::Not(a) => 1 + rel_bool_size(a),
        RelBoolExpr::Cmp(_, a, b) => 1 + a.node_count() + b.node_count(),
        RelBoolExpr::Const(_) => 1,
    }
}

/// Parses a complete program (a sequence of statements).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax and when the resulting
/// program is not well-formed (duplicate `relate` labels, empty
/// havoc/relax target sets).
///
/// # Examples
///
/// ```
/// use relaxed_lang::parse_program;
/// let program = parse_program("x = 1; relax (x) st (x >= 1);")?;
/// assert!(program.body().has_relax());
/// # Ok::<(), relaxed_lang::parser::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> PResult<Program> {
    let mut p = Parser::new(src)?;
    let body = p.program()?;
    let body = p.finish(body)?;
    Program::new(body).map_err(|e| ParseError {
        message: e.to_string(),
        offset: 0,
    })
}

/// Parses a single statement (which may be a `;`-separated sequence).
pub fn parse_stmt(src: &str) -> PResult<Stmt> {
    let mut p = Parser::new(src)?;
    let s = p.program()?;
    p.finish(s)
}

/// Parses an integer expression.
pub fn parse_int_expr(src: &str) -> PResult<IntExpr> {
    let mut p = Parser::new(src)?;
    let e = p.int_expr()?;
    p.finish(e)
}

/// Parses a boolean expression.
pub fn parse_bool_expr(src: &str) -> PResult<BoolExpr> {
    let mut p = Parser::new(src)?;
    let e = p.bool_expr()?;
    p.finish(e)
}

/// Parses a relational boolean expression (as used in `relate`).
pub fn parse_rel_bool_expr(src: &str) -> PResult<RelBoolExpr> {
    let mut p = Parser::new(src)?;
    let e = p.rel_bool_expr()?;
    p.finish(e)
}

/// Parses a unary formula.
pub fn parse_formula(src: &str) -> PResult<Formula> {
    let mut p = Parser::new(src)?;
    let e = p.formula()?;
    p.finish(e)
}

/// Parses a relational formula.
pub fn parse_rel_formula(src: &str) -> PResult<RelFormula> {
    let mut p = Parser::new(src)?;
    let e = p.rel_formula()?;
    p.finish(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_arithmetic_precedence() {
        let e = parse_int_expr("x + y * 2 - 3").unwrap();
        assert_eq!(e.to_string(), "x + y * 2 - 3");
        let e2 = parse_int_expr("(x + y) * 2").unwrap();
        assert_eq!(e2.to_string(), "(x + y) * 2");
    }

    #[test]
    fn parse_unary_minus() {
        assert_eq!(parse_int_expr("-5").unwrap(), IntExpr::Const(-5));
        assert_eq!(
            parse_int_expr("-x").unwrap(),
            IntExpr::bin(IntBinOp::Sub, IntExpr::Const(0), IntExpr::var("x"))
        );
    }

    #[test]
    fn parse_bool_with_parenthesized_int_lhs() {
        let b = parse_bool_expr("(x + 1) < y && true").unwrap();
        assert_eq!(b.to_string(), "x + 1 < y && true");
    }

    #[test]
    fn parse_nested_parens_boolean() {
        let b = parse_bool_expr("((x < y) || (y < x))").unwrap();
        assert_eq!(b.to_string(), "x < y || y < x");
    }

    #[test]
    fn parse_relational_expression() {
        let b = parse_rel_bool_expr(
            "(num_r<o> < 10 && num_r<o> == num_r<r>) || (10 <= num_r<o> && 10 <= num_r<r>)",
        )
        .unwrap();
        assert!(matches!(b, RelBoolExpr::Bin(BoolBinOp::Or, _, _)));
    }

    #[test]
    fn parse_formula_with_quantifiers() {
        let f = parse_formula("exists w . w + w == x").unwrap();
        assert!(matches!(f, Formula::Exists(_, _)));
        let g = parse_formula("(exists w . w < x) && x >= 0").unwrap();
        assert!(matches!(g, Formula::And(_, _)));
        let h = parse_formula("forall w . w < x ==> w <= x").unwrap();
        assert!(matches!(h, Formula::Forall(_, _)));
    }

    #[test]
    fn parse_rel_formula_with_side_tagged_quantifier() {
        let f = parse_rel_formula("exists d<r> . x<r> == x<o> + d<r>").unwrap();
        assert!(matches!(f, RelFormula::Exists(_, Side::Relaxed, _)));
    }

    #[test]
    fn parse_full_program() {
        let src = r#"
            // Swish++-style knob relaxation
            original_max_r = max_r;
            relax (max_r) st (
                (original_max_r <= 10 && max_r == original_max_r)
                || (10 < original_max_r && 10 <= max_r));
            num_r = 0;
            while (num_r < max_r && num_r < N)
              invariant (num_r <= max_r && num_r <= N)
            {
                num_r = num_r + 1;
            }
            relate l1 : (num_r<o> < 10 && num_r<o> == num_r<r>)
                     || (10 <= num_r<o> && 10 <= num_r<r>);
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.gamma().len(), 1);
        assert!(program.body().has_relax());
    }

    #[test]
    fn parse_if_with_diverge_contract() {
        let src = r#"
            if (x < RS) diverge post_o (true) post_r (true) {
                y = 1;
            } else {
                y = 2;
            }
        "#;
        let s = parse_stmt(src).unwrap();
        match s {
            Stmt::If(i) => {
                let c = i.diverge.expect("diverge contract");
                assert_eq!(c.post_o, Formula::True);
                assert!(c.pre_o.is_none());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parse_while_with_rinvariant_and_diverge() {
        let src = r#"
            while (k < N)
              invariant (k <= N)
              rinvariant (k<o> == k<r>)
              diverge pre_o (k == 0) post_o (k == N) post_r (k == N)
            {
                k = k + 1;
            }
        "#;
        let s = parse_stmt(src).unwrap();
        match s {
            Stmt::While(w) => {
                assert!(w.invariant.is_some());
                assert!(w.rel_invariant.is_some());
                let c = w.diverge.expect("diverge contract");
                assert!(c.pre_o.is_some());
                assert!(c.pre_r.is_none());
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn parse_store_and_select() {
        let s = parse_stmt("a[i + 1] = a[i] * 2;").unwrap();
        match s {
            Stmt::Store(v, index, value) => {
                assert_eq!(v.name(), "a");
                assert_eq!(index.to_string(), "i + 1");
                assert_eq!(value.to_string(), "a[i] * 2");
            }
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn parse_len() {
        let b = parse_bool_expr("k < len(FF)").unwrap();
        assert_eq!(b.to_string(), "k < len(FF)");
        let rb = parse_rel_bool_expr("len(FF<o>) == len(FF<r>)").unwrap();
        assert_eq!(rb.to_string(), "len(FF<o>) == len(FF<r>)");
    }

    #[test]
    fn reject_keyword_as_variable() {
        assert!(parse_stmt("while = 3;").is_err());
    }

    #[test]
    fn reject_trailing_garbage() {
        assert!(parse_int_expr("x + 1 )").is_err());
        assert!(parse_program("x = 1; }").is_err());
    }

    #[test]
    fn duplicate_labels_rejected_at_parse() {
        let src = "relate l : true; relate l : true;";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn error_offsets_are_reported() {
        let err = parse_program("x = ;").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    /// One program per shape that nests `levels` levels deep (rounded up
    /// to whole blocks).
    fn nested_programs(levels: usize) -> [String; 5] {
        let ifs = levels.div_ceil(BLOCK_LEVELS);
        [
            format!("x = {}1{};", "(".repeat(levels), ")".repeat(levels)),
            format!("x = 1{};", " + 1".repeat(levels)),
            format!("x = {}1;", "-".repeat(levels)),
            format!("assert {}true;", "!".repeat(levels)),
            format!(
                "{}skip;{}",
                "if (true) { ".repeat(ifs),
                " } else { skip; }".repeat(ifs)
            ),
        ]
    }

    #[test]
    fn deep_nesting_is_refused_with_an_error_naming_the_limit() {
        let limit = format!("nesting deeper than {MAX_NESTING} levels");
        let [parens, sum, negations, nots, _] = nested_programs(100_000);
        let [.., ifs] = nested_programs(3_000 * BLOCK_LEVELS);
        for src in [parens, sum, negations, nots, ifs] {
            let err = parse_program(&src).unwrap_err();
            assert!(err.message.contains(&limit), "{err}");
        }
        let err = parse_formula(&format!("{}true", "forall x . ".repeat(1_000))).unwrap_err();
        assert!(err.message.contains(&limit), "{err}");
    }

    #[test]
    fn programs_at_the_nesting_limit_parse_and_round_trip() {
        for src in nested_programs(MAX_NESTING) {
            let program = parse_program(&src).unwrap();
            assert_eq!(parse_program(&program.to_string()).unwrap(), program);
        }
        for src in nested_programs(MAX_NESTING + 1) {
            assert!(parse_program(&src).is_err(), "one level past the limit");
        }
    }

    /// A right-associated chain of `links` `<==>`s between copies of
    /// `atom`.
    fn iff_chain(atom: &str, links: usize) -> String {
        vec![atom; links + 1].join(" <==> ")
    }

    /// The longest chain of `x >= 0` (or of `x<o> >= 0`, also three
    /// nodes) within [`MAX_IFF_GROWTH`].
    const IFF_LINKS_AT_BUDGET: usize = 12;

    #[test]
    fn iff_chains_past_the_growth_budget_are_refused() {
        let limit = format!("more than {MAX_IFF_GROWTH} nodes once desugared");
        let refused = |result: Result<String, ParseError>| match result {
            Err(e) => assert!(e.message.contains(&limit), "{e}"),
            Ok(_) => panic!("a chain past the budget parsed"),
        };
        let past = IFF_LINKS_AT_BUDGET + 1;
        refused(parse_formula(&iff_chain("x >= 0", past)).map(|f| f.to_string()));
        refused(parse_rel_formula(&iff_chain("x<o> >= 0", past)).map(|f| f.to_string()));
        refused(
            parse_program(&format!("assert {};", iff_chain("x >= 0", past))).map(|p| p.to_string()),
        );
        refused(
            parse_program(&format!("relate l : {};", iff_chain("x<o> >= 0", past)))
                .map(|p| p.to_string()),
        );
        // Growth adds up across one parse.
        let twice = format!(
            "assert {0}; assert {0};",
            iff_chain("x >= 0", IFF_LINKS_AT_BUDGET)
        );
        refused(parse_program(&twice).map(|p| p.to_string()));
    }

    #[test]
    fn iff_chains_at_the_growth_budget_parse_and_round_trip() {
        let links = IFF_LINKS_AT_BUDGET;
        let formula = parse_formula(&iff_chain("x >= 0", links)).unwrap();
        assert_eq!(parse_formula(&formula.to_string()).unwrap(), formula);
        let rel = parse_rel_formula(&iff_chain("x<o> >= 0", links)).unwrap();
        assert_eq!(parse_rel_formula(&rel.to_string()).unwrap(), rel);
        for src in [
            format!("assert {};", iff_chain("x >= 0", links)),
            format!("relate l : {};", iff_chain("x<o> >= 0", links)),
        ] {
            let program = parse_program(&src).unwrap();
            assert_eq!(parse_program(&program.to_string()).unwrap(), program);
        }
    }
}
