//! Recursive-descent parser for PLAN-P.
//!
//! The grammar follows the paper's fragments (figures 2 and 4):
//!
//! ```text
//! program   := decl*
//! decl      := "val" ID ":" type "=" expr
//!            | "fun" ID "(" params? ")" ":" type "=" expr
//!            | "exception" ID
//!            | "proto" expr
//!            | "channel" ID "(" ID ":" type "," ID ":" type "," ID ":" type ")"
//!              ("initstate" expr)? "is" expr
//! type      := posttype ("*" posttype)*
//! posttype  := atomtype ("list" | "hash_table")*
//! atomtype  := "int" | "bool" | … | "(" type ("," type)? ")"
//! expr      := "if" expr "then" expr "else" expr
//!            | "let" ("val" ID ":" type "=" expr)+ "in" expr "end"
//!            | "raise" ID
//!            | infix
//!            -- any expr may be followed by "handle" pat "=>" expr
//! ```
//!
//! Operator precedence, loosest to tightest: `handle`, `orelse`, `andalso`,
//! comparisons (non-associative), `+ - ^`, `* div mod`, unary `not`/`-`,
//! projection `#n`, atoms. The five infix levels are one loop over a
//! table of binding powers.
//!
//! Every identifier the tree keeps is interned: one [`Name`] per distinct
//! spelling in the source, shared by all its occurrences.

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::{lex, unescape};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::types::Type;

/// Parses a complete PLAN-P program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let mut p = Parser::new(src)?;
    let mut decls = Vec::new();
    while !p.at(&TokenKind::Eof) {
        decls.push(p.decl()?);
    }
    Ok(Program { decls })
}

/// Parses a single expression (useful for tests and tooling).
///
/// # Errors
///
/// Returns an error if the input is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, LangError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// A cursor over the tokens of one source text, which end with `Eof`.
struct Parser<'s> {
    tokens: Vec<Token<'s>>,
    pos: usize,
    /// The names made so far, by spelling. The spellings come from the
    /// network, so the map keeps std's keyed hash.
    #[allow(clippy::disallowed_types)] // lookup-only: `entry` by spelling, never iterated
    names: std::collections::HashMap<&'s str, Name>,
}

/// The infix operator a token spells and its binding power: `orelse` 1,
/// `andalso` 2, the comparisons 3, `+ - ^` 4, `* div mod` 5.
fn infix(kind: TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::Orelse => (BinOp::Or, 1),
        TokenKind::Andalso => (BinOp::And, 2),
        TokenKind::Eq => (BinOp::Eq, CMP),
        TokenKind::Ne => (BinOp::Ne, CMP),
        TokenKind::Lt => (BinOp::Lt, CMP),
        TokenKind::Le => (BinOp::Le, CMP),
        TokenKind::Gt => (BinOp::Gt, CMP),
        TokenKind::Ge => (BinOp::Ge, CMP),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Caret => (BinOp::Concat, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Div => (BinOp::Div, 5),
        TokenKind::Mod => (BinOp::Mod, 5),
        _ => return None,
    })
}

/// The binding power of the comparisons, the one non-associative level.
const CMP: u8 = 3;

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Result<Self, LangError> {
        let mut p = Parser {
            tokens: lex(src)?,
            pos: 0,
            names: Default::default(),
        };
        // Room for the names of any corpus program without a rehash.
        p.names.reserve(64);
        Ok(p)
    }

    /// The one [`Name`] of `spelling` in this source.
    fn intern(&mut self, spelling: &'s str) -> Name {
        self.names
            .entry(spelling)
            .or_insert_with(|| Name::from(spelling))
            .clone()
    }

    fn peek(&self) -> Token<'s> {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn bump(&mut self) -> Token<'s> {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token<'s>, LangError> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn unexpected(&self, what: &str) -> LangError {
        let t = self.peek();
        LangError::parse(format!("{what}, found {}", t.kind.describe()), t.span)
    }

    /// An identifier as the source spells it.
    fn word(&mut self) -> Result<(&'s str, Span), LangError> {
        match self.peek().kind {
            TokenKind::Ident(name) => Ok((name, self.bump().span)),
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    /// An identifier the tree keeps.
    fn ident(&mut self) -> Result<(Name, Span), LangError> {
        let (name, span) = self.word()?;
        Ok((self.intern(name), span))
    }

    // ---- declarations -------------------------------------------------

    fn decl(&mut self) -> Result<Decl, LangError> {
        let start = self.peek().span;
        match self.peek().kind {
            TokenKind::Val => {
                self.bump();
                let (name, _) = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.ty()?;
                self.expect(TokenKind::Eq)?;
                let init = self.expr()?;
                let span = start.merge(init.span);
                Ok(Decl::Val(ValDecl {
                    name,
                    ty,
                    init,
                    span,
                }))
            }
            TokenKind::Fun => {
                self.bump();
                let (name, _) = self.ident()?;
                self.expect(TokenKind::LParen)?;
                let mut params = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        let (pname, _) = self.ident()?;
                        self.expect(TokenKind::Colon)?;
                        let pty = self.ty()?;
                        params.push((pname, pty));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Colon)?;
                let ret = self.ty()?;
                self.expect(TokenKind::Eq)?;
                let body = self.expr()?;
                let span = start.merge(body.span);
                Ok(Decl::Fun(FunDecl {
                    name,
                    params,
                    ret,
                    body,
                    span,
                }))
            }
            TokenKind::Exception => {
                self.bump();
                let (name, nspan) = self.ident()?;
                Ok(Decl::Exception(ExnDecl {
                    name,
                    span: start.merge(nspan),
                }))
            }
            TokenKind::Proto => {
                self.bump();
                let init = self.expr()?;
                let span = start.merge(init.span);
                Ok(Decl::Proto(ProtoDecl { init, span }))
            }
            TokenKind::Channel => {
                self.bump();
                let (name, _) = self.ident()?;
                self.expect(TokenKind::LParen)?;
                let ps = self.typed_param()?;
                self.expect(TokenKind::Comma)?;
                let ss = self.typed_param()?;
                self.expect(TokenKind::Comma)?;
                let pkt = self.typed_param()?;
                self.expect(TokenKind::RParen)?;
                let initstate = if self.eat(&TokenKind::Initstate) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::Is)?;
                let body = self.expr()?;
                let span = start.merge(body.span);
                Ok(Decl::Channel(ChannelDecl {
                    name,
                    ps,
                    ss,
                    pkt,
                    initstate,
                    body,
                    span,
                }))
            }
            _ => Err(self.unexpected(
                "expected declaration (`val`, `fun`, `exception`, `proto`, or `channel`)",
            )),
        }
    }

    fn typed_param(&mut self) -> Result<(Name, Type), LangError> {
        let (name, _) = self.ident()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.ty()?;
        Ok((name, ty))
    }

    // ---- types ---------------------------------------------------------

    fn ty(&mut self) -> Result<Type, LangError> {
        let first = self.post_ty()?;
        if !self.at(&TokenKind::Star) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(&TokenKind::Star) {
            parts.push(self.post_ty()?);
        }
        Ok(Type::Tuple(parts.into()))
    }

    /// A type atom followed by `list` / `hash_table` postfixes.
    fn post_ty(&mut self) -> Result<Type, LangError> {
        let span = self.peek().span;
        let mut base = self.atom_ty()?;
        loop {
            match self.peek().kind {
                TokenKind::Ident("list") => {
                    self.bump();
                    base = TyAtom::Single(Type::List(base.into_single(span)?.into()));
                }
                TokenKind::Ident("hash_table") => {
                    self.bump();
                    base = TyAtom::Single(make_table(base, span)?);
                }
                _ => break,
            }
        }
        base.into_single(span)
    }

    fn atom_ty(&mut self) -> Result<TyAtom, LangError> {
        match self.peek().kind {
            TokenKind::Ident(_) => {
                let (name, span) = self.word()?;
                let t = match name {
                    "int" => Type::Int,
                    "bool" => Type::Bool,
                    "string" => Type::Str,
                    "char" => Type::Char,
                    "unit" => Type::Unit,
                    "host" => Type::Host,
                    "blob" => Type::Blob,
                    "ip" => Type::Ip,
                    "tcp" => Type::Tcp,
                    "udp" => Type::Udp,
                    other => {
                        return Err(LangError::parse(
                            format!("unknown type name `{other}`"),
                            span,
                        ))
                    }
                };
                Ok(TyAtom::Single(t))
            }
            TokenKind::LParen => {
                self.bump();
                let first = self.ty()?;
                if self.eat(&TokenKind::Comma) {
                    let second = self.ty()?;
                    self.expect(TokenKind::RParen)?;
                    Ok(TyAtom::Pair(first, second))
                } else {
                    self.expect(TokenKind::RParen)?;
                    Ok(TyAtom::Single(first))
                }
            }
            _ => Err(self.unexpected("expected type")),
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, LangError> {
        let head = match self.peek().kind {
            TokenKind::If => self.if_expr()?,
            TokenKind::Let => self.let_expr()?,
            TokenKind::Raise => self.raise_expr()?,
            _ => self.infix_expr(1)?,
        };
        self.handle_suffix(head)
    }

    fn handle_suffix(&mut self, mut e: Expr) -> Result<Expr, LangError> {
        while self.at(&TokenKind::Handle) {
            self.bump();
            let pat = match self.peek().kind {
                TokenKind::Underscore => {
                    self.bump();
                    ExnPat::Wild
                }
                TokenKind::Ident(_) => {
                    let (name, _) = self.ident()?;
                    ExnPat::Name(name)
                }
                _ => return Err(self.unexpected("expected exception name or `_`")),
            };
            self.expect(TokenKind::DArrow)?;
            let handler = self.expr()?;
            let span = e.span.merge(handler.span);
            e = Expr::new(ExprKind::Handle(Box::new(e), pat, Box::new(handler)), span);
        }
        Ok(e)
    }

    fn if_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.expect(TokenKind::If)?.span;
        let cond = self.expr()?;
        self.expect(TokenKind::Then)?;
        let then = self.expr()?;
        self.expect(TokenKind::Else)?;
        let els = self.expr()?;
        let span = start.merge(els.span);
        Ok(Expr::new(
            ExprKind::If(Box::new(cond), Box::new(then), Box::new(els)),
            span,
        ))
    }

    fn let_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.expect(TokenKind::Let)?.span;
        let mut binds = Vec::new();
        while self.at(&TokenKind::Val) {
            let bstart = self.bump().span;
            let (name, _) = self.ident()?;
            self.expect(TokenKind::Colon)?;
            let ty = self.ty()?;
            self.expect(TokenKind::Eq)?;
            let init = self.expr()?;
            let span = bstart.merge(init.span);
            binds.push(LetBind {
                name,
                ty,
                init,
                span,
            });
        }
        if binds.is_empty() {
            return Err(self.unexpected("expected at least one `val` binding in `let`"));
        }
        self.expect(TokenKind::In)?;
        let body = self.expr()?;
        let end = self.expect(TokenKind::End)?.span;
        Ok(Expr::new(
            ExprKind::Let(binds, Box::new(body)),
            start.merge(end),
        ))
    }

    fn raise_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.expect(TokenKind::Raise)?.span;
        let (name, nspan) = self.ident()?;
        Ok(Expr::new(ExprKind::Raise(name), start.merge(nspan)))
    }

    /// Infix operators binding at least as tightly as `min`, each level
    /// left-associative but the comparisons, of which an operand holds
    /// at most one unparenthesized.
    fn infix_expr(&mut self, min: u8) -> Result<Expr, LangError> {
        let mut e = self.unary_expr()?;
        // An operator binding tighter than the last one taken was taken
        // by its right operand already, unless that operand stopped at a
        // second comparison: the expression ends there.
        let mut max = u8::MAX;
        while let Some((op, power)) = infix(self.peek().kind) {
            if power < min || power > max {
                break;
            }
            self.bump();
            let rhs = self.infix_expr(power + 1)?;
            let span = e.span.merge(rhs.span);
            e = Expr::new(ExprKind::Binop(op, Box::new(e), Box::new(rhs)), span);
            max = if power == CMP { CMP - 1 } else { power };
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        match self.peek().kind {
            TokenKind::Not => {
                let start = self.bump().span;
                let e = self.unary_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::Unop(UnOp::Not, Box::new(e)), span))
            }
            TokenKind::Minus => {
                let start = self.bump().span;
                let e = self.unary_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::Unop(UnOp::Neg, Box::new(e)), span))
            }
            TokenKind::Proj(n) => {
                let start = self.bump().span;
                let e = self.unary_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::Proj(n, Box::new(e)), span))
            }
            _ => self.atom_expr(),
        }
    }

    fn atom_expr(&mut self) -> Result<Expr, LangError> {
        let t = self.peek();
        match t.kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(n), t.span))
            }
            TokenKind::Str(body) => {
                self.bump();
                Ok(Expr::new(ExprKind::Str(unescape(body)), t.span))
            }
            TokenKind::Char(c) => {
                self.bump();
                Ok(Expr::new(ExprKind::Char(c), t.span))
            }
            TokenKind::Host(a) => {
                self.bump();
                Ok(Expr::new(ExprKind::Host(a), t.span))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), t.span))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), t.span))
            }
            TokenKind::If => self.if_expr(),
            TokenKind::Let => self.let_expr(),
            TokenKind::Raise => self.raise_expr(),
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    self.call_expr(name, t.span)
                } else {
                    Ok(Expr::new(ExprKind::Var(self.intern(name)), t.span))
                }
            }
            TokenKind::LParen => self.paren_expr(),
            TokenKind::LBracket => {
                let start = self.bump().span;
                let mut items = Vec::new();
                if !self.at(&TokenKind::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RBracket)?.span;
                Ok(Expr::new(ExprKind::List(items), start.merge(end)))
            }
            _ => Err(self.unexpected("expected expression")),
        }
    }

    fn call_expr(&mut self, name: &'s str, nspan: Span) -> Result<Expr, LangError> {
        self.expect(TokenKind::LParen)?;
        // `OnRemote` and `OnNeighbor` take a channel *name* as their first
        // argument; it is not an expression.
        if name == "OnRemote" || name == "OnNeighbor" {
            let (chan, _) = self.ident()?;
            self.expect(TokenKind::Comma)?;
            if name == "OnRemote" {
                let pkt = self.expr()?;
                let end = self.expect(TokenKind::RParen)?.span;
                return Ok(Expr::new(
                    ExprKind::OnRemote(chan, Box::new(pkt)),
                    nspan.merge(end),
                ));
            }
            let host = self.expr()?;
            self.expect(TokenKind::Comma)?;
            let pkt = self.expr()?;
            let end = self.expect(TokenKind::RParen)?.span;
            return Ok(Expr::new(
                ExprKind::OnNeighbor(chan, Box::new(host), Box::new(pkt)),
                nspan.merge(end),
            ));
        }
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RParen)?.span;
        Ok(Expr::new(
            ExprKind::Call(self.intern(name), args),
            nspan.merge(end),
        ))
    }

    /// Disambiguates `()`, `(e)`, `(e, e, …)`, and `(e; e; …)`.
    fn paren_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.expect(TokenKind::LParen)?.span;
        if self.at(&TokenKind::RParen) {
            let end = self.bump().span;
            return Ok(Expr::new(ExprKind::Unit, start.merge(end)));
        }
        let first = self.expr()?;
        if self.at(&TokenKind::Comma) {
            let mut items = vec![first];
            while self.eat(&TokenKind::Comma) {
                items.push(self.expr()?);
            }
            let end = self.expect(TokenKind::RParen)?.span;
            Ok(Expr::new(ExprKind::Tuple(items), start.merge(end)))
        } else if self.at(&TokenKind::Semi) {
            let mut items = vec![first];
            while self.eat(&TokenKind::Semi) {
                items.push(self.expr()?);
            }
            let end = self.expect(TokenKind::RParen)?.span;
            Ok(Expr::new(ExprKind::Seq(items), start.merge(end)))
        } else {
            let end = self.expect(TokenKind::RParen)?.span;
            // Keep the inner expression but widen its span to the parens so
            // diagnostics include them.
            Ok(Expr::new(first.kind, start.merge(end)))
        }
    }
}

/// Intermediate result of parsing a type atom: `(k, v)` pairs are only
/// meaningful immediately before `hash_table`.
enum TyAtom {
    Single(Type),
    Pair(Type, Type),
}

impl TyAtom {
    fn into_single(self, span: Span) -> Result<Type, LangError> {
        match self {
            TyAtom::Single(t) => Ok(t),
            TyAtom::Pair(..) => Err(LangError::parse(
                "`(k, v)` type pair is only valid immediately before `hash_table`",
                span,
            )),
        }
    }
}

fn make_table(atom: TyAtom, span: Span) -> Result<Type, LangError> {
    match atom {
        TyAtom::Pair(k, v) => Ok(Type::Table(k.into(), v.into())),
        // Paper sugar: `(v * k1 * … * kn) hash_table` stores `v` values
        // keyed by `(k1, …, kn)`.
        TyAtom::Single(Type::Tuple(parts)) if parts.len() >= 2 => {
            let key = Type::tuple(parts[1..].to_vec());
            Ok(Type::Table(key.into(), parts[0].clone().into()))
        }
        TyAtom::Single(_) => Err(LangError::parse(
            "hash_table needs `(key, value) hash_table` or the product sugar `(v*k…) hash_table`",
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        parse_expr(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let e = expr("1 + 2 * 3");
        let ExprKind::Binop(BinOp::Add, _, rhs) = e.kind else {
            panic!("expected Add at top: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binop(BinOp::Mul, _, _)));
    }

    #[test]
    fn comparison_is_non_associative() {
        assert!(parse_expr("1 < 2 < 3").is_err());
        assert!(parse_expr("a andalso 1 < 2 + 3 = 4").is_err());
    }

    #[test]
    fn andalso_orelse_precedence() {
        let e = expr("a orelse b andalso c");
        let ExprKind::Binop(BinOp::Or, _, rhs) = e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Binop(BinOp::And, _, _)));
    }

    #[test]
    fn unit_tuple_seq_disambiguation() {
        assert!(matches!(expr("()").kind, ExprKind::Unit));
        assert!(matches!(expr("(1, 2)").kind, ExprKind::Tuple(v) if v.len() == 2));
        assert!(matches!(expr("(1; 2; 3)").kind, ExprKind::Seq(v) if v.len() == 3));
        assert!(matches!(expr("(1)").kind, ExprKind::Int(1)));
    }

    #[test]
    fn projection_binds_tight() {
        // #1 p = 2  parses as  (#1 p) = 2
        let e = expr("#1 p = 2");
        let ExprKind::Binop(BinOp::Eq, lhs, _) = e.kind else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Proj(1, _)));
    }

    #[test]
    fn call_and_var() {
        assert!(matches!(expr("f(1, 2)").kind, ExprKind::Call(n, a) if &*n == "f" && a.len() == 2));
        assert!(
            matches!(expr("thisHost()").kind, ExprKind::Call(n, a) if &*n == "thisHost" && a.is_empty())
        );
        assert!(matches!(expr("x").kind, ExprKind::Var(n) if &*n == "x"));
    }

    #[test]
    fn on_remote_takes_channel_name() {
        let e = expr("OnRemote(network, (iph, tcp, body))");
        let ExprKind::OnRemote(chan, pkt) = e.kind else {
            panic!("{e:?}")
        };
        assert_eq!(&*chan, "network");
        assert!(matches!(pkt.kind, ExprKind::Tuple(_)));
    }

    #[test]
    fn on_neighbor_takes_host_expr() {
        let e = expr("OnNeighbor(audio, 10.0.0.1, p)");
        let ExprKind::OnNeighbor(chan, host, _) = e.kind else {
            panic!()
        };
        assert_eq!(&*chan, "audio");
        assert!(matches!(host.kind, ExprKind::Host(_)));
    }

    #[test]
    fn let_with_multiple_bindings() {
        let e = expr("let val x : int = 1 val y : int = 2 in x + y end");
        let ExprKind::Let(binds, _) = e.kind else {
            panic!()
        };
        assert_eq!(binds.len(), 2);
        assert_eq!(&*binds[0].name, "x");
        assert_eq!(binds[1].ty, Type::Int);
    }

    #[test]
    fn let_requires_bindings() {
        assert!(parse_expr("let in 1 end").is_err());
    }

    #[test]
    fn handle_attaches_to_expression() {
        let e = expr("f(x) handle NotFound => 0");
        let ExprKind::Handle(_, pat, _) = e.kind else {
            panic!()
        };
        assert_eq!(pat, ExnPat::Name("NotFound".into()));
        let e = expr("f(x) handle _ => 0");
        let ExprKind::Handle(_, pat, _) = e.kind else {
            panic!()
        };
        assert_eq!(pat, ExnPat::Wild);
    }

    #[test]
    fn chained_handles() {
        // As in SML, a handler body extends as far right as possible, so
        // the second `handle` guards the first handler's body.
        let e = expr("f(x) handle A => 1 handle B => 2");
        let ExprKind::Handle(_, pat, handler) = e.kind else {
            panic!()
        };
        assert_eq!(pat, ExnPat::Name("A".into()));
        assert!(matches!(handler.kind, ExprKind::Handle(..)));
    }

    #[test]
    fn if_as_operand_requires_parens_but_works_nested() {
        let e = expr("if a then 1 else if b then 2 else 3");
        let ExprKind::If(_, _, els) = e.kind else {
            panic!()
        };
        assert!(matches!(els.kind, ExprKind::If(..)));
    }

    #[test]
    fn raise_parses() {
        assert!(matches!(expr("raise NotFound").kind, ExprKind::Raise(n) if &*n == "NotFound"));
    }

    #[test]
    fn list_literals() {
        assert!(matches!(expr("[]").kind, ExprKind::List(v) if v.is_empty()));
        assert!(matches!(expr("[1, 2, 3]").kind, ExprKind::List(v) if v.len() == 3));
    }

    #[test]
    fn type_product_and_table_sugar() {
        let src = "channel network(ps : int, ss : (int*host*host) hash_table, p : ip*tcp*blob) is (ps, ss)";
        let prog = parse_program(src).unwrap();
        let Decl::Channel(ch) = &prog.decls[0] else {
            panic!()
        };
        assert_eq!(
            ch.ss.1,
            Type::Table(
                Type::Tuple([Type::Host, Type::Host].into()).into(),
                Type::Int.into()
            )
        );
        assert_eq!(
            ch.pkt.1,
            Type::Tuple([Type::Ip, Type::Tcp, Type::Blob].into())
        );
    }

    #[test]
    fn type_pair_table_form() {
        let src = "val t : (host, int) hash_table = mkTable(16)";
        let prog = parse_program(src).unwrap();
        let Decl::Val(v) = &prog.decls[0] else {
            panic!()
        };
        assert_eq!(v.ty, Type::Table(Type::Host.into(), Type::Int.into()));
    }

    #[test]
    fn type_pair_requires_hash_table() {
        assert!(parse_program("val t : (host, int) = x").is_err());
    }

    #[test]
    fn scalar_hash_table_rejected() {
        assert!(parse_program("val t : int hash_table = x").is_err());
    }

    #[test]
    fn list_type_postfix() {
        let prog = parse_program("val l : int list = []").unwrap();
        let Decl::Val(v) = &prog.decls[0] else {
            panic!()
        };
        assert_eq!(v.ty, Type::List(Type::Int.into()));
    }

    #[test]
    fn fun_decl_parses() {
        let src = "fun add(a : int, b : int) : int = a + b";
        let prog = parse_program(src).unwrap();
        let Decl::Fun(f) = &prog.decls[0] else {
            panic!()
        };
        assert_eq!(&*f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
    }

    #[test]
    fn exception_and_proto_decls() {
        let prog = parse_program("exception Busy proto 0").unwrap();
        assert!(matches!(prog.decls[0], Decl::Exception(_)));
        assert!(matches!(prog.decls[1], Decl::Proto(_)));
    }

    #[test]
    fn channel_with_initstate() {
        let src = "channel c(ps : unit, ss : int, p : ip*udp*blob) initstate 5 is (ps, ss + 1)";
        let prog = parse_program(src).unwrap();
        let Decl::Channel(ch) = &prog.decls[0] else {
            panic!()
        };
        assert!(ch.initstate.is_some());
    }

    #[test]
    fn figure2_fragment_parses() {
        let src = r#"
fun getSetS(src : host, dst : host, ss : (int*host*host) hash_table, ps : int) : int =
  tblGet(ss, (src, dst)) handle NotFound => ps mod 2

channel network(ps : int, ss : (int*host*host) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcp : tcp = #2 p
    val body : blob = #3 p
  in
    if (tcpDst(tcp) = 80) then
      -- incoming HTTP requests
      let
        val con : int = getSetS(ipSrc(iph), ipDst(iph), ss, ps)
      in
        if (con = 0) then
          (OnRemote(network, (ipDestSet(iph, 131.254.60.81), tcp, body));
           (con, ss))
        else
          (OnRemote(network, (ipDestSet(iph, 131.254.60.109), tcp, body));
           (con, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
"#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.decls.len(), 2);
        assert_eq!(prog.channels().count(), 1);
    }

    #[test]
    fn figure4_overloaded_channels_parse() {
        let src = r#"
val CmdA : int = 1
val CmdB : int = 2

channel network(ps : unit, ss : unit, p : ip*tcp*char*int) is
  if charPos(#3 p) = CmdA then
    (print("CmdA: "); println(#4 p); (ps, ss))
  else
    (ps, ss)

channel network(ps : unit, ss : unit, p : ip*tcp*char*bool) is
  if charPos(#3 p) = CmdB then
    (print("CmdB: "); println(#4 p); (ps, ss))
  else
    (ps, ss)
"#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.channels().count(), 2);
    }

    #[test]
    fn error_mentions_found_token() {
        let err = parse_program("val x int = 3").unwrap_err();
        assert!(err.message.contains("expected `:`"), "{}", err.message);
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_expr("1 + 2 )").is_err());
    }

    #[test]
    fn negative_literal_via_unary_minus() {
        let e = expr("-5");
        assert!(matches!(e.kind, ExprKind::Unop(UnOp::Neg, _)));
    }

    #[test]
    fn nested_parens_keep_kind() {
        assert!(matches!(expr("((1))").kind, ExprKind::Int(1)));
    }
}
