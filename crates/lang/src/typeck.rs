//! Bidirectional type checker for PLAN-P.
//!
//! Besides ordinary type checking, this pass enforces the language
//! restrictions the paper's safety story depends on:
//!
//! * **no recursion** — `val`/`fun` names are visible only to *later*
//!   declarations, so call graphs are acyclic by construction (local
//!   termination, section 2.1);
//! * **pure initializers** — `val` initializers may use only pure
//!   primitives; `proto`/`initstate` may additionally allocate tables;
//! * **consistent protocol state** — every channel must declare the same
//!   protocol-state type;
//! * **valid packet types** — a channel's packet parameter must be
//!   `ip [* tcp|udp] * payload…` (see [`Type::packet_shape`]);
//! * **resolved sends** — `OnRemote`/`OnNeighbor` must name a channel with
//!   an overload matching the packet expression's type.
//!
//! Checking is *bidirectional*: `check(e, expected)` pushes the context
//! type into `e`, which is how `mkTable(256)` and `[]` receive their
//! types without general inference.
//!
//! The checker compares and files the parser's [`Name`]s by handle, and
//! the typed tree holds the same handles: no name is copied on the way.

use crate::ast::*;
use crate::error::LangError;
use crate::prims::{self, PrimTable, PREDECLARED_EXNS};
use crate::span::Span;
use crate::tast::*;
use crate::types::Type;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Type-checks `prog`, producing the typed program.
///
/// `prog`'s names must be those of one parse — every occurrence of a
/// spelling one handle, as [`parse_program`](crate::parse_program) makes
/// them — since a name is looked up by its handle.
///
/// # Errors
///
/// Returns the first type error found.
pub fn typecheck(prog: &Program) -> Result<TProgram, LangError> {
    Checker::new(prog)?.run()
}

/// What a name is filed under in the checker's maps: the address of its
/// handle, which within one parse stands for the spelling.
type Key = *const u8;

fn key(name: &Name) -> Key {
    Rc::as_ptr(name).cast()
}

/// Signature of one channel overload, collected before bodies are checked
/// so that channels may reference each other (network recursion is the
/// business of the global-termination analysis, not the checker).
#[derive(Debug, Clone)]
struct ChanSig {
    pkt_ty: Type,
    span: Span,
}

/// Where an expression appears; restricts allowed effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// `val` initializer — pure primitives only.
    ValInit,
    /// `proto` / `initstate` initializer — pure + allocation.
    StateInit,
    /// Function or channel body — anything goes.
    Body,
}

struct Checker<'a> {
    prog: &'a Program,
    prims: &'static PrimTable,
    exns: Vec<Name>,
    chan_sigs: BTreeMap<Key, Vec<ChanSig>>,
    globals: Vec<TGlobal>,
    global_map: BTreeMap<Key, u32>,
    funs: Vec<TFun>,
    fun_map: BTreeMap<Key, u32>,
}

/// The locals in scope; names and types are the declarations' own.
struct Scope<'a> {
    /// `(name, type, slot)` — innermost binding last.
    locals: Vec<(&'a Name, &'a Type, u32)>,
    next: u32,
    max: u32,
    ctx: Ctx,
}

impl<'a> Scope<'a> {
    fn new(ctx: Ctx) -> Self {
        Scope {
            locals: Vec::new(),
            next: 0,
            max: 0,
            ctx,
        }
    }

    fn push(&mut self, name: &'a Name, ty: &'a Type) -> u32 {
        let slot = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        self.locals.push((name, ty, slot));
        slot
    }

    fn pop(&mut self) {
        self.locals.pop();
        self.next -= 1;
    }

    fn lookup(&self, name: &Name) -> Option<(&'a Type, u32)> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _, _)| Rc::ptr_eq(n, name))
            .map(|&(_, t, s)| (t, s))
    }
}

impl<'a> Checker<'a> {
    fn new(prog: &'a Program) -> Result<Self, LangError> {
        let prims = prims::table();

        // Pass 1a: exceptions.
        let mut exns: Vec<Name> = PREDECLARED_EXNS.iter().map(|&s| Name::from(s)).collect();
        for d in &prog.decls {
            if let Decl::Exception(e) = d {
                if exns.iter().any(|n| n == &e.name) {
                    return Err(LangError::ty(
                        format!("exception `{}` is already declared", e.name),
                        e.span,
                    ));
                }
                exns.push(e.name.clone());
            }
        }

        // Pass 1b: channel signatures (visible program-wide).
        let mut chan_sigs: BTreeMap<Key, Vec<ChanSig>> = BTreeMap::new();
        let mut proto_ty: Option<(Type, Span)> = None;
        for ch in prog.channels() {
            if ch.pkt.1.packet_shape().is_none() {
                return Err(LangError::ty(
                    format!(
                        "channel `{}` has invalid packet type {} (expected ip [* tcp|udp] * payload…)",
                        ch.name, ch.pkt.1
                    ),
                    ch.span,
                ));
            }
            match &proto_ty {
                None => proto_ty = Some((ch.ps.1.clone(), ch.span)),
                Some((t, _)) if *t != ch.ps.1 => {
                    return Err(LangError::ty(
                        format!(
                            "channel `{}` declares protocol state {}, but an earlier channel declared {} (protocol state is shared by all channels)",
                            ch.name, ch.ps.1, t
                        ),
                        ch.span,
                    ));
                }
                Some(_) => {}
            }
            let group = chan_sigs.entry(key(&ch.name)).or_default();
            if group.iter().any(|s| s.pkt_ty == ch.pkt.1) {
                return Err(LangError::ty(
                    format!(
                        "channel `{}` already has an overload for packet type {} (dispatch would be ambiguous)",
                        ch.name, ch.pkt.1
                    ),
                    ch.span,
                ));
            }
            group.push(ChanSig {
                pkt_ty: ch.pkt.1.clone(),
                span: ch.span,
            });
        }

        Ok(Checker {
            prog,
            prims,
            exns,
            chan_sigs,
            globals: Vec::new(),
            global_map: BTreeMap::new(),
            funs: Vec::new(),
            fun_map: BTreeMap::new(),
        })
    }

    fn run(mut self) -> Result<TProgram, LangError> {
        let mut channels: Vec<TChannel> = Vec::new();
        #[allow(clippy::disallowed_types)] // becomes `TProgram::chan_groups`
        let mut chan_groups: std::collections::HashMap<Name, Vec<usize>> = Default::default();
        let mut proto_init: Option<TExpr> = None;
        let mut proto_span: Option<Span> = None;

        // Determine the shared protocol-state type up front.
        let first_chan = self.prog.channels().next().ok_or_else(|| {
            LangError::ty(
                "a PLAN-P program must define at least one channel",
                Span::dummy(),
            )
        })?;
        let proto_ty = first_chan.ps.1.clone();

        for d in &self.prog.decls {
            match d {
                Decl::Exception(_) => {} // handled in pass 1
                Decl::Val(v) => {
                    self.check_fresh_global(&v.name, v.span)?;
                    let mut scope = Scope::new(Ctx::ValInit);
                    let init = self.check(&v.init, &v.ty, &mut scope)?;
                    self.global_map
                        .insert(key(&v.name), self.globals.len() as u32);
                    self.globals.push(TGlobal {
                        name: v.name.clone(),
                        ty: v.ty.clone(),
                        init,
                        span: v.span,
                    });
                }
                Decl::Fun(f) => {
                    self.check_fresh_global(&f.name, f.span)?;
                    let mut scope = Scope::new(Ctx::Body);
                    let mut seen = Vec::new();
                    for (pname, pty) in &f.params {
                        if seen.contains(&pname) {
                            return Err(LangError::ty(
                                format!("duplicate parameter `{pname}`"),
                                f.span,
                            ));
                        }
                        seen.push(pname);
                        scope.push(pname, pty);
                    }
                    let body = self.check(&f.body, &f.ret, &mut scope)?;
                    self.fun_map.insert(key(&f.name), self.funs.len() as u32);
                    self.funs.push(TFun {
                        name: f.name.clone(),
                        params: f.params.clone(),
                        ret: f.ret.clone(),
                        body,
                        nlocals: scope.max,
                        span: f.span,
                    });
                }
                Decl::Proto(p) => {
                    if proto_span.is_some() {
                        return Err(LangError::ty("duplicate `proto` declaration", p.span));
                    }
                    let mut scope = Scope::new(Ctx::StateInit);
                    proto_init = Some(self.check(&p.init, &proto_ty, &mut scope)?);
                    proto_span = Some(p.span);
                }
                Decl::Channel(ch) => {
                    let group = &self.chan_sigs[&key(&ch.name)];
                    let overload = group
                        .iter()
                        .position(|s| s.span == ch.span)
                        .expect("channel collected in pass 1")
                        as u32;

                    let initstate = match &ch.initstate {
                        Some(e) => {
                            let mut scope = Scope::new(Ctx::StateInit);
                            Some(self.check(e, &ch.ss.1, &mut scope)?)
                        }
                        None => {
                            if !ch.ss.1.is_defaultable() {
                                return Err(LangError::ty(
                                    format!(
                                        "channel `{}` needs `initstate`: state type {} has no default value",
                                        ch.name, ch.ss.1
                                    ),
                                    ch.span,
                                ));
                            }
                            None
                        }
                    };

                    let mut scope = Scope::new(Ctx::Body);
                    scope.push(&ch.ps.0, &ch.ps.1);
                    scope.push(&ch.ss.0, &ch.ss.1);
                    scope.push(&ch.pkt.0, &ch.pkt.1);
                    let want = Type::Tuple([ch.ps.1.clone(), ch.ss.1.clone()].into());
                    let body = self.check(&ch.body, &want, &mut scope)?;

                    let index = channels.len();
                    chan_groups.entry(ch.name.clone()).or_default().push(index);
                    channels.push(TChannel {
                        name: ch.name.clone(),
                        overload,
                        ps_name: ch.ps.0.clone(),
                        ss_name: ch.ss.0.clone(),
                        pkt_name: ch.pkt.0.clone(),
                        ss_ty: ch.ss.1.clone(),
                        pkt_ty: ch.pkt.1.clone(),
                        shape: ch.pkt.1.packet_shape().expect("validated in pass 1"),
                        initstate,
                        body,
                        nlocals: scope.max,
                        span: ch.span,
                    });
                }
            }
        }

        if proto_init.is_none() && !proto_ty.is_defaultable() {
            return Err(LangError::ty(
                format!(
                    "protocol state type {proto_ty} has no default value; add a `proto` declaration"
                ),
                first_chan.span,
            ));
        }

        Ok(TProgram {
            globals: self.globals,
            funs: self.funs,
            exns: self.exns,
            proto_ty,
            proto_init,
            channels,
            chan_groups,
        })
    }

    fn check_fresh_global(&self, name: &Name, span: Span) -> Result<(), LangError> {
        if self.global_map.contains_key(&key(name)) || self.fun_map.contains_key(&key(name)) {
            return Err(LangError::ty(format!("`{name}` is already declared"), span));
        }
        if self.prims.lookup(name).is_some() {
            return Err(LangError::ty(
                format!("`{name}` is a primitive and cannot be redeclared"),
                span,
            ));
        }
        Ok(())
    }

    fn exn_id(&self, name: &str, span: Span) -> Result<ExnId, LangError> {
        self.exns
            .iter()
            .position(|n| &**n == name)
            .map(|i| ExnId(i as u32))
            .ok_or_else(|| LangError::ty(format!("unknown exception `{name}`"), span))
    }

    // ---- bidirectional checking ----------------------------------------

    /// Checks `e` against the expected type `want`.
    fn check(&self, e: &'a Expr, want: &Type, scope: &mut Scope<'a>) -> Result<TExpr, LangError> {
        match &e.kind {
            ExprKind::If(c, t, f) => {
                let c = self.check(c, &Type::Bool, scope)?;
                let t = self.check(t, want, scope)?;
                let f = self.check(f, want, scope)?;
                Ok(TExpr {
                    kind: TExprKind::If(Box::new(c), Box::new(t), Box::new(f)),
                    ty: want.clone(),
                    span: e.span,
                })
            }
            ExprKind::Let(binds, body) => self.check_let(binds, body, Some(want), e.span, scope),
            ExprKind::Seq(items) => {
                let (last, init) = items.split_last().expect("parser ensures >= 2");
                let mut out = Vec::with_capacity(items.len());
                for item in init {
                    out.push(self.synth(item, scope)?);
                }
                out.push(self.check(last, want, scope)?);
                Ok(TExpr {
                    kind: TExprKind::Seq(out),
                    ty: want.clone(),
                    span: e.span,
                })
            }
            ExprKind::Handle(body, pat, handler) => {
                let body = self.check(body, want, scope)?;
                let exn = match pat {
                    ExnPat::Wild => None,
                    ExnPat::Name(n) => Some(self.exn_id(n, e.span)?),
                };
                let handler = self.check(handler, want, scope)?;
                Ok(TExpr {
                    kind: TExprKind::Handle(Box::new(body), exn, Box::new(handler)),
                    ty: want.clone(),
                    span: e.span,
                })
            }
            ExprKind::Raise(name) => {
                if scope.ctx != Ctx::Body {
                    return Err(LangError::ty(
                        "`raise` is not allowed in initializers",
                        e.span,
                    ));
                }
                let id = self.exn_id(name, e.span)?;
                Ok(TExpr {
                    kind: TExprKind::Raise(id),
                    ty: want.clone(),
                    span: e.span,
                })
            }
            ExprKind::Tuple(items) => {
                if let Type::Tuple(parts) = want {
                    if parts.len() == items.len() {
                        let out = items
                            .iter()
                            .zip(parts.iter())
                            .map(|(i, p)| self.check(i, p, scope))
                            .collect::<Result<Vec<_>, _>>()?;
                        return Ok(TExpr {
                            kind: TExprKind::Tuple(out),
                            ty: want.clone(),
                            span: e.span,
                        });
                    }
                }
                self.check_via_synth(e, want, scope)
            }
            ExprKind::List(items) => {
                if let Type::List(elem) = want {
                    let out = items
                        .iter()
                        .map(|i| self.check(i, elem, scope))
                        .collect::<Result<Vec<_>, _>>()?;
                    return Ok(TExpr {
                        kind: TExprKind::List(out),
                        ty: want.clone(),
                        span: e.span,
                    });
                }
                self.check_via_synth(e, want, scope)
            }
            ExprKind::Call(name, args) => {
                // Pass the expectation down so `mkTable` can be typed.
                let t = self.check_call(name, args, Some(want), e.span, scope)?;
                if &t.ty != want {
                    return Err(LangError::ty(
                        format!("expected {}, found {}", want, t.ty),
                        e.span,
                    ));
                }
                Ok(t)
            }
            _ => self.check_via_synth(e, want, scope),
        }
    }

    fn check_via_synth(
        &self,
        e: &'a Expr,
        want: &Type,
        scope: &mut Scope<'a>,
    ) -> Result<TExpr, LangError> {
        let t = self.synth(e, scope)?;
        if &t.ty != want {
            return Err(LangError::ty(
                format!("expected {}, found {}", want, t.ty),
                e.span,
            ));
        }
        Ok(t)
    }

    /// Synthesizes the type of `e`.
    fn synth(&self, e: &'a Expr, scope: &mut Scope<'a>) -> Result<TExpr, LangError> {
        let span = e.span;
        match &e.kind {
            ExprKind::Int(n) => Ok(TExpr { kind: TExprKind::Int(*n), ty: Type::Int, span }),
            ExprKind::Bool(b) => Ok(TExpr { kind: TExprKind::Bool(*b), ty: Type::Bool, span }),
            ExprKind::Str(s) => Ok(TExpr {
                kind: TExprKind::Str(s.clone()),
                ty: Type::Str,
                span,
            }),
            ExprKind::Char(c) => Ok(TExpr { kind: TExprKind::Char(*c), ty: Type::Char, span }),
            ExprKind::Unit => Ok(TExpr { kind: TExprKind::Unit, ty: Type::Unit, span }),
            ExprKind::Host(h) => Ok(TExpr { kind: TExprKind::Host(*h), ty: Type::Host, span }),
            ExprKind::Var(name) => {
                if let Some((ty, slot)) = scope.lookup(name) {
                    return Ok(TExpr {
                        kind: TExprKind::Local { name: name.clone(), slot },
                        ty: ty.clone(),
                        span,
                    });
                }
                if let Some(&index) = self.global_map.get(&key(name)) {
                    let g = &self.globals[index as usize];
                    return Ok(TExpr {
                        kind: TExprKind::Global { name: name.clone(), index },
                        ty: g.ty.clone(),
                        span,
                    });
                }
                if self.fun_map.contains_key(&key(name)) {
                    return Err(LangError::ty(
                        format!("`{name}` is a function; functions are not values in PLAN-P"),
                        span,
                    ));
                }
                if self.prims.lookup(name).is_some() {
                    return Err(LangError::ty(
                        format!("`{name}` is a primitive; primitives are not values in PLAN-P"),
                        span,
                    ));
                }
                Err(LangError::ty(format!("unbound variable `{name}`"), span))
            }
            ExprKind::Tuple(items) => {
                let out = items
                    .iter()
                    .map(|i| self.synth(i, scope))
                    .collect::<Result<Vec<_>, _>>()?;
                let ty = Type::Tuple(out.iter().map(|t| t.ty.clone()).collect());
                Ok(TExpr { kind: TExprKind::Tuple(out), ty, span })
            }
            ExprKind::Proj(n, inner) => {
                let inner = self.synth(inner, scope)?;
                let Type::Tuple(parts) = &inner.ty else {
                    return Err(LangError::ty(
                        format!("`#{n}` applied to non-tuple type {}", inner.ty),
                        span,
                    ));
                };
                let idx = *n as usize;
                if idx == 0 || idx > parts.len() {
                    return Err(LangError::ty(
                        format!(
                            "`#{n}` out of range for tuple with {} components",
                            parts.len()
                        ),
                        span,
                    ));
                }
                let ty = parts[idx - 1].clone();
                Ok(TExpr {
                    kind: TExprKind::Proj(n - 1, Box::new(inner)),
                    ty,
                    span,
                })
            }
            ExprKind::Call(name, args) => self.check_call(name, args, None, span, scope),
            ExprKind::If(c, t, f) => {
                let c = self.check(c, &Type::Bool, scope)?;
                let t = self.synth(t, scope)?;
                let f = self.check(f, &t.ty.clone(), scope)?;
                let ty = t.ty.clone();
                Ok(TExpr {
                    kind: TExprKind::If(Box::new(c), Box::new(t), Box::new(f)),
                    ty,
                    span,
                })
            }
            ExprKind::Let(binds, body) => self.check_let(binds, body, None, span, scope),
            ExprKind::Seq(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.synth(item, scope)?);
                }
                let ty = out.last().expect("non-empty").ty.clone();
                Ok(TExpr { kind: TExprKind::Seq(out), ty, span })
            }
            ExprKind::Binop(op, a, b) => self.synth_binop(*op, a, b, span, scope),
            ExprKind::Unop(op, a) => {
                let want = match op {
                    UnOp::Not => Type::Bool,
                    UnOp::Neg => Type::Int,
                };
                let a = self.check(a, &want, scope)?;
                Ok(TExpr {
                    kind: TExprKind::Unop(*op, Box::new(a)),
                    ty: want,
                    span,
                })
            }
            ExprKind::Raise(_) => Err(LangError::ty(
                "cannot determine the type of `raise` here; use it where a type is expected (e.g. an `if` branch or `handle`)",
                span,
            )),
            ExprKind::Handle(body, pat, handler) => {
                let body = self.synth(body, scope)?;
                let exn = match pat {
                    ExnPat::Wild => None,
                    ExnPat::Name(n) => Some(self.exn_id(n, span)?),
                };
                let handler = self.check(handler, &body.ty.clone(), scope)?;
                let ty = body.ty.clone();
                Ok(TExpr {
                    kind: TExprKind::Handle(Box::new(body), exn, Box::new(handler)),
                    ty,
                    span,
                })
            }
            ExprKind::List(items) => {
                let Some(first) = items.first() else {
                    return Err(LangError::ty(
                        "cannot infer the element type of `[]` here; add a type annotation",
                        span,
                    ));
                };
                let first = self.synth(first, scope)?;
                let elem = first.ty.clone();
                let mut out = vec![first];
                for item in &items[1..] {
                    out.push(self.check(item, &elem, scope)?);
                }
                Ok(TExpr {
                    kind: TExprKind::List(out),
                    ty: Type::List(elem.into()),
                    span,
                })
            }
            ExprKind::OnRemote(chan, pkt) => {
                self.require_body_ctx(scope, "OnRemote", span)?;
                let pkt = self.synth(pkt, scope)?;
                let overload = self.resolve_send(chan, &pkt.ty, span)?;
                Ok(TExpr {
                    kind: TExprKind::OnRemote {
                        chan: chan.clone(),
                        overload,
                        pkt: Box::new(pkt),
                    },
                    ty: Type::Unit,
                    span,
                })
            }
            ExprKind::OnNeighbor(chan, host, pkt) => {
                self.require_body_ctx(scope, "OnNeighbor", span)?;
                let host = self.check(host, &Type::Host, scope)?;
                let pkt = self.synth(pkt, scope)?;
                let overload = self.resolve_send(chan, &pkt.ty, span)?;
                Ok(TExpr {
                    kind: TExprKind::OnNeighbor {
                        chan: chan.clone(),
                        overload,
                        host: Box::new(host),
                        pkt: Box::new(pkt),
                    },
                    ty: Type::Unit,
                    span,
                })
            }
        }
    }

    fn require_body_ctx(&self, scope: &Scope, what: &str, span: Span) -> Result<(), LangError> {
        if scope.ctx != Ctx::Body {
            return Err(LangError::ty(
                format!("`{what}` is not allowed in initializers"),
                span,
            ));
        }
        Ok(())
    }

    fn resolve_send(&self, chan: &Name, pkt_ty: &Type, span: Span) -> Result<u32, LangError> {
        let Some(group) = self.chan_sigs.get(&key(chan)) else {
            return Err(LangError::ty(format!("unknown channel `{chan}`"), span));
        };
        if pkt_ty.packet_shape().is_none() {
            return Err(LangError::ty(
                format!("sent value has type {pkt_ty}, which is not a packet type"),
                span,
            ));
        }
        group
            .iter()
            .position(|s| &s.pkt_ty == pkt_ty)
            .map(|i| i as u32)
            .ok_or_else(|| {
                LangError::ty(
                    format!("channel `{chan}` has no overload for packet type {pkt_ty}"),
                    span,
                )
            })
    }

    fn check_let(
        &self,
        binds: &'a [LetBind],
        body: &'a Expr,
        want: Option<&Type>,
        span: Span,
        scope: &mut Scope<'a>,
    ) -> Result<TExpr, LangError> {
        let Some((first, rest)) = binds.split_first() else {
            // No bindings left: check the body.
            return match want {
                Some(w) => self.check(body, w, scope),
                None => self.synth(body, scope),
            };
        };
        let init = self.check(&first.init, &first.ty, scope)?;
        let slot = scope.push(&first.name, &first.ty);
        let inner = self.check_let(rest, body, want, span, scope);
        scope.pop();
        let inner = inner?;
        let ty = inner.ty.clone();
        Ok(TExpr {
            kind: TExprKind::Let {
                name: first.name.clone(),
                slot,
                init: Box::new(init),
                body: Box::new(inner),
            },
            ty,
            span,
        })
    }

    fn check_call(
        &self,
        name: &Name,
        args: &'a [Expr],
        expected: Option<&Type>,
        span: Span,
        scope: &mut Scope<'a>,
    ) -> Result<TExpr, LangError> {
        // Shadowing check: a local with this name is not callable.
        if scope.lookup(name).is_some() {
            return Err(LangError::ty(
                format!("`{name}` is a variable here, not a function"),
                span,
            ));
        }
        if let Some(&index) = self.fun_map.get(&key(name)) {
            if scope.ctx != Ctx::Body {
                return Err(LangError::ty(
                    "user functions may not be called in initializers",
                    span,
                ));
            }
            let f = &self.funs[index as usize];
            if f.params.len() != args.len() {
                return Err(LangError::ty(
                    format!(
                        "`{name}` takes {} argument(s), {} given",
                        f.params.len(),
                        args.len()
                    ),
                    span,
                ));
            }
            let targs = args
                .iter()
                .zip(&f.params)
                .map(|(a, (_, p))| self.check(a, p, scope))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(TExpr {
                kind: TExprKind::CallFun { index, args: targs },
                ty: f.ret.clone(),
                span,
            });
        }
        if let Some((id, sig)) = self.prims.lookup(name) {
            match scope.ctx {
                Ctx::ValInit if !sig.class.allowed_in_val() => {
                    return Err(LangError::ty(
                        format!("`{name}` is not allowed in `val` initializers"),
                        span,
                    ));
                }
                Ctx::StateInit if !sig.class.allowed_in_state_init() => {
                    return Err(LangError::ty(
                        format!("`{name}` is not allowed in state initializers"),
                        span,
                    ));
                }
                _ => {}
            }
            if sig.arity != args.len() {
                return Err(LangError::ty(
                    format!(
                        "`{name}` takes {} argument(s), {} given",
                        sig.arity,
                        args.len()
                    ),
                    span,
                ));
            }
            let targs = args
                .iter()
                .map(|a| self.synth(a, scope))
                .collect::<Result<Vec<_>, _>>()?;
            let arg_tys: Vec<Type> = targs.iter().map(|t| t.ty.clone()).collect();
            let ty = sig
                .check(&arg_tys, expected)
                .map_err(|msg| LangError::ty(msg, span))?;
            return Ok(TExpr {
                kind: TExprKind::CallPrim {
                    prim: id,
                    args: targs,
                },
                ty,
                span,
            });
        }
        Err(LangError::ty(
            format!("unknown function or primitive `{name}`"),
            span,
        ))
    }

    fn synth_binop(
        &self,
        op: BinOp,
        a: &'a Expr,
        b: &'a Expr,
        span: Span,
        scope: &mut Scope<'a>,
    ) -> Result<TExpr, LangError> {
        use BinOp::*;
        let (ta, tb, ty) = match op {
            Add | Sub | Mul | Div | Mod => {
                let a = self.check(a, &Type::Int, scope)?;
                let b = self.check(b, &Type::Int, scope)?;
                (a, b, Type::Int)
            }
            Concat => {
                let a = self.check(a, &Type::Str, scope)?;
                let b = self.check(b, &Type::Str, scope)?;
                (a, b, Type::Str)
            }
            And | Or => {
                let a = self.check(a, &Type::Bool, scope)?;
                let b = self.check(b, &Type::Bool, scope)?;
                (a, b, Type::Bool)
            }
            Eq | Ne => {
                let a = self.synth(a, scope)?;
                let b = self.check(b, &a.ty.clone(), scope)?;
                if !a.ty.is_equality() {
                    return Err(LangError::ty(
                        format!("type {} does not support equality", a.ty),
                        span,
                    ));
                }
                (a, b, Type::Bool)
            }
            Lt | Le | Gt | Ge => {
                let a = self.synth(a, scope)?;
                let b = self.check(b, &a.ty.clone(), scope)?;
                if !a.ty.is_ordered() {
                    return Err(LangError::ty(
                        format!("type {} does not support ordering", a.ty),
                        span,
                    ));
                }
                (a, b, Type::Bool)
            }
        };
        Ok(TExpr {
            kind: TExprKind::Binop(op, Box::new(ta), Box::new(tb)),
            ty,
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check_ok(src: &str) -> TProgram {
        let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
        typecheck(&prog).unwrap_or_else(|e| panic!("typecheck failed: {}\nsource: {src}", e))
    }

    fn check_err(src: &str) -> LangError {
        let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
        typecheck(&prog).expect_err("expected a type error")
    }

    const TRIVIAL_CH: &str = "channel network(ps : int, ss : int, p : ip*udp*blob) is (ps, ss)";

    #[test]
    fn trivial_channel_checks() {
        let tp = check_ok(TRIVIAL_CH);
        assert_eq!(tp.channels.len(), 1);
        assert_eq!(tp.proto_ty, Type::Int);
        assert_eq!(tp.channels[0].nlocals, 3);
    }

    #[test]
    fn program_needs_a_channel() {
        let err = check_err("val x : int = 1");
        assert!(err.message.contains("at least one channel"));
    }

    #[test]
    fn val_and_arith() {
        let tp = check_ok(&format!("val two : int = 1 + 1\n{TRIVIAL_CH}"));
        assert_eq!(tp.globals.len(), 1);
        assert_eq!(tp.globals[0].ty, Type::Int);
    }

    #[test]
    fn val_type_mismatch() {
        let err = check_err(&format!("val x : int = true\n{TRIVIAL_CH}"));
        assert!(err.message.contains("expected int, found bool"));
    }

    #[test]
    fn use_before_declaration_rejected() {
        // `y` references `z` declared later: no recursion, no forward refs.
        let err = check_err(&format!("val y : int = z\nval z : int = 1\n{TRIVIAL_CH}"));
        assert!(err.message.contains("unbound variable `z`"));
    }

    #[test]
    fn fun_cannot_call_itself() {
        let err = check_err(&format!("fun f(x : int) : int = f(x - 1)\n{TRIVIAL_CH}"));
        assert!(err.message.contains("unknown function"));
    }

    #[test]
    fn fun_calls_earlier_fun() {
        check_ok(&format!(
            "fun inc(x : int) : int = x + 1\nfun inc2(x : int) : int = inc(inc(x))\n{TRIVIAL_CH}"
        ));
    }

    #[test]
    fn channel_state_types_must_agree() {
        let err = check_err(
            "channel a(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
             channel b(ps : bool, ss : unit, p : ip*tcp*blob) is (ps, ss)",
        );
        assert!(err.message.contains("protocol state"));
    }

    #[test]
    fn ambiguous_overload_rejected() {
        let err = check_err(
            "channel a(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
             channel a(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)",
        );
        assert!(err.message.contains("ambiguous"));
    }

    #[test]
    fn invalid_packet_type_rejected() {
        let err = check_err("channel a(ps : int, ss : unit, p : int) is (ps, ss)");
        assert!(err.message.contains("invalid packet type"));
    }

    #[test]
    fn body_must_return_state_pair() {
        let err = check_err("channel a(ps : int, ss : int, p : ip*udp*blob) is ps");
        assert!(err.message.contains("expected int*int"));
    }

    #[test]
    fn mktable_typed_from_initstate() {
        let tp = check_ok(
            "channel a(ps : unit, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(64) is (ps, ss)",
        );
        assert_eq!(
            tp.channels[0].ss_ty,
            Type::Table(Type::Host.into(), Type::Int.into())
        );
    }

    #[test]
    fn mktable_without_context_rejected() {
        let err = check_err(
            "channel a(ps : unit, ss : unit, p : ip*udp*blob) is (print(mkTable(4)); (ps, ss))",
        );
        assert!(err.message.contains("cannot infer"));
    }

    #[test]
    fn table_without_initstate_defaults() {
        // hash_table is defaultable (empty table).
        check_ok("channel a(ps : unit, ss : (host, int) hash_table, p : ip*udp*blob) is (ps, ss)");
    }

    #[test]
    fn on_remote_resolves_overload() {
        let tp = check_ok(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        );
        let body = &tp.channels[0].body;
        let mut found = false;
        body.walk(&mut |e| {
            if let TExprKind::OnRemote { chan, overload, .. } = &e.kind {
                assert_eq!(&**chan, "network");
                assert_eq!(*overload, 0);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn on_remote_unknown_channel() {
        let err = check_err(
            "channel a(ps : unit, ss : unit, p : ip*udp*blob) is (OnRemote(b, p); (ps, ss))",
        );
        assert!(err.message.contains("unknown channel `b`"));
    }

    #[test]
    fn on_remote_no_matching_overload() {
        let err = check_err(
            "channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(a, (#1 p, #2 p)); (ps, ss))",
        );
        assert!(
            err.message.contains("not a packet type") || err.message.contains("no overload"),
            "{}",
            err.message
        );
    }

    #[test]
    fn forward_channel_reference_allowed() {
        check_ok(
            "channel a(ps : unit, ss : unit, p : ip*udp*blob) is (OnRemote(b, p); (ps, ss))\n\
             channel b(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)",
        );
    }

    #[test]
    fn raise_and_handle() {
        check_ok(
            "exception Busy\n\
             channel a(ps : int, ss : int, p : ip*udp*blob) is\n\
             ((if ps > 10 then raise Busy else ps, ss) handle Busy => (0, ss))",
        );
    }

    #[test]
    fn unknown_exception_rejected() {
        let err = check_err(
            "channel a(ps : int, ss : int, p : ip*udp*blob) is\n\
             ((ps, ss) handle Zorp => (0, ss))",
        );
        assert!(err.message.contains("unknown exception `Zorp`"));
    }

    #[test]
    fn duplicate_exception_rejected() {
        let err = check_err(&format!("exception NotFound\n{TRIVIAL_CH}"));
        assert!(err.message.contains("already declared"));
    }

    #[test]
    fn raise_in_initializer_rejected() {
        let err = check_err(
            "channel a(ps : int, ss : int, p : ip*udp*blob) initstate raise NotFound is (ps, ss)",
        );
        assert!(err.message.contains("not allowed in initializers"));
    }

    #[test]
    fn io_primitive_in_val_rejected() {
        let err = check_err(&format!("val t : int = timeMs()\n{TRIVIAL_CH}"));
        assert!(err.message.contains("not allowed in `val`"));
    }

    #[test]
    fn proj_type_and_bounds() {
        check_ok(
            "channel a(ps : unit, ss : unit, p : ip*tcp*blob) is (print(blobLen(#3 p)); (ps, ss))",
        );
        let err = check_err(
            "channel a(ps : unit, ss : unit, p : ip*tcp*blob) is (print(#4 p); (ps, ss))",
        );
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn equality_restrictions() {
        let err = check_err(
            "channel a(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
             (if #1 p = #1 p then (ps, ss) else (ps, ss))",
        );
        assert!(err.message.contains("does not support equality"));
    }

    #[test]
    fn ordering_restrictions() {
        let err = check_err(
            "channel a(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
             (if true < false then (ps, ss) else (ps, ss))",
        );
        assert!(err.message.contains("does not support ordering"));
    }

    #[test]
    fn figure2_like_program_checks() {
        let src = r#"
val server0 : host = 131.254.60.81
val server1 : host = 131.254.60.109

fun pick(ps : int) : int = ps mod 2

channel network(ps : int, ss : ((host*int), int) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
    val body : blob = #3 p
  in
    if tcpDst(tcph) = 80 then
      let
        val con : int =
          tblGet(ss, (ipSrc(iph), tcpSrc(tcph)))
          handle NotFound =>
            let val c : int = pick(ps) in
              (tblSet(ss, (ipSrc(iph), tcpSrc(tcph)), c); c)
            end
      in
        if con = 0 then
          (OnRemote(network, (ipDestSet(iph, server0), tcph, body)); (ps + 1, ss))
        else
          (OnRemote(network, (ipDestSet(iph, server1), tcph, body)); (ps + 1, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
"#;
        let tp = check_ok(src);
        assert_eq!(tp.globals.len(), 2);
        assert_eq!(tp.funs.len(), 1);
        assert_eq!(tp.channels.len(), 1);
    }

    #[test]
    fn figure4_overloads_check() {
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
        let tp = check_ok(src);
        assert_eq!(tp.channels.len(), 2);
        assert_eq!(tp.chan_groups["network"], vec![0, 1]);
        assert_eq!(tp.channels[1].overload, 1);
    }

    #[test]
    fn locals_shadow_globals() {
        check_ok(
            "val x : int = 1\n\
             channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             let val x : bool = true in (if x then (ps, ss) else (ps, ss)) end\n",
        );
    }

    #[test]
    fn redeclaring_primitive_rejected() {
        let err = check_err(&format!("val ipSrc : int = 1\n{TRIVIAL_CH}"));
        assert!(err.message.contains("primitive"));
    }

    #[test]
    fn nlocals_counts_peak_let_depth() {
        let tp = check_ok(
            "channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             let val x : int = 1 in\n\
               let val y : int = x + 1 in (print(y); (ps, ss)) end\n\
             end",
        );
        // 3 params + 2 nested lets
        assert_eq!(tp.channels[0].nlocals, 5);
    }

    #[test]
    fn sequential_lets_reuse_slots() {
        let tp = check_ok(
            "channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (print(let val x : int = 1 in x end);\n\
              print(let val y : int = 2 in y end);\n\
              (ps, ss))",
        );
        // 3 params + 1 reused slot
        assert_eq!(tp.channels[0].nlocals, 4);
    }

    #[test]
    fn proto_declaration_typed_against_channel_state() {
        let tp = check_ok(&format!("proto 42\n{TRIVIAL_CH}"));
        assert!(tp.proto_init.is_some());
        let err = check_err(&format!("proto true\n{TRIVIAL_CH}"));
        assert!(err.message.contains("expected int"));
    }

    #[test]
    fn duplicate_proto_rejected() {
        let err = check_err(&format!("proto 1 proto 2\n{TRIVIAL_CH}"));
        assert!(err.message.contains("duplicate `proto`"));
    }

    #[test]
    fn empty_list_needs_annotation() {
        let err =
            check_err("channel a(ps : unit, ss : unit, p : ip*udp*blob) is (print([]); (ps, ss))");
        assert!(err.message.contains("cannot infer"));
        check_ok("channel a(ps : unit, ss : int list, p : ip*udp*blob) initstate [] is (ps, ss)");
    }

    #[test]
    fn deliver_accepts_packet() {
        check_ok("channel a(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))");
    }
}
