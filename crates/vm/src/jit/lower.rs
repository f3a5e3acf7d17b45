//! Lowering: the typed AST to bytecode, one unit at a time.

use super::ins::{flows_forward, take_at_last_read, Ins, KeyOp, Parts, Reg, Scalar, Src};
use super::{Handler, Unit};
use crate::ops::{eval_binop, eval_unop, unop_operand};
use crate::prims::{self, PrimFn};
use crate::value::{KeyShape, ScalarTy, Value};
use planp_lang::ast::{BinOp, UnOp};
use planp_lang::prims::{Access, PrimId};
use planp_lang::tast::{ExnId, TExpr, TExprKind, TProgram};

/// Program-wide compiler state.
pub(super) struct Cx<'p> {
    pub(super) prog: &'p TProgram,
    /// The `deliver` primitive, compiled to a send.
    pub(super) deliver: PrimId,
    /// The `thisHost` primitive, a scalar operand.
    pub(super) this_host: PrimId,
    /// The keyed table primitives, in [`TblOp::NAMES`] order.
    pub(super) tables: [PrimId; 4],
    pub(super) consts: Vec<Value>,
    pub(super) sites: Vec<u32>,
    /// Frame depth of each compiled function, for callers' `depth`.
    pub(super) fun_depth: Vec<u32>,
    pub(super) nodes: usize,
    pub(super) fused: [usize; 2],
}

/// The instructions waiting for a jump target.
#[derive(Default)]
struct Label(Vec<usize>);

/// A keyed table primitive: each compiles to its table instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TblOp {
    Get,
    Has,
    Set,
    Del,
}

impl TblOp {
    pub(super) const NAMES: [&'static str; 4] = ["tblGet", "tblHas", "tblSet", "tblDel"];
    const ALL: [TblOp; 4] = [TblOp::Get, TblOp::Has, TblOp::Set, TblOp::Del];
}

/// True if every read of local `slot` in `e` is the key of a keyed
/// table primitive (`tables`) or the tuple of a projection: then the
/// tuple bound there is never needed whole.
fn keys_only(e: &TExpr, slot: u32, tables: &[PrimId; 4]) -> bool {
    let is_slot = |e: &TExpr| matches!(e.kind, TExprKind::Local { slot: s, .. } if s == slot);
    match &e.kind {
        TExprKind::Local { .. } => !is_slot(e),
        TExprKind::Proj(_, inner) if is_slot(inner) => true,
        TExprKind::CallPrim { prim, args } if tables.contains(prim) => args
            .iter()
            .enumerate()
            .all(|(i, a)| (i == 1 && is_slot(a)) || keys_only(a, slot, tables)),
        _ => e.children().all(|c| keys_only(c, slot, tables)),
    }
}

/// Compile-time evaluation of a constant expression. Only leaves,
/// strict `Binop` and `Unop` fold — all branch-free, so the interpreter
/// always evaluates every node of a folded subtree — and a subtree
/// whose folding would raise (`1 div 0`) does not fold.
fn const_of(e: &TExpr) -> Option<Value> {
    match &e.kind {
        TExprKind::Int(n) => Some(Value::Int(*n)),
        TExprKind::Bool(b) => Some(Value::Bool(*b)),
        TExprKind::Str(s) => Some(Value::Str(s.as_str().into())),
        TExprKind::Char(c) => Some(Value::Char(*c)),
        TExprKind::Unit => Some(Value::Unit),
        TExprKind::Host(a) => Some(Value::Host(*a)),
        TExprKind::Binop(op, a, b) if !matches!(op, BinOp::And | BinOp::Or) => {
            eval_binop(*op, &const_of(a)?, &const_of(b)?).ok()
        }
        TExprKind::Unop(op, a) => eval_unop(*op, &const_of(a)?).ok(),
        _ => None,
    }
}

/// What the signature table says `prim` does with one field, if that
/// is all it does.
fn access(prim: PrimId) -> Option<Access> {
    planp_lang::prims::table().sig(prim).access
}

fn is_comparison(op: BinOp) -> bool {
    use BinOp::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
}

impl Cx<'_> {
    /// The table instruction `prim` compiles to, if it is a keyed table
    /// primitive.
    fn tbl_op(&self, prim: PrimId) -> Option<TblOp> {
        let at = self.tables.iter().position(|&p| p == prim)?;
        Some(TblOp::ALL[at])
    }

    /// Compiles one expression into a unit with `nlocals` local slots.
    /// A unit with packet registers `pkt` (`(first, count)`, right after
    /// the slots) is a channel body: it returns two values.
    pub(super) fn unit(&mut self, e: &TExpr, nlocals: u32, pkt: Option<(Reg, u32)>) -> Unit {
        let block = self.sites.len() as u32;
        let next = nlocals + pkt.map_or(0, |(_, len)| len);
        let mut g = Gen {
            cx: self,
            code: Vec::new(),
            charge: Vec::new(),
            handlers: Vec::new(),
            block,
            next,
            nregs: next.max(1 + u32::from(pkt.is_some())),
            aliases: vec![None; nlocals as usize],
            unbuilt: vec![None; nlocals as usize],
            callees: 0,
            pkt,
        };
        g.tail(e);
        debug_assert!(flows_forward(&g.code, &g.handlers));
        if let Some(pkt) = pkt {
            take_at_last_read(&mut g.code, &g.handlers, pkt);
        }
        Unit {
            code: g.code,
            charge: g.charge,
            handlers: g.handlers,
            nregs: g.nregs,
            depth: g.nregs + g.callees,
        }
    }
}

/// The slot a channel's packet parameter has in the typed program. The
/// bytecode keeps nothing there: as an operand, `Src::Reg(PKT_SLOT)`
/// stands for the packet in its component registers.
const PKT_SLOT: Reg = 2;

/// Code generator for one unit.
struct Gen<'c, 'p> {
    cx: &'c mut Cx<'p>,
    code: Vec<Ins>,
    charge: Vec<(u32, u32)>,
    handlers: Vec<Handler>,
    /// Pool position where the current block starts.
    block: u32,
    /// Next free temporary (stack discipline).
    next: Reg,
    /// High-water mark of `next`.
    nregs: u32,
    /// Per local slot: the operand a `let` renamed, if it bound one.
    aliases: Vec<Option<Src>>,
    /// Per local slot: where the items are, if a `let` bound a tuple
    /// of scalars that is only ever a table key or projected, and so
    /// was never built.
    unbuilt: Vec<Option<Box<[Src]>>>,
    /// Deepest callee frame chain.
    callees: u32,
    /// A channel body's packet registers, `(first, count)`.
    pkt: Option<(Reg, u32)>,
}

impl Gen<'_, '_> {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Counts `e` as compiled and appends its site to the current block.
    fn visit(&mut self, e: &TExpr) {
        self.cx.nodes += 1;
        self.cx.sites.push(e.span.start);
    }

    fn emit(&mut self, ins: Ins) {
        self.code.push(ins);
        self.charge.push((self.block, self.cx.sites.len() as u32));
    }

    /// The next instruction is a jump target: its block starts at the
    /// sites compiled from here on.
    fn start_block(&mut self) -> u32 {
        self.block = self.cx.sites.len() as u32;
        self.pc()
    }

    /// Emits a branch-family instruction whose target is `label`.
    fn emit_to(&mut self, label: &mut Label, ins: Ins) {
        label.0.push(self.code.len());
        self.emit(ins);
    }

    /// Binds `label` to the next instruction.
    fn bind(&mut self, label: Label) {
        let here = self.start_block();
        for at in label.0 {
            if let Some(to) = self.code[at].target_mut() {
                *to = here;
            }
        }
    }

    fn tmp(&mut self) -> Reg {
        let r = self.next;
        self.next += 1;
        self.nregs = self.nregs.max(self.next);
        r
    }

    fn konst(&mut self, v: Value) -> Src {
        self.cx.consts.push(v);
        Src::Const(self.cx.consts.len() as u32 - 1)
    }

    /// Counts a folded constant subtree: one compiled node, every site
    /// of the subtree charged in the interpreter's (pre-)order.
    fn visit_folded(&mut self, e: &TExpr) {
        self.cx.nodes += 1;
        let sites = &mut self.cx.sites;
        e.walk(&mut |n| sites.push(n.span.start));
    }

    /// Compiles `e`, of scalar type `ty`, to a scalar operand. A
    /// constant, an accessor and `thisHost()` emit nothing of their
    /// own: the instruction that takes the operand reads them.
    fn scalar(&mut self, e: &TExpr, ty: ScalarTy) -> Scalar {
        if let Some(v) = const_of(e) {
            self.visit_folded(e);
            return match ty.read(&v) {
                Ok(x) => Scalar::Imm(x),
                Err(_) => Scalar::Val(self.konst(v), ty),
            };
        }
        if let TExprKind::CallPrim { prim, args } = &e.kind {
            if let Some(Access::Get(f)) = access(*prim) {
                self.visit(e);
                return Scalar::Get(f, self.gen(&args[0], None));
            }
            if *prim == self.cx.this_host {
                self.visit(e);
                return Scalar::ThisHost;
            }
        }
        Scalar::Val(self.gen(e, None), ty)
    }

    /// The registers of the packet parameter, if `e` names it — directly
    /// or through `let`s that rename it.
    fn packet(&self, e: &TExpr) -> Option<(Reg, u32)> {
        let TExprKind::Local { slot, .. } = &e.kind else {
            return None;
        };
        let named = self.aliases[*slot as usize].unwrap_or(Src::Reg(*slot));
        self.pkt.filter(|_| matches!(named, Src::Reg(PKT_SLOT)))
    }

    /// The packet of a send: its components where they already are (the
    /// packet parameter) or computed side by side (a literal tuple);
    /// only a tuple some other expression built is read as one.
    fn parts(&mut self, e: &TExpr) -> Parts {
        if let Some((at, len)) = self.packet(e) {
            self.visit(e);
            return Parts::Regs { at, len };
        }
        let TExprKind::Tuple(items) = &e.kind else {
            return Parts::Tuple(self.gen(e, None));
        };
        self.visit(e);
        let at = self.next;
        for _ in items {
            self.tmp();
        }
        for (dst, item) in (at..).zip(items) {
            self.gen(item, Some(dst));
        }
        Parts::Regs {
            at,
            len: items.len() as u32,
        }
    }

    /// The registers of the items of a tuple a `let` bound without
    /// building it, if `e` names one.
    fn unbuilt(&self, e: &TExpr) -> Option<&[Src]> {
        let TExprKind::Local { slot, .. } = &e.kind else {
            return None;
        };
        self.unbuilt[*slot as usize].as_deref()
    }

    /// Compiles table key `e`. A key of an inline shape is read as
    /// scalar operands — a scalar in place, the items of a literal
    /// tuple side by side, the items of a tuple a `let` never built
    /// where they are — and no tuple is built; any other key is read as
    /// a value.
    fn key(&mut self, e: &TExpr) -> KeyOp {
        let Some(shape) = KeyShape::of(&e.ty) else {
            return KeyOp::Boxed(self.gen(e, None));
        };
        let tys = shape.tys();
        let parts: Box<[Scalar]> = if !shape.is_tuple() {
            Box::new([self.scalar(e, tys[0])])
        } else if let Some(items) = self.unbuilt(e) {
            let parts = items.iter().zip(tys).map(|(&s, &ty)| Scalar::Val(s, ty));
            let parts = parts.collect();
            self.visit(e);
            parts
        } else if let TExprKind::Tuple(items) = &e.kind {
            self.visit(e);
            let mut parts = Vec::with_capacity(items.len());
            for (item, &ty) in items.iter().zip(tys) {
                parts.push(self.scalar(item, ty));
            }
            parts.into()
        } else {
            return KeyOp::Boxed(self.gen(e, None));
        };
        KeyOp::Inline(shape, parts)
    }

    /// True if `e` compiles to an operand without emitting code.
    fn is_operand(&self, e: &TExpr) -> bool {
        match &e.kind {
            // Used whole, the packet and a tuple never built are tuples
            // to build.
            TExprKind::Local { .. } => self.packet(e).is_none() && self.unbuilt(e).is_none(),
            TExprKind::Global { .. } => true,
            TExprKind::Proj(_, inner) => match &inner.kind {
                TExprKind::Local { slot, .. } => {
                    matches!(self.aliases[*slot as usize], None | Some(Src::Reg(_)))
                }
                _ => false,
            },
            _ => const_of(e).is_some(),
        }
    }

    /// Delivers operand `s` as the result of a node: into `dst` if the
    /// caller named one.
    fn deliver(&mut self, s: Src, dst: Option<Reg>) -> Src {
        match dst {
            Some(dst) => {
                if !matches!(s, Src::Reg(r) if r == dst) {
                    self.emit(Ins::Move { dst, src: s });
                }
                Src::Reg(dst)
            }
            None => s,
        }
    }

    /// Where a computed value goes: the register the caller named, or
    /// a fresh temporary.
    fn dest(&mut self, dst: Option<Reg>) -> (Reg, Src) {
        match dst {
            Some(d) => (d, Src::Reg(d)),
            None => {
                let t = self.tmp();
                (t, Src::Tmp(t))
            }
        }
    }

    /// Ends a send: its temporaries (from `mark`) are free again and
    /// its value is unit.
    fn sent(&mut self, mark: Reg, dst: Option<Reg>) -> Src {
        self.next = mark;
        let unit = self.konst(Value::Unit);
        self.deliver(unit, dst)
    }

    /// Binds a `let` whose scope is `body`: an initializer that is a
    /// plain operand is renamed (no code); a literal tuple of up to
    /// three scalars that `body` only uses as a table key or projects is
    /// never built — its items stay where they are if they are
    /// operands, and are computed into registers of their own (live for
    /// the whole scope) otherwise; anything else is computed straight
    /// into the slot.
    fn bind_let(&mut self, slot: u32, init: &TExpr, body: &TExpr) {
        if self.packet(init).is_some() {
            self.visit(init);
            self.aliases[slot as usize] = Some(Src::Reg(PKT_SLOT));
        } else if self.is_operand(init) {
            let s = self.gen(init, None);
            self.aliases[slot as usize] = Some(s);
        } else if let Some(items) = self.keys_only_tuple(slot, init, body) {
            self.visit(init);
            let mut at = Vec::with_capacity(items.len());
            for item in items {
                at.push(if self.is_operand(item) {
                    self.gen(item, None)
                } else {
                    let r = self.tmp();
                    self.gen(item, Some(r))
                });
            }
            self.unbuilt[slot as usize] = Some(at.into());
        } else {
            self.gen(init, Some(slot));
        }
    }

    /// The items of `init`, if it is a literal tuple of up to three
    /// scalars that `body`, the scope of `slot`, only uses as a table
    /// key or projects.
    fn keys_only_tuple<'e>(&self, slot: u32, init: &'e TExpr, body: &TExpr) -> Option<&'e [TExpr]> {
        let TExprKind::Tuple(items) = &init.kind else {
            return None;
        };
        let inline = KeyShape::of(&init.ty).is_some_and(KeyShape::is_tuple);
        (inline && keys_only(body, slot, &self.cx.tables)).then_some(items)
    }

    /// Ends the scope of the `let` that bound `slot`.
    fn unbind(&mut self, slot: u32) {
        self.aliases[slot as usize] = None;
        self.unbuilt[slot as usize] = None;
    }

    /// Compiles `e`; returns where its value is. With `dst`, the value
    /// is in `dst` (written only once every read of `e` is done, so
    /// `dst` may be a slot `e` itself binds).
    fn gen(&mut self, e: &TExpr, dst: Option<Reg>) -> Src {
        if let Some(v) = const_of(e) {
            self.visit_folded(e);
            let s = self.konst(v);
            return self.deliver(s, dst);
        }
        self.visit(e);
        match &e.kind {
            TExprKind::Local { slot, .. } => {
                // The packet (or a tuple a `let` never built) used whole:
                // this is where its tuple is built.
                let items: Option<Box<[Src]>> = match self.packet(e) {
                    Some((at, len)) => Some((at..at + len).map(Src::Reg).collect()),
                    None => self.unbuilt(e).map(Box::from),
                };
                match items {
                    Some(items) => {
                        let (d, out) = self.dest(dst);
                        self.emit(Ins::Tuple { dst: d, items });
                        out
                    }
                    None => {
                        let s = self.aliases[*slot as usize].unwrap_or(Src::Reg(*slot));
                        self.deliver(s, dst)
                    }
                }
            }
            TExprKind::Global { index, .. } => self.deliver(Src::Global(*index), dst),
            TExprKind::Proj(i, inner) => {
                let part = match self.packet(inner) {
                    Some((at, _)) => Some(Src::Reg(at + *i)),
                    None => self
                        .unbuilt(inner)
                        .and_then(|items| items.get(*i as usize).copied()),
                };
                if let Some(s) = part {
                    self.visit(inner);
                    return self.deliver(s, dst);
                }
                let s = match self.gen(inner, None) {
                    Src::Reg(r) | Src::Tmp(r) => Src::Field(r, *i),
                    other => {
                        let t = self.tmp();
                        self.emit(Ins::Move { dst: t, src: other });
                        Src::Field(t, *i)
                    }
                };
                self.deliver(s, dst)
            }
            TExprKind::Let {
                slot, init, body, ..
            } => {
                self.bind_let(*slot, init, body);
                let mut s = self.gen(body, dst);
                self.unbind(*slot);
                // The slot may be rebound before the value is read.
                if let Src::Reg(r) | Src::Field(r, _) = s {
                    if dst.is_none() && r >= *slot && (r as usize) < self.aliases.len() {
                        let t = self.tmp();
                        self.emit(Ins::Move { dst: t, src: s });
                        s = Src::Tmp(t);
                    }
                }
                s
            }
            TExprKind::Seq(items) => match items.split_last() {
                Some((last, init)) => {
                    self.effects(init);
                    self.gen(last, dst)
                }
                None => {
                    let unit = self.konst(Value::Unit);
                    self.deliver(unit, dst)
                }
            },
            TExprKind::OnRemote {
                chan,
                overload,
                pkt,
            } => {
                let mark = self.next;
                let pkt = self.parts(pkt);
                let chan = self.chan_index(chan, *overload);
                self.emit(Ins::SendRemote { chan, pkt });
                self.sent(mark, dst)
            }
            TExprKind::OnNeighbor {
                chan,
                overload,
                host,
                pkt,
            } => {
                let mark = self.next;
                let host = self.gen(host, None);
                let pkt = self.parts(pkt);
                let chan = self.chan_index(chan, *overload);
                self.emit(Ins::SendNeighbor { chan, host, pkt });
                self.sent(mark, dst)
            }
            TExprKind::CallPrim { prim, args } if *prim == self.cx.deliver => {
                let mark = self.next;
                let pkt = self.parts(&args[0]);
                self.emit(Ins::Deliver { pkt });
                self.sent(mark, dst)
            }
            _ => {
                let (d, out) = self.dest(dst);
                let mark = self.next;
                self.compute(e, d);
                self.next = mark;
                out
            }
        }
    }

    /// The position in the program's channel list of the overload a
    /// send names (the checker resolved both parts).
    fn chan_index(&self, chan: &str, overload: u32) -> u32 {
        self.cx.prog.chan_groups[chan][overload as usize] as u32
    }

    /// Compiles expressions evaluated for effect only.
    fn effects(&mut self, items: &[TExpr]) {
        for item in items {
            let mark = self.next;
            self.gen(item, None);
            self.next = mark;
        }
    }

    fn operands(&mut self, items: &[TExpr]) -> Box<[Src]> {
        items.iter().map(|i| self.gen(i, None)).collect()
    }

    /// The node kinds whose value an instruction (or a join of two
    /// paths) writes into `dst`. `e` is already visited.
    fn compute(&mut self, e: &TExpr, dst: Reg) {
        match &e.kind {
            TExprKind::Tuple(items) => {
                let items = self.operands(items);
                self.emit(Ins::Tuple { dst, items });
            }
            TExprKind::List(items) => {
                let items = self.operands(items);
                self.emit(Ins::List { dst, items });
            }
            TExprKind::CallPrim { prim, args } => {
                if let Some(op) = self.cx.tbl_op(*prim) {
                    let t = self.gen(&args[0], None);
                    let key = self.key(&args[1]);
                    let ins = match op {
                        TblOp::Get => Ins::TblGet { dst, t, key },
                        TblOp::Has => Ins::TblHas { dst, t, key },
                        TblOp::Set => {
                            let v = self.gen(&args[2], None);
                            Ins::TblSet { dst, t, key, v }
                        }
                        TblOp::Del => Ins::TblDel { dst, t, key },
                    };
                    return self.emit(ins);
                }
                match access(*prim) {
                    Some(Access::Get(f)) => {
                        let a = self.gen(&args[0], None);
                        return self.emit(Ins::Get { dst, f, a });
                    }
                    Some(Access::Set(f)) => {
                        if let Some(ty) = ScalarTy::of(&args[1].ty) {
                            let hdr = self.gen(&args[0], None);
                            let x = self.scalar(&args[1], ty);
                            return self.emit(Ins::Set { dst, f, hdr, x });
                        }
                    }
                    None => {}
                }
                let f: PrimFn = prims::impls()[prim.0 as usize];
                let args = self.operands(args);
                self.emit(match *args {
                    [a] => Ins::Prim1 { dst, f, a },
                    [a, b] => Ins::Prim2 { dst, f, a, b },
                    [a, b, c] => Ins::Prim3 { dst, f, a, b, c },
                    _ => Ins::PrimN { dst, f, args },
                });
            }
            TExprKind::CallFun { index, args } => {
                let args = self.operands(args);
                // The callee charges its own blocks in between.
                self.emit(Ins::Flush);
                self.callees = self.callees.max(self.cx.fun_depth[*index as usize]);
                self.emit(Ins::Call {
                    dst,
                    fun: *index,
                    args,
                });
            }
            TExprKind::Binop(op @ (BinOp::And | BinOp::Or), a, b) => {
                // `a andalso b`: b's value if a, else false (and dually).
                let short = *op == BinOp::Or;
                let (mut skip, mut end) = (Label::default(), Label::default());
                self.branch(a, &mut skip, short);
                self.gen(b, Some(dst));
                self.emit_to(&mut end, Ins::Jump { to: 0 });
                self.bind(skip);
                let v = self.konst(Value::Bool(short));
                self.emit(Ins::Move { dst, src: v });
                self.bind(end);
            }
            TExprKind::Binop(op, a, b) => {
                let ins = match (ScalarTy::of(&a.ty), ScalarTy::of(&b.ty)) {
                    (Some(ta), Some(tb)) => Ins::ScalarOp {
                        dst,
                        op: *op,
                        a: self.scalar(a, ta),
                        b: self.scalar(b, tb),
                    },
                    _ => Ins::Binop {
                        dst,
                        op: *op,
                        a: self.gen(a, None),
                        b: self.gen(b, None),
                    },
                };
                self.emit(ins);
            }
            TExprKind::Unop(op, a) => {
                let a = self.scalar(a, unop_operand(*op));
                self.emit(Ins::Unop { dst, op: *op, a });
            }
            TExprKind::If(c, t, f) => {
                let (mut els, mut end) = (Label::default(), Label::default());
                self.branch(c, &mut els, false);
                self.gen(t, Some(dst));
                self.emit_to(&mut end, Ins::Jump { to: 0 });
                self.bind(els);
                self.gen(f, Some(dst));
                self.bind(end);
            }
            TExprKind::Handle(body, pat, handler) => {
                let mut end = Label::default();
                let start = self.pc();
                self.gen(body, Some(dst));
                self.emit_to(&mut end, Ins::Jump { to: 0 });
                self.handler(start, *pat);
                self.gen(handler, Some(dst));
                self.bind(end);
            }
            TExprKind::Raise(id) => self.emit(Ins::Raise(*id)),
            _ => unreachable!("operand-like nodes are compiled by `gen`"),
        }
    }

    /// Closes the `handle` region that began at `start`; the handler's
    /// code comes next. (Inner regions close first, so the table lists
    /// the innermost first.)
    fn handler(&mut self, start: u32, pat: Option<ExnId>) {
        let here = self.start_block();
        self.handlers.push(Handler {
            start,
            end: here,
            pat,
            target: here,
        });
    }

    /// Compiles condition `e` as control flow: jumps to `to` when it
    /// evaluates to `when`, falls through otherwise.
    fn branch(&mut self, e: &TExpr, to: &mut Label, when: bool) {
        // A constant condition is a `Br` on an immediate.
        let folds = const_of(e).is_some();
        let mark = self.next;
        let ins = match &e.kind {
            TExprKind::Binop(op @ (BinOp::And | BinOp::Or), a, b) if !folds => {
                self.visit(e);
                // `a andalso b` is false as soon as a is; `a orelse
                // b` true as soon as a is.
                let decided_by_a = *op == BinOp::Or;
                if when == decided_by_a {
                    self.branch(a, to, when);
                    self.branch(b, to, when);
                } else {
                    let mut skip = Label::default();
                    self.branch(a, &mut skip, !when);
                    self.branch(b, to, when);
                    self.bind(skip);
                }
                return;
            }
            TExprKind::Unop(UnOp::Not, a) if !folds => {
                self.visit(e);
                return self.branch(a, to, !when);
            }
            TExprKind::Binop(op, a, b) if !folds && is_comparison(*op) => {
                self.visit(e);
                match (ScalarTy::of(&a.ty), ScalarTy::of(&b.ty)) {
                    (Some(ta), Some(tb)) => {
                        let (a, b) = (self.scalar(a, ta), self.scalar(b, tb));
                        // hdr_compare_branch.
                        if matches!((a, b), (Scalar::Get(..), _) | (_, Scalar::Get(..))) {
                            self.cx.fused[0] += 1;
                        }
                        Ins::BrScalarCmp {
                            op: *op,
                            a,
                            b,
                            to: 0,
                            when,
                        }
                    }
                    _ => Ins::BrCmp {
                        op: *op,
                        a: self.gen(a, None),
                        b: self.gen(b, None),
                        to: 0,
                        when,
                    },
                }
            }
            // table_forward.
            TExprKind::CallPrim { prim, args }
                if !folds && self.cx.tbl_op(*prim) == Some(TblOp::Has) =>
            {
                self.visit(e);
                self.cx.fused[1] += 1;
                Ins::BrTblHas {
                    t: self.gen(&args[0], None),
                    key: self.key(&args[1]),
                    to: 0,
                    when,
                }
            }
            // (A boolean accessor is a scalar operand, and `tblGet`
            // of a boolean a table instruction.)
            TExprKind::CallPrim { prim, args }
                if !folds
                    && matches!(args.len(), 1 | 2)
                    && access(*prim).is_none()
                    && self.cx.tbl_op(*prim).is_none() =>
            {
                self.visit(e);
                Ins::BrPrim {
                    f: prims::impls()[prim.0 as usize],
                    a: self.gen(&args[0], None),
                    b: args.get(1).map(|b| self.gen(b, None)),
                    to: 0,
                    when,
                }
            }
            _ => {
                let cond = self.scalar(e, ScalarTy::Bool);
                Ins::Br { cond, to: 0, when }
            }
        };
        self.emit_to(to, ins);
        self.next = mark;
    }

    /// Compiles `e` in tail position: every path ends in a return (or a
    /// raise), so no path joins and a literal pair needs no tuple.
    fn tail(&mut self, e: &TExpr) {
        match &e.kind {
            TExprKind::Let {
                slot, init, body, ..
            } => {
                self.visit(e);
                self.bind_let(*slot, init, body);
                self.tail(body);
                self.unbind(*slot);
            }
            TExprKind::Seq(items) if !items.is_empty() => {
                self.visit(e);
                let (last, init) = items.split_last().expect("non-empty");
                self.effects(init);
                self.tail(last);
            }
            TExprKind::If(c, t, f) => {
                self.visit(e);
                let mut els = Label::default();
                self.branch(c, &mut els, false);
                self.tail(t);
                self.bind(els);
                self.tail(f);
            }
            TExprKind::Handle(body, pat, handler) => {
                self.visit(e);
                let start = self.pc();
                self.tail(body);
                self.handler(start, *pat);
                self.tail(handler);
            }
            TExprKind::Tuple(items) if self.pkt.is_some() && items.len() == 2 => {
                self.visit(e);
                let mark = self.next;
                let a = self.gen(&items[0], None);
                let b = self.gen(&items[1], None);
                self.emit(Ins::Ret2 { a, b });
                self.next = mark;
            }
            _ => {
                let mark = self.next;
                let src = self.gen(e, None);
                self.emit(if self.pkt.is_some() {
                    Ins::RetPair { src }
                } else {
                    Ins::Ret { src }
                });
                self.next = mark;
            }
        }
    }
}
