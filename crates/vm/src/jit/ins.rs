//! The instruction set, and the one statement of its control flow.

use super::Handler;
use crate::prims::PrimFn;
use crate::value::{KeyShape, ScalarTy};
use planp_lang::ast::{BinOp, UnOp};
use planp_lang::prims::Field;
use planp_lang::tast::ExnId;

/// A register of the current frame: local slots first, temporaries after.
pub(super) type Reg = u32;

/// Where an instruction reads an operand from.
#[derive(Debug, Clone, Copy)]
pub(super) enum Src {
    /// A local slot (parameter or `let`); read by reference or clone.
    Reg(Reg),
    /// A temporary: written by one instruction, read by one, so an
    /// owning read moves the value out.
    Tmp(Reg),
    /// Field `.1` of the tuple in register `.0`, read in place.
    Field(Reg, u32),
    /// Entry of the program's constant pool.
    Const(u32),
    /// A `val` global.
    Global(u32),
}

/// Where a typed instruction reads a scalar from — an `int`, `bool`,
/// `char` or `host`, unwrapped (see [`ScalarTy`]).
#[derive(Debug, Clone, Copy)]
pub(super) enum Scalar {
    /// An operand holding a value of type `.1`.
    Val(Src, ScalarTy),
    /// A compile-time constant.
    Imm(i64),
    /// Field `.0` of the header (or the length of the blob) in an
    /// operand, read in place.
    Get(Field, Src),
    /// `thisHost()`, asked of the environment: one image serves every
    /// node.
    ThisHost,
}

/// The key a table instruction looks up.
#[derive(Debug, Clone)]
pub(super) enum KeyOp {
    /// A key of an inline shape (a scalar, or a tuple of up to three):
    /// one scalar operand per component, made into a
    /// [`Key`](crate::value::Key) on the stack. No tuple is built, whether
    /// the key was written as a scalar, a literal tuple or a `let`-bound one.
    Inline(KeyShape, Box<[Scalar]>),
    /// Any other key: a value, made into a key by [`Key::of`](crate::value::Key::of).
    Boxed(Src),
}

/// The packet a send instruction names. No send builds a tuple.
#[derive(Debug, Clone, Copy)]
pub(super) enum Parts {
    /// `len` registers from `at`, one per component: the channel's own
    /// packet parameter, or the items of a literal tuple computed side
    /// by side.
    Regs { at: Reg, len: u32 },
    /// The channel's own packet registers at a send no read of them can
    /// follow ([`take_at_last_read`]): handed over as `Outgoing::Owned`,
    /// so the environment moves the components into the packet it builds.
    Take { at: Reg, len: u32 },
    /// A tuple value (a function's result, a table entry).
    Tuple(Src),
}

/// One bytecode instruction. `to` fields are instruction indices.
pub(super) enum Ins {
    Move {
        dst: Reg,
        src: Src,
    },
    Tuple {
        dst: Reg,
        items: Box<[Src]>,
    },
    List {
        dst: Reg,
        items: Box<[Src]>,
    },
    /// Strict binary operator on two scalars of one type: `int`
    /// arithmetic, or a comparison whose value is wanted.
    ScalarOp {
        dst: Reg,
        op: BinOp,
        a: Scalar,
        b: Scalar,
    },
    /// Any other strict binary operator: `^`, and comparisons of
    /// strings, blobs, tuples and lists.
    Binop {
        dst: Reg,
        op: BinOp,
        a: Src,
        b: Src,
    },
    /// `not` of a `bool`, negation of an `int`.
    Unop {
        dst: Reg,
        op: UnOp,
        a: Scalar,
    },
    /// A scalar accessor (`udpDst(h)`, `blobLen(b)`) used as a value.
    Get {
        dst: Reg,
        f: Field,
        a: Src,
    },
    /// A header-field setter (`ipDestSet(h, x)`): the header is read
    /// in place.
    Set {
        dst: Reg,
        f: Field,
        hdr: Src,
        x: Scalar,
    },
    /// One-argument primitive; the argument is passed in place.
    Prim1 {
        dst: Reg,
        f: PrimFn,
        a: Src,
    },
    Prim2 {
        dst: Reg,
        f: PrimFn,
        a: Src,
        b: Src,
    },
    Prim3 {
        dst: Reg,
        f: PrimFn,
        a: Src,
        b: Src,
        c: Src,
    },
    /// Any other arity (including none).
    PrimN {
        dst: Reg,
        f: PrimFn,
        args: Box<[Src]>,
    },
    /// `tblGet(t, key)`: the table is read in place, and so is the key.
    TblGet {
        dst: Reg,
        t: Src,
        key: KeyOp,
    },
    /// `tblHas(t, key)` as a value.
    TblHas {
        dst: Reg,
        t: Src,
        key: KeyOp,
    },
    /// `tblSet(t, key, v)`.
    TblSet {
        dst: Reg,
        t: Src,
        key: KeyOp,
        v: Src,
    },
    /// `tblDel(t, key)`.
    TblDel {
        dst: Reg,
        t: Src,
        key: KeyOp,
    },
    /// User-function call; the callee's frame is the window of the
    /// register file right after the caller's.
    Call {
        dst: Reg,
        fun: u32,
        args: Box<[Src]>,
    },
    Raise(ExnId),
    /// `chan` indexes the program's channels.
    SendRemote {
        chan: u32,
        pkt: Parts,
    },
    SendNeighbor {
        chan: u32,
        host: Src,
        pkt: Parts,
    },
    Deliver {
        pkt: Parts,
    },
    /// Charges what is pending, before a call.
    Flush,
    Jump {
        to: u32,
    },
    /// Jumps when the boolean `cond` equals `when`.
    Br {
        cond: Scalar,
        to: u32,
        when: bool,
    },
    /// Compare two scalars of one type and branch. With an accessor on
    /// either side this is `hdr_compare_branch`: header read, compare
    /// and branch in one instruction.
    BrScalarCmp {
        op: BinOp,
        a: Scalar,
        b: Scalar,
        to: u32,
        when: bool,
    },
    /// Compare anything else (strings, blobs, tuples, lists) and branch.
    BrCmp {
        op: BinOp,
        a: Src,
        b: Src,
        to: u32,
        when: bool,
    },
    /// `table_forward`: `tblHas(t, key)` and branch — the lookup and
    /// the branch in one instruction.
    BrTblHas {
        t: Src,
        key: KeyOp,
        to: u32,
        when: bool,
    },
    /// Any other boolean primitive of one or two arguments
    /// (`isMulticast(h)`) and branch.
    BrPrim {
        f: PrimFn,
        a: Src,
        b: Option<Src>,
        to: u32,
        when: bool,
    },
    /// Returns `src` in register 0.
    Ret {
        src: Src,
    },
    /// Channel body: returns the halves of the pair `src` in registers
    /// 0 and 1.
    RetPair {
        src: Src,
    },
    /// Channel body: returns `(a, b)` in registers 0 and 1 without
    /// building the pair. A `(ps, ss)` tail finds both in place.
    Ret2 {
        a: Src,
        b: Src,
    },
}

impl Ins {
    /// The variant's name.
    pub(super) fn kind(&self) -> &'static str {
        match self {
            Ins::Move { .. } => "Move",
            Ins::Tuple { .. } => "Tuple",
            Ins::List { .. } => "List",
            Ins::ScalarOp { .. } => "ScalarOp",
            Ins::Binop { .. } => "Binop",
            Ins::Unop { .. } => "Unop",
            Ins::Get { .. } => "Get",
            Ins::Set { .. } => "Set",
            Ins::Prim1 { .. } => "Prim1",
            Ins::Prim2 { .. } => "Prim2",
            Ins::Prim3 { .. } => "Prim3",
            Ins::PrimN { .. } => "PrimN",
            Ins::TblGet { key, .. } => key.route("TblGet", "TblGetBoxed"),
            Ins::TblHas { key, .. } => key.route("TblHas", "TblHasBoxed"),
            Ins::TblSet { key, .. } => key.route("TblSet", "TblSetBoxed"),
            Ins::TblDel { key, .. } => key.route("TblDel", "TblDelBoxed"),
            Ins::Call { .. } => "Call",
            Ins::Raise(_) => "Raise",
            Ins::SendRemote { .. } => "SendRemote",
            Ins::SendNeighbor { .. } => "SendNeighbor",
            Ins::Deliver { .. } => "Deliver",
            Ins::Flush => "Flush",
            Ins::Jump { .. } => "Jump",
            Ins::Br { .. } => "Br",
            Ins::BrScalarCmp { .. } => "BrScalarCmp",
            Ins::BrCmp { .. } => "BrCmp",
            Ins::BrTblHas { key, .. } => key.route("BrTblHas", "BrTblHasBoxed"),
            Ins::BrPrim { .. } => "BrPrim",
            Ins::Ret { .. } => "Ret",
            Ins::RetPair { .. } => "RetPair",
            Ins::Ret2 { .. } => "Ret2",
        }
    }
}

impl KeyOp {
    /// `inline` or `boxed`, by the route this key takes.
    fn route(&self, inline: &'static str, boxed: &'static str) -> &'static str {
        match self {
            KeyOp::Inline(..) => inline,
            KeyOp::Boxed(_) => boxed,
        }
    }
}

/// The branch target of `$ins` as a place (`&u32`, or `&mut u32` to patch).
macro_rules! target {
    ($ins:expr) => {
        match $ins {
            Ins::Jump { to }
            | Ins::Br { to, .. }
            | Ins::BrScalarCmp { to, .. }
            | Ins::BrCmp { to, .. }
            | Ins::BrTblHas { to, .. }
            | Ins::BrPrim { to, .. } => Some(to),
            _ => None,
        }
    };
}

impl Ins {
    /// Where control goes when this jump or branch is taken.
    fn target(&self) -> Option<u32> {
        target!(self).copied()
    }

    /// [`Ins::target`], to be patched once the target is known.
    pub(super) fn target_mut(&mut self) -> Option<&mut u32> {
        target!(self)
    }

    /// True if control may go on to the next instruction: not after a jump, return or raise.
    fn falls_through(&self) -> bool {
        use Ins::{Jump, Raise, Ret, Ret2, RetPair};
        !matches!(
            self,
            Jump { .. } | Raise(_) | Ret { .. } | RetPair { .. } | Ret2 { .. }
        )
    }

    /// Where control goes once the instruction at `at` has run, handlers aside.
    fn successors(&self, at: usize) -> impl Iterator<Item = usize> {
        let next = self.falls_through().then_some(at + 1);
        next.into_iter().chain(self.target().map(|to| to as usize))
    }
}

/// True if control only moves forward and stays in `code`: every successor
/// and handler target lies after what leads to it, and before the end.
pub(super) fn flows_forward(code: &[Ins], handlers: &[Handler]) -> bool {
    let inside = |at: usize, to: usize| at < to && to < code.len();
    let forward = |(at, ins): (usize, &Ins)| ins.successors(at).all(|to| inside(at, to));
    let covered = |h: &Handler| h.start < h.end && inside(h.end as usize - 1, h.target as usize);
    code.iter().enumerate().all(forward) && handlers.iter().all(covered)
}

/// Marks every send of a channel's own packet registers `pkt` (`(first,
/// count)`) after which no read of them can follow, on any path — a
/// jump's, a fall-through's, or a raise's to any handler whose region
/// covers an instruction — as [`Parts::Take`]: the components move into
/// the packet the environment builds instead of being cloned. A
/// forwarding hop then never touches its payload's reference count.
///
/// Every jump and handler target lies ahead of the instructions that
/// lead to it ([`flows_forward`]): one pass from the last one back decides.
/// The facts are bits on the stack (compiling allocates per program,
/// not per analysis); a unit too long for them keeps cloning.
pub(super) fn take_at_last_read(code: &mut [Ins], handlers: &[Handler], pkt: (Reg, u32)) {
    const MAX: usize = 64 * 64;
    if code.len() > MAX {
        return;
    }
    let (regs, n) = (pkt.0..pkt.0 + pkt.1, code.len());
    // Bit `at`: a read of the packet may follow the start of `at`.
    let mut live = [0u64; MAX / 64];
    let is_live = |live: &[u64], at: usize| live[at / 64] >> (at % 64) & 1 == 1;
    for at in (0..code.len()).rev() {
        let mut reads = false;
        code[at].each_read(&mut |r| reads |= regs.contains(&r));
        // A read may follow once `at` has run: where control goes next, or
        // where a handler whose region covers `at` resumes.
        let covers = |h: &&Handler| (h.start..h.end).contains(&(at as u32));
        let resumes = handlers.iter().filter(covers).map(|h| h.target);
        let mut next = code[at].successors(at).chain(resumes.map(|t| t as usize));
        let follows = next.any(|to| to < n && is_live(&live, to));
        if let Ins::SendRemote { pkt: p, .. }
        | Ins::SendNeighbor { pkt: p, .. }
        | Ins::Deliver { pkt: p } = &mut code[at]
        {
            if let Parts::Regs { at, len } = *p {
                if !follows && (at, len) == pkt {
                    *p = Parts::Take { at, len };
                }
            }
        }
        if reads || follows {
            live[at / 64] |= 1 << (at % 64);
        }
    }
}

impl Ins {
    /// Calls `f` with every register this instruction reads.
    fn each_read(&self, f: &mut impl FnMut(Reg)) {
        let mut src = |s: &Src| {
            if let Src::Reg(r) | Src::Tmp(r) | Src::Field(r, _) = *s {
                f(r);
            }
        };
        fn scalar(x: &Scalar, src: &mut impl FnMut(&Src)) {
            if let Scalar::Val(s, _) | Scalar::Get(_, s) = x {
                src(s);
            }
        }
        fn key(k: &KeyOp, src: &mut impl FnMut(&Src)) {
            match k {
                KeyOp::Inline(_, parts) => parts.iter().for_each(|x| scalar(x, src)),
                KeyOp::Boxed(s) => src(s),
            }
        }
        match self {
            Ins::Move { src: s, .. }
            | Ins::Get { a: s, .. }
            | Ins::Prim1 { a: s, .. }
            | Ins::Ret { src: s }
            | Ins::RetPair { src: s } => src(s),
            Ins::Tuple { items, .. } | Ins::List { items, .. } => items.iter().for_each(src),
            Ins::PrimN { args, .. } | Ins::Call { args, .. } => args.iter().for_each(src),
            Ins::Binop { a, b, .. }
            | Ins::Prim2 { a, b, .. }
            | Ins::BrCmp { a, b, .. }
            | Ins::Ret2 { a, b } => [a, b].into_iter().for_each(src),
            Ins::Prim3 { a, b, c, .. } => [a, b, c].into_iter().for_each(src),
            Ins::ScalarOp { a, b, .. } | Ins::BrScalarCmp { a, b, .. } => {
                scalar(a, &mut src);
                scalar(b, &mut src);
            }
            Ins::Unop { a, .. } | Ins::Br { cond: a, .. } => scalar(a, &mut src),
            Ins::Set { hdr, x, .. } => {
                src(hdr);
                scalar(x, &mut src);
            }
            Ins::TblGet { t, key: k, .. }
            | Ins::TblHas { t, key: k, .. }
            | Ins::TblDel { t, key: k, .. }
            | Ins::BrTblHas { t, key: k, .. } => {
                src(t);
                key(k, &mut src);
            }
            Ins::TblSet { t, key: k, v, .. } => {
                src(t);
                key(k, &mut src);
                src(v);
            }
            Ins::BrPrim { a, b, .. } => b.iter().chain([a]).for_each(src),
            Ins::SendRemote { pkt, .. } | Ins::Deliver { pkt } => pkt.each_read(f),
            Ins::SendNeighbor { host, pkt, .. } => {
                src(host);
                pkt.each_read(f);
            }
            Ins::Raise(_) | Ins::Flush | Ins::Jump { .. } => {}
        }
    }
}

impl Parts {
    fn each_read(&self, f: &mut impl FnMut(Reg)) {
        match *self {
            Parts::Regs { at, len } | Parts::Take { at, len } => (at..at + len).for_each(f),
            Parts::Tuple(Src::Reg(r) | Src::Tmp(r) | Src::Field(r, _)) => f(r),
            Parts::Tuple(_) => {}
        }
    }
}
