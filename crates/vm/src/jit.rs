//! The **JIT specializer** — the run-time compiler "generated from" the
//! portable interpreter (paper section 2.2).
//!
//! Tempo turned the PLAN-P C interpreter into a run-time specializer that
//! assembles pre-compiled machine-code templates. The analog here lowers
//! the typed AST to a flat **register bytecode** run by one `match` loop
//! ([`CompiledProgram::run_channel`]): everything the interpreter decides
//! per packet that depends only on the program is decided once, at
//! compile time, and the per-packet work is "match and act":
//!
//! * operands are resolved — a local slot, a temporary, a constant, a
//!   global, or a field of a tuple in a slot;
//! * a channel's packet parameter is **one register per component** of
//!   its shape (`ip`, transport header, payload parts), filled by the
//!   caller ([`CompiledProgram::load_packet`]): `udpDst(#2 p)` reads a
//!   register, `OnRemote(c, p)` and `deliver(p)` send straight from the
//!   registers, a literal tuple in a send is computed side by side and
//!   sent from there, and the tuple itself is built only where `p` is
//!   used whole for anything else (passed to a function, stored,
//!   returned) — at that point, as any tuple is;
//! * `let`s that only rename an operand (`val iph : ip = #1 p`) bind at
//!   compile time and emit nothing;
//! * primitive calls are pre-resolved function pointers;
//! * constant subexpressions are folded;
//! * the checker's types select **typed instructions**: where both
//!   operands of an operator are `int`, `host`, `char` or `bool`
//!   ([`ScalarTy`]), the instruction reads them unwrapped — from an
//!   operand, as an immediate, as a scalar accessor (`udpDst(h)`,
//!   `blobLen(b)`: the signature table's [`Access::Get`]) applied to an
//!   operand in place, or as `thisHost()` asked of the environment — and
//!   computes on `i64`s: no call, no `Value` built to be taken apart
//!   again. A header-field setter ([`Access::Set`]) reads its header in
//!   place and its scalar the same way. `tblGet`/`tblHas`/`tblSet`/
//!   `tblDel` are table instructions that read the table in place and,
//!   where the key's type is a scalar or a tuple of up to three
//!   ([`KeyShape`]), the key as scalar operands made into an inline
//!   [`Key`] on the stack: a scalar key, a literal tuple, or a `let`-bound
//!   tuple whose every use is a key or a projection — that tuple is never
//!   built. Any other key is read as a value ([`Key::of`]). Everything
//!   else (strings, blobs, tuples, the other primitives) takes the
//!   generic instructions, through [`crate::ops`] and the function
//!   pointers;
//! * conditions compile to branches (`andalso`/`orelse`/`not` never
//!   materialize a boolean), with two fused forms — the superinstructions
//!   the profiler ranked: **`hdr_compare_branch`** (`if tcpDst(h) = 80`,
//!   `if ipDst(h) = thisHost()`: the scalar compare-and-branch with an
//!   accessor for an operand — header read, compare and branch in one
//!   instruction) and **`table_forward`** (`if tblHas(t, k)`: lookup and
//!   branch in one);
//! * results return in registers: a channel body leaves `(ps', ss')` in
//!   registers 0 and 1, so a literal pair in tail position is never
//!   allocated and a `(ps, ss)` tail moves nothing at all;
//! * sends name their channel by its index in the program, resolved at
//!   compile time;
//! * the register file is owned by the program and reused across
//!   dispatches, and user-function frames are windows of it.
//!
//! The semantics stays the interpreter's: operators dispatch through
//! [`crate::ops`] and primitives through [`crate::prims`] — the typed
//! instructions through the forms the generic ones are written in terms
//! of ([`scalar_binop`], [`prims::get`], [`prims::set`],
//! [`prims::tbl_get`] and its three siblings) — so a change to the
//! interpreter *is* a change to this tier.
//!
//! # Step and site accounting
//!
//! The interpreter charges one step and one [`NetEnv::charge_site`] per
//! node, on entry — so along any execution path the charges are the
//! pre-order listing of the nodes evaluated. The compiler appends every
//! node's site to a program-wide pool in that same order
//! ([`CompiledProgram::block_sites`]); control flow cuts the pool into
//! **blocks**, and each instruction records the pool range
//! `(its block's start, sites charged once this instruction has run)`.
//! Code that falls through from one block into the next reads
//! consecutive pool positions, so the engine only remembers where its
//! uncharged sites begin and charges them — one `steps +=` and one
//! [`NetEnv::charge_block`] for the whole slice — when it leaves the
//! straight line: at a taken jump, a return, or before a call (the
//! callee charges its own blocks in between). An instruction that
//! raises charges up to its own range's end instead, which is exactly
//! what the interpreter had charged when the same node raised. Totals,
//! per-site sums and charge *order* are therefore identical to the
//! interpreter's on normal, `handle`d and uncaught-exception paths
//! alike (pinned by the differential tests).
//!
//! [`compile`] also reports [`CodegenStats`], the "code generation time"
//! metric of the paper's figure 3.

use crate::cost::STEPS_PER_NODE;
use crate::env::{packet_parts, ChanRef, NetEnv};
use crate::ops::{eval_binop, eval_unop, holds, scalar_binop, scalar_unop, unop_operand};
use crate::prims::{self, PrimFn};
use crate::value::{Key, KeyShape, ScalarTy, Value, VmError};
use planp_lang::ast::{BinOp, UnOp};
use planp_lang::prims::{Access, Field, PrimId};
use planp_lang::tast::{ExnId, TExpr, TExprKind, TProgram};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A register of the current frame: local slots first, temporaries after.
type Reg = u32;

/// Where an instruction reads an operand from.
#[derive(Debug, Clone, Copy)]
enum Src {
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
enum Scalar {
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
enum KeyOp {
    /// A key of an inline shape (a scalar, or a tuple of up to three):
    /// one scalar operand per component, made into a [`Key`] on the
    /// stack. No tuple is built, whether the key was written as a
    /// scalar, as a literal tuple or as a `let`-bound tuple.
    Inline(KeyShape, Box<[Scalar]>),
    /// Any other key: a value, made into a key by [`Key::of`].
    Boxed(Src),
}

/// The packet a send instruction names. No send builds a tuple.
#[derive(Debug, Clone, Copy)]
enum Parts {
    /// `len` registers from `at`, one per component: the channel's own
    /// packet parameter, or the items of a literal tuple computed side
    /// by side.
    Regs { at: Reg, len: u32 },
    /// A tuple value (a function's result, a table entry).
    Tuple(Src),
}

/// One bytecode instruction. `to` fields are instruction indices.
enum Ins {
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
    fn kind(&self) -> &'static str {
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

/// A `handle` region: exceptions raised by instructions `start..end`
/// that match `pat` resume at `target`.
struct Handler {
    start: u32,
    end: u32,
    pat: Option<ExnId>,
    target: u32,
}

/// The compiled form of one expression: a channel body, a function
/// body, or an initializer.
struct Unit {
    code: Vec<Ins>,
    /// Per instruction: where its block starts in the site pool (read
    /// when the instruction is jumped to) and how far the pool is
    /// charged once it has run (read when it jumps, returns or raises).
    charge: Vec<(u32, u32)>,
    /// Innermost region first.
    handlers: Vec<Handler>,
    /// Registers of this unit's own frame (at least the one or two
    /// the result is returned in).
    nregs: u32,
    /// `nregs` plus the deepest chain of callee frames.
    depth: u32,
}

/// A compiled channel overload.
pub struct CompiledChannel {
    /// Channel name.
    pub name: String,
    body: Unit,
    /// The registers of `body`'s frame that hold the packet, one per
    /// component of the channel's shape: `(first, count)`.
    pkt: (Reg, u32),
    initstate: Option<Unit>,
}

/// A fully compiled program, ready to be installed on a node.
pub struct CompiledProgram {
    global_inits: Vec<Unit>,
    proto_init: Option<Unit>,
    funs: Vec<Unit>,
    /// Compiled channels, parallel to [`TProgram::channels`].
    pub channels: Vec<CompiledChannel>,
    /// The typed program (kept for state types and dispatch metadata).
    pub prog: Rc<TProgram>,
    consts: Vec<Value>,
    sites: Vec<u32>,
    fused: [usize; 2],
    /// The register file, taken for the duration of a run and put back
    /// (a re-entrant run finds it empty and grows its own).
    regs: RefCell<Vec<Value>>,
    steps: Cell<u64>,
}

/// Statistics from one compilation — the figure 3 measurement.
#[derive(Debug, Clone, Copy)]
pub struct CodegenStats {
    /// Number of typed AST nodes compiled.
    pub nodes: usize,
    /// Wall-clock code generation time.
    pub elapsed: Duration,
}

/// Compiles a typed program.
pub fn compile(prog: Rc<TProgram>) -> (CompiledProgram, CodegenStats) {
    let start = Instant::now();
    let prim = |name| {
        let found = planp_lang::prims::table().lookup(name);
        found.expect("named in the signature table").0
    };
    let mut cx = Cx {
        prog: &prog,
        deliver: prim("deliver"),
        this_host: prim("thisHost"),
        tables: TblOp::NAMES.map(prim),
        consts: Vec::new(),
        sites: Vec::new(),
        fun_depth: Vec::with_capacity(prog.funs.len()),
        nodes: 0,
        fused: [0; 2],
    };

    let global_inits = prog
        .globals
        .iter()
        .map(|g| cx.unit(&g.init, count_let_depth(&g.init), None))
        .collect();

    // Bodies may call only earlier functions, so callee frame depths are
    // known by the time a call is compiled.
    let mut funs = Vec::with_capacity(prog.funs.len());
    for f in &prog.funs {
        let unit = cx.unit(&f.body, f.nlocals, None);
        cx.fun_depth.push(unit.depth);
        funs.push(unit);
    }

    let proto_init = prog
        .proto_init
        .as_ref()
        .map(|e| cx.unit(e, count_let_depth(e), None));

    let channels = prog
        .channels
        .iter()
        .map(|ch| {
            // The packet's registers come right after the local slots.
            let pkt = (ch.nlocals, ch.shape.components() as u32);
            CompiledChannel {
                name: ch.name.clone(),
                body: cx.unit(&ch.body, ch.nlocals, Some(pkt)),
                pkt,
                initstate: ch
                    .initstate
                    .as_ref()
                    .map(|e| cx.unit(e, count_let_depth(e), None)),
            }
        })
        .collect();

    let Cx {
        consts,
        sites,
        nodes,
        fused,
        ..
    } = cx;
    let stats = CodegenStats {
        nodes,
        elapsed: start.elapsed(),
    };
    (
        CompiledProgram {
            global_inits,
            proto_init,
            funs,
            channels,
            prog,
            consts,
            sites,
            fused,
            regs: RefCell::new(Vec::new()),
            steps: Cell::new(0),
        },
        stats,
    )
}

/// Number of local slots an initializer expression needs (initializers
/// have no parameters, so this is just the peak `let` nesting).
fn count_let_depth(e: &TExpr) -> u32 {
    let mut max = 0;
    e.walk(&mut |n| {
        if let TExprKind::Let { slot, .. } = &n.kind {
            max = max.max(slot + 1);
        }
    });
    max
}

impl CompiledProgram {
    /// Evaluates the `val` globals in declaration order.
    ///
    /// # Errors
    ///
    /// Propagates load-time evaluation failures.
    pub fn eval_globals(&self, net: &mut dyn NetEnv) -> Result<Vec<Value>, VmError> {
        let mut globals: Vec<Value> = Vec::with_capacity(self.global_inits.len());
        for unit in &self.global_inits {
            let v = self.init(unit, &globals, net)?;
            globals.push(v);
        }
        Ok(globals)
    }

    /// Evaluates the initial protocol state.
    pub fn init_proto(&self, globals: &[Value], net: &mut dyn NetEnv) -> Result<Value, VmError> {
        match &self.proto_init {
            Some(unit) => self.init(unit, globals, net),
            None => Ok(Value::default_of(&self.prog.proto_ty)),
        }
    }

    /// Evaluates the initial state of channel `idx`.
    pub fn init_channel_state(
        &self,
        idx: usize,
        globals: &[Value],
        net: &mut dyn NetEnv,
    ) -> Result<Value, VmError> {
        match &self.channels[idx].initstate {
            Some(unit) => self.init(unit, globals, net),
            None => Ok(Value::default_of(&self.prog.channels[idx].ss_ty)),
        }
    }

    /// Runs channel `idx` on a packet tuple, returning `(ps', ss')`:
    /// [`load_packet`](Self::load_packet) fed with the tuple's
    /// components, then [`PacketFrame::run`].
    ///
    /// # Errors
    ///
    /// Propagates uncaught PLAN-P exceptions and traps.
    pub fn run_channel(
        &self,
        idx: usize,
        globals: &[Value],
        ps: Value,
        ss: Value,
        pkt: Value,
        net: &mut dyn NetEnv,
    ) -> Result<(Value, Value), VmError> {
        let parts = packet_parts(&pkt)?;
        self.load_packet(idx, |regs| {
            let fits = regs.len() == parts.len();
            if fits {
                regs.clone_from_slice(parts);
            }
            fits
        })
        .ok_or_else(|| {
            VmError::trap(format!(
                "channel {idx} takes {} packet components, got {}",
                self.channels[idx].pkt.1,
                parts.len()
            ))
        })?
        .run(globals, ps, ss, net)
    }

    /// Opens channel `idx`'s frame and lets `fill` write the packet
    /// straight into its registers — one slot per component of the
    /// channel's [`planp_lang::types::PacketShape`], in tuple order.
    /// `None` when `fill` declines (the packet does not match): nothing
    /// ran and nothing was charged.
    pub fn load_packet(
        &self,
        idx: usize,
        fill: impl FnOnce(&mut [Value]) -> bool,
    ) -> Option<PacketFrame<'_>> {
        let ch = &self.channels[idx];
        let mut frame = PacketFrame {
            prog: self,
            idx,
            regs: self.take_regs(&ch.body),
        };
        let (at, len) = (ch.pkt.0 as usize, ch.pkt.1 as usize);
        fill(&mut frame.regs[at..at + len]).then_some(frame)
    }

    /// Runs an initializer.
    fn init(&self, unit: &Unit, globals: &[Value], net: &mut dyn NetEnv) -> Result<Value, VmError> {
        let mut regs = self.take_regs(unit);
        let (out, _) = self.exec(unit, globals, &mut regs, net);
        let out = out.map(|()| std::mem::replace(&mut regs[0], Value::Unit));
        self.regs.replace(regs);
        out
    }

    /// Takes the register file, grown to fit `unit` and its callees.
    fn take_regs(&self, unit: &Unit) -> Vec<Value> {
        let mut regs = self.regs.take();
        if regs.len() < unit.depth as usize {
            regs.resize(unit.depth as usize, Value::Unit);
        }
        regs
    }

    /// Runs `unit` in `regs`; returns the outcome and the steps charged.
    fn exec(
        &self,
        unit: &Unit,
        globals: &[Value],
        regs: &mut [Value],
        net: &mut dyn NetEnv,
    ) -> (Result<(), VmError>, u64) {
        let mut vm = Vm {
            prog: self,
            globals,
            net,
            steps: 0,
        };
        let out = vm.exec(unit, regs);
        self.steps.set(self.steps.get() + vm.steps);
        (out, vm.steps)
    }

    /// What a send instruction hands the environment for channel `chan`.
    fn chan_ref(&self, chan: u32) -> ChanRef<'_> {
        let ch = &self.prog.channels[chan as usize];
        ChanRef {
            name: &ch.name,
            index: chan,
            overload: ch.overload,
        }
    }

    /// Total steps charged by this program (the VM profiling step count;
    /// equal to the nodes the interpreter would have evaluated).
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// The site pool: every compiled node's site in the interpreter's
    /// charge order. [`NetEnv::charge_block`] hands out slices of it
    /// together with their position, so an environment can keep dense
    /// per-position counters.
    pub fn block_sites(&self) -> &[u32] {
        &self.sites
    }

    /// How many `(hdr_compare_branch, table_forward)` superinstructions
    /// the compiler emitted.
    pub fn superinstructions(&self) -> (usize, usize) {
        (self.fused[0], self.fused[1])
    }

    /// How many instructions of each kind the program compiled to, by
    /// kind name, ascending — what a test reads to know that the
    /// programs it ran covered the instruction set.
    pub fn instruction_census(&self) -> Vec<(&'static str, usize)> {
        let chans = self.channels.iter();
        let units = chans
            .flat_map(|c| std::iter::once(&c.body).chain(&c.initstate))
            .chain(&self.global_inits)
            .chain(&self.proto_init)
            .chain(&self.funs);
        let mut census = std::collections::BTreeMap::new();
        for ins in units.flat_map(|u| &u.code) {
            *census.entry(ins.kind()).or_insert(0) += 1;
        }
        census.into_iter().collect()
    }
}

/// Channel `idx`'s frame with a packet in its registers, ready to run;
/// see [`CompiledProgram::load_packet`]. Holds the program's register
/// file and hands it back when dropped, run or not.
pub struct PacketFrame<'p> {
    prog: &'p CompiledProgram,
    idx: usize,
    regs: Vec<Value>,
}

impl PacketFrame<'_> {
    /// The loaded packet's components, in tuple order.
    pub fn packet(&self) -> &[Value] {
        let (at, len) = self.prog.channels[self.idx].pkt;
        &self.regs[at as usize..(at + len) as usize]
    }

    /// Runs the channel on the loaded packet, returning `(ps', ss')`.
    ///
    /// # Errors
    ///
    /// Propagates uncaught PLAN-P exceptions and traps.
    pub fn run(
        mut self,
        globals: &[Value],
        ps: Value,
        ss: Value,
        net: &mut dyn NetEnv,
    ) -> Result<(Value, Value), VmError> {
        let unit = &self.prog.channels[self.idx].body;
        self.regs[0] = ps;
        self.regs[1] = ss;
        let (out, steps) = self.prog.exec(unit, globals, &mut self.regs, net);
        net.charge_steps(steps);
        out.map(|()| {
            let ps = std::mem::replace(&mut self.regs[0], Value::Unit);
            (ps, std::mem::replace(&mut self.regs[1], Value::Unit))
        })
    }
}

impl Drop for PacketFrame<'_> {
    fn drop(&mut self) {
        self.prog.regs.replace(std::mem::take(&mut self.regs));
    }
}

// ---- execution ------------------------------------------------------------

/// The state of one run: everything but the register file, which is
/// passed down frame by frame.
struct Vm<'a> {
    prog: &'a CompiledProgram,
    globals: &'a [Value],
    net: &'a mut dyn NetEnv,
    steps: u64,
}

/// Reads an operand in place.
#[inline(always)]
fn read<'v>(
    frame: &'v [Value],
    globals: &'v [Value],
    consts: &'v [Value],
    s: &Src,
) -> Result<&'v Value, VmError> {
    match *s {
        Src::Reg(r) | Src::Tmp(r) => Ok(&frame[r as usize]),
        Src::Const(i) => Ok(&consts[i as usize]),
        Src::Global(i) => globals
            .get(i as usize)
            .ok_or_else(|| VmError::trap("global index out of range")),
        Src::Field(r, i) => match &frame[r as usize] {
            Value::Tuple(items) => items
                .get(i as usize)
                .ok_or_else(|| VmError::trap("projection out of range")),
            other => Err(VmError::trap(format!("projection on {other:?}"))),
        },
    }
}

/// Reads an operand by value: temporaries move, everything else clones.
#[inline(always)]
fn own(
    frame: &mut [Value],
    globals: &[Value],
    consts: &[Value],
    s: &Src,
) -> Result<Value, VmError> {
    match *s {
        Src::Tmp(r) => Ok(std::mem::replace(&mut frame[r as usize], Value::Unit)),
        _ => read(frame, globals, consts, s).cloned(),
    }
}

/// [`own`] for the last read of a frame (a return): slots move too.
#[inline(always)]
fn own_last(
    frame: &mut [Value],
    globals: &[Value],
    consts: &[Value],
    s: &Src,
) -> Result<Value, VmError> {
    match *s {
        Src::Reg(r) => own(frame, globals, consts, &Src::Tmp(r)),
        _ => own(frame, globals, consts, s),
    }
}

fn want_bool(v: &Value, what: &str) -> Result<bool, VmError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(VmError::trap(format!("{what} {other:?}"))),
    }
}

impl Vm<'_> {
    /// Charges the sites `start..end` of the pool.
    #[inline(always)]
    fn charge(&mut self, start: u32, end: u32) {
        if end > start {
            self.steps += u64::from(end - start) * STEPS_PER_NODE;
            self.net.charge_block(
                start as usize,
                &self.prog.sites[start as usize..end as usize],
            );
        }
    }

    /// Runs `unit` in the first `unit.nregs` registers of `regs` and
    /// leaves its result in the first one (two for a channel body).
    fn exec(&mut self, unit: &Unit, regs: &mut [Value]) -> Result<(), VmError> {
        let (frame, rest) = regs.split_at_mut(unit.nregs as usize);
        let prog = self.prog;
        let globals = self.globals;
        let consts = &prog.consts[..];
        let mut pc = 0usize;
        // Where the sites not charged yet begin.
        let mut from = unit.charge[0].0;
        'run: loop {
            let at = pc;
            pc += 1;
            // Every arm ends in `continue` or `return`; a failing
            // instruction breaks out with its error instead.
            let err: VmError = 'ins: {
                macro_rules! tri {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => break 'ins e,
                        }
                    };
                }
                macro_rules! rd {
                    ($s:expr) => {
                        tri!(read(frame, globals, consts, $s))
                    };
                }
                macro_rules! own {
                    ($s:expr) => {
                        tri!(own(frame, globals, consts, $s))
                    };
                }
                macro_rules! sc {
                    ($s:expr) => {
                        match $s {
                            Scalar::Val(s, ty) => tri!(ty.read(rd!(s))),
                            Scalar::Imm(x) => *x,
                            Scalar::Get(f, s) => tri!(prims::get(*f, rd!(s))),
                            Scalar::ThisHost => i64::from(self.net.this_host()),
                        }
                    };
                }
                macro_rules! parts {
                    ($p:expr) => {
                        match $p {
                            Parts::Regs { at, len } => &frame[*at as usize..(*at + *len) as usize],
                            Parts::Tuple(s) => tri!(packet_parts(rd!(s))),
                        }
                    };
                }
                macro_rules! key {
                    ($k:expr) => {
                        match $k {
                            KeyOp::Inline(shape, parts) => {
                                let mut words = [0; 3];
                                for (w, part) in words.iter_mut().zip(parts.iter()) {
                                    *w = sc!(part) as u64;
                                }
                                Key::Inline(*shape, words)
                            }
                            KeyOp::Boxed(s) => Key::of(rd!(s)),
                        }
                    };
                }
                // Falling through reads on in the pool; a jump leaves
                // the straight line, so it charges first.
                macro_rules! branch {
                    ($taken:expr, $to:expr) => {{
                        if $taken {
                            self.charge(from, unit.charge[at].1);
                            pc = *$to as usize;
                            from = unit.charge[pc].0;
                        }
                        continue 'run;
                    }};
                }
                match &unit.code[at] {
                    Ins::Move { dst, src } => {
                        frame[*dst as usize] = own!(src);
                        continue 'run;
                    }
                    Ins::Tuple { dst, items } => {
                        let items: Rc<[Value]> = match &items[..] {
                            [a, b] => Rc::from([own!(a), own!(b)]),
                            [a, b, c] => Rc::from([own!(a), own!(b), own!(c)]),
                            [a, b, c, d] => Rc::from([own!(a), own!(b), own!(c), own!(d)]),
                            many => {
                                let mut out = Vec::with_capacity(many.len());
                                for s in many {
                                    out.push(own!(s));
                                }
                                out.into()
                            }
                        };
                        frame[*dst as usize] = Value::Tuple(items);
                        continue 'run;
                    }
                    Ins::List { dst, items } => {
                        let mut out = Vec::with_capacity(items.len());
                        for s in items.iter() {
                            out.push(own!(s));
                        }
                        frame[*dst as usize] = Value::List(Rc::new(out));
                        continue 'run;
                    }
                    Ins::ScalarOp { dst, op, a, b } => {
                        frame[*dst as usize] = tri!(scalar_binop(*op, sc!(a), sc!(b)));
                        continue 'run;
                    }
                    Ins::Binop { dst, op, a, b } => {
                        frame[*dst as usize] = tri!(eval_binop(*op, rd!(a), rd!(b)));
                        continue 'run;
                    }
                    Ins::Unop { dst, op, a } => {
                        frame[*dst as usize] = scalar_unop(*op, sc!(a));
                        continue 'run;
                    }
                    Ins::Get { dst, f, a } => {
                        frame[*dst as usize] = prims::wrap(*f, tri!(prims::get(*f, rd!(a))));
                        continue 'run;
                    }
                    Ins::Set { dst, f, hdr, x } => {
                        frame[*dst as usize] = tri!(prims::set(*f, rd!(hdr), sc!(x)));
                        continue 'run;
                    }
                    Ins::Prim1 { dst, f, a } => {
                        frame[*dst as usize] = tri!(f(std::slice::from_ref(rd!(a)), self.net));
                        continue 'run;
                    }
                    Ins::Prim2 { dst, f, a, b } => {
                        let args = [own!(a), own!(b)];
                        frame[*dst as usize] = tri!(f(&args, self.net));
                        continue 'run;
                    }
                    Ins::Prim3 { dst, f, a, b, c } => {
                        let args = [own!(a), own!(b), own!(c)];
                        frame[*dst as usize] = tri!(f(&args, self.net));
                        continue 'run;
                    }
                    Ins::PrimN { dst, f, args } => {
                        let mut vals = Vec::with_capacity(args.len());
                        for s in args.iter() {
                            vals.push(own!(s));
                        }
                        frame[*dst as usize] = tri!(f(&vals, self.net));
                        continue 'run;
                    }
                    Ins::TblGet { dst, t, key } => {
                        let key = key!(key);
                        frame[*dst as usize] = tri!(prims::tbl_get(rd!(t), &key));
                        continue 'run;
                    }
                    Ins::TblHas { dst, t, key } => {
                        let key = key!(key);
                        frame[*dst as usize] = Value::Bool(tri!(prims::tbl_has(rd!(t), &key)));
                        continue 'run;
                    }
                    Ins::TblSet { dst, t, key, v } => {
                        let (key, v) = (key!(key), own!(v));
                        tri!(prims::tbl_set(rd!(t), key, v, self.net));
                        frame[*dst as usize] = Value::Unit;
                        continue 'run;
                    }
                    Ins::TblDel { dst, t, key } => {
                        let key = key!(key);
                        tri!(prims::tbl_del(rd!(t), &key, self.net));
                        frame[*dst as usize] = Value::Unit;
                        continue 'run;
                    }
                    Ins::Call { dst, fun, args } => {
                        for (slot, s) in rest.iter_mut().zip(args.iter()) {
                            *slot = own!(s);
                        }
                        tri!(self.exec(&prog.funs[*fun as usize], rest));
                        frame[*dst as usize] = std::mem::replace(&mut rest[0], Value::Unit);
                        continue 'run;
                    }
                    Ins::Raise(id) => break 'ins VmError::Exn(*id),
                    Ins::SendRemote { chan, pkt } => {
                        self.net.send_remote(prog.chan_ref(*chan), parts!(pkt));
                        continue 'run;
                    }
                    Ins::SendNeighbor { chan, host, pkt } => {
                        let h = match rd!(host) {
                            Value::Host(h) => *h,
                            other => {
                                break 'ins VmError::trap(format!("OnNeighbor host {other:?}"))
                            }
                        };
                        self.net.send_neighbor(prog.chan_ref(*chan), h, parts!(pkt));
                        continue 'run;
                    }
                    Ins::Deliver { pkt } => {
                        self.net.deliver(parts!(pkt));
                        continue 'run;
                    }
                    Ins::Flush => {
                        self.charge(from, unit.charge[at].1);
                        from = unit.charge[at].1;
                        continue 'run;
                    }
                    Ins::Jump { to } => branch!(true, to),
                    Ins::Br { cond, to, when } => branch!((sc!(cond) != 0) == *when, to),
                    Ins::BrScalarCmp { op, a, b, to, when } => {
                        let (x, y) = (sc!(a), sc!(b));
                        branch!(tri!(holds(*op, x.cmp(&y))) == *when, to)
                    }
                    Ins::BrCmp { op, a, b, to, when } => {
                        let v = tri!(eval_binop(*op, rd!(a), rd!(b)));
                        branch!(tri!(want_bool(&v, "comparison gave")) == *when, to)
                    }
                    Ins::BrTblHas { t, key, to, when } => {
                        let key = key!(key);
                        branch!(tri!(prims::tbl_has(rd!(t), &key)) == *when, to)
                    }
                    Ins::BrPrim { f, a, b, to, when } => {
                        let v = match b {
                            None => tri!(f(std::slice::from_ref(rd!(a)), self.net)),
                            Some(b) => {
                                let args = [own!(a), own!(b)];
                                tri!(f(&args, self.net))
                            }
                        };
                        branch!(tri!(want_bool(&v, "if condition")) == *when, to)
                    }
                    Ins::Ret { src } => {
                        frame[0] = tri!(own_last(frame, globals, consts, src));
                        self.charge(from, unit.charge[at].1);
                        return Ok(());
                    }
                    Ins::RetPair { src } => {
                        let (ps, ss) = match rd!(src) {
                            Value::Tuple(pair) if pair.len() == 2 => {
                                (pair[0].clone(), pair[1].clone())
                            }
                            other => {
                                break 'ins VmError::trap(format!(
                                    "channel body returned non-pair {other:?}"
                                ))
                            }
                        };
                        frame[0] = ps;
                        frame[1] = ss;
                        self.charge(from, unit.charge[at].1);
                        return Ok(());
                    }
                    Ins::Ret2 { a, b } => {
                        if !matches!((a, b), (Src::Reg(0), Src::Reg(1))) {
                            let ps = own!(a);
                            frame[1] = tri!(own_last(frame, globals, consts, b));
                            frame[0] = ps;
                        }
                        self.charge(from, unit.charge[at].1);
                        return Ok(());
                    }
                }
            };
            // The instruction raised: charge what the interpreter had
            // charged by then, then unwind to the innermost handler.
            self.charge(from, unit.charge[at].1);
            if let VmError::Exn(id) = err {
                let at = at as u32;
                if let Some(h) = unit
                    .handlers
                    .iter()
                    .find(|h| h.start <= at && at < h.end && (h.pat.is_none() || h.pat == Some(id)))
                {
                    pc = h.target as usize;
                    from = unit.charge[pc].0;
                    continue 'run;
                }
            }
            return Err(err);
        }
    }
}

// ---- compilation ----------------------------------------------------------

/// Program-wide compiler state.
struct Cx<'p> {
    prog: &'p TProgram,
    /// The `deliver` primitive, compiled to a send.
    deliver: PrimId,
    /// The `thisHost` primitive, a scalar operand.
    this_host: PrimId,
    /// The keyed table primitives, in [`TblOp::NAMES`] order.
    tables: [PrimId; 4],
    consts: Vec<Value>,
    sites: Vec<u32>,
    /// Frame depth of each compiled function, for callers' `depth`.
    fun_depth: Vec<u32>,
    nodes: usize,
    fused: [usize; 2],
}

/// The instructions waiting for a jump target.
#[derive(Default)]
struct Label(Vec<usize>);

/// A keyed table primitive: each compiles to its table instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TblOp {
    Get,
    Has,
    Set,
    Del,
}

impl TblOp {
    const NAMES: [&'static str; 4] = ["tblGet", "tblHas", "tblSet", "tblDel"];
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
    fn unit(&mut self, e: &TExpr, nlocals: u32, pkt: Option<(Reg, u32)>) -> Unit {
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
            match &mut self.code[at] {
                Ins::Jump { to }
                | Ins::Br { to, .. }
                | Ins::BrScalarCmp { to, .. }
                | Ins::BrCmp { to, .. }
                | Ins::BrTblHas { to, .. }
                | Ins::BrPrim { to, .. } => *to = here,
                _ => unreachable!("labels collect only branch instructions"),
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
                self.emit(match args.len() {
                    1 => Ins::Prim1 { dst, f, a: args[0] },
                    2 => Ins::Prim2 {
                        dst,
                        f,
                        a: args[0],
                        b: args[1],
                    },
                    3 => Ins::Prim3 {
                        dst,
                        f,
                        a: args[0],
                        b: args[1],
                        c: args[2],
                    },
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
        if const_of(e).is_none() {
            match &e.kind {
                TExprKind::Binop(op @ (BinOp::And | BinOp::Or), a, b) => {
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
                TExprKind::Unop(UnOp::Not, a) => {
                    self.visit(e);
                    return self.branch(a, to, !when);
                }
                TExprKind::Binop(op, a, b) if is_comparison(*op) => {
                    self.visit(e);
                    let mark = self.next;
                    let ins = match (ScalarTy::of(&a.ty), ScalarTy::of(&b.ty)) {
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
                    };
                    self.emit_to(to, ins);
                    self.next = mark;
                    return;
                }
                // table_forward.
                TExprKind::CallPrim { prim, args } if self.cx.tbl_op(*prim) == Some(TblOp::Has) => {
                    self.visit(e);
                    self.cx.fused[1] += 1;
                    let mark = self.next;
                    let t = self.gen(&args[0], None);
                    let key = self.key(&args[1]);
                    self.emit_to(
                        to,
                        Ins::BrTblHas {
                            t,
                            key,
                            to: 0,
                            when,
                        },
                    );
                    self.next = mark;
                    return;
                }
                // (A boolean accessor is a scalar operand, and `tblGet`
                // of a boolean a table instruction.)
                TExprKind::CallPrim { prim, args }
                    if matches!(args.len(), 1 | 2)
                        && access(*prim).is_none()
                        && self.cx.tbl_op(*prim).is_none() =>
                {
                    self.visit(e);
                    let mark = self.next;
                    let ins = Ins::BrPrim {
                        f: prims::impls()[prim.0 as usize],
                        a: self.gen(&args[0], None),
                        b: args.get(1).map(|b| self.gen(b, None)),
                        to: 0,
                        when,
                    };
                    self.emit_to(to, ins);
                    self.next = mark;
                    return;
                }
                _ => {}
            }
        }
        let mark = self.next;
        let cond = self.scalar(e, ScalarTy::Bool);
        self.emit_to(to, Ins::Br { cond, to: 0, when });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;
    use crate::interp::Interp;
    use crate::pkthdr::{addr, IpHdr, UdpHdr};
    use bytes::Bytes;
    use planp_lang::compile_front;

    fn both(src: &str) -> (Rc<TProgram>, CompiledProgram) {
        let tp = Rc::new(compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}")));
        let (cp, stats) = compile(tp.clone());
        assert!(stats.nodes > 0);
        (tp, cp)
    }

    fn udp_packet(src: u32, dst: u32, payload: &'static [u8]) -> Value {
        Value::tuple(vec![
            Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_UDP)),
            Value::Udp(UdpHdr::new(1000, 2000)),
            Value::Blob(Bytes::from_static(payload)),
        ])
    }

    /// Runs channel 0 through both evaluators and checks they agree on
    /// the outcome (new states displayed, or the error), the effects,
    /// and every accounting trail, order included. Returns the
    /// compiled tier's environment and outcome for further pinning.
    fn differential(src: &str, ps: Value) -> Ran {
        let (tp, cp) = both(src);
        let interp = Interp::new(&tp);

        let mut env_i = MockEnv::new(addr(10, 0, 0, 1));
        let mut env_j = MockEnv::new(addr(10, 0, 0, 1));
        let gi = interp.eval_globals(&mut env_i).unwrap();
        let gj = cp.eval_globals(&mut env_j).unwrap();
        assert_eq!(gi.len(), gj.len());

        let ssi = interp.init_channel_state(0, &gi, &mut env_i).unwrap();
        let ssj = cp.init_channel_state(0, &gj, &mut env_j).unwrap();
        let pkt = udp_packet(addr(1, 1, 1, 1), addr(2, 2, 2, 2), b"payload");

        let shown = |r: Result<(Value, Value), VmError>| {
            r.map(|(ps, ss)| format!("{} {}", ps.display(), ss.display()))
        };
        let ri = shown(interp.run_channel(0, &gi, ps.clone(), ssi, pkt.clone(), &mut env_i));
        let rj = shown(cp.run_channel(0, &gj, ps, ssj, pkt, &mut env_j));
        assert_eq!(ri, rj, "outcome of {src}");
        assert_eq!(
            format!("{:?}", env_i.effects),
            format!("{:?}", env_j.effects),
            "effects of {src}"
        );
        assert_eq!(env_i.output, env_j.output);
        assert_eq!(env_i.send_sites, env_j.send_sites, "send sites in {src}");
        assert_eq!(
            env_i.table_writes, env_j.table_writes,
            "table writes in {src}"
        );
        assert_eq!(
            env_i.site_steps, env_j.site_steps,
            "site charge trail in {src}"
        );
        assert_eq!(env_i.steps, env_j.steps, "aggregate steps in {src}");
        Ran {
            env: env_j,
            out: rj,
        }
    }

    /// What [`differential`] saw on the compiled tier.
    struct Ran {
        env: MockEnv,
        out: Result<String, VmError>,
    }

    /// The site of the first node that starts at `needle` in `src`.
    fn site_of(src: &str, needle: &str) -> u32 {
        src.find(needle).unwrap_or_else(|| panic!("{needle}?")) as u32
    }

    fn charged(env: &MockEnv, site: u32) -> bool {
        env.site_steps.iter().any(|&(s, _)| s == site)
    }

    #[test]
    fn differential_simple_programs() {
        differential(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps + 1, ss))",
            Value::Int(41),
        );
        differential(
            "val k : int = 6 * 7\n\
             channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + k, ss)",
            Value::Int(0),
        );
        differential(
            "fun dbl(x : int) : int = x * 2\n\
             channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (println(dbl(ps)); (dbl(dbl(ps)), ss))",
            Value::Int(5),
        );
        differential(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(8) is\n\
             let val n : int = tblGet(ss, ipSrc(#1 p)) handle NotFound => 0 in\n\
               (tblSet(ss, ipSrc(#1 p), n + 1); (n, ss))\n\
             end",
            Value::Int(0),
        );
        differential(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if blobLen(#3 p) > 3 andalso ps < 100 then (ps * 2, ss) else (ps, ss))",
            Value::Int(7),
        );
    }

    #[test]
    fn table_eviction_prims_agree_and_account_identically() {
        // Insert (fresh), overwrite (not fresh), delete one key, then
        // clear the rest — the channel returns the final table size.
        let src = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                   initstate mkTable(8) is\n\
                   (tblSet(ss, ipSrc(#1 p), 1);\n\
                    tblSet(ss, ipSrc(#1 p), 2);\n\
                    tblSet(ss, ipDst(#1 p), 3);\n\
                    tblDel(ss, ipSrc(#1 p));\n\
                    tblDel(ss, ipSrc(#1 p));\n\
                    tblClear(ss);\n\
                    (tblSize(ss), ss))";
        differential(src, Value::Int(-1));

        // The recorded mutation trail is exact, not just engine-equal.
        let (tp, cp) = both(src);
        let interp = Interp::new(&tp);
        let mut env = MockEnv::new(addr(10, 0, 0, 1));
        let ss = interp.init_channel_state(0, &[], &mut env).unwrap();
        let pkt = udp_packet(addr(1, 1, 1, 1), addr(2, 2, 2, 2), b"x");
        let (ps, _) = interp
            .run_channel(0, &[], Value::Int(0), ss, pkt.clone(), &mut env)
            .unwrap();
        assert_eq!(ps.display(), "0", "table is empty after tblClear");
        assert_eq!(
            env.table_writes,
            vec![(1, 1), (0, 1), (1, 2), (-1, 1), (0, 1), (-1, 0)],
            "insert, overwrite, insert, delete, no-op delete, clear"
        );
        assert_eq!(env.insert_count(), 2);

        // And the JIT leaves the same trail.
        let mut env_j = MockEnv::new(addr(10, 0, 0, 1));
        let ssj = cp.init_channel_state(0, &[], &mut env_j).unwrap();
        cp.run_channel(0, &[], Value::Int(0), ssj, pkt, &mut env_j)
            .unwrap();
        assert_eq!(env_j.table_writes, env.table_writes);
    }

    #[test]
    fn send_sites_noted_identically_by_both_engines() {
        use crate::env::SendKind;
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); OnNeighbor(network, thisHost(), p);\n\
                    deliver(p); (ps, ss))";
        let (tp, cp) = both(src);
        let interp = Interp::new(&tp);
        let mut env_i = MockEnv::new(addr(10, 0, 0, 1));
        let mut env_j = MockEnv::new(addr(10, 0, 0, 1));
        let pkt = udp_packet(1, 2, b"x");
        interp
            .run_channel(0, &[], Value::Int(0), Value::Unit, pkt.clone(), &mut env_i)
            .unwrap();
        cp.run_channel(0, &[], Value::Int(0), Value::Unit, pkt, &mut env_j)
            .unwrap();
        let want = vec![
            (SendKind::Remote, Some("network".to_string())),
            (SendKind::Neighbor, Some("network".to_string())),
            (SendKind::Deliver, None),
        ];
        assert_eq!(env_i.send_sites, want);
        assert_eq!(env_j.send_sites, want);
    }

    #[test]
    fn jit_steps_counted_and_charged_to_env() {
        let (_, cp) = both("channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)");
        let mut env = MockEnv::new(0);
        cp.run_channel(
            0,
            &[],
            Value::Int(0),
            Value::Unit,
            udp_packet(1, 2, b""),
            &mut env,
        )
        .unwrap();
        assert!(cp.steps() > 0);
        assert_eq!(env.steps, cp.steps());
        // Deterministic: running the same channel again doubles the count.
        cp.run_channel(
            0,
            &[],
            Value::Int(1),
            Value::Unit,
            udp_packet(1, 2, b""),
            &mut env,
        )
        .unwrap();
        assert_eq!(env.steps, cp.steps());
        assert_eq!(env.steps % 2, 0);
        // Every aggregate step was also attributed to a site.
        let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, env.steps);
    }

    #[test]
    fn constant_folding_produces_constant() {
        let (_, cp) = both(
            "val k : int = 2 + 3 * 4\n\
             channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + k, ss)",
        );
        let mut env = MockEnv::new(0);
        let globals = cp.eval_globals(&mut env).unwrap();
        assert_eq!(globals[0].display(), "14");
    }

    #[test]
    fn folding_does_not_hide_division_by_zero() {
        let (_, cp) = both(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             ((ps + (1 div 0), ss) handle Div => (0 - 1, ss))",
        );
        let mut env = MockEnv::new(0);
        let (ps, _) = cp
            .run_channel(
                0,
                &[],
                Value::Int(5),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        assert_eq!(ps.display(), "-1");
    }

    #[test]
    fn codegen_stats_scale_with_program_size() {
        let small = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)";
        let big = format!(
            "{}\nchannel other(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
             let val a : int = 1 val b : int = a + 2 val c : int = b * b in\n\
               (println(a + b + c); (ps, ss))\n\
             end",
            small
        );
        let tp1 = Rc::new(compile_front(small).unwrap());
        let tp2 = Rc::new(compile_front(&big).unwrap());
        let (_, s1) = compile(tp1);
        let (_, s2) = compile(tp2);
        assert!(s2.nodes > s1.nodes);
    }

    #[test]
    fn jit_runs_overloaded_channels_independently() {
        let (_, cp) = both(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)\n\
             channel network(ps : int, ss : unit, p : ip*tcp*blob) is (ps + 100, ss)",
        );
        let mut env = MockEnv::new(0);
        let (ps, _) = cp
            .run_channel(
                0,
                &[],
                Value::Int(0),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        assert_eq!(ps.display(), "1");
        let tcp_pkt = Value::tuple(vec![
            Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_TCP)),
            Value::Tcp(crate::pkthdr::TcpHdr::data(5, 80, 0)),
            Value::Blob(Bytes::new()),
        ]);
        let (ps, _) = cp
            .run_channel(1, &[], Value::Int(0), Value::Unit, tcp_pkt, &mut env)
            .unwrap();
        assert_eq!(ps.display(), "100");
    }

    // ---- raises in the middle of a block --------------------------------
    //
    // A block is charged when it ends; an instruction that raises before
    // that charges the prefix the interpreter had charged by then. Each
    // case runs through `differential` (identical trails, node for node)
    // and pins, by site, that nothing past the raise was charged.

    #[test]
    fn div_inside_nested_arithmetic_charges_the_prefix() {
        // Caught: the right operand of `+` (blobLen…) is never reached.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((ps * (7 + (40 div (ps - ps))) + blobLen(#3 p), ss)\n\
                    handle Div => (0 - 1, ss))";
        let Ran { env, out } = differential(src, Value::Int(5));
        assert_eq!(out.unwrap(), "-1 ()");
        assert!(charged(&env, site_of(src, "40 div")), "the raising node");
        assert!(charged(&env, site_of(src, "ps - ps")), "its operands");
        assert!(!charged(&env, site_of(src, "blobLen")), "nothing past it");
        assert!(charged(&env, site_of(src, "0 - 1")), "the handler");
        let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, env.steps);

        // Uncaught: same prefix, and the error surfaces.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (ps * (7 + (40 div (ps - ps))) + blobLen(#3 p), ss)";
        let Ran { env, out } = differential(src, Value::Int(5));
        assert_eq!(out, Err(VmError::Exn(crate::value::exn::DIV)));
        assert!(!charged(&env, site_of(src, "blobLen")));
        let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, env.steps);

        // No raise: the whole block, once.
        let Ran { env, out } = differential(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             ((ps * (7 + (40 div (ps + 1))) + blobLen(#3 p), ss)\n\
              handle Div => (0 - 1, ss))",
            Value::Int(4),
        );
        assert_eq!(out.unwrap(), "67 ()");
        assert_eq!(env.steps, env.site_steps.len() as u64);
    }

    #[test]
    fn table_miss_caught_and_uncaught_charges_the_prefix() {
        let caught = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                      initstate mkTable(8) is\n\
                      ((tblGet(ss, ipSrc(#1 p)) + blobLen(#3 p), ss)\n\
                       handle NotFound => (ps + 100, ss))";
        let Ran { env, out } = differential(caught, Value::Int(1));
        assert!(out.unwrap().starts_with("101 "));
        assert!(charged(&env, site_of(caught, "ipSrc")));
        assert!(!charged(&env, site_of(caught, "blobLen")));
        assert!(charged(&env, site_of(caught, "ps + 100")));

        // A handler for another exception does not catch it.
        let uncaught = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                        initstate mkTable(8) is\n\
                        ((tblGet(ss, ipSrc(#1 p)) + blobLen(#3 p), ss)\n\
                         handle Div => (ps + 100, ss))";
        let Ran { env, out } = differential(uncaught, Value::Int(1));
        assert_eq!(out, Err(VmError::Exn(crate::value::exn::NOT_FOUND)));
        assert!(!charged(&env, site_of(uncaught, "blobLen")));
        assert!(!charged(&env, site_of(uncaught, "ps + 100")));

        // Inside a condition compiled to branches, and in a `let` whose
        // handler supplies the default.
        differential(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(8) is\n\
             (if (tblGet(ss, ipSrc(#1 p)) > 0 handle NotFound => tblHas(ss, ipDst(#1 p)))\n\
                 orelse ps > 3\n\
              then (OnRemote(network, p); (ps, ss)) else (ps + 1, ss))",
            Value::Int(9),
        );
    }

    #[test]
    fn raise_in_an_argument_list_charges_the_prefix() {
        // The second argument raises: the first was evaluated, the
        // callee's body never runs.
        let src = "fun add(a : int, b : int) : int = a + b * 2\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((add(ps + 1, 9 mod (ps - ps)) + blobLen(#3 p), ss)\n\
                    handle Div => (0 - 7, ss))";
        let Ran { env, out } = differential(src, Value::Int(3));
        assert_eq!(out.unwrap(), "-7 ()");
        assert!(charged(&env, site_of(src, "ps + 1")), "first argument");
        assert!(charged(&env, site_of(src, "9 mod")), "the raising argument");
        assert!(!charged(&env, site_of(src, "a + b")), "not the callee");
        assert!(!charged(&env, site_of(src, "blobLen")));

        // The callee raises after the caller flushed its block; the
        // caller's handler catches, and nothing is charged twice.
        let src = "exception Busy\n\
                   fun risky(a : int) : int = if a > 2 then raise Busy else a\n\
                   fun twice(a : int) : int = risky(a) + risky(a + 1)\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((twice(ps) + blobLen(#3 p), ss) handle Busy => (0 - 2, ss))";
        for ps in [0, 2, 5] {
            let Ran { env, .. } = differential(src, Value::Int(ps));
            let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
            assert_eq!(attributed, env.steps, "ps={ps}");
        }
        let Ran { env, out } = differential(src, Value::Int(2));
        assert_eq!(out.unwrap(), "-2 ()");
        assert!(!charged(&env, site_of(src, "blobLen")));
        // Uncaught, through two frames.
        let uncaught = src.replace(" handle Busy => (0 - 2, ss)", "");
        let Ran { out, .. } = differential(&uncaught, Value::Int(5));
        assert!(matches!(out, Err(VmError::Exn(_))));
    }

    #[test]
    fn slots_shared_by_sibling_lets_do_not_alias() {
        // Both `let`s use the same slot; each value must be read before
        // the other binding overwrites it.
        let Ran { out, .. } = differential(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             ((let val x : int = ps + 1 in x end) * 100\n\
               + (let val y : int = ps + 2 in y end), ss)",
            Value::Int(1),
        );
        assert_eq!(out.unwrap(), "203 ()");
        // A renamed operand escaping its `let`, and a nested projection.
        let Ran { out, .. } = differential(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             let val q : (int*(int*int)) = (ps, (ps + 1, ps + 2)) in\n\
               ((let val h : int*int = #2 q in #2 h end)\n\
                 + (let val u : udp = #2 p in udpDst(u) end), ss)\n\
             end",
            Value::Int(10),
        );
        assert_eq!(out.unwrap(), "2012 ()");
    }

    /// How many tuples channel 0's body builds.
    fn tuples_built(src: &str) -> usize {
        let (_, cp) = both(src);
        let code = &cp.channels[0].body.code;
        code.iter()
            .filter(|i| matches!(i, Ins::Tuple { .. }))
            .count()
    }

    #[test]
    fn packet_is_sent_from_its_registers_without_a_tuple() {
        // The parameter itself, renamed, sent twice, sent and delivered,
        // to a neighbor; and a literal tuple, whose items are computed
        // side by side (a rewritten header next to plain components).
        for body in [
            "(OnRemote(network, p); (ps, ss))",
            "(OnRemote(network, p); OnRemote(network, p); (ps + 1, ss))",
            "(OnRemote(network, p); deliver(p); (ps, ss))",
            "(OnNeighbor(network, ipDst(#1 p), p); (udpDst(#2 p), ss))",
            "let val q : ip*udp*blob = p val r : ip*udp*blob = q in\n\
               (deliver(r); OnRemote(network, q); (udpDst(#2 r) + blobLen(#3 q), ss)) end",
            "(OnRemote(network, (ipDestSet(#1 p, thisHost()), #2 p, #3 p)); (ps, ss))",
            "let val h : udp = #2 p in\n\
               (deliver((ipSrcSet(#1 p, ipDst(#1 p)), udpDstSet(h, ps), blobSub(#3 p, 1, 3)));\n\
                (ps, ss)) end",
        ] {
            let src = format!("channel network(ps : int, ss : unit, p : ip*udp*blob) is\n{body}");
            let Ran { env, .. } = differential(&src, Value::Int(7));
            assert!(!env.effects.is_empty(), "{body}");
            assert_eq!(tuples_built(&src), 0, "{body}");
        }
        // A literal tuple whose item raises half way: the items before
        // it were charged, the send never happens.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((OnRemote(network, (#1 p, #2 p, blobSub(#3 p, 0, ps))); (ps, ss))\n\
                    handle OutOfRange => (0 - 1, ss))";
        let Ran { env, out } = differential(src, Value::Int(100));
        assert_eq!(out.unwrap(), "-1 ()");
        assert!(env.effects.is_empty());
        assert!(charged(&env, site_of(src, "#2 p")));
        let Ran { env, .. } = differential(src, Value::Int(3));
        assert_eq!(env.remote_count(), 1);
    }

    #[test]
    fn packet_used_whole_is_built_where_it_is_used() {
        // Passed to a user function (and still readable in place after).
        let src = "fun port(q : ip*udp*blob) : int = udpDst(#2 q)\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (port(p) + blobLen(#3 p) + ps, ss)";
        let Ran { out, .. } = differential(src, Value::Int(1));
        assert_eq!(out.unwrap(), "2008 ()");
        assert_eq!(tuples_built(src), 1);

        // Stored in a table, read back and sent: a tuple some other
        // expression built is sent as one.
        let src =
            "channel network(ps : int, ss : (int, ip*udp*blob) hash_table, p : ip*udp*blob)\n\
                   initstate mkTable(4) is\n\
                   (tblSet(ss, ps, p); OnRemote(network, tblGet(ss, ps)); deliver(p);\n\
                    (ps + 1, ss))";
        let Ran { env, .. } = differential(src, Value::Int(0));
        assert_eq!((env.remote_count(), env.deliver_count()), (1, 1));
        assert_eq!(tuples_built(src), 1);

        // The value of a conditional, a component of another tuple, and
        // a renaming `let` whose body uses it whole.
        let src = "fun same(q : ip*udp*blob) : ip*udp*blob = q\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   let\n\
                     val r : ip*udp*blob = if ps > 3 then p else same(p)\n\
                     val both : (ip*udp*blob)*int = (p, ps)\n\
                     val q : ip*udp*blob = p\n\
                   in\n\
                     (OnRemote(network, r); OnRemote(network, #1 both); OnRemote(network, same(q));\n\
                      (udpSrc(#2 r) + udpDst(#2 (#1 both)) + blobLen(#3 q), ss))\n\
                   end";
        for ps in [0, 9] {
            let Ran { env, out } = differential(src, Value::Int(ps));
            assert_eq!(out.unwrap(), "3007 ()");
            assert_eq!(env.remote_count(), 3);
            // Every effect carries the packet that came in.
            let shown: Vec<String> = env.effects.iter().map(|e| format!("{e:?}")).collect();
            assert!(shown.windows(2).all(|w| w[0] == w[1]), "{shown:?}");
        }
    }

    #[test]
    fn register_entry_rejects_a_packet_of_another_shape() {
        let (_, cp) = both("channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)");
        let mut env = MockEnv::new(0);
        // Declined by the filler: nothing ran, nothing was charged.
        assert!(cp.load_packet(0, |regs| regs.len() != 3).is_none());
        let short = Value::tuple(vec![Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_UDP))]);
        for bad in [short, Value::Int(1)] {
            let r = cp.run_channel(0, &[], Value::Int(0), Value::Unit, bad, &mut env);
            assert!(matches!(r, Err(VmError::Trap(_))), "{r:?}");
        }
        assert_eq!((env.steps, cp.steps()), (0, 0));
        // Filled in place, it runs like the tuple-fed entry.
        let frame = cp
            .load_packet(0, |regs| {
                let Value::Tuple(parts) = udp_packet(1, 2, b"x") else {
                    unreachable!()
                };
                regs.clone_from_slice(&parts);
                true
            })
            .expect("three components");
        assert_eq!(frame.packet().len(), 3);
        let (ps, _) = frame
            .run(&[], Value::Int(4), Value::Unit, &mut env)
            .unwrap();
        assert_eq!(ps.display(), "4");
        assert!(env.steps > 0);
    }

    #[test]
    fn returns_through_registers_in_every_shape() {
        for (body, want) in [
            ("(ps, ss)", "5 ()"),
            ("(ps + 1, ss)", "6 ()"),
            ("(#1 (ps, ss), #2 (ps, ss))", "5 ()"),
            ("let val r : int*unit = (ps * 2, ss) in r end", "10 ()"),
            (
                "if ps > 3 then (ps, ss) else let val r : int*unit = (0, ss) in r end",
                "5 ()",
            ),
        ] {
            let src = format!("channel network(ps : int, ss : unit, p : ip*udp*blob) is\n{body}");
            let Ran { out, .. } = differential(&src, Value::Int(5));
            assert_eq!(out.unwrap(), want, "{body}");
        }
        // Swapped halves must not clobber each other on the way out.
        let Ran { out, .. } = differential(
            "channel network(ps : int, ss : int, p : ip*udp*blob) is (ss, ps)",
            Value::Int(5),
        );
        assert_eq!(out.unwrap(), "0 5");
    }

    #[test]
    fn table_keys_of_scalars_are_read_in_place_and_never_built() {
        let src = |ss: &str, body: &str| {
            format!(
                "channel network(ps : int, ss : {ss}, p : ip*udp*blob) initstate mkTable(4) is\n{body}"
            )
        };
        let pairs = "((host*int), int) hash_table";
        for (ss, body, tuples, boxed) in [
            // A scalar key, and a literal tuple of scalars.
            (
                "(host, int) hash_table",
                "(tblSet(ss, ipSrc(#1 p), ps); (tblGet(ss, ipSrc(#1 p)), ss))",
                0,
                0,
            ),
            (
                pairs,
                "(tblSet(ss, (ipSrc(#1 p), udpSrc(#2 p)), ps + 1);\n\
                 (if tblHas(ss, (ipSrc(#1 p), udpSrc(#2 p))) then tblDel(ss, (thisHost(), ps)) else ();\n\
                 (tblSize(ss), ss)))",
                0,
                0,
            ),
            // The gateway's shape: a `let`-bound key, used as a key and
            // projected (an item computed into a register of its own).
            (
                pairs,
                "let val con : host*int = (ipSrc(#1 p), ps div (udpDst(#2 p) - 2000)) in\n\
                 (if tblHas(ss, con) then () else tblSet(ss, con, #2 con);\n\
                  ((tblGet(ss, con) handle NotFound => 0) + #2 con, ss)) end\n\
                 handle Div => (0 - 1, ss)",
                0,
                0,
            ),
            // Used whole as well: built, once, and looked up as a value.
            (
                pairs,
                "let val con : host*int = (ipSrc(#1 p), ps) in\n\
                 (tblSet(ss, con, 1); println(con); (tblGet(ss, con), ss)) end",
                1,
                2,
            ),
            // A key computed by another expression, and a string key:
            // the boxed route.
            (
                pairs,
                "(tblSet(ss, if ps > 0 then (ipSrc(#1 p), ps) else (ipDst(#1 p), 0), 7);\n\
                 (tblGet(ss, (ipSrc(#1 p), ps)) handle NotFound => 0, ss))",
                2,
                1,
            ),
            (
                "(string, int) hash_table",
                "(tblSet(ss, \"GET\", ps); (tblGet(ss, \"GET\"), ss))",
                0,
                2,
            ),
        ] {
            let src = src(ss, body);
            for ps in [-3, 0, 5] {
                let Ran { out, .. } = differential(&src, Value::Int(ps));
                assert!(!matches!(out, Err(VmError::Trap(_))), "{out:?}\n{src}");
            }
            assert_eq!(tuples_built(&src), tuples, "{src}");
            let (_, cp) = both(&src);
            let census = cp.instruction_census();
            let routed = |boxed: bool| {
                let of = census.iter().filter(|c| c.0.starts_with("Tbl") || c.0 == "BrTblHas");
                of.filter(|c| c.0.ends_with("Boxed") == boxed).map(|c| c.1).sum::<usize>()
            };
            assert_eq!(routed(true), boxed, "{census:?}\n{src}");
            assert!(emitted(&cp, "Prim2") + emitted(&cp, "Prim3") == 0, "{src}");
        }
    }

    #[test]
    fn superinstructions_are_emitted_for_the_ranked_shapes() {
        let (_, cp) = both(
            "channel network(ps : int, ss : (host, host) hash_table, p : ip*udp*blob) is\n\
             (if udpDst(#2 p) = 80 andalso not (blobLen(#3 p) < 8) then\n\
                (if tblHas(ss, ipDst(#1 p)) then OnRemote(network, p) else (); (ps, ss))\n\
              else (ps, ss))",
        );
        assert_eq!(cp.superinstructions(), (2, 1));
        // Only an accessor is read in place: any other call (this one
        // can raise) runs first, and the compare reads its result.
        let (_, cp) = both(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if strToInt(\"7\") = ps then (ps, ss) else (ps + 1, ss))",
        );
        assert_eq!(cp.superinstructions(), (0, 0));
        assert_eq!(emitted(&cp, "BrScalarCmp"), 1);
        // `thisHost()` on the other side is read by the compare too: no
        // call, and nothing folded in that would tie the image to a node.
        let (_, cp) = both(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if ipDst(#1 p) = thisHost() then (ps, ss) else (ps + 1, ss))",
        );
        assert_eq!(cp.superinstructions(), (1, 0));
        assert_eq!(emitted(&cp, "PrimN"), 0);
    }

    /// How many `kind` instructions the whole program compiled to.
    fn emitted(cp: &CompiledProgram, kind: &str) -> usize {
        let census = cp.instruction_census();
        census.iter().find(|(k, _)| *k == kind).map_or(0, |c| c.1)
    }

    #[test]
    fn typed_instructions_are_selected_from_the_checked_types() {
        // Scalar operands on both sides: typed, whatever they are made of.
        let (_, cp) = both(
            "val port : int = 80\n\
             channel network(ps : int, ss : bool, p : ip*tcp*blob) is\n\
             (if tcpIsSyn(#2 p) andalso tcpDst(#2 p) = port andalso ss then\n\
                (OnRemote(network, (ipSrcSet(#1 p, thisHost()), tcpSrcSet(#2 p, ps mod 7), #3 p));\n\
                 (0 - ps, not ss))\n\
              else (blobLen(#3 p) * 2, tcpSeq(#2 p) < ps))",
        );
        for (kind, n) in [
            ("Br", 2),
            ("BrScalarCmp", 1),
            ("Set", 2),
            ("ScalarOp", 4),
            ("Unop", 1),
            ("Get", 0),
        ] {
            assert_eq!(emitted(&cp, kind), n, "{kind}");
        }
        for generic in ["Binop", "BrCmp", "BrPrim", "Prim1", "Prim2", "PrimN"] {
            assert_eq!(emitted(&cp, generic), 0, "{generic}");
        }
        // Anything else stays on the generic path.
        let (_, cp) = both(
            "channel network(ps : string, ss : int*host, p : ip*udp*blob) is\n\
             (if ps = \"a\" orelse ss <> (1, ipSrc(#1 p)) then (ps ^ \"b\", ss)\n\
              else (intToString(strLen(ps)), (#1 ss, thisHost())))",
        );
        for (kind, n) in [("BrCmp", 2), ("Binop", 1), ("Get", 1), ("PrimN", 1)] {
            assert_eq!(emitted(&cp, kind), n, "{kind}");
        }
        assert_eq!(emitted(&cp, "BrScalarCmp") + emitted(&cp, "ScalarOp"), 0);
    }
}
