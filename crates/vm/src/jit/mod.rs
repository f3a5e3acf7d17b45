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
//!   caller ([`PacketFrame::load`]): `udpDst(#2 p)` reads a
//!   register, `OnRemote(c, p)` and `deliver(p)` send straight from the
//!   registers — and hand them over to be moved from where the send is
//!   the last read of `p` on every path (`Outgoing::Owned`, decided
//!   once per send at compile time) — a literal tuple in a send is
//!   computed side by side and
//!   sent from there, and the tuple itself is built only where `p` is
//!   used whole for anything else (passed to a function, stored,
//!   returned) — at that point, as any tuple is;
//! * `let`s that only rename an operand (`val iph : ip = #1 p`) bind at
//!   compile time and emit nothing;
//! * primitive calls are pre-resolved function pointers;
//! * constant subexpressions are folded;
//! * the checker's types select **typed instructions**: where both
//!   operands of an operator are `int`, `host`, `char` or `bool`
//!   (`ScalarTy`), the instruction reads them unwrapped — from an
//!   operand, as an immediate, as a scalar accessor (`udpDst(h)`,
//!   `blobLen(b)`: the signature table's `Access::Get`) applied to an
//!   operand in place, or as `thisHost()` asked of the environment — and
//!   computes on `i64`s: no call, no `Value` built to be taken apart
//!   again. A header-field setter (`Access::Set`) reads its header in
//!   place and its scalar the same way. `tblGet`/`tblHas`/`tblSet`/
//!   `tblDel` are table instructions that read the table in place and,
//!   where the key's type is a scalar or a tuple of up to three
//!   (`KeyShape`), the key as scalar operands made into an inline
//!   `Key` on the stack: a scalar key, a literal tuple, or a `let`-bound
//!   tuple whose every use is a key or a projection — that tuple is never
//!   built. Any other key is read as a value (`Key::of`). Everything
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
//! of (`scalar_binop`, `prims::get`, `prims::set`,
//! `prims::tbl_get` and its three siblings) — so a change to the
//! interpreter *is* a change to this tier.
//!
//! [`compile`] also reports [`CodegenStats`], the "code generation time"
//! metric of the paper's figure 3.

mod exec;
mod frame;
mod ins;
mod lower;

pub use frame::PacketFrame;

use crate::env::{packet_parts, NetEnv};
use crate::value::{Value, VmError};
use ins::{Ins, Reg};
use lower::{Cx, TblOp};
use planp_lang::ast::Name;
use planp_lang::tast::{ExnId, TExpr, TExprKind, TProgram};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

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
    pub name: Name,
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
    /// [`PacketFrame::load`] fed with the tuple's components, then
    /// [`PacketFrame::run`].
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
        let mut frame = self.frame();
        let fits = frame.load(idx, |regs| {
            let fits = regs.len() == parts.len();
            if fits {
                regs.clone_from_slice(parts);
            }
            fits
        });
        if !fits {
            return Err(VmError::trap(format!(
                "channel {idx} takes {} packet components, got {}",
                self.channels[idx].pkt.1,
                parts.len()
            )));
        }
        let (mut ps, mut ss) = (ps, ss);
        frame.run(globals, &mut ps, &mut ss, net)?;
        Ok((ps, ss))
    }

    /// A frame of this program with no packet in it yet: the register
    /// file, taken until the frame is dropped. A caller that tries one
    /// overload after another loads each into the same frame
    /// ([`PacketFrame::load`]), which never moves.
    #[inline]
    pub fn frame(&self) -> PacketFrame<'_> {
        PacketFrame {
            prog: self,
            idx: usize::MAX,
            regs: self.regs.take(),
        }
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

    /// Total steps charged by this program (the VM profiling step count;
    /// equal to the nodes the interpreter would have evaluated).
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// The site pool: every compiled node's site in the interpreter's
    /// charge order. [`NetEnv::charge_blocks`] hands out runs of it
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

#[cfg(test)]
mod tests;
