//! Execution: the `match` loop, and its step and site accounting.
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
//! buffered run of pool positions for the whole slice — when it leaves
//! the straight line: at a taken jump, a return, or before a call (the
//! callee charges its own blocks in between). The buffered runs go to
//! [`NetEnv::charge_blocks`] together when the run ends (or when the
//! buffer fills). An instruction that
//! raises charges up to its own range's end instead, which is exactly
//! what the interpreter had charged when the same node raised. Totals,
//! per-site sums and charge *order* are therefore identical to the
//! interpreter's on normal, `handle`d and uncaught-exception paths
//! alike (pinned by the differential tests).

use super::ins::{Ins, KeyOp, Parts, Scalar, Src};
use super::{CompiledProgram, Unit};
use crate::cost::STEPS_PER_NODE;
use crate::env::{packet_parts, ChanRef, NetEnv, Outgoing};
use crate::ops::{eval_binop, holds, scalar_binop, scalar_unop};
use crate::prims;
use crate::value::{Key, Value, VmError};
use std::rc::Rc;

/// Block charges a run buffers before it hands them to the environment
/// (a run that continues the last one merges into it, so a channel body
/// seldom fills more than a few).
const BLOCKS: usize = 8;

/// The state of one run: everything but the register file, which is
/// passed down frame by frame.
struct Vm<'a> {
    prog: &'a CompiledProgram,
    globals: &'a [Value],
    net: &'a mut dyn NetEnv,
    steps: u64,
    /// The run's block charges not yet handed over, as `(first pool
    /// position, length)`; a run that continues the last is merged
    /// into it.
    blocks: [(u32, u32); BLOCKS],
    nblocks: usize,
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
            match self
                .nblocks
                .checked_sub(1)
                .map(|last| &mut self.blocks[last])
            {
                Some((first, len)) if *first + *len == start => *len += end - start,
                _ => {
                    if self.nblocks == BLOCKS {
                        self.flush();
                    }
                    self.blocks[self.nblocks] = (start, end - start);
                    self.nblocks += 1;
                }
            }
        }
    }

    /// Hands the buffered block charges to the environment.
    fn flush(&mut self) {
        if self.nblocks > 0 {
            (self.net).charge_blocks(&self.prog.sites, &self.blocks[..self.nblocks]);
            self.nblocks = 0;
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
                            Parts::Regs { at, len } => {
                                Outgoing::Shared(&frame[*at as usize..(*at + *len) as usize])
                            }
                            Parts::Take { at, len } => {
                                Outgoing::Owned(&mut frame[*at as usize..(*at + *len) as usize])
                            }
                            Parts::Tuple(s) => Outgoing::Shared(tri!(packet_parts(rd!(s)))),
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

impl CompiledProgram {
    /// Runs `unit` in `regs`; returns the outcome and the steps charged.
    #[inline]
    pub(super) fn exec(
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
            blocks: [(0, 0); BLOCKS],
            nblocks: 0,
        };
        let out = vm.exec(unit, regs);
        vm.flush();
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
}
