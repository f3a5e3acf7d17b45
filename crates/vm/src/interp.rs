//! The **portable interpreter** for PLAN-P (paper section 2.2).
//!
//! This is the reference evaluator: a straightforward environment-passing
//! tree walker that resolves variables *by name* at run time, exactly the
//! style of interpreter the paper describes writing in C and then
//! specializing with Tempo. It is deliberately naive — the JIT in
//! [`crate::jit`] is its specialization, and the two are differential-
//! tested against each other.

use crate::env::{packet_parts, ChanRef, NetEnv, Outgoing};
use crate::ops::{eval_binop, eval_unop};
use crate::prims;
use crate::value::{Value, VmError};
use planp_lang::ast::{BinOp, Name};
use planp_lang::tast::{TExpr, TExprKind, TProgram};
use std::cell::Cell;

/// Name → value bindings, innermost last (looked up linearly, as a
/// portable C interpreter would).
#[derive(Debug, Default)]
pub struct NameEnv {
    bindings: Vec<(Name, Value)>,
}

impl NameEnv {
    /// An empty environment.
    pub fn new() -> Self {
        NameEnv {
            bindings: Vec::new(),
        }
    }

    /// Pushes a binding.
    pub fn push(&mut self, name: &Name, v: Value) {
        self.bindings.push((name.clone(), v));
    }

    /// Pops the innermost binding.
    pub fn pop(&mut self) {
        self.bindings.pop();
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }
}

/// The interpreter, borrowing the typed program it executes.
#[derive(Debug, Clone)]
pub struct Interp<'p> {
    prog: &'p TProgram,
    /// Expression nodes evaluated so far (the VM profiling step count).
    steps: Cell<u64>,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for `prog`.
    pub fn new(prog: &'p TProgram) -> Self {
        Interp {
            prog,
            steps: Cell::new(0),
        }
    }

    /// Total expression nodes evaluated by this interpreter instance.
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Evaluates the `val` globals in declaration order.
    ///
    /// # Errors
    ///
    /// Propagates any exception raised by an initializer (a load-time
    /// failure).
    pub fn eval_globals(&self, net: &mut dyn NetEnv) -> Result<Vec<Value>, VmError> {
        let mut globals = Vec::with_capacity(self.prog.globals.len());
        for g in &self.prog.globals {
            let mut names = NameEnv::new();
            let v = self.eval(&g.init, &globals, &mut names, net)?;
            globals.push(v);
        }
        Ok(globals)
    }

    /// Evaluates the initial protocol state.
    pub fn init_proto(&self, globals: &[Value], net: &mut dyn NetEnv) -> Result<Value, VmError> {
        match &self.prog.proto_init {
            Some(e) => {
                let mut names = NameEnv::new();
                self.eval(e, globals, &mut names, net)
            }
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
        let ch = &self.prog.channels[idx];
        match &ch.initstate {
            Some(e) => {
                let mut names = NameEnv::new();
                self.eval(e, globals, &mut names, net)
            }
            None => Ok(Value::default_of(&ch.ss_ty)),
        }
    }

    /// Runs channel `idx` on a packet, returning the new
    /// `(protocol state, channel state)` pair.
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
        let ch = &self.prog.channels[idx];
        let mut names = NameEnv::new();
        names.push(&ch.ps_name, ps);
        names.push(&ch.ss_name, ss);
        names.push(&ch.pkt_name, pkt);
        let before = self.steps.get();
        let out = self.eval(&ch.body, globals, &mut names, net);
        net.charge_steps(self.steps.get() - before);
        let out = out?;
        match out {
            Value::Tuple(pair) if pair.len() == 2 => Ok((pair[0].clone(), pair[1].clone())),
            other => Err(VmError::trap(format!(
                "channel body returned non-pair {other:?}"
            ))),
        }
    }

    /// Resolves a send's target by name, like every other name here.
    fn chan_ref<'a>(&self, chan: &'a str, overload: u32) -> Result<ChanRef<'a>, VmError> {
        let index = self
            .prog
            .channels
            .iter()
            .position(|c| &*c.name == chan && c.overload == overload)
            .ok_or_else(|| VmError::trap(format!("send to unknown channel `{chan}`#{overload}")))?;
        Ok(ChanRef {
            name: chan,
            index: index as u32,
            overload,
        })
    }

    /// Evaluates one expression.
    ///
    /// # Errors
    ///
    /// Returns raised exceptions ([`VmError::Exn`]) and internal traps.
    pub fn eval(
        &self,
        e: &TExpr,
        globals: &[Value],
        names: &mut NameEnv,
        net: &mut dyn NetEnv,
    ) -> Result<Value, VmError> {
        self.steps
            .set(self.steps.get() + crate::cost::STEPS_PER_NODE);
        net.charge_site(e.span.start, crate::cost::STEPS_PER_NODE);
        match &e.kind {
            TExprKind::Int(n) => Ok(Value::Int(*n)),
            TExprKind::Bool(b) => Ok(Value::Bool(*b)),
            TExprKind::Str(s) => Ok(Value::Str(s.as_str().into())),
            TExprKind::Char(c) => Ok(Value::Char(*c)),
            TExprKind::Unit => Ok(Value::Unit),
            TExprKind::Host(a) => Ok(Value::Host(*a)),
            TExprKind::Local { name, .. } => names
                .lookup(name)
                .cloned()
                .ok_or_else(|| VmError::trap(format!("unbound local `{name}`"))),
            TExprKind::Global { index, .. } => globals
                .get(*index as usize)
                .cloned()
                .ok_or_else(|| VmError::trap("global index out of range")),
            TExprKind::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, globals, names, net)?);
                }
                Ok(Value::tuple(out))
            }
            TExprKind::Proj(i, inner) => {
                let v = self.eval(inner, globals, names, net)?;
                match v {
                    Value::Tuple(items) => items
                        .get(*i as usize)
                        .cloned()
                        .ok_or_else(|| VmError::trap("projection out of range")),
                    other => Err(VmError::trap(format!("projection on {other:?}"))),
                }
            }
            TExprKind::CallFun { index, args } => {
                let f = &self.prog.funs[*index as usize];
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, globals, names, net)?);
                }
                let mut fresh = NameEnv::new();
                for ((pname, _), v) in f.params.iter().zip(vals) {
                    fresh.push(pname, v);
                }
                self.eval(&f.body, globals, &mut fresh, net)
            }
            TExprKind::CallPrim { prim, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, globals, names, net)?);
                }
                prims::eval(*prim, &vals, net)
            }
            TExprKind::If(c, t, f) => match self.eval(c, globals, names, net)? {
                Value::Bool(true) => self.eval(t, globals, names, net),
                Value::Bool(false) => self.eval(f, globals, names, net),
                other => Err(VmError::trap(format!("if condition {other:?}"))),
            },
            TExprKind::Let {
                name, init, body, ..
            } => {
                let v = self.eval(init, globals, names, net)?;
                names.push(name, v);
                let out = self.eval(body, globals, names, net);
                names.pop();
                out
            }
            TExprKind::Seq(items) => {
                let mut last = Value::Unit;
                for item in items {
                    last = self.eval(item, globals, names, net)?;
                }
                Ok(last)
            }
            TExprKind::Binop(op, a, b) => match op {
                BinOp::And => match self.eval(a, globals, names, net)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    Value::Bool(true) => self.eval(b, globals, names, net),
                    other => Err(VmError::trap(format!("andalso on {other:?}"))),
                },
                BinOp::Or => match self.eval(a, globals, names, net)? {
                    Value::Bool(true) => Ok(Value::Bool(true)),
                    Value::Bool(false) => self.eval(b, globals, names, net),
                    other => Err(VmError::trap(format!("orelse on {other:?}"))),
                },
                strict => {
                    let va = self.eval(a, globals, names, net)?;
                    let vb = self.eval(b, globals, names, net)?;
                    eval_binop(*strict, &va, &vb)
                }
            },
            TExprKind::Unop(op, a) => {
                let v = self.eval(a, globals, names, net)?;
                eval_unop(*op, &v)
            }
            TExprKind::Raise(id) => Err(VmError::Exn(*id)),
            TExprKind::Handle(body, pat, handler) => match self.eval(body, globals, names, net) {
                Err(VmError::Exn(id)) if pat.is_none() || *pat == Some(id) => {
                    self.eval(handler, globals, names, net)
                }
                other => other,
            },
            TExprKind::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, globals, names, net)?);
                }
                Ok(Value::List(std::rc::Rc::new(out)))
            }
            TExprKind::OnRemote {
                chan,
                overload,
                pkt,
            } => {
                let v = self.eval(pkt, globals, names, net)?;
                net.send_remote(
                    self.chan_ref(chan, *overload)?,
                    Outgoing::Shared(packet_parts(&v)?),
                );
                Ok(Value::Unit)
            }
            TExprKind::OnNeighbor {
                chan,
                overload,
                host,
                pkt,
            } => {
                let h = self.eval(host, globals, names, net)?;
                let Value::Host(h) = h else {
                    return Err(VmError::trap("OnNeighbor host not a host"));
                };
                let v = self.eval(pkt, globals, names, net)?;
                net.send_neighbor(
                    self.chan_ref(chan, *overload)?,
                    h,
                    Outgoing::Shared(packet_parts(&v)?),
                );
                Ok(Value::Unit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Effect, MockEnv};
    use crate::pkthdr::{addr, IpHdr, UdpHdr};
    use bytes::Bytes;
    use planp_lang::compile_front;

    fn setup(src: &str) -> TProgram {
        compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"))
    }

    fn udp_packet(src: u32, dst: u32, payload: &'static [u8]) -> Value {
        Value::tuple(vec![
            Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_UDP)),
            Value::Udp(UdpHdr::new(1000, 2000)),
            Value::Blob(Bytes::from_static(payload)),
        ])
    }

    #[test]
    fn runs_trivial_forwarder() {
        let prog = setup(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps + 1, ss))",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(addr(10, 0, 0, 1));
        let globals = interp.eval_globals(&mut env).unwrap();
        let pkt = udp_packet(addr(10, 0, 0, 2), addr(10, 0, 0, 3), b"x");
        let (ps, _ss) = interp
            .run_channel(0, &globals, Value::Int(0), Value::Unit, pkt, &mut env)
            .unwrap();
        assert_eq!(format!("{ps}"), "1");
        assert_eq!(env.remote_count(), 1);
    }

    #[test]
    fn globals_evaluate_in_order() {
        let prog = setup(
            "val a : int = 10\nval b : int = a * 4\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let globals = interp.eval_globals(&mut env).unwrap();
        assert_eq!(format!("{}", globals[1]), "40");
    }

    #[test]
    fn function_call_with_own_scope() {
        let prog = setup(
            "fun add3(x : int) : int = x + 3\n\
             channel network(ps : int, ss : unit, p : ip*udp*blob) is (add3(ps), ss)",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let (ps, _) = interp
            .run_channel(
                0,
                &[],
                Value::Int(10),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        assert_eq!(format!("{ps}"), "13");
    }

    #[test]
    fn handle_catches_matching_exception() {
        let prog = setup(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
             ((tblGet(ss, ipSrc(#1 p)) handle NotFound => 99, ss))",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let ss = Value::default_of(&prog.channels[0].ss_ty);
        let (ps, _) = interp
            .run_channel(0, &[], Value::Int(0), ss, udp_packet(1, 2, b""), &mut env)
            .unwrap();
        assert_eq!(format!("{ps}"), "99");
    }

    #[test]
    fn uncaught_exception_propagates() {
        let prog = setup(
            "exception Busy\n\
             channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if true then raise Busy else (ps, ss))",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let r = interp.run_channel(
            0,
            &[],
            Value::Int(0),
            Value::Unit,
            udp_packet(1, 2, b""),
            &mut env,
        );
        let busy = prog.exn_id("Busy").unwrap();
        match r {
            Err(VmError::Exn(id)) => assert_eq!(id, busy),
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn state_table_persists_across_invocations() {
        let prog = setup(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(4) is\n\
             let val n : int = tblGet(ss, ipSrc(#1 p)) handle NotFound => 0 in\n\
               (tblSet(ss, ipSrc(#1 p), n + 1); (n + 1, ss))\n\
             end",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let globals = interp.eval_globals(&mut env).unwrap();
        let mut ss = interp.init_channel_state(0, &globals, &mut env).unwrap();
        let mut ps = Value::Int(0);
        for expect in 1..=3 {
            let pkt = udp_packet(addr(9, 9, 9, 9), 2, b"");
            let (nps, nss) = interp
                .run_channel(0, &globals, ps, ss, pkt, &mut env)
                .unwrap();
            ps = nps;
            ss = nss;
            assert_eq!(format!("{ps}"), expect.to_string());
        }
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        // Division by zero on the right of `orelse true` must not raise.
        let prog = setup(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if true orelse (1 div 0 = 0) then (ps, ss) else (ps, ss))",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        assert!(interp
            .run_channel(
                0,
                &[],
                Value::Int(0),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env
            )
            .is_ok());
    }

    #[test]
    fn shadowing_resolves_innermost() {
        let prog = setup(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             let val x : int = 1 in\n\
               let val x : int = 2 in (ps + x, ss) end\n\
             end",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let (ps, _) = interp
            .run_channel(
                0,
                &[],
                Value::Int(0),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        assert_eq!(format!("{ps}"), "2");
    }

    #[test]
    fn proto_declaration_initializes_state() {
        let prog = setup(
            "proto 41
             channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        let globals = interp.eval_globals(&mut env).unwrap();
        let ps = interp.init_proto(&globals, &mut env).unwrap();
        assert_eq!(ps.display(), "41");
        // Default initialization when `proto` is absent.
        let prog = setup("channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)");
        let interp = Interp::new(&prog);
        let ps = interp.init_proto(&[], &mut env).unwrap();
        assert_eq!(ps.display(), "0");
    }

    #[test]
    fn steps_counted_and_charged_to_env() {
        let prog = setup("channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)");
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        interp
            .run_channel(
                0,
                &[],
                Value::Int(0),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        assert!(interp.steps() > 0);
        assert_eq!(env.steps, interp.steps());
        // A second invocation charges the same amount again.
        interp
            .run_channel(
                0,
                &[],
                Value::Int(1),
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        assert_eq!(env.steps, interp.steps());
        assert_eq!(env.steps % 2, 0);
        // Every aggregate step was also attributed to a site.
        let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, env.steps);
    }

    #[test]
    fn on_neighbor_effect_recorded() {
        let prog = setup(
            "channel mon(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(mon, 10.0.0.7, p); (ps, ss))",
        );
        let interp = Interp::new(&prog);
        let mut env = MockEnv::new(0);
        interp
            .run_channel(
                1,
                &[],
                Value::Unit,
                Value::Unit,
                udp_packet(1, 2, b""),
                &mut env,
            )
            .unwrap();
        let Effect::Neighbor { chan, host, .. } = &env.effects[0] else {
            panic!()
        };
        assert_eq!(chan, "mon");
        assert_eq!(*host, addr(10, 0, 0, 7));
    }
}
