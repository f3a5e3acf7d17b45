//! Static per-packet cost bounds.
//!
//! The paper's resource argument (section 2.1) is qualitative: no
//! recursion and no unbounded loops, therefore bounded per-packet work.
//! Local termination actually buys more than that — it makes the
//! worst-case cost *computable* by structural induction over the typed
//! AST. This module computes, for every channel overload, an upper bound
//! on
//!
//! * the VM **steps** one packet can cost (the same step-charging model
//!   the engines report through `NetEnv::charge_steps`; see
//!   [`planp_vm::cost`]), and
//! * the number of **send sites** (`OnRemote`/`OnNeighbor`) one packet
//!   can execute.
//!
//! Every node on a path charges [`STEPS_PER_NODE`] and a send node is
//! one send; the crate's `paths` module composes those over the worst
//! path (sequence adds, `if` takes the worse arm, `handle` adds body
//! and handler, a call adds the callee's bound).
//!
//! The bound is sound for both engines: the interpreter charges exactly
//! one step per node on the executed path (branches and short-circuit
//! operators only skip nodes), and the JIT charges exactly the same —
//! a basic block at a time, folded constants and fused instructions
//! charging every node they stand for — so the two engines' step
//! counts are byte-identical. The
//! runtime layer cross-checks this claim on every dispatch (the
//! `cost_bound_exceeded` counter), and the soundness test suite asserts
//! the counter stays zero across all traced scenarios.

use crate::paths::{is_send, program_bounds, Bound};
use planp_lang::ast::Name;
use planp_lang::tast::TProgram;
use planp_vm::cost::STEPS_PER_NODE;
use std::fmt;

/// Worst-case per-packet cost of one channel or function body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBound {
    /// Upper bound on VM steps charged per invocation.
    pub steps: u64,
    /// Upper bound on executed send sites (`OnRemote` + `OnNeighbor`)
    /// per invocation.
    pub sends: u64,
}

impl Bound for CostBound {
    fn then(self, other: CostBound) -> CostBound {
        CostBound {
            steps: self.steps.saturating_add(other.steps),
            sends: self.sends.saturating_add(other.sends),
        }
    }

    /// Component-wise maximum (a sound upper bound even when the
    /// step-heaviest and send-heaviest paths differ).
    fn or(self, other: CostBound) -> CostBound {
        CostBound {
            steps: self.steps.max(other.steps),
            sends: self.sends.max(other.sends),
        }
    }
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<= {} steps, <= {} send(s)", self.steps, self.sends)
    }
}

/// The bound of one channel overload.
#[derive(Debug, Clone)]
pub struct ChannelCost {
    /// Channel name.
    pub name: Name,
    /// Overload index within the name group.
    pub overload: u32,
    /// Worst-case per-packet cost of the body.
    pub bound: CostBound,
}

/// Cost bounds for a whole program.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    /// Per-function bounds, parallel to `TProgram::funs`.
    pub funs: Vec<CostBound>,
    /// Per-channel bounds, parallel to `TProgram::channels`.
    pub channels: Vec<ChannelCost>,
}

impl CostReport {
    /// The worst per-packet step bound over all channels (0 when the
    /// program has no channels).
    pub fn max_steps(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.bound.steps)
            .max()
            .unwrap_or(0)
    }

    /// The bound of the channel at `index` in `TProgram::channels`.
    pub fn bound_for(&self, index: usize) -> CostBound {
        self.channels
            .get(index)
            .map(|c| c.bound)
            .unwrap_or_default()
    }
}

/// Computes worst-case per-packet cost bounds for every function and
/// channel of `prog`.
pub fn cost_bounds(prog: &TProgram) -> CostReport {
    let (funs, channels) = program_bounds(prog, |e| CostBound {
        steps: STEPS_PER_NODE,
        sends: is_send(&e.kind) as u64,
    });
    let channels = prog
        .channels
        .iter()
        .zip(channels)
        .map(|(ch, bound)| ChannelCost {
            name: ch.name.clone(),
            overload: ch.overload,
            bound,
        })
        .collect();
    CostReport { funs, channels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;
    use planp_vm::env::MockEnv;
    use planp_vm::interp::Interp;
    use planp_vm::pkthdr::{addr, IpHdr, UdpHdr};
    use planp_vm::value::Value;

    fn bounds(src: &str) -> (TProgram, CostReport) {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let report = cost_bounds(&tp);
        (tp, report)
    }

    fn udp_packet() -> Value {
        Value::tuple(vec![
            Value::Ip(IpHdr::new(
                addr(10, 0, 0, 2),
                addr(10, 0, 1, 1),
                IpHdr::PROTO_UDP,
            )),
            Value::Udp(UdpHdr::new(1000, 2000)),
            Value::Blob(bytes::Bytes::from_static(b"abcd")),
        ])
    }

    /// Runs channel 0 under the interpreter and returns observed
    /// (steps, sends).
    fn observe(tp: &TProgram, ps: Value) -> (u64, u64) {
        let interp = Interp::new(tp);
        let mut env = MockEnv::new(addr(10, 0, 0, 1));
        let globals = interp.eval_globals(&mut env).unwrap();
        env.steps = 0;
        interp
            .run_channel(0, &globals, ps, Value::Unit, udp_packet(), &mut env)
            .unwrap();
        let sends = env
            .effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    planp_vm::env::Effect::Remote { .. } | planp_vm::env::Effect::Neighbor { .. }
                )
            })
            .count() as u64;
        (env.steps, sends)
    }

    #[test]
    fn straight_line_bound_is_exact() {
        // No branches: the interpreter visits every node, so the bound
        // is tight.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps + 1, ss))";
        let (tp, report) = bounds(src);
        let b = report.bound_for(0);
        let (steps, sends) = observe(&tp, Value::Int(0));
        assert_eq!(b.steps, steps, "structural count equals executed nodes");
        assert_eq!(b.sends, 1);
        assert_eq!(sends, 1);
    }

    #[test]
    fn branch_takes_worst_arm() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   if ps > 0 then (OnRemote(network, p); (ps, ss))\n\
                   else (OnRemote(network, p); OnRemote(network, p); (ps, ss))";
        let (tp, report) = bounds(src);
        let b = report.bound_for(0);
        assert_eq!(b.sends, 2, "worst arm executes two sends");
        for ps in [Value::Int(0), Value::Int(1)] {
            let (steps, sends) = observe(&tp, ps);
            assert!(steps <= b.steps, "observed {steps} > bound {}", b.steps);
            assert!(sends <= b.sends);
        }
    }

    #[test]
    fn handle_sums_body_and_handler() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((ps div 0, ss) handle Div => (0, ss))";
        let (tp, report) = bounds(src);
        let b = report.bound_for(0);
        let (steps, _) = observe(&tp, Value::Int(1));
        assert!(steps <= b.steps, "raise+handle path within bound");
    }

    #[test]
    fn function_calls_add_callee_bound() {
        let src = "fun double(x : int) : int = x + x\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (double(double(ps)), ss))";
        let (tp, report) = bounds(src);
        // Two calls, each costing the callee bound on top of the call
        // node and argument.
        assert!(report.funs[0].steps > 0);
        let (steps, _) = observe(&tp, Value::Int(3));
        assert_eq!(
            report.bound_for(0).steps,
            steps,
            "straight-line with calls is exact"
        );
    }

    #[test]
    fn report_max_and_names() {
        let src = "channel relay(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
                   channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(relay, p); (ps, ss))";
        let (_, report) = bounds(src);
        assert_eq!(report.channels.len(), 2);
        assert_eq!(&*report.channels[0].name, "relay");
        assert_eq!(&*report.channels[1].name, "network");
        assert_eq!(
            report.max_steps(),
            report.bound_for(1).steps,
            "network body is the heavier channel"
        );
        assert_eq!(report.bound_for(99), CostBound::default());
    }
}
