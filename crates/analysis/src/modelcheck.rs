//! Explicit-state safety model checker (paper section 2.1, the
//! `r·d·2^d` exploration made literal): the global-termination and
//! guaranteed-delivery analyses every download runs.
//!
//! Local termination holds by construction (no recursion, no unbounded
//! loops). Global termination is about packets cycling *through the
//! network*: every `OnRemote` is a recursive call on a remote machine.
//! The argument, following the paper: assume IP routing tables are
//! acyclic. Then a send that cannot change the packet's destination
//! makes progress — each hop strictly approaches the destination, and
//! on arrival the packet is delivered rather than re-forwarded. The
//! only way to loop forever is through sends that *change* the
//! destination, or `OnNeighbor` jumps, which restart processing at
//! another node. This module enumerates the states that argument
//! ranges over:
//!
//! * a **state** is (channel overload, abstract destination value,
//!   source-still-original), seeded with every channel receiving a
//!   fresh packet;
//! * a **transition** applies one send site's destination transfer:
//!   `Unchanged` keeps the state's value, `Const(a)` pins it, `OrigSrc`
//!   resolves to the original source *iff* the source field is provably
//!   untouched, anything else widens to `Unknown`;
//! * a transition is a **progress hop** iff it is an `OnRemote` whose
//!   concrete destination value cannot differ from the pre-state's
//!   (same constant, same original address, or literally unchanged) —
//!   tracking the *value* is what tells a send that re-asserts the same
//!   destination (`asps/relay_pin.planp`) from one that changes it;
//! * **termination is violated** iff the reachable state graph has a
//!   cycle containing a non-progress hop; **delivery** additionally
//!   requires that no channel body can end with an unhandled exception
//!   and that every execution path of every channel forwards
//!   (`OnRemote`/`OnNeighbor`) or delivers (`deliver`) the packet at
//!   least once — the program never silently drops it.
//!
//! The worklist, the state budget, the cycle test and the *minimal*
//! counterexample (shortest entry prefix plus shortest cycle) are the
//! shared explorer's (`explore.rs`); exceeding the budget yields
//! [`Verdict::Inconclusive`], which the [verifier](crate::verifier)
//! rejects. A violation carries a [`Witness`] for rendering (codes
//! `E005`/`E006`) and for concrete replay through the simulator.

use crate::explore::explore;
use crate::summary::{DestAbs, ProgramSummary, SendKind};
use crate::witness::{Witness, WitnessHop, WitnessKind};
use planp_lang::prims;
use planp_lang::span::Span;
use planp_lang::tast::{TExpr, TExprKind, TProgram};
use std::net::Ipv4Addr;

/// Cap on explored states, for programs and plans alike; the bundled
/// ASPs need well under a hundred, so it leaves room for generated
/// programs while bounding a hostile download's verification cost.
pub const DEFAULT_STATE_BUDGET: usize = 1 << 16;

/// Abstract value of the in-flight packet's destination field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DestVal {
    /// Still the destination the packet entered the network with.
    OrigDst,
    /// The packet's original source address (a fixed address).
    OrigSrc,
    /// A program constant.
    Const(u32),
    /// Not statically bounded.
    Unknown,
}

impl DestVal {
    /// Human rendering (`the original destination`, `10.0.0.2`, …).
    pub fn describe(self) -> String {
        match self {
            DestVal::OrigDst => "the original destination".to_string(),
            DestVal::OrigSrc => "the original source".to_string(),
            DestVal::Const(a) => Ipv4Addr::from(a).to_string(),
            DestVal::Unknown => "an unknown address".to_string(),
        }
    }
}

/// One explored state of the packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct State {
    /// Channel overload index the packet is dispatched on.
    pub channel: usize,
    /// Abstract destination of the arriving packet.
    pub dest: DestVal,
    /// True while the packet's IP source field provably still holds the
    /// original sender.
    pub src_orig: bool,
}

/// Verdict of one property under exhaustive checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds on every reachable state.
    Proved,
    /// A counterexample exists (see [`ModelCheckReport::witnesses`]).
    Violated,
    /// The state budget was exhausted before the exploration finished;
    /// the property is not proved and the verifier rejects.
    Inconclusive,
}

impl Verdict {
    /// Stable machine name (`proved`, `violated`, `inconclusive`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Violated => "violated",
            Verdict::Inconclusive => "inconclusive",
        }
    }

    /// True if the property was proved.
    pub fn is_proved(self) -> bool {
        self == Verdict::Proved
    }
}

/// What the exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Global-termination verdict.
    pub termination: Verdict,
    /// Guaranteed-delivery verdict.
    pub delivery: Verdict,
    /// States explored (the paper's `r·d·2^d`, reachable part only).
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// The state budget the exploration ran under.
    pub budget: usize,
    /// True if the budget stopped the exploration early.
    pub exhausted: bool,
    /// Counterexamples: at most one minimal `E005` loop witness, then
    /// one `E006` witness per droppable or exception-escaping channel.
    pub witnesses: Vec<Witness>,
}

impl ModelCheckReport {
    /// The termination (`E005`) witnesses.
    pub fn loop_witnesses(&self) -> impl Iterator<Item = &Witness> {
        self.witnesses.iter().filter(|w| w.code == "E005")
    }

    /// Appends the byte-stable JSON form to `out`: fixed key order
    /// `termination`, `delivery`, `states`, `transitions`, `budget`,
    /// `exhausted`, `witnesses`.
    pub fn write_json(&self, src: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"termination\":\"{}\",\"delivery\":\"{}\",\"states\":{},\"transitions\":{},\"budget\":{},\"exhausted\":{},\"witnesses\":[",
            self.termination.as_str(),
            self.delivery.as_str(),
            self.states,
            self.transitions,
            self.budget,
            self.exhausted
        );
        for (i, w) in self.witnesses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.write_json(src, out);
        }
        out.push_str("]}");
    }
}

/// Runs the exhaustive exploration over `prog`'s send sites under
/// [`DEFAULT_STATE_BUDGET`].
pub fn model_check(prog: &TProgram, sum: &ProgramSummary) -> ModelCheckReport {
    let chan_label = |c: usize| format!("{}#{}", prog.channels[c].name, prog.channels[c].overload);

    // Every channel can receive a fresh packet: destination untouched,
    // source untouched.
    let entries = (0..prog.channels.len()).map(|channel| State {
        channel,
        dest: DestVal::OrigDst,
        src_orig: true,
    });
    // An edge is labelled with the send site that fired.
    let graph = explore(entries, DEFAULT_STATE_BUDGET, 0, |s: State, out| {
        for (si, site) in sum.channels[s.channel].sites.iter().enumerate() {
            let dest2 = match site.pkt_dest {
                DestAbs::Unchanged => s.dest,
                DestAbs::OrigSrc => {
                    if s.src_orig {
                        DestVal::OrigSrc
                    } else {
                        DestVal::Unknown
                    }
                }
                DestAbs::Const(a) => DestVal::Const(a),
                DestAbs::Unknown => DestVal::Unknown,
            };
            // Progress: an OnRemote whose concrete destination value
            // cannot differ from the pre-state's. `Unchanged` keeps the
            // in-flight header even when its value is unknown; otherwise
            // the abstract values must agree and be a *fixed* address
            // (two Unknowns may be different concrete addresses).
            let progress = site.kind == SendKind::Remote
                && (site.pkt_dest == DestAbs::Unchanged
                    || (dest2 == s.dest && dest2 != DestVal::Unknown));
            let t = State {
                channel: site.target,
                dest: dest2,
                src_orig: site.src_orig && s.src_orig,
            };
            out.push((t, (s.channel, si), progress));
        }
    });

    let (termination, loop_witness) = graph.termination(
        "E005",
        |e| {
            let (chan, si) = e.label;
            let site = &sum.channels[chan].sites[si];
            WitnessHop {
                from: chan_label(chan),
                to: chan_label(site.target),
                kind: site.kind,
                dest: graph.states[e.to].dest.describe(),
                progress: e.progress,
                span: site.span,
            }
        },
        |head, cycle_len| {
            let head = graph.states[head];
            let label = chan_label(head.channel);
            let message = format!(
                "possible packet loop: {cycle_len} hop(s) return the packet to channel `{label}` with destination {} and no net progress",
                head.dest.describe()
            );
            (label, message)
        },
    );
    let mut witnesses: Vec<Witness> = loop_witness.into_iter().collect();

    // Delivery: a loop breaks it, and so does any droppable path or
    // escaping exception on a reachable channel (every channel is an
    // entry point, so these hold regardless of the budget).
    let mut definite_delivery_violation = false;
    for (c, s) in sum.channels.iter().enumerate() {
        let ch = &prog.channels[c];
        if !s.raises.is_empty() {
            let names: Vec<&str> = s.raises.iter().map(|&i| &*prog.exns[i as usize]).collect();
            definite_delivery_violation = true;
            witnesses.push(Witness {
                code: "E006",
                kind: WitnessKind::Exception,
                channel: chan_label(c),
                message: format!(
                    "channel `{}` may terminate with unhandled exception(s): {}",
                    ch.name,
                    names.join(", ")
                ),
                span: ch.span,
                hops: Vec::new(),
            });
        }
        if s.min_out == 0 {
            definite_delivery_violation = true;
            witnesses.push(Witness {
                code: "E006",
                kind: WitnessKind::Drop,
                channel: chan_label(c),
                message: format!(
                    "channel `{}` has an execution path that neither forwards nor delivers the packet",
                    ch.name
                ),
                span: find_drop_span(prog, c),
                hops: Vec::new(),
            });
        }
    }
    let delivery = if definite_delivery_violation {
        Verdict::Violated
    } else {
        termination
    };

    ModelCheckReport {
        termination,
        delivery,
        states: graph.states.len(),
        transitions: graph.edges.len(),
        budget: DEFAULT_STATE_BUDGET,
        exhausted: graph.exhausted,
        witnesses,
    }
}

/// True if `e` contains any network output (send or `deliver`),
/// including through called functions.
fn contains_output(e: &TExpr, fun_out: &[bool]) -> bool {
    let mut any = false;
    e.walk(&mut |x| match &x.kind {
        TExprKind::OnRemote { .. } | TExprKind::OnNeighbor { .. } => any = true,
        TExprKind::CallPrim { prim, .. } if prims::table().sig(*prim).name == "deliver" => {
            any = true
        }
        TExprKind::CallFun { index, .. }
            if fun_out.get(*index as usize).copied().unwrap_or(false) =>
        {
            any = true
        }
        _ => {}
    });
    any
}

/// Locates the branch arm responsible for a droppable path: the first
/// `if` whose one arm produces an output while the other produces none.
/// Falls back to the channel declaration span.
fn find_drop_span(prog: &TProgram, c: usize) -> Span {
    let mut fun_out = Vec::with_capacity(prog.funs.len());
    for f in &prog.funs {
        let o = contains_output(&f.body, &fun_out);
        fun_out.push(o);
    }
    let ch = &prog.channels[c];
    let mut found: Option<Span> = None;
    ch.body.walk(&mut |e| {
        if found.is_some() {
            return;
        }
        if let TExprKind::If(_, t, f) = &e.kind {
            let to = contains_output(t, &fun_out);
            let fo = contains_output(f, &fun_out);
            if to && !fo {
                found = Some(f.span);
            } else if fo && !to {
                found = Some(t.span);
            }
        }
    });
    found.unwrap_or(ch.span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use planp_lang::compile_front;

    fn run(src: &str) -> ModelCheckReport {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let sum = summarize(&tp);
        model_check(&tp, &sum)
    }

    #[test]
    fn plain_forwarding_proved() {
        let r = run(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        );
        assert!(r.termination.is_proved(), "{r:?}");
        assert!(r.delivery.is_proved(), "{r:?}");
        assert!(r.witnesses.is_empty());
        // One channel, entry state plus nothing new: the self-send
        // reproduces (network, OrigDst).
        assert_eq!(r.states, 1);
        assert_eq!(r.transitions, 1);
    }

    #[test]
    fn bounce_to_source_proved() {
        // dest := ipSrc(p) with the source untouched: the packet heads
        // to one fixed address (the original sender) and is delivered.
        let r = run(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p)); (ps, ss))",
        );
        assert!(r.termination.is_proved(), "{r:?}");
    }

    #[test]
    fn non_progress_hops_off_every_cycle_are_proved() {
        for src in [
            // The gateway redirects to a constant server; the `relay`
            // channel it targets only forwards unchanged.
            "channel relay(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
             (OnRemote(relay, p); (ps, ss))\n\
             channel network(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
             (OnRemote(relay, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))",
            // A neighbor jump into a channel that only delivers.
            "channel mon(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(mon, 10.0.0.3, p); (ps, ss))",
        ] {
            let r = run(src);
            assert!(r.termination.is_proved(), "{src}: {r:?}");
            assert!(r.delivery.is_proved(), "{src}: {r:?}");
        }
    }

    #[test]
    fn non_sending_channel_terminates_but_drops() {
        let r = run("channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)");
        assert!(r.termination.is_proved(), "{r:?}");
        assert_eq!(r.delivery, Verdict::Violated);
        assert_eq!(r.transitions, 0);
    }

    #[test]
    fn const_ping_pong_violated_with_minimal_witness() {
        let r = run("channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(b, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))\n\
             channel b(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(a, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))");
        assert_eq!(r.termination, Verdict::Violated);
        assert_eq!(r.delivery, Verdict::Violated);
        let w = r.loop_witnesses().next().expect("loop witness");
        let WitnessKind::Loop { cycle_start } = w.kind else {
            panic!("loop kind")
        };
        // Minimal: the entry state (a, original dest) is not on the
        // cycle — one prefix hop pins the destination, then the packet
        // ping-pongs between the two pinned states.
        assert_eq!(cycle_start, 1);
        assert_eq!(w.hops.len(), 3);
        assert_eq!(w.hops[0].from, "a#0");
        assert_eq!(w.hops[0].to, "b#0");
        assert_eq!(w.hops[1].from, "b#0");
        assert_eq!(w.hops[1].to, "a#0");
        assert_eq!(w.hops[1].dest, "10.0.0.1");
        assert_eq!(w.hops[2].to, "b#0");
        assert!(w.hops.iter().all(|h| !h.progress));
    }

    #[test]
    fn neighbor_self_loop_violated() {
        let r = run(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(network, 10.0.0.2, p); (ps, ss))",
        );
        assert_eq!(r.termination, Verdict::Violated);
        let w = r.loop_witnesses().next().unwrap();
        assert_eq!(w.hops.len(), 1);
        assert_eq!(w.hops[0].kind, SendKind::Neighbor);
    }

    #[test]
    fn silent_drop_gets_e006_with_branch_span() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             if ps > 0 then (OnRemote(network, p); (ps, ss)) else (ps, ss)";
        let r = run(src);
        assert!(r.termination.is_proved());
        assert_eq!(r.delivery, Verdict::Violated);
        let w = r.witnesses.iter().find(|w| w.code == "E006").unwrap();
        assert_eq!(w.kind, WitnessKind::Drop);
        // The witness anchors on the else arm, not the whole channel.
        let arm = &src[w.span.start as usize..w.span.end as usize];
        assert_eq!(arm, "(ps, ss)");
    }

    #[test]
    fn escaping_exception_gets_e006() {
        let r = run(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
             (print(tblGet(ss, ipSrc(#1 p))); OnRemote(network, p); (ps, ss))",
        );
        assert_eq!(r.delivery, Verdict::Violated);
        let w = r.witnesses.iter().find(|w| w.code == "E006").unwrap();
        assert_eq!(w.kind, WitnessKind::Exception);
        assert!(w.message.contains("NotFound"), "{}", w.message);
    }

    #[test]
    fn witness_json_is_byte_stable_across_runs() {
        let src = "channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(b, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))\n\
             channel b(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(a, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))";
        let render = || {
            let tp = compile_front(src).unwrap();
            let sum = summarize(&tp);
            let r = model_check(&tp, &sum);
            let mut out = String::new();
            r.write_json(src, &mut out);
            out
        };
        let a = render();
        let b = render();
        assert_eq!(a, b);
        assert!(a.contains("\"termination\":\"violated\""), "{a}");
    }
}
