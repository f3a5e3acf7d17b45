//! Counterexample replay: runs an ASP's predicted violation as
//! concrete packets through the simulator.
//!
//! The [model checker](planp_analysis::modelcheck) emits witnesses
//! describing *abstract* packet journeys — loops, drops, escaping
//! exceptions. This module closes the loop on those predictions: the
//! ASP is installed (as an authenticated download, since it is by
//! hypothesis unsafe) on both routers of a fixed two-router path,
//!
//! ```text
//! ha (10.0.0.1) — r1 (10.0.0.254) — r2 (10.0.3.254) — hb (10.0.3.1)
//! ```
//!
//! a small burst of UDP traffic is sent `ha → hb`, and the routers'
//! dispatch counters are compared against what each witness kind
//! predicts:
//!
//! * a **loop** witness is confirmed when the routers dispatch each
//!   packet many times over (the bounce only ends when TTL expires);
//! * a **drop** witness is confirmed when nothing reaches `hb` and the
//!   routers counted intentional drops;
//! * an **exception** witness is confirmed when channel executions
//!   failed with an uncaught exception.

use crate::layer::{install_planp, LayerConfig};
use crate::loader::{load, LoadError};
use bytes::Bytes;
use netsim::packet::Packet;
use netsim::{App, NodeApi, Sim, SimTime, TopoSpec};
use planp_analysis::{Policy, WitnessKind};
use planp_telemetry::{Category, TraceConfig, TraceForest};
use std::cell::RefCell;
use std::rc::Rc;

/// Number of probe packets the replay sends.
pub const REPLAY_PACKETS: u64 = 4;

/// When router dispatches reach this multiple of the packets sent, the
/// traffic demonstrably looped (a loop-free path dispatches each packet
/// at most twice: once per router).
pub const LOOP_FACTOR: u64 = 4;

/// What happened when the ASP's traffic ran through the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayReport {
    /// Probe packets sent from `ha`.
    pub sent: u64,
    /// Channel dispatches summed over both routers.
    pub dispatches: u64,
    /// Probe packets that arrived at `hb`.
    pub delivered: u64,
    /// Intentional drops summed over both routers.
    pub dropped: u64,
    /// Failed channel executions (uncaught exception / trap) summed
    /// over both routers.
    pub errors: u64,
    /// Dispatches reached [`LOOP_FACTOR`] × sent — the packets looped.
    pub confirmed_loop: bool,
    /// Nothing was delivered and the routers recorded intentional
    /// drops.
    pub confirmed_drop: bool,
    /// At least one channel execution died with an exception.
    pub confirmed_exception: bool,
}

impl ReplayReport {
    /// True if the replay exhibited the violation `kind` predicts.
    pub fn confirms(&self, kind: &WitnessKind) -> bool {
        match kind {
            WitnessKind::Loop { .. } => self.confirmed_loop,
            WitnessKind::Drop => self.confirmed_drop,
            WitnessKind::Exception => self.confirmed_exception,
        }
    }
}

struct Probe {
    dst: u32,
}

impl App for Probe {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for i in 0..REPLAY_PACKETS {
            let pkt = Packet::udp(
                api.addr(),
                self.dst,
                1000,
                2000,
                Bytes::from(vec![i as u8; 32]),
            );
            api.send(pkt);
        }
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

struct Count {
    got: Rc<RefCell<u64>>,
}

impl App for Count {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        *self.got.borrow_mut() += 1;
    }
}

/// Loads `source` as an authenticated download, installs it on both
/// routers of the two-router path, replays the probe burst, and reports
/// what the simulated network observed.
pub fn replay_asp(source: &str) -> Result<ReplayReport, LoadError> {
    replay_asp_traced(source).map(|(report, _)| report)
}

/// Like [`replay_asp`], but also returns the probe packets' causal
/// span trees rendered as ASCII — so a confirmed witness can be
/// *inspected*, not just counted: a loop shows up as a deep chain of
/// router-to-router spans, a drop as a root with no delivery, an
/// exception as a span with no children.
pub fn replay_asp_traced(source: &str) -> Result<(ReplayReport, String), LoadError> {
    let image = load(source, Policy::authenticated())?;

    let mut sim = Sim::new(7);
    sim.telemetry.trace.configure(TraceConfig {
        categories: Category::SPAN
            .union(Category::VM)
            .union(Category::LINK)
            .union(Category::DELIVER)
            .union(Category::DROP),
        ..TraceConfig::default()
    });
    // The registry's `relay_pair`: the structure the witness was found on.
    let topo = TopoSpec::relay_pair();
    let ids = topo.build(&mut sim);
    let (ha, hb) = topo.paths[0];

    // `load` compiled the image; what can still fail is an initializer
    // that raises when the node evaluates it.
    let handles = topo
        .slice("relays")
        .into_iter()
        .map(|r| install_planp(&mut sim, ids[r], &image, LayerConfig::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(LoadError::Install)?;

    let got = Rc::new(RefCell::new(0u64));
    sim.add_app(ids[hb], Box::new(Count { got: got.clone() }));
    sim.add_app(
        ids[ha],
        Box::new(Probe {
            dst: topo.nodes[hb].addr,
        }),
    );
    sim.run_until(SimTime::from_secs(5));

    let (mut dispatches, mut dropped, mut errors) = (0, 0, 0);
    for h in &handles {
        let s = h.stats(&sim.telemetry);
        dispatches += s.matched;
        dropped += s.dropped;
        errors += s.errors;
    }
    let delivered = *got.borrow();
    let forest = TraceForest::from_log(&sim.telemetry.trace);
    let tree = forest.render(&sim.telemetry.nodes);
    Ok((
        ReplayReport {
            sent: REPLAY_PACKETS,
            dispatches,
            delivered,
            dropped,
            errors,
            confirmed_loop: dispatches >= LOOP_FACTOR * REPLAY_PACKETS,
            confirmed_drop: delivered == 0 && dropped > 0,
            confirmed_exception: errors > 0,
        },
        tree,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_forwarder_confirms_nothing() {
        let r = replay_asp(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        )
        .unwrap();
        assert_eq!(r.delivered, REPLAY_PACKETS, "{r:?}");
        // One dispatch per router per packet: no loop.
        assert_eq!(r.dispatches, 2 * REPLAY_PACKETS);
        assert!(!r.confirmed_loop && !r.confirmed_drop && !r.confirmed_exception);
    }

    #[test]
    fn bounce_between_routers_confirms_loop() {
        // Each router redirects the packet at the *other* router: the
        // packet ping-pongs on the middle link until its TTL dies.
        let r = replay_asp(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             if thisHost() = 10.0.0.254\n\
             then (OnRemote(network, (ipDestSet(#1 p, 10.0.3.254), #2 p, #3 p)); (ps, ss))\n\
             else (OnRemote(network, (ipDestSet(#1 p, 10.0.0.254), #2 p, #3 p)); (ps, ss))",
        )
        .unwrap();
        assert!(r.confirmed_loop, "{r:?}");
        assert!(r.confirms(&WitnessKind::Loop { cycle_start: 0 }));
    }

    #[test]
    fn filter_confirms_drop() {
        let r = replay_asp("channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)")
            .unwrap();
        assert_eq!(r.delivered, 0, "{r:?}");
        assert!(r.confirmed_drop, "{r:?}");
        assert!(r.confirms(&WitnessKind::Drop));
    }

    #[test]
    fn traced_replay_renders_probe_span_trees() {
        let (r, tree) = replay_asp_traced(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        )
        .unwrap();
        assert_eq!(r.delivered, REPLAY_PACKETS);
        // One span tree per probe packet, rooted at the `ha` ingress.
        let forests = tree.matches("trace ").count();
        assert_eq!(forests as u64, REPLAY_PACKETS, "{tree}");
        assert!(tree.contains("@ha"), "{tree}");
        // Each probe re-emission hops through both routers.
        assert!(tree.contains("@r1") && tree.contains("@r2"), "{tree}");
        assert!(tree.contains("remote"), "{tree}");
    }

    #[test]
    fn an_initializer_that_raises_is_an_error_not_a_panic() {
        // Accepted by every static check; `Div` is raised when a router
        // evaluates the global at install.
        let err = replay_asp(
            "val zero : int = 0
             val bad : int = 1 div zero
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is
             (OnRemote(network, p); (ps, ss))",
        )
        .unwrap_err();
        assert!(matches!(err, LoadError::Install(_)), "{err}");
        assert!(err.to_string().starts_with("program failed to install: "));
    }

    #[test]
    fn escaping_exception_confirms_exception() {
        let r = replay_asp(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
             (print(tblGet(ss, ipSrc(#1 p))); OnRemote(network, p); (ps, ss))",
        )
        .unwrap();
        assert!(r.confirmed_exception, "{r:?}");
        assert!(r.confirms(&WitnessKind::Exception));
    }
}
