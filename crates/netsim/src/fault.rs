//! Seeded, schedule-driven fault injection, and the pipeline that
//! applies it.
//!
//! A [`FaultPlan`] is a list of timed fault actions — per-link Bernoulli
//! loss, payload corruption, duplication, extra-jitter reordering, link
//! down/up flaps, network partitions, and node crash/restart with
//! protocol-state loss. The plan is applied to a [`Sim`] before the
//! run; actions fire as ordinary simulation events, and every random
//! draw (loss coin flips, corrupted byte positions, jitter samples)
//! comes from a dedicated SplitMix64 stream seeded from the simulation
//! seed, so a run with the same seed and plan is bit-for-bit
//! reproducible and its telemetry byte-stable.
//!
//! Receiver-side impairments are evaluated per delivered copy in a fixed
//! order (partition → loss → corruption → duplication → jitter); a link
//! that is flapped down rejects packets at enqueue time. Fault-induced
//! losses are accounted separately from congestion drops: they increment
//! each link's `fault_drops` (and the engine-wide
//! [`Sim::total_link_drops`](crate::Sim)) but never `drops`, so
//! `total_link_drops == Σ drops + Σ fault_drops` always holds.
//!
//! This module also owns what the simulator keeps for it ([`Faults`]),
//! the six actions, the pipeline, and `Faults::quiet`: whether the
//! pipeline would touch a copy on a link, which decides where the
//! datapath elides a completion and merges a segment's copies.

use crate::digest::Fnv;
use crate::link::{Link, LinkId, NodeId};
use crate::rng::SplitMix64;
use crate::sched::PktRef;
use crate::sim::Sim;
use crate::time::SimTime;
use planp_telemetry::{Category, DropReason, FlightKind, TraceEvent};
use std::hash::Hash;
use std::rc::Rc;
use std::time::Duration;

/// Continuous impairments applied to every packet copy a link delivers.
///
/// All fields default to "off"; probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFaults {
    /// Bernoulli probability that a delivered copy is silently lost.
    pub loss: f64,
    /// Probability that one payload byte of a delivered copy is flipped.
    pub corrupt: f64,
    /// Probability that a delivered copy arrives twice.
    pub duplicate: f64,
    /// Mean of an exponential extra propagation delay, in milliseconds
    /// (`0` = no jitter). Large values reorder packets across the link.
    pub jitter_ms: f64,
}

impl LinkFaults {
    /// Impairments with only Bernoulli loss set.
    pub fn loss(p: f64) -> Self {
        LinkFaults {
            loss: p,
            ..LinkFaults::default()
        }
    }

    /// True when every impairment is off.
    pub fn is_clean(&self) -> bool {
        *self == LinkFaults::default()
    }
}

/// One fault action, applied at its scheduled time.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Replaces the link's continuous impairments.
    SetLinkFaults {
        /// Target link.
        link: LinkId,
        /// New impairment parameters (use the default to clear).
        faults: LinkFaults,
    },
    /// Takes the link down: packets offered to it are dropped at enqueue.
    LinkDown {
        /// Target link.
        link: LinkId,
    },
    /// Brings a downed link back up.
    LinkUp {
        /// Target link.
        link: LinkId,
    },
    /// Partitions the network: nodes in different groups cannot exchange
    /// packets (copies between them are dropped in flight). Nodes not
    /// listed in any group communicate freely.
    Partition {
        /// The partition's groups.
        groups: Vec<Vec<NodeId>>,
    },
    /// Heals any active partition.
    HealPartition,
    /// Crashes the node: it stops receiving, pending CPU work is lost,
    /// and its packet hook — the installed PLAN-P protocol, including
    /// all protocol state — is discarded (crash with state loss).
    CrashNode {
        /// Target node.
        node: NodeId,
    },
    /// Restarts a crashed node. Applications survive (they model the
    /// host's software stack) and get [`App::on_restart`](crate::App::on_restart)
    /// to re-arm timers and trigger recovery;
    /// the packet hook stays lost until something reinstalls it.
    RestartNode {
        /// Target node.
        node: NodeId,
    },
}

/// A fault action with its scheduled time.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A schedule of timed fault actions.
///
/// Build one with the fluent [`at`](FaultPlan::at) helper and hand it to
/// [`Sim::apply_fault_plan`](crate::Sim::apply_fault_plan) before (or
/// during) a run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled actions, in insertion order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `action` at `secs` seconds of simulated time.
    pub fn at(mut self, secs: f64, action: FaultAction) -> Self {
        self.events.push(FaultEvent {
            at: SimTime((secs * 1e9) as u64),
            action,
        });
        self
    }

    /// Convenience: sets Bernoulli loss `p` on `link` at `secs`.
    pub fn loss(self, secs: f64, link: LinkId, p: f64) -> Self {
        self.at(
            secs,
            FaultAction::SetLinkFaults {
                link,
                faults: LinkFaults::loss(p),
            },
        )
    }

    /// Convenience: crashes `node` at `crash_secs` and restarts it at
    /// `restart_secs`.
    pub fn crash_restart(self, crash_secs: f64, restart_secs: f64, node: NodeId) -> Self {
        self.at(crash_secs, FaultAction::CrashNode { node })
            .at(restart_secs, FaultAction::RestartNode { node })
    }
}

/// Aggregate fault-injection counters, kept by the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Copies lost to Bernoulli link loss.
    pub loss_drops: u64,
    /// Copies with a corrupted payload byte.
    pub corrupted: u64,
    /// Copies duplicated in flight.
    pub duplicated: u64,
    /// Copies delayed by extra jitter.
    pub jittered: u64,
    /// Packets dropped because the link was flapped down.
    pub link_down_drops: u64,
    /// Copies dropped by an active partition.
    pub partition_drops: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
}

/// The simulator's fault-injection state.
#[derive(Debug)]
pub struct Faults {
    /// Its own randomness, so faults never perturb a node's.
    pub(crate) rng: SplitMix64,
    /// Group id per node (`None` = unrestricted); empty when no
    /// partition is in force.
    pub(crate) partition: Vec<Option<u32>>,
    /// Set once any fault is configured: clean runs' snapshots keep
    /// their key set (no `sim.fault_*`).
    pub(crate) enabled: bool,
    /// Aggregate fault-injection counters.
    pub stats: FaultStats,
}

impl Faults {
    pub(crate) fn new(seed: u64) -> Self {
        Faults {
            rng: SplitMix64::new(seed ^ 0xFA01_7000_0000_0000),
            partition: Vec::new(),
            enabled: false,
            stats: FaultStats::default(),
        }
    }

    /// True when the pipeline would do nothing to a copy `link`
    /// delivers (and draw nothing from the rng).
    #[inline]
    pub(crate) fn quiet(&self, link: &Link) -> bool {
        self.partition.is_empty() && link.faults.is_clean()
    }

    /// Feeds the fault rng, the partition and the counters.
    pub(crate) fn digest(&self, h: &mut Fnv) {
        (self.rng, &self.partition, self.enabled).hash(h);
        let s = &self.stats;
        (s.loss_drops, s.corrupted, s.duplicated, s.jittered).hash(h);
        (s.link_down_drops, s.partition_drops, s.crashes, s.restarts).hash(h);
    }

    /// True when the partition in force separates `a` from `b`.
    fn blocks(&self, a: NodeId, b: NodeId) -> bool {
        let group = |n: NodeId| self.partition.get(n.0).copied().flatten();
        matches!((group(a), group(b)), (Some(x), Some(y)) if x != y)
    }
}

/// What a `fault` trace event says happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    LinkDown,
    LinkUp,
    /// A partition was put in force, or it dropped a copy.
    Partition,
    Heal,
    Crash,
    Restart,
    Loss,
    LinkDownDrop,
    Corrupt,
    Duplicate,
}

impl FaultKind {
    /// The trace event's `kind`, and the flight entry at the node
    /// touched (none for a lost copy: its drop is recorded).
    fn label_and_flight(self) -> (&'static str, Option<FlightKind>) {
        let fault = Some(FlightKind::Fault);
        match self {
            FaultKind::LinkDown => ("link_down", fault),
            FaultKind::LinkUp => ("link_up", fault),
            FaultKind::Partition => ("partition", None),
            FaultKind::Heal => ("heal", fault),
            FaultKind::Crash => ("crash", Some(FlightKind::Crash)),
            FaultKind::Restart => ("restart", Some(FlightKind::Restart)),
            FaultKind::Loss => ("loss", None),
            FaultKind::LinkDownDrop => ("link_down_drop", None),
            FaultKind::Corrupt => ("corrupt", fault),
            FaultKind::Duplicate => ("duplicate", fault),
        }
    }
}

/// What the receiver-side pipeline does to a copy it lets through:
/// extra delay, a payload byte to flip, a second arrival.
#[derive(Debug, Default)]
pub(crate) struct Impairment {
    pub(crate) jitter: Duration,
    pub(crate) corrupt_at: Option<usize>,
    pub(crate) duplicate: bool,
}

impl Sim {
    /// Schedules every action in `plan` as ordinary simulation events.
    /// Call any time (typically before the run); actions fire at their
    /// scheduled times in plan order. Time never runs backwards: an
    /// action dated before `now` fires at `now`.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.enabled = true;
        for ev in plan.events {
            self.sched.fault(ev.at.max(self.now), ev.action);
        }
    }

    pub(crate) fn apply_fault_action(&mut self, action: FaultAction) {
        match action {
            FaultAction::SetLinkFaults { link, faults } => self.set_link_faults(link, faults),
            FaultAction::LinkDown { link } => self.set_link_down(link, true),
            FaultAction::LinkUp { link } => self.set_link_down(link, false),
            FaultAction::Partition { groups } => self.set_partition(&groups),
            FaultAction::HealPartition => self.clear_partition(),
            FaultAction::CrashNode { node } => self.crash_node(node),
            FaultAction::RestartNode { node } => self.restart_node(node),
        }
    }

    /// Replaces `link`'s continuous impairments (loss, corruption,
    /// duplication, jitter), effective immediately.
    pub fn set_link_faults(&mut self, link: LinkId, faults: LinkFaults) {
        self.faults.enabled = true;
        self.links[link.0].faults = faults;
    }

    /// Flaps the link down (packets offered to it are dropped at
    /// enqueue; in-flight transmissions complete) or back up.
    pub(crate) fn set_link_down(&mut self, link: LinkId, down: bool) {
        self.faults.enabled = true;
        self.links[link.0].fault_down = down;
        let kind = [FaultKind::LinkUp, FaultKind::LinkDown][usize::from(down)];
        self.trace_fault(kind, None, Some(link), 0);
    }

    /// Partitions the network: packet copies between nodes in different
    /// groups are dropped in flight. Nodes not listed in any group keep
    /// talking to everyone. Replaces any previous partition.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>]) {
        self.faults.enabled = true;
        self.faults.partition = vec![None; self.nodes.len()];
        for (g, members) in groups.iter().enumerate() {
            for &n in members {
                self.faults.partition[n.0] = Some(g as u32);
            }
        }
        self.trace_fault(FaultKind::Partition, None, None, 0);
    }

    /// Heals any active partition.
    pub(crate) fn clear_partition(&mut self) {
        self.faults.partition.clear();
        self.trace_fault(FaultKind::Heal, None, None, 0);
    }

    /// Crashes the node: it stops receiving, pending CPU work is lost,
    /// and its packet hook — the installed protocol with all its state —
    /// is discarded. Applications survive (they model the host's
    /// software stack above the network layer) but their timers are
    /// swallowed while the node is down.
    pub fn crash_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0];
        n.down = true;
        n.crashes += 1;
        n.cpu_epoch += 1;
        n.cpu_busy = false;
        if n.set_hook(None).is_some() {
            n.state_lost += 1;
        }
        // The work the CPU had queued dies with the node.
        while let Some((pkt, _)) = self.nodes[node.0].cpu_queue.pop_front() {
            self.drop_at_rest(node, pkt, DropReason::NodeDown);
        }
        self.faults.stats.crashes += 1;
        self.trace_fault(FaultKind::Crash, Some(node), None, 0);
        // Freeze the node's post-mortem window — stamped with the
        // overload posture so the post-mortem shows what degradation
        // stage the cluster was in when the node died.
        let state = self.telemetry.overload.summary();
        self.telemetry
            .flight
            .dump_with_state(node.0 as u32, self.now.as_nanos(), "crash", &state);
    }

    /// Restarts a crashed node and gives every application an
    /// [`App::on_restart`](crate::App::on_restart) callback to re-arm
    /// timers and start protocol recovery. The packet hook stays lost
    /// until something reinstalls it (e.g. in-band redeployment).
    pub fn restart_node(&mut self, node: NodeId) {
        self.nodes[node.0].down = false;
        self.faults.stats.restarts += 1;
        self.trace_fault(FaultKind::Restart, Some(node), None, 0);
        for app in 0..self.nodes[node.0].apps.len() {
            self.with_app(node, app, |a, api| a.on_restart(api));
        }
    }

    /// The receiver-side pipeline for the copy of `pkt` that `from` put
    /// on `link` for `to`, in the order of the module doc. `None` when
    /// the copy is lost, accounted already.
    pub(crate) fn impair_copy(
        &mut self,
        link: LinkId,
        from: NodeId,
        to: NodeId,
        pkt: PktRef,
    ) -> Option<Impairment> {
        let mut hit = Impairment::default();
        if self.faults.quiet(&self.links[link.0]) {
            return Some(hit);
        }
        let faults = self.links[link.0].faults;
        let pkt = self.sched.packets.get(pkt);
        let (pid, sampled, len) = (pkt.id, pkt.lineage.sampled, pkt.payload.len());
        let lost = if self.faults.blocks(from, to) {
            self.faults.stats.partition_drops += 1;
            Some((DropReason::Partitioned, FaultKind::Partition))
        } else if faults.loss > 0.0 && self.faults.rng.next_f64() < faults.loss {
            self.faults.stats.loss_drops += 1;
            Some((DropReason::FaultLoss, FaultKind::Loss))
        } else {
            None
        };
        if let Some((reason, kind)) = lost {
            self.fault_copy_drop(link, to, pid, sampled, reason, kind);
            return None;
        }
        if faults.corrupt > 0.0 && self.faults.rng.next_f64() < faults.corrupt && len > 0 {
            hit.corrupt_at = Some(self.faults.rng.next_below(len as u64) as usize);
            self.faults.stats.corrupted += 1;
            self.trace_fault(FaultKind::Corrupt, Some(to), Some(link), pid);
        }
        if faults.duplicate > 0.0 && self.faults.rng.next_f64() < faults.duplicate {
            hit.duplicate = true;
            self.faults.stats.duplicated += 1;
            self.trace_fault(FaultKind::Duplicate, Some(to), Some(link), pid);
        }
        if faults.jitter_ms > 0.0 {
            let ms = self.faults.rng.next_exp(faults.jitter_ms);
            hit.jitter = Duration::from_nanos((ms * 1e6) as u64);
            self.faults.stats.jittered += 1;
        }
        Some(hit)
    }

    /// Accounts one copy a fault took: `fault_drops` (never `drops`),
    /// the total, and a drop and a fault event at the node `at`.
    pub(crate) fn fault_copy_drop(
        &mut self,
        link: LinkId,
        at: NodeId,
        pkt: u64,
        sampled: bool,
        reason: DropReason,
        kind: FaultKind,
    ) {
        self.links[link.0].fault_drops += 1;
        self.total_link_drops += 1;
        self.trace_node_drop(at, pkt, sampled, reason);
        self.trace_fault(kind, Some(at), Some(link), pkt);
    }

    pub(crate) fn trace_fault(
        &mut self,
        kind: FaultKind,
        node: Option<NodeId>,
        link: Option<LinkId>,
        pkt: u64,
    ) {
        let (label, flight) = kind.label_and_flight();
        // The flight recorder is always on.
        if let (Some(n), Some(fk)) = (node, flight) {
            self.record_flight(n, fk, pkt, 0);
        }
        if self.telemetry.trace.wants(Category::FAULT) {
            self.telemetry.trace.push(TraceEvent::Fault {
                t_ns: self.now.as_nanos(),
                kind: Rc::from(label),
                node: node.map(|n| n.0 as u32),
                link: link.map(|l| l.0 as u32),
                pkt,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::{App, ArrivalMeta, HookVerdict, PacketHook};
    use crate::packet::{addr, Packet};
    use crate::sim::tests::{two_hosts_one_router, Sink, Source};
    use crate::NodeApi;
    use bytes::Bytes;
    use std::cell::RefCell;

    #[test]
    fn plan_builder_orders_and_converts() {
        let plan = FaultPlan::new()
            .loss(1.5, LinkId(0), 0.1)
            .crash_restart(2.0, 3.0, NodeId(4));
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[0].at, SimTime::from_ms(1500));
        assert!(matches!(
            plan.events[0].action,
            FaultAction::SetLinkFaults { link: LinkId(0), faults } if faults.loss == 0.1
        ));
        assert!(matches!(
            plan.events[2].action,
            FaultAction::RestartNode { node: NodeId(4) }
        ));
    }

    #[test]
    fn clean_default() {
        assert!(LinkFaults::default().is_clean());
        assert!(!LinkFaults::loss(0.01).is_clean());
    }

    #[test]
    fn failed_node_drops_and_revives() {
        let (mut sim, a, r, b) = two_hosts_one_router();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 3,
                size: 50,
            }),
        );
        sim.apply_fault_plan(FaultPlan::new().crash_restart(0.0, 0.1, r));
        sim.run_until(SimTime::from_ms(100));
        assert_eq!(got.borrow().len(), 0, "router down: nothing arrives");
        assert_eq!(sim.node(r).dropped, 3);
        assert!(!sim.node(r).down, "restarted at 100 ms");
        // Send again.
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 2,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_ms(200));
        assert_eq!(got.borrow().len(), 2);
    }

    #[test]
    fn bernoulli_loss_drops_and_accounts_separately() {
        let mut sim = Sim::new(3);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let l = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        sim.set_link_faults(l, LinkFaults::loss(0.5));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 200,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        let delivered = sim.node(b).delivered;
        let lost = sim.faults.stats.loss_drops;
        let congestion = sim.link(l).drops;
        // The 200-packet burst overflows the 64-packet queue, so both
        // congestion and fault losses occur — and stay separate.
        assert_eq!(delivered + lost + congestion, 200);
        assert!(lost > 10, "lost {lost}");
        assert!(congestion > 0);
        assert_eq!(sim.link(l).fault_drops, lost);
        assert_eq!(sim.total_link_drops, congestion + lost);
    }

    #[test]
    fn duplication_delivers_copies() {
        let mut sim = Sim::new(4);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let l = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        sim.set_link_faults(
            l,
            LinkFaults {
                duplicate: 1.0,
                ..Default::default()
            },
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 5,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 10);
        assert_eq!(sim.faults.stats.duplicated, 5);
    }

    #[test]
    fn corruption_flips_payload_bytes() {
        let mut sim = Sim::new(5);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let l = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        sim.set_link_faults(
            l,
            LinkFaults {
                corrupt: 1.0,
                ..Default::default()
            },
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 3,
                size: 64,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 3);
        assert_eq!(sim.faults.stats.corrupted, 3);
        for p in got.borrow().iter() {
            assert!(
                p.payload.iter().any(|&b| b != 0),
                "payload should have a flipped byte"
            );
        }
    }

    #[test]
    fn link_flap_drops_then_recovers() {
        let mut sim = Sim::new(6);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let l = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        sim.apply_fault_plan(
            FaultPlan::new()
                .at(0.0, FaultAction::LinkDown { link: l })
                .at(0.5, FaultAction::LinkUp { link: l }),
        );
        struct Pacer {
            dst: u32,
        }
        impl App for Pacer {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(Duration::from_millis(100), 0);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
                let pkt = Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from(vec![0u8; 100]));
                api.send(pkt);
                api.set_timer(Duration::from_millis(100), 0);
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(a, Box::new(Pacer { dst: 2 }));
        sim.run_until(SimTime::from_secs(1));
        // Sends at 0.1..0.5s are dropped at the downed link; later ones pass.
        assert!(sim.faults.stats.link_down_drops >= 3);
        assert!(!got.borrow().is_empty());
        assert_eq!(
            sim.total_link_drops,
            sim.link(l).drops + sim.link(l).fault_drops
        );
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut sim = Sim::new(7);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let c = sim.add_host("c", 3);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b, c]);
        sim.compute_routes();
        sim.set_partition(&[vec![a], vec![b]]);
        let got_b = Rc::new(RefCell::new(Vec::new()));
        let got_c = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got_b.clone() }));
        sim.add_app(c, Box::new(Sink { got: got_c.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 2,
                size: 10,
            }),
        );
        sim.add_app(
            a,
            Box::new(Source {
                dst: 3,
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        // a → b crosses the partition; a → c is unrestricted (c unlisted).
        assert_eq!(got_b.borrow().len(), 0);
        assert_eq!(got_c.borrow().len(), 2);
        assert!(sim.faults.stats.partition_drops >= 2);
        sim.clear_partition();
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(got_b.borrow().len(), 1);
    }

    #[test]
    fn crash_loses_hook_state_and_restart_notifies_apps() {
        struct Tag;
        impl PacketHook for Tag {
            fn on_packet(
                &mut self,
                _api: &mut NodeApi<'_>,
                pkt: Packet,
                _meta: &ArrivalMeta,
            ) -> HookVerdict {
                HookVerdict::Pass(pkt)
            }
        }
        struct Reviver {
            restarted: Rc<RefCell<u32>>,
        }
        impl App for Reviver {
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            fn on_restart(&mut self, api: &mut NodeApi<'_>) {
                *self.restarted.borrow_mut() += 1;
                api.install_hook(Box::new(Tag));
            }
        }
        let (mut sim, a, r, b) = two_hosts_one_router();
        sim.install_hook(r, Box::new(Tag));
        let restarted = Rc::new(RefCell::new(0));
        sim.add_app(
            r,
            Box::new(Reviver {
                restarted: restarted.clone(),
            }),
        );
        sim.apply_fault_plan(FaultPlan::new().crash_restart(0.1, 0.3, r));
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.run_until(SimTime::from_ms(200));
        assert!(sim.node(r).down);
        assert_eq!(sim.node(r).crashes, 1);
        assert_eq!(sim.node(r).state_lost, 1, "hook state must be lost");
        assert!(sim.node(r).hook.is_none());
        sim.run_until(SimTime::from_ms(400));
        assert!(!sim.node(r).down);
        assert_eq!(*restarted.borrow(), 1);
        assert!(sim.node(r).hook.is_some(), "on_restart reinstalled hook");
        // Traffic flows again after the restart.
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 2,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 2);
        assert_eq!(sim.faults.stats.crashes, 1);
        assert_eq!(sim.faults.stats.restarts, 1);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = |seed: u64| -> (u64, u64, u64) {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a", 1);
            let b = sim.add_host("b", 2);
            let l = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
            sim.compute_routes();
            sim.set_link_faults(
                l,
                LinkFaults {
                    loss: 0.2,
                    corrupt: 0.1,
                    duplicate: 0.1,
                    jitter_ms: 2.0,
                },
            );
            sim.add_app(
                a,
                Box::new(Source {
                    dst: 2,
                    n: 100,
                    size: 200,
                }),
            );
            sim.run_until(SimTime::from_secs(5));
            (
                sim.node(b).delivered,
                sim.faults.stats.loss_drops,
                sim.faults.stats.corrupted,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
