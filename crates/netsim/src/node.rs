//! Nodes (hosts and routers), applications, the packet-hook extension
//! point the PLAN-P layer plugs into, and the [`NodeApi`] every one of
//! their callbacks is given.

use crate::digest::{self, Fnv};
use crate::link::{Link, LinkId, NodeId};
use crate::packet::Packet;
use crate::rng::SplitMix64;
use crate::sched::{PacketSlab, PktRef};
use crate::sim::Sim;
use crate::time::SimTime;
use planp_telemetry::{Category, DispatchOutcome, DropReason, FlightKind, Telemetry, TraceEvent};
use std::collections::VecDeque;
use std::hash::Hash;
use std::rc::Rc;
use std::time::Duration;

/// A single-server CPU model: arriving packets queue for a fixed
/// per-packet processing time before the node handles them. This is how
/// the gateway of section 3.2 becomes a *contention point* — the paper's
/// explanation for the cluster serving 85% of two servers' capacity.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Processing time charged to every (non-overheard) arriving packet.
    pub per_packet: Duration,
    /// Packets queued beyond this are dropped.
    pub queue_cap: usize,
}

/// A unicast route's next step: the link and the node across it.
pub(crate) type Hop = (LinkId, NodeId);

/// A simulated host or router.
pub struct Node {
    /// Human-readable name (for traces and diagnostics).
    pub name: String,
    /// The node's IPv4 address.
    pub addr: u32,
    /// True for routers: packets not addressed to this node are
    /// forwarded; hosts drop them.
    pub forwarding: bool,
    pub(crate) ifaces: Vec<LinkId>,
    /// Unicast route overrides ([`Sim::add_route`]): destination
    /// address → (link, next hop), consulted before the computed routes.
    #[allow(clippy::disallowed_types)] // iterated only to be sorted, for the digest
    pub(crate) routes: std::collections::HashMap<u32, Hop>,
    /// Multicast routes: group → outgoing links.
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/`entry`, never iterated
    pub(crate) mcast_routes: std::collections::HashMap<u32, Vec<LinkId>>,
    /// Multicast groups this node receives.
    #[allow(clippy::disallowed_types)] // lookup-only: `contains`/`insert`, never iterated
    pub(crate) subscriptions: std::collections::HashSet<u32>,
    pub(crate) apps: Vec<Option<Box<dyn App>>>,
    pub(crate) hook: Option<Box<dyn PacketHook>>,
    /// Bumped by every [`Node::set_hook`]. A hook is out of its slot
    /// while one of its callbacks runs; a number that moved meanwhile
    /// says the callback installed or removed a hook itself, and the
    /// slot is left as the callback set it.
    pub(crate) hook_gen: u64,
    pub(crate) rng: SplitMix64,
    pub(crate) cpu: Option<CpuModel>,
    /// True while the node is failed: it neither receives nor processes
    /// anything (used for fault-injection experiments).
    pub(crate) down: bool,
    /// Packets waiting for the CPU (never overheard ones) and the link
    /// each arrived on.
    pub(crate) cpu_queue: VecDeque<(PktRef, Option<LinkId>)>,
    pub(crate) cpu_busy: bool,
    /// Bumped on crash so CPU-completion events scheduled before the
    /// crash cannot touch work queued after the restart.
    pub(crate) cpu_epoch: u64,
    /// Packets dropped because the CPU queue overflowed.
    pub cpu_drops: u64,
    /// Packets deliberately shed here: admission control, brownout
    /// class shedding, and deadline-expired drops.
    pub shed: u64,
    /// Times this node was crashed by fault injection.
    pub crashes: u64,
    /// Times a crash discarded an installed packet hook (protocol-state
    /// loss).
    pub state_lost: u64,
    /// Packets delivered to local applications.
    pub delivered: u64,
    /// Packets dropped at this node (no route, TTL expired, not for us).
    pub dropped: u64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("addr", &crate::packet::addr_to_string(self.addr))
            .field("forwarding", &self.forwarding)
            .field("apps", &self.apps.len())
            .field("hooked", &self.hook.is_some())
            .field("delivered", &self.delivered)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Node {
    pub(crate) fn new(name: String, addr: u32, forwarding: bool, seed: u64) -> Self {
        Node {
            name,
            addr,
            forwarding,
            ifaces: Vec::new(),
            routes: Default::default(),
            mcast_routes: Default::default(),
            subscriptions: Default::default(),
            apps: Vec::new(),
            hook: None,
            hook_gen: 0,
            rng: SplitMix64::new(seed),
            cpu: None,
            down: false,
            cpu_queue: VecDeque::new(),
            cpu_busy: false,
            cpu_epoch: 0,
            cpu_drops: 0,
            shed: 0,
            crashes: 0,
            state_lost: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Feeds the node's unicast routes (`routes`, from
    /// [`Sim::unicast_routes`]), its multicast routes, counters, rng,
    /// CPU queue and `down` flag; its apps and hook feed their own
    /// state ([`App::digest`], [`PacketHook::digest`]).
    pub(crate) fn digest(&self, routes: Vec<(u32, Hop)>, slab: &PacketSlab, h: &mut Fnv) {
        (self.addr, self.forwarding, &self.ifaces).hash(h);
        digest::sorted(routes.into_iter(), h);
        digest::sorted(self.mcast_routes.iter(), h);
        digest::sorted(self.subscriptions.iter().map(|g| (g, ())), h);
        (
            self.apps.len(),
            self.hook.is_some(),
            self.hook_gen,
            self.rng,
        )
            .hash(h);
        let cpu = self.cpu.map(|c| (c.per_packet, c.queue_cap));
        (cpu, self.down, self.cpu_busy, self.cpu_epoch).hash(h);
        self.cpu_queue.len().hash(h);
        for (pkt, via) in &self.cpu_queue {
            via.hash(h);
            digest::packet(slab.get(*pkt), h);
        }
        (self.delivered, self.dropped, self.cpu_drops, self.shed).hash(h);
        (self.crashes, self.state_lost).hash(h);
    }

    /// Installs, replaces or (with `None`) removes the packet hook;
    /// returns the one that was installed.
    pub(crate) fn set_hook(
        &mut self,
        hook: Option<Box<dyn PacketHook>>,
    ) -> Option<Box<dyn PacketHook>> {
        self.hook_gen += 1;
        std::mem::replace(&mut self.hook, hook)
    }
}

/// How a packet reached the node.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalMeta {
    /// The link the packet arrived on (`None` for self-sends).
    pub via: Option<LinkId>,
    /// True if this node merely *overheard* the packet on a shared
    /// segment (it is addressed past us). Hooks see overheard traffic —
    /// that is how the MPEG client ASP captures a neighbor's video
    /// stream (section 3.3) — but normal processing ignores it.
    pub overheard: bool,
}

/// A local application running above the (extensible) network layer.
///
/// Applications drive the simulation through the [`NodeApi`] passed to
/// each callback: sending packets, setting timers, and recording
/// measurements.
pub trait App {
    /// Called once when the simulation starts.
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let _ = api;
    }

    /// Called for every packet delivered to this node.
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet);

    /// Called when a timer set via [`NodeApi::set_timer`] fires.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let _ = (api, key);
    }

    /// Called when the node comes back up after a fault-injected crash
    /// (see [`Sim::restart_node`](crate::Sim::restart_node)). Timers
    /// that fired while the node was down were swallowed, so periodic
    /// applications should re-arm here; management applications can
    /// start protocol recovery (e.g. re-deploying a lost ASP).
    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        let _ = api;
    }

    /// Feeds the state this application carries forward into `h`, for
    /// [`Sim::state_digest`](crate::Sim::state_digest). The default
    /// feeds nothing: the node digest still counts the app.
    fn digest(&self, h: &mut Fnv) {
        let _ = h;
    }
}

/// A hook's decision about an arriving packet.
#[derive(Debug)]
pub enum HookVerdict {
    /// The hook consumed the packet (its effects are already applied).
    Handled,
    /// The hook declined; normal IP processing continues with the
    /// returned packet (usually the original, possibly rewritten).
    Pass(Packet),
}

// Every hook returns one by value: `Pass` must ride in `Packet`'s niche
// (see the pin in `packet.rs` for the 128-byte inline-copy threshold).
const _: () = assert!(std::mem::size_of::<HookVerdict>() <= 112);

/// The extension point at the IP layer (figure 1 of the paper: the
/// "IP/PLAN-P" layer). The PLAN-P runtime installs an implementation of
/// this trait; native (built-in "C") baselines implement it directly in
/// Rust.
pub trait PacketHook {
    /// Inspects an arriving packet before normal IP processing.
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict;

    /// Called when a timer armed via [`NodeApi::set_hook_timer`] fires.
    /// This is how an installed protocol gets a clock: the PLAN-P layer
    /// turns these into synthetic timer-channel dispatches so ASPs can
    /// schedule retransmissions.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let _ = (api, key);
    }

    /// Feeds the state this hook carries forward into `h`, for
    /// [`Sim::state_digest`](crate::Sim::state_digest). The default
    /// feeds nothing: the node digest still says whether a hook is
    /// installed.
    fn digest(&self, h: &mut Fnv) {
        let _ = h;
    }
}

/// The API a node's applications and hooks use to act on the world.
///
/// Created by the simulator for the duration of one callback.
pub struct NodeApi<'a> {
    pub(crate) sim: &'a mut Sim,
    pub(crate) node: NodeId,
    pub(crate) app: Option<usize>,
}

impl<'a> NodeApi<'a> {
    /// The API for one callback at `node`, of application `app` or
    /// (with `None`) of the node's hook.
    pub(crate) fn new(sim: &'a mut Sim, node: NodeId, app: Option<usize>) -> Self {
        NodeApi { sim, node, app }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// This node's address.
    #[inline]
    pub fn addr(&self) -> u32 {
        self.sim.nodes[self.node.0].addr
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This node's name.
    pub fn node_name(&self) -> &str {
        &self.sim.nodes[self.node.0].name
    }

    /// The simulator's telemetry (event log and metrics registry), for
    /// hooks and applications that record their own counters or events.
    #[inline]
    pub fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.sim.telemetry
    }

    /// Emits a [`TraceEvent::Dispatch`] for this node (cheap no-op when
    /// the `dispatch` category is disabled).
    pub fn trace_dispatch(
        &mut self,
        pkt: &Packet,
        chan: Option<&Rc<str>>,
        outcome: DispatchOutcome,
    ) {
        let (sim, node) = (&mut *self.sim, self.node.0 as u32);
        sim.trace_pkt(Category::DISPATCH, pkt.lineage.sampled, |t_ns| {
            TraceEvent::Dispatch {
                t_ns,
                node,
                pkt: pkt.id,
                chan: chan.cloned(),
                outcome,
            }
        });
    }

    /// Emits a [`TraceEvent::Exception`] for this node (cheap no-op when
    /// the `exception` category is disabled).
    pub fn trace_exception(&mut self, pkt: &Packet, chan: &Rc<str>, exn: Rc<str>) {
        (self.sim).record_flight(self.node, FlightKind::Exception, pkt.id, 0);
        let (sim, node) = (&mut *self.sim, self.node.0 as u32);
        sim.trace_pkt(Category::EXCEPTION, pkt.lineage.sampled, |t_ns| {
            TraceEvent::Exception {
                t_ns,
                node,
                pkt: pkt.id,
                chan: chan.clone(),
                exn,
            }
        });
    }

    /// Emits a [`TraceEvent::VmRun`] attributing `steps` VM steps to
    /// the channel run dispatched on `pkt` (cheap no-op when the `vm`
    /// category is disabled).
    pub fn trace_vm_run(&mut self, pkt: &Packet, chan: &Rc<str>, steps: u64) {
        let (sim, node) = (&mut *self.sim, self.node.0 as u32);
        sim.trace_pkt(Category::VM, pkt.lineage.sampled, |t_ns| {
            TraceEvent::VmRun {
                t_ns,
                node,
                pkt: pkt.id,
                chan: chan.clone(),
                steps,
            }
        });
    }

    /// Sends a packet, routed by its destination address.
    pub fn send(&mut self, pkt: Packet) {
        self.sim.dispatch_send(self.node, pkt);
    }

    /// Sends a packet directly to a neighboring node (shared link),
    /// regardless of the packet's IP destination.
    pub fn send_to_neighbor(&mut self, neighbor_addr: u32, pkt: Packet) {
        self.sim.send_to_neighbor(self.node, neighbor_addr, pkt);
    }

    /// Delivers a packet to this node's local applications.
    pub fn deliver_local(&mut self, pkt: Packet) {
        self.sim.deliver_local(self.node, pkt);
    }

    /// Arms a timer for the calling application.
    ///
    /// # Panics
    ///
    /// Panics when called from a packet hook (hooks are packet-driven).
    pub fn set_timer(&mut self, delay: Duration, key: u64) {
        let app = self.app.expect("set_timer requires an application context");
        let at = self.sim.now + delay;
        self.sim.sched.timer(at, self.node, app, key);
    }

    /// Arms a timer for this node's packet hook;
    /// [`PacketHook::on_timer`] fires with `key`. Unlike
    /// [`set_timer`](Self::set_timer) this works from hook context —
    /// it is how an installed protocol schedules retransmissions.
    pub fn set_hook_timer(&mut self, delay: Duration, key: u64) {
        let at = self.sim.now + delay;
        self.sim.sched.hook_timer(at, self.node, key);
    }

    /// Assigns the packet a telemetry identity (rooting a span) as if
    /// it had entered a send path here. For synthetic packets the
    /// PLAN-P layer fabricates, such as timer dispatches.
    pub fn stamp(&mut self, pkt: &mut Packet) {
        self.sim.stamp(self.node, pkt);
    }

    /// Uniform integer in `0..bound`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.sim.nodes[self.node.0].rng.next_below(bound)
    }

    /// Subscribes this node to a multicast group.
    pub fn subscribe(&mut self, group: u32) {
        self.sim.nodes[self.node.0].subscriptions.insert(group);
    }

    /// Measured throughput (kb/s) of the outgoing link toward `dst` —
    /// everything on that medium, including competing traffic.
    pub fn measured_kbps_toward(&mut self, dst: u32) -> i64 {
        let now = self.sim.now;
        self.settled_link(dst).map_or(0, |l| l.measured_kbps(now))
    }

    /// Capacity (kb/s) of the outgoing link toward `dst`.
    pub fn capacity_kbps_toward(&mut self, dst: u32) -> i64 {
        let link = self.route_link(dst);
        link.map_or(0, |l| self.sim.links[l.0].spec.kbps as i64)
    }

    /// Queue length of the outgoing link toward `dst`.
    pub fn queue_len_toward(&mut self, dst: u32) -> i64 {
        self.settled_link(dst).map_or(0, |l| l.queue_len() as i64)
    }

    /// The outgoing link toward `dst`.
    fn route_link(&self, dst: u32) -> Option<LinkId> {
        let node = &self.sim.nodes[self.node.0];
        match self.sim.route(self.node, dst) {
            Some((l, _)) => Some(l),
            // Multicast groups route via the multicast table; fall back
            // to the first interface (hosts with one NIC).
            None => (node.mcast_routes.get(&dst))
                .and_then(|ls| ls.first())
                .or_else(|| node.ifaces.first())
                .copied(),
        }
    }

    /// The outgoing link toward `dst`, settled (see `datapath`).
    fn settled_link(&mut self, dst: u32) -> Option<&mut Link> {
        let l = self.route_link(dst)?;
        self.sim.settle(l);
        Some(&mut self.sim.links[l.0])
    }

    /// Records a measurement point under `name` at the current time.
    pub fn record(&mut self, name: &str, value: f64) {
        let t = self.sim.now.as_secs_f64();
        self.sim.series.record(name, t, value);
    }

    /// Installs (or replaces) this node's packet hook — the mechanism
    /// behind in-band program deployment: a management application
    /// receives a program over the network and activates it locally.
    pub fn install_hook(&mut self, hook: Box<dyn PacketHook>) {
        self.sim.nodes[self.node.0].set_hook(Some(hook));
    }

    /// Removes this node's packet hook, returning to standard IP
    /// processing.
    pub fn remove_hook(&mut self) {
        self.sim.nodes[self.node.0].set_hook(None);
    }

    /// Current occupancy of this node's CPU queue (0 without a CPU
    /// model) — the congestion signal admission control keys on.
    pub fn cpu_queue_len(&self) -> usize {
        self.sim.nodes[self.node.0].cpu_queue.len()
    }

    /// Capacity of this node's CPU queue (0 without a CPU model).
    pub fn cpu_queue_cap(&self) -> usize {
        self.sim.nodes[self.node.0].cpu.map_or(0, |c| c.queue_cap)
    }

    /// Counts and traces a node-level drop decided by a hook or
    /// application (admission shedding, deadline expiry): routes the
    /// count to the reason's bucket and keeps the node-drop accounting
    /// identity intact.
    pub fn node_drop(&mut self, pkt: &Packet, reason: DropReason) {
        self.sim.drop_at_node(self.node, pkt, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::packet::Packet;
    use crate::sim::tests::Source;
    use bytes::Bytes;
    use std::cell::RefCell;

    #[test]
    fn hook_timers_fire_via_set_hook_timer() {
        struct Ticker {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl PacketHook for Ticker {
            fn on_packet(
                &mut self,
                api: &mut NodeApi<'_>,
                pkt: Packet,
                _meta: &ArrivalMeta,
            ) -> HookVerdict {
                api.set_hook_timer(Duration::from_millis(10), 7);
                HookVerdict::Pass(pkt)
            }
            fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
                self.fired.borrow_mut().push(key);
                if self.fired.borrow().len() < 3 {
                    api.set_hook_timer(Duration::from_millis(10), key + 1);
                }
            }
        }
        let mut sim = Sim::new(8);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.install_hook(
            b,
            Box::new(Ticker {
                fired: fired.clone(),
            }),
        );
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*fired.borrow(), vec![7, 8, 9]);
    }

    #[test]
    fn measured_kbps_visible_from_api() {
        struct Probe {
            out: Rc<RefCell<i64>>,
            dst: u32,
        }
        impl App for Probe {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(Duration::from_millis(900), 0);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
                *self.out.borrow_mut() = api.measured_kbps_toward(self.dst);
            }
        }
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        // ~2 Mb/s of traffic.
        struct Pacer {
            dst: u32,
        }
        impl App for Pacer {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(Duration::from_millis(5), 0);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
                let pkt = Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from(vec![0u8; 1250]));
                api.send(pkt);
                api.set_timer(Duration::from_millis(5), 0);
            }
        }
        let reading = Rc::new(RefCell::new(0));
        sim.add_app(a, Box::new(Pacer { dst: 2 }));
        sim.add_app(
            a,
            Box::new(Probe {
                out: reading.clone(),
                dst: 2,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let r = *reading.borrow();
        assert!((1500..=2600).contains(&r), "measured {r} kb/s");
    }
}
