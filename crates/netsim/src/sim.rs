//! The discrete-event simulation engine: the clock, the event queue and
//! the fabric of nodes and links.
//!
//! Deterministic: events are ordered by `(time, sequence number)`, and
//! all randomness flows from the seed given to [`Sim::new`]. What a
//! node does with a packet is in `ip`, what a link does in `datapath`;
//! the fault pipeline is in [`fault`](crate::fault), the measurements
//! and the SLO monitor in [`instrument`](crate::instrument).

use crate::fault::Faults;
use crate::instrument::Instruments;
use crate::link::{Link, LinkId, LinkSpec, NodeId};
use crate::node::{App, Hop, Node, NodeApi, PacketHook};
use crate::rng::Seedless;
use crate::sched::{EvKind, Scheduler};
use crate::stats::SeriesStore;
use crate::time::SimTime;
use crate::topo::{adjacency, NextHops};
use planp_telemetry::{Category, FlightEvent, FlightKind, Histogram, Telemetry, TraceEvent};

/// The simulator: nodes, links, the event queue, and measurement series.
pub struct Sim {
    pub(crate) now: SimTime,
    /// Where the running `run_until` / `run_to_idle` stops. A
    /// completion is elided only if it falls at or before it, so none
    /// is in flight while a caller can change faults or tracing.
    pub(crate) horizon: SimTime,
    /// The event queue and the packets its events refer to.
    pub(crate) sched: Scheduler,
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    /// Which node owns an address: the one hash probe of a routed hop.
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/`insert`, iterated only sorted
    pub(crate) addr_map: std::collections::HashMap<u32, NodeId, Seedless>,
    /// Unicast routes over the graph [`Sim::compute_routes`] froze.
    pub(crate) routes: NextHops,
    /// The link of each entry of `routes`' adjacency.
    pub(crate) route_links: Vec<LinkId>,
    /// Named measurement series recorded during the run.
    pub series: SeriesStore,
    pub(crate) started: bool,
    seed: u64,
    /// Total packets dropped at link queues (convenience aggregate).
    pub total_link_drops: u64,
    /// Total packets dropped at nodes (convenience aggregate covering
    /// `dropped` + `cpu_drops` + `shed` across every node).
    pub total_node_drops: u64,
    /// Structured event log and metrics registry. Trace categories are
    /// off by default; enable with `telemetry.trace.configure(..)`.
    pub telemetry: Telemetry,
    /// Last assigned packet id (ids start at 1; 0 = unassigned).
    pub(crate) next_pkt_id: u64,
    /// Sequence number of the event being processed; `(now, now_seq)`
    /// is the key an elided completion is compared against. `u64::MAX`
    /// once `run_until` has fired every event at `now`. Declared apart
    /// from `now` on purpose: side by side, the run loop copies both
    /// with one 16-byte load across the two 8-byte stores that wrote
    /// them, which cannot be store-forwarded — a stall per event.
    pub(crate) now_seq: u64,
    /// Logical events so far: those popped from the queue, the elided
    /// completions settled, and the arrivals that travelled with
    /// another copy's event.
    pub(crate) events_processed: u64,
    /// Of `events_processed`, those that were never queued.
    pub(crate) events_elided: u64,
    /// Fault rng, partition in force and counters.
    pub faults: Faults,
    /// Hop latency, queue depths and the live SLO monitor.
    pub instruments: Instruments,
}

impl Sim {
    /// A fresh simulator with the given randomness seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            horizon: SimTime::ZERO,
            sched: Scheduler::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            addr_map: Default::default(),
            routes: NextHops::default(),
            route_links: Vec::new(),
            series: SeriesStore::default(),
            started: false,
            seed,
            total_link_drops: 0,
            total_node_drops: 0,
            telemetry: Telemetry::default(),
            next_pkt_id: 0,
            now_seq: u64::MAX,
            events_processed: 0,
            events_elided: 0,
            faults: Faults::new(seed),
            instruments: Instruments::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a host (non-forwarding node).
    pub fn add_host(&mut self, name: &str, addr: u32) -> NodeId {
        self.add_node_inner(name, addr, false)
    }

    /// Adds a router (forwarding node).
    pub fn add_router(&mut self, name: &str, addr: u32) -> NodeId {
        self.add_node_inner(name, addr, true)
    }

    fn add_node_inner(&mut self, name: &str, addr: u32, forwarding: bool) -> NodeId {
        assert!(
            !self.addr_map.contains_key(&addr),
            "duplicate node address {}",
            crate::packet::addr_to_string(addr)
        );
        // Events and trace records carry node and link ids as `u32`.
        assert!(self.nodes.len() < u32::MAX as usize, "too many nodes");
        let id = NodeId(self.nodes.len());
        let seed = self.seed ^ (0xA5A5_0000_0000_0000 | id.0 as u64);
        self.nodes
            .push(Node::new(name.to_string(), addr, forwarding, seed));
        self.telemetry.nodes.push(name.to_string());
        self.addr_map.insert(addr, id);
        id
    }

    /// Connects two or more nodes with a link; more than two nodes makes
    /// a shared broadcast segment.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two nodes are given.
    pub fn add_link(&mut self, spec: LinkSpec, nodes: &[NodeId]) -> LinkId {
        assert!(nodes.len() >= 2, "a link needs at least two endpoints");
        assert!(self.links.len() < u32::MAX as usize, "too many links");
        let id = LinkId(self.links.len());
        self.links.push(Link::new(spec, nodes.to_vec()));
        self.instruments.link_qdepth.push(Histogram::new());
        for &n in nodes {
            self.nodes[n.0].ifaces.push(id);
        }
        id
    }

    /// Freezes the node/link graph as it stands for shortest-path
    /// (hop-count) unicast routing by [`NextHops`]'s rule; a
    /// destination's routes are worked out at its first lookup. Call
    /// after the topology is complete: a link added later changes no
    /// route.
    pub fn compute_routes(&mut self) {
        let links = self.links.iter().map(|l| &l.nodes[..]);
        let adj = adjacency(self.nodes.len(), links, |n: NodeId| n.0);
        let pairs = (0..self.nodes.len()).flat_map(|a| adj[a].iter().map(move |&b| (a, b)));
        let first_link = |(a, b)| self.common_link(NodeId(a), NodeId(b)).expect("linked");
        self.route_links = pairs.map(first_link).collect();
        self.routes = NextHops::new(adj);
    }

    /// The unicast route at `node` toward `dst`: the link and the next
    /// hop. An [`add_route`](Sim::add_route) override comes first.
    #[inline]
    pub(crate) fn route(&self, node: NodeId, dst: u32) -> Option<Hop> {
        if let Some(&hop) = self.nodes[node.0].routes.get(&dst) {
            return Some(hop);
        }
        let to = self.addr_map.get(&dst)?;
        let (next, entry) = self.routes.hop(node.0, to.0)?;
        Some((self.route_links[entry], NodeId(next)))
    }

    /// Every unicast route at `node`, one per destination address, in
    /// no order: each [`add_route`](Sim::add_route) override, and the
    /// route toward each other node the frozen graph reaches from it.
    pub(crate) fn unicast_routes(&self, node: NodeId) -> Vec<(u32, Hop)> {
        let overrides = &self.nodes[node.0].routes;
        let others = (self.nodes.iter()).filter(|d| !overrides.contains_key(&d.addr));
        (overrides.iter().map(|(&a, &hop)| (a, hop)))
            .chain(others.filter_map(|d| Some((d.addr, self.route(node, d.addr)?))))
            .collect()
    }

    /// Adds an explicit route: at `node`, packets for `dst_addr` go
    /// toward the directly connected `toward` node.
    ///
    /// # Panics
    ///
    /// Panics if the nodes do not share a link.
    pub fn add_route(&mut self, node: NodeId, dst_addr: u32, toward: NodeId) {
        let link = self
            .common_link(node, toward)
            .expect("add_route: nodes are not directly connected");
        self.nodes[node.0].routes.insert(dst_addr, (link, toward));
    }

    /// Subscribes a node to a multicast group.
    pub fn subscribe(&mut self, node: NodeId, group: u32) {
        self.nodes[node.0].subscriptions.insert(group);
    }

    /// Adds a multicast route: at `node`, packets for `group` are
    /// forwarded on `link`.
    pub fn add_mcast_route(&mut self, node: NodeId, group: u32, link: LinkId) {
        self.nodes[node.0]
            .mcast_routes
            .entry(group)
            .or_default()
            .push(link);
    }

    /// Installs an application on a node; returns its index. An app
    /// added after the simulation has started is started immediately.
    pub fn add_app(&mut self, node: NodeId, app: Box<dyn App>) -> usize {
        let idx = self.nodes[node.0].apps.len();
        self.nodes[node.0].apps.push(Some(app));
        if self.started {
            self.with_app(node, idx, |a, api| a.on_start(api));
        }
        idx
    }

    /// Installs (or replaces) the node's packet hook — the PLAN-P layer
    /// or a native baseline.
    pub fn install_hook(&mut self, node: NodeId, hook: Box<dyn PacketHook>) {
        self.nodes[node.0].set_hook(Some(hook));
    }

    /// Gives the node a CPU model: every non-overheard arriving packet
    /// queues for `per_packet` of processing before the node handles it.
    pub fn set_cpu(&mut self, node: NodeId, cpu: crate::node::CpuModel) {
        self.nodes[node.0].cpu = Some(cpu);
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// All links, in id order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// The node owning `addr`, if any.
    pub fn node_by_addr(&self, addr: u32) -> Option<NodeId> {
        self.addr_map.get(&addr).copied()
    }

    /// Runs until simulated time `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: SimTime) {
        self.horizon = t;
        self.ensure_started();
        while let Some(ev) = self.sched.pop_due(t) {
            (self.now, self.now_seq) = (ev.at, ev.seq);
            self.process(ev.kind);
            self.monitor_tick();
        }
        (self.now, self.now_seq) = (self.now.max(t), u64::MAX);
        self.settle_all();
        self.monitor_tick();
    }

    /// Runs the next event due at or before `t`, if there is one, and
    /// returns what it was; `None` leaves the simulation as it is. Unlike
    /// [`Sim::run_until`], nothing is settled after the event, so two
    /// runs stepped alike can be compared event by event (what
    /// [`crate::diverge`] does once it has narrowed a divergence to one
    /// instant).
    pub fn step_until(&mut self, t: SimTime) -> Option<String> {
        self.ensure_started();
        let ev = self.sched.pop_due(t)?;
        let what = self.describe(&ev.kind);
        (self.now, self.now_seq) = (ev.at, ev.seq);
        self.process(ev.kind);
        self.monitor_tick();
        Some(format!("t={} ns: {what}", ev.at.as_nanos()))
    }

    fn describe(&self, kind: &EvKind) -> String {
        let name = |n: u32| &self.nodes[n as usize].name;
        match kind {
            EvKind::Arrive { node, via, .. } => match via {
                Some(l) => format!("arrival at {} over link {l}", name(*node)),
                None => format!("arrival at {}", name(*node)),
            },
            EvKind::ArriveAll { link, from, .. } => {
                format!("arrival over link {link} from {}", name(*from))
            }
            EvKind::TxDone { link } => format!("transmission done on link {link}"),
            EvKind::Timer { node, app, key } => {
                format!("timer {key} of app {app} on {}", name(*node))
            }
            EvKind::HookTimer { node, key } => format!("hook timer {key} on {}", name(*node)),
            EvKind::CpuDone { node, .. } => format!("CPU done on {}", name(*node)),
            EvKind::Fault(action) => format!("fault {action:?}"),
        }
    }

    /// Drains every remaining event (use with care — load generators that
    /// re-arm forever will never drain) and returns how many it ran. The
    /// count is logical, like `sim.events_processed`: a completion that
    /// was never queued is counted when it is settled, and the copies of
    /// one transmission on an N-node segment arrive as one event, so a
    /// run stopped by `max_events` may overshoot it by the completions
    /// its last event settled plus at most N−2 arrivals — a cut cannot
    /// fall between the copies of one transmission. A transmission then
    /// in flight has its arrival scheduled already: faults set before
    /// the next call miss it.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.horizon = SimTime(u64::MAX);
        self.ensure_started();
        let start = self.events_processed;
        while self.events_processed - start < max_events {
            let Some(ev) = self.sched.pop_due(SimTime(u64::MAX)) else {
                break;
            };
            (self.now, self.now_seq) = (ev.at, ev.seq);
            self.process(ev.kind);
            self.monitor_tick();
        }
        self.horizon = self.now;
        self.settle_all();
        self.events_processed - start
    }

    /// Packets at rest between nodes right now: queued on a link, being
    /// transmitted, in flight toward a node, or waiting for a node's
    /// CPU. The copies of one transmission on a shared segment count as
    /// one until they arrive (they share a slot; a copy is made when a
    /// node receives it). Zero once the simulation has drained.
    pub fn packets_at_rest(&self) -> usize {
        self.sched.packets.live()
    }

    /// How many of `sim.events_processed` never entered the event queue
    /// (see `datapath`): completions of uncontended point-to-point
    /// transmissions, and every copy but the first of a transmission
    /// whose copies arrived as one event. A cost figure, not behaviour:
    /// no key of [`Sim::metrics_snapshot`].
    pub fn events_elided(&self) -> u64 {
        self.events_elided
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.nodes.len() {
            for app in 0..self.nodes[node].apps.len() {
                self.with_app(NodeId(node), app, |a, api| a.on_start(api));
            }
        }
    }

    fn process(&mut self, kind: EvKind) {
        self.events_processed += 1;
        match kind {
            EvKind::Arrive {
                node,
                pkt,
                via,
                overheard,
            } => self.arrive(
                NodeId(node as usize),
                pkt,
                via.map(|l| LinkId(l as usize)),
                overheard,
            ),
            EvKind::ArriveAll {
                link,
                pkt,
                from,
                to,
            } => self.arrive_all(
                LinkId(link as usize),
                pkt,
                NodeId(from as usize),
                to.map(|n| NodeId(n as usize)),
            ),
            EvKind::CpuDone { node, epoch } => self.cpu_done(NodeId(node as usize), epoch),
            EvKind::TxDone { link } => self.tx_done(LinkId(link as usize)),
            EvKind::Fault(action) => {
                self.sched.fault_fired();
                self.apply_fault_action(*action)
            }
            EvKind::HookTimer { node, key } => {
                let node = NodeId(node as usize);
                if self.nodes[node.0].down {
                    return;
                }
                if let Some((mut hook, gen)) = self.take_hook(node) {
                    let mut api = NodeApi::new(self, node, None);
                    hook.on_timer(&mut api, key);
                    self.restore_hook(node, hook, gen);
                }
            }
            EvKind::Timer { node, app, key } => {
                let (node, app) = (NodeId(node as usize), app as usize);
                if self.nodes[node.0].down {
                    return;
                }
                if self.telemetry.trace.wants(Category::TIMER) {
                    self.telemetry.trace.push(TraceEvent::TimerFire {
                        t_ns: self.now.as_nanos(),
                        node: node.0 as u32,
                        app: app as u32,
                        key,
                    });
                }
                self.with_app(node, app, |a, api| a.on_timer(api, key));
            }
        }
    }

    /// Runs one callback of `node`'s app `app` out of its slot, with a
    /// [`NodeApi`]; an empty slot (its callback is running) does nothing.
    pub(crate) fn with_app(
        &mut self,
        node: NodeId,
        app: usize,
        f: impl FnOnce(&mut dyn App, &mut NodeApi<'_>),
    ) {
        let Some(mut a) = self.nodes[node.0].apps[app].take() else {
            return;
        };
        let mut api = NodeApi::new(self, node, Some(app));
        f(&mut *a, &mut api);
        self.nodes[node.0].apps[app] = Some(a);
    }

    /// Takes `node`'s hook out of its slot for the length of one of its
    /// callbacks, with the number [`Sim::restore_hook`] wants back.
    #[inline]
    pub(crate) fn take_hook(&mut self, node: NodeId) -> Option<(Box<dyn PacketHook>, u64)> {
        let n = &mut self.nodes[node.0];
        Some((n.hook.take()?, n.hook_gen))
    }

    /// Puts `hook` back after its callback — unless the callback
    /// installed or removed a hook on its own node (in-band
    /// redeployment, an uninstall): then the slot already says what the
    /// callback wanted and the old hook is dropped. Forced inline: out
    /// of line (the compiler's choice, for the drop) it is a call per
    /// dispatch, and `relay_grid` read 1% lower in 8 of 8 runs.
    #[inline(always)]
    pub(crate) fn restore_hook(&mut self, node: NodeId, hook: Box<dyn PacketHook>, gen: u64) {
        let n = &mut self.nodes[node.0];
        if n.hook_gen == gen {
            n.hook = Some(hook);
        }
    }

    /// Pushes the event `ev` builds from the time if the log keeps `cat`.
    #[inline]
    pub(crate) fn trace_pkt(
        &mut self,
        cat: Category,
        sampled: bool,
        ev: impl FnOnce(u64) -> TraceEvent,
    ) {
        if self.telemetry.trace.wants_pkt(cat, sampled) {
            let ev = ev(self.now.as_nanos());
            self.telemetry.trace.push(ev);
        }
    }

    /// Records in `node`'s flight ring, which is on even when tracing is off.
    #[inline]
    pub(crate) fn record_flight(&mut self, node: NodeId, kind: FlightKind, pkt: u64, detail: u32) {
        let t_ns = self.now.as_nanos();
        let ev = FlightEvent {
            t_ns,
            kind,
            pkt,
            detail,
        };
        self.telemetry.flight.record(node.0 as u32, ev);
    }

    pub(crate) fn common_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.nodes[a.0]
            .ifaces
            .iter()
            .copied()
            .find(|l| self.links[l.0].nodes.contains(&b))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The engine's own tests, and the apps and topology the other
    //! modules' tests share.

    use super::*;
    use crate::node::{ArrivalMeta, HookVerdict};
    use crate::packet::{addr, Packet};
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    /// An app that counts deliveries and can echo.
    pub(crate) struct Sink {
        pub(crate) got: Rc<RefCell<Vec<Packet>>>,
    }

    impl App for Sink {
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
            self.got.borrow_mut().push(pkt);
        }
    }

    /// An app that sends `n` packets to `dst` at start.
    pub(crate) struct Source {
        pub(crate) dst: u32,
        pub(crate) n: usize,
        pub(crate) size: usize,
    }

    impl App for Source {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            for _ in 0..self.n {
                let pkt = Packet::udp(
                    api.addr(),
                    self.dst,
                    1000,
                    2000,
                    Bytes::from(vec![0u8; self.size]),
                );
                api.send(pkt);
            }
        }

        fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    }

    pub(crate) fn two_hosts_one_router() -> (Sim, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        (sim, a, r, b)
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl App for TimerApp {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(Duration::from_millis(20), 2);
                api.set_timer(Duration::from_millis(10), 1);
                api.set_timer(Duration::from_millis(30), 3);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
                self.log.borrow_mut().push(key);
                if key == 1 {
                    api.set_timer(Duration::from_millis(5), 4);
                }
            }
        }
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(a, Box::new(TimerApp { log: log.clone() }));
        sim.run_until(SimTime::from_ms(100));
        assert_eq!(*log.borrow(), vec![1, 4, 2, 3]);
    }

    #[test]
    fn run_to_idle_drains_everything() {
        let (mut sim, a, _r, b) = two_hosts_one_router();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 5,
                size: 10,
            }),
        );
        let processed = sim.run_to_idle(100_000);
        assert!(processed > 0);
        assert_eq!(got.borrow().len(), 5);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> (u64, u64) {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a", 1);
            let b = sim.add_host("b", 2);
            sim.add_link(
                LinkSpec {
                    kbps: 500,
                    delay: Duration::from_millis(1),
                    queue_pkts: 5,
                },
                &[a, b],
            );
            sim.compute_routes();
            sim.add_app(
                a,
                Box::new(Source {
                    dst: 2,
                    n: 40,
                    size: 300,
                }),
            );
            sim.run_until(SimTime::from_secs(10));
            (sim.node(b).delivered, sim.total_link_drops)
        };
        assert_eq!(run(7), run(7));
    }

    /// A hook that replaces itself with its next generation the first
    /// time it is called and removes itself the second.
    struct Molt {
        gen: u32,
        log: Rc<RefCell<Vec<(u32, &'static str)>>>,
    }
    impl Molt {
        fn molt(&self, api: &mut NodeApi<'_>, from: &'static str) {
            self.log.borrow_mut().push((self.gen, from));
            if self.gen == 0 {
                api.install_hook(Box::new(Molt {
                    gen: 1,
                    log: self.log.clone(),
                }));
            } else {
                api.remove_hook();
            }
        }
    }
    impl PacketHook for Molt {
        fn on_packet(
            &mut self,
            api: &mut NodeApi<'_>,
            pkt: Packet,
            _: &ArrivalMeta,
        ) -> HookVerdict {
            self.molt(api, "packet");
            HookVerdict::Pass(pkt)
        }
        fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
            api.set_hook_timer(Duration::from_millis(10), key);
            self.molt(api, "timer");
        }
    }

    #[test]
    fn a_hook_that_replaces_or_removes_itself_in_on_packet_is_not_restored() {
        let (mut sim, a, r, b) = two_hosts_one_router();
        let log = Rc::new(RefCell::new(Vec::new()));
        let gen0 = Molt {
            gen: 0,
            log: log.clone(),
        };
        sim.install_hook(r, Box::new(gen0));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 3,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        // The first packet met generation 0, the second its
        // replacement, the third no hook at all.
        assert_eq!(*log.borrow(), [(0, "packet"), (1, "packet")]);
        assert!(sim.node(r).hook.is_none());
        assert_eq!(sim.node(b).delivered, 3);
    }

    #[test]
    fn a_hook_that_replaces_or_removes_itself_in_on_timer_is_not_restored() {
        let (mut sim, _a, r, _b) = two_hosts_one_router();
        let log = Rc::new(RefCell::new(Vec::new()));
        let gen0 = Molt {
            gen: 0,
            log: log.clone(),
        };
        sim.install_hook(r, Box::new(gen0));
        sim.sched.hook_timer(SimTime::from_ms(1), r, 5);
        // Each firing re-arms the timer: the third finds no hook.
        assert_eq!(sim.run_to_idle(u64::MAX), 3);
        assert_eq!(*log.borrow(), [(0, "timer"), (1, "timer")]);
        assert!(sim.node(r).hook.is_none());
    }
}
