//! The discrete-event simulation engine.
//!
//! Deterministic: events are ordered by `(time, sequence number)`, and
//! all randomness flows from the seed given to [`Sim::new`].

use crate::fault::{FaultAction, FaultPlan, FaultStats, LinkFaults};
use crate::link::{Link, LinkId, LinkSpec, NodeId};
use crate::node::{App, ArrivalMeta, HookVerdict, Node, PacketHook};
use crate::packet::Packet;
use crate::rng::SplitMix64;
use crate::sched::{EvKind, PktRef, Scheduler};
use crate::stats::SeriesStore;
use crate::time::SimTime;
use planp_telemetry::{
    BrownoutController, Category, DispatchOutcome, DropReason, FlightEvent, FlightKind,
    HealthMonitor, Histogram, MetricsSnapshot, Telemetry, TraceEvent,
};
use std::rc::Rc;
use std::time::Duration;

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
    /// Which node owns an address.
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/`insert`, never iterated
    addr_map: std::collections::HashMap<u32, NodeId>,
    /// Named measurement series recorded during the run.
    pub series: SeriesStore,
    started: bool,
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
    next_pkt_id: u64,
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
    /// Per-link queue-depth samples (indexed like `links`), taken at
    /// every enqueue. Kept out of the registry so the hot path never
    /// formats a metric name.
    pub(crate) link_qdepth: Vec<Histogram>,
    /// Dedicated randomness stream for fault injection, so configuring
    /// faults never perturbs node or workload randomness.
    pub(crate) fault_rng: SplitMix64,
    /// Active partition: group id per node (`None` = unrestricted).
    /// Empty when no partition is in force.
    pub(crate) partition: Vec<Option<u32>>,
    /// True once any fault has been configured; clean runs skip the
    /// per-copy fault pipeline (and its rng) entirely.
    pub(crate) faults_enabled: bool,
    /// Aggregate fault-injection counters.
    pub fault_stats: FaultStats,
    /// Hop latency (link enqueue → transmit complete) in nanoseconds,
    /// across every link. Kept out of the registry so the hot path
    /// never formats a metric name; exported as `sim.hop_latency_ns`.
    pub(crate) hop_latency: Histogram,
    /// Live SLO monitor, evaluated at its sim-time boundaries inside
    /// `run_until` / `run_to_idle`. `None` (the default) costs one
    /// branch per event.
    pub monitor: Option<HealthMonitor>,
    /// Deterministic brownout controller, fed one observation per
    /// monitor evaluation window; level transitions are emitted as
    /// `TraceEvent::Brownout` and mirrored into `telemetry.overload`.
    pub brownout: Option<BrownoutController>,
    /// Set once the first SLO breach has frozen the monitor's
    /// `dump_on_breach` flight windows — only the first breach dumps,
    /// keeping post-mortem reports bounded under sustained outages.
    breach_dumped: bool,
}

/// Above this many nodes [`Sim::metrics_snapshot`] folds per-node and
/// per-link counters into aggregate `nodes.*` / `links.*` totals
/// instead of one key per node, keeping snapshots O(1) at 100k+ nodes.
const COMPACT_METRICS_THRESHOLD: usize = 512;

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
            link_qdepth: Vec::new(),
            fault_rng: SplitMix64::new(seed ^ 0xFA01_7000_0000_0000),
            partition: Vec::new(),
            faults_enabled: false,
            fault_stats: FaultStats::default(),
            hop_latency: Histogram::new(),
            monitor: None,
            brownout: None,
            breach_dumped: false,
        }
    }

    /// The engine-wide hop-latency histogram (link enqueue → transmit
    /// complete, nanoseconds).
    pub fn hop_latency(&self) -> &Histogram {
        &self.hop_latency
    }

    /// Assigns the packet a fresh id on its first entry into a send
    /// path; clones made later (forwarding, multicast fan-out) keep it.
    /// The first stamp is also the span open: a packet with no lineage
    /// roots a fresh trace here, one re-emitted by an ASP carries the
    /// lineage the PLAN-P layer filled in.
    fn stamp(&mut self, node: NodeId, pkt: &mut Packet) {
        if pkt.id != 0 {
            return;
        }
        self.next_pkt_id += 1;
        pkt.id = self.next_pkt_id;
        if pkt.lineage.trace == 0 {
            // Root of a fresh trace: the head-sampling decision is made
            // exactly once, here, and inherited by every descendant
            // packet — a kept trace keeps its complete span tree.
            pkt.lineage.trace = pkt.id;
            pkt.lineage.sampled = self.telemetry.trace.keep_trace(pkt.lineage.trace);
        }
        if self
            .telemetry
            .trace
            .wants_pkt(Category::SPAN, pkt.lineage.sampled)
        {
            self.telemetry.trace.push(TraceEvent::SpanStart {
                t_ns: self.now.as_nanos(),
                node: node.0 as u32,
                pkt: pkt.id,
                trace: pkt.lineage.trace,
                parent: pkt.lineage.parent,
                origin: pkt.lineage.origin,
                chan: pkt.lineage.chan.as_ref().map(|c| c.chan.clone()),
            });
        }
    }

    #[inline]
    pub(crate) fn trace_node_drop(
        &mut self,
        node: NodeId,
        pkt: u64,
        sampled: bool,
        reason: DropReason,
    ) {
        // The flight recorder is always on: a drop lands in the node's
        // post-mortem ring even when tracing is off or sampled out.
        self.telemetry.flight.record(
            node.0 as u32,
            FlightEvent {
                t_ns: self.now.as_nanos(),
                kind: FlightKind::Drop,
                pkt,
                detail: reason.index(),
            },
        );
        if self.telemetry.trace.wants_pkt(Category::DROP, sampled) {
            self.telemetry.trace.push(TraceEvent::NodeDrop {
                t_ns: self.now.as_nanos(),
                node: node.0 as u32,
                pkt,
                reason,
            });
        }
    }

    /// Counts and traces one node-level drop: routes the count to the
    /// reason's bucket (`cpu_drops` for CPU-queue overflow, `shed` for
    /// deliberate shedding and deadline expiry, `dropped` otherwise),
    /// bumps the `sim.node_drops_total` aggregate, and records the
    /// flight/trace events. Every node-level drop site goes through
    /// here so the drop-accounting identity holds by construction.
    pub(crate) fn drop_at_node(
        &mut self,
        node: NodeId,
        pkt: u64,
        sampled: bool,
        reason: DropReason,
    ) {
        let n = &mut self.nodes[node.0];
        match reason {
            DropReason::CpuOverflow => n.cpu_drops += 1,
            DropReason::Shed | DropReason::DeadlineExpired => n.shed += 1,
            _ => n.dropped += 1,
        }
        self.total_node_drops += 1;
        self.trace_node_drop(node, pkt, sampled, reason);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    // ---- topology construction -----------------------------------------

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
        self.link_qdepth.push(Histogram::new());
        for &n in nodes {
            self.nodes[n.0].ifaces.push(id);
        }
        id
    }

    /// Computes shortest-path unicast routes between every pair of nodes
    /// (hop-count BFS over the node/link graph). Call after the topology
    /// is complete.
    pub fn compute_routes(&mut self) {
        let n = self.nodes.len();
        // Adjacency: node → (link, neighbor).
        let mut adj: Vec<Vec<(LinkId, NodeId)>> = vec![Vec::new(); n];
        for (li, link) in self.links.iter().enumerate() {
            for &a in &link.nodes {
                for &b in &link.nodes {
                    if a != b {
                        adj[a.0].push((LinkId(li), b));
                    }
                }
            }
        }
        for src in 0..n {
            // BFS from src recording the first hop toward each node.
            let mut first_hop: Vec<Option<(LinkId, NodeId)>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut q = std::collections::VecDeque::new();
            visited[src] = true;
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(l, v) in &adj[u] {
                    if !visited[v.0] {
                        visited[v.0] = true;
                        first_hop[v.0] = if u == src { Some((l, v)) } else { first_hop[u] };
                        q.push_back(v.0);
                    }
                }
            }
            for (dst, hop) in first_hop.iter().enumerate() {
                if dst != src {
                    if let Some(hop) = hop {
                        let dst_addr = self.nodes[dst].addr;
                        self.nodes[src].routes.insert(dst_addr, *hop);
                    }
                }
            }
        }
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
            if let Some(mut a) = self.nodes[node.0].apps[idx].take() {
                let mut api = NodeApi {
                    sim: self,
                    node,
                    app: Some(idx),
                };
                a.on_start(&mut api);
                self.nodes[node.0].apps[idx] = Some(a);
            }
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

    // ---- event engine ----------------------------------------------------

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

    /// Evaluates the health monitor at every boundary `now` has
    /// reached: emits `health` trace events for judged windows and, on
    /// the first breach, freezes the flight-recorder windows of the
    /// monitor's `dump_on_breach` nodes.
    pub(crate) fn monitor_tick(&mut self) {
        let due = self
            .monitor
            .as_ref()
            .is_some_and(|m| m.due(self.now.as_nanos()));
        if !due {
            return;
        }
        let Some(mut mon) = self.monitor.take() else {
            return;
        };
        self.settle_all();
        while mon.due(self.now.as_nanos()) {
            let snap = self.metrics_snapshot();
            let mut qdepth = Histogram::new();
            for h in &self.link_qdepth {
                qdepth.merge(h);
            }
            let samples = mon.evaluate(
                &snap,
                &[
                    ("sim.hop_latency_ns", &self.hop_latency),
                    ("sim.queue_depth", &qdepth),
                ],
            );
            let mut breach: Option<String> = None;
            for s in &samples {
                if s.skipped {
                    continue;
                }
                if self.telemetry.trace.wants(Category::HEALTH) {
                    self.telemetry.trace.push(TraceEvent::Health {
                        t_ns: s.t_ns,
                        rule: Rc::from(s.rule.as_str()),
                        ok: s.ok,
                        value: s.value,
                        threshold: s.threshold,
                    });
                }
                if !s.ok && breach.is_none() {
                    breach = Some(s.rule.clone());
                }
            }
            let t = samples.first().map_or(self.now.as_nanos(), |s| s.t_ns);
            // The brownout controller sees one observation per window:
            // the first breached rule, or a clean bill of health.
            if let Some(mut bc) = self.brownout.take() {
                if let Some((from, to, rule)) = bc.observe_window(t, breach.as_deref()) {
                    self.telemetry.overload.brownout_level = to;
                    if self.telemetry.trace.wants(Category::HEALTH) {
                        self.telemetry.trace.push(TraceEvent::Brownout {
                            t_ns: t,
                            from_level: from,
                            to_level: to,
                            rule: Rc::from(rule.as_str()),
                        });
                    }
                }
                self.brownout = Some(bc);
            }
            if let Some(cause) = breach {
                if !self.breach_dumped && !mon.dump_on_breach.is_empty() {
                    self.breach_dumped = true;
                    let state = self.telemetry.overload.summary();
                    for &n in &mon.dump_on_breach {
                        self.telemetry.flight.dump_with_state(n, t, &cause, &state);
                    }
                }
            }
        }
        self.monitor = Some(mon);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.nodes.len() {
            for app in 0..self.nodes[node].apps.len() {
                if let Some(mut a) = self.nodes[node].apps[app].take() {
                    let mut api = NodeApi {
                        sim: self,
                        node: NodeId(node),
                        app: Some(app),
                    };
                    a.on_start(&mut api);
                    self.nodes[node].apps[app] = Some(a);
                }
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
                    let mut api = NodeApi {
                        sim: self,
                        node,
                        app: None,
                    };
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
                if let Some(mut a) = self.nodes[node.0].apps[app].take() {
                    let mut api = NodeApi {
                        sim: self,
                        node,
                        app: Some(app),
                    };
                    a.on_timer(&mut api, key);
                    self.nodes[node.0].apps[app] = Some(a);
                }
            }
        }
    }

    /// Takes `node`'s hook out of its slot for the length of one of its
    /// callbacks, with the number [`Sim::restore_hook`] wants back.
    #[inline]
    fn take_hook(&mut self, node: NodeId) -> Option<(Box<dyn PacketHook>, u64)> {
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
    fn restore_hook(&mut self, node: NodeId, hook: Box<dyn PacketHook>, gen: u64) {
        let n = &mut self.nodes[node.0];
        if n.hook_gen == gen {
            n.hook = Some(hook);
        }
    }

    /// Releases the slot of a packet that dies at `node`'s ingress and
    /// counts the drop.
    fn drop_arriving(&mut self, node: NodeId, pkt: PktRef, reason: DropReason) {
        let pkt = self.sched.packets.take(pkt);
        self.drop_at_node(node, pkt.id, pkt.lineage.sampled, reason);
    }

    pub(crate) fn arrive(
        &mut self,
        node: NodeId,
        pkt: PktRef,
        via: Option<LinkId>,
        overheard: bool,
    ) {
        if self.nodes[node.0].down {
            self.drop_arriving(node, pkt, DropReason::NodeDown);
            return;
        }
        // Deadline propagation: an already-expired packet is dropped at
        // ingress — before it costs CPU-queue slots or further hops.
        let deadline_ns = self.sched.packets.get(pkt).lineage.deadline_ns;
        if !overheard && deadline_ns != 0 && self.now.as_nanos() > deadline_ns {
            self.drop_arriving(node, pkt, DropReason::DeadlineExpired);
            return;
        }
        // CPU model: non-overheard packets queue for processing time.
        // Overheard traffic is filtered in the NIC and costs nothing.
        if let Some(cpu) = self.nodes[node.0].cpu {
            if !overheard {
                let n = &mut self.nodes[node.0];
                if n.cpu_queue.len() >= cpu.queue_cap {
                    self.drop_arriving(node, pkt, DropReason::CpuOverflow);
                    return;
                }
                n.cpu_queue.push_back((pkt, via));
                if !n.cpu_busy {
                    n.cpu_busy = true;
                    let epoch = n.cpu_epoch;
                    self.sched.cpu_done(self.now + cpu.per_packet, node, epoch);
                }
                return;
            }
        }
        let pkt = self.sched.packets.take(pkt);
        self.process_arrival(node, pkt, via, overheard);
    }

    fn cpu_done(&mut self, node: NodeId, epoch: u64) {
        // A crash bumps the epoch; completions scheduled before it must
        // not touch work queued after the restart.
        if epoch != self.nodes[node.0].cpu_epoch {
            return;
        }
        let Some((pkt, via)) = self.nodes[node.0].cpu_queue.pop_front() else {
            self.nodes[node.0].cpu_busy = false;
            return;
        };
        if self.nodes[node.0].cpu_queue.is_empty() {
            self.nodes[node.0].cpu_busy = false;
        } else {
            let cpu = self.nodes[node.0].cpu.expect("cpu_done without cpu");
            self.sched.cpu_done(self.now + cpu.per_packet, node, epoch);
        }
        let pkt = self.sched.packets.take(pkt);
        self.process_arrival(node, pkt, via, false);
    }

    fn process_arrival(&mut self, node: NodeId, pkt: Packet, via: Option<LinkId>, overheard: bool) {
        // 1. The extensible layer sees everything first.
        let pkt = if let Some((mut hook, gen)) = self.take_hook(node) {
            let meta = ArrivalMeta { via, overheard };
            let mut api = NodeApi {
                sim: self,
                node,
                app: None,
            };
            let verdict = hook.on_packet(&mut api, pkt, &meta);
            self.restore_hook(node, hook, gen);
            match verdict {
                HookVerdict::Handled => return,
                HookVerdict::Pass(p) => p,
            }
        } else {
            pkt
        };

        // 2. Overheard traffic is only for hooks.
        if overheard {
            return;
        }

        // 3. Standard IP processing.
        if pkt.ip.is_multicast() {
            let subscribed = self.nodes[node.0].subscriptions.contains(&pkt.ip.dst);
            if !self.nodes[node.0].forwarding {
                if subscribed {
                    self.deliver_local(node, pkt);
                }
                return;
            }
            if subscribed {
                self.deliver_local(node, pkt.clone());
            }
            let mut fwd = pkt;
            if fwd.ip.ttl <= 1 {
                self.drop_at_node(node, fwd.id, fwd.lineage.sampled, DropReason::TtlExpired);
                return;
            }
            fwd.ip.ttl -= 1;
            self.mcast_fan_out(node, fwd, via, true);
            return;
        }

        if pkt.ip.dst == self.nodes[node.0].addr {
            self.deliver_local(node, pkt);
        } else if self.nodes[node.0].forwarding {
            let mut fwd = pkt;
            if fwd.ip.ttl <= 1 {
                self.drop_at_node(node, fwd.id, fwd.lineage.sampled, DropReason::TtlExpired);
                return;
            }
            fwd.ip.ttl -= 1;
            match self.nodes[node.0].routes.get(&fwd.ip.dst).copied() {
                Some((link, next_hop)) => {
                    self.trace_forward(node, &fwd, link);
                    self.enqueue_on_link(link, node, Some(next_hop), fwd)
                }
                None => {
                    self.drop_at_node(node, fwd.id, fwd.lineage.sampled, DropReason::NoRoute);
                }
            }
        } else {
            self.drop_at_node(node, pkt.id, pkt.lineage.sampled, DropReason::NotAddressed);
        }
    }

    /// Puts `pkt` on each of `node`'s multicast links for its group
    /// except `skip`, in route order; the last link gets the packet
    /// itself, the ones before it a clone. Returns whether any link
    /// took it.
    fn mcast_fan_out(
        &mut self,
        node: NodeId,
        pkt: Packet,
        skip: Option<LinkId>,
        forwarded: bool,
    ) -> bool {
        let group = pkt.ip.dst;
        let n_links = self.nodes[node.0]
            .mcast_routes
            .get(&group)
            .map_or(0, Vec::len);
        let mut held: Option<LinkId> = None;
        for i in 0..n_links {
            let link = self.nodes[node.0].mcast_routes[&group][i];
            if Some(link) == skip {
                continue;
            }
            if let Some(prev) = held.replace(link) {
                self.mcast_out(node, prev, pkt.clone(), forwarded);
            }
        }
        let Some(link) = held else { return false };
        self.mcast_out(node, link, pkt, forwarded);
        true
    }

    fn mcast_out(&mut self, node: NodeId, link: LinkId, pkt: Packet, forwarded: bool) {
        if forwarded {
            self.trace_forward(node, &pkt, link);
        }
        self.enqueue_on_link(link, node, None, pkt);
    }

    pub(crate) fn deliver_local(&mut self, node: NodeId, mut pkt: Packet) {
        self.stamp(node, &mut pkt);
        self.nodes[node.0].delivered += 1;
        // Every application sees the packet; the last one gets the
        // packet itself, the ones before it a clone.
        let Some(last) = self.nodes[node.0].apps.len().checked_sub(1) else {
            return;
        };
        for app in 0..last {
            self.deliver_to_app(node, app, pkt.clone());
        }
        self.deliver_to_app(node, last, pkt);
    }

    fn deliver_to_app(&mut self, node: NodeId, app: usize, pkt: Packet) {
        let Some(mut a) = self.nodes[node.0].apps[app].take() else {
            return;
        };
        self.telemetry.flight.record(
            node.0 as u32,
            FlightEvent {
                t_ns: self.now.as_nanos(),
                kind: FlightKind::Deliver,
                pkt: pkt.id,
                detail: app as u32,
            },
        );
        if self
            .telemetry
            .trace
            .wants_pkt(Category::DELIVER, pkt.lineage.sampled)
        {
            self.telemetry.trace.push(TraceEvent::Deliver {
                t_ns: self.now.as_nanos(),
                node: node.0 as u32,
                pkt: pkt.id,
                app: app as u32,
            });
        }
        let mut api = NodeApi {
            sim: self,
            node,
            app: Some(app),
        };
        a.on_packet(&mut api, pkt);
        self.nodes[node.0].apps[app] = Some(a);
    }

    #[inline]
    fn trace_forward(&mut self, node: NodeId, pkt: &Packet, link: LinkId) {
        if self
            .telemetry
            .trace
            .wants_pkt(Category::HOP, pkt.lineage.sampled)
        {
            self.telemetry.trace.push(TraceEvent::Forward {
                t_ns: self.now.as_nanos(),
                node: node.0 as u32,
                pkt: pkt.id,
                link: link.0 as u32,
                ttl: pkt.ip.ttl,
            });
        }
    }

    /// Sends `pkt` from `node`, routing by destination address.
    pub(crate) fn dispatch_send(&mut self, node: NodeId, mut pkt: Packet) {
        self.stamp(node, &mut pkt);
        if pkt.ip.ttl == 0 {
            self.drop_at_node(node, pkt.id, pkt.lineage.sampled, DropReason::TtlExpired);
            return;
        }
        if pkt.ip.is_multicast() {
            let (pid, sampled) = (pkt.id, pkt.lineage.sampled);
            if !self.mcast_fan_out(node, pkt, None, false) {
                self.drop_at_node(node, pid, sampled, DropReason::NoRoute);
            }
            return;
        }
        if pkt.ip.dst == self.nodes[node.0].addr {
            // Self-send: loop back locally.
            let pkt = self.sched.packets.put(pkt);
            self.sched.arrive(self.now, None, node, pkt, None, false);
            return;
        }
        match self.nodes[node.0].routes.get(&pkt.ip.dst).copied() {
            Some((link, next_hop)) => self.enqueue_on_link(link, node, Some(next_hop), pkt),
            None => {
                self.drop_at_node(node, pkt.id, pkt.lineage.sampled, DropReason::NoRoute);
            }
        }
    }

    pub(crate) fn send_to_neighbor(&mut self, node: NodeId, neighbor_addr: u32, mut pkt: Packet) {
        self.stamp(node, &mut pkt);
        let Some(&neighbor) = self.addr_map.get(&neighbor_addr) else {
            self.drop_at_node(node, pkt.id, pkt.lineage.sampled, DropReason::NoRoute);
            return;
        };
        match self.common_link(node, neighbor) {
            Some(link) => self.enqueue_on_link(link, node, Some(neighbor), pkt),
            None => {
                self.drop_at_node(node, pkt.id, pkt.lineage.sampled, DropReason::NoRoute);
            }
        }
    }

    fn common_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.nodes[a.0]
            .ifaces
            .iter()
            .copied()
            .find(|l| self.links[l.0].nodes.contains(&b))
    }

    // ---- fault injection -------------------------------------------------

    /// Schedules every action in `plan` as ordinary simulation events.
    /// Call any time (typically before the run); actions fire at their
    /// scheduled times in plan order. Time never runs backwards: an
    /// action dated before `now` fires at `now`.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        self.faults_enabled = true;
        for ev in plan.events {
            self.sched.fault(ev.at.max(self.now), ev.action);
        }
    }

    fn apply_fault_action(&mut self, action: FaultAction) {
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
        self.faults_enabled = true;
        self.links[link.0].faults = faults;
    }

    /// Flaps the link down (packets offered to it are dropped at
    /// enqueue; in-flight transmissions complete) or back up.
    pub fn set_link_down(&mut self, link: LinkId, down: bool) {
        self.faults_enabled = true;
        self.links[link.0].fault_down = down;
        let kind = if down { "link_down" } else { "link_up" };
        self.trace_fault(kind, None, Some(link), 0);
    }

    /// Partitions the network: packet copies between nodes in different
    /// groups are dropped in flight. Nodes not listed in any group keep
    /// talking to everyone. Replaces any previous partition.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>]) {
        self.faults_enabled = true;
        self.partition = vec![None; self.nodes.len()];
        for (g, members) in groups.iter().enumerate() {
            for &n in members {
                self.partition[n.0] = Some(g as u32);
            }
        }
        self.trace_fault("partition", None, None, 0);
    }

    /// Heals any active partition.
    pub fn clear_partition(&mut self) {
        self.partition.clear();
        self.trace_fault("heal", None, None, 0);
    }

    pub(crate) fn partition_blocks(&self, a: NodeId, b: NodeId) -> bool {
        match (
            self.partition.get(a.0).copied().flatten(),
            self.partition.get(b.0).copied().flatten(),
        ) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        }
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
        if n.set_hook(None).is_some() {
            n.state_lost += 1;
        }
        let lost = n.cpu_queue.len() as u64;
        for (pkt, _) in n.cpu_queue.drain(..) {
            self.sched.packets.take(pkt);
        }
        n.cpu_busy = false;
        n.dropped += lost;
        self.total_node_drops += lost;
        self.fault_stats.crashes += 1;
        self.trace_fault("crash", Some(node), None, 0);
        // Freeze the node's post-mortem window — stamped with the
        // overload posture so the post-mortem shows what degradation
        // stage the cluster was in when the node died.
        let state = self.telemetry.overload.summary();
        self.telemetry
            .flight
            .dump_with_state(node.0 as u32, self.now.as_nanos(), "crash", &state);
    }

    /// Restarts a crashed node and gives every application an
    /// [`App::on_restart`] callback to re-arm timers and start protocol
    /// recovery. The packet hook stays lost until something reinstalls
    /// it (e.g. in-band redeployment).
    pub fn restart_node(&mut self, node: NodeId) {
        self.nodes[node.0].down = false;
        self.fault_stats.restarts += 1;
        self.trace_fault("restart", Some(node), None, 0);
        for app in 0..self.nodes[node.0].apps.len() {
            if let Some(mut a) = self.nodes[node.0].apps[app].take() {
                let mut api = NodeApi {
                    sim: self,
                    node,
                    app: Some(app),
                };
                a.on_restart(&mut api);
                self.nodes[node.0].apps[app] = Some(a);
            }
        }
    }

    /// Accounts one fault-induced in-flight copy loss: per-link
    /// `fault_drops` (never `drops`), the engine-wide total, and both a
    /// drop and a fault trace event at the would-be receiver.
    pub(crate) fn fault_copy_drop(
        &mut self,
        link: LinkId,
        to: NodeId,
        pkt: u64,
        sampled: bool,
        reason: DropReason,
        kind: &'static str,
    ) {
        self.links[link.0].fault_drops += 1;
        self.total_link_drops += 1;
        self.trace_node_drop(to, pkt, sampled, reason);
        self.trace_fault(kind, Some(to), Some(link), pkt);
    }

    pub(crate) fn trace_fault(
        &mut self,
        kind: &'static str,
        node: Option<NodeId>,
        link: Option<LinkId>,
        pkt: u64,
    ) {
        if let Some(n) = node {
            // Always-on flight recording; drop kinds skip the extra
            // entry because trace_node_drop already recorded the drop.
            let fk = match kind {
                "crash" => Some(FlightKind::Crash),
                "restart" => Some(FlightKind::Restart),
                "partition" | "loss" | "link_down_drop" => None,
                _ => Some(FlightKind::Fault),
            };
            if let Some(fk) = fk {
                self.telemetry.flight.record(
                    n.0 as u32,
                    FlightEvent {
                        t_ns: self.now.as_nanos(),
                        kind: fk,
                        pkt,
                        detail: 0,
                    },
                );
            }
        }
        if self.telemetry.trace.wants(Category::FAULT) {
            self.telemetry.trace.push(TraceEvent::Fault {
                t_ns: self.now.as_nanos(),
                kind: Rc::from(kind),
                node: node.map(|n| n.0 as u32),
                link: link.map(|l| l.0 as u32),
                pkt,
            });
        }
    }

    // ---- telemetry -------------------------------------------------------

    /// A deterministic snapshot of every metric the simulator tracks:
    /// per-node delivery/drop counters, per-link transmit/drop counters
    /// and queue-depth histograms, engine totals, and everything
    /// applications or hooks recorded in `telemetry.metrics`.
    ///
    /// Key layout (all counters unless noted):
    ///
    /// - `node.<name>.delivered` / `.dropped` / `.cpu_drops`
    /// - `node.<name>.crashes` / `.state_lost` / `.shed` — when nonzero
    /// - `link<i>.tx_packets` / `.tx_bytes` / `.drops`
    /// - `link<i>.fault_drops` — when nonzero
    /// - `link<i>.queue_depth` — histogram of queue length at enqueue
    /// - `sim.link_drops_total`, `sim.node_drops_total`,
    ///   `sim.events_processed` (logical: a completion, or one copy's
    ///   arrival, counts whether or not it was ever queued),
    ///   `sim.packets`
    /// - `sim.trace_recorded`, `sim.trace_evicted`
    /// - `sim.fault_*` — the [`FaultStats`] counters, once any fault has
    ///   been configured (so clean runs keep their key set)
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.telemetry.metrics.snapshot();
        if self.nodes.len() > COMPACT_METRICS_THRESHOLD {
            self.compact_counters(&mut snap);
        } else {
            for node in &self.nodes {
                snap.set_counter(format!("node.{}.delivered", node.name), node.delivered);
                snap.set_counter(format!("node.{}.dropped", node.name), node.dropped);
                snap.set_counter(format!("node.{}.cpu_drops", node.name), node.cpu_drops);
                if node.crashes > 0 {
                    snap.set_counter(format!("node.{}.crashes", node.name), node.crashes);
                }
                if node.state_lost > 0 {
                    snap.set_counter(format!("node.{}.state_lost", node.name), node.state_lost);
                }
                if node.shed > 0 {
                    snap.set_counter(format!("node.{}.shed", node.name), node.shed);
                }
            }
            for (i, link) in self.links.iter().enumerate() {
                snap.set_counter(format!("link{i}.tx_packets"), link.tx_packets);
                snap.set_counter(format!("link{i}.tx_bytes"), link.tx_bytes);
                snap.set_counter(format!("link{i}.drops"), link.drops);
                if link.fault_drops > 0 {
                    snap.set_counter(format!("link{i}.fault_drops"), link.fault_drops);
                }
                let h = &self.link_qdepth[i];
                if h.count() > 0 {
                    snap.set_histogram(format!("link{i}.queue_depth"), h);
                }
            }
        }
        snap.set_counter("sim.link_drops_total", self.total_link_drops);
        snap.set_counter("sim.node_drops_total", self.total_node_drops);
        snap.set_counter("sim.events_processed", self.events_processed);
        snap.set_counter("sim.packets", self.next_pkt_id);
        snap.set_counter("sim.trace_recorded", self.telemetry.trace.recorded());
        snap.set_counter("sim.trace_evicted", self.telemetry.trace.evicted());
        if self.hop_latency.count() > 0 {
            snap.set_histogram("sim.hop_latency_ns", &self.hop_latency);
        }
        let oh = self.telemetry.trace.overhead();
        if oh.sample_n > 1 || oh.sampled_out > 0 || oh.downgrades > 0 {
            snap.set_counter("sim.trace_sampled_out", oh.sampled_out);
            snap.set_counter("sim.trace_downgrades", u64::from(oh.downgrades));
            snap.set_counter("sim.trace_sample_n", u64::from(oh.sample_n));
            snap.set_counter("sim.trace_est_bytes", oh.est_bytes);
        }
        if self.faults_enabled {
            let f = &self.fault_stats;
            snap.set_counter("sim.fault_loss_drops", f.loss_drops);
            snap.set_counter("sim.fault_corrupted", f.corrupted);
            snap.set_counter("sim.fault_duplicated", f.duplicated);
            snap.set_counter("sim.fault_jittered", f.jittered);
            snap.set_counter("sim.fault_link_down_drops", f.link_down_drops);
            snap.set_counter("sim.fault_partition_drops", f.partition_drops);
            snap.set_counter("sim.fault_crashes", f.crashes);
            snap.set_counter("sim.fault_restarts", f.restarts);
        }
        snap
    }

    /// The compact snapshot layout used past the node-count threshold:
    /// per-node and per-link counters fold into saturating `nodes.*` /
    /// `links.*` sums, so a 100k-node snapshot stays a handful of keys
    /// instead of 500k.
    fn compact_counters(&self, snap: &mut MetricsSnapshot) {
        const NODE_KEYS: [&str; 6] = [
            "delivered",
            "dropped",
            "cpu_drops",
            "crashes",
            "state_lost",
            "shed",
        ];
        let mut nodes = [0u64; NODE_KEYS.len()];
        for n in &self.nodes {
            let row = [
                n.delivered,
                n.dropped,
                n.cpu_drops,
                n.crashes,
                n.state_lost,
                n.shed,
            ];
            for (sum, v) in nodes.iter_mut().zip(row) {
                *sum = sum.saturating_add(v);
            }
        }
        snap.set_counter("nodes.count", self.nodes.len() as u64);
        for (k, v) in NODE_KEYS.iter().zip(nodes) {
            // Rare-event totals keep the sparse convention: present
            // only when nonzero, like their per-node counterparts.
            if v > 0 || matches!(*k, "delivered" | "dropped" | "cpu_drops") {
                snap.set_counter(format!("nodes.{k}"), v);
            }
        }
        const LINK_KEYS: [&str; 4] = ["tx_packets", "tx_bytes", "drops", "fault_drops"];
        let mut links = [0u64; LINK_KEYS.len()];
        let mut qdepth = Histogram::new();
        for (i, link) in self.links.iter().enumerate() {
            let row = [link.tx_packets, link.tx_bytes, link.drops, link.fault_drops];
            for (sum, v) in links.iter_mut().zip(row) {
                *sum = sum.saturating_add(v);
            }
            qdepth.merge(&self.link_qdepth[i]);
        }
        snap.set_counter("links.count", self.links.len() as u64);
        for (k, v) in LINK_KEYS.iter().zip(links) {
            if v > 0 || *k != "fault_drops" {
                snap.set_counter(format!("links.{k}"), v);
            }
        }
        if qdepth.count() > 0 {
            snap.set_histogram("links.queue_depth", &qdepth);
        }
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

impl NodeApi<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// This node's address.
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
        if self
            .sim
            .telemetry
            .trace
            .wants_pkt(Category::DISPATCH, pkt.lineage.sampled)
        {
            let ev = TraceEvent::Dispatch {
                t_ns: self.sim.now.as_nanos(),
                node: self.node.0 as u32,
                pkt: pkt.id,
                chan: chan.cloned(),
                outcome,
            };
            self.sim.telemetry.trace.push(ev);
        }
    }

    /// Emits a [`TraceEvent::Exception`] for this node (cheap no-op when
    /// the `exception` category is disabled).
    pub fn trace_exception(&mut self, pkt: &Packet, chan: &Rc<str>, exn: Rc<str>) {
        self.sim.telemetry.flight.record(
            self.node.0 as u32,
            FlightEvent {
                t_ns: self.sim.now.as_nanos(),
                kind: FlightKind::Exception,
                pkt: pkt.id,
                detail: 0,
            },
        );
        if self
            .sim
            .telemetry
            .trace
            .wants_pkt(Category::EXCEPTION, pkt.lineage.sampled)
        {
            let ev = TraceEvent::Exception {
                t_ns: self.sim.now.as_nanos(),
                node: self.node.0 as u32,
                pkt: pkt.id,
                chan: chan.clone(),
                exn,
            };
            self.sim.telemetry.trace.push(ev);
        }
    }

    /// Emits a [`TraceEvent::VmRun`] attributing `steps` VM steps to
    /// the channel run dispatched on `pkt` (cheap no-op when the `vm`
    /// category is disabled).
    pub fn trace_vm_run(&mut self, pkt: &Packet, chan: &Rc<str>, steps: u64) {
        if self
            .sim
            .telemetry
            .trace
            .wants_pkt(Category::VM, pkt.lineage.sampled)
        {
            let ev = TraceEvent::VmRun {
                t_ns: self.sim.now.as_nanos(),
                node: self.node.0 as u32,
                pkt: pkt.id,
                chan: chan.clone(),
                steps,
            };
            self.sim.telemetry.trace.push(ev);
        }
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
        match self.route_link(dst) {
            Some(l) => {
                self.sim.settle(l);
                self.sim.links[l.0].measured_kbps(now)
            }
            None => 0,
        }
    }

    /// Capacity (kb/s) of the outgoing link toward `dst`.
    pub fn capacity_kbps_toward(&mut self, dst: u32) -> i64 {
        match self.route_link(dst) {
            Some(l) => self.sim.links[l.0].spec.kbps as i64,
            None => 0,
        }
    }

    /// Queue length of the outgoing link toward `dst`.
    pub fn queue_len_toward(&mut self, dst: u32) -> i64 {
        match self.route_link(dst) {
            Some(l) => {
                self.sim.settle(l);
                self.sim.links[l.0].queue_len() as i64
            }
            None => 0,
        }
    }

    fn route_link(&self, dst: u32) -> Option<LinkId> {
        let node = &self.sim.nodes[self.node.0];
        if let Some(&(l, _)) = node.routes.get(&dst) {
            return Some(l);
        }
        // Multicast groups route via the multicast table.
        node.mcast_routes
            .get(&dst)
            .and_then(|ls| ls.first())
            .copied()
            // Fall back to the first interface (hosts with one NIC).
            .or_else(|| node.ifaces.first().copied())
    }

    /// Records a measurement point under `name` at the current time.
    pub fn record(&mut self, name: &str, value: f64) {
        let t = self.sim.now.as_secs_f64();
        self.sim.series.record(name, t, value);
    }

    /// Installs (or replaces) this node's packet hook — the mechanism
    /// behind in-band program deployment: a management application
    /// receives a program over the network and activates it locally.
    pub fn install_hook(&mut self, hook: Box<dyn crate::node::PacketHook>) {
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
        self.sim
            .drop_at_node(self.node, pkt.id, pkt.lineage.sampled, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{addr, Packet};
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// An app that counts deliveries and can echo.
    struct Sink {
        got: Rc<RefCell<Vec<Packet>>>,
    }

    impl App for Sink {
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
            self.got.borrow_mut().push(pkt);
        }
    }

    /// An app that sends `n` packets to `dst` at start.
    struct Source {
        dst: u32,
        n: usize,
        size: usize,
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

    fn two_hosts_one_router() -> (Sim, NodeId, NodeId, NodeId) {
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
    fn routed_delivery_across_router() {
        let (mut sim, a, _r, b) = two_hosts_one_router();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 3,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 3);
        // TTL decremented once by the router.
        assert_eq!(got.borrow()[0].ip.ttl, 63);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(
            LinkSpec {
                kbps: 100,
                delay: Duration::from_millis(1),
                queue_pkts: 4,
            },
            &[a, b],
        );
        sim.compute_routes();
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 50,
                size: 1000,
            }),
        );
        sim.run_until(SimTime::from_ms(10));
        assert!(sim.total_link_drops > 0);
        // 1 transmitting + 4 queued accepted; rest dropped.
        assert_eq!(sim.total_link_drops, 45);
    }

    #[test]
    fn no_route_increments_drop_counter() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        // No compute_routes.
        sim.add_app(
            a,
            Box::new(Source {
                dst: 99,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_ms(10));
        assert_eq!(sim.node(a).dropped, 1);
    }

    #[test]
    fn hosts_do_not_forward() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let h = sim.add_host("h", 3); // host in the middle
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, h]);
        sim.add_link(LinkSpec::ethernet_10(), &[h, b]);
        sim.compute_routes();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(sim.node(h).dropped, 1);
    }

    #[test]
    fn ttl_expiry_drops_in_long_chains() {
        let mut sim = Sim::new(1);
        // Chain of 70 routers exceeds the default TTL of 64.
        let mut ids = vec![sim.add_host("h0", 1000)];
        for i in 1..=70 {
            ids.push(sim.add_router(&format!("r{i}"), 1000 + i));
        }
        let last = sim.add_host("end", 2000);
        ids.push(last);
        for w in ids.windows(2) {
            sim.add_link(LinkSpec::ethernet_100(), &[w[0], w[1]]);
        }
        sim.compute_routes();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(last, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            ids[0],
            Box::new(Source {
                dst: 2000,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.borrow().len(), 0, "packet should die of TTL");
    }

    #[test]
    fn segment_broadcast_overhears() {
        // a, b, c share a segment; a → b unicast is overheard by c's hook
        // but not delivered to c's apps.
        struct Spy {
            overheard: Rc<RefCell<u32>>,
        }
        impl PacketHook for Spy {
            fn on_packet(
                &mut self,
                _api: &mut NodeApi<'_>,
                pkt: Packet,
                meta: &ArrivalMeta,
            ) -> HookVerdict {
                if meta.overheard {
                    *self.overheard.borrow_mut() += 1;
                }
                HookVerdict::Pass(pkt)
            }
        }
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let c = sim.add_host("c", 3);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b, c]);
        sim.compute_routes();
        let got = Rc::new(RefCell::new(Vec::new()));
        let heard = Rc::new(RefCell::new(0));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        let got_c = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(c, Box::new(Sink { got: got_c.clone() }));
        sim.install_hook(
            c,
            Box::new(Spy {
                overheard: heard.clone(),
            }),
        );
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 2);
        assert_eq!(got_c.borrow().len(), 0);
        assert_eq!(*heard.borrow(), 2);
    }

    #[test]
    fn multicast_on_segment_reaches_subscribers() {
        let group = addr(224, 0, 0, 5);
        let mut sim = Sim::new(1);
        let src = sim.add_host("src", 1);
        let b = sim.add_host("b", 2);
        let c = sim.add_host("c", 3);
        let d = sim.add_host("d", 4);
        let seg = sim.add_link(LinkSpec::ethernet_10(), &[src, b, c, d]);
        sim.compute_routes();
        sim.add_mcast_route(src, group, seg);
        sim.subscribe(b, group);
        sim.subscribe(c, group);
        let gb = Rc::new(RefCell::new(Vec::new()));
        let gc = Rc::new(RefCell::new(Vec::new()));
        let gd = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: gb.clone() }));
        sim.add_app(c, Box::new(Sink { got: gc.clone() }));
        sim.add_app(d, Box::new(Sink { got: gd.clone() }));
        sim.add_app(
            src,
            Box::new(Source {
                dst: group,
                n: 1,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(gb.borrow().len(), 1);
        assert_eq!(gc.borrow().len(), 1);
        assert_eq!(gd.borrow().len(), 0, "non-subscriber ignores multicast");
    }

    #[test]
    fn multicast_forwarding_through_router() {
        let group = addr(224, 1, 1, 1);
        let mut sim = Sim::new(1);
        let src = sim.add_host("src", 1);
        let r = sim.add_router("r", 2);
        let dst = sim.add_host("dst", 3);
        let l1 = sim.add_link(LinkSpec::ethernet_10(), &[src, r]);
        let l2 = sim.add_link(LinkSpec::ethernet_10(), &[r, dst]);
        sim.compute_routes();
        sim.add_mcast_route(src, group, l1);
        sim.add_mcast_route(r, group, l2);
        sim.subscribe(dst, group);
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(dst, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            src,
            Box::new(Source {
                dst: group,
                n: 4,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 4);
    }

    #[test]
    fn hook_can_consume_and_rewrite() {
        struct Redirect {
            to: u32,
        }
        impl PacketHook for Redirect {
            fn on_packet(
                &mut self,
                api: &mut NodeApi<'_>,
                mut pkt: Packet,
                meta: &ArrivalMeta,
            ) -> HookVerdict {
                if meta.overheard {
                    return HookVerdict::Pass(pkt);
                }
                pkt.ip.dst = self.to;
                pkt.ip.ttl -= 1;
                api.send(pkt);
                HookVerdict::Handled
            }
        }
        let (mut sim, a, r, b) = two_hosts_one_router();
        // Add a third host; the router rewrites everything toward it.
        let c = sim.add_host("c", addr(10, 0, 2, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[r, c]);
        sim.compute_routes();
        sim.install_hook(
            r,
            Box::new(Redirect {
                to: addr(10, 0, 2, 1),
            }),
        );
        let got_b = Rc::new(RefCell::new(Vec::new()));
        let got_c = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got_b.clone() }));
        sim.add_app(c, Box::new(Sink { got: got_c.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got_b.borrow().len(), 0);
        assert_eq!(got_c.borrow().len(), 2);
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
    fn cpu_model_serializes_processing() {
        // 100 packets, 1 ms of CPU each: the last one is handled ~100 ms
        // after the first arrival, far later than wire time alone.
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_100(), &[a, b]);
        sim.compute_routes();
        sim.set_cpu(
            b,
            crate::node::CpuModel {
                per_packet: Duration::from_millis(1),
                queue_cap: 1000,
            },
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 100,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_ms(50));
        let at_50ms = got.borrow().len();
        assert!(at_50ms < 60, "CPU should pace deliveries, got {at_50ms}");
        sim.run_until(SimTime::from_ms(200));
        assert_eq!(got.borrow().len(), 100);
    }

    #[test]
    fn cpu_queue_overflow_drops() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_100(), &[a, b]);
        sim.compute_routes();
        sim.set_cpu(
            b,
            crate::node::CpuModel {
                per_packet: Duration::from_millis(10),
                queue_cap: 5,
            },
        );
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 50,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.node(b).cpu_drops > 0);
        assert_eq!(sim.node(b).cpu_drops + sim.node(b).delivered, 50);
    }

    #[test]
    fn alias_routes_follow_their_target() {
        // Explicit routes send traffic for an alias address along the
        // path toward the target node, as a gateway's virtual-server
        // address is routed (section 3.2).
        let (mut sim, a, r, b) = two_hosts_one_router();
        let alias = addr(99, 9, 9, 9);
        sim.add_route(a, alias, r);
        sim.add_route(r, alias, b);
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: alias,
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_ms(200));
        // The packets reach b's router; b itself has no alias route and,
        // being a host, drops traffic not addressed to it — but the
        // router forwarded it onto b's link, so b *received* it.
        assert_eq!(got.borrow().len(), 0); // not addressed to b
        assert_eq!(sim.node(b).dropped, 2); // but it arrived at b
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
        sim.apply_fault_plan(crate::fault::FaultPlan::new().crash_restart(0.0, 0.1, r));
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
        sim.set_link_faults(l, crate::fault::LinkFaults::loss(0.5));
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
        let lost = sim.fault_stats.loss_drops;
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
            crate::fault::LinkFaults {
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
        assert_eq!(sim.fault_stats.duplicated, 5);
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
            crate::fault::LinkFaults {
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
        assert_eq!(sim.fault_stats.corrupted, 3);
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
            crate::fault::FaultPlan::new()
                .at(0.0, crate::fault::FaultAction::LinkDown { link: l })
                .at(0.5, crate::fault::FaultAction::LinkUp { link: l }),
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
        assert!(sim.fault_stats.link_down_drops >= 3);
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
        assert!(sim.fault_stats.partition_drops >= 2);
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
        sim.apply_fault_plan(crate::fault::FaultPlan::new().crash_restart(0.1, 0.3, r));
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
        assert_eq!(sim.fault_stats.crashes, 1);
        assert_eq!(sim.fault_stats.restarts, 1);
    }

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
    fn fault_runs_are_deterministic() {
        let run = |seed: u64| -> (u64, u64, u64) {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a", 1);
            let b = sim.add_host("b", 2);
            let l = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
            sim.compute_routes();
            sim.set_link_faults(
                l,
                crate::fault::LinkFaults {
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
                sim.fault_stats.loss_drops,
                sim.fault_stats.corrupted,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
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

    /// The copies of a segment transmission travel as one event, and
    /// leave every key where one event per copy leaves it: the clock,
    /// the number of the event last processed, the next number to be
    /// drawn, the logical event count. An impairment too small ever to
    /// fire keeps the other run on the per-copy path.
    #[test]
    fn merged_arrivals_keep_the_keys_of_one_event_per_copy() {
        let run = |faults: LinkFaults| {
            let mut sim = Sim::new(1);
            let hosts: Vec<NodeId> = (1..=5).map(|i| sim.add_host(&format!("h{i}"), i)).collect();
            let seg = sim.add_link(LinkSpec::ethernet_10(), &hosts);
            sim.compute_routes();
            sim.set_link_faults(seg, faults);
            sim.add_app(
                hosts[1],
                Box::new(Source {
                    dst: 4,
                    n: 2,
                    size: 100,
                }),
            );
            let ran = sim.run_to_idle(u64::MAX);
            assert_eq!(
                (sim.node(hosts[3]).delivered, sim.packets_at_rest()),
                (2, 0)
            );
            let keys = (ran, sim.now, sim.now_seq, sim.sched.draw_tx());
            (keys, sim.events_elided)
        };
        let never = LinkFaults::loss(f64::MIN_POSITIVE);
        let ((per_copy, none), (merged, some)) = (run(never), run(LinkFaults::default()));
        assert_eq!(per_copy.0, 10, "two completions, eight copies");
        assert_eq!(merged, per_copy);
        assert_eq!((none, some), (0, 6), "three of four copies merged");
    }

    /// Addressed to a node the segment does not reach, every copy is an
    /// overheard one nobody needs: the transmission's slot is released
    /// all the same, as the last copy's `Arrive` would have.
    #[test]
    fn a_transmission_nobody_needs_a_copy_of_releases_its_slot() {
        let mut sim = Sim::new(1);
        let hosts: Vec<NodeId> = (1..=4).map(|i| sim.add_host(&format!("h{i}"), i)).collect();
        let seg = sim.add_link(LinkSpec::ethernet_10(), &hosts[..3]);
        let pkt = Packet::udp(1, 4, 1, 2, Bytes::new());
        sim.enqueue_on_link(seg, hosts[0], Some(hosts[3]), pkt);
        assert_eq!(sim.packets_at_rest(), 1);
        assert_eq!(sim.run_to_idle(u64::MAX), 3, "a completion, two copies");
        assert_eq!((sim.packets_at_rest(), sim.total_node_drops), (0, 0));
    }
}
