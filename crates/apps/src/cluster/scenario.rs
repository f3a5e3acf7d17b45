//! The cluster overload experiment: a Zipf flash crowd over tens of
//! heterogeneous backends with rolling crashes.
//!
//! Topology:
//!
//! ```text
//!   c0..cN ── agg ══ gw ── b00..bM     (clients / forwarder / gateway / backends)
//! ```
//!
//! Open-loop clients send keyed, priority-classed, deadline-stamped
//! requests at a base rate, then a *flash crowd* window multiplies the
//! rate past the cluster's aggregate capacity while a PR 5 fault plan
//! rolls crash/restart cycles through the backends. Three layers defend
//! the admitted work:
//!
//! 1. the **agg** router runs a PLAN-P forwarder ASP under admission
//!    control ([`LayerConfig::admission`]) — expired deadlines and
//!    browned-out priority classes are dropped at the first hop, before
//!    the VM runs;
//! 2. the **gw** router runs the [`ClusterGateway`]: bounded-load
//!    consistent hashing, per-backend circuit breakers, and
//!    backpressure shedding;
//! 3. the [`BrownoutController`], fed by the [`HealthMonitor`]'s
//!    windowed saturation rule, steps the degradation level that both
//!    of the above read — shed low classes first, restore
//!    hysteretically.
//!
//! The run is deterministic end to end: byte-identical metrics
//! snapshots, breaker transition logs, and brownout logs across
//! repeated runs (and identical transition logs across the interpreter
//! and the JIT, since engine choice never shifts simulated time).

use super::gateway::{BackendSpec, ClusterGateway};
use netsim::digest::Fnv;
use netsim::node::CpuModel;
use netsim::packet::{addr, Packet};
use netsim::{App, FaultPlan, LinkSpec, NodeApi, Sim, SimTime, Watch};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, Engine, LayerConfig};
use planp_telemetry::{
    BrownoutController, CounterSel, HealthMonitor, Histogram, MetricsSnapshot, SloRule, TraceConfig,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

/// UDP port the cluster serves.
pub const CLUSTER_PORT: u16 = 8080;

/// Zipf skew exponent of the request keys: at 1.1 the hottest key takes
/// several percent of all traffic, enough to need bounded-load diverts.
const ZIPF_S: f64 = 1.1;

/// Per-packet service time of a weight-1 backend (µs); a weight-w
/// backend serves in `1/w` of this.
const BACKEND_BASE_US: u64 = 400;

/// Backend CPU queue capacity, above the gateway's outstanding cap of
/// `12 × weight` for the largest weight (4).
const BACKEND_QUEUE: usize = 64;

/// The plain PLAN-P forwarder installed on the `agg` tier — admission
/// control runs in the layer before this dispatches.
const FORWARDER_ASP: &str = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
   (OnRemote(network, p); (ps, ss))";

/// One cluster run's configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Open-loop client hosts.
    pub clients: u32,
    /// Backend hosts (weights cycle 1, 2, 4; max 64).
    pub backends: u32,
    /// Requests each client sends.
    pub requests_per_client: u64,
    /// Inter-request spacing per client outside the flash window (µs).
    pub base_interval_us: u64,
    /// Inter-request spacing per client inside the flash window (µs).
    pub flash_interval_us: u64,
    /// Flash-crowd window (seconds).
    pub flash_from_s: f64,
    /// End of the flash-crowd window (seconds).
    pub flash_until_s: f64,
    /// Request deadline, stamped into each packet's lineage (ms).
    pub deadline_ms: u64,
    /// Zipf key universe size.
    pub zipf_keys: u32,
    /// Rolling backend crashes (every 4th backend, staggered).
    pub crashes: u32,
    /// First crash time (seconds).
    pub crash_from_s: f64,
    /// Stagger between crashes (seconds).
    pub crash_every_s: f64,
    /// How long each crashed backend stays down (seconds).
    pub crash_down_s: f64,
    /// Total simulated time (seconds) — leave room to drain.
    pub duration_s: u64,
    /// Random seed.
    pub seed: u64,
    /// Execution engine for the forwarder ASP.
    pub engine: Engine,
    /// Trace configuration (off by default).
    pub trace: TraceConfig,
    /// Health-monitor window (ms); drives the brownout controller.
    pub monitor_ms: u64,
    /// Gateway saturation sheds per monitor window that count as a
    /// breach (the brownout controller's step-up signal).
    pub saturation_ceiling: u64,
}

impl ClusterConfig {
    /// The full bench shape: 1M requests from 8 clients over 24
    /// backends (aggregate capacity ≈ 140k rps), a 5 s flash crowd at
    /// 160k rps, and 6 rolling crashes inside it.
    pub fn standard() -> Self {
        ClusterConfig {
            clients: 8,
            backends: 24,
            requests_per_client: 125_000,
            base_interval_us: 200,
            flash_interval_us: 50,
            flash_from_s: 5.0,
            flash_until_s: 10.0,
            deadline_ms: 200,
            zipf_keys: 1024,
            crashes: 6,
            crash_from_s: 6.0,
            crash_every_s: 0.7,
            crash_down_s: 1.0,
            duration_s: 12,
            seed: 11,
            engine: Engine::Jit,
            trace: TraceConfig::default(),
            monitor_ms: 100,
            saturation_ceiling: 50,
        }
    }

    /// A debug-friendly miniature with the same dynamics: 20k requests
    /// over 8 backends (capacity ≈ 42.5k rps), a flash crowd at ≈ 65k
    /// rps, 2 crashes inside it.
    pub fn smoke() -> Self {
        ClusterConfig {
            clients: 4,
            backends: 8,
            requests_per_client: 5_000,
            base_interval_us: 500,
            flash_interval_us: 60,
            flash_from_s: 0.3,
            flash_until_s: 0.9,
            deadline_ms: 150,
            zipf_keys: 256,
            crashes: 2,
            crash_from_s: 0.35,
            crash_every_s: 0.2,
            crash_down_s: 0.35,
            duration_s: 3,
            seed: 7,
            engine: Engine::Jit,
            trace: TraceConfig::default(),
            monitor_ms: 50,
            saturation_ceiling: 10,
        }
    }
}

/// The cluster SLO rules: the saturation rule drives the brownout
/// controller; the hop-latency ceiling is the "network itself is
/// healthy" control.
fn cluster_slo_rules(saturation_ceiling: u64) -> Vec<SloRule> {
    vec![
        SloRule::CounterCeiling {
            name: "saturation".into(),
            sel: CounterSel::exact("gw.shed_saturated"),
            ceiling: saturation_ceiling,
        },
        SloRule::QuantileCeiling {
            name: "hop_p99".into(),
            hist: "sim.hop_latency_ns".into(),
            q_pm: 990,
            ceiling: 50_000_000,
        },
    ]
}

/// Scaled cumulative Zipf distribution over `n` keys.
fn zipf_cdf(n: u32, s: f64) -> Vec<u64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / f64::from(r).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut out: Vec<u64> = weights
        .iter()
        .map(|w| {
            acc += w;
            ((acc / total) * u64::MAX as f64) as u64
        })
        .collect();
    *out.last_mut().expect("n ≥ 1") = u64::MAX;
    out
}

/// What the clients saw, shared across all of them.
#[derive(Debug, Default)]
struct ClientStats {
    sent: u64,
    completed: u64,
    completed_by_class: [u64; 4],
    /// Request→response latency (ns).
    latency: Histogram,
}

/// Open-loop request source: priority classes cycle 0..4, keys are
/// Zipf-distributed, every request carries an absolute deadline.
struct ClusterClient {
    idx: u32,
    gw_addr: u32,
    total: u64,
    sent: u64,
    base_ns: u64,
    flash_ns: u64,
    flash_from_ns: u64,
    flash_until_ns: u64,
    deadline_ns: u64,
    cdf: Rc<Vec<u64>>,
    stats: Rc<RefCell<ClientStats>>,
}

impl App for ClusterClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Stagger the open loops so they never phase-lock.
        api.set_timer(Duration::from_micros(1 + u64::from(self.idx) * 7), 0);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(hdr) = pkt.udp_hdr() else { return };
        if hdr.sport != CLUSTER_PORT || pkt.payload.len() < 18 {
            return;
        }
        let t_send = u64::from_be_bytes(pkt.payload[9..17].try_into().expect("8 bytes"));
        let class = usize::from(pkt.payload[17]).min(3);
        let mut s = self.stats.borrow_mut();
        s.completed += 1;
        s.completed_by_class[class] += 1;
        s.latency
            .observe(api.now().as_nanos().saturating_sub(t_send));
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.sent >= self.total {
            return;
        }
        let now_ns = api.now().as_nanos();
        let prio = (self.sent % 4) as u8;
        let req_id = (u64::from(self.idx) << 40) | self.sent;
        let u = api.rand_below(u64::MAX);
        let key = self.cdf.partition_point(|&c| c <= u) as u64;

        let mut payload = Vec::with_capacity(25);
        payload.push(prio);
        payload.extend_from_slice(&req_id.to_be_bytes());
        payload.extend_from_slice(&key.to_be_bytes());
        payload.extend_from_slice(&now_ns.to_be_bytes());
        let mut pkt = Packet::udp(
            api.addr(),
            self.gw_addr,
            40_000 + self.idx as u16,
            CLUSTER_PORT,
            payload.into(),
        );
        pkt.lineage.deadline_ns = now_ns + self.deadline_ns;
        api.send(pkt);
        self.sent += 1;
        self.stats.borrow_mut().sent += 1;

        let interval = if now_ns >= self.flash_from_ns && now_ns < self.flash_until_ns {
            self.flash_ns
        } else {
            self.base_ns
        };
        let jitter = api.rand_below(interval / 16 + 1);
        api.set_timer(Duration::from_nanos(interval + jitter), 0);
    }

    fn digest(&self, h: &mut Fnv) {
        let _ = write!(h, "{} {:?}", self.sent, self.stats.borrow());
    }
}

/// Stateless responder: echoes the request id and send timestamp back
/// to the requester. The response's priority byte is forced to gold
/// (255) so admission control never sheds the second half of work the
/// cluster already paid for.
struct ClusterBackend;

impl App for ClusterBackend {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(hdr) = pkt.udp_hdr().copied() else {
            return;
        };
        if hdr.dport != CLUSTER_PORT || pkt.payload.len() < 25 {
            return;
        }
        let mut resp = Vec::with_capacity(18);
        resp.push(255);
        resp.extend_from_slice(&pkt.payload[1..9]);
        resp.extend_from_slice(&pkt.payload[17..25]);
        resp.push(pkt.payload[0]);
        let out = Packet::udp(api.addr(), pkt.ip.src, CLUSTER_PORT, hdr.sport, resp.into());
        api.send(out);
    }

    // Stateless: each request is answered on its own.
    fn digest(&self, _: &mut Fnv) {}
}

/// What one cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Requests the clients sent.
    pub sent: u64,
    /// Requests the gateway forwarded to a backend.
    pub admitted: u64,
    /// Responses that made it back to a client.
    pub completed: u64,
    /// Completions by priority class (0 = shed first).
    pub completed_by_class: [u64; 4],
    /// `completed / admitted` — the floor is over *admitted* work; shed
    /// requests were refused, not lost.
    pub delivery_admitted: f64,
    /// Brownout/deadline sheds at the agg forwarder tier (pre-VM).
    pub agg_shed: u64,
    /// Deadline-expired drops at the agg forwarder tier.
    pub agg_expired: u64,
    /// Gateway brownout-class sheds.
    pub shed_brownout: u64,
    /// Gateway sheds with every backend full or broken.
    pub shed_saturated: u64,
    /// Gateway CPU-backpressure sheds.
    pub shed_queue: u64,
    /// Deadline-expired drops at the gateway.
    pub gw_expired: u64,
    /// Outstanding-request timeouts at the gateway.
    pub timeouts: u64,
    /// Half-open probes sent.
    pub probes: u64,
    /// Breaker transitions to open.
    pub opens: u64,
    /// Requests forwarded while a breaker was not closed (must equal
    /// `probes`: corpse traffic is probe-only by construction).
    pub sent_while_broken: u64,
    /// Byte-stable breaker transition log.
    pub transitions_log: String,
    /// Byte-stable brownout transition log.
    pub brownout_log: String,
    /// Highest brownout level reached.
    pub max_brownout: u32,
    /// Brownout level when the run ended (0 = fully restored).
    pub final_brownout: u32,
    /// Client-observed latency quantiles (ns).
    pub latency_p50_ns: u64,
    /// 99th percentile client latency (ns).
    pub latency_p99_ns: u64,
    /// 99.9th percentile client latency (ns).
    pub latency_p999_ns: u64,
    /// Packets dropped at crashed backends while they were down — the
    /// "corpse traffic" the breakers exist to eliminate.
    pub corpse_drops: u64,
    /// Node crashes from the fault schedule.
    pub crashes: u64,
    /// Engine-wide node-drop total.
    pub total_node_drops: u64,
    /// Σ per-node `dropped + cpu_drops + shed`.
    pub sum_node_drops: u64,
    /// Engine-wide link-drop total.
    pub total_link_drops: u64,
    /// Σ per-link congestion drops.
    pub sum_link_drops: u64,
    /// Σ per-link fault-injected drops.
    pub sum_fault_drops: u64,
    /// Breached monitor windows.
    pub breaches: u64,
    /// The monitor's byte-stable windowed report.
    pub health_report: String,
    /// Flight-recorder dumps (crashes + first breach), with overload
    /// posture stamped into each header.
    pub flight: String,
    /// Final metrics snapshot (byte-stable for a given seed).
    pub snapshot: MetricsSnapshot,
    /// How many of the snapshot's `sim.events_processed` were link
    /// completions the simulator never queued ([`Sim::events_elided`]).
    /// A cost figure, not behaviour: no report prints it.
    pub events_elided: u64,
}

impl ClusterResult {
    /// Node-level companion of the link drop identity: every node drop
    /// is a routing drop, a CPU overflow, or a deliberate shed —
    /// counted exactly once.
    pub fn node_drop_identity_holds(&self) -> bool {
        self.total_node_drops == self.sum_node_drops
    }

    /// The PR 5 link-level drop identity.
    pub fn link_drop_identity_holds(&self) -> bool {
        self.total_link_drops == self.sum_link_drops + self.sum_fault_drops
    }

    /// Corpse traffic is probe-only: while a breaker is open the only
    /// packets toward that backend are half-open probes.
    pub fn corpse_traffic_probe_only(&self) -> bool {
        self.sent_while_broken == self.probes
    }
}

/// Runs one cluster overload experiment.
///
/// # Panics
///
/// Panics if the forwarder ASP fails to verify or install (it is a
/// bundled constant, so this means the toolchain itself is broken).
pub fn run_cluster(cfg: &ClusterConfig) -> ClusterResult {
    let (mut sim, read) = cluster_sim(cfg);
    sim.run_until(SimTime::from_secs(cfg.duration_s));
    read(sim)
}

/// The cluster run of `cfg`, ready to run (crashes scheduled), and the
/// reader of [`run_cluster`]'s result once it has run.
pub fn cluster_sim(cfg: &ClusterConfig) -> (Sim, impl FnOnce(Sim) -> ClusterResult) {
    let mut sim = Sim::new(cfg.seed);
    sim.telemetry.trace.configure(cfg.trace);

    let agg = sim.add_router("agg", addr(10, 0, 0, 254));
    let gw = sim.add_router("gw", addr(10, 0, 0, 253));
    let gw_addr = addr(10, 0, 0, 253);
    sim.add_link(
        LinkSpec {
            kbps: 1_000_000,
            delay: Duration::from_micros(20),
            queue_pkts: 512,
        },
        &[agg, gw],
    );
    sim.set_cpu(
        gw,
        CpuModel {
            per_packet: Duration::from_micros(2),
            queue_cap: 1024,
        },
    );

    let client_stats = Rc::new(RefCell::new(ClientStats::default()));
    let cdf = Rc::new(zipf_cdf(cfg.zipf_keys.max(1), ZIPF_S));
    let mut client_ids = Vec::new();
    for i in 0..cfg.clients {
        let c = sim.add_host(&format!("c{i}"), addr(10, 1, 0, (i + 1) as u8));
        sim.add_link(LinkSpec::ethernet_100(), &[c, agg]);
        client_ids.push(c);
    }

    let mut backend_ids = Vec::new();
    let mut specs = Vec::new();
    for i in 0..cfg.backends {
        let name = format!("b{i:02}");
        let a = addr(10, 2, 0, (i + 1) as u8);
        let b = sim.add_host(&name, a);
        sim.add_link(LinkSpec::ethernet_100(), &[gw, b]);
        let weight = [1u32, 2, 4][(i % 3) as usize];
        sim.set_cpu(
            b,
            CpuModel {
                per_packet: Duration::from_nanos(BACKEND_BASE_US * 1_000 / u64::from(weight)),
                queue_cap: BACKEND_QUEUE,
            },
        );
        sim.add_app(b, Box::new(ClusterBackend));
        specs.push(BackendSpec {
            name,
            addr: a,
            weight,
        });
        backend_ids.push(b);
    }
    sim.compute_routes();

    // Tier 1: the PLAN-P forwarder under admission control — deadline
    // and brownout enforcement at the first hop, before the VM runs.
    let image = load(FORWARDER_ASP, Policy::strict()).expect("forwarder ASP verifies");
    let handle = install_planp(
        &mut sim,
        agg,
        &image,
        LayerConfig {
            engine: cfg.engine,
            admission: true,
            ..LayerConfig::default()
        },
    )
    .expect("forwarder installs");

    // Tier 2: the bounded-load consistent-hash gateway with breakers.
    let gateway = ClusterGateway::new(specs, &mut sim.telemetry);
    let gw_stats = gateway.stats.clone();
    sim.install_hook(gw, Box::new(gateway));

    for (i, &c) in client_ids.iter().enumerate() {
        sim.add_app(
            c,
            Box::new(ClusterClient {
                idx: i as u32,
                gw_addr,
                total: cfg.requests_per_client,
                sent: 0,
                base_ns: cfg.base_interval_us * 1_000,
                flash_ns: cfg.flash_interval_us * 1_000,
                flash_from_ns: (cfg.flash_from_s * 1e9) as u64,
                flash_until_ns: (cfg.flash_until_s * 1e9) as u64,
                deadline_ns: cfg.deadline_ms * 1_000_000,
                cdf: cdf.clone(),
                stats: client_stats.clone(),
            }),
        );
    }

    // Tier 3: rolling crashes + the monitor-driven brownout controller.
    let mut plan = FaultPlan::new();
    let mut crash_targets = Vec::new();
    for i in 0..cfg.crashes {
        let idx = (i as usize * 4) % backend_ids.len();
        let t = cfg.crash_from_s + f64::from(i) * cfg.crash_every_s;
        plan = plan.crash_restart(t, t + cfg.crash_down_s, backend_ids[idx]);
        crash_targets.push(backend_ids[idx].0);
    }
    sim.apply_fault_plan(plan);

    let mut mon = HealthMonitor::new(cfg.monitor_ms.max(1) * 1_000_000);
    for rule in cluster_slo_rules(cfg.saturation_ceiling) {
        mon = mon.rule(rule);
    }
    mon.dump_on_breach = vec![gw.0 as u32];
    sim.instruments.watch = Some(Watch::new(mon, Some(BrownoutController::default())));

    let read = move |mut sim: Sim| {
        let watch = sim.instruments.watch.take().expect("installed above");
        let (mon, brownout) = (watch.monitor, watch.brownout.expect("installed above"));
        let mut brownout_log = String::new();
        let mut max_brownout = 0;
        for (t_ns, from, to, rule) in brownout.transitions() {
            max_brownout = max_brownout.max(*to);
            let _ = writeln!(brownout_log, "t_ns={t_ns} {from} -> {to} rule={rule}");
        }
        let corpse_drops = sim
            .nodes()
            .enumerate()
            .filter(|(i, _)| crash_targets.contains(i))
            .map(|(_, n)| n.dropped)
            .sum();

        let g = gw_stats.borrow();
        let c = client_stats.borrow();
        let layer = handle.stats(&sim.telemetry);
        let gw_count = |what: &str| sim.telemetry.metrics.counter(&format!("gw.{what}"));
        let admitted = gw_count("admitted");
        ClusterResult {
            sent: c.sent,
            admitted,
            completed: c.completed,
            completed_by_class: c.completed_by_class,
            delivery_admitted: c.completed as f64 / admitted.max(1) as f64,
            agg_shed: layer.shed,
            agg_expired: layer.deadline_expired,
            shed_brownout: gw_count("shed_brownout"),
            shed_saturated: gw_count("shed_saturated"),
            shed_queue: gw_count("shed_queue"),
            gw_expired: gw_count("expired"),
            timeouts: gw_count("timeouts"),
            probes: gw_count("probes"),
            opens: g.opens(),
            sent_while_broken: g.sent_while_broken,
            transitions_log: g.transitions_log(),
            brownout_log,
            max_brownout,
            final_brownout: brownout.level(),
            latency_p50_ns: c.latency.percentile(50),
            latency_p99_ns: c.latency.percentile(99),
            latency_p999_ns: c.latency.percentile_permille(999),
            corpse_drops,
            crashes: sim.nodes().map(|n| n.crashes).sum(),
            total_node_drops: sim.total_node_drops,
            sum_node_drops: sim.nodes().map(|n| n.dropped + n.cpu_drops + n.shed).sum(),
            total_link_drops: sim.total_link_drops,
            sum_link_drops: sim.links().map(|l| l.drops).sum(),
            sum_fault_drops: sim.links().map(|l| l.fault_drops).sum(),
            breaches: mon.breaches(),
            health_report: mon.render_report(),
            flight: sim.telemetry.flight.render_dumps(&sim.telemetry.nodes),
            snapshot: sim.metrics_snapshot(),
            events_elided: sim.events_elided(),
        }
    };
    (sim, read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_telemetry::Category;

    #[test]
    fn smoke_cluster_protects_admitted_work() {
        let res = run_cluster(&ClusterConfig::smoke());
        assert_eq!(res.sent, 20_000);
        assert!(res.admitted > 0 && res.completed > 0);
        assert!(
            res.delivery_admitted >= 0.99,
            "admitted work must be served: {res:?}"
        );
        assert_eq!(res.crashes, 2);
        assert!(res.opens >= 1, "crashes must open breakers: {res:?}");
        assert!(res.corpse_traffic_probe_only(), "{res:?}");
        assert!(res.node_drop_identity_holds(), "{res:?}");
        assert!(res.link_drop_identity_holds(), "{res:?}");
        // Every crash dump carries the overload state alongside the
        // frozen event window: the brownout level and any non-closed
        // breakers at the instant of the dump.
        assert!(
            res.flight.contains("cause=crash") && res.flight.contains("state=brownout="),
            "crash dumps must carry the overload state:\n{}",
            res.flight
        );
    }

    #[test]
    fn smoke_cluster_brownout_engages_and_recovers() {
        let res = run_cluster(&ClusterConfig::smoke());
        assert!(
            res.max_brownout >= 1,
            "the flash crowd must trip the controller: {}",
            res.health_report
        );
        assert_eq!(
            res.final_brownout, 0,
            "service must be fully restored: {}",
            res.brownout_log
        );
        // Degradation is ordered: gold (class 3) completes at least as
        // often as the shed-first class 0.
        assert!(res.completed_by_class[3] >= res.completed_by_class[0]);
    }

    #[test]
    fn smoke_cluster_is_deterministic() {
        let a = run_cluster(&ClusterConfig::smoke());
        let b = run_cluster(&ClusterConfig::smoke());
        assert_eq!(a.snapshot.render_table(), b.snapshot.render_table());
        assert_eq!(a.transitions_log, b.transitions_log);
        assert_eq!(a.brownout_log, b.brownout_log);
        assert_eq!(a.latency_p99_ns, b.latency_p99_ns);
        assert_eq!(a.flight, b.flight);
    }

    /// Where the simulator's saving comes from: with link tracing off a
    /// third of the run's events are completions nothing waits behind,
    /// and they never enter the event queue; with it on every completion
    /// owes a `link_tx` event and none is elided. Same run either way.
    #[test]
    fn smoke_cluster_elides_a_third_of_its_events_unless_links_are_traced() {
        let plain = run_cluster(&ClusterConfig::smoke());
        let events = plain.snapshot.counters["sim.events_processed"];
        assert!(
            plain.events_elided * 10 > events * 3,
            "{} of {events} events elided",
            plain.events_elided
        );
        let traced = run_cluster(&ClusterConfig {
            trace: TraceConfig {
                categories: Category::LINK,
                capacity: 1 << 20,
                ..TraceConfig::default()
            },
            ..ClusterConfig::smoke()
        });
        assert_eq!(traced.events_elided, 0);
        assert_eq!(traced.snapshot.counters["sim.events_processed"], events);
        assert_eq!(traced.completed, plain.completed);
    }
}
