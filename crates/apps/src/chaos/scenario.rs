//! The chaos experiment harness: a relay chain under seeded fault
//! injection.
//!
//! Topology (per-link impairments apply to every hop):
//!
//! ```text
//!   source ── r1 ── r2 ── r3 ── r4 ── dst      (10 Mb/s links)
//! ```
//!
//! The chain is the registry's `relay_chain` [`TopoSpec`], and the ASP
//! reaches every forwarder through a verified **deployment plan**
//! (`asps/plans/relay_chain_*.plan`): [`planp_runtime::load_plan`] runs
//! the plan-level product check and composes the path CPU budget before
//! anything installs, and [`planp_runtime::install_plan`] wires one
//! [`RecoveryService`](planp_runtime::RecoveryService) per install
//! point whose preflight re-verifies the *plan* — so a crashed node
//! re-downloads, and the whole composition re-proves, when it restarts.
//! The program is either the NACK-driven
//! [`reliable relay`](super::asp::RELIABLE_RELAY_ASP) (loaded under the
//! `authenticated` policy, since its retransmission cycle defeats the
//! termination screen) or its statically spotless, retransmission-free
//! twin [`fragile relay`](super::asp::FRAGILE_RELAY_ASP) — the negative
//! control showing that verifier guarantees say nothing about
//! robustness.

use super::apps::{SeqCollector, SeqSource};
use super::asp::{FRAGILE_RELAY_ASP, RELIABLE_RELAY_ASP};
use crate::plans::{resolve_asp, RELAY_CHAIN_FRAGILE_PLAN, RELAY_CHAIN_RELIABLE_PLAN};
use netsim::{
    FaultAction, FaultPlan, FaultStats, LinkFaults, LinkId, Sim, SimTime, TopoSpec, Watch,
};
use planp_analysis::cost::cost_bounds;
use planp_analysis::Policy;
use planp_lang::compile_front;
use planp_runtime::{install_plan, load_plan, Engine, LayerConfig};
use planp_telemetry::{
    CounterSel, HealthMonitor, MetricsSnapshot, SloRule, TraceConfig, TraceForest,
};
use std::time::Duration;

/// Number of relays between the source and the destination.
const RELAYS: usize = 4;

/// Which relay program the chain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayKind {
    /// `reliable_relay.planp`: per-hop buffering, NACK-driven
    /// retransmission, receiver-side dedup.
    Reliable,
    /// `buggy/fragile_relay.planp`: plain forwarding, no recovery.
    Fragile,
}

impl RelayKind {
    /// The program source.
    pub fn source(self) -> &'static str {
        match self {
            RelayKind::Reliable => RELIABLE_RELAY_ASP,
            RelayKind::Fragile => FRAGILE_RELAY_ASP,
        }
    }

    /// The download policy each node verifies the program under.
    /// The reliable relay needs the paper's authenticated-source escape
    /// hatch (its retransmission cycle is rejected by the conservative
    /// termination screen); the fragile one passes the default policy.
    pub fn policy(self) -> Policy {
        match self {
            RelayKind::Reliable => Policy::authenticated(),
            RelayKind::Fragile => Policy::no_delivery(),
        }
    }

    /// Short name for tables and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            RelayKind::Reliable => "reliable",
            RelayKind::Fragile => "fragile",
        }
    }

    /// The bundled deployment plan that carries this relay across the
    /// chain (see `asps/plans/`).
    pub fn plan(self) -> &'static str {
        match self {
            RelayKind::Reliable => RELAY_CHAIN_RELIABLE_PLAN,
            RelayKind::Fragile => RELAY_CHAIN_FRAGILE_PLAN,
        }
    }
}

/// Datagrams the source sends.
const PACKETS: u64 = 400;
/// Source pacing between datagrams.
const INTERVAL: Duration = Duration::from_millis(2);
/// When the impairments switch on (seconds).
const FAULT_FROM_S: f64 = 0.01;

/// One chaos run's configuration.
#[derive(Debug, Clone)]
pub struct RelayChaosConfig {
    /// Relay program under test.
    pub kind: RelayKind,
    /// Impairments applied to **every** link of the chain (loss
    /// compounds per hop).
    pub faults: LinkFaults,
    /// Crash/restart schedule for the middle relay (`r2`), if any.
    pub crash_relay: Option<(f64, f64)>,
    /// Total simulated time (seconds) — leave room after the last send
    /// for NACK-driven repair to drain.
    pub duration_s: u64,
    /// Random seed (drives load jitter *and* every fault coin flip).
    pub seed: u64,
    /// Execution engine for every installed hook (JIT by default; the
    /// interpreter is the conservative fallback the budgets also cover).
    pub engine: Engine,
    /// Trace configuration (off by default; the health monitor and
    /// flight recorder do not depend on it).
    pub trace: TraceConfig,
    /// Health-monitor window in milliseconds. `Some(ms)` installs the
    /// standard SLO rule set ([`chaos_slo_rules`]) evaluated every `ms`
    /// of simulation time, with the middle relay's flight-recorder
    /// window frozen on the first breach.
    pub monitor_ms: Option<u64>,
}

impl RelayChaosConfig {
    /// The standard run: 400 packets at 2 ms spacing, impairments from
    /// t=0.01 s, 5 s total.
    pub fn new(kind: RelayKind, faults: LinkFaults) -> Self {
        RelayChaosConfig {
            kind,
            faults,
            crash_relay: None,
            duration_s: 5,
            seed: 7,
            engine: Engine::Jit,
            trace: TraceConfig::default(),
            monitor_ms: None,
        }
    }

    /// The standard run with Bernoulli loss `p` on every link.
    pub fn loss(kind: RelayKind, p: f64) -> Self {
        RelayChaosConfig::new(kind, LinkFaults::loss(p))
    }
}

/// The standard chaos SLO rule set, windowed over the monitor interval:
///
/// * `delivery_floor` — distinct sequences reaching the collector per
///   first transmission must stay ≥ 95% per window (the PR 5 headline:
///   the reliable relay holds this under 5% per-link loss, the fragile
///   one violates it at 10%).
/// * `hop_p99` — 99th-percentile link hop latency (enqueue →
///   tx-complete) per window, capped at 50 ms.
/// * `queue_p99` — 99th-percentile link queue depth at enqueue, capped
///   at 48 packets (the chain's queues hold 64).
/// * `fault_drop_burst` — fault-injected link drops per window, capped
///   at 200 (a whole-window partition trips it; steady Bernoulli loss
///   does not).
pub fn chaos_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule::RatioFloor {
            name: "delivery_floor".into(),
            num: CounterSel::exact(super::apps::UNIQUE_COUNTER),
            den: CounterSel::exact(super::apps::SENT_COUNTER),
            floor_ppm: 950_000,
            min_den: 20,
        },
        SloRule::QuantileCeiling {
            name: "hop_p99".into(),
            hist: "sim.hop_latency_ns".into(),
            q_pm: 990,
            ceiling: 50_000_000,
        },
        SloRule::QuantileCeiling {
            name: "queue_p99".into(),
            hist: "sim.queue_depth".into(),
            q_pm: 990,
            ceiling: 48,
        },
        SloRule::CounterCeiling {
            name: "fault_drop_burst".into(),
            sel: CounterSel::wildcard("link", ".fault_drops"),
            ceiling: 200,
        },
    ]
}

/// What the health monitor saw during a chaos run (present when
/// [`RelayChaosConfig::monitor_ms`] was set).
#[derive(Debug, Clone)]
pub struct ChaosHealth {
    /// The monitor's byte-stable windowed report.
    pub report: String,
    /// Breached windows across every rule.
    pub breaches: u64,
    /// Breached windows of the `delivery_floor` rule alone.
    pub delivery_breaches: u64,
    /// Whether the last judged delivery window was back above the
    /// floor — the recovery signal after an outage.
    pub delivery_recovered: Option<bool>,
    /// Flight-recorder dumps (crashes and the first SLO breach),
    /// rendered byte-stably.
    pub flight: String,
}

/// What one chaos run produced.
#[derive(Debug, Clone)]
pub struct RelayChaosResult {
    /// First transmissions from the source.
    pub sent: u64,
    /// Source retransmissions (NACKs that travelled all the way back).
    pub retransmits: u64,
    /// Deliberate source re-sends of the final sequence.
    pub tail_resends: u64,
    /// Distinct sequence numbers the destination application received.
    pub unique: u64,
    /// Duplicate deliveries seen by the destination application.
    pub duplicates: u64,
    /// Deliveries with corrupted filler bytes.
    pub mangled: u64,
    /// `unique / packets`.
    pub delivery_ratio: f64,
    /// Successful post-restart re-deployments across all nodes.
    pub redeploys: u64,
    /// Failed (re-)deployments across all nodes.
    pub recovery_failures: u64,
    /// Node crashes (from the fault schedule).
    pub crashes: u64,
    /// Crashes that discarded an installed protocol.
    pub state_lost: u64,
    /// Engine-wide fault counters.
    pub fault: FaultStats,
    /// Engine-wide drop total (congestion + fault).
    pub total_link_drops: u64,
    /// Σ per-link congestion drops.
    pub sum_link_drops: u64,
    /// Σ per-link fault-injected drops.
    pub sum_fault_drops: u64,
    /// Engine-wide node drop total (policy + CPU overflow + shed).
    pub total_node_drops: u64,
    /// Σ per-node `dropped + cpu_drops + shed`.
    pub sum_node_drops: u64,
    /// Static per-packet send bound of the program's data path — the
    /// linearity bound that caps duplicate amplification.
    pub sends_bound: u64,
    /// The plan verifier's composed worst-case per-packet VM budget
    /// over the chain's declared path (source → dst).
    pub plan_budget: u64,
    /// Costliest traced causal chain in VM steps (max root-to-leaf sum
    /// of per-span `vm_steps`; 0 when tracing was off). For plain
    /// forwarding this is bounded by the composed plan budget above by
    /// construction.
    pub max_path_vm_steps: u64,
    /// Final metrics snapshot (byte-stable for a given seed + plan).
    pub snapshot: MetricsSnapshot,
    /// Health-monitor outcome, when one was configured.
    pub health: Option<ChaosHealth>,
}

impl RelayChaosResult {
    /// The engine-wide drop-accounting identity: every drop is either a
    /// congestion drop or a fault drop, counted exactly once.
    pub fn drop_identity_holds(&self) -> bool {
        self.total_link_drops == self.sum_link_drops + self.sum_fault_drops
    }

    /// The node-side companion identity: every drop charged to a node is
    /// a policy drop, a CPU-queue overflow, or an admission shed at that
    /// node — counted once, never folded into the link accounting.
    pub fn node_drop_identity_holds(&self) -> bool {
        self.total_node_drops == self.sum_node_drops
    }

    /// The duplicate-amplification invariant: the program's data path
    /// executes at most `sends_bound` sends per packet (statically
    /// proved), so beyond the copies the *source itself* chose to
    /// re-send (tail protection and NACK-triggered retransmissions),
    /// the application can see at most `sends_bound` duplicate
    /// deliveries per in-flight duplication event — the network never
    /// amplifies on its own.
    pub fn duplicates_within_bound(&self) -> bool {
        let deliberate = self.tail_resends + self.retransmits;
        self.duplicates <= self.fault.duplicated * self.sends_bound + deliberate
    }
}

/// Runs one relay chaos experiment.
///
/// # Panics
///
/// Panics if the selected ASP fails to compile (the static send bound is
/// computed from its front-end output).
pub fn run_relay_chaos(cfg: &RelayChaosConfig) -> RelayChaosResult {
    let (mut sim, read) = relay_chaos_sim(cfg);
    sim.run_until(SimTime::from_secs(cfg.duration_s));
    read(sim)
}

/// The chaos run of `cfg`, ready to run (faults scheduled), and the
/// reader of [`run_relay_chaos`]'s result once it has run.
pub fn relay_chaos_sim(cfg: &RelayChaosConfig) -> (Sim, impl FnOnce(Sim) -> RelayChaosResult) {
    let mut sim = Sim::new(cfg.seed);
    sim.telemetry.trace.configure(cfg.trace);

    // The chain is the registry's canonical `relay_chain` topology —
    // the same structure the deployment plan was verified over.
    let topo = TopoSpec::named("relay_chain").expect("registered topology");
    let ids = topo.build(&mut sim);
    let source = ids[0];
    let relays = &ids[1..=RELAYS];
    let dst = ids[RELAYS + 1];
    let dst_addr = topo.nodes[RELAYS + 1].addr;
    let link_count = topo.links.len();

    // The ASP reaches every forwarder through the verified deployment
    // plan: the plan-level product check and composed path budget ran
    // in `load_plan`, and each install point's recovery preflight
    // re-verifies the plan on crash/restart before re-downloading.
    let image = load_plan(cfg.kind.plan(), &resolve_asp).expect("bundled plan loads");
    let plan_budget = image.report.max_budget();
    let logs = install_plan(
        &mut sim,
        &image,
        &ids,
        LayerConfig {
            engine: cfg.engine,
            ..LayerConfig::default()
        },
    )
    .expect("verified plan installs");

    let src_app = SeqSource::new(dst_addr, PACKETS, INTERVAL);
    let src_stats = src_app.stats.clone();
    sim.add_app(source, Box::new(src_app));
    let collector = SeqCollector::new();
    let col_stats = collector.stats.clone();
    sim.add_app(dst, Box::new(collector));

    let mut plan = FaultPlan::new();
    if !cfg.faults.is_clean() {
        for l in 0..link_count {
            plan = plan.at(
                FAULT_FROM_S,
                FaultAction::SetLinkFaults {
                    link: LinkId(l),
                    faults: cfg.faults,
                },
            );
        }
    }
    if let Some((crash_s, restart_s)) = cfg.crash_relay {
        plan = plan.crash_restart(crash_s, restart_s, relays[RELAYS / 2]);
    }
    sim.apply_fault_plan(plan);

    if let Some(ms) = cfg.monitor_ms {
        let mut mon = HealthMonitor::new(ms.max(1) * 1_000_000);
        for rule in chaos_slo_rules() {
            mon = mon.rule(rule);
        }
        // The crash schedule targets the middle relay; freeze its
        // recent flight-recorder window on the first breached rule.
        mon.dump_on_breach = vec![relays[RELAYS / 2].0 as u32];
        sim.instruments.watch = Some(Watch::new(mon, None));
    }

    let kind = cfg.kind;
    let read = move |mut sim: Sim| {
        let health = sim
            .instruments
            .watch
            .take()
            .map(|Watch { monitor: mon, .. }| ChaosHealth {
                report: mon.render_report(),
                breaches: mon.breaches(),
                delivery_breaches: mon.breaches_of("delivery_floor"),
                delivery_recovered: mon.last_ok("delivery_floor"),
                flight: sim.telemetry.flight.render_dumps(&sim.telemetry.nodes),
            });

        // Static linearity bound of the data path ("network" channel):
        // the cap on how far an injected duplicate can amplify.
        let prog = compile_front(kind.source()).expect("bundled relay ASP compiles");
        let costs = cost_bounds(&prog);
        let sends_bound = costs
            .channels
            .iter()
            .filter(|c| &*c.name == "network")
            .map(|c| c.bound.sends)
            .max()
            .unwrap_or(0);

        // Observed counterpart of the composed plan budget: the
        // costliest traced causal chain (0 when tracing was off).
        let max_path_vm_steps = TraceForest::from_log(&sim.telemetry.trace).max_path_vm_steps();

        let src_stats = src_stats.borrow();
        let col = col_stats.borrow();
        RelayChaosResult {
            sent: src_stats.sent,
            retransmits: src_stats.retransmits,
            tail_resends: src_stats.tail_resends,
            unique: col.unique,
            duplicates: col.duplicates,
            mangled: col.mangled,
            delivery_ratio: col.unique as f64 / PACKETS as f64,
            redeploys: logs.iter().map(|l| l.borrow().redeploys).sum(),
            recovery_failures: logs.iter().map(|l| l.borrow().failures).sum(),
            crashes: sim.nodes().map(|n| n.crashes).sum(),
            state_lost: sim.nodes().map(|n| n.state_lost).sum(),
            fault: sim.faults.stats,
            total_link_drops: sim.total_link_drops,
            sum_link_drops: sim.links().map(|l| l.drops).sum(),
            sum_fault_drops: sim.links().map(|l| l.fault_drops).sum(),
            total_node_drops: sim.total_node_drops,
            sum_node_drops: sim.nodes().map(|n| n.dropped + n.cpu_drops + n.shed).sum(),
            sends_bound,
            plan_budget,
            max_path_vm_steps,
            snapshot: sim.metrics_snapshot(),
            health,
        }
    };
    (sim, read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::addr;
    use netsim::LinkSpec;

    /// The headline robustness number: hop-by-hop NACK repair holds
    /// delivery at ≥ 99% even though raw loss compounds to ~23% across
    /// the five-link chain.
    #[test]
    fn reliable_relay_holds_under_five_percent_loss() {
        let res = run_relay_chaos(&RelayChaosConfig::loss(RelayKind::Reliable, 0.05));
        assert_eq!(res.sent, 400, "one first transmission per sequence");
        assert!(
            res.delivery_ratio >= 0.99,
            "reliable delivery collapsed: {res:?}"
        );
        assert!(res.fault.loss_drops > 0, "the plan must actually bite");
        assert_eq!(res.duplicates, 0, "receiver-side dedup");
        assert_eq!(res.recovery_failures, 0);
        assert!(res.drop_identity_holds(), "{res:?}");
        assert!(res.node_drop_identity_holds(), "{res:?}");
    }

    /// The negative control: a statically spotless program (termination
    /// and delivery both proved) loses a third of the stream under the
    /// same schedule at 10% per-link loss.
    #[test]
    fn fragile_relay_collapses_under_ten_percent_loss() {
        let res = run_relay_chaos(&RelayChaosConfig::loss(RelayKind::Fragile, 0.10));
        assert!(
            res.delivery_ratio < 0.7,
            "fragile relay should collapse: {res:?}"
        );
        assert!(res.delivery_ratio > 0.3, "sanity: the chain still works");
        assert_eq!(res.retransmits, 0, "nobody NACKs");
        assert!(res.drop_identity_holds(), "{res:?}");
        assert!(res.node_drop_identity_holds(), "{res:?}");
    }

    /// Injected duplication never amplifies beyond the statically proved
    /// per-packet send bound — for either program.
    #[test]
    fn duplicates_stay_within_static_linearity_bound() {
        for kind in [RelayKind::Reliable, RelayKind::Fragile] {
            let mut cfg = RelayChaosConfig::new(
                kind,
                LinkFaults {
                    duplicate: 0.05,
                    ..LinkFaults::default()
                },
            );
            cfg.faults.loss = 0.02;
            let res = run_relay_chaos(&cfg);
            assert!(res.fault.duplicated > 0, "{kind:?}: plan must bite");
            assert!(res.sends_bound >= 1, "{kind:?}: data path sends");
            assert!(res.duplicates_within_bound(), "{kind:?}: {res:?}");
            if kind == RelayKind::Reliable {
                assert_eq!(res.duplicates, 0, "dedup absorbs duplicates");
            }
        }
    }

    /// Crash the middle relay while the stream is in flight: the
    /// recovery service re-verifies and reinstalls the ASP, upstream
    /// buffers answer the receiver's NACKs for everything the dead node
    /// dropped, and the stream still completes.
    #[test]
    fn crash_recovery_redeploys_and_repairs() {
        let mut cfg = RelayChaosConfig::loss(RelayKind::Reliable, 0.02);
        cfg.crash_relay = Some((0.25, 0.55));
        let res = run_relay_chaos(&cfg);
        assert_eq!(res.crashes, 1);
        assert_eq!(res.state_lost, 1, "the crash discarded the hook");
        assert_eq!(res.redeploys, 1, "one re-verified redeploy: {res:?}");
        assert_eq!(res.recovery_failures, 0, "recovery never bypasses");
        assert!(res.retransmits > 0, "end-to-end NACKs reached the source");
        assert!(
            res.delivery_ratio >= 0.99,
            "repair should cover the outage: {res:?}"
        );
        assert!(res.drop_identity_holds(), "{res:?}");
        assert!(res.node_drop_identity_holds(), "{res:?}");
    }

    /// The chaos-hardened audio router clamps and re-stamps a poisoned
    /// quality marker, so one flipped byte can no longer smuggle an
    /// out-of-range format code to the client's decoder dispatch. The
    /// plain section-3.1 router forwards the poison verbatim.
    #[test]
    fn chaos_audio_router_clamps_poisoned_quality_markers() {
        use crate::audio::apps::frame_payload;
        use crate::audio::AUDIO_PORT;
        use netsim::packet::Packet;
        use netsim::{App, NodeApi};
        use planp_runtime::{install_planp, load};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct PoisonSource {
            dst: u32,
        }
        impl App for PoisonSource {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(Duration::from_millis(10), 0);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
                let payload = frame_payload(200, 0, &[5u8; 40]);
                let pkt = Packet::udp(api.addr(), self.dst, AUDIO_PORT, AUDIO_PORT, payload);
                api.send(pkt);
            }
        }

        struct MarkerLog(Rc<RefCell<Vec<u8>>>);
        impl App for MarkerLog {
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
                if pkt.udp_hdr().is_some_and(|u| u.dport == AUDIO_PORT) && !pkt.payload.is_empty() {
                    self.0.borrow_mut().push(pkt.payload[0]);
                }
            }
        }

        let run = |src: &'static str| {
            let mut sim = Sim::new(3);
            let s = sim.add_host("s", addr(10, 0, 0, 1));
            let r = sim.add_router("r", addr(10, 0, 0, 254));
            let c = sim.add_host("c", addr(10, 0, 1, 1));
            sim.add_link(LinkSpec::ethernet_10(), &[s, r]);
            sim.add_link(LinkSpec::ethernet_10(), &[r, c]);
            sim.compute_routes();
            let image = load(src, Policy::strict()).expect("router ASP verifies");
            install_planp(&mut sim, r, &image, LayerConfig::default()).expect("install");
            sim.add_app(
                s,
                Box::new(PoisonSource {
                    dst: addr(10, 0, 1, 1),
                }),
            );
            let markers = Rc::new(RefCell::new(Vec::new()));
            sim.add_app(c, Box::new(MarkerLog(markers.clone())));
            sim.run_until(SimTime::from_secs(1));
            let m = markers.borrow().clone();
            m
        };

        assert_eq!(run(crate::audio::AUDIO_ROUTER_ASP), vec![200]);
        assert_eq!(run(super::super::asp::AUDIO_ROUTER_CHAOS_ASP), vec![2]);
    }

    /// Byte-stability: the same seed and plan produce the identical
    /// metrics snapshot, with the fault counters included.
    #[test]
    fn chaos_run_is_deterministic() {
        let cfg = RelayChaosConfig::loss(RelayKind::Reliable, 0.05);
        let a = run_relay_chaos(&cfg);
        let b = run_relay_chaos(&cfg);
        assert_eq!(a.snapshot.render_table(), b.snapshot.render_table());
        assert_eq!(a.delivery_ratio, b.delivery_ratio);
        assert!(a.snapshot.counters.contains_key("sim.fault_loss_drops"));
    }
}
