//! Property suites for the overload-protection pipeline.
//!
//! 1. A seeded 400-request trace through the bounded-load gateway with
//!    one backend crash walks the full breaker lifecycle (closed →
//!    open → half-open → closed), and the rendered transition log is
//!    byte-identical across two runs.
//! 2. The cluster scenario's breaker and brownout logs are
//!    byte-identical across the interpreter and the JIT — engine
//!    choice never shifts a transition by a nanosecond.

use bytes::Bytes;
use netsim::packet::{addr, Packet};
use netsim::{App, FaultPlan, LinkSpec, NodeApi, Sim, SimTime};
use planp_apps::cluster::{run_cluster, BackendSpec, ClusterConfig, ClusterGateway, CLUSTER_PORT};
use planp_runtime::Engine;
use std::time::Duration;

/// 800 ms of requests: the breaker opens about 130 ms after the crash
/// and stays open 400 ms, so the trace must still run when it goes
/// half-open for a probe to re-close it.
const REQUESTS: u64 = 400;

/// Sends one 25-byte gateway request every 2 ms: priority byte, request
/// id, a random key (the node RNG keeps it seeded), and the send time.
struct MiniClient {
    gw: u32,
    sent: u64,
}

impl App for MiniClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_millis(2), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.sent >= REQUESTS {
            return;
        }
        self.sent += 1;
        let mut payload = vec![0u8; 25];
        payload[0] = 255;
        payload[1..9].copy_from_slice(&self.sent.to_be_bytes());
        payload[9..17].copy_from_slice(&api.rand_below(u64::MAX).to_be_bytes());
        payload[17..25].copy_from_slice(&api.now().as_nanos().to_be_bytes());
        api.send(Packet::udp(
            api.addr(),
            self.gw,
            40_000,
            CLUSTER_PORT,
            Bytes::from(payload),
        ));
        api.set_timer(Duration::from_millis(2), 0);
    }
}

/// Echoes every request's id back as a response.
struct MiniBackend;

impl App for MiniBackend {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(udp) = pkt.udp_hdr() else { return };
        if udp.dport != CLUSTER_PORT || pkt.payload.len() < 25 {
            return;
        }
        let mut payload = vec![0u8; 18];
        payload[0] = 255;
        payload[1..9].copy_from_slice(&pkt.payload[1..9]);
        api.send(Packet::udp(
            api.addr(),
            pkt.ip.src,
            CLUSTER_PORT,
            udp.sport,
            Bytes::from(payload),
        ));
    }
}

/// One seeded mini-cluster run: (transition log, opens, probes,
/// responses, sent_while_broken).
fn run_mini(seed: u64) -> (String, u64, u64, u64, u64) {
    let mut sim = Sim::new(seed);
    let client = sim.add_host("client", addr(10, 0, 0, 1));
    let gw = sim.add_router("gw", addr(10, 0, 0, 253));
    let b0 = sim.add_host("b0", addr(10, 2, 0, 1));
    let b1 = sim.add_host("b1", addr(10, 2, 0, 2));
    sim.add_link(LinkSpec::ethernet_100(), &[client, gw]);
    sim.add_link(LinkSpec::ethernet_100(), &[gw, b0]);
    sim.add_link(LinkSpec::ethernet_100(), &[gw, b1]);
    sim.compute_routes();

    let specs = vec![
        BackendSpec {
            name: "b0".into(),
            addr: addr(10, 2, 0, 1),
            weight: 1,
        },
        BackendSpec {
            name: "b1".into(),
            addr: addr(10, 2, 0, 2),
            weight: 1,
        },
    ];
    let gateway = ClusterGateway::new(specs, &mut sim.telemetry);
    let stats = gateway.stats.clone();
    sim.install_hook(gw, Box::new(gateway));

    sim.add_app(
        client,
        Box::new(MiniClient {
            gw: addr(10, 0, 0, 253),
            sent: 0,
        }),
    );
    sim.add_app(b0, Box::new(MiniBackend));
    sim.add_app(b1, Box::new(MiniBackend));

    // The crash window sits inside the request trace, so the breaker
    // must open on timeouts and later re-close on a successful probe.
    sim.apply_fault_plan(FaultPlan::new().crash_restart(0.05, 0.15, b0));
    sim.run_until(SimTime::from_ms(1_200));

    let s = stats.borrow();
    let count = |name| sim.telemetry.metrics.counter(name);
    (
        s.transitions_log(),
        s.opens(),
        count("gw.probes"),
        count("gw.responses"),
        s.sent_while_broken,
    )
}

#[test]
fn breaker_lifecycle_over_400_requests_is_byte_stable() {
    for seed in [5u64, 23] {
        let (log, opens, probes, responses, sent_while_broken) = run_mini(seed);
        assert_eq!(opens, 1, "seed {seed}: exactly one open:\n{log}");
        assert!(
            log.contains("backend=b0 closed -> open"),
            "seed {seed}:\n{log}"
        );
        assert!(
            log.contains("backend=b0 open -> half_open"),
            "seed {seed}:\n{log}"
        );
        assert!(
            log.contains("backend=b0 half_open -> closed"),
            "seed {seed}: probe must re-close:\n{log}"
        );
        assert!(probes >= 1, "seed {seed}: half-open sent a probe");
        assert_eq!(
            sent_while_broken, probes,
            "seed {seed}: corpse traffic is probe-only"
        );
        assert!(
            responses > REQUESTS / 2,
            "seed {seed}: the cluster still serves"
        );

        let rerun = run_mini(seed);
        assert_eq!(log, rerun.0, "seed {seed}: transition log drifted");
        assert_eq!(
            (opens, probes, responses, sent_while_broken),
            (rerun.1, rerun.2, rerun.3, rerun.4),
            "seed {seed}"
        );
    }
}

#[test]
fn cluster_breaker_and_brownout_logs_are_engine_invariant() {
    let run = |engine: Engine| {
        let mut cfg = ClusterConfig::smoke();
        cfg.engine = engine;
        run_cluster(&cfg)
    };
    let jit = run(Engine::Jit);
    let interp = run(Engine::Interp);
    assert!(!jit.transitions_log.is_empty(), "smoke must trip breakers");
    assert!(!jit.brownout_log.is_empty(), "smoke must brown out");
    assert_eq!(
        jit.transitions_log, interp.transitions_log,
        "engine choice shifted a breaker transition"
    );
    assert_eq!(
        jit.brownout_log, interp.brownout_log,
        "engine choice shifted a brownout step"
    );
    assert_eq!(jit.admitted, interp.admitted);
    assert_eq!(jit.completed, interp.completed);
    assert_eq!(jit.latency_p99_ns, interp.latency_p99_ns);
}
