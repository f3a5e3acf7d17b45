//! The HTTP cluster experiment harness (figure 8 of the paper).
//!
//! Topology:
//!
//! ```text
//!   clients (≤8 hosts) ──10 Mb/s shared segment── gateway ══100 Mb/s══ {server0, server1}
//! ```
//!
//! Four configurations reproduce the paper's curves: one physical
//! server, the ASP-based gateway over two servers, the built-in ("C")
//! gateway over two servers, and two servers with disjoint client sets
//! (the no-gateway upper bound).
//!
//! The gateway is modeled as a single-CPU queueing station
//! ([`netsim::CpuModel`]): per-packet processing is the *contention
//! point* the paper identifies as the reason the cluster reaches 85% of
//! two servers' capacity. The hooked gateway's per-packet cost is
//! calibrated once (see EXPERIMENTS.md); the ASP and native gateways
//! share it because the JIT-vs-native microbenchmark shows the compiled
//! ASP matches native code.

use super::asp::{HTTP_GATEWAY_ASP, SERVER0_ADDR, SERVER1_ADDR, SERVER2_ADDR, VIRTUAL_ADDR};
use super::client::HttpClientApp;
use super::native::NativeHttpGateway;
use super::server::{HttpServerApp, ServerCfg};
use super::trace::{Trace, TraceSpec};
use netsim::packet::addr;
use netsim::{CpuModel, FaultAction, FaultPlan, LinkSpec, Sim, SimTime};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, Engine, LayerConfig};
use planp_telemetry::{MetricsSnapshot, Telemetry, TraceConfig};
use std::time::Duration;

/// Which cluster configuration to run (the figure 8 curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMode {
    /// One physical server, no balancing (curve a).
    Single,
    /// ASP gateway (JIT) over two servers (curve b).
    AspGateway,
    /// Built-in native gateway over two servers (curve c).
    NativeGateway,
    /// ASP gateway run by the *interpreter* — the ablation quantifying
    /// why the JIT matters.
    InterpGateway,
    /// Two servers with disjoint client sets (curve d, the upper bound).
    Disjoint,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Cluster configuration.
    pub mode: ClusterMode,
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Run length (seconds).
    pub duration_s: u64,
    /// Measurements before this time are discarded.
    pub warmup_s: f64,
    /// Seed.
    pub seed: u64,
    /// Per-packet CPU time of a *rewriting* gateway (µs).
    pub gw_cpu_us: u64,
    /// Per-packet CPU time of plain IP forwarding (µs).
    pub plain_cpu_us: u64,
    /// CPU multiplier when the gateway ASP runs interpreted.
    pub interp_slowdown: f64,
    /// Server model.
    pub server: ServerCfg,
    /// Trace parameters.
    pub trace: TraceSpec,
    /// Alternative gateway ASP source (defaults to the paper's modulo
    /// strategy). Only used by the ASP gateway modes.
    pub gateway_src: Option<&'static str>,
    /// In-band redeployment: at the given time an operator host deploys
    /// this gateway source over the running one (section 3.2
    /// reconfigurability; section 5 "ASP deployment").
    pub redeploy_at: Option<(f64, &'static str)>,
    /// Crash server 1 at this time through the seeded fault plan
    /// ([`netsim::FaultAction::CrashNode`]); the crash is counted in the
    /// `sim.fault_*` / `node.server1.crashes` telemetry.
    pub crash_server1_at_s: Option<f64>,
}

impl HttpConfig {
    /// Defaults calibrated for the figure 8 shape.
    pub fn new(mode: ClusterMode, clients: usize) -> Self {
        HttpConfig {
            mode,
            clients,
            duration_s: 30,
            warmup_s: 5.0,
            seed: 11,
            gw_cpu_us: 380,
            plain_cpu_us: 100,
            interp_slowdown: 6.0,
            server: ServerCfg::default(),
            trace: TraceSpec::default(),
            gateway_src: None,
            redeploy_at: None,
            crash_server1_at_s: None,
        }
    }
}

/// Results of one cluster run.
#[derive(Debug, Clone)]
pub struct HttpResult {
    /// Completed requests per second in the measurement window.
    pub req_per_sec: f64,
    /// Total completed requests (whole run).
    pub completed: u64,
    /// Mean response latency (ms) in the measurement window.
    pub mean_latency_ms: f64,
    /// Median response latency (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile response latency (ms).
    pub p95_latency_ms: f64,
    /// Requests abandoned (timeout/reset).
    pub failed: u64,
    /// Packets dropped at the gateway CPU queue.
    pub gw_cpu_drops: u64,
    /// Requests served per physical server (measurement window).
    pub per_server: Vec<(String, f64)>,
}

/// Runs the cluster experiment.
///
/// # Panics
///
/// Panics if the shipped gateway ASP fails verification.
pub fn run_http(cfg: &HttpConfig) -> HttpResult {
    run_http_traced(cfg, TraceConfig::default()).0
}

/// Like [`run_http`], with event tracing enabled per `trace`. Also
/// returns the telemetry bundle (event log + raw metrics) and the final
/// metrics snapshot, both deterministic for a given seed.
pub fn run_http_traced(
    cfg: &HttpConfig,
    trace: TraceConfig,
) -> (HttpResult, Telemetry, MetricsSnapshot) {
    let mut sim = Sim::new(cfg.seed);
    sim.telemetry.trace.configure(trace);

    let n_hosts = cfg.clients.clamp(1, 8);
    let mut client_hosts = Vec::with_capacity(n_hosts);
    for i in 0..n_hosts {
        client_hosts.push(sim.add_host(&format!("client{i}"), addr(10, 0, 1, 10 + i as u8)));
    }
    let gw = sim.add_router("gateway", addr(10, 0, 1, 254));
    let s0 = sim.add_host("server0", SERVER0_ADDR);
    let s1 = sim.add_host("server1", SERVER1_ADDR);
    let s2 = sim.add_host("server2", SERVER2_ADDR);

    let mut seg_nodes = client_hosts.clone();
    seg_nodes.push(gw);
    sim.add_link(
        LinkSpec {
            kbps: 10_000,
            delay: Duration::from_micros(100),
            queue_pkts: 128,
        },
        &seg_nodes,
    );
    sim.add_link(LinkSpec::ethernet_100(), &[gw, s0]);
    sim.add_link(LinkSpec::ethernet_100(), &[gw, s1]);
    sim.add_link(LinkSpec::ethernet_100(), &[gw, s2]);
    sim.compute_routes();
    for &c in &client_hosts {
        sim.add_route(c, VIRTUAL_ADDR, gw);
    }

    // Gateway CPU model.
    let hooked = matches!(
        cfg.mode,
        ClusterMode::AspGateway | ClusterMode::NativeGateway | ClusterMode::InterpGateway
    );
    let per_packet = match cfg.mode {
        ClusterMode::InterpGateway => {
            Duration::from_nanos((cfg.gw_cpu_us as f64 * cfg.interp_slowdown * 1000.0) as u64)
        }
        _ if hooked => Duration::from_micros(cfg.gw_cpu_us),
        _ => Duration::from_micros(cfg.plain_cpu_us),
    };
    sim.set_cpu(
        gw,
        CpuModel {
            per_packet,
            queue_cap: 256,
        },
    );

    match cfg.mode {
        ClusterMode::AspGateway | ClusterMode::InterpGateway => {
            let src = cfg.gateway_src.unwrap_or(HTTP_GATEWAY_ASP);
            // Plan-scope gate: the gateway must verify as a deployment
            // over the canonical `http_cluster` topology (cross-ASP
            // product check, composed path budgets, plan lints) before
            // the per-program download below even starts.
            crate::plans::verify_http_gateway(src).expect("gateway verifies at plan scope");
            let image = load(src, Policy::strict()).expect("gateway ASP verifies");
            let engine = if cfg.mode == ClusterMode::AspGateway {
                Engine::Jit
            } else {
                Engine::Interp
            };
            install_planp(
                &mut sim,
                gw,
                &image,
                LayerConfig {
                    engine,
                    ..LayerConfig::default()
                },
            )
            .expect("install gateway ASP");
        }
        ClusterMode::NativeGateway => {
            sim.install_hook(gw, Box::new(NativeHttpGateway::new()));
        }
        ClusterMode::Single | ClusterMode::Disjoint => {}
    }

    // Servers: the paper replicates the web content on all machines.
    let trace = Trace::generate(&cfg.trace, cfg.seed);
    sim.add_app(s0, Box::new(HttpServerApp::new(cfg.server, trace.clone())));
    if cfg.mode != ClusterMode::Single {
        sim.add_app(s1, Box::new(HttpServerApp::new(cfg.server, trace.clone())));
        sim.add_app(s2, Box::new(HttpServerApp::new(cfg.server, trace.clone())));
    }

    // In-band redeployment: a management service on the gateway and a
    // timed operator on the first client host.
    if let Some((at, src)) = cfg.redeploy_at {
        sim.add_app(
            gw,
            Box::new(planp_runtime::DeployService::new(
                Policy::strict(),
                LayerConfig::default(),
            )),
        );
        struct RedeployOperator {
            at: Duration,
            target: u32,
            src: &'static str,
        }
        impl netsim::App for RedeployOperator {
            fn on_start(&mut self, api: &mut netsim::NodeApi<'_>) {
                api.set_timer(self.at, 0);
            }
            fn on_packet(&mut self, _api: &mut netsim::NodeApi<'_>, _pkt: netsim::Packet) {}
            fn on_timer(&mut self, api: &mut netsim::NodeApi<'_>, _key: u64) {
                for pkt in planp_runtime::deploy_packets(api.addr(), self.target, 7, self.src) {
                    api.send(pkt);
                }
            }
        }
        sim.add_app(
            client_hosts[0],
            Box::new(RedeployOperator {
                at: Duration::from_secs_f64(at),
                target: addr(10, 0, 1, 254),
                src,
            }),
        );
    }

    // Clients.
    for j in 0..cfg.clients {
        let host = client_hosts[j % n_hosts];
        let port_base = 10_000 + (j / n_hosts) as u16 * 1000;
        let target = match cfg.mode {
            ClusterMode::Single => SERVER0_ADDR,
            ClusterMode::Disjoint => {
                if j % 2 == 0 {
                    SERVER0_ADDR
                } else {
                    SERVER1_ADDR
                }
            }
            _ => VIRTUAL_ADDR,
        };
        sim.add_app(
            host,
            Box::new(HttpClientApp::new(target, trace.clone(), port_base)),
        );
    }

    if let Some(at) = cfg.crash_server1_at_s {
        sim.apply_fault_plan(FaultPlan::new().at(at, FaultAction::CrashNode { node: s1 }));
    }

    sim.run_until(SimTime::from_secs(cfg.duration_s));

    let horizon = cfg.duration_s as f64;
    let window = horizon - cfg.warmup_s;
    let (completed, in_window) = match sim.series.get("http_done") {
        Some(s) => (s.sum() as u64, s.sum_between(cfg.warmup_s, horizon)),
        None => (0, 0.0),
    };
    let lat = sim.series.get("http_latency_ms");
    let mean_latency_ms = lat
        .and_then(|s| s.avg_between(cfg.warmup_s, horizon))
        .unwrap_or(0.0);
    let p50_latency_ms = lat
        .and_then(|s| s.percentile_between(cfg.warmup_s, horizon, 0.5))
        .unwrap_or(0.0);
    let p95_latency_ms = lat
        .and_then(|s| s.percentile_between(cfg.warmup_s, horizon, 0.95))
        .unwrap_or(0.0);
    let per_server = [SERVER0_ADDR, SERVER1_ADDR, SERVER2_ADDR]
        .iter()
        .map(|&a| {
            let label = netsim::packet::addr_to_string(a);
            let count = sim
                .series
                .get(&format!("served_{label}"))
                .map(|s| s.sum_between(cfg.warmup_s, horizon))
                .unwrap_or(0.0);
            (label, count)
        })
        .collect();
    let metrics = sim.metrics_snapshot();
    let telemetry = std::mem::take(&mut sim.telemetry);
    (
        HttpResult {
            req_per_sec: in_window / window,
            completed,
            mean_latency_ms,
            p50_latency_ms,
            p95_latency_ms,
            failed: 0,
            gw_cpu_drops: sim.node(gw).cpu_drops,
            per_server,
        },
        telemetry,
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: ClusterMode, clients: usize) -> HttpResult {
        let mut cfg = HttpConfig::new(mode, clients);
        cfg.duration_s = 12;
        cfg.warmup_s = 4.0;
        run_http(&cfg)
    }

    #[test]
    fn single_server_saturates_at_its_capacity() {
        let r = quick(ClusterMode::Single, 16);
        // Capacity ≈ children / service_time ≈ 6 / 42.5 ms ≈ 140 req/s.
        assert!(
            (90.0..190.0).contains(&r.req_per_sec),
            "single server: {} req/s",
            r.req_per_sec
        );
    }

    #[test]
    fn asp_gateway_scales_beyond_one_server() {
        let single = quick(ClusterMode::Single, 16);
        let cluster = quick(ClusterMode::AspGateway, 16);
        let ratio = cluster.req_per_sec / single.req_per_sec;
        assert!(
            (1.3..2.1).contains(&ratio),
            "cluster/single ratio {ratio} (cluster {} vs single {})",
            cluster.req_per_sec,
            single.req_per_sec
        );
    }

    #[test]
    fn asp_matches_native_gateway() {
        let asp = quick(ClusterMode::AspGateway, 16);
        let native = quick(ClusterMode::NativeGateway, 16);
        let rel = (asp.req_per_sec - native.req_per_sec).abs() / native.req_per_sec;
        assert!(
            rel < 0.10,
            "asp {} vs native {} ({}%)",
            asp.req_per_sec,
            native.req_per_sec,
            rel * 100.0
        );
    }

    #[test]
    fn gateway_is_a_contention_point() {
        let cluster = quick(ClusterMode::AspGateway, 16);
        let disjoint = quick(ClusterMode::Disjoint, 16);
        let ratio = cluster.req_per_sec / disjoint.req_per_sec;
        assert!(
            (0.6..1.0).contains(&ratio),
            "gateway/disjoint ratio {ratio} (cluster {} vs disjoint {})",
            cluster.req_per_sec,
            disjoint.req_per_sec
        );
    }

    #[test]
    fn alternative_strategies_balance_load() {
        for (name, src) in [
            ("random", crate::http::HTTP_GATEWAY_RANDOM_ASP),
            ("porthash", crate::http::HTTP_GATEWAY_PORTHASH_ASP),
        ] {
            let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 12);
            cfg.duration_s = 12;
            cfg.warmup_s = 4.0;
            cfg.gateway_src = Some(src);
            let r = run_http(&cfg);
            let s0 = r.per_server[0].1;
            let s1 = r.per_server[1].1;
            assert!(r.req_per_sec > 100.0, "{name}: {} req/s", r.req_per_sec);
            assert!(
                s0 > 0.0 && s1 > 0.0,
                "{name}: both servers used: {:?}",
                r.per_server
            );
            let skew = (s0 - s1).abs() / (s0 + s1);
            assert!(
                skew < 0.35,
                "{name}: distribution skew {skew} ({:?})",
                r.per_server
            );
        }
    }

    #[test]
    fn cluster_grows_in_band_mid_run() {
        // Start with the two-server gateway; at t=8 s the operator
        // deploys the three-server program in band. Server 2 starts
        // taking connections without any restart.
        let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 16);
        cfg.duration_s = 20;
        cfg.warmup_s = 4.0;
        cfg.redeploy_at = Some((8.0, crate::http::HTTP_GATEWAY_3SRV_ASP));
        let r = run_http(&cfg);
        let s2 = r.per_server[2].1;
        assert!(
            s2 > 20.0,
            "server2 should serve after growth: {:?}",
            r.per_server
        );
        // Throughput did not collapse across the swap.
        assert!(r.req_per_sec > 150.0, "{} req/s", r.req_per_sec);

        // Without growth the third server is idle.
        let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 16);
        cfg.duration_s = 12;
        cfg.warmup_s = 4.0;
        let r = run_http(&cfg);
        assert_eq!(r.per_server[2].1, 0.0);
    }

    #[test]
    fn failover_redeploy_recovers_from_server_crash() {
        // Server 1 crashes at t=6 s. Without intervention half the new
        // connections hit the dead server and burn retransmission
        // timeouts; at t=10 s the operator deploys the failover gateway
        // in band and throughput recovers to single-server level.
        let mut repaired = HttpConfig::new(ClusterMode::AspGateway, 16);
        repaired.duration_s = 26;
        repaired.warmup_s = 4.0;
        repaired.crash_server1_at_s = Some(6.0);
        repaired.redeploy_at = Some((10.0, crate::http::HTTP_GATEWAY_FAILOVER_ASP));
        let r = run_http(&repaired);

        let mut abandoned = HttpConfig::new(ClusterMode::AspGateway, 16);
        abandoned.duration_s = 26;
        abandoned.warmup_s = 4.0;
        abandoned.crash_server1_at_s = Some(6.0);
        let a = run_http(&abandoned);

        assert!(
            r.req_per_sec > a.req_per_sec * 1.2,
            "repair {} vs no repair {}",
            r.req_per_sec,
            a.req_per_sec
        );
        // After repair, only server 0 serves.
        assert!(r.per_server[0].1 > 0.0);
        // The failed server served nothing once it was down (its count
        // in the window only includes pre-crash completions).
        assert!(r.per_server[0].1 > 4.0 * r.per_server[1].1.max(1.0));
    }

    #[test]
    fn failover_gateway_drains_to_fallback_after_backend_crash() {
        // The failover gateway is active from the start; one backend is
        // crashed mid-run by the fault plan. Every request must drain to
        // the surviving server, and the dead backend must never be
        // offered a packet after the failover program is in charge.
        let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 16);
        cfg.duration_s = 20;
        cfg.warmup_s = 4.0;
        cfg.gateway_src = Some(crate::http::HTTP_GATEWAY_FAILOVER_ASP);
        cfg.crash_server1_at_s = Some(6.0);
        let (r, _t, snap) = run_http_traced(&cfg, TraceConfig::default());
        assert_eq!(snap.counters["node.server1.crashes"], 1);
        assert_eq!(
            snap.counters["node.server1.dropped"], 0,
            "zero post-failover drops at the crashed backend"
        );
        assert!(
            r.per_server[0].1 > 100.0 && r.per_server[1].1 == 0.0,
            "requests drain to the fallback: {:?}",
            r.per_server
        );
        assert!(r.req_per_sec > 100.0, "{} req/s", r.req_per_sec);

        // Contrast: the modulo gateway keeps offering connections to the
        // dead server, which shows up as drops there.
        let mut naive = HttpConfig::new(ClusterMode::AspGateway, 16);
        naive.duration_s = 20;
        naive.warmup_s = 4.0;
        naive.crash_server1_at_s = Some(6.0);
        let (_r, _t, snap) = run_http_traced(&naive, TraceConfig::default());
        assert!(
            snap.counters["node.server1.dropped"] > 0,
            "the naive gateway hammers the corpse"
        );
    }

    #[test]
    fn overloaded_interpreted_gateway_repeats_exactly() {
        // At `interp_slowdown = 6.0` the gateway's CPU queue overflows
        // and the servers retransmit; the retransmission tick used to
        // sweep their connections in hash order, so identical seeds gave
        // 599/598/599/598 completed requests within one process.
        let cfg = HttpConfig::new(ClusterMode::InterpGateway, 32);
        let runs: Vec<(u64, u64)> = (0..4)
            .map(|_| {
                let (r, _, m) = run_http_traced(&cfg, TraceConfig::default());
                (r.completed, m.counters["sim.events_processed"])
            })
            .collect();
        assert!(runs[0].0 > 0);
        assert!(
            runs.iter().all(|r| *r == runs[0]),
            "same seed, different runs: {runs:?}"
        );
    }

    #[test]
    fn interpreted_gateway_is_slower() {
        let jit = quick(ClusterMode::AspGateway, 16);
        let interp = quick(ClusterMode::InterpGateway, 16);
        assert!(
            interp.req_per_sec < jit.req_per_sec * 0.8,
            "interp {} vs jit {}",
            interp.req_per_sec,
            jit.req_per_sec
        );
    }
}
