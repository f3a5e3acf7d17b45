//! The multipoint-MPEG experiment harness (paper section 3.3).
//!
//! Topology:
//!
//! ```text
//!   server ──100 Mb/s── router ──10 Mb/s segment── {monitor, client1…N}
//! ```
//!
//! With ASPs, the first client opens the only real connection; later
//! clients learn about it from the monitor and capture the stream off
//! the segment, so the server's egress stays at one stream. Without
//! ASPs every client opens its own connection.

use super::apps::{MpegClientApp, MpegClientStats, MpegServerApp, MpegServerStats};
use super::asp::{MPEG_CAPTURE_ASP, MPEG_MONITOR_ASP};
use netsim::packet::addr;
use netsim::{FaultAction, FaultPlan, LinkFaults, LinkSpec, Sim, SimTime};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, LayerConfig};
use planp_telemetry::{MetricsSnapshot, Telemetry, TraceConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct MpegConfig {
    /// Number of clients requesting the same file.
    pub clients: usize,
    /// Install the monitor/capture ASPs (multipoint mode)?
    pub use_asps: bool,
    /// Total run length.
    pub duration: Duration,
    /// Seed.
    pub seed: u64,
    /// Which file each viewer requests (index-aligned; missing entries
    /// repeat the first, default file 7).
    pub files: Vec<u8>,
    /// Fault injection on the shared viewer segment: impairments
    /// switched on at the given time (seconds).
    pub segment_faults: Option<(f64, LinkFaults)>,
}

impl MpegConfig {
    /// A standard run: `clients` viewers joining 1.5 s apart.
    pub fn new(clients: usize, use_asps: bool) -> Self {
        MpegConfig {
            clients,
            use_asps,
            duration: Duration::from_secs(22),
            seed: 5,
            files: vec![7],
            segment_faults: None,
        }
    }
}

/// What the run produced.
#[derive(Debug, Clone)]
pub struct MpegResult {
    /// Server-side statistics.
    pub server: MpegServerStats,
    /// Per-client statistics, in join order.
    pub clients: Vec<MpegClientStats>,
    /// Bytes that crossed the server's uplink.
    pub uplink_bytes: u64,
}

/// Runs the multipoint experiment.
///
/// # Panics
///
/// Panics if the shipped ASPs fail verification.
pub fn run_mpeg(cfg: &MpegConfig) -> MpegResult {
    run_mpeg_traced(cfg, TraceConfig::default()).0
}

/// Like [`run_mpeg`], with event tracing enabled per `trace`. Also
/// returns the telemetry bundle (event log + raw metrics) and the final
/// metrics snapshot, both deterministic for a given seed.
pub fn run_mpeg_traced(
    cfg: &MpegConfig,
    trace: TraceConfig,
) -> (MpegResult, Telemetry, MetricsSnapshot) {
    let (mut sim, read) = mpeg_sim(cfg, trace);
    sim.run_until(SimTime::ZERO + cfg.duration);
    read(sim)
}

/// The multipoint run of `cfg`, ready to run with tracing per `trace`,
/// and the reader of [`run_mpeg_traced`]'s outputs once it has run.
pub fn mpeg_sim(
    cfg: &MpegConfig,
    trace: TraceConfig,
) -> (
    Sim,
    impl FnOnce(Sim) -> (MpegResult, Telemetry, MetricsSnapshot),
) {
    let mut sim = Sim::new(cfg.seed);
    sim.telemetry.trace.configure(trace);

    let server = sim.add_host("server", addr(10, 0, 0, 1));
    let router = sim.add_router("router", addr(10, 0, 0, 254));
    let monitor = sim.add_host("monitor", addr(10, 0, 1, 100));
    let mut clients = Vec::new();
    for i in 0..cfg.clients {
        clients.push(sim.add_host(&format!("viewer{i}"), addr(10, 0, 1, 10 + i as u8)));
    }

    let uplink = sim.add_link(LinkSpec::ethernet_100(), &[server, router]);
    let mut seg = vec![router, monitor];
    seg.extend(&clients);
    let segment = sim.add_link(
        LinkSpec {
            kbps: 10_000,
            delay: Duration::from_micros(100),
            queue_pkts: 128,
        },
        &seg,
    );
    sim.compute_routes();

    if cfg.use_asps {
        let monitor_asp =
            load(MPEG_MONITOR_ASP, Policy::no_delivery()).expect("monitor ASP verifies");
        let capture_asp =
            load(MPEG_CAPTURE_ASP, Policy::no_delivery()).expect("capture ASP verifies");
        let promiscuous = LayerConfig {
            process_overheard: true,
            ..LayerConfig::default()
        };
        install_planp(&mut sim, monitor, &monitor_asp, promiscuous).expect("install monitor");
        for &c in &clients {
            install_planp(&mut sim, c, &capture_asp, promiscuous).expect("install capture");
        }
    }

    let server_stats = Rc::new(RefCell::new(MpegServerStats::default()));
    sim.add_app(server, Box::new(MpegServerApp::new(server_stats.clone())));

    let monitor_addr = cfg.use_asps.then_some(addr(10, 0, 1, 100));
    let mut client_stats = Vec::new();
    for (i, &c) in clients.iter().enumerate() {
        let stats = Rc::new(RefCell::new(MpegClientStats::default()));
        client_stats.push(stats.clone());
        let file = *cfg.files.get(i).or(cfg.files.first()).unwrap_or(&7);
        sim.add_app(
            c,
            Box::new(MpegClientApp::new(
                stats,
                addr(10, 0, 0, 1),
                monitor_addr,
                file,
                6000 + i as u16, // each viewer would use its own port
                Duration::from_millis(500 + 1500 * i as u64),
            )),
        );
    }

    if let Some((from_s, faults)) = cfg.segment_faults {
        sim.apply_fault_plan(FaultPlan::new().at(
            from_s,
            FaultAction::SetLinkFaults {
                link: segment,
                faults,
            },
        ));
    }

    let read = move |sim: Sim| {
        let result = MpegResult {
            server: server_stats.borrow().clone(),
            clients: client_stats.iter().map(|s| s.borrow().clone()).collect(),
            uplink_bytes: sim.link(uplink).tx_bytes,
        };
        let metrics = sim.metrics_snapshot();
        (result, sim.telemetry, metrics)
    };
    (sim, read)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_asps_every_client_opens_a_stream() {
        let r = run_mpeg(&MpegConfig::new(3, false));
        assert_eq!(r.server.streams, 3);
        for c in &r.clients {
            assert!(c.direct);
            assert!(!c.shared);
            assert!(c.frames > 300, "frames {}", c.frames);
            assert_eq!(c.setup, "setup-7");
        }
    }

    #[test]
    fn with_asps_one_stream_is_shared() {
        let r = run_mpeg(&MpegConfig::new(3, true));
        assert_eq!(r.server.streams, 1, "server egress stays at one stream");
        assert!(r.clients[0].direct && !r.clients[0].shared);
        for c in &r.clients[1..] {
            assert!(c.shared, "later viewers share: {c:?}");
            assert!(!c.direct);
            assert!(c.frames > 200, "captured frames {}", c.frames);
            // Setup info came from the monitor, not the server.
            assert_eq!(c.setup, "setup-7");
        }
    }

    #[test]
    fn asps_cut_server_bandwidth_by_client_count() {
        let shared = run_mpeg(&MpegConfig::new(3, true));
        let direct = run_mpeg(&MpegConfig::new(3, false));
        let ratio = direct.server.video_bytes as f64 / shared.server.video_bytes as f64;
        assert!(
            ratio > 2.0,
            "server bytes: direct {} vs shared {} (ratio {ratio})",
            direct.server.video_bytes,
            shared.server.video_bytes
        );
        assert!(direct.uplink_bytes > 2 * shared.uplink_bytes);
    }

    #[test]
    fn different_files_are_not_shared() {
        // The monitor keys streams by file: a viewer of a *different*
        // file must get its own server connection.
        let mut cfg = MpegConfig::new(2, true);
        cfg.files = vec![7, 8];
        let r = run_mpeg(&cfg);
        assert_eq!(r.server.streams, 2, "distinct files need distinct streams");
        assert!(r.clients.iter().all(|c| c.direct));
        assert!(r.clients.iter().all(|c| c.frames > 300), "{:?}", r.clients);
        assert_eq!(r.clients[0].setup, "setup-7");
        assert_eq!(r.clients[1].setup, "setup-8");
    }

    #[test]
    fn lossy_concurrent_viewers_repeat_exactly() {
        // Heavy loss on the viewers' segment keeps several control
        // connections retransmitting at once; the server's 50 ms tick
        // used to flush them in hash order, so packet ids — and with
        // them the trace — differed between runs of one process.
        let mut cfg = MpegConfig::new(6, false);
        cfg.segment_faults = Some((0.0, LinkFaults::loss(0.5)));
        let runs: Vec<(u64, String)> = (0..4)
            .map(|_| {
                let (r, t, m) = run_mpeg_traced(&cfg, TraceConfig::all());
                assert!(r.server.streams >= 3, "streams {}", r.server.streams);
                (m.counters["sim.events_processed"], t.trace.to_jsonl())
            })
            .collect();
        let events: Vec<u64> = runs.iter().map(|r| r.0).collect();
        assert!(
            runs.iter().all(|r| *r == runs[0]),
            "same seed, different runs (events {events:?})"
        );
    }

    #[test]
    fn single_client_behaves_identically_either_way() {
        let a = run_mpeg(&MpegConfig::new(1, true));
        let b = run_mpeg(&MpegConfig::new(1, false));
        assert_eq!(a.server.streams, 1);
        assert_eq!(b.server.streams, 1);
        let fa = a.clients[0].frames as f64;
        let fb = b.clients[0].frames as f64;
        assert!((fa - fb).abs() / fb < 0.05, "{fa} vs {fb}");
    }
}
