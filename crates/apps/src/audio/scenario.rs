//! The audio-broadcasting experiment harness (figures 5–7 of the
//! paper).
//!
//! Topology (the paper's figure 5, collapsed to the measured path):
//!
//! ```text
//!   source ──100 Mb/s──▶ router ──10 Mb/s shared segment── {client, loadgen, sink}
//! ```
//!
//! The load generator and the audio client share the router's outgoing
//! Ethernet segment; the router's PLAN-P program watches that segment's
//! utilization and degrades the multicast audio per-segment, with no
//! end-to-end feedback loop.

use super::apps::{AudioClient, AudioClientStats, AudioSource, LoadGen, LoadPhase, NullSink};
use super::asp::{AUDIO_CLIENT_ASP, AUDIO_ROUTER_ASP};
use super::native::{NativeAudioClient, NativeAudioRouter};
use netsim::packet::addr;
use netsim::{FaultAction, FaultPlan, LinkFaults, LinkSpec, Sim, SimTime};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, Engine, LayerConfig};
use planp_telemetry::{MetricsSnapshot, Telemetry, TraceConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// How (or whether) adaptation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adaptation {
    /// PLAN-P ASPs on router and client, executed by the JIT.
    AspJit,
    /// PLAN-P ASPs executed by the portable interpreter.
    AspInterp,
    /// The native ("built-in C") implementation.
    Native,
    /// No adaptation (the unmodified network).
    Off,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct AudioConfig {
    /// Adaptation mode.
    pub adaptation: Adaptation,
    /// Background load schedule.
    pub phases: Vec<LoadPhase>,
    /// Load jitter (percent, multiplicative per burst).
    pub jitter_pct: u64,
    /// Total simulated time (seconds).
    pub duration_s: u64,
    /// Random seed.
    pub seed: u64,
    /// Alternative router ASP source (defaults to the utilization-based
    /// policy of section 3.1). Only used by the ASP modes.
    pub router_src: Option<&'static str>,
    /// Add a second, quiet segment behind its own router (the paper's
    /// figure 5: "audio clients in IRISA may still receive high-quality
    /// audio" — adaptation is per segment).
    pub dual_segment: bool,
    /// Fault injection on the shared 10 Mb/s segment: impairments
    /// switched on at the given time (seconds). Seeded from the run
    /// seed, so the whole run stays deterministic.
    pub segment_faults: Option<(f64, LinkFaults)>,
}

impl AudioConfig {
    /// The paper's figure 6 schedule: no load, then a large load at
    /// t=100 s, a medium load at t=220 s, and a small load at t=340 s,
    /// for 460 s total.
    pub fn figure6(adaptation: Adaptation) -> Self {
        AudioConfig {
            adaptation,
            phases: vec![
                LoadPhase {
                    from_s: 100.0,
                    to_s: 220.0,
                    kbps: 9450,
                },
                LoadPhase {
                    from_s: 220.0,
                    to_s: 340.0,
                    kbps: 7750,
                },
                LoadPhase {
                    from_s: 340.0,
                    to_s: 460.0,
                    kbps: 6200,
                },
            ],
            jitter_pct: 6,
            duration_s: 460,
            seed: 7,
            router_src: None,
            dual_segment: false,
            segment_faults: None,
        }
    }

    /// A constant-load configuration (for the figure 7 sweep).
    pub fn constant_load(adaptation: Adaptation, kbps: u64, duration_s: u64) -> Self {
        AudioConfig {
            adaptation,
            phases: vec![LoadPhase {
                from_s: 5.0,
                to_s: duration_s as f64,
                kbps,
            }],
            jitter_pct: 6,
            duration_s,
            seed: 7,
            router_src: None,
            dual_segment: false,
            segment_faults: None,
        }
    }
}

/// Results of one audio run.
#[derive(Debug, Clone)]
pub struct AudioResult {
    /// Client-side audio bandwidth, one point per second (kb/s) — the
    /// figure 6 series.
    pub rx_kbps: Vec<(f64, f64)>,
    /// Client statistics (frames, gaps, per-format counts).
    pub stats: AudioClientStats,
    /// Packets dropped on the shared segment during the run.
    pub segment_drops: u64,
    /// The quiet second segment's client, when `dual_segment` is on.
    pub stats_b: Option<AudioClientStats>,
    /// Its bandwidth series (kb/s per second).
    pub rx_kbps_b: Vec<(f64, f64)>,
}

impl AudioResult {
    /// Mean received bandwidth over the half-open window `[t0, t1)`
    /// (kb/s). Single pass, no intermediate allocation.
    pub fn avg_kbps(&self, t0: f64, t1: f64) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for &(t, v) in &self.rx_kbps {
            if t >= t0 && t < t1 {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Runs the audio experiment.
///
/// # Panics
///
/// Panics if the shipped ASPs fail verification (they must not).
pub fn run_audio(cfg: &AudioConfig) -> AudioResult {
    run_audio_traced(cfg, TraceConfig::default()).0
}

/// Like [`run_audio`], with event tracing enabled per `trace`. Also
/// returns the telemetry bundle (event log + raw metrics) and the final
/// metrics snapshot, both deterministic for a given seed.
pub fn run_audio_traced(
    cfg: &AudioConfig,
    trace: TraceConfig,
) -> (AudioResult, Telemetry, MetricsSnapshot) {
    let (mut sim, read) = audio_sim(cfg, trace);
    sim.run_until(SimTime::from_secs(cfg.duration_s));
    read(sim)
}

/// The audio run of `cfg`, ready to run with tracing per `trace`, and
/// the reader of [`run_audio_traced`]'s outputs once it has run.
pub fn audio_sim(
    cfg: &AudioConfig,
    trace: TraceConfig,
) -> (
    Sim,
    impl FnOnce(Sim) -> (AudioResult, Telemetry, MetricsSnapshot),
) {
    let group = addr(224, 1, 2, 3);
    let mut sim = Sim::new(cfg.seed);
    sim.telemetry.trace.configure(trace);

    let source = sim.add_host("source", addr(10, 0, 0, 1));
    let router = sim.add_router("router", addr(10, 0, 0, 254));
    let client = sim.add_host("client", addr(10, 0, 1, 1));
    let loadgen = sim.add_host("loadgen", addr(10, 0, 1, 2));
    let sink = sim.add_host("sink", addr(10, 0, 1, 3));

    let segment = sim.add_link(
        LinkSpec {
            kbps: 10_000,
            delay: Duration::from_micros(100),
            queue_pkts: 200,
        },
        &[router, client, loadgen, sink],
    );
    sim.subscribe(client, group);
    sim.add_mcast_route(router, group, segment);

    // Figure 5's second branch: a quiet segment behind its own adapting
    // router. A plain fan-out router (the campus backbone) duplicates
    // the multicast stream toward both adapting routers; each of them
    // degrades — or not — based on its *own* segment.
    let quiet = if cfg.dual_segment {
        let fanout = sim.add_router("fanout", addr(10, 0, 3, 254));
        let router_b = sim.add_router("router_b", addr(10, 0, 2, 254));
        let client_b = sim.add_host("client_b", addr(10, 0, 2, 1));
        let uplink = sim.add_link(LinkSpec::ethernet_100(), &[source, fanout]);
        let trunk_a = sim.add_link(LinkSpec::ethernet_100(), &[fanout, router]);
        let trunk_b = sim.add_link(LinkSpec::ethernet_100(), &[fanout, router_b]);
        let segment_b = sim.add_link(
            LinkSpec {
                kbps: 10_000,
                delay: Duration::from_micros(100),
                queue_pkts: 200,
            },
            &[router_b, client_b],
        );
        sim.compute_routes();
        sim.add_mcast_route(source, group, uplink);
        sim.add_mcast_route(fanout, group, trunk_a);
        sim.add_mcast_route(fanout, group, trunk_b);
        sim.add_mcast_route(router_b, group, segment_b);
        sim.subscribe(client_b, group);
        Some((router_b, client_b))
    } else {
        let uplink = sim.add_link(LinkSpec::ethernet_100(), &[source, router]);
        sim.compute_routes();
        sim.add_mcast_route(source, group, uplink);
        None
    };

    match cfg.adaptation {
        Adaptation::AspJit | Adaptation::AspInterp => {
            let engine = if cfg.adaptation == Adaptation::AspJit {
                Engine::Jit
            } else {
                Engine::Interp
            };
            let router_asp = load(cfg.router_src.unwrap_or(AUDIO_ROUTER_ASP), Policy::strict())
                .expect("router ASP verifies");
            let client_asp = load(AUDIO_CLIENT_ASP, Policy::strict()).expect("client ASP verifies");
            let lc = LayerConfig {
                engine,
                ..LayerConfig::default()
            };
            install_planp(&mut sim, router, &router_asp, lc).expect("install router ASP");
            install_planp(&mut sim, client, &client_asp, lc).expect("install client ASP");
            if let Some((router_b, client_b)) = quiet {
                install_planp(&mut sim, router_b, &router_asp, lc).expect("install router_b ASP");
                install_planp(&mut sim, client_b, &client_asp, lc).expect("install client_b ASP");
            }
        }
        Adaptation::Native => {
            sim.install_hook(router, Box::new(NativeAudioRouter::new()));
            sim.install_hook(client, Box::new(NativeAudioClient));
            if let Some((router_b, client_b)) = quiet {
                sim.install_hook(router_b, Box::new(NativeAudioRouter::new()));
                sim.install_hook(client_b, Box::new(NativeAudioClient));
            }
        }
        Adaptation::Off => {}
    }

    let stats = Rc::new(RefCell::new(AudioClientStats::default()));
    sim.add_app(source, Box::new(AudioSource::new(group)));
    let expect_restored = cfg.adaptation != Adaptation::Off;
    sim.add_app(
        client,
        Box::new(AudioClient::new(stats.clone(), expect_restored)),
    );
    let stats_b = quiet.map(|(_, client_b)| {
        let sb = Rc::new(RefCell::new(AudioClientStats::default()));
        sim.add_app(
            client_b,
            Box::new(AudioClient::with_series(
                sb.clone(),
                expect_restored,
                "audio_rx_kbps_b",
            )),
        );
        sb
    });
    sim.add_app(
        loadgen,
        Box::new(LoadGen::new(
            addr(10, 0, 1, 3),
            cfg.phases.clone(),
            cfg.jitter_pct,
        )),
    );
    sim.add_app(sink, Box::new(NullSink));

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
        let series = |name| sim.series.get(name).map(|s| s.points.clone());
        let result = AudioResult {
            rx_kbps: series("audio_rx_kbps").unwrap_or_default(),
            stats: stats.borrow().clone(),
            segment_drops: sim.link(segment).drops,
            stats_b: stats_b.map(|s| s.borrow().clone()),
            rx_kbps_b: series("audio_rx_kbps_b").unwrap_or_default(),
        };
        let metrics = sim.metrics_snapshot();
        (result, sim.telemetry, metrics)
    };
    (sim, read)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short-horizon adaptation check: full quality while idle, degraded
    /// under load, reacting within a couple of measurement windows.
    #[test]
    fn adaptation_reacts_to_load() {
        let cfg = AudioConfig {
            adaptation: Adaptation::AspJit,
            phases: vec![LoadPhase {
                from_s: 10.0,
                to_s: 30.0,
                kbps: 9450,
            }],
            jitter_pct: 0,
            duration_s: 30,
            seed: 3,
            router_src: None,
            dual_segment: false,
            segment_faults: None,
        };
        let r = run_audio(&cfg);
        let quiet = r.avg_kbps(3.0, 10.0);
        let loaded = r.avg_kbps(14.0, 30.0);
        // Full quality ≈ 176 kb/s + framing; degraded ≈ 44 kb/s of PCM.
        assert!(quiet > 150.0, "quiet bandwidth {quiet} kb/s");
        assert!(loaded < 90.0, "loaded bandwidth {loaded} kb/s");
        // Most frames during the loaded phase were carried as 8-bit mono.
        assert!(
            r.stats.by_format[2] > 150,
            "by_format {:?}",
            r.stats.by_format
        );
        // The quiet phase was carried at full quality.
        assert!(
            r.stats.by_format[0] > 100,
            "by_format {:?}",
            r.stats.by_format
        );
        assert!(r.stats.frames > 520, "frames {}", r.stats.frames);
    }

    /// Fault injection plugs into the audio harness: seeded Bernoulli
    /// loss on the shared segment turns into audible gaps at the client,
    /// and the same seed reproduces the same gap count.
    #[test]
    fn injected_segment_loss_causes_gaps() {
        let mut cfg = AudioConfig::constant_load(Adaptation::AspJit, 1000, 20);
        let clean = run_audio(&cfg);
        cfg.segment_faults = Some((1.0, LinkFaults::loss(0.10)));
        let lossy = run_audio(&cfg);
        let lossy2 = run_audio(&cfg);
        assert!(
            lossy.stats.frames < clean.stats.frames,
            "loss must eat frames: {} vs {}",
            lossy.stats.frames,
            clean.stats.frames
        );
        assert!(
            lossy.stats.gaps > clean.stats.gaps,
            "gaps: {} vs {}",
            lossy.stats.gaps,
            clean.stats.gaps
        );
        assert_eq!(lossy.stats.gaps, lossy2.stats.gaps, "seeded => repeatable");
    }

    #[test]
    fn native_and_asp_agree_on_behavior() {
        let mk = |adaptation| {
            let cfg = AudioConfig {
                adaptation,
                phases: vec![LoadPhase {
                    from_s: 5.0,
                    to_s: 20.0,
                    kbps: 9450,
                }],
                jitter_pct: 0,
                duration_s: 20,
                seed: 3,
                router_src: None,
                dual_segment: false,
                segment_faults: None,
            };
            run_audio(&cfg)
        };
        let asp = mk(Adaptation::AspJit);
        let native = mk(Adaptation::Native);
        let a = asp.avg_kbps(8.0, 20.0);
        let n = native.avg_kbps(8.0, 20.0);
        assert!((a - n).abs() < 15.0, "asp {a} vs native {n}");
    }

    #[test]
    fn no_adaptation_suffers_more_drops() {
        // Load chosen so that load + full-quality audio oversubscribes the
        // segment while load + degraded audio fits — the regime the
        // paper's experiment ran in.
        let mk = |adaptation| {
            run_audio(&AudioConfig {
                adaptation,
                phases: vec![LoadPhase {
                    from_s: 5.0,
                    to_s: 40.0,
                    kbps: 9560,
                }],
                jitter_pct: 0,
                duration_s: 40,
                seed: 7,
                router_src: None,
                dual_segment: false,
                segment_faults: None,
            })
        };
        let on = mk(Adaptation::AspJit);
        let off = mk(Adaptation::Off);
        assert!(
            off.stats.gaps > on.stats.gaps,
            "gaps with adaptation {} vs without {}",
            on.stats.gaps,
            off.stats.gaps
        );
        assert!(off.segment_drops > on.segment_drops);
    }

    #[test]
    fn hysteresis_policy_reduces_format_flapping() {
        let mk = |router_src| {
            run_audio(&AudioConfig {
                adaptation: Adaptation::AspJit,
                phases: vec![LoadPhase {
                    from_s: 5.0,
                    to_s: 60.0,
                    kbps: 7750,
                }],
                jitter_pct: 6,
                duration_s: 60,
                seed: 7,
                router_src,
                dual_segment: false,
                segment_faults: None,
            })
        };
        let default = mk(None);
        let hysteresis = mk(Some(crate::audio::AUDIO_ROUTER_HYSTERESIS_ASP));
        assert!(
            default.stats.format_changes > 3,
            "medium load should flap under the plain policy: {}",
            default.stats.format_changes
        );
        assert!(
            hysteresis.stats.format_changes * 2 < default.stats.format_changes,
            "hysteresis {} vs default {}",
            hysteresis.stats.format_changes,
            default.stats.format_changes
        );
    }

    #[test]
    fn per_segment_adaptation_protects_quiet_clients() {
        // Figure 5's claim: degradation happens per segment. The loaded
        // segment's client receives 8-bit mono while the quiet segment's
        // client keeps full 16-bit stereo.
        let r = run_audio(&AudioConfig {
            adaptation: Adaptation::AspJit,
            phases: vec![LoadPhase {
                from_s: 5.0,
                to_s: 30.0,
                kbps: 9450,
            }],
            jitter_pct: 0,
            duration_s: 30,
            seed: 3,
            router_src: None,
            dual_segment: true,
            segment_faults: None,
        });
        let loaded = r.avg_kbps(12.0, 30.0);
        let b = r.stats_b.expect("second client");
        let quiet_pts: Vec<f64> = r
            .rx_kbps_b
            .iter()
            .filter(|&&(t, _)| (12.0..30.0).contains(&t))
            .map(|&(_, v)| v)
            .collect();
        let quiet = quiet_pts.iter().sum::<f64>() / quiet_pts.len() as f64;
        assert!(loaded < 90.0, "loaded segment {loaded} kb/s");
        assert!(quiet > 160.0, "quiet segment {quiet} kb/s");
        assert!(
            b.by_format[0] > 400,
            "quiet client stays 16-bit stereo: {:?}",
            b.by_format
        );
        assert_eq!(b.gaps, 0);
    }

    #[test]
    fn queue_policy_also_adapts_under_load() {
        let r = run_audio(&AudioConfig {
            adaptation: Adaptation::AspJit,
            phases: vec![LoadPhase {
                from_s: 5.0,
                to_s: 30.0,
                kbps: 9560,
            }],
            jitter_pct: 0,
            duration_s: 30,
            seed: 7,
            router_src: Some(crate::audio::AUDIO_ROUTER_QUEUE_ASP),
            dual_segment: false,
            segment_faults: None,
        });
        // The queue policy degrades when the segment queue builds.
        assert!(
            r.stats.by_format[1] + r.stats.by_format[2] > 100,
            "queue policy never degraded: {:?}",
            r.stats.by_format
        );
    }

    #[test]
    fn interp_engine_produces_same_adaptation() {
        let jit = run_audio(&AudioConfig::constant_load(Adaptation::AspJit, 9450, 15));
        let interp = run_audio(&AudioConfig::constant_load(Adaptation::AspInterp, 9450, 15));
        let a = jit.avg_kbps(8.0, 15.0);
        let b = interp.avg_kbps(8.0, 15.0);
        assert!((a - b).abs() < 10.0, "jit {a} vs interp {b}");
    }
}
