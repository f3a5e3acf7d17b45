//! Causal-tracing contract across the three paper scenarios: every
//! delivered packet belongs to exactly one span tree rooted at an
//! application ingress, the observed fan-out never exceeds (and, for
//! the audio router, exactly matches) the static duplication bound,
//! both exporters are byte-stable across same-seed runs, and every
//! export is byte-for-byte what commit 181a903 wrote.

use netsim::digest::Fnv;
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig, AUDIO_ROUTER_ASP};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};
use planp_apps::obs::{run_obs_grid, ObsGridConfig};
use planp_runtime::load;
use planp_telemetry::{
    chrome_trace, prometheus, MetricsSnapshot, SpanOrigin, Telemetry, TraceConfig, TraceForest,
};
use std::hash::Hasher;

fn audio_cfg() -> AudioConfig {
    AudioConfig::constant_load(Adaptation::AspJit, 9450, 15)
}

/// All categories, with a ring large enough that nothing is evicted
/// (completeness needs every `span_start`).
fn roomy() -> TraceConfig {
    TraceConfig {
        capacity: 1 << 19,
        ..TraceConfig::all()
    }
}

fn http_cfg() -> HttpConfig {
    let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
    cfg.duration_s = 12;
    cfg
}

/// Every span sits in exactly one tree (single parent by construction;
/// no orphans), every tree's root is an application ingress, and every
/// delivery happened inside such a tree.
fn assert_forest_complete(telemetry: &Telemetry, what: &str) {
    let forest = TraceForest::from_log(&telemetry.trace);
    assert_eq!(
        telemetry.trace.evicted(),
        0,
        "{what}: ring eviction would make trees partial"
    );
    assert!(!forest.roots().is_empty(), "{what}: no span trees at all");
    assert!(
        forest.orphans().is_empty(),
        "{what}: {} orphan span(s)",
        forest.orphans().len()
    );
    for &root in forest.roots() {
        let s = forest.span(root).unwrap();
        assert_eq!(s.parent, 0, "{what}: root {root} has a parent");
        assert_eq!(
            s.origin,
            SpanOrigin::Ingress,
            "{what}: root {root} not an ingress"
        );
    }
    let mut deliveries = 0u64;
    for s in forest.spans() {
        let root = forest
            .root_of(s.id)
            .unwrap_or_else(|| panic!("{what}: span {} has no root", s.id));
        assert_eq!(
            root.id, s.trace,
            "{what}: span {} rooted at {} but carries trace id {}",
            s.id, root.id, s.trace
        );
        deliveries += s.deliveries.len() as u64;
    }
    assert!(deliveries > 0, "{what}: nothing was delivered");
    assert_eq!(
        deliveries,
        forest.end_to_end().summary().count,
        "{what}: every delivery measures one end-to-end latency"
    );
}

#[test]
fn audio_forest_is_complete() {
    let (_, t, _) = run_audio_traced(&audio_cfg(), roomy());
    assert_forest_complete(&t, "audio");
}

#[test]
fn http_forest_is_complete() {
    let (_, t, _) = run_http_traced(&http_cfg(), roomy());
    assert_forest_complete(&t, "http");
}

#[test]
fn mpeg_forest_is_complete() {
    let (_, t, _) = run_mpeg_traced(&MpegConfig::new(2, true), roomy());
    assert_forest_complete(&t, "mpeg");
}

#[test]
fn audio_fanout_matches_static_duplication_bound() {
    // The cost analysis bounds executed send sites per dispatch; the
    // observed span fan-out is exactly that duplication, so the two
    // must agree: no span has more children than the worst channel's
    // bound, and the router's steady-state forwarding attains it.
    let image = load(AUDIO_ROUTER_ASP, planp_analysis::Policy::strict()).unwrap();
    let bound = (0..image.prog.channels.len())
        .map(|i| image.report.cost.bound_for(i).sends)
        .max()
        .unwrap();
    let (_, t, _) = run_audio_traced(&audio_cfg(), roomy());
    let forest = TraceForest::from_log(&t.trace);
    let fan = forest.fanout().summary();
    assert!(fan.count > 0);
    assert_eq!(
        fan.max, bound,
        "observed max fan-out {} vs static send bound {bound}",
        fan.max
    );
}

#[test]
fn exports_are_byte_stable_across_same_seed_runs() {
    let run = || {
        let (_, t, m) = run_audio_traced(&audio_cfg(), roomy());
        let forest = TraceForest::from_log(&t.trace);
        (chrome_trace(&forest, &t.nodes), prometheus(&m))
    };
    let (chrome1, prom1) = run();
    let (chrome2, prom2) = run();
    assert!(chrome1.contains("\"traceEvents\""));
    assert!(prom1.contains("planp_"));
    assert_eq!(chrome1, chrome2, "Chrome export must be byte-stable");
    assert_eq!(prom1, prom2, "Prometheus export must be byte-stable");
}

/// `(len, FNV-1a)` of `chrome_trace`, `TraceForest::render`,
/// `to_jsonl` and `prometheus`, in that order, for the audio, HTTP and
/// MPEG scenarios of this file and the 1/16-sampled observability grid.
/// Computed at commit 181a903, the last one whose forest was a
/// `BTreeMap` and whose exporters formatted numbers through temporary
/// `String`s, so the readers that replaced them are held to those
/// bytes and not only to themselves. The grid's Prometheus pin is
/// those bytes less the two lines of the removed
/// `planp_sim_trace_rate_limited` counter (`# TYPE` and its `0` sample).
const EXPORT_PINS: [(&str, [(usize, u64); 4]); 4] = [
    (
        "audio",
        [
            (3_617_382, 0x87DC_81F8_92D3_1E87),
            (1_197_896, 0x0811_5F8C_DFAD_AEF9),
            (3_962_658, 0xBC81_C743_714D_1229),
            (3_659, 0x60FE_4420_174A_7068),
        ],
    ),
    (
        "http",
        [
            (15_184_711, 0xE98E_A79F_7D8D_A5AD),
            (3_714_071, 0x9B66_A94E_B3B5_0AE3),
            (16_366_942, 0xFF55_1A1F_1548_1313),
            (4_950, 0x9730_8AB2_6F06_2F9B),
        ],
    ),
    (
        "mpeg",
        [
            (583_567, 0x1A80_49E0_DBDF_57B8),
            (122_990, 0xCF5B_60CA_8C50_A0DA),
            (859_770, 0x594F_9603_7F1E_3C48),
            (4_541, 0x1203_9270_D080_6BBF),
        ],
    ),
    (
        "grid 1/16",
        [
            (292_074, 0x2652_F889_1D78_0A09),
            (56_497, 0x1601_9A66_CA0F_880D),
            (419_701, 0xFA00_3908_C325_160D),
            (259_573, 0x1FEE_C930_01E3_687A),
        ],
    ),
];

fn len_and_fnv1a(s: &str) -> (usize, u64) {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    (s.len(), h.finish())
}

#[test]
fn exports_match_the_bytes_of_commit_181a903() {
    let (_, audio, audio_m) = run_audio_traced(&audio_cfg(), roomy());
    let (_, http, http_m) = run_http_traced(&http_cfg(), roomy());
    let (_, mpeg, mpeg_m) = run_mpeg_traced(&MpegConfig::new(2, true), roomy());
    let grid = run_obs_grid(&ObsGridConfig::new(TraceConfig {
        capacity: 1 << 17,
        ..TraceConfig::sampled(16)
    }));
    let runs: [(Telemetry, MetricsSnapshot); 4] = [
        (audio, audio_m),
        (http, http_m),
        (mpeg, mpeg_m),
        (grid.telemetry, grid.snapshot),
    ];
    for ((t, m), (name, pins)) in runs.iter().zip(EXPORT_PINS) {
        let forest = TraceForest::from_log(&t.trace);
        let got = [
            chrome_trace(&forest, &t.nodes),
            forest.render(&t.nodes),
            t.trace.to_jsonl(),
            prometheus(m),
        ]
        .map(|export| len_and_fnv1a(&export));
        assert_eq!(got, pins, "{name} (chrome, render, jsonl, prom): {got:#X?}");
    }
}
