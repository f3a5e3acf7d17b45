//! The PLAN-P layer's and the cluster gateway's run statistics, pinned
//! to the values of commit d110b18 — the last commit at which each kept
//! a struct of counters beside the metrics registry.
//!
//! Per node with an installed layer in the traced audio, http and mpeg
//! scenarios (both engines where the scenario offers a choice; the mpeg
//! scenario always runs the bytecode engine), every `LayerStats` field
//! but `passed` and `state_entries`, summed over the node's
//! `node.<n>.chan.<c>.*` counters as `PlanpHandle::stats` sums them; and
//! for `ClusterConfig::smoke()`, every gateway counter, the breaker opens
//! and the agg tier's admission drops. A statistic read from another
//! store must read the same.

use planp::telemetry::{MetricsSnapshot, TraceConfig};
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig};
use planp_apps::cluster::{run_cluster, ClusterConfig};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};

/// `(matched, errors, dropped, vm_steps, cost_bound_exceeded,
/// state_inserts, state_bound_exceeded, shed, deadline_expired)`, each
/// field the per-channel counter of that name (`matched` reads
/// `dispatch`).
type Row = [u64; 9];
const FIELDS: [&str; 9] = [
    "dispatch",
    "errors",
    "dropped",
    "vm_steps",
    "cost_bound_exceeded",
    "state_inserts",
    "state_bound_exceeded",
    "shed",
    "deadline_expired",
];

fn rows(nodes: &[&str], snap: &MetricsSnapshot) -> Vec<Row> {
    nodes
        .iter()
        .map(|node| {
            let prefix = format!("node.{node}.chan.");
            let mut row = [0; 9];
            for (key, &v) in &snap.counters {
                let Some((_chan, what)) = key
                    .strip_prefix(&prefix)
                    .and_then(|rest| rest.rsplit_once('.'))
                else {
                    continue;
                };
                if let Some(i) = FIELDS.iter().position(|f| *f == what) {
                    row[i] += v;
                }
            }
            row
        })
        .collect()
}

#[test]
fn audio_layer_stats_are_those_of_the_pinned_commit() {
    // Engine choice moves no simulated time here, so both read alike.
    for adaptation in [Adaptation::AspJit, Adaptation::AspInterp] {
        let cfg = AudioConfig::constant_load(adaptation, 9450, 10);
        let (_, _, snap) = run_audio_traced(&cfg, TraceConfig::default());
        assert_eq!(rows(&["router", "client"], &snap), AUDIO, "{adaptation:?}");
    }
}

#[test]
fn http_layer_stats_are_those_of_the_pinned_commit() {
    // The interpreted gateway is modelled as a slower CPU: fewer
    // requests get through in the same ten seconds.
    for (mode, want) in [
        (ClusterMode::AspGateway, HTTP_JIT),
        (ClusterMode::InterpGateway, HTTP_INTERP),
    ] {
        let mut cfg = HttpConfig::new(mode, 8);
        cfg.duration_s = 10;
        let (_, _, snap) = run_http_traced(&cfg, TraceConfig::default());
        assert_eq!(rows(&["gateway"], &snap), want, "{mode:?}");
    }
}

#[test]
fn mpeg_layer_stats_are_those_of_the_pinned_commit() {
    let (_, _, snap) = run_mpeg_traced(&MpegConfig::new(2, true), TraceConfig::default());
    assert_eq!(rows(&["monitor", "viewer0", "viewer1"], &snap), MPEG_JIT);
}

#[test]
fn cluster_gateway_stats_are_those_of_the_pinned_commit() {
    let r = run_cluster(&ClusterConfig::smoke());
    let got = [
        r.admitted,
        r.snapshot.counters["gw.responses"],
        r.shed_brownout,
        r.shed_saturated,
        r.shed_queue,
        r.gw_expired,
        r.timeouts,
        r.probes,
        r.sent_while_broken,
        r.opens,
        r.agg_shed,
        r.agg_expired,
    ];
    assert_eq!(got, CLUSTER_SMOKE, "{}", r.transitions_log);
}

const AUDIO: &[Row] = &[
    [199, 0, 0, 17613, 0, 0, 0, 0, 0],
    [199, 0, 0, 10948, 0, 0, 0, 0, 0],
];
const HTTP_JIT: &[Row] = &[[16197, 0, 0, 699466, 0, 1609, 0, 0, 0]];
const HTTP_INTERP: &[Row] = &[[4385, 0, 0, 189351, 0, 434, 0, 0, 0]];
const MPEG_JIT: &[Row] = &[
    [517, 0, 515, 13167, 0, 2, 0, 0, 0],
    [500, 0, 1, 8505, 0, 0, 0, 0, 0],
    [501, 0, 39, 12410, 0, 1, 0, 0, 0],
];
/// `(admitted, responses, shed_brownout, shed_saturated, shed_queue,
/// expired, timeouts, probes, sent_while_broken, opens, agg shed, agg
/// deadline_expired)`.
const CLUSTER_SMOKE: [u64; 12] = [12385, 12349, 0, 1578, 0, 0, 36, 0, 0, 2, 6037, 0];
