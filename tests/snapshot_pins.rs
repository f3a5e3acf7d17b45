//! The bytes of `Sim::metrics_snapshot().to_json()` and the metrics
//! registry's digest, pinned on two inputs: a 16 × 6 relay grid after a
//! short run, and a hand-built simulator whose names sort awkwardly
//! (`a` against `a.b` and `a-b`, `c10` before `c2`, `link10` before
//! `link2`). Both the snapshot's key order and its overwrite rules show
//! here: a simulator key replaces a registry key of the same name, a
//! registered counter never bumped is left out and one `add`-ed at zero
//! is shown.

use netsim::digest::Fnv;
use netsim::packet::addr;
use netsim::{LinkSpec, Sim, SimTime};
use planp_apps::chaos::{SeqCollector, SeqSource};
use planp_apps::obs::{obs_grid_sim, ObsGridConfig};
use planp_telemetry::TraceConfig;
use std::hash::Hasher;
use std::time::Duration;

/// `(len, FNV-1a)` of the snapshot JSON and the registry digest, per
/// input, computed at commit cbc3893.
const SNAPSHOT_PINS: [(&str, (usize, u64), u64); 2] = [
    (
        "grid 16x6",
        (50_453, 0x928F_67BB_2F34_665C),
        0x8195_63B6_F218_DFDC,
    ),
    (
        "awkward names",
        (1_945, 0x3D03_21D4_B997_9549),
        0x21F4_CDA7_DDFA_F69F,
    ),
];

fn len_and_fnv1a(s: &str) -> (usize, u64) {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    (s.len(), h.finish())
}

fn grid() -> Sim {
    let (mut sim, _) = obs_grid_sim(&ObsGridConfig {
        chains: 16,
        hops: 6,
        ..ObsGridConfig::new(TraceConfig::default())
    });
    sim.run_until(SimTime::from_ms(30));
    sim
}

/// Six routers whose names sort differently with and without the `.`
/// after them, joined pairwise by 15 links, two chains of datagrams
/// across them, and registry entries that collide with, hide from and
/// sit between the simulator's own keys. `c1` is crashed, so its sparse
/// `crashes` leaf shows.
fn awkward_names() -> Sim {
    let mut sim = Sim::new(3);
    let names = ["c2", "a.b", "c10", "a", "a-b", "c1"];
    let nodes: Vec<_> = (names.iter().enumerate())
        .map(|(i, n)| sim.add_router(n, addr(10, 0, i as u8, 1)))
        .collect();
    for (i, &x) in nodes.iter().enumerate() {
        for &y in &nodes[i + 1..] {
            sim.add_link(LinkSpec::ethernet_10(), &[x, y]);
        }
    }
    sim.compute_routes();
    for (src, dst) in [(3, 1), (4, 2)] {
        let to = addr(10, 0, dst as u8, 1);
        let source = SeqSource::new(to, 6, Duration::from_millis(2));
        sim.add_app(nodes[src], Box::new(source));
        sim.add_app(nodes[dst], Box::new(SeqCollector::new()));
    }
    let m = &mut sim.telemetry.metrics;
    m.add("node.a.delivered", 1_000);
    m.register_counter("node.c2.idle");
    m.add("node.c1.bound", 0);
    m.add("node.a.b.chan.x.dispatch", 3);
    m.add("link10.note", 1);
    m.add("sim.packets", 7);
    for v in [3, 40, 500] {
        m.observe("node.a-b.latency_ns", v);
    }
    sim.crash_node(nodes[5]);
    sim.run_until(SimTime::from_ms(40));
    sim
}

#[test]
fn the_awkward_input_exercises_every_overwrite_rule() {
    let snap = awkward_names().metrics_snapshot();
    let c = &snap.counters;
    assert!(c["node.a.delivered"] < 1_000, "the simulator's key wins");
    assert!(c["sim.packets"] > 7, "sim.* keys come last");
    assert!(!c.contains_key("node.c2.idle"), "registered, never bumped");
    assert_eq!(c["node.c1.bound"], 0, "added at zero");
    assert_eq!(c["link10.note"], 1);
    assert_eq!(c["node.c1.crashes"], 1, "a sparse leaf, shown when nonzero");
    assert!(snap.histograms.contains_key("node.a-b.latency_ns"));
    assert!(snap.histograms.contains_key("link10.queue_depth"));
}

#[test]
fn snapshots_and_registry_digests_match_their_pins() {
    for (sim, (name, json, digest)) in [grid(), awkward_names()].iter().zip(SNAPSHOT_PINS) {
        let got_json = len_and_fnv1a(&sim.metrics_snapshot().to_json());
        let mut h = Fnv::default();
        sim.telemetry.metrics.digest(&mut h);
        let got_digest = h.finish();
        assert_eq!(
            (got_json, got_digest),
            (json, digest),
            "{name} (snapshot json, registry digest): {got_json:#X?} {got_digest:#X}"
        );
    }
}
