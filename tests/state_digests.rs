//! `Sim::state_digest` of two PLAN-P scenarios after `run_until`, pinned
//! at the commit that made the PLAN-P layer feed its protocol state,
//! channel states (tables entry by entry), entry totals and timer key
//! into it, and re-pinned when every app and hook fed its own (the
//! sequence source and collector, the HTTP clients, servers and trace
//! cursor). A change to how the layer moves packets, counts or profiles
//! must leave where a run *is* unchanged; a one-entry change to a
//! channel's table moves the digest (`layer.rs`,
//! `a_planted_table_entry_moves_the_state_digest`).

use netsim::{Sim, SimTime, TopoSpec};
use planp_analysis::Policy;
use planp_apps::chaos::{SeqCollector, SeqSource, FRAGILE_RELAY_ASP};
use planp_apps::http::{http_sim, ClusterMode, HttpConfig};
use planp_apps::obs::{obs_grid_sim, ObsGridConfig};
use planp_runtime::{install_planp, load, Engine, LayerConfig};
use planp_telemetry::TraceConfig;
use std::time::Duration;

/// 2 chains × 3 relays of the fragile relay ASP, 40 datagrams per
/// chain, seed 11.
fn grid_config() -> ObsGridConfig {
    ObsGridConfig {
        chains: 2,
        hops: 3,
        packets: 40,
        seed: 11,
        ..ObsGridConfig::new(TraceConfig::default())
    }
}

/// The grid of [`grid_config`] with its relays on `engine`, run to 1 s.
/// The JIT grid is the scenario's own builder; the interpreter grid
/// makes the same calls with the engine switched.
fn relay_grid(engine: Engine) -> Sim {
    let cfg = grid_config();
    let mut sim = match engine {
        Engine::Jit => obs_grid_sim(&cfg).0,
        Engine::Interp => {
            let mut sim = Sim::new(cfg.seed);
            let image =
                load(FRAGILE_RELAY_ASP, Policy::no_delivery()).expect("fragile relay verifies");
            let topo = TopoSpec::obs_grid(cfg.chains, cfg.hops);
            let ids = topo.build(&mut sim);
            let config = LayerConfig {
                engine,
                ..LayerConfig::default()
            };
            for r in topo.slice("relays") {
                install_planp(&mut sim, ids[r], &image, config).expect("install relay ASP");
            }
            for &(src, dst) in &topo.paths {
                let source =
                    SeqSource::new(topo.nodes[dst].addr, cfg.packets, Duration::from_millis(2));
                sim.add_app(ids[src], Box::new(source));
                sim.add_app(ids[dst], Box::new(SeqCollector::new()));
            }
            sim
        }
    };
    sim.run_until(SimTime::from_secs(cfg.duration_s));
    sim
}

/// Fig. 8's cluster behind the gateway ASP, 8 clients for 3 s.
fn http_gateway(mode: ClusterMode) -> Sim {
    let cfg = HttpConfig {
        duration_s: 3,
        ..HttpConfig::new(mode, 8)
    };
    let (mut sim, _gw) = http_sim(&cfg, TraceConfig::default());
    sim.run_until(SimTime::from_secs(cfg.duration_s));
    sim
}

#[test]
fn relay_grid_state_digest_is_pinned() {
    let got = [Engine::Jit, Engine::Interp].map(|e| relay_grid(e).state_digest());
    // The engines agree on where the grid is.
    let want = [0x97e7_ce20_d703_7165_u64, 0x97e7_ce20_d703_7165];
    assert_eq!(got, want, "[jit, interp]: {got:#018x?}");
}

#[test]
fn http_gateway_state_digest_is_pinned() {
    let modes = [ClusterMode::AspGateway, ClusterMode::InterpGateway];
    let got = modes.map(|m| http_gateway(m).state_digest());
    // The interpreted gateway's CPU is slower, so its run differs.
    let want = [0x2976_096f_470a_f448_u64, 0xf6d0_da73_8ca9_06f8];
    assert_eq!(got, want, "[jit, interp]: {got:#018x?}");
}
