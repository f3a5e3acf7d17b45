//! `planp diverge` — run a scenario twice in one process and say where
//! the two runs first differ.
//!
//! ```text
//! planp diverge relay_grid --seed 11
//! planp diverge http
//! ```
//!
//! The runs are compared by `Sim::state_digest` at `run_until` times
//! that double from 1 ms; the first slice that differs is bisected down
//! to one event (`netsim::diverge`). The report prints the slice, the
//! first differing component (a node, a link, an app or a hook) and the
//! event; a divergence is exit status 1. Each run builds its own hash
//! maps, so a map iterated in `RandomState` order shows as a divergence
//! here even when the printed outputs happen to agree.
//!
//! Scenarios:
//!
//! * `relay_grid` — 2 chains × 3 relays of the fragile relay ASP, 40
//!   sequenced datagrams per chain, to 1 s (default seed 11);
//! * `http` — Fig. 8's cluster behind the gateway ASP, 8 clients, to
//!   3 s (default seed: the scenario's).

use crate::{Cli, CliArgs, Report, Sub};
use netsim::diverge::first_divergence;
use netsim::{Sim, SimTime, TopoSpec};
use planp_analysis::Policy;
use planp_apps::chaos::{SeqCollector, SeqSource, FRAGILE_RELAY_ASP};
use planp_apps::http::{http_sim, ClusterMode, HttpConfig};
use planp_runtime::{install_planp, load, LayerConfig};
use planp_telemetry::TraceConfig;
use std::time::Duration;

const HELP: &str = "planp diverge: run a scenario twice, report where the runs first differ

usage: planp diverge <relay_grid|http> [--seed N]

  --seed N    simulation seed (default: the scenario's)
  -h, --help  this text

Exit status 1 when the runs diverge.
";

/// `planp diverge`.
pub(crate) const SUB: Sub = Sub {
    name: "diverge",
    about: "run a scenario twice, report where the runs first differ",
    cli: Cli {
        help: HELP,
        flags: &[],
        value_flags: &["--seed"],
        operands: true,
    },
    run,
};

/// The first comparison; later ones double it.
const FIRST: SimTime = SimTime(1_000_000);

/// 2 chains × 3 relays of the fragile relay ASP, 40 datagrams a chain.
fn relay_grid(seed: u64) -> Sim {
    let mut sim = Sim::new(seed);
    let image = load(FRAGILE_RELAY_ASP, Policy::no_delivery()).expect("fragile relay verifies");
    let topo = TopoSpec::obs_grid(2, 3);
    let ids = topo.build(&mut sim);
    for r in topo.slice("relays") {
        install_planp(&mut sim, ids[r], &image, LayerConfig::default()).expect("install relay");
    }
    for &(src, dst) in &topo.paths {
        let source = SeqSource::new(topo.nodes[dst].addr, 40, Duration::from_millis(2));
        sim.add_app(ids[src], Box::new(source));
        sim.add_app(ids[dst], Box::new(SeqCollector::new()));
    }
    sim
}

fn http(seed: Option<u64>) -> HttpConfig {
    let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
    cfg.duration_s = 3;
    cfg.seed = seed.unwrap_or(cfg.seed);
    cfg
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let seed: Option<u64> = args.number("--seed", "seed")?;
    let scenario = match args.positionals.as_slice() {
        [s] => s.as_str(),
        [] => return Err("name a scenario: relay_grid or http (try --help)".to_string()),
        _ => return Err("more than one scenario (try --help)".to_string()),
    };
    let found = match scenario {
        "relay_grid" => {
            let seed = seed.unwrap_or(11);
            first_divergence(&|| relay_grid(seed), FIRST, SimTime::from_secs(1))
        }
        "http" => {
            let cfg = http(seed);
            let until = SimTime::from_secs(cfg.duration_s);
            first_divergence(&|| http_sim(&cfg, TraceConfig::default()).0, FIRST, until)
        }
        other => return Err(format!("unknown scenario {other:?} (relay_grid, http)")),
    };
    let mut report = Report::default();
    let ms = |t: SimTime| t.as_nanos() as f64 / 1e6;
    match found {
        None => outln!(
            report.stdout,
            "{scenario}: the two runs agree at every comparison (1 ms, doubling)"
        ),
        Some(d) => {
            outln!(report.stdout, "{scenario}: the two runs diverge");
            let (from, to) = d.slice;
            outln!(
                report.stdout,
                "  slice      ({} ms, {} ms]",
                ms(from),
                ms(to)
            );
            outln!(report.stdout, "  component  {}", d.component);
            outln!(report.stdout, "  event      {}", d.event);
            report.failed = true;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_relay_grid_does_not_diverge() {
        let argv = ["relay_grid".to_string()];
        let report = run(&SUB.cli.parse_from(&argv).unwrap()).unwrap();
        assert!(!report.failed, "{}", report.stdout);
        assert_eq!(
            report.stdout,
            "relay_grid: the two runs agree at every comparison (1 ms, doubling)\n"
        );
    }

    #[test]
    fn an_unknown_scenario_is_a_usage_error() {
        let argv = ["nope".to_string()];
        let e = run(&SUB.cli.parse_from(&argv).unwrap()).unwrap_err();
        assert!(e.starts_with("unknown scenario"), "{e}");
    }
}
