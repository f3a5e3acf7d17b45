//! `planp diverge` — run a scenario twice in one process and say where
//! the two runs first differ.
//!
//! ```text
//! planp diverge relay_grid --seed 11
//! planp diverge cluster
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
//! Each scenario is built by the `planp_apps` builder its `run_*`
//! runs (default seed: the configuration's own):
//!
//! * `relay_grid` — `obs_grid_sim`: 2 chains × 3 fragile relays, 40
//!   datagrams a chain, to 1 s (default seed 11);
//! * `http` — `http_sim`: Fig. 8's gateway ASP, 8 clients, to 3 s;
//! * `audio` — `audio_sim`: the JIT'd audio ASPs under 9.45 Mb/s of
//!   load from 5 s, to 20 s;
//! * `mpeg` — `mpeg_sim`: three viewers sharing one stream, to 22 s;
//! * `chaos` — `relay_chaos_sim`: the reliable relay chain at 2 % loss,
//!   `r2` down from 0.25 s to 0.55 s, health monitor on, to 5 s;
//! * `cluster` — `cluster_sim`: the flash crowd's smoke shape, to 3 s.

use crate::{Cli, CliArgs, Report, Sub};
use netsim::diverge::first_divergence;
use netsim::{Sim, SimTime};
use planp_apps::audio::{audio_sim, Adaptation, AudioConfig};
use planp_apps::chaos::{relay_chaos_sim, RelayChaosConfig, RelayKind};
use planp_apps::cluster::{cluster_sim, ClusterConfig};
use planp_apps::http::{http_sim, ClusterMode, HttpConfig};
use planp_apps::mpeg::{mpeg_sim, MpegConfig};
use planp_apps::obs::{obs_grid_sim, ObsGridConfig};
use planp_telemetry::TraceConfig;

const HELP: &str = "planp diverge: run a scenario twice, report where the runs first differ

usage: planp diverge <relay_grid|http|audio|mpeg|chaos|cluster> [--seed N]

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

/// The scenarios, in the order the usage lists them.
const SCENARIOS: [&str; 6] = ["relay_grid", "http", "audio", "mpeg", "chaos", "cluster"];

fn run(args: &CliArgs) -> Result<Report, String> {
    let seed: Option<u64> = args.number("--seed", "seed")?;
    let names = SCENARIOS.join(", ");
    let scenario = match args.positionals.as_slice() {
        [s] => s.as_str(),
        [] => return Err(format!("name a scenario: {names} (try --help)")),
        _ => return Err("more than one scenario (try --help)".to_string()),
    };
    let untraced = TraceConfig::default;
    let diverge =
        |build: &dyn Fn() -> Sim, secs| first_divergence(build, FIRST, SimTime::from_secs(secs));
    let found = match scenario {
        "relay_grid" => {
            let cfg = ObsGridConfig {
                chains: 2,
                hops: 3,
                packets: 40,
                seed: seed.unwrap_or(11),
                ..ObsGridConfig::new(untraced())
            };
            diverge(&|| obs_grid_sim(&cfg).0, cfg.duration_s)
        }
        "http" => {
            let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
            cfg.seed = seed.unwrap_or(cfg.seed);
            diverge(&|| http_sim(&cfg, untraced()).0, 3)
        }
        "audio" => {
            let mut cfg = AudioConfig::constant_load(Adaptation::AspJit, 9450, 20);
            cfg.seed = seed.unwrap_or(cfg.seed);
            diverge(&|| audio_sim(&cfg, untraced()).0, cfg.duration_s)
        }
        "mpeg" => {
            let mut cfg = MpegConfig::new(3, true);
            cfg.seed = seed.unwrap_or(cfg.seed);
            diverge(&|| mpeg_sim(&cfg, untraced()).0, cfg.duration.as_secs())
        }
        "chaos" => {
            let mut cfg = RelayChaosConfig::loss(RelayKind::Reliable, 0.02);
            cfg.crash_relay = Some((0.25, 0.55));
            cfg.monitor_ms = Some(100);
            cfg.seed = seed.unwrap_or(cfg.seed);
            diverge(&|| relay_chaos_sim(&cfg).0, cfg.duration_s)
        }
        "cluster" => {
            let mut cfg = ClusterConfig::smoke();
            cfg.seed = seed.unwrap_or(cfg.seed);
            diverge(&|| cluster_sim(&cfg).0, cfg.duration_s)
        }
        other => return Err(format!("unknown scenario {other:?} ({names})")),
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
    fn every_scenario_agrees_with_itself() {
        for name in SCENARIOS {
            let report = run(&SUB.cli.parse_from(&[name.to_string()]).unwrap()).unwrap();
            assert!(!report.failed, "{}", report.stdout);
            assert_eq!(
                report.stdout,
                format!("{name}: the two runs agree at every comparison (1 ms, doubling)\n")
            );
        }
    }

    #[test]
    fn an_unknown_scenario_is_a_usage_error() {
        let argv = ["nope".to_string()];
        let e = run(&SUB.cli.parse_from(&argv).unwrap()).unwrap_err();
        assert_eq!(
            e,
            "unknown scenario \"nope\" (relay_grid, http, audio, mpeg, chaos, cluster)"
        );
    }
}
