//! `planp health` — the live SLO health monitor over the chaos relay
//! chain: windowed delivery-floor / latency / queue / fault-burst
//! rules, with flight-recorder dumps frozen at crashes and at the
//! first breached window.
//!
//! ```text
//! planp health --json
//! ```
//!
//! Three monitored stages, all seeded (two runs produce byte-identical
//! output; `planp check` runs it twice and compares):
//!
//! 1. **Fragile relay at 10% loss** — the delivery floor (95% per
//!    window) breaches; the monitor freezes the middle relay's flight
//!    recorder at the first breached window.
//! 2. **Reliable relay at 5% loss** — NACK repair holds every window
//!    above the floor: zero delivery breaches.
//! 3. **Crash schedule** — the middle relay crashes mid-stream under
//!    the reliable relay; the windows spanning the outage breach, the
//!    post-restart windows recover, and the report carries the crashed
//!    node's flight-recorder window (cause `crash`).
//!
//! Each stage asserts its verdict; a violated invariant panics. `--sample 1/N` turns on head-sampled causal tracing for
//! every stage (the monitor's verdicts do not depend on the rate).

use crate::{push_bench, Cli, CliArgs, Report, Sub};
use planp_apps::chaos::{run_relay_chaos, RelayChaosConfig, RelayChaosResult, RelayKind};
use planp_telemetry::TraceConfig;

const HELP: &str = "planp health: live SLO monitor over the chaos relay chain

usage: planp health [--json] [--report] [--sample 1/N]

  --json        write BENCH_planp_health.json
  --report      print the final metrics table
  --sample 1/N  head-sampled causal tracing (default off)
  -h, --help    this text
";

/// `planp health`.
pub(crate) const SUB: Sub = Sub {
    name: "health",
    about: "live SLO monitor over the chaos relay chain",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--report"],
        value_flags: &["--sample"],
        operands: false,
    },
    run,
};

/// Monitor window used by every stage (milliseconds of sim time).
const WINDOW_MS: u64 = 250;

fn monitored(mut cfg: RelayChaosConfig, sample_n: u32) -> RelayChaosConfig {
    cfg.monitor_ms = Some(WINDOW_MS);
    // `--sample 1/N` turns on deterministic head-sampled tracing; the
    // monitor's windowed counters are unaffected by the rate.
    if sample_n > 1 {
        cfg.trace = TraceConfig::sampled(sample_n);
    }
    cfg
}

fn print_stage(out: &mut String, title: &str, res: &RelayChaosResult) {
    let health = res.health.as_ref().expect("monitored run");
    outln!(out, "=== {title} ===");
    out.push_str(&health.report);
    if health.flight.is_empty() {
        outln!(out, "flight dumps: none");
    } else {
        out.push_str(&health.flight);
    }
    outln!(
        out,
        "delivery {:.3}  breaches={} (delivery={})  recovered={}",
        res.delivery_ratio,
        health.breaches,
        health.delivery_breaches,
        match health.delivery_recovered {
            Some(true) => "true",
            Some(false) => "false",
            None => "n/a",
        }
    );
    outln!(out);
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let sample_n = args.sample()?;
    let mut report = Report::default();
    let out = &mut report.stdout;
    let mut scalars: Vec<(String, f64)> = Vec::new();

    // --- 1. fragile relay: the floor must breach ------------------------
    let fragile = run_relay_chaos(&monitored(
        RelayChaosConfig::loss(RelayKind::Fragile, 0.10),
        sample_n,
    ));
    print_stage(out, "fragile relay, 10% per-link loss", &fragile);
    let fh = fragile.health.as_ref().unwrap();
    assert!(
        fh.delivery_breaches >= 1,
        "fragile relay must violate the delivery floor: {}",
        fh.report
    );
    assert!(
        fh.flight.contains("node=r3"),
        "first breach must freeze the middle relay's flight window:\n{}",
        fh.flight
    );
    scalars.push((
        "fragile_delivery_breaches".into(),
        fh.delivery_breaches as f64,
    ));
    scalars.push(("fragile_breaches".into(), fh.breaches as f64));

    // --- 2. reliable relay: every window healthy ------------------------
    let reliable = run_relay_chaos(&monitored(
        RelayChaosConfig::loss(RelayKind::Reliable, 0.05),
        sample_n,
    ));
    print_stage(out, "reliable relay, 5% per-link loss", &reliable);
    let rh = reliable.health.as_ref().unwrap();
    assert_eq!(
        rh.delivery_breaches, 0,
        "NACK repair must hold the floor: {}",
        rh.report
    );
    assert_eq!(rh.delivery_recovered, Some(true));
    scalars.push((
        "reliable_delivery_breaches".into(),
        rh.delivery_breaches as f64,
    ));

    // --- 3. crash schedule: breach during the outage, recover after ----
    let mut cfg = RelayChaosConfig::loss(RelayKind::Reliable, 0.02);
    cfg.crash_relay = Some((0.25, 0.55));
    let crash = run_relay_chaos(&monitored(cfg, sample_n));
    print_stage(
        out,
        "crash schedule (middle relay down 0.25-0.55 s)",
        &crash,
    );
    let ch = crash.health.as_ref().unwrap();
    assert!(
        ch.delivery_breaches >= 1,
        "the outage windows must breach: {}",
        ch.report
    );
    assert_eq!(
        ch.delivery_recovered,
        Some(true),
        "post-restart windows must recover: {}",
        ch.report
    );
    assert!(
        ch.flight.contains("cause=crash") && ch.flight.contains("node=r3"),
        "the crashed node's flight window must be in the report:\n{}",
        ch.flight
    );
    assert!(crash.delivery_ratio >= 0.99, "repair covers the outage");
    scalars.push((
        "crash_delivery_breaches".into(),
        ch.delivery_breaches as f64,
    ));
    scalars.push(("crash_breaches".into(), ch.breaches as f64));
    scalars.push(("crash_delivery".into(), crash.delivery_ratio));

    outln!(out, "all health invariants hold");
    push_bench(&mut report, args, "planp_health", &scalars, &crash.snapshot);
    Ok(report)
}
