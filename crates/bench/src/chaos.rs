//! Chaos sweep: the three experiments of section 3 plus the relay
//! chain, run under seeded fault injection.
//!
//! ```text
//! planp chaos --json
//! ```
//!
//! Four stages, all derived from fixed seeds so two runs produce
//! byte-identical output (`planp check` runs it twice and compares):
//!
//! 1. **Relay loss sweep** — per-link Bernoulli loss 0–20% across the
//!    five-hop chain, reliable (NACK-repaired) vs fragile (verified but
//!    retransmission-free) relay programs.
//! 2. **Crash schedule** — the middle relay crashes mid-stream, loses
//!    its protocol state, and is re-verified + reinstalled on restart.
//! 3. **HTTP failover** — a backend server crashes under the failover
//!    gateway: requests drain to the fallback with zero drops at the
//!    corpse.
//! 4. **Audio / MPEG under loss** — the section 3 applications with
//!    impairments on their shared segment.
//!
//! Every stage also asserts the run's invariants (delivery thresholds,
//! the drop-accounting identity, the static duplicate-amplification
//! bound, recovery counts); a violated invariant panics.
//!
//! `--sample 1/N` turns on causal tracing with deterministic head
//! sampling across every stage (default: tracing off). Sampling never
//! perturbs the runs — the invariants hold at any rate.

use crate::{push_bench, render_table, Cli, CliArgs, Report, Sub};
use netsim::LinkFaults;
use planp_apps::audio::{run_audio, Adaptation, AudioConfig};
use planp_apps::chaos::{run_relay_chaos, RelayChaosConfig, RelayChaosResult, RelayKind};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig, HTTP_GATEWAY_FAILOVER_ASP};
use planp_apps::mpeg::{run_mpeg, MpegConfig};
use planp_telemetry::TraceConfig;

const HELP: &str = "planp chaos: seeded fault-injection sweep over the section 3 apps

usage: planp chaos [--json] [--report] [--sample 1/N]

  --json        write BENCH_planp_chaos.json
  --report      print the final metrics table
  --sample 1/N  head-sampled causal tracing (default off)
  -h, --help    this text
";

/// `planp chaos`.
pub(crate) const SUB: Sub = Sub {
    name: "chaos",
    about: "seeded fault-injection sweep over the section 3 apps",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--report"],
        value_flags: &["--sample"],
        operands: false,
    },
    run,
};

/// The invariants every relay run must satisfy, whatever its config.
fn check_common(label: &str, res: &RelayChaosResult) {
    assert!(
        res.drop_identity_holds(),
        "{label}: total_link_drops {} != congestion {} + fault {}",
        res.total_link_drops,
        res.sum_link_drops,
        res.sum_fault_drops
    );
    assert!(
        res.node_drop_identity_holds(),
        "{label}: total_node_drops {} != per-node policy + cpu + shed {}",
        res.total_node_drops,
        res.sum_node_drops
    );
    assert!(
        res.duplicates_within_bound(),
        "{label}: {} duplicates exceed {} dup events x send bound {}",
        res.duplicates,
        res.fault.duplicated,
        res.sends_bound
    );
    assert_eq!(res.recovery_failures, 0, "{label}: recovery failed");
    assert!(
        res.unique as f64 <= res.snapshot.counters["node.dst.delivered"] as f64,
        "{label}: collector saw more than the node delivered"
    );
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let sample_n = args.sample()?;
    let mut report = Report::default();
    let out = &mut report.stdout;
    let trace = if sample_n > 1 {
        TraceConfig::sampled(sample_n)
    } else {
        TraceConfig::default()
    };
    let traced = |mut cfg: RelayChaosConfig| {
        cfg.trace = trace;
        cfg
    };
    let mut scalars: Vec<(String, f64)> = Vec::new();

    // --- 1. relay loss sweep -------------------------------------------
    outln!(
        out,
        "Relay chain under per-link Bernoulli loss (5 hops, seeded)"
    );
    let mut rows = Vec::new();
    for loss in [0.0, 0.05, 0.10, 0.20] {
        let mut row = vec![format!("{:.0}%", loss * 100.0)];
        for kind in [RelayKind::Reliable, RelayKind::Fragile] {
            let res = run_relay_chaos(&traced(RelayChaosConfig::loss(kind, loss)));
            check_common(&format!("loss {loss} {}", kind.name()), &res);
            let pct = (loss * 100.0) as u64;
            scalars.push((
                format!("relay_{}_loss{pct}_delivery", kind.name()),
                res.delivery_ratio,
            ));
            scalars.push((
                format!("relay_{}_loss{pct}_retransmits", kind.name()),
                res.retransmits as f64,
            ));
            row.push(format!("{:.3}", res.delivery_ratio));
            row.push(res.retransmits.to_string());
            row.push(res.sum_fault_drops.to_string());
        }
        rows.push(row);
    }
    outln!(
        out,
        "{}",
        render_table(
            &[
                "loss/link",
                "reliable",
                "nacks->src",
                "fault drops",
                "fragile",
                "nacks->src",
                "fault drops",
            ],
            &rows
        )
    );

    // The headline acceptance numbers.
    let reliable5 = scalars
        .iter()
        .find(|(k, _)| k == "relay_reliable_loss5_delivery")
        .map(|(_, v)| *v)
        .unwrap();
    let fragile10 = scalars
        .iter()
        .find(|(k, _)| k == "relay_fragile_loss10_delivery")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(reliable5 >= 0.99, "reliable relay at 5% loss: {reliable5}");
    assert!(fragile10 < 0.7, "fragile relay at 10% loss: {fragile10}");
    outln!(out, "invariants: reliable@5% = {reliable5:.3} (>= 0.99), fragile@10% = {fragile10:.3} (< 0.7)\n");

    // Duplication: amplification stays under the static send bound.
    for kind in [RelayKind::Reliable, RelayKind::Fragile] {
        let mut cfg = RelayChaosConfig::new(
            kind,
            LinkFaults {
                loss: 0.02,
                duplicate: 0.05,
                ..LinkFaults::default()
            },
        );
        cfg.seed = 11;
        let res = run_relay_chaos(&traced(cfg));
        check_common(&format!("dup {}", kind.name()), &res);
        scalars.push((
            format!("relay_{}_dup_duplicates", kind.name()),
            res.duplicates as f64,
        ));
        scalars.push((
            format!("relay_{}_dup_injected", kind.name()),
            res.fault.duplicated as f64,
        ));
        outln!(
            out,
            "duplication ({}): {} injected -> {} at the app (bound {} per event)",
            kind.name(),
            res.fault.duplicated,
            res.duplicates,
            res.sends_bound
        );
    }

    // --- 2. crash schedule ---------------------------------------------
    let mut cfg = RelayChaosConfig::loss(RelayKind::Reliable, 0.02);
    cfg.crash_relay = Some((0.25, 0.55));
    let crash = run_relay_chaos(&traced(cfg));
    check_common("crash", &crash);
    assert!(crash.redeploys >= 1, "crash run must redeploy");
    assert!(
        crash.delivery_ratio >= 0.99,
        "outage not repaired: {}",
        crash.delivery_ratio
    );
    outln!(out,
        "\ncrash schedule: middle relay down 0.25-0.55 s; crashes={} state_lost={} redeploys={} delivery={:.3}",
        crash.crashes, crash.state_lost, crash.redeploys, crash.delivery_ratio
    );
    scalars.push(("crash_redeploys".into(), crash.redeploys as f64));
    scalars.push(("crash_state_lost".into(), crash.state_lost as f64));
    scalars.push(("crash_delivery".into(), crash.delivery_ratio));

    // --- 3. http failover ----------------------------------------------
    let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 16);
    cfg.duration_s = 20;
    cfg.warmup_s = 4.0;
    cfg.gateway_src = Some(HTTP_GATEWAY_FAILOVER_ASP);
    cfg.crash_server1_at_s = Some(6.0);
    let (http, _t, snap) = run_http_traced(&cfg, trace);
    let corpse_drops = snap.counters["node.server1.dropped"];
    assert_eq!(corpse_drops, 0, "failover gateway leaked to dead backend");
    outln!(out,
        "\nhttp failover: backend crashed at 6 s under the failover gateway; {:.0} req/s, {} drops at the corpse",
        http.req_per_sec, corpse_drops
    );
    scalars.push(("http_failover_req_per_sec".into(), http.req_per_sec));
    scalars.push(("http_failover_corpse_drops".into(), corpse_drops as f64));

    // --- 4. audio & mpeg under loss ------------------------------------
    let mut audio_cfg = AudioConfig::constant_load(Adaptation::AspJit, 1000, 20);
    let audio_clean = run_audio(&audio_cfg);
    audio_cfg.segment_faults = Some((1.0, LinkFaults::loss(0.10)));
    let audio_lossy = run_audio(&audio_cfg);
    assert!(audio_lossy.stats.gaps > audio_clean.stats.gaps);
    outln!(
        out,
        "\naudio, 10% segment loss: gaps {} -> {}, frames {} -> {}",
        audio_clean.stats.gaps,
        audio_lossy.stats.gaps,
        audio_clean.stats.frames,
        audio_lossy.stats.frames
    );
    scalars.push(("audio_loss10_gaps".into(), audio_lossy.stats.gaps as f64));
    scalars.push(("audio_clean_gaps".into(), audio_clean.stats.gaps as f64));

    let mut mpeg_cfg = MpegConfig::new(3, true);
    mpeg_cfg.segment_faults = Some((1.0, LinkFaults::loss(0.05)));
    let mpeg = run_mpeg(&mpeg_cfg);
    let shared_frames: u64 = mpeg.clients.iter().map(|c| c.frames).sum();
    assert_eq!(mpeg.server.streams, 1, "sharing survives segment loss");
    outln!(
        out,
        "mpeg, 5% segment loss: 1 server stream still feeds {} viewers ({} frames total)",
        mpeg.clients.len(),
        shared_frames
    );
    scalars.push(("mpeg_loss5_frames".into(), shared_frames as f64));
    scalars.push(("mpeg_loss5_streams".into(), mpeg.server.streams as f64));

    outln!(out, "\nall chaos invariants hold");
    // The crash run's snapshot is the richest: fault counters, recovery
    // metrics, per-node crash/state-loss counts.
    push_bench(&mut report, args, "planp_chaos", &scalars, &crash.snapshot);
    Ok(report)
}
