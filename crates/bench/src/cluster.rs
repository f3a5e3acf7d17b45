//! `planp cluster` — the overload-robustness headline: a Zipf flash
//! crowd (1M requests) over 24 heterogeneous backends with rolling
//! crashes, defended by admission control, a bounded-load
//! consistent-hash gateway with per-backend circuit breakers, and the
//! monitor-driven brownout controller.
//!
//! ```text
//! planp cluster --json
//! ```
//!
//! One seeded run of [`ClusterConfig::standard`]; everything printed —
//! the verdict block, the breaker transition log, the brownout log —
//! is byte-stable, so `planp check` runs it twice and compares, and
//! gates on the pinned `asps/CLUSTER_BASELINE.txt`.
//!
//! Asserted invariants (a violation panics):
//!
//! * ≥ 99% of *admitted* requests complete, through the flash crowd
//!   and six rolling backend crashes (shed requests were refused at
//!   ingress, not lost);
//! * client p99 latency stays under the ceiling;
//! * corpse traffic is probe-only: once a breaker opens, the only
//!   packets toward the dead backend are its half-open probes;
//! * the brownout controller engages during the flash and fully
//!   restores service (level 0) by the end of the run;
//! * both drop-accounting identities (link- and node-level) hold.
//!
//! Flags: `--json` writes `BENCH_planp_cluster.json`; `--report` prints the metrics table;
//! `--baseline FILE` gates on a pinned verdict file (exit 1 on drift);
//! `--write-baseline FILE` regenerates it; `--sample 1/N` enables
//! head-sampled causal tracing (the verdict does not depend on it).

use crate::{push_bench, Cli, CliArgs, Report, Sub};
use planp_apps::cluster::{run_cluster, ClusterConfig};
use planp_telemetry::TraceConfig;
use std::fmt::Write as _;

const HELP: &str = "planp cluster: flash-crowd overload robustness bench

usage: planp cluster [--json] [--report] [--sample 1/N]
                     [--baseline FILE | --write-baseline FILE]

  --json                write BENCH_planp_cluster.json
  --report              print the final metrics table
  --sample 1/N          head-sampled causal tracing (default off)
  --baseline FILE       compare the verdict block against FILE; exit 1 on drift
  --write-baseline FILE regenerate FILE from this run
  -h, --help            this text
";

/// `planp cluster`.
pub(crate) const SUB: Sub = Sub {
    name: "cluster",
    about: "flash-crowd overload robustness of the HTTP cluster",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--report"],
        value_flags: &["--sample", "--baseline", "--write-baseline"],
        operands: false,
    },
    run,
};

/// Client p99 ceiling (ns). The latency histogram has power-of-two
/// buckets, so the reported p99 is a bucket upper bound; the ceiling
/// leaves one bucket of headroom over the expected ~8–16 ms backlog
/// peak during the flash crowd.
const P99_CEILING_NS: u64 = 67_108_864; // 2^26 ≈ 67 ms

fn run(args: &CliArgs) -> Result<Report, String> {
    let sample_n = args.sample()?;
    let mut report = Report::default();
    let out = &mut report.stdout;

    let mut cfg = ClusterConfig::standard();
    if sample_n > 1 {
        cfg.trace = TraceConfig::sampled(sample_n);
    }
    let res = run_cluster(&cfg);

    // --- the byte-stable verdict block ---------------------------------
    let mut verdict = String::new();
    let _ = writeln!(
        verdict,
        "cluster seed={} clients={} backends={} requests={}",
        cfg.seed,
        cfg.clients,
        cfg.backends,
        cfg.requests_per_client * u64::from(cfg.clients),
    );
    let _ = writeln!(
        verdict,
        "sent={} admitted={} completed={} delivery_admitted={:.4}",
        res.sent, res.admitted, res.completed, res.delivery_admitted
    );
    let _ = writeln!(
        verdict,
        "shed agg={} gw_brownout={} gw_saturated={} gw_queue={} expired_agg={} expired_gw={}",
        res.agg_shed,
        res.shed_brownout,
        res.shed_saturated,
        res.shed_queue,
        res.agg_expired,
        res.gw_expired
    );
    let _ = writeln!(
        verdict,
        "breakers opens={} probes={} sent_while_broken={} timeouts={} transitions={}",
        res.opens,
        res.probes,
        res.sent_while_broken,
        res.timeouts,
        res.transitions_log.lines().count()
    );
    let _ = writeln!(
        verdict,
        "brownout max={} final={} steps={}",
        res.max_brownout,
        res.final_brownout,
        res.brownout_log.lines().count()
    );
    let _ = writeln!(
        verdict,
        "latency_ns p50={} p99={} p999={}",
        res.latency_p50_ns, res.latency_p99_ns, res.latency_p999_ns
    );
    let _ = writeln!(
        verdict,
        "drops corpse={} node_total={} link_total={} crashes={} breaches={}",
        res.corpse_drops, res.total_node_drops, res.total_link_drops, res.crashes, res.breaches
    );
    let _ = writeln!(
        verdict,
        "completed_by_class c0={} c1={} c2={} c3={}",
        res.completed_by_class[0],
        res.completed_by_class[1],
        res.completed_by_class[2],
        res.completed_by_class[3]
    );
    verdict.push_str("--- breaker transitions ---\n");
    verdict.push_str(&res.transitions_log);
    verdict.push_str("--- brownout transitions ---\n");
    verdict.push_str(&res.brownout_log);
    out.push_str(&verdict);
    if !res.flight.is_empty() {
        outln!(out, "--- flight dumps ---");
        out.push_str(&res.flight);
    }

    // --- invariants -----------------------------------------------------
    assert_eq!(res.sent, 1_000_000, "every client drains its request trace");
    assert!(
        res.delivery_admitted >= 0.99,
        "admitted-delivery floor violated: {:.4}",
        res.delivery_admitted
    );
    assert!(
        res.latency_p99_ns <= P99_CEILING_NS,
        "p99 ceiling violated: {} > {}",
        res.latency_p99_ns,
        P99_CEILING_NS
    );
    assert!(
        res.corpse_traffic_probe_only(),
        "corpse traffic beyond probes: sent_while_broken={} probes={}",
        res.sent_while_broken,
        res.probes
    );
    assert!(
        res.opens >= u64::from(cfg.crashes),
        "every crash must open its breaker: opens={} crashes={}",
        res.opens,
        cfg.crashes
    );
    assert!(
        res.corpse_drops <= res.admitted / 500,
        "breakers leaked to corpses: {} drops at crashed backends",
        res.corpse_drops
    );
    assert!(
        res.max_brownout >= 1,
        "the flash crowd must engage the brownout controller"
    );
    assert_eq!(
        res.final_brownout, 0,
        "service must be fully restored by the end of the run"
    );
    assert!(
        res.node_drop_identity_holds(),
        "node drop identity: total={} sum={}",
        res.total_node_drops,
        res.sum_node_drops
    );
    assert!(
        res.link_drop_identity_holds(),
        "link drop identity: total={} sum={}+{}",
        res.total_link_drops,
        res.sum_link_drops,
        res.sum_fault_drops
    );
    outln!(out, "all cluster invariants hold");

    let scalars = [
        ("sent", res.sent as f64),
        ("admitted", res.admitted as f64),
        ("completed", res.completed as f64),
        ("delivery_admitted", res.delivery_admitted),
        ("agg_shed", res.agg_shed as f64),
        ("shed_brownout", res.shed_brownout as f64),
        ("shed_saturated", res.shed_saturated as f64),
        ("shed_queue", res.shed_queue as f64),
        ("latency_p50_ns", res.latency_p50_ns as f64),
        ("latency_p99_ns", res.latency_p99_ns as f64),
        ("latency_p999_ns", res.latency_p999_ns as f64),
        ("opens", res.opens as f64),
        ("probes", res.probes as f64),
        ("timeouts", res.timeouts as f64),
        ("corpse_drops", res.corpse_drops as f64),
        ("crashes", res.crashes as f64),
        ("max_brownout", f64::from(res.max_brownout)),
        ("breaches", res.breaches as f64),
    ];
    push_bench(&mut report, args, "planp_cluster", &scalars, &res.snapshot);
    report.baseline = Some(verdict);
    Ok(report)
}
