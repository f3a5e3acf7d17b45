//! Ablation: load-balancing strategies for the extensible HTTP server
//! (paper section 3.2: "Different load-balancing strategies can be
//! evaluated by changing the gateway ASP").
//!
//! ```text
//! planp lb-strategies
//! ```

use crate::{push_bench, render_table, CliArgs, Report};
use planp_apps::http::{
    run_http_traced, ClusterMode, HttpConfig, HTTP_GATEWAY_ASP, HTTP_GATEWAY_PORTHASH_ASP,
    HTTP_GATEWAY_RANDOM_ASP,
};
use planp_telemetry::{MetricsSnapshot, TraceConfig};

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(
        out,
        "Load-balancing strategies (swap the gateway ASP, nothing else changes)\n"
    );

    let strategies = [
        ("modulo (paper's)", HTTP_GATEWAY_ASP),
        ("random sticky", HTTP_GATEWAY_RANDOM_ASP),
        ("port parity (stateless)", HTTP_GATEWAY_PORTHASH_ASP),
    ];

    let mut rows = Vec::new();
    let mut scalars: Vec<(String, f64)> = Vec::new();
    let mut modulo_metrics = MetricsSnapshot::default();
    for (name, src) in strategies {
        let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 16);
        cfg.duration_s = 20;
        cfg.warmup_s = 5.0;
        cfg.gateway_src = Some(src);
        let (r, _telemetry, metrics) = run_http_traced(&cfg, TraceConfig::default());
        if src == HTTP_GATEWAY_ASP {
            modulo_metrics = metrics;
        }
        scalars.push((
            format!("{}_rps", name.split_whitespace().next().unwrap_or(name)),
            r.req_per_sec,
        ));
        let s0 = r.per_server[0].1;
        let s1 = r.per_server[1].1;
        let skew = if s0 + s1 > 0.0 {
            (s0 - s1).abs() / (s0 + s1) * 100.0
        } else {
            0.0
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", r.req_per_sec),
            format!("{:.0}", r.mean_latency_ms),
            format!("{s0:.0}"),
            format!("{s1:.0}"),
            format!("{skew:.1}%"),
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(
            &[
                "strategy",
                "req/s",
                "latency ms",
                "server0",
                "server1",
                "skew"
            ],
            &rows
        )
    );
    outln!(
        out,
        "expected shape: all strategies reach the same gateway-bound throughput;"
    );
    outln!(
        out,
        "modulo splits connections most evenly, random shows mild skew."
    );

    push_bench(
        &mut report,
        args,
        "lb_strategies_table",
        &scalars,
        &modulo_metrics,
    );
    Ok(report)
}
