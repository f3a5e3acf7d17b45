//! Regenerates the paper's **figure 8**: HTTP cluster throughput as a
//! function of offered client load, for the four configurations —
//! single server (a), ASP gateway over two servers (b), built-in C
//! gateway (c), and two servers with disjoint clients (d) — plus the
//! interpreter-run gateway as an ablation.
//!
//! ```text
//! planp fig8
//! ```

use crate::{push_bench, render_table, CliArgs, Report};
use planp_apps::http::{run_http, run_http_traced, ClusterMode, HttpConfig};
use planp_telemetry::TraceConfig;

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(out, "Figure 8 — HTTP server performance (requests/second)");
    outln!(
        out,
        "(paper: ASP == built-in C; cluster = 1.75 x single server = 85% of two servers)\n"
    );

    let modes = [
        ("a: single server", ClusterMode::Single),
        ("b: ASP gateway", ClusterMode::AspGateway),
        ("c: built-in gateway", ClusterMode::NativeGateway),
        ("d: disjoint clients", ClusterMode::Disjoint),
        ("ablation: interp gw", ClusterMode::InterpGateway),
    ];
    let client_counts = [2usize, 4, 8, 12, 16, 24, 32];

    let mut results = vec![Vec::new(); modes.len()];
    let mut rows = Vec::new();
    for &clients in &client_counts {
        let mut row = vec![clients.to_string()];
        for (i, (_, mode)) in modes.iter().enumerate() {
            let mut cfg = HttpConfig::new(*mode, clients);
            cfg.duration_s = 20;
            cfg.warmup_s = 5.0;
            let r = run_http(&cfg);
            results[i].push(r.req_per_sec);
            row.push(format!("{:.0}", r.req_per_sec));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("clients")
        .chain(modes.iter().map(|(n, _)| *n))
        .collect();
    outln!(out, "{}", render_table(&headers, &rows));

    // Latency distribution at the 16-client point (the knee). The ASP
    // gateway run also supplies the metrics snapshot for --json/--report.
    outln!(out, "latency at 16 clients (ms):");
    let mut knee_metrics = None;
    for (name, mode) in modes.iter().take(4) {
        let mut cfg = HttpConfig::new(*mode, 16);
        cfg.duration_s = 20;
        cfg.warmup_s = 5.0;
        let (r, _telemetry, metrics) = run_http_traced(&cfg, TraceConfig::default());
        if *mode == ClusterMode::AspGateway {
            knee_metrics = Some(metrics);
        }
        outln!(
            out,
            "  {name:>20}: mean {:>4.0}  p50 {:>4.0}  p95 {:>4.0}",
            r.mean_latency_ms,
            r.p50_latency_ms,
            r.p95_latency_ms
        );
    }
    outln!(out);

    let peak = |i: usize| -> f64 { results[i].iter().cloned().fold(0.0, f64::max) };
    let (a, b, c, d) = (peak(0), peak(1), peak(2), peak(3));
    outln!(
        out,
        "peak throughput: single {a:.0}, ASP gw {b:.0}, C gw {c:.0}, disjoint {d:.0} req/s"
    );
    outln!(
        out,
        "  ASP vs built-in C gateway : {:+.1}%  (paper: ~0%)",
        (b - c) / c * 100.0
    );
    outln!(
        out,
        "  cluster vs single server  : {:.2}x   (paper: 1.75x)",
        b / a
    );
    outln!(
        out,
        "  cluster vs two servers    : {:.0}%   (paper: 85%)",
        b / d * 100.0
    );

    push_bench(
        &mut report,
        args,
        "fig8_http_perf",
        &[
            ("peak_single_rps", a),
            ("peak_asp_gateway_rps", b),
            ("peak_native_gateway_rps", c),
            ("peak_disjoint_rps", d),
            ("asp_vs_native_pct", (b - c) / c * 100.0),
            ("cluster_vs_single_x", b / a),
        ],
        &knee_metrics.unwrap_or_default(),
    );
    Ok(report)
}
