//! # planp-bench — the evaluation harness
//!
//! One target per table/figure of the paper's evaluation:
//!
//! | paper | target |
//! |---|---|
//! | Fig. 3 (code generation time) | `benches/fig3_codegen.rs`, `bin/fig3_codegen_table` |
//! | §2.4 / bridge claim: "ASP as fast as built-in C" | `benches/jit_vs_native.rs` |
//! | Fig. 6 (audio bandwidth adaptation) | `bin/fig6_audio_bandwidth` |
//! | Fig. 7 (silent periods) | `bin/fig7_audio_gaps` |
//! | Fig. 8 (HTTP cluster throughput) | `bin/fig8_http_perf` |
//! | §3.3 (multipoint MPEG) | `bin/mpeg_sharing_table` |

#![warn(missing_docs)]

pub mod cli;

pub use cli::{baseline_gate, sample_from_cli, Cli, CliArgs};

use planp_analysis::Policy;
use planp_telemetry::MetricsSnapshot;

/// The five PLAN-P programs measured by the paper's figure 3, with the
/// verification policy each loads under.
pub fn paper_programs() -> Vec<(&'static str, &'static str, Policy)> {
    vec![
        (
            "Audio Broadcasting (router)",
            planp_apps::audio::AUDIO_ROUTER_ASP,
            Policy::strict(),
        ),
        (
            "Audio Broadcasting (client)",
            planp_apps::audio::AUDIO_CLIENT_ASP,
            Policy::strict(),
        ),
        (
            "Extensible Web Server",
            planp_apps::http::HTTP_GATEWAY_ASP,
            Policy::strict(),
        ),
        (
            "MPEG (monitor)",
            planp_apps::mpeg::MPEG_MONITOR_ASP,
            Policy::no_delivery(),
        ),
        (
            "MPEG (client)",
            planp_apps::mpeg::MPEG_CAPTURE_ASP,
            Policy::no_delivery(),
        ),
    ]
}

/// Every bundled ASP — the eleven embedded application programs plus
/// the standalone forwarder — with the weakest policy each satisfies.
/// This is the corpus the model-checking harness (`planp_modelcheck`)
/// and the figure-3 `--report` sweep run over.
pub fn bundled_asps() -> Vec<(&'static str, &'static str, Policy)> {
    vec![
        (
            "audio_router",
            planp_apps::audio::AUDIO_ROUTER_ASP,
            Policy::no_delivery(),
        ),
        (
            "audio_client",
            planp_apps::audio::AUDIO_CLIENT_ASP,
            Policy::no_delivery(),
        ),
        (
            "audio_router_hysteresis",
            planp_apps::audio::AUDIO_ROUTER_HYSTERESIS_ASP,
            Policy::no_delivery(),
        ),
        (
            "audio_router_queue",
            planp_apps::audio::AUDIO_ROUTER_QUEUE_ASP,
            Policy::no_delivery(),
        ),
        (
            "http_gateway",
            planp_apps::http::HTTP_GATEWAY_ASP,
            Policy::no_delivery(),
        ),
        (
            "http_gateway_3srv",
            planp_apps::http::HTTP_GATEWAY_3SRV_ASP,
            Policy::no_delivery(),
        ),
        (
            "http_gateway_random",
            planp_apps::http::HTTP_GATEWAY_RANDOM_ASP,
            Policy::no_delivery(),
        ),
        (
            "http_gateway_porthash",
            planp_apps::http::HTTP_GATEWAY_PORTHASH_ASP,
            Policy::no_delivery(),
        ),
        (
            "http_gateway_failover",
            planp_apps::http::HTTP_GATEWAY_FAILOVER_ASP,
            Policy::no_delivery(),
        ),
        (
            "mpeg_monitor",
            planp_apps::mpeg::MPEG_MONITOR_ASP,
            Policy::no_delivery(),
        ),
        (
            "mpeg_capture",
            planp_apps::mpeg::MPEG_CAPTURE_ASP,
            Policy::no_delivery(),
        ),
        (
            "forwarder",
            include_str!("../../../asps/forwarder.planp"),
            Policy::no_delivery(),
        ),
    ]
}

/// The paper's figure 3 reference values: (lines, codegen milliseconds)
/// on a 1998 SPARC with Tempo's template assembler.
pub const PAPER_FIG3: [(&str, u32, f64); 5] = [
    ("Audio Broadcasting (router)", 68, 11.0),
    ("Audio Broadcasting (client)", 28, 6.2),
    ("Extensible Web Server", 91, 15.3),
    ("MPEG (monitor)", 161, 33.9),
    ("MPEG (client)", 53, 6.1),
];

/// Telemetry output options shared by every bench bin.
///
/// * `--report` prints the run's metrics snapshot as a table after the
///   figure itself.
/// * `--json` (or `PLANP_BENCH_JSON=1`) writes a deterministic
///   `BENCH_<name>.json` file — headline scalars plus the full metrics
///   snapshot — in the current directory, for machine consumption (the
///   CI workflow uploads these as artifacts).
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOpts {
    /// Write `BENCH_<name>.json`.
    pub json: bool,
    /// Print the metrics table on stdout.
    pub report: bool,
}

impl BenchOpts {
    /// Parses `--json` / `--report` from the process arguments; the
    /// `PLANP_BENCH_JSON=1` environment variable also enables `json`.
    pub fn from_args() -> Self {
        let mut opts = BenchOpts::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--json" => opts.json = true,
                "--report" => opts.report = true,
                _ => {}
            }
        }
        if std::env::var("PLANP_BENCH_JSON").as_deref() == Ok("1") {
            opts.json = true;
        }
        opts
    }

    /// Builds the options from an already-parsed shared [`cli::Cli`]
    /// command line (`--json` is a shared flag; `--report` must be in
    /// the bin's `flags`). `PLANP_BENCH_JSON=1` still enables `json`.
    pub fn from_cli(args: &cli::CliArgs) -> Self {
        BenchOpts {
            json: args.json || std::env::var("PLANP_BENCH_JSON").as_deref() == Ok("1"),
            report: args.flag("--report"),
        }
    }
}

/// Emits a bench bin's telemetry per `opts`: the metrics table on
/// stdout (`--report`) and/or a `BENCH_<name>.json` snapshot in the
/// current directory (`--json`). Returns the path written, if any.
pub fn emit_bench(
    opts: BenchOpts,
    name: &str,
    scalars: &[(&str, f64)],
    metrics: &MetricsSnapshot,
) -> Option<std::path::PathBuf> {
    if opts.report {
        println!("--- metrics: {name} ---");
        print!("{}", metrics.render_table());
    }
    if !opts.json {
        return None;
    }
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    let body = planp_telemetry::metrics::bench_json(name, scalars, metrics);
    match std::fs::write(&path, body) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

/// Renders a program's static-analysis summary — problem-size stats
/// plus the verifier's per-channel worst-case cost bounds — for the
/// `--report` output of the bench bins.
pub fn render_analysis_report(name: &str, report: &planp_analysis::VerifyReport) -> String {
    let mut out = format!("--- analysis: {name} ---\n");
    out.push_str(&format!("problem size: {}\n", report.stats));
    if let Some(mc) = &report.exhaustive {
        out.push_str(&format!(
            "exhaustive:   termination {}, delivery {} ({} state(s), {} transition(s))\n",
            mc.termination.as_str(),
            mc.delivery.as_str(),
            mc.states,
            mc.transitions
        ));
    }
    for c in &report.cost.channels {
        out.push_str(&format!("channel {}#{}: {}\n", c.name, c.overload, c.bound));
    }
    out
}

/// Renders an aligned text table (simple two-space separation).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_runtime::load;

    #[test]
    fn all_five_paper_programs_load() {
        for (name, src, policy) in paper_programs() {
            let lp = load(src, policy).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(lp.lines > 10, "{name} suspiciously short");
        }
    }

    #[test]
    fn analysis_report_shows_stats_and_bounds() {
        let (name, src, policy) = paper_programs().remove(0);
        let prog = planp_lang::compile_front(src).unwrap();
        let report = planp_analysis::verify(&prog, policy);
        let s = render_analysis_report(name, &report);
        assert!(s.contains("problem size:"), "{s}");
        assert!(s.contains("channel network#0: <="), "{s}");
        assert!(s.contains("send site(s)"), "{s}");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "n"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(t.contains("long-name"));
        assert_eq!(t.lines().count(), 4);
    }
}
