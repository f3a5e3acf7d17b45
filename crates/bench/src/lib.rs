//! # planp-bench — the evaluation harness
//!
//! One binary, `planp`, with one subcommand per table or figure of the
//! paper's evaluation and per analysis or robustness report of the
//! reproduction:
//!
//! | paper | subcommand |
//! |---|---|
//! | Fig. 3 (code generation time) | `planp fig3` |
//! | Fig. 6 (audio bandwidth adaptation) | `planp fig6` |
//! | Fig. 7 (silent periods) | `planp fig7` |
//! | Fig. 8 (HTTP cluster throughput) | `planp fig8` |
//! | §3.3 (multipoint MPEG) | `planp mpeg-sharing` |
//! | §3.2 / §3.1 ablations | `planp lb-strategies`, `planp adaptation-policies` |
//! | §2.1 download-time verification | `planp lint`, `modelcheck`, `plan`, `state` |
//! | §2.2 the front end on one file | `planp fmt`, `info` |
//! | beyond the paper | `planp profile`, `chaos`, `cluster`, `health`, `obs`, `trace`, `diverge` |
//!
//! Each subcommand is a library function from its parsed arguments to a
//! [`Report`] — the text for stdout, the named artefacts, and (where a
//! checked-in baseline pins it) the baseline text — so the driver
//! ([`cli::main`]), the `planp check` gate ([`check`]) and the tier-1
//! tests all run the same code. Wall-clock numbers are `planp_perf`'s
//! business (`perf/`); only `fig3` reads a clock here.

#![warn(missing_docs)]
#![deny(unreachable_pub)]

/// `println!` into a report's stdout text.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($fmt:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($fmt)*);
    }};
}

mod adaptation_policies;
mod chaos;
pub mod check;
pub mod cli;
mod cluster;
mod diverge;
mod fig3;
mod fig6;
mod fig7;
mod fig8;
mod front;
pub mod gen;
mod health;
mod lb_strategies;
mod lint;
mod modelcheck;
mod mpeg_sharing;
mod obs;
mod plan;
mod profile;
mod state;
mod trace;

pub use cli::{render_diff, Cli, CliArgs, Sub};

use planp_analysis::Policy;
use planp_apps::corpus::{self, CorpusAsp};
use planp_telemetry::MetricsSnapshot;

/// Every subcommand of `planp`, in `--help` order.
pub const SUBCOMMANDS: &[Sub] = &[
    Sub::figure("fig3", "Fig. 3: code generation time", fig3::run),
    Sub::figure("fig6", "Fig. 6: audio bandwidth over time", fig6::run),
    Sub::figure("fig7", "Fig. 7: silent periods vs adaptation", fig7::run),
    Sub::figure("fig8", "Fig. 8: HTTP cluster throughput", fig8::run),
    Sub::figure(
        "mpeg-sharing",
        "Sec. 3.3: one server stream, many MPEG viewers",
        mpeg_sharing::run,
    ),
    Sub::figure(
        "lb-strategies",
        "Sec. 3.2 ablation: gateway load-balancing strategies",
        lb_strategies::run,
    ),
    Sub::figure(
        "adaptation-policies",
        "Sec. 3.1 ablation: audio adaptation policies",
        adaptation_policies::run,
    ),
    lint::SUB,
    front::FMT,
    front::INFO,
    modelcheck::SUB,
    plan::SUB,
    state::SUB,
    profile::SUB,
    chaos::SUB,
    cluster::SUB,
    health::SUB,
    obs::SUB,
    trace::SUB,
    diverge::SUB,
    check::SUB,
];

/// What one run of a subcommand produced. Nothing in it depends on the
/// clock or on hash order (outside `fig3`), so two runs compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The text for stdout.
    pub stdout: String,
    /// Notes and the closing summary line, for stderr.
    pub stderr: String,
    /// Named artefacts as `(path, contents)`: `BENCH_<name>.json` for
    /// `--json`, and whatever `--flame`, `--heatmap`, `--chrome-json`
    /// or `--prom` named.
    pub files: Vec<(String, String)>,
    /// The byte-stable verdict text a checked-in `asps/*_BASELINE.txt`
    /// pins, for the subcommands that are gated on one.
    pub baseline: Option<String>,
    /// The report itself found a failure (a rejected file, a predicted
    /// violation that did not replay): exit status 1.
    pub failed: bool,
}

fn corpus_asp(name: &str) -> &'static CorpusAsp {
    corpus::asp(name).unwrap_or_else(|| panic!("{name} is not in the ASP corpus"))
}

/// The paper's figure 3: (program, its name in the corpus, lines,
/// codegen milliseconds on a 1998 SPARC with Tempo's template
/// assembler).
pub const PAPER_FIG3: [(&str, &str, u32, f64); 5] = [
    ("Audio Broadcasting (router)", "audio_router", 68, 11.0),
    ("Audio Broadcasting (client)", "audio_client", 28, 6.2),
    ("Extensible Web Server", "http_gateway", 91, 15.3),
    ("MPEG (monitor)", "mpeg_monitor", 161, 33.9),
    ("MPEG (client)", "mpeg_capture", 53, 6.1),
];

/// The five PLAN-P programs measured by the paper's figure 3, with the
/// verification policy each loads under.
pub fn paper_programs() -> Vec<(&'static str, &'static str, Policy)> {
    let program = |&(title, name, _, _)| (title, corpus_asp(name).src, corpus_asp(name).policy);
    PAPER_FIG3.iter().map(program).collect()
}

/// Every bundled ASP — the eleven application programs plus the
/// standalone forwarder — under `no_delivery`, the weakest policy all
/// of them satisfy. This is the corpus `planp modelcheck` and `planp
/// profile` default to, the figure-3 `--report` sweep runs over, and
/// `planp_perf --workload download` loads.
pub fn bundled_asps() -> Vec<(&'static str, &'static str, Policy)> {
    [
        "audio_router",
        "audio_client",
        "audio_router_hysteresis",
        "audio_router_queue",
        "http_gateway",
        "http_gateway_3srv",
        "http_gateway_random",
        "http_gateway_porthash",
        "http_gateway_failover",
        "mpeg_monitor",
        "mpeg_capture",
        "forwarder",
    ]
    .into_iter()
    .map(|name| (name, corpus_asp(name).src, Policy::no_delivery()))
    .collect()
}

/// A PLAN-P source to analyse: the name reports print it under, and its
/// text.
pub(crate) type Source = (String, String);

/// Reads the files named on a command line.
pub(crate) fn read_sources(paths: &[String]) -> Result<Vec<Source>, String> {
    paths
        .iter()
        .map(|path| match std::fs::read_to_string(path) {
            Ok(text) => Ok((path.clone(), text)),
            Err(e) => Err(format!("cannot read {path}: {e}")),
        })
        .collect()
}

/// The whole corpus as sources named by their `asps/` paths, without
/// touching the file system: what `planp check` feeds the analyses.
pub(crate) fn corpus_sources() -> Vec<Source> {
    let source = |a: &CorpusAsp| (a.path.to_string(), a.file_text().to_string());
    corpus::CORPUS.iter().map(source).collect()
}

/// Baseline text: one verdict line per entry, sorted, so the file never
/// depends on the order the entries were analysed in.
pub(crate) fn sorted_lines(mut lines: Vec<String>) -> String {
    lines.sort();
    lines.into_iter().map(|line| line + "\n").collect()
}

/// Appends a figure's telemetry to its report: the metrics table on
/// stdout under `--report`, and under `--json` a deterministic
/// `BENCH_<name>.json` artefact — headline scalars plus the full
/// metrics snapshot — written to the current directory (CI uploads
/// these).
pub(crate) fn push_bench(
    report: &mut Report,
    args: &CliArgs,
    name: &str,
    scalars: &[(impl AsRef<str>, f64)],
    metrics: &MetricsSnapshot,
) {
    if args.flag("--report") {
        outln!(report.stdout, "--- metrics: {name} ---");
        report.stdout.push_str(&metrics.render_table());
    }
    if args.flag("--json") {
        let scalars: Vec<(&str, f64)> = scalars.iter().map(|(k, v)| (k.as_ref(), *v)).collect();
        let body = planp_telemetry::metrics::bench_json(name, &scalars, metrics);
        report.files.push((format!("BENCH_{name}.json"), body));
    }
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
    fn baseline_lines_sort_whatever_order_they_arrive_in() {
        let lines = |names: &[&str]| names.iter().map(|n| format!("{n} v=1")).collect();
        let sorted = "asps/a.planp v=1\nasps/a_b.planp v=1\nasps/buggy/k.planp v=1\nz v=1\n";
        let names = ["z", "asps/a_b.planp", "asps/buggy/k.planp", "asps/a.planp"];
        assert_eq!(sorted_lines(lines(&names)), sorted);
        let mut reversed = names;
        reversed.reverse();
        assert_eq!(sorted_lines(lines(&reversed)), sorted);
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
