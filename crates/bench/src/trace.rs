//! `planp trace` — replay a scenario deterministically and dump its
//! structured event log, or (`--tree`) render its cross-node span
//! trees, critical paths, and latency summaries.
//!
//! ```text
//! planp trace --scenario audio --seed 7 --categories drop,dispatch --limit 50
//! planp trace --tree --scenario audio --limit 3 \
//!     --chrome-json audio.trace.json --prom audio.prom
//! ```
//!
//! Options of both forms:
//!
//! * `--scenario audio|http|mpeg` — which experiment to replay
//!   (default `audio`, a short constant-load run).
//! * `--seed N` — simulation seed (default: the scenario's default).
//! * `--duration N` — simulated seconds (default 20; mpeg always 22).
//! * `--sample 1/N` — deterministic head sampling: keep 1 of every N
//!   traces, whole lineages at a time (default `1/1`, keep all). Kept
//!   traces still render complete trees.
//!
//! The event log (no `--tree`):
//!
//! * `--categories LIST` — comma-separated event categories to record
//!   (`link,hop,deliver,drop,dispatch,exception,timer,span,vm` or
//!   `all`; default `all`).
//! * `--limit N` — print at most the last N events (default: all held).
//! * `--jsonl` — machine form: one JSON object per line instead of the
//!   human table.
//! * `--metrics` — after the events, dump the metrics snapshot as JSON.
//!
//! The span trees (`--tree`, every category recorded):
//!
//! * `--limit N` — print at most the first N span trees (default 10;
//!   `0` means all). The summary always covers every trace.
//! * `--chrome-json FILE` — write the full forest as Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`).
//! * `--prom FILE` — write the scenario's metrics snapshot as
//!   Prometheus text exposition.
//!
//! Same seed ⇒ byte-identical output and export files; `planp check`
//! runs each scenario twice and compares.

use crate::{Cli, CliArgs, Report, Sub};
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};
use planp_telemetry::{
    chrome_trace, prometheus, Category, HistogramSummary, MetricsSnapshot, Telemetry, TraceConfig,
    TraceForest,
};

/// Flags that only mean something without `--tree`.
const LOG_ONLY: [&str; 3] = ["--categories", "--jsonl", "--metrics"];
/// Flags that only mean something with `--tree`.
const TREE_ONLY: [&str; 2] = ["--chrome-json", "--prom"];

/// `planp trace`.
pub(crate) const SUB: Sub = Sub {
    name: "trace",
    about: "replay a scenario: its event log, or (--tree) its causal span trees",
    cli: Cli {
        help: HELP,
        flags: &["--tree", "--jsonl", "--metrics"],
        value_flags: &[
            "--scenario",
            "--seed",
            "--duration",
            "--categories",
            "--sample",
            "--limit",
            "--chrome-json",
            "--prom",
        ],
        operands: false,
    },
    run,
};

const HELP: &str = "\
planp trace: replay a scenario and dump its structured event log
  --scenario audio|http|mpeg   experiment to replay (default audio)
  --seed N                     simulation seed
  --duration N                 simulated seconds (default 20)
  --sample 1/N                 keep 1 of every N traces (whole lineages)
  --categories LIST            link,hop,deliver,drop,dispatch,exception,timer,span,vm|all
  --limit N                    print at most the last N events
  --jsonl                      one JSON object per line (machine form)
  --metrics                    also dump the metrics snapshot as JSON
planp trace --tree: render its causal span trees instead
  --limit N                    span trees to print (default 10, 0 = all)
  --chrome-json FILE           write Chrome trace_event JSON (Perfetto)
  --prom FILE                  write Prometheus text exposition
";

/// Replays one of the three traced scenarios — the short constant-load
/// audio run, the 8-client HTTP gateway, the 3-viewer shared MPEG
/// stream — with `trace` on.
pub(crate) fn replay(
    scenario: &str,
    seed: Option<u64>,
    duration_s: u64,
    trace: TraceConfig,
) -> Result<(Telemetry, MetricsSnapshot), String> {
    let (telemetry, metrics) = match scenario {
        "audio" => {
            let mut cfg = AudioConfig::constant_load(Adaptation::AspJit, 9450, duration_s);
            cfg.seed = seed.unwrap_or(cfg.seed);
            let (_, telemetry, metrics) = run_audio_traced(&cfg, trace);
            (telemetry, metrics)
        }
        "http" => {
            let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
            cfg.duration_s = duration_s;
            cfg.seed = seed.unwrap_or(cfg.seed);
            let (_, telemetry, metrics) = run_http_traced(&cfg, trace);
            (telemetry, metrics)
        }
        "mpeg" => {
            let mut cfg = MpegConfig::new(3, true);
            cfg.seed = seed.unwrap_or(cfg.seed);
            let (_, telemetry, metrics) = run_mpeg_traced(&cfg, trace);
            (telemetry, metrics)
        }
        other => return Err(format!("unknown scenario {other:?} (audio, http, mpeg)")),
    };
    Ok((telemetry, metrics))
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let tree = args.flag("--tree");
    let misplaced = if tree { &LOG_ONLY[..] } else { &TREE_ONLY[..] };
    if let Some(f) = misplaced
        .iter()
        .find(|f| args.flag(f) || args.value(f).is_some())
    {
        let with = if tree { "without" } else { "with" };
        return Err(format!("{f} only applies {with} --tree (try --help)"));
    }
    let categories = match args.value("--categories") {
        Some(list) => Category::from_list(list)?,
        None => Category::ALL,
    };
    let sample_n = args.sample()?;
    let limit: Option<usize> = args.number("--limit", "limit")?;
    let trace = TraceConfig {
        categories,
        sample_n,
        ..TraceConfig::default()
    };
    let (telemetry, metrics) = replay(
        args.value("--scenario").unwrap_or("audio"),
        args.number("--seed", "seed")?,
        args.number("--duration", "duration")?.unwrap_or(20),
        trace,
    )?;
    let mut report = Report::default();
    if tree {
        span_trees(args, limit.unwrap_or(10), &telemetry, &metrics, &mut report);
    } else {
        event_log(args, limit, &telemetry, &metrics, &mut report);
    }
    Ok(report)
}

fn event_log(
    args: &CliArgs,
    limit: Option<usize>,
    telemetry: &Telemetry,
    metrics: &MetricsSnapshot,
    report: &mut Report,
) {
    let out = &mut report.stdout;
    let held = telemetry.trace.len();
    let skip = match limit {
        Some(n) => held.saturating_sub(n),
        None => 0,
    };
    for ev in telemetry.trace.events().skip(skip) {
        if args.flag("--jsonl") {
            ev.write_json(out);
            out.push('\n');
        } else {
            outln!(out, "{ev}");
        }
    }
    let bytes = telemetry.trace.held_bytes();
    outln!(
        report.stderr,
        "{} events recorded, {} evicted, {} held in {} bytes ({:.1} B/event), {} printed",
        telemetry.trace.recorded(),
        telemetry.trace.evicted(),
        held,
        bytes,
        bytes as f64 / held.max(1) as f64,
        held - skip
    );
    if telemetry.trace.sample_n() > 1 {
        outln!(
            report.stderr,
            "sampling 1/{}: {} event(s) of sampled-out traces suppressed",
            telemetry.trace.sample_n(),
            telemetry.trace.sampled_out()
        );
    }
    if args.flag("--metrics") {
        outln!(out, "{}", metrics.to_json());
    }
}

fn ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

fn latency_line(label: &str, s: &HistogramSummary) -> String {
    format!(
        "{label}: count {} p50 {} ms p90 {} ms p99 {} ms p999 {} ms max {} ms",
        s.count,
        ms(s.p50),
        ms(s.p90),
        ms(s.p99),
        ms(s.p999),
        ms(s.max),
    )
}

/// The forest-wide summary: trace counts, latency distributions,
/// fan-out, and the slowest trace's critical path hop by hop.
fn print_summary(out: &mut String, forest: &TraceForest, nodes: &[String]) {
    let spans = forest.spans().count();
    outln!(
        out,
        "{} trace(s), {} span(s), {} orphan(s)",
        forest.roots().len(),
        spans,
        forest.orphans().len()
    );
    outln!(
        out,
        "{}",
        latency_line("end-to-end", &forest.end_to_end().summary())
    );
    outln!(
        out,
        "{}",
        latency_line("per-hop   ", &forest.hop_latency().summary())
    );
    let fan = forest.fanout().summary();
    outln!(
        out,
        "fan-out   : p50 {} p99 {} max {}",
        fan.p50,
        fan.p99,
        fan.max
    );

    // Critical path of the slowest trace — the chain an operator
    // should look at first.
    let slowest = forest.roots().iter().copied().max_by_key(|&r| {
        let start = forest.span(r).map(|s| s.start_ns).unwrap_or(0);
        (
            forest.subtree_end(r).saturating_sub(start),
            std::cmp::Reverse(r),
        )
    });
    let Some(root) = slowest else { return };
    let start = forest.span(root).map(|s| s.start_ns).unwrap_or(0);
    outln!(
        out,
        "critical path of slowest trace {root} ({} ms):",
        ms(forest.subtree_end(root).saturating_sub(start))
    );
    let name = |n: u32| -> String {
        nodes
            .get(n as usize)
            .cloned()
            .unwrap_or_else(|| format!("n{n}"))
    };
    for hop in forest.critical_path(root) {
        let chan = match &hop.chan {
            Some(c) => format!(" chan={c}"),
            None => String::new(),
        };
        outln!(
            out,
            "  span {} @{} {}{} [{}..{} ms]",
            hop.span,
            name(hop.node),
            hop.origin.name(),
            chan,
            ms(hop.start_ns),
            ms(hop.end_ns),
        );
    }
}

fn span_trees(
    args: &CliArgs,
    limit: usize,
    telemetry: &Telemetry,
    metrics: &MetricsSnapshot,
    report: &mut Report,
) {
    let out = &mut report.stdout;
    let forest = TraceForest::from_log(&telemetry.trace);
    let rendered = forest.render(&telemetry.nodes);
    let mut printed = 0usize;
    for block in rendered.split("\n\n") {
        if limit != 0 && printed >= limit {
            break;
        }
        if block.trim().is_empty() {
            continue;
        }
        if printed > 0 {
            outln!(out);
        }
        outln!(out, "{block}");
        printed += 1;
    }
    let total = forest.roots().len() + forest.orphans().len();
    if limit != 0 && total > printed {
        outln!(
            out,
            "... {} more trace(s) not shown (--limit)",
            total - printed
        );
    }
    outln!(out);
    print_summary(out, &forest, &telemetry.nodes);
    if telemetry.trace.evicted() > 0 {
        outln!(
            report.stderr,
            "warning: {} event(s) evicted from the trace ring; trees may be partial",
            telemetry.trace.evicted()
        );
    }

    if let Some(path) = args.value("--chrome-json") {
        let json = chrome_trace(&forest, &telemetry.nodes);
        report.files.push((path.to_string(), json));
    }
    if let Some(path) = args.value("--prom") {
        report.files.push((path.to_string(), prometheus(metrics)));
    }
}
