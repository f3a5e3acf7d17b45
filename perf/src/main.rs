//! `planp_perf` — the wall-clock benchmark of the PLAN-P reproduction.
//!
//! ```text
//! planp_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! planp_perf --agree A.json B.json
//! ```
//!
//! One process runs one workload, single-threaded, from public library
//! APIs only. The plain run (`--trace 0`) prints every end-to-end
//! metric of `BENCHMARK.json`; the layers run (`--trace 1`) attributes
//! wall time to layers from outside and prints every per-layer metric.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it gives the
//! plain run's timings as the wall clock read them, before the speed
//! correction. See `perf/README.md`.

mod agree;
mod check;
mod cluster;
mod ctx;
mod download;
mod http;
mod json;
mod relay;
mod replay;
mod spans;
mod spec;
mod speed;
mod stats;

use ctx::{Report, Run};
use json::Json;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const HELP: &str = "planp-perf: the wall-clock benchmark (see perf/README.md)

usage: planp_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       planp_perf --agree A.json B.json

  --workload W   relay_grid | relay_grid_telemetry | http_gateway |
                 cluster_flash | download
  --seed N       seed of every generated input (default 11, the pinned one)
  --seconds S    time budget of the process (default: run_seconds of
                 BENCHMARK.json); reps are whole scenarios, so the
                 minimum number of reps can run past a small budget
  --trace 0|1    0: plain run, end-to-end metrics (default);
                 1: layers run, per-layer metrics
  --out DIR      write span files (layers run of the relay workloads) here
  --agree A B    compare two result sets of one commit against the bounds
                 of BENCHMARK.json; exit 1 if they disagree
  -h, --help     this text
";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Run {
        workload: String,
        seed: u64,
        seconds: Option<f64>,
        trace: bool,
        out: Option<PathBuf>,
    },
    Agree(PathBuf, PathBuf),
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, 11u64, None, false, None);
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<&String, String> {
        argv.get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let arg = argv[i].as_str();
        match arg {
            "-h" | "--help" => return Ok(Command::Help),
            "--agree" => {
                let (a, b) = (
                    value(i, arg)?,
                    value(i + 1, arg).map_err(|_| "--agree needs two files")?,
                );
                return Ok(Command::Agree(a.into(), b.into()));
            }
            "--workload" => {
                let w = value(i, arg)?;
                if !spec.workloads.contains(w) {
                    return Err(format!(
                        "unknown workload {w:?} (one of: {})",
                        spec.workloads.join(", ")
                    ));
                }
                workload = Some(w.clone());
                i += 1;
            }
            "--seed" => {
                seed = value(i, arg)?
                    .parse()
                    .map_err(|_| format!("bad seed {:?}", argv[i + 1]))?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i, arg)?
                    .parse()
                    .map_err(|_| format!("bad seconds {:?}", argv[i + 1]))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {:?}", argv[i + 1]));
                }
                seconds = Some(s);
                i += 1;
            }
            "--trace" => {
                trace = match value(i, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace {other:?} (0 or 1)")),
                };
                i += 1;
            }
            "--out" => {
                out = Some(PathBuf::from(value(i, arg)?));
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
        i += 1;
    }
    let workload = workload.ok_or("no --workload given (try --help)")?;
    Ok(Command::Run {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn read_runs(path: &PathBuf) -> Result<Vec<agree::RunResult>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    agree::parse_runs(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(spec: &Spec, trace: bool, report: &Report, correct: bool) -> String {
    let mut metrics = String::new();
    for (i, m) in spec.metrics_for(trace).iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        // A layer metric this workload's layers run does not measure
        // reads 0; an end-to-end metric is always present (checked by
        // the caller).
        let v = report.metrics.get(&m.name).copied().unwrap_or(0.0);
        json::push_metric(&mut metrics, &m.name, v, &m.unit);
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

/// The plain run's timings as the wall clock read them, with the probe
/// reading they were scaled by: `value = uncorrected × nominal ÷ probe`
/// rep by rep, so the medians here undo the correction approximately.
fn uncorrected_line(report: &Report, probe_ms: f64) -> String {
    let mut metrics = String::new();
    for (i, (name, v)) in report.uncorrected.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!("\"{name}\": {}", json::num(*v)));
    }
    format!(
        "{{\"uncorrected\": {{{metrics}}}, \"probe_ms\": {}, \"probe_nominal_ms\": {}}}",
        json::num(probe_ms),
        json::num(speed::PROBE_NOMINAL_MS)
    )
}

fn run_workload(run: &mut Run) -> Report {
    match (run.workload.as_str(), run.trace) {
        ("relay_grid", false) => relay::plain(run, false),
        ("relay_grid", true) => relay::layers(run, false),
        ("relay_grid_telemetry", false) => relay::plain(run, true),
        ("relay_grid_telemetry", true) => relay::layers(run, true),
        ("http_gateway", false) => http::plain(run),
        ("http_gateway", true) => http::layers(run),
        ("cluster_flash", false) => cluster::plain(run),
        ("cluster_flash", true) => cluster::layers(run),
        ("download", false) => download::plain(run),
        ("download", true) => download::layers(run),
        (other, _) => unreachable!("{other} passed the argument check"),
    }
}

fn run_command(spec: &Spec, mut run: Run) -> ExitCode {
    println!(
        "planp_perf: workload {}, seed {}, {} run, budget {} s",
        run.workload,
        run.seed,
        if run.trace { "layers" } else { "plain" },
        run.seconds
    );
    println!("single thread, one process; no sockets: all traffic is simulated in-process, nothing crosses a real link or the loopback interface");
    let mut report = run_workload(&mut run);
    for m in spec.metrics_for(run.trace) {
        let v = report.metrics.get(&m.name);
        if !run.trace && v.is_none_or(|v| *v == 0.0 || !v.is_finite()) {
            report.violations.push(format!(
                "end-to-end metric {} was not measured ({v:?})",
                m.name
            ));
        }
    }
    let extra: Vec<&String> = report
        .metrics
        .keys()
        .filter(|k| !spec.metrics_for(run.trace).iter().any(|m| &m.name == *k))
        .collect();
    if !extra.is_empty() {
        report
            .violations
            .push(format!("metrics not declared in BENCHMARK.json: {extra:?}"));
    }

    let probes = &run.clock.readings;
    println!(
        "speed probe: nominal {} ms; {} readings, median {:.3} ms (min {:.3}, max {:.3}); every time below is scaled by nominal / reading, raw medians beside",
        speed::PROBE_NOMINAL_MS,
        probes.len(),
        stats::median(probes),
        stats::min(probes),
        stats::max(probes)
    );
    for line in &report.notes {
        println!("{line}");
    }
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "counts (simulated statistics of rep 0; checks, not metrics): {{{}}}",
        counts.join(", ")
    );
    println!("{:<40} {:>20}  {:<6} better", "metric", "value", "unit");
    for m in spec.metrics_for(run.trace) {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        match report.metrics.get(&m.name) {
            Some(v) => println!("{:<40} {:>20.6}  {:<6} {better}", m.name, v, m.unit),
            None => println!("{:<40} {:>20}  {:<6} {better}", m.name, "-", m.unit),
        }
    }
    let correct = report.violations.is_empty();
    if correct {
        println!(
            "output checks: ok ({} attempted, {} failed)",
            report.attempted, report.failed
        );
    } else {
        for v in &report.violations {
            println!("output check VIOLATED: {v}");
        }
    }
    println!("process wall {:.1} s", run.elapsed());
    if !run.trace {
        println!("{}", uncorrected_line(&report, stats::median(probes)));
    }
    println!("{}", result_line(spec, run.trace, &report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv, &spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("planp-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let fail = |e: String| {
        eprintln!("planp-perf: {e}");
        ExitCode::from(2)
    };
    match command {
        Command::Help => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
            out,
        } => run_command(
            &spec,
            Run {
                workload,
                seed,
                seconds: seconds.unwrap_or(spec.run_seconds),
                trace,
                out,
                started,
                clock: speed::Clock::default(),
            },
        ),
        Command::Agree(a, b) => {
            let (ra, rb) = match (read_runs(&a), read_runs(&b)) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let (bad, lines) = agree::agree(&ra, &rb, &spec);
            println!(
                "{:<36} {:<18} {:>14} {:>14} {:>8}",
                "run",
                "metric",
                a.display(),
                b.display(),
                "diff"
            );
            for l in &lines {
                println!("{l}");
            }
            if bad.is_empty() {
                println!(
                    "the two sets agree: {} bounded comparisons, exact counts identical",
                    lines.len()
                );
                ExitCode::SUCCESS
            } else {
                for l in &bad {
                    println!("DISAGREE: {l}");
                }
                ExitCode::from(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let spec = Spec::load();
        let c = parse_args(
            &argv(&[
                "--workload",
                "download",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]),
            &spec,
        )
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                workload: "download".into(),
                seed: 3,
                seconds: Some(10.0),
                trace: true,
                out: None
            }
        );
        let c = parse_args(&argv(&["--workload", "relay_grid", "--out", "d"]), &spec).unwrap();
        assert_eq!(
            c,
            Command::Run {
                workload: "relay_grid".into(),
                seed: 11,
                seconds: None,
                trace: false,
                out: Some("d".into())
            }
        );
        assert_eq!(
            parse_args(&argv(&["--agree", "a", "b"]), &spec).unwrap(),
            Command::Agree("a".into(), "b".into())
        );
        assert_eq!(
            parse_args(&argv(&["--help"]), &spec).unwrap(),
            Command::Help
        );
    }

    #[test]
    fn argument_errors_are_one_line_messages() {
        let spec = Spec::load();
        for (args, needle) in [
            (vec![], "no --workload given"),
            (vec!["--workload", "ftp"], "unknown workload \"ftp\""),
            (vec!["--workload"], "--workload needs a value"),
            (
                vec!["--workload", "download", "--seed", "x"],
                "bad seed \"x\"",
            ),
            (
                vec!["--workload", "download", "--seconds", "-1"],
                "bad seconds \"-1\"",
            ),
            (
                vec!["--workload", "download", "--trace", "2"],
                "bad trace \"2\"",
            ),
            (
                vec!["--workload", "download", "--bogus"],
                "unknown argument \"--bogus\"",
            ),
            (vec!["--agree", "a"], "--agree needs two files"),
        ] {
            let e = parse_args(&argv(&args), &spec).unwrap_err();
            assert!(e.contains(needle), "{args:?}: {e}");
            assert_eq!(e.lines().count(), 1);
        }
    }

    #[test]
    fn uncorrected_line_is_json_with_the_probe_beside_the_timings() {
        let mut report = Report::default();
        report.set_timing("ops_per_s", 100.0, 80.0);
        report.set_timing("setup_s", 0.5, 0.625);
        let doc = Json::parse(&uncorrected_line(&report, 7.375)).unwrap();
        let raw = doc.get("uncorrected").unwrap();
        assert_eq!(raw.get("ops_per_s").unwrap().as_f64(), Some(80.0));
        assert_eq!(raw.get("setup_s").unwrap().as_f64(), Some(0.625));
        assert_eq!(doc.get("probe_ms").unwrap().as_f64(), Some(7.375));
        assert_eq!(
            doc.get("probe_nominal_ms").unwrap().as_f64(),
            Some(speed::PROBE_NOMINAL_MS)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let spec = Spec::load();
        for trace in [false, true] {
            let mut report = Report::default();
            for m in spec.metrics_for(trace) {
                report.set(&m.name, 1.5);
            }
            report.attempted = 7;
            let line = result_line(&spec, trace, &report, true);
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(7.0));
            let metrics = doc.get("metrics").unwrap().as_obj();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = spec
                .metrics_for(trace)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(names, want);
            for ((_, m), s) in metrics.iter().zip(spec.metrics_for(trace)) {
                assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(s.unit.as_str()));
            }
        }
    }
}
