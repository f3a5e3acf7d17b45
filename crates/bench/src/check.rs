//! `planp check` — the one gate over everything that must not drift.
//!
//! ```text
//! planp check --out check-out          # what CI runs
//! planp check --write                  # regenerate asps/*_BASELINE.txt
//! planp check --write /tmp/baselines   # … into another directory
//! ```
//!
//! [`GATES`] is the registry: each entry names a report function with
//! fixed arguments. `check` runs every gate **twice in this process**
//! and requires the two [`Report`]s — stdout, every artefact, the
//! baseline text — to be byte-identical (each `HashMap` instance draws
//! fresh `RandomState` keys, so iteration-order leaks still differ
//! between the runs), then compares the baseline text of the gated
//! reports against `<dir>/<NAME>_BASELINE.txt` (default `asps/`) and
//! prints the differing line pairs. The tier-1 tests call the same
//! registry for every gate marked [`Gate::tier1`], so `cargo test`
//! fails on a stale baseline; the rest (the 13.9 M-event flash crowd)
//! only finish in a release build and run here and in CI.
//!
//! Options:
//!
//! * `--out DIR` — also write every gate's stdout and artefacts there
//!   (one directory, uploaded by CI as one artifact).
//! * `--write` — regenerate the baselines instead of comparing.
//!
//! Exit status: 0 when every gate holds, 1 otherwise, 2 on usage or
//! I/O errors.

use crate::{chaos, cluster, gen, health, lint, modelcheck, obs, plan, profile, state, trace};
use crate::{corpus_sources, render_diff, Cli, CliArgs, Report, Sub};
use planp_apps::corpus::{CorpusAsp, CORPUS};
use std::path::Path;

/// `planp check`.
pub(crate) const SUB: Sub = Sub {
    name: "check",
    about: "run every gated report twice, compare bytes and baselines",
    cli: Cli {
        help: "\
planp check: run every gated report twice, compare bytes and baselines
usage: planp check [--out DIR] [--write] [<baseline dir>]
  (baseline dir: where the *_BASELINE.txt files live, default asps)
  --out DIR  also write every report and artefact into DIR
  --write    regenerate the baselines instead of comparing
",
        flags: &["--write"],
        value_flags: &["--out"],
        operands: true,
    },
    run,
};

/// One entry of the registry: a report with its arguments fixed.
pub struct Gate {
    /// Name printed in the verdict line.
    pub name: &'static str,
    /// File the report's stdout lands in under `--out`.
    pub stdout: &'static str,
    /// The baseline file pinning the report's verdict text, if any.
    pub baseline: Option<&'static str>,
    /// Finishes in a debug build in seconds (everything but the flash
    /// crowd, a minute there): run by `cargo test`.
    pub tier1: bool,
    /// The report.
    pub run: fn() -> Result<Report, String>,
}

type Run = fn() -> Result<Report, String>;

const fn gate(name: &'static str, stdout: &'static str, run: Run) -> Gate {
    Gate {
        name,
        stdout,
        baseline: None,
        tier1: true,
        run,
    }
}

const fn pinned(
    name: &'static str,
    stdout: &'static str,
    baseline: &'static str,
    run: Run,
) -> Gate {
    Gate {
        baseline: Some(baseline),
        ..gate(name, stdout, run)
    }
}

/// Runs a subcommand on a fixed command line.
fn via(sub: &Sub, argv: &[&str]) -> Result<Report, String> {
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    (sub.run)(&sub.cli.parse_from(&argv)?)
}

fn span_trees(scenario: &str) -> Result<Report, String> {
    let (chrome, prom) = (format!("{scenario}.trace.json"), format!("{scenario}.prom"));
    let argv = ["--tree", "--scenario", scenario, "--limit", "3"];
    let files = ["--chrome-json", &chrome, "--prom", &prom];
    via(&trace::SUB, &[&argv[..], &files].concat())
}

/// Everything `planp check` holds still.
pub const GATES: &[Gate] = &[
    // Every clean program under its own policy from the corpus table,
    // warnings denied.
    gate("lint", "lint-report.json", || {
        let clean = CORPUS.iter().filter(|a| !a.buggy);
        let file = |a: &CorpusAsp| (a.path.to_string(), a.file_text().to_string(), a.policy);
        Ok(lint::report(clean.map(file).collect(), true, true))
    }),
    pinned(
        "modelcheck",
        "modelcheck-report.json",
        "MODELCHECK_BASELINE.txt",
        || {
            let corpus = corpus_sources();
            Ok(modelcheck::report(corpus, true, true))
        },
    ),
    pinned("plan", "plan-report.json", "PLAN_BASELINE.txt", || {
        via(&plan::SUB, &["--json", "--replay"])
    }),
    pinned("state", "state-report.json", "STATE_BASELINE.txt", || {
        state::report(corpus_sources(), true)
    }),
    // A fixed budget of generated programs through the three-column
    // differential; run twice like every gate, so a generator that is
    // not a function of its seed fails here.
    gate("gen", "gen-report.txt", || {
        Ok(match gen::run(gen::GATE_PROGRAMS) {
            Ok(tally) => Report {
                stdout: tally.render(),
                ..Report::default()
            },
            Err(why) => Report {
                stderr: why + "\n",
                failed: true,
                ..Report::default()
            },
        })
    }),
    pinned(
        "profile",
        "profile-report.json",
        "PROFILE_BASELINE.txt",
        || {
            let files = ["--flame", "profile.flame", "--heatmap", "heatmap.json"];
            via(&profile::SUB, &[&["--json"][..], &files].concat())
        },
    ),
    gate("trace", "trace-smoke.txt", || {
        let log = ["--categories", "dispatch,drop", "--limit", "20"];
        via(&trace::SUB, &[TRACE_6S, log].concat())
    }),
    gate("trace sampled", "trace-sampled.txt", || {
        let log = ["--sample", "1/8", "--limit", "20"];
        via(&trace::SUB, &[TRACE_6S, log].concat())
    }),
    gate("trace --tree audio", "audio.trees.txt", || {
        span_trees("audio")
    }),
    gate("trace --tree http", "http.trees.txt", || span_trees("http")),
    gate("trace --tree mpeg", "mpeg.trees.txt", || span_trees("mpeg")),
    gate("chaos", "chaos-report.txt", || {
        via(&chaos::SUB, &["--json", "--report"])
    }),
    gate("health", "health-report.txt", || {
        via(&health::SUB, &["--json"])
    }),
    gate("obs", "obs-report.txt", || via(&obs::SUB, &["--json"])),
    Gate {
        tier1: false,
        ..pinned(
            "cluster",
            "cluster-report.txt",
            "CLUSTER_BASELINE.txt",
            || via(&cluster::SUB, &["--json"]),
        )
    },
];

const TRACE_6S: [&str; 4] = ["--scenario", "audio", "--duration", "6"];

/// What differs between two runs of one gate, by part.
fn run_to_run_drift(a: &Report, b: &Report) -> Vec<String> {
    let parts = [
        ("stdout", a.stdout != b.stdout),
        ("baseline text", a.baseline != b.baseline),
        ("status", a.failed != b.failed),
        ("the set of artefacts", a.files.len() != b.files.len()),
    ];
    let differing = |(fa, fb): (&(String, String), _)| (fa != fb).then(|| fa.0.clone());
    let parts = parts.iter().filter(|p| p.1).map(|p| p.0.to_string());
    parts
        .chain(a.files.iter().zip(&b.files).filter_map(differing))
        .collect()
}

/// Runs `gates`: each twice, the runs compared byte for byte, and the
/// baseline text of the gated ones compared against (or, with `write`,
/// written to) `dir`. With `out`, every first run's stdout and
/// artefacts are returned as files under it. The returned report's
/// stdout has one verdict line per gate, its stderr what differs.
pub fn check<'a>(
    gates: impl IntoIterator<Item = &'a Gate>,
    dir: &Path,
    write: bool,
    out: Option<&Path>,
) -> Result<Report, String> {
    let mut all = Report::default();
    for gate in gates {
        let named = |e: String| format!("{}: {e}", gate.name);
        let first = (gate.run)().map_err(named)?;
        let second = (gate.run)().map_err(named)?;
        let mut complaints = Vec::new();
        if first.failed {
            complaints.push("the report itself failed".to_string());
            all.stderr.push_str(&first.stderr);
        }
        let drift = run_to_run_drift(&first, &second);
        if !drift.is_empty() {
            complaints.push(format!("two runs differ in {}", drift.join(", ")));
        }
        if let (Some(file), Some(actual)) = (gate.baseline, &first.baseline) {
            let path = dir.join(file).display().to_string();
            if write {
                all.files.push((path, actual.clone()));
            } else {
                let expected = std::fs::read_to_string(&path)
                    .map_err(|e| named(format!("cannot read {path}: {e}")))?;
                if expected != *actual {
                    complaints.push(format!("verdicts differ from {path}"));
                    outln!(all.stderr, "{}: verdicts differ from {path}:", gate.name);
                    all.stderr.push_str(&render_diff(&expected, actual));
                }
            }
        }
        if complaints.is_empty() {
            outln!(all.stdout, "ok    {}", gate.name);
        } else {
            outln!(all.stdout, "FAIL  {}: {}", gate.name, complaints.join("; "));
            all.failed = true;
        }
        if let Some(out) = out {
            let under = |name: &str| out.join(name).display().to_string();
            all.files.push((under(gate.stdout), first.stdout));
            for (name, body) in first.files {
                all.files.push((under(&name), body));
            }
        }
    }
    Ok(all)
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let dir = match args.positionals.as_slice() {
        [] => "asps",
        [dir] => dir,
        _ => return Err("more than one baseline directory (try --help)".to_string()),
    };
    check(
        GATES,
        Path::new(dir),
        args.flag("--write"),
        args.value("--out").map(Path::new),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn gate(name: &str) -> &'static Gate {
        GATES.iter().find(|g| g.name == name).unwrap()
    }

    /// A scratch copy of `asps/STATE_BASELINE.txt` with one line edited.
    fn edited_baselines(tag: &str, edit: impl Fn(&str) -> String) -> std::path::PathBuf {
        let asps = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../asps"));
        let dir = std::env::temp_dir().join(format!("planp-check-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = std::fs::read_to_string(asps.join("STATE_BASELINE.txt")).unwrap();
        std::fs::write(dir.join("STATE_BASELINE.txt"), edit(&text)).unwrap();
        dir
    }

    #[test]
    fn an_edited_baseline_line_fails_with_exactly_that_pair() {
        let good = "asps/forwarder.planp tables=0 inserts=0 bound=0 verdict=bounded";
        let bad = "asps/forwarder.planp tables=0 inserts=0 bound=7 verdict=bounded";
        let dir = edited_baselines("edit", |t| {
            assert!(t.contains(good));
            t.replace(good, bad)
        });
        let r = check([gate("state")], &dir, false, None).unwrap();
        let path = dir.join("STATE_BASELINE.txt").display().to_string();
        assert!(r.failed);
        assert_eq!(
            r.stderr,
            format!("state: verdicts differ from {path}:\n  - {bad}\n  + {good}\n")
        );
        assert_eq!(
            r.stdout,
            format!("FAIL  state: verdicts differ from {path}\n")
        );

        // `--write` into the same directory repairs it, and reads nothing.
        let w = check([gate("state")], &dir, true, None).unwrap();
        assert!(!w.failed && w.stderr.is_empty());
        assert_eq!(w.files.len(), 1);
        assert_eq!(w.files[0].0, path);
        assert!(w.files[0].1.contains(good));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_report_that_differs_between_runs_fails_the_run_twice_compare() {
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let flaky = Gate {
            name: "flaky",
            stdout: "flaky.txt",
            baseline: None,
            tier1: true,
            run: || {
                let n = RUNS.fetch_add(1, Ordering::Relaxed);
                Ok(Report {
                    stdout: "same\n".into(),
                    files: vec![("order.json".into(), format!("{n}"))],
                    ..Report::default()
                })
            },
        };
        let out = Path::new("o");
        let r = check([&flaky], Path::new("unused"), false, Some(out)).unwrap();
        assert!(r.failed);
        assert_eq!(r.stdout, "FAIL  flaky: two runs differ in order.json\n");
        let names: Vec<&str> = r.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["o/flaky.txt", "o/order.json"]);
    }

    #[test]
    fn a_missing_baseline_is_an_error_not_a_pass() {
        let e = check([gate("state")], Path::new("/nonexistent"), false, None).unwrap_err();
        assert!(e.starts_with("state: cannot read /nonexistent/STATE_BASELINE.txt"));
    }

    #[test]
    fn stdout_files_are_distinct_and_baselines_are_the_five() {
        let mut outs: Vec<&str> = GATES.iter().map(|g| g.stdout).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), GATES.len());
        let pinned: Vec<&str> = GATES.iter().filter_map(|g| g.baseline).collect();
        assert_eq!(
            pinned,
            [
                "MODELCHECK_BASELINE.txt",
                "PLAN_BASELINE.txt",
                "STATE_BASELINE.txt",
                "PROFILE_BASELINE.txt",
                "CLUSTER_BASELINE.txt"
            ]
        );
    }
}
