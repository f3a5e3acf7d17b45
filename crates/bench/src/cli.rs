//! The one command line of the harness: `planp <subcommand> [args]`.
//!
//! Every subcommand declares its vocabulary as a [`Cli`] and its work as
//! a function from the parsed [`CliArgs`] to a [`Report`]; [`main`] does
//! the rest the same way for all of them — an unknown flag or a missing
//! value exits 2 with a one-line `planp <sub>: …`, the report's stdout
//! and named artefacts are written out, and `--baseline FILE` /
//! `--write-baseline FILE` (for the subcommands that declare them)
//! compare or regenerate a checked-in verdict file. Exit status: 0 on
//! success, 1 on a baseline mismatch or a failed report, 2 on usage or
//! I/O errors.

use crate::Report;

/// A subcommand's argument vocabulary. Nothing is implied: a flag the
/// subcommand does not list is an error.
pub struct Cli {
    /// Full `--help` text, printed verbatim.
    pub help: &'static str,
    /// Boolean flags (e.g. `--json`, `--replay`).
    pub flags: &'static [&'static str],
    /// Value-taking flags (e.g. `--baseline`, `--flame`).
    pub value_flags: &'static [&'static str],
    /// Whether bare operands (file names, plan names) are accepted.
    pub operands: bool,
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct CliArgs {
    /// Boolean flags that were present.
    flags: Vec<&'static str>,
    /// Value flags with their values.
    values: Vec<(&'static str, String)>,
    /// Everything that was not a flag, in order.
    pub positionals: Vec<String>,
}

impl CliArgs {
    /// Was the boolean flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// The value flag's value, if given (last occurrence wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value flag's value parsed as a number; `what` names it in
    /// the error (`bad seed "x"`).
    pub fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        what: &str,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad {what} {v:?}")))
            .transpose()
    }

    /// The `--sample 1/N` rate; 1 (keep everything) when absent.
    pub fn sample(&self) -> Result<u32, String> {
        self.value("--sample")
            .map_or(Ok(1), planp_telemetry::TraceConfig::parse_sample)
    }
}

impl Cli {
    /// Parses `argv` (the arguments after the subcommand's name).
    pub fn parse_from(&self, argv: &[String]) -> Result<CliArgs, String> {
        let mut args = CliArgs::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_str();
            if let Some(f) = self.flags.iter().find(|f| **f == arg) {
                args.flags.push(f);
            } else if let Some(f) = self.value_flags.iter().find(|f| **f == arg) {
                let v = it.next().ok_or_else(|| format!("{f} needs a value"))?;
                args.values.push((f, v.clone()));
            } else if arg.starts_with("--") || !self.operands {
                return Err(format!("unknown argument {arg:?} (try --help)"));
            } else {
                args.positionals.push(arg.to_string());
            }
        }
        Ok(args)
    }
}

/// One subcommand of `planp`.
pub struct Sub {
    /// The word after `planp`.
    pub name: &'static str,
    /// One line for `planp --help`.
    pub about: &'static str,
    /// Its argument vocabulary.
    pub cli: Cli,
    /// Its work. `Err` is a usage or I/O error (exit 2).
    pub run: fn(&CliArgs) -> Result<Report, String>,
}

impl Sub {
    /// A figure or table subcommand: `--json`, `--report`, nothing else.
    pub const fn figure(
        name: &'static str,
        about: &'static str,
        run: fn(&CliArgs) -> Result<Report, String>,
    ) -> Sub {
        let cli = Cli {
            help: "usage: planp <figure or table> [--json] [--report]
  --json    write BENCH_<name>.json (headline scalars + metrics snapshot)
  --report  print the run's metrics table after the figure
",
            flags: &["--json", "--report"],
            value_flags: &[],
            operands: false,
        };
        Sub {
            name,
            about,
            cli,
            run,
        }
    }
}

/// The pairwise line diff printed on a baseline mismatch.
pub fn render_diff(expected: &str, actual: &str) -> String {
    let mut out = String::new();
    for (e, a) in expected.lines().zip(actual.lines()) {
        if e != a {
            out.push_str(&format!("  - {e}\n  + {a}\n"));
        }
    }
    let (en, an) = (expected.lines().count(), actual.lines().count());
    if en != an {
        out.push_str(&format!("  ({en} baseline line(s), {an} checked)\n"));
    }
    out
}

/// Runs `planp` on the process arguments and exits with its status.
pub fn main(subs: &[Sub]) -> ! {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match dispatch(subs, &argv) {
        Ok(failed) => i32::from(failed),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    })
}

/// Parses, runs and emits one subcommand. `Ok(true)` is exit status 1,
/// `Err` the one-line message of exit status 2.
fn dispatch(subs: &[Sub], argv: &[String]) -> Result<bool, String> {
    let Some(sub) = argv.first().and_then(|n| subs.iter().find(|s| s.name == n)) else {
        let mut help =
            String::from("usage: planp <subcommand> [options]   (planp <subcommand> --help)\n");
        for s in subs {
            help.push_str(&format!("  {:<20} {}\n", s.name, s.about));
        }
        return match argv.first().map(String::as_str) {
            Some("--help" | "-h") => {
                print!("{help}");
                Ok(false)
            }
            Some(name) => Err(format!("planp: unknown subcommand {name:?} (try --help)")),
            None => Err(help.trim_end().to_string()),
        };
    };
    if argv[1..].iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", sub.cli.help);
        return Ok(false);
    }
    let named = |e: String| format!("planp {}: {e}", sub.name);
    let args = sub.cli.parse_from(&argv[1..]).map_err(named)?;
    let report = (sub.run)(&args).map_err(named)?;

    print!("{}", report.stdout);
    eprint!("{}", report.stderr);
    let write = |path: &str, body: &str| -> Result<(), String> {
        let dir = std::path::Path::new(path).parent();
        dir.map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, body))
            .map_err(|e| named(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
        Ok(())
    };
    for (path, body) in &report.files {
        write(path, body)?;
    }
    let mut failed = report.failed;
    if let (Some(actual), Some(path)) = (&report.baseline, args.value("--write-baseline")) {
        write(path, actual)?;
    } else if let (Some(actual), Some(path)) = (&report.baseline, args.value("--baseline")) {
        let expected =
            std::fs::read_to_string(path).map_err(|e| named(format!("cannot read {path}: {e}")))?;
        if expected != *actual {
            eprintln!("planp {}: verdicts differ from {path}:", sub.name);
            eprint!("{}", render_diff(&expected, actual));
            failed = true;
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    const CLI: Cli = Cli {
        help: "help\n",
        flags: &["--json", "--replay"],
        value_flags: &["--baseline", "--flame"],
        operands: true,
    };

    #[test]
    fn parses_flags_values_and_operands() {
        let a = CLI
            .parse_from(&argv(&[
                "--json",
                "--replay",
                "--flame",
                "out.txt",
                "--baseline",
                "B",
                "x.planp",
            ]))
            .unwrap();
        assert!(a.flag("--json") && a.flag("--replay"));
        assert_eq!(a.value("--flame"), Some("out.txt"));
        assert_eq!(a.value("--baseline"), Some("B"));
        assert_eq!(a.value("--write-baseline"), None);
        assert_eq!(a.positionals, vec!["x.planp"]);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(CLI.parse_from(&argv(&["--bogus"])).is_err());
        assert!(CLI.parse_from(&argv(&["--baseline"])).is_err());
        assert!(CLI.parse_from(&argv(&["--flame"])).is_err());
        let figure = &crate::SUBCOMMANDS[0].cli;
        assert!(figure.parse_from(&argv(&["stray"])).is_err());
    }

    /// `fig7_audio_gaps --jsno` used to run its two minutes and write
    /// nothing; every subcommand now refuses what it does not declare,
    /// before doing any work.
    #[test]
    fn a_mistyped_flag_on_a_figure_subcommand_is_a_usage_error() {
        for sub in crate::SUBCOMMANDS {
            let e = dispatch(crate::SUBCOMMANDS, &argv(&[sub.name, "--jsno"])).unwrap_err();
            assert_eq!(
                e,
                format!(
                    "planp {}: unknown argument \"--jsno\" (try --help)",
                    sub.name
                )
            );
        }
        let fig7 = crate::SUBCOMMANDS
            .iter()
            .find(|s| s.name == "fig7")
            .unwrap();
        let ok = fig7.cli.parse_from(&argv(&["--json", "--report"])).unwrap();
        assert!(ok.flag("--json") && ok.flag("--report"));
        assert!(dispatch(crate::SUBCOMMANDS, &argv(&["fig9"])).is_err());
    }

    #[test]
    fn numbers_and_sample_rates_parse_or_explain() {
        let cli = Cli {
            help: "",
            flags: &[],
            value_flags: &["--seed", "--sample"],
            operands: false,
        };
        let a = cli
            .parse_from(&argv(&["--seed", "7", "--sample", "1/8"]))
            .unwrap();
        assert_eq!(a.number::<u64>("--seed", "seed"), Ok(Some(7)));
        assert_eq!(a.sample(), Ok(8));
        let a = cli.parse_from(&argv(&["--seed", "x"])).unwrap();
        assert_eq!(
            a.number::<u64>("--seed", "seed"),
            Err("bad seed \"x\"".into())
        );
        assert_eq!(a.sample(), Ok(1));
    }

    #[test]
    fn diff_renders_changed_pairs_and_length_mismatch() {
        let d = render_diff("a\nb\n", "a\nc\nd\n");
        assert_eq!(d, "  - b\n  + c\n  (2 baseline line(s), 3 checked)\n");
        assert_eq!(render_diff("a\n", "a\n"), "");
    }
}
