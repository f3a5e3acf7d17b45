//! `planp lint` — verify PLAN-P source files and report structured
//! diagnostics, per-channel cost bounds, and the accept/reject verdict.
//!
//! ```text
//! planp lint --policy no-delivery --deny-warnings asps/*.planp
//! ```
//!
//! Options:
//!
//! * `--policy strict|no-delivery|authenticated` — download policy to
//!   verify against (default `no-delivery`, the weakest policy all
//!   bundled ASPs satisfy).
//! * `--max-steps N` — add a per-packet step budget to the policy;
//!   programs whose static worst-case bound exceeds it are rejected.
//! * `--json` — machine form: one byte-stable JSON document on stdout.
//! * `--deny-warnings` — exit nonzero when any warning is reported.
//!
//! `planp check` lints every clean program of the corpus under its own
//! policy from the corpus table instead of one `--policy` for all.
//!
//! Exit status: 0 when every file is accepted (and warning-free under
//! `--deny-warnings`), 1 when any file is rejected or has denied
//! warnings, 2 on usage or I/O errors.

use crate::{Cli, CliArgs, Report, Sub};
use planp_analysis::diag::push_json_str;
use planp_analysis::{verify, Policy, VerifyReport};

/// `planp lint`.
pub(crate) const SUB: Sub = Sub {
    name: "lint",
    about: "verify PLAN-P files: diagnostics, cost bounds, accept/reject",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--deny-warnings"],
        value_flags: &["--policy", "--max-steps"],
        operands: true,
    },
    run,
};

const HELP: &str = "\
planp lint: verify PLAN-P files and report diagnostics and cost bounds
usage: planp lint [options] <file.planp>...
  --policy strict|no-delivery|authenticated  download policy (default no-delivery)
  --max-steps N                              reject bounds over N steps/packet
  --json                                     byte-stable machine output
  --deny-warnings                            exit 1 when any warning fires
";

fn run(args: &CliArgs) -> Result<Report, String> {
    let mut policy = match args.value("--policy") {
        None | Some("no-delivery") => Policy::no_delivery(),
        Some("strict") => Policy::strict(),
        Some("authenticated") => Policy::authenticated(),
        Some(other) => return Err(format!("unknown policy {other:?}")),
    };
    if let Some(n) = args.number("--max-steps", "step budget")? {
        policy = policy.with_step_budget(n);
    }
    if args.positionals.is_empty() {
        return Err("no input files (try --help)".to_string());
    }
    let files = crate::read_sources(&args.positionals)?
        .into_iter()
        .map(|(path, src)| (path, src, policy))
        .collect();
    Ok(report(
        files,
        args.flag("--json"),
        args.flag("--deny-warnings"),
    ))
}

/// What linting one file produced.
struct FileResult {
    path: String,
    src: String,
    /// `Err` holds front-end errors (the file never reached the verifier).
    report: Result<VerifyReport, Vec<planp_lang::error::LangError>>,
}

impl FileResult {
    fn accepted(&self) -> bool {
        self.report.as_ref().map(|r| r.accepted()).unwrap_or(false)
    }

    fn warning_count(&self) -> usize {
        self.report
            .as_ref()
            .map(|r| r.warnings().count())
            .unwrap_or(0)
    }
}

fn lint_source(path: String, src: String, policy: Policy) -> FileResult {
    let report = match planp_lang::compile_front(&src) {
        Ok(prog) => Ok(verify(&prog, policy)),
        Err(e) => Err(vec![e]),
    };
    FileResult { path, src, report }
}

fn print_human(r: &FileResult, out: &mut String) {
    outln!(
        out,
        "{}: {}",
        r.path,
        if r.accepted() { "ACCEPTED" } else { "REJECTED" }
    );
    match &r.report {
        Ok(report) => {
            for c in &report.cost.channels {
                outln!(out, "  channel {}#{}: {}", c.name, c.overload, c.bound);
            }
            for d in &report.diagnostics {
                for line in d.render(&r.src).lines() {
                    outln!(out, "  {line}");
                }
            }
        }
        Err(errs) => {
            for e in errs {
                outln!(out, "  {}", e.render(&r.src));
            }
        }
    }
}

fn write_json(results: &[FileResult], out: &mut String) {
    out.push_str("{\"files\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_json_str(out, &r.path);
        out.push_str(",\"report\":");
        match &r.report {
            Ok(report) => report.write_json(&r.src, out),
            Err(errs) => {
                // Front-end failures never reach the verifier; emit the
                // same shape with the errors as E000 diagnostics.
                out.push_str("{\"accepted\":false,\"channels\":[],\"diagnostics\":[");
                for (j, e) in errs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    planp_analysis::Diagnostic::error("E000", e.span, e.message.clone())
                        .write_json(&r.src, out);
                }
                out.push_str("]}");
            }
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// Lints `files`, each `(path, source, policy)`.
pub(crate) fn report(
    files: Vec<(String, String, Policy)>,
    json: bool,
    deny_warnings: bool,
) -> Report {
    let results: Vec<FileResult> = files
        .into_iter()
        .map(|(path, src, policy)| lint_source(path, src, policy))
        .collect();
    let mut report = Report::default();
    if json {
        write_json(&results, &mut report.stdout);
        report.stdout.push('\n');
    } else {
        for r in &results {
            print_human(r, &mut report.stdout);
        }
    }
    let rejected = results.iter().filter(|r| !r.accepted()).count();
    let warnings: usize = results.iter().map(|r| r.warning_count()).sum();
    outln!(
        report.stderr,
        "{} file(s), {} rejected, {} warning(s)",
        results.len(),
        rejected,
        warnings
    );
    report.failed = rejected > 0 || (deny_warnings && warnings > 0);
    report
}
