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
//! * `--state` — also require every table's growth to be statically
//!   bounded (unbounded state is rejected with `E009`).
//! * `--json` — machine form: one byte-stable JSON document on stdout.
//! * `--deny-warnings` — exit nonzero when any warning is reported.
//!
//! Each file prints as `{path}:` followed by the indented verification
//! report (verdicts, per-channel cost bounds, problem size) and every
//! diagnostic rendered with a source snippet. The model checker's
//! counterexample witnesses as JSON are `planp modelcheck --json`.
//!
//! `planp check` lints every clean program of the corpus under its own
//! policy from the corpus table instead of one `--policy` for all.
//!
//! Exit status: 0 when every file is accepted (and warning-free under
//! `--deny-warnings`), 1 when any file is rejected or has denied
//! warnings, 2 on usage or I/O errors.

use crate::{Cli, CliArgs, Report, Sub};
use planp_analysis::{verify, Policy, VerifyReport};
use planp_telemetry::json::push_str;

/// `planp lint`.
pub(crate) const SUB: Sub = Sub {
    name: "lint",
    about: "verify PLAN-P files: diagnostics, cost bounds, accept/reject",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--deny-warnings", "--state"],
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
  --state                                    reject statically unbounded tables (E009)
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
    if args.flag("--state") {
        policy = policy.with_bounded_state();
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

/// `{path}:`, then the report's `Display` and the rendered diagnostics
/// (or the front-end errors), indented under it.
fn write_human(r: &FileResult, out: &mut String) {
    outln!(out, "{}:", r.path);
    let blocks: Vec<String> = match &r.report {
        Ok(report) => std::iter::once(report.to_string())
            .chain(report.diagnostics.iter().map(|d| d.render(&r.src)))
            .collect(),
        Err(errs) => std::iter::once("verdict:      REJECTED".to_string())
            .chain(errs.iter().map(|e| e.render(&r.src)))
            .collect(),
    };
    for line in blocks.iter().flat_map(|b| b.lines()) {
        outln!(out, "  {line}");
    }
}

fn write_json(results: &[FileResult], out: &mut String) {
    out.push_str("{\"files\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_str(out, &r.path);
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
            write_human(r, &mut report.stdout);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(argv: &[&str]) -> Report {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        run(&SUB.cli.parse_from(&argv).unwrap()).unwrap()
    }

    /// `state_leak` counts packets in a table keyed on the packet's
    /// source and never evicts an entry.
    #[test]
    fn state_flag_rejects_a_packet_keyed_never_evicted_table_with_e009() {
        let leak = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../asps/buggy/state_leak.planp"
        );
        let lax = lint(&[leak]);
        assert!(!lax.failed, "{}", lax.stdout);
        assert!(
            lax.stdout.contains("verdict:      ACCEPTED"),
            "{}",
            lax.stdout
        );
        let bounded = lint(&["--state", leak]);
        assert!(bounded.failed, "{}", bounded.stdout);
        assert!(bounded.stdout.contains("verdict:      REJECTED"));
        assert!(bounded.stdout.contains("error[E009]"), "{}", bounded.stdout);
    }

    #[test]
    fn human_output_is_the_path_then_the_indented_report() {
        let fwd = concat!(env!("CARGO_MANIFEST_DIR"), "/../../asps/forwarder.planp");
        let r = lint(&["--policy", "strict", "--state", "--max-steps", "500", fwd]);
        assert!(!r.failed);
        let src = std::fs::read_to_string(fwd).unwrap();
        let prog = planp_lang::compile_front(&src).unwrap();
        let policy = Policy::strict().with_step_budget(500).with_bounded_state();
        let shown = verify(&prog, policy).to_string().replace('\n', "\n  ");
        assert_eq!(r.stdout, format!("{fwd}:\n  {shown}\n"));
    }
}
