//! `planp plan` — verify the bundled deployment plans, render their
//! reports (joint product verdicts, composed path budgets, plan lints),
//! optionally replay plan-level witnesses over each plan's own
//! topology, and gate on a verdict baseline.
//!
//! ```text
//! planp plan --replay --baseline asps/PLAN_BASELINE.txt
//! ```
//!
//! With no names, every bundled plan (`asps/plans/`) is verified.
//! Options:
//!
//! * `--json` — one byte-stable JSON document on stdout.
//! * `--replay` — replay each *rejected* plan concretely over its own
//!   topology and require the predicted joint loop to reproduce.
//!   Accepted plans are not replayed: a plan may record a conservative
//!   joint violation yet be accepted under the `authenticated` plan
//!   policy (`relay_chain_reliable` — its NACK cycle only recurs under
//!   loss), and clean replay traffic cannot confirm those.
//! * `--baseline FILE` — compare each plan's verdict line against the
//!   checked-in baseline; exit 1 on any difference.
//! * `--write-baseline FILE` — regenerate the baseline (sorted by plan
//!   name) instead.
//!
//! Baseline lines read `<name> joint=<verdict> budget=<steps>
//! accepted=<yes|no>`.
//!
//! Exit status: 0 on success, 1 on baseline mismatch or a rejecting
//! witness that fails to replay, 2 on usage or I/O errors.

use crate::{Cli, CliArgs, Report, Sub};
use planp_apps::plans::{bundled_plans, resolve_asp};
use planp_runtime::{load_plan, replay_plan, PlanImage, ReplayReport};
use planp_telemetry::json::push_str;

/// `planp plan`.
pub(crate) const SUB: Sub = Sub {
    name: "plan",
    about: "statically verify the bundled deployment plans",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--replay"],
        value_flags: &["--baseline", "--write-baseline"],
        operands: true,
    },
    run,
};

const HELP: &str = "\
planp plan: statically verify the bundled deployment plans
usage: planp plan [options] [<plan name>...]
  (no names: verify every bundled plan)
  --json                 byte-stable machine output
  --replay               replay rejected plans over their own topology
  --baseline FILE        fail if verdict lines differ from FILE
  --write-baseline FILE  regenerate FILE (sorted by plan name)
";

/// Verifying one plan produced this.
struct PlanResult {
    name: &'static str,
    src: &'static str,
    image: PlanImage,
    replay: Option<ReplayReport>,
}

impl PlanResult {
    /// `<name> joint=<verdict> budget=<steps> accepted=<yes|no>`.
    fn verdict_line(&self) -> String {
        let r = &self.image.report;
        format!(
            "{} joint={} budget={} accepted={}",
            self.name,
            r.joint.as_str(),
            r.max_budget(),
            if r.accepted() { "yes" } else { "no" }
        )
    }
}

/// Baseline text: one verdict line per plan, sorted by name.
fn baseline_text(results: &[PlanResult]) -> String {
    crate::sorted_lines(results.iter().map(PlanResult::verdict_line).collect())
}

fn write_json(results: &[PlanResult], out: &mut String) {
    use std::fmt::Write as _;
    out.push_str("{\"plans\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str(out, r.name);
        out.push_str(",\"report\":");
        r.image.report.write_json(r.src, out);
        out.push_str(",\"replay\":");
        match &r.replay {
            None => out.push_str("null"),
            Some(rep) => {
                let _ = write!(
                    out,
                    "{{\"sent\":{},\"dispatches\":{},\"delivered\":{},\"dropped\":{},\
                     \"errors\":{},\"confirmed_loop\":{}}}",
                    rep.sent,
                    rep.dispatches,
                    rep.delivered,
                    rep.dropped,
                    rep.errors,
                    rep.confirmed_loop
                );
            }
        }
        out.push('}');
    }
    out.push_str("]}");
}

fn print_human(r: &PlanResult, out: &mut String) {
    out.push_str(&r.image.report.render(r.src));
    if let Some(rep) = &r.replay {
        outln!(
            out,
            "  replay: sent {} dispatched {} delivered {} dropped {} errors {} (loop {})",
            rep.sent,
            rep.dispatches,
            rep.delivered,
            rep.dropped,
            rep.errors,
            rep.confirmed_loop
        );
    }
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let replay_rejected = args.flag("--replay");

    let all = bundled_plans();
    let selected: Vec<(&'static str, &'static str)> = if args.positionals.is_empty() {
        all
    } else {
        let mut sel = Vec::new();
        for want in &args.positionals {
            match all.iter().find(|(n, _)| n == want) {
                Some(&p) => sel.push(p),
                None => return Err(format!("no bundled plan {want:?}")),
            }
        }
        sel
    };

    let mut report = Report::default();
    let mut results = Vec::new();
    for (name, src) in selected {
        let image = load_plan(src, &resolve_asp).map_err(|e| format!("{name}: {e}"))?;
        // Rejected plans carry witnesses that must reproduce concretely;
        // accepted ones are never replayed (see module docs).
        let replay = if replay_rejected && !image.report.accepted() {
            let rep = replay_plan(&image).map_err(|e| format!("{name}: replay failed: {e}"))?;
            if !rep.confirmed_loop {
                outln!(
                    report.stderr,
                    "planp plan: {name}: predicted joint loop did not replay"
                );
                report.failed = true;
            }
            Some(rep)
        } else {
            None
        };
        results.push(PlanResult {
            name,
            src,
            image,
            replay,
        });
    }

    if args.flag("--json") {
        write_json(&results, &mut report.stdout);
        report.stdout.push('\n');
    } else {
        for r in &results {
            print_human(r, &mut report.stdout);
        }
    }
    let rejected = results
        .iter()
        .filter(|r| !r.image.report.accepted())
        .count();
    outln!(
        report.stderr,
        "{} plan(s), {} rejected",
        results.len(),
        rejected
    );
    report.baseline = Some(baseline_text(&results));
    Ok(report)
}
