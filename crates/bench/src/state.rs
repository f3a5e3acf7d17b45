//! `planp state` — run the state-effect analysis over the checked-in
//! ASP corpus and the bundled deployment plans, render per-table
//! growth bounds, and gate on a verdict baseline.
//!
//! ```text
//! planp state --baseline asps/STATE_BASELINE.txt asps/*.planp asps/buggy/*.planp
//! ```
//!
//! Every ASP file named on the command line is compiled and summarized;
//! the bundled plans (`asps/plans/`) are always verified in addition.
//! Options:
//!
//! * `--json` — one byte-stable JSON document on stdout.
//! * `--baseline FILE` — compare each verdict line against the
//!   checked-in baseline; exit 1 on any difference.
//! * `--write-baseline FILE` — regenerate the baseline (sorted) instead.
//!
//! ASP lines read `<path> tables=<t> inserts=<i> bound=<n|unbounded>
//! verdict=<bounded|waived>` — `waived` marks corpus ASPs that ship
//! with packet-keyed, never-evicted tables and are accepted only
//! because their download policies do not demand bounded state. Plan
//! lines read `plan <name> nodes=<n> state=<entries|unbounded>
//! budget=<n|none> verdict=<within|exceeded|unchecked>`.
//!
//! Exit status: 0 on success, 1 on baseline mismatch, 2 on usage or
//! I/O errors.

use crate::{Cli, CliArgs, Report, Source, Sub};
use planp_analysis::summarize;
use planp_apps::plans::{bundled_plans, resolve_asp};
use planp_runtime::{load_plan, PlanImage};
use planp_telemetry::json::push_str;

/// `planp state`.
pub(crate) const SUB: Sub = Sub {
    name: "state",
    about: "state-effect bounds for ASP files and the bundled plans",
    cli: Cli {
        help: HELP,
        flags: &["--json"],
        value_flags: &["--baseline", "--write-baseline"],
        operands: true,
    },
    run,
};

const HELP: &str = "\
planp state: state-effect bounds for the ASP corpus and bundled plans
usage: planp state [options] <file.planp>...
  (the bundled plans are always verified in addition to the files)
  --json                 byte-stable machine output
  --baseline FILE        fail if verdict lines differ from FILE
  --write-baseline FILE  regenerate FILE (sorted)
";

fn run(args: &CliArgs) -> Result<Report, String> {
    report(crate::read_sources(&args.positionals)?, args.flag("--json"))
}

/// The state analysis of one ASP file.
struct AspResult {
    path: String,
    tables: usize,
    max_inserts: u64,
    /// `None` when some table's growth is unbounded.
    bound: Option<u64>,
}

impl AspResult {
    fn verdict_line(&self) -> String {
        match self.bound {
            Some(n) => format!(
                "{} tables={} inserts={} bound={} verdict=bounded",
                self.path, self.tables, self.max_inserts, n
            ),
            None => format!(
                "{} tables={} inserts={} bound=unbounded verdict=waived",
                self.path, self.tables, self.max_inserts
            ),
        }
    }
}

/// The plan-level state composition of one bundled plan.
struct PlanStateResult {
    name: &'static str,
    image: PlanImage,
}

impl PlanStateResult {
    /// Worst per-node composed entry bound (`None` = some node hosts
    /// an unbounded ASP; nodes without installs are not reported).
    fn worst(&self) -> Option<u64> {
        let ns = &self.image.report.node_state;
        if ns.iter().any(|n| n.entries.is_none()) {
            return None;
        }
        Some(ns.iter().filter_map(|n| n.entries).max().unwrap_or(0))
    }

    fn verdict_line(&self) -> String {
        let r = &self.image.report;
        let state = match self.worst() {
            Some(n) => n.to_string(),
            None => "unbounded".to_string(),
        };
        let budget = match r.policy.max_node_state_entries {
            Some(n) => n.to_string(),
            None => "none".to_string(),
        };
        let verdict = match r.policy.max_node_state_entries {
            None => "unchecked",
            Some(_) if r.diagnostics.iter().any(|d| d.code == "E010") => "exceeded",
            Some(_) => "within",
        };
        format!(
            "plan {} nodes={} state={state} budget={budget} verdict={verdict}",
            self.name,
            r.node_state.len()
        )
    }
}

/// Baseline text: one verdict line per ASP and per plan, sorted.
fn baseline_text(asps: &[AspResult], plans: &[PlanStateResult]) -> String {
    let mut lines: Vec<String> = asps.iter().map(AspResult::verdict_line).collect();
    lines.extend(plans.iter().map(PlanStateResult::verdict_line));
    crate::sorted_lines(lines)
}

fn write_json(asps: &[AspResult], plans: &[PlanStateResult], out: &mut String) {
    use std::fmt::Write as _;
    out.push_str("{\"asps\":[");
    for (i, a) in asps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_str(out, &a.path);
        let _ = write!(
            out,
            ",\"tables\":{},\"inserts\":{}",
            a.tables, a.max_inserts
        );
        match a.bound {
            Some(n) => {
                let _ = write!(out, ",\"bound\":{n}}}");
            }
            None => out.push_str(",\"bound\":null}"),
        }
    }
    out.push_str("],\"plans\":[");
    for (i, p) in plans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str(out, p.name);
        out.push_str(",\"nodes\":[");
        for (j, ns) in p.image.report.node_state.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"node\":");
            push_str(out, &ns.node);
            match ns.entries {
                Some(e) => {
                    let _ = write!(out, ",\"entries\":{e}}}");
                }
                None => out.push_str(",\"entries\":null}"),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

fn analyze_asp((path, src): Source) -> Result<AspResult, String> {
    let prog =
        planp_lang::compile_front(&src).map_err(|e| format!("{path}: {}", e.render(&src)))?;
    let sum = summarize(&prog);
    Ok(AspResult {
        path,
        tables: sum.state.tables.len(),
        max_inserts: sum.state.max_inserts(),
        bound: sum.state.entry_bound(),
    })
}

fn analyze_plans() -> Result<Vec<PlanStateResult>, String> {
    bundled_plans()
        .into_iter()
        .map(|(name, src)| match load_plan(src, &resolve_asp) {
            Ok(image) => Ok(PlanStateResult { name, image }),
            Err(e) => Err(format!("{name}: {e}")),
        })
        .collect()
}

/// Analyses `sources` and, always, the bundled plans.
pub(crate) fn report(sources: Vec<Source>, json: bool) -> Result<Report, String> {
    let asps = sources
        .into_iter()
        .map(analyze_asp)
        .collect::<Result<Vec<_>, _>>()?;
    let plans = analyze_plans()?;

    let mut report = Report::default();
    if json {
        write_json(&asps, &plans, &mut report.stdout);
        report.stdout.push('\n');
    } else {
        for a in &asps {
            outln!(report.stdout, "{}", a.verdict_line());
        }
        for p in &plans {
            outln!(report.stdout, "{}", p.verdict_line());
        }
    }
    let unbounded = asps.iter().filter(|a| a.bound.is_none()).count();
    outln!(
        report.stderr,
        "{} ASP(s) ({} waived unbounded), {} plan(s)",
        asps.len(),
        unbounded,
        plans.len()
    );
    report.baseline = Some(baseline_text(&asps, &plans));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<AspResult> {
        crate::corpus_sources()
            .into_iter()
            .map(|s| analyze_asp(s).expect("corpus ASP analyzes"))
            .collect()
    }

    #[test]
    fn bounded_gateway_and_leak_pin_their_verdicts() {
        let asps = corpus();
        let find = |p: &str| {
            asps.iter()
                .find(|a| a.path == p)
                .unwrap_or_else(|| panic!("{p} in corpus"))
        };
        assert_eq!(find("asps/http_gateway_bounded.planp").bound, Some(256));
        assert_eq!(find("asps/http_gateway.planp").bound, None);
        assert_eq!(find("asps/buggy/state_leak.planp").bound, None);
        assert_eq!(find("asps/forwarder.planp").bound, Some(0));
    }
}
