//! `planp modelcheck` — run the explicit-state model checker over
//! PLAN-P source files, render counterexample witnesses, optionally
//! replay them through the simulator, and gate on a verdict baseline.
//!
//! ```text
//! planp modelcheck --replay --baseline asps/MODELCHECK_BASELINE.txt \
//!     asps/*.planp asps/buggy/*.planp
//! ```
//!
//! With no files, the twelve bundled ASPs are checked. Options:
//!
//! * `--json` — one byte-stable JSON document on stdout.
//! * `--replay` — replay each file with a violated property through
//!   the two-router simulator and report whether the concrete traffic
//!   exhibits the predicted loop/drop/exception.
//! * `--baseline FILE` — compare the verdict lines against the
//!   checked-in baseline; exit 1 on any difference.
//! * `--write-baseline FILE` — regenerate the baseline file instead.
//!
//! A baseline line ends with `witness=abstract` when the corpus table
//! lists the file under the `authenticated` policy: its Violated
//! verdict is a known *conservative over-approximation* whose
//! counterexample needs conditions (e.g. repeated packet loss) the
//! clean replay topology never produces, so `--replay` confirmation is
//! waived for it. `reliable_relay.planp` is the canonical case — the
//! checker cannot prove its NACK/retransmit cycle terminates, but the
//! cycle only recurs while the network keeps losing the retransmission.
//!
//! Exit status: 0 on success, 1 on baseline mismatch or a predicted
//! violation that fails to replay (unless abstract), 2 on usage or I/O
//! errors.

use crate::{Cli, CliArgs, Report, Source, Sub};
use planp_analysis::modelcheck::{model_check, ModelCheckReport};
use planp_analysis::summary::summarize;
use planp_runtime::replay_asp_traced;
use planp_telemetry::json::push_str;

/// `planp modelcheck`.
pub(crate) const SUB: Sub = Sub {
    name: "modelcheck",
    about: "exhaustively model-check PLAN-P files, render and replay witnesses",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--replay"],
        value_flags: &["--baseline", "--write-baseline"],
        operands: true,
    },
    run,
};

const HELP: &str = "\
planp modelcheck: exhaustively model-check PLAN-P files, render witnesses
usage: planp modelcheck [options] [<file.planp>...]
  (no files: check the twelve bundled ASPs)
  --json                 byte-stable machine output
  --replay               replay violations through the simulator
  --baseline FILE        fail if verdict lines differ from FILE
  --write-baseline FILE  regenerate FILE from current verdicts
";

fn run(args: &CliArgs) -> Result<Report, String> {
    let sources = if args.positionals.is_empty() {
        crate::bundled_asps()
            .into_iter()
            .map(|(name, src, _policy)| (name.to_string(), src.to_string()))
            .collect()
    } else {
        crate::read_sources(&args.positionals)?
    };
    Ok(report(sources, args.flag("--json"), args.flag("--replay")))
}

/// Model-checking one source produced this.
struct FileResult {
    name: String,
    src: String,
    /// `Err` holds the front-end error (the file never reached the
    /// checker).
    report: Result<ModelCheckReport, planp_lang::error::LangError>,
    replay: Option<planp_runtime::ReplayReport>,
    /// ASCII span trees of the replay's probe packets (`--replay` only):
    /// the causal shape of the predicted loop/drop/exception.
    replay_trees: Option<String>,
}

impl FileResult {
    /// Verdict pair as baseline text, `error error` for front-end
    /// failures.
    fn verdict_line(&self) -> String {
        match &self.report {
            Ok(r) => format!(
                "{} termination={} delivery={}",
                self.name,
                r.termination.as_str(),
                r.delivery.as_str()
            ),
            Err(_) => format!("{} termination=error delivery=error", self.name),
        }
    }
}

fn check_source(name: String, src: String, replay: bool) -> FileResult {
    let report = match planp_lang::compile_front(&src) {
        Ok(prog) => {
            let sum = summarize(&prog);
            Ok(model_check(&prog, &sum))
        }
        Err(e) => Err(e),
    };
    // Replay only when the checker predicts a violation: the report
    // records whether the concrete traffic exhibits it.
    let traced = match (&report, replay) {
        (Ok(r), true) if !r.witnesses.is_empty() => replay_asp_traced(&src).ok(),
        _ => None,
    };
    let (replay, replay_trees) = match traced {
        Some((rep, trees)) => (Some(rep), Some(trees)),
        None => (None, None),
    };
    FileResult {
        name,
        src,
        report,
        replay,
        replay_trees,
    }
}

fn print_human(r: &FileResult, out: &mut String) {
    match &r.report {
        Ok(report) => {
            outln!(
                out,
                "{}: termination {}, delivery {} ({} state(s), {} transition(s){})",
                r.name,
                report.termination.as_str(),
                report.delivery.as_str(),
                report.states,
                report.transitions,
                if report.exhausted {
                    ", budget exhausted"
                } else {
                    ""
                }
            );
            for w in &report.witnesses {
                for line in w.render(&r.src).lines() {
                    outln!(out, "  {line}");
                }
            }
        }
        Err(e) => outln!(out, "{}: front-end error\n  {}", r.name, e.render(&r.src)),
    }
    if let Some(rep) = &r.replay {
        outln!(
            out,
            "  replay: sent {} dispatched {} delivered {} dropped {} errors {} \
             (loop {}, drop {}, exception {})",
            rep.sent,
            rep.dispatches,
            rep.delivered,
            rep.dropped,
            rep.errors,
            rep.confirmed_loop,
            rep.confirmed_drop,
            rep.confirmed_exception
        );
    }
    if let Some(trees) = &r.replay_trees {
        for line in trees.lines() {
            outln!(out, "    {line}");
        }
    }
}

fn write_json(results: &[FileResult], out: &mut String) {
    use std::fmt::Write as _;
    out.push_str("{\"files\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_str(out, &r.name);
        out.push_str(",\"modelcheck\":");
        match &r.report {
            Ok(report) => report.write_json(&r.src, out),
            Err(e) => {
                out.push_str("{\"error\":");
                push_str(out, &e.message);
                out.push('}');
            }
        }
        match &r.replay {
            Some(rep) => {
                let _ = write!(
                    out,
                    ",\"replay\":{{\"sent\":{},\"dispatches\":{},\"delivered\":{},\"dropped\":{},\"errors\":{},\"confirmed_loop\":{},\"confirmed_drop\":{},\"confirmed_exception\":{}}}",
                    rep.sent,
                    rep.dispatches,
                    rep.delivered,
                    rep.dropped,
                    rep.errors,
                    rep.confirmed_loop,
                    rep.confirmed_drop,
                    rep.confirmed_exception
                );
            }
            None => out.push_str(",\"replay\":null"),
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// True if every predicted violation the replay ran for was exhibited
/// by the concrete traffic.
fn replays_confirm(r: &FileResult) -> bool {
    let (Ok(report), Some(rep)) = (&r.report, &r.replay) else {
        return true;
    };
    report.witnesses.iter().all(|w| rep.confirms(&w.kind))
}

/// Is this file's Violated verdict a known conservative
/// over-approximation? The corpus table says so by listing it under
/// the `authenticated` policy: the download path already trusts it
/// without a termination proof, and its witness needs conditions the
/// clean replay topology never produces, so replay confirmation is
/// waived and its baseline line carries `witness=abstract`.
fn witness_is_abstract(name: &str) -> bool {
    planp_apps::corpus::asp_at(name).is_some_and(|a| !a.policy.require_termination)
}

/// Renders the baseline file for `results`: one verdict line per ASP,
/// sorted (a line starts with the file's name).
fn baseline_text(results: &[FileResult]) -> String {
    let line = |r: &FileResult| {
        let marker = if witness_is_abstract(&r.name) {
            " witness=abstract"
        } else {
            ""
        };
        r.verdict_line() + marker
    };
    crate::sorted_lines(results.iter().map(line).collect())
}

/// Model-checks `sources` (and replays predicted violations).
pub(crate) fn report(sources: Vec<Source>, json: bool, replay: bool) -> Report {
    let results: Vec<FileResult> = sources
        .into_iter()
        .map(|(name, src)| check_source(name, src, replay))
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

    for r in results.iter().filter(|r| !replays_confirm(r)) {
        if witness_is_abstract(&r.name) {
            outln!(
                report.stderr,
                "planp modelcheck: {}: witness is abstract per the corpus table; \
                 replay confirmation waived",
                r.name
            );
        } else {
            outln!(
                report.stderr,
                "planp modelcheck: {}: predicted violation did not replay",
                r.name
            );
            report.failed = true;
        }
    }
    let violated = results
        .iter()
        .filter(|r| {
            r.report
                .as_ref()
                .map(|rep| !rep.witnesses.is_empty())
                .unwrap_or(true)
        })
        .count();
    outln!(
        report.stderr,
        "{} file(s), {} with violations",
        results.len(),
        violated
    );
    report.baseline = Some(baseline_text(&results));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const FWD: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))";

    #[test]
    fn baseline_text_is_sorted_by_name_regardless_of_input_order() {
        let results: Vec<FileResult> =
            ["z.planp", "asps/reliable_relay.planp", "asps/buggy/k.planp"]
                .iter()
                .map(|n| check_source(n.to_string(), FWD.to_string(), false))
                .collect();
        // The marker comes from the corpus table (the `authenticated`
        // entry), not from the text under check.
        assert_eq!(
            baseline_text(&results),
            "asps/buggy/k.planp termination=proved delivery=proved\n\
             asps/reliable_relay.planp termination=proved delivery=proved witness=abstract\n\
             z.planp termination=proved delivery=proved\n"
        );
    }
}
