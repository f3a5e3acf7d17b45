//! `planp profile` — the always-on VM profiler over the bundled ASP
//! corpus and the traced scenarios, with byte-stable exports and a
//! verdict baseline.
//!
//! ```text
//! planp profile --baseline asps/PROFILE_BASELINE.txt
//! ```
//!
//! Two sections, both deterministic (two runs produce byte-identical
//! output; `planp check` runs it twice and compares):
//!
//! 1. **Static corpus** — every bundled ASP's per-site cost bounds and
//!    superinstruction candidates (header-field load + compare +
//!    branch; table lookup + forward), straight from the analysis.
//! 2. **Traced scenarios** — the audio, HTTP, and MPEG experiments
//!    replayed at fixed seeds with the per-site profiler on: every
//!    dispatch's charge vector is attributed to source sites, joined
//!    against the static bounds, and rendered as a utilization heatmap
//!    plus a ranked superinstruction-candidate report.
//!
//! Asserted invariants (a violation panics):
//!
//! * Σ per-site steps == the aggregate `vm_steps` charge, on every
//!   dispatch of every scope (`mismatches=0`);
//! * observed per-site steps never exceed `static bound × dispatches`
//!   (utilization ≤ 1000‰) — the per-site cost analysis is sound;
//! * every observed site carries a static bound (no unknown sites);
//! * the ranked superinstruction report is non-empty.
//!
//! Options:
//!
//! * `--json` — one byte-stable JSON document on stdout.
//! * `--flame FILE` — write collapsed-stack flamegraph lines
//!   (`planp;<scenario>;<node>;<chan>#<ov>;<site> <steps>`), ready for
//!   `flamegraph.pl` or speedscope.
//! * `--heatmap FILE` — write the utilization heatmap rows as JSON.
//! * `--baseline FILE` — compare each profile line against the
//!   checked-in baseline; exit 1 on any difference.
//! * `--write-baseline FILE` — regenerate the baseline (sorted).
//!
//! Baseline lines read `asp <name> chans=<n> sites=<n> bound=<steps>
//! candidates=<k>` for the static section and `scenario <name>
//! scope=<key> dispatches=<d> steps=<s> sites=<n> util=<max permille>`
//! for the dynamic one.
//!
//! Exit status: 0 on success, 1 on baseline mismatch, 2 on usage or
//! I/O errors.

use crate::{bundled_asps, Cli, CliArgs, Report, Sub};
use planp_telemetry::json::push_str;
use planp_telemetry::{ProfileRegistry, TraceConfig};

/// `planp profile`.
pub(crate) const SUB: Sub = Sub {
    name: "profile",
    about: "per-site VM step profiles for the corpus and the traced scenarios",
    cli: Cli {
        help: HELP,
        flags: &["--json"],
        value_flags: &["--flame", "--heatmap", "--baseline", "--write-baseline"],
        operands: false,
    },
    run,
};

const HELP: &str = "\
planp profile: per-site VM step profiles for the corpus and scenarios
usage: planp profile [options]
  --json                 byte-stable machine output
  --flame FILE           write collapsed-stack flamegraph lines
  --heatmap FILE         write the utilization heatmap rows as JSON
  --baseline FILE        fail if profile lines differ from FILE
  --write-baseline FILE  regenerate FILE (sorted)
";

/// The static per-site analysis of one bundled ASP.
struct AspProfile {
    name: &'static str,
    chans: usize,
    sites: usize,
    bound: u64,
    candidates: usize,
}

impl AspProfile {
    fn verdict_line(&self) -> String {
        format!(
            "asp {} chans={} sites={} bound={} candidates={}",
            self.name, self.chans, self.sites, self.bound, self.candidates
        )
    }
}

fn analyze_corpus() -> Vec<AspProfile> {
    let mut out = Vec::new();
    for (name, src, _policy) in bundled_asps() {
        let prog =
            planp_lang::compile_front(src).unwrap_or_else(|e| panic!("{name}: {}", e.render(src)));
        let report = planp_analysis::site_bounds(&prog, src);
        let candidates = planp_analysis::superinstruction_candidates(&prog, src);
        out.push(AspProfile {
            name,
            chans: report.channels.len(),
            sites: report.channels.iter().map(|c| c.sites.len()).sum(),
            bound: report.channels.iter().map(|c| c.total_bound()).sum(),
            candidates: candidates.len(),
        });
    }
    out
}

/// One traced scenario's profile registry.
struct ScenarioProfile {
    name: &'static str,
    profile: ProfileRegistry,
}

/// The three traced scenarios of `planp trace`, five simulated seconds
/// each at their default seeds, tracing off (the profiler is always on).
fn run_scenarios() -> Vec<ScenarioProfile> {
    let run = |name| {
        let (telemetry, _) = crate::trace::replay(name, None, 5, TraceConfig::default())
            .expect("a scenario of planp trace");
        ScenarioProfile {
            name,
            profile: telemetry.profile,
        }
    };
    ["audio", "http", "mpeg"].map(run).into()
}

/// `scenario <name> scope=<key> ...` lines, one per declared scope.
fn scenario_lines(s: &ScenarioProfile) -> Vec<String> {
    // Per-scope worst utilization, from the joined heatmap rows.
    let mut util = std::collections::BTreeMap::new();
    for row in s.profile.heatmap() {
        let worst = util.entry(row.scope.clone()).or_insert(0);
        *worst = (*worst).max(row.permille);
    }
    s.profile
        .scopes()
        .map(|sc| {
            format!(
                "scenario {} scope={} dispatches={} steps={} sites={} util={}",
                s.name,
                sc.key(),
                sc.dispatches,
                sc.steps,
                sc.sites().len(),
                util.get(&sc.key()).copied().unwrap_or(0)
            )
        })
        .collect()
}

/// Baseline text: the static and dynamic profile lines, sorted.
fn baseline_text(asps: &[AspProfile], scenarios: &[ScenarioProfile]) -> String {
    let mut lines: Vec<String> = asps.iter().map(AspProfile::verdict_line).collect();
    lines.extend(scenarios.iter().flat_map(scenario_lines));
    crate::sorted_lines(lines)
}

/// Collapsed flamegraph lines with the scenario as the second frame.
fn flame_text(scenarios: &[ScenarioProfile]) -> String {
    let mut out = String::new();
    for s in scenarios {
        for line in s.profile.collapsed_flame().lines() {
            out.push_str(&line.replacen("planp;", &format!("planp;{};", s.name), 1));
            out.push('\n');
        }
    }
    out
}

/// The joined heatmap rows of every scenario, as one JSON array.
fn heatmap_json(scenarios: &[ScenarioProfile]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    let mut first = true;
    for s in scenarios {
        for row in s.profile.heatmap() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"scenario\":");
            push_str(&mut out, s.name);
            out.push_str(",\"scope\":");
            push_str(&mut out, &row.scope);
            out.push_str(",\"label\":");
            push_str(&mut out, &row.label);
            let _ = write!(
                out,
                ",\"site\":{},\"observed\":{},\"bound\":{},\"dispatches\":{},\
                 \"permille\":{},\"hot\":{},\"slack\":{}}}",
                row.site, row.observed, row.bound, row.dispatches, row.permille, row.hot, row.slack
            );
        }
    }
    out.push(']');
    out
}

fn write_json(asps: &[AspProfile], scenarios: &[ScenarioProfile], out: &mut String) {
    use std::fmt::Write as _;
    out.push_str("{\"asps\":[");
    for (i, a) in asps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str(out, a.name);
        let _ = write!(
            out,
            ",\"chans\":{},\"sites\":{},\"bound\":{},\"candidates\":{}}}",
            a.chans, a.sites, a.bound, a.candidates
        );
    }
    out.push_str("],\"scenarios\":[");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str(out, s.name);
        out.push_str(",\"profile\":");
        out.push_str(&s.profile.to_json());
        out.push('}');
    }
    out.push_str("]}");
}

/// Panics on any violated profiler invariant (see the module docs).
fn assert_invariants(scenarios: &[ScenarioProfile]) {
    let mut ranked = 0usize;
    for s in scenarios {
        assert_eq!(
            s.profile.mismatches(),
            0,
            "{}: some dispatch's per-site charges did not sum to its aggregate",
            s.name
        );
        for sc in s.profile.scopes() {
            assert_eq!(
                sc.unknown_sites(),
                0,
                "{}: scope {} observed sites without a static bound",
                s.name,
                sc.key()
            );
        }
        for row in s.profile.heatmap() {
            assert!(
                row.permille <= 1000,
                "{}: site {} of {} at {}‰ of its static bound — per-site cost \
                 analysis unsound",
                s.name,
                row.site,
                row.scope,
                row.permille
            );
        }
        ranked += s.profile.superinstruction_report().lines().count();
    }
    assert!(ranked > 0, "no ranked superinstruction candidates observed");
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let asps = analyze_corpus();
    let scenarios = run_scenarios();
    assert_invariants(&scenarios);

    let mut report = Report::default();
    let out = &mut report.stdout;
    if args.flag("--json") {
        write_json(&asps, &scenarios, out);
        out.push('\n');
    } else {
        for a in &asps {
            outln!(out, "{}", a.verdict_line());
        }
        for s in &scenarios {
            outln!(out, "--- scenario {} ---", s.name);
            out.push_str(&s.profile.render_heatmap());
            let ranked = s.profile.superinstruction_report();
            if ranked.is_empty() {
                outln!(out, "superinstruction candidates: none observed");
            } else {
                out.push_str(&ranked);
            }
        }
    }

    if let Some(path) = args.value("--flame") {
        report
            .files
            .push((path.to_string(), flame_text(&scenarios)));
    }
    if let Some(path) = args.value("--heatmap") {
        let rows = heatmap_json(&scenarios);
        report.files.push((path.to_string(), rows));
    }

    let dispatched: u64 = scenarios
        .iter()
        .flat_map(|s| s.profile.scopes())
        .map(|sc| sc.dispatches)
        .sum();
    outln!(
        report.stderr,
        "{} ASP(s), {} scenario(s), {} profiled dispatch(es)",
        asps.len(),
        scenarios.len(),
        dispatched
    );
    report.baseline = Some(baseline_text(&asps, &scenarios));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_sites_bounds_and_candidates() {
        let asps = analyze_corpus();
        assert_eq!(asps.len(), bundled_asps().len());
        for a in &asps {
            assert!(a.chans > 0 && a.sites > 0 && a.bound > 0, "{}", a.name);
        }
        // The load-balancing gateways are table-lookup-and-forward
        // machines: the candidate scan must see them.
        let gw = asps.iter().find(|a| a.name == "http_gateway").unwrap();
        assert!(gw.candidates > 0, "gateway has no superinstruction shapes");
    }
}
