//! Regenerates the paper's **figure 3**: code generation time for the
//! five PLAN-P programs, side by side with the paper's 1998 numbers.
//!
//! ```text
//! planp fig3
//! ```

use crate::{paper_programs, push_bench, render_table, CliArgs, Report, PAPER_FIG3};
use planp_apps::plans::{bundled_plans, load_bundled_plan};
use planp_lang::{compile_front, count_lines};
use planp_telemetry::MetricsSnapshot;
use planp_vm::jit;
use std::rc::Rc;
use std::time::Instant;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock microseconds of `f` over 51 calls.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..51)
            .map(|_| {
                let t = Instant::now();
                let out = f();
                let dt = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(out);
                dt
            })
            .collect(),
    )
}

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(out, "Figure 3 — code generation time for PLAN-P programs");
    outln!(
        out,
        "(paper: Tempo template assembly on a 1998 SPARC; ours: register-bytecode JIT)\n"
    );

    let mut rows = Vec::new();
    let mut ours = Vec::new();
    let mut analyses = Vec::new();
    for (i, (name, src, policy)) in paper_programs().into_iter().enumerate() {
        let prog = Rc::new(compile_front(src).expect("front end"));
        // Median of repeated compilations.
        let codegen_us = median_us(|| jit::compile(prog.clone()));
        // The rest of the download path — the front end, and the verifier
        // the paper designed but had not implemented — alongside.
        let front_us = median_us(|| compile_front(src));
        let verify_us =
            median_us(|| planp_analysis::verify(&prog, planp_analysis::Policy::authenticated()));
        if args.flag("--report") {
            let report = planp_analysis::verify(&prog, policy);
            analyses.push(format!("--- analysis: {name} ---\n{report}\n"));
        }
        let (_, _, paper_lines, paper_ms) = PAPER_FIG3[i];
        let lines = count_lines(src);
        ours.push((lines as f64, codegen_us));
        rows.push(vec![
            name.to_string(),
            lines.to_string(),
            format!("{codegen_us:.1}"),
            format!("{front_us:.1}"),
            format!("{verify_us:.1}"),
            paper_lines.to_string(),
            format!("{paper_ms:.1}"),
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(
            &[
                "program",
                "lines",
                "codegen (us)",
                "front (us)",
                "verify (us)",
                "paper lines",
                "paper codegen (ms)"
            ],
            &rows
        )
    );

    // Shape check: generation time should grow with program size, as in
    // the paper (the correlation of lines vs time should be positive).
    let n = ours.len() as f64;
    let (sx, sy): (f64, f64) = ours
        .iter()
        .fold((0.0, 0.0), |a, &(x, y)| (a.0 + x, a.1 + y));
    let (mx, my) = (sx / n, sy / n);
    let cov: f64 = ours.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = ours.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    let vy: f64 = ours.iter().map(|&(_, y)| (y - my) * (y - my)).sum();
    let corr = cov / (vx.sqrt() * vy.sqrt());
    outln!(
        out,
        "lines-vs-time correlation: {corr:.2} (paper's table implies strong positive)"
    );

    // A plan is a download too: its topology, the front end of every ASP
    // it deploys, placement and the product check, in one call.
    let plans = bundled_plans()
        .into_iter()
        .map(|(name, _)| {
            let image = load_bundled_plan(name).expect("bundled plan loads");
            let load_us = median_us(|| load_bundled_plan(name));
            vec![
                name.to_string(),
                image.check.topo.nodes.len().to_string(),
                image.placements.len().to_string(),
                image.report.states.to_string(),
                format!("{load_us:.1}"),
            ]
        })
        .collect::<Vec<_>>();
    outln!(
        out,
        "\n{}",
        render_table(
            &[
                "plan",
                "nodes",
                "installs",
                "product states",
                "load_plan (us)"
            ],
            &plans
        )
    );

    for a in &analyses {
        out.push_str(a);
    }

    // `--report` also sweeps the exhaustive model checker over every
    // bundled ASP, printing each one's verdicts and explored-state
    // counts (the paper's `r·d·2^d` made concrete per program).
    if args.flag("--report") {
        outln!(out, "--- exhaustive model check: bundled ASPs ---");
        for (name, src, policy) in crate::bundled_asps() {
            let prog = compile_front(src).expect("bundled ASP compiles");
            let report = planp_analysis::verify(&prog, policy);
            let mc = report.exhaustive.as_ref().expect("always Some");
            outln!(
                out,
                "{name}: termination {}, delivery {} ({} state(s), {} transition(s))",
                mc.termination.as_str(),
                mc.delivery.as_str(),
                mc.states,
                mc.transitions
            );
        }
    }

    // No simulator runs here — only wall-clock codegen scalars (which
    // vary by machine; the JSON is for trend tracking, not determinism).
    let scalars: Vec<(String, f64)> = paper_programs()
        .iter()
        .zip(&ours)
        .map(|((name, _, _), &(_lines, us))| {
            let key = name
                .to_lowercase()
                .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
            (format!("{key}_codegen_us"), us)
        })
        .collect();
    push_bench(
        &mut report,
        args,
        "fig3_codegen_table",
        &scalars,
        &MetricsSnapshot::default(),
    );
    Ok(report)
}
