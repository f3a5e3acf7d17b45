//! Ablation: audio bandwidth-adaptation policies (paper section 3.1:
//! "strategies can be quickly developed and experimented with" — the
//! PLAN-P program in the experiment was written in one day).
//!
//! ```text
//! planp adaptation-policies
//! ```

use crate::{push_bench, render_table, CliArgs, Report};
use planp_apps::audio::{
    run_audio_traced, Adaptation, AudioConfig, LoadPhase, AUDIO_ROUTER_ASP,
    AUDIO_ROUTER_HYSTERESIS_ASP, AUDIO_ROUTER_QUEUE_ASP,
};
use planp_telemetry::{MetricsSnapshot, TraceConfig};

fn run_policy(
    router_src: Option<&'static str>,
    kbps: u64,
) -> (planp_apps::audio::AudioResult, MetricsSnapshot) {
    let (r, _telemetry, metrics) = run_audio_traced(
        &AudioConfig {
            adaptation: Adaptation::AspJit,
            phases: vec![LoadPhase {
                from_s: 5.0,
                to_s: 90.0,
                kbps,
            }],
            jitter_pct: 6,
            duration_s: 90,
            seed: 7,
            router_src,
            dual_segment: false,
            segment_faults: None,
        },
        TraceConfig::default(),
    );
    (r, metrics)
}

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(
        out,
        "Audio adaptation policies under medium (7750 kb/s) and large (9560 kb/s) load\n"
    );

    let policies: [(&str, Option<&'static str>); 3] = [
        ("utilization (paper's)", None),
        ("hysteresis", Some(AUDIO_ROUTER_HYSTERESIS_ASP)),
        ("queue length", Some(AUDIO_ROUTER_QUEUE_ASP)),
    ];

    let mut scalars: Vec<(String, f64)> = Vec::new();
    let mut paper_metrics = MetricsSnapshot::default();
    for (label, kbps) in [("medium", 7750u64), ("large", 9560)] {
        let mut rows = Vec::new();
        for (name, src) in policies {
            let (r, metrics) = run_policy(src, kbps);
            let key = name.split_whitespace().next().unwrap_or(name);
            scalars.push((format!("{key}_{label}_kbps"), r.avg_kbps(10.0, 90.0)));
            scalars.push((
                format!("{key}_{label}_flaps"),
                r.stats.format_changes as f64,
            ));
            if src.is_none() && kbps == 9560 {
                paper_metrics = metrics;
            }
            rows.push(vec![
                name.to_string(),
                format!("{:.0}", r.avg_kbps(10.0, 90.0)),
                r.stats.format_changes.to_string(),
                r.stats.gaps.to_string(),
                r.segment_drops.to_string(),
            ]);
        }
        outln!(out, "{label} load:");
        outln!(
            out,
            "{}",
            render_table(
                &["policy", "audio kb/s", "format flaps", "gaps", "drops"],
                &rows
            )
        );
    }
    outln!(
        out,
        "expected shape: hysteresis trades a little bandwidth for far fewer format"
    );
    outln!(
        out,
        "flaps at medium load; all policies protect playback under large load."
    );

    // Line counts: writing a new policy is a ~40-line affair (the
    // paper's one-day-turnaround claim).
    for (name, src) in [
        ("utilization", AUDIO_ROUTER_ASP),
        ("hysteresis", AUDIO_ROUTER_HYSTERESIS_ASP),
        ("queue", AUDIO_ROUTER_QUEUE_ASP),
    ] {
        outln!(
            out,
            "  {name}: {} lines of PLAN-P",
            planp_lang::count_lines(src)
        );
    }

    push_bench(
        &mut report,
        args,
        "adaptation_policies_table",
        &scalars,
        &paper_metrics,
    );
    Ok(report)
}
