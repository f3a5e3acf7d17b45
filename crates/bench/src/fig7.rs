//! Regenerates the paper's **figure 7**: the number of silent periods
//! in audio playback, with and without adaptation, across load levels.
//!
//! ```text
//! planp fig7
//! ```

use crate::{push_bench, render_table, CliArgs, Report};
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig, LoadPhase};
use planp_telemetry::{MetricsSnapshot, TraceConfig};

fn run_load(adaptation: Adaptation, kbps: u64) -> (u64, u64, f64, MetricsSnapshot) {
    let cfg = AudioConfig {
        adaptation,
        phases: if kbps == 0 {
            vec![]
        } else {
            vec![LoadPhase {
                from_s: 5.0,
                to_s: 120.0,
                kbps,
            }]
        },
        jitter_pct: 4,
        duration_s: 120,
        seed: 7,
        router_src: None,
        dual_segment: false,
        segment_faults: None,
    };
    let (r, _telemetry, metrics) = run_audio_traced(&cfg, TraceConfig::default());
    (
        r.stats.gaps,
        r.segment_drops,
        r.avg_kbps(10.0, 120.0),
        metrics,
    )
}

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(out, "Figure 7 — silent periods during 120 s of playback");
    outln!(out, "(paper: adaptation greatly reduces gaps under load)\n");

    // Load levels paralleling the paper's configurations. The \"large\"
    // level oversubscribes the segment once full-quality audio is added,
    // which is the regime where adaptation pays off.
    let levels = [
        ("no load", 0u64),
        ("small load", 6200),
        ("medium load", 7750),
        ("large load", 9560),
    ];

    let mut rows = Vec::new();
    let mut scalars: Vec<(String, f64)> = Vec::new();
    let mut large_load_metrics = MetricsSnapshot::default();
    for (name, kbps) in levels {
        let (gaps_on, drops_on, bw_on, metrics) = run_load(Adaptation::AspJit, kbps);
        let (gaps_native, _, _, _) = run_load(Adaptation::Native, kbps);
        let (gaps_off, drops_off, bw_off, _) = run_load(Adaptation::Off, kbps);
        let key = name.replace(' ', "_");
        scalars.push((format!("{key}_gaps_asp"), gaps_on as f64));
        scalars.push((format!("{key}_gaps_native"), gaps_native as f64));
        scalars.push((format!("{key}_gaps_off"), gaps_off as f64));
        if kbps == 9560 {
            large_load_metrics = metrics;
        }
        rows.push(vec![
            name.to_string(),
            gaps_on.to_string(),
            gaps_native.to_string(),
            gaps_off.to_string(),
            format!("{bw_on:.0}"),
            format!("{bw_off:.0}"),
            drops_on.to_string(),
            drops_off.to_string(),
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(
            &[
                "load",
                "gaps ASP",
                "gaps native",
                "gaps off",
                "kb/s ASP",
                "kb/s off",
                "drops ASP",
                "drops off",
            ],
            &rows
        )
    );
    outln!(
        out,
        "expected shape: gaps(ASP) ≈ gaps(native) << gaps(off) at large load;"
    );
    outln!(
        out,
        "ASP bandwidth drops to the degraded rate under load, no-adaptation stays at ~177 kb/s."
    );

    push_bench(
        &mut report,
        args,
        "fig7_audio_gaps",
        &scalars,
        &large_load_metrics,
    );
    Ok(report)
}
