//! Regenerates the paper's **figure 6**: audio bandwidth over time
//! under the four-phase load schedule (none → large at 100 s → medium
//! at 220 s → small at 340 s).
//!
//! ```text
//! planp fig6
//! ```

use crate::{push_bench, render_table, CliArgs, Report};
use planp_apps::audio::{run_audio, run_audio_traced, Adaptation, AudioConfig, LoadPhase};
use planp_telemetry::TraceConfig;

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(
        out,
        "Figure 6 — measured audio bandwidth vs time (ASP adaptation in the router)"
    );
    outln!(
        out,
        "paper: 176 kb/s -> 44 kb/s at t=100s -> 44-88 kb/s at t=220s -> 88 kb/s at t=340s\n"
    );

    let cfg = AudioConfig::figure6(Adaptation::AspJit);
    let (r, _telemetry, metrics) = run_audio_traced(&cfg, TraceConfig::default());

    // Ten-second buckets of the per-second series.
    let mut rows = Vec::new();
    for t0 in (0..460).step_by(10) {
        let avg = r.avg_kbps(t0 as f64, (t0 + 10) as f64);
        let phase = match t0 {
            0..=99 => "no load",
            100..=219 => "large load",
            220..=339 => "medium load",
            _ => "small load",
        };
        let bar = "#".repeat((avg / 6.0) as usize);
        rows.push(vec![
            format!("{t0}-{}", t0 + 10),
            format!("{avg:.0}"),
            phase.to_string(),
            bar,
        ]);
    }
    outln!(
        out,
        "{}",
        render_table(&["t (s)", "audio kb/s", "phase", ""], &rows)
    );

    let phases = [
        ("no load (0-100s)", r.avg_kbps(10.0, 100.0), 176.0),
        ("large load (100-220s)", r.avg_kbps(110.0, 220.0), 44.0),
        ("medium load (220-340s)", r.avg_kbps(230.0, 340.0), 66.0),
        ("small load (340-460s)", r.avg_kbps(350.0, 460.0), 88.0),
    ];
    outln!(
        out,
        "phase averages (paper's nominal rates shown for reference):"
    );
    for (name, got, paper) in phases {
        outln!(
            out,
            "  {name:>24}: {got:6.1} kb/s   (paper: ~{paper:.0} kb/s)"
        );
    }
    outln!(
        out,
        "\nclient frames: {}   gaps: {}   segment drops: {}",
        r.stats.frames,
        r.stats.gaps,
        r.segment_drops
    );
    outln!(
        out,
        "frames by wire format [16-bit stereo, 16-bit mono, 8-bit mono]: {:?}",
        r.stats.by_format
    );
    let (frames, gaps, segment_drops) = (r.stats.frames, r.stats.gaps, r.segment_drops);

    // Figure 5's per-segment claim: while one segment is overloaded and
    // its audio degraded, a quiet segment behind another router keeps
    // full quality ("audio clients in IRISA may still receive
    // high-quality audio").
    outln!(out, "\nper-segment adaptation (figure 5):");
    let r = run_audio(&AudioConfig {
        adaptation: Adaptation::AspJit,
        phases: vec![LoadPhase {
            from_s: 10.0,
            to_s: 60.0,
            kbps: 9450,
        }],
        jitter_pct: 0,
        duration_s: 60,
        seed: 3,
        router_src: None,
        dual_segment: true,
        segment_faults: None,
    });
    let quiet: Vec<f64> = r
        .rx_kbps_b
        .iter()
        .filter(|&&(t, _)| (15.0..60.0).contains(&t))
        .map(|&(_, v)| v)
        .collect();
    let quiet_avg = quiet.iter().sum::<f64>() / quiet.len().max(1) as f64;
    outln!(
        out,
        "  loaded segment client: {:>5.0} kb/s   (degraded to 8-bit mono)",
        r.avg_kbps(15.0, 60.0)
    );
    outln!(
        out,
        "  quiet segment client : {:>5.0} kb/s   (untouched 16-bit stereo)",
        quiet_avg
    );

    push_bench(
        &mut report,
        args,
        "fig6_audio_bandwidth",
        &[
            ("no_load_kbps", phases[0].1),
            ("large_load_kbps", phases[1].1),
            ("medium_load_kbps", phases[2].1),
            ("small_load_kbps", phases[3].1),
            ("frames", frames as f64),
            ("gaps", gaps as f64),
            ("segment_drops", segment_drops as f64),
        ],
        &metrics,
    );
    Ok(report)
}
