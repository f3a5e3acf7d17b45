//! Regenerates the **section 3.3** result: the point-to-point MPEG
//! server turned multipoint — server egress stays at one stream while
//! the number of viewers grows, and every viewer still receives the
//! video.
//!
//! ```text
//! planp mpeg-sharing
//! ```

use crate::{push_bench, render_table, CliArgs, Report};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};
use planp_telemetry::{MetricsSnapshot, TraceConfig};

pub(crate) fn run(args: &CliArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let out = &mut report.stdout;
    outln!(
        out,
        "Section 3.3 — multipoint MPEG delivery from a point-to-point server\n"
    );

    let mut rows = Vec::new();
    let mut scalars: Vec<(String, f64)> = Vec::new();
    let mut last_asp_metrics = MetricsSnapshot::default();
    for clients in 1..=4usize {
        for use_asps in [false, true] {
            let (r, _telemetry, metrics) =
                run_mpeg_traced(&MpegConfig::new(clients, use_asps), TraceConfig::default());
            let mode = if use_asps { "asps" } else { "direct" };
            scalars.push((format!("{mode}_{clients}_streams"), r.server.streams as f64));
            scalars.push((
                format!("{mode}_{clients}_uplink_mb"),
                r.uplink_bytes as f64 / 1e6,
            ));
            if use_asps {
                last_asp_metrics = metrics;
            }
            let min_frames = r.clients.iter().map(|c| c.frames).min().unwrap_or(0);
            let shared = r.clients.iter().filter(|c| c.shared).count();
            rows.push(vec![
                clients.to_string(),
                if use_asps { "ASPs" } else { "direct" }.to_string(),
                r.server.streams.to_string(),
                format!("{:.1}", r.server.video_bytes as f64 / 1e6),
                format!("{:.1}", r.uplink_bytes as f64 / 1e6),
                min_frames.to_string(),
                shared.to_string(),
            ]);
        }
    }
    outln!(
        out,
        "{}",
        render_table(
            &[
                "viewers",
                "mode",
                "server streams",
                "video MB sent",
                "uplink MB",
                "min frames/viewer",
                "viewers sharing",
            ],
            &rows
        )
    );
    outln!(
        out,
        "expected shape: with ASPs the server always opens exactly 1 stream and its"
    );
    outln!(
        out,
        "egress is flat in the number of viewers; direct mode scales linearly."
    );

    push_bench(
        &mut report,
        args,
        "mpeg_sharing_table",
        &scalars,
        &last_asp_metrics,
    );
    Ok(report)
}
