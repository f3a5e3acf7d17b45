//! Deterministic observability for the PLAN-P stack.
//!
//! The paper's evaluation (Figures 6–8) is entirely measurement-driven:
//! bandwidth observed at the IP layer, gap counts, request latency. This
//! crate gives the reproduction a first-class measurement substrate:
//!
//! * [`TraceLog`] — a bounded ring buffer of typed [`TraceEvent`]s
//!   (link enqueue/tx/drop, hop-by-hop forwards, deliveries, channel
//!   dispatch outcomes, ASP exceptions, timer fires), each stamped with
//!   simulation time in nanoseconds, a node index, and a monotonically
//!   assigned packet id. Per-[`Category`] enable flags keep the packet
//!   hot path allocation-free when tracing is off: call sites guard with
//!   [`TraceLog::wants`] before constructing an event. A variant's
//!   wire form is stated once, as a row of one table in `event.rs`,
//!   which `write_json`, `pkt` and `est_bytes` all read.
//! * [`MetricsRegistry`] — named counters (one slot each, bumped by
//!   name or through a pre-resolved [`CounterId`]) and
//!   power-of-two-bucket [`Histogram`]s, every export of them in name
//!   order.
//! * [`ProfileRegistry`] — per-site VM step profiles joined against the
//!   static per-site cost bounds: collapsed-flame, utilization-heatmap
//!   and superinstruction-candidate exports, with `1/N` sampling and a
//!   step budget for graceful degradation at scale.
//! * Exporters — [`MetricsSnapshot::to_json`] / [`TraceLog::to_jsonl`]
//!   produce byte-stable JSON (same seed ⇒ identical bytes, asserted by
//!   the workspace determinism tests), and [`MetricsSnapshot::render_table`]
//!   produces the human `--report` form used by the `planp` subcommands.
//!
//! Everything here is simulation-clock based; no wall-clock reads, no
//! hashing with randomized state, no platform-dependent formatting.

#![deny(unreachable_pub)]
pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod overload;
pub mod profile;
mod ring;
pub mod span;

pub use event::{
    BreakerState, Category, DispatchOutcome, DropReason, SpanOrigin, TraceConfig, TraceEvent,
    TraceLog, TraceOverhead,
};
pub use export::{chrome_trace, prometheus};
pub use flight::{FlightDump, FlightEvent, FlightKind, FlightRecorder};
pub use metrics::{CounterId, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use monitor::{CounterSel, HealthMonitor, HealthSample, SloRule};
pub use overload::{BrownoutController, OverloadState};
pub use profile::{HeatmapRow, ProfileRegistry, ScopeId, ScopeProfile, ScopeShape};
pub use span::{CriticalHop, Span, TraceForest};

/// The telemetry bundle a simulator instance carries: one event log,
/// one metrics registry, and one flight recorder, all deterministic.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Structured event ring buffer.
    pub trace: TraceLog,
    /// Named counters and histograms.
    pub metrics: MetricsRegistry,
    /// Always-on per-node post-mortem rings.
    pub flight: FlightRecorder,
    /// Display names by node index, recorded as nodes are added — lets
    /// span-tree renderers and the Chrome exporter name rows without
    /// re-threading the topology.
    pub nodes: Vec<String>,
    /// Per-site execution profiles (the always-on VM profiler).
    pub profile: ProfileRegistry,
    /// Current overload posture: brownout level + breaker states.
    pub overload: OverloadState,
}
