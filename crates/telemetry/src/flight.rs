//! Always-on per-node flight recorder: a bounded ring of the most
//! recent notable events at every node, kept regardless of trace
//! configuration. When a node crashes — or an SLO rule breaches — the
//! ring is frozen into a [`FlightDump`]: the post-mortem window that
//! tells you what the node saw in its final moments, even when tracing
//! was off or the trace was sampled out.
//!
//! Events are deliberately compact (32 bytes, `Copy`, no strings): the
//! recorder runs on every packet at 100k+ nodes, so the per-event cost
//! must stay at a ring push. Detail codes are small integers decoded at
//! render time (the inverse of [`DropReason::index`] for drops).

use crate::event::DropReason;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// What kind of moment a flight-recorder entry captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A local delivery (`detail` = app index).
    Deliver,
    /// A node-level drop (`detail` = [`DropReason::index`]).
    Drop,
    /// An uncaught ASP exception (fail-open).
    Exception,
    /// An injected fault touched this node.
    Fault,
    /// The node crashed (soft-state lost).
    Crash,
    /// The node restarted.
    Restart,
}

impl FlightKind {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Deliver => "deliver",
            FlightKind::Drop => "drop",
            FlightKind::Exception => "exception",
            FlightKind::Fault => "fault",
            FlightKind::Crash => "crash",
            FlightKind::Restart => "restart",
        }
    }
}

/// One compact flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The packet involved (0 = none).
    pub pkt: u64,
    /// Kind-specific detail code (see [`FlightKind`]).
    pub detail: u32,
}

impl FlightEvent {
    /// The human decoding of the detail code.
    pub(crate) fn detail_name(&self) -> String {
        match self.kind {
            FlightKind::Drop => DropReason::from_index(self.detail)
                .map(|r| r.name().to_string())
                .unwrap_or_else(|| self.detail.to_string()),
            FlightKind::Deliver => format!("app{}", self.detail),
            _ => String::from("-"),
        }
    }
}

/// A frozen post-mortem window for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The node whose ring was frozen.
    pub node: u32,
    /// When the dump was taken.
    pub t_ns: u64,
    /// Why ("crash", or the breaching rule's name).
    pub cause: String,
    /// Overload posture at dump time (brownout level, non-closed
    /// breakers), empty when the owner has no overload machinery.
    pub state: String,
    /// The ring contents, oldest first.
    pub events: Vec<FlightEvent>,
}

/// Per-node rings plus the dumps taken so far.
///
/// Rings grow lazily with the highest node index seen; capacity is
/// fixed per node so total memory is `nodes × capacity × 32 B` —
/// 100 MB at 100k nodes, linear and bounded.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    rings: Vec<VecDeque<FlightEvent>>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// The per-node window: 32 events.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Appends one entry to `node`'s ring, evicting the oldest when
    /// full.
    #[inline]
    pub fn record(&mut self, node: u32, ev: FlightEvent) {
        let i = node as usize;
        if i >= self.rings.len() {
            self.rings.resize_with(i + 1, VecDeque::new);
        }
        let r = &mut self.rings[i];
        if r.len() == Self::DEFAULT_CAPACITY {
            r.pop_front();
        }
        r.push_back(ev);
    }

    /// The current ring contents for `node`, oldest first.
    pub fn window(&self, node: u32) -> impl Iterator<Item = &FlightEvent> {
        self.rings
            .get(node as usize)
            .into_iter()
            .flat_map(|r| r.iter())
    }

    /// Freezes `node`'s current window into a dump stamped with the
    /// overload posture (brownout level / breaker states) at dump time,
    /// so post-mortems show what degradation stage the node was in.
    pub fn dump_with_state(&mut self, node: u32, t_ns: u64, cause: &str, state: &str) {
        let events = self.window(node).copied().collect();
        self.dumps.push(FlightDump {
            node,
            t_ns,
            cause: cause.to_string(),
            state: state.to_string(),
            events,
        });
    }

    /// The dumps taken so far, in capture order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Renders every dump as a byte-stable text block. `nodes` supplies
    /// display names by node index.
    pub fn render_dumps(&self, nodes: &[String]) -> String {
        let mut out = String::new();
        for d in &self.dumps {
            let name = nodes
                .get(d.node as usize)
                .cloned()
                .unwrap_or_else(|| format!("n{}", d.node));
            let state = if d.state.is_empty() {
                String::new()
            } else {
                format!(" state={}", d.state)
            };
            let _ = writeln!(
                out,
                "flight dump  node={name} t_us={} cause={} events={}{state}",
                d.t_ns / 1000,
                d.cause,
                d.events.len()
            );
            for e in &d.events {
                let _ = writeln!(
                    out,
                    "  {:>12}  {:<9} pkt={} {}",
                    e.t_ns / 1000,
                    e.kind.name(),
                    e.pkt,
                    e.detail_name()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            t_ns: t,
            kind,
            pkt: t,
            detail: 0,
        }
    }

    #[test]
    fn ring_is_bounded_per_node() {
        let mut f = FlightRecorder::default();
        for t in 0..40 {
            f.record(2, ev(t, FlightKind::Deliver));
        }
        let w: Vec<u64> = f.window(2).map(|e| e.t_ns).collect();
        assert_eq!(w, (8..40).collect::<Vec<u64>>());
        assert_eq!(f.window(0).count(), 0, "untouched node has empty window");
    }

    #[test]
    fn dump_freezes_the_window() {
        let mut f = FlightRecorder::default();
        f.record(1, ev(5, FlightKind::Drop));
        f.record(1, ev(6, FlightKind::Crash));
        f.dump_with_state(1, 7, "crash", "");
        // Later traffic doesn't alter the frozen dump.
        f.record(1, ev(8, FlightKind::Restart));
        assert_eq!(f.dumps().len(), 1);
        let d = &f.dumps()[0];
        assert_eq!((d.node, d.t_ns, d.cause.as_str()), (1, 7, "crash"));
        assert_eq!(d.events.len(), 2);
        let text = f.render_dumps(&["a".into(), "relay".into()]);
        assert!(text.contains("node=relay") && text.contains("crash"));
        assert_eq!(text, f.render_dumps(&["a".into(), "relay".into()]));
    }

    #[test]
    fn state_stamp_renders_only_when_present() {
        let mut f = FlightRecorder::default();
        f.record(0, ev(1, FlightKind::Crash));
        f.dump_with_state(0, 2, "crash", "brownout=2 breakers=b1:open");
        f.dump_with_state(0, 3, "slo", "");
        let text = f.render_dumps(&["gw".into()]);
        assert!(text.contains("cause=crash events=1 state=brownout=2 breakers=b1:open"));
        assert!(text.contains("cause=slo events=1\n"));
    }

    #[test]
    fn drop_details_decode() {
        let e = FlightEvent {
            t_ns: 1,
            kind: FlightKind::Drop,
            pkt: 9,
            detail: DropReason::TtlExpired.index(),
        };
        assert_eq!(e.detail_name(), "ttl_expired");
    }
}
