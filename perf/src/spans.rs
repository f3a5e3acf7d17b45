//! Benchmark-side spans: wrappers that time every call into a layer
//! from outside, an in-memory span log, and self-time accounting.
//!
//! Nothing inside the libraries is instrumented. A [`TimedHook`] wraps
//! any [`PacketHook`] (the PLAN-P layer, a native relay) and a
//! [`TimedApp`] wraps any [`App`]; each call becomes one span whose
//! parent is whatever span was open when it started (the rep span, or
//! an enclosing hook call). Spans stay in a preallocated vector until
//! the rep ends.

use netsim::packet::Packet;
use netsim::{App, ArrivalMeta, HookVerdict, NodeApi, PacketHook};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The layer a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole rep (root span); its self time is `netsim`'s.
    Rep,
    /// A packet hook call (`PlanpLayer::on_packet` and everything
    /// under it that no wrapper can reach: conversion, VM, profiler).
    Runtime,
    /// A traffic application callback.
    Apps,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "netsim",
            Layer::Runtime => "runtime",
            Layer::Apps => "apps",
        }
    }
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// A monotonic tick count for span boundaries. Two `Instant::now()`
/// calls per span cost a tenth of a `relay_grid` rep (about 80 ns each
/// inside the event loop); the time-stamp counter costs a tenth of
/// that. [`SpanLog::close`] converts ticks to nanoseconds against
/// `Instant` over the whole life of the log.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter register and touches no memory.
    // The intrinsic is `unsafe` only because an operating system may
    // make user-mode reads trap (CR4.TSD), which ends the process with
    // a signal rather than misbehaving; Linux leaves them enabled
    // unless the process itself asks otherwise through `prctl`.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span. Times are ticks while the log is open and
/// nanoseconds since the log was opened once it is closed.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub layer: Layer,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// Trace the packet belongs to (`lineage.trace`, or the packet id
    /// before the first stamp); 0 for spans not tied to a packet.
    pub trace: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log of one rep, plus the packets captured for
/// offline stage replay.
pub struct SpanLog {
    origin: Instant,
    origin_ticks: u64,
    pub spans: Vec<SpanRec>,
    current: u32,
    /// Up to `capture_cap` packets as the hooks saw them arrive.
    pub captured: Vec<Packet>,
    capture_cap: usize,
}

pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    /// A log with room for `cap` spans that keeps the first
    /// `capture_cap` hook packets.
    pub fn shared(cap: usize, capture_cap: usize) -> SharedLog {
        // Written once and emptied, so that the pages are resident
        // before the rep starts: a first touch inside the rep is a page
        // fault charged to whichever span happens to be open.
        let filler = SpanRec {
            layer: Layer::Rep,
            node: 0,
            start_ns: 1,
            end_ns: 1,
            parent: NO_PARENT,
            trace: 1,
        };
        let mut spans = vec![filler; cap];
        spans.clear();
        Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            origin_ticks: ticks(),
            spans,
            current: NO_PARENT,
            captured: Vec::with_capacity(capture_cap),
            capture_cap,
        }))
    }

    /// Ends recording: converts every boundary from ticks to
    /// nanoseconds since the log was opened. Call once, after the last
    /// span has been closed.
    pub fn close(&mut self) {
        let ns = self.origin.elapsed().as_nanos() as f64;
        let per_tick = ns / ticks().saturating_sub(self.origin_ticks).max(1) as f64;
        let origin = self.origin_ticks;
        for s in &mut self.spans {
            s.start_ns = (s.start_ns.saturating_sub(origin) as f64 * per_tick) as u64;
            s.end_ns = (s.end_ns.saturating_sub(origin) as f64 * per_tick) as u64;
        }
    }

    /// Opens a span under the currently open one and makes it current.
    pub fn enter(&mut self, layer: Layer, node: u32, trace: u64) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = ticks();
        self.spans.push(SpanRec {
            layer,
            node,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            trace,
        });
        self.current = idx;
        idx
    }

    /// Closes span `idx` and makes its parent current again.
    pub fn exit(&mut self, idx: u32) {
        let end_ns = ticks();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    fn capture(&mut self, pkt: &Packet) {
        if self.captured.len() < self.capture_cap {
            self.captured.push(pkt.clone());
        }
    }
}

/// Per-span self time: duration minus the part covered by direct
/// children (clipped to the parent's interval). Children of one parent
/// never overlap each other, because the program is single-threaded.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let lo = s.start_ns.max(p.start_ns);
        let hi = s.end_ns.min(p.end_ns);
        covered[s.parent as usize] += hi.saturating_sub(lo);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self time summed per layer, as `(layer, spans, self_ns)`.
pub fn self_time_by_layer(spans: &[SpanRec]) -> Vec<(Layer, u64, u64)> {
    let selfs = self_times(spans);
    [Layer::Rep, Layer::Runtime, Layer::Apps]
        .into_iter()
        .map(|layer| {
            let (n, ns) = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.layer == layer)
                .fold((0, 0), |(n, ns), (_, d)| (n + 1, ns + d));
            (layer, n, ns)
        })
        .collect()
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[SpanRec], out: &mut impl std::io::Write) -> std::io::Result<()> {
    let mut line = String::new();
    for (i, s) in spans.iter().enumerate() {
        line.clear();
        let _ = write!(
            line,
            "{{\"span\":{i},\"layer\":\"{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.layer.name(),
            s.node,
            s.start_ns,
            s.end_ns
        );
        if s.parent == NO_PARENT {
            line.push_str("null");
        } else {
            let _ = write!(line, "{}", s.parent);
        }
        let _ = writeln!(line, ",\"trace\":{}}}", s.trace);
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Wraps a packet hook so that every call is one `runtime` span.
pub struct TimedHook<H: PacketHook> {
    pub inner: H,
    pub log: SharedLog,
}

impl<H: PacketHook> PacketHook for TimedHook<H> {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict {
        let trace = if pkt.lineage.trace != 0 {
            pkt.lineage.trace
        } else {
            pkt.id
        };
        // The borrow ends before the inner call: a hook can deliver
        // locally, which re-enters the log through a `TimedApp`.
        let idx = {
            let mut log = self.log.borrow_mut();
            log.capture(&pkt);
            log.enter(Layer::Runtime, api.node_id().0 as u32, trace)
        };
        let verdict = self.inner.on_packet(api, pkt, meta);
        self.log.borrow_mut().exit(idx);
        verdict
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let idx = self
            .log
            .borrow_mut()
            .enter(Layer::Runtime, api.node_id().0 as u32, 0);
        self.inner.on_timer(api, key);
        self.log.borrow_mut().exit(idx);
    }
}

/// Wraps an application so that every callback is one `apps` span.
pub struct TimedApp<A: App> {
    pub inner: A,
    pub log: SharedLog,
}

impl<A: App> TimedApp<A> {
    fn span<R>(
        &mut self,
        api: &mut NodeApi<'_>,
        trace: u64,
        f: impl FnOnce(&mut A, &mut NodeApi<'_>) -> R,
    ) -> R {
        let idx = self
            .log
            .borrow_mut()
            .enter(Layer::Apps, api.node_id().0 as u32, trace);
        let r = f(&mut self.inner, api);
        self.log.borrow_mut().exit(idx);
        r
    }
}

impl<A: App> App for TimedApp<A> {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.span(api, 0, |a, api| a.on_start(api));
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let trace = if pkt.lineage.trace != 0 {
            pkt.lineage.trace
        } else {
            pkt.id
        };
        self.span(api, trace, |a, api| a.on_packet(api, pkt));
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        self.span(api, 0, |a, api| a.on_timer(api, key));
    }

    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        self.span(api, 0, |a, api| a.on_restart(api));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec {
            layer,
            node: 0,
            start_ns,
            end_ns,
            parent,
            trace: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,1000]
        //   hook [100,400]
        //     app [150,250]      (nested: charged to the hook, not the rep)
        //   app  [500,600]
        //   hook [900,1100]      (runs past the rep's end: clipped)
        let spans = vec![
            span(Layer::Rep, 0, 1000, NO_PARENT),
            span(Layer::Runtime, 100, 400, 0),
            span(Layer::Apps, 150, 250, 1),
            span(Layer::Apps, 500, 600, 0),
            span(Layer::Runtime, 900, 1100, 0),
        ];
        assert_eq!(self_times(&spans), vec![500, 200, 100, 100, 200]);
        let by = self_time_by_layer(&spans);
        assert_eq!(by[0], (Layer::Rep, 1, 500));
        assert_eq!(by[1], (Layer::Runtime, 2, 400));
        assert_eq!(by[2], (Layer::Apps, 2, 200));
    }

    #[test]
    fn log_tracks_the_open_span_as_parent() {
        let log = SpanLog::shared(8, 0);
        let mut l = log.borrow_mut();
        let rep = l.enter(Layer::Rep, 0, 0);
        let hook = l.enter(Layer::Runtime, 3, 77);
        let app = l.enter(Layer::Apps, 3, 77);
        l.exit(app);
        l.exit(hook);
        let app2 = l.enter(Layer::Apps, 4, 0);
        l.exit(app2);
        l.exit(rep);
        l.close();
        // Closed spans are in nanoseconds since the log opened (raw
        // ticks of a counter faster than 1 GHz would overshoot this).
        assert!(u128::from(l.spans[0].end_ns) <= l.origin.elapsed().as_nanos());
        let parents: Vec<u32> = l.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, rep, hook, rep]);
        assert!(l.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(l.spans[1].trace, 77);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![
            span(Layer::Rep, 0, 10, NO_PARENT),
            span(Layer::Runtime, 1, 5, 0),
        ];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("layer").unwrap().as_str(), Some("netsim"));
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
    }
}
