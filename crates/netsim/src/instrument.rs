//! The instruments: two histograms the hot path fills without naming a
//! metric, [`Sim::metrics_snapshot`], and the live SLO monitor that
//! judges it, with the brownout controller its windows feed ([`Watch`]).

use crate::digest::Fnv;
use crate::link::Link;
use crate::node::Node;
use crate::sim::Sim;
use crate::time::SimTime;
use planp_telemetry::{
    BrownoutController, Category, HealthMonitor, Histogram, MetricsSnapshot, TraceEvent,
};
use std::fmt::Write;
use std::hash::Hash;
use std::rc::Rc;
use std::slice;

/// The simulator's measurements, beside its clock and fabric.
#[derive(Debug, Default)]
pub struct Instruments {
    /// Link enqueue → transmit complete, ns (`sim.hop_latency_ns`).
    pub(crate) hop_latency: Histogram,
    /// Queue length at every enqueue, per link.
    pub(crate) link_qdepth: Vec<Histogram>,
    /// The live SLO monitor; `None` costs one branch per event.
    pub watch: Option<Watch>,
}

/// A live SLO monitor and what its evaluation windows drive.
#[derive(Debug)]
pub struct Watch {
    /// Judged at every boundary the run reaches.
    pub monitor: HealthMonitor,
    /// Fed one observation per window; level transitions are traced
    /// and mirrored into `telemetry.overload`.
    pub brownout: Option<BrownoutController>,
    /// Set once the first breach has frozen the flight windows: only
    /// the first dumps, so sustained outages keep reports bounded.
    pub(crate) breach_dumped: bool,
}

impl Watch {
    /// A monitor, with the brownout controller its windows feed if any.
    pub fn new(monitor: HealthMonitor, brownout: Option<BrownoutController>) -> Self {
        Watch {
            monitor,
            brownout,
            breach_dumped: false,
        }
    }
}

impl Instruments {
    /// Feeds the histograms and the monitor's, the brownout
    /// controller's and the first-breach flag's state.
    pub(crate) fn digest(&self, h: &mut Fnv) {
        format!("{:?}", (&self.hop_latency, &self.link_qdepth)).hash(h);
        if let Some(w) = &self.watch {
            let m = &w.monitor;
            (m.next_ns(), m.breaches(), format!("{:?}", m.samples())).hash(h);
            w.brownout
                .as_ref()
                .map(|b| (b.level(), b.transitions()))
                .hash(h);
            w.breach_dumped.hash(h);
        }
    }

    /// True when `at` falls before the monitor's next boundary.
    #[inline]
    pub(crate) fn before_next_window(&self, at: SimTime) -> bool {
        (self.watch.as_ref()).is_none_or(|w| at.as_nanos() < w.monitor.next_ns())
    }
}

/// Above this many nodes [`Sim::metrics_snapshot`] reports aggregate
/// `nodes.*` / `links.*` totals instead of one key per node and link.
const COMPACT_METRICS_THRESHOLD: usize = 512;

impl Sim {
    /// Judges the windows `now` has closed, if any.
    #[inline]
    pub(crate) fn monitor_tick(&mut self) {
        let now = self.now.as_nanos();
        if (self.instruments.watch.as_ref()).is_some_and(|w| w.monitor.due(now)) {
            self.judge_windows();
        }
    }

    /// Judges every window the run has closed: emits `health` trace
    /// events, feeds the brownout controller one observation per
    /// window — the first breached rule, or a clean bill of health —
    /// and, on the first breach, freezes the flight-recorder windows of
    /// the monitor's `dump_on_breach` nodes.
    fn judge_windows(&mut self) {
        let Some(mut watch) = self.instruments.watch.take() else {
            return;
        };
        self.settle_all();
        while watch.monitor.due(self.now.as_nanos()) {
            let snap = self.metrics_snapshot();
            let mut qdepth = Histogram::new();
            for h in &self.instruments.link_qdepth {
                qdepth.merge(h);
            }
            let samples = watch.monitor.evaluate(
                &snap,
                &[
                    ("sim.hop_latency_ns", &self.instruments.hop_latency),
                    ("sim.queue_depth", &qdepth),
                ],
            );
            for s in samples.iter().filter(|s| !s.skipped) {
                if self.telemetry.trace.wants(Category::HEALTH) {
                    self.telemetry.trace.push(TraceEvent::Health {
                        t_ns: s.t_ns,
                        rule: Rc::from(s.rule.as_str()),
                        ok: s.ok,
                        value: s.value,
                        threshold: s.threshold,
                    });
                }
            }
            let breach = samples.iter().find(|s| !s.skipped && !s.ok);
            let breach = breach.map(|s| s.rule.clone());
            let t = samples.first().map_or(self.now.as_nanos(), |s| s.t_ns);
            if let Some(bc) = &mut watch.brownout {
                if let Some((from, to, rule)) = bc.observe_window(t, breach.as_deref()) {
                    self.telemetry.overload.brownout_level = to;
                    if self.telemetry.trace.wants(Category::HEALTH) {
                        self.telemetry.trace.push(TraceEvent::Brownout {
                            t_ns: t,
                            from_level: from,
                            to_level: to,
                            rule: Rc::from(rule.as_str()),
                        });
                    }
                }
            }
            if let Some(cause) = breach {
                if !watch.breach_dumped && !watch.monitor.dump_on_breach.is_empty() {
                    watch.breach_dumped = true;
                    let state = self.telemetry.overload.summary();
                    for &n in &watch.monitor.dump_on_breach {
                        self.telemetry.flight.dump_with_state(n, t, &cause, &state);
                    }
                }
            }
        }
        self.instruments.watch = Some(watch);
    }

    /// A deterministic snapshot of every metric the simulator tracks:
    /// per-node delivery/drop counters, per-link transmit/drop counters
    /// and queue-depth histograms, engine totals, and everything
    /// applications or hooks recorded in `telemetry.metrics`.
    ///
    /// Key layout (all counters unless noted):
    ///
    /// - `node.<name>.delivered` / `.dropped` / `.cpu_drops`
    /// - `node.<name>.crashes` / `.state_lost` / `.shed` — when nonzero
    /// - `link<i>.tx_packets` / `.tx_bytes` / `.drops`
    /// - `link<i>.fault_drops` — when nonzero
    /// - `link<i>.queue_depth` — histogram of queue length at enqueue
    /// - `sim.link_drops_total`, `sim.node_drops_total`,
    ///   `sim.events_processed` (logical: a completion, or one copy's
    ///   arrival, counts whether or not it was ever queued),
    ///   `sim.packets`
    /// - `sim.trace_recorded`, `sim.trace_evicted`
    /// - `sim.fault_*` — the [`FaultStats`](crate::FaultStats)
    ///   counters, once any fault has been configured (so clean runs
    ///   keep their key set)
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.telemetry.metrics.snapshot();
        let qdepth = &self.instruments.link_qdepth;
        if self.nodes.len() > COMPACT_METRICS_THRESHOLD {
            // Saturating `nodes.*` / `links.*` sums: a 100k-node
            // snapshot stays a handful of keys instead of 500k.
            snap.set_counter("nodes.count", self.nodes.len() as u64);
            put_counters(&mut snap, &mut "nodes.".into(), &NODE_COUNTERS, &self.nodes);
            snap.set_counter("links.count", self.links.len() as u64);
            put_counters(&mut snap, &mut "links.".into(), &LINK_COUNTERS, &self.links);
            let mut depth = Histogram::new();
            qdepth.iter().for_each(|h| depth.merge(h));
            if depth.count() > 0 {
                snap.set_histogram("links.queue_depth", &depth);
            }
        } else {
            let mut key = String::new();
            for n in &self.nodes {
                key.clear();
                let _ = write!(key, "node.{}.", n.name);
                put_counters(&mut snap, &mut key, &NODE_COUNTERS, slice::from_ref(n));
            }
            for (i, (l, h)) in self.links.iter().zip(qdepth).enumerate() {
                key.clear();
                let _ = write!(key, "link{i}.");
                put_counters(&mut snap, &mut key, &LINK_COUNTERS, slice::from_ref(l));
                if h.count() > 0 {
                    snap.set_histogram(format!("link{i}.queue_depth"), h);
                }
            }
        }
        snap.set_counter("sim.link_drops_total", self.total_link_drops);
        snap.set_counter("sim.node_drops_total", self.total_node_drops);
        snap.set_counter("sim.events_processed", self.events_processed);
        snap.set_counter("sim.packets", self.next_pkt_id);
        snap.set_counter("sim.trace_recorded", self.telemetry.trace.recorded());
        snap.set_counter("sim.trace_evicted", self.telemetry.trace.evicted());
        if self.instruments.hop_latency.count() > 0 {
            snap.set_histogram("sim.hop_latency_ns", &self.instruments.hop_latency);
        }
        let oh = self.telemetry.trace.overhead();
        if oh.sample_n > 1 || oh.sampled_out > 0 || oh.downgrades > 0 {
            snap.set_counter("sim.trace_sampled_out", oh.sampled_out);
            snap.set_counter("sim.trace_downgrades", u64::from(oh.downgrades));
            snap.set_counter("sim.trace_sample_n", u64::from(oh.sample_n));
            snap.set_counter("sim.trace_est_bytes", oh.est_bytes);
        }
        if self.faults.enabled {
            let f = &self.faults.stats;
            snap.set_counter("sim.fault_loss_drops", f.loss_drops);
            snap.set_counter("sim.fault_corrupted", f.corrupted);
            snap.set_counter("sim.fault_duplicated", f.duplicated);
            snap.set_counter("sim.fault_jittered", f.jittered);
            snap.set_counter("sim.fault_link_down_drops", f.link_down_drops);
            snap.set_counter("sim.fault_partition_drops", f.partition_drops);
            snap.set_counter("sim.fault_crashes", f.crashes);
            snap.set_counter("sim.fault_restarts", f.restarts);
        }
        snap
    }
}

/// A counter of the snapshot and where to read it. A node's and a
/// link's first three are always reported, the rest only when nonzero.
type Counter<T> = (&'static str, fn(&T) -> u64);
const NODE_COUNTERS: [Counter<Node>; 6] = [
    ("delivered", |n| n.delivered),
    ("dropped", |n| n.dropped),
    ("cpu_drops", |n| n.cpu_drops),
    ("crashes", |n| n.crashes),
    ("state_lost", |n| n.state_lost),
    ("shed", |n| n.shed),
];
const LINK_COUNTERS: [Counter<Link>; 4] = [
    ("tx_packets", |l| l.tx_packets),
    ("tx_bytes", |l| l.tx_bytes),
    ("drops", |l| l.drops),
    ("fault_drops", |l| l.fault_drops),
];

/// Writes each of `counters` summed (saturating) over `items` — one
/// node or link, or all of them — under `key` and its name.
fn put_counters<T>(
    snap: &mut MetricsSnapshot,
    key: &mut String,
    counters: &[Counter<T>],
    items: &[T],
) {
    let prefix = key.len();
    for (i, (name, get)) in counters.iter().enumerate() {
        let v = items.iter().fold(0u64, |sum, x| sum.saturating_add(get(x)));
        if i < 3 || v > 0 {
            key.truncate(prefix);
            key.push_str(name);
            snap.set_counter(key.as_str(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::tests::Source;

    /// Past the threshold the snapshot holds sums, not one key per
    /// node: the same counters, added up, and the sparse ones only when
    /// nonzero.
    #[test]
    fn the_compact_snapshot_sums_the_per_node_counters() {
        let mut sim = Sim::new(1);
        let n = COMPACT_METRICS_THRESHOLD as u32 + 1;
        let hosts: Vec<_> = (1..=n).map(|i| sim.add_host(&format!("h{i}"), i)).collect();
        for pair in hosts.windows(2) {
            sim.add_link(LinkSpec::ethernet_100(), pair);
        }
        sim.compute_routes();
        for (i, &h) in hosts.iter().enumerate().step_by(7) {
            let (dst, size) = (i as u32 + 2, 100);
            sim.add_app(h, Box::new(Source { dst, n: 3, size }));
        }
        sim.crash_node(hosts[1]);
        sim.run_until(SimTime::from_secs(1));
        let snap = sim.metrics_snapshot();
        let sum = |f: fn(&Node) -> u64| sim.nodes().map(f).sum::<u64>();
        assert_eq!(snap.counters["nodes.count"], u64::from(n));
        assert_eq!(snap.counters["nodes.delivered"], sum(|n| n.delivered));
        assert_eq!(snap.counters["nodes.dropped"], sum(|n| n.dropped));
        assert_eq!(snap.counters["nodes.crashes"], 1);
        assert!(!snap.counters.contains_key("nodes.shed"));
        let tx: u64 = sim.links().map(|l| l.tx_packets).sum();
        assert_eq!(snap.counters["links.tx_packets"], tx);
        assert!(!snap.counters.contains_key("links.fault_drops"));
        assert_eq!(snap.histograms["links.queue_depth"].count, tx);
        assert!(!snap.counters.contains_key("node.h1.delivered"));
    }
}
