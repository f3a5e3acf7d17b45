//! The instruments: two histograms the hot path fills without naming a
//! metric, [`Sim::metrics_snapshot`], and the live SLO monitor that
//! judges it, with the brownout controller its windows feed ([`Watch`]).

use crate::digest::Fnv;
use crate::link::Link;
use crate::node::Node;
use crate::sim::Sim;
use crate::time::SimTime;
use planp_telemetry::json::push_u64;
use planp_telemetry::{
    BrownoutController, Category, HealthMonitor, Histogram, MetricsSnapshot, TraceEvent,
};
use std::collections::BTreeMap;
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
    ///
    /// A key written here replaces a registry entry of the same name.
    /// The keys are made in name order (links by the decimal string of
    /// their index, then nodes by name, each one's leaves
    /// alphabetically, then `sim.*`) and merged with the registry's,
    /// which come in name order too.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (nodes, links) = (self.nodes.len(), self.links.len());
        let compact = nodes > COMPACT_METRICS_THRESHOLD;
        // At most: every leaf of every node and link, and every `sim.*`.
        let most = if compact { 14 } else { 6 * nodes + 4 * links } + 18;
        let mut counters = Vec::with_capacity(most);
        let mut histograms = Vec::new();
        let qdepth = &self.instruments.link_qdepth;
        if compact {
            // Saturating `nodes.*` / `links.*` sums: a 100k-node
            // snapshot stays a handful of keys instead of 500k.
            counters.push(("links.count".into(), links as u64));
            put_counters(&mut counters, "links.", &LINK_COUNTERS, &self.links);
            counters.push(("nodes.count".into(), nodes as u64));
            put_counters(&mut counters, "nodes.", &NODE_COUNTERS, &self.nodes);
            let mut depth = Histogram::new();
            qdepth.iter().for_each(|h| depth.merge(h));
            if depth.count() > 0 {
                histograms.push(("links.queue_depth".into(), depth.summary()));
            }
        } else {
            let mut prefix = String::new();
            for i in decimal_order(links) {
                prefix.clear();
                prefix.push_str("link");
                push_u64(&mut prefix, i as u64);
                prefix.push('.');
                let link = slice::from_ref(&self.links[i]);
                put_counters(&mut counters, &prefix, &LINK_COUNTERS, link);
                if qdepth[i].count() > 0 {
                    histograms.push((key(&prefix, "queue_depth"), qdepth[i].summary()));
                }
            }
            // Later nodes first, so of two nodes of one name the later
            // one's counters are kept, as when each key overwrote.
            let mut by_name: Vec<&Node> = self.nodes.iter().rev().collect();
            by_name.sort_by(|a, b| a.name.cmp(&b.name));
            for n in by_name {
                prefix.clear();
                prefix.push_str("node.");
                prefix.push_str(&n.name);
                prefix.push('.');
                put_counters(&mut counters, &prefix, &NODE_COUNTERS, slice::from_ref(n));
            }
        }
        let (oh, f) = (self.telemetry.trace.overhead(), &self.faults.stats);
        let sampled = oh.sample_n > 1 || oh.sampled_out > 0 || oh.downgrades > 0;
        let faults = self.faults.enabled;
        // In name order, each with whether it is reported.
        for (name, v, shown) in [
            ("events_processed", self.events_processed, true),
            ("fault_corrupted", f.corrupted, faults),
            ("fault_crashes", f.crashes, faults),
            ("fault_duplicated", f.duplicated, faults),
            ("fault_jittered", f.jittered, faults),
            ("fault_link_down_drops", f.link_down_drops, faults),
            ("fault_loss_drops", f.loss_drops, faults),
            ("fault_partition_drops", f.partition_drops, faults),
            ("fault_restarts", f.restarts, faults),
            ("link_drops_total", self.total_link_drops, true),
            ("node_drops_total", self.total_node_drops, true),
            ("packets", self.next_pkt_id, true),
            ("trace_downgrades", u64::from(oh.downgrades), sampled),
            ("trace_est_bytes", oh.est_bytes, sampled),
            ("trace_evicted", self.telemetry.trace.evicted(), true),
            ("trace_recorded", self.telemetry.trace.recorded(), true),
            ("trace_sample_n", u64::from(oh.sample_n), sampled),
            ("trace_sampled_out", oh.sampled_out, sampled),
        ] {
            if shown {
                counters.push((key("sim.", name), v));
            }
        }
        if self.instruments.hop_latency.count() > 0 {
            let hop = self.instruments.hop_latency.summary();
            histograms.push(("sim.hop_latency_ns".into(), hop));
        }
        let metrics = &self.telemetry.metrics;
        let theirs = metrics.histograms().map(|(name, h)| (name, h.summary()));
        MetricsSnapshot {
            counters: merge(counters, metrics.counters()),
            histograms: merge(histograms, theirs),
        }
    }
}

/// A counter of the snapshot, whether it is reported at zero, and where
/// to read it; in name order.
type Counter<T> = (&'static str, bool, fn(&T) -> u64);
const NODE_COUNTERS: [Counter<Node>; 6] = [
    ("cpu_drops", true, |n| n.cpu_drops),
    ("crashes", false, |n| n.crashes),
    ("delivered", true, |n| n.delivered),
    ("dropped", true, |n| n.dropped),
    ("shed", false, |n| n.shed),
    ("state_lost", false, |n| n.state_lost),
];
const LINK_COUNTERS: [Counter<Link>; 4] = [
    ("drops", true, |l| l.drops),
    ("fault_drops", false, |l| l.fault_drops),
    ("tx_bytes", true, |l| l.tx_bytes),
    ("tx_packets", true, |l| l.tx_packets),
];

/// Pushes each of `counters` summed (saturating) over `items` — one
/// node or link, or all of them — under `prefix` and its name.
fn put_counters<T>(
    out: &mut Vec<(String, u64)>,
    prefix: &str,
    counters: &[Counter<T>],
    items: &[T],
) {
    for &(name, always, get) in counters {
        let v = items.iter().fold(0u64, |sum, x| sum.saturating_add(get(x)));
        if always || v > 0 {
            out.push((key(prefix, name), v));
        }
    }
}

/// `prefix` then `name`, in a `String` of exactly their length.
fn key(prefix: &str, name: &str) -> String {
    let mut key = String::with_capacity(prefix.len() + name.len());
    key.push_str(prefix);
    key.push_str(name);
    key
}

/// `0..n` in the order of their decimal strings (`0, 1, 10, 11, 2, …`):
/// a walk of the decimal trie, each number before its tenfold.
fn decimal_order(n: usize) -> impl Iterator<Item = usize> {
    let mut next = (n > 0).then_some(0);
    std::iter::from_fn(move || {
        let i = next?;
        next = if i == 0 {
            (n > 1).then_some(1)
        } else if i * 10 < n {
            Some(i * 10)
        } else {
            // Up the trie until a number has a next sibling below `n`.
            let mut j = i;
            while j % 10 == 9 || j + 1 >= n {
                j /= 10;
                if j == 0 {
                    break;
                }
            }
            (j > 0).then_some(j + 1)
        };
        Some(i)
    })
}

/// The simulator's entries and the registry's (`theirs`, in name order)
/// as one map; of two entries with one name, the simulator's. Node names
/// that sort apart from their keys (`a` against `a.b` or `a-b`), or two
/// nodes of one name, cost a sort first; otherwise this is one merge.
fn merge<'a, V>(
    mut mine: Vec<(String, V)>,
    theirs: impl IntoIterator<Item = (&'a str, V)>,
) -> BTreeMap<String, V> {
    if !mine.is_sorted_by(|a, b| a.0 < b.0) {
        mine.sort_by(|a, b| a.0.cmp(&b.0));
        mine.dedup_by(|later, first| later.0 == first.0);
    }
    let mut theirs = theirs.into_iter().peekable();
    let mut out = Vec::with_capacity(mine.len() + theirs.size_hint().0);
    for entry in mine {
        while let Some((name, v)) = theirs.next_if(|t| t.0 < entry.0.as_str()) {
            out.push((name.to_owned(), v));
        }
        theirs.next_if(|t| t.0 == entry.0);
        out.push(entry);
    }
    out.extend(theirs.map(|(name, v)| (name.to_owned(), v)));
    out.into_iter().collect()
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

    #[test]
    fn decimal_order_is_the_order_of_the_strings() {
        for n in 0..1_200 {
            let mut want: Vec<usize> = (0..n).collect();
            want.sort_by_key(|i| i.to_string());
            assert_eq!(decimal_order(n).collect::<Vec<_>>(), want, "n = {n}");
        }
    }
}
