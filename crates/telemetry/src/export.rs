//! Byte-stable exporters: Chrome `trace_event` JSON and
//! Prometheus-style text exposition.
//!
//! Both formats are produced with deterministic iteration (spans by
//! packet id, metrics by name) and integer-derived decimal formatting,
//! so two runs with the same seed emit identical bytes — asserted by
//! the workspace tracing tests and diffed in CI.
//!
//! * [`chrome_trace`] writes one complete (`"ph":"X"`) event per span
//!   plus flow arrows (`"s"`/`"f"`) along parent→child lineage edges.
//!   Load the file in Perfetto or `chrome://tracing`: each trace id is
//!   a process row, each node a thread row, and the flow arrows stitch
//!   the cross-node span tree together.
//! * [`prometheus`] renders a [`MetricsSnapshot`] in the text
//!   exposition format: counters as `counter`, histograms as `summary`
//!   quantiles (p50/p90/p99/p99.9) with `_sum`/`_count`, plus `_min` /
//!   `_max` gauges.

use crate::json::{push_escaped, push_str, push_u64, Seq};
use crate::metrics::{HistogramSummary, MetricsSnapshot};
use crate::span::{Span, TraceForest};
#[allow(clippy::disallowed_types)] // `slot_of` below, lookup-only
use std::collections::HashMap;

/// Appends `key` (punctuation included) and then `v` in decimal.
fn num(out: &mut String, key: &str, v: u64) {
    out.push_str(key);
    push_u64(out, v);
}

/// Appends `key` and then nanoseconds as microseconds with three
/// decimals — Chrome's `ts`/`dur` unit — without going through floating
/// point.
fn micros(out: &mut String, key: &str, ns: u64) {
    num(out, key, ns / 1000);
    let frac = ns % 1000;
    out.push('.');
    for digit in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + digit as u8));
    }
}

/// One end of a lineage flow arrow (`head` opens the event up to its
/// `id`), on the row of node `tid`.
fn flow(out: &mut String, head: &str, s: &Span, tid: u32) {
    num(out, head, s.id);
    num(out, ",\"pid\":", s.trace);
    num(out, ",\"tid\":", u64::from(tid));
    micros(out, ",\"ts\":", s.start_ns);
    out.push('}');
}

/// Renders a span forest as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`): per-span complete events, lineage flow
/// arrows, and process/thread name metadata. `nodes` supplies thread
/// names by node index.
pub fn chrome_trace(forest: &TraceForest, nodes: &[String]) -> String {
    // Grown by doubling, not reserved from the span count: a 25 MB
    // reservation is a block glibc serves from the heap once its mmap
    // threshold has adapted, where a freed one can strand the next
    // (DESIGN.md, "Reading a trace": peak RSS 56 → 78 MB in 2 of 18
    // benchmark runs, for 2 ms of a 22 ms export). This string is
    // 23 MB of the traced benchmark's 44 MB peak once the event log is
    // held as bytes (EXPERIMENTS.md, "What holding a trace costs").
    let mut out = String::from("{\"traceEvents\":[");
    let mut seq = Seq::new();

    // Metadata: one process row per trace, in the order traces first
    // appear among the spans (not ascending: a trace whose root was
    // evicted appears at its first surviving child), and one thread row
    // per node that appears in it. `slot_of` is looked up, never
    // iterated.
    let mut traces: Vec<u64> = Vec::new();
    #[allow(clippy::disallowed_types)] // lookup-only: `entry` by trace id, never iterated
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    let mut threads: Vec<(usize, u32)> = Vec::with_capacity(forest.spans().count());
    for s in forest.spans() {
        let slot = *slot_of.entry(s.trace).or_insert_with(|| {
            traces.push(s.trace);
            traces.len() - 1
        });
        threads.push((slot, s.node));
    }
    threads.sort_unstable();
    threads.dedup();
    let mut threads = threads.into_iter().peekable();
    for (slot, &trace) in traces.iter().enumerate() {
        seq.sep(&mut out);
        num(
            &mut out,
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":",
            trace,
        );
        num(&mut out, ",\"tid\":0,\"args\":{\"name\":\"trace ", trace);
        out.push_str("\"}}");
        while let Some((_, n)) = threads.next_if(|(of, _)| *of == slot) {
            seq.sep(&mut out);
            num(
                &mut out,
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":",
                trace,
            );
            num(&mut out, ",\"tid\":", u64::from(n));
            out.push_str(",\"args\":{\"name\":");
            match nodes.get(n as usize) {
                Some(name) => push_str(&mut out, name),
                None => {
                    num(&mut out, "\"n", u64::from(n));
                    out.push('"');
                }
            }
            out.push_str("}}");
        }
    }

    for s in forest.spans() {
        let dur = s.end_ns.saturating_sub(s.start_ns).max(1);
        seq.sep(&mut out);
        out.push_str("{\"ph\":\"X\",\"name\":\"");
        push_escaped(&mut out, s.origin.name());
        if let Some(c) = &s.chan {
            out.push(':');
            push_escaped(&mut out, c);
        }
        num(&mut out, "\",\"cat\":\"span\",\"pid\":", s.trace);
        num(&mut out, ",\"tid\":", u64::from(s.node));
        micros(&mut out, ",\"ts\":", s.start_ns);
        micros(&mut out, ",\"dur\":", dur);
        num(&mut out, ",\"args\":{\"span\":", s.id);
        num(&mut out, ",\"parent\":", s.parent);
        num(&mut out, ",\"vm_steps\":", s.vm_steps);
        num(&mut out, ",\"hops\":", u64::from(s.hops));
        num(&mut out, ",\"delivered\":", s.deliveries.len() as u64);
        num(&mut out, ",\"drops\":", u64::from(s.drops));
        out.push_str("}}");
        // Lineage flow arrow from the parent's row to this span's row.
        if s.parent == 0 {
            continue;
        }
        if let Some(parent) = forest.span(s.parent) {
            seq.sep(&mut out);
            flow(
                &mut out,
                "{\"ph\":\"s\",\"name\":\"lineage\",\"cat\":\"lineage\",\"id\":",
                s,
                parent.node,
            );
            seq.sep(&mut out);
            flow(
                &mut out,
                "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"lineage\",\"cat\":\"lineage\",\"id\":",
                s,
                s.node,
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Maps one character of a raw segment to the Prometheus metric-name
/// charset `[a-zA-Z0-9_:]` (dots and anything else become underscores).
fn sanitize(c: char) -> char {
    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
        c
    } else {
        '_'
    }
}

/// Appends a label value escaped per the exposition format.
fn escape_label(out: &mut String, v: &str) {
    if !v.bytes().any(|b| matches!(b, b'\\' | b'"' | b'\n')) {
        out.push_str(v);
        return;
    }
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// A registry name as a scrape-valid metric name plus labels, borrowed
/// from the name:
///
/// * `node.<n>.chan.<c>.<what>` → `planp_chan_<what>{chan="<c>",node="<n>"}`
/// * `node.<n>.<what>`          → `planp_node_<what>{node="<n>"}`
/// * `link<i>.<what>`           → `planp_link_<what>{link="<i>"}`
/// * anything else              → `planp_<sanitized>` (no labels)
///
/// The per-element identity moves into labels so a 100k-node fleet
/// yields a handful of metric families instead of 100k metric names —
/// and dotted tails like `recovery.redeploys` sanitize to underscores,
/// which is what makes the output scrape-valid.
struct PromSeries<'a> {
    /// The start of the metric name, written as it is.
    family: &'static str,
    /// The rest of the metric name, written through [`sanitize`].
    what: &'a str,
    /// The labels, in key order: the first `labeled` are set.
    labels: [(&'static str, &'a str); 2],
    labeled: usize,
}

impl<'a> PromSeries<'a> {
    fn of(name: &'a str) -> Self {
        let series = |family, what, labels: &[(&'static str, &'a str)]| {
            let mut s = PromSeries {
                family,
                what,
                labels: [("", ""); 2],
                labeled: labels.len(),
            };
            s.labels[..labels.len()].copy_from_slice(labels);
            s
        };
        if let Some(rest) = name.strip_prefix("node.") {
            if let Some((node, what)) = rest.split_once('.') {
                if let Some(chan_rest) = what.strip_prefix("chan.") {
                    if let Some((chan, leaf)) = chan_rest.split_once('.') {
                        return series("planp_chan_", leaf, &[("chan", chan), ("node", node)]);
                    }
                }
                return series("planp_node_", what, &[("node", node)]);
            }
        }
        if let Some(rest) = name.strip_prefix("link") {
            if let Some((idx, what)) = rest.split_once('.') {
                if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) {
                    return series("planp_link_", what, &[("link", idx)]);
                }
            }
        }
        series("planp_", name, &[])
    }

    /// An upper bound on the bytes of `name`'s key in [`prometheus`]
    /// (metric, NUL, labels): a sanitized character takes no more
    /// bytes than the raw one, an escaped one two.
    fn bound(name: &str) -> usize {
        3 * name.len() + 32
    }

    fn push_metric(&self, out: &mut String) {
        out.push_str(self.family);
        if self.what.chars().all(|c| sanitize(c) == c) {
            out.push_str(self.what);
        } else {
            out.extend(self.what.chars().map(sanitize));
        }
    }

    /// Appends `{k="v",...}`, or nothing for a series without labels.
    fn push_labels(&self, out: &mut String) {
        for (i, (k, v)) in self.labels[..self.labeled].iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(k);
            out.push_str("=\"");
            escape_label(out, v);
            out.push('"');
        }
        if self.labeled > 0 {
            out.push('}');
        }
    }
}

/// One exported series: where its key sits in the key buffer of
/// [`prometheus`], its position in the snapshot, and its value.
///
/// The key is the metric name, a NUL, and the rendered labels. No
/// character of a metric name sorts before NUL, so the keys sort as
/// the pairs (metric, labels) do, in one comparison.
struct Keyed<T> {
    /// Start, NUL and end of the key.
    key: (usize, usize, usize),
    at: usize,
    value: T,
}

impl<T> Keyed<T> {
    fn key<'k>(&self, keys: &'k str) -> &'k str {
        &keys[self.key.0..self.key.2]
    }

    fn metric<'k>(&self, keys: &'k str) -> &'k str {
        &keys[self.key.0..self.key.1]
    }

    fn labels<'k>(&self, keys: &'k str) -> &'k str {
        &keys[self.key.1 + 1..self.key.2]
    }
}

/// The series of `named`, their names and labels rendered into `keys`,
/// sorted by (metric, labels) and then by snapshot order.
fn sorted_series<'a, T>(
    keys: &mut String,
    named: impl ExactSizeIterator<Item = (&'a String, T)>,
) -> Vec<Keyed<T>> {
    let mut series = Vec::with_capacity(named.len());
    for (at, (name, value)) in named.enumerate() {
        let s = PromSeries::of(name);
        let start = keys.len();
        s.push_metric(keys);
        let nul = keys.len();
        keys.push('\0');
        s.push_labels(keys);
        series.push(Keyed {
            key: (start, nul, keys.len()),
            at,
            value,
        });
    }
    let k = keys.as_str();
    series.sort_unstable_by(|a, b| (a.key(k), a.at).cmp(&(b.key(k), b.at)));
    series
}

/// Appends `# TYPE <metric><suffix> <kind>`.
fn type_line(out: &mut String, metric: &str, suffix: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(metric);
    out.push_str(suffix);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends `<metric><suffix><labels> <v>`, with `quantile="<q>"` added
/// last to the labels when `quantile` is given.
fn sample(
    out: &mut String,
    metric: &str,
    suffix: &str,
    labels: &str,
    quantile: Option<&str>,
    v: u64,
) {
    out.push_str(metric);
    out.push_str(suffix);
    match quantile {
        None => out.push_str(labels),
        Some(q) => {
            match labels.strip_suffix('}') {
                Some(open) => {
                    out.push_str(open);
                    out.push(',');
                }
                None => out.push('{'),
            }
            out.push_str("quantile=\"");
            out.push_str(q);
            out.push_str("\"}");
        }
    }
    out.push(' ');
    push_u64(out, v);
    out.push('\n');
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Series are grouped into metric families (one `# TYPE` line per
/// family, series sorted by label set) and every name is mapped through
/// `PromSeries`, so the output is scrape-valid: metric names match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` and per-node / per-link / per-channel
/// identity lives in labels. When two counter names map to one series,
/// the later name in snapshot order gives its value; two histograms
/// both appear. Byte-stable for identical snapshots.
///
/// Every series' name and labels are rendered once, into one buffer,
/// and the series sorted by them: besides its output, an export
/// allocates that buffer and the two sorted lists.
pub fn prometheus(snap: &MetricsSnapshot) -> String {
    let names = snap.counters.keys().chain(snap.histograms.keys());
    let mut keys = String::with_capacity(names.map(|n| PromSeries::bound(n)).sum());
    let counters = sorted_series(&mut keys, snap.counters.iter().map(|(n, &v)| (n, v)));
    let histograms = sorted_series(&mut keys, snap.histograms.iter());
    let keys = keys.as_str();
    let mut out = String::new();

    let mut family = None;
    for (i, s) in counters.iter().enumerate() {
        if counters
            .get(i + 1)
            .is_some_and(|next| next.key(keys) == s.key(keys))
        {
            continue;
        }
        let metric = s.metric(keys);
        if family != Some(metric) {
            type_line(&mut out, metric, "", "counter");
            family = Some(metric);
        }
        sample(&mut out, metric, "", s.labels(keys), None, s.value);
    }

    for series in histograms.chunk_by(|a, b| a.metric(keys) == b.metric(keys)) {
        let metric = series[0].metric(keys);
        type_line(&mut out, metric, "", "summary");
        for s in series {
            let (labels, h) = (s.labels(keys), s.value);
            for (q, v) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.99", h.p99),
                ("0.999", h.p999),
            ] {
                sample(&mut out, metric, "", labels, Some(q), v);
            }
            sample(&mut out, metric, "_sum", labels, None, h.sum);
            sample(&mut out, metric, "_count", labels, None, h.count);
        }
        let mut gauge = |suffix, of: fn(&HistogramSummary) -> u64| {
            type_line(&mut out, metric, suffix, "gauge");
            for s in series {
                sample(&mut out, metric, suffix, s.labels(keys), None, of(s.value));
            }
        };
        gauge("_min", |h| h.min);
        gauge("_max", |h| h.max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SpanOrigin, TraceConfig, TraceEvent, TraceLog};
    use crate::metrics::{Histogram, MetricsSnapshot};

    /// One parsed exposition sample: metric name, sorted `(key, value)`
    /// labels, value.
    type PromSample = (String, Vec<(String, String)>, u64);

    /// Parses exposition-format text back into
    /// `(metric, sorted labels, value)` triples — the round-trip half of
    /// the exporter contract, proving the output is scrape-valid.
    /// Rejects names and label keys outside the Prometheus charset and
    /// unparsable values.
    fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
        let name_ok = |s: &str| {
            !s.is_empty()
                && !s.starts_with(|c: char| c.is_ascii_digit())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut out = Vec::new();
        for (lno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", lno + 1);
            let (series, value) = line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;
            let value: u64 = value.parse().map_err(|_| err("bad value"))?;
            let (metric, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((m, rest)) => {
                    let body = rest
                        .strip_suffix('}')
                        .ok_or_else(|| err("unclosed labels"))?;
                    let mut labels = Vec::new();
                    for pair in body.split(',').filter(|p| !p.is_empty()) {
                        let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label"))?;
                        if !name_ok(k) {
                            return Err(err("bad label key"));
                        }
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .ok_or_else(|| err("unquoted label value"))?;
                        labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                    }
                    labels.sort();
                    (m.to_string(), labels)
                }
            };
            if !name_ok(&metric) {
                return Err(err("metric name outside [a-zA-Z0-9_:]"));
            }
            out.push((metric, labels, value));
        }
        Ok(out)
    }

    fn forest() -> TraceForest {
        let mut log = TraceLog::new(TraceConfig::all());
        log.push(TraceEvent::SpanStart {
            t_ns: 1_000,
            node: 0,
            pkt: 1,
            trace: 1,
            parent: 0,
            origin: SpanOrigin::Ingress,
            chan: None,
        });
        log.push(TraceEvent::SpanStart {
            t_ns: 2_500,
            node: 1,
            pkt: 2,
            trace: 1,
            parent: 1,
            origin: SpanOrigin::Remote,
            chan: Some("network".into()),
        });
        log.push(TraceEvent::Deliver {
            t_ns: 4_000,
            node: 2,
            pkt: 2,
            app: 0,
        });
        TraceForest::from_log(&log)
    }

    #[test]
    fn chrome_trace_has_spans_flows_and_metadata() {
        let nodes = vec!["src".into(), "router".into(), "client".into()];
        let j = chrome_trace(&forest(), &nodes);
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(j.contains("\"name\":\"process_name\""));
        assert!(j.contains("{\"name\":\"router\"}"));
        // Span X events carry integer-derived µs timestamps.
        assert!(j.contains("\"ts\":1.000"), "{j}");
        assert!(j.contains("\"ts\":2.500"), "{j}");
        assert!(j.contains("\"name\":\"remote:network\""));
        // Lineage flow pair for the child span.
        assert!(j.contains("\"ph\":\"s\"") && j.contains("\"ph\":\"f\""));
        assert_eq!(j, chrome_trace(&forest(), &nodes));
    }

    #[test]
    fn prometheus_renders_counters_and_summaries() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("node.a.delivered", 7);
        snap.set_histogram("lat/ns", &h);
        let p = prometheus(&snap);
        assert!(
            p.contains("# TYPE planp_node_delivered counter\nplanp_node_delivered{node=\"a\"} 7\n")
        );
        assert!(p.contains("# TYPE planp_lat_ns summary"));
        assert!(p.contains("planp_lat_ns{quantile=\"0.999\"} 100"));
        assert!(p.contains("planp_lat_ns_sum 110"));
        assert!(p.contains("planp_lat_ns_count 5"));
        assert!(p.contains("planp_lat_ns_max 100"));
        assert_eq!(p, prometheus(&snap));
    }

    #[test]
    fn prometheus_groups_families_and_extracts_labels() {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("node.a.delivered", 1);
        snap.set_counter("node.b.delivered", 2);
        snap.set_counter("node.r2.recovery.redeploys", 3);
        snap.set_counter("link3.fault_drops", 4);
        snap.set_counter("node.gw.chan.network.dispatch", 5);
        snap.set_counter("sim.packets", 6);
        let p = prometheus(&snap);
        // One TYPE line per family, not per series.
        assert_eq!(p.matches("# TYPE planp_node_delivered counter").count(), 1);
        assert!(p.contains("planp_node_delivered{node=\"a\"} 1"));
        assert!(p.contains("planp_node_delivered{node=\"b\"} 2"));
        // Dotted tails sanitize to underscores.
        assert!(p.contains("planp_node_recovery_redeploys{node=\"r2\"} 3"));
        assert!(p.contains("planp_link_fault_drops{link=\"3\"} 4"));
        assert!(p.contains("planp_chan_dispatch{chan=\"network\",node=\"gw\"} 5"));
        assert!(p.contains("planp_sim_packets 6"));
        assert!(!p.contains("planp_node_a_"), "identity must be a label");
    }

    #[test]
    fn prometheus_round_trips_through_the_parser() {
        // The exposition output must parse back into exactly the series
        // we put in — scrape-valid names, labels carrying the identity.
        let mut h = Histogram::new();
        h.observe(9);
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("node.r2.recovery.redeploys", 3);
        snap.set_counter("link3.fault_drops", 4);
        snap.set_counter("node.gw.chan.network.vm_steps", 11);
        snap.set_counter("sim.link_drops_total", 2);
        snap.set_histogram("link0.queue_depth", &h);
        let text = prometheus(&snap);
        let series = parse_prometheus(&text).expect("output must be scrape-valid");
        let find = |m: &str, ls: &[(&str, &str)]| {
            series
                .iter()
                .find(|(name, labels, _)| {
                    name == m
                        && labels.len() == ls.len()
                        && ls
                            .iter()
                            .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .map(|(_, _, v)| *v)
        };
        assert_eq!(
            find("planp_node_recovery_redeploys", &[("node", "r2")]),
            Some(3)
        );
        assert_eq!(find("planp_link_fault_drops", &[("link", "3")]), Some(4));
        assert_eq!(
            find(
                "planp_chan_vm_steps",
                &[("chan", "network"), ("node", "gw")]
            ),
            Some(11)
        );
        assert_eq!(find("planp_sim_link_drops_total", &[]), Some(2));
        assert_eq!(
            find("planp_link_queue_depth_count", &[("link", "0")]),
            Some(1)
        );
        assert_eq!(
            find(
                "planp_link_queue_depth",
                &[("link", "0"), ("quantile", "0.99")]
            ),
            Some(9)
        );
    }
}
