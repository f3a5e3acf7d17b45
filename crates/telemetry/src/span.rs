//! Causal span trees reconstructed from a [`TraceLog`].
//!
//! Every packet identity is one **span**: it opens when the packet
//! first enters a node's send path ([`TraceEvent::SpanStart`], which
//! carries the packet's lineage) and closes at the last event that
//! mentions the packet. An ASP that duplicates, re-addresses
//! (`OnRemote`/`OnNeighbor`) or delivers a packet creates *child*
//! packets whose lineage points back at the packet being processed, so
//! the spans of one ingress packet form a tree spanning every node it
//! — or its descendants — touched. [`TraceForest`] rebuilds those
//! trees, attributes per-span VM cost, computes hop / end-to-end
//! latency histograms and fan-out, and extracts the **critical path**:
//! the root-to-leaf chain that finishes last and therefore bounds the
//! trace's end-to-end latency.
//!
//! Reconstruction requires the `span` category to have been enabled
//! while recording; `deliver`, `link`, `hop` and `vm` enrich the trees
//! with delivery times, hop latency and step counts when present.
//! Everything is deterministic: spans are held in one vector ascending
//! by packet id, every walk is in that order and ties are broken by id,
//! so renderings are byte-stable for identical logs. The two hash maps
//! of [`TraceForest::from_events`] are looked up, never iterated.

use crate::event::{SpanOrigin, TraceEvent, TraceLog};
use crate::metrics::Histogram;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// One packet identity's journey, as reconstructed from the log.
#[derive(Debug, Clone)]
pub struct Span {
    /// Packet id (= span id).
    pub id: u64,
    /// Root span id of the tree this span belongs to.
    pub trace: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// How the packet came into existence.
    pub origin: SpanOrigin,
    /// Channel the creating ASP sent it on (None for app ingress).
    pub chan: Option<Rc<str>>,
    /// Node where the span opened.
    pub node: u32,
    /// Time the span opened (first entry into a send path).
    pub start_ns: u64,
    /// Time of the last event mentioning the packet.
    pub end_ns: u64,
    /// Forwarding decisions taken for the packet.
    pub hops: u32,
    /// `(t_ns, node)` for each local delivery of the packet.
    pub deliveries: Vec<(u64, u32)>,
    /// Node/link drops of the packet.
    pub drops: u32,
    /// VM steps charged to channel runs dispatched on this packet.
    pub vm_steps: u64,
    /// Child span ids, ascending.
    pub children: Vec<u64>,
}

/// One segment of a critical path, root first.
#[derive(Debug, Clone)]
pub struct CriticalHop {
    /// Span id of the segment.
    pub span: u64,
    /// Node where the segment's span opened.
    pub node: u32,
    /// Origin of the segment's span.
    pub origin: SpanOrigin,
    /// Channel that created the span, if an ASP did.
    pub chan: Option<Rc<str>>,
    /// Span open time.
    pub start_ns: u64,
    /// Span close time.
    pub end_ns: u64,
}

/// All span trees reconstructed from one merged event log.
#[derive(Debug, Default)]
pub struct TraceForest {
    /// Every span, ascending by id.
    spans: Vec<Span>,
    roots: Vec<u64>,
    /// Spans whose parent never appeared in the log (e.g. evicted from
    /// the ring buffer). Rendered as extra roots.
    orphans: Vec<u64>,
    hop_latency: Histogram,
    end_to_end: Histogram,
}

impl TraceForest {
    /// Rebuilds span trees from a log's events (which arrive in
    /// simulation order).
    pub fn from_log(log: &TraceLog) -> TraceForest {
        TraceForest::from_events(log.events())
    }

    /// Rebuilds span trees from any event sequence in time order.
    pub fn from_events<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> TraceForest {
        let mut f = TraceForest::default();
        // The simulator stamps packet ids in ascending order, so spans
        // appended as their `SpanStart` arrives are sorted and a packet's
        // span is found by position. The first id out of turn (a caller's
        // merged log) moves the lookups to this map of id → position, and
        // the vector is sorted once at the end.
        let mut unsorted: Option<HashMap<u64, usize>> = None;
        // FIFO of enqueue times per (link, pkt): a retransmitting pkt
        // matches its link_tx events in order.
        let mut pending: HashMap<(u32, u64), VecDeque<u64>> = HashMap::new();
        for ev in events {
            let Some(pkt) = ev.pkt() else { continue };
            let mut at = match &unsorted {
                None => position(&f.spans, pkt, f.spans.len()),
                Some(by_id) => by_id.get(&pkt).copied(),
            };
            match ev {
                // A repeated `SpanStart` is an ordinary mention: the first wins.
                TraceEvent::SpanStart {
                    t_ns,
                    node,
                    trace,
                    parent,
                    origin,
                    chan,
                    ..
                } if at.is_none() => {
                    if f.spans.last().is_some_and(|last| last.id > pkt) {
                        unsorted.get_or_insert_with(|| {
                            f.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect()
                        });
                    }
                    if let Some(by_id) = &mut unsorted {
                        by_id.insert(pkt, f.spans.len());
                    }
                    at = Some(f.spans.len());
                    f.spans.push(Span {
                        id: pkt,
                        trace: *trace,
                        parent: *parent,
                        origin: *origin,
                        chan: chan.clone(),
                        node: *node,
                        start_ns: *t_ns,
                        end_ns: *t_ns,
                        hops: 0,
                        deliveries: Vec::new(),
                        drops: 0,
                        vm_steps: 0,
                        children: Vec::new(),
                    });
                }
                TraceEvent::LinkEnqueue { t_ns, link, .. } => {
                    pending.entry((*link, pkt)).or_default().push_back(*t_ns);
                }
                TraceEvent::LinkTx { t_ns, link, .. } => {
                    if let Entry::Occupied(mut q) = pending.entry((*link, pkt)) {
                        if let Some(enqueued) = q.get_mut().pop_front() {
                            f.hop_latency.observe(t_ns - enqueued);
                        }
                        if q.get().is_empty() {
                            q.remove();
                        }
                    }
                }
                _ => {}
            }
            let Some(s) = at.map(|i| &mut f.spans[i]) else {
                continue;
            };
            s.end_ns = s.end_ns.max(ev.t_ns());
            match ev {
                TraceEvent::Forward { .. } => s.hops += 1,
                TraceEvent::Deliver { t_ns, node, .. } => s.deliveries.push((*t_ns, *node)),
                TraceEvent::LinkDrop { .. } | TraceEvent::NodeDrop { .. } => s.drops += 1,
                TraceEvent::VmRun { steps, .. } => s.vm_steps += steps,
                _ => {}
            }
        }
        if unsorted.is_some() {
            f.spans.sort_unstable_by_key(|s| s.id);
        }
        // Ascending by id: link children (so they ascend too), classify
        // roots, and measure every delivery from the root span's open.
        for i in 0..f.spans.len() {
            let Span {
                id, parent, trace, ..
            } = f.spans[i];
            if parent == 0 {
                f.roots.push(id);
            } else if let Some(p) = position(&f.spans, parent, i) {
                f.spans[p].children.push(id);
            } else {
                f.orphans.push(id);
            }
            if f.spans[i].deliveries.is_empty() {
                continue;
            }
            let Some(root) = position(&f.spans, trace, i) else {
                continue;
            };
            let root_start = f.spans[root].start_ns;
            for (t, _) in &f.spans[i].deliveries {
                f.end_to_end.observe(t.saturating_sub(root_start));
            }
        }
        f
    }

    /// The span for a packet id, if it appeared in the log.
    pub fn span(&self, id: u64) -> Option<&Span> {
        let i = self.spans.binary_search_by_key(&id, |s| s.id).ok()?;
        Some(&self.spans[i])
    }

    /// All spans, ascending by id.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Root span ids (ingress packets), ascending.
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// Spans whose parent is missing from the log, ascending.
    pub fn orphans(&self) -> &[u64] {
        &self.orphans
    }

    /// Walks parents up to the tree root. Returns `None` if the chain
    /// leaves the log (orphan) or a lineage cycle is detected.
    pub fn root_of(&self, id: u64) -> Option<&Span> {
        let mut cur = self.span(id)?;
        for _ in 0..self.spans.len() + 1 {
            if cur.parent == 0 {
                return Some(cur);
            }
            cur = self.span(cur.parent)?;
        }
        None
    }

    /// Number of spans in the subtree rooted at `id` (including it).
    pub fn subtree_size(&self, id: u64) -> usize {
        let Some(s) = self.span(id) else {
            return 0;
        };
        1 + s
            .children
            .iter()
            .map(|c| self.subtree_size(*c))
            .sum::<usize>()
    }

    /// Latest span close time in the subtree rooted at `id`.
    pub fn subtree_end(&self, id: u64) -> u64 {
        let Some(s) = self.span(id) else {
            return 0;
        };
        s.children
            .iter()
            .map(|c| self.subtree_end(*c))
            .fold(s.end_ns, u64::max)
    }

    /// Largest VM cost along the chain rooted at `id`: the maximum over
    /// its root-to-leaf span chains of the summed per-span `vm_steps`.
    fn chain_vm_steps(&self, id: u64) -> u64 {
        let Some(s) = self.span(id) else {
            return 0;
        };
        s.vm_steps
            + s.children
                .iter()
                .map(|c| self.chain_vm_steps(*c))
                .max()
                .unwrap_or(0)
    }

    /// The costliest traced causal chain, in VM steps, across every
    /// tree (roots and orphans): the observed counterpart of a
    /// deployment plan's statically composed per-packet path budget,
    /// which must dominate it. 0 when the `span`/`vm` categories were
    /// off.
    pub fn max_path_vm_steps(&self) -> u64 {
        self.roots
            .iter()
            .chain(self.orphans.iter())
            .map(|&r| self.chain_vm_steps(r))
            .max()
            .unwrap_or(0)
    }

    /// Per-hop (link enqueue → tx-complete) latency over all packets.
    pub fn hop_latency(&self) -> &Histogram {
        &self.hop_latency
    }

    /// End-to-end latency: each delivery measured from its trace root's
    /// open.
    pub fn end_to_end(&self) -> &Histogram {
        &self.end_to_end
    }

    /// Fan-out (child count) of every span, as a histogram.
    pub fn fanout(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.spans {
            h.observe(s.children.len() as u64);
        }
        h
    }

    /// The critical path of the tree rooted at `root`: the root-to-leaf
    /// chain whose subtree finishes last (ties broken toward the
    /// smaller span id). Empty if `root` is unknown.
    pub fn critical_path(&self, root: u64) -> Vec<CriticalHop> {
        let mut path = Vec::new();
        let mut cur = root;
        while let Some(s) = self.span(cur) {
            path.push(CriticalHop {
                span: s.id,
                node: s.node,
                origin: s.origin,
                chan: s.chan.clone(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            });
            // Descend into the child subtree that ends last; children
            // are ascending, so strict `>` keeps the smallest id on tie.
            let mut next = None;
            let mut best = 0u64;
            for c in &s.children {
                let e = self.subtree_end(*c);
                if next.is_none() || e > best {
                    next = Some(*c);
                    best = e;
                }
            }
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
        path
    }

    /// Renders every tree (roots, then orphans) as deterministic ASCII.
    /// `nodes` supplies display names by node index (falls back to
    /// `n<i>`); critical-path spans are starred.
    pub fn render(&self, nodes: &[String]) -> String {
        let mut out = String::new();
        for (i, root) in self.roots.iter().chain(self.orphans.iter()).enumerate() {
            if i > 0 {
                out.push('\n');
            }
            self.render_tree(*root, nodes, &mut out);
        }
        if out.is_empty() {
            out.push_str("(no spans recorded — was the `span` trace category enabled?)\n");
        }
        out
    }

    /// Renders the single tree rooted at `root`.
    fn render_tree(&self, root: u64, nodes: &[String], out: &mut String) {
        let Some(s) = self.span(root) else {
            return;
        };
        let e2e = self.subtree_end(root).saturating_sub(s.start_ns);
        let size = self.subtree_size(root);
        let orphan = if s.parent != 0 { " (orphan)" } else { "" };
        let _ = writeln!(
            out,
            "trace {} — {} span(s), {:.3} ms end-to-end{}",
            s.trace,
            size,
            e2e as f64 / 1e6,
            orphan
        );
        let critical: Vec<u64> = self.critical_path(root).iter().map(|h| h.span).collect();
        self.render_span(root, nodes, "", true, true, &critical, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn render_span(
        &self,
        id: u64,
        nodes: &[String],
        prefix: &str,
        is_last: bool,
        is_root: bool,
        critical: &[u64],
        out: &mut String,
    ) {
        let s = self.span(id).expect("rendered ids come from the forest");
        let (head, tail) = if is_root {
            (String::new(), String::new())
        } else if is_last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let node = nodes
            .get(s.node as usize)
            .cloned()
            .unwrap_or_else(|| format!("n{}", s.node));
        let star = if critical.contains(&id) { " *" } else { "" };
        let _ = write!(
            out,
            "{head}span {} @{node} {} [{:.3}..{:.3} ms]",
            s.id,
            s.origin.name(),
            s.start_ns as f64 / 1e6,
            s.end_ns as f64 / 1e6,
        );
        if let Some(c) = &s.chan {
            let _ = write!(out, " chan={c}");
        }
        if s.vm_steps > 0 {
            let _ = write!(out, " vm={}", s.vm_steps);
        }
        if !s.deliveries.is_empty() {
            let _ = write!(out, " delivered={}", s.deliveries.len());
        }
        if s.drops > 0 {
            let _ = write!(out, " drops={}", s.drops);
        }
        let _ = writeln!(out, "{star}");
        for (i, c) in s.children.iter().enumerate() {
            let last = i + 1 == s.children.len();
            self.render_span(*c, nodes, &tail, last, false, critical, out);
        }
    }
}

/// Position of span `id` in `spans` (ascending by id), searched
/// outward from `from`: an event mentions a packet still in flight and
/// a child its parent, so the span sits a few places below `from` and a
/// gallop finds it in the cache lines just touched.
fn position(spans: &[Span], id: u64, from: usize) -> Option<usize> {
    let (mut lo, mut hi) = (0, from);
    if spans.get(from).is_some_and(|s| s.id <= id) {
        (lo, hi) = (from, spans.len());
    } else {
        // Everything in `hi..from` is above `id`.
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            if spans[probe].id <= id {
                lo = probe;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    let i = spans[lo..hi].binary_search_by_key(&id, |s| s.id).ok()?;
    Some(lo + i)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, TraceConfig};

    fn start(
        t: u64,
        node: u32,
        pkt: u64,
        trace: u64,
        parent: u64,
        origin: SpanOrigin,
    ) -> TraceEvent {
        TraceEvent::SpanStart {
            t_ns: t,
            node,
            pkt,
            trace,
            parent,
            origin,
            chan: if parent == 0 {
                None
            } else {
                Some("network".into())
            },
        }
    }

    fn sample_log() -> TraceLog {
        // pkt 1 ingresses at n0, an ASP at n1 duplicates it into pkts
        // 2 and 3; pkt 3 is delivered at n2 (later than pkt 2 at n1).
        let mut log = TraceLog::new(TraceConfig::all());
        log.push(start(0, 0, 1, 1, 0, SpanOrigin::Ingress));
        log.push(TraceEvent::LinkEnqueue {
            t_ns: 0,
            link: 0,
            from: 0,
            pkt: 1,
            bytes: 64,
            qlen: 1,
        });
        log.push(TraceEvent::LinkTx {
            t_ns: 500,
            link: 0,
            from: 0,
            pkt: 1,
            bytes: 64,
        });
        log.push(TraceEvent::VmRun {
            t_ns: 600,
            node: 1,
            pkt: 1,
            chan: "network".into(),
            steps: 12,
        });
        log.push(start(600, 1, 2, 1, 1, SpanOrigin::Deliver));
        log.push(start(600, 1, 3, 1, 1, SpanOrigin::Remote));
        log.push(TraceEvent::Deliver {
            t_ns: 700,
            node: 1,
            pkt: 2,
            app: 0,
        });
        log.push(TraceEvent::Deliver {
            t_ns: 2000,
            node: 2,
            pkt: 3,
            app: 0,
        });
        log
    }

    #[test]
    fn forest_links_children_and_finds_roots() {
        let f = TraceForest::from_log(&sample_log());
        assert_eq!(f.roots(), &[1]);
        assert!(f.orphans().is_empty());
        assert_eq!(f.span(1).unwrap().children, vec![2, 3]);
        assert_eq!(f.span(1).unwrap().vm_steps, 12);
        assert_eq!(f.subtree_size(1), 3);
        assert_eq!(f.root_of(3).unwrap().id, 1);
        assert_eq!(f.root_of(3).unwrap().origin, SpanOrigin::Ingress);
    }

    #[test]
    fn latency_and_fanout_histograms() {
        let f = TraceForest::from_log(&sample_log());
        assert_eq!(f.hop_latency().count(), 1);
        assert_eq!(f.hop_latency().sum(), 500);
        // Two deliveries, both measured from pkt 1's start at t=0.
        assert_eq!(f.end_to_end().count(), 2);
        assert_eq!(f.end_to_end().sum(), 700 + 2000);
        let fan = f.fanout();
        assert_eq!(fan.count(), 3);
        assert_eq!(fan.summary().max, 2);
    }

    #[test]
    fn critical_path_follows_latest_subtree() {
        let f = TraceForest::from_log(&sample_log());
        let path: Vec<u64> = f.critical_path(1).iter().map(|h| h.span).collect();
        // pkt 3 closes at t=2000 > pkt 2's 700.
        assert_eq!(path, vec![1, 3]);
    }

    #[test]
    fn render_is_deterministic_and_marks_critical_path() {
        let f = TraceForest::from_log(&sample_log());
        let nodes = vec![
            "src".to_string(),
            "router".to_string(),
            "client".to_string(),
        ];
        let r = f.render(&nodes);
        assert_eq!(r, f.render(&nodes));
        assert!(r.contains("trace 1 — 3 span(s)"));
        assert!(r.contains("span 1 @src ingress"));
        assert!(r.contains("├─ span 2 @router deliver"));
        assert!(r.contains("└─ span 3 @router remote"));
        // Critical path: root and pkt 3 starred, pkt 2 not.
        assert!(r.lines().any(|l| l.contains("span 3") && l.ends_with('*')));
        assert!(!r.lines().any(|l| l.contains("span 2") && l.ends_with('*')));
    }

    #[test]
    fn orphan_spans_surface_as_extra_roots() {
        let mut log = TraceLog::new(TraceConfig {
            categories: Category::ALL,
            capacity: 64,
            ..TraceConfig::default()
        });
        log.push(start(10, 1, 5, 1, 4, SpanOrigin::Remote));
        let f = TraceForest::from_log(&log);
        assert!(f.roots().is_empty());
        assert_eq!(f.orphans(), &[5]);
        assert!(f.render(&[]).contains("(orphan)"));
    }
}
