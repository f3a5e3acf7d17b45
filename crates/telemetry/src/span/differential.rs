//! Differential test of the read half of tracing against the
//! algorithms it replaced.
//!
//! [`from_events_oracle`] and [`chrome_trace_oracle`] are the bodies of
//! `TraceForest::from_events` and `chrome_trace` as they stood at commit
//! 181a903 (a `BTreeMap` lookup per event, a scan of the traces per
//! span, a `String` per number), kept verbatim as the reference. Seeded
//! random event streams built to reach every arm of both are read by
//! the oracle and by the current code; everything a caller can observe
//! must be equal.

use super::*;
use crate::event::{mix64, Category, DispatchOutcome, DropReason, TraceConfig};
use crate::export::chrome_trace;
use crate::json::push_str;
use std::collections::BTreeMap;

#[derive(Default)]
struct OracleForest {
    spans: BTreeMap<u64, Span>,
    roots: Vec<u64>,
    orphans: Vec<u64>,
    hop_latency: Histogram,
    end_to_end: Histogram,
}

impl OracleForest {
    /// The oracle's result in today's representation, so the public
    /// walks (`render`, `max_path_vm_steps`, …) can run over it.
    fn into_forest(self) -> TraceForest {
        TraceForest {
            spans: self.spans.into_values().collect(),
            roots: self.roots,
            orphans: self.orphans,
            hop_latency: self.hop_latency,
            end_to_end: self.end_to_end,
        }
    }
}

fn from_events_oracle<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> OracleForest {
    let mut f = OracleForest::default();
    // FIFO of enqueue times per (link, pkt): a retransmitting pkt
    // matches its link_tx events in order.
    let mut pending: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::SpanStart {
            t_ns,
            node,
            pkt,
            trace,
            parent,
            origin,
            chan,
        } = ev
        {
            f.spans.entry(*pkt).or_insert(Span {
                id: *pkt,
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
        let Some(pkt) = ev.pkt() else { continue };
        match ev {
            TraceEvent::LinkEnqueue { t_ns, link, .. } => {
                pending.entry((*link, pkt)).or_default().push(*t_ns);
            }
            TraceEvent::LinkTx { t_ns, link, .. } => {
                if let Some(q) = pending.get_mut(&(*link, pkt)) {
                    if !q.is_empty() {
                        f.hop_latency.observe(t_ns - q.remove(0));
                    }
                }
            }
            _ => {}
        }
        let Some(s) = f.spans.get_mut(&pkt) else {
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
    // Link children (BTreeMap order keeps them ascending) and
    // classify roots.
    let ids: Vec<u64> = f.spans.keys().copied().collect();
    for id in &ids {
        let parent = f.spans[id].parent;
        if parent == 0 {
            f.roots.push(*id);
        } else if f.spans.contains_key(&parent) {
            f.spans.get_mut(&parent).unwrap().children.push(*id);
        } else {
            f.orphans.push(*id);
        }
    }
    // End-to-end latency: every delivery, measured from the root
    // span's open.
    for id in &ids {
        let s = &f.spans[id];
        if s.deliveries.is_empty() {
            continue;
        }
        let Some(root) = f.spans.get(&s.trace) else {
            continue;
        };
        let root_start = root.start_ns;
        for (t, _) in f.spans[id].deliveries.clone() {
            f.end_to_end.observe(t.saturating_sub(root_start));
        }
    }
    f
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn node_name(nodes: &[String], i: u32) -> String {
    nodes
        .get(i as usize)
        .cloned()
        .unwrap_or_else(|| format!("n{i}"))
}

fn chrome_trace_oracle(forest: &TraceForest, nodes: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Metadata: one process row per trace, one thread row per node that
    // appears in it.
    let mut meta: Vec<(u64, Vec<u32>)> = Vec::new();
    for s in forest.spans() {
        match meta.iter_mut().find(|(t, _)| *t == s.trace) {
            Some((_, ns)) => {
                if !ns.contains(&s.node) {
                    ns.push(s.node);
                }
            }
            None => meta.push((s.trace, vec![s.node])),
        }
    }
    for (trace, ns) in &mut meta {
        ns.sort_unstable();
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{trace},\"tid\":0,\
             \"args\":{{\"name\":\"trace {trace}\"}}}}"
        );
        for n in ns.iter() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{trace},\"tid\":{n},\"args\":{{\"name\":"
            ));
            push_str(&mut out, &node_name(nodes, *n));
            out.push_str("}}");
        }
    }

    for s in forest.spans() {
        let dur = s.end_ns.saturating_sub(s.start_ns).max(1);
        sep(&mut out);
        out.push_str("{\"ph\":\"X\",\"name\":");
        match &s.chan {
            Some(c) => push_str(&mut out, &format!("{}:{c}", s.origin.name())),
            None => push_str(&mut out, s.origin.name()),
        }
        let _ = write!(
            out,
            ",\"cat\":\"span\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":{},\"parent\":{},\"vm_steps\":{},\"hops\":{},\
             \"delivered\":{},\"drops\":{}}}}}",
            s.trace,
            s.node,
            micros(s.start_ns),
            micros(dur),
            s.id,
            s.parent,
            s.vm_steps,
            s.hops,
            s.deliveries.len(),
            s.drops
        );
        // Lineage flow arrow from the parent's row to this span's row.
        if s.parent != 0 && forest.span(s.parent).is_some() {
            let parent = forest.span(s.parent).unwrap();
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"s\",\"name\":\"lineage\",\"cat\":\"lineage\",\"id\":{},\
                 \"pid\":{},\"tid\":{},\"ts\":{}}}",
                s.id,
                s.trace,
                parent.node,
                micros(s.start_ns)
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"lineage\",\"cat\":\"lineage\",\
                 \"id\":{},\"pid\":{},\"tid\":{},\"ts\":{}}}",
                s.id,
                s.trace,
                s.node,
                micros(s.start_ns)
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// SplitMix64, the generator the simulator seeds from ([`mix64`] is its
/// output function).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// One random log. Even seeds stamp span ids the way the simulator does
/// (ascending, with the occasional repeat of an open span); odd seeds
/// draw them at random, so starts arrive out of order. Either way events mention
/// packets that have no span (yet), parents and traces that never
/// appear, and (link, pkt) pairs enqueued several times over.
fn stream(seed: u64) -> TraceLog {
    let mut rng = Rng(seed);
    let ascending = seed.is_multiple_of(2);
    let ids = 8 + rng.below(40);
    let mut log = TraceLog::new(TraceConfig {
        categories: Category::ALL,
        // Half the streams of either kind get a ring small enough to
        // evict roots.
        capacity: if seed % 4 < 2 {
            4096
        } else {
            24 + rng.below(64) as usize
        },
        sample_n: [1, 1, 2, 4][rng.below(4) as usize],
        ..TraceConfig::default()
    });
    let chans: [Rc<str>; 3] = ["network".into(), "ctl".into(), "q\"\\\n\u{1}é".into()];
    let mut t_ns = 0;
    let mut next_id = 1;
    // Parent and trace of each id's first `SpanStart`; a child inherits
    // its parent's trace (and with it the sampler's verdict).
    let mut lineage: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..40 + rng.below(260) {
        t_ns += rng.below(2_000);
        let pkt = 1 + rng.below(ids);
        let node = rng.below(6) as u32;
        let link = rng.below(3) as u32;
        let chan = chans[rng.below(3) as usize].clone();
        let sampled = |log: &TraceLog, lineage: &BTreeMap<u64, u64>| {
            log.keep_trace(lineage.get(&pkt).copied().unwrap_or(pkt))
        };
        match rng.below(16) {
            0..=3 => {
                let id = if !ascending {
                    pkt
                } else if lineage.is_empty() || !rng.one_in(8) {
                    next_id += 1 + rng.below(2);
                    next_id
                } else {
                    // A repeat of a span already open: the vector stays sorted.
                    *lineage
                        .keys()
                        .nth(rng.below(lineage.len() as u64) as usize)
                        .expect("nth < len")
                };
                let parent = match rng.below(4) {
                    0 => 0,
                    // Possibly absent, itself, or a later id.
                    1 => 1 + rng.below(ids + 4),
                    _ => 1 + rng.below(id),
                };
                let trace = match lineage.get(&parent) {
                    Some(&t) if !rng.one_in(6) => t,
                    _ if parent == 0 => id,
                    _ => 1 + rng.below(ids),
                };
                if !log.keep_trace(trace) {
                    continue;
                }
                lineage.entry(id).or_insert(trace);
                log.push(TraceEvent::SpanStart {
                    t_ns,
                    node,
                    pkt: id,
                    trace,
                    parent,
                    origin: [
                        SpanOrigin::Ingress,
                        SpanOrigin::Remote,
                        SpanOrigin::Neighbor,
                        SpanOrigin::Deliver,
                    ][rng.below(4) as usize],
                    chan: (!rng.one_in(3)).then_some(chan),
                });
            }
            _ if !sampled(&log, &lineage) => {}
            4..=5 => {
                // One to three enqueues before any tx of the pair.
                for _ in 0..1 + rng.below(3) {
                    log.push(TraceEvent::LinkEnqueue {
                        t_ns,
                        link,
                        from: node,
                        pkt,
                        bytes: 64,
                        qlen: 1,
                    });
                    t_ns += rng.below(300);
                }
            }
            // More tx than enqueues: some find the FIFO drained or absent.
            6..=8 => log.push(TraceEvent::LinkTx {
                t_ns,
                link,
                from: node,
                pkt,
                bytes: 64,
            }),
            9 => log.push(TraceEvent::Forward {
                t_ns,
                node,
                pkt,
                link,
                ttl: 9,
            }),
            10..=11 => log.push(TraceEvent::Deliver {
                t_ns,
                node,
                pkt,
                app: 0,
            }),
            12 => {
                if rng.one_in(2) {
                    log.push(TraceEvent::LinkDrop {
                        t_ns,
                        link,
                        from: node,
                        pkt,
                    });
                } else {
                    log.push(TraceEvent::NodeDrop {
                        t_ns,
                        node,
                        pkt,
                        reason: DropReason::TtlExpired,
                    });
                }
            }
            13 => log.push(TraceEvent::VmRun {
                t_ns,
                node,
                pkt,
                chan,
                steps: rng.below(50),
            }),
            14 => log.push(TraceEvent::Dispatch {
                t_ns,
                node,
                pkt,
                chan: Some(chan),
                outcome: DispatchOutcome::Matched,
            }),
            _ => {
                // Events that name no packet, or packet 0.
                log.push(TraceEvent::TimerFire {
                    t_ns,
                    node,
                    app: 0,
                    key: pkt,
                });
                log.push(TraceEvent::Fault {
                    t_ns,
                    kind: "loss".into(),
                    node: Some(node),
                    link: None,
                    pkt: if rng.one_in(2) { 0 } else { pkt },
                });
            }
        }
    }
    log
}

#[test]
fn forest_and_chrome_export_match_the_replaced_algorithms() {
    // Thread names: one needs escaping, and nodes 3.. have none.
    let nodes = vec!["src".to_string(), "r\"1\t".to_string(), "dst".to_string()];
    // Streams that reached each arm the generator is built for.
    let mut reached = BTreeMap::new();
    for seed in 0..600 {
        let log = stream(seed);
        let new = TraceForest::from_log(&log);
        let old = from_events_oracle(log.events().collect::<Vec<_>>().iter()).into_forest();

        assert_eq!(
            format!("{:?}", new.spans),
            format!("{:?}", old.spans),
            "seed {seed}"
        );
        assert_eq!(new.roots(), old.roots(), "seed {seed}");
        assert_eq!(new.orphans(), old.orphans(), "seed {seed}");
        assert_eq!(new.hop_latency(), old.hop_latency(), "seed {seed}");
        assert_eq!(new.end_to_end(), old.end_to_end(), "seed {seed}");
        assert_eq!(
            (new.hop_latency().summary(), new.end_to_end().summary()),
            (old.hop_latency().summary(), old.end_to_end().summary()),
            "seed {seed}"
        );
        assert_eq!(new.fanout(), old.fanout(), "seed {seed}");
        assert_eq!(new.render(&nodes), old.render(&nodes), "seed {seed}");
        assert_eq!(
            new.max_path_vm_steps(),
            old.max_path_vm_steps(),
            "seed {seed}"
        );
        let chrome = chrome_trace(&new, &nodes);
        assert_eq!(chrome, chrome_trace_oracle(&old, &nodes), "seed {seed}");
        assert_eq!(
            chrome_trace(&new, &[]),
            chrome_trace_oracle(&old, &[]),
            "seed {seed}: no names"
        );

        let starts: Vec<u64> = log
            .events()
            .filter_map(|e| match e {
                TraceEvent::SpanStart { pkt, .. } => Some(pkt),
                _ => None,
            })
            .collect();
        let first_traces: Vec<u64> = {
            let mut seen = Vec::new();
            for s in new.spans() {
                if !seen.contains(&s.trace) {
                    seen.push(s.trace);
                }
            }
            seen
        };
        for (arm, hit) in [
            ("starts in order", starts.windows(2).all(|w| w[0] <= w[1])),
            (
                "starts out of order",
                starts.windows(2).any(|w| w[0] > w[1]),
            ),
            ("repeated start", starts.len() > new.spans().count()),
            (
                "mention without a span",
                log.events()
                    .any(|e| e.pkt().is_some_and(|p| new.span(p).is_none())),
            ),
            ("orphans", !new.orphans().is_empty()),
            (
                "traces not ascending",
                first_traces.windows(2).any(|w| w[0] > w[1]),
            ),
            (
                "multi-delivery span",
                new.spans().any(|s| s.deliveries.len() > 1),
            ),
            ("hop latencies", new.hop_latency().count() > 2),
            ("end-to-end latencies", new.end_to_end().count() > 0),
            ("ring evicted", log.evicted() > 0),
            ("sampled", log.sample_n() > 1 && !starts.is_empty()),
            (
                "deep tree",
                new.roots().iter().any(|&r| new.subtree_size(r) > 3),
            ),
        ] {
            *reached.entry(arm).or_insert(0) += u32::from(hit);
        }
    }
    for (arm, streams) in &reached {
        assert!(*streams >= 20, "only {streams} streams reached {arm:?}");
    }
}
