//! The exporters allocate for their output, not per span, event,
//! series or site: `chrome_trace` makes the same handful of allocator
//! calls for 2 000 spans as for 8 000 (its metadata index and the
//! output grow by doubling, nothing else allocates), `to_jsonl` only
//! grows its output, and `prometheus`, `ProfileRegistry::to_json` and
//! `collapsed_flame` make the same few calls beside their output's
//! doublings for 500 series or scopes as for 2 000. Counted with the
//! `#[global_allocator]` of the runtime's `alloc_free_dispatch` test;
//! this is what keeps a `format!` or a `to_string` per number or per
//! line from coming back, where a wall-clock assertion would be flaky.

use planp_telemetry::{
    chrome_trace, prometheus, Histogram, MetricsSnapshot, ProfileRegistry, ScopeShape, SpanOrigin,
    TraceConfig, TraceEvent, TraceForest, TraceLog,
};
use std::rc::Rc;

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

fn roomy() -> TraceLog {
    TraceLog::new(TraceConfig {
        capacity: 1 << 16,
        ..TraceConfig::all()
    })
}

/// `spans` spans, four to a trace, every one with a channel and a
/// parent (a trace's first span hangs off the trace before it), so
/// every span writes its complete event and both ends of a flow arrow.
fn forest(spans: u64) -> TraceForest {
    let chan: Rc<str> = "network".into();
    let mut log = roomy();
    for id in 1..=spans {
        log.push(TraceEvent::SpanStart {
            t_ns: id * 1_000,
            node: (id % 7) as u32,
            pkt: id,
            trace: (id - 1) / 4 * 4 + 1,
            // Span 1's parent is not in the log: the one orphan.
            parent: if id == 1 { spans + 1 } else { id - 1 },
            origin: SpanOrigin::Remote,
            chan: Some(chan.clone()),
        });
        log.push(TraceEvent::Deliver {
            t_ns: id * 1_000 + 500,
            node: (id % 7) as u32,
            pkt: id,
            app: 0,
        });
    }
    TraceForest::from_log(&log)
}

fn calls_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = counting_alloc::calls();
    let out = f();
    (counting_alloc::calls() - before, out)
}

#[test]
fn chrome_trace_allocates_nothing_per_span() {
    let nodes: Vec<String> = (0..5).map(|i| format!("r{i}")).collect();
    let (small, large) = (forest(2_000), forest(8_000));
    let (few, out_small) = calls_of(|| chrome_trace(&small, &nodes));
    let (many, out_large) = calls_of(|| chrome_trace(&large, &nodes));
    assert!(out_small.matches("\"ph\":\"s\"").count() == 1_999 && out_large.len() > 3_000_000);
    // Four times the spans is two more doublings of the output, of
    // the trace list and of the trace → slot index; the thread pairs
    // are reserved once from the span count.
    assert!(
        few <= 40 && many <= few + 8,
        "{few} allocator calls for 2 000 spans, {many} for 8 000"
    );
}

#[test]
fn to_jsonl_allocates_only_for_its_output() {
    let chan: Rc<str> = "network".into();
    let mut log = roomy();
    for i in 0..2_500u64 {
        log.push(TraceEvent::LinkEnqueue {
            t_ns: i * 977,
            link: 3,
            from: 1,
            pkt: i,
            bytes: 1_500,
            qlen: 2,
        });
        log.push(TraceEvent::VmRun {
            t_ns: i * 977 + 1,
            node: 4,
            pkt: i,
            chan: chan.clone(),
            steps: 24,
        });
        log.push(TraceEvent::Fault {
            t_ns: i * 977 + 2,
            kind: "loss".into(),
            node: Some(4),
            link: Some(3),
            pkt: i,
        });
        log.push(TraceEvent::SpanStart {
            t_ns: i * 977 + 3,
            node: 4,
            pkt: i,
            trace: i,
            parent: 0,
            origin: SpanOrigin::Ingress,
            chan: None,
        });
    }
    assert_eq!(log.len(), 10_000);
    let (calls, out) = calls_of(|| log.to_jsonl());
    // Doubling from empty to `out.len()` bytes, and nothing else.
    let doublings = u64::from(out.len().next_power_of_two().trailing_zeros());
    assert!(
        out.lines().count() == 10_000 && calls <= doublings,
        "{calls} calls for {} bytes",
        out.len()
    );
}

/// The allocator calls of `export` beyond the doublings that grow a
/// string from empty to its output's length.
fn beyond_doublings(export: impl FnOnce() -> String) -> i64 {
    let (calls, out) = calls_of(export);
    let doublings = out.len().next_power_of_two().trailing_zeros();
    calls as i64 - i64::from(doublings)
}

/// `series` exported series, a quarter of each kind: a node, a
/// channel and a link counter and a node histogram. Names are padded
/// to one length, so four times the series is four times the output.
fn snapshot(series: usize) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let mut h = Histogram::new();
    for v in [3, 40, 500] {
        h.observe(v);
    }
    for i in 0..series / 4 {
        snap.set_counter(format!("node.n{i:04}.delivered"), i as u64);
        snap.set_counter(format!("node.n{i:04}.chan.network.dispatch"), 7);
        snap.set_counter(format!("link{i:04}.tx_packets"), 1 << 20);
        snap.set_histogram(format!("node.n{i:04}.hop_ns"), &h);
    }
    snap
}

/// `scopes` scopes of one shape, each with block charges still pending
/// and a site its shape does not declare.
fn profile(scopes: usize) -> ProfileRegistry {
    let pool = [10, 20, 30, 10, 40];
    let shape = Rc::new(ScopeShape::new(
        "network",
        0,
        [
            (10, "1:1:if".to_string(), 2),
            (20, "2:3:prim.tcpDst".to_string(), 1),
            (40, "4:1:send".to_string(), 1),
        ],
        [("table_forward".to_string(), vec![10, 40], "1:1".to_string())],
        &pool,
    ));
    let mut reg = ProfileRegistry::default();
    for i in 0..scopes {
        let id = reg.declare(&format!("n{i:04}"), &shape);
        assert!(reg.should_profile(id));
        reg.charge_blocks(id, &pool, &[(0, 5)], 1);
        reg.record(id, 5);
    }
    reg
}

#[test]
fn prometheus_allocates_nothing_per_series() {
    let (small, large) = (snapshot(500), snapshot(2_000));
    let few = beyond_doublings(|| prometheus(&small));
    let many = beyond_doublings(|| prometheus(&large));
    // Its key buffer and the sorted counters and histograms.
    assert!(
        few <= 3 && many == few,
        "{few} allocator calls beyond the output's doublings for 500 series, {many} for 2 000"
    );
}

#[test]
fn profile_exports_allocate_nothing_per_scope() {
    let (small, large) = (profile(500), profile(2_000));
    for (name, export) in [
        (
            "to_json",
            ProfileRegistry::to_json as fn(&ProfileRegistry) -> String,
        ),
        ("collapsed_flame", ProfileRegistry::collapsed_flame),
    ] {
        let few = beyond_doublings(|| export(&small));
        let many = beyond_doublings(|| export(&large));
        // The totals' two buffers, grown once to a scope's size, and
        // once for the shape each of its three sites' JSON row.
        assert!(
            few <= 2 + 3 && many == few,
            "{name}: {few} allocator calls beyond the output's doublings for 500 scopes, {many} for 2 000"
        );
    }
}
