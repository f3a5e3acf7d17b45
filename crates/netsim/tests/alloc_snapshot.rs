//! A metrics snapshot allocates per key, not per comparison: each key
//! costs its own `String` and its share of the map's nodes, and the
//! rest is a constant handful of buffers, so a 256-node snapshot makes
//! the same allocator calls per key as a 64-node one within a constant.
//! Counted with the `#[global_allocator]` of the runtime's
//! `alloc_free_dispatch` test.
//!
//! At commit cbc3893, which inserted every simulator key into a copy of
//! the registry's map one at a time, the two snapshots made 605 and
//! 2 376 calls for 515 and 2 051 keys; built in one pass they make 574
//! and 2 251.

use netsim::packet::addr;
use netsim::{LinkSpec, Sim};

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// `n` routers in a line, each with two registry counters (one shown,
/// one only registered) and a registry histogram.
fn line(n: u32) -> Sim {
    let mut sim = Sim::new(1);
    let nodes: Vec<_> = (0..n)
        .map(|i| sim.add_router(&format!("r{i}"), addr(10, (i >> 8) as u8, i as u8, 1)))
        .collect();
    for pair in nodes.windows(2) {
        sim.add_link(LinkSpec::ethernet_100(), pair);
    }
    let m = &mut sim.telemetry.metrics;
    for i in 0..n {
        m.add(&format!("node.r{i}.app.sent"), u64::from(i));
        m.register_counter(&format!("node.r{i}.app.idle"));
        m.observe(&format!("node.r{i}.app.latency_ns"), u64::from(i));
    }
    sim
}

/// `(allocator calls, keys)` of a snapshot after a first one.
fn snapshot_calls(n: u32) -> (u64, u64) {
    let sim = line(n);
    sim.metrics_snapshot();
    let before = counting_alloc::calls();
    let snap = sim.metrics_snapshot();
    let calls = counting_alloc::calls() - before;
    (calls, (snap.counters.len() + snap.histograms.len()) as u64)
}

#[test]
fn a_snapshot_makes_the_same_allocator_calls_per_key_at_any_size() {
    let (small, small_keys) = snapshot_calls(64);
    let (large, large_keys) = snapshot_calls(256);
    println!(
        "64 nodes: {small} calls, {small_keys} keys; 256 nodes: {large} calls, {large_keys} keys"
    );
    // Per key: its `String` and its share of the map's nodes.
    let per_key = |keys: u64| keys + keys / 10;
    assert!(small <= per_key(small_keys) + 16, "64 nodes: {small} calls");
    assert!(
        large <= per_key(large_keys) + 16,
        "256 nodes: {large} calls"
    );
    // The same rate at both sizes, within a constant.
    let growth = large - small;
    let key_growth = large_keys - small_keys;
    assert!(
        growth <= per_key(key_growth) + 8,
        "{growth} more calls for {key_growth} more keys"
    );
}
