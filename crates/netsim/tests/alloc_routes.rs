//! Routes cost a node what its traffic uses: on a square grid of
//! routers, `compute_routes` and one packet down each of the four
//! corner-to-corner paths ask the allocator for the same bytes per node,
//! within 1.25×, at 1 024 and at 4 096 nodes. Counted with the
//! `#[global_allocator]` of the runtime's `alloc_free_dispatch` test.
//!
//! At commit 6a5babd, which stored a route to every node in a map per
//! node, the bytes per node grew with the grid: 256 and 1 024 nodes
//! asked for 32.4 and 128.1 kB a node (3.96×), and 4 096 nodes needed
//! ≈ 0.8 GB. Worked out per destination at its first lookup, 1 024 and
//! 4 096 nodes ask for about 210 bytes a node.

use bytes::Bytes;
use netsim::packet::addr;
use netsim::{App, LinkSpec, NodeApi, Packet, Sim};

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Sends one datagram to `.0` at start, with the TTL a 126-hop path
/// needs.
struct Send(u32);

impl App for Send {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let mut pkt = Packet::udp(api.addr(), self.0, 1, 80, Bytes::new());
        pkt.ip.ttl = u8::MAX;
        api.send(pkt);
    }

    fn on_packet(&mut self, _: &mut NodeApi<'_>, _: Packet) {}
}

/// `(bytes, allocator calls)` of `compute_routes` and a run that sends
/// one packet from each corner of a `side` × `side` router grid to the
/// opposite corner.
fn route_bytes(side: usize) -> (u64, u64) {
    let mut sim = Sim::new(1);
    let at = |r: usize, c: usize| addr(10, 1, r as u8, c as u8);
    let mut ids = Vec::with_capacity(side * side);
    for r in 0..side {
        for c in 0..side {
            ids.push(sim.add_router(&format!("g{r}x{c}"), at(r, c)));
        }
    }
    for r in 0..side {
        for c in 0..side {
            let n = ids[r * side + c];
            if c + 1 < side {
                sim.add_link(LinkSpec::ethernet_100(), &[n, ids[r * side + c + 1]]);
            }
            if r + 1 < side {
                sim.add_link(LinkSpec::ethernet_100(), &[n, ids[(r + 1) * side + c]]);
            }
        }
    }
    let far = side - 1;
    for (from, to) in [
        ((0, 0), (far, far)),
        ((far, far), (0, 0)),
        ((0, far), (far, 0)),
        ((far, 0), (0, far)),
    ] {
        sim.add_app(ids[from.0 * side + from.1], Box::new(Send(at(to.0, to.1))));
    }
    let (bytes, calls) = (counting_alloc::bytes(), counting_alloc::calls());
    sim.compute_routes();
    sim.run_to_idle(1_000_000);
    let delivered: u64 = sim.nodes().map(|n| n.delivered).sum();
    assert_eq!(
        delivered, 4,
        "every packet arrives ({} dropped)",
        sim.total_node_drops
    );
    (
        counting_alloc::bytes() - bytes,
        counting_alloc::calls() - calls,
    )
}

#[test]
fn route_bytes_per_node_hold_from_1024_to_4096_nodes() {
    let (small, small_calls) = route_bytes(32);
    let (large, large_calls) = route_bytes(64);
    let (small_per, large_per) = (small as f64 / 1024.0, large as f64 / 4096.0);
    println!(
        "1 024 nodes: {small} B ({small_per:.0} a node, {small_calls} calls); \
         4 096 nodes: {large} B ({large_per:.0} a node, {large_calls} calls)"
    );
    assert!(
        large_per <= 1.25 * small_per,
        "bytes per node grew {:.2}× from 1 024 to 4 096 nodes",
        large_per / small_per
    );
}
