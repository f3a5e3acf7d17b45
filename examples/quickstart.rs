//! Quickstart: write an ASP, verify it, JIT it, install it on a
//! simulated router, and watch it count and forward packets.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use planp::analysis::Policy;
use planp::netsim::packet::{addr, Packet};
use planp::netsim::{App, LinkSpec, NodeApi, Sim, SimTime};
use planp::runtime::{install_planp, load, LayerConfig};

/// An ASP that stamps every UDP payload's first byte with a running
/// counter before forwarding — a tiny "new functionality projected onto
/// an existing application".
const COUNTER_ASP: &str = r#"
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let
    val body : blob = #3 p
    val out : blob =
      (blobSetByte(body, 0, ps mod 256)) handle _ => body
  in
    (OnRemote(network, (#1 p, #2 p, out)); (ps + 1, ss))
  end
"#;

struct Sender {
    dst: u32,
}
impl App for Sender {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(std::time::Duration::from_millis(10), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let pkt = Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from(vec![0xFFu8; 32]));
        api.send(pkt);
        api.set_timer(std::time::Duration::from_millis(10), 0);
    }
}

struct Receiver;
impl App for Receiver {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        if pkt.payload[0] != 0xFF {
            api.record("stamped", pkt.payload[0] as f64);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Download path: parse → type check → verify → JIT.
    let image = load(COUNTER_ASP, Policy::strict())?;
    println!("verifier report:\n{}\n", image.report);
    println!(
        "compiled {} AST nodes in {:?} ({} source lines)\n",
        image.codegen.nodes, image.codegen.elapsed, image.lines
    );

    // A 3-node network with the ASP on the router.
    let mut sim = Sim::new(42);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
    sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
    sim.compute_routes();
    let handle = install_planp(&mut sim, r, &image, LayerConfig::default())?;

    sim.add_app(
        a,
        Box::new(Sender {
            dst: addr(10, 0, 1, 1),
        }),
    );
    sim.add_app(b, Box::new(Receiver));
    sim.run_until(SimTime::from_secs(1));

    let stats = handle.stats(&sim.telemetry);
    let stamped = sim.series.get("stamped").map(|s| s.len()).unwrap_or(0);
    println!(
        "router processed {} packets ({} errors)",
        stats.matched, stats.errors
    );
    println!("receiver saw {stamped} stamped packets");
    assert!(stamped > 90);
    Ok(())
}
