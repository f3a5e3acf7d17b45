//! In-band ASP deployment (paper §5's "protocol management", realized):
//! an operator ships a program to a router over the network, the router
//! verifies it and swaps it in live, and a later redeploy replaces it —
//! all without touching the router's process.
//!
//! ```text
//! cargo run --example deploy_asp
//! ```

use bytes::Bytes;
use planp::analysis::Policy;
use planp::netsim::packet::{addr, Packet};
use planp::netsim::{App, LinkSpec, NodeApi, Sim, SimTime};
use planp::runtime::{deploy_packets, DeployService, LayerConfig};
use std::time::Duration;

struct Operator {
    target: u32,
    step: u32,
}

const COUNTER: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                       (println(ps); OnRemote(network, p); (ps + 1, ss))";
const BOUNCER: &str = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                       (OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p)); (ps, ss))";

impl App for Operator {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_millis(50), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
        if pkt
            .udp_hdr()
            .is_some_and(|u| u.dport == planp::runtime::MANAGEMENT_PORT)
        {
            println!(
                "operator: router replied {:?}",
                String::from_utf8_lossy(&pkt.payload).trim()
            );
        }
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        self.step += 1;
        match self.step {
            1 => {
                println!("operator: deploying a packet counter…");
                for p in deploy_packets(api.addr(), self.target, 1, COUNTER) {
                    api.send(p);
                }
            }
            2 => {
                println!("operator: trying to deploy a packet bouncer (should be rejected)…");
                for p in deploy_packets(api.addr(), self.target, 2, BOUNCER) {
                    api.send(p);
                }
            }
            3 => {
                println!("operator: sending 5 packets through the router…");
                for i in 0..5 {
                    api.send(Packet::udp(
                        api.addr(),
                        addr(10, 0, 1, 1),
                        7,
                        8,
                        Bytes::from(vec![i; 32]),
                    ));
                }
            }
            _ => return,
        }
        api.set_timer(Duration::from_millis(100), 0);
    }
}

struct Sink;
impl App for Sink {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, _pkt: Packet) {
        api.record("sunk", 1.0);
    }
}

fn main() {
    let mut sim = Sim::new(1);
    let op = sim.add_host("operator", addr(10, 0, 0, 1));
    let router = sim.add_router("router", addr(10, 0, 0, 254));
    let sink = sim.add_host("sink", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_10(), &[op, router]);
    sim.add_link(LinkSpec::ethernet_10(), &[router, sink]);
    sim.compute_routes();

    // The router accepts downloads that pass the strict policy.
    let svc = DeployService::new(Policy::strict(), LayerConfig::default());
    let log = svc.log.clone();
    sim.add_app(router, Box::new(svc));
    sim.add_app(
        op,
        Box::new(Operator {
            target: addr(10, 0, 0, 254),
            step: 0,
        }),
    );
    sim.add_app(sink, Box::new(Sink));

    sim.run_until(SimTime::from_secs(1));

    let log = log.borrow();
    println!(
        "\nrouter log: {} installed, {} rejected (last error: {})",
        log.installed,
        log.rejected,
        log.last_error.as_deref().unwrap_or("none")
    );
    let handle = log.handle.clone().expect("counter installed");
    println!(
        "counter ASP saw {} packets; its output: {:?}",
        handle.stats(&sim.telemetry).matched,
        handle.output.borrow().trim()
    );
    println!(
        "sink received {} packets",
        sim.series.get("sunk").map(|s| s.len()).unwrap_or(0)
    );
}
