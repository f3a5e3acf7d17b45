//! Property suite for deadline admission: across a seeded 200-packet
//! trace, a packet whose lineage deadline has passed is never
//! dispatched to the VM — it dies at node ingress if it expired in
//! flight, or at the layer's admission check if it expired waiting in
//! the CPU queue — and the outcome is byte-identical across engines
//! and across reruns.

use bytes::Bytes;
use netsim::packet::{addr, Packet};
use netsim::{App, CpuModel, LinkSpec, NodeApi, Sim, SimTime};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, Engine, LayerConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

const FORWARDER: &str = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                         (OnRemote(network, p); (ps, ss))";

const PACKETS: u64 = 200;

/// How each packet's deadline was chosen, decided by the node RNG:
/// 0 = already unmeetable (expires in flight, before arrival),
/// 1 = tight (500 µs total — expires in the router's CPU queue once the
///     backlog passes it), 2 = none.
struct DeadlineSource {
    dst: u32,
    sent: u64,
    by_cat: Rc<RefCell<[u64; 3]>>,
}

impl App for DeadlineSource {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_micros(20), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.sent >= PACKETS {
            return;
        }
        self.sent += 1;
        let mut pkt = Packet::udp(
            api.addr(),
            self.dst,
            1000,
            2000,
            Bytes::from(vec![self.sent as u8; 64]),
        );
        let now_ns = api.now().as_nanos();
        let cat = api.rand_below(3) as usize;
        self.by_cat.borrow_mut()[cat] += 1;
        pkt.lineage.deadline_ns = match cat {
            0 => now_ns + 1,
            1 => now_ns + 500_000,
            _ => 0,
        };
        api.send(pkt);
        api.set_timer(Duration::from_micros(20), 0);
    }
}

struct Sink {
    got: Rc<RefCell<u64>>,
}
impl App for Sink {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        *self.got.borrow_mut() += 1;
    }
}

/// One seeded run: (matched, layer expired, layer shed, router shed
/// bucket, delivered, per-category sends).
fn run(engine: Engine, seed: u64) -> (u64, u64, u64, u64, u64, [u64; 3]) {
    let image = load(FORWARDER, Policy::no_delivery()).expect("forwarder loads");
    let mut sim = Sim::new(seed);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_100(), &[a, r]);
    sim.add_link(LinkSpec::ethernet_100(), &[r, b]);
    sim.compute_routes();
    // A slow router CPU: the 20 µs arrival spacing against 100 µs of
    // service builds a backlog that outlives the tight deadlines, so
    // some packets expire *between* ingress and dispatch.
    sim.set_cpu(
        r,
        CpuModel {
            per_packet: Duration::from_micros(100),
            queue_cap: 256,
        },
    );
    let handle = install_planp(
        &mut sim,
        r,
        &image,
        LayerConfig {
            engine,
            admission: true,
            ..LayerConfig::default()
        },
    )
    .expect("install");
    let got = Rc::new(RefCell::new(0u64));
    sim.add_app(b, Box::new(Sink { got: got.clone() }));
    let by_cat = Rc::new(RefCell::new([0u64; 3]));
    sim.add_app(
        a,
        Box::new(DeadlineSource {
            dst: addr(10, 0, 1, 1),
            sent: 0,
            by_cat: by_cat.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(2));

    let stats = handle.stats(&sim.telemetry);
    let (delivered, cats) = (*got.borrow(), *by_cat.borrow());
    (
        stats.matched,
        stats.deadline_expired,
        stats.shed,
        sim.node(r).shed,
        delivered,
        cats,
    )
}

#[test]
fn expired_packets_never_reach_the_vm() {
    for seed in [3u64, 17, 1999] {
        let (matched, expired, shed, router_shed, delivered, cats) = run(Engine::Jit, seed);
        assert_eq!(cats.iter().sum::<u64>(), PACKETS, "seed {seed}");
        // Every packet either ran a channel or died of its deadline —
        // nothing was lost to queues or routing.
        assert_eq!(matched + router_shed, PACKETS, "seed {seed}");
        assert_eq!(shed, 0, "seed {seed}: no brownout");
        // Unmeetable deadlines died at ingress, before the layer; the
        // layer's own gate caught exactly the queue-expired remainder.
        assert_eq!(router_shed - expired, cats[0], "seed {seed}");
        assert!(
            expired >= 1,
            "seed {seed}: some tight deadline must age out"
        );
        // A dispatched forwarder run is a delivery: the VM never saw an
        // expired packet, so deliveries and dispatches agree exactly.
        assert_eq!(delivered, matched, "seed {seed}");
    }
}

#[test]
fn deadline_outcome_is_engine_and_rerun_invariant() {
    for seed in [3u64, 17, 1999] {
        let jit = run(Engine::Jit, seed);
        assert_eq!(jit, run(Engine::Jit, seed), "seed {seed}: rerun drifted");
        assert_eq!(
            jit,
            run(Engine::Interp, seed),
            "seed {seed}: engines disagree"
        );
    }
}
