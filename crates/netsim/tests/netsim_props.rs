//! Property tests over the simulator core: conservation, determinism,
//! and mini-TCP integrity under arbitrary loss patterns.
//!
//! Cases are generated from fixed seeds with the simulator's own
//! deterministic RNG, so a failing case is reproducible from its index.

use bytes::Bytes;
use netsim::digest::Fnv;
use netsim::packet::{addr, Packet};
use netsim::rng::SplitMix64;
use netsim::tcp::{TcpConfig, TcpSocket};
use netsim::{
    App, ArrivalMeta, CpuModel, HookVerdict, LinkSpec, NodeApi, PacketHook, Sim, SimTime,
};
use planp_telemetry::DropReason;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::rc::Rc;
use std::time::Duration;

struct Counter {
    got: Rc<RefCell<u64>>,
}
impl App for Counter {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        *self.got.borrow_mut() += 1;
    }
}

struct Blaster {
    dst: u32,
    n: u32,
    size: usize,
    gap_us: u64,
}
impl App for Blaster {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_micros(self.gap_us), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.n == 0 {
            return;
        }
        self.n -= 1;
        api.send(Packet::udp(
            api.addr(),
            self.dst,
            1,
            2,
            Bytes::from(vec![0u8; self.size]),
        ));
        api.set_timer(Duration::from_micros(self.gap_us), 0);
    }
}

/// Every packet sent is either delivered, dropped at a queue, or
/// dropped at a node — never duplicated, never lost silently.
#[test]
fn packet_conservation_on_a_chain() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xC0DE_0000 + case);
        let n = 1 + rng.next_below(119) as u32;
        let size = 16 + rng.next_below(1384) as usize;
        let gap_us = 50 + rng.next_below(4950);
        let kbps = 200 + rng.next_below(19_800);
        let queue = 2 + rng.next_below(30) as usize;
        let hops = 1 + rng.next_below(3) as usize;

        let mut sim = Sim::new(42);
        let src = sim.add_host("src", addr(10, 0, 0, 1));
        let mut prev = src;
        for h in 0..hops {
            let r = sim.add_router(&format!("r{h}"), addr(10, 0, 1, h as u8 + 1));
            sim.add_link(
                LinkSpec {
                    kbps,
                    delay: Duration::from_micros(100),
                    queue_pkts: queue,
                },
                &[prev, r],
            );
            prev = r;
        }
        let dst = sim.add_host("dst", addr(10, 0, 2, 1));
        sim.add_link(
            LinkSpec {
                kbps,
                delay: Duration::from_micros(100),
                queue_pkts: queue,
            },
            &[prev, dst],
        );
        sim.compute_routes();
        let got = Rc::new(RefCell::new(0u64));
        sim.add_app(dst, Box::new(Counter { got: got.clone() }));
        sim.add_app(
            src,
            Box::new(Blaster {
                dst: addr(10, 0, 2, 1),
                n,
                size,
                gap_us,
            }),
        );
        sim.run_until(SimTime::from_secs(600));

        let node_drops: u64 = (0..hops + 2)
            .map(|i| sim.node(netsim::NodeId(i)).dropped)
            .sum();
        let delivered = *got.borrow();
        assert_eq!(
            delivered + sim.total_link_drops + node_drops,
            u64::from(n),
            "case {case}: delivered {} + link drops {} + node drops {} != sent {}",
            delivered,
            sim.total_link_drops,
            node_drops,
            n
        );
    }
}

/// A hook that sheds a deterministic subset of the packets it sees:
/// every `shed_mod`-th as an admission [`DropReason::Shed`], every
/// `expire_mod`-th as [`DropReason::DeadlineExpired`].
struct Shedder {
    seen: u64,
    shed_mod: u64,
    expire_mod: u64,
}
impl PacketHook for Shedder {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.shed_mod) {
            api.node_drop(&pkt, DropReason::Shed);
            return HookVerdict::Handled;
        }
        if self.seen.is_multiple_of(self.expire_mod) {
            api.node_drop(&pkt, DropReason::DeadlineExpired);
            return HookVerdict::Handled;
        }
        HookVerdict::Pass(pkt)
    }
}

/// The node-level drop-accounting identity: every drop charged to a
/// node lands in exactly one of its three buckets — policy drops
/// (`dropped`), CPU-queue overflows (`cpu_drops`), or admission sheds
/// (`shed`) — and the engine-wide total is their sum. Each case forces
/// all three kinds at once: a slow router CPU with a tiny queue
/// overflows, its hook sheds and expires a deterministic subset, and a
/// second flow aims at an unroutable address.
#[test]
fn node_drop_identity_across_all_buckets() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xC0DE_3000 + case);
        let n = 80 + rng.next_below(120) as u32;
        let gap_us = 30 + rng.next_below(120);
        let queue_cap = 1 + rng.next_below(3) as usize;
        let shed_mod = 2 + rng.next_below(4);
        let expire_mod = 3 + rng.next_below(4);

        let mut sim = Sim::new(0xBADD + case);
        let src = sim.add_host("src", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 1, 1));
        let dst = sim.add_host("dst", addr(10, 0, 2, 1));
        for ends in [[src, r], [r, dst]] {
            sim.add_link(
                LinkSpec {
                    kbps: 100_000,
                    delay: Duration::from_micros(100),
                    queue_pkts: 256,
                },
                &ends,
            );
        }
        sim.compute_routes();
        sim.set_cpu(
            r,
            CpuModel {
                per_packet: Duration::from_micros(200),
                queue_cap,
            },
        );
        sim.install_hook(
            r,
            Box::new(Shedder {
                seen: 0,
                shed_mod,
                expire_mod,
            }),
        );
        let got = Rc::new(RefCell::new(0u64));
        sim.add_app(dst, Box::new(Counter { got: got.clone() }));
        sim.add_app(
            src,
            Box::new(Blaster {
                dst: addr(10, 0, 2, 1),
                n,
                size: 64,
                gap_us,
            }),
        );
        // A second flow into the void: no route, so every send is a
        // policy drop at the source.
        sim.add_app(
            src,
            Box::new(Blaster {
                dst: addr(10, 9, 9, 9),
                n: 8,
                size: 64,
                gap_us: 500,
            }),
        );
        sim.run_until(SimTime::from_secs(60));

        let nodes = [src, r, dst];
        let policy: u64 = nodes.iter().map(|&i| sim.node(i).dropped).sum();
        let cpu: u64 = nodes.iter().map(|&i| sim.node(i).cpu_drops).sum();
        let shed: u64 = nodes.iter().map(|&i| sim.node(i).shed).sum();
        assert_eq!(policy, 8, "case {case}: exactly the unroutable flow");
        assert!(cpu > 0, "case {case}: the router CPU queue must overflow");
        assert!(shed > 0, "case {case}: the hook must shed");
        assert_eq!(
            sim.total_node_drops,
            policy + cpu + shed,
            "case {case}: total {} != policy {policy} + cpu {cpu} + shed {shed}",
            sim.total_node_drops
        );
        // Conservation still closes for the routable flow: every
        // datagram was delivered or charged to exactly one bucket.
        assert_eq!(
            *got.borrow() + sim.total_link_drops + cpu + shed,
            u64::from(n),
            "case {case}: conservation"
        );
    }
}

/// Identical seeds and parameters give identical outcomes.
#[test]
fn determinism() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xC0DE_1000 + case);
        let seed = rng.next_u64();
        let n = 1 + rng.next_below(59) as u32;
        let run = || {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a", 1);
            let b = sim.add_host("b", 2);
            sim.add_link(
                LinkSpec {
                    kbps: 900,
                    delay: Duration::from_millis(1),
                    queue_pkts: 4,
                },
                &[a, b],
            );
            sim.compute_routes();
            let got = Rc::new(RefCell::new(0u64));
            sim.add_app(b, Box::new(Counter { got: got.clone() }));
            sim.add_app(
                a,
                Box::new(Blaster {
                    dst: 2,
                    n,
                    size: 700,
                    gap_us: 300,
                }),
            );
            sim.run_until(SimTime::from_secs(60));
            let delivered = *got.borrow();
            (delivered, sim.total_link_drops)
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

/// Mini-TCP delivers the exact byte stream whatever subset of segments
/// the wire drops (as long as it is finite).
#[test]
fn tcp_survives_arbitrary_loss() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xC0DE_2000 + case);
        let len = 1 + rng.next_below(19_999) as usize;
        let drops: BTreeSet<usize> = (0..rng.next_below(12))
            .map(|_| 1 + rng.next_below(199) as usize)
            .collect();

        let mut now = SimTime::ZERO;
        let cfg = TcpConfig {
            max_retries: 50,
            ..TcpConfig::default()
        };
        let (mut c, syn) = TcpSocket::connect(cfg, (1, 5000), (2, 80), now);
        let (mut s, synack) = TcpSocket::accept(cfg, (2, 80), &syn, now).unwrap();
        let ev = c.on_segment(&synack, now);
        let mut wire: Vec<(bool, Packet)> = ev.to_send.into_iter().map(|p| (true, p)).collect();

        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let ev = c.send(&data, now);
        wire.extend(ev.to_send.into_iter().map(|p| (true, p)));

        let mut received = Vec::new();
        let mut count = 0usize;
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 100_000, "case {case}: did not converge");
            if let Some((to_s, pkt)) = wire.first().cloned() {
                wire.remove(0);
                count += 1;
                if drops.contains(&count) {
                    continue; // eaten by the wire
                }
                let ev = if to_s {
                    let ev = s.on_segment(&pkt, now);
                    received.extend(s.take_received());
                    ev
                } else {
                    c.on_segment(&pkt, now)
                };
                wire.extend(ev.to_send.into_iter().map(|p| (!to_s, p)));
            } else {
                if received.len() >= data.len() && c.in_flight() == 0 {
                    break;
                }
                now += Duration::from_millis(250);
                let e1 = c.on_tick(now);
                let e2 = s.on_tick(now);
                assert!(!e1.failed && !e2.failed, "case {case}: connection died");
                wire.extend(e1.to_send.into_iter().map(|p| (true, p)));
                wire.extend(e2.to_send.into_iter().map(|p| (false, p)));
            }
        }
        assert_eq!(received, data, "case {case}");
    }
}

/// Sends `n` datagrams to `dst` on a timer; every fifth carries a
/// deadline `deadline_us` ahead, tight enough that some expire in
/// flight. `neighbor` sends straight to the adjacent node instead of
/// routing.
struct Mixer {
    dst: u32,
    n: u32,
    size: usize,
    gap_us: u64,
    deadline_us: u64,
    neighbor: bool,
}
impl App for Mixer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_micros(self.gap_us), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.n == 0 {
            return;
        }
        self.n -= 1;
        let mut pkt = Packet::udp(
            api.addr(),
            self.dst,
            7,
            9,
            Bytes::from(vec![self.n as u8; self.size]),
        );
        if self.n.is_multiple_of(5) {
            pkt.lineage.deadline_ns = api.now().as_nanos() + self.deadline_us * 1_000;
        }
        if self.neighbor {
            api.send_to_neighbor(self.dst, pkt);
        } else {
            api.send(pkt);
        }
        api.set_timer(Duration::from_micros(self.gap_us), 0);
    }
}

/// Answers every datagram on port 9 with one on port 10, and loops
/// every eighth back to itself.
struct Echo {
    seen: u64,
}
impl App for Echo {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        if pkt.udp_hdr().is_none_or(|u| u.dport != 9) {
            return;
        }
        self.seen += 1;
        let to = if self.seen.is_multiple_of(8) {
            api.addr()
        } else {
            pkt.ip.src
        };
        api.send(Packet::udp(api.addr(), to, 9, 10, pkt.payload));
    }
}

/// A hook that only watches (overheard traffic included).
struct Tap {
    overheard: Rc<RefCell<u64>>,
}
impl PacketHook for Tap {
    fn on_packet(
        &mut self,
        _api: &mut NodeApi<'_>,
        pkt: Packet,
        meta: &ArrivalMeta,
    ) -> HookVerdict {
        *self.overheard.borrow_mut() += u64::from(meta.overheard);
        HookVerdict::Pass(pkt)
    }
}

/// One seeded run through every way a packet can leave the datapath: a
/// shared segment with an overhearing tap, multicast fan-out through a
/// subscribed router, a slow link that tail-drops, a CPU-modelled
/// router that overflows and is crashed with work queued, a link flap,
/// a partition, deadlines that expire in flight, self-sends, and loss +
/// duplication + corruption + jitter. Returns the digest of the full
/// trace and the event count.
fn chaos_mix_digest(seed: u64) -> u64 {
    use netsim::{FaultAction, FaultPlan, LinkFaults};
    use planp_telemetry::{TraceConfig, TraceEvent};

    let mut rng = SplitMix64::new(seed);
    let group = addr(224, 1, 1, 1);
    let mut sim = Sim::new(seed);
    sim.telemetry.trace.configure(TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::all()
    });
    let s1 = sim.add_host("s1", addr(10, 0, 0, 1));
    let s2 = sim.add_host("s2", addr(10, 0, 0, 2));
    let h3 = sim.add_host("h3", addr(10, 0, 0, 3));
    let r1 = sim.add_router("r1", addr(10, 0, 0, 254));
    let r2 = sim.add_router("r2", addr(10, 0, 1, 254));
    let d1 = sim.add_host("d1", addr(10, 0, 2, 1));
    let d2 = sim.add_host("d2", addr(10, 0, 3, 1));
    let seg = sim.add_link(LinkSpec::ethernet_10(), &[s1, s2, r1, h3]);
    let slow = sim.add_link(
        LinkSpec {
            kbps: 1_500 + rng.next_below(1_000),
            delay: Duration::from_micros(200),
            queue_pkts: 3 + rng.next_below(3) as usize,
        },
        &[r1, r2],
    );
    let l1 = sim.add_link(LinkSpec::ethernet_10(), &[r2, d1]);
    let l2 = sim.add_link(LinkSpec::ethernet_10(), &[r2, d2]);
    sim.compute_routes();
    for (node, link) in [(s1, seg), (r1, slow), (r2, l1), (r2, l2)] {
        sim.add_mcast_route(node, group, link);
    }
    for node in [h3, r1, d1, d2] {
        sim.subscribe(node, group);
    }
    sim.set_cpu(
        r2,
        CpuModel {
            per_packet: Duration::from_micros(1_600 + rng.next_below(400)),
            queue_cap: 4,
        },
    );
    let overheard = Rc::new(RefCell::new(0u64));
    sim.install_hook(
        h3,
        Box::new(Tap {
            overheard: overheard.clone(),
        }),
    );
    let got = Rc::new(RefCell::new(0u64));
    for d in [d1, d2, h3] {
        sim.add_app(d, Box::new(Counter { got: got.clone() }));
    }
    sim.add_app(d1, Box::new(Echo { seen: 0 }));
    sim.add_app(d2, Box::new(Echo { seen: 0 }));
    let flows = [
        (s1, addr(10, 0, 2, 1), false),
        (s2, addr(10, 0, 3, 1), false),
        (s1, group, false),
        (s2, addr(10, 0, 0, 254), true),
    ];
    for (src, dst, neighbor) in flows {
        sim.add_app(
            src,
            Box::new(Mixer {
                dst,
                n: 400 + rng.next_below(200) as u32,
                size: 32 + rng.next_below(700) as usize,
                gap_us: 900 + rng.next_below(900),
                deadline_us: 2_000 + rng.next_below(6_000),
                neighbor,
            }),
        );
    }
    let noisy = LinkFaults {
        loss: 0.05 + rng.next_f64() * 0.1,
        corrupt: 0.1,
        duplicate: 0.05 + rng.next_f64() * 0.1,
        jitter_ms: 0.5 + rng.next_f64(),
    };
    sim.apply_fault_plan(
        FaultPlan::new()
            .at(
                0.0,
                FaultAction::SetLinkFaults {
                    link: l1,
                    faults: noisy,
                },
            )
            .at(
                0.0,
                FaultAction::SetLinkFaults {
                    link: seg,
                    faults: LinkFaults {
                        duplicate: 0.03,
                        ..LinkFaults::loss(0.03)
                    },
                },
            )
            .at(0.05, FaultAction::LinkDown { link: l2 })
            .at(0.12, FaultAction::LinkUp { link: l2 })
            .at(
                0.15,
                FaultAction::Partition {
                    groups: vec![vec![s2], vec![r1]],
                },
            )
            .at(0.22, FaultAction::HealPartition)
            .crash_restart(0.25 + rng.next_f64() * 0.05, 0.33, r2),
    );

    let cap = 10_000_000;
    assert!(sim.run_to_idle(cap) < cap, "seed {seed:#x}: did not drain");
    assert_eq!(sim.packets_at_rest(), 0, "seed {seed:#x}: leaked slots");

    // Both drop identities.
    let link_drops: u64 = sim.links().map(|l| l.drops + l.fault_drops).sum();
    assert_eq!(sim.total_link_drops, link_drops, "seed {seed:#x}");
    let node_drops: u64 = sim.nodes().map(|n| n.dropped + n.cpu_drops + n.shed).sum();
    assert_eq!(sim.total_node_drops, node_drops, "seed {seed:#x}");
    // Every exit was taken at least once.
    let f = sim.faults.stats;
    for (what, n) in [
        ("delivered", *got.borrow()),
        ("overheard", *overheard.borrow()),
        ("tail drops", sim.link(slow).drops),
        ("cpu overflow", sim.node(r2).cpu_drops),
        ("deadline", sim.nodes().map(|n| n.shed).sum()),
        ("loss", f.loss_drops),
        ("corrupt", f.corrupted),
        ("duplicate", f.duplicated),
        ("jitter", f.jittered),
        ("link down", f.link_down_drops),
        ("partition", f.partition_drops),
        ("crash", f.crashes),
    ] {
        assert!(n > 0, "seed {seed:#x}: no {what}");
    }
    // Every drop counted at r2 has its trace event (drops on the wire
    // are traced at a node but counted on the link) — the work its CPU
    // queue held when it crashed too: `node_down` drops at the crash's
    // own instant.
    let on_the_wire = [
        DropReason::FaultLoss,
        DropReason::LinkFaultDown,
        DropReason::Partitioned,
    ];
    let r2_id = r2.0 as u32;
    let crashed_at = (sim.telemetry.trace.events())
        .find_map(|e| match e {
            TraceEvent::Fault {
                t_ns,
                kind,
                node: Some(n),
                ..
            } if &*kind == "crash" && n == r2_id => Some(t_ns),
            _ => None,
        })
        .expect("r2 crashed");
    let (mut traced, mut lost_in_crash) = (0, 0);
    for e in sim.telemetry.trace.events() {
        if let TraceEvent::NodeDrop {
            t_ns, node, reason, ..
        } = e
        {
            if node == r2_id && !on_the_wire.contains(&reason) {
                traced += 1;
                if reason == DropReason::NodeDown && t_ns == crashed_at {
                    lost_in_crash += 1;
                }
            }
        }
    }
    let r2n = sim.node(r2);
    assert_eq!(sim.telemetry.trace.evicted(), 0);
    assert_eq!(
        r2n.dropped + r2n.cpu_drops + r2n.shed,
        traced,
        "seed {seed:#x}: a drop at r2 without its trace event"
    );
    assert!(
        lost_in_crash > 0,
        "seed {seed:#x}: crash with an empty CPU queue"
    );

    let events = sim.metrics_snapshot().counters["sim.events_processed"];
    let mut h = Fnv::default();
    h.write(sim.telemetry.trace.to_jsonl().as_bytes());
    h.write(&events.to_le_bytes());
    h.finish()
}

/// No packet slot outlives its packet, and no event moves: the digests
/// were computed before the scheduler held handles instead of packets,
/// and re-pinned when the work a crash finds in a CPU queue became
/// traced `node_down` drops (the event counts held).
#[test]
fn chaos_mix_leaks_no_slot_and_keeps_event_order() {
    for (seed, digest) in [
        (0x51AB_0001u64, 0x9CC2_F9DF_712B_8334u64),
        (0x51AB_0002, 0x5710_2CA5_13A5_957B),
        (0x51AB_0003, 0x3224_3C98_13DF_089B),
    ] {
        assert_eq!(chaos_mix_digest(seed), digest, "seed {seed:#x}");
    }
}
