//! One event per hop must be invisible: a transmission whose completion
//! never enters the event queue has to leave the same trace, the same
//! counters and the same readings as one whose `TxDone` fired.
//!
//! Nothing here needs a switch. The simulator elides a completion only
//! when the `link` trace category is off, so running a scenario with
//! and without that category *is* the differential; slicing a run into
//! `run_until` steps moves the horizon under in-flight transmissions;
//! and the digests in [`NO_LINK_PINS`] were computed at the commit
//! before elision existed, so the order is held to the old one and not
//! only to itself.
//!
//! One arrival per transmission (the copies of a shared-segment
//! transmission travel as one event, and a copy nothing can observe is
//! never made) is held the same way. The simulator merges the copies
//! only on a link with no impairment configured, so an impairment too
//! small ever to fire is that differential's axis; `shared_segment`'s
//! pin was computed at the commit before the merge existed.

use bytes::Bytes;
use netsim::digest::Fnv;
use netsim::packet::{addr, Packet};
use netsim::rng::SplitMix64;
use netsim::{
    App, ArrivalMeta, CpuModel, FaultAction, FaultEvent, FaultPlan, HookVerdict, LinkFaults,
    LinkId, LinkSpec, NodeApi, NodeId, PacketHook, Sim, SimTime, Watch,
};
use planp_telemetry::{Category, CounterSel, HealthMonitor, MetricsSnapshot, SloRule, TraceConfig};
use std::cell::RefCell;
use std::hash::Hasher;
use std::rc::Rc;
use std::time::Duration;

/// Sends `n` datagrams to `dsts` in rotation, `burst` back to back,
/// then sleeps an irregular gap drawn from the node's own rng.
struct Pulse {
    dsts: Vec<u32>,
    n: u32,
    size: usize,
    burst: u32,
    gap_us: u64,
}
impl App for Pulse {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let first = 1 + api.rand_below(self.gap_us);
        api.set_timer(Duration::from_micros(first), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        for _ in 0..self.burst.min(self.n) {
            self.n -= 1;
            let dst = self.dsts[self.n as usize % self.dsts.len()];
            let payload = Bytes::from(vec![self.n as u8; self.size]);
            api.send(Packet::udp(api.addr(), dst, 7, 9, payload));
        }
        if self.n > 0 {
            let gap_ns = (self.gap_us / 2 + api.rand_below(self.gap_us)) * 1_000;
            let gap_ns = gap_ns + api.rand_below(1_000);
            api.set_timer(Duration::from_nanos(gap_ns), 0);
        }
    }
}

/// Answers every datagram on port 9 with a third of its payload.
struct Echo;
impl App for Echo {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        if pkt.udp_hdr().is_some_and(|u| u.dport == 9) {
            let reply = pkt.payload.slice(0..pkt.payload.len() / 3);
            api.send(Packet::udp(api.addr(), pkt.ip.src, 9, 10, reply));
        }
    }
}

/// A router hook that reads the outgoing link's load and queue for
/// every packet — what a `linkLoad`-driven ASP does — and folds the
/// readings into the metrics registry, where a stale one shows.
struct Probe;
impl PacketHook for Probe {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, _m: &ArrivalMeta) -> HookVerdict {
        let kbps = api.measured_kbps_toward(pkt.ip.dst) as u64;
        let qlen = api.queue_len_toward(pkt.ip.dst) as u64;
        let m = &mut api.telemetry().metrics;
        m.add("probe.kbps_sum", kbps);
        m.observe("probe.qlen", qlen);
        HookVerdict::Pass(pkt)
    }
}

fn trace(categories: Category) -> TraceConfig {
    TraceConfig {
        categories,
        capacity: 1 << 21,
        ..TraceConfig::default()
    }
}

/// The chaos experiment's relay chain without the chaos: three flows of
/// different sizes from the source, echoed by the destination, a probe
/// on every relay. No two links have the same speed, so a packet never
/// arrives at the nanosecond the one ahead of it leaves the next link
/// (the one coincidence the causal tie-break orders differently; see
/// `an_arrival_tied_with_the_completion_ahead_goes_first`).
fn relay_chain(cfg: TraceConfig, _monitor: bool) -> Sim {
    let mut sim = Sim::new(0xE11D_0001);
    sim.telemetry.trace.configure(cfg);
    let src = sim.add_host("source", addr(10, 0, 0, 1));
    let mut prev = src;
    for (i, kbps) in [10_000, 9_400, 10_700, 8_900].into_iter().enumerate() {
        let r = sim.add_router(&format!("r{}", i + 1), addr(10, 0, i as u8 + 1, 254));
        let spec = LinkSpec {
            kbps,
            ..LinkSpec::ethernet_10()
        };
        sim.add_link(spec, &[prev, r]);
        sim.install_hook(r, Box::new(Probe));
        prev = r;
    }
    let dst = sim.add_host("dst", addr(10, 0, 5, 1));
    sim.add_link(
        LinkSpec {
            kbps: 9_800,
            ..LinkSpec::ethernet_10()
        },
        &[prev, dst],
    );
    sim.compute_routes();
    sim.add_app(dst, Box::new(Echo));
    for (n, size, burst, gap_us) in [
        (500, 90, 1, 1_500),
        (300, 700, 2, 5_900),
        (150, 1_300, 3, 18_100),
    ] {
        sim.add_app(
            src,
            Box::new(Pulse {
                dsts: vec![addr(10, 0, 5, 1)],
                n,
                size,
                burst,
                gap_us,
            }),
        );
    }
    sim
}

/// The shape of the cluster `smoke()` run: clients on 100 Mb/s links, an
/// aggregation router, a fat link to a CPU-modelled gateway, CPU-bound
/// backends that answer, two rolling crashes, and a health monitor that
/// reads link counters and the hop-latency histogram every 20 ms.
fn cluster_shape(cfg: TraceConfig, monitor: bool) -> Sim {
    let mut sim = Sim::new(0xE11D_0002);
    sim.telemetry.trace.configure(cfg);
    let agg = sim.add_router("agg", addr(10, 0, 0, 254));
    let gw = sim.add_router("gw", addr(10, 0, 0, 253));
    sim.add_link(
        LinkSpec {
            kbps: 1_000_000,
            delay: Duration::from_micros(20),
            queue_pkts: 512,
        },
        &[agg, gw],
    );
    sim.set_cpu(
        gw,
        CpuModel {
            per_packet: Duration::from_micros(2),
            queue_cap: 1024,
        },
    );
    let clients: Vec<NodeId> = (0..4u8)
        .map(|i| {
            let c = sim.add_host(&format!("c{i}"), addr(10, 1, 0, i + 1));
            sim.add_link(LinkSpec::ethernet_100(), &[c, agg]);
            c
        })
        .collect();
    let mut backends = Vec::new();
    for i in 0..8u8 {
        let b = sim.add_host(&format!("b{i}"), addr(10, 2, 0, i + 1));
        sim.add_link(LinkSpec::ethernet_100(), &[gw, b]);
        sim.set_cpu(
            b,
            CpuModel {
                per_packet: Duration::from_micros(400 / [1, 2, 4][usize::from(i % 3)]),
                queue_cap: 16,
            },
        );
        sim.add_app(b, Box::new(Echo));
        backends.push(b);
    }
    sim.compute_routes();
    sim.install_hook(agg, Box::new(Probe));
    for (i, &c) in clients.iter().enumerate() {
        sim.add_app(
            c,
            Box::new(Pulse {
                dsts: (0..8u8).map(|b| addr(10, 2, 0, b + 1)).collect(),
                n: 900,
                size: 120 + 40 * i,
                burst: 1 + i as u32 % 2,
                gap_us: 260,
            }),
        );
    }
    sim.apply_fault_plan(
        FaultPlan::new()
            .crash_restart(0.0603, 0.1207, backends[0])
            .crash_restart(0.0911, 0.1502, backends[4]),
    );
    if monitor {
        sim.instruments.watch = Some(Watch::new(
            HealthMonitor::new(20_000_000)
                .rule(SloRule::CounterCeiling {
                    name: "trunk_pkts".into(),
                    sel: CounterSel::exact("link0.tx_packets"),
                    ceiling: 400,
                })
                .rule(SloRule::CounterCeiling {
                    name: "events".into(),
                    sel: CounterSel::exact("sim.events_processed"),
                    ceiling: 5_000,
                })
                .rule(SloRule::QuantileCeiling {
                    name: "hop_p99".into(),
                    hist: "sim.hop_latency_ns".into(),
                    q_pm: 990,
                    ceiling: 30_000,
                }),
            None,
        ));
    }
    sim
}

/// Bursts over a slow link: the queue builds, completions materialise,
/// the tail drops; a thin flow runs the other way.
fn slow_burst(cfg: TraceConfig, _monitor: bool) -> Sim {
    let mut sim = Sim::new(0xE11D_0003);
    sim.telemetry.trace.configure(cfg);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_100(), &[a, r]);
    sim.add_link(
        LinkSpec {
            kbps: 2_000,
            delay: Duration::from_micros(300),
            queue_pkts: 6,
        },
        &[r, b],
    );
    sim.compute_routes();
    sim.install_hook(r, Box::new(Probe));
    sim.add_app(b, Box::new(Echo));
    sim.add_app(
        a,
        Box::new(Pulse {
            dsts: vec![addr(10, 0, 1, 1)],
            n: 600,
            size: 400,
            burst: 10,
            gap_us: 14_000,
        }),
    );
    sim.add_app(
        b,
        Box::new(Pulse {
            dsts: vec![addr(10, 0, 0, 1)],
            n: 150,
            size: 60,
            burst: 1,
            gap_us: 5_300,
        }),
    );
    sim
}

/// Counts what a host's NIC hands up on a shared segment, overheard or
/// not, and reads the segment's load for each packet.
struct Tap;
impl PacketHook for Tap {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, m: &ArrivalMeta) -> HookVerdict {
        let kbps = api.measured_kbps_toward(pkt.ip.dst) as u64;
        let metrics = &mut api.telemetry().metrics;
        let seen = ["tap.addressed", "tap.overheard"][usize::from(m.overheard)];
        metrics.add(seen, 1);
        metrics.add("tap.kbps_sum", kbps);
        HookVerdict::Pass(pkt)
    }
}

/// Puts the tap back after a crash took it with the node.
struct Retap;
impl App for Retap {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        api.install_hook(Box::new(Tap));
    }
}

const GROUP: u32 = addr(224, 0, 0, 5);
const SEGMENT: LinkId = LinkId(0);

/// The setting of the paper's two headline experiments: hosts on one
/// shared Ethernet segment. Seven attached nodes, so every transmission
/// has six copies; a tapped host in the middle of the attachment order
/// and two hookless hosts at its end, so the last attached node is
/// usually one that needs no copy; a flow each way through a
/// CPU-modelled gateway to a server behind it, a flow between two hosts
/// of the segment (the receiver CPU-modelled too, with a queue short
/// enough to overflow), a multicast flow every node receives for real,
/// and a crash each for the tap and for a receiver.
fn shared_segment(cfg: TraceConfig, monitor: bool) -> Sim {
    let mut sim = Sim::new(0xE11D_0004);
    sim.telemetry.trace.configure(cfg);
    let h: Vec<NodeId> = (0..5u8)
        .map(|i| sim.add_host(&format!("h{i}"), addr(10, 0, 0, i + 1)))
        .collect();
    let tap = sim.add_host("tap", addr(10, 0, 0, 9));
    let gw = sim.add_router("gw", addr(10, 0, 0, 254));
    let server = sim.add_host("server", addr(10, 0, 1, 1));
    let seg = sim.add_link(
        LinkSpec::ethernet_10(),
        &[h[0], h[1], tap, h[2], gw, h[3], h[4]],
    );
    assert_eq!(seg, SEGMENT);
    sim.add_link(LinkSpec::ethernet_100(), &[gw, server]);
    sim.compute_routes();
    sim.set_cpu(
        gw,
        CpuModel {
            per_packet: Duration::from_micros(30),
            queue_cap: 16,
        },
    );
    sim.set_cpu(
        h[1],
        CpuModel {
            per_packet: Duration::from_micros(1_400),
            queue_cap: 1,
        },
    );
    sim.install_hook(tap, Box::new(Tap));
    sim.add_app(tap, Box::new(Retap));
    sim.add_mcast_route(h[3], GROUP, seg);
    for n in [h[0], h[4]] {
        sim.subscribe(n, GROUP);
    }
    for n in [server, h[1], h[4]] {
        sim.add_app(n, Box::new(Echo));
    }
    for (from, dst, n, size, burst, gap_us) in [
        (h[0], addr(10, 0, 1, 1), 400, 300, 2, 2_100),
        (server, addr(10, 0, 0, 5), 150, 100, 1, 5_300),
        (h[2], addr(10, 0, 0, 2), 300, 700, 2, 4_300),
        (h[3], GROUP, 200, 500, 1, 3_100),
    ] {
        sim.add_app(
            from,
            Box::new(Pulse {
                dsts: vec![dst],
                n,
                size,
                burst,
                gap_us,
            }),
        );
    }
    sim.apply_fault_plan(
        FaultPlan::new()
            .crash_restart(0.0607, 0.1203, tap)
            .crash_restart(0.0911, 0.1502, h[1]),
    );
    if monitor {
        sim.instruments.watch = Some(Watch::new(
            HealthMonitor::new(20_000_000)
                .rule(SloRule::CounterCeiling {
                    name: "segment_pkts".into(),
                    sel: CounterSel::exact("link0.tx_packets"),
                    ceiling: 60,
                })
                .rule(SloRule::CounterCeiling {
                    name: "events".into(),
                    sel: CounterSel::exact("sim.events_processed"),
                    ceiling: 400,
                })
                .rule(SloRule::QuantileCeiling {
                    name: "hop_p99".into(),
                    hist: "sim.hop_latency_ns".into(),
                    q_pm: 990,
                    ceiling: 2_000_000,
                }),
            None,
        ));
    }
    sim
}

type Build = fn(TraceConfig, bool) -> Sim;
const SCENARIOS: [(&str, Build, u64); 4] = [
    ("relay_chain", relay_chain, 2_000),
    ("cluster_shape", cluster_shape, 400),
    ("slow_burst", slow_burst, 1_500),
    ("shared_segment", shared_segment, 1_000),
];
const NO_LINK: Category = Category(Category::ALL.0 & !Category::LINK.0);

/// What a run leaves behind, with the `link` events and the trace's own
/// counters taken out: the part that must not depend on whether the
/// `link` category was on.
#[derive(Debug)]
struct Outcome {
    jsonl: String,
    snapshot: MetricsSnapshot,
    elided: u64,
}

impl Outcome {
    fn of(sim: &Sim) -> Outcome {
        assert_eq!(sim.telemetry.trace.evicted(), 0);
        let mut jsonl = String::new();
        for ev in sim.telemetry.trace.events() {
            if ev.category() != Category::LINK {
                ev.write_json(&mut jsonl);
                jsonl.push('\n');
            }
        }
        let mut snapshot = sim.metrics_snapshot();
        snapshot
            .counters
            .retain(|k, _| !k.starts_with("sim.trace_"));
        Outcome {
            jsonl,
            snapshot,
            elided: sim.events_elided(),
        }
    }

    fn events(&self) -> u64 {
        self.snapshot.counters["sim.events_processed"]
    }

    /// Same trace, same counters — compared line by line, so a failure
    /// names the first line that differs.
    fn assert_same(&self, other: &Outcome, name: &str) {
        for (a, b) in self.jsonl.lines().zip(other.jsonl.lines()) {
            assert_eq!(a, b, "{name}: first differing trace line");
        }
        assert_eq!(self.jsonl.len(), other.jsonl.len(), "{name}: trace length");
        assert_eq!(self.snapshot, other.snapshot, "{name}");
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.write(self.jsonl.as_bytes());
        h.write(self.snapshot.to_json().as_bytes());
        h.finish()
    }
}

fn run_whole(build: Build, cats: Category, monitor: bool, ms: u64) -> Outcome {
    let mut sim = build(trace(cats), monitor);
    sim.run_until(SimTime::from_ms(ms));
    assert_eq!(sim.packets_at_rest(), 0, "not drained by {ms} ms");
    Outcome::of(&sim)
}

/// (a) The selection input is the differential axis: with the `link`
/// category on no completion is elided, with it off most are, and
/// everything but the `link` events themselves must agree.
#[test]
fn link_tracing_on_and_off_agree_on_everything_else() {
    for (name, build, ms) in SCENARIOS {
        let traced = run_whole(build, Category::ALL, true, ms);
        let elided = run_whole(build, NO_LINK, true, ms);
        // A link-traced run elides no completion. What it still counts
        // are arrivals that travelled with another: five of the six
        // copies of every transmission on the seven-node segment.
        let merged = match name {
            "shared_segment" => 5 * traced.snapshot.counters["link0.tx_packets"],
            _ => 0,
        };
        assert_eq!(traced.elided, merged, "{name}: a completion elided");
        assert!(
            elided.elided * 10 > elided.events(),
            "{name}: only {} of {} events elided",
            elided.elided,
            elided.events()
        );
        traced.assert_same(&elided, name);
    }
}

/// (b) Slicing a run moves the horizon under transmissions in flight;
/// the outcome may not depend on where the cuts fall. (The monitor is
/// left out: it evaluates at the end of every `run_until`, so slicing
/// moves its windows at any commit.)
#[test]
fn sliced_runs_match_one_call() {
    for (name, build, ms) in SCENARIOS {
        let whole = run_whole(build, NO_LINK, false, ms);
        for seed in [1u64, 2, 3] {
            let mut rng = SplitMix64::new(0x511C_E000 + seed);
            let mut sim = build(trace(NO_LINK), false);
            let (mut t, end) = (0, ms * 1_000_000);
            while t < end {
                // From single nanoseconds up to a few milliseconds.
                t = (t + (1 << rng.next_below(23)) + rng.next_below(1_000)).min(end);
                sim.run_until(SimTime(t));
            }
            assert_eq!(sim.packets_at_rest(), 0, "{name} seed {seed}");
            let sliced = Outcome::of(&sim);
            assert_eq!(sliced.digest(), whole.digest(), "{name} seed {seed}");
            assert_eq!(sliced.events(), whole.events(), "{name} seed {seed}");
            assert!(sliced.elided > 0 && sliced.elided <= whole.elided);
        }
        // Capped `run_to_idle` steps cut between any two events and
        // leave transmissions in flight, their completions materialised.
        let mut rng = SplitMix64::new(0x511C_E000);
        let mut sim = build(trace(NO_LINK), false);
        let mut ran = 0;
        while let n @ 1.. = sim.run_to_idle(1 + rng.next_below(40)) {
            ran += n;
        }
        let stepped = Outcome::of(&sim);
        assert_eq!(stepped.digest(), whole.digest(), "{name} stepped");
        assert_eq!((ran, sim.packets_at_rest()), (whole.events(), 0));
    }
}

/// (c) `(digest, sim.events_processed)` of each scenario with every
/// category but `link`, monitor on — computed at the parent commit,
/// where every completion was a queued `TxDone` (for `shared_segment`,
/// at f23e358: where every copy was a queued `Arrive`). `cluster_shape`
/// and `shared_segment` were re-pinned when the work a crash finds in a
/// CPU queue became traced `node_down` drops; their event counts held.
const NO_LINK_PINS: [(u64, u64); 4] = [
    (0xB8D3_C61E_FA7C_656B, 19_700),
    (0x44BD_BB13_C09E_4E5C, 53_882),
    (0x3A23_B661_1535_FD49, 3_296),
    (0xBEDF_AC4F_8B0D_F3E7, 17_813),
];

#[test]
fn outcomes_match_the_commit_before_elision() {
    for ((name, build, ms), pin) in SCENARIOS.into_iter().zip(NO_LINK_PINS) {
        let out = run_whole(build, NO_LINK, true, ms);
        assert_eq!(
            (out.digest(), out.events()),
            pin,
            "{name}: ({:#018X}, {})",
            out.digest(),
            out.events()
        );
    }
}

// ---- (d) faults that land inside a transmission ---------------------------

struct Counter(Rc<RefCell<u64>>);
impl App for Counter {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        *self.0.borrow_mut() += 1;
    }
}

/// Sends one 1250-byte-payload datagram every 10 ms from 1 ms on: each
/// occupies the 10 Mb/s link for a little over a millisecond.
struct Metronome {
    dst: u32,
    n: u32,
}
impl App for Metronome {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_millis(1), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.n > 0 {
            self.n -= 1;
            let payload = Bytes::from(vec![0u8; 1250]);
            api.send(Packet::udp(api.addr(), self.dst, 1, 2, payload));
            api.set_timer(Duration::from_millis(10), 0);
        }
    }
}

type Disturb<'a> = dyn Fn(&mut Sim, LinkId, [NodeId; 2]) + 'a;

/// Three transmissions at 1, 11 and 21 ms over one link, with whatever
/// `setup` schedules. `mid`, if given, gets the simulator between two
/// slices at 11.5 ms, in the middle of the second transmission. Returns
/// (delivered, loss drops, partition drops, events).
fn three_transmissions(
    setup: impl Fn(&mut Sim, LinkId, [NodeId; 2]),
    mid: Option<&Disturb<'_>>,
) -> (u64, u64, u64, u64) {
    let mut sim = Sim::new(5);
    let a = sim.add_host("a", 1);
    let b = sim.add_host("b", 2);
    let link = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
    sim.compute_routes();
    let got = Rc::new(RefCell::new(0));
    sim.add_app(b, Box::new(Counter(got.clone())));
    sim.add_app(a, Box::new(Metronome { dst: 2, n: 3 }));
    setup(&mut sim, link, [a, b]);
    if let Some(mid) = mid {
        sim.run_until(SimTime::from_us(11_500));
        mid(&mut sim, link, [a, b]);
    }
    sim.run_until(SimTime::from_ms(40));
    assert_eq!(sim.packets_at_rest(), 0);
    let f = sim.faults.stats;
    let events = sim.metrics_snapshot().counters["sim.events_processed"];
    let delivered = *got.borrow();
    (delivered, f.loss_drops, f.partition_drops, events)
}

/// (d) The outcomes are the parent commit's: the second copy is lost,
/// the first and third arrive.
#[test]
fn a_fault_inside_a_transmission_takes_the_copy_in_flight() {
    let lossy = LinkFaults::loss(1.0);
    let clear_at_15ms = |sim: &mut Sim, link| {
        let faults = LinkFaults::default();
        sim.apply_fault_plan(
            FaultPlan::new().at(0.015, FaultAction::SetLinkFaults { link, faults }),
        );
    };
    // Scheduled inside one `run_until`: loss from 11.5 ms to 15 ms.
    let planned_loss = three_transmissions(
        |sim, link, _| {
            let faults = lossy;
            sim.apply_fault_plan(
                FaultPlan::new().at(0.0115, FaultAction::SetLinkFaults { link, faults }),
            );
            clear_at_15ms(sim, link);
        },
        None,
    );
    assert_eq!(planned_loss, (2, 1, 0, 11));
    // Scheduled at the very nanosecond the second transmission
    // completes: the plan was there first, so the fault goes first.
    let loss_at_the_completion = three_transmissions(
        |sim, link, _| {
            let wire = Packet::udp(1, 2, 1, 2, Bytes::from(vec![0u8; 1250])).wire_size();
            let at = SimTime::from_ms(11) + sim.link(link).tx_time(wire);
            let action = FaultAction::SetLinkFaults {
                link,
                faults: lossy,
            };
            let mut plan = FaultPlan::new();
            plan.events.push(FaultEvent { at, action });
            sim.apply_fault_plan(plan);
            clear_at_15ms(sim, link);
        },
        None,
    );
    assert_eq!(loss_at_the_completion, (2, 1, 0, 11));
    // Scheduled: a partition over the same interval.
    let planned_partition = three_transmissions(
        |sim, _, [a, b]| {
            let groups = vec![vec![a], vec![b]];
            sim.apply_fault_plan(
                FaultPlan::new()
                    .at(0.0115, FaultAction::Partition { groups })
                    .at(0.015, FaultAction::HealPartition),
            );
        },
        None,
    );
    assert_eq!(planned_partition, (2, 0, 1, 11));
    // Already in force when the second transmission starts: nothing is
    // in flight to protect, the transmission itself must not be elided.
    let partition_in_force = three_transmissions(
        |sim, _, [a, b]| {
            let groups = vec![vec![a], vec![b]];
            sim.apply_fault_plan(
                FaultPlan::new()
                    .at(0.0105, FaultAction::Partition { groups })
                    .at(0.015, FaultAction::HealPartition),
            );
        },
        None,
    );
    assert_eq!(partition_in_force, (2, 0, 1, 11));
    // Imperative, between two slices: nothing announced it.
    let between_slices = three_transmissions(
        |_, _, _| {},
        Some(&|sim, link, _| {
            sim.set_link_faults(link, lossy);
            clear_at_15ms(sim, link);
        }),
    );
    assert_eq!(between_slices, (2, 1, 0, 10));
    let partition_between_slices = three_transmissions(
        |_, _, _| {},
        Some(&|sim, _, [a, b]| {
            sim.set_partition(&[vec![a], vec![b]]);
            sim.apply_fault_plan(FaultPlan::new().at(0.015, FaultAction::HealPartition));
        }),
    );
    assert_eq!(partition_between_slices, (2, 0, 1, 10));
}

// ---- (e) link state read at the nanosecond of a completion ----------------

/// Starts one transmission at 200 ms and reads the link twice at the
/// exact nanosecond it completes: once from a timer armed before the
/// transmission started (fires ahead of the completion) and once from
/// one armed after (fires behind it).
struct EdgeReader {
    dst: u32,
    tx_ns: u64,
    seen: Rc<RefCell<Vec<(u64, i64, i64)>>>,
}
const START_MS: u64 = 200;
impl App for EdgeReader {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_nanos(START_MS * 1_000_000 + self.tx_ns), 1);
        api.set_timer(Duration::from_millis(START_MS), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        if key == 0 {
            let payload = Bytes::from(vec![0u8; 1250]);
            api.send(Packet::udp(api.addr(), self.dst, 1, 2, payload));
            api.set_timer(Duration::from_nanos(self.tx_ns), 2);
        } else {
            let reading = (
                key,
                api.queue_len_toward(self.dst),
                api.measured_kbps_toward(self.dst),
            );
            self.seen.borrow_mut().push(reading);
        }
    }
}

#[test]
fn link_state_read_on_both_sides_of_a_completion() {
    let mut sim = Sim::new(9);
    let a = sim.add_host("a", 1);
    let b = sim.add_host("b", 2);
    let link = sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
    sim.compute_routes();
    let wire = Packet::udp(1, 2, 1, 2, Bytes::from(vec![0u8; 1250])).wire_size();
    let tx_ns = sim.link(link).tx_time(wire).as_nanos() as u64;
    let seen = Rc::new(RefCell::new(Vec::new()));
    sim.add_app(
        a,
        Box::new(EdgeReader {
            dst: 2,
            tx_ns,
            seen: seen.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    // Ahead of the completion the packet still occupies the link and no
    // byte is accounted; behind it the link is idle and the window
    // holds the packet: `wire` bytes over the 201 ms elapsed.
    let kbps = (wire * 8 / 201) as i64;
    assert!(kbps > 0);
    assert_eq!(*seen.borrow(), [(1, 1, 0), (2, 0, kbps)]);
    assert_eq!(sim.events_elided(), 1);
}

// ---- (f) one arrival per transmission --------------------------------------

/// An impairment configured and never drawn (the fault stream yields a
/// value below it once in 2^53 draws, and is a stream of its own): the
/// link is not clean, so every copy is an `Arrive` of its own as at the
/// parent commit.
fn never() -> LinkFaults {
    LinkFaults::loss(f64::MIN_POSITIVE)
}

/// Merged against per-copy arrivals on `shared_segment`, with the
/// segment's completions traced and not.
#[test]
fn merged_and_per_copy_arrivals_agree_on_everything() {
    for cats in [Category::ALL, NO_LINK] {
        let run = |faults: Option<LinkFaults>| {
            let mut sim = shared_segment(trace(cats), true);
            if let Some(faults) = faults {
                sim.set_link_faults(SEGMENT, faults);
            }
            sim.run_until(SimTime::from_ms(1_000));
            assert_eq!(sim.packets_at_rest(), 0);
            assert_eq!(sim.faults.stats.loss_drops, 0);
            Outcome::of(&sim)
        };
        let (merged, per_copy) = (run(None), run(Some(never())));
        let segment = merged.snapshot.counters["link0.tx_packets"];
        assert_eq!(merged.elided - per_copy.elided, 5 * segment);
        assert!(merged.elided * 2 > merged.events(), "over half merged");
        merged.assert_same(&per_copy, "shared_segment");
    }
}

/// Notes what reaches the node it is installed on.
struct Heard(Rc<RefCell<Vec<(u64, bool)>>>);
impl PacketHook for Heard {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, m: &ArrivalMeta) -> HookVerdict {
        self.0
            .borrow_mut()
            .push((api.now().as_nanos(), m.overheard));
        HookVerdict::Pass(pkt)
    }
}

/// One datagram from `a` to `b` over a four-node segment, put on the
/// wire at 1 ms; `mid` gets the simulator halfway through the
/// propagation delay, when the transmission is over and no copy has
/// arrived. Returns the simulator drained and the arrival time.
fn one_transmission_disturbed(
    faults: LinkFaults,
    mid: impl Fn(&mut Sim, [NodeId; 4]),
) -> (Sim, [NodeId; 4], u64) {
    let mut sim = Sim::new(7);
    sim.telemetry.trace.configure(trace(Category::ALL));
    let nodes = [1, 2, 3, 4].map(|i| sim.add_host(&format!("n{i}"), i));
    let seg = sim.add_link(LinkSpec::ethernet_10(), &nodes);
    sim.compute_routes();
    sim.set_link_faults(seg, faults);
    sim.add_app(nodes[0], Box::new(Metronome { dst: 2, n: 1 }));
    let wire = Packet::udp(1, 2, 1, 2, Bytes::from(vec![0u8; 1250])).wire_size();
    let done = SimTime::from_ms(1) + sim.link(seg).tx_time(wire);
    let delay = LinkSpec::ethernet_10().delay;
    sim.run_until(done + delay / 2);
    assert_eq!(sim.link(seg).tx_packets, 1, "the transmission is over");
    mid(&mut sim, nodes);
    sim.run_until(SimTime::from_ms(20));
    // Two timers, the completion, three copies — merged or not.
    let events = sim.metrics_snapshot().counters["sim.events_processed"];
    assert_eq!((events, sim.packets_at_rest()), (6, 0));
    (sim, nodes, (done + delay).as_nanos())
}

/// Whether a copy exists is decided when it arrives. A hook installed
/// after the transmission ended still overhears it — and it is the last
/// node that needs a copy, not the last attached, that gets the slot.
#[test]
fn a_hook_installed_in_the_propagation_delay_overhears_the_copy() {
    for faults in [LinkFaults::default(), never()] {
        let heard = Rc::new(RefCell::new(Vec::new()));
        let (sim, [_, b, c, d], at) = one_transmission_disturbed(faults, |sim, [_, _, c, _]| {
            sim.install_hook(c, Box::new(Heard(heard.clone())));
        });
        assert_eq!(*heard.borrow(), [(at, true)]);
        assert_eq!(sim.node(b).delivered, 1);
        let drops = [b, c, d].map(|n| sim.node(n).dropped);
        assert_eq!((drops, sim.total_node_drops), ([0, 0, 0], 0));
        assert_eq!(sim.events_elided(), if faults.is_clean() { 2 } else { 0 });
    }
}

/// A node that crashed after the transmission ended drops its copy as
/// `NodeDown`, one drop per copy, overheard or addressed; the hookless
/// overhearer still up sees and counts nothing.
#[test]
fn a_node_crashed_in_the_propagation_delay_drops_its_copy() {
    for faults in [LinkFaults::default(), never()] {
        let (sim, [_, b, c, d], at) = one_transmission_disturbed(faults, |sim, [_, b, c, _]| {
            sim.crash_node(c);
            sim.crash_node(b);
        });
        let drops = [b, c, d].map(|n| sim.node(n).dropped);
        assert_eq!((drops, sim.total_node_drops), ([1, 1, 0], 2));
        assert_eq!(sim.node(b).delivered, 0);
        let mut jsonl = String::new();
        for ev in sim.telemetry.trace.events() {
            if ev.category() == Category::DROP {
                ev.write_json(&mut jsonl);
                jsonl.push('\n');
            }
        }
        let down = |n: NodeId| {
            format!(
                "{{\"type\":\"node_drop\",\"t_ns\":{at},\"node\":{},\"pkt\":1,\"reason\":\"node_down\"}}\n",
                n.0
            )
        };
        // In attachment order, as one `Arrive` each would have fired.
        assert_eq!(jsonl, down(b) + &down(c));
    }
}

// ---- the one order that did move ------------------------------------------

struct Stamps(Rc<RefCell<Vec<u64>>>);
impl App for Stamps {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, _pkt: Packet) {
        self.0.borrow_mut().push(api.now().as_nanos());
    }
}

struct Pair {
    dst: u32,
}
impl App for Pair {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for _ in 0..2 {
            let payload = Bytes::from(vec![0u8; 1250]);
            api.send(Packet::udp(api.addr(), self.dst, 1, 2, payload));
        }
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

/// Two equal packets back to back over two equal links: the second
/// reaches the router at the nanosecond the first leaves the router's
/// outgoing link. An arrival is caused when its transmission starts, so
/// it now sorts ahead of that completion (started later) and finds the
/// link still occupied; before, with a propagation delay shorter than
/// the transmission, the completion came first and it found the link
/// idle. Only the depth sampled at that enqueue differs — the second
/// transmission starts at the same nanosecond either way — and the
/// order is the same whether or not the completion was ever queued.
#[test]
fn an_arrival_tied_with_the_completion_ahead_goes_first() {
    for cats in [Category::ALL, NO_LINK, Category::NONE] {
        let mut sim = Sim::new(1);
        sim.telemetry.trace.configure(trace(cats));
        let a = sim.add_host("a", 1);
        let r = sim.add_router("r", 2);
        let b = sim.add_host("b", 3);
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        let out = sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let stamps = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Stamps(stamps.clone())));
        sim.add_app(a, Box::new(Pair { dst: 3 }));
        sim.run_until(SimTime::from_ms(10));
        let wire = Packet::udp(1, 3, 1, 2, Bytes::from(vec![0u8; 1250])).wire_size();
        let tx = sim.link(out).tx_time(wire).as_nanos() as u64;
        let delay = LinkSpec::ethernet_10().delay.as_nanos() as u64;
        assert!(delay < tx);
        // Store and forward, no gap between the two on either link.
        assert_eq!(*stamps.borrow(), [2 * (tx + delay), 3 * tx + 2 * delay]);
        let depth = &sim.metrics_snapshot().histograms[&format!("link{}.queue_depth", out.0)];
        assert_eq!((depth.count, depth.sum), (2, 3), "depths 1 then 2");
    }
}

// ---- satellites: time never runs backwards --------------------------------

/// A plan applied mid-run with an action dated before `now` fires at
/// `now`: the clock does not rewind and the trace stays in time order.
#[test]
fn a_fault_plan_dated_in_the_past_fires_at_the_boundary() {
    let mut sim = Sim::new(3);
    sim.telemetry.trace.configure(trace(Category::ALL));
    let a = sim.add_host("a", 1);
    let b = sim.add_host("b", 2);
    sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
    sim.compute_routes();
    sim.add_app(a, Box::new(Metronome { dst: 2, n: 3 }));
    sim.run_until(SimTime::from_ms(15));
    sim.apply_fault_plan(FaultPlan::new().crash_restart(0.002, 0.005, b));
    let mut last = sim.now();
    for step in 16..=40 {
        sim.run_until(SimTime::from_ms(step));
        assert!(sim.now() >= last, "time ran backwards at step {step}");
        last = sim.now();
    }
    let stamps: Vec<u64> = sim.telemetry.trace.events().map(|e| e.t_ns()).collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "trace out of order"
    );
    let faults: Vec<u64> = sim
        .telemetry
        .trace
        .events()
        .filter(|e| e.category() == Category::FAULT)
        .map(|e| e.t_ns())
        .collect();
    assert_eq!(
        faults,
        [15_000_000, 15_000_000],
        "crash and restart at the boundary"
    );
    assert_eq!(sim.node(b).crashes, 1);
    assert_eq!(sim.node(b).delivered, 3, "restarted at once: nothing lost");
}

// ---- state digests ---------------------------------------------------------

/// Sends one datagram to each of 32 ports at start, in the order a
/// `RandomState` set yields them: two runs of one seed queue different
/// packets behind one another.
struct Scatter {
    dst: u32,
}
impl App for Scatter {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        #[allow(clippy::disallowed_types)] // the seed-independent order this test must catch
        let ports: std::collections::HashSet<u16> = (100..132).collect();
        for port in ports {
            let payload = Bytes::from(vec![0u8; 200]);
            api.send(Packet::udp(api.addr(), self.dst, 7, port, payload));
        }
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

/// Runs `sims` side by side in `run_until` slices that double from one
/// microsecond to `ms`, and returns each slice's digests.
fn digests_by_slice(sims: &mut [Sim], ms: u64) -> Vec<Vec<u64>> {
    let (mut t, end) = (1_000, ms * 1_000_000);
    let mut slices = Vec::new();
    loop {
        let until = SimTime(t.min(end));
        let row = sims.iter_mut().map(|sim| {
            sim.run_until(until);
            sim.state_digest()
        });
        slices.push(row.collect());
        if t >= end {
            return slices;
        }
        t *= 2;
    }
}

/// (e) `Sim::state_digest` tells where a run is. Two runs of one seed
/// agree on it at every slice, and so does a run with `link` tracing on
/// (no completion elided): what only observes the run is left out.
#[test]
fn state_digests_agree_at_every_slice() {
    let picked = ["relay_chain", "cluster_shape", "shared_segment"];
    for (name, build, ms) in SCENARIOS.into_iter().filter(|s| picked.contains(&s.0)) {
        let mut sims = [
            build(trace(NO_LINK), true),
            build(trace(NO_LINK), true),
            build(trace(Category::ALL), true),
        ];
        let slices = digests_by_slice(&mut sims, ms);
        for (i, d) in slices.iter().enumerate() {
            assert_eq!(d[0], d[1], "{name}: same seed, slice {i}");
            assert_eq!(d[0], d[2], "{name}: link tracing on, slice {i}");
        }
    }
}

/// A planted `RandomState` iteration makes two runs of one seed differ.
#[test]
fn state_digests_tell_a_randomstate_order_apart() {
    for (name, build, ms) in [
        ("relay_chain", relay_chain as Build, 2_000),
        ("cluster_shape", cluster_shape, 400),
    ] {
        let mut sims = [build(trace(NO_LINK), false), build(trace(NO_LINK), false)];
        for sim in &mut sims {
            let dst = sim.node(NodeId(sim.nodes().count() - 1)).addr;
            sim.add_app(NodeId(0), Box::new(Scatter { dst }));
        }
        let slices = digests_by_slice(&mut sims, ms);
        assert!(
            slices.iter().any(|d| d[0] != d[1]),
            "{name}: no slice differs"
        );
    }
}

/// Adds `n` to one registry counter at start and does nothing else.
struct Bump {
    n: u64,
}
impl App for Bump {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.telemetry().metrics.add("test.bumped", self.n);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

/// The metrics registry is state a run carries forward (the health
/// monitor judges its counters): two runs that differ only in one
/// counter a test app bumps have different digests.
#[test]
fn state_digests_cover_the_metrics_registry() {
    let digest = |n| {
        let mut sim = relay_chain(trace(NO_LINK), false);
        sim.add_app(NodeId(0), Box::new(Bump { n }));
        sim.run_until(SimTime::from_ms(10));
        sim.state_digest()
    };
    assert_eq!(digest(0), digest(0), "same counter, same digest");
    assert_ne!(
        digest(0),
        digest(1),
        "a bumped counter left the digest unmoved"
    );
}
