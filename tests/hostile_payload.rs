//! Nothing a packet can carry panics a node (ROADMAP item 2, the slice
//! after `hostile_download.rs`): seeded byte-mutants — flip, insert,
//! delete, truncate — of
//!
//! * **payloads**, offered to every corpus ASP's installed layer
//!   (`PlanpLayer::on_packet`: `DispatchTable` → `decode_payload_into` →
//!   the channel body, on both engines) over TCP, UDP and raw IP,
//!   untagged, tagged with each of the program's own channels, with a
//!   channel name the program does not have, and with an overload index
//!   past the end of a name it does have — which must be offered to *no*
//!   channel, not index out of bounds;
//! * **in-band deploy messages** through `DeployService::on_packet`: bad
//!   magic, stray flags, a chunk index past `last`, duplicate chunks,
//!   transfers that never finish, two transfers under one id, and the
//!   mutated source itself, which a completed transfer downloads,
//!   verifies, installs — and then runs on live traffic; and ten
//!   thousand transfers opened and never finished, which the service
//!   holds no more than `MAX_TRANSFERS` of.
//!
//! Every run is a function of its seed; a failure names the seed.

use planp::analysis::Policy;
use planp::apps::corpus::CORPUS;
use planp::lang::types::{TransportKind, Type};
use planp::netsim::packet::{addr, ChannelTag, IpHdr, Packet, TcpHdr, Transport};
use planp::netsim::rng::SplitMix64;
use planp::netsim::{App, LinkSpec, NodeApi, Sim, SimTime};
use planp::runtime::{
    deploy_packets, install_planp, load, uninstall_packet, DeployService, Engine, LayerConfig,
    MANAGEMENT_PORT, MAX_TRANSFERS,
};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

/// Mutant packets per program and engine: ten times as many in an
/// optimized build.
const MUTANTS: u64 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

const A: u32 = addr(10, 0, 0, 1);
const R: u32 = addr(10, 0, 0, 254);
const B: u32 = addr(10, 0, 1, 1);
const TICK: Duration = Duration::from_micros(250);

/// One to three edits of `bytes`: flip, insert, delete, truncate.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        match rng.next_below(4) {
            0 if at < bytes.len() => bytes[at] = rng.next_below(256) as u8,
            1 => bytes.insert(at, rng.next_below(256) as u8),
            2 if at < bytes.len() => {
                let n = 1 + rng.next_below(8) as usize;
                bytes.drain(at..(at + n).min(bytes.len()));
            }
            _ => bytes.truncate(at),
        }
    }
}

/// A well-formed wire encoding of `types`.
fn encoding(types: &[Type], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = Vec::new();
    for t in types {
        match t {
            Type::Char => out.push(b'A' + rng.next_below(26) as u8),
            Type::Bool => out.push(rng.next_below(2) as u8),
            Type::Int => out.extend_from_slice(&(rng.next_below(1 << 20) as i64).to_be_bytes()),
            Type::Host => {
                out.extend_from_slice(&[A, R, B][rng.next_below(3) as usize].to_be_bytes())
            }
            Type::Str => {
                let s = ["", "GET /doc/7", "Q 7\n", "héllo"][rng.next_below(4) as usize];
                out.extend_from_slice(&(s.len() as u16).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Type::Blob => {
                // What the scenarios put in a blob: a control line, a
                // request, an audio frame header, or just bytes.
                let text: &[u8] = [
                    b"PLAY 7 6000\n".as_slice(),
                    b"OK setup\n",
                    b"Q 7\n",
                    b"GET /doc/7 HTTP/1.0\r\n\r\n",
                    &[1, 0, 0, 0, 0, 0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8],
                ][rng.next_below(5) as usize];
                out.extend_from_slice(text);
                out.extend((0..rng.next_below(24)).map(|i| i as u8));
            }
            other => panic!("{other} is not a payload type"),
        }
    }
    out
}

/// Sends its packets one per [`TICK`], first in, first out.
struct Feeder {
    packets: std::vec::IntoIter<Packet>,
}

impl Feeder {
    fn new(packets: Vec<Packet>) -> Box<Self> {
        Box::new(Feeder {
            packets: packets.into_iter(),
        })
    }
}

impl App for Feeder {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(TICK, 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if let Some(pkt) = self.packets.next() {
            api.send(pkt);
            api.set_timer(TICK, 0);
        }
    }
}

/// `a — r — b`, both links fast enough for one packet per [`TICK`].
fn line(seed: u64) -> (Sim, [planp::netsim::NodeId; 3]) {
    let mut sim = Sim::new(seed);
    let a = sim.add_host("a", A);
    let r = sim.add_router("r", R);
    let b = sim.add_host("b", B);
    sim.add_link(LinkSpec::ethernet_100(), &[a, r]);
    sim.add_link(LinkSpec::ethernet_100(), &[r, b]);
    sim.compute_routes();
    (sim, [a, r, b])
}

fn packet(kind: TransportKind, dst: u32, port: u16, payload: Vec<u8>) -> Packet {
    let payload = payload.into();
    match kind {
        TransportKind::Tcp => Packet::tcp(A, dst, TcpHdr::data(4000, port, 1), payload),
        TransportKind::Udp => Packet::udp(A, dst, 4000, port, payload),
        TransportKind::None => Packet {
            ip: IpHdr::new(A, dst, 0),
            transport: Transport::None,
            ..Packet::udp(A, dst, 0, 0, payload)
        },
    }
}

const KINDS: [TransportKind; 3] = [TransportKind::Tcp, TransportKind::Udp, TransportKind::None];

/// Destination ports the corpus programs look at, and one they do not.
const PORTS: [u16; 6] = [80, 5555, 5556, 7000, 7001, 4242];

#[test]
fn no_payload_panics_an_installed_asp() {
    assert_eq!(CORPUS.len(), 25, "16 clean + 9 buggy ASPs");
    let (mut offered, mut matched) = (0u64, 0u64);
    for (ai, asp) in CORPUS.iter().enumerate() {
        let image =
            load(asp.src, Policy::authenticated()).unwrap_or_else(|e| panic!("{}: {e}", asp.path));
        for engine in [Engine::Jit, Engine::Interp] {
            let seed = 0xFA_0000 + ((ai as u64) << 8) + engine as u64;
            let mut rng = SplitMix64::new(seed);

            // Tags no channel of this program answers to: a name it
            // does not declare, and each name it does with an overload
            // index at and past the end of the group.
            let mut unanswered = vec![
                ChannelTag::new("elsewhere", 0),
                ChannelTag::new("", u32::MAX),
            ];
            let mut answered = Vec::new();
            // (By name: the map's own order is not a function of the seed.)
            let mut groups: Vec<_> = image.prog.chan_groups.iter().collect();
            groups.sort();
            for (name, group) in groups {
                let n = group.len() as u32;
                for past in [n, n + 1, u32::MAX] {
                    unanswered.push(ChannelTag::new(&**name, past));
                }
                answered.extend((0..n).map(|i| ChannelTag::new(&**name, i)));
            }

            // First the unanswerable tags on well-formed payloads of
            // every channel: each must fall through to plain IP.
            let mut strays = Vec::new();
            for ch in &image.prog.channels {
                for tag in &unanswered {
                    let wire = encoding(&ch.shape.payload, &mut rng);
                    let mut pkt = packet(ch.shape.transport, B, 4242, wire);
                    pkt.tag = Some(tag.clone());
                    strays.push(pkt);
                }
            }

            // Then the mutants, under every kind of tag.
            let mut mutants = Vec::new();
            for _ in 0..MUTANTS {
                let ch =
                    &image.prog.channels[rng.next_below(image.prog.channels.len() as u64) as usize];
                let mut wire = encoding(&ch.shape.payload, &mut rng);
                if rng.next_below(8) != 0 {
                    mutate(&mut rng, &mut wire);
                }
                // Mostly the channel's own transport, sometimes not.
                let kind = match rng.next_below(4) {
                    0 => KINDS[rng.next_below(3) as usize],
                    _ => ch.shape.transport,
                };
                let dst =
                    [B, B, R, addr(10, 9, 9, 9), addr(224, 0, 0, 5)][rng.next_below(5) as usize];
                let port = PORTS[rng.next_below(PORTS.len() as u64) as usize];
                let mut pkt = packet(kind, dst, port, wire);
                pkt.tag = match rng.next_below(4) {
                    0 => None,
                    1 => Some(unanswered[rng.next_below(unanswered.len() as u64) as usize].clone()),
                    _ => Some(answered[rng.next_below(answered.len() as u64) as usize].clone()),
                };
                if rng.next_below(16) == 0 {
                    pkt.ip.ttl = rng.next_below(2) as u8;
                }
                mutants.push(pkt);
            }

            let (n_strays, n_mutants) = (strays.len() as u64, mutants.len() as u64);
            let run = catch_unwind(AssertUnwindSafe(|| {
                let (mut sim, [a, r, _b]) = line(seed);
                let config = LayerConfig {
                    engine,
                    process_overheard: true,
                    ..LayerConfig::default()
                };
                let handle = install_planp(&mut sim, r, &image, config).expect("installs");
                strays.extend(mutants);
                sim.add_app(a, Feeder::new(strays));
                sim.run_until(SimTime::ZERO + TICK * (n_strays as u32 + 1));
                let after_strays = handle.stats(&sim.telemetry);
                sim.run_until(SimTime::ZERO + TICK * (n_strays + n_mutants + 40) as u32);
                let stats = handle.stats(&sim.telemetry);
                (after_strays, stats)
            }));
            let Ok((after_strays, stats)) = run else {
                panic!(
                    "{}: {engine:?}: seed {seed:#x} panicked the layer",
                    asp.path
                );
            };
            assert_eq!(
                (after_strays.matched, after_strays.passed),
                (0, n_strays),
                "{}: {engine:?}: a tag no channel answers to was offered to one",
                asp.path
            );
            assert!(
                stats.matched > 0,
                "{}: {engine:?}: nothing matched",
                asp.path
            );
            offered += n_strays + n_mutants;
            matched += stats.matched;
        }
    }
    // The mutants reach the channel bodies, not just the decoder.
    assert!(
        matched * 4 > offered,
        "{matched} of {offered} packets matched a channel"
    );
}

/// Counts the service's replies by their first word.
struct Replies {
    ok: Rc<Cell<u64>>,
    err: Rc<Cell<u64>>,
}

impl App for Replies {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
        if pkt.udp_hdr().is_some_and(|u| u.dport == MANAGEMENT_PORT) {
            let tally = if pkt.payload.starts_with(b"OK ") {
                &self.ok
            } else {
                assert!(pkt.payload.starts_with(b"ERR "), "{:?}", pkt.payload);
                &self.err
            };
            tally.set(tally.get() + 1);
        }
    }
}

/// The deploy datagrams of `source` with the transfer bent one way.
fn bent_transfer(rng: &mut SplitMix64, transfer: u16, source: &str) -> Vec<Packet> {
    let mut source = source.as_bytes().to_vec();
    if rng.next_below(2) == 0 {
        mutate(rng, &mut source);
    }
    let source = String::from_utf8_lossy(&source);
    let mut packets = deploy_packets(A, R, transfer, &source);
    let with_payload = |pkt: &Packet, payload: Vec<u8>| Packet {
        payload: payload.into(),
        ..pkt.clone()
    };
    let at = rng.next_below(packets.len() as u64) as usize;
    match rng.next_below(9) {
        // Bad magic on one chunk: the transfer never completes.
        0 => {
            let mut p = packets[at].payload.to_vec();
            p[0] ^= 1 << rng.next_below(8);
            packets[at] = with_payload(&packets[at], p);
        }
        // A chunk index far past `last` (and one just past it).
        1 => {
            let last = packets.len() as u16;
            for index in [last, u16::MAX] {
                let mut p = packets[at].payload.to_vec();
                p[4..6].copy_from_slice(&index.to_be_bytes());
                p[1] = 0;
                packets.insert(at, with_payload(&packets[at], p));
            }
        }
        // Every chunk twice, the second time shuffled in.
        2 => {
            for i in 0..packets.len() {
                let to = rng.next_below(packets.len() as u64 + 1) as usize;
                packets.insert(to, packets[i].clone());
            }
        }
        // The last chunk never arrives.
        3 => {
            packets.pop();
        }
        // The `last` flag on an early chunk too, or on none.
        4 => {
            let mut p = packets[at].payload.to_vec();
            p[1] ^= 0x01;
            packets[at] = with_payload(&packets[at], p);
        }
        // Flags nobody defined, and uninstall on a data chunk.
        5 => {
            let mut p = packets[at].payload.to_vec();
            p[1] = rng.next_below(256) as u8;
            packets[at] = with_payload(&packets[at], p);
        }
        // A datagram mutated whole: header, body, length.
        6 => {
            let mut p = packets[at].payload.to_vec();
            mutate(rng, &mut p);
            packets[at] = with_payload(&packets[at], p);
        }
        // Reversed: `last` arrives first.
        7 => packets.reverse(),
        // As built.
        _ => {}
    }
    packets
}

#[test]
fn no_deploy_message_panics_the_service() {
    let rounds = MUTANTS / 10;
    let (mut installed, mut rejected) = (0, 0);
    for (ai, asp) in CORPUS.iter().enumerate() {
        let seed = 0xDE_0000 + ai as u64;
        let mut rng = SplitMix64::new(seed);
        let mut packets = Vec::new();
        for round in 0..rounds {
            // Half the rounds reuse a transfer id, so chunks of two
            // sources (and leftovers of unfinished ones) mix under it.
            let transfer = if round % 2 == 0 { 7 } else { round as u16 };
            let donor = CORPUS[rng.next_below(CORPUS.len() as u64) as usize];
            let source = if rng.next_below(3) == 0 {
                donor.src
            } else {
                asp.src
            };
            packets.extend(bent_transfer(&mut rng, transfer, source));
            // Traffic for whatever is installed by now.
            for _ in 0..4 {
                let kind = KINDS[rng.next_below(3) as usize];
                let port = PORTS[rng.next_below(PORTS.len() as u64) as usize];
                packets.push(packet(kind, B, port, encoding(&[Type::Blob], &mut rng)));
            }
            if rng.next_below(6) == 0 {
                packets.push(uninstall_packet(A, R));
            }
            // Not a deploy message at all: too short, or not UDP.
            packets.push(packet(
                TransportKind::Udp,
                R,
                MANAGEMENT_PORT,
                vec![0xD7; rng.next_below(6) as usize],
            ));
            packets.push(packet(
                TransportKind::Tcp,
                R,
                MANAGEMENT_PORT,
                vec![0xD7, 1, 0, 0, 0, 0],
            ));
        }
        let n = packets.len() as u32;
        let (ok, err) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let service = DeployService::new(Policy::authenticated(), LayerConfig::default());
        let log = service.log.clone();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let (mut sim, [a, r, _b]) = line(seed);
            sim.add_app(r, Box::new(service));
            sim.add_app(
                a,
                Box::new(Replies {
                    ok: ok.clone(),
                    err: err.clone(),
                }),
            );
            sim.add_app(a, Feeder::new(packets));
            sim.run_until(SimTime::ZERO + TICK * (n + 40));
        }));
        assert!(
            run.is_ok(),
            "{}: seed {seed:#x} panicked the deploy service",
            asp.path
        );
        let log = log.borrow();
        // Every verdict was reported back, and nothing else was.
        assert_eq!(ok.get(), log.installed + log.uninstalled, "{}", asp.path);
        assert_eq!(err.get(), log.rejected, "{}", asp.path);
        installed += log.installed;
        rejected += log.rejected;
    }
    // Both outcomes of a completed transfer were exercised.
    assert!(
        installed >= 50 && rejected >= 50,
        "{installed} installed, {rejected} rejected"
    );
}

#[test]
fn unfinished_transfers_are_bounded_and_a_later_one_installs() {
    const OPENED: usize = 10_000;
    // The first chunk of a transfer that never sends its last.
    let mut packets: Vec<Packet> = (0..OPENED as u16)
        .map(|id| {
            let [hi, lo] = id.to_be_bytes();
            let chunk = vec![0xD7, 0, hi, lo, 0, 0, b'-', b'-'];
            packet(TransportKind::Udp, R, MANAGEMENT_PORT, chunk)
        })
        .collect();
    let forwarder = CORPUS.iter().find(|a| a.name == "forwarder").unwrap().src;
    packets.extend(deploy_packets(A, R, OPENED as u16, forwarder));
    packets.extend((0..5).map(|_| packet(TransportKind::Udp, B, 5555, vec![7; 8])));
    let n = packets.len() as u32;

    let service = DeployService::new(Policy::strict(), LayerConfig::default());
    let log = service.log.clone();
    let (mut sim, [a, r, b]) = line(0xDE_F00D);
    sim.add_app(r, Box::new(service));
    sim.add_app(a, Feeder::new(packets));
    sim.run_until(SimTime::ZERO + TICK * OPENED as u32 + TICK / 2);
    assert_eq!(log.borrow().held, MAX_TRANSFERS);
    assert_eq!(log.borrow().dropped, (OPENED - MAX_TRANSFERS) as u64);
    assert_eq!(log.borrow().installed, 0);

    sim.run_until(SimTime::ZERO + TICK * (n + 40));
    let log = log.borrow();
    assert_eq!(log.installed, 1, "{:?}", log.last_error);
    assert_eq!(log.held, MAX_TRANSFERS - 1);
    assert_eq!(log.dropped, (OPENED - MAX_TRANSFERS + 1) as u64);
    let handle = log.handle.as_ref().expect("installed");
    assert_eq!(handle.stats(&sim.telemetry).matched, 5);
    assert_eq!(sim.node(b).delivered, 5);
}
