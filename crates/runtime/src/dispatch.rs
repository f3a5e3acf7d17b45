//! Channel dispatch (section 2.3), decided from the program once at
//! install — P4's shape: which parsers apply is a property of the
//! program, the packet only selects among them.
//!
//! Packets sent on user-defined channels carry a tag naming the channel
//! and overload; untagged traffic is offered to the `network` overloads
//! in declaration order and the first whose packet type matches
//! (transport layer, then payload decode) takes it. The table
//! precomputes both: per channel name its overloads, and per transport
//! kind the `network` overloads that can match at all; and per overload
//! its [`Decoder`]. Decoding is the match: a packet is decoded at most
//! once per candidate, straight into the compiled program's registers,
//! which either engine then runs it from.

use crate::convert::Decoder;
use crate::loader::LoadedProgram;
use netsim::packet::{Packet, Transport};
use planp_lang::types::TransportKind;
use planp_vm::jit::PacketFrame;
use std::rc::Rc;

/// Which channel overloads an arriving packet is offered to, in order —
/// section 2.3's dispatch, decided from the program once at its first
/// install and shared with the rest of the image's shape.
pub(crate) struct DispatchTable {
    /// Per transport kind of the packet ([`transport_slot`]): the
    /// `network` overloads of that kind, in declaration order. An
    /// overload of another kind never decodes, so skipping it changes
    /// nothing.
    untagged: [Vec<usize>; 3],
    /// Every channel name with its overloads in declaration order. A
    /// handful of names, compared by pointer first: a tag set by a node
    /// installed from the same image *is* the string stored here.
    tagged: Vec<(Rc<str>, Vec<usize>)>,
    /// Per channel overload, how a packet is read into the registers.
    decoders: Vec<Decoder>,
}

fn transport_slot(kind: TransportKind) -> usize {
    match kind {
        TransportKind::Tcp => 0,
        TransportKind::Udp => 1,
        TransportKind::None => 2,
    }
}

impl DispatchTable {
    pub(crate) fn new(image: &LoadedProgram) -> Self {
        let mut untagged: [Vec<usize>; 3] = Default::default();
        let mut tagged: Vec<(Rc<str>, Vec<usize>)> = Vec::new();
        for (idx, ch) in image.prog.channels.iter().enumerate() {
            match tagged.iter_mut().find(|(n, _)| Rc::ptr_eq(n, &ch.name)) {
                Some((_, group)) => group.push(idx),
                None => tagged.push((ch.name.clone(), vec![idx])),
            }
            if &*ch.name == "network" {
                untagged[transport_slot(ch.shape.transport)].push(idx);
            }
        }
        DispatchTable {
            untagged,
            tagged,
            decoders: (image.prog.channels.iter())
                .map(|ch| Decoder::new(&ch.shape))
                .collect(),
        }
    }

    /// True if a match on channel `idx` moved the packet's payload into
    /// the registers ([`Decoder::load`]).
    pub(crate) fn moves_payload(&self, idx: usize) -> bool {
        self.decoders[idx].moves_payload()
    }

    /// The channels `pkt` is offered to, in order.
    fn candidates(&self, pkt: &Packet) -> &[usize] {
        match &pkt.tag {
            Some(tag) => self
                .tagged
                .iter()
                .find(|(name, _)| Rc::ptr_eq(name, &tag.chan) || **name == *tag.chan)
                .and_then(|(_, group)| group.get(tag.overload as usize))
                .map_or(&[], std::slice::from_ref),
            None => {
                &self.untagged[transport_slot(match pkt.transport {
                    Transport::Tcp(_) => TransportKind::Tcp,
                    Transport::Udp(_) => TransportKind::Udp,
                    Transport::None => TransportKind::None,
                })]
            }
        }
    }
}

/// Finds the channel that should process `pkt` and loads the packet
/// into `frame`: the first candidate whose shape fits. A payload that
/// is one `blob` moves into the frame's registers
/// ([`DispatchTable::moves_payload`]).
pub(crate) fn load_frame(
    table: &DispatchTable,
    frame: &mut PacketFrame<'_>,
    pkt: &mut Packet,
) -> Option<usize> {
    let mut candidates = table.candidates(pkt).iter().copied();
    candidates.find(|&idx| {
        let decoder = &table.decoders[idx];
        frame.load(idx, |regs| decoder.load(pkt, regs))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::packet_to_value;
    use crate::loader::load;
    use bytes::Bytes;
    use netsim::packet::{addr, ChannelTag, IpHdr, TcpHdr};
    use netsim::rng::SplitMix64;
    use planp_analysis::Policy;
    use planp_lang::tast::TProgram;
    use planp_lang::types::Type;
    use planp_vm::value::Value;

    /// The definition the table must agree with: the tagged overload,
    /// or the `network` overloads in declaration order, each offered
    /// the packet through `packet_to_value`.
    fn by_declaration_order(prog: &TProgram, pkt: &Packet) -> Option<(usize, Value)> {
        let shaped = |idx: usize| Some((idx, packet_to_value(pkt, &prog.channels[idx].shape)?));
        match &pkt.tag {
            Some(tag) => {
                let group = prog.chan_groups.get(&*tag.chan)?;
                shaped(*group.get(tag.overload as usize)?)
            }
            None => prog
                .chan_groups
                .get("network")?
                .iter()
                .find_map(|&i| shaped(i)),
        }
    }

    /// The table's decode picks the channel the definition picks and
    /// holds equal components, or both decline.
    fn assert_agrees(image: &LoadedProgram, table: &DispatchTable, pkt: &Packet) {
        let want = by_declaration_order(&image.prog, pkt);
        let (mut frame, mut taken) = (image.compiled.frame(), pkt.clone());
        let loaded = load_frame(table, &mut frame, &mut taken);
        let loaded = loaded.map(|idx| (idx, Value::tuple(frame.packet().to_vec())));
        assert_eq!(loaded, want, "{pkt:?}");
    }

    fn with_transport(kind: TransportKind, payload: Vec<u8>) -> Packet {
        let (src, dst) = (addr(10, 0, 0, 1), addr(10, 0, 0, 2));
        let payload = Bytes::from(payload);
        match kind {
            TransportKind::Tcp => Packet::tcp(src, dst, TcpHdr::data(4000, 5555, 1), payload),
            TransportKind::Udp => Packet::udp(src, dst, 4000, 5556, payload),
            TransportKind::None => Packet {
                ip: IpHdr::new(src, dst, 0),
                transport: Transport::None,
                ..Packet::udp(src, dst, 0, 0, payload)
            },
        }
    }

    const KINDS: [TransportKind; 3] = [TransportKind::Tcp, TransportKind::Udp, TransportKind::None];

    /// A well-formed wire encoding of `types`.
    fn encoding(types: &[Type], rng: &mut SplitMix64) -> Vec<u8> {
        let mut out = Vec::new();
        for t in types {
            match t {
                Type::Char => out.push(b'A' + rng.next_below(26) as u8),
                Type::Bool => out.push(rng.next_below(2) as u8),
                Type::Int => out.extend_from_slice(&(rng.next_u64() as i64).to_be_bytes()),
                Type::Host => out.extend_from_slice(&(rng.next_u64() as u32).to_be_bytes()),
                Type::Str => {
                    let s = ["", "GET /doc/7", "x", "héllo"][rng.next_below(4) as usize];
                    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Type::Blob => out.extend((0..rng.next_below(24)).map(|i| i as u8)),
                other => panic!("{other} is not a payload type"),
            }
        }
        out
    }

    /// `wire` and the ways a hostile sender would bend it: cut short
    /// (inside an int, a host, a string's length or its bytes), grown by
    /// trailing bytes, a byte forced out of `bool`'s range or out of
    /// UTF-8, a string length pointing past the end.
    fn hostile(wire: &[u8], rng: &mut SplitMix64) -> Vec<Vec<u8>> {
        let mut out = vec![wire.to_vec(), Vec::new()];
        for cut in 1..=wire.len().min(9) {
            out.push(wire[..wire.len() - cut].to_vec());
        }
        out.push([wire, &[0]].concat());
        out.push([wire, &[1, 2, 3, 4, 5, 6, 7, 8, 9]].concat());
        for _ in 0..4 {
            if !wire.is_empty() {
                let mut bent = wire.to_vec();
                let at = rng.next_below(bent.len() as u64) as usize;
                bent[at] = [2, 0xff, 0xc3, 0x80][rng.next_below(4) as usize];
                out.push(bent);
            }
        }
        out
    }

    #[test]
    fn bundled_two_overload_programs_dispatch_as_declared() {
        let capture = include_str!("../../../asps/mpeg_capture.planp");
        let monitor = include_str!("../../../asps/mpeg_monitor.planp");
        let mut rng = SplitMix64::new(0xD15_9A7C);
        let mut matched = [0usize; 2];
        for (n, src) in [capture, monitor].into_iter().enumerate() {
            let image = load(src, Policy::authenticated()).expect("bundled ASP loads");
            assert_eq!(image.prog.chan_groups["network"].len(), 2);
            let table = DispatchTable::new(&image);
            // What the scenario sends (a capture request, a query, a
            // control line, a reply, video), then the same bent.
            let mut wires: Vec<Vec<u8>> = vec![
                encoding(&[Type::Host, Type::Int], &mut rng),
                encoding(&[Type::Host, Type::Int, Type::Str], &mut rng),
                b"PLAY 7 6000\n".to_vec(),
                b"Q 7\n".to_vec(),
                encoding(&[Type::Blob], &mut rng),
            ];
            for wire in wires.clone() {
                wires.extend(hostile(&wire, &mut rng));
            }
            let tags = [
                None,
                Some(("reply", 0)),
                Some(("reply", 1)),
                Some(("network", 0)),
                Some(("network", 1)),
                Some(("network", 2)),
                Some(("elsewhere", 0)),
                Some(("", u32::MAX)),
            ];
            for wire in &wires {
                for kind in KINDS {
                    for tag in tags {
                        let mut pkt = with_transport(kind, wire.clone());
                        pkt.tag = tag.map(|(chan, overload)| ChannelTag::new(chan, overload));
                        assert_agrees(&image, &table, &pkt);
                        matched[n] +=
                            usize::from(by_declaration_order(&image.prog, &pkt).is_some());
                    }
                }
            }
        }
        assert!(
            matched.iter().all(|&m| m > 100),
            "{matched:?} packets matched"
        );
    }

    #[test]
    fn a_tag_selects_its_overload_by_pointer_or_by_spelling() {
        // The four bundled programs whose user channels differ in kind:
        // TCP `relay`, UDP `relay`, the typed `reply` beside two
        // `network` overloads, and `nack` + `timer`.
        for src in [
            include_str!("../../../asps/http_gateway.planp"),
            include_str!("../../../asps/relay_pin.planp"),
            include_str!("../../../asps/mpeg_monitor.planp"),
            include_str!("../../../asps/reliable_relay.planp"),
        ] {
            let image = load(src, Policy::authenticated()).expect("bundled ASP loads");
            let table = DispatchTable::new(&image);
            let pkt = |tag| Packet {
                tag: Some(tag),
                ..with_transport(TransportKind::Udp, Vec::new())
            };
            for (idx, ch) in image.prog.channels.iter().enumerate() {
                // The image's own string, as a node installed from it
                // tags its sends; and the same letters from elsewhere.
                let shared = ChannelTag::new(ch.name.clone(), ch.overload);
                let spelled = ChannelTag::new(&*ch.name, ch.overload);
                assert!(!Rc::ptr_eq(&shared.chan, &spelled.chan));
                assert_eq!(shared, spelled);
                assert_eq!(table.candidates(&pkt(shared)), [idx]);
                assert_eq!(table.candidates(&pkt(spelled)), [idx]);
                // Past the group's last overload: offered to nothing,
                // however the name is held.
                let group = image.prog.chan_groups[&ch.name].len() as u32;
                for overload in [group, group + 1, u32::MAX] {
                    let shared = ChannelTag::new(ch.name.clone(), overload);
                    let spelled = ChannelTag::new(&*ch.name, overload);
                    assert!(table.candidates(&pkt(shared)).is_empty());
                    assert!(table.candidates(&pkt(spelled)).is_empty());
                }
            }
        }
    }

    #[test]
    fn generated_overload_sets_dispatch_as_declared() {
        use Type::*;
        let payloads: [&[Type]; 12] = [
            &[Int],
            &[Bool],
            &[Char],
            &[Host],
            &[Str],
            &[Char, Int],
            &[Char, Bool],
            &[Host, Int, Str],
            &[Str, Str],
            &[Int, Blob],
            &[Str, Blob],
            &[Blob],
        ];
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(seed ^ 0x0E71_0AD5);
            // Every transport kind with every payload shape, declared in
            // a seeded order: a catch-all `blob` may come first or last.
            let mut overloads: Vec<(TransportKind, &[Type])> = KINDS
                .iter()
                .flat_map(|&k| payloads.iter().map(move |&p| (k, p)))
                .collect();
            for i in (1..overloads.len()).rev() {
                overloads.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut src = String::new();
            for (kind, payload) in &overloads {
                let mut ty = String::from(match kind {
                    TransportKind::Tcp => "ip*tcp",
                    TransportKind::Udp => "ip*udp",
                    TransportKind::None => "ip",
                });
                for t in *payload {
                    ty.push_str(&format!("*{t}"));
                }
                src.push_str(&format!(
                    "channel network(ps : unit, ss : unit, p : {ty}) is (ps, ss)\n"
                ));
            }
            let image = load(&src, Policy::no_delivery()).expect("generated program loads");
            let table = DispatchTable::new(&image);
            let mut hits = vec![0usize; overloads.len()];
            for payload in payloads {
                let wire = encoding(payload, &mut rng);
                for bent in hostile(&wire, &mut rng) {
                    for kind in KINDS {
                        let pkt = with_transport(kind, bent.clone());
                        assert_agrees(&image, &table, &pkt);
                        if let Some((idx, _)) = by_declaration_order(&image.prog, &pkt) {
                            hits[idx] += 1;
                        }
                    }
                }
            }
            // Not everything fell to the catch-alls.
            let distinct = hits.iter().filter(|&&h| h > 0).count();
            assert!(distinct >= 8, "seed {seed}: {hits:?}");
        }
    }
}
