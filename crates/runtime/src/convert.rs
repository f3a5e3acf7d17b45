//! Conversions between simulator packets and PLAN-P packet values.
//!
//! A channel whose packet parameter has shape `ip * tcp * c1 * … * cn`
//! receives the components `ip-header, tcp-header, v1, …, vn` where the
//! `vi` are decoded from the payload bytes per the wire encodings in
//! [`planp_vm::pkthdr`]. Overload dispatch (section 2.3) works by trying
//! these decodes in declaration order.
//!
//! The layer moves components, not tuples. Each overload's `Decoder`
//! is fixed when the program is first installed; it writes the headers
//! into the bytecode engine's registers and *moves* a payload that is
//! one `blob` into the last one. [`parts_to_packet`] builds the
//! outgoing packet from the components a send names, moving what the
//! engine hands over as its last read. The tuple forms
//! ([`packet_to_value`], [`value_to_packet`]) copy, for the interpreter
//! and for callers that hold a `Value`.

use bytes::Bytes;
use netsim::packet::{ChannelTag, IpHdr, Lineage, Packet, Transport};
use planp_lang::types::{PacketShape, TransportKind, Type};
use planp_vm::env::{packet_parts, Outgoing};
use planp_vm::pkthdr::{decode_payload_into, encode_payload};
use planp_vm::value::{Value, VmError};

/// Writes `pkt`'s headers into the first slots of `out` if its transport
/// is `kind`; returns the slot its payload components start at. A slot
/// that already holds a header of its kind (what the last packet left in
/// a register) is overwritten in place: no value is built, moved in and
/// dropped.
///
/// Always inlined: `load_frame` runs it on every dispatch, and when the
/// inliner left it out of line there (after code elsewhere in this crate
/// moved), `http_gateway` served 1–7% fewer requests a second.
#[inline(always)]
fn headers(kind: TransportKind, pkt: &Packet, out: &mut [Value]) -> Option<usize> {
    match (kind, &pkt.transport) {
        (TransportKind::Tcp, Transport::Tcp(h)) => match &mut out[1] {
            Value::Tcp(slot) => *slot = *h,
            slot => *slot = Value::Tcp(*h),
        },
        (TransportKind::Udp, Transport::Udp(h)) => match &mut out[1] {
            Value::Udp(slot) => *slot = *h,
            slot => *slot = Value::Udp(*h),
        },
        (TransportKind::None, Transport::None) => {}
        _ => return None,
    }
    match &mut out[0] {
        Value::Ip(slot) => *slot = pkt.ip,
        slot => *slot = Value::Ip(pkt.ip),
    }
    Some(if kind == TransportKind::None { 1 } else { 2 })
}

/// How one channel overload reads an arriving packet into its registers,
/// resolved from its [`PacketShape`] once, when the program is first
/// installed.
#[derive(Debug)]
pub(crate) struct Decoder {
    transport: TransportKind,
    /// The payload components; empty when the payload is one `blob`.
    typed: Box<[Type]>,
}

impl Decoder {
    pub(crate) fn new(shape: &PacketShape) -> Self {
        let whole = matches!(shape.payload[..], [Type::Blob]);
        Decoder {
            transport: shape.transport,
            typed: if whole {
                Box::new([])
            } else {
                shape.payload.clone().into()
            },
        }
    }

    /// True if a match moves the packet's payload into the last
    /// register ([`Decoder::load`]).
    pub(crate) fn moves_payload(&self) -> bool {
        self.typed.is_empty()
    }

    /// Decodes `pkt` into `out`, one slot per component. `false` if the
    /// transport or payload does not match (the overload does not apply;
    /// `pkt` is untouched). A payload that is one `blob` is moved into
    /// the last slot, leaving `pkt` without one: the registers own it
    /// until the engine's send moves it on.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer slots than the shape has components.
    #[inline]
    pub(crate) fn load(&self, pkt: &mut Packet, out: &mut [Value]) -> bool {
        let Some(at) = headers(self.transport, pkt, out) else {
            return false;
        };
        if self.moves_payload() {
            let payload = std::mem::take(&mut pkt.payload);
            match &mut out[at] {
                Value::Blob(slot) => *slot = payload,
                slot => *slot = Value::Blob(payload),
            }
            return true;
        }
        decode_payload_into(&self.typed, &pkt.payload, &mut out[at..])
    }
}

/// Decodes an arriving packet into `out`, one slot per component of
/// `shape` ([`PacketShape::components`]), sharing its payload. `false`
/// if the transport or payload does not match (the overload does not
/// apply); `out` then holds whichever components decoded before the
/// mismatch.
///
/// # Panics
///
/// Panics if `out` has fewer slots than `shape` has components.
pub fn packet_to_parts(pkt: &Packet, shape: &PacketShape, out: &mut [Value]) -> bool {
    match headers(shape.transport, pkt, out) {
        Some(at) => decode_payload_into(&shape.payload, &pkt.payload, &mut out[at..]),
        None => false,
    }
}

/// Converts an arriving packet into the tuple value a channel of the
/// given shape expects. `None` if the transport or payload does not
/// match (the overload does not apply).
pub fn packet_to_value(pkt: &Packet, shape: &PacketShape) -> Option<Value> {
    let mut parts = vec![Value::Unit; shape.components()];
    packet_to_parts(pkt, shape, &mut parts).then(|| Value::tuple(parts))
}

/// Builds the simulator packet a PLAN-P program sent as the components
/// `pkt`, with `tag` (set if the send targeted a user-defined channel)
/// and `lineage`: its headers, then its payload — one blob handed
/// through (moved out of [`Outgoing::Owned`] components, shared
/// otherwise), anything else encoded.
///
/// # Errors
///
/// Traps on components that do not start with an `ip` header
/// (unreachable for checked programs), and on a payload with no wire
/// form (a string over 65 535 bytes).
pub fn parts_to_packet(
    pkt: Outgoing<'_>,
    tag: Option<ChannelTag>,
    lineage: Lineage,
) -> Result<Packet, VmError> {
    let (ip, transport, at) = packet_headers(pkt.parts())?;
    Ok(Packet {
        ip,
        transport,
        payload: packet_payload(pkt, at)
            .ok_or_else(|| VmError::trap("payload with no wire form"))?,
        tag,
        id: 0,
        lineage,
    })
}

/// The headers of the packet the components `parts` stand for, and the
/// position its payload components start at.
///
/// # Errors
///
/// Traps on components that do not start with an `ip` header
/// (unreachable for checked programs).
#[inline]
pub(crate) fn packet_headers(parts: &[Value]) -> Result<(IpHdr, Transport, usize), VmError> {
    let Some(&Value::Ip(ip)) = parts.first() else {
        return Err(VmError::trap(format!(
            "packet tuple must start with an ip header, got {:?}",
            parts.first()
        )));
    };
    Ok(match parts.get(1) {
        Some(Value::Tcp(h)) => (ip, Transport::Tcp(*h), 2),
        Some(Value::Udp(h)) => (ip, Transport::Udp(*h), 2),
        _ => (ip, Transport::None, 1),
    })
}

/// The payload of the packet `pkt` stands for, whose payload components
/// start at `at`. One blob is already the wire bytes and is handed
/// through: moved out of components the engine owns no more
/// ([`Outgoing::Owned`]), shared otherwise. Anything else is encoded:
/// `None` if a component has no wire form ([`encode_payload`]).
#[inline]
pub(crate) fn packet_payload(mut pkt: Outgoing<'_>, at: usize) -> Option<Bytes> {
    match &mut pkt {
        Outgoing::Owned(parts) => match &mut parts[at..] {
            [Value::Blob(bytes)] => Some(std::mem::take(bytes)),
            rest => encode_payload(rest),
        },
        Outgoing::Shared(parts) => match &parts[at..] {
            [Value::Blob(bytes)] => Some(bytes.clone()),
            rest => encode_payload(rest),
        },
    }
}

/// [`parts_to_packet`] on a packet held as a tuple value, with a fresh
/// lineage.
///
/// # Errors
///
/// Traps as [`parts_to_packet`] does, and on values that are not packet
/// tuples (unreachable for checked programs).
pub fn value_to_packet(v: &Value, tag: Option<ChannelTag>) -> Result<Packet, VmError> {
    parts_to_packet(Outgoing::Shared(packet_parts(v)?), tag, Lineage::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::packet::{IpHdr, TcpHdr, UdpHdr};

    fn shape(src: &str) -> PacketShape {
        // Parse a packet type via a tiny program.
        let prog = planp_lang::compile_front(&format!(
            "channel network(ps : unit, ss : unit, p : {src}) is (ps, ss)"
        ))
        .unwrap();
        prog.channels[0].shape.clone()
    }

    #[test]
    fn round_trip_udp_blob() {
        let pkt = Packet::udp(1, 2, 10, 20, Bytes::from_static(b"payload"));
        let v = packet_to_value(&pkt, &shape("ip*udp*blob")).unwrap();
        let back = value_to_packet(&v, None).unwrap();
        assert_eq!(back, pkt);
    }

    /// The packet the copying path builds: every payload component
    /// encoded into a fresh buffer.
    fn encoded(v: &Value) -> Packet {
        let Value::Tuple(parts) = v else { panic!() };
        let mut pkt = value_to_packet(v, None).unwrap();
        pkt.payload = encode_payload(&parts[2..]).unwrap();
        pkt
    }

    #[test]
    fn blob_payload_is_handed_through_and_equals_the_encoded_path() {
        let hdrs = || {
            vec![
                Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_UDP)),
                Value::Udp(UdpHdr::new(5, 6)),
            ]
        };
        let blob = Bytes::from(vec![7u8; 64]);
        let with = |payload: Vec<Value>| {
            let mut parts = hdrs();
            parts.extend(payload);
            Value::tuple(parts)
        };
        let mut typed = vec![b'A'];
        typed.extend_from_slice(&42i64.to_be_bytes());
        for (v, shape_src, wire) in [
            // blob only: the bytes go through untouched
            (
                with(vec![Value::Blob(blob.clone())]),
                "ip*udp*blob",
                blob.to_vec(),
            ),
            // typed, then blob: encoded in front of the blob's bytes
            (
                with(vec![
                    Value::Char('A'),
                    Value::Int(42),
                    Value::Blob(blob.clone()),
                ]),
                "ip*udp*char*int*blob",
                [&typed[..], &blob[..]].concat(),
            ),
            // typed only
            (
                with(vec![Value::Char('A'), Value::Int(42)]),
                "ip*udp*char*int",
                typed.clone(),
            ),
        ] {
            let pkt = value_to_packet(&v, None).unwrap();
            assert_eq!(&pkt.payload[..], &wire[..], "{shape_src}: wire bytes");
            assert_eq!(pkt, encoded(&v), "{shape_src}: equals the encoded path");
            let back = packet_to_value(&pkt, &shape(shape_src)).unwrap();
            assert_eq!(back, v, "{shape_src}: round trip");
        }
    }

    #[test]
    fn transport_mismatch_is_none() {
        let pkt = Packet::udp(1, 2, 10, 20, Bytes::new());
        assert!(packet_to_value(&pkt, &shape("ip*tcp*blob")).is_none());
        let t = Packet::tcp(1, 2, TcpHdr::data(1, 2, 0), Bytes::new());
        assert!(packet_to_value(&t, &shape("ip*udp*blob")).is_none());
    }

    #[test]
    fn typed_payload_decodes_or_rejects() {
        // char*int payload: 1 + 8 bytes.
        let mut raw = vec![b'A'];
        raw.extend_from_slice(&42i64.to_be_bytes());
        let pkt = Packet::tcp(1, 2, TcpHdr::data(1, 2, 0), Bytes::from(raw));
        let sh = shape("ip*tcp*char*int");
        let v = packet_to_value(&pkt, &sh).unwrap();
        let Value::Tuple(parts) = &v else { panic!() };
        assert_eq!(parts[2], Value::Char('A'));
        assert_eq!(parts[3], Value::Int(42));
        // A 3-byte payload does not decode as char*int.
        let bad = Packet::tcp(1, 2, TcpHdr::data(1, 2, 0), Bytes::from_static(b"abc"));
        assert!(packet_to_value(&bad, &sh).is_none());
    }

    #[test]
    fn value_to_packet_carries_tag() {
        let v = Value::tuple(vec![
            Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_UDP)),
            Value::Udp(UdpHdr::new(5, 6)),
            Value::Blob(Bytes::from_static(b"x")),
        ]);
        let tag = ChannelTag::new("audio", 0);
        let pkt = value_to_packet(&v, Some(tag.clone())).unwrap();
        assert_eq!(pkt.tag, Some(tag));
        assert!(matches!(pkt.transport, Transport::Udp(_)));
    }

    #[test]
    fn non_packet_value_traps() {
        assert!(value_to_packet(&Value::Int(1), None).is_err());
        let v = Value::tuple(vec![Value::Int(1), Value::Int(2)]);
        assert!(value_to_packet(&v, None).is_err());
    }

    #[test]
    fn raw_ip_shape_round_trips() {
        let pkt = Packet {
            ip: IpHdr::new(3, 4, 0),
            transport: Transport::None,
            payload: Bytes::from_static(b"raw"),
            tag: None,
            id: 0,
            lineage: Default::default(),
        };
        let sh = shape("ip*blob");
        let v = packet_to_value(&pkt, &sh).unwrap();
        let back = value_to_packet(&v, None).unwrap();
        assert_eq!(back, pkt);
        // A UDP packet does not match a raw-IP channel.
        let udp = Packet::udp(1, 2, 3, 4, Bytes::new());
        assert!(packet_to_value(&udp, &sh).is_none());
    }

    #[test]
    fn rewritten_header_survives_round_trip() {
        let pkt = Packet::tcp(
            7,
            8,
            TcpHdr::data(1000, 80, 5),
            Bytes::from_static(b"GET /"),
        );
        let sh = shape("ip*tcp*blob");
        let v = packet_to_value(&pkt, &sh).unwrap();
        // Simulate what an ASP does: rebuild with a new destination.
        let Value::Tuple(parts) = &v else { panic!() };
        let Value::Ip(mut ip) = parts[0] else {
            panic!()
        };
        ip.dst = 99;
        let rewritten = Value::tuple(vec![Value::Ip(ip), parts[1].clone(), parts[2].clone()]);
        let back = value_to_packet(&rewritten, None).unwrap();
        assert_eq!(back.ip.dst, 99);
        assert_eq!(back.payload, pkt.payload);
    }
}
