//! Packets and protocol headers.
//!
//! These header types are shared with `planp-vm` (PLAN-P header *values*
//! are these same structs), so packets cross the PLAN-P layer without any
//! conversion.

use bytes::Bytes;
use std::fmt;
use std::rc::Rc;

/// An IPv4-like header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpHdr {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl IpHdr {
    /// Protocol number for TCP.
    pub const PROTO_TCP: u8 = 6;
    /// Protocol number for UDP.
    pub const PROTO_UDP: u8 = 17;
    /// Default initial TTL.
    pub const DEFAULT_TTL: u8 = 64;

    /// A fresh header with the default TTL.
    pub fn new(src: u32, dst: u32, proto: u8) -> Self {
        IpHdr {
            src,
            dst,
            ttl: Self::DEFAULT_TTL,
            proto,
        }
    }

    /// True if the destination is an IPv4 multicast group (224.0.0.0/4).
    pub fn is_multicast(&self) -> bool {
        (self.dst >> 28) == 0xE
    }
}

/// TCP flag bits.
pub mod tcp_flags {
    /// Connection teardown.
    pub const FIN: u8 = 0x01;
    /// Connection setup.
    pub const SYN: u8 = 0x02;
    /// Reset.
    pub const RST: u8 = 0x04;
    /// Push.
    pub const PSH: u8 = 0x08;
    /// Acknowledgement valid.
    pub const ACK: u8 = 0x10;
}

/// A TCP header (the fields mini-TCP uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHdr {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits (see [`tcp_flags`]).
    pub flags: u8,
    /// Advertised window.
    pub wnd: u16,
}

impl TcpHdr {
    /// A data segment header with the given ports and sequence number.
    pub fn data(sport: u16, dport: u16, seq: u32) -> Self {
        TcpHdr {
            sport,
            dport,
            seq,
            ack: 0,
            flags: tcp_flags::ACK,
            wnd: 0,
        }
    }

    /// Tests a flag bit.
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHdr {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
}

impl UdpHdr {
    /// Constructs a header.
    pub fn new(sport: u16, dport: u16) -> Self {
        UdpHdr { sport, dport }
    }
}

/// The transport layer of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpHdr),
    /// A UDP datagram.
    Udp(UdpHdr),
    /// Raw IP (no transport header).
    None,
}

impl Transport {
    /// Wire bytes this header contributes.
    pub(crate) fn header_len(&self) -> usize {
        match self {
            Transport::Tcp(_) => 20,
            Transport::Udp(_) => 8,
            Transport::None => 0,
        }
    }
}

/// Which channel a packet was sent on: the record behind a
/// [`ChannelTag`].
#[derive(Debug, PartialEq, Eq)]
pub struct ChanIdent {
    /// Channel name.
    pub chan: Rc<str>,
    /// Overload index within the channel's name group.
    pub overload: u32,
}

/// The PLAN-P channel tag carried by packets sent on user-defined
/// channels (the paper: "when packets are sent on a user-defined channel,
/// the packet is tagged for identification").
///
/// A thin shared handle: one pointer to a [`ChanIdent`], which it
/// derefs to (`tag.chan`, `tag.overload`). The PLAN-P layer builds one
/// per channel overload when a program is installed and every send
/// clones it — a count increment, 8 bytes in the packet. Equality is by
/// content, so a tag built elsewhere from the same name and overload is
/// the same tag (`Rc`'s comparison tries the pointer first: between
/// nodes installed from one image it is the same record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelTag(Rc<ChanIdent>);

impl ChannelTag {
    /// A fresh record for overload `overload` of channel `chan`.
    pub fn new(chan: impl Into<Rc<str>>, overload: u32) -> Self {
        ChannelTag(Rc::new(ChanIdent {
            chan: chan.into(),
            overload,
        }))
    }
}

impl std::ops::Deref for ChannelTag {
    type Target = ChanIdent;
    fn deref(&self) -> &ChanIdent {
        &self.0
    }
}

/// Causal lineage a packet carries for tracing: which trace it belongs
/// to and which packet identity (span) created it. Filled in by the
/// PLAN-P layer when an ASP re-emits a packet; left at the default for
/// application ingress, where the simulator roots a fresh trace at
/// first stamp.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// Trace (= root span) id; 0 until stamped.
    pub trace: u64,
    /// Parent span id; 0 for ingress roots.
    pub parent: u64,
    /// How this packet identity came to exist.
    pub origin: planp_telemetry::SpanOrigin,
    /// Channel the creating ASP sent it on, if any (the sender's
    /// per-overload handle, shared with [`Packet::tag`] where the
    /// channel is a tagged one).
    pub chan: Option<ChannelTag>,
    /// Whether this trace was kept by the head sampler. Decided once at
    /// the root stamp and inherited by every descendant packet, so a
    /// kept trace keeps its *complete* span tree. Defaults to `true`
    /// (unstamped packets are presumed kept until the root decision).
    pub sampled: bool,
    /// Absolute simulation-time deadline in nanoseconds (0 = none).
    /// Propagated to every descendant packet an ASP emits, so expired
    /// work is dropped at ingress instead of burning further hops.
    pub deadline_ns: u64,
}

impl Default for Lineage {
    fn default() -> Self {
        Lineage {
            trace: 0,
            parent: 0,
            origin: planp_telemetry::SpanOrigin::default(),
            chan: None,
            sampled: true,
            deadline_ns: 0,
        }
    }
}

impl Lineage {
    /// Whether the deadline has passed at `now_ns`: a packet with a
    /// deadline (non-zero) is still live at its deadline and expired one
    /// nanosecond later. Node ingress, the PLAN-P layer's admission and
    /// the cluster gateway all drop by this one rule.
    #[inline]
    pub fn expired(&self, now_ns: u64) -> bool {
        self.deadline_ns != 0 && now_ns > self.deadline_ns
    }
}

/// A simulated packet.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Network header.
    pub ip: IpHdr,
    /// Transport header.
    pub transport: Transport,
    /// Payload bytes.
    pub payload: Bytes,
    /// PLAN-P channel tag, if sent on a user-defined channel.
    pub tag: Option<ChannelTag>,
    /// Telemetry identity: assigned monotonically by the simulator the
    /// first time the packet enters a send path (`0` = not yet
    /// assigned). Clones keep the id, so hop-by-hop trace events for one
    /// packet share it. Ignored by `PartialEq`.
    pub id: u64,
    /// Causal lineage for span-tree tracing. Ignored by `PartialEq`.
    pub lineage: Lineage,
}

// A hop hands the packet over by value about ten times (slab → `arrive`
// → `process_arrival` → hook → `NodeApi::send` → `enqueue_on_link` →
// slab). The compiler copies up to 128 bytes inline (eight SSE moves)
// and calls `memcpy` above that: at 144 bytes those functions held
// 32 `call memcpy` and libc `memmove` was 15.7% of `relay_grid`
// samples; at 112 none does (`scripts/memcpy-census.sh`), a hookless
// hop costs 170 ns where it cost 213, and `relay_grid` runs 20% faster.
// A 120-byte prototype measured the same as 112: the step is the
// threshold, not the byte count. The `Option` (a slab slot) must find a
// niche, not grow a word.
const _: () = assert!(std::mem::size_of::<Packet>() <= 112);
const _: () = assert!(std::mem::size_of::<Option<Packet>>() <= 112);

/// Packet equality compares wire content (headers, payload, tag) and
/// ignores the telemetry id and lineage, so a forwarded clone still
/// equals the original.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.ip == other.ip
            && self.transport == other.transport
            && self.payload == other.payload
            && self.tag == other.tag
    }
}

impl Packet {
    /// A UDP packet.
    pub fn udp(src: u32, dst: u32, sport: u16, dport: u16, payload: Bytes) -> Self {
        Packet {
            ip: IpHdr::new(src, dst, IpHdr::PROTO_UDP),
            transport: Transport::Udp(UdpHdr::new(sport, dport)),
            payload,
            tag: None,
            id: 0,
            lineage: Lineage::default(),
        }
    }

    /// A TCP packet.
    pub fn tcp(src: u32, dst: u32, hdr: TcpHdr, payload: Bytes) -> Self {
        Packet {
            ip: IpHdr::new(src, dst, IpHdr::PROTO_TCP),
            transport: Transport::Tcp(hdr),
            payload,
            tag: None,
            id: 0,
            lineage: Lineage::default(),
        }
    }

    /// Total bytes this packet occupies on the wire (Ethernet framing +
    /// IP header + transport header + payload).
    pub fn wire_size(&self) -> usize {
        14 + 20 + self.transport.header_len() + self.payload.len()
    }

    /// The TCP header, if any.
    pub fn tcp_hdr(&self) -> Option<&TcpHdr> {
        match &self.transport {
            Transport::Tcp(h) => Some(h),
            _ => None,
        }
    }

    /// The UDP header, if any.
    pub fn udp_hdr(&self) -> Option<&UdpHdr> {
        match &self.transport {
            Transport::Udp(h) => Some(h),
            _ => None,
        }
    }
}

/// Formats an address as a dotted quad.
pub fn addr_to_string(a: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (a >> 24) & 0xff,
        (a >> 16) & 0xff,
        (a >> 8) & 0xff,
        a & 0xff
    )
}

/// Builds an address from four octets.
pub const fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
    ((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proto = match &self.transport {
            Transport::Tcp(h) => format!("tcp {}:{}", h.sport, h.dport),
            Transport::Udp(h) => format!("udp {}:{}", h.sport, h.dport),
            Transport::None => "ip".to_string(),
        };
        write!(
            f,
            "[{} -> {} {} {}B]",
            addr_to_string(self.ip.src),
            addr_to_string(self.ip.dst),
            proto,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_round_trip() {
        assert_eq!(addr_to_string(addr(131, 254, 60, 81)), "131.254.60.81");
    }

    #[test]
    fn multicast_detection() {
        assert!(IpHdr::new(0, addr(224, 0, 0, 5), 17).is_multicast());
        assert!(!IpHdr::new(0, addr(10, 0, 0, 1), 17).is_multicast());
    }

    #[test]
    fn wire_size_accounts_for_headers() {
        let p = Packet::udp(1, 2, 10, 20, Bytes::from_static(&[0; 100]));
        assert_eq!(p.wire_size(), 14 + 20 + 8 + 100);
        let t = Packet::tcp(1, 2, TcpHdr::data(1, 2, 0), Bytes::new());
        assert_eq!(t.wire_size(), 14 + 20 + 20);
    }

    #[test]
    fn header_accessors() {
        let p = Packet::udp(1, 2, 10, 20, Bytes::new());
        assert!(p.udp_hdr().is_some());
        assert!(p.tcp_hdr().is_none());
    }

    #[test]
    fn display_is_compact() {
        let p = Packet::udp(addr(10, 0, 0, 1), addr(10, 0, 0, 2), 5, 6, Bytes::new());
        assert_eq!(p.to_string(), "[10.0.0.1 -> 10.0.0.2 udp 5:6 0B]");
    }

    #[test]
    fn a_deadline_expires_one_nanosecond_after_it() {
        let none = Lineage::default();
        assert!(
            !none.expired(0) && !none.expired(u64::MAX),
            "0 = no deadline"
        );
        let l = Lineage {
            deadline_ns: 1_000,
            ..Lineage::default()
        };
        assert!(!l.expired(999));
        assert!(!l.expired(1_000), "live at its deadline");
        assert!(l.expired(1_001), "expired one nanosecond later");
    }

    #[test]
    fn tcp_flags_work() {
        let h = TcpHdr {
            flags: tcp_flags::SYN | tcp_flags::ACK,
            ..TcpHdr::data(1, 2, 0)
        };
        assert!(h.has(tcp_flags::SYN) && h.has(tcp_flags::ACK) && !h.has(tcp_flags::FIN));
    }
}
