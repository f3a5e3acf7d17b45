//! Rust traffic applications for the chaos experiments: a paced
//! sequence-stamped source that answers NACKs with retransmissions,
//! and a collector that counts unique and duplicated deliveries.
//!
//! Both apps mirror their headline counters into the shared metrics
//! registry (`chaos.sent`, `chaos.unique`) through pre-registered
//! [`CounterId`] handles, so windowed SLO rules (the delivery-floor
//! rule of the health monitor) can watch the stream live without any
//! per-event string hashing.

use super::asp::{DATA_PORT, NACK_PORT};
use bytes::Bytes;
use netsim::packet::Packet;
use netsim::rng::Seedless;
use netsim::{App, NodeApi};
use planp_telemetry::CounterId;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Registry counter for first transmissions from the source.
pub const SENT_COUNTER: &str = "chaos.sent";
/// Registry counter for distinct sequences the collector received.
pub const UNIQUE_COUNTER: &str = "chaos.unique";

/// Bytes of filler after the 8-byte sequence number.
const FILLER: usize = 56;

/// The data packet for `seq` — deterministic, so the source can rebuild
/// any packet a NACK asks for.
pub fn data_packet(src: u32, dst: u32, seq: u64) -> Packet {
    let mut payload = Vec::with_capacity(8 + FILLER);
    payload.extend_from_slice(&seq.to_be_bytes());
    payload.extend(std::iter::repeat_n(seq as u8, FILLER));
    Packet::udp(src, dst, DATA_PORT, DATA_PORT, Bytes::from(payload))
}

/// Counters kept by [`SeqSource`].
#[derive(Debug, Default, Clone)]
pub struct SeqSourceStats {
    /// First transmissions (one per sequence number).
    pub sent: u64,
    /// Retransmissions triggered by NACKs that reached the source
    /// (i.e. that no relay on the path could answer from its buffer).
    pub retransmits: u64,
    /// Deliberate re-sends of the final sequence (tail protection).
    pub tail_resends: u64,
}

/// Sends `count` sequence-stamped datagrams at a fixed pace, then
/// re-sends the final datagram a few times (so a lost tail, which no
/// later arrival can reveal as a gap, still gets another chance).
/// NACKs delivered to the source are answered by rebuilding and
/// re-sending the requested sequence.
pub struct SeqSource {
    dst: u32,
    count: u64,
    interval: Duration,
    tail_resends: u32,
    next: u64,
    c_sent: Option<CounterId>,
    /// Shared counters.
    pub stats: Rc<RefCell<SeqSourceStats>>,
}

impl SeqSource {
    /// A source sending `count` packets to `dst`, one every `interval`.
    pub fn new(dst: u32, count: u64, interval: Duration) -> Self {
        SeqSource {
            dst,
            count,
            interval,
            tail_resends: 4,
            next: 0,
            c_sent: None,
            stats: Rc::new(RefCell::new(SeqSourceStats::default())),
        }
    }
}

impl App for SeqSource {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.c_sent = Some(api.telemetry().metrics.register_counter(SENT_COUNTER));
        api.set_timer(self.interval, 0);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let is_nack = pkt
            .udp_hdr()
            .is_some_and(|u| u.dport == NACK_PORT && pkt.payload.len() >= 8);
        if is_nack {
            let seq = u64::from_be_bytes(pkt.payload[..8].try_into().unwrap());
            if seq < self.count {
                self.stats.borrow_mut().retransmits += 1;
                api.send(data_packet(api.addr(), self.dst, seq));
            }
        }
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.next < self.count {
            api.send(data_packet(api.addr(), self.dst, self.next));
            self.next += 1;
            self.stats.borrow_mut().sent += 1;
            if let Some(id) = self.c_sent {
                api.telemetry().metrics.inc_id(id);
            }
            api.set_timer(self.interval, 0);
        } else if self.tail_resends > 0 && self.count > 0 {
            self.tail_resends -= 1;
            self.stats.borrow_mut().tail_resends += 1;
            api.send(data_packet(api.addr(), self.dst, self.count - 1));
            api.set_timer(self.interval, 0);
        }
    }

    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        // Timers are swallowed while a node is down; pick the pace back
        // up where the crash left it.
        api.set_timer(self.interval, 0);
    }
}

/// Counters kept by [`SeqCollector`].
#[derive(Debug, Default, Clone)]
pub struct SeqCollectorStats {
    /// Distinct sequence numbers delivered.
    pub unique: u64,
    /// Deliveries of an already-seen sequence number.
    pub duplicates: u64,
    /// Deliveries whose filler bytes did not match the sequence stamp
    /// (payload corruption that slipped through).
    pub mangled: u64,
}

/// Receives sequence-stamped datagrams and tallies unique deliveries,
/// duplicates, and corrupted payloads.
pub struct SeqCollector {
    #[allow(clippy::disallowed_types)] // lookup-only: `insert`, never iterated
    seen: std::collections::HashSet<u64, Seedless>,
    c_unique: Option<CounterId>,
    /// Shared counters.
    pub stats: Rc<RefCell<SeqCollectorStats>>,
}

impl SeqCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SeqCollector {
            seen: Default::default(),
            c_unique: None,
            stats: Rc::new(RefCell::new(SeqCollectorStats::default())),
        }
    }
}

impl Default for SeqCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl App for SeqCollector {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.c_unique = Some(api.telemetry().metrics.register_counter(UNIQUE_COUNTER));
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let is_data = pkt
            .udp_hdr()
            .is_some_and(|u| u.dport == DATA_PORT && pkt.payload.len() >= 8);
        if !is_data {
            return;
        }
        let seq = u64::from_be_bytes(pkt.payload[..8].try_into().unwrap());
        let mut stats = self.stats.borrow_mut();
        if pkt.payload[8..].iter().any(|&b| b != seq as u8) {
            stats.mangled += 1;
        }
        if self.seen.insert(seq) {
            stats.unique += 1;
            drop(stats);
            if let Some(id) = self.c_unique {
                api.telemetry().metrics.inc_id(id);
            }
        } else {
            stats.duplicates += 1;
        }
    }
}
