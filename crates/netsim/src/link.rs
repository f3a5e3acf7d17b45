//! Links: shared half-duplex media with bandwidth, propagation delay,
//! and a bounded drop-tail queue.
//!
//! A link connects two or more nodes. Two-node links model point-to-point
//! wires; multi-node links model a shared Ethernet **segment** — exactly
//! the setting of the paper's audio experiment, where the audio client
//! and the load generator sit on the same segment and compete for its
//! capacity. All transmissions on a link serialize through one shared
//! medium (1990s half-duplex Ethernet).
//!
//! Each link keeps a windowed throughput measurement; this is what the
//! PLAN-P `linkLoad` primitive reports to router programs (the paper's
//! "monitoring the bandwidth of outgoing links", section 3.1).

use crate::digest::{self, Fnv};
use crate::sched::{PacketSlab, PktRef};
use crate::time::SimTime;
use std::collections::VecDeque;
use std::hash::Hash;
use std::time::Duration;

/// Identifies a link within a [`Sim`](crate::sim::Sim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Identifies a node within a [`Sim`](crate::sim::Sim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Capacity in kilobits per second (e.g. `10_000` for 10 Mb/s).
    pub kbps: u64,
    /// Propagation delay.
    pub delay: Duration,
    /// Maximum queued packets before tail drop.
    pub queue_pkts: usize,
}

impl LinkSpec {
    /// A 10 Mb/s Ethernet-segment-like link.
    pub fn ethernet_10() -> Self {
        LinkSpec {
            kbps: 10_000,
            delay: Duration::from_micros(100),
            queue_pkts: 64,
        }
    }

    /// A 100 Mb/s Ethernet-like link.
    pub fn ethernet_100() -> Self {
        LinkSpec {
            kbps: 100_000,
            delay: Duration::from_micros(50),
            queue_pkts: 128,
        }
    }
}

/// A packet queued for transmission: its handle and what the link
/// needs without looking at it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub pkt: PktRef,
    /// The packet's wire size, for `tx_time` and the byte counters.
    pub bytes: u32,
    /// Sending node.
    pub from: NodeId,
    /// Addressed receiver; `None` broadcasts to every other attached node
    /// (multicast on a segment).
    pub next_hop: Option<NodeId>,
    /// Enqueue time in simulation nanoseconds; the hop-latency
    /// histogram observes `tx_done - enq_ns` per transmitted packet.
    pub enq_ns: u64,
}

const _: () = assert!(std::mem::size_of::<Queued>() <= 40);

/// The packet on the medium and the key `(done_at, seq)` of its
/// completion, drawn when the transmission started; its arrival on a
/// point-to-point link is keyed `seq + 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transmission {
    pub q: Queued,
    pub done_at: SimTime,
    pub seq: u64,
    pub completion: Completion,
}

/// Where a transmission's completion stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Completion {
    /// A `TxDone` is queued and will schedule the arrival.
    Queued,
    /// No event: the arrival was scheduled at the start, and the
    /// bookkeeping waits for `Sim::settle`. `q.pkt` belongs to that
    /// arrival and must not be read.
    Elided,
    /// Elided, then queued as a `TxDone` after all because a packet
    /// waits behind it: it must not schedule the arrival again.
    Materialised,
}

/// Throughput measurement window.
const WINDOW: Duration = Duration::from_millis(500);

/// A link instance.
#[derive(Debug)]
pub struct Link {
    /// Static parameters.
    pub spec: LinkSpec,
    /// Attached nodes.
    pub nodes: Vec<NodeId>,
    pub(crate) queue: VecDeque<Queued>,
    pub(crate) transmitting: Option<Transmission>,
    /// True while fault injection has flapped the link down: packets
    /// offered to it are dropped at enqueue.
    pub(crate) fault_down: bool,
    /// Continuous fault-injection impairments (loss, corruption,
    /// duplication, jitter) applied to delivered copies.
    pub(crate) faults: crate::fault::LinkFaults,
    // --- statistics ---
    /// Packets dropped at the queue tail.
    pub drops: u64,
    /// Packet copies lost to fault injection on this link (down flaps,
    /// Bernoulli loss, partitions) — kept separate from congestion
    /// `drops`.
    pub fault_drops: u64,
    /// Total packets transmitted.
    pub tx_packets: u64,
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    window_start: SimTime,
    window_bytes: u64,
    last_window_kbps: i64,
}

impl Link {
    pub(crate) fn new(spec: LinkSpec, nodes: Vec<NodeId>) -> Self {
        Link {
            spec,
            nodes,
            queue: VecDeque::new(),
            transmitting: None,
            fault_down: false,
            faults: crate::fault::LinkFaults::default(),
            drops: 0,
            fault_drops: 0,
            tx_packets: 0,
            tx_bytes: 0,
            window_start: SimTime::ZERO,
            window_bytes: 0,
            last_window_kbps: 0,
        }
    }

    /// Serialization time of `bytes` at this link's capacity.
    pub fn tx_time(&self, bytes: usize) -> Duration {
        Duration::from_nanos((bytes as u64 * 8).saturating_mul(1_000_000) / self.spec.kbps)
    }

    /// True if the link is a multi-node broadcast segment.
    pub fn is_segment(&self) -> bool {
        self.nodes.len() > 2
    }

    /// Accounts transmitted bytes into the measurement window.
    pub(crate) fn account(&mut self, now: SimTime, bytes: usize) {
        self.roll_window(now);
        self.tx_packets += 1;
        self.tx_bytes += bytes as u64;
        self.window_bytes += bytes as u64;
    }

    fn roll_window(&mut self, now: SimTime) {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed >= WINDOW {
            // Rate of the completed window. If more than one window passed
            // idle, the measured rate decays to zero.
            let full_windows = (elapsed.as_nanos() / WINDOW.as_nanos()) as u64;
            self.last_window_kbps = if full_windows == 1 {
                (self.window_bytes * 8) as i64 / WINDOW.as_millis() as i64
            } else {
                0
            };
            self.window_bytes = 0;
            self.window_start += Duration::from_nanos((WINDOW.as_nanos() as u64) * full_windows);
        }
    }

    /// Measured throughput (kb/s) over the last completed window — the
    /// `linkLoad` reading.
    pub fn measured_kbps(&mut self, now: SimTime) -> i64 {
        self.roll_window(now);
        // Blend the completed window with the current partial one so the
        // reading reacts upward within ~100 ms of a load increase and
        // decays within one or two windows of the load stopping.
        let elapsed = now.saturating_sub(self.window_start);
        let ms = elapsed.as_millis() as i64;
        let partial = if ms >= 100 {
            (self.window_bytes * 8) as i64 / ms
        } else {
            0
        };
        partial.max(self.last_window_kbps)
    }

    /// Feeds the queue, the transmission on the medium (not whether its
    /// completion was elided), the fault settings and the counters.
    pub(crate) fn digest(&self, slab: &PacketSlab, h: &mut Fnv) {
        let queued = |q: &Queued, h: &mut Fnv| {
            (q.bytes, q.from, q.next_hop, q.enq_ns).hash(h);
            digest::packet(slab.get(q.pkt), h);
        };
        self.queue.len().hash(h);
        for q in &self.queue {
            queued(q, h);
        }
        let tx = self.transmitting.as_ref();
        tx.map(|tx| (tx.done_at, tx.seq)).hash(h);
        if let Some(tx) = tx {
            queued(&tx.q, h);
        }
        let f = self.faults;
        let faults = [f.loss, f.corrupt, f.duplicate, f.jitter_ms].map(f64::to_bits);
        (self.fault_down, faults, self.drops, self.fault_drops).hash(h);
        (self.tx_packets, self.tx_bytes, self.window_start).hash(h);
        (self.window_bytes, self.last_window_kbps).hash(h);
    }

    /// Current queue length in packets (including the one in flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + usize::from(self.transmitting.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_scales_with_size_and_capacity() {
        let l = Link::new(
            LinkSpec {
                kbps: 10_000,
                delay: Duration::ZERO,
                queue_pkts: 8,
            },
            vec![],
        );
        // 1250 bytes = 10_000 bits at 10 Mb/s = 1 ms.
        assert_eq!(l.tx_time(1250), Duration::from_millis(1));
        let fast = Link::new(LinkSpec::ethernet_100(), vec![]);
        assert_eq!(fast.tx_time(1250), Duration::from_micros(100));
    }

    #[test]
    fn throughput_window_measures_rate() {
        let mut l = Link::new(LinkSpec::ethernet_10(), vec![]);
        // Send 125 kB over the first 500 ms window → 2000 kb/s.
        for i in 0..100 {
            l.account(SimTime::from_ms(i * 5), 1250);
        }
        let rate = l.measured_kbps(SimTime::from_ms(600));
        assert!((1500..=2500).contains(&rate), "rate {rate}");
    }

    #[test]
    fn idle_link_decays_to_zero() {
        let mut l = Link::new(LinkSpec::ethernet_10(), vec![]);
        l.account(SimTime::from_ms(0), 10_000);
        // Far in the future with no traffic: rate is 0.
        assert_eq!(l.measured_kbps(SimTime::from_secs(10)), 0);
    }

    #[test]
    fn partial_window_reacts_quickly() {
        let mut l = Link::new(LinkSpec::ethernet_10(), vec![]);
        // A burst within the first 200 ms should already register.
        for i in 0..40 {
            l.account(SimTime::from_ms(i * 5), 1250);
        }
        let rate = l.measured_kbps(SimTime::from_ms(210));
        assert!(rate > 1000, "rate {rate}");
    }

    #[test]
    fn segment_detection() {
        let l = Link::new(LinkSpec::ethernet_10(), vec![NodeId(0), NodeId(1)]);
        assert!(!l.is_segment());
        let s = Link::new(
            LinkSpec::ethernet_10(),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        assert!(s.is_segment());
    }
}
