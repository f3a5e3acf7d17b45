//! The scheduler: the time-ordered event queue and the slab packets
//! rest in while they are between nodes.
//!
//! A packet is written into the [`PacketSlab`] once, when a node hands
//! it to a link, and read out once, when the receiving node processes
//! it. Everything in between — the link queue, the transmission slot,
//! the `Arrive` event, a CPU queue — passes the 4-byte [`PktRef`], so a
//! heap sift moves a 40-byte [`Ev`] and a hop copies no packet.
//!
//! Whoever holds a `PktRef` owns its slot and must end by calling
//! [`PacketSlab::take`] (to process or drop the packet) or by handing
//! the handle on; [`PacketSlab::live`] counts the slots still owned.
//! Slot numbers never reach a trace, a metric or an ordering decision:
//! events pop by `(at, seq)` alone.
//!
//! Events at equal times fire in the order they were *caused*. For
//! every event but two that is the order they were pushed in: `seq` is
//! drawn at push. A transmission instead draws two consecutive numbers
//! when it *starts* ([`Scheduler::draw_tx`]): the first keys its
//! completion, the second the arrival on a point-to-point link — an
//! arrival is caused when its transmission starts. That is what lets
//! the datapath push the `Arrive` at the start and keep the `TxDone`
//! out of the heap (see `datapath`): whether or not the completion was
//! ever queued, both events have the keys they would have had.
//!
//! The copies of one transmission on a shared segment arrive at one
//! time under consecutive numbers, so nothing can fire between them:
//! they travel as one [`EvKind::ArriveAll`] keyed by the first copy's
//! number, with the numbers of the others reserved
//! ([`Scheduler::arrive_all`]) so every later event keeps its key.

use crate::digest::{self, Fnv};
use crate::fault::FaultAction;
use crate::link::{LinkId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::hash::Hash;

/// Handle to a packet at rest in the [`PacketSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PktRef(u32);

/// Packets between nodes, addressed by [`PktRef`]. Freed slots are
/// reused before the slab grows.
#[derive(Debug, Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Stores `pkt` and returns the handle that now owns its slot.
    pub(crate) fn put(&mut self, pkt: Packet) -> PktRef {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(pkt);
            return PktRef(i);
        }
        let i = u32::try_from(self.slots.len()).expect("more than u32::MAX packets at rest");
        self.slots.push(Some(pkt));
        PktRef(i)
    }

    /// The packet behind a live handle.
    pub(crate) fn get(&self, r: PktRef) -> &Packet {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("packet handle used after its slot was released")
    }

    /// Mutable access to the packet behind a live handle.
    pub(crate) fn get_mut(&mut self, r: PktRef) -> &mut Packet {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("packet handle used after its slot was released")
    }

    /// A fresh slot holding a clone of the packet behind `r`.
    pub(crate) fn dup(&mut self, r: PktRef) -> PktRef {
        let copy = self.get(r).clone();
        self.put(copy)
    }

    /// Moves the packet out and releases its slot.
    pub(crate) fn take(&mut self, r: PktRef) -> Packet {
        let pkt = self.slots[r.0 as usize]
            .take()
            .expect("packet handle used after its slot was released");
        self.free.push(r.0);
        pkt
    }

    /// Slots currently owned by a handle.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A pending event. Node, link and application ids are `u32` here so
/// the whole entry stays within 40 bytes; `Sim` refuses to build a
/// topology they could not number.
#[derive(Debug)]
pub(crate) struct Ev {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EvKind,
}

// A fat event is what this module exists to prevent: every heap sift
// level moves one `Ev` and compares two fields. A three-part key (`at`,
// completion time, `seq`) follows the old push order in more
// coincidences, but its 48-byte event measured -6.8% on `http_gateway`.
const _: () = assert!(std::mem::size_of::<Ev>() <= 40);

#[derive(Debug)]
pub(crate) enum EvKind {
    Arrive {
        node: u32,
        pkt: PktRef,
        via: Option<u32>,
        overheard: bool,
    },
    /// Every copy of one transmission on `link`, at every attached
    /// node but `from`: `to` is the addressed node (the others
    /// overhear), `None` for a broadcast all receive. One event, one
    /// slab slot; the copies are made when it fires.
    ArriveAll {
        link: u32,
        pkt: PktRef,
        from: u32,
        to: Option<u32>,
    },
    TxDone {
        link: u32,
    },
    Timer {
        node: u32,
        app: u32,
        key: u64,
    },
    HookTimer {
        node: u32,
        key: u64,
    },
    CpuDone {
        node: u32,
        epoch: u64,
    },
    /// Rare and wide (a partition carries its groups), so boxed.
    Fault(Box<FaultAction>),
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue plus the packets its events refer to.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    queue: BinaryHeap<Ev>,
    seq: u64,
    /// Times of the `Fault` events still queued, earliest first.
    fault_times: BinaryHeap<Reverse<SimTime>>,
    pub(crate) packets: PacketSlab,
}

impl Scheduler {
    /// Schedules `kind` at `at`; events at equal times fire in push
    /// order.
    fn push(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Ev { at, seq, kind });
    }

    /// The two numbers of a transmission starting now: the one
    /// returned keys its completion, the next one its point-to-point
    /// arrival.
    pub(crate) fn draw_tx(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 2;
        seq
    }

    /// `pkt` reaches `node` over `via` (`None` for a self-send). `seq`
    /// is the arrival number of the transmission that carried it over a
    /// point-to-point link; anything else sorts by push order.
    pub(crate) fn arrive(
        &mut self,
        at: SimTime,
        seq: Option<u64>,
        node: NodeId,
        pkt: PktRef,
        via: Option<LinkId>,
        overheard: bool,
    ) {
        let (node, via) = (node.0 as u32, via.map(|l| l.0 as u32));
        let kind = EvKind::Arrive {
            node,
            pkt,
            via,
            overheard,
        };
        match seq {
            Some(seq) => self.queue.push(Ev { at, seq, kind }),
            None => self.push(at, kind),
        }
    }

    /// `pkt`, sent by `from` on `link`, reaches the `copies` other
    /// attached nodes at once. Draws one number per copy, as `copies`
    /// calls of [`Scheduler::arrive`] would, and keys the event by the
    /// first.
    pub(crate) fn arrive_all(
        &mut self,
        at: SimTime,
        copies: u64,
        link: LinkId,
        pkt: PktRef,
        from: NodeId,
        to: Option<NodeId>,
    ) {
        let seq = self.seq;
        self.seq += copies;
        let kind = EvKind::ArriveAll {
            link: link.0 as u32,
            pkt,
            from: from.0 as u32,
            to: to.map(|n| n.0 as u32),
        };
        self.queue.push(Ev { at, seq, kind });
    }

    /// The transmission occupying `link` completes; `seq` is the number
    /// it drew when it started.
    pub(crate) fn tx_done(&mut self, at: SimTime, seq: u64, link: LinkId) {
        let kind = EvKind::TxDone {
            link: link.0 as u32,
        };
        self.queue.push(Ev { at, seq, kind });
    }

    /// An application timer fires.
    pub(crate) fn timer(&mut self, at: SimTime, node: NodeId, app: usize, key: u64) {
        let (node, app) = (node.0 as u32, app as u32);
        self.push(at, EvKind::Timer { node, app, key });
    }

    /// A packet-hook timer fires.
    pub(crate) fn hook_timer(&mut self, at: SimTime, node: NodeId, key: u64) {
        let node = node.0 as u32;
        self.push(at, EvKind::HookTimer { node, key });
    }

    /// `node`'s CPU finishes the packet at the head of its queue.
    pub(crate) fn cpu_done(&mut self, at: SimTime, node: NodeId, epoch: u64) {
        let node = node.0 as u32;
        self.push(at, EvKind::CpuDone { node, epoch });
    }

    /// A fault-plan action takes effect.
    pub(crate) fn fault(&mut self, at: SimTime, action: FaultAction) {
        self.fault_times.push(Reverse(at));
        self.push(at, EvKind::Fault(Box::new(action)));
    }

    /// When the earliest `Fault` still queued fires (never, if none).
    pub(crate) fn next_fault_at(&self) -> SimTime {
        self.fault_times
            .peek()
            .map_or(SimTime(u64::MAX), |&Reverse(at)| at)
    }

    /// Pops the earliest event if it is due at or before `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<Ev> {
        if self.queue.peek()?.at > t {
            return None;
        }
        self.queue.pop()
    }

    /// Feeds the next number to draw and every queued event in key
    /// order.
    pub(crate) fn digest(&self, h: &mut Fnv) {
        let mut evs: Vec<&Ev> = self.queue.iter().collect();
        evs.sort_by_key(|ev| (ev.at, ev.seq));
        self.seq.hash(h);
        for ev in evs {
            (ev.at, ev.seq).hash(h);
            match &ev.kind {
                EvKind::Arrive {
                    node,
                    pkt,
                    via,
                    overheard,
                } => {
                    (0u8, node, via, overheard).hash(h);
                    digest::packet(self.packets.get(*pkt), h);
                }
                EvKind::ArriveAll {
                    link,
                    pkt,
                    from,
                    to,
                } => {
                    (1u8, link, from, to).hash(h);
                    digest::packet(self.packets.get(*pkt), h);
                }
                EvKind::TxDone { link } => (2u8, link).hash(h),
                EvKind::Timer { node, app, key } => (3u8, node, app, key).hash(h),
                EvKind::HookTimer { node, key } => (4u8, node, key).hash(h),
                EvKind::CpuDone { node, epoch } => (5u8, node, epoch).hash(h),
                EvKind::Fault(action) => (6u8, format!("{action:?}")).hash(h),
            }
        }
    }

    /// The `Fault` event just popped is off the queue. Faults fire in
    /// time order, so it was the earliest.
    pub(crate) fn fault_fired(&mut self) {
        self.fault_times.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn equal_times_pop_in_causal_order_and_freed_slots_are_reused() {
        let mut s = Scheduler::default();
        let t = SimTime::from_ms(5);
        // A transmission starts: two numbers, completion then arrival.
        let tx = s.draw_tx();
        for key in [3, 1, 2] {
            s.hook_timer(t, NodeId(0), key);
        }
        assert_eq!(s.draw_tx(), tx + 5, "two draws per transmission");
        // Pushed last, but keyed by when the transmission started: both
        // sort ahead of the timers, whichever is pushed first.
        s.arrive(t, Some(tx + 1), NodeId(7), PktRef(0), None, false);
        s.tx_done(t, tx, LinkId(8));
        s.hook_timer(SimTime::from_ms(1), NodeId(0), 9);
        assert!(s.pop_due(SimTime::ZERO).is_none());
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_due(t))
            .map(|ev| match ev.kind {
                EvKind::HookTimer { key, .. } => key,
                EvKind::TxDone { link } => u64::from(link),
                EvKind::Arrive { node, .. } => u64::from(node),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, [9, 8, 7, 3, 1, 2]);

        // The earliest pending fault is known until it fires.
        assert_eq!(s.next_fault_at(), SimTime(u64::MAX));
        s.fault(SimTime::from_ms(9), FaultAction::HealPartition);
        s.fault(SimTime::from_ms(7), FaultAction::HealPartition);
        assert_eq!(s.next_fault_at(), SimTime::from_ms(7));
        assert!(s.pop_due(SimTime::from_ms(8)).is_some());
        s.fault_fired();
        assert_eq!(s.next_fault_at(), SimTime::from_ms(9));
        assert!(s.pop_due(SimTime::from_ms(9)).is_some());
        s.fault_fired();
        assert_eq!(s.next_fault_at(), SimTime(u64::MAX));

        let pkt = |port| Packet::udp(1, 2, port, 0, Bytes::new());
        let slab = &mut s.packets;
        let (a, b) = (slab.put(pkt(10)), slab.put(pkt(11)));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.take(a).udp_hdr().map(|u| u.sport), Some(10));
        assert_eq!(slab.live(), 1);
        // The freed slot is taken before the slab grows.
        let c = slab.put(pkt(12));
        assert_eq!((c, slab.slots.len()), (a, 2));
        slab.get_mut(c).ip.ttl = 7;
        assert_eq!((slab.get(c).ip.ttl, slab.get(b).ip.ttl), (7, 64));
        slab.take(b);
        slab.take(c);
        assert_eq!(slab.live(), 0);
    }
}
