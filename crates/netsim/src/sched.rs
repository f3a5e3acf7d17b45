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
//! events pop by `(at, seq)` alone, with `seq` assigned at push.

use crate::fault::FaultAction;
use crate::link::{LinkId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    seq: u64,
    pub(crate) kind: EvKind,
}

// A fat event is what this module exists to prevent: every heap sift
// level moves one `Ev`.
const _: () = assert!(std::mem::size_of::<Ev>() <= 40);

#[derive(Debug)]
pub(crate) enum EvKind {
    Arrive {
        node: u32,
        pkt: PktRef,
        via: Option<u32>,
        overheard: bool,
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

    /// `pkt` reaches `node` over `via` (`None` for a self-send).
    pub(crate) fn arrive(
        &mut self,
        at: SimTime,
        node: NodeId,
        pkt: PktRef,
        via: Option<LinkId>,
        overheard: bool,
    ) {
        let (node, via) = (node.0 as u32, via.map(|l| l.0 as u32));
        self.push(
            at,
            EvKind::Arrive {
                node,
                pkt,
                via,
                overheard,
            },
        );
    }

    /// The transmission occupying `link` completes.
    pub(crate) fn tx_done(&mut self, at: SimTime, link: LinkId) {
        let link = link.0 as u32;
        self.push(at, EvKind::TxDone { link });
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
        self.push(at, EvKind::Fault(Box::new(action)));
    }

    /// Pops the earliest event if it is due at or before `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<Ev> {
        if self.queue.peek()?.at > t {
            return None;
        }
        self.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn equal_times_pop_in_push_order_and_freed_slots_are_reused() {
        let mut s = Scheduler::default();
        let t = SimTime::from_ms(5);
        for link in [3, 1, 2] {
            s.tx_done(t, LinkId(link));
        }
        s.tx_done(SimTime::from_ms(1), LinkId(9));
        assert!(s.pop_due(SimTime::ZERO).is_none());
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_due(t))
            .map(|ev| match ev.kind {
                EvKind::TxDone { link } => link,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, [9, 3, 1, 2]);

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
