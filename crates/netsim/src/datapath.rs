//! The link datapath: a packet is handed to a link, waits in its queue,
//! occupies the medium, and arrives at the far end.
//!
//! **One event per hop.** A transmission that nothing can observe
//! completing — see [`Sim::start_tx`] for the conditions — pushes its
//! `Arrive` when it starts and no `TxDone` at all. The link remembers
//! the completion's key, and the bookkeeping the `TxDone` would have
//! done is *settled* the next time anything can see it: compare that key
//! with the key of the event being processed, and if the completion lies
//! behind it, do the bookkeeping at the completion's own time. If a
//! packet is queued behind a completion still ahead, the `TxDone` is
//! *materialised* under the key it would always have had, to start the
//! next transmission on time.
//!
//! The rule for any code that reads a link's `transmitting`, queue
//! length, `tx_*` counters, measurement window or the hop-latency
//! histogram: **settle the link first**.
//!
//! **One arrival per transmission.** On a shared segment, or for a
//! broadcast, every attached node but the sender gets a copy. When the
//! receiver-side fault pipeline would do nothing to any of them
//! (`Faults::quiet`), [`Sim::tx_done`] pushes one `ArriveAll` in place
//! of one `Arrive` per copy, under the first copy's number with the
//! others' reserved, and [`Sim::arrive_all`] plays the copies out when
//! it fires: in attachment order, each counted as the event it replaces
//! (in `events_elided` too, from the second on). Whether a copy is
//! *made* is decided there, at arrival time, from the node's state at
//! that moment: an overheard copy at an up node with no hook is counted
//! and skipped, and the one slab slot goes to the last node that needs
//! it. A link with an impairment keeps one event per copy: loss and
//! jitter are drawn per copy.
//!
//! The segment's `TxDone` itself stays queued. Its arrivals draw their
//! numbers when it fires; eliding it would number them at the start of
//! the transmission and move tie orders that are pinned.

use crate::fault::FaultKind;
use crate::link::{Completion, LinkId, NodeId, Queued, Transmission};
use crate::packet::Packet;
use crate::sched::PktRef;
use crate::sim::Sim;
use crate::time::SimTime;
use bytes::Bytes;
use planp_telemetry::{Category, DropReason, TraceEvent};

impl Sim {
    /// Hands `pkt` to the link: this is where a packet comes to rest in
    /// the slab, unless the link is down or its queue is full.
    pub(crate) fn enqueue_on_link(
        &mut self,
        link_id: LinkId,
        from: NodeId,
        next_hop: Option<NodeId>,
        pkt: Packet,
    ) {
        let (bytes, pid, sampled) = (pkt.wire_size() as u32, pkt.id, pkt.lineage.sampled);
        if self.links[link_id.0].fault_down {
            self.faults.stats.link_down_drops += 1;
            let (reason, kind) = (DropReason::LinkFaultDown, FaultKind::LinkDownDrop);
            self.fault_copy_drop(link_id, from, pid, sampled, reason, kind);
            return;
        }
        self.settle(link_id);
        let now = self.now;
        let link = &self.links[link_id.0];
        let idle = link.transmitting.is_none();
        let link_dropped = !idle && link.queue.len() >= link.spec.queue_pkts;
        if link_dropped {
            self.links[link_id.0].drops += 1;
            self.total_link_drops += 1;
        } else {
            let q = Queued {
                pkt: self.sched.packets.put(pkt),
                bytes,
                from,
                next_hop,
                enq_ns: now.as_nanos(),
            };
            if idle {
                self.start_tx(link_id, q);
            } else {
                self.materialise(link_id);
                self.links[link_id.0].queue.push_back(q);
            }
        }
        let qlen = self.links[link_id.0].queue_len() as u64;
        self.instruments.link_qdepth[link_id.0].observe(qlen);
        let (link, from) = (link_id.0 as u32, from.0 as u32);
        if link_dropped {
            self.trace_pkt(Category::DROP, sampled, |t_ns| TraceEvent::LinkDrop {
                t_ns,
                link,
                from,
                pkt: pid,
            });
        } else {
            self.trace_pkt(Category::LINK, sampled, |t_ns| TraceEvent::LinkEnqueue {
                t_ns,
                link,
                from,
                pkt: pid,
                bytes,
                qlen: qlen as u32,
            });
        }
    }

    /// Puts `q` on the idle medium of `link_id`, now. The completion is
    /// elided when nothing can tell, which is decided here from state the
    /// simulator already holds: an addressed packet on a two-node link
    /// with nothing queued behind it; a quiet link (`Faults::quiet`: the
    /// receiver-side fault pipeline would do nothing); no `LinkTx` event
    /// to emit at the completion time; and a completion that falls
    /// within the running `run_until` and strictly before the next
    /// scheduled fault, so none of that can change while it is in
    /// flight, and strictly before the health monitor's next boundary,
    /// so the first event past a boundary — the one the monitor
    /// evaluates after — is always a queued one.
    fn start_tx(&mut self, link_id: LinkId, q: Queued) {
        let seq = self.sched.draw_tx();
        let link = &mut self.links[link_id.0];
        let dur = link.tx_time(q.bytes as usize);
        let done_at = self.now + dur;
        // Cheapest tests first; `start_tx`'s doc gives the reasons.
        let to = q.next_hop.filter(|_| {
            !dur.is_zero()
                && !self.telemetry.trace.wants(Category::LINK)
                && done_at <= self.horizon
                && !link.is_segment()
                && link.queue.is_empty()
                && self.faults.quiet(link)
                && done_at < self.sched.next_fault_at()
                && self.instruments.before_next_window(done_at)
        });
        let mut tx = Transmission {
            q,
            done_at,
            seq,
            completion: Completion::Queued,
        };
        match to {
            Some(to) => {
                tx.completion = Completion::Elided;
                let at = done_at + link.spec.delay;
                self.sched
                    .arrive(at, Some(seq + 1), to, q.pkt, Some(link_id), false);
            }
            None => self.sched.tx_done(done_at, seq, link_id),
        }
        link.transmitting = Some(tx);
    }

    /// What every completion does, queued or not, at its own time `at`:
    /// frees the medium and accounts the transmission.
    fn finish_tx(&mut self, link_id: LinkId, at: SimTime) -> Transmission {
        let link = &mut self.links[link_id.0];
        let tx = link
            .transmitting
            .take()
            .expect("completion without transmission");
        link.account(at, tx.q.bytes as usize);
        self.instruments
            .hop_latency
            .observe(at.as_nanos().saturating_sub(tx.q.enq_ns));
        tx
    }

    /// Settles `link_id`'s elided completion if it lies behind the event
    /// being processed, i.e. if its `TxDone` would have fired by now.
    pub(crate) fn settle(&mut self, link_id: LinkId) {
        let Some(tx) = &self.links[link_id.0].transmitting else {
            return;
        };
        if tx.completion != Completion::Elided || (tx.done_at, tx.seq) >= (self.now, self.now_seq) {
            return;
        }
        let at = tx.done_at;
        self.finish_tx(link_id, at);
        self.events_processed += 1;
        self.events_elided += 1;
    }

    /// Queues the `TxDone` of an elided completion still ahead, under
    /// the key it drew when the transmission started.
    fn materialise(&mut self, link_id: LinkId) {
        if let Some(tx) = &mut self.links[link_id.0].transmitting {
            if tx.completion == Completion::Elided {
                tx.completion = Completion::Materialised;
                self.sched.tx_done(tx.done_at, tx.seq, link_id);
            }
        }
    }

    /// Leaves no completion elided on any link: those behind the event
    /// being processed are settled, those ahead materialised. Run before
    /// anything reads link state wholesale (the health monitor, the end
    /// of a run).
    pub(crate) fn settle_all(&mut self) {
        for i in 0..self.links.len() {
            self.settle(LinkId(i));
            self.materialise(LinkId(i));
        }
    }

    pub(crate) fn tx_done(&mut self, link_id: LinkId) {
        let now = self.now;
        let tx = self.finish_tx(link_id, now);
        let q = tx.q;
        // Start the next queued transmission.
        if let Some(next) = self.links[link_id.0].queue.pop_front() {
            self.start_tx(link_id, next);
        }
        if tx.completion == Completion::Materialised {
            // The arrival was scheduled when the transmission started.
            return;
        }
        if self.telemetry.trace.wants(Category::LINK) {
            let pkt = self.sched.packets.get(q.pkt);
            let (pid, sampled) = (pkt.id, pkt.lineage.sampled);
            self.trace_pkt(Category::LINK, sampled, |t_ns| TraceEvent::LinkTx {
                t_ns,
                link: link_id.0 as u32,
                from: q.from.0 as u32,
                pkt: pid,
                bytes: q.bytes,
            });
        }
        let link = &self.links[link_id.0];
        match q.next_hop {
            // Point-to-point: the handle goes to the addressed node,
            // under the transmission's arrival number.
            Some(nh) if !link.is_segment() => {
                self.deliver_copy(link_id, &q, nh, false, true, Some(tx.seq + 1))
            }
            // Otherwise every other attached node gets it, in
            // attachment order: on a segment all but the addressed one
            // overhear; a broadcast (multicast, no `next_hop`) is
            // received for real by all, subscription filtering happens
            // at arrival.
            next_hop => {
                let mut copies = link.nodes.iter().filter(|&&n| n != q.from).count();
                if copies == 0 {
                    self.sched.packets.take(q.pkt);
                } else if self.faults.quiet(link) {
                    // The fault pipeline would do nothing to any copy:
                    // they arrive as one event, see `arrive_all`.
                    let at = now + link.spec.delay;
                    self.sched
                        .arrive_all(at, copies as u64, link_id, q.pkt, q.from, next_hop);
                } else {
                    // Loss and jitter are drawn per copy: one event
                    // each. The last receiver gets the handle, the ones
                    // before it a clone.
                    for i in 0..self.links[link_id.0].nodes.len() {
                        let n = self.links[link_id.0].nodes[i];
                        if n != q.from {
                            copies -= 1;
                            let overheard = next_hop.is_some_and(|nh| n != nh);
                            self.deliver_copy(link_id, &q, n, overheard, copies == 0, None);
                        }
                    }
                }
            }
        }
    }

    /// The copies of one transmission on `link_id` arrive (see "One
    /// arrival per transmission" above): for each attached node but
    /// `from`, in attachment order, what the run loop does for an
    /// `Arrive` of its own. The event being processed is the first copy;
    /// every further one has the monitor consulted ahead of it, advances
    /// `now_seq` to the number reserved for it and is counted. A copy is
    /// made only where something can observe it: `arrive` would take an
    /// overheard copy at an up node with no hook out of the slab and
    /// drop it. The handle goes to the last node that needs a copy, a
    /// clone to those before it.
    ///
    /// Out of line on purpose: inlined into the run loop's `process` it
    /// costs workloads that have no segment (`cluster_flash` -4%).
    #[inline(never)]
    pub(crate) fn arrive_all(
        &mut self,
        link_id: LinkId,
        pkt: PktRef,
        from: NodeId,
        to: Option<NodeId>,
    ) {
        let overhears = |n: NodeId| to.is_some_and(|nh| n != nh);
        let needs_copy = |sim: &Sim, n: NodeId| {
            let node = &sim.nodes[n.0];
            n != from && (!overhears(n) || node.down || node.hook.is_some())
        };
        let attached = self.links[link_id.0].nodes.len();
        let last = (0..attached).rfind(|&i| needs_copy(self, self.links[link_id.0].nodes[i]));
        if last.is_none() {
            self.sched.packets.take(pkt);
        }
        let mut first = true;
        for i in 0..attached {
            let n = self.links[link_id.0].nodes[i];
            if n == from {
                continue;
            }
            if first {
                first = false;
            } else {
                self.monitor_tick();
                self.now_seq += 1;
                self.events_processed += 1;
                self.events_elided += 1;
            }
            // Only a node's own callbacks can change whether it needs a
            // copy, so no node past `last` starts to while this runs.
            let copy = match last {
                Some(last) if i == last => pkt,
                Some(last) if i < last && needs_copy(self, n) => self.sched.packets.dup(pkt),
                _ => continue,
            };
            self.arrive(n, copy, Some(link_id), overhears(n));
        }
    }

    /// Schedules the arrival at `to` of the packet `q` just put on the
    /// wire — the handle itself when `to` is the `last` receiver, a
    /// clone otherwise — after the receiver-side fault pipeline
    /// ([`Sim::impair_copy`]). `seq` keys the arrival (see
    /// `Scheduler::arrive`); a fault duplicate sorts by push order.
    fn deliver_copy(
        &mut self,
        link_id: LinkId,
        q: &Queued,
        to: NodeId,
        overheard: bool,
        last: bool,
        seq: Option<u64>,
    ) {
        let Some(hit) = self.impair_copy(link_id, q.from, to, q.pkt) else {
            if last {
                self.sched.packets.take(q.pkt);
            }
            return;
        };
        let at = self.now + self.links[link_id.0].spec.delay + hit.jitter;
        let slab = &mut self.sched.packets;
        let pkt = if last { q.pkt } else { slab.dup(q.pkt) };
        if let Some(i) = hit.corrupt_at {
            let p = slab.get_mut(pkt);
            let mut bytes = p.payload.to_vec();
            bytes[i] ^= 0xFF;
            p.payload = Bytes::from(bytes);
        }
        if hit.duplicate {
            let copy = slab.dup(pkt);
            self.sched
                .arrive(at, None, to, copy, Some(link_id), overheard);
        }
        self.sched
            .arrive(at, seq, to, pkt, Some(link_id), overheard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;
    use crate::link::LinkSpec;
    use crate::node::{ArrivalMeta, HookVerdict, PacketHook};
    use crate::sim::tests::{Sink, Source};
    use crate::NodeApi;
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    #[test]
    fn queue_overflow_drops() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(
            LinkSpec {
                kbps: 100,
                delay: Duration::from_millis(1),
                queue_pkts: 4,
            },
            &[a, b],
        );
        sim.compute_routes();
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 50,
                size: 1000,
            }),
        );
        sim.run_until(SimTime::from_ms(10));
        assert!(sim.total_link_drops > 0);
        // 1 transmitting + 4 queued accepted; rest dropped.
        assert_eq!(sim.total_link_drops, 45);
    }

    #[test]
    fn segment_broadcast_overhears() {
        // a, b, c share a segment; a → b unicast is overheard by c's hook
        // but not delivered to c's apps.
        struct Spy {
            overheard: Rc<RefCell<u32>>,
        }
        impl PacketHook for Spy {
            fn on_packet(
                &mut self,
                _api: &mut NodeApi<'_>,
                pkt: Packet,
                meta: &ArrivalMeta,
            ) -> HookVerdict {
                if meta.overheard {
                    *self.overheard.borrow_mut() += 1;
                }
                HookVerdict::Pass(pkt)
            }
        }
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        let c = sim.add_host("c", 3);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b, c]);
        sim.compute_routes();
        let got = Rc::new(RefCell::new(Vec::new()));
        let heard = Rc::new(RefCell::new(0));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        let got_c = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(c, Box::new(Sink { got: got_c.clone() }));
        sim.install_hook(
            c,
            Box::new(Spy {
                overheard: heard.clone(),
            }),
        );
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 2);
        assert_eq!(got_c.borrow().len(), 0);
        assert_eq!(*heard.borrow(), 2);
    }

    /// The copies of a segment transmission travel as one event, and
    /// leave every key where one event per copy leaves it: the clock,
    /// the number of the event last processed, the next number to be
    /// drawn, the logical event count. An impairment too small ever to
    /// fire keeps the other run on the per-copy path.
    #[test]
    fn merged_arrivals_keep_the_keys_of_one_event_per_copy() {
        let run = |faults: LinkFaults| {
            let mut sim = Sim::new(1);
            let hosts: Vec<NodeId> = (1..=5).map(|i| sim.add_host(&format!("h{i}"), i)).collect();
            let seg = sim.add_link(LinkSpec::ethernet_10(), &hosts);
            sim.compute_routes();
            sim.set_link_faults(seg, faults);
            sim.add_app(
                hosts[1],
                Box::new(Source {
                    dst: 4,
                    n: 2,
                    size: 100,
                }),
            );
            let ran = sim.run_to_idle(u64::MAX);
            assert_eq!(
                (sim.node(hosts[3]).delivered, sim.packets_at_rest()),
                (2, 0)
            );
            let keys = (ran, sim.now, sim.now_seq, sim.sched.draw_tx());
            (keys, sim.events_elided)
        };
        let never = LinkFaults::loss(f64::MIN_POSITIVE);
        let ((per_copy, none), (merged, some)) = (run(never), run(LinkFaults::default()));
        assert_eq!(per_copy.0, 10, "two completions, eight copies");
        assert_eq!(merged, per_copy);
        assert_eq!((none, some), (0, 6), "three of four copies merged");
    }

    /// Addressed to a node the segment does not reach, every copy is an
    /// overheard one nobody needs: the transmission's slot is released
    /// all the same, as the last copy's `Arrive` would have.
    #[test]
    fn a_transmission_nobody_needs_a_copy_of_releases_its_slot() {
        let mut sim = Sim::new(1);
        let hosts: Vec<NodeId> = (1..=4).map(|i| sim.add_host(&format!("h{i}"), i)).collect();
        let seg = sim.add_link(LinkSpec::ethernet_10(), &hosts[..3]);
        let pkt = Packet::udp(1, 4, 1, 2, Bytes::new());
        sim.enqueue_on_link(seg, hosts[0], Some(hosts[3]), pkt);
        assert_eq!(sim.packets_at_rest(), 1);
        assert_eq!(sim.run_to_idle(u64::MAX), 3, "a completion, two copies");
        assert_eq!((sim.packets_at_rest(), sim.total_node_drops), (0, 0));
    }
}
