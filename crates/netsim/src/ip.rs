//! A node's packet path: arrival (down node, deadline, CPU queue), the
//! hook, then IP processing — local delivery, TTL, forwarding, multicast
//! fan-out — and the two send paths. Every node drop goes through
//! [`Sim::drop_at_node`].

use crate::link::{LinkId, NodeId};
use crate::node::{ArrivalMeta, HookVerdict, NodeApi};
use crate::packet::Packet;
use crate::sched::PktRef;
use crate::sim::Sim;
use planp_telemetry::{Category, DropReason, FlightKind, TraceEvent};

impl Sim {
    /// Assigns the packet a fresh id on its first entry into a send
    /// path; clones made later (forwarding, multicast fan-out) keep it.
    /// The first stamp is also the span open: a packet with no lineage
    /// roots a fresh trace here, one re-emitted by an ASP carries the
    /// lineage the PLAN-P layer filled in.
    pub(crate) fn stamp(&mut self, node: NodeId, pkt: &mut Packet) {
        if pkt.id != 0 {
            return;
        }
        self.next_pkt_id += 1;
        pkt.id = self.next_pkt_id;
        if pkt.lineage.trace == 0 {
            // Root of a fresh trace: the head-sampling decision is made
            // exactly once, here, and inherited by every descendant
            // packet — a kept trace keeps its complete span tree.
            pkt.lineage.trace = pkt.id;
            pkt.lineage.sampled = self.telemetry.trace.keep_trace(pkt.lineage.trace);
        }
        let lineage = &pkt.lineage;
        self.trace_pkt(Category::SPAN, lineage.sampled, |t_ns| {
            TraceEvent::SpanStart {
                t_ns,
                node: node.0 as u32,
                pkt: pkt.id,
                trace: lineage.trace,
                parent: lineage.parent,
                origin: lineage.origin,
                chan: lineage.chan.as_ref().map(|c| c.chan.clone()),
            }
        });
    }

    #[inline]
    pub(crate) fn trace_node_drop(
        &mut self,
        node: NodeId,
        pkt: u64,
        sampled: bool,
        reason: DropReason,
    ) {
        self.record_flight(node, FlightKind::Drop, pkt, reason.index());
        self.trace_pkt(Category::DROP, sampled, |t_ns| TraceEvent::NodeDrop {
            t_ns,
            node: node.0 as u32,
            pkt,
            reason,
        });
    }

    /// Counts and traces one node-level drop: routes the count to the
    /// reason's bucket (`cpu_drops` for CPU-queue overflow, `shed` for
    /// deliberate shedding and deadline expiry, `dropped` otherwise),
    /// bumps the `sim.node_drops_total` aggregate, and records the
    /// flight/trace events. Every node-level drop site goes through
    /// here so the drop-accounting identity holds by construction.
    pub(crate) fn drop_at_node(&mut self, node: NodeId, pkt: &Packet, reason: DropReason) {
        let n = &mut self.nodes[node.0];
        match reason {
            DropReason::CpuOverflow => n.cpu_drops += 1,
            DropReason::Shed | DropReason::DeadlineExpired => n.shed += 1,
            _ => n.dropped += 1,
        }
        self.total_node_drops += 1;
        self.trace_node_drop(node, pkt.id, pkt.lineage.sampled, reason);
    }

    /// Releases the slot of a packet that dies at `node` before it is
    /// processed, and counts the drop.
    pub(crate) fn drop_at_rest(&mut self, node: NodeId, pkt: PktRef, reason: DropReason) {
        let pkt = self.sched.packets.take(pkt);
        self.drop_at_node(node, &pkt, reason);
    }

    pub(crate) fn arrive(
        &mut self,
        node: NodeId,
        pkt: PktRef,
        via: Option<LinkId>,
        overheard: bool,
    ) {
        if self.nodes[node.0].down {
            self.drop_at_rest(node, pkt, DropReason::NodeDown);
            return;
        }
        // Deadline propagation: an already-expired packet is dropped at
        // ingress — before it costs CPU-queue slots or further hops.
        let lineage = &self.sched.packets.get(pkt).lineage;
        if !overheard && lineage.expired(self.now.as_nanos()) {
            self.drop_at_rest(node, pkt, DropReason::DeadlineExpired);
            return;
        }
        // CPU model: non-overheard packets queue for processing time.
        // Overheard traffic is filtered in the NIC and costs nothing.
        let n = &mut self.nodes[node.0];
        if let Some(cpu) = n.cpu.filter(|_| !overheard) {
            if n.cpu_queue.len() >= cpu.queue_cap {
                self.drop_at_rest(node, pkt, DropReason::CpuOverflow);
                return;
            }
            n.cpu_queue.push_back((pkt, via));
            if !n.cpu_busy {
                n.cpu_busy = true;
                let epoch = n.cpu_epoch;
                self.sched.cpu_done(self.now + cpu.per_packet, node, epoch);
            }
            return;
        }
        let pkt = self.sched.packets.take(pkt);
        self.process_arrival(node, pkt, via, overheard);
    }

    pub(crate) fn cpu_done(&mut self, node: NodeId, epoch: u64) {
        // A crash bumps the epoch; completions scheduled before it must
        // not touch work queued after the restart.
        if epoch != self.nodes[node.0].cpu_epoch {
            return;
        }
        let n = &mut self.nodes[node.0];
        let head = n.cpu_queue.pop_front();
        n.cpu_busy = !n.cpu_queue.is_empty();
        if n.cpu_busy {
            let cpu = n.cpu.expect("cpu_done without cpu");
            self.sched.cpu_done(self.now + cpu.per_packet, node, epoch);
        }
        let Some((pkt, via)) = head else {
            return;
        };
        let pkt = self.sched.packets.take(pkt);
        self.process_arrival(node, pkt, via, false);
    }

    fn process_arrival(&mut self, node: NodeId, pkt: Packet, via: Option<LinkId>, overheard: bool) {
        // 1. The extensible layer sees everything first.
        let pkt = if let Some((mut hook, gen)) = self.take_hook(node) {
            let meta = ArrivalMeta { via, overheard };
            let mut api = NodeApi::new(self, node, None);
            let verdict = hook.on_packet(&mut api, pkt, &meta);
            self.restore_hook(node, hook, gen);
            match verdict {
                HookVerdict::Handled => return,
                HookVerdict::Pass(p) => p,
            }
        } else {
            pkt
        };

        // 2. Overheard traffic is only for hooks.
        if overheard {
            return;
        }

        // 3. Standard IP processing.
        if pkt.ip.is_multicast() {
            let subscribed = self.nodes[node.0].subscriptions.contains(&pkt.ip.dst);
            if !self.nodes[node.0].forwarding {
                if subscribed {
                    self.deliver_local(node, pkt);
                }
                return;
            }
            if subscribed {
                self.deliver_local(node, pkt.clone());
            }
            let mut fwd = pkt;
            if fwd.ip.ttl <= 1 {
                self.drop_at_node(node, &fwd, DropReason::TtlExpired);
                return;
            }
            fwd.ip.ttl -= 1;
            // With no other link for the group, the copy ends here.
            self.mcast_fan_out(node, fwd, via, true);
            return;
        }

        if pkt.ip.dst == self.nodes[node.0].addr {
            self.deliver_local(node, pkt);
        } else if self.nodes[node.0].forwarding {
            let mut fwd = pkt;
            if fwd.ip.ttl <= 1 {
                self.drop_at_node(node, &fwd, DropReason::TtlExpired);
                return;
            }
            fwd.ip.ttl -= 1;
            match self.route(node, fwd.ip.dst) {
                Some((link, next_hop)) => {
                    self.trace_forward(node, &fwd, link);
                    self.enqueue_on_link(link, node, Some(next_hop), fwd)
                }
                None => {
                    self.drop_at_node(node, &fwd, DropReason::NoRoute);
                }
            }
        } else {
            self.drop_at_node(node, &pkt, DropReason::NotAddressed);
        }
    }

    /// Puts `pkt` on each of `node`'s multicast links for its group
    /// except `skip`, in route order; the last link gets the packet
    /// itself, the ones before it a clone. Gives the packet back when
    /// no link took it.
    fn mcast_fan_out(
        &mut self,
        node: NodeId,
        pkt: Packet,
        skip: Option<LinkId>,
        forwarded: bool,
    ) -> Option<Packet> {
        let group = pkt.ip.dst;
        let n_links = self.nodes[node.0]
            .mcast_routes
            .get(&group)
            .map_or(0, Vec::len);
        let mut held: Option<LinkId> = None;
        for i in 0..n_links {
            let link = self.nodes[node.0].mcast_routes[&group][i];
            if Some(link) == skip {
                continue;
            }
            if let Some(prev) = held.replace(link) {
                self.mcast_out(node, prev, pkt.clone(), forwarded);
            }
        }
        let Some(link) = held else { return Some(pkt) };
        self.mcast_out(node, link, pkt, forwarded);
        None
    }

    fn mcast_out(&mut self, node: NodeId, link: LinkId, pkt: Packet, forwarded: bool) {
        if forwarded {
            self.trace_forward(node, &pkt, link);
        }
        self.enqueue_on_link(link, node, None, pkt);
    }

    pub(crate) fn deliver_local(&mut self, node: NodeId, mut pkt: Packet) {
        self.stamp(node, &mut pkt);
        self.nodes[node.0].delivered += 1;
        // Every application sees the packet; the last one gets the
        // packet itself, the ones before it a clone.
        let Some(last) = self.nodes[node.0].apps.len().checked_sub(1) else {
            return;
        };
        for app in 0..last {
            self.deliver_to_app(node, app, pkt.clone());
        }
        self.deliver_to_app(node, last, pkt);
    }

    fn deliver_to_app(&mut self, node: NodeId, app: usize, pkt: Packet) {
        self.with_app(node, app, |a, api| {
            let (sim, pid) = (&mut *api.sim, pkt.id);
            sim.record_flight(node, FlightKind::Deliver, pid, app as u32);
            sim.trace_pkt(Category::DELIVER, pkt.lineage.sampled, |t_ns| {
                let (node, app) = (node.0 as u32, app as u32);
                TraceEvent::Deliver {
                    t_ns,
                    node,
                    pkt: pid,
                    app,
                }
            });
            a.on_packet(api, pkt);
        });
    }

    #[inline]
    fn trace_forward(&mut self, node: NodeId, pkt: &Packet, link: LinkId) {
        self.trace_pkt(Category::HOP, pkt.lineage.sampled, |t_ns| {
            TraceEvent::Forward {
                t_ns,
                node: node.0 as u32,
                pkt: pkt.id,
                link: link.0 as u32,
                ttl: pkt.ip.ttl,
            }
        });
    }

    /// Sends `pkt` from `node`, routing by destination address.
    pub(crate) fn dispatch_send(&mut self, node: NodeId, mut pkt: Packet) {
        self.stamp(node, &mut pkt);
        if pkt.ip.ttl == 0 {
            self.drop_at_node(node, &pkt, DropReason::TtlExpired);
        } else if pkt.ip.is_multicast() {
            if let Some(pkt) = self.mcast_fan_out(node, pkt, None, false) {
                self.drop_at_node(node, &pkt, DropReason::NoRoute);
            }
        } else if pkt.ip.dst == self.nodes[node.0].addr {
            // Self-send: loop back locally.
            let pkt = self.sched.packets.put(pkt);
            self.sched.arrive(self.now, None, node, pkt, None, false);
        } else {
            match self.route(node, pkt.ip.dst) {
                Some((link, next_hop)) => self.enqueue_on_link(link, node, Some(next_hop), pkt),
                None => self.drop_at_node(node, &pkt, DropReason::NoRoute),
            }
        }
    }

    pub(crate) fn send_to_neighbor(&mut self, node: NodeId, neighbor_addr: u32, mut pkt: Packet) {
        self.stamp(node, &mut pkt);
        let neighbor = self.addr_map.get(&neighbor_addr).copied();
        match neighbor.and_then(|n| Some((self.common_link(node, n)?, n))) {
            Some((link, n)) => self.enqueue_on_link(link, node, Some(n), pkt),
            None => self.drop_at_node(node, &pkt, DropReason::NoRoute),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::link::LinkSpec;
    use crate::node::{ArrivalMeta, CpuModel, HookVerdict, PacketHook};
    use crate::packet::{addr, Packet};
    use crate::sim::tests::{two_hosts_one_router, Sink, Source};
    use crate::{NodeApi, Sim, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    #[test]
    fn routed_delivery_across_router() {
        let (mut sim, a, _r, b) = two_hosts_one_router();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 3,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 3);
        // TTL decremented once by the router.
        assert_eq!(got.borrow()[0].ip.ttl, 63);
    }

    #[test]
    fn no_route_increments_drop_counter() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        // No compute_routes.
        sim.add_app(
            a,
            Box::new(Source {
                dst: 99,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_ms(10));
        assert_eq!(sim.node(a).dropped, 1);
    }

    #[test]
    fn hosts_do_not_forward() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let h = sim.add_host("h", 3); // host in the middle
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_10(), &[a, h]);
        sim.add_link(LinkSpec::ethernet_10(), &[h, b]);
        sim.compute_routes();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(sim.node(h).dropped, 1);
    }

    #[test]
    fn ttl_expiry_drops_in_long_chains() {
        let mut sim = Sim::new(1);
        // Chain of 70 routers exceeds the default TTL of 64.
        let mut ids = vec![sim.add_host("h0", 1000)];
        for i in 1..=70 {
            ids.push(sim.add_router(&format!("r{i}"), 1000 + i));
        }
        let last = sim.add_host("end", 2000);
        ids.push(last);
        for w in ids.windows(2) {
            sim.add_link(LinkSpec::ethernet_100(), &[w[0], w[1]]);
        }
        sim.compute_routes();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(last, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            ids[0],
            Box::new(Source {
                dst: 2000,
                n: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.borrow().len(), 0, "packet should die of TTL");
    }

    #[test]
    fn multicast_on_segment_reaches_subscribers() {
        let group = addr(224, 0, 0, 5);
        let mut sim = Sim::new(1);
        let src = sim.add_host("src", 1);
        let b = sim.add_host("b", 2);
        let c = sim.add_host("c", 3);
        let d = sim.add_host("d", 4);
        let seg = sim.add_link(LinkSpec::ethernet_10(), &[src, b, c, d]);
        sim.compute_routes();
        sim.add_mcast_route(src, group, seg);
        sim.subscribe(b, group);
        sim.subscribe(c, group);
        let gb = Rc::new(RefCell::new(Vec::new()));
        let gc = Rc::new(RefCell::new(Vec::new()));
        let gd = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: gb.clone() }));
        sim.add_app(c, Box::new(Sink { got: gc.clone() }));
        sim.add_app(d, Box::new(Sink { got: gd.clone() }));
        sim.add_app(
            src,
            Box::new(Source {
                dst: group,
                n: 1,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(gb.borrow().len(), 1);
        assert_eq!(gc.borrow().len(), 1);
        assert_eq!(gd.borrow().len(), 0, "non-subscriber ignores multicast");
    }

    #[test]
    fn multicast_forwarding_through_router() {
        let group = addr(224, 1, 1, 1);
        let mut sim = Sim::new(1);
        let src = sim.add_host("src", 1);
        let r = sim.add_router("r", 2);
        let dst = sim.add_host("dst", 3);
        let l1 = sim.add_link(LinkSpec::ethernet_10(), &[src, r]);
        let l2 = sim.add_link(LinkSpec::ethernet_10(), &[r, dst]);
        sim.compute_routes();
        sim.add_mcast_route(src, group, l1);
        sim.add_mcast_route(r, group, l2);
        sim.subscribe(dst, group);
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(dst, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            src,
            Box::new(Source {
                dst: group,
                n: 4,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 4);
    }

    #[test]
    fn hook_can_consume_and_rewrite() {
        struct Redirect {
            to: u32,
        }
        impl PacketHook for Redirect {
            fn on_packet(
                &mut self,
                api: &mut NodeApi<'_>,
                mut pkt: Packet,
                meta: &ArrivalMeta,
            ) -> HookVerdict {
                if meta.overheard {
                    return HookVerdict::Pass(pkt);
                }
                pkt.ip.dst = self.to;
                pkt.ip.ttl -= 1;
                api.send(pkt);
                HookVerdict::Handled
            }
        }
        let (mut sim, a, r, b) = two_hosts_one_router();
        // Add a third host; the router rewrites everything toward it.
        let c = sim.add_host("c", addr(10, 0, 2, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[r, c]);
        sim.compute_routes();
        sim.install_hook(
            r,
            Box::new(Redirect {
                to: addr(10, 0, 2, 1),
            }),
        );
        let got_b = Rc::new(RefCell::new(Vec::new()));
        let got_c = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got_b.clone() }));
        sim.add_app(c, Box::new(Sink { got: got_c.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: addr(10, 0, 1, 1),
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got_b.borrow().len(), 0);
        assert_eq!(got_c.borrow().len(), 2);
    }

    #[test]
    fn cpu_model_serializes_processing() {
        // 100 packets, 1 ms of CPU each: the last one is handled ~100 ms
        // after the first arrival, far later than wire time alone.
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_100(), &[a, b]);
        sim.compute_routes();
        sim.set_cpu(
            b,
            CpuModel {
                per_packet: Duration::from_millis(1),
                queue_cap: 1000,
            },
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 100,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_ms(50));
        let at_50ms = got.borrow().len();
        assert!(at_50ms < 60, "CPU should pace deliveries, got {at_50ms}");
        sim.run_until(SimTime::from_ms(200));
        assert_eq!(got.borrow().len(), 100);
    }

    #[test]
    fn cpu_queue_overflow_drops() {
        let mut sim = Sim::new(1);
        let a = sim.add_host("a", 1);
        let b = sim.add_host("b", 2);
        sim.add_link(LinkSpec::ethernet_100(), &[a, b]);
        sim.compute_routes();
        sim.set_cpu(
            b,
            CpuModel {
                per_packet: Duration::from_millis(10),
                queue_cap: 5,
            },
        );
        sim.add_app(
            a,
            Box::new(Source {
                dst: 2,
                n: 50,
                size: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.node(b).cpu_drops > 0);
        assert_eq!(sim.node(b).cpu_drops + sim.node(b).delivered, 50);
    }

    #[test]
    fn alias_routes_follow_their_target() {
        // Explicit routes send traffic for an alias address along the
        // path toward the target node, as a gateway's virtual-server
        // address is routed (section 3.2).
        let (mut sim, a, r, b) = two_hosts_one_router();
        let alias = addr(99, 9, 9, 9);
        sim.add_route(a, alias, r);
        sim.add_route(r, alias, b);
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Source {
                dst: alias,
                n: 2,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_ms(200));
        // The packets reach b's router; b itself has no alias route and,
        // being a host, drops traffic not addressed to it — but the
        // router forwarded it onto b's link, so b *received* it.
        assert_eq!(got.borrow().len(), 0); // not addressed to b
        assert_eq!(sim.node(b).dropped, 2); // but it arrived at b
    }
}
