//! The built-in ("C") version of the load-balancing gateway — the
//! baseline the paper compares the ASP against in figure 8.

use super::asp::{SERVER0_ADDR, SERVER1_ADDR, VIRTUAL_ADDR};
use netsim::digest::Fnv;
use netsim::packet::Packet;
use netsim::rng::Seedless;
use netsim::{ArrivalMeta, HookVerdict, NodeApi, PacketHook};
use std::hash::Hash;

/// Native gateway hook: identical balancing logic, hand-written.
#[derive(Debug)]
pub struct NativeHttpGateway {
    virt: u32,
    servers: [u32; 2],
    /// Hashed as the ASP's connection table is.
    #[allow(clippy::disallowed_types)] // lookup-only: `entry`, never iterated
    conns: std::collections::HashMap<(u32, u16), u32, Seedless>,
    next: u64,
    /// Connections assigned so far.
    pub assigned: u64,
}

impl Default for NativeHttpGateway {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeHttpGateway {
    /// A gateway for the default virtual/physical address plan.
    pub fn new() -> Self {
        NativeHttpGateway {
            virt: VIRTUAL_ADDR,
            servers: [SERVER0_ADDR, SERVER1_ADDR],
            conns: Default::default(),
            next: 0,
            assigned: 0,
        }
    }
}

impl PacketHook for NativeHttpGateway {
    fn on_packet(
        &mut self,
        api: &mut NodeApi<'_>,
        mut pkt: Packet,
        meta: &ArrivalMeta,
    ) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        let Some(hdr) = pkt.tcp_hdr().copied() else {
            return HookVerdict::Pass(pkt);
        };
        if hdr.dport == 80 && pkt.ip.dst == self.virt {
            let key = (pkt.ip.src, hdr.sport);
            let chosen = *self.conns.entry(key).or_insert_with(|| {
                let c = self.servers[(self.next % 2) as usize];
                self.next += 1;
                self.assigned += 1;
                c
            });
            pkt.ip.dst = chosen;
            if pkt.ip.ttl <= 1 {
                return HookVerdict::Handled;
            }
            pkt.ip.ttl -= 1;
            api.send(pkt);
            return HookVerdict::Handled;
        }
        if hdr.sport == 80 && self.servers.contains(&pkt.ip.src) {
            pkt.ip.src = self.virt;
            if pkt.ip.ttl <= 1 {
                return HookVerdict::Handled;
            }
            pkt.ip.ttl -= 1;
            api.send(pkt);
            return HookVerdict::Handled;
        }
        HookVerdict::Pass(pkt)
    }

    fn digest(&self, h: &mut Fnv) {
        let mut conns: Vec<_> = self.conns.iter().collect();
        conns.sort_unstable();
        (conns, self.next, self.assigned).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_servers_per_connection() {
        let mut gw = NativeHttpGateway::new();
        // Exercise the assignment logic directly.
        let k1 = (1u32, 10u16);
        let k2 = (1u32, 11u16);
        let c1 = *gw.conns.entry(k1).or_insert(gw.servers[0]);
        gw.next += 1;
        let c2 = *gw.conns.entry(k2).or_insert(gw.servers[1]);
        assert_ne!(c1, c2);
        // Same connection sticks.
        assert_eq!(gw.conns[&k1], c1);
    }
}
