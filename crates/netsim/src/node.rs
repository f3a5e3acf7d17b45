//! Nodes (hosts and routers), applications, and the packet-hook
//! extension point the PLAN-P layer plugs into.

use crate::link::{LinkId, NodeId};
use crate::packet::Packet;
use crate::rng::SplitMix64;
use crate::sched::PktRef;
use crate::sim::NodeApi;
use std::collections::VecDeque;
use std::time::Duration;

/// A single-server CPU model: arriving packets queue for a fixed
/// per-packet processing time before the node handles them. This is how
/// the gateway of section 3.2 becomes a *contention point* — the paper's
/// explanation for the cluster serving 85% of two servers' capacity.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Processing time charged to every (non-overheard) arriving packet.
    pub per_packet: Duration,
    /// Packets queued beyond this are dropped.
    pub queue_cap: usize,
}

/// A simulated host or router.
pub struct Node {
    /// Human-readable name (for traces and diagnostics).
    pub name: String,
    /// The node's IPv4 address.
    pub addr: u32,
    /// True for routers: packets not addressed to this node are
    /// forwarded; hosts drop them.
    pub forwarding: bool,
    pub(crate) ifaces: Vec<LinkId>,
    /// Unicast routes: destination address → (link, next hop).
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/`insert`, never iterated
    pub(crate) routes: std::collections::HashMap<u32, (LinkId, NodeId)>,
    /// Multicast routes: group → outgoing links.
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/`entry`, never iterated
    pub(crate) mcast_routes: std::collections::HashMap<u32, Vec<LinkId>>,
    /// Multicast groups this node receives.
    #[allow(clippy::disallowed_types)] // lookup-only: `contains`/`insert`, never iterated
    pub(crate) subscriptions: std::collections::HashSet<u32>,
    pub(crate) apps: Vec<Option<Box<dyn App>>>,
    pub(crate) hook: Option<Box<dyn PacketHook>>,
    /// Bumped by every [`Node::set_hook`]. A hook is out of its slot
    /// while one of its callbacks runs; a number that moved meanwhile
    /// says the callback installed or removed a hook itself, and the
    /// slot is left as the callback set it.
    pub(crate) hook_gen: u64,
    pub(crate) rng: SplitMix64,
    pub(crate) cpu: Option<CpuModel>,
    /// True while the node is failed: it neither receives nor processes
    /// anything (used for fault-injection experiments).
    pub(crate) down: bool,
    /// Packets waiting for the CPU (never overheard ones) and the link
    /// each arrived on.
    pub(crate) cpu_queue: VecDeque<(PktRef, Option<LinkId>)>,
    pub(crate) cpu_busy: bool,
    /// Bumped on crash so CPU-completion events scheduled before the
    /// crash cannot touch work queued after the restart.
    pub(crate) cpu_epoch: u64,
    /// Packets dropped because the CPU queue overflowed.
    pub cpu_drops: u64,
    /// Packets deliberately shed here: admission control, brownout
    /// class shedding, and deadline-expired drops.
    pub shed: u64,
    /// Times this node was crashed by fault injection.
    pub crashes: u64,
    /// Times a crash discarded an installed packet hook (protocol-state
    /// loss).
    pub state_lost: u64,
    /// Packets delivered to local applications.
    pub delivered: u64,
    /// Packets dropped at this node (no route, TTL expired, not for us).
    pub dropped: u64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("addr", &crate::packet::addr_to_string(self.addr))
            .field("forwarding", &self.forwarding)
            .field("apps", &self.apps.len())
            .field("hooked", &self.hook.is_some())
            .field("delivered", &self.delivered)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Node {
    pub(crate) fn new(name: String, addr: u32, forwarding: bool, seed: u64) -> Self {
        Node {
            name,
            addr,
            forwarding,
            ifaces: Vec::new(),
            routes: Default::default(),
            mcast_routes: Default::default(),
            subscriptions: Default::default(),
            apps: Vec::new(),
            hook: None,
            hook_gen: 0,
            rng: SplitMix64::new(seed),
            cpu: None,
            down: false,
            cpu_queue: VecDeque::new(),
            cpu_busy: false,
            cpu_epoch: 0,
            cpu_drops: 0,
            shed: 0,
            crashes: 0,
            state_lost: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Installs, replaces or (with `None`) removes the packet hook;
    /// returns the one that was installed.
    pub(crate) fn set_hook(
        &mut self,
        hook: Option<Box<dyn PacketHook>>,
    ) -> Option<Box<dyn PacketHook>> {
        self.hook_gen += 1;
        std::mem::replace(&mut self.hook, hook)
    }
}

/// How a packet reached the node.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalMeta {
    /// The link the packet arrived on (`None` for self-sends).
    pub via: Option<LinkId>,
    /// True if this node merely *overheard* the packet on a shared
    /// segment (it is addressed past us). Hooks see overheard traffic —
    /// that is how the MPEG client ASP captures a neighbor's video
    /// stream (section 3.3) — but normal processing ignores it.
    pub overheard: bool,
}

/// A local application running above the (extensible) network layer.
///
/// Applications drive the simulation through the [`NodeApi`] passed to
/// each callback: sending packets, setting timers, and recording
/// measurements.
pub trait App {
    /// Called once when the simulation starts.
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        let _ = api;
    }

    /// Called for every packet delivered to this node.
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet);

    /// Called when a timer set via [`NodeApi::set_timer`] fires.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let _ = (api, key);
    }

    /// Called when the node comes back up after a fault-injected crash
    /// (see [`Sim::restart_node`](crate::Sim::restart_node)). Timers
    /// that fired while the node was down were swallowed, so periodic
    /// applications should re-arm here; management applications can
    /// start protocol recovery (e.g. re-deploying a lost ASP).
    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        let _ = api;
    }
}

/// A hook's decision about an arriving packet.
#[derive(Debug)]
pub enum HookVerdict {
    /// The hook consumed the packet (its effects are already applied).
    Handled,
    /// The hook declined; normal IP processing continues with the
    /// returned packet (usually the original, possibly rewritten).
    Pass(Packet),
}

// Every hook returns one by value: `Pass` must ride in `Packet`'s niche
// (see the pin in `packet.rs` for the 128-byte inline-copy threshold).
const _: () = assert!(std::mem::size_of::<HookVerdict>() <= 112);

/// The extension point at the IP layer (figure 1 of the paper: the
/// "IP/PLAN-P" layer). The PLAN-P runtime installs an implementation of
/// this trait; native (built-in "C") baselines implement it directly in
/// Rust.
pub trait PacketHook {
    /// Inspects an arriving packet before normal IP processing.
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict;

    /// Called when a timer armed via [`NodeApi::set_hook_timer`] fires.
    /// This is how an installed protocol gets a clock: the PLAN-P layer
    /// turns these into synthetic timer-channel dispatches so ASPs can
    /// schedule retransmissions.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let _ = (api, key);
    }
}
