//! [`Sim::state_digest`]: one FNV-1a hash of the state a run carries
//! forward, so two runs can be compared by where they *are* and not only
//! by what they printed.
//!
//! Each part feeds what it holds into one [`Fnv`]: the clock and the
//! event queue, the links, the nodes with their apps and hooks, the
//! fault state, the instruments
//! and the metrics registry, which is where the PLAN-P layer and the
//! cluster gateway count and what the health monitor judges. What only
//! observes the run stays out: the trace log,
//! `events_elided`, whether a completion was elided (a link-traced run
//! elides none), a packet's head-sampling flag, and slab slot numbers,
//! which no ordering decision reads. Maps that are looked up and never
//! iterated are fed in sorted key order. The digest is computed only
//! when asked and is never written into a byte-stable output.

use crate::link::NodeId;
use crate::packet::Packet;
use crate::sim::Sim;
use std::hash::{Hash, Hasher};

/// FNV-1a (64-bit) over every byte it is fed: the one hasher behind
/// [`Sim::state_digest`] and every digest a test pins.
///
/// To reproduce a pinned value, feed bytes through [`Hasher::write`]:
/// `str`'s `Hash` appends a `0xFF` and an integer's `Hash` writes its
/// native-endian bytes, so `.hash(&mut fnv)` digests different bytes.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Text written into an [`Fnv`] is hashed as its UTF-8 bytes, so state
/// with a deterministic `Debug` form can be fed as
/// `write!(h, "{state:?}")` without building the string.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Feeds `pkt`'s identity, headers, payload and lineage.
pub(crate) fn packet(pkt: &Packet, h: &mut Fnv) {
    let transport = format!("{:?}", pkt.transport);
    (pkt.id, pkt.ip, transport, &pkt.payload[..]).hash(h);
    let l = &pkt.lineage;
    (l.trace, l.parent, l.deadline_ns, format!("{:?}", l.origin)).hash(h);
    for tag in [&pkt.tag, &l.chan] {
        tag.as_ref().map(|t| (&*t.chan, t.overload)).hash(h);
    }
}

/// A visitor of [`Sim::state_digest`]'s parts: a part's label and what
/// feeds it.
type PartVisitor<'a> = dyn FnMut(&dyn Fn() -> String, &dyn Fn(&mut Fnv)) + 'a;

/// Feeds the entries of a lookup-only map in key order.
pub(crate) fn sorted<K: Ord + Hash, V: Hash>(entries: impl Iterator<Item = (K, V)>, h: &mut Fnv) {
    let mut entries: Vec<(K, V)> = entries.collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.hash(h);
}

impl Sim {
    /// A digest of everything the simulation carries forward: the
    /// clock, the `(at, seq)` and contents of every queued event, the
    /// links' queues, transmissions and counters, the nodes' counters,
    /// routes, rng states, CPU queues and `down` flags, what each app
    /// and packet hook feeds of its own state ([`crate::App::digest`],
    /// [`crate::PacketHook::digest`]: the PLAN-P layer's protocol and
    /// channel states), the fault rng,
    /// partition and counters, the monitor's and brownout controller's
    /// state, and every counter and histogram of the metrics registry.
    /// Two runs of one seed agree on it at every point they both reach;
    /// the first point where they differ is where they diverged. Take it
    /// after `run_until` returns: every completion that could have been
    /// elided is settled by then, so a run with `link` tracing on, which
    /// elides none, agrees with one that has it off.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::default();
        self.each_part(&mut |_, feed| feed(&mut h));
        h.finish()
    }

    /// The parts of [`Sim::state_digest`], each digested on its own and
    /// labelled, in the order the whole digest feeds them: the clock
    /// and queued events, each link, each node's own state, each of its
    /// apps and its hook, the faults, the instruments and the metrics.
    /// Two runs that differ in `state_digest` differ in at least one of
    /// these; the first one that differs says where to look.
    pub fn component_digests(&self) -> Vec<(String, u64)> {
        let mut parts = Vec::new();
        self.each_part(&mut |label, feed| {
            let mut h = Fnv::default();
            feed(&mut h);
            parts.push((label(), h.finish()));
        });
        parts
    }

    /// Hands `visit` each part of the state a run carries forward, in
    /// digest order: its label (built only when asked for) and what
    /// feeds it.
    fn each_part(&self, visit: &mut PartVisitor<'_>) {
        visit(&|| "clock and queued events".into(), &|h| {
            (self.now, self.now_seq, self.horizon, self.started).hash(h);
            (self.next_pkt_id, self.events_processed).hash(h);
            (self.total_link_drops, self.total_node_drops).hash(h);
            sorted(self.addr_map.iter(), h);
            self.sched.digest(h);
        });
        let slab = &self.sched.packets;
        for (i, link) in self.links.iter().enumerate() {
            visit(&|| format!("link {i}"), &|h| link.digest(slab, h));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let name = &node.name;
            let feed = |h: &mut Fnv| node.digest(self.unicast_routes(NodeId(i)), slab, h);
            visit(&|| format!("node {name}"), &feed);
            for (j, app) in node.apps.iter().enumerate() {
                if let Some(app) = app {
                    visit(&|| format!("node {name} app {j}"), &|h| app.digest(h));
                }
            }
            if let Some(hook) = &node.hook {
                visit(&|| format!("node {name} hook"), &|h| hook.digest(h));
            }
        }
        visit(&|| "faults".into(), &|h| self.faults.digest(h));
        visit(&|| "instruments".into(), &|h| self.instruments.digest(h));
        visit(&|| "metrics".into(), &|h| {
            self.telemetry.overload.summary().hash(h);
            self.telemetry.metrics.digest(h);
        });
    }
}
