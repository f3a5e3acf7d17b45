//! The node environment a PLAN-P program executes against.
//!
//! The environment primitives (`thisHost`, `linkLoad`, …) and the output
//! effects (`OnRemote`, `OnNeighbor`, `deliver`, `print`) are mediated by
//! the [`NetEnv`] trait. The real implementation lives in
//! `planp-runtime`, backed by a simulated node; [`MockEnv`] here supports
//! unit tests and micro-benchmarks.

use crate::value::{Value, VmError};

/// Which send primitive an ASP executed — how [`MockEnv`] labels the
/// entries of its send-site trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// `OnRemote(chan, pkt)` — route by the packet's destination.
    Remote,
    /// `OnNeighbor(chan, host, pkt)` — direct to a neighbor.
    Neighbor,
    /// `deliver(pkt)` — hand to the local application.
    Deliver,
}

/// The channel overload a send targets, resolved by the engine: its
/// position in [`planp_lang::tast::TProgram::channels`], so an
/// environment that keeps per-channel data finds it by index, plus the
/// name and overload number for one that records them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanRef<'a> {
    /// Channel name.
    pub name: &'a str,
    /// Index of the overload in the program's channel list.
    pub index: u32,
    /// Index of the overload within its name group.
    pub overload: u32,
}

/// The components of a packet held as a tuple value, the form the send
/// effects take it in.
///
/// # Errors
///
/// Traps on a value that is not a tuple (unreachable for checked
/// programs).
pub fn packet_parts(v: &Value) -> Result<&[Value], VmError> {
    match v {
        Value::Tuple(parts) => Ok(parts),
        other => Err(VmError::trap(format!(
            "sent value is not a packet tuple: {other:?}"
        ))),
    }
}

/// The packet a send hands the environment, as its components (`ip`,
/// transport header, payload parts) side by side.
#[derive(Debug)]
pub enum Outgoing<'a> {
    /// Components the program may still read (a tuple value, or
    /// registers read again later): what the environment keeps, it
    /// clones.
    Shared(&'a [Value]),
    /// The channel's own packet registers at a send that is their last
    /// reader, on every path (decided once per send instruction when
    /// the bytecode tier compiles the channel): the environment may
    /// move components out.
    Owned(&'a mut [Value]),
}

impl Outgoing<'_> {
    /// The components, in tuple order.
    #[inline]
    pub fn parts(&self) -> &[Value] {
        match self {
            Outgoing::Shared(parts) => parts,
            Outgoing::Owned(parts) => parts,
        }
    }

    /// The packet as one tuple value: owned components are moved into
    /// it, shared ones cloned.
    pub fn into_tuple(self) -> Value {
        match self {
            Outgoing::Shared(parts) => Value::Tuple(parts.into()),
            Outgoing::Owned(parts) => {
                let taken = parts.iter_mut().map(|v| std::mem::replace(v, Value::Unit));
                Value::Tuple(taken.collect())
            }
        }
    }
}

/// What a PLAN-P program can observe and effect on its node.
///
/// The three output effects take the packet as its components
/// (`ip`, transport header, payload parts) side by side: the bytecode
/// tier sends straight from its registers and never builds the tuple,
/// and at a send that is the last reader of the channel's own packet it
/// hands the registers over to be moved from ([`Outgoing::Owned`]).
pub trait NetEnv {
    /// The address of the node the program runs on.
    fn this_host(&self) -> u32;
    /// Milliseconds since an arbitrary epoch (simulated time).
    fn time_ms(&mut self) -> i64;
    /// Measured traffic (kb/s) on the outgoing link toward `dst` —
    /// including competing traffic on a shared segment. This is the
    /// router-local bandwidth monitor of section 3.1.
    fn link_load(&mut self, dst: u32) -> i64;
    /// Capacity (kb/s) of the outgoing link toward `dst`.
    fn link_capacity(&mut self, dst: u32) -> i64;
    /// Packets currently queued on the outgoing link toward `dst`.
    fn queue_len(&mut self, dst: u32) -> i64;
    /// A uniform random integer in `0..bound` (`0` when `bound <= 0`).
    fn rand_int(&mut self, bound: i64) -> i64;
    /// Effect of `OnRemote(chan, pkt)`.
    fn send_remote(&mut self, to: ChanRef<'_>, pkt: Outgoing<'_>);
    /// Effect of `OnNeighbor(chan, host, pkt)`.
    fn send_neighbor(&mut self, to: ChanRef<'_>, host: u32, pkt: Outgoing<'_>);
    /// Effect of `deliver(pkt)` — hand the packet to the local
    /// application above the PLAN-P layer.
    fn deliver(&mut self, pkt: Outgoing<'_>);
    /// Effect of `print`/`println`.
    fn print(&mut self, text: &str);
    /// Effect of `setTimer(delay_ms, key)`: schedule a synthetic
    /// timer-channel dispatch on this node after `delay_ms` milliseconds
    /// carrying `key`. The default discards the request (environments
    /// without a clock, such as the verifier's abstract ones).
    fn set_timer(&mut self, _delay_ms: i64, _key: i64) {}
    /// Accounts `n` abstract VM execution steps (evaluated expression
    /// nodes) to the current channel invocation. Both engines call this
    /// once per `run_channel` with the steps that invocation consumed —
    /// a deterministic, wall-clock-free cost measure. The default
    /// discards the charge.
    fn charge_steps(&mut self, _n: u64) {}
    /// Attributes `n` VM steps to the expression **site** being
    /// evaluated (a site id is the node's source span start offset —
    /// stable across engines, runs, and recompiles of the same source).
    /// Both engines call this once per charged node, so per dispatch
    /// the per-site charges sum exactly to the `charge_steps`
    /// aggregate. Environments that build execution profiles (the
    /// runtime's telemetry) consume it; the default discards the
    /// charge.
    fn charge_site(&mut self, _site: u32, _n: u64) {}
    /// Attributes one node's worth of steps to each site of each run
    /// `(first, len)` of `blocks`, in order: `pool[first..first + len]`,
    /// one or more basic blocks of the bytecode tier, where `pool` is
    /// the compiled program's site pool
    /// ([`crate::jit::CompiledProgram::block_sites`]). The engine
    /// buffers a run's blocks and hands them over together when the run
    /// ends, so an environment can count them in a dense array indexed
    /// by position, in one pass. The default is the per-site loop, which
    /// leaves exactly the trail the interpreter leaves.
    fn charge_blocks(&mut self, pool: &[u32], blocks: &[(u32, u32)]) {
        for &(first, len) in blocks {
            for &site in &pool[first as usize..(first + len) as usize] {
                self.charge_site(site, crate::cost::STEPS_PER_NODE);
            }
        }
    }
    /// Accounts a table mutation (both engines call this from the
    /// `tblSet`/`tblDel`/`tblClear` primitives). `inserted` is `1` when
    /// a `tblSet` created a new key, `0` on an overwrite, and `-n` when
    /// an eviction removed `n` entries; `entries` is the mutated
    /// table's size after the write. Environments that enforce the
    /// static state bounds (the runtime's telemetry) use it as a live
    /// soundness cross-check; the default discards the note.
    fn note_table_write(&mut self, _inserted: i64, _entries: u64) {}
}

/// A recorded output effect (used by [`MockEnv`] and by tests).
#[derive(Debug, Clone)]
pub enum Effect {
    /// An `OnRemote` send.
    Remote {
        /// Target channel.
        chan: String,
        /// Target overload index.
        overload: u32,
        /// The packet value.
        pkt: Value,
    },
    /// An `OnNeighbor` send.
    Neighbor {
        /// Target channel.
        chan: String,
        /// Target overload index.
        overload: u32,
        /// The neighbor address.
        host: u32,
        /// The packet value.
        pkt: Value,
    },
    /// A local delivery.
    Deliver(Value),
}

/// A deterministic in-memory environment for tests and benchmarks.
#[derive(Debug)]
pub struct MockEnv {
    /// Node address reported by `thisHost`.
    pub host: u32,
    /// Value reported by `timeMs` (advance manually).
    pub now_ms: i64,
    /// Value reported by `linkLoad` for every destination.
    pub load: i64,
    /// Value reported by `linkCapacity` for every destination.
    pub capacity: i64,
    /// Value reported by `queueLen` for every destination.
    pub queue: i64,
    /// Recorded sends and deliveries, in order.
    pub effects: Vec<Effect>,
    /// Recorded print output (concatenated).
    pub output: String,
    /// Total VM steps charged via [`NetEnv::charge_steps`].
    pub steps: u64,
    /// Per-site step charges via [`NetEnv::charge_site`], in charge
    /// order (one entry per charged node — raw trail, not aggregated).
    pub site_steps: Vec<(u32, u64)>,
    /// The send primitives executed, in order, with the channel each
    /// named.
    pub send_sites: Vec<(SendKind, Option<String>)>,
    /// Timers requested via [`NetEnv::set_timer`], as `(delay_ms, key)`.
    pub timers: Vec<(i64, i64)>,
    /// Table mutations noted via [`NetEnv::note_table_write`], as
    /// `(inserted, entries_after)`.
    pub table_writes: Vec<(i64, u64)>,
    rng_state: u64,
}

impl MockEnv {
    /// A mock node at `host` with quiet links.
    pub fn new(host: u32) -> Self {
        MockEnv {
            host,
            now_ms: 0,
            load: 0,
            capacity: 10_000,
            queue: 0,
            effects: Vec::new(),
            output: String::new(),
            steps: 0,
            site_steps: Vec::new(),
            send_sites: Vec::new(),
            timers: Vec::new(),
            table_writes: Vec::new(),
            rng_state: 0x9E3779B97F4A7C15,
        }
    }

    /// Number of recorded `OnRemote` effects.
    pub fn remote_count(&self) -> usize {
        self.effects
            .iter()
            .filter(|e| matches!(e, Effect::Remote { .. }))
            .count()
    }

    /// Number of `tblSet` mutations that created a new key.
    pub fn insert_count(&self) -> u64 {
        self.table_writes.iter().filter(|(i, _)| *i > 0).count() as u64
    }

    /// The recorded site charges aggregated per site (site → total
    /// steps), for order-insensitive profile comparisons.
    pub fn site_profile(&self) -> std::collections::BTreeMap<u32, u64> {
        let mut out = std::collections::BTreeMap::new();
        for &(site, n) in &self.site_steps {
            *out.entry(site).or_insert(0) += n;
        }
        out
    }

    /// Number of recorded deliveries.
    pub fn deliver_count(&self) -> usize {
        self.effects
            .iter()
            .filter(|e| matches!(e, Effect::Deliver(_)))
            .count()
    }
}

impl NetEnv for MockEnv {
    fn this_host(&self) -> u32 {
        self.host
    }

    fn time_ms(&mut self) -> i64 {
        self.now_ms
    }

    fn link_load(&mut self, _dst: u32) -> i64 {
        self.load
    }

    fn link_capacity(&mut self, _dst: u32) -> i64 {
        self.capacity
    }

    fn queue_len(&mut self, _dst: u32) -> i64 {
        self.queue
    }

    fn rand_int(&mut self, bound: i64) -> i64 {
        if bound <= 0 {
            return 0;
        }
        // SplitMix64 — deterministic and independent of external crates.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z % bound as u64) as i64
    }

    // Owned components are moved out, as the runtime's environment
    // moves them: a send marked as the last reader that was not would
    // leave `Unit` where a later read differs from the interpreter's.
    fn send_remote(&mut self, to: ChanRef<'_>, pkt: Outgoing<'_>) {
        self.send_sites
            .push((SendKind::Remote, Some(to.name.to_string())));
        self.effects.push(Effect::Remote {
            chan: to.name.to_string(),
            overload: to.overload,
            pkt: pkt.into_tuple(),
        });
    }

    fn send_neighbor(&mut self, to: ChanRef<'_>, host: u32, pkt: Outgoing<'_>) {
        self.send_sites
            .push((SendKind::Neighbor, Some(to.name.to_string())));
        self.effects.push(Effect::Neighbor {
            chan: to.name.to_string(),
            overload: to.overload,
            host,
            pkt: pkt.into_tuple(),
        });
    }

    fn deliver(&mut self, pkt: Outgoing<'_>) {
        self.send_sites.push((SendKind::Deliver, None));
        self.effects.push(Effect::Deliver(pkt.into_tuple()));
    }

    fn print(&mut self, text: &str) {
        self.output.push_str(text);
    }

    fn charge_steps(&mut self, n: u64) {
        self.steps += n;
    }

    fn charge_site(&mut self, site: u32, n: u64) {
        self.site_steps.push((site, n));
    }

    fn charge_blocks(&mut self, pool: &[u32], blocks: &[(u32, u32)]) {
        let n = crate::cost::STEPS_PER_NODE;
        for &(first, len) in blocks {
            let sites = &pool[first as usize..(first + len) as usize];
            self.site_steps.extend(sites.iter().map(|&site| (site, n)));
        }
    }

    fn set_timer(&mut self, delay_ms: i64, key: i64) {
        self.timers.push((delay_ms, key));
    }

    fn note_table_write(&mut self, inserted: i64, entries: u64) {
        self.table_writes.push((inserted, entries));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_records_effects() {
        let mut env = MockEnv::new(7);
        let network = ChanRef {
            name: "network",
            index: 0,
            overload: 0,
        };
        env.send_remote(network, Outgoing::Shared(&[Value::Int(1), Value::Int(2)]));
        let mut owned = [Value::Int(1)];
        env.deliver(Outgoing::Owned(&mut owned));
        assert_eq!(owned, [Value::Unit], "owned components are moved out");
        env.print("hi");
        assert_eq!(env.remote_count(), 1);
        assert_eq!(env.deliver_count(), 1);
        // The effect holds the tuple the parts stand for, and the trail
        // names each send.
        assert!(
            matches!(&env.effects[0], Effect::Remote { pkt: Value::Tuple(t), .. } if t.len() == 2)
        );
        assert_eq!(
            env.send_sites,
            vec![
                (SendKind::Remote, Some("network".to_string())),
                (SendKind::Deliver, None)
            ]
        );
        assert_eq!(env.output, "hi");
        assert_eq!(env.this_host(), 7);
    }

    #[test]
    fn rand_int_is_deterministic_and_bounded() {
        let mut a = MockEnv::new(0);
        let mut b = MockEnv::new(0);
        for _ in 0..100 {
            let x = a.rand_int(10);
            assert_eq!(x, b.rand_int(10));
            assert!((0..10).contains(&x));
        }
        assert_eq!(a.rand_int(0), 0);
        assert_eq!(a.rand_int(-5), 0);
    }
}
