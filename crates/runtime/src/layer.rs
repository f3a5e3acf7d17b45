//! The IP/PLAN-P layer: a [`PacketHook`] that dispatches arriving
//! packets to the installed program's channels and applies their
//! effects (figure 1 of the paper).
//!
//! Dispatch follows section 2.3: packets sent on user-defined channels
//! carry a tag and go straight to the tagged overload; untagged traffic
//! is offered to the `network` channel overloads in declaration order,
//! and the first whose packet type matches (transport layer + payload
//! decode) runs. If nothing matches, standard IP processing continues —
//! a PLAN-P router "operates seamlessly within existing networks".
//!
//! Which overloads a packet can match, and how each reads a packet, is
//! worked out at an image's first install (`crate::dispatch`) and shared
//! by every node installed from it. Per packet the layer decodes the
//! components of the first overload that fits straight into the
//! compiled program's registers (a blob payload by move), for either
//! engine. The bytecode engine sends from its registers (by move where
//! the send is the packet's last read), and `SimNetEnv` builds the
//! outgoing packet from that slice — no tuple, no allocation, no name
//! lookup and no reference count of the payload touched in between. The
//! interpreter binds `p` to a tuple of the same registers.

use crate::convert::{packet_headers, packet_payload, parts_to_packet};
use crate::dispatch::{load_frame, DispatchTable};
use crate::loader::{load, LoadedProgram};
use bytes::Bytes;
use netsim::digest::Fnv;
use netsim::packet::{ChannelTag, Lineage, Packet};
use netsim::{ArrivalMeta, HookVerdict, NodeApi, PacketHook, Sim};
use planp_analysis::{site_bounds, superinstruction_candidates, Policy};
use planp_lang::tast::TProgram;
use planp_telemetry::{
    Category, CounterId, DispatchOutcome, DropReason, MetricsRegistry, ScopeId, ScopeShape,
    SpanOrigin, Telemetry,
};
use planp_vm::cost::STEPS_PER_NODE;
use planp_vm::env::{ChanRef, NetEnv, Outgoing};
use planp_vm::interp::Interp;
use planp_vm::jit::CompiledProgram;
use planp_vm::table::digest_value;
use planp_vm::value::{Value, VmError};
use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

/// Which evaluator executes channel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The JIT-compiled program (production mode).
    #[default]
    Jit,
    /// The portable interpreter (the paper's debug/evolution mode).
    Interp,
}

/// An installed layer's statistics, summed from its counters in the
/// metrics registry when read ([`PlanpHandle::stats`]): the dispatch
/// path counts each event once, there.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Packets handled by a channel (`chan.<c>.dispatch`).
    pub matched: u64,
    /// Packets given standard IP processing (`planp.fallback_ip`): no
    /// channel matched, or the channel failed before it sent or
    /// delivered anything.
    pub passed: u64,
    /// Channel executions that failed (uncaught exception or trap).
    pub errors: u64,
    /// Packets a channel consumed without forwarding or delivering
    /// anything — the ASP intentionally ate the packet (filters,
    /// discard policies).
    pub dropped: u64,
    /// Total VM execution steps charged by channel runs (nodes the
    /// interpreter evaluated; the JIT charges the same, by block).
    pub vm_steps: u64,
    /// Channel runs whose charged steps exceeded the verifier's static
    /// per-packet bound — a soundness violation of the cost analysis,
    /// expected to stay 0 (cross-checked by the test suite).
    pub cost_bound_exceeded: u64,
    /// `tblSet` calls that created a new key, across all channel runs.
    pub state_inserts: u64,
    /// Soundness violations of the state analysis: channel runs whose
    /// fresh inserts exceeded the static per-dispatch bound, or that
    /// pushed the live entry total past the static entry bound.
    /// Expected to stay 0 (cross-checked by the test suite).
    pub state_bound_exceeded: u64,
    /// Packets shed by admission control (brownout priority) before a
    /// channel ran.
    pub shed: u64,
    /// Packets dropped at ingress because their lineage deadline had
    /// already passed.
    pub deadline_expired: u64,
}

/// UDP port of the management plane: the deploy service
/// ([`crate::deploy`]) listens on it, and traffic on it bypasses the
/// installed program so that a buggy or packet-dropping ASP can always
/// be replaced.
pub const MANAGEMENT_PORT: u16 = 99;

/// Installation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerConfig {
    /// Evaluator choice.
    pub engine: Engine,
    /// Offer *overheard* segment traffic to channels (promiscuous mode;
    /// needed by the MPEG capture ASP of section 3.3).
    pub process_overheard: bool,
    /// Admission control: overload protection that is explicit and
    /// analyzable rather than an emergent property of full queues. When
    /// on, a packet that matched a channel is shed before the engine
    /// runs, so it costs no VM dispatch on either engine, if
    ///
    /// 1. its lineage deadline has passed ([`Lineage::expired`];
    ///    [`DropReason::DeadlineExpired`], counted in
    ///    [`LayerStats::deadline_expired`]), or
    /// 2. its priority class is below the brownout level
    ///    ([`OverloadState::sheds`]; [`DropReason::Shed`], counted in
    ///    [`LayerStats::shed`]). The class is payload byte 0, as at the
    ///    cluster gateway, so it travels with the packet and survives
    ///    forwarding; a packet without one is top priority.
    ///
    /// Both read only simulation time and packet bytes, so two runs
    /// shed byte-identical packet sets. A timer wake-up is not traffic
    /// and is never shed. Off by default.
    ///
    /// [`OverloadState::sheds`]: planp_telemetry::OverloadState::sheds
    pub admission: bool,
}

/// Handle returned by [`install_planp`]: the layer's counters and its
/// `print` output.
#[derive(Debug, Clone)]
pub struct PlanpHandle {
    /// Each channel name's counters, once.
    chans: Rc<[ChanCounters]>,
    fallback: CounterId,
    /// Accumulated `print`/`println` output.
    pub output: Rc<RefCell<String>>,
}

impl PlanpHandle {
    /// The layer's statistics, read from `telemetry`'s registry (the
    /// one the layer was installed with). A layer reinstalled on the
    /// same node counts on from its predecessor's totals, as the
    /// exported metrics do.
    pub fn stats(&self, telemetry: &Telemetry) -> LayerStats {
        let m = &telemetry.metrics;
        let mut s = LayerStats {
            passed: m.get_id(self.fallback),
            ..LayerStats::default()
        };
        for c in self.chans.iter() {
            s.matched += m.get_id(c.dispatch);
            s.errors += m.get_id(c.errors);
            s.dropped += m.get_id(c.dropped);
            s.vm_steps += m.get_id(c.vm_steps);
            s.cost_bound_exceeded += m.get_id(c.cost_bound_exceeded);
            s.state_inserts += m.get_id(c.state_inserts);
            s.state_bound_exceeded += m.get_id(c.state_bound_exceeded);
            s.shed += m.get_id(c.shed);
            s.deadline_expired += m.get_id(c.deadline_expired);
        }
        s
    }
}

/// The registry slots of one channel name's counters
/// (`node.<n>.chan.<c>.<what>`), resolved once at install so the packet
/// path never formats or hashes a metric name — each count is an array
/// add. Overloads sharing a name resolve to the same slots.
#[derive(Debug, Clone, Copy)]
struct ChanCounters {
    dispatch: CounterId,
    errors: CounterId,
    dropped: CounterId,
    vm_steps: CounterId,
    cost_bound_exceeded: CounterId,
    shed: CounterId,
    deadline_expired: CounterId,
    state_inserts: CounterId,
    state_bound_exceeded: CounterId,
    /// Dispatches whose per-site charge vector was recorded into the
    /// profile registry / skipped by its sampling.
    profiled: CounterId,
    profile_skipped: CounterId,
}

impl ChanCounters {
    fn register(metrics: &mut MetricsRegistry, names: &mut NodeNames, chan: &str) -> Self {
        let mut id = |what: &str| metrics.register_counter(names.name(&["chan.", chan, ".", what]));
        // Registered in this order, the three every profiled dispatch
        // adds to sit side by side in the registry: one cache line to
        // miss, not three.
        ChanCounters {
            dispatch: id("dispatch"),
            vm_steps: id("vm_steps"),
            profiled: id("profiled"),
            errors: id("errors"),
            dropped: id("dropped"),
            cost_bound_exceeded: id("cost_bound_exceeded"),
            shed: id("shed"),
            deadline_expired: id("deadline_expired"),
            state_inserts: id("state_inserts"),
            state_bound_exceeded: id("state_bound_exceeded"),
            profile_skipped: id("profile_skipped"),
        }
    }
}

/// The metric names of one node, `node.<n>.…`, written one after the
/// other into one buffer: a name costs the registry's copy of it.
struct NodeNames {
    buf: String,
    /// Length of the `node.<n>.` prefix.
    base: usize,
}

impl NodeNames {
    fn new(node: &str) -> Self {
        let mut buf = String::with_capacity(64);
        buf.push_str("node.");
        buf.push_str(node);
        buf.push('.');
        NodeNames {
            base: buf.len(),
            buf,
        }
    }

    /// `node.<n>.` followed by `parts`.
    fn name(&mut self, parts: &[&str]) -> &str {
        self.buf.truncate(self.base);
        parts.iter().for_each(|p| self.buf.push_str(p));
        &self.buf
    }
}

/// The half of an installed layer that is the same on every node, built
/// once per image at its first install ([`LoadedProgram::shape`]) and
/// never by `load`: what each overload is and may cost, its profile
/// scope's shape, and the dispatch table. Every node installed from the
/// image holds it by `Rc` and reads it per packet; a node keeps only
/// its own counters and profile scopes beside it.
pub(crate) struct ProgramShape {
    /// Per channel overload, indexed like the program's channels.
    chans: Vec<ChanShape>,
    /// Each channel name once, in declaration order.
    names: Vec<ChanName>,
    table: DispatchTable,
    /// The composed entry bound over every table, if the state analysis
    /// proved one: what the live entry total is checked against.
    entry_bound: Option<u64>,
}

/// One channel overload of [`ProgramShape`].
struct ChanShape {
    /// This overload's `{name, overload}` record, built here once around
    /// the program's one handle of the name (`TChannel::name`): a send
    /// to it clones the handle into the packet's lineage.
    ident: ChannelTag,
    /// The tag a send to this overload puts on the packet: its `ident`,
    /// except on `network`, whose traffic stays untagged so PLAN-P
    /// routers interoperate with plain IP.
    tag: Option<ChannelTag>,
    /// Index of the overload's name in [`ProgramShape::names`].
    name: usize,
    /// Static worst-case step bound of this overload's body, from the
    /// verifier's cost analysis.
    static_bound: u64,
    /// Static worst-case fresh inserts per dispatch of this overload,
    /// from the verifier's state analysis.
    static_insert_bound: u64,
    scope: Rc<ScopeShape>,
}

/// One channel name of [`ProgramShape`], with the largest static step
/// bound and fresh-insert bound of its overloads.
struct ChanName {
    name: Rc<str>,
    steps: u64,
    inserts: u64,
}

impl ProgramShape {
    pub(crate) fn new(image: &LoadedProgram) -> Self {
        let report = &image.report;
        // Static per-site step bounds and superinstruction candidates;
        // the bytecode tier charges whole blocks of the compiled
        // program's site pool, which each scope finds by position.
        let site_report = site_bounds(&image.prog, &image.source);
        let candidates = superinstruction_candidates(&image.prog, &image.source);
        let pool = image.compiled.block_sites();
        let mut names: Vec<ChanName> = Vec::new();
        let mut chans = Vec::with_capacity(image.prog.channels.len());
        for (i, ch) in image.prog.channels.iter().enumerate() {
            let (steps, inserts) = (
                report.cost.bound_for(i).steps,
                report.state_effects.inserts_for(i),
            );
            let name = match names.iter().position(|n| Rc::ptr_eq(&n.name, &ch.name)) {
                Some(at) => {
                    let n = &mut names[at];
                    n.steps = n.steps.max(steps);
                    n.inserts = n.inserts.max(inserts);
                    at
                }
                None => {
                    names.push(ChanName {
                        name: ch.name.clone(),
                        steps,
                        inserts,
                    });
                    names.len() - 1
                }
            };
            let sites = site_report.channels[i]
                .sites
                .iter()
                .map(|s| (s.site, s.label.clone(), s.bound_steps));
            let patterns = candidates
                .iter()
                .filter(|c| c.chan == ch.name && c.overload == ch.overload)
                .map(|c| (c.pattern.to_string(), c.sites.clone(), c.label.clone()));
            let ident = ChannelTag::new(ch.name.clone(), ch.overload);
            chans.push(ChanShape {
                tag: (&*ch.name != "network").then(|| ident.clone()),
                ident,
                name,
                static_bound: steps,
                static_insert_bound: inserts,
                scope: Rc::new(ScopeShape::new(
                    &ch.name,
                    ch.overload,
                    sites,
                    patterns,
                    pool,
                )),
            });
        }
        ProgramShape {
            chans,
            names,
            table: DispatchTable::new(image),
            entry_bound: report.state_effects.entry_bound(),
        }
    }
}

/// The synthetic packet of a timer wake-up: the `timer` channel's tag,
/// and the payload of the last key fired — a timer that re-arms itself
/// with one key (what a periodic ASP does) wakes up without building
/// the payload again.
struct TimerWake {
    tag: ChannelTag,
    key: u64,
    payload: Bytes,
}

impl TimerWake {
    /// The key as an 8-byte big-endian integer (readable with `blobInt`).
    fn payload_of(key: u64) -> Bytes {
        Bytes::copy_from_slice(&(key as i64).to_be_bytes())
    }
}

/// The installed PLAN-P layer for one node.
pub struct PlanpLayer {
    prog: Rc<TProgram>,
    compiled: Rc<CompiledProgram>,
    /// What every node installed from the image shares.
    shape: Rc<ProgramShape>,
    /// What a fired `setTimer` re-enters the program with, if the
    /// program declares a `timer` channel.
    timer: Option<TimerWake>,
    config: LayerConfig,
    globals: Vec<Value>,
    proto: Value,
    chan_states: Vec<Value>,
    output: Rc<RefCell<String>>,
    /// This node's counters per channel name, indexed like
    /// [`ProgramShape::names`]; shared with every handle.
    counters: Rc<[ChanCounters]>,
    /// This node's scope in the telemetry profile registry per channel
    /// overload, indexed like the program's channels.
    scopes: Vec<ScopeId>,
    /// Handle for packets falling back to standard IP processing.
    c_fallback: CounterId,
    /// Live total table entries across the program's tables (fresh
    /// inserts minus evictions, tracked through every channel run),
    /// checked against [`ProgramShape::entry_bound`].
    state_entries: u64,
    /// High-water mark of the live entry total already published to the
    /// `state_entries` metric (counters are monotonic, so the metric
    /// tracks the peak).
    state_entries_peak: u64,
    c_state_entries: CounterId,
}

impl PlanpLayer {
    /// Instantiates the layer: evaluates globals, protocol state, and
    /// every channel's initial state (the "download" moment).
    ///
    /// # Errors
    ///
    /// Propagates load-time evaluation failures.
    pub fn new(
        image: &LoadedProgram,
        config: LayerConfig,
        node_addr: u32,
        node_name: &str,
        telemetry: &mut Telemetry,
    ) -> Result<Self, VmError> {
        // Initializers are pure (enforced by the checker); a mock
        // environment satisfies the interface.
        let mut env = planp_vm::env::MockEnv::new(node_addr);
        let compiled = image.compiled.clone();
        let globals = compiled.eval_globals(&mut env)?;
        let proto = compiled.init_proto(&globals, &mut env)?;
        let n_chans = image.prog.channels.len();
        let mut chan_states = Vec::with_capacity(n_chans);
        for i in 0..n_chans {
            chan_states.push(compiled.init_channel_state(i, &globals, &mut env)?);
        }
        // The node's own counters, one set per channel name in
        // declaration order, and its profile scopes, one per overload
        // over the program's shared shapes (idempotent by scope key, so
        // redeploys keep their profiles).
        let shape = image.shape().clone();
        let metrics = &mut telemetry.metrics;
        let mut names = NodeNames::new(node_name);
        let counters = (shape.names.iter())
            .map(|n| ChanCounters::register(metrics, &mut names, &n.name))
            .collect();
        let scopes = (shape.chans.iter())
            .map(|ch| telemetry.profile.declare(node_name, &ch.scope))
            .collect();
        let timer = (shape.chans.iter())
            .find(|ch| &*ch.ident.chan == "timer")
            .map(|ch| TimerWake {
                tag: ch.ident.clone(),
                key: 0,
                payload: TimerWake::payload_of(0),
            });
        Ok(PlanpLayer {
            prog: image.prog.clone(),
            compiled,
            shape,
            timer,
            config,
            globals,
            proto,
            chan_states,
            output: Rc::new(RefCell::new(String::new())),
            counters,
            scopes,
            c_fallback: metrics.register_counter(names.name(&["planp.fallback_ip"])),
            state_entries: 0,
            state_entries_peak: 0,
            c_state_entries: metrics.register_counter(names.name(&["planp.state_entries"])),
        })
    }

    /// The shared handle (counters + print output).
    pub fn handle(&self) -> PlanpHandle {
        PlanpHandle {
            chans: self.counters.clone(),
            fallback: self.c_fallback,
            output: self.output.clone(),
        }
    }

    /// Offers `pkt` to the program's channels and runs the one it
    /// matches on the configured engine, first through admission if
    /// `admission` is set. Inlined into both callers, so the packet path
    /// stays one function (`scripts/memcpy-census.sh` reads `on_packet`).
    #[inline(always)]
    fn dispatch(&mut self, api: &mut NodeApi<'_>, mut pkt: Packet, admission: bool) -> HookVerdict {
        // Admission reads the priority class before a match moves the
        // payload into the engine's registers.
        let prio = admission.then(|| pkt.payload.first().copied().unwrap_or(u8::MAX));
        // The match loads the packet into a frame of the compiled
        // program's register file, for either engine: the bytecode
        // engine runs there, the interpreter binds `p` to a tuple of the
        // registers.
        let shape = &*self.shape;
        let mut frame = self.compiled.frame();
        let Some(idx) = load_frame(&shape.table, &mut frame, &mut pkt) else {
            api.trace_dispatch(&pkt, None, DispatchOutcome::NoMatch);
            api.telemetry().metrics.inc_id(self.c_fallback);
            return HookVerdict::Pass(pkt);
        };
        let ch = &shape.chans[idx];
        let (c, scope) = (&self.counters[ch.name], self.scopes[idx]);
        // Admission control runs after channel match (so only ASP
        // traffic is gated) but before the engine dispatch.
        if let Some(prio) = prio {
            if pkt.lineage.expired(api.now().as_nanos()) {
                api.telemetry().metrics.inc_id(c.deadline_expired);
                api.node_drop(&pkt, DropReason::DeadlineExpired);
                return HookVerdict::Handled;
            }
            if api.telemetry().overload.sheds(prio) {
                api.telemetry().metrics.inc_id(c.shed);
                api.node_drop(&pkt, DropReason::Shed);
                return HookVerdict::Handled;
            }
        }
        let tel = api.telemetry();
        tel.metrics.inc_id(c.dispatch);
        // The profiler's sampling decision also counts the dispatch, so
        // skipped work is accounted rather than silently dropped.
        let profiling = tel.profile.should_profile(scope);
        let mut env = SimNetEnv {
            host: api.addr(),
            api,
            chans: &shape.chans,
            output: &self.output,
            emitted: 0,
            unbuilt: false,
            vm_steps: 0,
            profiling: profiling.then_some(scope),
            cur: &pkt,
            inserts: 0,
            entries_delta: 0,
        };
        // The states are updated in place, and only by a run that
        // returned.
        let (ps, ss) = (&mut self.proto, &mut self.chan_states[idx]);
        let result = match self.config.engine {
            Engine::Jit => frame.run(&self.globals, ps, ss, &mut env),
            Engine::Interp => {
                let p = Value::tuple(frame.packet().to_vec());
                Interp::new(&self.prog)
                    .run_channel(idx, &self.globals, ps.clone(), ss.clone(), p, &mut env)
                    .map(|(new_ps, new_ss)| (*ps, *ss) = (new_ps, new_ss))
            }
        };
        let SimNetEnv {
            api,
            emitted,
            unbuilt,
            vm_steps,
            inserts,
            entries_delta,
            ..
        } = env;

        // The dispatch's bookkeeping, in one pass: counters (an add of
        // zero changes nothing and is skipped), the state entry total,
        // the profile, then the trace.
        let tel = api.telemetry();
        let m = &mut tel.metrics;
        m.add_id(c.vm_steps, vm_steps);
        if vm_steps > ch.static_bound {
            m.inc_id(c.cost_bound_exceeded);
        }
        // State accounting mirrors the step accounting: table mutations
        // already happened (tables are shared cells), so they count on
        // error paths too, and the live entry total and per-run inserts
        // are cross-checked against the static state bounds.
        if inserts > 0 {
            m.add_id(c.state_inserts, inserts);
        }
        if entries_delta != 0 {
            self.state_entries = self.state_entries.saturating_add_signed(entries_delta);
            if self.state_entries > self.state_entries_peak {
                m.add_id(
                    self.c_state_entries,
                    self.state_entries - self.state_entries_peak,
                );
                self.state_entries_peak = self.state_entries;
            }
        }
        let over_entries = shape.entry_bound.is_some_and(|b| self.state_entries > b);
        if inserts > ch.static_insert_bound || over_entries {
            m.inc_id(c.state_bound_exceeded);
        }
        let outcome = match &result {
            // The channel ate the packet without re-emitting or
            // delivering anything: an intentional drop, unless a send
            // built nothing (`unbuilt`, recorded as a node drop below).
            Ok(_) if emitted == 0 => {
                m.inc_id(c.dropped);
                DispatchOutcome::Consumed
            }
            Ok(_) => DispatchOutcome::Matched,
            Err(_) => {
                m.inc_id(c.errors);
                DispatchOutcome::Error
            }
        };
        // Per-site attribution went to the profile scope as the engine
        // charged it (the bytecode tier's blocks in one call per run);
        // close the dispatch with the aggregate (VM errors included —
        // both engines charge the aggregate on error paths too, so the
        // Σ per-site == aggregate invariant still holds).
        if profiling {
            m.inc_id(c.profiled);
            tel.profile.record(scope, vm_steps);
        } else {
            m.inc_id(c.profile_skipped);
        }
        // One test for both of the dispatch's packet-path events.
        if tel.trace.categories().0 & (Category::VM.0 | Category::DISPATCH.0) != 0 {
            api.trace_vm_run(&pkt, &ch.ident.chan, vm_steps);
            api.trace_dispatch(&pkt, Some(&ch.ident.chan), outcome);
        }
        if unbuilt && outcome == DispatchOutcome::Consumed {
            // The packet ends here because what the program made of it
            // could not be put on the wire: its terminal drop, like the
            // TTL backstop's in `emit`.
            api.node_drop(&pkt, DropReason::NoWireForm);
        }
        match result {
            Ok(()) => HookVerdict::Handled,
            Err(e) => {
                let exn: Rc<str> = match &e {
                    VmError::Exn(id) => match self.prog.exns.get(id.0 as usize) {
                        Some(name) => name.clone(),
                        None => format!("exn#{}", id.0).into(),
                    },
                    VmError::Trap(m) => format!("trap: {m}").into(),
                };
                api.trace_exception(&pkt, &ch.ident.chan, exn);
                if emitted > 0 {
                    // The program already re-sent or delivered something;
                    // passing the original through as well would duplicate
                    // the packet. Treat it as handled.
                    HookVerdict::Handled
                } else {
                    // Fail open: a misbehaving program must not take the
                    // router down; the packet, whole, gets standard
                    // processing. A payload the match moved into the
                    // frame is still there: only a send that then emitted
                    // moves it on.
                    api.telemetry().metrics.inc_id(self.c_fallback);
                    if shape.table.moves_payload(idx) {
                        if let Some(Value::Blob(bytes)) = frame.packet().last() {
                            pkt.payload = bytes.clone();
                        }
                    }
                    HookVerdict::Pass(pkt)
                }
            }
        }
    }
}

impl PacketHook for PlanpLayer {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict {
        if meta.overheard && !self.config.process_overheard {
            return HookVerdict::Pass(pkt);
        }
        // UDP traffic on the management port goes straight to standard
        // processing: the deployment plane stays out of the program's
        // reach.
        if pkt.udp_hdr().is_some_and(|u| u.dport == MANAGEMENT_PORT) {
            api.trace_dispatch(&pkt, None, DispatchOutcome::Bypass);
            return HookVerdict::Pass(pkt);
        }
        self.dispatch(api, pkt, self.config.admission)
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        // A fired `setTimer` re-enters the program as a synthetic packet
        // on the `timer` channel: UDP self→self whose payload is the key
        // as an 8-byte big-endian integer (readable with `blobInt`).
        // Programs that declare no `timer` channel ignore the wake-up.
        let Some(timer) = &mut self.timer else {
            return;
        };
        if timer.key != key {
            timer.key = key;
            timer.payload = TimerWake::payload_of(key);
        }
        let me = api.addr();
        let mut pkt = Packet::udp(me, me, 0, 0, timer.payload.clone());
        pkt.tag = Some(timer.tag.clone());
        api.stamp(&mut pkt);
        // Run the ordinary dispatch path. A wake-up is not traffic, so it
        // bypasses admission, as management traffic does: its payload's
        // first byte is the key's, not a priority class. A `Pass`
        // verdict means the program declined the synthetic packet; it
        // has nowhere to go, so it is discarded.
        let _ = self.dispatch(api, pkt, false);
    }

    /// Feeds the protocol state, every channel state, the live and
    /// published entry totals and the timer's last key. Tables are fed
    /// entry by entry in a canonical order, only when asked.
    fn digest(&self, h: &mut Fnv) {
        digest_value(&self.proto, h);
        for ss in &self.chan_states {
            digest_value(ss, h);
        }
        (self.state_entries, self.state_entries_peak).hash(h);
        self.timer.as_ref().map(|t| t.key).hash(h);
    }
}

/// The [`NetEnv`] a PLAN-P program sees while running on a simulated
/// node.
struct SimNetEnv<'a, 'b> {
    api: &'a mut NodeApi<'b>,
    /// The node's address (`thisHost`).
    host: u32,
    /// The program's channel overloads: a send's tag and lineage name
    /// come from here.
    chans: &'a [ChanShape],
    output: &'a Rc<RefCell<String>>,
    /// Sends/deliveries performed by the current channel run (used to
    /// decide whether a failed run may still fall back to standard
    /// processing without duplicating the packet).
    emitted: u32,
    /// A send or delivery of the current channel run built no packet:
    /// what it named has no wire form.
    unbuilt: bool,
    /// VM steps charged by the current channel run.
    vm_steps: u64,
    /// The packet being processed. Every packet this run emits is its
    /// child: same trace, same head-sampling decision (so sampled
    /// traces stay complete), same deadline (so expiry is enforceable
    /// at any later hop).
    cur: &'a Packet,
    /// Fresh-key `tblSet` inserts performed by the current channel run.
    inserts: u64,
    /// Net table-entry change of the current channel run (fresh inserts
    /// minus evicted entries).
    entries_delta: i64,
    /// The profile scope site charges go to, if the profiler's sampler
    /// selected this dispatch; skipped runs charge nothing.
    profiling: Option<ScopeId>,
}

impl SimNetEnv<'_, '_> {
    /// Lineage for a child packet born at a send of kind `origin` on
    /// channel `chan`, parented on the packet being processed.
    fn child_lineage(&self, origin: SpanOrigin, chan: Option<ChannelTag>) -> Lineage {
        let cur = &self.cur.lineage;
        Lineage {
            // An unstamped root is its own trace.
            trace: if cur.trace != 0 {
                cur.trace
            } else {
                self.cur.id
            },
            parent: self.cur.id,
            origin,
            chan,
            sampled: cur.sampled,
            deadline_ns: cur.deadline_ns,
        }
    }

    /// Builds the packet a send to channel `to` puts on the wire from
    /// the components the engine named, and puts it there: routed
    /// ([`Hop::Remote`]) or handed to a neighbor ([`Hop::Neighbor`]), or
    /// delivered here if that is where it is going. Built where it is
    /// handed on, so it is not copied out of a return value first.
    fn emit(&mut self, to: ChanRef<'_>, pkt: Outgoing<'_>, hop: Hop) -> Option<()> {
        // Run-time safety net mirroring IP's TTL, as discussed in
        // section 2.1 (the static proof makes this a backstop). The
        // packet being processed ends here, as it would in standard
        // forwarding: the drop is its terminal event. Checked before
        // anything is moved out of the engine's registers, so a send
        // that emits nothing leaves the packet whole.
        let Ok((mut ip, transport, at)) = packet_headers(pkt.parts()) else {
            self.unbuilt = true;
            return None;
        };
        if ip.ttl == 0 {
            self.api.node_drop(self.cur, DropReason::TtlExpired);
            return None;
        }
        ip.ttl -= 1;
        let ch = &self.chans[to.index as usize];
        let origin = match hop {
            Hop::Remote => SpanOrigin::Remote,
            Hop::Neighbor(_) => SpanOrigin::Neighbor,
        };
        let Some(payload) = packet_payload(pkt, at) else {
            self.unbuilt = true;
            return None;
        };
        let p = Packet {
            ip,
            transport,
            payload,
            tag: ch.tag.clone(),
            id: 0,
            lineage: self.child_lineage(origin, Some(ch.ident.clone())),
        };
        self.emitted += 1;
        match hop {
            // Arrived: OnRemote at the destination delivers locally
            // (this is what makes progress sends terminate).
            Hop::Remote if p.ip.dst != self.host => self.api.send(p),
            Hop::Neighbor(host) if host != self.host => self.api.send_to_neighbor(host, p),
            _ => self.api.deliver_local(p),
        }
        Some(())
    }
}

/// Where a send puts the packet it builds.
#[derive(Clone, Copy)]
enum Hop {
    /// `OnRemote`: routed by its destination.
    Remote,
    /// `OnNeighbor`: to the neighbor with this address.
    Neighbor(u32),
}

impl NetEnv for SimNetEnv<'_, '_> {
    fn this_host(&self) -> u32 {
        self.host
    }

    fn time_ms(&mut self) -> i64 {
        self.api.now().as_ms() as i64
    }

    fn link_load(&mut self, dst: u32) -> i64 {
        self.api.measured_kbps_toward(dst)
    }

    fn link_capacity(&mut self, dst: u32) -> i64 {
        self.api.capacity_kbps_toward(dst)
    }

    fn queue_len(&mut self, dst: u32) -> i64 {
        self.api.queue_len_toward(dst)
    }

    fn rand_int(&mut self, bound: i64) -> i64 {
        if bound <= 0 {
            0
        } else {
            self.api.rand_below(bound as u64) as i64
        }
    }

    fn send_remote(&mut self, to: ChanRef<'_>, pkt: Outgoing<'_>) {
        self.emit(to, pkt, Hop::Remote);
    }

    fn send_neighbor(&mut self, to: ChanRef<'_>, host: u32, pkt: Outgoing<'_>) {
        self.emit(to, pkt, Hop::Neighbor(host));
    }

    fn deliver(&mut self, pkt: Outgoing<'_>) {
        let lineage = self.child_lineage(SpanOrigin::Deliver, None);
        if let Ok(p) = parts_to_packet(pkt, None, lineage) {
            self.emitted += 1;
            self.api.deliver_local(p);
        } else {
            self.unbuilt = true;
        }
    }

    fn print(&mut self, text: &str) {
        self.output.borrow_mut().push_str(text);
    }

    fn set_timer(&mut self, delay_ms: i64, key: i64) {
        let delay = std::time::Duration::from_millis(delay_ms.max(0) as u64);
        self.api.set_hook_timer(delay, key as u64);
    }

    fn charge_steps(&mut self, n: u64) {
        self.vm_steps += n;
    }

    fn charge_site(&mut self, site: u32, n: u64) {
        if let Some(scope) = self.profiling {
            self.api.telemetry().profile.charge_site(scope, site, n);
        }
    }

    fn charge_blocks(&mut self, pool: &[u32], blocks: &[(u32, u32)]) {
        if let Some(scope) = self.profiling {
            let profile = &mut self.api.telemetry().profile;
            profile.charge_blocks(scope, pool, blocks, STEPS_PER_NODE);
        }
    }

    fn note_table_write(&mut self, inserted: i64, _entries: u64) {
        if inserted > 0 {
            self.inserts += 1;
        }
        self.entries_delta += inserted;
    }
}

/// Verifies `source` under `policy` and installs it as the hook of the
/// node `api` belongs to — the in-band counterpart of [`install_planp`],
/// shared by the deploy and recovery services. Returns the layer's
/// handle and the program's line count.
pub(crate) fn install_in_node(
    api: &mut NodeApi<'_>,
    source: &str,
    policy: Policy,
    config: LayerConfig,
) -> Result<(PlanpHandle, usize), String> {
    let image = load(source, policy).map_err(|e| e.to_string())?;
    let name = api.node_name().to_string();
    let addr = api.addr();
    let layer =
        PlanpLayer::new(&image, config, addr, &name, api.telemetry()).map_err(|e| e.to_string())?;
    let handle = layer.handle();
    api.install_hook(Box::new(layer));
    Ok((handle, image.lines))
}

/// Loads an already-verified program onto a node of the simulator.
///
/// # Errors
///
/// Propagates load-time evaluation failures (e.g. an initializer
/// dividing by zero).
pub fn install_planp(
    sim: &mut Sim,
    node: netsim::NodeId,
    image: &LoadedProgram,
    config: LayerConfig,
) -> Result<PlanpHandle, VmError> {
    let addr = sim.node(node).addr;
    let name = sim.node(node).name.clone();
    let layer = PlanpLayer::new(image, config, addr, &name, &mut sim.telemetry)?;
    let handle = layer.handle();
    // Record the verifier's static bounds per channel name (overloads
    // share keys, so the group maximum), so reports can compare them
    // against the dynamic counters: the per-packet step bound against
    // `vm_steps`, the per-dispatch fresh-insert bound against
    // `state_inserts`, and the composed entry bound for the whole
    // program (omitted when some table is unbounded).
    let shape = image.shape();
    let metrics = &mut sim.telemetry.metrics;
    let mut names = NodeNames::new(&name);
    for n in &shape.names {
        let chan = &*n.name;
        metrics.add(names.name(&["chan.", chan, ".static_bound_steps"]), n.steps);
        metrics.add(
            names.name(&["chan.", chan, ".static_state_bound"]),
            n.inserts,
        );
    }
    if let Some(bound) = shape.entry_bound {
        metrics.add(names.name(&["planp.static_state_entries"]), bound);
    }
    sim.install_hook(node, Box::new(layer));
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load;
    use bytes::Bytes;
    use netsim::packet::addr;
    use netsim::{LinkSpec, SimTime};
    use planp_analysis::Policy;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink {
        got: Rc<RefCell<Vec<Packet>>>,
    }
    impl netsim::App for Sink {
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
            self.got.borrow_mut().push(pkt);
        }
    }

    struct Blast {
        dst: u32,
        n: usize,
    }
    impl netsim::App for Blast {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            for i in 0..self.n {
                let pkt = Packet::udp(
                    api.addr(),
                    self.dst,
                    1000,
                    2000,
                    Bytes::from(vec![i as u8; 64]),
                );
                api.send(pkt);
            }
        }
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    }

    /// host A — router R — host B, program installed on R.
    fn triangle(src: &str, config: LayerConfig) -> (Sim, PlanpHandle, Rc<RefCell<Vec<Packet>>>) {
        let image = load(src, Policy::no_delivery()).expect("program loads");
        let mut sim = Sim::new(3);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let handle = install_planp(&mut sim, r, &image, config).expect("install");
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Blast {
                dst: addr(10, 0, 1, 1),
                n: 5,
            }),
        );
        (sim, handle, got)
    }

    #[test]
    fn asp_forwarder_passes_traffic() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps + 1, ss))";
        let (mut sim, handle, got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 5);
        assert_eq!(handle.stats(&sim.telemetry).matched, 5);
        assert_eq!(handle.stats(&sim.telemetry).errors, 0);
    }

    #[test]
    fn static_bound_recorded_and_never_exceeded() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps + 1, ss))";
        let (mut sim, handle, _got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(handle.stats(&sim.telemetry).cost_bound_exceeded, 0);
        let snap = sim.telemetry.metrics.snapshot();
        let bound = snap.counters["node.r.chan.network.static_bound_steps"];
        let dispatch = snap.counters["node.r.chan.network.dispatch"];
        let steps = snap.counters["node.r.chan.network.vm_steps"];
        assert!(bound > 0, "install must record the static bound");
        assert!(
            steps <= dispatch * bound,
            "dynamic steps {steps} exceed {dispatch} dispatches x bound {bound}"
        );
        assert!(!snap
            .counters
            .contains_key("node.r.chan.network.cost_bound_exceeded"));
    }

    #[test]
    fn profiler_attributes_every_dispatch_within_static_bounds() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (if udpDst(#2 p) = 2000 then OnRemote(network, p) else ();\n\
                    (ps + 1, ss))";
        let (mut sim, handle, _got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(handle.stats(&sim.telemetry).matched, 5);
        let reg = &sim.telemetry.profile;
        assert_eq!(reg.mismatches(), 0, "Σ per-site == aggregate per dispatch");
        let scope = reg.scopes().next().expect("one scope declared");
        assert_eq!(scope.key(), "node.r.chan.network#0");
        assert_eq!(scope.dispatches, 5);
        assert_eq!(scope.steps, scope.sites().values().sum::<u64>());
        assert_eq!(scope.unknown_sites(), 0, "all sites have bounds");
        for row in reg.heatmap() {
            assert!(
                row.permille <= 1000,
                "site {} observed over its static bound ({}‰)",
                row.site,
                row.permille
            );
        }
        // The if-on-header-compare shape is a superinstruction candidate.
        assert!(reg.superinstruction_report().contains("hdr_compare_branch"));
        let snap = sim.telemetry.metrics.snapshot();
        assert_eq!(snap.counters["node.r.chan.network.profiled"], 5);
        assert!(!snap
            .counters
            .contains_key("node.r.chan.network.profile_skipped"));
    }

    #[test]
    fn both_engines_build_the_same_profile_and_counters() {
        // The bytecode tier charges whole blocks by pool position, the
        // interpreter one site at a time; a raise in mid-block (every
        // even payload, which the handler then eats) charges a prefix.
        // What the node accumulates must not depend on which engine ran.
        let src = "fun half(n : int) : int = 100 div (n mod 2)\n\
                   channel network(ps : int, ss : (int, int) hash_table, p : ip*udp*blob)\n\
                   initstate mkTable(8) is\n\
                   ((if udpDst(#2 p) = 2000 andalso tblHas(ss, blobByte(#3 p, 0)) then ()\n\
                     else tblSet(ss, blobByte(#3 p, 0), half(blobByte(#3 p, 0)));\n\
                     OnRemote(network, p); (ps + 1, ss))\n\
                    handle Div => (ps, ss))";
        let run = |engine| {
            let cfg = LayerConfig {
                engine,
                ..LayerConfig::default()
            };
            let (mut sim, handle, got) = triangle(src, cfg);
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(got.borrow().len(), 2);
            assert_eq!(sim.telemetry.profile.mismatches(), 0);
            let stats = format!("{:?}", handle.stats(&sim.telemetry));
            let counters = sim.metrics_snapshot().counters;
            (sim.telemetry.profile.to_json(), stats, counters)
        };
        let (jit, interp) = (run(Engine::Jit), run(Engine::Interp));
        assert_eq!(jit.0, interp.0, "profile");
        assert_eq!(jit.1, interp.1, "layer stats");
        assert_eq!(jit.2, interp.2, "metrics");
        assert!(jit.1.contains("matched: 5") && jit.1.contains("state_inserts: 2"));
        assert!(jit.1.contains("dropped: 3"));
        assert!(jit.0.contains("\"dispatches\":5"));
    }

    #[test]
    fn sends_on_user_channels_carry_the_interned_name() {
        let src = "channel mon(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(mon, p); (ps + 1, ss))";
        let (mut sim, _handle, got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        let got = got.borrow();
        assert_eq!(got.len(), 5);
        for p in got.iter() {
            let tag = p.tag.as_ref().expect("sent on a user channel");
            assert_eq!((&*tag.chan, tag.overload), ("mon", 0));
            assert_eq!(p.lineage.chan.as_ref(), Some(tag));
        }
    }

    /// Every bundled ASP that declares a channel other than `network`.
    fn bundled_with_user_channels() -> Vec<(String, LoadedProgram)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../asps");
        let mut paths: Vec<_> = [root.to_string(), format!("{root}/buggy")]
            .iter()
            .flat_map(|dir| std::fs::read_dir(dir).expect("the corpus directory"))
            .map(|entry| entry.expect("a directory entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "planp"))
            .collect();
        paths.sort();
        let images: Vec<_> = paths
            .iter()
            .map(|path| {
                let src = std::fs::read_to_string(path).expect("an ASP file");
                let image = load(&src, Policy::authenticated()).expect("a bundled ASP loads");
                (path.display().to_string(), image)
            })
            .filter(|(_, image)| image.prog.channels.iter().any(|ch| &*ch.name != "network"))
            .collect();
        assert!(
            images.len() >= 10,
            "{} ASPs with a user channel",
            images.len()
        );
        images
    }

    /// Components a channel of `shape` could send.
    fn parts_of(shape: &planp_lang::types::PacketShape) -> Vec<Value> {
        use netsim::packet::{IpHdr, TcpHdr, UdpHdr};
        use planp_lang::types::{TransportKind, Type};
        let (src, dst) = (addr(10, 0, 0, 1), addr(10, 0, 1, 1));
        let mut parts = match shape.transport {
            TransportKind::Tcp => vec![
                Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_TCP)),
                Value::Tcp(TcpHdr::data(4000, 80, 7)),
            ],
            TransportKind::Udp => vec![
                Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_UDP)),
                Value::Udp(UdpHdr::new(4000, 5556)),
            ],
            TransportKind::None => vec![Value::Ip(IpHdr::new(src, dst, 0))],
        };
        parts.extend(shape.payload.iter().map(|t| match t {
            Type::Int => Value::Int(-42),
            Type::Bool => Value::Bool(true),
            Type::Char => Value::Char('Q'),
            Type::Host => Value::Host(addr(10, 9, 9, 9)),
            Type::Str => Value::Str("PLAY 7".into()),
            Type::Blob => Value::Blob(Bytes::from_static(b"\x00\x01payload")),
            other => panic!("{other} is not a payload type"),
        }));
        parts
    }

    #[test]
    fn install_time_handles_tag_sends_like_a_record_built_per_send() {
        // What `outgoing` did before the handle existed: assemble
        // `{name, overload}` from the program at every send.
        let per_send = |ch: &planp_lang::tast::TChannel| {
            (&*ch.name != "network").then(|| ChannelTag::new(&*ch.name, ch.overload))
        };
        let mut tagged_sends = 0;
        for (path, image) in bundled_with_user_channels() {
            let mut telemetry = Telemetry::default();
            let layer = PlanpLayer::new(&image, LayerConfig::default(), 1, "n", &mut telemetry)
                .unwrap_or_else(|e| panic!("{path}: {e}"));
            let chans = image.prog.channels.iter().zip(&layer.shape.chans);
            for (idx, (ch, shape)) in chans.enumerate() {
                let parts = parts_of(&ch.shape);
                let built = |tag| {
                    let parts = Outgoing::Shared(&parts);
                    parts_to_packet(parts, tag, Lineage::default()).expect("a packet")
                };
                let (sent, fresh) = (built(shape.tag.clone()), built(per_send(ch)));
                assert_eq!(sent, fresh, "{path}: channel {}#{}", ch.name, ch.overload);
                assert_eq!(
                    format!("{:?}", sent.tag),
                    format!("{:?}", fresh.tag),
                    "{path}: the record reads the same"
                );
                // The lineage names the channel whether or not it tags.
                assert_eq!(
                    (&*shape.ident.chan, shape.ident.overload),
                    (&*ch.name, ch.overload)
                );
                if let Some(tag) = &sent.tag {
                    tagged_sends += 1;
                    // The handle is the image's name, not a copy of it.
                    assert!(Rc::ptr_eq(&tag.chan, &ch.name));
                    // Either packet reaches the overload it was sent to.
                    let at = |pkt: &Packet| {
                        let mut frame = layer.compiled.frame();
                        load_frame(&layer.shape.table, &mut frame, &mut pkt.clone())
                    };
                    assert_eq!(at(&sent), Some(idx), "{path}");
                    assert_eq!(at(&fresh), Some(idx), "{path}");
                }
            }
        }
        assert!(
            tagged_sends >= 10,
            "{tagged_sends} tagged channels in the corpus"
        );
    }

    #[test]
    fn span_starts_name_the_channel_as_before_the_handle() {
        // The `span_start` lines of five datagrams a router re-sends on
        // `mon`, as the parent commit (34ab9c1) wrote them:
        // `lineage.chan` is now a handle, the event still carries the
        // name.
        let src = "channel mon(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(mon, p); (ps + 1, ss))";
        let (mut sim, _handle, got) = triangle(src, LayerConfig::default());
        sim.telemetry.trace.configure(planp_telemetry::TraceConfig {
            categories: planp_telemetry::Category::SPAN,
            ..Default::default()
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 5);
        let mut want = String::new();
        for pkt in 1..=5 {
            want.push_str(&format!(
                "{{\"type\":\"span_start\",\"t_ns\":0,\"node\":0,\"pkt\":{pkt},\"trace\":{pkt},\
                 \"parent\":0,\"origin\":\"ingress\",\"chan\":null}}\n"
            ));
        }
        for (pkt, t_ns) in (1..=5).zip([184_800, 269_600, 354_400, 439_200, 524_000]) {
            want.push_str(&format!(
                "{{\"type\":\"span_start\",\"t_ns\":{t_ns},\"node\":1,\"pkt\":{},\"trace\":{pkt},\
                 \"parent\":{pkt},\"origin\":\"remote\",\"chan\":\"mon\"}}\n",
                pkt + 5
            ));
        }
        assert_eq!(sim.telemetry.trace.to_jsonl(), want);
    }

    #[test]
    fn state_bounds_recorded_and_never_exceeded() {
        // Per-source pin with periodic clear: packet-keyed but evicting,
        // so the verifier proves a finite entry bound (the mkTable(8)
        // capacity) that the live telemetry is checked against.
        let src = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                   initstate mkTable(8) is\n\
                   (tblSet(ss, ipSrc(#1 p), 1);\n\
                    (if tblSize(ss) > 4 then tblClear(ss) else ());\n\
                    OnRemote(network, p); (ps + 1, ss))";
        let (mut sim, handle, _got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        let st = handle.stats(&sim.telemetry);
        // One source, five packets: the first insert is fresh, the rest
        // overwrite the same key.
        assert_eq!(st.state_inserts, 1);
        assert_eq!(st.state_bound_exceeded, 0, "state analysis is sound");
        let snap = sim.telemetry.metrics.snapshot();
        assert_eq!(snap.counters["node.r.chan.network.static_state_bound"], 1);
        assert_eq!(snap.counters["node.r.chan.network.state_inserts"], 1);
        assert_eq!(snap.counters["node.r.planp.state_entries"], 1);
        assert_eq!(snap.counters["node.r.planp.static_state_entries"], 8);
        assert!(!snap
            .counters
            .contains_key("node.r.chan.network.state_bound_exceeded"));
    }

    #[test]
    fn a_planted_table_entry_moves_the_state_digest() {
        // The layer feeds its channel states into `Sim::state_digest`,
        // tables entry by entry: one entry more moves the digest, and
        // taking it out again moves it back, whatever the map's order.
        let src = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                   initstate mkTable(8) is\n\
                   (tblSet(ss, ipSrc(#1 p), ps); OnRemote(network, p); (ps + 1, ss))";
        let image = load(src, Policy::no_delivery()).expect("program loads");
        let run = || {
            let mut sim = Sim::new(3);
            let a = sim.add_host("a", addr(10, 0, 0, 1));
            let r = sim.add_router("r", addr(10, 0, 0, 254));
            let b = sim.add_host("b", addr(10, 0, 1, 1));
            sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
            sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
            sim.compute_routes();
            let layer = PlanpLayer::new(&image, LayerConfig::default(), 0, "r", &mut sim.telemetry)
                .expect("layer installs");
            let Value::Table(table) = layer.chan_states[0].clone() else {
                panic!("the channel state is a table")
            };
            sim.install_hook(r, Box::new(layer));
            let dst = addr(10, 0, 1, 1);
            sim.add_app(a, Box::new(Blast { dst, n: 5 }));
            sim.run_until(SimTime::from_secs(1));
            (sim, table)
        };
        let (sim, table) = run();
        let before = sim.state_digest();
        assert_eq!(table.borrow().len(), 1, "one source, one entry");
        assert_eq!(run().0.state_digest(), before, "two runs agree");
        let planted = planp_vm::value::Key::of(&Value::Host(addr(10, 0, 9, 9)));
        table.borrow_mut().insert(planted.clone(), Value::Int(0));
        assert_ne!(sim.state_digest(), before, "a planted entry");
        table.borrow_mut().remove(&planted);
        assert_eq!(sim.state_digest(), before, "and taken out again");
        let (only, _) = table.borrow().entries().swap_remove(0);
        table.borrow_mut().insert(only, Value::Int(7));
        assert_ne!(sim.state_digest(), before, "an entry's value changed");
    }

    #[test]
    fn interp_engine_behaves_identically() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps + 1, ss))";
        let cfg = LayerConfig {
            engine: Engine::Interp,
            ..LayerConfig::default()
        };
        let (mut sim, handle, got) = triangle(src, cfg);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 5);
        assert_eq!(handle.stats(&sim.telemetry).matched, 5);
    }

    #[test]
    fn set_timer_dispatches_synthetic_timer_channel() {
        // Every data packet arms a timer; when it fires, the `timer`
        // channel receives a synthetic self-addressed packet whose
        // payload carries the key as an 8-byte integer.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (setTimer(50, 40 + ps); OnRemote(network, p); (ps + 1, ss))\n\
                   channel timer(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (println(blobInt(#3 p, 0)); (ps, ss))";
        let (mut sim, handle, got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 5, "data traffic still forwarded");
        assert_eq!(&*handle.output.borrow(), "40\n41\n42\n43\n44\n");
        // Timer dispatches count as matched channel runs.
        assert_eq!(handle.stats(&sim.telemetry).matched, 10);
        assert_eq!(handle.stats(&sim.telemetry).errors, 0);
    }

    #[test]
    fn timer_wake_ups_bypass_admission() {
        // The reliable relay's receiver re-NACKs a gap from its timer
        // until the gap closes. A wake-up's payload is its key, whose
        // first byte would read as priority class 0: admitted like
        // traffic, brownout level 1 sheds it and the timer stops for
        // good. The data is sent as class 1 (its sequence numbers' top
        // byte), so the level admits it.
        struct Gap {
            dst: u32,
            nacks: Rc<RefCell<u64>>,
        }
        impl netsim::App for Gap {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let base = 1i64 << 56;
                for seq in [base, base + 2] {
                    let payload = Bytes::copy_from_slice(&seq.to_be_bytes());
                    api.send(Packet::udp(api.addr(), self.dst, 5555, 5555, payload));
                }
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
                if pkt.udp_hdr().is_some_and(|u| u.dport == 5556) {
                    *self.nacks.borrow_mut() += 1;
                }
            }
        }
        let src = include_str!("../../../asps/reliable_relay.planp");
        let image = load(src, Policy::authenticated()).expect("program loads");
        for engine in [Engine::Jit, Engine::Interp] {
            let mut sim = Sim::new(3);
            let a = sim.add_host("a", addr(10, 0, 0, 1));
            let b = sim.add_host("b", addr(10, 0, 0, 2));
            sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
            sim.compute_routes();
            let config = LayerConfig {
                engine,
                admission: true,
                ..LayerConfig::default()
            };
            let handle = install_planp(&mut sim, b, &image, config).expect("install");
            sim.telemetry.overload.brownout_level = 1;
            let nacks = Rc::new(RefCell::new(0));
            let dst = addr(10, 0, 0, 2);
            let gap = Gap {
                dst,
                nacks: nacks.clone(),
            };
            sim.add_app(a, Box::new(gap));
            sim.run_until(SimTime::from_secs(1));
            let st = handle.stats(&sim.telemetry);
            assert_eq!(st.shed, 0, "{engine:?}");
            // The sequence numbers start far above the expected 0, so
            // each data packet NACKs the gap and arms a timer that then
            // re-NACKs every 20 ms, all second long.
            let ticks = sim.telemetry.metrics.counter("node.b.chan.timer.dispatch");
            assert!(ticks >= 90, "{engine:?}: {ticks} timer dispatches");
            assert!(*nacks.borrow() >= ticks, "{engine:?}: {nacks:?} NACKs");
        }
    }

    #[test]
    fn timer_without_timer_channel_is_ignored() {
        // setTimer in a program with no `timer` channel: the wake-up is
        // discarded without error or fallback traffic.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (setTimer(10, 1); OnRemote(network, p); (ps, ss))";
        let (mut sim, handle, got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 5);
        assert_eq!(handle.stats(&sim.telemetry).matched, 5);
        assert_eq!(handle.stats(&sim.telemetry).passed, 0);
        assert_eq!(handle.stats(&sim.telemetry).errors, 0);
    }

    #[test]
    fn asp_filter_drops_matching_packets() {
        // Drop everything with an odd first payload byte.
        let src = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                   if blobByte(#3 p, 0) mod 2 = 0 then\n\
                     (OnRemote(network, p); (ps, ss))\n\
                   else (ps, ss)";
        let (mut sim, _handle, got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        // Bytes 0..5 → 0, 2, 4 pass.
        assert_eq!(got.borrow().len(), 3);
    }

    #[test]
    fn state_accumulates_across_packets() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (println(ps); OnRemote(network, p); (ps + 1, ss))";
        let (mut sim, handle, _got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(&*handle.output.borrow(), "0\n1\n2\n3\n4\n");
    }

    #[test]
    fn non_matching_traffic_passes_through() {
        // Program only handles TCP; UDP traffic uses standard forwarding.
        let src = "channel network(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))";
        let (mut sim, handle, got) = triangle(src, LayerConfig::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 5, "UDP forwarded by plain IP");
        assert_eq!(handle.stats(&sim.telemetry).matched, 0);
        assert_eq!(handle.stats(&sim.telemetry).passed, 5);
    }

    #[test]
    fn runtime_error_fails_open() {
        // Uncaught Div on every packet: layer must pass packets through.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps div 0, ss))";
        let image = load(src, Policy::authenticated()).unwrap();
        let mut sim = Sim::new(3);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let handle = install_planp(&mut sim, r, &image, LayerConfig::default()).unwrap();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Blast {
                dst: addr(10, 0, 1, 1),
                n: 2,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(handle.stats(&sim.telemetry).errors, 2);
        assert_eq!(got.borrow().len(), 2, "fail-open forwarding");
    }

    #[test]
    fn a_run_that_raises_before_it_sends_is_passed_through() {
        // Odd payload bytes divide by zero before the send: those runs
        // fail with nothing emitted, so their packets fall back to
        // standard forwarding — and are counted where every fallback
        // is, in `planp.fallback_ip`, which is what `passed` reads. The
        // bytecode engine moved each payload into its registers; what
        // falls back must still be the packet that arrived, whole: the
        // same bytes, id and lineage as plain IP forwarding delivers,
        // also when the channel kept the payload in a table first.
        // What plain IP forwarding delivers of the odd payloads.
        let plain: Vec<String> = {
            let mut sim = Sim::new(3);
            let a = sim.add_host("a", addr(10, 0, 0, 1));
            let r = sim.add_router("r", addr(10, 0, 0, 254));
            let b = sim.add_host("b", addr(10, 0, 1, 1));
            sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
            sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
            sim.compute_routes();
            let got = Rc::new(RefCell::new(Vec::new()));
            sim.add_app(b, Box::new(Sink { got: got.clone() }));
            let dst = addr(10, 0, 1, 1);
            sim.add_app(a, Box::new(Blast { dst, n: 5 }));
            sim.run_until(SimTime::from_secs(1));
            let got = got.borrow();
            let odd = got.iter().filter(|p| p.payload[0] % 2 == 1);
            odd.map(|p| format!("{p:?}")).collect()
        };
        for (src, kept) in [
            (
                "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                 let val k : int = 1 div (1 - blobByte(#3 p, 0) mod 2) in\n\
                   (OnRemote(network, p); (ps + k, ss))\n\
                 end",
                false,
            ),
            (
                "channel network(ps : int, ss : (int, blob) hash_table, p : ip*udp*blob)\n\
                 initstate mkTable(8) is\n\
                 (tblSet(ss, blobByte(#3 p, 0), #3 p);\n\
                  let val k : int = 1 div (1 - blobByte(#3 p, 0) mod 2) in\n\
                    (OnRemote(network, p); (ps + k, ss))\n\
                  end)",
                true,
            ),
        ] {
            for engine in [Engine::Jit, Engine::Interp] {
                let config = LayerConfig {
                    engine,
                    ..LayerConfig::default()
                };
                let image = load(src, Policy::no_delivery()).expect("program loads");
                let mut sim = Sim::new(3);
                let a = sim.add_host("a", addr(10, 0, 0, 1));
                let r = sim.add_router("r", addr(10, 0, 0, 254));
                let b = sim.add_host("b", addr(10, 0, 1, 1));
                sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
                sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
                sim.compute_routes();
                let layer = PlanpLayer::new(&image, config, 0, "r", &mut sim.telemetry)
                    .expect("layer installs");
                let (table, handle) = (layer.chan_states[0].clone(), layer.handle());
                sim.install_hook(r, Box::new(layer));
                let got = Rc::new(RefCell::new(Vec::new()));
                sim.add_app(b, Box::new(Sink { got: got.clone() }));
                let dst = addr(10, 0, 1, 1);
                sim.add_app(a, Box::new(Blast { dst, n: 5 }));
                sim.run_until(SimTime::from_secs(1));

                let what = format!("{engine:?}, table: {kept}");
                let got = got.borrow();
                assert_eq!(got.len(), 5, "{what}: payloads 1 and 3 fail open");
                let st = handle.stats(&sim.telemetry);
                assert_eq!((st.matched, st.errors, st.passed), (5, 2, 2), "{what}");
                let fallback = sim.telemetry.metrics.counter("node.r.planp.fallback_ip");
                assert_eq!(st.passed, fallback, "{what}");
                let fell = got.iter().filter(|p| p.payload[0] % 2 == 1);
                let fell: Vec<String> = fell.map(|p| format!("{p:?}")).collect();
                assert_eq!(fell, plain, "{what}: whole, as IP forwards it");
                for p in got.iter() {
                    assert_eq!(&p.payload[..], &[p.payload[0]; 64][..], "{what}");
                }
                if let (true, Value::Table(table)) = (kept, table) {
                    // The table kept every payload it was given, whole,
                    // the fallen-back ones included.
                    let table = table.borrow();
                    assert_eq!(table.len(), 5, "{what}");
                    for i in 0..5u8 {
                        let key = planp_vm::value::Key::of(&Value::Int(i64::from(i)));
                        let Some(Value::Blob(bytes)) = table.get(&key) else {
                            panic!("{what}: entry {i}")
                        };
                        assert_eq!(&bytes[..], &[i; 64][..], "{what}: entry {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn send_suppressed_by_the_ttl_backstop_is_a_recorded_drop() {
        use planp_telemetry::{TraceConfig, TraceEvent};
        // a — r1 — r2 — b, the forwarder on both relays. A datagram
        // whose TTL has already run out reaches r1 (a neighbor send
        // checks no TTL): its `OnRemote` is suppressed, and the packet
        // must end there as one counted, traced `TtlExpired` drop —
        // as it would under standard forwarding — on either engine.
        struct Spent {
            via: u32,
            dst: u32,
        }
        impl netsim::App for Spent {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let mut pkt = Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from_static(b"x"));
                pkt.ip.ttl = 0;
                api.send_to_neighbor(self.via, pkt);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        }
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps + 1, ss))";
        let image = load(src, Policy::no_delivery()).expect("program loads");
        for engine in [Engine::Jit, Engine::Interp] {
            let mut sim = Sim::new(3);
            sim.telemetry.trace.configure(TraceConfig::all());
            let a = sim.add_host("a", addr(10, 0, 0, 1));
            let r1 = sim.add_router("r1", addr(10, 0, 0, 254));
            let r2 = sim.add_router("r2", addr(10, 0, 1, 254));
            let b = sim.add_host("b", addr(10, 0, 2, 1));
            sim.add_link(LinkSpec::ethernet_10(), &[a, r1]);
            sim.add_link(LinkSpec::ethernet_10(), &[r1, r2]);
            sim.add_link(LinkSpec::ethernet_10(), &[r2, b]);
            sim.compute_routes();
            let cfg = LayerConfig {
                engine,
                ..LayerConfig::default()
            };
            let h1 = install_planp(&mut sim, r1, &image, cfg).expect("install");
            let h2 = install_planp(&mut sim, r2, &image, cfg).expect("install");
            let got = Rc::new(RefCell::new(Vec::new()));
            sim.add_app(b, Box::new(Sink { got: got.clone() }));
            let (via, dst) = (addr(10, 0, 0, 254), addr(10, 0, 2, 1));
            sim.add_app(a, Box::new(Spent { via, dst }));
            sim.run_until(SimTime::from_secs(1));

            assert!(got.borrow().is_empty(), "{engine:?}: nothing arrives");
            assert_eq!(
                h1.stats(&sim.telemetry).matched,
                1,
                "{engine:?}: r1 ran the channel"
            );
            assert_eq!(
                h2.stats(&sim.telemetry).matched,
                0,
                "{engine:?}: r2 saw nothing"
            );
            let drops: Vec<_> = sim
                .telemetry
                .trace
                .events()
                .filter_map(|e| match e {
                    TraceEvent::NodeDrop { node, reason, .. } => Some((*node, *reason)),
                    _ => None,
                })
                .collect();
            assert_eq!(drops, [(r1.0 as u32, DropReason::TtlExpired)], "{engine:?}");
            assert_eq!(sim.node(r1).dropped, 1, "{engine:?}");
            let counted: u64 = sim.nodes().map(|n| n.dropped + n.cpu_drops + n.shed).sum();
            assert_eq!((sim.total_node_drops, counted), (1, 1), "{engine:?}");
        }
    }

    #[test]
    fn tagged_packet_for_unknown_channel_passes_through() {
        // A packet tagged for a channel this node's program does not
        // define uses standard IP processing (tags are opaque elsewhere).
        let src = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)";
        let image = load(src, Policy::authenticated()).unwrap();
        let mut sim = Sim::new(3);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let handle = install_planp(&mut sim, r, &image, LayerConfig::default()).unwrap();
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Sink { got: got.clone() }));

        struct Tagged {
            dst: u32,
        }
        impl netsim::App for Tagged {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let mut pkt = Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from_static(b"x"));
                pkt.tag = Some(netsim::packet::ChannelTag::new("elsewhere", 0));
                api.send(pkt);
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        }
        sim.add_app(
            a,
            Box::new(Tagged {
                dst: addr(10, 0, 1, 1),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().len(), 1, "tagged packet forwarded normally");
        assert_eq!(handle.stats(&sim.telemetry).matched, 0);
        assert_eq!(handle.stats(&sim.telemetry).passed, 1);
    }

    #[test]
    fn overloaded_channels_dispatch_by_payload() {
        // Figure 4: one overload prints ints, the other bools.
        let src = r#"
val CmdA : int = 65
channel network(ps : unit, ss : unit, p : ip*udp*char*int) is
  (print("int:"); print(#4 p); OnRemote(network, p); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*char*bool) is
  (print("bool:"); print(#4 p); OnRemote(network, p); (ps, ss))
"#;
        struct Two {
            dst: u32,
        }
        impl netsim::App for Two {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                // char + 8-byte int
                let mut p1 = vec![b'A'];
                p1.extend_from_slice(&7i64.to_be_bytes());
                api.send(Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from(p1)));
                // char + bool
                let p2 = vec![b'B', 1u8];
                api.send(Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from(p2)));
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        }
        let image = load(src, Policy::no_delivery()).unwrap();
        let mut counters = Vec::new();
        for engine in [Engine::Jit, Engine::Interp] {
            let mut sim = Sim::new(3);
            let a = sim.add_host("a", addr(10, 0, 0, 1));
            let r = sim.add_router("r", addr(10, 0, 0, 254));
            let b = sim.add_host("b", addr(10, 0, 1, 1));
            sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
            sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
            sim.compute_routes();
            let config = LayerConfig {
                engine,
                ..LayerConfig::default()
            };
            let handle = install_planp(&mut sim, r, &image, config).unwrap();
            let got = Rc::new(RefCell::new(Vec::new()));
            sim.add_app(b, Box::new(Sink { got: got.clone() }));
            let dst = addr(10, 0, 1, 1);
            sim.add_app(a, Box::new(Two { dst }));
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(&*handle.output.borrow(), "int:7bool:true", "{engine:?}");
            assert_eq!(got.borrow().len(), 2, "{engine:?}");
            assert_eq!(handle.stats(&sim.telemetry).matched, 2, "{engine:?}");
            counters.push(sim.metrics_snapshot().counters);
        }
        assert_eq!(counters[0], counters[1], "both engines count alike");
    }

    #[test]
    fn gateway_rewrites_connections() {
        // Minimal load-balancer shape: TCP to port 80 alternates between
        // two servers by connection (keyed on client ip*port).
        let src = r#"
val srv0 : host = 10.0.1.1
val srv1 : host = 10.0.2.1

channel network(ps : int, ss : ((host*int), host) hash_table, p : ip*tcp*blob)
initstate mkTable(64) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
  in
    if tcpDst(tcph) = 80 then
      if tblHas(ss, (ipSrc(iph), tcpSrc(tcph))) then
        let val chosen : host = tblGet(ss, (ipSrc(iph), tcpSrc(tcph))) handle NotFound => srv0 in
          (OnRemote(network, (ipDestSet(iph, chosen), tcph, #3 p)); (ps, ss))
        end
      else
        -- new connection: assign by modulo on the connection count
        let val c : host = if ps mod 2 = 0 then srv0 else srv1 in
          (tblSet(ss, (ipSrc(iph), tcpSrc(tcph)), c);
           OnRemote(network, (ipDestSet(iph, c), tcph, #3 p));
           (ps + 1, ss))
        end
    else
      (OnRemote(network, p); (ps, ss))
  end
"#;
        // A destination-rewriting gateway cannot be *proved* to terminate
        // by the conservative analysis (the rewritten packet could match
        // the channel again) — exactly the class of legitimate protocols
        // the paper downloads with authentication (section 2.1).
        let image = load(src, Policy::authenticated()).unwrap();
        assert!(!image.report.termination.is_proved());

        let mut sim = Sim::new(9);
        let client = sim.add_host("client", addr(10, 0, 0, 1));
        let gw = sim.add_router("gw", addr(10, 0, 0, 254));
        let s0 = sim.add_host("s0", addr(10, 0, 1, 1));
        let s1 = sim.add_host("s1", addr(10, 0, 2, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[client, gw]);
        sim.add_link(LinkSpec::ethernet_100(), &[gw, s0]);
        sim.add_link(LinkSpec::ethernet_100(), &[gw, s1]);
        sim.compute_routes();
        // Virtual address routed toward the gateway.
        let virt = addr(10, 9, 9, 9);
        sim.add_route(client, virt, gw);
        install_planp(&mut sim, gw, &image, LayerConfig::default()).unwrap();

        let got0 = Rc::new(RefCell::new(Vec::new()));
        let got1 = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(s0, Box::new(Sink { got: got0.clone() }));
        sim.add_app(s1, Box::new(Sink { got: got1.clone() }));

        struct Conns {
            virt: u32,
        }
        impl netsim::App for Conns {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                for port in 0..4u16 {
                    let hdr = netsim::packet::TcpHdr::data(5000 + port, 80, 1);
                    let pkt = Packet::tcp(api.addr(), self.virt, hdr, Bytes::from_static(b"GET /"));
                    api.send(pkt);
                    // Second packet on the same connection must follow it.
                    let hdr2 = netsim::packet::TcpHdr::data(5000 + port, 80, 6);
                    api.send(Packet::tcp(
                        api.addr(),
                        self.virt,
                        hdr2,
                        Bytes::from_static(b"more!"),
                    ));
                }
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        }
        sim.add_app(client, Box::new(Conns { virt }));
        sim.run_until(SimTime::from_secs(1));

        // 4 connections × 2 packets, alternating servers per connection.
        assert_eq!(got0.borrow().len(), 4);
        assert_eq!(got1.borrow().len(), 4);
        // Both packets of one connection landed on the same server.
        let ports0: Vec<u16> = got0
            .borrow()
            .iter()
            .map(|p| p.tcp_hdr().unwrap().sport)
            .collect();
        assert_eq!(ports0[0], ports0[1]);
    }
}
