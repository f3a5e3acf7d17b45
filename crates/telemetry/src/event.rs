//! Structured trace events and the bounded, deterministic event log.
//!
//! Events cover every observable action along the packet path. Hot-path
//! discipline: the simulator guards each emission with
//! [`TraceLog::wants`], so when a category is disabled no event value is
//! ever constructed — tracing off costs one branch per site.

use crate::json::{push_key, push_str, push_u64, Seq};
use crate::ring::Ring;
use std::fmt;
use std::rc::Rc;

/// A set of trace-event categories (bit flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Category(pub u16);

impl Category {
    /// No categories.
    pub const NONE: Category = Category(0);
    /// Link-level transmission events (enqueue, tx-complete).
    pub const LINK: Category = Category(1 << 0);
    /// Hop-by-hop forwarding decisions at routers.
    pub const HOP: Category = Category(1 << 1);
    /// Local deliveries to applications.
    pub const DELIVER: Category = Category(1 << 2);
    /// Packet drops, at links or nodes.
    pub const DROP: Category = Category(1 << 3);
    /// PLAN-P channel dispatch outcomes.
    pub const DISPATCH: Category = Category(1 << 4);
    /// Uncaught ASP exceptions (fail-open to IP).
    pub const EXCEPTION: Category = Category(1 << 5);
    /// Application timer fires.
    pub const TIMER: Category = Category(1 << 6);
    /// Causal span starts (packet lineage: trace/parent ids).
    pub const SPAN: Category = Category(1 << 7);
    /// Per-dispatch VM execution (channel name + charged steps).
    pub const VM: Category = Category(1 << 8);
    /// Injected faults (loss, corruption, flaps, partitions, crashes).
    pub const FAULT: Category = Category(1 << 9);
    /// SLO health-monitor rule evaluations.
    pub const HEALTH: Category = Category(1 << 10);
    /// Telemetry self-accounting (sampler downgrades).
    pub const META: Category = Category(1 << 11);
    /// Every category.
    pub const ALL: Category = Category(0xfff);

    /// Union of two sets.
    pub const fn union(self, other: Category) -> Category {
        Category(self.0 | other.0)
    }

    /// True if `self` includes every bit of `other`.
    pub const fn contains(self, other: Category) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no category is enabled.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The canonical (name, flag) table, used by parsers and help text.
    pub const NAMES: [(&'static str, Category); 12] = [
        ("link", Category::LINK),
        ("hop", Category::HOP),
        ("deliver", Category::DELIVER),
        ("drop", Category::DROP),
        ("dispatch", Category::DISPATCH),
        ("exception", Category::EXCEPTION),
        ("timer", Category::TIMER),
        ("span", Category::SPAN),
        ("vm", Category::VM),
        ("fault", Category::FAULT),
        ("health", Category::HEALTH),
        ("meta", Category::META),
    ];

    /// Parses a single category name.
    fn from_name(name: &str) -> Option<Category> {
        match name {
            "all" => return Some(Category::ALL),
            "none" => return Some(Category::NONE),
            _ => {}
        }
        Category::NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c)
    }

    /// Parses a comma-separated list, e.g. `"link,drop,dispatch"`.
    pub fn from_list(list: &str) -> Result<Category, String> {
        let mut cats = Category::NONE;
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match Category::from_name(part) {
                Some(c) => cats = cats.union(c),
                None => {
                    return Err(format!(
                        "unknown trace category {part:?} (known: all, none, {})",
                        Category::NAMES.map(|(n, _)| n).join(", ")
                    ))
                }
            }
        }
        Ok(cats)
    }
}

/// Why a node (not a link queue) dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The node is administratively down.
    NodeDown,
    /// The per-node CPU queue overflowed.
    CpuOverflow,
    /// TTL reached zero while forwarding.
    TtlExpired,
    /// No route toward the destination.
    NoRoute,
    /// Arrived at a host it was not addressed to (and was not overheard).
    NotAddressed,
    /// Lost to injected Bernoulli link loss (fault plan).
    FaultLoss,
    /// The carrying link was administratively down (fault plan flap).
    LinkFaultDown,
    /// Sender and receiver are in different partition groups.
    Partitioned,
    /// Deliberately shed by admission control, a brownout level, or a
    /// bounded-load gateway — a *decision*, kept separate from the tail
    /// drops that happen when queues silently overflow.
    Shed,
    /// The packet's lineage deadline had already passed at ingress, so
    /// it was dropped before burning further hops or CPU.
    DeadlineExpired,
    /// A packet program handled the packet, but every send or delivery
    /// it made built nothing: the headers or payload it named have no
    /// wire form (a string longer than its length prefix can say, a
    /// tuple without headers).
    NoWireForm,
}

impl DropReason {
    /// All reasons, in [`DropReason::index`] order. New reasons are
    /// appended so existing flight-recorder detail codes stay stable.
    pub const ALL: [DropReason; 11] = [
        DropReason::NodeDown,
        DropReason::CpuOverflow,
        DropReason::TtlExpired,
        DropReason::NoRoute,
        DropReason::NotAddressed,
        DropReason::FaultLoss,
        DropReason::LinkFaultDown,
        DropReason::Partitioned,
        DropReason::Shed,
        DropReason::DeadlineExpired,
        DropReason::NoWireForm,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::NodeDown => "node_down",
            DropReason::CpuOverflow => "cpu_overflow",
            DropReason::TtlExpired => "ttl_expired",
            DropReason::NoRoute => "no_route",
            DropReason::NotAddressed => "not_addressed",
            DropReason::FaultLoss => "fault_loss",
            DropReason::LinkFaultDown => "link_fault_down",
            DropReason::Partitioned => "partitioned",
            DropReason::Shed => "shed",
            DropReason::DeadlineExpired => "deadline_expired",
            DropReason::NoWireForm => "no_wire_form",
        }
    }

    /// Stable small integer, used as the flight-recorder detail code.
    pub fn index(self) -> u32 {
        DropReason::ALL.iter().position(|r| *r == self).unwrap() as u32
    }

    /// Inverse of [`DropReason::index`].
    pub(crate) fn from_index(i: u32) -> Option<DropReason> {
        DropReason::ALL.get(i as usize).copied()
    }
}

/// A circuit breaker's position in the closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: traffic flows normally.
    #[default]
    Closed,
    /// Tripped: all traffic is diverted; only the probe schedule may
    /// touch the backend.
    Open,
    /// Probing: a deterministic trickle tests whether the backend
    /// recovered.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// The outcome of offering a packet to the PLAN-P layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// A channel ran and re-emitted (forward/deliver) the packet.
    Matched,
    /// A channel ran to completion but emitted nothing: the packet was
    /// consumed (counted as a PLAN-P drop).
    Consumed,
    /// A channel raised an uncaught exception; the packet fell back to
    /// plain IP forwarding (fail-open).
    Error,
    /// No channel matched; the packet passed to plain IP.
    NoMatch,
    /// Management traffic bypassed the layer.
    Bypass,
}

impl DispatchOutcome {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            DispatchOutcome::Matched => "matched",
            DispatchOutcome::Consumed => "consumed",
            DispatchOutcome::Error => "error",
            DispatchOutcome::NoMatch => "no_match",
            DispatchOutcome::Bypass => "bypass",
        }
    }
}

/// How a packet (= one causal span) came into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanOrigin {
    /// Injected by an application — the root of a trace.
    #[default]
    Ingress,
    /// Re-emitted by an ASP's `OnRemote`.
    Remote,
    /// Re-emitted by an ASP's `OnNeighbor`.
    Neighbor,
    /// Handed to the local application by an ASP's `deliver`.
    Deliver,
}

impl SpanOrigin {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanOrigin::Ingress => "ingress",
            SpanOrigin::Remote => "remote",
            SpanOrigin::Neighbor => "neighbor",
            SpanOrigin::Deliver => "deliver",
        }
    }
}

/// One structured trace event. Times are simulation nanoseconds; `node`
/// and `link` are simulator indices; `pkt` is the monotonically assigned
/// packet id (0 = never entered the simulator's send path).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A packet entered a link queue (`qlen` = depth after enqueue).
    LinkEnqueue {
        t_ns: u64,
        link: u32,
        from: u32,
        pkt: u64,
        bytes: u32,
        qlen: u32,
    },
    /// A packet finished transmitting on a link.
    LinkTx {
        t_ns: u64,
        link: u32,
        from: u32,
        pkt: u64,
        bytes: u32,
    },
    /// A link queue overflowed and dropped the packet.
    LinkDrop {
        t_ns: u64,
        link: u32,
        from: u32,
        pkt: u64,
    },
    /// A node chose an outgoing link for the packet (`ttl` = value after
    /// decrement).
    Forward {
        t_ns: u64,
        node: u32,
        pkt: u64,
        link: u32,
        ttl: u8,
    },
    /// A node delivered the packet to local application `app`.
    Deliver {
        t_ns: u64,
        node: u32,
        pkt: u64,
        app: u32,
    },
    /// A node dropped the packet.
    NodeDrop {
        t_ns: u64,
        node: u32,
        pkt: u64,
        reason: DropReason,
    },
    /// The PLAN-P layer dispatched (or declined) the packet.
    Dispatch {
        t_ns: u64,
        node: u32,
        pkt: u64,
        /// Matched channel name, if any.
        chan: Option<Rc<str>>,
        outcome: DispatchOutcome,
    },
    /// An ASP raised an uncaught exception (fail-open path).
    Exception {
        t_ns: u64,
        node: u32,
        pkt: u64,
        chan: Rc<str>,
        exn: Rc<str>,
    },
    /// An application timer fired.
    TimerFire {
        t_ns: u64,
        node: u32,
        app: u32,
        key: u64,
    },
    /// A packet identity entered the send path for the first time: the
    /// start of span `pkt` inside trace `trace` (`parent` = 0 for the
    /// root span; `chan` = channel the creating ASP sent it on).
    SpanStart {
        t_ns: u64,
        node: u32,
        pkt: u64,
        trace: u64,
        parent: u64,
        origin: SpanOrigin,
        chan: Option<Rc<str>>,
    },
    /// A channel body ran for the packet, charging `steps` VM steps
    /// (per-span VM cost attribution).
    VmRun {
        t_ns: u64,
        node: u32,
        pkt: u64,
        chan: Rc<str>,
        steps: u64,
    },
    /// A scheduled fault fired (loss, corruption, duplication, jitter,
    /// flap, partition, crash, restart). `node`/`link` identify the
    /// afflicted element when the fault targets one; `pkt` is the
    /// affected packet for per-packet faults (0 for plan-level events).
    Fault {
        t_ns: u64,
        kind: Rc<str>,
        node: Option<u32>,
        link: Option<u32>,
        pkt: u64,
    },
    /// The sampler stepped its rate down (1/`from_n` → 1/`to_n`)
    /// because the kept-event budget was crossed at `kept` events.
    SampleDowngrade {
        t_ns: u64,
        from_n: u32,
        to_n: u32,
        kept: u64,
    },
    /// A health-monitor rule was evaluated over the window ending at
    /// `t_ns`. `value`/`threshold` share the rule's unit (ppm for
    /// ratios, raw deltas or nanoseconds otherwise).
    Health {
        t_ns: u64,
        rule: Rc<str>,
        ok: bool,
        value: u64,
        threshold: u64,
    },
    /// The brownout controller stepped its degradation level, either up
    /// on a rule breach (`rule` = the breaching rule) or down after the
    /// hysteretic clean streak (`rule` = `"recovered"`).
    Brownout {
        t_ns: u64,
        from_level: u32,
        to_level: u32,
        rule: Rc<str>,
    },
    /// A per-backend circuit breaker at `node` changed state.
    Breaker {
        t_ns: u64,
        node: u32,
        backend: Rc<str>,
        from: BreakerState,
        to: BreakerState,
    },
}

/// One field of an event, as [`TraceEvent::describe`] hands it to a
/// reader.
enum Val<'a> {
    /// An unsigned number.
    Num(u64),
    /// The id of the packet the event concerns.
    Pkt(u64),
    /// A packet id where 0 says the event concerns no packet.
    PktOrNone(u64),
    /// A number, or `null`.
    OptNum(Option<u64>),
    /// `true` or `false`.
    Flag(bool),
    /// One of a fixed set of names: the wire tag, an enum's `name()`.
    Name(&'static str),
    /// A free string: escaped on the wire, its length counted by
    /// [`TraceEvent::est_bytes`].
    Text(&'a str),
    /// A free string, or `null` (counted as its 4 bytes).
    OptText(Option<&'a str>),
}

/// The one table of events: a row per variant with its wire tag, the
/// fixed part of [`TraceEvent::est_bytes`], and every field in
/// declaration order with the kind of value it holds (`time` is the
/// event's `t_ns`, `pkt` the packet it concerns). `event_table!(m!(a))`
/// expands to `m! { a; rows }`: [`TraceEvent::describe`] reads the rows,
/// and so do the ring's encoder and decoder (`ring.rs`), so a new event
/// is a variant, a row here, an arm of `Display`, and its place in
/// `category` and `t_ns`.
macro_rules! event_table {
    ($m:ident!($($args:tt)*)) => {
        $m! { $($args)*;
            LinkEnqueue "link_enqueue" 88 { t_ns: time, link: num, from: num, pkt: pkt, bytes: num, qlen: num }
            LinkTx "link_tx" 72 { t_ns: time, link: num, from: num, pkt: pkt, bytes: num }
            LinkDrop "link_drop" 60 { t_ns: time, link: num, from: num, pkt: pkt }
            Forward "forward" 70 { t_ns: time, node: num, pkt: pkt, link: num, ttl: num }
            Deliver "deliver" 62 { t_ns: time, node: num, pkt: pkt, app: num }
            NodeDrop "node_drop" 76 { t_ns: time, node: num, pkt: pkt, reason: name }
            Dispatch "dispatch" 84 { t_ns: time, node: num, pkt: pkt, chan: opt_text, outcome: name }
            Exception "exception" 76 { t_ns: time, node: num, pkt: pkt, chan: text, exn: text }
            TimerFire "timer_fire" 64 { t_ns: time, node: num, app: num, key: num }
            SpanStart "span_start" 110 {
                t_ns: time, node: num, pkt: pkt, trace: num, parent: num, origin: name, chan: opt_text
            }
            VmRun "vm_run" 74 { t_ns: time, node: num, pkt: pkt, chan: text, steps: num }
            Fault "fault" 72 { t_ns: time, kind: text, node: opt_num, link: opt_num, pkt: pkt_or_none }
            SampleDowngrade "sample_downgrade" 70 { t_ns: time, from_n: num, to_n: num, kept: num }
            Health "health" 78 { t_ns: time, rule: text, ok: flag, value: num, threshold: num }
            Brownout "brownout" 80 { t_ns: time, from_level: num, to_level: num, rule: text }
            Breaker "breaker" 92 { t_ns: time, node: num, backend: text, from: name, to: name }
        }
    };
}
pub(crate) use event_table;

/// The body of [`TraceEvent::describe`]: one arm per row of its table.
macro_rules! describe {
    (@val time $f:ident) => { Val::Num(*$f) };
    (@val num $f:ident) => { Val::Num(u64::from(*$f)) };
    (@val pkt $f:ident) => { Val::Pkt(*$f) };
    (@val pkt_or_none $f:ident) => { Val::PktOrNone(*$f) };
    (@val opt_num $f:ident) => { Val::OptNum($f.map(u64::from)) };
    (@val flag $f:ident) => { Val::Flag(*$f) };
    (@val name $f:ident) => { Val::Name($f.name()) };
    (@val text $f:ident) => { Val::Text($f) };
    (@val opt_text $f:ident) => { Val::OptText($f.as_deref()) };
    ($ev:expr, $visit:ident;
     $($variant:ident $tag:literal $base:literal { $($field:ident: $kind:ident),* })*) => {
        match $ev {
            $(TraceEvent::$variant { $($field),* } => {
                $visit("type", Val::Name($tag));
                $($visit(stringify!($field), describe!(@val $kind $field));)*
                $base
            })*
        }
    };
}

impl TraceEvent {
    /// The category this event belongs to.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::LinkEnqueue { .. } | TraceEvent::LinkTx { .. } => Category::LINK,
            TraceEvent::LinkDrop { .. } | TraceEvent::NodeDrop { .. } => Category::DROP,
            TraceEvent::Forward { .. } => Category::HOP,
            TraceEvent::Deliver { .. } => Category::DELIVER,
            TraceEvent::Dispatch { .. } => Category::DISPATCH,
            TraceEvent::Exception { .. } => Category::EXCEPTION,
            TraceEvent::TimerFire { .. } => Category::TIMER,
            TraceEvent::SpanStart { .. } => Category::SPAN,
            TraceEvent::VmRun { .. } => Category::VM,
            TraceEvent::Fault { .. } => Category::FAULT,
            TraceEvent::SampleDowngrade { .. } => Category::META,
            TraceEvent::Health { .. }
            | TraceEvent::Brownout { .. }
            | TraceEvent::Breaker { .. } => Category::HEALTH,
        }
    }

    /// Simulation time of the event, in nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match self {
            TraceEvent::LinkEnqueue { t_ns, .. }
            | TraceEvent::LinkTx { t_ns, .. }
            | TraceEvent::LinkDrop { t_ns, .. }
            | TraceEvent::Forward { t_ns, .. }
            | TraceEvent::Deliver { t_ns, .. }
            | TraceEvent::NodeDrop { t_ns, .. }
            | TraceEvent::Dispatch { t_ns, .. }
            | TraceEvent::Exception { t_ns, .. }
            | TraceEvent::TimerFire { t_ns, .. }
            | TraceEvent::SpanStart { t_ns, .. }
            | TraceEvent::VmRun { t_ns, .. }
            | TraceEvent::Fault { t_ns, .. }
            | TraceEvent::SampleDowngrade { t_ns, .. }
            | TraceEvent::Health { t_ns, .. }
            | TraceEvent::Brownout { t_ns, .. }
            | TraceEvent::Breaker { t_ns, .. } => *t_ns,
        }
    }

    /// Every variant as its row of `event_table!` describes it, read
    /// by [`write_json`], [`est_bytes`] and [`pkt`]: `visit` is handed
    /// the wire tag as the `type` field and then every field under its
    /// own name — the JSON key *is* the field's name, in declaration
    /// order — as the [`Val`] kind the row gives it. Returns the row's
    /// number, the fixed part of [`est_bytes`].
    ///
    /// [`write_json`]: TraceEvent::write_json
    /// [`est_bytes`]: TraceEvent::est_bytes
    /// [`pkt`]: TraceEvent::pkt
    #[inline]
    fn describe(&self, mut visit: impl FnMut(&'static str, Val<'_>)) -> u64 {
        event_table!(describe!(self, visit))
    }

    /// The packet id, if the event concerns a packet.
    pub fn pkt(&self) -> Option<u64> {
        let mut pkt = None;
        self.describe(|_, v| match v {
            Val::Pkt(id) => pkt = Some(id),
            Val::PktOrNone(id) => pkt = (id != 0).then_some(id),
            _ => {}
        });
        pkt
    }

    /// Estimated JSONL size of the event in bytes — the currency of the
    /// telemetry overhead meter. A fixed per-variant cost plus the
    /// lengths of embedded strings; close enough to the real serialized
    /// size to budget against, cheap enough for the hot path.
    pub fn est_bytes(&self) -> u64 {
        let mut strings = 0;
        let base = self.describe(|_, v| match v {
            Val::Text(s) => strings += s.len(),
            Val::OptText(s) => strings += s.map_or(4, str::len),
            _ => {}
        });
        base + strings as u64
    }

    /// Serializes the event as one JSON object, appended to `out`.
    pub fn write_json(&self, out: &mut String) {
        let mut seq = Seq::new();
        out.push('{');
        self.describe(
            // Inlined into every row, `match v` folds to the one writer
            // the row's kind names; as a call it is an unpredictable
            // jump per field (+18% on `to_jsonl` of a full ring).
            #[inline(always)]
            |key, v| {
                seq.sep(out);
                push_key(out, key);
                match v {
                    Val::Num(n) | Val::Pkt(n) | Val::PktOrNone(n) | Val::OptNum(Some(n)) => {
                        push_u64(out, n)
                    }
                    Val::Flag(b) => out.push_str(if b { "true" } else { "false" }),
                    Val::Name(s) | Val::Text(s) | Val::OptText(Some(s)) => push_str(out, s),
                    Val::OptNum(None) | Val::OptText(None) => out.push_str("null"),
                }
            },
        );
        out.push('}');
    }
}

impl fmt::Display for TraceEvent {
    /// The human one-line form used by `planp-trace`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.t_ns() as f64 / 1e9;
        match self {
            TraceEvent::LinkEnqueue {
                link,
                from,
                pkt,
                bytes,
                qlen,
                ..
            } => write!(
                f,
                "{t:12.6}  link{link:<3} enqueue  pkt={pkt} from=n{from} {bytes}B qlen={qlen}"
            ),
            TraceEvent::LinkTx {
                link,
                from,
                pkt,
                bytes,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  link{link:<3} tx       pkt={pkt} from=n{from} {bytes}B"
                )
            }
            TraceEvent::LinkDrop {
                link, from, pkt, ..
            } => {
                write!(
                    f,
                    "{t:12.6}  link{link:<3} DROP     pkt={pkt} from=n{from} (queue full)"
                )
            }
            TraceEvent::Forward {
                node,
                pkt,
                link,
                ttl,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  n{node:<5} forward  pkt={pkt} via link{link} ttl={ttl}"
                )
            }
            TraceEvent::Deliver { node, pkt, app, .. } => {
                write!(f, "{t:12.6}  n{node:<5} deliver  pkt={pkt} app={app}")
            }
            TraceEvent::NodeDrop {
                node, pkt, reason, ..
            } => {
                write!(
                    f,
                    "{t:12.6}  n{node:<5} DROP     pkt={pkt} ({})",
                    reason.name()
                )
            }
            TraceEvent::Dispatch {
                node,
                pkt,
                chan,
                outcome,
                ..
            } => write!(
                f,
                "{t:12.6}  n{node:<5} dispatch pkt={pkt} chan={} -> {}",
                chan.as_deref().unwrap_or("-"),
                outcome.name()
            ),
            TraceEvent::Exception {
                node,
                pkt,
                chan,
                exn,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  n{node:<5} EXN      pkt={pkt} chan={chan} exn={exn}"
                )
            }
            TraceEvent::TimerFire { node, app, key, .. } => {
                write!(f, "{t:12.6}  n{node:<5} timer    app={app} key={key}")
            }
            TraceEvent::SpanStart {
                node,
                pkt,
                trace,
                parent,
                origin,
                chan,
                ..
            } => write!(
                f,
                "{t:12.6}  n{node:<5} span     pkt={pkt} trace={trace} parent={parent} \
                 origin={} chan={}",
                origin.name(),
                chan.as_deref().unwrap_or("-")
            ),
            TraceEvent::VmRun {
                node,
                pkt,
                chan,
                steps,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  n{node:<5} vm       pkt={pkt} chan={chan} steps={steps}"
                )
            }
            TraceEvent::Fault {
                kind,
                node,
                link,
                pkt,
                ..
            } => {
                let site = match (node, link) {
                    (Some(n), _) => format!("n{n}"),
                    (None, Some(l)) => format!("link{l}"),
                    (None, None) => "plan".to_string(),
                };
                write!(f, "{t:12.6}  {site:<6} FAULT    kind={kind} pkt={pkt}")
            }
            TraceEvent::SampleDowngrade {
                from_n, to_n, kept, ..
            } => {
                write!(
                    f,
                    "{t:12.6}  meta   SAMPLE   rate 1/{from_n} -> 1/{to_n} (kept={kept})"
                )
            }
            TraceEvent::Health {
                rule,
                ok,
                value,
                threshold,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  slo    {}   rule={rule} value={value} threshold={threshold}",
                    if *ok { "ok    " } else { "BREACH" }
                )
            }
            TraceEvent::Brownout {
                from_level,
                to_level,
                rule,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  slo    BROWNOUT level {from_level} -> {to_level} rule={rule}"
                )
            }
            TraceEvent::Breaker {
                node,
                backend,
                from,
                to,
                ..
            } => {
                write!(
                    f,
                    "{t:12.6}  n{node:<5} BREAKER  backend={backend} {} -> {}",
                    from.name(),
                    to.name()
                )
            }
        }
    }
}

/// Configuration for a [`TraceLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Which event categories to record.
    pub categories: Category,
    /// Ring-buffer capacity; once full, the oldest events are evicted
    /// (`TraceLog::evicted` counts them).
    pub capacity: usize,
    /// Head-sampling rate: keep 1 of every `sample_n` traces (0 or 1 =
    /// keep all). The decision is made once per trace id, so the kept
    /// traces retain their *complete* span trees — children inherit the
    /// root's verdict, never re-roll.
    pub sample_n: u32,
    /// Kept-event budget (0 = unlimited): every time the number of kept
    /// events crosses another multiple of the budget, the sampling rate
    /// deterministically doubles (`sample_n *= 2`, capped at 2^20) and
    /// a [`TraceEvent::SampleDowngrade`] is recorded.
    pub budget: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            categories: Category::NONE,
            capacity: 65_536,
            sample_n: 1,
            budget: 0,
        }
    }
}

impl TraceConfig {
    /// Records every category at the default capacity.
    pub fn all() -> Self {
        TraceConfig {
            categories: Category::ALL,
            ..TraceConfig::default()
        }
    }

    /// Records every category, head-sampling 1 of every `n` traces.
    pub fn sampled(n: u32) -> Self {
        TraceConfig {
            sample_n: n.max(1),
            ..TraceConfig::all()
        }
    }

    /// Parses a `--sample` argument: `1/N` or a bare `N` (keep 1 of
    /// every N traces). `1`, `1/1`, and `0` mean "keep everything".
    pub fn parse_sample(s: &str) -> Result<u32, String> {
        let body = s.strip_prefix("1/").unwrap_or(s);
        match body.parse::<u32>() {
            Ok(n) => Ok(n.max(1)),
            Err(_) => Err(format!("bad sample rate {s:?} (expected 1/N or N)")),
        }
    }
}

/// The SplitMix64 finalizer, applied to the trace id for the keep
/// decision — the same mix the simulator's RNG uses, so the sampler
/// inherits its avalanche quality without depending on the netsim
/// crate.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The telemetry overhead meter: what tracing kept, what the sampler
/// suppressed, and what the kept events cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceOverhead {
    /// Events kept (recorded into the ring, including later-evicted).
    pub kept: u64,
    /// Events suppressed by the trace sampler.
    pub sampled_out: u64,
    /// Kept events later evicted by the ring.
    pub evicted: u64,
    /// Estimated serialized bytes of the kept events.
    pub est_bytes: u64,
    /// Budget downgrades applied so far.
    pub downgrades: u32,
    /// The current (possibly budget-degraded) sampling denominator.
    pub sample_n: u32,
}

/// A bounded ring buffer of trace events, held as bytes (`ring.rs`)
/// and decoded when read.
///
/// Determinism contract: with the same configuration and the same
/// deterministic event source, `to_jsonl` produces byte-identical
/// output across runs. Nothing here reads the wall clock.
#[derive(Debug)]
pub struct TraceLog {
    enabled: Category,
    capacity: usize,
    ring: Ring,
    recorded: u64,
    evicted: u64,
    /// Current sampling denominator (doubles on budget downgrades).
    sample_n: u32,
    budget: u64,
    next_budget_mark: u64,
    sampled_out: u64,
    est_bytes: u64,
    downgrades: u32,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(TraceConfig::default())
    }
}

impl TraceLog {
    /// A log with the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceLog {
            enabled: cfg.categories,
            capacity: cfg.capacity.max(1),
            ring: Ring::default(),
            recorded: 0,
            evicted: 0,
            sample_n: cfg.sample_n.max(1),
            budget: cfg.budget,
            next_budget_mark: cfg.budget,
            sampled_out: 0,
            est_bytes: 0,
            downgrades: 0,
        }
    }

    /// Replaces the configuration (keeps already-recorded events that
    /// still fit). Resets the sampler to the configured rate.
    pub fn configure(&mut self, cfg: TraceConfig) {
        self.enabled = cfg.categories;
        self.capacity = cfg.capacity.max(1);
        self.sample_n = cfg.sample_n.max(1);
        self.budget = cfg.budget;
        self.next_budget_mark = self.recorded + cfg.budget;
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.drop_spares();
    }

    /// The enabled categories.
    #[inline]
    pub fn categories(&self) -> Category {
        self.enabled
    }

    /// Hot-path guard: true if events of category `c` are recorded.
    /// Call this *before* constructing an event so disabled tracing
    /// costs one branch and no allocation.
    #[inline]
    pub fn wants(&self, c: Category) -> bool {
        self.enabled.contains(c)
    }

    /// Hot-path guard for packet-path events: category enabled *and*
    /// the packet's trace was kept by the sampler. When the category is
    /// on but the trace was sampled out, the suppression is counted —
    /// that is the sampler's half of the overhead meter.
    #[inline]
    pub fn wants_pkt(&mut self, c: Category, sampled: bool) -> bool {
        if !self.enabled.contains(c) {
            return false;
        }
        if !sampled {
            self.sampled_out += 1;
            return false;
        }
        true
    }

    /// The whole-lineage head-sampling decision for a new trace root:
    /// keep iff the hash of the trace id lands below
    /// `u64::MAX / sample_n`. Thresholds nest — every trace kept at
    /// 1/2N is also kept at 1/N — so budget downgrades shrink the kept
    /// set without orphaning already-kept lineages' siblings.
    #[inline]
    pub fn keep_trace(&self, trace: u64) -> bool {
        let n = u64::from(self.sample_n.max(1));
        if n <= 1 {
            return true;
        }
        mix64(trace) <= u64::MAX / n
    }

    /// Records an event if its category is enabled. Sampling decisions
    /// happen upstream via [`TraceLog::keep_trace`] /
    /// [`TraceLog::wants_pkt`].
    pub fn push(&mut self, ev: TraceEvent) {
        if !self.wants(ev.category()) {
            return;
        }
        let t_ns = ev.t_ns();
        self.record(ev);
        // Budget check: each crossing of another `budget` kept events
        // doubles the sampling denominator, recorded as a meta event.
        if self.budget > 0 && self.recorded >= self.next_budget_mark {
            self.downgrade(t_ns);
        }
    }

    /// Doubles the sampling denominator at a budget crossing.
    #[cold]
    fn downgrade(&mut self, t_ns: u64) {
        self.next_budget_mark += self.budget;
        let from_n = self.sample_n.max(1);
        if from_n < (1 << 20) {
            let to_n = from_n * 2;
            self.sample_n = to_n;
            self.downgrades += 1;
            if self.wants(Category::META) {
                self.record(TraceEvent::SampleDowngrade {
                    t_ns,
                    from_n,
                    to_n,
                    kept: self.recorded,
                });
            }
        }
    }

    /// Unconditional ring insert with accounting.
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        self.est_bytes += self.ring.push(ev);
        if self.ring.len() > self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.recorded += 1;
    }

    /// Events currently held, oldest first, each decoded from the ring.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.ring.events()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Bytes the held events take: the ring's blocks in use and the
    /// text of its name table.
    pub fn held_bytes(&self) -> usize {
        self.ring.held_bytes()
    }

    /// Total events recorded over the log's lifetime (including evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by the ring buffer.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events suppressed by the trace sampler.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// The current sampling denominator (1 = keep everything); grows
    /// when budget downgrades fire.
    pub fn sample_n(&self) -> u32 {
        self.sample_n
    }

    /// Budget downgrades applied so far.
    pub fn downgrades(&self) -> u32 {
        self.downgrades
    }

    /// The telemetry self-accounting meter.
    pub fn overhead(&self) -> TraceOverhead {
        TraceOverhead {
            kept: self.recorded,
            sampled_out: self.sampled_out,
            evicted: self.evicted,
            est_bytes: self.est_bytes,
            downgrades: self.downgrades,
            sample_n: self.sample_n,
        }
    }

    /// Serializes the held events as JSON Lines (one object per line,
    /// trailing newline when non-empty). Byte-stable for identical logs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::Deliver {
            t_ns: t,
            node: 1,
            pkt: t,
            app: 0,
        }
    }

    #[test]
    fn categories_parse_and_combine() {
        let c = Category::from_list("link, drop").unwrap();
        assert!(c.contains(Category::LINK) && c.contains(Category::DROP));
        assert!(!c.contains(Category::DISPATCH));
        assert_eq!(Category::from_list("all").unwrap(), Category::ALL);
        assert_eq!(Category::from_list("").unwrap(), Category::NONE);
        assert!(Category::from_list("bogus").is_err());
    }

    #[test]
    fn disabled_categories_are_not_recorded() {
        let mut log = TraceLog::new(TraceConfig {
            categories: Category::LINK,
            capacity: 8,
            ..TraceConfig::default()
        });
        assert!(!log.wants(Category::DELIVER));
        log.push(ev(1));
        assert_eq!(log.len(), 0);
        log.push(TraceEvent::LinkTx {
            t_ns: 2,
            link: 0,
            from: 0,
            pkt: 1,
            bytes: 64,
        });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = TraceLog::new(TraceConfig {
            categories: Category::ALL,
            capacity: 3,
            ..TraceConfig::default()
        });
        for t in 0..5 {
            log.push(ev(t));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.recorded(), 5);
        assert_eq!(log.evicted(), 2);
        let first = log.events().next().unwrap().t_ns();
        assert_eq!(first, 2);
    }

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let mut log = TraceLog::new(TraceConfig::all());
        log.push(TraceEvent::Exception {
            t_ns: 5,
            node: 2,
            pkt: 9,
            chan: "net\"work".into(),
            exn: "Div".into(),
        });
        let line = log.to_jsonl();
        assert_eq!(
            line,
            "{\"type\":\"exception\",\"t_ns\":5,\"node\":2,\"pkt\":9,\"chan\":\"net\\\"work\",\"exn\":\"Div\"}\n"
        );
        assert_eq!(line, log.to_jsonl());
    }

    #[test]
    fn keep_trace_is_deterministic_and_nested() {
        // Same rate → same verdicts; every trace kept at 1/2N is kept
        // at 1/N (thresholds nest), so downgrades only shrink the kept
        // set.
        let mk = |n: u32| TraceLog::new(TraceConfig::sampled(n));
        let (l1, l4, l8) = (mk(1), mk(4), mk(8));
        let mut kept4 = 0u64;
        for trace in 1..4000u64 {
            assert!(l1.keep_trace(trace), "1/1 keeps everything");
            assert_eq!(l4.keep_trace(trace), mk(4).keep_trace(trace));
            if l8.keep_trace(trace) {
                assert!(l4.keep_trace(trace), "1/8 set must nest in 1/4 set");
            }
            kept4 += u64::from(l4.keep_trace(trace));
        }
        // ~1/4 of 4k traces, generous tolerance.
        assert!((700..1300).contains(&kept4), "kept4 = {kept4}");
        // The verdict is the trace id's: shifting the ids by a constant
        // keeps a different set.
        assert!((1..4000u64).any(|t| l4.keep_trace(t) != l4.keep_trace(t + 4000)));
    }

    #[test]
    fn wants_pkt_counts_sampled_out() {
        let mut log = TraceLog::new(TraceConfig::all());
        assert!(log.wants_pkt(Category::DELIVER, true));
        assert!(!log.wants_pkt(Category::DELIVER, false));
        assert_eq!(log.sampled_out(), 1);
        // Disabled category: suppressed by the filter, not the sampler.
        let mut off = TraceLog::new(TraceConfig::default());
        assert!(!off.wants_pkt(Category::DELIVER, false));
        assert_eq!(off.sampled_out(), 0);
    }

    #[test]
    fn budget_crossing_downgrades_and_emits_meta_event() {
        let mut log = TraceLog::new(TraceConfig {
            budget: 10,
            ..TraceConfig::all()
        });
        for t in 0..25 {
            log.push(ev(t));
        }
        let oh = log.overhead();
        assert_eq!(oh.downgrades, 2, "two budget crossings");
        assert_eq!(oh.sample_n, 4, "1 -> 2 -> 4");
        let downs: Vec<_> = log
            .events()
            .filter_map(|e| match e {
                TraceEvent::SampleDowngrade { from_n, to_n, .. } => Some((from_n, to_n)),
                _ => None,
            })
            .collect();
        assert_eq!(downs, vec![(1, 2), (2, 4)]);
        assert!(oh.est_bytes > 0);
    }

    #[test]
    fn parse_sample_accepts_fraction_and_bare_n() {
        assert_eq!(TraceConfig::parse_sample("1/16"), Ok(16));
        assert_eq!(TraceConfig::parse_sample("16"), Ok(16));
        assert_eq!(TraceConfig::parse_sample("1"), Ok(1));
        assert_eq!(TraceConfig::parse_sample("0"), Ok(1));
        assert!(TraceConfig::parse_sample("x/y").is_err());
    }

    /// `(event, JSON line, Display line, est_bytes, category, t_ns, pkt)`.
    pub(crate) type Golden = (
        TraceEvent,
        &'static str,
        &'static str,
        u64,
        Category,
        u64,
        Option<u64>,
    );

    /// One instance of every variant — both arms of each optional field
    /// and one string that needs escaping — with everything the event
    /// must report about itself. The expected values were copied from a
    /// run at commit 9a66515, where `write_json`, `est_bytes`, `pkt`,
    /// `category`, `t_ns` and `Display` each listed the variants on
    /// their own; they hold the one description to those bytes.
    pub(crate) fn golden() -> Vec<Golden> {
        vec![
            (
                TraceEvent::LinkEnqueue {
                    t_ns: 1_000,
                    link: 3,
                    from: 2,
                    pkt: 41,
                    bytes: 1500,
                    qlen: 7,
                },
                r#"{"type":"link_enqueue","t_ns":1000,"link":3,"from":2,"pkt":41,"bytes":1500,"qlen":7}"#,
                "    0.000001  link3   enqueue  pkt=41 from=n2 1500B qlen=7",
                88,
                Category::LINK,
                1_000,
                Some(41),
            ),
            (
                TraceEvent::LinkTx {
                    t_ns: 2_000,
                    link: 3,
                    from: 2,
                    pkt: 41,
                    bytes: 64,
                },
                r#"{"type":"link_tx","t_ns":2000,"link":3,"from":2,"pkt":41,"bytes":64}"#,
                "    0.000002  link3   tx       pkt=41 from=n2 64B",
                72,
                Category::LINK,
                2_000,
                Some(41),
            ),
            (
                TraceEvent::LinkDrop {
                    t_ns: 3_000,
                    link: 12,
                    from: 5,
                    pkt: 42,
                },
                r#"{"type":"link_drop","t_ns":3000,"link":12,"from":5,"pkt":42}"#,
                "    0.000003  link12  DROP     pkt=42 from=n5 (queue full)",
                60,
                Category::DROP,
                3_000,
                Some(42),
            ),
            (
                TraceEvent::Forward {
                    t_ns: 1_500_000,
                    node: 3,
                    pkt: 7,
                    link: 2,
                    ttl: 63,
                },
                r#"{"type":"forward","t_ns":1500000,"node":3,"pkt":7,"link":2,"ttl":63}"#,
                "    0.001500  n3     forward  pkt=7 via link2 ttl=63",
                70,
                Category::HOP,
                1_500_000,
                Some(7),
            ),
            (
                TraceEvent::Deliver {
                    t_ns: 4_000,
                    node: 9,
                    pkt: 0,
                    app: 1,
                },
                r#"{"type":"deliver","t_ns":4000,"node":9,"pkt":0,"app":1}"#,
                "    0.000004  n9     deliver  pkt=0 app=1",
                62,
                Category::DELIVER,
                4_000,
                Some(0),
            ),
            (
                TraceEvent::NodeDrop {
                    t_ns: 5_000,
                    node: 123_456,
                    pkt: 43,
                    reason: DropReason::DeadlineExpired,
                },
                r#"{"type":"node_drop","t_ns":5000,"node":123456,"pkt":43,"reason":"deadline_expired"}"#,
                "    0.000005  n123456 DROP     pkt=43 (deadline_expired)",
                76,
                Category::DROP,
                5_000,
                Some(43),
            ),
            (
                TraceEvent::Dispatch {
                    t_ns: 6_000,
                    node: 4,
                    pkt: 44,
                    chan: Some("network".into()),
                    outcome: DispatchOutcome::Matched,
                },
                r#"{"type":"dispatch","t_ns":6000,"node":4,"pkt":44,"chan":"network","outcome":"matched"}"#,
                "    0.000006  n4     dispatch pkt=44 chan=network -> matched",
                91,
                Category::DISPATCH,
                6_000,
                Some(44),
            ),
            (
                TraceEvent::Dispatch {
                    t_ns: 6_001,
                    node: 4,
                    pkt: 45,
                    chan: None,
                    outcome: DispatchOutcome::NoMatch,
                },
                r#"{"type":"dispatch","t_ns":6001,"node":4,"pkt":45,"chan":null,"outcome":"no_match"}"#,
                "    0.000006  n4     dispatch pkt=45 chan=- -> no_match",
                88,
                Category::DISPATCH,
                6_001,
                Some(45),
            ),
            (
                TraceEvent::Exception {
                    t_ns: 5,
                    node: 2,
                    pkt: 9,
                    chan: "net\"work\\\t".into(),
                    exn: "Div".into(),
                },
                r#"{"type":"exception","t_ns":5,"node":2,"pkt":9,"chan":"net\"work\\\t","exn":"Div"}"#,
                "    0.000000  n2     EXN      pkt=9 chan=net\"work\\\t exn=Div",
                89,
                Category::EXCEPTION,
                5,
                Some(9),
            ),
            (
                TraceEvent::TimerFire {
                    t_ns: 7_000_000_000,
                    node: 1,
                    app: 0,
                    key: u64::MAX,
                },
                r#"{"type":"timer_fire","t_ns":7000000000,"node":1,"app":0,"key":18446744073709551615}"#,
                "    7.000000  n1     timer    app=0 key=18446744073709551615",
                64,
                Category::TIMER,
                7_000_000_000,
                None,
            ),
            (
                TraceEvent::SpanStart {
                    t_ns: 8_000,
                    node: 0,
                    pkt: 46,
                    trace: 46,
                    parent: 0,
                    origin: SpanOrigin::Ingress,
                    chan: None,
                },
                r#"{"type":"span_start","t_ns":8000,"node":0,"pkt":46,"trace":46,"parent":0,"origin":"ingress","chan":null}"#,
                "    0.000008  n0     span     pkt=46 trace=46 parent=0 origin=ingress chan=-",
                114,
                Category::SPAN,
                8_000,
                Some(46),
            ),
            (
                TraceEvent::SpanStart {
                    t_ns: 8_500,
                    node: 6,
                    pkt: 47,
                    trace: 46,
                    parent: 46,
                    origin: SpanOrigin::Neighbor,
                    chan: Some("audio".into()),
                },
                r#"{"type":"span_start","t_ns":8500,"node":6,"pkt":47,"trace":46,"parent":46,"origin":"neighbor","chan":"audio"}"#,
                "    0.000008  n6     span     pkt=47 trace=46 parent=46 origin=neighbor chan=audio",
                115,
                Category::SPAN,
                8_500,
                Some(47),
            ),
            (
                TraceEvent::VmRun {
                    t_ns: 9_000,
                    node: 6,
                    pkt: 47,
                    chan: "audio".into(),
                    steps: 24,
                },
                r#"{"type":"vm_run","t_ns":9000,"node":6,"pkt":47,"chan":"audio","steps":24}"#,
                "    0.000009  n6     vm       pkt=47 chan=audio steps=24",
                79,
                Category::VM,
                9_000,
                Some(47),
            ),
            (
                TraceEvent::Fault {
                    t_ns: 10_000,
                    kind: "crash".into(),
                    node: Some(5),
                    link: None,
                    pkt: 0,
                },
                r#"{"type":"fault","t_ns":10000,"kind":"crash","node":5,"link":null,"pkt":0}"#,
                "    0.000010  n5     FAULT    kind=crash pkt=0",
                77,
                Category::FAULT,
                10_000,
                None,
            ),
            (
                TraceEvent::Fault {
                    t_ns: 10_001,
                    kind: "loss".into(),
                    node: None,
                    link: Some(8),
                    pkt: 48,
                },
                r#"{"type":"fault","t_ns":10001,"kind":"loss","node":null,"link":8,"pkt":48}"#,
                "    0.000010  link8  FAULT    kind=loss pkt=48",
                76,
                Category::FAULT,
                10_001,
                Some(48),
            ),
            (
                TraceEvent::Fault {
                    t_ns: 10_002,
                    kind: "partition".into(),
                    node: None,
                    link: None,
                    pkt: 0,
                },
                r#"{"type":"fault","t_ns":10002,"kind":"partition","node":null,"link":null,"pkt":0}"#,
                "    0.000010  plan   FAULT    kind=partition pkt=0",
                81,
                Category::FAULT,
                10_002,
                None,
            ),
            (
                TraceEvent::SampleDowngrade {
                    t_ns: 9,
                    from_n: 4,
                    to_n: 8,
                    kept: 100,
                },
                r#"{"type":"sample_downgrade","t_ns":9,"from_n":4,"to_n":8,"kept":100}"#,
                "    0.000000  meta   SAMPLE   rate 1/4 -> 1/8 (kept=100)",
                70,
                Category::META,
                9,
                None,
            ),
            (
                TraceEvent::Health {
                    t_ns: 7,
                    rule: "delivery_floor".into(),
                    ok: false,
                    value: 912_000,
                    threshold: 950_000,
                },
                r#"{"type":"health","t_ns":7,"rule":"delivery_floor","ok":false,"value":912000,"threshold":950000}"#,
                "    0.000000  slo    BREACH   rule=delivery_floor value=912000 threshold=950000",
                92,
                Category::HEALTH,
                7,
                None,
            ),
            (
                TraceEvent::Health {
                    t_ns: 8,
                    rule: "p99".into(),
                    ok: true,
                    value: 1,
                    threshold: 2,
                },
                r#"{"type":"health","t_ns":8,"rule":"p99","ok":true,"value":1,"threshold":2}"#,
                "    0.000000  slo    ok       rule=p99 value=1 threshold=2",
                81,
                Category::HEALTH,
                8,
                None,
            ),
            (
                TraceEvent::Brownout {
                    t_ns: 11_000,
                    from_level: 1,
                    to_level: 0,
                    rule: "recovered".into(),
                },
                r#"{"type":"brownout","t_ns":11000,"from_level":1,"to_level":0,"rule":"recovered"}"#,
                "    0.000011  slo    BROWNOUT level 1 -> 0 rule=recovered",
                89,
                Category::HEALTH,
                11_000,
                None,
            ),
            (
                TraceEvent::Breaker {
                    t_ns: 12_000,
                    node: 2,
                    backend: "s1".into(),
                    from: BreakerState::Open,
                    to: BreakerState::HalfOpen,
                },
                r#"{"type":"breaker","t_ns":12000,"node":2,"backend":"s1","from":"open","to":"half_open"}"#,
                "    0.000012  n2     BREAKER  backend=s1 open -> half_open",
                94,
                Category::HEALTH,
                12_000,
                None,
            ),
        ]
    }

    #[test]
    fn every_variant_reports_the_bytes_of_commit_9a66515() {
        let rows = golden();
        for (ev, json, display, est_bytes, category, t_ns, pkt) in &rows {
            let mut line = String::new();
            ev.write_json(&mut line);
            assert_eq!(line, *json);
            assert_eq!(ev.to_string(), *display);
            assert!(!display.contains('\n'), "Display is one line");
            assert_eq!(ev.est_bytes(), *est_bytes, "{json}");
            assert_eq!(ev.category(), *category, "{json}");
            assert_eq!(ev.t_ns(), *t_ns, "{json}");
            assert_eq!(ev.pkt(), *pkt, "{json}");
        }
        // The log writes the same lines, one per event.
        let mut log = TraceLog::new(TraceConfig::all());
        for (ev, ..) in &rows {
            log.push(ev.clone());
        }
        let lines: Vec<&str> = rows.iter().map(|r| r.1).collect();
        assert_eq!(log.to_jsonl(), lines.join("\n") + "\n");
        assert_eq!(log.overhead().est_bytes, rows.iter().map(|r| r.3).sum());
    }
}
