//! The bounded-load consistent-hash cluster gateway with per-backend
//! circuit breakers.
//!
//! A native [`PacketHook`] on the gateway router that spreads keyed
//! requests over tens of heterogeneous backends and keeps the cluster
//! *useful* under overload and rolling crashes:
//!
//! * **Consistent hashing** — each backend owns `vnodes × weight`
//!   points on a 64-bit hash ring; a request's key hashes to a ring
//!   position and walks clockwise. Backend churn (a breaker opening)
//!   only remaps the keys that hashed to the dead backend.
//! * **Bounded load** — every backend has an outstanding-request cap
//!   proportional to its weight (kept below its CPU queue, so admitted
//!   work is never tail-dropped by a healthy backend). A full backend
//!   is skipped and the walk continues; if *every* backend is full or
//!   broken the request is shed at the gateway
//!   ([`DropReason::Shed`]) instead of queueing toward a timeout.
//! * **Circuit breakers** — per-backend closed/open/half-open. A run
//!   of consecutive timeouts opens the breaker: the ring walk skips the
//!   corpse in O(1) RTT instead of hammering it. After a fixed open
//!   interval the breaker goes half-open and admits exactly **one**
//!   live request as a probe; success closes it, a probe timeout
//!   re-opens it. The probe schedule is deterministic — driven by the
//!   sweep timer and arriving packets, never by wall clocks.
//! * **Brownout + backpressure shedding** — priority classes below the
//!   current [`OverloadState::brownout_level`] are shed at the gateway,
//!   and when the gateway's *own* CPU queue passes ¾ occupancy it sheds
//!   sub-gold classes pre-emptively. Expired deadlines are dropped here
//!   too, before they burn backend capacity.
//!
//! Every decision reads only simulation time, packet bytes, and prior
//! deterministic state, so two runs shed, divert, and probe
//! byte-identically — breaker transitions are recorded (and emitted as
//! [`TraceEvent::Breaker`]) for exact cross-run and cross-engine
//! comparison.
//!
//! [`DropReason::Shed`]: planp_telemetry::DropReason
//! [`OverloadState::brownout_level`]: planp_telemetry::OverloadState

use netsim::packet::Packet;
use netsim::{ArrivalMeta, HookVerdict, NodeApi, PacketHook};
use planp_telemetry::{BreakerState, Category, CounterId, DropReason, Telemetry, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

/// One backend behind the gateway.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Name used in breaker telemetry (`gw.<name>.sent` etc.).
    pub name: String,
    /// The backend host's address (requests are NAT-rewritten to it).
    pub addr: u32,
    /// Relative capacity: ring vnodes and the outstanding cap scale
    /// with it.
    pub weight: u32,
}

/// Per-backend circuit-breaker policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive timeouts that open a closed breaker.
    pub fail_threshold: u32,
    /// An outstanding request older than this has timed out.
    pub timeout_ns: u64,
    /// How long an open breaker waits before going half-open.
    pub open_ns: u64,
    /// Sweep-timer period: how often outstanding requests are checked
    /// for timeout (detection latency is `timeout_ns + sweep_ns` worst
    /// case).
    pub sweep_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            fail_threshold: 3,
            timeout_ns: 100_000_000,
            open_ns: 400_000_000,
            sweep_ns: 25_000_000,
        }
    }
}

/// Gateway policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// UDP port requests arrive on (responses carry it as sport).
    pub port: u16,
    /// Ring vnodes per unit of backend weight.
    pub vnodes: u32,
    /// Outstanding-request cap per unit of backend weight (bounded
    /// load). Keep `weight × this` below the backend's CPU queue so
    /// admitted work is never tail-dropped by a healthy backend.
    pub outstanding_per_weight: u32,
    /// Priority classes strictly below this are shed while the
    /// gateway's own CPU queue is ≥ ¾ full (0 disables backpressure
    /// shedding).
    pub queue_shed_below: u8,
    /// Breaker policy.
    pub breaker: BreakerConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            port: super::scenario::CLUSTER_PORT,
            vnodes: 16,
            outstanding_per_weight: 12,
            queue_shed_below: 2,
            breaker: BreakerConfig::default(),
        }
    }
}

/// What the gateway did that no `gw.*` counter holds, shared out via
/// `Rc<RefCell<…>>`. The counts — `gw.admitted`, `gw.responses`,
/// `gw.shed_{brownout,saturated,queue}`, `gw.expired`, `gw.timeouts`,
/// `gw.probes`, `gw.<backend>.sent` — live in the metrics registry.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Requests forwarded to a backend whose breaker was not closed —
    /// by construction exactly the half-open probes, which is the
    /// bench's "no corpse traffic" invariant.
    pub sent_while_broken: u64,
    /// Every breaker transition: `(t_ns, backend, from, to)`.
    pub transitions: Vec<(u64, Rc<str>, BreakerState, BreakerState)>,
}

impl GatewayStats {
    /// Breaker transitions to [`BreakerState::Open`].
    pub fn opens(&self) -> u64 {
        let opened = self
            .transitions
            .iter()
            .filter(|(.., to)| *to == BreakerState::Open);
        opened.count() as u64
    }

    /// The transition history as byte-stable text — one line per
    /// transition — for cross-run and cross-engine equality checks.
    pub fn transitions_log(&self) -> String {
        let mut out = String::new();
        for (t_ns, backend, from, to) in &self.transitions {
            let _ = writeln!(
                out,
                "t_ns={t_ns} backend={backend} {} -> {}",
                from.name(),
                to.name()
            );
        }
        out
    }
}

/// An in-flight request the gateway is tracking.
#[derive(Debug, Clone, Copy)]
struct Pending {
    backend: u32,
    sent_ns: u64,
    probe: bool,
}

#[derive(Debug)]
struct BackendState {
    spec: BackendSpec,
    name: Rc<str>,
    state: BreakerState,
    consec_fails: u32,
    opened_at_ns: u64,
    outstanding: u32,
    probe_in_flight: bool,
    c_sent: CounterId,
}

impl BackendState {
    fn cap(&self, per_weight: u32) -> u32 {
        self.spec.weight.max(1) * per_weight
    }
}

/// SplitMix64 finalizer — the stateless mixer behind both the ring
/// points and the request-key hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The backends a ring walk from a key tries, in order: clockwise from
/// the key's position, each backend at its first point. The walk ends
/// once every backend has been tried — the rest of the ring holds only
/// backends already tried — or after one lap.
struct RingWalk {
    at: usize,
    left: usize,
    tried: u64,
    all: u64,
}

impl RingWalk {
    fn new(ring: &[(u64, u32)], backends: usize, key: u64) -> Self {
        let h = mix(key);
        RingWalk {
            at: ring.partition_point(|&(p, _)| p < h) % ring.len(),
            left: ring.len(),
            tried: 0,
            all: u64::MAX >> (64 - backends),
        }
    }

    /// The next backend not tried yet.
    fn next(&mut self, ring: &[(u64, u32)]) -> Option<u32> {
        while self.left > 0 && self.tried != self.all {
            let (_, b) = ring[self.at];
            self.at = (self.at + 1) % ring.len();
            self.left -= 1;
            if self.tried & (1 << b) == 0 {
                self.tried |= 1 << b;
                return Some(b);
            }
        }
        None
    }
}

/// The gateway hook. Install on the router fronting the backends.
pub struct ClusterGateway {
    cfg: GatewayConfig,
    backends: Vec<BackendState>,
    /// `(ring position, backend index)`, sorted by position.
    ring: Vec<(u64, u32)>,
    /// Outstanding requests by request id (`BTreeMap` so the timeout
    /// sweep visits them in deterministic order).
    pending: BTreeMap<u64, Pending>,
    sweep_armed: bool,
    /// Shared run statistics.
    pub stats: Rc<RefCell<GatewayStats>>,
    c_admitted: CounterId,
    c_responses: CounterId,
    c_shed_brownout: CounterId,
    c_shed_saturated: CounterId,
    c_shed_queue: CounterId,
    c_expired: CounterId,
    c_timeouts: CounterId,
    c_probes: CounterId,
}

impl ClusterGateway {
    /// Builds the gateway and registers its counters. Panics above 64
    /// backends (the ring walk tracks visited backends in a bitmask).
    pub fn new(cfg: GatewayConfig, backends: Vec<BackendSpec>, tel: &mut Telemetry) -> Self {
        assert!(
            !backends.is_empty() && backends.len() <= 64,
            "1..=64 backends"
        );
        let backends: Vec<BackendState> = backends
            .into_iter()
            .map(|spec| {
                let c_sent = tel
                    .metrics
                    .register_counter(&format!("gw.{}.sent", spec.name));
                BackendState {
                    name: Rc::from(spec.name.as_str()),
                    spec,
                    state: BreakerState::Closed,
                    consec_fails: 0,
                    opened_at_ns: 0,
                    outstanding: 0,
                    probe_in_flight: false,
                    c_sent,
                }
            })
            .collect();
        let mut ring = Vec::new();
        for (b, st) in backends.iter().enumerate() {
            for v in 0..cfg.vnodes * st.spec.weight.max(1) {
                ring.push((mix(mix(b as u64 + 1) ^ u64::from(v)), b as u32));
            }
        }
        ring.sort_unstable();
        ClusterGateway {
            cfg,
            backends,
            ring,
            pending: BTreeMap::new(),
            sweep_armed: false,
            stats: Rc::new(RefCell::new(GatewayStats::default())),
            c_admitted: tel.metrics.register_counter("gw.admitted"),
            c_responses: tel.metrics.register_counter("gw.responses"),
            c_shed_brownout: tel.metrics.register_counter("gw.shed_brownout"),
            c_shed_saturated: tel.metrics.register_counter("gw.shed_saturated"),
            c_shed_queue: tel.metrics.register_counter("gw.shed_queue"),
            c_expired: tel.metrics.register_counter("gw.expired"),
            c_timeouts: tel.metrics.register_counter("gw.timeouts"),
            c_probes: tel.metrics.register_counter("gw.probes"),
        }
    }

    /// Records a breaker transition: state, telemetry mirror, trace
    /// event, and the byte-stable transition log.
    fn transition(&mut self, api: &mut NodeApi<'_>, b: u32, to: BreakerState) {
        let node = api.node_id().0 as u32;
        let t_ns = api.now().as_nanos();
        let st = &mut self.backends[b as usize];
        let from = st.state;
        if from == to {
            return;
        }
        st.state = to;
        if to == BreakerState::Open {
            st.opened_at_ns = t_ns;
        }
        let name = st.name.clone();
        let tel = api.telemetry();
        tel.overload.set_breaker(&name, to);
        if tel.trace.wants(Category::HEALTH) {
            tel.trace.push(TraceEvent::Breaker {
                t_ns,
                node,
                backend: name.clone(),
                from,
                to,
            });
        }
        self.stats
            .borrow_mut()
            .transitions
            .push((t_ns, name, from, to));
    }

    /// Whether backend `b` can take one more request right now —
    /// promoting an open breaker whose cool-off has elapsed to
    /// half-open on the way.
    fn eligible(&mut self, api: &mut NodeApi<'_>, b: u32, now_ns: u64) -> bool {
        if self.backends[b as usize].state == BreakerState::Open
            && now_ns
                >= self.backends[b as usize]
                    .opened_at_ns
                    .saturating_add(self.cfg.breaker.open_ns)
        {
            self.transition(api, b, BreakerState::HalfOpen);
        }
        let st = &self.backends[b as usize];
        match st.state {
            BreakerState::Closed => st.outstanding < st.cap(self.cfg.outstanding_per_weight),
            BreakerState::Open => false,
            BreakerState::HalfOpen => !st.probe_in_flight,
        }
    }

    /// Bounded-load consistent-hash pick: walk the ring clockwise from
    /// the key's position, skipping full and broken backends.
    fn pick(&mut self, api: &mut NodeApi<'_>, key: u64, now_ns: u64) -> Option<u32> {
        let mut walk = RingWalk::new(&self.ring, self.backends.len(), key);
        while let Some(b) = walk.next(&self.ring) {
            if self.eligible(api, b, now_ns) {
                return Some(b);
            }
        }
        None
    }

    /// Timeout sweep: every pending request older than the breaker
    /// timeout counts as a failure against its backend.
    fn sweep(&mut self, api: &mut NodeApi<'_>) {
        let now_ns = api.now().as_nanos();
        let timed_out: Vec<(u64, Pending)> = self
            .pending
            .iter()
            .filter(|(_, p)| now_ns >= p.sent_ns.saturating_add(self.cfg.breaker.timeout_ns))
            .map(|(&id, &p)| (id, p))
            .collect();
        for (id, p) in timed_out {
            self.pending.remove(&id);
            api.telemetry().metrics.inc_id(self.c_timeouts);
            let st = &mut self.backends[p.backend as usize];
            st.outstanding = st.outstanding.saturating_sub(1);
            st.consec_fails += 1;
            if p.probe {
                st.probe_in_flight = false;
                if st.state == BreakerState::HalfOpen {
                    self.transition(api, p.backend, BreakerState::Open);
                }
            } else if self.backends[p.backend as usize].state == BreakerState::Closed
                && self.backends[p.backend as usize].consec_fails >= self.cfg.breaker.fail_threshold
            {
                self.transition(api, p.backend, BreakerState::Open);
            }
        }
    }
}

/// Reads a big-endian `u64` request id out of a request/response
/// payload (`payload[1..9]`).
fn req_id_of(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.get(1..9)?.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

impl PacketHook for ClusterGateway {
    fn on_packet(
        &mut self,
        api: &mut NodeApi<'_>,
        mut pkt: Packet,
        meta: &ArrivalMeta,
    ) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        let Some(hdr) = pkt.udp_hdr().copied() else {
            return HookVerdict::Pass(pkt);
        };
        let now_ns = api.now().as_nanos();

        // A response flowing back through: settle the pending entry and
        // let it route on to the client.
        if hdr.sport == self.cfg.port {
            if let Some(id) = req_id_of(&pkt.payload) {
                if let Some(p) = self.pending.remove(&id) {
                    api.telemetry().metrics.inc_id(self.c_responses);
                    let st = &mut self.backends[p.backend as usize];
                    st.outstanding = st.outstanding.saturating_sub(1);
                    st.consec_fails = 0;
                    if p.probe {
                        st.probe_in_flight = false;
                        if st.state == BreakerState::HalfOpen {
                            self.transition(api, p.backend, BreakerState::Closed);
                        }
                    }
                }
            }
            return HookVerdict::Pass(pkt);
        }

        if hdr.dport != self.cfg.port || pkt.ip.dst != api.addr() {
            return HookVerdict::Pass(pkt);
        }
        if !self.sweep_armed {
            self.sweep_armed = true;
            api.set_hook_timer(Duration::from_nanos(self.cfg.breaker.sweep_ns), 0);
        }
        let (Some(&prio), Some(id), Some(key_bytes)) = (
            pkt.payload.first(),
            req_id_of(&pkt.payload),
            pkt.payload.get(9..17),
        ) else {
            return HookVerdict::Pass(pkt);
        };
        let key = u64::from_be_bytes(key_bytes.try_into().expect("8-byte slice"));

        // Ingress guards, cheapest first: expired deadline, brownout
        // class shed, own-queue backpressure.
        if pkt.lineage.deadline_ns != 0 && now_ns > pkt.lineage.deadline_ns {
            api.telemetry().metrics.inc_id(self.c_expired);
            api.node_drop(&pkt, DropReason::DeadlineExpired);
            return HookVerdict::Handled;
        }
        if u32::from(prio) < api.telemetry().overload.brownout_level {
            api.telemetry().metrics.inc_id(self.c_shed_brownout);
            api.node_drop(&pkt, DropReason::Shed);
            return HookVerdict::Handled;
        }
        let qcap = api.cpu_queue_cap();
        if qcap > 0 && api.cpu_queue_len() * 4 >= qcap * 3 && prio < self.cfg.queue_shed_below {
            api.telemetry().metrics.inc_id(self.c_shed_queue);
            api.node_drop(&pkt, DropReason::Shed);
            return HookVerdict::Handled;
        }

        let Some(b) = self.pick(api, key, now_ns) else {
            api.telemetry().metrics.inc_id(self.c_shed_saturated);
            api.node_drop(&pkt, DropReason::Shed);
            return HookVerdict::Handled;
        };

        let st = &mut self.backends[b as usize];
        let probe = st.state == BreakerState::HalfOpen;
        if probe {
            st.probe_in_flight = true;
        }
        st.outstanding += 1;
        let dst = st.spec.addr;
        let c_sent = st.c_sent;
        let broken = st.state != BreakerState::Closed;
        if broken {
            self.stats.borrow_mut().sent_while_broken += 1;
        }
        let tel = api.telemetry();
        tel.metrics.inc_id(self.c_admitted);
        tel.metrics.inc_id(c_sent);
        if probe {
            tel.metrics.inc_id(self.c_probes);
        }
        self.pending.insert(
            id,
            Pending {
                backend: b,
                sent_ns: now_ns,
                probe,
            },
        );
        pkt.ip.dst = dst;
        if pkt.ip.ttl <= 1 {
            return HookVerdict::Handled;
        }
        pkt.ip.ttl -= 1;
        api.send(pkt);
        HookVerdict::Handled
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        self.sweep(api);
        api.set_hook_timer(Duration::from_nanos(self.cfg.breaker.sweep_ns), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<BackendSpec> {
        (0..n)
            .map(|i| BackendSpec {
                name: format!("b{i:02}"),
                addr: 100 + i as u32,
                weight: [1, 2, 4][i % 3],
            })
            .collect()
    }

    #[test]
    fn ring_covers_every_backend_proportionally() {
        let mut tel = Telemetry::default();
        let gw = ClusterGateway::new(GatewayConfig::default(), specs(6), &mut tel);
        let mut owned = vec![0u32; 6];
        for &(_, b) in &gw.ring {
            owned[b as usize] += 1;
        }
        // vnodes × weight each, and the ring is sorted.
        assert_eq!(owned, vec![16, 32, 64, 16, 32, 64]);
        assert!(gw.ring.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_key_hashes_to_the_same_backend() {
        let mut tel = Telemetry::default();
        let gw = ClusterGateway::new(GatewayConfig::default(), specs(12), &mut tel);
        let pos = |key: u64| {
            let h = mix(key);
            let i = gw.ring.partition_point(|&(p, _)| p < h) % gw.ring.len();
            gw.ring[i].1
        };
        let spread: std::collections::BTreeSet<u32> = (0..200u64).map(pos).collect();
        assert_eq!(pos(42), pos(42), "deterministic placement");
        assert!(spread.len() >= 8, "keys spread across backends: {spread:?}");
    }

    #[test]
    fn ring_walk_tries_each_backend_once_and_stops_when_all_are_tried() {
        let mut tel = Telemetry::default();
        let gw = ClusterGateway::new(GatewayConfig::default(), specs(6), &mut tel);
        let (ring, n) = (&gw.ring, gw.backends.len());
        for key in 0..500u64 {
            let mut walk = RingWalk::new(ring, n, key);
            let start = walk.at;
            let order: Vec<u32> = std::iter::from_fn(|| walk.next(ring)).collect();
            // The old walk: one lap, first appearance of each backend.
            let mut lap = Vec::new();
            for i in 0..ring.len() {
                let b = ring[(start + i) % ring.len()].1;
                if !lap.contains(&b) {
                    lap.push(b);
                }
            }
            assert_eq!(order, lap, "key {key}");
            // It stopped at the last backend's first point, not a lap later.
            let last = (0..ring.len())
                .find(|i| ring[(start + i) % ring.len()].1 == lap[n - 1])
                .expect("every backend is on the ring");
            assert_eq!(ring.len() - walk.left, last + 1, "key {key}");
        }
        // Past the first point of the last backend, nothing else is read.
        let mut walk = RingWalk::new(ring, n, 7);
        while walk.next(ring).is_some() {}
        assert!(walk.left > 0 && walk.tried == walk.all);
    }

    #[test]
    fn mixer_is_a_bijection_probe() {
        // Sanity: distinct inputs keep distinct hashes (no accidental
        // truncation in the ring build).
        let hashes: std::collections::BTreeSet<u64> = (0..10_000u64).map(mix).collect();
        assert_eq!(hashes.len(), 10_000);
    }
}
