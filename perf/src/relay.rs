//! `relay_grid` and `relay_grid_telemetry`: 16 chains × 6 relays (the
//! `obs_grid` shape), built here so that the hook at every relay can be
//! swapped and wrapped.
//!
//! The plain run installs the fragile relay ASP with the shipped
//! `install_planp`, then sends the same packets through a native Rust
//! relay hook defined below (the twin `asp_overhead_ns` subtracts). The
//! layers run wraps the hooks and apps in spans, walks the hook-swap
//! ladder, and replays captured packets stage by stage.

use crate::check::{self, Counts};
use crate::ctx::{peak_rss_mb, Chunks, Report, Run, Series};
use crate::replay::{self, Kind};
use crate::spans::{self, Layer, SharedLog, SpanLog, TimedApp, TimedHook};
use crate::stats;
use netsim::packet::{addr, Packet};
use netsim::{ArrivalMeta, HookVerdict, LinkSpec, NodeApi, PacketHook, Sim, SimTime};
use planp_analysis::Policy;
use planp_apps::chaos::{SeqCollector, SeqSource, DATA_PORT, FRAGILE_RELAY_ASP};
use planp_lang::types::PacketShape;
use planp_runtime::convert::{packet_to_value, value_to_packet};
use planp_runtime::{install_planp, load, Engine, LayerConfig, PlanpLayer, MANAGEMENT_PORT};
use planp_telemetry::{TraceConfig, TraceForest};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const CHAINS: usize = 16;
pub const HOPS: usize = 6;
/// Datagrams per chain in a full rep.
pub const PACKETS: u64 = 12_000;
const INTERVAL_MS: u64 = 1;
/// `SeqSource` re-sends its last datagram this many times.
const TAIL_RESENDS: u64 = 4;
/// Ring capacity of the tracing-on runs.
const TRACE_CAPACITY: usize = 1 << 18;
/// Plain and spanned reps the layers run alternates. With two, the
/// span overhead was the mean of two differences and read anywhere
/// from -2% to 18% in a busy hour; the median of three holds.
const SPAN_PAIRS: usize = 3;
/// Datagrams per chain in a ladder rung and in the warm-up.
const RUNG_PACKETS: u64 = 2_000;

/// Relay crossings in one rep: every datagram crosses every relay.
pub fn hops(packets: u64) -> u64 {
    (CHAINS * HOPS) as u64 * (packets + TAIL_RESENDS)
}

/// What sits at the IP layer of every relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookKind {
    /// No hook: standard IP forwarding.
    None,
    /// A hook that passes every packet on untouched.
    Pass,
    /// Packet → value → packet → `send`, no VM.
    Conv,
    /// The relay ASP's job in Rust.
    Native,
    /// The relay ASP in the PLAN-P layer.
    Planp(Engine),
}

#[derive(Clone)]
pub struct GridOpts {
    pub packets: u64,
    pub hook: HookKind,
    pub trace: TraceConfig,
    /// Profiler sampling denominator (1 = as shipped, every dispatch).
    pub profile_sample: u32,
    /// Wrap hooks and apps in spans recorded here.
    pub spans: Option<SharedLog>,
    /// Read every export after the run (the telemetry workload).
    pub reads: bool,
}

impl GridOpts {
    pub fn new(hook: HookKind) -> Self {
        GridOpts {
            packets: PACKETS,
            hook,
            trace: TraceConfig::default(),
            profile_sample: 1,
            spans: None,
            reads: false,
        }
    }

    fn tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = TraceConfig {
            capacity: TRACE_CAPACITY,
            ..trace
        };
        self
    }
}

/// Raw wall seconds of each read the telemetry workload performs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reads {
    pub forest_s: f64,
    pub chrome_s: f64,
    pub chrome_bytes: usize,
    pub prom_s: f64,
    pub profile_s: f64,
}

/// One rep of the grid. Times are raw wall seconds.
pub struct GridRun {
    pub topo_s: f64,
    pub install_s: f64,
    /// `Sim::run_until` only.
    pub run_s: f64,
    pub snapshot_s: f64,
    pub reads: Option<Reads>,
    pub counts: Counts,
    pub violations: Vec<String>,
}

/// The relay ASP's job, hand-written: forward sequence-stamped data
/// (and anything else that is UDP) toward its destination, deliver
/// what is addressed here.
struct NativeRelay;

impl PacketHook for NativeRelay {
    fn on_packet(
        &mut self,
        api: &mut NodeApi<'_>,
        mut pkt: Packet,
        meta: &ArrivalMeta,
    ) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        // The ASP's one channel takes ip*udp*blob; the layer keeps the
        // management port away from it.
        let Some(udp) = pkt.udp_hdr().copied() else {
            return HookVerdict::Pass(pkt);
        };
        if udp.dport == MANAGEMENT_PORT {
            return HookVerdict::Pass(pkt);
        }
        let here = pkt.ip.dst == api.addr();
        if udp.dport == DATA_PORT && pkt.payload.len() >= 8 && here {
            api.deliver_local(pkt);
            return HookVerdict::Handled;
        }
        // OnRemote(network, p): one TTL step, then route (or deliver,
        // if the packet has arrived).
        if pkt.ip.ttl == 0 {
            return HookVerdict::Handled;
        }
        pkt.ip.ttl -= 1;
        if here {
            api.deliver_local(pkt);
        } else {
            api.send(pkt);
        }
        HookVerdict::Handled
    }
}

struct PassHook;

impl PacketHook for PassHook {
    fn on_packet(
        &mut self,
        _api: &mut NodeApi<'_>,
        pkt: Packet,
        _meta: &ArrivalMeta,
    ) -> HookVerdict {
        HookVerdict::Pass(pkt)
    }
}

/// Conversion in and out and the send, with nothing in between. The
/// packet keeps its identity so the rung adds conversion only.
struct ConvHook {
    shape: PacketShape,
}

impl PacketHook for ConvHook {
    fn on_packet(
        &mut self,
        api: &mut NodeApi<'_>,
        pkt: Packet,
        _meta: &ArrivalMeta,
    ) -> HookVerdict {
        let Some(value) = packet_to_value(&pkt, &self.shape) else {
            return HookVerdict::Pass(pkt);
        };
        let Ok(mut out) = value_to_packet(&value, None) else {
            return HookVerdict::Pass(pkt);
        };
        if out.ip.ttl == 0 {
            return HookVerdict::Handled;
        }
        out.ip.ttl -= 1;
        out.id = pkt.id;
        out.lineage = pkt.lineage;
        api.send(out);
        HookVerdict::Handled
    }
}

fn install(
    sim: &mut Sim,
    node: netsim::NodeId,
    hook: impl PacketHook + 'static,
    spans: &Option<SharedLog>,
) {
    match spans {
        Some(log) => sim.install_hook(
            node,
            Box::new(TimedHook {
                inner: hook,
                log: log.clone(),
            }),
        ),
        None => sim.install_hook(node, Box::new(hook)),
    }
}

fn add_app(
    sim: &mut Sim,
    node: netsim::NodeId,
    app: impl netsim::App + 'static,
    spans: &Option<SharedLog>,
) {
    match spans {
        Some(log) => sim.add_app(
            node,
            Box::new(TimedApp {
                inner: app,
                log: log.clone(),
            }),
        ),
        None => sim.add_app(node, Box::new(app)),
    };
}

/// Builds the grid from a fresh `Sim::new(seed)`, runs it to the end
/// and collects its simulated statistics.
///
/// # Panics
///
/// Panics if the bundled relay ASP fails to load or install.
pub fn run_grid(seed: u64, o: &GridOpts) -> GridRun {
    let t = Instant::now();
    let mut sim = Sim::new(seed);
    sim.telemetry.trace.configure(o.trace);
    if o.profile_sample > 1 {
        sim.telemetry.profile.set_sample(o.profile_sample);
    }
    let mut relays = Vec::with_capacity(CHAINS * HOPS);
    let mut endpoints = Vec::with_capacity(CHAINS);
    for c in 0..CHAINS {
        let src = sim.add_host(&format!("s{c}"), addr(10, c as u8, 0, 1));
        let mut prev = src;
        for h in 0..HOPS {
            let r = sim.add_router(&format!("c{c}r{h}"), addr(10, c as u8, h as u8 + 1, 254));
            sim.add_link(LinkSpec::ethernet_100(), &[prev, r]);
            relays.push(r);
            prev = r;
        }
        let dst_addr = addr(10, c as u8, HOPS as u8 + 1, 1);
        let dst = sim.add_host(&format!("d{c}"), dst_addr);
        sim.add_link(LinkSpec::ethernet_100(), &[prev, dst]);
        endpoints.push((src, dst, dst_addr));
    }
    sim.compute_routes();
    let topo_s = t.elapsed().as_secs_f64();

    let image = matches!(o.hook, HookKind::Planp(_) | HookKind::Conv)
        .then(|| load(FRAGILE_RELAY_ASP, Policy::no_delivery()).expect("fragile relay verifies"));

    let t = Instant::now();
    for &r in &relays {
        match o.hook {
            HookKind::None => {}
            HookKind::Pass => install(&mut sim, r, PassHook, &o.spans),
            HookKind::Native => install(&mut sim, r, NativeRelay, &o.spans),
            HookKind::Conv => {
                let shape = image.as_ref().expect("loaded above").prog.channels[0]
                    .shape
                    .clone();
                install(&mut sim, r, ConvHook { shape }, &o.spans);
            }
            HookKind::Planp(engine) => {
                let image = image.as_ref().expect("loaded above");
                let config = LayerConfig {
                    engine,
                    ..LayerConfig::default()
                };
                if o.spans.is_some() {
                    // The public constructor, so the layer can sit
                    // inside a span wrapper.
                    let (node_addr, name) = (sim.node(r).addr, sim.node(r).name.clone());
                    let layer =
                        PlanpLayer::new(image, config, node_addr, &name, &mut sim.telemetry)
                            .expect("relay ASP instantiates");
                    install(&mut sim, r, layer, &o.spans);
                } else {
                    install_planp(&mut sim, r, image, config).expect("install relay ASP");
                }
            }
        }
    }
    let install_s = t.elapsed().as_secs_f64();

    let mut sources = Vec::with_capacity(CHAINS);
    let mut collectors = Vec::with_capacity(CHAINS);
    for &(src, dst, dst_addr) in &endpoints {
        let source = SeqSource::new(dst_addr, o.packets, Duration::from_millis(INTERVAL_MS));
        sources.push(source.stats.clone());
        add_app(&mut sim, src, source, &o.spans);
        let collector = SeqCollector::new();
        collectors.push(collector.stats.clone());
        add_app(&mut sim, dst, collector, &o.spans);
    }

    let t = Instant::now();
    sim.run_until(SimTime::from_secs(o.packets * INTERVAL_MS / 1000 + 1));
    let run_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let snap = sim.metrics_snapshot();
    let snapshot_s = t.elapsed().as_secs_f64();

    let mut counts = check::snapshot_counts(&snap);
    let mut violations = Vec::new();
    check::snapshot_identities("relay grid", &snap, &mut violations);
    let sum = |f: &dyn Fn(usize) -> u64| (0..CHAINS).map(f).sum::<u64>();
    counts.insert("sent".into(), sum(&|c| sources[c].borrow().sent));
    counts.insert(
        "tail_resends".into(),
        sum(&|c| sources[c].borrow().tail_resends),
    );
    counts.insert(
        "retransmits".into(),
        sum(&|c| sources[c].borrow().retransmits),
    );
    counts.insert("unique".into(), sum(&|c| collectors[c].borrow().unique));
    counts.insert(
        "duplicates".into(),
        sum(&|c| collectors[c].borrow().duplicates),
    );
    counts.insert("mangled".into(), sum(&|c| collectors[c].borrow().mangled));
    counts.insert(
        "delivered".into(),
        endpoints
            .iter()
            .map(|&(_, dst, _)| sim.node(dst).delivered)
            .sum(),
    );
    counts.insert("trace_recorded".into(), sim.telemetry.trace.recorded());
    counts.insert("trace_evicted".into(), sim.telemetry.trace.evicted());

    let reads = o.reads.then(|| {
        let t = Instant::now();
        let forest = TraceForest::from_log(&sim.telemetry.trace);
        let forest_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let chrome = planp_telemetry::chrome_trace(&forest, &sim.telemetry.nodes);
        let chrome_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(planp_telemetry::prometheus(&snap));
        let prom_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(sim.telemetry.profile.to_json());
        black_box(sim.telemetry.profile.collapsed_flame());
        let profile_s = t.elapsed().as_secs_f64();
        counts.insert("forest_spans".into(), forest.spans().count() as u64);
        counts.insert("chrome_bytes".into(), chrome.len() as u64);
        Reads {
            forest_s,
            chrome_s,
            chrome_bytes: chrome.len(),
            prom_s,
            profile_s,
        }
    });

    GridRun {
        topo_s,
        install_s,
        run_s,
        snapshot_s,
        reads,
        counts,
        violations,
    }
}

fn workload_opts(telemetry: bool, hook: HookKind) -> GridOpts {
    let mut o = GridOpts::new(hook);
    if telemetry {
        o = o.tracing(TraceConfig::all());
        o.reads = true;
    }
    o
}

/// The twin must do the same job: same datagrams sent, delivered and
/// received once each.
fn check_twin(asp: &Counts, native: &Counts, out: &mut Vec<String>) {
    for k in [
        "sent",
        "tail_resends",
        "delivered",
        "unique",
        "duplicates",
        "mangled",
    ] {
        if asp.get(k) != native.get(k) {
            out.push(format!(
                "native relay twin differs from the ASP run: {k} = {:?} vs {:?}",
                native.get(k),
                asp.get(k)
            ));
        }
    }
}

/// The plain run of either relay workload: every end-to-end metric.
pub fn plain(run: &mut Run, telemetry: bool) -> Report {
    let mut rep = Report::default();
    let seed = run.seed;
    let asp_opts = workload_opts(telemetry, HookKind::Planp(Engine::Jit));
    let native_opts = workload_opts(telemetry, HookKind::Native);

    // Untimed warm-up: the same scenario at a sixth of the length.
    for o in [&asp_opts, &native_opts] {
        black_box(
            run_grid(
                seed,
                &GridOpts {
                    packets: RUNG_PACKETS,
                    ..o.clone()
                },
            )
            .counts,
        );
    }

    let (mut asp, mut native) = (Series::default(), Series::default());
    let mut setups = Chunks::default();
    let idle = GridOpts {
        packets: 0,
        ..asp_opts.clone()
    };
    let mut first = Counts::new();
    let pinned = check::pinned_at(&run.workload, seed);
    let reps = run.reps(3, |run, i| {
        let (a, ta) = run.clock.time(|| run_grid(seed, &asp_opts));
        // Set-up: the whole scenario call with nothing to send.
        setups.sample(&mut run.clock, || {
            black_box(run_grid(seed, &idle).counts);
        });
        let (n, tn) = run.clock.time(|| run_grid(seed, &native_opts));
        asp.push(ta);
        native.push(tn);
        rep.violations
            .extend(a.violations.iter().chain(&n.violations).cloned());
        check_twin(&a.counts, &n.counts, &mut rep.violations);
        let counts = check::pair_counts(&a.counts, &n.counts);
        check::check_rep(
            &run.workload,
            pinned.as_ref(),
            i,
            &first,
            &counts,
            &mut rep.violations,
        );
        if i == 0 {
            first = counts;
        }
    });

    let expected = CHAINS as u64 * PACKETS;
    let unique = first["unique"];
    let dispatches = first["dispatches"];
    if dispatches != hops(PACKETS) {
        rep.violations.push(format!(
            "{dispatches} dispatches, but {} relay crossings were expected",
            hops(PACKETS)
        ));
    }
    rep.attempted = expected * reps as u64;
    rep.failed = expected.saturating_sub(unique) * reps as u64;
    let ops = hops(PACKETS) as f64;
    let per_dispatch = 1e9 / dispatches.max(1) as f64;
    rep.set_timing("ops_per_s", ops / asp.median_s(), ops / asp.raw_median_s());
    rep.set_timing(
        "asp_overhead_ns",
        asp.median_over(&native) * per_dispatch,
        asp.raw_median_over(&native) * per_dispatch,
    );
    rep.set("done_share", unique as f64 / expected as f64);
    rep.set_timing(
        "setup_s",
        setups.percentile(50.0),
        setups.raw_percentile(50.0),
    );
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.note(format!(
        "op: one packet crossing one relay ({} per rep)",
        hops(PACKETS)
    ));
    rep.note(format!("ASP (JIT) rep:      {}", asp.describe()));
    rep.note(format!("native twin rep:    {}", native.describe()));
    rep.note(format!(
        "set-up, the scenario with no datagrams to send (topology + load + {} installs): {}",
        CHAINS * HOPS,
        setups.describe()
    ));
    rep.counts = first;
    rep
}

/// One rung of the hook-swap ladder.
struct Rung {
    name: &'static str,
    opts: GridOpts,
}

fn ladder_rungs(telemetry_only: bool) -> Vec<Rung> {
    let jit = HookKind::Planp(Engine::Jit);
    let rung = |name, mut opts: GridOpts| {
        opts.packets = RUNG_PACKETS;
        Rung { name, opts }
    };
    let mut noprof = GridOpts::new(jit);
    noprof.profile_sample = 1 << 20;
    let mut rungs = vec![
        rung("planp", GridOpts::new(jit)),
        rung("trace_all", GridOpts::new(jit).tracing(TraceConfig::all())),
        rung(
            "trace_1in16",
            GridOpts::new(jit).tracing(TraceConfig::sampled(16)),
        ),
    ];
    if !telemetry_only {
        rungs.extend([
            rung("bare", GridOpts::new(HookKind::None)),
            rung("pass", GridOpts::new(HookKind::Pass)),
            rung("conv", GridOpts::new(HookKind::Conv)),
            rung("native", GridOpts::new(HookKind::Native)),
            rung("planp_noprof", noprof),
            rung(
                "planp_interp",
                GridOpts::new(HookKind::Planp(Engine::Interp)),
            ),
        ]);
    }
    rungs
}

/// Walks the ladder: every pass runs every rung once (so a change of
/// machine speed hits all rungs alike); at least two passes, more while
/// they fit. Returns speed-corrected ns per relay hop (`run_until`
/// only) and the trace events the `trace_all` rung recorded.
fn ladder(run: &mut Run, rungs: &[Rung], rep: &mut Report) -> (Vec<f64>, u64) {
    let seed = run.seed;
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut recorded = 0;
    let passes = run.reps(2, |run, _| {
        for (i, r) in rungs.iter().enumerate() {
            let (g, t) = run.clock.time(|| run_grid(seed, &r.opts));
            samples[i].push(g.run_s * t.factor * 1e9 / hops(RUNG_PACKETS) as f64);
            if r.name == "trace_all" {
                recorded = g.counts["trace_recorded"];
            }
            if g.counts["unique"] != CHAINS as u64 * RUNG_PACKETS {
                rep.violations.push(format!(
                    "rung {}: {} of {} datagrams arrived",
                    r.name,
                    g.counts["unique"],
                    CHAINS as u64 * RUNG_PACKETS
                ));
            }
        }
    });
    rep.note(format!(
        "ladder: {} rungs x {passes} passes of {} hops, median ns per relay hop (run_until only)",
        rungs.len(),
        hops(RUNG_PACKETS)
    ));
    (samples.iter().map(|s| stats::median(s)).collect(), recorded)
}

/// What the alternating plain and spanned reps of a layers run gave.
struct SpanReps {
    plain: Series,
    spanned: Series,
    /// Speed-corrected seconds, one per plain rep.
    topo: Vec<f64>,
    install: Vec<f64>,
    snapshot: Vec<f64>,
    /// The telemetry workload's reads with their rep's speed factor.
    reads: Vec<(Reads, f64)>,
    /// The last spanned rep's log and speed factor.
    log: SharedLog,
    factor: f64,
}

/// (1) Spans: plain and spanned reps side by side, so the span overhead
/// is a difference of neighbours. The plain reps' counts become the
/// report's; the spanned reps must simulate exactly the same.
fn span_reps(run: &mut Run, opts: &GridOpts, rep: &mut Report) -> SpanReps {
    let seed = run.seed;
    let span_cap = (hops(PACKETS) + 2 * CHAINS as u64 * (PACKETS + TAIL_RESENDS + 2) + 16) as usize;
    let (mut plain, mut spanned) = (Series::default(), Series::default());
    let (mut topo, mut install, mut snapshot, mut reads) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SPAN_PAIRS {
        let (p, tp) = run.clock.time(|| run_grid(seed, opts));
        plain.push(tp);
        topo.push(p.topo_s * tp.factor);
        install.push(p.install_s * tp.factor);
        snapshot.push(p.snapshot_s * tp.factor);
        reads.extend(p.reads.map(|r| (r, tp.factor)));
        rep.violations.extend(p.violations.iter().cloned());
        check::check_rep(
            &run.workload,
            None,
            i,
            &rep.counts,
            &p.counts,
            &mut rep.violations,
        );
        if i == 0 {
            rep.counts = p.counts;
        }

        let log = SpanLog::shared(span_cap, replay::MAX_PACKETS);
        let with_spans = GridOpts {
            spans: Some(log.clone()),
            ..opts.clone()
        };
        let (g, ts) = run.clock.time(|| {
            let root = log.borrow_mut().enter(Layer::Rep, 0, 0);
            let g = run_grid(seed, &with_spans);
            log.borrow_mut().exit(root);
            g
        });
        log.borrow_mut().close();
        spanned.push(ts);
        for k in ["events", "dispatches", "vm_steps", "unique", "delivered"] {
            if g.counts[k] != rep.counts[k] {
                rep.violations.push(format!(
                    "spans changed the simulation: {k} = {} with spans, {} without",
                    g.counts[k], rep.counts[k]
                ));
            }
        }
        last = Some((log, ts.factor));
    }
    let (log, factor) = last.expect("span reps ran");
    SpanReps {
        plain,
        spanned,
        topo,
        install,
        snapshot,
        reads,
        log,
        factor,
    }
}

/// Everything the spans and the plain reps' counts say; returns the
/// median hook span in nanoseconds.
fn report_spans(run: &Run, s: &SpanReps, rep: &mut Report) -> f64 {
    let log = s.log.borrow();
    if let Some(dir) = &run.out {
        let path = dir.join(format!("{}.spans.jsonl", run.workload));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans::write_jsonl(&log.spans, &mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => rep.note(format!(
                "wrote {} spans to {}",
                log.spans.len(),
                path.display()
            )),
            Err(e) => rep
                .violations
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let by_layer = spans::self_time_by_layer(&log.spans);
    // (calls, speed-corrected self seconds) of a layer.
    let of = |layer: Layer| {
        by_layer
            .iter()
            .find(|(l, _, _)| *l == layer)
            .map_or((0, 0.0), |&(_, n, ns)| (n, ns as f64 * s.factor / 1e9))
    };
    let (_, netsim_s) = of(Layer::Rep);
    let (hook_calls, hook_s) = of(Layer::Runtime);
    let (app_calls, app_s) = of(Layer::Apps);
    let mut hook_ns: Vec<f64> = log
        .spans
        .iter()
        .filter(|sp| sp.layer == Layer::Runtime)
        .map(|sp| sp.dur_ns() as f64 * s.factor)
        .collect();
    let top = stats::highest_supported_percentile(hook_ns.len()).min(99.0);
    let hook_p = stats::percentiles(&mut hook_ns, &[50.0, top]);

    let c = rep.counts.clone();
    rep.set_sim_counts(&c, s.plain.median_s());
    rep.set(
        "netsim.self_ns_per_event",
        netsim_s * 1e9 / c["events"].max(1) as f64,
    );
    rep.set("netsim.topo_build_us", stats::median(&s.topo) * 1e6);
    rep.set("apps.calls", app_calls as f64);
    rep.set(
        "apps.self_ns_per_call",
        app_s * 1e9 / app_calls.max(1) as f64,
    );
    rep.set("runtime.hook_ns_p50", hook_p[0]);
    rep.set("runtime.hook_ns_p99", hook_p[1]);
    rep.set(
        "runtime.install_us_per_node",
        stats::median(&s.install) / (CHAINS * HOPS) as f64 * 1e6,
    );
    rep.set("telemetry.snapshot_us", stats::median(&s.snapshot) * 1e6);
    rep.set(
        "telemetry.events_kept",
        (c["trace_recorded"] - c["trace_evicted"]) as f64,
    );
    rep.set("telemetry.events_evicted", c["trace_evicted"] as f64);
    rep.set(
        "failed_share",
        1.0 - c["unique"] as f64 / (CHAINS as u64 * PACKETS) as f64,
    );
    rep.set(
        "bench.span_overhead_share",
        s.spanned.median_over(&s.plain) / s.plain.median_s(),
    );
    rep.set_bench(&s.plain);
    if !s.reads.is_empty() {
        let med = |f: &dyn Fn(&Reads) -> f64| {
            stats::median(&s.reads.iter().map(|(r, k)| f(r) * k).collect::<Vec<_>>())
        };
        let chrome_s = med(&|r| r.chrome_s);
        rep.set("telemetry.forest_build_ms", med(&|r| r.forest_s) * 1e3);
        rep.set("telemetry.chrome_export_ms", chrome_s * 1e3);
        rep.set(
            "telemetry.chrome_export_ns_per_byte",
            chrome_s * 1e9 / s.reads[0].0.chrome_bytes.max(1) as f64,
        );
        rep.set("telemetry.prom_export_us", med(&|r| r.prom_s) * 1e6);
        rep.set("telemetry.profile_export_us", med(&|r| r.profile_s) * 1e6);
    }
    let sum_s = netsim_s + hook_s + app_s;
    rep.note(format!("plain rep:   {}", s.plain.describe()));
    rep.note(format!("spanned rep: {}", s.spanned.describe()));
    rep.note(format!(
        "self time by layer (last spanned rep, corrected): netsim {netsim_s:.4} s, runtime {hook_s:.4} s over {hook_calls} hook calls, apps {app_s:.4} s over {app_calls} calls; sum {sum_s:.4} s = {:.1}% of the plain rep",
        sum_s / s.plain.median_s() * 100.0
    ));
    rep.note(format!(
        "hook span percentiles over {} samples: p50 and p{top} (at least ten samples lie beyond it)",
        hook_ns.len()
    ));
    hook_p[0]
}

/// (3) Stage replay of the packets the hooks captured; returns the
/// nanoseconds per packet of the stages a hook call is made of.
fn report_replay(run: &mut Run, packets: &[Packet], rep: &mut Report) -> f64 {
    let (s, t) = run.clock.time(|| replay::replay(Kind::Relay, packets));
    rep.note(format!(
        "stage replay: {} captured relay packets, {} emitted, {:.1} steps per packet",
        s.packets, s.emitted, s.steps_per_packet
    ));
    rep.set("runtime.convert_in_ns.relay", s.convert_in_ns * t.factor);
    rep.set("runtime.convert_out_ns.relay", s.convert_out_ns * t.factor);
    rep.set("runtime.decode_attempts_per_dispatch", s.decode_attempts);
    rep.set("vm.jit_ns.relay", s.jit_ns * t.factor);
    rep.set("vm.interp_ns.relay", s.interp_ns * t.factor);
    rep.set("vm.native_ns.relay", s.native_ns * t.factor);
    rep.set(
        "vm.jit_ns_per_step",
        s.jit_ns * t.factor / s.steps_per_packet.max(1.0),
    );
    (s.convert_in_ns + s.convert_out_ns + s.jit_ns) * t.factor
}

/// The layers run of either relay workload.
pub fn layers(run: &mut Run, telemetry: bool) -> Report {
    let mut rep = Report::default();
    let opts = workload_opts(telemetry, HookKind::Planp(Engine::Jit));
    black_box(
        run_grid(
            run.seed,
            &GridOpts {
                packets: RUNG_PACKETS,
                ..opts.clone()
            },
        )
        .counts,
    );

    let reps = span_reps(run, &opts, &mut rep);
    let hook_p50 = report_spans(run, &reps, &mut rep);
    let staged = (!telemetry).then(|| report_replay(run, &reps.log.borrow().captured, &mut rep));
    drop(reps);

    // (2) Rungs: the same packets with the hook swapped. Adjacent
    // differences are the layer costs no wrapper can reach.
    let rungs = ladder_rungs(telemetry);
    let (ns, recorded) = ladder(run, &rungs, &mut rep);
    let at = |name: &str| {
        rungs
            .iter()
            .position(|r| r.name == name)
            .map_or(0.0, |i| ns[i])
    };
    for (r, v) in rungs.iter().zip(&ns) {
        rep.set(&format!("rung.{}_ns_per_hop", r.name), *v);
    }
    let events_per_hop = recorded as f64 / hops(RUNG_PACKETS) as f64;
    rep.set(
        "telemetry.trace_ns_per_kept_event",
        (at("trace_all") - at("planp")) / events_per_hop.max(1e-9),
    );
    rep.set(
        "telemetry.sampled16_ns_per_dispatch",
        at("trace_1in16") - at("planp"),
    );
    if let Some(staged) = staged {
        let profile = at("planp") - at("planp_noprof");
        rep.set("netsim.bare_ns_per_hop", at("bare"));
        rep.set("telemetry.profile_ns_per_dispatch", profile);
        rep.set("runtime.layer_self_ns", hook_p50 - staged - profile);
    }
    rep
}
