//! Soundness of the static per-packet cost bounds (PR: static analysis).
//!
//! The verifier claims that no packet can charge more VM steps than the
//! structural worst-case bound of the channel that handles it, on either
//! engine. Two independent checks:
//!
//! * **Scenario telemetry** — across the three traced paper scenarios,
//!   the runtime layer's `cost_bound_exceeded` counters must stay absent
//!   (the layer only bumps them on a violation) and the aggregate
//!   `vm_steps` of every channel must fit inside
//!   `dispatch × static_bound_steps`.
//! * **Seeded property test** — random packets through the bundled
//!   forwarder and HTTP gateway ASPs, run under both the interpreter and
//!   the JIT, must each stay within the per-packet bound for steps *and*
//!   send effects, and the JIT (which constant-folds) must never charge
//!   more than the interpreter.
//!
//! And one pin: the bounds themselves, for the whole corpus, against the
//! values computed before the analyses moved onto the shared worst-path
//! recurrence — sound-but-different would otherwise pass everything
//! above.

use planp::analysis::{compute_may_copy, cost_bounds, summarize, verify, Outcome, Policy};
use planp::lang::compile_front;
use planp::vm::env::{Effect, MockEnv};
use planp::vm::interp::Interp;
use planp::vm::jit;
use planp::vm::pkthdr::{addr, IpHdr, TcpHdr, UdpHdr};
use planp::vm::value::Value;
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig};
use planp_apps::corpus::CORPUS;
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};
use planp_telemetry::{MetricsSnapshot, TraceConfig};

/// Asserts the layer's static-bound cross-check held for a whole run.
fn assert_bounds_hold(m: &MetricsSnapshot, scenario: &str) {
    for (k, v) in &m.counters {
        assert!(
            !k.ends_with(".cost_bound_exceeded") || *v == 0,
            "{scenario}: {k} = {v} (static bound violated at runtime)"
        );
    }
    let mut checked = 0;
    for (k, steps) in &m.counters {
        let Some(prefix) = k.strip_suffix(".vm_steps") else {
            continue;
        };
        let dispatch = m
            .counters
            .get(&format!("{prefix}.dispatch"))
            .copied()
            .unwrap_or(0);
        let bound = m
            .counters
            .get(&format!("{prefix}.static_bound_steps"))
            .copied()
            .unwrap_or_else(|| panic!("{scenario}: no static bound recorded for {prefix}"));
        assert!(
            *steps <= dispatch.saturating_mul(bound),
            "{scenario}: {prefix} charged {steps} steps over {dispatch} dispatches, \
             bound {bound}/packet"
        );
        checked += 1;
    }
    assert!(checked > 0, "{scenario}: no per-channel vm_steps recorded");
}

#[test]
fn audio_scenario_stays_within_static_bounds() {
    let cfg = AudioConfig::constant_load(Adaptation::AspJit, 9450, 10);
    let (_, _, m) = run_audio_traced(&cfg, TraceConfig::default());
    assert_bounds_hold(&m, "audio");
}

#[test]
fn http_scenario_stays_within_static_bounds() {
    let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
    cfg.duration_s = 10;
    let (_, _, m) = run_http_traced(&cfg, TraceConfig::default());
    assert_bounds_hold(&m, "http");
}

#[test]
fn mpeg_scenario_stays_within_static_bounds() {
    let cfg = MpegConfig::new(2, true);
    let (_, _, m) = run_mpeg_traced(&cfg, TraceConfig::default());
    assert_bounds_hold(&m, "mpeg");
}

/// SplitMix64 — a tiny deterministic generator for the property tests.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One engine's threaded execution state during the property test.
struct Run {
    env: MockEnv,
    ps: Value,
    ss: Value,
}

/// A channel run on either engine: (env, ps, ss, pkt) → (ps', ss').
type ChanExec<'a> = dyn Fn(&mut MockEnv, Value, Value, Value) -> Result<(Value, Value), planp::vm::value::VmError>
    + 'a;

/// Engine-specific state initialization: globals, proto state, channel state.
type InitFn<'a> = dyn Fn(&mut MockEnv) -> (Vec<Value>, Value, Value) + 'a;

/// Runs one packet, returning (steps charged, send effects performed).
fn step(run: &mut Run, exec: &ChanExec<'_>, pkt: Value) -> (u64, u64) {
    let steps_before = run.env.steps;
    let effects_before = run.env.effects.len();
    let (ps, ss) = exec(&mut run.env, run.ps.clone(), run.ss.clone(), pkt).expect("channel run");
    run.ps = ps;
    run.ss = ss;
    let sends = run.env.effects[effects_before..]
        .iter()
        .filter(|e| matches!(e, Effect::Remote { .. } | Effect::Neighbor { .. }))
        .count() as u64;
    (run.env.steps - steps_before, sends)
}

/// Property: for `packets` random packets on channel `idx` of `src`, the
/// observed per-packet steps and sends never exceed the static bound, on
/// either engine, and JIT steps never exceed interpreter steps.
fn check_soundness(src: &str, idx: usize, mut make_pkt: impl FnMut(&mut SplitMix64) -> Value) {
    let prog = std::rc::Rc::new(compile_front(src).expect("front end"));
    let bound = cost_bounds(&prog).bound_for(idx);
    let (compiled, _) = jit::compile(prog.clone());
    let interp = Interp::new(&prog);

    let setup = |init: &InitFn<'_>| {
        let mut env = MockEnv::new(addr(10, 0, 0, 254));
        let (globals, ps, ss) = init(&mut env);
        env.steps = 0;
        env.effects.clear();
        (globals, Run { env, ps, ss })
    };
    let (ig, mut irun) = setup(&|env| {
        let g = interp.eval_globals(env).unwrap();
        let ps = interp.init_proto(&g, env).unwrap();
        let ss = interp.init_channel_state(idx, &g, env).unwrap();
        (g, ps, ss)
    });
    let (jg, mut jrun) = setup(&|env| {
        let g = compiled.eval_globals(env).unwrap();
        let ps = compiled.init_proto(&g, env).unwrap();
        let ss = compiled.init_channel_state(idx, &g, env).unwrap();
        (g, ps, ss)
    });

    let mut rng = SplitMix64(0x0C05_7B07);
    for i in 0..200 {
        let pkt = make_pkt(&mut rng);
        let (isteps, isends) = step(
            &mut irun,
            &|env, ps, ss, p| interp.run_channel(idx, &ig, ps, ss, p, env),
            pkt.clone(),
        );
        let (jsteps, jsends) = step(
            &mut jrun,
            &|env, ps, ss, p| compiled.run_channel(idx, &jg, ps, ss, p, env),
            pkt,
        );
        assert!(
            isteps <= bound.steps,
            "packet {i}: interpreter charged {isteps} > bound {}",
            bound.steps
        );
        assert!(
            jsteps <= isteps,
            "packet {i}: JIT charged {jsteps} > interpreter {isteps}"
        );
        assert!(
            isends <= bound.sends && jsends <= bound.sends,
            "packet {i}: sends {isends}/{jsends} > bound {}",
            bound.sends
        );
    }
}

fn random_blob(rng: &mut SplitMix64) -> Value {
    let r = rng.next();
    let len = (r % 48) as usize;
    Value::Blob(bytes::Bytes::from(vec![(r >> 32) as u8; len]))
}

#[test]
fn forwarder_random_packets_within_bound() {
    let src = std::fs::read_to_string("asps/forwarder.planp").expect("asp source");
    check_soundness(&src, 0, |rng| {
        let r = rng.next();
        let blob = random_blob(rng);
        Value::tuple(vec![
            Value::Ip(IpHdr::new(
                addr(10, 0, 0, (r % 200) as u8 + 1),
                addr(10, 0, 1, ((r >> 8) % 200) as u8 + 1),
                IpHdr::PROTO_UDP,
            )),
            Value::Udp(UdpHdr::new((r >> 16) as u16, (r >> 32) as u16)),
            blob,
        ])
    });
}

#[test]
fn http_gateway_random_packets_within_bound() {
    let src = std::fs::read_to_string("asps/http_gateway.planp").expect("asp source");
    let prog = compile_front(&src).expect("front end");
    let network = prog.chan_groups["network"][0];
    let (srv0, srv1, virt) = (addr(10, 0, 2, 1), addr(10, 0, 3, 1), addr(10, 9, 9, 9));
    check_soundness(&src, network, move |rng| {
        let r = rng.next();
        // Mix request, result, and pass-through traffic to cover every
        // branch of the gateway.
        let (sip, dip, sport, dport) = match r % 4 {
            0 => (
                addr(10, 0, 0, (r >> 8) as u8 % 8 + 1),
                virt,
                1024 + (r >> 16) as u16 % 64,
                80,
            ),
            1 => (srv0, addr(10, 0, 0, 5), 80, 5000),
            2 => (srv1, addr(10, 0, 0, 6), 80, 6000),
            _ => (
                addr(10, 0, 0, 7),
                addr(10, 0, 1, 7),
                (r >> 16) as u16,
                (r >> 24) as u16,
            ),
        };
        let blob = random_blob(rng);
        Value::tuple(vec![
            Value::Ip(IpHdr::new(sip, dip, IpHdr::PROTO_TCP)),
            Value::Tcp(TcpHdr::data(sport, dport, (r >> 40) as u32)),
            blob,
        ])
    });
}

/// Per corpus entry, in `CORPUS` order: per channel overload `(steps,
/// sends, inserts, evicts)`, the may-copy vector and the fix-point's
/// iteration count — computed at commit 25d2510, the parent of the PR
/// that replaced `cost::bound_expr`, the count plumbing of
/// `state::Cx::walk` and `summary::max_path_weight` with atoms over
/// `paths::worst_path`.
type Pinned = (
    &'static str,
    &'static [(u64, u64, u64, u64)],
    &'static [bool],
    usize,
);
const PINNED_BOUNDS: &[Pinned] = &[
    ("audio_client", &[(63, 0, 0, 0)], &[false], 1),
    ("audio_router", &[(96, 1, 0, 0)], &[false], 1),
    ("audio_router_chaos", &[(119, 1, 0, 0)], &[false], 1),
    ("audio_router_hysteresis", &[(133, 1, 0, 0)], &[false], 1),
    ("audio_router_queue", &[(86, 1, 0, 0)], &[false], 1),
    ("forwarder", &[(8, 1, 0, 0)], &[false], 1),
    (
        "http_gateway",
        &[(6, 1, 0, 0), (54, 1, 1, 0)],
        &[false, false],
        1,
    ),
    (
        "http_gateway_3srv",
        &[(6, 1, 0, 0), (60, 1, 1, 0)],
        &[false, false],
        1,
    ),
    (
        "http_gateway_bounded",
        &[(6, 1, 0, 0), (55, 1, 1, 1)],
        &[false, false],
        1,
    ),
    (
        "http_gateway_failover",
        &[(6, 1, 0, 0), (45, 1, 0, 0)],
        &[false, false],
        1,
    ),
    (
        "http_gateway_porthash",
        &[(6, 1, 0, 0), (45, 1, 0, 0)],
        &[false, false],
        1,
    ),
    (
        "http_gateway_random",
        &[(6, 1, 0, 0), (53, 1, 1, 0)],
        &[false, false],
        1,
    ),
    (
        "mpeg_capture",
        &[(24, 0, 1, 0), (25, 0, 0, 0)],
        &[false, false],
        1,
    ),
    (
        "mpeg_monitor",
        &[(70, 0, 1, 0), (73, 1, 0, 0), (6, 0, 0, 0)],
        &[false, false, false],
        1,
    ),
    (
        "relay_pin",
        &[(16, 1, 0, 0), (16, 1, 0, 0)],
        &[false, false],
        1,
    ),
    (
        "reliable_relay",
        &[(109, 1, 1, 0), (31, 2, 0, 0), (52, 1, 0, 0)],
        &[true, true, true],
        3,
    ),
    ("bounce_a", &[(22, 1, 0, 0)], &[false], 1),
    ("bounce_b", &[(22, 1, 0, 0)], &[false], 1),
    ("bounce_pingpong", &[(20, 1, 0, 0)], &[false], 1),
    ("fragile_relay", &[(26, 1, 0, 0)], &[false], 1),
    ("neighbor_pingpong", &[(13, 1, 0, 0)], &[false], 1),
    (
        "shuttle_a",
        &[(8, 1, 0, 0), (22, 1, 0, 0)],
        &[false, false],
        1,
    ),
    (
        "shuttle_b",
        &[(8, 1, 0, 0), (22, 1, 0, 0)],
        &[false, false],
        1,
    ),
    ("silent_drop", &[(17, 1, 0, 0)], &[false], 1),
    ("state_leak", &[(22, 1, 1, 0)], &[false], 1),
];

/// The files whose strict verdict rejects duplication with `E003`, at
/// the same commit.
const PINNED_E003: &[&str] = &["asps/reliable_relay.planp"];

#[test]
fn corpus_bounds_equal_the_values_pinned_before_the_shared_recurrence() {
    assert_eq!(PINNED_BOUNDS.len(), CORPUS.len());
    let mut e003 = Vec::new();
    for (asp, (name, channels, may_copy, iterations)) in CORPUS.iter().zip(PINNED_BOUNDS) {
        assert_eq!(asp.name, *name, "table is in CORPUS order");
        let tp = compile_front(asp.src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sum = summarize(&tp);
        let got: Vec<(u64, u64, u64, u64)> = cost_bounds(&tp)
            .channels
            .iter()
            .zip(&sum.state.channels)
            .map(|(c, s)| {
                (
                    c.bound.steps,
                    c.bound.sends,
                    s.counts.inserts,
                    s.counts.evicts,
                )
            })
            .collect();
        assert_eq!(got, *channels, "{name}: (steps, sends, inserts, evicts)");
        let dup = compute_may_copy(&tp, &sum);
        assert_eq!(dup.may_copy, *may_copy, "{name}: may_copy");
        assert_eq!(dup.iterations, *iterations, "{name}: fix-point iterations");
        let report = verify(&tp, Policy::strict());
        assert_eq!(report.stats.dup_iterations, *iterations, "{name}");
        if let Outcome::Rejected(errs) = &report.duplication {
            if errs.iter().any(|d| d.code == "E003") {
                e003.push(asp.path);
            }
        }
    }
    assert_eq!(e003, PINNED_E003);
}
