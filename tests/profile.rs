//! Soundness of the per-site execution profiler (PR: always-on VM
//! profiler).
//!
//! The profiler claims that every charged VM step is attributed to
//! exactly one source site, identically on both engines, and that no
//! site ever observes more steps than its static per-site bound allows.
//! Four independent checks:
//!
//! * **Attribution identity** — on every dispatch of a seeded
//!   200-packet run, the per-site charges recorded through
//!   `NetEnv::charge_site` sum to exactly the aggregate
//!   `charge_steps` total, on both the interpreter and the JIT.
//! * **Engine agreement** — the interpreter's and the JIT's per-site
//!   charge trails are identical per dispatch (order included), so the
//!   merged site profiles of the two engines are byte-identical.
//! * **Corpus agreement** — every bundled ASP (`asps/*.planp`,
//!   `asps/buggy/*.planp`), every channel overload, 200 seeded packets
//!   each with state threaded from packet to packet: outcome, effects,
//!   step totals, per-site trails in order, send-site and table-write
//!   trails, timers and output are identical between the interpreter,
//!   the bytecode tier fed the packet as a tuple, and the bytecode tier
//!   with the packet decoded from its wire form straight into its
//!   registers (the runtime's entry), errors included.
//! * **Scenario utilization** — across the three traced paper
//!   scenarios, every observed site stays at or under `static bound ×
//!   dispatches` (utilization ≤ 1000‰), no dispatch miscounts
//!   (`mismatches = 0`), and the profile exports are byte-stable
//!   across a double run.

use std::collections::BTreeMap;

use planp::analysis::site_bounds;
use planp::lang::compile_front;
use planp::runtime::convert::{packet_to_parts, value_to_packet};
use planp::telemetry::ProfileRegistry;
use planp::vm::env::MockEnv;
use planp::vm::interp::Interp;
use planp::vm::jit;
use planp::vm::pkthdr::{addr, IpHdr, TcpHdr, UdpHdr};
use planp::vm::value::Value;
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};
use planp_telemetry::TraceConfig;

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

/// Runs one packet, returning (steps charged, per-site charge trail).
fn step(run: &mut Run, exec: &ChanExec<'_>, pkt: Value) -> (u64, Vec<(u32, u64)>) {
    let steps_before = run.env.steps;
    let sites_before = run.env.site_steps.len();
    let (ps, ss) = exec(&mut run.env, run.ps.clone(), run.ss.clone(), pkt).expect("channel run");
    run.ps = ps;
    run.ss = ss;
    let trail = run.env.site_steps[sites_before..].to_vec();
    (run.env.steps - steps_before, trail)
}

/// Property: for `packets` random packets on channel `idx` of `src`,
/// every dispatch's per-site charges sum to its aggregate on both
/// engines, the two engines' charge trails are identical, and the
/// merged profile never exceeds `static per-site bound × dispatches`.
fn check_attribution(src: &str, idx: usize, mut make_pkt: impl FnMut(&mut SplitMix64) -> Value) {
    let prog = std::rc::Rc::new(compile_front(src).expect("front end"));
    let report = site_bounds(&prog, src);
    let bounds: BTreeMap<u32, u64> = report.channels[idx]
        .sites
        .iter()
        .map(|s| (s.site, s.bound_steps))
        .collect();
    let (compiled, _) = jit::compile(prog.clone());
    let interp = Interp::new(&prog);

    let mut irun = {
        let mut env = MockEnv::new(addr(10, 0, 0, 254));
        let g = interp.eval_globals(&mut env).unwrap();
        let ps = interp.init_proto(&g, &mut env).unwrap();
        let ss = interp.init_channel_state(idx, &g, &mut env).unwrap();
        env.steps = 0;
        env.site_steps.clear();
        (g, Run { env, ps, ss })
    };
    let mut jrun = {
        let mut env = MockEnv::new(addr(10, 0, 0, 254));
        let g = compiled.eval_globals(&mut env).unwrap();
        let ps = compiled.init_proto(&g, &mut env).unwrap();
        let ss = compiled.init_channel_state(idx, &g, &mut env).unwrap();
        env.steps = 0;
        env.site_steps.clear();
        (g, Run { env, ps, ss })
    };

    let mut profile: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rng = SplitMix64(0x0C05_7B07);
    let packets = 200u64;
    for i in 0..packets {
        let pkt = make_pkt(&mut rng);
        let (ig, run) = &mut irun;
        let (isteps, itrail) = step(
            run,
            &|env, ps, ss, p| interp.run_channel(idx, ig, ps, ss, p, env),
            pkt.clone(),
        );
        let (jg, run) = &mut jrun;
        let (jsteps, jtrail) = step(
            run,
            &|env, ps, ss, p| compiled.run_channel(idx, jg, ps, ss, p, env),
            pkt,
        );
        let attributed: u64 = itrail.iter().map(|(_, n)| n).sum();
        assert_eq!(
            attributed, isteps,
            "packet {i}: interpreter per-site charges do not sum to its aggregate"
        );
        assert_eq!(
            itrail, jtrail,
            "packet {i}: engines attribute steps to different sites"
        );
        assert_eq!(jsteps, isteps, "packet {i}: engines disagree on steps");
        for (site, n) in itrail {
            *profile.entry(site).or_insert(0) += n;
        }
    }

    // The merged observation against the static per-site bounds: every
    // observed site is known, and utilization never exceeds 1.0.
    assert_eq!(irun.1.env.site_profile(), jrun.1.env.site_profile());
    for (site, observed) in &profile {
        let bound = *bounds
            .get(site)
            .unwrap_or_else(|| panic!("site {site} observed but not statically known"));
        assert!(
            *observed <= bound * packets,
            "site {site}: observed {observed} > bound {bound} x {packets} dispatches"
        );
    }
}

fn random_blob(rng: &mut SplitMix64) -> Value {
    let r = rng.next();
    let len = (r % 48) as usize;
    Value::Blob(bytes::Bytes::from(vec![(r >> 32) as u8; len]))
}

#[test]
fn forwarder_attribution_is_exact_and_engine_identical() {
    let src = std::fs::read_to_string("asps/forwarder.planp").expect("asp source");
    check_attribution(&src, 0, |rng| {
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
fn http_gateway_attribution_is_exact_and_engine_identical() {
    let src = std::fs::read_to_string("asps/http_gateway.planp").expect("asp source");
    let prog = compile_front(&src).expect("front end");
    let network = prog.chan_groups["network"][0];
    let (srv0, srv1, virt) = (addr(10, 0, 2, 1), addr(10, 0, 3, 1), addr(10, 9, 9, 9));
    check_attribution(&src, network, move |rng| {
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

// ---- the whole bundled corpus, both engines -------------------------------

use planp::lang::tast::{TExprKind, TProgram};
use planp::lang::types::{PacketShape, TransportKind, Type};

/// Integer and host literals of a program: drawing header fields from
/// them steers generated packets into the branches that test for them.
fn literal_pool(prog: &TProgram) -> (Vec<i64>, Vec<u32>) {
    let (mut ints, mut hosts) = (vec![0, 1, 80], vec![addr(10, 0, 0, 1)]);
    let bodies = prog.globals.iter().map(|g| &g.init);
    let bodies = bodies.chain(prog.funs.iter().map(|f| &f.body));
    let bodies = bodies.chain(prog.channels.iter().map(|c| &c.body));
    for body in bodies {
        body.walk(&mut |e| match &e.kind {
            TExprKind::Int(n) => ints.push(*n),
            TExprKind::Host(h) => hosts.push(*h),
            _ => {}
        });
    }
    (ints, hosts)
}

/// A packet value of `shape`, fields drawn half from `pool`.
fn shaped_packet(shape: &PacketShape, pool: &(Vec<i64>, Vec<u32>), rng: &mut SplitMix64) -> Value {
    let (ints, hosts) = pool;
    let int = |rng: &mut SplitMix64| match rng.next() % 2 {
        0 => ints[(rng.next() % ints.len() as u64) as usize],
        _ => (rng.next() % 70_000) as i64 - 100,
    };
    let host = |rng: &mut SplitMix64| match rng.next() % 2 {
        0 => hosts[(rng.next() % hosts.len() as u64) as usize],
        _ => addr(10, 0, (rng.next() % 4) as u8, (rng.next() % 250) as u8 + 1),
    };
    // Ports mostly from the literals that look like ports.
    let ports: Vec<u16> = ints
        .iter()
        .filter(|n| (2..65_536).contains(*n))
        .map(|n| *n as u16)
        .collect();
    let port = |rng: &mut SplitMix64| match rng.next() % 4 {
        0 => rng.next() as u16,
        _ => ports[(rng.next() % ports.len() as u64) as usize],
    };
    let (src, dst) = (host(rng), host(rng));
    let (sport, dport) = (port(rng), port(rng));
    let mut parts = Vec::new();
    match shape.transport {
        TransportKind::Tcp => {
            parts.push(Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_TCP)));
            parts.push(Value::Tcp(TcpHdr::data(sport, dport, rng.next() as u32)));
        }
        TransportKind::Udp => {
            parts.push(Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_UDP)));
            parts.push(Value::Udp(UdpHdr::new(sport, dport)));
        }
        TransportKind::None => parts.push(Value::Ip(IpHdr::new(src, dst, 0))),
    }
    for ty in &shape.payload {
        parts.push(match ty {
            Type::Int => Value::Int(int(rng)),
            Type::Bool => Value::Bool(rng.next() & 1 == 1),
            Type::Char => Value::Char((b'A' + (rng.next() % 26) as u8) as char),
            Type::Host => Value::Host(host(rng)),
            Type::Str => Value::str(["", "GET /doc/7", "x"][(rng.next() % 3) as usize]),
            Type::Blob => {
                // Audio and relay framing: a marker byte, then a body.
                let len = (rng.next() % 40) as usize;
                let mut bytes = vec![(int(rng) & 0xff) as u8; len];
                bytes.extend((0..len).map(|i| (i * 37) as u8));
                Value::Blob(bytes::Bytes::from(bytes))
            }
            other => panic!("{other} is not a payload type"),
        });
    }
    Value::tuple(parts)
}

/// One engine's installed state.
struct Installed {
    env: MockEnv,
    globals: Vec<Value>,
    ps: Value,
    ss: Vec<Value>,
}

#[test]
fn every_bundled_asp_is_engine_identical_on_200_seeded_packets() {
    let files = planp::apps::corpus::CORPUS;
    assert!(files.len() >= 20, "the corpus shrank: {}", files.len());

    let (mut dispatches, mut failed, mut sent, mut written) = (0u64, 0u64, 0usize, 0usize);
    for file in files {
        let name = file.path;
        let prog = std::rc::Rc::new(compile_front(file.src).expect("front end"));
        let (compiled, _) = jit::compile(prog.clone());
        let interp = Interp::new(&prog);
        let pool = literal_pool(&prog);
        let me = pool.1[pool.1.len() / 2];

        let install = |jit: bool| {
            let mut env = MockEnv::new(me);
            let globals = if jit {
                compiled.eval_globals(&mut env)
            } else {
                interp.eval_globals(&mut env)
            }
            .expect("globals");
            let ps = if jit {
                compiled.init_proto(&globals, &mut env)
            } else {
                interp.init_proto(&globals, &mut env)
            }
            .expect("proto state");
            let ss = (0..prog.channels.len())
                .map(|i| {
                    if jit {
                        compiled.init_channel_state(i, &globals, &mut env)
                    } else {
                        interp.init_channel_state(i, &globals, &mut env)
                    }
                    .expect("channel state")
                })
                .collect();
            Installed {
                env,
                globals,
                ps,
                ss,
            }
        };
        // Interpreter, tuple-fed bytecode, register-fed bytecode.
        let (mut i, mut j, mut r) = (install(false), install(true), install(true));
        assert_eq!(i.env.site_steps, j.env.site_steps, "{name}: initializers");

        let mut rng = SplitMix64(0xA5B_C0DE);
        for n in 0..200 * prog.channels.len() {
            let idx = n % prog.channels.len();
            let pkt = shaped_packet(&prog.channels[idx].shape, &pool, &mut rng);
            // What the node observes moves too, identically for both.
            let (load, queue) = ((rng.next() % 12_000) as i64, (rng.next() % 40) as i64);
            for env in [&mut i.env, &mut j.env, &mut r.env] {
                env.now_ms += 20;
                env.load = load;
                env.queue = queue;
                env.steps = 0;
                env.site_steps.clear();
                env.send_sites.clear();
                env.table_writes.clear();
                env.effects.clear();
                env.timers.clear();
                env.output.clear();
            }
            let wire = value_to_packet(&pkt, None).expect("generated packets are packets");
            let shape = &prog.channels[idx].shape;
            let ri = interp.run_channel(
                idx,
                &i.globals,
                i.ps.clone(),
                i.ss[idx].clone(),
                pkt.clone(),
                &mut i.env,
            );
            let rj = compiled.run_channel(
                idx,
                &j.globals,
                j.ps.clone(),
                j.ss[idx].clone(),
                pkt,
                &mut j.env,
            );
            let rr = compiled
                .load_packet(idx, |regs| packet_to_parts(&wire, shape, regs))
                .expect("a packet's wire form decodes against its own shape")
                .run(&r.globals, r.ps.clone(), r.ss[idx].clone(), &mut r.env);
            failed += u64::from(ri.is_err());
            for (tier, got, engine) in [("tuple-fed", rj, &mut j), ("register-fed", rr, &mut r)] {
                let ctx = format!("{name} channel {idx} packet {n}, {tier}");
                match (&ri, got) {
                    (Ok((pi, si)), Ok((pj, sj))) => {
                        assert_eq!(pi.display(), pj.display(), "{ctx}: protocol state");
                        assert_eq!(si.display(), sj.display(), "{ctx}: channel state");
                        (engine.ps, engine.ss[idx]) = (pj, sj);
                    }
                    (Err(a), Err(b)) => assert_eq!(*a, b, "{ctx}: error"),
                    (a, b) => panic!("{ctx}: interp={a:?} bytecode={b:?}"),
                }
                let e = &engine.env;
                assert_eq!(i.env.steps, e.steps, "{ctx}: step total");
                assert_eq!(i.env.site_steps, e.site_steps, "{ctx}: site trail");
                assert_eq!(i.env.send_sites, e.send_sites, "{ctx}: send sites");
                assert_eq!(i.env.table_writes, e.table_writes, "{ctx}: table writes");
                assert_eq!(i.env.timers, e.timers, "{ctx}: timers");
                assert_eq!(i.env.output, e.output, "{ctx}: output");
                assert_eq!(
                    format!("{:?}", i.env.effects),
                    format!("{:?}", e.effects),
                    "{ctx}: effects"
                );
                assert_eq!(
                    e.site_steps.iter().map(|(_, n)| n).sum::<u64>(),
                    e.steps,
                    "{ctx}: Σ per-site == aggregate"
                );
            }
            if let Ok((pi, si)) = ri {
                (i.ps, i.ss[idx]) = (pi, si);
            }
            dispatches += 1;
            sent += j.env.effects.len();
            written += j.env.table_writes.len();
        }
    }
    // The corpus did real work: sends, table writes, and error paths.
    assert!(dispatches >= 200 * files.len() as u64);
    assert!(sent as u64 > dispatches / 2, "{sent} effects");
    assert!(written > 200, "{written} table writes");
    assert!(failed < dispatches / 4, "{failed} of {dispatches} failed");
}

/// The bytecode tier fuses the two shapes `superinstruction_candidates`
/// ranks where they take their plainest form. Over the corpus: it
/// fuses header compares only in programs where the analysis sees a
/// candidate, and the two programs the benchmark runs get the
/// instructions the profiler's ranking asked for.
#[test]
fn superinstructions_follow_the_static_candidates() {
    use planp::analysis::superinstruction_candidates;
    let fused_and_found = |name: &str| {
        let src = planp::apps::corpus::asp(name).expect("in the corpus").src;
        let prog = std::rc::Rc::new(compile_front(src).expect("front end"));
        let found = superinstruction_candidates(&prog, src);
        let count = |p: &str| found.iter().filter(|c| c.pattern == p).count();
        let (compiled, _) = jit::compile(prog.clone());
        (
            compiled.superinstructions(),
            (count("hdr_compare_branch"), count("table_forward")),
        )
    };
    for asp in planp::apps::corpus::CORPUS {
        let ((cmp, _), (hdr, _)) = fused_and_found(asp.name);
        // The analysis ranks one candidate per `if`, the compiler fuses
        // every compare in its condition. (A fused boolean-primitive
        // branch need not be ranked: the analysis only counts lookups
        // that feed a send.)
        let path = asp.path;
        assert!(cmp == 0 || hdr > 0, "{path}: {cmp} fused, no candidate");
    }
    // The relay: the port and length tests, and `ipDst(…) = thisHost()`,
    // whose right side the compare asks of the environment.
    assert_eq!(fused_and_found("fragile_relay").0, (3, 0));
    // The gateway: five header compares, and the `tblHas` lookup that
    // decides between the two forwarding arms.
    let (fused, found) = fused_and_found("http_gateway");
    assert_eq!(fused, (5, 1));
    assert!(found.1 >= 1, "the analysis ranks the lookup too");
}

/// Every gateway variant with a connection table looks its `(client,
/// port)` key up in registers: the table operations are the typed
/// instructions with an inline key, and the key tuple is never built.
#[test]
fn gateway_tables_take_their_keys_from_registers() {
    let mut with_tables = Vec::new();
    for asp in planp::apps::corpus::CORPUS {
        let prog = std::rc::Rc::new(compile_front(asp.src).expect("front end"));
        let census = jit::compile(prog).0.instruction_census();
        let count = |kind: &str| census.iter().find(|c| c.0 == kind).map_or(0, |c| c.1);
        if !asp.name.starts_with("http_gateway") || count("TblSet") == 0 {
            continue;
        }
        with_tables.push(asp.name);
        for kind in ["TblGet", "TblSet", "BrTblHas"] {
            assert!(count(kind) > 0, "{}: no {kind} in {census:?}", asp.name);
        }
        assert!(
            census
                .iter()
                .all(|c| !c.0.ends_with("Boxed") && c.0 != "Tuple"),
            "{}: {census:?}",
            asp.name
        );
    }
    assert_eq!(
        with_tables,
        [
            "http_gateway",
            "http_gateway_3srv",
            "http_gateway_bounded",
            "http_gateway_random"
        ]
    );
}

/// Asserts a whole run's profile registry honored the profiler's
/// soundness invariants.
fn assert_profile_sound(reg: &ProfileRegistry, scenario: &str) {
    assert_eq!(
        reg.mismatches(),
        0,
        "{scenario}: some dispatch's per-site charges did not sum to its aggregate"
    );
    let mut dispatched = 0u64;
    for sc in reg.scopes() {
        assert_eq!(
            sc.unknown_sites(),
            0,
            "{scenario}: scope {} observed sites without a static bound",
            sc.key()
        );
        assert_eq!(
            sc.steps,
            sc.sites().values().sum::<u64>(),
            "{scenario}: scope {} totals drifted from its site profile",
            sc.key()
        );
        dispatched += sc.dispatches;
    }
    assert!(dispatched > 0, "{scenario}: nothing was profiled");
    for row in reg.heatmap() {
        assert!(
            row.permille <= 1000,
            "{scenario}: site {} of {} at {}‰ of its static bound",
            row.site,
            row.scope,
            row.permille
        );
    }
}

#[test]
fn audio_scenario_profile_is_sound() {
    let cfg = AudioConfig::constant_load(Adaptation::AspJit, 9450, 5);
    let (_, t, _) = run_audio_traced(&cfg, TraceConfig::default());
    assert_profile_sound(&t.profile, "audio");
}

#[test]
fn http_scenario_profile_is_sound() {
    let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
    cfg.duration_s = 5;
    let (_, t, _) = run_http_traced(&cfg, TraceConfig::default());
    assert_profile_sound(&t.profile, "http");
}

#[test]
fn mpeg_scenario_profile_is_sound_and_byte_stable() {
    let cfg = MpegConfig::new(2, true);
    let (_, t1, _) = run_mpeg_traced(&cfg, TraceConfig::default());
    assert_profile_sound(&t1.profile, "mpeg");
    // Same seed ⇒ identical profile exports, byte for byte.
    let (_, t2, _) = run_mpeg_traced(&cfg, TraceConfig::default());
    assert_eq!(t1.profile.to_json(), t2.profile.to_json());
    assert_eq!(t1.profile.collapsed_flame(), t2.profile.collapsed_flame());
    assert_eq!(
        t1.profile.superinstruction_report(),
        t2.profile.superinstruction_report()
    );
}
