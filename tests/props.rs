//! Property-based tests over the language front end and the two
//! execution engines.
//!
//! The central property is **interpreter ≡ JIT**: for generated
//! well-typed programs, the portable interpreter and its specialization
//! must agree on results, printed output, emitted effects, and every
//! accounting trail (steps, per-site charges in order, send sites,
//! table writes) — the paper's whole implementation story rests on
//! this equivalence, and the bytecode tier charges by block where the
//! interpreter charges by node, so raises in mid-block are generated
//! on purpose.
//!
//! Generation uses the workspace's own deterministic RNG
//! (`netsim::rng::SplitMix64`) instead of an external property-testing
//! crate: each test derives its cases from fixed seeds, so failures are
//! reproducible by case index alone.

use netsim::rng::SplitMix64;
use planp::analysis::{verify, Policy};
use planp::lang::{parse_expr, parse_program, pretty};
use planp::vm::pkthdr::{addr, IpHdr, UdpHdr};
use planp::vm::{Interp, MockEnv, Value};
use std::rc::Rc;

// ---- generators --------------------------------------------------------

/// Well-typed integer expressions over the channel scope
/// (`ps : int`, `p : ip*udp*blob`), mirroring the old proptest strategy:
/// leaves are constants and scope references, interior nodes arithmetic,
/// comparisons, `let`, and `handle` forms.
fn gen_int_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.next_below(4) == 0 {
        return match rng.next_below(6) {
            0 => rng.next_below(100).to_string(),
            1 => format!("(0 - {})", 1 + rng.next_below(49)),
            2 => "ps".to_string(),
            3 => "blobLen(#3 p)".to_string(),
            4 => "charPos(#\"A\")".to_string(),
            _ => "strLen(\"hello\")".to_string(),
        };
    }
    let d = depth - 1;
    match rng.next_below(11) {
        0 => format!("({} + {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        1 => format!("({} - {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        2 => format!("({} * {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        3 => format!("({} div {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        4 => format!("({} mod {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        5 => {
            let (c, a, b) = (
                gen_int_expr(rng, d),
                gen_int_expr(rng, d),
                gen_int_expr(rng, d),
            );
            format!("(if {c} < {a} then {a} else {b})")
        }
        6 => {
            let (c, a) = (gen_int_expr(rng, d), gen_int_expr(rng, d));
            format!("(if {c} = {a} then {c} else {a})")
        }
        7 => format!(
            "(let val x : int = {} in (x + x) end)",
            gen_int_expr(rng, d)
        ),
        8 => format!(
            "(let val x : int = {} val y : int = {} in (x - y) end)",
            gen_int_expr(rng, d),
            gen_int_expr(rng, d)
        ),
        9 => format!("(({}) handle Div => 777)", gen_int_expr(rng, d)),
        _ => {
            let (a, b) = (gen_int_expr(rng, d), gen_int_expr(rng, d));
            format!("(if {a} < 5 andalso {b} > 2 then {a} else {b})")
        }
    }
}

fn channel_program(body_expr: &str) -> String {
    format!(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         ((println({body_expr}); ({body_expr}, ss)) handle _ => (0 - 99, ss))"
    )
}

fn udp_packet() -> Value {
    Value::tuple(vec![
        Value::Ip(IpHdr::new(
            addr(10, 0, 0, 1),
            addr(10, 0, 0, 2),
            IpHdr::PROTO_UDP,
        )),
        Value::Udp(UdpHdr::new(1, 2)),
        Value::Blob(bytes::Bytes::from_static(b"twelve bytes")),
    ])
}

/// Arbitrary (possibly non-ASCII, possibly garbage) source text.
fn gen_fuzz_string(rng: &mut SplitMix64) -> String {
    let len = rng.next_below(200) as usize;
    (0..len)
        .map(|_| match rng.next_below(10) {
            // Printable ASCII, biased toward language punctuation.
            0..=5 => (0x20 + rng.next_below(0x5f) as u8) as char,
            6 => "(){}[]<>=*#\"\\;,."
                .chars()
                .nth(rng.next_below(16) as usize)
                .unwrap(),
            7 => char::from_u32(0xA0 + rng.next_below(0x2000) as u32).unwrap_or('ü'),
            8 => '\n',
            _ => '\t',
        })
        .collect()
}

/// Both engines left the same trails, in the same order.
fn assert_same_accounting(interp: &MockEnv, jit: &MockEnv, ctx: &str) {
    assert_eq!(interp.output, jit.output, "{ctx}: output");
    assert_eq!(interp.steps, jit.steps, "{ctx}: step totals");
    assert_eq!(interp.site_steps, jit.site_steps, "{ctx}: per-site trail");
    assert_eq!(interp.send_sites, jit.send_sites, "{ctx}: send sites");
    assert_eq!(interp.table_writes, jit.table_writes, "{ctx}: table writes");
    assert_eq!(
        format!("{:?}", interp.effects),
        format!("{:?}", jit.effects),
        "{ctx}: effects"
    );
    let attributed: u64 = jit.site_steps.iter().map(|(_, n)| n).sum();
    assert_eq!(attributed, jit.steps, "{ctx}: Σ per-site == aggregate");
}

// ---- properties --------------------------------------------------------

/// The lexer and parser never panic, whatever the input.
#[test]
fn frontend_never_panics() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_0000 + case);
        let src = gen_fuzz_string(&mut rng);
        let _ = planp::lang::lexer::lex(&src);
        let _ = parse_program(&src);
    }
}

/// The pretty-printer is a fixed point under reparsing.
#[test]
fn pretty_print_round_trips() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_1000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let ast = parse_expr(&e).expect("generated expressions parse");
        let printed = pretty::expr(&ast);
        let reparsed =
            parse_expr(&printed).unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        assert_eq!(printed, pretty::expr(&reparsed), "case {case}");
    }
}

/// Interpreter and JIT agree on every generated program: same result
/// (or same exception), same printed output.
#[test]
fn interp_equals_jit() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_2000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let ps = rng.next_below(2000) as i64 - 1000;
        let src = channel_program(&e);
        let prog = Rc::new(
            planp::lang::compile_front(&src)
                .unwrap_or_else(|err| panic!("front end rejected {src}: {err}")),
        );
        let (compiled, _) = planp::vm::jit::compile(prog.clone());
        let interp = Interp::new(&prog);

        let mut env_i = MockEnv::new(7);
        let mut env_j = MockEnv::new(7);
        let ri = interp.run_channel(
            0,
            &[],
            Value::Int(ps),
            Value::Unit,
            udp_packet(),
            &mut env_i,
        );
        let rj = compiled.run_channel(
            0,
            &[],
            Value::Int(ps),
            Value::Unit,
            udp_packet(),
            &mut env_j,
        );
        match (ri, rj) {
            (Ok((pi, _)), Ok((pj, _))) => assert_eq!(pi.display(), pj.display(), "case {case}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
            (a, b) => panic!("divergence: interp={a:?} jit={b:?} for {e}"),
        }
        assert_same_accounting(&env_i, &env_j, &format!("case {case}: {e}"));
    }
}

/// The same with raises where a block-charging engine could get them
/// wrong: inside a user function's argument list, inside the callee
/// with the handler in the caller, under nested handlers, and uncaught
/// (no outer catch-all), over a send so effects are compared too.
#[test]
fn interp_equals_jit_when_raises_cross_blocks_and_frames() {
    let mut caught = 0;
    let mut uncaught = 0;
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0x5EED_7000 + case);
        let [a, b, c, d] = [0; 4].map(|_| gen_int_expr(&mut rng, 3));
        let ps = rng.next_below(40) as i64 - 20;
        let handler = match rng.next_below(3) {
            0 => " handle Div => (0 - 1, ss)",
            1 => " handle OutOfRange => (0 - 2, ss)",
            _ => "",
        };
        let src = format!(
            "fun ratio(a : int, b : int) : int = (a * 3) div (b mod 4)\n\
             fun pick(a : int, b : int, c : int) : int =\n\
               if a < b then ratio(b, c) else (ratio(c, a) handle Div => blobByte(mkBlob(2, 0), b))\n\
             channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             ((OnRemote(network, p);\n\
               (pick({a}, ratio({b}, {c}), {d}) + pick(ps, {a}, {b}), ss)){handler})"
        );
        let prog = Rc::new(
            planp::lang::compile_front(&src)
                .unwrap_or_else(|err| panic!("front end rejected {src}: {err}")),
        );
        let (compiled, _) = planp::vm::jit::compile(prog.clone());
        let interp = Interp::new(&prog);
        let mut env_i = MockEnv::new(7);
        let mut env_j = MockEnv::new(7);
        let shown = |r: Result<(Value, Value), _>| r.map(|(ps, ss)| (ps.display(), ss.display()));
        let ri = shown(interp.run_channel(
            0,
            &[],
            Value::Int(ps),
            Value::Unit,
            udp_packet(),
            &mut env_i,
        ));
        let rj = shown(compiled.run_channel(
            0,
            &[],
            Value::Int(ps),
            Value::Unit,
            udp_packet(),
            &mut env_j,
        ));
        assert_eq!(ri, rj, "case {case}: {src}");
        assert_same_accounting(&env_i, &env_j, &format!("case {case}: {src}"));
        match ri {
            Ok((ps, _)) if ps == "-1" || ps == "-2" => caught += 1,
            Err(_) => uncaught += 1,
            Ok(_) => {}
        }
    }
    assert!(
        caught > 8 && uncaught > 8,
        "{caught} caught, {uncaught} uncaught"
    );
}

/// Generated single-channel programs without sends never upset the
/// verifier's termination/duplication analyses (no sends = nothing to
/// prove wrong), and the verdict is deterministic.
#[test]
fn verifier_is_deterministic() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_3000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let src = channel_program(&e);
        let prog = planp::lang::compile_front(&src).expect("front end");
        let r1 = verify(&prog, Policy::no_delivery());
        let r2 = verify(&prog, Policy::no_delivery());
        assert!(r1.termination.is_proved(), "case {case}");
        assert!(r1.duplication.is_proved(), "case {case}");
        assert_eq!(r1.accepted(), r2.accepted(), "case {case}");
    }
}

/// Stateful programs (hash-table channel state, protocol-state
/// threading) stay equivalent across engines over a whole packet
/// sequence.
#[test]
fn interp_equals_jit_stateful() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x5EED_4000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let n_pkts = 1 + rng.next_below(11) as usize;
        let srcs: Vec<u32> = (0..n_pkts).map(|_| 1 + rng.next_below(5) as u32).collect();
        let src_prog = format!(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(8) is\n\
             let\n\
               val k : host = ipSrc(#1 p)\n\
               val n : int = (tblGet(ss, k) handle NotFound => 0) + (({e}) handle _ => 3)\n\
             in\n\
               (tblSet(ss, k, n); println(n); (ps + n, ss))\n\
             end"
        );
        let prog = Rc::new(planp::lang::compile_front(&src_prog).expect("front end"));
        let (compiled, _) = planp::vm::jit::compile(prog.clone());
        let interp = Interp::new(&prog);

        let mut env_i = MockEnv::new(7);
        let mut env_j = MockEnv::new(7);
        let mut ps_i = Value::Int(0);
        let mut ps_j = Value::Int(0);
        let mut ss_i = compiled
            .init_channel_state(0, &[], &mut env_i)
            .expect("state");
        let mut ss_j = interp
            .init_channel_state(0, &[], &mut env_j)
            .expect("state");
        // Initializers charge their sites but no dispatch aggregate.
        assert_eq!(env_i.site_steps, env_j.site_steps, "case {case}: init");
        env_i.site_steps.clear();
        env_j.site_steps.clear();
        for &src_host in &srcs {
            let pkt = |h: u32| {
                Value::tuple(vec![
                    Value::Ip(IpHdr::new(h, 99, IpHdr::PROTO_UDP)),
                    Value::Udp(UdpHdr::new(1, 2)),
                    Value::Blob(bytes::Bytes::from_static(b"abcdefgh")),
                ])
            };
            let ri = interp.run_channel(
                0,
                &[],
                ps_i.clone(),
                ss_i.clone(),
                pkt(src_host),
                &mut env_i,
            );
            let rj = compiled.run_channel(
                0,
                &[],
                ps_j.clone(),
                ss_j.clone(),
                pkt(src_host),
                &mut env_j,
            );
            match (ri, rj) {
                (Ok((pi, si)), Ok((pj, sj))) => {
                    assert_eq!(pi.display(), pj.display(), "case {case}");
                    ps_i = pi;
                    ss_i = si;
                    ps_j = pj;
                    ss_j = sj;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "case {case}");
                    break;
                }
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
        assert_same_accounting(&env_i, &env_j, &format!("case {case}: {e}"));
    }
}

/// The verifier never panics on generated programs *with sends*, and its
/// easy implications hold: a program whose self-sends keep the
/// destination, or re-assert one constant, always proves termination; a
/// program that can alternate between two pinned constants never does.
#[test]
fn verifier_fuzz_with_sends() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_5000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let pattern = rng.next_below(4) as u8;
        let pin = |host: &str| format!("OnRemote(network, (ipDestSet(#1 p, {host}), #2 p, #3 p))");
        let keep = "OnRemote(network, p)".to_string();
        let mask = "OnRemote(network, (ipSrcSet(#1 p, 10.0.0.9), #2 p, #3 p))".to_string();
        let (then_send, else_send) = match pattern {
            0 => (keep.clone(), keep),
            1 => (mask.clone(), mask),
            2 => (pin("10.0.0.9"), pin("10.0.0.9")),
            _ => (pin("10.0.0.9"), pin("10.0.0.8")),
        };
        let src = format!(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if (({e}) handle _ => 0) > 0 then {then_send} else {else_send}; (ps, ss))"
        );
        let prog = planp::lang::compile_front(&src).expect("front end");
        let report = verify(&prog, Policy::strict());
        let one_destination = pattern <= 2;
        assert_eq!(
            report.termination.is_proved(),
            one_destination,
            "pattern {pattern} gave {:?}",
            report.termination
        );
        // One send per path: always linear.
        assert!(report.duplication.is_proved(), "case {case}");
        assert!(report.stats.send_sites >= 2, "case {case}");
    }
}

/// A download sized to stress the explorer — 48 channels, each
/// forwarding unchanged, pinning its own constant and rewriting the
/// source toward seeded targets, so every (channel × constant ×
/// source-intact) combination is reachable — verifies without a panic,
/// well inside the state budget, and to the same graph on a second run.
#[test]
fn verifier_handles_a_hostile_state_space() {
    const CHANNELS: u64 = 48;
    let mut rng = SplitMix64::new(0x5EED_5800);
    let mut src = String::new();
    for i in 0..CHANNELS {
        let mut target = || rng.next_below(CHANNELS);
        let (keep, pin, mask) = (target(), target(), target());
        src.push_str(&format!(
            "channel c{i}(ps : int, ss : unit, p : ip*udp*blob) is\n\
             if ps = 0 then (OnRemote(c{keep}, p); (ps, ss))\n\
             else if ps = 1 then\n\
             (OnRemote(c{pin}, (ipDestSet(#1 p, 10.9.0.{}), #2 p, #3 p)); (ps, ss))\n\
             else (OnRemote(c{mask}, (ipSrcSet(#1 p, 10.0.0.9), #2 p, #3 p)); (ps, ss))\n",
            i + 1
        ));
    }
    let prog = planp::lang::compile_front(&src).expect("front end");
    let explore = || {
        let report = verify(&prog, Policy::strict());
        let mc = report.exhaustive.expect("every download is model-checked");
        assert!(!mc.exhausted, "{} states", mc.states);
        // Two constants pinned in turn around a cycle: a real loop.
        assert!(!report.termination.is_proved());
        assert_eq!(mc.loop_witnesses().count(), 1);
        (mc.states, mc.transitions)
    };
    let (states, transitions) = explore();
    assert!(states >= 2_000, "only {states} states");
    assert!(states < planp::analysis::DEFAULT_STATE_BUDGET);
    assert_eq!((states, transitions), explore());
}

/// Payload codec round-trips for arbitrary scalar payloads.
#[test]
fn payload_codec_round_trips() {
    use planp::lang::types::Type;
    use planp::vm::pkthdr::{decode_payload, encode_payload};
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_6000 + case);
        let c = (b'a' + rng.next_below(26) as u8) as char;
        let n = rng.next_u64() as i64;
        let h = rng.next_u64() as u32;
        let b = rng.next_below(2) == 1;
        let s: String = (0..rng.next_below(41))
            .map(|_| {
                const POOL: &[u8] =
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
                POOL[rng.next_below(POOL.len() as u64) as usize] as char
            })
            .collect();
        let vals = vec![
            Value::Char(c),
            Value::Int(n),
            Value::Host(h),
            Value::Bool(b),
            Value::Str(s.as_str().into()),
        ];
        let types = vec![Type::Char, Type::Int, Type::Host, Type::Bool, Type::Str];
        let bytes = encode_payload(&vals).expect("encodes");
        let decoded = decode_payload(&types, &bytes).expect("decodes");
        assert_eq!(decoded, vals, "case {case}");
    }
}
