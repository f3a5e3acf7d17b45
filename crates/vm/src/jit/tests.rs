//! The bytecode tier against the interpreter, node for node, and the
//! compiler's choices pinned by what it emits.

use super::ins::{flows_forward, Parts, Scalar, Src};
use super::*;
use crate::env::MockEnv;
use crate::interp::Interp;
use crate::pkthdr::{addr, IpHdr, UdpHdr};
use bytes::Bytes;
use planp_lang::compile_front;

fn both(src: &str) -> (Rc<TProgram>, CompiledProgram) {
    let tp = Rc::new(compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}")));
    let (cp, stats) = compile(tp.clone());
    assert!(stats.nodes > 0);
    (tp, cp)
}

#[test]
fn a_send_that_is_the_last_read_of_the_packet_moves_it() {
    // Per send of channel 0, in code order: does it move the packet?
    let moves = |body: &str| {
        let src = format!("channel network(ps : int, ss : unit, p : ip*udp*blob) is {body}");
        let (_, cp) = both(&src);
        let sends = cp.channels[0].body.code.iter().filter_map(|ins| match ins {
            Ins::SendRemote { pkt, .. } | Ins::SendNeighbor { pkt, .. } | Ins::Deliver { pkt } => {
                Some(matches!(pkt, Parts::Take { .. }))
            }
            _ => None,
        });
        sends.collect::<Vec<bool>>()
    };
    for (body, want) in [
        ("(OnRemote(network, p); (ps, ss))", &[true][..]),
        // The first send is followed by a read: it clones.
        (
            "(OnRemote(network, p); deliver(p); (ps, ss))",
            &[false, true],
        ),
        ("(OnRemote(network, p); (blobLen(#3 p), ss))", &[false]),
        (
            "(OnRemote(network, p); if udpDst(#2 p) = 1 then (ps, ss) else (ps, ss))",
            &[false],
        ),
        // Each arm's send is the last read on its own path.
        (
            "if ps = 0 then (deliver(p); (ps, ss)) else (OnRemote(network, p); (ps, ss))",
            &[true, true],
        ),
        (
            "if ipDst(#1 p) = thisHost() then (deliver(p); (ps + 1, ss)) \
             else (OnRemote(network, p); (ps, ss))",
            &[true, true],
        ),
        // A raise after the send may reach a handler that reads `p`.
        (
            "((OnRemote(network, p); (1 div ps, ss)) handle Div => (blobLen(#3 p), ss))",
            &[false],
        ),
        (
            "((OnRemote(network, p); (1 div ps, ss)) handle Div => (ps, ss))",
            &[true],
        ),
        // A literal tuple is computed into temporaries of its own.
        (
            "(OnRemote(network, (#1 p, #2 p, #3 p)); (ps, ss))",
            &[false],
        ),
        ("(OnNeighbor(network, ipSrc(#1 p), p); (ps, ss))", &[true]),
    ] {
        assert_eq!(moves(body), want, "{body}");
    }
}

#[test]
fn the_control_flow_check_rejects_a_unit_that_goes_back_or_leaves() {
    let ret = || Ins::Ret { src: Src::Const(0) };
    let (jump, flush) = (|to| Ins::Jump { to }, || Ins::Flush);
    let br = |to| Ins::Br {
        cond: Scalar::Imm(1),
        to,
        when: true,
    };
    let region = |start, end, target| Handler {
        start,
        end,
        pat: None,
        target,
    };
    for (code, handlers, forward) in [
        (vec![jump(1), ret()], vec![], true),
        (vec![br(2), ret(), ret()], vec![region(0, 2, 2)], true),
        (vec![ret(), jump(0), ret()], vec![], false),
        (vec![jump(0), ret()], vec![], false),
        (vec![jump(2), ret()], vec![], false),
        (vec![ret(), br(2)], vec![], false),
        (vec![ret(), flush()], vec![], false),
        (vec![flush(), ret(), ret()], vec![region(0, 2, 1)], false),
        (vec![flush(), ret()], vec![region(0, 1, 2)], false),
    ] {
        let kinds: Vec<_> = code.iter().map(Ins::kind).collect();
        assert_eq!(flows_forward(&code, &handlers), forward, "{kinds:?}");
    }
}

fn udp_packet(src: u32, dst: u32, payload: &'static [u8]) -> Value {
    Value::tuple(vec![
        Value::Ip(IpHdr::new(src, dst, IpHdr::PROTO_UDP)),
        Value::Udp(UdpHdr::new(1000, 2000)),
        Value::Blob(Bytes::from_static(payload)),
    ])
}

/// Runs channel 0 through both evaluators and checks they agree on
/// the outcome (new states displayed, or the error), the effects,
/// and every accounting trail, order included. Returns the
/// compiled tier's environment and outcome for further pinning.
fn differential(src: &str, ps: Value) -> Ran {
    let (tp, cp) = both(src);
    let interp = Interp::new(&tp);

    let mut env_i = MockEnv::new(addr(10, 0, 0, 1));
    let mut env_j = MockEnv::new(addr(10, 0, 0, 1));
    let gi = interp.eval_globals(&mut env_i).unwrap();
    let gj = cp.eval_globals(&mut env_j).unwrap();
    assert_eq!(gi.len(), gj.len());

    let ssi = interp.init_channel_state(0, &gi, &mut env_i).unwrap();
    let ssj = cp.init_channel_state(0, &gj, &mut env_j).unwrap();
    let pkt = udp_packet(addr(1, 1, 1, 1), addr(2, 2, 2, 2), b"payload");

    let shown = |r: Result<(Value, Value), VmError>| {
        r.map(|(ps, ss)| format!("{} {}", ps.display(), ss.display()))
    };
    let ri = shown(interp.run_channel(0, &gi, ps.clone(), ssi, pkt.clone(), &mut env_i));
    let rj = shown(cp.run_channel(0, &gj, ps, ssj, pkt, &mut env_j));
    assert_eq!(ri, rj, "outcome of {src}");
    assert_eq!(
        format!("{:?}", env_i.effects),
        format!("{:?}", env_j.effects),
        "effects of {src}"
    );
    assert_eq!(env_i.output, env_j.output);
    assert_eq!(env_i.send_sites, env_j.send_sites, "send sites in {src}");
    assert_eq!(
        env_i.table_writes, env_j.table_writes,
        "table writes in {src}"
    );
    assert_eq!(
        env_i.site_steps, env_j.site_steps,
        "site charge trail in {src}"
    );
    assert_eq!(env_i.steps, env_j.steps, "aggregate steps in {src}");
    Ran {
        env: env_j,
        out: rj,
    }
}

/// What [`differential`] saw on the compiled tier.
struct Ran {
    env: MockEnv,
    out: Result<String, VmError>,
}

/// The site of the first node that starts at `needle` in `src`.
fn site_of(src: &str, needle: &str) -> u32 {
    src.find(needle).unwrap_or_else(|| panic!("{needle}?")) as u32
}

fn charged(env: &MockEnv, site: u32) -> bool {
    env.site_steps.iter().any(|&(s, _)| s == site)
}

#[test]
fn differential_simple_programs() {
    differential(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(network, p); (ps + 1, ss))",
        Value::Int(41),
    );
    differential(
        "val k : int = 6 * 7\n\
         channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + k, ss)",
        Value::Int(0),
    );
    differential(
        "fun dbl(x : int) : int = x * 2\n\
         channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (println(dbl(ps)); (dbl(dbl(ps)), ss))",
        Value::Int(5),
    );
    differential(
        "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
         initstate mkTable(8) is\n\
         let val n : int = tblGet(ss, ipSrc(#1 p)) handle NotFound => 0 in\n\
           (tblSet(ss, ipSrc(#1 p), n + 1); (n, ss))\n\
         end",
        Value::Int(0),
    );
    differential(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (if blobLen(#3 p) > 3 andalso ps < 100 then (ps * 2, ss) else (ps, ss))",
        Value::Int(7),
    );
}

#[test]
fn table_eviction_prims_agree_and_account_identically() {
    // Insert (fresh), overwrite (not fresh), delete one key, then
    // clear the rest — the channel returns the final table size.
    let src = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
               initstate mkTable(8) is\n\
               (tblSet(ss, ipSrc(#1 p), 1);\n\
                tblSet(ss, ipSrc(#1 p), 2);\n\
                tblSet(ss, ipDst(#1 p), 3);\n\
                tblDel(ss, ipSrc(#1 p));\n\
                tblDel(ss, ipSrc(#1 p));\n\
                tblClear(ss);\n\
                (tblSize(ss), ss))";
    differential(src, Value::Int(-1));

    // The recorded mutation trail is exact, not just engine-equal.
    let (tp, cp) = both(src);
    let interp = Interp::new(&tp);
    let mut env = MockEnv::new(addr(10, 0, 0, 1));
    let ss = interp.init_channel_state(0, &[], &mut env).unwrap();
    let pkt = udp_packet(addr(1, 1, 1, 1), addr(2, 2, 2, 2), b"x");
    let (ps, _) = interp
        .run_channel(0, &[], Value::Int(0), ss, pkt.clone(), &mut env)
        .unwrap();
    assert_eq!(ps.display(), "0", "table is empty after tblClear");
    assert_eq!(
        env.table_writes,
        vec![(1, 1), (0, 1), (1, 2), (-1, 1), (0, 1), (-1, 0)],
        "insert, overwrite, insert, delete, no-op delete, clear"
    );
    assert_eq!(env.insert_count(), 2);

    // And the JIT leaves the same trail.
    let mut env_j = MockEnv::new(addr(10, 0, 0, 1));
    let ssj = cp.init_channel_state(0, &[], &mut env_j).unwrap();
    cp.run_channel(0, &[], Value::Int(0), ssj, pkt, &mut env_j)
        .unwrap();
    assert_eq!(env_j.table_writes, env.table_writes);
}

#[test]
fn send_sites_noted_identically_by_both_engines() {
    use crate::env::SendKind;
    let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               (OnRemote(network, p); OnNeighbor(network, thisHost(), p);\n\
                deliver(p); (ps, ss))";
    let (tp, cp) = both(src);
    let interp = Interp::new(&tp);
    let mut env_i = MockEnv::new(addr(10, 0, 0, 1));
    let mut env_j = MockEnv::new(addr(10, 0, 0, 1));
    let pkt = udp_packet(1, 2, b"x");
    interp
        .run_channel(0, &[], Value::Int(0), Value::Unit, pkt.clone(), &mut env_i)
        .unwrap();
    cp.run_channel(0, &[], Value::Int(0), Value::Unit, pkt, &mut env_j)
        .unwrap();
    let want = vec![
        (SendKind::Remote, Some("network".to_string())),
        (SendKind::Neighbor, Some("network".to_string())),
        (SendKind::Deliver, None),
    ];
    assert_eq!(env_i.send_sites, want);
    assert_eq!(env_j.send_sites, want);
}

#[test]
fn jit_steps_counted_and_charged_to_env() {
    let (_, cp) = both("channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)");
    let mut env = MockEnv::new(0);
    cp.run_channel(
        0,
        &[],
        Value::Int(0),
        Value::Unit,
        udp_packet(1, 2, b""),
        &mut env,
    )
    .unwrap();
    assert!(cp.steps() > 0);
    assert_eq!(env.steps, cp.steps());
    // Deterministic: running the same channel again doubles the count.
    cp.run_channel(
        0,
        &[],
        Value::Int(1),
        Value::Unit,
        udp_packet(1, 2, b""),
        &mut env,
    )
    .unwrap();
    assert_eq!(env.steps, cp.steps());
    assert_eq!(env.steps % 2, 0);
    // Every aggregate step was also attributed to a site.
    let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
    assert_eq!(attributed, env.steps);
}

#[test]
fn constant_folding_produces_constant() {
    let (_, cp) = both(
        "val k : int = 2 + 3 * 4\n\
         channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + k, ss)",
    );
    let mut env = MockEnv::new(0);
    let globals = cp.eval_globals(&mut env).unwrap();
    assert_eq!(globals[0].display(), "14");
}

#[test]
fn folding_does_not_hide_division_by_zero() {
    let (_, cp) = both(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         ((ps + (1 div 0), ss) handle Div => (0 - 1, ss))",
    );
    let mut env = MockEnv::new(0);
    let (ps, _) = cp
        .run_channel(
            0,
            &[],
            Value::Int(5),
            Value::Unit,
            udp_packet(1, 2, b""),
            &mut env,
        )
        .unwrap();
    assert_eq!(ps.display(), "-1");
}

#[test]
fn codegen_stats_scale_with_program_size() {
    let small = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)";
    let big = format!(
        "{}\nchannel other(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
         let val a : int = 1 val b : int = a + 2 val c : int = b * b in\n\
           (println(a + b + c); (ps, ss))\n\
         end",
        small
    );
    let tp1 = Rc::new(compile_front(small).unwrap());
    let tp2 = Rc::new(compile_front(&big).unwrap());
    let (_, s1) = compile(tp1);
    let (_, s2) = compile(tp2);
    assert!(s2.nodes > s1.nodes);
}

#[test]
fn jit_runs_overloaded_channels_independently() {
    let (_, cp) = both(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)\n\
         channel network(ps : int, ss : unit, p : ip*tcp*blob) is (ps + 100, ss)",
    );
    let mut env = MockEnv::new(0);
    let (ps, _) = cp
        .run_channel(
            0,
            &[],
            Value::Int(0),
            Value::Unit,
            udp_packet(1, 2, b""),
            &mut env,
        )
        .unwrap();
    assert_eq!(ps.display(), "1");
    let tcp_pkt = Value::tuple(vec![
        Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_TCP)),
        Value::Tcp(crate::pkthdr::TcpHdr::data(5, 80, 0)),
        Value::Blob(Bytes::new()),
    ]);
    let (ps, _) = cp
        .run_channel(1, &[], Value::Int(0), Value::Unit, tcp_pkt, &mut env)
        .unwrap();
    assert_eq!(ps.display(), "100");
}

// ---- raises in the middle of a block --------------------------------
//
// A block is charged when it ends; an instruction that raises before
// that charges the prefix the interpreter had charged by then. Each
// case runs through `differential` (identical trails, node for node)
// and pins, by site, that nothing past the raise was charged.

#[test]
fn div_inside_nested_arithmetic_charges_the_prefix() {
    // Caught: the right operand of `+` (blobLen…) is never reached.
    let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               ((ps * (7 + (40 div (ps - ps))) + blobLen(#3 p), ss)\n\
                handle Div => (0 - 1, ss))";
    let Ran { env, out } = differential(src, Value::Int(5));
    assert_eq!(out.unwrap(), "-1 ()");
    assert!(charged(&env, site_of(src, "40 div")), "the raising node");
    assert!(charged(&env, site_of(src, "ps - ps")), "its operands");
    assert!(!charged(&env, site_of(src, "blobLen")), "nothing past it");
    assert!(charged(&env, site_of(src, "0 - 1")), "the handler");
    let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
    assert_eq!(attributed, env.steps);

    // Uncaught: same prefix, and the error surfaces.
    let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               (ps * (7 + (40 div (ps - ps))) + blobLen(#3 p), ss)";
    let Ran { env, out } = differential(src, Value::Int(5));
    assert_eq!(out, Err(VmError::Exn(crate::value::exn::DIV)));
    assert!(!charged(&env, site_of(src, "blobLen")));
    let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
    assert_eq!(attributed, env.steps);

    // No raise: the whole block, once.
    let Ran { env, out } = differential(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         ((ps * (7 + (40 div (ps + 1))) + blobLen(#3 p), ss)\n\
          handle Div => (0 - 1, ss))",
        Value::Int(4),
    );
    assert_eq!(out.unwrap(), "67 ()");
    assert_eq!(env.steps, env.site_steps.len() as u64);
}

#[test]
fn table_miss_caught_and_uncaught_charges_the_prefix() {
    let caught = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                  initstate mkTable(8) is\n\
                  ((tblGet(ss, ipSrc(#1 p)) + blobLen(#3 p), ss)\n\
                   handle NotFound => (ps + 100, ss))";
    let Ran { env, out } = differential(caught, Value::Int(1));
    assert!(out.unwrap().starts_with("101 "));
    assert!(charged(&env, site_of(caught, "ipSrc")));
    assert!(!charged(&env, site_of(caught, "blobLen")));
    assert!(charged(&env, site_of(caught, "ps + 100")));

    // A handler for another exception does not catch it.
    let uncaught = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
                    initstate mkTable(8) is\n\
                    ((tblGet(ss, ipSrc(#1 p)) + blobLen(#3 p), ss)\n\
                     handle Div => (ps + 100, ss))";
    let Ran { env, out } = differential(uncaught, Value::Int(1));
    assert_eq!(out, Err(VmError::Exn(crate::value::exn::NOT_FOUND)));
    assert!(!charged(&env, site_of(uncaught, "blobLen")));
    assert!(!charged(&env, site_of(uncaught, "ps + 100")));

    // Inside a condition compiled to branches, and in a `let` whose
    // handler supplies the default.
    differential(
        "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
         initstate mkTable(8) is\n\
         (if (tblGet(ss, ipSrc(#1 p)) > 0 handle NotFound => tblHas(ss, ipDst(#1 p)))\n\
             orelse ps > 3\n\
          then (OnRemote(network, p); (ps, ss)) else (ps + 1, ss))",
        Value::Int(9),
    );
}

#[test]
fn raise_in_an_argument_list_charges_the_prefix() {
    // The second argument raises: the first was evaluated, the
    // callee's body never runs.
    let src = "fun add(a : int, b : int) : int = a + b * 2\n\
               channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               ((add(ps + 1, 9 mod (ps - ps)) + blobLen(#3 p), ss)\n\
                handle Div => (0 - 7, ss))";
    let Ran { env, out } = differential(src, Value::Int(3));
    assert_eq!(out.unwrap(), "-7 ()");
    assert!(charged(&env, site_of(src, "ps + 1")), "first argument");
    assert!(charged(&env, site_of(src, "9 mod")), "the raising argument");
    assert!(!charged(&env, site_of(src, "a + b")), "not the callee");
    assert!(!charged(&env, site_of(src, "blobLen")));

    // The callee raises after the caller flushed its block; the
    // caller's handler catches, and nothing is charged twice.
    let src = "exception Busy\n\
               fun risky(a : int) : int = if a > 2 then raise Busy else a\n\
               fun twice(a : int) : int = risky(a) + risky(a + 1)\n\
               channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               ((twice(ps) + blobLen(#3 p), ss) handle Busy => (0 - 2, ss))";
    for ps in [0, 2, 5] {
        let Ran { env, .. } = differential(src, Value::Int(ps));
        let attributed: u64 = env.site_steps.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, env.steps, "ps={ps}");
    }
    let Ran { env, out } = differential(src, Value::Int(2));
    assert_eq!(out.unwrap(), "-2 ()");
    assert!(!charged(&env, site_of(src, "blobLen")));
    // Uncaught, through two frames.
    let uncaught = src.replace(" handle Busy => (0 - 2, ss)", "");
    let Ran { out, .. } = differential(&uncaught, Value::Int(5));
    assert!(matches!(out, Err(VmError::Exn(_))));
}

#[test]
fn slots_shared_by_sibling_lets_do_not_alias() {
    // Both `let`s use the same slot; each value must be read before
    // the other binding overwrites it.
    let Ran { out, .. } = differential(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         ((let val x : int = ps + 1 in x end) * 100\n\
           + (let val y : int = ps + 2 in y end), ss)",
        Value::Int(1),
    );
    assert_eq!(out.unwrap(), "203 ()");
    // A renamed operand escaping its `let`, and a nested projection.
    let Ran { out, .. } = differential(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         let val q : (int*(int*int)) = (ps, (ps + 1, ps + 2)) in\n\
           ((let val h : int*int = #2 q in #2 h end)\n\
             + (let val u : udp = #2 p in udpDst(u) end), ss)\n\
         end",
        Value::Int(10),
    );
    assert_eq!(out.unwrap(), "2012 ()");
}

/// How many tuples channel 0's body builds.
fn tuples_built(src: &str) -> usize {
    let (_, cp) = both(src);
    let code = &cp.channels[0].body.code;
    code.iter()
        .filter(|i| matches!(i, Ins::Tuple { .. }))
        .count()
}

#[test]
fn packet_is_sent_from_its_registers_without_a_tuple() {
    // The parameter itself, renamed, sent twice, sent and delivered,
    // to a neighbor; and a literal tuple, whose items are computed
    // side by side (a rewritten header next to plain components).
    for body in [
        "(OnRemote(network, p); (ps, ss))",
        "(OnRemote(network, p); OnRemote(network, p); (ps + 1, ss))",
        "(OnRemote(network, p); deliver(p); (ps, ss))",
        "(OnNeighbor(network, ipDst(#1 p), p); (udpDst(#2 p), ss))",
        "let val q : ip*udp*blob = p val r : ip*udp*blob = q in\n\
           (deliver(r); OnRemote(network, q); (udpDst(#2 r) + blobLen(#3 q), ss)) end",
        "(OnRemote(network, (ipDestSet(#1 p, thisHost()), #2 p, #3 p)); (ps, ss))",
        "let val h : udp = #2 p in\n\
           (deliver((ipSrcSet(#1 p, ipDst(#1 p)), udpDstSet(h, ps), blobSub(#3 p, 1, 3)));\n\
            (ps, ss)) end",
    ] {
        let src = format!("channel network(ps : int, ss : unit, p : ip*udp*blob) is\n{body}");
        let Ran { env, .. } = differential(&src, Value::Int(7));
        assert!(!env.effects.is_empty(), "{body}");
        assert_eq!(tuples_built(&src), 0, "{body}");
    }
    // A literal tuple whose item raises half way: the items before
    // it were charged, the send never happens.
    let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               ((OnRemote(network, (#1 p, #2 p, blobSub(#3 p, 0, ps))); (ps, ss))\n\
                handle OutOfRange => (0 - 1, ss))";
    let Ran { env, out } = differential(src, Value::Int(100));
    assert_eq!(out.unwrap(), "-1 ()");
    assert!(env.effects.is_empty());
    assert!(charged(&env, site_of(src, "#2 p")));
    let Ran { env, .. } = differential(src, Value::Int(3));
    assert_eq!(env.remote_count(), 1);
}

#[test]
fn packet_used_whole_is_built_where_it_is_used() {
    // Passed to a user function (and still readable in place after).
    let src = "fun port(q : ip*udp*blob) : int = udpDst(#2 q)\n\
               channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               (port(p) + blobLen(#3 p) + ps, ss)";
    let Ran { out, .. } = differential(src, Value::Int(1));
    assert_eq!(out.unwrap(), "2008 ()");
    assert_eq!(tuples_built(src), 1);

    // Stored in a table, read back and sent: a tuple some other
    // expression built is sent as one.
    let src = "channel network(ps : int, ss : (int, ip*udp*blob) hash_table, p : ip*udp*blob)\n\
               initstate mkTable(4) is\n\
               (tblSet(ss, ps, p); OnRemote(network, tblGet(ss, ps)); deliver(p);\n\
                (ps + 1, ss))";
    let Ran { env, .. } = differential(src, Value::Int(0));
    assert_eq!((env.remote_count(), env.deliver_count()), (1, 1));
    assert_eq!(tuples_built(src), 1);

    // The value of a conditional, a component of another tuple, and
    // a renaming `let` whose body uses it whole.
    let src = "fun same(q : ip*udp*blob) : ip*udp*blob = q\n\
               channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               let\n\
                 val r : ip*udp*blob = if ps > 3 then p else same(p)\n\
                 val both : (ip*udp*blob)*int = (p, ps)\n\
                 val q : ip*udp*blob = p\n\
               in\n\
                 (OnRemote(network, r); OnRemote(network, #1 both); OnRemote(network, same(q));\n\
                  (udpSrc(#2 r) + udpDst(#2 (#1 both)) + blobLen(#3 q), ss))\n\
               end";
    for ps in [0, 9] {
        let Ran { env, out } = differential(src, Value::Int(ps));
        assert_eq!(out.unwrap(), "3007 ()");
        assert_eq!(env.remote_count(), 3);
        // Every effect carries the packet that came in.
        let shown: Vec<String> = env.effects.iter().map(|e| format!("{e:?}")).collect();
        assert!(shown.windows(2).all(|w| w[0] == w[1]), "{shown:?}");
    }
}

#[test]
fn register_entry_rejects_a_packet_of_another_shape() {
    let (_, cp) = both("channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)");
    let mut env = MockEnv::new(0);
    // Declined by the filler: nothing ran, nothing was charged.
    assert!(!cp.frame().load(0, |regs| regs.len() != 3));
    let short = Value::tuple(vec![Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_UDP))]);
    for bad in [short, Value::Int(1)] {
        let r = cp.run_channel(0, &[], Value::Int(0), Value::Unit, bad, &mut env);
        assert!(matches!(r, Err(VmError::Trap(_))), "{r:?}");
    }
    assert_eq!((env.steps, cp.steps()), (0, 0));
    // Filled in place, it runs like the tuple-fed entry.
    let mut frame = cp.frame();
    let loaded = frame.load(0, |regs| {
        let Value::Tuple(parts) = udp_packet(1, 2, b"x") else {
            unreachable!()
        };
        regs.clone_from_slice(&parts);
        true
    });
    assert!(loaded, "three components");
    assert_eq!(frame.packet().len(), 3);
    let (mut ps, mut ss) = (Value::Int(4), Value::Unit);
    frame.run(&[], &mut ps, &mut ss, &mut env).unwrap();
    assert_eq!(ps.display(), "4");
    assert!(env.steps > 0);
}

#[test]
fn returns_through_registers_in_every_shape() {
    for (body, want) in [
        ("(ps, ss)", "5 ()"),
        ("(ps + 1, ss)", "6 ()"),
        ("(#1 (ps, ss), #2 (ps, ss))", "5 ()"),
        ("let val r : int*unit = (ps * 2, ss) in r end", "10 ()"),
        (
            "if ps > 3 then (ps, ss) else let val r : int*unit = (0, ss) in r end",
            "5 ()",
        ),
    ] {
        let src = format!("channel network(ps : int, ss : unit, p : ip*udp*blob) is\n{body}");
        let Ran { out, .. } = differential(&src, Value::Int(5));
        assert_eq!(out.unwrap(), want, "{body}");
    }
    // Swapped halves must not clobber each other on the way out.
    let Ran { out, .. } = differential(
        "channel network(ps : int, ss : int, p : ip*udp*blob) is (ss, ps)",
        Value::Int(5),
    );
    assert_eq!(out.unwrap(), "0 5");
}

#[test]
fn table_keys_of_scalars_are_read_in_place_and_never_built() {
    let src = |ss: &str, body: &str| {
        format!(
            "channel network(ps : int, ss : {ss}, p : ip*udp*blob) initstate mkTable(4) is\n{body}"
        )
    };
    let pairs = "((host*int), int) hash_table";
    for (ss, body, tuples, boxed) in [
        // A scalar key, and a literal tuple of scalars.
        (
            "(host, int) hash_table",
            "(tblSet(ss, ipSrc(#1 p), ps); (tblGet(ss, ipSrc(#1 p)), ss))",
            0,
            0,
        ),
        (
            pairs,
            "(tblSet(ss, (ipSrc(#1 p), udpSrc(#2 p)), ps + 1);\n\
             (if tblHas(ss, (ipSrc(#1 p), udpSrc(#2 p))) then tblDel(ss, (thisHost(), ps)) else ();\n\
             (tblSize(ss), ss)))",
            0,
            0,
        ),
        // The gateway's shape: a `let`-bound key, used as a key and
        // projected (an item computed into a register of its own).
        (
            pairs,
            "let val con : host*int = (ipSrc(#1 p), ps div (udpDst(#2 p) - 2000)) in\n\
             (if tblHas(ss, con) then () else tblSet(ss, con, #2 con);\n\
              ((tblGet(ss, con) handle NotFound => 0) + #2 con, ss)) end\n\
             handle Div => (0 - 1, ss)",
            0,
            0,
        ),
        // Used whole as well: built, once, and looked up as a value.
        (
            pairs,
            "let val con : host*int = (ipSrc(#1 p), ps) in\n\
             (tblSet(ss, con, 1); println(con); (tblGet(ss, con), ss)) end",
            1,
            2,
        ),
        // A key computed by another expression, and a string key:
        // the boxed route.
        (
            pairs,
            "(tblSet(ss, if ps > 0 then (ipSrc(#1 p), ps) else (ipDst(#1 p), 0), 7);\n\
             (tblGet(ss, (ipSrc(#1 p), ps)) handle NotFound => 0, ss))",
            2,
            1,
        ),
        (
            "(string, int) hash_table",
            "(tblSet(ss, \"GET\", ps); (tblGet(ss, \"GET\"), ss))",
            0,
            2,
        ),
    ] {
        let src = src(ss, body);
        for ps in [-3, 0, 5] {
            let Ran { out, .. } = differential(&src, Value::Int(ps));
            assert!(!matches!(out, Err(VmError::Trap(_))), "{out:?}\n{src}");
        }
        assert_eq!(tuples_built(&src), tuples, "{src}");
        let (_, cp) = both(&src);
        let census = cp.instruction_census();
        let routed = |boxed: bool| {
            let of = census.iter().filter(|c| c.0.starts_with("Tbl") || c.0 == "BrTblHas");
            of.filter(|c| c.0.ends_with("Boxed") == boxed).map(|c| c.1).sum::<usize>()
        };
        assert_eq!(routed(true), boxed, "{census:?}\n{src}");
        assert!(emitted(&cp, "Prim2") + emitted(&cp, "Prim3") == 0, "{src}");
    }
}

#[test]
fn superinstructions_are_emitted_for_the_ranked_shapes() {
    let (_, cp) = both(
        "channel network(ps : int, ss : (host, host) hash_table, p : ip*udp*blob) is\n\
         (if udpDst(#2 p) = 80 andalso not (blobLen(#3 p) < 8) then\n\
            (if tblHas(ss, ipDst(#1 p)) then OnRemote(network, p) else (); (ps, ss))\n\
          else (ps, ss))",
    );
    assert_eq!(cp.superinstructions(), (2, 1));
    // Only an accessor is read in place: any other call (this one
    // can raise) runs first, and the compare reads its result.
    let (_, cp) = both(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (if strToInt(\"7\") = ps then (ps, ss) else (ps + 1, ss))",
    );
    assert_eq!(cp.superinstructions(), (0, 0));
    assert_eq!(emitted(&cp, "BrScalarCmp"), 1);
    // `thisHost()` on the other side is read by the compare too: no
    // call, and nothing folded in that would tie the image to a node.
    let (_, cp) = both(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (if ipDst(#1 p) = thisHost() then (ps, ss) else (ps + 1, ss))",
    );
    assert_eq!(cp.superinstructions(), (1, 0));
    assert_eq!(emitted(&cp, "PrimN"), 0);
}

/// How many `kind` instructions the whole program compiled to.
fn emitted(cp: &CompiledProgram, kind: &str) -> usize {
    let census = cp.instruction_census();
    census.iter().find(|(k, _)| *k == kind).map_or(0, |c| c.1)
}

#[test]
fn typed_instructions_are_selected_from_the_checked_types() {
    // Scalar operands on both sides: typed, whatever they are made of.
    let (_, cp) = both(
        "val port : int = 80\n\
         channel network(ps : int, ss : bool, p : ip*tcp*blob) is\n\
         (if tcpIsSyn(#2 p) andalso tcpDst(#2 p) = port andalso ss then\n\
            (OnRemote(network, (ipSrcSet(#1 p, thisHost()), tcpSrcSet(#2 p, ps mod 7), #3 p));\n\
             (0 - ps, not ss))\n\
          else (blobLen(#3 p) * 2, tcpSeq(#2 p) < ps))",
    );
    for (kind, n) in [
        ("Br", 2),
        ("BrScalarCmp", 1),
        ("Set", 2),
        ("ScalarOp", 4),
        ("Unop", 1),
        ("Get", 0),
    ] {
        assert_eq!(emitted(&cp, kind), n, "{kind}");
    }
    for generic in ["Binop", "BrCmp", "BrPrim", "Prim1", "Prim2", "PrimN"] {
        assert_eq!(emitted(&cp, generic), 0, "{generic}");
    }
    // Anything else stays on the generic path.
    let (_, cp) = both(
        "channel network(ps : string, ss : int*host, p : ip*udp*blob) is\n\
         (if ps = \"a\" orelse ss <> (1, ipSrc(#1 p)) then (ps ^ \"b\", ss)\n\
          else (intToString(strLen(ps)), (#1 ss, thisHost())))",
    );
    for (kind, n) in [("BrCmp", 2), ("Binop", 1), ("Get", 1), ("PrimN", 1)] {
        assert_eq!(emitted(&cp, kind), n, "{kind}");
    }
    assert_eq!(emitted(&cp, "BrScalarCmp") + emitted(&cp, "ScalarOp"), 0);
}
