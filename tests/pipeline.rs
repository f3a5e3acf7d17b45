//! Integration tests: the full download-verify-compile-install-run
//! pipeline, across crates.

use bytes::Bytes;
use planp::analysis::Policy;
use planp::apps::corpus::{self, CORPUS};
use planp::netsim::packet::{addr, Packet};
use planp::netsim::{App, LinkSpec, NodeApi, Sim, SimTime};
use planp::runtime::{install_planp, load, Engine, LayerConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Every clean program of the corpus loads, verifies under the policy
/// the corpus table gives it, and compiles.
#[test]
fn all_shipped_asps_load_and_verify() {
    for asp in CORPUS.iter().filter(|a| !a.buggy) {
        let name = asp.name;
        let lp = load(asp.src, asp.policy).unwrap_or_else(|e| panic!("{name} failed to load: {e}"));
        assert!(lp.report.accepted(), "{name} not accepted");
        assert!(lp.codegen.nodes > 5, "{name} produced too little code");
        if asp.policy.require_termination {
            assert!(lp.report.termination.is_proved(), "{name}: termination");
            assert!(lp.report.duplication.is_proved(), "{name}: duplication");
        }
    }
}

struct Collector {
    got: Rc<RefCell<Vec<Packet>>>,
}
impl App for Collector {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
        self.got.borrow_mut().push(pkt);
    }
}

struct Burst {
    dst: u32,
    n: usize,
}
impl App for Burst {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for i in 0..self.n {
            api.send(Packet::udp(
                api.addr(),
                self.dst,
                1,
                2,
                Bytes::from(vec![i as u8; 16]),
            ));
        }
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

/// The same program run by the JIT and the interpreter layer-side must
/// produce identical network-visible behavior.
#[test]
fn jit_and_interp_layers_agree_end_to_end() {
    let src = r#"
val seven : int = 7
fun weight(b : blob) : int = blobLen(b) + seven

channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)
initstate mkTable(16) is
  let
    val k : host = ipSrc(#1 p)
    val n : int = (tblGet(ss, k) handle NotFound => 0) + weight(#3 p)
  in
    (tblSet(ss, k, n);
     println(n);
     if n mod 2 = 0 then OnRemote(network, p)
     else OnRemote(network, (ipDestSet(#1 p, ipDst(#1 p)), #2 p, #3 p));
     (ps + 1, ss))
  end
"#;
    let run = |engine: Engine| -> (usize, String) {
        let image = load(src, Policy::no_delivery()).expect("loads");
        let mut sim = Sim::new(9);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let handle = install_planp(
            &mut sim,
            r,
            &image,
            LayerConfig {
                engine,
                ..LayerConfig::default()
            },
        )
        .expect("install");
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(b, Box::new(Collector { got: got.clone() }));
        sim.add_app(
            a,
            Box::new(Burst {
                dst: addr(10, 0, 1, 1),
                n: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let n = got.borrow().len();
        let out = handle.output.borrow().clone();
        (n, out)
    };
    let (n_jit, out_jit) = run(Engine::Jit);
    let (n_interp, out_interp) = run(Engine::Interp);
    assert_eq!(n_jit, 10);
    assert_eq!(n_jit, n_interp);
    assert_eq!(out_jit, out_interp);
    assert!(!out_jit.is_empty());
}

/// ASPs on several hops compose: a tagger on the first router and a
/// filter on the second.
#[test]
fn asps_compose_across_hops() {
    let tagger = r#"
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let val out : blob = blobSetByte(#3 p, 0, ps mod 200) handle _ => #3 p in
    (OnRemote(network, (#1 p, #2 p, out)); (ps + 1, ss))
  end
"#;
    let filter = r#"
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  if (blobByte(#3 p, 0) handle _ => 1) mod 2 = 0 then
    (OnRemote(network, p); (ps, ss))
  else (ps, ss)
"#;
    let t_img = load(tagger, Policy::strict()).expect("tagger verifies");
    let f_img = load(filter, Policy::no_delivery()).expect("filter loads");

    let mut sim = Sim::new(4);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r1 = sim.add_router("r1", addr(10, 0, 0, 254));
    let r2 = sim.add_router("r2", addr(10, 0, 1, 254));
    let b = sim.add_host("b", addr(10, 0, 2, 1));
    sim.add_link(LinkSpec::ethernet_10(), &[a, r1]);
    sim.add_link(LinkSpec::ethernet_10(), &[r1, r2]);
    sim.add_link(LinkSpec::ethernet_10(), &[r2, b]);
    sim.compute_routes();
    install_planp(&mut sim, r1, &t_img, LayerConfig::default()).expect("install tagger");
    install_planp(&mut sim, r2, &f_img, LayerConfig::default()).expect("install filter");

    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_app(b, Box::new(Collector { got: got.clone() }));
    sim.add_app(
        a,
        Box::new(Burst {
            dst: addr(10, 0, 2, 1),
            n: 10,
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    // Tagger stamps 0..9; filter keeps even stamps: 5 packets.
    assert_eq!(got.borrow().len(), 5);
    for pkt in got.borrow().iter() {
        assert_eq!(pkt.payload[0] % 2, 0);
    }
}

/// Rejected programs never reach the network.
#[test]
fn rejected_program_cannot_be_installed() {
    let bouncer = corpus::asp("bounce_pingpong").expect("in the corpus").src;
    assert!(load(bouncer, Policy::strict()).is_err());
    // …but an authenticated download is the operator's responsibility.
    assert!(load(bouncer, Policy::authenticated()).is_ok());
}

/// The figure 2 program from the paper parses, checks, and runs.
#[test]
fn paper_figure2_fragment_end_to_end() {
    let src = r#"
channel relay(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(relay, p); (ps, ss))

channel network(ps : int, ss : ((host*int), host) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
  in
    if tcpDst(tcph) = 80 then
      if tblHas(ss, (ipSrc(iph), tcpSrc(tcph))) then
        let val s : host = tblGet(ss, (ipSrc(iph), tcpSrc(tcph))) handle NotFound => 10.0.1.1 in
          (OnRemote(relay, (ipDestSet(iph, s), tcph, #3 p)); (ps, ss))
        end
      else
        let val s : host = if ps mod 2 = 0 then 10.0.1.1 else 10.0.2.1 in
          (tblSet(ss, (ipSrc(iph), tcpSrc(tcph)), s);
           OnRemote(relay, (ipDestSet(iph, s), tcph, #3 p));
           (ps + 1, ss))
        end
    else
      (OnRemote(network, p); (ps, ss))
  end
"#;
    let lp = load(src, Policy::strict()).expect("figure-2-style gateway verifies");
    assert_eq!(lp.prog.channels.len(), 2);
}

/// Overloaded channels (figure 4) dispatch by payload type end to end.
#[test]
fn paper_figure4_overloads_end_to_end() {
    let src = r#"
val CmdA : int = 65
val CmdB : int = 66

channel network(ps : unit, ss : unit, p : ip*udp*char*int) is
  (if charPos(#3 p) = CmdA then (print("CmdA: "); println(#4 p); ()) else ();
   deliver(p); (ps, ss))

channel network(ps : unit, ss : unit, p : ip*udp*char*bool) is
  (if charPos(#3 p) = CmdB then (print("CmdB: "); println(#4 p); ()) else ();
   deliver(p); (ps, ss))
"#;
    let image = load(src, Policy::no_delivery()).expect("loads");
    let mut sim = Sim::new(2);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let b = sim.add_host("b", addr(10, 0, 0, 2));
    sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
    sim.compute_routes();
    let handle = install_planp(&mut sim, b, &image, LayerConfig::default()).expect("install");

    struct TwoKinds {
        dst: u32,
    }
    impl App for TwoKinds {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            let mut p1 = vec![b'A'];
            p1.extend_from_slice(&123i64.to_be_bytes());
            api.send(Packet::udp(api.addr(), self.dst, 1, 2, Bytes::from(p1)));
            api.send(Packet::udp(
                api.addr(),
                self.dst,
                1,
                2,
                Bytes::from(vec![b'B', 1u8]),
            ));
        }
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    }
    sim.add_app(
        a,
        Box::new(TwoKinds {
            dst: addr(10, 0, 0, 2),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(&*handle.output.borrow(), "CmdA: 123\nCmdB: true\n");
}

/// The pretty-printer round-trips every shipped ASP: the printed form
/// reparses, type checks, and produces the same channel signatures.
#[test]
fn shipped_asps_round_trip_through_the_pretty_printer() {
    for src in CORPUS.iter().map(|a| a.src) {
        let ast = planp::lang::parse_program(src).expect("parses");
        let printed = planp::lang::pretty::program(&ast);
        let reparsed = planp::lang::parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        // Printing is a fixed point.
        assert_eq!(printed, planp::lang::pretty::program(&reparsed));
        // And the reprinted program still type checks to the same shape.
        let t1 = planp::lang::typecheck(&ast).expect("original checks");
        let t2 = planp::lang::typecheck(&reparsed).expect("round-tripped checks");
        assert_eq!(t1.channels.len(), t2.channels.len());
        for (a, b) in t1.channels.iter().zip(t2.channels.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.pkt_ty, b.pkt_ty);
            assert_eq!(a.ss_ty, b.ss_ty);
        }
        assert_eq!(t1.exns, t2.exns);
    }
}

/// In-band deployment installs a working program through the network
/// (section 5's "protocol management" future work, implemented).
#[test]
fn in_band_deployment_end_to_end() {
    use planp::runtime::{deploy_packets, DeployService};

    let mut sim = Sim::new(6);
    let op = sim.add_host("operator", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_10(), &[op, r]);
    sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
    sim.compute_routes();
    let svc = DeployService::new(Policy::strict(), LayerConfig::default());
    let log = svc.log.clone();
    sim.add_app(r, Box::new(svc));

    struct Op {
        packets: Vec<Packet>,
    }
    impl App for Op {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            for p in self.packets.drain(..) {
                api.send(p);
            }
        }
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    }
    let asp = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               (OnRemote(network, p); (ps + 1, ss))";
    sim.add_app(
        op,
        Box::new(Op {
            packets: deploy_packets(addr(10, 0, 0, 1), addr(10, 0, 0, 254), 1, asp),
        }),
    );
    sim.run_until(SimTime::from_ms(200));
    assert_eq!(log.borrow().installed, 1);

    // Traffic now flows through the deployed program.
    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_app(b, Box::new(Collector { got: got.clone() }));
    sim.add_app(
        op,
        Box::new(Burst {
            dst: addr(10, 0, 1, 1),
            n: 7,
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(got.borrow().len(), 7);
    let handle = log.borrow().handle.clone().expect("handle");
    assert_eq!(handle.stats(&sim.telemetry).matched, 7);
}

/// Corpus ⇔ disk parity: every `asps/**/*.planp` is in the corpus
/// table, and every table entry's file exists and equals its constant
/// after the leading newline. An unlisted or drifted file fails.
#[test]
fn asp_files_match_embedded_sources() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut on_disk = Vec::new();
    for dir in ["asps", "asps/buggy"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("asp directory") {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(".planp") {
                on_disk.push(format!("{dir}/{name}"));
            }
        }
    }
    on_disk.sort_by_key(|p| (p.starts_with("asps/buggy/"), p.clone()));
    let listed: Vec<&str> = CORPUS.iter().map(|a| a.path).collect();
    assert_eq!(
        on_disk, listed,
        "asps/ and the corpus table list different files"
    );

    for asp in CORPUS {
        let file = std::fs::read_to_string(root.join(asp.path)).expect(asp.path);
        assert_eq!(file, asp.file_text(), "{} drifted", asp.path);
    }
}

/// One compiled image installed on several nodes keeps independent
/// state per node (the paper's image is downloaded to many routers;
/// sharing compiled code must not share tables or counters).
#[test]
fn shared_image_has_independent_state_per_node() {
    let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
               (println(ps); OnRemote(network, p); (ps + 1, ss))";
    let image = load(src, Policy::strict()).expect("loads");

    let mut sim = Sim::new(5);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r1 = sim.add_router("r1", addr(10, 0, 0, 254));
    let r2 = sim.add_router("r2", addr(10, 0, 1, 254));
    let b = sim.add_host("b", addr(10, 0, 2, 1));
    sim.add_link(LinkSpec::ethernet_10(), &[a, r1]);
    sim.add_link(LinkSpec::ethernet_10(), &[r1, r2]);
    sim.add_link(LinkSpec::ethernet_10(), &[r2, b]);
    sim.compute_routes();
    let h1 = install_planp(&mut sim, r1, &image, LayerConfig::default()).unwrap();
    let h2 = install_planp(&mut sim, r2, &image, LayerConfig::default()).unwrap();

    sim.add_app(
        a,
        Box::new(Burst {
            dst: addr(10, 0, 2, 1),
            n: 3,
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    // Each layer counted its own packets from its own zero.
    assert_eq!(&*h1.output.borrow(), "0\n1\n2\n");
    assert_eq!(&*h2.output.borrow(), "0\n1\n2\n");
    assert_eq!(h1.stats(&sim.telemetry).matched, 3);
    assert_eq!(h2.stats(&sim.telemetry).matched, 3);
}

/// The [36] bridge claim at system level: a node running a forwarder
/// ASP moves exactly the traffic a plain router (or a native no-op
/// hook) moves — same deliveries, no drops introduced by the ASP.
#[test]
fn asp_bridge_equivalent_to_builtin_forwarding() {
    struct NativeNoop;
    impl planp::netsim::PacketHook for NativeNoop {
        fn on_packet(
            &mut self,
            _api: &mut NodeApi<'_>,
            pkt: Packet,
            _meta: &planp::netsim::ArrivalMeta,
        ) -> planp::netsim::HookVerdict {
            planp::netsim::HookVerdict::Pass(pkt)
        }
    }

    let forwarder = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                     (OnRemote(network, p); (ps, ss))";
    let run = |mode: u8| -> u64 {
        let mut sim = Sim::new(11);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let bridge = sim.add_router("bridge", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, bridge]);
        sim.add_link(LinkSpec::ethernet_10(), &[bridge, b]);
        sim.compute_routes();
        match mode {
            0 => {}
            1 => {
                let image = load(forwarder, Policy::strict()).unwrap();
                install_planp(&mut sim, bridge, &image, LayerConfig::default()).unwrap();
            }
            _ => sim.install_hook(bridge, Box::new(NativeNoop)),
        }
        sim.add_app(
            a,
            Box::new(Burst {
                dst: addr(10, 0, 1, 1),
                n: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        sim.node(b).delivered
    };
    let plain = run(0);
    let asp = run(1);
    let native = run(2);
    assert_eq!(plain, 50);
    assert_eq!(asp, plain, "ASP bridge must not lose or duplicate traffic");
    assert_eq!(native, plain);
}

/// The run-time backstop behind the static proof (§2.1): a verified
/// program never needs the TTL safety net, while a pair of bouncers
/// that only an authenticated plan could deploy ping-pongs until the TTL
/// kills the packet — the network survives, the packet does not.
#[test]
fn ttl_backstop_catches_authenticated_bouncers() {
    // Two routers, each re-pinning every transit packet at the host on
    // the *other* side: alone each heads for one fixed address and
    // proves; together they ping-pong the packet forever — except for
    // the TTL — which only the plan-scope product check sees.
    let pin_b = corpus::asp("bounce_a").expect("in the corpus").src;
    let pin_a = corpus::asp("bounce_b").expect("in the corpus").src;
    let img_b = load(pin_b, Policy::strict()).expect("proves alone");
    let img_a = load(pin_a, Policy::strict()).expect("proves alone");
    let plan = planp::apps::plans::load_bundled_plan("buggy_bounce").expect("the plan loads");
    assert!(!plan.report.accepted(), "correctly unprovable as a pair");
    assert!(plan.report.diagnostics.iter().any(|d| d.code == "E007"));

    // ha (10.0.0.1) — r1 — r2 — hb (10.0.3.1), as the plan deploys it.
    let mut sim = Sim::new(2);
    let ids = plan.topo.build(&mut sim);
    let (a, r1, r2, b) = (ids[0], ids[1], ids[2], ids[3]);
    let h1 = install_planp(&mut sim, r1, &img_b, LayerConfig::default()).unwrap();
    let h2 = install_planp(&mut sim, r2, &img_a, LayerConfig::default()).unwrap();

    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_app(b, Box::new(Collector { got: got.clone() }));
    sim.add_app(
        a,
        Box::new(Burst {
            dst: addr(10, 0, 3, 1),
            n: 1,
        }),
    );
    // The simulation must terminate (the bouncers cannot loop forever).
    sim.run_until(SimTime::from_secs(5));

    assert_eq!(
        got.borrow().len(),
        0,
        "the packet died of TTL, not delivery"
    );
    let bounces = h1.stats(&sim.telemetry).matched + h2.stats(&sim.telemetry).matched;
    assert!(
        (30..=64).contains(&bounces),
        "the packet should bounce ~TTL times, got {bounces}"
    );
    // A verified forwarder on the same topology delivers with TTL to spare.
    let fwd = load(
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (OnRemote(network, p); (ps, ss))",
        Policy::strict(),
    )
    .unwrap();
    let mut sim = Sim::new(2);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
    sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
    sim.compute_routes();
    install_planp(&mut sim, r, &fwd, LayerConfig::default()).unwrap();
    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_app(b, Box::new(Collector { got: got.clone() }));
    sim.add_app(
        a,
        Box::new(Burst {
            dst: addr(10, 0, 1, 1),
            n: 1,
        }),
    );
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(got.borrow().len(), 1);
    assert!(
        got.borrow()[0].ip.ttl > 60,
        "one hop consumed, TTL nearly full"
    );
}
