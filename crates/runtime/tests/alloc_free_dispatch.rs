//! A dispatch allocates nothing: once warm, `PlanpLayer::on_packet` —
//! match the overload, decode the packet into the engine's registers,
//! run the channel, build the outgoing packet from the registers, hand
//! it to the simulator — never calls the allocator. Counted with a
//! `#[global_allocator]` around the hook call of an installed layer, on
//! the two programs the benchmark runs and one that tags and wakes:
//!
//! * the fragile relay, forwarding (`OnRemote(network, p)`) and at the
//!   destination (`deliver(p)`);
//! * the HTTP gateway on an established connection: the request path
//!   (the `(client, port)` connection key is a `let`-bound tuple used
//!   only as a table key, so it is never built: the lookups hash it
//!   from registers), the tagged `relay` channel downstream of the
//!   gateway, and the response path's send of a literal tuple with a
//!   rewritten header;
//! * a program with a user-defined channel and a `timer` channel: the
//!   send that *tags* a packet (the `{channel, overload}` record is
//!   built once per channel at install and cloned per send — an
//!   `Rc::new` per send would pass every other test and fail here),
//!   and a timer wake-up that re-arms itself and sends on that channel.

use bytes::Bytes;
use netsim::packet::{addr, Packet, TcpHdr};
use netsim::{App, ArrivalMeta, HookVerdict, LinkSpec, NodeApi, PacketHook, Sim, SimTime};
use planp_analysis::Policy;
use planp_runtime::{load, LayerConfig, LoadedProgram, PlanpLayer};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const WARMUP: u64 = 300;
const MEASURED: u64 = 1000;
const TICK: Duration = Duration::from_micros(500);

/// Dispatches and allocator calls seen per class of packet, after the
/// first `WARMUP` dispatches of that class.
#[derive(Default)]
struct Tally {
    seen: u64,
    measured: u64,
    allocs: u64,
}

type Tallies = Rc<RefCell<Vec<Tally>>>;

/// The installed layer, with the allocator read around each hook call.
/// `class` sorts packets into the tallies; the verdict is the layer's.
struct Counted {
    layer: PlanpLayer,
    class: fn(&Packet) -> usize,
    tallies: Tallies,
}

impl Counted {
    fn tally(&self, class: usize, allocs: u64) {
        let mut tallies = self.tallies.borrow_mut();
        let t = &mut tallies[class];
        t.seen += 1;
        if t.seen > WARMUP {
            t.measured += 1;
            t.allocs += allocs;
        }
    }
}

impl PacketHook for Counted {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict {
        let class = (self.class)(&pkt);
        let before = counting_alloc::calls();
        let verdict = self.layer.on_packet(api, pkt, meta);
        let allocs = counting_alloc::calls() - before;
        assert!(matches!(verdict, HookVerdict::Handled), "a channel ran");
        self.tally(class, allocs);
        verdict
    }

    /// A timer wake-up is tallied as the last class.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let before = counting_alloc::calls();
        self.layer.on_timer(api, key);
        let allocs = counting_alloc::calls() - before;
        let last = self.tallies.borrow().len() - 1;
        self.tally(last, allocs);
    }
}

fn install(
    sim: &mut Sim,
    node: netsim::NodeId,
    image: &LoadedProgram,
    class: fn(&Packet) -> usize,
    classes: usize,
) -> Tallies {
    let (addr, name) = (sim.node(node).addr, sim.node(node).name.clone());
    let layer = PlanpLayer::new(
        image,
        LayerConfig::default(),
        addr,
        &name,
        &mut sim.telemetry,
    )
    .expect("layer installs");
    let tallies: Tallies = Rc::new(RefCell::new(
        (0..classes).map(|_| Tally::default()).collect(),
    ));
    sim.install_hook(
        node,
        Box::new(Counted {
            layer,
            class,
            tallies: tallies.clone(),
        }),
    );
    tallies
}

/// Sends `make(own address, n)` every `TICK`, `WARMUP + MEASURED` times.
struct Ticker {
    make: fn(u32, u64) -> Packet,
    sent: u64,
}

impl App for Ticker {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(TICK, 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.sent < WARMUP + MEASURED {
            self.sent += 1;
            let pkt = (self.make)(api.addr(), self.sent);
            api.send(pkt);
            api.set_timer(TICK, 0);
        }
    }
}

/// Counts what the PLAN-P layer below it delivers.
struct Sink(Rc<Cell<u64>>);

impl App for Sink {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        self.0.set(self.0.get() + 1);
    }
}

fn assert_tally(t: &Tally, what: &str, allocs_per_dispatch: u64) {
    assert_eq!(t.measured, MEASURED, "{what}: dispatches measured");
    assert_eq!(
        t.allocs,
        allocs_per_dispatch * MEASURED,
        "{what}: allocator calls inside on_packet over {MEASURED} dispatches"
    );
}

#[test]
fn relay_forward_and_deliver_paths_allocate_nothing() {
    let src = include_str!("../../../asps/buggy/fragile_relay.planp");
    let image = load(src, Policy::strict()).expect("the relay loads");
    let mut sim = Sim::new(5);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_100(), &[a, r]);
    sim.add_link(LinkSpec::ethernet_100(), &[r, b]);
    sim.compute_routes();
    let forward = install(&mut sim, r, &image, |_| 0, 1);
    let deliver = install(&mut sim, b, &image, |_| 0, 1);
    let got = Rc::new(Cell::new(0));
    sim.add_app(b, Box::new(Sink(got.clone())));
    sim.add_app(
        a,
        Box::new(Ticker {
            make: |src, n| {
                let dst = addr(10, 0, 1, 1);
                Packet::udp(src, dst, 4000, 5555, Bytes::from(vec![n as u8; 64]))
            },
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(got.get(), WARMUP + MEASURED, "every datagram delivered");
    assert_tally(&forward.borrow()[0], "relay, OnRemote(network, p)", 0);
    assert_tally(&deliver.borrow()[0], "relay, deliver(p)", 0);
}

/// Gateway traffic by what the gateway ASP does with it.
const REQUEST: usize = 0;
const RELAYED: usize = 1;
const RESPONSE: usize = 2;

fn gateway_class(pkt: &Packet) -> usize {
    match (&pkt.tag, pkt.tcp_hdr()) {
        (Some(_), _) => RELAYED,
        (None, Some(tcp)) if tcp.sport == 80 => RESPONSE,
        _ => REQUEST,
    }
}

/// The gateway ASP's virtual server address, 10.9.9.9.
const VIRT: u32 = u32::from_be_bytes([10, 9, 9, 9]);

/// Answers every request from port 80, like the server of Fig. 8.
struct Responder;

impl App for Responder {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let tcp = pkt.tcp_hdr().expect("requests are TCP");
        let hdr = TcpHdr::data(80, tcp.sport, tcp.seq);
        api.send(Packet::tcp(
            api.addr(),
            pkt.ip.src,
            hdr,
            Bytes::from_static(b"HTTP/1.0 200 OK\r\n\r\n"),
        ));
    }
}

#[test]
fn gateway_established_connection_allocates_nothing() {
    let src = include_str!("../../../asps/http_gateway.planp");
    let image = load(src, Policy::strict()).expect("the gateway loads");
    // client — gw — mid — srv0; `gw` and `mid` run the same image, so
    // `mid` sees what `gw` relays (tagged) and rewrites the responses.
    let mut sim = Sim::new(5);
    let client = sim.add_host("client", addr(10, 0, 0, 1));
    let gw = sim.add_router("gw", addr(10, 0, 0, 254));
    let mid = sim.add_router("mid", addr(10, 0, 1, 254));
    let srv0 = sim.add_host("srv0", addr(10, 0, 2, 1));
    sim.add_link(LinkSpec::ethernet_100(), &[client, gw]);
    sim.add_link(LinkSpec::ethernet_100(), &[gw, mid]);
    sim.add_link(LinkSpec::ethernet_100(), &[mid, srv0]);
    sim.compute_routes();
    sim.add_route(client, VIRT, gw);
    let at_gw = install(&mut sim, gw, &image, gateway_class, 3);
    let at_mid = install(&mut sim, mid, &image, gateway_class, 3);
    sim.add_app(srv0, Box::new(Responder));
    let answered = Rc::new(Cell::new(0));
    sim.add_app(client, Box::new(Sink(answered.clone())));
    // One connection (fixed source port), so after the first request
    // the gateway takes its established-connection arm; and with `ps`
    // even, that connection is pinned to srv0.
    sim.add_app(
        client,
        Box::new(Ticker {
            make: |src, n| {
                let hdr = TcpHdr::data(5000, 80, n as u32);
                Packet::tcp(src, VIRT, hdr, Bytes::from_static(b"GET /doc/7"))
            },
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(answered.get(), WARMUP + MEASURED, "every request answered");

    let (at_gw, at_mid) = (at_gw.borrow(), at_mid.borrow());
    // The tagged `relay` channel: matched by tag, forwarded with it.
    assert_tally(&at_mid[RELAYED], "gateway, tagged relay channel", 0);
    // The response path: a literal tuple with a rewritten source.
    assert_tally(&at_mid[RESPONSE], "gateway, rewritten-header send", 0);
    // Downstream of the rewrite the response is plainly forwarded.
    assert_tally(&at_gw[RESPONSE], "gateway, plain forward", 0);
    // The request path looks the connection `(ipSrc, tcpSrc)` up twice
    // and sends a rewritten literal tuple on `relay`.
    assert_tally(&at_gw[REQUEST], "gateway, established request", 0);
    assert_eq!(at_mid[REQUEST].seen + at_gw[RELAYED].seen, 0);
}

/// Arms the first hook timer of its node; the ASP re-arms the rest.
struct Kick;

impl App for Kick {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_hook_timer(TICK, 7);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

#[test]
fn tagged_sends_and_timer_wakeups_allocate_nothing() {
    // `network` re-sends every datagram on the user channel `mon`, which
    // tags it; `timer` counts its firings in `ps`, re-arms itself with
    // the same key and sends its own packet to `b` on `mon`.
    let src = format!(
        "val sink : host = 10.0.1.1\n\
         channel mon(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(mon, p); (ps, ss))\n\
         channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(mon, p); (ps, ss))\n\
         channel timer(ps : int, ss : unit, p : ip*udp*blob) is\n\
         ((if ps + 1 < {fires} then setTimer(1, 7) else ());\n\
          OnRemote(mon, (ipDestSet(#1 p, sink), #2 p, #3 p)); (ps + 1, ss))",
        fires = WARMUP + MEASURED
    );
    let image = load(&src, Policy::authenticated()).expect("the program loads");
    let mut sim = Sim::new(5);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let r = sim.add_router("r", addr(10, 0, 0, 254));
    let b = sim.add_host("b", addr(10, 0, 1, 1));
    sim.add_link(LinkSpec::ethernet_100(), &[a, r]);
    sim.add_link(LinkSpec::ethernet_100(), &[r, b]);
    sim.compute_routes();
    // At `r`: untagged arrivals (class 0) and timer wake-ups (last
    // class). At `b`: tagged arrivals, delivered by `OnRemote` at the
    // destination.
    let at_r = install(&mut sim, r, &image, |_| 0, 2);
    let at_b = install(&mut sim, b, &image, |pkt| usize::from(pkt.tag.is_none()), 2);
    sim.add_app(r, Box::new(Kick));
    let got = Rc::new(Cell::new(0));
    sim.add_app(b, Box::new(Sink(got.clone())));
    sim.add_app(
        a,
        Box::new(Ticker {
            make: |src, n| {
                let dst = addr(10, 0, 1, 1);
                Packet::udp(src, dst, 4000, 5555, Bytes::from(vec![n as u8; 64]))
            },
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(
        got.get(),
        2 * (WARMUP + MEASURED),
        "datagrams and timer packets"
    );

    let (at_r, at_b) = (at_r.borrow(), at_b.borrow());
    assert_tally(&at_r[0], "untagged arrival, tagged send", 0);
    assert_tally(&at_r[1], "timer wake-up, re-armed, tagged send", 0);
    assert_eq!(at_b[0].seen, 2 * (WARMUP + MEASURED), "all arrived tagged");
    assert_eq!(at_b[0].allocs, 0, "tagged arrival, delivered");
    assert_eq!(at_b[1].seen, 0, "nothing reached `b` untagged");
}
