//! `diverge` finds a planted nondeterminism and names the app that
//! holds it: an app that folds the keys of a `RandomState` hash map, in
//! the map's iteration order, into its state every 5 ms. Each run of the
//! scenario builds its own map, and two `RandomState`s of one process
//! draw different keys, so the two runs part at the app's first timer,
//! and nowhere else first.

use netsim::digest::Fnv;
use netsim::diverge::first_divergence;
use netsim::packet::{addr, Packet};
use netsim::{App, LinkSpec, NodeApi, Sim, SimTime};
use std::hash::Hasher;
use std::time::Duration;

/// Sends a datagram to its peer every millisecond: deterministic
/// traffic around the planted app.
struct Pinger(u32);

impl App for Pinger {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_millis(1), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let pkt = Packet::udp(api.addr(), self.0, 9, 9, vec![0u8; 32].into());
        api.send(pkt);
        api.set_timer(Duration::from_millis(1), 0);
    }
    fn digest(&self, _: &mut Fnv) {}
}

/// Folds its map's keys, in iteration order, into `acc` every 5 ms.
struct Planted {
    #[allow(clippy::disallowed_types)] // the seed-independent order this test must catch
    map: std::collections::HashMap<u32, u32>,
    acc: u64,
}

impl App for Planted {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_millis(5), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        for &k in self.map.keys() {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(u64::from(k));
        }
        api.set_timer(Duration::from_millis(5), 0);
    }
    fn digest(&self, h: &mut Fnv) {
        h.write_u64(self.acc);
    }
}

/// Two hosts pinging each other; the receiver carries the planted app
/// as its second app when `planted`.
fn scenario(planted: bool) -> Sim {
    let mut sim = Sim::new(5);
    let a = sim.add_host("a", addr(10, 0, 0, 1));
    let b = sim.add_host("b", addr(10, 0, 0, 2));
    sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
    sim.compute_routes();
    sim.add_app(a, Box::new(Pinger(addr(10, 0, 0, 2))));
    sim.add_app(b, Box::new(Pinger(addr(10, 0, 0, 1))));
    if planted {
        let map = (0..64).map(|k| (k, k)).collect();
        sim.add_app(b, Box::new(Planted { map, acc: 0 }));
    }
    sim
}

#[test]
fn diverge_names_the_app_with_a_random_state_map() {
    let until = SimTime::from_ms(64);
    let found = first_divergence(&|| scenario(true), SimTime::from_ms(1), until)
        .expect("two runs with a RandomState-ordered map diverge");
    assert_eq!(found.component, "node b app 1", "{found:?}");
    assert_eq!(found.slice, (SimTime::from_ms(4), SimTime::from_ms(8)));
    assert_eq!(found.event, "t=5000000 ns: timer 0 of app 1 on b");
}

#[test]
fn without_the_planted_app_the_runs_agree() {
    let until = SimTime::from_ms(64);
    assert_eq!(
        first_divergence(&|| scenario(false), SimTime::from_ms(1), until),
        None
    );
}
