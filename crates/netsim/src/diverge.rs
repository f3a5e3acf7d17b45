//! Where two runs of one scenario part ways: the engine of `planp
//! diverge`.
//!
//! [`first_divergence`] builds the scenario twice in one process and
//! compares [`Sim::state_digest`] at `run_until` times that double. The
//! first slice whose end differs is bisected in simulated time, each
//! probe on a fresh pair of runs, down to one nanosecond; then both runs
//! are replayed to the slice's last equal instant and stepped one event
//! at a time ([`Sim::step_until`]) until their digests part. What it
//! reports — the slice, the first differing part of the state
//! ([`Sim::component_digests`]: a node, a link, an app or a hook) and the
//! event after which it first differs — is where to look for a hash
//! map iterated in `RandomState` order, a clock read, or anything else
//! that is not a function of the seed.

use crate::sim::Sim;
use crate::time::SimTime;

/// The first place two runs of one scenario differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The first compared slice `(from, to]` whose end differs: the
    /// digests agree at `from` and differ at `to`.
    pub slice: (SimTime, SimTime),
    /// The first part of the state that differs, as labelled by
    /// [`Sim::component_digests`] (`node r1 app 0`, `link 3`, …).
    pub component: String,
    /// The event after which the runs first differ, or `start-up` when
    /// they differ before the first event, or `settling at …` when no
    /// single event shows it before `run_until` settles the links.
    pub event: String,
}

/// Runs the scenario `build` makes twice and returns where the two runs
/// first differ, comparing at `first`, `2 × first`, `4 × first`, … up
/// to `until`. `None` when they agree at every comparison.
pub fn first_divergence(
    build: &dyn Fn() -> Sim,
    first: SimTime,
    until: SimTime,
) -> Option<Divergence> {
    let differs_at = |t: SimTime| {
        let (mut a, mut b) = (build(), build());
        a.run_until(t);
        b.run_until(t);
        a.state_digest() != b.state_digest()
    };
    // Doubling slices over one pair of runs.
    let (mut a, mut b) = (build(), build());
    let (mut from, mut to) = (SimTime(0), SimTime(first.as_nanos().max(1)));
    loop {
        a.run_until(to);
        b.run_until(to);
        if a.state_digest() != b.state_digest() {
            break;
        }
        if to >= until {
            return None;
        }
        from = to;
        to = SimTime((to.as_nanos() * 2).min(until.as_nanos()));
    }
    let slice = (from, to);
    // Bisect the slice: the runs agree at `lo` (or `lo` is the start)
    // and differ at `hi`.
    let (mut lo, mut hi) = slice;
    while hi.as_nanos() - lo.as_nanos() > 1 {
        let mid = SimTime(lo.as_nanos() + (hi.as_nanos() - lo.as_nanos()) / 2);
        if differs_at(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Step one event at a time from `lo` until the digests part.
    let (mut a, mut b) = (build(), build());
    if lo.as_nanos() > 0 {
        a.run_until(lo);
        b.run_until(lo);
    }
    let mut event = "start-up".to_string();
    loop {
        if let Some(component) = first_differing(&a, &b) {
            return Some(Divergence {
                slice,
                component,
                event,
            });
        }
        match (a.step_until(hi), b.step_until(hi)) {
            (Some(ea), Some(_)) => event = ea,
            _ => break,
        }
    }
    a.run_until(hi);
    b.run_until(hi);
    let component = first_differing(&a, &b).unwrap_or_else(|| "the whole digest".to_string());
    Some(Divergence {
        slice,
        component,
        event: format!("settling at t={} ns", hi.as_nanos()),
    })
}

/// The label of the first component whose digest differs, if any.
fn first_differing(a: &Sim, b: &Sim) -> Option<String> {
    let (pa, pb) = (a.component_digests(), b.component_digests());
    if pa.len() != pb.len() {
        return Some("the set of components".to_string());
    }
    pa.into_iter()
        .zip(pb)
        .find(|(x, y)| x != y)
        .map(|(x, _)| x.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::{App, NodeApi};
    use crate::packet::{addr, Packet};
    use std::time::Duration;

    /// Pings its peer every millisecond; deterministic.
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
        fn digest(&self, _: &mut crate::digest::Fnv) {}
    }

    fn pair() -> Sim {
        let mut sim = Sim::new(3);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let b = sim.add_host("b", addr(10, 0, 0, 2));
        sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
        sim.compute_routes();
        sim.add_app(a, Box::new(Pinger(addr(10, 0, 0, 2))));
        sim
    }

    #[test]
    fn a_deterministic_scenario_does_not_diverge() {
        let until = SimTime::from_ms(20);
        assert_eq!(first_divergence(&pair, SimTime::from_ms(1), until), None);
    }
}
