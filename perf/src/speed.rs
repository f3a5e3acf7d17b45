//! Machine-speed probe and speed-corrected timing.
//!
//! The sandbox this benchmark was written on alternates between two
//! speeds about 35% apart (a neighbour on the host; nothing inside the
//! guest is busy and no steal time is reported): in quiet hours in
//! phases of 20 to 70 seconds, so that a whole run falls inside one
//! phase and no repetition inside the run removes it, in busy hours
//! from one second to the next. Wall times of ten runs then spread 10
//! to 31% between their quartiles, past the largest bound a gated
//! metric may carry. Every timed section is therefore bracketed by a
//! *speed probe*, a fixed kernel in this file that no later change to
//! the repository can touch, and its wall time is scaled by
//! `PROBE_NOMINAL_MS / probe reading`. A corrected value reads as
//! seconds on a host whose probe takes the nominal time. The wall-clock
//! values are kept beside the corrected ones ([`Timing::raw_s`]) and
//! printed, for people and for machines, by every run; `perf/README.md`
//! has the spreads measured with and without the correction.
//!
//! The kernel imitates the simulator's instruction mix (a binary heap
//! of events that own their packets, hash-map route lookups, reference
//! counts, small allocations) because that is what tracked the
//! workloads best: a pure ALU loop followed only some of the phases.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The probe reading (ms) that defines the unit of the corrected
/// values: the fast phase of the sandbox the baseline was taken on,
/// where the factor is 1 and corrected equals wall-clock. It must be a
/// constant for results of different commits and processes to compare;
/// on another host it rescales every timing by one number, which a
/// comparison of two commits on that host does not see.
pub const PROBE_NOMINAL_MS: f64 = 5.9;

#[derive(Clone)]
struct Pkt {
    hdr: [u64; 6],
    payload: Rc<[u8]>,
    tag: Option<Rc<str>>,
    id: u64,
}

struct Ev {
    at: u64,
    seq: u64,
    node: usize,
    pkt: Pkt,
}

impl PartialEq for Ev {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Ev {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (Reverse(self.at), Reverse(self.seq)).cmp(&(Reverse(o.at), Reverse(o.seq)))
    }
}

struct Node {
    routes: HashMap<u32, usize>,
    queue: VecDeque<Pkt>,
}

/// One pass of the probe kernel: 40 000 events through a 64-node ring.
fn kernel() -> u64 {
    const NODES: usize = 64;
    const EVENTS: u64 = 40_000;
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|i| Node {
            routes: (0..NODES as u32).map(|d| (d, (i + 1) % NODES)).collect(),
            queue: VecDeque::new(),
        })
        .collect();
    let mut heap = BinaryHeap::new();
    let payload: Rc<[u8]> = Rc::from(vec![7u8; 64]);
    let tag: Rc<str> = Rc::from("network");
    let mut seq = 0u64;
    for i in 0..256u64 {
        heap.push(Ev {
            at: i * 13,
            seq,
            node: i as usize % NODES,
            pkt: Pkt {
                hdr: [i; 6],
                payload: payload.clone(),
                tag: Some(tag.clone()),
                id: i,
            },
        });
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Some(ev) = heap.pop() else { break };
        let node = &mut nodes[ev.node];
        let dst = (ev.pkt.hdr[0].wrapping_mul(2_654_435_761) >> 7) as u32 % NODES as u32;
        let next = node.routes[&dst];
        node.queue.push_back(ev.pkt.clone());
        let mut p = node.queue.pop_front().expect("just pushed");
        p.hdr[0] = p.hdr[0].wrapping_add(ev.at);
        p.hdr[1] ^= p.id;
        acc ^= p.hdr[0] ^ p.tag.as_ref().map_or(0, |t| t.len() as u64);
        let copy: Vec<u8> = p.payload.iter().map(|b| b.wrapping_add(1)).collect();
        acc = acc.wrapping_add(u64::from(copy[3]));
        heap.push(Ev {
            at: ev.at + 100 + (acc & 63),
            seq,
            node: next,
            pkt: p,
        });
        seq += 1;
    }
    acc
}

/// One probe reading in milliseconds: the fastest of three kernel
/// passes, so a burst that hits one pass does not read as a phase.
pub fn probe_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed section: its raw wall time and the speed factor of the
/// probes that bracket it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    /// Probe readings (ms) just before and just after the section.
    pub before_ms: f64,
    pub after_ms: f64,
    pub factor: f64,
}

impl Timing {
    /// Speed-corrected seconds.
    pub fn s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// Times sections between probes. A probe taken at the end of one
/// section is reused as the start of the next when they are adjacent.
#[derive(Default)]
pub struct Clock {
    last: Option<(Instant, f64)>,
    /// Every probe reading taken, for the report.
    pub readings: Vec<f64>,
}

impl Clock {
    fn probe(&mut self) -> f64 {
        if let Some((at, ms)) = self.last {
            if at.elapsed().as_secs_f64() < 0.005 {
                return ms;
            }
        }
        let ms = probe_ms();
        self.readings.push(ms);
        self.last = Some((Instant::now(), ms));
        ms
    }

    /// Runs `f` between two probes and returns its result and timing.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let before = self.probe();
        let t = Instant::now();
        let r = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.last = None;
        let after = self.probe();
        let factor = PROBE_NOMINAL_MS / ((before + after) / 2.0);
        (
            r,
            Timing {
                raw_s,
                before_ms: before,
                after_ms: after,
                factor,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probe_is_positive() {
        assert_eq!(kernel(), kernel());
        assert!(probe_ms() > 0.0);
    }

    #[test]
    fn clock_brackets_sections_and_reuses_adjacent_probes() {
        let mut clock = Clock::default();
        let (v, t) = clock.time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t.raw_s >= 0.0 && t.factor > 0.0 && t.s() >= 0.0);
        assert_eq!(clock.readings.len(), 2);
        // The closing probe of the first section opens the second.
        let _ = clock.time(|| ());
        assert_eq!(clock.readings.len(), 3);
    }
}
