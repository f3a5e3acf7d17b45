//! What a trace log holds, counted with the `#[global_allocator]` of
//! the runtime's `alloc_free_dispatch` test.
//!
//! The traced benchmark workload (`relay_grid_telemetry`) keeps a ring
//! of 2^18 events. Held as `TraceEvent`s in a `VecDeque`, that ring was
//! 14 680 064 bytes (2^18 slots of 56 bytes); held as bytes it is under
//! [`RING_BYTES`]. Once the held events keep one size, a push reuses
//! the blocks it evicts and calls the allocator no more, and a name handed over as a fresh `Rc` per event
//! is entered in the ring's name table once.

use planp_telemetry::{DispatchOutcome, SpanOrigin, TraceConfig, TraceEvent, TraceLog};
use std::rc::Rc;

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// The benchmark workload's ring.
const CAPACITY: usize = 1 << 18;

/// What a full ring of these events may hold: it held 2 208 104 bytes
/// (8.4 bytes an event, blocks, spares and name table included) when
/// the ring was first kept as bytes.
const RING_BYTES: i64 = 2_250_000;

/// Event `i` of a relay grid's trace: per hop a child span starts, is
/// enqueued on the next link, the parent's channel run and dispatch are
/// recorded, and the link sends; every sixth hop ends in a delivery.
/// Sixteen chains interleave, so packet ids step back and forth.
fn relay(i: u64, chan: &Rc<str>) -> TraceEvent {
    let (hop, t_ns) = (i / 5, 8_000_000 + i / 80 * 1_000);
    let (node, parent) = ((hop % 112) as u32, 1 + hop);
    let pkt = parent + 16;
    match i % 5 {
        0 => TraceEvent::SpanStart {
            t_ns,
            node,
            pkt,
            trace: 1 + hop / 6,
            parent,
            origin: SpanOrigin::Remote,
            chan: Some(chan.clone()),
        },
        1 => TraceEvent::LinkEnqueue {
            t_ns,
            link: node,
            from: node,
            pkt,
            bytes: 106,
            qlen: 1,
        },
        2 => TraceEvent::VmRun {
            t_ns,
            node,
            pkt: parent,
            chan: chan.clone(),
            steps: 24,
        },
        3 if hop % 6 == 5 => TraceEvent::Deliver {
            t_ns,
            node,
            pkt: parent,
            app: 0,
        },
        3 => TraceEvent::Dispatch {
            t_ns,
            node,
            pkt: parent,
            chan: Some(chan.clone()),
            outcome: DispatchOutcome::Matched,
        },
        _ => TraceEvent::LinkTx {
            t_ns: t_ns + 8_480,
            link: node,
            from: node,
            pkt,
            bytes: 106,
        },
    }
}

fn log(capacity: usize) -> TraceLog {
    TraceLog::new(TraceConfig {
        capacity,
        ..TraceConfig::all()
    })
}

#[test]
fn a_full_benchmark_ring_holds_a_seventh_of_its_old_bytes() {
    let chan: Rc<str> = "network".into();
    let before = counting_alloc::live();
    let mut log = log(CAPACITY);
    // The span and trace ids grow a byte at hop 16 384 (event 81 920)
    // and at trace 16 384 (event 491 520); from event 800 000 on, every
    // held event has its final size and the ring its final blocks.
    let mut calls_at_final_size = 0;
    for i in 0..1_000_000 {
        let ev = relay(i, &chan);
        let calls = counting_alloc::calls();
        log.push(ev);
        if i >= 800_000 {
            calls_at_final_size += counting_alloc::calls() - calls;
        }
    }
    let held = counting_alloc::live() - before;
    println!("a full ring of {} events holds {held} bytes", log.len());
    assert_eq!(log.len(), CAPACITY);
    assert!(held <= RING_BYTES, "{held} bytes");
    assert_eq!(calls_at_final_size, 0, "allocator calls in a full ring");
}

#[test]
fn a_fresh_rc_per_event_enters_its_name_once() {
    let mut log = log(64);
    let vm_run = |i: u64| TraceEvent::VmRun {
        t_ns: i,
        node: 1,
        pkt: i,
        chan: Rc::from("network"),
        steps: 24,
    };
    for i in 0..2_000 {
        log.push(vm_run(i));
    }
    // The one allocation per push is the test's own `Rc`.
    let calls = counting_alloc::calls();
    for i in 0..10_000 {
        log.push(vm_run(i));
    }
    assert_eq!(counting_alloc::calls() - calls, 10_000);
}
