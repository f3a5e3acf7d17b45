//! An install allocates for the node, not for the program: a second
//! `install_planp` of one image, onto a fresh node, of each of the 12
//! bundled ASPs `alloc_download` loads makes at most the pinned number
//! of allocator calls. The first install of an image has built what
//! every node of it shares; the second pays only for the node's own
//! counter names, counters, profile scopes and initial state. Counted
//! with a `#[global_allocator]`.
//!
//! At commit 2bb10f4, where every install rebuilt each scope's site
//! labels and patterns, the block index and the dispatch table, and
//! formatted every counter name twice, the 12 second installs made
//! 2 449 calls. The pins are the counts once that half is built at an
//! image's first install and shared, and each name is written once
//! into one buffer: 535 in all, 78% fewer. Registering a channel
//! name's counters at its first overload, with no list of them built
//! first, took that to 528. Appending each counter name to one arena
//! behind a hashed index, instead of copying it into a key of a sorted
//! map, took it to 262 (commit cbc3893 made 33/33/33/33, 54/54/54/53/53,
//! 59, 38 and 31). A state table that allocates nothing until its first
//! insert took it to 256, one call fewer per table: one each for three
//! gateways and `mpeg_capture`, two for `mpeg_monitor`. A change that makes any
//! install allocate more fails here and prints every count.

use netsim::packet::addr;
use netsim::{LinkSpec, Sim};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, LayerConfig};

mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// The bundled ASP `$name` and the allocator calls of a second install
/// of it.
macro_rules! pin {
    ($name:literal, $calls:literal) => {
        (
            $name,
            include_str!(concat!("../../../asps/", $name, ".planp")),
            $calls,
        )
    };
}

/// `(name, source, allocator calls of the second install)`.
const PINS: &[(&str, &str, u64)] = &[
    pin!("audio_router", 18),
    pin!("audio_client", 18),
    pin!("audio_router_hysteresis", 18),
    pin!("audio_router_queue", 18),
    pin!("http_gateway", 24),
    pin!("http_gateway_3srv", 24),
    pin!("http_gateway_random", 24),
    pin!("http_gateway_porthash", 22),
    pin!("http_gateway_failover", 22),
    pin!("mpeg_monitor", 29),
    pin!("mpeg_capture", 23),
    pin!("forwarder", 16),
];

/// Allocator calls of installing `src` on a second, fresh router after
/// a first.
fn second_install_calls(src: &str) -> u64 {
    let image = load(src, Policy::no_delivery()).expect("a bundled ASP loads");
    let mut sim = Sim::new(1);
    let r0 = sim.add_router("r0", addr(10, 0, 0, 254));
    let r1 = sim.add_router("r1", addr(10, 0, 1, 254));
    sim.add_link(LinkSpec::ethernet_10(), &[r0, r1]);
    sim.compute_routes();
    install_planp(&mut sim, r0, &image, LayerConfig::default()).expect("first install");
    let before = counting_alloc::calls();
    let installed = install_planp(&mut sim, r1, &image, LayerConfig::default());
    let calls = counting_alloc::calls() - before;
    assert!(installed.is_ok(), "a bundled ASP installs");
    calls
}

#[test]
fn a_second_install_allocates_no_more_than_pinned() {
    second_install_calls(PINS[0].1);
    let counts: Vec<u64> = PINS
        .iter()
        .map(|&(_, src, _)| second_install_calls(src))
        .collect();
    let table: Vec<String> = PINS
        .iter()
        .zip(&counts)
        .map(|(&(name, _, pin), n)| format!("{name}: {n} (pin {pin})"))
        .collect();
    let total: u64 = counts.iter().sum();
    println!(
        "{total} allocator calls over 12 second installs:\n{}",
        table.join("\n")
    );
    for (&(name, _, pin), &n) in PINS.iter().zip(&counts) {
        assert!(
            n <= pin,
            "{name} allocates more than pinned:\n{}",
            table.join("\n")
        );
    }
}
