//! A download allocates per program, not per node: `load` — parse, type
//! check, verify, model check, compile — of each of the 12 bundled ASPs
//! (the corpus `planp_perf --workload download` loads, under the policy
//! it loads them with) makes at most the pinned number of allocator
//! calls. Counted with a `#[global_allocator]`, after one untimed load
//! has built the process-wide primitive tables.
//!
//! At commit 0c62d6f, where every compound type was a `Vec`/`Box` tree
//! cloned per typed node and every name a `String` per occurrence, the
//! 12 loads made 7 550 calls. The pins are the counts once types became
//! shared, names interned per program and the abstract interpreters'
//! environments dense: 4 802 in all, 36% fewer. A change that makes any
//! load allocate more fails here and prints every count.
//!
//! A plan load (`load_bundled_plan`: parse the plan, build its named
//! topology, load each deployed ASP's front end, place, compose and
//! verify) is pinned the same way, per bundled plan.

use planp_analysis::Policy;
use planp_apps::plans::load_bundled_plan;
use planp_runtime::load;

mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// The bundled ASP `$name` and the allocator calls of one load of it.
macro_rules! pin {
    ($name:literal, $calls:literal) => {
        (
            $name,
            include_str!(concat!("../../../asps/", $name, ".planp")),
            $calls,
        )
    };
}

/// `(name, source, allocator calls of one load)`.
const PINS: &[(&str, &str, u64)] = &[
    pin!("audio_router", 414),
    pin!("audio_client", 282),
    pin!("audio_router_hysteresis", 533),
    pin!("audio_router_queue", 387),
    pin!("http_gateway", 445),
    pin!("http_gateway_3srv", 479),
    pin!("http_gateway_random", 449),
    pin!("http_gateway_porthash", 329),
    pin!("http_gateway_failover", 303),
    pin!("mpeg_monitor", 802),
    pin!("mpeg_capture", 308),
    pin!("forwarder", 71),
];

/// Allocator calls of one `load` of `src`.
fn load_calls(src: &str) -> u64 {
    let before = counting_alloc::calls();
    let loaded = load(src, Policy::no_delivery());
    let calls = counting_alloc::calls() - before;
    assert!(loaded.is_ok(), "a bundled ASP loads");
    calls
}

#[test]
fn loading_a_bundled_asp_allocates_no_more_than_pinned() {
    load_calls(PINS[0].1);
    let counts: Vec<u64> = PINS.iter().map(|&(_, src, _)| load_calls(src)).collect();
    let table: Vec<String> = PINS
        .iter()
        .zip(&counts)
        .map(|(&(name, _, pin), n)| format!("{name}: {n} (pin {pin})"))
        .collect();
    let total: u64 = counts.iter().sum();
    println!(
        "{total} allocator calls over 12 loads:\n{}",
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

/// `(bundled plan, allocator calls of one `load_bundled_plan`)`. At
/// commit 0270b94 they were 381, 436, 532, 6 003, 244, 877 and 145:
/// `obs_grid` paid an allocation per node name (two, with its `format!`
/// temporary), per link and per adjacency row, and one per BFS search
/// and per route. The pins are the counts once the topology and the
/// verifier's routes and searches became flat, presized tables.
const PLAN_PINS: &[(&str, u64)] = &[
    ("buggy_bounce", 369),
    ("buggy_shuttle", 424),
    ("http_cluster", 505),
    ("obs_grid", 1_195),
    ("relay_chain_fragile", 225),
    ("relay_chain_reliable", 857),
    ("relay_pair", 134),
];

/// Allocator calls of one `load_bundled_plan(name)`.
fn plan_calls(name: &str) -> u64 {
    let before = counting_alloc::calls();
    let loaded = load_bundled_plan(name);
    let calls = counting_alloc::calls() - before;
    assert!(loaded.is_ok(), "{name}: a bundled plan loads");
    calls
}

#[test]
fn loading_a_bundled_plan_allocates_no_more_than_pinned() {
    plan_calls(PLAN_PINS[0].0);
    let counts: Vec<u64> = PLAN_PINS
        .iter()
        .map(|&(name, _)| plan_calls(name))
        .collect();
    let table: Vec<String> = PLAN_PINS
        .iter()
        .zip(&counts)
        .map(|(&(name, pin), n)| format!("{name}: {n} (pin {pin})"))
        .collect();
    println!("allocator calls per plan load:\n{}", table.join("\n"));
    for (&(name, pin), &n) in PLAN_PINS.iter().zip(&counts) {
        assert!(
            n <= pin,
            "{name} allocates more than pinned:\n{}",
            table.join("\n")
        );
    }
}
