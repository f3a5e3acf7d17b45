//! Generated programs as the oracle of the bytecode engine: 1 500
//! programs × 8 packets in a debug build (ten times the seeds in
//! release, as CI runs it), through the generator and three-column
//! differential of `planp_bench::gen` (see its docs for what a program
//! holds and what the three entries must agree on). `planp check`'s
//! `gen` gate runs the same module on a smaller fixed budget.

use netsim::digest::Fnv;
use planp::apps::corpus::CORPUS;
use planp::apps::plans::{bundled_plans, resolve_asp};
use planp::lang::tast::TProgram;
use planp::lang::{compile_front, parse_plan};
use planp_bench::gen::{self, source};
use std::hash::Hasher;

#[test]
fn generated_programs_agree_on_all_three_entries() {
    // The release run (CI) takes ten times the seeds.
    let programs: u64 = if cfg!(debug_assertions) {
        1_500
    } else {
        15_000
    };
    let tally = gen::run(programs).unwrap_or_else(|why| panic!("{why}"));
    print!("{}", tally.render());
    for kind in gen::TYPED.iter().chain(gen::GENERIC) {
        let n = tally.emitted.get(kind).copied().unwrap_or(0);
        assert!(
            n >= 20,
            "{kind} emitted by {n} programs: {:?}",
            tally.emitted
        );
    }
    // The corpus took the error paths and did real work.
    let gen::Tally {
        dispatches,
        raised,
        effects,
        table_writes: writes,
        at_bound,
        ..
    } = tally;
    assert_eq!(dispatches, programs * 8);
    assert!(raised * 20 > dispatches, "{raised} of {dispatches} raised");
    assert!(raised * 2 < dispatches, "{raised} of {dispatches} raised");
    assert!(effects > dispatches / 2, "{effects} effects");
    assert!(writes > dispatches / 10, "{writes} table writes");
    // Every dispatch stayed within the verifier's bounds (`gen::run`),
    // and the step bound is exact often enough that one off by one
    // shows.
    assert!(
        at_bound * 20 > dispatches,
        "{at_bound} dispatches at the step bound"
    );
}

/// FNV-1a over the typed tree of every corpus ASP, every ASP a bundled
/// plan deploys and the 1 500 generated programs of the debug run, as
/// computed at commit 0c62d6f: how the front end represents a type or a
/// name may change, what it builds may not.
const TYPED_TREE_DIGEST: u64 = 0xb8f2_6c83_c9b4_f8da;

/// The `{:?}` of the typed program of `src`, `chan_groups` written as a
/// sorted list (it is a hash map).
fn typed_tree(src: &str) -> String {
    let TProgram {
        globals,
        funs,
        exns,
        proto_ty,
        proto_init,
        channels,
        chan_groups,
    } = compile_front(src).unwrap_or_else(|e| panic!("not well typed: {e}\n{src}"));
    let mut groups: Vec<_> = chan_groups.iter().collect();
    groups.sort();
    format!("{globals:?}{funs:?}{exns:?}{proto_ty:?}{proto_init:?}{channels:?}{groups:?}")
}

#[test]
fn typed_trees_are_those_of_the_pinned_commit() {
    let mut texts: Vec<String> = CORPUS.iter().map(|a| a.src.to_string()).collect();
    for (name, plan) in bundled_plans() {
        let plan = parse_plan(plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        for d in &plan.deploys {
            texts.push(resolve_asp(&d.asp).expect("a corpus ASP").0);
        }
    }
    texts.extend((0..1_500).map(|seed| source(seed, 1 + (seed % 4) as u32)));
    let mut h = Fnv::default();
    for src in &texts {
        h.write(typed_tree(src).as_bytes());
    }
    let digest = h.finish();
    assert_eq!(
        digest, TYPED_TREE_DIGEST,
        "a typed tree moved: {digest:#018x}"
    );
}

#[test]
fn a_program_is_a_function_of_its_seed_and_depth() {
    for seed in [0, 1, 17, 1_499] {
        assert_eq!(source(seed, 3), source(seed, 3));
        assert_ne!(source(seed, 3), source(seed + 1, 3));
    }
}
