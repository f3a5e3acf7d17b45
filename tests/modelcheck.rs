//! Integration tests for the explicit-state model checker: the
//! two-tier verifier, witness determinism, and simulator replay of
//! counterexamples.

use planp::analysis::modelcheck::{model_check, Verdict, DEFAULT_STATE_BUDGET};
use planp::analysis::summary::summarize;
use planp::analysis::termination::check_termination;
use planp::analysis::{verify, Policy};
use planp::runtime::replay_asp;

fn asp_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/asps"))
}

fn read_asp(name: &str) -> String {
    let path = asp_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The checked-in precision regression: the SCC screen rejects the
/// destination-re-pinning relay, the exhaustive tier proves it. Both
/// verdicts are pinned so neither tier silently changes.
#[test]
fn relay_pin_screen_rejects_exhaustive_proves() {
    let src = read_asp("relay_pin.planp");
    let prog = planp::lang::compile_front(&src).expect("relay_pin compiles");
    let sum = summarize(&prog);

    let screen = check_termination(&prog, &sum);
    assert!(!screen.is_proved(), "the SCC screen must keep rejecting");

    let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
    assert_eq!(mc.termination, Verdict::Proved);
    assert_eq!(mc.delivery, Verdict::Proved);
    assert!(mc.witnesses.is_empty());

    // End to end through the two-tier verifier.
    assert!(!verify(&prog, Policy::no_delivery()).accepted());
    assert!(verify(&prog, Policy::no_delivery().with_exhaustive_check()).accepted());
}

/// Witness JSON is byte-identical across two independent runs
/// (front end + summary + exploration + reconstruction repeated from
/// scratch).
#[test]
fn witness_json_is_deterministic_across_runs() {
    for name in [
        "buggy/bounce_pingpong.planp",
        "buggy/neighbor_pingpong.planp",
        "buggy/silent_drop.planp",
    ] {
        let src = read_asp(name);
        let render = || {
            let prog = planp::lang::compile_front(&src).expect("buggy ASP compiles");
            let sum = summarize(&prog);
            let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
            assert!(!mc.witnesses.is_empty(), "{name} must have witnesses");
            let mut out = String::new();
            mc.write_json(&src, &mut out);
            out
        };
        assert_eq!(render(), render(), "{name} witness JSON must be stable");
    }
}

/// Every counterexample the checker predicts for the buggy ASPs is
/// exhibited by concrete traffic in the simulator.
#[test]
fn buggy_asp_witnesses_replay_in_simulator() {
    // Loop confirmation is exact; drops are asserted only positively —
    // a looping packet that dies at TTL also registers a router drop.
    for (name, want_loop, want_drop) in [
        ("buggy/bounce_pingpong.planp", true, None),
        ("buggy/neighbor_pingpong.planp", true, None),
        ("buggy/silent_drop.planp", false, Some(true)),
    ] {
        let src = read_asp(name);
        let prog = planp::lang::compile_front(&src).expect("buggy ASP compiles");
        let sum = summarize(&prog);
        let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
        let rep = replay_asp(&src).expect("buggy ASP replays");
        for w in &mc.witnesses {
            assert!(
                rep.confirms(&w.kind),
                "{name}: witness {} did not replay: {rep:?}",
                w.code
            );
        }
        assert_eq!(rep.confirmed_loop, want_loop, "{name}: {rep:?}");
        if let Some(want) = want_drop {
            assert_eq!(rep.confirmed_drop, want, "{name}: {rep:?}");
        }
    }
}

/// The reliable relay's Violated verdict is a conservative
/// over-approximation: the predicted NACK/retransmit loop needs the
/// network to keep losing the retransmission, so it does *not* replay
/// on a clean topology — and the baseline must carry the
/// `witness=abstract` marker that tells the CI gate exactly that. If
/// the checker ever learns to prove this cycle, or the replay starts
/// confirming it, this pin flags the change.
#[test]
fn reliable_relay_witness_is_abstract() {
    let src = read_asp("reliable_relay.planp");
    let prog = planp::lang::compile_front(&src).expect("reliable_relay compiles");
    let sum = summarize(&prog);
    let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
    assert_eq!(mc.termination, Verdict::Violated);
    assert!(!mc.witnesses.is_empty());

    let rep = replay_asp(&src).expect("reliable_relay replays cleanly");
    assert!(
        !rep.confirmed_loop,
        "the NACK cycle must not loop on a lossless network: {rep:?}"
    );

    let baseline = read_asp("MODELCHECK_BASELINE.txt");
    let line = baseline
        .lines()
        .find(|l| l.starts_with("asps/reliable_relay.planp"))
        .expect("reliable_relay is pinned in the baseline");
    assert!(
        line.ends_with("witness=abstract"),
        "baseline must waive replay confirmation: {line}"
    );
}

/// Refinement, cross-validated: on every bundled ASP, a screen accept
/// implies an exhaustive accept — the model checker never overturns an
/// acceptance, only rejections.
#[test]
fn exhaustive_agrees_with_every_screen_accept() {
    let mut checked = 0;
    for entry in std::fs::read_dir(asp_dir()).expect("asps/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("planp") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let prog =
            planp::lang::compile_front(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let sum = summarize(&prog);
        let screen = check_termination(&prog, &sum);
        let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
        assert!(
            !mc.exhausted,
            "{}: bundled ASPs fit the budget",
            path.display()
        );
        if screen.is_proved() {
            assert_eq!(
                mc.termination,
                Verdict::Proved,
                "{}: screen accepted but the checker did not",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(checked >= 13, "expected the bundled corpus, saw {checked}");
}

/// The baseline file in the repository matches what the checker
/// produces today: the `modelcheck` gate of `planp check`, called
/// through the registry CI runs (two runs byte-identical, replays
/// confirmed, verdict text equal to the file).
#[test]
fn modelcheck_baseline_is_current() {
    let gate = planp_bench::check::GATES
        .iter()
        .find(|g| g.name == "modelcheck")
        .expect("the registry gates the model checker");
    let report = planp_bench::check::check([gate], &asp_dir(), false, None).expect("gate runs");
    assert!(!report.failed, "{}{}", report.stdout, report.stderr);
}
