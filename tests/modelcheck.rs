//! Integration tests for the explicit-state model checker: its
//! precision, witness determinism, and simulator replay of
//! counterexamples.

use planp::analysis::modelcheck::{model_check, Verdict};
use planp::analysis::summary::summarize;
use planp::analysis::{verify, Policy};
use planp::netsim::digest::Fnv;
use planp::runtime::{replay_asp, replay_asp_traced, replay_plan, ReplayReport};
use std::hash::Hasher;

fn asp_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/asps"))
}

fn read_asp(name: &str) -> String {
    let path = asp_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The checked-in precision regression: a destination-changing send
/// sits on the relay → relay cycle, yet every hop re-pins the *same*
/// server address. A checker that tracked only "the destination
/// changed" would reject; tracking the value proves it, and the default
/// download accepts.
#[test]
fn default_download_accepts_relay_pin() {
    let src = read_asp("relay_pin.planp");
    let prog = planp::lang::compile_front(&src).expect("relay_pin compiles");
    let sum = summarize(&prog);

    let mc = model_check(&prog, &sum);
    assert_eq!(mc.termination, Verdict::Proved);
    assert_eq!(mc.delivery, Verdict::Proved);
    assert!(mc.witnesses.is_empty());

    assert!(verify(&prog, Policy::no_delivery()).accepted());
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
            let mc = model_check(&prog, &sum);
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
        let mc = model_check(&prog, &sum);
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
    let mc = model_check(&prog, &sum);
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

/// One replay report as a pin line.
fn report_line(r: &ReplayReport) -> String {
    format!(
        "sent={} dispatches={} delivered={} dropped={} errors={} loop={} drop={} exception={}",
        r.sent,
        r.dispatches,
        r.delivered,
        r.dropped,
        r.errors,
        r.confirmed_loop,
        r.confirmed_drop,
        r.confirmed_exception
    )
}

/// Every corpus ASP with a model-checker witness, replayed with its
/// span trees: the report, and an FNV-1a digest of the rendered trees.
const ASP_REPLAY_PINS: &[(&str, &str, u64)] = &[
    ("mpeg_capture", DROPPED, 0x3cac_84d6_057b_90d5),
    ("mpeg_monitor", DROPPED, 0xeaf6_3a07_a845_bfb9),
    (
        "reliable_relay",
        "sent=4 dispatches=8 delivered=4 dropped=0 errors=0 loop=false drop=false exception=false",
        0xfa17_ff1c_802a_6caa,
    ),
    (
        "bounce_pingpong",
        "sent=4 dispatches=256 delivered=0 dropped=0 errors=0 loop=true drop=false exception=false",
        0x00d5_ea93_42e9_0173,
    ),
    (
        "neighbor_pingpong",
        "sent=4 dispatches=260 delivered=0 dropped=4 errors=0 loop=true drop=true exception=false",
        0xcf0a_9bf4_fc1d_7aff,
    ),
    ("silent_drop", DROPPED, 0x9d8d_3667_63a1_e5ad),
];

/// Each probe dispatched once at the first router and dropped there.
const DROPPED: &str =
    "sent=4 dispatches=4 delivered=0 dropped=4 errors=0 loop=false drop=true exception=false";

/// Every bundled plan's concrete replay.
const PLAN_REPLAY_PINS: &[(&str, &str)] = &[
    (
        "buggy_bounce",
        "sent=8 dispatches=512 delivered=0 dropped=0 errors=0 loop=true drop=false exception=false",
    ),
    (
        "buggy_shuttle",
        "sent=8 dispatches=512 delivered=0 dropped=0 errors=0 loop=true drop=false exception=false",
    ),
    (
        "http_cluster",
        "sent=24 dispatches=0 delivered=24 dropped=0 errors=0 loop=false drop=false exception=false",
    ),
    (
        "obs_grid",
        "sent=512 dispatches=3072 delivered=512 dropped=0 errors=0 loop=true drop=false exception=false",
    ),
    (
        "relay_chain_fragile",
        "sent=4 dispatches=20 delivered=4 dropped=0 errors=0 loop=true drop=false exception=false",
    ),
    (
        "relay_chain_reliable",
        "sent=4 dispatches=20 delivered=4 dropped=0 errors=0 loop=true drop=false exception=false",
    ),
    (
        "relay_pair",
        "sent=8 dispatches=16 delivered=8 dropped=0 errors=0 loop=false drop=false exception=false",
    ),
];

/// The numbers of every counterexample replay, pinned: `planp check`
/// compares a replay only with itself run twice, and the baselines pin
/// verdicts, so nothing else notices a replay that counts differently.
#[test]
fn replays_are_pinned() {
    let mut asps = Vec::new();
    for asp in planp::apps::corpus::CORPUS {
        let src = asp.file_text();
        let prog = planp::lang::compile_front(src).expect("corpus ASP compiles");
        if model_check(&prog, &summarize(&prog)).witnesses.is_empty() {
            continue;
        }
        let (rep, tree) = replay_asp_traced(src).expect("corpus ASP replays");
        let mut h = Fnv::default();
        h.write(tree.as_bytes());
        asps.push((asp.name, report_line(&rep), h.finish()));
    }
    let want: Vec<_> = ASP_REPLAY_PINS
        .iter()
        .map(|&(n, r, d)| (n, r.to_string(), d))
        .collect();
    assert_eq!(asps, want, "got {asps:#x?}");

    let plans: Vec<_> = planp::apps::plans::bundled_plans()
        .into_iter()
        .map(|(name, _)| {
            let image = planp::apps::plans::load_bundled_plan(name).expect("bundled plan loads");
            (
                name,
                report_line(&replay_plan(&image).expect("plan replays")),
            )
        })
        .collect();
    let want: Vec<_> = PLAN_REPLAY_PINS
        .iter()
        .map(|&(n, r)| (n, r.to_string()))
        .collect();
    assert_eq!(plans, want, "got {plans:#?}");
}
