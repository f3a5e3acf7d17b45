//! The gate, in tier-1: every report of `planp check`'s registry that
//! finishes in a debug build, run the way CI runs it — twice, compared
//! byte for byte, baseline text against `asps/*_BASELINE.txt`. A stale
//! baseline fails `cargo test` and prints the differing line pairs.

use planp_bench::check::{check, GATES};
use std::path::Path;

#[test]
fn every_tier1_gate_holds() {
    // `tests/modelcheck.rs` runs the model-check gate next to the
    // checker's other tests.
    let gates = GATES.iter().filter(|g| g.tier1 && g.name != "modelcheck");
    let asps = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/asps"));
    let report = check(gates, asps, false, None).expect("every gate runs");
    assert!(!report.failed, "{}{}", report.stdout, report.stderr);
    for pinned in ["plan", "state", "profile"] {
        assert!(
            report.stdout.contains(&format!("ok    {pinned}\n")),
            "{pinned} must be gated in tier-1:\n{}",
            report.stdout
        );
    }
}
