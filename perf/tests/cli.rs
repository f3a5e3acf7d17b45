//! The binary from the outside: exit codes and the one-line error
//! convention the other bins of this repository follow (usage errors
//! exit 2 with `planp-perf: ...` on standard error), and `--agree` on
//! result-set files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn planp_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_planp_perf"))
        .args(args)
        .output()
        .expect("planp_perf starts")
}

/// A result set holding one plain `download` run whose every
/// end-to-end metric reads 5, except `ops_per_s`.
fn result_set(name: &str, ops_per_s: f64) -> PathBuf {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json is readable");
    // Names and units of the end-to-end metrics, cut out of the
    // contract without a JSON parser: each is declared on one line.
    let metrics: Vec<String> = contract
        .lines()
        .filter(|l| l.contains("\"bound\""))
        .map(|l| {
            let field = |key: &str| {
                let rest = &l[l.find(key).expect("declared field") + key.len()..];
                let rest = &rest[rest.find('"').expect("opening quote") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            };
            let (name, unit) = (field("\"name\":"), field("\"unit\":"));
            let value = if name == "ops_per_s" { ops_per_s } else { 5.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    assert!(
        metrics.len() >= 2,
        "found the end-to-end metrics in the contract"
    );
    let doc = format!(
        "{{\"runs\": [{{\"workload\": \"download\", \"trace\": 0, \"seed\": 11, \"result\": \
         {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{{}}}}}}}]}}\n",
        metrics.join(", ")
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, doc).expect("the test directory is writable");
    path
}

#[test]
fn usage_errors_exit_2_with_one_line() {
    let cases: [&[&str]; 7] = [
        &[],
        &["--workload", "ftp"],
        &["--workload", "download", "--seed"],
        &["--workload", "download", "--trace", "7"],
        &["--bogus"],
        &["--agree", "only-one.json"],
        &["--agree", "/nonexistent/a.json", "/nonexistent/b.json"],
    ];
    for args in cases {
        let out = planp_perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("planp-perf: "), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn help_exits_0() {
    let out = planp_perf(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--workload W"));
}

#[test]
fn agree_exits_0_within_the_bound_and_1_outside() {
    let base = result_set("agree_base.json", 1000.0);
    let near = result_set("agree_near.json", 1010.0);
    let far = result_set("agree_far.json", 5000.0);
    let (base, near, far) = (
        base.to_str().unwrap(),
        near.to_str().unwrap(),
        far.to_str().unwrap(),
    );

    let out = planp_perf(&["--agree", base, near]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("the two sets agree"));

    let out = planp_perf(&["--agree", base, far]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("DISAGREE: download seed 11: ops_per_s differs by"),
        "{text}"
    );
}
