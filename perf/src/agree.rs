//! Comparing result sets: `--agree A B` (two sets of the same commit
//! must agree).
//!
//! A result set is what `perf/run.sh` writes:
//! `{"runs": [{"workload": W, "trace": 0|1, "seed": N, "result": R}, …]}`
//! where `R` is the last line a benchmark process printed.

use crate::json::Json;
use crate::spec::Spec;
use std::collections::BTreeMap;

/// Metrics that are counts or ratios of counts of a deterministic
/// simulation: two runs at one seed must print them bit for bit.
pub const EXACT: &[&str] = &[
    "done_share",
    "failed_share",
    "netsim.events",
    "netsim.queue_drops",
    "netsim.queue_depth_p99",
    "apps.calls",
    "runtime.dispatches",
    "runtime.fallback_share",
    "runtime.decode_attempts_per_dispatch",
    "runtime.admission_shed",
    "vm.steps_per_dispatch",
    "vm.codegen_nodes",
    "analysis.modelcheck_states",
    "telemetry.events_kept",
    "telemetry.events_evicted",
];

/// One benchmark process's result line, with what was run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub correct: bool,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Reads every run of a result set.
pub fn parse_runs(doc: &Json) -> Result<Vec<RunResult>, String> {
    let runs = doc.get("runs").ok_or("result set has no \"runs\"")?;
    runs.as_arr()
        .iter()
        .map(|r| {
            let field = |k: &str| r.get(k).ok_or_else(|| format!("run without \"{k}\""));
            let result = field("result")?;
            let num = |k: &str| {
                result
                    .get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("result without \"{k}\""))
            };
            Ok(RunResult {
                workload: field("workload")?
                    .as_str()
                    .ok_or("workload is not a string")?
                    .to_string(),
                trace: field("trace")?.as_f64() == Some(1.0),
                seed: field("seed")?.as_f64().ok_or("seed is not a number")? as u64,
                correct: result
                    .get("correct")
                    .and_then(Json::as_bool)
                    .ok_or("result without \"correct\"")?,
                failed: num("failed")? as u64,
                metrics: result
                    .get("metrics")
                    .map(Json::as_obj)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

type Key = (String, bool, u64);

fn by_key(runs: &[RunResult]) -> BTreeMap<Key, &RunResult> {
    runs.iter()
        .map(|r| ((r.workload.clone(), r.trace, r.seed), r))
        .collect()
}

/// Every disagreement between two result sets of the same commit, and
/// one line per comparison made (for the report).
pub fn agree(a: &[RunResult], b: &[RunResult], spec: &Spec) -> (Vec<String>, Vec<String>) {
    let (mut bad, mut lines) = (Vec::new(), Vec::new());
    let (ka, kb) = (by_key(a), by_key(b));
    for key in ka.keys().filter(|k| !kb.contains_key(*k)) {
        bad.push(format!("{key:?} is only in the first set"));
    }
    for key in kb.keys().filter(|k| !ka.contains_key(*k)) {
        bad.push(format!("{key:?} is only in the second set"));
    }
    for (key, ra) in &ka {
        let Some(rb) = kb.get(key) else { continue };
        let what = format!(
            "{} seed {}{}",
            key.0,
            key.2,
            if key.1 { " layers" } else { "" }
        );
        for (set, r) in [("first", ra), ("second", rb)] {
            if !r.correct {
                bad.push(format!("{what}: the {set} set's output check failed"));
            }
        }
        if ra.failed != rb.failed {
            bad.push(format!("{what}: failed = {} vs {}", ra.failed, rb.failed));
        }
        for m in spec.metrics_for(key.1) {
            let (Some(&va), Some(&vb)) = (ra.metrics.get(&m.name), rb.metrics.get(&m.name)) else {
                bad.push(format!("{what}: {} is missing from a set", m.name));
                continue;
            };
            if EXACT.contains(&m.name.as_str()) {
                if va != vb {
                    bad.push(format!(
                        "{what}: {} must repeat exactly: {va} vs {vb}",
                        m.name
                    ));
                }
                continue;
            }
            let Some(bound) = m.bound else { continue };
            let diff = if va == 0.0 {
                f64::INFINITY
            } else {
                (vb - va).abs() / va.abs()
            };
            lines.push(format!(
                "{what:<36} {:<18} {va:>14.4} {vb:>14.4} {:>7.2}% (bound {:.0}%)",
                m.name,
                diff * 100.0,
                bound * 100.0
            ));
            if diff > bound {
                bad.push(format!(
                    "{what}: {} differs by {:.2}% (bound {:.0}%): {va} vs {vb}",
                    m.name,
                    diff * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    (bad, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops: f64, done: f64, correct: bool) -> Vec<RunResult> {
        let spec = Spec::load();
        let doc = format!(
            r#"{{"runs": [{{"workload": "relay_grid", "trace": 0, "seed": 11, "result":
                {{"correct": {correct}, "attempted": 10, "failed": 0, "metrics": {{{}}}}}}}]}}"#,
            spec.end_to_end
                .iter()
                .map(|m| {
                    let v = match m.name.as_str() {
                        "ops_per_s" => ops,
                        "done_share" => done,
                        _ => 5.0,
                    };
                    format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
        parse_runs(&Json::parse(&doc).unwrap()).unwrap()
    }

    #[test]
    fn sets_within_the_bound_agree() {
        let spec = Spec::load();
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "ops_per_s")
            .unwrap()
            .bound
            .unwrap();
        let (bad, lines) = agree(
            &set(1000.0, 1.0, true),
            &set(1000.0 * (1.0 + bound * 0.9), 1.0, true),
            &spec,
        );
        assert!(bad.is_empty(), "{bad:?}");
        assert!(!lines.is_empty());
    }

    #[test]
    fn sets_outside_the_bound_disagree_in_either_direction() {
        let spec = Spec::load();
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "ops_per_s")
            .unwrap()
            .bound
            .unwrap();
        for factor in [1.0 + bound * 1.2, 1.0 - bound * 1.2] {
            let (bad, _) = agree(
                &set(1000.0, 1.0, true),
                &set(1000.0 * factor, 1.0, true),
                &spec,
            );
            assert_eq!(bad.len(), 1, "{bad:?}");
            assert!(bad[0].contains("ops_per_s differs by"), "{bad:?}");
        }
    }

    #[test]
    fn exact_metrics_failed_checks_and_missing_runs_disagree() {
        let spec = Spec::load();
        let (bad, _) = agree(
            &set(1000.0, 1.0, true),
            &set(1000.0, 0.999_999, true),
            &spec,
        );
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("done_share must repeat exactly"), "{bad:?}");
        let (bad, _) = agree(&set(1000.0, 1.0, true), &set(1000.0, 1.0, false), &spec);
        assert!(
            bad.iter()
                .any(|l| l.contains("second set's output check failed")),
            "{bad:?}"
        );
        let (bad, _) = agree(&set(1000.0, 1.0, true), &[], &spec);
        assert!(bad[0].contains("only in the first set"), "{bad:?}");
    }

    #[test]
    fn malformed_result_sets_are_errors() {
        for doc in [
            "{}",
            r#"{"runs": [{"workload": "w"}]}"#,
            r#"{"runs": [{"workload": "w", "trace": 0, "seed": 1, "result": {}}]}"#,
        ] {
            assert!(parse_runs(&Json::parse(doc).unwrap()).is_err(), "{doc}");
        }
    }
}
