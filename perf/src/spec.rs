//! The benchmark's contract, read from `BENCHMARK.json` at build time
//! so metric names, units and bounds have one source.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    /// The contract compiled into this binary.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(20.0),
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// The metric list a run with the given `--trace` setting prints.
    pub fn metrics_for(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_well_formed() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            [
                "relay_grid",
                "relay_grid_telemetry",
                "http_gateway",
                "cluster_flash",
                "download"
            ]
        );
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!(!spec.end_to_end.is_empty() && spec.end_to_end.len() <= 16);
        assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "every name is used once");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                m.name.len() <= 64 && m.unit.len() <= 16 && !m.unit.is_empty(),
                "{m:?}"
            );
        }
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{m:?}");
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
