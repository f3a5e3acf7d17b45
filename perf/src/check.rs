//! Output checks: simulated statistics must repeat exactly from rep to
//! rep, match the pinned file at the pinned seed, and keep the drop
//! identities. Simulated-time results are *checks* here, never metrics.

use crate::json::Json;
use planp_telemetry::MetricsSnapshot;
use std::collections::BTreeMap;

/// Exact simulated statistics of one rep, by name.
pub type Counts = BTreeMap<String, u64>;

/// The seed `perf/expected.json` was recorded at.
pub const PINNED_SEED: u64 = 11;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The pinned counts of `workload`. `always` selects the section that
/// holds at every seed (download verdicts do not depend on corpus
/// order); otherwise the section recorded at [`PINNED_SEED`].
pub fn pinned(workload: &str, always: bool) -> Counts {
    let doc = Json::parse(EXPECTED_JSON).expect("perf/expected.json is valid JSON");
    let section = if always { "any_seed" } else { "seed_11" };
    doc.get(section)
        .and_then(|s| s.get(workload))
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
        .collect()
}

/// Appends one line per count of `want` that `got` lacks or has
/// otherwise. Counts only `got` has pass: the pinned file holds the few
/// the benchmark is defined by, not every statistic a rep collects.
pub fn compare_pinned(what: &str, want: &Counts, got: &Counts, out: &mut Vec<String>) {
    for (k, w) in want {
        match got.get(k) {
            Some(g) if g == w => {}
            Some(g) => out.push(format!("{what}: {k} = {g}, expected {w}")),
            None => out.push(format!("{what}: {k} missing, expected {w}")),
        }
    }
}

/// Appends one line per difference between `want` and `got`, which
/// must hold the same counts.
pub fn compare(what: &str, want: &Counts, got: &Counts, out: &mut Vec<String>) {
    compare_pinned(what, want, got, out);
    for k in got.keys().filter(|k| !want.contains_key(*k)) {
        out.push(format!("{what}: unexpected count {k} = {}", got[k]));
    }
}

/// The ASP run's counts with its native twin's under a `native.`
/// prefix: one map per rep pair, so one comparison checks both.
pub fn pair_counts(asp: &Counts, native: &Counts) -> Counts {
    let mut all = asp.clone();
    all.extend(native.iter().map(|(k, v)| (format!("native.{k}"), *v)));
    all
}

/// Checks one rep's counts: rep 0 against the pinned counts (when the
/// caller runs at the pinned seed and passes them), every later rep
/// against all of rep 0.
pub fn check_rep(
    what: &str,
    pinned: Option<&Counts>,
    rep: usize,
    first: &Counts,
    got: &Counts,
    out: &mut Vec<String>,
) {
    if rep > 0 {
        compare(&format!("{what} rep {rep} vs rep 0"), first, got, out);
    } else if let Some(want) = pinned {
        compare_pinned(&format!("{what} vs perf/expected.json"), want, got, out);
    }
}

/// The counts pinned for `workload` at `seed`, if that is the seed the
/// file was recorded at.
pub fn pinned_at(workload: &str, seed: u64) -> Option<Counts> {
    (seed == PINNED_SEED).then(|| pinned(workload, false))
}

fn sum_where(snap: &MetricsSnapshot, pred: impl Fn(&str) -> bool) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(_, v)| *v)
        .sum()
}

/// True for `node.<name>.<field>` keys (three parts), which is how the
/// snapshot tells a node's own counter from a channel counter such as
/// `node.<name>.chan.network.dropped`.
fn node_field(key: &str, field: &str) -> bool {
    let mut parts = key.split('.');
    parts.next() == Some("node")
        && parts.next().is_some()
        && parts.next() == Some(field)
        && parts.next().is_none()
}

/// The simulated statistics every `Sim`-backed workload pins, read off
/// the final metrics snapshot.
pub fn snapshot_counts(snap: &MetricsSnapshot) -> Counts {
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let mut out = Counts::new();
    out.insert("events".into(), c("sim.events_processed"));
    out.insert("packets".into(), c("sim.packets"));
    out.insert(
        "dispatches".into(),
        sum_where(snap, |k| k.ends_with(".dispatch")),
    );
    out.insert(
        "vm_steps".into(),
        sum_where(snap, |k| k.ends_with(".vm_steps")),
    );
    out.insert(
        "fallback_ip".into(),
        sum_where(snap, |k| k.ends_with(".planp.fallback_ip")),
    );
    out.insert(
        "admission_shed".into(),
        sum_where(snap, |k| k.contains(".chan.") && k.ends_with(".shed")),
    );
    out.insert(
        "cpu_drops".into(),
        sum_where(snap, |k| node_field(k, "cpu_drops")),
    );
    out.insert("link_drops".into(), c("sim.link_drops_total"));
    out.insert("node_drops".into(), c("sim.node_drops_total"));
    out.insert(
        "queue_depth_p99".into(),
        snap.histograms
            .iter()
            .filter(|(k, _)| k.ends_with("queue_depth"))
            .map(|(_, h)| h.p99)
            .max()
            .unwrap_or(0),
    );
    out
}

/// The two drop-accounting identities, from a (non-compact) snapshot:
/// every node drop is counted in exactly one per-node bucket, every
/// link drop in exactly one per-link bucket.
pub fn snapshot_identities(what: &str, snap: &MetricsSnapshot, out: &mut Vec<String>) {
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let node_sum = sum_where(snap, |k| {
        node_field(k, "dropped") || node_field(k, "cpu_drops") || node_field(k, "shed")
    });
    if node_sum != c("sim.node_drops_total") {
        out.push(format!(
            "{what}: node drop identity broken: total {} != per-node sum {node_sum}",
            c("sim.node_drops_total")
        ));
    }
    let link_sum = sum_where(snap, |k| {
        k.starts_with("link") && (k.ends_with(".drops") || k.ends_with(".fault_drops"))
    });
    if link_sum != c("sim.link_drops_total") {
        out.push(format!(
            "{what}: link drop identity broken: total {} != per-link sum {link_sum}",
            c("sim.link_drops_total")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> Counts {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn compare_reports_each_kind_of_difference() {
        let want = counts(&[("a", 1), ("b", 2), ("c", 3)]);
        let got = counts(&[("a", 1), ("b", 5), ("d", 4)]);
        let mut out = Vec::new();
        compare("w", &want, &got, &mut out);
        assert_eq!(
            out,
            [
                "w: b = 5, expected 2",
                "w: c missing, expected 3",
                "w: unexpected count d = 4"
            ]
        );
        out.clear();
        compare("w", &want, &want, &mut out);
        assert!(out.is_empty());
        compare_pinned("w", &want, &got, &mut out);
        assert_eq!(out, ["w: b = 5, expected 2", "w: c missing, expected 3"]);
    }

    #[test]
    fn pinned_file_covers_every_workload() {
        for w in crate::spec::Spec::load().workloads {
            let n = pinned(&w, false).len() + pinned(&w, true).len();
            assert!(n > 0, "perf/expected.json pins nothing for {w}");
        }
        let cluster = pinned("cluster_flash", false);
        assert_eq!(cluster["sent"], 1_000_000);
        assert_eq!(cluster["completed"], 829_838);
        assert_eq!(cluster["events"], 13_862_865);
        let dl = pinned("download", true);
        assert_eq!(dl["plan.buggy_bounce"], 0);
        assert_eq!(dl["plan.buggy_shuttle"], 0);
        assert_eq!(dl["plan.http_cluster"], 1);
    }

    #[test]
    fn identities_read_node_and_link_buckets_only() {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("node.gw.dropped", 2);
        snap.set_counter("node.gw.cpu_drops", 3);
        snap.set_counter("node.gw.shed", 1);
        snap.set_counter("node.gw.chan.network.dropped", 99);
        snap.set_counter("node.gw.chan.network.shed", 7);
        snap.set_counter("node.gw.chan.network.dispatch", 40);
        snap.set_counter("node.gw.planp.fallback_ip", 5);
        snap.set_counter("link0.drops", 4);
        snap.set_counter("link1.fault_drops", 1);
        snap.set_counter("sim.node_drops_total", 6);
        snap.set_counter("sim.link_drops_total", 5);
        let mut out = Vec::new();
        snapshot_identities("t", &snap, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let c = snapshot_counts(&snap);
        assert_eq!(c["dispatches"], 40);
        assert_eq!(c["admission_shed"], 7);
        assert_eq!(c["fallback_ip"], 5);
        snap.set_counter("sim.node_drops_total", 7);
        snapshot_identities("t", &snap, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("node drop identity broken"));
    }
}
