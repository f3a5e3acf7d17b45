//! `cluster_flash`: `run_cluster(&ClusterConfig::standard())` unchanged
//! but for the seed — 1M open-loop requests, 13.9M events, a native
//! gateway, one trivial ASP dispatch per request, monitor, brownout and
//! six crashes. Pinned by `asps/CLUSTER_BASELINE.txt`, so its outputs
//! are checkable.
//!
//! No native twin of the forwarder tier can be built from the public
//! API, so `asp_overhead_ns` subtracts nothing here: it reads as the
//! whole wall per PLAN-P dispatch, an upper bound.

use crate::check::{self, Counts};
use crate::ctx::{peak_rss_mb, Chunks, Report, Run, Series};
use planp_apps::cluster::{run_cluster, ClusterConfig, ClusterResult};
use planp_runtime::Engine;
use std::hint::black_box;

fn config(seed: u64, engine: Engine) -> ClusterConfig {
    ClusterConfig {
        seed,
        engine,
        ..ClusterConfig::standard()
    }
}

fn counts_of(r: &ClusterResult) -> Counts {
    let mut c = check::snapshot_counts(&r.snapshot);
    for (k, v) in [
        ("sent", r.sent),
        ("admitted", r.admitted),
        ("completed", r.completed),
        ("agg_shed", r.agg_shed),
        ("agg_expired", r.agg_expired),
        ("shed_brownout", r.shed_brownout),
        ("shed_saturated", r.shed_saturated),
        ("shed_queue", r.shed_queue),
        ("gw_expired", r.gw_expired),
        ("timeouts", r.timeouts),
        ("crashes", r.crashes),
        ("breaches", r.breaches),
    ] {
        c.insert(k.into(), v);
    }
    c
}

/// Requests that neither completed nor were refused or lost for a
/// reason the scenario names: the op-level failures of this workload.
fn unaccounted(c: &Counts) -> u64 {
    let named = c["completed"]
        + c["agg_shed"]
        + c["agg_expired"]
        + c["shed_brownout"]
        + c["shed_saturated"]
        + c["shed_queue"]
        + c["gw_expired"]
        + c["timeouts"];
    c["sent"].abs_diff(named)
}

fn check_result(r: &ClusterResult, out: &mut Vec<String>) {
    if !r.node_drop_identity_holds() {
        out.push(format!(
            "node drop identity broken: total {} != per-node sum {}",
            r.total_node_drops, r.sum_node_drops
        ));
    }
    if !r.link_drop_identity_holds() {
        out.push(format!(
            "link drop identity broken: total {} != per-link sum {} + fault {}",
            r.total_link_drops, r.sum_link_drops, r.sum_fault_drops
        ));
    }
    if !r.corpse_traffic_probe_only() {
        out.push(format!(
            "{} requests went to a broken backend, but only {} probes were sent",
            r.sent_while_broken, r.probes
        ));
    }
}

/// The plain run: every end-to-end metric.
pub fn plain(run: &mut Run) -> Report {
    let mut out = Report::default();
    let seed = run.seed;
    // Untimed warm-up: the scenario's own miniature.
    black_box(
        run_cluster(&ClusterConfig {
            seed,
            ..ClusterConfig::smoke()
        })
        .completed,
    );

    let mut series = Series::default();
    let mut setups = Chunks::default();
    let mut first = Counts::new();
    let pinned = check::pinned_at(&run.workload, seed);
    let reps = run.reps(2, |run, i| {
        let (r, t) = run.clock.time(|| run_cluster(&config(seed, Engine::Jit)));
        series.push(t);
        // Set-up: the whole scenario call with nothing to simulate.
        setups.sample(&mut run.clock, || {
            let cfg = ClusterConfig {
                duration_s: 0,
                ..config(seed, Engine::Jit)
            };
            black_box(run_cluster(&cfg).sent);
        });
        check_result(&r, &mut out.violations);
        let counts = counts_of(&r);
        check::check_rep(
            &run.workload,
            pinned.as_ref(),
            i,
            &first,
            &counts,
            &mut out.violations,
        );
        if i == 0 {
            first = counts;
        }
    });

    let (sent, completed, dispatches) = (first["sent"], first["completed"], first["dispatches"]);
    let lost = unaccounted(&first);
    if lost != 0 {
        out.violations.push(format!(
            "{lost} of {sent} requests neither completed nor were refused for a named reason"
        ));
    }
    out.attempted = sent * reps as u64;
    out.failed = lost * reps as u64;
    let per_dispatch = 1e9 / dispatches.max(1) as f64;
    out.set_timing(
        "ops_per_s",
        sent as f64 / series.median_s(),
        sent as f64 / series.raw_median_s(),
    );
    out.set_timing(
        "asp_overhead_ns",
        series.median_s() * per_dispatch,
        series.raw_median_s() * per_dispatch,
    );
    out.set("done_share", completed as f64 / sent.max(1) as f64);
    out.set_timing(
        "setup_s",
        setups.percentile(50.0),
        setups.raw_percentile(50.0),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "op: one client request sent ({sent} per rep; {completed} completed, {} refused or timed out by design, {lost} unaccounted)",
        sent - completed - lost.min(sent - completed)
    ));
    out.note(format!("rep (Engine::Jit):  {}", series.describe()));
    out.note(
        "no native twin exists: asp_overhead_ns is wall / dispatches, an upper bound".to_string(),
    );
    out.note(format!(
        "set-up, the scenario with duration_s = 0: {}",
        setups.describe()
    ));
    out.counts = first;
    out
}

/// The layers run: the scenario's two engines as rungs.
pub fn layers(run: &mut Run) -> Report {
    let mut out = Report::default();
    let seed = run.seed;
    black_box(
        run_cluster(&ClusterConfig {
            seed,
            ..ClusterConfig::smoke()
        })
        .completed,
    );

    let engines = [("jit", Engine::Jit), ("interp", Engine::Interp)];
    let mut series = vec![Series::default(); engines.len()];
    let mut jit = Counts::new();
    run.reps(1, |run, _| {
        for (i, (name, engine)) in engines.iter().enumerate() {
            let (r, t) = run.clock.time(|| run_cluster(&config(seed, *engine)));
            series[i].push(t);
            check_result(&r, &mut out.violations);
            let counts = counts_of(&r);
            if jit.is_empty() {
                jit = counts;
            } else {
                // Engine choice never shifts simulated time.
                check::compare(
                    &format!("engine {name} vs the first jit rep"),
                    &jit,
                    &counts,
                    &mut out.violations,
                );
            }
        }
    });
    for ((name, _), s) in engines.iter().zip(&series) {
        out.set(&format!("cluster.wall_s.{name}"), s.median_s());
        out.note(format!("engine {name:<7} {}", s.describe()));
    }
    let c = &jit;
    out.set_sim_counts(c, series[0].median_s());
    out.set(
        "failed_share",
        1.0 - c["completed"] as f64 / c["sent"].max(1) as f64,
    );
    out.set_bench(&series[0]);
    out.counts = jit;
    out
}
