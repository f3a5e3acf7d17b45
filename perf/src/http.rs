//! `http_gateway`: figure 8 through the stateful gateway ASP, 32
//! closed-loop clients, 150 simulated seconds; its twin is the built-in
//! `NativeGateway` on the same configuration.
//!
//! The harness does not own this simulation (`run_http_traced` builds
//! it), so the rungs of its layers run are the scenario's own modes.

use crate::check::{self, Counts};
use crate::ctx::{peak_rss_mb, Chunks, Report, Run, Series};
use crate::replay::{self, Kind};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig, HttpResult};
use planp_telemetry::{MetricsSnapshot, TraceConfig};
use std::hint::black_box;

const CLIENTS: usize = 32;
const DURATION_S: u64 = 150;
/// Simulated seconds of the untimed warm-up.
const WARMUP_S: u64 = 15;

fn config(mode: ClusterMode, seed: u64, duration_s: u64) -> HttpConfig {
    let mut cfg = HttpConfig::new(mode, CLIENTS);
    cfg.duration_s = duration_s;
    cfg.seed = seed;
    if mode == ClusterMode::InterpGateway {
        // The default 6.0 models the interpreter's slowness in
        // *simulated* time, and with it the run is not reproducible
        // (see "Known findings" in perf/README.md). At 1.0 the
        // simulated behaviour equals the JIT run's and only the wall
        // clock differs.
        cfg.interp_slowdown = 1.0;
    }
    cfg
}

struct HttpRep {
    counts: Counts,
    violations: Vec<String>,
}

fn rep(mode: ClusterMode, seed: u64, duration_s: u64) -> HttpRep {
    let (result, _telemetry, snap): (HttpResult, _, MetricsSnapshot) =
        run_http_traced(&config(mode, seed, duration_s), TraceConfig::default());
    let mut counts = check::snapshot_counts(&snap);
    counts.insert("completed".into(), result.completed);
    counts.insert("failed".into(), result.failed);
    counts.insert("gw_cpu_drops".into(), result.gw_cpu_drops);
    let mut violations = Vec::new();
    check::snapshot_identities(&format!("http {mode:?}"), &snap, &mut violations);
    HttpRep { counts, violations }
}

/// The plain run: every end-to-end metric.
pub fn plain(run: &mut Run) -> Report {
    let mut out = Report::default();
    let seed = run.seed;
    for mode in [ClusterMode::AspGateway, ClusterMode::NativeGateway] {
        black_box(rep(mode, seed, WARMUP_S).counts);
    }

    let (mut asp, mut native) = (Series::default(), Series::default());
    let mut setups = Chunks::default();
    let mut first = Counts::new();
    let pinned = check::pinned_at(&run.workload, seed);
    let reps = run.reps(2, |run, i| {
        let (a, ta) = run
            .clock
            .time(|| rep(ClusterMode::AspGateway, seed, DURATION_S));
        // Set-up: the whole scenario call with nothing to simulate.
        setups.sample(&mut run.clock, || {
            black_box(rep(ClusterMode::AspGateway, seed, 0).counts);
        });
        let (n, tn) = run
            .clock
            .time(|| rep(ClusterMode::NativeGateway, seed, DURATION_S));
        asp.push(ta);
        native.push(tn);
        out.violations
            .extend(a.violations.iter().chain(&n.violations).cloned());
        // The twin must do the same job, or the difference compares
        // two different jobs.
        for k in ["completed", "failed", "events", "gw_cpu_drops"] {
            if a.counts[k] != n.counts[k] {
                out.violations.push(format!(
                    "NativeGateway differs from the ASP run: {k} = {} vs {}",
                    n.counts[k], a.counts[k]
                ));
            }
        }
        let counts = check::pair_counts(&a.counts, &n.counts);
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

    let completed = first["completed"];
    let failed = first["failed"];
    let dispatches = first["dispatches"];
    if completed == 0 || dispatches == 0 {
        out.violations.push(format!(
            "{completed} requests completed over {dispatches} dispatches"
        ));
    }
    out.attempted = (completed + failed) * reps as u64;
    out.failed = failed * reps as u64;
    let per_dispatch = 1e9 / dispatches.max(1) as f64;
    out.set_timing(
        "ops_per_s",
        completed as f64 / asp.median_s(),
        completed as f64 / asp.raw_median_s(),
    );
    out.set_timing(
        "asp_overhead_ns",
        asp.median_over(&native) * per_dispatch,
        asp.raw_median_over(&native) * per_dispatch,
    );
    out.set(
        "done_share",
        completed as f64 / (completed + failed).max(1) as f64,
    );
    out.set_timing(
        "setup_s",
        setups.percentile(50.0),
        setups.raw_percentile(50.0),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "op: one completed HTTP request ({completed} per rep, {dispatches} PLAN-P dispatches)"
    ));
    out.note(format!("AspGateway rep:     {}", asp.describe()));
    out.note(format!("NativeGateway rep:  {}", native.describe()));
    out.note(format!(
        "set-up, the scenario with duration_s = 0: {}",
        setups.describe()
    ));
    out.counts = first;
    out
}

/// The layers run: the scenario's modes as rungs, then the stage
/// replay of generated HTTP and audio packets.
pub fn layers(run: &mut Run) -> Report {
    let mut out = Report::default();
    let seed = run.seed;
    black_box(rep(ClusterMode::AspGateway, seed, WARMUP_S).counts);

    // The JIT mode goes first: the others are checked against it.
    let modes = [
        ("asp_jit", ClusterMode::AspGateway),
        ("native", ClusterMode::NativeGateway),
        ("asp_interp", ClusterMode::InterpGateway),
    ];
    let mut series = vec![Series::default(); modes.len()];
    let mut jit = Counts::new();
    run.reps(1, |run, pass| {
        for (i, (name, mode)) in modes.iter().enumerate() {
            let (r, t) = run.clock.time(|| rep(*mode, seed, DURATION_S));
            series[i].push(t);
            out.violations.extend(r.violations.iter().cloned());
            if *mode == ClusterMode::AspGateway && pass == 0 {
                jit = r.counts.clone();
            }
            // Interpreter at slowdown 1.0 and the native gateway must
            // simulate exactly what the JIT run simulates.
            for k in ["completed", "events"] {
                if r.counts[k] != jit[k] {
                    out.violations.push(format!(
                        "mode {name} differs from asp_jit: {k} = {} vs {}",
                        r.counts[k], jit[k]
                    ));
                }
            }
            if *mode == ClusterMode::InterpGateway {
                for k in ["dispatches", "vm_steps"] {
                    if r.counts[k] != jit[k] {
                        out.violations.push(format!(
                            "interpreter and JIT disagree: {k} = {} vs {}",
                            r.counts[k], jit[k]
                        ));
                    }
                }
            }
        }
    });
    for ((name, _), s) in modes.iter().zip(&series) {
        out.set(&format!("http.wall_s.{name}"), s.median_s());
        out.note(format!("mode {name:<10} {}", s.describe()));
    }

    let c = &jit;
    out.set_sim_counts(c, series[0].median_s());
    out.set(
        "failed_share",
        c["failed"] as f64 / (c["completed"] + c["failed"]).max(1) as f64,
    );
    out.set_bench(&series[0]);

    for (kind, packets) in [
        (Kind::Http, replay::http_packets(seed, replay::MAX_PACKETS)),
        (
            Kind::Audio,
            replay::audio_packets(seed, replay::MAX_PACKETS),
        ),
    ] {
        let (s, t) = run.clock.time(|| replay::replay(kind, &packets));
        let k = kind.name();
        out.set(
            &format!("runtime.convert_in_ns.{k}"),
            s.convert_in_ns * t.factor,
        );
        out.set(
            &format!("runtime.convert_out_ns.{k}"),
            s.convert_out_ns * t.factor,
        );
        out.set(&format!("vm.jit_ns.{k}"), s.jit_ns * t.factor);
        out.set(&format!("vm.interp_ns.{k}"), s.interp_ns * t.factor);
        out.set(&format!("vm.native_ns.{k}"), s.native_ns * t.factor);
        if kind == Kind::Http {
            out.set("runtime.decode_attempts_per_dispatch", s.decode_attempts);
            out.set(
                "vm.jit_ns_per_step",
                s.jit_ns * t.factor / s.steps_per_packet.max(1.0),
            );
            out.set("vm.jit_over_interp.http", s.jit_ns / s.interp_ns);
            out.set("vm.jit_over_native.http", s.jit_ns / s.native_ns);
        }
        out.note(format!(
            "stage replay {k}: {} generated packets, {} emitted, {:.1} steps per packet",
            s.packets, s.emitted, s.steps_per_packet
        ));
    }
    out.counts = jit;
    out
}
