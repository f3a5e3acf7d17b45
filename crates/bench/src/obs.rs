//! `planp obs` — telemetry overhead at scale: deterministic trace
//! sampling swept over a 1024-node grid of relay chains.
//!
//! ```text
//! planp obs --json
//! ```
//!
//! Four seeded runs of the same grid (128 chains × 6 JIT relays):
//! full tracing, head sampling at 1/4 and 1/16, and a kept-event
//! budget that deterministically steps the rate down as the run
//! spends it. For each run the bin reports what the sampler kept and
//! suppressed, the estimated record bytes, and the reconstructed
//! span forest — every kept trace must form a *complete* tree (no
//! orphan spans), whatever the rate.
//!
//! Asserted invariants (a violation panics):
//!
//! * sampling never perturbs the simulation — all four runs deliver
//!   every datagram;
//! * 1/16 sampling cuts kept events ≥ 8× against full tracing;
//! * no run evicts or orphans anything;
//! * the budget run downgrades its rate at least once, and a second
//!   budget run reproduces the identical JSONL byte-for-byte.
//!
//! Two runs produce byte-identical output; `planp check` runs it twice
//! and compares. `--sample 1/N` appends a user-chosen head-sampling
//! rate to the sweep (the default rows are unchanged, so the flagless
//! output stays byte-identical).

use crate::{push_bench, render_table, Cli, CliArgs, Report, Sub};
use planp_apps::obs::{run_obs_grid, ObsGridConfig, ObsGridResult};
use planp_telemetry::TraceConfig;

const HELP: &str = "planp obs: telemetry overhead sweep on the 1024-node grid

usage: planp obs [--json] [--report] [--sample 1/N]

  --json        write BENCH_planp_obs.json
  --report      print the final metrics table
  --sample 1/N  append a user-chosen rate to the sampling sweep
  -h, --help    this text
";

/// `planp obs`.
pub(crate) const SUB: Sub = Sub {
    name: "obs",
    about: "telemetry overhead sweep on the 1024-node grid",
    cli: Cli {
        help: HELP,
        flags: &["--json", "--report"],
        value_flags: &["--sample"],
        operands: false,
    },
    run,
};

/// Ring capacity for the sweep: the full-tracing run of the 1024-node
/// grid must not evict (evictions would understate overhead).
const CAPACITY: usize = 1 << 17;

/// Kept-event budget of the degraded run.
const BUDGET: u64 = 4_000;

fn grid(trace: TraceConfig) -> ObsGridResult {
    run_obs_grid(&ObsGridConfig::new(TraceConfig {
        capacity: CAPACITY,
        ..trace
    }))
}

fn run(args: &CliArgs) -> Result<Report, String> {
    let sample_n = args.sample()?;
    let mut report = Report::default();
    let out = &mut report.stdout;

    let full = grid(TraceConfig::all());
    let s4 = grid(TraceConfig::sampled(4));
    let s16 = grid(TraceConfig::sampled(16));
    let budget = grid(TraceConfig {
        budget: BUDGET,
        ..TraceConfig::all()
    });
    // `--sample 1/N` appends a user-chosen rate to the sweep; the
    // default output stays byte-identical when the flag is absent.
    let extra = (sample_n > 1).then(|| grid(TraceConfig::sampled(sample_n)));

    outln!(
        out,
        "Trace sampling on the {}-node grid ({} datagrams end-to-end)",
        full.nodes,
        full.expected
    );
    let row = |label: &str, r: &ObsGridResult| -> Vec<String> {
        let oh = &r.overhead;
        vec![
            label.to_string(),
            oh.kept.to_string(),
            oh.sampled_out.to_string(),
            oh.est_bytes.to_string(),
            r.roots.to_string(),
            r.orphans.to_string(),
            format!("1/{}", oh.sample_n),
            oh.downgrades.to_string(),
            format!("{:.1}x", full.overhead.kept as f64 / oh.kept.max(1) as f64),
        ]
    };
    let mut rows = vec![
        row("full", &full),
        row("1/4", &s4),
        row("1/16", &s16),
        row(&format!("budget {BUDGET}"), &budget),
    ];
    if let Some(r) = &extra {
        rows.push(row(&format!("1/{sample_n} (--sample)"), r));
    }
    outln!(
        out,
        "{}",
        render_table(
            &[
                "sampling",
                "kept",
                "sampled out",
                "est bytes",
                "traces",
                "orphans",
                "final rate",
                "downgrades",
                "reduction",
            ],
            &rows
        )
    );

    assert!(full.nodes >= 1000, "the grid must be 1k+ nodes");
    let mut runs = vec![
        ("full", &full),
        ("1/4", &s4),
        ("1/16", &s16),
        ("budget", &budget),
    ];
    if let Some(r) = &extra {
        runs.push(("--sample", r));
    }
    for (label, r) in runs {
        assert_eq!(
            r.unique, r.expected,
            "{label}: sampling must never perturb the simulation"
        );
        assert_eq!(r.orphans, 0, "{label}: kept traces must stay complete");
        assert_eq!(r.overhead.evicted, 0, "{label}: ring sized for the run");
    }
    let reduction = full.overhead.kept as f64 / s16.overhead.kept.max(1) as f64;
    assert!(
        reduction >= 8.0,
        "1/16 sampling must cut kept events >= 8x, got {reduction:.1}x"
    );
    assert!(
        budget.overhead.downgrades >= 1 && budget.overhead.sample_n > 1,
        "the budget must step the rate down: {:?}",
        budget.overhead
    );

    // Downgrade determinism: the budget path re-run produces the same
    // downgrade schedule and the same kept events, byte for byte.
    let budget2 = grid(TraceConfig {
        budget: BUDGET,
        ..TraceConfig::all()
    });
    assert_eq!(budget.overhead, budget2.overhead);
    assert_eq!(
        budget.telemetry.trace.to_jsonl(),
        budget2.telemetry.trace.to_jsonl(),
        "budget-degraded trace must be byte-stable"
    );
    outln!(out,
        "invariants: 1/16 reduction {reduction:.1}x (>= 8x), 0 orphans everywhere, budget run downgraded {} time(s) to 1/{} deterministically",
        budget.overhead.downgrades, budget.overhead.sample_n
    );

    let scalars = [
        ("nodes", full.nodes as f64),
        ("full_kept", full.overhead.kept as f64),
        ("s4_kept", s4.overhead.kept as f64),
        ("s16_kept", s16.overhead.kept as f64),
        ("s16_reduction", reduction),
        ("full_est_bytes", full.overhead.est_bytes as f64),
        ("s16_est_bytes", s16.overhead.est_bytes as f64),
        ("budget_kept", budget.overhead.kept as f64),
        ("budget_downgrades", budget.overhead.downgrades as f64),
        ("budget_final_sample_n", budget.overhead.sample_n as f64),
    ];
    push_bench(&mut report, args, "planp_obs", &scalars, &s16.snapshot);
    Ok(report)
}
