//! `download`: figure 3's path. Per round, each of the 12 bundled ASPs
//! goes through `planp_runtime::load` twice (under its listed policy,
//! and the same with the exhaustive model check) and each of the 7
//! bundled plans through `load_bundled_plan`; 400 rounds per rep, the
//! order of each round shuffled from the seed.
//!
//! `lang`, `analysis` and `vm::jit::compile` do all the work and the
//! packet path none. A built-in needs no download, so the native twin
//! costs nothing and `asp_overhead_ns` reads as the whole wall per
//! load.

use crate::check::{self, Counts};
use crate::ctx::{peak_rss_mb, Chunks, Report, Run, Series};
use crate::stats;
use netsim::rng::SplitMix64;
use planp_analysis::{verify, Policy};
use planp_apps::plans::{bundled_plans, load_bundled_plan, resolve_asp};
use planp_lang::{compile_front, count_lines, parse_plan};
use planp_runtime::load;
use planp_vm::jit;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

const ROUNDS: usize = 400;
/// Rounds of the untimed warm-up.
const WARMUP_ROUNDS: usize = 40;
/// Sweeps over the corpus between two speed probes of the layers run.
const ROUNDS_PER_PASS: usize = 40;

/// One thing to download.
enum Item {
    Asp {
        name: String,
        src: &'static str,
        policy: Policy,
    },
    Plan {
        name: &'static str,
    },
}

impl Item {
    /// The key its verdict is pinned under in `perf/expected.json`.
    fn key(&self) -> String {
        match self {
            Item::Asp { name, .. } => format!("asp.{name}"),
            Item::Plan { name } => format!("plan.{name}"),
        }
    }

    /// Downloads the item; true if it was accepted.
    fn download(&self) -> bool {
        match self {
            Item::Asp { src, policy, .. } => black_box(load(src, *policy)).is_ok(),
            Item::Plan { name } => {
                black_box(load_bundled_plan(name)).is_ok_and(|image| image.report.accepted())
            }
        }
    }
}

/// The corpus and the order of every round, both from the seed alone.
struct Corpus {
    items: Vec<Item>,
    orders: Vec<Vec<usize>>,
}

fn assemble(seed: u64, rounds: usize) -> Corpus {
    let mut items = Vec::new();
    for (name, src, policy) in planp_bench::bundled_asps() {
        items.push(Item::Asp {
            name: name.to_string(),
            src,
            policy,
        });
        items.push(Item::Asp {
            name: format!("{name}.exhaustive"),
            src,
            policy: policy.with_exhaustive_check(),
        });
    }
    items.extend(
        bundled_plans()
            .into_iter()
            .map(|(name, _)| Item::Plan { name }),
    );
    let mut rng = SplitMix64::new(seed ^ 0x444f_574e);
    let orders = (0..rounds)
        .map(|_| {
            let mut order: Vec<usize> = (0..items.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            order
        })
        .collect();
    Corpus { items, orders }
}

/// One rep: every round in its order, each call timed. Returns the raw
/// seconds of every call and how often each item was accepted.
fn rep(corpus: &Corpus) -> (Vec<f64>, Vec<u64>) {
    let mut samples = Vec::with_capacity(corpus.orders.len() * corpus.items.len());
    let mut accepted = vec![0u64; corpus.items.len()];
    for order in &corpus.orders {
        for &i in order {
            let t = Instant::now();
            let ok = corpus.items[i].download();
            samples.push(t.elapsed().as_secs_f64());
            accepted[i] += u64::from(ok);
        }
    }
    (samples, accepted)
}

/// Per-item verdicts (1 = accepted every time, 0 = rejected every
/// time), plus one line per item whose verdict wavered within the rep.
fn verdicts(corpus: &Corpus, accepted: &[u64], out: &mut Vec<String>) -> Counts {
    let rounds = corpus.orders.len() as u64;
    corpus
        .items
        .iter()
        .zip(accepted)
        .map(|(item, &n)| {
            if n != 0 && n != rounds {
                out.push(format!(
                    "{}: accepted in {n} of {rounds} rounds",
                    item.key()
                ));
            }
            (item.key(), u64::from(n == rounds))
        })
        .collect()
}

/// The plain run: every end-to-end metric.
pub fn plain(run: &mut Run) -> Report {
    let mut out = Report::default();
    let seed = run.seed;

    let corpus = assemble(seed, ROUNDS);
    black_box(rep(&assemble(seed, WARMUP_ROUNDS)).1);

    // Verdicts do not depend on corpus order, so they are pinned at
    // every seed.
    let pinned = check::pinned(&run.workload, true);
    let loads_per_rep = (ROUNDS * corpus.items.len()) as u64;
    let mut series = Series::default();
    let mut setups = Chunks::default();
    let mut first = Counts::new();
    let mut wrong = 0u64;
    let reps = run.reps(2, |run, i| {
        let ((_, accepted), t) = run.clock.time(|| rep(&corpus));
        series.push(t);
        setups.sample(&mut run.clock, || {
            black_box(assemble(seed, ROUNDS).orders.len());
        });
        let counts = verdicts(&corpus, &accepted, &mut out.violations);
        check::check_rep(
            &run.workload,
            Some(&pinned),
            i,
            &first,
            &counts,
            &mut out.violations,
        );
        wrong += corpus
            .items
            .iter()
            .zip(&accepted)
            .map(|(item, &n)| match pinned.get(&item.key()) {
                Some(1) => ROUNDS as u64 - n,
                _ => n,
            })
            .sum::<u64>();
        if i == 0 {
            first = counts;
        }
    });

    let n_loads = loads_per_rep * reps as u64;
    out.attempted = n_loads;
    out.failed = wrong;
    let per_load = 1e9 / loads_per_rep as f64;
    out.set_timing(
        "ops_per_s",
        loads_per_rep as f64 / series.median_s(),
        loads_per_rep as f64 / series.raw_median_s(),
    );
    out.set_timing(
        "asp_overhead_ns",
        series.median_s() * per_load,
        series.raw_median_s() * per_load,
    );
    out.set("done_share", 1.0 - wrong as f64 / n_loads.max(1) as f64);
    out.set_timing(
        "setup_s",
        setups.percentile(50.0),
        setups.raw_percentile(50.0),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "op: one program or plan through the full download path ({} per round, {loads_per_rep} per rep)",
        corpus.items.len()
    ));
    out.note(format!("rep ({ROUNDS} rounds):   {}", series.describe()));
    out.note(format!(
        "set-up, corpus assembly and round orders: {}",
        setups.describe()
    ));
    out.note(
        "no native twin exists: asp_overhead_ns is wall / loads (a built-in needs no download)"
            .to_string(),
    );
    out.counts = first;
    out
}

fn median_us(raw_s: &[f64], factor: f64) -> f64 {
    stats::median(raw_s) * factor * 1e6
}

/// The layers run: each stage of the download path by itself, over the
/// same corpus — `compile_front`, `verify` with and without the model
/// check, `jit::compile`, `parse_plan`, plan verification.
pub fn layers(run: &mut Run) -> Report {
    let mut out = Report::default();
    let asps = planp_bench::bundled_asps();
    let plans = bundled_plans();
    let (mut front, mut screen, mut full, mut codegen) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut plan_parse, mut plan_verify) = (Vec::new(), Vec::new());
    let (mut lines, mut front_total) = (0usize, 0.0f64);
    let (mut states, mut nodes) = (0u64, 0u64);
    let mut factors = Vec::new();
    let mut first = true;

    // The distribution of whole download calls, which the plain run
    // does not gate on: one rep of the plain run's rounds, every call
    // timed. It goes first so that the stage passes fill what is left
    // of the budget.
    let ((raw, _), t) = run.clock.time(|| rep(&assemble(run.seed, ROUNDS)));
    out.set("bench.raw_rep_wall_s", t.raw_s);
    let mut calls = Chunks::default();
    calls.push(raw, t);
    out.set("load_us_p50", calls.percentile(50.0) * 1e6);
    out.set("load_us_p95", calls.percentile(95.0) * 1e6);

    let passes = run.reps(3, |run, _| {
        let ((), t) = run.clock.time(|| {
            for _ in 0..ROUNDS_PER_PASS {
                for (_, src, policy) in &asps {
                    let t = Instant::now();
                    let prog = Rc::new(compile_front(src).expect("bundled ASP compiles"));
                    let dt = t.elapsed().as_secs_f64();
                    front.push(dt);
                    front_total += dt;
                    lines += count_lines(src);

                    // Untimed, so that neither timed call below is the
                    // first to walk the fresh program.
                    black_box(verify(&prog, *policy));
                    let t = Instant::now();
                    black_box(verify(&prog, *policy));
                    screen.push(t.elapsed().as_secs_f64());

                    let t = Instant::now();
                    let report = verify(&prog, policy.with_exhaustive_check());
                    full.push(t.elapsed().as_secs_f64());

                    let t = Instant::now();
                    let (_, stats) = black_box(jit::compile(prog.clone()));
                    codegen.push(t.elapsed().as_secs_f64());
                    if first {
                        states += report.exhaustive.as_ref().map_or(0, |mc| mc.states as u64);
                        nodes += stats.nodes as u64;
                    }
                }
                for (name, src) in &plans {
                    let t = Instant::now();
                    let ast = parse_plan(src).expect("bundled plan parses");
                    let parse = t.elapsed().as_secs_f64();
                    plan_parse.push(parse);
                    // What a plan load does before it verifies: compile
                    // the front end of every ASP it deploys.
                    let t = Instant::now();
                    for d in &ast.deploys {
                        let (asp_src, _) =
                            resolve_asp(&d.asp).expect("bundled plans name bundled ASPs");
                        black_box(compile_front(&asp_src).expect("bundled ASP compiles"));
                    }
                    let fronts = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    black_box(load_bundled_plan(name).expect("bundled plan loads"));
                    let whole = t.elapsed().as_secs_f64();
                    plan_verify.push((whole - parse - fronts).max(0.0));
                }
                first = false;
            }
        });
        factors.push(t.factor);
    });

    let k = stats::median(&factors);
    let mut verify_us: Vec<f64> = full.iter().map(|s| s * k * 1e6).collect();
    let p = stats::percentiles(&mut verify_us, &[50.0, 95.0]);
    out.set("lang.front_us_p50", median_us(&front, k));
    out.set("lang.lines_per_s", lines as f64 / (front_total * k));
    out.set("lang.plan_parse_us_p50", median_us(&plan_parse, k));
    out.set("analysis.verify_us_p50", p[0]);
    out.set("analysis.verify_us_p95", p[1]);
    out.set("analysis.screen_us_p50", median_us(&screen, k));
    out.set(
        "analysis.modelcheck_us_p50",
        stats::median(
            &full
                .iter()
                .zip(&screen)
                .map(|(f, s)| (f - s) * k * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("analysis.modelcheck_states", states as f64);
    out.set("analysis.plan_verify_us_p50", median_us(&plan_verify, k));
    out.set("vm.compile_us_p50", median_us(&codegen, k));
    out.set("vm.codegen_nodes", nodes as f64);
    out.set("bench.speed_factor", k);
    out.note(format!(
        "stages over {} ASPs and {} plans, {passes} passes of {ROUNDS_PER_PASS} sweeps: {} samples per ASP stage, {} per plan stage",
        asps.len(),
        plans.len(),
        front.len(),
        plan_parse.len()
    ));
    out.note("verify = listed policy with the exhaustive check; screen = listed policy; modelcheck = their difference per program".to_string());
    out.note(
        "plan_verify = load_bundled_plan minus parse_plan minus compile_front of its ASPs"
            .to_string(),
    );
    out.counts.insert("modelcheck_states".into(), states);
    out.counts.insert("codegen_nodes".into(), nodes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_31_items_and_orders_follow_the_seed() {
        let a = assemble(11, 5);
        assert_eq!(a.items.len(), 31);
        assert_eq!(a.orders.len(), 5);
        for order in &a.orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..31).collect::<Vec<_>>(),
                "each round is a permutation"
            );
        }
        assert_eq!(a.orders, assemble(11, 5).orders);
        assert_ne!(a.orders, assemble(12, 5).orders);
        assert_ne!(a.orders[0], a.orders[1]);
    }

    #[test]
    fn verdicts_match_the_pinned_file_and_flag_wavering() {
        let corpus = assemble(11, 1);
        let (samples, accepted) = rep(&corpus);
        assert_eq!(samples.len(), 31);
        let mut out = Vec::new();
        let got = verdicts(&corpus, &accepted, &mut out);
        assert!(out.is_empty(), "{out:?}");
        check::compare("download", &check::pinned("download", true), &got, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(got["plan.buggy_bounce"], 0);
        assert_eq!(got["asp.forwarder"], 1);

        let two_rounds = assemble(11, 2);
        let mut wavering = vec![2u64; 31];
        wavering[0] = 1;
        verdicts(&two_rounds, &wavering, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("accepted in 1 of 2 rounds"), "{out:?}");
    }
}
