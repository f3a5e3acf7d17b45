//! The observability-at-scale experiment: a ≥1k-node grid of parallel
//! relay chains used to measure what deterministic head sampling and
//! kept-event budgets do to telemetry overhead — and
//! to prove that every trace the sampler keeps still reconstructs a
//! *complete* span tree.
//!
//! Topology: the registry's `obs_grid` [`TopoSpec`] — `chains` disjoint
//! chains, each `source ── r0 … r(H-1) ── dst` on 100 Mb/s links. Every
//! relay runs the fragile (plain forwarding) relay ASP through the JIT,
//! so a sampled run exercises the full event surface: spans, hops, link
//! events, dispatches, VM accounting, and deliveries. The default
//! 128 × 6-relay grid is 1024 nodes — past the simulator's
//! compact-metrics threshold, so the snapshot also exercises the
//! `nodes.*`/`links.*` sums.

use crate::chaos::apps::{SeqCollector, SeqCollectorStats, SeqSource};
use crate::chaos::FRAGILE_RELAY_ASP;
use netsim::{Sim, SimTime, TopoSpec};
use planp_analysis::Policy;
use planp_runtime::{install_planp, load, LayerConfig};
use planp_telemetry::{MetricsSnapshot, Telemetry, TraceConfig, TraceForest, TraceOverhead};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Source pacing between datagrams.
const INTERVAL: Duration = Duration::from_millis(2);

/// Configuration of one grid run.
#[derive(Debug, Clone, Copy)]
pub struct ObsGridConfig {
    /// Parallel relay chains.
    pub chains: usize,
    /// Relays per chain (each chain has `hops + 2` nodes).
    pub hops: usize,
    /// Datagrams each chain's source sends.
    pub packets: u64,
    /// Total simulated time (seconds).
    pub duration_s: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Trace configuration under test (categories, sampling rate,
    /// budget).
    pub trace: TraceConfig,
}

impl ObsGridConfig {
    /// The standard 1024-node grid (128 chains × 6 relays): 8 packets
    /// per chain at 2 ms spacing, 1 s of simulated time.
    pub fn new(trace: TraceConfig) -> Self {
        ObsGridConfig {
            chains: 128,
            hops: 6,
            packets: 8,
            duration_s: 1,
            seed: 7,
            trace,
        }
    }

    /// Total node count of the grid.
    pub fn nodes(&self) -> usize {
        self.chains * (self.hops + 2)
    }
}

/// What one grid run produced.
#[derive(Debug)]
pub struct ObsGridResult {
    /// Nodes in the grid.
    pub nodes: usize,
    /// First transmissions expected (`chains × packets`).
    pub expected: u64,
    /// Distinct sequences delivered across every chain.
    pub unique: u64,
    /// The telemetry overhead meter at the end of the run.
    pub overhead: TraceOverhead,
    /// Root spans reconstructed from the kept events.
    pub roots: usize,
    /// Spans whose parent was never seen — must be zero for whole-
    /// lineage sampling (a kept trace is kept *completely*).
    pub orphans: usize,
    /// Total spans across the forest.
    pub spans: usize,
    /// The final (compact-layout) metrics snapshot.
    pub snapshot: MetricsSnapshot,
    /// The full telemetry state, for export determinism checks.
    pub telemetry: Telemetry,
}

/// Runs one grid experiment.
///
/// # Panics
///
/// Panics if the bundled fragile relay ASP fails to verify or install
/// (a build error, not a runtime condition).
pub fn run_obs_grid(cfg: &ObsGridConfig) -> ObsGridResult {
    let (mut sim, collectors) = obs_grid_sim(cfg);
    sim.run_until(SimTime::from_secs(cfg.duration_s));

    let forest = TraceForest::from_log(&sim.telemetry.trace);
    ObsGridResult {
        nodes: cfg.nodes(),
        expected: cfg.chains as u64 * cfg.packets,
        unique: collectors.iter().map(|s| s.borrow().unique).sum(),
        overhead: sim.telemetry.trace.overhead(),
        roots: forest.roots().len(),
        orphans: forest.orphans().len(),
        spans: forest.spans().count(),
        snapshot: sim.metrics_snapshot(),
        telemetry: sim.telemetry,
    }
}

/// The grid of `cfg`, ready to run, and each chain's collector
/// statistics in chain order.
pub fn obs_grid_sim(cfg: &ObsGridConfig) -> (Sim, Vec<Rc<RefCell<SeqCollectorStats>>>) {
    let mut sim = Sim::new(cfg.seed);
    sim.telemetry.trace.configure(cfg.trace);

    let image = load(FRAGILE_RELAY_ASP, Policy::no_delivery()).expect("fragile relay verifies");
    let topo = TopoSpec::obs_grid(cfg.chains, cfg.hops);
    let ids = topo.build(&mut sim);

    for r in topo.slice("relays") {
        install_planp(&mut sim, ids[r], &image, LayerConfig::default()).expect("install relay ASP");
    }
    let mut collectors = Vec::with_capacity(cfg.chains);
    for &(src, dst) in &topo.paths {
        let src_app = SeqSource::new(topo.nodes[dst].addr, cfg.packets, INTERVAL);
        sim.add_app(ids[src], Box::new(src_app));
        let col = SeqCollector::new();
        collectors.push(col.stats.clone());
        sim.add_app(ids[dst], Box::new(col));
    }
    (sim, collectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_telemetry::Category;

    fn small(trace: TraceConfig) -> ObsGridConfig {
        ObsGridConfig {
            chains: 8,
            hops: 3,
            packets: 4,
            ..ObsGridConfig::new(trace)
        }
    }

    #[test]
    fn grid_delivers_and_traces_completely() {
        let res = run_obs_grid(&small(TraceConfig::all()));
        assert_eq!(res.nodes, 40);
        assert_eq!(res.unique, res.expected, "clean grid delivers all");
        assert_eq!(res.orphans, 0, "full tracing: no orphan spans");
        assert!(res.roots as u64 >= res.expected, "one trace per datagram");
        assert_eq!(res.overhead.evicted, 0);
    }

    #[test]
    fn sampling_reduces_kept_events_and_keeps_trees_whole() {
        let full = run_obs_grid(&small(TraceConfig::all()));
        let sampled = run_obs_grid(&small(TraceConfig::sampled(4)));
        assert_eq!(
            sampled.unique, sampled.expected,
            "sampling never drops packets"
        );
        assert!(
            sampled.overhead.kept * 2 < full.overhead.kept,
            "1/4 sampling kept {} of {} events",
            sampled.overhead.kept,
            full.overhead.kept
        );
        assert!(sampled.overhead.sampled_out > 0);
        assert_eq!(sampled.orphans, 0, "kept traces stay complete");
        assert!(sampled.roots < full.roots);
    }

    #[test]
    fn compact_snapshot_used_past_threshold() {
        let mut cfg = small(TraceConfig {
            categories: Category::NONE,
            ..TraceConfig::default()
        });
        cfg.chains = 16;
        cfg.hops = 31; // 16 × 33 = 528 nodes > the 512 default threshold
        cfg.packets = 1;
        let res = run_obs_grid(&cfg);
        assert!(res.snapshot.counters.contains_key("nodes.count"));
        assert!(res.snapshot.counters.contains_key("links.tx_packets"));
        assert!(!res
            .snapshot
            .counters
            .keys()
            .any(|k| k.starts_with("node.s0.")));
    }
}
