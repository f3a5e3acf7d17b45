//! Seeded, schedule-driven fault injection.
//!
//! A [`FaultPlan`] is a list of timed fault actions — per-link Bernoulli
//! loss, payload corruption, duplication, extra-jitter reordering, link
//! down/up flaps, network partitions, and node crash/restart with
//! protocol-state loss. The plan is applied to a [`Sim`](crate::Sim)
//! before the run; actions fire as ordinary simulation events, and every
//! random draw (loss coin flips, corrupted byte positions, jitter
//! samples) comes from a dedicated SplitMix64 stream seeded from the
//! simulation seed, so a run with the same seed and plan is bit-for-bit
//! reproducible and its telemetry byte-stable.
//!
//! Receiver-side impairments are evaluated per delivered copy in a fixed
//! order (partition → loss → corruption → duplication → jitter); a link
//! that is flapped down rejects packets at enqueue time. Fault-induced
//! losses are accounted separately from congestion drops: they increment
//! each link's `fault_drops` (and the engine-wide
//! [`Sim::total_link_drops`](crate::Sim)) but never `drops`, so
//! `total_link_drops == Σ drops + Σ fault_drops` always holds.

use crate::link::{LinkId, NodeId};
use crate::time::SimTime;

/// Continuous impairments applied to every packet copy a link delivers.
///
/// All fields default to "off"; probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFaults {
    /// Bernoulli probability that a delivered copy is silently lost.
    pub loss: f64,
    /// Probability that one payload byte of a delivered copy is flipped.
    pub corrupt: f64,
    /// Probability that a delivered copy arrives twice.
    pub duplicate: f64,
    /// Mean of an exponential extra propagation delay, in milliseconds
    /// (`0` = no jitter). Large values reorder packets across the link.
    pub jitter_ms: f64,
}

impl LinkFaults {
    /// Impairments with only Bernoulli loss set.
    pub fn loss(p: f64) -> Self {
        LinkFaults {
            loss: p,
            ..LinkFaults::default()
        }
    }

    /// True when every impairment is off.
    pub fn is_clean(&self) -> bool {
        *self == LinkFaults::default()
    }
}

/// One fault action, applied at its scheduled time.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Replaces the link's continuous impairments.
    SetLinkFaults {
        /// Target link.
        link: LinkId,
        /// New impairment parameters (use the default to clear).
        faults: LinkFaults,
    },
    /// Takes the link down: packets offered to it are dropped at enqueue.
    LinkDown {
        /// Target link.
        link: LinkId,
    },
    /// Brings a downed link back up.
    LinkUp {
        /// Target link.
        link: LinkId,
    },
    /// Partitions the network: nodes in different groups cannot exchange
    /// packets (copies between them are dropped in flight). Nodes not
    /// listed in any group communicate freely.
    Partition {
        /// The partition's groups.
        groups: Vec<Vec<NodeId>>,
    },
    /// Heals any active partition.
    HealPartition,
    /// Crashes the node: it stops receiving, pending CPU work is lost,
    /// and its packet hook — the installed PLAN-P protocol, including
    /// all protocol state — is discarded (crash with state loss).
    CrashNode {
        /// Target node.
        node: NodeId,
    },
    /// Restarts a crashed node. Applications survive (they model the
    /// host's software stack) and get [`App::on_restart`](crate::App::on_restart)
    /// to re-arm timers and trigger recovery;
    /// the packet hook stays lost until something reinstalls it.
    RestartNode {
        /// Target node.
        node: NodeId,
    },
}

/// A fault action with its scheduled time.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A schedule of timed fault actions.
///
/// Build one with the fluent [`at`](FaultPlan::at) helper and hand it to
/// [`Sim::apply_fault_plan`](crate::Sim::apply_fault_plan) before (or
/// during) a run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled actions, in insertion order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `action` at `secs` seconds of simulated time.
    pub fn at(mut self, secs: f64, action: FaultAction) -> Self {
        self.events.push(FaultEvent {
            at: SimTime((secs * 1e9) as u64),
            action,
        });
        self
    }

    /// Convenience: sets Bernoulli loss `p` on `link` at `secs`.
    pub fn loss(self, secs: f64, link: LinkId, p: f64) -> Self {
        self.at(
            secs,
            FaultAction::SetLinkFaults {
                link,
                faults: LinkFaults::loss(p),
            },
        )
    }

    /// Convenience: crashes `node` at `crash_secs` and restarts it at
    /// `restart_secs`.
    pub fn crash_restart(self, crash_secs: f64, restart_secs: f64, node: NodeId) -> Self {
        self.at(crash_secs, FaultAction::CrashNode { node })
            .at(restart_secs, FaultAction::RestartNode { node })
    }
}

/// Aggregate fault-injection counters, kept by the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Copies lost to Bernoulli link loss.
    pub loss_drops: u64,
    /// Copies with a corrupted payload byte.
    pub corrupted: u64,
    /// Copies duplicated in flight.
    pub duplicated: u64,
    /// Copies delayed by extra jitter.
    pub jittered: u64,
    /// Packets dropped because the link was flapped down.
    pub link_down_drops: u64,
    /// Copies dropped by an active partition.
    pub partition_drops: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_orders_and_converts() {
        let plan = FaultPlan::new()
            .loss(1.5, LinkId(0), 0.1)
            .crash_restart(2.0, 3.0, NodeId(4));
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[0].at, SimTime::from_ms(1500));
        assert!(matches!(
            plan.events[0].action,
            FaultAction::SetLinkFaults { link: LinkId(0), faults } if faults.loss == 0.1
        ));
        assert!(matches!(
            plan.events[2].action,
            FaultAction::RestartNode { node: NodeId(4) }
        ));
    }

    #[test]
    fn clean_default() {
        assert!(LinkFaults::default().is_clean());
        assert!(!LinkFaults::loss(0.01).is_clean());
    }
}
