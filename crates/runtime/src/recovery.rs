//! Crash recovery for extensible nodes.
//!
//! A fault-injected crash ([`netsim::FaultAction::CrashNode`]) discards
//! the node's packet hook — the installed PLAN-P protocol and all of its
//! state. The [`RecoveryService`] models the management plane's answer:
//! it keeps the node's assigned ASP source (think boot flash), and when
//! the node comes back up ([`netsim::App::on_restart`]) it re-runs the
//! *entire* download path — parse, type check, verify under the node's
//! policy, JIT — before reinstalling the layer. Recovery never bypasses
//! the verifier: a restarted node is indistinguishable from one seeing
//! the program for the first time (the paper's late-checking discipline,
//! section 2.1).
//!
//! Observability: recoveries bump the `node.<name>.recovery.redeploys`
//! metric (and `.failures` when the image no longer verifies), and the
//! shared [`RecoveryLog`] records the same counts plus the fresh layer
//! handle for tests and operators.

use crate::layer::{install_in_node, LayerConfig, PlanpHandle};
use netsim::digest::Fnv;
use netsim::packet::Packet;
use netsim::{App, NodeApi};
use planp_analysis::Policy;
use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

/// What the service did, observable by tests and operators.
#[derive(Debug, Default, Clone)]
pub struct RecoveryLog {
    /// Programs re-verified and reinstalled after a restart (the initial
    /// install at simulation start is not counted).
    pub redeploys: u64,
    /// Recovery attempts whose program failed verification or load.
    pub failures: u64,
    /// Handle of the most recently installed layer.
    pub handle: Option<PlanpHandle>,
}

/// Installs an ASP at start-up and re-verifies + reinstalls it whenever
/// the node restarts after a crash.
pub struct RecoveryService {
    source: Rc<str>,
    policy: Policy,
    config: LayerConfig,
    /// Plan-scope gate run before every (re)install — see
    /// [`RecoveryService::with_preflight`].
    preflight: Option<Rc<dyn Fn() -> Result<(), String>>>,
    /// Shared log.
    pub log: Rc<RefCell<RecoveryLog>>,
}

impl RecoveryService {
    /// A service that (re)installs `source`, verifying under `policy`
    /// and installing with `config`.
    pub fn new(source: impl Into<Rc<str>>, policy: Policy, config: LayerConfig) -> Self {
        RecoveryService {
            source: source.into(),
            policy,
            config,
            preflight: None,
            log: Rc::new(RefCell::new(RecoveryLog::default())),
        }
    }

    /// Adds a gate that must pass before any install or crash-redeploy
    /// proceeds. Plan-driven deployments hang the *plan-level*
    /// verifier here, so a restarted node re-verifies at plan scope —
    /// composition included — not just its own program.
    pub fn with_preflight(mut self, preflight: Rc<dyn Fn() -> Result<(), String>>) -> Self {
        self.preflight = Some(preflight);
        self
    }

    fn install(&mut self, api: &mut NodeApi<'_>) -> Result<(), String> {
        if let Some(preflight) = &self.preflight {
            preflight()?;
        }
        let (handle, _) = install_in_node(api, &self.source, self.policy, self.config)?;
        self.log.borrow_mut().handle = Some(handle);
        Ok(())
    }
}

impl App for RecoveryService {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Initial deployment; a program that fails here is a
        // configuration error surfaced via the log.
        if self.install(api).is_err() {
            self.log.borrow_mut().failures += 1;
        }
    }

    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}

    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        let name = api.node_name().to_string();
        match self.install(api) {
            Ok(()) => {
                self.log.borrow_mut().redeploys += 1;
                api.telemetry()
                    .metrics
                    .inc(&format!("node.{name}.recovery.redeploys"));
            }
            Err(_) => {
                self.log.borrow_mut().failures += 1;
                api.telemetry()
                    .metrics
                    .inc(&format!("node.{name}.recovery.failures"));
            }
        }
    }

    // The installed layer is the node's hook, which digests itself.
    fn digest(&self, h: &mut Fnv) {
        let log = self.log.borrow();
        (log.redeploys, log.failures).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::packet::addr;
    use netsim::{FaultPlan, LinkSpec, Sim, SimTime};

    const COUNTER: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                           (OnRemote(network, p); (ps + 1, ss))";

    struct Pacer {
        dst: u32,
    }
    impl App for Pacer {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            api.set_timer(std::time::Duration::from_millis(50), 0);
        }
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
            let pkt = Packet::udp(api.addr(), self.dst, 5, 6, Bytes::from(vec![7u8; 32]));
            api.send(pkt);
            api.set_timer(std::time::Duration::from_millis(50), 0);
        }
    }

    #[test]
    fn restart_reverifies_and_reinstalls() {
        let mut sim = Sim::new(11);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let svc = RecoveryService::new(COUNTER, Policy::no_delivery(), LayerConfig::default());
        let log = svc.log.clone();
        sim.add_app(r, Box::new(svc));
        sim.add_app(
            a,
            Box::new(Pacer {
                dst: addr(10, 0, 1, 1),
            }),
        );
        sim.apply_fault_plan(FaultPlan::new().crash_restart(0.4, 0.6, r));
        // Inside the outage: what the first install dispatched. The
        // reinstalled layer counts on from these totals.
        sim.run_until(SimTime::from_ms(500));
        let before = {
            let log = log.borrow();
            let handle = log.handle.as_ref().expect("initial handle");
            handle.stats(&sim.telemetry).matched
        };
        assert!(before > 0, "traffic before the crash");
        sim.run_until(SimTime::from_secs(2));

        let log = log.borrow();
        assert_eq!(log.redeploys, 1, "one recovery after the restart");
        assert_eq!(log.failures, 0);
        // The reinstalled layer is fresh: its proto state restarted from
        // zero, and it processed the post-restart traffic.
        let handle = log.handle.as_ref().expect("handle");
        assert!(
            handle.stats(&sim.telemetry).matched > before,
            "traffic after recovery"
        );
        assert_eq!(sim.node(r).crashes, 1);
        assert_eq!(sim.node(r).state_lost, 1, "crash discarded the hook");
        let snap = sim.metrics_snapshot();
        assert_eq!(snap.counters["node.r.recovery.redeploys"], 1);
        assert_eq!(snap.counters["node.r.crashes"], 1);
        assert_eq!(snap.counters["node.r.state_lost"], 1);
        // Traffic flows end-to-end again after the outage.
        assert!(sim.node(b).delivered > 10);
    }

    #[test]
    fn recovery_of_unverifiable_program_fails_safe() {
        // A program acceptable under `authenticated` but not `strict`:
        // if the node's policy tightened while it was down, recovery
        // must refuse to reinstall and count a failure.
        let bouncer = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                       (OnNeighbor(network, 10.0.0.2, p); (ps, ss))";
        let mut sim = Sim::new(11);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.compute_routes();
        let svc = RecoveryService::new(bouncer, Policy::strict(), LayerConfig::default());
        let log = svc.log.clone();
        sim.add_app(r, Box::new(svc));
        sim.apply_fault_plan(FaultPlan::new().crash_restart(0.2, 0.4, r));
        sim.run_until(SimTime::from_secs(1));

        // Initial install and the recovery both fail verification.
        assert_eq!(log.borrow().redeploys, 0);
        assert_eq!(log.borrow().failures, 2);
        let snap = sim.telemetry.metrics.snapshot();
        assert_eq!(snap.counters["node.r.recovery.failures"], 1);
    }

    #[test]
    fn preflight_gates_every_install() {
        // The preflight passes at simulation start but fails at the
        // crash-redeploy — the plan-scope situation where a deployment
        // stopped verifying while the node was down. The program itself
        // still verifies; only the gate changed its mind.
        let calls = Rc::new(RefCell::new(0u32));
        let gate = {
            let calls = calls.clone();
            Rc::new(move || {
                *calls.borrow_mut() += 1;
                if *calls.borrow() == 1 {
                    Ok(())
                } else {
                    Err("plan no longer verifies at plan scope".to_string())
                }
            })
        };
        let mut sim = Sim::new(11);
        let a = sim.add_host("a", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 0, 254));
        sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
        sim.compute_routes();
        let svc = RecoveryService::new(COUNTER, Policy::no_delivery(), LayerConfig::default())
            .with_preflight(gate);
        let log = svc.log.clone();
        sim.add_app(r, Box::new(svc));
        sim.apply_fault_plan(FaultPlan::new().crash_restart(0.2, 0.4, r));
        sim.run_until(SimTime::from_secs(1));

        assert_eq!(*calls.borrow(), 2, "initial install + crash-redeploy");
        assert_eq!(log.borrow().redeploys, 0, "the redeploy was refused");
        assert_eq!(log.borrow().failures, 1);
        let snap = sim.telemetry.metrics.snapshot();
        assert_eq!(snap.counters["node.r.recovery.failures"], 1);
    }
}
