//! Plan-driven deployment: verify a whole plan statically, then
//! install exactly what was verified.
//!
//! [`load_plan`] is the plan-scope analogue of [`crate::load`]: it
//! parses a deployment plan, resolves the named topology from the
//! [`netsim::TopoSpec`] registry, compiles every deployed ASP, and
//! runs the [plan verifier](planp_analysis::plan) — placement, the
//! cross-ASP product model check (`E007`), composed path budgets
//! (`E008`), and the plan lints — *before* anything touches a node.
//!
//! [`install_plan`] then instantiates the accepted image over a live
//! simulator, one [`RecoveryService`] per install point, each wired
//! with a plan-scope preflight: a crash-redeploy re-runs the *plan*
//! verifier, not just the node's own program check, so a deployment
//! that has become jointly unsafe (say, the plan object was edited
//! while the node was down) refuses to come back.
//!
//! [`replay_plan`] closes the loop on plan-level witnesses the same
//! way [`crate::replay`] does for single-program ones: the plan's own
//! topology is built for real, the (by hypothesis unsafe) ASPs are
//! installed as authenticated downloads, and probe bursts along every
//! plan path either loop — dispatch counts exploding past
//! [`LOOP_FACTOR`] × sent — or don't.

use crate::layer::{install_planp, LayerConfig, PlanpHandle};
use crate::loader::load;
use crate::recovery::{RecoveryLog, RecoveryService};
use crate::replay::{ReplayReport, LOOP_FACTOR, REPLAY_PACKETS};
use bytes::Bytes;
use netsim::packet::Packet;
use netsim::{App, NodeApi, NodeId, Sim, SimTime, TopoSpec};
use planp_analysis::plan::{PlanAsp, PlanCheck, PlanNode, PlanReport, PlanTopology};
use planp_analysis::Policy;
use planp_lang::{compile_front, parse_plan, LangError};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Why a plan failed to load.
#[derive(Debug)]
pub enum PlanError {
    /// The plan source failed to parse.
    Plan(LangError),
    /// No bundled plan has this name.
    UnknownPlan(String),
    /// The plan names a topology the registry does not know.
    UnknownTopology(String),
    /// A `deploy` names an ASP the resolver does not know.
    UnknownAsp(String),
    /// A `deploy` names an unknown per-program policy.
    UnknownPolicy(String),
    /// An ASP failed to parse or type-check.
    Asp {
        /// The ASP's plan-level name.
        name: String,
        /// The front-end error.
        error: LangError,
    },
    /// Placement/alignment failed (see [`PlanCheck::new`]).
    Check(LangError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Plan(e) => write!(f, "plan: {}", e.message),
            PlanError::UnknownPlan(p) => write!(f, "no bundled plan `{p}`"),
            PlanError::UnknownTopology(t) => write!(f, "unknown topology `{t}`"),
            PlanError::UnknownAsp(a) => write!(f, "unknown ASP `{a}`"),
            PlanError::UnknownPolicy(p) => write!(f, "unknown policy `{p}`"),
            PlanError::Asp { name, error } => write!(f, "ASP `{name}`: {}", error.message),
            PlanError::Check(e) => write!(f, "{}", e.message),
        }
    }
}

impl std::error::Error for PlanError {}

/// One resolved install point of a loaded plan. Its strings are the
/// topology's and the deploy's own, shared by every placement of them.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Topology node index (parallel to [`TopoSpec::build`]'s ids).
    pub node: usize,
    /// Topology node name.
    pub node_name: Rc<str>,
    /// ASP name.
    pub asp: Rc<str>,
    /// ASP source, re-verified on every (re)install.
    pub source: Rc<str>,
    /// Per-program download policy for this install.
    pub policy: Policy,
}

/// A statically verified deployment plan, ready to install or replay.
pub struct PlanImage {
    /// Plan name.
    pub name: String,
    /// The plan source text (for rendering reports against).
    pub source: String,
    /// The topology spec the plan deploys over.
    pub topo: TopoSpec,
    /// The placed checker — kept so installs can re-verify at plan
    /// scope, each through a handle on this one.
    pub check: Rc<PlanCheck>,
    /// The verification result.
    pub report: PlanReport,
    /// Resolved install points with their sources and policies.
    pub placements: Vec<Placement>,
}

/// Bridges a simulator topology spec into the analysis-side model.
pub(crate) fn plan_topology(spec: &TopoSpec) -> PlanTopology {
    PlanTopology::new(
        spec.name.clone(),
        spec.nodes
            .iter()
            .map(|n| PlanNode {
                name: n.name.clone(),
                addr: n.addr,
                slices: n.slices.clone(),
            })
            .collect(),
        spec.adjacency(),
        spec.paths.clone(),
    )
}

fn program_policy(name: &str) -> Option<Policy> {
    match name {
        "strict" => Some(Policy::strict()),
        "no_delivery" => Some(Policy::no_delivery()),
        "authenticated" => Some(Policy::authenticated()),
        _ => None,
    }
}

/// Parses, places, and statically verifies a deployment plan.
///
/// `resolver` maps an ASP name from a `deploy` line to its source and
/// default download policy (a per-deploy `policy` clause overrides the
/// latter). The returned image carries the full [`PlanReport`] —
/// callers decide what rejection means; [`install_plan`] refuses
/// unaccepted images.
///
/// # Errors
///
/// Fails on unparsable plans, unknown topologies/ASPs/policies, ASPs
/// that do not compile, and misaligned placements. A plan that merely
/// *verifies badly* (joint loop, blown budget) still loads — inspect
/// [`PlanReport::accepted`].
pub fn load_plan(
    src: &str,
    resolver: &dyn Fn(&str) -> Option<(String, Policy)>,
) -> Result<PlanImage, PlanError> {
    let ast = parse_plan(src).map_err(PlanError::Plan)?;
    let topo = TopoSpec::named(&ast.topology)
        .ok_or_else(|| PlanError::UnknownTopology(ast.topology.clone()))?;

    let mut asps = Vec::new();
    let mut sources = Vec::new();
    for d in &ast.deploys {
        let (source, default_policy) =
            resolver(&d.asp).ok_or_else(|| PlanError::UnknownAsp(d.asp.clone()))?;
        let policy = match d.policy.as_deref() {
            None => default_policy,
            Some(p) => program_policy(p).ok_or_else(|| PlanError::UnknownPolicy(p.to_string()))?,
        };
        let prog = compile_front(&source).map_err(|error| PlanError::Asp {
            name: d.asp.clone(),
            error,
        })?;
        asps.push(PlanAsp::from_program(d.asp.as_str(), &prog));
        sources.push((Rc::<str>::from(source), policy));
    }

    let check = Rc::new(PlanCheck::new(ast, plan_topology(&topo), asps).map_err(PlanError::Check)?);
    let report = check.verify();
    let placements = check
        .installs
        .iter()
        .map(|i| {
            let (source, policy) = &sources[i.deploy];
            Placement {
                node: i.node,
                node_name: topo.nodes[i.node].name.clone(),
                asp: check.asps[i.deploy].name.clone(),
                source: source.clone(),
                policy: *policy,
            }
        })
        .collect();

    Ok(PlanImage {
        name: check.plan.name.clone(),
        source: src.to_string(),
        topo,
        check,
        report,
        placements,
    })
}

/// Installs an accepted plan over a live simulator whose nodes were
/// created by `image.topo.build(sim)` (so `ids` is parallel to the
/// topology's nodes). Each install point gets a [`RecoveryService`]
/// whose preflight re-runs the *plan-level* verifier, so crash
/// recoveries re-check the composition, not just the local program.
/// Returns the per-install recovery logs, parallel to
/// `image.placements`.
///
/// # Errors
///
/// Refuses unaccepted images and co-resident placements (a node hosts
/// exactly one packet hook).
pub fn install_plan(
    sim: &mut Sim,
    image: &PlanImage,
    ids: &[NodeId],
    config: LayerConfig,
) -> Result<Vec<Rc<RefCell<RecoveryLog>>>, String> {
    if !image.report.accepted() {
        return Err(format!(
            "plan `{}` was rejected by the static verifier:\n{}",
            image.name,
            image.report.render(&image.source)
        ));
    }
    for (i, a) in image.placements.iter().enumerate() {
        if let Some(b) = image.placements[..i].iter().find(|b| b.node == a.node) {
            return Err(format!(
                "plan `{}` co-locates `{}` and `{}` on node `{}`, which hosts one hook",
                image.name, b.asp, a.asp, a.node_name
            ));
        }
    }
    let plan_name: Rc<str> = image.name.as_str().into();
    let mut logs = Vec::new();
    for p in &image.placements {
        let check = image.check.clone();
        let plan_name = plan_name.clone();
        let preflight = Rc::new(move || {
            let report = check.verify();
            if report.accepted() {
                Ok(())
            } else {
                Err(format!(
                    "plan `{plan_name}` no longer verifies at plan scope (joint: {})",
                    report.joint.as_str()
                ))
            }
        });
        let svc =
            RecoveryService::new(p.source.clone(), p.policy, config).with_preflight(preflight);
        logs.push(svc.log.clone());
        sim.add_app(ids[p.node], Box::new(svc));
    }
    Ok(logs)
}

/// One probe endpoint: fires [`REPLAY_PACKETS`] at each of its path
/// egresses at start-up and counts whatever planned traffic reaches it.
struct PathProbe {
    dsts: Vec<u32>,
    got: Rc<RefCell<u64>>,
}

impl App for PathProbe {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for &dst in &self.dsts {
            for i in 0..REPLAY_PACKETS {
                let pkt = Packet::udp(api.addr(), dst, 1000, 2000, Bytes::from(vec![i as u8; 32]));
                api.send(pkt);
            }
        }
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        *self.got.borrow_mut() += 1;
    }
}

/// Replays a plan concretely: builds the plan's own topology, installs
/// every placement as an authenticated download (the plan is by
/// hypothesis unsafe — that is what is being demonstrated), sends a
/// probe burst along every plan path, and reports what the network
/// observed. A plan-level loop witness is confirmed when dispatches
/// reach [`LOOP_FACTOR`] × packets sent.
///
/// # Errors
///
/// Fails if a placement's ASP does not load even under the
/// authenticated policy.
pub fn replay_plan(image: &PlanImage) -> Result<ReplayReport, String> {
    let mut sim = Sim::new(7);
    let ids = image.topo.build(&mut sim);

    // A later placement on a node replaces the earlier one's hook, and
    // one node's layers share its counters: read each node once, through
    // the layer that runs there.
    let mut handles: Vec<(usize, PlanpHandle)> = Vec::new();
    for p in &image.placements {
        let loaded = load(&p.source, Policy::authenticated())
            .map_err(|e| format!("ASP `{}`: {e}", p.asp))?;
        let handle = install_planp(&mut sim, ids[p.node], &loaded, LayerConfig::default())
            .map_err(|e| format!("install `{}` on `{}`: {e}", p.asp, p.node_name))?;
        handles.retain(|(node, _)| *node != p.node);
        handles.push((p.node, handle));
    }

    // One endpoint app per node that originates or terminates a path.
    let mut endpoints: Vec<(usize, Vec<u32>)> = Vec::new();
    for &(ingress, egress) in &image.topo.paths {
        let dst = image.topo.nodes[egress].addr;
        match endpoints.iter_mut().find(|(n, _)| *n == ingress) {
            Some((_, dsts)) => dsts.push(dst),
            None => endpoints.push((ingress, vec![dst])),
        }
        if !endpoints.iter().any(|(n, _)| *n == egress) {
            endpoints.push((egress, Vec::new()));
        }
    }
    let got = Rc::new(RefCell::new(0u64));
    let mut sent = 0u64;
    for (node, dsts) in endpoints {
        sent += REPLAY_PACKETS * dsts.len() as u64;
        sim.add_app(
            ids[node],
            Box::new(PathProbe {
                dsts,
                got: got.clone(),
            }),
        );
    }
    sim.run_until(SimTime::from_secs(5));

    let mut dispatches = 0;
    let mut dropped = 0;
    let mut errors = 0;
    for (_, h) in &handles {
        let s = h.stats(&sim.telemetry);
        dispatches += s.matched;
        dropped += s.dropped;
        errors += s.errors;
    }
    let delivered = *got.borrow();
    Ok(ReplayReport {
        sent,
        dispatches,
        delivered,
        dropped,
        errors,
        confirmed_loop: dispatches >= LOOP_FACTOR * sent,
        confirmed_drop: delivered == 0 && dropped > 0,
        confirmed_exception: errors > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Inline copies of the bundled sources: the runtime crate sits
    // below `planp-apps`, so it cannot reach the embedded bundle.
    const FORWARDER: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                             (OnRemote(network, p); (ps + 1, ss))";
    const BOUNCE_A: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                            if ipDst(#1 p) = thisHost()\n\
                            then (deliver(p); (ps, ss))\n\
                            else (OnRemote(network, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps + 1, ss))";
    const BOUNCE_B: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                            if ipDst(#1 p) = thisHost()\n\
                            then (deliver(p); (ps, ss))\n\
                            else (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps + 1, ss))";

    const PAIR_PLAN: &str = "plan pair\n\
                             topology relay_pair\n\
                             class data port 5555\n\
                             deploy forwarder for data on relays\n";
    const BOUNCE_PLAN: &str = "plan bounce\n\
                               topology relay_pair\n\
                               class data port 5555\n\
                               deploy bounce_a for data on r1\n\
                               deploy bounce_b for data on r2\n";

    fn resolver(name: &str) -> Option<(String, Policy)> {
        match name {
            "forwarder" => Some((FORWARDER.to_string(), Policy::strict())),
            "bounce_a" => Some((BOUNCE_A.to_string(), Policy::strict())),
            "bounce_b" => Some((BOUNCE_B.to_string(), Policy::strict())),
            _ => None,
        }
    }

    #[test]
    fn accepted_plan_loads_and_installs() {
        let image = load_plan(PAIR_PLAN, &resolver).expect("loads");
        assert!(image.report.accepted());
        assert!(image.report.max_budget() > 0, "finite composed budget");
        let placed: Vec<(&str, &str)> = image
            .placements
            .iter()
            .map(|p| (&*p.node_name, &*p.asp))
            .collect();
        assert_eq!(placed, vec![("r1", "forwarder"), ("r2", "forwarder")]);

        let mut sim = Sim::new(5);
        let ids = image.topo.build(&mut sim);
        let logs = install_plan(&mut sim, &image, &ids, LayerConfig::default()).expect("installs");
        assert_eq!(logs.len(), image.placements.len());
        sim.run_until(SimTime::from_secs(1));
        for log in &logs {
            let log = log.borrow();
            assert!(log.handle.is_some(), "every placement came up");
            assert_eq!(log.failures, 0, "no preflight or verify failures");
        }
    }

    #[test]
    fn rejected_plan_refuses_install_and_its_witness_replays() {
        let image = load_plan(BOUNCE_PLAN, &resolver).expect("loads despite rejection");
        assert!(!image.report.accepted());
        assert!(
            image.report.witnesses.iter().any(|w| w.code == "E007"),
            "joint loop witness"
        );

        let mut sim = Sim::new(5);
        let ids = image.topo.build(&mut sim);
        let err = install_plan(&mut sim, &image, &ids, LayerConfig::default())
            .expect_err("rejected plans must not install");
        assert!(err.contains("rejected"), "{err}");

        let rep = replay_plan(&image).expect("replay runs");
        assert!(
            rep.confirmed_loop,
            "predicted joint loop reproduces: {rep:?}"
        );
    }

    #[test]
    fn replay_counts_a_shared_node_once() {
        // A second placement on r1 replaces the first one's hook, and
        // both name their channel `network`, so they share r1's counters.
        let stacked = format!("{PAIR_PLAN}deploy forwarder for data on r1\n");
        let image = load_plan(&stacked, &resolver).expect("loads");
        assert_eq!(image.placements.len(), 3);
        let single = replay_plan(&load_plan(PAIR_PLAN, &resolver).expect("loads")).expect("runs");
        let rep = replay_plan(&image).expect("runs");
        assert!(single.dispatches > 0);
        assert_eq!(rep.dispatches, single.dispatches, "{rep:?}");
        assert!(!rep.confirmed_loop);
    }

    fn load_err(src: &str) -> PlanError {
        match load_plan(src, &resolver) {
            Err(e) => e,
            Ok(_) => panic!("plan unexpectedly loaded"),
        }
    }

    #[test]
    fn load_errors_name_the_missing_piece() {
        let e = load_err(
            "plan p\ntopology nowhere\nclass data port 1\ndeploy forwarder for data on relays\n",
        );
        assert!(
            matches!(e, PlanError::UnknownTopology(ref t) if t == "nowhere"),
            "{e}"
        );

        let e = load_err(
            "plan p\ntopology relay_pair\nclass data port 1\ndeploy ghost for data on relays\n",
        );
        assert!(
            matches!(e, PlanError::UnknownAsp(ref a) if a == "ghost"),
            "{e}"
        );

        let e = load_err(
            "plan p\ntopology relay_pair\nclass data port 1\n\
             deploy forwarder for data on relays policy bogus\n",
        );
        assert!(
            matches!(e, PlanError::UnknownPolicy(ref p) if p == "bogus"),
            "{e}"
        );
    }
}
