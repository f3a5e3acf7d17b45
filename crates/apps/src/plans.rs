//! The bundled deployment plans and the ASP name resolver that backs
//! them.
//!
//! Plans under `asps/plans/` name their ASPs abstractly (`forwarder`,
//! `reliable_relay`, `http_gateway`, …); [`resolve_asp`] maps each name
//! to its PLAN-P source and default download policy through the one
//! corpus table ([`crate::corpus`]). [`load_bundled_plan`] ties the two
//! together, and [`verify_http_gateway`] lets the HTTP scenario statically verify
//! whichever gateway variant it is about to install — against the
//! canonical `http_cluster` topology — before the download happens.

use planp_analysis::Policy;
use planp_runtime::{load_plan, PlanError, PlanImage};

/// `asps/plans/relay_pair.plan` — forwarder on the replay pair.
pub const RELAY_PAIR_PLAN: &str = include_str!("../../../asps/plans/relay_pair.plan");
/// `asps/plans/relay_chain_fragile.plan` — the chaos negative control.
pub const RELAY_CHAIN_FRAGILE_PLAN: &str =
    include_str!("../../../asps/plans/relay_chain_fragile.plan");
/// `asps/plans/relay_chain_reliable.plan` — the chaos headline relay.
pub const RELAY_CHAIN_RELIABLE_PLAN: &str =
    include_str!("../../../asps/plans/relay_chain_reliable.plan");
/// `asps/plans/http_cluster.plan` — the load-balancing gateway.
pub const HTTP_CLUSTER_PLAN: &str = include_str!("../../../asps/plans/http_cluster.plan");
/// `asps/plans/obs_grid.plan` — forwarders across the 1024-node grid.
pub const OBS_GRID_PLAN: &str = include_str!("../../../asps/plans/obs_grid.plan");
/// `asps/plans/buggy_bounce.plan` — rejected: dueling destination pins.
pub const BUGGY_BOUNCE_PLAN: &str = include_str!("../../../asps/plans/buggy_bounce.plan");
/// `asps/plans/buggy_shuttle.plan` — rejected: cross-channel shuttle.
pub const BUGGY_SHUTTLE_PLAN: &str = include_str!("../../../asps/plans/buggy_shuttle.plan");

/// Every bundled plan as `(name, source)`, in a fixed report order.
pub fn bundled_plans() -> Vec<(&'static str, &'static str)> {
    vec![
        ("buggy_bounce", BUGGY_BOUNCE_PLAN),
        ("buggy_shuttle", BUGGY_SHUTTLE_PLAN),
        ("http_cluster", HTTP_CLUSTER_PLAN),
        ("obs_grid", OBS_GRID_PLAN),
        ("relay_chain_fragile", RELAY_CHAIN_FRAGILE_PLAN),
        ("relay_chain_reliable", RELAY_CHAIN_RELIABLE_PLAN),
        ("relay_pair", RELAY_PAIR_PLAN),
    ]
}

/// Maps a `deploy` line's ASP name to its source and default download
/// policy: the [`corpus`](crate::corpus) entry of that name. Returns
/// `None` for names the corpus does not hold.
pub fn resolve_asp(name: &str) -> Option<(String, Policy)> {
    crate::corpus::asp(name).map(|a| (a.src.to_string(), a.policy))
}

/// Loads and statically verifies one bundled plan by name.
///
/// # Errors
///
/// [`PlanError::UnknownPlan`] for a name [`bundled_plans`] does not
/// list; otherwise whatever [`load_plan`] reports.
pub fn load_bundled_plan(name: &str) -> Result<PlanImage, PlanError> {
    let (_, src) = bundled_plans()
        .into_iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| PlanError::UnknownPlan(name.to_string()))?;
    load_plan(src, &resolve_asp)
}

/// Statically verifies a gateway ASP at plan scope before the HTTP
/// scenario installs it: loads [`HTTP_CLUSTER_PLAN`] with the
/// `http_gateway` deploy resolved to `gateway_src` (so every gateway
/// variant — round-robin, random, port-hash, failover — is checked
/// against the canonical cluster topology). Returns the rendered
/// report on rejection.
///
/// # Errors
///
/// Fails if the plan does not load or the verifier rejects it.
pub fn verify_http_gateway(gateway_src: &str) -> Result<PlanImage, String> {
    let resolver = |name: &str| -> Option<(String, Policy)> {
        if name == "http_gateway" {
            Some((gateway_src.to_string(), Policy::strict()))
        } else {
            resolve_asp(name)
        }
    };
    let image = load_plan(HTTP_CLUSTER_PLAN, &resolver).map_err(|e| e.to_string())?;
    if !image.report.accepted() {
        return Err(format!(
            "gateway rejected at plan scope:\n{}",
            image.report.render(HTTP_CLUSTER_PLAN)
        ));
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{
        HTTP_GATEWAY_3SRV_ASP, HTTP_GATEWAY_ASP, HTTP_GATEWAY_FAILOVER_ASP,
        HTTP_GATEWAY_PORTHASH_ASP, HTTP_GATEWAY_RANDOM_ASP,
    };
    use planp_runtime::replay_plan;

    #[test]
    fn every_bundled_plan_loads() {
        for (name, src) in bundled_plans() {
            let image = load_plan(src, &resolve_asp).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(image.name, name);
            assert!(
                image.report.max_budget() > 0,
                "{name}: no composed path budget"
            );
        }
    }

    #[test]
    fn single_asp_plans_prove_and_buggy_plans_reject() {
        for (name, src) in bundled_plans() {
            let image = load_plan(src, &resolve_asp).unwrap();
            if name.starts_with("buggy_") {
                assert!(!image.report.accepted(), "{name} should be rejected");
                assert!(
                    image.report.witnesses.iter().any(|w| w.code == "E007"),
                    "{name} should carry an E007 witness"
                );
            } else {
                assert!(
                    image.report.accepted(),
                    "{name} should be accepted:\n{}",
                    image.report.render(src)
                );
            }
        }
    }

    #[test]
    fn an_unlisted_plan_name_is_an_unknown_plan() {
        match load_bundled_plan("nosuch") {
            Err(e @ PlanError::UnknownPlan(_)) => {
                assert_eq!(e.to_string(), "no bundled plan `nosuch`")
            }
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("loaded"),
        }
    }

    #[test]
    fn buggy_plan_witnesses_replay_as_real_loops() {
        for name in ["buggy_bounce", "buggy_shuttle"] {
            let image = load_bundled_plan(name).unwrap();
            assert!(!image.report.accepted());
            let replay = replay_plan(&image).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                replay.confirmed_loop,
                "{name}: predicted joint loop did not reproduce: {replay:?}"
            );
        }
    }

    #[test]
    fn all_gateway_variants_verify_at_plan_scope() {
        for (tag, src) in [
            ("round_robin", HTTP_GATEWAY_ASP),
            ("3srv", HTTP_GATEWAY_3SRV_ASP),
            ("random", HTTP_GATEWAY_RANDOM_ASP),
            ("porthash", HTTP_GATEWAY_PORTHASH_ASP),
            ("failover", HTTP_GATEWAY_FAILOVER_ASP),
        ] {
            let image = verify_http_gateway(src).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(image.report.joint.is_proved(), "{tag} joint check");
        }
    }
}
