//! The extensible-HTTP-server gateway ASP (paper section 3.2, built on
//! the figure 2 fragment): a *virtual server* address whose TCP port-80
//! connections are balanced over two physical servers, with result
//! traffic rewritten back so clients only ever see the virtual server.
//!
//! Compared to figure 2, the program is altered the way section 2.1
//! anticipates ("it is sometimes possible to alter the protocol such
//! that it will pass the analyses"): rewritten requests are re-sent on a
//! dedicated `relay` channel instead of `network`, so the
//! destination-changing send cannot re-enter the rewriting channel and
//! the global-termination proof goes through.

use netsim::packet::addr;

/// The virtual server address clients connect to.
pub const VIRTUAL_ADDR: u32 = addr(10, 9, 9, 9);
/// Physical server 0 (the paper's 131.254.60.81 stands in a /24 we own).
pub const SERVER0_ADDR: u32 = addr(10, 0, 2, 1);
/// Physical server 1 (the paper's 131.254.60.109).
pub const SERVER1_ADDR: u32 = addr(10, 0, 3, 1);

/// The load-balancing gateway program. Strategy: "modulo on the number
/// of requests" (the paper's), keyed per connection so all packets of
/// one TCP connection reach the same physical server.
pub const HTTP_GATEWAY_ASP: &str = asp_file!("http_gateway");

/// Physical server 2, used by [`HTTP_GATEWAY_3SRV_ASP`] when the
/// cluster is grown at run time (section 3.2: "ASPs can be easily
/// modified to reflect a change in the number of physical servers").
pub const SERVER2_ADDR: u32 = addr(10, 0, 4, 1);

/// Round-robin over **three** servers — the reconfiguration target for
/// the grow-the-cluster demo: deploy this over a running two-server
/// gateway and the third machine starts taking connections.
pub const HTTP_GATEWAY_3SRV_ASP: &str = asp_file!("http_gateway_3srv");

/// Random per-connection assignment (sticky via the connection table) —
/// one of the alternative strategies section 3.2 says the administrator
/// can evaluate by just swapping the gateway ASP.
pub const HTTP_GATEWAY_RANDOM_ASP: &str = asp_file!("http_gateway_random");

/// Stateless port-parity assignment — no connection table at all: a
/// connection's client port decides its server, so stickiness is free.
pub const HTTP_GATEWAY_PORTHASH_ASP: &str = asp_file!("http_gateway_porthash");

/// Emergency failover gateway: pins every virtual-server connection to
/// server 0. Deployed in band when server 1 fails — the fault-tolerance
/// direction the paper lists as future work for the cluster (§5),
/// realized with nothing but an ASP swap.
pub const HTTP_GATEWAY_FAILOVER_ASP: &str = asp_file!("http_gateway_failover");

#[cfg(test)]
mod tests {
    use super::*;
    use planp_analysis::Policy;
    use planp_runtime::load;

    #[test]
    fn gateway_asp_passes_strict_verification() {
        let lp = load(HTTP_GATEWAY_ASP, Policy::strict())
            .unwrap_or_else(|e| panic!("gateway ASP rejected: {e}"));
        assert!(lp.report.termination.is_proved());
        assert!(lp.report.delivery.is_proved());
        assert!(lp.report.duplication.is_proved());
    }

    #[test]
    fn alternative_strategies_verify() {
        for (name, src) in [
            ("3srv", HTTP_GATEWAY_3SRV_ASP),
            ("random", HTTP_GATEWAY_RANDOM_ASP),
            ("porthash", HTTP_GATEWAY_PORTHASH_ASP),
            ("failover", HTTP_GATEWAY_FAILOVER_ASP),
        ] {
            let lp = load(src, Policy::strict()).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            assert!(lp.report.accepted(), "{name}");
        }
    }

    #[test]
    fn line_count_is_paper_scale() {
        // Paper figure 3: the extensible web server is 91 lines.
        let n = planp_lang::count_lines(HTTP_GATEWAY_ASP);
        assert!((30..=110).contains(&n), "{n} lines");
    }

    #[test]
    fn figure2_unaltered_version_needs_authentication() {
        // The figure-2 shape (re-sending rewritten requests on `network`)
        // is NOT provable — the paper's own fragment would need an
        // authenticated download.
        let fig2 =
            HTTP_GATEWAY_ASP.replace("OnRemote(relay, (ipDestSet", "OnRemote(network, (ipDestSet");
        let fig2 = fig2.replace(
            "channel relay(ps : int, ss : unit, p : ip*tcp*blob) is\n  (OnRemote(relay, p); (ps, ss))",
            "",
        );
        assert!(load(&fig2, Policy::strict()).is_err());
        assert!(load(&fig2, Policy::authenticated()).is_ok());
    }
}
