//! The two PLAN-P programs of the multipoint-MPEG experiment (paper
//! section 3.3): the **monitor ASP** that tracks open connections to the
//! video server and answers client queries, and the **capture ASP** that
//! delivers a neighbor's video stream to the local client.
//!
//! Wire protocols:
//!
//! * control (TCP port 5555): `PLAY <file> <port>\n` from client;
//!   `OK <setup>\n` from server;
//! * monitor query (UDP port 5556): `Q <file>\n`; the monitor replies
//!   with a *typed* packet `ip*udp*host*int*string` = (stream host,
//!   stream port, setup info) — host `0.0.0.0` means "no open stream";
//! * capture control (UDP port 5557 to self): typed `ip*udp*host*int`
//!   naming the (host, port) stream to capture off the segment.

/// TCP control port of the video server.
pub const MPEG_CTL_PORT: u16 = 5555;
/// UDP port the monitor ASP answers queries on.
pub const MONITOR_QUERY_PORT: u16 = 5556;
/// UDP port for the local capture-configuration packet.
pub const CAPTURE_CTL_PORT: u16 = 5557;

/// The monitor program (the paper's biggest ASP: 161 lines). It runs on
/// one machine of the segment in promiscuous mode, watching the control
/// dialogue between clients and the server, and answers "is someone
/// already receiving file F?" queries from new clients.
pub const MPEG_MONITOR_ASP: &str = asp_file!("mpeg_monitor");

/// The capture program installed on every client: a local control
/// packet (UDP 5557 to self, typed `host*int`) registers a stream to
/// capture; overheard packets of registered streams are delivered to
/// the local application.
pub const MPEG_CAPTURE_ASP: &str = asp_file!("mpeg_capture");

#[cfg(test)]
mod tests {
    use super::*;
    use planp_analysis::Policy;
    use planp_runtime::load;

    #[test]
    fn monitor_asp_loads_without_delivery_requirement() {
        // The monitor intentionally observes without forwarding, so the
        // guaranteed-delivery property cannot hold; termination and
        // linear duplication are still proved.
        let lp = load(MPEG_MONITOR_ASP, Policy::no_delivery())
            .unwrap_or_else(|e| panic!("monitor rejected: {e}"));
        assert!(lp.report.termination.is_proved());
        assert!(lp.report.duplication.is_proved());
        assert!(!lp.report.delivery.is_proved());
        assert_eq!(lp.prog.channels.len(), 3);
    }

    #[test]
    fn capture_asp_loads_without_delivery_requirement() {
        let lp = load(MPEG_CAPTURE_ASP, Policy::no_delivery())
            .unwrap_or_else(|e| panic!("capture rejected: {e}"));
        assert!(lp.report.termination.is_proved());
        assert!(lp.report.duplication.is_proved());
    }

    #[test]
    fn line_counts_are_paper_scale() {
        // Paper figure 3: MPEG monitor 161 lines, MPEG client 53.
        let m = planp_lang::count_lines(MPEG_MONITOR_ASP);
        let c = planp_lang::count_lines(MPEG_CAPTURE_ASP);
        assert!((50..=170).contains(&m), "monitor: {m}");
        assert!((20..=60).contains(&c), "capture: {c}");
    }
}
