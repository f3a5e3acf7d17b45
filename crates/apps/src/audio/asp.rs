//! The two PLAN-P programs of the audio-broadcasting experiment
//! (section 3.1): the **router ASP** that degrades audio quality when
//! the outgoing segment gets loaded, and the **client ASP** that
//! restores the original format so the unmodified audio application
//! keeps working.
//!
//! Audio packets are UDP datagrams to [`AUDIO_PORT`] whose payload is:
//!
//! ```text
//! byte 0      format: 0 = 16-bit stereo, 1 = 16-bit mono, 2 = 8-bit mono
//! bytes 1..9  frame sequence number (8-byte big-endian int)
//! bytes 9..   PCM samples (16-bit little-endian, interleaved if stereo)
//! ```

/// UDP destination port carrying the audio stream.
pub const AUDIO_PORT: u16 = 7777;

/// Wire format ids.
pub mod format {
    /// 16-bit stereo (176 kb/s in the paper's setup).
    pub const STEREO16: u8 = 0;
    /// 16-bit monaural (88 kb/s).
    pub const MONO16: u8 = 1;
    /// 8-bit monaural (44 kb/s).
    pub const MONO8: u8 = 2;
}

/// The router program: monitors the outgoing link's utilization and
/// degrades 16-bit-stereo frames to 16-bit or 8-bit mono (three quality
/// levels, as in the paper). Every path forwards, so the program passes
/// the strict verification policy.
pub const AUDIO_ROUTER_ASP: &str = asp_file!("audio_router");

/// The client program: transforms degraded frames back into the
/// original 16-bit-stereo format before delivery, so the audio
/// application does not need to change. The header's format byte keeps
/// the *wire* format so measurement tools can see what the link carried;
/// the PCM samples are always restored to 16-bit stereo.
pub const AUDIO_CLIENT_ASP: &str = asp_file!("audio_client");

/// An alternative router policy: adapt on the outgoing queue length
/// instead of measured bandwidth — reacts to congestion *pressure*
/// rather than utilization. One of the "many other strategies" section
/// 3.1 invites; swapping it in is a one-line change for the operator.
pub const AUDIO_ROUTER_QUEUE_ASP: &str = asp_file!("audio_router_queue");

/// A hysteresis policy: quality only *improves* when utilization falls
/// well below the degradation threshold, held in the protocol state.
/// Trades some bandwidth for stability — it suppresses the medium-load
/// format flapping visible in figure 6.
pub const AUDIO_ROUTER_HYSTERESIS_ASP: &str = asp_file!("audio_router_hysteresis");

#[cfg(test)]
mod tests {
    use super::*;
    use planp_analysis::Policy;
    use planp_runtime::load;

    #[test]
    fn router_asp_passes_strict_verification() {
        let lp = load(AUDIO_ROUTER_ASP, Policy::strict())
            .unwrap_or_else(|e| panic!("router ASP rejected: {e}"));
        assert!(lp.report.termination.is_proved());
        assert!(lp.report.delivery.is_proved());
        assert!(lp.report.duplication.is_proved());
    }

    #[test]
    fn client_asp_passes_strict_verification() {
        let lp = load(AUDIO_CLIENT_ASP, Policy::strict())
            .unwrap_or_else(|e| panic!("client ASP rejected: {e}"));
        assert!(lp.report.accepted());
    }

    #[test]
    fn alternative_policies_verify() {
        for (name, src) in [
            ("queue", AUDIO_ROUTER_QUEUE_ASP),
            ("hysteresis", AUDIO_ROUTER_HYSTERESIS_ASP),
        ] {
            let lp = load(src, Policy::strict()).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            assert!(lp.report.accepted(), "{name}");
        }
    }

    #[test]
    fn line_counts_are_paper_scale() {
        // Paper figure 3: router 68 lines, client 28 lines. Ours should
        // be the same order of magnitude.
        let router = planp_lang::count_lines(AUDIO_ROUTER_ASP);
        let client = planp_lang::count_lines(AUDIO_CLIENT_ASP);
        assert!((25..=90).contains(&router), "router: {router} lines");
        assert!((15..=40).contains(&client), "client: {client} lines");
    }
}
