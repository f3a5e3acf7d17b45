//! The ASP corpus: every PLAN-P program under `asps/`, held once.
//!
//! The paper ships ASPs as source that a router verifies at download
//! (section 2.1); the `.planp` files are that source, and [`CORPUS`] is
//! the one table naming them. The plan resolver, the bench harness's
//! `bundled_asps()` / `paper_programs()`, the `planp check` gate and the
//! tests' corpus walks all read it, and `tests/pipeline.rs` fails when a
//! file under `asps/` is missing from it or differs from its entry.

use crate::audio::{
    AUDIO_CLIENT_ASP, AUDIO_ROUTER_ASP, AUDIO_ROUTER_HYSTERESIS_ASP, AUDIO_ROUTER_QUEUE_ASP,
};
use crate::chaos::{AUDIO_ROUTER_CHAOS_ASP, FRAGILE_RELAY_ASP, RELIABLE_RELAY_ASP};
use crate::http::{
    HTTP_GATEWAY_3SRV_ASP, HTTP_GATEWAY_ASP, HTTP_GATEWAY_FAILOVER_ASP, HTTP_GATEWAY_PORTHASH_ASP,
    HTTP_GATEWAY_RANDOM_ASP,
};
use crate::mpeg::{MPEG_CAPTURE_ASP, MPEG_MONITOR_ASP};
use planp_analysis::Policy;

/// One program of the corpus.
#[derive(Debug, Clone, Copy)]
pub struct CorpusAsp {
    /// File stem, unique across `asps/` and `asps/buggy/`; the name
    /// deployment plans refer to the program by.
    pub name: &'static str,
    /// Path from the repository root, as the baselines print it.
    pub path: &'static str,
    /// The source as the Rust side has always carried it: the fourteen
    /// programs that used to be raw strings keep their leading newline
    /// (so spans, site ids and `line:col` labels did not move), the rest
    /// are the file verbatim.
    pub src: &'static str,
    /// The strongest download policy the program is accepted under —
    /// what plans, figure 3 and the lint gate load it with. `authenticated` marks a program whose violation
    /// verdict is a known conservative over-approximation.
    pub policy: Policy,
    /// Lives under `asps/buggy/`: deficient on purpose (a negative
    /// control or half of a jointly-looping pair), so the lint gate
    /// skips it while the model-check and state baselines pin it.
    pub buggy: bool,
}

impl CorpusAsp {
    /// The program as its file holds it: [`CorpusAsp::src`] without the
    /// leading newline.
    pub fn file_text(&self) -> &'static str {
        self.src.strip_prefix('\n').unwrap_or(self.src)
    }
}

macro_rules! asp {
    ($dir:literal, $name:literal, $policy:ident) => {
        asp!(
            $dir,
            $name,
            $policy,
            include_str!(concat!("../../../asps/", $dir, $name, ".planp"))
        )
    };
    ($dir:literal, $name:literal, $policy:ident, $src:expr) => {
        CorpusAsp {
            name: $name,
            path: concat!("asps/", $dir, $name, ".planp"),
            src: $src,
            policy: Policy::$policy(),
            buggy: !$dir.is_empty(),
        }
    };
}

/// Every `asps/**/*.planp`, the checked-in programs first and the
/// deliberately buggy ones after, each group sorted by name — the order
/// `asps/*.planp asps/buggy/*.planp` expands to.
pub const CORPUS: &[CorpusAsp] = &[
    asp!("", "audio_client", strict, AUDIO_CLIENT_ASP),
    asp!("", "audio_router", strict, AUDIO_ROUTER_ASP),
    asp!("", "audio_router_chaos", strict, AUDIO_ROUTER_CHAOS_ASP),
    asp!(
        "",
        "audio_router_hysteresis",
        strict,
        AUDIO_ROUTER_HYSTERESIS_ASP
    ),
    asp!("", "audio_router_queue", strict, AUDIO_ROUTER_QUEUE_ASP),
    asp!("", "forwarder", strict),
    asp!("", "http_gateway", strict, HTTP_GATEWAY_ASP),
    asp!("", "http_gateway_3srv", strict, HTTP_GATEWAY_3SRV_ASP),
    asp!("", "http_gateway_bounded", strict),
    asp!(
        "",
        "http_gateway_failover",
        strict,
        HTTP_GATEWAY_FAILOVER_ASP
    ),
    asp!(
        "",
        "http_gateway_porthash",
        strict,
        HTTP_GATEWAY_PORTHASH_ASP
    ),
    asp!("", "http_gateway_random", strict, HTTP_GATEWAY_RANDOM_ASP),
    asp!("", "mpeg_capture", no_delivery, MPEG_CAPTURE_ASP),
    asp!("", "mpeg_monitor", no_delivery, MPEG_MONITOR_ASP),
    asp!("", "relay_pin", strict),
    asp!("", "reliable_relay", authenticated, RELIABLE_RELAY_ASP),
    asp!("buggy/", "bounce_a", strict),
    asp!("buggy/", "bounce_b", strict),
    asp!("buggy/", "bounce_pingpong", strict),
    asp!("buggy/", "fragile_relay", no_delivery, FRAGILE_RELAY_ASP),
    asp!("buggy/", "neighbor_pingpong", strict),
    asp!("buggy/", "shuttle_a", strict),
    asp!("buggy/", "shuttle_b", strict),
    asp!("buggy/", "silent_drop", strict),
    asp!("buggy/", "state_leak", strict),
];

/// The corpus entry called `name`.
pub fn asp(name: &str) -> Option<&'static CorpusAsp> {
    CORPUS.iter().find(|a| a.name == name)
}

/// The corpus entry stored at `path` (`asps/…​.planp`).
pub fn asp_at(path: &str) -> Option<&'static CorpusAsp> {
    CORPUS.iter().find(|a| a.path == path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_paths_are_unique_and_ordered() {
        let paths: Vec<&str> = CORPUS.iter().map(|a| a.path).collect();
        let mut sorted = paths.clone();
        sorted.sort_by_key(|p| (p.starts_with("asps/buggy/"), *p));
        sorted.dedup();
        assert_eq!(paths, sorted);
        for a in CORPUS {
            assert_eq!(asp(a.name).unwrap().path, a.path, "duplicate name");
            assert_eq!(a.buggy, a.path.starts_with("asps/buggy/"));
        }
    }
}
