//! Chaos experiments: the relay-chain robustness study under seeded
//! fault injection (link loss, corruption, duplication, jitter, node
//! crashes), contrasting a NACK-driven reliable relay with its
//! statically spotless but retransmission-free twin.

pub mod apps;
pub mod asp;
pub mod scenario;

pub use apps::{SeqCollector, SeqCollectorStats, SeqSource, SeqSourceStats};
pub use asp::{
    AUDIO_ROUTER_CHAOS_ASP, DATA_PORT, FRAGILE_RELAY_ASP, NACK_PORT, RELIABLE_RELAY_ASP,
};
pub use scenario::{
    chaos_slo_rules, relay_chaos_sim, run_relay_chaos, ChaosHealth, RelayChaosConfig,
    RelayChaosResult, RelayKind,
};
