//! The PLAN-P programs of the chaos experiments: a NACK-driven
//! reliable relay, its retransmission-free negative control, and a
//! corruption-hardened variant of the audio router.
//!
//! Data framing shared by the relay programs and the Rust traffic
//! apps: UDP datagrams to [`DATA_PORT`] whose payload starts with the
//! sequence number as an 8-byte big-endian integer; NACKs are UDP
//! datagrams to [`NACK_PORT`] carrying the requested sequence in the
//! same encoding.

/// UDP destination port carrying sequence-stamped data.
pub const DATA_PORT: u16 = 5555;

/// UDP destination port carrying NACKs (requests for a retransmission).
pub const NACK_PORT: u16 = 5556;

/// The reliable relay: relays buffer by sequence number and answer
/// NACKs with retransmissions; the receiver dedupes, NACKs gaps, and
/// keeps a timer armed until every gap closes. The retransmission
/// cycle defeats the conservative termination screen, so this program
/// loads under the `authenticated` policy (paper section 2.1).
pub const RELIABLE_RELAY_ASP: &str = asp_file!("reliable_relay");

/// The negative control: identical framing, no buffering, no NACKs.
/// Statically spotless (termination and delivery both prove) and
/// behaviorally fragile — its delivery ratio collapses under injected
/// loss.
pub const FRAGILE_RELAY_ASP: &str = asp_file!("buggy/fragile_relay");

/// The corruption-hardened audio router: clamps corrupted quality
/// markers back into range, watches the outgoing queue as well as
/// utilization, and forwards anything it cannot parse verbatim.
pub const AUDIO_ROUTER_CHAOS_ASP: &str = asp_file!("audio_router_chaos");
