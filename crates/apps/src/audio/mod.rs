//! The audio-broadcasting experiment (paper section 3.1): QoS
//! adaptation added to an unmodified multicast audio application by a
//! router ASP (bandwidth monitoring + quality degradation) and a client
//! ASP (format restoration).

pub mod apps;
pub mod asp;
pub mod native;
pub mod scenario;

pub use apps::{AudioClient, AudioClientStats, AudioSource, LoadGen, LoadPhase, NullSink};
pub use asp::{
    AUDIO_CLIENT_ASP, AUDIO_PORT, AUDIO_ROUTER_ASP, AUDIO_ROUTER_HYSTERESIS_ASP,
    AUDIO_ROUTER_QUEUE_ASP,
};
pub use native::{NativeAudioClient, NativeAudioRouter};
pub use scenario::{audio_sim, run_audio, run_audio_traced, Adaptation, AudioConfig, AudioResult};
