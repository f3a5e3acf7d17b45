//! Native ("built-in C") baseline of the audio-adaptation router: the
//! same logic as `AUDIO_ROUTER_ASP`, hand-written against the hook API.
//! Used by the JIT-vs-native comparison (the paper's claim that a
//! PLAN-P ASP matches in-kernel C).

use super::asp::{format, AUDIO_PORT};
use bytes::{BufMut, BytesMut};
use netsim::digest::Fnv;
use netsim::packet::Packet;
use netsim::{ArrivalMeta, HookVerdict, NodeApi, PacketHook};
use planp_vm::audio;
use std::hash::Hash;

/// Thresholds mirroring the ASP's `hiThresh`/`loThresh`.
const HI_THRESH: i64 = 80;
const LO_THRESH: i64 = 50;

/// The native router hook.
#[derive(Debug, Default)]
pub struct NativeAudioRouter {
    /// Frames degraded so far (diagnostics).
    pub degraded: u64,
}

impl NativeAudioRouter {
    /// A fresh router hook.
    pub fn new() -> Self {
        Self::default()
    }

    /// The quality level for a measured utilization percentage —
    /// identical to the ASP's `targetQuality`.
    pub fn target_quality(util: i64) -> u8 {
        if util > HI_THRESH {
            format::MONO8
        } else if util > LO_THRESH {
            format::MONO16
        } else {
            format::STEREO16
        }
    }
}

impl PacketHook for NativeAudioRouter {
    fn on_packet(
        &mut self,
        api: &mut NodeApi<'_>,
        mut pkt: Packet,
        meta: &ArrivalMeta,
    ) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        let is_audio = pkt.udp_hdr().is_some_and(|u| u.dport == AUDIO_PORT)
            && pkt.payload.len() > 9
            && pkt.payload[0] == format::STEREO16;
        if !is_audio {
            return HookVerdict::Pass(pkt);
        }
        let out = pkt.ip.dst;
        let util = api.measured_kbps_toward(out) * 100 / (api.capacity_kbps_toward(out) + 1);
        let q = Self::target_quality(util);
        if q == format::STEREO16 {
            return HookVerdict::Pass(pkt);
        }
        let pcm = &pkt.payload[9..];
        let degraded = match q {
            format::MONO8 => audio::pcm16_to_8(&audio::stereo_to_mono(pcm)),
            _ => audio::stereo_to_mono(pcm),
        };
        let mut buf = BytesMut::with_capacity(9 + degraded.len());
        buf.put_u8(q);
        buf.put_slice(&pkt.payload[1..9]);
        buf.put_slice(&degraded);
        pkt.payload = buf.freeze();
        self.degraded += 1;
        if pkt.ip.ttl <= 1 {
            return HookVerdict::Handled; // drop, as IP would
        }
        pkt.ip.ttl -= 1;
        api.send(pkt);
        HookVerdict::Handled
    }

    fn digest(&self, h: &mut Fnv) {
        self.degraded.hash(h);
    }
}

/// Native client-side restoration (the counterpart of
/// `AUDIO_CLIENT_ASP`).
#[derive(Debug, Default)]
pub struct NativeAudioClient;

impl PacketHook for NativeAudioClient {
    fn on_packet(
        &mut self,
        api: &mut NodeApi<'_>,
        mut pkt: Packet,
        meta: &ArrivalMeta,
    ) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        let is_audio =
            pkt.udp_hdr().is_some_and(|u| u.dport == AUDIO_PORT) && pkt.payload.len() > 9;
        if !is_audio {
            return HookVerdict::Pass(pkt);
        }
        let fmt = pkt.payload[0];
        if fmt == format::STEREO16 {
            return HookVerdict::Pass(pkt);
        }
        let pcm = &pkt.payload[9..];
        let full = match fmt {
            format::MONO8 => audio::mono_to_stereo(&audio::pcm8_to_16(pcm)),
            _ => audio::mono_to_stereo(pcm),
        };
        let mut buf = BytesMut::with_capacity(9 + full.len());
        buf.put_u8(fmt); // keep the wire format visible to measurement
        buf.put_slice(&pkt.payload[1..9]);
        buf.put_slice(&full);
        pkt.payload = buf.freeze();
        api.deliver_local(pkt);
        HookVerdict::Handled
    }

    // Stateless: each frame is restored on its own.
    fn digest(&self, _: &mut Fnv) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_thresholds_match_asp() {
        assert_eq!(NativeAudioRouter::target_quality(10), format::STEREO16);
        assert_eq!(NativeAudioRouter::target_quality(50), format::STEREO16);
        assert_eq!(NativeAudioRouter::target_quality(51), format::MONO16);
        assert_eq!(NativeAudioRouter::target_quality(80), format::MONO16);
        assert_eq!(NativeAudioRouter::target_quality(81), format::MONO8);
        assert_eq!(NativeAudioRouter::target_quality(99), format::MONO8);
    }
}
