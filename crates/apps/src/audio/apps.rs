//! Simulated applications for the audio experiment: the broadcaster,
//! the measuring client, and the competing load generator.

use super::asp::{format, AUDIO_PORT};
use bytes::{BufMut, Bytes, BytesMut};
use netsim::packet::Packet;
use netsim::{App, NodeApi};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Audio frame interval. With [`PCM_BYTES_PER_FRAME`] this gives the
/// paper's 176 kb/s for full-quality 16-bit stereo.
pub const FRAME_INTERVAL: Duration = Duration::from_millis(50);

/// PCM bytes per full-quality frame: 176 kb/s × 50 ms / 8 = 1100 B.
pub const PCM_BYTES_PER_FRAME: usize = 1100;

/// Builds one audio frame payload.
pub fn frame_payload(fmt: u8, seq: i64, pcm: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(9 + pcm.len());
    buf.put_u8(fmt);
    buf.put_i64(seq);
    buf.put_slice(pcm);
    buf.freeze()
}

/// The unmodified broadcasting application: sends CD-style audio frames
/// to a multicast group forever. It knows nothing about adaptation.
pub struct AudioSource {
    group: u32,
    seq: i64,
}

impl AudioSource {
    /// A source streaming to `group`.
    pub fn new(group: u32) -> Self {
        AudioSource { group, seq: 0 }
    }

    fn synth_pcm(&self) -> Vec<u8> {
        // Deterministic 16-bit stereo ramp; content is irrelevant to the
        // experiment but must survive the degradation primitives.
        let mut pcm = Vec::with_capacity(PCM_BYTES_PER_FRAME);
        let mut v = (self.seq as i16).wrapping_mul(31);
        while pcm.len() < PCM_BYTES_PER_FRAME {
            v = v.wrapping_add(257);
            pcm.extend_from_slice(&v.to_le_bytes());
        }
        pcm
    }
}

impl App for AudioSource {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(FRAME_INTERVAL, 0);
    }

    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let pcm = self.synth_pcm();
        let payload = frame_payload(format::STEREO16, self.seq, &pcm);
        self.seq += 1;
        let pkt = Packet::udp(api.addr(), self.group, AUDIO_PORT, AUDIO_PORT, payload);
        api.send(pkt);
        api.set_timer(FRAME_INTERVAL, 0);
    }
}

/// What the measuring client observed.
#[derive(Debug, Default, Clone)]
pub struct AudioClientStats {
    /// Frames received.
    pub frames: u64,
    /// Total payload bytes received.
    pub bytes: u64,
    /// Silent periods: sequence gaps or stalls longer than three frame
    /// intervals (the paper's figure 7 metric).
    pub gaps: u64,
    /// Frames received at each quality level `[16s, 16m, 8m]`.
    pub by_format: [u64; 3],
    /// Number of wire-format transitions between consecutive frames
    /// (the "flapping" a hysteresis policy suppresses).
    pub format_changes: u64,
}

/// The audio client: receives frames (after the client ASP restored the
/// format), verifies the format, and measures bandwidth and silent
/// periods. Records the `audio_rx_kbps` series every second.
pub struct AudioClient {
    stats: Rc<RefCell<AudioClientStats>>,
    next_seq: i64,
    last_arrival_ms: u64,
    bytes_this_second: u64,
    expect_restored: bool,
    last_fmt: Option<u8>,
    series: &'static str,
}

impl AudioClient {
    /// A client sharing `stats` with the harness. `expect_restored` is
    /// true when a client ASP is installed (all delivered frames must be
    /// 16-bit stereo again).
    pub fn new(stats: Rc<RefCell<AudioClientStats>>, expect_restored: bool) -> Self {
        Self::with_series(stats, expect_restored, "audio_rx_kbps")
    }

    /// Like [`AudioClient::new`], recording bandwidth under a custom
    /// series name (for multi-client topologies).
    pub(crate) fn with_series(
        stats: Rc<RefCell<AudioClientStats>>,
        expect_restored: bool,
        series: &'static str,
    ) -> Self {
        AudioClient {
            stats,
            next_seq: -1,
            last_arrival_ms: 0,
            bytes_this_second: 0,
            expect_restored,
            last_fmt: None,
            series,
        }
    }
}

impl App for AudioClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_secs(1), 1);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(udp) = pkt.udp_hdr() else { return };
        if udp.dport != AUDIO_PORT || pkt.payload.len() < 9 {
            return; // competing traffic, not audio
        }
        let fmt = pkt.payload[0];
        let seq = i64::from_be_bytes(pkt.payload[1..9].try_into().expect("len checked"));
        let now_ms = api.now().as_ms();

        // The format byte reports what the *wire* carried; the client ASP
        // restored the PCM to full 16-bit stereo. Reconstruct the wire
        // footprint for the figure 6 bandwidth series.
        let pcm_len = (pkt.payload.len() - 9) as u64;
        let wire_len = 9 + match fmt {
            format::MONO8 => pcm_len / 4,
            format::MONO16 => pcm_len / 2,
            _ => pcm_len,
        };

        let mut st = self.stats.borrow_mut();
        st.frames += 1;
        st.bytes += wire_len;
        if (fmt as usize) < 3 {
            st.by_format[fmt as usize] += 1;
        }
        if let Some(prev) = self.last_fmt {
            if prev != fmt {
                st.format_changes += 1;
            }
        }
        self.last_fmt = Some(fmt);
        debug_assert!(
            !self.expect_restored || pcm_len as usize == PCM_BYTES_PER_FRAME,
            "client ASP should have restored the PCM to full size"
        );
        // Silent-period detection: missing frames or stalls.
        if self.next_seq >= 0 {
            let stalled =
                now_ms.saturating_sub(self.last_arrival_ms) > 3 * FRAME_INTERVAL.as_millis() as u64;
            if seq > self.next_seq || stalled {
                st.gaps += 1;
            }
        }
        drop(st);
        self.next_seq = seq + 1;
        self.last_arrival_ms = now_ms;
        self.bytes_this_second += wire_len;
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let kbps = (self.bytes_this_second * 8) as f64 / 1000.0;
        api.record(self.series, kbps);
        self.bytes_this_second = 0;
        api.set_timer(Duration::from_secs(1), 1);
    }
}

/// One phase of background load.
#[derive(Debug, Clone, Copy)]
pub struct LoadPhase {
    /// Phase start (seconds).
    pub from_s: f64,
    /// Phase end (seconds).
    pub to_s: f64,
    /// Offered load during the phase (kb/s).
    pub kbps: u64,
}

/// Generates competing CBR traffic toward a sink on the shared segment,
/// following a phase schedule (none → large → medium → small in the
/// paper's figure 6). A small multiplicative jitter is applied per
/// burst so "medium" load hovers around the adaptation threshold.
pub struct LoadGen {
    target: u32,
    phases: Vec<LoadPhase>,
    jitter_pct: u64,
}

/// Interval between load bursts.
const BURST_INTERVAL: Duration = Duration::from_millis(10);

impl LoadGen {
    /// A generator sending to `target` following `phases`.
    pub fn new(target: u32, phases: Vec<LoadPhase>, jitter_pct: u64) -> Self {
        LoadGen {
            target,
            phases,
            jitter_pct,
        }
    }

    fn current_kbps(&self, t: f64) -> u64 {
        self.phases
            .iter()
            .find(|p| t >= p.from_s && t < p.to_s)
            .map(|p| p.kbps)
            .unwrap_or(0)
    }
}

impl App for LoadGen {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(BURST_INTERVAL, 0);
    }

    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let t = api.now().as_secs_f64();
        let mut kbps = self.current_kbps(t);
        if kbps > 0 && self.jitter_pct > 0 {
            let span = kbps * self.jitter_pct / 100;
            kbps = kbps - span + api.rand_below(2 * span + 1);
        }
        // Bytes this burst, split into MTU-sized packets.
        let mut bytes = (kbps as usize * BURST_INTERVAL.as_millis() as usize) / 8;
        while bytes > 0 {
            let take = bytes.min(1250);
            let pkt = Packet::udp(
                api.addr(),
                self.target,
                9999,
                9999,
                Bytes::from(vec![0u8; take]),
            );
            api.send(pkt);
            bytes -= take;
        }
        api.set_timer(BURST_INTERVAL, 0);
    }
}

/// A do-nothing sink for generated load.
pub struct NullSink;

impl App for NullSink {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_payload_layout() {
        let p = frame_payload(format::MONO8, 42, &[1, 2, 3]);
        assert_eq!(p[0], 2);
        assert_eq!(i64::from_be_bytes(p[1..9].try_into().unwrap()), 42);
        assert_eq!(&p[9..], &[1, 2, 3]);
    }

    #[test]
    fn full_rate_matches_paper() {
        // 1100 B per 50 ms = 176 kb/s.
        let kbps = PCM_BYTES_PER_FRAME * 8 * (1000 / FRAME_INTERVAL.as_millis() as usize) / 1000;
        assert_eq!(kbps, 176);
    }

    #[test]
    fn load_phase_lookup() {
        let lg = LoadGen::new(
            1,
            vec![
                LoadPhase {
                    from_s: 0.0,
                    to_s: 10.0,
                    kbps: 0,
                },
                LoadPhase {
                    from_s: 10.0,
                    to_s: 20.0,
                    kbps: 9000,
                },
            ],
            0,
        );
        assert_eq!(lg.current_kbps(5.0), 0);
        assert_eq!(lg.current_kbps(15.0), 9000);
        assert_eq!(lg.current_kbps(25.0), 0);
    }
}
