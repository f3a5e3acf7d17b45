//! The point-to-point MPEG applications: the unmodified video server
//! and the (lightly modified, as in the paper) video client.
//!
//! Video frames are single UDP datagrams:
//!
//! ```text
//! byte 0      file id
//! bytes 1..9  frame sequence number (8-byte big-endian)
//! bytes 9..   frame data (I/P/B sizes following the GOP pattern)
//! ```

use super::asp::{CAPTURE_CTL_PORT, MONITOR_QUERY_PORT, MPEG_CTL_PORT};
use bytes::{BufMut, Bytes, BytesMut};
use netsim::digest::Fnv;
use netsim::packet::{Packet, UdpHdr};
use netsim::tcp::{ConnKey, TcpConfig, TcpEvents, TcpSocket};
use netsim::{App, NodeApi, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

/// Frame interval (25 fps).
pub const FRAME_INTERVAL: Duration = Duration::from_millis(40);

/// GOP pattern frame sizes (I B B P B B).
pub const GOP_SIZES: [usize; 6] = [1300, 500, 500, 900, 500, 500];

/// Server-side statistics shared with the harness.
#[derive(Debug, Default, Clone)]
pub struct MpegServerStats {
    /// Video payload bytes sent.
    pub video_bytes: u64,
    /// Video frames sent.
    pub frames_sent: u64,
    /// Streams opened.
    pub streams: u64,
}

#[derive(Debug)]
struct StreamState {
    client: u32,
    port: u16,
    file: u8,
    seq: i64,
    until: SimTime,
}

/// The unmodified point-to-point MPEG server: TCP control on port 5555,
/// one UDP unicast stream per accepted `PLAY`.
pub struct MpegServerApp {
    stats: Rc<RefCell<MpegServerStats>>,
    conns: BTreeMap<ConnKey, (TcpSocket, Vec<u8>)>,
    streams: Vec<StreamState>,
    ticking: bool,
}

const TICK_KEY: u64 = u64::MAX;
const FRAME_KEY: u64 = u64::MAX - 1;

/// How long each stream runs.
const STREAM_LEN: Duration = Duration::from_secs(20);

impl MpegServerApp {
    /// A server whose streams each run for 20 s.
    pub fn new(stats: Rc<RefCell<MpegServerStats>>) -> Self {
        MpegServerApp {
            stats,
            conns: BTreeMap::new(),
            streams: Vec::new(),
            ticking: false,
        }
    }

    fn flush(api: &mut NodeApi<'_>, ev: TcpEvents) {
        for pkt in ev.to_send {
            api.send(pkt);
        }
    }

    /// Builds the video frame for sequence number `seq`.
    pub fn frame(file: u8, seq: i64) -> Bytes {
        let size = GOP_SIZES[(seq as usize) % GOP_SIZES.len()];
        let mut buf = BytesMut::with_capacity(9 + size);
        buf.put_u8(file);
        buf.put_i64(seq);
        buf.resize(9 + size, 0xAB);
        buf.freeze()
    }
}

impl App for MpegServerApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_millis(50), TICK_KEY);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(hdr) = pkt.tcp_hdr().copied() else {
            return;
        };
        if hdr.dport != MPEG_CTL_PORT {
            return;
        }
        let Some(key) = ConnKey::of(&pkt) else { return };
        let now = api.now();
        let is_syn =
            hdr.has(netsim::packet::tcp_flags::SYN) && !hdr.has(netsim::packet::tcp_flags::ACK);
        if is_syn && !self.conns.contains_key(&key) {
            if let Some((sock, synack)) =
                TcpSocket::accept(TcpConfig::default(), (api.addr(), MPEG_CTL_PORT), &pkt, now)
            {
                self.conns.insert(key, (sock, Vec::new()));
                api.send(synack);
            }
            return;
        }
        let Some((sock, buf)) = self.conns.get_mut(&key) else {
            return;
        };
        let ev = sock.on_segment(&pkt, now);
        buf.extend_from_slice(&sock.take_received());
        // Parse "PLAY <file> <port>\n".
        let request = std::str::from_utf8(buf).ok().and_then(|s| {
            let s = s.strip_prefix("PLAY ")?;
            let end = s.find('\n')?;
            let mut it = s[..end].split(' ');
            let file: u8 = it.next()?.parse().ok()?;
            let port: u16 = it.next()?.parse().ok()?;
            Some((file, port))
        });
        Self::flush(api, ev);
        if let Some((file, port)) = request {
            buf.clear();
            let setup = format!("setup-{file}");
            let resp = format!("OK {setup}\n");
            if let Some((sock, _)) = self.conns.get_mut(&key) {
                let ev = sock.send(resp.as_bytes(), now);
                Self::flush(api, ev);
                let ev = sock.close(now);
                Self::flush(api, ev);
            }
            self.streams.push(StreamState {
                client: pkt.ip.src,
                port,
                file,
                seq: 0,
                until: now + STREAM_LEN,
            });
            self.stats.borrow_mut().streams += 1;
            if !self.ticking {
                self.ticking = true;
                api.set_timer(FRAME_INTERVAL, FRAME_KEY);
            }
        }
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let now = api.now();
        if key == TICK_KEY {
            let mut outs = Vec::new();
            self.conns.retain(|_, (sock, _)| {
                let ev = sock.on_tick(now);
                let dead = ev.failed || sock.state == netsim::tcp::TcpState::Closed;
                outs.push(ev);
                !dead
            });
            for ev in outs {
                Self::flush(api, ev);
            }
            api.set_timer(Duration::from_millis(50), TICK_KEY);
            return;
        }
        // FRAME_KEY: emit the next frame of every active stream.
        let addr = api.addr();
        self.streams.retain(|s| s.until > now);
        for s in &mut self.streams {
            let payload = Self::frame(s.file, s.seq);
            s.seq += 1;
            let mut st = self.stats.borrow_mut();
            st.video_bytes += payload.len() as u64;
            st.frames_sent += 1;
            drop(st);
            let pkt = Packet {
                ip: netsim::packet::IpHdr::new(addr, s.client, netsim::packet::IpHdr::PROTO_UDP),
                transport: netsim::Transport::Udp(UdpHdr::new(MPEG_CTL_PORT, s.port)),
                payload,
                tag: None,
                id: 0,
                lineage: Default::default(),
            };
            api.send(pkt);
        }
        if self.streams.is_empty() {
            self.ticking = false;
        } else {
            api.set_timer(FRAME_INTERVAL, FRAME_KEY);
        }
    }

    fn digest(&self, h: &mut Fnv) {
        let _ = write!(h, "{:?}{:?}", self.conns, self.streams);
        let _ = write!(h, "{} {:?}", self.ticking, self.stats.borrow());
    }
}

/// Client-side statistics shared with the harness.
#[derive(Debug, Default, Clone)]
pub struct MpegClientStats {
    /// Distinct frames received.
    pub frames: u64,
    /// Video payload bytes received.
    pub bytes: u64,
    /// True if the client shared an existing stream (capture path).
    pub shared: bool,
    /// True if the client opened its own connection.
    pub direct: bool,
    /// The setup info the client ended up with.
    pub setup: String,
}

#[derive(Debug, PartialEq)]
enum ClientPhase {
    Idle,
    Querying,
    Connecting,
    Watching,
}

/// The video client, modified as in the paper: before connecting it
/// asks the monitor ASP whether the file is already being streamed to
/// the segment; if so it captures that stream instead of opening a new
/// connection.
pub struct MpegClientApp {
    stats: Rc<RefCell<MpegClientStats>>,
    server: u32,
    monitor: Option<u32>,
    file: u8,
    video_port: u16,
    start_at: Duration,
    phase: ClientPhase,
    ctl: Option<TcpSocket>,
    ctl_buf: Vec<u8>,
    query_sent: SimTime,
    watched_seq: i64,
}

const START_KEY: u64 = 1;
const QUERY_TIMEOUT_KEY: u64 = 2;
const CLIENT_TICK_KEY: u64 = 3;

impl MpegClientApp {
    /// A client that starts at `start_at`, asking `monitor` first when
    /// one is configured (the with-ASPs mode).
    pub fn new(
        stats: Rc<RefCell<MpegClientStats>>,
        server: u32,
        monitor: Option<u32>,
        file: u8,
        video_port: u16,
        start_at: Duration,
    ) -> Self {
        MpegClientApp {
            stats,
            server,
            monitor,
            file,
            video_port,
            start_at,
            phase: ClientPhase::Idle,
            ctl: None,
            ctl_buf: Vec::new(),
            query_sent: SimTime::ZERO,
            watched_seq: -1,
        }
    }

    fn flush(api: &mut NodeApi<'_>, ev: TcpEvents) {
        for pkt in ev.to_send {
            api.send(pkt);
        }
    }

    fn connect_direct(&mut self, api: &mut NodeApi<'_>) {
        self.phase = ClientPhase::Connecting;
        let (sock, syn) = TcpSocket::connect(
            TcpConfig::default(),
            (api.addr(), 20_000 + self.video_port),
            (self.server, MPEG_CTL_PORT),
            api.now(),
        );
        self.ctl = Some(sock);
        api.send(syn);
        self.stats.borrow_mut().direct = true;
    }
}

impl App for MpegClientApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(self.start_at, START_KEY);
        api.set_timer(Duration::from_millis(50), CLIENT_TICK_KEY);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let now = api.now();
        // Monitor reply? (UDP from the query port, 14+ byte payload).
        if self.phase == ClientPhase::Querying {
            if let Some(u) = pkt.udp_hdr() {
                if u.sport == MONITOR_QUERY_PORT && pkt.payload.len() >= 14 {
                    let host = u32::from_be_bytes(pkt.payload[0..4].try_into().expect("len"));
                    let port =
                        i64::from_be_bytes(pkt.payload[4..12].try_into().expect("len")) as u16;
                    let slen =
                        u16::from_be_bytes(pkt.payload[12..14].try_into().expect("len")) as usize;
                    let setup = String::from_utf8_lossy(
                        &pkt.payload[14..14 + slen.min(pkt.payload.len() - 14)],
                    )
                    .into_owned();
                    if host == 0 {
                        self.connect_direct(api);
                    } else {
                        // Share the existing stream: configure the local
                        // capture ASP, then just watch.
                        let mut cap = BytesMut::with_capacity(12);
                        cap.put_u32(host);
                        cap.put_i64(port as i64);
                        let me = api.addr();
                        api.send(Packet::udp(
                            me,
                            me,
                            CAPTURE_CTL_PORT,
                            CAPTURE_CTL_PORT,
                            cap.freeze(),
                        ));
                        let mut st = self.stats.borrow_mut();
                        st.shared = true;
                        st.setup = setup;
                        drop(st);
                        self.phase = ClientPhase::Watching;
                    }
                    return;
                }
            }
        }
        // Control connection traffic.
        if self.phase == ClientPhase::Connecting {
            if let Some(hdr) = pkt.tcp_hdr().copied() {
                if let Some(sock) = self.ctl.as_mut() {
                    if (pkt.ip.src, hdr.sport) == sock.remote && hdr.dport == sock.local.1 {
                        let ev = sock.on_segment(&pkt, now);
                        let established = ev.established;
                        self.ctl_buf.extend_from_slice(&sock.take_received());
                        Self::flush(api, ev);
                        if established {
                            let req = format!("PLAY {} {}\n", self.file, self.video_port);
                            if let Some(sock) = self.ctl.as_mut() {
                                let ev = sock.send(req.as_bytes(), now);
                                Self::flush(api, ev);
                            }
                        }
                        if let Some(pos) = self.ctl_buf.iter().position(|&b| b == b'\n') {
                            let line = String::from_utf8_lossy(&self.ctl_buf[..pos]).into_owned();
                            if let Some(setup) = line.strip_prefix("OK ") {
                                self.stats.borrow_mut().setup = setup.to_string();
                                self.phase = ClientPhase::Watching;
                            }
                        }
                        return;
                    }
                }
            }
        }
        // Video frames (direct or captured): identified by the file id.
        if let Some(_u) = pkt.udp_hdr() {
            if pkt.payload.len() >= 9
                && pkt.payload[0] == self.file
                && self.phase == ClientPhase::Watching
            {
                let seq = i64::from_be_bytes(pkt.payload[1..9].try_into().expect("len"));
                if seq > self.watched_seq {
                    self.watched_seq = seq;
                    let mut st = self.stats.borrow_mut();
                    st.frames += 1;
                    st.bytes += pkt.payload.len() as u64;
                }
            }
        }
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let now = api.now();
        match key {
            START_KEY => match self.monitor {
                Some(mon) => {
                    self.phase = ClientPhase::Querying;
                    self.query_sent = now;
                    let q = format!("Q {}\n", self.file);
                    api.send(Packet::udp(
                        api.addr(),
                        mon,
                        MONITOR_QUERY_PORT,
                        MONITOR_QUERY_PORT,
                        Bytes::from(q.into_bytes()),
                    ));
                    api.set_timer(Duration::from_millis(300), QUERY_TIMEOUT_KEY);
                }
                None => self.connect_direct(api),
            },
            QUERY_TIMEOUT_KEY if self.phase == ClientPhase::Querying => {
                // No monitor answer: fall back to a direct connection.
                self.connect_direct(api);
            }
            CLIENT_TICK_KEY => {
                if let Some(sock) = self.ctl.as_mut() {
                    let ev = sock.on_tick(now);
                    Self::flush(api, ev);
                }
                api.set_timer(Duration::from_millis(50), CLIENT_TICK_KEY);
            }
            _ => {}
        }
    }

    fn digest(&self, h: &mut Fnv) {
        let _ = write!(h, "{:?} {:?} {:?} ", self.phase, self.ctl, self.ctl_buf);
        let _ = write!(h, "{:?} {} ", self.query_sent, self.watched_seq);
        let _ = write!(h, "{:?}", self.stats.borrow());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_and_gop_sizes() {
        let f = MpegServerApp::frame(3, 0);
        assert_eq!(f[0], 3);
        assert_eq!(i64::from_be_bytes(f[1..9].try_into().unwrap()), 0);
        assert_eq!(f.len(), 9 + 1300); // I frame
        let b = MpegServerApp::frame(3, 1);
        assert_eq!(b.len(), 9 + 500); // B frame
        let p = MpegServerApp::frame(3, 3);
        assert_eq!(p.len(), 9 + 900); // P frame
    }

    #[test]
    fn gop_bitrate_is_paper_scale() {
        // Mean frame ≈ 700 B at 25 fps ≈ 140 kb/s — a plausible 1998
        // MPEG-1 rate for a LAN demo.
        let mean: usize = GOP_SIZES.iter().sum::<usize>() / GOP_SIZES.len();
        let kbps = mean * 25 * 8 / 1000;
        assert!((100..300).contains(&kbps), "{kbps} kb/s");
    }
}
