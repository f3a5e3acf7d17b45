//! The closed-loop HTTP client: issues requests continuously (the
//! paper's "clients continuously issue requests so as to measure the
//! maximum load the clustered server can handle").
//!
//! Each client runs one request at a time: connect → `GET /doc/<id>` →
//! read `LEN n` + n body bytes → record completion → next request.
//! Completions land in the `http_done` series and latencies in
//! `http_latency_ms`.

use super::server::HTTP_PORT;
use super::trace::Trace;
use netsim::digest::Fnv;
use netsim::packet::Packet;
use netsim::tcp::{TcpConfig, TcpEvents, TcpSocket};
use netsim::{App, NodeApi, SimTime};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

/// Per-request timeout before the client gives up and moves on.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
const TICK: Duration = Duration::from_millis(50);

/// A closed-loop request generator.
pub struct HttpClientApp {
    /// Where requests go (the virtual server address under a gateway,
    /// or a physical server directly).
    server: u32,
    trace: Rc<Trace>,
    tcp: TcpConfig,
    port_base: u16,
    port_next: u16,
    sock: Option<TcpSocket>,
    expected: Option<usize>,
    buf: Vec<u8>,
    sent_request: bool,
    started: SimTime,
    /// Completed requests (diagnostics; the series is authoritative).
    pub completed: u64,
    /// Requests abandoned on timeout or reset.
    pub failed: u64,
}

impl HttpClientApp {
    /// A client addressing `server`, drawing requests from the shared
    /// trace. `port_base` must be unique per client on a host.
    pub fn new(server: u32, trace: Rc<Trace>, port_base: u16) -> Self {
        HttpClientApp {
            server,
            trace,
            tcp: TcpConfig::default(),
            port_base,
            port_next: 0,
            sock: None,
            expected: None,
            buf: Vec::new(),
            sent_request: false,
            started: SimTime::ZERO,
            completed: 0,
            failed: 0,
        }
    }

    fn flush(api: &mut NodeApi<'_>, ev: TcpEvents) {
        for pkt in ev.to_send {
            api.send(pkt);
        }
    }

    fn start_request(&mut self, api: &mut NodeApi<'_>) {
        let port = self.port_base + self.port_next % 1000;
        self.port_next = self.port_next.wrapping_add(1);
        let (sock, syn) = TcpSocket::connect(
            self.tcp,
            (api.addr(), port),
            (self.server, HTTP_PORT),
            api.now(),
        );
        self.sock = Some(sock);
        self.expected = None;
        self.buf.clear();
        self.sent_request = false;
        self.started = api.now();
        api.send(syn);
    }

    fn finish(&mut self, api: &mut NodeApi<'_>, ok: bool) {
        if ok {
            self.completed += 1;
            let latency_ms = api.now().saturating_sub(self.started).as_secs_f64() * 1000.0;
            api.record("http_done", 1.0);
            api.record("http_latency_ms", latency_ms);
        } else {
            self.failed += 1;
        }
        self.sock = None;
        self.start_request(api);
    }

    /// Checks the receive buffer against the `LEN n` framing.
    fn response_complete(&mut self) -> bool {
        if self.expected.is_none() {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                if let Ok(head) = std::str::from_utf8(&self.buf[..pos]) {
                    if let Some(n) = head.strip_prefix("LEN ").and_then(|s| s.parse().ok()) {
                        self.expected = Some(n);
                        self.buf.drain(..pos + 1);
                    }
                }
            }
        }
        matches!(self.expected, Some(n) if self.buf.len() >= n)
    }
}

impl App for HttpClientApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Stagger start a little so clients do not synchronize.
        let jitter = Duration::from_micros(api.rand_below(20_000));
        api.set_timer(TICK + jitter, 0);
        self.start_request(api);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(hdr) = pkt.tcp_hdr().copied() else {
            return;
        };
        let current = self
            .sock
            .as_ref()
            .is_some_and(|s| (pkt.ip.src, hdr.sport) == s.remote && hdr.dport == s.local.1);
        if !current {
            // A segment for a connection we already finished with —
            // typically the server's FIN arriving just after the last
            // data byte. ACK it statelessly so the server's child is
            // released immediately instead of retrying until timeout.
            if hdr.has(netsim::packet::tcp_flags::FIN) {
                let ack_no = hdr
                    .seq
                    .wrapping_add(pkt.payload.len() as u32)
                    .wrapping_add(1);
                let reply = netsim::packet::TcpHdr {
                    sport: hdr.dport,
                    dport: hdr.sport,
                    seq: hdr.ack,
                    ack: ack_no,
                    flags: netsim::packet::tcp_flags::ACK,
                    wnd: 0,
                };
                api.send(Packet::tcp(
                    api.addr(),
                    pkt.ip.src,
                    reply,
                    bytes::Bytes::new(),
                ));
            }
            return;
        }
        let Some(sock) = self.sock.as_mut() else {
            return;
        };
        let now = api.now();
        let ev = sock.on_segment(&pkt, now);
        let established = ev.established;
        let peer_closed = ev.closed;
        let failed = ev.failed;
        let data = sock.take_received();
        self.buf.extend_from_slice(&data);
        Self::flush(api, ev);

        if failed {
            self.finish(api, false);
            return;
        }
        if established && !self.sent_request {
            self.sent_request = true;
            let doc = self.trace.next_request();
            let req = format!("GET /doc/{doc}\n").into_bytes();
            if let Some(sock) = self.sock.as_mut() {
                let ev = sock.send(&req, now);
                Self::flush(api, ev);
            }
            return;
        }
        if self.response_complete() {
            self.finish(api, true);
        } else if peer_closed {
            // Server closed before the framing completed: failure.
            self.finish(api, false);
        }
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let now = api.now();
        if let Some(sock) = self.sock.as_mut() {
            let ev = sock.on_tick(now);
            let failed = ev.failed;
            Self::flush(api, ev);
            if failed || now.saturating_sub(self.started) > REQUEST_TIMEOUT {
                self.finish(api, false);
            }
        }
        api.set_timer(TICK, 0);
    }

    fn digest(&self, h: &mut Fnv) {
        let _ = write!(h, "{} {:?} {:?} ", self.port_next, self.sock, self.expected);
        let _ = write!(
            h,
            "{:?} {} {:?} ",
            self.buf, self.sent_request, self.started
        );
        let _ = write!(h, "{} {} ", self.completed, self.failed);
        self.trace.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::trace::TraceSpec;

    #[test]
    fn framing_parser_handles_split_arrivals() {
        let trace = Trace::generate(&TraceSpec::default(), 1);
        let mut c = HttpClientApp::new(1, trace, 10_000);
        c.buf.extend_from_slice(b"LEN ");
        assert!(!c.response_complete());
        c.buf.extend_from_slice(b"5\nab");
        assert!(!c.response_complete());
        c.buf.extend_from_slice(b"cde");
        assert!(c.response_complete());
    }

    #[test]
    fn framing_rejects_garbage_header() {
        let trace = Trace::generate(&TraceSpec::default(), 1);
        let mut c = HttpClientApp::new(1, trace, 10_000);
        c.buf.extend_from_slice(b"HELLO\nxxxxx");
        assert!(!c.response_complete());
    }
}
