//! The Apache-like HTTP server model.
//!
//! The paper runs Apache 1.2.6 with 5–10 child processes; the model is a
//! finite-capacity queueing station: at most `CHILDREN` requests are in
//! service, each holding a child for `BASE + size/BYTE_RATE` before the
//! response bytes go out over mini-TCP. Requests beyond the child limit
//! queue (the listen backlog).
//!
//! Protocol (HTTP/1.0-like, one request per connection):
//!
//! ```text
//! client → server   GET /doc/<id>\n
//! server → client   LEN <bytes>\n  followed by <bytes> body bytes, then FIN
//! ```

use super::trace::Trace;
use netsim::digest::Fnv;
use netsim::packet::Packet;
use netsim::rng::Seedless;
use netsim::tcp::{ConnKey, TcpConfig, TcpEvents, TcpSocket};
use netsim::{App, NodeApi};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

/// Concurrent children: the paper runs Apache with 5–10 processes. With
/// [`BASE`], [`BYTE_RATE`] and the trace's document sizes it sets one
/// server's capacity, the Fig. 8 single-server curve (EXPERIMENTS.md
/// §3.2).
const CHILDREN: usize = 6;
/// Fixed per-request service time, the larger part of a request's cost
/// in that calibration.
const BASE: Duration = Duration::from_millis(40);
/// Additional service time per response byte (disk/CPU), bytes/sec: a
/// large document holds a child longer.
const BYTE_RATE: f64 = 1_000_000.0;

/// The server's listening port.
pub const HTTP_PORT: u16 = 80;

#[derive(Debug, PartialEq)]
enum ConnState {
    /// Waiting for the request line.
    Receiving,
    /// Parsed; waiting for a free child.
    Queued(u32),
    /// A child is working on it.
    Serving,
    /// Response handed to TCP; draining.
    Sending,
}

struct Conn {
    sock: TcpSocket,
    state: ConnState,
    buf: Vec<u8>,
}

/// The HTTP server application.
pub struct HttpServerApp {
    trace: Rc<Trace>,
    /// Ordered: the retransmission tick sweeps it, and the order in
    /// which that flushes segments must not depend on the hasher.
    conns: BTreeMap<ConnKey, Conn>,
    backlog: VecDeque<ConnKey>,
    active: usize,
    next_token: u64,
    #[allow(clippy::disallowed_types)] // lookup-only: `insert`/`remove`, never iterated
    tokens: std::collections::HashMap<u64, ConnKey, Seedless>,
    /// Requests fully served (diagnostics).
    pub served: u64,
}

/// Timer key for the periodic TCP tick.
const TICK_KEY: u64 = u64::MAX;
const TICK: Duration = Duration::from_millis(50);

impl HttpServerApp {
    /// A server using `trace` for document sizes.
    pub fn new(trace: Rc<Trace>) -> Self {
        HttpServerApp {
            trace,
            conns: BTreeMap::new(),
            backlog: VecDeque::new(),
            active: 0,
            next_token: 0,
            tokens: Default::default(),
            served: 0,
        }
    }

    fn flush(api: &mut NodeApi<'_>, ev: TcpEvents) {
        for pkt in ev.to_send {
            api.send(pkt);
        }
    }

    /// Starts queued requests while children are free.
    fn schedule(&mut self, api: &mut NodeApi<'_>) {
        while self.active < CHILDREN {
            let Some(key) = self.backlog.pop_front() else {
                break;
            };
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            let ConnState::Queued(doc) = conn.state else {
                continue;
            };
            conn.state = ConnState::Serving;
            self.active += 1;
            let size = self.trace.doc_size(doc);
            let service = BASE + Duration::from_secs_f64(size as f64 / BYTE_RATE);
            let token = self.next_token;
            self.next_token += 1;
            self.tokens.insert(token, key);
            api.set_timer(service, token);
        }
    }

    fn parse_request(buf: &[u8]) -> Option<u32> {
        let line = std::str::from_utf8(buf).ok()?;
        let line = line.strip_prefix("GET /doc/")?;
        let end = line.find('\n')?;
        line[..end].trim().parse().ok()
    }
}

impl App for HttpServerApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(TICK, TICK_KEY);
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(hdr) = pkt.tcp_hdr() else { return };
        if hdr.dport != HTTP_PORT {
            return;
        }
        let Some(key) = ConnKey::of(&pkt) else { return };
        let now = api.now();

        // New (or replacing a dead) connection on SYN.
        let is_syn =
            hdr.has(netsim::packet::tcp_flags::SYN) && !hdr.has(netsim::packet::tcp_flags::ACK);
        if is_syn {
            let fresh = !self.conns.contains_key(&key)
                || matches!(self.conns[&key].sock.state, netsim::tcp::TcpState::Closed);
            if fresh {
                if let Some((sock, synack)) =
                    TcpSocket::accept(TcpConfig::default(), (api.addr(), HTTP_PORT), &pkt, now)
                {
                    self.conns.insert(
                        key,
                        Conn {
                            sock,
                            state: ConnState::Receiving,
                            buf: Vec::new(),
                        },
                    );
                    api.send(synack);
                }
                return;
            }
        }

        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let ev = conn.sock.on_segment(&pkt, now);
        let finished_sending =
            conn.state == ConnState::Sending && conn.sock.state == netsim::tcp::TcpState::Closed;
        let data = conn.sock.take_received();
        conn.buf.extend_from_slice(&data);
        if conn.state == ConnState::Receiving {
            if let Some(doc) = Self::parse_request(&conn.buf) {
                conn.state = ConnState::Queued(doc);
                self.backlog.push_back(key);
            }
        }
        Self::flush(api, ev);
        if finished_sending {
            self.conns.remove(&key);
            self.active -= 1;
            self.served += 1;
            let name = format!("served_{}", netsim::packet::addr_to_string(api.addr()));
            api.record(&name, 1.0);
        }
        self.schedule(api);
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        if key == TICK_KEY {
            // Retransmission ticks + garbage collection.
            let now = api.now();
            let mut dead = Vec::new();
            let mut outs = Vec::new();
            for (k, conn) in self.conns.iter_mut() {
                let ev = conn.sock.on_tick(now);
                if ev.failed {
                    dead.push(*k);
                }
                outs.push(ev);
            }
            for ev in outs {
                Self::flush(api, ev);
            }
            for k in dead {
                if let Some(conn) = self.conns.remove(&k) {
                    if matches!(conn.state, ConnState::Serving | ConnState::Sending) {
                        self.active -= 1;
                    }
                }
            }
            self.schedule(api);
            api.set_timer(TICK, TICK_KEY);
            return;
        }
        // A child finished preparing a response.
        let Some(conn_key) = self.tokens.remove(&key) else {
            return;
        };
        let now = api.now();
        let Some(conn) = self.conns.get_mut(&conn_key) else {
            self.active -= 1;
            return;
        };
        let ConnState::Serving = conn.state else {
            return;
        };
        let doc = Self::parse_request(&conn.buf).unwrap_or(0);
        let size = self.trace.doc_size(doc);
        let mut resp = format!("LEN {size}\n").into_bytes();
        resp.resize(resp.len() + size, b'x');
        conn.state = ConnState::Sending;
        let ev = conn.sock.send(&resp, now);
        Self::flush(api, ev);
        let ev = conn.sock.close(now);
        Self::flush(api, ev);
    }

    fn digest(&self, h: &mut Fnv) {
        for (key, conn) in &self.conns {
            let _ = write!(
                h,
                "{key:?} {:?} {:?} {:?} ",
                conn.sock, conn.state, conn.buf
            );
        }
        let mut tokens: Vec<_> = self.tokens.iter().collect();
        tokens.sort_unstable();
        let _ = write!(h, "{:?} {} {} ", self.backlog, self.active, self.next_token);
        let _ = write!(h, "{tokens:?} {} ", self.served);
        self.trace.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_lines() {
        assert_eq!(HttpServerApp::parse_request(b"GET /doc/42\n"), Some(42));
        assert_eq!(HttpServerApp::parse_request(b"GET /doc/7\nextra"), Some(7));
        assert_eq!(HttpServerApp::parse_request(b"GET /doc/42"), None); // incomplete
        assert_eq!(HttpServerApp::parse_request(b"POST /x\n"), None);
        assert_eq!(HttpServerApp::parse_request(b"GET /doc/abc\n"), None);
    }
}
