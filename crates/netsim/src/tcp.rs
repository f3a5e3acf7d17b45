//! Mini-TCP: a small reliable-stream implementation sufficient for the
//! HTTP cluster experiment (section 3.2).
//!
//! Supported: three-way handshake, byte sequence numbers, cumulative
//! ACKs, a fixed-size sliding window, timeout retransmission, and a
//! simplified FIN teardown (no TIME_WAIT, no simultaneous close, no
//! congestion control — the paper predates widespread NewReno anyway).
//!
//! A [`TcpSocket`] is a pure state machine: the owning application feeds
//! it arriving segments and clock ticks, and transmits whatever packets
//! it returns. This keeps the simulator core transport-agnostic.

use crate::packet::{tcp_flags, Packet, TcpHdr};
use crate::time::SimTime;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::time::Duration;

/// Tunables.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: usize,
    /// Window size in segments.
    pub window_segs: u32,
    /// Retransmission timeout.
    pub rto: Duration,
    /// Give up after this many consecutive retransmissions.
    pub max_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            window_segs: 8,
            rto: Duration::from_millis(200),
            max_retries: 8,
        }
    }
}

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN+ACK (active open).
    SynSent,
    /// SYN received, SYN+ACK sent (passive open).
    SynRcvd,
    /// Data may flow.
    Established,
    /// FIN sent, awaiting its ACK.
    FinSent,
    /// Fully closed (or aborted).
    Closed,
}

/// What happened as a result of feeding the socket input.
#[derive(Debug, Default)]
pub struct TcpEvents {
    /// Segments to transmit now.
    pub to_send: Vec<Packet>,
    /// The connection just became established.
    pub established: bool,
    /// The peer closed (all its data received) or the connection died.
    pub closed: bool,
    /// The connection was aborted by retransmission exhaustion.
    pub failed: bool,
}

/// One endpoint of a mini-TCP connection.
#[derive(Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    /// Local address/port.
    pub local: (u32, u16),
    /// Remote address/port.
    pub remote: (u32, u16),
    /// Current state.
    pub state: TcpState,
    // Sender.
    snd_una: u32,
    snd_next: u32,
    unacked: BTreeMap<u32, Bytes>,
    pending: Vec<u8>,
    last_activity: SimTime,
    retries: u32,
    fin_queued: bool,
    fin_seq: Option<u32>,
    // Receiver.
    rcv_next: u32,
    reorder: BTreeMap<u32, Bytes>,
    received: Vec<u8>,
    peer_fin: bool,
}

impl TcpSocket {
    /// Actively opens a connection; returns the socket and the SYN.
    pub fn connect(
        cfg: TcpConfig,
        local: (u32, u16),
        remote: (u32, u16),
        now: SimTime,
    ) -> (TcpSocket, Packet) {
        let isn = 1; // deterministic ISN; fine for a simulator
        let mut sock = TcpSocket::new(cfg, local, remote, now);
        sock.state = TcpState::SynSent;
        sock.snd_una = isn;
        sock.snd_next = isn + 1;
        let syn = sock.segment(isn, 0, tcp_flags::SYN, Bytes::new());
        (sock, syn)
    }

    /// Passively opens in response to an arriving SYN; returns the socket
    /// and the SYN+ACK.
    pub fn accept(
        cfg: TcpConfig,
        local: (u32, u16),
        syn: &Packet,
        now: SimTime,
    ) -> Option<(TcpSocket, Packet)> {
        let hdr = syn.tcp_hdr()?;
        if !hdr.has(tcp_flags::SYN) || hdr.has(tcp_flags::ACK) {
            return None;
        }
        let remote = (syn.ip.src, hdr.sport);
        let isn = 1;
        let mut sock = TcpSocket::new(cfg, local, remote, now);
        sock.state = TcpState::SynRcvd;
        sock.rcv_next = hdr.seq.wrapping_add(1);
        sock.snd_una = isn;
        sock.snd_next = isn + 1;
        let synack = sock.segment(
            isn,
            sock.rcv_next,
            tcp_flags::SYN | tcp_flags::ACK,
            Bytes::new(),
        );
        Some((sock, synack))
    }

    fn new(cfg: TcpConfig, local: (u32, u16), remote: (u32, u16), now: SimTime) -> Self {
        TcpSocket {
            cfg,
            local,
            remote,
            state: TcpState::Closed,
            snd_una: 0,
            snd_next: 0,
            unacked: BTreeMap::new(),
            pending: Vec::new(),
            last_activity: now,
            retries: 0,
            fin_queued: false,
            fin_seq: None,
            rcv_next: 0,
            reorder: BTreeMap::new(),
            received: Vec::new(),
            peer_fin: false,
        }
    }

    fn segment(&self, seq: u32, ack: u32, flags: u8, payload: Bytes) -> Packet {
        let hdr = TcpHdr {
            sport: self.local.1,
            dport: self.remote.1,
            seq,
            ack,
            flags,
            wnd: self.cfg.window_segs as u16,
        };
        Packet::tcp(self.local.0, self.remote.0, hdr, payload)
    }

    /// Queues application data for transmission.
    pub fn send(&mut self, data: &[u8], now: SimTime) -> TcpEvents {
        self.pending.extend_from_slice(data);
        let mut ev = TcpEvents::default();
        self.pump(now, &mut ev);
        ev
    }

    /// Initiates close: a FIN follows the queued data.
    pub fn close(&mut self, now: SimTime) -> TcpEvents {
        self.fin_queued = true;
        let mut ev = TcpEvents::default();
        self.pump(now, &mut ev);
        ev
    }

    /// Bytes received in order so far (drains the buffer).
    pub fn take_received(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.received)
    }

    /// True if the peer has closed and all its data was consumed.
    pub fn peer_closed(&self) -> bool {
        self.peer_fin && self.reorder.is_empty()
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn in_flight(&self) -> usize {
        self.unacked.values().map(Bytes::len).sum()
    }

    /// Feeds an arriving segment addressed to this socket.
    pub fn on_segment(&mut self, pkt: &Packet, now: SimTime) -> TcpEvents {
        let mut ev = TcpEvents::default();
        let Some(hdr) = pkt.tcp_hdr().copied() else {
            return ev;
        };
        self.last_activity = now;
        self.retries = 0;

        if hdr.has(tcp_flags::RST) {
            self.state = TcpState::Closed;
            ev.closed = true;
            ev.failed = true;
            return ev;
        }

        match self.state {
            TcpState::SynSent => {
                if hdr.has(tcp_flags::SYN) && hdr.has(tcp_flags::ACK) {
                    self.rcv_next = hdr.seq.wrapping_add(1);
                    self.snd_una = hdr.ack;
                    self.state = TcpState::Established;
                    ev.established = true;
                    ev.to_send.push(self.segment(
                        self.snd_next,
                        self.rcv_next,
                        tcp_flags::ACK,
                        Bytes::new(),
                    ));
                    self.pump(now, &mut ev);
                }
            }
            TcpState::SynRcvd => {
                if hdr.has(tcp_flags::ACK) && hdr.ack >= self.snd_una {
                    self.snd_una = hdr.ack;
                    self.state = TcpState::Established;
                    ev.established = true;
                    // The ACK may carry data already.
                    self.ingest_data(&hdr, pkt, &mut ev);
                    self.pump(now, &mut ev);
                }
            }
            TcpState::Established | TcpState::FinSent => {
                if hdr.has(tcp_flags::ACK) {
                    let ack = hdr.ack;
                    if seq_ge(ack, self.snd_una) {
                        self.snd_una = ack;
                        self.unacked.retain(|&seq, data| {
                            seq_ge(seq.wrapping_add(data.len() as u32), ack.wrapping_add(1))
                        });
                        if let Some(fin_seq) = self.fin_seq {
                            if seq_ge(ack, fin_seq.wrapping_add(1))
                                && self.state == TcpState::FinSent
                            {
                                self.state = TcpState::Closed;
                                ev.closed = true;
                            }
                        }
                    }
                }
                self.ingest_data(&hdr, pkt, &mut ev);
                if self.state != TcpState::Closed {
                    self.pump(now, &mut ev);
                }
            }
            TcpState::Closed => {}
        }
        ev
    }

    fn ingest_data(&mut self, hdr: &TcpHdr, pkt: &Packet, ev: &mut TcpEvents) {
        let mut advanced = false;
        if !pkt.payload.is_empty() {
            if hdr.seq == self.rcv_next {
                self.received.extend_from_slice(&pkt.payload);
                self.rcv_next = self.rcv_next.wrapping_add(pkt.payload.len() as u32);
                advanced = true;
                // Drain the reorder buffer.
                while let Some((&seq, _)) = self.reorder.first_key_value() {
                    if seq != self.rcv_next {
                        break;
                    }
                    let (_, data) = self.reorder.pop_first().expect("non-empty");
                    self.rcv_next = self.rcv_next.wrapping_add(data.len() as u32);
                    self.received.extend_from_slice(&data);
                }
            } else if seq_ge(hdr.seq, self.rcv_next) {
                self.reorder.insert(hdr.seq, pkt.payload.clone());
            }
            // Duplicate (< rcv_next): just re-ACK below.
        }
        if hdr.has(tcp_flags::FIN)
            && (hdr.seq == self.rcv_next
                || (advanced && hdr.seq.wrapping_add(pkt.payload.len() as u32) == self.rcv_next))
        {
            // In-order FIN (possibly after its own payload); it
            // occupies one sequence number.
            self.rcv_next = self.rcv_next.wrapping_add(1);
            self.peer_fin = true;
            ev.closed = true;
        }
        if !pkt.payload.is_empty() || hdr.has(tcp_flags::FIN) {
            ev.to_send.push(self.segment(
                self.snd_next,
                self.rcv_next,
                tcp_flags::ACK,
                Bytes::new(),
            ));
        }
    }

    /// Transmits pending data while the window allows.
    fn pump(&mut self, now: SimTime, ev: &mut TcpEvents) {
        if !matches!(self.state, TcpState::Established | TcpState::FinSent) {
            return;
        }
        let window_bytes = self.cfg.window_segs as usize * self.cfg.mss;
        while !self.pending.is_empty() && self.in_flight() < window_bytes {
            let take = self.pending.len().min(self.cfg.mss);
            let chunk: Bytes = self.pending.drain(..take).collect::<Vec<u8>>().into();
            let seq = self.snd_next;
            self.snd_next = self.snd_next.wrapping_add(chunk.len() as u32);
            self.unacked.insert(seq, chunk.clone());
            let mut seg = self.segment(seq, self.rcv_next, tcp_flags::ACK | tcp_flags::PSH, chunk);
            if let Some(h) = match &mut seg.transport {
                crate::packet::Transport::Tcp(h) => Some(h),
                _ => None,
            } {
                h.ack = self.rcv_next;
            }
            ev.to_send.push(seg);
            self.last_activity = now;
        }
        if self.fin_queued
            && self.pending.is_empty()
            && self.unacked.is_empty()
            && self.state == TcpState::Established
        {
            let seq = self.snd_next;
            self.fin_seq = Some(seq);
            self.snd_next = self.snd_next.wrapping_add(1);
            self.state = TcpState::FinSent;
            ev.to_send.push(self.segment(
                seq,
                self.rcv_next,
                tcp_flags::FIN | tcp_flags::ACK,
                Bytes::new(),
            ));
            self.last_activity = now;
        }
    }

    /// Clock tick: retransmits on timeout. Call at least every `rto / 2`.
    pub fn on_tick(&mut self, now: SimTime) -> TcpEvents {
        let mut ev = TcpEvents::default();
        if self.state == TcpState::Closed {
            return ev;
        }
        if now.saturating_sub(self.last_activity) < self.cfg.rto {
            return ev;
        }
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.state = TcpState::Closed;
            ev.closed = true;
            ev.failed = true;
            return ev;
        }
        self.last_activity = now;
        match self.state {
            TcpState::SynSent => {
                ev.to_send
                    .push(self.segment(self.snd_una, 0, tcp_flags::SYN, Bytes::new()));
            }
            TcpState::SynRcvd => {
                ev.to_send.push(self.segment(
                    self.snd_una,
                    self.rcv_next,
                    tcp_flags::SYN | tcp_flags::ACK,
                    Bytes::new(),
                ));
            }
            TcpState::Established | TcpState::FinSent => {
                if let Some((&seq, data)) = self.unacked.first_key_value() {
                    ev.to_send.push(self.segment(
                        seq,
                        self.rcv_next,
                        tcp_flags::ACK | tcp_flags::PSH,
                        data.clone(),
                    ));
                } else if let Some(fin_seq) = self.fin_seq {
                    if self.state == TcpState::FinSent {
                        ev.to_send.push(self.segment(
                            fin_seq,
                            self.rcv_next,
                            tcp_flags::FIN | tcp_flags::ACK,
                            Bytes::new(),
                        ));
                    }
                }
            }
            TcpState::Closed => {}
        }
        ev
    }
}

/// Sequence comparison tolerant of wraparound (a >= b).
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) < 0x8000_0000
}

/// Demultiplexing key for a connection table. Ordered, so a table that
/// is swept (retransmission ticks) can be a `BTreeMap` and the sweep
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    /// Remote address.
    pub raddr: u32,
    /// Remote port.
    pub rport: u16,
    /// Local port.
    pub lport: u16,
}

impl ConnKey {
    /// Builds the key for an arriving packet.
    pub fn of(pkt: &Packet) -> Option<ConnKey> {
        let h = pkt.tcp_hdr()?;
        Some(ConnKey {
            raddr: pkt.ip.src,
            rport: h.sport,
            lport: h.dport,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttles packets between two sockets through a lossy in-memory
    /// "wire", returning when both sides are idle.
    fn shuttle(
        a: &mut TcpSocket,
        b: &mut TcpSocket,
        first: Vec<Packet>,
        drop_nth: Option<usize>,
        now: &mut SimTime,
    ) {
        let mut inflight: Vec<(bool, Packet)> = first.into_iter().map(|p| (true, p)).collect();
        let mut count = 0usize;
        let mut steps = 0;
        while steps < 10_000 {
            steps += 1;
            if let Some((to_b, pkt)) = inflight.first().cloned() {
                inflight.remove(0);
                count += 1;
                if Some(count) == drop_nth {
                    continue; // lost on the wire
                }
                let ev = if to_b {
                    b.on_segment(&pkt, *now)
                } else {
                    a.on_segment(&pkt, *now)
                };
                inflight.extend(ev.to_send.into_iter().map(|p| (!to_b, p)));
            } else {
                // Idle: advance time and tick both (retransmissions).
                *now += Duration::from_millis(250);
                let ea = a.on_tick(*now);
                let eb = b.on_tick(*now);
                if ea.to_send.is_empty() && eb.to_send.is_empty() {
                    return;
                }
                inflight.extend(ea.to_send.into_iter().map(|p| (true, p)));
                inflight.extend(eb.to_send.into_iter().map(|p| (false, p)));
            }
        }
        panic!("shuttle did not settle");
    }

    /// Builds an established connection pair by running the handshake.
    fn pair(now: SimTime) -> (TcpSocket, TcpSocket) {
        let cfg = TcpConfig::default();
        let (mut client, syn) = TcpSocket::connect(cfg, (1, 5000), (2, 80), now);
        let (mut server, synack) = TcpSocket::accept(cfg, (2, 80), &syn, now).unwrap();
        let ev = client.on_segment(&synack, now);
        assert!(ev.established);
        let ev2 = server.on_segment(&ev.to_send[0], now);
        assert!(ev2.established);
        assert_eq!(client.state, TcpState::Established);
        assert_eq!(server.state, TcpState::Established);
        (client, server)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let mut now = SimTime::ZERO;
        let cfg = TcpConfig::default();
        let (mut client, syn) = TcpSocket::connect(cfg, (1, 5000), (2, 80), now);
        let (mut server, synack) = TcpSocket::accept(cfg, (2, 80), &syn, now).unwrap();
        let ev = client.on_segment(&synack, now);
        assert!(ev.established);
        assert_eq!(client.state, TcpState::Established);
        let ack = &ev.to_send[0];
        let ev2 = server.on_segment(ack, now);
        assert!(ev2.established);
        assert_eq!(server.state, TcpState::Established);
        shuttle(&mut client, &mut server, vec![], None, &mut now);
    }

    #[test]
    fn data_transfer_in_order() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = pair(now);
        let payload = vec![7u8; 5000]; // several segments
        let ev = c.send(&payload, now);
        shuttle(&mut c, &mut s, ev.to_send, None, &mut now);
        assert_eq!(s.take_received(), payload);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn lost_segment_retransmitted() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = pair(now);
        let payload: Vec<u8> = (0..6000u32).map(|i| i as u8).collect();
        let ev = c.send(&payload, now);
        // Drop the 2nd packet on the wire; retransmission must recover.
        shuttle(&mut c, &mut s, ev.to_send, Some(2), &mut now);
        assert_eq!(s.take_received(), payload);
    }

    #[test]
    fn bidirectional_transfer() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = pair(now);
        let req = b"GET /index.html".to_vec();
        let ev = c.send(&req, now);
        shuttle(&mut c, &mut s, ev.to_send, None, &mut now);
        assert_eq!(s.take_received(), req);
        let resp = vec![9u8; 10_000];
        let ev = s.send(&resp, now);
        // server → client direction: flip roles in the shuttle.
        shuttle(&mut s, &mut c, ev.to_send, None, &mut now);
        assert_eq!(c.take_received(), resp);
    }

    #[test]
    fn close_handshake() {
        let mut now = SimTime::ZERO;
        let (mut c, mut s) = pair(now);
        let ev = c.send(b"bye", now);
        shuttle(&mut c, &mut s, ev.to_send, None, &mut now);
        let ev = c.close(now);
        assert_eq!(c.state, TcpState::FinSent);
        shuttle(&mut c, &mut s, ev.to_send, None, &mut now);
        assert_eq!(c.state, TcpState::Closed);
        assert!(s.peer_closed());
    }

    #[test]
    fn window_limits_in_flight_bytes() {
        let now = SimTime::ZERO;
        let cfg = TcpConfig {
            window_segs: 2,
            mss: 100,
            ..TcpConfig::default()
        };
        let (mut c, syn) = TcpSocket::connect(cfg, (1, 5000), (2, 80), now);
        let (_s, synack) = TcpSocket::accept(cfg, (2, 80), &syn, now).unwrap();
        c.on_segment(&synack, now);
        let ev = c.send(&vec![0u8; 1000], now);
        // Only window_segs * mss = 200 bytes may be in flight.
        let sent: usize = ev.to_send.iter().map(|p| p.payload.len()).sum();
        assert_eq!(sent, 200);
        assert_eq!(c.in_flight(), 200);
    }

    #[test]
    fn retry_exhaustion_fails_connection() {
        let mut now = SimTime::ZERO;
        let cfg = TcpConfig {
            max_retries: 2,
            ..TcpConfig::default()
        };
        let (mut c, _syn) = TcpSocket::connect(cfg, (1, 5000), (2, 80), now);
        // Nobody answers; tick past the RTO repeatedly.
        let mut failed = false;
        for _ in 0..10 {
            now += Duration::from_millis(300);
            let ev = c.on_tick(now);
            if ev.failed {
                failed = true;
                break;
            }
        }
        assert!(failed);
        assert_eq!(c.state, TcpState::Closed);
    }

    #[test]
    fn conn_key_from_packet() {
        let pkt = Packet::tcp(9, 2, TcpHdr::data(5000, 80, 1), Bytes::new());
        let k = ConnKey::of(&pkt).unwrap();
        assert_eq!(
            k,
            ConnKey {
                raddr: 9,
                rport: 5000,
                lport: 80
            }
        );
    }

    /// Like [`shuttle`], but every in-flight segment is independently
    /// lost with probability `loss` and duplicated with probability
    /// `dup`, driven by a seeded [`SplitMix64`] — the same impairment
    /// model the fault injector applies to simulator links.
    fn shuttle_chaos(
        a: &mut TcpSocket,
        b: &mut TcpSocket,
        first: Vec<Packet>,
        loss: f64,
        dup: f64,
        seed: u64,
        now: &mut SimTime,
    ) {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut inflight: Vec<(bool, Packet)> = first.into_iter().map(|p| (true, p)).collect();
        let mut steps = 0;
        while steps < 100_000 {
            steps += 1;
            if let Some((to_b, pkt)) = inflight.first().cloned() {
                inflight.remove(0);
                if rng.next_f64() < loss {
                    continue; // lost on the wire
                }
                if rng.next_f64() < dup {
                    inflight.push((to_b, pkt.clone())); // delivered twice
                }
                let ev = if to_b {
                    b.on_segment(&pkt, *now)
                } else {
                    a.on_segment(&pkt, *now)
                };
                inflight.extend(ev.to_send.into_iter().map(|p| (!to_b, p)));
            } else {
                *now += Duration::from_millis(250);
                let ea = a.on_tick(*now);
                let eb = b.on_tick(*now);
                if ea.to_send.is_empty() && eb.to_send.is_empty() {
                    return;
                }
                inflight.extend(ea.to_send.into_iter().map(|p| (true, p)));
                inflight.extend(eb.to_send.into_iter().map(|p| (false, p)));
            }
        }
        panic!("chaotic shuttle did not settle");
    }

    /// Property: across many seeds, reassembly delivers the exact byte
    /// stream despite 10% random segment loss in both directions.
    #[test]
    fn reassembly_survives_random_loss() {
        for seed in 0..24u64 {
            let mut now = SimTime::ZERO;
            let (mut c, mut s) = pair(now);
            let len = 1000 + (seed as usize * 733) % 9000;
            let payload: Vec<u8> = (0..len).map(|i| (i as u64 * (seed + 3)) as u8).collect();
            let ev = c.send(&payload, now);
            shuttle_chaos(&mut c, &mut s, ev.to_send, 0.10, 0.0, seed, &mut now);
            assert_eq!(s.take_received(), payload, "seed {seed}");
            assert_eq!(c.in_flight(), 0, "seed {seed}");
        }
    }

    /// Property: duplicated segments (alone and combined with loss)
    /// never corrupt or double-deliver the reassembled stream.
    #[test]
    fn reassembly_survives_duplication_and_loss() {
        for seed in 0..24u64 {
            let mut now = SimTime::ZERO;
            let (mut c, mut s) = pair(now);
            let len = 1000 + (seed as usize * 977) % 9000;
            let payload: Vec<u8> = (0..len).map(|i| (i as u64 ^ (seed * 17)) as u8).collect();
            let ev = c.send(&payload, now);
            let (loss, dup) = if seed % 2 == 0 {
                (0.0, 0.2)
            } else {
                (0.08, 0.15)
            };
            shuttle_chaos(&mut c, &mut s, ev.to_send, loss, dup, seed, &mut now);
            assert_eq!(s.take_received(), payload, "seed {seed}");
            assert_eq!(c.in_flight(), 0, "seed {seed}");
        }
    }

    #[test]
    fn reordered_segments_reassemble() {
        let now = SimTime::ZERO;
        let (mut c, mut s) = pair(now);
        // Send two segments; deliver them out of order manually.
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let ev = c.send(&data, now);
        assert_eq!(ev.to_send.len(), 2);
        let (seg1, seg2) = (ev.to_send[0].clone(), ev.to_send[1].clone());
        let e2 = s.on_segment(&seg2, now); // out of order → buffered
        assert!(s.take_received().is_empty());
        let e1 = s.on_segment(&seg1, now);
        assert_eq!(s.take_received(), data);
        // ACKs flow back; drive to quiescence.
        let mut back: Vec<Packet> = e2.to_send.into_iter().chain(e1.to_send).collect();
        while let Some(p) = back.pop() {
            let ev = c.on_segment(&p, now);
            for x in ev.to_send {
                let ev2 = s.on_segment(&x, now);
                back.extend(ev2.to_send);
            }
        }
        assert_eq!(c.in_flight(), 0);
    }
}
