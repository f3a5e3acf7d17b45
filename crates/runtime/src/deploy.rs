//! In-band ASP deployment — the "protocol management functionality"
//! the paper lists as immediate future work (section 5), and the
//! mechanism behind section 3.2's configurability claims ("an ASP can
//! be easily moved to any of the cluster machines", "ASPs can be
//! easily modified to reflect a change in the number of physical
//! servers").
//!
//! A [`DeployService`] runs on every manageable node. The operator (or
//! another program) sends the PLAN-P source over UDP port
//! [`MANAGEMENT_PORT`] (which the installed layer passes by untouched),
//! chunked into numbered datagrams; on receipt of the final chunk the
//! node runs the full download path — parse, type check, **verify
//! under the node's policy**, JIT — and atomically swaps its IP-layer
//! program. Rejected programs leave the previous program running and
//! report the reason back to the sender.
//!
//! Chunk wire format (UDP payload):
//!
//! ```text
//! byte  0      magic 0xD7
//! byte  1      flags: bit0 = last chunk, bit1 = uninstall request
//! bytes 2..4   transfer id (big-endian u16)
//! bytes 4..6   chunk index (big-endian u16)
//! bytes 6..    UTF-8 source fragment
//! ```
//!
//! The reply (UDP, same port, to the sender) is `OK <lines>\n` or
//! `ERR <message>\n`.
//!
//! A node holds at most [`MAX_TRANSFERS`] unfinished transfers: the
//! first chunk of one more drops the transfer whose first chunk arrived
//! earliest, so a sender that opens transfers and never finishes them
//! costs a bounded amount of memory.

use crate::layer::{install_in_node, LayerConfig, PlanpHandle, MANAGEMENT_PORT};
use bytes::{BufMut, Bytes, BytesMut};
use netsim::packet::Packet;
use netsim::{App, NodeApi};
use planp_analysis::Policy;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Unfinished transfers a node holds at once.
pub const MAX_TRANSFERS: usize = 16;

const MAGIC: u8 = 0xD7;
const FLAG_LAST: u8 = 0x01;
const FLAG_UNINSTALL: u8 = 0x02;

/// Maximum source bytes per chunk (fits comfortably in one datagram).
pub const CHUNK_BYTES: usize = 1000;

/// A management-plane datagram, port to port.
fn datagram(src: u32, dst: u32, payload: Bytes) -> Packet {
    Packet::udp(src, dst, MANAGEMENT_PORT, MANAGEMENT_PORT, payload)
}

/// Builds the datagrams that deploy `source` to `target`.
///
/// Feed the returned packets to the network in order (they carry chunk
/// indices, so reordering within a transfer is tolerated; loss is not —
/// management traffic is expected to run over a reliable path or be
/// retried by the operator).
pub fn deploy_packets(src_addr: u32, target: u32, transfer_id: u16, source: &str) -> Vec<Packet> {
    let chunks: Vec<&[u8]> = if source.is_empty() {
        vec![&[]]
    } else {
        source.as_bytes().chunks(CHUNK_BYTES).collect()
    };
    let n = chunks.len();
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let mut buf = BytesMut::with_capacity(6 + c.len());
            buf.put_u8(MAGIC);
            buf.put_u8(if i + 1 == n { FLAG_LAST } else { 0 });
            buf.put_u16(transfer_id);
            buf.put_u16(i as u16);
            buf.put_slice(c);
            datagram(src_addr, target, buf.freeze())
        })
        .collect()
}

/// Builds the datagram that uninstalls the target's program.
pub fn uninstall_packet(src_addr: u32, target: u32) -> Packet {
    let mut buf = BytesMut::with_capacity(6);
    buf.put_u8(MAGIC);
    buf.put_u8(FLAG_LAST | FLAG_UNINSTALL);
    buf.put_u16(0);
    buf.put_u16(0);
    datagram(src_addr, target, buf.freeze())
}

/// What the service did, observable by tests and operators.
#[derive(Debug, Default, Clone)]
pub struct DeployLog {
    /// Programs accepted and installed.
    pub installed: u64,
    /// Programs rejected (front-end or verifier).
    pub rejected: u64,
    /// Uninstall requests honored.
    pub uninstalled: u64,
    /// Unfinished transfers held now (at most [`MAX_TRANSFERS`]).
    pub held: usize,
    /// Unfinished transfers dropped to make room for a newer one.
    pub dropped: u64,
    /// Last error message, if any.
    pub last_error: Option<String>,
    /// Handle of the most recently installed layer.
    pub handle: Option<PlanpHandle>,
}

/// One unfinished transfer.
struct Transfer {
    /// `(sender, transfer id)`.
    key: (u32, u16),
    /// The chunks received so far, by index.
    chunks: BTreeMap<u16, Vec<u8>>,
    /// Index of the chunk that carried the last-chunk flag, once seen.
    last: Option<u16>,
}

/// The deployment application.
pub struct DeployService {
    policy: Policy,
    config: LayerConfig,
    /// Unfinished transfers in the order their first chunk arrived;
    /// never more than [`MAX_TRANSFERS`], so a lookup is a short scan.
    transfers: VecDeque<Transfer>,
    /// Shared log.
    pub log: Rc<RefCell<DeployLog>>,
}

impl DeployService {
    /// A service that verifies downloads under `policy` and installs
    /// them with `config`.
    pub fn new(policy: Policy, config: LayerConfig) -> Self {
        DeployService {
            policy,
            config,
            transfers: VecDeque::new(),
            log: Rc::new(RefCell::new(DeployLog::default())),
        }
    }

    fn reply(api: &mut NodeApi<'_>, to: u32, text: String) {
        api.send(datagram(api.addr(), to, Bytes::from(text.into_bytes())));
    }

    fn try_install(&mut self, api: &mut NodeApi<'_>, source: &str) -> Result<usize, String> {
        let (handle, lines) = install_in_node(api, source, self.policy, self.config)?;
        self.log.borrow_mut().handle = Some(handle);
        Ok(lines)
    }
}

impl App for DeployService {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let Some(udp) = pkt.udp_hdr() else { return };
        if udp.dport != MANAGEMENT_PORT || pkt.payload.len() < 6 || pkt.payload[0] != MAGIC {
            return;
        }
        let flags = pkt.payload[1];
        let transfer = u16::from_be_bytes([pkt.payload[2], pkt.payload[3]]);
        let index = u16::from_be_bytes([pkt.payload[4], pkt.payload[5]]);
        let sender = pkt.ip.src;

        if flags & FLAG_UNINSTALL != 0 {
            api.remove_hook();
            let mut log = self.log.borrow_mut();
            log.uninstalled += 1;
            log.handle = None;
            drop(log);
            Self::reply(api, sender, "OK uninstalled\n".to_string());
            return;
        }

        let key = (sender, transfer);
        let at = match self.transfers.iter().position(|t| t.key == key) {
            Some(at) => at,
            None => {
                if self.transfers.len() == MAX_TRANSFERS {
                    self.transfers.pop_front();
                    self.log.borrow_mut().dropped += 1;
                }
                self.transfers.push_back(Transfer {
                    key,
                    chunks: BTreeMap::new(),
                    last: None,
                });
                self.transfers.len() - 1
            }
        };
        let t = &mut self.transfers[at];
        t.chunks.insert(index, pkt.payload[6..].to_vec());
        if flags & FLAG_LAST != 0 {
            t.last = Some(index);
        }

        // Complete when the final chunk is known and all indices are in.
        let source = t.last.and_then(|last| {
            let parts = (0..=last).map(|i| t.chunks.get(&i).map(Vec::as_slice));
            parts
                .collect::<Option<Vec<_>>>()
                .map(|parts| parts.concat())
        });
        if source.is_some() {
            self.transfers.remove(at);
        }
        self.log.borrow_mut().held = self.transfers.len();
        let Some(source) = source else { return };

        let text = String::from_utf8_lossy(&source).into_owned();
        match self.try_install(api, &text) {
            Ok(lines) => {
                self.log.borrow_mut().installed += 1;
                Self::reply(api, sender, format!("OK {lines}\n"));
            }
            Err(msg) => {
                let mut log = self.log.borrow_mut();
                log.rejected += 1;
                log.last_error = Some(msg.clone());
                drop(log);
                // Prefer the first substantive line over the header.
                let first = msg
                    .lines()
                    .map(str::trim)
                    .find(|l| !l.is_empty() && !l.ends_with(':'))
                    .or_else(|| msg.lines().next())
                    .unwrap_or("rejected");
                Self::reply(api, sender, format!("ERR {first}\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::addr;
    use netsim::{LinkSpec, Sim, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Operator {
        packets: Vec<Packet>,
        replies: Rc<RefCell<Vec<String>>>,
    }
    impl App for Operator {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            for p in self.packets.drain(..) {
                api.send(p);
            }
        }
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
            if pkt.udp_hdr().is_some_and(|u| u.dport == MANAGEMENT_PORT) {
                self.replies
                    .borrow_mut()
                    .push(String::from_utf8_lossy(&pkt.payload).into_owned());
            }
        }
    }

    struct Blast {
        dst: u32,
        n: usize,
        delay: std::time::Duration,
    }
    impl App for Blast {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            api.set_timer(self.delay, 0);
        }
        fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
            for i in 0..self.n {
                api.send(Packet::udp(
                    api.addr(),
                    self.dst,
                    5,
                    6,
                    Bytes::from(vec![i as u8; 8]),
                ));
            }
        }
    }

    const FORWARDER: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                             (OnRemote(network, p); (ps + 1, ss))";

    fn setup(
        policy: Policy,
    ) -> (
        Sim,
        netsim::NodeId,
        netsim::NodeId,
        netsim::NodeId,
        Rc<RefCell<DeployLog>>,
    ) {
        let mut sim = Sim::new(8);
        let op = sim.add_host("operator", addr(10, 0, 0, 1));
        let r = sim.add_router("router", addr(10, 0, 0, 254));
        let b = sim.add_host("b", addr(10, 0, 1, 1));
        sim.add_link(LinkSpec::ethernet_10(), &[op, r]);
        sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
        sim.compute_routes();
        let svc = DeployService::new(policy, LayerConfig::default());
        let log = svc.log.clone();
        sim.add_app(r, Box::new(svc));
        (sim, op, r, b, log)
    }

    #[test]
    fn deploys_and_activates_a_program() {
        let (mut sim, op, r, _b, log) = setup(Policy::strict());
        let replies = Rc::new(RefCell::new(Vec::new()));
        let packets = deploy_packets(addr(10, 0, 0, 1), addr(10, 0, 0, 254), 1, FORWARDER);
        assert_eq!(packets.len(), 1, "small program fits one chunk");
        sim.add_app(
            op,
            Box::new(Operator {
                packets,
                replies: replies.clone(),
            }),
        );
        // Traffic that should be counted by the deployed program.
        sim.add_app(
            op,
            Box::new(Blast {
                dst: addr(10, 0, 1, 1),
                n: 5,
                delay: std::time::Duration::from_millis(100),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(log.borrow().installed, 1);
        assert_eq!(replies.borrow().as_slice(), ["OK 2\n"]);
        let handle = log.borrow().handle.clone().expect("handle");
        assert_eq!(handle.stats(&sim.telemetry).matched, 5);
        assert!(sim.node(r).name.contains("router"));
    }

    #[test]
    fn multi_chunk_transfer_reassembles() {
        // Pad the program with comments to force several chunks.
        let mut big = String::from(FORWARDER);
        big.push('\n');
        for i in 0..200 {
            big.push_str(&format!("-- padding comment line {i}\n"));
        }
        let (mut sim, op, _r, _b, log) = setup(Policy::strict());
        let replies = Rc::new(RefCell::new(Vec::new()));
        let packets = deploy_packets(addr(10, 0, 0, 1), addr(10, 0, 0, 254), 2, &big);
        assert!(
            packets.len() >= 3,
            "expected several chunks, got {}",
            packets.len()
        );
        sim.add_app(
            op,
            Box::new(Operator {
                packets,
                replies: replies.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(log.borrow().installed, 1);
        assert_eq!(replies.borrow().as_slice(), ["OK 2\n"]);
    }

    #[test]
    fn rejected_program_reports_and_leaves_node_clean() {
        let bouncer = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                       (OnNeighbor(network, 10.0.0.2, p); (ps, ss))";
        let (mut sim, op, r, b, log) = setup(Policy::strict());
        let replies = Rc::new(RefCell::new(Vec::new()));
        let packets = deploy_packets(addr(10, 0, 0, 1), addr(10, 0, 0, 254), 3, bouncer);
        sim.add_app(
            op,
            Box::new(Operator {
                packets,
                replies: replies.clone(),
            }),
        );
        sim.add_app(
            op,
            Box::new(Blast {
                dst: addr(10, 0, 1, 1),
                n: 3,
                delay: std::time::Duration::from_millis(100),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(log.borrow().installed, 0);
        assert_eq!(log.borrow().rejected, 1);
        assert!(replies.borrow()[0].starts_with("ERR "));
        // Standard IP forwarding still works (no hook installed).
        assert_eq!(sim.node(b).delivered, 3);
        let _ = r;
    }

    #[test]
    fn redeploy_replaces_and_uninstall_removes() {
        let (mut sim, op, _r, b, log) = setup(Policy::no_delivery());
        let replies = Rc::new(RefCell::new(Vec::new()));
        // First a dropper, then a forwarder, then uninstall.
        let dropper = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)";
        let mut packets = deploy_packets(addr(10, 0, 0, 1), addr(10, 0, 0, 254), 1, dropper);
        packets.extend(deploy_packets(
            addr(10, 0, 0, 1),
            addr(10, 0, 0, 254),
            2,
            FORWARDER,
        ));
        sim.add_app(
            op,
            Box::new(Operator {
                packets,
                replies: replies.clone(),
            }),
        );
        sim.add_app(
            op,
            Box::new(Blast {
                dst: addr(10, 0, 1, 1),
                n: 4,
                delay: std::time::Duration::from_millis(100),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        // The forwarder (deployed second) won; traffic flows.
        assert_eq!(log.borrow().installed, 2);
        assert_eq!(sim.node(b).delivered, 4);

        // Uninstall returns the node to plain IP.
        struct One {
            pkt: Option<Packet>,
        }
        impl App for One {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.send(self.pkt.take().expect("one packet"));
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        }
        sim.add_app(
            op,
            Box::new(One {
                pkt: Some(uninstall_packet(addr(10, 0, 0, 1), addr(10, 0, 0, 254))),
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(log.borrow().uninstalled, 1);
        assert!(log.borrow().handle.is_none());
    }
}
