//! # netsim — a deterministic discrete-event network simulator
//!
//! The substrate standing in for the paper's testbed (SUN workstations
//! with a Solaris kernel module on 10/100 Mb/s Ethernet): hosts and
//! routers connected by links with finite bandwidth, propagation delay,
//! and bounded drop-tail queues. Multi-node links model shared Ethernet
//! **segments** — transmissions serialize through one half-duplex medium
//! and are overheard by every attached station, which is what the
//! paper's audio-adaptation and MPEG-capture experiments rely on.
//!
//! Key pieces:
//!
//! * [`sim::Sim`] — the event engine: clock, event queue (`sched`) and
//!   fabric; topology, BFS routing, multicast, deterministic execution
//!   from a seed. A node's packet path is in `ip`, a link's — one event
//!   per hop — in `datapath`;
//! * [`node::App`] — local applications (servers, clients, load
//!   generators) driven by packet and timer callbacks through a
//!   [`node::NodeApi`];
//! * [`node::PacketHook`] — the extension point at the IP layer where
//!   the PLAN-P runtime (or a native baseline) is installed; hooks see
//!   *all* arriving traffic, including overheard segment traffic;
//! * [`link::Link`] — windowed throughput measurement per link, backing
//!   the PLAN-P `linkLoad` primitive;
//! * [`fault::FaultPlan`] — seeded, schedule-driven fault injection:
//!   link loss/corruption/duplication/jitter, down/up flaps, partitions,
//!   node crash/restart with protocol-state loss; [`fault`] also holds
//!   the pipeline that applies it (`sim.faults`);
//! * [`instrument`] — histograms, the metrics snapshot and the live SLO
//!   monitor with its brownout controller (`sim.instruments`);
//! * [`digest`] — `Sim::state_digest` and [`digest::Fnv`], the one
//!   FNV-1a hasher behind it and behind every pinned digest;
//! * [`tcp`] — mini-TCP, enough for the HTTP cluster experiment;
//! * [`stats`] — time series used by the figure-regeneration harnesses.
//!
//! ## Example
//!
//! ```
//! use netsim::{Sim, LinkSpec, SimTime, packet::{Packet, addr}};
//! use bytes::Bytes;
//!
//! struct Hello;
//! impl netsim::App for Hello {
//!     fn on_start(&mut self, api: &mut netsim::NodeApi<'_>) {
//!         api.send(Packet::udp(api.addr(), addr(10, 0, 0, 2), 1, 2, Bytes::new()));
//!     }
//!     fn on_packet(&mut self, _api: &mut netsim::NodeApi<'_>, _pkt: Packet) {}
//! }
//!
//! let mut sim = Sim::new(42);
//! let a = sim.add_host("a", addr(10, 0, 0, 1));
//! let b = sim.add_host("b", addr(10, 0, 0, 2));
//! sim.add_link(LinkSpec::ethernet_10(), &[a, b]);
//! sim.compute_routes();
//! sim.add_app(a, Box::new(Hello));
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.node(b).delivered, 1);
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod datapath;
pub mod digest;
pub mod diverge;
pub mod fault;
pub mod instrument;
mod ip;
pub mod link;
pub mod node;
pub mod packet;
pub mod rng;
mod sched;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod topo;

pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultStats, LinkFaults};
pub use instrument::Watch;
pub use link::{Link, LinkId, LinkSpec, NodeId};
pub use node::{App, ArrivalMeta, CpuModel, HookVerdict, Node, NodeApi, PacketHook};
pub use packet::{ChannelTag, Packet, Transport};
pub use sim::Sim;
pub use stats::{SeriesStore, TimeSeries};
pub use time::SimTime;
pub use topo::{TopoLink, TopoNode, TopoSpec};
