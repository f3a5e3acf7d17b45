//! # planp-runtime — the extensible network layer
//!
//! Binds the PLAN-P front end, verifier, and execution engines into the
//! simulated network: the equivalent of the paper's Solaris loadable
//! kernel module sitting at the IP layer of routers and hosts.
//!
//! * [`loader`] — the download path: parse → type check → verify
//!   (late checking, section 2.1) → JIT compile (section 2.2);
//! * [`layer`] — the [`netsim::PacketHook`] implementation: channel
//!   dispatch (including overloaded channels), protocol/channel state,
//!   and the `OnRemote`/`OnNeighbor`/`deliver` effects, with optional
//!   admission control (deadline and brownout shedding,
//!   [`LayerConfig::admission`]) at its ingress;
//! * `dispatch` — which channel overloads an arriving packet is offered
//!   to, worked out from the program at install;
//! * [`convert`] — packet ↔ PLAN-P packet components (and tuples);
//! * [`recovery`] — crash recovery: re-verify and reinstall a node's
//!   ASP after a fault-injected restart;
//! * [`replay`] — runs a model-checker counterexample as concrete
//!   packets through a two-router path and confirms the predicted
//!   loop, drop, or exception;
//! * [`plan`] — plan-driven deployment: load and statically verify a
//!   whole deployment plan (placement, cross-ASP product check,
//!   composed path budgets), install exactly what was verified, and
//!   replay plan-level witnesses over the plan's own topology.
//!
//! ## Example
//!
//! ```
//! use planp_runtime::{load, install_planp, LayerConfig};
//! use planp_analysis::Policy;
//! use netsim::{Sim, LinkSpec, packet::addr};
//!
//! let image = load(
//!     "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
//!        (OnRemote(network, p); (ps, ss))",
//!     Policy::strict(),
//! ).unwrap();
//!
//! let mut sim = Sim::new(1);
//! let router = sim.add_router("r", addr(10, 0, 0, 254));
//! let host = sim.add_host("h", addr(10, 0, 0, 1));
//! sim.add_link(LinkSpec::ethernet_10(), &[host, router]);
//! sim.compute_routes();
//! let handle = install_planp(&mut sim, router, &image, LayerConfig::default()).unwrap();
//! assert_eq!(handle.stats(&sim.telemetry).matched, 0);
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod convert;
pub mod deploy;
mod dispatch;
pub mod layer;
pub mod loader;
pub mod plan;
pub mod recovery;
pub mod replay;

pub use deploy::{deploy_packets, uninstall_packet, DeployLog, DeployService, MAX_TRANSFERS};
pub use layer::{
    install_planp, Engine, LayerConfig, LayerStats, PlanpHandle, PlanpLayer, MANAGEMENT_PORT,
};
pub use loader::{load, LoadError, LoadedProgram};
pub use plan::{install_plan, load_plan, replay_plan, Placement, PlanError, PlanImage};
pub use recovery::{RecoveryLog, RecoveryService};
pub use replay::{replay_asp, replay_asp_traced, ReplayReport, LOOP_FACTOR, REPLAY_PACKETS};
