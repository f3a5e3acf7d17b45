//! # planp — Adapting Distributed Applications Using Extensible Networks
//!
//! A complete reproduction of the PLAN-P system (Thibault, Marant,
//! Muller; ICDCS 1999): a domain-specific language for
//! **Application-Specific Protocols** that are downloaded into routers
//! and end hosts, verified on arrival, JIT-compiled from a portable
//! interpreter, and used to adapt unmodified distributed applications.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`lang`] — lexer, parser, type system, typed AST;
//! * [`analysis`] — the safety verifier (termination, delivery,
//!   duplication);
//! * [`vm`] — the portable interpreter and the JIT specializer;
//! * [`netsim`] — the discrete-event network substrate;
//! * [`runtime`] — the IP/PLAN-P layer gluing it all together;
//! * [`apps`] — the paper's three applications (audio, HTTP, MPEG).
//!
//! ## Quickstart
//!
//! ```
//! use planp::runtime::{load, install_planp, LayerConfig};
//! use planp::analysis::Policy;
//! use planp::netsim::{Sim, LinkSpec, SimTime, packet::addr};
//!
//! // 1. Write an ASP.
//! let asp = "
//!     channel network(ps : int, ss : unit, p : ip*udp*blob) is
//!       (OnRemote(network, p); (ps + 1, ss))
//! ";
//! // 2. Download it: parse, type check, verify, JIT.
//! let image = load(asp, Policy::strict()).unwrap();
//! assert!(image.report.accepted());
//!
//! // 3. Install it on a simulated router.
//! let mut sim = Sim::new(1);
//! let router = sim.add_router("r", addr(10, 0, 0, 254));
//! let host = sim.add_host("h", addr(10, 0, 0, 1));
//! sim.add_link(LinkSpec::ethernet_10(), &[host, router]);
//! sim.compute_routes();
//! let handle = install_planp(&mut sim, router, &image, LayerConfig::default()).unwrap();
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(handle.stats(&sim.telemetry).errors, 0);
//! ```

pub use netsim;
pub use planp_analysis as analysis;
pub use planp_apps as apps;
pub use planp_lang as lang;
pub use planp_runtime as runtime;
pub use planp_telemetry as telemetry;
pub use planp_vm as vm;
