//! # planp-apps — the paper's three ASP applications
//!
//! Each of the experiments of section 3, complete with the PLAN-P
//! sources, the simulated legacy applications they adapt, native
//! ("built-in C") baselines, and scenario harnesses:
//!
//! * [`audio`] — audio broadcasting with bandwidth adaptation in
//!   routers (section 3.1, figures 5–7);
//! * [`http`] — an extensible HTTP server with load balancing over a
//!   cluster (section 3.2, figure 8);
//! * [`mpeg`] — a multipoint MPEG service derived from a point-to-point
//!   server (section 3.3).
//!
//! Plus the robustness study that stresses all of it:
//!
//! * [`chaos`] — a relay chain under seeded fault injection, comparing
//!   a NACK-driven reliable relay against a retransmission-free control;
//! * [`cluster`] — the overload-robust HTTP cluster: a bounded-load
//!   consistent-hash gateway with per-backend circuit breakers and a
//!   brownout controller, under a Zipf flash crowd with rolling crashes;
//! * [`obs`] — a ≥1k-node grid of parallel relay chains for measuring
//!   telemetry overhead under deterministic trace sampling and budgets;
//! * [`plans`] — the bundled deployment plans (`asps/plans/`) plus the
//!   ASP resolver mapping plan-level names onto the corpus;
//! * [`corpus`] — the one table of every PLAN-P program under `asps/`.

#![warn(missing_docs)]

/// The PLAN-P file `asps/<name>.planp` as the `*_ASP` constants of the
/// application modules carry it: behind the leading newline they had as
/// raw strings, so spans, site ids and `line:col` labels did not move
/// when the text moved out of Rust. (The path is relative to the
/// `src/<app>/asp.rs` that invokes this.)
macro_rules! asp_file {
    ($name:literal) => {
        concat!(
            "\n",
            include_str!(concat!("../../../../asps/", $name, ".planp"))
        )
    };
}

pub mod audio;
pub mod chaos;
pub mod cluster;
pub mod corpus;
pub mod http;
pub mod mpeg;
pub mod obs;
pub mod plans;
