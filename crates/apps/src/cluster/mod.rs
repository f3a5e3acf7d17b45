//! The production-shape HTTP cluster: tens of heterogeneous backends
//! behind a bounded-load consistent-hash gateway with per-backend
//! circuit breakers, driven by a Zipf flash-crowd trace under rolling
//! backend crashes (ROADMAP item 3 combined with the PR 5 fault plans).
//!
//! The pieces:
//!
//! * [`gateway`] — the [`ClusterGateway`] packet hook: consistent-hash
//!   ring with per-backend outstanding bounds (bounded-load fallback),
//!   closed/open/half-open circuit breakers with deterministic probe
//!   schedules, brownout-priority shedding, and deadline enforcement;
//! * [`scenario`] — the end-to-end harness: open-loop Zipf clients with
//!   request deadlines and priority classes, a PLAN-P forwarder tier
//!   under admission control, heterogeneous CPU-modelled backends,
//!   rolling crash fault plans, and the SLO-monitor-driven brownout
//!   controller.
//!
//! Everything is deterministic: the whole run — breaker transitions,
//! brownout steps, shed sets, the final snapshot — is byte-identical
//! across repeated runs with the same seed (asserted by `planp check`
//! and CI).

pub mod gateway;
pub mod scenario;

pub use gateway::{BackendSpec, ClusterGateway, GatewayStats};
pub use scenario::{cluster_sim, run_cluster, ClusterConfig, ClusterResult, CLUSTER_PORT};
