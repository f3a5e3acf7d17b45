//! # planp-analysis — static safety analyses for PLAN-P programs
//!
//! Implements the verification story of section 2.1 of *"Adapting
//! Distributed Applications Using Extensible Networks"*:
//!
//! * **local termination** — holds by construction (the front end rules
//!   out recursion and unbounded loops);
//! * **[global termination](modelcheck)** — packets cannot cycle through
//!   the network, proved by an explicit-state exploration of (channel ×
//!   destination value × source-intact) states, under the assumption
//!   that IP routing is acyclic; a violation comes with a minimal
//!   counterexample [witness] (code `E005`), replayable through the
//!   simulator;
//! * **[guaranteed delivery](modelcheck)** — no cycles, no escaping
//!   exceptions, and every path forwards or delivers (`E006`);
//! * **[linear duplication](duplication)** — a fix-point proof that
//!   packet copies do not compound exponentially;
//! * **[per-packet cost bounds](cost)** — a worst-case bound on VM steps
//!   and send effects per packet, per channel overload, enforceable
//!   against a step budget ([`Policy::with_step_budget`]); it, the
//!   per-dispatch insert/evict bound and the duplication weights are
//!   three *atoms* over the one worst-path recurrence of the private
//!   `paths` module;
//! * **[per-site bounds](profile)** — the cost bound refined to
//!   individual expression sites, joined by the telemetry profiler
//!   against observed per-site steps (the utilization heatmap), plus
//!   static superinstruction-candidate detection for the future
//!   compilation tier;
//! * **[lints](mod@lint)** — advisory [diagnostics](diag) (unused bindings,
//!   constant conditions, escaping exceptions, unreachable channels,
//!   shadowing) with caret rendering and byte-stable JSON;
//! * **[state effects](state)** — an abstract interpretation bounding
//!   table growth: which tables are written, whether key domains are
//!   finite or packet-derived, max inserts per dispatch, and per-table
//!   entry bounds. Feeds the `E009`/`E010` state-safety verdicts
//!   ([`Policy::with_state_budget`]), the plan-level `budget state`
//!   composition, and the `S001`–`S004` state lints;
//! * **[deployment plans](plan)** — placement of ASPs over named
//!   topologies with compositional guarantees: a [product model
//!   check](compose) of co-deployed ASPs — the same explorer over
//!   (node × channel × addresses) states — catching joint forwarding
//!   loops no single-program check sees (`E007`), composed per-path
//!   CPU budgets (`E008`), and plan-scope lints (`P001`–`P004`,
//!   `L008`).
//!
//! The [`verifier`] module packages these behind a download [`Policy`],
//! as the paper's late-checking router component does: unverifiable
//! programs are rejected unless the download is authenticated.
//!
//! ## Example
//!
//! ```
//! use planp_analysis::{verify, Policy};
//!
//! let prog = planp_lang::compile_front(
//!     "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
//!        (OnRemote(network, p); (ps, ss))",
//! ).unwrap();
//! let report = verify(&prog, Policy::strict());
//! assert!(report.accepted());
//! ```

#![warn(missing_docs)]

pub mod compose;
pub mod cost;
pub mod diag;
pub mod duplication;
mod explore;
pub mod lint;
pub mod modelcheck;
mod paths;
pub mod plan;
pub mod profile;
pub mod state;
pub mod summary;
pub mod verifier;
pub mod witness;

pub use compose::{product_check, ComposeResult};
pub use cost::{cost_bounds, ChannelCost, CostBound, CostReport};
pub use diag::{Diagnostic, Severity};
pub use duplication::{compute_may_copy, DuplicationInfo};
pub use lint::lint;
pub use modelcheck::{model_check, ModelCheckReport, Verdict, DEFAULT_STATE_BUDGET};
pub use plan::{
    Install, NodeState, PathBudget, PlanAsp, PlanCheck, PlanNode, PlanPolicy, PlanReport,
    PlanTopology,
};
pub use profile::{
    site_bounds, superinstruction_candidates, ChannelSites, SiteInfo, SiteReport,
    SuperinstructionCandidate,
};
pub use state::{
    state_effects, state_lints, ChannelState, EntryBound, StateCounts, StateReport, StateRoot,
    TableState,
};
pub use summary::{summarize, DestAbs, ProgramSummary, SendKind, SendSite};
pub use verifier::{verify, AnalysisStats, Outcome, Policy, VerifyReport};
pub use witness::{Witness, WitnessHop, WitnessKind};
