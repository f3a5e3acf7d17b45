//! The verifier façade: runs the configured analyses and produces a
//! structured report.
//!
//! This is the component the paper describes as running *in the router*
//! when a program is downloaded (late checking): programs that cannot be
//! proved safe are rejected, unless the download is authenticated — the
//! paper's escape hatch for legitimate protocols (e.g. multicast) that
//! the conservative analyses cannot prove.

use crate::cost::{cost_bounds, CostReport};
use crate::diag::Diagnostic;
use crate::duplication::check_duplication;
use crate::lint::lint;
use crate::modelcheck::{model_check, ModelCheckReport, Verdict};
use crate::summary::{summarize, ProgramSummary};
use crate::witness::Witness;
use planp_lang::span::Span;
use planp_lang::tast::TProgram;
use std::fmt;

/// Outcome of one analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The property is proved.
    Proved,
    /// The property could not be proved; structured diagnostics (codes
    /// `E003`–`E010`) explain why.
    Rejected(Vec<Diagnostic>),
}

impl Outcome {
    /// True if the property was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved)
    }
}

/// Size of the analysis problem — the paper's back-of-envelope
/// `r·d·2^d` discussion made concrete (section 2.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Channels analyzed.
    pub channels: usize,
    /// Send sites found (the paper's `r`).
    pub send_sites: usize,
    /// Destination-changing (restart) sites among them.
    pub restart_sites: usize,
    /// Iterations the duplication fix-point needed (bounded by
    /// channels + 1; the paper's bound is `2^c`).
    pub dup_iterations: usize,
}

impl fmt::Display for AnalysisStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} channel(s), {} send site(s) ({} destination-changing), {} fix-point iteration(s)",
            self.channels, self.send_sites, self.restart_sites, self.dup_iterations
        )
    }
}

/// Which properties a node demands before accepting a program.
///
/// Network providers may require different properties (section 4); the
/// default demands everything the paper's analyses can prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Require the global-termination proof.
    pub require_termination: bool,
    /// Require the guaranteed-delivery proof (implies termination).
    pub require_delivery: bool,
    /// Require the linear-duplication proof.
    pub require_linear_duplication: bool,
    /// Reject programs whose statically bounded worst-case per-packet
    /// cost exceeds this many VM steps on any channel (`None` disables
    /// the budget). See [`crate::cost`].
    pub max_steps_per_packet: Option<u64>,
    /// Reject programs with a table whose growth the [state
    /// analysis](crate::state) cannot bound: a packet-derived key with
    /// no eviction on any path (`E009`).
    pub require_bounded_state: bool,
    /// Reject programs whose composed per-node entry bound (summed over
    /// all tables) exceeds this many entries (`E010`); `None` disables
    /// the budget. Implies [`Policy::require_bounded_state`] in effect:
    /// an unbounded table trivially exceeds any budget.
    pub max_state_entries: Option<u64>,
}

impl Policy {
    /// The strictest policy: all three properties.
    pub const fn strict() -> Self {
        Policy {
            require_termination: true,
            require_delivery: true,
            require_linear_duplication: true,
            max_steps_per_packet: None,
            require_bounded_state: false,
            max_state_entries: None,
        }
    }

    /// Termination and linear duplication, but programs may drop packets
    /// intentionally (e.g. filters and monitors).
    pub const fn no_delivery() -> Self {
        Policy {
            require_delivery: false,
            ..Policy::strict()
        }
    }

    /// An authenticated (privileged) download: nothing is required, the
    /// report is informational.
    pub const fn authenticated() -> Self {
        Policy {
            require_termination: false,
            require_delivery: false,
            require_linear_duplication: false,
            ..Policy::strict()
        }
    }

    /// Adds a per-packet step budget to this policy (builder style).
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.max_steps_per_packet = Some(steps);
        self
    }

    /// The identity: every policy runs the model checker. Kept only
    /// because the frozen `perf/src/download.rs` calls it; a
    /// `benchmark`-archetype PR may drop it.
    pub fn with_exhaustive_check(self) -> Self {
        self
    }

    /// Requires every table's growth to be statically bounded or
    /// runtime-monitorable: packet-keyed tables with no eviction are
    /// rejected with `E009` (builder style).
    pub fn with_bounded_state(mut self) -> Self {
        self.require_bounded_state = true;
        self
    }

    /// Adds a per-node state budget: the composed entry bound over all
    /// tables must stay within `entries` (`E010`), and unbounded tables
    /// are rejected (`E009`). Builder style.
    pub fn with_state_budget(mut self, entries: u64) -> Self {
        self.require_bounded_state = true;
        self.max_state_entries = Some(entries);
        self
    }
}

impl Default for Policy {
    fn default() -> Self {
        Policy::strict()
    }
}

/// The verifier's findings for one program.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Global-termination outcome.
    pub termination: Outcome,
    /// Guaranteed-delivery outcome.
    pub delivery: Outcome,
    /// Linear-duplication outcome.
    pub duplication: Outcome,
    /// Step-budget outcome (always `Proved` when the policy sets no
    /// budget).
    pub budget: Outcome,
    /// State-safety outcome: `E009` (unbounded table growth) and `E010`
    /// (composed entry bound over the state budget). Always `Proved`
    /// when the policy demands neither.
    pub state: Outcome,
    /// The composed per-node entry bound over all tables (`None` means
    /// some table is unbounded). See [`crate::state`].
    pub state_bound: Option<u64>,
    /// The full state-effect analysis (per-channel insert counts,
    /// per-table growth bounds) — kept on the report so the runtime can
    /// cross-check live table telemetry against the static bounds, the
    /// way [`VerifyReport::cost`] backs the step-bound check.
    pub state_effects: crate::state::StateReport,
    /// Static per-packet cost bounds (see [`crate::cost`]).
    pub cost: CostReport,
    /// Lint findings plus every policy-required rejection, as structured
    /// diagnostics sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// The policy the report was evaluated against.
    pub policy: Policy,
    /// Problem-size statistics.
    pub stats: AnalysisStats,
    /// The [model checker](crate::modelcheck)'s report, which
    /// [`VerifyReport::termination`] and [`VerifyReport::delivery`] are
    /// derived from: a violation rejects with its counterexample
    /// witnesses (codes `E005`/`E006`), an inconclusive
    /// (budget-exhausted) run rejects with an `E005` saying so. Always
    /// `Some`; an `Option` only because the frozen
    /// `perf/src/download.rs` reads it as one — a `benchmark`-archetype
    /// PR may drop the wrapper.
    pub exhaustive: Option<ModelCheckReport>,
}

impl VerifyReport {
    /// True if the program satisfies the policy.
    pub fn accepted(&self) -> bool {
        (!self.policy.require_termination || self.termination.is_proved())
            && (!self.policy.require_delivery || self.delivery.is_proved())
            && (!self.policy.require_linear_duplication || self.duplication.is_proved())
            && self.budget.is_proved()
            && self.state.is_proved()
    }

    /// All diagnostics from analyses the policy requires, each once
    /// (delivery embeds the termination findings).
    pub fn errors(&self) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = Vec::new();
        let mut push = |required: bool, outcome: &Outcome| {
            if let (true, Outcome::Rejected(errs)) = (required, outcome) {
                for d in errs {
                    if !out.contains(d) {
                        out.push(d.clone());
                    }
                }
            }
        };
        push(self.policy.require_termination, &self.termination);
        push(self.policy.require_delivery, &self.delivery);
        push(self.policy.require_linear_duplication, &self.duplication);
        push(true, &self.budget);
        push(true, &self.state);
        out
    }

    /// The warnings among [`VerifyReport::diagnostics`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == crate::diag::Severity::Warning)
    }

    /// Appends the byte-stable JSON form of the report to `out`:
    /// `{"accepted":…,"verdicts":{"termination","delivery",
    /// "duplication","budget","state"},"state_bound":n|null,
    /// "channels":[{"name","overload","steps","sends"}…],
    /// "diagnostics":[…],"exhaustive":{…}}`. `src` resolves
    /// diagnostic spans to line/column positions.
    pub fn write_json(&self, src: &str, out: &mut String) {
        use std::fmt::Write as _;
        let v = |o: &Outcome| if o.is_proved() { "proved" } else { "rejected" };
        let _ = write!(out, "{{\"accepted\":{}", self.accepted());
        let _ = write!(
            out,
            ",\"verdicts\":{{\"termination\":\"{}\",\"delivery\":\"{}\",\"duplication\":\"{}\",\"budget\":\"{}\",\"state\":\"{}\"}}",
            v(&self.termination),
            v(&self.delivery),
            v(&self.duplication),
            v(&self.budget),
            v(&self.state)
        );
        match self.state_bound {
            Some(n) => {
                let _ = write!(out, ",\"state_bound\":{n}");
            }
            None => out.push_str(",\"state_bound\":null"),
        }
        out.push_str(",\"channels\":[");
        for (i, c) in self.cost.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            planp_telemetry::json::push_str(out, &c.name);
            let _ = write!(
                out,
                ",\"overload\":{},\"steps\":{},\"sends\":{}}}",
                c.overload, c.bound.steps, c.bound.sends
            );
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.write_json(src, out);
        }
        out.push_str("],\"exhaustive\":");
        match &self.exhaustive {
            Some(mc) => mc.write_json(src, out),
            None => out.push_str("null"),
        }
        out.push('}');
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = |o: &Outcome| {
            if o.is_proved() {
                "proved"
            } else {
                "NOT PROVED"
            }
        };
        writeln!(f, "termination:  {}", s(&self.termination))?;
        writeln!(f, "delivery:     {}", s(&self.delivery))?;
        writeln!(f, "duplication:  {}", s(&self.duplication))?;
        if let Some(mc) = &self.exhaustive {
            writeln!(
                f,
                "exhaustive:   termination {}, delivery {} ({} state(s), {} transition(s){})",
                mc.termination.as_str(),
                mc.delivery.as_str(),
                mc.states,
                mc.transitions,
                if mc.exhausted {
                    ", budget exhausted"
                } else {
                    ""
                }
            )?;
        }
        match self.policy.max_steps_per_packet {
            Some(limit) => writeln!(
                f,
                "step budget:  {} (worst case {} of {} allowed)",
                if self.budget.is_proved() {
                    "within"
                } else {
                    "EXCEEDED"
                },
                self.cost.max_steps(),
                limit
            )?,
            None => writeln!(
                f,
                "step budget:  none (worst case {} steps/packet)",
                self.cost.max_steps()
            )?,
        }
        let bound = match self.state_bound {
            Some(n) => format!("<= {n} entries"),
            None => "unbounded".to_string(),
        };
        match self.policy.max_state_entries {
            Some(limit) => writeln!(
                f,
                "state budget: {} ({} of {} allowed)",
                if self.state.is_proved() {
                    "within"
                } else {
                    "EXCEEDED"
                },
                bound,
                limit
            )?,
            None => writeln!(
                f,
                "state bound:  {}{}",
                bound,
                if self.state.is_proved() {
                    ""
                } else {
                    " (REJECTED)"
                }
            )?,
        }
        writeln!(
            f,
            "verdict:      {}",
            if self.accepted() {
                "ACCEPTED"
            } else {
                "REJECTED"
            }
        )?;
        for c in &self.cost.channels {
            writeln!(f, "cost bound:   {}#{}: {}", c.name, c.overload, c.bound)?;
        }
        write!(f, "problem size: {}", self.stats)
    }
}

/// Runs all analyses against `prog` and evaluates them under `policy`.
pub fn verify(prog: &TProgram, policy: Policy) -> VerifyReport {
    let sum = summarize(prog);
    report_from(prog, &sum, policy, model_check(prog, &sum))
}

/// Evaluates every analysis under `policy`, deriving termination and
/// delivery from the model checker's report `mc`.
fn report_from(
    prog: &TProgram,
    sum: &ProgramSummary,
    policy: Policy,
    mc: ModelCheckReport,
) -> VerifyReport {
    let send_sites: usize = sum.channels.iter().map(|s| s.sites.len()).sum();
    let restart_sites: usize = sum
        .channels
        .iter()
        .flat_map(|s| s.sites.iter())
        .filter(|site| !site.is_progress())
        .count();
    let stats = AnalysisStats {
        channels: prog.channels.len(),
        send_sites,
        restart_sites,
        dup_iterations: sum.duplication.iterations,
    };
    let cost = cost_bounds(prog);
    let budget = check_budget(prog, &cost, policy.max_steps_per_packet);
    let state = check_state(prog, sum, policy);
    let state_bound = sum.state.entry_bound();
    let duplication = check_duplication(prog, sum);
    let termination = outcome_of(&mc, mc.termination, mc.loop_witnesses());
    let delivery = outcome_of(&mc, mc.delivery, mc.witnesses.iter());
    let mut report = VerifyReport {
        termination,
        delivery,
        duplication,
        budget,
        state,
        state_bound,
        state_effects: sum.state.clone(),
        cost,
        diagnostics: lint(prog, sum, policy),
        policy,
        stats,
        exhaustive: Some(mc),
    };
    // The lint findings plus every rejection the policy acts on.
    let errors = report.errors();
    report.diagnostics.extend(errors);
    report
        .diagnostics
        .sort_by_key(|d| (d.span.start, d.span.end, d.code));
    report
}

/// Folds one of `mc`'s verdicts into an outcome, failing closed: only
/// `Proved` proves. A violation rejects with its `witnesses`; a run the
/// state budget cut short proved nothing, so it rejects too and says
/// why.
fn outcome_of<'a>(
    mc: &ModelCheckReport,
    verdict: Verdict,
    witnesses: impl Iterator<Item = &'a Witness>,
) -> Outcome {
    if verdict.is_proved() {
        return Outcome::Proved;
    }
    let mut errs: Vec<Diagnostic> = witnesses.map(Witness::to_diagnostic).collect();
    if mc.exhausted {
        errs.push(Diagnostic::error(
            "E005",
            Span::dummy(),
            format!(
                "state exploration exhausted its {}-state budget before proving termination",
                mc.budget
            ),
        ));
    }
    Outcome::Rejected(errs)
}

/// Evaluates state safety: `E009` for tables the analysis cannot bound,
/// `E010` for a composed entry bound over the policy's state budget.
fn check_state(prog: &TProgram, sum: &ProgramSummary, policy: Policy) -> Outcome {
    if !policy.require_bounded_state && policy.max_state_entries.is_none() {
        return Outcome::Proved;
    }
    let st = &sum.state;
    let mut errs = Vec::new();
    for t in st.unbounded_tables() {
        let span = t
            .first_packet_write
            .or(t.first_write)
            .unwrap_or_else(|| prog.channels[0].span);
        let mut d = Diagnostic::error(
            "E009",
            span,
            format!(
                "table `{}` grows without bound: packet-derived key with no eviction on any path",
                t.display
            ),
        )
        .note("every new key inserts an entry that is never removed");
        if t.eviction {
            d = d.note(
                "the program evicts, but the table's capacity could not be resolved to a \
                 constant `mkTable(n)`",
            );
        } else {
            d = d.note(
                "evict with `tblDel`/`tblClear` on some path (and declare a capacity with \
                 `mkTable(n)`), or key the table on a finite domain",
            );
        }
        errs.push(d);
    }
    if let (Some(limit), Some(total)) = (policy.max_state_entries, st.entry_bound()) {
        if total > limit {
            // Point at the biggest contributor.
            let worst = st
                .tables
                .iter()
                .max_by_key(|t| t.bound.entries().unwrap_or(0))
                .expect("a positive bound implies at least one table");
            let span = worst.first_write.unwrap_or_else(|| prog.channels[0].span);
            errs.push(
                Diagnostic::error(
                    "E010",
                    span,
                    format!(
                        "composed state bound of {total} entries exceeds the budget of {limit}"
                    ),
                )
                .note(format!(
                    "largest contributor: table `{}` with up to {} entries",
                    worst.display,
                    worst.bound.entries().unwrap_or(0)
                )),
            );
        }
    }
    if errs.is_empty() {
        Outcome::Proved
    } else {
        Outcome::Rejected(errs)
    }
}

/// Evaluates the per-packet step budget against the static bounds.
fn check_budget(prog: &TProgram, cost: &CostReport, limit: Option<u64>) -> Outcome {
    let Some(limit) = limit else {
        return Outcome::Proved;
    };
    let errs: Vec<Diagnostic> = cost
        .channels
        .iter()
        .zip(&prog.channels)
        .filter(|(c, _)| c.bound.steps > limit)
        .map(|(c, ch)| {
            Diagnostic::error(
                "E004",
                ch.span,
                format!(
                    "channel `{}` may cost {} steps per packet, exceeding the budget of {}",
                    c.name, c.bound.steps, limit
                ),
            )
        })
        .collect();
    if errs.is_empty() {
        Outcome::Proved
    } else {
        Outcome::Rejected(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;

    fn report(src: &str, policy: Policy) -> VerifyReport {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        verify(&tp, policy)
    }

    const GOOD: &str = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                        (OnRemote(network, p); (ps, ss))";

    const DROPPER: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                           if ps > 0 then (OnRemote(network, p); (ps, ss)) else (ps, ss)";

    #[test]
    fn good_program_accepted_under_strict() {
        let r = report(GOOD, Policy::strict());
        assert!(r.accepted(), "{r}");
        assert!(r.errors().is_empty());
    }

    #[test]
    fn dropper_rejected_under_strict_but_ok_without_delivery() {
        let r = report(DROPPER, Policy::strict());
        assert!(!r.accepted());
        assert!(!r.errors().is_empty());
        let r = report(DROPPER, Policy::no_delivery());
        assert!(r.accepted(), "{r}");
    }

    #[test]
    fn authenticated_accepts_anything() {
        let r = report(PING_PONG, Policy::authenticated());
        assert!(r.accepted());
        // The analyses still ran and report the problem informationally.
        assert!(!r.termination.is_proved());
        assert!(r.errors().is_empty());
    }

    #[test]
    fn display_summarizes() {
        let r = report(GOOD, Policy::strict());
        let s = r.to_string();
        assert!(s.contains("ACCEPTED"));
        assert!(s.contains("termination:  proved"));
        assert!(s.contains("cost bound:   network#0: <="), "{s}");
        assert!(
            s.contains("problem size: 1 channel(s), 1 send site(s)"),
            "{s}"
        );
    }

    #[test]
    fn step_budget_enforced() {
        let generous = report(GOOD, Policy::strict().with_step_budget(1_000));
        assert!(generous.accepted(), "{generous}");
        let tight = report(GOOD, Policy::strict().with_step_budget(1));
        assert!(!tight.accepted());
        assert!(tight.errors().iter().any(|e| e.message.contains("budget")));
        assert!(tight.diagnostics.iter().any(|d| d.code == "E004"));
        assert!(tight.to_string().contains("step budget:  EXCEEDED"));
        // Even an authenticated download must respect an explicit budget.
        let auth = report(GOOD, Policy::authenticated().with_step_budget(1));
        assert!(!auth.accepted());
    }

    const LEAKY: &str = "channel network(ps : unit, ss : (host, int) hash_table, \
                         p : ip*udp*blob) is\n\
                         (tblSet(ss, ipSrc(#1 p), 1); OnRemote(network, p); (ps, ss))";

    const EVICTING: &str = "channel network(ps : unit, ss : (host, int) hash_table, \
                            p : ip*udp*blob)\n\
                            initstate mkTable(32) is\n\
                            (tblSet(ss, ipSrc(#1 p), 1); tblDel(ss, ipSrc(#1 p));\n\
                             OnRemote(network, p); (ps, ss))";

    #[test]
    fn unbounded_state_rejected_only_under_bounded_state_policy() {
        let lax = report(LEAKY, Policy::no_delivery());
        assert!(lax.accepted(), "{lax}");
        assert_eq!(lax.state_bound, None);
        let r = report(LEAKY, Policy::no_delivery().with_bounded_state());
        assert!(!r.accepted());
        assert!(r.diagnostics.iter().any(|d| d.code == "E009"), "{r}");
        assert!(r.errors().iter().any(|e| e.code == "E009"));
        assert!(r.to_string().contains("state bound:  unbounded (REJECTED)"));
    }

    #[test]
    fn declared_capacity_with_eviction_passes_bounded_state() {
        let r = report(EVICTING, Policy::no_delivery().with_bounded_state());
        assert!(r.accepted(), "{r}");
        assert_eq!(r.state_bound, Some(32));
    }

    #[test]
    fn state_budget_enforced() {
        let generous = report(EVICTING, Policy::no_delivery().with_state_budget(100));
        assert!(generous.accepted(), "{generous}");
        assert!(generous.to_string().contains("state budget: within"));
        let tight = report(EVICTING, Policy::no_delivery().with_state_budget(8));
        assert!(!tight.accepted());
        assert!(
            tight.diagnostics.iter().any(|d| d.code == "E010"),
            "{tight}"
        );
        assert!(tight.to_string().contains("state budget: EXCEEDED"));
        // Even an authenticated download must respect an explicit budget.
        let auth = report(LEAKY, Policy::authenticated().with_state_budget(8));
        assert!(!auth.accepted());
        assert!(auth.diagnostics.iter().any(|d| d.code == "E009"));
    }

    #[test]
    fn report_carries_lint_diagnostics() {
        let src = "val dead : int = 7\n\
                   channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))";
        let r = report(src, Policy::strict());
        assert!(r.accepted(), "warnings do not reject");
        assert_eq!(r.warnings().count(), 1);
        assert_eq!(r.diagnostics[0].code, "L001");
    }

    #[test]
    fn rejections_become_error_diagnostics() {
        let r = report(DROPPER, Policy::strict());
        assert!(!r.accepted());
        assert!(r.diagnostics.iter().any(|d| d.code == "E006"));
        // The same rejection is not duplicated across codes.
        let msgs: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| (d.span.start, d.message.clone()))
            .collect();
        let mut deduped = msgs.clone();
        deduped.dedup();
        assert_eq!(msgs, deduped);
    }

    const PINNED_RELAY: &str = "channel relay(ps : unit, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(relay, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps, ss))\n\
         channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(relay, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps, ss))";

    const PING_PONG: &str = "channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(b, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))\n\
         channel b(ps : unit, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(a, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))";

    #[test]
    fn repinning_relay_accepted_under_strict() {
        // A destination-changing send on a cycle, but every hop
        // re-asserts the same constant: the checker tracks the value.
        let r = report(PINNED_RELAY, Policy::strict());
        assert!(r.accepted(), "{r}");
        assert!(r.errors().is_empty());
        let mc = r.exhaustive.as_ref().unwrap();
        assert!(mc.termination.is_proved());
        assert!(r.to_string().contains("exhaustive:   termination proved"));
    }

    #[test]
    fn violations_attach_witness_diagnostics() {
        let r = report(PING_PONG, Policy::strict());
        assert!(!r.accepted());
        let errs = r.errors();
        assert!(errs.iter().any(|e| e.code == "E005"), "{errs:?}");
        assert!(errs
            .iter()
            .any(|e| e.notes.iter().any(|n| n.starts_with("hop 1:"))));
        assert!(r.diagnostics.iter().any(|d| d.code == "E005"));
    }

    #[test]
    fn inconclusive_exploration_fails_closed() {
        // A report as the explorer leaves it when the state budget runs
        // out on a program with no definite delivery violation.
        let tp = compile_front(PINNED_RELAY).unwrap();
        let sum = summarize(&tp);
        let cut_short = || ModelCheckReport {
            termination: Verdict::Inconclusive,
            delivery: Verdict::Inconclusive,
            exhausted: true,
            ..model_check(&tp, &sum)
        };
        for policy in [Policy::strict(), Policy::no_delivery()] {
            let r = report_from(&tp, &sum, policy, cut_short());
            assert!(!r.accepted(), "{r}");
            let errs = r.errors();
            assert!(
                errs.iter()
                    .any(|e| e.code == "E005" && e.message.contains("exhausted its 65536-state")),
                "{errs:?}"
            );
            assert!(r.diagnostics.iter().any(|d| d.code == "E005"));
        }
        let r = report_from(&tp, &sum, Policy::authenticated(), cut_short());
        assert!(r.accepted(), "{r}");
        assert!(!r.termination.is_proved());
        assert!(!r.delivery.is_proved());
        assert!(r.to_string().contains("budget exhausted"), "{r}");
    }

    #[test]
    fn report_json_carries_verdicts_and_exhaustive() {
        let r = report(GOOD, Policy::strict());
        let mut out = String::new();
        r.write_json(GOOD, &mut out);
        assert!(
            out.contains("\"verdicts\":{\"termination\":\"proved\",\"delivery\":\"proved\",\"duplication\":\"proved\",\"budget\":\"proved\",\"state\":\"proved\"}"),
            "{out}"
        );
        assert!(out.contains("\"state_bound\":0"), "{out}");
        assert!(
            out.contains("\"exhaustive\":{\"termination\":\"proved\""),
            "{out}"
        );
    }

    #[test]
    fn analysis_stats_display() {
        let r = report(GOOD, Policy::strict());
        let s = r.stats.to_string();
        assert!(s.contains("1 channel(s)"), "{s}");
        assert!(s.contains("fix-point iteration(s)"), "{s}");
    }
}
