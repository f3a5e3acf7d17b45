//! Plan-level static verification: placement, composition, budgets,
//! and lints over a whole deployment.
//!
//! A deployment plan (parsed by `planp_lang::plan`) names a topology,
//! maps traffic classes to ASPs, and targets topology *slices*. This
//! module turns that description into checked facts **before** anything
//! installs:
//!
//! * **placement** — [`PlanCheck::new`] resolves every `deploy` to
//!   concrete install points over a [`TopoSpec`] (`on <slice>`
//!   installs everywhere in the slice; `on one(<slice>)` picks the
//!   slice node covering the most plan paths);
//! * **cross-ASP interaction** — [`PlanCheck::verify`] runs the
//!   [product model check](crate::compose) over the co-deployed ASPs'
//!   send-site summaries, rejecting joint forwarding loops (`E007`)
//!   that no single-program check can see, with minimal witnesses;
//! * **path CPU budgets** — per-channel worst-case step bounds
//!   ([`crate::cost`]) compose along every plan path into a
//!   network-wide per-packet budget, enforced against the plan's
//!   `budget steps` line (`E008`);
//! * **node state budgets** — per-ASP table-entry bounds
//!   ([`crate::state`]) compose *per node* across co-resident ASPs,
//!   enforced against the plan's `budget state` line (`E010`; an ASP
//!   with unbounded state always rejects under a state budget);
//! * **plan lints** — `P001` unreachable deploy, `P002` shadowed
//!   traffic class, `P003` uncovered class, `P004` dead install point,
//!   and `L008` (a send to a channel no co-deployed ASP handles).
//!
//! The result is a [`PlanReport`] with byte-stable JSON, mirroring the
//! per-program [`crate::verifier`] report shape.

use crate::compose::product_check;
use crate::cost::{cost_bounds, CostReport};
use crate::diag::{Diagnostic, Severity};
use crate::modelcheck::{Verdict, DEFAULT_STATE_BUDGET};
use crate::summary::{summarize, ProgramSummary};
use crate::witness::Witness;
use netsim::topo::{NextHops, Rows, TopoSpec};
use planp_lang::ast::Name;
use planp_lang::plan::{PlanAst, SliceMode};
use planp_lang::span::Span;
use planp_lang::{LangError, TProgram};
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

/// Appends the route `from → … → to` (inclusive) to `hops` and returns
/// where it sits there, or `None` (appending nothing) if `to` is
/// unreachable.
fn route(routes: &NextHops, from: usize, to: usize, hops: &mut Vec<usize>) -> Option<Range<usize>> {
    let first = hops.len();
    let next = |&at: &usize| routes.hop(at, to).map(|(n, _)| n);
    hops.extend(std::iter::successors(Some(from), next));
    if hops.last() == Some(&to) {
        return Some(first..hops.len());
    }
    hops.truncate(first);
    None
}

/// Plan-scope acceptance policy, the plan-level analogue of the
/// per-program download [`crate::Policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPolicy {
    /// Reject the plan unless joint termination is proved (`E007`).
    pub require_joint_termination: bool,
    /// Reject any path whose composed worst-case step budget exceeds
    /// this (`E008`). Set by the plan's `budget steps` line.
    pub max_path_steps: Option<u64>,
    /// Reject any node whose co-resident ASPs compose a table-entry
    /// bound over this (`E010`). Set by the plan's `budget state` line.
    pub max_node_state_entries: Option<u64>,
}

impl PlanPolicy {
    /// The default: joint termination must be proved.
    pub fn strict() -> Self {
        PlanPolicy {
            require_joint_termination: true,
            max_path_steps: None,
            max_node_state_entries: None,
        }
    }

    /// Authenticated deployments: joint loops are reported but do not
    /// reject (explicit step budgets still do, as for `E004`).
    pub fn authenticated() -> Self {
        PlanPolicy {
            require_joint_termination: false,
            ..PlanPolicy::strict()
        }
    }

    /// Resolves a plan-source policy name.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "strict" => Some(PlanPolicy::strict()),
            "authenticated" => Some(PlanPolicy::authenticated()),
            _ => None,
        }
    }
}

/// One compiled ASP as the plan verifier sees it: channel names, the
/// send-site summary, and the per-channel cost bounds.
#[derive(Debug, Clone)]
pub struct PlanAsp {
    /// ASP name (as referenced by the plan's `deploy` lines).
    pub name: Rc<str>,
    /// `(channel name, overload index)` per channel, parallel to the
    /// summary.
    pub channels: Vec<(Name, u32)>,
    /// Send-site abstraction per channel.
    pub summary: ProgramSummary,
    /// Worst-case step/send bounds per channel.
    pub cost: CostReport,
}

impl PlanAsp {
    /// Summarizes a compiled program for plan-level checking.
    pub fn from_program(name: impl Into<Rc<str>>, prog: &TProgram) -> Self {
        PlanAsp {
            name: name.into(),
            channels: prog
                .channels
                .iter()
                .map(|c| (c.name.clone(), c.overload))
                .collect(),
            summary: summarize(prog),
            cost: cost_bounds(prog),
        }
    }

    /// The worst-case single-dispatch step bound over all channels.
    pub fn max_steps(&self) -> u64 {
        self.cost.max_steps()
    }

    /// The composed table-entry bound over all of this ASP's tables
    /// (`None` means some table is unbounded). See [`crate::state`].
    pub fn entry_bound(&self) -> Option<u64> {
        self.summary.state.entry_bound()
    }
}

/// One resolved install point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Install {
    /// Index into the plan's `deploys` (and into the aligned ASP list).
    pub deploy: usize,
    /// Topology node index the ASP installs on.
    pub node: usize,
}

/// The composed worst-case budget of one plan path.
#[derive(Debug, Clone)]
pub struct PathBudget {
    /// Ingress node name.
    pub from: Rc<str>,
    /// Egress node name.
    pub to: Rc<str>,
    /// Route length in links.
    pub hops: usize,
    /// Worst-case VM steps a packet can cost along the route (the
    /// per-node max over co-resident ASP bounds, summed over every
    /// node past the ingress).
    pub steps: u64,
}

/// The composed worst-case table-entry footprint of one node.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Topology node name.
    pub node: Rc<str>,
    /// Sum of the co-resident ASPs' composed per-table entry bounds,
    /// or `None` when some resident ASP's state growth is unbounded.
    pub entries: Option<u64>,
}

/// A placed, verifiable deployment: the output of [`PlanCheck::new`],
/// ready for (repeatable) [`PlanCheck::verify`] runs. The fields are
/// public to be read; placement derives its indexes from them once, so
/// a different topology or install list is a new `PlanCheck`.
#[derive(Debug, Clone)]
pub struct PlanCheck {
    /// The parsed plan.
    pub plan: PlanAst,
    /// The topology it deploys over: the spec the simulator builds.
    pub topo: TopoSpec,
    /// Compiled ASPs, aligned with `plan.deploys`.
    pub asps: Vec<PlanAsp>,
    /// Resolved install points, grouped by deploy in plan order.
    pub installs: Vec<Install>,
    /// Resolved plan policy.
    pub policy: PlanPolicy,
    /// The route of each plan path, parallel to `topo.paths`; `None`
    /// where the egress is unreachable.
    routes: Vec<Option<Range<usize>>>,
    /// Every reachable plan path's route, `ingress → … → egress`, one
    /// after the other.
    route_hops: Vec<usize>,
    /// Per node, the installs resident on it, in install order.
    pub(crate) at_node: Rows,
    /// The topology's routes, as the simulator forwards them.
    pub(crate) next_hops: NextHops,
    /// `(address, node)` sorted by address, one entry per address: the
    /// first node holding it. Eight bytes an entry, so the product
    /// check's binary search per state stays in a few cache lines (the
    /// simulator numbers nodes in `u32` too).
    by_addr: Vec<(u32, u32)>,
}

impl PlanCheck {
    /// Resolves placement: checks the topology matches the plan, the
    /// ASP list is aligned with the deploys, and maps every `deploy`
    /// onto concrete install points.
    ///
    /// # Errors
    ///
    /// Rejects topology/plan name mismatches, misaligned ASP lists,
    /// and unknown policy names.
    pub fn new(plan: PlanAst, topo: TopoSpec, asps: Vec<PlanAsp>) -> Result<Self, LangError> {
        if *topo.name != *plan.topology {
            return Err(LangError::verify(
                format!(
                    "plan `{}` targets topology `{}` but was given `{}`",
                    plan.name, plan.topology, topo.name
                ),
                Span::dummy(),
            ));
        }
        if asps.len() != plan.deploys.len() {
            return Err(LangError::verify(
                format!(
                    "plan `{}` has {} deploy(s) but {} compiled ASP(s) were supplied",
                    plan.name,
                    plan.deploys.len(),
                    asps.len()
                ),
                Span::dummy(),
            ));
        }
        for (d, a) in plan.deploys.iter().zip(&asps) {
            if *d.asp != *a.name {
                return Err(LangError::verify(
                    format!("deploy expects ASP `{}` but got `{}`", d.asp, a.name),
                    d.span,
                ));
            }
        }
        let mut policy = match plan.policy.as_deref() {
            None => PlanPolicy::strict(),
            Some(name) => PlanPolicy::named(name).ok_or_else(|| {
                LangError::verify(format!("unknown plan policy `{name}`"), Span::dummy())
            })?,
        };
        if plan.budget_steps.is_some() {
            policy.max_path_steps = plan.budget_steps;
        }
        if plan.budget_state.is_some() {
            policy.max_node_state_entries = plan.budget_state;
        }

        let next_hops = NextHops::new(topo.adjacency());
        let mut route_hops = Vec::new();
        let routes: Vec<Option<Range<usize>>> = (topo.paths.iter())
            .map(|&(a, b)| route(&next_hops, a, b, &mut route_hops))
            .collect();

        // Route coverage: how many plan paths route *through* each node
        // (ingress excluded — a node's hook never sees the traffic it
        // originates).
        let mut coverage = vec![0usize; topo.nodes.len()];
        for route in routes.iter().flatten() {
            for &n in &route_hops[route.start + 1..route.end] {
                coverage[n] += 1;
            }
        }

        let mut installs = Vec::new();
        for (di, d) in plan.deploys.iter().enumerate() {
            let nodes = topo.slice(&d.slice);
            match d.mode {
                SliceMode::All => {
                    installs.extend(nodes.into_iter().map(|n| Install {
                        deploy: di,
                        node: n,
                    }));
                }
                SliceMode::One => {
                    // The slice node covering the most plan paths;
                    // ties break toward the lowest node index.
                    if let Some(&n) = nodes
                        .iter()
                        .max_by_key(|&&n| (coverage[n], std::cmp::Reverse(n)))
                    {
                        installs.push(Install {
                            deploy: di,
                            node: n,
                        });
                    }
                }
            }
        }

        let at_node = Rows::new(topo.nodes.len(), installs.iter().map(|i| i.node).zip(0..));
        // A stable sort keeps the nodes of one address in node order, so
        // the entry `dedup` keeps is the first node.
        let mut by_addr: Vec<(u32, u32)> = topo.nodes.iter().map(|n| n.addr).zip(0..).collect();
        by_addr.sort_by_key(|&(addr, _)| addr);
        by_addr.dedup_by_key(|&mut (addr, _)| addr);

        Ok(PlanCheck {
            plan,
            topo,
            asps,
            installs,
            policy,
            routes,
            route_hops,
            at_node,
            next_hops,
            by_addr,
        })
    }

    /// Each plan path's route, `ingress → … → egress`; `None` where the
    /// egress is unreachable.
    pub(crate) fn routes(&self) -> impl Iterator<Item = Option<&[usize]>> {
        (self.routes.iter()).map(|r| r.clone().map(|r| &self.route_hops[r]))
    }

    /// The node holding address `a`, if any; the first in node order
    /// where several do.
    pub(crate) fn node_by_addr(&self, a: u32) -> Option<usize> {
        let at = self.by_addr.binary_search_by_key(&a, |&(addr, _)| addr);
        at.ok().map(|i| self.by_addr[i].1 as usize)
    }

    /// The installs of each deploy as a range of `installs`, which
    /// placement fills one deploy after the other.
    fn installs_by_deploy(&self) -> Vec<Range<usize>> {
        let mut ranges = vec![0..0; self.plan.deploys.len()];
        for (ii, ins) in self.installs.iter().enumerate() {
            let r = &mut ranges[ins.deploy];
            if r.start == r.end {
                r.start = ii;
            }
            r.end = ii + 1;
        }
        ranges
    }

    /// Runs the plan-level verification: product model check, path
    /// budget composition, and the plan lints.
    pub fn verify(&self) -> PlanReport {
        let spans: Vec<Span> = self
            .installs
            .iter()
            .map(|i| self.plan.deploys[i.deploy].span)
            .collect();
        let compose = product_check(self, &spans);
        let name = |n: usize| &self.topo.nodes[n].name;

        let mut diagnostics = Vec::new();

        // --- path budgets (E008) ---------------------------------
        let max_steps: Vec<u64> = self.asps.iter().map(PlanAsp::max_steps).collect();
        let mut budgets = Vec::new();
        for (&(a, b), route) in self.topo.paths.iter().zip(self.routes()) {
            let Some(route) = route else {
                continue;
            };
            let mut steps = 0u64;
            let mut worst: Option<(u64, usize)> = None;
            for &n in &route[1..] {
                let node_worst = self.at_node[n]
                    .iter()
                    .map(|&ii| (max_steps[self.installs[ii].deploy], ii))
                    .max();
                if let Some((c, ii)) = node_worst {
                    steps = steps.saturating_add(c);
                    if worst.is_none_or(|(w, _)| c > w) {
                        worst = Some((c, ii));
                    }
                }
            }
            budgets.push(PathBudget {
                from: name(a).clone(),
                to: name(b).clone(),
                hops: route.len() - 1,
                steps,
            });
            if let Some(limit) = self.policy.max_path_steps {
                if steps > limit {
                    let span = worst.map(|(_, ii)| spans[ii]).unwrap_or_else(Span::dummy);
                    diagnostics.push(
                        Diagnostic::error(
                            "E008",
                            span,
                            format!(
                                "path {} -> {} composes a worst-case budget of {steps} steps, \
                                 exceeding the plan budget of {limit}",
                                name(a),
                                name(b)
                            ),
                        )
                        .note(format!(
                            "the budget sums, per node past the ingress, the costliest \
                             co-resident channel bound ({} node(s) on this route)",
                            route.len() - 1
                        )),
                    );
                }
            }
        }

        // --- node state budgets (E010) ----------------------------
        let entry_bounds: Vec<Option<u64>> = self.asps.iter().map(PlanAsp::entry_bound).collect();
        let mut node_state = Vec::new();
        for (n, nd) in self.topo.nodes.iter().enumerate() {
            let resident = &self.at_node[n];
            if resident.is_empty() {
                continue;
            }
            let mut entries = Some(0u64);
            let mut worst: Option<(u64, usize)> = None;
            let mut unbounded: Option<usize> = None;
            for &ii in resident {
                match entry_bounds[self.installs[ii].deploy] {
                    Some(e) => {
                        entries = entries.map(|t| t.saturating_add(e));
                        if worst.is_none_or(|(w, _)| e > w) {
                            worst = Some((e, ii));
                        }
                    }
                    None => {
                        entries = None;
                        unbounded.get_or_insert(ii);
                    }
                }
            }
            node_state.push(NodeState {
                node: nd.name.clone(),
                entries,
            });
            if let Some(limit) = self.policy.max_node_state_entries {
                match entries {
                    None => {
                        let ii = unbounded.expect("entries is None only via an unbounded ASP");
                        diagnostics.push(
                            Diagnostic::error(
                                "E010",
                                spans[ii],
                                format!(
                                    "node {} installs `{}`, whose table growth is unbounded, \
                                     under a plan state budget of {limit} entries",
                                    nd.name, self.asps[self.installs[ii].deploy].name
                                ),
                            )
                            .note(
                                "an ASP without a finite entry bound cannot satisfy any state \
                                 budget; evict with a constant capacity or key its tables on \
                                 a finite domain",
                            ),
                        );
                    }
                    Some(total) if total > limit => {
                        let span = worst.map(|(_, ii)| spans[ii]).unwrap_or_else(Span::dummy);
                        diagnostics.push(
                            Diagnostic::error(
                                "E010",
                                span,
                                format!(
                                    "node {} composes a worst-case state footprint of {total} \
                                     table entries across {} co-resident install(s), exceeding \
                                     the plan budget of {limit}",
                                    nd.name,
                                    resident.len()
                                ),
                            )
                            .note(
                                "the budget sums each co-resident ASP's composed per-table \
                                 entry bound",
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }

        // --- joint-loop rejection (E007) --------------------------
        if self.policy.require_joint_termination {
            for w in &compose.witnesses {
                diagnostics.push(w.to_diagnostic());
            }
            if compose.exhausted {
                diagnostics.push(Diagnostic::error(
                    "E007",
                    Span::dummy(),
                    format!(
                        "joint exploration exhausted its {DEFAULT_STATE_BUDGET}-state budget before \
                         proving termination"
                    ),
                ));
            }
        }

        self.lint_into(&mut diagnostics);

        diagnostics.sort_by_key(|d| (d.span.start, d.span.end, d.code));

        PlanReport {
            plan: self.plan.name.clone(),
            topology: self.topo.name.clone(),
            policy: self.policy,
            joint: compose.verdict,
            states: compose.states,
            transitions: compose.transitions,
            budget: DEFAULT_STATE_BUDGET,
            exhausted: compose.exhausted,
            witnesses: compose.witnesses,
            budgets,
            node_state,
            installs: self
                .installs
                .iter()
                .map(|i| (name(i.node).clone(), self.asps[i.deploy].name.clone()))
                .collect(),
            diagnostics,
        }
    }

    /// The plan lints: P001 unreachable deploy, P002 shadowed class,
    /// P003 uncovered class, P004 dead install point, L008 unhandled
    /// cross-channel send.
    fn lint_into(&self, diagnostics: &mut Vec<Diagnostic>) {
        let covered: Vec<bool> = {
            let mut c = vec![false; self.topo.nodes.len()];
            for route in self.routes().flatten() {
                for &n in &route[1..] {
                    c[n] = true;
                }
            }
            c
        };
        let by_deploy = self.installs_by_deploy();

        // P002: a class whose match duplicates an earlier one never
        // sees traffic.
        for (j, cj) in self.plan.classes.iter().enumerate() {
            if let Some(ci) = self.plan.classes[..j].iter().find(|ci| ci.port == cj.port) {
                let what = match cj.port {
                    Some(p) => format!("port {p}"),
                    None => "the wildcard match".to_string(),
                };
                diagnostics.push(
                    Diagnostic::warning(
                        "P002",
                        cj.span,
                        format!(
                            "class `{}` is shadowed by earlier class `{}` ({what})",
                            cj.name, ci.name
                        ),
                    )
                    .note("traffic matches the first class declared; this one is dead"),
                );
            }
        }

        // P003: a class no deploy references.
        for c in &self.plan.classes {
            if !self.plan.deploys.iter().any(|d| d.class == c.name) {
                diagnostics.push(
                    Diagnostic::warning(
                        "P003",
                        c.span,
                        format!("traffic class `{}` is not covered by any deploy", c.name),
                    )
                    .note("its traffic crosses the network with no ASP attached"),
                );
            }
        }

        for (di, d) in self.plan.deploys.iter().enumerate() {
            let my_installs = &self.installs[by_deploy[di].clone()];

            // P001: the deploy resolves to nothing reachable.
            if my_installs.is_empty() {
                diagnostics.push(
                    Diagnostic::warning(
                        "P001",
                        d.span,
                        format!(
                            "deploy of `{}` targets slice `{}`, which has no nodes in \
                             topology `{}`",
                            d.asp, d.slice, self.topo.name
                        ),
                    )
                    .note("the ASP installs nowhere"),
                );
                continue;
            }
            if my_installs.iter().all(|i| !covered[i.node]) {
                diagnostics.push(
                    Diagnostic::warning(
                        "P001",
                        d.span,
                        format!(
                            "deploy of `{}` is unreachable: no install point of slice `{}` \
                             lies on any plan path",
                            d.asp, d.slice
                        ),
                    )
                    .note("the ASP installs, but no planned traffic ever reaches it"),
                );
                continue;
            }

            // P004: individual install points off every path.
            let dead: Vec<&str> = my_installs
                .iter()
                .filter(|i| !covered[i.node])
                .map(|i| &*self.topo.nodes[i.node].name)
                .collect();
            if !dead.is_empty() {
                diagnostics.push(
                    Diagnostic::warning(
                        "P004",
                        d.span,
                        format!(
                            "dead install point(s) for `{}`: {} not on any plan path",
                            d.asp,
                            dead.join(", ")
                        ),
                    )
                    .note("shrink the slice or add paths through these nodes"),
                );
            }

            // L008: a send targeting a channel no co-deployed ASP
            // handles. `network` is the IP layer itself and `timer`
            // the runtime's timer queue, so both always have a
            // handler; a class with an `app` endpoint consumes
            // whatever reaches the application.
            let has_app = self
                .plan
                .classes
                .iter()
                .find(|c| c.name == d.class)
                .is_some_and(|c| c.app.is_some());
            if has_app {
                continue;
            }
            let mut warned: BTreeSet<&str> = BTreeSet::new();
            for es in &self.asps[di].summary.channels {
                for site in &es.sites {
                    let t = &*site.chan;
                    if t == "network" || t == "timer" || warned.contains(t) {
                        continue;
                    }
                    let handled = by_deploy.iter().enumerate().any(|(dj, placed)| {
                        let defines = self.asps[dj].channels.iter().any(|(n, _)| &**n == t);
                        !placed.is_empty() && defines && (dj != di || my_installs.len() >= 2)
                    });
                    if !handled {
                        warned.insert(t);
                        diagnostics.push(
                            Diagnostic::warning(
                                "L008",
                                d.span,
                                format!(
                                    "ASP `{}` sends on channel `{t}`, which no co-deployed \
                                     ASP handles in this plan",
                                    d.asp
                                ),
                            )
                            .note(format!(
                                "packets tagged `{t}` fall through to plain IP delivery; \
                                 deploy a handler or give class `{}` an app endpoint",
                                d.class
                            )),
                        );
                    }
                }
            }
        }
    }
}

/// The result of one plan-level verification run.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Plan name.
    pub plan: String,
    /// Topology name.
    pub topology: Rc<str>,
    /// The policy the plan was judged under.
    pub policy: PlanPolicy,
    /// Joint-termination verdict from the product check.
    pub joint: Verdict,
    /// Product states explored.
    pub states: usize,
    /// Product transitions explored.
    pub transitions: usize,
    /// The exploration's state budget.
    pub budget: usize,
    /// True if the budget stopped exploration early.
    pub exhausted: bool,
    /// Minimal `E007` witnesses (empty when proved).
    pub witnesses: Vec<Witness>,
    /// Composed worst-case budget per plan path.
    pub budgets: Vec<PathBudget>,
    /// Composed worst-case state footprint per node with installs.
    pub node_state: Vec<NodeState>,
    /// Resolved `(node, asp)` install points; the names are the
    /// topology's and the ASP list's own strings, shared.
    pub installs: Vec<(Rc<str>, Rc<str>)>,
    /// Errors and lint warnings, sorted by span then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanReport {
    /// Whether the deployment may proceed: joint termination holds
    /// when required, and nothing raised an error-severity diagnostic.
    pub fn accepted(&self) -> bool {
        (!self.policy.require_joint_termination || self.joint.is_proved())
            && !self
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error)
    }

    /// The worst composed path budget, in VM steps.
    pub fn max_budget(&self) -> u64 {
        self.budgets.iter().map(|b| b.steps).max().unwrap_or(0)
    }

    /// Errors only.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// Appends the byte-stable JSON form to `out`. Key order is fixed:
    /// `plan`, `topology`, `accepted`, `joint`, `states`,
    /// `transitions`, `budget`, `exhausted`, `installs`, `paths`,
    /// `state`, `witnesses`, `diagnostics`.
    pub fn write_json(&self, src: &str, out: &mut String) {
        use planp_telemetry::json::push_str;
        out.push_str("{\"plan\":");
        push_str(out, &self.plan);
        out.push_str(",\"topology\":");
        push_str(out, &self.topology);
        out.push_str(&format!(
            ",\"accepted\":{},\"joint\":\"{}\",\"states\":{},\"transitions\":{},\
             \"budget\":{},\"exhausted\":{}",
            self.accepted(),
            self.joint.as_str(),
            self.states,
            self.transitions,
            self.budget,
            self.exhausted
        ));
        out.push_str(",\"installs\":[");
        for (i, (node, asp)) in self.installs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"node\":");
            push_str(out, node);
            out.push_str(",\"asp\":");
            push_str(out, asp);
            out.push('}');
        }
        out.push_str("],\"paths\":[");
        for (i, b) in self.budgets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"from\":");
            push_str(out, &b.from);
            out.push_str(",\"to\":");
            push_str(out, &b.to);
            out.push_str(&format!(",\"hops\":{},\"steps\":{}}}", b.hops, b.steps));
        }
        out.push_str("],\"state\":[");
        for (i, ns) in self.node_state.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"node\":");
            push_str(out, &ns.node);
            match ns.entries {
                Some(e) => out.push_str(&format!(",\"entries\":{e}}}")),
                None => out.push_str(",\"entries\":null}"),
            }
        }
        out.push_str("],\"witnesses\":[");
        for (i, w) in self.witnesses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.write_json(src, out);
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.write_json(src, out);
        }
        out.push_str("]}");
    }

    /// Renders a human-readable summary; witnesses and diagnostics are
    /// resolved against the plan source `src`.
    pub fn render(&self, src: &str) -> String {
        let mut out = format!(
            "plan {} over {}: {}\n  joint termination: {} ({} states, {} transitions{})\n",
            self.plan,
            self.topology,
            if self.accepted() {
                "accepted"
            } else {
                "REJECTED"
            },
            self.joint.as_str(),
            self.states,
            self.transitions,
            if self.exhausted {
                ", budget exhausted"
            } else {
                ""
            }
        );
        out.push_str("  installs:");
        for (node, asp) in &self.installs {
            out.push_str(&format!(" {node}:{asp}"));
        }
        out.push('\n');
        for b in &self.budgets {
            out.push_str(&format!(
                "  path {} -> {}: {} hop(s), worst-case {} steps\n",
                b.from, b.to, b.hops, b.steps
            ));
        }
        for ns in &self.node_state {
            match ns.entries {
                Some(e) => out.push_str(&format!(
                    "  node {}: worst-case state <= {e} entries\n",
                    ns.node
                )),
                None => out.push_str(&format!("  node {}: state unbounded\n", ns.node)),
            }
        }
        for w in &self.witnesses {
            out.push_str(&w.render(src));
            out.push('\n');
        }
        for d in &self.diagnostics {
            out.push_str(&d.render(src));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelcheck::model_check;
    use bytes::Bytes;
    use netsim::topo::{TopoLink, TopoNode};
    use netsim::{App, ArrivalMeta, HookVerdict, LinkSpec, NodeApi, Packet, PacketHook, Sim};
    use planp_lang::{compile_front, parse_plan};
    use std::cell::RefCell;

    /// Each of these proves termination + delivery on its own (it
    /// re-pins the destination to one fixed host, which the single
    /// checker treats as progress once pinned) — yet deployed on
    /// opposite relays they bounce packets between each other forever.
    const BOUNCE_A: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if ipDst(#1 p) = thisHost()
  then (deliver(p); (ps, ss))
  else (OnRemote(network, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps + 1, ss))
";
    const BOUNCE_B: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if ipDst(#1 p) = thisHost()
  then (deliver(p); (ps, ss))
  else (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps + 1, ss))
";
    const FORWARDER: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
";

    fn ip(a: u32, b: u32, c: u32, d: u32) -> u32 {
        (a << 24) | (b << 16) | (c << 8) | d
    }

    fn asp(name: &str, src: &str) -> PlanAsp {
        PlanAsp::from_program(name, &compile_front(src).unwrap())
    }

    fn check(plan_src: &str, topo: TopoSpec, asps: Vec<PlanAsp>) -> PlanCheck {
        PlanCheck::new(parse_plan(plan_src).unwrap(), topo, asps).unwrap()
    }

    #[test]
    fn bounce_asps_prove_alone() {
        for src in [BOUNCE_A, BOUNCE_B] {
            let prog = compile_front(src).unwrap();
            let sum = summarize(&prog);
            let r = model_check(&prog, &sum);
            assert!(r.termination.is_proved(), "single-program termination");
            assert!(r.delivery.is_proved(), "single-program delivery");
        }
    }

    #[test]
    fn bounce_pair_jointly_loops() {
        let plan = "plan buggy_bounce
topology relay_pair
class data
deploy bounce_a for data on r1
deploy bounce_b for data on r2
";
        let pc = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("bounce_a", BOUNCE_A), asp("bounce_b", BOUNCE_B)],
        );
        assert_eq!(pc.installs.len(), 2);
        let report = pc.verify();
        assert_eq!(report.joint, Verdict::Violated);
        assert!(!report.accepted());
        assert_eq!(report.witnesses.len(), 1);
        let w = &report.witnesses[0];
        assert_eq!(w.code, "E007");
        // The cycle alternates between the two relays.
        let froms: Vec<&str> = w.hops.iter().map(|h| h.from.as_str()).collect();
        assert!(
            froms.iter().any(|f| f.starts_with("r1/network")),
            "{froms:?}"
        );
        assert!(
            froms.iter().any(|f| f.starts_with("r2/network")),
            "{froms:?}"
        );
        // Witness hop spans point at the plan's deploy lines.
        assert!(plan[w.span.start as usize..]
            .split('\n')
            .next()
            .unwrap()
            .starts_with("deploy"));
        // E007 also lands in the diagnostics under the strict policy.
        assert!(report.errors().iter().any(|d| d.code == "E007"));
    }

    #[test]
    fn forwarder_plan_proves_with_finite_budgets() {
        let plan = "plan relay
topology relay_pair
class data
deploy forwarder for data on relays
";
        let report = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("forwarder", FORWARDER)],
        )
        .verify();
        assert_eq!(report.joint, Verdict::Proved);
        assert!(report.accepted(), "{}", report.render(plan));
        assert_eq!(report.budgets.len(), 2);
        assert!(report.max_budget() > 0);
        // Each direction crosses both relays plus the egress host.
        assert_eq!(report.budgets[0].hops, 3);
    }

    #[test]
    fn budget_line_rejects_with_e008() {
        let plan = "plan relay
topology relay_pair
budget steps 1
class data
deploy forwarder for data on relays
";
        let report = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("forwarder", FORWARDER)],
        )
        .verify();
        assert!(!report.accepted());
        assert!(report.errors().iter().any(|d| d.code == "E008"));
        // The verdict itself is still proved — only the budget failed.
        assert_eq!(report.joint, Verdict::Proved);
    }

    /// Packet-keyed but evicting with a declared capacity: the state
    /// analysis gives it a Declared(32) entry bound.
    const STATEFUL: &str = "channel network(ps : int, ss : (host, int) hash_table, \
                            p : ip*udp*blob)\n\
                            initstate mkTable(32) is\n\
                            (tblSet(ss, ipSrc(#1 p), 1); tblDel(ss, ipSrc(#1 p));\n\
                             OnRemote(network, p); (ps + 1, ss))";

    /// Packet-keyed with no eviction anywhere: unbounded growth.
    const LEAKY: &str = "channel network(ps : int, ss : (host, int) hash_table, \
                         p : ip*udp*blob) is\n\
                         (tblSet(ss, ipSrc(#1 p), 1); OnRemote(network, p); (ps + 1, ss))";

    #[test]
    fn budget_state_line_rejects_with_e010() {
        let plan = "plan relay
topology relay_pair
budget state 1
class data
deploy stateful for data on relays
";
        let report = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("stateful", STATEFUL)],
        )
        .verify();
        assert!(!report.accepted(), "{}", report.render(plan));
        assert!(report.errors().iter().any(|d| d.code == "E010"));
        // Both relays carry the install, each composing 32 entries.
        assert_eq!(report.node_state.len(), 2);
        assert!(report.node_state.iter().all(|ns| ns.entries == Some(32)));
        // The verdict itself is still proved — only the state budget failed.
        assert_eq!(report.joint, Verdict::Proved);
    }

    #[test]
    fn budget_state_within_budget_accepts() {
        let plan = "plan relay
topology relay_pair
budget state 64
class data
deploy stateful for data on relays
";
        let report = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("stateful", STATEFUL)],
        )
        .verify();
        assert!(report.accepted(), "{}", report.render(plan));
        assert!(!report.diagnostics.iter().any(|d| d.code == "E010"));
        let rendered = report.render(plan);
        assert!(
            rendered.contains("node r1: worst-case state <= 32 entries"),
            "{rendered}"
        );
    }

    #[test]
    fn unbounded_asp_rejects_under_any_state_budget() {
        let plan = "plan relay
topology relay_pair
budget state 1000000
class data
deploy leaky for data on relays
";
        let report = check(plan, TopoSpec::relay_pair(), vec![asp("leaky", LEAKY)]).verify();
        assert!(!report.accepted());
        let errs = report.errors();
        let e = errs.iter().find(|d| d.code == "E010").expect("E010");
        assert!(e.message.contains("unbounded"), "{}", e.message);
        assert!(report.node_state.iter().all(|ns| ns.entries.is_none()));

        // Without a `budget state` line the footprint is still reported
        // but nothing rejects.
        let lax = "plan relay
topology relay_pair
class data
deploy leaky for data on relays
";
        let report = check(lax, TopoSpec::relay_pair(), vec![asp("leaky", LEAKY)]).verify();
        assert!(report.accepted(), "{}", report.render(lax));
        assert!(report.render(lax).contains("node r1: state unbounded"));
    }

    #[test]
    fn one_mode_picks_most_covered_node() {
        let plan = "plan relay
topology relay_pair
class data
deploy forwarder for data on one(relays)
";
        let pc = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("forwarder", FORWARDER)],
        );
        // Both relays cover both paths; the tie breaks to r1.
        assert_eq!(pc.installs, vec![Install { deploy: 0, node: 1 }]);
    }

    #[test]
    fn plan_lints_fire() {
        let plan = "plan lints
topology relay_pair
class data port 80
class dup port 80
class uncovered port 81
deploy forwarder for data on relays
deploy forwarder for data on nosuch
deploy forwarder for data on src
";
        let fw = || asp("forwarder", FORWARDER);
        let report = check(plan, TopoSpec::relay_pair(), vec![fw(), fw(), fw()]).verify();
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"P002"), "{codes:?}"); // dup shadows data
        assert!(codes.contains(&"P003"), "{codes:?}"); // uncovered has no deploy
        assert!(codes.contains(&"P001"), "{codes:?}"); // nosuch + src both unreachable
                                                       // src (the ingress) is never on a path route past the ingress.
        assert!(report.accepted(), "lints are warnings");
    }

    #[test]
    fn l008_flags_unhandled_channel_send() {
        // A single-node deploy that tags packets onto a channel nobody
        // else handles.
        let tagger = "channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(orphan, p); (ps + 1, ss))
channel orphan(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(orphan, p); (ps + 1, ss))
";
        let plan = "plan orphaned
topology relay_pair
class data
deploy tagger for data on r1
";
        let report = check(plan, TopoSpec::relay_pair(), vec![asp("tagger", tagger)]).verify();
        assert!(
            report.diagnostics.iter().any(|d| d.code == "L008"),
            "{}",
            report.render(plan)
        );

        // The same ASP on *both* relays handles its own channel.
        let plan2 = "plan paired
topology relay_pair
class data
deploy tagger for data on relays
";
        let report2 = check(plan2, TopoSpec::relay_pair(), vec![asp("tagger", tagger)]).verify();
        assert!(!report2.diagnostics.iter().any(|d| d.code == "L008"));
    }

    #[test]
    fn json_is_byte_stable() {
        let plan = "plan buggy_bounce
topology relay_pair
class data
deploy bounce_a for data on r1
deploy bounce_b for data on r2
";
        let pc = check(
            plan,
            TopoSpec::relay_pair(),
            vec![asp("bounce_a", BOUNCE_A), asp("bounce_b", BOUNCE_B)],
        );
        let mut a = String::new();
        pc.verify().write_json(plan, &mut a);
        let mut b = String::new();
        pc.verify().write_json(plan, &mut b);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"plan\":\"buggy_bounce\""));
        assert!(a.contains("\"accepted\":false"));
        assert!(a.contains("\"joint\":\"violated\""));
    }

    /// `n` routers named `m0`… joined by `links` in that order, with
    /// every ordered pair of nodes a plan path.
    fn mesh(name: &str, n: usize, links: &[(usize, usize)]) -> TopoSpec {
        let slices: Rc<[Rc<str>]> = Rc::from([]);
        let nodes = (0..n).map(|i| TopoNode {
            name: format!("m{i}").into(),
            addr: ip(10, 0, i as u32, 254),
            router: true,
            slices: slices.clone(),
        });
        let ends = |l: usize| TopoLink {
            spec: LinkSpec::ethernet_10(),
            ends: 2 * l..2 * l + 2,
        };
        let paths = (0..n).flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)));
        TopoSpec {
            name: name.into(),
            nodes: nodes.collect(),
            links: (0..links.len()).map(ends).collect(),
            link_ends: links.iter().flat_map(|&(a, b)| [a, b]).collect(),
            extra_routes: Vec::new(),
            paths: paths.collect(),
        }
    }

    /// The nodes a packet from `from` to `to` visits in `spec`'s
    /// simulator, `from` and `to` included.
    fn traced(spec: &TopoSpec, from: usize, to: usize) -> Vec<usize> {
        struct Log(Rc<RefCell<Vec<usize>>>);
        impl PacketHook for Log {
            fn on_packet(
                &mut self,
                api: &mut NodeApi<'_>,
                p: Packet,
                _: &ArrivalMeta,
            ) -> HookVerdict {
                self.0.borrow_mut().push(api.node_id().0);
                HookVerdict::Pass(p)
            }
        }
        struct Send(u32);
        impl App for Send {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.send(Packet::udp(api.addr(), self.0, 1, 80, Bytes::new()));
            }
            fn on_packet(&mut self, _: &mut NodeApi<'_>, _: Packet) {}
        }
        let mut sim = Sim::new(1);
        let ids = spec.build(&mut sim);
        let log = Rc::new(RefCell::new(vec![from]));
        for &id in &ids {
            sim.install_hook(id, Box::new(Log(log.clone())));
        }
        sim.add_app(ids[from], Box::new(Send(spec.nodes[to].addr)));
        sim.run_to_idle(1_000);
        log.take()
    }

    #[test]
    fn the_verifier_routes_what_the_simulator_forwards() {
        // Link orders under which a search from the destination meets a
        // node first from another neighbour than the one its own row
        // lists first.
        let cycle = mesh("cycle4", 4, &[(0, 1), (2, 3), (1, 2), (3, 0)]);
        let mut grid_links = Vec::new();
        for r in 0..3 {
            grid_links.extend((0..2).map(|c| (3 * c + r, 3 * c + r + 3)));
        }
        for r in 0..3 {
            grid_links.extend((0..2).map(|c| (3 * r + c + 1, 3 * r + c)));
        }
        let grid = mesh("grid3", 9, &grid_links);
        for spec in [cycle, grid] {
            let plan = format!(
                "plan p\ntopology {}\nclass data\ndeploy fwd for data on nosuch\n",
                spec.name
            );
            let pc = check(&plan, spec.clone(), vec![asp("fwd", FORWARDER)]);
            for (route, &(a, b)) in pc.routes().zip(&spec.paths) {
                let want = traced(&spec, a, b);
                assert_eq!(route, Some(&want[..]), "{}: {a} → {b}", spec.name);
            }
        }
    }
}
