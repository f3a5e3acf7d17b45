//! The plan verifier as it stood at commit 1d322cc, kept verbatim as
//! the reference `differential.rs` holds [`PlanCheck::verify`] to:
//! every route searched three times over a full-width table, installs
//! scanned per route hop and per node, a node found by address with a
//! linear scan, one next-hop table of every node per routed-to target,
//! a tag `String` per explored state. Two things differ: names are
//! shared strings, and a next hop follows the rule the simulator
//! forwards by (`toward_oracle`), not the search parent of 1d322cc,
//! which on a tie between shortest paths routed where no packet goes.

use super::*;
use crate::compose::{ComposeResult, EdgeLabel, PState, PVal};
use crate::explore::explore;
use crate::summary::{DestAbs, SendKind};
use crate::witness::WitnessHop;
use std::collections::VecDeque;

/// The 1d322cc verifier's topology queries, asked of the spec itself.
trait OracleTopo {
    fn node_by_addr_oracle(&self, a: u32) -> Option<usize>;
    fn toward_oracle(&self, target: usize) -> Vec<Option<usize>>;
    fn route_oracle(&self, from: usize, to: usize) -> Option<Vec<usize>>;
}

impl OracleTopo for TopoSpec {
    /// The node holding address `a`, if any.
    fn node_by_addr_oracle(&self, a: u32) -> Option<usize> {
        self.nodes.iter().position(|n| n.addr == a)
    }

    /// Per-node next hop toward `target` under shortest-path (BFS)
    /// routing — `None` for unreachable nodes and for `target` itself.
    /// A node's next hop is the first neighbour in its own adjacency
    /// row whose distance to `target` is one less than its own (the
    /// rule the simulator forwards by; at 1d322cc it was whichever
    /// neighbour the search from `target` reached the node from).
    fn toward_oracle(&self, target: usize) -> Vec<Option<usize>> {
        let adj = self.adjacency();
        let mut dist = vec![None; self.nodes.len()];
        dist[target] = Some(0);
        let mut q = VecDeque::from([target]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if dist[v].is_none() {
                    dist[v] = dist[u].map(|d: usize| d + 1);
                    q.push_back(v);
                }
            }
        }
        (0..self.nodes.len())
            .map(|v| {
                let closer = dist[v]?.checked_sub(1)?;
                adj[v].iter().copied().find(|&u| dist[u] == Some(closer))
            })
            .collect()
    }

    /// The full route `from → … → to` (inclusive), or `None` if
    /// unreachable.
    fn route_oracle(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let next = self.toward_oracle(to);
        let mut route = vec![from];
        let mut at = from;
        while at != to {
            at = next[at]?;
            route.push(at);
        }
        Some(route)
    }
}

impl PlanCheck {
    /// The placement half of `PlanCheck::new`: every deploy's install
    /// points, `one(..)` resolved by route coverage.
    pub(crate) fn placement_oracle(plan: &PlanAst, topo: &TopoSpec) -> Vec<Install> {
        // Route coverage: how many plan paths route *through* each node
        // (ingress excluded — a node's hook never sees the traffic it
        // originates).
        let mut coverage = vec![0usize; topo.nodes.len()];
        for &(a, b) in &topo.paths {
            if let Some(route) = topo.route_oracle(a, b) {
                for &n in &route[1..] {
                    coverage[n] += 1;
                }
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
        installs
    }

    /// Runs the plan-level verification: product model check, path
    /// budget composition, and the plan lints.
    pub(crate) fn verify_oracle(&self) -> PlanReport {
        let spans: Vec<Span> = self
            .installs
            .iter()
            .map(|i| self.plan.deploys[i.deploy].span)
            .collect();
        let compose = product_check_oracle(&self.topo, &self.asps, &self.installs, &spans);

        let mut diagnostics = Vec::new();

        // --- path budgets (E008) ---------------------------------
        let mut budgets = Vec::new();
        for &(a, b) in &self.topo.paths {
            let Some(route) = self.topo.route_oracle(a, b) else {
                continue;
            };
            let mut steps = 0u64;
            let mut worst: Option<(u64, usize)> = None;
            for &n in &route[1..] {
                let node_worst = self
                    .installs
                    .iter()
                    .enumerate()
                    .filter(|(_, ins)| ins.node == n)
                    .map(|(ii, ins)| (self.asps[ins.deploy].max_steps(), ii))
                    .max();
                if let Some((c, ii)) = node_worst {
                    steps = steps.saturating_add(c);
                    if worst.is_none_or(|(w, _)| c > w) {
                        worst = Some((c, ii));
                    }
                }
            }
            budgets.push(PathBudget {
                from: self.topo.nodes[a].name.clone(),
                to: self.topo.nodes[b].name.clone(),
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
                                self.topo.nodes[a].name, self.topo.nodes[b].name
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
        let mut node_state = Vec::new();
        for (n, nd) in self.topo.nodes.iter().enumerate() {
            let resident: Vec<usize> = (0..self.installs.len())
                .filter(|&ii| self.installs[ii].node == n)
                .collect();
            if resident.is_empty() {
                continue;
            }
            let mut entries = Some(0u64);
            let mut worst: Option<(u64, usize)> = None;
            let mut unbounded: Option<usize> = None;
            for &ii in &resident {
                match self.asps[self.installs[ii].deploy].entry_bound() {
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

        self.lint_into_oracle(&mut diagnostics);

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
                .map(|i| {
                    (
                        self.topo.nodes[i.node].name.clone(),
                        self.asps[i.deploy].name.clone(),
                    )
                })
                .collect(),
            diagnostics,
        }
    }

    /// The plan lints: P001 unreachable deploy, P002 shadowed class,
    /// P003 uncovered class, P004 dead install point, L008 unhandled
    /// cross-channel send.
    fn lint_into_oracle(&self, diagnostics: &mut Vec<Diagnostic>) {
        let covered: Vec<bool> = {
            let mut c = vec![false; self.topo.nodes.len()];
            for &(a, b) in &self.topo.paths {
                if let Some(route) = self.topo.route_oracle(a, b) {
                    for &n in &route[1..] {
                        c[n] = true;
                    }
                }
            }
            c
        };

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
            let my_installs: Vec<&Install> =
                self.installs.iter().filter(|i| i.deploy == di).collect();

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
                    let handled = self.installs.iter().any(|ins| {
                        let defines = self.asps[ins.deploy]
                            .channels
                            .iter()
                            .any(|(n, _)| &**n == t);
                        defines && (ins.deploy != di || my_installs.len() >= 2)
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

/// Runs the product exploration of `asps` installed per `installs`
/// over `topo` under [`DEFAULT_STATE_BUDGET`], seeded from the
/// topology's plan paths. `install_spans` (parallel to `installs`)
/// anchor witness hops at the responsible plan-source `deploy` lines.
fn product_check_oracle(
    topo: &TopoSpec,
    asps: &[PlanAsp],
    installs: &[Install],
    install_spans: &[Span],
) -> ComposeResult {
    let n_nodes = topo.nodes.len();
    let adj = topo.adjacency();
    let mut tags: Vec<String> = vec!["network".to_string()];
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/`insert` by tag name, never iterated
    let mut tag_ix: std::collections::HashMap<String, u32> = Default::default();
    tag_ix.insert("network".to_string(), 0);

    let mut at_node: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (i, ins) in installs.iter().enumerate() {
        at_node[ins.node].push(i);
    }

    // Next-hop tables toward each routed-to node, computed on demand.
    #[allow(clippy::disallowed_types)] // lookup-only: `entry` by target node, never iterated
    let mut toward_cache: std::collections::HashMap<usize, Vec<Option<usize>>> = Default::default();
    let mut hop_toward = |from: usize, target: usize| -> Option<usize> {
        toward_cache
            .entry(target)
            .or_insert_with(|| topo.toward_oracle(target))[from]
    };

    // One in-flight packet per plan path, entering at the ingress's
    // next hop with the path endpoints as concrete dest/src.
    let entries: Vec<PState> = topo
        .paths
        .iter()
        .filter_map(|&(ingress, egress)| {
            Some(PState {
                node: hop_toward(ingress, egress)?,
                tag: 0,
                dest: PVal::Addr(topo.nodes[egress].addr),
                src: PVal::Addr(topo.nodes[ingress].addr),
            })
        })
        .collect();

    let graph = explore(entries, DEFAULT_STATE_BUDGET, 0, |s: PState, succs| {
        let node_addr = topo.nodes[s.node].addr;
        let tag_name = tags[s.tag as usize].clone();

        let mut dispatched = false;
        for &ii in &at_node[s.node] {
            let asp = &asps[installs[ii].deploy];
            for (ci, (cname, _)) in asp.channels.iter().enumerate() {
                if **cname != *tag_name {
                    continue;
                }
                dispatched = true;
                for (si, site) in asp.summary.channels[ci].sites.iter().enumerate() {
                    let dest2 = match site.pkt_dest {
                        DestAbs::Unchanged => s.dest,
                        DestAbs::OrigSrc => s.src,
                        DestAbs::Const(a) => PVal::Addr(a),
                        DestAbs::Unknown => PVal::Unknown,
                    };
                    let src2 = if site.src_orig { s.src } else { PVal::Unknown };
                    // Same progress rule as the single-program checker,
                    // over concretized values.
                    let progress = site.kind == SendKind::Remote
                        && (site.pkt_dest == DestAbs::Unchanged
                            || (dest2 == s.dest && dest2 != PVal::Unknown));
                    let tag2 = match tag_ix.get(&*site.chan) {
                        Some(&t) => t,
                        None => {
                            let t = tags.len() as u32;
                            tags.push(site.chan.to_string());
                            tag_ix.insert(site.chan.to_string(), t);
                            t
                        }
                    };
                    let label = EdgeLabel::Dispatch {
                        install: ii,
                        chan: ci,
                        site: si,
                    };
                    let nexts: Vec<usize> = match site.kind {
                        SendKind::Remote => match dest2 {
                            // Addressed to this very node: delivered.
                            PVal::Addr(a) if a == node_addr => Vec::new(),
                            PVal::Addr(a) => match topo.node_by_addr_oracle(a) {
                                Some(t) => hop_toward(s.node, t).into_iter().collect(),
                                None => Vec::new(), // undeliverable
                            },
                            PVal::Unknown => adj[s.node].to_vec(),
                        },
                        SendKind::Neighbor => match site.dest {
                            DestAbs::Const(a) => match topo.node_by_addr_oracle(a) {
                                Some(m) if adj[s.node].contains(&m) => vec![m],
                                _ => adj[s.node].to_vec(),
                            },
                            _ => adj[s.node].to_vec(),
                        },
                    };
                    for t in nexts {
                        succs.push((
                            PState {
                                node: t,
                                tag: tag2,
                                dest: dest2,
                                src: src2,
                            },
                            label,
                            progress,
                        ));
                    }
                }
            }
        }
        if !dispatched {
            // No matching channel: plain IP forwarding, which is
            // loop-free — always a progress hop.
            match s.dest {
                PVal::Addr(a) if a == node_addr => {} // delivered
                PVal::Addr(a) => {
                    if let Some(t) = topo.node_by_addr_oracle(a) {
                        if let Some(h) = hop_toward(s.node, t) {
                            succs.push((PState { node: h, ..s }, EdgeLabel::Transit, true));
                        }
                    }
                }
                PVal::Unknown => {
                    for &m in &adj[s.node] {
                        succs.push((PState { node: m, ..s }, EdgeLabel::Transit, true));
                    }
                }
            }
        }
    });

    let states = &graph.states;
    let state_label = |i: usize| {
        format!(
            "{}/{}",
            topo.nodes[states[i].node].name, tags[states[i].tag as usize]
        )
    };
    let (verdict, witness) = graph.termination_oracle(
        "E007",
        |e| match e.label {
            EdgeLabel::Dispatch {
                install,
                chan,
                site,
            } => {
                let asp = &asps[installs[install].deploy];
                let (cname, ov) = &asp.channels[chan];
                let st = &asp.summary.channels[chan].sites[site];
                WitnessHop {
                    from: format!("{}/{}#{}", topo.nodes[states[e.from].node].name, cname, ov),
                    to: state_label(e.to),
                    kind: st.kind,
                    dest: states[e.to].dest.describe(),
                    progress: e.progress,
                    span: install_spans[install],
                }
            }
            EdgeLabel::Transit => WitnessHop {
                from: format!("{}/transit", topo.nodes[states[e.from].node].name),
                to: state_label(e.to),
                kind: SendKind::Remote,
                dest: states[e.to].dest.describe(),
                progress: e.progress,
                span: Span::dummy(),
            },
        },
        |head, cycle_len| {
            let label = state_label(head);
            let message = format!(
                "possible cross-ASP packet loop: {cycle_len} hop(s) return the packet to `{label}` with destination {} and no net progress",
                states[head].dest.describe()
            );
            (label, message)
        },
    );

    ComposeResult {
        verdict,
        states: states.len(),
        transitions: graph.edges.len(),
        exhausted: graph.exhausted,
        witnesses: witness.into_iter().collect(),
    }
}
