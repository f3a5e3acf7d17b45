//! Cross-ASP product model check for deployment plans.
//!
//! The per-program [model checker](crate::modelcheck) explores
//! (channel × destination) states of *one* program, assuming acyclic
//! routing underneath. Two individually-proved ASPs can still form a
//! joint forwarding loop once they share a network — each one's
//! "progress" send feeding the other's restart. This module explores
//! the *product* of a deployment: states are
//!
//! ```text
//! (node, channel tag, destination value, source value)
//! ```
//!
//! over a concrete [`TopoSpec`](netsim::topo::TopoSpec), seeded with one in-flight packet
//! per plan path (entering at the ingress's first hop — a node's own
//! hook never sees the traffic it originates). A transition either
//! *dispatches* the packet into a co-resident ASP channel whose name
//! matches the tag — applying that channel's send-site transfers, one
//! successor per site, routed hop-by-hop — or, when nothing matches,
//! *transits* it one IP hop toward its destination. Destination and
//! source values are concrete addresses here (or `Unknown`), so the
//! progress labelling of the single-program checker carries over
//! exactly: an `OnRemote` hop makes progress iff it keeps the packet's
//! destination (or re-pins the same fixed address), and plain IP
//! transit always makes progress.
//!
//! A joint loop is a reachable state-graph cycle containing a
//! non-progress hop; the cycle test and the minimal counterexample are
//! the single checker's (both run the one explorer, `explore.rs`), and
//! the loop is reported as an `E007` [`Witness`] whose hops name nodes
//! as well as channels (`r1/network#0`) and whose spans point at the
//! responsible `deploy` lines of the plan source.

use crate::explore::explore;
use crate::modelcheck::{Verdict, DEFAULT_STATE_BUDGET};
use crate::plan::{PlanAsp, PlanCheck};
use crate::summary::{DestAbs, ExprSummary, SendKind};
use crate::witness::{Witness, WitnessHop};
use planp_lang::span::Span;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Concrete-or-unknown value of an in-flight packet's address field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PVal {
    /// A fixed IPv4 address.
    Addr(u32),
    /// Not statically bounded.
    Unknown,
}

impl PVal {
    pub(crate) fn describe(self) -> String {
        match self {
            PVal::Addr(a) => Ipv4Addr::from(a).to_string(),
            PVal::Unknown => "an unknown address".to_string(),
        }
    }
}

/// One explored product state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PState {
    pub(crate) node: usize,
    pub(crate) tag: u32,
    pub(crate) dest: PVal,
    pub(crate) src: PVal,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum EdgeLabel {
    /// Send site `site` of channel `chan` of `installs[install]`.
    Dispatch {
        install: usize,
        chan: usize,
        site: usize,
    },
    /// Plain IP forwarding at a node with no matching channel.
    Transit,
}

/// What the product exploration found.
#[derive(Debug, Clone)]
pub struct ComposeResult {
    /// Joint-termination verdict over the whole deployment.
    pub verdict: Verdict,
    /// Product states explored.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// True if the state budget stopped the exploration early.
    pub exhausted: bool,
    /// At most one minimal `E007` joint-loop witness.
    pub witnesses: Vec<Witness>,
}

/// The channel tags of one deployment: every channel name an ASP
/// defines or sends on, numbered once, so that a state carries a number
/// and dispatch compares numbers.
struct Tags<'a> {
    names: Vec<&'a str>,
    /// Per ASP, per channel: the tag that dispatches into it.
    chans: Vec<Vec<u32>>,
    /// Per ASP, per channel, per send site: the tag the send carries.
    sites: Vec<Vec<Vec<u32>>>,
}

impl<'a> Tags<'a> {
    /// `network`, the tag every plan path enters with.
    const NETWORK: u32 = 0;

    fn new(asps: &'a [PlanAsp]) -> Self {
        let mut names = vec!["network"];
        // Ordered, so nothing here could depend on a hash seed.
        let mut ids: BTreeMap<&str, u32> = BTreeMap::from([("network", Self::NETWORK)]);
        let mut id = |name: &'a str| {
            *ids.entry(name).or_insert_with(|| {
                names.push(name);
                names.len() as u32 - 1
            })
        };
        let chans = asps
            .iter()
            .map(|a| a.channels.iter().map(|(n, _)| id(n)).collect())
            .collect();
        let sites = asps
            .iter()
            .map(|a| {
                let of = |es: &'a ExprSummary| es.sites.iter().map(|s| id(&s.chan)).collect();
                a.summary.channels.iter().map(of).collect()
            })
            .collect();
        Tags {
            names,
            chans,
            sites,
        }
    }
}

/// Runs the product exploration of `check`'s ASPs over its topology as
/// placed, under [`DEFAULT_STATE_BUDGET`], seeded from the topology's
/// plan paths. `install_spans` (parallel to `check.installs`) anchor
/// witness hops at the responsible plan-source `deploy` lines.
pub fn product_check(check: &PlanCheck, install_spans: &[Span]) -> ComposeResult {
    let PlanCheck {
        topo,
        asps,
        installs,
        at_node,
        ..
    } = check;
    let tags = Tags::new(asps);
    let next = |from: usize, to: usize| check.next_hops.hop(from, to).map(|(n, _)| n);

    // One in-flight packet per plan path, entering at the ingress's
    // next hop with the path endpoints as concrete dest/src.
    let entries: Vec<PState> = topo
        .paths
        .iter()
        .filter_map(|&(ingress, egress)| {
            Some(PState {
                node: next(ingress, egress)?,
                tag: Tags::NETWORK,
                dest: PVal::Addr(topo.nodes[egress].addr),
                src: PVal::Addr(topo.nodes[ingress].addr),
            })
        })
        .collect();

    // One state per node past the ingress of every plan route: what a
    // plan whose ASPs forward along its routes explores.
    let sized = check.routes().flatten().map(|r| r.len() - 1).sum();
    let graph = explore(entries, DEFAULT_STATE_BUDGET, sized, |s: PState, succs| {
        let node_addr = topo.nodes[s.node].addr;
        let neighbors = &check.next_hops.adj()[s.node];

        let mut dispatched = false;
        for &ii in &at_node[s.node] {
            let di = installs[ii].deploy;
            let asp = &asps[di];
            for (ci, _) in tags.chans[di].iter().enumerate().filter(|c| *c.1 == s.tag) {
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
                    let label = EdgeLabel::Dispatch {
                        install: ii,
                        chan: ci,
                        site: si,
                    };
                    let to = |node: usize| {
                        let next = PState {
                            node,
                            tag: tags.sites[di][ci][si],
                            dest: dest2,
                            src: src2,
                        };
                        succs.push((next, label, progress));
                    };
                    // `Some`: the one node the send can reach, if any;
                    // `None`: it may reach every neighbour.
                    let only = match (site.kind, dest2, site.dest) {
                        // Addressed to this very node: delivered.
                        (SendKind::Remote, PVal::Addr(a), _) if a == node_addr => Some(None),
                        // Routed one hop, or undeliverable.
                        (SendKind::Remote, PVal::Addr(a), _) => {
                            let target = check.node_by_addr(a);
                            Some(target.and_then(|t| next(s.node, t)))
                        }
                        (SendKind::Neighbor, _, DestAbs::Const(a)) => check
                            .node_by_addr(a)
                            .filter(|m| neighbors.contains(m))
                            .map(Some),
                        _ => None,
                    };
                    match only {
                        Some(node) => node.into_iter().for_each(to),
                        None => neighbors.iter().copied().for_each(to),
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
                    let target = check.node_by_addr(a);
                    if let Some(h) = target.and_then(|t| next(s.node, t)) {
                        succs.push((PState { node: h, ..s }, EdgeLabel::Transit, true));
                    }
                }
                PVal::Unknown => {
                    for &m in neighbors {
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
            topo.nodes[states[i].node].name, tags.names[states[i].tag as usize]
        )
    };
    let (verdict, witness) = graph.termination(
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
