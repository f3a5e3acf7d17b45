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
//! over a concrete [`PlanTopology`], seeded with one in-flight packet
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
use crate::plan::{Install, PlanAsp, PlanTopology};
use crate::summary::{DestAbs, SendKind};
use crate::witness::{Witness, WitnessHop};
use planp_lang::span::Span;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Concrete-or-unknown value of an in-flight packet's address field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PVal {
    /// A fixed IPv4 address.
    Addr(u32),
    /// Not statically bounded.
    Unknown,
}

impl PVal {
    fn describe(self) -> String {
        match self {
            PVal::Addr(a) => Ipv4Addr::from(a).to_string(),
            PVal::Unknown => "an unknown address".to_string(),
        }
    }
}

/// One explored product state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PState {
    node: usize,
    tag: u32,
    dest: PVal,
    src: PVal,
}

#[derive(Debug, Clone, Copy)]
enum EdgeLabel {
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

/// Runs the product exploration of `asps` installed per `installs`
/// over `topo` under [`DEFAULT_STATE_BUDGET`], seeded from the
/// topology's plan paths. `install_spans` (parallel to `installs`)
/// anchor witness hops at the responsible plan-source `deploy` lines.
pub fn product_check(
    topo: &PlanTopology,
    asps: &[PlanAsp],
    installs: &[Install],
    install_spans: &[Span],
) -> ComposeResult {
    let n_nodes = topo.nodes.len();
    let mut tags: Vec<String> = vec!["network".to_string()];
    let mut tag_ix: HashMap<String, u32> = HashMap::new();
    tag_ix.insert("network".to_string(), 0);

    let mut at_node: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (i, ins) in installs.iter().enumerate() {
        at_node[ins.node].push(i);
    }

    // Next-hop tables toward each routed-to node, computed on demand.
    let mut toward_cache: HashMap<usize, Vec<Option<usize>>> = HashMap::new();
    let mut hop_toward = |from: usize, target: usize| -> Option<usize> {
        toward_cache
            .entry(target)
            .or_insert_with(|| topo.toward(target))[from]
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

    let graph = explore(entries, DEFAULT_STATE_BUDGET, |s: PState, succs| {
        let node_addr = topo.nodes[s.node].addr;
        let tag_name = tags[s.tag as usize].clone();

        let mut dispatched = false;
        for &ii in &at_node[s.node] {
            let asp = &asps[installs[ii].deploy];
            for (ci, (cname, _)) in asp.channels.iter().enumerate() {
                if cname != &tag_name {
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
                    let tag2 = match tag_ix.get(&site.chan) {
                        Some(&t) => t,
                        None => {
                            let t = tags.len() as u32;
                            tags.push(site.chan.clone());
                            tag_ix.insert(site.chan.clone(), t);
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
                            PVal::Addr(a) => match topo.node_by_addr(a) {
                                Some(t) => hop_toward(s.node, t).into_iter().collect(),
                                None => Vec::new(), // undeliverable
                            },
                            PVal::Unknown => topo.adj[s.node].clone(),
                        },
                        SendKind::Neighbor => match site.dest {
                            DestAbs::Const(a) => match topo.node_by_addr(a) {
                                Some(m) if topo.adj[s.node].contains(&m) => vec![m],
                                _ => topo.adj[s.node].clone(),
                            },
                            _ => topo.adj[s.node].clone(),
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
                    if let Some(t) = topo.node_by_addr(a) {
                        if let Some(h) = hop_toward(s.node, t) {
                            succs.push((PState { node: h, ..s }, EdgeLabel::Transit, true));
                        }
                    }
                }
                PVal::Unknown => {
                    for &m in &topo.adj[s.node] {
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
