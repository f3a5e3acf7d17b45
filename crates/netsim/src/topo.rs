//! Named topology registry for deployment plans.
//!
//! A [`TopoSpec`] is a declarative description of a simulator topology —
//! nodes with addresses, links, static routes, and the end-to-end
//! *paths* the traffic is expected to follow — plus named *slices*
//! (node groups such as `relays` or `gateway`) that deployment plans
//! target. The spec serves two masters with one definition:
//!
//! * the plan verifier walks the node/adjacency/path structure to
//!   model-check ASP compositions *before* anything installs, and
//! * [`TopoSpec::build`] instantiates the same structure in a live
//!   [`Sim`], guaranteeing that what was verified is what runs.
//!
//! The registry ([`TopoSpec::named`]) covers the topologies the bundled
//! experiments use: the two-router replay path, the chaos relay chain,
//! the HTTP cluster, and the 1024-node observability grid.

use crate::link::LinkSpec;
use crate::packet::addr;
use crate::sim::Sim;
use crate::NodeId;
use std::rc::Rc;
use std::time::Duration;

/// One node of a named topology. Names and slice lists are shared, not
/// copied, by whatever is derived from the spec (the plan verifier's
/// model, its reports, placements).
#[derive(Debug, Clone)]
pub struct TopoNode {
    /// Node name (unique within the topology).
    pub name: Rc<str>,
    /// IPv4 address.
    pub addr: u32,
    /// Router (true) or host (false).
    pub router: bool,
    /// Slice names this node belongs to; nodes of one kind share one
    /// list.
    pub slices: Rc<[Rc<str>]>,
}

/// A slice list to hand to every node of one kind.
fn slices(names: &[&str]) -> Rc<[Rc<str>]> {
    names.iter().map(|&s| Rc::from(s)).collect()
}

/// One link of a named topology; more than two nodes model a shared
/// segment.
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Bandwidth/delay/queue parameters.
    pub spec: LinkSpec,
    /// Indices into [`TopoSpec::nodes`].
    pub nodes: Vec<usize>,
}

/// A named topology: the substrate a deployment plan deploys over.
#[derive(Debug, Clone)]
pub struct TopoSpec {
    /// Registry name (`relay_chain`, `http_cluster`, …).
    pub name: Rc<str>,
    /// Nodes, in creation order ([`TopoSpec::build`] preserves it, so
    /// index `i` here becomes `NodeId(i)` in the simulator).
    pub nodes: Vec<TopoNode>,
    /// Links, in creation order (likewise `LinkId`-stable).
    pub links: Vec<TopoLink>,
    /// Static routes installed after [`Sim::compute_routes`]:
    /// `(node, destination address, next hop)` — used for virtual
    /// service addresses.
    pub extra_routes: Vec<(usize, u32, usize)>,
    /// Expected end-to-end traffic paths as `(ingress, egress)` node
    /// indices; the plan verifier seeds its exploration and composes
    /// CPU budgets along these.
    pub paths: Vec<(usize, usize)>,
}

impl TopoSpec {
    /// Looks up a topology by registry name. `obs_grid` resolves to the
    /// standard 128 × 6 grid.
    pub fn named(name: &str) -> Option<TopoSpec> {
        match name {
            "relay_pair" => Some(TopoSpec::relay_pair()),
            "relay_chain" => Some(TopoSpec::relay_chain()),
            "http_cluster" => Some(TopoSpec::http_cluster()),
            "obs_grid" => Some(TopoSpec::obs_grid(128, 6)),
            _ => None,
        }
    }

    /// The model checker's two-router replay path:
    /// `ha (10.0.0.1) — r1 — r2 — hb (10.0.3.1)` on 10 Mb/s links.
    /// Slices: `src`, `relays`, `dst`.
    pub fn relay_pair() -> TopoSpec {
        let mut t = TopoSpec::empty("relay_pair");
        let relays = slices(&["relays"]);
        let ha = t.host("ha", addr(10, 0, 0, 1), &slices(&["src"]));
        let r1 = t.router("r1", addr(10, 0, 0, 254), &relays);
        let r2 = t.router("r2", addr(10, 0, 3, 254), &relays);
        let hb = t.host("hb", addr(10, 0, 3, 1), &slices(&["dst"]));
        t.link(LinkSpec::ethernet_10(), &[ha, r1]);
        t.link(LinkSpec::ethernet_10(), &[r1, r2]);
        t.link(LinkSpec::ethernet_10(), &[r2, hb]);
        t.paths = vec![(ha, hb), (hb, ha)];
        t
    }

    /// The chaos experiment's relay chain:
    /// `source — r1 — r2 — r3 — r4 — dst` on 10 Mb/s links (link ids
    /// 0..=4 in chain order, which the chaos fault plans rely on).
    /// Slices: `source`, `relays`, `dst`, plus `forwarders` (the relays
    /// and the destination — every node the chaos scenarios install
    /// relay ASPs on).
    pub fn relay_chain() -> TopoSpec {
        let mut t = TopoSpec::empty("relay_chain");
        let source = t.host("source", addr(10, 0, 0, 1), &slices(&["source"]));
        let relays = slices(&["relays", "forwarders"]);
        let mut prev = source;
        for i in 1..=4u8 {
            let r = t.router(format!("r{i}"), addr(10, 0, i, 254), &relays);
            t.link(LinkSpec::ethernet_10(), &[prev, r]);
            prev = r;
        }
        let dst = t.host("dst", addr(10, 0, 5, 1), &slices(&["dst", "forwarders"]));
        t.link(LinkSpec::ethernet_10(), &[prev, dst]);
        t.paths = vec![(source, dst)];
        t
    }

    /// The HTTP cluster: one client on a shared 10 Mb/s segment with
    /// the gateway router, which fans out to three servers over
    /// 100 Mb/s links. The client routes the virtual service address
    /// `10.9.9.9` toward the gateway. Slices: `clients`, `gateway`,
    /// `servers`.
    pub fn http_cluster() -> TopoSpec {
        let mut t = TopoSpec::empty("http_cluster");
        let servers = slices(&["servers"]);
        let client = t.host("client0", addr(10, 0, 1, 10), &slices(&["clients"]));
        let gw = t.router("gateway", addr(10, 0, 1, 254), &slices(&["gateway"]));
        let s0 = t.host("server0", addr(10, 0, 2, 1), &servers);
        let s1 = t.host("server1", addr(10, 0, 3, 1), &servers);
        let s2 = t.host("server2", addr(10, 0, 4, 1), &servers);
        t.link(
            LinkSpec {
                kbps: 10_000,
                delay: Duration::from_micros(100),
                queue_pkts: 128,
            },
            &[client, gw],
        );
        t.link(LinkSpec::ethernet_100(), &[gw, s0]);
        t.link(LinkSpec::ethernet_100(), &[gw, s1]);
        t.link(LinkSpec::ethernet_100(), &[gw, s2]);
        t.extra_routes.push((client, addr(10, 9, 9, 9), gw));
        t.paths = vec![
            (client, s0),
            (client, s1),
            (client, s2),
            (s0, client),
            (s1, client),
            (s2, client),
        ];
        t
    }

    /// The observability grid: `chains` disjoint chains of `hops`
    /// relays each, `s{c} — c{c}r0 … — d{c}` on 100 Mb/s links (the
    /// default registry entry is the standard 128 × 6 = 1024-node
    /// grid). Slices: `sources`, `relays`, `dsts`.
    pub fn obs_grid(chains: usize, hops: usize) -> TopoSpec {
        let mut t = TopoSpec::empty("obs_grid");
        let (sources, relays, dsts) =
            (slices(&["sources"]), slices(&["relays"]), slices(&["dsts"]));
        for c in 0..chains {
            let src = t.host(format!("s{c}"), addr(10, c as u8, 0, 1), &sources);
            let mut prev = src;
            for h in 0..hops {
                let r = t.router(
                    format!("c{c}r{h}"),
                    addr(10, c as u8, h as u8 + 1, 254),
                    &relays,
                );
                t.link(LinkSpec::ethernet_100(), &[prev, r]);
                prev = r;
            }
            let dst = t.host(format!("d{c}"), addr(10, c as u8, hops as u8 + 1, 1), &dsts);
            t.link(LinkSpec::ethernet_100(), &[prev, dst]);
            t.paths.push((src, dst));
        }
        t
    }

    fn empty(name: &str) -> TopoSpec {
        TopoSpec {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            extra_routes: Vec::new(),
            paths: Vec::new(),
        }
    }

    fn host(&mut self, name: impl Into<Rc<str>>, addr: u32, slices: &Rc<[Rc<str>]>) -> usize {
        self.push_node(name.into(), addr, false, slices)
    }

    fn router(&mut self, name: impl Into<Rc<str>>, addr: u32, slices: &Rc<[Rc<str>]>) -> usize {
        self.push_node(name.into(), addr, true, slices)
    }

    fn push_node(
        &mut self,
        name: Rc<str>,
        addr: u32,
        router: bool,
        slices: &Rc<[Rc<str>]>,
    ) -> usize {
        self.nodes.push(TopoNode {
            name,
            addr,
            router,
            slices: slices.clone(),
        });
        self.nodes.len() - 1
    }

    fn link(&mut self, spec: LinkSpec, nodes: &[usize]) -> usize {
        self.links.push(TopoLink {
            spec,
            nodes: nodes.to_vec(),
        });
        self.links.len() - 1
    }

    /// Node indices belonging to slice `slice`, in node order. A node's
    /// own name doubles as a singleton slice, so plans can pin a deploy
    /// to one node (`deploy bounce_a for data on r1`).
    pub fn slice(&self, slice: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| *n.name == *slice || n.slices.iter().any(|s| **s == *slice))
            .map(|(i, _)| i)
            .collect()
    }

    /// Undirected adjacency over node indices; a multi-node segment
    /// link connects every attached pair.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for link in &self.links {
            for (i, &a) in link.nodes.iter().enumerate() {
                for &b in &link.nodes[i + 1..] {
                    if !adj[a].contains(&b) {
                        adj[a].push(b);
                    }
                    if !adj[b].contains(&a) {
                        adj[b].push(a);
                    }
                }
            }
        }
        adj
    }

    /// Instantiates the topology in `sim`: nodes in order, then links
    /// in order, then route computation plus the static extra routes.
    /// Returns the created node ids, parallel to [`TopoSpec::nodes`].
    pub fn build(&self, sim: &mut Sim) -> Vec<NodeId> {
        let ids: Vec<NodeId> = self
            .nodes
            .iter()
            .map(|n| {
                if n.router {
                    sim.add_router(&n.name, n.addr)
                } else {
                    sim.add_host(&n.name, n.addr)
                }
            })
            .collect();
        for link in &self.links {
            let ends: Vec<NodeId> = link.nodes.iter().map(|&i| ids[i]).collect();
            sim.add_link(link.spec, &ends);
        }
        sim.compute_routes();
        for &(node, dst, toward) in &self.extra_routes {
            sim.add_route(ids[node], dst, ids[toward]);
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_all_names() {
        for name in ["relay_pair", "relay_chain", "http_cluster", "obs_grid"] {
            let t = TopoSpec::named(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(&*t.name, name);
            assert!(!t.paths.is_empty(), "{name} has paths");
        }
        assert!(TopoSpec::named("nope").is_none());
    }

    #[test]
    fn relay_chain_matches_chaos_layout() {
        let t = TopoSpec::relay_chain();
        assert_eq!(t.nodes.len(), 6);
        assert_eq!(t.links.len(), 5);
        // Link ids follow chain order — the chaos fault plans index them.
        for (i, l) in t.links.iter().enumerate() {
            assert_eq!(l.nodes, vec![i, i + 1]);
        }
        assert_eq!(t.slice("relays"), vec![1, 2, 3, 4]);
        assert_eq!(t.slice("forwarders"), vec![1, 2, 3, 4, 5]);
        assert_eq!(t.slice("r2"), vec![2], "node names are singleton slices");
        assert_eq!(t.nodes[5].addr, addr(10, 0, 5, 1));
    }

    #[test]
    fn obs_grid_is_1024_nodes_by_default() {
        let t = TopoSpec::named("obs_grid").unwrap();
        assert_eq!(t.nodes.len(), 128 * 8);
        assert_eq!(t.slice("relays").len(), 128 * 6);
        assert_eq!(t.paths.len(), 128);
    }

    #[test]
    fn segment_link_produces_clique_adjacency() {
        let t = TopoSpec::http_cluster();
        let adj = t.adjacency();
        let index_of = |name: &str| t.nodes.iter().position(|n| *n.name == *name).unwrap();
        let gw = index_of("gateway");
        assert_eq!(adj[gw].len(), 4, "gateway touches client + 3 servers");
        let c = index_of("client0");
        assert_eq!(adj[c], vec![gw]);
    }

    #[test]
    fn build_instantiates_and_routes() {
        let mut sim = Sim::new(1);
        let t = TopoSpec::relay_pair();
        let ids = t.build(&mut sim);
        assert_eq!(ids.len(), 4);
        for (i, n) in t.nodes.iter().enumerate() {
            assert_eq!(sim.node(ids[i]).name, *n.name);
        }
    }
}
