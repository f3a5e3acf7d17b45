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
//!
//! Routing is stated once, as [`NextHops`]: toward a destination, a
//! node's next hop is the first entry of its own adjacency row that is
//! one step closer. The simulator forwards by it and the plan verifier
//! checks it, so where shortest paths tie both take the same one. Ties
//! follow the sender's row, the order its links were made in: the first
//! neighbour on a shortest path, what a search from the sender finds.

use crate::link::LinkSpec;
use crate::packet::addr;
use crate::sim::Sim;
use crate::NodeId;
use std::cell::{Cell, RefCell};
use std::ops::{Index, Range};
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

/// Appends the decimal digits of `n` to `s`.
fn push_decimal(s: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.extend(digits[at..].iter().map(|&d| char::from(d)));
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
    /// Where the link's endpoints sit in [`TopoSpec::link_ends`] (read
    /// them with [`TopoSpec::ends`]).
    pub ends: Range<usize>,
}

/// Values grouped by a key below `n`, each group in the order its
/// values came: the adjacency lists of a graph (or the installs
/// resident on each node) as two vectors, not one per key. Row `k` is
/// `rows[k]`, a slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    /// Row `k` is `items[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Rows {
    /// Groups the values of `(key, value)` pairs by key, keeping the
    /// order of the pairs within each row.
    pub fn new(n: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut start = vec![0; n + 1];
        for (k, _) in pairs.clone() {
            start[k + 1] += 1;
        }
        for k in 0..n {
            start[k + 1] += start[k];
        }
        let mut items = vec![0; start[n]];
        let mut fill = start.clone();
        for (k, v) in pairs {
            items[fill[k]] = v;
            fill[k] += 1;
        }
        Rows { start, items }
    }

    /// Drops every repeat of a value within its row, keeping the first.
    fn dedup_rows(&mut self) {
        let Rows { start, items } = self;
        // `last[v] == k + 1` once row `k` has kept `v`.
        let mut last = vec![0; items.iter().max().map_or(0, |&v| v + 1)];
        let mut kept = 0;
        for k in 0..start.len().saturating_sub(1) {
            let row = start[k]..start[k + 1];
            start[k] = kept;
            for i in row {
                let v = items[i];
                if last[v] != k + 1 {
                    last[v] = k + 1;
                    items[kept] = v;
                    kept += 1;
                }
            }
        }
        if let Some(end) = start.last_mut() {
            *end = kept;
        }
        items.truncate(kept);
    }
}

impl Index<usize> for Rows {
    type Output = [usize];

    #[inline]
    fn index(&self, k: usize) -> &[usize] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

/// The undirected adjacency of `n` nodes joined by `links`, each the
/// list of its endpoints (`index` names an endpoint's node): a
/// multi-node segment joins every attached pair. A row lists its
/// neighbours in the order the links reach them, each once.
pub(crate) fn adjacency<'a, E: Copy + 'a>(
    n: usize,
    links: impl Iterator<Item = &'a [E]> + Clone,
    index: impl Fn(E) -> usize + Copy,
) -> Rows {
    let pairs = links.flat_map(move |ends| {
        let to = move |a| ends.iter().map(move |&b| (index(a), index(b)));
        ends.iter().flat_map(move |&a| to(a))
    });
    let mut adj = Rows::new(n, pairs.filter(|(a, b)| a != b));
    adj.dedup_rows();
    adj
}

/// Marks a slot of [`NextHops`] that holds nothing.
const NONE: u32 = u32::MAX;

/// Shortest-path next hops over a symmetric adjacency: the one routing
/// rule the simulator forwards by and the plan verifier checks (see the
/// module doc). A destination's table, per node of its component the
/// position of its next hop among the adjacency's entries, is built at
/// its first lookup.
#[derive(Debug, Clone, Default)]
pub struct NextHops {
    adj: Rows,
    /// Per destination, where its table starts in `tables.hops` once
    /// built (`usize::MAX` before).
    toward: Vec<Cell<usize>>,
    tables: RefCell<Tables>,
}

/// Every built table of a [`NextHops`], one after the other; each
/// node's component (named by the first destination searched in it)
/// and its slot in that component's tables; and the scratch of a
/// search: distances from its destination ([`NONE`] between searches)
/// and the nodes reached, in order.
#[derive(Debug, Clone, Default)]
struct Tables {
    hops: Vec<u32>,
    place: Vec<(u32, u32)>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl NextHops {
    /// Routes over `adj`, whose rows must be symmetric.
    pub fn new(adj: Rows) -> Self {
        let size = adj.items.len().max(adj.start.len());
        assert!(size < NONE as usize, "u32 numbers every node and entry");
        let toward = vec![Cell::new(usize::MAX); adj.start.len().saturating_sub(1)];
        let tables = RefCell::default();
        NextHops {
            adj,
            toward,
            tables,
        }
    }

    /// The adjacency the routes run over.
    pub fn adj(&self) -> &Rows {
        &self.adj
    }

    /// The next hop from `from` toward `to`: the neighbour, and where
    /// its entry sits among the adjacency's entries (row by row, in
    /// order). `None` for `to` itself, where `to` cannot be reached,
    /// and for a node the adjacency does not have.
    #[inline]
    pub fn hop(&self, from: usize, to: usize) -> Option<(usize, usize)> {
        let start = match self.toward.get(to)?.get() {
            usize::MAX => self.search(to),
            start => start,
        };
        let tables = self.tables.borrow();
        let &(_, slot) = (tables.place.get(from)).filter(|p| p.0 == tables.place[to].0)?;
        let entry = tables.hops[start + slot as usize];
        (entry != NONE).then(|| (self.adj.items[entry as usize], entry as usize))
    }

    /// Builds the table toward `to` and returns where it starts: one
    /// breadth-first search from `to`, then each node reached takes the
    /// first entry of its row that is one step closer.
    #[cold]
    fn search(&self, to: usize) -> usize {
        let n = self.toward.len();
        let t = &mut *self.tables.borrow_mut();
        t.place.resize(n, (NONE, NONE));
        t.dist.resize(n, NONE);
        t.dist[to] = 0;
        t.queue.clear();
        t.queue.push(to as u32);
        let mut head = 0;
        while let Some(&u) = t.queue.get(head) {
            head += 1;
            for &v in &self.adj[u as usize] {
                if t.dist[v] == NONE {
                    t.dist[v] = t.dist[u as usize] + 1;
                    t.queue.push(v as u32);
                }
            }
        }
        if t.place[to].0 == NONE {
            for (slot, &v) in t.queue.iter().enumerate() {
                t.place[v as usize] = (to as u32, slot as u32);
            }
        }
        let start = t.hops.len();
        t.hops.resize(start + t.queue.len(), NONE);
        for &v in &t.queue[1..] {
            let v = v as usize;
            let mut entries = self.adj.start[v]..self.adj.start[v + 1];
            let entry = entries.find(|&e| t.dist[self.adj.items[e]] == t.dist[v] - 1);
            let entry = entry.expect("a reached node has a neighbour a step closer");
            t.hops[start + t.place[v].1 as usize] = entry as u32;
        }
        t.queue.iter().for_each(|&v| t.dist[v as usize] = NONE);
        self.toward[to].set(start);
        start
    }
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
    /// Every link's endpoints, one link after the other: indices into
    /// [`TopoSpec::nodes`].
    pub link_ends: Vec<usize>,
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
        let mut t = TopoSpec::empty("relay_pair", 4, 3, 2);
        let relays = slices(&["relays"]);
        let ha = t.host("ha", addr(10, 0, 0, 1), &slices(&["src"]));
        let r1 = t.router("r1", addr(10, 0, 0, 254), &relays);
        let r2 = t.router("r2", addr(10, 0, 3, 254), &relays);
        let hb = t.host("hb", addr(10, 0, 3, 1), &slices(&["dst"]));
        t.link(LinkSpec::ethernet_10(), &[ha, r1]);
        t.link(LinkSpec::ethernet_10(), &[r1, r2]);
        t.link(LinkSpec::ethernet_10(), &[r2, hb]);
        t.paths.extend([(ha, hb), (hb, ha)]);
        t
    }

    /// The chaos experiment's relay chain:
    /// `source — r1 — r2 — r3 — r4 — dst` on 10 Mb/s links (link ids
    /// 0..=4 in chain order, which the chaos fault plans rely on).
    /// Slices: `source`, `relays`, `dst`, plus `forwarders` (the relays
    /// and the destination — every node the chaos scenarios install
    /// relay ASPs on).
    pub fn relay_chain() -> TopoSpec {
        let mut t = TopoSpec::empty("relay_chain", 6, 5, 1);
        let source = t.host("source", addr(10, 0, 0, 1), &slices(&["source"]));
        let relays = slices(&["relays", "forwarders"]);
        let mut name = String::new();
        let mut prev = source;
        for i in 1..=4u8 {
            name.clear();
            name.push('r');
            push_decimal(&mut name, usize::from(i));
            let r = t.router(&*name, addr(10, 0, i, 254), &relays);
            t.link(LinkSpec::ethernet_10(), &[prev, r]);
            prev = r;
        }
        let dst = t.host("dst", addr(10, 0, 5, 1), &slices(&["dst", "forwarders"]));
        t.link(LinkSpec::ethernet_10(), &[prev, dst]);
        t.paths.push((source, dst));
        t
    }

    /// The HTTP cluster: one client on a shared 10 Mb/s segment with
    /// the gateway router, which fans out to three servers over
    /// 100 Mb/s links. The client routes the virtual service address
    /// `10.9.9.9` toward the gateway. Slices: `clients`, `gateway`,
    /// `servers`.
    pub fn http_cluster() -> TopoSpec {
        let mut t = TopoSpec::empty("http_cluster", 5, 4, 6);
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
        t.paths.extend([
            (client, s0),
            (client, s1),
            (client, s2),
            (s0, client),
            (s1, client),
            (s2, client),
        ]);
        t
    }

    /// The observability grid: `chains` disjoint chains of `hops`
    /// relays each, `s{c} — c{c}r0 … — d{c}` on 100 Mb/s links (the
    /// default registry entry is the standard 128 × 6 = 1024-node
    /// grid). Slices: `sources`, `relays`, `dsts`.
    ///
    /// Chain `c`'s nodes are on `10+c/256 . c%256 . h`: the source at
    /// `h = 0`, relay `h` at `h + 1`, the destination at `hops + 1`, so a
    /// chain has at most 254 relays, and chains past 255 carry into the
    /// first octet, up to 62 976 of them.
    ///
    /// Every table is sized up front, and each node name is written into
    /// one reused buffer (a chain's relays share its `c{c}r` prefix) and
    /// copied into its own single allocation.
    pub fn obs_grid(chains: usize, hops: usize) -> TopoSpec {
        assert!(
            hops < 255,
            "obs_grid: {hops} relays a chain, above the third octet's 254"
        );
        assert!(
            chains <= 246 << 8,
            "obs_grid: {chains} chains, above the 62976 the first octet holds"
        );
        let at = |c: usize, h: usize, last| addr(10 + (c >> 8) as u8, c as u8, h as u8, last);
        let mut t = TopoSpec::empty("obs_grid", chains * (hops + 2), chains * (hops + 1), chains);
        let (sources, relays, dsts) =
            (slices(&["sources"]), slices(&["relays"]), slices(&["dsts"]));
        let mut name = String::new();
        for c in 0..chains {
            name.clear();
            name.push('s');
            push_decimal(&mut name, c);
            let src = t.host(&*name, at(c, 0, 1), &sources);
            name.clear();
            name.push('c');
            push_decimal(&mut name, c);
            name.push('r');
            let relay_prefix = name.len();
            let mut prev = src;
            for h in 0..hops {
                name.truncate(relay_prefix);
                push_decimal(&mut name, h);
                let r = t.router(&*name, at(c, h + 1, 254), &relays);
                t.link(LinkSpec::ethernet_100(), &[prev, r]);
                prev = r;
            }
            name.clear();
            name.push('d');
            push_decimal(&mut name, c);
            let dst = t.host(&*name, at(c, hops + 1, 1), &dsts);
            t.link(LinkSpec::ethernet_100(), &[prev, dst]);
            t.paths.push((src, dst));
        }
        t
    }

    /// An empty spec with room for `nodes` nodes, `links` two-ended
    /// links and `paths` paths.
    fn empty(name: &str, nodes: usize, links: usize, paths: usize) -> TopoSpec {
        TopoSpec {
            name: name.into(),
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            link_ends: Vec::with_capacity(2 * links),
            extra_routes: Vec::new(),
            paths: Vec::with_capacity(paths),
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
        let from = self.link_ends.len();
        self.link_ends.extend_from_slice(nodes);
        self.links.push(TopoLink {
            spec,
            ends: from..self.link_ends.len(),
        });
        self.links.len() - 1
    }

    /// The endpoints of `link`, indices into [`TopoSpec::nodes`].
    pub fn ends(&self, link: &TopoLink) -> &[usize] {
        &self.link_ends[link.ends.clone()]
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

    /// Undirected adjacency over node indices, one row per node: a
    /// multi-node segment link connects every attached pair. A row
    /// lists its neighbours in the order the links reach them, each
    /// once. The simulator's routes run over the same rows.
    pub fn adjacency(&self) -> Rows {
        let links = self.links.iter().map(|l| self.ends(l));
        adjacency(self.nodes.len(), links, |i| i)
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
        let mut ends = Vec::new();
        for link in &self.links {
            ends.clear();
            ends.extend(self.ends(link).iter().map(|&i| ids[i]));
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
    use crate::rng::SplitMix64;
    use crate::LinkId;
    use std::collections::BTreeMap;

    /// Random graphs the route property test draws; ten times as many
    /// in an optimized build.
    const GRAPHS: u64 = if cfg!(debug_assertions) { 300 } else { 3_000 };

    /// `Sim::compute_routes` as it stood before routes were worked out
    /// per destination, kept verbatim (but for the table it fills,
    /// returned here) as the reference the simulator's routes are held
    /// to: one BFS per source, each node's first hop inherited from
    /// the node that reached it.
    #[allow(clippy::needless_range_loop)] // the loop as it stood
    fn compute_routes_oracle(sim: &Sim) -> Vec<BTreeMap<u32, (LinkId, NodeId)>> {
        let mut routes = vec![BTreeMap::new(); sim.nodes.len()];
        let n = sim.nodes.len();
        // Adjacency: node → (link, neighbor).
        let mut adj: Vec<Vec<(LinkId, NodeId)>> = vec![Vec::new(); n];
        for (li, link) in sim.links.iter().enumerate() {
            for &a in &link.nodes {
                for &b in &link.nodes {
                    if a != b {
                        adj[a.0].push((LinkId(li), b));
                    }
                }
            }
        }
        for src in 0..n {
            // BFS from src recording the first hop toward each node; a
            // node is reached once it has one (src never does).
            let mut first_hop: Vec<Option<(LinkId, NodeId)>> = vec![None; n];
            let mut q = std::collections::VecDeque::from([src]);
            while let Some(u) = q.pop_front() {
                for &(l, v) in &adj[u] {
                    if v.0 != src && first_hop[v.0].is_none() {
                        first_hop[v.0] = if u == src { Some((l, v)) } else { first_hop[u] };
                        q.push_back(v.0);
                    }
                }
            }
            for (dst, hop) in first_hop.into_iter().enumerate() {
                if let Some(hop) = hop {
                    let dst_addr = sim.nodes[dst].addr;
                    routes[src].insert(dst_addr, hop);
                }
            }
        }
        routes
    }

    /// A seeded graph of 2–41 routers: point-to-point links, shared
    /// segments of three to five nodes, links laid twice between one
    /// pair, and sometimes too few links to join every node.
    fn random_graph(seed: u64) -> Sim {
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: usize| rng.next_below(n as u64) as usize;
        let n = 2 + below(40);
        let mut sim = Sim::new(seed);
        let ids: Vec<NodeId> = (0..n)
            .map(|i| sim.add_router("r", addr(10, 0, (i >> 8) as u8, i as u8)))
            .collect();
        let mut ends = Vec::new();
        for _ in 0..below(2 * n + 2) {
            ends.clear();
            let size = (if below(5) == 0 { 3 + below(3) } else { 2 }).min(n);
            while ends.len() < size {
                let v = ids[below(n)];
                if !ends.contains(&v) {
                    ends.push(v);
                }
            }
            sim.add_link(LinkSpec::ethernet_10(), &ends);
            if below(6) == 0 {
                sim.add_link(LinkSpec::ethernet_10(), &ends[..2]);
            }
        }
        sim
    }

    #[test]
    fn routes_are_the_per_source_searches_routes() {
        let (mut pairs, mut routed, mut segments, mut parallel) = (0, 0, 0, 0);
        for seed in 0..GRAPHS {
            let mut sim = random_graph(seed);
            sim.compute_routes();
            let want = compute_routes_oracle(&sim);
            for (src, want) in want.iter().enumerate() {
                for dst in &sim.nodes {
                    let got = sim.route(NodeId(src), dst.addr);
                    assert_eq!(
                        got,
                        want.get(&dst.addr).copied(),
                        "seed {seed}: {src} → {}",
                        dst.addr
                    );
                    pairs += 1;
                    routed += usize::from(got.is_some());
                }
            }
            segments += usize::from(sim.links.iter().any(|l| l.nodes.len() > 2));
            let mut joined: Vec<_> = sim
                .links
                .iter()
                .map(|l| (l.nodes[0].0, l.nodes[1].0))
                .collect();
            joined.sort();
            parallel += usize::from(joined.windows(2).any(|w| w[0] == w[1]));
        }
        println!("{pairs} (src, dst) pairs, {routed} routed");
        // The graphs reach what a route can get wrong: ties on shared
        // segments and between parallel links, and no route at all.
        let graphs = GRAPHS as usize;
        assert!(
            segments > graphs / 2 && parallel > graphs / 2,
            "{segments}, {parallel}"
        );
        assert!(routed > pairs / 2 && routed < pairs, "{routed} of {pairs}");
    }

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
            assert_eq!(t.ends(l), [i, i + 1]);
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
    fn obs_grid_past_255_chains_keeps_addresses_apart_and_routes() {
        use crate::packet::Packet;
        use crate::{App, NodeApi};
        use std::cell::Cell;
        use std::rc::Rc;

        struct Count(Rc<Cell<u32>>);
        impl App for Count {
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
                self.0.set(self.0.get() + 1);
            }
        }
        struct Send(u32);
        impl App for Send {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.send(Packet::udp(
                    api.addr(),
                    self.0,
                    1000,
                    2000,
                    bytes::Bytes::new(),
                ));
            }
            fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
        }

        let t = TopoSpec::obs_grid(300, 6);
        let addrs: std::collections::BTreeSet<u32> = t.nodes.iter().map(|n| n.addr).collect();
        assert_eq!(addrs.len(), t.nodes.len(), "every address once");
        // Chains below 256 keep their addresses; chain 299 carries.
        assert_eq!(t.nodes[8 * 255 + 7].addr, addr(10, 255, 7, 1));
        assert_eq!(t.nodes[8 * 299].addr, addr(11, 43, 0, 1));
        let mut sim = Sim::new(1);
        let ids = t.build(&mut sim);
        let (src, dst) = t.paths[299];
        let got = Rc::new(Cell::new(0));
        sim.add_app(ids[dst], Box::new(Count(got.clone())));
        sim.add_app(ids[src], Box::new(Send(t.nodes[dst].addr)));
        sim.run_to_idle(10_000);
        assert_eq!(got.get(), 1, "chain 299's packet arrives");
    }

    #[test]
    #[should_panic(expected = "above the third octet's 254")]
    fn obs_grid_refuses_more_hops_than_the_third_octet_holds() {
        TopoSpec::obs_grid(1, 255);
    }

    #[test]
    fn segment_link_produces_clique_adjacency() {
        let t = TopoSpec::http_cluster();
        let adj = t.adjacency();
        let index_of = |name: &str| t.nodes.iter().position(|n| *n.name == *name).unwrap();
        let gw = index_of("gateway");
        assert_eq!(adj[gw].len(), 4, "gateway touches client + 3 servers");
        let c = index_of("client0");
        assert_eq!(adj[c], [gw]);
    }

    #[test]
    fn rows_keep_pair_order_and_drop_repeats_within_a_row() {
        let mut rows = Rows::new(3, [(2, 7), (0, 1), (2, 5), (2, 7), (0, 1)].into_iter());
        assert_eq!(
            (&rows[0], &rows[1], &rows[2]),
            (&[1, 1][..], &[][..], &[7, 5, 7][..])
        );
        rows.dedup_rows();
        assert_eq!(
            (&rows[0], &rows[1], &rows[2]),
            (&[1][..], &[][..], &[7, 5][..])
        );
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
