//! Differential test of the plan verifier against the one it replaced
//! (`oracle.rs`, and `explore/oracle.rs` for the loop search).
//!
//! A seeded generator draws a topology, a plan over it and the ASPs
//! the plan deploys, built to reach what the two verifiers do
//! differently: routes over chains, meshes with several shortest paths,
//! trees, shared-segment cliques and disconnected components; paths
//! whose egress is unreachable; two nodes holding one address; `on
//! <slice>`, `on one(<slice>)`, a node name and an empty slice; `budget
//! steps` and `budget state` lines; forwarders, destination pinners
//! that loop in pairs, cross-channel shuttles, neighbour floods, the
//! reliable relay. Placement, the report's JSON and rendering, and the
//! witness hops must be equal, case by case.

use super::*;
use crate::modelcheck::Verdict;
use netsim::topo::{TopoLink, TopoNode};
use netsim::LinkSpec;
use planp_lang::{compile_front, parse_plan};
use std::collections::BTreeMap;

/// Generated deployments; ten times as many in an optimized build.
const CASES: u64 = if cfg!(debug_assertions) { 500 } else { 5_000 };

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.below(from.len())]
    }
}

/// An undirected graph as the generator draws it: each node's
/// neighbours, and the edges in the order they were drawn (the links of
/// the topology it becomes, so its adjacency rows are these rows).
#[derive(Default)]
struct Graph {
    adj: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    fn link(&mut self, a: usize, b: usize) {
        if a != b && !self.adj[a].contains(&b) {
            self.adj[a].push(b);
            self.adj[b].push(a);
            self.edges.push((a, b));
        }
    }
}

/// An undirected graph of one of the generator's shapes. `big` asks for
/// a ring long enough for a flood from a few hundred paths to spend the
/// state budget.
fn shape(rng: &mut SplitMix64, big: bool) -> Graph {
    if big {
        let n = 256;
        let mut g = Graph::new(n);
        (0..n).for_each(|i| g.link(i, (i + 1) % n));
        return g;
    }
    match rng.below(6) {
        // A chain.
        0 => {
            let n = 3 + rng.below(8);
            let mut g = Graph::new(n);
            (1..n).for_each(|i| g.link(i - 1, i));
            g
        }
        // Disjoint chains, the observability grid's shape.
        1 => {
            let (chains, len) = (2 + rng.below(4), 3 + rng.below(4));
            let mut g = Graph::new(chains * len);
            for c in 0..chains {
                (1..len).for_each(|i| g.link(c * len + i - 1, c * len + i));
            }
            g
        }
        // A mesh: several shortest paths between most pairs.
        2 => {
            let (w, h) = (2 + rng.below(4), 2 + rng.below(3));
            let mut g = Graph::new(w * h);
            for y in 0..h {
                for x in 0..w {
                    if x + 1 < w {
                        g.link(y * w + x, y * w + x + 1);
                    }
                    if y + 1 < h {
                        g.link(y * w + x, (y + 1) * w + x);
                    }
                }
            }
            g
        }
        // A random tree.
        3 => {
            let n = 4 + rng.below(12);
            let mut g = Graph::new(n);
            for i in 1..n {
                let parent = rng.below(i);
                g.link(parent, i);
            }
            g
        }
        // Shared segments (cliques) strung together by one node each.
        4 => {
            let segments = 2 + rng.below(3);
            let mut g = Graph::default();
            let mut gate = None;
            for _ in 0..segments {
                let first = g.adj.len();
                let size = 2 + rng.below(4);
                g.adj.resize(first + size, Vec::new());
                for a in first..first + size {
                    for b in a + 1..first + size {
                        g.link(a, b);
                    }
                }
                if let Some(last) = gate {
                    g.link(last, first);
                }
                gate = Some(first + size - 1);
            }
            g
        }
        // Two components, one of them with a cycle.
        _ => {
            let (a, b) = (3 + rng.below(4), 3 + rng.below(4));
            let mut g = Graph::new(a + b);
            (1..a).for_each(|i| g.link(i - 1, i));
            (1..b).for_each(|i| g.link(a + i - 1, a + i));
            g.link(a, a + b - 1);
            g
        }
    }
}

fn ip(addr: u32) -> String {
    std::net::Ipv4Addr::from(addr).to_string()
}

/// The ASP palette. `pin` is the address the pinning kinds re-address
/// packets to.
fn asp_source(kind: usize, pin: u32) -> (String, String) {
    const HEAD: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n";
    let pin = ip(pin);
    let tag = pin.replace('.', "_");
    match kind {
        0 => (
            "forwarder".into(),
            format!("{HEAD}  (OnRemote(network, p); (ps + 1, ss))\n"),
        ),
        // Proves alone; two of them with different pins bounce forever.
        1 => (
            format!("bounce_{tag}"),
            format!(
                "{HEAD}  if ipDst(#1 p) = thisHost() then (deliver(p); (ps, ss))\n  \
                 else (OnRemote(network, (ipDestSet(#1 p, {pin}), #2 p, #3 p)); (ps + 1, ss))\n"
            ),
        ),
        // A constant-destination rewriter with no delivery arm.
        2 => (
            format!("rewrite_{tag}"),
            format!(
                "{HEAD}  (OnRemote(network, (ipDestSet(#1 p, {pin}), #2 p, #3 p)); (ps + 1, ss))\n"
            ),
        ),
        // The cross-channel shuttle of `asps/buggy/shuttle_*.planp`.
        3 => (
            format!("shuttle_{tag}"),
            format!(
                "{HEAD}  (OnRemote(shuttle, p); (ps + 1, ss))\n\
                 channel shuttle(ps : int, ss : unit, p : ip*udp*blob) is\n  \
                 if ipDst(#1 p) = thisHost() then (deliver(p); (ps, ss))\n  \
                 else (OnRemote(shuttle, (ipDestSet(#1 p, {pin}), #2 p, #3 p)); (ps + 1, ss))\n"
            ),
        ),
        4 => (
            "reliable_relay".into(),
            include_str!("../../../../asps/reliable_relay.planp").into(),
        ),
        // Every neighbour, destination untouched: never progress.
        5 => (
            "flood".into(),
            format!("{HEAD}  (OnNeighbor(network, ipDst(#1 p), p); (ps + 1, ss))\n"),
        ),
        // One named neighbour, where it is one.
        6 => (
            format!("hand_{tag}"),
            format!("{HEAD}  (OnNeighbor(network, {pin}, p); (ps + 1, ss))\n"),
        ),
        // Back to the sender, then with the source forgotten.
        7 => (
            "reflect".into(),
            format!(
                "{HEAD}  if ps > 0\n  \
                 then (OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p)); (ps, ss))\n  \
                 else (OnRemote(network, (ipSrcSet(#1 p, {pin}), #2 p, #3 p)); (ps + 1, ss))\n"
            ),
        ),
        // A declared table capacity: a finite entry bound.
        8 => (
            "stateful".into(),
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(32) is\n  \
             (tblSet(ss, ipSrc(#1 p), 1); tblDel(ss, ipSrc(#1 p));\n   \
             OnRemote(network, p); (ps + 1, ss))\n"
                .into(),
        ),
        // Packet-keyed, never evicted: unbounded.
        9 => (
            "leaky".into(),
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n  \
             (tblSet(ss, ipSrc(#1 p), 1); OnRemote(network, p); (ps + 1, ss))\n"
                .into(),
        ),
        // Sends on a channel only it defines (L008 when alone).
        _ => (
            "tagger".into(),
            format!(
                "{HEAD}  (OnRemote(orphan, p); (ps + 1, ss))\n\
                 channel orphan(ps : int, ss : unit, p : ip*udp*blob) is\n  \
                 (OnRemote(orphan, p); (ps + 1, ss))\n"
            ),
        ),
    }
}

struct Case {
    plan_src: String,
    check: PlanCheck,
}

/// Compiled palette entries, kept across cases: a `(kind, pin)` pair is
/// one program however many deployments draw it.
type Compiled = BTreeMap<(usize, u32), PlanAsp>;

fn generate(seed: u64, compiled: &mut Compiled) -> Case {
    let mut rng = SplitMix64(seed);
    // One case in ten floods a 256-node ring from hundreds of paths.
    let big = seed % 10 == 9;
    let graph = shape(&mut rng, big);
    let n = graph.adj.len();

    let mut addrs: Vec<u32> = (0..n as u32)
        .map(|i| (10 << 24) | ((i >> 8) << 16) | ((i & 255) << 8) | 1)
        .collect();
    // Two nodes, one address: the first in node order must win.
    if rng.one_in(3) {
        let (a, b) = (rng.below(n), rng.below(n));
        addrs[a] = addrs[b];
    }
    let list = |names: &[&str]| -> Rc<[Rc<str>]> { names.iter().map(|&s| Rc::from(s)).collect() };
    let lists = [
        list(&["all", "relays"]),
        list(&["all", "relays", "edge"]),
        list(&["all", "edge"]),
        list(&["all", "core"]),
    ];
    let nodes: Vec<TopoNode> = (0..n)
        .map(|i| TopoNode {
            name: format!("n{i}").into(),
            addr: addrs[i],
            router: true,
            slices: rng.pick(&lists).clone(),
        })
        .collect();

    let n_paths = if big {
        280 + rng.below(40)
    } else {
        1 + rng.below(6)
    };
    let paths: Vec<(usize, usize)> = (0..n_paths).map(|_| (rng.below(n), rng.below(n))).collect();

    // An address some send is pinned to: mostly a path endpoint (so
    // pins fight over live traffic), sometimes any node, sometimes
    // nobody's.
    let pin = |rng: &mut SplitMix64| match rng.below(8) {
        0 => 0x0a63_6363,
        1 | 2 => addrs[rng.below(n)],
        _ => {
            let &(a, b) = rng.pick(&paths);
            addrs[if rng.one_in(2) { a } else { b }]
        }
    };

    let mut plan_src = String::from("plan generated\ntopology gen\n");
    if rng.one_in(6) {
        plan_src.push_str("policy authenticated\n");
    }
    if rng.one_in(3) {
        let limit = *rng.pick(&[1u64, 40, 200, 100_000]);
        plan_src.push_str(&format!("budget steps {limit}\n"));
    }
    if rng.one_in(3) {
        let limit = *rng.pick(&[1u64, 32, 64, 100_000]);
        plan_src.push_str(&format!("budget state {limit}\n"));
    }
    plan_src.push_str(if rng.one_in(5) {
        "class data port 80 app edge\n"
    } else {
        "class data port 80\n"
    });
    if rng.one_in(6) {
        plan_src.push_str("class shadowed port 80\n");
    }
    if rng.one_in(6) {
        plan_src.push_str("class spare port 81\n");
    }
    let mut asps = Vec::new();
    let deploys = if big { 1 } else { 1 + rng.below(3) };
    for _ in 0..deploys {
        // A flood is what spends the budget; elsewhere it is one kind
        // among the others.
        let kind = if big { 5 } else { rng.below(11) };
        let key = (
            kind,
            if matches!(kind, 1 | 2 | 3 | 6 | 7) {
                pin(&mut rng)
            } else {
                0
            },
        );
        let asp = compiled.entry(key).or_insert_with(|| {
            let (name, src) = asp_source(key.0, key.1);
            let prog = compile_front(&src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
            PlanAsp::from_program(name, &prog)
        });
        let slice = match rng.below(if big { 1 } else { 9 }) {
            0 => "all".to_string(),
            1 => "relays".to_string(),
            2 => "edge".to_string(),
            3 => "core".to_string(),
            4 => "one(relays)".to_string(),
            5 => "one(edge)".to_string(),
            6 => "nosuch".to_string(),
            _ => format!("n{}", rng.below(n)),
        };
        plan_src.push_str(&format!("deploy {} for data on {slice}\n", asp.name));
        asps.push(asp.clone());
    }

    let plan = parse_plan(&plan_src).unwrap_or_else(|e| panic!("{e}\n{plan_src}"));
    let links = (0..graph.edges.len()).map(|l| TopoLink {
        spec: LinkSpec::ethernet_10(),
        ends: 2 * l..2 * l + 2,
    });
    let topo = TopoSpec {
        name: "gen".into(),
        nodes,
        links: links.collect(),
        link_ends: graph.edges.iter().flat_map(|&(a, b)| [a, b]).collect(),
        extra_routes: Vec::new(),
        paths,
    };
    let check = PlanCheck::new(plan, topo, asps).unwrap_or_else(|e| panic!("{e}\n{plan_src}"));
    Case { plan_src, check }
}

fn json(report: &PlanReport, src: &str) -> String {
    let mut out = String::new();
    report.write_json(src, &mut out);
    out
}

#[test]
fn a_case_is_a_function_of_its_seed() {
    let (a, b) = (
        generate(7, &mut Compiled::new()),
        generate(7, &mut Compiled::new()),
    );
    assert_eq!(a.plan_src, b.plan_src);
    assert_eq!(a.check.installs, b.check.installs);
    assert_eq!(a.check.topo.adjacency(), b.check.topo.adjacency());
    assert_eq!(a.check.topo.paths, b.check.topo.paths);
}

#[test]
fn generated_deployments_verify_as_they_did_at_1d322cc() {
    let mut compiled = Compiled::new();
    let (mut proved, mut violated, mut exhausted) = (0, 0, 0);
    let (mut duplicate_addr, mut unreachable, mut one_mode) = (0, 0, 0);
    for seed in 0..CASES {
        let Case { plan_src, check } = generate(seed, &mut compiled);
        let ctx = || {
            format!(
                "seed {seed}\n{plan_src}adj {:?}\npaths {:?}\naddrs {:?}",
                check.topo.adjacency(),
                check.topo.paths,
                check
                    .topo
                    .nodes
                    .iter()
                    .map(|n| ip(n.addr))
                    .collect::<Vec<_>>()
            )
        };
        assert_eq!(
            check.installs,
            PlanCheck::placement_oracle(&check.plan, &check.topo),
            "placement, {}",
            ctx()
        );

        let (got, want) = (check.verify(), check.verify_oracle());
        assert_eq!(json(&got, &plan_src), json(&want, &plan_src), "{}", ctx());
        assert_eq!(got.render(&plan_src), want.render(&plan_src), "{}", ctx());
        assert_eq!(got.witnesses, want.witnesses, "witness hops, {}", ctx());
        assert_eq!(got.accepted(), want.accepted(), "{}", ctx());

        match got.joint {
            Verdict::Proved => proved += 1,
            Verdict::Violated => violated += 1,
            Verdict::Inconclusive => exhausted += 1,
        }
        assert_eq!(got.exhausted, got.joint == Verdict::Inconclusive);
        let mut addrs: Vec<u32> = check.topo.nodes.iter().map(|n| n.addr).collect();
        addrs.sort_unstable();
        duplicate_addr += usize::from(addrs.windows(2).any(|w| w[0] == w[1]));
        unreachable += usize::from(got.budgets.len() < check.topo.paths.len());
        one_mode += usize::from(plan_src.contains("one("));
    }
    // The generator reaches what the two verifiers do differently.
    for (what, count) in [
        ("proved", proved),
        ("violated", violated),
        ("budget-exhausted", exhausted),
        ("with an address held twice", duplicate_addr),
        ("with an unreachable path", unreachable),
        ("placing `one(..)`", one_mode),
    ] {
        assert!(count >= 50, "only {count} of {CASES} cases {what}");
    }
}
