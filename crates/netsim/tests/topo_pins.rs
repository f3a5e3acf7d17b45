//! Every named topology, pinned: a change to how `TopoSpec` stores its
//! nodes, links or adjacency must build the same topology. For each
//! registry name the digest covers each node's name, address, router
//! flag and slices; each link's spec and endpoints; every adjacency row
//! in order; the paths; and the extra routes.

use netsim::digest::Fnv;
use netsim::TopoSpec;
use std::hash::Hasher;

/// `(registry name, FNV-1a of the topology)`, computed at commit
/// 0270b94, where each node name was a `format!` copied into an
/// `Rc<str>`, each link kept its own endpoint `Vec` and each adjacency
/// row was a `Vec` of its own.
const PINS: &[(&str, u64)] = &[
    ("relay_pair", 0x2a04_cabc_2303_a905),
    ("relay_chain", 0xb157_9052_cb1b_a66d),
    ("http_cluster", 0xa142_ab5b_5177_9aa6),
    ("obs_grid", 0xecc1_df66_c804_ae1b),
];

fn feed(h: &mut Fnv, n: u64) {
    h.write(&n.to_le_bytes());
}

fn feed_str(h: &mut Fnv, s: &str) {
    feed(h, s.len() as u64);
    h.write(s.as_bytes());
}

fn digest(t: &TopoSpec) -> u64 {
    let mut h = Fnv::default();
    feed_str(&mut h, &t.name);
    feed(&mut h, t.nodes.len() as u64);
    for n in &t.nodes {
        feed_str(&mut h, &n.name);
        feed(&mut h, u64::from(n.addr));
        feed(&mut h, u64::from(n.router));
        feed(&mut h, n.slices.len() as u64);
        for s in n.slices.iter() {
            feed_str(&mut h, s);
        }
    }
    feed(&mut h, t.links.len() as u64);
    for l in &t.links {
        feed(&mut h, l.spec.kbps);
        feed(&mut h, l.spec.delay.as_nanos() as u64);
        feed(&mut h, l.spec.queue_pkts as u64);
        feed(&mut h, t.ends(l).len() as u64);
        for &n in t.ends(l) {
            feed(&mut h, n as u64);
        }
    }
    let adj = t.adjacency();
    feed(&mut h, t.nodes.len() as u64);
    for row in (0..t.nodes.len()).map(|n| &adj[n]) {
        feed(&mut h, row.len() as u64);
        for &v in row {
            feed(&mut h, v as u64);
        }
    }
    feed(&mut h, t.paths.len() as u64);
    for &(a, b) in &t.paths {
        feed(&mut h, a as u64);
        feed(&mut h, b as u64);
    }
    feed(&mut h, t.extra_routes.len() as u64);
    for &(node, dst, via) in &t.extra_routes {
        feed(&mut h, node as u64);
        feed(&mut h, u64::from(dst));
        feed(&mut h, via as u64);
    }
    h.finish()
}

#[test]
fn named_topologies_are_those_of_the_pinned_commit() {
    let got: Vec<(&str, u64)> = PINS
        .iter()
        .map(|&(name, _)| {
            (
                name,
                digest(&TopoSpec::named(name).expect("a registry name")),
            )
        })
        .collect();
    assert_eq!(got, PINS, "a named topology moved: {got:#018x?}");
}
