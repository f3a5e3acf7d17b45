//! The one explicit-state explorer behind both loop finders (paper
//! section 2.1: "exhaustive state exploration").
//!
//! The [per-program checker](crate::modelcheck) and the [plan product
//! checker](crate::compose) differ only in what a state is, which
//! states a state steps to, and how a hop is worded in a witness. What
//! they share lives here:
//!
//! * a frontier worklist that interns states in **discovery order**
//!   under a **state budget** — all later iteration follows vector
//!   order, so the exploration and every witness are deterministic, and
//!   a hostile download can cost at most `budget` states before the
//!   verdict is [`Verdict::Inconclusive`], which every caller treats as
//!   a rejection;
//! * edges labelled **progress** / **non-progress**: a progress hop
//!   strictly approaches a fixed address under the acyclic-routing
//!   assumption, so a cycle of progress hops alone cannot be walked
//!   forever;
//! * the violation test — a packet can loop iff some non-progress edge
//!   lies on a cycle, i.e. joins two states of one strongly connected
//!   component;
//! * the *minimal* counterexample: over all violating edges, the
//!   shortest entry prefix plus the shortest cycle back, by BFS over
//!   the explored graph, ties broken by exploration order.

use crate::modelcheck::Verdict;
use crate::witness::{Witness, WitnessHop, WitnessKind};
use netsim::rng::Seedless;
use netsim::topo::Rows;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

/// One explored transition; `label` is the instantiation's record of
/// which send site (or transit step) fired.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge<L> {
    pub from: usize,
    pub to: usize,
    pub label: L,
    pub progress: bool,
}

/// The explored state graph.
#[derive(Debug)]
pub(crate) struct Graph<S, L> {
    /// States in discovery order; the entry states come first.
    pub states: Vec<S>,
    /// Transitions in exploration order.
    pub edges: Vec<Edge<L>>,
    /// How many leading `states` are entry states.
    entries: usize,
    /// True if the budget stopped the exploration early.
    pub exhausted: bool,
}

/// Explores everything reachable from `entries`. `successors` pushes
/// the `(state, label, progress)` triples one state steps to; it is
/// called once per state, in discovery order. The state list, its
/// index and the edge list start with room for `expected` states (at
/// most `budget`) and as many edges, so a caller that knows its state
/// count up front never regrows them.
pub(crate) fn explore<S: Copy + Eq + Hash, L>(
    entries: impl IntoIterator<Item = S>,
    budget: usize,
    expected: usize,
    mut successors: impl FnMut(S, &mut Vec<(S, L, bool)>),
) -> Graph<S, L> {
    let expected = expected.min(budget);
    let mut states: Vec<S> = Vec::with_capacity(expected);
    // Lookup-only (state -> position in `states`), never iterated: every
    // walk of the result follows `states`, so discovery order is all a
    // verdict or a witness can depend on. Keyless: hashing a state is a
    // few multiplies. A program can pick constants whose states collide;
    // a lookup then scans up to `budget` states, no more than stepping a
    // state can intern (one state per send site of its channel).
    #[allow(clippy::disallowed_types)] // lookup-only: `entry`, never iterated
    let mut index: std::collections::HashMap<S, usize, Seedless> =
        std::collections::HashMap::with_capacity_and_hasher(expected, Seedless);
    let mut exhausted = false;
    // Interns `s`; `None` once the budget is spent.
    // One hash and one probe per state, found or not.
    let mut intern = |s: S, states: &mut Vec<S>| -> Option<usize> {
        match index.entry(s) {
            Entry::Occupied(at) => Some(*at.get()),
            Entry::Vacant(_) if states.len() >= budget => None,
            Entry::Vacant(slot) => {
                slot.insert(states.len());
                states.push(s);
                Some(states.len() - 1)
            }
        }
    };

    for s in entries {
        if intern(s, &mut states).is_none() {
            exhausted = true;
            break;
        }
    }
    let entries = states.len();

    let mut edges = Vec::with_capacity(expected);
    let mut succs = Vec::new();
    let mut head = 0;
    while head < states.len() && !exhausted {
        let from = head;
        head += 1;
        successors(states[from], &mut succs);
        for (t, label, progress) in succs.drain(..) {
            let Some(to) = intern(t, &mut states) else {
                exhausted = true;
                break;
            };
            edges.push(Edge {
                from,
                to,
                label,
                progress,
            });
        }
    }
    Graph {
        states,
        edges,
        entries,
        exhausted,
    }
}

impl<S, L> Graph<S, L> {
    /// The termination verdict, and for [`Verdict::Violated`] the
    /// minimal loop witness under `code`. `hop` words one edge;
    /// `head(state, cycle_len)` gives the witness's channel label and
    /// message for the state the cycle returns to.
    pub(crate) fn termination(
        &self,
        code: &'static str,
        hop: impl Fn(&Edge<L>) -> WitnessHop,
        head: impl FnOnce(usize, usize) -> (String, String),
    ) -> (Verdict, Option<Witness>) {
        if self.exhausted {
            return (Verdict::Inconclusive, None);
        }
        self.verdict_of(self.minimal_loop(), code, hop, head)
    }

    /// Words `minimal_loop`'s answer as a verdict and a witness.
    fn verdict_of(
        &self,
        minimal_loop: Option<(Vec<usize>, usize)>,
        code: &'static str,
        hop: impl Fn(&Edge<L>) -> WitnessHop,
        head: impl FnOnce(usize, usize) -> (String, String),
    ) -> (Verdict, Option<Witness>) {
        let Some((path, cycle_start)) = minimal_loop else {
            return (Verdict::Proved, None);
        };
        let hops: Vec<WitnessHop> = path.iter().map(|&ei| hop(&self.edges[ei])).collect();
        let (channel, message) = head(self.edges[path[cycle_start]].from, path.len() - cycle_start);
        let witness = Witness {
            code,
            kind: WitnessKind::Loop { cycle_start },
            channel,
            message,
            span: hops[cycle_start].span,
            hops,
        };
        (Verdict::Violated, Some(witness))
    }

    /// The minimal looping path as edge indices — entry prefix, then
    /// the cycle, which starts at the returned position with a
    /// non-progress edge — or `None` if no non-progress edge lies on a
    /// cycle.
    fn minimal_loop(&self) -> Option<(Vec<usize>, usize)> {
        // Where every hop makes progress (a plan of forwarders, most
        // programs) there is no edge to look for a cycle through.
        if self.edges.iter().all(|e| e.progress) {
            return None;
        }
        let out_edges = Rows::new(
            self.states.len(),
            self.edges.iter().map(|e| e.from).zip(0..),
        );
        let comp = self.scc(&out_edges);
        let violating = (0..self.edges.len()).filter(|&i| {
            let e = &self.edges[i];
            !e.progress && comp[e.from] == comp[e.to]
        });

        // Every state was discovered from an entry, so every `dist0` is
        // finite.
        let entries: Vec<usize> = (0..self.entries).collect();
        let (dist0, parent0) = self.bfs(&out_edges, &entries, None);
        let mut best: Option<(usize, usize, Vec<usize>)> = None;
        for ei in violating {
            let e = &self.edges[ei];
            // Only a strictly shorter loop replaces the best so far, so
            // the way back from `e.to` has `room` hops at most; sharing a
            // component guarantees that some way back exists. Bounding
            // the search keeps a download with thousands of looping
            // states from costing a full BFS per violating edge.
            let through = dist0[e.from] + 1;
            let room = match best {
                Some((score, _, _)) if score <= through => continue,
                Some((score, _, _)) => score - through - 1,
                None => usize::MAX,
            };
            let (back_dist, back_parent) = self.bfs(&out_edges, &[e.to], Some((e.from, room)));
            if back_dist[e.from] == usize::MAX {
                continue;
            }
            let mut path = self.path_to(&parent0, e.from);
            let cycle_start = path.len();
            path.push(ei);
            path.extend(self.path_to(&back_parent, e.from));
            best = Some((through + back_dist[e.from], cycle_start, path));
        }
        best.map(|(_, cycle_start, path)| (path, cycle_start))
    }

    /// BFS from `sources`, following edges in exploration order; with
    /// `until = (target, limit)` it stops once `target` is reached and
    /// goes no deeper than `limit` hops. Returns per-state `(distance,
    /// incoming edge)`, `usize::MAX` marking unreached states and the
    /// sources' absent parents.
    fn bfs(
        &self,
        out_edges: &Rows,
        sources: &[usize],
        until: Option<(usize, usize)>,
    ) -> (Vec<usize>, Vec<usize>) {
        let (target, limit) = until.unwrap_or((usize::MAX, usize::MAX));
        let mut dist = vec![usize::MAX; self.states.len()];
        let mut parent = vec![usize::MAX; self.states.len()];
        let mut q = VecDeque::new();
        for &s in sources {
            if dist[s] == usize::MAX {
                dist[s] = 0;
                q.push_back(s);
            }
        }
        while let Some(u) = q.pop_front() {
            // The queue is in distance order: nothing behind `u` is
            // nearer, and the target's own entry is already final.
            if u == target || dist[u] == limit {
                break;
            }
            for &ei in &out_edges[u] {
                let v = self.edges[ei].to;
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = ei;
                    q.push_back(v);
                }
            }
        }
        (dist, parent)
    }

    /// Follows `parent` pointers back from `target`, returning the edge
    /// chain in forward order.
    fn path_to(&self, parent: &[usize], target: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut at = target;
        while parent[at] != usize::MAX {
            let ei = parent[at];
            path.push(ei);
            at = self.edges[ei].from;
        }
        path.reverse();
        path
    }

    /// Kosaraju strongly-connected components; returns the component id
    /// of each state. A state is in the same component as another iff
    /// they lie on a common cycle (or are the same state), so a self-loop
    /// edge passes the `comp[from] == comp[to]` test like any other cycle
    /// edge.
    fn scc(&self, out_edges: &Rows) -> Vec<usize> {
        let n = self.states.len();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for s in 0..n {
            if seen[s] {
                continue;
            }
            // Iterative post-order DFS.
            let mut stack = vec![(s, 0usize)];
            seen[s] = true;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if let Some(&ei) = out_edges[u].get(*i) {
                    let v = self.edges[ei].to;
                    *i += 1;
                    if !seen[v] {
                        seen[v] = true;
                        stack.push((v, 0));
                    }
                } else {
                    order.push(u);
                    stack.pop();
                }
            }
        }
        // Transpose.
        let in_edges = Rows::new(n, self.edges.iter().map(|e| e.to).zip(0..));
        let mut comp = vec![usize::MAX; n];
        let mut c = 0;
        for &s in order.iter().rev() {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = c;
            while let Some(u) = stack.pop() {
                for &ei in &in_edges[u] {
                    let v = self.edges[ei].from;
                    if comp[v] == usize::MAX {
                        comp[v] = c;
                        stack.push(v);
                    }
                }
            }
            c += 1;
        }
        comp
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SendKind;
    use planp_lang::span::Span;

    /// Explores a graph given as an adjacency list of `(to, progress)`.
    fn run(
        entries: &[usize],
        budget: usize,
        adj: &[&[(usize, bool)]],
    ) -> (Graph<usize, ()>, Verdict, Option<Witness>) {
        let g = explore(entries.iter().copied(), budget, 0, |s, out| {
            out.extend(adj[s].iter().map(|&(t, p)| (t, (), p)));
        });
        let hop = |e: &Edge<()>| WitnessHop {
            from: g.states[e.from].to_string(),
            to: g.states[e.to].to_string(),
            kind: SendKind::Remote,
            dest: String::new(),
            progress: e.progress,
            span: Span::dummy(),
        };
        let head = |s: usize, len: usize| (g.states[s].to_string(), format!("{len} hop(s)"));
        let (verdict, witness) = g.termination("E005", hop, head);
        (g, verdict, witness)
    }

    #[test]
    fn budget_exhaustion_is_inconclusive() {
        // A violating self-loop sits behind a chain the budget cuts: the
        // explorer must not claim a proof it did not finish.
        let adj: &[&[(usize, bool)]] = &[&[(1, true)], &[(2, true)], &[(2, false)]];
        let (g, verdict, witness) = run(&[0], 2, adj);
        assert!(g.exhausted);
        assert_eq!(g.states.len(), 2);
        assert_eq!(verdict, Verdict::Inconclusive);
        assert!(witness.is_none());
        // Entries alone can spend the budget.
        let (g, verdict, _) = run(&[0, 1, 2], 2, adj);
        assert!(g.exhausted);
        assert_eq!(verdict, Verdict::Inconclusive);
        // With room, the same graph is a violation.
        let (g, verdict, witness) = run(&[0], 3, adj);
        assert!(!g.exhausted);
        assert_eq!(verdict, Verdict::Violated);
        assert_eq!(witness.unwrap().hops.len(), 3);
    }

    #[test]
    fn every_entry_roots_the_prefix_search() {
        // Entries 1 and 2 feed each other, so neither is a root of the
        // explored graph, and entry 0 reaches nothing: the witness must
        // still be found, from the nearest entry.
        let (_, verdict, witness) = run(&[0, 1, 2], 8, &[&[], &[(2, false)], &[(1, true)]]);
        assert_eq!(verdict, Verdict::Violated);
        let w = witness.unwrap();
        assert_eq!(w.kind, WitnessKind::Loop { cycle_start: 0 });
        assert_eq!(w.channel, "1");
        assert_eq!(w.message, "2 hop(s)");
        assert_eq!(w.hops.len(), 2);
    }

    #[test]
    fn loop_search_agrees_with_the_one_it_replaced() {
        // Random graphs, dense in non-progress edges as plans seldom
        // are: the minimal loop itself, edge for edge.
        let mut state = 0x5EED_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        let (mut looping, mut all_progress) = (0, 0);
        for _ in 0..400 {
            let n = 1 + below(12);
            let adj: Vec<Vec<(usize, bool)>> = (0..n)
                .map(|_| (0..below(4)).map(|_| (below(n), below(3) > 0)).collect())
                .collect();
            let entries: Vec<usize> = (0..1 + below(2)).map(|_| below(n)).collect();
            let g: Graph<usize, ()> = explore(entries, usize::MAX, 0, |s, out| {
                out.extend(adj[s].iter().map(|&(t, p)| (t, (), p)));
            });
            assert_eq!(g.minimal_loop(), g.minimal_loop_oracle(), "{adj:?}");
            looping += usize::from(g.minimal_loop().is_some());
            all_progress += usize::from(g.edges.iter().all(|e| e.progress));
        }
        assert!(
            looping >= 50 && all_progress >= 50,
            "{looping} {all_progress}"
        );
    }
}
