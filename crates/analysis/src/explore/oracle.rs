//! The loop search as it stood at commit 1d322cc — an adjacency `Vec`
//! per state, SCC and the entry BFS run whether or not any edge is
//! non-progress — kept verbatim as the reference the plan differential
//! (`plan/differential.rs`) holds [`Graph::termination`] to.

use super::*;

impl<S, L> Graph<S, L> {
    /// [`Graph::termination`] over the reference loop search.
    pub(crate) fn termination_oracle(
        &self,
        code: &'static str,
        hop: impl Fn(&Edge<L>) -> WitnessHop,
        head: impl FnOnce(usize, usize) -> (String, String),
    ) -> (Verdict, Option<Witness>) {
        if self.exhausted {
            return (Verdict::Inconclusive, None);
        }
        self.verdict_of(self.minimal_loop_oracle(), code, hop, head)
    }

    /// The minimal looping path as edge indices — entry prefix, then
    /// the cycle, which starts at the returned position with a
    /// non-progress edge — or `None` if no non-progress edge lies on a
    /// cycle.
    pub(super) fn minimal_loop_oracle(&self) -> Option<(Vec<usize>, usize)> {
        let n = self.states.len();
        let mut adj = vec![Vec::new(); n];
        let mut out_edges = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.from].push(e.to);
            out_edges[e.from].push(i);
        }
        let comp = scc(&adj);
        let violating = (0..self.edges.len()).filter(|&i| {
            let e = &self.edges[i];
            !e.progress && comp[e.from] == comp[e.to]
        });

        // Every state was discovered from an entry, so every `dist0` is
        // finite.
        let entries: Vec<usize> = (0..self.entries).collect();
        let (dist0, parent0) = self.bfs_oracle(&out_edges, &entries, None);
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
            let (back_dist, back_parent) =
                self.bfs_oracle(&out_edges, &[e.to], Some((e.from, room)));
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
    fn bfs_oracle(
        &self,
        out_edges: &[Vec<usize>],
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
}

/// Kosaraju strongly-connected components; returns the component id of
/// each node. A node is in the same component as another iff they lie on
/// a common cycle (or are the same node), so a self-loop edge passes the
/// `comp[from] == comp[to]` test like any other cycle edge.
fn scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
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
            if *i < adj[u].len() {
                let v = adj[u][*i];
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
    let mut radj = vec![Vec::new(); n];
    for (u, vs) in adj.iter().enumerate() {
        for &v in vs {
            radj[v].push(u);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut c = 0;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s] = c;
        while let Some(u) = stack.pop() {
            for &v in &radj[u] {
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
