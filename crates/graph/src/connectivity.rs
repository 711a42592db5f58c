//! Vertex connectivity via Menger's theorem.
//!
//! The paper's bounds are stated in terms of the *connectivity* of the
//! communication graph: the minimum number of nodes whose removal
//! disconnects it. This module computes that quantity exactly by max-flow on
//! the node-split graph (each node becomes an `in`/`out` pair joined by a
//! unit-capacity arc), extracts minimum vertex cuts (the `b`/`d` sets of the
//! §3.2 construction) with Even's scan over at most `κ + 1` sources, and
//! extracts systems of internally vertex-disjoint paths (the substrate for
//! the Dolev-style relay overlay in `flm-protocols`).

use std::collections::BTreeSet;

use crate::{Graph, NodeId};

/// Effectively-infinite capacity for the flow network. Any value larger than
/// `n` works, since no vertex cut can exceed `n` nodes.
const INF: u32 = u32::MAX / 4;

/// A directed flow network with residual-edge bookkeeping.
struct FlowNet {
    /// `adj[v]` = indices into `edges` of arcs leaving `v`.
    adj: Vec<Vec<usize>>,
    /// Arcs stored as (to, capacity); arc `i ^ 1` is the reverse of arc `i`.
    edges: Vec<(usize, u32)>,
}

impl FlowNet {
    fn new(n: usize) -> Self {
        FlowNet {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    fn add_arc(&mut self, from: usize, to: usize, cap: u32) {
        self.adj[from].push(self.edges.len());
        self.edges.push((to, cap));
        self.adj[to].push(self.edges.len());
        self.edges.push((from, 0));
    }

    /// Edmonds–Karp max flow. Unit-ish capacities keep this fast for the
    /// graph sizes the refuters and relay overlay use.
    fn max_flow(&mut self, s: usize, t: usize) -> u32 {
        self.max_flow_upto(s, t, u32::MAX)
    }

    /// Edmonds–Karp max flow, stopped as soon as the flow reaches `limit`.
    /// A result below `limit` is the maximum flow, and the residual graph
    /// is then the one [`FlowNet::max_flow`] leaves.
    fn max_flow_upto(&mut self, s: usize, t: usize, limit: u32) -> u32 {
        let mut flow = 0;
        while flow < limit {
            // BFS for a shortest augmenting path.
            let mut pred: Vec<Option<usize>> = vec![None; self.adj.len()];
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(s);
            // Mark s reached via a sentinel.
            pred[s] = Some(usize::MAX);
            while let Some(v) = queue.pop_front() {
                if v == t {
                    break;
                }
                for &e in &self.adj[v] {
                    let (to, cap) = self.edges[e];
                    if cap > 0 && pred[to].is_none() {
                        pred[to] = Some(e);
                        queue.push_back(to);
                    }
                }
            }
            if pred[t].is_none() {
                return flow;
            }
            // Find bottleneck.
            let mut bottleneck = u32::MAX;
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path exists");
                bottleneck = bottleneck.min(self.edges[e].1);
                v = self.edges[e ^ 1].0;
            }
            // Augment.
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path exists");
                self.edges[e].1 -= bottleneck;
                self.edges[e ^ 1].1 += bottleneck;
                v = self.edges[e ^ 1].0;
            }
            flow += bottleneck;
        }
        flow
    }

    /// Nodes reachable from `s` in the residual graph (after `max_flow`).
    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for &e in &self.adj[v] {
                let (to, cap) = self.edges[e];
                if cap > 0 && !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// The vertex cut a maximum flow of the split network of `g` leaves
    /// (after `max_flow` from `s_out`): the nodes whose internal split arc
    /// crosses from the residual-reachable side to the rest.
    fn vertex_cut(&self, g: &Graph, s_out: usize) -> BTreeSet<NodeId> {
        let reach = self.residual_reachable(s_out);
        g.nodes()
            .filter(|v| reach[2 * v.index()] && !reach[2 * v.index() + 1])
            .collect()
    }
}

/// Builds the node-split flow network for vertex connectivity between `s`
/// and `t`: node `v` becomes `v_in = 2v`, `v_out = 2v + 1` with a
/// unit-capacity internal arc (infinite for `s` and `t`), and each directed
/// edge `(u, v)` of `g` becomes an infinite-capacity arc `u_out → v_in`.
fn split_network(g: &Graph, s: NodeId, t: NodeId) -> FlowNet {
    let n = g.node_count();
    let mut net = FlowNet::new(2 * n);
    for v in g.nodes() {
        let cap = if v == s || v == t { INF } else { 1 };
        net.add_arc(2 * v.index(), 2 * v.index() + 1, cap);
    }
    for (u, v) in g.directed_edges() {
        // A direct s–t link is a path no vertex cut can break; give it unit
        // capacity so it contributes exactly one disjoint path instead of
        // unbounded flow.
        let direct = (u == s && v == t) || (u == t && v == s);
        net.add_arc(
            2 * u.index() + 1,
            2 * v.index(),
            if direct { 1 } else { INF },
        );
    }
    net
}

/// The maximum number of internally vertex-disjoint paths from `s` to `t`.
///
/// By Menger's theorem this equals the minimum number of nodes (other than
/// `s`, `t`) whose removal separates `t` from `s` — provided `s` and `t` are
/// not adjacent. For adjacent `s`, `t` the direct link contributes one path
/// that no cut can break, and the returned count includes it.
///
/// # Panics
///
/// Panics if `s == t`.
pub fn local_connectivity(g: &Graph, s: NodeId, t: NodeId) -> usize {
    assert_ne!(s, t, "local connectivity needs distinct endpoints");
    let mut net = split_network(g, s, t);
    net.max_flow(2 * s.index() + 1, 2 * t.index()) as usize
}

/// The vertex connectivity κ(G): the minimum number of nodes whose removal
/// disconnects the graph, with κ(K_n) = n − 1 by convention.
///
/// Disconnected graphs have κ = 0; the empty and one-node graphs have κ = 0
/// and the two-node linked graph κ = 1 (complete-graph convention).
/// Otherwise κ is the size of [`min_vertex_cut`].
pub fn vertex_connectivity(g: &Graph) -> usize {
    let n = g.node_count();
    if n == 0 || !g.is_connected() {
        return 0;
    }
    min_vertex_cut(g).map_or(n - 1, |(cut, _, _)| cut.len())
}

/// A minimum vertex cut separating `t` from `s` (excluding `s` and `t`),
/// extracted from the max-flow residual graph: the cut consists of the nodes
/// whose internal split arc crosses the saturated cut.
///
/// # Panics
///
/// Panics if `s == t` or if `s` and `t` are adjacent (no vertex cut can
/// separate adjacent nodes).
pub fn min_vertex_cut_between(g: &Graph, s: NodeId, t: NodeId) -> BTreeSet<NodeId> {
    assert_ne!(s, t, "cut needs distinct endpoints");
    assert!(
        !g.has_link(s, t),
        "no vertex cut separates adjacent nodes {s} and {t}"
    );
    let mut net = split_network(g, s, t);
    net.max_flow(2 * s.index() + 1, 2 * t.index());
    net.vertex_cut(g, 2 * s.index() + 1)
}

/// A global minimum vertex cut of a connected, non-complete graph, together
/// with a pair `(s, t)` it separates.
///
/// The pair is the lexicographically first non-adjacent pair `s < t` whose
/// local connectivity is κ(G), and the cut is [`min_vertex_cut_between`]
/// of that pair. Two observations keep the Menger scan short without
/// changing that answer (Even's algorithm):
///
/// - Some node among `0..=κ` lies outside any minimum cut `C`, and it has
///   a non-neighbor on the other side of `C`, so the first optimal pair
///   has `s ≤ κ`. Sources past the best cut size found so far are skipped.
/// - Each flow stops once it reaches the best cut size found so far; only a
///   pair that comes in strictly below it replaces the best, so the first
///   optimal pair wins ties.
///
/// Returns `None` for complete or disconnected graphs, where no such cut
/// exists or it is trivial.
pub fn min_vertex_cut(g: &Graph) -> Option<(BTreeSet<NodeId>, NodeId, NodeId)> {
    if g.node_count() == 0 || !g.is_connected() || g.is_complete() {
        return None;
    }
    let mut best = None;
    // The size of `best`'s cut.
    let mut bound = u32::MAX;
    // One network serves every pair. Arc `2v` is node `v`'s split arc, and
    // a non-adjacent pair's `split_network` is the endpoint-free network
    // (node 0's self-pair network with arc 0 back at unit capacity) with
    // its endpoints' split arcs opened to INF.
    let mut net = split_network(g, NodeId(0), NodeId(0));
    net.edges[0].1 = 1;
    let unit: Vec<u32> = net.edges.iter().map(|&(_, cap)| cap).collect();
    for s in g.nodes() {
        if s.index() > bound as usize {
            break;
        }
        for t in g.nodes() {
            if s < t && !g.has_link(s, t) {
                for (arc, &cap) in net.edges.iter_mut().zip(&unit) {
                    arc.1 = cap;
                }
                net.edges[2 * s.index()].1 = INF;
                net.edges[2 * t.index()].1 = INF;
                let flow = net.max_flow_upto(2 * s.index() + 1, 2 * t.index(), bound);
                if flow < bound {
                    bound = flow;
                    best = Some((net.vertex_cut(g, 2 * s.index() + 1), s, t));
                }
            }
        }
    }
    best
}

/// Extracts a maximum system of internally vertex-disjoint `s`–`t` paths.
///
/// Each returned path starts with `s` and ends with `t`; intermediate nodes
/// are pairwise disjoint across paths. The number of paths equals
/// [`local_connectivity`]. This is the routing substrate for the relay
/// overlay (`flm-protocols::relay`).
///
/// # Panics
///
/// Panics if `s == t`.
pub fn vertex_disjoint_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    assert_ne!(s, t, "paths need distinct endpoints");
    let mut net = split_network(g, s, t);
    let flow = net.max_flow(2 * s.index() + 1, 2 * t.index());
    // Decompose the flow into paths by walking saturated forward arcs.
    // Flow on a forward arc i (even index into `edges` pairs ordered as we
    // added them) = capacity moved to its reverse arc.
    let n = g.node_count();
    // flow_out[v] = list of w with unit flow v_out -> w_in remaining.
    let mut flow_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Reconstruct per-arc flow: arcs were added in order: n internal arcs
    // (indices 0..2n step 2), then edge arcs.
    let internal_arcs = n;
    let mut idx = 2 * internal_arcs;
    for (u, v) in g.directed_edges() {
        let used = net.edges[idx + 1].1; // reverse capacity == flow pushed
        if used > 0 {
            for _ in 0..used {
                flow_edges[u.index()].push(v.index());
            }
        }
        idx += 2;
    }
    let mut paths = Vec::with_capacity(flow as usize);
    for _ in 0..flow {
        let mut path = vec![s];
        let mut cur = s.index();
        // Each intermediate node has unit internal capacity so carries at
        // most one unit of flow; walking arbitrary outgoing flow edges from s
        // yields disjoint paths. Cancelling 2-cycles cannot occur because
        // Edmonds–Karp never creates flow on both directions of a link.
        while cur != t.index() {
            let nxt = flow_edges[cur]
                .pop()
                .expect("flow conservation guarantees an outgoing flow edge");
            path.push(NodeId(nxt as u32));
            cur = nxt;
        }
        paths.push(path);
    }
    paths
}

/// Brute-force vertex connectivity by trying all node subsets in increasing
/// size order. Exponential; only for cross-checking [`vertex_connectivity`]
/// in tests on small graphs.
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes (bitmask enumeration).
pub fn vertex_connectivity_brute(g: &Graph) -> usize {
    let n = g.node_count();
    assert!(n <= 20, "brute-force connectivity is for small test graphs");
    if n == 0 || !g.is_connected() {
        return 0;
    }
    if g.is_complete() {
        return n - 1;
    }
    for k in 1..n - 1 {
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let removed: BTreeSet<NodeId> = (0..n as u32)
                .filter(|i| mask & (1 << i) != 0)
                .map(NodeId)
                .collect();
            let (rest, _) = g.remove_nodes(&removed);
            if rest.node_count() >= 2 && !rest.is_connected() {
                return k;
            }
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn cycle_has_connectivity_two() {
        for n in 3..9 {
            assert_eq!(vertex_connectivity(&builders::cycle(n)), 2, "C_{n}");
        }
    }

    #[test]
    fn complete_has_connectivity_n_minus_one() {
        for n in 2..7 {
            assert_eq!(vertex_connectivity(&builders::complete(n)), n - 1, "K_{n}");
        }
    }

    #[test]
    fn path_has_connectivity_one() {
        assert_eq!(vertex_connectivity(&builders::path(5)), 1);
    }

    #[test]
    fn bipartite_connectivity_is_min_side() {
        assert_eq!(vertex_connectivity(&builders::complete_bipartite(2, 5)), 2);
        assert_eq!(vertex_connectivity(&builders::complete_bipartite(3, 3)), 3);
    }

    #[test]
    fn wheel_connectivity_is_three() {
        assert_eq!(vertex_connectivity(&builders::wheel(7)), 3);
    }

    #[test]
    fn hypercube_connectivity_is_dimension() {
        for d in 1..4 {
            assert_eq!(vertex_connectivity(&builders::hypercube(d)), d);
        }
    }

    #[test]
    fn disconnected_graph_has_connectivity_zero() {
        let g = builders::from_links(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(vertex_connectivity(&g), 0);
    }

    #[test]
    fn cut_of_cycle4_is_the_opposite_pair() {
        let g = builders::cycle(4);
        let cut = min_vertex_cut_between(&g, NodeId(0), NodeId(2));
        assert_eq!(cut, [NodeId(1), NodeId(3)].into_iter().collect());
    }

    #[test]
    fn global_min_cut_matches_kappa() {
        for g in [
            builders::cycle(6),
            builders::path(5),
            builders::complete_bipartite(2, 4),
            builders::wheel(6),
        ] {
            let kappa = vertex_connectivity(&g);
            let (cut, s, t) = min_vertex_cut(&g).expect("non-complete connected graph");
            assert_eq!(cut.len(), kappa);
            assert!(!cut.contains(&s) && !cut.contains(&t));
            let (rest, order) = g.remove_nodes(&cut);
            // s and t must land in different components.
            let comps = rest.components();
            let pos = |x: NodeId| order.iter().position(|&v| v == x).unwrap() as u32;
            let cs = comps
                .iter()
                .position(|c| c.contains(&NodeId(pos(s))))
                .unwrap();
            let ct = comps
                .iter()
                .position(|c| c.contains(&NodeId(pos(t))))
                .unwrap();
            assert_ne!(cs, ct, "cut must separate s from t");
        }
    }

    #[test]
    fn disjoint_paths_are_disjoint_and_maximal() {
        let g = builders::complete_bipartite(3, 3);
        let s = NodeId(0);
        let t = NodeId(1); // both on side A, non-adjacent
        let paths = vertex_disjoint_paths(&g, s, t);
        assert_eq!(paths.len(), local_connectivity(&g, s, t));
        assert_eq!(paths.len(), 3);
        let mut seen = BTreeSet::new();
        for p in &paths {
            assert_eq!(p.first(), Some(&s));
            assert_eq!(p.last(), Some(&t));
            for w in &p[1..p.len() - 1] {
                assert!(seen.insert(*w), "interior node {w} reused across paths");
                // Consecutive hops must be actual links.
            }
            for pair in p.windows(2) {
                assert!(g.has_link(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn disjoint_paths_on_adjacent_pair_include_direct_link() {
        let g = builders::complete(4);
        let paths = vertex_disjoint_paths(&g, NodeId(0), NodeId(1));
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn flow_matches_brute_force_on_assorted_graphs() {
        for (i, g) in [
            builders::cycle(5),
            builders::path(4),
            builders::complete(4),
            builders::complete_bipartite(2, 3),
            builders::wheel(5),
            builders::random_connected(7, 4, 1),
            builders::random_connected(7, 4, 2),
            builders::random_connected(8, 2, 3),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(
                vertex_connectivity(&g),
                vertex_connectivity_brute(&g),
                "graph #{i}"
            );
        }
    }
}
