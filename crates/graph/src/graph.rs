//! The core [`Graph`] type: communication graphs with paired directed edges.

use std::collections::BTreeSet;
use std::fmt;

use crate::GraphError;

/// Identifier of a node in a [`Graph`].
///
/// Nodes of a graph with `n` nodes are always `NodeId(0) .. NodeId(n-1)`.
/// The newtype keeps node indices from being confused with ordinary counters
/// (rounds, ticks, fault budgets) in the rest of the workspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position when used as an index into per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A communication graph in the sense of FLM §2.
///
/// The paper models communication as a directed graph whose directed edges
/// occur in anti-parallel pairs: `(u, v)` is an edge iff `(v, u)` is. This
/// type enforces that invariant — [`Graph::add_link`] always inserts both
/// directions — while still letting the simulator treat each direction as an
/// independent channel with its own behavior.
///
/// Neighbor sets are stored as ordered sets so that all iteration (and hence
/// everything downstream: simulation, covering construction, refutation) is
/// deterministic.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `neighbors[v]` = ordered set of nodes adjacent to `v`.
    neighbors: Vec<BTreeSet<NodeId>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            neighbors: vec![BTreeSet::new(); n],
        }
    }

    /// Largest node count [`Graph::from_bytes`] will accept. Hostile byte
    /// streams can claim any `u32` node count in four bytes; capping it keeps
    /// the decoder's allocations proportional to honest inputs.
    pub const MAX_DECODED_NODES: usize = 1 << 16;

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected links (each counts as two directed edges).
    pub fn link_count(&self) -> usize {
        self.neighbors.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Iterator over all node ids in increasing order. The iterator does not
    /// borrow the graph, so it can drive mutation loops.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.neighbors.len() as u32).map(NodeId)
    }

    /// Adds the pair of directed edges `(u, v)` and `(v, u)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is not a
    /// node of the graph, and [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.node_count();
        for w in [u, v] {
            if w.index() >= n {
                return Err(GraphError::NodeOutOfRange { node: w, nodes: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.neighbors[u.index()].insert(v);
        self.neighbors[v.index()].insert(u);
        Ok(())
    }

    /// Encodes the graph into the canonical byte form read back by
    /// [`Graph::from_bytes`].
    ///
    /// Layout (all integers big-endian): node count as `u32`, link count as
    /// `u32`, then each undirected link as a `(u32, u32)` pair with
    /// `u < v`, sorted lexicographically. The link list is exactly
    /// [`Graph::links`], so equal graphs encode to identical bytes and the
    /// encoding is its own canonical form: `from_bytes` rejects any stream
    /// that `to_bytes` would not have produced. Written by hand because this
    /// crate sits below `flm-sim`, which declares the other wire schemas.
    pub fn to_bytes(&self) -> Vec<u8> {
        let links = self.links();
        let mut out = Vec::with_capacity(8 + links.len() * 8);
        out.extend_from_slice(&(self.node_count() as u32).to_be_bytes());
        out.extend_from_slice(&(links.len() as u32).to_be_bytes());
        for (u, v) in links {
            out.extend_from_slice(&u.0.to_be_bytes());
            out.extend_from_slice(&v.0.to_be_bytes());
        }
        out
    }

    /// Decodes a graph from the canonical byte form of [`Graph::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadParameter`] if the stream is truncated, has
    /// trailing bytes, or is not canonical: every link must satisfy `u < v`,
    /// refer to in-range nodes, and the list must be strictly increasing in
    /// lexicographic order (which also rules out duplicates). Rejecting
    /// non-canonical streams makes `to_bytes ∘ from_bytes` the identity on
    /// bytes, which the certificate codec relies on for byte-identical
    /// re-encoding.
    ///
    /// The node count is additionally capped at [`Graph::MAX_DECODED_NODES`]:
    /// adjacency storage is allocated per node before any link is read, so an
    /// unchecked count would let a four-byte header demand gigabytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Graph, GraphError> {
        let malformed = |reason: String| GraphError::BadParameter { reason };
        let read_u32 = |at: usize| -> Result<u32, GraphError> {
            let chunk = bytes
                .get(at..at + 4)
                .ok_or_else(|| malformed(format!("graph bytes truncated at offset {at}")))?;
            Ok(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
        };
        let n = read_u32(0)?;
        if n as usize > Graph::MAX_DECODED_NODES {
            return Err(malformed(format!(
                "node count {n} exceeds the decode cap of {}",
                Graph::MAX_DECODED_NODES
            )));
        }
        let link_count = read_u32(4)? as usize;
        let expected_len = 8 + link_count * 8;
        if bytes.len() != expected_len {
            return Err(malformed(format!(
                "graph bytes length {} does not match {} links over {} nodes (expected {})",
                bytes.len(),
                link_count,
                n,
                expected_len
            )));
        }
        let mut g = Graph::new(n as usize);
        let mut previous: Option<(u32, u32)> = None;
        for i in 0..link_count {
            let u = read_u32(8 + i * 8)?;
            let v = read_u32(12 + i * 8)?;
            if u >= v {
                return Err(malformed(format!(
                    "link ({u}, {v}) is not in canonical u < v form"
                )));
            }
            if previous.is_some_and(|p| p >= (u, v)) {
                return Err(malformed(format!(
                    "link ({u}, {v}) breaks the canonical lexicographic order"
                )));
            }
            previous = Some((u, v));
            g.add_link(NodeId(u), NodeId(v))?;
        }
        Ok(g)
    }

    /// True if the anti-parallel edge pair between `u` and `v` is present.
    pub fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors
            .get(u.index())
            .is_some_and(|s| s.contains(&v))
    }

    /// The ordered neighbor set of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this graph.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors[v.index()].iter().copied()
    }

    /// Degree of `v` (number of neighbors).
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors[v.index()].len()
    }

    /// All directed edges `(u, v)`, lexicographically ordered.
    pub fn directed_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(2 * self.link_count());
        for u in self.nodes() {
            for v in self.neighbors(u) {
                out.push((u, v));
            }
        }
        out
    }

    /// All undirected links `{u, v}` reported once with `u < v`.
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.link_count());
        for u in self.nodes() {
            for v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// The *inedge border* of a node set `U` (FLM §2): all directed edges
    /// from nodes outside `U` into `U`.
    pub fn inedge_border(&self, u_set: &BTreeSet<NodeId>) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for &v in u_set {
            for w in self.neighbors(v) {
                if !u_set.contains(&w) {
                    out.push((w, v));
                }
            }
        }
        out.sort();
        out
    }

    /// Edges internal to a node set `U` (both endpoints in `U`), directed.
    pub fn internal_edges(&self, u_set: &BTreeSet<NodeId>) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for &v in u_set {
            for w in self.neighbors(v) {
                if u_set.contains(&w) {
                    out.push((v, w));
                }
            }
        }
        out.sort();
        out
    }

    /// The subgraph induced by `U`, together with the mapping from new node
    /// ids (dense `0..|U|`) back to the original ids.
    fn induced_subgraph(&self, u_set: &BTreeSet<NodeId>) -> (Graph, Vec<NodeId>) {
        let order: Vec<NodeId> = u_set.iter().copied().collect();
        let mut sub = Graph::new(order.len());
        for (i, &v) in order.iter().enumerate() {
            for w in self.neighbors(v) {
                if let Ok(j) = order.binary_search(&w) {
                    if i < j {
                        sub.add_link(NodeId(i as u32), NodeId(j as u32))
                            .expect("indices are in range by construction");
                    }
                }
            }
        }
        (sub, order)
    }

    /// True if every pair of distinct nodes is linked.
    pub fn is_complete(&self) -> bool {
        let n = self.node_count();
        self.nodes().all(|v| self.degree(v) == n - 1)
    }

    /// True if the graph is connected (the empty graph is connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for w in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Connected components as sorted node sets, ordered by smallest member.
    pub fn components(&self) -> Vec<BTreeSet<NodeId>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for start in self.nodes() {
            if seen[start.index()] {
                continue;
            }
            let mut comp = BTreeSet::new();
            let mut stack = vec![start];
            seen[start.index()] = true;
            while let Some(v) = stack.pop() {
                comp.insert(v);
                for w in self.neighbors(v) {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// Removes a set of nodes, returning the graph on the remaining nodes
    /// and the mapping from new ids to old ids.
    pub fn remove_nodes(&self, removed: &BTreeSet<NodeId>) -> (Graph, Vec<NodeId>) {
        let keep: BTreeSet<NodeId> = self.nodes().filter(|v| !removed.contains(v)).collect();
        self.induced_subgraph(&keep)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, links={:?})",
            self.node_count(),
            self.links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        let mut g = Graph::new(3);
        g.add_link(NodeId(0), NodeId(1)).unwrap();
        g.add_link(NodeId(1), NodeId(2)).unwrap();
        g
    }

    #[test]
    fn links_are_paired_directed_edges() {
        let g = path3();
        assert!(g.has_link(NodeId(0), NodeId(1)));
        assert!(g.has_link(NodeId(1), NodeId(0)));
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.directed_edges().len(), 4);
    }

    #[test]
    fn add_link_rejects_out_of_range_and_self_loops() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_link(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn add_link_is_idempotent() {
        let mut g = Graph::new(2);
        g.add_link(NodeId(0), NodeId(1)).unwrap();
        g.add_link(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn inedge_border_of_middle_node() {
        let g = path3();
        let u: BTreeSet<NodeId> = [NodeId(1)].into_iter().collect();
        assert_eq!(
            g.inedge_border(&u),
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(1))]
        );
    }

    #[test]
    fn internal_edges_of_pair() {
        let g = path3();
        let u: BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into_iter().collect();
        assert_eq!(
            g.internal_edges(&u),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]
        );
    }

    #[test]
    fn induced_subgraph_renumbers_densely() {
        let g = path3();
        let u: BTreeSet<NodeId> = [NodeId(0), NodeId(2)].into_iter().collect();
        let (sub, order) = g.induced_subgraph(&u);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.link_count(), 0);
        assert_eq!(order, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn connectivity_queries() {
        let g = path3();
        assert!(g.is_connected());
        let removed: BTreeSet<NodeId> = [NodeId(1)].into_iter().collect();
        let (rest, _) = g.remove_nodes(&removed);
        assert!(!rest.is_connected());
        assert_eq!(rest.components().len(), 2);
    }

    #[test]
    fn completeness_check() {
        let mut g = Graph::new(3);
        g.add_link(NodeId(0), NodeId(1)).unwrap();
        g.add_link(NodeId(1), NodeId(2)).unwrap();
        assert!(!g.is_complete());
        g.add_link(NodeId(0), NodeId(2)).unwrap();
        assert!(g.is_complete());
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert_eq!(Graph::new(0).components().len(), 0);
    }

    #[test]
    fn byte_roundtrip_is_identity() {
        for g in [Graph::new(0), Graph::new(5), path3()] {
            let bytes = g.to_bytes();
            let back = Graph::from_bytes(&bytes).unwrap();
            assert_eq!(back, g);
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let bytes = path3().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Graph::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(Graph::from_bytes(&extended).is_err());
    }

    #[test]
    fn decode_rejects_non_canonical_links() {
        let encode = |n: u32, links: &[(u32, u32)]| {
            let mut out = Vec::new();
            out.extend_from_slice(&n.to_be_bytes());
            out.extend_from_slice(&(links.len() as u32).to_be_bytes());
            for &(u, v) in links {
                out.extend_from_slice(&u.to_be_bytes());
                out.extend_from_slice(&v.to_be_bytes());
            }
            out
        };
        // Reversed endpoints, self loop, out-of-range node, duplicate link,
        // and out-of-order list are all non-canonical.
        for (n, links) in [
            (3, vec![(1u32, 0u32)]),
            (3, vec![(1, 1)]),
            (3, vec![(1, 3)]),
            (3, vec![(0, 1), (0, 1)]),
            (3, vec![(1, 2), (0, 1)]),
        ] {
            assert!(
                Graph::from_bytes(&encode(n, &links)).is_err(),
                "{links:?} must be rejected"
            );
        }
    }
}
