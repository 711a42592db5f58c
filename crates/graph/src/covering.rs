//! Graph coverings: the engine of every FLM impossibility proof.
//!
//! A graph `S` *covers* `G` when there is a map φ from nodes of `S` to nodes
//! of `G` that preserves neighborhoods: φ restricted to the neighbors of any
//! node `s` is a bijection onto the neighbors of `φ(s)`. Under such a map,
//! `S` "looks locally like" `G` — a device installed at `s` receives exactly
//! the pattern of connections it would at `φ(s)`, so it cannot tell which
//! graph it inhabits. The paper's proofs all install the alleged consensus
//! devices in a suitable cover of the inadequate graph and harvest
//! contradictory scenarios from a single run.
//!
//! Three constructions appear in the paper, all provided here:
//!
//! * [`Covering::double_cover_crossing`] — two copies of `G` with all links
//!   between two designated node classes rerouted across the copies. With the
//!   triangle partitioned `{a},{b},{c}` and the `a`–`c` links crossed this is
//!   the hexagon of §3.1; with the 4-cycle's `a`–`b` links crossed it is the
//!   8-ring of §3.2.
//! * [`Covering::cyclic_cover`] — the `m`-fold unrolling of a cycle; with
//!   base the triangle these are the `4k`-node rings of §4–§5 and the
//!   `(k+2)`-node rings of §6.2 and §7.
//! * [`quotient`] — footnote 3's "collapse" of a partitioned graph to one
//!   node per class, used by the reduction from the general `n ≤ 3f` case to
//!   the three-node case.

use std::collections::BTreeSet;

use crate::{Graph, GraphError, NodeId};

/// A validated covering map φ: S → G.
///
/// Construction through [`Covering::new`] (or the named constructors)
/// guarantees the local-isomorphism property, so downstream code — the
/// simulator installing devices, the refuters extracting scenarios — can rely
/// on it without re-checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Covering {
    cover: Graph,
    base: Graph,
    map: Vec<NodeId>,
    /// `fibers[g]` = φ⁻¹(g), precomputed at construction — [`Covering::fiber`]
    /// is on refuter hot paths (once per transplanted faulty node) and must
    /// not rescan the cover or allocate.
    fibers: Vec<Vec<NodeId>>,
}

impl Covering {
    /// Validates that `map` (indexed by cover node) is a covering map from
    /// `cover` onto `base` and bundles the three into a [`Covering`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotACovering`] when the map does not preserve
    /// neighborhoods, with a description of the first violation found, and
    /// [`GraphError::BadParameter`] when `map` has the wrong length or
    /// targets outside `base`.
    pub fn new(cover: Graph, base: Graph, map: Vec<NodeId>) -> Result<Self, GraphError> {
        if map.len() != cover.node_count() {
            return Err(GraphError::BadParameter {
                reason: format!(
                    "map has {} entries for a cover with {} nodes",
                    map.len(),
                    cover.node_count()
                ),
            });
        }
        if let Some(&bad) = map.iter().find(|t| t.index() >= base.node_count()) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                nodes: base.node_count(),
            });
        }
        for s in cover.nodes() {
            let target = map[s.index()];
            let image: BTreeSet<NodeId> = cover.neighbors(s).map(|w| map[w.index()]).collect();
            let expected: BTreeSet<NodeId> = base.neighbors(target).collect();
            if cover.degree(s) != base.degree(target) {
                return Err(GraphError::NotACovering {
                    reason: format!(
                        "{s} has degree {} but its image {target} has degree {}",
                        cover.degree(s),
                        base.degree(target)
                    ),
                });
            }
            if image != expected {
                return Err(GraphError::NotACovering {
                    reason: format!(
                        "neighbors of {s} map to {image:?}, expected neighbors {expected:?} of {target}"
                    ),
                });
            }
            // Equal-size sets with equal image ⇒ the restriction is a
            // bijection (injectivity follows from |image| = degree).
        }
        let mut fibers: Vec<Vec<NodeId>> = vec![Vec::new(); base.node_count()];
        for s in cover.nodes() {
            fibers[map[s.index()].index()].push(s);
        }
        Ok(Covering {
            cover,
            base,
            map,
            fibers,
        })
    }

    /// The covering graph `S`.
    pub fn cover(&self) -> &Graph {
        &self.cover
    }

    /// The base graph `G`.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// φ(s): the base node a cover node projects to.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a node of the cover.
    pub fn project(&self, s: NodeId) -> NodeId {
        self.map[s.index()]
    }

    /// The fiber φ⁻¹(g): all cover nodes projecting to `g`, in order.
    /// Precomputed at construction; the borrow is free.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a node of the base.
    pub fn fiber(&self, g: NodeId) -> &[NodeId] {
        &self.fibers[g.index()]
    }

    /// For a cover node `s` and a base neighbor `t` of `φ(s)`, the unique
    /// cover neighbor of `s` projecting to `t` — the "lift" of the base edge
    /// `(φ(s), t)` at `s`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a neighbor of `φ(s)` in the base.
    pub fn lift_neighbor(&self, s: NodeId, t: NodeId) -> NodeId {
        self.cover
            .neighbors(s)
            .find(|w| self.map[w.index()] == t)
            .unwrap_or_else(|| panic!("{t} is not a base neighbor of φ({s})"))
    }

    /// Two copies of `base` with every link between node classes `x` and `y`
    /// rerouted to cross the copies. Cover node ids: copy 0 keeps base ids,
    /// copy 1 is offset by `n`.
    ///
    /// This realizes both §3.1 (cross the `a`–`c` links of the 3-partition)
    /// and §3.2 (cross the links between the separated class `a` and one
    /// half `b` of the vertex cut).
    ///
    /// ```
    /// use flm_graph::{builders, covering::Covering, NodeId};
    /// use std::collections::BTreeSet;
    ///
    /// // The paper's hexagon: two triangles with the a–c links crossed.
    /// let triangle = builders::triangle();
    /// let a: BTreeSet<NodeId> = [NodeId(0)].into();
    /// let c: BTreeSet<NodeId> = [NodeId(2)].into();
    /// let hexagon = Covering::double_cover_crossing(&triangle, &a, &c)?;
    /// assert_eq!(hexagon.cover().node_count(), 6);
    /// assert_eq!(hexagon.fiber(NodeId(1)).len(), 2);
    /// # Ok::<(), flm_graph::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadPartition`] if `x` and `y` overlap or
    /// mention nodes outside the graph, and [`GraphError::BadParameter`] if
    /// no `x`–`y` link exists (the "cover" would be two disjoint copies).
    pub fn double_cover_crossing(
        base: &Graph,
        x: &BTreeSet<NodeId>,
        y: &BTreeSet<NodeId>,
    ) -> Result<Self, GraphError> {
        let n = base.node_count();
        if x.intersection(y).next().is_some() {
            return Err(GraphError::BadPartition {
                reason: "crossing classes must be disjoint".into(),
            });
        }
        if let Some(&bad) = x.union(y).find(|v| v.index() >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                nodes: n,
            });
        }
        let crosses = |u: NodeId, v: NodeId| {
            (x.contains(&u) && y.contains(&v)) || (y.contains(&u) && x.contains(&v))
        };
        if !base.links().iter().any(|&(u, v)| crosses(u, v)) {
            return Err(GraphError::BadParameter {
                reason: "no link between the crossing classes; cover would be disconnected copies"
                    .into(),
            });
        }
        let mut cover = Graph::new(2 * n);
        let off = n as u32;
        for (u, v) in base.links() {
            if crosses(u, v) {
                cover.add_link(NodeId(u.0), NodeId(v.0 + off))?;
                cover.add_link(NodeId(u.0 + off), NodeId(v.0))?;
            } else {
                cover.add_link(NodeId(u.0), NodeId(v.0))?;
                cover.add_link(NodeId(u.0 + off), NodeId(v.0 + off))?;
            }
        }
        let map = (0..2 * n as u32).map(|i| NodeId(i % off)).collect();
        Covering::new(cover, base.clone(), map)
    }

    /// The `m`-fold *crossed* cyclic cover: `m` copies of `base` in a ring,
    /// with every `x`–`y` link rerouted to join consecutive copies (the `x`
    /// endpoint in copy `i`, the `y` endpoint in copy `i+1 mod m`). Cover
    /// node ids: copy `i` occupies `i·n .. (i+1)·n`.
    ///
    /// This is the paper's general unrolling: with `base` the triangle and
    /// `x = {a}`, `y = {c}` it is (an isomorphic relabeling of) the long
    /// rings of §4–§7; `m = 2` recovers [`Covering::double_cover_crossing`]
    /// up to the same relabeling.
    ///
    /// # Errors
    ///
    /// As for [`Covering::double_cover_crossing`], plus
    /// [`GraphError::BadParameter`] when `m < 2`.
    pub fn cyclic_crossed_cover(
        base: &Graph,
        x: &BTreeSet<NodeId>,
        y: &BTreeSet<NodeId>,
        m: usize,
    ) -> Result<Self, GraphError> {
        if m < 2 {
            return Err(GraphError::BadParameter {
                reason: format!("a cyclic cover needs multiplicity at least 2, got {m}"),
            });
        }
        let n = base.node_count();
        if x.intersection(y).next().is_some() {
            return Err(GraphError::BadPartition {
                reason: "crossing classes must be disjoint".into(),
            });
        }
        if let Some(&bad) = x.union(y).find(|v| v.index() >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                nodes: n,
            });
        }
        let has_cross = base.links().iter().any(|&(u, v)| {
            (x.contains(&u) && y.contains(&v)) || (y.contains(&u) && x.contains(&v))
        });
        if !has_cross {
            return Err(GraphError::BadParameter {
                reason: "no link between the crossing classes; cover would be disconnected copies"
                    .into(),
            });
        }
        let mut cover = Graph::new(n * m);
        let at = |v: NodeId, copy: usize| NodeId((copy * n) as u32 + v.0);
        for (u, v) in base.links() {
            // Orient each crossing link from its x endpoint to its y one.
            let cross = if x.contains(&u) && y.contains(&v) {
                Some((u, v))
            } else if y.contains(&u) && x.contains(&v) {
                Some((v, u))
            } else {
                None
            };
            for copy in 0..m {
                match cross {
                    Some((xu, yv)) => {
                        cover.add_link(at(xu, copy), at(yv, (copy + 1) % m))?;
                    }
                    None => {
                        cover.add_link(at(u, copy), at(v, copy))?;
                    }
                }
            }
        }
        let map = (0..(n * m) as u32).map(|i| NodeId(i % n as u32)).collect();
        Covering::new(cover, base.clone(), map)
    }

    /// The `m`-fold cyclic cover of the cycle `C_b`: the ring `C_{bm}` with
    /// φ(i) = i mod b.
    ///
    /// With `b = 3` the base is the triangle (a cycle *and* the complete
    /// graph `K_3`), and the covers are the paper's long rings: §4/§5 use
    /// `C_{4k}` (so `m = 4k/3`), §6.2/§7 use `C_{k+2}` (so `m = (k+2)/3`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadParameter`] if `b < 3` or `m < 2`.
    pub fn cyclic_cover(b: usize, m: usize) -> Result<Self, GraphError> {
        if b < 3 {
            return Err(GraphError::BadParameter {
                reason: format!("base cycle must have at least 3 nodes, got {b}"),
            });
        }
        if m < 2 {
            return Err(GraphError::BadParameter {
                reason: format!("a cyclic cover needs multiplicity at least 2, got {m}"),
            });
        }
        let base = crate::builders::cycle(b);
        let cover = crate::builders::cycle(b * m);
        let map = (0..(b * m) as u32).map(|i| NodeId(i % b as u32)).collect();
        Covering::new(cover, base, map)
    }
}

/// Footnote 3's "collapse": quotient a graph by a partition of its nodes.
///
/// Each class becomes one node; classes are linked iff some cross link
/// exists between them. Returns the quotient graph together with the class
/// index of every original node.
///
/// # Errors
///
/// Returns [`GraphError::BadPartition`] unless `classes` is a partition of
/// the node set into non-empty classes.
pub fn quotient(
    g: &Graph,
    classes: &[BTreeSet<NodeId>],
) -> Result<(Graph, Vec<usize>), GraphError> {
    let n = g.node_count();
    let mut class_of = vec![usize::MAX; n];
    for (i, class) in classes.iter().enumerate() {
        if class.is_empty() {
            return Err(GraphError::BadPartition {
                reason: format!("class {i} is empty"),
            });
        }
        for &v in class {
            if v.index() >= n {
                return Err(GraphError::NodeOutOfRange { node: v, nodes: n });
            }
            if class_of[v.index()] != usize::MAX {
                return Err(GraphError::BadPartition {
                    reason: format!("{v} appears in classes {} and {i}", class_of[v.index()]),
                });
            }
            class_of[v.index()] = i;
        }
    }
    if let Some(v) = class_of.iter().position(|&c| c == usize::MAX) {
        return Err(GraphError::BadPartition {
            reason: format!("n{v} is not covered by any class"),
        });
    }
    let mut q = Graph::new(classes.len());
    for (u, v) in g.links() {
        let (cu, cv) = (class_of[u.index()], class_of[v.index()]);
        if cu != cv {
            q.add_link(NodeId(cu as u32), NodeId(cv as u32))?;
        }
    }
    Ok((q, class_of))
}

/// Splits `0..n` into three consecutive classes of sizes as equal as
/// possible — the canonical 3-partition for the `n ≤ 3f` node-bound proof,
/// where every class must have between 1 and `f` nodes.
///
/// # Errors
///
/// Returns [`GraphError::BadParameter`] when `n < 3` or `n > 3f` fails to
/// admit classes of size at most `f` (i.e. when the graph is adequate in
/// node count).
pub fn node_bound_partition(n: usize, f: usize) -> Result<[BTreeSet<NodeId>; 3], GraphError> {
    if n < 3 {
        return Err(GraphError::BadParameter {
            reason: format!("need at least 3 nodes, got {n}"),
        });
    }
    if f == 0 || n > 3 * f {
        return Err(GraphError::BadParameter {
            reason: format!("n = {n} > 3f = {} — graph is node-adequate", 3 * f),
        });
    }
    // Sizes: distribute n over 3 classes, each ≥ 1, each ≤ f. Ceil-splitting
    // achieves this: sizes differ by at most 1 and max size = ceil(n/3) ≤ f.
    let base_size = n / 3;
    let rem = n % 3;
    let mut sizes = [base_size; 3];
    for s in sizes.iter_mut().take(rem) {
        *s += 1;
    }
    let mut classes: [BTreeSet<NodeId>; 3] = Default::default();
    let mut next = 0u32;
    for (i, &sz) in sizes.iter().enumerate() {
        for _ in 0..sz {
            classes[i].insert(NodeId(next));
            next += 1;
        }
    }
    Ok(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn hexagon_covers_triangle() {
        let tri = builders::triangle();
        let a: BTreeSet<NodeId> = [NodeId(0)].into();
        let c: BTreeSet<NodeId> = [NodeId(2)].into();
        let cov = Covering::double_cover_crossing(&tri, &a, &c).unwrap();
        assert_eq!(cov.cover().node_count(), 6);
        // The hexagon is a 6-cycle: every node has degree 2.
        for s in cov.cover().nodes() {
            assert_eq!(cov.cover().degree(s), 2);
        }
        assert!(cov.cover().is_connected());
        // Fibers have size 2.
        for g in tri.nodes() {
            assert_eq!(cov.fiber(g).len(), 2);
        }
        // Ring order a0-b0-c0-a1-b1-c1: check the crossed links.
        assert!(cov.cover().has_link(NodeId(2), NodeId(3))); // c0 - a1
        assert!(cov.cover().has_link(NodeId(5), NodeId(0))); // c1 - a0
    }

    #[test]
    fn eight_ring_covers_cycle4() {
        let c4 = builders::cycle(4);
        // Classes: a = {0}, cut halves b = {1}, d = {3}; cross a–b links.
        let a: BTreeSet<NodeId> = [NodeId(0)].into();
        let b: BTreeSet<NodeId> = [NodeId(1)].into();
        let cov = Covering::double_cover_crossing(&c4, &a, &b).unwrap();
        assert_eq!(cov.cover().node_count(), 8);
        assert!(cov.cover().is_connected());
        for s in cov.cover().nodes() {
            assert_eq!(cov.cover().degree(s), 2);
        }
    }

    #[test]
    fn crossing_overlapping_classes_is_rejected() {
        let tri = builders::triangle();
        let a: BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into();
        let b: BTreeSet<NodeId> = [NodeId(1)].into();
        assert!(matches!(
            Covering::double_cover_crossing(&tri, &a, &b),
            Err(GraphError::BadPartition { .. })
        ));
    }

    #[test]
    fn crossing_unlinked_classes_is_rejected() {
        let p = builders::path(3); // 0-1-2; no 0–2 link
        let a: BTreeSet<NodeId> = [NodeId(0)].into();
        let c: BTreeSet<NodeId> = [NodeId(2)].into();
        assert!(matches!(
            Covering::double_cover_crossing(&p, &a, &c),
            Err(GraphError::BadParameter { .. })
        ));
    }

    #[test]
    fn cyclic_cover_of_triangle() {
        let cov = Covering::cyclic_cover(3, 4).unwrap();
        assert_eq!(cov.cover().node_count(), 12);
        for s in cov.cover().nodes() {
            assert_eq!(cov.project(s), NodeId(s.0 % 3));
        }
        // Lift of base edge (0,1) at cover node 3 (which projects to 0) is 4.
        assert_eq!(cov.lift_neighbor(NodeId(3), NodeId(1)), NodeId(4));
        // Lift of base edge (0,2) at cover node 3 is 2.
        assert_eq!(cov.lift_neighbor(NodeId(3), NodeId(2)), NodeId(2));
    }

    #[test]
    fn cyclic_cover_of_triangle_is_one_ring_of_3m_nodes() {
        // Connected and 2-regular: one cycle through all 3m nodes, not m
        // separate triangles, so information spreads around the whole ring.
        for m in [2usize, 4, 8] {
            let cov = Covering::cyclic_cover(3, m).unwrap();
            assert_eq!(cov.cover().node_count(), 3 * m);
            assert!(cov.cover().is_connected());
            for s in cov.cover().nodes() {
                assert_eq!(cov.cover().degree(s), 2);
            }
        }
    }

    #[test]
    fn crossed_cyclic_cover_of_triangle_is_a_ring() {
        let tri = builders::triangle();
        let a: BTreeSet<NodeId> = [NodeId(0)].into();
        let c: BTreeSet<NodeId> = [NodeId(2)].into();
        for m in [2usize, 3, 5] {
            let cov = Covering::cyclic_crossed_cover(&tri, &a, &c, m).unwrap();
            assert_eq!(cov.cover().node_count(), 3 * m);
            assert!(cov.cover().is_connected());
            for s in cov.cover().nodes() {
                assert_eq!(cov.cover().degree(s), 2);
            }
        }
    }

    #[test]
    fn crossed_cyclic_cover_of_k6_partition() {
        // The §4 general case: m ring-connected copies of K6 with the
        // a–c class links crossed.
        let g = builders::complete(6);
        let [a, _b, c] = node_bound_partition(6, 2).unwrap();
        let cov = Covering::cyclic_crossed_cover(&g, &a, &c, 4).unwrap();
        assert_eq!(cov.cover().node_count(), 24);
        assert!(cov.cover().is_connected());
        for s in cov.cover().nodes() {
            assert_eq!(cov.cover().degree(s), 5);
        }
        // Fibers have size m.
        for v in g.nodes() {
            assert_eq!(cov.fiber(v).len(), 4);
        }
    }

    #[test]
    fn crossed_cyclic_cover_rejects_bad_inputs() {
        let tri = builders::triangle();
        let a: BTreeSet<NodeId> = [NodeId(0)].into();
        let c: BTreeSet<NodeId> = [NodeId(2)].into();
        assert!(Covering::cyclic_crossed_cover(&tri, &a, &c, 1).is_err());
        let overlap: BTreeSet<NodeId> = [NodeId(0), NodeId(2)].into();
        assert!(Covering::cyclic_crossed_cover(&tri, &overlap, &c, 3).is_err());
        // No cross link.
        let p = builders::path(3);
        let x: BTreeSet<NodeId> = [NodeId(0)].into();
        let y: BTreeSet<NodeId> = [NodeId(2)].into();
        assert!(Covering::cyclic_crossed_cover(&p, &x, &y, 3).is_err());
    }

    #[test]
    fn cyclic_cover_rejects_degenerate_parameters() {
        assert!(Covering::cyclic_cover(2, 4).is_err());
        assert!(Covering::cyclic_cover(3, 1).is_err());
    }

    #[test]
    fn covering_validation_rejects_non_coverings() {
        // The 4-cycle does NOT cover the triangle: the map i mod 3 fails.
        let c4 = builders::cycle(4);
        let tri = builders::triangle();
        let map = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0)];
        assert!(matches!(
            Covering::new(c4, tri, map),
            Err(GraphError::NotACovering { .. })
        ));
    }

    #[test]
    fn covering_validation_rejects_wrong_degree() {
        // Path covers nothing of higher degree.
        let p = builders::path(3);
        let tri = builders::triangle();
        let map = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert!(matches!(
            Covering::new(p, tri, map),
            Err(GraphError::NotACovering { .. })
        ));
    }

    #[test]
    fn quotient_collapses_partition() {
        let g = builders::complete(6);
        let classes = node_bound_partition(6, 2).unwrap();
        let (q, class_of) = quotient(&g, &classes).unwrap();
        assert_eq!(q.node_count(), 3);
        assert_eq!(q.link_count(), 3); // triangle
        assert_eq!(class_of, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn quotient_rejects_non_partitions() {
        let g = builders::triangle();
        let overlapping = [
            [NodeId(0), NodeId(1)].into(),
            [NodeId(1)].into(),
            [NodeId(2)].into(),
        ];
        assert!(quotient(&g, &overlapping).is_err());
        let missing: [BTreeSet<NodeId>; 2] = [[NodeId(0)].into(), [NodeId(1)].into()];
        assert!(quotient(&g, &missing).is_err());
    }

    #[test]
    fn node_bound_partition_respects_f() {
        for (n, f) in [(3, 1), (5, 2), (6, 2), (9, 3), (4, 2)] {
            let classes = node_bound_partition(n, f).unwrap();
            let total: usize = classes.iter().map(BTreeSet::len).sum();
            assert_eq!(total, n);
            for c in &classes {
                assert!(!c.is_empty() && c.len() <= f, "n={n}, f={f}");
            }
        }
        // Adequate in node count: rejected.
        assert!(node_bound_partition(7, 2).is_err());
        assert!(node_bound_partition(4, 1).is_err());
    }

    #[test]
    fn double_cover_of_partitioned_k6() {
        // General case of §3.1: K6 with f = 2, classes of size 2.
        let g = builders::complete(6);
        let [a, _b, c] = node_bound_partition(6, 2).unwrap();
        let cov = Covering::double_cover_crossing(&g, &a, &c).unwrap();
        assert_eq!(cov.cover().node_count(), 12);
        assert!(cov.cover().is_connected());
        for s in cov.cover().nodes() {
            assert_eq!(cov.cover().degree(s), 5);
        }
    }
}
