//! Property-based tests for `flm-graph`.
//!
//! These quantify over randomized graphs and partitions, checking the
//! structural invariants every FLM proof leans on: flow-based connectivity
//! agrees with brute force, covers really are locally isomorphic, disjoint
//! paths really are disjoint, and quotients collapse partitions correctly.

use std::collections::BTreeSet;

use flm_graph::covering::{node_bound_partition, quotient, Covering};
use flm_graph::{adequacy, builders, connectivity, NodeId};
use flm_prop::Rng;

/// A deterministic pseudo-random connected graph.
fn arb_connected_graph(rng: &mut Rng) -> flm_graph::Graph {
    let n = rng.usize(4..10);
    let extra = rng.usize(0..8);
    let seed = rng.range_u64(0..1000);
    builders::random_connected(n, extra, seed)
}

#[test]
fn flow_connectivity_matches_brute_force() {
    flm_prop::cases(64, 0x61F1, |rng| {
        let g = arb_connected_graph(rng);
        assert_eq!(
            connectivity::vertex_connectivity(&g),
            connectivity::vertex_connectivity_brute(&g)
        );
    });
}

#[test]
fn min_cut_size_equals_connectivity_and_separates() {
    flm_prop::cases(64, 0x61F2, |rng| {
        let g = arb_connected_graph(rng);
        let kappa = connectivity::vertex_connectivity(&g);
        if let Some((cut, s, t)) = connectivity::min_vertex_cut(&g) {
            assert_eq!(cut.len(), kappa);
            assert!(!cut.contains(&s));
            assert!(!cut.contains(&t));
            let (rest, order) = g.remove_nodes(&cut);
            assert!(!rest.is_connected() || rest.node_count() < 2);
            // s and t are in different components.
            let pos = |x: NodeId| NodeId(order.iter().position(|&v| v == x).unwrap() as u32);
            let comps = rest.components();
            let cs = comps.iter().position(|c| c.contains(&pos(s)));
            let ct = comps.iter().position(|c| c.contains(&pos(t)));
            assert_ne!(cs, ct);
        } else {
            // No cut exists only for complete graphs.
            let n = g.node_count();
            assert!(g.nodes().all(|v| g.degree(v) == n - 1));
        }
    });
}

#[test]
fn disjoint_paths_witness_local_connectivity() {
    flm_prop::cases(64, 0x61F3, |rng| {
        let g = arb_connected_graph(rng);
        let pick = rng.usize(0..100);
        let n = g.node_count();
        let s = NodeId((pick % n) as u32);
        let t = NodeId(((pick / n + 1 + s.index()) % n) as u32);
        if s == t {
            return;
        }
        let paths = connectivity::vertex_disjoint_paths(&g, s, t);
        assert_eq!(paths.len(), connectivity::local_connectivity(&g, s, t));
        let mut interior = BTreeSet::new();
        for p in &paths {
            assert_eq!(p.first(), Some(&s));
            assert_eq!(p.last(), Some(&t));
            for pair in p.windows(2) {
                assert!(g.has_link(pair[0], pair[1]));
            }
            for w in &p[1..p.len() - 1] {
                assert!(interior.insert(*w), "interior node reused");
            }
        }
    });
}

#[test]
fn double_cover_is_validated_covering() {
    flm_prop::cases(64, 0x61F4, |rng| {
        let g = arb_connected_graph(rng);
        let seed = rng.range_u64(0..100);
        // Pick two disjoint random classes with at least one cross link.
        let n = g.node_count();
        let x: BTreeSet<NodeId> = g
            .nodes()
            .filter(|v| (u64::from(v.0) + seed).is_multiple_of(3))
            .collect();
        let y: BTreeSet<NodeId> = g
            .nodes()
            .filter(|v| (u64::from(v.0) + seed) % 3 == 1)
            .collect();
        if x.is_empty() || y.is_empty() {
            return;
        }
        match Covering::double_cover_crossing(&g, &x, &y) {
            Ok(cov) => {
                assert_eq!(cov.cover().node_count(), 2 * n);
                // Fibers all have size exactly 2.
                for v in g.nodes() {
                    assert_eq!(cov.fiber(v).len(), 2);
                }
                // Degrees are preserved (already checked by validation, but
                // assert the public view).
                for s in cov.cover().nodes() {
                    assert_eq!(cov.cover().degree(s), g.degree(cov.project(s)));
                }
            }
            Err(_) => {
                // Only acceptable failure: no cross link between classes.
                let crosses = g.links().iter().any(|&(u, v)| {
                    (x.contains(&u) && y.contains(&v)) || (y.contains(&u) && x.contains(&v))
                });
                assert!(!crosses);
            }
        }
    });
}

#[test]
fn cyclic_covers_validate() {
    flm_prop::cases(48, 0x61F5, |rng| {
        let b = rng.usize(3..6);
        let m = rng.usize(2..6);
        let cov = Covering::cyclic_cover(b, m).unwrap();
        assert_eq!(cov.cover().node_count(), b * m);
        for s in cov.cover().nodes() {
            assert_eq!(cov.project(s), NodeId(s.0 % b as u32));
            // lift_neighbor round-trips: lifting each base neighbor gives
            // exactly the cover neighbors.
            let lifted: BTreeSet<NodeId> = cov
                .base()
                .neighbors(cov.project(s))
                .map(|t| cov.lift_neighbor(s, t))
                .collect();
            let actual: BTreeSet<NodeId> = cov.cover().neighbors(s).collect();
            assert_eq!(lifted, actual);
        }
    });
}

#[test]
fn node_bound_partition_is_partition_with_bounded_classes() {
    flm_prop::cases(64, 0x61F6, |rng| {
        let f = rng.usize(1..5);
        let n = 3 + rng.usize(0..10);
        if n > 3 * f {
            return;
        }
        let classes = node_bound_partition(n, f).unwrap();
        let mut all = BTreeSet::new();
        for c in &classes {
            assert!(!c.is_empty());
            assert!(c.len() <= f);
            for &v in c {
                assert!(all.insert(v));
            }
        }
        assert_eq!(all.len(), n);
    });
}

#[test]
fn quotient_of_node_bound_partition_is_connected_on_complete() {
    flm_prop::cases(64, 0x61F7, |rng| {
        let f = rng.usize(1..5);
        let n = 3 + rng.usize(0..10);
        if n > 3 * f {
            return;
        }
        let g = builders::complete(n);
        let classes = node_bound_partition(n, f).unwrap();
        let (q, class_of) = quotient(&g, &classes).unwrap();
        assert_eq!(q.node_count(), 3);
        // K_n quotients onto the triangle whenever all classes nonempty.
        assert_eq!(q.link_count(), 3);
        assert_eq!(class_of.len(), n);
    });
}

#[test]
fn adequacy_monotone_in_f() {
    flm_prop::cases(64, 0x61F8, |rng| {
        let g = arb_connected_graph(rng);
        // If a graph tolerates f faults it tolerates f-1.
        let fmax = adequacy::max_tolerable_faults(&g);
        for f in 0..=fmax {
            assert!(adequacy::is_adequate(&g, f));
        }
        assert!(!adequacy::is_adequate(&g, fmax + 1));
    });
}

/// A global minimum vertex cut and the pair `(s, t)` it separates.
type Cut = (BTreeSet<NodeId>, NodeId, NodeId);

/// The full-pair Menger scan `min_vertex_cut` used to run: every
/// non-adjacent pair `s < t` in order, keeping the first strictly smaller
/// cut.
fn min_vertex_cut_full_scan(g: &flm_graph::Graph) -> Option<Cut> {
    if g.node_count() == 0 || !g.is_connected() || g.is_complete() {
        return None;
    }
    let mut best: Option<Cut> = None;
    for s in g.nodes() {
        for t in g.nodes() {
            if s < t && !g.has_link(s, t) {
                let cut = connectivity::min_vertex_cut_between(g, s, t);
                if best.as_ref().is_none_or(|(b, _, _)| cut.len() < b.len()) {
                    best = Some((cut, s, t));
                }
            }
        }
    }
    best
}

/// Checks `min_vertex_cut` and `vertex_connectivity` against the full scan.
fn assert_matches_full_scan(g: &flm_graph::Graph, what: &str) {
    let full = min_vertex_cut_full_scan(g);
    assert_eq!(connectivity::min_vertex_cut(g), full, "{what}");
    let kappa = full.map_or(g.node_count().saturating_sub(1), |(cut, _, _)| cut.len());
    assert_eq!(connectivity::vertex_connectivity(g), kappa, "{what}");
}

#[test]
fn pruned_min_cut_matches_the_full_pair_scan() {
    let off_zero = std::cell::Cell::new(0);
    flm_prop::cases(2_000, 0x61F9, |rng| {
        let n = rng.usize(3..14);
        let extra = rng.usize(0..2 * n);
        let seed = rng.range_u64(0..1_000_000);
        let g = builders::random_connected(n, extra, seed);
        assert_matches_full_scan(&g, &format!("random_connected({n}, {extra}, {seed})"));
        if connectivity::min_vertex_cut(&g).is_some_and(|(_, s, _)| s != NodeId(0)) {
            off_zero.set(off_zero.get() + 1);
        }
    });
    // The sample must exercise sources past node 0.
    assert!(off_zero.get() > 0);
    assert_matches_full_scan(&builders::cycle(64), "cycle64");
    for n in 4..10 {
        assert_matches_full_scan(&builders::wheel(n), &format!("wheel({n})"));
    }
    for d in 1..6 {
        assert_matches_full_scan(&builders::hypercube(d), &format!("hypercube({d})"));
    }
    for a in 1..5 {
        for b in a..6 {
            assert_matches_full_scan(
                &builders::complete_bipartite(a, b),
                &format!("complete_bipartite({a}, {b})"),
            );
        }
    }
}
