//! Distance metrics on communication graphs.
//!
//! The ring refuters size their covers by information-propagation distance;
//! [`diameter`] exposes that quantity for experiments and for sizing
//! heuristics.

use crate::{Graph, NodeId};

/// BFS distances from `source` (`usize::MAX` for unreachable nodes).
///
/// # Panics
///
/// Panics if `source` is not a node of the graph.
fn distances_from(g: &Graph, source: NodeId) -> Vec<usize> {
    let n = g.node_count();
    assert!(source.index() < n, "source out of range");
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for w in g.neighbors(v) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The eccentricity of `v`: its greatest distance to any reachable node.
fn eccentricity(g: &Graph, v: NodeId) -> usize {
    distances_from(g, v)
        .into_iter()
        .filter(|&d| d != usize::MAX)
        .max()
        .unwrap_or(0)
}

/// The diameter of a connected graph: the greatest pairwise distance.
/// Returns `None` for disconnected graphs.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.node_count() == 0 || !g.is_connected() {
        return None;
    }
    g.nodes().map(|v| eccentricity(g, v)).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn distances_on_a_path() {
        let g = builders::path(5);
        assert_eq!(distances_from(&g, NodeId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
    }

    #[test]
    fn diameters_of_named_graphs() {
        assert_eq!(diameter(&builders::complete(6)), Some(1));
        assert_eq!(diameter(&builders::cycle(8)), Some(4));
        assert_eq!(diameter(&builders::path(4)), Some(3));
        assert_eq!(diameter(&builders::hypercube(3)), Some(3));
        let disconnected = builders::from_links(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&disconnected), None);
    }

    #[test]
    fn ring_cover_diameter_grows_linearly() {
        // The covers the ring refuters build really do spread information
        // slowly: diameter of C_{3m} is ⌊3m/2⌋.
        use crate::covering::Covering;
        for m in [2usize, 4, 8] {
            let cov = Covering::cyclic_cover(3, m).unwrap();
            assert_eq!(diameter(cov.cover()), Some(3 * m / 2));
        }
    }
}
