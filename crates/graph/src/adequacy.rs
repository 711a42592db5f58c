//! The paper's adequacy dichotomy.
//!
//! FLM §1: for a fault budget `f`, a communication graph is **inadequate**
//! when it has fewer than `3f + 1` nodes *or* vertex connectivity less than
//! `2f + 1` (graphs are assumed to have at least three nodes). Every
//! consensus problem in the paper is unsolvable exactly on inadequate
//! graphs; `flm-core`'s refuters construct explicit counterexamples for
//! them, while `flm-protocols` provides working protocols for adequate ones.

use crate::{connectivity, Graph};

/// Why a graph is inadequate for a given fault budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inadequacy {
    /// Fewer than `3f + 1` nodes: `n ≤ 3f`.
    TooFewNodes {
        /// The node count `n`.
        n: usize,
        /// The fault budget `f`.
        f: usize,
    },
    /// Vertex connectivity at most `2f`: `κ(G) ≤ 2f`.
    TooLowConnectivity {
        /// The measured vertex connectivity κ(G).
        kappa: usize,
        /// The fault budget `f`.
        f: usize,
    },
}

impl std::fmt::Display for Inadequacy {
    fn fmt(&self, f_: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inadequacy::TooFewNodes { n, f } => {
                write!(f_, "{n} nodes < 3f+1 = {} for f = {f}", 3 * f + 1)
            }
            Inadequacy::TooLowConnectivity { kappa, f } => {
                write!(
                    f_,
                    "connectivity {kappa} < 2f+1 = {} for f = {f}",
                    2 * f + 1
                )
            }
        }
    }
}

/// Classifies a graph against the paper's bounds for fault budget `f`.
///
/// Returns `Ok(())` for adequate graphs, or the *first* reason for
/// inadequacy (node count is checked before connectivity, mirroring the
/// paper's proof order). `f = 0` makes every connected graph with ≥ 3 nodes
/// adequate.
///
/// # Panics
///
/// Panics if the graph has fewer than three nodes — the paper assumes
/// `|G| ≥ 3` throughout.
fn classify(g: &Graph, f: usize) -> Result<(), Inadequacy> {
    let n = g.node_count();
    assert!(n >= 3, "the FLM model assumes graphs with at least 3 nodes");
    if n < 3 * f + 1 {
        return Err(Inadequacy::TooFewNodes { n, f });
    }
    let kappa = connectivity::vertex_connectivity(g);
    if kappa < 2 * f + 1 {
        return Err(Inadequacy::TooLowConnectivity { kappa, f });
    }
    Ok(())
}

/// True when `g` is adequate for `f` faults: `n ≥ 3f + 1` **and**
/// `κ(G) ≥ 2f + 1`.
///
/// # Panics
///
/// Panics if the graph has fewer than three nodes.
pub fn is_adequate(g: &Graph, f: usize) -> bool {
    classify(g, f).is_ok()
}

/// The largest fault budget this graph is adequate for:
/// `min(⌊(n−1)/3⌋, ⌊(κ−1)/2⌋)`.
///
/// # Panics
///
/// Panics if the graph has fewer than three nodes.
pub fn max_tolerable_faults(g: &Graph) -> usize {
    let n = g.node_count();
    assert!(n >= 3, "the FLM model assumes graphs with at least 3 nodes");
    let kappa = connectivity::vertex_connectivity(g);
    ((n - 1) / 3).min(kappa.saturating_sub(1) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn triangle_inadequate_for_one_fault() {
        let g = builders::triangle();
        assert_eq!(classify(&g, 1), Err(Inadequacy::TooFewNodes { n: 3, f: 1 }));
    }

    #[test]
    fn k4_adequate_for_one_fault() {
        assert!(is_adequate(&builders::complete(4), 1));
    }

    #[test]
    fn cycle4_fails_on_connectivity() {
        // 4 nodes ≥ 3f+1 for f=1, but κ = 2 < 3.
        assert_eq!(
            classify(&builders::cycle(4), 1),
            Err(Inadequacy::TooLowConnectivity { kappa: 2, f: 1 })
        );
    }

    #[test]
    fn node_bound_checked_before_connectivity() {
        // Triangle fails both; the node reason is reported.
        assert!(matches!(
            classify(&builders::triangle(), 1),
            Err(Inadequacy::TooFewNodes { .. })
        ));
    }

    #[test]
    fn zero_faults_is_always_adequate_for_connected_graphs() {
        assert!(is_adequate(&builders::path(3), 0));
        assert!(is_adequate(&builders::cycle(5), 0));
    }

    #[test]
    fn frontier_for_complete_graphs() {
        // K_n tolerates exactly ⌊(n−1)/3⌋ faults (connectivity n−1 is not
        // binding: (n−1−1)/2 ≥ (n−1)/3 for n ≥ 3... check via the function).
        for (n, want) in [(3, 0), (4, 1), (6, 1), (7, 2), (9, 2), (10, 3)] {
            assert_eq!(max_tolerable_faults(&builders::complete(n)), want, "K_{n}");
        }
    }

    #[test]
    fn frontier_for_cycles_is_zero() {
        // κ = 2 < 3 for any f ≥ 1.
        for n in [4, 7, 12] {
            assert_eq!(max_tolerable_faults(&builders::cycle(n)), 0);
        }
    }

    #[test]
    fn display_messages() {
        assert_eq!(
            Inadequacy::TooFewNodes { n: 3, f: 1 }.to_string(),
            "3 nodes < 3f+1 = 4 for f = 1"
        );
        assert_eq!(
            Inadequacy::TooLowConnectivity { kappa: 2, f: 1 }.to_string(),
            "connectivity 2 < 2f+1 = 3 for f = 1"
        );
    }
}
