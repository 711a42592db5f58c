//! Communication graphs for the FLM impossibility framework.
//!
//! This crate provides the graph-theoretic substrate of *Fischer, Lynch &
//! Merritt, "Easy Impossibility Proofs for Distributed Consensus Problems"*
//! (PODC 1985):
//!
//! * [`Graph`] — communication graphs in the paper's sense: directed graphs
//!   whose edges occur in anti-parallel pairs, so that communication in each
//!   direction is modeled separately.
//! * [`connectivity`] — vertex connectivity κ(G) via Menger's theorem
//!   (max-flow on the node-split graph), plus extraction of vertex-disjoint
//!   path systems used by the relay overlay in `flm-protocols`.
//! * [`adequacy`] — the paper's central dichotomy: a graph is *inadequate*
//!   for `f` faults when it has fewer than `3f+1` nodes or vertex
//!   connectivity less than `2f+1`.
//! * [`covering`] — graph coverings (locally isomorphic "unrollings") and
//!   the specific constructions every proof in the paper rests on: the
//!   crossed double cover (hexagon / 8-cycle figures) and cyclic ring covers
//!   (the 4k-node and (k+2)-node rings of §4–§7).
//! * [`dot`] — Graphviz emitters that regenerate the paper's figures.
//!
//! # Example
//!
//! ```
//! use flm_graph::{builders, adequacy, connectivity};
//!
//! let triangle = builders::complete(3);
//! assert_eq!(connectivity::vertex_connectivity(&triangle), 2);
//! // Three nodes cannot tolerate one Byzantine fault: 3 < 3·1 + 1.
//! assert!(!adequacy::is_adequate(&triangle, 1));
//! let seven = builders::complete(7);
//! assert!(adequacy::is_adequate(&seven, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adequacy;
pub mod builders;
pub mod connectivity;
pub mod covering;
pub mod dot;
mod error;
mod graph;

pub use error::GraphError;
pub use graph::{Graph, NodeId};
