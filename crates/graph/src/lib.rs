//! Graph substrate for the COLD topology synthesizer.
//!
//! This crate provides every graph-algorithmic building block the COLD
//! paper (Bowden, Roughan, Bean — CoNEXT 2014) depends on, implemented from
//! scratch with no external graph library:
//!
//! - [`AdjacencyMatrix`]: a bit-packed symmetric adjacency matrix. This is
//!   the *chromosome* representation used by the genetic algorithm (paper
//!   §4, "each candidate topology … is stored as an n by n adjacency
//!   matrix"), so it is compact, cheap to clone and hash, and supports the
//!   per-pair operations crossover and mutation need.
//! - [`Graph`]: an adjacency-list view for traversal-heavy algorithms.
//! - [`mst`]: Kruskal and Prim minimum spanning trees over a distance
//!   matrix (GA seeding and connectivity repair, §4.1/§4.1.3).
//! - [`shortest_path`] and [`routing`]: Dijkstra, all-pairs shortest paths
//!   and shortest-path routing with per-link load accumulation — the
//!   capacity computation of §3.2.1 and the dominant O(n³) cost of Fig 4.
//! - [`components`]: connected components (repair step, §4.1.3).
//! - [`metrics`]: the statistics of §6–§7 — average degree, coefficient of
//!   variation of node degree (CVND), diameter, global clustering
//!   coefficient, assortativity, betweenness, path lengths.
//! - [`canonical`]: canonical labeling / isomorphism for small graphs
//!   (Fig 2's "the only possible 3K graph … is isomorphic to the input").
//! - [`subgraphs`]: connected-subgraph census and dK-distributions
//!   (Figs 1–2, §2).
//! - [`enumerate`]: exhaustive enumeration of labeled (connected) graphs for
//!   the brute-force optimality checks of §5.
//!
//! Node identifiers are plain `usize` indices `0..n`. All graphs are simple
//! (no self-loops, no multi-edges) and undirected, matching the paper's
//! PoP-level model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod canonical;
pub mod components;
pub mod connectivity;
pub mod enumerate;
pub mod graph;
pub mod metrics;
pub mod mst;
pub mod routing;
pub mod shortest_path;
pub mod subgraphs;
pub mod union_find;

pub use adjacency::{AdjacencyMatrix, EdgeList};
pub use components::{connected_components, is_connected, ComponentLabels};
pub use graph::Graph;
pub use union_find::UnionFind;

/// A weighted undirected edge `(u, v, weight)` with `u < v`.
///
/// Used by the MST and repair algorithms; the weight is typically a
/// Euclidean PoP-to-PoP distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedEdge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight (e.g. geometric length). Must be finite.
    pub weight: f64,
}

impl WeightedEdge {
    /// Creates a weighted edge, normalizing endpoint order so `u < v`.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loops are not representable).
    pub fn new(u: usize, v: usize, weight: f64) -> Self {
        assert_ne!(u, v, "self-loops are not allowed");
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        Self { u, v, weight }
    }
}

/// Errors produced by graph construction and algorithms in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operation referenced a node index `>= n`.
    NodeOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// Two structures that must agree on the node count did not.
    SizeMismatch {
        /// Expected node count.
        expected: usize,
        /// Actual node count.
        actual: usize,
    },
    /// The operation requires a connected graph but the input was not.
    Disconnected,
    /// A self-loop `(v, v)` was requested; simple graphs forbid these.
    SelfLoop(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { index, n } => {
                write!(f, "node index {index} out of range for graph with {n} nodes")
            }
            GraphError::SizeMismatch { expected, actual } => {
                write!(f, "size mismatch: expected {expected} nodes, got {actual}")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
