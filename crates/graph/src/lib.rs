//! # amud-graph
//!
//! Sparse directed-graph substrate for the AMUD/ADPA reproduction.
//!
//! This crate provides everything the paper's data-engineering layer needs
//! and nothing it does not:
//!
//! * [`csr::CsrMatrix`] — a compressed-sparse-row matrix with the operations
//!   graph learning actually uses: transpose, sparse×dense products, boolean
//!   sparse×sparse products (for directed-pattern operators), degree
//!   normalisation and self-loops.
//! * [`digraph::DiGraph`] — a directed graph with labelled nodes, undirected
//!   transformation (the paper's "coarse undirected transformation"), and
//!   degree statistics.
//! * [`measures`] — the homophily measures of Sec. II-B: node, edge, class,
//!   adjusted homophily and label informativeness, each computable on the
//!   directed or undirected view (Table I).
//! * [`patterns`] — directed-pattern (DP) operator construction: `A`, `Aᵀ`,
//!   the four 2-order products `AA, AᵀAᵀ, AAᵀ, AᵀA`, and the general order-N
//!   enumeration used by ADPA (Sec. IV-B).
//! * [`generate`] — low-level random-digraph helpers used by the synthetic
//!   dataset generators.
//! * [`io`] — plain-text persistence for labelled digraphs.
//!
//! All index types are `u32` internally (graphs in the paper top out at
//! ~25k nodes); public APIs use `usize`.
//!
//! ```
//! use amud_graph::{DiGraph, DirectedPattern};
//! use amud_graph::measures::edge_homophily;
//!
//! // A 4-node digraph with labels: 0 → 1 → 2 → 3 → 0.
//! let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)])
//!     .unwrap()
//!     .with_labels(vec![0, 0, 1, 1], 2)
//!     .unwrap();
//! assert_eq!(g.n_edges(), 4);
//! assert_eq!(edge_homophily(g.adjacency(), g.labels().unwrap()), 0.5);
//!
//! // The four 2-order directed patterns AMUD scores.
//! let names: Vec<String> =
//!     DirectedPattern::two_order().iter().map(|p| p.name()).collect();
//! assert_eq!(names, vec!["A·A", "A·Aᵀ", "Aᵀ·A", "Aᵀ·Aᵀ"]);
//! ```

#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod csr;
pub mod digraph;
pub mod generate;
pub mod io;
pub mod measures;
pub mod patterns;

pub use csr::{spmm_calls, CsrMatrix};
pub use digraph::DiGraph;
pub use patterns::{DirectedPattern, PatternSet};

/// Errors produced by graph construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id outside `0..n`.
    NodeOutOfBounds { node: usize, n: usize },
    /// Matrix dimensions do not line up for the requested operation.
    DimensionMismatch { expected: (usize, usize), got: (usize, usize) },
    /// Labels vector length differs from the number of nodes.
    LabelLengthMismatch { nodes: usize, labels: usize },
    /// The operation requires a non-empty graph.
    EmptyGraph,
    /// A normalisation coefficient was outside its valid range. The
    /// offending value is carried as rendered text so the variant keeps
    /// the enum's `Eq` derive (an `f32` field would lose it).
    BadCoefficient { detail: String },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, n } => {
                write!(f, "node id {node} out of bounds for graph with {n} nodes")
            }
            GraphError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected:?}, got {got:?}")
            }
            GraphError::LabelLengthMismatch { nodes, labels } => {
                write!(f, "label vector length {labels} != node count {nodes}")
            }
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::BadCoefficient { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
