//! # amud-core
//!
//! The paper's two contributions, implemented over the `amud-graph` /
//! `amud-nn` substrates:
//!
//! * [`amud`] — **AMUD** (Adaptively Modeling the natural directed graphs as
//!   Undirected or Directed): the statistical guidance of Sec. III. It
//!   correlates each 2-order directed pattern with node profiles (Eq. 4–7),
//!   aggregates the disparities into the guidance score `S` (Eq. 8), and
//!   recommends keeping directed edges when `S > θ = 0.5`.
//! * [`adpa`] — **ADPA** (Adaptive Directed Pattern Aggregation, Sec. IV):
//!   weight-free K-step feature propagation over k-order DP operators
//!   (Eq. 9, [`propagation`]), node-wise DP attention (Eq. 10, four
//!   variants), node-wise hop attention (Eq. 11), and an MLP classifier.
//! * [`paradigm`] — the Fig. 1 workflow wiring the two together.
//!
//! ```
//! use amud_core::amud::{amud_score, AmudDecision};
//! use amud_graph::DiGraph;
//!
//! // Orientation carries no information on a symmetric graph, so AMUD
//! // recommends undirected modeling with a guidance score of exactly 0.
//! let g = DiGraph::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (2, 0)])
//!     .unwrap()
//!     .with_labels(vec![0, 0, 0, 1, 1, 1], 2)
//!     .unwrap()
//!     .to_undirected();
//! let report = amud_score(g.adjacency(), g.labels().unwrap(), 2);
//! assert_eq!(report.decision, AmudDecision::Undirected);
//! assert!(report.score < 1e-9);
//! ```

#![warn(missing_docs)]

/// ADPA — the paper's adaptive directed-pattern-aggregation model (§IV).
pub mod adpa;

/// AMUD — the topological-guidance score and decision rule (§III).
pub mod amud;
/// Plain-data export of a trained ADPA model for serving (`amud-serve`).
pub mod export;
/// Paradigm selection: AMUD decision → undirected/directed pipeline.
pub mod paradigm;
/// Content-addressed precompute cache for operators and propagation.
pub mod precompute;
/// k-order directed-pattern propagation operators (Eq. 7–9).
pub mod propagation;

pub use adpa::{Adpa, AdpaConfig, DpAttention};
pub use amud::{amud_score, AmudDecision, AmudReport, PatternCorrelation};
pub use export::{AdpaExport, LinearExport, QLinear, QuantizedExport};
pub use paradigm::{prepare_topology, Paradigm};
pub use precompute::QuantizedFeatures;
pub use propagation::PropagatedFeatures;
