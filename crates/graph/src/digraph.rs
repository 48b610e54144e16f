//! Directed graphs with node labels.
//!
//! [`DiGraph`] is the dataset-facing graph type: a set of directed edges
//! over `n` nodes plus optional class labels. It owns a canonical CSR
//! adjacency matrix (`A_d` in the paper) and lazily derivable views —
//! transpose, undirected union — that the directed-pattern machinery and
//! the homophily measures build on.

use crate::csr::CsrMatrix;
use crate::{GraphError, Result};

/// A directed graph with `n` nodes, an optional class label per node.
///
/// Edges are stored once, as a binary CSR adjacency matrix `A` where
/// `A[u, v] = 1` iff there is an edge `u → v`. Self-loops are removed at
/// construction (none of the paper's datasets keep them in the raw
/// topology; propagation operators re-add them explicitly where needed).
#[derive(Debug, Clone)]
pub struct DiGraph {
    adj: CsrMatrix,
    labels: Option<Vec<usize>>,
    n_classes: usize,
}

impl DiGraph {
    /// Builds a digraph from an edge list. Duplicate edges and self-loops
    /// are dropped.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Result<Self> {
        let adj = CsrMatrix::from_edges(n, n, edges)?.without_diagonal();
        Ok(Self { adj, labels: None, n_classes: 0 })
    }

    /// Attaches class labels (`labels[v] ∈ 0..n_classes`).
    pub fn with_labels(mut self, labels: Vec<usize>, n_classes: usize) -> Result<Self> {
        if labels.len() != self.n_nodes() {
            return Err(GraphError::LabelLengthMismatch {
                nodes: self.n_nodes(),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= n_classes) {
            return Err(GraphError::NodeOutOfBounds { node: bad, n: n_classes });
        }
        self.labels = Some(labels);
        self.n_classes = n_classes;
        Ok(self)
    }

    pub fn n_nodes(&self) -> usize {
        self.adj.n_rows()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.adj.nnz()
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The class labels, if attached.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// The directed adjacency matrix `A_d` (binary, no self-loops).
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adj
    }

    /// The coarse undirected transformation `A_u = A_d ∪ A_dᵀ` — the
    /// operation the paper argues is applied too indiscriminately (Sec. I,
    /// L2). Labels are preserved.
    pub fn to_undirected(&self) -> DiGraph {
        let Ok(adj) = self.adj.bool_union(&self.adj.transpose()) else {
            // Adjacency is square, so A and Aᵀ share a shape by definition.
            unreachable!("A and Aᵀ share a shape")
        };
        DiGraph { adj, labels: self.labels.clone(), n_classes: self.n_classes }
    }

    /// Whether every edge has a reciprocal edge (i.e. the graph is already
    /// effectively undirected).
    pub fn is_symmetric(&self) -> bool {
        self.adj.same_pattern(&self.adj.transpose())
    }

    /// Fraction of directed edges whose reciprocal edge also exists.
    pub fn reciprocity(&self) -> f64 {
        if self.n_edges() == 0 {
            return 0.0;
        }
        let t = self.adj.transpose();
        let recip = self.adj.iter().filter(|&(u, v, _)| t.get(u, v) != 0.0).count();
        recip as f64 / self.n_edges() as f64
    }

    /// Reverses every edge.
    pub fn reverse(&self) -> DiGraph {
        DiGraph {
            adj: self.adj.transpose(),
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }

    /// Out-degrees.
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.n_nodes()).map(|v| self.adj.row_cols(v).len()).collect()
    }

    /// In-degrees.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n_nodes()];
        for (_, c, _) in self.adj.iter() {
            deg[c] += 1;
        }
        deg
    }

    /// All directed edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj.iter().map(|(u, v, _)| (u, v))
    }

    /// Returns a copy with a subset of edges removed, keeping each edge with
    /// probability decided by `keep`. Used by the Fig. 7 edge-sparsity
    /// stressor.
    pub fn filter_edges(&self, keep: impl FnMut(usize, usize) -> bool) -> DiGraph {
        DiGraph {
            adj: self.adj.filter_entries(keep),
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }

    /// Per-class node counts (requires labels).
    pub fn class_counts(&self) -> Option<Vec<usize>> {
        let labels = self.labels.as_ref()?;
        let mut counts = vec![0usize; self.n_classes];
        for &y in labels {
            counts[y] += 1;
        }
        Some(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> DiGraph {
        // 0 -> 1 -> 2 -> 3, plus 3 -> 0
        DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)])
            .unwrap()
            .with_labels(vec![0, 0, 1, 1], 2)
            .unwrap()
    }

    #[test]
    fn construction_drops_self_loops_and_duplicates() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (0, 1), (1, 1), (2, 0)]).unwrap();
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn labels_validated() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]).unwrap();
        assert!(g.clone().with_labels(vec![0], 2).is_err());
        assert!(g.clone().with_labels(vec![0, 5], 2).is_err());
        assert!(g.with_labels(vec![0, 1], 2).is_ok());
    }

    #[test]
    fn undirected_transformation_symmetrizes() {
        let g = chain();
        assert!(!g.is_symmetric());
        let u = g.to_undirected();
        assert!(u.is_symmetric());
        assert_eq!(u.n_edges(), 8);
        assert_eq!(u.labels(), g.labels());
    }

    #[test]
    fn degrees_match_topology() {
        let g = chain();
        assert_eq!(g.out_degrees(), vec![1, 1, 1, 1]);
        assert_eq!(g.in_degrees(), vec![1, 1, 1, 1]);
        let star = DiGraph::from_edges(3, vec![(0, 1), (0, 2)]).unwrap();
        assert_eq!(star.out_degrees(), vec![2, 0, 0]);
        assert_eq!(star.in_degrees(), vec![0, 1, 1]);
    }

    #[test]
    fn reciprocity_counts_mutual_edges() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 0), (1, 2)]).unwrap();
        assert!((g.reciprocity() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(chain().reciprocity(), 0.0);
        assert_eq!(chain().to_undirected().reciprocity(), 1.0);
    }

    #[test]
    fn reverse_flips_edges() {
        let g = chain().reverse();
        let edges: Vec<_> = g.edges().collect();
        assert!(edges.contains(&(1, 0)));
        assert!(edges.contains(&(0, 3)));
    }

    #[test]
    fn class_counts_sum_to_n() {
        let g = chain();
        assert_eq!(g.class_counts(), Some(vec![2, 2]));
    }

    #[test]
    fn filter_edges_respects_predicate() {
        let g = chain().filter_edges(|u, _| u != 0);
        assert_eq!(g.n_edges(), 3);
    }
}
