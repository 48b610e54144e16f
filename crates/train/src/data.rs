//! The data bundle consumed by every model.

use crate::error::TrainError;
use amud_datasets::Dataset;
use amud_graph::{CsrMatrix, DiGraph};
use amud_nn::DenseMatrix;
use std::rc::Rc;

/// Everything a node-classification model needs: the (possibly directed)
/// adjacency, node features, labels and the semi-supervised split.
///
/// `adj` is the raw binary adjacency without self-loops; each model derives
/// its own normalised operators from it at construction time (decoupled
/// pre-processing, Sec. IV-D).
#[derive(Debug, Clone)]
pub struct GraphData {
    pub adj: CsrMatrix,
    pub features: DenseMatrix,
    pub labels: Rc<Vec<usize>>,
    pub n_classes: usize,
    pub train: Rc<Vec<usize>>,
    pub val: Rc<Vec<usize>>,
    pub test: Rc<Vec<usize>>,
}

impl GraphData {
    /// Assembles the bundle from parts, validating shapes, labels, and
    /// split indices. Every inconsistency is a typed
    /// [`TrainError::BadInput`] — never a panic.
    pub fn new(
        graph: &DiGraph,
        features: DenseMatrix,
        train: Vec<usize>,
        val: Vec<usize>,
        test: Vec<usize>,
    ) -> Result<Self, TrainError> {
        let n = graph.n_nodes();
        if features.rows() != n {
            return Err(TrainError::bad_input(format!(
                "feature rows {} must equal node count {n}",
                features.rows()
            )));
        }
        let labels = graph
            .labels()
            .ok_or_else(|| TrainError::bad_input("GraphData requires labelled graphs"))?
            .to_vec();
        let n_classes = graph.n_classes();
        if let Some(&y) = labels.iter().find(|&&y| y >= n_classes) {
            return Err(TrainError::bad_input(format!(
                "label {y} out of range for {n_classes} classes"
            )));
        }
        if train.is_empty() {
            return Err(TrainError::bad_input("training set must not be empty"));
        }
        for (name, ids) in [("train", &train), ("val", &val), ("test", &test)] {
            if let Some(&v) = ids.iter().find(|&&v| v >= n) {
                return Err(TrainError::bad_input(format!(
                    "{name} split references node {v}, but the graph has {n} nodes"
                )));
            }
            // A repeated id would count twice in the masked loss but get
            // its gradient row only once.
            let mut seen = vec![false; n];
            if let Some(&v) = ids.iter().find(|&&v| std::mem::replace(&mut seen[v], true)) {
                return Err(TrainError::bad_input(format!(
                    "{name} split lists node {v} more than once"
                )));
            }
        }
        if !features.as_slice().iter().all(|x| x.is_finite()) {
            return Err(TrainError::bad_input("features contain non-finite values"));
        }
        Ok(Self {
            adj: graph.adjacency().clone(),
            features,
            labels: Rc::new(labels),
            n_classes,
            train: Rc::new(train),
            val: Rc::new(val),
            test: Rc::new(test),
        })
    }

    /// The bundle of a generated dataset: its graph, features and split,
    /// validated as in [`GraphData::new`].
    pub fn from_dataset(d: &Dataset) -> Result<Self, TrainError> {
        Self::new(
            &d.graph,
            d.features.clone(),
            d.split.train.clone(),
            d.split.val.clone(),
            d.split.test.clone(),
        )
    }

    pub fn n_nodes(&self) -> usize {
        self.adj.n_rows()
    }

    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// The coarse undirected transformation of the bundle.
    pub fn to_undirected(&self) -> GraphData {
        let adj = match self.adj.bool_union(&self.adj.transpose()) {
            Ok(adj) => adj,
            // A square matrix always shares its transpose's shape.
            Err(_) => unreachable!("A and Aᵀ share a shape by construction"),
        };
        GraphData { adj, ..self.clone() }
    }

    /// Whether the stored adjacency is symmetric.
    pub fn is_undirected(&self) -> bool {
        self.adj.same_pattern(&self.adj.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amud_graph::DiGraph;

    fn toy() -> GraphData {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)])
            .unwrap()
            .with_labels(vec![0, 1, 0, 1], 2)
            .unwrap();
        let x = DenseMatrix::ones(4, 3);
        GraphData::new(&g, x, vec![0, 1], vec![2], vec![3]).unwrap()
    }

    #[test]
    fn bundle_shapes() {
        let d = toy();
        assert_eq!(d.n_nodes(), 4);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.n_classes, 2);
    }

    #[test]
    fn undirected_view() {
        let d = toy();
        assert!(!d.is_undirected());
        let u = d.to_undirected();
        assert!(u.is_undirected());
        assert_eq!(u.adj.nnz(), 6);
    }

    #[test]
    fn empty_train_rejected() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]).unwrap().with_labels(vec![0, 1], 2).unwrap();
        let err = GraphData::new(&g, DenseMatrix::ones(2, 1), vec![], vec![0], vec![1]);
        assert!(matches!(err, Err(crate::TrainError::BadInput { .. })), "{err:?}");
    }

    #[test]
    fn out_of_range_split_rejected() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]).unwrap().with_labels(vec![0, 1], 2).unwrap();
        let err = GraphData::new(&g, DenseMatrix::ones(2, 1), vec![0], vec![1], vec![99]);
        match err {
            Err(crate::TrainError::BadInput { reason }) => {
                assert!(reason.contains("test split"), "{reason}")
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_split_id_rejected() {
        let g =
            DiGraph::from_edges(3, vec![(0, 1)]).unwrap().with_labels(vec![0, 1, 0], 2).unwrap();
        let err = GraphData::new(&g, DenseMatrix::ones(3, 1), vec![0, 2], vec![1, 1], vec![]);
        match err {
            Err(crate::TrainError::BadInput { reason }) => {
                assert_eq!(reason, "val split lists node 1 more than once")
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_features_rejected() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]).unwrap().with_labels(vec![0, 1], 2).unwrap();
        let mut x = DenseMatrix::ones(2, 1);
        x.as_mut_slice()[0] = f32::NAN;
        let err = GraphData::new(&g, x, vec![0], vec![1], vec![]);
        assert!(matches!(err, Err(crate::TrainError::BadInput { .. })), "{err:?}");
    }
}
