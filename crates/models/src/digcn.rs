//! DiGCN (Tong et al., NeurIPS 2020): digraph convolution via the
//! personalised-PageRank-based symmetric digraph Laplacian.
//!
//! The operator is built from the teleporting random walk
//! `P_α = (1−α) D̂⁻¹Â + α/n · 11ᵀ`: its stationary distribution `π` is
//! found by power iteration (teleport handled analytically, so the dense
//! rank-one term is never materialised), then
//!
//! ```text
//! Â_dig = ½ (Π^{1/2} P Π^{-1/2} + Π^{-1/2} Pᵀ Π^{1/2})
//! ```
//!
//! is a *symmetric* operator on which ordinary GCN layers run.

use amud_graph::CsrMatrix;
use amud_nn::{linear::dropout_mask, Linear, NodeId, ParamBank, SparseOp, Tape};
use amud_train::{GraphData, Model};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Computes the stationary distribution of the α-teleporting walk over the
/// row-stochastic matrix `p` by power iteration.
fn stationary_distribution(p: &CsrMatrix, alpha: f32, iters: usize) -> Vec<f32> {
    let n = p.n_rows();
    let pt = p.transpose();
    let mut pi = vec![1.0f32 / n as f32; n];
    let mut next = vec![0.0f32; n];
    for _ in 0..iters {
        pt.spmv(&pi, &mut next);
        let teleport = alpha / n as f32;
        for x in &mut next {
            *x = (1.0 - alpha) * *x + teleport;
        }
        // Dangling mass: rows of p with zero sum leak probability; renormalise.
        let total: f32 = next.iter().sum();
        for x in &mut next {
            *x /= total.max(1e-12);
        }
        std::mem::swap(&mut pi, &mut next);
    }
    pi
}

/// Builds the PPR-based symmetric digraph operator.
pub fn digcn_operator(adj: &CsrMatrix, alpha: f32) -> SparseOp {
    let p = adj.with_self_loops(1.0).row_normalized();
    let pi = stationary_distribution(&p, alpha, 100);
    let sqrt_pi: Vec<f32> = pi.iter().map(|&x| x.max(1e-12).sqrt()).collect();
    let inv_sqrt_pi: Vec<f32> = sqrt_pi.iter().map(|&x| 1.0 / x).collect();
    // Π^{1/2} P Π^{-1/2}
    let left = p.scaled(&sqrt_pi, &inv_sqrt_pi);
    // Π^{-1/2} Pᵀ Π^{1/2}
    let right = p.transpose().scaled(&inv_sqrt_pi, &sqrt_pi);
    let Ok(sym) = left.add_scaled(0.5, &right, 0.5) else {
        unreachable!("left and right are both rescalings of P, so shapes match")
    };
    SparseOp::new(sym)
}

pub struct DiGcn {
    bank: ParamBank,
    op: SparseOp,
    l1: Linear,
    l2: Linear,
    dropout: f32,
}

impl DiGcn {
    pub fn new(data: &GraphData, hidden: usize, alpha: f32, dropout: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bank = ParamBank::new();
        let l1 = Linear::new(&mut bank, data.n_features(), hidden, &mut rng);
        let l2 = Linear::new(&mut bank, hidden, data.n_classes, &mut rng);
        Self { bank, op: digcn_operator(&data.adj, alpha), l1, l2, dropout }
    }
}

impl Model for DiGcn {
    fn bank(&self) -> &ParamBank {
        &self.bank
    }
    fn bank_mut(&mut self) -> &mut ParamBank {
        &mut self.bank
    }
    fn forward(
        &self,
        tape: &mut Tape,
        data: &GraphData,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let mut x = tape.constant(data.features.clone());
        if training && self.dropout > 0.0 {
            let (r, c) = tape.value(x).shape();
            x = tape.dropout(x, dropout_mask(rng, r, c, self.dropout));
        }
        let ax = tape.spmm(&self.op, x);
        let h = self.l1.forward(tape, &self.bank, ax);
        let h = tape.relu(h);
        let ah = tape.spmm(&self.op, h);
        self.l2.forward(tape, &self.bank, ah)
    }
    fn name(&self) -> &'static str {
        "DiGCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests_support::{quick_train, tiny_data};

    #[test]
    fn stationary_distribution_sums_to_one() {
        let adj = CsrMatrix::from_edges(4, 4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let p = adj.with_self_loops(1.0).row_normalized();
        let pi = stationary_distribution(&p, 0.1, 100);
        let sum: f32 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(pi.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn digcn_operator_is_symmetric() {
        let adj = CsrMatrix::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (0, 3)])
            .unwrap();
        let op = digcn_operator(&adj, 0.1);
        for (u, v, w) in op.matrix().iter() {
            assert!(
                (op.matrix().get(v, u) - w).abs() < 1e-4,
                "asymmetric at ({u},{v}): {w} vs {}",
                op.matrix().get(v, u)
            );
        }
    }

    #[test]
    fn digcn_trains_on_directed_replica() {
        let data = tiny_data("chameleon", 27);
        let mut model = DiGcn::new(&data, 32, 0.1, 0.2, 27);
        let acc = quick_train(&mut model, &data, 27);
        assert!(acc > 0.25, "DiGCN accuracy {acc}");
    }
}
