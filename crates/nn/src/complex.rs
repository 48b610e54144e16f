//! Complex-matrix helpers for magnetic-Laplacian models (MagNet, Sec. II-C).
//!
//! The magnetic Laplacian is a complex Hermitian operator
//! `H = Â_s ⊙ exp(iΘ)` with `Θ = 2πq (A − Aᵀ)`. Rather than adding a
//! complex dtype to the autodiff engine, complex tensors are represented as
//! `(re, im)` pairs of real nodes and the complex products are composed
//! from real ops — the gradients then fall out of the real tape for free.

use crate::tape::{NodeId, SparseOp, Tape};
use amud_graph::CsrMatrix;

/// A complex sparse operator split into real and imaginary parts, each
/// prepared for tape use.
#[derive(Debug, Clone)]
pub struct ComplexSparseOp {
    pub re: SparseOp,
    pub im: SparseOp,
}

impl ComplexSparseOp {
    pub fn new(re: CsrMatrix, im: CsrMatrix) -> Self {
        assert_eq!(
            (re.n_rows(), re.n_cols()),
            (im.n_rows(), im.n_cols()),
            "re/im parts must share a shape"
        );
        Self { re: SparseOp::new(re), im: SparseOp::new(im) }
    }

    /// Builds the normalised magnetic adjacency
    /// `H = D_s^{-1/2} Â_s D_s^{-1/2} ⊙ exp(i 2πq (A − Aᵀ))`,
    /// where `Â_s = ½(A + Aᵀ)` with self-loops. `q ∈ [0, 0.25]` is the
    /// charge parameter: `q = 0` recovers the symmetrised real operator.
    pub fn magnetic(a: &CsrMatrix, q: f32) -> Self {
        assert_eq!(a.n_rows(), a.n_cols(), "magnetic: adjacency must be square");
        let at = a.transpose();
        let sym = match a.add_scaled(0.5, &at, 0.5) {
            Ok(m) => m.with_self_loops(1.0).sym_normalized(),
            // `a` is square (asserted above), so the transpose shares its
            // shape exactly and add_scaled cannot reject it.
            Err(_) => unreachable!("square A and Aᵀ share a shape"),
        };
        let theta_base = std::f32::consts::TAU * q;
        // Phase per entry: 2πq * (A(u,v) − A(v,u)).
        let mut re_triplets = Vec::with_capacity(sym.nnz());
        let mut im_triplets = Vec::with_capacity(sym.nnz());
        for (u, v, w) in sym.iter() {
            let diff = a.get(u, v) - a.get(v, u);
            let theta = theta_base * diff;
            re_triplets.push((u, v, w * theta.cos()));
            let im_val = w * theta.sin();
            if im_val != 0.0 {
                im_triplets.push((u, v, im_val));
            }
        }
        let n = sym.n_rows();
        let Ok(re_mat) = CsrMatrix::from_coo(n, n, re_triplets) else {
            // Every triplet came from `sym.iter()`, which yields u, v < n.
            unreachable!("triplets gathered from sym.iter() are in bounds")
        };
        let im_mat = if im_triplets.is_empty() {
            CsrMatrix::zeros(n, n)
        } else {
            match CsrMatrix::from_coo(n, n, im_triplets) {
                Ok(m) => m,
                // Same provenance as re_triplets: u, v < n from sym.iter().
                Err(_) => unreachable!("triplets gathered from sym.iter() are in bounds"),
            }
        };
        Self::new(re_mat, im_mat)
    }
}

/// A complex tape value: a pair of real nodes.
#[derive(Debug, Clone, Copy)]
pub struct ComplexNode {
    pub re: NodeId,
    pub im: NodeId,
}

/// Complex SpMM: `(re + i·im)(x_re + i·x_im)` expanded into four real
/// products.
pub fn complex_spmm(tape: &mut Tape, op: &ComplexSparseOp, x: ComplexNode) -> ComplexNode {
    let rr = tape.spmm(&op.re, x.re);
    let ii = tape.spmm(&op.im, x.im);
    let ri = tape.spmm(&op.re, x.im);
    let ir = tape.spmm(&op.im, x.re);
    ComplexNode { re: tape.sub(rr, ii), im: tape.add(ri, ir) }
}

/// Complex addition.
pub fn complex_add(tape: &mut Tape, a: ComplexNode, b: ComplexNode) -> ComplexNode {
    ComplexNode { re: tape.add(a.re, b.re), im: tape.add(a.im, b.im) }
}

/// Applies a *real* linear map (shared across parts, as MagNet does with
/// independent weights per part composed at the call site).
pub fn complex_apply(
    tape: &mut Tape,
    a: ComplexNode,
    mut f: impl FnMut(&mut Tape, NodeId) -> NodeId,
) -> ComplexNode {
    ComplexNode { re: f(tape, a.re), im: f(tape, a.im) }
}

/// "Unwinds" a complex node into a real feature matrix by concatenating the
/// real and imaginary parts column-wise (MagNet's final unwind layer).
pub fn complex_unwind(tape: &mut Tape, a: ComplexNode) -> NodeId {
    tape.concat_cols(&[a.re, a.im])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;

    fn toy_digraph() -> CsrMatrix {
        CsrMatrix::from_edges(4, 4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn magnetic_q0_is_real() {
        let a = toy_digraph();
        let h = ComplexSparseOp::magnetic(&a, 0.0);
        assert_eq!(h.im.matrix().nnz(), 0, "q=0 must have no imaginary part");
        // Real part is the symmetric normalised operator: symmetric.
        let re = h.re.matrix();
        for (u, v, w) in re.iter() {
            assert!((re.get(v, u) - w).abs() < 1e-5);
        }
    }

    #[test]
    fn magnetic_is_hermitian() {
        let a = toy_digraph();
        let h = ComplexSparseOp::magnetic(&a, 0.25);
        let (re, im) = (h.re.matrix(), h.im.matrix());
        for (u, v, w) in re.iter() {
            assert!((re.get(v, u) - w).abs() < 1e-5, "re must be symmetric");
        }
        for (u, v, w) in im.iter() {
            assert!((im.get(v, u) + w).abs() < 1e-5, "im must be antisymmetric");
        }
    }

    #[test]
    fn magnetic_phase_only_on_asymmetric_edges() {
        // Mutual pair (0,1)/(1,0) should have zero phase; one-way (1,2) not.
        let a = CsrMatrix::from_edges(3, 3, vec![(0, 1), (1, 0), (1, 2)]).unwrap();
        let h = ComplexSparseOp::magnetic(&a, 0.25);
        assert_eq!(h.im.matrix().get(0, 1), 0.0);
        assert!(h.im.matrix().get(1, 2).abs() > 1e-6);
    }

    #[test]
    fn complex_spmm_matches_manual_expansion() {
        let a = toy_digraph();
        let h = ComplexSparseOp::magnetic(&a, 0.1);
        let mut tape = Tape::new();
        let xr = DenseMatrix::from_fn(4, 2, |r, c| (r + c) as f32 * 0.5);
        let xi = DenseMatrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.3);
        let x = ComplexNode { re: tape.constant(xr.clone()), im: tape.constant(xi.clone()) };
        let y = complex_spmm(&mut tape, &h, x);
        // Manual: y_re = Hre·xr − Him·xi
        let mut hr_xr = DenseMatrix::zeros(4, 2);
        h.re.matrix().spmm(xr.as_slice(), 2, hr_xr.as_mut_slice());
        let mut hi_xi = DenseMatrix::zeros(4, 2);
        h.im.matrix().spmm(xi.as_slice(), 2, hi_xi.as_mut_slice());
        let mut expected = hr_xr.clone();
        expected.add_scaled_assign(&hi_xi, -1.0);
        for (got, want) in tape.value(y.re).as_slice().iter().zip(expected.as_slice()) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn unwind_concatenates() {
        let mut tape = Tape::new();
        let x = ComplexNode {
            re: tape.constant(DenseMatrix::ones(2, 3)),
            im: tape.constant(DenseMatrix::zeros(2, 3)),
        };
        let u = complex_unwind(&mut tape, x);
        assert_eq!(tape.value(u).shape(), (2, 6));
    }
}
