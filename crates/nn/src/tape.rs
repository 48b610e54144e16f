//! Reverse-mode autodiff over dense matrices.
//!
//! A [`Tape`] is a define-by-run computation graph, rebuilt every training
//! step. Forward values are computed eagerly as ops are recorded; calling
//! [`Tape::backward`] walks the nodes in reverse creation order (creation
//! order *is* a topological order, because operands must exist before an op
//! referencing them) and accumulates gradients.
//!
//! The op set is exactly what the paper's sixteen models need — in
//! particular:
//!
//! * [`Tape::spmm`] — constant sparse operator × variable dense matrix,
//!   the message-passing primitive (gradient: `Sᵀ · ∂out`);
//! * [`Tape::col_scale`] — per-node scalar weights applied to a feature
//!   matrix, the primitive behind node-wise hop attention (Eq. 11);
//! * [`Tape::scalar_scale`] — a single learnable scalar (one entry of a
//!   parameter vector) scaling a matrix, the primitive behind GPR-style
//!   learnable propagation weights;
//! * [`Tape::gather_rows`] — a sorted row subset ([`Rows`]), the primitive
//!   behind row-local training of node-wise models;
//! * [`Tape::masked_cross_entropy`] — softmax cross-entropy restricted to
//!   the labelled training nodes (semi-supervised objective).

use crate::matrix::DenseMatrix;
use crate::optim::{ParamBank, ParamId};
use crate::rows::Rows;
use amud_graph::CsrMatrix;
use std::rc::Rc;

/// Handle to a node on the tape.
pub type NodeId = usize;

/// A constant sparse operator prepared for repeated use on tapes: the matrix
/// and its transpose (needed by the backward pass), both built once.
#[derive(Debug, Clone)]
pub struct SparseOp {
    mat: Rc<CsrMatrix>,
    mat_t: Rc<CsrMatrix>,
}

impl SparseOp {
    pub fn new(mat: CsrMatrix) -> Self {
        let mat_t = Rc::new(mat.transpose());
        Self { mat: Rc::new(mat), mat_t }
    }

    pub fn matrix(&self) -> &CsrMatrix {
        &self.mat
    }

    pub fn n_rows(&self) -> usize {
        self.mat.n_rows()
    }

    pub fn n_cols(&self) -> usize {
        self.mat.n_cols()
    }
}

pub(crate) enum Op {
    /// Constant or parameter leaf. If `param` is set, `apply_grads` flushes
    /// the accumulated gradient back to the bank.
    Leaf {
        param: Option<ParamId>,
    },
    MatMul(NodeId, NodeId),
    /// `a · bᵀ` — used by models that build dense similarity matrices.
    MatMulTransB(NodeId, NodeId),
    SpMM {
        op: SparseOp,
        x: NodeId,
    },
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    /// Broadcast a `1 × cols` bias over every row of `x`.
    AddBias {
        x: NodeId,
        bias: NodeId,
    },
    Scale(NodeId, f32),
    /// `out = w[0, idx] * x` — one learnable scalar from a `1 × k` vector.
    ScalarScale {
        x: NodeId,
        w: NodeId,
        idx: usize,
    },
    /// `out[r, :] = w[r, col] * x[r, :]` — per-row scalar from column `col`
    /// of an `n × k` weight matrix.
    ColScale {
        x: NodeId,
        w: NodeId,
        col: usize,
    },
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    Sigmoid(NodeId),
    Tanh(NodeId),
    /// Elementwise multiply by a fixed mask (inverted-dropout style).
    Dropout {
        x: NodeId,
        mask: Rc<Vec<f32>>,
    },
    ConcatCols(Vec<NodeId>),
    SliceCols {
        x: NodeId,
        start: usize,
        end: usize,
    },
    /// The rows `rows.ids()` of `x`, ascending.
    GatherRows {
        x: NodeId,
        rows: Rows,
    },
    /// Softmax across columns, independently per row.
    RowSoftmax(NodeId),
    /// Mean of all entries (scalar output).
    MeanAll(NodeId),
    /// Graph attention aggregation (GAT-style): per-edge logits
    /// `e_ij = LeakyReLU(s_src[i] + s_dst[j])`, per-row softmax over the
    /// neighbourhood, then `out[i] = Σ_j α_ij · h[j]`. Caches the edge
    /// attention weights (aligned with the CSR edge order) for backward.
    GatAttention {
        adj: Rc<CsrMatrix>,
        src_scores: NodeId,
        dst_scores: NodeId,
        h: NodeId,
        slope: f32,
        alpha: Vec<f32>,
        pre_activation: Vec<f32>,
    },
    /// Masked softmax cross-entropy; caches per-row softmax for backward.
    MaskedCrossEntropy {
        logits: NodeId,
        labels: Rc<Vec<usize>>,
        mask: Rc<Vec<usize>>,
        softmax: DenseMatrix,
    },
}

impl Op {
    /// The operand node ids, in the order the op consumes them.
    pub(crate) fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Leaf { .. } => vec![],
            Op::MatMul(a, b)
            | Op::MatMulTransB(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddBias { x: a, bias: b }
            | Op::ScalarScale { x: a, w: b, .. }
            | Op::ColScale { x: a, w: b, .. } => vec![*a, *b],
            Op::SpMM { x, .. }
            | Op::Scale(x, _)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::Dropout { x, .. }
            | Op::SliceCols { x, .. }
            | Op::GatherRows { x, .. }
            | Op::RowSoftmax(x)
            | Op::MeanAll(x)
            | Op::MaskedCrossEntropy { logits: x, .. } => vec![*x],
            Op::ConcatCols(parts) => parts.clone(),
            Op::GatAttention { src_scores, dst_scores, h, .. } => {
                vec![*src_scores, *dst_scores, *h]
            }
        }
    }
}

struct Node {
    value: DenseMatrix,
    grad: Option<DenseMatrix>,
    op: Op,
    /// Whether any parameter feeds this node; gradient propagation skips
    /// constant subtrees entirely.
    needs_grad: bool,
}

/// A define-by-run autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &DenseMatrix {
        &self.nodes[id].value
    }

    /// The op that recorded a node (read by [`crate::verify`]).
    pub(crate) fn op(&self, id: NodeId) -> &Op {
        &self.nodes[id].op
    }

    /// The gradient of a leaf (zero matrix if it never received one).
    /// Only meaningful after [`Tape::backward`], which keeps leaf
    /// gradients only: an interior node's is freed once propagated, and
    /// this returns zeros for it.
    pub fn grad(&self, id: NodeId) -> DenseMatrix {
        let n = &self.nodes[id];
        n.grad.clone().unwrap_or_else(|| DenseMatrix::zeros(n.value.rows(), n.value.cols()))
    }

    fn push(&mut self, value: DenseMatrix, op: Op, needs_grad: bool) -> NodeId {
        self.nodes.push(Node { value, grad: None, op, needs_grad });
        self.nodes.len() - 1
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id].needs_grad
    }

    /// Records a constant leaf (no gradient).
    pub fn constant(&mut self, value: DenseMatrix) -> NodeId {
        self.push(value, Op::Leaf { param: None }, false)
    }

    /// Records a parameter leaf: copies the current value from the bank and
    /// remembers the id so [`Tape::apply_grads`] can flush the gradient.
    pub fn param(&mut self, bank: &ParamBank, id: ParamId) -> NodeId {
        self.push(bank.value(id).clone(), Op::Leaf { param: Some(id) }, true)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.matmul(&self.nodes[b].value);
        let needs = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMul(a, b), needs)
    }

    /// `a · bᵀ`.
    pub fn matmul_transb(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.matmul_transb(&self.nodes[b].value);
        let needs = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMulTransB(a, b), needs)
    }

    /// Constant sparse operator times dense node: `op.matrix() · x`.
    pub fn spmm(&mut self, op: &SparseOp, x: NodeId) -> NodeId {
        let xv = &self.nodes[x].value;
        assert_eq!(op.n_cols(), xv.rows(), "spmm: operator cols != x rows");
        let mut out = DenseMatrix::zeros(op.n_rows(), xv.cols());
        op.mat.spmm(xv.as_slice(), xv.cols(), out.as_mut_slice());
        let needs = self.needs(x);
        self.push(out, Op::SpMM { op: op.clone(), x }, needs)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.add(&self.nodes[b].value);
        let needs = self.needs(a) || self.needs(b);
        self.push(value, Op::Add(a, b), needs)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut value = self.nodes[a].value.clone();
        value.add_scaled_assign(&self.nodes[b].value, -1.0);
        let needs = self.needs(a) || self.needs(b);
        self.push(value, Op::Sub(a, b), needs)
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.hadamard(&self.nodes[b].value);
        let needs = self.needs(a) || self.needs(b);
        self.push(value, Op::Mul(a, b), needs)
    }

    /// Adds a `1 × cols` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let xv = &self.nodes[x].value;
        let bv = &self.nodes[bias].value;
        assert_eq!(bv.rows(), 1, "bias must be a single row");
        assert_eq!(bv.cols(), xv.cols(), "bias width must match x");
        let mut value = xv.clone();
        let bias_row = bv.row(0);
        value.par_rows_mut(|_, row| {
            for (o, &b) in row.iter_mut().zip(bias_row) {
                *o += b;
            }
        });
        let needs = self.needs(x) || self.needs(bias);
        self.push(value, Op::AddBias { x, bias }, needs)
    }

    /// `alpha * x` for a compile-time-constant alpha.
    pub fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let value = self.nodes[x].value.scale(alpha);
        let needs = self.needs(x);
        self.push(value, Op::Scale(x, alpha), needs)
    }

    /// `w[0, idx] * x` where `w` is a `1 × k` learnable vector.
    pub fn scalar_scale(&mut self, w: NodeId, idx: usize, x: NodeId) -> NodeId {
        let wv = &self.nodes[w].value;
        assert_eq!(wv.rows(), 1, "scalar_scale: w must be 1 × k");
        assert!(idx < wv.cols(), "scalar_scale: index out of range");
        let value = self.nodes[x].value.scale(wv.get(0, idx));
        let needs = self.needs(x) || self.needs(w);
        self.push(value, Op::ScalarScale { x, w, idx }, needs)
    }

    /// `diag(w[:, col]) · x` where `w` is `n × k` and `x` is `n × f`.
    pub fn col_scale(&mut self, w: NodeId, col: usize, x: NodeId) -> NodeId {
        let wv = &self.nodes[w].value;
        let xv = &self.nodes[x].value;
        assert_eq!(wv.rows(), xv.rows(), "col_scale: row counts differ");
        assert!(col < wv.cols(), "col_scale: column out of range");
        let mut value = xv.clone();
        for r in 0..value.rows() {
            let s = wv.get(r, col);
            for o in value.row_mut(r) {
                *o *= s;
            }
        }
        let needs = self.needs(x) || self.needs(w);
        self.push(value, Op::ColScale { x, w, col }, needs)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let value = self.nodes[x].value.map(|v| v.max(0.0));
        let needs = self.needs(x);
        self.push(value, Op::Relu(x), needs)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let value = self.nodes[x].value.map(|v| if v > 0.0 { v } else { alpha * v });
        let needs = self.needs(x);
        self.push(value, Op::LeakyRelu(x, alpha), needs)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let value = self.nodes[x].value.map(|v| 1.0 / (1.0 + (-v).exp()));
        let needs = self.needs(x);
        self.push(value, Op::Sigmoid(x), needs)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let value = self.nodes[x].value.map(f32::tanh);
        let needs = self.needs(x);
        self.push(value, Op::Tanh(x), needs)
    }

    /// Inverted dropout: multiplies by a caller-supplied mask whose kept
    /// entries already include the `1/(1-p)` scaling. Passing the mask in
    /// keeps the tape deterministic and RNG-free.
    pub fn dropout(&mut self, x: NodeId, mask: Rc<Vec<f32>>) -> NodeId {
        let xv = &self.nodes[x].value;
        assert_eq!(mask.len(), xv.rows() * xv.cols(), "dropout: mask length mismatch");
        let mut value = xv.clone();
        value.par_zip_assign(&mask, |o, m| *o *= m);
        let needs = self.needs(x);
        self.push(value, Op::Dropout { x, mask }, needs)
    }

    /// Horizontal concatenation of nodes.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let mats: Vec<&DenseMatrix> = parts.iter().map(|&p| &self.nodes[p].value).collect();
        let value = DenseMatrix::concat_cols(&mats);
        let needs = parts.iter().any(|&p| self.needs(p));
        self.push(value, Op::ConcatCols(parts.to_vec()), needs)
    }

    /// Copies columns `[start, end)`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, end: usize) -> NodeId {
        let value = self.nodes[x].value.slice_cols(start, end);
        let needs = self.needs(x);
        self.push(value, Op::SliceCols { x, start, end }, needs)
    }

    /// The rows `rows.ids()` of `x` (which must have `rows.n()` rows), in
    /// ascending order. The backward pass scatters the gradient back to
    /// those rows; every other row of `x` receives zero. When `rows` is
    /// every row this returns `x` itself and records nothing.
    pub fn gather_rows(&mut self, x: NodeId, rows: &Rows) -> NodeId {
        let xv = &self.nodes[x].value;
        assert_eq!(xv.rows(), rows.n(), "gather_rows: x rows != row universe");
        if rows.is_all() {
            return x;
        }
        let value = rows.gather(xv);
        let needs = self.needs(x);
        self.push(value, Op::GatherRows { x, rows: rows.clone() }, needs)
    }

    /// Softmax across columns per row.
    pub fn row_softmax(&mut self, x: NodeId) -> NodeId {
        let xv = &self.nodes[x].value;
        let mut value = xv.clone();
        value.par_rows_mut(|_, row| softmax_in_place(row));
        let needs = self.needs(x);
        self.push(value, Op::RowSoftmax(x), needs)
    }

    /// Mean over all entries — returns a `1 × 1` node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let xv = &self.nodes[x].value;
        let mean = xv.sum() / (xv.rows() * xv.cols()) as f32;
        let needs = self.needs(x);
        self.push(DenseMatrix::from_vec(1, 1, vec![mean]), Op::MeanAll(x), needs)
    }

    /// GAT-style attention aggregation over the edges of `adj` (values are
    /// ignored; only the sparsity pattern matters). `src_scores` and
    /// `dst_scores` are `n × 1` per-node attention terms, `h` is `n × f`;
    /// the output is `n × f` with rows of isolated nodes left at zero.
    pub fn gat_attention(
        &mut self,
        adj: &Rc<CsrMatrix>,
        src_scores: NodeId,
        dst_scores: NodeId,
        h: NodeId,
        slope: f32,
    ) -> NodeId {
        let n = adj.n_rows();
        let hv = &self.nodes[h].value;
        let sv = &self.nodes[src_scores].value;
        let dv = &self.nodes[dst_scores].value;
        assert_eq!(adj.n_cols(), n, "gat: adjacency must be square");
        assert_eq!(hv.rows(), n, "gat: h rows must equal node count");
        assert_eq!(sv.shape(), (n, 1), "gat: src_scores must be n × 1");
        assert_eq!(dv.shape(), (n, 1), "gat: dst_scores must be n × 1");
        let f = hv.cols();
        let mut alpha = vec![0.0f32; adj.nnz()];
        let mut pre_activation = vec![0.0f32; adj.nnz()];
        let mut out = DenseMatrix::zeros(n, f);
        let mut offset = 0usize;
        for i in 0..n {
            let cols = adj.row_cols(i);
            if cols.is_empty() {
                continue;
            }
            let row_range = offset..offset + cols.len();
            // Logits with the numerically stable softmax shift.
            let mut max_e = f32::NEG_INFINITY;
            for (slot, &j) in row_range.clone().zip(cols) {
                let pre = sv.get(i, 0) + dv.get(j as usize, 0);
                pre_activation[slot] = pre;
                let e = if pre > 0.0 { pre } else { slope * pre };
                alpha[slot] = e;
                max_e = max_e.max(e);
            }
            let mut sum = 0.0f32;
            for slot in row_range.clone() {
                alpha[slot] = (alpha[slot] - max_e).exp();
                sum += alpha[slot];
            }
            let out_row = out.row_mut(i);
            for (slot, &j) in row_range.zip(cols) {
                alpha[slot] /= sum;
                let a = alpha[slot];
                for (o, &x) in out_row.iter_mut().zip(hv.row(j as usize)) {
                    *o += a * x;
                }
            }
            offset += cols.len();
        }
        let needs = self.needs(h) || self.needs(src_scores) || self.needs(dst_scores);
        self.push(
            out,
            Op::GatAttention {
                adj: Rc::clone(adj),
                src_scores,
                dst_scores,
                h,
                slope,
                alpha,
                pre_activation,
            },
            needs,
        )
    }

    /// Masked softmax cross-entropy: mean over `mask` rows of
    /// `−log softmax(logits)[row, labels[row]]`. Returns a `1 × 1` loss node.
    pub fn masked_cross_entropy(
        &mut self,
        logits: NodeId,
        labels: Rc<Vec<usize>>,
        mask: Rc<Vec<usize>>,
    ) -> NodeId {
        let lv = &self.nodes[logits].value;
        assert!(!mask.is_empty(), "cross-entropy mask must not be empty");
        assert_eq!(labels.len(), lv.rows(), "labels length must equal logits rows");
        let mut softmax = lv.clone();
        softmax.par_rows_mut(|_, row| softmax_in_place(row));
        let mut loss = 0.0f32;
        for &r in mask.iter() {
            let p = softmax.get(r, labels[r]).max(1e-12);
            loss -= p.ln();
        }
        loss /= mask.len() as f32;
        let needs = self.needs(logits);
        self.push(
            DenseMatrix::from_vec(1, 1, vec![loss]),
            Op::MaskedCrossEntropy { logits, labels, mask, softmax },
            needs,
        )
    }

    /// Runs the backward pass from `root` (which must be `1 × 1`), filling
    /// the gradient of every parameter leaf that feeds it. Interior
    /// gradients live only until they are propagated, so the pass holds
    /// few of them at once.
    pub fn backward(&mut self, root: NodeId) {
        {
            let rv = &self.nodes[root].value;
            assert_eq!(rv.shape(), (1, 1), "backward root must be scalar");
        }
        self.nodes[root].grad = Some(DenseMatrix::ones(1, 1));
        for id in (0..=root).rev() {
            if !self.nodes[id].needs_grad {
                continue;
            }
            let Some(grad) = self.nodes[id].grad.take() else { continue };
            self.propagate(id, &grad);
            if matches!(self.nodes[id].op, Op::Leaf { .. }) {
                self.nodes[id].grad = Some(grad);
            }
        }
    }

    fn accumulate(&mut self, id: NodeId, delta: DenseMatrix) {
        if !self.nodes[id].needs_grad {
            return;
        }
        match &mut self.nodes[id].grad {
            Some(g) => g.add_scaled_assign(&delta, 1.0),
            slot @ None => *slot = Some(delta),
        }
    }

    fn propagate(&mut self, id: NodeId, grad: &DenseMatrix) {
        // Temporarily take the op out of the node so the match can borrow it
        // while `accumulate` mutates sibling nodes.
        let op = std::mem::replace(&mut self.nodes[id].op, Op::Leaf { param: None });
        self.propagate_op(id, &op, grad);
        self.nodes[id].op = op;
    }

    fn propagate_op(&mut self, id: NodeId, op: &Op, grad: &DenseMatrix) {
        match op {
            Op::Leaf { .. } => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let da = grad.matmul_transb(&self.nodes[b].value);
                let db = self.nodes[a].value.matmul_transa(grad);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::MatMulTransB(a, b) => {
                // out = A·Bᵀ ⇒ dA = G·B, dB = Gᵀ·A.
                let (a, b) = (*a, *b);
                let da = grad.matmul(&self.nodes[b].value);
                let db = grad.matmul_transa(&self.nodes[a].value);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::SpMM { op, x } => {
                let x = *x;
                let mut dx = DenseMatrix::zeros(op.n_cols(), grad.cols());
                op.mat_t.spmm(grad.as_slice(), grad.cols(), dx.as_mut_slice());
                self.accumulate(x, dx);
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate(a, grad.clone());
                self.accumulate(b, grad.clone());
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate(a, grad.clone());
                self.accumulate(b, grad.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = grad.hadamard(&self.nodes[b].value);
                let db = grad.hadamard(&self.nodes[a].value);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::AddBias { x, bias } => {
                let (x, bias) = (*x, *bias);
                let mut db = DenseMatrix::zeros(1, grad.cols());
                for r in 0..grad.rows() {
                    for (o, &g) in db.row_mut(0).iter_mut().zip(grad.row(r)) {
                        *o += g;
                    }
                }
                self.accumulate(x, grad.clone());
                self.accumulate(bias, db);
            }
            Op::Scale(x, alpha) => {
                let (x, alpha) = (*x, *alpha);
                self.accumulate(x, grad.scale(alpha));
            }
            Op::ScalarScale { x, w, idx } => {
                let (x, w, idx) = (*x, *w, *idx);
                let s = self.nodes[w].value.get(0, idx);
                let dx = grad.scale(s);
                let dw_entry = amud_par::lane_dot(grad.as_slice(), self.nodes[x].value.as_slice());
                let mut dw = DenseMatrix::zeros(1, self.nodes[w].value.cols());
                dw.set(0, idx, dw_entry);
                self.accumulate(x, dx);
                self.accumulate(w, dw);
            }
            Op::ColScale { x, w, col } => {
                let (x, w, col) = (*x, *w, *col);
                let wv = &self.nodes[w].value;
                let xv = &self.nodes[x].value;
                let mut dx = grad.clone();
                let mut dw = DenseMatrix::zeros(wv.rows(), wv.cols());
                for r in 0..grad.rows() {
                    let s = wv.get(r, col);
                    let mut acc = 0.0f32;
                    for (dxe, (&g, &xe)) in
                        dx.row_mut(r).iter_mut().zip(grad.row(r).iter().zip(xv.row(r)))
                    {
                        *dxe = g * s;
                        acc += g * xe;
                    }
                    dw.set(r, col, acc);
                }
                self.accumulate(x, dx);
                self.accumulate(w, dw);
            }
            Op::Relu(x) => {
                let x = *x;
                let mut dx = grad.clone();
                dx.par_zip_assign(self.nodes[x].value.as_slice(), |d, v| {
                    if v <= 0.0 {
                        *d = 0.0;
                    }
                });
                self.accumulate(x, dx);
            }
            Op::LeakyRelu(x, alpha) => {
                let (x, alpha) = (*x, *alpha);
                let mut dx = grad.clone();
                dx.par_zip_assign(self.nodes[x].value.as_slice(), move |d, v| {
                    if v <= 0.0 {
                        *d *= alpha;
                    }
                });
                self.accumulate(x, dx);
            }
            Op::Sigmoid(x) => {
                let x = *x;
                let mut dx = grad.clone();
                dx.par_zip_assign(self.nodes[id].value.as_slice(), |d, s| *d *= s * (1.0 - s));
                self.accumulate(x, dx);
            }
            Op::Tanh(x) => {
                let x = *x;
                let mut dx = grad.clone();
                dx.par_zip_assign(self.nodes[id].value.as_slice(), |d, t| *d *= 1.0 - t * t);
                self.accumulate(x, dx);
            }
            Op::Dropout { x, mask } => {
                let x = *x;
                let mask = Rc::clone(mask);
                let mut dx = grad.clone();
                dx.par_zip_assign(&mask, |d, m| *d *= m);
                self.accumulate(x, dx);
            }
            Op::ConcatCols(parts) => {
                let parts = parts.clone();
                let mut offset = 0;
                for p in parts {
                    let w = self.nodes[p].value.cols();
                    let dp = grad.slice_cols(offset, offset + w);
                    offset += w;
                    self.accumulate(p, dp);
                }
            }
            Op::SliceCols { x, start, end } => {
                let (x, start, end) = (*x, *start, *end);
                let xv = &self.nodes[x].value;
                let mut dx = DenseMatrix::zeros(xv.rows(), xv.cols());
                for r in 0..dx.rows() {
                    dx.row_mut(r)[start..end].copy_from_slice(grad.row(r));
                }
                self.accumulate(x, dx);
            }
            Op::GatherRows { x, rows } => {
                let x = *x;
                self.accumulate(x, rows.scatter(grad));
            }
            Op::RowSoftmax(x) => {
                let x = *x;
                let y = &self.nodes[id].value;
                let mut dx = DenseMatrix::zeros(y.rows(), y.cols());
                dx.par_rows_mut(|r, drow| {
                    let yr = y.row(r);
                    let gr = grad.row(r);
                    let dot = amud_par::lane_dot(yr, gr);
                    for ((d, &s), &g) in drow.iter_mut().zip(yr).zip(gr) {
                        *d = s * (g - dot);
                    }
                });
                self.accumulate(x, dx);
            }
            Op::MeanAll(x) => {
                let x = *x;
                let xv = &self.nodes[x].value;
                let scale = grad.get(0, 0) / (xv.rows() * xv.cols()) as f32;
                let dx = DenseMatrix::from_fn(xv.rows(), xv.cols(), |_, _| scale);
                self.accumulate(x, dx);
            }
            Op::GatAttention { adj, src_scores, dst_scores, h, slope, alpha, pre_activation } => {
                let (src_scores, dst_scores, h, slope) = (*src_scores, *dst_scores, *h, *slope);
                let hv = &self.nodes[h].value;
                let n = adj.n_rows();
                let f = hv.cols();
                let mut dh = DenseMatrix::zeros(n, f);
                let mut ds = DenseMatrix::zeros(n, 1);
                let mut dd = DenseMatrix::zeros(n, 1);
                let mut offset = 0usize;
                for i in 0..n {
                    let cols = adj.row_cols(i);
                    if cols.is_empty() {
                        continue;
                    }
                    let g_row = grad.row(i);
                    // dα_ij = G[i] · h[j]; softmax backward needs the
                    // row-wise weighted mean Σ_k α_ik dα_ik.
                    let mut dalpha = Vec::with_capacity(cols.len());
                    let mut weighted_mean = 0.0f32;
                    for (slot, &j) in (offset..).zip(cols) {
                        let da = amud_par::lane_dot(g_row, hv.row(j as usize));
                        dalpha.push(da);
                        weighted_mean += alpha[slot] * da;
                    }
                    for (idx, &j) in cols.iter().enumerate() {
                        let slot = offset + idx;
                        let a = alpha[slot];
                        // dh[j] += α_ij · G[i]
                        amud_par::lanes::lane_axpy(dh.row_mut(j as usize), a, g_row);
                        let de = a * (dalpha[idx] - weighted_mean);
                        let dpre = if pre_activation[slot] > 0.0 { de } else { slope * de };
                        ds.set(i, 0, ds.get(i, 0) + dpre);
                        dd.set(j as usize, 0, dd.get(j as usize, 0) + dpre);
                    }
                    offset += cols.len();
                }
                self.accumulate(h, dh);
                self.accumulate(src_scores, ds);
                self.accumulate(dst_scores, dd);
            }
            Op::MaskedCrossEntropy { logits, labels, mask, softmax } => {
                let logits = *logits;
                let labels = Rc::clone(labels);
                let mask = Rc::clone(mask);
                let scale = grad.get(0, 0) / mask.len() as f32;
                let mut dx = DenseMatrix::zeros(softmax.rows(), softmax.cols());
                for &r in mask.iter() {
                    let sr = softmax.row(r).to_vec();
                    let dr = dx.row_mut(r);
                    for (c, (&s, d)) in sr.iter().zip(dr.iter_mut()).enumerate() {
                        let target = if c == labels[r] { 1.0 } else { 0.0 };
                        *d = scale * (s - target);
                    }
                }
                self.accumulate(logits, dx);
            }
        }
    }

    /// After `backward`, flushes every parameter leaf's accumulated gradient
    /// into the bank's gradient buffers (summing across multiple uses of the
    /// same parameter).
    pub fn apply_grads(&self, bank: &mut ParamBank) {
        for node in &self.nodes {
            if let (Op::Leaf { param: Some(pid) }, Some(grad)) = (&node.op, &node.grad) {
                bank.accumulate_grad(*pid, grad);
            }
        }
    }
}

/// Numerically stable in-place softmax of a row.
fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::ParamBank;
    use amud_graph::CsrMatrix;
    use rand::SeedableRng;

    /// Central finite-difference check: perturbs each entry of the parameter
    /// at `pid`, re-runs `f` (which must rebuild the graph and return the
    /// scalar loss), and compares against the analytic gradient.
    fn grad_check(
        bank: &mut ParamBank,
        pid: crate::optim::ParamId,
        mut f: impl FnMut(&ParamBank) -> (f32, DenseMatrix),
    ) {
        let (_, analytic) = f(bank);
        let eps = 1e-3f32;
        let (rows, cols) = bank.value(pid).shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = bank.value(pid).get(r, c);
                bank.value_mut(pid).set(r, c, orig + eps);
                let (lp, _) = f(bank);
                bank.value_mut(pid).set(r, c, orig - eps);
                let (lm, _) = f(bank);
                bank.value_mut(pid).set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let got = analytic.get(r, c);
                assert!(
                    (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs().max(got.abs())),
                    "grad mismatch at ({r},{c}): numeric {numeric}, analytic {got}"
                );
            }
        }
    }

    fn run_loss(
        bank: &ParamBank,
        pid: crate::optim::ParamId,
        build: impl Fn(&mut Tape, NodeId) -> NodeId,
    ) -> (f32, DenseMatrix) {
        let mut tape = Tape::new();
        let p = tape.param(bank, pid);
        let out = build(&mut tape, p);
        let loss = tape.mean_all(out);
        tape.backward(loss);
        (tape.value(loss).get(0, 0), tape.grad(p))
    }

    fn seeded_param(
        bank: &mut ParamBank,
        rows: usize,
        cols: usize,
        seed: u64,
    ) -> crate::optim::ParamId {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bank.add(DenseMatrix::xavier_uniform(rows, cols, &mut rng))
    }

    #[test]
    fn matmul_gradient_matches_finite_differences() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 3, 4, 1);
        let x = DenseMatrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.3 - 0.5);
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let xn = tape.constant(x.clone());
                let y = tape.matmul(xn, p);
                tape.tanh(y)
            })
        });
    }

    #[test]
    fn matmul_transb_gradient_matches_finite_differences() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 3, 4, 21);
        let other = DenseMatrix::from_fn(5, 4, |r, c| 0.2 * (r as f32 - c as f32));
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let o = tape.constant(other.clone());
                let y = tape.matmul_transb(p, o);
                tape.tanh(y)
            })
        });
        // Also check the gradient flowing into the transposed operand.
        let pid2 = seeded_param(&mut bank, 5, 4, 22);
        let left = DenseMatrix::from_fn(3, 4, |r, c| 0.1 * (r + c) as f32 - 0.2);
        grad_check(&mut bank, pid2, |bank| {
            run_loss(bank, pid2, |tape, p| {
                let l = tape.constant(left.clone());
                let y = tape.matmul_transb(l, p);
                tape.sigmoid(y)
            })
        });
    }

    #[test]
    fn spmm_gradient_matches_finite_differences() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 4, 3, 2);
        let s = SparseOp::new(
            CsrMatrix::from_coo(4, 4, vec![(0, 1, 0.5), (1, 2, 1.5), (2, 0, -1.0), (3, 3, 2.0)])
                .unwrap(),
        );
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let y = tape.spmm(&s, p);
                tape.sigmoid(y)
            })
        });
    }

    #[test]
    fn elementwise_chain_gradients() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 2, 3, 3);
        let other = DenseMatrix::from_fn(2, 3, |r, c| 0.1 * (r as f32 + 1.0) * (c as f32 - 1.0));
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let o = tape.constant(other.clone());
                let prod = tape.mul(p, o);
                let diff = tape.sub(prod, p);
                let act = tape.leaky_relu(diff, 0.2);
                tape.scale(act, 1.7)
            })
        });
    }

    #[test]
    fn add_bias_gradient() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 1, 4, 4);
        let x = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let xn = tape.constant(x.clone());
                let y = tape.add_bias(xn, p);
                tape.relu(y)
            })
        });
    }

    #[test]
    fn scalar_scale_gradient() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 1, 3, 5);
        let x = DenseMatrix::from_fn(2, 2, |r, c| (r + 2 * c) as f32 * 0.4 - 0.3);
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let xn = tape.constant(x.clone());
                let a = tape.scalar_scale(p, 0, xn);
                let b = tape.scalar_scale(p, 2, xn);
                tape.add(a, b)
            })
        });
    }

    #[test]
    fn col_scale_gradient() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 3, 2, 6);
        let x = DenseMatrix::from_fn(3, 4, |r, c| ((r * c) as f32).sin());
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let xn = tape.constant(x.clone());
                let y0 = tape.col_scale(p, 0, xn);
                let y1 = tape.col_scale(p, 1, xn);
                tape.add(y0, y1)
            })
        });
    }

    #[test]
    fn gather_rows_gradient_matches_finite_differences() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 5, 3, 11);
        let w = DenseMatrix::from_fn(3, 2, |r, c| 0.3 * (r as f32 - c as f32) + 0.1);
        let rows = Rows::new(5, [4, 0, 2]);
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let g = tape.gather_rows(p, &rows);
                let wn = tape.constant(w.clone());
                let y = tape.matmul(g, wn);
                tape.tanh(y)
            })
        });
        // Rows outside the subset get exactly zero gradient.
        let (_, grad) = run_loss(&bank, pid, |tape, p| tape.gather_rows(p, &rows));
        assert_eq!(grad.row(1), &[0.0; 3]);
        assert_eq!(grad.row(3), &[0.0; 3]);
        assert!(grad.row(4).iter().all(|&g| g > 0.0));
    }

    #[test]
    fn gather_rows_of_every_row_records_nothing() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(3, 2));
        assert_eq!(tape.gather_rows(x, &Rows::all(3)), x);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row universe")]
    fn gather_rows_from_the_wrong_row_count_panics() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(4, 3));
        tape.gather_rows(x, &Rows::new(5, [0, 2]));
    }

    #[test]
    fn row_softmax_gradient() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 3, 4, 7);
        grad_check(&mut bank, pid, |bank| run_loss(bank, pid, |tape, p| tape.row_softmax(p)));
    }

    #[test]
    fn concat_slice_gradients() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 2, 3, 8);
        grad_check(&mut bank, pid, |bank| {
            run_loss(bank, pid, |tape, p| {
                let cat = tape.concat_cols(&[p, p]);
                tape.slice_cols(cat, 2, 5)
            })
        });
    }

    #[test]
    fn gat_attention_gradient() {
        let adj = Rc::new(
            CsrMatrix::from_edges(4, 4, vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 2)])
                .unwrap(),
        );
        // Check gradients through h, src and dst scores in turn.
        for target in 0..3 {
            let mut bank = ParamBank::new();
            let pid = match target {
                0 => seeded_param(&mut bank, 4, 3, 31), // h
                _ => seeded_param(&mut bank, 4, 1, 32 + target as u64),
            };
            let h_const = DenseMatrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.4);
            let s_const = DenseMatrix::from_fn(4, 1, |r, _| 0.3 * r as f32 - 0.5);
            let adj2 = Rc::clone(&adj);
            grad_check(&mut bank, pid, |bank| {
                let mut tape = Tape::new();
                let p = tape.param(bank, pid);
                let (h, s, d) = match target {
                    0 => (p, tape.constant(s_const.clone()), tape.constant(s_const.clone())),
                    1 => (tape.constant(h_const.clone()), p, tape.constant(s_const.clone())),
                    _ => (tape.constant(h_const.clone()), tape.constant(s_const.clone()), p),
                };
                let y = tape.gat_attention(&adj2, s, d, h, 0.2);
                let t = tape.tanh(y);
                let loss = tape.mean_all(t);
                tape.backward(loss);
                (tape.value(loss).get(0, 0), tape.grad(p))
            });
        }
    }

    #[test]
    fn gat_attention_rows_are_convex_combinations() {
        // With uniform scores, attention is a uniform average of
        // neighbours' features.
        let adj = Rc::new(CsrMatrix::from_edges(3, 3, vec![(0, 1), (0, 2)]).unwrap());
        let mut tape = Tape::new();
        let h = tape.constant(DenseMatrix::from_vec(3, 1, vec![0.0, 2.0, 4.0]));
        let z = tape.constant(DenseMatrix::zeros(3, 1));
        let y = tape.gat_attention(&adj, z, z, h, 0.2);
        assert!((tape.value(y).get(0, 0) - 3.0).abs() < 1e-6);
        // Isolated nodes (rows 1, 2) stay zero.
        assert_eq!(tape.value(y).get(1, 0), 0.0);
        assert_eq!(tape.value(y).get(2, 0), 0.0);
    }

    #[test]
    fn cross_entropy_gradient() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 4, 3, 9);
        let labels = Rc::new(vec![0usize, 2, 1, 0]);
        let mask = Rc::new(vec![0usize, 1, 3]);
        let (_, analytic) = {
            let mut tape = Tape::new();
            let p = tape.param(&bank, pid);
            let loss = tape.masked_cross_entropy(p, Rc::clone(&labels), Rc::clone(&mask));
            tape.backward(loss);
            (tape.value(loss).get(0, 0), tape.grad(p))
        };
        let eps = 1e-3f32;
        for r in 0..4 {
            for c in 0..3 {
                let orig = bank.value(pid).get(r, c);
                let eval = |bank: &ParamBank| {
                    let mut tape = Tape::new();
                    let p = tape.param(bank, pid);
                    let loss = tape.masked_cross_entropy(p, Rc::clone(&labels), Rc::clone(&mask));
                    tape.value(loss).get(0, 0)
                };
                bank.value_mut(pid).set(r, c, orig + eps);
                let lp = eval(&bank);
                bank.value_mut(pid).set(r, c, orig - eps);
                let lm = eval(&bank);
                bank.value_mut(pid).set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(r, c)).abs() < 1e-2,
                    "CE grad mismatch at ({r},{c})"
                );
            }
        }
        // Unmasked row 2 must receive zero gradient.
        assert_eq!(analytic.row(2), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn dropout_zeroes_gradient_where_masked() {
        let mut bank = ParamBank::new();
        let pid = seeded_param(&mut bank, 2, 2, 10);
        let mask = Rc::new(vec![2.0f32, 0.0, 2.0, 0.0]);
        let mut tape = Tape::new();
        let p = tape.param(&bank, pid);
        let d = tape.dropout(p, Rc::clone(&mask));
        let loss = tape.mean_all(d);
        tape.backward(loss);
        let g = tape.grad(p);
        assert_eq!(g.get(0, 1), 0.0);
        assert_eq!(g.get(1, 1), 0.0);
        assert!(g.get(0, 0) > 0.0);
    }

    #[test]
    fn constant_subtrees_receive_no_gradient() {
        let bank = ParamBank::new();
        let mut tape = Tape::new();
        let c1 = tape.constant(DenseMatrix::ones(2, 2));
        let c2 = tape.constant(DenseMatrix::ones(2, 2));
        let s = tape.add(c1, c2);
        let loss = tape.mean_all(s);
        tape.backward(loss);
        assert_eq!(tape.grad(c1).sum(), 0.0);
        let _ = bank;
    }

    #[test]
    fn backward_keeps_leaf_gradients_only() {
        let mut bank = ParamBank::new();
        let pid = bank.add(DenseMatrix::ones(2, 2));
        let mut tape = Tape::new();
        let p = tape.param(&bank, pid);
        let h = tape.tanh(p);
        let loss = tape.mean_all(h);
        tape.backward(loss);
        assert!(tape.nodes[h].grad.is_none());
        assert!(tape.grad(p).sum() > 0.0);
        tape.apply_grads(&mut bank);
        assert_eq!(bank.grad(pid).as_slice(), tape.grad(p).as_slice());
    }

    #[test]
    fn param_used_twice_accumulates_in_bank() {
        let mut bank = ParamBank::new();
        let pid = bank.add(DenseMatrix::ones(1, 1));
        let mut tape = Tape::new();
        let p1 = tape.param(&bank, pid);
        let p2 = tape.param(&bank, pid);
        let s = tape.add(p1, p2);
        let loss = tape.mean_all(s);
        tape.backward(loss);
        tape.apply_grads(&mut bank);
        // d(mean(p + p))/dp = 2
        assert!((bank.grad(pid).get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "backward root must be scalar")]
    fn backward_requires_scalar_root() {
        let mut tape = Tape::new();
        let c = tape.constant(DenseMatrix::ones(2, 2));
        tape.backward(c);
    }
}
