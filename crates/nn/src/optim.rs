//! Parameters and the Adam optimiser.
//!
//! Parameters live outside the tape in a [`ParamBank`]; a tape records
//! leaves tagged with [`ParamId`] and flushes gradients back after the
//! backward pass. [`Adam`] then applies one update per step and the
//! gradients are zeroed for the next iteration. This mirrors the
//! PyTorch-style training loop the paper's experiments use, without any
//! shared mutable state.

use crate::matrix::DenseMatrix;

/// Handle to a parameter in a [`ParamBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// One trainable parameter with its gradient buffer and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    value: DenseMatrix,
    grad: DenseMatrix,
    m: DenseMatrix,
    v: DenseMatrix,
}

impl Param {
    fn new(value: DenseMatrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            grad: DenseMatrix::zeros(r, c),
            m: DenseMatrix::zeros(r, c),
            v: DenseMatrix::zeros(r, c),
        }
    }
}

/// Storage for all parameters of a model.
#[derive(Debug, Default, Clone)]
pub struct ParamBank {
    params: Vec<Param>,
}

impl ParamBank {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, value: DenseMatrix) -> ParamId {
        self.params.push(Param::new(value));
        ParamId(self.params.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (model size diagnostics).
    pub fn n_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.rows() * p.value.cols()).sum()
    }

    pub fn value(&self, id: ParamId) -> &DenseMatrix {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut DenseMatrix {
        &mut self.params[id.0].value
    }

    pub fn grad(&self, id: ParamId) -> &DenseMatrix {
        &self.params[id.0].grad
    }

    /// Adds `delta` into the parameter's gradient buffer.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &DenseMatrix) {
        self.params[id.0].grad.add_scaled_assign(delta, 1.0);
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.as_mut_slice().fill(0.0);
        }
    }

    /// Multiplies every gradient buffer by `factor` (fault injection and
    /// manual loss scaling; `NaN` poisons every gradient).
    pub fn scale_grads(&mut self, factor: f32) {
        for p in &mut self.params {
            for g in p.grad.as_mut_slice() {
                *g *= factor;
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }
}

/// Adam with decoupled weight decay and optional global-norm clipping.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay.
    pub weight_decay: f32,
    /// If set, gradients are scaled down when the global norm exceeds this.
    pub clip_norm: Option<f32>,
    /// Step counter for bias correction.
    t: u64,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, clip_norm: None, t: 0 }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    pub fn with_clip_norm(mut self, clip: f32) -> Self {
        self.clip_norm = Some(clip);
        self
    }

    /// Applies one Adam step to every parameter using the bank's accumulated
    /// gradients, then zeroes the gradients.
    pub fn step(&mut self, bank: &mut ParamBank) {
        self.t += 1;
        let clip_scale = match self.clip_norm {
            Some(limit) => {
                let norm = bank.grad_norm();
                if norm > limit {
                    limit / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in bank.iter_mut() {
            let value = p.value.as_mut_slice();
            let grad = p.grad.as_mut_slice();
            let m = p.m.as_mut_slice();
            let v = p.v.as_mut_slice();
            for i in 0..value.len() {
                let g = grad[i] * clip_scale;
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                value[i] -=
                    self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * value[i]);
                grad[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimise f(w) = (w - 3)²; gradient = 2(w - 3)
        let mut bank = ParamBank::new();
        let pid = bank.add(DenseMatrix::zeros(1, 1));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let w = bank.value(pid).get(0, 0);
            let g = DenseMatrix::from_vec(1, 1, vec![2.0 * (w - 3.0)]);
            bank.accumulate_grad(pid, &g);
            adam.step(&mut bank);
        }
        let w = bank.value(pid).get(0, 0);
        assert!((w - 3.0).abs() < 1e-2, "converged to {w}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut bank = ParamBank::new();
        let pid = bank.add(DenseMatrix::ones(1, 1).scale(10.0));
        let mut adam = Adam::new(0.1).with_weight_decay(0.1);
        for _ in 0..200 {
            // zero task gradient: only decay acts
            adam.step(&mut bank);
        }
        assert!(bank.value(pid).get(0, 0).abs() < 2.0);
    }

    #[test]
    fn clipping_caps_update_magnitude() {
        let mut bank = ParamBank::new();
        let pid = bank.add(DenseMatrix::zeros(1, 1));
        let mut adam = Adam::new(1.0).with_clip_norm(1e-3);
        let huge = DenseMatrix::from_vec(1, 1, vec![1e6]);
        bank.accumulate_grad(pid, &huge);
        adam.step(&mut bank);
        // Even with lr=1, the clipped, normalised step stays bounded by lr.
        assert!(bank.value(pid).get(0, 0).abs() <= 1.0 + 1e-6);
    }

    #[test]
    fn grads_zeroed_after_step() {
        let mut bank = ParamBank::new();
        let pid = bank.add(DenseMatrix::zeros(2, 2));
        bank.accumulate_grad(pid, &DenseMatrix::ones(2, 2));
        let mut adam = Adam::new(0.01);
        adam.step(&mut bank);
        assert_eq!(bank.grad(pid).sum(), 0.0);
    }

    #[test]
    fn n_scalars_counts_all() {
        let mut bank = ParamBank::new();
        bank.add(DenseMatrix::zeros(3, 4));
        bank.add(DenseMatrix::zeros(1, 5));
        assert_eq!(bank.n_scalars(), 17);
    }
}
