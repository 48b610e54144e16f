//! Linear layers and MLPs — the building blocks every model in the paper
//! shares (Eq. 3's `MLP(·)`, the classifier head of ADPA, the encoders of
//! LINKX/A2DUG, ...).

use crate::matrix::DenseMatrix;
use crate::optim::{ParamBank, ParamId};
use crate::tape::{NodeId, Tape};
use rand::Rng;
use std::rc::Rc;

/// Activation functions used across the baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    Sigmoid,
    Tanh,
    /// No activation (final layers).
    Identity,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::LeakyRelu => tape.leaky_relu(x, 0.01),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Identity => x,
        }
    }
}

/// Samples an inverted-dropout mask: entries are `0` with probability `p`,
/// else `1/(1-p)`.
pub fn dropout_mask<R: Rng>(rng: &mut R, rows: usize, cols: usize, p: f32) -> Rc<Vec<f32>> {
    assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    Rc::new((0..rows * cols).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect())
}

/// A fully connected layer `x · W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// Registers Xavier-initialised weights and a zero bias in `bank`.
    pub fn new<R: Rng>(bank: &mut ParamBank, in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let w = bank.add(DenseMatrix::xavier_uniform(in_dim, out_dim, rng));
        let b = bank.add(DenseMatrix::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// Records the layer on the tape.
    pub fn forward(&self, tape: &mut Tape, bank: &ParamBank, x: NodeId) -> NodeId {
        let w = tape.param(bank, self.w);
        let b = tape.param(bank, self.b);
        let xw = tape.matmul(x, w);
        tape.add_bias(xw, b)
    }
}

/// A multi-layer perceptron with dropout between layers.
///
/// `dims = [in, h1, ..., out]`; activations and dropout are applied after
/// every layer except the last.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub layers: Vec<Linear>,
    pub activation: Activation,
    pub dropout: f32,
}

impl Mlp {
    pub fn new<R: Rng>(
        bank: &mut ParamBank,
        dims: &[usize],
        activation: Activation,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims.windows(2).map(|w| Linear::new(bank, w[0], w[1], rng)).collect();
        Self { layers, activation, dropout }
    }

    /// Records the MLP on the tape. When `training` and `dropout > 0`, a
    /// fresh mask is sampled from `rng` per hidden layer.
    pub fn forward<R: Rng>(
        &self,
        tape: &mut Tape,
        bank: &ParamBank,
        x: NodeId,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            if training && self.dropout > 0.0 {
                let (r, c) = tape.value(h).shape();
                let mask = dropout_mask(rng, r, c, self.dropout);
                h = tape.dropout(h, mask);
            }
            h = layer.forward(tape, bank, h);
            if i != last {
                h = self.activation.apply(tape, h);
            }
        }
        h
    }

    pub fn out_dim(&self) -> usize {
        match self.layers.last() {
            Some(layer) => layer.out_dim,
            // `MLP::new` asserts `dims.len() >= 2`, so the stack holds at
            // least one layer for the lifetime of the value.
            None => unreachable!("MLP construction requires at least one layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut bank = ParamBank::new();
        let layer = Linear::new(&mut bank, 3, 5, &mut rng);
        // Set bias to a known value and weights to zero.
        *bank.value_mut(layer.w) = DenseMatrix::zeros(3, 5);
        *bank.value_mut(layer.b) = DenseMatrix::ones(1, 5);
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(4, 3));
        let y = layer.forward(&mut tape, &bank, x);
        assert_eq!(tape.value(y).shape(), (4, 5));
        assert!(tape.value(y).as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn mlp_learns_xor_like_separation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut bank = ParamBank::new();
        let mlp = Mlp::new(&mut bank, &[2, 16, 2], Activation::Relu, 0.0, &mut rng);
        let xs = DenseMatrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let labels = Rc::new(vec![0usize, 1, 1, 0]);
        let mask = Rc::new(vec![0usize, 1, 2, 3]);
        let mut adam = crate::optim::Adam::new(0.01);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut tape = Tape::new();
            let x = tape.constant(xs.clone());
            let logits = mlp.forward(&mut tape, &bank, x, true, &mut rng);
            let loss = tape.masked_cross_entropy(logits, Rc::clone(&labels), Rc::clone(&mask));
            final_loss = tape.value(loss).get(0, 0);
            tape.backward(loss);
            tape.apply_grads(&mut bank);
            adam.step(&mut bank);
        }
        assert!(final_loss < 0.1, "XOR loss should vanish, got {final_loss}");
        // Check predictions.
        let mut tape = Tape::new();
        let x = tape.constant(xs);
        let logits = mlp.forward(&mut tape, &bank, x, false, &mut rng);
        assert_eq!(tape.value(logits).argmax_rows(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn dropout_mask_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mask = dropout_mask(&mut rng, 100, 100, 0.4);
        let zeros = mask.iter().filter(|&&m| m == 0.0).count();
        let frac = zeros as f64 / mask.len() as f64;
        assert!((frac - 0.4).abs() < 0.03, "dropout fraction {frac}");
        // Kept entries carry the inverse-keep scaling.
        assert!(mask.iter().all(|&m| m == 0.0 || (m - 1.0 / 0.6).abs() < 1e-6));
    }

    #[test]
    fn mlp_eval_mode_is_deterministic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut bank = ParamBank::new();
        let mlp = Mlp::new(&mut bank, &[4, 8, 3], Activation::Tanh, 0.5, &mut rng);
        let x = DenseMatrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1);
        let run = |rng: &mut rand::rngs::StdRng| {
            let mut tape = Tape::new();
            let xn = tape.constant(x.clone());
            let y = mlp.forward(&mut tape, &bank, xn, false, rng);
            tape.value(y).clone()
        };
        let y1 = run(&mut rng);
        let y2 = run(&mut rng);
        assert_eq!(y1, y2, "eval mode must not consume RNG");
    }
}
