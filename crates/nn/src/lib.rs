//! # amud-nn
//!
//! A small, self-contained neural-network substrate: row-major dense
//! matrices ([`matrix::DenseMatrix`]), a reverse-mode autodiff tape
//! ([`tape::Tape`]) with the operations graph learning needs (including a
//! sparse×dense product against constant CSR operators), Adam optimisation
//! ([`optim`]), MLP building blocks ([`linear`]), and complex-matrix helpers
//! for magnetic-Laplacian models ([`complex`]).
//!
//! Design: the tape is rebuilt every training step (define-by-run). Model
//! parameters live in a [`optim::ParamBank`] outside the tape; a forward
//! pass copies parameter values into leaf nodes tagged with their
//! [`optim::ParamId`], and after `backward` the accumulated gradients are
//! flushed back with [`tape::Tape::apply_grads`]. Everything is
//! deterministic given the caller's RNG.
//!
//! ```
//! use amud_nn::{Adam, DenseMatrix, ParamBank, Tape};
//!
//! // One gradient step on loss = mean((x · w)²).
//! let mut bank = ParamBank::new();
//! let w = bank.add(DenseMatrix::ones(2, 1));
//! let mut tape = Tape::new();
//! let x = tape.constant(DenseMatrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
//! let wn = tape.param(&bank, w);
//! let y = tape.matmul(x, wn);
//! let sq = tape.mul(y, y);
//! let loss = tape.mean_all(sq);
//! tape.backward(loss);
//! tape.apply_grads(&mut bank);
//! assert!(bank.grad(w).frobenius_norm() > 0.0);
//! Adam::new(0.01).step(&mut bank);
//! ```

#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod complex;
pub mod linear;
pub mod matrix;
pub mod optim;
pub mod rows;
pub mod tape;
pub mod verify;

pub use linear::{Activation, Linear, Mlp};
pub use matrix::DenseMatrix;
pub use optim::{Adam, Param, ParamBank, ParamId};
pub use rows::Rows;
pub use tape::{NodeId, SparseOp, Tape};
pub use verify::{Diagnostic, GraphSpec, Rule, Severity, TapeVerifier};
