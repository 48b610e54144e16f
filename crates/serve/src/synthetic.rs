//! Deterministic synthetic snapshots for tests and benchmarks.
//!
//! Serving robustness must be testable without a dataset or a training
//! run: the admission queue, the snapshot parser, and the hot-swap path
//! care about *shapes and bytes*, not learned weights. This module builds
//! a structurally valid [`Snapshot`] from a seed using a self-contained
//! xorshift64* generator — the same snapshot for the same arguments,
//! byte-for-byte, on every platform. Real deployments produce snapshots
//! with `amud snapshot` (train → [`amud_core::Adpa::export`] →
//! [`crate::snapshot::write_snapshot`]); synthetic ones exist so a fault
//! harness can mint as many distinct valid artifacts as it needs in
//! microseconds.

use crate::snapshot::Snapshot;
use amud_core::{DpAttention, QLinear, QuantizedExport};
use amud_nn::DenseMatrix;
use amud_quant::QMatrix;

/// Number of classes every synthetic snapshot predicts over.
pub const SYNTHETIC_CLASSES: usize = 3;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn fill(state: &mut u64, rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| (xorshift(state) % 2001) as f32 / 1000.0 - 1.0).collect(),
    )
}

fn linear(state: &mut u64, in_dim: usize, out_dim: usize) -> QLinear {
    QLinear { w: QMatrix::F32(fill(state, in_dim, out_dim)), b: fill(state, 1, out_dim) }
}

/// Builds a structurally valid snapshot with pseudo-random weights.
///
/// * `seed` — drives every weight; different seeds give byte-distinct
///   snapshots (useful for hot-swap tests that need "a new version").
/// * `n_nodes` / `n_features` — propagated-tensor shape.
/// * `n_patterns` — DP operator count `k`.
/// * `k_steps` — propagation depth `K` (≥ 1).
/// * `hidden` — fused representation width.
/// * `variant` — DP attention variant code (0 Original, 1 Gate,
///   2 Recursive, 3 Jk, 4 None; other values clamp to Original).
///
/// The classifier is a 2-layer MLP onto [`SYNTHETIC_CLASSES`] classes and
/// hop attention is always on, so every weight family in the format is
/// exercised.
pub fn synthetic_snapshot(
    seed: u64,
    n_nodes: usize,
    n_features: usize,
    n_patterns: usize,
    k_steps: usize,
    hidden: usize,
    variant: u32,
) -> Snapshot {
    let mut state = seed | 1;
    let dp_attention = match variant {
        1 => DpAttention::Gate,
        2 => DpAttention::Recursive,
        3 => DpAttention::Jk,
        4 => DpAttention::None,
        _ => DpAttention::Original,
    };
    let k = n_patterns;
    let fuse_in = match dp_attention {
        DpAttention::None => n_features,
        _ => (k + 1) * n_features,
    };
    let export = QuantizedExport {
        dp_attention,
        k_steps,
        hidden,
        n_classes: SYNTHETIC_CLASSES,
        pattern_names: (0..k).map(|g| format!("G{g}")).collect(),
        w_dp: matches!(dp_attention, DpAttention::Original)
            .then(|| QMatrix::F32(fill(&mut state, n_nodes, k + 1))),
        op_scorers: match dp_attention {
            DpAttention::Gate | DpAttention::Recursive => {
                (0..=k).map(|_| linear(&mut state, n_features, 1)).collect()
            }
            _ => Vec::new(),
        },
        fuse: linear(&mut state, fuse_in, hidden),
        hop_scorer: Some(linear(&mut state, k_steps * hidden, k_steps)),
        classifier: vec![
            linear(&mut state, hidden, hidden),
            linear(&mut state, hidden, SYNTHETIC_CLASSES),
        ],
        x0: QMatrix::F32(fill(&mut state, n_nodes, n_features)),
        steps: (0..k_steps)
            .map(|_| (0..k).map(|_| QMatrix::F32(fill(&mut state, n_nodes, n_features))).collect())
            .collect(),
    };
    Snapshot::from_export(seed, export)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_and_seed_sensitive() {
        let a = synthetic_snapshot(1, 8, 4, 2, 2, 8, 0);
        let b = synthetic_snapshot(1, 8, 4, 2, 2, 8, 0);
        let c = synthetic_snapshot(2, 8, 4, 2, 2, 8, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_variants_build_consistent_shapes() {
        for v in 0..5u32 {
            let s = synthetic_snapshot(3, 8, 4, 2, 2, 8, v);
            crate::engine::Engine::new(s).expect("synthetic snapshot must validate");
        }
    }
}
