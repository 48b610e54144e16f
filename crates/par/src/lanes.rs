//! Fixed-width lane microkernels — the register-blocked building blocks
//! behind every dense/sparse hot loop.
//!
//! A *lane block* is a `[f32; LANE_WIDTH]` accumulator updated by an
//! explicitly unrolled loop over `LANE_WIDTH` independent lanes. The shape
//! is chosen so the autovectorizer can lift each lane loop to one or two
//! SIMD ops (std only — no intrinsics, no `target-feature` gates), while
//! the numerics stay fully pinned:
//!
//! * **Reductions** ([`fold_lanes`], and `lane_sum`/`lane_dot` built on it
//!   in `fold.rs`) use a *fixed* binary reduction tree whose shape depends
//!   only on the operand length — never on the thread count, the partition,
//!   or the host. That tree is the single canonical order for every lane
//!   reduction in the workspace.
//! * **Axpy kernels** ([`lane_axpy`], [`lane_axpy4`]) perform exactly one
//!   scalar `o += w * x` per (element, weight) pair, in ascending weight
//!   order — the same floating-point op sequence as the serial loops they
//!   replace, so adopting them changes *nothing* bitwise.
//!
//! Lengths that are not a multiple of [`LANE_WIDTH`] take a deterministic
//! scalar tail in ascending index order. In particular, for inputs shorter
//! than one lane block the lane reductions degenerate to the legacy
//! `ordered_*` scalar order exactly (the lane accumulator folds to `+0.0`
//! and the tail is the whole input).

/// Number of f32 lanes per accumulator block. Eight f32s fill one AVX
/// register (or two SSE registers); the unrolled lane loops below are
/// written against this width and the reduction-tree shape is defined in
/// terms of it, so it is a semantic constant, not a tuning knob.
pub const LANE_WIDTH: usize = 8;

/// Collapses one lane accumulator block to a scalar via the canonical
/// fixed-shape binary tree:
///
/// ```text
/// ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
/// ```
///
/// (stride-halving, the same shape a SIMD horizontal reduction uses). The
/// tree depends only on `LANE_WIDTH`, so every caller — serial fallback or
/// any parallel block, at any `AMUD_THREADS` — folds identically.
#[inline]
pub fn fold_lanes(acc: [f32; LANE_WIDTH]) -> f32 {
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    (s0 + s2) + (s1 + s3)
}

/// `out[j] += w * x[j]` over the common prefix of `out` and `x`.
///
/// Bit-identical to the scalar loop: each element receives exactly one
/// `+= w * x[j]`, so the lane blocking is a pure instruction-scheduling
/// transform. The trailing `len % LANE_WIDTH` elements run scalar, in
/// ascending index order.
#[inline]
pub fn lane_axpy(out: &mut [f32], w: f32, x: &[f32]) {
    let n = out.len().min(x.len());
    let main = n - n % LANE_WIDTH;
    let (o_main, o_tail) = out[..n].split_at_mut(main);
    let (x_main, x_tail) = x[..n].split_at(main);
    for (o, c) in o_main.chunks_exact_mut(LANE_WIDTH).zip(x_main.chunks_exact(LANE_WIDTH)) {
        for l in 0..LANE_WIDTH {
            o[l] += w * c[l];
        }
    }
    for (o, &c) in o_tail.iter_mut().zip(x_tail) {
        *o += w * c;
    }
}

/// Four-way k-blocked axpy: `out[j] += w[0]*x0[j]; out[j] += w[1]*x1[j];
/// out[j] += w[2]*x2[j]; out[j] += w[3]*x3[j]` for every `j` in the common
/// prefix.
///
/// Per element this is the *same* ascending-weight sequence of fused
/// load/mul/add ops as four successive [`lane_axpy`] calls — bit-identical
/// by construction — but `out[j]` stays register-resident across all four
/// updates, quartering the write traffic of the ikj GEMM inner loop.
#[inline]
pub fn lane_axpy4(out: &mut [f32], w: [f32; 4], x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32]) {
    let n = out.len().min(x0.len()).min(x1.len()).min(x2.len()).min(x3.len());
    let main = n - n % LANE_WIDTH;
    let mut j = 0;
    while j < main {
        let o = &mut out[j..j + LANE_WIDTH];
        let (c0, c1) = (&x0[j..j + LANE_WIDTH], &x1[j..j + LANE_WIDTH]);
        let (c2, c3) = (&x2[j..j + LANE_WIDTH], &x3[j..j + LANE_WIDTH]);
        for l in 0..LANE_WIDTH {
            o[l] += w[0] * c0[l];
            o[l] += w[1] * c1[l];
            o[l] += w[2] * c2[l];
            o[l] += w[3] * c3[l];
        }
        j += LANE_WIDTH;
    }
    while j < n {
        out[j] += w[0] * x0[j];
        out[j] += w[1] * x1[j];
        out[j] += w[2] * x2[j];
        out[j] += w[3] * x3[j];
        j += 1;
    }
}

/// Four simultaneous lane dots of `a` against `b0..b3`.
///
/// When all five slices share a length, `lane_dot4(a, b0, b1, b2, b3)[k]`
/// is bit-identical to `lane_dot(a, bk)`: each of the four accumulations
/// runs the identical lane schedule ([`fold_lanes`] tree + ascending
/// scalar tail); interleaving them only reuses the loads of `a` across
/// four independent register chains.
#[inline]
pub fn lane_dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let n = a.len().min(b0.len()).min(b1.len()).min(b2.len()).min(b3.len());
    let main = n - n % LANE_WIDTH;
    // Zipped `chunks_exact` hands the optimizer fixed-length windows with
    // no residual bounds checks, so each lane statement lowers to one
    // vector multiply-add chain.
    let mut acc0 = [0.0f32; LANE_WIDTH];
    let mut acc1 = [0.0f32; LANE_WIDTH];
    let mut acc2 = [0.0f32; LANE_WIDTH];
    let mut acc3 = [0.0f32; LANE_WIDTH];
    let chunks = a[..main]
        .chunks_exact(LANE_WIDTH)
        .zip(b0[..main].chunks_exact(LANE_WIDTH))
        .zip(b1[..main].chunks_exact(LANE_WIDTH))
        .zip(b2[..main].chunks_exact(LANE_WIDTH))
        .zip(b3[..main].chunks_exact(LANE_WIDTH));
    for ((((av, c0), c1), c2), c3) in chunks {
        for l in 0..LANE_WIDTH {
            acc0[l] += av[l] * c0[l];
            acc1[l] += av[l] * c1[l];
            acc2[l] += av[l] * c2[l];
            acc3[l] += av[l] * c3[l];
        }
    }
    let mut out = [fold_lanes(acc0), fold_lanes(acc1), fold_lanes(acc2), fold_lanes(acc3)];
    let mut i = main;
    while i < n {
        out[0] += a[i] * b0[i];
        out[1] += a[i] * b1[i];
        out[2] += a[i] * b2[i];
        out[3] += a[i] * b3[i];
        i += 1;
    }
    out
}

/// Four simultaneous lane dots of `a` against a 4-way *interleaved* B
/// pack: `b4[k * 4 + m]` holds element `k` of row `m`.
///
/// `lane_dot4_interleaved(a, b4)[m]` is bit-identical to
/// `lane_dot(a, b_m)`: each of the four accumulations runs the identical
/// lane schedule ([`fold_lanes`] tree + ascending scalar tail) — the
/// interleaved layout only turns four strided row streams into one
/// sequential stream, which is what makes a pre-packed `matmul_transb`
/// traversal bandwidth-friendly.
#[inline]
pub fn lane_dot4_interleaved(a: &[f32], b4: &[f32]) -> [f32; 4] {
    let n = a.len().min(b4.len() / 4);
    let main = n - n % LANE_WIDTH;
    let mut acc0 = [0.0f32; LANE_WIDTH];
    let mut acc1 = [0.0f32; LANE_WIDTH];
    let mut acc2 = [0.0f32; LANE_WIDTH];
    let mut acc3 = [0.0f32; LANE_WIDTH];
    let chunks =
        a[..main].chunks_exact(LANE_WIDTH).zip(b4[..main * 4].chunks_exact(LANE_WIDTH * 4));
    for (av, bb) in chunks {
        for l in 0..LANE_WIDTH {
            acc0[l] += av[l] * bb[l * 4];
            acc1[l] += av[l] * bb[l * 4 + 1];
            acc2[l] += av[l] * bb[l * 4 + 2];
            acc3[l] += av[l] * bb[l * 4 + 3];
        }
    }
    let mut out = [fold_lanes(acc0), fold_lanes(acc1), fold_lanes(acc2), fold_lanes(acc3)];
    let mut i = main;
    while i < n {
        out[0] += a[i] * b4[i * 4];
        out[1] += a[i] * b4[i * 4 + 1];
        out[2] += a[i] * b4[i * 4 + 2];
        out[3] += a[i] * b4[i * 4 + 3];
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::{lane_dot, ordered_dot};

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * scale).sin() * 3.0).collect()
    }

    #[test]
    fn fold_lanes_shape_is_pinned() {
        // The documented tree, spelled out by hand. If this test moves, the
        // canonical order moved — every lane reduction in the workspace
        // changes with it, and DESIGN.md §14 must be updated.
        let a = [1e8f32, -3.0, 7.5, 1e-3, -1e8, 2.0, -7.5, 0.125];
        let expected = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
        assert_eq!(fold_lanes(a).to_bits(), expected.to_bits());
    }

    #[test]
    fn lane_axpy_is_bit_identical_to_scalar_axpy() {
        for n in [0, 1, 7, 8, 9, 15, 16, 63, 64, 65] {
            let x = seq(n, 0.73);
            let mut out = seq(n, 1.19);
            let mut reference = out.clone();
            lane_axpy(&mut out, -0.37, &x);
            for (o, &c) in reference.iter_mut().zip(&x) {
                *o += -0.37 * c;
            }
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn lane_axpy4_matches_four_sequential_lane_axpys() {
        for n in [1, 7, 8, 9, 31, 64, 65] {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| seq(n, 0.31 + r as f32)).collect();
            let w = [0.5, -1.25, 3.0, -0.0625];
            let mut blocked = seq(n, 2.17);
            let mut sequential = blocked.clone();
            lane_axpy4(&mut blocked, w, &rows[0], &rows[1], &rows[2], &rows[3]);
            for (r, &wk) in rows.iter().zip(&w) {
                lane_axpy(&mut sequential, wk, r);
            }
            for (a, b) in blocked.iter().zip(&sequential) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn lane_dot4_matches_lane_dot_per_output() {
        for n in [0, 1, 7, 8, 9, 33, 64, 71] {
            let a = seq(n, 0.91);
            let rows: Vec<Vec<f32>> = (0..4).map(|r| seq(n, 1.07 + r as f32)).collect();
            let d4 = lane_dot4(&a, &rows[0], &rows[1], &rows[2], &rows[3]);
            for (k, row) in rows.iter().enumerate() {
                assert_eq!(d4[k].to_bits(), lane_dot(&a, row).to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn interleaved_dot4_matches_lane_dot_per_output() {
        for n in [0, 1, 7, 8, 9, 33, 64, 71] {
            let a = seq(n, 0.91);
            let rows: Vec<Vec<f32>> = (0..4).map(|r| seq(n, 1.07 + r as f32)).collect();
            let mut b4 = vec![0.0f32; n * 4];
            for k in 0..n {
                for (m, row) in rows.iter().enumerate() {
                    b4[k * 4 + m] = row[k];
                }
            }
            let d4 = lane_dot4_interleaved(&a, &b4);
            for (k, row) in rows.iter().enumerate() {
                assert_eq!(d4[k].to_bits(), lane_dot(&a, row).to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn sub_lane_inputs_degenerate_to_the_legacy_scalar_order() {
        // Below one lane block the accumulator folds to +0.0 and the whole
        // input runs through the ascending scalar tail — i.e. the legacy
        // ordered_* sequence prefixed by `0.0 +`, which is bitwise inert
        // for a +0.0 start.
        for n in 0..LANE_WIDTH {
            let a = seq(n, 0.57);
            let b = seq(n, 1.43);
            assert_eq!(lane_dot(&a, &b).to_bits(), ordered_dot(&a, &b).to_bits(), "n={n}");
        }
    }
}
