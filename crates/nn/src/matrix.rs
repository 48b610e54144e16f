//! Row-major dense `f32` matrices.
//!
//! This is deliberately a plain struct over `Vec<f32>`: all shapes in the
//! reproduction are known at runtime only, and the hot kernels (matmul in
//! its three transposition flavours, elementwise maps) are hand-written
//! loops arranged for cache-friendly row streaming, per the Rust
//! performance-book guidance (no bounds checks in inner loops thanks to
//! slice windows, no allocation inside kernels).
//!
//! The GEMM kernels are the register-tiled kernels of `amud_par::lanes`,
//! run per block of output rows on the `amud-par` runtime (DESIGN.md §9,
//! §14), in the build `lanes::Build::host()` picks (AVX2 when the CPU has
//! it):
//!
//! * `matmul` keeps the classic ikj order per output element: ascending
//!   `k`, one `+= a·b` per term, a 4-k block skipped for a row whose four
//!   weights are all zero. In the AVX2 build a 4 × 16 output tile stays
//!   in registers across the whole k loop for rows that skip no block;
//!   that changes which elements are computed together, not any element's
//!   operations, so the tiling is bitwise inert.
//! * `matmul_transb` reduces each output element through the canonical
//!   lane-fold order (`amud_par::lane_dot`), eight chains side by side —
//!   the one kernel whose reduction order changed when the microkernels
//!   landed, because the legacy scalar dot was a single serial FP
//!   dependency chain the hardware could not pipeline. The lane order is a
//!   pure function of the k-extent, so it is still identical across
//!   thread counts.
//! * `matmul_transa` (the gradient path) reduces over the shared row
//!   extent `k`. Each output element is one ascending-k pass — the same
//!   sequence and zero skip as `matmul` — and the work is split over
//!   *output* rows, so no element's sum is ever cut into partials. The
//!   result is the legacy serial kernel bit for bit at every k-extent and
//!   thread count, and it does not change when all-zero rows of `other`
//!   are dropped (each would add an exact `±0` to a `+0`-started sum),
//!   which is what lets row-local training reproduce the full-graph
//!   weight gradients.
//! * the elementwise helpers (`map`, `par_zip_assign`, `par_rows_mut`)
//!   split on fixed element/row boundaries; per-element work is
//!   order-free, so they are bit-identical to serial.
//!
//! Small inputs skip the pool entirely via *per-part* work thresholds: a
//! shape fans out into `p` parts only if every part carries at least the
//! threshold's worth of work, so sub-threshold shapes (e.g. a 1200×128
//! row softmax) run the serial path instead of paying pool handoff for
//! microsecond-scale row loops. The part count is a pure function of
//! (shape, thread budget), so the serial/parallel decision is itself
//! deterministic — and by the bit-identity contract the choice is
//! unobservable in the output bits.

use amud_par::lanes;
use rand::Rng;
use std::ops::Range;

/// Minimum multiply-adds *per part* before a matmul-family kernel fans
/// out: a part below ~32k mul-adds finishes in single-digit microseconds,
/// comparable to the pool handoff itself.
const PAR_MIN_FLOPS_PER_PART: usize = 1 << 15;
/// Minimum elements *per part* for the streaming helpers (elementwise
/// maps, row softmax/normalise, argmax). These are memory-bound single
/// passes — far cheaper per element than a matmul flop — so the bar for
/// fanning out is correspondingly higher (256k elements ≈ 1 MiB per
/// part). This is what keeps a 1200×128 softmax on the serial path.
const PAR_MIN_STREAM_ELEMS_PER_PART: usize = 1 << 18;
/// Part count for `work` total units under a `min_per_part` granularity
/// floor: as many parts as the thread budget allows while keeping every
/// part at or above the floor. Purely (shape, budget)-driven.
fn bounded_parts(work: usize, min_per_part: usize) -> usize {
    amud_par::current_threads().min(work / min_per_part.max(1)).max(1)
}

/// Output-row partition for the matmul-family kernels: up to one range
/// per participating thread, fewer when rows are scarce or each part
/// would fall under [`PAR_MIN_FLOPS_PER_PART`]. Purely shape-driven.
fn output_row_parts(n_rows: usize, flops_per_row: usize) -> Vec<Range<usize>> {
    let parts = bounded_parts(n_rows.saturating_mul(flops_per_row), PAR_MIN_FLOPS_PER_PART)
        .min(n_rows.max(1));
    if parts <= 1 {
        std::iter::once(0..n_rows).collect()
    } else {
        amud_par::split_even(n_rows, parts)
    }
}

/// Row partition for the streaming per-row helpers (softmax, normalise,
/// argmax): same policy as [`output_row_parts`] under the higher
/// [`PAR_MIN_STREAM_ELEMS_PER_PART`] granularity floor.
fn stream_row_parts(n_rows: usize, elems_per_row: usize) -> Vec<Range<usize>> {
    let parts = bounded_parts(n_rows.saturating_mul(elems_per_row), PAR_MIN_STREAM_ELEMS_PER_PART)
        .min(n_rows.max(1));
    if parts <= 1 {
        std::iter::once(0..n_rows).collect()
    } else {
        amud_par::split_even(n_rows, parts)
    }
}

/// Element partition for the elementwise helpers (streaming policy).
fn elem_parts(len: usize) -> Vec<Range<usize>> {
    let parts = bounded_parts(len, PAR_MIN_STREAM_ELEMS_PER_PART).min(len.max(1));
    if parts <= 1 {
        std::iter::once(0..len).collect()
    } else {
        amud_par::split_even(len, parts)
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// All-one matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Builds from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Self { rows, cols, data }
    }

    /// Builds elementwise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Glorot/Xavier uniform initialisation: `U(−a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`. The standard initialisation for
    /// the linear layers of every model in the paper.
    pub fn xavier_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        // Row-major invariant — data.len() == rows · cols;
        // callers pass r < rows and c < cols.
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        // Row-major invariant — data.len() == rows · cols;
        // callers pass r < rows and c < cols.
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        // Row-major invariant — data.len() == rows · cols and
        // callers pass r < rows.
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        // Row-major invariant — data.len() == rows · cols and
        // callers pass r < rows.
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other`, computed by the register-tiled
    /// [`lanes::matmul`] kernel over parallel blocks of output rows.
    ///
    /// Bit-identical to the legacy scalar ikj loop (and therefore across
    /// thread counts and kernel builds): every output element accumulates
    /// its terms in ascending `k` order, one `+= a·b` per term. A block of
    /// four zero weights in one row of `self` is skipped for that row;
    /// adding a `±0.0` term is exact-identity here because an accumulator
    /// that starts at `+0.0` can never become `-0.0`, so skipping such
    /// terms cannot change a bit when `other` is finite.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions differ");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        if other.cols == 0 {
            return out;
        }
        let parts = output_row_parts(self.rows, self.cols * other.cols);
        let build = lanes::Build::host();
        amud_par::par_row_blocks_mut(&mut out.data, other.cols, &parts, |_, rows, block| {
            let a = &self.data[rows.start * self.cols..rows.end * self.cols];
            lanes::matmul(build, a, &other.data, self.cols, other.cols, block);
        });
        out
    }

    /// `self · otherᵀ` — each output element is a dot of two contiguous
    /// rows, reduced in the canonical lane-fold order
    /// ([`amud_par::lane_dot`]) by the tiled [`lanes::matmul_transb`]
    /// kernel, which runs eight independent lane-dot chains side by side.
    /// The legacy scalar dot was a single serial FP-add dependency chain;
    /// the lane fold runs eight chains wide.
    ///
    /// The reduction tree depends only on the k-extent, so the result is
    /// bit-identical at any thread count and in either kernel build.
    pub fn matmul_transb(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.cols, "matmul_transb: inner dimensions differ");
        let mut out = DenseMatrix::zeros(self.rows, other.rows);
        if other.rows == 0 {
            return out;
        }
        let parts = output_row_parts(self.rows, self.cols * other.rows);
        let build = lanes::Build::host();
        amud_par::par_row_blocks_mut(&mut out.data, other.rows, &parts, |_, rows, block| {
            let a = &self.data[rows.start * self.cols..rows.end * self.cols];
            lanes::matmul_transb(build, a, &other.data, self.cols, other.rows, block);
        });
        out
    }

    /// `selfᵀ · other` — one ascending-k pass per output element, parallel
    /// over output rows (the columns of `self`): each part streams every k
    /// and writes its own output rows only. The [`lanes::matmul_transa`]
    /// kernel keeps `matmul`'s per-element sequence and per-row zero skip,
    /// so the result is the legacy serial scatter bit for bit at any
    /// thread count (the ±0.0-skip argument from `matmul` applies
    /// verbatim — every output starts at `+0.0`).
    pub fn matmul_transa(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "matmul_transa: inner dimensions differ");
        let mut out = DenseMatrix::zeros(self.cols, other.cols);
        if other.cols == 0 {
            return out;
        }
        let parts = output_row_parts(self.cols, self.rows * other.cols);
        let build = lanes::Build::host();
        amud_par::par_row_blocks_mut(&mut out.data, other.cols, &parts, |_, rows, block| {
            lanes::matmul_transa(
                build,
                &self.data,
                self.cols,
                rows,
                &other.data,
                other.cols,
                block,
            );
        });
        out
    }

    /// Out-of-place transpose, tiled `TRANSPOSE_BLOCK × TRANSPOSE_BLOCK` so
    /// both the read and the write footprint of a tile stay cache-resident,
    /// and parallel over output-row blocks (pure assignment — order-free).
    pub fn transpose(&self) -> DenseMatrix {
        const TRANSPOSE_BLOCK: usize = 32;
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        if self.data.is_empty() {
            return out;
        }
        let parts = stream_row_parts(self.cols, self.rows);
        amud_par::par_row_blocks_mut(&mut out.data, self.rows, &parts, |_, cols, block| {
            for r0 in (0..self.rows).step_by(TRANSPOSE_BLOCK) {
                let r1 = (r0 + TRANSPOSE_BLOCK).min(self.rows);
                for c0 in (cols.start..cols.end).step_by(TRANSPOSE_BLOCK) {
                    let c1 = (c0 + TRANSPOSE_BLOCK).min(cols.end);
                    // The partition hands this
                    // closure (cols.end − cols.start) · rows elements;
                    // r < rows and c < cols.end ≤ self.cols stay inside both
                    // block and the row-major data.
                    for c in c0..c1 {
                        let out_row = &mut block[(c - cols.start) * self.rows..];
                        for (r, o) in
                            out_row[r0..r1].iter_mut().enumerate().map(|(i, o)| (r0 + i, o))
                        {
                            *o = self.data[r * self.cols + c];
                        }
                    }
                }
            }
        });
        out
    }

    /// Elementwise map into a new matrix, parallel over fixed element
    /// ranges (each element depends only on its own input — order-free).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        let parts = elem_parts(self.data.len());
        // elem_parts ranges tile 0..data.len(), which
        // par_row_blocks_mut asserts.
        amud_par::par_row_blocks_mut(&mut out.data, 1, &parts, |_, range, chunk| {
            for (o, &x) in chunk.iter_mut().zip(&self.data[range]) {
                *o = f(x);
            }
        });
        out
    }

    /// In-place elementwise zip with a same-length slice:
    /// `f(&mut self[i], other[i])` for every `i`, parallel over fixed
    /// element ranges. The autodiff backward pass runs its elementwise
    /// gradient rules through this.
    ///
    /// # Panics
    /// Panics if `other.len() != rows * cols`.
    pub fn par_zip_assign(&mut self, other: &[f32], f: impl Fn(&mut f32, f32) + Sync) {
        assert_eq!(self.data.len(), other.len(), "par_zip_assign: length mismatch");
        let parts = elem_parts(self.data.len());
        // Asserted other.len() == data.len(), and the
        // elem_parts ranges tile exactly that length.
        amud_par::par_row_blocks_mut(&mut self.data, 1, &parts, |_, range, chunk| {
            for (a, &b) in chunk.iter_mut().zip(&other[range]) {
                f(a, b);
            }
        });
    }

    /// Runs `f(r, row)` over every row, parallel over fixed row blocks.
    /// Each row is processed by the same scalar code as a serial loop, so
    /// per-row transforms (softmax, normalisation) stay bit-identical.
    pub fn par_rows_mut(&mut self, f: impl Fn(usize, &mut [f32]) + Sync) {
        if self.cols == 0 {
            return;
        }
        let parts = stream_row_parts(self.rows, self.cols);
        let cols = self.cols;
        amud_par::par_row_blocks_mut(&mut self.data, cols, &parts, |_, rows, block| {
            for (row, r) in block.chunks_exact_mut(cols).zip(rows) {
                f(r, row);
            }
        });
    }

    /// `self += alpha * other` (same shape).
    pub fn add_scaled_assign(&mut self, other: &DenseMatrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign: shape mismatch");
        self.par_zip_assign(&other.data, move |a, b| *a += alpha * b);
    }

    /// Elementwise sum of two matrices.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        let mut out = self.clone();
        out.add_scaled_assign(other, 1.0);
        out
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), other.shape(), "hadamard: shape mismatch");
        let mut out = self.clone();
        out.par_zip_assign(&other.data, |a, b| *a *= b);
        out
    }

    /// Scales all entries by `alpha`.
    pub fn scale(&self, alpha: f32) -> DenseMatrix {
        self.map(|x| alpha * x)
    }

    /// Horizontally concatenates matrices (all must share a row count).
    ///
    /// # Panics
    /// Panics on an empty list or mismatched row counts.
    pub fn concat_cols(parts: &[&DenseMatrix]) -> DenseMatrix {
        assert!(!parts.is_empty(), "concat_cols needs at least one matrix");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols: all parts must share a row count"
        );
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = DenseMatrix::zeros(rows, total_cols);
        for r in 0..rows {
            let out_row = out.row_mut(r);
            let mut offset = 0;
            // offset accumulates part widths that sum to
            // total_cols — exactly the row length of out.
            for p in parts {
                out_row[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Copies columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> DenseMatrix {
        assert!(start <= end && end <= self.cols, "slice_cols: bad range");
        let mut out = DenseMatrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Per-row index of the maximum entry — the predicted class per node.
    /// Parallel over fixed row ranges; each row's scan is independent.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.rows];
        let parts = stream_row_parts(self.rows, self.cols);
        amud_par::par_row_blocks_mut(&mut out, 1, &parts, |_, rows, chunk| {
            for (o, r) in chunk.iter_mut().zip(rows) {
                *o = self
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
            }
        });
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Row-wise L2 normalisation (zero rows stay zero). The squared norm
    /// reduces in the canonical lane-fold order — a per-row function of
    /// the column count only, so thread-invariant like every lane fold.
    pub fn l2_normalize_rows(&self) -> DenseMatrix {
        let mut out = self.clone();
        out.par_rows_mut(|_, row| {
            let norm = amud_par::lane_dot(row, row).sqrt();
            if norm > 1e-12 {
                for x in row {
                    *x /= norm;
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn a() -> DenseMatrix {
        DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn b() -> DenseMatrix {
        DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    }

    #[test]
    fn matmul_known_product() {
        let c = a().matmul(&b());
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let bt = b().transpose();
        let via_transb = a().matmul_transb(&bt);
        let direct = a().matmul(&b());
        assert_eq!(via_transb.as_slice(), direct.as_slice());
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let explicit = a().transpose().matmul(&a());
        let fused = a().matmul_transa(&a());
        assert_eq!(explicit.as_slice(), fused.as_slice());
    }

    #[test]
    fn transpose_roundtrip() {
        assert_eq!(a().transpose().transpose(), a());
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let m = a();
        let cat = DenseMatrix::concat_cols(&[&m, &m]);
        assert_eq!(cat.cols(), 6);
        assert_eq!(cat.slice_cols(0, 3), m);
        assert_eq!(cat.slice_cols(3, 6), m);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let m = DenseMatrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 2.0, -1.0, 0.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = DenseMatrix::xavier_uniform(10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= bound));
        assert!(m.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let m = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let n = m.l2_normalize_rows();
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn hadamard_and_scale() {
        let m = a();
        assert_eq!(m.hadamard(&m).as_slice(), &[1.0, 4.0, 9.0, 16.0, 25.0, 36.0]);
        assert_eq!(m.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        let _ = a().matmul(&a());
    }
}
