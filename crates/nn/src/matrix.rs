//! Row-major dense `f32` matrices.
//!
//! This is deliberately a plain struct over `Vec<f32>`: all shapes in the
//! reproduction are known at runtime only, and the hot kernels (matmul in
//! its three transposition flavours, elementwise maps) are hand-written
//! loops arranged for cache-friendly row streaming, per the Rust
//! performance-book guidance (no bounds checks in inner loops thanks to
//! slice windows, no allocation inside kernels).
//!
//! The hot kernels are register-blocked lane microkernels from
//! `amud_par::lanes` running on the `amud-par` runtime (DESIGN.md §9, §14):
//!
//! * `matmul` keeps the classic ikj axpy orientation but blocks `k` by 4
//!   ([`lanes::lane_axpy4`]): the output row stays register-resident
//!   across four weighted input rows. Per output element the
//!   floating-point op sequence is *unchanged* (ascending `k`, one
//!   `+=`-fused multiply-add per term), so the blocking is bitwise inert.
//! * `matmul_transb` reduces each output element through the canonical
//!   lane-fold order (`amud_par::lane_dot`, computed four outputs at a
//!   time by [`lanes::lane_dot4`]) — the one kernel whose reduction order
//!   changed when the microkernels landed, because the legacy scalar dot
//!   was a single serial FP dependency chain the hardware could not
//!   pipeline. The lane order is a pure function of the k-extent, so it
//!   is still identical across thread counts.
//! * `matmul_transa` (the gradient path) scatters along its `k` loop, so
//!   it is computed as per-block partial products over a **fixed** k-block
//!   structure ([`TRANSA_BLOCK_ROWS`] rows per block, independent of the
//!   thread count) folded in ascending block order; inside a block the
//!   scatter is the same 4-way `lane_axpy4` as `matmul`, ascending `k`
//!   per element — deterministic at any thread count, and bit-identical
//!   to the legacy serial kernel.
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
/// Fixed k-extent of one `matmul_transa` reduction block. Chosen above the
/// default replica node cap (1200) so every tier-1 training shape stays in
/// the single-block regime and reproduces the legacy serial kernel bit for
/// bit; large (full-scale) shapes split into at most [`TRANSA_MAX_BLOCKS`]
/// blocks regardless of thread count.
const TRANSA_BLOCK_ROWS: usize = 2048;
/// Cap on `matmul_transa` partial buffers (bounds scratch memory).
const TRANSA_MAX_BLOCKS: usize = 64;

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

    /// `self · other` — the classic ikj orientation, k-blocked by 4 so one
    /// [`lanes::lane_axpy4`] call streams four rows of `other` into a
    /// register-resident window of the output row. Output rows are computed
    /// in parallel blocks.
    ///
    /// Bit-identical to the legacy scalar ikj loop (and therefore across
    /// thread counts): every output element still accumulates its terms in
    /// ascending `k` order, one fused `+= a·b` per term. Zero weights are
    /// skipped a block at a time; adding a `±0.0` term is exact-identity
    /// here because an accumulator that starts at `+0.0` can never become
    /// `-0.0`, so skipping or including such terms cannot change a bit.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions differ");
        debug_assert!(self.data.iter().all(|v| v.is_finite()), "matmul: non-finite lhs entry");
        debug_assert!(other.data.iter().all(|v| v.is_finite()), "matmul: non-finite rhs entry");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        if other.cols == 0 {
            return out;
        }
        let parts = output_row_parts(self.rows, self.cols * other.cols);
        let k_main = self.cols - self.cols % 4;
        amud_par::par_row_blocks_mut(&mut out.data, other.cols, &parts, |_, rows, block| {
            for (out_row, i) in block.chunks_exact_mut(other.cols).zip(rows) {
                let a_row = self.row(i);
                for kb in 0..k_main / 4 {
                    let k = kb * 4;
                    let w = [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]];
                    if w == [0.0; 4] {
                        continue;
                    }
                    lanes::lane_axpy4(
                        out_row,
                        w,
                        other.row(k),
                        other.row(k + 1),
                        other.row(k + 2),
                        other.row(k + 3),
                    );
                }
                for (k, &a) in a_row.iter().enumerate().skip(k_main) {
                    if a == 0.0 {
                        continue;
                    }
                    lanes::lane_axpy(out_row, a, other.row(k));
                }
            }
        });
        out
    }

    /// `self · otherᵀ` — each output element is a dot of two contiguous
    /// rows, reduced in the canonical lane-fold order
    /// ([`amud_par::lane_dot`]) and computed four outputs at a time by
    /// [`lanes::lane_dot4`] so the loads of `self`'s row are shared across
    /// four independent accumulator chains. The legacy scalar dot was a
    /// single serial FP-add dependency chain (~4 cycles per element); the
    /// lane fold runs eight chains wide and is the reason this kernel now
    /// tracks `matmul`'s throughput instead of trailing it 4×.
    ///
    /// The reduction tree depends only on the k-extent, so the result is
    /// bit-identical at any thread count (tail outputs — `j ≥ 4·⌊n/4⌋` —
    /// go through `lane_dot` directly, which `lane_dot4` matches bitwise).
    pub fn matmul_transb(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.cols, "matmul_transb: inner dimensions differ");
        debug_assert!(
            self.data.iter().chain(&other.data).all(|v| v.is_finite()),
            "matmul_transb: non-finite operand entry"
        );
        let mut out = DenseMatrix::zeros(self.rows, other.rows);
        if other.rows == 0 {
            return out;
        }
        let parts = output_row_parts(self.rows, self.cols * other.rows);
        let j_main = other.rows - other.rows % 4;
        amud_par::par_row_blocks_mut(&mut out.data, other.rows, &parts, |_, rows, block| {
            for (out_row, i) in block.chunks_exact_mut(other.rows).zip(rows) {
                let a_row = self.row(i);
                for jb in 0..j_main / 4 {
                    let j = jb * 4;
                    let d = lanes::lane_dot4(
                        a_row,
                        other.row(j),
                        other.row(j + 1),
                        other.row(j + 2),
                        other.row(j + 3),
                    );
                    out_row[j..j + 4].copy_from_slice(&d);
                }
                for (j, o) in out_row.iter_mut().enumerate().skip(j_main) {
                    *o = amud_par::lane_dot(a_row, other.row(j));
                }
            }
        });
        out
    }

    /// Builds a one-time interleaved pack of `self` for repeated
    /// [`DenseMatrix::matmul_transb_packed`] multiplies against it.
    ///
    /// `matmul_transb` streams four strided rows of B per output block;
    /// when the *same* B is multiplied many times (per-epoch weight
    /// gradients, per-query scorer weights) that stride cost is paid on
    /// every call. The pack pays it once: the cache-blocked
    /// [`DenseMatrix::transpose`] does the heavy reordering, then a
    /// sequential copy interleaves each aligned group of four B rows into
    /// one contiguous stream (`blocks[jb][k*4 + m] = B[4jb+m][k]`).
    /// Leftover rows (`rows % 4`) stay row-major and take the `lane_dot`
    /// tail path unchanged.
    pub fn pack_transb(&self) -> PackedTransB {
        let j_main = self.rows - self.rows % 4;
        let bt = self.transpose();
        let mut blocks = Vec::with_capacity(j_main * self.cols);
        // bt = transpose() swaps dims, so bt.row(k) has
        // self.rows ≥ j_main elements; j_main ≤ rows keeps the tail start
        // inside data.
        for jb in 0..j_main / 4 {
            for k in 0..self.cols {
                blocks.extend_from_slice(&bt.row(k)[jb * 4..jb * 4 + 4]);
            }
        }
        let tail = self.data[j_main * self.cols..].to_vec();
        PackedTransB { n_rows: self.rows, cols: self.cols, blocks, tail }
    }

    /// `self · Bᵀ` against a pre-packed B — bit-identical to
    /// [`DenseMatrix::matmul_transb`] on the matrix the pack was built
    /// from.
    ///
    /// Same output-row partition, and per output the identical reduction:
    /// packed blocks run [`lanes::lane_dot4_interleaved`] (pinned bitwise
    /// to `lane_dot4`, which is pinned to `lane_dot`), tail outputs run
    /// `lane_dot` on the row-major tail rows.
    pub fn matmul_transb_packed(&self, packed: &PackedTransB) -> DenseMatrix {
        assert_eq!(self.cols, packed.cols, "matmul_transb_packed: inner dimensions differ");
        let mut out = DenseMatrix::zeros(self.rows, packed.n_rows);
        if packed.n_rows == 0 {
            return out;
        }
        let parts = output_row_parts(self.rows, self.cols * packed.n_rows);
        let j_main = packed.n_rows - packed.n_rows % 4;
        let block_len = packed.cols * 4;
        amud_par::par_row_blocks_mut(&mut out.data, packed.n_rows, &parts, |_, rows, block| {
            for (out_row, i) in block.chunks_exact_mut(packed.n_rows).zip(rows) {
                let a_row = self.row(i);
                // PackedTransB invariant — blocks
                // holds j_main/4 interleaved blocks of cols · 4 entries and
                // tail the remaining n_rows − j_main rows row-major.
                for jb in 0..j_main / 4 {
                    let b4 = &packed.blocks[jb * block_len..(jb + 1) * block_len];
                    let d = lanes::lane_dot4_interleaved(a_row, b4);
                    out_row[jb * 4..jb * 4 + 4].copy_from_slice(&d);
                }
                for (j, o) in out_row.iter_mut().enumerate().skip(j_main) {
                    let t =
                        &packed.tail[(j - j_main) * packed.cols..(j - j_main + 1) * packed.cols];
                    *o = amud_par::lane_dot(a_row, t);
                }
            }
        });
        out
    }

    /// `selfᵀ · other` — accumulates rank-1 updates row by row.
    ///
    /// The scatter runs over a *fixed* k-block structure: `self.rows` is cut
    /// into `ceil(rows / TRANSA_BLOCK_ROWS)` blocks (capped at
    /// [`TRANSA_MAX_BLOCKS`]) that depend only on the shape, each block's
    /// partial product is computed independently (in parallel), and the
    /// partials are folded in ascending block order on one thread. One
    /// block ⇒ the fold degenerates to the legacy serial kernel, which is
    /// the case for every default-scale dataset (k ≤ 1200 < 2048).
    pub fn matmul_transa(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "matmul_transa: inner dimensions differ");
        debug_assert!(
            self.data.iter().chain(&other.data).all(|v| v.is_finite()),
            "matmul_transa: non-finite operand entry"
        );
        let mut out = DenseMatrix::zeros(self.cols, other.cols);
        let out_len = out.data.len();
        // Block count is a pure function of the k-extent — never of the
        // thread count — so the summation tree is the same everywhere.
        let n_blocks = if self.rows == 0 {
            1
        } else {
            self.rows.div_ceil(TRANSA_BLOCK_ROWS).min(TRANSA_MAX_BLOCKS)
        };
        if n_blocks == 1 || out_len == 0 {
            Self::transa_block(self, other, 0..self.rows, &mut out.data);
            return out;
        }
        let k_ranges = amud_par::split_even(self.rows, n_blocks);
        // DISJOINT: singleton ranges b..b+1 tile 0..n_blocks in ascending
        // order without overlap; each block owns one partial buffer.
        let block_parts: Vec<Range<usize>> = (0..n_blocks).map(|b| b..b + 1).collect();
        let mut partials = vec![0.0f32; n_blocks * out_len];
        // split_even returns exactly n_blocks
        // ranges and b < n_blocks; partials holds n_blocks · out_len ≥
        // out_len elements (n_blocks ≥ 1 — the rows == 0 case returned).
        amud_par::par_row_blocks_mut(&mut partials, out_len, &block_parts, |b, _, partial| {
            Self::transa_block(self, other, k_ranges[b].clone(), partial);
        });
        // Ascending-order fold; block 0 is copied (not added to the zero
        // buffer) so signed zeros survive exactly as the block produced them.
        out.data.copy_from_slice(&partials[..out_len]);
        for partial in partials.chunks_exact(out_len).skip(1) {
            for (o, &p) in out.data.iter_mut().zip(partial) {
                *o += p;
            }
        }
        out
    }

    /// One k-block of the `selfᵀ · other` scatter restricted to `ks`,
    /// accumulating into `acc` (length `cols·other.cols`).
    ///
    /// Like `matmul`, the loop is k-blocked by 4 over [`lanes::lane_axpy4`]
    /// with an all-zero-weight block skip; per output element the terms
    /// still arrive in ascending `k` order, one fused `+= a·b` each, so
    /// this is bit-identical to the legacy serial scatter (the ±0.0-skip
    /// argument from `matmul` applies verbatim — `acc` starts at `+0.0`).
    fn transa_block(a: &DenseMatrix, b: &DenseMatrix, ks: Range<usize>, acc: &mut [f32]) {
        if a.cols == 0 || b.cols == 0 {
            return;
        }
        let len = ks.end - ks.start;
        let main = len - len % 4;
        for kb in 0..main / 4 {
            let k = ks.start + kb * 4;
            let (a0, a1, a2, a3) = (a.row(k), a.row(k + 1), a.row(k + 2), a.row(k + 3));
            let (b0, b1, b2, b3) = (b.row(k), b.row(k + 1), b.row(k + 2), b.row(k + 3));
            // acc.len() == a.cols · b.cols, so
            // chunks_exact(b.cols) yields i < a.cols — the row length of a.
            for (i, out_row) in acc.chunks_exact_mut(b.cols).enumerate() {
                let w = [a0[i], a1[i], a2[i], a3[i]];
                if w == [0.0; 4] {
                    continue;
                }
                lanes::lane_axpy4(out_row, w, b0, b1, b2, b3);
            }
        }
        for k in ks.start + main..ks.end {
            let a_row = a.row(k);
            let b_row = b.row(k);
            // acc.len() == a.cols · b.cols, so
            // chunks_exact(b.cols) yields i < a.cols — the row length of a.
            for (i, out_row) in acc.chunks_exact_mut(b.cols).enumerate() {
                let av = a_row[i];
                if av == 0.0 {
                    continue;
                }
                lanes::lane_axpy(out_row, av, b_row);
            }
        }
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
        // elem_parts ranges tile 0..data.len() — the same
        // invariant the runtime disjointness sanitizer checks.
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

/// One-time interleaved pack of a B matrix for repeated
/// [`DenseMatrix::matmul_transb_packed`] calls — see
/// [`DenseMatrix::pack_transb`] for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTransB {
    /// Row count of the packed B (the output column count).
    n_rows: usize,
    /// Column count of the packed B (the shared inner dimension).
    cols: usize,
    /// `⌊n_rows/4⌋` interleaved blocks of `cols·4` floats:
    /// `blocks[jb·cols·4 + k·4 + m] = B[4·jb + m][k]`.
    blocks: Vec<f32>,
    /// The `n_rows % 4` leftover rows, row-major.
    tail: Vec<f32>,
}

impl PackedTransB {
    /// Row count of the matrix this pack was built from.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column count (inner dimension) of the matrix this pack was built
    /// from.
    pub fn cols(&self) -> usize {
        self.cols
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
    fn packed_transb_is_bit_identical_to_matmul_transb() {
        // Shapes cover the interleaved block path, the row-major tail
        // (n % 4), sub-lane k extents, and parallel-partition sizes.
        for (m, k, n) in [(2, 3, 3), (5, 7, 9), (16, 8, 4), (33, 65, 30), (64, 128, 47)] {
            let a = DenseMatrix::from_fn(m, k, |r, c| ((r * 31 + c * 17) as f32 * 0.7).sin());
            let b = DenseMatrix::from_fn(n, k, |r, c| ((r * 13 + c * 29) as f32 * 0.3).cos());
            let packed = b.pack_transb();
            let via_pack = a.matmul_transb_packed(&packed);
            let direct = a.matmul_transb(&b);
            assert_eq!(via_pack.rows(), direct.rows());
            assert_eq!(via_pack.cols(), direct.cols());
            for (x, y) in via_pack.as_slice().iter().zip(direct.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn packed_transb_handles_degenerate_shapes() {
        let lhs = DenseMatrix::zeros(3, 0);
        let rhs = DenseMatrix::zeros(5, 0);
        let out = lhs.matmul_transb_packed(&rhs.pack_transb());
        assert_eq!(out.shape(), (3, 5));
        let empty = DenseMatrix::zeros(0, 3);
        assert_eq!(a().matmul_transb_packed(&empty.pack_transb()).shape(), (2, 0));
    }

    #[test]
    fn packed_transb_is_thread_count_invariant() {
        let a = DenseMatrix::from_fn(40, 24, |r, c| ((r * 7 + c) as f32 * 0.11).sin());
        let b = DenseMatrix::from_fn(22, 24, |r, c| ((r + c * 5) as f32 * 0.23).cos());
        let reference = amud_par::with_threads(1, || a.matmul_transb_packed(&b.pack_transb()));
        for threads in [2, 3, 8] {
            let got = amud_par::with_threads(threads, || a.matmul_transb_packed(&b.pack_transb()));
            for (x, y) in got.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
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
