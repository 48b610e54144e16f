//! Fixed-width lane microkernels and the register-tiled GEMM kernels
//! built from them — the building blocks behind every dense/sparse hot
//! loop.
//!
//! A *lane block* is a `[f32; LANE_WIDTH]` accumulator updated by an
//! explicitly unrolled loop over `LANE_WIDTH` independent lanes. The shape
//! is chosen so the autovectorizer can lift each lane loop to one or two
//! SIMD ops (std only, no intrinsics), while the numerics stay fully
//! pinned:
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
//! * **Register-resident kernels** — the GEMMs ([`matmul`],
//!   [`matmul_transa`], [`matmul_transb`]) and the sparse product
//!   [`spmm`] — keep their output accumulators in registers across the
//!   whole reduction: a GEMM tile across the k loop, an `spmm` window of
//!   64 columns across all of a sparse row's stored terms. Each output
//!   element still sees exactly the operations of the row kernels above,
//!   in the same order, so keeping it in registers changes no bit. The
//!   four bodies are written once and compiled twice — for the baseline
//!   target and under `#[target_feature(enable = "avx2")]` — and [`Build`]
//!   picks the copy, once per process. No FMA is used anywhere: a fused
//!   multiply-add rounds once where `o += w * x` rounds twice.
//!
//! Lengths that are not a multiple of [`LANE_WIDTH`] take a deterministic
//! scalar tail in ascending index order. In particular, for inputs shorter
//! than one lane block the lane reductions degenerate to the legacy
//! `ordered_*` scalar order exactly (the lane accumulator folds to `+0.0`
//! and the tail is the whole input).

use std::ops::Range;

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
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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

/// Which compiled copy of the register-resident kernels ([`matmul`],
/// [`matmul_transa`], [`matmul_transb`], [`spmm`]) runs.
///
/// Each kernel body is written once and compiled twice: for the target's
/// baseline features, and (on x86-64) inside
/// `#[target_feature(enable = "avx2")]`. Both copies perform the same
/// floating-point operations in the same order, so they agree bit for bit.
/// Only the AVX2 copy tiles `matmul` and `matmul_transa`: the baseline
/// copy runs their row code, whose registers suffice. A `Build` naming the
/// AVX2 copy can only be obtained from [`Build::avx2`], which checks the
/// running CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Build(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Generic,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Build {
    /// The copy compiled for the target's baseline features; runs anywhere.
    pub const GENERIC: Build = Build(Isa::Generic);

    /// The AVX2 copy, if the running CPU supports AVX2.
    pub fn avx2() -> Option<Build> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Build(Isa::Avx2));
        }
        None
    }

    /// The fastest copy this host runs, chosen once per process.
    pub fn host() -> Build {
        static HOST: std::sync::OnceLock<Build> = std::sync::OnceLock::new();
        *HOST.get_or_init(|| Build::avx2().unwrap_or(Build::GENERIC))
    }

    fn run(self, job: Job<'_>, out: &mut [f32]) {
        match self.0 {
            Isa::Generic => run_generic(job, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `run_avx2` only requires the AVX2 instructions it was
            // compiled with. `Isa::Avx2` is private and built only by
            // `Build::avx2`, after `is_x86_feature_detected!("avx2")` said
            // the running CPU has them.
            Isa::Avx2 => unsafe { run_avx2(job, out) },
        }
    }
}

/// Output-tile height of [`matmul`] and [`matmul_transa`]: output rows
/// whose accumulators stay in registers across the whole k loop.
const MR: usize = 4;
/// Output-tile width of [`matmul`] and [`matmul_transa`]: two AVX
/// registers of f32 per tile row.
const NR: usize = 16;
/// k extent of one [`matmul_transa`] pass over the output tiles (a
/// multiple of 4, so chunks split no 4-k block).
const TRANSA_KC: usize = 32;
/// Rows of `a` per [`matmul_transb`] tile; each pairs with four rows of
/// `b`, one lane-dot chain per output element.
const TB_MR: usize = 2;

/// Output columns of one [`spmm`] window: eight AVX registers of f32.
const SPMM_W: usize = 64;

/// One kernel call over a block of output rows.
enum Job<'a> {
    Matmul { a: &'a [f32], b: &'a [f32], k: usize, n: usize },
    TransA { a: &'a [f32], m: usize, rows: Range<usize>, b: &'a [f32], n: usize },
    TransB { a: &'a [f32], b: &'a [f32], k: usize, n: usize },
    Spmm { a: Csr<'a>, x: &'a [f32], x_cols: usize },
}

/// The kernels compiled for the target's baseline features.
#[inline(never)]
fn run_generic(job: Job<'_>, out: &mut [f32]) {
    match job {
        Job::Matmul { a, b, k, n } => matmul_generic(a, b, k, n, out),
        Job::TransA { a, m, rows, b, n } => transa_generic(a, m, rows, b, n, out),
        Job::TransB { a, b, k, n } => transb_generic(a, b, k, n, out),
        Job::Spmm { a, x, x_cols } => spmm_generic(a, x, x_cols, out),
    }
}

/// The same kernels compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(job: Job<'_>, out: &mut [f32]) {
    match job {
        Job::Matmul { a, b, k, n } => matmul_avx2(a, b, k, n, out),
        Job::TransA { a, m, rows, b, n } => transa_avx2(a, m, rows, b, n, out),
        Job::TransB { a, b, k, n } => transb_avx2(a, b, k, n, out),
        Job::Spmm { a, x, x_cols } => spmm_avx2(a, x, x_cols, out),
    }
}

// One function per kernel and build: LLVM optimizes each kernel's loop
// nest on its own, which keeps every tile's accumulators in registers.
#[inline(never)]
fn matmul_generic(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    matmul_body::<false>(a, b, k, n, out);
}
#[inline(never)]
fn transa_generic(a: &[f32], m: usize, rows: Range<usize>, b: &[f32], n: usize, out: &mut [f32]) {
    transa_body::<false>(a, m, rows, b, n, out);
}
#[inline(never)]
fn transb_generic(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    transb_body(a, b, k, n, out);
}
#[inline(never)]
fn spmm_generic(a: Csr<'_>, x: &[f32], x_cols: usize, out: &mut [f32]) {
    spmm_body(a, x, x_cols, out);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn matmul_avx2(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    matmul_body::<true>(a, b, k, n, out);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn transa_avx2(a: &[f32], m: usize, rows: Range<usize>, b: &[f32], n: usize, out: &mut [f32]) {
    transa_body::<true>(a, m, rows, b, n, out);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn transb_avx2(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    transb_body(a, b, k, n, out);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn spmm_avx2(a: Csr<'_>, x: &[f32], x_cols: usize, out: &mut [f32]) {
    spmm_body(a, x, x_cols, out);
}

/// `out += a · b` for one block of output rows: `a` is those rows of the
/// left operand (`rows × k`), `b` is `k × n`, `out` is `rows × n`.
///
/// Every output element receives its terms in ascending k, one
/// `+= a·b` each — the operation sequence of the scalar ikj loop — so
/// over a zeroed `out` this is that loop's product bit for bit, in
/// either [`Build`]. A 4-k block whose weights in one row of `a` are all
/// zero is skipped for that row (a lone tail weight, when it is zero):
/// an accumulator that starts at `+0.0` never becomes `-0.0`, so the
/// skip is exact for finite `b`, and with non-finite `b` it is part of
/// the defined result. In the AVX2 build, full `MR × NR` output tiles
/// whose rows have no all-zero 4-k block keep their accumulators in
/// registers across the whole k loop; other rows, and the row and column
/// remainders, run [`lane_axpy4`] row code.
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul(build: Build, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    build.run(Job::Matmul { a, b, k, n }, out);
}

/// `out += aᵀ · b` for output rows `rows` (columns of `a`): `a` is
/// `k × m`, `b` is `k × n`, `out` is `rows.len() × n`.
///
/// The same per-element sequence as [`matmul`] — ascending k, one
/// `+= a·b` per term, the same per-row zero skip — with the weights read
/// down a column of `a`. Each call reduces over the whole k extent, so
/// splitting the output rows over threads never cuts a sum into partials.
/// In the AVX2 build each 32-k chunk tiles the row tiles before the
/// first one with an all-zero 4-k block.
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_transa(
    build: Build,
    a: &[f32],
    m: usize,
    rows: Range<usize>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    build.run(Job::TransA { a, m, rows, b, n }, out);
}

/// `out = a · bᵀ` for one block of output rows: `a` is those rows of the
/// left operand (`rows × k`), `b` is `n × k`, `out` is `rows × n`.
///
/// Each output element is one [`lane_dot`](crate::lane_dot) chain —
/// eight lane accumulators, the [`fold_lanes`] tree, an ascending scalar
/// tail — so it equals `lane_dot(a_row, b_row)` bit for bit in either
/// [`Build`]. Tiles of `2 × 4` outputs run eight chains side by side; the
/// remainders run [`lane_dot4`] / `lane_dot` row code.
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_transb(build: Build, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    build.run(Job::TransB { a, b, k, n }, out);
}

/// A block of rows of a CSR matrix: row i of the block holds the terms
/// `row_ptr[i]..row_ptr[i + 1]` of `col_idx` and `values`, so `row_ptr`
/// is one entry longer than the block has rows.
#[derive(Clone, Copy, Debug)]
pub struct Csr<'a> {
    /// Term offsets, ascending; `rows + 1` long.
    pub row_ptr: &'a [usize],
    /// Column of each term, ascending within a row.
    pub col_idx: &'a [u32],
    /// Weight of each term.
    pub values: &'a [f32],
}

/// `out = a · x` for one block of CSR rows `a`: `x` is row-major with
/// `x_cols` columns, `out` is `rows × x_cols`, and every element of `out`
/// is written.
///
/// Each output element starts at `+0.0` and receives the row's stored
/// terms in ascending column order, one `+= v·x` each, with no term
/// skipped — a stored zero weight still meets a non-finite `x`. That is
/// the scalar loop's operation sequence, so the result is that loop's bit
/// for bit, in either [`Build`] and over any row partition. Every full
/// window of 64 output columns keeps its accumulators in registers across
/// all of the row's terms and is written once; the columns past the last
/// full window run [`lane_axpy4`] row code.
///
/// # Panics
/// Panics if `a.row_ptr` is empty or runs past `a.col_idx` or `a.values`,
/// if `out` is not `rows × x_cols`, or if a column is not a row of `x`.
pub fn spmm(build: Build, a: Csr<'_>, x: &[f32], x_cols: usize, out: &mut [f32]) {
    build.run(Job::Spmm { a, x, x_cols }, out);
}

/// `WIDE` is set in the AVX2 build, whose sixteen 256-bit registers hold
/// a tile's accumulators; the baseline build's sixteen 128-bit registers
/// would spill them, so it runs the row kernel throughout. A row tile with
/// an all-zero 4-k block in any row also runs the row kernel, which tests
/// each block once for the whole output row instead of once per tile.
#[inline(always)]
fn matmul_body<const WIDE: bool>(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if k == 0 || n == 0 {
        return;
    }
    assert!(
        b.len() == k * n && a.len().is_multiple_of(k) && out.len() == a.len() / k * n,
        "matmul: shape mismatch"
    );
    let (n_main, k_main) = (n - n % NR, k - k % 4);
    let mut a_tiles = a.chunks_exact(MR * k);
    let mut out_tiles = out.chunks_exact_mut(MR * n);
    for (a4, o4) in a_tiles.by_ref().zip(out_tiles.by_ref()) {
        let rows: [&[f32]; MR] = std::array::from_fn(|r| &a4[r * k..(r + 1) * k]);
        let block = |kb: usize| rows.map(|row| *window(row, kb));
        let mut row_j0 = 0;
        if WIDE && no_zero_block(0..k_main, block) {
            for j0 in (0..n_main).step_by(NR) {
                tile(o4, n, j0, b, (0..k_main, k_main..k), block, |r, kt| rows[r][kt]);
            }
            row_j0 = n_main;
        }
        if row_j0 < n {
            for (a_row, o_row) in a4.chunks_exact(k).zip(o4.chunks_exact_mut(n)) {
                matmul_row(a_row, b, n, &mut o_row[row_j0..]);
            }
        }
    }
    let a_rest = a_tiles.remainder().chunks_exact(k);
    for (a_row, o_row) in a_rest.zip(out_tiles.into_remainder().chunks_exact_mut(n)) {
        matmul_row(a_row, b, n, o_row);
    }
}

/// `WIDE` as for [`matmul_body`]. k runs in chunks of [`TRANSA_KC`]. In
/// each chunk, row tiles run until the first one with an all-zero 4-k
/// block, and the row kernel takes the rest of the rows.
#[inline(always)]
fn transa_body<const WIDE: bool>(
    a: &[f32],
    m: usize,
    rows: Range<usize>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if n == 0 || rows.is_empty() {
        return;
    }
    let k = b.len() / n;
    assert!(
        b.len().is_multiple_of(n)
            && a.len() == k * m
            && rows.end <= m
            && out.len() == rows.len() * n,
        "matmul_transa: shape mismatch"
    );
    if !WIDE {
        transa_rows(a, m, rows, b, n, 0..k, 0, out);
        return;
    }
    let (n_main, k_main) = (n - n % NR, k - k % 4);
    // k runs in chunks so a chunk's rows of `a` and `b` stay in cache
    // across the tiles that read them; each tile picks its accumulators up
    // from `out` where the previous chunk left them, which is exact.
    for k0 in (0..k).step_by(TRANSA_KC) {
        let k1 = (k0 + TRANSA_KC).min(k);
        let ks = (k0..k1.min(k_main), k0.max(k_main)..k1);
        // Row r's weights run down column i0 + r of `a`.
        let col = |i0: usize, kt: usize| window::<MR>(a, kt * m + i0);
        // Tiles run until the first row tile with an all-zero block; the
        // rows from there on run the row kernel over this chunk.
        let mut tiled_to = rows.start;
        for (o4, i0) in out.chunks_exact_mut(MR * n).zip((rows.start..).step_by(MR)) {
            // The row tile's weight blocks in this chunk, each four row
            // windows of `a` transposed once for all its column tiles.
            let mut w = [[[0.0f32; 4]; MR]; TRANSA_KC / 4];
            for (w, kb) in w.iter_mut().zip(ks.0.clone().step_by(4)) {
                *w = std::array::from_fn(|r| std::array::from_fn(|t| col(i0, kb + t)[r]));
            }
            let block = |kb: usize| w[(kb - k0) / 4];
            if !no_zero_block(ks.0.clone(), block) {
                break;
            }
            for j0 in (0..n_main).step_by(NR) {
                tile(o4, n, j0, b, ks.clone(), block, |r, kt| col(i0, kt)[r]);
            }
            transa_rows(a, m, i0..i0 + MR, b, n, k0..k1, n_main, o4);
            tiled_to = i0 + MR;
        }
        let rest = &mut out[(tiled_to - rows.start) * n..];
        transa_rows(a, m, tiled_to..rows.end, b, n, k0..k1, 0, rest);
    }
}

#[inline(always)]
fn transb_body(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    assert!(
        b.len() == n * k && out.len().is_multiple_of(n) && a.len() == out.len() / n * k,
        "matmul_transb: shape mismatch"
    );
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let n_main = n - n % 4;
    let mut a_tiles = a.chunks_exact(TB_MR * k);
    let mut out_tiles = out.chunks_exact_mut(TB_MR * n);
    for (a2, o2) in a_tiles.by_ref().zip(out_tiles.by_ref()) {
        let rows: [&[f32]; TB_MR] = std::array::from_fn(|r| &a2[r * k..(r + 1) * k]);
        for j0 in (0..n_main).step_by(4) {
            let cols: [&[f32]; 4] = std::array::from_fn(|c| &b[(j0 + c) * k..(j0 + c + 1) * k]);
            let d = dot_tile(rows, cols);
            for (r, d_row) in d.iter().enumerate() {
                o2[r * n + j0..r * n + j0 + 4].copy_from_slice(d_row);
            }
        }
        if n_main < n {
            for (a_row, o_row) in a2.chunks_exact(k).zip(o2.chunks_exact_mut(n)) {
                transb_row(a_row, b, k, n_main, &mut o_row[n_main..]);
            }
        }
    }
    let a_rest = a_tiles.remainder().chunks_exact(k);
    for (a_row, o_row) in a_rest.zip(out_tiles.into_remainder().chunks_exact_mut(n)) {
        transb_row(a_row, b, k, 0, o_row);
    }
}

#[inline(always)]
fn spmm_body(a: Csr<'_>, x: &[f32], x_cols: usize, out: &mut [f32]) {
    let end = a.row_ptr.last().copied();
    assert!(
        end.is_some_and(|end| end <= a.col_idx.len() && end <= a.values.len())
            && out.len() == (a.row_ptr.len() - 1) * x_cols,
        "spmm: shape mismatch"
    );
    if x_cols == 0 {
        return;
    }
    let main = x_cols - x_cols % SPMM_W;
    for (terms, out_row) in a.row_ptr.windows(2).zip(out.chunks_exact_mut(x_cols)) {
        let (cols, vals) = (&a.col_idx[terms[0]..terms[1]], &a.values[terms[0]..terms[1]]);
        for j0 in (0..main).step_by(SPMM_W) {
            let p = |c: u32| window::<SPMM_W>(x, c as usize * x_cols + j0);
            let mut acc = [0.0f32; SPMM_W];
            let mut quads = cols.chunks_exact(4);
            for (c, v) in quads.by_ref().zip(vals.chunks_exact(4)) {
                let (p0, p1, p2, p3) = (p(c[0]), p(c[1]), p(c[2]), p(c[3]));
                for l in 0..SPMM_W {
                    acc[l] += v[0] * p0[l];
                    acc[l] += v[1] * p1[l];
                    acc[l] += v[2] * p2[l];
                    acc[l] += v[3] * p3[l];
                }
            }
            let rest = cols.len() - quads.remainder().len();
            for (&c, &v) in quads.remainder().iter().zip(&vals[rest..]) {
                let p0 = p(c);
                for l in 0..SPMM_W {
                    acc[l] += v * p0[l];
                }
            }
            out_row[j0..j0 + SPMM_W].copy_from_slice(&acc);
        }
        if main < x_cols {
            spmm_row(cols, vals, x, x_cols, &mut out_row[main..]);
        }
    }
}

/// Row code for [`spmm`]: one output row over columns
/// `x_cols - out.len()..x_cols`, from `+0.0`, four terms per
/// [`lane_axpy4`].
#[inline(always)]
fn spmm_row(cols: &[u32], vals: &[f32], x: &[f32], x_cols: usize, out: &mut [f32]) {
    let j0 = x_cols - out.len();
    let x_row = |c: u32| &x[c as usize * x_cols + j0..(c as usize + 1) * x_cols];
    out.fill(0.0);
    let mut quads = cols.chunks_exact(4);
    for (c, v) in quads.by_ref().zip(vals.chunks_exact(4)) {
        let w = [v[0], v[1], v[2], v[3]];
        lane_axpy4(out, w, x_row(c[0]), x_row(c[1]), x_row(c[2]), x_row(c[3]));
    }
    let rest = cols.len() - quads.remainder().len();
    for (&c, &v) in quads.remainder().iter().zip(&vals[rest..]) {
        lane_axpy(out, v, x_row(c));
    }
}

/// `xs[start..start + N]` as an array reference.
#[inline(always)]
fn window<const N: usize>(xs: &[f32], start: usize) -> &[f32; N] {
    match xs[start..start + N].try_into() {
        Ok(w) => w,
        Err(_) => unreachable!("a range of N elements is N long"),
    }
}

/// True when no tile row has an all-zero 4-k block starting in `blocks`.
#[inline(always)]
fn no_zero_block(blocks: Range<usize>, block: impl Fn(usize) -> [[f32; 4]; MR]) -> bool {
    blocks.step_by(4).all(|kb| block(kb).iter().all(|w| *w != [0.0; 4]))
}

/// One `MR × NR` output tile: columns `j0..j0 + NR` of the `MR` rows in
/// `out` (row length `n`) get `+= w · b[kt][j0 + c]` for each weight `w`
/// of row r at kt — the 4-k blocks starting in `ks.0`, then the tail
/// terms `ks.1` — in ascending kt, with the accumulators in registers
/// throughout. `block(kb)[r]` is row r's four weights at `kb..kb + 4`,
/// `weight(r, kt)` one tail weight. The caller has checked that no row
/// has a block whose four weights are all zero, so no block is skipped;
/// a zero tail weight is skipped per row.
#[inline(always)]
fn tile(
    out: &mut [f32],
    n: usize,
    j0: usize,
    b: &[f32],
    ks: (Range<usize>, Range<usize>),
    block: impl Fn(usize) -> [[f32; 4]; MR],
    weight: impl Fn(usize, usize) -> f32,
) {
    let [mut c0, mut c1, mut c2, mut c3] = std::array::from_fn(|r| *window::<NR>(out, r * n + j0));
    let (blocks, tail) = ks;
    let panel = |kt: usize| window::<NR>(b, kt * n + j0);
    for kb in blocks.step_by(4) {
        let w = block(kb);
        for (t, p) in (kb..kb + 4).map(panel).enumerate() {
            for c in 0..NR {
                c0[c] += w[0][t] * p[c];
                c1[c] += w[1][t] * p[c];
                c2[c] += w[2][t] * p[c];
                c3[c] += w[3][t] * p[c];
            }
        }
    }
    for kt in tail {
        let p = panel(kt);
        term_axpy(&mut c0, weight(0, kt), p);
        term_axpy(&mut c1, weight(1, kt), p);
        term_axpy(&mut c2, weight(2, kt), p);
        term_axpy(&mut c3, weight(3, kt), p);
    }
    for (r, acc) in [c0, c1, c2, c3].iter().enumerate() {
        out[r * n + j0..r * n + j0 + NR].copy_from_slice(acc);
    }
}

/// One tile row, one tail term: `acc[c] += w · p[c]`, or nothing when
/// `w` is zero.
#[inline(always)]
fn term_axpy(acc: &mut [f32; NR], w: f32, p: &[f32; NR]) {
    if w != 0.0 {
        for c in 0..NR {
            acc[c] += w * p[c];
        }
    }
}

/// `TB_MR × 4` lane-dot chains: `out[r][c] = lane_dot(a[r], b[c])`, all
/// slices `k` long.
#[inline(always)]
fn dot_tile(a: [&[f32]; TB_MR], b: [&[f32]; 4]) -> [[f32; 4]; TB_MR] {
    let k = a[0].len();
    let main = k - k % LANE_WIDTH;
    let mut acc = [[[0.0f32; LANE_WIDTH]; 4]; TB_MR];
    for i in (0..main).step_by(LANE_WIDTH) {
        let av: [&[f32; LANE_WIDTH]; TB_MR] = a.map(|row| window(row, i));
        let bv: [&[f32; LANE_WIDTH]; 4] = b.map(|row| window(row, i));
        for r in 0..TB_MR {
            for c in 0..4 {
                for l in 0..LANE_WIDTH {
                    acc[r][c][l] += av[r][l] * bv[c][l];
                }
            }
        }
    }
    let mut out = acc.map(|row| row.map(fold_lanes));
    for i in main..k {
        for r in 0..TB_MR {
            for c in 0..4 {
                out[r][c] += a[r][i] * b[c][i];
            }
        }
    }
    out
}

/// Row code for [`matmul`]: one output row over columns
/// `n - out.len()..n`, in 4-k [`lane_axpy4`] blocks.
#[inline(always)]
fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let j0 = n - out.len();
    let b_row = |kt: usize| &b[kt * n + j0..(kt + 1) * n];
    let k_main = a_row.len() - a_row.len() % 4;
    for (kb, w) in a_row[..k_main].chunks_exact(4).enumerate() {
        let w = [w[0], w[1], w[2], w[3]];
        if w == [0.0; 4] {
            continue;
        }
        let kt = kb * 4;
        lane_axpy4(out, w, b_row(kt), b_row(kt + 1), b_row(kt + 2), b_row(kt + 3));
    }
    for (kt, &w) in a_row.iter().enumerate().skip(k_main) {
        if w != 0.0 {
            lane_axpy(out, w, b_row(kt));
        }
    }
}

/// Row code for [`matmul_transa`]: output rows `rows` (`out` holds them,
/// row length `n`) over columns `j0..n` and the terms `ks` (starting on a
/// 4-k block), k blocked by 4 outermost.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "the operands and the span of rows, k and columns")]
fn transa_rows(
    a: &[f32],
    m: usize,
    rows: Range<usize>,
    b: &[f32],
    n: usize,
    ks: Range<usize>,
    j0: usize,
    out: &mut [f32],
) {
    if j0 == n {
        return;
    }
    let k = b.len() / n;
    let a_col = |kt: usize| &a[kt * m..(kt + 1) * m][rows.clone()];
    let b_row = |kt: usize| &b[kt * n + j0..(kt + 1) * n];
    let k_main = k - k % 4;
    for kt in (ks.start..ks.end.min(k_main)).step_by(4) {
        let (a0, a1, a2, a3) = (a_col(kt), a_col(kt + 1), a_col(kt + 2), a_col(kt + 3));
        let (b0, b1, b2, b3) = (b_row(kt), b_row(kt + 1), b_row(kt + 2), b_row(kt + 3));
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            let w = [a0[i], a1[i], a2[i], a3[i]];
            if w == [0.0; 4] {
                continue;
            }
            lane_axpy4(&mut out_row[j0..], w, b0, b1, b2, b3);
        }
    }
    for kt in ks.start.max(k_main)..ks.end {
        let (a_k, b_k) = (a_col(kt), b_row(kt));
        for (out_row, &w) in out.chunks_exact_mut(n).zip(a_k) {
            if w != 0.0 {
                lane_axpy(&mut out_row[j0..], w, b_k);
            }
        }
    }
}

/// Row code for [`matmul_transb`]: one output row over columns
/// `j0..j0 + out.len()`, four [`lane_dot4`] outputs at a time.
#[inline(always)]
fn transb_row(a_row: &[f32], b: &[f32], k: usize, j0: usize, out: &mut [f32]) {
    let b_row = |j: usize| &b[j * k..(j + 1) * k];
    let mut chunks = out.chunks_exact_mut(4);
    let mut j = j0;
    for o in chunks.by_ref() {
        o.copy_from_slice(&lane_dot4(a_row, b_row(j), b_row(j + 1), b_row(j + 2), b_row(j + 3)));
        j += 4;
    }
    for o in chunks.into_remainder() {
        *o = crate::lane_dot(a_row, b_row(j));
        j += 1;
    }
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
