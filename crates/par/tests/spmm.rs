//! The sparse product `amud_par::lanes::spmm`, in both builds, against a
//! scalar reference.
//!
//! Each property calls the generic build and, when the host has AVX2, the
//! AVX2 build directly, over the nnz-balanced row partitions (cuts of
//! `row_ptr`, as `CsrMatrix::spmm` makes them) for `AMUD_THREADS ∈
//! {1, 2, 3, 8}`, and compares every output bit with a reference written
//! out term by term: each element from `+0.0`, the row's stored terms in
//! ascending column order, one `+= v·x` each, none skipped. Widths
//! straddle the 64-column window (1, 7, 8, 63, 64, 65, 128, 129; the
//! runner's fixed seed draws every one of them), rows
//! are often empty, weights include ±0.0, and `X` may carry NaN and ±Inf.
//! The output starts as garbage, so every element must be written. NaN
//! results are compared as NaN.

use amud_par::lanes::{self, Build, Csr};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const WIDTHS: [usize; 8] = [1, 7, 8, 63, 64, 65, 128, 129];

/// Every build the host can run: the generic one, and AVX2 when present.
fn builds() -> Vec<Build> {
    std::iter::once(Build::GENERIC).chain(Build::avx2()).collect()
}

/// A xorshift stream from `seed`.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A value with a full mantissa in (-4, 4), so that reordering two terms
/// changes the rounding of most sums.
fn real(next: &mut impl FnMut() -> u64) -> f32 {
    (next() >> 40) as f32 / (1u64 << 24) as f32 * 8.0 - 4.0
}

/// An `n × n` CSR matrix: about a third of the rows empty, the others up
/// to 11 distinct ascending columns, with ±0.0 among the weights.
struct Sparse {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

fn sparse(n: usize, seed: u64) -> Sparse {
    let mut next = stream(seed);
    let mut m = Sparse { row_ptr: vec![0], col_idx: Vec::new(), values: Vec::new() };
    for _ in 0..n {
        if !next().is_multiple_of(3) {
            let mut cols: Vec<u32> = (0..next() % 12).map(|_| (next() % n as u64) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                m.col_idx.push(c);
                m.values.push(match next() % 10 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => real(&mut next),
                });
            }
        }
        m.row_ptr.push(m.col_idx.len());
    }
    m
}

/// `n × width` features: ±0.0 sprinkled in, and NaN and ±Inf when
/// `finite` is false.
fn features(n: usize, width: usize, seed: u64, finite: bool) -> Vec<f32> {
    let mut next = stream(seed);
    (0..n * width)
        .map(|_| match next() % 100 {
            0..=5 => 0.0,
            6..=9 => -0.0,
            10 if !finite => f32::NAN,
            11 if !finite => f32::INFINITY,
            12 if !finite => f32::NEG_INFINITY,
            _ => real(&mut next),
        })
        .collect()
}

/// `a · x` term by term.
fn reference(a: &Sparse, x: &[f32], width: usize) -> Vec<f32> {
    let n = a.row_ptr.len() - 1;
    let mut out = vec![0.0f32; n * width];
    for r in 0..n {
        for j in 0..width {
            let mut acc = 0.0f32;
            for t in a.row_ptr[r]..a.row_ptr[r + 1] {
                acc += a.values[t] * x[a.col_idx[t] as usize * width + j];
            }
            out[r * width + j] = acc;
        }
    }
    out
}

/// `a · x` over the row partition a `threads` budget cuts, on the pool,
/// into an output that starts as NaN.
fn partitioned(build: Build, a: &Sparse, x: &[f32], width: usize, threads: usize) -> Vec<f32> {
    let n = a.row_ptr.len() - 1;
    let mut out = vec![f32::NAN; n * width];
    let parts = amud_par::split_by_weight(&a.row_ptr, threads);
    amud_par::with_threads(threads, || {
        amud_par::par_row_blocks_mut(&mut out, width, &parts, |_, rows, block| {
            let block_a = Csr {
                row_ptr: &a.row_ptr[rows.start..=rows.end],
                col_idx: &a.col_idx,
                values: &a.values,
            };
            lanes::spmm(build, block_a, x, width, block);
        });
    });
    out
}

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spmm_matches_the_scalar_reference(
        n in 1usize..40,
        width_ix in 0usize..WIDTHS.len(),
        seed in 0u64..1_000_000,
        nan_inf in 0usize..2,
    ) {
        let width = WIDTHS[width_ix];
        let a = sparse(n, seed);
        let x = features(n, width, seed ^ 0xF, nan_inf == 0);
        let want = reference(&a, &x, width);
        for build in builds() {
            for threads in THREAD_COUNTS {
                let got = partitioned(build, &a, &x, width, threads);
                if let Some(i) = (0..want.len()).find(|&i| !same(got[i], want[i])) {
                    prop_assert!(
                        false,
                        "{:?} n={} width={} t={}: element {} is {:?}, reference {:?}",
                        build, n, width, threads, i, got[i], want[i]
                    );
                }
            }
        }
    }
}

#[test]
fn lengths_that_do_not_fit_the_shape_panic() {
    let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    let (col_idx, values) = ([0u32, 1], [1.0f32, 2.0]);
    let a = |row_ptr| Csr { row_ptr, col_idx: &col_idx, values: &values };
    for build in builds() {
        // No row_ptr at all.
        assert!(panics(&|| lanes::spmm(build, a(&[]), &[1.0; 4], 2, &mut [])), "{build:?}");
        // row_ptr runs past the stored terms.
        assert!(panics(&|| lanes::spmm(build, a(&[0, 3]), &[1.0; 4], 2, &mut [0.0; 2])));
        // out is not rows × x_cols.
        assert!(panics(&|| lanes::spmm(build, a(&[0, 2]), &[1.0; 4], 2, &mut [0.0; 3])));
        // Column 1 is not a row of a one-row x.
        assert!(panics(&|| lanes::spmm(build, a(&[0, 2]), &[1.0; 2], 2, &mut [0.0; 2])));
        assert!(panics(&|| lanes::spmm(build, a(&[0, 2]), &[1.0; 65], 65, &mut [0.0; 65])));
    }
}
