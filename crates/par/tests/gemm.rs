//! The tiled GEMM kernels of `amud_par::lanes`, in both builds, against
//! naive scalar references.
//!
//! Each property calls the generic build and, when the host has AVX2, the
//! AVX2 build directly, over every row-block partition that
//! `AMUD_THREADS ∈ {1, 2, 3, 8}` produces, and compares every output bit
//! with a reference written out term by term: ascending k, one `+= a·b`
//! per term, and the same per-row zero skip (`matmul`, `matmul_transa`),
//! or the canonical lane-dot tree (`matmul_transb`). Shapes straddle the
//! 4 × 16 tile (row and column remainders, outputs narrower than a tile),
//! k runs off the 4-k blocks and the 8-lane chunks, and the inputs carry
//! ±0.0, NaN, ±Inf and whole zero blocks. NaN results are compared as
//! NaN: which payload a NaN + NaN keeps depends on operand order, which
//! the compiler may swap, and carries no value.

use amud_par::lanes::{self, Build};
use proptest::prelude::*;
use std::ops::Range;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Every build the host can run: the generic one, and AVX2 when present.
fn builds() -> Vec<Build> {
    std::iter::once(Build::GENERIC).chain(Build::avx2()).collect()
}

/// A `len`-long operand from `seed`: mostly values in (-2, 2), with ±0.0
/// sprinkled in, NaN and ±Inf too when bit 0 of `mix` is set, and roughly
/// a third of the aligned 4-blocks zeroed when bit 1 is. Without zeroed
/// blocks a whole row tile is usually free of zero blocks, which is what
/// the AVX2 build needs to take its tile; with them it runs the row code.
fn operand(len: usize, seed: u64, mix: usize) -> Vec<f32> {
    let finite = mix & 1 == 0;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut v: Vec<f32> = (0..len)
        .map(|_| match next() % 100 {
            0..=7 => 0.0,
            8..=11 => -0.0,
            12 if !finite => f32::NAN,
            13 if !finite => f32::INFINITY,
            14 if !finite => f32::NEG_INFINITY,
            r => (r as f32 - 57.0) / 25.0,
        })
        .collect();
    for block in v.chunks_mut(4) {
        if mix & 2 != 0 && next() % 3 == 0 {
            block.fill(0.0);
        }
    }
    v
}

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `out += a · b` term by term: row i of `a` (`k` long) against column j
/// of `b` (row length `n`), skipping a 4-k block whose weights in row i
/// are all zero and a zero tail weight.
fn reference_matmul(a: &[f32], rows: usize, b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * n];
    for i in 0..rows {
        let w = |kt: usize| a[i * k + kt];
        for j in 0..n {
            out[i * n + j] = skip_sum(k, w, |kt| b[kt * n + j]);
        }
    }
    out
}

/// `aᵀ · b` term by term: `a` is `k × m`, `b` is `k × n`.
fn reference_transa(a: &[f32], m: usize, b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = skip_sum(k, |kt| a[kt * m + i], |kt| b[kt * n + j]);
        }
    }
    out
}

/// `Σ w(kt)·x(kt)` from `+0.0` in ascending kt, with the zero skip.
fn skip_sum(k: usize, w: impl Fn(usize) -> f32, x: impl Fn(usize) -> f32) -> f32 {
    let k_main = k - k % 4;
    let mut acc = 0.0f32;
    for kb in (0..k_main).step_by(4) {
        if (kb..kb + 4).all(|kt| w(kt) == 0.0) {
            continue;
        }
        for kt in kb..kb + 4 {
            acc += w(kt) * x(kt);
        }
    }
    for kt in k_main..k {
        if w(kt) != 0.0 {
            acc += w(kt) * x(kt);
        }
    }
    acc
}

/// `a · bᵀ` with each element a lane dot: eight interleaved partial sums
/// over the 8-aligned prefix, the fixed tree
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`, then the ascending tail.
fn reference_transb(a: &[f32], rows: usize, b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let main = k - k % 8;
    let mut out = vec![0.0f32; rows * n];
    for i in 0..rows {
        for j in 0..n {
            let (x, y) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            let mut l = [0.0f32; 8];
            for t in 0..main {
                l[t % 8] += x[t] * y[t];
            }
            let mut s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
            for t in main..k {
                s += x[t] * y[t];
            }
            out[i * n + j] = s;
        }
    }
    out
}

/// Runs `kernel(rows, block)` over the output-row partition a `threads`
/// budget produces, on the pool, and returns the assembled output.
fn partitioned(
    rows: usize,
    n: usize,
    threads: usize,
    kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * n];
    let parts = amud_par::split_even(rows, threads.min(rows).max(1));
    amud_par::with_threads(threads, || {
        amud_par::par_row_blocks_mut(&mut out, n, &parts, |_, range, block| kernel(range, block));
    });
    out
}

fn check(label: &str, got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", label);
    if let Some(i) = (0..got.len()).find(|&i| !same(got[i], want[i])) {
        prop_assert!(false, "{}: element {} is {:?}, reference {:?}", label, i, got[i], want[i]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_the_scalar_reference(
        dims in (1usize..14, 0usize..42, 1usize..41),
        seed in 0u64..1_000_000,
        mix in 0usize..4,
    ) {
        let (m, k, n) = dims;
        let a = operand(m * k, seed, mix);
        let b = operand(k * n, seed ^ 0xB, mix);
        let want = reference_matmul(&a, m, &b, k, n);
        for build in builds() {
            for threads in THREAD_COUNTS {
                let got = partitioned(m, n, threads, |rows, block| {
                    lanes::matmul(build, &a[rows.start * k..rows.end * k], &b, k, n, block);
                });
                check(&format!("matmul {build:?} {m}x{k}x{n} t={threads}"), &got, &want)?;
            }
        }
    }

    #[test]
    fn matmul_transa_matches_the_scalar_reference(
        dims in (1usize..14, 0usize..42, 1usize..41),
        seed in 0u64..1_000_000,
        mix in 0usize..4,
    ) {
        let (m, k, n) = dims;
        let a = operand(k * m, seed, mix);
        let b = operand(k * n, seed ^ 0xB, mix);
        let want = reference_transa(&a, m, &b, k, n);
        for build in builds() {
            for threads in THREAD_COUNTS {
                let got = partitioned(m, n, threads, |rows, block| {
                    lanes::matmul_transa(build, &a, m, rows, &b, n, block);
                });
                check(&format!("matmul_transa {build:?} {m}x{k}x{n} t={threads}"), &got, &want)?;
            }
        }
    }

    #[test]
    fn matmul_transb_matches_the_scalar_reference(
        dims in (1usize..14, 0usize..42, 1usize..23),
        seed in 0u64..1_000_000,
        mix in 0usize..4,
    ) {
        let (m, k, n) = dims;
        let a = operand(m * k, seed, mix);
        let b = operand(n * k, seed ^ 0xB, mix);
        let want = reference_transb(&a, m, &b, k, n);
        for build in builds() {
            for threads in THREAD_COUNTS {
                let got = partitioned(m, n, threads, |rows, block| {
                    lanes::matmul_transb(build, &a[rows.start * k..rows.end * k], &b, k, n, block);
                });
                check(&format!("matmul_transb {build:?} {m}x{k}x{n} t={threads}"), &got, &want)?;
            }
        }
    }
}

#[test]
fn the_host_build_is_avx2_exactly_when_the_cpu_has_it() {
    assert_eq!(Build::host(), Build::avx2().unwrap_or(Build::GENERIC));
}

#[test]
fn lengths_that_do_not_fit_the_shape_panic() {
    let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    for build in builds() {
        // a: 5 floats with k = 2 leaves one over; out: 4 = 2 rows of n = 2.
        let (a, b) = (vec![1.0; 5], vec![1.0; 4]);
        assert!(panics(&|| lanes::matmul(build, &a, &b, 2, 2, &mut [0.0; 4])), "{build:?}");
        // b: 5 floats with n = 2 does not give a whole k.
        let a = vec![1.0; 4];
        assert!(panics(&|| lanes::matmul_transa(build, &a, 2, 0..2, &[1.0; 5], 2, &mut [0.0; 4])));
        // out: 5 floats with n = 2 leaves one over.
        assert!(panics(&|| lanes::matmul_transb(build, &a, &b, 2, 2, &mut [0.0; 5])));
    }
}
